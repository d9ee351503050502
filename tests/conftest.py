"""Shared test helpers."""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

from k3moduli import cli
from k3moduli.errors import NotNearInteger
from k3moduli.numerics import BigComplex, recognize_integer


def valid_discs(bound: int) -> list[int]:
    """Negative discriminants d with |d| <= bound, descending from -3."""
    return [d for d in range(-3, -bound - 1, -1) if d % 4 in (0, 1)]


def default_digits(h: int) -> int:
    """A fixed precision linear in h, 30 + 10h digits, for reference runs;
    the library starts at its precision floor instead."""
    return 30 + 10 * h


def certified_integer(z: BigComplex, tol: str) -> int:
    """recognize_integer(z), which must also lie within tol (read exactly as a
    decimal) of z in both parts: |Re z - n| < tol and |Im z| < tol, else
    NotNearInteger."""
    n = recognize_integer(z)
    bound = Fraction(tol) * (1 << z.bits)  # tol in units of 2^-bits
    if not (abs(z.re - (n << z.bits)) < bound and abs(z.im) < bound):
        raise NotNearInteger(f"value is not within {tol} of {n}")
    return n


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Invoke the CLI in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def as_mpc(ctx, z: BigComplex):
    """z = (re + i*im) * 2^-bits as an mpc of ctx, rounded to its precision."""
    return ctx.mpc(ctx.ldexp(z.re, -z.bits), ctx.ldexp(z.im, -z.bits))


def from_mpc(ctx, value, digits: int) -> BigComplex:
    """value (an mpf or mpc of ctx) rounded to a multiple of 2^-bits, bits = ctx.prec."""
    value = ctx.mpc(value)
    re, im = (int(ctx.nint(ctx.ldexp(part, ctx.prec))) for part in (value.real, value.imag))
    return BigComplex(re, im, ctx.prec, digits)
