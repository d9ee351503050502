"""Shared test helpers."""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction
from functools import lru_cache
from math import ceil

from k3moduli import cli, moduli
from k3moduli.errors import NotNearInteger
from k3moduli.numerics import BigComplex, recognize_integer


def valid_discs(bound: int) -> list[int]:
    """Negative discriminants d with |d| <= bound, descending from -3."""
    return [d for d in range(-3, -bound - 1, -1) if d % 4 in (0, 1)]


def default_digits(h: int) -> int:
    """A fixed precision linear in h, 30 + 10h digits, for reference runs;
    the library starts at its precision floor instead."""
    return 30 + 10 * h


def kernel_floor(group, n: int) -> int:
    """The precision floor of the polynomial over kernel n's values at every
    class (moduli._height with its default partition, one class per part):
    the digits at which their product is expected to be certified."""
    return ceil(moduli._height(group, n=n)) + moduli.GUARD_DIGITS


def hd_floor(group) -> int:
    """H_D's own precision floor, the kernel floor of j (n = 1).  Both
    floors the library starts at are at most this one."""
    return kernel_floor(group, 1)


def certified_integer(z: BigComplex, tol: str) -> int:
    """recognize_integer(z), which must also lie within tol (read exactly as a
    decimal) of z in both parts: |Re z - n| < tol and |Im z| < tol, else
    NotNearInteger."""
    n = recognize_integer(z)
    bound = Fraction(tol) * (1 << z.bits)  # tol in units of 2^-bits
    if not (abs(z.re - (n << z.bits)) < bound and abs(z.im) < bound):
        raise NotNearInteger(f"value is not within {tol} of {n}")
    return n


def empty_field_cache(monkeypatch) -> None:
    """Give moduli an empty field report cache, and cli an empty analyze
    envelope cache, for the rest of the test: no polynomials or envelopes
    cached earlier skip a patched step, and none made under a patch outlive
    the test."""
    for module, name in ((moduli, "field_report"), (cli, "_analyze_envelope")):
        cached = getattr(module, name)
        fresh = lru_cache(maxsize=cached.cache_info().maxsize)(cached.__wrapped__)
        monkeypatch.setattr(module, name, fresh)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Invoke the CLI in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def as_mpc(ctx, z: BigComplex):
    """z = (re + i*im) * 2^-bits as an mpc of ctx, rounded to its precision."""
    return ctx.mpc(ctx.ldexp(z.re, -z.bits), ctx.ldexp(z.im, -z.bits))


def from_mpc(ctx, value) -> BigComplex:
    """value (an mpf or mpc of ctx) rounded to a multiple of 2^-bits, bits = ctx.prec."""
    value = ctx.mpc(value)
    re, im = (int(ctx.nint(ctx.ldexp(part, ctx.prec))) for part in (value.real, value.imag))
    return BigComplex(re, im, ctx.prec)
