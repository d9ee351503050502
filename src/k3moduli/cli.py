"""Command-line interface: lattice analysis, class groups, orbits, class
polynomials, and stratified enumeration, as JSON or fixed-width text.

JSON envelopes are deterministic: stable key order, canonical decimal integer
strings for polynomial coefficients (lowest degree first), Gram matrices as
[[2a, b], [b, 2c]], classes as [a, b, c].
"""

from __future__ import annotations

import argparse
import os
import sys
from _json import encode_basestring_ascii  # CPython's C encoder, without the json package
from functools import cache
from math import isqrt

from . import __version__, classgroup, k3, moduli
from .errors import InputError, K3ModuliError, PrecisionError
from .k3 import TranscLattice

EXIT_OK = 0
EXIT_CLOSED_OUTPUT = 1  # stdout was closed before the output was written
EXIT_INPUT = 2
EXIT_PRECISION = 3

ENVELOPE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "k3moduli report envelope",
    "type": "object",
    "required": ["command", "version", "input", "result", "warnings"],
    "additionalProperties": False,
    "properties": {
        "command": {"enum": ["analyze", "classgroup", "orbit", "classpoly", "enumerate"]},
        "version": {"type": "string"},
        "input": {"type": "object"},
        "result": {"type": "object"},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
    "$defs": {
        "polynomial": {
            "description": "coefficient strings, lowest degree first",
            "type": "array",
            "items": {"type": "string"},
        },
        "gram": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}, "minItems": 2, "maxItems": 2},
            "minItems": 2,
            "maxItems": 2,
        },
        "class": {"type": "array", "items": {"type": "integer"}, "minItems": 3, "maxItems": 3},
        "lattice": {
            "type": "object",
            "required": ["gram", "m", "primitive_class", "disc", "disc0"],
            "properties": {
                "gram": {"$ref": "#/$defs/gram"},
                "m": {"type": "integer"},
                "primitive_class": {"$ref": "#/$defs/class"},
                "disc": {"type": "integer"},
                "disc0": {"type": "integer"},
            },
        },
    },
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: main reuses it on every call."""
    parser = argparse.ArgumentParser(
        prog="k3moduli",
        description="Class-group invariants and fields of moduli of singular K3 surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("analyze", help="full moduli report for a transcendental lattice")
    p.add_argument("gram", type=int, nargs=4, metavar="G", help="Gram entries 2a b b 2c (row-major)")
    add_common(p)

    p = sub.add_parser("classgroup", help="classes, Cayley table and genus data of C(D)")
    p.add_argument("disc", type=int, help="negative discriminant (pass after --)")
    add_common(p)

    p = sub.add_parser("orbit", help="Galois-conjugate lattices (the genus, scaled by m)")
    p.add_argument("gram", type=int, nargs=4, metavar="G")
    add_common(p)

    p = sub.add_parser("classpoly", help="class polynomial of a discriminant")
    p.add_argument("disc", type=int)
    add_common(p)

    p = sub.add_parser("enumerate", help="strata of lattices by |disc| and class number")
    p.add_argument("--max-disc", type=int, required=True)
    p.add_argument("--max-h", type=int, default=None)
    p.add_argument("--primitive-only", action="store_true")
    add_common(p)

    return parser


def _gram_matrix(entries: list[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    g11, g12, g21, g22 = entries
    return ((g11, g12), (g21, g22))


def _lattice_payload(lattice: TranscLattice) -> dict:
    return {
        "gram": [list(row) for row in lattice.gram],
        "m": lattice.m,
        "primitive_class": list(lattice.q0.rep.coefficients()),
        "disc": lattice.disc,
        "disc0": lattice.disc0,
    }


def _poly_strings(coeffs) -> list[str]:
    return [_decimal(c) for c in coeffs]


_CHUNK = 10**600  # below 640, the least limit sys.set_int_max_str_digits accepts


def _decimal(n: int) -> str:
    """str(n) at any size.  str refuses integers of more digits than
    sys.get_int_max_str_digits(), 4300 by default, and H_D has coefficients of
    about 8000 digits when classpoly runs near |D| = 10^6; such an integer is
    written 600 digits at a time."""
    try:
        return str(n)
    except ValueError:
        head, tail = divmod(abs(n), _CHUNK)
        return f"{'-' if n < 0 else ''}{_decimal(head)}{tail:0600d}"


def _report_payload(report: moduli.ModuliReport) -> dict:
    mq = _poly_strings(report.mq_min_poly)  # M_K's and M_Q's (see moduli)
    return {
        "disc": report.disc,
        "disc0": report.disc0,
        "m": report.m,
        "d_k": report.d_k,
        "h": report.h,
        "genus_order": report.g,
        "degree_mk_over_k": report.g,
        "degree_mq_over_q": report.g,
        "mq_is_galois": report.mq_is_galois,
        "orbit": [_lattice_payload(t) for t in report.orbit],
        "class_polynomial": _poly_strings(report.class_polynomial),
        "mk_min_poly": mq,
        "mq_min_poly": mq,
        "precision_used": report.precision_used,
    }


def _classgroup_payload(group: classgroup.ClassGroup) -> dict:
    partition = classgroup.genus_partition(group)
    return {
        "disc": group.disc,
        "h": group.h,
        "classes": [list(c.rep.coefficients()) for c in group.classes],
        "elementary_divisors": list(group.elementary_divisors),
        "two_torsion": sorted(classgroup.two_torsion(group)),
        "principal_genus": sorted(partition.principal_genus),
        "genus_cosets": [sorted(c) for c in partition.cosets],
        "genus_count": len(partition.cosets),
        "genus_order": classgroup.genus_order(group),
    }


def _enumerate_rows(max_disc: int, max_h: int | None, primitive_only: bool) -> list[dict]:
    """Strata rows (disc = m^2 * disc0, m, disc0), |disc| <= max_disc, in order
    of |disc|, then m: C(disc0) is read once per primitive discriminant, and
    its rescalings m repeat its data."""
    rows = []
    for n0 in range(3, max_disc + 1):
        d0 = -n0
        if d0 % 4 not in (0, 1):
            continue
        h, genera = classgroup.class_number_and_genera(d0)
        if max_h is not None and h > max_h:
            continue
        top = 1 if primitive_only else isqrt(max_disc // n0)
        for m in range(1, top + 1):
            rows.append(
                {
                    "disc": m * m * d0,
                    "m": m,
                    "disc0": d0,
                    "h": h,
                    "genus_count": genera,
                    "genus_order": h // genera,
                }
            )
    rows.sort(key=lambda r: (-r["disc"], r["m"]))
    return rows


# ---------------------------------------------------------------------------
# text rendering


def _poly_text(coeffs) -> str:
    """Human form, highest degree first, from the decimal strings of the
    coefficients (see _decimal)."""
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == "0":
            continue
        negative, term = c.startswith("-"), c.lstrip("-")
        if k:
            x = "x" if k == 1 else f"x^{k}"
            term = x if term == "1" else f"{term}*{x}"
        if not parts:
            parts.append(f"-{term}" if negative else term)
        else:
            parts.append(f"- {term}" if negative else f"+ {term}")
    return " ".join(parts) if parts else "0"


def _text_lines(command: str, payload: dict, warnings: list[str]) -> list[str]:
    lines = [f"k3moduli {command}"]

    def row(label, value):
        lines.append(f"  {label:<18} {value}")

    if command == "analyze":
        row("disc", f"{payload['disc']}  (primitive part {payload['disc0']}, m = {payload['m']})")
        row("CM field", f"Q(sqrt({payload['d_k']}))")
        row("class number h", payload["h"])
        row("genus order g", payload["genus_order"])
        row("[M_K : K]", payload["degree_mk_over_k"])
        row("[M_Q : Q]", payload["degree_mq_over_q"])
        row("M_Q Galois over Q", "yes" if payload["mq_is_galois"] else "no")
        row("class polynomial", _poly_text(payload["class_polynomial"]))
        row("M_K min poly", _poly_text(payload["mk_min_poly"]))
        row("M_Q min poly", _poly_text(payload["mq_min_poly"]))
        for t in payload["orbit"]:
            row("orbit member", f"m = {t['m']} * class {tuple(t['primitive_class'])}")
        row("precision used", f"{payload['precision_used']} digits")
    elif command == "classgroup":
        row("disc", payload["disc"])
        row("class number h", payload["h"])
        row("classes", " ".join(str(tuple(c)) for c in payload["classes"]))
        row("divisors", payload["elementary_divisors"])
        row("two torsion", payload["two_torsion"])
        row("principal genus", payload["principal_genus"])
        row("genus count", payload["genus_count"])
        row("genus order g", payload["genus_order"])
    elif command == "orbit":
        for t in payload["lattices"]:
            row("lattice", f"gram {t['gram']}  m = {t['m']}  class {tuple(t['primitive_class'])}")
    elif command == "classpoly":
        row("disc", payload["disc"])
        row("degree", payload["degree"])
        row("polynomial", _poly_text(payload["coefficients"]))
        row("precision used", f"{payload['precision_used']} digits")
    elif command == "enumerate":
        max_h = payload["max_class_number"]
        h_bound = "no bound on h" if max_h is None else f"h <= {max_h}"
        row("bounds", f"|disc| <= {payload['max_abs_disc']}, {h_bound}")
        for r in payload["strata"]:
            row(
                "stratum",
                f"disc {r['disc']:>6}  m {r['m']}  disc0 {r['disc0']:>6}  h {r['h']:>3}"
                f"  genera {r['genus_count']:>3}  g {r['genus_order']:>3}",
            )
    for w in warnings:
        lines.append(f"  warning: {w}")
    return lines


class _CayleyTable(tuple):
    """classgroup.cayley(group, labels) with labels the decimal strings of the
    class indices: h rows of h strings, which _json joins as lists of numbers."""

    __slots__ = ()


def _json(value, newline: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for str, int, bool, None,
    lists and dicts, byte for byte, and for a _CayleyTable as its rows in
    lists; a list of ints is joined in one go.  Any other type raises
    TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, _CayleyTable):
        entry = inner + "  "
        rows = ("[" + entry + ("," + entry).join(row) + inner + "]" for row in value)
        return "[" + inner + ("," + inner).join(rows) + newline + "]"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(type(x) is int for x in value):
            items = map(str, value)
        else:
            items = (_json(x, inner) for x in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            encode_basestring_ascii(key) + ": " + _json(value[key], inner) for key in sorted(value)
        )
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"{type(value).__name__} is not emitted as JSON")


def _emit(command: str, input_echo: dict, payload: dict, warnings: list[str], fmt: str) -> None:
    if fmt == "json":
        envelope = {
            "command": command,
            "version": __version__,
            "input": input_echo,
            "result": payload,
            "warnings": warnings,
        }
        print(_json(envelope))
    else:
        print("\n".join(_text_lines(command, payload, warnings)))


def run(args: argparse.Namespace) -> int:
    warnings: list[str] = []
    if args.command == "analyze":
        lattice = k3.from_gram(_gram_matrix(args.gram))
        report = moduli.moduli_report(lattice)
        warnings = list(report.warnings)
        payload = _report_payload(report)
        echo = {"gram": [list(r) for r in _gram_matrix(args.gram)]}
    elif args.command == "classgroup":
        group = classgroup.class_group(args.disc)
        payload = _classgroup_payload(group)
        if args.format == "json":  # the text form prints no Cayley table
            names = [str(i) for i in range(group.h)]
            payload["cayley"] = _CayleyTable(classgroup.cayley(group, names))
        echo = {"disc": args.disc}
    elif args.command == "orbit":
        lattice = k3.from_gram(_gram_matrix(args.gram))
        payload = {
            "disc": lattice.disc,
            "lattices": [_lattice_payload(t) for t in k3.galois_orbit(lattice)],
        }
        echo = {"gram": [list(r) for r in _gram_matrix(args.gram)]}
    elif args.command == "classpoly":
        coeffs, used = moduli.class_polynomial_with_precision(args.disc)
        payload = {
            "disc": args.disc,
            "degree": len(coeffs) - 1,
            "coefficients": _poly_strings(coeffs),
            "precision_used": used,
        }
        echo = {"disc": args.disc}
    else:  # enumerate: argparse admits no other command
        if args.max_disc <= 0 or (args.max_h is not None and args.max_h <= 0):
            raise InputError("bounds must be positive")
        classgroup.check_size(args.max_disc)
        payload = {
            "max_abs_disc": args.max_disc,
            "max_class_number": args.max_h,
            "primitive_only": args.primitive_only,
            "strata": _enumerate_rows(args.max_disc, args.max_h, args.primitive_only),
        }
        echo = {
            "max_disc": args.max_disc,
            "max_h": args.max_h,
            "primitive_only": args.primitive_only,
        }
    _emit(args.command, echo, payload, warnings, args.format)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): point stdout at devnull, so
        # that the interpreter's own flush at exit raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_OUTPUT
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except K3ModuliError as exc:  # invalid input, a broken invariant or a failed exact check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
