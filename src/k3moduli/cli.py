"""Command-line interface: lattice analysis, class groups, orbits, class
polynomials, and stratified enumeration, as JSON or fixed-width text.

JSON envelopes are deterministic: stable key order, canonical decimal integer
strings for polynomial coefficients (lowest degree first), Gram matrices as
[[2a, b], [b, 2c]], classes as [a, b, c].  One writer, _json, writes every
envelope, byte for byte as json.dumps(sort_keys=True, indent=2) would; the
analyze envelope of a primitive discriminant is written once, with holes
that each query fills with one % (_analyze_envelope), and the classgroup
envelope's Cayley table is printed into its hole (_emit).  The grammar is one
table, _COMMANDS; argparse is loaded only for an argv _match leaves to it.
"""

from __future__ import annotations

import os
import sys
from _json import encode_basestring_ascii  # CPython's C encoder, without the json package
from functools import cache, lru_cache
from itertools import chain
from math import isqrt
from types import SimpleNamespace

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


# The grammar, stated once: each command's help line, then its arguments as
# the name and the keywords of argparse's add_argument (see _match).
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "text"})
_GRAM = {"type": int, "nargs": 4, "metavar": "G"}
_COMMANDS = {
    "analyze": (
        "full moduli report for a transcendental lattice",
        ("gram", {**_GRAM, "help": "Gram entries 2a b b 2c (row-major)"}),
        _FORMAT,
    ),
    "classgroup": (
        "classes, Cayley table and genus data of C(D)",
        ("disc", {"type": int, "help": "negative discriminant (pass after --)"}),
        _FORMAT,
    ),
    "orbit": ("Galois-conjugate lattices (the genus, scaled by m)", ("gram", _GRAM), _FORMAT),
    "classpoly": ("class polynomial of a discriminant", ("disc", {"type": int}), _FORMAT),
    "enumerate": (
        "strata of lattices by |disc| and class number",
        ("--max-disc", {"type": int, "required": True}),
        ("--max-h", {"type": int}),
        ("--primitive-only", {"action": "store_true"}),
        _FORMAT,
    ),
}


@cache
def build_parser():
    """The argparse parser of _COMMANDS, built once per process: it reads
    each argv that _match leaves, and writes every help text and error."""
    import argparse  # here alone: a canonical argv never loads it

    parser = argparse.ArgumentParser(
        prog="k3moduli",
        description="Class-group invariants and fields of moduli of singular K3 surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, *arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
    return parser


# the least size of a refused Gram entry: below it |b^2 - 4ac| has at most
# 4001 digits, so what analyze and orbit print stays within str's 4300
_GRAM_BOUND = 10**2000


def _gram_matrix(entries: list[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    if any(abs(x) >= _GRAM_BOUND for x in entries):
        raise InputError("Gram entries must be below 10^2000 in size")
    g11, g12, g21, g22 = entries
    return ((g11, g12), (g21, g22))


def _row(t: TranscLattice) -> tuple[int, ...]:
    """A lattice as a flat row of ints, in the key order of its JSON object:
    disc, disc0, the four Gram entries, m and the primitive class (a, b, c)."""
    return (t.disc, t.disc0, *t.gram[0], *t.gram[1], t.m, *t.q0.rep.coefficients())


def _lattice(row) -> dict:
    """The lattice object of the envelope's "lattice" schema, from a row of
    _row; its sorted keys write the row in order, so a row of _HOLE gives
    the lattice's part of a template (see _analyze_envelope)."""
    disc, disc0, g11, g12, g21, g22, m, a, b, c = row
    return {
        "disc": disc,
        "disc0": disc0,
        "gram": [[g11, g12], [g21, g22]],
        "m": m,
        "primitive_class": [a, b, c],
    }


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


def _field_payload(fields: moduli.FieldReport) -> dict:
    """The fields of an analyze payload that depend on disc0 alone; a
    ModuliReport has them under the same names."""
    mq = list(map(_decimal, fields.mq_min_poly))  # M_K's and M_Q's (see moduli)
    return {
        "disc0": fields.disc0,
        "d_k": fields.d_k,
        "h": fields.h,
        "genus_order": fields.g,
        "degree_mk_over_k": fields.g,
        "degree_mq_over_q": fields.g,
        "mq_is_galois": fields.mq_is_galois,
        "class_polynomial": list(map(_decimal, fields.class_polynomial)),
        "mk_min_poly": mq,
        "mq_min_poly": mq,
        "precision_used": fields.precision_used,
    }


def _report_payload(report: moduli.ModuliReport) -> dict:
    payload = _field_payload(report)
    payload.update(disc=report.disc, m=report.m, orbit=[_lattice(_row(t)) for t in report.orbit])
    return payload


def _classgroup_payload(group: classgroup.ClassGroup) -> dict:
    genera = group._genus_fibres  # in the order its docstring names
    return {
        "disc": group.disc,
        "h": group.h,
        "classes": list(map(list, group.forms)),
        "elementary_divisors": list(group.elementary_divisors),
        "two_torsion": sorted(classgroup.two_torsion(group)),
        "principal_genus": list(genera[0]),
        "genus_cosets": list(map(list, genera)),
        "genus_count": len(genera),
        "genus_order": classgroup.genus_order(group),
    }


_ENUMERATE_BOUND = 10**5  # the largest --max-disc: 16-19 s in process on a 2-vCPU VM


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


def _text_lines(command: str, payload: dict) -> list[str]:
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
    return lines


class _CayleyTable(tuple):
    """classgroup.cayley(group, labels) with labels the decimal strings of the
    class indices: h rows of h strings, which _json joins as lists of numbers."""

    __slots__ = ()


# a field left open in JSON rendered ahead of its values (see _template and _emit)
_HOLE = object()


def _json(value, newline: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) for str, int, bool, None,
    lists and dicts, byte for byte, for a _CayleyTable as its rows in lists,
    and _HOLE as a NUL character, which no other value writes: a NUL in a
    string is written \\u0000.  A list of ints or of strings is joined in
    one go, a list of int lists all of one length k >= 1 (the classes, the
    genus cosets) is one format of its rows filled by one %, and a
    _CayleyTable is one join of its rows, each joined once.  A list of one
    object repeated is written from one text of it.  Types are matched
    exactly: any other type, a subclass too, raises TypeError."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = newline + "  "
    if kind is list:
        kinds = set(map(type, value))
        if kinds == {int}:
            items = list(map(int.__repr__, value))
        elif kinds == {str}:
            items = list(map(encode_basestring_ascii, value))
        elif (
            kinds == {list}
            and value[0]
            and len(set(map(len, value))) == 1
            and set(map(type, chain(*value))) == {int}
        ):  # rows of one length, as the classes and the genus cosets
            sep, head, tail = _row_parts(newline)
            rows = [sep.join(["%d"] * len(value[0]))] * len(value)
            return _enclose(rows, newline, "[]", head, tail) % tuple(chain(*value))
        elif len(set(map(id, value))) == 1:  # the orbit of a template (_analyze_envelope)
            items = [_json(value[0], inner)] * len(value)
        else:
            items = [_json(x, inner) for x in value]
        return _enclose(items, newline, "[]")
    if kind is dict:
        items = [
            encode_basestring_ascii(key) + ": " + _json(value[key], inner) for key in sorted(value)
        ]
        return _enclose(items, newline, "{}")
    if kind is _CayleyTable:  # each row joined once, straight from its gather
        sep, head, tail = _row_parts(newline)
        return _enclose(list(map(sep.join, value)), newline, "[]", head, tail)
    if value is _HOLE:
        return "\0"
    raise TypeError(f"{type(value).__name__} is not emitted as JSON")


def _enclose(items: list[str], newline: str, brackets: str, head: str = "", tail: str = "") -> str:
    """The items between the two brackets, one per line at the indent under
    newline, each between head and tail (a list of lists passes its rows'
    brackets), as json.dumps writes a list or a dict.  The brackets, the
    first head and the last tail go onto the first and last item, and the
    other heads and tails into the separator, so the join is the one copy
    made of the items: a large Cayley table is not copied again, nor held
    twice beside its rows."""
    if not items:
        return brackets
    inner = newline + "  "
    items[0] = brackets[0] + inner + head + items[0]
    items[-1] += tail + newline + brackets[1]
    return (tail + "," + inner + head).join(items)


def _row_parts(newline: str) -> tuple[str, str, str]:
    """For a list of lists under newline: the separator of a row's items,
    and the head and tail that _enclose puts around each row."""
    inner = newline + "    "
    return "," + inner, "[" + inner, newline + "  ]"


def _template(value) -> str:
    """_json(value) as a format string: each _HOLE is a %d, to be filled in
    the order _json writes them, sorted-key order, and any other % doubled."""
    return _json(value).replace("%", "%%").replace("\0", "%d")


def _envelope(command: str, input_echo: dict, payload: dict) -> dict:
    """The report envelope; no command raises a warning, so "warnings" is
    always empty."""
    return {
        "command": command,
        "version": __version__,
        "input": input_echo,
        "result": payload,
        "warnings": [],
    }


def _emit(args: SimpleNamespace, payload: dict, table: str = "") -> None:
    """Print payload in args.format: JSON in its envelope, which echoes the
    arguments but the command and format as its input, with its one _HOLE,
    if any, printed as table, which no enclosing level then copies; or text
    lines."""
    if args.format == "json":
        echo = {
            key: [value[:2], value[2:]] if key == "gram" else value
            for key, value in vars(args).items()
            if key not in ("command", "format")
        }
        head, _, tail = _json(_envelope(args.command, echo, payload)).partition("\0")
        print(head, table, tail, sep="")
    else:
        print("\n".join(_text_lines(args.command, payload)))


# Every field of an analyze report but the lattice's Gram matrix, disc, m and
# orbit depends on D0 alone, so the JSON of a D0 is rendered once, with those
# four fields left open.  Bounded as moduli.field_report, whose two
# polynomials an entry holds as text: 0.31 MiB at D0 = -40004 (tracemalloc).
# A refused D0 stores nothing, as lru_cache keeps no exception.
@lru_cache(maxsize=32)
def _analyze_envelope(disc0: int) -> str:
    """The analyze JSON envelope of the lattices of disc0, rendered from
    moduli.field_report(disc0) as a _template.  Its holes, in sorted-key
    order, are the four entries of input.gram, result.disc, result.m and
    then result.orbit, a row of _row for each of its g lattices (g is fixed
    by disc0)."""
    fields = moduli.field_report(disc0)
    payload = _field_payload(fields)
    payload.update(disc=_HOLE, m=_HOLE, orbit=[_lattice((_HOLE,) * 10)] * fields.g)
    gram = [[_HOLE, _HOLE], [_HOLE, _HOLE]]
    return _template(_envelope("analyze", {"gram": gram}, payload))


def run(args: SimpleNamespace) -> int:
    if args.command == "analyze":
        lattice = k3.from_gram(_gram_matrix(args.gram))
        report = moduli.moduli_report(lattice)
        if args.format == "json":
            rows = chain.from_iterable(map(_row, report.orbit))
            print(_analyze_envelope(report.disc0) % (*args.gram, report.disc, report.m, *rows))
            return EXIT_OK
        payload = _report_payload(report)
    elif args.command == "classgroup":
        group = classgroup.class_group(args.disc)
        payload = _classgroup_payload(group)
        if args.format == "json":  # the text form prints no Cayley table
            names = [str(i) for i in range(group.h)]
            table = _CayleyTable(classgroup.cayley(group, names))
            payload["cayley"] = _HOLE
            _emit(args, payload, _json(table, "\n    "))  # at result.cayley's indent
            return EXIT_OK
    elif args.command == "orbit":
        lattice = k3.from_gram(_gram_matrix(args.gram))
        payload = {
            "disc": lattice.disc,
            "lattices": [_lattice(_row(t)) for t in k3.galois_orbit(lattice)],
        }
    elif args.command == "classpoly":
        coeffs, used = moduli.class_polynomial_with_precision(args.disc)
        payload = {
            "disc": args.disc,
            "degree": len(coeffs) - 1,
            "coefficients": list(map(_decimal, coeffs)),
            "precision_used": used,
        }
    else:  # enumerate: _parse admits no other command
        if args.max_disc <= 0 or (args.max_h is not None and args.max_h <= 0):
            raise InputError("bounds must be positive")
        if args.max_disc > _ENUMERATE_BOUND:
            raise InputError(f"--max-disc exceeds {_ENUMERATE_BOUND}, the largest enumerate takes")
        payload = {
            "max_abs_disc": args.max_disc,
            "max_class_number": args.max_h,
            "primitive_only": args.primitive_only,
            "strata": _enumerate_rows(args.max_disc, args.max_h, args.primitive_only),
        }
    _emit(args, payload)
    return EXIT_OK


def _operand(token: str) -> bool:
    """Whether argparse reads token as an operand, never as an option: it does
    not start with -, or it is a negative integer, as no option looks like one."""
    return not token.startswith("-") or (token[1:].isdigit() and token[1:].isascii())


def _value(keywords: dict, tokens: list[str]):
    """What argparse stores for the argument of keywords from tokens: each
    converted by its type (a ValueError where it refuses one), as a list
    where nargs is given.  None where one lies outside the choices."""
    values = [keywords.get("type", str)(token) for token in tokens]
    if any(value not in keywords.get("choices", values) for value in values):
        return None
    return values if "nargs" in keywords else values[0]


def _match(argv: list[str]) -> SimpleNamespace | None:
    """build_parser().parse_args(argv), read off _COMMANDS alone, for a
    canonical argv: the command; then its options, each at most once by its
    exact name, a flag alone and any other with the next token as its value;
    then one optional --; then exactly its operands.  None, with nothing
    raised, for any other argv, so that argparse writes every help text,
    version line and error itself."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, *arguments = _COMMANDS[argv[0]]
    args = {"command": argv[0]}  # argparse's key order: the command, then the table's
    read, options, operands = {}, {}, []
    for name, keywords in arguments:
        dest = name.lstrip("-").replace("-", "_")
        flag = keywords.get("action") == "store_true"
        args[dest] = keywords.get("default", False if flag else None)
        if name.startswith("-"):
            options[name] = dest, keywords
        else:
            operands.append((dest, keywords))
    rest = argv[1:]
    try:
        while rest and rest[0] in options:
            dest, keywords = options.pop(rest.pop(0))  # a repeat is then no option
            if keywords.get("action") == "store_true":
                read[dest] = True
            elif rest and not rest[0].startswith("-"):
                read[dest] = _value(keywords, [rest.pop(0)])
            else:
                return None
        if operands and rest[:1] == ["--"]:  # a -- before no operand goes to argparse
            del rest[0]
        for dest, keywords in operands:
            count = keywords.get("nargs", 1)
            tokens, rest = rest[:count], rest[count:]
            if len(tokens) < count or not all(map(_operand, tokens)):
                return None
            read[dest] = _value(keywords, tokens)
    except ValueError:
        return None
    if rest or None in read.values() or any(k.get("required") for _, k in options.values()):
        return None
    return SimpleNamespace(**{**args, **read})


def _parse(argv: list[str]) -> SimpleNamespace:
    """build_parser().parse_args(argv), as a SimpleNamespace: a canonical argv
    is read by _match alone, and any other by the whole parser."""
    args = _match(argv)
    return SimpleNamespace(**vars(build_parser().parse_args(argv))) if args is None else args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
