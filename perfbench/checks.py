"""Exact output checks, run outside the timed region of each query.

Expected values come from forms.py, mpmath's own kleinj and the ideal
arithmetic of k3moduli.orders, which no timed query reaches.  A check returns None when the output is
right and a short reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import gcd, log, pi, prod, sqrt

from k3moduli.orders import compose_general
from k3moduli.qforms import FormClass, QuadForm
from mpmath.ctx_mp import MPContext

from forms import genus_count, is_ambiguous, principal_form, reduce_form, reduced_forms

COMPOSE_SAMPLES = 8
GUARD_DIGITS = 30
# dropped before hashing: a precision-floor change may change it legitimately
VOLATILE_KEYS = ("precision_used",)


def result_digest(result: dict) -> str:
    """sha256 of the canonical JSON of an envelope's result, minus VOLATILE_KEYS."""
    stable = {k: v for k, v in result.items() if k not in VOLATILE_KEYS}
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def lattice_of(argv: list[str]) -> tuple[int, tuple[int, int, int]]:
    """(m, primitive form) of an analyze query's Gram matrix."""
    g11, g12, _, g22 = map(int, argv[-4:])
    a, b, c = g11 // 2, g12, g22 // 2
    m = gcd(a, b, c)
    return m, (a // m, b // m, c // m)


def _int_poly(coeffs) -> list[int] | str:
    if not isinstance(coeffs, list) or not all(isinstance(s, str) for s in coeffs):
        return "coefficients are not a list of strings"
    try:
        ints = [int(s) for s in coeffs]
    except ValueError:
        return "non-integer coefficient"
    if [str(v) for v in ints] != coeffs:
        return "coefficient not in canonical decimal form"
    return ints


def class_polynomial_error(d: int, coeffs) -> str | None:
    """Monic of degree h(d), and |P(j0)| < 1/2 at j0 = j(tau0) of the principal form.

    P(j0) is evaluated at a precision covering its largest term.  One
    coefficient off by e moves P(j0) by e * j0^k, at least 1, so the residual
    test rejects it; errors in several coefficients would have to cancel to
    within 1/2 to pass.
    """
    ints = _int_poly(coeffs)
    if isinstance(ints, str):
        return ints
    h = len(reduced_forms(d))
    if len(ints) != h + 1 or ints[-1] != 1:
        return f"not monic of degree h = {h}"
    log10_j = pi * sqrt(-d) / log(10) + 1
    top = max(len(str(abs(c))) + k * log10_j for k, c in enumerate(ints) if c)
    ctx = MPContext()
    ctx.dps = int(top) + GUARD_DIGITS
    _, b0, _ = principal_form(d)
    j0 = 1728 * ctx.kleinj(ctx.mpc(ctx.mpf(-b0) / 2, ctx.sqrt(-d) / 2))
    acc = ctx.mpc(0)
    for c in reversed(ints):
        acc = acc * j0 + c
    if not abs(acc) < 0.5:
        return f"residual at j(tau0) is {ctx.nstr(abs(acc), 5)}"
    return None


class Checker:
    """Checks one workload's outputs; remembers class polynomials already verified."""

    def __init__(self, golden: dict[str, str]):
        self.golden = golden
        self._verified: set[tuple[int, tuple[str, ...]]] = set()

    def check(self, argv: list[str], stdout: str) -> tuple[str | None, dict]:
        """(reason or None, the parsed envelope) for one query's stdout."""
        try:
            envelope = json.loads(stdout)
            result = envelope["result"]
        except (ValueError, KeyError, TypeError):
            return "stdout is not a JSON envelope", {}
        if envelope.get("command") != argv[0]:
            return "wrong command in envelope", envelope
        expected = self.golden.get(" ".join(argv))
        if expected is not None and result_digest(result) != expected:
            return "result differs from the golden digest", envelope
        try:
            reason = getattr(self, "_" + argv[0])(argv, result)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            reason = f"malformed result: {exc!r}"
        return reason, envelope

    def _poly_ok(self, d: int, coeffs) -> str | None:
        key = (d, tuple(coeffs) if isinstance(coeffs, list) else ())
        if key in self._verified:
            return None
        reason = class_polynomial_error(d, coeffs)
        if reason is None:
            self._verified.add(key)
        return reason

    def _classpoly(self, argv, result) -> str | None:
        d = int(argv[-1])
        if result["disc"] != d or result["degree"] != len(result["coefficients"]) - 1:
            return "disc or degree field wrong"
        return self._poly_ok(d, result["coefficients"])

    def _analyze(self, argv, result) -> str | None:
        m, q0 = lattice_of(argv)
        a, b, c = q0
        d0 = b * b - 4 * a * c
        forms = reduced_forms(d0)
        h = len(forms)
        g = h // sum(map(is_ambiguous, forms))
        if (result["disc0"], result["m"], result["disc"], result["h"]) != (d0, m, m * m * d0, h):
            return "disc, disc0, m or h wrong"
        if not result["genus_order"] == result["degree_mk_over_k"] == result["degree_mq_over_q"] == g:
            return f"degrees differ from g = {g}"
        if not isinstance(result["mq_is_galois"], bool):
            return "mq_is_galois is not a boolean"
        mq = _int_poly(result["mq_min_poly"])
        if isinstance(mq, str) or len(mq) != g + 1 or mq[-1] != 1:
            return "mq_min_poly is not monic of degree g"
        if result["mk_min_poly"] != result["mq_min_poly"]:
            return "mk_min_poly differs from mq_min_poly"
        orbit = result["orbit"]
        classes = [tuple(t["primitive_class"]) for t in orbit]
        if len(orbit) != g or len(set(classes)) != g or not set(classes) <= set(forms):
            return "orbit is not g distinct reduced classes"
        for t, (x, y, z) in zip(orbit, classes):
            if (t["m"], t["disc"], t["disc0"]) != (m, m * m * d0, d0) or t["gram"] != [
                [2 * m * x, m * y],
                [m * y, 2 * m * z],
            ]:
                return "orbit member inconsistent"
        # the input's own class lies in its genus
        if reduce_form(*q0) not in classes:
            return "orbit misses the input class"
        return self._poly_ok(d0, result["class_polynomial"])

    def _classgroup(self, argv, result) -> str | None:
        d = int(argv[-1])
        forms = reduced_forms(d)
        h = len(forms)
        if result["disc"] != d or result["h"] != h:
            return "disc or h wrong"
        if [tuple(c) for c in result["classes"]] != forms:
            return "classes differ from the reduced forms"
        table = result["cayley"]
        e = forms.index(principal_form(d))
        full = set(range(h))
        if len(table) != h or any(len(row) != h or set(row) != full for row in table):
            return "Cayley table is not a Latin square"
        if any(set(col) != full for col in zip(*table)):
            return "Cayley table is not a Latin square"
        if any(table[i][j] != table[j][i] for i in range(h) for j in range(i)):
            return "Cayley table is not commutative"
        if table[e] != list(range(h)):
            return "principal class is not the identity"
        divisors = result["elementary_divisors"]
        if prod(divisors) != h or any(y % x for x, y in zip(divisors, divisors[1:])) or 1 in divisors:
            return "elementary divisors wrong"
        torsion = [i for i, f in enumerate(forms) if is_ambiguous(f)]
        if result["two_torsion"] != torsion or [i for i in range(h) if table[i][i] == e] != torsion:
            return "two torsion differs from the ambiguous classes"
        if len(torsion) != 2 ** sum(1 for x in divisors if x % 2 == 0):
            return "two torsion does not match the elementary divisors"
        g = result["genus_order"]
        count = result["genus_count"]
        if len(torsion) * g != h or count != genus_count(d) or count != len(result["genus_cosets"]):
            return "genus data wrong"
        squares = sorted({table[i][i] for i in range(h)})
        cosets = result["genus_cosets"]
        if result["principal_genus"] != squares or squares not in cosets:
            return "principal genus wrong"
        if sorted(i for coset in cosets for i in coset) != list(range(h)):
            return "genus cosets do not partition the classes"
        if any(len(coset) != g for coset in cosets):
            return "genus cosets have the wrong size"
        return self._sampled_products(d, forms, table)

    @staticmethod
    def _sampled_products(d, forms, table) -> str | None:
        """Re-derive seeded table entries by ideal multiplication in orders."""
        rng = random.Random(d)
        classes = [FormClass(QuadForm(*f), d) for f in forms]
        for _ in range(COMPOSE_SAMPLES):
            i, j = rng.randrange(len(forms)), rng.randrange(len(forms))
            if compose_general(classes[i], classes[j]) != classes[table[i][j]]:
                return f"Cayley entry ({i}, {j}) differs from ideal multiplication"
        return None
