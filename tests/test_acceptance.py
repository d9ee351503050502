"""Acceptance criteria, one test per criterion.

Each test runs its full criterion at the stated tolerance, is timed against
the stated budget, and prints one PASS/FAIL line (visible with pytest -s).
"""

import json
import time
from contextlib import contextmanager

from k3moduli import moduli
from k3moduli.classgroup import cayley, class_group, genus_partition, principal_genus, two_torsion
from k3moduli.k3 import from_gram, scale
from k3moduli.numerics import CMPoint, j_invariant, poly_from_roots
from k3moduli.orders import compose_general, form_to_ideal, ideal_to_form, multiply, reduction_map
from k3moduli.qforms import compose, inverse

from conftest import certified_integer, default_digits, run_cli, valid_discs

_GROUPS = {}


def groups_up_to(bound):
    out = {}
    for d in valid_discs(bound):
        if d not in _GROUPS:
            _GROUPS[d] = class_group(d)
        out[d] = _GROUPS[d]
    return out


@contextmanager
def criterion(num, limit, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit
    verdict = "PASS" if ok else "FAIL (overtime)"
    print(f"\nACCEPTANCE {num}: {verdict} ({elapsed:.2f}s, budget {limit:.0f}s) - {description}")
    assert ok, f"criterion {num} exceeded its {limit:.0f}s budget: {elapsed:.2f}s"


def run_json(argv):
    code, out = run_cli(argv)
    assert code == 0, out
    return json.loads(out)


def test_criterion_1_paper_example_reproduction():
    with criterion(1, 5.0, "paper example D = -23 via the CLI"):
        group = run_json(["classgroup", "--format", "json", "--", "-23"])["result"]
        assert group["classes"] == [[1, 1, 6], [2, -1, 3], [2, 1, 3]]
        assert group["genus_count"] == 1
        assert group["genus_order"] == 3

        analysis = run_json(["analyze", "--format", "json", "2", "1", "1", "12"])["result"]
        assert analysis["degree_mk_over_k"] == 3
        assert analysis["degree_mq_over_q"] == 3
        assert analysis["mq_is_galois"] is False

        poly = run_json(["classpoly", "--format", "json", "--", "-23"])["result"]
        coeffs = [int(c) for c in poly["coefficients"]]
        assert len(coeffs) == 4 and coeffs[-1] == 1
        # exact cubic discriminant < 0: one real root, one conjugate pair
        d0, c, b = coeffs[0], coeffs[1], coeffs[2]
        disc = 18 * b * c * d0 - 4 * b**3 * d0 + b * b * c * c - 4 * c**3 - 27 * d0 * d0
        assert disc < 0


def test_criterion_2_scaling_invariance():
    with criterion(2, 30.0, "reports invariant under lattice scaling (n = 2, 3, 5)"):
        for gram in (((2, 1), (1, 12)), ((4, 1), (1, 6))):
            base = moduli.moduli_report(from_gram(gram))
            for n in (2, 3, 5):
                scaled = moduli.moduli_report(scale(from_gram(gram), n))
                assert scaled.h == base.h
                assert scaled.g == base.g
                assert scaled.mq_min_poly == base.mq_min_poly
                assert scaled.mq_is_galois == base.mq_is_galois


def test_criterion_3_oracle_equivalence():
    with criterion(3, 300.0, "Dirichlet composition = ideal-lattice composition, |D| <= 2000"):
        mismatches = 0
        for d, group in groups_up_to(2000).items():
            lattices = [form_to_ideal(cls) for cls in group.classes]
            for i, x in enumerate(group.classes):
                for j, y in enumerate(group.classes):
                    via_forms = compose(x, y)
                    via_ideals = ideal_to_form(multiply(lattices[i], lattices[j]))
                    if via_forms != via_ideals:
                        mismatches += 1
        assert mismatches == 0


def test_criterion_4_exact_sequence_cardinalities():
    with criterion(4, 60.0, "h = |C^2| * |C[2]| and genus count = |C[2]|, |D| <= 2000"):
        failures = 0
        for d, group in groups_up_to(2000).items():
            squares = principal_genus(group)
            torsion = two_torsion(group)
            partition = genus_partition(group)
            if group.h != len(squares) * len(torsion):
                failures += 1
            if len(partition.cosets) != len(torsion):
                failures += 1
        assert failures == 0


def test_criterion_5_orbit_genus_identity():
    with criterion(5, 300.0, "{g^-2 * q0} = q0 * C^2 for every class, |D0| <= 2000"):
        failures = 0
        for d, group in groups_up_to(2000).items():
            squares = principal_genus(group)
            table = cayley(group)
            inverse_squares = {group.inverse_index(table[g][g]) for g in range(group.h)}
            for q0 in range(group.h):
                orbit = {table[q0][t] for t in inverse_squares}
                coset = {table[q0][s] for s in squares}
                if orbit != coset:
                    failures += 1
        assert failures == 0


def test_criterion_6_class_polynomial_integrality_and_stability():
    with criterion(6, 600.0, "class polynomials integral and precision-stable, |D| <= 500"):
        for d in valid_discs(500):
            group = class_group(d)
            digits = default_digits(group.h)
            recognized = []
            for dg in (digits, 2 * digits):
                js = [
                    j_invariant(CMPoint(c.rep.a, c.rep.b, d), dg) for c in group.classes
                ]
                coeffs = poly_from_roots(js)
                # residual below 1e-10 of the unit rounding gap
                recognized.append([certified_integer(c, "1e-10") for c in coeffs])
            assert recognized[0] == recognized[1], d
            assert len(recognized[0]) == group.h + 1, d
            assert recognized[0][-1] == 1, d


def test_criterion_7_j_sanity():
    with criterion(7, 5.0, "j(i) = 1728 and j((1+sqrt(-3))/2) = 0 at 40+ digits"):
        at_i = j_invariant(CMPoint(1, 0, -4), 45)
        assert certified_integer(at_i, "1e-40") == 1728
        at_rho = j_invariant(CMPoint(1, -1, -3), 45)
        assert certified_integer(at_rho, "1e-40") == 0


def test_criterion_8_reduction_map_homomorphism_and_compatibility():
    with criterion(8, 120.0, "reduction maps: homomorphism and red-compatibility, f <= 6"):
        failures = 0
        for d_k in (-3, -4, -7, -8, -11, -15, -20, -23, -24):
            for f in range(1, 7):
                group = class_group(f * f * d_k)
                for f0 in range(1, f + 1):
                    if f % f0:
                        continue
                    red = {cls: reduction_map(cls, f0) for cls in group.classes}
                    for x in group.classes:
                        for y in group.classes:
                            if red[compose(x, y)] != compose(red[x], red[y]):
                                failures += 1
                    base = class_group(f0 * f0 * d_k)
                    for g in group.classes:
                        g_inv = inverse(g)
                        red_g_inv = inverse(red[g])
                        for q in base.classes:
                            if compose_general(g_inv, q) != compose(red_g_inv, q):
                                failures += 1
        assert failures == 0


def test_criterion_9_enumeration_stratum():
    with criterion(9, 10.0, "enumerate --max-disc 200 --max-h 1: all g = 1, stable output"):
        argv = ["enumerate", "--format", "json", "--max-disc", "200", "--max-h", "1"]
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical
        rows = json.loads(out1)["result"]["strata"]
        assert rows  # finite, non-empty
        assert all(r["genus_order"] == 1 for r in rows)
        assert all(r["h"] == 1 for r in rows)
