import tracemalloc
from collections import Counter
from functools import lru_cache
from math import gcd, isqrt

import pytest

from k3moduli import classgroup, qforms
from k3moduli.classgroup import (
    MAX_ABS_DISC,
    cayley,
    class_group,
    genus_of,
    genus_order,
    genus_partition,
    principal_genus,
    reduced_representatives,
    two_torsion,
)
from k3moduli.errors import InputError, K3ModuliError
from k3moduli.k3 import galois_orbit, lattice_from_class
from k3moduli.qforms import FormClass, QuadForm, compose, form_class, inverse, principal_class

from conftest import run_cli, valid_discs

SMALL_DISCS = valid_discs(300)


def classes_of(group):
    return {c.rep.coefficients() for c in group.classes}


def test_enumerate_minus_23():
    group = class_group(-23)
    assert classes_of(group) == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}
    assert group.h == 3
    assert group.elementary_divisors == (3,)


def test_enumerate_minus_4():
    group = class_group(-4)
    assert classes_of(group) == {(1, 0, 1)}
    assert group.elementary_divisors == ()


def test_enumerate_minus_56():
    group = class_group(-56)
    assert classes_of(group) == {(1, 0, 14), (2, 0, 7), (3, 2, 5), (3, -2, 5)}
    assert group.h == 4
    assert group.elementary_divisors == (4,)


@pytest.mark.parametrize("d", [-5, -6, 0, 7])
def test_enumerate_bad_discriminant(d):
    with pytest.raises(InputError, match="is not a negative quadratic discriminant"):
        class_group(d)


def test_two_torsion():
    g23 = class_group(-23)
    assert two_torsion(g23) == {g23.principal_index}
    g4 = class_group(-4)
    assert two_torsion(g4) == {0}
    g56 = class_group(-56)
    assert {g56.classes[i].rep.coefficients() for i in two_torsion(g56)} == {
        (1, 0, 14),
        (2, 0, 7),
    }


def test_principal_genus_and_partition():
    g23 = class_group(-23)
    assert principal_genus(g23) == frozenset(range(3))
    part = genus_partition(g23)
    assert len(part.cosets) == 1

    g4 = class_group(-4)
    assert genus_partition(g4).cosets == (frozenset({0}),)

    g56 = class_group(-56)
    # squares of the order-4 generator: the two ambiguous classes
    assert {g56.classes[i].rep.coefficients() for i in principal_genus(g56)} == {
        (1, 0, 14),
        (2, 0, 7),
    }
    part56 = genus_partition(g56)
    assert len(part56.cosets) == 2
    assert all(len(c) == 2 for c in part56.cosets)


def test_genus_of():
    g23 = class_group(-23)
    assert genus_of(g23, form_class(2, 1, 3)) == frozenset(range(3))
    g4 = class_group(-4)
    assert genus_of(g4, form_class(1, 0, 1)) == frozenset({0})
    g56 = class_group(-56)
    got = {g56.classes[i].rep.coefficients() for i in genus_of(g56, form_class(3, 2, 5))}
    # brute-force oracle: the coset {x^2 * (3,2,5)} computed by direct composition
    oracle = {
        compose(compose(x, x), form_class(3, 2, 5)).rep.coefficients()
        for x in g56.classes
    }
    assert got == oracle == {(3, 2, 5), (3, -2, 5)}
    with pytest.raises(InputError, match="is not a class of discriminant -56"):
        genus_of(g56, form_class(1, 1, 6))


@pytest.mark.parametrize("d", [-56, -420, -3299, -60060])
def test_genus_of_matches_the_coset_scan(d):
    # the per-class genus index against the scan it replaced: the genera
    # rebuilt from their keys, then the one coset that holds the class
    group = class_group(d)
    keys = classgroup._genera(group)
    cosets = tuple(map(frozenset, classgroup.fibres(group, keys.__getitem__)))
    assert genus_partition(group).cosets == cosets
    for i, cls in enumerate(group.classes):
        assert genus_of(group, cls) == next(genus for genus in cosets if i in genus)


def test_a_second_orbit_builds_no_second_partition(monkeypatch):
    # the partition is built on the first read and kept by the group
    fresh = lru_cache(maxsize=32)(class_group.__wrapped__)
    monkeypatch.setattr(classgroup, "class_group", fresh)
    genera, calls = classgroup._genera, []
    monkeypatch.setattr(classgroup, "_genera", lambda group: calls.append(group) or genera(group))
    group = fresh(-455)  # h = 20, four genera of five classes
    cls = group.classes[-1]
    first = galois_orbit(lattice_from_class(1, cls))
    second = galois_orbit(lattice_from_class(3, inverse(cls)))
    assert len(calls) == 1
    assert [t.q0 for t in first] == [t.q0 for t in second] and len(first) == 5
    assert {t.m for t in second} == {3} and cls in [t.q0 for t in first]
    genus_partition(group)
    assert len(calls) == 1


def test_genus_order():
    assert genus_order(class_group(-23)) == 3
    assert genus_order(class_group(-4)) == 1
    assert genus_order(class_group(-56)) == 2


def test_structure_3299():
    group = class_group(-3299)
    assert group.h == 27
    # oracle: the order profile separates Z/3 x Z/9 from Z/27
    profile = Counter(group.order_of(i) for i in range(group.h))
    assert profile == Counter({9: 18, 3: 8, 1: 1})
    assert group.elementary_divisors == (3, 9)


def test_structure_divisibility_chain():
    for d in SMALL_DISCS:
        divisors = class_group(d).elementary_divisors
        prod = 1
        for k in divisors:
            prod *= k
        assert prod == class_group(d).h
        assert all(divisors[i + 1] % divisors[i] == 0 for i in range(len(divisors) - 1))


def test_exact_sequence_cardinalities_small():
    for d in SMALL_DISCS:
        group = class_group(d)
        assert group.h == len(principal_genus(group)) * len(two_torsion(group))
        part = genus_partition(group)
        assert len(part.cosets) == len(two_torsion(group))
        assert sorted(i for c in part.cosets for i in c) == list(range(group.h))
        assert all(len(c) == len(part.principal_genus) for c in part.cosets)
        # the principal class leads the reduced forms, and its genus is C^2
        assert group.classes[group.principal_index] == principal_class(d)
        assert not any(group.coords[group.principal_index])
        assert part.principal_genus == {group.mul(i, i) for i in range(group.h)}


def test_genus_coset_criterion():
    for d in SMALL_DISCS[:40]:
        group = class_group(d)
        squares = principal_genus(group)
        for x in group.classes:
            for y in group.classes:
                same = genus_of(group, x) == genus_of(group, y)
                quotient = compose(x, inverse(y))
                assert same == (group.index_of(quotient) in squares)


def test_form_and_inverse_share_genus():
    for d in SMALL_DISCS:
        group = class_group(d)
        for x in group.classes:
            assert genus_of(group, x) == genus_of(group, inverse(x))


def test_two_torsion_is_ambiguous_forms():
    # cross-check of two independent characterizations
    for d in SMALL_DISCS:
        group = class_group(d)
        ambiguous = {
            i
            for i, cls in enumerate(group.classes)
            if cls.rep.b == 0 or cls.rep.a == cls.rep.b or cls.rep.a == cls.rep.c
        }
        table = cayley(group)
        squares_to_one = {i for i in range(group.h) if table[i][i] == group.principal_index}
        assert two_torsion(group) == ambiguous == squares_to_one


def test_a_group_is_its_reduced_triples():
    # forms are plain int triples; classes wraps the same forms, and C[2] is
    # the forms with b = 0, b = a or a = c
    for d in valid_discs(3000):
        group = class_group.__wrapped__(d)
        assert group.forms == tuple(map(tuple, reduced_representatives(d))), d
        assert all(type(f) is tuple and len(f) == 3 for f in group.forms), d
        assert group.classes == tuple(FormClass(QuadForm(*f), d) for f in group.forms), d
        ambiguous = {i for i, (a, b, c) in enumerate(group.forms) if b in (0, a) or a == c}
        assert two_torsion(group) == ambiguous, d


def test_classgroup_and_classpoly_queries_build_no_form_classes():
    class_group.cache_clear()
    # Weber's x, gamma_2, sqrt(D) gamma_3 and j
    for k, d in enumerate((-23, -56, -51, -4620, -3299), 1):
        for command in ("classgroup", "classpoly"):
            code, _ = run_cli([command, "--format", "json", "--", str(d)])
            assert code == 0, (command, d)
        group = class_group(d)
        assert class_group.cache_info().misses == k  # both queries read this group
        assert "classes" not in vars(group), d
    assert group.classes and "classes" in vars(group)


def test_ambiguous_forms_are_scanned_once_per_group(monkeypatch):
    calls = 0
    scan = classgroup._is_ambiguous

    def counting(form):
        nonlocal calls
        calls += 1
        return scan(form)

    monkeypatch.setattr(classgroup, "_is_ambiguous", counting)
    for d in (-23, -4620, -40004):
        calls = 0
        group = class_group.__wrapped__(d)
        assert two_torsion(group) == two_torsion(group)
        assert calls == group.h, d


def test_cayley_is_latin_square():
    for d in SMALL_DISCS[:60]:
        group = class_group(d)
        full = list(range(group.h))
        table = cayley(group)
        for row in table:
            assert sorted(row) == full
        for col in zip(*table):
            assert sorted(col) == full


# ---------------------------------------------------------------------------
# oracle: the table of all h^2 compositions, and invariant factors peeled off
# it one maximal cyclic subgroup at a time


def _quotient_invariant_factors(table, identity):
    n = len(table)
    if n == 1:
        return []

    def order(i):
        k, j = 1, i
        while j != identity:
            j = table[j][i]
            k += 1
        return k

    best = max(range(n), key=order)
    d = order(best)
    sub = [identity]
    j = best
    while j != identity:
        sub.append(j)
        j = table[j][best]
    coset_id, reps = {}, []
    for i in range(n):
        if i in coset_id:
            continue
        cid = len(reps)
        reps.append(i)
        for s in sub:
            coset_id[table[i][s]] = cid
    quotient = [[coset_id[table[a][b]] for b in reps] for a in reps]
    return _quotient_invariant_factors(quotient, coset_id[identity]) + [d]


def _oracle(d):
    classes = [FormClass(rep, d) for rep in reduced_representatives(d)]
    index = {cls: i for i, cls in enumerate(classes)}
    cayley = tuple(tuple(index[compose(x, y)] for y in classes) for x in classes)
    identity = index[principal_class(d)]
    return cayley, tuple(_quotient_invariant_factors([list(r) for r in cayley], identity))


def _order_by_composition(cls):
    n, power = 1, cls
    while power != principal_class(cls.disc):
        power = compose(power, cls)
        n += 1
    return n


def test_matches_composition_table_oracle():
    for d in valid_discs(1500):
        group = class_group(d)
        table, divisors = _oracle(d)
        assert (cayley(group), group.elementary_divisors) == (table, divisors), d
        classes = range(group.h)
        assert all(group.mul(i, j) == table[i][j] for i in classes for j in classes), d
        orders = [_order_by_composition(x) for x in group.classes]
        assert [group.order_of(i) for i in classes] == orders, d


@pytest.mark.parametrize(
    "d, divisors",
    [(-84, (2, 2)), (-4620, (2, 2, 6)), (-60060, (2, 2, 2, 12)), (-3299, (3, 9))],
)
def test_non_cyclic_groups_match_oracle(d, divisors):
    group = class_group(d)
    assert group.elementary_divisors == divisors
    assert (cayley(group), group.elementary_divisors) == _oracle(d)


@pytest.mark.parametrize(
    "d, divisors", [(-120120, (2, 2, 2, 2, 8)), (-480480, (2, 2, 2, 2, 2, 8))]
)
def test_cayley_gathers_at_high_two_rank(d, divisors):
    # 2-rank 5 and 6: the gather's table is widest against h here
    group = class_group(d)
    assert group.elementary_divisors == divisors
    table, classes = cayley(group), range(group.h)
    assert all(table[i][j] == group.mul(i, j) for i in classes for j in classes)


@pytest.mark.parametrize("d", [-3, -4, -56, -420, -3299, -60060])
def test_cayley_maps_labels_through_the_index_table(d):
    # h = 1 at -3 and -4, where a gather of one index would return no tuple
    group = class_group(d)
    labels = [f"c{i}" for i in range(group.h)]
    by_index = tuple(tuple(labels[k] for k in row) for row in cayley(group))
    assert cayley(group, labels) == by_index


def test_about_h_compositions(monkeypatch):
    expected = class_group(-40004)
    calls = 0

    kernel = qforms._compose

    def counting(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(qforms, "_compose", counting)
    group = class_group.__wrapped__(-40004)
    coords = group.coords
    monkeypatch.setattr(qforms, "_compose", kernel)
    # == compares the classes only: the coordinates are compared on their own
    assert group == expected
    assert (coords, group.elementary_divisors) == (expected.coords, expected.elementary_divisors)
    # each product reaches one more class: the order search's powers lead
    # the blocks that extend the subgroup
    assert group.h == 160 and calls == group.h - 1


def test_index_of_refuses_a_class_of_another_discriminant_with_the_same_a_b():
    group = class_group(-23)
    stranger = FormClass(QuadForm(1, 1, 2), -7)  # (1, 1, 6) in C(-23)
    assert group.classes[group.principal_index] == FormClass(QuadForm(1, 1, 6), -23)
    with pytest.raises(InputError, match="is not a class of discriminant -23"):
        group.index_of(stranger)
    with pytest.raises(InputError, match="is not a class of discriminant -23"):
        genus_of(group, stranger)


def test_principal_index_is_the_principal_class():
    for d in valid_discs(1000):
        group = class_group.__wrapped__(d)
        assert group.principal_index == group.index_of(principal_class(d))


def test_inverse_index_is_the_inverse_class():
    for d in SMALL_DISCS:
        group = class_group(d)
        for i, cls in enumerate(group.classes):
            assert group.inverse_index(i) == group.index_of(inverse(cls))


def test_genus_check_raises_on_disagreement(monkeypatch):
    genus_count = classgroup._genus_count
    monkeypatch.setattr(classgroup, "_genus_count", lambda d: 2 * genus_count(d))
    for d in (-23, -84, -3299):
        with pytest.raises(K3ModuliError, match="genus check"):
            class_group.__wrapped__(d)
        with pytest.raises(K3ModuliError, match="genus check"):
            classgroup.class_number_and_genera(d)


def test_smith_form_missing_an_even_factor_fails_on_first_read(monkeypatch):
    smith = classgroup._smith_diagonal

    def dropping(matrix):  # the first even invariant factor becomes 1
        diagonal, transform = smith(matrix)
        k = next(k for k, n in enumerate(diagonal) if n % 2 == 0)
        return diagonal[:k] + [1] + diagonal[k + 1 :], transform

    monkeypatch.setattr(classgroup, "_smith_diagonal", dropping)
    for d in (-84, -4620, -40004):
        group = class_group.__wrapped__(d)  # the classes alone pass the genus count
        for read in ("coords", "elementary_divisors"):
            with pytest.raises(K3ModuliError, match="genus check"):
                getattr(group, read)
        assert "coords" not in vars(group) and "elementary_divisors" not in vars(group)


def test_class_number_and_genera_match_the_group():
    for d in valid_discs(1000):
        group = class_group(d)
        genera = len(genus_partition(group).cosets)
        assert classgroup.class_number_and_genera(d) == (group.h, genera), d
        assert group.h // genera == genus_order(group)


def reduced_forms_by_a(d):
    """Oracle: every (a, b) with a <= sqrt(|d|/3) and |b| <= a, in order, kept
    when 4a | b^2 - d and the form is reduced and primitive."""
    forms = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a, a + 1):
            c, rest = divmod(b * b - d, 4 * a)
            if not rest and qforms.is_reduced(QuadForm(a, b, c)) and gcd(a, b, c) == 1:
                forms.append(QuadForm(a, b, c))
    return forms


def test_reduced_representatives_match_the_a_first_scan():
    for d in valid_discs(3000):
        assert reduced_representatives(d) == reduced_forms_by_a(d), d


@pytest.mark.parametrize("d", [-999479, -999999, -(10**6), -4 * (MAX_ABS_DISC // 4)])
def test_reduced_representatives_match_the_a_first_scan_near_the_bound(d):
    assert reduced_representatives(d) == reduced_forms_by_a(d)


def test_oversized_discriminant_refused():
    assert MAX_ABS_DISC >= 60000  # every |D| of the tests and the benchmark
    too_big = -(MAX_ABS_DISC // 4 + 1) * 4
    with pytest.raises(InputError, match=f"exceeds {MAX_ABS_DISC}, the largest handled"):
        class_group(too_big)
    with pytest.raises(InputError, match=f"exceeds {MAX_ABS_DISC}, the largest handled"):
        reduced_representatives(too_big)
    assert reduced_representatives(-4 * (MAX_ABS_DISC // 4))


def test_group_holds_under_1_kib_per_class():
    # coordinates, not an h x h table, which alone took about 0.4 MB here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = class_group.__wrapped__(-99999)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert group.h == 224 and held < 1024 * group.h, held


def test_class_group_cache_is_bounded():
    # one lru_cache (the benchmark reads its cache_info), holding at most 32 groups
    bound = class_group.cache_info().maxsize
    assert bound == 32
    for d in SMALL_DISCS[: bound + 8]:
        class_group(d)
        assert class_group.cache_info().currsize <= bound
    assert class_group.cache_info().currsize == bound
