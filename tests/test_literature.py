"""Checks against closed-form results from the literature, written down from
the cited sources rather than derived by this package."""

import pytest

from k3moduli.classgroup import class_number_and_genera
from k3moduli.k3 import from_gram
from k3moduli.moduli import class_polynomial, moduli_report
from k3moduli.orders import is_fundamental

from conftest import valid_discs

# the discriminants of class number one with their j-invariants (Heegner,
# Baker, Stark; Cox, "Primes of the form x^2 + ny^2", Thm 7.30 and §12.C)
CLASS_NUMBER_ONE = {
    -3: 0,
    -4: 1728,
    -7: -(15**3),
    -8: 20**3,
    -11: -(32**3),
    -12: 2 * 30**3,
    -16: 66**3,
    -19: -(96**3),
    -27: -3 * 160**3,
    -28: 255**3,
    -43: -(960**3),
    -67: -(5280**3),
    -163: -(640320**3),
}

# Euler's idoneal numbers: n is idoneal exactly when every genus of forms of
# discriminant -4n has one class (Cox, §3.C); these 65 are all known
IDONEAL = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 21, 22, 24, 25, 28, 30, 33, 37, 40, 42,
    45, 48, 57, 58, 60, 70, 72, 78, 85, 88, 93, 102, 105, 112, 120, 130, 133, 165, 168, 177,
    190, 210, 232, 240, 253, 273, 280, 312, 330, 345, 357, 385, 408, 462, 520, 760, 840, 1320,
    1365, 1848,
)

BOUND = 10**4

# Watkins, "Class numbers of imaginary quadratic fields", Math. Comp. 73
# (2004): for h = 1..10, how many fundamental discriminants have
# class number h, and the largest |D| among them (all below 15000)
WATKINS = {
    1: (9, 163),
    2: (18, 427),
    3: (16, 907),
    4: (54, 1555),
    5: (25, 2683),
    6: (51, 3763),
    7: (31, 5923),
    8: (131, 6307),
    9: (34, 10627),
    10: (87, 13843),
}


@pytest.fixture(scope="module")
def class_numbers():
    """d -> (h, number of genera) for every discriminant with |d| <= BOUND."""
    return {d: class_number_and_genera(d) for d in valid_discs(BOUND)}


def test_class_number_one_is_the_heegner_stark_list(class_numbers):
    assert len(CLASS_NUMBER_ONE) == 13
    assert sorted(d for d, (h, _) in class_numbers.items() if h == 1) == sorted(CLASS_NUMBER_ONE)
    for d, j in CLASS_NUMBER_ONE.items():
        assert class_polynomial(d) == (-j, 1), d


def test_one_class_per_genus_is_euler_s_idoneal_list(class_numbers):
    # C(D) of exponent <= 2 has one class per genus: there are 101 such D,
    # the largest -7392 = -4 * 1848; the field of moduli of a lattice of
    # discriminant D is then Q itself, its one conjugate the lattice
    assert len(IDONEAL) == 65
    single = sorted((d for d, (h, genera) in class_numbers.items() if h == genera), reverse=True)
    assert len(single) == 101 and single[-1] == -7392
    assert [-d // 4 for d in single if d % 4 == 0] == list(IDONEAL)
    for d in single:
        c = -d // 4 if d % 4 == 0 else (1 - d) // 4
        report = moduli_report(from_gram(((2, d % 2), (d % 2, 2 * c))))
        assert report.disc == d and report.g == 1, d
        assert len(report.mq_min_poly) == 2 and report.mq_is_galois, d
        assert len(report.orbit) == 1, d


def test_class_numbers_up_to_ten_are_watkins_census():
    # Watkins' list is complete for h <= 100, so every fundamental D of class
    # number at most 10 has |D| <= 13843 and is counted here
    found = {}
    for d in valid_discs(15000):
        if is_fundamental(d):
            h = class_number_and_genera(d)[0]
            if h <= 10:
                count, largest = found.get(h, (0, 0))
                found[h] = (count + 1, max(largest, -d))
    assert found == WATKINS
