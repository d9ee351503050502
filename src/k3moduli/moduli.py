"""Fields of moduli of singular K3 surfaces.

Everything is driven by the class group C of disc0 (the primitive part's
discriminant) and the ring class field H it cuts out: the field of K-moduli M_K
is the subfield of H fixed by the 2-torsion C[2], the absolute field of moduli
M_Q is additionally fixed by complex conjugation.  Both are generated by the
trace of j over C[2].  That trace is real, and complex conjugation only
permutes its conjugates (the traces over the other cosets of C[2]), so
[M_K : K] = [M_Q : Q] = g (the genus order) and the minimal polynomial of the
generator over K lies in Z[x] and is the one over Q.  One integer polynomial,
recognized exactly via certified rounding, serves both fields:
field_of_Q_moduli, or ModuliReport.mq_min_poly of degree ModuliReport.g.

Each polynomial is computed once, at a precision floor derived from its
height (Enge, Math. Comp. 78, 2009): with |j(tau)| about exp(pi*sqrt|D|/a),
log10 of its largest coefficient is at most
sum over roots of pi*sqrt|D|/a / ln 10 plus log10 of the largest binomial
coefficient, and GUARD_DIGITS more digits leave the propagated error bound
below 1/2 (see _height, which bounds both polynomials).  Recognition is a
certificate (see numerics.recognize_integer), and so is the distinctness of
the coset traces the field polynomial is built from (see _separated_roots,
which certifies traces only: traces not certified apart are a precision
failure, never a switch to another invariant); the precision is doubled
only when a certificate fails, and never past MAX_DIGITS.  The class
polynomial is then checked exactly against Gross-Zagier (J. reine angew.
Math. 355, 1985): for fundamental D the primes of its norm are at most
3|D|/4; the field polynomial against H_D (see _check_trace).
class_polynomial starts at its class polynomial's floor, and moduli_report
at the higher of the floors of its two polynomials (see precision_floor);
each refuses an input whose own floor is above MAX_DIGITS.

H_D comes through one path, _class_polynomial_at, for both commands: the
values of j^(1/n) at every class (_class_values), their certified product,
and kernel n's exact step to H_D.  _class_kernel chooses n for both, in
one place, so each disc0 has one set of certified invariant values.  Each
value is taken at a form of its class that meets kernel n's congruence
condition (_class_point); numerics lifts that form's point to the reduced
domain by the invariants' transformation laws, so this module picks the
form and derives no move.

When 3 does not divide D, both take the cube root gamma_2 of j (n = 3;
Enge & Morain, ANTS V, 2002): at forms (A, B, C) with 3 not dividing A and
3 | B, the values of gamma_2 are the roots of an integer polynomial W whose
height, and so whose floor, is about a third of H_D's.  H_D follows from W
exactly by the norm identity H_D(y) = A^3 + y B^3 + y^2 C^3 - 3y ABC for
W(x) = A(x^3) + x B(x^3) + x^2 C(x^3).  So H_D(0) = W(0)^3 is a cube by
construction, and the prime bound is checked on W(0), which has the same
primes.  The coset traces take j back from the kernel's values (see
numerics.j_from_kernel), here j = gamma_2^3, so moduli_report never needs j
to H_D's full height either: it runs at W's floor, or at the field
polynomial's where that is higher.  Both polynomials depend on disc0 alone,
so they are computed once per disc0 and shared by every lattice of that
primitive discriminant.

When D is odd and 3 divides it, class_polynomial takes y = sqrt(D) gamma_3,
gamma_3 = sqrt(j - 1728) (n = 2, same source): at forms (A, B, C) with A
odd and B = 1 (mod 4), its values are the roots of an integer polynomial W3
with about two thirds of the digits of H_D.  For W3(y) = A(y^2) + y B(y^2),
N(z) = (-1)^h (A(z)^2 - z B(z)^2) has the roots y^2 = D (j - 1728), so
H_D(x) = D^-h N(D (x - 1728)), exactly once every division by a power of D
is exact: a W3 for which one is not is refused, and Gross-Zagier runs on
H_D(0).  moduli_report runs on W3 too, its coset traces taking j =
1728 + y^2 / D.  Otherwise (D even, 3 | D) the kernel is j itself (n = 1).

Galois-ness of the absolute field is decided purely group-theoretically inside
the semidirect product C x <complex conjugation>, never numerically: from the
invariant factors of C (see mq_is_galois).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from math import ceil, comb, log, log10, pi, prod, sqrt

from . import classgroup, k3, orders
from .classgroup import ClassGroup
from .errors import InputError, K3ModuliError, NotNearInteger, PrecisionError, ResolventDegenerate
from .k3 import TranscLattice
from .numerics import MAX_DIGITS, BigComplex, CMPoint, apart, conjugate, gamma2, gamma3, times_sqrt
from .numerics import j_from_kernel, j_invariant, part_sums, poly_from_roots, recognize_integer
from .values import Value

# digits beyond the height estimate: at the floor, the error bound of every
# class and field polynomial with |D| <= 3000 is then at least 10^7 times
# below 1/2 (10^2.4 times with no guard digits)
GUARD_DIGITS = 5

Element = tuple[int, int]  # (class index, conjugation bit)


class GaloisModel(Value, namedtuple("GaloisModel", "cg elements subgroup_mk subgroup_mq")):
    """Gal(H/Q) as C(disc0) extended by class inversion, for the ClassGroup cg.

    elements are all (class index, bit) pairs (Element); the bit marks the
    complex-conjugation coset.  subgroup_mk (= C[2]) fixes the field of
    K-moduli, subgroup_mq (= <C[2], conjugation>) fixes the absolute field of
    moduli, both frozensets of Element.  is_normal is brute force over every
    element, the reference for mq_is_galois.
    """

    __slots__ = ()

    def mul(self, x: Element, y: Element) -> Element:
        i, e = x
        j, f = y
        if e:
            j = self.cg.inverse_index(j)
        return (self.cg.mul(i, j), e ^ f)

    def inv(self, x: Element) -> Element:
        i, e = x
        if e:
            return x
        return (self.cg.inverse_index(i), 0)

    def is_normal(self, subgroup: frozenset[Element]) -> bool:
        return all(
            self.mul(self.mul(x, s), self.inv(x)) in subgroup
            for x in self.elements
            for s in subgroup
        )


class ModuliReport(
    Value,
    namedtuple(
        "ModuliReport",
        "disc disc0 m d_k h g orbit mq_is_galois class_polynomial mq_min_poly precision_used",
    ),
):
    """Everything moduli_report finds for one lattice: its discriminant disc,
    primitive discriminant disc0, index m and CM field d_k; h and g, the
    class number and genus order of disc0; orbit, the tuple of conjugate
    TranscLattice; mq_is_galois; class_polynomial and mq_min_poly as integer
    tuples, lowest degree first; and precision_used, in digits."""

    __slots__ = ()


def _model(group: ClassGroup) -> GaloisModel:
    torsion = sorted(classgroup.two_torsion(group))
    elements = tuple((i, e) for e in (0, 1) for i in range(group.h))
    mk = frozenset((i, 0) for i in torsion)
    mq = frozenset((i, e) for i in torsion for e in (0, 1))
    return GaloisModel(group, elements, mk, mq)


def mq_is_galois(lattice: TranscLattice) -> bool:
    """Whether M_Q / Q is Galois: normality of <C[2], conjugation> in Gal(H/Q).

    Conjugating complex conjugation by a class x gives (x^2, conjugation), so
    the subgroup is normal exactly when every square lies in C[2], that is,
    when every invariant factor of C divides 4.  GaloisModel.is_normal
    decides the same by brute force.
    """
    return all(4 % n == 0 for n in classgroup.class_group(lattice.disc0).elementary_divisors)


# ---------------------------------------------------------------------------
# polynomial constructions


def _class_point(r, disc: int, n: int) -> CMPoint:
    """The point of the form (A, B, C) of r's class where kernel n takes the
    class's value (Enge & Morain): r for j (n = 1); else (A, B) is the first of
    (a, b), (c, -b), (a + b + c, b + 2c) with n not dividing A, then B + 2Ak
    is made 1 mod 4 for gamma_3 (n = 2) or 0 mod 3 for gamma_2 (n = 3)."""
    a, b, c = r.a, r.b, r.c
    if n > 1:
        if a % n == 0:
            a, b = (c, -b) if c % n else (a + b + c, b + 2 * c)
        b += 2 * a * (a * b % 3 if n == 3 else (1 - b) % 4 // 2)
    return CMPoint(a, b, disc)


def _class_values(group: ClassGroup, n: int, digits: int) -> list[BigComplex]:
    """The roots of kernel n's polynomial at every class: j (n = 1), y =
    sqrt(D) gamma_3 (n = 2) or gamma_2 (n = 3), each at the point of
    _class_point; both commands take H_D from them, and moduli_report j too
    (numerics.j_from_kernel).  (a, -b, c) takes the exact conjugate of the
    value at (a, b, c): its mirrored form is (A, -B, C), or (A, -B + 2A, C)
    for gamma_3, where gamma_3 is minus the conjugate and sqrt(D) is
    imaginary."""
    d = group.disc

    def evaluate(r):
        point = _class_point(r, d, n)
        if n == 2:
            return times_sqrt(gamma3(point, digits), d)
        return (j_invariant if n == 1 else gamma2)(point, digits)

    reps = [cls.rep for cls in group.classes]
    upper = {(r.a, r.b): evaluate(r) for r in reps if r.b >= 0}
    return [upper[r.a, r.b] if r.b >= 0 else conjugate(upper[r.a, -r.b]) for r in reps]


def _class_kernel(disc: int) -> int:
    """n of the invariant that class_polynomial and moduli_report evaluate: 3
    for gamma_2 when 3 does not divide disc, 2 for sqrt(disc) gamma_3 when
    disc is odd, 1 for j otherwise."""
    return 3 if disc % 3 else 2 if disc % 2 else 1


def _torsion_cosets(group: ClassGroup) -> tuple[tuple[int, ...], ...]:
    """Cosets of C[2] in C, g of them, each sorted, ordered by smallest member:
    the fibres of squaring."""
    return classgroup.fibres(group, lambda i: group.mul(i, i))


def _separated_roots(js: list[BigComplex], cosets) -> list[BigComplex]:
    """The traces of j over the cosets, once every two are apart (see
    numerics.apart): the true traces then differ, so the product over the
    cosets is the minimal polynomial.  The sums are exact (see
    numerics.part_sums): conjugate cosets give exactly conjugate traces.
    Traces not certified apart raise ResolventDegenerate, which _escalate
    retries at twice the digits; no D with |D| <= 20000 needs the retry."""
    roots = part_sums(js, cosets)
    if not apart(roots):
        raise ResolventDegenerate("the coset traces are not certified distinct")
    return roots


def _recognize_int_poly(coeffs: list[BigComplex]) -> tuple[int, ...]:
    return tuple(recognize_integer(c) for c in coeffs)


def _check_trace(class_poly: tuple[int, ...], mq: tuple[int, ...]) -> tuple[int, ...]:
    """mq, once the sum -mq[g - 1] of its roots, the coset traces, is the
    trace -class_poly[h - 1] of j over all h classes."""
    if mq[-2] != class_poly[-2]:
        raise K3ModuliError("the field polynomial's roots do not sum to the trace of H_D")
    return mq


def _check_gross_zagier(d: int, poly: tuple[int, ...]) -> tuple[int, ...]:
    """poly, once its norm poly(0) passes Gross-Zagier: for fundamental D, free
    of primes above 3|D|/4.  _class_polynomial_at passes H_D, or W on the
    gamma_2 kernel: H_D(0) = W(0)^3 is a cube by construction, with W(0)'s primes.

    Trial division stops at the first odd p above 3|D|/4 or above the square
    root of what is left: the cofactor is then 1, a prime, or a product of
    primes above the bound, and is refused when it exceeds 3|D|/4."""
    norm = abs(poly[0])
    if norm and orders.is_fundamental(d):
        bound = 3 * -d // 4
        norm >>= (norm & -norm).bit_length() - 1  # the factors 2
        p = 3
        while p <= bound and p * p <= norm:
            while norm % p == 0:
                norm //= p
            p += 2
        if norm > bound:
            raise K3ModuliError(f"{d}: the class polynomial's norm has a prime factor above 3|D|/4")
    return poly


def _height(group: ClassGroup, partition=None, n: int = 1) -> float:
    """log10 bound on the coefficients of the product over the parts of
    partition of (x - sum of j^(1/n) over the part): each root is at most
    |part| times the largest exp(pi*sqrt|D|/(na)) in it, and the coefficients
    are elementary symmetric functions of the roots.  One class per part (the
    default: H_D, W for n = 3, or W3 for n = 2, whose roots sqrt(D) gamma_3
    carry log10 sqrt|D| more each) adds log10 1 = 0 per part; the cosets of
    C[2] give the field polynomial."""
    scale = pi * sqrt(-group.disc) / log(10) / n
    lead = log10(-group.disc) / 2 if n == 2 else 0
    a = [cls.rep.a for cls in group.classes]
    parts = partition or [(i,) for i in range(group.h)]
    top = sum(lead + scale / min(a[i] for i in part) + log10(len(part)) for part in parts)
    return top + log10(comb(len(parts), len(parts) // 2))


def precision_floor(group: ClassGroup) -> int:
    """Digits at which moduli_report starts: the higher of the floors of its
    two polynomials, so both are expected to be certified at once.

    The first is class_polynomial_floor.  The second is the field
    polynomial's.  Its roots are sums of j over the g cosets of C[2], k
    classes each, so its height is at most _height over the cosets.  It gets
    log10 3 digits more for the step from the kernel's values to j
    (numerics.j_from_kernel).  On the gamma_2 kernel j is gamma_2^3, and
    cubing turns gamma_2's error e into about 3|gamma_2|^2 e.  In the
    product over the cosets a coset's error is multiplied only by the other
    cosets' invariants, never by its own |j| = |gamma_2|^3, so against the
    height the cube costs the factor 3 alone.  On the gamma_3 kernel j is
    1728 + y^2 / D, and y's error e becomes (2|y| + e) e / |D|, about
    2|gamma_3| e / sqrt|D|: 2|gamma_3| times gamma_3's own error, as e is
    sqrt|D| times that.  With |gamma_3| about |j|^(1/2) against |gamma_2|^2
    = |j|^(2/3), it stays inside the cube's log10 3.  When h is odd, C[2] is
    trivial and the field polynomial is H_D, so only the first floor
    applies; on the j kernel the higher one is H_D's own."""
    floor, cosets = class_polynomial_floor(group), _torsion_cosets(group)
    if len(cosets) == group.h:
        return floor
    return max(floor, ceil(_height(group, cosets) + log10(3)) + GUARD_DIGITS)


def class_polynomial_floor(group: ClassGroup) -> int:
    """Digits at which class_polynomial_with_precision starts: the height of
    the kernel's polynomial and GUARD_DIGITS.  That is W, a third of the
    height of H_D, when 3 does not divide D; W3, about two thirds of it,
    when D is odd and 3 divides it; and H_D itself otherwise."""
    return ceil(_height(group, n=_class_kernel(group.disc))) + GUARD_DIGITS


def _class_polynomial_at(group: ClassGroup, n: int, digits: int) -> tuple[tuple[int, ...], list]:
    """H_D certified at digits through kernel n (see _class_kernel), and the
    kernel's values, for class_polynomial and moduli_report alike.  The product over the values is
    certified, then the kernel's exact step gives H_D: none for j; for
    gamma_3 the norm with its exact divisions, then Gross-Zagier on H_D(0);
    for gamma_2 Gross-Zagier on W(0), then the norm."""
    values = _class_values(group, n, digits)
    poly = _recognize_int_poly(poly_from_roots(values))
    if n == 2:
        poly = _norm_from_gamma3(poly, group.disc)
    poly = _check_gross_zagier(group.disc, poly)
    return (_norm_from_gamma2(poly) if n == 3 else poly), values


def _norm_from_gamma2(w: tuple[int, ...]) -> tuple[int, ...]:
    """H_D from the gamma_2 class polynomial W, exactly.

    The roots of H_D are the cubes of those of W, so H_D(x^3) is the product
    of W(zeta^k x) over the cube roots of unity zeta^k.  With W(x) = A(x^3) +
    x B(x^3) + x^2 C(x^3) that product is the norm A^3 + y B^3 + y^2 C^3 -
    3y ABC at y = x^3.  It is evaluated at y = 2^s, s = 3t, in one integer
    expression (Kronecker substitution): with a = A(2^s), b = 2^t B(2^s) and
    c = 2^2t C(2^s), the norm is a^3 + b^3 + c^3 - 3abc = (a + b + c)((a + b
    + c)^2 - 3(ab + bc + ca)), five products.  With n = len(W) and |W_i| <
    2^size, each coefficient of H_D is below 6 n^2 2^(3 size) < 2^(s - 1) in
    size, as s >= 3 size + 2 (bits of n) + 4, so the signed base-2^s digits
    of the value are the coefficients.
    """
    t = -(-(3 * max(map(abs, w)).bit_length() + 2 * len(w).bit_length() + 4) // 3)
    a, b, c = (_pack(w[i::3], 3 * t) << i * t for i in range(3))
    total = a + b + c
    value = total * (total * total - 3 * (a * b + b * c + c * a))
    return _unpack(value, 3 * t, len(w))


def _norm_from_gamma3(w3: tuple[int, ...], d: int) -> tuple[int, ...]:
    """H_D from the gamma_3 class polynomial W3 of odd d, exactly, or
    K3ModuliError.

    The roots y of W3 have y^2 = d (j - 1728).  With W3(y) = A(y^2) +
    y B(y^2), W3(y) W3(-y) = A(y^2)^2 - y^2 B(y^2)^2, so N(z) = (-1)^h (A(z)^2
    - z B(z)^2) is the product of z - y^2, and H_D(x) = d^-h N(d (x - 1728)).
    N comes from one integer expression at z = 2^s, as in _norm_from_gamma2.
    Its coefficient n_k must be divisible by d^(h - k), else W3 is refused;
    the quotients m_k are the coefficients of H_D in powers of x - 1728, and
    H_D(x) is their polynomial at x - 1728, read at x = 2^t: each coefficient
    of H_D is at most the sum of |m_k| 1729^k, below 2^(t - 1)."""
    h = len(w3) - 1
    s = 2 * max(map(abs, w3)).bit_length() + len(w3).bit_length() + 3
    a, b = _pack(w3[0::2], s), _pack(w3[1::2], s)
    norm = _unpack(a * a - (b * b << s), s, h + 1)
    power, shifted = 1, []
    for coeff in reversed(norm):  # n_h first: d^0
        quotient, rest = divmod(coeff, power)
        if rest:
            raise K3ModuliError(f"{d}: the gamma_3 polynomial's norm is not divisible by D^{h}")
        shifted.append(-quotient if h % 2 else quotient)
        power *= d
    t = max(abs(m).bit_length() + 11 * k for k, m in enumerate(reversed(shifted)))
    t += (h + 1).bit_length() + 3
    value = 0
    for coeff in shifted:  # Horner from the top coefficient, times 2^t - 1728
        value = (value << t) - 1728 * value + coeff
    return _unpack(value, t, h + 1)


def _unpack(value: int, s: int, count: int) -> tuple[int, ...]:
    """The count signed base-2^s digits of value, lowest first: the
    coefficients of the polynomial that value is at 2^s, each below 2^(s - 1)
    in size."""
    coeffs = []
    for _ in range(count):
        digit = value & (1 << s) - 1
        if digit >> s - 1:
            digit -= 1 << s
        coeffs.append(digit)
        value = (value - digit) >> s
    return tuple(coeffs)


def _pack(poly, s: int) -> int:
    """The integer polynomial (lowest degree first) at 2^s."""
    value = 0
    for x in reversed(poly):
        value = (value << s) + x
    return value


_Polynomials = namedtuple("_Polynomials", "class_poly mq")


def _attempt_polynomials(group: ClassGroup, cosets, digits: int) -> _Polynomials:
    n = _class_kernel(group.disc)
    class_poly, values = _class_polynomial_at(group, n, digits)
    if len(cosets) == group.h:  # C[2] trivial (h odd): each coset is one class
        return _Polynomials(class_poly, class_poly)
    js = [j_from_kernel(v, n, group.disc) for v in values]
    mq = _recognize_int_poly(poly_from_roots(_separated_roots(js, cosets)))
    return _Polynomials(class_poly, _check_trace(class_poly, mq))


def _escalate(disc: int, floor: int, attempt):
    """(attempt(digits), digits) for the first certified attempt from the
    floor, doubling the precision while a certificate fails (recognition or
    coset separation) and the doubled precision stays within MAX_DIGITS.  A
    floor above MAX_DIGITS is refused before any work."""
    if floor > MAX_DIGITS:
        raise InputError(f"D = {disc} needs {floor} digits, above the ceiling of {MAX_DIGITS}")
    digits = floor
    while True:
        try:
            return attempt(digits), digits
        except (NotNearInteger, ResolventDegenerate) as exc:
            if 2 * digits > MAX_DIGITS:
                raise PrecisionError(
                    f"{exc}: failed at {digits} digits, and doubling would pass "
                    f"the ceiling of {MAX_DIGITS}"
                ) from None
            digits *= 2


# shared by every lattice of disc0 (the analyze queries of an orbit, or of
# rescalings, repeat it); only certified, Gross-Zagier-checked results are
# stored, as lru_cache keeps no exception.  Bounded like class_group: an entry
# holds h + g + 2 integers of up to H_D's height in digits, 0.13 MiB at -40004
# (h = 160, tracemalloc).
@lru_cache(maxsize=32)
def _field_polynomials(disc0: int) -> tuple[_Polynomials, int]:
    group = classgroup.class_group(disc0)
    cosets = _torsion_cosets(group)
    return _escalate(disc0, precision_floor(group), partial(_attempt_polynomials, group, cosets))


def class_polynomial(d: int) -> tuple[int, ...]:
    """Monic integer polynomial with roots j(tau(Q)) over the classes of C(d),
    lowest-degree coefficient first."""
    coeffs, _ = class_polynomial_with_precision(d)
    return coeffs


def class_polynomial_with_precision(d: int) -> tuple[tuple[int, ...], int]:
    """The class polynomial and the digits it was certified at: those of the
    gamma_2 polynomial W when 3 does not divide d, of the gamma_3 polynomial
    W3 when d is odd and 3 divides it, of H_D itself otherwise."""
    group = classgroup.class_group(d)
    attempt = partial(_class_polynomial_at, group, _class_kernel(d))
    (coeffs, _), digits = _escalate(d, class_polynomial_floor(group), attempt)
    return coeffs, digits


def field_of_Q_moduli(lattice: TranscLattice) -> tuple[int, ...]:
    """Degree-g integer polynomial whose root field is the absolute field of
    moduli."""
    return _field_polynomials(lattice.disc0)[0].mq


def moduli_report(lattice: TranscLattice) -> ModuliReport:
    """Assemble degrees, orbit, Galois data and all minimal polynomials."""
    group = classgroup.class_group(lattice.disc0)
    polys, digits = _field_polynomials(lattice.disc0)
    report = ModuliReport(
        disc=lattice.disc,
        disc0=lattice.disc0,
        m=lattice.m,
        d_k=k3.cm_field(lattice),
        h=group.h,
        g=classgroup.genus_order(group),
        orbit=k3.galois_orbit(lattice),
        mq_is_galois=mq_is_galois(lattice),
        class_polynomial=polys.class_poly,
        mq_min_poly=polys.mq,
        precision_used=digits,
    )
    _check_report(report, group)
    return report


def _check_report(report: ModuliReport, group: ClassGroup) -> None:
    # consistency guaranteed by the theory; re-checked before emission
    g, h, cp, mq = report.g, report.h, report.class_polynomial, report.mq_min_poly
    checks = {
        "class polynomial": len(cp) == h + 1 and cp[-1] == 1,
        "M_Q polynomial": len(mq) == g + 1 and mq[-1] == 1,
        "orbit": len(report.orbit) == g,
        "elementary divisors": prod(group.elementary_divisors) == h,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise K3ModuliError(f"inconsistent report for {report.disc}: {', '.join(failed)}")
