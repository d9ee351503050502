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
class_polynomial starts at class_polynomial_floor(group, n), the floor of
the kernel n it runs (at D = 1 (mod 8), Weber's), and refuses an input by
class_polynomial_floor(group), _class_kernel's, whatever its kernel.  When
h is odd, C[2] is trivial and the field polynomial is H_D: moduli_report
takes both polynomials, and their digits, from class_polynomial (see
_field_polynomials).  When h is even it starts at the higher of the floors
of its two polynomials (see precision_floor) and refuses by that floor.

H_D comes through one path, _class_polynomial_at, for both commands: the
values of a class invariant of size about j^(1/n) at every class
(_class_values), their certified product, and kernel n's exact step to
H_D.  _class_kernel chooses n for both, in one place, and class_polynomial
swaps it for Weber's at D = 1 (mod 8), so each disc0 has one set of
certified invariant values.  Each value is taken at a
form of its class that meets kernel n's congruence condition
(_class_point); numerics lifts that form's point to the reduced domain by
the invariants' transformation laws, so this module picks the form and
derives no move.

When 3 does not divide D, both take the cube root gamma_2 of j (n = 3;
Enge & Morain, ANTS V, 2002): at forms (A, B, C) with 3 not dividing A and
3 | B, the values of gamma_2 are the roots of an integer polynomial W whose
height, and so whose floor, is about a third of H_D's.  When D is odd and 3
divides it, they take y = sqrt(D) gamma_3, gamma_3 = sqrt(j - 1728) (n = 2,
same source): at forms with A odd and B = 1 (mod 4), its values are the
roots of an integer polynomial W3 with about two thirds of the digits of
H_D.  Otherwise (D even, 3 | D) the kernel is j itself (n = 1).  The coset
traces take j back from the kernel's values (numerics.j_from_kernel), so
moduli_report at even h runs at the kernel's floor too, or at the field
polynomial's where that is higher; both polynomials depend on disc0 alone,
so they are computed once per disc0 and shared by every lattice of it.

For D = 1 (mod 8) class_polynomial takes Weber's roots instead (Weber,
Lehrbuch der Algebra III, 1908; Yui & Zagier, Math. Comp. 66, 1997): x =
zeta_48^k g(tau) / sqrt 2 at the reduced forms of 4D (numerics.weber), n
= 24, or its cube when 3 | D, n = 8, whose polynomial is about a sixth as
tall as W or W3 and is certified at that n's own floor.  analyze takes
Weber's at odd h, through class_polynomial; at even h its coset traces
need j at the classes of D, which it takes back from _class_kernel's.

Each step from a certified polynomial to H_D is one exact norm (_norm) of
P(rho) over rho^n = q rho + r, n = 2 or 3 and q, r linear in X, read at X
= 2^s, and an exact division: H_D is the norm of W(rho) over rho^3 = X, or
(-D)^-h that of W3(rho) over rho^2 = D (X - 1728), refused unless D^h
divides every coefficient; Weber's polynomial takes three root squarings
(rho^2 = X) and a cubic norm to W, or to H_D when 3 | D.  Gross-Zagier then
runs on W(0) (H_D(0) = W(0)^3 has its primes) or H_D(0), and at odd D
(-D)^h H_D(1728) must be a square (_check_square).

Galois-ness of the absolute field is decided purely group-theoretically inside
the semidirect product C x <complex conjugation>, never numerically: from the
invariant factors of C (see mq_is_galois).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from math import ceil, comb, isqrt, log, log10, pi, prod, sqrt

from . import classgroup, k3, orders, qforms
from .classgroup import ClassGroup
from .errors import InputError, K3ModuliError, NotNearInteger, PrecisionError, TracesNotApart
from .k3 import TranscLattice
from .numerics import MAX_DIGITS, BigComplex, CMPoint, apart, conjugate, gamma2, gamma3, times_sqrt
from .numerics import j_from_kernel, j_invariant, part_sums, poly_from_roots, recognize_integer
from .numerics import vanishes, weber
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


class FieldReport(
    Value,
    namedtuple(
        "FieldReport",
        "disc0 d_k h g mq_is_galois class_polynomial mq_min_poly precision_used",
    ),
):
    """The fields of a ModuliReport that depend on the primitive discriminant
    disc0 alone, the same for every lattice of disc0 (see field_report)."""

    __slots__ = ()


def mq_is_galois(lattice: TranscLattice) -> bool:
    """Whether M_Q / Q is Galois: normality of <C[2], conjugation> in Gal(H/Q).

    Conjugating complex conjugation by a class x gives (x^2, conjugation), so
    the subgroup is normal exactly when every square lies in C[2], that is,
    when every invariant factor of C divides 4.  GaloisModel.is_normal
    decides the same by brute force.
    """
    return _is_galois(classgroup.class_group(lattice.disc0))


def _is_galois(group: ClassGroup) -> bool:
    return all(4 % n == 0 for n in group.elementary_divisors)


# ---------------------------------------------------------------------------
# polynomial constructions


def _prime_to(r, n: int) -> tuple[int, int, int]:
    """A form (A, B, C) of r's class with n not dividing A: the first of (a,
    b, c), (c, -b, a), (a + b + c, b + 2c, c), for n = 2 or 3 prime to the
    discriminant (then n divides at most two of a, c and a + b + c)."""
    a, b, c = r
    if a % n:
        return a, b, c
    return (c, -b, a) if c % n else (a + b + c, b + 2 * c, c)


def _class_point(r, disc: int, n: int) -> CMPoint:
    """The point of the form (A, B, C) of r's class where kernel n takes the
    class's value (Enge & Morain): r for j (n = 1); for Weber's (n = 8 or
    24) the reduced form of 4D from (A, 2B, 4C), that of _prime_to(r, 2):
    for D = 1 (mod 8) this maps C(D) onto C(4D) (h(4D) = h(D)), without
    building C(4D), the principal class to (1, 0, -D) and mirrored classes
    to mirrored forms (none of 4D lies on the boundary of the reduced
    domain); else (A, B) is that of _prime_to(r, n), then B + 2Ak is made 1
    mod 4 for gamma_3 (n = 2) or 0 mod 3 for gamma_2 (n = 3)."""
    if n == 1:
        return CMPoint(r[0], r[1], disc)
    if n > 3:
        a, b, c = _prime_to(r, 2)
        a, b, _ = qforms._reduce(a, 2 * b, 4 * c)
        return CMPoint(a, b, 4 * disc)
    a, b, _ = _prime_to(r, n)
    b += 2 * a * (a * b % 3 if n == 3 else (1 - b) % 4 // 2)
    return CMPoint(a, b, disc)


def _class_values(group: ClassGroup, n: int, digits: int) -> list[BigComplex]:
    """The roots of kernel n's polynomial at every class: j (n = 1), y =
    sqrt(D) gamma_3 (n = 2), gamma_2 (n = 3) or Weber's x (numerics.weber;
    n = 24, or 8 for its cube), each at the point of _class_point; both
    commands take H_D from them, and moduli_report j too
    (numerics.j_from_kernel).  Each class (a, b, c) with b >= 0 is
    evaluated, and (a, -b, c) takes the exact conjugate of its value: its
    mirrored form is (A, -B, C), or (A, -B + 2A, C) for gamma_3, where
    gamma_3 is minus the conjugate and sqrt(D) is imaginary."""
    d = group.disc

    def evaluate(r):
        point = _class_point(r, d, n)
        if n == 2:
            return times_sqrt(gamma3(point, digits), d)
        return (j_invariant if n == 1 else gamma2 if n == 3 else weber)(point, digits)

    upper = {f[:2]: evaluate(f) for f in group.forms if f[1] >= 0}
    return [upper[a, b] if b >= 0 else conjugate(upper[a, -b]) for a, b, _ in group.forms]


def _class_kernel(disc: int) -> int:
    """n of the invariant that class_polynomial and moduli_report evaluate: 3
    for gamma_2 when 3 does not divide disc, 2 for sqrt(disc) gamma_3 when
    disc is odd, 1 for j otherwise (class_polynomial, and so moduli_report
    at odd h, takes Weber's in its place at disc = 1 (mod 8))."""
    return 3 if disc % 3 else 2 if disc % 2 else 1


def _separated_roots(js: list[BigComplex], cosets) -> list[BigComplex]:
    """The traces of j over the cosets, once every two are apart (see
    numerics.apart): the true traces then differ, so the product over the
    cosets is the minimal polynomial.  The sums are exact (see
    numerics.part_sums): conjugate cosets give exactly conjugate traces.
    Traces not certified apart raise TracesNotApart, which _escalate
    retries at twice the digits; no D with |D| <= 20000 needs the retry."""
    roots = part_sums(js, cosets)
    if not apart(roots):
        raise TracesNotApart("the coset traces are not certified distinct")
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
    C[2] give the field polynomial.  Weber's roots are taken at the forms
    of 4D of _class_point, whose a it reads: exp(pi*sqrt|D|/(24a)) bounds x
    (n = 24), and exp(pi*sqrt|D|/(8a)) its cube (n = 8)."""
    scale = pi * sqrt(-group.disc) / log(10) / n
    lead = log10(-group.disc) / 2 if n == 2 else 0
    a = [_class_point(f, group.disc, n).a if n > 3 else f[0] for f in group.forms]
    parts = partition or [(i,) for i in range(group.h)]
    top = sum(lead + scale / min(a[i] for i in part) + log10(len(part)) for part in parts)
    return top + log10(comb(len(parts), len(parts) // 2))


def precision_floor(group: ClassGroup) -> int:
    """Digits at which moduli_report starts when h is even, the floor of the
    coset route: the higher of the floors of its two polynomials, so both
    are expected to be certified at once.  When h is odd, _field_polynomials
    takes both from class_polynomial_with_precision instead.

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
    = |j|^(2/3), it stays inside the cube's log10 3."""
    field = ceil(_height(group, group._torsion_cosets) + log10(3)) + GUARD_DIGITS
    return max(class_polynomial_floor(group), field)


def class_polynomial_floor(group: ClassGroup, n: int | None = None) -> int:
    """Digits at which kernel n's polynomial starts: its height and
    GUARD_DIGITS.  The default n, _class_kernel's, admits every class
    polynomial: W, a third of the height of H_D, when 3 does not divide D;
    W3, about two thirds of it, when D is odd and 3 divides it; else H_D.
    Weber's, at D = 1 (mod 8), is lower still: 19 digits on average for x
    (n = 24) against W's 93, and 28 for its cube (n = 8) against W3's 161,
    over the 40 such D of the benchmark's seed-1 classpoly queries."""
    return ceil(_height(group, n=n or _class_kernel(group.disc))) + GUARD_DIGITS


def _class_polynomial_at(group: ClassGroup, n: int, digits: int) -> tuple[tuple[int, ...], list]:
    """H_D certified at digits through kernel n, and the kernel's values:
    _class_kernel's for both commands, or Weber's for class_polynomial at D
    = 1 (mod 8).  The product over the values is certified, then the
    kernel's exact step gives H_D, or W: none for j; for gamma_3 the norm
    with its exact division; for Weber's roots the check that the product
    vanishes at the principal root, f(sqrt D) / sqrt 2 or its cube
    (numerics.vanishes), three root squarings (_graeffe) to the polynomial
    of t = x^8, or of u = x^24 when 3 | D, and _norm_from_weber to W or
    H_D.  Then Gross-Zagier on H_D(0), or on W(0) followed by the norm from
    W, and _check_square: a W off by one above its constant term passes
    Gross-Zagier, which reads W(0) alone, but at odd D not the square (none
    of the 4720 such W does at the odd D with 3 not dividing D and |D| <=
    3000 off the Weber kernel).

    Weber's roots are units (t (t gamma_2 + 16 t^2) = 1), so P(0) = +-1
    for their polynomial P, and _norm_from_weber's division by P(0)^2
    refuses a wrong constant term alone: P off by one elsewhere passes it,
    and at -15 and -55 gives a power of H_-7 = x + 3375, which passes
    Gross-Zagier and the square too.  The principal root refuses those."""
    values = _class_values(group, n, digits)
    poly = _recognize_int_poly(poly_from_roots(values))
    if n > 3:
        if not vanishes(poly, values[0]):
            raise K3ModuliError(f"{group.disc}: the Weber polynomial does not vanish at its principal root")
        poly = _norm_from_weber(_graeffe(_graeffe(_graeffe(poly))), group.disc, n)
    elif n == 2:
        poly = _norm_from_gamma3(poly, group.disc)
    poly = _check_gross_zagier(group.disc, poly)
    return _check_square(group.disc, _norm_from_gamma2(poly) if n % 3 == 0 else poly), values


def _check_square(d: int, hd: tuple[int, ...]) -> tuple[int, ...]:
    """hd, once (-d)^h hd(1728) is a square when d is odd, as it is for H_D:
    j - 1728 = gamma_3^2, and y = sqrt(d) gamma_3 is a class invariant (Enge
    & Morain), so (-d)^h H_D(1728) = prod (1728 - j) (-d)^h = W3(0)^2."""
    if d % 2 == 0:
        return hd
    value = 0
    for coeff in reversed(hd):
        value = value * 1728 + coeff
    value *= (-d) ** (len(hd) - 1)
    if value < 0 or isqrt(value) ** 2 != value:
        raise K3ModuliError(f"{d}: (-D)^h H_D(1728) is not a square")
    return hd


def _norm(poly, s: int, n: int, r, q=(0, 0), lift=0, divisor=1, refusal="") -> tuple[int, ...]:
    """The norm of poly(rho) over rho^n = q rho + r (n = 2 or 3), q and r
    linear forms m X + k given as (m, k), divided exactly by divisor, or
    K3ModuliError(refusal): one integer at X = 2^s, whose signed base-2^s
    digits are the coefficients once s exceeds each by a bit (the callers'
    bounds).  With q = 0, poly(rho) = A(rho^n) + rho B(rho^n) (+ rho^2
    C(rho^n)) is a + b rho (+ c rho^2) for a = A(r) and so on (_pack): the
    norm is a^2 - r b^2 for n = 2, and for n = 3, r = X and s = 3t, rho =
    2^t, so with b, c times 2^t, 2^2t it is a^3 + b^3 + c^3 - 3abc = (a + b
    + c)((a - b)^2 + (b - c)^2 + (c - a)^2) / 2, three squarings and one
    product (the differences sum to 0, so the squares sum to an even
    number).  Otherwise (Weber's cubics) q and r are powers of two at 2^s
    and poly is in sigma = rho + lift: Horner takes it to a + b rho + c
    rho^2 by shifts and adds, and the norm is a (a + cq)^2 + r c^2 (rc -
    qb) + b (r b^2 - a (3rc + qb)), seven products."""
    if q == (0, 0) and n == 2:
        a, b = _pack(poly[0::2], s, r), _pack(poly[1::2], s, r)
        b *= b
        value = a * a - (r[0] * (b << s) + r[1] * b)
    elif q == (0, 0):
        a, b, c = (_pack(poly[i::3], s) << i * s // 3 for i in range(3))
        value = (a + b + c) * (((a - b) ** 2 + (b - c) ** 2 + (c - a) ** 2) >> 1)
    else:
        qs, rs = (((m << s) + k).bit_length() - 1 for m, k in (q, r))  # q = 2^qs, r = 2^rs
        a = b = c = 0
        for coeff in reversed(poly):
            a, b, c = (c << rs) + lift * a + coeff, a + (c << qs) + lift * b, b + lift * c
        value = a * (a + (c << qs)) ** 2 + (c * c << rs) * ((c << rs) - (b << qs))
        value += b * ((b * b << rs) - a * (3 * (c << rs) + (b << qs)))
    return _unpack(value, s, len(poly), divisor, refusal)


def _norm_from_gamma2(w: tuple[int, ...]) -> tuple[int, ...]:
    """H_D, whose roots are the cubes of W's, as the norm of W(rho) over
    rho^3 = X: for n = len(W) and |W_i| < 2^size, below 6 n^2 2^(3 size) <
    2^(s - 1) in each coefficient, as s = 3t >= 3 size + 2 (bits of n) + 4."""
    t = -(-(3 * max(map(abs, w)).bit_length() + 2 * len(w).bit_length() + 4) // 3)
    return _norm(w, 3 * t, 3, (1, 0))


def _graeffe(poly: tuple[int, ...]) -> tuple[int, ...]:
    """prod (X - y^2) over the roots y of the monic poly (Graeffe's root
    squaring), (-1)^h times the norm of poly(rho) over rho^2 = X: for
    |poly_i| < 2^size, below (h + 2) 2^(2 size) < 2^(s - 1) in each
    coefficient."""
    s = 2 * max(map(abs, poly)).bit_length() + len(poly).bit_length() + 3
    return _norm(poly, s, 2, (1, 0), divisor=(-1) ** (len(poly) - 1))


def _norm_from_gamma3(w3: tuple[int, ...], d: int) -> tuple[int, ...]:
    """H_D from the gamma_3 class polynomial W3 of odd d, or K3ModuliError.

    The roots y of W3 have y^2 = d (j - 1728), so the norm of W3(rho) over
    rho^2 = d (X - 1728) is (-d)^h H_D(X).  In powers of X - 1728, a
    unimodular change of variable, its coefficients are the n_k d^k of prod
    (y^2 - z) = sum n_k z^k: d^h divides each exactly when d^(h - k) divides
    each n_k, else W3 is refused.  They are at most prod (1729|d| + |y|^2)
    <= (1729|d| + lam^-2)^h M^2, M = prod max(1, lam |y|) below the 2-norm
    of lam^h W3(x / lam), sqrt(h + 1) 2^top, at lam^-2 = 4^e near 1729|d|."""
    h = len(w3) - 1
    e = ((1729 * -d).bit_length() + 1) // 2
    top = max(abs(coeff).bit_length() - e * (h - k) for k, coeff in enumerate(w3))
    s = ((1729 * -d + (1 << 2 * e)) ** h).bit_length() + (h + 1).bit_length() + 2 * top + 1
    refusal = f"{d}: the gamma_3 polynomial's norm is not divisible by D^{h}"
    return _norm(w3, s, 2, (d, -1728 * d), divisor=(-d) ** h, refusal=refusal)


def _norm_from_weber(poly: tuple[int, ...], d: int, n: int) -> tuple[int, ...]:
    """W from the polynomial poly of t = x^8 for Weber's x (n = 24), H_D
    from that of u = x^24 for its cube (n = 8, 3 | d), or K3ModuliError.

    Weber's roots give gamma_2 = (1 - 16t^3) / t^2 and j = (1 - 16u)^3 /
    u^2.  So the sigma = 1/t with gamma_2(t) = X are the roots of sigma^3 =
    X sigma + 16, and the sigma = 1/u with j(u) = X those of sigma^3 = 48
    sigma^2 + (X - 768) sigma + 4096, or tau^3 = X tau + 16X for sigma = tau
    + 16.  The norm of R(sigma) = sigma^h poly(1/sigma) is then prod (1 -
    16t^3 - X t^2) = (-1)^h poly(0)^2 W(X), or prod ((1 - 16u)^3 - X u^2) =
    (-1)^h poly(0)^2 H_D(X), so a remainder of poly(0)^2 refuses poly.  Its
    coefficients are below prod f(|t|), f(x) = 1 + x^2 + 16 x^3, or (1 +
    16x)^3 + x^2 for u: at most f(1/lam)^h M^3, as f(x) / max(1, lam x)^3
    peaks at x = 1/lam, where M, the Mahler measure of lam^h poly(x / lam),
    is at most its 2-norm (Landau).  The least bound over a few powers of
    two lam sets s: lam = 1 alone left it 25-35% wider than the norm."""
    h = len(poly) - 1
    if not poly[0]:
        raise K3ModuliError(f"{d}: the Weber polynomial has the root 0")
    to_w = n == 24

    def bound_bits(e: int) -> int:  # log2 of the bound at lam = 2^e
        lam = 1 << e
        num = lam**3 + lam + 16 if to_w else (lam + 16) ** 3 + lam  # f(1/lam) lam^3
        norm2 = isqrt(sum((c << e * (h - k)) ** 2 for k, c in enumerate(poly))) + 1
        return (num**h * norm2**3).bit_length() - 3 * e * h

    s = min(map(bound_bits, range(5) if to_w else range(4, 8))) + 1
    r, lift = ((0, 16), 0) if to_w else ((16, 0), 16)  # r = 16 or 16 X, sigma = tau + lift
    refusal = f"{d}: the Weber polynomial's norm is not divisible by P(0)^2"
    return _norm(poly[::-1], s, 3, r, (1, 0), lift, (-1) ** h * poly[0] ** 2, refusal)


# slots above which _pack and _unpack split at the middle one: Horner's
# shifts are quadratic in the count, the split costs calls, even near 16
_SPLIT = 16


def _pack(poly, s: int, at=(1, 0)) -> int:
    """The integer polynomial poly (lowest degree first) at m 2^s + k, for
    at = (m, k): by shifts and adds alone at 2^s, above _SPLIT
    coefficients split at the middle one, recursively."""
    if at == (1, 0) and len(poly) > _SPLIT:
        half = len(poly) // 2
        return _pack(poly[:half], s) + (_pack(poly[half:], s) << half * s)
    value = 0
    if at == (1, 0):
        for x in reversed(poly):
            value = (value << s) + x
        return value
    for x in reversed(poly):
        value = at[0] * (value << s) + at[1] * value + x
    return value


def _unpack(value: int, s: int, count: int, divisor: int, refusal: str) -> tuple[int, ...]:
    """The count signed base-2^s digits of value, lowest first, each below
    2^(s - 1) in size, divided exactly by divisor, or K3ModuliError(refusal).
    Above _SPLIT digits value splits at the middle one, recursively: the
    low half's digits are those of value mod 2^(half s), the high half's
    those of value >> half s plus the 1 a negative low half borrows."""
    if divisor < 0:
        value, divisor = -value, -divisor
    coeffs = []

    def split(value: int, count: int) -> int:  # appends the digits, returns what is above them
        if count > _SPLIT:
            half = count // 2
            carry = split(value & (1 << half * s) - 1, half)
            return split((value >> half * s) + carry, count - half)
        for _ in range(count):
            digit = value & (1 << s) - 1
            if digit >> s - 1:
                digit -= 1 << s
            value = (value - digit) >> s
            if divisor != 1:
                digit, rest = divmod(digit, divisor)
                if rest:
                    raise K3ModuliError(refusal)
            coeffs.append(digit)
        return value

    split(value, count)
    return tuple(coeffs)


_Polynomials = namedtuple("_Polynomials", "class_poly mq")


def _attempt_polynomials(group: ClassGroup, cosets, digits: int) -> _Polynomials:
    n = _class_kernel(group.disc)
    class_poly, values = _class_polynomial_at(group, n, digits)
    js = [j_from_kernel(v, n, group.disc) for v in values]
    mq = _recognize_int_poly(poly_from_roots(_separated_roots(js, cosets)))
    return _Polynomials(class_poly, _check_trace(class_poly, mq))


def _escalate(disc: int, floor: int, attempt, start: int | None = None):
    """(attempt(digits), digits) for the first certified attempt from start
    (the floor by default), doubling the precision while a certificate fails
    (recognition or coset separation) and the doubled precision stays within
    MAX_DIGITS.  A floor above MAX_DIGITS is refused before any work."""
    if floor > MAX_DIGITS:
        raise InputError(f"D = {disc} needs {floor} digits, above the ceiling of {MAX_DIGITS}")
    digits = start or floor
    while True:
        try:
            return attempt(digits), digits
        except (NotNearInteger, TracesNotApart) as exc:
            if 2 * digits > MAX_DIGITS:
                raise PrecisionError(
                    f"{exc}: failed at {digits} digits, and doubling would pass "
                    f"the ceiling of {MAX_DIGITS}"
                ) from None
            digits *= 2


def _field_polynomials(disc0: int) -> tuple[_Polynomials, int]:
    """The class and field polynomials of disc0, and their digits: at odd h,
    where C[2] is trivial and the field polynomial is H_D, both are
    class_polynomial_with_precision's; else _attempt_polynomials' from
    precision_floor up."""
    group = classgroup.class_group(disc0)
    cosets = group._torsion_cosets
    if len(cosets) == group.h:
        hd, digits = class_polynomial_with_precision(disc0)
        return _Polynomials(hd, hd), digits
    return _escalate(disc0, precision_floor(group), partial(_attempt_polynomials, group, cosets))


# shared by every lattice of disc0 (the analyze queries of an orbit, or of
# rescalings, repeat it); only certified, Gross-Zagier-checked results are
# stored, as lru_cache keeps no exception.  Bounded like class_group: an entry
# holds h + g + 2 integers of up to H_D's height in digits, 0.13 MiB at -40004
# (h = 160, tracemalloc).
@lru_cache(maxsize=32)
def field_report(disc0: int) -> FieldReport:
    """The report fields of every lattice of primitive discriminant disc0:
    the polynomials at their floors (_field_polynomials), and d_k read once
    per disc0, by trial division of |disc0|."""
    group = classgroup.class_group(disc0)
    polys, digits = _field_polynomials(disc0)
    fields = FieldReport(
        disc0=disc0,
        d_k=orders.order_of_disc(disc0).d_k,
        h=group.h,
        g=classgroup.genus_order(group),
        mq_is_galois=_is_galois(group),
        class_polynomial=polys.class_poly,
        mq_min_poly=polys.mq,
        precision_used=digits,
    )
    _check_fields(fields, group)
    return fields


def _check_fields(fields: FieldReport, group: ClassGroup) -> None:
    # consistency guaranteed by the theory, checked once per disc0 before any
    # report of it is emitted; each lattice checks its orbit (moduli_report)
    g, h, cp, mq = fields.g, fields.h, fields.class_polynomial, fields.mq_min_poly
    checks = {
        "class polynomial": len(cp) == h + 1 and cp[-1] == 1,
        "M_Q polynomial": len(mq) == g + 1 and mq[-1] == 1,
        "elementary divisors": prod(group.elementary_divisors) == h,
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise K3ModuliError(f"inconsistent report for {fields.disc0}: {', '.join(failed)}")


def class_polynomial(d: int) -> tuple[int, ...]:
    """Monic integer polynomial with roots j(tau(Q)) over the classes of C(d),
    lowest-degree coefficient first."""
    coeffs, _ = class_polynomial_with_precision(d)
    return coeffs


def class_polynomial_with_precision(d: int) -> tuple[tuple[int, ...], int]:
    """The class polynomial and the digits it was certified at: those of the
    Weber polynomial when d = 1 (mod 8), else of the gamma_2 polynomial W
    when 3 does not divide d, of the gamma_3 polynomial W3 when d is odd and
    3 divides it, of H_D itself otherwise.  Whatever the kernel, d is
    refused when class_polynomial_floor is above MAX_DIGITS."""
    group, n = classgroup.class_group(d), _class_kernel(d)
    start = floor = class_polynomial_floor(group, n)
    if d % 8 == 1:  # Weber's x, or its cube when 3 | d
        n = 24 if n == 3 else 8
        start = class_polynomial_floor(group, n)
    (coeffs, _), digits = _escalate(d, floor, partial(_class_polynomial_at, group, n), start)
    return coeffs, digits


def field_of_Q_moduli(lattice: TranscLattice) -> tuple[int, ...]:
    """Degree-g integer polynomial whose root field is the absolute field of
    moduli."""
    return field_report(lattice.disc0).mq_min_poly


def moduli_report(lattice: TranscLattice) -> ModuliReport:
    """Assemble degrees, orbit, Galois data and all minimal polynomials: the
    lattice's own fields and orbit, and those of field_report(disc0)."""
    fields = field_report(lattice.disc0)
    orbit = k3.galois_orbit(lattice)
    if len(orbit) != fields.g:  # the genus of q0 has g classes
        raise K3ModuliError(f"inconsistent report for {lattice.disc}: orbit")
    return ModuliReport(disc=lattice.disc, m=lattice.m, orbit=orbit, **fields._asdict())
