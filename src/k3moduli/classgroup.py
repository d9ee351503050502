"""Form class groups C(D): enumeration, Cayley table, genus structure.

C(D) is built from generators.  The reduced classes are walked in order, and
each class not yet reached becomes a generator g_k: its powers are composed
until one lands in the subgroup H generated so far, which gives its relative
order e_k and a relation g_k^e_k = (exponents of g_1 .. g_(k-1)); H is then
extended by composing with g_k.  That is about h + sum(e_k) Dirichlet
compositions in all.  Every class gets a mixed-radix exponent vector, so
multiplication by g_k is a permutation of the class indices computed by vector
arithmetic, and each Cayley row is the row of its parent (the class divided by
its last generator) sent through one such permutation: h^2 list lookups and no
further composition.  The invariant factors are the Smith normal form of the
r x r relation matrix.

Before a group is returned, three counts of C[2] must agree: the ambiguous
reduced forms, 2^(number of even invariant factors) and the genus count
2^(mu - 1) from the factorisation of D (Cox, Primes of the form x^2 + ny^2,
Thm 3.15).  |D| is bounded by MAX_ABS_DISC, beyond which enumerating the
reduced forms alone would not finish in reasonable time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, isqrt

from . import qforms
from .errors import ClassNotInGroup, DiscriminantTooLarge, K3ModuliError
from .qforms import FormClass, QuadForm, check_discriminant

# Largest |D| accepted.  C(D) itself takes 0.2 s at this size (-999479, h = 1644,
# on a 2-vCPU VM), but the classgroup command's JSON of its h^2 Cayley table takes
# seconds; an input of 10^9 would spend hours enumerating reduced forms.
MAX_ABS_DISC = 10**6


@dataclass(frozen=True)
class ClassGroup:
    """All reduced primitive classes of one discriminant, with composition table.

    cayley[i][j] is the index of classes[i] * classes[j]; elementary_divisors
    are the invariant factors of the group, each dividing the next.
    """

    disc: int
    classes: tuple[FormClass, ...]
    cayley: tuple[tuple[int, ...], ...]
    elementary_divisors: tuple[int, ...]

    @property
    def h(self) -> int:
        return len(self.classes)

    @cached_property
    def _index(self) -> dict[FormClass, int]:
        return {cls: i for i, cls in enumerate(self.classes)}

    @cached_property
    def principal_index(self) -> int:
        return self._index[qforms.principal_class(self.disc)]

    @cached_property
    def _inverses(self) -> tuple[int, ...]:
        e = self.principal_index
        return tuple(row.index(e) for row in self.cayley)

    def index_of(self, cls: FormClass) -> int:
        try:
            return self._index[cls]
        except KeyError:
            raise ClassNotInGroup(f"{cls} is not a class of discriminant {self.disc}") from None

    def mul(self, i: int, j: int) -> int:
        return self.cayley[i][j]

    def inverse_index(self, i: int) -> int:
        return self._inverses[i]

    def order_of(self, i: int) -> int:
        e = self.principal_index
        n, j = 1, i
        while j != e:
            j = self.cayley[j][i]
            n += 1
        return n


@dataclass(frozen=True)
class GenusPartition:
    """Cosets of the principal genus C(D)^2 inside C(D), as index sets."""

    principal_genus: frozenset[int]
    cosets: tuple[frozenset[int], ...]


def check_size(d: int) -> None:
    """Refuse |d| > MAX_ABS_DISC with DiscriminantTooLarge."""
    if abs(d) > MAX_ABS_DISC:
        raise DiscriminantTooLarge(f"|D| = {abs(d)} exceeds {MAX_ABS_DISC}, the largest handled")


def reduced_representatives(d: int) -> list[QuadForm]:
    """All reduced primitive forms of discriminant d, sorted by (a, b)."""
    check_discriminant(d)
    check_size(d)
    reps = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(1 - a + (a + 1 + d) % 2, a + 1, 2):  # b = d (mod 2), -a < b <= a
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            if gcd(a, b, c) != 1:
                continue
            reps.append(QuadForm(a, b, c))
    return reps


def _is_ambiguous(q: QuadForm) -> bool:
    """A reduced form has order at most 2 exactly when b = 0, b = a or a = c."""
    return q.b == 0 or q.b == q.a or q.a == q.c


def _genus_count(d: int) -> int:
    """Number of genera 2^(mu - 1) of primitive forms of discriminant d (Cox, Thm 3.15)."""
    odd = -d
    while odd % 2 == 0:
        odd //= 2
    mu, p = 0, 3
    while p * p <= odd:
        if odd % p == 0:
            mu += 1
            while odd % p == 0:
                odd //= p
        p += 2
    mu += odd > 1
    if d % 4 == 0:
        n = -d // 4
        if n % 4 in (1, 2) or n % 8 == 4:
            mu += 1
        elif n % 8 == 0:
            mu += 2
    return 2 ** (mu - 1)


def class_number_and_genera(d: int) -> tuple[int, int]:
    """(h, number of genera) of C(d), read off the reduced forms without
    building the group: the genera are the cosets of C^2, as many as the
    ambiguous forms (|C/C^2| = |C[2]|)."""
    reps = reduced_representatives(d)
    return len(reps), _genus_check(d, reps)


def _generators(
    classes: tuple[FormClass, ...], index: dict[FormClass, int], identity: int
) -> tuple[list[int], list[list[int]], list[int]]:
    """Generators by subgroup extension, walking the classes in order.

    Returns (orders, relations, members): g_k has relative order orders[k],
    relations[k] holds the exponents of g_0 .. g_(k-1) in g_k^orders[k], and
    members[key] is the index of the class prod g_k^(digit k of key), key
    read in the mixed radix (orders[0], orders[1], ...), least significant
    first.
    """
    reached = [False] * len(classes)
    reached[identity] = True
    members = [identity]
    orders: list[int] = []
    relations: list[list[int]] = []
    for i, g in enumerate(classes):
        if reached[i]:
            continue
        size, power, e = len(members), g, 1
        while True:
            power = qforms.compose(power, g)
            e += 1
            j = index[power]
            if reached[j]:
                break
        relations.append(_digits(members.index(j), orders))
        orders.append(e)
        for start in range(0, (e - 1) * size, size):
            for y in members[start : start + size]:
                j = index[qforms.compose(g, classes[y])]
                reached[j] = True
                members.append(j)
    return orders, relations, members


def _digits(key: int, orders: list[int]) -> list[int]:
    digits = []
    for e in orders:
        key, digit = divmod(key, e)
        digits.append(digit)
    return digits


def _product_key(x: int, y: int, orders: list[int], relations: list[list[int]]) -> int:
    """Key of the product of the classes with keys x and y: add the exponent
    vectors and carry each overflow of digit k through relation k."""
    digits = [a + b for a, b in zip(_digits(x, orders), _digits(y, orders))]
    for k in range(len(orders) - 1, -1, -1):
        carry, digits[k] = divmod(digits[k], orders[k])
        for i, v in enumerate(relations[k]):
            digits[i] += carry * v
    key = 0
    for digit, e in zip(reversed(digits), reversed(orders)):
        key = key * e + digit
    return key


def _cayley(
    members: list[int], orders: list[int], relations: list[list[int]]
) -> tuple[tuple[int, ...], ...]:
    """Rows of the Cayley table.  The class with key x > 0 is g_t times the
    class with key x - stride[t], t its last nonzero digit; its row is that
    parent's row sent through the permutation of multiplying by g_t."""
    h = len(members)
    strides = [1]
    for e in orders[:-1]:
        strides.append(strides[-1] * e)
    perms = []
    for stride, e in zip(strides, orders):
        perm = [0] * h
        for key in range(h):
            if key % (stride * e) < (e - 1) * stride:  # digit below e - 1: no carry
                perm[members[key]] = members[key + stride]
            else:
                perm[members[key]] = members[_product_key(key, stride, orders, relations)]
        perms.append(perm)
    rows: list[tuple[int, ...]] = [()] * h
    rows[members[0]] = tuple(range(h))
    t = 0
    for key in range(1, h):
        while t + 1 < len(strides) and strides[t + 1] <= key:
            t += 1
        rows[members[key]] = tuple(map(perms[t].__getitem__, rows[members[key - strides[t]]]))
    return tuple(rows)


def _smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of a nonsingular square integer matrix,
    each entry dividing the next."""
    a = [row[:] for row in matrix]
    n = len(a)
    diagonal = []
    for k in range(n):
        while True:
            _, i, j = min((abs(a[i][j]), i, j) for i in range(k, n) for j in range(k, n) if a[i][j])
            a[k], a[i] = a[i], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            p = a[k][k]
            for i in range(k + 1, n):
                q = a[i][k] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            for j in range(k + 1, n):
                q = a[k][j] // p
                for row in a:
                    row[j] -= q * row[k]
            if any(a[i][k] for i in range(k + 1, n)) or any(a[k][j] for j in range(k + 1, n)):
                continue
            bad = next((i for i in range(k + 1, n) for j in range(k + 1, n) if a[i][j] % p), None)
            if bad is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
        diagonal.append(abs(a[k][k]))
    return diagonal


def _genus_check(d: int, reps: list[QuadForm], divisors: tuple[int, ...] | None = None) -> int:
    """|C[2]|: the ambiguous reduced forms, which must number 2^(mu - 1) and,
    when the invariant factors are given, 2^(number of even ones)."""
    ambiguous = sum(map(_is_ambiguous, reps))
    genera = _genus_count(d)
    two_rank = genera if divisors is None else 2 ** sum(n % 2 == 0 for n in divisors)
    if not ambiguous == two_rank == genera:
        raise K3ModuliError(
            f"C({d}) fails its genus check: {ambiguous} ambiguous forms, "
            f"2-rank gives {two_rank}, {genera} genera"
        )
    return ambiguous


# bounded, because C(-999999) alone holds 12 MB and a process that walks many
# discriminants would otherwise keep every group; 32 still serves the queries
# that repeat a few recent discriminants, as analyze does for one lattice's orbit
@lru_cache(maxsize=32)
def class_group(d: int) -> ClassGroup:
    """Enumerate C(d) with its Cayley table and invariant factors.

    Refuses |d| > MAX_ABS_DISC with DiscriminantTooLarge.
    """
    reps = reduced_representatives(d)
    classes = tuple(FormClass(rep, d) for rep in reps)
    index = {cls: i for i, cls in enumerate(classes)}
    identity = index[qforms.principal_class(d)]
    orders, relations, members = _generators(classes, index, identity)
    matrix = [
        [-v for v in rel] + [e] + [0] * (len(orders) - k - 1)
        for k, (e, rel) in enumerate(zip(orders, relations))
    ]
    divisors = tuple(n for n in _smith_diagonal(matrix) if n > 1)
    _genus_check(d, reps, divisors)
    return ClassGroup(d, classes, _cayley(members, orders, relations), divisors)


def two_torsion(group: ClassGroup) -> frozenset[int]:
    """Indices of classes with x * x principal: the ambiguous reduced forms."""
    return frozenset(i for i, cls in enumerate(group.classes) if _is_ambiguous(cls.rep))


def principal_genus(group: ClassGroup) -> frozenset[int]:
    """The subgroup of squares C(D)^2."""
    return frozenset(group.cayley[i][i] for i in range(group.h))


def cosets(group: ClassGroup, subgroup: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """Cosets i * subgroup of a subgroup given by its indices, each sorted;
    walking i upwards meets every coset first at its smallest member, so they
    come ordered by it."""
    seen: set[int] = set()
    found = []
    for i, row in enumerate(group.cayley):
        if i not in seen:
            coset = tuple(sorted(row[s] for s in subgroup))
            seen.update(coset)
            found.append(coset)
    return tuple(found)


def genus_partition(group: ClassGroup) -> GenusPartition:
    squares = principal_genus(group)
    return GenusPartition(squares, tuple(map(frozenset, cosets(group, squares))))


def genus_of(group: ClassGroup, cls: FormClass) -> frozenset[int]:
    """The coset cls * C(D)^2, i.e. the genus containing cls."""
    i = group.index_of(cls)
    return frozenset(group.cayley[i][s] for s in principal_genus(group))


def genus_order(group: ClassGroup) -> int:
    """g = |C(D)^2| = h / |C(D)[2]|."""
    return len(principal_genus(group))


def structure(group: ClassGroup) -> tuple[int, ...]:
    """Invariant factors of C(D), each dividing the next."""
    return group.elementary_divisors
