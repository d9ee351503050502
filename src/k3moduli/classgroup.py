"""Form class groups C(D): enumeration, coordinates, genus structure.

class_group(D) lists the reduced classes.  Their coordinates are built on the
first read of ClassGroup.coords or elementary_divisors, so a caller that
needs only the classes, as the class polynomial does, composes no forms.

The coordinates come from generators.  The reduced classes are walked in
order, and each class not yet reached becomes a generator g_k: its powers are
composed until one lands in the subgroup H generated so far, which gives its
relative order e_k and a relation g_k^e_k = (exponents of g_1 .. g_(k-1)); H
is then extended by composing with g_k, each block g_k^t H led by the power
g_k^t the order search found.  That is h - 1 Dirichlet compositions in all,
made on the group's coefficient triples (a, b, c) by qforms._compose, each
product looked up by its (a, b), which fixes c at one discriminant.  A group
holds those triples alone; the FormClass objects are made only when a caller
reads ClassGroup.classes, which no classgroup or classpoly query does.  The
ambiguous forms are scanned once per group, for the genus check, and their
indices are kept there as C[2].  The Smith normal
form U M V = diag(d_1, .., d_r) of the r x r relation matrix M gives the
invariant factors, and V sends a class's exponent vector e to its coordinates
e V mod (d_1, .., d_r), so C(D) is Z/d_1 x .. x Z/d_r with each class a point
of it.  Products, inverses and orders are coordinate arithmetic; the
principal genus C^2 is the classes with even coordinates at every even d_k,
the genera are the classes grouped by those coordinates mod 2, and the cosets
of C[2] are the fibres of squaring.  No Cayley table is stored: cayley()
builds one on request from a table of the labels in which each coordinate
t runs on to 2 d_t - 2, so that class offsets add without carry and each row
is one gather.

Three counts of C[2] must agree: the ambiguous reduced forms, the genus count
2^(mu - 1) from the factorisation of D (Cox, Primes of the form x^2 + ny^2,
Thm 3.15) and 2^(number of even invariant factors).  The first two are
compared before a group is returned, the last two on the first read of the
coordinates, before any coordinate is returned.  |D| is bounded by
MAX_ABS_DISC, beyond which the h^2 Cayley table of the classgroup command
would not finish in reasonable time.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import chain, compress
from math import gcd, isqrt, lcm
from operator import itemgetter

from . import orders, qforms
from .errors import InputError, K3ModuliError
from .qforms import FormClass, QuadForm, check_discriminant
from .values import Value

# Largest |D| accepted.  C(D) itself takes about 0.01 s at this size (-999479,
# h = 1644, on a 2-vCPU VM) and the classgroup command's JSON of its h^2 Cayley
# table under 1 s; listing the reduced forms costs O(|D|) divisions and h grows
# about like sqrt|D|, so at 10^9 the table alone would hold some 10^9 entries.
MAX_ABS_DISC = 10**6


class ClassGroup(Value, namedtuple("ClassGroup", "disc forms")):
    """All reduced primitive classes of one discriminant disc, as points of
    Z/d_1 x .. x Z/d_r; forms holds their reduced forms as (a, b, c) int
    tuples, sorted, and classes the same classes as FormClass objects, built
    on first read.

    elementary_divisors are the invariant factors d_1 | d_2 | .. | d_r, and
    coords[i] the coordinates of forms[i].  The principal class is forms[0],
    at coordinates 0: (1, d mod 2, .) is the only reduced form with a = 1.
    Both are built on first read, by _coordinates, and so are the genera as
    ascending tuples, which the CLI writes, the genus partition with the
    genus of each class, and the cosets of C[2], which moduli reads; the
    indices of the ambiguous forms are read once, by class_group.  All are
    kept in the instance __dict__ (no __slots__ here), and a group compares
    by disc and forms.
    """

    @property
    def h(self) -> int:
        return len(self.forms)

    @cached_property
    def classes(self) -> tuple[FormClass, ...]:
        return tuple(FormClass(QuadForm(*f), self.disc) for f in self.forms)

    @cached_property
    def _ambiguous(self) -> tuple[int, ...]:
        # C[2], ascending: the forms with b = 0, b = a or a = c
        return tuple(compress(range(self.h), map(_is_ambiguous, self.forms)))

    @cached_property
    def _structure(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        return _coordinates(self)

    @cached_property
    def coords(self) -> tuple[tuple[int, ...], ...]:
        return self._structure[0]

    @cached_property
    def elementary_divisors(self) -> tuple[int, ...]:
        return self._structure[1]

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        # (a, b) fixes c at one discriminant; index_of checks the rest
        return {(a, b): i for i, (a, b, _) in enumerate(self.forms)}

    @cached_property
    def _at(self) -> dict[tuple[int, ...], int]:
        return {c: i for i, c in enumerate(self.coords)}

    @cached_property
    def _torsion_cosets(self) -> tuple[tuple[int, ...], ...]:
        # g cosets of C[2], the fibres of squaring, each ascending, by least member
        return fibres(self, lambda i: self.mul(i, i))

    @cached_property
    def _genus_fibres(self) -> tuple[tuple[int, ...], ...]:
        """The genera, each ascending, in order of least member, so the
        principal genus first: cli._classgroup_payload writes them as they
        are, and _genus_index freezes them."""
        return fibres(self, _genera(self).__getitem__)

    @cached_property
    def _genus_index(self) -> tuple[GenusPartition, tuple[int, ...]]:
        # the partition, and for each class the position of its genus in it
        genera = self._genus_fibres
        cosets = tuple(map(frozenset, genera))
        position = {i: k for k, genus in enumerate(genera) for i in genus}
        return GenusPartition(cosets[0], cosets), tuple(map(position.__getitem__, range(self.h)))

    principal_index = 0

    def index_of(self, cls: FormClass) -> int:
        i = self._index.get((cls.rep.a, cls.rep.b))
        if i is None or self.classes[i] != cls:  # a class compares its disc too
            raise InputError(f"{cls} is not a class of discriminant {self.disc}")
        return i

    def mul(self, i: int, j: int) -> int:
        x, y, n = self.coords[i], self.coords[j], self.elementary_divisors
        return self._at[tuple((a + b) % m for a, b, m in zip(x, y, n))]

    def inverse_index(self, i: int) -> int:
        return self._at[tuple(-a % m for a, m in zip(self.coords[i], self.elementary_divisors))]

    def order_of(self, i: int) -> int:
        return lcm(*(m // gcd(a, m) for a, m in zip(self.coords[i], self.elementary_divisors)))


class GenusPartition(Value, namedtuple("GenusPartition", "principal_genus cosets")):
    """Cosets of the principal genus C(D)^2 inside C(D), as frozensets of
    class indices: principal_genus, and a tuple of all the cosets."""

    __slots__ = ()


def check_size(d: int) -> None:
    """Refuse |d| > MAX_ABS_DISC with InputError."""
    if abs(d) > MAX_ABS_DISC:
        raise InputError(f"|D| = {abs(d)} exceeds {MAX_ABS_DISC}, the largest handled")


def reduced_representatives(d: int) -> list[QuadForm]:
    """All reduced primitive forms of discriminant d, sorted by (a, b)."""
    return [QuadForm(*f) for f in _reduced_triples(d)]


def _reduced_triples(d: int) -> list[tuple[int, int, int]]:
    """The reduced primitive forms of discriminant d as (a, b, c), sorted.

    b runs first (Cohen, A Course in Computational Algebraic Number Theory,
    5.3): 0 <= b <= sqrt(|d|/3), b = d (mod 2), and the reduced forms (a, +-b, c)
    are the divisors b <= a <= sqrt(n) of n = (b^2 - d)/4 = ac, with -b also
    reduced when 0 < b < a < c.
    """
    check_discriminant(d)
    check_size(d)
    found = []
    for b in range(d % 2, isqrt(-d // 3) + 1, 2):
        n = (b * b - d) // 4
        for a in [a for a in range(max(b, 1), isqrt(n) + 1) if not n % a]:
            c = n // a
            if gcd(a, b, c) == 1:
                found.append((a, b, c))
                if 0 < b < a < c:
                    found.append((a, -b, c))
    found.sort()
    return found


def _is_ambiguous(form: tuple[int, int, int]) -> bool:
    """A reduced form (a, b, c) has order at most 2 exactly when b = 0, b = a or a = c."""
    a, b, c = form
    return b == 0 or b == a or a == c


def _genus_count(d: int) -> int:
    """Number of genera 2^(mu - 1) of primitive forms of discriminant d (Cox, Thm 3.15)."""
    mu = sum(p > 2 for p, _ in orders.factorization(-d))
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
    ambiguous forms (|C/C^2| = |C[2]|). Its one caller is the CLI's
    `enumerate`, once per primitive discriminant d."""
    forms = _reduced_triples(d)
    return len(forms), _genus_check(d, sum(map(_is_ambiguous, forms)))


def _generators(
    reps: Sequence[tuple[int, int, int]], index: dict[tuple[int, int], int], d: int
) -> tuple[list[int], list[list[int]], list[int]]:
    """Generators by subgroup extension, walking the reduced forms (a, b, c) of
    discriminant d in order from the principal form reps[0], each looked up
    by its (a, b).

    Returns (orders, relations, members): g_k has relative order orders[k],
    relations[k] holds the exponents of g_0 .. g_(k-1) in g_k^orders[k], and
    members[key] is the index of the class prod g_k^(digit k of key), key
    read in the mixed radix (orders[0], orders[1], ...), least significant
    first.
    """
    compose = qforms._compose
    reached = [False] * len(reps)
    reached[0] = True
    members = [0]
    orders: list[int] = []
    relations: list[list[int]] = []
    for i, (a, b, c) in enumerate(reps):
        if reached[i]:
            continue
        size, pa, pb, powers = len(members), a, b, [i]  # powers: g^1 .. g^(e-1)
        while True:
            pa, pb, _ = compose(pa, pb, a, b, c, d)
            j = index[pa, pb]
            if reached[j]:
                break
            powers.append(j)
        relations.append(_digits(members.index(j), orders))
        orders.append(len(powers) + 1)
        # block k is g^k H, led by g^k times the principal class: g^k itself
        for start, power in zip(range(0, len(powers) * size, size), powers):
            reached[power] = True
            members.append(power)
            for y in members[start + 1 : start + size]:
                pa, pb, _ = compose(a, b, *reps[y], d)
                j = index[pa, pb]
                reached[j] = True
                members.append(j)
    return orders, relations, members


def _digits(key: int, orders: list[int]) -> list[int]:
    digits = []
    for e in orders:
        key, digit = divmod(key, e)
        digits.append(digit)
    return digits


def _smith_diagonal(matrix: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Diagonal of the Smith normal form U M V of a nonsingular square integer
    matrix M, each entry dividing the next, and the column transform V."""
    n = len(matrix)
    # the identity rows below M go through every column operation, and end as V
    a = [row[:] for row in matrix] + [[int(i == j) for j in range(n)] for i in range(n)]
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
    return diagonal, a[n:]


def _genus_check(d: int, ambiguous: int) -> int:
    """|C[2]|: the number of ambiguous reduced forms, once it is the 2^(mu - 1) genera."""
    genera = _genus_count(d)
    if ambiguous != genera:
        raise K3ModuliError(
            f"C({d}) fails its genus check: {ambiguous} ambiguous forms, {genera} genera"
        )
    return ambiguous


# bounded, because a process that walks many discriminants would otherwise keep
# every group; a group holds its forms, 0.2 MiB at -999479 (h = 1644,
# tracemalloc), 0.5 MiB once its coordinates are read, and 32 still serve the
# queries that repeat a few recent discriminants, as analyze does for one
# lattice's orbit
@lru_cache(maxsize=32)
def class_group(d: int) -> ClassGroup:
    """Enumerate C(d): its reduced forms, once their ambiguous forms number
    the 2^(mu - 1) genera.  The invariant factors and coordinates are built
    on first read.

    Refuses |d| > MAX_ABS_DISC with InputError.
    """
    group = ClassGroup(d, tuple(_reduced_triples(d)))
    _genus_check(d, len(group._ambiguous))
    return group


def _coordinates(group: ClassGroup) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(coords, invariant factors) of C(d) from its reduced forms: the
    generator walk over the group's (a, b) index and the Smith form, whose
    2-rank must give the 2^(mu - 1) genera."""
    d = group.disc
    orders, relations, members = _generators(group.forms, group._index, d)
    matrix = [
        [-v for v in rel] + [e] + [0] * (len(orders) - k - 1)
        for k, (e, rel) in enumerate(zip(orders, relations))
    ]
    diagonal, transform = _smith_diagonal(matrix)  # V
    # e is a relation exactly when e V lies in diag(d_1, .., d_r) Z^r; the
    # coordinates at d_k = 1 are always 0 and are dropped
    kept = [k for k, n in enumerate(diagonal) if n > 1]
    divisors = tuple(diagonal[k] for k in kept)
    two_rank, genera = 2 ** sum(n % 2 == 0 for n in divisors), _genus_count(d)
    if two_rank != genera:
        raise K3ModuliError(
            f"C({d}) fails its genus check: 2-rank gives {two_rank}, {genera} genera"
        )
    # columns[k][key]: coordinate k of members[key].  The coordinates of g_t
    # are row t of V, and members[m * size + y] is g_t^m members[y] for the
    # keys of g_t's block, size the keys before it
    columns: list[list[int]] = [[0] for _ in kept]
    for row, e in zip(transform, orders):
        for column, k in zip(columns, kept):
            n, step = diagonal[k], row[k]
            column += [(x + m * step) % n for m in range(1, e) for x in column]
    coords: list[tuple[int, ...]] = [()] * group.h  # C trivial: no columns
    for i, point in zip(members, zip(*columns)):
        coords[i] = point
    return tuple(coords), divisors


def cayley(group: ClassGroup, labels: Sequence | None = None) -> tuple[tuple, ...]:
    """The Cayley table: cayley(group)[i][j] is labels[k] for classes[k] =
    classes[i] * classes[j], labels the class indices by default.  Built on
    each call, h^2 entries.

    Class i sits at offset o_i = sum c_t S_t, c its coordinates and S_t =
    prod over u < t of (2 d_u - 1), in a table of the labels where coordinate
    t runs from 0 to 2 d_t - 2: offset x holds the label at coordinates x_t
    mod d_t.  So o_i + o_j never carries, and row i is one gather of the
    offsets o_j from the slice at o_i.
    """
    h, divisors = group.h, group.elementary_divisors
    labels = range(h) if labels is None else labels
    if h == 1:  # itemgetter of one index returns a bare item, not a 1-tuple
        return ((labels[0],),)
    offsets, stride = [0] * h, 1
    for column, n in zip(zip(*group.coords), divisors):
        offsets = [o + a * stride for o, a in zip(offsets, column)]
        stride *= 2 * n - 1
    table, block = list(map(labels.__getitem__, sorted(range(h), key=offsets.__getitem__))), 1
    for n in divisors:  # coordinate t: each run of its d_t values, then its first d_t - 1 again
        run = n * block
        runs = (table[k : k + run] for k in range(0, len(table), run))
        table = list(chain.from_iterable(r + r[: run - block] for r in runs))
        block *= 2 * n - 1
    span, gather = max(offsets) + 1, itemgetter(*offsets)
    return tuple(gather(table[o : o + span]) for o in offsets)


def two_torsion(group: ClassGroup) -> frozenset[int]:
    """Indices of classes with x * x principal: the ambiguous reduced forms,
    scanned once per group by class_group."""
    return frozenset(group._ambiguous)


def _genera(group: ClassGroup) -> list[tuple[int, ...]]:
    """The genus of each class: its coordinates mod 2 at the even invariant
    factors, which come last in the divisibility chain; with none, every
    class has the genus ()."""
    odd = sum(n % 2 for n in group.elementary_divisors)
    columns = [[a % 2 for a in column] for column in list(zip(*group.coords))[odd:]]
    return list(zip(*columns)) if columns else [()] * group.h


def fibres(group: ClassGroup, key) -> tuple[tuple[int, ...], ...]:
    """The class indices grouped by key(i), each group ascending; groups come
    in order of their smallest member."""
    found: dict = {}
    for i in range(group.h):
        found.setdefault(key(i), []).append(i)
    return tuple(map(tuple, found.values()))


def principal_genus(group: ClassGroup) -> frozenset[int]:
    """The subgroup of squares C(D)^2: even coordinates at every even invariant factor."""
    return genus_partition(group).principal_genus


def genus_partition(group: ClassGroup) -> GenusPartition:
    """The genera in order of their smallest member, so the principal genus,
    which holds the principal class 0, comes first.  Built once per group."""
    return group._genus_index[0]


def genus_of(group: ClassGroup, cls: FormClass) -> frozenset[int]:
    """The coset cls * C(D)^2, i.e. the genus containing cls."""
    partition, position = group._genus_index
    return partition.cosets[position[group.index_of(cls)]]


def genus_order(group: ClassGroup) -> int:
    """g = |C(D)^2| = h / |C(D)[2]|, halving h once per even invariant factor."""
    return group.h >> sum(n % 2 == 0 for n in group.elementary_divisors)
