"""Reduced binary quadratic forms, counted independently of k3moduli.

Used to draw benchmark inputs and to derive the expected values the output
checks compare against, so neither depends on the code being measured.
"""

from __future__ import annotations

from math import gcd, isqrt


def reduced_forms(d: int) -> list[tuple[int, int, int]]:
    """Reduced primitive positive definite forms of discriminant d < 0, sorted by (a, b)."""
    forms = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (a == c and b < 0) or gcd(a, b, c) != 1:
                continue
            forms.append((a, b, c))
    return forms


def form_sums(lo: int, hi: int) -> dict[int, tuple[int, float]]:
    """(h(-n), sum of 1/a over the reduced forms (a, b, c)) for every discriminant
    -n with lo <= n <= hi, by one sweep over forms."""
    sums: dict[int, tuple[int, float]] = {}
    for a in range(1, isqrt(hi // 3) + 1):
        a4 = 4 * a
        for b in range(-a + 1, a + 1):
            bb = b * b
            g_ab = gcd(a, b)
            for c in range(max(a, -(-(lo + bb) // a4)), (hi + bb) // a4 + 1):
                if (b < 0 and c == a) or (g_ab != 1 and gcd(g_ab, c) != 1):
                    continue
                n = a4 * c - bb
                h, inv = sums.get(n, (0, 0.0))
                sums[n] = (h + 1, inv + 1 / a)
    return sums


def principal_form(d: int) -> tuple[int, int, int]:
    b = d % 2
    return (1, b, (b - d) // 4)


def is_ambiguous(form: tuple[int, int, int]) -> bool:
    """A reduced form has order at most 2 exactly when b = 0, b = a or a = c."""
    a, b, c = form
    return b == 0 or b == a or a == c


def genus_count(d: int) -> int:
    """Number of genera 2^(mu-1) of primitive forms of discriminant d (Cox, Thm 3.15)."""
    n = -d
    odd = n
    while odd % 2 == 0:
        odd //= 2
    r, p = 0, 3
    while p * p <= odd:
        if odd % p == 0:
            r += 1
            while odd % p == 0:
                odd //= p
        p += 2
    if odd > 1:
        r += 1
    if d % 4 == 1:
        mu = r
    else:
        k = n // 4
        if k % 4 == 3:
            mu = r
        elif k % 4 in (1, 2) or k % 8 == 4:
            mu = r + 1
        else:
            mu = r + 2
    return 2 ** (mu - 1)


def reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced form properly equivalent to the positive definite form (a, b, c)."""
    while True:
        if not -a < b <= a:
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, (a * k + b) * k + c
        if a > c or (a == c and b < 0):
            a, b, c = c, -b, a
        else:
            return (a, b, c)
