"""Seeded query lists for the three benchmark workloads.

Query cost is heavy-tailed, so inputs are drawn from bins: the band's
discriminants are sorted by a cost proxy and cut into equal-size bins, and
every round takes one input from each bin, in shuffled order.  The proxy is
the class number h for class groups; for class polynomials it is h times the
digits of the constant term, pi sqrt|D| sum(1/a) / ln 10 over the reduced
forms (a, b, c), which sets the working precision.

The costliest bins (the share `fixed` of them) take a fixed member, the
middle one; the other bins draw a random member.  A few costly inputs carry
most of a run's time, and drawing them at random moved a run's throughput
by 10% (classpoly) to 20% (analyze, where a group of four queries costs four
times one D0) between seeds.  The seed picks the other inputs, the lattice
classes and the query order.  A run is a whole number of rounds, so its work
is fixed by the seed and the run length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log, pi, sqrt

from forms import form_sums, reduced_forms

MULTIPLIERS = (1, 1, 2, 3)
ROUND_SECONDS = 20  # nominal time of one round, in reference seconds


@dataclass(frozen=True)
class Workload:
    name: str
    lo: int  # band of |D| (of D0 for analyze)
    hi: int
    bins: int  # discriminants per round
    fixed: float  # share of the costliest bins that take a fixed member

    @property
    def round_size(self) -> int:
        return self.bins * (len(MULTIPLIERS) if self.name == "analyze" else 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classpoly", 300, 2500, 160, 0.5),
        Workload("analyze", 300, 3000, 26, 1.0),
        Workload("classgroup", 20000, 60000, 130, 0.5),
    )
}


def rounds_for(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def _bins(w: Workload) -> list[list[int]]:
    sums = form_sums(w.lo, w.hi)
    if w.name == "classgroup":
        cost = {n: h for n, (h, _) in sums.items()}
    else:
        cost = {n: h * pi * sqrt(n) * inv_a / log(10) for n, (h, inv_a) in sums.items()}
    ranked = sorted(sums, key=lambda n: (cost[n], n))
    cuts = [i * len(ranked) // w.bins for i in range(w.bins + 1)]
    return [ranked[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def queries(name: str, seed: int, rounds: int = 1) -> list[list[str]]:
    """The argv lists of one run, in order: `rounds` rounds of round_size queries."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    bins = _bins(w)
    if rounds > min(map(len, bins)):
        raise ValueError(f"{name} has inputs for at most {min(map(len, bins))} rounds")
    first_fixed = w.bins - round(w.fixed * w.bins)
    for i, b in enumerate(bins):
        if i >= first_fixed:
            b[:] = b[len(b) // 2 :] + b[: len(b) // 2]  # round r takes the r-th from the middle
        else:
            rng.shuffle(b)
    out: list[list[str]] = []
    for r in range(rounds):
        batch = []
        for members in bins:
            d = -members[r]
            if name == "analyze":
                forms = reduced_forms(d)
                for m in MULTIPLIERS:
                    a, b, c = rng.choice(forms)
                    gram = (2 * m * a, m * b, m * b, 2 * m * c)
                    batch.append(["analyze", "--format", "json", *map(str, gram)])
            else:
                batch.append([name, "--format", "json", "--", str(d)])
        rng.shuffle(batch)
        out.extend(batch)
    return out
