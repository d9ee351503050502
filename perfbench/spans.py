"""Span tracing from outside the program, and the per-layer metrics it yields.

The tracer replaces each layer's public functions at the name their callers
look up (moduli binds the numerics functions at import, so both names are
replaced).  A span is recorded only while a query is open; spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import math
import time

# span name -> (module, attribute) pairs that callers look the function up by
TRACED = {
    "cli.main": [("cli", "main")],
    "qforms.compose": [("qforms", "compose")],
    "qforms.inverse": [("qforms", "inverse")],
    "classgroup.class_group": [("classgroup", "class_group")],
    "classgroup.reduced_representatives": [("classgroup", "reduced_representatives")],
    "classgroup.genus_partition": [("classgroup", "genus_partition")],
    "classgroup.two_torsion": [("classgroup", "two_torsion")],
    "classgroup.principal_genus": [("classgroup", "principal_genus")],
    "classgroup.genus_order": [("classgroup", "genus_order")],
    "classgroup.genus_of": [("classgroup", "genus_of")],
    "numerics.j_invariant": [("numerics", "j_invariant"), ("moduli", "j_invariant")],
    "numerics.poly_from_roots": [("numerics", "poly_from_roots"), ("moduli", "poly_from_roots")],
    "numerics.recognize_integer": [
        ("numerics", "recognize_integer"),
        ("moduli", "recognize_integer"),
    ],
    "k3.from_gram": [("k3", "from_gram")],
    "k3.galois_orbit": [("k3", "galois_orbit")],
    "moduli.is_normal": [("GaloisModel", "is_normal")],
    "moduli.moduli_report": [("moduli", "moduli_report")],
    "moduli.class_polynomial_with_precision": [("moduli", "class_polynomial_with_precision")],
}

GENUS = {
    "classgroup.genus_partition",
    "classgroup.two_torsion",
    "classgroup.principal_genus",
    "classgroup.genus_order",
    "classgroup.genus_of",
}

# a number recorded with the span, taken from the call's arguments
NOTES = {
    "numerics.j_invariant": lambda args, kwargs: args[1] if len(args) > 1 else kwargs["digits"],
    "numerics.poly_from_roots": lambda args, kwargs: len(args[0]),
}

NAME, START, END, PARENT, QID, NOTE, RAISED = range(7)

# per-layer metrics every workload reports, in print order
LAYER_METRICS = [
    ("trace.queries", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_sum_err_s", "s"),
    ("failed_frac", "ratio"),
    ("workload.d0_repeat_frac", "ratio"),
    ("qforms.compose.calls", "count"),
    ("qforms.compose.busy_s", "s"),
    ("qforms.inverse.calls", "count"),
    ("classgroup.class_group.calls", "count"),
    ("classgroup.class_group.misses", "count"),
    ("classgroup.class_group.hit_frac", "ratio"),
    ("classgroup.class_group.busy_s", "s"),
    ("classgroup.class_group.self_s", "s"),
    ("classgroup.reduced_representatives.busy_s", "s"),
    ("classgroup.genus.busy_s", "s"),
    ("numerics.j_invariant.calls", "count"),
    ("numerics.j_invariant.busy_s", "s"),
    ("numerics.j_invariant.digits_sum", "digits"),
    ("numerics.j_invariant.useful_frac", "ratio"),
    ("numerics.poly_from_roots.calls", "count"),
    ("numerics.poly_from_roots.busy_s", "s"),
    ("numerics.poly_from_roots.roots_sum", "count"),
    ("numerics.recognize_integer.calls", "count"),
    ("numerics.recognize_integer.busy_s", "s"),
    ("numerics.recognize_integer.failed", "count"),
    ("moduli.attempts", "count"),
    ("moduli.escalated_frac", "ratio"),
    ("moduli.moduli_report.self_s", "s"),
    ("moduli.class_polynomial_with_precision.self_s", "s"),
    ("moduli.is_normal.busy_s", "s"),
    ("moduli.resolvent_fallbacks", "count"),
    ("k3.galois_orbit.busy_s", "s"),
    ("k3.from_gram.busy_s", "s"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
]


class Tracer:
    """Records [name, start, end, parent, query id, note, raised] per traced call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.qid: int | None = None
        self._class_group = None

    def install(self) -> None:
        from k3moduli import classgroup, cli, k3, moduli, numerics, qforms

        modules = {
            "cli": cli,
            "qforms": qforms,
            "classgroup": classgroup,
            "numerics": numerics,
            "moduli": moduli,
            "k3": k3,
            "GaloisModel": moduli.GaloisModel,
        }
        self._class_group = classgroup.class_group
        for name, sites in TRACED.items():
            owner, attr = sites[0]
            traced = self._wrap(name, getattr(modules[owner], attr))
            for owner, attr in sites:
                setattr(modules[owner], attr, traced)

    def cache_misses(self) -> int:
        return self._class_group.cache_info().misses

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.qid is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid, None, None]
            if note is not None:
                span[NOTE] = note(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            try:
                span[START] = time.perf_counter()
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\tquery\tnote\traised\n")
            for span in self.spans:
                out.write("\t".join("" if v is None else str(v) for v in span) + "\n")


def layer_metrics(spans: list[list], precision: dict[int, int], scale: list[float]) -> dict[str, float]:
    """Per-layer counts and times from the spans of one run.

    precision maps a query id to the precision_used of its output, and scale
    to the speed factor of speed.factors, so times are normalised as the
    end-to-end latencies are.  busy_s sums spans not nested in a span of the
    same layer; self_s subtracts the time of direct children.
    """
    duration = [(s[END] - s[START]) * scale[s[QID]] for s in spans]
    child_time = [0.0] * len(spans)
    for s, dur in zip(spans, duration):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur
    self_time = [d - c for d, c in zip(duration, child_time)]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def of(name: str) -> list[int]:
        return by_name.get(name, [])

    def inside(i: int, names) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    def busy(names) -> float:
        return sum(duration[i] for name in names for i in of(name) if not inside(i, names))

    def self_s(name: str) -> float:
        return sum(self_time[i] for i in of(name))

    j = of("numerics.j_invariant")
    recognize = of("numerics.recognize_integer")
    metrics = {
        "qforms.compose.calls": len(of("qforms.compose")),
        "qforms.compose.busy_s": busy({"qforms.compose"}),
        "qforms.inverse.calls": len(of("qforms.inverse")),
        "classgroup.class_group.calls": len(of("classgroup.class_group")),
        "classgroup.class_group.busy_s": busy({"classgroup.class_group"}),
        "classgroup.class_group.self_s": self_s("classgroup.class_group"),
        "classgroup.reduced_representatives.busy_s": busy({"classgroup.reduced_representatives"}),
        "classgroup.genus.busy_s": busy(GENUS),
        "numerics.j_invariant.calls": len(j),
        "numerics.j_invariant.busy_s": busy({"numerics.j_invariant"}),
        "numerics.j_invariant.digits_sum": sum(spans[i][NOTE] for i in j),
        "numerics.j_invariant.useful_frac": (
            sum(spans[i][NOTE] == precision.get(spans[i][QID]) for i in j) / len(j) if j else 0.0
        ),
        "numerics.poly_from_roots.calls": len(of("numerics.poly_from_roots")),
        "numerics.poly_from_roots.busy_s": busy({"numerics.poly_from_roots"}),
        "numerics.poly_from_roots.roots_sum": sum(spans[i][NOTE] for i in of("numerics.poly_from_roots")),
        "numerics.recognize_integer.calls": len(recognize),
        "numerics.recognize_integer.busy_s": busy({"numerics.recognize_integer"}),
        "numerics.recognize_integer.failed": sum(spans[i][RAISED] == "NotNearInteger" for i in recognize),
        "moduli.moduli_report.self_s": self_s("moduli.moduli_report"),
        "moduli.class_polynomial_with_precision.self_s": self_s("moduli.class_polynomial_with_precision"),
        "moduli.is_normal.busy_s": busy({"moduli.is_normal"}),
        "k3.galois_orbit.busy_s": busy({"k3.galois_orbit"}),
        "k3.from_gram.busy_s": busy({"k3.from_gram"}),
        "cli.main.busy_s": busy({"cli.main"}),
        "cli.main.self_s": self_s("cli.main"),
    }
    # Self times of one query's spans telescope to its cli.main span by
    # construction, so this only catches spans recorded outside cli.main.
    per_query: dict[int, float] = {}
    for s, t in zip(spans, self_time):
        per_query[s[QID]] = per_query.get(s[QID], 0.0) + t
    roots = [i for i in of("cli.main") if spans[i][PARENT] < 0]
    metrics["trace.self_sum_err_s"] = max(
        (abs(per_query[spans[i][QID]] - duration[i]) for i in roots), default=0.0
    )
    return metrics


def attempts(h: int, precision_used: int) -> float:
    """1 + log2(precision_used / (30 + 10h)): recognition attempts under doubling."""
    return 1 + math.log2(precision_used / (30 + 10 * h))
