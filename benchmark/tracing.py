"""Spans and counts taken around the benchmark's calls into each layer.

A span is [name, start_ns, end_ns, parent, workload]; ``parent`` indexes
the enclosing span (-1 at the top).  Spans stay in memory and are written
out when the run ends.  The per-layer metrics are computed from them: a
layer's time is the self time of its spans (duration minus the part its
child spans cover), summed per traced round.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns


def direct(name, fn, *args):
    """The untraced path: call into the layer and nothing else."""
    return fn(*args)


def no_count(name, n):
    pass


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    @contextmanager
    def span(self, name):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.workload]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> list:
        """Self time of every span in ns (duration minus its children)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "workload"],
                 "spans": self.spans, "counts": self.counts},
                fh, separators=(",", ":"),
            )


# metric name -> (span name, statistic); "total" is self time per traced
# round in ms, "p50" the median span duration in the unit of the name
SPAN_METRICS = {
    "indexsets.make_ms": ("indexsets.make", "total"),
    "indexsets.add_ms": ("indexsets.add", "total"),
    "indexsets.union_ms": ("indexsets.union", "total"),
    "indexsets.shift_ms": ("indexsets.shift", "total"),
    "indexsets.truncate_ms": ("indexsets.truncate", "total"),
    "indexsets.json_ms": ("indexsets.json", "total"),
    "opclasses.compose_ms": ("opclasses.compose", "total"),
    "opclasses.compose_p50_us": ("opclasses.compose", "p50"),
    "parametrix.report_ms": ("parametrix.report", "total"),
    "parametrix.report_p50_ms": ("parametrix.report", "p50"),
    "parametrix.fredholm_ms": ("parametrix.fredholm", "total"),
    "spectrum.imspec_ms": ("spectrum.imspec", "total"),
    "spectrum.imspec_p50_ms": ("spectrum.imspec", "p50"),
    "spectrum.gap_ms": ("spectrum.gap", "total"),
    "harmonic.solve_ms": ("harmonic.solve", "total"),
    "harmonic.solve_p50_ms": ("harmonic.solve", "p50"),
    "harmonic.fit_ms": ("harmonic.fit", "total"),
    "harmonic.residual_ms": ("harmonic.residual", "total"),
    "bench.self_ms": ("op", "total"),
}

# counters, reported per traced round under their own names
COUNT_METRICS = (
    "indexsets.generators",
    "opclasses.compose_calls",
    "opclasses.terms",
    "parametrix.assertions",
    "spectrum.roots",
    "spectrum.matrix_evals",
    "spectrum.gap_points",
    "harmonic.unknowns",
)


def per_layer_metrics(tracer: Tracer, rounds: int, setup_spans: int, overhead_pct: float,
                      scale: float, setup_scale: float) -> dict:
    """Every per-layer metric from the spans of ``rounds`` traced rounds.

    Spans before index ``setup_spans`` belong to set-up; only
    ``geometry.assemble_ms`` is taken from them (total per run).  Times are
    brought to the reference speed of ``calibrate.py``: round spans by
    ``scale``, set-up spans by ``setup_scale``.
    """
    own = tracer.self_times()
    by_name: dict = {}
    for i, s in enumerate(tracer.spans):
        if i >= setup_spans:
            by_name.setdefault(s[0], []).append((own[i], s[2] - s[1]))
    out = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        rows = by_name.get(span, [])
        unit = metric.rsplit("_", 1)[1]  # ms or us
        per_ns = scale / (1e3 if unit == "us" else 1e6)
        if stat == "total":
            value = sum(r[0] for r in rows) * per_ns / rounds
        else:
            value = statistics.median(r[1] for r in rows) * per_ns if rows else 0.0
        out[metric] = {"value": value, "unit": unit}
    for metric in COUNT_METRICS:
        out[metric] = {"value": tracer.counts.get(metric, 0) / rounds, "unit": "count"}
    roots = out["spectrum.roots"]["value"]
    out["spectrum.evals_per_root"] = {
        "value": out["spectrum.matrix_evals"]["value"] / roots if roots else 0.0,
        "unit": "ratio",
    }
    assemble = sum(
        own[i] for i, s in enumerate(tracer.spans[:setup_spans]) if s[0] == "geometry.assemble"
    )
    out["geometry.assemble_ms"] = {"value": assemble * setup_scale / 1e6, "unit": "ms"}
    out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return out
