"""In-memory spans around invforge's layers, and the per-layer metrics they give.

A span is (name, start, end, parent index, instance id). The pipeline opens
spans around its own calls into each layer; `patched` adds spans inside the
oracles by replacing the LP and exact-forward functions under the names
`invforge.oracles` looks them up by. A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

# Functions invforge.oracles calls by module-global name: (span name, attribute).
ORACLE_LOOKUPS = (
    ("lp.solve", "lp_feasible"),
    ("lp.solve", "lp_minimize"),
    ("relunet.forward", "forward"),
    ("relunet.distance_pow", "distance_pow"),
)

# Layers a workload must keep busy, as (span name, parent span name or None).
# A wrap that a refactor bypasses records zero calls and fails the run.
REQUIRED = {
    "binary-large": [("oracles.scan", None), ("reductions.witness", None)],
    "roundtrip-small": [("oracles.scan", None), ("reductions.witness", None)],
    "real-latent": [
        ("oracles.pattern", None),
        ("lp.solve", "oracles.pattern"),
        ("relunet.forward", "oracles.pattern"),
        ("oracles.falsify", None),
        ("relunet.forward", "oracles.falsify"),
    ],
}
COMMON = [(name, None) for name in (
    "instances.parse", "reductions.compile", "reductions.serialize", "reductions.load", "reductions.constants",
    "oracles.source",
)]


class Tracer:
    """The spans of one traced pass, kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[list] = []
        self.instance: str | None = None
        self.feasible = 0  # lp.solve calls that returned a point
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), None, parent, self.instance]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            span[2] = time.perf_counter()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "lp.solve" and result is not None:
                self.feasible += 1
            return result

        return traced

    def self_times(self) -> tuple[dict, Counter]:
        """(self seconds, span count) per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            total[name] += end - start - covered
            calls[name] += 1
        return dict(total), calls

    def missing(self, workload: str) -> list[str]:
        """Required layers this trace never entered."""
        seen = {(name, None) for name, *_ in self.spans}
        seen |= {(name, self.spans[parent][0]) for name, _, _, parent, _ in self.spans if parent >= 0}
        return [
            name if parent is None else f"{name} under {parent}"
            for name, parent in COMMON + REQUIRED[workload]
            if (name, parent) not in seen
        ]


@contextlib.contextmanager
def patched(tracer: Tracer, module):
    """Route module's ORACLE_LOOKUPS through tracer spans, restoring them on exit.

    A lookup that no longer exists raises AttributeError here, before any run.
    """
    saved = {attr: getattr(module, attr) for _, attr in ORACLE_LOOKUPS}
    try:
        for name, attr in ORACLE_LOOKUPS:
            setattr(module, attr, tracer.wrap(name, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


LAYERS = {  # share-report layer of each span name
    "instances.parse": "instances",
    "reductions.compile": "reductions",
    "reductions.serialize": "reductions",
    "reductions.load": "reductions",
    "reductions.witness": "reductions",
    "reductions.constants": "reductions",
    "oracles.scan": "oracles.scan",
    "oracles.source": "oracles.source",
    "oracles.pattern": "oracles.pattern",
    "oracles.falsify": "oracles.falsify",
    "lp.solve": "lp",
    "relunet.forward": "relunet",
    "relunet.distance_pow": "relunet",
    "bench.instance": "bench",
    "bench.check": "bench",
}
SHARE_LAYERS = sorted(set(LAYERS.values()))


def layer_shares(self_time: dict) -> dict:
    """Each layer's self time as a share of all traced instance time."""
    total = sum(self_time.values())
    shares = dict.fromkeys(SHARE_LAYERS, 0.0)
    for name, seconds in self_time.items():
        shares[LAYERS[name]] += seconds / total
    return shares


def layer_metrics(tracer: Tracer, outcomes, overhead_s: float) -> dict:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    self_time, calls = tracer.self_times()

    def seconds(name):
        return (self_time.get(name, 0.0), "s")

    def total(field):
        return sum(getattr(o, field) for o in outcomes)

    scan_s = self_time.get("oracles.scan", 0.0)
    solves = calls.get("lp.solve", 0)
    falsify_calls = total("falsify_calls")
    metrics = {
        "instances.parse_s": seconds("instances.parse"),
        "reductions.compile_s": seconds("reductions.compile"),
        "reductions.serialize_s": seconds("reductions.serialize"),
        "reductions.load_s": seconds("reductions.load"),
        "reductions.witness_s": seconds("reductions.witness"),
        "reductions.constants_s": seconds("reductions.constants"),
        "reductions.artifact_bytes": (total("artifact_bytes"), "count"),
        "oracles.scan_s": (scan_s, "s"),
        "oracles.scan_states": (total("scan_states"), "count"),
        "oracles.scan_states_per_s": (total("scan_states") / scan_s if scan_s else 0.0, "1/s"),
        "oracles.source_s": seconds("oracles.source"),
        "oracles.source_states": (total("source_states"), "count"),
        "oracles.pattern_s": seconds("oracles.pattern"),
        "oracles.pattern_leaves": (total("pattern_leaves"), "count"),
        "oracles.lp_pivots": (total("lp_pivots"), "count"),
        "lp.solves": (solves, "count"),
        "lp.solve_s": seconds("lp.solve"),
        "lp.feasible_ratio": (tracer.feasible / solves if solves else 0.0, "ratio"),
        "oracles.falsify_s": seconds("oracles.falsify"),
        "oracles.falsify_points": (total("falsify_points"), "count"),
        "oracles.falsify_yes_ratio": (
            sum(o.falsify_calls for o in outcomes if o.decision == "YES") / falsify_calls
            if falsify_calls else 0.0,
            "ratio",
        ),
        "relunet.forward_calls": (calls.get("relunet.forward", 0), "count"),
        "relunet.forward_s": seconds("relunet.forward"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer, share in layer_shares(self_time).items():
        metrics[f"share.{layer}"] = (share, "ratio")
    return metrics
