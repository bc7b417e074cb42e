"""The benchmark's contract with invforge, checked on a few instances per workload.

perfbench/ drives invforge through its public API (pipeline.run_instance)
and patches the functions invforge.oracles looks up by module-global name
(spans.patched). A renamed function, a changed signature or a bypassed
lookup would otherwise show only as a failed benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import invforge.oracles  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402
from spans import ORACLE_LOOKUPS, Tracer, patched  # noqa: E402


def _roundtrip_small():
    # the round is 40 copies of 24 cells; the first 24 instances cover each cell once
    return workloads.build("roundtrip-small", 0)[:24]


def _real_latent():
    firsts = {}
    for inst in workloads.build("real-latent", 0):
        firsts.setdefault((inst.family, inst.expect), inst)
    return list(firsts.values())


# Each name `patched` wraps, under the oracle span that must call it. A lookup
# an oracle bypasses records no span, and spans.REQUIRED names no
# distance_pow span, so a bypassed distance_pow would pass tracer.missing.
REAL_LATENT_LOOKUPS = [
    ("lp.solve", "oracles.pattern"),
    ("relunet.forward", "oracles.pattern"),
    ("relunet.distance_pow", "oracles.pattern"),
    ("relunet.distance_pow", "oracles.falsify"),
]


def test_real_latent_lookups_cover_every_patched_name():
    assert {name for name, _ in ORACLE_LOOKUPS} == {name for name, _ in REAL_LATENT_LOOKUPS}


@pytest.mark.parametrize(
    "workload, pick, lookups",
    [("roundtrip-small", _roundtrip_small, []), ("real-latent", _real_latent, REAL_LATENT_LOOKUPS)],
    ids=["roundtrip-small", "real-latent"],
)
def test_pipeline_runs_traced(workload, pick, lookups):
    instances = pick()
    tracer = Tracer()
    with patched(tracer, invforge.oracles):
        outcomes = []
        for inst in instances:
            tracer.instance = inst.id
            outcomes.append(pipeline.run_instance(tracer.call, inst, inst.expect))
    assert [o.errors for o in outcomes] == [[] for _ in outcomes]
    for inst, out in zip(instances, outcomes):
        if inst.expect is not None:
            assert out.decision == inst.expect, inst.id
    assert tracer.missing(workload) == []
    spans = tracer.spans
    recorded = {(name, spans[parent][0]) for name, _, _, parent, _ in spans if parent >= 0}
    assert [pair for pair in lookups if pair not in recorded] == []


@pytest.mark.parametrize("seed", [0, 1])
def test_decide_picks_the_pipelines_oracle_on_real_latent(monkeypatch, seed):
    """oracles.decide routes each real-latent instance to the oracle pipeline._query_oracle calls."""
    chosen = []
    for name in ("invert_binary_bruteforce", "enumerate_patterns_invert", "falsify_real"):
        monkeypatch.setattr(invforge.oracles, name, lambda *args, name=name, **kwargs: chosen.append(name))

    def call(span, fn, *args, **kwargs):
        chosen.append(fn.__name__)
        return invforge.oracles.Verdict("NO", None, "")

    instances = workloads.build("real-latent", seed)
    for inst in instances:
        artifact = pipeline.COMPILERS[inst.family](inst, pipeline._parse(inst))
        out = pipeline.Outcome(inst.id, inst.family)
        pipeline._query_oracle(call, inst, artifact.query, artifact.constants, out)
        invforge.oracles.decide(artifact.query)
        assert chosen[-1] == chosen[-2], inst.id
    assert set(chosen) == {"enumerate_patterns_invert", "falsify_real"}
    assert len(chosen) == 2 * len(instances)
