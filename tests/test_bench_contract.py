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
from spans import Tracer, patched  # noqa: E402


def _roundtrip_small():
    # the round is 40 copies of 24 cells; the first 24 instances cover each cell once
    return workloads.build("roundtrip-small", 0)[:24]


def _real_latent():
    firsts = {}
    for inst in workloads.build("real-latent", 0):
        firsts.setdefault((inst.family, inst.expect), inst)
    return list(firsts.values())


@pytest.mark.parametrize(
    "workload, pick",
    [("roundtrip-small", _roundtrip_small), ("real-latent", _real_latent)],
    ids=["roundtrip-small", "real-latent"],
)
def test_pipeline_runs_traced(workload, pick):
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
