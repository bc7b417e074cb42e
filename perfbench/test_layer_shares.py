"""Checks that each workload still loads the layers it was chosen for.

    python3 -m pytest perfbench/test_layer_shares.py -q

Runs `run.py --trace 1` once per workload on the default seed (about a
minute in all). If a change to invforge makes a share assertion fail, the
workload no longer measures what workloads.py says it does: change the
workload composition, not the assertion.
"""

import json
import os
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from invforge.instances import HalfCliqueQuery, parse_graph  # noqa: E402
from invforge.ratio import parse_ratio  # noqa: E402
from invforge.reductions import halfclique_to_approx  # noqa: E402
from spans import Tracer  # noqa: E402


@cache
def traced(workload: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    record = json.loads((HERE / "out" / f"{workload}-seed0-trace1.json").read_text())
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1]), record["metrics"]


def share(workload: str, *layers: str) -> float:
    return sum(traced(workload)[2][f"share.{layer}"] for layer in layers)


@pytest.mark.parametrize("workload", ["binary-large", "roundtrip-small", "real-latent"])
def test_traced_run_is_correct_and_every_required_layer_is_busy(workload):
    code, result, _ = traced(workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0


def test_binary_large_is_mostly_scan_and_source_oracle():
    assert share("binary-large", "oracles.scan", "oracles.source") > 0.5


def test_roundtrip_small_scan_is_a_minority():
    assert share("roundtrip-small", "oracles.scan") < 0.5


def test_real_latent_is_mostly_lp_and_pattern_search():
    assert share("real-latent", "lp", "oracles.pattern") > 0.5


def test_binary_large_measures_the_multi_copy_split():
    copies = [
        halfclique_to_approx(HalfCliqueQuery(parse_graph(i.text), parse_ratio(i.bound)), i.p).constants["alpha_copies"]
        for i in workloads.build("binary-large", 1)
        if i.family == "halfclique"
    ]
    assert sorted(copies)[-2:] == [6, 6] and set(sorted(copies)[:-2]) == {1}


def test_a_bypassed_wrap_is_reported_missing():
    tracer = Tracer()
    tracer.call("oracles.pattern", lambda: None)
    missing = tracer.missing("real-latent")
    assert "lp.solve under oracles.pattern" in missing
    assert "oracles.pattern" not in missing


def test_refuses_to_run_with_invforge_cap_set():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "real-latent", "--seed", "0",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "INVFORGE_CAP": "30"},
    )
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "binary-large", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
