import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import invforge
from invforge import cli, oracles
from invforge.cli import FAMILIES, main, run_bench, run_verify, write_bench_csv
from invforge.instances import CvpInstance, is_clique, parse_graph
from invforge.ratio import parse_ratio
from invforge.reductions import (
    DOMAIN_REAL,
    InversionQuery,
    LatentDomain,
    ReductionArtifact,
    artifact_from_json,
    artifact_to_json,
    backward_witness,
    forward_witness,
)
from invforge.relunet import ReluNetwork, distance_pow, forward, layer

SAT_TEXT = "p cnf 2 2\n1 2 0\n-1 2 0\n"
UNSAT_TEXT = "p cnf 1 2\n1 0\n-1 0\n"
GRAPH_TEXT = "graph 4\n1 2 1/1\n3 4 2/1\n"
CVP_TEXT = "cvp 1 1 1\n1\n2\n1/2\n"


def run_cli(*argv):
    return main(list(argv))


def test_reduce_sat_binary(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(SAT_TEXT)
    out = tmp_path / "art.json"
    code = run_cli("reduce", "--from", "sat", "--latent", "binary",
                   "--in", str(cnf), "--out", str(out))
    assert code == 0
    art = artifact_from_json(out.read_text())
    assert art.query.network.depth == 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["width"] == 2 and summary["depth"] == 2


def test_invert_brute_exit_codes(tmp_path):
    cnf = tmp_path / "f.cnf"
    out = tmp_path / "art.json"
    cnf.write_text(SAT_TEXT)
    run_cli("reduce", "--from", "sat", "--latent", "binary", "--in", str(cnf), "--out", str(out))
    assert run_cli("invert", "--query", str(out), "--oracle", "brute") == 0

    cnf.write_text(UNSAT_TEXT)
    run_cli("reduce", "--from", "sat", "--latent", "binary", "--in", str(cnf), "--out", str(out))
    assert run_cli("invert", "--query", str(out), "--oracle", "brute") == 1


def test_invert_verdict_json(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    out = tmp_path / "art.json"
    cnf.write_text(SAT_TEXT)
    run_cli("reduce", "--from", "sat", "--latent", "binary", "--in", str(cnf), "--out", str(out))
    capsys.readouterr()
    run_cli("invert", "--query", str(out), "--oracle", "brute")
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["decision"] == "YES"
    assert verdict["certificate"] == "exhaustive"
    assert verdict["witness"] is not None


def test_brute_on_real_domain_is_usage_error(tmp_path):
    cnf = tmp_path / "f.cnf"
    out = tmp_path / "art.json"
    cnf.write_text(SAT_TEXT)
    run_cli("reduce", "--from", "sat", "--latent", "real", "--in", str(cnf), "--out", str(out))
    assert run_cli("invert", "--query", str(out), "--oracle", "brute") == 2


@pytest.mark.parametrize(
    "family, latent, flags, oracle",
    [("sat", "binary", [], "brute"), ("sat", "real", [], "pattern"),
     ("halfclique", "real", ["--bound", "5"], "falsify")],
    ids=["binary-scan", "real-pattern", "real-falsify"],
)
def test_invert_without_oracle_lets_the_query_choose(tmp_path, capsys, family, latent, flags, oracle):
    src, out = tmp_path / "in.txt", tmp_path / "art.json"
    src.write_text(SAT_TEXT if family == "sat" else GRAPH_TEXT)
    assert run_cli("reduce", "--from", family, "--latent", latent, *flags, "--in", str(src), "--out", str(out)) == 0
    capsys.readouterr()
    common = ("invert", "--query", str(out), "--restarts", "40", "--seed", "3")
    assert run_cli(*common) == run_cli(*common, "--oracle", oracle) == 0
    chosen, explicit = capsys.readouterr().out.splitlines()
    assert chosen == explicit


def test_falsify_zero_restarts_reports_no(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    out = tmp_path / "art.json"
    cnf.write_text(SAT_TEXT)
    run_cli("reduce", "--from", "sat", "--latent", "real", "--in", str(cnf), "--out", str(out))
    capsys.readouterr()
    code = run_cli("invert", "--query", str(out), "--oracle", "falsify", "--restarts", "0")
    assert code == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["certificate"] == "falsifier-only"


def test_reduce_halfclique_odd_p_rejected(tmp_path):
    g = tmp_path / "g.graph"
    g.write_text(GRAPH_TEXT)
    out = tmp_path / "art.json"
    code = run_cli("reduce", "--from", "halfclique", "--latent", "binary", "--p", "3",
                   "--bound", "2", "--in", str(g), "--out", str(out))
    assert code == 2


def test_reduce_cvp_real_quarter_mode(tmp_path, capsys):
    f = tmp_path / "inst.cvp"
    f.write_text("cvp 1 1 1\n1\n1\n1/8\n")
    out = tmp_path / "art.json"
    code = run_cli("reduce", "--from", "cvp", "--latent", "real", "--in", str(f), "--out", str(out))
    assert code == 0
    art = artifact_from_json(out.read_text())
    assert art.query.network.depth == 5
    assert art.constants["gadget_mode"] == "quarter"


def test_reduce_parse_error_exit(tmp_path):
    f = tmp_path / "bad.cnf"
    f.write_text("p cnf 1 1\n2 0\n")
    assert run_cli("reduce", "--from", "sat", "--latent", "binary",
                   "--in", str(f), "--out", str(tmp_path / "x.json")) == 2


HUGE = "1e100000000"  # Fraction would expand this to a hundred million digits


def _assert_fast_usage_error(capsys, *argv):
    capsys.readouterr()
    start = time.perf_counter()
    code = run_cli(*argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and elapsed < 1.0
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize(
    "source, text, flags, message",
    [
        ("cvp", f"cvp 1 1 1\n{HUGE}\n2\n1/2\n", [], "bad rational literal"),
        ("halfclique", f"graph 2\n1 2 {HUGE}\n", ["--bound", "5"], "bad rational literal"),
        ("halfclique", GRAPH_TEXT, ["--bound", HUGE], "bad rational literal"),
        # a p past ratio.P_MAX would raise the entries to billion-digit powers
        ("cvp", "cvp 1 1 1000000001\n1\n1\n3/7\n", [], "p = 1000000001"),
        ("halfclique", GRAPH_TEXT, ["--bound", "5", "--p", "1000000000"], "p = 1000000000"),
    ],
    ids=["cvp-entry", "graph-weight", "bound", "cvp-header-p", "flag-p"],
)
def test_reduce_exponent_literal_is_fast_usage_error(tmp_path, capsys, source, text, flags, message):
    src = tmp_path / "instance.txt"
    src.write_text(text)
    out = tmp_path / "art.json"
    err = _assert_fast_usage_error(capsys, "reduce", "--from", source, "--latent", "binary",
                                   "--in", str(src), "--out", str(out), *flags)
    assert message in err
    assert not out.exists()


def test_verify_huge_p_is_fast_usage_error(capsys):
    err = _assert_fast_usage_error(capsys, "verify", "--family", "halfclique", "--n-max", "4",
                                   "--trials", "1", "--p", "1000000000")
    assert "p = 1000000000" in err


def test_invert_exponent_weight_is_fast_usage_error(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(SAT_TEXT)
    out = tmp_path / "art.json"
    run_cli("reduce", "--from", "sat", "--latent", "binary", "--in", str(cnf), "--out", str(out))
    doc = json.loads(out.read_text())
    doc["network"]["layers"][0]["weights"][0] = HUGE
    out.write_text(json.dumps(doc))
    _assert_fast_usage_error(capsys, "invert", "--query", str(out), "--oracle", "brute")


def _huge_bound_halfclique(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(GRAPH_TEXT)
    out = tmp_path / "art.json"
    assert run_cli("reduce", "--from", "halfclique", "--latent", "binary",
                   "--bound", "1" + "0" * 400, "--in", str(src), "--out", str(out)) == 0
    return out


def test_reduce_halfclique_huge_bound_inverts_exactly(tmp_path, monkeypatch):
    """A bound past float range: the constants take exact integer roots, the scan object ints.

    The Gram path is turned off, so that the layer scan decides.
    """
    out = _huge_bound_halfclique(tmp_path)
    monkeypatch.setattr(oracles, "_gram_form", lambda *args: None)
    dtypes = []
    scan = oracles._scan
    monkeypatch.setattr(oracles, "_scan", lambda *args: dtypes.append(args[-1]) or scan(*args))
    assert run_cli("invert", "--query", str(out), "--oracle", "brute") == 0
    assert dtypes == [object]


def test_reduce_halfclique_huge_bound_decides_by_gram_in_object_ints(tmp_path, monkeypatch, capsys):
    """The same query by its Gram form: object ints, and the layer scan's output."""
    out = _huge_bound_halfclique(tmp_path)
    capsys.readouterr()
    dtypes = []
    gram_scan = oracles._gram_scan
    monkeypatch.setattr(oracles, "_gram_scan", lambda *args: dtypes.append(args[-1]) or gram_scan(*args))
    assert run_cli("invert", "--query", str(out), "--oracle", "brute") == 0
    assert dtypes == [object]
    by_gram = capsys.readouterr().out
    monkeypatch.setattr(oracles, "_gram_form", lambda *args: None)
    assert run_cli("invert", "--query", str(out), "--oracle", "brute") == 0
    assert dtypes == [object]
    assert capsys.readouterr().out == by_gram


def test_cap_exit_code(tmp_path, monkeypatch):
    cnf = tmp_path / "f.cnf"
    out = tmp_path / "art.json"
    cnf.write_text(SAT_TEXT)
    run_cli("reduce", "--from", "sat", "--latent", "binary", "--in", str(cnf), "--out", str(out))
    monkeypatch.setenv("INVFORGE_CAP", "1")
    assert run_cli("invert", "--query", str(out), "--oracle", "brute") == 3
    bench = ("bench", "--family", "sat", "--n-from", "2", "--n-to", "2", "--out", str(tmp_path / "b.csv"))
    assert run_cli(*bench) == 3


def test_verify_deterministic_and_passing(capsys):
    r1 = run_verify("sat", 4, 30, seed=5)
    r2 = run_verify("sat", 4, 30, seed=5)
    assert r1.trials == r2.trials == 30
    assert not r1.disagreements and not r2.disagreements
    assert r1.agreements == r2.agreements


def test_verify_cli_exit_zero(capsys):
    code = main(["verify", "--family", "vertexcover", "--n-max", "4", "--trials", "20", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["disagreements"] == []
    assert report["agreements"] == report["trials"]


def test_verify_boundary_instance_included(capsys):
    code = main(["verify", "--family", "cvp", "--n-max", "3", "--trials", "5", "--seed", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["trials"] == 6  # 5 random + 1 boundary


def test_bench_csv_schema(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--family", "sat", "--n-from", "4", "--n-to", "6",
                 "--trials", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,n,trials,median_ms,states"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[1] for r in rows] == ["4", "5", "6"]
    assert [int(r[4]) for r in rows] == [16, 32, 64]  # states exactly 2^n
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines[1:])


def test_bench_csv_bytes(tmp_path):
    out = tmp_path / "bench.csv"
    records = [cli.BenchRecord("sat", 4, 2, 1.23456, 16), cli.BenchRecord("cvp", 3, 1, 0.0, 64)]
    rows = write_bench_csv(records, out)
    assert rows == ["sat,4,2,1.235,16", "cvp,3,1,0.000,64"]
    assert out.read_text() == "family,n,trials,median_ms,states\n" + "".join(row + "\n" for row in rows)
    assert write_bench_csv([], out) == [] and out.read_text() == "family,n,trials,median_ms,states\n"


def test_bench_states_monotone():
    records = run_bench("cvp", 1, 3, trials=1)
    states = [r.states for r in records]
    assert states == [2, 4, 8]  # 2^n: one latent per coefficient


def test_bench_halfclique_skips_odd_n(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--family", "halfclique", "--n-from", "3", "--n-to", "6",
                 "--trials", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [(r[0], r[1], r[4]) for r in rows] == [("halfclique", "4", "16"), ("halfclique", "6", "64")]


@pytest.mark.parametrize("latent, oracle", [("binary", "brute"), ("real", "pattern")])
def test_formula_without_clauses_inverts_to_yes(tmp_path, capsys, latent, oracle):
    # no clause leaves the clause layer one dead row, which is 0 for every latent
    cnf, art = tmp_path / "f.cnf", tmp_path / "art.json"
    cnf.write_text("p cnf 3 0\n")
    assert run_cli("reduce", "--from", "sat", "--latent", latent, "--in", str(cnf), "--out", str(art)) == 0
    capsys.readouterr()
    assert run_cli("invert", "--query", str(art), "--oracle", oracle) == 0
    assert json.loads(capsys.readouterr().out)["decision"] == "YES"


@pytest.mark.parametrize("family", [name for name, fam in FAMILIES.items() if fam.exhaustive is None])
def test_verify_exhaustive_without_cases_is_usage_error(capsys, family):
    assert main(["verify", "--family", family, "--n-max", "2", "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and f"family {family} has no exhaustive cases" in captured.err


def test_unknown_flag_is_usage_error():
    assert main(["invert", "--nope"]) == 2


SAT3_TEXT = "p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n"
CVP2_TEXT = "cvp 2 2 1\n1 1/2\n0 2\n3/2 2\n1/2\n"
GRAPH4_TEXT = "graph 4\n1 2 1/1\n3 4 2/1\n1 3 1/4\n2 4 9/1\n"
GRAPH1_TEXT = "graph 4\n1 2 1/1\n"


@pytest.mark.parametrize(
    "source, latent, text, flags, sha256",
    [
        ("sat", "binary", SAT3_TEXT, [], "986e9640f884599526794651e09f4e385858fa91853425ebd31e160d9473f8e6"),
        ("sat", "real", SAT3_TEXT, [], "f45688f635fb1bc529a4e5eb9320831a3a6c785170f65510148348de2ae1248b"),
        ("cvp", "binary", CVP2_TEXT, [], "a27b613c100440ddbfeec0e0fce5b4dbde2c8168d1112a017ddd8cea0c7ee626"),
        ("cvp", "real", CVP2_TEXT, [], "18f2bde5541f6569cdcbbfe60892e8fe6cfd882dde386534b144c538a2925a8e"),
        ("cvp", "real", "cvp 1 1 1\n1\n1\n1/8\n", [],
         "cea09140188d48af69d3e8202dd2ca9cb5550929b8c5b2a88ab1e2b623065368"),
        ("halfclique", "binary", GRAPH4_TEXT, ["--bound", "5"],
         "564c3e4c5054cfcf5b2b7f8af6f0272df705ccbe180050ac2125dc3f63721eff"),
        ("halfclique", "real", GRAPH4_TEXT, ["--bound", "5"],
         "15eb8535d655148a102dcf1bd9a58e6240a2a7b18469d8f66ccf8bd1dc9713e8"),
        ("vertexcover", "binary", GRAPH4_TEXT, ["--size", "2"],
         "2d12fdd1510930dd3dfe29d1d677fa9cc07752c57cd4139dc05546673af6e701"),
        ("vertexcover", "real", GRAPH4_TEXT, ["--size", "2"], None),
        # alpha_pow = 6 + 1 + 1 = 8 = 2 * 2^2: each non-edge takes two row copies
        ("halfclique", "binary", GRAPH1_TEXT, ["--bound", "6"],
         "7fb253c680647288bd028c376ef3eb8f568edbb94ed364926b0e7a64d1931794"),
        ("halfclique", "real", GRAPH1_TEXT, ["--bound", "6"],
         "89a4e2597967785d1aa0cc013e6a4aca3f4805f71b6f70e6ca17eada8a43793d"),
        ("halfclique", "binary", GRAPH4_TEXT, ["--bound", "5", "--p", "4"],
         "b4fbdf2582ef1e85553a4c62d0669882e50a2fb4a5921f62f8637ef85d30c09d"),
        ("halfclique", "real", GRAPH4_TEXT, ["--bound", "5", "--p", "4"],
         "d5236b5b1f9a84f8b411124e800b1441697c83308480b96a3b7a1194cf18be11"),
        ("vertexcover", "binary", GRAPH4_TEXT, ["--size", "2", "--p", "4"],
         "1f4269d9c1aa899c07eb520471ae3f81ad1d5e642c4397672f595cb87a2c9971"),
    ],
)
def test_reduce_artifacts_are_pinned(tmp_path, source, latent, text, flags, sha256):
    src = tmp_path / "instance.txt"
    src.write_text(text)
    out = tmp_path / "art.json"
    code = run_cli("reduce", "--from", source, "--latent", latent, "--in", str(src), "--out", str(out), *flags)
    if sha256 is None:
        assert code == 2 and not out.exists()
    else:
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize(
    "source, text, flags, message",
    [
        ("sat", "c only a comment\n", [], "missing 'p cnf' header"),
        ("sat", "p cnf 2\n", [], "malformed header"),
        ("sat", "p cnf x 1\n1 0\n", [], "malformed header counts"),
        ("sat", "p cnf 0 0\n", [], "declares no variables"),
        ("sat", "p cnf 1 1\n1 a 0\n", [], "bad literal token"),
        ("sat", "p cnf 1 1\n0\n", [], "empty clause"),
        ("sat", "p cnf 1 1\n1\n", [], "unterminated clause"),
        ("sat", "p cnf 1 2\n1 0\n", [], "declares 2 clauses, found 1"),
        ("sat", "p cnf 2 2\n1 0\n1 2 0\n", [], "mixed clause widths"),
        ("sat", "p cnf 2 1\n1 1 0\n", [], "repeats a variable"),
        ("halfclique", "# no header\n", ["--bound", "1"], "empty graph document"),
        ("halfclique", "graph\n", ["--bound", "1"], "malformed graph header"),
        ("halfclique", "graph four\n", ["--bound", "1"], "bad vertex count"),
        ("halfclique", "graph 2\n1 2\n", ["--bound", "1"], "malformed edge line"),
        ("halfclique", "graph 2\n1 b 1\n", ["--bound", "1"], "malformed edge line"),
        ("halfclique", "graph 2\n1 1 1\n", ["--bound", "1"], "self-loop"),
        ("cvp", "", [], "empty cvp document"),
        ("cvp", "cvp 1 1\n", [], "malformed cvp header"),
        ("cvp", "cvp 1 one 1\n1\n2\n1/2\n", [], "bad cvp header numbers"),
        ("cvp", "cvp 1 1 1\n1\n", [], "expected 4 or 5"),
        ("cvp", "cvp 1 2 1\n1\n2\n1/2\n", [], "expected 2 rationals"),
        ("cvp", "cvp 1 1 1\n1\n2\n-1\n", [], "radius must be nonnegative"),
    ],
)
@pytest.mark.parametrize("latent", ["binary", "real"])
def test_malformed_instance_is_one_line_usage_error(tmp_path, capsys, source, text, flags, message, latent):
    src = tmp_path / "instance.txt"
    src.write_text(text)
    out = tmp_path / "art.json"
    err = _assert_fast_usage_error(capsys, "reduce", "--from", source, "--latent", latent,
                                   "--in", str(src), "--out", str(out), *flags)
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "malformed artifact document"),
        ("not json", "malformed artifact document"),
        ('{"network": ', "malformed artifact document"),
        ("[" * 100000, "malformed artifact document"),  # nesting past the recursion limit
        ("[1, 2]", "malformed artifact document"),
    ],
    ids=["empty", "text", "truncated", "deep", "list"],
)
def test_non_json_artifact_is_one_line_usage_error(tmp_path, capsys, text, message):
    art = tmp_path / "art.json"
    art.write_text(text)
    err = _assert_fast_usage_error(capsys, "invert", "--query", str(art), "--oracle", "brute")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "path, value",
    [
        (("network", "layers", 0, "weights", 0), 1),
        (("target", 0), 0),
        (("threshold_pow",), None),
        (("constants",), "abc"),
        (("witness_map",), []),
        (("domain", "dim"), 5),
        (("domain", "dim"), 2),
        # an integer field takes only a JSON integer: int() would read 1.9 or true as 1
        (("p",), 1.9),
        (("p",), True),
        (("p",), "1"),
        (("domain", "dim"), 3.0),
        (("domain", "dim"), True),
        (("network", "input_dim"), 3.5),
        (("network", "layers", 0, "rows"), 3.0),
        (("network", "layers", 0, "cols"), "3"),
        (("p",), 1000000001),  # past ratio.P_MAX: refused before any power is taken
    ],
    ids=["numeric-weight", "numeric-target", "null-threshold", "string-constants",
         "list-witness-map", "dim-above-input", "dim-below-input", "p-float", "p-bool",
         "p-string", "dim-float", "dim-bool", "input-dim-float", "rows-float", "cols-string",
         "p-huge"],
)
def test_malformed_artifact_is_usage_error(tmp_path, capsys, path, value):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(SAT3_TEXT)
    out = tmp_path / "art.json"
    run_cli("reduce", "--from", "sat", "--latent", "binary", "--in", str(cnf), "--out", str(out))
    doc = json.loads(out.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("invert", "--query", str(out), "--oracle", "brute") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("clamp_hi", [[1], {"a": 1}], ids=["list", "object"])
def test_falsify_bad_clamp_hi_is_usage_error(tmp_path, capsys, clamp_hi):
    cnf = tmp_path / "f.cnf"
    cnf.write_text(SAT_TEXT)
    out = tmp_path / "art.json"
    run_cli("reduce", "--from", "sat", "--latent", "real", "--in", str(cnf), "--out", str(out))
    doc = json.loads(out.read_text())
    doc["constants"]["clamp_hi"] = clamp_hi
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("invert", "--query", str(out), "--oracle", "falsify", "--restarts", "8") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "clamp_hi" in captured.err


def test_falsify_past_float_range_checks_corners_exactly(tmp_path, capsys):
    """A valid artifact whose constants overflow float64: the float search cannot run.

    The corners are checked exactly instead, and the path 1-2-3-4 has a
    half-clique (any edge) far below the bound.
    """
    src = tmp_path / "g.txt"
    src.write_text("graph 4\n1 2 1\n2 3 1\n3 4 1\n")
    out = tmp_path / "art.json"
    assert run_cli("reduce", "--from", "halfclique", "--latent", "real",
                   "--bound", "1" + "0" * 400, "--in", str(src), "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("invert", "--query", str(out), "--oracle", "falsify", "--restarts", "50") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    verdict = json.loads(captured.out)
    assert verdict["decision"] == "YES" and verdict["certificate"] == "falsifier-only"
    artifact = artifact_from_json(out.read_text())
    chosen = backward_witness(artifact, [parse_ratio(v) for v in verdict["witness"]])
    graph = parse_graph(src.read_text())
    assert len(chosen) == 2 and is_clique(graph, chosen)


def test_falsify_overflowing_forward_prints_no_warning(tmp_path):
    """Weights of 2^600 in two layers: the float forward reaches inf, then inf - inf = nan.

    The exact checks still decide, and the CLI's stderr stays empty.
    """
    big = Fraction(2) ** 600
    net = ReluNetwork(2, (layer([[big, big], [big, 2 * big]], [0, 0]),
                          layer([[big, big], [big, big]], [0, 0]),
                          layer([[1, -1]], [0])))
    query = InversionQuery(net, (Fraction(1),), 2, Fraction(0), LatentDomain(DOMAIN_REAL, 2))
    out = tmp_path / "art.json"
    out.write_text(artifact_to_json(ReductionArtifact(query)))
    env = {**os.environ, "PYTHONPATH": str(Path(invforge.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "invforge.cli", "invert", "--query", str(out), "--oracle", "falsify"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    verdict = json.loads(proc.stdout)
    assert verdict["decision"] == "NO" and verdict["certificate"] == "falsifier-only"


@pytest.mark.parametrize("latent", ["binary", "real"])
def test_reduce_cvp_even_p_is_refused(tmp_path, capsys, latent):
    src = tmp_path / "inst.cvp"
    src.write_text("cvp 1 1 2\n1\n2\n1/2\n")
    out = tmp_path / "art.json"
    code = run_cli("reduce", "--from", "cvp", "--latent", latent,
                   "--in", str(src), "--out", str(out))
    assert code == 2 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, trials",
    [
        (["--family", "sat", "--n-max", "4", "--trials", "20"], 20),
        (["--family", "sat", "--n-max", "3", "--exhaustive"], 370),
        (["--family", "sat-real", "--n-max", "2", "--trials", "6"], 6),
        (["--family", "cvp", "--n-max", "4", "--trials", "20"], 21),
        (["--family", "cvp-real", "--n-max", "3", "--trials", "6"], 6),
        (["--family", "halfclique", "--n-max", "6", "--trials", "20"], 20),
        (["--family", "halfclique-real", "--n-max", "4", "--trials", "6"], 6),
        (["--family", "vertexcover", "--n-max", "4", "--exhaustive"], 360),
    ],
    ids=["sat", "sat-exhaustive", "sat-real", "cvp", "cvp-real", "halfclique", "halfclique-real",
         "vertexcover-exhaustive"],
)
def test_verify_every_family(capsys, argv, trials):
    code = main(["verify", *argv, "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["disagreements"] == []
    assert report["trials"] == report["agreements"] == trials


@pytest.mark.parametrize("family", list(FAMILIES))
def test_verify_reports_injected_faults(monkeypatch, family):
    n_max = 1 if family.endswith("-real") else 4
    query_yes = []
    decide = cli.decide

    def recorded_decide(*args, **kwargs):
        verdict = decide(*args, **kwargs)
        query_yes.append(verdict.is_yes)
        return verdict

    def no_source_witness(artifact, latent):
        raise ValueError("injected fault")

    monkeypatch.setattr(cli, "decide", recorded_decide)
    monkeypatch.setattr(cli, "backward_witness", no_source_witness)
    report = run_verify(family, n_max, 6, seed=3, restarts=200)
    failed = [d for d in report.disagreements if d.get("witness_back") == "failed"]
    assert len(query_yes) == report.trials and any(query_yes)
    assert len(failed) == sum(query_yes)
    assert all(d["query"] == "YES" for d in failed)

    monkeypatch.undo()
    monkeypatch.setattr(cli, "constants_valid", lambda artifact: False)
    report = run_verify(family, n_max, 6, seed=3, restarts=200)
    assert report.agreements == 0
    assert len(report.disagreements) == report.trials >= 6
    assert all(d["constants"] == "invalid" for d in report.disagreements)

    # A forward map that shifts every latent by 1000: each source witness it
    # sends beyond the threshold must be reported, and nothing else.
    monkeypatch.undo()
    misses = []

    def shifted_latent(artifact, witness):
        latent = tuple(v + 1000 for v in forward_witness(artifact, witness))
        query = artifact.query
        dist = distance_pow(forward(query.network, latent), query.target, query.p)
        misses.append(not FAMILIES[family].reaches(dist.value, query.threshold_pow))
        return latent

    monkeypatch.setattr(cli, "forward_witness", shifted_latent)
    report = run_verify(family, n_max, 6, seed=3, restarts=200)
    failed = [d for d in report.disagreements if d.get("witness_forward") == "failed"]
    assert any(misses) and len(failed) == len(report.disagreements) == sum(misses)
    assert all(d["source"] == "YES" for d in failed)


def test_verify_boundary_trial_must_be_yes(monkeypatch):
    far = CvpInstance(((Fraction(2),),), (Fraction(1),), Fraction(1, 4), 1)
    monkeypatch.setitem(FAMILIES, "cvp", replace(FAMILIES["cvp"], boundary=lambda seed, p: far))
    report = run_verify("cvp", 3, 4, seed=0)
    assert report.trials == 5
    assert [d["seed"] for d in report.disagreements] == ["boundary"]
    assert report.disagreements[0]["source"] == report.disagreements[0]["query"] == "NO"


SOURCE_SIZE = {
    "sat": lambda formula: formula.num_vars,
    "cvp": lambda inst: inst.num_vectors,
    "halfclique": lambda query: query.graph.num_vertices,
    "vertexcover": lambda query: query.graph.num_vertices,
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_every_route_is_latent_tight(name):
    """A source of size n compiles to n latents, so a 2^n bound in n is one in the latent size."""
    fam = FAMILIES[name]
    size = SOURCE_SIZE[name.removesuffix(cli.REAL_SUFFIX)]
    sizes = set()
    for ts in range(40):
        source = fam.draw(random.Random(ts), ts, 6, fam.default_p)
        assert fam.compile(source, fam.default_p).query.domain.dim == size(source)
        sizes.add(size(source))
    assert len(sizes) > 1 or name == "halfclique-real"  # halfclique-real always draws n = 4
