"""invforge benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload binary-large --seed 0 --seconds 35 --trace 0

Closed loop, one client: each instance starts when the previous one has been
decided and checked (see pipeline.py). A round is the workload's fixed list
of instances; the timed pass repeats it as often as fits in --seconds (at
least once), and every repetition is checked. Each instance's time is its
fastest repetition: other load on the machine only ever adds time, and
much of it comes and goes within seconds. The latency and throughput metrics are
taken over that fixed set of per-instance times whatever the program's
speed:
  verdict_p50_ms   median of the per-instance times
  verdict_tail_ms  the 11th-largest per-instance time (the highest
                   percentile with 10 instances above it)
  instances_per_s  instances in a round / sum of the per-instance times
setup_s is the median of several set-up probes (see probe.py), spread
evenly over the timed pass so that they meet the same machine as it does.

--trace 0 prints the end-to-end metrics. --trace 1 runs the round untraced
as a warm-up, then with spans around every layer, then untraced again, and
prints the per-layer metrics and the tracing overhead (traced minus second
untraced wall time); it fails when a layer the workload must use recorded
no call. Either way the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the full record (with the
spans, on traced runs) goes to perfbench/out/.

Exit codes: 0 all verdicts checked out, 1 some instance failed a check,
2 the benchmark cannot run here, 3 a traced layer recorded no calls.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("binary-large", "roundtrip-small", "real-latent")
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # the tail is the highest percentile with this many instances above it


class BenchError(Exception):
    """The benchmark cannot run in this checkout or environment."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting probe.py to its "ready" line."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line.startswith("ready"):
        raise BenchError(f"set-up probe exited with code {code}")
    return ready - start


def texts_digest(instances) -> str:
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(f"{inst.id}\n{inst.bound}\n{inst.size}\n{inst.text}\n".encode())
    return digest.hexdigest()


def expected_verdicts(workload: str, seed: int, default_seed: int, instances) -> dict:
    """Instance id -> verdict the pipeline must reach, where one is known.

    The default seed's verdicts are recorded in expected.json; cells that
    ask for a verdict carry the one reference.solve found while generating.
    """
    known = {i.id: i.expect for i in instances if i.expect is not None}
    if seed != default_seed:
        return known
    record = json.loads(EXPECTED.read_text())[workload]
    if record["texts_sha256"] != texts_digest(instances):
        raise BenchError(
            f"{workload} texts for seed {seed} differ from expected.json; "
            "re-record with perfbench/record_expected.py after checking why"
        )
    known.update(zip((i.id for i in instances), ("YES" if v == "Y" else "NO" for v in record["verdicts"])))
    return known


def timed_pass(instances, seconds: float, expected, probe):
    """Repeat the round while another one fits in `seconds` (at least once).

    Between instances, calls `probe` SETUP_REPEATS times at even intervals
    of `seconds`. Returns (outcomes, per-instance durations, probe results,
    wall, rounds run).
    """
    from pipeline import direct, run_instance

    outcomes, durations, probes = [], [[] for _ in instances], []
    start = time.perf_counter()
    done = 0
    while done == 0 or (time.perf_counter() - start) * (done + 1) / done <= seconds:
        for inst, times in zip(instances, durations):
            if len(probes) < SETUP_REPEATS and time.perf_counter() - start >= len(probes) * seconds / SETUP_REPEATS:
                probes.append(probe())
            t0 = time.perf_counter()
            outcomes.append(run_instance(direct, inst, expected.get(inst.id)))
            times.append(time.perf_counter() - t0)
        done += 1
    wall = time.perf_counter() - start
    probes += [probe() for _ in range(SETUP_REPEATS - len(probes))]
    return outcomes, durations, probes, wall, done


def untraced_pass(instances, expected):
    from pipeline import direct, run_instance

    start = time.perf_counter()
    outcomes = [run_instance(direct, inst, expected.get(inst.id)) for inst in instances]
    return outcomes, time.perf_counter() - start


def traced_pass(tracer, instances, expected):
    from pipeline import run_instance

    outcomes = []
    start = time.perf_counter()
    for inst in instances:
        tracer.instance = inst.id
        outcomes.append(tracer.call("bench.instance", run_instance, tracer.call, inst, expected.get(inst.id)))
    return outcomes, time.perf_counter() - start


def tail(times) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND instances above it."""
    ordered = sorted(times)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def openblas_threads():
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD's commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    """Everything needed to reproduce this result."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "machine": platform.platform(),
        "cpu": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": openblas_threads(),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "INVFORGE_CAP": os.environ.get("INVFORGE_CAP"),
    }


def run(args) -> tuple[dict, dict, int]:
    """(result line, full record, exit code)."""
    if "INVFORGE_CAP" in os.environ:
        raise BenchError("INVFORGE_CAP is set; it changes which instances raise CapExceeded. Unset it.")
    if not (SRC / "invforge").is_dir():
        raise BenchError(f"run from a checkout of the repository: {SRC / 'invforge'} is missing")

    sys.path.insert(0, str(SRC))
    import workloads

    instances = workloads.build(args.workload, args.seed)
    expected = expected_verdicts(args.workload, args.seed, workloads.DEFAULT_SEED, instances)
    record = {"provenance": provenance(args)}

    if args.trace:
        import invforge.oracles
        from spans import Tracer, layer_metrics, patched

        warm, warm_wall = untraced_pass(instances, expected)
        tracer = Tracer()
        with patched(tracer, invforge.oracles):
            traced, traced_wall = traced_pass(tracer, instances, expected)
        untraced, untraced_wall = untraced_pass(instances, expected)
        missing = tracer.missing(args.workload)
        metrics = layer_metrics(tracer, traced, traced_wall - untraced_wall)
        record["spans"] = tracer.spans
        outcomes = warm + traced + untraced
        wall = warm_wall + traced_wall + untraced_wall
    else:
        missing = []
        outcomes, durations, setup, wall, done = timed_pass(
            instances, args.seconds, expected, lambda: probe_setup(args.workload, args.seed)
        )
        per_instance = [min(times) for times in durations]
        tail_s, tail_pct = tail(per_instance)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "instances_per_s": (len(instances) / sum(per_instance), "1/s"),
            "verdict_p50_ms": (statistics.median(per_instance) * 1e3, "ms"),
            "verdict_tail_ms": (tail_s * 1e3, "ms"),
            "verified_ratio": (sum(not o.errors for o in outcomes) / len(outcomes), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record.update(setup_samples_s=setup, rounds_run=done, instances=len(instances), tail_percentile=tail_pct,
                      durations_s={inst.id: times for inst, times in zip(instances, durations)})

    failed = [o for o in outcomes if o.errors]
    decisions = [o.decision for o in outcomes]
    record.update(
        wall_s=wall,
        attempted=len(outcomes),
        failed=len(failed),
        error_rate=len(failed) / len(outcomes),
        yes=decisions.count("YES"),
        no=decisions.count("NO"),
        failures=[{"id": o.id, "errors": o.errors} for o in failed[:50]],
        missing_layers=missing,
        metrics={k: v for k, (v, _) in metrics.items()},
    )
    result = {
        "correct": not failed and not missing,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    code = 3 if missing else (1 if failed else 0)
    return result, record, code


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, record, code = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    for name, metric in result["metrics"].items():
        print(f"{args.workload:16} {name:28} {metric['value']:14.6g} {metric['unit']}")
    print(f"{args.workload:16} {'error_rate':28} {record['error_rate']:14.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} instances)")
    if "tail_percentile" in record:
        print(f"{args.workload:16} verdict_tail_ms is p{record['tail_percentile']:.2f}"
              f" of {record['instances']} instances, {record['rounds_run']} rounds run")
    for failure in record["failures"]:
        print(f"FAILED {failure['id']}: {'; '.join(failure['errors'])}", file=sys.stderr)
    if record["missing_layers"]:
        print("traced layers with no calls: " + ", ".join(record["missing_layers"]), file=sys.stderr)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
