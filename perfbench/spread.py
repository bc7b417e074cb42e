"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads real-latent --seeds 1-5 [--trace 0] [--json out.json]

For every metric this prints the median of the runs and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of that
median, next to the metric's bound from BENCHMARK.json. Runs are sequential,
one fresh process each, so they do not compete for the cores.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="binary-large,roundtrip-small,real-latent")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="also write every run's result line here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, "exit": proc.returncode, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} exit {proc.returncode} correct {result['correct']} {values}",
                  flush=True)
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {workload:16} {name:28} median {median:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds.get(name)}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
