"""Set-up probe: import invforge, build a workload's instance texts, say "ready".

run.py starts this script several times and times each from process start to
the "ready" line; the median of those times is the workload's setup_s.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import invforge  # noqa: E402,F401 - timed on purpose: numpy and every module
import workloads  # noqa: E402

instances = workloads.build(sys.argv[1], int(sys.argv[2]))
print(f"ready {len(instances)}", flush=True)
