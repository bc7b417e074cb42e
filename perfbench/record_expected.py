"""Record the default seed's verdicts in expected.json, from reference.py alone.

    python3 perfbench/record_expected.py

No invforge oracle is called: every verdict comes from reference.solve on the
generated instance. run.py checks each default-seed run against this file,
and refuses to run when the generated texts no longer match its digest.
Takes under a minute; binary-large sat n = 18 in pure Python dominates.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from run import EXPECTED, WORKLOADS, texts_digest  # noqa: E402


def main():
    record = {}
    for workload in WORKLOADS:
        instances = workloads.build(workload, workloads.DEFAULT_SEED)
        verdicts = "".join("Y" if reference.solve(inst.kind, inst.truth) else "N" for inst in instances)
        record[workload] = {
            "seed": workloads.DEFAULT_SEED,
            "texts_sha256": texts_digest(instances),
            "verdicts": verdicts,
        }
        print(f"{workload}: {verdicts.count('Y')} YES, {verdicts.count('N')} NO", flush=True)
    EXPECTED.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
