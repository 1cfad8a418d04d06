"""Record the reference outputs and counts that ``run.py`` checks against.

    python3 perfbench/record_reference.py

Runs each workload once, traced, at seed 0 and rewrites
perfbench/reference.json.  Run it only on the commit whose outputs are the
reference; the file then holds its summaries and exact counts.
"""

import json
import os
import sys

import run  # pins the BLAS threads before numpy is imported


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    import workloads

    run.WORK_DIR.mkdir(exist_ok=True)
    reference = {"environment": run.environment()}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(run.WORK_DIR, 0)
        result, stats, _, _ = run.traced_pass(
            workload, workload.ops(), None, run.WORK_DIR / f"trace_{name}_reference.json")
        failed = {label: msgs for label, msgs in result["problems"].items() if msgs}
        if failed:
            print(f"{name}: not recorded, checks failed: {failed}", file=sys.stderr)
            return 1
        reference[name] = {"summaries": result["summaries"],
                           "counts": {**result["counts"], **run.call_counts(stats)}}
        print(f"{name}: {result['wall_s']:.2f} s traced, counts {reference[name]['counts']}")
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
