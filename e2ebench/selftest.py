"""Self-test: one corrupted answer in a workload must count as a failed operation.

Run from the repository root::

    python3 e2ebench/selftest.py

Each workload runs once with ``corrupt`` set. Every worker process that
checks answers then damages exactly one answer before checking it, and
the run must report exactly that many failed operations and
``correct: false``. The test also checks that the metric names the
benchmark prints match ``BENCHMARK.json``. It takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != dict(run.PER_LAYER):
        print("FAIL: per_layer metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    tmp = run.ROOT / ".e2ebench_tmp" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    failures = 0
    try:
        for workload in run.WORKLOADS:
            runner = run.Runner(tmp)
            res = run.RUNNERS[workload](runner, 7, 3.0, False, corrupt=True)
            result = run.report(workload, res, False, 0.0)
            checked = [p for p in res["runs"] if p.get("latencies")]
            names = set(result["metrics"])
            ok = (
                result["failed"] == len(checked)
                and not result["correct"]
                and names == {m["name"] for m in spec["end_to_end"]}
            )
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload}: {result['failed']} failed of "
                  f"{result['attempted']}, {len(checked)} corrupted")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
