"""Record perfbench's whole-path and per-layer metrics.

    python benchmarks/perf_record.py

For each workload BENCHMARK.json declares, runs perfbench once untraced
(the end-to-end metrics) and once traced (the per-layer metrics), with
seed 1 at the declared ``run_seconds``, and writes both to
BENCH_performance.json with the Python and NumPy versions and the CPU count
they were measured with.  A per-layer metric that reads 0 is a layer the
workload never enters, and is left out.  Exits 1 if any run's output check
fails; it compares no timings.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run(command: List[str], trace: int) -> Dict[str, Any]:
    """One perfbench run; its last line of output is its JSON result."""
    *summary, result = subprocess.run(
        [*command, "--trace", str(trace)], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, check=True,
    ).stdout.splitlines()
    for line in summary:
        print(line, flush=True)
    return json.loads(result)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        command = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(SEED), "--seconds", str(seconds)]
        plain, traced = run(command, 0), run(command, 1)
        workloads[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": plain["metrics"],
            "per_layer": {name: metric for name, metric in traced["metrics"].items()
                          if metric["value"] != 0},
        }
    record = {
        "command": " ".join([*bench["command"], "--workload <name> --seed", str(SEED),
                             "--seconds", str(seconds), "--trace <0|1>"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "workloads": workloads,
    }
    (ROOT / "BENCH_performance.json").write_text(json.dumps(record, indent=2) + "\n")
    failed = [name for name, w in workloads.items() if not w["correct"]]
    if failed:
        print(f"perf_record: output check failed on {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
