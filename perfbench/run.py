"""Whole-path benchmark of the reproduction: one command, four workloads.

    python3 perfbench/run.py --workload cold-report --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The lines before it print the workload's own
metrics by name and unit.  See README.md for what each workload measures.

Every interpreter the run starts is fresh and writes no bytecode; data goes
only under ``.perfbench-work/`` in the checkout, which is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.dont_write_bytecode = True

from common import HERE, ROOT, SRC, child_env, declared, median, python, summary_line

WORKLOADS = ("cold-report", "trace-replay", "serve-mix", "lint-tree")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.  A
#: traced run reports no ``setup_s`` and sets up once.
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150


def _child(stage: str, args: argparse.Namespace, workdir: Path, env: Dict[str, str]) -> subprocess.Popen:
    cmd = [python(), str(HERE / "child.py"), "--stage", stage, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(workdir), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("benchmark child timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return out


def _in_process(args: argparse.Namespace, work: Path, env: Dict[str, str],
                reps: int) -> Dict[str, Any]:
    setup_s: List[float] = []
    import_s: List[float] = []
    for rep in range(reps):
        workdir = work / f"setup-{rep}"
        workdir.mkdir()
        began = time.perf_counter()
        proc = _child("setup", args, workdir, env)
        ready = proc.stdout.readline()
        setup_s.append(time.perf_counter() - began)
        _finish(proc)
        if not ready.startswith("READY "):
            raise RuntimeError(f"set-up child said {ready!r}")
        import_s.append(float(ready.split()[1]))
        if rep < reps - 1:
            shutil.rmtree(workdir)
    # The measuring interpreter works on the last set-up's materials.
    out = _finish(_child("measure", args, work / f"setup-{reps - 1}", env))
    line = next(l for l in reversed(out.splitlines()) if l.startswith("RESULT "))
    result = json.loads(line[len("RESULT "):])
    plain = [u for u, t in zip(result["units"], result["traced"]) if not t]
    result["metrics"] = {
        "setup_s": median(setup_s),
        "peak_rss_mb": result["peak_rss_mb"],
        "report_s": median([u["report_s"] for u in plain]),
        "rereport_s": median([u["rereport_s"] for u in plain]),
    }
    result["summary"].append(("units", float(len(plain)), "count", "untraced repetitions"))
    if args.trace:
        result["layers"]["cli.import_s"] = median(import_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = child_env()
        reps = 1 if args.trace else SETUP_REPS
        if args.workload == "serve-mix":
            import servemix

            result = servemix.run(work, env, args.seed, args.seconds, bool(args.trace), reps)
        else:
            result = _in_process(args, work, env, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = declared("per_layer" if args.trace else "end_to_end")
    values = result["layers"] if args.trace else result["metrics"]
    if not args.trace:
        attempted = max(1, result["attempted"])
        for name, value, unit, note in result["summary"]:
            print(summary_line(args.workload, name, value, unit, note))
        print(summary_line(args.workload, "error_rate", result["failed"] / attempted, "share",
                           f"{result['failed']} of {result['attempted']} outputs differ or failed"))
        for name, value in values.items():
            print(summary_line(args.workload, name, value, next(
                m["unit"] for m in metrics if m["name"] == name)))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
