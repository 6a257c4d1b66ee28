"""One fresh interpreter of an in-process workload (started by run.py).

``--stage setup`` imports the package, does the workload's set-up, prints
``READY <import seconds>`` and exits; the parent times it from process
start.  ``--stage measure`` sets up without timing, runs measured units
until ``--seconds`` have passed (and at least ``MIN_UNITS``) and prints one
``RESULT <json>`` line.  With ``--trace 1`` units alternate untraced and
traced, so the tracing overhead is measured on the same run.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from common import declared, median, peak_rss_mb

#: An untraced run measures at least this many units, so each end-to-end
#: value is a median of three even when a unit is long (a cold lint).
MIN_UNITS = 3


def _measure(workload, seconds: float, trace: bool) -> dict:
    recorder = None
    if trace:
        from layers import TARGETS, WORKER_ENTRIES
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder, TARGETS, WORKER_ENTRIES)
    units, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(units)
        use_trace = trace and index % 2 == 1
        gc.collect()
        began = time.perf_counter()
        if use_trace:
            recorder.run_id = index
            recorder.enabled = True
            root = recorder.begin("bench.unit")
        try:
            row = workload.unit(index)
        finally:
            if use_trace:
                recorder.end(root)
                recorder.enabled = False
        row["wall_s"] = time.perf_counter() - began
        units.append(row)
        traced.append(use_trace)
        enough = any(traced) if trace else len(units) >= MIN_UNITS
        if enough and time.perf_counter() - start >= seconds:
            break
    out = {"units": units, "traced": traced}
    if trace:
        out["layers"] = _layers(workload, recorder, units, traced)
    return out


def _layers(workload, recorder, units, traced) -> dict:
    from layers import GLUE, layer_metrics
    from tracing import attributed_share, summarise

    spans = recorder.spans()
    plain = [u["wall_s"] for u, t in zip(units, traced) if not t]
    with_trace = [u["wall_s"] for u, t in zip(units, traced) if t]
    extra = {
        "bench.trace_overhead_s": median(with_trace) - median(plain),
        "bench.trace_overhead_share": median(with_trace) / median(plain) - 1.0,
        "bench.attributed_share": attributed_share(spans, GLUE),
    }
    if hasattr(workload, "stream_extra"):
        extra.update(workload.stream_extra())
    return layer_metrics([m["name"] for m in declared("per_layer")], summarise(spans),
                         dict(recorder.counts), len(with_trace), extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stage", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    import repro.cli  # noqa: F401 - every set-up starts with the package import

    import_s = time.perf_counter() - began
    from workloads import IN_PROCESS

    workload = IN_PROCESS[args.workload](args.dir, args.seed)
    if args.stage == "setup":
        workload.setup()
        print(f"READY {import_s}", flush=True)
        return 0
    workload.open()
    result = _measure(workload, args.seconds, bool(args.trace))
    checks = []
    if args.trace:
        from layers import ATTRIBUTED_MIN

        # Layer spans must account for the traced units' wall time.
        checks.append(result["layers"]["bench.attributed_share"] >= ATTRIBUTED_MIN)
    result.update(
        attempted=workload.attempted + len(checks),
        failed=workload.failures + checks.count(False),
        peak_rss_mb=peak_rss_mb(),
        summary=workload.summary({
            key: median([u[key] for u, t in zip(result["units"], result["traced"]) if not t])
            for key in ("report_s", "rereport_s")
        }),
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
