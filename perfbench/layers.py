"""The program's layers as the benchmark sees them from outside.

``TARGETS`` names each public entry point the traced run wraps, at the
place its caller resolves the name.  Span names follow the stage list of
the whole path (simulate, trace write/decode, identify, fingerprint,
enrich, analyses, render, serve).  ``MOVES`` maps each per-layer metric
BENCHMARK.json declares to the end-to-end metric and workload it should
move (see README.md).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracing import Measure, Recorder, take_shipped


def _sim_counts(rec: Recorder, span: int, args: tuple, kwargs: dict, result: Any) -> None:
    if not getattr(result, "cache_hit", False):
        rec.count("simulation.packets", len(result.batch))
        rec.count("simulation.campaigns", len(result.campaigns))


def _written_bytes(rec: Recorder, span: int, args: tuple, kwargs: dict, result: Any) -> None:
    path = args[0] if args else kwargs["path"]
    rec.count("telescope.trace.write.bytes", os.path.getsize(path))


def _checkpoint_bytes(rec: Recorder, span: int, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("stream.checkpoint.save.bytes", os.path.getsize(result))


def _cache_lookup(rec: Recorder, span: int, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("exec.cache.lookups", 1)
    if result is not None:
        rec.count("exec.cache.hits", 1)


def _scan_count(rec: Recorder, span: int, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("core.scans", len(result))


def _lint_counts(rec: Recorder, span: int, args: tuple, kwargs: dict, result: Any) -> None:
    stats = result[2]
    rec.count("lint.files", stats.files)
    rec.count("lint.cache_hits", stats.cache_hits)
    rec.count("lint.cache_lookups", stats.cache_hits + stats.cache_misses)


def _report_status(rec: Recorder, span: int, args: tuple, kwargs: dict, result: Any) -> None:
    if result[0] == 200:
        rec.count("serve.scenarios.reports_served", 1)


def _absorb_shards(rec: Recorder, span: int, args: tuple, kwargs: dict, result: Any) -> None:
    # Shards that ran in pool workers shipped their spans back on the
    # ShardRun (see WORKER_ENTRIES); they nest under this run's span.
    for run in result.shards:
        shipped = take_shipped(run)
        if shipped is not None:
            rec.absorb(*shipped, parent=span)


_CRAFTERS = [
    "repro.scanners.zmap:ZMapModel", "repro.scanners.masscan:MasscanModel",
    "repro.scanners.nmap:NMapModel", "repro.scanners.mirai:MiraiModel",
    "repro.scanners.unicorn:UnicornModel", "repro.scanners.custom:CustomToolModel",
]

#: (span name, "module:attribute path", optional counter hook).
TARGETS: List[Tuple[str, str, Optional[Measure]]] = [
    # simulate
    ("simulation.simulate_year", "repro.simulation.world:TelescopeWorld.simulate_year", _sim_counts),
    ("simulation.ports.sample_primary", "repro.simulation.ports:PortSelector.sample_primary", None),
    ("simulation.ports.sample_port_set", "repro.simulation.ports:PortSelector.sample_port_set", None),
    ("simulation.campaigns.synthesize_campaign", "repro.simulation.world:synthesize_campaign", None),
    ("simulation.backscatter", "repro.simulation.world:sample_attacks", None),
    ("simulation.backscatter", "repro.simulation.world:synthesize_backscatter", None),
    *[("scanners.craft", f"{cls}.craft", None) for cls in _CRAFTERS],
    ("telescope.observe", "repro.telescope.sensor:Telescope.observe", None),
    # capture cache and trace write/decode
    ("exec.cache.key_for", "repro.exec.cache:CaptureCache.key_for", None),
    ("exec.cache.store", "repro.exec.cache:CaptureCache.store", None),
    ("exec.cache.load", "repro.exec.cache:CaptureCache.load", _cache_lookup),
    ("telescope.trace.write", "repro.exec.cache:write_trace", _written_bytes),
    ("telescope.trace.read", "repro.exec.cache:read_trace", None),
    ("telescope.trace.read", "repro.stream.source:TraceStreamSource.windows", None),
    # identify, fingerprint, enrich
    ("core.analyze_period", "repro.core.pipeline:analyze_period", None),
    ("core.identify_scans", "repro.core.pipeline:identify_scans", _scan_count),
    ("core.score_sessions", "repro.core.campaigns:score_sessions", None),
    ("core.score_sessions", "repro.stream.incremental:score_sessions", None),
    ("core.fingerprints", "repro.core.fingerprints:ToolFingerprinter.fingerprint_arrays", None),
    ("enrichment.classify_array", "repro.enrichment.classify:ScannerClassifier.classify_array", None),
    ("enrichment.build_default_registry", "repro.enrichment:build_default_registry", None),
    ("enrichment.build_default_registry", "repro.simulation.world:build_default_registry", None),
    ("enrichment.build_default_registry", "repro.stream.report:build_default_registry", None),
    ("enrichment.build_default_registry", "repro.serve.jobs:build_default_registry", None),
    # analyses
    ("core.paper_report", "repro.core.report:paper_report", None),
    ("stream.stream_report", "repro.stream:stream_report", None),
    ("stream.stream_report", "repro.serve.jobs:stream_report", None),
    ("stream.engine.run", "repro.stream.engine:StreamEngine.run", None),
    ("stream.sharded.run", "repro.stream.sharded:ShardedStreamEngine.run", _absorb_shards),
    ("stream.incremental.consume", "repro.stream.incremental:IncrementalScanIdentifier.consume", None),
    ("stream.incremental.finalize", "repro.stream.incremental:IncrementalScanIdentifier.finalize", None),
    ("stream.analyses.consume", "repro.stream.analyses:AnalysisSuite.consume", None),
    ("stream.analyses.finalize", "repro.stream.analyses:AnalysisSuite.finalize", None),
    ("stream.merge_scan_tables", "repro.stream.sharded:merge_scan_tables", None),
    ("stream.checkpoint.save", "repro.stream.checkpoint:CheckpointStore.save", _checkpoint_bytes),
    # render
    ("reporting.render_paper_report", "repro.reporting:render_paper_report", None),
    ("reporting.render_paper_report", "repro.serve.jobs:render_paper_report", None),
    ("reporting.render_paper_report_json", "repro.reporting:render_paper_report_json", None),
    ("reporting.paper_report_to_json", "repro.reporting.tables:paper_report_to_json", None),
    ("reporting.paper_report_to_json", "repro.serve.jobs:paper_report_to_json", None),
    ("reporting.render_report_doc", "repro.reporting.tables:render_report_doc", None),
    ("reporting.render_report_doc", "repro.serve.api:render_report_doc", None),
    # serve
    ("serve.http.get", "repro.serve.api:_Handler.do_GET", None),
    ("serve.http.post", "repro.serve.api:_Handler.do_POST", None),
    ("serve.http.put", "repro.serve.api:_Handler.do_PUT", None),
    ("serve.app.scenario_report", "repro.serve.api:ServeApp.scenario_report", _report_status),
    ("serve.app.submit_job", "repro.serve.api:ServeApp.submit_job", None),
    ("serve.queue.job_key", "repro.serve.queue:JobQueue.job_key", None),
    ("serve.queue.submit", "repro.serve.queue:JobQueue.submit", None),
    ("serve.queue.wait", "repro.serve.queue:JobQueue.wait", None),
    ("serve.scenarios.put", "repro.serve.scenario:ScenarioStore.put", None),
    ("serve.scenarios.cache_derived", "repro.serve.scenario:ScenarioStore.cache_derived", None),
    # lint
    ("lint.analyze_files", "repro.lint.project:analyze_files", _lint_counts),
    ("lint.run_project_rules", "repro.lint.project:run_project_rules", None),
]

#: Pool-worker entry points, as (root span name, target): each is traced in
#: the worker and its spans travel back on the result (``tracing.worker_entry``);
#: the hook of the span that waits for them absorbs them (``_absorb_shards``).
WORKER_ENTRIES: List[Tuple[str, str]] = [
    ("stream.sharded.shard", "repro.stream.sharded:_shard_stream_task"),
]

#: Spans whose self time no layer accounts for (``tracing.attributed_share``):
#: a measured unit's root and the streaming engines' dispatch loops.
GLUE = ("bench.unit", "stream.engine.run", "stream.sharded.run")
#: A traced run fails its output check when layer spans account for less
#: of a traced unit's wall time than this.
ATTRIBUTED_MIN = 0.8

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: BENCHMARK.json declares the metrics (name, unit, better); ``report_s`` and
#: ``rereport_s`` are the shared end-to-end metrics, whose meaning on each
#: workload README.md gives.
MOVES: Dict[str, str] = {
    "cli.import_s": "setup_s @ all",
    "simulation.simulate_year.self_s": "report_s @ cold-report, serve-mix",
    "simulation.ports.sample_primary.calls": "report_s @ cold-report, serve-mix",
    "simulation.ports.sample_primary.busy_s": "report_s @ cold-report, serve-mix",
    "simulation.ports.sample_port_set.busy_s": "report_s @ cold-report, serve-mix",
    "simulation.campaigns.synthesize_campaign.calls": "report_s @ cold-report, serve-mix",
    "simulation.campaigns.synthesize_campaign.busy_s": "report_s @ cold-report, serve-mix",
    "simulation.backscatter.busy_s": "report_s @ cold-report, serve-mix",
    "simulation.packets": "report_s @ cold-report, serve-mix",
    "simulation.campaigns": "report_s @ cold-report, serve-mix",
    "scanners.craft.calls": "report_s @ cold-report",
    "scanners.craft.busy_s": "report_s @ cold-report",
    "telescope.observe.busy_s": "report_s @ cold-report",
    "telescope.trace.write.busy_s": "report_s @ cold-report",
    "telescope.trace.write.bytes": "report_s @ cold-report",
    "telescope.trace.read.busy_s": "report_s, rereport_s @ trace-replay; rereport_s @ cold-report",
    "exec.cache.key_for.calls": "serve_write_p50_ms (printed) @ serve-mix",
    "exec.cache.key_for.busy_s": "serve_write_p50_ms (printed) @ serve-mix",
    "exec.cache.store.busy_s": "report_s @ cold-report",
    "exec.cache.load.busy_s": "rereport_s @ cold-report, serve-mix",
    "exec.cache.hit_ratio": "rereport_s @ serve-mix",
    "core.identify_scans.busy_s": "report_s @ trace-replay, cold-report",
    "core.score_sessions.busy_s": "report_s, rereport_s @ trace-replay",
    "core.fingerprints.busy_s": "report_s @ trace-replay, cold-report",
    "core.paper_report.busy_s": "report_s @ trace-replay, cold-report",
    "core.scans": "report_s @ trace-replay",
    "enrichment.classify_array.busy_s": "report_s, rereport_s @ trace-replay",
    "enrichment.build_default_registry.busy_s": "setup_s @ all",
    "stream.engine.run.self_s": "rereport_s @ trace-replay",
    "stream.sharded.run.self_s": "rereport_s @ trace-replay",
    "stream.sharded.shard.self_s": "rereport_s @ trace-replay",
    "stream.incremental.consume.calls": "rereport_s @ trace-replay",
    "stream.incremental.consume.busy_s": "rereport_s @ trace-replay",
    "stream.incremental.finalize.busy_s": "rereport_s @ trace-replay",
    "stream.analyses.consume.busy_s": "rereport_s @ trace-replay",
    "stream.analyses.finalize.busy_s": "rereport_s @ trace-replay",
    "stream.merge_scan_tables.busy_s": "rereport_s @ trace-replay",
    "stream.checkpoint.save.calls": "report_s @ serve-mix",
    "stream.checkpoint.save.busy_s": "report_s @ serve-mix",
    "stream.checkpoint.save.bytes": "report_s @ serve-mix",
    "stream.windows": "peak_rss_mb @ trace-replay",
    "stream.peak_open_session_bytes": "peak_rss_mb @ trace-replay",
    "stream.analysis_state_bytes": "peak_rss_mb @ trace-replay",
    "stream.sessions_discarded": "peak_rss_mb @ trace-replay",
    "reporting.render_paper_report.busy_s": "report_s @ cold-report",
    "reporting.paper_report_to_json.busy_s": "report_s @ cold-report",
    "reporting.render_report_doc.calls": "rereport_s @ serve-mix",
    "reporting.render_report_doc.busy_s": "rereport_s @ serve-mix",
    "serve.app.scenario_report.busy_s": "rereport_s; serve_read_p99_ms (printed) @ serve-mix",
    "serve.app.submit_job.busy_s": "serve_write_p50_ms, serve_write_p99_ms (printed) @ serve-mix",
    "serve.queue.job_key.busy_s": "serve_write_p50_ms, serve_write_p99_ms (printed) @ serve-mix",
    "serve.queue.submit.busy_s": "serve_write_p50_ms, serve_write_p99_ms (printed) @ serve-mix",
    "serve.scenarios.put.busy_s": "serve_write_p50_ms, serve_write_p99_ms (printed) @ serve-mix",
    "serve.scenarios.cache_derived.busy_s": "serve_write_p50_ms, serve_write_p99_ms (printed) @ serve-mix",
    "serve.queue.dedup_ratio": "serve_sustained_rps (printed) @ serve-mix",
    "serve.scenarios.derived_hit_ratio": "serve_sustained_rps (printed) @ serve-mix",
    "serve.queue_depth.max": "serve_sustained_rps (printed) @ serve-mix",
    "serve.server_cpu_ms_per_request": "serve_sustained_rps (printed) @ serve-mix",
    "serve.queue.wait_s": "report_s @ serve-mix",
    "serve.jobs.execute_job.busy_s": "report_s @ serve-mix",
    "lint.analyze_files.busy_s": "report_s, rereport_s @ lint-tree",
    "lint.run_project_rules.busy_s": "report_s, rereport_s @ lint-tree",
    "lint.cache_hit_ratio": "rereport_s @ lint-tree",
    "lint.files": "report_s @ lint-tree",
    "bench.generator_lateness_ms.p50": "qualifies every serve number",
    "bench.generator_lateness_ms.max": "qualifies every serve number",
    "bench.trace_overhead_s": "traced minus untraced wall of one unit",
    "bench.trace_overhead_share": "traced over untraced wall, minus one",
    "bench.attributed_share": "share of traced wall time inside layer spans (see README.md)",
}

_SPAN_KINDS = ("calls", "busy_s", "self_s")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(names: Sequence[str], summary: Dict[str, Dict[str, float]],
                  counts: Dict[str, float], units: int,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """The value of every per-layer metric in ``names``, per traced unit.

    ``summary`` is :func:`tracing.summarise` over the traced units' spans,
    ``counts`` the recorder's counters and ``extra`` whatever the workload
    measured itself (ratios, stream statistics, ``bench.*``).  A layer the
    workload never enters reads 0.
    """
    units = max(1, units)
    derived = {
        "exec.cache.hit_ratio": _ratio(counts.get("exec.cache.hits", 0.0),
                                       counts.get("exec.cache.lookups", 0.0)),
        "lint.cache_hit_ratio": _ratio(counts.get("lint.cache_hits", 0.0),
                                       counts.get("lint.cache_lookups", 0.0)),
        "serve.queue.wait_s": summary.get("serve.queue.wait", {}).get("busy_s", 0.0) / units,
    }
    out: Dict[str, float] = {}
    for name in names:
        if name in extra:
            out[name] = float(extra[name])
        elif name in derived:
            out[name] = derived[name]
        elif name.rsplit(".", 1)[-1] in _SPAN_KINDS:
            span, kind = name.rsplit(".", 1)
            out[name] = summary.get(span, {}).get(kind, 0.0) / units
        else:
            out[name] = counts.get(name, 0.0) / units
    return out
