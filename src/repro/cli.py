"""Command-line interface.

The subcommands cover the simulate → capture → analyse → report loop::

    repro-scan simulate --year 2020 --out capture.rtrace [--pcap capture.pcap]
    repro-scan analyze capture.rtrace
    repro-scan stream capture.rtrace --checkpoint-dir .stream-ckpt
    repro-scan report --years 2015,2020,2024
    repro-scan fingerprint capture.rtrace
    repro-scan cache ls --cache-dir .capture-cache
    repro-scan serve --port 8752 --workers 4

Captures produced by ``simulate`` carry their period metadata, so
``analyze`` needs no extra flags; externally produced pcap files can be
analysed with explicit ``--year``/``--days``.  The synthetic Internet
registry is deterministic, so enrichment works identically across
processes.

Every subcommand that simulates or reads captures accepts ``--cache-dir``
(a capture argument may then name a cache entry by its content key).
``analyze``, ``fingerprint`` and ``anonymize`` read the whole capture;
``stream`` reads it in windows of ``--batch-size`` packets and runs its
shards over ``--workers`` processes, as ``report`` and ``validate`` run
their years.

Each subcommand imports the stack it runs; at module level this file
imports only the standard library and the package root's constants.  So
``--help`` and ``cache`` load no NumPy, ``simulate`` loads no analysis,
streaming, reporting, serve or lint module (and, without ``--cache-dir``,
no process-pool module), and ``report`` and ``validate`` load no
streaming module.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro import ALL_YEARS, DEFAULT_BATCH_SIZE, __version__


class _GracefulStop:
    """SIGINT/SIGTERM as a polled flag instead of an exception.

    Installing replaces both handlers with one that only records which
    signal arrived (and fires an optional callback); long-running commands
    poll :meth:`stop` at safe boundaries — a checkpointed window, an HTTP
    accept loop — flush their state, and exit 0.  Handlers can only be set
    on the main thread; elsewhere (pytest workers calling ``main()``)
    install is a no-op and ``stop`` stays permanently False.  ``restore``
    puts the previous handlers back, so nothing leaks across calls.
    """

    _SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self, on_signal: Optional[Callable[[], None]] = None):
        self.signal_name: Optional[str] = None
        self._on_signal = on_signal
        self._previous: dict = {}

    def install(self) -> "_GracefulStop":
        if threading.current_thread() is not threading.main_thread():
            return self
        for signum in self._SIGNALS:
            self._previous[signum] = signal.signal(signum, self._handle)
        return self

    def _handle(self, signum, frame) -> None:
        self.signal_name = signal.Signals(signum).name
        if self._on_signal is not None:
            self._on_signal()

    def stop(self) -> bool:
        return self.signal_name is not None

    def restore(self) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()


def _parse_size(text: str) -> int:
    """Parse a byte budget like ``750K``, ``64M``, ``2G`` or ``1048576``."""
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    raw = text.strip().upper()
    multiplier = 1
    if raw and raw[-1] in units:
        multiplier = units[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * multiplier)
    except (ValueError, OverflowError):  # not a number, NaN or infinite
        raise ValueError(f"malformed size {text!r} (expected e.g. 64M, 2G)")
    if value < 0:
        raise ValueError(f"size must be >= 0, got {text!r}")
    return value


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    """``--cache-dir``, which every capture-touching subcommand takes."""
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="content-addressed capture cache directory")


def _add_worker_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of the subcommands that simulate over a year pool."""
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for simulation (0 = serial)")
    _add_cache_flag(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scan",
        description="Reproduction toolkit for 'Have you SYN me?' (IMC 2024)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic telescope capture")
    sim.add_argument("--year", type=int, default=2020, choices=ALL_YEARS)
    sim.add_argument("--days", type=int, default=14)
    sim.add_argument("--max-packets", type=int, default=300_000)
    sim.add_argument("--min-scans", type=int, default=600)
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--out", type=Path, required=True,
                     help="output .rtrace path")
    sim.add_argument("--pcap", type=Path, default=None,
                     help="also write a pcap copy (tcpdump/Wireshark)")
    _add_cache_flag(sim)

    ana = sub.add_parser("analyze", help="run the full pipeline over a capture")
    ana.add_argument("capture", type=Path, help=".rtrace/.pcap file or cache key")
    ana.add_argument("--year", type=int, default=None,
                     help="override the capture's year metadata")
    ana.add_argument("--days", type=int, default=None,
                     help="override the capture's period length")
    ana.add_argument("--report", action="store_true",
                     help="print the combined paper report (trends, "
                          "volatility, recurrence, churn) instead of the "
                          "Table 1/2 summary")
    ana.add_argument("--json", action="store_true",
                     help="with --report: emit the machine-readable JSON "
                          "report instead of the text tables")
    _add_cache_flag(ana)

    stm = sub.add_parser(
        "stream",
        help="bounded-memory streaming scan identification with checkpoints",
    )
    stm.add_argument("capture", type=Path, help=".rtrace/.pcap file or cache key")
    stm.add_argument("--checkpoint-dir", type=Path, default=None,
                     help="durable checkpoint directory (enables resume)")
    stm.add_argument("--checkpoint-every", type=int, default=8,
                     help="windows between checkpoint saves")
    stm.add_argument("--progress-every", type=int, default=0,
                     help="print a progress line every N windows (0 = off)")
    stm.add_argument("--stats-json", type=Path, default=None,
                     help="write the final stream stats as JSON")
    stm.add_argument("--tolerate-truncation", action="store_true",
                     help="accept a capture cut before its end marker, "
                          "reading its complete chunks")
    stm.add_argument("--shards", type=int, default=1,
                     help="source-hash shards; >1 splits the identifier "
                          "state by hash(src_ip) %% N with bit-identical "
                          "output (--workers then runs shards in parallel)")
    stm.add_argument("--report", action="store_true",
                     help="run the incremental analyses alongside the "
                          "identifier and print the combined paper report "
                          "(equal to 'analyze --report', in one bounded-"
                          "memory pass)")
    stm.add_argument("--json", action="store_true",
                     help="with --report: emit the machine-readable JSON "
                          "report instead of the text tables")
    stm.add_argument("--year", type=int, default=None,
                     help="override the capture's year metadata (--report)")
    stm.add_argument("--days", type=int, default=None,
                     help="override the capture's period length (--report)")
    stm.add_argument("--workers", type=int, default=0,
                     help="worker processes running the shards "
                          "(0 = one after another in this process)")
    _add_cache_flag(stm)
    stm.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                     help="streaming-reader window size in packets "
                          f"(default {DEFAULT_BATCH_SIZE:,})")

    rep = sub.add_parser("report", help="simulate years and print Table 1")
    rep.add_argument("--years", type=str, default="2015,2020,2024",
                     help="comma-separated study years")
    rep.add_argument("--days", type=int, default=14)
    rep.add_argument("--max-packets", type=int, default=250_000)
    rep.add_argument("--seed", type=int, default=7)
    _add_worker_flags(rep)

    fpr = sub.add_parser("fingerprint", help="per-tool attribution of a capture")
    fpr.add_argument("capture", type=Path, help=".rtrace/.pcap file or cache key")
    _add_cache_flag(fpr)

    val = sub.add_parser(
        "validate",
        help="simulate a mini decade and print the paper-claim scorecard",
    )
    val.add_argument("--days", type=int, default=10)
    val.add_argument("--max-packets", type=int, default=100_000)
    val.add_argument("--seed", type=int, default=7)
    val.add_argument("--years", type=str, default="2015,2017,2020,2022,2024")
    _add_worker_flags(val)

    anon = sub.add_parser(
        "anonymize",
        help="prefix-preserving source-address anonymisation of a capture",
    )
    anon.add_argument("capture", type=Path, help=".rtrace file or cache key")
    anon.add_argument("--out", type=Path, required=True)
    anon.add_argument("--key", type=int, required=True,
                      help="64-bit anonymisation key")
    anon.add_argument("--both-sides", action="store_true",
                      help="also anonymise destination addresses")
    _add_cache_flag(anon)

    cch = sub.add_parser("cache", help="inspect and prune the capture cache")
    cch_sub = cch.add_subparsers(dest="cache_command", required=True)
    cls = cch_sub.add_parser(
        "ls", help="list orphaned temp files, then cached captures LRU first")
    cls.add_argument("--cache-dir", type=Path, required=True)
    cpr = cch_sub.add_parser(
        "prune",
        help="delete orphaned temp files, then evict least-recently-used "
             "captures until the cache fits",
    )
    cpr.add_argument("--cache-dir", type=Path, required=True)
    cpr.add_argument("--max-bytes", type=str, required=True,
                     help="retained-size budget (e.g. 64M, 2G, 0)")

    srv = sub.add_parser(
        "serve",
        help="run the long-lived analysis service (HTTP API + SSE stats)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8752)
    srv.add_argument("--workers", type=int, default=2,
                     help="job worker processes")
    srv.add_argument("--cache-dir", type=Path, default=None,
                     help="capture cache directory "
                          "(default <state-dir>/captures)")
    srv.add_argument("--state-dir", type=Path, default=Path(".repro-serve"),
                     help="job records, checkpoints and scenarios")
    srv.add_argument("--max-retries", type=int, default=1,
                     help="extra attempts when a worker process dies")
    srv.add_argument("--stats-interval", type=float, default=1.0,
                     help="default /stats/live event cadence in seconds")
    srv.add_argument("--verbose", action="store_true",
                     help="log every HTTP request to stderr")

    return parser


def _make_cache(args: argparse.Namespace):
    """Build the capture cache named by ``--cache-dir`` (or ``None``)."""
    if getattr(args, "cache_dir", None) is None:
        return None
    from repro.exec import CaptureCache

    return CaptureCache(args.cache_dir)


def _resolve_capture(args: argparse.Namespace) -> Path:
    """Resolve a capture argument to a file, via the cache when needed.

    A capture argument that is not an existing file is looked up in
    ``--cache-dir`` as a content key (``repro-scan report --cache-dir X``
    leaves its captures there), so analyses can be re-run straight off the
    cache without knowing the file layout.
    """
    path: Path = args.capture
    if path.exists():
        return path
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        candidate = Path(cache_dir) / f"{path.name}.rtrace"
        if candidate.exists():
            return candidate
    raise FileNotFoundError(
        f"capture {path} not found"
        + (f" (also looked in cache {cache_dir})" if cache_dir else "")
    )


def _capture_source(args: argparse.Namespace, strict: bool):
    """Build ``stream``'s windowed source for its capture argument."""
    from repro.stream import BatchStreamSource, TraceStreamSource
    from repro.telescope import read_pcap

    path = _resolve_capture(args)
    if path.suffix == ".pcap":
        return BatchStreamSource(read_pcap(path), batch_size=args.batch_size)
    return TraceStreamSource(path, batch_size=args.batch_size, strict=strict)


def _load_capture(args: argparse.Namespace):
    """Read a whole capture and its metadata (a pcap carries none)."""
    from repro.telescope import read_pcap, read_trace

    path = _resolve_capture(args)
    if path.suffix == ".pcap":
        return read_pcap(path), {}
    return read_trace(path)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation import TelescopeWorld
    from repro.telescope import write_pcap, write_trace

    world = TelescopeWorld(rng=args.seed)
    cache = _make_cache(args)
    try:
        sim = world.simulate_year(
            args.year, days=args.days, max_packets=args.max_packets,
            min_scans=args.min_scans, cache=cache,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cache is not None:
        print(cache.stats_line(), file=sys.stderr)
    meta = {
        "year": sim.year,
        "days": sim.days,
        "packet_scale": sim.packet_scale,
        "scan_scale": sim.scan_scale,
        "seed": args.seed,
    }
    write_trace(args.out, sim.batch, meta=meta)
    print(f"wrote {len(sim.batch):,} packets to {args.out}")
    if args.pcap is not None:
        write_pcap(args.pcap, sim.batch)
        print(f"wrote pcap copy to {args.pcap}")
    print(f"ground truth: {len(sim.campaigns):,} campaigns, "
          f"{sim.background_sources:,} background sources, "
          f"SYN share {sim.syn_scan_share():.1%}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.json and not args.report:
        print("error: --json requires --report", file=sys.stderr)
        return 2
    from repro.core import (analyze_period, known_scanner_share,
                            single_source_bias, summarize_period, type_shares)
    from repro.core.report import paper_report
    from repro.enrichment import ScannerClassifier, build_default_registry
    from repro.reporting import (render_paper_report,
                                 render_paper_report_json, render_table1,
                                 render_table2)
    from repro.stream import analysis_period

    try:
        batch, meta = _load_capture(args)
        period = analysis_period(meta, args.year, args.days)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    classifier = ScannerClassifier(build_default_registry())
    analysis = analyze_period(batch, year=period.year, days=period.days,
                              classifier=classifier)
    if args.report:
        # Report only on stdout — 'stream --report' promises byte-equal
        # output, so CI can diff the two commands directly (text and JSON).
        report = paper_report(analysis)
        print(render_paper_report_json(report) if args.json
              else render_paper_report(report))
        return 0
    summary = summarize_period(analysis)
    print(render_table1({period.year: summary}))
    print()
    print(render_table2(type_shares(analysis)))
    share = known_scanner_share(analysis)
    print(f"\nknown scanners: {share.organisations} orgs, "
          f"{share.source_share:.2%} of sources, "
          f"{share.packet_share:.1%} of packets")
    bias = single_source_bias(analysis.study_scans)
    print(f"single-source counting inflation: {bias.inflation_factor:.2f}x "
          f"({bias.collaborative_campaigns} collaborative campaigns)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        years = [int(y) for y in args.years.split(",") if y.strip()]
    except ValueError:
        print(f"error: malformed --years {args.years!r}", file=sys.stderr)
        return 2
    bad = [y for y in years if y not in ALL_YEARS]
    if bad or not years:
        print(f"error: years outside the study range: {bad}", file=sys.stderr)
        return 2
    from repro._files import format_bytes, peak_rss_bytes
    from repro.core import analyze_simulation, summarize_period
    from repro.reporting import render_table1
    from repro.simulation import TelescopeWorld

    world = TelescopeWorld(rng=args.seed)
    cache = _make_cache(args)
    try:
        sims = world.simulate_years(
            years, days=args.days, max_packets=args.max_packets,
            workers=args.workers, cache=cache,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summaries = {}
    for year in years:
        sim = sims[year]
        summaries[year] = summarize_period(analyze_simulation(sim))
        origin = "cached" if sim.cache_hit else "simulated"
        print(f"{year}: {origin} {len(sim.batch):,} packets", file=sys.stderr)
    if cache is not None:
        print(cache.stats_line(), file=sys.stderr)
    print(render_table1(
        summaries, scale_note="(simulation scale; volumes not projected)"
    ))
    print(f"peak RSS {format_bytes(peak_rss_bytes())}", file=sys.stderr)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """``stream``: one engine run, at any shard and worker count.

    With ``--report`` the incremental analyses ride along and only the
    paper report goes to stdout (progress, stats and scan counts go to
    stderr), so its output is byte-diffable against ``analyze --report``.
    SIGINT/SIGTERM end an in-process run (``--workers 0``) gracefully at a
    window boundary; with worker processes no handler is installed, and the
    per-shard checkpoints already written still resume.
    """
    if args.json and not args.report:
        print("error: --json requires --report", file=sys.stderr)
        return 2
    from repro.reporting import render_paper_report, render_paper_report_json
    from repro.stream import (StreamConfig, StreamEngine, analysis_period,
                              finish_report, format_bytes)

    try:
        config = StreamConfig(
            batch_size=args.batch_size,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            strict=not args.tolerate_truncation,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2

    progress = None
    if args.progress_every > 0 and args.workers == 0:
        every = args.progress_every

        def progress(shard, stats):
            if stats.windows % every == 0:
                print(f"shard {shard}: {stats.progress_line()}",
                      file=sys.stderr)

    stopper = _GracefulStop()
    stop = None
    if args.workers == 0:
        # Only the in-process loop can poll a stop flag; with worker
        # processes a signal ends the run the default way.
        stopper.install()
        stop = stopper.stop
    try:
        # Opening the capture checks its whole chunk directory, so a
        # damaged file fails here as one ``error:`` line.
        source = _capture_source(args, strict=config.strict)
        engine = StreamEngine(
            config=config, n_shards=args.shards, workers=args.workers,
            analyses=(analysis_period(source.meta, args.year, args.days)
                      if args.report else None),
        )
        result = engine.run(source, progress=progress, stop=stop)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        stopper.restore()

    out = sys.stderr if args.report else sys.stdout
    if result.resumed:
        print(f"resumed from checkpoint past "
              f"{result.stats.resumed_packets:,} packets", file=sys.stderr)
    if result.truncated_source:
        print(f"note: capture was truncated; read only its complete chunks "
              f"({result.stats.packets:,} packets)", file=sys.stderr)
    for run in result.shards:
        print(f"shard {run.shard}: {run.stats.summary_line()}",
              file=sys.stderr)
    print(result.stats.summary_line(), file=out)
    table = result.scans
    print(f"identified {len(table):,} scan(s), "
          f"{int(table.packets.sum()):,} scan packets, "
          f"{result.stats.sessions_discarded:,} session(s) below criteria",
          file=out)
    if args.report:
        print(f"analysis state "
              f"{format_bytes(result.stats.analysis_state_bytes)}",
              file=sys.stderr)
    for path in result.checkpoint_paths:
        print(f"checkpoint: {path}", file=sys.stderr)
    if result.interrupted:
        # A partial report would silently break the byte-parity promise
        # with 'analyze --report'; flush the checkpoint and say so instead.
        where = (", ".join(map(str, result.checkpoint_paths))
                 or "(no --checkpoint-dir; progress not saved)")
        print(f"interrupted by {stopper.signal_name}; checkpoint flushed — "
              f"resumable from {where}", file=sys.stderr)
    elif args.report:
        report = finish_report(result).report
        print(render_paper_report_json(report) if args.json
              else render_paper_report(report))
    if args.stats_json is not None:
        import json

        args.stats_json.write_text(json.dumps(result.stats.to_dict(), indent=2))
        print(f"stats written to {args.stats_json}", file=sys.stderr)
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.fingerprints import ToolFingerprinter

    try:
        batch, meta = _load_capture(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(batch) == 0:
        print("capture is empty", file=sys.stderr)
        return 1
    tools = ToolFingerprinter().per_packet_tool(batch)
    total = len(batch)
    print(f"{total:,} packets")
    values, counts = np.unique([str(t) for t in tools], return_counts=True)
    for value, count in sorted(zip(values, counts), key=lambda kv: -kv[1]):
        print(f"  {value:10s} {count / total:6.1%}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        years = [int(y) for y in args.years.split(",") if y.strip()]
    except ValueError:
        print(f"error: malformed --years {args.years!r}", file=sys.stderr)
        return 2
    bad = [y for y in years if y not in ALL_YEARS]
    if bad or not years:
        print(f"error: years outside the study range: {bad}", file=sys.stderr)
        return 2
    from repro._files import format_bytes, peak_rss_bytes
    from repro.core import analyze_simulation
    from repro.reporting import render_scorecard, validate_reproduction
    from repro.simulation import TelescopeWorld

    world = TelescopeWorld(rng=args.seed)
    cache = _make_cache(args)
    print(f"simulating {len(years)} year(s) "
          f"(workers={args.workers}) ...", file=sys.stderr)
    try:
        sims = world.simulate_years(
            years, days=args.days, max_packets=args.max_packets, min_scans=400,
            workers=args.workers, cache=cache,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    analyses = {year: analyze_simulation(sims[year]) for year in years}
    if cache is not None:
        print(cache.stats_line(), file=sys.stderr)
    checks = validate_reproduction(analyses, sims)
    print(render_scorecard(checks))
    print(f"peak RSS {format_bytes(peak_rss_bytes())}", file=sys.stderr)
    return 0 if all(c.passed for c in checks) else 1


#: The metadata ``anonymize`` carries over: scalars that describe the
#: period.  Anything else (a capture-cache entry's ground-truth campaign
#: columns, say) may name raw addresses, so it is dropped.
_ANONYMIZED_META_KEYS = ("year", "days", "packet_scale", "scan_scale", "seed")


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from repro.telescope import PrefixPreservingAnonymizer, write_trace

    try:
        batch, meta = _load_capture(args)
        anonymizer = PrefixPreservingAnonymizer(args.key)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = anonymizer.anonymize_batch(batch, sources_only=not args.both_sides)
    meta = {k: meta[k] for k in _ANONYMIZED_META_KEYS if k in meta}
    meta["anonymized"] = True
    write_trace(args.out, out, meta=meta)
    print(f"wrote {len(out):,} anonymised packets to {args.out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro._files import CaptureDirectory, format_bytes

    cache = CaptureDirectory(args.cache_dir)
    if args.cache_command == "ls":
        entries = cache.usage()
        orphans = sum(entry.orphan for entry in entries)
        for entry in entries:
            note = "  (orphaned temp file)" if entry.orphan else ""
            print(f"{entry.key}  {format_bytes(entry.bytes):>10}  "
                  f"{entry.path}{note}")
        print(f"{len(entries) - orphans} entr(y/ies), {orphans} orphaned "
              f"temp file(s), {format_bytes(sum(e.bytes for e in entries))} "
              "total", file=sys.stderr)
        return 0
    try:
        budget = _parse_size(args.max_bytes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    removed = cache.prune(budget)
    for entry in removed:
        note = "  (orphaned temp file)" if entry.orphan else ""
        print(f"evicted {entry.key}  {format_bytes(entry.bytes)}{note}")
    print(f"{len(removed)} evicted; "
          f"{format_bytes(cache.total_bytes())} retained", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import create_server

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        server = create_server(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            state_dir=args.state_dir,
            workers=args.workers,
            max_retries=args.max_retries,
            stats_interval=args.stats_interval,
            verbose=args.verbose,
        )
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2

    def _shutdown() -> None:
        # serve_forever() runs on this (main) thread; shutdown() blocks
        # until the loop exits, so it must run on a helper thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    stopper = _GracefulStop(on_signal=_shutdown).install()
    host, port = server.server_address[:2]
    jobs = server.app.queue.stats()["jobs"]
    print(f"repro-serve listening on http://{host}:{port} "
          f"(workers={args.workers}, state={args.state_dir}, "
          f"{jobs['total']} job record(s) restored)", file=sys.stderr)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        stopper.restore()
        server.app.close()
        server.server_close()
    print(f"stopped by {stopper.signal_name or 'shutdown'}; job records "
          f"flushed — resumable from {args.state_dir}", file=sys.stderr)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "stream": _cmd_stream,
    "report": _cmd_report,
    "fingerprint": _cmd_fingerprint,
    "anonymize": _cmd_anonymize,
    "validate": _cmd_validate,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
