"""Performance benchmarks of the library itself.

Unlike the table/figure benchmarks (which compare against the paper), these
measure throughput of the hot paths so regressions in the pipeline's own
speed are visible: package start-up, packet-batch operations, campaign
identification, fingerprinting, enrichment lookups, trace serialisation and
anonymisation.  Multiple rounds; pytest-benchmark reports the distribution.
"""

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BENCH_DAYS, BENCH_MAX_PACKETS, BENCH_SEED
from repro.core.campaigns import identify_scans
from repro.core.fingerprints import ToolFingerprinter
from repro.enrichment import ScannerClassifier
from repro.exec import CaptureCache
from repro.simulation import TelescopeWorld
from repro.stream import (
    BatchStreamSource,
    StreamConfig,
    StreamEngine,
    TraceStreamSource,
)
from repro.telescope import (
    PrefixPreservingAnonymizer,
    read_trace,
    write_trace,
)


@pytest.fixture(scope="module")
def perf_batch(sims):
    """A ~300k-packet capture shared by the throughput benchmarks."""
    return sims[2020].batch


def timed(fn, times):
    """``fn``, appending each call's wall time to ``times``.

    Benches that assert on their own timings read these rather than
    ``benchmark.stats``, which is None under ``--benchmark-disable``.
    """
    def run():
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
        return out
    return run


def test_perf_cli_import(benchmark):
    """A fresh interpreter importing ``repro.cli``: the start-up every CLI
    call, ``serve`` worker and benchmark child pays before any work.

    The warm-up round writes the bytecode.  Each child prints its own peak
    RSS (``RUSAGE_CHILDREN`` here would also count earlier pool workers).
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    child = ("import repro.cli\n"
             "from repro.stream import peak_rss_bytes\n"
             "print(peak_rss_bytes())")
    peaks = []

    def start():
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, check=True)
        peaks.append(int(proc.stdout))

    benchmark.pedantic(start, rounds=7, iterations=1, warmup_rounds=1)
    benchmark.extra_info["peak_rss_bytes"] = max(peaks)


def test_perf_simulate_year(benchmark):
    """One calibrated period from parameters on a fresh world, no cache:
    the stage that dominates a cold report."""
    result = benchmark.pedantic(
        lambda: TelescopeWorld(rng=BENCH_SEED).simulate_year(
            2024, days=BENCH_DAYS, max_packets=BENCH_MAX_PACKETS
        ),
        rounds=3, iterations=1,
    )
    benchmark.extra_info["packets"] = len(result.batch)
    benchmark.extra_info["campaigns"] = len(result.campaigns)
    assert not result.cache_hit


def test_perf_capture_cache(benchmark, tmp_path):
    """``CaptureCache.store`` then ``load`` of one cold-report period (2024,
    7 days, 100k packets, 300 min scans, world seed 7): the ``.rtrace``
    write and checked read, and the ground-truth campaign columns."""
    world = TelescopeWorld(rng=7)
    budget = dict(days=7, max_packets=100_000, min_scans=300)
    result = world.simulate_year(2024, **budget)
    cache = CaptureCache(tmp_path / "cache")
    key = cache.key_for(world, 2024, **budget)

    def round_trip():
        cache.store(key, result)
        return cache.load(key, world)

    loaded = benchmark.pedantic(round_trip, rounds=5, iterations=1,
                                warmup_rounds=1)
    assert loaded.cache_hit and loaded.campaigns == result.campaigns
    benchmark.extra_info["campaigns"] = len(result.campaigns)
    benchmark.extra_info["entry_bytes"] = cache.path_for(key).stat().st_size


def test_perf_identify_scans(perf_batch, benchmark):
    """Campaign identification over a full capture (§3.4 hot path)."""
    result = benchmark.pedantic(
        lambda: identify_scans(perf_batch), rounds=3, iterations=1
    )
    assert len(result) > 100


def test_perf_stream_identify(perf_batch, benchmark):
    """Streaming campaign identification (repro.stream) at 64k windows.

    The run's throughput and peak RSS land in ``benchmark.extra_info`` so
    ``perf_report.py`` can publish them next to the batch numbers.
    """
    engine = StreamEngine(config=StreamConfig(batch_size=65_536))
    holder = {}

    def work():
        result = engine.run(BatchStreamSource(perf_batch, batch_size=65_536))
        holder["stats"] = result.stats
        return result.scans

    table = benchmark.pedantic(work, rounds=3, iterations=1)
    stats = holder["stats"]
    benchmark.extra_info["packets"] = stats.packets
    benchmark.extra_info["stream_packets_per_s"] = round(stats.packets_per_s)
    benchmark.extra_info["peak_rss_bytes"] = stats.peak_rss_bytes
    benchmark.extra_info["peak_open_session_bytes"] = (
        stats.peak_open_session_bytes
    )
    assert stats.peak_open_session_bytes > 0
    assert len(table) > 100


def test_perf_stream_identify_small_windows(perf_batch, benchmark):
    """Streaming campaign identification at 4,096-packet windows.

    Every window re-sorts the packets of the sessions still open from the
    windows before it, so small windows are where that carry costs most.
    """
    engine = StreamEngine(config=StreamConfig(batch_size=4096))
    holder = {}

    def work():
        result = engine.run(BatchStreamSource(perf_batch, batch_size=4096))
        holder["stats"] = result.stats
        return result.scans

    table = benchmark.pedantic(work, rounds=3, iterations=1)
    stats = holder["stats"]
    benchmark.extra_info["packets"] = stats.packets
    benchmark.extra_info["stream_packets_per_s"] = round(stats.packets_per_s)
    benchmark.extra_info["peak_open_session_bytes"] = (
        stats.peak_open_session_bytes
    )
    assert len(table) > 100


def test_perf_stream_report(perf_batch, sims, benchmark):
    """The one-pass streaming paper report (identification + incremental
    analyses), the path 'repro-scan stream --report' exercises.

    Records the analysis accumulators' state footprint next to throughput:
    the analyses must stay a bounded add-on, not a second copy of the
    capture.
    """
    from repro.stream import stream_report

    sim = sims[2020]
    classifier = ScannerClassifier(sim.registry)
    holder = {}

    def work():
        result = stream_report(
            BatchStreamSource(perf_batch, batch_size=65_536),
            year=sim.year, days=sim.days,
            batch_size=65_536, classifier=classifier,
        )
        holder["result"] = result
        return result.report

    report = benchmark.pedantic(work, rounds=3, iterations=1)
    stats = holder["result"].stats
    benchmark.extra_info["packets"] = stats.packets
    benchmark.extra_info["stream_packets_per_s"] = round(stats.packets_per_s)
    benchmark.extra_info["analysis_state_bytes"] = stats.analysis_state_bytes
    assert report.scans > 100
    assert 0 < stats.analysis_state_bytes < perf_batch.memory_bytes()


def test_perf_stream_report_small_windows(perf_batch, sims, benchmark):
    """The streaming paper report at 4,096-packet windows.

    The analysis suite reduces every window on its own (study mask, day
    index, one sort into distinct (source, day) pairs) and folds it into
    its tallies, so small windows are where that per-window pass costs
    most.
    """
    from repro.stream import stream_report

    sim = sims[2020]
    classifier = ScannerClassifier(sim.registry)
    holder = {}

    def work():
        result = stream_report(
            BatchStreamSource(perf_batch, batch_size=4096),
            year=sim.year, days=sim.days,
            batch_size=4096, classifier=classifier,
        )
        holder["result"] = result
        return result.report

    report = benchmark.pedantic(work, rounds=3, iterations=1)
    stats = holder["result"].stats
    benchmark.extra_info["packets"] = stats.packets
    benchmark.extra_info["stream_packets_per_s"] = round(stats.packets_per_s)
    assert report.scans > 100


def test_perf_stream_sharded(perf_batch, benchmark, tmp_path):
    """Source-sharded parallel streaming over a memory-mapped trace.

    Times the 4-shard configuration (workers capped at the machine's core
    count) and records the 1-shard reference next to it, so the report
    shows the scaling factor alongside per-shard peak RSS.  The >= 1.7x
    1 -> 4 shard scaling assertion only fires on machines with at least 4
    cores — below that, process-pool parallelism cannot express it and the
    run asserts correctness (bit-identical merge) only.
    """
    path = tmp_path / "sharded.rtrace"
    write_trace(path, perf_batch, meta={"year": 2020})
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        cores = os.cpu_count() or 1
    shards = 4
    workers = min(shards, cores)

    def source():
        return TraceStreamSource(path, batch_size=65_536)

    base_engine = StreamEngine(config=StreamConfig(batch_size=65_536))
    started = time.perf_counter()
    base = base_engine.run(source())
    base_s = time.perf_counter() - started

    holder = {}

    def work():
        engine = StreamEngine(
            config=StreamConfig(batch_size=65_536),
            n_shards=shards, workers=workers,
        )
        result = engine.run(source())
        holder["result"] = result
        return result.scans

    times = []
    table = benchmark.pedantic(timed(work, times), rounds=3, iterations=1)
    result = holder["result"]
    sharded_s = max(statistics.median(times), 1e-9)
    scaling = base_s / sharded_s
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["packets"] = result.stats.packets
    benchmark.extra_info["stream_packets_per_s"] = round(
        result.stats.packets / sharded_s
    )
    benchmark.extra_info["serial_packets_per_s"] = round(
        result.stats.packets / base_s
    )
    benchmark.extra_info["scaling_1_to_4"] = round(scaling, 2)
    benchmark.extra_info["peak_shard_rss_bytes"] = max(
        run.stats.peak_rss_bytes for run in result.shards
    )
    benchmark.extra_info["peak_shard_open_session_bytes"] = max(
        run.stats.peak_open_session_bytes for run in result.shards
    )
    assert len(table) == len(base.scans)
    assert np.array_equal(table.src_ip, base.scans.src_ip)
    assert np.array_equal(table.start, base.scans.start)
    if cores >= 4:
        assert scaling >= 1.7, (
            f"4-shard streaming only {scaling:.2f}x over 1 shard "
            f"({sharded_s:.3f}s vs {base_s:.3f}s on {cores} cores)"
        )


def test_perf_per_packet_fingerprint(perf_batch, benchmark):
    """Vectorised per-packet tool attribution."""
    fingerprinter = ToolFingerprinter()
    tools = benchmark(lambda: fingerprinter.per_packet_tool(perf_batch))
    assert tools.size == len(perf_batch)


def test_perf_enrichment_lookup(perf_batch, sims, benchmark):
    """Registry country lookup over every packet source."""
    classifier = ScannerClassifier(sims[2020].registry)
    countries = benchmark(
        lambda: classifier.registry.country_of(perf_batch.src_ip)
    )
    assert countries.size == len(perf_batch)


def test_perf_batch_sort_and_filter(perf_batch, benchmark):
    """Core column-store transformations."""

    def work():
        ordered = perf_batch.sorted_by_time()
        return ordered.where(ordered.dst_port == 80)

    out = benchmark(work)
    assert len(out) >= 0


def test_perf_trace_roundtrip(perf_batch, benchmark, tmp_path):
    """.rtrace serialisation round trip."""
    path = tmp_path / "perf.rtrace"

    def work():
        write_trace(path, perf_batch, meta={"year": 2020})
        loaded, _ = read_trace(path)
        return loaded

    loaded = benchmark.pedantic(work, rounds=3, iterations=1)
    assert len(loaded) == len(perf_batch)


def test_perf_anonymize(perf_batch, benchmark):
    """Prefix-preserving anonymisation (32 PRF rounds per address)."""
    anonymizer = PrefixPreservingAnonymizer(7)
    out = benchmark.pedantic(
        lambda: anonymizer.anonymize(perf_batch.src_ip), rounds=3, iterations=1
    )
    assert out.size == len(perf_batch)


def test_perf_lint(benchmark, tmp_path):
    """Whole-program lint of src/repro: cold vs summary-cache-warm.

    The timed figure is the warm run (what a developer iterating on one
    file pays); the cold time and the resulting speedup land in
    ``benchmark.extra_info``. The project pass is only worth its cache
    if warm runs skip essentially all parsing, so the speedup is pinned
    at >= 3x.
    """
    from repro.lint.config import load_config
    from repro.lint.project import lint_repository

    repo_root = Path(__file__).resolve().parent.parent
    config = load_config(repo_root / "pyproject.toml")
    targets = [repo_root / "src" / "repro"]
    cache_dir = tmp_path / "lint-cache"

    start = time.perf_counter()
    cold_diags, _, cold_stats = lint_repository(
        config, paths=targets, cache_dir=cache_dir, use_cache=True
    )
    cold_s = time.perf_counter() - start
    assert cold_stats.cache_hits == 0

    def warm():
        diags, _, stats = lint_repository(
            config, paths=targets, cache_dir=cache_dir, use_cache=True
        )
        assert stats.cache_misses == 0
        return diags

    times = []
    warm_diags = benchmark.pedantic(timed(warm, times), rounds=3, iterations=1)
    assert warm_diags == cold_diags

    warm_s = max(statistics.median(times), 1e-9)
    speedup = cold_s / warm_s
    benchmark.extra_info["files"] = cold_stats.files
    benchmark.extra_info["cold_s"] = round(cold_s, 4)
    benchmark.extra_info["warm_median_s"] = round(warm_s, 4)
    benchmark.extra_info["warm_speedup"] = round(speedup, 1)
    assert speedup >= 3.0, (
        f"warm lint only {speedup:.1f}x faster than cold "
        f"({warm_s:.3f}s vs {cold_s:.3f}s)"
    )


def test_perf_lint_concurrency(benchmark, tmp_path):
    """Concurrency pass (RPR017, RPR018) over src/repro: cold vs cache-warm.

    Selecting only the lock rules still runs pass 1 in full (the per-file
    summaries carry the lock/acquisition index regardless of rule
    selection), so the summary cache has to pay off here exactly as it
    does for the whole rule set: the warm fixpoint solve plus rule checks
    must come in >= 3x under the cold parse-everything run.
    """
    from repro.lint.config import load_config
    from repro.lint.project import lint_repository

    repo_root = Path(__file__).resolve().parent.parent
    config = load_config(repo_root / "pyproject.toml")
    config.select = ["RPR017", "RPR018"]
    targets = [repo_root / "src" / "repro"]
    cache_dir = tmp_path / "lint-cache"

    start = time.perf_counter()
    cold_diags, _, cold_stats = lint_repository(
        config, paths=targets, cache_dir=cache_dir, use_cache=True
    )
    cold_s = time.perf_counter() - start
    assert cold_stats.cache_hits == 0

    def warm():
        diags, _, stats = lint_repository(
            config, paths=targets, cache_dir=cache_dir, use_cache=True
        )
        assert stats.cache_misses == 0
        return diags

    times = []
    warm_diags = benchmark.pedantic(timed(warm, times), rounds=3, iterations=1)
    assert warm_diags == cold_diags
    # The audited tree is expected to be clean: every genuine finding in
    # the serve layer is either fixed or carries an invariant-stating
    # suppression, so a non-empty diff here is a regression.
    assert warm_diags == []

    warm_s = max(statistics.median(times), 1e-9)
    speedup = cold_s / warm_s
    benchmark.extra_info["files"] = cold_stats.files
    benchmark.extra_info["cold_s"] = round(cold_s, 4)
    benchmark.extra_info["warm_median_s"] = round(warm_s, 4)
    benchmark.extra_info["warm_speedup"] = round(speedup, 1)
    assert speedup >= 3.0, (
        f"warm concurrency lint only {speedup:.1f}x faster than cold "
        f"({warm_s:.3f}s vs {cold_s:.3f}s)"
    )
