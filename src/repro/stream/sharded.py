"""Source shards: assignment, the one window loop, the pool task, the merge.

Scan sessions are a per-source construct — every statistic the pipeline
derives from a session (boundaries, score, ports, modes, fingerprints)
depends only on that source's own packets.  Partitioning the sources into N
shards and running one :class:`~repro.stream.incremental.IncrementalScanIdentifier`
per shard therefore changes *nothing* about any individual session, and the
merged result is column-by-column bit-identical to batch
``identify_scans`` at any shard count and any window size: each shard's
table is exactly the full table restricted to its sources, and
:func:`~repro.core.campaigns.merge_scan_tables` (the same merge the
identifier applies to its per-window tables) reproduces the serial sort
order (no ties — one source never appears in two shards).
With one shard the filter keeps every packet, which is how the serial run
is the ``n_shards=1`` case of :class:`~repro.stream.engine.StreamEngine`.

:func:`_run_one_shard` is the window loop every streaming run goes through —
in this process (``workers=0``) or, via :func:`_shard_stream_task`, in a
:class:`~concurrent.futures.ProcessPoolExecutor` worker (the
``exec/parallel.py`` discipline: a module-level task function, pure in its
arguments).  Each worker re-opens the ``.rtrace`` by path and maps it
(:class:`~repro.telescope.trace.TraceReader`), so the capture's pages are
shared read-only between workers by the page cache instead of being pickled
across the pool.  :func:`_run_engine`, the body of
:meth:`StreamEngine.run`, dispatches the shards one way or the other and
merges their results.  Pool workers die with the process that forked
them (:func:`~repro.exec.parallel._die_with_parent`), so killing that
process alone leaves none behind.

The paper analyses are not sharded.  A run with analyses attaches the one
:class:`~repro.stream.analyses.AnalysisSuite` to shard 0, which feeds it
every raw window before the shard filter; its snapshot rides back on that
shard's :class:`~repro.stream.engine.ShardRun`, so the suite is never
split across shards and never merged.

Checkpointing is per shard: each shard owns a content-addressed key
(``key_for(..., shard=(i, n))``) and its snapshot carries one extra array —
``shard_stream_pos``, the shard's position in the *raw* (unfiltered) packet
stream — because the identifier's own ``packets_consumed`` counts only the
shard's packets and cannot seek the shared source.  Only shard 0's key
carries the analyses' key material and its snapshot the suite's arrays;
the other shards hold identifier state only, so a plain run's checkpoint
of the same shard may satisfy them.  A killed run resumes each shard
independently from its newest snapshot; an entry that does not restore
whole, or whose position lies past the capture's end or behind the
packets it has consumed, is a miss, and that shard restarts from packet 0.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro._files import peak_rss_bytes, wall_clock
from repro.core.campaigns import CampaignCriteria, merge_scan_tables
from repro.core.fingerprints import ToolFingerprinter
from repro.exec.parallel import _die_with_parent
from repro.stream.analyses import AnalysisConfig, AnalysisSuite
from repro.stream.checkpoint import CheckpointStore
from repro.stream.engine import (
    ProgressCallback,
    ShardRun,
    StreamConfig,
    StreamEngine,
    StreamResult,
)
from repro.stream.incremental import IncrementalScanIdentifier
from repro.stream.source import StreamSource, TraceStreamSource
from repro.stream.stats import StreamStats

#: Array-name prefix separating analysis-suite state from identifier state
#: inside one shared checkpoint payload.
ANALYSIS_PREFIX = "an__"

#: Knuth's multiplicative hash constant (2^32 / phi), used to decorrelate
#: shard assignment from allocation structure in the source address space
#: (sequential /24 neighbours land on different shards).
_HASH_MULTIPLIER = np.uint64(2654435761)


def shard_of(src_ip: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard index of each source address (vectorised, stable across runs).

    A multiplicative hash in ``uint64`` (no wraparound: ``2^32 * 2^32/phi``
    fits in 64 bits) followed by a modulo over the mixed low word.  Plain
    ``src_ip % n`` would striped-assign adjacent addresses, concentrating a
    sequentially-allocated scanner fleet onto few shards.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    mixed = (src_ip.astype(np.uint64) * _HASH_MULTIPLIER) & np.uint64(
        0xFFFFFFFF
    )
    return (mixed % np.uint64(n_shards)).astype(np.int64)


def _run_one_shard(
    source: StreamSource,
    shard: int,
    n_shards: int,
    criteria: CampaignCriteria,
    fingerprinter: ToolFingerprinter,
    config: StreamConfig,
    analyses: Optional[AnalysisConfig] = None,
    progress: Optional[ProgressCallback] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> ShardRun:
    """Stream one shard of ``source`` to completion (or to ``stop``).

    Runs in the calling process — the in-process engine and the body of
    the pool task both come here.  Pure in its arguments: all state is
    constructed locally, and the only writes are the shard's own
    content-addressed checkpoint files (``tests/test_sharded.py`` checks
    that pool workers match the in-process run).  ``analyses`` (when given) attaches
    a fresh :class:`~repro.stream.analyses.AnalysisSuite` that consumes
    every raw window before the shard filter — the engine passes it to
    shard 0 only — and its snapshot rides back on the :class:`ShardRun`.
    Stats are refreshed only for a ``progress`` callback and once at the
    end.
    """
    identifier = IncrementalScanIdentifier(criteria, fingerprinter)
    suite = AnalysisSuite(analyses) if analyses is not None else None

    store: Optional[CheckpointStore] = None
    key: Optional[str] = None
    resumed = False
    raw_pos = 0
    if config.checkpoint_dir is not None:
        identity = source.identity()
        if identity is not None:
            store = CheckpointStore(config.checkpoint_dir)
            key = store.key_for(
                identity, criteria, fingerprinter, config.batch_size,
                shard=(shard, n_shards),
                analyses=(
                    analyses.key_material() if analyses is not None else None
                ),
            )

            def restore(arrays: Dict[str, np.ndarray]) -> Tuple[
                int, IncrementalScanIdentifier, Optional[AnalysisSuite]
            ]:
                # New objects, so an entry that fails halfway changes nothing.
                position = int(arrays.pop("shard_stream_pos")[0])
                restored = IncrementalScanIdentifier(criteria, fingerprinter)
                restored.restore(arrays)
                # The seek happens after ``load`` returns, so a position the
                # source cannot skip to, or one behind the packets the
                # snapshot has consumed, must fail here, as a miss.
                end = source.total_packets
                consumed = restored.packets_consumed
                if position < max(consumed, 0) or (
                    end is not None and position > end
                ):
                    raise ValueError(
                        f"checkpoint position {position} lies outside "
                        f"[{consumed}, {end}]"
                    )
                # A serial snapshot counts every packet read, so a position
                # ahead of it would skip packets; a shard's counts only its
                # own share, so the range above is all that can be checked.
                if n_shards == 1 and position != consumed:
                    raise ValueError(
                        f"serial checkpoint position {position} is not the "
                        f"{consumed} packets its snapshot consumed"
                    )
                restored_suite = None
                if analyses is not None:
                    restored_suite = AnalysisSuite(analyses)
                    restored_suite.restore({
                        name[len(ANALYSIS_PREFIX):]: array
                        for name, array in arrays.items()
                        if name.startswith(ANALYSIS_PREFIX)
                    })
                return position, restored, restored_suite

            state = store.load(key, restore)
            if state is not None:
                raw_pos, identifier, suite = state
                resumed = identifier.packets_consumed > 0 or raw_pos > 0

    stats = StreamStats(resumed_packets=identifier.packets_consumed)
    started = wall_clock()

    def refresh() -> None:
        stats.packets = identifier.packets_consumed
        stats.windows = identifier.windows_consumed
        stats.open_sessions = identifier.open_sessions
        stats.open_packets = identifier.open_packets
        stats.candidate_sessions = identifier.candidate_sessions
        stats.scans = identifier.scans_found
        stats.sessions_discarded = identifier.sessions_discarded
        stats.buffered_bytes = identifier.buffered_bytes
        stats.peak_open_session_bytes = identifier.peak_buffered_bytes
        if suite is not None:
            stats.analysis_state_bytes = suite.state_nbytes()
        stats.wall_s = wall_clock() - started
        stats.peak_rss_bytes = peak_rss_bytes()

    def save() -> Path:
        payload = identifier.snapshot()
        # The shard's raw-stream position rides along *outside* the frozen
        # snapshot schema (it is popped again before ``restore``): the
        # identifier only counts the shard's packets, but a resume must
        # seek the shared, unfiltered source.
        payload["shard_stream_pos"] = np.array([raw_pos], dtype=np.int64)
        if suite is not None:
            for name, array in suite.snapshot().items():
                payload[ANALYSIS_PREFIX + name] = array
        return store.save(key, payload)

    windows_since_save = 0
    interrupted = False
    for window in source.windows(skip_packets=raw_pos):
        raw_pos += len(window)
        if suite is not None:
            suite.consume(window)
        if n_shards > 1:
            window = window.where(shard_of(window.src_ip, n_shards) == shard)
        identifier.consume(window)
        windows_since_save += 1
        if store is not None and windows_since_save >= config.checkpoint_every:
            save()
            windows_since_save = 0
        if progress is not None:
            refresh()
            progress(shard, stats)
        if stop is not None and stop():
            interrupted = True
            break

    # Final snapshot before finalisation mutates the open sessions: a
    # re-run resumes past every packet and replays finalisation from it.
    checkpoint_path = save() if store is not None else None
    scans = identifier.finalize()
    refresh()
    stats.scans = len(scans)
    return ShardRun(
        shard=shard, scans=scans, stats=stats, resumed=resumed,
        checkpoint_key=key, checkpoint_path=checkpoint_path,
        interrupted=interrupted,
        truncated_source=getattr(source, "truncated", False),
        analysis=suite.snapshot() if suite is not None else None,
    )


def _shard_stream_task(
    path: str,
    batch_size: Optional[int],
    strict: bool,
    shard: int,
    n_shards: int,
    criteria: CampaignCriteria,
    fingerprinter: ToolFingerprinter,
    config: StreamConfig,
    analyses: Optional[AnalysisConfig] = None,
) -> ShardRun:
    """Worker entry point: one shard, re-opened from the capture path.

    Must stay a module-level function (process pools pickle it by
    reference).  The source is rebuilt inside the worker so only the path
    and knobs cross the process boundary — the mapped pages of the capture
    are then shared between workers by the OS page cache (the analysis
    state crosses back as the plain-array snapshot on the result).
    """
    source = TraceStreamSource(path, batch_size=batch_size, strict=strict)
    return _run_one_shard(
        source, shard, n_shards, criteria, fingerprinter, config, analyses
    )


def _run_engine(
    engine: StreamEngine,
    source: StreamSource,
    progress: Optional[ProgressCallback] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> StreamResult:
    """The body of :meth:`StreamEngine.run`: every shard, then the merge.

    ``workers=0`` walks the shards one after another through
    :func:`_run_one_shard`, stopping after a shard that ``stop`` interrupted;
    otherwise the shards run in a process pool through
    :func:`_shard_stream_task`.  The analyses, when attached, ride with
    shard 0.  The merged stats carry the whole dispatch's wall time and
    this process's peak RSS next to the shards'.
    """
    started = wall_clock()
    if engine.workers == 0:
        runs: List[ShardRun] = []
        for shard in range(engine.n_shards):
            runs.append(_run_one_shard(
                source, shard, engine.n_shards, engine.criteria,
                engine.fingerprinter, engine.config,
                engine.analyses if shard == 0 else None,
                progress=progress, stop=stop,
            ))
            if runs[-1].interrupted:
                break
    else:
        if stop is not None:
            raise ValueError(
                "stop callbacks need workers=0: pool workers cannot poll them"
            )
        if not isinstance(source, TraceStreamSource):
            raise ValueError(
                "worker processes need a path-backed capture; got "
                f"{type(source).__name__} (use workers=0, or stream an "
                ".rtrace file)"
            )
        with ProcessPoolExecutor(
            max_workers=engine.workers, initializer=_die_with_parent,
            initargs=(os.getpid(),),
        ) as pool:
            futures = [
                pool.submit(
                    _shard_stream_task,
                    str(source.path), source.batch_size, source.strict,
                    shard, engine.n_shards,
                    engine.criteria, engine.fingerprinter, engine.config,
                    engine.analyses if shard == 0 else None,
                )
                for shard in range(engine.n_shards)
            ]
            runs = [future.result() for future in futures]

    scans = merge_scan_tables([run.scans for run in runs])
    stats = StreamStats.merge([run.stats for run in runs])
    stats.scans = len(scans)
    stats.wall_s = wall_clock() - started
    stats.peak_rss_bytes = max(stats.peak_rss_bytes, peak_rss_bytes())
    suite: Optional[AnalysisSuite] = None
    if engine.analyses is not None:
        suite = AnalysisSuite(engine.analyses)
        suite.restore(runs[0].analysis)
    return StreamResult(
        scans=scans,
        stats=stats,
        shards=runs,
        resumed=any(run.resumed for run in runs),
        interrupted=any(run.interrupted for run in runs),
        truncated_source=any(run.truncated_source for run in runs),
        checkpoint_paths=[
            run.checkpoint_path for run in runs
            if run.checkpoint_path is not None
        ],
        analyses=suite,
    )


class ShardedStreamEngine(StreamEngine):
    """The one engine under its sharded name; :meth:`StreamEngine.run`
    enters through this class's ``run``."""

    run = _run_engine
