"""The streaming engine: source → shards → windows → incremental scans.

:class:`StreamEngine` is the one engine behind every streaming run.  It
partitions the capture's sources into ``n_shards`` by hash and walks each
shard through one window loop (:func:`repro.stream.sharded._run_one_shard`):
pull bounded windows from a :class:`~repro.stream.source.StreamSource`,
keep the shard's packets, feed them to an
:class:`~repro.stream.incremental.IncrementalScanIdentifier` (which runs
the batch identification kernel over each window plus the open sessions it
carries between windows), and persist durable checkpoints at a
configurable cadence.  The paper analyses, when attached, ride with shard
0 and read every raw window before its shard filter.  The per-shard tables
merge bit-identically into the serial one (see :mod:`repro.stream.sharded`),
so the serial run is simply the case ``n_shards=1, workers=0``.

``workers=0`` walks the shards one after another in this process;
``workers>=1`` runs them in a process pool whose workers re-open the
capture by path.  Only the in-process loop can report progress and poll a
``stop`` callback.

Checkpoint discipline: a snapshot is saved *after* the window that
completes each cadence interval is committed, and *before* the progress
callback fires — so however the process dies afterwards (including inside
the callback), the newest checkpoint covers exactly the windows already
reported.  A final snapshot lands before finalisation, which makes
re-running a completed stream nearly free: resume skips every packet and
finalisation replays from the restored state.  A checkpoint that is
damaged, foreign or does not restore is a miss (another
``STREAM_SCHEMA_VERSION`` changes the key, so its files are never looked
up), and its shard restarts from packet 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.core.campaigns import CampaignCriteria, ScanTable
from repro.core.fingerprints import ToolFingerprinter
from repro.stream.analyses import AnalysisConfig, AnalysisSuite
from repro.stream.source import (
    DEFAULT_BATCH_SIZE,
    BatchStreamSource,
    StreamSource,
    TraceStreamSource,
)
from repro.stream.stats import StreamStats
from repro.telescope.packet import PacketBatch

#: ``progress(shard, stats)``: the shard's refreshed stats after each
#: committed window.
ProgressCallback = Callable[[int, StreamStats], None]


@dataclass
class StreamConfig:
    """Knobs of one streaming run."""

    #: Maximum packets per window (None = native chunk sizes).
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE
    #: Directory for durable checkpoints (None disables checkpointing, as
    #: does a source without a stable identity).
    checkpoint_dir: Optional[Union[str, Path]] = None
    #: Save a checkpoint every this many committed windows (plus one final
    #: snapshot before finalisation).
    checkpoint_every: int = 8
    #: Tolerate a trace cut before its end marker (killed writer): read
    #: its complete chunks only.
    strict: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


@dataclass
class ShardRun:
    """One shard's contribution to a streaming run."""

    shard: int
    scans: ScanTable
    stats: StreamStats
    resumed: bool = False
    checkpoint_key: Optional[str] = None
    #: Where the shard's final checkpoint landed (None when checkpointing
    #: was off).
    checkpoint_path: Optional[Path] = None
    #: True when a ``stop`` callback ended the shard between windows.
    interrupted: bool = False
    truncated_source: bool = False
    #: Snapshot of the run's analysis suite (plain arrays, so pool
    #: workers hand it back without pickling live accumulator objects);
    #: set on shard 0 of a run with analyses attached, ``None`` otherwise.
    analysis: Optional[Dict[str, np.ndarray]] = None


@dataclass
class StreamResult:
    """Everything a streaming run produced."""

    scans: ScanTable
    #: Aggregate view (see :meth:`StreamStats.merge` for the semantics).
    stats: StreamStats
    shards: List[ShardRun] = field(default_factory=list)
    #: True when any shard restored a prior checkpoint instead of starting
    #: from the first packet.
    resumed: bool = False
    #: True when a ``stop`` callback ended the run between windows.  Shards
    #: not yet started were skipped; every shard that ran flushed its
    #: checkpoint, so a later run resumes where this one left off.
    interrupted: bool = False
    truncated_source: bool = False
    #: Final checkpoint of each shard that saved one.
    checkpoint_paths: List[Path] = field(default_factory=list)
    #: The analysis suite restored from shard 0's snapshot (when the run
    #: carried analyses); it has consumed every raw window and awaits
    #: ``finalize(scans)`` with the enriched table.
    analyses: Optional[AnalysisSuite] = None


class StreamEngine:
    """Bounded-memory, resumable scan identification over source shards.

    ``n_shards`` picks the parallelism of the *state* (how many independent
    identifiers partition the sources); ``workers`` picks the parallelism of
    the *execution* (how many processes walk shards concurrently, 0 = this
    process).  They are separate so a checkpointed run can change its
    worker count without invalidating its per-shard checkpoints — the shard
    count, not the worker count, is part of the checkpoint key.
    ``analyses`` attaches the paper analyses
    (:class:`~repro.stream.analyses.AnalysisSuite`) to shard 0.
    """

    def __init__(
        self,
        criteria: Optional[CampaignCriteria] = None,
        fingerprinter: Optional[ToolFingerprinter] = None,
        config: Optional[StreamConfig] = None,
        n_shards: int = 1,
        workers: int = 0,
        analyses: Optional[AnalysisConfig] = None,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.criteria = criteria if criteria is not None else CampaignCriteria()
        self.fingerprinter = (
            fingerprinter if fingerprinter is not None else ToolFingerprinter()
        )
        self.config = config if config is not None else StreamConfig()
        self.n_shards = n_shards
        self.workers = workers
        self.analyses = analyses

    def run(
        self,
        source: StreamSource,
        progress: Optional[ProgressCallback] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> StreamResult:
        """Stream every shard of ``source`` and merge the results.

        ``progress`` (in-process runs only) is invoked as
        ``progress(shard, stats)`` after each committed window.  ``stop``
        (``workers=0`` only) is polled after every committed window; the
        first ``True`` ends the run at that window boundary — a graceful
        interrupt.  The shard's final checkpoint is still written, shards
        not yet started are skipped, and the result carries
        ``interrupted=True`` with the partial scans finalised.
        """
        # The shard machinery lives in repro.stream.sharded, which imports
        # this module, so it is looked up at call time.  The run enters
        # through ShardedStreamEngine.run so the two public names stay one
        # entry point, with a wrapper on StreamEngine.run always enclosing
        # one on ShardedStreamEngine.run: perfbench's traced run relies on
        # that order to charge pool workers' spans to the run waiting for
        # them.
        from repro.stream import sharded

        return sharded.ShardedStreamEngine.run(self, source, progress, stop)


def as_stream_source(
    capture: Union[StreamSource, PacketBatch, str, Path],
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    strict: bool = True,
) -> StreamSource:
    """Coerce a source, an in-memory batch or an ``.rtrace`` path into a
    :class:`StreamSource`."""
    if isinstance(capture, StreamSource):
        return capture
    if isinstance(capture, PacketBatch):
        return BatchStreamSource(capture, batch_size)
    return TraceStreamSource(capture, batch_size, strict=strict)
