"""One-pass paper reports over packet streams.

:func:`stream_report` is the streaming counterpart of
:func:`repro.core.report.paper_report`: it walks a capture once through
:class:`~repro.stream.engine.StreamEngine` — any shard count, serial being
``n_shards=1`` — with an :class:`~repro.stream.analyses.AnalysisSuite`
riding alongside the scan identifier, then enriches the identified scans
and finalises the suite into a :class:`~repro.core.report.PaperReport`
(:func:`finish_report`, which callers running the engine themselves reuse).

The report is field-by-field equal to the batch path's at any window size,
shard count, or worker count: the scan table is bit-identical by the
engine's own guarantee, and the analysis accumulators reproduce the batch
finalisers exactly (see :mod:`repro.stream.analyses`).  Memory stays
bounded throughout — the suite holds tallies and the finalised scan
columns, never the packet stream.

``progress(shard, stats)`` fires after every committed window of an
in-process run.  ``stop`` is honoured only with ``workers=0``: it ends the
pass at a window boundary with every started shard's checkpoint flushed
and marks the result ``interrupted``; a pass over worker processes cannot
poll it, so a signal there ends the run the default way and the per-shard
checkpoints already written still resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Union

from repro.core.campaigns import CampaignCriteria, ScanTable
from repro.core.fingerprints import ToolFingerprinter
from repro.core.report import PaperReport
from repro.enrichment import ScannerClassifier, build_default_registry
from repro.stream.analyses import AnalysisConfig
from repro.stream.engine import (
    DEFAULT_BATCH_SIZE,
    ProgressCallback,
    StreamConfig,
    StreamEngine,
    StreamResult,
    as_stream_source,
)
from repro.stream.source import StreamSource
from repro.stream.stats import StreamStats
from repro.telescope.packet import PacketBatch

PathLike = Union[str, Path]


@dataclass
class StreamReportResult:
    """Everything one streaming report pass produced."""

    report: PaperReport
    scans: ScanTable            # identified + fingerprinted + enriched
    stats: StreamStats
    resumed: bool = False
    #: True when a ``stop`` callback cut the pass short; the report covers
    #: only the windows committed before the interrupt, and the flushed
    #: checkpoint lets a re-run pick up from there.
    interrupted: bool = False
    #: Final checkpoint of each shard that saved one.
    checkpoint_paths: List[Path] = field(default_factory=list)


def analysis_period(
    source: StreamSource, year: Optional[int], days: Optional[int]
) -> AnalysisConfig:
    """Resolve the period from explicit arguments or the source's metadata."""
    meta = getattr(source, "meta", None) or {}
    if year is None:
        year = meta.get("year")
    if days is None:
        days = meta.get("days")
    if year is None or days is None:
        missing = [
            name for name, value in (("year", year), ("days", days))
            if value is None
        ]
        raise ValueError(
            f"cannot size the analysis period: {' and '.join(missing)} "
            f"neither passed explicitly nor present in the capture metadata"
        )
    return AnalysisConfig(year=int(year), days=int(days))


def finish_report(
    result: StreamResult, classifier: Optional[ScannerClassifier] = None
) -> StreamReportResult:
    """Enrich a run's scans and finalise its analysis suite into the report.

    ``result`` must come from an engine with analyses attached.
    ``classifier`` defaults to the registry-backed default; pass the
    simulation's own classifier to reproduce a specific
    :class:`~repro.core.pipeline.PeriodAnalysis`.
    """
    if result.analyses is None:
        raise ValueError("the stream ran without analyses attached")
    if classifier is None:
        classifier = ScannerClassifier(build_default_registry())
    scans = result.scans.enrich(classifier)
    result.analyses.consume_scans(scans)
    return StreamReportResult(
        report=result.analyses.finalize(),
        scans=scans,
        stats=result.stats,
        resumed=result.resumed,
        interrupted=result.interrupted,
        checkpoint_paths=result.checkpoint_paths,
    )


def stream_report(
    capture: Union[StreamSource, PacketBatch, PathLike, Iterable[PacketBatch]],
    year: Optional[int] = None,
    days: Optional[int] = None,
    n_shards: int = 1,
    workers: int = 0,
    criteria: Optional[CampaignCriteria] = None,
    fingerprinter: Optional[ToolFingerprinter] = None,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    window_s: Optional[float] = None,
    checkpoint_dir: Optional[PathLike] = None,
    checkpoint_every: int = 8,
    strict: bool = True,
    mmap: Optional[bool] = None,
    classifier: Optional[ScannerClassifier] = None,
    progress: Optional[ProgressCallback] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> StreamReportResult:
    """Compute the full paper report from ``capture`` in one bounded pass.

    ``year``/``days`` default to the capture's own metadata (``.rtrace``
    files written by the simulator carry both).  ``progress`` and ``stop``
    are the engine's (see :meth:`StreamEngine.run`).
    """
    source = as_stream_source(
        capture, batch_size, window_s, strict=strict, mmap=mmap
    )
    engine = StreamEngine(
        criteria,
        fingerprinter,
        StreamConfig(
            batch_size=batch_size,
            window_s=window_s,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            strict=strict,
        ),
        n_shards=n_shards,
        workers=workers,
        analyses=analysis_period(source, year, days),
    )
    return finish_report(
        engine.run(source, progress=progress, stop=stop), classifier
    )
