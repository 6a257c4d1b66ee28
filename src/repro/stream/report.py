"""One-pass paper reports over packet streams.

:func:`stream_report` walks a capture once through
:class:`~repro.stream.engine.StreamEngine` — any shard count, serial being
``n_shards=1`` — with an :class:`~repro.stream.analyses.AnalysisSuite`
riding alongside shard 0's scan identifier, then enriches the identified
scans and finalises the suite over them into a
:class:`~repro.core.report.PaperReport` (:func:`finish_report`, which
callers running the engine themselves reuse).
:func:`repro.core.report.paper_report` runs the same suite over a loaded
capture as one window.

The report is field-by-field equal to that one-window report at any window
size, shard count, or worker count: the scan table is bit-identical by the
engine's own guarantee, and the suite's packet-side tallies do not depend
on the windowing (see :mod:`repro.stream.analyses`).  Memory stays bounded
throughout — the suite holds tallies, never the packet stream, and the
per-scan statistics read the one final table.

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
from typing import Any, Callable, List, Mapping, Optional, Union

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
    meta: Mapping[str, Any], year: Optional[int], days: Optional[int]
) -> AnalysisConfig:
    """Resolve the period from explicit arguments or a capture's metadata."""
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
            f"neither passed explicitly nor in the capture's year/days "
            f"metadata"
        )
    return AnalysisConfig(year=int(year), days=int(days))


def finish_report(
    result: StreamResult, classifier: Optional[ScannerClassifier] = None
) -> StreamReportResult:
    """Enrich a run's scans and finalise its analysis suite over them.

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
    return StreamReportResult(
        report=result.analyses.finalize(scans),
        scans=scans,
        stats=result.stats,
        resumed=result.resumed,
        interrupted=result.interrupted,
        checkpoint_paths=result.checkpoint_paths,
    )


def stream_report(
    capture: Union[StreamSource, PacketBatch, PathLike],
    year: Optional[int] = None,
    days: Optional[int] = None,
    n_shards: int = 1,
    workers: int = 0,
    criteria: Optional[CampaignCriteria] = None,
    fingerprinter: Optional[ToolFingerprinter] = None,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    checkpoint_dir: Optional[PathLike] = None,
    checkpoint_every: int = 8,
    strict: bool = True,
    classifier: Optional[ScannerClassifier] = None,
    progress: Optional[ProgressCallback] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> StreamReportResult:
    """Compute the full paper report from ``capture`` in one bounded pass.

    ``year``/``days`` default to the capture's own metadata (``.rtrace``
    files written by the simulator carry both).  ``progress`` and ``stop``
    are the engine's (see :meth:`StreamEngine.run`).
    """
    source = as_stream_source(capture, batch_size, strict=strict)
    engine = StreamEngine(
        criteria,
        fingerprinter,
        StreamConfig(
            batch_size=batch_size,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            strict=strict,
        ),
        n_shards=n_shards,
        workers=workers,
        analyses=analysis_period(source.meta, year, days),
    )
    return finish_report(
        engine.run(source, progress=progress, stop=stop), classifier
    )
