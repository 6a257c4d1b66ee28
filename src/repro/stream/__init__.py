"""repro.stream — streaming ingestion and incremental analysis.

Turns the batch pipeline into a bounded-memory, resumable one: chunked
ingestion over ``.rtrace`` captures (:mod:`~repro.stream.source`), an
incremental scan identifier that runs the batch kernel over each window
plus the open sessions it carries from the windows before, so its table
equals batch ``identify_scans`` by construction
(:mod:`~repro.stream.incremental`), durable content-addressed checkpoints
(:mod:`~repro.stream.checkpoint`), and a live progress/stats surface
(:mod:`~repro.stream.stats`), all orchestrated by one engine,
:class:`~repro.stream.engine.StreamEngine`.  The engine splits the sources
into ``n_shards`` by hash and walks every shard through the same window
loop (:mod:`~repro.stream.sharded`), in this process (``workers=0``) or in
worker processes, with output bit-identical at any shard or worker count;
the serial run is ``n_shards=1, workers=0``.  On top of the scan
identifier, :mod:`~repro.stream.analyses` tallies the paper's longitudinal
analyses window by window and finishes them over the final scan table, and
:func:`~repro.stream.report.stream_report`
produces the full batch-equal :class:`~repro.core.report.PaperReport` in
one bounded-memory pass.
"""

from repro._files import format_bytes, peak_rss_bytes
from repro.stream.analyses import (
    ANALYSES_SCHEMA_VERSION,
    AnalysisConfig,
    AnalysisSuite,
    IncrementalChurn,
    IncrementalVolatility,
)
from repro.stream.checkpoint import STREAM_SCHEMA_VERSION, CheckpointStore
from repro.stream.engine import (
    ShardRun,
    StreamConfig,
    StreamEngine,
    StreamResult,
    as_stream_source,
)
from repro.stream.incremental import IncrementalScanIdentifier, StreamOrderError
from repro.stream.report import (
    StreamReportResult,
    analysis_period,
    finish_report,
    stream_report,
)
from repro.stream.sharded import (
    ShardedStreamEngine,
    merge_scan_tables,
    shard_of,
)
from repro.stream.source import (
    DEFAULT_BATCH_SIZE,
    BatchStreamSource,
    StreamSource,
    TraceStreamSource,
    rebatch,
)
from repro.stream.stats import StreamStats

__all__ = [
    "ANALYSES_SCHEMA_VERSION",
    "AnalysisConfig",
    "AnalysisSuite",
    "IncrementalChurn",
    "IncrementalVolatility",
    "StreamReportResult",
    "analysis_period",
    "finish_report",
    "stream_report",
    "STREAM_SCHEMA_VERSION",
    "CheckpointStore",
    "StreamConfig",
    "StreamEngine",
    "StreamResult",
    "as_stream_source",
    "IncrementalScanIdentifier",
    "StreamOrderError",
    "ShardedStreamEngine",
    "ShardRun",
    "merge_scan_tables",
    "shard_of",
    "DEFAULT_BATCH_SIZE",
    "BatchStreamSource",
    "StreamSource",
    "TraceStreamSource",
    "rebatch",
    "StreamStats",
    "format_bytes",
    "peak_rss_bytes",
]
