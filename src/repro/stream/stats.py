"""Live progress/stats surface of the streaming engine.

:class:`StreamStats` is a plain snapshot the engine refreshes after every
committed window while a progress callback listens, and once at the end of
each shard; consumers (the ``repro-scan stream`` CLI, tests, or any
long-running service wrapping the engine) read it to answer "how fast, how
much is buffered, how far along".  The helpers here are deliberately free of
engine internals so ``report``/``validate`` reuse them for their own
resource summaries.

Wall-clock reads live behind :func:`wall_clock` — this is operational
telemetry about the *process*, not simulation state, so it is exempt from
the RPR001 determinism rule (nothing downstream of an analysis ever
consumes these numbers).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Sequence


def wall_clock() -> float:
    """Monotonic wall-clock seconds for throughput accounting."""
    return time.perf_counter()  # repro-lint: disable=RPR001


def peak_rss_bytes() -> int:
    """Peak resident-set size of this process in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; platforms
    without the :mod:`resource` module report 0 rather than failing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


def format_bytes(n: int) -> str:
    """Human-readable byte count (``142.3 MB``)."""
    value = float(n)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} TB"  # pragma: no cover - unreachable


@dataclass
class StreamStats:
    """Counters describing one streaming run, refreshed per window."""

    #: Packets consumed so far (including packets restored from a checkpoint).
    packets: int = 0
    #: Windows committed so far.
    windows: int = 0
    #: Packets skipped on resume because a checkpoint already covered them.
    resumed_packets: int = 0
    #: Sessions currently open (not yet past the idle gap).
    open_sessions: int = 0
    #: Packets of open sessions carried to the next window.
    open_packets: int = 0
    #: Open sessions already past the distinct-destination threshold.
    candidate_sessions: int = 0
    #: Sessions finalised into scans.
    scans: int = 0
    #: Sessions finalised and discarded (below the campaign criteria).
    sessions_discarded: int = 0
    #: Bytes of the carried packets (all ten columns).
    buffered_bytes: int = 0
    #: High-water mark of ``buffered_bytes`` over the run — the bounded-
    #: memory guarantee in one number (``buffered_bytes`` itself drains to 0
    #: by the time a run finishes, so only the peak is meaningful then).
    peak_open_session_bytes: int = 0
    #: Bytes held by the incremental analysis accumulators (0 when no
    #: analyses ride along); bounded like the session buffers — it scales
    #: with distinct keys and finalised scans, never with packets streamed.
    analysis_state_bytes: int = 0
    #: Wall-clock seconds spent streaming (excludes skipped resume windows).
    wall_s: float = 0.0
    #: Peak resident-set size of the process, bytes.
    peak_rss_bytes: int = field(default_factory=peak_rss_bytes)

    @property
    def packets_per_s(self) -> float:
        """Consumption throughput over this run's wall time."""
        fresh = self.packets - self.resumed_packets
        return fresh / self.wall_s if self.wall_s > 0 else 0.0

    def progress_line(self) -> str:
        """One-line human rendering for live progress output."""
        return (
            f"w={self.windows} packets={self.packets:,} "
            f"({self.packets_per_s:,.0f} pps) open={self.open_sessions:,} "
            f"candidates={self.candidate_sessions:,} scans={self.scans:,} "
            f"buffered={format_bytes(self.buffered_bytes)} "
            f"rss={format_bytes(self.peak_rss_bytes)}"
        )

    def summary_line(self) -> str:
        """One-line human rendering for end-of-run output."""
        return (
            f"{self.packets:,} packets in {self.windows} window(s), "
            f"{self.scans:,} scan(s), {self.packets_per_s:,.0f} pps, "
            f"peak RSS {format_bytes(self.peak_rss_bytes)}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot (``--stats-json``, benchmarks)."""
        return {
            "packets": self.packets,
            "windows": self.windows,
            "resumed_packets": self.resumed_packets,
            "open_sessions": self.open_sessions,
            "open_packets": self.open_packets,
            "candidate_sessions": self.candidate_sessions,
            "scans": self.scans,
            "sessions_discarded": self.sessions_discarded,
            "buffered_bytes": self.buffered_bytes,
            "peak_open_session_bytes": self.peak_open_session_bytes,
            "analysis_state_bytes": self.analysis_state_bytes,
            "wall_s": self.wall_s,
            "packets_per_s": self.packets_per_s,
            "peak_rss_bytes": self.peak_rss_bytes,
        }

    @classmethod
    def merge(cls, parts: Sequence["StreamStats"]) -> "StreamStats":
        """Aggregate per-shard stats into one run-level view.

        Shards partition the sources, so additive counters (packets, scans,
        discards, open-session gauges) simply sum.  Windows do not: every
        shard walks the same raw window sequence, so the aggregate keeps the
        maximum.  Wall time is the slowest shard (shards overlap when run in
        worker processes), and the memory gauges keep the per-shard maximum —
        the bound the sharded design promises is *per shard*, not summed
        across a fleet of workers.
        """
        out = cls(peak_rss_bytes=0)
        for part in parts:
            out.packets += part.packets
            out.resumed_packets += part.resumed_packets
            out.open_sessions += part.open_sessions
            out.open_packets += part.open_packets
            out.candidate_sessions += part.candidate_sessions
            out.scans += part.scans
            out.sessions_discarded += part.sessions_discarded
            out.buffered_bytes += part.buffered_bytes
            out.analysis_state_bytes += part.analysis_state_bytes
            out.windows = max(out.windows, part.windows)
            out.wall_s = max(out.wall_s, part.wall_s)
            out.peak_open_session_bytes = max(
                out.peak_open_session_bytes, part.peak_open_session_bytes
            )
            out.peak_rss_bytes = max(out.peak_rss_bytes, part.peak_rss_bytes)
        return out
