"""Incremental scan identification: the streaming ``identify_scans``.

:class:`IncrementalScanIdentifier` consumes time-ordered packet windows one
at a time.  It holds no session state of its own: between windows it keeps
the raw packets of the sessions that may still grow (the *carry*), and for
each window it runs the batch kernel,
:func:`repro.core.campaigns.identify_sessions`, over carry + window.  The
kernel scores the sessions the watermark has closed and hands back the rows
of the open ones, which become the next carry.

Why the result is column-by-column **identical** to batch
:func:`~repro.core.campaigns.identify_scans` at any window size:

* Captures are time-ordered (``Telescope.observe`` sorts; :meth:`consume`
  rejects a window that starts before the watermark), so no later packet
  can precede the watermark and a closed session can never grow again.
* The carry keeps its packets in ``(src, time, capture order)`` order and
  goes *before* the window, so the kernel's stable ``lexsort`` orders every
  source's packets exactly as the batch path's global sort does, ties
  included.
* Every scan is then produced by the same code from the same packets in the
  same order; the per-window tables merge into batch row order by
  ``(src_ip, start)``.

Memory model: the carry holds all ten columns of the packets of open
sessions.  Only a source's last session can be open, and the idle-gap
expiry continuously closes quiet sources, so the working set is bounded by
the traffic active within one expiry window — independent of capture
length.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro._util.stats import run_starts

# ``score_sessions`` is not called here; perfbench wraps it under this
# module's name, so the import stays.
from repro.core.campaigns import (  # noqa: F401
    CampaignCriteria,
    ScanTable,
    identify_sessions,
    merge_scan_tables,
    score_sessions,
)
from repro.core.fingerprints import ToolFingerprinter
from repro.scanners.base import Tool
from repro.telescope.packet import PacketBatch


class StreamOrderError(ValueError):
    """Raised when a window's packets precede the stream's watermark.

    The incremental identifier requires a time-ordered stream (all telescope
    captures are; ``Telescope.observe`` sorts).  Out-of-order input would
    silently desynchronise session boundaries from the batch path, so it is
    rejected loudly instead.
    """


class IncrementalScanIdentifier:
    """Streaming equivalent of :func:`repro.core.campaigns.identify_scans`.

    Feed time-ordered windows to :meth:`consume`; call :meth:`finalize` once
    the stream ends to close the remaining open sessions and obtain the
    :class:`ScanTable`.  State between windows is exposed via
    :meth:`snapshot` / :meth:`restore` for durable checkpoints.
    """

    def __init__(
        self,
        criteria: Optional[CampaignCriteria] = None,
        fingerprinter: Optional[ToolFingerprinter] = None,
    ):
        self.criteria = criteria if criteria is not None else CampaignCriteria()
        self.fingerprinter = (
            fingerprinter if fingerprinter is not None else ToolFingerprinter()
        )
        self._carry = PacketBatch.empty()
        self._tables: List[ScanTable] = []
        self.packets_consumed = 0
        self.windows_consumed = 0
        self.watermark = float("-inf")
        self.sessions_discarded = 0
        #: High-water mark of ``buffered_bytes`` after each window.  Not
        #: checkpointed: after a restore it restarts from the resumed carry,
        #: i.e. it is the peak *since resume*.
        self.peak_buffered_bytes = 0

    # -- live gauges --------------------------------------------------------

    @property
    def open_sessions(self) -> int:
        """Distinct sources in the carry (only a last session is open)."""
        src = self._carry.src_ip
        return int(np.count_nonzero(src[1:] != src[:-1])) + 1 if src.size else 0

    @property
    def open_packets(self) -> int:
        return len(self._carry)

    @property
    def buffered_bytes(self) -> int:
        return self._carry.memory_bytes()

    @property
    def scans_found(self) -> int:
        return sum(len(table) for table in self._tables)

    @property
    def candidate_sessions(self) -> int:
        """Open sessions already past the distinct-destination threshold."""
        carry = self._carry
        if len(carry) == 0:
            return 0
        # Distinct (src, dst) pairs as one sorted uint64 key: a row-wise
        # ``np.unique(axis=1)`` took up to 170 ms per call on a 100k-packet
        # carry, and a progress callback reads this gauge after every window.
        key = carry.src_ip.astype(np.uint64)
        # Sources are 32-bit, so the shifted source fills the high word only.
        key <<= np.uint64(32)
        key |= carry.dst_ip
        key.sort()
        pair_src = key[run_starts(key)] >> np.uint64(32)
        starts = run_starts(pair_src)
        per_src = np.diff(np.append(starts, pair_src.size))
        return int(np.count_nonzero(per_src >= self.criteria.min_distinct_dsts))

    # -- streaming ----------------------------------------------------------

    def consume(self, batch: PacketBatch) -> None:
        """Ingest one window (a contiguous, time-ordered stream slice)."""
        if len(batch):
            tmin = float(batch.time.min())
            if self.packets_consumed and tmin < self.watermark:
                raise StreamOrderError(
                    f"window starts at t={tmin:.6f}, before the stream "
                    f"watermark {self.watermark:.6f}; the incremental "
                    f"identifier needs a time-ordered stream"
                )
            # Later packets arrive at or after this window's maximum time.
            self.watermark = max(self.watermark, float(batch.time.max()))
            # Carry first: the kernel's stable sort then keeps capture order
            # among packets with equal (src, time).
            self._run(
                PacketBatch.concat([self._carry, batch])
                if len(self._carry) else batch,
                self.watermark,
            )
            self.packets_consumed += len(batch)
            self.peak_buffered_bytes = max(
                self.peak_buffered_bytes, self.buffered_bytes
            )
        self.windows_consumed += 1

    def finalize(self) -> ScanTable:
        """Close every remaining open session and build the scan table."""
        self._run(self._carry, None)
        self._tables = [merge_scan_tables(self._tables)]
        return self._tables[0]

    def _run(self, packets: PacketBatch, watermark: Optional[float]) -> None:
        scans, dropped, open_rows = identify_sessions(
            packets, self.criteria, self.fingerprinter, watermark
        )
        # Fancy indexing copies, so the carry never pins a mapped window.
        self._carry = packets[open_rows]
        self.sessions_discarded += dropped
        self._tables.append(scans)

    # -- checkpoint state ----------------------------------------------------

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Serialise the full mid-stream state into flat numpy arrays.

        The carry's ten columns, the scans found so far (port sets as one
        value array plus ``int64`` offsets), the counters and the
        watermark.  The result round-trips through ``np.savez`` untouched.
        """
        self._tables = [merge_scan_tables(self._tables)]
        carry, rec = self._carry, self._tables[0]
        return {
            "carry_time": carry.time,
            "carry_src_ip": carry.src_ip,
            "carry_dst_ip": carry.dst_ip,
            "carry_src_port": carry.src_port,
            "carry_dst_port": carry.dst_port,
            "carry_ip_id": carry.ip_id,
            "carry_seq": carry.seq,
            "carry_ttl": carry.ttl,
            "carry_window": carry.window,
            "carry_flags": carry.flags,
            "counters": np.array(
                [self.packets_consumed, self.windows_consumed,
                 self.sessions_discarded],
                dtype=np.int64,
            ),
            "watermark": np.array([self.watermark], dtype=np.float64),
            "rec_src": rec.src_ip,
            "rec_start": rec.start,
            "rec_end": rec.end,
            "rec_packets": rec.packets,
            "rec_distinct": rec.distinct_dsts,
            "rec_ports_offsets": np.concatenate(
                ([0], np.cumsum(rec.n_ports))
            ).astype(np.int64),
            "rec_ports": (
                np.concatenate(rec.port_sets).astype(np.int64)
                if len(rec) else np.array([], dtype=np.int64)
            ),
            "rec_primary": rec.primary_port,
            "rec_tool": np.array(
                [str(tool.value) for tool in rec.tool], dtype=np.str_
            ),
            "rec_match": rec.match_fraction,
            "rec_speed": rec.speed_pps,
            "rec_coverage": rec.coverage,
            "rec_sequential": rec.sequential,
            "rec_window": rec.window_mode,
            "rec_ttl": rec.ttl_mode,
        }

    def restore(self, arrays: Dict[str, np.ndarray]) -> None:
        """Rebuild mid-stream state from a :meth:`snapshot` payload."""
        self._carry = PacketBatch(**{
            name[len("carry_"):]: array
            for name, array in arrays.items() if name.startswith("carry_")
        })
        counters = arrays["counters"]
        self.packets_consumed = int(counters[0])
        self.windows_consumed = int(counters[1])
        self.sessions_discarded = int(counters[2])
        self.watermark = float(arrays["watermark"][0])
        offsets = arrays["rec_ports_offsets"]
        rec = ScanTable(
            src_ip=arrays["rec_src"],
            start=arrays["rec_start"],
            end=arrays["rec_end"],
            packets=arrays["rec_packets"],
            distinct_dsts=arrays["rec_distinct"],
            port_sets=(
                np.split(arrays["rec_ports"], offsets[1:-1])
                if offsets.size > 1 else []
            ),
            primary_port=arrays["rec_primary"],
            tool=np.array(
                [Tool(str(v)) for v in arrays["rec_tool"]], dtype=object
            ),
            match_fraction=arrays["rec_match"],
            speed_pps=arrays["rec_speed"],
            coverage=arrays["rec_coverage"],
            sequential=arrays["rec_sequential"],
            window_mode=arrays["rec_window"],
            ttl_mode=arrays["rec_ttl"],
        )
        self._tables = [rec]
        self.peak_buffered_bytes = self.buffered_bytes
