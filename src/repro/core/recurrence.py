"""Scanner recurrence (§6.6, Figure 6).

Measures how often source IPs come back to scan again and how long they stay
quiet between scans.  The paper's findings: non-institutional sources rarely
return (their addresses are "burned" — deliberately for hosting, through
DHCP churn for residential), while institutional sources exhibit a strong
mode of scanning every single day.

The per-source grouping is one ``lexsort`` plus split boundaries
(:func:`split_scan_times`) rather than a Python dict-append loop: the old
formulation was interpreter-bound at O(n) dict operations and dominated
recurrence analysis on large tables.  The paper report's recurrence
section (:meth:`repro.stream.analyses.AnalysisSuite.finalize`) is these
functions over the final scan table, in batch and streaming runs alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._util.stats import empirical_cdf
from repro.core.campaigns import ScanTable
from repro.enrichment.types import ScannerType

_DAY_S = 86_400.0


@dataclass(frozen=True)
class RecurrenceStats:
    """Recurrence behaviour of one scanner-type group."""

    sources: int
    fraction_recurring: float                # sources with >= 2 scans
    fraction_over_100_scans: float           # the institutional hallmark
    scan_count_cdf: Tuple[np.ndarray, np.ndarray]
    downtime_cdf: Tuple[np.ndarray, np.ndarray]   # seconds between scans
    fraction_downtime_within_day: float
    daily_mode_fraction: float               # downtimes within 1 day ± 25%


def split_scan_times(
    src_ip: np.ndarray, start: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-source sorted scan times in one vectorised pass.

    Returns ``(sources, offsets, times)``: the distinct sources in ascending
    order, ``int64`` offsets of length ``len(sources) + 1``, and the scan
    start times sorted by ``(source, time)`` — source ``i`` owns
    ``times[offsets[i]:offsets[i + 1]]``, ascending.
    """
    if src_ip.size == 0:
        return (np.array([], dtype=src_ip.dtype),
                np.zeros(1, dtype=np.int64),
                np.array([], dtype=float))
    order = np.lexsort((start, src_ip))
    src_sorted = src_ip[order]
    times = start[order].astype(float, copy=False)
    firsts = np.flatnonzero(
        np.concatenate(([True], src_sorted[1:] != src_sorted[:-1]))
    )
    offsets = np.append(firsts, src_sorted.size).astype(np.int64)
    return src_sorted[firsts], offsets, times


def recurrence_stats(scans: ScanTable) -> RecurrenceStats:
    """Recurrence statistics over one scan table."""
    sources, offsets, times = split_scan_times(scans.src_ip, scans.start)
    if sources.size == 0:
        empty = (np.array([]), np.array([]))
        return RecurrenceStats(0, 0.0, 0.0, empty, empty, 0.0, 0.0)
    counts = np.diff(offsets).astype(np.int64)
    if times.size > 1:
        gaps = np.diff(times)
        keep = np.ones(gaps.size, dtype=bool)
        # Drop the gaps that straddle a source boundary.
        keep[offsets[1:-1] - 1] = False
        downtimes_arr = gaps[keep].astype(float)
    else:
        downtimes_arr = np.array([], dtype=float)
    within_day = float(np.mean(downtimes_arr <= _DAY_S)) if downtimes_arr.size else 0.0
    daily_mode = (
        float(np.mean((downtimes_arr >= 0.75 * _DAY_S) & (downtimes_arr <= 1.25 * _DAY_S)))
        if downtimes_arr.size else 0.0
    )
    return RecurrenceStats(
        sources=int(counts.size),
        fraction_recurring=float(np.mean(counts >= 2)),
        fraction_over_100_scans=float(np.mean(counts > 100)),
        scan_count_cdf=empirical_cdf(counts),
        downtime_cdf=empirical_cdf(downtimes_arr) if downtimes_arr.size else (np.array([]), np.array([])),
        fraction_downtime_within_day=within_day,
        daily_mode_fraction=daily_mode,
    )


def recurrence_by_type(scans: ScanTable) -> Dict[ScannerType, RecurrenceStats]:
    """Recurrence statistics split by scanner type (Figure 6).

    Requires an enriched table (``scans.enrich`` must have run).
    """
    out: Dict[ScannerType, RecurrenceStats] = {}
    types = np.array([str(t) if t is not None else "" for t in scans.scanner_type])
    for stype in ScannerType:
        mask = types == stype.value
        if np.any(mask):
            out[stype] = recurrence_stats(scans.select(mask))
    return out


def institutional_daily_scanners(scans: ScanTable, tolerance: float = 0.25) -> int:
    """Number of institutional sources with a near-daily scanning cadence.

    A source qualifies when it scanned at least 5 times and the median gap
    between its scans is within ``tolerance`` of one day — the Figure 6
    "large mode of scanning IP addresses that consistently scan every day".
    """
    types = np.array([str(t) if t is not None else "" for t in scans.scanner_type])
    inst = scans.select(types == ScannerType.INSTITUTIONAL.value)
    _, offsets, times = split_scan_times(inst.src_ip, inst.start)
    count = 0
    for i in np.flatnonzero(np.diff(offsets) >= 5):
        gaps = np.diff(times[offsets[i]:offsets[i + 1]])
        median_gap = float(np.median(gaps))
        if abs(median_gap - _DAY_S) <= tolerance * _DAY_S:
            count += 1
    return count
