"""Whole-array reference assembly of the paper report: the test oracle for
:class:`repro.stream.analyses.AnalysisSuite`.

The library computes the report one way: the suite's packet-side
accumulators, finalised over the final scan table;
:func:`repro.core.report.paper_report` is that suite over a single window.
This module keeps the readable batch form — each section computed from the
fully materialised study views by the batch helpers the fidelity benches
use (``port_share``, the entropies, ``recurrence_stats``, …), with the
weekly /16 matrices built in one ``np.unique`` pass over the whole capture.
The suite's per-scan half calls the same ``ScanTable`` functions
(``recurrence_stats``, ``scan_intensity``, ``traffic_concentration``, …), so
for that half the oracle checks what the suite feeds them: the study
filter and the final table's row order.  Tests require the suite to equal
it field for field, floats included, at every window size, shard count and
worker count; nothing in ``src/`` calls it.

The packet-side forms the suite's window pass replaced live here too, so the
oracle never checks that pass against itself: week indices from
``t // 604800``, ``np.unique`` tallies, and ``np.lexsort`` first-appearance
days.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.campaigns import ScanTable
from repro.core.churn import fit_population_curve
from repro.core.pipeline import PeriodAnalysis
from repro.core.recurrence import (
    institutional_daily_scanners,
    recurrence_by_type,
    recurrence_stats,
)
from repro.core.report import (
    ChurnReport,
    PaperReport,
    RecurrenceReport,
    TrendsReport,
)
from repro.core.trends import (
    CLASSIC_PORTS,
    country_distribution_entropy,
    port_distribution_entropy,
    port_share,
    scan_intensity,
    traffic_concentration,
)
from repro.core.volatility import (
    METRICS,
    SparseTally,
    dense_weekly_counts,
    pack_block_week,
    summaries_from_counts,
    weeks_in_period,
)
from repro.telescope.addresses import slash16_of
from repro.telescope.packet import PacketBatch

_DAY_S = 86_400.0
_WEEK_S = 7 * _DAY_S


def week_index(times: np.ndarray, n_weeks: int) -> np.ndarray:
    """Week index of each timestamp, clamped into ``[0, n_weeks)``."""
    return np.minimum((times // _WEEK_S).astype(np.int64), n_weeks - 1)


def packet_weekly_tally(batch: PacketBatch, n_weeks: int) -> SparseTally:
    """Sparse per-(block, week) packet counts of one batch."""
    weeks = week_index(batch.time, n_weeks)
    blocks = slash16_of(batch.src_ip).astype(np.int64)
    return np.unique(pack_block_week(blocks, weeks), return_counts=True)


def scan_weekly_tally(scans: ScanTable, n_weeks: int) -> SparseTally:
    """Sparse per-(block, week) scan counts (by scan start time)."""
    if len(scans) == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty.copy()
    weeks = week_index(scans.start, n_weeks)
    blocks = slash16_of(scans.src_ip).astype(np.int64)
    return np.unique(pack_block_week(blocks, weeks), return_counts=True)


def port_tally(batch: PacketBatch) -> SparseTally:
    """Sorted distinct destination ports of one batch, with packet counts."""
    return np.unique(batch.dst_port.astype(np.int64), return_counts=True)


def first_appearance_days(
    batch: PacketBatch, days: int
) -> Tuple[np.ndarray, np.ndarray]:
    """First-appearance day per distinct source, sources ascending."""
    day_idx = np.minimum((batch.time // _DAY_S).astype(np.int64), days - 1)
    order = np.lexsort((day_idx, batch.src_ip))
    src_sorted = batch.src_ip[order]
    day_sorted = day_idx[order]
    first_mask = np.concatenate([[True], src_sorted[1:] != src_sorted[:-1]])
    return src_sorted[first_mask], day_sorted[first_mask]


def cumulative_distinct_sources(batch: PacketBatch, days: int) -> np.ndarray:
    """Cumulative count of distinct source addresses by end of each day."""
    if len(batch) == 0:
        return np.zeros(days, dtype=np.int64)
    _, first_days = first_appearance_days(batch, days)
    return np.cumsum(np.bincount(first_days, minlength=days))


def source_weekly_tally(batch: PacketBatch, n_weeks: int) -> SparseTally:
    """Sparse per-(block, week) *distinct source* counts of one batch.

    Dedupes ``(src, week)`` pairs with the source in the high 32 bits of a
    ``uint64`` key, so the week index can never overflow into the address
    bits.
    """
    weeks = week_index(batch.time, n_weeks)
    pairs = (batch.src_ip.astype(np.uint64) << np.uint64(32)) | weeks.astype(
        np.uint64
    )
    distinct = np.unique(pairs)
    src = (distinct >> np.uint64(32)).astype(np.uint32)
    blocks = slash16_of(src).astype(np.int64)
    wk = (distinct & np.uint64(0xFFFFFFFF)).astype(np.int64)
    return np.unique(pack_block_week(blocks, wk), return_counts=True)


def weekly_slash16_counts(
    batch: PacketBatch, scans: ScanTable, n_weeks: int
) -> Dict[str, np.ndarray]:
    """Dense per-/16, per-week activity counts of a whole capture.

    Returns ``{metric: (n_blocks, n_weeks) int64}`` plus the block index
    under ``'blocks'`` (the distinct /16 values, in row order).
    """
    if len(batch) == 0:
        return dense_weekly_counts(
            np.array([], dtype=np.int64), n_weeks,
            {m: (np.array([], dtype=np.int64),) * 2 for m in METRICS},
        )
    blocks_all = np.unique(slash16_of(batch.src_ip)).astype(np.int64)
    return dense_weekly_counts(blocks_all, n_weeks, {
        "packets": packet_weekly_tally(batch, n_weeks),
        "sources": source_weekly_tally(batch, n_weeks),
        "scans": scan_weekly_tally(scans, n_weeks),
    })


def batch_paper_report(analysis: PeriodAnalysis) -> PaperReport:
    """The report assembled from ``analysis``'s whole study views."""
    scans = analysis.study_scans
    batch = analysis.study_batch
    counts = weekly_slash16_counts(
        batch, scans, weeks_in_period(analysis.days)
    )
    curve = cumulative_distinct_sources(batch, analysis.days)
    return PaperReport(
        year=analysis.year,
        days=analysis.days,
        packets=len(batch),
        scans=len(scans),
        trends=TrendsReport(
            classic_port_share=port_share(analysis, CLASSIC_PORTS),
            port_entropy=port_distribution_entropy(analysis),
            country_entropy=country_distribution_entropy(analysis),
            concentration=(
                traffic_concentration(scans) if len(scans) else None
            ),
            intensity=scan_intensity(scans) if len(scans) else None,
        ),
        volatility=summaries_from_counts(counts),
        recurrence=RecurrenceReport(
            overall=recurrence_stats(scans),
            by_type=recurrence_by_type(scans),
            institutional_daily=institutional_daily_scanners(scans),
        ),
        churn=ChurnReport(
            curve=curve,
            fit=fit_population_curve(curve) if curve[-1] > 0 else None,
        ),
    )
