"""Ecosystem volatility (§4.4, Figure 2).

Aggregates scanning activity per source /16 netblock per week and measures
week-over-week change factors for three metrics: participating source IPs,
scans launched, and packets sent.  The paper's headline: in more than half of
the /16s, activity changes by a factor of 2 or more from one week to the
next; only 20–30% of netblocks are stable.

The per-(block, week) counting is factored into *sparse tallies* — packed
``(block << 32) | week`` keys with ``int64`` multiplicities — plus a pure
:func:`dense_weekly_counts` finaliser.  The accumulator
:class:`repro.stream.analyses.IncrementalVolatility` builds the packet and
source tallies window by window, and the analysis suite adds the final
scan table's :func:`scan_weekly_tally` when it finalises;
:func:`volatility_summary` is the volatility section of
:func:`~repro.core.report.paper_report`, which runs that suite over the
whole period as one window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro._util.stats import empirical_cdf, run_starts
from repro.core.campaigns import ScanTable
from repro.core.churn import day_index
from repro.core.pipeline import PeriodAnalysis
from repro.telescope.addresses import slash16_of

#: Metrics tracked per netblock per week.
METRICS = ("sources", "scans", "packets")

#: A sparse per-(block, week) tally: packed keys plus multiplicities.
SparseTally = Tuple[np.ndarray, np.ndarray]


def week_index(day: np.ndarray, n_weeks: int) -> np.ndarray:
    """Week of each day index, clamped into ``[0, n_weeks)``.

    ``day`` comes from :func:`~repro.core.churn.day_index`, the exact floor
    of ``t / 86400``, so ``day // 7`` is exactly ``t // 604800``.
    """
    return np.minimum(day // 7, n_weeks - 1)


def pack_block_week(blocks: np.ndarray, weeks: np.ndarray) -> np.ndarray:
    """Pack (/16 block, week) pairs into one sortable ``int64`` key.

    The week occupies the low 32 bits — wide enough for any horizon (the
    previous 8-bit packing silently collided past week 255, i.e. on any
    trace longer than ~5 years).  A /16 block index is 16 bits, so the
    mask bounds the shifted operand without changing any value.
    """
    return (
        (blocks.astype(np.int64) & np.int64(0xFFFF)) << np.int64(32)
    ) | weeks.astype(np.int64)


def packet_weekly_tally(
    src: np.ndarray, week: np.ndarray, packets: np.ndarray
) -> SparseTally:
    """Sparse per-(block, week) packet counts of one window.

    Rows are ``(source, week)`` with their packet counts — a window's
    distinct (source, day) pairs (:func:`~repro.core.churn.source_days`),
    not its packets.
    """
    keys = pack_block_week(slash16_of(src), week)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = run_starts(keys)
    return keys[starts], np.add.reduceat(packets[order], starts)


def scan_weekly_tally(scans: ScanTable, n_weeks: int) -> SparseTally:
    """Sparse per-(block, week) scan counts (by scan start time)."""
    if len(scans) == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty.copy()
    weeks = week_index(day_index(scans.start), n_weeks)
    blocks = slash16_of(scans.src_ip).astype(np.int64)
    return np.unique(pack_block_week(blocks, weeks), return_counts=True)


def dense_weekly_counts(
    blocks_all: np.ndarray,
    n_weeks: int,
    tallies: Mapping[str, SparseTally],
) -> Dict[str, np.ndarray]:
    """Scatter sparse per-(block, week) tallies into dense matrices.

    ``blocks_all`` is the sorted distinct /16 index (packet-derived; tally
    entries for blocks outside it — scans from blocks that sent no packets —
    are dropped, matching the batch semantics).  Returns the
    ``{metric: (n_blocks, n_weeks) int64}`` dict plus the block index under
    ``'blocks'``.
    """
    n_blocks = int(blocks_all.size)
    out: Dict[str, np.ndarray] = {
        metric: np.zeros((n_blocks, n_weeks), dtype=np.int64)
        for metric in METRICS
    }
    out["blocks"] = blocks_all.astype(np.int64)
    if n_blocks == 0:
        return out
    for metric in METRICS:
        keys, counts = tallies[metric]
        if keys.size == 0:
            continue
        blocks = keys >> np.int64(32)
        weeks = (keys & np.int64(0xFFFFFFFF)).astype(np.int64)
        present = np.isin(blocks, blocks_all)
        rows = np.searchsorted(blocks_all, blocks[present])
        out[metric][rows, weeks[present]] += counts[present]
    return out


def weekly_change_factors(series: np.ndarray) -> np.ndarray:
    """Week-over-week change factors for one metric.

    For each netblock and consecutive week pair where the block is active in
    at least one of the two weeks, the factor is ``max(a, b) / min(a, b)``
    (``inf`` when one side is zero).  A factor of 1 means perfectly stable.
    """
    if series.ndim != 2:
        raise ValueError("series must be (n_blocks, n_weeks)")
    if series.shape[1] < 2:
        return np.array([], dtype=float)
    a = series[:, :-1].astype(float)
    b = series[:, 1:].astype(float)
    active = (a > 0) | (b > 0)
    hi = np.maximum(a, b)[active]
    lo = np.minimum(a, b)[active]
    with np.errstate(divide="ignore"):
        return np.where(lo > 0, hi / lo, np.inf)


@dataclass(frozen=True)
class VolatilitySummary:
    """Figure 2's CDF data plus headline fractions for one metric."""

    metric: str
    pairs: int
    fraction_stable: float        # factor <= 1.25 ("do more or less the same")
    fraction_at_least_2x: float
    fraction_at_least_3x: float
    cdf: Tuple[np.ndarray, np.ndarray]


def weeks_in_period(days: float) -> int:
    """Week count the volatility analysis uses for a period of ``days``."""
    return max(2, int(np.ceil(days / 7.0)))


def summaries_from_counts(
    counts: Mapping[str, np.ndarray]
) -> Dict[str, VolatilitySummary]:
    """Per-metric weekly-change summaries from dense weekly counts.

    The finaliser of :meth:`repro.stream.analyses.IncrementalVolatility.finalize_counts`'s
    dense counts.
    """
    out: Dict[str, VolatilitySummary] = {}
    for metric in METRICS:
        factors = weekly_change_factors(counts[metric])
        if factors.size == 0:
            out[metric] = VolatilitySummary(metric, 0, 0.0, 0.0, 0.0,
                                            (np.array([]), np.array([])))
            continue
        finite = factors[np.isfinite(factors)]
        out[metric] = VolatilitySummary(
            metric=metric,
            pairs=int(factors.size),
            fraction_stable=float(np.mean(factors <= 1.25)),
            fraction_at_least_2x=float(np.mean(factors >= 2.0)),
            fraction_at_least_3x=float(np.mean(factors >= 3.0)),
            cdf=empirical_cdf(finite),
        )
    return out


def volatility_summary(analysis: PeriodAnalysis) -> Dict[str, VolatilitySummary]:
    """Per-metric weekly-change summaries over the period (Figure 2)."""
    # Imported here: repro.core.report imports this module.
    from repro.core.report import paper_report

    return paper_report(analysis).volatility
