"""Per-year ecosystem statistics (Table 1, §4.1).

Summarises a :class:`~repro.core.pipeline.PeriodAnalysis` into the metrics of
the paper's Table 1: packets/day, scans/month, the five most-targeted ports
by packets, by sources and by scans, and tool shares; plus the growth-factor
arithmetic of §4.1 (the "30-fold in ten years" headline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.pipeline import PeriodAnalysis
from repro.core.ports_analysis import source_port_pairs
from repro.scanners.base import Tool


@dataclass(frozen=True)
class PortShare:
    """One entry of a top-ports ranking."""

    port: int
    share: float

    def __str__(self) -> str:
        return f"{self.port} ({self.share * 100:.1f}%)"


@dataclass(frozen=True)
class YearSummary:
    """Table 1's row set for one year."""

    year: int
    packets_per_day: float
    scans_per_month: float
    distinct_sources: int
    top_ports_by_packets: Tuple[PortShare, ...]
    top_ports_by_sources: Tuple[PortShare, ...]
    top_ports_by_scans: Tuple[PortShare, ...]
    tool_shares_by_scans: Mapping[Tool, float]
    tool_shares_by_packets: Mapping[Tool, float]


def top_ports_by_packets(analysis: PeriodAnalysis, k: int = 5) -> List[PortShare]:
    """Ports ranked by packet volume (study view)."""
    batch = analysis.study_batch
    if len(batch) == 0:
        return []
    ports, counts = np.unique(batch.dst_port, return_counts=True)
    order = np.argsort(counts)[::-1][:k]
    total = len(batch)
    return [PortShare(int(ports[i]), counts[i] / total) for i in order]


def top_ports_by_sources(analysis: PeriodAnalysis, k: int = 5) -> List[PortShare]:
    """Ports ranked by the number of distinct sources probing them.

    Shares are fractions of all distinct sources (they need not sum to 1 —
    a source probing several ports counts towards each).
    """
    batch = analysis.study_batch
    if len(batch) == 0:
        return []
    ports = (source_port_pairs(batch) & np.uint64(0xFFFF)).astype(np.int64)
    port_values, counts = np.unique(ports, return_counts=True)
    order = np.argsort(counts)[::-1][:k]
    total_sources = analysis.distinct_sources
    return [
        PortShare(int(port_values[i]), counts[i] / max(total_sources, 1))
        for i in order
    ]


def top_ports_by_scans(analysis: PeriodAnalysis, k: int = 5) -> List[PortShare]:
    """Ports ranked by the number of scans whose port set includes them."""
    scans = analysis.study_scans
    if len(scans) == 0:
        return []
    counts: Dict[int, int] = {}
    for ports in scans.port_sets:
        for port in ports.tolist():
            counts[port] = counts.get(port, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)[:k]
    return [PortShare(port, count / len(scans)) for port, count in ranked]


def summarize_period(analysis: PeriodAnalysis, top_k: int = 5) -> YearSummary:
    """Build the Table 1 row set for one analysed period."""
    scans = analysis.study_scans
    return YearSummary(
        year=analysis.year,
        packets_per_day=analysis.packets_per_day,
        scans_per_month=analysis.scans_per_month,
        distinct_sources=analysis.distinct_sources,
        top_ports_by_packets=tuple(top_ports_by_packets(analysis, top_k)),
        top_ports_by_sources=tuple(top_ports_by_sources(analysis, top_k)),
        top_ports_by_scans=tuple(top_ports_by_scans(analysis, top_k)),
        tool_shares_by_scans=scans.tool_shares_by_scans(),
        tool_shares_by_packets=scans.tool_shares_by_packets(),
    )


@dataclass(frozen=True)
class GrowthReport:
    """The §4.1 growth arithmetic between the first and last study year."""

    first_year: int
    last_year: int
    packet_growth: float     # "30-fold" in the paper
    scan_growth: float       # "factor of 39"
    intensity_first: float   # packets per scan, first year
    intensity_last: float


def growth_report(summaries: Mapping[int, YearSummary]) -> GrowthReport:
    """Growth factors across the summarised years.

    Raises ``ValueError`` on fewer than two years — growth of a single point
    is meaningless.
    """
    if len(summaries) < 2:
        raise ValueError("growth needs at least two years")
    years = sorted(summaries)
    first, last = summaries[years[0]], summaries[years[-1]]
    if first.packets_per_day <= 0 or first.scans_per_month <= 0:
        raise ValueError("first year has no traffic; cannot compute growth")
    return GrowthReport(
        first_year=first.year,
        last_year=last.year,
        packet_growth=last.packets_per_day / first.packets_per_day,
        scan_growth=last.scans_per_month / first.scans_per_month,
        intensity_first=first.packets_per_day * 30 / first.scans_per_month,
        intensity_last=last.packets_per_day * 30 / last.scans_per_month,
    )


def common_tool_share(summary: YearSummary, by_packets: bool = False) -> float:
    """Share of scans (or packets) attributable to the tracked tools.

    §6.1: 34% of scans in 2015 → 54% in 2020; 25% of packets in 2015 → 92%
    in 2020; under 40% of packets by 2024.
    """
    shares = (
        summary.tool_shares_by_packets if by_packets else summary.tool_shares_by_scans
    )
    return sum(v for t, v in shares.items() if t != Tool.UNKNOWN)
