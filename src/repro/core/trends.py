"""Cross-year trend analyses (§4.2, §5.4 narrative claims).

Everything here consumes several analysed periods at once and quantifies how
the ecosystem *changes*: the collapse of the classic top-port concentration
("in 2015 [22, 80, 8080] accounted for more than one-third of all scanning
packets, eight years later below 3%"), the diversification of the port and
country distributions, and the concentration of traffic in few scans
(Durumeric: 0.28% of scans generate ~80% of traffic; Richter & Berger: full
-IPv4 scans are 27% of traffic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._util.stats import gini_coefficient, pearson_r
from repro.core.campaigns import ScanTable
from repro.core.pipeline import PeriodAnalysis

#: The classic well-known trio of §4.2.
CLASSIC_PORTS = (22, 80, 8080)


def port_share(analysis: PeriodAnalysis, ports: Sequence[int]) -> float:
    """Combined packet share of ``ports`` in one period."""
    batch = analysis.study_batch
    if len(batch) == 0:
        return 0.0
    mask = np.isin(batch.dst_port, np.asarray(ports, dtype=np.uint16))
    return float(mask.mean())


def classic_port_share_trend(
    analyses: Mapping[int, PeriodAnalysis]
) -> Dict[int, float]:
    """Per-year packet share of SSH+HTTP (22, 80, 8080) — §4.2's collapse."""
    return {year: port_share(a, CLASSIC_PORTS) for year, a in analyses.items()}


def entropy_from_counts(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a tally vector.

    The counts must be in a canonical (key-sorted) order — ``np.unique``
    output, or a port histogram's nonzero entries — so the float summation
    order does not depend on how the counts were gathered.
    """
    if counts.size == 0:
        return 0.0
    probs = counts / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


def port_distribution_entropy(analysis: PeriodAnalysis) -> float:
    """Shannon entropy (bits) of the per-port packet distribution.

    Rising entropy over the years is the "scanning blankets the port space"
    diversification in one number.
    """
    batch = analysis.study_batch
    if len(batch) == 0:
        return 0.0
    _, counts = np.unique(batch.dst_port, return_counts=True)
    return entropy_from_counts(counts)


def country_distribution_entropy(analysis: PeriodAnalysis) -> float:
    """Shannon entropy (bits) of the per-country scan distribution (§4.2's
    geographic diversification)."""
    scans = analysis.study_scans
    if len(scans) == 0:
        return 0.0
    _, counts = np.unique(scans.country.astype(str), return_counts=True)
    return entropy_from_counts(counts)


def port_rank_stability(
    a: PeriodAnalysis, b: PeriodAnalysis, top_n: int = 50
) -> float:
    """Overlap of the two periods' top-``top_n`` packet ports (Jaccard).

    Low values between consecutive years are the §4.2 "drastic changes in
    targeted ports".
    """
    def top_ports(analysis: PeriodAnalysis) -> set:
        batch = analysis.study_batch
        if len(batch) == 0:
            return set()
        ports, counts = np.unique(batch.dst_port, return_counts=True)
        order = np.argsort(counts)[::-1][:top_n]
        return {int(p) for p in ports[order]}

    pa, pb = top_ports(a), top_ports(b)
    if not pa and not pb:
        return 1.0
    return len(pa & pb) / len(pa | pb)


@dataclass(frozen=True)
class ConcentrationReport:
    """How unequally traffic is spread over scans."""

    scans: int
    gini: float
    top_1pct_share: float     # packet share of the top 1% of scans
    top_10pct_share: float
    share_for_80pct: float    # fraction of scans carrying 80% of packets


def concentration_from_packets(per_scan_packets: np.ndarray) -> ConcentrationReport:
    """Concentration report from a per-scan packet-count vector.

    The body of :func:`traffic_concentration`; the input need not be
    sorted.
    """
    if per_scan_packets.size == 0:
        raise ValueError("no scans to analyse")
    packets = np.sort(per_scan_packets.astype(float))[::-1]
    total = packets.sum()
    cumulative = np.cumsum(packets)

    def top_share(fraction: float) -> float:
        k = max(1, int(round(fraction * packets.size)))
        return float(cumulative[k - 1] / total)

    # Float round-off can leave ``0.8 * total`` above ``cumulative[-1]``
    # (``total`` comes from pairwise summation, the cumsum is sequential),
    # in which case ``searchsorted`` returns ``size`` and the share would
    # exceed 1.0 — clamp to the last index: 100% of scans always suffice.
    index = min(int(np.searchsorted(cumulative, 0.8 * total)),
                packets.size - 1)
    return ConcentrationReport(
        scans=int(packets.size),
        gini=gini_coefficient(packets),
        top_1pct_share=top_share(0.01),
        top_10pct_share=top_share(0.10),
        share_for_80pct=(index + 1) / packets.size,
    )


def traffic_concentration(scans: ScanTable) -> ConcentrationReport:
    """Concentration of scan traffic (the Durumeric/Richter-Berger skew).

    At simulation scale the per-campaign hit cap bounds the extreme tail, so
    absolute numbers are milder than the paper's 0.28%→80%; the qualitative
    skew (a small head carries most packets) remains.
    """
    if len(scans) == 0:
        raise ValueError("no scans to analyse")
    return concentration_from_packets(scans.packets)


@dataclass(frozen=True)
class IntensityReport:
    """§5.3's per-scan intensity and duration statistics for one period."""

    scans: int
    median_packets: float
    mean_packets: float
    median_duration_s: float
    mean_duration_s: float


def scan_intensity(scans: ScanTable) -> IntensityReport:
    """Per-scan packets and wall-clock duration (§5.3's 'scans used to get
    more intensive and take longer, but are increasingly spread out').

    The means are pairwise float sums, so they depend on the row order;
    the paper report passes tables in their canonical ``(src_ip, start)``
    order.
    """
    if len(scans) == 0:
        raise ValueError("no scans to analyse")
    packets, duration = scans.packets, scans.duration
    return IntensityReport(
        scans=int(packets.size),
        median_packets=float(np.median(packets)),
        mean_packets=float(packets.mean()),
        median_duration_s=float(np.median(duration)),
        mean_duration_s=float(duration.mean()),
    )


@dataclass(frozen=True)
class TrendLine:
    """A per-year metric with its Pearson trend."""

    years: Tuple[int, ...]
    values: Tuple[float, ...]
    r: float
    p: float


def metric_trend(per_year: Mapping[int, float]) -> TrendLine:
    """Fit a Pearson trend to a year → value mapping."""
    if len(per_year) < 2:
        raise ValueError("a trend needs at least two years")
    years = tuple(sorted(per_year))
    values = tuple(float(per_year[y]) for y in years)
    r, p = pearson_r(years, values)
    return TrendLine(years=years, values=values, r=r, p=p)
