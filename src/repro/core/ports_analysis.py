"""Port-targeting analyses (§5.1–5.2, Figure 3).

Covers: ports-per-source distributions, alias-port affinity (80→8080),
port-space coverage above a noise floor, vertical-scan counting, and the
speed-vs-ports and service-density correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._util.stats import empirical_cdf, fraction_at_most, pearson_r, run_starts
from repro.core.campaigns import ScanTable
from repro.core.pipeline import PeriodAnalysis
from repro.telescope.packet import PacketBatch

PRIVILEGED_PORT_MAX = 1023


def source_port_pairs(batch: PacketBatch) -> np.ndarray:
    """Distinct ``(src_ip << 16) | dst_port`` keys of ``batch``, ascending.

    Sorted in place, then deduplicated by runs: ``np.unique`` without
    counts takes NumPy >= 2.3's hash path, many times slower on these keys.
    """
    pairs = batch.src_ip.astype(np.uint64)
    pairs <<= np.uint64(16)
    pairs |= batch.dst_port
    pairs.sort()
    return pairs[run_starts(pairs)]


def ports_per_source(batch: PacketBatch) -> np.ndarray:
    """Distinct destination ports per source IP (Figure 3's variable),
    in ascending source order."""
    sources = source_port_pairs(batch) >> np.uint64(16)
    return np.diff(np.append(run_starts(sources), sources.size))


@dataclass(frozen=True)
class PortsPerSourceSummary:
    """Headline statistics of the Figure 3 CDF."""

    sources: int
    fraction_single_port: float
    fraction_at_least_3: float
    fraction_at_least_5: float
    fraction_more_than_10: float
    cdf: Tuple[np.ndarray, np.ndarray]


def ports_per_source_summary(batch: PacketBatch) -> PortsPerSourceSummary:
    """Summarise the distinct-ports-per-source distribution."""
    counts = ports_per_source(batch)
    if counts.size == 0:
        empty = (np.array([]), np.array([]))
        return PortsPerSourceSummary(0, 0.0, 0.0, 0.0, 0.0, empty)
    return PortsPerSourceSummary(
        sources=int(counts.size),
        fraction_single_port=float(np.mean(counts == 1)),
        fraction_at_least_3=float(np.mean(counts >= 3)),
        fraction_at_least_5=float(np.mean(counts >= 5)),
        fraction_more_than_10=float(np.mean(counts > 10)),
        cdf=empirical_cdf(counts),
    )


def port_pair_affinity(scans: ScanTable, primary: int, companion: int) -> float:
    """P(scan also targets ``companion`` | scan targets ``primary``).

    The paper's 80→8080 coupling: 18% in 2015 rising to 87% by 2020 (§5.1).
    Returns NaN when no scan targets ``primary``.
    """
    with_primary = 0
    with_both = 0
    for ports in scans.port_sets:
        # port_sets are sorted arrays; searchsorted membership is O(log n).
        idx = np.searchsorted(ports, primary)
        if idx < ports.size and ports[idx] == primary:
            with_primary += 1
            jdx = np.searchsorted(ports, companion)
            if jdx < ports.size and ports[jdx] == companion:
                with_both += 1
    if with_primary == 0:
        return float("nan")
    return with_both / with_primary


@dataclass(frozen=True)
class PortSpaceCoverage:
    """How much of the port range receives meaningful probing (§5.1)."""

    probed_ports: int                 # ports above the noise floor
    probed_privileged: int            # of which privileged (1–1023)
    privileged_fraction: float
    min_probes_per_day_all_ports: float  # the "all ports > 1,000/day" check
    noise_floor: float


def port_space_coverage(
    analysis: PeriodAnalysis, noise_floor_fraction: float = 0.01
) -> PortSpaceCoverage:
    """Coverage of the port space above a noise floor.

    ``noise_floor_fraction`` mirrors the paper's "above a 1% noise floor
    level": a port counts as probed when its daily probe count exceeds that
    fraction of the *mean* per-port daily rate.
    """
    if not 0.0 <= noise_floor_fraction < 1.0:
        raise ValueError("noise_floor_fraction must be in [0, 1)")
    batch = analysis.study_batch
    if len(batch) == 0:
        return PortSpaceCoverage(0, 0, 0.0, 0.0, 0.0)
    ports, counts = np.unique(batch.dst_port, return_counts=True)
    per_day = counts / analysis.days
    floor = noise_floor_fraction * per_day.mean()
    probed = per_day > floor
    privileged = probed & (ports <= PRIVILEGED_PORT_MAX)
    # Minimum across the entire range counts unprobed ports as zero.
    min_all = float(per_day.min()) if ports.size == 65536 else 0.0
    return PortSpaceCoverage(
        probed_ports=int(probed.sum()),
        probed_privileged=int(privileged.sum()),
        privileged_fraction=float(privileged.sum() / (PRIVILEGED_PORT_MAX)),
        min_probes_per_day_all_ports=min_all,
        noise_floor=float(floor),
    )


@dataclass(frozen=True)
class VerticalScanCounts:
    """Counts of scans above port-count thresholds (§5.2)."""

    total_scans: int
    over_100_ports: int
    over_1000_ports: int
    over_10000_ports: int

    def fraction_over(self, threshold: int) -> float:
        if self.total_scans == 0:
            return 0.0
        value = {
            100: self.over_100_ports,
            1000: self.over_1000_ports,
            10000: self.over_10000_ports,
        }.get(threshold)
        if value is None:
            raise ValueError("threshold must be one of 100, 1000, 10000")
        return value / self.total_scans


def vertical_scan_counts(scans: ScanTable) -> VerticalScanCounts:
    """Count vertical scans at the paper's thresholds."""
    n_ports = scans.n_ports
    return VerticalScanCounts(
        total_scans=len(scans),
        over_100_ports=int(np.count_nonzero(n_ports > 100)),
        over_1000_ports=int(np.count_nonzero(n_ports > 1000)),
        over_10000_ports=int(np.count_nonzero(n_ports > 10000)),
    )


def speed_ports_correlation(scans: ScanTable) -> Tuple[float, float]:
    """Pearson correlation between scan speed and ports targeted (§5.3).

    Computed on log-speed vs log-ports (both heavy-tailed); the paper reports
    R = 0.88.
    """
    if len(scans) < 3:
        return float("nan"), 1.0
    return pearson_r(np.log10(scans.speed_pps), np.log10(scans.n_ports + 1))


def scan_port_intensity(scans: ScanTable) -> Dict[int, int]:
    """Scans-per-port counts (how many scans include each port)."""
    counts: Dict[int, int] = {}
    for ports in scans.port_sets:
        for port in ports.tolist():
            counts[port] = counts.get(port, 0) + 1
    return counts


def tool_port_footprint(scans: ScanTable, tool) -> Tuple[int, float]:
    """Distinct ports ever targeted by one tool's scans (§6.2).

    The paper finds the Mirai fingerprint on 99.6% of all TCP ports by 2020
    as botnet operators re-point the stock scan routine at new exploits.
    Returns ``(distinct_ports, fraction_of_port_space)``.
    """
    tools = scans.tool.astype(str)
    seen = set()
    for i in np.flatnonzero(tools == str(tool)):
        seen.update(int(p) for p in scans.port_sets[i])
    return len(seen), len(seen) / 65536.0


def service_density_correlation(
    scans: ScanTable, open_port_density: Mapping[int, float]
) -> Tuple[float, float]:
    """Correlation between service density and scan intensity (§5.1).

    The paper finds essentially none (R = 0.047): scanners do not
    proportionally target the ports where services actually live.

    Computed as a rank correlation over the full port range: both vectors
    are extremely heavy-tailed, and a plain Pearson over raw counts is
    dominated by whichever single port happens to lead both rankings
    (port 80), which would measure one shared outlier instead of the
    relationship across the port space.
    """
    from scipy import stats as _sps

    intensity = scan_port_intensity(scans)
    if len(intensity) < 3 or len(open_port_density) < 3:
        return float("nan"), 1.0
    x = np.zeros(65536)
    y = np.zeros(65536)
    for port, density in open_port_density.items():
        x[port] = density
    for port, count in intensity.items():
        y[port] = count
    r, p = _sps.spearmanr(x, y)
    return float(r), float(p)
