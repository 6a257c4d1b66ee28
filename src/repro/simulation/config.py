"""Per-year ecosystem calibration (2015–2024).

Every aggregate the paper publishes — Table 1's volumes, port ranks and tool
shares, Table 2's scanner-type shares, the narrative statistics of Sections
4–6 — is encoded here as *generator parameters*.  The analysis pipeline never
reads this module; it recovers the aggregates from packets alone, and the
benchmarks compare what it recovers against the paper's numbers.

Calibration sources (published values are read from :mod:`repro.paper`):

* Packets/day, scans/month, tool-shares-by-scans: Table 1 verbatim.
* Port weights: Table 1's top-5 cells by packets and by sources (garbled
  cells cleaned), then calibration-only ports.
* Single-port share and 80→8080 alias adoption: §5.1's anchor years; the
  years between them are interpolated here.
* Packet shares per tool: §6.1 gives exact 2020/2022 values; other years are
  interpolated consistent with the narrative (custom tooling dominant in
  2015, Masscan dominant 2018–2022, de-fingerprinting from 2023).
* Institutional packet share: Appendix A reports known scanners at ~51% of
  telescope traffic in 2023/2024; earlier years ramp up so the volume-
  weighted average lands near Table 2's 32.6%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import ALL_YEARS, paper
from repro._util.rng import RandomState, as_generator
from repro._util.validate import check_fraction, check_positive
from repro.enrichment.types import ScannerType
from repro.scanners.base import Tool
from repro.simulation.ports import PortsPerScanModel

#: Default measurement-period length in days (paper windows: 29–61 days).
DEFAULT_PERIOD_DAYS = 30

#: Default fraction of real-world volume simulated (see DESIGN.md, Scaling).
DEFAULT_MAX_PACKETS = 1_500_000


@dataclass(frozen=True)
class SpeedSpec:
    """Log-normal Internet-wide probe-rate distribution for a cohort.

    ``floor_pps`` enforces the campaign-detection threshold (§3.4: scans
    below 100 pps Internet-wide are not classified as Internet-wide scans,
    so the simulator does not spend budget on them).
    """

    median_pps: float
    sigma: float
    floor_pps: float = 120.0
    cap_pps: float = 3.0e6

    def sample(self, rng: RandomState, size: int, multiplier: float = 1.0) -> np.ndarray:
        check_positive("multiplier", multiplier)
        generator = as_generator(rng)
        draws = generator.lognormal(
            mean=np.log(self.median_pps * multiplier), sigma=self.sigma, size=size
        )
        return np.clip(draws, self.floor_pps, self.cap_pps)


@dataclass(frozen=True)
class ShardingSpec:
    """How often (and how widely) campaigns are split over multiple hosts.

    ``prob_sharded`` campaigns are split into ``1 + Geometric(mean_extra)``
    source IPs; the rest stay single-source.  Reproduces the post-2021 jump
    in scan counts without packet growth (§4.1) and the coverage modes of
    §6.4.
    """

    prob_sharded: float = 0.0
    mean_extra_shards: float = 0.0

    def __post_init__(self) -> None:
        if self.prob_sharded > 0 and self.mean_extra_shards < 1.0:
            raise ValueError("mean_extra_shards must be >= 1 when sharding is on")

    def sample_shards(self, rng: RandomState, size: int) -> np.ndarray:
        generator = as_generator(rng)
        shards = np.ones(size, dtype=np.int64)
        if self.prob_sharded > 0:
            sharded = generator.random(size) < self.prob_sharded
            n = int(sharded.sum())
            if n:
                # Geometric with mean ``mean_extra_shards`` extra sources, so
                # a sharded campaign always has at least two.
                p = 1.0 / self.mean_extra_shards
                shards[sharded] = 1 + generator.geometric(p, size=n)
        return np.minimum(shards, 256)

    def mean_shards(self) -> float:
        """Expected sources per logical campaign."""
        return 1.0 + self.prob_sharded * self.mean_extra_shards


@dataclass(frozen=True)
class CohortConfig:
    """One actor population within a year.

    ``scan_share`` is this cohort's fraction of *observed scans* (per-source
    campaigns, i.e. shards count individually); ``packet_share`` its fraction
    of the non-background, non-institutional packet budget.
    """

    name: str
    scanner_type: ScannerType
    scan_share: float
    packet_share: float
    tool_weights: Mapping[Tool, float]
    port_weights: Mapping[int, float]
    tail_fraction: float
    ports_per_scan: PortsPerScanModel
    speed: SpeedSpec
    country_weights: Mapping[str, float]
    alias_adoption: float = 0.0
    sharding: ShardingSpec = ShardingSpec()
    tool_speed_multiplier: Mapping[Tool, float] = field(
        default_factory=lambda: {
            Tool.ZMAP: 4.0,
            Tool.MASSCAN: 1.0,
            Tool.NMAP: 1.6,
            Tool.MIRAI: 0.4,
            Tool.UNICORN: 0.8,
            Tool.UNKNOWN: 0.9,
        }
    )
    pareto_alpha: float = 1.08
    sequential_fraction: float = 0.0
    recurrence_probability: float = 0.08
    #: Relative campaign-size multiplier per tool (masscan scans carry more
    #: traffic than the numerous small sharded ZMap scans, §4.1/§6.1).
    tool_packet_bias: Mapping[Tool, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fraction("scan_share", self.scan_share)
        check_fraction("packet_share", self.packet_share)
        check_fraction("tail_fraction", self.tail_fraction)
        check_fraction("alias_adoption", self.alias_adoption)
        check_fraction("sequential_fraction", self.sequential_fraction)
        check_fraction("recurrence_probability", self.recurrence_probability)
        total = sum(self.tool_weights.values())
        if total <= 0:
            raise ValueError(f"cohort {self.name}: tool weights must sum > 0")


@dataclass(frozen=True)
class DisclosureEvent:
    """A vulnerability disclosure triggering a scanning spike (Figure 1).

    ``magnitude`` multiplies the port's baseline campaign arrival rate at the
    disclosure; the surge decays exponentially with ``decay_days`` half-life,
    matching the paper's "activity skyrockets ... and is as quickly
    forgotten" (§4.3).
    """

    name: str
    port: int
    day_offset: int
    magnitude: float = 30.0
    decay_days: float = 5.0

    def surge_factor(self, days_since: float) -> float:
        """Extra activity multiplier ``days_since`` days after disclosure."""
        if days_since < 0:
            return 0.0
        return self.magnitude * 0.5 ** (days_since / self.decay_days)


@dataclass(frozen=True)
class InstitutionalActivity:
    """Year-level knobs for the acknowledged-scanner population."""

    packet_share: float
    scan_share: float
    #: Fraction of institutional ZMap instances still running the
    #: fingerprintable build (IP-ID 54321); drops sharply in 2023/24.
    fingerprintable_fraction: float = 1.0
    #: Days an organisation takes to rotate through its covered port range.
    rotation_days: int = 7
    #: Port weights for the *named-port* share of institutional traffic
    #: (443 is predominantly institutional, §5.4 / Figure 5).
    port_weights: Mapping[int, float] = field(
        default_factory=lambda: {443: 0.5, 80: 0.2, 22: 0.1, 3390: 0.2}
    )
    #: Fraction of institutional traffic aimed at the named ports above; the
    #: rest sweeps the rotating port chunks.
    named_port_fraction: float = 0.2


@dataclass(frozen=True)
class YearConfig:
    """Full generator parameterisation for one calendar year."""

    year: int
    days: int
    packets_per_day: float          # real-world telescope packets/day (Table 1)
    scans_per_month: float          # real-world observed scans/month (Table 1)
    background_packet_fraction: float
    background_port_weights: Mapping[int, float]
    background_tail_fraction: float
    background_country_weights: Mapping[str, float]
    cohorts: Sequence[CohortConfig]
    institutional: InstitutionalActivity
    events: Sequence[DisclosureEvent] = ()
    port_country_overrides: Mapping[int, Mapping[str, float]] = field(default_factory=dict)
    #: Mean telescope hits per *background* (sub-threshold) source.
    background_mean_hits: float = 4.0
    #: Fraction of background sources carrying the Mirai fingerprint (0
    #: before the August 2016 source release; dominant afterwards, §4.2).
    background_mirai_fraction: float = 0.5
    #: Probability a background source probes more than one port (tracks the
    #: Figure 3 single-port decline).
    background_multi_port_prob: float = 0.2
    #: Backscatter (DDoS-victim responses) as a fraction of all unsolicited
    #: TCP traffic: the rest of ``paper.SYN_SCAN_SHARE``, written out because
    #: ``1 - 0.98`` is not ``0.02`` in binary floating point.
    backscatter_fraction: float = 0.02

    def scaled(self, max_packets: int = DEFAULT_MAX_PACKETS) -> "ScaledYear":
        """Derive simulation-scale quantities for this year.

        The scale factor is chosen so the simulated period holds at most
        ``max_packets`` telescope packets; all reported volumes must be
        divided by ``scale`` to compare against the paper.
        """
        check_positive("max_packets", max_packets)
        real_period_packets = self.packets_per_day * self.days
        scale = min(5e-3, max_packets / real_period_packets)
        return ScaledYear(config=self, scale=scale)


@dataclass(frozen=True)
class ScaledYear:
    """A :class:`YearConfig` with its simulation scale resolved."""

    config: YearConfig
    scale: float

    @property
    def period_packets(self) -> float:
        return self.config.packets_per_day * self.config.days * self.scale

    @property
    def period_scans(self) -> float:
        return self.config.scans_per_month * (self.config.days / 30.0) * self.scale


# ---------------------------------------------------------------------------
# Calibration data
# ---------------------------------------------------------------------------

def _with_top5(
    top5: Mapping[int, Mapping[int, float]], more: Dict[int, Dict[int, float]]
) -> Dict[int, Dict[int, float]]:
    """Per year, Table 1's top-5 port cells followed by calibration-only ports."""
    return {year: {**top5[year], **ports} for year, ports in more.items()}


#: Port weights for packet volume: Table 1's top-5 cells by packets, then
#: calibration-only ports (23/445 appear pre-block only and are excluded
#: from analyses, as in §3.2).
_PORT_PACKET_WEIGHTS = _with_top5(paper.TOP_PORTS_BY_PACKETS, {
    2015: {23: 10.0, 445: 8.0, 21: 3.0, 1433: 2.5, 3306: 2.0, 25: 2.0, 5900: 1.5,
           110: 1.0, 8443: 0.8},
    2016: {23: 12.0, 445: 9.0, 21: 4.0, 2323: 2.0, 3306: 2.0, 443: 2.0, 5900: 1.2},
    2017: {7547: 5.0, 23231: 3.0, 80: 3.0, 8080: 2.5, 81: 2.0, 3389: 2.0, 443: 1.5},
    2018: {8291: 2.5, 2323: 1.5, 21: 1.2, 81: 0.8, 5555: 0.8, 443: 0.7},
    2019: {2323: 1.2, 5555: 1.0, 443: 0.9, 5900: 0.8, 8443: 0.6, 1433: 0.6},
    2020: {5555: 0.7, 443: 0.6, 2323: 0.6, 1433: 0.5, 8443: 0.4},
    2021: {443: 0.7, 81: 0.6, 5555: 0.6, 2323: 0.5},
    2022: {8080: 1.0, 3389: 0.9, 81: 0.6, 5555: 0.6, 6379: 0.5},
    2023: {2323: 0.9, 52869: 0.7, 60023: 0.7, 81: 0.5, 5555: 0.5},
    2024: {2323: 0.7, 5900: 0.7, 81: 0.5, 5555: 0.5, 3306: 0.5},
})

#: Uniform-tail mass over the whole port range (port-space blanketing, §5.1).
_PORT_PACKET_TAIL: Dict[int, float] = {
    2015: 0.08, 2016: 0.10, 2017: 0.12, 2018: 0.40, 2019: 0.45,
    2020: 0.55, 2021: 0.60, 2022: 0.65, 2023: 0.72, 2024: 0.72,
}

#: Port weights for *source* counts: Table 1's top-5 cells by sources,
#: then calibration-only ports.
_PORT_SOURCE_WEIGHTS = _with_top5(paper.TOP_PORTS_BY_SOURCES, {
    2015: {22: 2.0, 23: 8.0, 445: 6.0, 21: 1.5, 443: 1.0},
    2016: {23: 15.0, 445: 8.0, 22: 1.5, 2323: 1.0},
    2017: {80: 2.0, 8080: 1.5, 81: 1.0},
    2018: {8080: 4.0, 5555: 3.0, 81: 2.0},
    2019: {81: 5.0, 443: 2.0, 60001: 1.0},
    2020: {5900: 4.0, 443: 2.0},
    2021: {2323: 6.0, 5900: 3.0},
    2022: {2323: 6.0, 2375: 2.0, 2376: 2.0},
    2023: {5555: 6.0, 81: 4.0, 443: 3.0},
    2024: {5555: 5.0, 81: 4.0, 22: 3.0},
})

#: Packet shares of the non-institutional campaign budget per cohort.
#: (hosting_fast, residential_botnet, enterprise, residual)
_COHORT_PACKET_SHARES: Dict[int, Tuple[float, float, float]] = {
    #      hosting  botnet  enterprise   (residual = 1 - sum)
    2015: (0.18,    0.00,   0.05),
    2016: (0.28,    0.00,   0.05),
    2017: (0.20,    0.38,   0.05),
    2018: (0.60,    0.13,   0.05),
    2019: (0.65,    0.09,   0.05),
    2020: (0.80,    0.04,   0.04),
    2021: (0.82,    0.02,   0.04),
    2022: (0.82,    0.01,   0.04),
    2023: (0.55,    0.05,   0.05),
    2024: (0.45,    0.02,   0.05),
}

#: Ports-per-scan mixtures (Figure 3 calibration); the single-port share
#: meets §5.1's anchors in 2015, 2020 and 2022.
_PORTS_PER_SCAN: Dict[int, PortsPerScanModel] = {
    2015: PortsPerScanModel(paper.SINGLE_PORT_FRACTION[2015], 0.1498, 0.0195, 0.00068, 0.00002),
    2016: PortsPerScanModel(0.820, 0.1555, 0.0235, 0.00095, 0.00005),
    2017: PortsPerScanModel(0.800, 0.1680, 0.0300, 0.00190, 0.00010),
    2018: PortsPerScanModel(0.780, 0.1790, 0.0380, 0.00250, 0.00050),
    2019: PortsPerScanModel(0.760, 0.1850, 0.0500, 0.00400, 0.00100),
    2020: PortsPerScanModel(paper.SINGLE_PORT_FRACTION[2020], 0.1800, 0.0700, 0.00520, 0.00480),
    2021: PortsPerScanModel(0.700, 0.2060, 0.0850, 0.00800, 0.00100),
    2022: PortsPerScanModel(paper.SINGLE_PORT_FRACTION[2022], 0.2400, 0.1000, 0.00900, 0.00100),
    2023: PortsPerScanModel(0.620, 0.2550, 0.1150, 0.00900, 0.00100),
    2024: PortsPerScanModel(0.580, 0.2500, 0.1500, 0.01800, 0.00200),
}

#: Country mixes for the residual (unattributed) cohorts.
_RESIDUAL_COUNTRIES: Dict[int, Dict[str, float]] = {
    2015: {"CN": 0.31, "US": 0.22, "KR": 0.06, "TW": 0.05, "RU": 0.05,
           "BR": 0.04, "DE": 0.03, "JP": 0.03, "IN": 0.03, "NL": 0.02,
           "FR": 0.02, "GB": 0.02, "VN": 0.02, "TR": 0.02, "UA": 0.02},
    2016: {"CN": 0.30, "US": 0.22, "RU": 0.06, "BR": 0.05, "KR": 0.04,
           "TW": 0.04, "IN": 0.04, "VN": 0.03, "DE": 0.03, "NL": 0.02,
           "TR": 0.02, "UA": 0.02, "JP": 0.02},
    2017: {"CN": 0.22, "US": 0.12, "BR": 0.08, "RU": 0.06, "IN": 0.06,
           "VN": 0.05, "TR": 0.04, "IR": 0.04, "KR": 0.04, "TW": 0.03,
           "ID": 0.03, "TH": 0.03, "UA": 0.03, "EG": 0.02, "NL": 0.02},
    2018: {"CN": 0.18, "US": 0.10, "RU": 0.09, "BR": 0.08, "IN": 0.06,
           "VN": 0.05, "IR": 0.04, "TR": 0.04, "ID": 0.04, "TW": 0.03,
           "TH": 0.03, "UA": 0.03, "EG": 0.03, "NL": 0.03, "KR": 0.03},
    2019: {"CN": 0.16, "BR": 0.08, "RU": 0.08, "IN": 0.07, "US": 0.06,
           "VN": 0.05, "IR": 0.05, "ID": 0.05, "TR": 0.04, "TW": 0.04,
           "TH": 0.04, "EG": 0.03, "UA": 0.03, "NL": 0.03, "MX": 0.03},
    2020: {"CN": 0.15, "BR": 0.08, "RU": 0.08, "IN": 0.08, "VN": 0.06,
           "IR": 0.06, "ID": 0.06, "US": 0.032, "TW": 0.04, "TR": 0.04,
           "TH": 0.04, "EG": 0.03, "UA": 0.03, "NL": 0.04, "MX": 0.03},
    2021: {"CN": 0.14, "RU": 0.08, "BR": 0.08, "IN": 0.08, "VN": 0.06,
           "IR": 0.05, "ID": 0.05, "US": 0.05, "NL": 0.05, "TW": 0.04,
           "TR": 0.04, "TH": 0.03, "UA": 0.03, "MX": 0.03, "EG": 0.03},
    2022: {"CN": 0.13, "US": 0.08, "RU": 0.07, "BR": 0.07, "IN": 0.07,
           "NL": 0.06, "VN": 0.05, "IR": 0.05, "ID": 0.04, "TW": 0.04,
           "TR": 0.04, "TH": 0.03, "UA": 0.03, "MX": 0.03, "DE": 0.03},
    2023: {"CN": 0.12, "US": 0.09, "NL": 0.08, "RU": 0.06, "BR": 0.06,
           "IN": 0.06, "VN": 0.05, "IR": 0.04, "ID": 0.04, "TW": 0.04,
           "TR": 0.03, "TH": 0.03, "UA": 0.03, "DE": 0.03, "GB": 0.03},
    2024: {"CN": 0.11, "US": 0.09, "NL": 0.09, "RU": 0.06, "BR": 0.06,
           "IN": 0.06, "VN": 0.05, "IR": 0.04, "ID": 0.04, "TW": 0.04,
           "TR": 0.03, "TH": 0.03, "UA": 0.03, "DE": 0.03, "GB": 0.03},
}

#: Hosting-cohort country mixes (Russia's 2018 Masscan surge, NL's rise).
_HOSTING_COUNTRIES: Dict[int, Dict[str, float]] = {
    2015: {"US": 0.35, "DE": 0.15, "NL": 0.12, "FR": 0.10, "RU": 0.08, "GB": 0.08, "SG": 0.06, "CN": 0.06},
    2016: {"US": 0.33, "DE": 0.14, "NL": 0.13, "FR": 0.10, "RU": 0.10, "GB": 0.08, "SG": 0.06, "CN": 0.06},
    2017: {"US": 0.30, "NL": 0.14, "DE": 0.13, "RU": 0.12, "FR": 0.09, "GB": 0.08, "CN": 0.08, "SG": 0.06},
    2018: {"RU": 0.60, "US": 0.12, "NL": 0.08, "DE": 0.06, "FR": 0.04, "GB": 0.04, "CN": 0.04, "SG": 0.02},
    2019: {"US": 0.25, "NL": 0.18, "RU": 0.15, "DE": 0.12, "FR": 0.08, "GB": 0.08, "CN": 0.08, "SG": 0.06},
    2020: {"US": 0.22, "NL": 0.20, "RU": 0.14, "DE": 0.12, "CN": 0.10, "FR": 0.08, "GB": 0.08, "SG": 0.06},
    2021: {"NL": 0.22, "US": 0.20, "RU": 0.13, "DE": 0.12, "CN": 0.11, "FR": 0.08, "GB": 0.08, "SG": 0.06},
    2022: {"NL": 0.24, "US": 0.20, "CN": 0.12, "RU": 0.12, "DE": 0.11, "FR": 0.08, "GB": 0.07, "SG": 0.06},
    2023: {"NL": 0.26, "US": 0.20, "CN": 0.12, "DE": 0.11, "RU": 0.10, "FR": 0.08, "GB": 0.07, "SG": 0.06},
    2024: {"NL": 0.26, "US": 0.21, "CN": 0.12, "DE": 0.11, "RU": 0.09, "FR": 0.08, "GB": 0.07, "SG": 0.06},
}

#: ZMap geography: "almost exclusively used from China and the US" (§6.5).
_ZMAP_COUNTRIES: Dict[str, float] = {"CN": 0.45, "US": 0.45, "NL": 0.05, "DE": 0.05}

#: Port-specific origin biases (§5.4).  Campaigns whose primary port matches
#: override their cohort's country mix with these weights.
_PORT_COUNTRY_OVERRIDES_BASE: Dict[int, Dict[str, float]] = {
    3389: {"CN": 0.77, "US": 0.05, "RU": 0.05, "KR": 0.04, "BR": 0.03, "NL": 0.03, "TW": 0.03},
    3306: {"CN": 0.85, "US": 0.04, "RU": 0.03, "KR": 0.03, "TW": 0.05},
    8545: {"VN": 0.70, "CN": 0.12, "US": 0.08, "KR": 0.05, "SG": 0.05},
}

#: HTTP (80) origin: US very active 2016–2018, then abandons it (§5.4).
_HTTP_US_SHARE: Dict[int, float] = {
    2015: 0.25, 2016: 0.38, 2017: 0.38, 2018: 0.35, 2019: 0.04,
    2020: 0.04, 2021: 0.05, 2022: 0.06, 2023: 0.07, 2024: 0.07,
}

#: Alias adoption (80→8080 coupling): §5.1's 2015 and 2020 anchors, a
#: ramp between them, then a plateau.
_ALIAS_ADOPTION: Dict[int, float] = {
    2015: paper.AFFINITY_80_8080[2015], 2016: 0.30, 2017: 0.45, 2018: 0.60,
    2019: 0.75, 2020: paper.AFFINITY_80_8080[2020], 2021: 0.87, 2022: 0.88,
    2023: 0.87, 2024: 0.88,
}

#: Sharding growth (collaborative scans, §4.1/§6.4).
_SHARDING: Dict[int, ShardingSpec] = {
    2015: ShardingSpec(0.01, 1.0),
    2016: ShardingSpec(0.01, 1.0),
    2017: ShardingSpec(0.02, 1.0),
    2018: ShardingSpec(0.03, 1.5),
    2019: ShardingSpec(0.04, 1.5),
    2020: ShardingSpec(0.08, 2.0),
    2021: ShardingSpec(0.12, 2.5),
    2022: ShardingSpec(0.30, 4.0),
    2023: ShardingSpec(0.35, 5.0),
    2024: ShardingSpec(0.45, 8.0),
}

#: Mirai-fingerprint share of background sources (none before the August
#: 2016 source release; the 2023 source spike shows in Table 1).
_BACKGROUND_MIRAI: Dict[int, float] = {
    2015: 0.0, 2016: 0.05, 2017: 0.70, 2018: 0.65, 2019: 0.60,
    2020: 0.55, 2021: 0.50, 2022: 0.45, 2023: 0.62, 2024: 0.50,
}

#: Per-tool campaign-size bias inside the hosting cohort: Masscan carries
#: the bulk of the traffic 2018–2022 while post-2022 ZMap scans are small
#: shards of distributed campaigns.
def _hosting_tool_bias(year: int) -> Dict[Tool, float]:
    if year <= 2017:
        return {Tool.MASSCAN: 1.5, Tool.ZMAP: 1.0}
    if year <= 2022:
        return {Tool.MASSCAN: 2.5, Tool.ZMAP: 0.6}
    return {Tool.MASSCAN: 1.0, Tool.ZMAP: 0.35}


#: Institutional activity per year (packet shares ramp to Appendix A's ~51%).
_INSTITUTIONAL: Dict[int, InstitutionalActivity] = {
    2015: InstitutionalActivity(0.05, 0.020),
    2016: InstitutionalActivity(0.07, 0.020),
    2017: InstitutionalActivity(0.08, 0.015),
    2018: InstitutionalActivity(0.10, 0.030),
    2019: InstitutionalActivity(0.12, 0.030),
    2020: InstitutionalActivity(0.15, 0.050),
    2021: InstitutionalActivity(0.20, 0.050),
    2022: InstitutionalActivity(0.28, 0.040),
    2023: InstitutionalActivity(0.50, 0.080, fingerprintable_fraction=0.5),
    2024: InstitutionalActivity(0.50, 0.100, fingerprintable_fraction=0.3),
}

#: Major disclosure events (Figure 1).  Day offsets are within the simulated
#: measurement period; magnitudes follow the "skyrocket then forget" shape.
_EVENTS: Dict[int, Tuple[DisclosureEvent, ...]] = {
    2016: (DisclosureEvent("Redis unauthenticated access", 6379, 8, 35.0, 2.5),),
    2017: (DisclosureEvent("Intel AMT CVE-2017-5689", 16992, 6, 60.0, 3.0),),
    2018: (DisclosureEvent("MikroTik WinBox CVE-2018-14847", 8291, 5, 80.0, 3.0),
           DisclosureEvent("Hadoop YARN ResourceManager", 8088, 12, 25.0, 2.0)),
    2019: (DisclosureEvent("BlueKeep CVE-2019-0708", 3389, 8, 50.0, 3.0),),
    2020: (DisclosureEvent("Citrix ADC CVE-2019-19781", 443, 4, 40.0, 2.5),
           DisclosureEvent("SaltStack CVE-2020-11651", 4506, 14, 30.0, 2.0)),
    2021: (DisclosureEvent("Exchange ProxyLogon", 443, 7, 45.0, 3.0),),
    2022: (DisclosureEvent("Spring4Shell CVE-2022-22965", 8080, 9, 35.0, 2.5),
           DisclosureEvent("Confluence CVE-2022-26134", 8090, 15, 30.0, 2.0)),
    2023: (DisclosureEvent("ESXiArgs ransomware wave", 427, 6, 55.0, 2.5),),
    2024: (DisclosureEvent("Ivanti Connect Secure", 443, 5, 40.0, 2.5),),
}

#: Botnet (Mirai-descendant) port weights per year.
_BOTNET_PORTS: Dict[int, Dict[int, float]] = {
    2017: {2323: 30.0, 5358: 14.0, 7574: 12.0, 6789: 6.0, 7547: 5.0,
           23231: 4.0, 80: 2.0, 8080: 2.0, 81: 1.0},
    2018: {2323: 25.0, 8291: 12.0, 5555: 8.0, 80: 6.0, 8080: 5.0,
           81: 4.0, 52869: 2.0, 60001: 2.0},
    2019: {2323: 22.0, 5555: 14.0, 80: 12.0, 8080: 11.0, 81: 8.0,
           5900: 4.0, 60001: 3.0, 52869: 2.0},
    2020: {80: 16.0, 8080: 13.0, 81: 12.0, 5555: 11.0, 2323: 10.0,
           5900: 4.0, 52869: 3.0, 60001: 2.0},
    2021: {80: 15.0, 8080: 13.0, 5555: 12.0, 81: 9.0, 2323: 8.0,
           8443: 6.0, 5900: 3.0},
    2022: {80: 15.0, 8080: 13.0, 5555: 12.0, 81: 9.0, 2323: 8.0,
           8443: 6.0, 5900: 3.0},
    2023: {52869: 18.0, 60023: 17.0, 2323: 12.0, 80: 10.0, 8080: 9.0,
           5555: 6.0, 81: 4.0},
    2024: {2323: 14.0, 80: 12.0, 8080: 10.0, 5900: 9.0, 5555: 6.0,
           81: 4.0, 52869: 3.0},
}

#: Enterprise cohort port weights (8545/JSON-RPC from 2018, DB ports).
def _enterprise_ports(year: int) -> Dict[int, float]:
    ports = {3306: 8.0, 1433: 6.0, 3389: 5.0, 21: 4.0, 22: 4.0, 25: 3.0,
             5432: 2.0, 6379: 2.0, 9200: 1.5, 11211: 1.5}
    if year >= 2018:
        ports[8545] = 12.0
        ports[2375] = 3.0 if year >= 2021 else 1.0
        ports[2376] = 3.0 if year >= 2021 else 1.0
    return ports


_BOTNET_COUNTRIES: Dict[str, float] = {
    "CN": 0.12, "BR": 0.11, "IN": 0.10, "VN": 0.08, "TR": 0.08, "RU": 0.07,
    "IR": 0.07, "ID": 0.06, "TW": 0.06, "TH": 0.05, "EG": 0.05, "UA": 0.05,
    "MX": 0.04, "AR": 0.03, "KR": 0.03,
}

_ENTERPRISE_COUNTRIES: Dict[str, float] = {
    "CN": 0.30, "US": 0.15, "VN": 0.15, "KR": 0.10, "JP": 0.08,
    "DE": 0.07, "IN": 0.05, "TW": 0.05, "GB": 0.05,
}


def _speed_for(year: int, kind: str) -> SpeedSpec:
    """Cohort speed specs; top-end grows over the years (§6.3)."""
    growth = 1.0 + 0.04 * (year - 2015)  # mild top-end growth
    if kind == "hosting":
        return SpeedSpec(median_pps=900.0, sigma=1.6 + 0.02 * (year - 2015),
                         cap_pps=2.5e6 * growth)
    if kind == "botnet":
        return SpeedSpec(median_pps=260.0, sigma=0.9)
    if kind == "enterprise":
        return SpeedSpec(median_pps=220.0, sigma=0.8)
    if kind == "residual":
        return SpeedSpec(median_pps=500.0, sigma=1.3, cap_pps=1.5e6 * growth)
    raise ValueError(f"unknown speed kind: {kind!r}")


def _nmap_multiplier(year: int) -> float:
    """NMap's per-year speed multiplier: the only tool with an increasing
    speed trend (§6.3, R = 0.12); NMap hosts consistently outpace Masscan
    ones in practice (§6.3's surprise finding)."""
    return 2.3 * (1.0 + 0.03 * (year - 2015))


def _build_cohorts(year: int) -> List[CohortConfig]:
    tool_share = paper.TOOL_SHARES_BY_SCANS[year]
    inst = _INSTITUTIONAL[year]
    mirai_share = tool_share[Tool.MIRAI]
    masscan_share = tool_share[Tool.MASSCAN]
    zmap_share = tool_share[Tool.ZMAP]
    nmap_share = tool_share[Tool.NMAP]

    # Institutional scans run ZMap; the hosting cohort supplies the rest of
    # the observed ZMap share.
    zmap_hosting = max(0.0, zmap_share - inst.scan_share)
    hosting_share = masscan_share + zmap_hosting
    enterprise_share = 0.15
    residual_share = max(
        0.02,
        1.0 - inst.scan_share - mirai_share - hosting_share - enterprise_share,
    )

    hosting_pkts, botnet_pkts, enterprise_pkts = _COHORT_PACKET_SHARES[year]
    residual_pkts = max(0.0, 1.0 - hosting_pkts - botnet_pkts - enterprise_pkts)

    sharding = _SHARDING[year]
    alias = _ALIAS_ADOPTION[year]
    pps_model = _PORTS_PER_SCAN[year]
    tool_mult = {
        Tool.ZMAP: 4.0, Tool.MASSCAN: 1.0, Tool.NMAP: _nmap_multiplier(year),
        Tool.MIRAI: 0.4, Tool.UNICORN: 0.8, Tool.UNKNOWN: 0.9,
    }

    cohorts: List[CohortConfig] = []

    if hosting_share > 0:
        denominator = hosting_share
        cohorts.append(CohortConfig(
            name="hosting_fast",
            scanner_type=ScannerType.HOSTING,
            scan_share=hosting_share,
            packet_share=hosting_pkts,
            tool_weights={
                Tool.MASSCAN: masscan_share / denominator,
                Tool.ZMAP: zmap_hosting / denominator,
            },
            port_weights=_PORT_PACKET_WEIGHTS[year],
            tail_fraction=_PORT_PACKET_TAIL[year],
            ports_per_scan=pps_model,
            speed=_speed_for(year, "hosting"),
            country_weights=_HOSTING_COUNTRIES[year],
            alias_adoption=alias,
            sharding=sharding,
            tool_speed_multiplier=tool_mult,
            pareto_alpha=1.02,
            recurrence_probability=0.15,
            tool_packet_bias=_hosting_tool_bias(year),
        ))

    if mirai_share > 0:
        cohorts.append(CohortConfig(
            name="residential_botnet",
            scanner_type=ScannerType.RESIDENTIAL,
            scan_share=mirai_share,
            packet_share=botnet_pkts,
            tool_weights={Tool.MIRAI: 1.0},
            port_weights=_BOTNET_PORTS.get(year, {2323: 1.0}),
            # Mirai descendants re-point the scan routine at ever more
            # exploits: its port footprint blankets the range by 2020 (§6.2).
            tail_fraction=min(0.35, 0.02 + 0.08 * (year - 2017)),
            ports_per_scan=PortsPerScanModel(0.90, 0.095, 0.005, 0.0, 0.0),
            speed=_speed_for(year, "botnet"),
            country_weights=_BOTNET_COUNTRIES,
            alias_adoption=0.9,  # 23→2323 style coupling is built in
            tool_speed_multiplier=tool_mult,
            pareto_alpha=1.4,
            recurrence_probability=0.02,  # DHCP churn burns addresses
        ))

    cohorts.append(CohortConfig(
        name="enterprise_slow",
        scanner_type=ScannerType.ENTERPRISE,
        scan_share=enterprise_share,
        packet_share=enterprise_pkts,
        tool_weights={Tool.NMAP: min(0.5, nmap_share * 2.0), Tool.UNKNOWN: 1.0},
        port_weights=_enterprise_ports(year),
        tail_fraction=0.05,
        ports_per_scan=pps_model,
        speed=_speed_for(year, "enterprise"),
        country_weights=_ENTERPRISE_COUNTRIES,
        alias_adoption=alias * 0.5,
        tool_speed_multiplier=tool_mult,
        pareto_alpha=1.3,
        sequential_fraction=0.3,
        recurrence_probability=0.05,
    ))

    # Unattributed scanners, split two ways per allocation type:
    #
    # * *small* — the numerous light scans that dominate scan and source
    #   counts; their ports follow the by-sources popularity (Table 1's
    #   "top ports by sources/scans" blocks).
    # * *big* — the few heavy scans that dominate the residual packet
    #   volume; their ports follow the by-packets popularity with the
    #   year's uniform tail, which is what flattens the packet distribution
    #   over the decade (§4.2's classic-port collapse).
    nmap_residual = min(0.9, nmap_share / residual_share) if residual_share else 0.0
    residual_tools = {Tool.NMAP: nmap_residual, Tool.UNKNOWN: 1.0 - nmap_residual}
    for suffix, stype, share_fraction in (
        ("residential", ScannerType.RESIDENTIAL, 0.6),
        ("unknown", ScannerType.UNKNOWN, 0.4),
    ):
        cohorts.append(CohortConfig(
            name=f"residual_{suffix}_small",
            scanner_type=stype,
            scan_share=residual_share * share_fraction * 0.75,
            packet_share=residual_pkts * share_fraction * 0.15,
            tool_weights=residual_tools,
            port_weights=_PORT_SOURCE_WEIGHTS[year],
            tail_fraction=0.10,
            ports_per_scan=pps_model,
            speed=_speed_for(year, "residual"),
            country_weights=_RESIDUAL_COUNTRIES[year],
            alias_adoption=alias,
            tool_speed_multiplier=tool_mult,
            pareto_alpha=1.5,
            sequential_fraction=0.5 if year <= 2017 else 0.2,
            recurrence_probability=0.04 if suffix == "residential" else 0.10,
        ))
        cohorts.append(CohortConfig(
            name=f"residual_{suffix}_big",
            scanner_type=stype,
            scan_share=residual_share * share_fraction * 0.25,
            packet_share=residual_pkts * share_fraction * 0.85,
            tool_weights=residual_tools,
            port_weights=_PORT_PACKET_WEIGHTS[year],
            tail_fraction=_PORT_PACKET_TAIL[year],
            ports_per_scan=pps_model,
            speed=_speed_for(year, "residual"),
            country_weights=_RESIDUAL_COUNTRIES[year],
            alias_adoption=alias,
            tool_speed_multiplier=tool_mult,
            pareto_alpha=1.1,
            sequential_fraction=0.4 if year <= 2017 else 0.15,
            recurrence_probability=0.04 if suffix == "residential" else 0.10,
        ))

    return cohorts


def _port_country_overrides(year: int) -> Dict[int, Dict[str, float]]:
    overrides = {port: dict(mix) for port, mix in _PORT_COUNTRY_OVERRIDES_BASE.items()}
    us = _HTTP_US_SHARE[year]
    rest = 1.0 - us
    overrides[80] = {
        "US": us, "CN": rest * 0.25, "BR": rest * 0.15, "IN": rest * 0.12,
        "RU": rest * 0.10, "NL": rest * 0.10, "VN": rest * 0.08,
        "ID": rest * 0.07, "TR": rest * 0.07, "IR": rest * 0.06,
    }
    if year == 2017:
        # Port 5555's origin distribution shifts heavily in 2017 (§5.4).
        overrides[5555] = {"CN": 0.65, "KR": 0.15, "TW": 0.10, "US": 0.05, "RU": 0.05}
    return overrides


def year_config(year: int, days: int = DEFAULT_PERIOD_DAYS) -> YearConfig:
    """The calibrated configuration for ``year`` (2015–2024)."""
    if year not in paper.PACKETS_PER_DAY:
        raise ValueError(f"year {year} outside the study range {ALL_YEARS}")
    if not 1 <= days <= 61:
        raise ValueError("days must be within [1, 61] (the paper's windows)")
    return YearConfig(
        year=year,
        days=days,
        packets_per_day=paper.PACKETS_PER_DAY[year],
        scans_per_month=paper.SCANS_PER_MONTH[year],
        background_packet_fraction=0.10,
        background_port_weights=_PORT_SOURCE_WEIGHTS[year],
        background_tail_fraction=0.06,
        background_country_weights=_RESIDUAL_COUNTRIES[year],
        cohorts=tuple(_build_cohorts(year)),
        institutional=_INSTITUTIONAL[year],
        events=_EVENTS.get(year, ()),
        port_country_overrides=_port_country_overrides(year),
        background_mirai_fraction=_BACKGROUND_MIRAI[year],
        # Boosted beyond the scan-level single-port share because single-
        # packet sources can only ever show one port.
        background_multi_port_prob=min(0.9, 1.45 * (1.0 - _PORTS_PER_SCAN[year].p_single)),
    )


def all_year_configs(days: int = DEFAULT_PERIOD_DAYS) -> Dict[int, YearConfig]:
    """Configurations for every study year."""
    return {year: year_config(year, days=days) for year in ALL_YEARS}
