"""The telescope-world generator.

:class:`TelescopeWorld` turns a per-year :class:`~repro.simulation.config.
YearConfig` into the packets a network telescope would capture over a
measurement period, together with the ground-truth campaign list.

Two scale factors decouple simulation cost from fidelity (DESIGN.md §5):

* ``packet_scale`` — fraction of the real packet volume simulated; chosen so
  a period holds at most ``max_packets`` telescope packets.
* ``scan_scale`` — fraction of the real *observed-scan* count simulated; a
  ``min_scans`` floor keeps per-campaign statistics (ports per scan, tool
  shares, speeds) well-populated even for heavy-traffic years where the
  packet budget alone would leave too few campaigns.

Volume analyses divide by ``packet_scale``; campaign-count analyses divide by
``scan_scale``.  Per-campaign *rates* are never scaled; per-campaign hit
counts shrink when the two scales diverge, which distorts absolute coverage
estimates but preserves within-year orderings (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._util.rng import RandomState, as_generator, derive_rng
from repro.enrichment.knownscanners import (
    InstitutionProfile,
    institutions_active_in,
)
from repro.enrichment.registry import InternetRegistry, build_default_registry
from repro.enrichment.types import AllocationType, ScannerType
from repro.scanners.base import Tool
from repro.simulation.backscatter import sample_attacks, synthesize_backscatter
from repro.simulation.campaigns import (
    CampaignSpec,
    calibrate_pareto_bounds,
    sample_bounded_pareto,
    synthesize_campaign,
)
from repro.simulation.config import (
    DEFAULT_MAX_PACKETS,
    DEFAULT_PERIOD_DAYS,
    CohortConfig,
    YearConfig,
    year_config,
)
from repro.simulation.ports import PortSelector, alias_ports_of
from repro.telescope.addresses import IPV4_SPACE_SIZE
from repro.telescope.packet import FLAG_SYN, PacketBatch
from repro.telescope.sensor import Telescope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.cache import CaptureCache

_DAY = 86_400.0
_WEEK = 7 * _DAY

#: Map scanner types to the allocation classes their sources live in.
_ALLOC_FOR_TYPE: Dict[ScannerType, AllocationType] = {
    ScannerType.HOSTING: AllocationType.HOSTING,
    ScannerType.ENTERPRISE: AllocationType.ENTERPRISE,
    ScannerType.RESIDENTIAL: AllocationType.RESIDENTIAL,
    ScannerType.UNKNOWN: AllocationType.UNKNOWN,
    ScannerType.INSTITUTIONAL: AllocationType.INSTITUTIONAL,
}

#: Priority order used to decide *which* ports an institution covers first:
#: common service ports, then the rest of the range ascending.
_COMMON_PORTS_FIRST: Tuple[int, ...] = (
    443, 80, 22, 21, 25, 3389, 8080, 8443, 3306, 1433, 5900, 23, 110, 143,
    445, 53, 5432, 6379, 8000, 8888, 81, 2323, 5555, 9200, 11211, 2375,
)


def _institutional_port_order() -> np.ndarray:
    """Every port 1-65535 in institutional priority order (read-only)."""
    common = np.array(_COMMON_PORTS_FIRST, dtype=np.int64)
    rest = np.ones(65536, dtype=bool)
    rest[0] = False
    rest[common] = False
    order = np.concatenate([common, np.flatnonzero(rest).astype(np.int64)])
    order.flags.writeable = False
    return order


_INSTITUTIONAL_PORT_ORDER = _institutional_port_order()


@dataclass
class SimulationResult:
    """A simulated measurement period plus its ground truth."""

    year: int
    config: YearConfig
    telescope: Telescope
    registry: InternetRegistry
    batch: PacketBatch
    campaigns: List[CampaignSpec]
    packet_scale: float
    scan_scale: float
    background_sources: int
    #: Backscatter frames that reached the telescope (dropped by the SYN
    #: filter before analysis; §3.2's separation).
    backscatter_packets: int = 0
    #: Largest telescope-hit count any single campaign may produce, as a
    #: fraction of the telescope size.  Coverage estimates recovered by the
    #: analysis are compressed by this factor when packet and scan scales
    #: diverge; divide by it to compare against the paper's absolute numbers.
    coverage_cap: float = 1.0
    #: True when this result was materialised from a capture cache instead of
    #: being synthesized (see ``repro.exec.cache.CaptureCache``).
    cache_hit: bool = False

    @property
    def days(self) -> int:
        return self.config.days

    def syn_scan_share(self) -> float:
        """Share of unsolicited TCP traffic that is SYN scanning (≈98%)."""
        total = len(self.batch) + self.backscatter_packets
        return len(self.batch) / total if total else 0.0

    def packets_per_day_unscaled(self) -> float:
        """Observed packets/day projected back to real-world volume."""
        return len(self.batch) / self.days / self.packet_scale

    def scans_per_month_unscaled(self) -> float:
        """Ground-truth observed scans/month projected back to real volume."""
        observed = sum(spec.shards for spec in self.campaigns)
        return observed / (self.days / 30.0) / self.scan_scale


class TelescopeWorld:
    """Generates synthetic telescope captures for the study years."""

    def __init__(
        self,
        telescope: Optional[Telescope] = None,
        registry: Optional[InternetRegistry] = None,
        rng: RandomState = None,
    ):
        # Per-year streams are re-keyed off this root, so a year's draws
        # depend only on (world seed, year) — never on how many other years
        # were simulated first.  That order-independence is what makes
        # `simulate_years` safely parallelisable (repro.exec).
        self._stream_root = derive_rng(rng, "telescope-world")
        self._rng = as_generator(rng)
        self.telescope = telescope if telescope is not None else Telescope.paper_telescope(
            rng=self._rng
        )
        self.registry = registry if registry is not None else build_default_registry()
        self._prefix_cache: Dict[Tuple[Optional[str], AllocationType], List[int]] = {}
        self._prefix_size_cache: Dict[Tuple[Optional[str], AllocationType], np.ndarray] = {}
        self._weekly_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._recurrence_pools: Dict[str, List[Tuple[int, str]]] = {}

    # -- public API -----------------------------------------------------------

    def simulate_year(
        self,
        year: int,
        days: int = DEFAULT_PERIOD_DAYS,
        max_packets: int = DEFAULT_MAX_PACKETS,
        min_scans: int = 1200,
        config: Optional[YearConfig] = None,
        cache: Optional["CaptureCache"] = None,
    ) -> SimulationResult:
        """Simulate one measurement period.

        Args:
            year: study year (2015–2024) — ignored if ``config`` is given.
            days: period length in days.
            max_packets: telescope-packet budget for the whole period.
            min_scans: floor on the number of observed scans simulated.
            config: override the calibrated :func:`year_config`.
            cache: optional capture cache; calibrated (``config is None``)
                periods are loaded from / stored into it, keyed on the world
                seed, telescope layout, year calibration and budgets.
        """
        cfg = config if config is not None else year_config(year, days=days)
        if cache is not None and config is None:
            key = cache.key_for(self, cfg.year, days=days, max_packets=max_packets,
                                min_scans=min_scans)
            hit = cache.load(key, self)
            if hit is not None:
                return hit
        scaled = cfg.scaled(max_packets)
        # The year's entire realisation comes from this derived stream: same
        # world seed + same year ⇒ byte-identical capture, in any call order
        # and at any `simulate_years` worker count.
        rng = derive_rng(self._stream_root, "simulate-year", cfg.year)
        self._recurrence_pools.clear()

        period = cfg.days * _DAY
        total_packets = scaled.period_packets
        raw_scans = scaled.period_scans
        n_scans = max(int(round(raw_scans)), min_scans)
        real_scans = cfg.scans_per_month * (cfg.days / 30.0)
        scan_scale = n_scans / real_scans

        budget_bg = cfg.background_packet_fraction * total_packets
        budget_rest = total_packets - budget_bg
        budget_inst = cfg.institutional.packet_share * budget_rest
        budget_cohorts = budget_rest - budget_inst

        # Every active organisation appears at least once; beyond that the
        # institutional scan count follows the calibrated share, so Table 1's
        # per-year tool mix is not distorted by recurrence floors.  (Analyses
        # that need the daily re-scan cadence, like Figure 6, use a larger
        # simulation budget so the share-driven count is high enough.)
        n_inst = max(
            int(round(cfg.institutional.scan_share * n_scans)),
            len(institutions_active_in(cfg.year)),
        )
        n_cohort_scans = max(1, n_scans - n_inst)

        # No single campaign may dominate the (scaled) capture: cap per-
        # campaign hits at ~3% of the period's packets.  At full scale the
        # cap reaches the telescope size, i.e. a true full-IPv4 sweep.
        hit_cap = int(min(self.telescope.size, max(900, 0.03 * total_packets)))

        specs: List[CampaignSpec] = []
        next_id = [0]

        specs.extend(
            self._cohort_campaigns(
                cfg, n_cohort_scans, budget_cohorts, period, hit_cap, rng, next_id
            )
        )
        self._apply_events(cfg, specs, period, rng)
        specs.extend(
            self._institutional_campaigns(
                cfg, n_inst, budget_inst, period, hit_cap, rng, next_id
            )
        )

        batches = [
            synthesize_campaign(spec, self.telescope, rng, period_end=period)
            for spec in specs
        ]
        bg_batch, n_bg_sources = self._background_traffic(cfg, budget_bg, period, rng)
        batches.append(bg_batch)

        # Backscatter rides on top of the scan budget: the paper's 98%-SYN
        # observation fixes its share of the raw unsolicited traffic.
        bs_fraction = cfg.backscatter_fraction
        bs_budget = total_packets * bs_fraction / max(1e-9, 1.0 - bs_fraction)
        attacks = sample_attacks(self.registry, bs_budget, period, rng)
        bs_batch = synthesize_backscatter(
            attacks, self.telescope, rng, period_end=period
        )
        batches.append(bs_batch)

        raw = PacketBatch.concat([b for b in batches if len(b)])
        observed = self.telescope.observe(raw, cfg.year)

        result = SimulationResult(
            year=cfg.year,
            config=cfg,
            telescope=self.telescope,
            registry=self.registry,
            batch=observed,
            campaigns=specs,
            packet_scale=scaled.scale,
            scan_scale=scan_scale,
            background_sources=n_bg_sources,
            backscatter_packets=len(bs_batch),
            coverage_cap=hit_cap / self.telescope.size,
        )
        if cache is not None and config is None:
            cache.store(key, result)
        return result

    def simulate_years(
        self,
        years: Sequence[int],
        days: int = DEFAULT_PERIOD_DAYS,
        max_packets: int = DEFAULT_MAX_PACKETS,
        min_scans: int = 1200,
        workers: int = 0,
        cache: Optional["CaptureCache"] = None,
    ) -> Dict[int, SimulationResult]:
        """Simulate several years with shared telescope and registry.

        ``workers=0`` runs serially in-process; ``workers >= 1`` fans the
        years out over a process pool (repro.exec).  Because every year's
        stream is derived from ``(world seed, year)`` alone, the output is
        byte-identical at any worker count and in any year order.
        """
        from repro.exec.parallel import simulate_years_parallel

        return simulate_years_parallel(
            self, years, days=days, max_packets=max_packets,
            min_scans=min_scans, workers=workers, cache=cache,
        )

    # -- cohort campaigns -------------------------------------------------------

    def _cohort_campaigns(
        self,
        cfg: YearConfig,
        n_observed: int,
        budget: float,
        period: float,
        hit_cap: int,
        rng: np.random.Generator,
        next_id: List[int],
    ) -> List[CampaignSpec]:
        share_total = sum(c.scan_share for c in cfg.cohorts)
        pkt_total = sum(c.packet_share for c in cfg.cohorts)
        specs: List[CampaignSpec] = []
        for cohort in cfg.cohorts:
            n_obs = max(1, int(round(n_observed * cohort.scan_share / share_total)))
            mean_shards = cohort.sharding.mean_shards()
            n_logical = max(1, int(round(n_obs / mean_shards)))
            cohort_budget = budget * cohort.packet_share / max(pkt_total, 1e-12)
            specs.extend(
                self._one_cohort(
                    cfg, cohort, n_logical, cohort_budget, period, hit_cap, rng, next_id
                )
            )
        return specs

    def _one_cohort(
        self,
        cfg: YearConfig,
        cohort: CohortConfig,
        n_logical: int,
        budget: float,
        period: float,
        hit_cap: int,
        rng: np.random.Generator,
        next_id: List[int],
    ) -> List[CampaignSpec]:
        selector = PortSelector(
            cohort.port_weights,
            tail_fraction=cohort.tail_fraction,
            alias_adoption=cohort.alias_adoption,
            rng=rng,
        )
        port_counts = cohort.ports_per_scan.sample_counts(rng, n_logical)
        primaries = selector.sample_primary(n_logical)
        # Alias coupling (§5.1's 80→8080 trend) applies to *all* scans of a
        # port with known aliases: an adopted scan always includes the
        # aliases, bumping single-port scans to multi-port.
        alias_bump = rng.random(n_logical) < cohort.alias_adoption
        for i in range(n_logical):
            if alias_bump[i]:
                aliases = alias_ports_of(int(primaries[i]))
                if aliases:
                    port_counts[i] = max(port_counts[i], 1 + min(len(aliases), 2))
        shard_counts = cohort.sharding.sample_shards(rng, n_logical)

        tools = list(cohort.tool_weights)
        tool_probs = np.array([cohort.tool_weights[t] for t in tools], dtype=float)
        tool_probs /= tool_probs.sum()
        tool_draws = rng.choice(len(tools), size=n_logical, p=tool_probs)

        mean_target = max(budget / n_logical, 135.0)
        low, high = calibrate_pareto_bounds(
            cohort.pareto_alpha, mean_target, floor=125.0, cap=float(hit_cap)
        )
        sizes = sample_bounded_pareto(
            rng, cohort.pareto_alpha, low, high, n_logical
        )
        if cohort.tool_packet_bias:
            bias = np.array([
                cohort.tool_packet_bias.get(tools[d], 1.0) for d in tool_draws
            ])
            sizes = sizes * bias
            # Re-normalise so the cohort budget is preserved in expectation.
            sizes *= budget / max(sizes.sum(), 1.0)
        sizes = np.minimum(sizes, hit_cap).astype(np.int64)
        sizes = np.maximum(sizes, (shard_counts * 121))

        speeds = cohort.speed.sample(rng, n_logical)
        starts = rng.uniform(0.0, period, size=n_logical)

        port_sets = [
            selector.sample_port_set(
                int(primaries[i]), int(port_counts[i]),
                force_alias=bool(alias_bump[i]),
            )
            for i in range(n_logical)
        ]
        pps_arr = np.empty(n_logical)
        for i in range(n_logical):
            tool = tools[tool_draws[i]]
            per_host = float(speeds[i]) * cohort.tool_speed_multiplier.get(tool, 1.0)
            # Sharded campaigns run every collaborating host at its own full
            # rate; the campaign's aggregate rate is the sum over shards.
            pps = per_host * int(shard_counts[i])
            probes = float(sizes[i]) * (IPV4_SPACE_SIZE / self.telescope.size)
            # A campaign may outlive the measurement window (the capture
            # then sees only part of it), but not by much — beyond 1.5
            # windows the tool is simply run faster.  Each shard must itself
            # clear the 100 pps detection threshold.
            pps_arr[i] = max(pps, probes / (1.5 * period),
                             135.0 * int(shard_counts[i]))

        # Compensate period-edge censoring: campaigns running past the window
        # lose their tail, so the planned sizes are boosted to meet the
        # cohort's packet budget in expectation.
        extrapolation = IPV4_SPACE_SIZE / self.telescope.size
        durations = sizes * extrapolation / pps_arr
        window_fraction = np.clip((period - starts) / np.maximum(durations, 1e-9), 0.0, 1.0)
        expected = float((sizes * window_fraction).sum())
        if expected > 0:
            boost = min(2.0, budget / expected)
            sizes = np.minimum((sizes * boost).astype(np.int64), hit_cap)
            sizes = np.maximum(sizes, shard_counts * 121)

        specs: List[CampaignSpec] = []
        for i in range(n_logical):
            tool = tools[tool_draws[i]]
            pps = float(pps_arr[i])
            ports = port_sets[i]
            hits = int(sizes[i])
            coverage = min(1.0, hits / (self.telescope.size * len(ports)))
            sequential = tool == Tool.NMAP or (
                tool == Tool.UNKNOWN and rng.random() < cohort.sequential_fraction
            )
            country = self._campaign_country(cfg, cohort, int(primaries[i]), rng)
            src_ips = self._draw_sources(
                cfg.year, cohort, country, starts[i], int(shard_counts[i]), rng
            )
            specs.append(CampaignSpec(
                campaign_id=next_id[0],
                cohort=cohort.name,
                scanner_type=cohort.scanner_type,
                tool=tool,
                country=country,
                src_ips=tuple(src_ips.tolist()),
                ports=tuple(ports.tolist()),
                start=float(starts[i]),
                rate_pps=pps,
                telescope_hits=hits,
                ipv4_coverage=max(coverage, 1e-9),
                sequential=sequential,
            ))
            next_id[0] += 1
        return specs

    def _campaign_country(
        self,
        cfg: YearConfig,
        cohort: CohortConfig,
        primary_port: int,
        rng: np.random.Generator,
    ) -> str:
        override = cfg.port_country_overrides.get(primary_port)
        weights = override if (override and rng.random() < 0.85) else cohort.country_weights
        names = list(weights)
        probs = np.array([weights[c] for c in names], dtype=float)
        return names[int(rng.choice(len(names), p=probs / probs.sum()))]

    # -- source-address selection -------------------------------------------------

    def _prefixes(self, country: Optional[str], alloc: AllocationType) -> List[int]:
        key = (country, alloc)
        if key not in self._prefix_cache:
            indices = self.registry.matching_prefix_indices(
                country=country, alloc_type=alloc
            )
            if not indices:
                indices = self.registry.matching_prefix_indices(alloc_type=alloc)
            self._prefix_cache[key] = indices
        return self._prefix_cache[key]

    def _prefix_sizes(self, country: Optional[str], alloc: AllocationType) -> np.ndarray:
        """Block sizes of ``_prefixes(country, alloc)``, as float weights."""
        key = (country, alloc)
        if key not in self._prefix_size_cache:
            records = self.registry.records
            self._prefix_size_cache[key] = np.array(
                [records[i].block.size for i in self._prefixes(country, alloc)],
                dtype=float,
            )
        return self._prefix_size_cache[key]

    def _weekly_weights(self, year: int, week: int) -> np.ndarray:
        """Per-prefix activity multipliers for one week.

        Deterministic in (year, week): activity concentrates in a changing
        subset of netblocks, producing the factor-2+ weekly swings of
        Figure 2.
        """
        key = (year, week)
        if key not in self._weekly_cache:
            # The exact entropy words are load-bearing: weekly weights are
            # calibrated against this stream, and derive_rng mixes tokens
            # differently.  Keep the pinned construction, suppressed.
            gen = np.random.default_rng([year, week, 0x5CA9])  # repro-lint: disable=RPR002
            self._weekly_cache[key] = gen.lognormal(0.0, 1.1, size=len(self.registry))
        return self._weekly_cache[key]

    def _draw_sources(
        self,
        year: int,
        cohort: CohortConfig,
        country: str,
        start: float,
        shards: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        pool = self._recurrence_pools.setdefault(cohort.name, [])
        if shards == 1 and pool and rng.random() < cohort.recurrence_probability:
            ip, _ = pool[int(rng.integers(0, len(pool)))]
            return np.array([ip], dtype=np.uint32)

        alloc = _ALLOC_FOR_TYPE[cohort.scanner_type]
        indices = self._prefixes(country, alloc)
        weekly = self._weekly_weights(year, int(start // _WEEK))
        weights = weekly[indices] * self._prefix_sizes(country, alloc)
        if shards == 1:
            ips = self.registry.sample_from_prefixes(rng, indices, 1, weights=weights)
        else:
            # Shards cluster in one subnet (collaborating hosts, §6.4).
            chosen = int(rng.choice(len(indices), p=weights / weights.sum()))
            block = self.registry.records[indices[chosen]].block
            base = int(rng.integers(block.first, max(block.first + 1, block.last - shards)))
            ips = np.arange(base, base + shards, dtype=np.uint32)
        for ip in ips.tolist():
            pool.append((int(ip), country))
        if len(pool) > 4000:
            del pool[: len(pool) - 4000]
        return ips

    # -- events ----------------------------------------------------------------

    def _apply_events(
        self,
        cfg: YearConfig,
        specs: List[CampaignSpec],
        period: float,
        rng: np.random.Generator,
    ) -> None:
        """Re-target a subset of campaigns onto disclosure-event ports.

        Conversion keeps scan counts and packet budgets intact while
        concentrating activity on the event port right after the disclosure
        (Figure 1's spike-and-decay).
        """
        if not cfg.events or not specs:
            return
        convertible = [
            i for i, s in enumerate(specs)
            if s.scanner_type in (ScannerType.HOSTING, ScannerType.UNKNOWN,
                                  ScannerType.RESIDENTIAL)
            and s.tool != Tool.MIRAI
        ]
        rng.shuffle(convertible)
        cursor = 0
        per_day_baseline = len(specs) / cfg.days
        for event in cfg.events:
            # Total surge integral: magnitude decaying with the given
            # half-life, expressed in units of daily baseline campaigns.
            integral_days = event.magnitude * event.decay_days / math.log(2.0)
            n_extra = int(min(0.05 * len(specs), 0.004 * per_day_baseline * integral_days))
            for _ in range(n_extra):
                if cursor >= len(convertible):
                    break
                idx = convertible[cursor]
                cursor += 1
                days_since = rng.exponential(event.decay_days / math.log(2.0))
                start = min((event.day_offset + days_since) * _DAY, period - 1.0)
                old = specs[idx]
                specs[idx] = replace(
                    old,
                    ports=(event.port,),
                    start=float(start),
                    ipv4_coverage=min(
                        1.0, old.telescope_hits / self.telescope.size
                    ),
                )

    # -- institutional campaigns --------------------------------------------------

    def _institutional_campaigns(
        self,
        cfg: YearConfig,
        n_inst: int,
        budget: float,
        period: float,
        hit_cap: int,
        rng: np.random.Generator,
        next_id: List[int],
    ) -> List[CampaignSpec]:
        profiles = institutions_active_in(cfg.year)
        if not profiles or n_inst <= 0 or budget <= 0:
            return []
        # Budget weight grows superlinearly with port coverage: an
        # organisation sweeping the whole range sends disproportionally more
        # probes than one covering half of it at the same cadence.
        weights = np.array([
            p.daily_campaigns * max(p.coverage_in(cfg.year), 0.003) ** 1.5
            for p in profiles
        ])
        weights /= weights.sum()
        campaign_counts = np.maximum(1, np.round(weights * n_inst).astype(int))
        # Organisations near a daily cadence snap to exactly one scan per
        # day: real institutions re-scan daily, and Figure 6's institutional
        # downtime mode depends on it.  Campaign counts are capped at one
        # per day per source pool.
        campaign_counts = np.where(
            campaign_counts >= 0.5 * cfg.days, cfg.days, campaign_counts
        )
        campaign_counts = np.minimum(campaign_counts, 4 * cfg.days)
        budgets = budget * weights

        specs: List[CampaignSpec] = []
        inst_cfg = cfg.institutional
        named_ports = list(inst_cfg.port_weights)
        named_probs = np.array([inst_cfg.port_weights[p] for p in named_ports], dtype=float)
        named_probs /= named_probs.sum()

        for profile, n_campaigns, org_budget in zip(profiles, campaign_counts, budgets):
            covered = max(1, profile.ports_in(cfg.year))
            port_priority = self._port_priority(covered)
            n_sources = max(1, min(4, int(round(n_campaigns / cfg.days))))
            pool = self._org_pool(profile.name, n_sources, rng)
            hits_per = min(hit_cap, max(130, int(org_budget / n_campaigns)))
            # Rotate finely enough that a campaign's hit budget can touch
            # every port of its chunk at least once; otherwise the observed
            # port footprint would be capped by packets, not by the
            # organisation's actual coverage.
            min_rotation = int(np.ceil(covered / hits_per))
            rotation = max(1, min(
                max(inst_cfg.rotation_days * n_sources, min_rotation),
                int(n_campaigns),
            ))
            day_anchor = float(rng.uniform(0, _DAY * 0.5))

            named_period = max(1, int(round(1.0 / max(inst_cfg.named_port_fraction, 1e-6))))
            for j in range(int(n_campaigns)):
                day = (j * cfg.days) // int(n_campaigns)
                start = day * _DAY + day_anchor + float(rng.uniform(0, 600.0))
                # Named-port sweeps run on a deterministic cadence (every
                # Nth campaign) so an organisation's port footprint is
                # stable run-to-run even with few campaigns.
                if (j + 1) % named_period == 0:
                    k = int(rng.integers(1, min(4, len(named_ports)) + 1))
                    ports = tuple(sorted({
                        int(named_ports[int(rng.choice(len(named_ports), p=named_probs))])
                        for _ in range(k)
                    }))
                else:
                    chunk = port_priority[j % rotation::rotation]
                    ports = tuple(chunk.tolist()) or (443,)
                coverage = min(1.0, hits_per / (self.telescope.size * len(ports)))
                probes = coverage * IPV4_SPACE_SIZE * len(ports)
                pps = float(rng.lognormal(np.log(profile.speed_pps), 0.5))
                pps = max(pps, probes / (0.9 * _DAY), 1000.0)
                fingerprintable = rng.random() < inst_cfg.fingerprintable_fraction
                specs.append(CampaignSpec(
                    campaign_id=next_id[0],
                    cohort="institutional",
                    scanner_type=ScannerType.INSTITUTIONAL,
                    tool=Tool.ZMAP,
                    country=profile.country,
                    src_ips=(int(pool[j % len(pool)]),),
                    ports=ports,
                    start=start,
                    rate_pps=pps,
                    telescope_hits=hits_per,
                    ipv4_coverage=max(coverage, 1e-9),
                    fingerprintable=fingerprintable,
                    organisation=profile.name,
                ))
                next_id[0] += 1
        return specs

    @staticmethod
    def _port_priority(covered: int) -> np.ndarray:
        """First ``covered`` ports in institutional priority order."""
        return _INSTITUTIONAL_PORT_ORDER[:covered]

    def _org_pool(self, organisation: str, n_sources: int, rng: np.random.Generator) -> np.ndarray:
        """Stable source-IP pool for one organisation."""
        records = self.registry.prefixes_of_org(organisation)
        if not records:
            raise ValueError(f"organisation {organisation!r} has no registry prefixes")
        block = records[0].block
        return np.arange(block.first + 10, block.first + 10 + n_sources, dtype=np.uint32)

    # -- background (sub-threshold) sources ----------------------------------------

    def _background_traffic(
        self,
        cfg: YearConfig,
        budget: float,
        period: float,
        rng: np.random.Generator,
    ) -> Tuple[PacketBatch, int]:
        """Sources below the campaign thresholds: few probes each, many IPs.

        These drive the *source*-count statistics (Table 1's "top ports by
        sources") and are dominated by Mirai-descendant residential devices
        (§4.2), so most carry the Mirai sequence-number fingerprint.
        """
        n_sources = max(1, int(budget / cfg.background_mean_hits))
        # Geometric sizes, capped below the campaign threshold.
        sizes = np.minimum(
            rng.geometric(1.0 / cfg.background_mean_hits, size=n_sources), 90
        )

        selector = PortSelector(
            cfg.background_port_weights,
            tail_fraction=cfg.background_tail_fraction,
            alias_adoption=0.8,
            rng=rng,
        )
        primary_port = selector.sample_primary(n_sources).astype(np.uint16)
        # A growing minority of background sources probes several ports
        # (alias-coupled), tracking Figure 3's single-port decline.
        multi = rng.random(n_sources) < cfg.background_multi_port_prob
        extra_counts = np.where(
            multi, rng.integers(2, 6, size=n_sources), 1
        )
        extra_counts = np.minimum(extra_counts, np.maximum(sizes, 1))

        weeks = rng.integers(0, max(1, int(period // _WEEK) + 1), size=n_sources)
        alloc_draw = rng.random(n_sources)
        src_ips = np.zeros(n_sources, dtype=np.uint32)
        countries = list(cfg.background_country_weights)
        country_probs = np.array(
            [cfg.background_country_weights[c] for c in countries], dtype=float
        )
        country_probs /= country_probs.sum()

        # Per-allocation prefix tables, shared by every week.
        records = self.registry.records
        allocs = []
        for alloc, lo, hi in (
            (AllocationType.RESIDENTIAL, 0.0, 0.7),
            (AllocationType.UNKNOWN, 0.7, 1.0),
        ):
            indices = self._prefixes(None, alloc)
            country_factor = np.array([
                cfg.background_country_weights.get(records[i].country, 0.01)
                for i in indices
            ])
            allocs.append(
                (indices, self._prefix_sizes(None, alloc), country_factor, lo, hi)
            )

        for week in np.unique(weeks):
            weekly = self._weekly_weights(cfg.year, int(week))
            for indices, sizes_arr, country_factor, lo, hi in allocs:
                mask = (weeks == week) & (alloc_draw >= lo) & (alloc_draw < hi)
                count = int(mask.sum())
                if count == 0:
                    continue
                weights = weekly[indices] * sizes_arr * country_factor
                src_ips[mask] = self.registry.sample_from_prefixes(
                    rng, indices, count, weights=weights
                )

        # Expand per-source rows into packets; multi-port sources cycle
        # through their (alias-heavy) port set packet by packet.
        total = int(sizes.sum())
        src_rep = np.repeat(src_ips, sizes)
        port_rep = np.repeat(primary_port, sizes)
        packet_pos = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        extra_rep = np.repeat(extra_counts, sizes)
        needs_alias = extra_rep > 1
        if np.any(needs_alias):
            # Each source owns a fixed set of up to 5 ports: slot 0 is its
            # primary, slots 1+ are drawn once per source (not per packet,
            # which would inflate distinct-port counts).
            max_slots = 5
            alt_table = selector.sample_primary(n_sources * (max_slots - 1)).astype(
                np.uint16
            ).reshape(n_sources, max_slots - 1)
            src_row = np.repeat(np.arange(n_sources), sizes)
            alias_slot = packet_pos % np.maximum(extra_rep, 1)
            use_alt = needs_alias & (alias_slot > 0)
            port_rep = port_rep.copy()
            port_rep[use_alt] = alt_table[
                src_row[use_alt], (alias_slot[use_alt] - 1) % (max_slots - 1)
            ]
        week_rep = np.repeat(weeks, sizes)
        # Each source is active in a burst window of a few hours in its week.
        burst_start = np.repeat(
            rng.uniform(0.0, _WEEK - 4 * 3600.0, size=n_sources), sizes
        )
        t = np.minimum(
            week_rep * _WEEK + burst_start + rng.uniform(0, 4 * 3600.0, size=total),
            period - 1.0,
        )

        mirai_mask = np.repeat(
            rng.random(n_sources) < cfg.background_mirai_fraction, sizes
        )
        dst = self.telescope.sample_destinations(rng, total)
        seq = np.where(
            mirai_mask, dst, rng.integers(0, 2**32, size=total, dtype=np.uint32)
        ).astype(np.uint32)

        batch = PacketBatch(
            time=t,
            src_ip=src_rep,
            dst_ip=dst,
            src_port=rng.integers(1024, 65535, size=total, dtype=np.uint16),
            dst_port=port_rep,
            ip_id=rng.integers(0, 2**16, size=total, dtype=np.uint16),
            seq=seq,
            ttl=rng.integers(38, 120, size=total).astype(np.uint8),
            window=rng.integers(1024, 65535, size=total, dtype=np.uint16),
            flags=np.full(total, FLAG_SYN, dtype=np.uint8),
        )
        return batch, n_sources
