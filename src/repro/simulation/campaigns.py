"""Campaign specifications and telescope-hit synthesis.

A :class:`CampaignSpec` fully describes one *logical* scan campaign: who runs
it (source IPs — several when the scan is sharded over collaborating hosts),
with which tool, against which ports, how much of IPv4 it sweeps, how fast,
and when.  :func:`synthesize_campaign` turns a spec into the packets the
telescope captures, using analytic thinning: rather than generating the
billions of probes an Internet-wide scan sends, only the probes that land in
the telescope's address space are materialised (see DESIGN.md, "Analytic
thinning").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util.rng import RandomState, as_generator
from repro.enrichment.types import ScannerType
from repro.scanners import (
    CustomToolModel,
    MasscanModel,
    MiraiModel,
    NMapModel,
    ScannerToolModel,
    Tool,
    UnicornModel,
    ZMapModel,
)
from repro.telescope.addresses import IPV4_SPACE_SIZE
from repro.telescope.packet import FLAG_SYN, PacketBatch
from repro.telescope.sensor import Telescope


@dataclass(frozen=True)
class CampaignSpec:
    """Ground-truth description of one logical scan campaign."""

    campaign_id: int
    cohort: str
    scanner_type: ScannerType
    tool: Tool
    country: str
    src_ips: Tuple[int, ...]          # one per shard
    ports: Tuple[int, ...]
    start: float                      # seconds from period start
    rate_pps: float                   # Internet-wide aggregate probe rate
    telescope_hits: int               # planned hits across all shards
    ipv4_coverage: float              # per-port fraction of IPv4 swept
    sequential: bool = False
    fingerprintable: bool = True      # ZMap IP-ID marking present?
    organisation: str = ""

    def __post_init__(self) -> None:
        if not self.src_ips:
            raise ValueError("campaign needs at least one source IP")
        if not self.ports:
            raise ValueError("campaign needs at least one port")
        if self.rate_pps <= 0:
            raise ValueError("rate_pps must be positive")
        if self.telescope_hits < 0:
            raise ValueError("telescope_hits must be non-negative")
        if not 0.0 < self.ipv4_coverage <= 1.0:
            raise ValueError("ipv4_coverage must be in (0, 1]")

    @property
    def shards(self) -> int:
        return len(self.src_ips)

    @property
    def total_probes(self) -> float:
        """Internet-wide probes the campaign sends (all ports, all shards)."""
        return self.ipv4_coverage * IPV4_SPACE_SIZE * len(self.ports)

    @property
    def duration(self) -> float:
        """Seconds the campaign takes at its aggregate rate."""
        return self.total_probes / self.rate_pps

    @property
    def end(self) -> float:
        return self.start + self.duration


def _tool_model(spec: CampaignSpec, shard: int, rng: np.random.Generator) -> ScannerToolModel:
    """Instantiate the crafting model for one shard of a campaign."""
    if spec.tool == Tool.ZMAP:
        return ZMapModel(
            rng=rng,
            fingerprintable=spec.fingerprintable,
            shard=shard,
            shards=spec.shards,
        )
    if spec.tool == Tool.MASSCAN:
        return MasscanModel(rng=rng)
    if spec.tool == Tool.NMAP:
        return NMapModel(rng=rng)
    if spec.tool == Tool.MIRAI:
        return MiraiModel(rng=rng)
    if spec.tool == Tool.UNICORN:
        return UnicornModel(rng=rng)
    return CustomToolModel(rng=rng, sequential=spec.sequential)


def synthesize_campaign(
    spec: CampaignSpec,
    telescope: Telescope,
    rng: RandomState = None,
    period_end: Optional[float] = None,
) -> PacketBatch:
    """Materialise the telescope's view of ``spec``.

    The planned hit count is split evenly over shards (each shard covers an
    even slice of the target permutation); hit destinations are uniform over
    the telescope, ports cycle through the campaign's port set, and
    timestamps follow the tool's target ordering — uniform order statistics
    for permutation scanners, address-proportional sweep times for
    sequential ones.  Hits after ``period_end`` are censored, exactly like a
    real capture window would.  The shards draw one after another, and
    their columns are joined into one batch, shard after shard.
    """
    generator = as_generator(rng)
    if spec.telescope_hits == 0:
        return PacketBatch.empty()

    base_hits = spec.telescope_hits // spec.shards
    remainder = spec.telescope_hits - base_hits * spec.shards
    ports = np.asarray(spec.ports, dtype=np.uint16)
    columns: Dict[str, List[np.ndarray]] = {}

    for shard, src_ip in enumerate(spec.src_ips):
        hits = base_hits + (1 if shard < remainder else 0)
        if hits == 0:
            continue
        dst = telescope.sample_destinations(generator, hits)
        if ports.size == 1:
            dst_port = np.full(hits, ports[0], dtype=np.uint16)
        else:
            # Scanners iterate the (address, port) product, so telescope
            # hits cycle through the port set evenly; a random phase avoids
            # every campaign starting at the same port.
            phase = int(generator.integers(0, ports.size))
            dst_port = ports[(np.arange(hits) + phase) % ports.size]

        if spec.sequential:
            # A linear sweep reaches each address at a time proportional to
            # its position in the space; per-probe jitter is on network
            # timescales (tens of milliseconds), far below the time the
            # sweep needs to cross a /16.
            t = spec.start + (dst.astype(np.float64) / IPV4_SPACE_SIZE) * spec.duration
            t += generator.uniform(0, 0.005, size=hits)
        else:
            t = generator.uniform(spec.start, spec.end, size=hits)

        if period_end is not None:
            keep = t < period_end
            if not np.any(keep):
                continue
            dst, dst_port, t = dst[keep], dst_port[keep], t[keep]

        model = _tool_model(spec, shard, generator)
        fields = model.craft(dst, dst_port)
        n = dst.size
        shard_columns = dict(
            time=t,
            src_ip=np.full(n, src_ip, dtype=np.uint32),
            dst_ip=dst,
            src_port=fields.src_port,
            dst_port=dst_port,
            ip_id=fields.ip_id,
            seq=fields.seq,
            ttl=fields.ttl,
            window=fields.window,
            flags=np.full(n, FLAG_SYN, dtype=np.uint8),
        )
        for name, values in shard_columns.items():
            columns.setdefault(name, []).append(values)

    if not columns:
        return PacketBatch.empty()
    return PacketBatch(**{
        name: parts[0] if len(parts) == 1 else np.concatenate(parts)
        for name, parts in columns.items()
    })


# -- bounded-Pareto hit sizing -------------------------------------------------


def bounded_pareto_mean(alpha: float, low: float, high: float) -> float:
    """Mean of a Pareto distribution truncated to ``[low, high]``."""
    if not low < high:
        raise ValueError("low must be < high")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    # ``np.isclose(alpha, 1.0)``'s test in scalar arithmetic: this runs
    # inside the calibration's 80-step bisections.
    if abs(alpha - 1.0) <= 1e-08 + 1e-05:
        # Limit form for alpha -> 1.
        return float(np.log(high / low) / (1.0 / low - 1.0 / high))
    ratio = (low / high) ** alpha
    return float(
        (alpha * low**alpha) / (1 - ratio)
        * (high ** (1 - alpha) - low ** (1 - alpha)) / (1 - alpha)
    )


def calibrate_pareto_bounds(
    alpha: float,
    target_mean: float,
    floor: float,
    cap: float,
) -> Tuple[float, float]:
    """Bounds of a bounded Pareto whose mean hits ``target_mean``.

    Prefers raising the lower bound above ``floor``; when the floor alone
    already overshoots the target (small budgets with a heavy tail), the
    upper bound is lowered instead.  Always returns ``floor <= low < high <=
    cap``.
    """
    if floor >= cap:
        raise ValueError("floor must be < cap")
    if target_mean <= 0:
        raise ValueError("target_mean must be positive")
    floor_mean = bounded_pareto_mean(alpha, floor, cap)
    if floor_mean <= target_mean:
        return solve_pareto_low(alpha, target_mean, cap, low_floor=floor), cap
    # Shrink the cap until the floor-anchored mean matches the target.
    lo, hi = floor * 1.001, cap
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        if bounded_pareto_mean(alpha, floor, mid) > target_mean:
            hi = mid
        else:
            lo = mid
    return floor, float(np.sqrt(lo * hi))


def solve_pareto_low(
    alpha: float, target_mean: float, high: float, low_floor: float = 110.0
) -> float:
    """Find the lower bound of a bounded Pareto with the desired mean.

    Used by the world generator to auto-calibrate each cohort's campaign-size
    distribution so its packet budget is met in expectation (DESIGN.md §5).
    Falls back to the floor when even the floor overshoots the target (the
    generator then thins campaign sizes directly).
    """
    if target_mean <= low_floor:
        return low_floor
    lo, hi = low_floor, high * 0.999
    if bounded_pareto_mean(alpha, hi, high) < target_mean:
        return hi
    for _ in range(80):
        mid = np.sqrt(lo * hi)  # geometric bisection suits the scale
        if bounded_pareto_mean(alpha, mid, high) < target_mean:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


def sample_bounded_pareto(
    rng: RandomState, alpha: float, low: float, high: float, size: int
) -> np.ndarray:
    """Inverse-CDF sampling of a bounded Pareto."""
    if not low < high:
        raise ValueError("low must be < high")
    generator = as_generator(rng)
    u = generator.random(size)
    la, ha = low**-alpha, high**-alpha
    return (la - u * (la - ha)) ** (-1.0 / alpha)
