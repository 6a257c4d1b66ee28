"""The network telescope sensor.

Models the measurement infrastructure of the paper (Section 3.2): three
partially populated /16 blocks adding up to roughly one full /16 of unrouted
addresses, an ingress policy that drops Samba (445/TCP) and Telnet (23/TCP)
traffic from 2017 onwards, and the SYN-flag filter separating scan probes from
attack backscatter.

Also implements the telescope *detection model* (Moore et al.): the
probability that an Internet-wide scanner at a given probe rate appears in the
telescope within a given time, modelled with a geometric distribution.  The
campaign-identification thresholds of Section 3.4 are justified through this
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro._util.rng import RandomState, as_generator
from repro._util.validate import check_fraction, check_positive
from repro.telescope.addresses import (
    IPV4_SPACE_SIZE,
    AddressSet,
    CidrBlock,
)
from repro.telescope.packet import FLAG_SYN, PacketBatch, stable_order

#: Ports dropped at the network ingress since the advent of Mirai (paper §3.2).
DEFAULT_BLOCKED_PORTS: FrozenSet[int] = frozenset({23, 445})

#: Year from which the ingress block is active.
INGRESS_BLOCK_SINCE_YEAR = 2017

#: Average number of monitored (unrouted) addresses over the study (paper §3.2).
PAPER_TELESCOPE_SIZE = 71_536


@dataclass(frozen=True)
class IngressPolicy:
    """Ports dropped before traffic reaches the telescope's capture.

    Attributes:
        blocked_ports: destination ports dropped at the ingress.
        active_since_year: first year (inclusive) the block applies.
    """

    blocked_ports: FrozenSet[int] = DEFAULT_BLOCKED_PORTS
    active_since_year: int = INGRESS_BLOCK_SINCE_YEAR

    def is_active(self, year: int) -> bool:
        return year >= self.active_since_year

    def allows(self, dst_port: np.ndarray, year: int) -> np.ndarray:
        """Mask of the packets the ingress lets through: every packet
        before the block is active, then those to ports it does not block."""
        if not self.is_active(year) or not self.blocked_ports:
            return np.ones(dst_port.shape, dtype=bool)
        blocked = np.array(sorted(self.blocked_ports), dtype=np.uint16)
        return np.isin(dst_port, blocked, invert=True)


@dataclass
class ObservationStats:
    """Counters accumulated by :meth:`Telescope.observe`."""

    total_seen: int = 0
    outside_telescope: int = 0
    ingress_dropped: int = 0
    backscatter: int = 0
    scan_probes: int = 0

    def merge(self, other: "ObservationStats") -> None:
        self.total_seen += other.total_seen
        self.outside_telescope += other.outside_telescope
        self.ingress_dropped += other.ingress_dropped
        self.backscatter += other.backscatter
        self.scan_probes += other.scan_probes


class Telescope:
    """A darknet sensor over a set of unrouted IPv4 addresses.

    The sensor accepts raw packet batches, keeps only those destined for
    monitored addresses, applies the ingress policy, and splits pure-SYN scan
    probes from backscatter.
    """

    def __init__(
        self,
        monitored: AddressSet,
        ingress: Optional[IngressPolicy] = None,
    ):
        if len(monitored) == 0:
            raise ValueError("telescope must monitor at least one address")
        self._monitored = monitored
        self._ingress = ingress if ingress is not None else IngressPolicy()
        self._stats = ObservationStats()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_blocks(
        cls,
        blocks: Sequence[CidrBlock],
        population: float = 1.0,
        rng: RandomState = None,
        ingress: Optional[IngressPolicy] = None,
    ) -> "Telescope":
        """Build a telescope monitoring a ``population`` fraction of ``blocks``."""
        monitored = AddressSet.from_blocks(
            blocks, population=population, rng=as_generator(rng)
        )
        return cls(monitored, ingress=ingress)

    @classmethod
    def paper_telescope(cls, rng: RandomState = None) -> "Telescope":
        """The study's vantage point: three partially populated /16 blocks
        whose monitored addresses add up to roughly one full /16
        (~71,536 unrouted addresses on average)."""
        generator = as_generator(rng)
        blocks = [
            CidrBlock.parse("100.64.0.0/16"),
            CidrBlock.parse("100.65.0.0/16"),
            CidrBlock.parse("100.66.0.0/16"),
        ]
        population = PAPER_TELESCOPE_SIZE / (3 * 2**16)
        return cls.from_blocks(blocks, population=population, rng=generator)

    # -- properties -----------------------------------------------------------

    @property
    def monitored(self) -> AddressSet:
        return self._monitored

    @property
    def size(self) -> int:
        """Number of monitored addresses."""
        return len(self._monitored)

    @property
    def ingress(self) -> IngressPolicy:
        return self._ingress

    @property
    def stats(self) -> ObservationStats:
        return self._stats

    @property
    def space_fraction(self) -> float:
        """Fraction of the IPv4 space the telescope covers."""
        return self.size / IPV4_SPACE_SIZE

    # -- observation ----------------------------------------------------------

    def observe(self, batch: PacketBatch, year: int) -> PacketBatch:
        """Filter a raw batch down to scan probes captured by the telescope.

        A packet is kept when, mirroring the paper's collection methodology,

        1. it is destined to a monitored (unrouted) address;
        2. the ingress lets it through (23/445 are dropped from 2017 on);
        3. it is a pure SYN (a scan probe); the rest is counted as
           backscatter.

        The three tests make one keep mask, the kept rows are put in stable
        time order (:func:`~repro.telescope.packet.stable_order`: tied times
        stay in row order) and every column is gathered once.  Returns the
        accepted scan probes sorted by time; accounting is accumulated in
        :attr:`stats`.
        """
        keep = self._monitored.contains_array(batch.dst_ip)
        inside = int(np.count_nonzero(keep))
        keep &= self._ingress.allows(batch.dst_port, year)
        passed = int(np.count_nonzero(keep))
        keep &= batch.flags == FLAG_SYN
        rows = np.flatnonzero(keep)
        self._stats.merge(ObservationStats(
            total_seen=len(batch),
            outside_telescope=len(batch) - inside,
            ingress_dropped=inside - passed,
            backscatter=passed - rows.size,
            scan_probes=rows.size,
        ))
        return batch[rows[stable_order(batch.time[rows])]]

    def sample_destinations(self, rng: RandomState, count: int) -> np.ndarray:
        """Sample monitored destination addresses (used by the simulator when
        thinning a campaign's probe stream down to telescope hits)."""
        return self._monitored.sample(as_generator(rng), count)


# -- detection model (Moore et al., Network Telescopes) -----------------------


def hit_probability_per_probe(telescope_size: int) -> float:
    """Probability a uniform-random IPv4 probe lands in the telescope."""
    check_positive("telescope_size", telescope_size)
    return telescope_size / IPV4_SPACE_SIZE


def detection_probability(
    rate_pps: float, duration_s: float, telescope_size: int = PAPER_TELESCOPE_SIZE
) -> float:
    """Probability a random-target scanner is observed within ``duration_s``.

    Geometric model: each probe independently hits the telescope with
    probability ``telescope_size / 2^32``; a scanner sending at ``rate_pps``
    for ``duration_s`` seconds is detected unless *all* probes miss.
    """
    check_positive("rate_pps", rate_pps)
    check_positive("duration_s", duration_s)
    p = hit_probability_per_probe(telescope_size)
    probes = rate_pps * duration_s
    return 1.0 - (1.0 - p) ** probes


def time_to_detection(
    rate_pps: float,
    confidence: float = 0.999,
    telescope_size: int = PAPER_TELESCOPE_SIZE,
) -> float:
    """Seconds until a scanner at ``rate_pps`` is seen with ``confidence``.

    The paper reports that a 100 pps random scanner appears within 1 hour with
    probability 99.9% — this function reproduces that calculation.
    """
    check_positive("rate_pps", rate_pps)
    check_fraction("confidence", confidence)
    if confidence >= 1.0:
        raise ValueError("confidence must be < 1")
    p = hit_probability_per_probe(telescope_size)
    probes_needed = np.log(1.0 - confidence) / np.log(1.0 - p)
    return float(probes_needed / rate_pps)


def internet_wide_rate(
    telescope_pps: float, telescope_size: int = PAPER_TELESCOPE_SIZE
) -> float:
    """Extrapolate a telescope-local packet rate to an Internet-wide rate.

    A campaign hitting the telescope at ``telescope_pps`` and targeting the
    whole space uniformly is probing the Internet at
    ``telescope_pps / (telescope_size / 2^32)`` packets per second.
    """
    check_positive("telescope_pps", telescope_pps)
    return telescope_pps / hit_probability_per_probe(telescope_size)


def coverage_estimate(
    distinct_destinations: int, telescope_size: int = PAPER_TELESCOPE_SIZE
) -> float:
    """Estimate a scan's IPv4 coverage from the telescope addresses it hit.

    A uniform scan covering fraction ``c`` of IPv4 is expected to hit
    ``c * telescope_size`` distinct monitored addresses; inverting gives the
    estimator used in Sections 6.4 and 6.8.  Clamped to [0, 1].
    """
    check_positive("telescope_size", telescope_size)
    if distinct_destinations < 0:
        raise ValueError("distinct_destinations must be non-negative")
    return min(1.0, distinct_destinations / telescope_size)
