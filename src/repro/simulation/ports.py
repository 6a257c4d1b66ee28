"""Port-selection models for simulated campaigns.

Three behaviours the paper measures are produced here:

* **Weighted port popularity** — each cohort draws its primary target port
  from a year-calibrated weight table, with a uniform tail over the rest of
  the port range (the tail grows over the years until "all ports receive more
  than 1,000 probes per day by 2022", §5.1).
* **Alias affinity** — multi-port scans preferentially add *alias ports* of
  the same protocol (80→8080, 443→8443, 22→2222, 23→2323 …).  The paper
  finds 18% of port-80 scans also probing 8080 in 2015, rising to 87% by
  2020 (§5.1) — the adoption parameter reproduces that trend.
* **Vertical scans** — rare campaigns sweeping hundreds to tens of thousands
  of ports (§5.2).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._util.rng import RandomState, as_generator
from repro._util.validate import check_fraction, check_port

#: Protocol alias groups: primary port -> alternative ports commonly hosting
#: the same service (the "move it to a non-standard port" pattern of §5.1).
ALIAS_GROUPS: Dict[int, Tuple[int, ...]] = {
    80: (8080, 81, 8000, 8888),
    443: (8443, 1443, 4443),
    22: (2222, 2022, 22222),
    23: (2323, 23231),
    21: (2121,),
    3389: (3390, 33890),
    5900: (5901, 5902),
    1433: (14433,),
    3306: (33060,),
    6379: (6380,),
    5555: (5556,),
    8545: (8546,),
}


def alias_ports_of(port: int) -> Tuple[int, ...]:
    """Alias ports of ``port`` (empty when it has no known aliases)."""
    return ALIAS_GROUPS.get(port, ())


@dataclass(frozen=True)
class PortsPerScanModel:
    """Mixture model for the number of distinct ports per scan (Figure 3).

    Probabilities for the size classes; within a class the count is drawn
    log-uniformly.  ``p_single`` is the headline statistic the paper tracks
    (83% in 2015 → 65% in 2022).
    """

    p_single: float
    p_few: float        # 2–4 ports
    p_several: float    # 5–100 ports
    p_many: float       # 101–10,000 ports
    p_vertical: float   # >10,000 ports

    def __post_init__(self) -> None:
        total = self.p_single + self.p_few + self.p_several + self.p_many + self.p_vertical
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"ports-per-scan probabilities sum to {total}, not 1")
        for name in ("p_single", "p_few", "p_several", "p_many", "p_vertical"):
            check_fraction(name, getattr(self, name))

    _BOUNDS = ((1, 1), (2, 4), (5, 100), (101, 10_000), (10_001, 65_536))

    def sample_counts(self, rng: RandomState, size: int) -> np.ndarray:
        """Draw ``size`` ports-per-scan counts."""
        generator = as_generator(rng)
        probs = np.array(
            [self.p_single, self.p_few, self.p_several, self.p_many, self.p_vertical]
        )
        classes = generator.choice(5, size=size, p=probs)
        counts = np.empty(size, dtype=np.int64)
        for cls, (lo, hi) in enumerate(self._BOUNDS):
            mask = classes == cls
            n = int(mask.sum())
            if n == 0:
                continue
            if lo == hi:
                counts[mask] = lo
            else:
                # Log-uniform keeps small counts common within a class.
                logs = generator.uniform(np.log(lo), np.log(hi + 1), size=n)
                counts[mask] = np.minimum(np.exp(logs).astype(np.int64), hi)
        return counts


class PortSelector:
    """Draws the port sets of campaigns for one cohort in one year."""

    def __init__(
        self,
        port_weights: Mapping[int, float],
        tail_fraction: float = 0.0,
        tail_port_range: Tuple[int, int] = (1, 65535),
        alias_adoption: float = 0.0,
        rng: RandomState = None,
    ):
        """
        Args:
            port_weights: popularity weights of named ports.
            tail_fraction: probability mass assigned to a uniform tail over
                ``tail_port_range`` instead of the named ports.
            alias_adoption: probability that a multi-port scan whose primary
                port has aliases includes those aliases first (the 80→8080
                coupling of §5.1).
        """
        if not port_weights and tail_fraction <= 0:
            raise ValueError("need port weights or a positive tail fraction")
        check_fraction("tail_fraction", tail_fraction)
        check_fraction("alias_adoption", alias_adoption)
        lo, hi = tail_port_range
        check_port("tail_port_range[0]", lo)
        check_port("tail_port_range[1]", hi)
        if hi < lo:
            raise ValueError("tail_port_range must be (low, high)")
        self._ports = np.array(sorted(port_weights), dtype=np.int64)
        weights = np.array([port_weights[p] for p in self._ports], dtype=float)
        if np.any(weights < 0) or (weights.sum() <= 0 and tail_fraction < 1):
            raise ValueError("port weights must be non-negative and not all zero")
        self._probs = weights / weights.sum() if weights.sum() > 0 else weights
        # The normalised cumulative weights ``Generator.choice(p=...)`` would
        # rebuild (and re-validate) on every call; bisecting a uniform draw
        # on them reproduces its output and consumes the same stream.
        # ``None`` without named weight, where the tail takes every draw.
        self._cdf: Optional[np.ndarray] = None
        if self._ports.size and weights.sum() > 0:
            self._cdf = np.cumsum(self._probs)
            self._cdf /= self._cdf[-1]
        self._port_list: List[int] = self._ports.tolist()
        self._cdf_list: List[float] = [] if self._cdf is None else self._cdf.tolist()
        self._tail_fraction = tail_fraction
        self._tail_range = (lo, hi)
        self._alias_adoption = alias_adoption
        self._rng = as_generator(rng)

    def sample_primary(self, size: int) -> np.ndarray:
        """Primary target port per campaign."""
        generator = self._rng
        out = np.empty(size, dtype=np.int64)
        tail = generator.random(size) < self._tail_fraction
        n_tail = int(tail.sum())
        if n_tail:
            lo, hi = self._tail_range
            out[tail] = generator.integers(lo, hi + 1, size=n_tail)
        n_named = size - n_tail
        if n_named:
            if self._ports.size == 0:
                lo, hi = self._tail_range
                out[~tail] = generator.integers(lo, hi + 1, size=n_named)
            else:
                picks = self._cdf.searchsorted(generator.random(n_named), side="right")
                out[~tail] = self._ports[picks]
        return out

    def _draw_one(self) -> int:
        """One primary port: ``int(sample_primary(1)[0])`` without arrays.

        Draws the same values from the generator in the same order, so the
        two are interchangeable without moving any later draw.
        """
        generator = self._rng
        if generator.random() < self._tail_fraction or not self._port_list:
            lo, hi = self._tail_range
            return int(generator.integers(lo, hi + 1))
        return self._port_list[bisect_right(self._cdf_list, generator.random())]

    def sample_port_set(
        self, primary: int, count: int, force_alias: Optional[bool] = None
    ) -> np.ndarray:
        """Expand a primary port into a set of ``count`` distinct ports.

        Aliases of the primary are added first with probability
        ``alias_adoption`` (or deterministically when ``force_alias`` is
        set); the remainder is filled with popular ports and a random tail.
        For vertical scans (count beyond the named ports) a contiguous
        random window of the port range is used, mirroring how real vertical
        scans sweep ranges.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        primary = check_port("primary", primary)
        if count == 1:
            return np.array([primary], dtype=np.int64)
        if count > 1000:
            # Vertical scan: primary plus a contiguous window.
            start = int(self._rng.integers(1, max(2, 65536 - count)))
            window = np.arange(start, start + count - 1, dtype=np.int64)
            ports = np.unique(np.concatenate([np.array([primary]), window]))[:count]
            return ports
        seen = {primary}
        aliases = alias_ports_of(primary)
        include_aliases = (
            force_alias if force_alias is not None
            else self._rng.random() < self._alias_adoption
        )
        if aliases and include_aliases:
            seen.update(aliases[: count - 1])
        # The reachable pool may be smaller than ``count`` (few named ports,
        # no tail); bound the rejection sampling and top up with adjacent
        # ports, which is what small multi-port scans do in practice.
        attempts = 0
        while len(seen) < count and attempts < 20 * count:
            seen.add(self._draw_one())
            attempts += 1
        offset = 1
        while len(seen) < count:
            seen.add((primary + offset - 1) % 65535 + 1)
            offset += 1
        return np.array(sorted(seen), dtype=np.int64)
