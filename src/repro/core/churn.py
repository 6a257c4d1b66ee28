"""IP-churn correction (§4.2, following Böck et al. and Griffioen & Doerr).

The paper warns that *source counts overstate device counts*: residential
infections sit behind DHCP pools, so one bot surfaces under many addresses
over a measurement period ("botnet infections are often in residential
network spaces where DHCP churn is more likely to occur, inflating the
number of sources measured in studies").

Under a renewal model — each device holds an address for an exponential
lifetime with mean ``L`` and immediately re-appears under a fresh address —
a stable population of ``N`` devices produces, over an observation window of
``T`` days,

    E[distinct addresses]  =  N * (1 + T / L)

and the *cumulative* distinct-address curve grows linearly after the first
lifetime.  This module provides both directions: the forward model, and an
estimator that fits ``(N, L)`` to the cumulative distinct-source curve of a
capture so studies can report device populations instead of address counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro._util.stats import run_starts
from repro._util.validate import check_positive
from repro.telescope.packet import PacketBatch

_DAY_S = 86_400.0
#: ``1 / 86400`` rounded up, so ``t * _PER_DAY`` never falls below ``t``'s
#: exact day count: its floor is the day or, just below a day boundary, one
#: more.  (NumPy's float ``//`` is exact but about three times slower.)
_PER_DAY = float(np.nextafter(1.0 / _DAY_S, np.inf))

#: Largest day index: :func:`source_days` packs it into the low 32 bits of
#: a ``uint64`` key, below the source address.
_MAX_DAY = 0xFFFFFFFF

#: Plausible mean address lifetimes per origin class (days).  Residential
#: pools churn within days; hosting and institutional space is static.
TYPICAL_LIFETIME_DAYS: Dict[str, float] = {
    "residential": 4.0,
    "unknown": 10.0,
    "enterprise": 60.0,
    "hosting": 90.0,
    "institutional": 365.0,
}


def expected_distinct_sources(
    population: float, period_days: float, lifetime_days: float
) -> float:
    """Forward renewal model: distinct addresses a population produces."""
    check_positive("population", population)
    check_positive("period_days", period_days)
    check_positive("lifetime_days", lifetime_days)
    return population * (1.0 + period_days / lifetime_days)


def correct_source_count(
    observed_sources: float, period_days: float, lifetime_days: float
) -> float:
    """Invert the renewal model: devices behind an address count."""
    check_positive("observed_sources", observed_sources)
    check_positive("period_days", period_days)
    check_positive("lifetime_days", lifetime_days)
    return observed_sources / (1.0 + period_days / lifetime_days)


def day_index(times: np.ndarray) -> np.ndarray:
    """Whole days since ``t = 0`` of each timestamp (``int64``).

    The one day division of the report's window pass: churn keys pack it
    below the source address (:func:`source_days`) and the volatility weeks
    derive from it (:func:`repro.core.volatility.week_index`).  Raises
    ``ValueError`` for a timestamp whose day index falls outside
    ``[0, 2**32)``: a negative or far-future time, and a NaN or infinite
    one, whose floor casts to ``INT64_MIN``.
    """
    with np.errstate(invalid="ignore"):
        day = np.floor(times * _PER_DAY)
        day -= times < day * _DAY_S
        day = day.astype(np.int64)
    if day.size and (day.min() < 0 or day.max() > _MAX_DAY):
        bad = times[(day < 0) | (day > _MAX_DAY)][0]
        raise ValueError(
            f"packet time {float(bad)!r} has no day index in [0, 2**32): "
            f"times must be finite seconds >= 0"
        )
    return day


class SourceDays(NamedTuple):
    """A window's distinct (source, day) pairs, sorted source-major."""

    src: np.ndarray                    # uint32 sources, ascending
    day: np.ndarray                    # int64 days, ascending per source
    packets: np.ndarray                # int64 packets of each pair


def source_days(src_ip: np.ndarray, day: np.ndarray) -> SourceDays:
    """Reduce a window's packets to its distinct (source, day) pairs.

    ``day`` comes from :func:`day_index`.  This is the window pass's one
    packet-rate sort: each packet becomes one ``uint64`` key, source above
    day, sorted in place.  (``np.unique`` without counts and
    ``np.union1d`` take NumPy >= 2.3's hash path, several times slower
    than sorting the same keys.)  Churn's first appearances and the
    volatility tallies all reduce these pairs, not the packets.
    """
    key = src_ip.astype(np.uint64)
    # Sources are 32-bit, so the shifted source fills the high word only.
    key <<= np.uint64(32)
    # day_index bounds every day to [0, 2**32): it fits the low word.
    key |= day.view(np.uint64)
    key.sort()
    starts = run_starts(key)
    packets = np.diff(np.append(starts, key.size))
    key = key[starts]
    return SourceDays(
        src=(key >> np.uint64(32)).astype(np.uint32),
        day=(key & np.uint64(_MAX_DAY)).astype(np.int64),
        packets=packets,
    )


def first_appearance_days(
    pairs: SourceDays, days: int
) -> Tuple[np.ndarray, np.ndarray]:
    """First-appearance day per distinct source of one window.

    Returns ``(sources, first_days)`` with the sources ascending and the
    days clamped into ``[0, days)``.  Shared by the batch cumulative curve
    and the streaming churn accumulator (which dedupes these against its
    already-seen sources).
    """
    first = run_starts(pairs.src)
    return pairs.src[first], np.minimum(pairs.day[first], days - 1)


def cumulative_distinct_sources(batch: PacketBatch, days: int) -> np.ndarray:
    """Cumulative count of distinct source addresses by end of each day."""
    if days < 1:
        raise ValueError("days must be >= 1")
    if len(batch) == 0:
        return np.zeros(days, dtype=np.int64)
    _, first_days = first_appearance_days(
        source_days(batch.src_ip, day_index(batch.time)), days
    )
    per_day = np.bincount(first_days, minlength=days)
    return np.cumsum(per_day)


@dataclass(frozen=True)
class ChurnFit:
    """Fitted renewal parameters for one source population."""

    population: float          # estimated devices N
    lifetime_days: float       # estimated mean address lifetime L
    observed_sources: int      # distinct addresses over the window
    inflation_factor: float    # observed / population
    residual: float            # RMS error of the fit (sources)


def fit_population_curve(
    curve: np.ndarray,
    min_lifetime_days: float = 0.25,
    max_lifetime_days: float = 3650.0,
) -> ChurnFit:
    """Fit ``(N, L)`` to a cumulative distinct-source curve.

    The pure fit shared by :func:`fit_population` (batch) and the streaming
    churn accumulator: the curve under the renewal model is
    ``C(t) = N * (1 + t / L)`` for ``t`` past the ramp-up; a grid search over
    ``L`` with the optimal ``N`` solved in closed form (least squares over
    the linear model) is robust and has no dependencies.
    """
    if curve[-1] == 0:
        raise ValueError("no sources in the capture")
    t = np.arange(1, curve.size + 1, dtype=float)

    best: Optional[Tuple[float, float, float]] = None
    for lifetime in np.geomspace(min_lifetime_days, max_lifetime_days, 160):
        basis = 1.0 + t / lifetime
        population = float(np.dot(basis, curve) / np.dot(basis, basis))
        residual = float(np.sqrt(np.mean((population * basis - curve) ** 2)))
        if best is None or residual < best[2]:
            best = (population, float(lifetime), residual)

    population, lifetime, residual = best
    observed = int(curve[-1])
    return ChurnFit(
        population=population,
        lifetime_days=lifetime,
        observed_sources=observed,
        inflation_factor=observed / max(population, 1e-9),
        residual=residual,
    )


def fit_population(
    batch: PacketBatch,
    days: int,
    min_lifetime_days: float = 0.25,
    max_lifetime_days: float = 3650.0,
) -> ChurnFit:
    """Fit ``(N, L)`` to a capture's cumulative distinct-source curve."""
    curve = cumulative_distinct_sources(batch, days)
    return fit_population_curve(
        curve,
        min_lifetime_days=min_lifetime_days,
        max_lifetime_days=max_lifetime_days,
    )


def fit_population_by_type(
    analysis, scanner_type
) -> Optional[ChurnFit]:
    """Fit the churn model to one scanner type's traffic.

    ``analysis`` is a :class:`~repro.core.pipeline.PeriodAnalysis`;
    ``scanner_type`` a :class:`~repro.enrichment.types.ScannerType`.
    Returns ``None`` when the type has no traffic.
    """
    batch = analysis.study_batch
    if len(batch) == 0:
        return None
    sources = np.unique(batch.src_ip)
    types = analysis.classifier.classify_array(sources)
    wanted = sources[np.array([t == scanner_type for t in types])]
    if wanted.size == 0:
        return None
    mask = np.isin(batch.src_ip, wanted)
    return fit_population(batch.where(mask), analysis.days)
