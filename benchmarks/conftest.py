"""Shared benchmark fixtures.

A full simulated decade is expensive, so it is built once per benchmark
session and shared by every table/figure benchmark.  The scales used here
(21-day periods, ≤400 k packets per year) simulate and analyse the whole
decade in seconds while leaving every analysis statistically meaningful.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.core import analyze_simulation
from repro.simulation import ALL_YEARS, TelescopeWorld

BENCH_DAYS = 21
BENCH_MAX_PACKETS = 400_000
BENCH_MIN_SCANS = 600
BENCH_SEED = 2024


@pytest.fixture(scope="session")
def world():
    return TelescopeWorld(rng=BENCH_SEED)


@pytest.fixture(scope="session")
def decade(world):
    """year -> (SimulationResult, PeriodAnalysis) for all ten study years."""
    sims = world.simulate_years(
        ALL_YEARS, days=BENCH_DAYS, max_packets=BENCH_MAX_PACKETS,
        min_scans=BENCH_MIN_SCANS,
    )
    return {year: (sim, analyze_simulation(sim)) for year, sim in sims.items()}


@pytest.fixture(scope="session")
def analyses(decade):
    return {year: analysis for year, (_, analysis) in decade.items()}


@pytest.fixture(scope="session")
def sims(decade):
    return {year: sim for year, (sim, _) in decade.items()}


@pytest.fixture(scope="session")
def rich_recent_years(world):
    """Higher-budget 2023/2024 periods for the port-coverage figures.

    The known-scanner footprints of Figures 8–10 need enough institutional
    packets that full-range organisations can actually touch all 65,536
    ports; the shared decade's budget is too small for that.
    """
    out = {}
    for year in (2023, 2024):
        sim = world.simulate_year(
            year, days=BENCH_DAYS, max_packets=1_000_000,
            min_scans=BENCH_MIN_SCANS,
        )
        out[year] = (sim, analyze_simulation(sim))
    return out


def emit(capsys, text: str) -> None:
    """Print a benchmark report section past pytest's capture."""
    with capsys.disabled():
        print(text)


def check_all(conditions) -> None:
    """Evaluate every ``(description, holds)`` pair, then fail once,
    naming each condition that does not hold, so one red condition never
    hides the ones after it."""
    failed = [description for description, holds in conditions if not holds]
    assert not failed, "conditions that do not hold: " + "; ".join(failed)
