"""Parallel execution layer.

``repro.exec`` is where the pipeline stops being a single-threaded library:

* :func:`~repro.exec.parallel.simulate_years_parallel` fans the study years
  of a :class:`~repro.simulation.world.TelescopeWorld` out over a process
  pool.  It relies on the world deriving every year's random stream from
  ``(world seed, year)`` alone, which makes year simulation order-independent
  and therefore embarrassingly parallel — serial and parallel runs are
  byte-identical.
* :class:`~repro.exec.cache.CaptureCache` is a content-addressed store of
  synthesized captures (``.rtrace`` files): repeated benchmark / CLI / test
  runs with unchanged seed, calibration and budgets skip synthesis entirely.
"""

from repro._files import CacheEntry
from repro.exec.cache import CACHE_SCHEMA_VERSION, CaptureCache
from repro.exec.parallel import simulate_years_parallel

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntry",
    "CaptureCache",
    "simulate_years_parallel",
]
