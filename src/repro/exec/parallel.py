"""Process-parallel year simulation.

A decade of telescope periods is the pipeline's most expensive synthesis
step, and its years are independent once per-year randomness is derived from
``(world seed, year)`` alone (see ``TelescopeWorld.__init__``).  This module
exploits that: each year is simulated in a worker process holding a pickled
copy of the world, and the results are reassembled in the caller.

Guarantees:

* ``workers=0`` is a plain serial loop in the calling process;
* any ``workers >= 1`` produces byte-identical ``PacketBatch`` columns and
  identical ground-truth campaign lists, in any year order;
* a :class:`~repro.exec.cache.CaptureCache` is consulted (and populated)
  only from the parent process, so workers never race on cache files.

The worker's copies of the telescope and registry are dropped before the
result travels back (they can be megabytes, and the caller already holds
identical instances); the parent re-attaches its own.  One observable
difference from serial runs: ``Telescope.stats`` counters accumulate in the
worker copies and are discarded, so parallel runs do not advance the shared
telescope's observation statistics.

Pool workers die with the process that forked them
(:func:`_die_with_parent`, also the initializer of the source-shard pool in
``stream/sharded.py``), so killing that process alone leaves none behind.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Dict, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.cache import CaptureCache
    from repro.simulation.world import SimulationResult, TelescopeWorld

#: ``prctl`` option asking the kernel to signal this process when the
#: thread that forked it exits (Linux ``<sys/prctl.h>``).
_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    """Pool initializer: a worker dies with the process that forked it.

    A parent killed by a signal runs no clean-up, and a forked pool worker
    waiting on its call queue never sees the queue close (it holds the
    queue's other end itself), so it would sleep on forever.  On Linux the
    kernel SIGKILLs the worker when its parent exits instead; elsewhere
    this is a no-op.

    The signal follows the *thread* that forked the worker, and with
    ``fork`` a pool forks every worker in the thread of its first
    ``submit``: only a pool first used from a thread that outlives it (the
    main thread, here) may take this initializer.
    """
    if not sys.platform.startswith("linux"):
        return
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    # A forked worker whose parent died before the prctl call has been
    # reparented already, and no signal will come.
    if multiprocessing.get_start_method() == "fork" and os.getppid() != parent:
        os._exit(1)


def _simulate_year_task(world, year, days, max_packets, min_scans):
    """Worker entry point: simulate one year on a pickled world copy.

    Must stay a module-level function (process pools pickle it by reference).
    """
    result = world.simulate_year(
        year, days=days, max_packets=max_packets, min_scans=min_scans
    )
    # Strip the heavy shared objects: the parent re-attaches its own
    # telescope/registry, which are identical by construction.
    result.telescope = None
    result.registry = None
    return result


def simulate_years_parallel(
    world: "TelescopeWorld",
    years: Sequence[int],
    days: int,
    max_packets: int,
    min_scans: int,
    workers: int = 0,
    cache: Optional["CaptureCache"] = None,
) -> Dict[int, "SimulationResult"]:
    """Simulate ``years`` of ``world``, optionally over a process pool.

    Args:
        world: the generator; its telescope/registry are shared by reference
            in serial mode and by pickled copy in parallel mode.
        years: study years to simulate (duplicates are simulated once).
        days / max_packets / min_scans: as in ``TelescopeWorld.simulate_year``.
        workers: 0 for serial; >= 1 for a process pool of that size.
        cache: optional capture cache, probed and populated in this process.

    Returns:
        ``{year: SimulationResult}`` in the order of ``years``.
    """
    if workers < 0:
        raise ValueError("workers must be non-negative")
    ordered = list(dict.fromkeys(years))
    results: Dict[int, "SimulationResult"] = {}

    pending = []
    keys: Dict[int, str] = {}
    for year in ordered:
        hit = None
        if cache is not None:
            keys[year] = cache.key_for(world, year, days=days,
                                       max_packets=max_packets,
                                       min_scans=min_scans)
            hit = cache.load(keys[year], world)
        if hit is not None:
            results[year] = hit
        else:
            pending.append(year)

    if pending:
        if workers == 0:
            for year in pending:
                results[year] = world.simulate_year(
                    year, days=days, max_packets=max_packets, min_scans=min_scans
                )
        else:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_die_with_parent,
                initargs=(os.getpid(),),
            ) as pool:
                futures = {
                    year: pool.submit(
                        _simulate_year_task, world, year, days, max_packets,
                        min_scans,
                    )
                    for year in pending
                }
                for year, future in futures.items():
                    result = future.result()
                    result.telescope = world.telescope
                    result.registry = world.registry
                    results[year] = result
        if cache is not None:
            for year in pending:
                cache.store(keys[year], results[year])

    return {year: results[year] for year in ordered}
