"""Reference forms of the simulator's hot paths: the test oracle for the
draw-order-preserving rewrites in ``repro.simulation`` and
``repro.telescope``.

A capture's bytes depend on the order in which the simulator draws from its
random generator, so a rewrite of a sampling routine is only safe when it
returns the same values *and* leaves the generator in the same state.  This
module keeps the straightforward versions those routines replaced:

* :func:`sample_primary` — named ports through ``Generator.choice(p=...)``;
* :func:`sample_port_set` — the rejection loop drawing each extra port with
  ``sample_primary(self, 1)``;
* :func:`port_priority` — the institutional port order via ``np.setdiff1d``;
* :func:`address_set_init` — ``AddressSet``'s ``set``/``sorted`` constructor;
* :func:`observe` — ``Telescope.observe`` as three filtering passes and a
  stable time sort, each gathering every column.

The first two take a :class:`~repro.simulation.ports.PortSelector` as
``self``, :func:`address_set_init` an ``AddressSet`` and :func:`observe` a
``Telescope``, so tests can call them directly or patch them over the
library's methods; nothing in ``src/`` calls them.  :func:`observe` draws
nothing, so it checks the capture's order and contents, not a stream.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro._util.validate import check_port
from repro.simulation.ports import alias_ports_of
from repro.simulation.world import _COMMON_PORTS_FIRST
from repro.telescope.addresses import IPV4_SPACE_SIZE
from repro.telescope.packet import FLAG_SYN, PacketBatch
from repro.telescope.sensor import ObservationStats


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
            out[~tail] = generator.choice(self._ports, size=n_named, p=self._probs)
    return out


def sample_port_set(
    self, primary: int, count: int, force_alias: Optional[bool] = None
) -> np.ndarray:
    """Expand a primary port into a set of ``count`` distinct ports."""
    if count < 1:
        raise ValueError("count must be >= 1")
    primary = check_port("primary", primary)
    if count == 1:
        return np.array([primary], dtype=np.int64)
    chosen: List[int] = [primary]
    if count > 1000:
        start = int(self._rng.integers(1, max(2, 65536 - count)))
        window = np.arange(start, start + count - 1, dtype=np.int64)
        return np.unique(np.concatenate([np.array([primary]), window]))[:count]
    aliases = alias_ports_of(primary)
    include_aliases = (
        force_alias if force_alias is not None
        else self._rng.random() < self._alias_adoption
    )
    if aliases and include_aliases:
        chosen.extend(aliases[: count - 1])
    attempts = 0
    while len(chosen) < count and attempts < 20 * count:
        extra = int(sample_primary(self, 1)[0])
        attempts += 1
        if extra not in chosen:
            chosen.append(extra)
    offset = 1
    while len(chosen) < count:
        candidate = (primary + offset - 1) % 65535 + 1
        if candidate not in chosen:
            chosen.append(candidate)
        offset += 1
    return np.array(sorted(set(chosen))[:count], dtype=np.int64)


def port_priority(covered: int) -> np.ndarray:
    """First ``covered`` ports in institutional priority order."""
    rest = np.setdiff1d(
        np.arange(1, 65536, dtype=np.int64),
        np.array(_COMMON_PORTS_FIRST, dtype=np.int64),
        assume_unique=False,
    )
    priority = np.concatenate([np.array(_COMMON_PORTS_FIRST, dtype=np.int64), rest])
    return priority[:covered]


def address_set_init(self, addresses: Iterable[int]) -> None:
    """``AddressSet.__init__``: sorted distinct uint32 members."""
    arr = np.asarray(sorted(set(int(a) for a in addresses)), dtype=np.uint32)
    if arr.size and (int(arr[-1]) >= IPV4_SPACE_SIZE):
        raise ValueError("address out of IPv4 range")
    self._addresses = arr


def observe(self, batch: PacketBatch, year: int) -> PacketBatch:
    """``Telescope.observe``: a ``searchsorted`` membership test, then the
    ingress and SYN filters and a stable time sort, each a full gather."""
    stats = ObservationStats(total_seen=len(batch))
    members = self.monitored.addresses
    idx = np.clip(np.searchsorted(members, batch.dst_ip), 0, max(0, members.size - 1))
    inside = batch.where(members[idx] == batch.dst_ip)
    stats.outside_telescope = len(batch) - len(inside)

    policy = self.ingress
    passed = inside
    if policy.is_active(year) and policy.blocked_ports and len(inside):
        blocked = np.array(sorted(policy.blocked_ports), dtype=np.uint16)
        passed = inside.where(~np.isin(inside.dst_port, blocked))
    stats.ingress_dropped = len(inside) - len(passed)

    scans = passed.where(passed.flags == FLAG_SYN)
    stats.backscatter = len(passed) - len(scans)
    stats.scan_probes = len(scans)
    self.stats.merge(stats)
    return scans[np.argsort(scans.time, kind="stable")]
