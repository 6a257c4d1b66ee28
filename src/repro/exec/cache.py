"""Content-addressed capture cache.

Synthesizing a telescope period is orders of magnitude slower than reading
one back from disk, and most invocations (benchmarks, ``repro-scan
report``/``validate``, repeated test runs) re-request *identical* periods.
:class:`CaptureCache` therefore stores finished captures as ``.rtrace``
files addressed by a stable content key.

The key is a BLAKE2b digest over everything that determines a period's
bytes:

* the cache schema and library version (``CACHE_SCHEMA_VERSION`` +
  ``repro.__version__``) — bump either to invalidate every entry;
* the world's RNG stream signature (:func:`repro._util.rng.stream_signature`
  of the per-year stream root), i.e. the world seed;
* the telescope layout (monitored-address digest + ingress policy);
* the full calibrated :class:`~repro.simulation.config.YearConfig`,
  canonicalised field by field — editing any calibration constant changes
  the key, so stale captures can never shadow a recalibration;
* the simulation budgets (``days``, ``max_packets``, ``min_scans``).

Only calibrated periods (``config is None`` in ``simulate_year``) are
cached: ad-hoc config objects are not reliably serialisable, and they are
the rare experimental path.

Entries are written atomically (``write_trace`` writes a temp file and
``os.replace``-s it into place) so a crashed or concurrent writer can
never leave a truncated entry behind; a writer killed mid-store leaves
only its temp file, which :meth:`CaptureCache.orphans` finds once the
writer's pid is gone, and ``prune`` or the next store of that key
deletes.  The packet columns live in the trace chunks, the ground-truth
campaign list as typed columns in the trace's array block, and the scale
metadata in its JSON meta block.  The ``.rtrace`` checksums make a
flipped byte anywhere in an entry a miss.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro import __version__
from repro._util.rng import stream_signature
from repro.telescope.trace import (TraceFormatError, orphaned_temp_files,
                                   read_trace, write_trace)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.campaigns import CampaignSpec
    from repro.simulation.world import SimulationResult, TelescopeWorld

#: Bump to invalidate every existing cache entry: when the generator's draw
#: order changes without any config/version change, or when the entry
#: layout :meth:`CaptureCache.store` writes changes.
CACHE_SCHEMA_VERSION = 2

PathLike = Union[str, Path]


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-stable structure for hashing.

    Dataclasses become ``[class name, {field: value}]``, enums their class
    and value, mappings sorted key/value pair lists (keys canonicalised too,
    so ``Tool`` or ``int`` keys are fine), numpy scalars/arrays plain Python.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return [type(obj).__name__, fields]
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}:{obj.value}"
    if isinstance(obj, Mapping):
        pairs = [[_canonical(k), _canonical(v)] for k, v in obj.items()]
        return ["mapping", sorted(pairs, key=lambda kv: json.dumps(kv[0]))]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly; raw floats in json.dumps would
        # too, but hashing the repr keeps the canonical form explicit.
        return repr(obj)
    raise TypeError(f"cannot canonicalise {type(obj).__name__} for cache key")


def _telescope_token(telescope) -> Dict[str, Any]:
    """Stable description of the telescope's observable behaviour."""
    addresses = telescope.monitored.addresses
    return {
        "size": int(addresses.size),
        "addresses_blake2b": hashlib.blake2b(
            np.ascontiguousarray(addresses, dtype="<u4").tobytes(),
            digest_size=16,
        ).hexdigest(),
        "ingress_blocked": sorted(telescope.ingress.blocked_ports),
        "ingress_since": telescope.ingress.active_since_year,
    }


def _flatten(groups: Sequence[Sequence[int]], dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Ragged integer tuples as one flat column plus ``int64`` offsets.

    Group ``i`` is ``values[offsets[i]:offsets[i + 1]]``.
    """
    offsets = np.zeros(len(groups) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(group) for group in groups])
    values = np.fromiter(itertools.chain.from_iterable(groups), dtype=dtype,
                         count=int(offsets[-1]))
    return values, offsets


def _unflatten(values: Any, offsets: Any) -> List[Tuple[int, ...]]:
    """Inverse of :func:`_flatten`; bad offsets raise ``ValueError``."""
    flat = np.asarray(values).tolist()
    bounds = np.asarray(offsets, dtype=np.int64)
    if (bounds.ndim != 1 or len(bounds) == 0 or bounds[0] != 0
            or bounds[-1] != len(flat) or np.any(np.diff(bounds) < 0)):
        raise ValueError("ragged campaign column with bad offsets")
    cuts = bounds.tolist()
    return [tuple(flat[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def _campaigns_from_columns(meta: Mapping[str, Any]) -> List["CampaignSpec"]:
    """Rebuild the ground-truth campaign list :meth:`CaptureCache.store`
    wrote as columns; columns of unequal length raise ``ValueError``."""
    from repro.enrichment.types import ScannerType
    from repro.scanners.base import Tool
    from repro.simulation.campaigns import CampaignSpec

    def column(name: str, dtype) -> List[Any]:
        return np.asarray(meta[name], dtype=dtype).tolist()

    fields = {
        "campaign_id": column("campaign_id", np.int64),
        "cohort": list(meta["cohort"]),
        "scanner_type": [ScannerType(v) for v in meta["scanner_type"]],
        "tool": [Tool(v) for v in meta["tool"]],
        "country": list(meta["country"]),
        "src_ips": _unflatten(meta["src_ips"], meta["src_ips_offsets"]),
        "ports": _unflatten(meta["ports"], meta["ports_offsets"]),
        "start": column("start", np.float64),
        "rate_pps": column("rate_pps", np.float64),
        "telescope_hits": column("telescope_hits", np.int64),
        "ipv4_coverage": column("ipv4_coverage", np.float64),
        "sequential": column("sequential", bool),
        "fingerprintable": column("fingerprintable", bool),
        "organisation": list(meta["organisation"]),
    }
    lengths = {len(values) for values in fields.values()}
    if len(lengths) != 1:
        raise ValueError(f"campaign columns of unequal lengths {sorted(lengths)}")
    names = list(fields)
    return [CampaignSpec(**dict(zip(names, row)))
            for row in zip(*fields.values())]


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One cached capture as seen by the maintenance commands."""

    key: str
    path: Path
    bytes: int
    mtime: float
    #: A temporary file its writer left behind when it died mid-store.
    orphan: bool = False


class CaptureCache:
    """A directory of content-addressed ``.rtrace`` captures.

    Thread/process safety: lookups are plain reads; stores go through a
    temp file and an atomic rename, so concurrent writers of the same key
    simply race to produce identical bytes.

    Attributes:
        hits / misses: lookup counters for this instance (a hit is a
            successful :meth:`load`; results loaded from cache also carry
            ``SimulationResult.cache_hit = True``).
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # -- keys ---------------------------------------------------------------

    def key_for(
        self,
        world: "TelescopeWorld",
        year: int,
        days: int,
        max_packets: int,
        min_scans: int,
    ) -> str:
        """Content key of one calibrated period of ``world``."""
        from repro.simulation.config import year_config

        material = {
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "stream": list(stream_signature(world._stream_root)),
            "telescope": _telescope_token(world.telescope),
            "config": _canonical(year_config(year, days=days)),
            "budgets": {"days": days, "max_packets": max_packets,
                        "min_scans": min_scans},
        }
        blob = json.dumps(material, sort_keys=True).encode("utf-8")
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.rtrace"

    # -- lookup / store -----------------------------------------------------

    def load(self, key: str, world: "TelescopeWorld") -> Optional["SimulationResult"]:
        """Materialise a cached period, or ``None`` on a miss.

        The live world's telescope and registry are attached to the result;
        they are part of the key, so they match what produced the capture.
        A damaged entry (truncated, emptied, overwritten, unreadable
        metadata) or a foreign file squatting on the key's name is a miss;
        the ``store`` that follows replaces it atomically.
        """
        from repro.simulation.config import year_config
        from repro.simulation.world import SimulationResult

        path = self.path_for(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            batch, meta = read_trace(path)
            if meta.get("cache_key") != key:
                raise TraceFormatError(f"{path} is not the entry for {key}")
            result = SimulationResult(
                year=int(meta["year"]),
                config=year_config(int(meta["year"]), days=int(meta["days"])),
                telescope=world.telescope,
                registry=world.registry,
                batch=batch,
                campaigns=_campaigns_from_columns(meta),
                packet_scale=float(meta["packet_scale"]),
                scan_scale=float(meta["scan_scale"]),
                background_sources=int(meta["background_sources"]),
                backscatter_packets=int(meta["backscatter_packets"]),
                coverage_cap=float(meta["coverage_cap"]),
                cache_hit=True,
            )
        except (OSError, KeyError, TypeError, ValueError):
            # OSError: unreadable, or removed by a concurrent prune.
            # ValueError: damaged bytes (TraceFormatError is one, checksum
            # mismatches included) or a bad field value.  KeyError: metadata
            # that parses but lacks a field.  TypeError: a field of the
            # wrong kind.
            self.misses += 1
            return None
        self.hits += 1
        # Refresh the entry's mtime so prune()'s LRU order tracks use, not
        # creation; best-effort (a concurrent prune may have removed it).
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - raced with prune/clear
            pass
        return result

    def store(self, key: str, result: "SimulationResult") -> Path:
        """Persist a finished period under ``key`` (atomic).

        The ground-truth campaigns are stored one ``CampaignSpec`` field
        per key: numbers and flags as NumPy columns (the trace's typed
        array block), each campaign's sources and ports flattened into one
        column plus ``int64`` offsets, and the five string fields as JSON
        lists.
        """
        path = self.path_for(key)
        specs = result.campaigns
        src_ips, src_ips_offsets = _flatten([s.src_ips for s in specs], np.uint32)
        ports, ports_offsets = _flatten([s.ports for s in specs], np.uint16)
        meta = {
            "cache_key": key,
            "year": result.year,
            "days": result.days,
            "packet_scale": result.packet_scale,
            "scan_scale": result.scan_scale,
            "background_sources": result.background_sources,
            "backscatter_packets": result.backscatter_packets,
            "coverage_cap": result.coverage_cap,
            "campaign_id": np.array([s.campaign_id for s in specs], dtype=np.int64),
            "cohort": [s.cohort for s in specs],
            "scanner_type": [s.scanner_type.value for s in specs],
            "tool": [s.tool.value for s in specs],
            "country": [s.country for s in specs],
            "src_ips": src_ips,
            "src_ips_offsets": src_ips_offsets,
            "ports": ports,
            "ports_offsets": ports_offsets,
            "start": np.array([s.start for s in specs], dtype=np.float64),
            "rate_pps": np.array([s.rate_pps for s in specs], dtype=np.float64),
            "telescope_hits": np.array([s.telescope_hits for s in specs],
                                       dtype=np.int64),
            "ipv4_coverage": np.array([s.ipv4_coverage for s in specs],
                                      dtype=np.float64),
            "sequential": np.array([s.sequential for s in specs], dtype=np.uint8),
            "fingerprintable": np.array([s.fingerprintable for s in specs],
                                        dtype=np.uint8),
            "organisation": [s.organisation for s in specs],
        }
        write_trace(path, result.batch, meta=meta)
        return path

    # -- maintenance --------------------------------------------------------

    def entries(self) -> List[Path]:
        """Cached capture files, sorted by name."""
        return sorted(self.root.glob("*.rtrace"))

    def orphans(self) -> List[Path]:
        """Temporary files of stores whose writing process is gone.

        A store writes ``<key>.rtrace.tmp<pid>-<n>`` and renames it onto
        the entry on a clean exit; a process killed before that leaves it
        behind.  Only files whose writer pid no longer exists are listed,
        so a live writer's file is never touched.
        """
        return orphaned_temp_files(self.root, "*.rtrace")

    def usage(self) -> List["CacheEntry"]:
        """Inventory: orphaned temp files, then entries in LRU order.

        ``load`` refreshes an entry's mtime, so mtime order is use order.
        Files that vanish between the glob and the stat (concurrent
        prune) are skipped.
        """
        rows: List[CacheEntry] = []
        listed = [(p, False) for p in self.entries()]
        listed += [(p, True) for p in self.orphans()]
        for path, orphan in listed:
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append(CacheEntry(
                key=path.name.split(".rtrace", 1)[0],
                path=path,
                bytes=int(stat.st_size),
                mtime=float(stat.st_mtime),
                orphan=orphan,
            ))
        rows.sort(key=lambda e: (not e.orphan, e.mtime, e.key))
        return rows

    def total_bytes(self) -> int:
        """Total size of every cached capture."""
        return sum(entry.bytes for entry in self.usage())

    def prune(self, max_bytes: int) -> List["CacheEntry"]:
        """Delete every orphaned temp file, then evict least-recently-used
        entries until the cache fits.

        Deletions are plain unlinks — atomic against the cache's own
        readers, whose ``load`` treats a vanished file as a miss.  Returns
        the files removed (possibly none).
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries = self.usage()
        total = sum(entry.bytes for entry in entries)
        removed: List[CacheEntry] = []
        for entry in entries:  # orphans, then oldest first
            if total <= max_bytes and not entry.orphan:
                break
            try:
                entry.path.unlink()
            except OSError:  # pragma: no cover - raced with another pruner
                continue
            total -= entry.bytes
            removed.append(entry)
        return removed

    def clear(self) -> int:
        """Delete every entry and orphaned temp file; returns the number
        removed."""
        removed = 0
        for path in self.entries() + self.orphans():
            path.unlink()
            removed += 1
        return removed

    def stats_line(self) -> str:
        """One-line human summary (used by the CLI)."""
        return (f"capture cache {self.root}: {self.hits} hit(s), "
                f"{self.misses} miss(es), {len(self.entries())} entr(y/ies)")
