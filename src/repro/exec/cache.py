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

Entries are written atomically (temp file + ``os.replace``) so a crashed or
concurrent writer can never leave a truncated entry behind; the packet
columns live in the trace chunks and the ground-truth campaign list plus
scale metadata in the trace's JSON meta block.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro import __version__
from repro._util.rng import stream_signature
from repro.telescope.trace import TraceFormatError, read_trace, write_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulation.world import SimulationResult, TelescopeWorld

#: Bump to invalidate every existing cache entry (e.g. when the generator's
#: draw order changes without any config/version change).
CACHE_SCHEMA_VERSION = 1

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


def _spec_to_json(spec) -> Dict[str, Any]:
    """Serialise one ground-truth CampaignSpec for the trace meta block."""
    return {
        "campaign_id": spec.campaign_id,
        "cohort": spec.cohort,
        "scanner_type": spec.scanner_type.value,
        "tool": spec.tool.value,
        "country": spec.country,
        "src_ips": list(spec.src_ips),
        "ports": list(spec.ports),
        "start": spec.start,
        "rate_pps": spec.rate_pps,
        "telescope_hits": spec.telescope_hits,
        "ipv4_coverage": spec.ipv4_coverage,
        "sequential": spec.sequential,
        "fingerprintable": spec.fingerprintable,
        "organisation": spec.organisation,
    }


def _spec_from_json(data: Dict[str, Any]):
    from repro.enrichment.types import ScannerType
    from repro.scanners.base import Tool
    from repro.simulation.campaigns import CampaignSpec

    return CampaignSpec(
        campaign_id=int(data["campaign_id"]),
        cohort=data["cohort"],
        scanner_type=ScannerType(data["scanner_type"]),
        tool=Tool(data["tool"]),
        country=data["country"],
        src_ips=tuple(map(int, data["src_ips"])),
        ports=tuple(map(int, data["ports"])),
        start=float(data["start"]),
        rate_pps=float(data["rate_pps"]),
        telescope_hits=int(data["telescope_hits"]),
        ipv4_coverage=float(data["ipv4_coverage"]),
        sequential=bool(data["sequential"]),
        fingerprintable=bool(data["fingerprintable"]),
        organisation=data["organisation"],
    )


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One cached capture as seen by the maintenance commands."""

    key: str
    path: Path
    bytes: int
    mtime: float


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
                campaigns=[_spec_from_json(s) for s in meta["campaigns"]],
                packet_scale=float(meta["packet_scale"]),
                scan_scale=float(meta["scan_scale"]),
                background_sources=int(meta["background_sources"]),
                backscatter_packets=int(meta["backscatter_packets"]),
                coverage_cap=float(meta["coverage_cap"]),
                cache_hit=True,
            )
        except (OSError, KeyError, ValueError):
            # OSError: unreadable, or removed by a concurrent prune.
            # ValueError: damaged bytes (TraceFormatError is one) or a bad
            # field value.  KeyError: metadata that parses but lacks a field.
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
        """Persist a finished period under ``key`` (atomic)."""
        path = self.path_for(key)
        meta = {
            "cache_key": key,
            "year": result.year,
            "days": result.days,
            "packet_scale": result.packet_scale,
            "scan_scale": result.scan_scale,
            "background_sources": result.background_sources,
            "backscatter_packets": result.backscatter_packets,
            "coverage_cap": result.coverage_cap,
            "campaigns": [_spec_to_json(s) for s in result.campaigns],
        }
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        try:
            write_trace(tmp, result.batch, meta=meta)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on write failure
                tmp.unlink()
        return path

    # -- maintenance --------------------------------------------------------

    def entries(self) -> List[Path]:
        """Cached capture files, sorted by name."""
        return sorted(self.root.glob("*.rtrace"))

    def usage(self) -> List["CacheEntry"]:
        """Entry inventory in LRU order (least recently used first).

        ``load`` refreshes an entry's mtime, so mtime order is use order.
        Entries that vanish between the glob and the stat (concurrent
        prune) are skipped.
        """
        rows: List[CacheEntry] = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append(CacheEntry(
                key=path.stem,
                path=path,
                bytes=int(stat.st_size),
                mtime=float(stat.st_mtime),
            ))
        rows.sort(key=lambda e: (e.mtime, e.key))
        return rows

    def total_bytes(self) -> int:
        """Total size of every cached capture."""
        return sum(entry.bytes for entry in self.usage())

    def prune(self, max_bytes: int) -> List["CacheEntry"]:
        """Evict least-recently-used entries until the cache fits.

        Deletions are plain unlinks — atomic against the cache's own
        readers, whose ``load`` treats a vanished file as a miss.  Returns
        the entries removed (possibly none).
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries = self.usage()
        total = sum(entry.bytes for entry in entries)
        removed: List[CacheEntry] = []
        for entry in entries:  # oldest first
            if total <= max_bytes:
                break
            try:
                entry.path.unlink()
            except OSError:  # pragma: no cover - raced with another pruner
                continue
            total -= entry.bytes
            removed.append(entry)
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        return removed

    def stats_line(self) -> str:
        """One-line human summary (used by the CLI)."""
        return (f"capture cache {self.root}: {self.hits} hit(s), "
                f"{self.misses} miss(es), {len(self.entries())} entr(y/ies)")
