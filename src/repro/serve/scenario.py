"""Per-tenant scenarios: named configs with cached derived analyses.

A :class:`Scenario` is a tenant-owned, named handle on one capture
configuration (a :class:`~repro.serve.jobs.JobSpec` without the kind — the
scenario decides how to compute, the spec decides *what*).  Its derived
analyses — the paper-report tables, figure series and tool fingerprints a
report job produces — are cached on the scenario under its **config hash**:
update the spec and the hash moves, so every cached analysis invalidates
at once and the next report request recomputes (against warm captures and
checkpoints, so "recompute" is usually a cache load).  Revert the spec and
the old hash returns, but the cache was dropped on update — correctness
never depends on remembering stale derivations.

The store persists one JSON document per scenario under
``<state_dir>/scenarios/<tenant>/<name>.json`` (atomic writes), so a
restarted server serves cached reports immediately.  Tenant and scenario
names are path components — they are validated against a conservative
pattern, not escaped.
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import __version__
from repro._files import atomic_replace
from repro.exec.cache import content_key
from repro.serve.jobs import JobSpec

PathLike = Union[str, Path]

#: Tenant and scenario names must be safe path components.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _check_name(kind: str, value: str) -> str:
    if not isinstance(value, str) or not _NAME_RE.match(value) or ".." in value:
        raise ValueError(
            f"invalid {kind} {value!r}: need 1-64 chars of [A-Za-z0-9._-] "
            "starting with an alphanumeric"
        )
    return value


def config_hash(spec: JobSpec) -> str:
    """Content hash of a scenario's configuration.

    Only the capture parameters join the material — the job kind is the
    *service's* choice of computation path, not part of what the tenant
    configured — plus schema/version, so library upgrades that change
    analysis semantics invalidate every cached derivation.
    """
    material = {
        "schema": 1,
        "version": __version__,
        "config": {
            "year": spec.year,
            "days": spec.days,
            "max_packets": spec.max_packets,
            "min_scans": spec.min_scans,
            "seed": spec.seed,
        },
    }
    digest: str = content_key(material)
    return digest


@dataclasses.dataclass
class Scenario:
    """One tenant's named configuration plus its cached derivations."""

    tenant: str
    name: str
    spec: JobSpec
    revision: int = 1
    #: ``{"config_hash": ..., "payload": {...}}`` — valid only while the
    #: stored hash equals the current :func:`config_hash` of ``spec``.
    derived: Optional[Dict[str, Any]] = None

    @property
    def config_hash(self) -> str:
        return config_hash(self.spec)

    def cached_payload(self) -> Optional[Dict[str, Any]]:
        """The cached derived analyses, or ``None`` when stale/absent."""
        if (
            self.derived is not None
            and self.derived.get("config_hash") == self.config_hash
        ):
            return self.derived.get("payload")
        return None

    def to_dict(self, with_derived: bool = True) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "tenant": self.tenant,
            "name": self.name,
            "spec": self.spec.to_dict(),
            "revision": self.revision,
            "config_hash": self.config_hash,
            "report_cached": self.cached_payload() is not None,
        }
        if with_derived:
            doc["derived"] = self.derived
        return doc


class ScenarioStore:
    """Thread-safe CRUD + derived-analysis cache over scenarios.

    ``state_dir=None`` keeps scenarios in memory only.
    """

    def __init__(self, state_dir: Optional[PathLike] = None) -> None:
        self.root: Optional[Path] = None
        if state_dir is not None:
            self.root = Path(state_dir) / "scenarios"
            self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._scenarios: Dict[Tuple[str, str], Scenario] = {}
        if self.root is not None:
            self._restore()

    # -- CRUD ---------------------------------------------------------------

    def put(self, tenant: str, name: str, spec: JobSpec) -> Scenario:
        """Create or update a scenario.

        An update with an unchanged spec is a no-op (same revision, caches
        kept).  A changed spec bumps the revision and drops every cached
        derivation — that is the config-hash invalidation in one move.
        """
        _check_name("tenant", tenant)
        _check_name("scenario name", name)
        spec.validate()
        with self._lock:
            existing = self._scenarios.get((tenant, name))
            if existing is not None and existing.spec == spec:
                return existing
            scenario = Scenario(
                tenant=tenant,
                name=name,
                spec=spec,
                revision=existing.revision + 1 if existing is not None else 1,
            )
            self._scenarios[(tenant, name)] = scenario
            self._persist_locked(scenario)
            return scenario

    def get(self, tenant: str, name: str) -> Optional[Scenario]:
        with self._lock:
            return self._scenarios.get((tenant, name))

    def list(self, tenant: str) -> List[Scenario]:
        with self._lock:
            return sorted(
                (s for s in self._scenarios.values() if s.tenant == tenant),
                key=lambda s: s.name,
            )

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted({s.tenant for s in self._scenarios.values()})

    def count(self) -> int:
        with self._lock:
            return len(self._scenarios)

    def delete(self, tenant: str, name: str) -> bool:
        with self._lock:
            scenario = self._scenarios.pop((tenant, name), None)
            if scenario is None:
                return False
            if self.root is not None:
                path = self._path(tenant, name)
                if path.exists():
                    path.unlink()
            return True

    # -- derived-analysis cache ---------------------------------------------

    def cache_derived(self, scenario: Scenario, payload: Dict[str, Any]) -> None:
        """Attach a report job's derivations under the current config hash."""
        with self._lock:
            scenario.derived = {
                "config_hash": scenario.config_hash,
                "payload": payload,
            }
            self._persist_locked(scenario)

    # -- persistence --------------------------------------------------------

    def _path(self, tenant: str, name: str) -> Path:
        assert self.root is not None
        return self.root / tenant / f"{name}.json"

    def _persist_locked(self, scenario: Scenario) -> None:
        if self.root is None:
            return
        path = self._path(scenario.tenant, scenario.name)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": 1,
            "version": __version__,
            "scenario": scenario.to_dict(with_derived=True),
        }
        # Invariant: persisted scenarios must serialise with the in-memory
        # transition they mirror (crash consistency); the payload is one
        # small local JSON document.
        with atomic_replace(path) as handle:  # repro-lint: disable=RPR017
            handle.write(json.dumps(doc, sort_keys=True).encode("utf-8"))

    def _restore(self) -> None:
        assert self.root is not None
        for path in sorted(self.root.glob("*/*.json")):
            try:
                doc = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if doc.get("schema") != 1 or doc.get("version") != __version__:
                # A library upgrade changes config hashes anyway; stale
                # scenario files are simply ignored (and overwritten on the
                # next put) rather than migrated.
                continue
            data = doc.get("scenario", {})
            try:
                spec = JobSpec.from_dict(data["spec"])
                scenario = Scenario(
                    tenant=_check_name("tenant", data["tenant"]),
                    name=_check_name("scenario name", data["name"]),
                    spec=spec,
                    revision=int(data.get("revision", 1)),
                    derived=data.get("derived"),
                )
            except (KeyError, ValueError, TypeError):
                continue
            self._scenarios[(scenario.tenant, scenario.name)] = scenario
