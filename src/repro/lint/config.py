"""Configuration for the linter, read from ``[tool.repro-lint]``.

Python 3.11+ parses the pyproject with :mod:`tomllib`; on 3.9/3.10 (which the
CI matrix still covers and where no TOML parser is guaranteed to be
installed) a deliberately minimal fallback parser handles the subset of TOML
this table actually uses: string scalars and (possibly multi-line) arrays of
strings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.lint.concurrency import DEFAULT_BLOCKING_CALLS

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
    _toml = None

SECTION = "repro-lint"

#: Paths (suffix-matched against the posix relative path) where the
#: determinism and plumbing rules do not apply — the RNG plumbing itself.
DEFAULT_RNG_EXEMPT = ("_util/rng.py",)

#: Persisted-schema sites for RPR008, each
#: ``"<site path>:<site qualname>:<version path>:<version constant>"``
#: (relative paths contain ``/`` never ``:``, so the colon split is safe).
DEFAULT_SCHEMA_SITES = (
    "exec/cache.py:CaptureCache.store.meta"
    ":exec/cache.py:CACHE_SCHEMA_VERSION",
    "stream/incremental.py:IncrementalScanIdentifier.snapshot"
    ":stream/checkpoint.py:STREAM_SCHEMA_VERSION",
    "telescope/trace.py:_COLUMN_ORDER:telescope/trace.py:MAGIC",
)


@dataclass
class LintConfig:
    """Resolved linter settings."""

    root: Path = field(default_factory=Path.cwd)
    paths: List[str] = field(default_factory=lambda: ["src/repro"])
    exclude: List[str] = field(default_factory=list)
    baseline: str = "lint-baseline.json"
    disable: List[str] = field(default_factory=list)
    warn: List[str] = field(default_factory=list)
    #: flake8-style rule filters: run only codes matching a ``select``
    #: prefix, then drop codes matching an ``ignore`` prefix.
    select: List[str] = field(default_factory=list)
    ignore: List[str] = field(default_factory=list)
    #: per-path-prefix disabled rule-code prefixes, from the
    #: ``[tool.repro-lint.paths]`` block (keys double as lint targets).
    path_rules: Dict[str, List[str]] = field(default_factory=dict)
    rng_exempt: List[str] = field(default_factory=lambda: list(DEFAULT_RNG_EXEMPT))
    #: project-pass knobs — TOML values are strings per the fallback parser,
    #: so ``workers`` stays a string here and is int()-ed at the use site.
    workers: str = "0"
    cache: str = ".repro-lint-cache"
    schema_manifest: str = "lint-schema.json"
    schema_sites: List[str] = field(
        default_factory=lambda: list(DEFAULT_SCHEMA_SITES)
    )
    #: RPR017 blocklist: ``*.leaf`` patterns (attribute calls by leaf name
    #: on non-literal receivers, project functions excluded), resolved
    #: dotted callees, or bare builtin names.
    blocking_calls: List[str] = field(
        default_factory=lambda: list(DEFAULT_BLOCKING_CALLS)
    )

    def baseline_path(self) -> Path:
        return self.root / self.baseline

    def cache_path(self) -> Optional[Path]:
        """Summary-cache directory; ``cache = ""`` disables caching."""
        if not self.cache:
            return None
        return self.root / self.cache

    def manifest_path(self) -> Path:
        return self.root / self.schema_manifest

    def default_workers(self) -> int:
        try:
            return int(self.workers)
        except ValueError:
            raise ValueError(
                f"[tool.{SECTION}].workers must be an integer string, "
                f"got {self.workers!r}"
            )

    def is_excluded(self, rel_path: str) -> bool:
        from fnmatch import fnmatch

        return any(fnmatch(rel_path, pat) for pat in self.exclude)

    def is_disabled_for(self, rel_path: str, code: str) -> bool:
        """True when a path-scoped rule set silences ``code`` under the
        longest matching ``[tool.repro-lint.paths]`` prefix."""
        best: Optional[str] = None
        for prefix in self.path_rules:
            if rel_path.startswith(prefix.rstrip("/") + "/") or rel_path == prefix:
                if best is None or len(prefix) > len(best):
                    best = prefix
        if best is None:
            return False
        return any(code.startswith(p) for p in self.path_rules[best])

    def to_payload(self, include_root: bool = True) -> Dict[str, object]:
        """JSON-serialisable form (for worker processes and cache keys)."""
        payload: Dict[str, object] = {}
        for attr in _KEY_MAP.values():
            value = getattr(self, attr)
            if isinstance(value, list):
                payload[attr] = list(value)
            elif isinstance(value, dict):
                payload[attr] = {k: list(v) for k, v in value.items()}
            else:
                payload[attr] = value
        if include_root:
            payload["root"] = str(self.root)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "LintConfig":
        cfg = cls()
        for attr in _KEY_MAP.values():
            if attr in payload:
                value = payload[attr]
                if isinstance(value, list):
                    value = list(value)
                elif isinstance(value, dict):
                    value = {k: list(v) for k, v in value.items()}
                setattr(cfg, attr, value)
        if "root" in payload:
            cfg.root = Path(str(payload["root"]))
        return cfg


_KEY_MAP = {
    "paths": "paths",
    "exclude": "exclude",
    "baseline": "baseline",
    "disable": "disable",
    "warn": "warn",
    "select": "select",
    "ignore": "ignore",
    "path-rules": "path_rules",
    "rng-exempt": "rng_exempt",
    "workers": "workers",
    "cache": "cache",
    "schema-manifest": "schema_manifest",
    "schema-sites": "schema_sites",
    "blocking-calls": "blocking_calls",
}


def load_config(pyproject: Optional[Path]) -> LintConfig:
    """Build a :class:`LintConfig` from a pyproject file (or defaults)."""
    if pyproject is None or not pyproject.is_file():
        return LintConfig()
    table = _read_tool_table(pyproject)
    cfg = LintConfig(root=pyproject.parent.resolve())
    for raw_key, value in table.items():
        attr = _KEY_MAP.get(raw_key, _KEY_MAP.get(raw_key.replace("_", "-")))
        if attr is None:
            raise ValueError(f"[tool.{SECTION}]: unknown key {raw_key!r}")
        if raw_key == "paths" and isinstance(value, dict):
            # ``[tool.repro-lint.paths]`` block: keys are lint targets,
            # values are rule-code prefixes disabled under that prefix.
            rules: Dict[str, List[str]] = {}
            for prefix, codes in value.items():
                if not isinstance(codes, list) or not all(
                    isinstance(c, str) for c in codes
                ):
                    raise ValueError(
                        f"[tool.{SECTION}.paths].{prefix!r} must be a "
                        "string array of rule-code prefixes"
                    )
                rules[prefix] = list(codes)
            cfg.paths = list(rules)
            cfg.path_rules = rules
            continue
        current = getattr(cfg, attr)
        if isinstance(current, dict):
            raise ValueError(
                f"[tool.{SECTION}].{raw_key} must be set via the "
                f"[tool.{SECTION}.paths] block"
            )
        if isinstance(current, list):
            if not isinstance(value, list) or not all(
                isinstance(v, str) for v in value
            ):
                raise ValueError(f"[tool.{SECTION}].{raw_key} must be a string array")
            setattr(cfg, attr, list(value))
        else:
            if not isinstance(value, str):
                raise ValueError(f"[tool.{SECTION}].{raw_key} must be a string")
            setattr(cfg, attr, value)
    return cfg


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk upward from ``start`` looking for a pyproject.toml."""
    node = start.resolve()
    if node.is_file():
        node = node.parent
    for candidate in [node, *node.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _read_tool_table(pyproject: Path) -> Dict[str, object]:
    text = pyproject.read_text(encoding="utf-8")
    if _toml is not None:
        data = _toml.loads(text)
        tool = data.get("tool", {})
        table = tool.get(SECTION, {})
        if not isinstance(table, dict):
            raise ValueError(f"[tool.{SECTION}] must be a table")
        return table
    return _fallback_parse(text)


def _fallback_parse(text: str) -> Dict[str, object]:
    """Parse the ``[tool.repro-lint]`` table (and its ``.<sub>`` subtables,
    e.g. ``[tool.repro-lint.paths]``) from minimal TOML."""
    table: Dict[str, object] = {}
    target: Optional[Dict[str, object]] = None  # None = outside our tables
    pending_key: Optional[str] = None
    pending_chunks: List[str] = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if pending_key is not None and target is not None:
            pending_chunks.append(line)
            joined = " ".join(pending_chunks)
            if _array_closed(joined):
                target[pending_key] = _parse_array(joined)
                pending_key, pending_chunks = None, []
            continue
        if line.startswith("["):
            if line == f"[tool.{SECTION}]":
                target = table
            elif line.startswith(f"[tool.{SECTION}."):
                sub = line[len(f"[tool.{SECTION}."):].rstrip("]")
                nested: Dict[str, object] = {}
                table[sub] = nested
                target = nested
            else:
                target = None
            continue
        if target is None or not line or line.startswith("#"):
            continue
        match = re.match(
            r'^("(?:[^"]*)"|[A-Za-z0-9_-]+)\s*=\s*(.*)$', line
        )
        if not match:
            raise ValueError(f"[tool.{SECTION}]: cannot parse line {raw_line!r}")
        key, value = match.group(1), match.group(2).strip()
        if key.startswith('"') and key.endswith('"'):
            key = key[1:-1]
        if value.startswith("["):
            if _array_closed(value):
                target[key] = _parse_array(value)
            else:
                pending_key, pending_chunks = key, [value]
        else:
            target[key] = _parse_string(value)
    if pending_key is not None:
        raise ValueError(f"[tool.{SECTION}].{pending_key}: unterminated array")
    return table


def _array_closed(chunk: str) -> bool:
    return _strip_comment(chunk).rstrip().endswith("]")


def _strip_comment(chunk: str) -> str:
    out: List[str] = []
    in_string = False
    for ch in chunk:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _parse_string(value: str) -> str:
    value = _strip_comment(value).strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    raise ValueError(f"expected a quoted string, got {value!r}")


def _parse_array(value: str) -> List[str]:
    value = _strip_comment(value).strip()
    inner = value[1:-1].strip()
    if not inner:
        return []
    items: List[str] = []
    for part in inner.split(","):
        part = part.strip()
        if not part:
            continue
        items.append(_parse_string(part))
    return items
