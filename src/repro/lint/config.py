"""Configuration for the linter, read from ``[tool.repro-lint.paths]``.

That subtable is the whole ``[tool.repro-lint]`` table: each key is a
path prefix to lint, each value lists the rule-code prefixes disabled
under it.  Any other key is an error.  The settings that never vary are
constants of the module that reads them: the RNG exemption of RPR001 and
RPR002, RPR008's manifest and schema sites, RPR017's blocklist, and the
cache directory below.  ``--select``, ``--ignore``, ``--cache-dir`` and
``--no-cache`` scope one run.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

SECTION = "repro-lint"

#: Summary-cache directory under the lint root.
CACHE_DIR = ".repro-lint-cache"


@dataclass
class LintConfig:
    """Resolved linter settings."""

    root: Path = field(default_factory=Path.cwd)
    paths: List[str] = field(default_factory=lambda: ["src/repro"])
    #: per-path-prefix disabled rule-code prefixes, from the
    #: ``[tool.repro-lint.paths]`` table (keys double as lint targets).
    path_rules: Dict[str, List[str]] = field(default_factory=dict)
    #: flake8-style rule filters: run only codes matching a ``select``
    #: prefix, then drop codes matching an ``ignore`` prefix.
    select: List[str] = field(default_factory=list)
    ignore: List[str] = field(default_factory=list)
    #: summary-cache directory under the root ("" = no cache)
    cache: str = CACHE_DIR

    def cache_path(self) -> Optional[Path]:
        """Summary-cache directory; ``cache = ""`` disables caching."""
        if not self.cache:
            return None
        return self.root / self.cache

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


def load_config(pyproject: Optional[Path]) -> LintConfig:
    """Build a :class:`LintConfig` from a pyproject file (or defaults).

    Without a pyproject the root is only the current directory, so the
    defaults cache nothing there (``--cache-dir`` still names a cache).
    """
    if pyproject is None or not pyproject.is_file():
        return LintConfig(cache="")
    with pyproject.open("rb") as handle:
        table = tomllib.load(handle).get("tool", {}).get(SECTION, {})
    cfg = LintConfig(root=pyproject.parent.resolve())
    for key in table:
        if key != "paths":
            raise ValueError(
                f"[tool.{SECTION}]: unknown key {key!r}; the table holds "
                f"only the [tool.{SECTION}.paths] subtable"
            )
    paths = table.get("paths")
    if paths is None:
        return cfg
    if not isinstance(paths, dict):
        raise ValueError(
            f"[tool.{SECTION}].paths must be the [tool.{SECTION}.paths] "
            "subtable: path prefix = [disabled rule-code prefixes]"
        )
    for prefix, codes in paths.items():
        if not isinstance(codes, list) or not all(
            isinstance(c, str) for c in codes
        ):
            raise ValueError(
                f"[tool.{SECTION}.paths].{prefix!r} must be a "
                "string array of rule-code prefixes"
            )
        cfg.path_rules[prefix] = list(codes)
    cfg.paths = list(cfg.path_rules)
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
