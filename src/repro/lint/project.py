"""The lint pass: per-file analysis, the summary cache, and RPR008's view.

:func:`analyze_files` parses each file once, runs every file rule on it
— the syntactic rules (RPR001, RPR002) and the overflow and lock rules
(RPR011, RPR017, RPR018), whose analyses are solved over that module's
functions — and reduces it to a :class:`ModuleSummary`: ALL_CAPS
constants, persisted-dict field sets and the suppression table.  The
rules, the analyses and :func:`summarize` read one index per module,
built by one walk (:class:`~repro.lint._ast.ModuleScope`).
:class:`ProjectContext` gathers the summaries for the one whole-program
rule, RPR008, which compares a persisted site in one module with a
version constant in another.

A file's summary and findings are content-addressed-cached together —
the same blake2b keying discipline as ``repro.exec.cache.CaptureCache``
— so a warm lint parses, extracts and solves nothing for an unedited
file.  The key covers the file, the lint configuration and the source of
every module of this package, so an edit to the linter misses everywhere.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Sequence, Tuple

from repro._files import atomic_replace
from repro.lint._ast import module_bindings
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import (
    REGISTRY,
    FileContext,
    RuleRegistry,
    check_file,
    collect_files,
    is_suppressed,
    parse_suppressions,
)

#: The linter's own source, digested into every cache key.
LINT_PACKAGE = Path(__file__).resolve().parent


@dataclass
class ModuleSummary:
    """What RPR008 may ask about one module — JSON-serialisable."""

    rel_path: str
    #: ALL_CAPS module constants: name -> repr(value)
    constants: Dict[str, str] = field(default_factory=dict)
    #: persisted-field sets: qualname -> {'fields': [...], 'lineno': n}
    schema_fields: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: inline-suppression table: [line, codes-or-None] pairs
    suppressions: List[List[Any]] = field(default_factory=list)

    def suppression_table(self) -> Dict[int, Optional[Set[str]]]:
        return {
            line: (None if codes is None else set(codes))
            for line, codes in self.suppressions
        }


# ---------------------------------------------------------------------------
# the summariser
# ---------------------------------------------------------------------------


def _const_str_keys(node: ast.Dict) -> Optional[List[str]]:
    keys: List[str] = []
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
        else:
            return None
    return keys or None


def _pair_sequence_fields(node: ast.AST) -> Optional[List[str]]:
    """First elements of a tuple/list of tuples — e.g. ``_COLUMN_ORDER``."""
    if not isinstance(node, (ast.Tuple, ast.List)) or not node.elts:
        return None
    fields: List[str] = []
    for elt in node.elts:
        if not (isinstance(elt, (ast.Tuple, ast.List)) and elt.elts):
            return None
        head = elt.elts[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            fields.append(head.value)
        else:
            return None
    return fields


def summarize(
    ctx: FileContext, suppressions: Dict[int, Optional[Set[str]]]
) -> ModuleSummary:
    """Constants, persisted field sets and suppressions of one module."""
    out = ModuleSummary(rel_path=ctx.rel_path)
    for line in sorted(suppressions):
        codes = suppressions[line]
        out.suppressions.append([line, None if codes is None else sorted(codes)])
    for node, name, value in module_bindings(ctx.tree):
        if name.isupper():
            if isinstance(value, ast.Constant) and isinstance(
                value.value, (int, str, bytes)
            ):
                out.constants[name] = repr(value.value)
            fields = _pair_sequence_fields(value)
            if fields is not None:
                out.schema_fields[name] = {
                    "fields": fields, "lineno": node.lineno
                }
        if isinstance(value, ast.Dict):
            keys = _const_str_keys(value)
            if keys is not None:
                out.schema_fields.setdefault(
                    name, {"fields": keys, "lineno": node.lineno}
                )

    # Dict literals returned / bound in a function are persisted-schema
    # candidates, keyed by qualname[.var].
    def record(qual: str, keys: List[str], lineno: int) -> None:
        entry = out.schema_fields.setdefault(
            qual, {"fields": [], "lineno": lineno}
        )
        entry["fields"] = sorted(set(entry["fields"]) | set(keys))

    for fn in ctx.scope.functions:
        for _, inner in fn.stores:
            if isinstance(inner, ast.Return) and isinstance(inner.value, ast.Dict):
                keys = _const_str_keys(inner.value)
                if keys is not None:
                    record(fn.qualname, keys, inner.lineno)
            elif isinstance(inner, ast.Assign) and isinstance(inner.value, ast.Dict):
                keys = _const_str_keys(inner.value)
                if keys is None:
                    continue
                for target in inner.targets:
                    if isinstance(target, ast.Name):
                        record(f"{fn.qualname}.{target.id}", keys, inner.lineno)
    return out


def summarize_source(source: str, rel_path: str) -> ModuleSummary:
    """Summarise one in-memory source blob (the unit the tests drive)."""
    ctx = FileContext(path=Path(rel_path), rel_path=rel_path, source=source,
                      tree=ast.parse(source, filename=rel_path),
                      config=LintConfig())
    return summarize(ctx, parse_suppressions(ctx.lines))


# ---------------------------------------------------------------------------
# the whole-program view
# ---------------------------------------------------------------------------


class ProjectContext:
    """Cross-module view over every :class:`ModuleSummary`."""

    def __init__(self, config: LintConfig,
                 modules: Dict[str, ModuleSummary]):
        self.config = config
        self.modules = modules  #: rel_path -> summary

    def module_by_suffix(self, suffix: str) -> Optional[ModuleSummary]:
        for summary in self.modules.values():
            if summary.rel_path.endswith(suffix):
                return summary
        return None


# ---------------------------------------------------------------------------
# content-addressed per-file cache
# ---------------------------------------------------------------------------


class SummaryCache:
    """Per-file analysis cache keyed on content, config and the linter.

    Each linted file owns one JSON entry, named after a digest of its
    relative path, that holds the file's summary, its file-rule findings
    and the key they were computed under.  The key mirrors
    ``CaptureCache``'s blake2b discipline, so any edit — to the file, the
    lint configuration, the rule set or any module of the linter —
    misses, re-analyses and overwrites the entry, while untouched files
    load without parsing.  A store writes its own temporary sibling and
    renames it into place, so lints sharing the directory never collide.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def salt(config: LintConfig, registry: RuleRegistry) -> str:
        """What every entry depends on besides its file: the source of
        every ``.py`` file of this package, the rule set and the config."""
        linter = hashlib.blake2b(digest_size=16)
        for path in sorted(LINT_PACKAGE.rglob("*.py")):
            data = path.read_bytes()
            rel = path.relative_to(LINT_PACKAGE).as_posix()
            linter.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
            linter.update(data)
        material = {
            "linter": linter.hexdigest(),
            "rules": [r.code for r in registry.rules()],
            "config": {k: v for k, v in vars(config).items() if k != "root"},
        }
        return json.dumps(material, sort_keys=True)

    def key_for(self, rel_path: str, source: bytes, salt: str) -> str:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(salt.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(rel_path.encode("utf-8"))
        digest.update(b"\x1f")
        digest.update(source)
        return digest.hexdigest()

    def path_for(self, rel_path: str) -> Path:
        name = hashlib.blake2b(rel_path.encode("utf-8"), digest_size=16)
        return self.root / f"{name.hexdigest()}.lint.json"

    def load(self, rel_path: str, key: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(rel_path)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if payload.get("key") != key:
            self.misses += 1
            return None
        self.hits += 1
        return dict(payload)

    def store(self, rel_path: str, key: str,
              payload: Dict[str, Any]) -> None:
        payload = dict(payload)
        payload["key"] = key
        with atomic_replace(self.path_for(rel_path)) as handle:
            handle.write(json.dumps(payload, sort_keys=True).encode("utf-8"))


# ---------------------------------------------------------------------------
# pass orchestration
# ---------------------------------------------------------------------------


@dataclass
class ProjectStats:
    """What one lint did (surfaced by the CLI)."""

    files: int = 0
    parsed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


def _diag_to_dict(diag: Diagnostic) -> Dict[str, Any]:
    return {"path": diag.path, "line": diag.line, "col": diag.col,
            "code": diag.code, "message": diag.message,
            "severity": diag.severity.value}


def _diag_from_dict(data: Dict[str, Any]) -> Diagnostic:
    return Diagnostic(path=data["path"], line=int(data["line"]),
                      col=int(data["col"]), code=data["code"],
                      message=data["message"],
                      severity=Severity(data["severity"]))


def analyze_files(
    files: Sequence[Tuple[Path, str]],
    config: LintConfig,
    registry: RuleRegistry = REGISTRY,
    cache: Optional[SummaryCache] = None,
) -> Tuple[ProjectContext, List[Diagnostic], ProjectStats]:
    """Every file rule over ``files`` (``(path, rel_path)`` pairs from
    :func:`~repro.lint.engine.collect_files`), plus the module summaries.

    Each file is parsed once; its suppression-filtered findings and its
    summary are stored in ``cache``, from which an unedited file later
    loads without being parsed or analysed.
    """
    stats = ProjectStats(files=len(files))
    salt = SummaryCache.salt(config, registry) if cache is not None else ""
    modules: Dict[str, ModuleSummary] = {}
    found: List[Diagnostic] = []
    for path, rel in files:
        source = path.read_bytes()
        key = ""
        if cache is not None:
            key = cache.key_for(rel, source, salt)
            payload = cache.load(rel, key)
            if payload is not None:
                modules[rel] = ModuleSummary(**payload["summary"])
                found.extend(_diag_from_dict(d) for d in payload["diagnostics"])
                continue
        stats.parsed += 1
        text = source.decode("utf-8")
        ctx = FileContext(path=path, rel_path=rel, source=text,
                          tree=ast.parse(text, filename=rel), config=config)
        table = parse_suppressions(ctx.lines)
        summary = summarize(ctx, table)
        diags = check_file(ctx, registry, table)
        modules[rel] = summary
        found.extend(diags)
        if cache is not None:
            cache.store(rel, key, {
                "summary": asdict(summary),
                "diagnostics": [_diag_to_dict(d) for d in diags],
            })
    if cache is not None:
        stats.cache_hits = cache.hits
        stats.cache_misses = cache.misses
    project = ProjectContext(config, modules)
    return project, sorted(found, key=Diagnostic.sort_key), stats


def run_project_rules(
    project: ProjectContext,
    config: LintConfig,
    registry: RuleRegistry = REGISTRY,
) -> List[Diagnostic]:
    """The whole-program rules (RPR008), suppression-filtered."""
    kept: List[Diagnostic] = []
    for rule in registry.project_rules(config):
        for diag in rule.check_project(project):
            summary = project.modules.get(diag.path)
            table = summary.suppression_table() if summary is not None else {}
            if not is_suppressed(diag, table):
                kept.append(diag)
    return sorted(kept, key=Diagnostic.sort_key)


def lint_repository(
    config: LintConfig,
    paths: Optional[Iterable[Path]] = None,
    registry: RuleRegistry = REGISTRY,
    workers: int = 0,
    cache_dir: Optional[Path] = None,
    use_cache: bool = True,
) -> Tuple[List[Diagnostic], ProjectContext, ProjectStats]:
    """One lint of the configured tree: every file rule per module, then
    the project rules.  Files are checked serially; ``workers`` accepts
    only that serial value, 0."""
    if workers != 0:
        raise ValueError(
            f"workers must be 0: repro-lint checks files serially, got {workers}"
        )
    targets = (
        list(paths) if paths is not None
        else [config.root / p for p in config.paths]
    )
    files = collect_files(targets, config)
    cache: Optional[SummaryCache] = None
    if use_cache:
        root = cache_dir if cache_dir is not None else config.cache_path()
        if root is not None:
            cache = SummaryCache(root)
    project, file_diags, stats = analyze_files(
        files, config, registry=registry, cache=cache
    )
    project_diags = run_project_rules(project, config, registry=registry)
    diagnostics = sorted(file_diags + project_diags, key=Diagnostic.sort_key)
    if config.path_rules:
        diagnostics = [
            d for d in diagnostics
            if not config.is_disabled_for(d.path, d.code)
        ]
    return diagnostics, project, stats
