"""Whole-program analysis pass (pass 1) for the project rules.

:func:`analyze_files` reduces every source file to a serialisable
:class:`ModuleSummary` — ALL_CAPS constants, persisted-dict field sets,
lock definitions, and per function the typeflow and concurrency records.
:class:`ProjectContext` stitches the summaries into the whole-program
view that the :class:`~repro.lint.engine.ProjectRule` subclasses (RPR008,
RPR011, RPR017, RPR018) traverse.

Summaries carry everything pass 2 needs and nothing it does not (no live
ASTs), so they are content-addressed-cached per file — the same blake2b
keying discipline as ``repro.exec.cache.CaptureCache`` — and a warm lint
re-parses only edited files.  Files are summarised in parallel with the
repo's ``--workers`` convention (0 = serial in-process).
"""

from __future__ import annotations

import ast
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro import __version__
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import (
    REGISTRY,
    FileContext,
    RuleRegistry,
    _relativize,
    apply_warn,
    collect_files,
    is_suppressed,
    parse_suppressions,
)
from repro.lint._ast import import_aliases, resolve
from repro.lint.concurrency import (
    ConcurrencyAnalysis,
    ConcurrencyExtractor,
    ConcurrencyFunction,
    FunctionConcurrency,
    LockInfo,
    concurrency_fingerprint,
    lock_kind,
)
from repro.lint.typeflow import (
    FunctionTypeflow,
    TypeflowAnalysis,
    TypeflowExtractor,
    TypeflowFunction,
    lattice_fingerprint,
)

#: Bump when the summary layout changes; every cache entry then misses.
SUMMARY_SCHEMA_VERSION = 6


# ---------------------------------------------------------------------------
# summary records
# ---------------------------------------------------------------------------


@dataclass
class FunctionSummary:
    """Facts about one function that survive across module boundaries."""

    qualname: str
    lineno: int
    params: List[str]
    #: pass-3 dataflow record (events, returns, abstract call args)
    typeflow: Optional[Dict[str, Any]] = None
    #: pass-4 concurrency record (lock scopes, calls, callback registrations)
    concurrency: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname, "lineno": self.lineno,
            "params": self.params,
            "typeflow": self.typeflow,
            "concurrency": self.concurrency,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=data["qualname"], lineno=int(data["lineno"]),
            params=list(data["params"]),
            typeflow=data.get("typeflow"),
            concurrency=data.get("concurrency"),
        )


@dataclass
class ModuleSummary:
    """Everything pass 2 may ask about one module — JSON-serialisable."""

    rel_path: str
    module: str  #: dotted module name derived from the relative path
    #: ALL_CAPS module constants: name -> repr(value)
    constants: Dict[str, str] = field(default_factory=dict)
    #: persisted-field sets: qualname -> {'fields': [...], 'lineno': n}
    schema_fields: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: lock definition sites: [owner ('<module>' or class name), attr,
    #: kind ('lock'/'rlock'), lineno]
    lock_defs: List[List[Any]] = field(default_factory=list)
    #: inline-suppression table: [line, codes-or-None]
    suppressions: List[Tuple[int, Optional[List[str]]]] = field(
        default_factory=list
    )

    def suppression_table(self) -> Dict[int, Optional[Set[str]]]:
        return {
            line: (None if codes is None else set(codes))
            for line, codes in self.suppressions
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rel_path": self.rel_path,
            "module": self.module,
            "constants": self.constants,
            "schema_fields": self.schema_fields,
            "functions": {q: f.to_dict() for q, f in self.functions.items()},
            "lock_defs": [list(d) for d in self.lock_defs],
            "suppressions": [
                [line, codes] for line, codes in self.suppressions
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ModuleSummary":
        return cls(
            rel_path=data["rel_path"],
            module=data["module"],
            constants=dict(data["constants"]),
            schema_fields={
                q: {"fields": list(v["fields"]), "lineno": int(v["lineno"])}
                for q, v in data["schema_fields"].items()
            },
            functions={
                q: FunctionSummary.from_dict(f)
                for q, f in data["functions"].items()
            },
            lock_defs=[
                [d[0], d[1], d[2], int(d[3])]
                for d in data.get("lock_defs", [])
            ],
            suppressions=[
                (int(line), None if codes is None else list(codes))
                for line, codes in data["suppressions"]
            ],
        )


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a posix relative path.

    ``src/repro/exec/cache.py`` → ``repro.exec.cache``; a package
    ``__init__.py`` names the package itself.
    """
    parts = [p for p in rel_path.split("/") if p]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


# ---------------------------------------------------------------------------
# pass 1: the summariser
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


class _Summarizer:
    """Single AST pass producing a :class:`ModuleSummary`."""

    def __init__(self, tree: ast.Module, source: str, rel_path: str):
        self.tree = tree
        self.rel_path = rel_path
        self.module = module_name_for(rel_path)
        self.aliases = import_aliases(tree)
        self.summary = ModuleSummary(rel_path=rel_path, module=self.module)
        self.summary.suppressions = sorted(
            (line, None if codes is None else sorted(codes))
            for line, codes in parse_suppressions(source.splitlines()).items()
        )
        #: names of module-level defs (for bare-name call resolution)
        self.toplevel_defs: Set[str] = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
        }

    def run(self) -> ModuleSummary:
        self._module_scope()
        stack: List[str] = []

        def visit(node: ast.AST, klass: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if stack:
                        qual = f"{stack[-1]}.{child.name}"
                    elif klass:
                        qual = f"{klass}.{child.name}"
                    else:
                        qual = child.name
                    stack.append(qual)
                    self._function(child, qual, klass)
                    visit(child, None)
                    stack.pop()
                else:
                    visit(child, klass)

        visit(self.tree, None)
        return self.summary

    def _lock_def(self, owner: str, attr: str, kind: str,
                  lineno: int) -> None:
        for entry in self.summary.lock_defs:
            if entry[0] == owner and entry[1] == attr:
                return
        self.summary.lock_defs.append([owner, attr, kind, lineno])

    # -- module scope -------------------------------------------------------

    def _module_scope(self) -> None:
        out = self.summary
        for node in self.tree.body:
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                kind = lock_kind(value, self.aliases)
                if kind is not None:
                    self._lock_def("<module>", name, kind, node.lineno)
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

    # -- functions ----------------------------------------------------------

    def _function(self, func: ast.AST, qualname: str,
                  klass: Optional[str]) -> None:
        args = func.args
        params = [a.arg for a in [*args.posonlyargs, *args.args]]
        fsum = FunctionSummary(qualname=qualname, lineno=func.lineno,
                               params=params)

        # Pass-3 dataflow record: expression IR + arithmetic events,
        # extracted now so warm runs never re-parse for typeflow.
        flow = TypeflowExtractor(
            params,
            self.aliases,
            lambda call: self._resolve_call(call, klass),
        ).extract(func)
        if flow.events or flow.returns or flow.calls:
            fsum.typeflow = flow.to_dict()

        # Pass-4 concurrency record: lock scopes, calls (deferred-flagged)
        # and callback registrations.
        if klass is not None:
            for node in ast.walk(func):
                if not isinstance(node, ast.Assign):
                    continue
                kind = lock_kind(node.value, self.aliases)
                if kind is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self._lock_def(klass, target.attr, kind, node.lineno)
        conc = ConcurrencyExtractor(
            self.module,
            klass,
            self.aliases,
            self.toplevel_defs,
            lambda call: self._resolve_call(call, klass),
        ).extract(func)
        if conc.events:
            fsum.concurrency = conc.to_dict()

        # Record dict literals returned / bound in this function as
        # persisted-schema candidates (keyed by qualname[.var]).
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                keys = _const_str_keys(node.value)
                if keys is not None:
                    entry = self.summary.schema_fields.setdefault(
                        qualname, {"fields": [], "lineno": node.lineno}
                    )
                    entry["fields"] = sorted(set(entry["fields"]) | set(keys))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                keys = _const_str_keys(node.value)
                if keys is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        qual = f"{qualname}.{target.id}"
                        entry = self.summary.schema_fields.setdefault(
                            qual, {"fields": [], "lineno": node.lineno}
                        )
                        entry["fields"] = sorted(
                            set(entry["fields"]) | set(keys)
                        )

        self.summary.functions[qualname] = fsum

    def _resolve_call(self, node: ast.Call,
                      klass: Optional[str]) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.toplevel_defs:
                return f"{self.module}.{func.id}"
            return self.aliases.get(func.id)
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and klass is not None
            ):
                return f"{self.module}.{klass}.{func.attr}"
            return resolve(func, self.aliases)
        return None


def summarize_source(source: str, rel_path: str,
                     tree: Optional[ast.Module] = None) -> ModuleSummary:
    """Summarise one source blob (parses unless ``tree`` is supplied)."""
    if tree is None:
        tree = ast.parse(source, filename=rel_path)
    return _Summarizer(tree, source, rel_path).run()


# ---------------------------------------------------------------------------
# the whole-program view
# ---------------------------------------------------------------------------


class ProjectContext:
    """Cross-module view over every :class:`ModuleSummary`."""

    def __init__(self, config: LintConfig,
                 modules: Dict[str, ModuleSummary]):
        self.config = config
        self.modules = modules  #: rel_path -> summary
        self._typeflow: Optional[TypeflowAnalysis] = None
        self._concurrency: Optional[ConcurrencyAnalysis] = None

    # -- lookups ------------------------------------------------------------

    def module_by_suffix(self, suffix: str) -> Optional[ModuleSummary]:
        for summary in self.modules.values():
            if summary.rel_path.endswith(suffix):
                return summary
        return None

    def iter_modules(self) -> Iterator[ModuleSummary]:
        for rel_path in sorted(self.modules):
            yield self.modules[rel_path]

    # -- typeflow (pass 3) ---------------------------------------------------

    def typeflow_analysis(self) -> TypeflowAnalysis:
        """Solved interprocedural typeflow over every summarised function.

        Memoised: the fixpoint runs once per lint invocation, purely over
        the cached summaries (no AST access), so warm runs stay warm.
        """
        if self._typeflow is not None:
            return self._typeflow
        functions: Dict[str, TypeflowFunction] = {}
        for summary in self.modules.values():
            for fsum in summary.functions.values():
                if fsum.typeflow is None:
                    continue
                name = f"{summary.module}.{fsum.qualname}"
                functions[name] = TypeflowFunction(
                    fqname=name,
                    rel_path=summary.rel_path,
                    params=list(fsum.params),
                    flow=FunctionTypeflow.from_dict(fsum.typeflow),
                )
        analysis = TypeflowAnalysis(functions)
        analysis.solve()
        self._typeflow = analysis
        return analysis

    # -- concurrency (pass 4) ------------------------------------------------

    def concurrency_analysis(self) -> ConcurrencyAnalysis:
        """Solved whole-program concurrency facts (may-held entry locksets
        and the acquisition closure).

        Memoised like :meth:`typeflow_analysis`: one fixpoint per lint
        invocation, purely over the cached summaries.  Modules are
        visited in sorted order, so lock ids and every downstream
        diagnostic are byte-identical at any worker count.
        """
        if self._concurrency is not None:
            return self._concurrency
        functions: Dict[str, ConcurrencyFunction] = {}
        locks: Dict[str, LockInfo] = {}
        for summary in self.iter_modules():
            for entry in summary.lock_defs:
                owner, attr, kind, lineno = entry
                canon = (
                    f"{summary.module}.{attr}"
                    if owner == "<module>"
                    else f"{summary.module}.{owner}.{attr}"
                )
                if canon not in locks:
                    locks[canon] = LockInfo(
                        canon=canon, kind=str(kind),
                        rel_path=summary.rel_path, lineno=int(lineno),
                    )
            # Every function is listed, events or not: a call resolved to
            # any project function never matches a ``*.leaf`` blocklist
            # pattern (a project method named ``cancel`` is not
            # ``Future.cancel``).
            for qual in sorted(summary.functions):
                fsum = summary.functions[qual]
                fqname = f"{summary.module}.{qual}"
                functions[fqname] = ConcurrencyFunction(
                    fqname=fqname,
                    rel_path=summary.rel_path,
                    events=FunctionConcurrency.from_dict(
                        fsum.concurrency or {}
                    ).events,
                )
        analysis = ConcurrencyAnalysis(functions, locks)
        analysis.solve()
        self._concurrency = analysis
        return analysis


# ---------------------------------------------------------------------------
# content-addressed per-file cache
# ---------------------------------------------------------------------------


class SummaryCache:
    """Per-file analysis cache keyed on content, config, and rule set.

    One JSON entry per (source digest, environment salt); the key mirrors
    ``CaptureCache``'s blake2b discipline, so any edit — to the file, the
    lint configuration, the rule set, or the library version — misses and
    re-analyses, while untouched files load without parsing.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def salt(config: LintConfig, registry: RuleRegistry) -> str:
        material = {
            "schema": SUMMARY_SCHEMA_VERSION,
            "version": __version__,
            "rules": [r.code for r in registry.rules()],
            "config": config.to_payload(include_root=False),
            "lattice": lattice_fingerprint(),
            "concurrency": concurrency_fingerprint(),
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

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.lint.json"

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(key)
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
        return payload

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        payload = dict(payload)
        payload["key"] = key
        path = self.path_for(key)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        tmp.replace(path)


# ---------------------------------------------------------------------------
# pass orchestration
# ---------------------------------------------------------------------------


@dataclass
class ProjectStats:
    """What one whole-program run did (surfaced by the CLI)."""

    files: int = 0
    parsed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


def _diag_to_dict(diag: Diagnostic) -> Dict[str, Any]:
    return {"path": diag.path, "line": diag.line, "col": diag.col,
            "code": diag.code, "message": diag.message,
            "severity": diag.severity.value}


def _diag_from_dict(data: Dict[str, Any]) -> Diagnostic:
    from repro.lint.diagnostics import Severity

    return Diagnostic(path=data["path"], line=int(data["line"]),
                      col=int(data["col"]), code=data["code"],
                      message=data["message"],
                      severity=Severity(data["severity"]))


def _analyze_source(
    source: str,
    rel_path: str,
    path: Path,
    config: LintConfig,
    registry: RuleRegistry,
) -> Tuple[ModuleSummary, List[Diagnostic]]:
    """Parse once; produce the module summary and the file-rule findings."""
    tree = ast.parse(source, filename=rel_path)
    summary = summarize_source(source, rel_path, tree=tree)
    ctx = FileContext(path=path, rel_path=rel_path, source=source,
                      tree=tree, config=config)
    found: List[Diagnostic] = []
    for rule in registry.file_rules(config):
        found.extend(rule.check(ctx))
    found = apply_warn(found, config)
    table = summary.suppression_table()
    kept = [d for d in found if not is_suppressed(d, table)]
    return summary, sorted(kept, key=Diagnostic.sort_key)


def _analyze_file_task(
    path_str: str, rel_path: str, config_payload: Dict[str, Any]
) -> Dict[str, Any]:
    """Worker entry point — module-level so process pools pickle it by
    reference; always uses the default registry (rule modules re-register
    at import in each worker)."""
    config = LintConfig.from_payload(config_payload)
    source = Path(path_str).read_text(encoding="utf-8")
    summary, diags = _analyze_source(
        source, rel_path, Path(path_str), config, REGISTRY
    )
    return {
        "summary": summary.to_dict(),
        "diagnostics": [_diag_to_dict(d) for d in diags],
    }


def analyze_files(
    files: Sequence[Path],
    config: LintConfig,
    registry: RuleRegistry = REGISTRY,
    workers: int = 0,
    cache: Optional[SummaryCache] = None,
) -> Tuple[ProjectContext, List[Diagnostic], ProjectStats]:
    """Pass 1 over ``files``: summaries plus per-file rule diagnostics.

    ``workers`` follows the repo convention (0 = serial); parallel runs use
    the default registry, so callers passing a custom registry are run
    serially regardless.
    """
    if workers < 0:
        raise ValueError("workers must be non-negative")
    stats = ProjectStats(files=len(files))
    salt = SummaryCache.salt(config, registry) if cache is not None else ""
    modules: Dict[str, ModuleSummary] = {}
    file_diags: List[Diagnostic] = []

    pending: List[Tuple[Path, str, Optional[str]]] = []
    for path in files:
        rel = _relativize(path, config.root)
        key: Optional[str] = None
        if cache is not None:
            key = cache.key_for(rel, path.read_bytes(), salt)
            payload = cache.load(key)
            if payload is not None:
                summary = ModuleSummary.from_dict(payload["summary"])
                modules[rel] = summary
                file_diags.extend(
                    _diag_from_dict(d) for d in payload["diagnostics"]
                )
                continue
        pending.append((path, rel, key))

    stats.parsed = len(pending)
    if cache is not None:
        stats.cache_hits = cache.hits
        stats.cache_misses = cache.misses

    results: List[Tuple[str, Optional[str], Dict[str, Any]]] = []
    if workers >= 1 and registry is REGISTRY and len(pending) > 1:
        payload = config.to_payload()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (rel, key, pool.submit(_analyze_file_task, str(path), rel,
                                       payload))
                for path, rel, key in pending
            ]
            for rel, key, future in futures:
                results.append((rel, key, future.result()))
    else:
        for path, rel, key in pending:
            source = path.read_text(encoding="utf-8")
            summary, diags = _analyze_source(source, rel, path, config,
                                             registry)
            results.append((rel, key, {
                "summary": summary.to_dict(),
                "diagnostics": [_diag_to_dict(d) for d in diags],
            }))

    for rel, key, payload in results:
        modules[rel] = ModuleSummary.from_dict(payload["summary"])
        file_diags.extend(_diag_from_dict(d) for d in payload["diagnostics"])
        if cache is not None and key is not None:
            cache.store(key, payload)

    project = ProjectContext(config, modules)
    return project, sorted(file_diags, key=Diagnostic.sort_key), stats


def run_project_rules(
    project: ProjectContext,
    config: LintConfig,
    registry: RuleRegistry = REGISTRY,
) -> List[Diagnostic]:
    """Pass 2: cross-module rules, warn-demoted and suppression-filtered."""
    found: List[Diagnostic] = []
    for rule in registry.project_rules(config):
        found.extend(rule.check_project(project))
    found = apply_warn(found, config)
    kept: List[Diagnostic] = []
    for diag in found:
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
    """One whole-program lint: both passes over the configured tree."""
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
        files, config, registry=registry, workers=workers, cache=cache
    )
    project_diags = run_project_rules(project, config, registry=registry)
    diagnostics = sorted(file_diags + project_diags, key=Diagnostic.sort_key)
    if config.path_rules:
        diagnostics = [
            d for d in diagnostics
            if not config.is_disabled_for(d.path, d.code)
        ]
    return diagnostics, project, stats
