"""Rule engine: registry, file contexts, suppressions, tree walking.

The engine is deliberately small: a rule is an object with a ``code`` and a
``check(ctx)`` generator; the engine parses each file once, hands every rule
the same :class:`FileContext`, filters findings through inline suppression
comments, and returns sorted diagnostics.  Baseline handling lives in
:mod:`repro.lint.baseline`; path/config resolution in
:mod:`repro.lint.config`.

Two rule families share the registry:

* **file rules** (:class:`Rule`) see one :class:`FileContext` at a time —
  the per-file syntactic pass;
* **project rules** (:class:`ProjectRule`) see the whole-program
  :class:`~repro.lint.project.ProjectContext` built by
  :mod:`repro.lint.project` — schema drift (RPR008), overflow typeflow
  (RPR011) and the lock rules (RPR017, RPR018), which no single file can
  witness.

Each rule class carries its own ``--explain`` text: the class docstring
says what the rule enforces and ``example`` shows a minimal trigger.

Inline suppressions use the comment syntax::

    something_noisy()  # repro-lint: disable=RPR001
    other(), thing()   # repro-lint: disable=RPR001,RPR002
    legacy_line()      # repro-lint: disable

A bare ``disable`` silences every rule on that line.  Suppressions are
line-scoped on purpose — block scopes rot.
"""

from __future__ import annotations

import ast
import inspect
import re
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Severity

#: Matches ``# repro-lint: disable`` with an optional ``=CODE[,CODE...]``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:\s*=\s*(?P<codes>[A-Z0-9,\s]+?))?\s*(?:#|$)"
)

_CODE_RE = re.compile(r"^RPR\d{3}$")


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: Path  #: absolute path on disk
    rel_path: str  #: posix path relative to the lint root (used in output)
    source: str
    tree: ast.AST
    config: LintConfig
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def matches_suffix(self, suffixes: Sequence[str]) -> bool:
        """True when the file's relative path ends with any of ``suffixes``."""
        return any(self.rel_path.endswith(sfx) for sfx in suffixes)


class Rule:
    """Base class for lint rules.

    Subclasses set ``code`` / ``name`` / ``description`` /
    ``default_severity`` and ``example``, document the invariant in their
    class docstring (both feed :meth:`explain`), and implement
    :meth:`check` as a generator of :class:`Diagnostic`.  Use :meth:`diag`
    to stamp findings consistently.
    """

    code: str = "RPR000"
    name: str = "abstract"
    description: str = ""
    default_severity: Severity = Severity.ERROR
    #: a minimal triggering snippet, printed by ``--explain``
    example: str = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def explain(self) -> str:
        """The ``--explain`` entry: code, name, docstring and example."""
        summary = inspect.cleandoc(type(self).__doc__ or self.description)
        example = textwrap.indent(
            textwrap.dedent(self.example).strip("\n"), "    "
        )
        return f"{self.code} — {self.name}\n\n{summary}\n\nExample:\n{example}"

    def diag(self, ctx: FileContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            severity=self.default_severity,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Subclasses implement :meth:`check_project` over the
    :class:`~repro.lint.project.ProjectContext`; :meth:`check` is unused
    (project rules never run in the per-file pass).  :meth:`project_diag`
    stamps findings from module summaries, which carry relative paths and
    line numbers but no live AST.
    """

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(self, project) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def project_diag(
        self,
        rel_path: str,
        line: int,
        col: int,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        return Diagnostic(
            path=rel_path,
            line=line,
            col=col,
            code=self.code,
            message=message,
            severity=severity or self.default_severity,
        )


class RuleRegistry:
    """Ordered collection of rule instances, keyed by code."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def register(self, rule_cls: type) -> type:
        """Class decorator: instantiate and index the rule."""
        rule = rule_cls()
        if not _CODE_RE.match(rule.code):
            raise ValueError(f"bad rule code {rule.code!r} on {rule_cls.__name__}")
        if rule.code in self._rules:
            raise ValueError(f"duplicate rule code {rule.code}")
        self._rules[rule.code] = rule
        return rule_cls

    def rules(self) -> List[Rule]:
        return [self._rules[code] for code in sorted(self._rules)]

    def get(self, code: str) -> Rule:
        return self._rules[code]

    def explain(self, code: str) -> Optional[str]:
        """One rule's ``--explain`` entry, or None for an unknown code."""
        rule = self._rules.get(code)
        return None if rule is None else rule.explain()

    def enabled(self, config: LintConfig) -> List[Rule]:
        """Rules that survive ``disable`` plus the flake8-style
        ``select``/``ignore`` prefix filters."""
        rules = [r for r in self.rules() if r.code not in config.disable]
        if config.select:
            rules = [
                r for r in rules
                if any(r.code.startswith(p) for p in config.select)
            ]
        if config.ignore:
            rules = [
                r for r in rules
                if not any(r.code.startswith(p) for p in config.ignore)
            ]
        return rules

    def file_rules(self, config: LintConfig) -> List[Rule]:
        """Enabled per-file rules (the pass-2a syntactic walk)."""
        return [r for r in self.enabled(config) if not isinstance(r, ProjectRule)]

    def project_rules(self, config: LintConfig) -> List["ProjectRule"]:
        """Enabled whole-program rules (the pass-2b cross-module walk)."""
        return [r for r in self.enabled(config) if isinstance(r, ProjectRule)]


#: The default registry; rule modules register into it at import time.
REGISTRY = RuleRegistry()


def parse_suppressions(lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line number -> suppressed codes (``None`` = all codes)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for i, line in enumerate(lines, start=1):
        if "repro-lint" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            out[i] = None
        else:
            parsed = {c.strip() for c in codes.split(",") if c.strip()}
            existing = out.get(i, set())
            out[i] = None if existing is None else (existing or set()) | parsed
    return out


def is_suppressed(
    diag: Diagnostic, suppressions: Dict[int, Optional[Set[str]]]
) -> bool:
    if diag.line not in suppressions:
        return False
    codes = suppressions[diag.line]
    return codes is None or diag.code in codes


def lint_source(
    source: str,
    rel_path: str,
    config: Optional[LintConfig] = None,
    registry: RuleRegistry = REGISTRY,
    path: Optional[Path] = None,
) -> List[Diagnostic]:
    """Lint one in-memory source blob (the unit the tests drive)."""
    config = config or LintConfig()
    tree = ast.parse(source, filename=rel_path)
    ctx = FileContext(
        path=path or Path(rel_path),
        rel_path=rel_path,
        source=source,
        tree=tree,
        config=config,
    )
    found: List[Diagnostic] = []
    for rule in registry.file_rules(config):
        found.extend(rule.check(ctx))
    found = apply_warn(found, config)
    suppressions = parse_suppressions(ctx.lines)
    kept = [d for d in found if not is_suppressed(d, suppressions)]
    return sorted(kept, key=Diagnostic.sort_key)


def apply_warn(
    diags: Iterable[Diagnostic], config: LintConfig
) -> List[Diagnostic]:
    """Demote codes listed in ``config.warn`` to warning severity."""
    warn_codes = set(config.warn)
    out: List[Diagnostic] = []
    for diag in diags:
        if diag.code in warn_codes and diag.severity is Severity.ERROR:
            diag = Diagnostic(
                path=diag.path,
                line=diag.line,
                col=diag.col,
                code=diag.code,
                message=diag.message,
                severity=Severity.WARNING,
            )
        out.append(diag)
    return out


def lint_file(
    path: Path,
    config: Optional[LintConfig] = None,
    registry: RuleRegistry = REGISTRY,
) -> List[Diagnostic]:
    """Lint one file on disk."""
    config = config or LintConfig()
    rel = _relativize(path, config.root)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, rel, config=config, registry=registry, path=path)


def lint_paths(
    paths: Iterable[Path],
    config: Optional[LintConfig] = None,
    registry: RuleRegistry = REGISTRY,
) -> List[Diagnostic]:
    """Lint files and directory trees; returns all diagnostics, sorted."""
    config = config or LintConfig()
    diags: List[Diagnostic] = []
    for file_path in collect_files(paths, config):
        diags.extend(lint_file(file_path, config=config, registry=registry))
    return sorted(diags, key=Diagnostic.sort_key)


def collect_files(paths: Iterable[Path], config: LintConfig) -> List[Path]:
    """Expand directories into sorted ``*.py`` files, applying excludes."""
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for cand in candidates:
            rel = _relativize(cand, config.root)
            if not config.is_excluded(rel):
                out.append(cand)
    return out


def _relativize(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()
