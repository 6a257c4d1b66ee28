"""Rule engine: registry, file contexts, suppressions.

The engine is deliberately small: a rule is an object with a ``code`` and a
``check(ctx)`` generator; the engine parses each file once, hands every rule
the same :class:`FileContext`, filters findings through inline suppression
comments, and returns sorted diagnostics.  No rule walks the module:
each reads its index, :attr:`FileContext.scope`, which one walk builds
per file.  Path/config resolution lives in :mod:`repro.lint.config`.

Two rule families share the registry:

* **file rules** (:class:`Rule`) see one :class:`FileContext` at a time:
  the syntactic rules (RPR001, RPR002), and the overflow (RPR011) and
  lock rules (RPR017, RPR018), whose analyses are solved over the
  functions of that one module;
* **project rules** (:class:`ProjectRule`) see the whole-program
  :class:`~repro.lint.project.ProjectContext` built by
  :mod:`repro.lint.project`: schema drift (RPR008), which compares a
  site in one module with a version constant in another.

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
from functools import cached_property
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.lint._ast import ModuleScope
from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Severity

#: Matches ``# repro-lint: disable`` with an optional ``=CODE[,CODE...]``.
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:\s*=\s*(?P<codes>[A-Z0-9,\s]+?))?\s*(?:#|$)"
)

_CODE_RE = re.compile(r"^RPR\d{3}$")

T = TypeVar("T")


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: Path  #: absolute path on disk
    rel_path: str  #: posix path relative to the lint root (used in output)
    source: str
    tree: ast.Module
    config: LintConfig
    lines: List[str] = field(default_factory=list)
    _derived: Dict[Callable[..., Any], Any] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @cached_property
    def scope(self) -> ModuleScope:
        """The module's index (defs, imports, calls) and call resolution,
        built by one walk for every rule and analysis."""
        return ModuleScope(self.tree, self.rel_path)

    def derived(self, build: Callable[["FileContext"], T]) -> T:
        """``build(self)``, computed once per file: an analysis that
        several rules read (RPR017 and RPR018 share the lock analysis)."""
        if build not in self._derived:
            self._derived[build] = build(self)
        result: T = self._derived[build]
        return result


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
        return self.diag_at(
            ctx.rel_path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
        )

    def diag_at(
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


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Subclasses implement :meth:`check_project` over the
    :class:`~repro.lint.project.ProjectContext`; :meth:`check` is unused
    (project rules never run in the per-file pass).  Findings come from
    module summaries, which carry relative paths and line numbers but no
    live AST, so they are stamped with :meth:`Rule.diag_at`.
    """

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        return iter(())

    def check_project(self, project: Any) -> Iterator[Diagnostic]:
        raise NotImplementedError


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
        """Rules that survive the flake8-style ``select``/``ignore``
        prefix filters."""
        rules = self.rules()
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
        """Enabled per-file rules (run on each parsed module)."""
        return [r for r in self.enabled(config) if not isinstance(r, ProjectRule)]

    def project_rules(self, config: LintConfig) -> List["ProjectRule"]:
        """Enabled whole-program rules (run over the module summaries)."""
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
        out[i] = None if codes is None else {
            c.strip() for c in codes.split(",") if c.strip()
        }
    return out


def is_suppressed(
    diag: Diagnostic, suppressions: Dict[int, Optional[Set[str]]]
) -> bool:
    if diag.line not in suppressions:
        return False
    codes = suppressions[diag.line]
    return codes is None or diag.code in codes


def check_file(
    ctx: FileContext,
    registry: RuleRegistry,
    suppressions: Dict[int, Optional[Set[str]]],
) -> List[Diagnostic]:
    """Every enabled file rule over one module, suppression-filtered and
    sorted."""
    found = [
        diag
        for rule in registry.file_rules(ctx.config)
        for diag in rule.check(ctx)
        if not is_suppressed(diag, suppressions)
    ]
    return sorted(found, key=Diagnostic.sort_key)


def lint_source(
    source: str,
    rel_path: str,
    config: Optional[LintConfig] = None,
    registry: RuleRegistry = REGISTRY,
    path: Optional[Path] = None,
) -> List[Diagnostic]:
    """Lint one in-memory source blob (the unit the tests drive)."""
    ctx = FileContext(
        path=path or Path(rel_path),
        rel_path=rel_path,
        source=source,
        tree=ast.parse(source, filename=rel_path),
        config=config or LintConfig(),
    )
    return check_file(ctx, registry, parse_suppressions(ctx.lines))


def collect_files(
    paths: Iterable[Path], config: LintConfig
) -> List[Tuple[Path, str]]:
    """Expand directories into sorted ``*.py`` files.

    Returns ``(path, rel_path)`` pairs: each file's posix path relative to
    the lint root (resolved once), computed once per file.
    """
    root = config.root.resolve()
    out: List[Tuple[Path, str]] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for cand in candidates:
            try:
                rel = cand.resolve().relative_to(root).as_posix()
            except ValueError:
                rel = cand.as_posix()
            out.append((cand, rel))
    return out
