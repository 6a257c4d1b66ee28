"""repro.lint — AST-based domain-invariant linter for this codebase.

The rules encode the invariants the reproduction's calibration rests on
(see docs/lint.md for the design, and docs/architecture.md, "Static
analysis & invariants"):

========  ========================  ===========================================
Code      Name                      Invariant
========  ========================  ===========================================
RPR001    determinism               no ambient randomness / wall-clock reads
RPR002    rng-plumbing              generators derive from repro._util.rng
RPR008    schema-drift              persisted fields match the schema manifest
RPR011    overflow-arithmetic       packed-key arithmetic fits its dtype
RPR017    blocking-call-under-lock  no blocking calls while a lock is held
RPR018    callback-reentrancy       callbacks never re-enter a held Lock
========  ========================  ===========================================

RPR001 and RPR002 are per-file syntactic rules.  The other four are
whole-program rules over the :class:`~repro.lint.project.ProjectContext`
built by :mod:`repro.lint.project` (per-file summaries are
content-addressed-cached and parsed in parallel under ``--workers``):
RPR008 compares persisted field sets with a committed manifest, RPR011
runs over the interprocedural dtype/width abstract interpretation in
:mod:`repro.lint.typeflow`, and RPR017/RPR018 over the lock analysis in
:mod:`repro.lint.concurrency`.  Each rule class documents itself;
``repro-lint --explain RPR0NN`` prints that text.

Run ``python -m repro.lint`` (or the ``repro-lint`` console script);
configure via ``[tool.repro-lint]`` in pyproject.toml (path-scoped rule
sets via ``[tool.repro-lint.paths]``); scope runs with ``--select`` /
``--ignore``; silence single lines with ``# repro-lint: disable=RPR00x``;
grandfather findings in ``lint-baseline.json``; commit persisted-schema
fingerprints to ``lint-schema.json`` via ``--update-schema-manifest``.
"""

from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig, find_pyproject, load_config
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import (
    REGISTRY,
    FileContext,
    ProjectRule,
    Rule,
    RuleRegistry,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.project import (
    ModuleSummary,
    ProjectContext,
    ProjectStats,
    SummaryCache,
    analyze_files,
    lint_repository,
    run_project_rules,
    summarize_source,
)
from repro.lint.typeflow import (
    AbstractValue,
    TypeflowAnalysis,
    lattice_fingerprint,
)

# Importing the rules package registers the rule set.
import repro.lint.rules  # noqa: E402,F401

__all__ = [
    "AbstractValue",
    "TypeflowAnalysis",
    "lattice_fingerprint",
    "Baseline",
    "Diagnostic",
    "FileContext",
    "LintConfig",
    "ModuleSummary",
    "ProjectContext",
    "ProjectRule",
    "ProjectStats",
    "REGISTRY",
    "Rule",
    "RuleRegistry",
    "Severity",
    "SummaryCache",
    "analyze_files",
    "find_pyproject",
    "lint_file",
    "lint_paths",
    "lint_repository",
    "lint_source",
    "load_config",
    "run_project_rules",
    "summarize_source",
]
