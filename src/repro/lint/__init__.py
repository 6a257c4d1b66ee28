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

Five are file rules, each run on one parsed module: RPR001 and RPR002
are syntactic; RPR011 reads the dtype/bit-width abstract interpretation of
:mod:`repro.lint.typeflow` and RPR017/RPR018 the lock analysis of
:mod:`repro.lint.concurrency`, both solved over the functions of that
one module.  RPR008 is the one whole-program rule: it compares
persisted field sets, gathered into the
:class:`~repro.lint.project.ProjectContext`, with a committed manifest.
Each file's findings and summary are content-addressed-cached
(:mod:`repro.lint.project`), so a warm lint re-analyses only edited
files.  Each rule class documents itself; ``repro-lint --explain
RPR0NN`` prints that text.

Run ``python -m repro.lint`` (or the ``repro-lint`` console script);
name the lint targets and their path-scoped rule sets in
``[tool.repro-lint.paths]`` in pyproject.toml; scope runs with
``--select`` / ``--ignore``; silence single lines with ``# repro-lint: disable=RPR00x``
and state the bound or invariant that makes the line safe; commit
persisted-schema fingerprints to ``lint-schema.json`` via
``--update-schema-manifest``.
"""

from repro.lint.config import LintConfig, find_pyproject, load_config
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import (
    REGISTRY,
    FileContext,
    ProjectRule,
    Rule,
    RuleRegistry,
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
from repro.lint.typeflow import AbstractValue, TypeflowAnalysis

# Importing the rules package registers the rule set.
import repro.lint.rules  # noqa: E402,F401

__all__ = [
    "AbstractValue",
    "TypeflowAnalysis",
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
    "lint_repository",
    "lint_source",
    "load_config",
    "run_project_rules",
    "summarize_source",
]
