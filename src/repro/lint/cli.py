"""Command-line front end: ``python -m repro.lint`` / ``repro-lint``.

One invocation runs the file rules on each module (RPR001, RPR002,
RPR011, RPR017, RPR018) and then the whole-program rule (RPR008) over a
:class:`~repro.lint.project.ProjectContext`, with each file's summary and
findings content-addressed-cached.

Exit status: 0 — clean (no error-severity findings); 1 — findings;
2 — usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.config import LintConfig, find_pyproject, load_config
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import REGISTRY
from repro.lint.project import ProjectStats, lint_repository
from repro.lint.rules.schema_drift import (
    collect_sites,
    manifest_path,
    write_manifest,
)
from repro.lint.sarif import render_sarif

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Domain-invariant static analysis for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the keys of "
             "[tool.repro-lint.paths])",
    )
    parser.add_argument(
        "--config", type=Path, default=None,
        help="pyproject.toml to read [tool.repro-lint] from "
             "(default: nearest pyproject above the first path)",
    )
    parser.add_argument(
        "--update-schema-manifest", action="store_true",
        help="re-fingerprint the persisted-schema sites and rewrite the "
             "schema manifest (lint-schema.json), then exit",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule-code prefixes to run exclusively "
             "(flake8 semantics, e.g. --select RPR017,RPR018 for the lock "
             "rules)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="CODES",
        help="comma-separated rule-code prefixes to skip (applied after "
             "--select)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the formatted report to FILE (a text summary still "
             "goes to stdout, and the exit code is unaffected)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="summary-cache directory (default: .repro-lint-cache under "
             "the lint root; none without a pyproject)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the per-file summary cache for this run",
    )
    parser.add_argument(
        "--statistics", action="store_true",
        help="print a per-rule findings summary and cache statistics",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="CODES",
        help="print the rule's own documentation (invariant + example) "
             "for the given comma-separated rule codes and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in REGISTRY.rules():
            print(f"{rule.code}  {rule.name:22s} {rule.description}")
        return EXIT_CLEAN

    if args.explain is not None:
        try:
            codes = _parse_codes(args.explain, "--explain")
        except ValueError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        entries = []
        for code in codes:
            entry = REGISTRY.explain(code)
            if entry is None:
                print(f"repro-lint: error: unknown rule code: {code}",
                      file=sys.stderr)
                return EXIT_USAGE
            entries.append(entry)
        print("\n\n".join(entries))
        return EXIT_CLEAN

    try:
        config = _resolve_config(args)
        if args.select is not None:
            config.select = _parse_codes(args.select, "--select")
        if args.ignore is not None:
            config.ignore = _parse_codes(args.ignore, "--ignore")
        targets = _resolve_targets(args, config)
        diagnostics, project, stats = lint_repository(
            config,
            paths=targets,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SyntaxError as exc:
        print(f"repro-lint: error: cannot parse source: {exc}",
              file=sys.stderr)
        return EXIT_USAGE

    if args.update_schema_manifest:
        sites = collect_sites(project)
        write_manifest(manifest_path(project), sites)
        print(f"wrote {len(sites)} schema site(s) to {manifest_path(project)}")
        return EXIT_CLEAN

    payload: Optional[str] = None
    if args.format == "sarif":
        payload = render_sarif(diagnostics, REGISTRY)
    elif args.format == "json":
        payload = json.dumps(
            {
                "findings": [
                    {**d.__dict__, "severity": d.severity.value}
                    for d in diagnostics
                ],
                "files": stats.files,
                "cache": {
                    "hits": stats.cache_hits,
                    "misses": stats.cache_misses,
                },
            },
            indent=2, default=str,
        )

    summary = f"{len(diagnostics)} finding(s) across {stats.files} file(s)"
    if not diagnostics:
        summary = f"clean: {summary}"
    if args.output is not None and payload is not None:
        args.output.write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.format} report to {args.output}")
        print(summary)
    elif payload is not None:
        print(payload)
    else:
        for diag in diagnostics:
            print(diag.render())
        print(summary)
    if args.statistics:
        _print_statistics(diagnostics, stats)

    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    return EXIT_FINDINGS if errors else EXIT_CLEAN


def _resolve_config(args: argparse.Namespace) -> LintConfig:
    if args.config is not None:
        if not args.config.is_file():
            raise FileNotFoundError(f"config file not found: {args.config}")
        return load_config(args.config)
    anchor = Path(args.paths[0]) if args.paths else Path.cwd()
    return load_config(find_pyproject(anchor))


def _parse_codes(raw: str, flag: str) -> List[str]:
    codes = [c.strip() for c in raw.split(",") if c.strip()]
    if not codes:
        raise ValueError(f"{flag} requires at least one rule-code prefix")
    for code in codes:
        if not code.startswith("RPR"):
            raise ValueError(
                f"{flag}: rule-code prefixes start with 'RPR', got {code!r}"
            )
    return codes


def _resolve_targets(args: argparse.Namespace, config: LintConfig) -> List[Path]:
    if args.paths:
        return [Path(p) for p in args.paths]
    return [config.root / p for p in config.paths]


def _print_statistics(
    diags: Sequence[Diagnostic], stats: ProjectStats
) -> None:
    counts: dict = {}
    for diag in diags:
        counts[diag.code] = counts.get(diag.code, 0) + 1
    for code in sorted(counts):
        rule = REGISTRY.get(code)
        print(f"  {code} ({rule.name}): {counts[code]}")
    print(
        f"  cache: {stats.cache_hits} hit(s), {stats.cache_misses} "
        f"miss(es); parsed {stats.parsed}/{stats.files} file(s)"
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
