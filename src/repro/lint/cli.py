"""Command-line front end: ``python -m repro.lint`` / ``repro-lint``.

One invocation runs both passes — the per-file syntactic rules
(RPR001, RPR002) and the whole-program project rules (RPR008, RPR011,
RPR017, RPR018) over a :class:`~repro.lint.project.ProjectContext` — with
per-file summaries content-addressed-cached and parsed in parallel under
``--workers``.

Exit status: 0 — clean (no unbaselined error-severity findings);
1 — findings (or, under ``--update-baseline``, stale entries pruned);
2 — usage/configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig, find_pyproject, load_config
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import REGISTRY
from repro.lint.project import ProjectStats, lint_repository
from repro.lint.rules.schema_drift import collect_sites, write_manifest
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
        help="files or directories to lint (default: [tool.repro-lint] paths)",
    )
    parser.add_argument(
        "--config", type=Path, default=None,
        help="pyproject.toml to read [tool.repro-lint] from "
             "(default: nearest pyproject above the first path)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline file (default: from config, lint-baseline.json)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline; report every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write all current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="prune baseline entries no longer matched by any finding; "
             "exits 1 when entries were pruned (stale baseline) or new "
             "error findings remain",
    )
    parser.add_argument(
        "--update-schema-manifest", action="store_true",
        help="re-fingerprint the configured schema-sites and rewrite the "
             "schema manifest (lint-schema.json), then exit",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule-code prefixes to run exclusively "
             "(flake8 semantics, e.g. --select RPR017,RPR018 for the lock "
             "rules); overrides [tool.repro-lint] select",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="CODES",
        help="comma-separated rule-code prefixes to skip (applied after "
             "--select); overrides [tool.repro-lint] ignore",
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
        "--workers", type=int, default=None,
        help="parse/summarise files with N worker processes "
             "(0 = serial; default: [tool.repro-lint] workers)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="summary-cache directory (default: [tool.repro-lint] cache, "
             ".repro-lint-cache under the lint root)",
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
        workers = (
            args.workers if args.workers is not None
            else config.default_workers()
        )
        if workers < 0:
            raise ValueError("--workers must be non-negative")
        diagnostics, project, stats = lint_repository(
            config,
            paths=targets,
            workers=workers,
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
        sites = collect_sites(project, config)
        write_manifest(config.manifest_path(), sites)
        print(
            f"wrote {len(sites)} schema site(s) to {config.manifest_path()}"
        )
        return EXIT_CLEAN

    baseline_path = args.baseline or config.baseline_path()
    if args.write_baseline:
        Baseline.from_diagnostics(diagnostics).save(baseline_path)
        print(f"wrote {len(diagnostics)} finding(s) to {baseline_path}")
        return EXIT_CLEAN

    try:
        baseline = (
            Baseline() if args.no_baseline else Baseline.load(baseline_path)
        )
    except ValueError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.update_baseline:
        stale = baseline.stale_entries(diagnostics)
        pruned = baseline.pruned(diagnostics)
        pruned.save(baseline_path)
        for path, code, line in stale:
            print(f"pruned stale baseline entry: {path}:{line} {code}")
        new, _ = pruned.partition(diagnostics)
        errors = [d for d in new if d.severity is Severity.ERROR]
        print(
            f"baseline updated: {len(pruned.entries)} entr(y/ies) kept, "
            f"{len(stale)} pruned, {len(errors)} unbaselined error(s) remain"
        )
        return EXIT_FINDINGS if stale or errors else EXIT_CLEAN

    new, known = baseline.partition(diagnostics)
    files = stats.files

    payload: Optional[str] = None
    if args.format == "sarif":
        payload = render_sarif(new, REGISTRY)
    elif args.format == "json":
        payload = json.dumps(
            {
                "findings": [
                    {**d.__dict__, "severity": d.severity.value} for d in new
                ],
                "baselined": len(known),
                "files": files,
                "cache": {
                    "hits": stats.cache_hits,
                    "misses": stats.cache_misses,
                },
            },
            indent=2, default=str,
        )

    summary = (
        f"{len(new)} finding(s) ({len(known)} baselined) "
        f"across {files} file(s)"
    )
    if args.output is not None and payload is not None:
        args.output.write_text(payload + "\n", encoding="utf-8")
        print(f"wrote {args.format} report to {args.output}")
        print(summary if new or known else f"clean: {summary}")
    elif payload is not None:
        print(payload)
    else:
        for diag in new:
            print(diag.render())
        print(summary if new or known else f"clean: {summary}")
    if args.statistics:
        _print_statistics(new, stats)

    errors = [d for d in new if d.severity is Severity.ERROR]
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
    diags: Sequence[Diagnostic], stats: Optional[ProjectStats] = None
) -> None:
    counts: dict = {}
    for diag in diags:
        counts[diag.code] = counts.get(diag.code, 0) + 1
    for code in sorted(counts):
        rule = REGISTRY.get(code)
        print(f"  {code} ({rule.name}): {counts[code]}")
    if stats is not None:
        print(
            f"  cache: {stats.cache_hits} hit(s), {stats.cache_misses} "
            f"miss(es); parsed {stats.parsed}/{stats.files} file(s)"
        )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
