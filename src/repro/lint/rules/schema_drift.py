"""RPR008 — persisted-schema drift against the committed manifest
(documented on :class:`SchemaDriftRule`), plus the manifest reader and
writer behind ``--update-schema-manifest``."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.engine import REGISTRY, ProjectRule
from repro.lint.project import ProjectContext

SCHEMA_MANIFEST_VERSION = 1


def parse_site_spec(spec: str) -> Tuple[str, str, str, str]:
    """Split ``site_path:qualname:version_path:constant``."""
    parts = spec.split(":")
    if len(parts) != 4 or not all(parts):
        raise ValueError(
            f"bad schema-sites entry {spec!r}: expected "
            '"<site path>:<qualname>:<version path>:<constant>"'
        )
    return parts[0], parts[1], parts[2], parts[3]


def fingerprint_fields(fields: List[str]) -> str:
    digest = hashlib.blake2b(digest_size=8)
    digest.update(json.dumps(sorted(fields)).encode("utf-8"))
    return digest.hexdigest()


def load_manifest(path: Path) -> Optional[Dict[str, Any]]:
    """Read the manifest; ``None`` when absent.  Raises on bad versions."""
    if not path.is_file():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    version = data.get("version")
    if version != SCHEMA_MANIFEST_VERSION:
        raise ValueError(
            f"unsupported schema manifest version {version!r} in {path} "
            f"(this linter writes version {SCHEMA_MANIFEST_VERSION})"
        )
    return data


def collect_sites(
    project: ProjectContext, config: LintConfig
) -> Dict[str, Dict[str, Any]]:
    """Resolve every configured site against the current tree."""
    sites: Dict[str, Dict[str, Any]] = {}
    for spec in config.schema_sites:
        site_path, qualname, ver_path, ver_name = parse_site_spec(spec)
        summary = project.module_by_suffix(site_path)
        if summary is None:
            continue
        entry = summary.schema_fields.get(qualname)
        if entry is None:
            continue
        ver_mod = project.module_by_suffix(ver_path)
        version = ver_mod.constants.get(ver_name) if ver_mod else None
        fields = sorted(set(entry["fields"]))
        sites[f"{site_path}:{qualname}"] = {
            "fields": fields,
            "fingerprint": fingerprint_fields(fields),
            "schema_version": version,
        }
    return sites


def write_manifest(path: Path, sites: Dict[str, Dict[str, Any]]) -> None:
    payload = {"version": SCHEMA_MANIFEST_VERSION, "sites": sites}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@REGISTRY.register
class SchemaDriftRule(ProjectRule):
    """Persisted field sets match the committed schema manifest.

    Three stores persist field sets to disk (``CaptureCache`` capture
    metadata, the ``IncrementalScanIdentifier.snapshot`` checkpoint
    arrays, ``TraceWriter``'s ``_COLUMN_ORDER``), each guarded by a
    version constant that is part of the on-disk key.  The silent failure
    is editing the field set without bumping the constant: old artefacts
    then load as if compatible and resumes or cache hits go quietly
    wrong.  The rule fingerprints (blake2b) the field set at every
    configured ``schema-sites`` entry and compares it against the
    committed manifest (``lint-schema.json``):

    * fields drifted, version constant unchanged: error (bump it);
    * fields drifted and version bumped: warning (the manifest is stale;
      run ``repro-lint --update-schema-manifest`` and commit the result);
    * site missing from the manifest: error (run the updater once).

    Each site spec is ``"<site path>:<qualname>:<version path>:<constant>"``;
    relative paths never contain ``:`` so the split is unambiguous.
    """

    code = "RPR008"
    name = "schema-drift"
    description = (
        "persisted field sets must match the committed manifest unless the "
        "guarding *_SCHEMA_VERSION constant is bumped"
    )
    example = """
        doc = {"schema": 3, "new_field": x}   # RPR008 until the version
        # constant is bumped and --update-schema-manifest is rerun
    """

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        cfg = project.config
        try:
            manifest = load_manifest(cfg.manifest_path())
        except (ValueError, json.JSONDecodeError) as exc:
            yield self.project_diag(
                cfg.schema_manifest, 1, 0, f"unreadable schema manifest: {exc}"
            )
            return
        recorded: Dict[str, Any] = (manifest or {}).get("sites", {})

        for spec in cfg.schema_sites:
            try:
                site_path, qualname, ver_path, ver_name = parse_site_spec(spec)
            except ValueError as exc:
                yield self.project_diag(cfg.schema_manifest, 1, 0, str(exc))
                continue
            summary = project.module_by_suffix(site_path)
            if summary is None:
                # Site module outside the linted path set (e.g. a partial
                # run over one subpackage) — nothing to compare.
                continue
            entry = summary.schema_fields.get(qualname)
            if entry is None:
                yield self.project_diag(
                    summary.rel_path, 1, 0,
                    f"schema site {qualname!r} not found in "
                    f"{summary.rel_path}; fix the schema-sites entry in "
                    "[tool.repro-lint] (or restore the persisted dict)",
                )
                continue
            ver_mod = project.module_by_suffix(ver_path)
            version = ver_mod.constants.get(ver_name) if ver_mod else None
            if version is None:
                yield self.project_diag(
                    summary.rel_path, entry["lineno"], 0,
                    f"version constant {ver_name} not found in {ver_path}; "
                    "persisted schemas must be guarded by a module-level "
                    "constant",
                )
                continue

            fields = sorted(set(entry["fields"]))
            fingerprint = fingerprint_fields(fields)
            site_id = f"{site_path}:{qualname}"
            rec = recorded.get(site_id)
            if rec is None:
                where = (
                    cfg.schema_manifest if manifest is not None
                    else f"missing {cfg.schema_manifest}"
                )
                yield self.project_diag(
                    summary.rel_path, entry["lineno"], 0,
                    f"persisted schema {qualname} ({len(fields)} fields) is "
                    f"not recorded in {where}; run "
                    "`repro-lint --update-schema-manifest` and commit the "
                    "result",
                )
                continue

            if rec.get("fingerprint") == fingerprint:
                if rec.get("schema_version") != version:
                    yield self.project_diag(
                        summary.rel_path, entry["lineno"], 0,
                        f"{ver_name} is now {version} but the manifest "
                        f"records {rec.get('schema_version')}; run "
                        "`repro-lint --update-schema-manifest` to refresh "
                        "it",
                        severity=Severity.WARNING,
                    )
                continue

            added = sorted(set(fields) - set(rec.get("fields", [])))
            removed = sorted(set(rec.get("fields", [])) - set(fields))
            delta = ", ".join(
                ([f"+{name}" for name in added] + [f"-{name}" for name in removed])
            )
            if rec.get("schema_version") == version:
                yield self.project_diag(
                    summary.rel_path, entry["lineno"], 0,
                    f"persisted schema {qualname} drifted ({delta}) but "
                    f"{ver_name} in {ver_path} is still {version}; bump the "
                    "constant so stale artefacts stop loading, then run "
                    "`repro-lint --update-schema-manifest`",
                )
            else:
                yield self.project_diag(
                    summary.rel_path, entry["lineno"], 0,
                    f"persisted schema {qualname} changed ({delta}) and "
                    f"{ver_name} was bumped to {version}; run "
                    "`repro-lint --update-schema-manifest` to commit the "
                    "new shape",
                    severity=Severity.WARNING,
                )
