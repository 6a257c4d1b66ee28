"""Tests for the whole-program lint pass (repro.lint.project).

The schema-drift rule (RPR008) gets seeded-violation fixtures plus clean
counterparts; the pass itself is exercised for cache hit/invalidation on
edit, worker-count independence (0/1/4 produce identical diagnostics),
SARIF output against a golden file, and ``--update-baseline`` pruning,
over fixtures that trip the kept project rules (RPR011, RPR017).
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    LintConfig,
    Severity,
    lint_repository,
)
from repro.lint.cli import main
from repro.lint.project import (
    SummaryCache,
    module_name_for,
    summarize_source,
)
from repro.lint.rules.schema_drift import (
    collect_sites,
    fingerprint_fields,
    write_manifest,
)
from repro.lint.sarif import to_sarif
from repro.lint.engine import REGISTRY

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SARIF = Path(__file__).resolve().parent / "data" / "lint_golden.sarif"

#: File rules are exercised by tests/test_lint.py; fixtures here disable
#: them so each assertion sees only the project rule under test.
FILE_RULES = ["RPR001", "RPR002"]

#: A cross-module RPR017 finding: ``Ticker.tick`` holds its lock while
#: calling ``pause`` in another module, which sleeps.  Editing ``b.py``
#: alone clears it.
LOCKED_SLEEP = {
    "pkg/__init__.py": "",
    "pkg/a.py": """\
        import threading

        from pkg.b import pause

        class Ticker:
            def __init__(self):
                self._lock = threading.Lock()

            def tick(self):
                with self._lock:
                    pause()
    """,
    "pkg/b.py": """\
        import time

        def pause():
            time.sleep(0.1)
    """,
}

#: One RPR011 finding: a 32-bit source shifted left by 40 in uint64.
OVERFLOW_PACK = {
    "pkg/pack.py": """\
        import numpy as np

        def pack(batch):
            ips = batch.src_ip.astype(np.uint64)
            return (ips << np.uint64(40)) | batch.src_port
    """,
}


def fix_sleep(tmp_path):
    """Edit ``pkg/b.py`` so LOCKED_SLEEP no longer blocks under the lock."""
    target = tmp_path / "pkg" / "b.py"
    target.write_text(
        target.read_text().replace("time.sleep(0.1)", "return 0.1"),
        encoding="utf-8",
    )


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def run_project(tmp_path, files, **cfg_kwargs):
    write_tree(tmp_path, files)
    cfg_kwargs.setdefault("paths", ["pkg"])
    cfg_kwargs.setdefault("disable", FILE_RULES)
    config = LintConfig(root=tmp_path, **cfg_kwargs)
    diags, project, stats = lint_repository(config, use_cache=False)
    return diags, project, stats


def codes(diags):
    return [d.code for d in diags]


# ---------------------------------------------------------------------------
# pass 1: summaries
# ---------------------------------------------------------------------------


class TestModuleSummary:
    def test_module_name_for(self):
        assert module_name_for("src/repro/exec/cache.py") == "repro.exec.cache"
        assert module_name_for("pkg/__init__.py") == "pkg"
        assert module_name_for("pkg/sub/mod.py") == "pkg.sub.mod"

    def test_summary_round_trips_through_json(self):
        src = textwrap.dedent("""\
            import threading

            SCHEMA_VERSION = 3
            _LOCK = threading.Lock()

            def f(rng, arr):
                with _LOCK:
                    arr.sort()
                return {"key": arr << 2}
        """)
        summary = summarize_source(src, "pkg/mod.py")
        from repro.lint.project import ModuleSummary

        clone = ModuleSummary.from_dict(
            json.loads(json.dumps(summary.to_dict()))
        )
        assert clone.to_dict() == summary.to_dict()
        assert clone.constants["SCHEMA_VERSION"] == "3"
        assert clone.lock_defs == [["<module>", "_LOCK", "lock", 4]]
        assert clone.schema_fields["f"]["fields"] == ["key"]
        fsum = clone.functions["f"]
        assert [e["k"] for e in fsum.concurrency["events"]] == [
            "acquire", "call",
        ]
        [shift] = fsum.typeflow["events"]
        assert shift["data"]["op"] == "shl"

    def test_schema_fields_from_returned_dict(self):
        src = textwrap.dedent("""\
            class Store:
                def snapshot(self):
                    return {"a": 1, "b": 2}
        """)
        summary = summarize_source(src, "pkg/store.py")
        assert summary.schema_fields["Store.snapshot"]["fields"] == ["a", "b"]

    def test_schema_fields_from_pair_sequence_constant(self):
        src = 'COLS = (("x", "<u4"), ("y", "<u2"))\n'
        summary = summarize_source(src, "pkg/cols.py")
        assert summary.schema_fields["COLS"]["fields"] == ["x", "y"]


# ---------------------------------------------------------------------------
# RPR008: persisted-schema drift
# ---------------------------------------------------------------------------


def store_source(fields, version=1):
    keys = ", ".join(f'"{k}": 0' for k in fields)
    return (
        f"STORE_SCHEMA_VERSION = {version}\n\n\n"
        "class Store:\n"
        "    def snapshot(self):\n"
        f"        return {{{keys}}}\n"
    )


RPR008_SITE = "pkg/store.py:Store.snapshot:pkg/store.py:STORE_SCHEMA_VERSION"


class TestSchemaDriftRule:
    def _config(self, tmp_path):
        return dict(
            schema_sites=[RPR008_SITE],
            schema_manifest="lint-schema.json",
        )

    def _write_manifest(self, tmp_path, files, **cfg_kwargs):
        _, project, _ = run_project(tmp_path, files, **cfg_kwargs)
        config = LintConfig(
            root=tmp_path, paths=["pkg"], disable=FILE_RULES, **cfg_kwargs
        )
        write_manifest(
            tmp_path / "lint-schema.json", collect_sites(project, config)
        )

    def test_missing_manifest_entry_is_error(self, tmp_path):
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a"])}
        diags, _, _ = run_project(tmp_path, files, **self._config(tmp_path))
        assert codes(diags) == ["RPR008"]
        assert "not recorded" in diags[0].message

    def test_recorded_schema_is_clean(self, tmp_path):
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a", "b"])}
        cfg = self._config(tmp_path)
        self._write_manifest(tmp_path, files, **cfg)
        diags, _, _ = run_project(tmp_path, files, **cfg)
        assert diags == []

    def test_drift_without_version_bump_is_error(self, tmp_path):
        cfg = self._config(tmp_path)
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a", "b"])}
        self._write_manifest(tmp_path, files, **cfg)
        files["pkg/store.py"] = store_source(["a", "b", "c"])
        diags, _, _ = run_project(tmp_path, files, **cfg)
        assert codes(diags) == ["RPR008"]
        assert diags[0].severity is Severity.ERROR
        assert "+c" in diags[0].message
        assert "STORE_SCHEMA_VERSION" in diags[0].message

    def test_drift_with_version_bump_is_warning(self, tmp_path):
        cfg = self._config(tmp_path)
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a", "b"])}
        self._write_manifest(tmp_path, files, **cfg)
        files["pkg/store.py"] = store_source(["a", "b", "c"], version=2)
        diags, _, _ = run_project(tmp_path, files, **cfg)
        assert codes(diags) == ["RPR008"]
        assert diags[0].severity is Severity.WARNING
        assert "--update-schema-manifest" in diags[0].message

    def test_field_removal_detected(self, tmp_path):
        cfg = self._config(tmp_path)
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a", "b"])}
        self._write_manifest(tmp_path, files, **cfg)
        files["pkg/store.py"] = store_source(["a"])
        diags, _, _ = run_project(tmp_path, files, **cfg)
        assert codes(diags) == ["RPR008"]
        assert "-b" in diags[0].message

    def test_live_tree_manifest_matches(self):
        """Satellite audit: the committed manifest matches the tree, and
        every persisted store is covered by a schema site."""
        from repro.lint.config import load_config

        config = load_config(REPO_ROOT / "pyproject.toml")
        _, project, _ = lint_repository(
            config, paths=[REPO_ROOT / "src" / "repro"], use_cache=False
        )
        sites = collect_sites(project, config)
        assert set(sites) == {
            "exec/cache.py:CaptureCache.store.meta",
            "stream/incremental.py:IncrementalScanIdentifier.snapshot",
            "telescope/trace.py:_COLUMN_ORDER",
        }
        committed = json.loads(
            (REPO_ROOT / "lint-schema.json").read_text()
        )
        assert committed["sites"] == sites

    def test_fingerprint_is_order_independent(self):
        assert fingerprint_fields(["b", "a"]) == fingerprint_fields(["a", "b"])
        assert fingerprint_fields(["a"]) != fingerprint_fields(["a", "b"])


# ---------------------------------------------------------------------------
# caching & parallel pass
# ---------------------------------------------------------------------------


class TestSummaryCache:
    def _run(self, tmp_path, cache_dir):
        config = LintConfig(root=tmp_path, paths=["pkg"], disable=FILE_RULES)
        return lint_repository(
            config, workers=0, cache_dir=cache_dir, use_cache=True
        )

    def test_cold_then_warm_then_invalidation(self, tmp_path):
        write_tree(tmp_path, LOCKED_SLEEP)
        cache_dir = tmp_path / ".cache"

        cold_diags, _, cold = self._run(tmp_path, cache_dir)
        assert (cold.cache_hits, cold.cache_misses) == (0, 3)

        warm_diags, _, warm = self._run(tmp_path, cache_dir)
        assert (warm.cache_hits, warm.cache_misses) == (3, 0)
        assert warm.parsed == 0
        assert warm_diags == cold_diags

        # Editing one file invalidates exactly that file's entry.
        fix_sleep(tmp_path)
        edited_diags, _, edited = self._run(tmp_path, cache_dir)
        assert (edited.cache_hits, edited.cache_misses) == (2, 1)
        assert edited_diags == []  # the edit removed the blocking call

    def test_config_change_invalidates(self, tmp_path):
        write_tree(tmp_path, LOCKED_SLEEP)
        cache_dir = tmp_path / ".cache"
        self._run(tmp_path, cache_dir)

        config = LintConfig(
            root=tmp_path, paths=["pkg"], disable=FILE_RULES,
            rng_exempt=["pkg/a.py"],
        )
        _, _, stats = lint_repository(
            config, cache_dir=cache_dir, use_cache=True
        )
        assert stats.cache_hits == 0  # different config fingerprint

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        write_tree(tmp_path, LOCKED_SLEEP)
        cache_dir = tmp_path / ".cache"
        diags, _, _ = self._run(tmp_path, cache_dir)
        for entry in cache_dir.glob("*.lint.json"):
            entry.write_text("{not json", encoding="utf-8")
        rerun_diags, _, stats = self._run(tmp_path, cache_dir)
        assert stats.cache_misses == 3
        assert rerun_diags == diags


class TestWorkerEquivalence:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_diagnostics_identical_at_any_worker_count(
        self, tmp_path, workers
    ):
        write_tree(tmp_path, {**LOCKED_SLEEP, **OVERFLOW_PACK})
        config = LintConfig(root=tmp_path, paths=["pkg"], disable=FILE_RULES)
        serial, _, _ = lint_repository(config, workers=0, use_cache=False)
        parallel, _, _ = lint_repository(
            config, workers=workers, use_cache=False
        )
        assert sorted(codes(serial)) == ["RPR011", "RPR017"]
        assert parallel == serial


# ---------------------------------------------------------------------------
# CLI: SARIF, --update-baseline, --update-schema-manifest
# ---------------------------------------------------------------------------


def write_cli_project(tmp_path, files):
    write_tree(tmp_path, files)
    disable = ", ".join(f'"{c}"' for c in FILE_RULES)
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent(f"""\
        [tool.repro-lint]
        paths = ["pkg"]
        disable = [{disable}]
        cache = ""
        schema-sites = []
    """), encoding="utf-8")
    return tmp_path / "pyproject.toml"


class TestCli:
    def test_sarif_output_matches_golden(self, tmp_path, capsys):
        pyproject = write_cli_project(tmp_path, LOCKED_SLEEP)
        out_file = tmp_path / "lint.sarif"
        status = main([
            "--config", str(pyproject),
            "--format", "sarif", "--output", str(out_file),
            "--no-baseline",
        ])
        capsys.readouterr()
        assert status == 1
        produced = json.loads(out_file.read_text())
        # The driver version tracks the library; normalise for the golden.
        produced["runs"][0]["tool"]["driver"]["version"] = "0.0.0"
        golden = json.loads(GOLDEN_SARIF.read_text())
        assert produced == golden

    def test_sarif_results_cover_all_registered_rules(self):
        sarif = to_sarif([], REGISTRY)
        rule_ids = [r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]]
        assert rule_ids == [
            "RPR001", "RPR002", "RPR008", "RPR011", "RPR017", "RPR018",
        ]

    def test_update_baseline_prunes_stale_entry(self, tmp_path, capsys):
        pyproject = write_cli_project(tmp_path, LOCKED_SLEEP)

        status = main(["--config", str(pyproject), "--write-baseline"])
        capsys.readouterr()
        assert status == 0
        baseline_path = tmp_path / "lint-baseline.json"
        assert len(Baseline.load(baseline_path).entries) == 1

        # Fix the blocking call: the baselined entry goes stale.
        fix_sleep(tmp_path)
        status = main(["--config", str(pyproject), "--update-baseline"])
        out = capsys.readouterr().out
        assert status == 1
        assert "pruned stale baseline entry" in out
        assert Baseline.load(baseline_path).entries == set()

        # A second update run is clean and exits 0.
        status = main(["--config", str(pyproject), "--update-baseline"])
        capsys.readouterr()
        assert status == 0

    def test_update_schema_manifest_cli(self, tmp_path, capsys):
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a"])}
        write_tree(tmp_path, files)
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent(f"""\
            [tool.repro-lint]
            paths = ["pkg"]
            disable = [{", ".join(f'"{c}"' for c in FILE_RULES)}]
            cache = ""
            schema-sites = ["{RPR008_SITE}"]
        """), encoding="utf-8")
        pyproject = tmp_path / "pyproject.toml"

        status = main([
            "--config", str(pyproject), "--no-baseline",
        ])
        capsys.readouterr()
        assert status == 1  # unrecorded schema site

        status = main(["--config", str(pyproject), "--update-schema-manifest"])
        capsys.readouterr()
        assert status == 0
        manifest = json.loads((tmp_path / "lint-schema.json").read_text())
        assert "pkg/store.py:Store.snapshot" in manifest["sites"]

        status = main(["--config", str(pyproject), "--no-baseline"])
        capsys.readouterr()
        assert status == 0

    def test_workers_flag_matches_serial(self, tmp_path, capsys):
        pyproject = write_cli_project(tmp_path, LOCKED_SLEEP)
        outputs = []
        for flags in ([], ["--workers", "2"]):
            status = main([
                "--config", str(pyproject), "--no-baseline",
                "--format", "json", *flags,
            ])
            assert status == 1
            payload = json.loads(capsys.readouterr().out)
            outputs.append(payload["findings"])
        assert outputs[0] == outputs[1]


class TestBaselineVersionError:
    def test_load_names_both_versions(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError) as excinfo:
            Baseline.load(path)
        message = str(excinfo.value)
        assert "99" in message
        assert "version 1" in message
        assert str(path) in message
