"""Tests for the lint pass (repro.lint.project).

The schema-drift rule (RPR008) gets seeded-violation fixtures plus clean
counterparts; the pass itself is exercised for cache hit/invalidation on
edit, a warm lint that solves nothing, cache keys that follow the
linter's own source, and SARIF output against a golden file, over a
fixture that trips RPR017.
"""

import ast
import gc
import json
import shutil
import sys
import textwrap
import threading
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    ModuleSummary,
    Severity,
    analyze_files,
    lint_repository,
    load_config,
)
from repro.lint._ast import module_name_for
from repro.lint.cli import main
from repro.lint.concurrency import ConcurrencyAnalysis
from repro.lint.project import LINT_PACKAGE, SummaryCache, summarize_source
from repro.lint.typeflow import TypeflowAnalysis
from repro.lint.rules.schema_drift import (
    collect_sites,
    fingerprint_fields,
    write_manifest,
)
from repro.lint.sarif import to_sarif
from repro.lint.engine import REGISTRY, collect_files

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_SARIF = Path(__file__).resolve().parent / "data" / "lint_golden.sarif"

#: File rules are exercised by tests/test_lint.py; fixtures here ignore
#: them so each assertion sees only the project rule under test.
FILE_RULES = ["RPR001", "RPR002"]

#: One RPR017 finding: ``Ticker.tick`` holds its lock while calling
#: ``pause``, a function of the same module, which sleeps.  Editing
#: ``b.py`` alone clears it; ``a.py`` is a bystander.
LOCKED_SLEEP = {
    "pkg/__init__.py": "",
    "pkg/a.py": """\
        def tick_count(ticks):
            return len(ticks)
    """,
    "pkg/b.py": """\
        import threading
        import time

        def pause():
            time.sleep(0.1)

        class Ticker:
            def __init__(self):
                self._lock = threading.Lock()

            def tick(self):
                with self._lock:
                    pause()
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
    cfg_kwargs.setdefault("ignore", FILE_RULES)
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
                    arr.sort()  # repro-lint: disable=RPR017
                return {"key": arr << 2}
        """)
        summary = summarize_source(src, "pkg/mod.py")
        clone = ModuleSummary(**json.loads(json.dumps(asdict(summary))))
        assert clone == summary
        assert clone.constants == {"SCHEMA_VERSION": "3"}
        assert clone.schema_fields["f"]["fields"] == ["key"]
        assert clone.suppression_table() == {8: {"RPR017"}}

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


RPR008_SITE = ("pkg/store.py", "Store.snapshot",
               "pkg/store.py", "STORE_SCHEMA_VERSION")


@pytest.fixture
def store_site(monkeypatch):
    """RPR008's schema sites are its module constant: point them at the
    fixture's store.  Runs stay uncached, so the rule reads the patch."""
    monkeypatch.setattr(
        "repro.lint.rules.schema_drift.SCHEMA_SITES", (RPR008_SITE,)
    )


class TestSchemaDriftRule:
    def _write_manifest(self, tmp_path, files):
        _, project, _ = run_project(tmp_path, files)
        write_manifest(tmp_path / "lint-schema.json", collect_sites(project))

    @pytest.mark.usefixtures("store_site")
    def test_missing_manifest_entry_is_error(self, tmp_path):
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a"])}
        diags, _, _ = run_project(tmp_path, files)
        assert codes(diags) == ["RPR008"]
        assert "not recorded" in diags[0].message

    @pytest.mark.usefixtures("store_site")
    def test_recorded_schema_is_clean(self, tmp_path):
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a", "b"])}
        self._write_manifest(tmp_path, files)
        diags, _, _ = run_project(tmp_path, files)
        assert diags == []

    @pytest.mark.usefixtures("store_site")
    def test_drift_without_version_bump_is_error(self, tmp_path):
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a", "b"])}
        self._write_manifest(tmp_path, files)
        files["pkg/store.py"] = store_source(["a", "b", "c"])
        diags, _, _ = run_project(tmp_path, files)
        assert codes(diags) == ["RPR008"]
        assert diags[0].severity is Severity.ERROR
        assert "+c" in diags[0].message
        assert "STORE_SCHEMA_VERSION" in diags[0].message

    @pytest.mark.usefixtures("store_site")
    def test_drift_with_version_bump_is_warning(self, tmp_path):
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a", "b"])}
        self._write_manifest(tmp_path, files)
        files["pkg/store.py"] = store_source(["a", "b", "c"], version=2)
        diags, _, _ = run_project(tmp_path, files)
        assert codes(diags) == ["RPR008"]
        assert diags[0].severity is Severity.WARNING
        assert "--update-schema-manifest" in diags[0].message

    @pytest.mark.usefixtures("store_site")
    def test_field_removal_detected(self, tmp_path):
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a", "b"])}
        self._write_manifest(tmp_path, files)
        files["pkg/store.py"] = store_source(["a"])
        diags, _, _ = run_project(tmp_path, files)
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
        sites = collect_sites(project)
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
# caching
# ---------------------------------------------------------------------------


class TestSummaryCache:
    def _run(self, tmp_path, cache_dir):
        config = LintConfig(root=tmp_path, paths=["pkg"], ignore=FILE_RULES)
        return lint_repository(
            config, workers=0, cache_dir=cache_dir, use_cache=True
        )

    def test_warm_lint_solves_nothing(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {**LOCKED_SLEEP, **OVERFLOW_PACK})
        cache_dir = tmp_path / ".cache"
        cold_diags, _, _ = self._run(tmp_path, cache_dir)
        assert sorted(codes(cold_diags)) == ["RPR011", "RPR017"]

        def refuse(self):
            raise AssertionError("a warm lint must not solve anything")

        monkeypatch.setattr(TypeflowAnalysis, "solve", refuse)
        monkeypatch.setattr(ConcurrencyAnalysis, "solve", refuse)
        warm_diags, _, warm = self._run(tmp_path, cache_dir)
        assert warm_diags == cold_diags
        assert warm.cache_hits == warm.files == 4
        assert warm.parsed == 0

    def test_any_linter_edit_changes_every_key(self, tmp_path, monkeypatch):
        # The salt digests every .py file of the linter package, so an
        # edit to a rule, an analysis or the engine misses everywhere.
        package = tmp_path / "lint"
        shutil.copytree(LINT_PACKAGE, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr("repro.lint.project.LINT_PACKAGE", package)
        config = LintConfig(root=tmp_path)
        cache = SummaryCache(tmp_path / ".cache")

        def key():
            salt = SummaryCache.salt(config, REGISTRY)
            return cache.key_for("pkg/a.py", b"x = 1\n", salt)

        original = key()
        sources = sorted(package.rglob("*.py"))
        assert len(sources) >= 15
        for source in sources:
            text = source.read_text(encoding="utf-8")
            source.write_text(text + "# edited\n", encoding="utf-8")
            assert key() != original, source.relative_to(package)
            source.write_text(text, encoding="utf-8")
        assert key() == original

    def test_cold_then_warm_then_invalidation(self, tmp_path):
        write_tree(tmp_path, LOCKED_SLEEP)
        cache_dir = tmp_path / ".cache"

        cold_diags, _, cold = self._run(tmp_path, cache_dir)
        assert (cold.cache_hits, cold.cache_misses) == (0, 3)
        assert codes(cold_diags) == ["RPR017"]

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
            root=tmp_path, paths=["pkg"], ignore=[*FILE_RULES, "RPR018"],
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

    def test_edit_overwrites_the_file_entry(self, tmp_path):
        # Entries are named after the file, not the key: an edit replaces
        # the file's entry instead of leaving the old one behind.
        write_tree(tmp_path, {"pkg/pack.py": OVERFLOW_PACK["pkg/pack.py"]})
        cache_dir = tmp_path / ".cache"
        self._run(tmp_path, cache_dir)
        target = tmp_path / "pkg" / "pack.py"
        target.write_text(target.read_text() + "\nWIDTH = 40\n")
        _, _, stats = self._run(tmp_path, cache_dir)
        assert (stats.cache_hits, stats.cache_misses) == (0, 1)
        assert len(list(cache_dir.glob("*.lint.json"))) == 1

    def test_concurrent_stores_of_one_entry_never_collide(self, tmp_path):
        # Two lints sharing a cache directory store the same file's entry;
        # each store writes its own temporary sibling, so neither renames
        # a file the other has already moved.
        cache = SummaryCache(tmp_path / ".cache")
        errors = []

        def store(worker):
            try:
                for i in range(300):
                    cache.store("pkg/a.py", f"key-{worker}-{i}", {"n": i})
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        threads = [threading.Thread(target=store, args=(w,)) for w in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two writers often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [p.name for p in (tmp_path / ".cache").iterdir()] == [
            cache.path_for("pkg/a.py").name
        ]
        entry = json.loads(cache.path_for("pkg/a.py").read_text())
        assert entry["key"] in {"key-0-299", "key-1-299"}


def test_workers_other_than_zero_raise(tmp_path):
    write_tree(tmp_path, LOCKED_SLEEP)
    config = LintConfig(root=tmp_path, paths=["pkg"], ignore=FILE_RULES)
    with pytest.raises(ValueError, match="workers must be 0"):
        lint_repository(config, workers=1, use_cache=False)


def test_cold_lint_walks_each_module_about_once(monkeypatch):
    """Rules, summariser and analyses read one index per module, so a
    cold lint of ``src/repro`` touches each AST node about once.

    ``ast.iter_child_nodes`` (``ast.walk`` calls it too) is counted as a
    profiler counts a generator: one per call plus one per child it
    yields.  One more full walk of every module adds 2 per node; before
    the shared index the count was 11.8 per node, about six walks.
    """
    config = load_config(REPO_ROOT / "pyproject.toml")
    files = collect_files([REPO_ROOT / "src" / "repro"], config)
    nodes = sum(
        1 for path, _ in files
        for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )
    calls = 0
    iter_child_nodes = ast.iter_child_nodes

    def counted(node):
        nonlocal calls
        calls += 1
        for child in iter_child_nodes(node):
            calls += 1
            yield child

    monkeypatch.setattr(ast, "iter_child_nodes", counted)
    analyze_files(files, config)
    monkeypatch.undo()
    assert calls < 3 * nodes, f"{calls / nodes:.2f} per node"


def test_cold_lint_frees_each_module_by_reference_count():
    """Nothing a lint builds for a module refers back to itself, so each
    module's tree is freed when its lint ends, not at the next cycle
    collection: held trees raise a cold lint's peak memory."""
    config = load_config(REPO_ROOT / "pyproject.toml")
    files = collect_files([REPO_ROOT / "src" / "repro" / "lint"], config)
    gc.collect()
    gc.disable()
    try:
        analyze_files(files, config)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# CLI: SARIF, --update-schema-manifest
# ---------------------------------------------------------------------------


def write_cli_project(tmp_path, files):
    write_tree(tmp_path, files)
    relaxed = ", ".join(f'"{c}"' for c in FILE_RULES)
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent(f"""\
        [tool.repro-lint.paths]
        "pkg" = [{relaxed}]
    """), encoding="utf-8")
    return tmp_path / "pyproject.toml"


class TestCli:
    def test_sarif_output_matches_golden(self, tmp_path, capsys):
        pyproject = write_cli_project(tmp_path, LOCKED_SLEEP)
        out_file = tmp_path / "lint.sarif"
        status = main([
            "--config", str(pyproject),
            "--format", "sarif", "--output", str(out_file),
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

    @pytest.mark.usefixtures("store_site")
    def test_update_schema_manifest_cli(self, tmp_path, capsys):
        files = {"pkg/__init__.py": "", "pkg/store.py": store_source(["a"])}
        pyproject = write_cli_project(tmp_path, files)
        run = ["--config", str(pyproject), "--no-cache"]

        status = main(run)
        capsys.readouterr()
        assert status == 1  # unrecorded schema site

        status = main([*run, "--update-schema-manifest"])
        capsys.readouterr()
        assert status == 0
        manifest = json.loads((tmp_path / "lint-schema.json").read_text())
        assert "pkg/store.py:Store.snapshot" in manifest["sites"]

        status = main(run)
        capsys.readouterr()
        assert status == 0
