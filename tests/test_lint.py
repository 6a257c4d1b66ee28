"""Tests for repro.lint — rule fixtures, suppressions, baseline, CLI.

Each rule family gets positive (fires), negative (stays quiet), suppressed
and baselined fixtures; a final test asserts the live tree is clean against
the committed baseline, which is what CI enforces.
"""

import io
import json
import shutil
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    LintConfig,
    Severity,
    lint_repository,
    lint_source,
)
from repro.lint.cli import main
from repro.lint.config import _fallback_parse, load_config
from repro.lint.engine import _SUPPRESS_RE, parse_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(source, rel_path="src/repro/core/mod.py", config=None):
    return lint_source(textwrap.dedent(source), rel_path, config=config)


def codes(source, rel_path="src/repro/core/mod.py", config=None):
    return [d.code for d in run(source, rel_path, config)]


class TestDeterminismRule:
    def test_stdlib_random_import_flagged(self):
        assert "RPR001" in codes("import random\n")

    def test_stdlib_random_from_import_flagged(self):
        assert "RPR001" in codes("from random import choice\n")

    def test_stdlib_random_call_flagged(self):
        src = """\
        import random
        x = random.random()
        """
        assert codes(src).count("RPR001") >= 2  # import + call

    def test_wall_clock_flagged(self):
        src = """\
        import time
        t = time.time()
        """
        assert "RPR001" in codes(src)

    def test_from_import_time_flagged(self):
        src = """\
        from time import time
        t = time()
        """
        assert "RPR001" in codes(src)

    def test_datetime_now_flagged(self):
        src = """\
        from datetime import datetime
        stamp = datetime.now()
        """
        assert "RPR001" in codes(src)

    def test_legacy_numpy_global_flagged(self):
        src = """\
        import numpy as np
        np.random.seed(0)
        x = np.random.rand(3)
        """
        assert codes(src).count("RPR001") == 2

    def test_unseeded_default_rng_flagged(self):
        src = """\
        import numpy as np
        g = np.random.default_rng()
        """
        assert "RPR001" in codes(src)

    def test_generator_methods_not_flagged(self):
        src = """\
        import numpy as np
        def draw(rng: np.random.Generator):
            return rng.integers(0, 10)
        """
        assert "RPR001" not in codes(src)

    def test_rng_module_is_exempt(self):
        src = """\
        import numpy as np
        g = np.random.default_rng()
        """
        assert codes(src, rel_path="src/repro/_util/rng.py") == []


class TestRngPlumbingRule:
    def test_seeded_default_rng_flagged(self):
        src = """\
        import numpy as np
        g = np.random.default_rng(42)
        """
        assert "RPR002" in codes(src)

    def test_seed_sequence_flagged(self):
        src = """\
        import numpy as np
        s = np.random.SeedSequence(7)
        """
        assert "RPR002" in codes(src)

    def test_randomstate_param_direct_draw_flagged(self):
        src = """\
        from repro._util.rng import RandomState
        def jitter(rng: RandomState):
            return rng.random()
        """
        assert "RPR002" in codes(src)

    def test_randomstate_param_string_annotation_flagged(self):
        src = """\
        def jitter(rng: "RandomState"):
            return rng.integers(0, 5)
        """
        assert "RPR002" in codes(src)

    def test_normalised_param_not_flagged(self):
        src = """\
        from repro._util.rng import RandomState, as_generator
        def jitter(rng: RandomState):
            generator = as_generator(rng)
            return generator.random()
        """
        assert "RPR002" not in codes(src)

    def test_rebound_param_not_flagged(self):
        src = """\
        from repro._util.rng import RandomState, as_generator
        def jitter(rng: RandomState):
            rng = as_generator(rng)
            return rng.random()
        """
        assert "RPR002" not in codes(src)

    def test_generator_annotation_not_flagged(self):
        src = """\
        import numpy as np
        def jitter(rng: np.random.Generator):
            return rng.random()
        """
        assert "RPR002" not in codes(src)


#: One RPR002 finding on line 2 (a seeded but direct construction).
SEEDED_RNG = "import numpy as np\ng = np.random.default_rng(42)"


class TestSuppressions:
    def test_matching_code_suppressed(self):
        assert codes(SEEDED_RNG + "  # repro-lint: disable=RPR002\n") == []

    def test_bare_disable_suppresses_all(self):
        src = """\
        import numpy as np
        g = np.random.default_rng()  # repro-lint: disable
        """
        assert codes(src) == []

    def test_multiple_codes(self):
        # An unseeded direct construction trips both RPR001 and RPR002.
        src = "g = np.random.default_rng()  # repro-lint: disable=RPR001,RPR002\n"
        assert codes("import numpy as np\n" + src) == []

    def test_wrong_code_does_not_suppress(self):
        src = SEEDED_RNG + "  # repro-lint: disable=RPR001\n"
        assert codes(src) == ["RPR002"]

    def test_parse_suppressions_shapes(self):
        lines = [
            "x = 1",
            "y = 2  # repro-lint: disable=RPR001, RPR017",
            "z = 3  # repro-lint: disable",
        ]
        table = parse_suppressions(lines)
        assert table == {2: {"RPR001", "RPR017"}, 3: None}


class TestSeverityAndConfig:
    def test_warn_demotes_severity(self):
        cfg = LintConfig(warn=["RPR002"])
        diags = run(SEEDED_RNG + "\n", config=cfg)
        assert [d.severity for d in diags] == [Severity.WARNING]

    def test_disable_removes_rule(self):
        cfg = LintConfig(disable=["RPR002"])
        assert codes(SEEDED_RNG + "\n", config=cfg) == []

    def test_load_config_reads_table(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent("""\
            [tool.other]
            x = 1

            [tool.repro-lint]
            paths = ["src/pkg"]
            baseline = "custom-baseline.json"
            warn = ["RPR002"]
        """))
        cfg = load_config(pyproject)
        assert cfg.paths == ["src/pkg"]
        assert cfg.baseline == "custom-baseline.json"
        assert cfg.warn == ["RPR002"]
        assert cfg.root == tmp_path.resolve()

    def test_load_config_rejects_unknown_key(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro-lint]\nbogus = \"x\"\n")
        with pytest.raises(ValueError):
            load_config(pyproject)

    def test_fallback_parser_matches_subset(self):
        text = textwrap.dedent("""\
            [project]
            name = "x"

            [tool.repro-lint]
            baseline = "b.json"  # trailing comment
            paths = [
                "src/a",
                "src/b",
            ]
            warn = []

            [tool.after]
            y = "z"
        """)
        table = _fallback_parse(text)
        assert table == {
            "baseline": "b.json",
            "paths": ["src/a", "src/b"],
            "warn": [],
        }


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        diags = run(SEEDED_RNG + "\n")
        baseline = Baseline.from_diagnostics(diags)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        new, known = loaded.partition(diags)
        assert new == [] and known == diags

    def test_missing_file_is_empty(self, tmp_path):
        assert Baseline.load(tmp_path / "nope.json").entries == set()

    def test_version_check(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)


VIOLATIONS = {
    "RPR001": "import time\nt = time.time()\n",
    "RPR002": SEEDED_RNG + "\n",
}


class TestCli:
    @pytest.mark.parametrize("code", sorted(VIOLATIONS))
    def test_each_rule_family_fails_the_run(self, tmp_path, code, capsys):
        target = tmp_path / "core" / "snippet.py"
        target.parent.mkdir()
        target.write_text(VIOLATIONS[code])
        status = main([str(target), "--no-baseline"])
        out = capsys.readouterr().out
        assert status == 1
        assert code in out

    def test_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target), "--no-baseline"]) == 0

    def test_baseline_workflow(self, tmp_path, capsys):
        target = tmp_path / "core" / "snippet.py"
        target.parent.mkdir()
        target.write_text(SEEDED_RNG + "\n")
        baseline = tmp_path / "baseline.json"

        assert main([str(target), "--baseline", str(baseline)]) == 1
        assert main([str(target), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        # Grandfathered now.
        assert main([str(target), "--baseline", str(baseline)]) == 0
        # A new violation still fails.
        target.write_text(SEEDED_RNG + "\nimport time\nt = time.time()\n")
        assert main([str(target), "--baseline", str(baseline)]) == 1
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "core" / "snippet.py"
        target.parent.mkdir()
        target.write_text(SEEDED_RNG + "\n")
        status = main([str(target), "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["findings"][0]["code"] == "RPR002"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "RPR001", "RPR002", "RPR008", "RPR011", "RPR017", "RPR018",
        ]

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "ghost.py"), "--no-baseline"]) == 2

    def test_syntax_error_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert main([str(target), "--no-baseline"]) == 2
        capsys.readouterr()


def strip_suppressions(root):
    """Delete every inline suppression comment under ``root``.

    Only comment tokens are touched, so suppression syntax quoted in a
    docstring stays.  Returns the stripped ``(path, line, code)`` set.
    """
    stripped = set()
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            row, col = tok.start
            rel = path.relative_to(root).as_posix()
            for code in (match.group("codes") or "*").split(","):
                stripped.add((rel, row, code.strip()))
            lines[row - 1] = lines[row - 1][:col].rstrip() + "\n"
        path.write_text("".join(lines), encoding="utf-8")
    return stripped


class TestLiveTree:
    """The enforcement test: the shipped tree must lint clean against the
    committed configuration and baseline."""

    def test_src_repro_is_clean(self, capsys):
        status = main([
            str(REPO_ROOT / "src" / "repro"),
            "--config", str(REPO_ROOT / "pyproject.toml"),
        ])
        out = capsys.readouterr().out
        assert status == 0, f"repro-lint found new violations:\n{out}"

    def test_every_suppression_is_live(self, tmp_path):
        """With every inline suppression stripped, the configured targets
        report exactly the suppressed (path, line, code) findings: a stale
        suppression, or a rule that stops firing, fails here."""
        for name in ("src/repro", "benchmarks", "examples"):
            shutil.copytree(
                REPO_ROOT / name, tmp_path / name,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        for name in ("pyproject.toml", "lint-schema.json",
                     "lint-baseline.json"):
            shutil.copy2(REPO_ROOT / name, tmp_path / name)
        stripped = strip_suppressions(tmp_path)
        config = load_config(tmp_path / "pyproject.toml")
        diags, _, _ = lint_repository(config, use_cache=False)
        found = {(d.path, d.line, d.code) for d in diags}
        assert found == stripped
