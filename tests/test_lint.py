"""Tests for repro.lint — rule fixtures, suppressions, config, CLI.

Each rule family gets positive (fires), negative (stays quiet) and
suppressed fixtures; a final test asserts the live tree is clean, which is
what CI enforces.
"""

import io
import json
import shutil
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    lint_repository,
    lint_source,
)
from repro.lint.cli import main
from repro.lint.config import load_config
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

    @pytest.mark.parametrize("local_first", [True, False])
    def test_function_local_import_stays_in_its_def(self, local_first):
        # ``np`` names pandas inside ``helper`` only: the module-level
        # call still resolves to numpy, and the call in ``helper`` to
        # pandas, wherever the def sits relative to the module import.
        helper = textwrap.dedent("""\
            def helper():
                import pandas as np
                np.random.seed(1)
            """)
        module = "import numpy as np\n"
        head = helper + module if local_first else module + helper
        diags = run(head + "np.random.seed(0)\n")
        assert [(d.code, d.line) for d in diags] == [("RPR001", 5)]
        assert "numpy.random.seed()" in diags[0].message

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

    def test_nested_def_own_param_reported_once(self):
        src = """\
        from repro._util.rng import RandomState
        def outer(rng: RandomState):
            def inner(rng: RandomState):
                return rng.random()
            return inner
        """
        found = [(d.code, d.line, d.col) for d in run(src)]
        assert found == [("RPR002", 4, 15)]

    def test_nested_def_drawing_outer_param_reported_once(self):
        src = """\
        from repro._util.rng import RandomState
        def outer(rng: RandomState):
            def inner():
                return rng.random()
            return inner
        """
        found = [(d.code, d.line, d.col) for d in run(src)]
        assert found == [("RPR002", 4, 15)]

    def test_nested_def_normalising_own_param_leaves_outer_draw(self):
        src = """\
        from repro._util.rng import RandomState, as_generator
        def outer(rng: RandomState):
            def inner(rng: RandomState):
                rng = as_generator(rng)
                return rng.random()
            return rng.random()
        """
        found = [(d.code, d.line, d.col) for d in run(src)]
        assert found == [("RPR002", 6, 11)]

    def test_outer_normalising_own_param_beside_nested_def_not_flagged(self):
        src = """\
        from repro._util.rng import RandomState, as_generator
        def outer(rng: RandomState):
            rng = as_generator(rng)
            def inner(rng: RandomState):
                rng = as_generator(rng)
                return rng.random()
            return rng.random()
        """
        assert codes(src) == []

    def test_nonlocal_normalisation_in_nested_def_covers_outer(self):
        src = """\
        from repro._util.rng import RandomState, as_generator
        def outer(rng: RandomState):
            def inner():
                nonlocal rng
                rng = as_generator(rng)
            inner()
            return rng.random()
        """
        assert codes(src) == []


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
    def test_disable_removes_rule(self):
        cfg = LintConfig(ignore=["RPR002"])
        assert codes(SEEDED_RNG + "\n", config=cfg) == []

    def test_load_config_reads_table(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent("""\
            [tool.other]
            x = 1

            [tool.repro-lint.paths]
            "src/pkg" = ["RPR002"]
        """))
        cfg = load_config(pyproject)
        assert cfg.paths == ["src/pkg"]
        assert cfg.path_rules == {"src/pkg": ["RPR002"]}
        assert cfg.cache == ".repro-lint-cache"
        assert cfg.root == tmp_path.resolve()

    def test_load_config_rejects_unknown_key(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro-lint]\nbogus = \"x\"\n")
        with pytest.raises(ValueError):
            load_config(pyproject)

    @pytest.mark.parametrize("key", [
        "baseline", "warn", "workers", "exclude", "disable", "select",
        "ignore", "rng-exempt", "cache", "schema-manifest", "schema-sites",
        "blocking-calls",
    ])
    def test_removed_keys_rejected(self, tmp_path, key):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(f"[tool.repro-lint]\n{key} = []\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(pyproject)


VIOLATIONS = {
    "RPR001": "import time\nt = time.time()\n",
    "RPR002": SEEDED_RNG + "\n",
}


class TestCli:
    @pytest.mark.parametrize("flag", [
        "--baseline=b.json", "--no-baseline", "--write-baseline",
        "--update-baseline", "--workers=0",
    ])
    def test_removed_flags_are_usage_errors(self, tmp_path, flag, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main([str(target), flag])
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("code", sorted(VIOLATIONS))
    def test_each_rule_family_fails_the_run(self, tmp_path, code, capsys):
        target = tmp_path / "core" / "snippet.py"
        target.parent.mkdir()
        target.write_text(VIOLATIONS[code])
        status = main([str(target)])
        out = capsys.readouterr().out
        assert status == 1
        assert code in out

    def test_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 0

    def test_run_without_pyproject_writes_no_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        # No pyproject above the tree: the root is just the current
        # directory, so neither it nor the linted tree gets a cache.
        tree = tmp_path / "tree"
        target = tree / "core" / "snippet.py"
        target.parent.mkdir(parents=True)
        target.write_text(SEEDED_RNG + "\n")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main([str(tree)]) == 1
        assert "RPR002" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "core", "elsewhere", "snippet.py", "tree",
        ]

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "core" / "snippet.py"
        target.parent.mkdir()
        target.write_text(SEEDED_RNG + "\n")
        status = main([str(target), "--format", "json"])
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

    def test_config_key_other_than_paths_is_usage_error(
        self, tmp_path, capsys
    ):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.repro-lint]\ncache = ""\n')
        assert main(["--config", str(pyproject)]) == 2
        assert "unknown key 'cache'" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main([str(tmp_path / "ghost.py")]) == 2

    def test_syntax_error_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def f(:\n")
        assert main([str(target)]) == 2
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
    committed configuration."""

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
        for name in ("pyproject.toml", "lint-schema.json"):
            shutil.copy2(REPO_ROOT / name, tmp_path / name)
        stripped = strip_suppressions(tmp_path)
        config = load_config(tmp_path / "pyproject.toml")
        diags, _, _ = lint_repository(config, use_cache=False)
        found = {(d.path, d.line, d.code) for d in diags}
        assert found == stripped
