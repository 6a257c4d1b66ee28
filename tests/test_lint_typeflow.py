"""Tests for the typeflow analysis (repro.lint.typeflow) and its RPR011 rule.

The overflow rule gets a seeded-violation fixture package, clean
counterparts, and the packed-key shapes of the live tree, including the
``*_ip``/``*_port`` parameter bounds and the module's return-value flow;
the analysis itself is exercised for cache invalidation when the lattice
changes, SARIF output against a golden file, ``--select``/``--ignore``
filtering, and the ``[tool.repro-lint.paths]`` path-scoped rule sets.
"""

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_repository
from repro.lint.cli import main
from repro.lint.config import load_config
from repro.lint.project import LINT_PACKAGE
from repro.lint.typeflow import (
    AbstractValue,
    int_capacity,
    parse_dtype,
    promote_dtype,
)

GOLDEN_SARIF = Path(__file__).resolve().parent / "data" / "lint_typeflow_golden.sarif"

#: File rules are exercised by tests/test_lint.py; fixtures here ignore
#: them so each assertion sees only the typeflow rule under test.
FILE_RULES = ["RPR001", "RPR002"]


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
# lattice primitives
# ---------------------------------------------------------------------------


class TestLattice:
    def test_parse_dtype_struct_codes_and_endianness(self):
        assert parse_dtype("<u4") == "uint32"
        assert parse_dtype("u2") == "uint16"
        assert parse_dtype("float64") == "float64"
        assert parse_dtype("numpy.uint8") == "uint8"
        assert parse_dtype("not-a-dtype") is None

    def test_int_capacity_loses_a_bit_when_signed(self):
        assert int_capacity("uint64") == 64
        assert int_capacity("int64") == 63
        assert int_capacity("uint16") == 16

    def test_promote_weak_literal_adapts_to_array_dtype(self):
        arr = AbstractValue(dtype="uint32", bits=32)
        lit = AbstractValue(dtype=None, bits=4)
        assert promote_dtype(arr, lit) == "uint32"

    def test_promote_signed_unsigned_mix_widens(self):
        a = AbstractValue(dtype="uint32")
        b = AbstractValue(dtype="int32")
        assert promote_dtype(a, b) == "int64"


# ---------------------------------------------------------------------------
# RPR011: overflow-risk arithmetic
# ---------------------------------------------------------------------------


RPR011_FILES = {
    "pkg/__init__.py": "",
    "pkg/pack.py": """\
        import numpy as np

        def pack(batch):
            ips = batch.src_ip.astype(np.uint64)
            ports = batch.src_port.astype(np.uint64)
            return (ips << np.uint64(40)) | ports

        def pack_wrapping(batch):
            mixed = batch.src_ip.astype(np.uint64)
            with np.errstate(over="ignore"):
                mixed *= np.uint64(0x9E3779B97F4A7C15)
            return mixed
    """,
}


class TestOverflowArithmeticRule:
    def test_oversized_shift_flagged_and_errstate_respected(self, tmp_path):
        diags, _, _ = run_project(tmp_path, RPR011_FILES)
        assert codes(diags) == ["RPR011"]
        assert "shl" in diags[0].message
        assert "np.errstate" in diags[0].message

    def test_shift_within_capacity_clean(self, tmp_path):
        files = dict(RPR011_FILES)
        files["pkg/pack.py"] = files["pkg/pack.py"].replace(
            "np.uint64(40)", "np.uint64(16)"
        )
        diags, _, _ = run_project(tmp_path, files)
        assert diags == []

    def test_suppression_comment_silences_site(self, tmp_path):
        files = dict(RPR011_FILES)
        files["pkg/pack.py"] = files["pkg/pack.py"].replace(
            "return (ips << np.uint64(40)) | ports",
            "return (ips << np.uint64(40)) | ports"
            "  # repro-lint: disable=RPR011",
        )
        diags, _, _ = run_project(tmp_path, files)
        assert diags == []


# ---------------------------------------------------------------------------
# the live tree's packed-key shapes, one module each
# ---------------------------------------------------------------------------


def one_module(body):
    return {"pkg/__init__.py": "", "pkg/keys.py": "import numpy as np\n\n" + textwrap.dedent(body)}


#: ``core/campaigns.py:_grouped_value_counts``: an unbounded int64 group
#: id shifted by 16 (suppressed in the tree: ids are packet-index-bounded).
GROUP_SHIFT = one_module("""\
    def grouped_keys(group, values):
        return (group.astype(np.int64) << 16) | values.astype(np.int64)
""")

#: ``core/campaigns.py:_identify``: an unbounded uint64 session id shifted
#: by 32 (suppressed in the tree: ids are < 2**32).
SESSION_SHIFT = one_module("""\
    def packed(sub_session, sub_dst):
        return (sub_session.astype(np.uint64) << np.uint64(32)) | sub_dst
""")

#: ``enrichment/registry.py:sample_in_blocks``: two uint64 arrays added
#: (suppressed in the tree: both are < 2**32).
WIDE_ADD = one_module("""\
    def addresses(starts, sizes, fractions):
        firsts = np.array(starts, dtype=np.uint64)
        offsets = (fractions * sizes).astype(np.uint64)
        return (firsts + offsets).astype(np.uint32)
""")

#: ``scanners/nmap.py:NMapModel.craft``: a helper of the same module
#: returns a 16-bit token, which is doubled into a uint32 by a shift of
#: 16.  Only the module's return-value fixpoint proves it fits.
TOKEN_DOUBLE = one_module("""\
    class Model:
        def craft(self, dst_ip, dst_port):
            nfo = self._match_token(dst_ip, dst_port)
            return (nfo.astype(np.uint32) << np.uint32(16)) | nfo.astype(np.uint32)

        def _match_token(self, dst_ip, dst_port):
            mixed = dst_ip.astype(np.uint32) ^ dst_port.astype(np.uint32)
            return (mixed & np.uint32(0xFFFF)).astype(np.uint16)
""")

#: ``scanners/unicorn.py``-style port token: a ``*_port`` parameter holds
#: at most 16 bits whatever its dtype, so widened to uint32 and shifted by
#: 16 it fits.
PORT_SHIFT = one_module("""\
    def key(dst_port):
        return dst_port.astype(np.uint32) << np.uint32(16)
""")

#: The same body under a parameter whose name bounds nothing: only the
#: cast's 32 bits are known, and the shift needs 48.
TOKEN_SHIFT = one_module("""\
    def key(token):
        return token.astype(np.uint32) << np.uint32(16)
""")


#: A parameter the body rebinds reads as its new binding from there on:
#: ``scanners/base.py:_validate_targets`` rebinds its parameters this way.
REBOUND_PARAM = one_module("""\
    def key2(addr):
        addr = np.asarray(addr, dtype=np.uint64)
        return addr << np.uint64(40)
""")


#: A flagged operation too long to quote whole: the message cuts it to
#: 72 characters, the last three of them ``...``.
LONG_SHIFT = one_module("""\
    def key(token_with_a_deliberately_long_name_to_overflow_the_quote):
        return token_with_a_deliberately_long_name_to_overflow_the_quote.astype(np.uint32) << np.uint32(16)
""")


#: An operation in a ``for`` loop's iterable is one finding: the
#: extractor reads the iterable once.
FOR_ITER = one_module("""\
    def keys(batch):
        for key in batch.src_ip.astype(np.uint32) << np.uint32(8):
            yield key
""")


class TestTreeShapes:
    @pytest.mark.parametrize("files, message", [
        (GROUP_SHIFT, "'shl' result needs up to 79 bits but int64 holds 63; "
                      "'group.astype(np.int64) << 16'"),
        (SESSION_SHIFT, "'shl' result needs up to 96 bits but uint64 holds "
                        "64; 'sub_session.astype(np.uint64) << np.uint64(32)'"),
        (WIDE_ADD, "'add' result needs up to 65 bits but uint64 holds 64; "
                   "'firsts + offsets'"),
        (TOKEN_SHIFT, "'shl' result needs up to 48 bits but uint32 holds "
                      "32; 'token.astype(np.uint32) << np.uint32(16)'"),
        (REBOUND_PARAM, "'shl' result needs up to 104 bits but uint64 holds "
                        "64; 'addr << np.uint64(40)'"),
        (LONG_SHIFT, "'shl' result needs up to 48 bits but uint32 holds 32; "
                     "'token_with_a_deliberately_long_name_to_overflow_the_"
                     "quote.astype(np.u...' can wrap"),
        (FOR_ITER, "'shl' result needs up to 40 bits but uint32 holds 32; "
                   "'batch.src_ip.astype(np.uint32) << np.uint32(8)'"),
    ], ids=["group-shift", "session-shift", "wide-add", "token-shift",
            "rebound-param", "long-text", "for-iter"])
    def test_unbounded_packed_key_flagged(self, tmp_path, files, message):
        diags, _, _ = run_project(tmp_path, files)
        assert codes(diags) == ["RPR011"]
        assert diags[0].message.startswith(message)

    def test_port_parameter_bound_proves_fit(self, tmp_path):
        diags, _, _ = run_project(tmp_path, PORT_SHIFT)
        assert diags == []

    def test_same_module_helper_return_proves_fit(self, tmp_path):
        diags, _, _ = run_project(tmp_path, TOKEN_DOUBLE)
        assert diags == []

    def test_helper_in_another_module_is_opaque(self, tmp_path):
        # The same shift with the helper in another module: its 16-bit
        # return is not seen, the token counts as a full uint32, and the
        # shift is flagged.  The analysis is per module on purpose.
        files = {
            "pkg/__init__.py": "",
            "pkg/keys.py": """\
                import numpy as np

                from pkg.token import match_token

                def craft(dst_ip, dst_port):
                    nfo = match_token(dst_ip, dst_port)
                    return (nfo.astype(np.uint32) << np.uint32(16)) | nfo
            """,
            "pkg/token.py": """\
                import numpy as np

                def match_token(dst_ip, dst_port):
                    mixed = dst_ip.astype(np.uint32) ^ dst_port.astype(np.uint32)
                    return (mixed & np.uint32(0xFFFF)).astype(np.uint16)
            """,
        }
        diags, _, _ = run_project(tmp_path, files)
        assert codes(diags) == ["RPR011"]
        assert diags[0].path == "pkg/keys.py"
        assert "needs up to 48 bits but uint32 holds 32" in diags[0].message


# ---------------------------------------------------------------------------
# caching: the unit lattice participates in the cache key
# ---------------------------------------------------------------------------


class TestLatticeCache:
    def _run(self, tmp_path, cache_dir):
        config = LintConfig(root=tmp_path, paths=["pkg"], ignore=FILE_RULES)
        return lint_repository(
            config, workers=0, cache_dir=cache_dir, use_cache=True
        )

    def test_warm_cache_reproduces_typeflow_findings(self, tmp_path):
        write_tree(tmp_path, RPR011_FILES)
        cache_dir = tmp_path / ".cache"
        cold_diags, _, _ = self._run(tmp_path, cache_dir)
        warm_diags, _, warm = self._run(tmp_path, cache_dir)
        assert warm.cache_misses == 0
        assert warm.parsed == 0
        assert warm_diags == cold_diags
        assert codes(warm_diags) == ["RPR011"]

    def test_lattice_change_invalidates_cache(self, tmp_path, monkeypatch):
        # The lattice lives in typeflow.py, whose source is part of every
        # cache key: editing a parameter bound misses every entry.
        package = tmp_path / "lint"
        shutil.copytree(LINT_PACKAGE, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr("repro.lint.project.LINT_PACKAGE", package)
        write_tree(tmp_path, RPR011_FILES)
        cache_dir = tmp_path / ".cache"
        self._run(tmp_path, cache_dir)
        lattice = package / "typeflow.py"
        source = lattice.read_text()
        edited = source.replace('("_port", 16)', '("_port", 17)')
        assert edited != source
        lattice.write_text(edited)
        _, _, stats = self._run(tmp_path, cache_dir)
        assert stats.cache_hits == 0  # new lattice, every entry misses


# ---------------------------------------------------------------------------
# --select / --ignore
# ---------------------------------------------------------------------------


#: One finding each from RPR011 (pack.py), RPR017 (lock.py: a sleep
#: under the lock), RPR018 (lock.py: a done callback re-entering it) and,
#: outside the RPR01 family, RPR002 (seed.py: a generator built directly;
#: reported only where RPR002 is enabled).
MIXED_FILES = {
    "pkg/__init__.py": "",
    "pkg/lock.py": """\
        import threading
        import time

        class Queue:
            def __init__(self):
                self._lock = threading.Lock()

            def start(self, fut):
                with self._lock:
                    time.sleep(0.1)
                    fut.add_done_callback(self._on_done)

            def _on_done(self, fut):
                with self._lock:
                    pass
    """,
    "pkg/pack.py": RPR011_FILES["pkg/pack.py"],
    "pkg/seed.py": """\
        import numpy as np

        g = np.random.default_rng(42)
    """,
}


def write_cli_project(tmp_path, files, relaxed_rules=FILE_RULES):
    write_tree(tmp_path, files)
    relaxed = ", ".join(f'"{c}"' for c in relaxed_rules)
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent(f"""\
        [tool.repro-lint.paths]
        "pkg" = [{relaxed}]
    """), encoding="utf-8")
    return tmp_path / "pyproject.toml"


def cli_result_codes(pyproject, extra_args):
    out_file = pyproject.parent / "out.sarif"
    status = main([
        "--config", str(pyproject),
        "--format", "sarif", "--output", str(out_file), *extra_args,
    ])
    sarif = json.loads(out_file.read_text())
    return status, [r["ruleId"] for r in sarif["runs"][0]["results"]]


def write_mixed_project(tmp_path):
    """The MIXED_FILES project with RPR002 on, so it reports four codes."""
    return write_cli_project(tmp_path, MIXED_FILES, relaxed_rules=["RPR001"])


class TestSelectIgnore:
    def test_select_keeps_only_matching_codes(self, tmp_path, capsys):
        pyproject = write_mixed_project(tmp_path)
        status, rule_ids = cli_result_codes(pyproject, ["--select", "RPR011"])
        capsys.readouterr()
        assert status == 1
        assert rule_ids == ["RPR011"]

    def test_ignore_drops_matching_codes(self, tmp_path, capsys):
        pyproject = write_mixed_project(tmp_path)
        status, rule_ids = cli_result_codes(pyproject, ["--ignore", "RPR011"])
        capsys.readouterr()
        assert status == 1
        assert sorted(rule_ids) == ["RPR002", "RPR017", "RPR018"]

    def test_select_prefix_matches_family(self, tmp_path, capsys):
        pyproject = write_mixed_project(tmp_path)
        _, unfiltered = cli_result_codes(pyproject, [])
        status, rule_ids = cli_result_codes(pyproject, ["--select", "RPR01"])
        capsys.readouterr()
        assert sorted(unfiltered) == ["RPR002", "RPR011", "RPR017", "RPR018"]
        assert status == 1
        assert sorted(rule_ids) == ["RPR011", "RPR017", "RPR018"]

    def test_invalid_code_prefix_is_a_usage_error(self, tmp_path, capsys):
        pyproject = write_mixed_project(tmp_path)
        status = main(["--config", str(pyproject), "--select", "E501"])
        err = capsys.readouterr().err
        assert status == 2
        assert "RPR" in err

    def test_config_select_applies_without_cli_flag(self, tmp_path):
        diags, _, _ = run_project(tmp_path, MIXED_FILES, select=["RPR008"])
        assert diags == []  # nothing in the fixture matches RPR008


# ---------------------------------------------------------------------------
# [tool.repro-lint.paths]: path-scoped rule sets
# ---------------------------------------------------------------------------


PATHS_BLOCK = """\
    [tool.repro-lint.paths]
    "src/repro" = []
    "benchmarks" = ["RPR001", "RPR002"]
"""


class TestPathScopedRules:
    def test_paths_block_sets_targets_and_rule_sets(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent(PATHS_BLOCK), encoding="utf-8")
        cfg = load_config(pyproject)
        assert cfg.paths == ["src/repro", "benchmarks"]
        assert cfg.path_rules == {
            "src/repro": [], "benchmarks": ["RPR001", "RPR002"],
        }

    def test_scalar_paths_key_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent("""\
            [tool.repro-lint]
            paths = ["pkg"]
        """), encoding="utf-8")
        with pytest.raises(ValueError, match=r"\[tool.repro-lint.paths\]"):
            load_config(pyproject)

    def test_direct_path_rules_key_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent("""\
            [tool.repro-lint]
            path-rules = ["pkg"]
        """), encoding="utf-8")
        with pytest.raises(ValueError, match="paths"):
            load_config(pyproject)

    def test_longest_prefix_wins(self):
        cfg = LintConfig(path_rules={
            "pkg": ["RPR011"],
            "pkg/hot": [],
        })
        assert cfg.is_disabled_for("pkg/pack.py", "RPR011")
        assert not cfg.is_disabled_for("pkg/hot/pack.py", "RPR011")
        assert not cfg.is_disabled_for("other/pack.py", "RPR011")

    def test_relaxed_path_filters_findings_end_to_end(self, tmp_path):
        diags, _, _ = run_project(
            tmp_path, RPR011_FILES, path_rules={"pkg": ["RPR011"]}
        )
        assert diags == []


# ---------------------------------------------------------------------------
# SARIF golden for a typeflow finding
# ---------------------------------------------------------------------------


class TestTypeflowSarif:
    def test_sarif_output_matches_golden(self, tmp_path, capsys):
        pyproject = write_cli_project(tmp_path, RPR011_FILES)
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
