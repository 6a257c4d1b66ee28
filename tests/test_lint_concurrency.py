"""Tests for the concurrency pass (repro.lint.concurrency, RPR017/018).

Each rule gets a seeded-violation fixture plus a clean counterpart, the
two serve-layer bug classes are pinned as regression fixtures (blocking
``Future.cancel`` under the lock; done-callback reentry into a
non-reentrant lock), and the pass is exercised for worker-count
byte-identical diagnostics, suppression handling, the configurable
blocking-call blocklist, and ``--explain``.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_repository
from repro.lint.cli import main
from repro.lint.concurrency import (
    DEFAULT_BLOCKING_CALLS,
    FunctionConcurrency,
    concurrency_fingerprint,
    match_blocking,
)
from repro.lint.engine import REGISTRY

#: File rules are exercised by tests/test_lint.py; fixtures here disable
#: them so each assertion sees only the concurrency rule under test.
FILE_RULES = ["RPR001", "RPR002"]


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
# RPR017: blocking call under lock (the JobQueue.cancel() bug class)
# ---------------------------------------------------------------------------


RPR017_FILES = {
    "pkg/__init__.py": "",
    "pkg/cancelq.py": """\
        import threading

        class CancelQueue:
            def __init__(self):
                self._lock = threading.Lock()
                self._futs = {}

            def cancel(self, key):
                with self._lock:
                    fut = self._futs.pop(key, None)
                    if fut is None:
                        return False
                    return fut.cancel()
    """,
}


class TestBlockingCallUnderLock:
    def test_future_cancel_under_lock_flagged(self, tmp_path):
        # Regression fixture for the JobQueue.cancel() bug: Future.cancel()
        # runs done callbacks synchronously and blocked with the queue
        # lock held.
        diags, _, _ = run_project(tmp_path, RPR017_FILES)
        assert codes(diags) == ["RPR017"]
        assert "fut.cancel()" in diags[0].message
        assert "*.cancel" in diags[0].message
        assert "_lock" in diags[0].message

    def test_cancel_outside_lock_clean(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/cancelq.py": """\
                import threading

                class CancelQueue:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._futs = {}

                    def cancel(self, key):
                        with self._lock:
                            fut = self._futs.pop(key, None)
                        if fut is None:
                            return False
                        return fut.cancel()
            """,
        }
        diags, _, _ = run_project(tmp_path, files)
        assert diags == []

    def test_blocking_call_reached_through_helper_flagged(self, tmp_path):
        # The lock flows into the helper's entry lockset via the call
        # graph (`*_locked` helper convention); the helper's own call
        # site is the one flagged, with the caller chain in the message.
        files = {
            "pkg/__init__.py": "",
            "pkg/sleeper.py": """\
                import threading
                import time

                class Sleeper:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def tick(self):
                        with self._lock:
                            self._pause_locked()

                    def _pause_locked(self):
                        time.sleep(0.1)
            """,
        }
        diags, _, _ = run_project(tmp_path, files)
        assert codes(diags) == ["RPR017"]
        assert "time.sleep" in diags[0].message
        assert "held on entry" in diags[0].message
        assert "Sleeper.tick" in diags[0].message

    def test_suppression_with_invariant_silences(self, tmp_path):
        files = dict(RPR017_FILES)
        files["pkg/cancelq.py"] = files["pkg/cancelq.py"].replace(
            "return fut.cancel()",
            "return fut.cancel()  # repro-lint: disable=RPR017  # settled",
        )
        diags, _, _ = run_project(tmp_path, files)
        assert diags == []

    def test_blocklist_is_configurable(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/custom.py": """\
                import threading

                class Custom:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def poke(self, conn):
                        with self._lock:
                            conn.frobnicate()
            """,
        }
        diags, _, _ = run_project(tmp_path, files)
        assert diags == []
        diags, _, _ = run_project(
            tmp_path, files, blocking_calls=["*.frobnicate"]
        )
        assert codes(diags) == ["RPR017"]
        assert "*.frobnicate" in diags[0].message

    def test_project_method_named_like_blocking_leaf_clean(self, tmp_path):
        # `*.cancel` must not match a call resolved to a project method
        # that merely shares the leaf name.
        files = {
            "pkg/__init__.py": "",
            "pkg/ownq.py": """\
                import threading

                class OwnQueue:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.tally = 0

                    def drop(self):
                        with self._lock:
                            self.cancel()

                    def cancel(self):
                        self.tally = self.tally + 1
            """,
        }
        diags, _, _ = run_project(tmp_path, files)
        assert "RPR017" not in codes(diags)


# ---------------------------------------------------------------------------
# RPR018: callback reentrancy (the JobQueue RLock bug class)
# ---------------------------------------------------------------------------


RPR018_FILES = {
    "pkg/__init__.py": "",
    "pkg/reenter.py": """\
        import threading

        class ReenterQueue:
            def __init__(self, pool):
                self._lock = threading.Lock()
                self._pool = pool
                self.done = 0

            def start(self, payload):
                with self._lock:
                    fut = self._pool.submit(run_job, payload)
                    fut.add_done_callback(self._on_done)
                    return fut

            def _on_done(self, fut):
                with self._lock:
                    self.done = self.done + 1

        def run_job(payload):
            return payload
    """,
}


class TestCallbackReentrancy:
    def test_done_callback_reentry_into_plain_lock_flagged(self, tmp_path):
        # Regression fixture for the JobQueue RLock bug: a settled Future
        # runs its done callbacks synchronously inside add_done_callback,
        # so the callback re-acquiring the held non-reentrant lock
        # deadlocks.
        diags, _, _ = run_project(tmp_path, RPR018_FILES)
        assert codes(diags) == ["RPR018"]
        assert "_on_done" in diags[0].message
        assert "synchronously" in diags[0].message
        assert "RLock" in diags[0].message

    def test_rlock_makes_reentry_safe(self, tmp_path):
        files = dict(RPR018_FILES)
        files["pkg/reenter.py"] = files["pkg/reenter.py"].replace(
            "threading.Lock()", "threading.RLock()"
        )
        diags, _, _ = run_project(tmp_path, files)
        assert diags == []

    def test_registration_outside_lock_clean(self, tmp_path):
        files = dict(RPR018_FILES)
        files["pkg/reenter.py"] = textwrap.dedent(
            files["pkg/reenter.py"]
        ).replace(
            """\
    def start(self, payload):
        with self._lock:
            fut = self._pool.submit(run_job, payload)
            fut.add_done_callback(self._on_done)
            return fut
""",
            """\
    def start(self, payload):
        with self._lock:
            fut = self._pool.submit(run_job, payload)
        fut.add_done_callback(self._on_done)
        return fut
""",
        )
        diags, _, _ = run_project(tmp_path, files)
        assert diags == []


# ---------------------------------------------------------------------------
# determinism, serialisation, config plumbing
# ---------------------------------------------------------------------------


ALL_FIXTURES = {**RPR017_FILES, **RPR018_FILES}


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_diagnostics_identical_at_any_worker_count(
        self, tmp_path, workers
    ):
        write_tree(tmp_path, ALL_FIXTURES)
        config = LintConfig(root=tmp_path, paths=["pkg"], disable=FILE_RULES)
        serial, _, _ = lint_repository(config, workers=0, use_cache=False)
        parallel, _, _ = lint_repository(
            config, workers=workers, use_cache=False
        )
        assert sorted(codes(serial)) == ["RPR017", "RPR018"]
        assert parallel == serial

    def test_warm_cache_reproduces_findings(self, tmp_path):
        write_tree(tmp_path, ALL_FIXTURES)
        cache_dir = tmp_path / ".cache"
        config = LintConfig(root=tmp_path, paths=["pkg"], disable=FILE_RULES)
        cold, _, stats_cold = lint_repository(
            config, workers=0, cache_dir=cache_dir, use_cache=True
        )
        warm, _, stats_warm = lint_repository(
            config, workers=0, cache_dir=cache_dir, use_cache=True
        )
        assert warm == cold
        assert stats_warm.cache_hits == stats_cold.files

    def test_fingerprint_is_stable(self):
        assert concurrency_fingerprint() == concurrency_fingerprint()

    def test_function_concurrency_roundtrips(self):
        conc = FunctionConcurrency(events=[
            {"k": "acquire", "lineno": 3, "col": 4, "held": [],
             "deferred": False, "lock": "pkg.m.C._lock"},
        ])
        assert FunctionConcurrency.from_dict(conc.to_dict()) == conc

    def test_select_scopes_to_one_rule(self, tmp_path):
        diags, _, _ = run_project(tmp_path, ALL_FIXTURES, select=["RPR017"])
        assert sorted(codes(diags)) == ["RPR017"]


class TestBlockingMatch:
    def test_exact_name_matches_resolved_callee(self):
        event = {"callee": "time.sleep", "leaf": "sleep", "recv": "name"}
        assert match_blocking(
            event, DEFAULT_BLOCKING_CALLS, frozenset()
        ) == "time.sleep"

    def test_leaf_pattern_skips_const_receiver(self):
        # ", ".join(...) must not match a hypothetical *.join blocklist
        # entry aimed at Thread.join.
        event = {"callee": None, "leaf": "join", "recv": "const"}
        assert match_blocking(event, DEFAULT_BLOCKING_CALLS, frozenset()) is None

    def test_leaf_pattern_skips_project_callee(self):
        event = {"callee": "pkg.m.Q.cancel", "leaf": "cancel", "recv": "self"}
        assert match_blocking(
            event, DEFAULT_BLOCKING_CALLS, frozenset(["pkg.m.Q.cancel"])
        ) is None


# ---------------------------------------------------------------------------
# --explain: each rule class documents itself
# ---------------------------------------------------------------------------


class TestCatalog:
    def test_catalog_covers_exactly_the_registered_rules(self):
        for rule in REGISTRY.rules():
            text = REGISTRY.explain(rule.code)
            assert text.startswith(f"{rule.code} — {rule.name}")

    def test_every_entry_has_summary_and_example(self):
        # The text comes from the rule class itself, not an inherited one.
        for rule in REGISTRY.rules():
            assert type(rule).__doc__ and type(rule).__doc__.strip(), rule.code
            assert rule.example.strip(), rule.code

    def test_explain_renders_code_name_and_example(self):
        text = REGISTRY.explain("RPR018")
        assert text is not None
        assert text.startswith("RPR018")
        assert "callback-reentrancy" in text
        assert "Example:" in text

    def test_explain_unknown_code_is_none(self):
        assert REGISTRY.explain("RPR999") is None

    def test_cli_explain_prints_entry(self, capsys):
        assert main(["--explain", "RPR017,RPR018"]) == 0
        out = capsys.readouterr().out
        assert "RPR017 — blocking-call-under-lock" in out
        assert "RPR018 — callback-reentrancy" in out

    def test_cli_explain_rejects_unknown_code(self, capsys):
        assert main(["--explain", "RPR999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err
