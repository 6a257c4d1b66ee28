"""Tests for the lock analysis (repro.lint.concurrency, RPR017/018).

Each rule gets a seeded-violation fixture plus a clean counterpart, the
serve-layer bug classes are pinned as regression fixtures (blocking
``Future.cancel`` under the lock; done-callback reentry into a
non-reentrant lock; a blocking call in a ``*_locked`` helper), and the
analysis is exercised for warm-cache diagnostics, suppression handling,
the blocking-call blocklist, and ``--explain``.
"""

import textwrap

from repro.lint import LintConfig, lint_repository
from repro.lint.cli import main
from repro.lint.concurrency import match_blocking
from repro.lint.engine import REGISTRY
from repro.lint.rules.concurrency_rules import BLOCKING_CALLS

#: File rules are exercised by tests/test_lint.py; fixtures here ignore
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
    cfg_kwargs.setdefault("ignore", FILE_RULES)
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

    def test_locked_helper_chain_named_in_message(self, tmp_path):
        # The JobQueue shape: a done callback takes the lock and retires
        # the pool through a `*_locked` helper, two calls deep, whose
        # shutdown then runs with the lock held.
        files = {
            "pkg/__init__.py": "",
            "pkg/jobs.py": """\
                import threading

                class JobQueue:
                    def __init__(self, pool):
                        self._lock = threading.RLock()
                        self._pool = pool

                    def _on_done(self, future):
                        with self._lock:
                            self._finish_locked(future)

                    def _finish_locked(self, future):
                        self._retire_pool_locked(self._pool)

                    def _retire_pool_locked(self, pool):
                        pool.shutdown(wait=False)
            """,
        }
        diags, _, _ = run_project(tmp_path, files)
        assert codes(diags) == ["RPR017"]
        assert (diags[0].line, diags[0].col) == (16, 8)
        assert (
            "'pool.shutdown(wait=False)' matches blocking-call pattern "
            "'*.shutdown' while JobQueue._lock (held on entry via "
            "JobQueue._retire_pool_locked <- JobQueue._finish_locked "
            "<- JobQueue._on_done)"
        ) in diags[0].message

    def test_long_call_is_quoted_cut_to_80_characters(self, tmp_path):
        files = {
            "pkg/__init__.py": "",
            "pkg/waiter.py": """\
                import threading

                class Waiter:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def drain(self, future):
                        with self._lock:
                            return future.result(timeout=self.configured_timeout_for_draining_the_pending_future_seconds)
            """,
        }
        diags, _, _ = run_project(tmp_path, files)
        assert codes(diags) == ["RPR017"]
        assert diags[0].message.startswith(
            "'future.result(timeout=self.configured_timeout_for_draining_"
            "the_pending_future_s…' matches blocking-call pattern '*.result'"
        )

    def test_suppression_with_invariant_silences(self, tmp_path):
        files = dict(RPR017_FILES)
        files["pkg/cancelq.py"] = files["pkg/cancelq.py"].replace(
            "return fut.cancel()",
            "return fut.cancel()  # repro-lint: disable=RPR017  # settled",
        )
        diags, _, _ = run_project(tmp_path, files)
        assert diags == []

    def test_blocklist_is_configurable(self, tmp_path, monkeypatch):
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
        # The blocklist is RPR017's module constant; the run is uncached,
        # so the patched list is what the rule reads.
        monkeypatch.setattr(
            "repro.lint.rules.concurrency_rules.BLOCKING_CALLS",
            ("*.frobnicate",),
        )
        diags, _, _ = run_project(tmp_path, files)
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
# the cache and config plumbing
# ---------------------------------------------------------------------------


ALL_FIXTURES = {**RPR017_FILES, **RPR018_FILES}


class TestDeterminism:
    def test_warm_cache_reproduces_findings(self, tmp_path):
        write_tree(tmp_path, ALL_FIXTURES)
        cache_dir = tmp_path / ".cache"
        config = LintConfig(root=tmp_path, paths=["pkg"], ignore=FILE_RULES)
        cold, _, stats_cold = lint_repository(
            config, workers=0, cache_dir=cache_dir, use_cache=True
        )
        warm, _, stats_warm = lint_repository(
            config, workers=0, cache_dir=cache_dir, use_cache=True
        )
        assert sorted(codes(cold)) == ["RPR017", "RPR018"]
        assert warm == cold
        assert stats_warm.cache_hits == stats_cold.files

    def test_select_scopes_to_one_rule(self, tmp_path):
        diags, _, _ = run_project(tmp_path, ALL_FIXTURES, select=["RPR017"])
        assert sorted(codes(diags)) == ["RPR017"]


class TestBlockingMatch:
    def test_exact_name_matches_resolved_callee(self):
        event = {"callee": "time.sleep", "leaf": "sleep", "recv": "name"}
        assert match_blocking(
            event, BLOCKING_CALLS, frozenset()
        ) == "time.sleep"

    def test_leaf_pattern_skips_const_receiver(self):
        # ", ".join(...) must not match a hypothetical *.join blocklist
        # entry aimed at Thread.join.
        event = {"callee": None, "leaf": "join", "recv": "const"}
        assert match_blocking(event, BLOCKING_CALLS, frozenset()) is None

    def test_leaf_pattern_skips_project_callee(self):
        event = {"callee": "pkg.m.Q.cancel", "leaf": "cancel", "recv": "self"}
        assert match_blocking(
            event, BLOCKING_CALLS, frozenset(["pkg.m.Q.cancel"])
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
