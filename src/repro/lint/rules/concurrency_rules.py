"""RPR017 and RPR018: blocking calls and callbacks under a held lock
(pass 4; each documented on its rule class).

Both rules consume the solved whole-program
:class:`~repro.lint.concurrency.ConcurrencyAnalysis` — may-held entry
locksets with witness caller chains, and the transitive acquisition
closure — and audit the recorded call and registration events.

Suppressions must state the protecting invariant, e.g.::

    future.result()  # repro-lint: disable=RPR017 — future is settled here

Both respect inline suppressions, the baseline, ``--select`` /
``--ignore`` and path-scoped rule sets like every other rule, and solve
in sorted order so diagnostics are byte-identical at any ``--workers``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.lint.concurrency import (
    ConcurrencyAnalysis,
    match_blocking,
    short_lock,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import REGISTRY, ProjectRule
from repro.lint.project import ProjectContext


def _short_fn(fqname: str) -> str:
    parts = fqname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else fqname


class _ConcurrencyRule(ProjectRule):
    """Common driver: solve the concurrency facts once (memoised on the
    project context) and visit them in sorted function order."""

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        analysis = project.concurrency_analysis()
        yield from self.check_concurrency(project, analysis)

    def check_concurrency(
        self, project: ProjectContext, analysis: ConcurrencyAnalysis
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError


@REGISTRY.register
class BlockingCallUnderLockRule(_ConcurrencyRule):
    """No blocking call while a lock may be held.

    A call matching the configurable ``blocking-calls`` blocklist is
    reached, directly or through the call graph, while a lock may be
    held; every other thread then stalls behind the blocked holder.  This
    is the ``JobQueue.cancel()`` bug class, where ``Future.cancel()``
    blocked on done callbacks with the queue lock held.  The default
    blocklist: ``*.result``, ``*.cancel``, ``*.shutdown``, ``*.join``,
    ``*.wait``, ``*.acquire``, file I/O (``*.read_text`` ..., ``open``),
    socket verbs (``*.recv``, ``*.sendall``, ``*.connect``,
    ``*.accept``), ``time.sleep`` and ``subprocess.run``/checks; override
    it with ``blocking-calls = [...]`` in ``[tool.repro-lint]``.
    ``*.leaf`` patterns never match calls resolved to project functions
    (a project method named ``cancel`` is not ``Future.cancel``) nor
    calls on string/bytes literals (``", ".join(...)``).  Suppress only
    with the invariant that makes the call non-blocking (e.g. the future
    has settled).
    """

    code = "RPR017"
    name = "blocking-call-under-lock"
    description = (
        "a call from the blocking-calls blocklist (Future.result/cancel, "
        "Executor.shutdown, I/O, time.sleep) runs while a lock may be held"
    )
    example = """
        def cancel(self, fut):
            with self._lock:
                fut.cancel()           # RPR017: may run callbacks
    """

    def check_concurrency(
        self, project: ProjectContext, analysis: ConcurrencyAnalysis
    ) -> Iterator[Diagnostic]:
        blocking: Sequence[str] = list(project.config.blocking_calls)
        for fn in analysis.iter_functions():
            for event in fn.events:
                if event["k"] != "call":
                    continue
                held = analysis.held_may(fn, event)
                if not held:
                    continue
                pattern = match_blocking(event, blocking, analysis.functions)
                if pattern is None:
                    continue
                local = analysis.held_locks(event)
                parts = []
                for lock in sorted(held):
                    if lock in local:
                        parts.append(f"{short_lock(lock)} (held here)")
                    else:
                        chain = analysis.entry_chain(fn.fqname, lock)
                        parts.append(
                            f"{short_lock(lock)} (held on entry via "
                            + " <- ".join(_short_fn(f) for f in chain)
                            + ")"
                        )
                yield self.project_diag(
                    fn.rel_path, event["lineno"], event["col"],
                    f"'{event['text']}' matches blocking-call pattern "
                    f"'{pattern}' while {'; '.join(parts)}; every other "
                    f"thread stalls behind this call — release the lock "
                    f"around it, or suppress stating the invariant that "
                    f"makes it non-blocking",
                )


@REGISTRY.register
class CallbackReentrancyRule(_ConcurrencyRule):
    """No callback re-acquires a non-reentrant lock held where it is
    registered.

    A callable registered via ``add_done_callback`` or ``signal.signal``
    re-acquires a non-reentrant ``threading.Lock`` that may already be
    held at the registration site.  A settled ``Future`` runs its
    callbacks synchronously on the registering thread, so the callback
    deadlocks against its own caller: the bug that forced ``JobQueue``'s
    lock to become an ``RLock``.  Fix by making the lock reentrant or
    registering outside the lock.
    """

    code = "RPR018"
    name = "callback-reentrancy"
    description = (
        "a callback registered while a non-reentrant lock may be held "
        "re-acquires that lock (settled futures fire synchronously)"
    )
    example = """
        def start(self):
            with self._lock:           # plain Lock
                fut = pool.submit(work)
                fut.add_done_callback(self._on_done)  # RPR018
        def _on_done(self, fut):
            with self._lock: ...
    """

    def check_concurrency(
        self, project: ProjectContext, analysis: ConcurrencyAnalysis
    ) -> Iterator[Diagnostic]:
        for fn in analysis.iter_functions():
            for event in fn.events:
                if event["k"] != "register":
                    continue
                held = analysis.held_may(fn, event)
                if not held:
                    continue
                target = event.get("target")
                if target is None or target not in analysis.functions:
                    continue
                for lock in sorted(analysis.acquires(target) & held):
                    if analysis.kind(lock) != "lock":
                        continue
                    if event["via"] == "signal":
                        how = (
                            "a signal handler can preempt the holder on "
                            "the same thread"
                        )
                    else:
                        how = (
                            "a settled Future runs done callbacks "
                            "synchronously on the registering thread"
                        )
                    yield self.project_diag(
                        fn.rel_path, event["lineno"], event["col"],
                        f"callback '{_short_fn(target)}' re-acquires "
                        f"non-reentrant lock {short_lock(lock)}, which may "
                        f"already be held at this registration site; "
                        f"{how}, so the callback deadlocks against its "
                        f"caller — make the lock an RLock or register "
                        f"outside the lock",
                    )
