"""RPR017 and RPR018: blocking calls and callbacks under a held lock
(each documented on its rule class).

Both rules consume the module's solved
:class:`~repro.lint.concurrency.ConcurrencyAnalysis` — may-held entry
locksets with witness caller chains, and the transitive acquisition
closure — and audit the recorded call and registration events.  The
analysis is solved once per file and shared by the two rules.

Suppressions must state the protecting invariant, e.g.::

    future.result()  # repro-lint: disable=RPR017 — future is settled here

Both respect inline suppressions, ``--select`` / ``--ignore`` and
path-scoped rule sets like every other rule.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.lint._ast import snippet
from repro.lint.concurrency import (
    ConcurrencyAnalysis,
    analyze_module,
    match_blocking,
    short_name,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import REGISTRY, FileContext, Rule

#: RPR017's blocklist.  ``*.leaf`` matches any attribute call with that
#: leaf name on a non-literal receiver; a plain dotted name matches the
#: resolved callee exactly; a bare name matches a builtin call.
BLOCKING_CALLS: Tuple[str, ...] = (
    "*.result",
    "*.cancel",
    "*.shutdown",
    "*.join",
    "*.wait",
    "*.acquire",
    "*.read_text",
    "*.write_text",
    "*.read_bytes",
    "*.write_bytes",
    "*.recv",
    "*.sendall",
    "*.connect",
    "*.accept",
    "time.sleep",
    "subprocess.run",
    "subprocess.check_call",
    "subprocess.check_output",
    "open",
    "repro._files.atomic_replace",
)


def _module_analysis(ctx: FileContext) -> ConcurrencyAnalysis:
    return analyze_module(ctx.scope, ctx.tree)


class _ConcurrencyRule(Rule):
    """Common driver: solve the module's lock facts once per file (shared
    through :meth:`FileContext.derived`) and visit them in sorted function
    order."""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        yield from self.check_concurrency(ctx, ctx.derived(_module_analysis))

    def check_concurrency(
        self, ctx: FileContext, analysis: ConcurrencyAnalysis
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError


@REGISTRY.register
class BlockingCallUnderLockRule(_ConcurrencyRule):
    """No blocking call while a lock may be held.

    A call matching the blocklist is reached, directly or through the
    module's own calls, while a lock may be held; every other thread then
    stalls behind the blocked holder.  This is the ``JobQueue.cancel()``
    bug class, where ``Future.cancel()`` blocked on done callbacks with
    the queue lock held.  The blocklist: ``*.result``, ``*.cancel``,
    ``*.shutdown``, ``*.join``, ``*.wait``, ``*.acquire``, file I/O
    (``*.read_text`` ..., ``open``), socket verbs (``*.recv``,
    ``*.sendall``, ``*.connect``, ``*.accept``), ``time.sleep`` and
    ``subprocess.run``/checks.  ``*.leaf`` patterns never match calls
    resolved to a function of the same module (a method named ``cancel``
    is not ``Future.cancel``) nor calls on string/bytes literals
    (``", ".join(...)``).  Each module is checked on its own: a lock held
    at a call into another project module does not flow into that
    function's body, and the blocklist judges such a call by its name like
    any library call.  Suppress only with the invariant that makes the
    call non-blocking (e.g. the future has settled).
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
        self, ctx: FileContext, analysis: ConcurrencyAnalysis
    ) -> Iterator[Diagnostic]:
        for fqname, event in analysis.iter_events():
            if event["k"] != "call":
                continue
            held = analysis.held_may(fqname, event)
            if not held:
                continue
            pattern = match_blocking(event, BLOCKING_CALLS, analysis.functions)
            if pattern is None:
                continue
            local = analysis.held_locks(event)
            parts = []
            for lock in sorted(held):
                if lock in local:
                    parts.append(f"{short_name(lock)} (held here)")
                else:
                    chain = analysis.entry_chain(fqname, lock)
                    parts.append(
                        f"{short_name(lock)} (held on entry via "
                        + " <- ".join(short_name(f) for f in chain)
                        + ")"
                    )
            node = event["node"]
            yield self.diag_at(
                ctx.rel_path, node.lineno, node.col_offset,
                f"'{snippet(node, 80, '…')}' matches blocking-call pattern "
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
        self, ctx: FileContext, analysis: ConcurrencyAnalysis
    ) -> Iterator[Diagnostic]:
        for fqname, event in analysis.iter_events():
            if event["k"] != "register":
                continue
            held = analysis.held_may(fqname, event)
            if not held:
                continue
            target = event.get("target")
            if target is None or target not in analysis.functions:
                continue
            for lock in sorted(analysis.acquires(target) & held):
                if analysis.locks[lock] != "lock":
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
                node = event["node"]
                yield self.diag_at(
                    ctx.rel_path, node.lineno, node.col_offset,
                    f"callback '{short_name(target)}' re-acquires "
                    f"non-reentrant lock {short_name(lock)}, which may "
                    f"already be held at this registration site; "
                    f"{how}, so the callback deadlocks against its "
                    f"caller — make the lock an RLock or register "
                    f"outside the lock",
                )
