"""Concurrency pass (pass 4): locks held at blocking calls and callbacks.

The threaded serve layer hit two concurrency bugs by hand: ``JobQueue``'s
lock had to become reentrant because a settled
:class:`~concurrent.futures.Future` runs ``add_done_callback`` callbacks
synchronously, and ``cancel()`` had to release the lock around
``Future.cancel()`` (which blocks on the done callbacks).  This module
makes that bug class machine-checked on top of the summary architecture:

* :class:`ConcurrencyExtractor` runs once per function during pass 1 and
  emits a JSON-serialisable event list — lock acquisitions (``with
  self._lock:`` scopes, with the locks already held at that point),
  project calls (flagged *deferred* when they sit inside a lambda or
  nested ``def``, i.e. run later on an arbitrary thread) and callback
  registrations (``add_done_callback``, ``signal.signal``).  Lock objects
  themselves (``self._lock = threading.Lock()``, module-level ``LOCK =
  threading.Lock()``) are indexed on the
  :class:`~repro.lint.project.ModuleSummary`.  Everything is cached with
  the summary, so warm runs never re-parse.

* :class:`ConcurrencyAnalysis` stitches the summaries into whole-program
  facts, solved to a fixpoint in sorted function order so diagnostics are
  byte-identical at any ``--workers``:

  - **entry locksets** — the locks that *may* be held on entry (union
    over non-deferred call sites), with a witness caller chain;
  - **acquisition closure** — locks a call may take, transitively.

The RPR017 and RPR018 rules in :mod:`repro.lint.rules.concurrency_rules`
evaluate these facts.  The vocabulary below (lock constructors, blocking
defaults) is fingerprinted into the summary-cache salt: editing it
invalidates every cached summary.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Container,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint._ast import resolve

#: Bump on any change to the extraction or solving semantics.
CONCURRENCY_VERSION = 2

#: Canonical constructors whose result is a lock, with its kind.
#: ``Condition``/``Semaphore`` are treated as non-reentrant: re-acquiring
#: them on the same thread blocks, which is what RPR018 cares about.
LOCK_CONSTRUCTORS: Dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
}

#: Default RPR017 blocklist (overridable via ``[tool.repro-lint]
#: blocking-calls``).  ``*.leaf`` matches any attribute call with that
#: leaf name on a non-literal receiver; a plain dotted name matches the
#: resolved callee exactly; a bare name matches a builtin call.
DEFAULT_BLOCKING_CALLS: Tuple[str, ...] = (
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
)

_TEXT_CAP = 80


def concurrency_fingerprint() -> str:
    """Content fingerprint of the concurrency vocabulary (part of the
    cache salt — editing the lock or blocking tables re-analyses every
    file)."""
    material = {
        "version": CONCURRENCY_VERSION,
        "locks": LOCK_CONSTRUCTORS,
        "blocking": list(DEFAULT_BLOCKING_CALLS),
    }
    digest = hashlib.blake2b(digest_size=8)
    digest.update(json.dumps(material, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def lock_kind(value: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Kind ('lock'/'rlock') when ``value`` constructs a known lock."""
    if not isinstance(value, ast.Call):
        return None
    target = resolve(value.func, aliases)
    if target is None:
        return None
    return LOCK_CONSTRUCTORS.get(target)


def short_lock(canon: str) -> str:
    """Human-sized spelling of a canonical lock id: last two components."""
    parts = canon.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else canon


def _text(node: ast.AST) -> str:
    try:
        rendered = ast.unparse(node)
    except Exception:  # pragma: no cover - malformed expression
        return "<expr>"
    return rendered if len(rendered) <= _TEXT_CAP else rendered[:_TEXT_CAP - 1] + "…"


# ---------------------------------------------------------------------------
# pass 1: per-function event extraction
# ---------------------------------------------------------------------------


@dataclass
class FunctionConcurrency:
    """Serialisable concurrency record of one function.

    ``events`` is an ordered list of dicts.  Common fields: ``k`` (kind),
    ``lineno``/``col``, ``held`` (locks live at the event — local
    ``with`` scopes only; entry locks are solved in pass 2) and
    ``deferred`` (the event sits inside a lambda/nested ``def`` and runs
    later, on an arbitrary thread, with no caller locks).  Per kind:

    - ``acquire``: ``lock`` (canonical id);
    - ``call``: ``callee`` (resolved dotted name or None), ``leaf``
      (attribute/bare name), ``recv`` (receiver shape: self/name/attr/
      call/const/bare/other), ``text``;
    - ``register``: ``target`` (resolved callback or None), ``via``
      (add_done_callback/signal), ``text``.
    """

    events: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"events": self.events}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FunctionConcurrency":
        return cls(events=[dict(e) for e in data.get("events", [])])


class ConcurrencyExtractor:
    """Single recursive walk of one function body, tracking held locks."""

    def __init__(
        self,
        module: str,
        klass: Optional[str],
        aliases: Dict[str, str],
        toplevel_defs: Container[str],
        resolver: Callable[[ast.Call], Optional[str]],
    ) -> None:
        self._module = module
        self._klass = klass
        self._aliases = aliases
        self._toplevel = toplevel_defs
        self._resolver = resolver
        self._events: List[Dict[str, Any]] = []
        self._held: List[str] = []
        self._deferred = 0

    def extract(self, func: ast.AST) -> FunctionConcurrency:
        body = getattr(func, "body", [])
        for stmt in body:
            self._visit(stmt)
        return FunctionConcurrency(events=self._events)

    # -- event plumbing -----------------------------------------------------

    def _event(self, node: ast.AST, kind: str, **fields: Any) -> None:
        record: Dict[str, Any] = {
            "k": kind,
            "lineno": getattr(node, "lineno", 1),
            "col": getattr(node, "col_offset", 0),
            "held": list(self._held),
            "deferred": bool(self._deferred),
        }
        record.update(fields)
        self._events.append(record)

    # -- shapes -------------------------------------------------------------

    def _self_attr(self, node: ast.AST) -> Optional[str]:
        """Attribute name when ``node`` is ``self.X``."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _lock_ref(self, expr: ast.AST) -> Optional[str]:
        """Canonical lock id when ``expr`` names a lockable object.

        ``self._lock`` in class ``C`` of module ``M`` → ``M.C._lock``;
        a bare module-level name → ``M.NAME``.  Pass 2 filters the
        result against the global lock-definition table, so shapes that
        merely look lock-like resolve to nothing downstream.
        """
        if isinstance(expr, ast.Name):
            return f"{self._module}.{expr.id}"
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in ("self", "cls")
            and self._klass is not None
        ):
            return f"{self._module}.{self._klass}.{expr.attr}"
        return None

    # -- the walk -----------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_deferred(node.body)
            return
        if isinstance(node, ast.Lambda):
            self._visit_deferred([node.body])
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._visit_with(node)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_deferred(self, body: Sequence[ast.AST]) -> None:
        """Lambda/nested-def bodies run later: no caller locks are held,
        and their calls must not contribute to entry-lockset meets."""
        saved = self._held
        self._held = []
        self._deferred += 1
        for child in body:
            self._visit(child)
        self._deferred -= 1
        self._held = saved

    def _visit_with(self, node: ast.AST) -> None:
        items = getattr(node, "items", [])
        pushed = 0
        for item in items:
            ref = self._lock_ref(item.context_expr)
            if ref is not None:
                self._event(item.context_expr, "acquire", lock=ref)
                self._held.append(ref)
                pushed += 1
            else:
                self._visit(item.context_expr)
            if item.optional_vars is not None:
                self._visit(item.optional_vars)
        for stmt in getattr(node, "body", []):
            self._visit(stmt)
        if pushed:
            del self._held[-pushed:]

    def _visit_call(self, node: ast.Call) -> None:
        resolved = self._resolver(node)
        func = node.func
        leaf: Optional[str] = None
        recv: Optional[str] = None
        if isinstance(func, ast.Attribute):
            leaf = func.attr
            base = func.value
            if isinstance(base, ast.Name):
                recv = "self" if base.id == "self" else "name"
            elif isinstance(base, ast.Constant):
                recv = "const"
            elif isinstance(base, ast.Attribute):
                recv = "attr"
            elif isinstance(base, ast.Call):
                recv = "call"
            else:
                recv = "other"
        elif isinstance(func, ast.Name):
            leaf = func.id
            recv = "bare"

        if leaf == "add_done_callback" and recv is not None and node.args:
            for target in self._callable_targets(node.args[0]) or [None]:
                self._event(node, "register", via="add_done_callback",
                            target=target, text=_text(node))
        elif resolved == "signal.signal" and len(node.args) >= 2:
            for target in self._callable_targets(node.args[1]) or [None]:
                self._event(node, "register", via="signal",
                            target=target, text=_text(node))
        elif resolved is not None or leaf is not None:
            self._event(node, "call", callee=resolved, leaf=leaf, recv=recv,
                        text=_text(node))

        # Recurse into the receiver (calls nested in it run first).
        if isinstance(func, ast.Attribute):
            base = func.value
            if not isinstance(base, ast.Name):
                self._visit(base)
        elif not isinstance(func, ast.Name):
            self._visit(func)
        for arg in node.args:
            self._visit(arg)
        for kw in node.keywords:
            self._visit(kw.value)

    def _callable_targets(self, node: ast.AST) -> List[str]:
        """Resolved callables a callback argument may invoke."""
        if isinstance(node, ast.Name):
            if node.id in self._toplevel:
                return [f"{self._module}.{node.id}"]
            dotted = self._aliases.get(node.id)
            return [dotted] if dotted is not None else []
        if isinstance(node, ast.Attribute):
            attr = self._self_attr(node)
            if attr is not None and self._klass is not None:
                return [f"{self._module}.{self._klass}.{attr}"]
            dotted = resolve(node, self._aliases)
            return [dotted] if dotted is not None else []
        if isinstance(node, ast.Lambda):
            targets: Set[str] = set()
            for call in ast.walk(node.body):
                if isinstance(call, ast.Call):
                    dotted = self._resolver(call)
                    if dotted is not None:
                        targets.add(dotted)
            return sorted(targets)
        if isinstance(node, ast.Call):
            dotted = resolve(node.func, self._aliases)
            if dotted in ("functools.partial",) and node.args:
                return self._callable_targets(node.args[0])
        return []


# ---------------------------------------------------------------------------
# pass 2: the whole-program solver
# ---------------------------------------------------------------------------


@dataclass
class LockInfo:
    """One lock definition site."""

    canon: str  #: canonical id: module[.Class].attr
    kind: str  #: 'lock' (non-reentrant) or 'rlock'
    rel_path: str
    lineno: int


@dataclass
class ConcurrencyFunction:
    """Solver-side view of one summarised function."""

    fqname: str
    rel_path: str
    events: List[Dict[str, Any]]


class ConcurrencyAnalysis:
    """Fixpoint facts over every function's concurrency events.

    All iteration orders are sorted, so two runs over the same summaries —
    at any worker count — produce identical facts and, downstream,
    byte-identical diagnostics.
    """

    def __init__(
        self,
        functions: Dict[str, ConcurrencyFunction],
        locks: Dict[str, LockInfo],
    ) -> None:
        self.functions = functions
        self.locks = locks
        #: callee -> [(caller fq, call event)] over non-deferred edges
        self._callers: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
        self.entry_may: Dict[str, Set[str]] = {}
        self._witness: Dict[Tuple[str, str], str] = {}
        self._acquires: Dict[str, Set[str]] = {}
        self._solved = False

    # -- solving ------------------------------------------------------------

    def solve(self) -> None:
        if self._solved:
            return
        self._solved = True
        self._build_edges()
        self._solve_entry_may()
        self._solve_acquires()

    def held_locks(self, event: Dict[str, Any]) -> Set[str]:
        """Locally-held known locks at an event."""
        return {lock for lock in event.get("held", []) if lock in self.locks}

    def _build_edges(self) -> None:
        for name in sorted(self.functions):
            fn = self.functions[name]
            for event in fn.events:
                if event["k"] != "call" or event["deferred"]:
                    continue
                callee = event.get("callee")
                if callee is None or callee not in self.functions:
                    continue
                self._callers.setdefault(callee, []).append((name, event))

    def _solve_entry_may(self) -> None:
        """Union fixpoint: locks held on *some* path into a function,
        with a witness caller per (function, lock) for chain messages."""
        self.entry_may = {name: set() for name in self.functions}
        changed = True
        while changed:
            changed = False
            for name in sorted(self.functions):
                for caller, event in self._callers.get(name, []):
                    contrib = self.entry_may[caller] | self.held_locks(event)
                    fresh = contrib - self.entry_may[name]
                    if fresh:
                        self.entry_may[name] |= fresh
                        changed = True
                        for lock in sorted(fresh):
                            self._witness.setdefault((name, lock), caller)

    def _solve_acquires(self) -> None:
        """Union fixpoint: locks a call to each function may acquire,
        directly or transitively (synchronous callees only)."""
        self._acquires = {}
        for name in sorted(self.functions):
            fn = self.functions[name]
            self._acquires[name] = {
                event["lock"]
                for event in fn.events
                if event["k"] == "acquire"
                and not event["deferred"]
                and event["lock"] in self.locks
            }
        changed = True
        while changed:
            changed = False
            for name in sorted(self.functions):
                fn = self.functions[name]
                mine = self._acquires[name]
                for event in fn.events:
                    if event["k"] != "call" or event["deferred"]:
                        continue
                    callee = event.get("callee")
                    if callee is None or callee not in self._acquires:
                        continue
                    fresh = self._acquires[callee] - mine
                    if fresh:
                        mine |= fresh
                        changed = True

    # -- queries ------------------------------------------------------------

    def iter_functions(self) -> Iterator[ConcurrencyFunction]:
        for name in sorted(self.functions):
            yield self.functions[name]

    def kind(self, lock: str) -> str:
        return self.locks[lock].kind

    def held_may(self, fn: ConcurrencyFunction,
                 event: Dict[str, Any]) -> Set[str]:
        """Locks possibly held at an event (entry ∪ local scopes)."""
        if event["deferred"]:
            return set()
        return self.entry_may.get(fn.fqname, set()) | self.held_locks(event)

    def acquires(self, fqname: str) -> Set[str]:
        return self._acquires.get(fqname, set())

    def entry_chain(self, fqname: str, lock: str) -> List[str]:
        """Witness caller chain by which ``lock`` may be held on entry."""
        chain: List[str] = [fqname]
        seen = {fqname}
        node = fqname
        while True:
            caller = self._witness.get((node, lock))
            if caller is None or caller in seen:
                return chain
            chain.append(caller)
            seen.add(caller)
            node = caller


def match_blocking(
    event: Dict[str, Any],
    blocking: Sequence[str],
    project_functions: Container[str],
) -> Optional[str]:
    """First blocklist pattern matching a call event, else None.

    ``*.leaf`` patterns never match calls resolved to project functions —
    the may-entry propagation already analyses those bodies directly, and
    a project method named ``cancel`` is not ``Future.cancel``.
    """
    callee = event.get("callee")
    leaf = event.get("leaf")
    recv = event.get("recv")
    for pattern in blocking:
        if pattern.startswith("*."):
            if (
                leaf == pattern[2:]
                and recv not in ("const", "bare")
                and (callee is None or callee not in project_functions)
            ):
                return pattern
        elif callee == pattern or (recv == "bare" and leaf == pattern):
            return pattern
    return None
