"""Lock analysis over one module: locks held at blocking calls and callbacks.

The threaded serve layer hit two concurrency bugs by hand: ``JobQueue``'s
lock had to become reentrant because a settled
:class:`~concurrent.futures.Future` runs ``add_done_callback`` callbacks
synchronously, and ``cancel()`` had to release the lock around
``Future.cancel()`` (which blocks on the done callbacks).  This module
makes that bug class machine-checked, one module at a time:

* :class:`ConcurrencyExtractor` walks each function once and emits an
  event list — lock acquisitions (``with self._lock:`` scopes, with the
  locks already held at that point), calls and callback registrations
  (``add_done_callback``, ``signal.signal``).  The body of a lambda or
  nested ``def`` runs later, on an arbitrary thread, without the
  function's locks, so it adds no events; a nested ``def`` is extracted
  as a function of its own.  Lock objects themselves (``self._lock =
  threading.Lock()``, module-level ``LOCK = threading.Lock()``) are
  indexed by :func:`analyze_module`.

* :class:`ConcurrencyAnalysis` solves facts over the module's functions
  to a fixpoint, in sorted function order:

  - **entry locksets** — the locks that *may* be held on entry (union
    over call sites), with a witness caller chain;
  - **acquisition closure** — locks a call may take, transitively.

A call into another module is opaque: no lock flows into its body, and
the blocklist judges it by its name like any library call.  The RPR017
and RPR018 rules in :mod:`repro.lint.rules.concurrency_rules` evaluate
these facts.
"""

from __future__ import annotations

import ast
from typing import (
    Any,
    Container,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint._ast import (
    LEAVES,
    ModuleFunction,
    ModuleScope,
    module_bindings,
    resolve,
)

#: One extracted event (see :class:`ConcurrencyExtractor`).
Event = Dict[str, Any]

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


def lock_kind(value: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Kind ('lock'/'rlock') when ``value`` constructs a known lock."""
    if not isinstance(value, ast.Call):
        return None
    target = resolve(value.func, aliases)
    if target is None:
        return None
    return LOCK_CONSTRUCTORS.get(target)


def short_name(canon: str) -> str:
    """Human-sized spelling of a lock id or function name: the last two
    components (``JobQueue._lock``, ``JobQueue._on_done``)."""
    parts = canon.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else canon


# ---------------------------------------------------------------------------
# per-function event extraction
# ---------------------------------------------------------------------------


class ConcurrencyExtractor:
    """Single recursive walk of one function body, tracking held locks.

    :meth:`extract` returns an ordered list of event dicts.  Common
    fields: ``k`` (kind), ``node`` (the AST node: the event's position,
    and the text a finding quotes, rendered only then) and ``held``
    (locks live at the event — local ``with`` scopes only; entry locks
    are solved by :class:`ConcurrencyAnalysis`).  Per kind:

    - ``acquire``: ``lock`` (canonical id);
    - ``call``: ``callee`` (resolved dotted name or None), ``leaf``
      (attribute/bare name), ``recv`` (receiver shape: self/name/attr/
      call/const/bare/other);
    - ``register``: ``target`` (resolved callback or None), ``via``
      (add_done_callback/signal).
    """

    def __init__(self, scope: ModuleScope, fn: ModuleFunction) -> None:
        self._scope = scope
        self._module = scope.module
        self._fn = fn
        self._klass = fn.klass
        self._events: List[Event] = []
        self._held: List[str] = []

    def extract(self) -> List[Event]:
        for stmt in self._fn.node.body:
            self._visit(stmt)
        return self._events

    # -- event plumbing -----------------------------------------------------

    def _event(self, node: ast.AST, kind: str, **fields: Any) -> None:
        record: Dict[str, Any] = {
            "k": kind, "node": node, "held": list(self._held),
        }
        record.update(fields)
        self._events.append(record)

    # -- shapes -------------------------------------------------------------

    def _lock_ref(self, expr: ast.AST) -> Optional[str]:
        """Canonical lock id when ``expr`` names a lockable object.

        ``self._lock`` in class ``C`` of module ``M`` → ``M.C._lock``;
        a bare module-level name → ``M.NAME``.  The analysis filters the
        result against the module's lock definitions, so shapes that
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
        if type(node) in LEAVES or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._visit_with(node)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)

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
        func = node.func
        resolved = self._scope.resolve_call(func, self._fn)
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
                            target=target)
        elif resolved == "signal.signal" and len(node.args) >= 2:
            for target in self._callable_targets(node.args[1]) or [None]:
                self._event(node, "register", via="signal",
                            target=target)
        elif resolved is not None or leaf is not None:
            self._event(node, "call", callee=resolved, leaf=leaf, recv=recv)

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
        if isinstance(node, (ast.Name, ast.Attribute)):
            dotted = self._scope.resolve_call(node, self._fn)
            return [dotted] if dotted is not None else []
        if isinstance(node, ast.Lambda):
            targets: Set[str] = set()
            for call in ast.walk(node.body):
                if isinstance(call, ast.Call):
                    dotted = self._scope.resolve_call(call.func, self._fn)
                    if dotted is not None:
                        targets.add(dotted)
            return sorted(targets)
        if isinstance(node, ast.Call):
            dotted = resolve(node.func, self._fn.aliases)
            if dotted in ("functools.partial",) and node.args:
                return self._callable_targets(node.args[0])
        return []


# ---------------------------------------------------------------------------
# the solver (one module)
# ---------------------------------------------------------------------------


class ConcurrencyAnalysis:
    """Fixpoint facts over the events of one module's functions.

    All iteration orders are sorted, so two runs over the same module
    produce identical facts and, downstream, byte-identical diagnostics.
    """

    def __init__(
        self,
        functions: Dict[str, List[Event]],
        locks: Dict[str, str],
    ) -> None:
        self.functions = functions  #: fqname -> events
        self.locks = locks  #: canonical lock id -> 'lock' or 'rlock'
        #: callee -> [(caller fq, call event)]
        self._callers: Dict[str, List[Tuple[str, Event]]] = {}
        self.entry_may: Dict[str, Set[str]] = {}
        self._witness: Dict[Tuple[str, str], str] = {}
        self._acquires: Dict[str, Set[str]] = {}

    def solve(self) -> None:
        self._build_edges()
        self._solve_entry_may()
        self._solve_acquires()

    def held_locks(self, event: Event) -> Set[str]:
        """Locally-held known locks at an event."""
        return {lock for lock in event.get("held", []) if lock in self.locks}

    def _build_edges(self) -> None:
        for name in sorted(self.functions):
            for event in self.functions[name]:
                if event["k"] != "call":
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
            self._acquires[name] = {
                event["lock"]
                for event in self.functions[name]
                if event["k"] == "acquire" and event["lock"] in self.locks
            }
        changed = True
        while changed:
            changed = False
            for name in sorted(self.functions):
                mine = self._acquires[name]
                for event in self.functions[name]:
                    if event["k"] != "call":
                        continue
                    callee = event.get("callee")
                    if callee is None or callee not in self._acquires:
                        continue
                    fresh = self._acquires[callee] - mine
                    if fresh:
                        mine |= fresh
                        changed = True

    # -- queries ------------------------------------------------------------

    def iter_events(self) -> Iterator[Tuple[str, Event]]:
        """``(function fqname, event)`` in sorted function order."""
        for name in sorted(self.functions):
            for event in self.functions[name]:
                yield name, event

    def held_may(self, fqname: str, event: Event) -> Set[str]:
        """Locks possibly held at an event (entry ∪ local scopes)."""
        return self.entry_may.get(fqname, set()) | self.held_locks(event)

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


def analyze_module(scope: ModuleScope, tree: ast.Module) -> ConcurrencyAnalysis:
    """Index the module's locks, extract every function and solve."""
    locks: Dict[str, str] = {}

    def define(canon: str, value: ast.AST, aliases: Dict[str, str]) -> None:
        kind = lock_kind(value, aliases)
        if kind is not None:
            locks.setdefault(canon, kind)

    for _, name, value in module_bindings(tree):
        define(f"{scope.module}.{name}", value, scope.aliases)
    functions: Dict[str, List[Event]] = {}
    for fn in scope.functions:
        klass = fn.klass
        if klass is not None:
            for _, inner in fn.stores:
                if not isinstance(inner, ast.Assign):
                    continue
                for target in inner.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        define(f"{scope.module}.{klass}.{target.attr}",
                               inner.value, fn.aliases)
        functions[fn.fqname] = ConcurrencyExtractor(scope, fn).extract()
    analysis = ConcurrencyAnalysis(functions, locks)
    analysis.solve()
    return analysis


def match_blocking(
    event: Event,
    blocking: Sequence[str],
    module_functions: Container[str],
) -> Optional[str]:
    """First blocklist pattern matching a call event, else None.

    ``*.leaf`` patterns never match calls resolved to a function of the
    same module — the entry-lockset propagation already analyses those
    bodies directly, and a method named ``cancel`` is not
    ``Future.cancel``.
    """
    callee = event.get("callee")
    leaf = event.get("leaf")
    recv = event.get("recv")
    for pattern in blocking:
        if pattern.startswith("*."):
            if (
                leaf == pattern[2:]
                and recv not in ("const", "bare")
                and (callee is None or callee not in module_functions)
            ):
                return pattern
        elif callee == pattern or (recv == "bare" and leaf == pattern):
            return pattern
    return None
