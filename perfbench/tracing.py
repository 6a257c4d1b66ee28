"""In-memory spans recorded around calls into the program, from outside it.

A span is ``(name, start, end, parent, run_id)``.  Parents come from a
per-thread stack, so nested calls made by one thread form a tree; spans of
one measured unit share a ``run_id``.  Nothing is written while a workload
runs: spans stay in :class:`Recorder` and are summarised (or dumped) when
the benchmark ends.

Entry points are wrapped where their caller resolves the name: a module
attribute (``repro.simulation.world.synthesize_campaign``) or a class
attribute (``repro.simulation.ports.PortSelector.sample_primary``).  The
program's own files are never edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One span: name, start, end, parent index (-1 for a root), run id.
Span = Tuple[str, float, float, int, int]

#: ``measure(recorder, span, args, kwargs, result)`` runs after a call;
#: ``span`` is the index of the call's span.
Measure = Callable[["Recorder", int, tuple, dict, Any], None]

#: Dict key or attribute that carries a pool worker's spans back on its result.
SHIPPED = "_bench_spans"


class Recorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.enabled = False
        self.run_id = 0
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._names: List[str] = []
        self._parents: List[int] = []
        self._runs: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self._names)
            self._names.append(name)
            self._parents.append(parent)
            self._runs.append(self.run_id)
            self._ends.append(0.0)
            self._starts.append(time.perf_counter())
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._ends[index] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def absorb(self, spans: Sequence[Span], counts: Dict[str, float],
               parent: int = -1) -> None:
        """Append spans recorded in another process, re-indexing parents.

        The other process's roots become children of span ``parent``.
        Both processes read the same system-wide monotonic clock.
        """
        with self._lock:
            base = len(self._names)
            for name, start, end, up, run in spans:
                self._names.append(name)
                self._starts.append(start)
                self._ends.append(end)
                self._parents.append(up + base if up >= 0 else parent)
                self._runs.append(run)
            for key, value in counts.items():
                self.counts[key] += value

    def spans(self) -> List[Span]:
        with self._lock:
            return list(zip(self._names, self._starts, self._ends,
                            self._parents, self._runs))

    def reset(self) -> None:
        with self._lock:
            for column in (self._starts, self._ends, self._names,
                           self._parents, self._runs):
                column.clear()
            self.counts.clear()

    def forget_parent(self) -> None:
        """In a forked worker, drop what the fork copied from the parent:
        its spans, counters, open-span stack and lock (which a parent
        thread that does not exist here may have held)."""
        run_id = self.run_id
        self.__init__()
        self.run_id = run_id


def wrap(recorder: Recorder, fn: Callable, name: str,
         measure: Optional[Measure] = None) -> Callable:
    """``fn`` with a span named ``name`` around every call while enabled.

    A generator function gets one span per resumption, so a lazily read
    stream is charged to the layer that reads it, not to its consumer.
    """
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            try:
                while True:
                    index = recorder.begin(name) if recorder.enabled else -1
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        if index >= 0:
                            recorder.end(index)
                    yield item
            finally:
                inner.close()
        return traced_gen

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not recorder.enabled:
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if measure is not None:
            measure(recorder, index, args, kwargs, result)
        return result
    return traced


def worker_entry(recorder: Recorder, fn: Callable, name: str,
                 always: bool = False) -> Callable:
    """``fn`` as a process-pool worker's entry point, traced in the worker.

    A pool worker is a fork of the traced process: it inherits the
    recorder, and whether it was recording when the pool forked it (with
    ``always``, a long-lived pool's worker records every call and the
    parent decides whether to keep the spans).  The call gets a root span
    ``name``; the worker's spans and counters travel back on the result,
    under the key or attribute ``SHIPPED``, for :func:`take_shipped`.
    """
    @functools.wraps(fn)
    def entry(*args: Any, **kwargs: Any) -> Any:
        recording = recorder.enabled
        if not (always or recording):
            return fn(*args, **kwargs)
        recorder.forget_parent()
        recorder.enabled = True
        root = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(root)
            recorder.enabled = recording
        shipped = (recorder.spans(), dict(recorder.counts))
        if isinstance(result, dict):
            result[SHIPPED] = shipped
        else:
            setattr(result, SHIPPED, shipped)
        return result
    return entry


def take_shipped(result: Any) -> Optional[Tuple[List[Span], Dict[str, float]]]:
    """Remove and return the spans a :func:`worker_entry` put on ``result``."""
    holder = result if isinstance(result, dict) else vars(result)
    return holder.pop(SHIPPED, None)


def resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, attr_path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(recorder: Recorder,
            targets: Iterable[Tuple[str, str, Optional[Measure]]],
            worker_entries: Iterable[Tuple[str, str]]) -> Callable[[], None]:
    """Wrap every ``(span name, target, measure)`` and every pool-worker
    ``(span name, target)`` (see :func:`worker_entry`); returns the undo."""
    undo: List[Tuple[Any, str, Any]] = []
    wrappers = [(target, lambda fn, n=name, m=measure: wrap(recorder, fn, n, m))
                for name, target, measure in targets]
    wrappers += [(target, lambda fn, n=name: worker_entry(recorder, fn, n))
                 for name, target in worker_entries]
    for target, wrapper in wrappers:
        owner, attr = resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{target}: wrap the function, not the descriptor")
        setattr(owner, attr, wrapper(original))
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return restore


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may nest, overlap (other threads) or run back to back; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _run in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    return [
        (end - start) - _covered(children.get(i, ()))
        for i, (_n, start, end, _p, _r) in enumerate(spans)
    ]


def attributed_share(spans: Sequence[Span], glue: Sequence[str]) -> float:
    """Smallest share, over the runs, of a run's traced wall time that
    layer spans account for.

    A run's wall time is the summed duration of its root spans.  Time is
    unattributed when it is the self time of a ``glue`` span: a measured
    unit's root, or a span that only dispatches to other layers, such as a
    streaming engine's run loop.  Work that no span sees -- an unwrapped
    call, or a worker process whose spans were lost -- lands in the self
    time of the span around it, so a lost layer under a glue span lowers
    this share.
    """
    selfs = self_times(spans)
    wall: Dict[int, float] = defaultdict(float)
    loose: Dict[int, float] = defaultdict(float)
    for i, (name, start, end, parent, run) in enumerate(spans):
        if parent < 0:
            wall[run] += end - start
        if name in glue:
            loose[run] += selfs[i]
    return min((1.0 - loose[run] / wall[run] for run in wall if wall[run] > 0), default=0.0)


def summarise(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` and ``self_s``.

    ``busy_s`` sums only outermost spans of a name, so a name that calls
    itself is not counted twice.
    """
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent, _run) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_s"] += end - start
    return dict(out)
