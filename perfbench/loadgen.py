"""Open-loop request generator and its accounting.

Requests are scheduled ahead of time (seeded Poisson arrivals) and each is
due at a fixed offset from the start, whether or not earlier requests have
finished: a slow server gets the same load, and its queue can grow.  The
generator uses one thread per lane and at most one connection per lane;
requests of a lane are sent in due order, so a stalled request delays the
ones queued behind it, and because latency is timed from each request's
due time, that delay is charged to them too.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import percentile


@dataclass
class Request:
    due: float                  # seconds after the generator starts
    method: str
    path: str
    kind: str                   # "read" or "write"
    body: Optional[bytes] = None
    expect: int = 200
    key: Optional[Tuple[str, ...]] = None  # identifies the expected body


@dataclass
class Outcome:
    request: Request
    sent: float                 # seconds after start
    done: float
    status: int                 # 0 when refused or timed out
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.request.due

    @property
    def lateness(self) -> float:
        return self.sent - self.request.due

    @property
    def ok(self) -> bool:
        return not self.error and self.status == self.request.expect


Send = Callable[[Request], Tuple[int, bytes]]


def run_open_loop(lanes: Sequence[Sequence[Request]], send: Send,
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep) -> List[Outcome]:
    """Send every lane's requests on schedule; one thread per lane."""
    results: List[List[Outcome]] = [[] for _ in lanes]
    start = clock()

    def drive(index: int) -> None:
        for request in lanes[index]:
            wait = start + request.due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock() - start
            try:
                status, body = send(request)
                error = ""
            except OSError as exc:  # refused, reset or timed out
                status, body, error = 0, b"", f"{type(exc).__name__}: {exc}"
            results[index].append(Outcome(request, sent, clock() - start, status, body, error))

    threads = [threading.Thread(target=drive, args=(i,), daemon=True)
               for i in range(len(lanes))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted((o for lane in results for o in lane), key=lambda o: o.request.due)


@dataclass
class StepStats:
    """Accounting of one offered-rate step."""

    rate: float
    requests: int
    failed: int
    read_p50_ms: float
    read_p99_ms: float
    write_p50_ms: float
    write_p99_ms: float
    reads: int
    writes: int
    lateness_p50_ms: float
    lateness_max_ms: float
    backlog_start: int
    backlog_end: int
    extra: Dict[str, Any] = field(default_factory=dict)


def _latencies_ms(outcomes: Sequence[Outcome]) -> List[float]:
    # A failed request misses any latency limit.
    return [o.latency * 1000.0 if o.ok else float("inf") for o in outcomes]


def _backlog(outcomes: Sequence[Outcome], at: float) -> int:
    """Requests due by ``at`` and not yet finished at ``at``."""
    return sum(1 for o in outcomes if o.request.due <= at < o.done)


def account(outcomes: Sequence[Outcome], rate: float, begin: float, end: float) -> StepStats:
    """Latency from due time, failures, lateness and backlog of one step."""
    step = [o for o in outcomes if begin <= o.request.due < end]
    reads = [o for o in step if o.request.kind == "read"]
    writes = [o for o in step if o.request.kind == "write"]
    read_ms, write_ms = _latencies_ms(reads), _latencies_ms(writes)
    late_ms = [o.lateness * 1000.0 for o in step] or [0.0]
    nan = float("nan")
    return StepStats(
        rate=rate,
        requests=len(step),
        failed=sum(1 for o in step if not o.ok),
        read_p50_ms=percentile(read_ms, 50) if read_ms else nan,
        read_p99_ms=percentile(read_ms, 99) if read_ms else nan,
        write_p50_ms=percentile(write_ms, 50) if write_ms else nan,
        write_p99_ms=percentile(write_ms, 99) if write_ms else nan,
        reads=len(reads),
        writes=len(writes),
        lateness_p50_ms=percentile(late_ms, 50),
        lateness_max_ms=max(late_ms),
        backlog_start=_backlog(outcomes, begin),
        backlog_end=_backlog(outcomes, end),
    )


def meets(step: StepStats, p99_limit_ms: float, lanes: int) -> bool:
    """The step held: nothing failed, read p99 within the limit, and no
    more requests outstanding at its end than there are connections."""
    return (step.failed == 0 and step.read_p99_ms <= p99_limit_ms
            and step.backlog_end <= lanes)


def poisson_times(rng: random.Random, rate: float, begin: float, end: float) -> List[float]:
    """Seeded Poisson arrival times in ``[begin, end)``."""
    times, t = [], begin
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return times
        times.append(t)
