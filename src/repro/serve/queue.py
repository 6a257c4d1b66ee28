"""Broker-free job queue over the exec/stream layers.

:class:`JobQueue` turns the one-shot pipeline into a long-running service
backend without any external broker: jobs run on a
:class:`~concurrent.futures.ProcessPoolExecutor`, and the queue's *identity*
for a job reuses the content-addressed key material of the
:class:`~repro.exec.cache.CaptureCache` — a job key digests the capture
content key plus the request kind.  The consequences fall out for free:

* **Coalescing** — a thousand identical submissions map to one key, so they
  share one :class:`JobRecord` and at most one running computation; every
  later submission is a dedup hit served from the record.
* **Result caching** — a completed record *is* the cached result; the
  capture itself additionally lands in the ``CaptureCache``, so even a
  record-less resubmission (new state directory) re-runs against warm
  captures and checkpoints.
* **Restart re-attach** — records persist as JSON under the state
  directory.  A restarted queue reloads them, requeues anything that was
  queued or running, and the streaming workers resume from their
  content-addressed checkpoints instead of recomputing
  (:mod:`repro.stream.checkpoint`).

Worker death (OOM kill, segfault) surfaces as
:class:`~concurrent.futures.BrokenExecutor` on every in-flight future; the
queue retires the broken pool, spins up a fresh one, and retries each
affected job up to ``max_retries`` times before marking it failed.

Thread safety: every public method may be called from any number of HTTP
handler threads; all queue state is guarded by one lock, and job state
transitions happen either under it or in future callbacks that take it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro import __version__
from repro._files import atomic_replace
from repro.exec.cache import CaptureCache, content_key
from repro.exec.parallel import _die_with_parent
from repro.serve.jobs import JobSpec, execute_job
from repro.simulation import TelescopeWorld

#: Bump to invalidate every persisted job record and job key.
SERVE_SCHEMA_VERSION = 2

PathLike = Union[str, Path]


class JobState(Enum):
    """Stored lifecycle states (``running`` is derived, see below)."""

    QUEUED = "queued"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclasses.dataclass
class JobRecord:
    """One job's full lifecycle, shared by every submitter of its key."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Executions started (1 on the first run; retries increment it).
    attempts: int = 0
    #: Monotonic submission order within this queue instance.
    submitted_seq: int = 0
    future: Optional[Future[Dict[str, Any]]] = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: Pool generation the current future was submitted into (retry logic).
    generation: int = dataclasses.field(default=0, repr=False, compare=False)
    #: Set, under the queue's lock, by the transition that finishes the
    #: record; cleared when a resubmission revives it.
    settled: threading.Event = dataclasses.field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def status(self) -> str:
        """Public status: ``queued`` refines to ``running`` once a worker
        has picked the job up (the stored state flips only on completion,
        so a crash mid-run persists as ``queued`` and requeues on restart).
        """
        if (
            self.state is JobState.QUEUED
            and self.future is not None
            and self.future.running()
        ):
            return "running"
        return self.state.value

    def finished(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)

    def to_dict(self, with_result: bool = True) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
        }
        if with_result:
            doc["result"] = self.result
        return doc


class JobQueue:
    """Deduplicating, persistent, retrying job execution.

    Args:
        cache_dir: the shared :class:`CaptureCache` directory (also where
            job captures land for later ``repro-scan analyze`` runs).
        state_dir: root for persisted job records (``jobs/``) and streaming
            checkpoints (``checkpoints/``).  ``None`` keeps everything in
            memory (no restart re-attach, no checkpointing).
        workers: process-pool size (>= 1).
        max_retries: extra executions granted when a worker process dies.
        task: test hook replacing :func:`repro.serve.jobs.execute_job`.
    """

    def __init__(
        self,
        cache_dir: PathLike,
        state_dir: Optional[PathLike] = None,
        workers: int = 2,
        max_retries: int = 1,
        task: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache = CaptureCache(cache_dir)
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.jobs_dir: Optional[Path] = None
        self.checkpoint_dir: Optional[Path] = None
        if self.state_dir is not None:
            self.jobs_dir = self.state_dir / "jobs"
            self.jobs_dir.mkdir(parents=True, exist_ok=True)
            self.checkpoint_dir = self.state_dir / "checkpoints"
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.workers = workers
        self.max_attempts = 1 + max(0, max_retries)
        self._task = task

        # Reentrant: Future.add_done_callback / Future.cancel invoke
        # _on_done synchronously in the calling thread when the future is
        # already settled, re-entering the lock from _start_locked/cancel.
        self._lock = threading.RLock()
        self._jobs: Dict[str, JobRecord] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._seq = 0
        self._closing = False

        # Lookup counters (mirrors CaptureCache.hits/misses at job level).
        self.submissions = 0
        self.dedup_hits = 0
        self.executed = 0
        self.retries = 0
        self.completed = 0
        self.failures = 0
        self.restored = 0
        self.requeued = 0

        self._world_lock = threading.Lock()
        self._worlds: Dict[int, TelescopeWorld] = {}

        if self.jobs_dir is not None:
            self._restore()

    # -- keys ---------------------------------------------------------------

    def _world_for(self, seed: int) -> TelescopeWorld:
        """Memoised per-seed world: job keys need its stream signature and
        telescope token, and worlds are deterministic functions of the seed.
        """
        with self._world_lock:
            world = self._worlds.get(seed)
            if world is None:
                world = TelescopeWorld(rng=seed)
                self._worlds[seed] = world
            return world

    def job_key(self, spec: JobSpec) -> str:
        """Content key of one job: the capture's cache key plus the kind.

        Identical requests — same kind, same capture parameters, same
        library version — collapse onto one key; that key is the job id,
        the dedup handle, and the persisted record's filename.
        """
        spec.validate()
        world = self._world_for(spec.seed)
        capture_key = self.cache.key_for(
            world, spec.year, days=spec.days, max_packets=spec.max_packets,
            min_scans=spec.min_scans,
        )
        material = {
            "schema": SERVE_SCHEMA_VERSION,
            "version": __version__,
            "kind": spec.kind,
            "capture": capture_key,
        }
        job_id: str = content_key(material)
        return job_id

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Submit a job; identical live or completed jobs coalesce.

        A QUEUED or DONE record under the same key is returned as-is
        (dedup hit).  Running jobs coalesce through the QUEUED arm:
        ``running`` is never a stored state — a record stays QUEUED while
        its live future executes and :attr:`JobRecord.status` derives
        ``running`` from the future — so matching on QUEUED covers them.
        A failed or cancelled record is revived with a fresh attempt
        budget — resubmission is the retry-after-failure path.
        """
        job_id = self.job_key(spec)
        with self._lock:
            if self._closing:
                raise RuntimeError("queue is closed")
            self.submissions += 1
            rec = self._jobs.get(job_id)
            # QUEUED covers running jobs: running is derived from the live
            # future, never stored (see docstring).
            if rec is not None and rec.state in (JobState.QUEUED, JobState.DONE):
                self.dedup_hits += 1
                return rec
            if rec is None:
                self._seq += 1
                rec = JobRecord(job_id=job_id, spec=spec, submitted_seq=self._seq)
                self._jobs[job_id] = rec
            else:
                rec.state = JobState.QUEUED
                rec.result = None
                rec.error = None
                rec.attempts = 0
                rec.settled.clear()
            self._start_locked(rec)
            self._persist_locked(rec)
            return rec

    def _payload(self, rec: JobRecord) -> Dict[str, Any]:
        return {
            "spec": rec.spec.to_dict(),
            "cache_dir": str(self.cache.root),
            "checkpoint_dir": (
                str(self.checkpoint_dir) if self.checkpoint_dir is not None
                else None
            ),
        }

    def _start_locked(self, rec: JobRecord) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_die_with_parent,
                initargs=(os.getpid(),),
            )
        rec.attempts += 1
        rec.generation = self._generation
        self.executed += 1
        payload = self._payload(rec)
        if self._task is None:
            future = self._pool.submit(execute_job, payload)
        else:  # test hook — never taken in production
            future = self._pool.submit(self._task, payload)
        rec.future = future
        future.add_done_callback(
            lambda fut, job_id=rec.job_id: self._on_done(job_id, fut)
        )

    def _on_done(self, job_id: str, future: Future[Dict[str, Any]]) -> None:
        with self._lock:
            rec = self._jobs.get(job_id)
            if rec is None or rec.future is not future:
                return  # stale callback from a retired attempt
            if future.cancelled():
                # On shutdown, queued futures are cancelled but records stay
                # QUEUED so a restarted queue requeues them; an explicit
                # cancel() re-marks the record CANCELLED right after this
                # callback returns (it runs inside Future.cancel()).
                rec.future = None
                self._persist_locked(rec)
                return
            exc = future.exception()
            if exc is None:
                # Invariant: _on_done fires only after the future settles,
                # so result() returns immediately without blocking.
                rec.result = future.result()  # repro-lint: disable=RPR017
                rec.state = JobState.DONE
                rec.error = None
                self.completed += 1
            elif isinstance(exc, BrokenExecutor):
                self._retire_pool_locked(rec.generation)
                if rec.attempts < self.max_attempts and not self._closing:
                    self.retries += 1
                    self._start_locked(rec)
                    self._persist_locked(rec)
                    return
                rec.state = JobState.FAILED
                rec.error = (
                    f"worker process died ({type(exc).__name__}) after "
                    f"{rec.attempts} attempt(s)"
                )
                self.failures += 1
            else:
                rec.state = JobState.FAILED
                rec.error = f"{type(exc).__name__}: {exc}"
                self.failures += 1
            rec.future = None
            self._persist_locked(rec)
            rec.settled.set()

    def _retire_pool_locked(self, generation: int) -> None:
        """Replace a broken pool exactly once per generation.

        Every in-flight future of a broken pool fails with BrokenExecutor
        and lands here; only the first callback retires the pool, the rest
        see a newer generation and just resubmit into the fresh one.
        """
        if generation != self._generation or self._pool is None:
            return
        pool, self._pool = self._pool, None
        self._generation += 1
        # Invariant: wait=False never joins workers — shutdown just flips
        # the executor's accepting flag and returns immediately.
        pool.shutdown(wait=False)  # repro-lint: disable=RPR017

    # -- queries ------------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda r: r.submitted_seq)

    def snapshot(
        self, job_id: str, with_result: bool = True
    ) -> Optional[Dict[str, Any]]:
        """One record's ``to_dict`` view, taken atomically under the lock.

        Callers outside this class must not read record fields bare — the
        executing thread mutates ``state``/``result``/``error`` under
        ``_lock``, and a bare read can see a half-applied transition
        (e.g. ``state`` already DONE but ``result`` still ``None``).
        """
        with self._lock:
            rec = self._jobs.get(job_id)
            if rec is None:
                return None
            return rec.to_dict(with_result=with_result)

    def snapshots(self, with_result: bool = False) -> List[Dict[str, Any]]:
        """All records in submission order, snapshotted under one lock
        acquisition so the listing is a consistent cut."""
        with self._lock:
            return [
                rec.to_dict(with_result=with_result)
                for rec in sorted(
                    self._jobs.values(), key=lambda r: r.submitted_seq
                )
            ]

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until the job finishes (or ``timeout`` elapses).

        Wakes on the record's ``settled`` event, so a waiter returns as
        soon as the job's callback has stored its outcome; a finished job
        returns at once.
        """
        rec = self.get(job_id)
        if rec is None:
            raise KeyError(f"no such job: {job_id}")
        rec.settled.wait(timeout)
        return rec

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running/finished jobs cannot be cancelled
        (workers are separate processes — there is nothing safe to signal
        mid-simulation; streaming jobs checkpoint, so killing the *server*
        loses nothing either way)."""
        with self._lock:
            rec = self._jobs.get(job_id)
            if rec is None or rec.state is not JobState.QUEUED:
                return False
            future = rec.future
        # Future.cancel() runs done-callbacks synchronously in this thread,
        # so it must happen outside the lock _on_done re-acquires.
        if future is not None and not future.cancel():
            return False
        with self._lock:
            if rec.state is not JobState.QUEUED:
                return False
            rec.state = JobState.CANCELLED
            rec.future = None
            self._persist_locked(rec)
            rec.settled.set()
            return True

    def stats(self) -> Dict[str, Any]:
        """Queue-depth and counter snapshot for the ``/stats`` surface."""
        with self._lock:
            counts = {"queued": 0, "running": 0, "done": 0, "failed": 0,
                      "cancelled": 0}
            for rec in self._jobs.values():
                counts[rec.status] += 1
            return {
                "jobs": dict(counts, total=len(self._jobs)),
                "queue_depth": counts["queued"] + counts["running"],
                "workers": self.workers,
                "counters": {
                    "submissions": self.submissions,
                    "dedup_hits": self.dedup_hits,
                    "executed": self.executed,
                    "retries": self.retries,
                    "completed": self.completed,
                    "failures": self.failures,
                    "restored": self.restored,
                    "requeued": self.requeued,
                },
                "capture_cache": {
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                    "entries": len(self.cache.entries()),
                    "bytes": self.cache.total_bytes(),
                },
            }

    # -- persistence --------------------------------------------------------

    def _record_path(self, job_id: str) -> Path:
        assert self.jobs_dir is not None
        return self.jobs_dir / f"{job_id}.json"

    def _persist_locked(self, rec: JobRecord) -> None:
        if self.jobs_dir is None:
            return
        doc = {
            "schema": SERVE_SCHEMA_VERSION,
            "version": __version__,
            "job_id": rec.job_id,
            "spec": rec.spec.to_dict(),
            # A job that was running when the process died must requeue on
            # restart, so the persisted state never says "running".
            "state": rec.state.value,
            "attempts": rec.attempts,
            "error": rec.error,
            "result": rec.result,
        }
        path = self._record_path(rec.job_id)
        # Invariant: the on-disk record stream must serialise with the
        # in-memory state transition it mirrors (crash consistency), and
        # the payload is one small local JSON document.
        with atomic_replace(path) as handle:  # repro-lint: disable=RPR017
            handle.write(json.dumps(doc, sort_keys=True).encode("utf-8"))

    def _restore(self) -> None:
        """Reload persisted records; requeue anything left unfinished.

        Version/schema mismatches are skipped (the keys changed anyway);
        unreadable files are ignored rather than fatal — a half-written
        record cannot occur (writes are atomic) but a foreign file can.
        """
        assert self.jobs_dir is not None
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                doc = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if (
                doc.get("schema") != SERVE_SCHEMA_VERSION
                or doc.get("version") != __version__
            ):
                continue
            try:
                spec = JobSpec.from_dict(doc["spec"])
                state = JobState(doc["state"])
            except (KeyError, ValueError):
                continue
            with self._lock:
                self._seq += 1
                rec = JobRecord(
                    job_id=doc["job_id"],
                    spec=spec,
                    state=state,
                    result=doc.get("result"),
                    error=doc.get("error"),
                    attempts=int(doc.get("attempts", 0)),
                    submitted_seq=self._seq,
                )
                self._jobs[rec.job_id] = rec
                self.restored += 1
                if rec.finished():
                    rec.settled.set()
                elif rec.state is JobState.QUEUED:
                    # In-flight when the previous process died: run again.
                    # Streaming jobs re-attach to their checkpoints, capture
                    # synthesis re-attaches to the capture cache.
                    rec.attempts = 0
                    self.requeued += 1
                    self._start_locked(rec)

    # -- shutdown -----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work and shut the pool down.

        Queued-but-unstarted futures are cancelled; their records stay
        ``queued`` on disk, so a restarted queue picks them back up.
        """
        with self._lock:
            if self._closing:
                return
            self._closing = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
