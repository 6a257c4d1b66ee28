"""Thread-pressure tests for the serve layer (ISSUE 10, satellite 3).

N threads hammer JobQueue and ScenarioStore with mixed operations while
an invariant checker reads consistent snapshots concurrently; every test
runs under a watchdog join so a deadlock fails fast instead of hanging
the suite.  These tests are what hold the lock discipline of the serve
layer: counters consistent with job records, no lost scenario updates,
snapshot reads never observing a half-applied transition.
"""

import threading
import time
from pathlib import Path

import pytest

from repro.serve.jobs import JobSpec
from repro.serve.queue import JobQueue
from repro.serve.scenario import ScenarioStore

SPEC = dict(year=2016, days=3, max_packets=6_000, min_scans=40)

#: Watchdog for every join: generous for CI, instant death on deadlock
#: compared to a suite-level timeout.
WATCHDOG_S = 60.0


def _task_ok(payload):
    return {"kind": "ok", "spec": payload["spec"]}


def run_threads(workers, errors, timeout=WATCHDOG_S):
    """Start, then join under a shared watchdog; assert nothing hung."""
    threads = [threading.Thread(target=w, daemon=True) for w in workers]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = [t.name for t in threads if t.is_alive()]
    assert not alive, f"deadlock suspected; threads still running: {alive}"
    assert errors == [], errors


def catching(fn, errors):
    def runner():
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 — surfaced via run_threads
            errors.append(repr(exc))
    return runner


class TestJobQueuePressure:
    N_THREADS = 6
    OPS = 12

    def _specs(self):
        return [
            JobSpec(kind=kind, seed=seed, **SPEC)
            for kind in ("simulate", "analyze")
            for seed in (5, 6)
        ]

    def test_mixed_submit_cancel_stats_keeps_counters_consistent(
        self, tmp_path
    ):
        errors = []
        submit_tallies = [0] * self.N_THREADS
        specs = self._specs()
        with JobQueue(tmp_path / "cache", workers=1, task=_task_ok) as queue:
            keys = {queue.job_key(spec) for spec in specs}

            def worker(idx):
                def run():
                    for op in range(self.OPS):
                        spec = specs[(idx + op) % len(specs)]
                        choice = (idx * 7 + op) % 4
                        if choice in (0, 1):
                            rec = queue.submit(spec)
                            submit_tallies[idx] += 1
                            assert rec.job_id in keys
                        elif choice == 2:
                            queue.cancel(queue.job_key(spec))
                        else:
                            doc = queue.stats()
                            counts = doc["jobs"]
                            assert counts["total"] == sum(
                                counts[s] for s in
                                ("queued", "running", "done", "failed",
                                 "cancelled")
                            )
                            counters = doc["counters"]
                            assert counters["completed"] <= counters["executed"]
                            for value in counters.values():
                                assert value >= 0
                return run

            run_threads(
                [catching(worker(i), errors) for i in range(self.N_THREADS)],
                errors,
            )

            # Quiesce: cancelled records are terminal, live ones finish.
            for doc in queue.snapshots():
                queue.wait(doc["job_id"], timeout=WATCHDOG_S)

            stats = queue.stats()
            counters = stats["counters"]
            assert counters["submissions"] == sum(submit_tallies)
            assert stats["jobs"]["total"] == len(keys)
            # Every start is accounted for: a submission either coalesced
            # (dedup hit) or started an attempt, and the only other
            # attempt source is the broken-pool retry path.
            assert counters["executed"] == (
                counters["submissions"] - counters["dedup_hits"]
                + counters["retries"]
            )
            assert counters["completed"] == stats["jobs"]["done"]
            assert counters["failures"] == stats["jobs"]["failed"]
            assert stats["jobs"]["queued"] == 0
            assert stats["jobs"]["running"] == 0

    def test_snapshots_never_observe_half_applied_transitions(self, tmp_path):
        errors = []
        stop = threading.Event()
        with JobQueue(tmp_path / "cache", workers=1, task=_task_ok) as queue:
            spec = JobSpec(kind="simulate", seed=5, **SPEC)

            def submitter():
                for _ in range(8):
                    queue.submit(spec)
                    time.sleep(0.005)
                stop.set()

            def checker():
                while not stop.is_set():
                    for doc in queue.snapshots(with_result=True):
                        # A consistent cut: a done job always carries its
                        # result, a queued/running one never does.
                        if doc["status"] == "done":
                            assert doc["result"] is not None
                        if doc["status"] in ("queued", "running"):
                            assert doc["result"] is None
                            assert doc["error"] is None

            run_threads(
                [catching(submitter, errors), catching(checker, errors)],
                errors,
            )

    def test_close_during_traffic_is_deadlock_free(self, tmp_path):
        errors = []
        queue = JobQueue(tmp_path / "cache", workers=1, task=_task_ok)
        specs = self._specs()

        def worker(idx):
            def run():
                for op in range(self.OPS):
                    try:
                        queue.submit(specs[(idx + op) % len(specs)])
                    except RuntimeError as exc:
                        # The one legal failure once close() lands.
                        assert "closed" in str(exc)
                        return
                    queue.stats()
            return run

        def closer():
            time.sleep(0.02)
            queue.close(wait=True)

        run_threads(
            [catching(worker(i), errors) for i in range(4)]
            + [catching(closer, errors)],
            errors,
        )


class TestScenarioStorePressure:
    N_THREADS = 6
    OPS = 25
    TENANTS = ("alpha", "beta")
    NAMES = ("s0", "s1", "s2")

    def test_mixed_crud_keeps_store_consistent(self, tmp_path):
        errors = []
        store = ScenarioStore(tmp_path)
        spec_a = JobSpec(kind="stream-report", seed=5, **SPEC)
        spec_b = JobSpec(kind="stream-report", seed=6, **SPEC)

        def worker(idx):
            def run():
                for op in range(self.OPS):
                    tenant = self.TENANTS[(idx + op) % len(self.TENANTS)]
                    name = self.NAMES[op % len(self.NAMES)]
                    choice = (idx * 5 + op) % 5
                    if choice in (0, 1):
                        scenario = store.put(
                            tenant, name, spec_a if choice == 0 else spec_b
                        )
                        assert scenario.revision >= 1
                    elif choice == 2:
                        store.delete(tenant, name)
                    elif choice == 3:
                        scenario = store.get(tenant, name)
                        if scenario is not None:
                            assert scenario.tenant == tenant
                            assert scenario.name == name
                    else:
                        # Consistent cut: per-tenant listings sum to the
                        # global count taken in between, within the ops
                        # still in flight.
                        listed = store.list(tenant)
                        assert all(s.tenant == tenant for s in listed)
                        assert store.count() >= 0
            return run

        run_threads(
            [catching(worker(i), errors) for i in range(self.N_THREADS)],
            errors,
        )

        # Quiesced invariants: listings, count and tenant set agree, and
        # every listed scenario is retrievable (no lost updates).
        total = sum(len(store.list(t)) for t in self.TENANTS)
        assert store.count() == total
        assert set(store.tenants()) <= set(self.TENANTS)
        live = {}
        for tenant in self.TENANTS:
            for scenario in store.list(tenant):
                assert store.get(tenant, scenario.name) is scenario
                live[(tenant, scenario.name)] = scenario.revision

        # Persistence kept pace under the lock: a reopened store sees
        # exactly the surviving scenarios at their final revisions.
        reopened = ScenarioStore(tmp_path)
        restored = {
            (s.tenant, s.name): s.revision
            for t in self.TENANTS
            for s in reopened.list(t)
        }
        assert restored == live

    def test_cache_derived_races_with_put_safely(self, tmp_path):
        errors = []
        store = ScenarioStore(tmp_path)
        spec = JobSpec(kind="stream-report", seed=5, **SPEC)
        store.put("alpha", "s0", spec)
        stop = threading.Event()

        def deriver():
            for i in range(40):
                scenario = store.get("alpha", "s0")
                if scenario is not None:
                    store.cache_derived(scenario, {"report": i})
            stop.set()

        def putter():
            flip = [
                JobSpec(kind="stream-report", seed=5, **SPEC),
                JobSpec(kind="stream-report", seed=6, **SPEC),
            ]
            i = 0
            while not stop.is_set():
                store.put("alpha", "s0", flip[i % 2])
                i += 1

        run_threads(
            [catching(deriver, errors), catching(putter, errors)], errors
        )
        scenario = store.get("alpha", "s0")
        assert scenario is not None
        # A cached derivation, if present, matches the spec revision it
        # was computed against or has been dropped by the spec change.
        payload = scenario.cached_payload()
        if payload is not None:
            assert "report" in payload
