"""Tests for the ``repro.serve`` analysis service.

The contracts under test:

* job identity is the capture's content key — N concurrent identical
  submissions coalesce into exactly one execution (the acceptance
  criterion, proven at N=100 with the CaptureCache's own hit counters);
* a queue restarted over a killed server's state directory requeues the
  in-flight job and its worker re-attaches to the flushed streaming
  checkpoint instead of recomputing;
* worker death retries on a fresh pool; failures, cancellation and done
  records behave and persist as documented;
* scenarios cache derived analyses under a config hash that moves with
  the spec;
* the HTTP surface serves reports byte-identical to the CLI, in both
  text and JSON form, and streams stats over SSE.
"""

import dataclasses
import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import main
from repro.core.report import paper_report
from repro.core.volatility import METRICS
from repro.exec import CaptureCache
from repro.reporting import (
    paper_report_to_json,
    render_paper_report,
    render_report_doc,
)
from repro.serve import (
    SERVE_SCHEMA_VERSION,
    JobQueue,
    JobSpec,
    ScenarioStore,
    config_hash,
    create_server,
    run_stream_report,
)
from repro.serve.api import MAX_BODY_BYTES
from repro.simulation import TelescopeWorld

#: Tiny budgets — several tests run real simulations in worker processes.
SPEC = dict(year=2016, days=3, max_packets=6_000, min_scans=40, seed=5)

#: Larger capture for the checkpoint re-attach test: it must span more
#: than one default-size streaming window so the staged checkpoint is
#: genuinely partial.
# Big enough that the realised capture spans more than one default stream
# batch window (65 536 packets) — a one-window capture cannot produce a
# genuinely partial checkpoint.
BIG_SPEC = dict(year=2016, days=6, max_packets=200_000, min_scans=120, seed=5)


# ---------------------------------------------------------------------------
# Module-level task hooks: the fork start method pickles them by reference,
# so they run verbatim inside pool workers.

def _task_ok(payload):
    return {"kind": "ok", "spec": payload["spec"]}


def _task_raise_once(payload):
    sentinel = Path(payload["cache_dir"]).parent / "raised-once"
    if not sentinel.exists():
        sentinel.write_text("x")
        raise ValueError("boom")
    return {"kind": "ok"}


def _task_die_once(payload):
    sentinel = Path(payload["cache_dir"]).parent / "died-once"
    if not sentinel.exists():
        sentinel.write_text("x")
        os._exit(3)  # simulate an OOM-killed / segfaulted worker
    return {"kind": "survived"}


def _task_die_always(payload):
    os._exit(3)


def _task_block(payload):
    """Block until the test drops a release file (bounded at 30 s)."""
    release = Path(payload["cache_dir"]).parent / "release"
    deadline = time.monotonic() + 30.0
    while not release.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    return {"kind": "released"}


def _spin_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestJobSpec:
    def test_defaults_validate(self):
        JobSpec().validate()

    @pytest.mark.parametrize("field,value", [
        ("kind", "transmogrify"),
        ("year", 1999),
        ("days", 0),
        ("max_packets", 0),
        ("min_scans", -1),
    ])
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            JobSpec(**{field: value}).validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="max_packet"):
            JobSpec.from_dict({"kind": "simulate", "max_packet": 10})

    def test_from_dict_rejects_wrong_types(self):
        with pytest.raises(ValueError):
            JobSpec.from_dict({"year": "2020"})
        with pytest.raises(ValueError):
            JobSpec.from_dict({"days": True})

    def test_round_trip(self):
        spec = JobSpec(kind="analyze", **SPEC)
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestJobKeys:
    def test_kind_and_seed_split_keys(self, tmp_path):
        with JobQueue(tmp_path / "cache", workers=1) as queue:
            base = queue.job_key(JobSpec(kind="simulate", **SPEC))
            assert queue.job_key(JobSpec(kind="analyze", **SPEC)) != base
            other = dict(SPEC, seed=6)
            assert queue.job_key(JobSpec(kind="simulate", **other)) != base

    def test_keys_stable_across_queue_instances(self, tmp_path):
        spec = JobSpec(kind="stream-report", **SPEC)
        with JobQueue(tmp_path / "a", workers=1) as q1:
            with JobQueue(tmp_path / "b", workers=1) as q2:
                assert q1.job_key(spec) == q2.job_key(spec)


class TestDedupUnderConcurrency:
    def test_100_concurrent_identical_submissions_execute_once(self, tmp_path):
        spec = JobSpec(kind="simulate", **SPEC)
        n = 100
        records = [None] * n
        barrier = threading.Barrier(n)
        with JobQueue(tmp_path / "cache", state_dir=tmp_path / "state",
                      workers=2) as queue:
            def submit(i):
                barrier.wait()
                records[i] = queue.submit(spec)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len({rec.job_id for rec in records}) == 1
            rec = queue.wait(records[0].job_id, timeout=180)
            assert rec.state.value == "done"
            # the one execution synthesized (no prior cache entry existed)
            assert rec.result["capture"]["cache_hit"] is False
            counters = queue.stats()["counters"]
            assert counters["submissions"] == n
            assert counters["dedup_hits"] == n - 1
            assert counters["executed"] == 1

        # Exactly one simulation ran: the shared cache holds exactly one
        # capture, and loading it is a pure hit on a fresh counter.
        cache = CaptureCache(tmp_path / "cache")
        assert len(cache.entries()) == 1
        world = TelescopeWorld(rng=spec.seed)
        key = cache.key_for(world, spec.year, days=spec.days,
                            max_packets=spec.max_packets,
                            min_scans=spec.min_scans)
        assert cache.load(key, world) is not None
        assert (cache.hits, cache.misses) == (1, 0)

    def test_second_kind_reuses_the_cached_capture(self, tmp_path):
        """A different-kind job over the same capture is a capture-cache hit."""
        with JobQueue(tmp_path / "cache", workers=1) as queue:
            first = queue.wait(
                queue.submit(JobSpec(kind="simulate", **SPEC)).job_id,
                timeout=180,
            )
            assert first.result["capture"]["cache_hit"] is False
            second = queue.wait(
                queue.submit(JobSpec(kind="analyze", **SPEC)).job_id,
                timeout=180,
            )
            assert second.state.value == "done"
            assert second.result["capture"]["cache_hit"] is True
            assert second.result["capture"]["key"] == first.result["capture"]["key"]
            assert "report" in second.result
            assert "report_text" in second.result
            assert second.result["fingerprints"]


class TestRetryAndFailure:
    def test_worker_death_retries_on_a_fresh_pool(self, tmp_path):
        with JobQueue(tmp_path / "cache", workers=1, max_retries=1,
                      task=_task_die_once) as queue:
            rec = queue.wait(
                queue.submit(JobSpec(kind="simulate", **SPEC)).job_id,
                timeout=60,
            )
            assert rec.state.value == "done"
            assert rec.result == {"kind": "survived"}
            assert rec.attempts == 2
            assert queue.stats()["counters"]["retries"] == 1

    def test_retry_budget_exhausts_to_failed(self, tmp_path):
        with JobQueue(tmp_path / "cache", workers=1, max_retries=1,
                      task=_task_die_always) as queue:
            rec = queue.wait(
                queue.submit(JobSpec(kind="simulate", **SPEC)).job_id,
                timeout=60,
            )
            assert rec.state.value == "failed"
            assert "worker process died" in rec.error
            assert rec.attempts == 2

    def test_exception_fails_and_resubmission_revives(self, tmp_path):
        spec = JobSpec(kind="simulate", **SPEC)
        with JobQueue(tmp_path / "cache", workers=1,
                      task=_task_raise_once) as queue:
            rec = queue.wait(queue.submit(spec).job_id, timeout=60)
            assert rec.state.value == "failed"
            assert rec.error == "ValueError: boom"
            # resubmitting a failed job is the retry-after-failure path
            rec = queue.wait(queue.submit(spec).job_id, timeout=60)
            assert rec.state.value == "done"
            assert rec.result == {"kind": "ok"}


class TestCancel:
    def test_cancel_applies_to_queued_jobs_only(self, tmp_path):
        # The executor stages one extra work item beyond the worker count,
        # and a staged future is no longer cancellable — so queue enough
        # jobs that at least one genuinely waits behind the buffer.
        first_spec = JobSpec(kind="simulate", **SPEC)
        extra_specs = [JobSpec(kind="simulate", **dict(SPEC, seed=100 + i))
                       for i in range(4)]
        with JobQueue(tmp_path / "cache", workers=1,
                      task=_task_block) as queue:
            first = queue.submit(first_spec)
            assert _spin_until(lambda: first.status == "running")
            extras = [queue.submit(spec) for spec in extra_specs]
            waiting = next(rec for rec in extras if rec.status == "queued")
            # running jobs cannot be cancelled; queued ones can
            assert queue.cancel(first.job_id) is False
            assert queue.cancel(waiting.job_id) is True
            assert queue.get(waiting.job_id).status == "cancelled"
            (tmp_path / "release").write_text("go")
            first = queue.wait(first.job_id, timeout=60)
            assert first.state.value == "done"
            assert queue.cancel(first.job_id) is False
            # a cancelled job revives on resubmission
            waiting_spec = extra_specs[extras.index(waiting)]
            revived = queue.wait(queue.submit(waiting_spec).job_id, timeout=60)
            assert revived.state.value == "done"


class TestPersistence:
    def test_done_records_survive_restart(self, tmp_path):
        spec = JobSpec(kind="simulate", **SPEC)
        cache_dir, state_dir = tmp_path / "cache", tmp_path / "state"
        with JobQueue(cache_dir, state_dir=state_dir, workers=1,
                      task=_task_ok) as q1:
            rec = q1.wait(q1.submit(spec).job_id, timeout=60)
            assert rec.state.value == "done"
            job_id, result = rec.job_id, rec.result
        with JobQueue(cache_dir, state_dir=state_dir, workers=1,
                      task=_task_ok) as q2:
            restored = q2.get(job_id)
            assert restored is not None
            assert restored.state.value == "done"
            assert restored.result == result
            counters = q2.stats()["counters"]
            assert counters["restored"] == 1
            assert counters["executed"] == 0
            # resubmission is a dedup hit served from the restored record
            assert q2.submit(spec) is restored
            assert q2.stats()["counters"]["dedup_hits"] == 1

    def test_version_mismatch_records_are_skipped(self, tmp_path):
        state_dir = tmp_path / "state"
        jobs_dir = state_dir / "jobs"
        jobs_dir.mkdir(parents=True)
        (jobs_dir / "stale.json").write_text(json.dumps({
            "schema": SERVE_SCHEMA_VERSION, "version": "0.0.0-old",
            "job_id": "stale", "spec": JobSpec().to_dict(),
            "state": "done", "attempts": 1, "error": None, "result": {},
        }))
        with JobQueue(tmp_path / "cache", state_dir=state_dir, workers=1,
                      task=_task_ok) as queue:
            assert queue.get("stale") is None
            assert queue.stats()["counters"]["restored"] == 0


class TestKillAndRestart:
    def test_restart_reattaches_to_in_flight_checkpoint(self, tmp_path, capsys):
        """The acceptance path: a server killed mid-stream leaves a queued
        record and a flushed partial checkpoint; the restarted queue
        requeues the job and its worker resumes from the checkpoint —
        and the resumed report is still byte-identical to the batch CLI.
        """
        cache_dir, state_dir = tmp_path / "cache", tmp_path / "state"
        sim_spec = JobSpec(kind="simulate", **BIG_SPEC)
        stream_spec = JobSpec(kind="stream-report", **BIG_SPEC)
        with JobQueue(cache_dir, state_dir=state_dir, workers=1) as q1:
            rec = q1.wait(q1.submit(sim_spec).job_id, timeout=300)
            assert rec.state.value == "done"
            capture_path = rec.result["capture"]["path"]
            capture_packets = rec.result["capture"]["packets"]
            stream_id = q1.job_key(stream_spec)

        # Stage what a killed worker leaves behind: the identical service
        # pass (same parameters, same checkpoint key via run_stream_report)
        # interrupted after its first committed window.
        partial = run_stream_report(
            capture_path, year=stream_spec.year, days=stream_spec.days,
            checkpoint_dir=str(state_dir / "checkpoints"),
            stop=lambda: True,
        )
        assert partial.interrupted
        assert 0 < partial.stats.packets < capture_packets
        assert partial.checkpoint_paths

        # ... and the record a crashed server leaves: persisted job state
        # never says "running", so an in-flight job is on disk as queued.
        (state_dir / "jobs" / f"{stream_id}.json").write_text(json.dumps({
            "schema": SERVE_SCHEMA_VERSION, "version": __version__,
            "job_id": stream_id, "spec": stream_spec.to_dict(),
            "state": "queued", "attempts": 1, "error": None, "result": None,
        }))

        with JobQueue(cache_dir, state_dir=state_dir, workers=1) as q2:
            assert q2.stats()["counters"]["requeued"] == 1
            rec = q2.wait(stream_id, timeout=300)
            assert rec.state.value == "done"
            assert rec.result["stream"]["resumed"] is True
            assert rec.result["capture"]["cache_hit"] is True

        # Byte parity survived the interrupt + re-attach.
        assert main(["analyze", capture_path, "--report"]) == 0
        batch_text = capsys.readouterr().out.rstrip("\n")
        assert rec.result["report_text"] == batch_text


class TestScenarios:
    def test_config_hash_ignores_kind(self):
        assert config_hash(JobSpec(kind="simulate", **SPEC)) == \
            config_hash(JobSpec(kind="stream-report", **SPEC))
        assert config_hash(JobSpec(**SPEC)) != \
            config_hash(JobSpec(**dict(SPEC, days=4)))

    def test_update_bumps_revision_and_drops_derived(self, tmp_path):
        store = ScenarioStore(tmp_path)
        spec = JobSpec(kind="stream-report", **SPEC)
        scenario = store.put("acme", "base", spec)
        assert scenario.revision == 1
        store.cache_derived(scenario, {"report": {"scans": 1}})
        assert scenario.cached_payload() == {"report": {"scans": 1}}
        # unchanged spec: no-op, cache kept
        assert store.put("acme", "base", spec) is scenario
        assert scenario.cached_payload() is not None
        # changed spec: new revision, cache invalidated
        updated = store.put(
            "acme", "base", dataclasses.replace(spec, days=4)
        )
        assert updated.revision == 2
        assert updated.cached_payload() is None
        assert updated.config_hash != scenario.config_hash

    @pytest.mark.parametrize("name", ["", "a/b", "../x", ".hidden", "a" * 65])
    def test_unsafe_names_rejected(self, tmp_path, name):
        store = ScenarioStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("acme", name, JobSpec(**SPEC))
        with pytest.raises(ValueError):
            store.put(name, "ok", JobSpec(**SPEC))

    def test_persistence_across_restart(self, tmp_path):
        spec = JobSpec(kind="stream-report", **SPEC)
        store = ScenarioStore(tmp_path)
        scenario = store.put("acme", "base", spec)
        store.cache_derived(scenario, {"report": {"scans": 2}})
        reopened = ScenarioStore(tmp_path)
        restored = reopened.get("acme", "base")
        assert restored is not None
        assert restored.spec == spec
        assert restored.cached_payload() == {"report": {"scans": 2}}
        assert reopened.tenants() == ["acme"]
        assert reopened.count() == 1
        assert reopened.delete("acme", "base") is True
        assert ScenarioStore(tmp_path).get("acme", "base") is None


class TestReportJsonPin:
    """Pin ``paper_report_to_json`` field-for-field against the text tables.

    The text renderer prints every scalar with ``repr`` (shortest
    round-trip form); the JSON twin coerces to native float/int, so each
    text line must contain exactly the repr of the corresponding JSON
    value — any drift between the two renderings fails here.
    """

    @pytest.fixture(scope="class")
    def rendered(self, analysis2020):
        report = paper_report(analysis2020)
        return (report, paper_report_to_json(report),
                render_paper_report(report))

    def test_header_counts(self, rendered):
        report, doc, text = rendered
        assert f"year={doc['year']}  days={doc['days']}" in text
        assert f"study packets: {doc['packets']}" in text
        assert f"study scans: {doc['scans']}" in text

    def test_trend_scalars(self, rendered):
        report, doc, text = rendered
        trends = doc["trends"]
        assert (
            "classic port share (22/80/8080): "
            f"{trends['classic_port_share']!r}"
        ) in text
        assert f"port entropy (bits): {trends['port_entropy']!r}" in text
        assert f"country entropy (bits): {trends['country_entropy']!r}" in text
        conc = trends["concentration"]
        assert conc is not None
        assert (
            f"concentration: gini={conc['gini']!r} "
            f"top1%={conc['top_1pct_share']!r} "
            f"top10%={conc['top_10pct_share']!r} "
            f"share_for_80pct={conc['share_for_80pct']!r}"
        ) in text
        intensity = trends["intensity"]
        assert intensity is not None
        assert (
            f"intensity: median_packets={intensity['median_packets']!r} "
            f"mean_packets={intensity['mean_packets']!r} "
            f"median_duration_s={intensity['median_duration_s']!r} "
            f"mean_duration_s={intensity['mean_duration_s']!r}"
        ) in text

    def test_volatility_rows(self, rendered):
        report, doc, text = rendered
        assert set(doc["volatility"]) == set(METRICS)
        for metric in METRICS:
            row = doc["volatility"][metric]
            assert row["metric"] == metric
            line = next(l for l in text.splitlines()
                        if l.strip().startswith(metric))
            for value in (row["pairs"], repr(row["fraction_stable"]),
                          repr(row["fraction_at_least_2x"]),
                          repr(row["fraction_at_least_3x"])):
                assert str(value) in line
            # the JSON additionally carries the CDF series the text omits
            assert len(row["cdf"]["values"]) == len(row["cdf"]["cdf"])

    def test_recurrence_fields(self, rendered):
        report, doc, text = rendered
        overall = doc["recurrence"]["overall"]
        assert f"sources: {overall['sources']}" in text
        assert f"fraction recurring: {overall['fraction_recurring']!r}" in text
        assert (
            f"fraction >100 scans: {overall['fraction_over_100_scans']!r}"
        ) in text
        assert (
            "downtime within a day: "
            f"{overall['fraction_downtime_within_day']!r}"
        ) in text
        assert (
            f"daily-mode fraction: {overall['daily_mode_fraction']!r}"
        ) in text
        assert (
            "institutional daily scanners: "
            f"{doc['recurrence']['institutional_daily']}"
        ) in text
        for name, stats in doc["recurrence"]["by_type"].items():
            assert (
                f"{name}: sources={stats['sources']} "
                f"recurring={stats['fraction_recurring']!r} "
                f"over_100={stats['fraction_over_100_scans']!r}"
            ) in text

    def test_churn_fields(self, rendered):
        report, doc, text = rendered
        churn = doc["churn"]
        assert f"distinct sources: {churn['distinct_sources']}" in text
        assert churn["curve"][-1] == churn["distinct_sources"]
        fit = churn["fit"]
        assert fit is not None
        assert f"fitted population: {fit['population']!r}" in text
        assert f"fitted lifetime (days): {fit['lifetime_days']!r}" in text
        assert f"inflation factor: {fit['inflation_factor']!r}" in text

    def test_doc_survives_json_round_trip_exactly(self, rendered):
        report, doc, text = rendered
        assert json.loads(render_report_doc(doc)) == doc


# ---------------------------------------------------------------------------
# HTTP surface: one module-scoped server doing real (tiny) computations.

@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-http")
    srv = create_server(port=0, state_dir=tmp / "state", workers=2)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    yield srv
    srv.app.close()
    srv.shutdown()
    srv.server_close()


def _request(server, method, path, body=None):
    host, port = server.server_address[:2]
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=300) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


def _post_with_length(server, content_length, body=b""):
    """POST /jobs with a hand-set ``Content-Length`` header."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.putrequest("POST", "/jobs")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", content_length)
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestHTTPApi:
    def test_non_integer_content_length_is_400(self, server):
        status, body = _post_with_length(server, "abc", b"{}")
        assert status == 400
        assert "Content-Length" in body["error"]
        assert _request(server, "GET", "/healthz")[0] == 200

    def test_negative_content_length_is_400(self, server):
        status, body = _post_with_length(server, "-5", b"{}")
        assert status == 400
        assert "Content-Length" in body["error"]
        assert _request(server, "GET", "/healthz")[0] == 200

    def test_oversized_content_length_is_413_unread(self, server):
        """A huge declared length is refused before any read: the server
        neither allocates it nor waits for bytes that never come."""
        status, body = _post_with_length(server, "1000000000000", b"{}")
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        assert _request(server, "GET", "/healthz")[0] == 200

    def test_health_and_stats(self, server):
        status, body = _request(server, "GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, body = _request(server, "GET", "/stats")
        doc = json.loads(body)
        assert status == 200
        assert doc["workers"] == 2
        assert "queue_depth" in doc
        assert "capture_cache" in doc
        assert doc["version"] == __version__

    def test_bad_job_submissions(self, server):
        status, body = _request(server, "POST", "/jobs", {"kind": "nope"})
        assert status == 400
        status, body = _request(server, "POST", "/jobs", {"yeer": 2020})
        assert status == 400
        assert "yeer" in json.loads(body)["error"]
        status, _ = _request(server, "GET", "/jobs/deadbeef")
        assert status == 404

    def test_scenario_report_parity_with_cli(self, server, capsys):
        """The acceptance criterion: the HTTP report is byte-identical to
        the CLI's, in both JSON and text renderings."""
        status, _ = _request(
            server, "PUT", "/scenarios/acme/smoke", dict(SPEC)
        )
        assert status == 200
        status, http_json = _request(
            server, "GET", "/scenarios/acme/smoke/report?format=json&wait=240"
        )
        assert status == 200
        status, http_text = _request(
            server, "GET", "/scenarios/acme/smoke/report?format=text"
        )
        assert status == 200

        # find the capture the job produced, then run the CLI over it
        status, body = _request(server, "GET", "/jobs")
        jobs = json.loads(body)["jobs"]
        assert any(job["status"] == "done" for job in jobs)
        done = next(j for j in jobs if j["spec"]["kind"] == "stream-report")
        status, body = _request(server, "GET", f"/jobs/{done['job_id']}")
        capture_path = json.loads(body)["job"]["result"]["capture"]["path"]

        assert main(["analyze", capture_path, "--report", "--json"]) == 0
        assert http_json == capsys.readouterr().out
        assert main(["analyze", capture_path, "--report"]) == 0
        assert http_text == capsys.readouterr().out

    def test_identical_submission_dedups_against_scenario_job(self, server):
        # runs after the report test: the same config as a direct job
        # submission coalesces with the scenario's completed job
        status, body = _request(
            server, "POST", "/jobs", dict(SPEC, kind="stream-report")
        )
        assert status == 200
        assert json.loads(body)["job"]["status"] == "done"
        status, body = _request(server, "GET", "/stats")
        assert json.loads(body)["counters"]["dedup_hits"] >= 1

    def test_scenario_update_invalidates_cached_report(self, server):
        status, body = _request(server, "GET", "/scenarios/acme/smoke")
        assert status == 200
        assert json.loads(body)["scenario"]["report_cached"] is True
        status, body = _request(
            server, "PUT", "/scenarios/acme/smoke", dict(SPEC, days=4)
        )
        assert status == 200
        doc = json.loads(body)["scenario"]
        assert doc["revision"] == 2
        assert doc["report_cached"] is False
        # restore the original config: cache was dropped on update
        status, body = _request(
            server, "PUT", "/scenarios/acme/smoke", dict(SPEC)
        )
        assert json.loads(body)["scenario"]["report_cached"] is False

    def test_scenario_validation_and_404s(self, server):
        status, _ = _request(server, "PUT", "/scenarios/acme/..", dict(SPEC))
        assert status == 400
        status, _ = _request(server, "PUT", "/scenarios/acme/bad",
                             {"yeer": 1})
        assert status == 400
        status, _ = _request(server, "GET", "/scenarios/acme/ghost/report")
        assert status == 404
        status, _ = _request(server, "GET", "/nope")
        assert status == 404

    def test_sse_stats_stream(self, server):
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}/stats/live?interval=0.05&count=2"
        with urllib.request.urlopen(url, timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith("text/event-stream")
            raw = resp.read().decode()
        events = [frame for frame in raw.split("\n\n") if frame.strip()]
        assert len(events) == 2
        for event in events:
            lines = event.splitlines()
            assert lines[0] == "event: stats"
            payload = json.loads(lines[1][len("data: "):])
            assert "queue_depth" in payload
