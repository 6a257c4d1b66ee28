"""Tests for source-sharded streaming — the engine at any shard count.

The load-bearing property is the *shard-merge invariant*: the merged
per-shard tables must be column-by-column bit-identical to batch
``identify_scans`` at any shard count and any window size, because sessions
are a per-source construct and shards partition the sources.  The serial
run is the one-shard case, so every test here runs it too.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.campaigns import CampaignCriteria, identify_scans
from repro.core.fingerprints import ToolFingerprinter
from repro.stream import (
    BatchStreamSource,
    CheckpointStore,
    ShardedStreamEngine,
    StreamConfig,
    StreamEngine,
    TraceStreamSource,
    merge_scan_tables,
    shard_of,
)
from repro.stream.sharded import _run_one_shard
from repro.telescope import write_trace

from tests.test_stream import assert_tables_equal, stream_scans


def _run_one_serve_job(proc):
    """Submit one small simulate job to a starting ``serve`` subprocess
    and wait until it is done."""
    line = proc.stderr.readline().decode()
    url = re.search(r"listening on (http://\S+)", line)
    assert url is not None, line
    spec = {"kind": "simulate", "year": 2016, "days": 3,
            "max_packets": 6_000, "min_scans": 40, "seed": 5}
    request = urllib.request.Request(
        f"{url.group(1)}/jobs", data=json.dumps(spec).encode(),
        method="POST", headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as reply:
        job_id = json.load(reply)["job"]["job_id"]
    with urllib.request.urlopen(
        f"{url.group(1)}/jobs/{job_id}?wait=60", timeout=90
    ) as reply:
        assert json.load(reply)["job"]["status"] == "done"


@pytest.fixture(scope="module")
def batch2020(sim2020):
    return sim2020.batch


@pytest.fixture(scope="module")
def scans2020(batch2020):
    return identify_scans(batch2020)


class TestShardOf:
    def test_in_range_and_deterministic(self):
        gen = np.random.default_rng(5)
        src = gen.integers(0, 2**32, 10_000, dtype=np.uint32)
        for n in (1, 2, 4, 7):
            shards = shard_of(src, n)
            assert shards.min() >= 0 and shards.max() < n
            assert np.array_equal(shards, shard_of(src, n))

    def test_single_shard_takes_everything(self):
        src = np.arange(1000, dtype=np.uint32)
        assert np.all(shard_of(src, 1) == 0)

    def test_adjacent_addresses_spread(self):
        """The multiplicative hash decorrelates sequential allocation: a
        contiguous /24 must not collapse onto one shard."""
        src = (np.uint32(0x0A000000) + np.arange(256)).astype(np.uint32)
        counts = np.bincount(shard_of(src, 4), minlength=4)
        assert np.all(counts > 0)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shard_of(np.array([1], dtype=np.uint32), 0)


class TestShardEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    @pytest.mark.parametrize("batch_size", [4096, 50_000, None])
    def test_column_equal_to_batch(self, batch2020, scans2020, n_shards,
                                   batch_size):
        table = stream_scans(batch2020, batch_size, n_shards=n_shards)
        assert_tables_equal(table, scans2020)

    def test_custom_criteria(self, batch2020):
        criteria = CampaignCriteria(min_distinct_dsts=50, min_rate_pps=10.0,
                                    expiry_s=900.0)
        table = stream_scans(batch2020, 8192, criteria, n_shards=2)
        assert_tables_equal(table, identify_scans(batch2020, criteria))

    def test_discard_counts_partition(self, batch2020):
        """Per-source discard decisions sum across shards exactly."""
        serial = StreamEngine(n_shards=1).run(
            BatchStreamSource(batch2020, batch_size=8192)
        )
        sharded = StreamEngine(n_shards=4).run(
            BatchStreamSource(batch2020, batch_size=8192)
        )
        assert (
            sharded.stats.sessions_discarded
            == serial.stats.sessions_discarded
        )
        assert sharded.stats.packets == len(batch2020)
        assert sharded.stats.peak_open_session_bytes > 0

    def test_merged_wall_time_is_the_whole_run(self, batch2020):
        """In-process shards run one after another, so the run's wall time
        (and its packets/s) covers every shard, not just the slowest."""
        result = StreamEngine(n_shards=3).run(
            BatchStreamSource(batch2020, batch_size=8192)
        )
        shard_walls = [run.stats.wall_s for run in result.shards]
        assert len(shard_walls) == 3 and min(shard_walls) > 0
        assert result.stats.wall_s >= sum(shard_walls)
        assert result.stats.peak_rss_bytes >= max(
            run.stats.peak_rss_bytes for run in result.shards
        )

    def test_worker_processes_match(self, tmp_path, batch2020, scans2020):
        """One real process-pool run: workers re-open the trace by path."""
        path = tmp_path / "cap.rtrace"
        write_trace(path, batch2020, meta={"year": 2020}, chunk_size=25_000)
        engine = StreamEngine(n_shards=2, workers=2)
        result = engine.run(TraceStreamSource(path, batch_size=16_384))
        assert_tables_equal(result.scans, scans2020)
        assert len(result.shards) == 2
        assert result.stats.packets == len(batch2020)
        for run in result.shards:
            assert run.stats.peak_rss_bytes > 0

    def test_workers_need_a_path_backed_source(self, batch2020):
        engine = StreamEngine(n_shards=2, workers=1)
        with pytest.raises(ValueError):
            engine.run(BatchStreamSource(batch2020, batch_size=8192))

    def test_stop_needs_in_process_shards(self, tmp_path, batch2020):
        """Pool workers cannot poll a stop callback; asking is an error,
        not a silently ignored flag."""
        path = tmp_path / "cap.rtrace"
        write_trace(path, batch2020, meta={"year": 2020})
        engine = StreamEngine(n_shards=2, workers=1)
        with pytest.raises(ValueError, match="workers=0"):
            engine.run(TraceStreamSource(path), stop=lambda: False)

    def test_every_run_enters_through_the_sharded_name(self, batch2020,
                                                       monkeypatch):
        """``StreamEngine.run`` enters the engine's body through
        ``ShardedStreamEngine.run``, looked up at call time, so a wrapper on
        that name (perfbench's traced run) sees every run."""
        body = ShardedStreamEngine.run
        calls = []

        def spy(engine, *args, **kwargs):
            calls.append(engine)
            return body(engine, *args, **kwargs)

        monkeypatch.setattr(ShardedStreamEngine, "run", spy)
        engine = StreamEngine(n_shards=2)
        result = engine.run(BatchStreamSource(batch2020, batch_size=50_000))
        assert calls == [engine]
        assert len(result.shards) == 2

    @pytest.mark.skipif(
        not Path("/proc").is_dir(), reason="needs /proc to list a process group"
    )
    def test_workers_die_with_a_killed_parent(self, tmp_path, batch2020):
        """A signal death of the parent of a pooled run alone (no clean-up)
        must not leave its workers running: not a sharded ``stream``, not a
        ``report`` over the year pool, and not ``serve`` after one job,
        whose pool forks its workers from an HTTP handler thread.  serve
        exits cleanly on SIGTERM, so it gets a SIGKILL."""
        path = tmp_path / "cap.rtrace"
        write_trace(path, batch2020, meta={"year": 2020}, chunk_size=10_000)
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        runs = [
            (["stream", str(path), "--shards", "2", "--workers", "2",
              "--batch-size", "64"], signal.SIGTERM),
            (["report", "--years", "2015,2016", "--workers", "2"],
             signal.SIGTERM),
            (["serve", "--port", "0", "--workers", "2",
              "--state-dir", str(tmp_path / "state"),
              "--cache-dir", str(tmp_path / "cache")], signal.SIGKILL),
        ]
        for args, sig in runs:
            serve = args[0] == "serve"
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *args],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE if serve else subprocess.DEVNULL,
                env=env, start_new_session=True,
            )
            pgid = proc.pid

            def group_size():
                size = 0
                for entry in Path("/proc").iterdir():
                    try:
                        stat = (entry / "stat").read_text()
                    except OSError:
                        continue
                    # "pid (comm) state ppid pgrp ...": comm may hold spaces.
                    if int(stat.rsplit(")", 1)[1].split()[2]) == pgid:
                        size += 1
                return size

            try:
                if serve:
                    _run_one_serve_job(proc)
                deadline = time.monotonic() + 60
                while group_size() < 3:
                    assert proc.poll() is None, (args[0], "ended before its workers ran")
                    assert time.monotonic() < deadline, (args[0], "workers never started")
                    time.sleep(0.02)
                proc.send_signal(sig)
                assert proc.wait(timeout=10) == -sig
                deadline = time.monotonic() + 10
                while True:
                    try:
                        os.killpg(pgid, 0)
                    except ProcessLookupError:
                        break
                    assert time.monotonic() < deadline, (
                        args[0], "pool workers outlived their killed parent"
                    )
                    time.sleep(0.05)
            finally:
                try:
                    os.killpg(pgid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
                if proc.stderr is not None:
                    proc.stderr.close()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StreamEngine(n_shards=0)
        with pytest.raises(ValueError):
            StreamEngine(workers=-1)


class TestMerge:
    def test_merge_reorders_into_serial_order(self, batch2020, scans2020):
        """Splitting the expected table by shard and merging restores it."""
        shards = shard_of(scans2020.src_ip, 3)
        parts = [scans2020.select(shards == s) for s in range(3)]
        assert_tables_equal(merge_scan_tables(parts), scans2020)

    def test_merge_empty(self):
        from repro.core.campaigns import ScanTable

        assert len(merge_scan_tables([])) == 0
        assert len(merge_scan_tables([ScanTable.empty()])) == 0

    def test_merge_single_passthrough(self, scans2020):
        assert merge_scan_tables([scans2020]) is scans2020


class TestShardedCheckpoints:
    def _trace(self, tmp_path, batch):
        path = tmp_path / "cap.rtrace"
        write_trace(path, batch, meta={"year": 2020}, chunk_size=10_000)
        return path

    def test_kill_and_resume_per_shard(self, tmp_path, batch2020, scans2020):
        """Every shard dies mid-stream; the rerun resumes all of them and
        still merges bit-identically — serial (one shard) included."""
        path = self._trace(tmp_path, batch2020)
        criteria, fingerprinter = CampaignCriteria(), ToolFingerprinter()

        class Killed(Exception):
            pass

        def killer(shard, stats):
            if stats.windows >= 3:
                raise Killed

        for n_shards in (1, 2, 4):
            config = StreamConfig(
                batch_size=8192, checkpoint_dir=tmp_path / f"ckpt{n_shards}",
                checkpoint_every=1,
            )
            for shard in range(n_shards):
                with pytest.raises(Killed):
                    _run_one_shard(
                        TraceStreamSource(path, batch_size=8192), shard,
                        n_shards, criteria, fingerprinter, config,
                        progress=killer,
                    )

            engine = StreamEngine(n_shards=n_shards, config=config)
            result = engine.run(TraceStreamSource(path, batch_size=8192))
            assert result.resumed
            assert all(run.resumed for run in result.shards)
            assert result.stats.resumed_packets > 0
            assert_tables_equal(result.scans, scans2020)

    def test_stop_skips_unstarted_shards(self, tmp_path, batch2020,
                                         scans2020):
        """``stop`` ends the in-process run at a window boundary of the
        current shard; later shards never start, and the rerun resumes the
        interrupted shard and merges bit-identically."""
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(
            batch_size=8192, checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=100,  # the flush must come from the stop
        )
        polls = []

        def stop():
            polls.append(None)
            return len(polls) >= 3

        first = StreamEngine(n_shards=2, config=config).run(
            TraceStreamSource(path, batch_size=8192), stop=stop
        )
        assert first.interrupted
        assert [run.shard for run in first.shards] == [0]
        assert first.shards[0].stats.windows == 3
        assert len(first.checkpoint_paths) == 1

        again = StreamEngine(n_shards=2, config=config).run(
            TraceStreamSource(path, batch_size=8192)
        )
        assert not again.interrupted
        assert [run.resumed for run in again.shards] == [True, False]
        assert_tables_equal(again.scans, scans2020)

    def test_rerun_after_completion_resumes_every_shard(
        self, tmp_path, batch2020, scans2020
    ):
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(batch_size=16_384,
                              checkpoint_dir=tmp_path / "ckpt")
        first = StreamEngine(n_shards=2, config=config).run(
            TraceStreamSource(path, batch_size=16_384)
        )
        again = StreamEngine(n_shards=2, config=config).run(
            TraceStreamSource(path, batch_size=16_384)
        )
        assert not first.resumed and again.resumed
        # Shards partition the packets, so the resumed total is the capture.
        assert again.stats.resumed_packets == len(batch2020)
        assert_tables_equal(again.scans, first.scans)
        assert_tables_equal(again.scans, scans2020)

    def test_shard_keys_are_distinct(self, tmp_path, batch2020):
        """Shard (i, n) keys never collide with each other, with other
        shard counts, or with the serial run's (0, 1) key."""
        path = self._trace(tmp_path, batch2020)
        store = CheckpointStore(tmp_path / "ckpt")
        source = TraceStreamSource(path, batch_size=8192)
        identity = source.identity()
        fp = ToolFingerprinter()
        criteria = CampaignCriteria()
        keys = {
            store.key_for(identity, criteria, fp, 8192, shard=(0, 1)),
            store.key_for(identity, criteria, fp, 8192, shard=(0, 2)),
            store.key_for(identity, criteria, fp, 8192, shard=(1, 2)),
            store.key_for(identity, criteria, fp, 8192, shard=(0, 4)),
        }
        assert len(keys) == 4

    def test_shard_snapshot_carries_raw_position(self, tmp_path, batch2020):
        """The extra shard_stream_pos array records the *unfiltered* stream
        position (what skip_packets needs), not the shard's packet count."""
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(batch_size=8192,
                              checkpoint_dir=tmp_path / "ckpt")
        criteria, fingerprinter = CampaignCriteria(), ToolFingerprinter()
        run = _run_one_shard(
            TraceStreamSource(path, batch_size=8192), 0, 2, criteria,
            fingerprinter, config,
        )
        store = CheckpointStore(config.checkpoint_dir)
        arrays = store.load(run.checkpoint_key, dict)
        assert arrays is not None
        assert int(arrays["shard_stream_pos"][0]) == len(batch2020)
        assert run.stats.packets < len(batch2020)  # shard 0's share only
