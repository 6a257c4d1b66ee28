"""Tests for repro.stream — streaming ingestion and incremental analysis.

The load-bearing property is *stream equivalence*: the incremental
identifier must reproduce batch ``identify_scans`` column by column at any
window size, and still after a kill-and-resume through a checkpoint.
"""

import itertools
import json
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaigns import CampaignCriteria, identify_scans
from repro.stream import (
    DEFAULT_BATCH_SIZE,
    BatchStreamSource,
    CheckpointStore,
    IncrementalScanIdentifier,
    StreamConfig,
    StreamEngine,
    StreamOrderError,
    StreamStats,
    TraceStreamSource,
    as_stream_source,
    format_bytes,
    peak_rss_bytes,
    rebatch,
)
from repro.telescope import PacketBatch, read_trace, write_trace
from repro.telescope.trace import TraceFormatError

from tests.campaigns_oracle import iter_source_sessions


def assert_tables_equal(actual, expected):
    """Column-by-column exact comparison of two ScanTables."""
    assert len(actual) == len(expected)
    for col in (
        "src_ip", "start", "end", "packets", "distinct_dsts", "primary_port",
        "match_fraction", "speed_pps", "coverage", "sequential",
        "window_mode", "ttl_mode",
    ):
        a = getattr(actual, col)
        b = getattr(expected, col)
        assert a.dtype == b.dtype, col
        assert np.array_equal(a, b), col
    assert [str(t) for t in actual.tool] == [str(t) for t in expected.tool]
    assert len(actual.port_sets) == len(expected.port_sets)
    for p, q in zip(actual.port_sets, expected.port_sets):
        assert p.dtype == q.dtype
        assert np.array_equal(p, q)


def stream_scans(capture, batch_size=DEFAULT_BATCH_SIZE, criteria=None,
                 n_shards=1):
    """The engine's scan table over ``capture`` (a batch, an ``.rtrace``
    path or a source), without checkpoints."""
    source = as_stream_source(capture, batch_size)
    return StreamEngine(criteria, n_shards=n_shards).run(source).scans


@pytest.fixture(scope="module")
def batch2020(sim2020):
    return sim2020.batch


@pytest.fixture(scope="module")
def scans2020(batch2020):
    return identify_scans(batch2020)


def ordered_batch(n=4000, sources=25, seed=3):
    """A small time-ordered batch with per-source packet runs."""
    gen = np.random.default_rng(seed)
    return PacketBatch(
        time=np.sort(gen.uniform(0, 5000, n)),
        src_ip=gen.integers(0, sources, n).astype(np.uint32),
        dst_ip=gen.integers(0, 2**32, n, dtype=np.uint32),
        src_port=gen.integers(1024, 2**16, n).astype(np.uint16),
        dst_port=gen.integers(0, 2**16, n, dtype=np.uint16),
        ip_id=gen.integers(0, 2**16, n, dtype=np.uint16),
        seq=gen.integers(0, 2**32, n, dtype=np.uint32),
        ttl=gen.integers(32, 128, n).astype(np.uint8),
        window=gen.integers(0, 2**16, n, dtype=np.uint16),
        flags=np.full(n, 2, dtype=np.uint8),
    )


class TestRebatch:
    def test_exact_window_sizes(self):
        batch = ordered_batch(1000)
        windows = list(rebatch(iter([batch]), batch_size=256))
        assert [len(w) for w in windows] == [256, 256, 256, 232]
        assert np.array_equal(
            PacketBatch.concat(windows).time, batch.time
        )

    def test_chunk_boundaries_invisible(self):
        batch = ordered_batch(1000)
        pieces = [batch[i:i + 97] for i in range(0, 1000, 97)]
        windows = list(rebatch(iter(pieces), batch_size=256))
        assert [len(w) for w in windows] == [256, 256, 256, 232]

    def test_never_emits_empty(self):
        windows = list(rebatch(iter([PacketBatch.empty()]), batch_size=10))
        assert windows == []

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            list(rebatch(iter([]), batch_size=0))

    def test_memoryless_resume(self):
        """Skipping N packets and re-batching reproduces the window tail."""
        batch = ordered_batch(1000)
        full = list(rebatch(iter([batch]), batch_size=256))
        skipped = list(rebatch(iter([batch[512:]]), batch_size=256))
        assert [len(w) for w in skipped] == [len(w) for w in full[2:]]
        assert np.array_equal(skipped[0].time, full[2].time)

    def test_exact_fit_chunk_is_zero_copy(self):
        """A chunk that exactly fills the window passes through as-is."""
        batch = ordered_batch(1024)
        chunks = [batch[i:i + 256] for i in range(0, 1024, 256)]
        windows = list(rebatch(iter(chunks), batch_size=256))
        assert len(windows) == 4
        for window, chunk in zip(windows, chunks):
            assert np.shares_memory(window.time, chunk.time)
            assert np.shares_memory(window.src_ip, chunk.src_ip)

    def test_split_views_share_memory(self):
        """Windows cut out of one larger chunk stay views into it."""
        batch = ordered_batch(1000)
        windows = list(rebatch(iter([batch]), batch_size=256))
        for window in windows:
            assert np.shares_memory(window.time, batch.time)

    def test_chunk_spanning_window_copies(self):
        """Only a window spanning two chunks concatenates (and thus copies)."""
        batch = ordered_batch(300)
        chunks = [batch[:200], batch[200:]]
        windows = list(rebatch(iter(chunks), batch_size=256))
        assert [len(w) for w in windows] == [256, 44]
        assert not np.shares_memory(windows[0].time, batch.time)
        assert np.shares_memory(windows[1].time, batch.time)


class TestStreamEquivalence:
    @pytest.mark.parametrize("batch_size", [4096, 50_000, None])
    def test_sim2020_column_equal(self, batch2020, scans2020, batch_size):
        table = stream_scans(batch2020, batch_size=batch_size)
        assert_tables_equal(table, scans2020)

    def test_custom_criteria(self, batch2020):
        criteria = CampaignCriteria(min_distinct_dsts=50, min_rate_pps=10.0,
                                    expiry_s=900.0)
        table = stream_scans(batch2020, batch_size=4096, criteria=criteria)
        assert_tables_equal(table, identify_scans(batch2020, criteria))

    def test_empty_stream(self):
        table = stream_scans(PacketBatch.empty())
        assert len(table) == 0

    def test_single_window(self, batch2020, scans2020):
        source = BatchStreamSource(batch2020, batch_size=None)
        assert_tables_equal(stream_scans(source), scans2020)

    def test_trace_source(self, tmp_path, batch2020, scans2020):
        path = tmp_path / "cap.rtrace"
        write_trace(path, batch2020, meta={"year": 2020}, chunk_size=25_000)
        table = stream_scans(str(path), batch_size=8192)
        assert_tables_equal(table, scans2020)

    def test_mapped_windows_are_file_views(self, tmp_path, batch2020):
        """With chunk size == window size, the fused pass never copies:
        windows reaching the identifier are read-only views into the map."""
        path = tmp_path / "cap.rtrace"
        write_trace(path, batch2020, meta={"year": 2020}, chunk_size=8192)
        source = TraceStreamSource(path, batch_size=8192)
        windows = list(source.windows())
        assert sum(len(w) for w in windows) == len(batch2020)
        for window in windows:
            assert not window.time.flags.owndata
            assert not window.time.flags.writeable

    def test_truncated_trace_source(self, tmp_path, batch2020):
        """The source checks the chunk directory when it is built: strict
        raises there; non-strict windows the complete chunks only."""
        good = tmp_path / "good.rtrace"
        write_trace(good, batch2020, meta={"year": 2020}, chunk_size=8192)
        cut = tmp_path / "cut.rtrace"
        # Cut inside the third chunk's columns.
        header = 8 + 4 + len(b'{"year": 2020}')
        chunk_bytes = 4 + 8192 * 30
        cut.write_bytes(good.read_bytes()[: header + 2 * chunk_bytes + 100])
        with pytest.raises(TraceFormatError, match="batch 2"):
            TraceStreamSource(cut, batch_size=4096)
        source = TraceStreamSource(cut, batch_size=4096, strict=False)
        assert source.truncated
        kept = PacketBatch.concat(list(source.windows()))
        assert source.truncated
        assert np.array_equal(kept.time, batch2020.time[: 2 * 8192])
        assert np.array_equal(kept.src_ip, batch2020.src_ip[: 2 * 8192])

    def test_out_of_order_rejected(self):
        batch = ordered_batch(200)
        identifier = IncrementalScanIdentifier()
        identifier.consume(batch[100:])
        with pytest.raises(StreamOrderError):
            identifier.consume(batch[:100])


#: Clock of the tie-heavy captures: every timestamp is a whole number of
#: ticks and the expiry is three ticks, so packets often share a timestamp
#: and some in-source gaps equal ``expiry_s`` exactly.
TICK_S = 10.0
TIED_CRITERIA = CampaignCriteria(
    min_distinct_dsts=30, min_rate_pps=300_000.0, expiry_s=3 * TICK_S
)


def tied_capture(seed):
    """A small time-ordered capture of bursty sources on a coarse clock.

    Each of 1-4 sources sends 1-4 bursts of 1-150 packets over 1-3 ticks,
    each burst starting 1-5 ticks after the previous one's last packet, so
    sessions split at gaps above three ticks but not at exactly three.
    Packets with equal timestamps keep a random capture order, and
    destinations, destination ports, windows and TTLs come from small sets,
    so distinct counts, header modes and fingerprints all depend on which
    packets of a session come first.
    """
    gen = np.random.default_rng(seed)
    srcs, ticks = [], []
    for src in range(1, int(gen.integers(2, 6))):
        tick = int(gen.integers(0, 6))
        for _ in range(int(gen.integers(1, 5))):
            size = int(gen.integers(1, 151))
            burst = tick + np.sort(gen.integers(0, int(gen.integers(1, 4)), size))
            srcs.append(np.full(size, src, dtype=np.uint32))
            ticks.append(burst)
            tick = int(burst[-1]) + int(gen.integers(1, 6))
    shuffle = gen.permutation(sum(s.size for s in srcs))
    n = shuffle.size
    return PacketBatch(
        time=np.concatenate(ticks)[shuffle] * TICK_S,
        src_ip=np.concatenate(srcs)[shuffle],
        dst_ip=gen.integers(0, 48, n).astype(np.uint32),
        src_port=gen.integers(1024, 2**16, n).astype(np.uint16),
        dst_port=gen.choice(np.array([22, 80, 443], dtype=np.uint16), n),
        ip_id=gen.integers(0, 2**16, n, dtype=np.uint16),
        seq=gen.integers(0, 2**32, n, dtype=np.uint32),
        ttl=gen.choice(np.array([40, 50, 60], dtype=np.uint8), n),
        window=gen.choice(np.array([1024, 2048, 65535], dtype=np.uint16), n),
        flags=np.full(n, 2, dtype=np.uint8),
    ).sorted_by_time()


def stream_in_pieces(batch, cuts, criteria=None, checkpoint_at=None):
    """Feed ``batch`` cut before each packet index in ``cuts``.

    With ``checkpoint_at=i`` the identifier goes through ``snapshot`` →
    ``write_trace`` → ``read_trace`` → ``restore`` into a fresh one before
    piece ``i`` (or before ``finalize`` when ``i`` is the number of pieces).
    """
    identifier = IncrementalScanIdentifier(criteria)
    bounds = [0, *cuts, len(batch)]
    for i in range(len(bounds)):
        if i == checkpoint_at:
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "snapshot.rtrace"
                write_trace(path, PacketBatch.empty(),
                            meta=identifier.snapshot())
                _, arrays = read_trace(path)
            identifier = IncrementalScanIdentifier(criteria)
            identifier.restore(arrays)
        if i + 1 < len(bounds):
            identifier.consume(batch[bounds[i]:bounds[i + 1]])
    return identifier, identifier.finalize()


def one_source(times, window, ttl, src=7, first_dst=1000):
    """Packets of one source to distinct, scattered destinations (so no
    sweep is detected), in capture order."""
    n = len(times)
    return PacketBatch(
        time=np.asarray(times, dtype=np.float64),
        src_ip=np.full(n, src, dtype=np.uint32),
        dst_ip=(first_dst + np.arange(n) * 7919 % 100_003).astype(np.uint32),
        src_port=np.full(n, 40_000, dtype=np.uint16),
        dst_port=np.full(n, 443, dtype=np.uint16),
        ip_id=np.arange(n, dtype=np.uint16),
        seq=(np.arange(n, dtype=np.uint32) * 7919).astype(np.uint32),
        ttl=np.asarray(ttl, dtype=np.uint8),
        window=np.asarray(window, dtype=np.uint16),
        flags=np.full(n, 2, dtype=np.uint8),
    )


class TestOneIdentifier:
    """The stream runs the batch kernel, so its table *is* the batch table:
    at any cut, across a checkpoint, with timestamp ties and boundary gaps."""

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_cut_gives_the_batch_table(self, seed, data):
        batch = tied_capture(seed)
        n = len(batch)
        cuts = sorted(data.draw(
            st.lists(st.integers(1, n - 1), max_size=8, unique=True)
            if n > 1 else st.just([])
        ))
        checkpoint_at = data.draw(st.integers(0, len(cuts) + 1))
        identifier, table = stream_in_pieces(
            batch, cuts, TIED_CRITERIA, checkpoint_at
        )
        expected = identify_scans(batch, TIED_CRITERIA)
        assert_tables_equal(table, expected)
        sessions = sum(
            1 for _ in iter_source_sessions(batch, TIED_CRITERIA.expiry_s)
        )
        assert identifier.sessions_discarded == sessions - len(expected)

    def test_equal_timestamps_across_a_cut_keep_capture_order(self):
        """130 packets share one (src, time); the header modes use the
        first 64 in capture order, and the cut falls inside that head.  The
        carried 40 must sort before the window's 90."""
        window = [1000] * 40 + [2000] * 90
        ttl = [40] * 40 + [50] * 90
        batch = one_source([100.0] * 130, window, ttl)
        expected = identify_scans(batch)
        assert expected.window_mode.tolist() == [1000]
        assert expected.ttl_mode.tolist() == [40]
        _, table = stream_in_pieces(batch, [40])
        assert_tables_equal(table, expected)

    def test_gap_of_exactly_expiry_across_a_cut(self):
        """A gap equal to ``expiry_s`` does not split a session, so a
        session whose last packet is exactly one expiry behind the
        watermark is still open and takes the next window's packets."""
        expiry = CampaignCriteria().expiry_s
        head = one_source([0.0] * 120, [1024] * 120, [50] * 120)
        other = one_source([expiry], [1024], [50], src=9)
        tail = one_source(
            [expiry] * 50, [1024] * 50, [50] * 50, first_dst=3000
        )
        batch = PacketBatch.concat([head, other, tail])
        expected = identify_scans(batch)
        assert expected.packets.tolist() == [170]
        identifier, table = stream_in_pieces(batch, [121])
        assert_tables_equal(table, expected)
        assert identifier.sessions_discarded == 1

    def test_one_nan_timestamp_agrees_with_batch(self, batch2020):
        """NaN sorts last among its source's packets and never splits or
        closes a session, the same way in both paths."""
        columns = {name: np.array(col) for name, col in batch2020.columns().items()}
        columns["time"][60_000] = np.nan
        batch = PacketBatch(**columns)
        assert_tables_equal(
            stream_scans(batch, batch_size=8192), identify_scans(batch)
        )


class TestBoundedMemory:
    def test_sessions_finalise_as_stream_advances(self, batch2020):
        """Open-session state stays bounded: quiet sources retire mid-run."""
        identifier = IncrementalScanIdentifier()
        peaks = []
        for window in BatchStreamSource(batch2020, batch_size=8192).windows():
            identifier.consume(window)
            peaks.append(identifier.open_packets)
        # If no session ever finalised, open_packets would approach the
        # capture length; with one-hour expiry it must stay far below it.
        assert max(peaks) < len(batch2020)
        assert identifier.scans_found > 0  # scans finalised before the end
        assert identifier.buffered_bytes > 0
        identifier.finalize()
        assert identifier.open_sessions == 0
        assert identifier.buffered_bytes == 0

    @pytest.mark.parametrize("batch_size", [4096, 20_000, 65_536])
    def test_candidate_gauge_equals_pairwise_unique(
        self, batch2020, batch_size
    ):
        """``candidate_sessions`` after every window equals the row-wise
        ``np.unique`` count of open sources with enough destinations."""
        identifier = IncrementalScanIdentifier()
        threshold = identifier.criteria.min_distinct_dsts
        gauges = []
        for window in BatchStreamSource(
            batch2020, batch_size=batch_size
        ).windows():
            identifier.consume(window)
            carry = identifier._carry
            expected = 0
            if len(carry):
                pairs = np.unique(
                    np.stack([carry.src_ip, carry.dst_ip]), axis=1
                )
                _, per_src = np.unique(pairs[0], return_counts=True)
                expected = int(np.count_nonzero(per_src >= threshold))
            assert identifier.candidate_sessions == expected
            gauges.append(expected)
        assert max(gauges) > 0

    def test_stats_surface_reports_memory(self, batch2020):
        engine = StreamEngine(config=StreamConfig(batch_size=8192))
        seen = []
        result = engine.run(
            BatchStreamSource(batch2020, batch_size=8192),
            progress=lambda shard, stats: seen.append(stats.to_dict()),
        )
        assert result.stats.packets == len(batch2020)
        assert result.stats.peak_rss_bytes > 0
        assert result.stats.wall_s > 0
        assert result.stats.packets_per_s > 0
        assert any(s["open_sessions"] > 0 for s in seen)
        assert any(s["buffered_bytes"] > 0 for s in seen)
        # The bounded-memory claim in one number: sessions were buffered at
        # some point, and the high-water mark survives the final drain
        # (buffered_bytes itself is 0 again once every session retired).
        assert result.stats.peak_open_session_bytes > 0
        assert result.stats.peak_open_session_bytes >= max(
            s["buffered_bytes"] for s in seen
        )
        assert result.stats.to_dict()["peak_open_session_bytes"] > 0
        line = result.stats.summary_line()
        assert "packets" in line and "RSS" in line


class TestCheckpointResume:
    def _trace(self, tmp_path, batch):
        path = tmp_path / "cap.rtrace"
        write_trace(path, batch, meta={"year": 2020}, chunk_size=10_000)
        return path

    def test_kill_and_resume_round_trip(self, tmp_path, batch2020, scans2020):
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(
            batch_size=8192, checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=1,
        )

        class Killed(Exception):
            pass

        windows_before_kill = 3
        calls = []

        def killer(shard, stats):
            calls.append(stats.windows)
            if len(calls) >= windows_before_kill:
                raise Killed

        with pytest.raises(Killed):
            StreamEngine(config=config).run(
                TraceStreamSource(path, batch_size=8192), progress=killer
            )

        result = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=8192)
        )
        assert result.resumed
        assert result.stats.resumed_packets == windows_before_kill * 8192
        assert_tables_equal(result.scans, scans2020)

    def test_graceful_stop_flushes_checkpoint_and_resumes(
        self, tmp_path, batch2020, scans2020
    ):
        """A ``stop`` callback ends the run between windows with the final
        checkpoint flushed; the next run resumes and finishes identically.
        """
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(
            batch_size=8192, checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=100,  # force the flush to come from the stop
        )
        windows = []

        def stop():
            windows.append(None)
            return len(windows) >= 3

        first = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=8192), stop=stop
        )
        assert first.interrupted
        assert first.stats.packets == 3 * 8192
        assert len(first.checkpoint_paths) == 1
        assert first.checkpoint_paths[0].exists()

        second = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=8192)
        )
        assert second.resumed and not second.interrupted
        assert second.stats.resumed_packets == 3 * 8192
        assert_tables_equal(second.scans, scans2020)

    def test_stop_never_true_is_inert(self, tmp_path, batch2020, scans2020):
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(batch_size=16_384,
                              checkpoint_dir=tmp_path / "ckpt")
        result = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=16_384), stop=lambda: False
        )
        assert not result.interrupted
        assert_tables_equal(result.scans, scans2020)

    def test_rerun_after_completion_is_cheap(self, tmp_path, batch2020,
                                             scans2020):
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(batch_size=16_384,
                              checkpoint_dir=tmp_path / "ckpt")
        first = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=16_384)
        )
        again = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=16_384)
        )
        assert not first.resumed and again.resumed
        assert again.stats.resumed_packets == len(batch2020)
        assert_tables_equal(again.scans, first.scans)
        assert_tables_equal(again.scans, scans2020)

    @staticmethod
    def _damage(path, shape):
        blob = path.read_bytes()
        if shape == "truncated":
            blob = blob[: len(blob) // 2]
        elif shape == "emptied":
            blob = b""
        elif shape == "garbage":
            blob = b"not a checkpoint" * 64
        else:  # one byte flipped mid-file
            middle = len(blob) // 2
            blob = blob[:middle] + bytes([blob[middle] ^ 0xFF]) + blob[middle + 1:]
        path.write_bytes(blob)

    @pytest.mark.parametrize(
        "shape", ["truncated", "emptied", "garbage", "flipped"]
    )
    def test_damaged_checkpoint_is_a_miss(self, tmp_path, batch2020,
                                          scans2020, shape):
        """An unreadable checkpoint restarts the stream from packet 0 (and
        the next save replaces it) instead of crashing the resume."""
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(batch_size=16_384,
                              checkpoint_dir=tmp_path / "ckpt")
        first = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=16_384)
        )
        run = first.shards[0]
        self._damage(run.checkpoint_path, shape)

        store = CheckpointStore(config.checkpoint_dir)
        assert run.checkpoint_path.name.endswith(".stream.rtrace")
        assert store.load(run.checkpoint_key, dict) is None

        again = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=16_384)
        )
        assert not again.resumed
        assert_tables_equal(again.scans, first.scans)
        assert_tables_equal(again.scans, scans2020)
        assert store.load(run.checkpoint_key, dict) is not None

    @staticmethod
    def _rewrite_directory(path, edit):
        """Rewrite the array directory of the checkpoint at ``path`` as
        ``edit(directory)`` returns it, with a valid header checksum: a
        hostile file, not a damaged one."""
        blob = path.read_bytes()
        (meta_len,) = struct.unpack_from("<I", blob, 8)
        block = 12 + meta_len  # the array block's length field
        (block_len,) = struct.unpack_from("<I", blob, block)
        (dir_len,) = struct.unpack_from("<I", blob, block + 4)
        listing = blob[block + 8:block + 8 + dir_len]
        data = blob[block + 8 + dir_len:block + 4 + block_len]
        listing = json.dumps(edit(json.loads(listing))).encode("utf-8")
        arrays = struct.pack("<I", len(listing)) + listing + data
        header = blob[:block] + struct.pack("<I", len(arrays)) + arrays
        tail = blob[block + 4 + block_len + 4:]
        path.write_bytes(header + struct.pack("<I", zlib.crc32(header)) + tail)

    def test_oversized_array_directory_is_a_miss(self, tmp_path, batch2020,
                                                  scans2020):
        """An entry whose directory declares a 74.5 GiB array in a file of
        a few kB is a miss, not a ``MemoryError``, and the run restarts."""
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(batch_size=16_384,
                              checkpoint_dir=tmp_path / "ckpt")
        run = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=16_384)
        ).shards[0]

        def oversize(directory):
            for entry in directory:
                if entry[0] == "counters":
                    entry[2] = 10_000_000_000
            return directory

        self._rewrite_directory(run.checkpoint_path, oversize)
        with pytest.raises(TraceFormatError, match="overruns the block"):
            read_trace(run.checkpoint_path)

        store = CheckpointStore(config.checkpoint_dir)
        assert store.load(run.checkpoint_key, dict) is None
        again = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=16_384)
        )
        assert not again.resumed
        assert_tables_equal(again.scans, scans2020)

    def test_checkpoint_missing_an_array_is_a_miss(self, tmp_path, batch2020,
                                                   scans2020):
        """A well-formed entry under the run's key that lacks one of the
        snapshot's arrays does not restore: a miss, and the run restarts
        from packet 0 instead of crashing the resume."""
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(batch_size=16_384,
                              checkpoint_dir=tmp_path / "ckpt")
        run = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=16_384)
        ).shards[0]
        store = CheckpointStore(config.checkpoint_dir)
        arrays = store.load(run.checkpoint_key, dict)
        del arrays["counters"]
        store.save(run.checkpoint_key, arrays)
        assert "counters" not in store.load(run.checkpoint_key, dict)

        again = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=16_384)
        )
        assert not again.resumed
        assert again.stats.resumed_packets == 0
        assert_tables_equal(again.scans, scans2020)

    @pytest.mark.parametrize("windows, position", [
        pytest.param(None, 10**9, id="1000000000"),
        pytest.param(None, -1, id="-1"),
        pytest.param(None, 5, id="5"),
        # A serial run stopped after 3 windows, its position moved ahead
        # of the 3 * 8192 packets its snapshot holds, inside the capture.
        pytest.param(3, 4 * 8192, id="ahead"),
    ])
    def test_checkpoint_position_the_run_cannot_resume_from_is_a_miss(
        self, tmp_path, batch2020, scans2020, windows, position
    ):
        """A well-formed entry under the run's key whose raw-stream position
        the capture cannot seek to (past its end, negative), that lies
        behind the packets the snapshot consumed, or, in a serial run,
        ahead of them is a miss: the run restarts from packet 0 and its
        next save replaces the entry, instead of every rerun failing on the
        seek or on the stream order, or silently skipping packets."""
        path = self._trace(tmp_path, batch2020)
        config = StreamConfig(batch_size=8192,
                              checkpoint_dir=tmp_path / "ckpt")
        polls = itertools.count(1)
        stop = None if windows is None else (lambda: next(polls) >= windows)
        run = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=8192), stop=stop
        ).shards[0]
        store = CheckpointStore(config.checkpoint_dir)
        arrays = store.load(run.checkpoint_key, dict)
        consumed = len(batch2020) if windows is None else windows * 8192
        assert arrays["shard_stream_pos"].tolist() == [consumed]
        if windows is not None:
            assert consumed < position < len(batch2020)
        arrays["shard_stream_pos"] = np.array([position], dtype=np.int64)
        store.save(run.checkpoint_key, arrays)

        again = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=8192)
        )
        assert not again.resumed
        assert again.stats.resumed_packets == 0
        assert_tables_equal(again.scans, scans2020)
        saved = store.load(run.checkpoint_key, dict)
        assert saved["shard_stream_pos"].tolist() == [len(batch2020)]

    def test_v1_capture_keeps_its_identity(self):
        """Checkpoints written over an ``RTRACE01`` capture before v2 still
        resume: its identity is the one the v1 reader computed."""
        from tests.test_trace import V1_CAPTURE

        assert TraceStreamSource(V1_CAPTURE).identity() == {
            "kind": "rtrace", "size": 853,
            "meta_blake2b": "b95eeca5a6e90f7673a8f0be19cf7463",
        }

    def test_resume_over_a_capture_with_array_metadata(self, tmp_path,
                                                       batch2020, scans2020):
        path = tmp_path / "cap.rtrace"
        write_trace(path, batch2020, chunk_size=10_000,
                    meta={"year": 2020, "ids": np.arange(9, dtype=np.int64)})
        config = StreamConfig(batch_size=8192, checkpoint_dir=tmp_path / "ckpt",
                              checkpoint_every=1)

        class Killed(Exception):
            pass

        def killer(shard, stats):
            if stats.windows >= 2:
                raise Killed

        with pytest.raises(Killed):
            StreamEngine(config=config).run(
                TraceStreamSource(path, batch_size=8192), progress=killer)
        result = StreamEngine(config=config).run(
            TraceStreamSource(path, batch_size=8192))
        assert result.resumed
        assert_tables_equal(result.scans, scans2020)
        # The digest covers the arrays: other values, another capture.
        other = tmp_path / "other.rtrace"
        write_trace(other, batch2020, chunk_size=10_000,
                    meta={"year": 2020, "ids": np.arange(1, 10, dtype=np.int64)})
        assert (TraceStreamSource(other).identity()
                != TraceStreamSource(path).identity())

    def test_key_separates_configurations(self, tmp_path, batch2020):
        path = self._trace(tmp_path, batch2020)
        store = CheckpointStore(tmp_path / "ckpt")
        source = TraceStreamSource(path, batch_size=8192)
        from repro.core.fingerprints import ToolFingerprinter

        fp = ToolFingerprinter()
        serial = (0, 1)
        base = store.key_for(
            source.identity(), CampaignCriteria(), fp, 8192, serial
        )
        other_batch = store.key_for(
            source.identity(), CampaignCriteria(), fp, 4096, serial
        )
        other_criteria = store.key_for(
            source.identity(), CampaignCriteria(min_rate_pps=10.0), fp, 8192,
            serial,
        )
        assert len({base, other_batch, other_criteria}) == 3

    def test_stale_checkpoint_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        identifier = IncrementalScanIdentifier()
        identifier.consume(ordered_batch(500))
        store.save("abc123", identifier.snapshot())
        assert store.load("abc123", dict) is not None
        # A key mismatch (file renamed / squatting) is a miss, not an error.
        path = store.path_for("abc123")
        path.rename(store.path_for("def456"))
        assert store.load("def456", dict) is None

    def test_snapshot_restore_round_trip(self, batch2020, scans2020):
        source = BatchStreamSource(batch2020, batch_size=8192)
        identifier = IncrementalScanIdentifier()
        windows = list(source.windows())
        for window in windows[:4]:
            identifier.consume(window)
        arrays = identifier.snapshot()
        clone = IncrementalScanIdentifier()
        clone.restore({k: np.asarray(v) for k, v in arrays.items()})
        assert clone.packets_consumed == identifier.packets_consumed
        assert clone.open_sessions == identifier.open_sessions
        assert clone.buffered_bytes > 0
        for window in windows[4:]:
            clone.consume(window)
        assert_tables_equal(clone.finalize(), scans2020)


class TestStats:
    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.0 KB"
        assert format_bytes(5 * 1024**2) == "5.0 MB"

    def test_peak_rss_positive_on_posix(self):
        assert peak_rss_bytes() >= 0

    def test_progress_line_renders(self):
        stats = StreamStats(packets=1000, windows=2, wall_s=0.5)
        assert "w=2" in stats.progress_line()
        assert "packets=1,000" in stats.progress_line()
