"""Unit tests for the .rtrace serialisation format."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from repro.telescope import (
    PacketBatch,
    SynPacket,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    read_trace,
    write_trace,
)


def sample_batch(n=100):
    gen = np.random.default_rng(0)
    return PacketBatch(
        time=np.sort(gen.uniform(0, 1000, n)),
        src_ip=gen.integers(0, 2**32, n, dtype=np.uint32),
        dst_ip=gen.integers(0, 2**32, n, dtype=np.uint32),
        src_port=gen.integers(0, 2**16, n, dtype=np.uint16),
        dst_port=gen.integers(0, 2**16, n, dtype=np.uint16),
        ip_id=gen.integers(0, 2**16, n, dtype=np.uint16),
        seq=gen.integers(0, 2**32, n, dtype=np.uint32),
        ttl=gen.integers(0, 256, n).astype(np.uint8),
        window=gen.integers(0, 2**16, n, dtype=np.uint16),
        flags=np.full(n, 2, dtype=np.uint8),
    )


class TestRoundTrip:
    def test_roundtrip_content(self, tmp_path):
        batch = sample_batch()
        path = tmp_path / "t.rtrace"
        written = write_trace(path, batch, meta={"year": 2020})
        assert written == len(batch)
        loaded, meta = read_trace(path)
        assert meta == {"year": 2020}
        assert len(loaded) == len(batch)
        for name, col in batch.columns().items():
            assert np.array_equal(loaded.columns()[name], col), name

    def test_roundtrip_empty(self, tmp_path):
        path = tmp_path / "empty.rtrace"
        write_trace(path, PacketBatch.empty())
        loaded, meta = read_trace(path)
        assert len(loaded) == 0 and meta == {}

    def test_chunked_write(self, tmp_path):
        batch = sample_batch(250)
        path = tmp_path / "c.rtrace"
        write_trace(path, batch, chunk_size=100)
        with TraceReader(path) as reader:
            chunks = list(reader)
        assert [len(c) for c in chunks] == [100, 100, 50]
        merged = PacketBatch.concat(chunks)
        assert np.array_equal(merged.seq, batch.seq)

    def test_bad_chunk_size(self, tmp_path):
        with pytest.raises(ValueError):
            write_trace(tmp_path / "x.rtrace", sample_batch(), chunk_size=0)

    def test_streaming_writer(self, tmp_path):
        path = tmp_path / "s.rtrace"
        with TraceWriter(path, meta={"k": 1}) as w:
            w.write(sample_batch(10))
            w.write(PacketBatch.empty())  # skipped, not an error
            w.write(sample_batch(5))
            assert w.packets_written == 15
        loaded, _ = read_trace(path)
        assert len(loaded) == 15

    def test_writer_requires_context(self, tmp_path):
        w = TraceWriter(tmp_path / "x.rtrace")
        with pytest.raises(RuntimeError):
            w.write(sample_batch(1))


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rtrace"
        path.write_bytes(b"NOTTRACE" + b"\x00" * 10)
        with pytest.raises(TraceFormatError):
            with TraceReader(path) as r:
                list(r)

    def test_version_mismatch_names_both_versions_and_path(self, tmp_path):
        # Same RTRACE family, different revision: the error must name the
        # found version, the supported version, and the offending file.
        path = tmp_path / "old.rtrace"
        path.write_bytes(b"RTRACE99" + b"\x00" * 10)
        with pytest.raises(TraceFormatError) as excinfo:
            with TraceReader(path) as r:
                list(r)
        message = str(excinfo.value)
        assert "RTRACE99" in message
        assert "RTRACE01" in message
        assert str(path) in message

    def test_truncated_meta(self, tmp_path):
        path = tmp_path / "trunc.rtrace"
        path.write_bytes(b"RTRACE01" + struct.pack("<I", 100) + b"{}")
        with pytest.raises(TraceFormatError):
            with TraceReader(path) as r:
                list(r)

    def test_truncated_chunk(self, tmp_path):
        good = tmp_path / "good.rtrace"
        write_trace(good, sample_batch(50))
        data = good.read_bytes()
        bad = tmp_path / "bad.rtrace"
        bad.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError):
            with TraceReader(bad) as r:
                list(r)

    def test_missing_terminator_tolerated(self, tmp_path):
        # A file ending exactly at a chunk boundary (no 0 sentinel) still reads.
        good = tmp_path / "good.rtrace"
        write_trace(good, sample_batch(10))
        data = good.read_bytes()
        trimmed = tmp_path / "trimmed.rtrace"
        trimmed.write_bytes(data[:-4])
        loaded, _ = read_trace(trimmed)
        assert len(loaded) == 10


class TestTruncationDiagnostics:
    def test_error_reports_offset_and_batch(self, tmp_path):
        good = tmp_path / "good.rtrace"
        write_trace(good, sample_batch(50), chunk_size=20)
        data = good.read_bytes()
        bad = tmp_path / "bad.rtrace"
        # Cut inside the *second* chunk's columns.
        header = 8 + 4 + 2  # magic + meta_len + "{}"
        chunk_bytes = 4 + 20 * 30
        bad.write_bytes(data[: header + chunk_bytes + chunk_bytes // 2])
        with pytest.raises(TraceFormatError) as excinfo:
            with TraceReader(bad) as r:
                list(r)
        message = str(excinfo.value)
        assert "byte offset" in message
        assert "batch 1" in message
        assert "bad.rtrace" in message

    def test_non_strict_drops_partial_final_batch(self, tmp_path):
        good = tmp_path / "good.rtrace"
        write_trace(good, sample_batch(50), chunk_size=20)
        data = good.read_bytes()
        bad = tmp_path / "bad.rtrace"
        header = 8 + 4 + 2
        chunk_bytes = 4 + 20 * 30
        bad.write_bytes(data[: header + 2 * chunk_bytes + 100])
        with TraceReader(bad, strict=False) as r:
            chunks = list(r)
            assert r.truncated
        assert [len(c) for c in chunks] == [20, 20]

    def test_non_strict_partial_header(self, tmp_path):
        good = tmp_path / "good.rtrace"
        write_trace(good, sample_batch(20))
        data = good.read_bytes()
        bad = tmp_path / "bad.rtrace"
        bad.write_bytes(data[:-2])  # mid-terminator: 2 of 4 header bytes
        with TraceReader(bad, strict=False) as r:
            chunks = list(r)
            assert r.truncated
        assert [len(c) for c in chunks] == [20]

    def test_non_strict_still_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rtrace"
        path.write_bytes(b"NOTTRACE" + b"\x00" * 16)
        with pytest.raises(TraceFormatError):
            with TraceReader(path, strict=False) as r:
                list(r)

    def test_read_trace_strict_flag(self, tmp_path):
        good = tmp_path / "good.rtrace"
        write_trace(good, sample_batch(50), chunk_size=20)
        data = good.read_bytes()
        bad = tmp_path / "bad.rtrace"
        bad.write_bytes(data[: len(data) - 200])
        with pytest.raises(TraceFormatError):
            read_trace(bad)
        loaded, _ = read_trace(bad, strict=False)
        assert len(loaded) == 40  # complete chunks only


class TestSkipPackets:
    def test_skip_whole_chunks(self, tmp_path):
        batch = sample_batch(100)
        path = tmp_path / "t.rtrace"
        write_trace(path, batch, chunk_size=30)
        with TraceReader(path) as r:
            remainder = r.skip_packets(60)
            assert len(remainder) == 0
            rest = PacketBatch.concat([remainder] + list(r))
        assert np.array_equal(rest.time, batch.time[60:])

    def test_skip_into_mid_chunk(self, tmp_path):
        batch = sample_batch(100)
        path = tmp_path / "t.rtrace"
        write_trace(path, batch, chunk_size=30)
        with TraceReader(path) as r:
            remainder = r.skip_packets(45)
            assert len(remainder) == 15
            rest = PacketBatch.concat([remainder] + list(r))
        assert np.array_equal(rest.time, batch.time[45:])
        assert np.array_equal(rest.src_ip, batch.src_ip[45:])

    def test_skip_zero(self, tmp_path):
        batch = sample_batch(10)
        path = tmp_path / "t.rtrace"
        write_trace(path, batch)
        with TraceReader(path) as r:
            assert len(r.skip_packets(0)) == 0
            assert len(PacketBatch.concat(list(r))) == 10

    def test_skip_beyond_end(self, tmp_path):
        path = tmp_path / "t.rtrace"
        write_trace(path, sample_batch(10))
        with TraceReader(path) as r:
            with pytest.raises(ValueError):
                r.skip_packets(11)

    def test_skip_negative(self, tmp_path):
        path = tmp_path / "t.rtrace"
        write_trace(path, sample_batch(10))
        with TraceReader(path) as r:
            with pytest.raises(ValueError):
                r.skip_packets(-1)


class TestMappedReader:
    """The reader maps the file: chunks are zero-copy views, and the chunk
    directory is checked when the reader is entered."""

    @pytest.mark.parametrize("n,chunk_size", [(1, 10), (100, 100), (250, 100),
                                              (250, 30), (1000, 256)])
    def test_equivalent_to_buffered(self, tmp_path, n, chunk_size):
        # Every chunk shape reads back as written: the chunk lengths, the
        # metadata and every column of every chunk.
        batch = sample_batch(n)
        path = tmp_path / "t.rtrace"
        write_trace(path, batch, meta={"year": 2020}, chunk_size=chunk_size)
        with TraceReader(path) as mapped:
            assert mapped.meta == {"year": 2020}
            assert mapped.total_packets == n
            chunks = list(mapped)
        starts = range(0, n, chunk_size)
        assert [len(c) for c in chunks] == [min(chunk_size, n - s) for s in starts]
        for got, start in zip(chunks, starts):
            want = batch[start:start + chunk_size]
            for name, col in want.columns().items():
                assert np.array_equal(got.columns()[name], col), name

    def test_views_are_zero_copy_and_readonly(self, tmp_path):
        path = tmp_path / "t.rtrace"
        write_trace(path, sample_batch(64))
        with TraceReader(path) as mapped:
            (chunk,) = list(mapped)
            for name, col in chunk.columns().items():
                assert not col.flags.writeable, name
                assert not col.flags.owndata, name  # a view into the map
                with pytest.raises(ValueError):
                    col[0] = 0

    def test_views_survive_reader_close(self, tmp_path):
        batch = sample_batch(64)
        path = tmp_path / "t.rtrace"
        write_trace(path, batch)
        with TraceReader(path) as mapped:
            (chunk,) = list(mapped)
        # The context has exited; the mapping is released lazily, so the
        # views stay readable.
        assert np.array_equal(chunk.seq, batch.seq)

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.rtrace"
        write_trace(path, PacketBatch.empty())
        with TraceReader(path) as mapped:
            assert mapped.total_packets == 0
            assert list(mapped) == []

    def test_skip_via_index(self, tmp_path):
        batch = sample_batch(100)
        path = tmp_path / "t.rtrace"
        write_trace(path, batch, chunk_size=30)
        # Whole-chunk boundary.
        with TraceReader(path) as mapped:
            remainder = mapped.skip_packets(60)
            assert len(remainder) == 0
            rest = PacketBatch.concat([remainder] + list(mapped))
        assert np.array_equal(rest.time, batch.time[60:])
        # Mid-chunk: the remainder is a zero-copy view.
        with TraceReader(path) as mapped:
            remainder = mapped.skip_packets(45)
            assert len(remainder) == 15
            assert not remainder.time.flags.owndata
            rest = PacketBatch.concat([remainder] + list(mapped))
        assert np.array_equal(rest.src_ip, batch.src_ip[45:])
        # Zero, beyond-end and negative skips, as in TestSkipPackets.
        with TraceReader(path) as mapped:
            assert len(mapped.skip_packets(0)) == 0
            assert len(PacketBatch.concat(list(mapped))) == 100
        with TraceReader(path) as mapped:
            with pytest.raises(ValueError):
                mapped.skip_packets(101)
            with pytest.raises(ValueError):
                mapped.skip_packets(-1)

    def test_bad_magic_and_version_errors(self, tmp_path):
        bad = tmp_path / "bad.rtrace"
        bad.write_bytes(b"NOTTRACE" + b"\x00" * 16)
        with pytest.raises(TraceFormatError):
            with TraceReader(bad):
                pass
        old = tmp_path / "old.rtrace"
        old.write_bytes(b"RTRACE99" + b"\x00" * 16)
        with pytest.raises(TraceFormatError) as excinfo:
            with TraceReader(old):
                pass
        message = str(excinfo.value)
        assert "RTRACE99" in message and "RTRACE01" in message

    def test_empty_file_is_bad_magic(self, tmp_path):
        empty = tmp_path / "zero.rtrace"
        empty.write_bytes(b"")
        with pytest.raises(TraceFormatError) as excinfo:
            with TraceReader(empty):
                pass
        assert "bad magic" in str(excinfo.value)

    def test_strict_truncated_chunk_raises(self, tmp_path):
        good = tmp_path / "good.rtrace"
        write_trace(good, sample_batch(50), chunk_size=20)
        data = good.read_bytes()
        bad = tmp_path / "bad.rtrace"
        header = 8 + 4 + 2
        chunk_bytes = 4 + 20 * 30
        bad.write_bytes(data[: header + chunk_bytes + chunk_bytes // 2])
        with pytest.raises(TraceFormatError) as excinfo:
            with TraceReader(bad):
                pass
        message = str(excinfo.value)
        assert "byte offset" in message and "batch 1" in message

    def test_non_strict_drops_partial_final_chunk(self, tmp_path):
        batch = sample_batch(50)
        good = tmp_path / "good.rtrace"
        write_trace(good, batch, chunk_size=20)
        data = good.read_bytes()
        bad = tmp_path / "bad.rtrace"
        header = 8 + 4 + 2
        chunk_bytes = 4 + 20 * 30
        bad.write_bytes(data[: header + 2 * chunk_bytes + 100])
        with TraceReader(bad, strict=False) as mapped:
            assert mapped.truncated  # known on open, before any chunk
            chunks = list(mapped)
        assert [len(c) for c in chunks] == [20, 20]
        kept = PacketBatch.concat(chunks)
        for name, col in batch[:40].columns().items():
            assert np.array_equal(kept.columns()[name], col), name

    def test_missing_terminator_tolerated(self, tmp_path):
        good = tmp_path / "good.rtrace"
        write_trace(good, sample_batch(10))
        trimmed = tmp_path / "trimmed.rtrace"
        trimmed.write_bytes(good.read_bytes()[:-4])
        with TraceReader(trimmed) as mapped:
            assert sum(len(c) for c in mapped) == 10


class TestReadTraceCopies:
    def test_loaded_batch_survives_in_place_rewrite(self, tmp_path):
        """``read_trace`` copies out of the mapping: rewriting the file in
        place with a shorter capture leaves the loaded batch intact.  Runs in
        a child process, because a view into a truncated mapping faults with
        SIGBUS instead of raising."""
        script = """
import sys
import numpy as np
from repro.telescope import read_trace, write_trace
from tests.test_trace import sample_batch

path = sys.argv[1]
batch = sample_batch(5000)
write_trace(path, batch)  # one chunk: the case a view could stand in for
loaded, _ = read_trace(path)
write_trace(path, sample_batch(10))  # same inode, truncated and rewritten
for name, col in batch.columns().items():
    assert np.array_equal(loaded.columns()[name], col), name
"""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        child = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "t.rtrace")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, (child.returncode, child.stderr)
