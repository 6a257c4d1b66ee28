"""Unit tests for the .rtrace serialisation format."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

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
from repro.telescope.packet import _COLUMNS
from repro.telescope.trace import _COLUMN_ORDER


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


class TestColumnLayout:
    """The serialised column order mirrors the in-memory column table."""

    def test_names_match_packet_columns_in_order(self):
        assert [n for n, _ in _COLUMN_ORDER] == [n for n, _ in _COLUMNS]

    def test_each_column_keeps_its_declared_dtype_little_endian(self):
        for (name, spelling), (_, declared) in zip(_COLUMN_ORDER, _COLUMNS):
            assert np.dtype(spelling) == np.dtype(declared).newbyteorder("<"), name

    def test_multibyte_columns_spell_explicit_little_endian(self):
        for name, spelling in _COLUMN_ORDER:
            if np.dtype(spelling).itemsize > 1:
                assert spelling.startswith("<"), name


class TestInterruptedWrite:
    """A write lands whole or not at all: the target path only ever holds
    a complete capture."""

    def _fail_after_two_chunks(self, path):
        with pytest.raises(RuntimeError, match="boom"):
            with TraceWriter(path, meta={"k": 1}) as w:
                w.write(sample_batch(100))
                w.write(sample_batch(100))
                raise RuntimeError("boom")

    def test_failed_write_leaves_previous_capture_byte_identical(self, tmp_path):
        path = tmp_path / "t.rtrace"
        write_trace(path, sample_batch(30), meta={"old": True})
        before = path.read_bytes()
        self._fail_after_two_chunks(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.rtrace"]

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.rtrace"
        self._fail_after_two_chunks(path)
        assert list(tmp_path.iterdir()) == []

    def test_new_file_mode_follows_umask(self, tmp_path):
        write_trace(tmp_path / "t.rtrace", sample_batch(5))
        (tmp_path / "plain").write_bytes(b"")
        mode = (tmp_path / "t.rtrace").stat().st_mode & 0o777
        assert mode == (tmp_path / "plain").stat().st_mode & 0o777

    def test_write_through_symlink_replaces_its_target(self, tmp_path):
        target = tmp_path / "store" / "t.rtrace"
        target.parent.mkdir()
        write_trace(target, sample_batch(30))
        link = tmp_path / "link.rtrace"
        link.symlink_to(target)
        write_trace(link, sample_batch(10))
        assert link.is_symlink()
        assert len(read_trace(target)[0]) == 10
        assert [p.name for p in target.parent.iterdir()] == ["t.rtrace"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.rtrace", "store"]

    def test_rewrite_puts_a_new_file_at_the_path(self, tmp_path):
        """The rename replaces the inode: another hard link keeps the old
        capture, and the old file's mode does not carry over."""
        path = tmp_path / "t.rtrace"
        write_trace(path, sample_batch(30))
        fresh_mode = path.stat().st_mode & 0o777
        path.chmod(0o400 if fresh_mode != 0o400 else 0o600)
        other = tmp_path / "other.rtrace"
        os.link(path, other)
        before = other.read_bytes()
        write_trace(path, sample_batch(10))
        assert other.read_bytes() == before
        assert len(read_trace(path)[0]) == 10
        assert path.stat().st_mode & 0o777 == fresh_mode

    def test_held_reader_survives_rewrite_of_its_path(self, tmp_path):
        """A reader's views stay valid, with the old values, while
        ``write_trace`` rewrites the same path.  Runs in a child process,
        because a view into a truncated mapping dies of SIGBUS instead of
        raising."""
        script = """
import sys
import numpy as np
from repro.telescope import TraceReader, write_trace
from tests.test_trace import sample_batch

path = sys.argv[1]
batch = sample_batch(200_000)
write_trace(path, batch)
with TraceReader(path) as reader:
    (chunk,) = list(reader)
    write_trace(path, sample_batch(10))
    for name, col in batch.columns().items():
        assert np.array_equal(chunk.columns()[name], col), name
"""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        child = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "t.rtrace")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, (child.returncode, child.stderr)


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
        assert "RTRACE02" in message and "RTRACE01" in message
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
        # An RTRACE01 file ending exactly at a chunk boundary (no 0
        # sentinel) still reads; a v2 file must end with its end marker.
        trimmed = tmp_path / "trimmed.rtrace"
        trimmed.write_bytes(V1_CAPTURE.read_bytes()[:-4])
        loaded, _ = read_trace(trimmed)
        assert len(loaded) == 25


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
        assert "RTRACE99" in message
        assert "RTRACE02" in message and "RTRACE01" in message

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
        # Without strict, a v2 capture cut before its end marker reads
        # every chunk and reports the cut.
        good = tmp_path / "good.rtrace"
        write_trace(good, sample_batch(10))
        trimmed = tmp_path / "trimmed.rtrace"
        trimmed.write_bytes(good.read_bytes()[:-4])
        with TraceReader(trimmed, strict=False) as mapped:
            assert sum(len(c) for c in mapped) == 10
            assert mapped.truncated


class TestReadTraceCopies:
    def test_loaded_batch_survives_in_place_rewrite(self, tmp_path):
        """``read_trace`` copies out of the mapping: rewriting the path with
        a shorter capture leaves the loaded batch intact.  Runs in a child
        process, so a fault in the mapping (SIGBUS) fails this test rather
        than the suite."""
        script = """
import sys
import numpy as np
from repro.telescope import read_trace, write_trace
from tests.test_trace import sample_batch

path = sys.argv[1]
batch = sample_batch(5000)
write_trace(path, batch)  # one chunk: the case a view could stand in for
loaded, _ = read_trace(path)
write_trace(path, sample_batch(10))  # rewrite the path, shorter
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


def _v2_file(meta_bytes, arrays, chunks=b""):
    """An ``RTRACE02`` file around raw metadata and array-block bytes, with
    a valid header CRC: what a hostile writer can make."""
    header = (b"RTRACE02" + struct.pack("<I", len(meta_bytes)) + meta_bytes
              + struct.pack("<I", len(arrays)) + arrays)
    return header + struct.pack("<I", zlib.crc32(header)) + chunks + b"\0" * 4


def _array_block(directory, data=b""):
    listing = json.dumps(directory).encode("utf-8")
    return struct.pack("<I", len(listing)) + listing + data


class TestArrayMeta:
    """Metadata arrays are stored as typed columns, not JSON."""

    ARRAYS = {
        "flags": np.array([True, False, True]),
        "i1": np.array([-128, 0, 127], dtype=np.int8),
        "i8": np.array([-2**63, 0, 2**63 - 1], dtype=np.int64),
        "u2": np.array([0, 65535], dtype=np.uint16),
        "u4": np.array([0, 0xFFFFFFFF], dtype=np.uint32),
        "f2": np.array([0.5, -2.0], dtype=np.float16),
        "f8": np.array([np.pi, -0.0, np.inf, np.nan]),
        "names": np.array(["zmap", "", "ü"]),
        "empty": np.zeros(0, dtype=np.int32),
    }

    def _assert_arrays_equal(self, got):
        for name, want in self.ARRAYS.items():
            assert got[name].dtype == want.dtype.newbyteorder("<"), name
            np.testing.assert_array_equal(got[name], want, err_msg=name)

    def test_roundtrip_keeps_values_and_dtypes(self, tmp_path):
        path = tmp_path / "t.rtrace"
        write_trace(path, sample_batch(10),
                    meta={"year": 2020, "note": [1, "a"], **self.ARRAYS})
        loaded, meta = read_trace(path)
        assert set(meta) == {"year", "note", *self.ARRAYS}
        assert meta["year"] == 2020 and meta["note"] == [1, "a"]
        self._assert_arrays_equal(meta)
        assert len(loaded) == 10
        # Only the plain values are JSON.
        data = path.read_bytes()
        (meta_len,) = struct.unpack("<I", data[8:12])
        assert json.loads(data[12:12 + meta_len]) == {"year": 2020, "note": [1, "a"]}

    def test_reader_meta_is_zero_copy_read_trace_copies(self, tmp_path):
        path = tmp_path / "t.rtrace"
        write_trace(path, sample_batch(10), meta={"ids": np.arange(5)})
        with TraceReader(path) as reader:
            ids = reader.meta["ids"]
            assert not ids.flags.writeable and not ids.flags.owndata
        _, meta = read_trace(path)
        assert meta["ids"].flags.writeable and meta["ids"].flags.owndata
        np.testing.assert_array_equal(meta["ids"], np.arange(5))

    def test_big_endian_input_is_stored_little_endian(self, tmp_path):
        path = tmp_path / "t.rtrace"
        values = np.array([1, 256, 70000], dtype=">u4")
        write_trace(path, PacketBatch.empty(), meta={"v": values})
        _, meta = read_trace(path)
        assert meta["v"].dtype.str == "<u4"
        np.testing.assert_array_equal(meta["v"], values)

    @pytest.mark.parametrize("value", [
        np.array([object(), 1], dtype=object),
        np.zeros((2, 2)),
        np.array(5),
        np.array([1 + 2j]),
        np.array(["2020-01-01"], dtype="datetime64[D]"),
        np.zeros(2, dtype=[("a", "<i4")]),
        np.array([b"raw"]),
    ])
    def test_writer_rejects_what_the_directory_does_not_admit(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_trace(tmp_path / "t.rtrace", sample_batch(1), meta={"x": value})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("directory,data", [
        ([["x", "|O", 1]], b"\0" * 8),           # object: never built
        ([["x", ">i4", 1]], b"\0" * 4),          # big-endian
        ([["x", "<c16", 1]], b"\0" * 16),        # complex
        ([["x", "V4", 1]], b"\0" * 4),           # raw void
        ([["x", "<i4", 3]], b"\0" * 8),          # overruns the block
        ([["x", "<i4", 1]], b"\0" * 8),          # bytes after the arrays
        ([["x", "<i4", 1], ["x", "<i4", 1]], b"\0" * 8),  # listed twice
        ([["year", "<i4", 1]], b"\0" * 4),       # shadows a JSON key
        ([["x", "<i4", -1]], b""),               # negative length
        ([["x", "<i4", True]], b"\0" * 4),       # a bool is not a length
        ([["x", "<i4"]], b""),                   # short entry
        ({"x": "<i4"}, b""),                     # not a list
    ])
    def test_hostile_directory_is_a_format_error(self, tmp_path, directory, data):
        path = tmp_path / "t.rtrace"
        path.write_bytes(_v2_file(b'{"year": 1}', _array_block(directory, data)))
        for strict in (True, False):
            with pytest.raises(TraceFormatError, match="array block"):
                with TraceReader(path, strict=strict):
                    pass

    @pytest.mark.parametrize("arrays", [b"\1\0", struct.pack("<I", 99) + b"[]"])
    def test_directory_bounded_by_the_block(self, tmp_path, arrays):
        path = tmp_path / "t.rtrace"
        path.write_bytes(_v2_file(b"{}", arrays))
        with pytest.raises(TraceFormatError, match="array block"):
            with TraceReader(path):
                pass

    def test_valid_handmade_block_reads(self, tmp_path):
        path = tmp_path / "t.rtrace"
        data = np.array([7, -7], dtype="<i2").tobytes()
        path.write_bytes(_v2_file(b"{}", _array_block([["x", "<i2", 2]], data)))
        with TraceReader(path) as reader:
            np.testing.assert_array_equal(reader.meta["x"], [7, -7])


class TestChecksums:
    """Every byte of a v2 capture is covered by a CRC."""

    def _capture(self, tmp_path):
        batch = sample_batch(7)
        path = tmp_path / "good.rtrace"
        write_trace(path, batch, chunk_size=3,
                    meta={"year": 2020, "ids": np.array([3, -1, 7])})
        return batch, path.read_bytes()

    @pytest.mark.parametrize("mask", [0x01, 0xFF])
    def test_every_single_byte_flip_is_caught(self, tmp_path, mask):
        batch, data = self._capture(tmp_path)
        with TraceReader(tmp_path / "good.rtrace") as reader:
            assert reader.index.n_chunks == 3
        path = tmp_path / "bad.rtrace"
        tolerated = []
        for at in range(len(data)):
            path.write_bytes(data[:at] + bytes([data[at] ^ mask]) + data[at + 1:])
            with pytest.raises(TraceFormatError):
                with TraceReader(path) as reader:
                    list(reader)
            try:
                with TraceReader(path, strict=False) as reader:
                    chunks = list(reader)
                    truncated = reader.truncated
            except TraceFormatError:
                continue
            # Not an error only where it reads as a cleanly cut tail: then
            # every written packet comes back.
            assert truncated, at
            got = PacketBatch.concat(chunks)
            for name, col in batch.columns().items():
                assert np.array_equal(got.columns()[name], col), (at, name)
            tolerated.append(at)
        assert tolerated == list(range(len(data) - 4, len(data)))  # end marker

    def test_chunk_crc_is_checked_when_the_chunk_is_handed_out(self, tmp_path):
        batch, data = self._capture(tmp_path)
        at = len(data) - 4 - 4 - 5  # inside the last chunk's columns
        path = tmp_path / "bad.rtrace"
        path.write_bytes(data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:])
        with TraceReader(path) as reader:  # the header walk passes
            first = reader.chunk(0)
            assert np.array_equal(first.seq, batch.seq[:3])
            assert len(reader.skip_packets(4)) == 2
            assert len(reader.skip_packets(6)) == 0  # hands nothing out
            with pytest.raises(TraceFormatError, match="checksum mismatch.*batch 2"):
                reader.chunk(2)
        with TraceReader(path) as reader:
            got = []
            with pytest.raises(TraceFormatError, match="batch 2"):
                for chunk in reader:
                    got.append(len(chunk))
            assert got == [3, 3]
        with pytest.raises(TraceFormatError):
            read_trace(path, strict=False)

    def test_every_chunk_boundary_cut_is_truncation(self, tmp_path):
        """A capture cut where a chunk header or the end marker starts has
        lost its end marker: a strict read raises, a lenient one keeps the
        chunks before the cut and reports it."""
        good = tmp_path / "good.rtrace"
        write_trace(good, sample_batch(50), chunk_size=20)
        data = good.read_bytes()
        with TraceReader(good) as reader:
            cuts = [offset - 8 for offset in reader.index.offsets]
        cuts.append(len(data) - 4)
        assert len(cuts) == 4
        path = tmp_path / "cut.rtrace"
        for kept, at in enumerate(cuts):
            path.write_bytes(data[:at])
            with pytest.raises(TraceFormatError,
                               match=f"no end marker .* \\(batch {kept}\\)"):
                read_trace(path)
            with TraceReader(path, strict=False) as reader:
                assert reader.truncated
                assert reader.total_packets == min(50, 20 * kept)

    def test_bytes_after_the_end_marker_are_damage(self, tmp_path):
        _, data = self._capture(tmp_path)
        path = tmp_path / "bad.rtrace"
        path.write_bytes(data + b"\0")
        for strict in (True, False):
            with pytest.raises(TraceFormatError, match="after the end marker"):
                with TraceReader(path, strict=strict):
                    pass

    def test_header_digest_covers_the_arrays(self, tmp_path):
        a, b = tmp_path / "a.rtrace", tmp_path / "b.rtrace"
        write_trace(a, sample_batch(3), meta={"year": 1, "v": np.array([1, 2])})
        write_trace(b, sample_batch(3), meta={"year": 1, "v": np.array([1, 3])})
        with TraceReader(a) as ra, TraceReader(b) as rb:
            assert ra.header_blake2b() != rb.header_blake2b()
        write_trace(b, sample_batch(5), meta={"year": 1, "v": np.array([1, 2])})
        with TraceReader(a) as ra, TraceReader(b) as rb:
            assert ra.header_blake2b() == rb.header_blake2b()


#: ``tests/data/v1_capture.rtrace``: written by the last ``RTRACE01``
#: writer from :func:`v1_fixture_batch` and ``V1_META``, ``chunk_size=10``.
V1_CAPTURE = Path(__file__).parent / "data" / "v1_capture.rtrace"
V1_META = {"year": 2016, "days": 3, "packet_scale": 0.25,
           "note": "RTRACE01 fixture"}


def v1_fixture_batch():
    k = np.arange(25, dtype=np.int64)
    src_ip = (k * 2654435761 + 7) % 2**32
    src_ip[-1] = 0xFFFFFFFF
    src_port = (k * 2741) % 2**16
    src_port[-1] = 0xFFFF
    return PacketBatch(
        time=k * 0.75 + 0.125,
        src_ip=src_ip.astype(np.uint32),
        dst_ip=((k * 40503 + 0x0A000000) % 2**32).astype(np.uint32),
        src_port=src_port.astype(np.uint16),
        dst_port=np.array([22, 23, 80, 443, 0, 65535] * 4 + [8080],
                          dtype=np.uint16),
        ip_id=((k * 54321) % 2**16).astype(np.uint16),
        seq=((k * 3141592653) % 2**32).astype(np.uint32),
        ttl=((k * 37) % 256).astype(np.uint8),
        window=((k * 1021) % 2**16).astype(np.uint16),
        flags=np.full(25, 2, dtype=np.uint8),
    )


class TestV1Files:
    """``RTRACE01`` captures, which have no checksums, still read."""

    def test_committed_v1_capture_reads_unchanged(self):
        assert V1_CAPTURE.read_bytes()[:8] == b"RTRACE01"
        loaded, meta = read_trace(V1_CAPTURE)
        assert meta == V1_META
        for name, col in v1_fixture_batch().columns().items():
            assert loaded.columns()[name].dtype == col.dtype, name
            assert np.array_equal(loaded.columns()[name], col), name

    def test_mapped_reader_chunks_and_skip(self):
        batch = v1_fixture_batch()
        with TraceReader(V1_CAPTURE) as reader:
            assert reader.meta == V1_META
            assert [len(c) for c in reader] == [10, 10, 5]
        with TraceReader(V1_CAPTURE) as reader:
            rest = PacketBatch.concat([reader.skip_packets(13)] + list(reader))
        assert np.array_equal(rest.src_ip, batch.src_ip[13:])

    def test_header_digest_is_the_pre_v2_metadata_digest(self):
        with TraceReader(V1_CAPTURE) as reader:
            digest = reader.header_blake2b()
        blob = json.dumps(V1_META, sort_keys=True).encode("utf-8")
        assert digest == hashlib.blake2b(b"RTRACE01" + blob,
                                         digest_size=16).hexdigest()

    def test_truncated_v1_tail_still_tolerated(self, tmp_path):
        data = V1_CAPTURE.read_bytes()
        path = tmp_path / "cut.rtrace"
        path.write_bytes(data[: len(data) - 4 - 5 * 30 + 7])
        with pytest.raises(TraceFormatError, match="batch 2"):
            read_trace(path)
        loaded, _ = read_trace(path, strict=False)
        assert len(loaded) == 20

    def test_rewriting_a_v1_capture_writes_v2(self, tmp_path):
        loaded, meta = read_trace(V1_CAPTURE)
        path = tmp_path / "again.rtrace"
        write_trace(path, loaded, meta=meta)
        assert path.read_bytes()[:8] == b"RTRACE02"
        again, meta2 = read_trace(path)
        assert meta2 == meta
        for name, col in loaded.columns().items():
            assert np.array_equal(again.columns()[name], col), name
