"""Binary trace serialisation (``.rtrace`` files).

A compact column-oriented on-disk format for telescope captures, replacing
raw pcap for this reproduction (pcap carries full frames; the analyses only
need the header subset in :class:`~repro.telescope.packet.PacketBatch`).

Layout::

    magic      8 bytes  b"RTRACE01"
    meta_len   4 bytes  little-endian uint32
    meta       meta_len bytes, UTF-8 JSON (arbitrary user metadata)
    chunks     repeated until EOF:
        n_packets   4 bytes little-endian uint32   (0 terminates the stream)
        columns     raw little-endian arrays, in fixed column order

Chunking lets a writer stream a multi-day capture without holding it in
memory, and lets a reader iterate chunk-by-chunk.
"""

from __future__ import annotations

import io
import json
import os
import struct
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.telescope.packet import PacketBatch

try:  # pragma: no cover - mmap is stdlib on every supported platform
    import mmap as _mmap
except ImportError:  # pragma: no cover - exotic builds without mmap
    _mmap = None

MAGIC = b"RTRACE01"

_COLUMN_ORDER: Tuple[Tuple[str, str], ...] = (
    ("time", "<f8"),
    ("src_ip", "<u4"),
    ("dst_ip", "<u4"),
    ("src_port", "<u2"),
    ("dst_port", "<u2"),
    ("ip_id", "<u2"),
    ("seq", "<u4"),
    ("ttl", "<u1"),
    ("window", "<u2"),
    ("flags", "<u1"),
)

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or truncated."""


def _decode_meta(raw: bytes, path: Path) -> Dict[str, Any]:
    """Parse a metadata block; damage raises :class:`TraceFormatError`."""
    try:
        meta = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise TraceFormatError(f"unreadable metadata block in {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise TraceFormatError(f"metadata block in {path} is not a JSON object")
    return meta


class TraceWriter:
    """Streaming trace writer; use as a context manager.

    Example::

        with TraceWriter(path, meta={"year": 2020}) as w:
            for batch in batches:
                w.write(batch)
    """

    def __init__(self, path: PathLike, meta: Optional[Dict[str, Any]] = None):
        self._path = Path(path)
        self._file: Optional[io.BufferedWriter] = None
        self._meta = dict(meta or {})
        self._packets_written = 0

    def __enter__(self) -> "TraceWriter":
        self._file = open(self._path, "wb")
        self._file.write(MAGIC)
        meta_bytes = json.dumps(self._meta, sort_keys=True).encode("utf-8")
        self._file.write(struct.pack("<I", len(meta_bytes)))
        self._file.write(meta_bytes)
        return self

    def write(self, batch: PacketBatch) -> None:
        """Append one chunk. Empty batches are skipped (0 marks EOF)."""
        if self._file is None:
            raise RuntimeError("TraceWriter must be used as a context manager")
        if len(batch) == 0:
            return
        self._file.write(struct.pack("<I", len(batch)))
        cols = batch.columns()
        for name, dtype in _COLUMN_ORDER:
            self._file.write(np.ascontiguousarray(cols[name], dtype=dtype).tobytes())
        self._packets_written += len(batch)

    @property
    def packets_written(self) -> int:
        return self._packets_written

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._file is not None:
            # Explicit terminator so a truncated tail is detectable.
            self._file.write(struct.pack("<I", 0))
            self._file.close()
            self._file = None


#: Bytes per packet across all serialised columns (one row of a chunk).
_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _COLUMN_ORDER)


class TraceReader:
    """Streaming trace reader; iterates chunks as :class:`PacketBatch`.

    ``strict=True`` (the default) raises :class:`TraceFormatError` on any
    truncated or corrupt batch, reporting the byte offset and batch index of
    the damage.  ``strict=False`` tolerates a cleanly-truncated final batch
    — a writer killed mid-chunk — by dropping the partial batch and ending
    the stream (``reader.truncated`` records that this happened).  Structural
    damage before the chunks (bad magic, unreadable metadata) always raises.
    """

    def __init__(self, path: PathLike, strict: bool = True):
        self._path = Path(path)
        self._strict = strict
        self._offset = 0
        self._size = 0
        self._batch_index = 0
        self.meta: Dict[str, Any] = {}
        self.truncated = False

    def __enter__(self) -> "TraceReader":
        self._file = open(self._path, "rb")
        try:
            self._size = os.fstat(self._file.fileno()).st_size
            self._read_header()
        except BaseException:
            self._file.close()
            raise
        return self

    def _read_header(self) -> None:
        magic = self._file.read(len(MAGIC))
        self._offset = len(magic)
        if magic != MAGIC:
            if magic.startswith(b"RTRACE"):
                # Same family, different format revision: name both
                # versions so multi-trace runs can tell which file is old.
                raise TraceFormatError(
                    f"unsupported trace format version {magic!r} in "
                    f"{self._path}: this reader supports {MAGIC!r}"
                )
            raise TraceFormatError(f"bad magic in {self._path}: {magic!r}")
        (meta_len,) = struct.unpack("<I", self._read_exact(4, "metadata length"))
        self.meta = _decode_meta(
            self._read_exact(meta_len, "metadata block"), self._path
        )

    def _read_exact(self, count: int, context: str) -> bytes:
        left = self._size - self._offset
        if count > left:
            # Checked before reading: a damaged length field (metadata or
            # chunk count) must not become a multi-gigabyte allocation.
            raise TraceFormatError(
                f"truncated trace file {self._path}: {context} needs {count} "
                f"bytes at byte offset {self._offset} but only {left} remain "
                f"(batch {self._batch_index})"
            )
        data = self._file.read(count)
        self._offset += len(data)
        if len(data) != count:
            raise TraceFormatError(
                f"truncated trace file {self._path}: short read of {context} "
                f"at byte offset {self._offset} "
                f"(batch {self._batch_index}, got {len(data)} of {count} bytes)"
            )
        return data

    def _read_chunk(self) -> Optional[PacketBatch]:
        """Read the next chunk, or ``None`` at end of stream.

        In non-strict mode a truncated final chunk (including a partial
        chunk header) ends the stream instead of raising.
        """
        header = self._file.read(4)
        self._offset += len(header)
        if len(header) == 0:
            # Missing terminator: tolerate but treat as end of stream.
            return None
        try:
            if len(header) != 4:
                raise TraceFormatError(
                    f"truncated trace file {self._path}: partial chunk header "
                    f"at byte offset {self._offset} (batch {self._batch_index})"
                )
            (count,) = struct.unpack("<I", header)
            if count == 0:
                return None
            cols: Dict[str, np.ndarray] = {}
            for name, dtype in _COLUMN_ORDER:
                nbytes = count * np.dtype(dtype).itemsize
                cols[name] = np.frombuffer(
                    self._read_exact(nbytes, f"column {name!r}"), dtype=dtype
                ).copy()
        except TraceFormatError:
            if self._strict:
                raise
            # A short read on a regular file means EOF: the writer died
            # mid-chunk.  Drop the partial batch and end the stream cleanly.
            self.truncated = True
            return None
        self._batch_index += 1
        return PacketBatch(**cols)

    def skip_packets(self, count: int) -> PacketBatch:
        """Advance past ``count`` packets with seeks; returns the remainder.

        Whole chunks are skipped without deserialising them (a single seek
        per chunk), so fast-forwarding a resumed stream costs almost no I/O.
        When ``count`` lands inside a chunk, that chunk is read and the part
        after the skip point is returned (possibly empty).  Raises
        ``ValueError`` when the trace holds fewer than ``count`` packets.
        """
        if count < 0:
            raise ValueError("cannot skip a negative packet count")
        remaining = count
        while remaining > 0:
            header = self._file.read(4)
            self._offset += len(header)
            if len(header) == 0:
                raise ValueError(
                    f"cannot skip {count} packets: {self._path} ends "
                    f"{remaining} packets short"
                )
            if len(header) != 4:
                raise TraceFormatError(
                    f"truncated trace file {self._path}: partial chunk header "
                    f"at byte offset {self._offset} (batch {self._batch_index})"
                )
            (n,) = struct.unpack("<I", header)
            if n == 0:
                raise ValueError(
                    f"cannot skip {count} packets: {self._path} ends "
                    f"{remaining} packets short"
                )
            if n <= remaining:
                self._file.seek(n * _ROW_BYTES, io.SEEK_CUR)
                self._offset += n * _ROW_BYTES
                self._batch_index += 1
                remaining -= n
                continue
            # Skip point lands inside this chunk: rewind to its header and
            # read it normally, then drop the consumed prefix.
            self._file.seek(-4, io.SEEK_CUR)
            self._offset -= 4
            chunk = self._read_chunk()
            if chunk is None:  # pragma: no cover - only on non-strict damage
                raise ValueError(
                    f"cannot skip {count} packets: {self._path} ends "
                    f"{remaining} packets short"
                )
            return chunk[remaining:]
        return PacketBatch.empty()

    def __iter__(self) -> Iterator[PacketBatch]:
        while True:
            chunk = self._read_chunk()
            if chunk is None:
                return
            yield chunk

    def __exit__(self, exc_type, exc, tb) -> None:
        self._file.close()


#: Byte offset of each column inside a chunk's data block, per packet: the
#: columns are laid out back to back, so column ``k`` of an ``n``-packet
#: chunk starts ``n * _COL_PREFIX[k]`` bytes into the block.
_COL_PREFIX: Tuple[int, ...] = tuple(
    sum(np.dtype(dtype).itemsize for _, dtype in _COLUMN_ORDER[:k])
    for k in range(len(_COLUMN_ORDER))
)


def mmap_supported() -> bool:
    """True when this platform can memory-map trace files."""
    return _mmap is not None


class TraceIndex:
    """Chunk directory of an ``.rtrace`` file, built from the headers alone.

    One forward walk over the chunk headers (a few bytes per chunk, no
    column deserialisation) yields, per chunk, the byte offset of its data
    block and its packet count.  With the index in hand, random access is
    O(log chunks): ``skip_packets`` becomes a binary search over the
    cumulative packet counts instead of a header-by-header scan.
    """

    __slots__ = ("offsets", "counts", "cum_counts", "truncated")

    def __init__(
        self,
        offsets: List[int],
        counts: List[int],
        truncated: bool,
    ):
        #: Byte offset of each chunk's column data (past its 4-byte header).
        self.offsets = offsets
        #: Packets per chunk.
        self.counts = counts
        #: ``cum_counts[i]`` = packets in chunks ``0..i`` inclusive.
        self.cum_counts = np.cumsum(np.asarray(counts, dtype=np.int64))
        #: True when a cleanly-truncated final chunk was dropped
        #: (``strict=False`` only).
        self.truncated = truncated

    @property
    def n_chunks(self) -> int:
        return len(self.offsets)

    @property
    def total_packets(self) -> int:
        return int(self.cum_counts[-1]) if len(self.counts) else 0

    @classmethod
    def build(
        cls, buf, start: int, size: int, path: Path, strict: bool
    ) -> "TraceIndex":
        """Walk the chunk headers of ``buf[start:size]``.

        ``buf`` is any random-access byte buffer (an ``mmap``, a ``bytes``).
        Raises :class:`TraceFormatError` on damage under ``strict=True``;
        otherwise a truncated tail ends the index with ``truncated`` set,
        mirroring :class:`TraceReader`'s non-strict semantics.
        """
        offsets: List[int] = []
        counts: List[int] = []
        truncated = False
        pos = start
        batch_index = 0
        while True:
            if pos + 4 > size:
                if pos == size:
                    break  # missing terminator: tolerate as end of stream
                if strict:
                    raise TraceFormatError(
                        f"truncated trace file {path}: partial chunk header "
                        f"at byte offset {size} (batch {batch_index})"
                    )
                truncated = True
                break
            (count,) = struct.unpack("<I", buf[pos:pos + 4])
            if count == 0:
                break
            data = pos + 4
            nbytes = count * _ROW_BYTES
            if data + nbytes > size:
                if strict:
                    raise TraceFormatError(
                        f"truncated trace file {path}: short read of chunk "
                        f"data at byte offset {size} (batch {batch_index}, "
                        f"got {size - data} of {nbytes} bytes)"
                    )
                truncated = True
                break
            offsets.append(data)
            counts.append(count)
            batch_index += 1
            pos = data + nbytes
        return cls(offsets, counts, truncated)


class MappedTraceReader:
    """Zero-copy ``.rtrace`` reader over a memory-mapped file.

    Drop-in for :class:`TraceReader` on the read side (context manager,
    chunk iteration, ``skip_packets``, ``meta``, ``truncated``), with two
    structural differences:

    * chunks come back as :class:`PacketBatch` columns that are **read-only
      views straight into the mapped file** — no deserialisation copy, no
      per-column allocation; the OS pages data in on first touch and is
      free to evict it again, so reading a capture larger than RAM costs
      only page-cache churn;
    * the chunk directory is built once from the headers
      (:class:`TraceIndex`), so ``skip_packets`` is a binary search plus a
      view construction instead of a header-by-header seek scan, and random
      chunk access (:meth:`chunk`) is O(1).

    Format validation happens while the index is built, so a damaged file
    fails on ``__enter__`` (or, with ``strict=False``, drops the partial
    tail exactly like :class:`TraceReader`).

    Lifetime: batches handed out remain valid after the reader closes —
    the mapping is only released once the last view is garbage-collected
    (``close`` drops the file descriptor immediately but unmaps lazily).
    Use :func:`mmap_supported` / ``TraceStreamSource(mmap=False)`` on
    platforms without ``mmap``.
    """

    def __init__(self, path: PathLike, strict: bool = True):
        if _mmap is None:  # pragma: no cover - exotic builds without mmap
            raise TraceFormatError(
                f"cannot memory-map {path}: this platform has no mmap "
                "support; use the buffered TraceReader instead"
            )
        self._path = Path(path)
        self._strict = strict
        self.meta: Dict[str, Any] = {}
        self.truncated = False
        self.index: Optional[TraceIndex] = None
        self._mm = None
        self._next_chunk = 0

    def __enter__(self) -> "MappedTraceReader":
        fh = open(self._path, "rb")
        try:
            try:
                self._mm = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
            except ValueError:
                # Zero-length file: cannot be mapped, and cannot be a trace.
                raise TraceFormatError(f"bad magic in {self._path}: b''")
        finally:
            # The mapping outlives the descriptor on every platform.
            fh.close()
        mm = self._mm
        size = len(mm)
        magic = bytes(mm[: len(MAGIC)])
        if magic != MAGIC:
            self.close()
            if magic.startswith(b"RTRACE"):
                raise TraceFormatError(
                    f"unsupported trace format version {magic!r} in "
                    f"{self._path}: this reader supports {MAGIC!r}"
                )
            raise TraceFormatError(f"bad magic in {self._path}: {magic!r}")
        try:
            if size < len(MAGIC) + 4:
                raise TraceFormatError(
                    f"truncated trace file {self._path}: short read of "
                    f"metadata length at byte offset {size} (batch 0)"
                )
            (meta_len,) = struct.unpack(
                "<I", mm[len(MAGIC): len(MAGIC) + 4]
            )
            meta_end = len(MAGIC) + 4 + meta_len
            if meta_end > size:
                raise TraceFormatError(
                    f"truncated trace file {self._path}: short read of "
                    f"metadata block at byte offset {size} (batch 0)"
                )
            self.meta = _decode_meta(bytes(mm[len(MAGIC) + 4: meta_end]), self._path)
            self.index = TraceIndex.build(
                mm, meta_end, size, self._path, self._strict
            )
        except TraceFormatError:
            self.close()
            raise
        self.truncated = self.index.truncated
        self._next_chunk = 0
        return self

    # -- access --------------------------------------------------------------

    @property
    def total_packets(self) -> int:
        """Packets in the capture (index lookup, no data touched)."""
        if self.index is None:
            raise RuntimeError("MappedTraceReader must be entered first")
        return self.index.total_packets

    def chunk(self, i: int, start: int = 0) -> PacketBatch:
        """Chunk ``i`` (optionally from packet ``start``) as zero-copy views."""
        if self.index is None:
            raise RuntimeError("MappedTraceReader must be entered first")
        data = self.index.offsets[i]
        count = self.index.counts[i]
        cols: Dict[str, np.ndarray] = {}
        for (name, dtype), prefix in zip(_COLUMN_ORDER, _COL_PREFIX):
            col = np.frombuffer(
                self._mm, dtype=dtype, count=count, offset=data + count * prefix
            )
            cols[name] = col if start == 0 else col[start:]
        return PacketBatch(**cols)

    def skip_packets(self, count: int) -> PacketBatch:
        """Advance past ``count`` packets via the index; returns the remainder.

        Equivalent to :meth:`TraceReader.skip_packets`, but a binary search
        over the cumulative chunk counts replaces the header-by-header seek
        scan, and the mid-chunk remainder comes back as a zero-copy view.
        """
        if self.index is None:
            raise RuntimeError("MappedTraceReader must be entered first")
        if count < 0:
            raise ValueError("cannot skip a negative packet count")
        if count == 0:
            self._next_chunk = 0
            return PacketBatch.empty()
        total = self.index.total_packets
        if count > total:
            raise ValueError(
                f"cannot skip {count} packets: {self._path} ends "
                f"{count - total} packets short"
            )
        # First chunk whose cumulative count exceeds the skip point.
        i = int(np.searchsorted(self.index.cum_counts, count, side="left"))
        if self.index.cum_counts[i] == count:
            # Skip point lands exactly on a chunk boundary.
            self._next_chunk = i + 1
            return PacketBatch.empty()
        before = int(self.index.cum_counts[i - 1]) if i else 0
        self._next_chunk = i + 1
        return self.chunk(i, start=count - before)

    def __iter__(self) -> Iterator[PacketBatch]:
        if self.index is None:
            raise RuntimeError("MappedTraceReader must be entered first")
        while self._next_chunk < self.index.n_chunks:
            i = self._next_chunk
            self._next_chunk = i + 1
            yield self.chunk(i)

    def close(self) -> None:
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                # Zero-copy views into the map are still alive; the mapping
                # is released when the last of them is garbage-collected.
                pass
            self._mm = None

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_trace_reader(
    path: PathLike,
    strict: bool = True,
    use_mmap: Optional[bool] = None,
) -> Union[TraceReader, MappedTraceReader]:
    """Pick a trace reader: mapped when possible, buffered otherwise.

    ``use_mmap=None`` (the default) selects the zero-copy mapped reader on
    platforms that support it and falls back to the buffered reader
    elsewhere; ``True`` requires the mapped reader (raising
    :class:`TraceFormatError` where unavailable); ``False`` forces the
    buffered reader.  Both readers share the iteration / ``skip_packets``
    interface, so callers need no further branching.
    """
    if use_mmap is None:
        use_mmap = mmap_supported()
    if use_mmap:
        return MappedTraceReader(path, strict=strict)
    return TraceReader(path, strict=strict)


def write_trace(
    path: PathLike,
    batch: PacketBatch,
    meta: Optional[Dict[str, Any]] = None,
    chunk_size: int = 1_000_000,
) -> int:
    """Write a whole batch to ``path`` in chunks; returns packets written."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    with TraceWriter(path, meta=meta) as writer:
        for start in range(0, len(batch), chunk_size):
            writer.write(batch[start:start + chunk_size])
        return writer.packets_written


def read_trace_meta(path: PathLike) -> Dict[str, Any]:
    """Read only a trace's metadata block, without touching the chunks.

    This stops after the JSON header, so its cost is the header's size, not
    the capture's.  That header is not always small: a capture-cache entry
    stores its ground-truth campaign list there, megabytes of port numbers
    for a period with full-range institutional sweeps.
    """
    with TraceReader(path) as reader:
        return reader.meta


def read_trace(
    path: PathLike, strict: bool = True
) -> Tuple[PacketBatch, Dict[str, Any]]:
    """Read a whole trace into memory; returns ``(batch, meta)``."""
    with TraceReader(path, strict=strict) as reader:
        chunks = list(reader)
        return PacketBatch.concat(chunks), reader.meta


def iter_trace(path: PathLike, strict: bool = True) -> Iterator[PacketBatch]:
    """Iterate a trace chunk-by-chunk without loading it all.

    This is the substrate of the streaming layer: ``repro.stream`` re-chunks
    these native batches into fixed-size / time-aligned windows.
    """
    with TraceReader(path, strict=strict) as reader:
        yield from reader
