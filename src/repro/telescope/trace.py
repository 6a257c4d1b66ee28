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
memory.  :class:`TraceWriter` writes a temporary file beside the target
and renames it into place on a clean exit, so a reader holding the old
capture keeps it and an interrupted write leaves the target untouched.
:class:`TraceReader`, the one reader, maps the file and hands its chunks
out as zero-copy column views; :func:`read_trace` copies them into one
owned batch.
"""

from __future__ import annotations

import io
import json
import mmap
import os
import struct
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.telescope.packet import PacketBatch

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


def _create_sibling(path: Path) -> Tuple[io.BufferedWriter, Path]:
    """Create and open a new temporary file beside ``path``.

    ``open(..., "xb")`` gives it the umask-derived mode that
    ``open(path, "wb")`` gives a new file (``tempfile.mkstemp`` would
    force 0600).  The name carries the pid and the first free sequence
    number, so concurrent writers of one path never share a file.
    """
    n = 0
    while True:
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}-{n}")
        try:
            return open(tmp, "xb"), tmp
        except FileExistsError:
            n += 1


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

    The chunks go to a temporary file beside ``path``.  A clean exit
    writes the end marker and renames the file onto ``path``; an
    exception deletes it and leaves ``path`` as it was.  So a reader
    mapping the old capture keeps its file, and no interrupted write
    passes for a complete capture.

    ``path`` is resolved through symlinks first, so writing through a
    link replaces the file it points to and the link stays a link.  The
    rename gives ``path`` a new inode: a capture that existed before
    takes the mode a new file gets under the umask, and the writer's
    owner, and any other hard link to it keeps the old contents.
    """

    def __init__(self, path: PathLike, meta: Optional[Dict[str, Any]] = None):
        self._path = Path(os.path.realpath(path))
        self._file: Optional[io.BufferedWriter] = None
        self._tmp: Optional[Path] = None
        self._meta = dict(meta or {})
        self._packets_written = 0

    def __enter__(self) -> "TraceWriter":
        self._file, self._tmp = _create_sibling(self._path)
        try:
            self._file.write(MAGIC)
            meta_bytes = json.dumps(self._meta, sort_keys=True).encode("utf-8")
            self._file.write(struct.pack("<I", len(meta_bytes)))
            self._file.write(meta_bytes)
        except BaseException:
            self._discard()
            raise
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
        if self._file is None or self._tmp is None:
            return
        if exc_type is not None:
            self._discard()
            return
        try:
            # Explicit terminator so a truncated tail is detectable.
            self._file.write(struct.pack("<I", 0))
            self._file.close()
            os.replace(self._tmp, self._path)
        except BaseException:
            self._discard()
            raise
        self._file = self._tmp = None

    def _discard(self) -> None:
        """Close and delete the temporary file; ``path`` is untouched."""
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._tmp is not None:
            self._tmp.unlink(missing_ok=True)
            self._tmp = None


#: Bytes per packet across all serialised columns (one row of a chunk).
_ROW_BYTES = sum(np.dtype(dtype).itemsize for _, dtype in _COLUMN_ORDER)

#: Byte offset of each column inside a chunk's data block, per packet: the
#: columns are laid out back to back, so column ``k`` of an ``n``-packet
#: chunk starts ``n * _COL_PREFIX[k]`` bytes into the block.
_COL_PREFIX: Tuple[int, ...] = tuple(
    sum(np.dtype(dtype).itemsize for _, dtype in _COLUMN_ORDER[:k])
    for k in range(len(_COLUMN_ORDER))
)


class TraceIndex:
    """Chunk directory of an ``.rtrace`` file, built from the headers alone.

    One forward walk over the chunk headers (a few bytes per chunk, no
    column deserialisation) yields, per chunk, the byte offset of its data
    block and its packet count.  With the index in hand, random access is
    O(log chunks): ``skip_packets`` is a binary search over the cumulative
    packet counts.
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
        otherwise a truncated tail ends the index with ``truncated`` set.
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


class TraceReader:
    """Zero-copy ``.rtrace`` reader over a memory-mapped file.

    A context manager: ``__enter__`` maps the file, checks the magic and
    the metadata block, and builds the chunk directory (:class:`TraceIndex`)
    from the headers.  Every length field is bounded by the file size
    before it is used, so a damaged count is an error, never a huge read.
    Then:

    * iteration yields each chunk as a :class:`PacketBatch` whose columns
      are **read-only views straight into the mapped file** — no
      deserialisation copy, no per-column allocation; the OS pages data in
      on first touch and is free to evict it again, so reading a capture
      larger than RAM costs only page-cache churn;
    * ``skip_packets`` is a binary search over the index plus a view
      construction, and :meth:`chunk` is random access in O(1).

    ``strict=True`` (the default) raises :class:`TraceFormatError` on any
    truncated or corrupt chunk, reporting the byte offset and batch index of
    the damage.  ``strict=False`` tolerates a cleanly-truncated tail — a
    writer killed mid-chunk — by dropping the partial chunk (``truncated``
    records that this happened).  Damage before the chunks (bad magic,
    unreadable metadata) always raises.  Either way it happens on
    ``__enter__``.

    Lifetime: batches handed out remain valid after the reader closes —
    the mapping is only released once the last view is garbage-collected
    (``close`` unmaps at once when no view is alive, lazily otherwise).
    Callers that keep data while the file may be rewritten in place copy
    it out, as :func:`read_trace` does.
    """

    def __init__(self, path: PathLike, strict: bool = True):
        self._path = Path(path)
        self._strict = strict
        self.meta: Dict[str, Any] = {}
        self.truncated = False
        self.index: Optional[TraceIndex] = None
        self._mm: Optional[mmap.mmap] = None
        self._next_chunk = 0

    def __enter__(self) -> "TraceReader":
        fh = open(self._path, "rb")
        try:
            try:
                self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:
                # Zero-length file: cannot be mapped, and cannot be a trace.
                raise TraceFormatError(f"bad magic in {self._path}: b''")
        finally:
            # The mapping outlives the descriptor on every platform.
            fh.close()
        mm = self._mm
        size = len(mm)
        try:
            magic = bytes(mm[: len(MAGIC)])
            if magic != MAGIC:
                if magic.startswith(b"RTRACE"):
                    # Same family, different format revision: name both
                    # versions so multi-trace runs can tell which file is old.
                    raise TraceFormatError(
                        f"unsupported trace format version {magic!r} in "
                        f"{self._path}: this reader supports {MAGIC!r}"
                    )
                raise TraceFormatError(f"bad magic in {self._path}: {magic!r}")
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

    def _entered(self) -> TraceIndex:
        if self.index is None:
            raise RuntimeError("TraceReader must be entered first")
        return self.index

    @property
    def total_packets(self) -> int:
        """Packets in the capture (index lookup, no data touched)."""
        return self._entered().total_packets

    def chunk(self, i: int, start: int = 0) -> PacketBatch:
        """Chunk ``i`` (optionally from packet ``start``) as zero-copy views."""
        index = self._entered()
        data = index.offsets[i]
        count = index.counts[i]
        cols: Dict[str, np.ndarray] = {}
        for (name, dtype), prefix in zip(_COLUMN_ORDER, _COL_PREFIX):
            col = np.frombuffer(
                self._mm, dtype=dtype, count=count, offset=data + count * prefix
            )
            cols[name] = col if start == 0 else col[start:]
        return PacketBatch(**cols)

    def skip_packets(self, count: int) -> PacketBatch:
        """Advance past ``count`` packets via the index; returns the remainder.

        A binary search over the cumulative chunk counts finds the chunk
        holding the skip point, so fast-forwarding a resumed stream reads
        none of the skipped data.  When ``count`` lands inside a chunk, the
        part after the skip point comes back as a zero-copy view (possibly
        empty).  Raises ``ValueError`` when the trace holds fewer than
        ``count`` packets.
        """
        index = self._entered()
        if count < 0:
            raise ValueError("cannot skip a negative packet count")
        if count == 0:
            self._next_chunk = 0
            return PacketBatch.empty()
        total = index.total_packets
        if count > total:
            raise ValueError(
                f"cannot skip {count} packets: {self._path} ends "
                f"{count - total} packets short"
            )
        # First chunk whose cumulative count exceeds the skip point.
        i = int(np.searchsorted(index.cum_counts, count, side="left"))
        self._next_chunk = i + 1
        if index.cum_counts[i] == count:
            # Skip point lands exactly on a chunk boundary.
            return PacketBatch.empty()
        before = int(index.cum_counts[i - 1]) if i else 0
        return self.chunk(i, start=count - before)

    def __iter__(self) -> Iterator[PacketBatch]:
        index = self._entered()
        while self._next_chunk < index.n_chunks:
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


def read_trace(
    path: PathLike, strict: bool = True
) -> Tuple[PacketBatch, Dict[str, Any]]:
    """Read a whole trace into memory; returns ``(batch, meta)``.

    The columns are copied out of the mapping (``PacketBatch.concat``
    always copies), so the batch never aliases a file that is later
    rewritten in place.
    """
    with TraceReader(path, strict=strict) as reader:
        return PacketBatch.concat(list(reader)), reader.meta
