"""Binary trace serialisation (``.rtrace`` files).

A compact column-oriented on-disk format for telescope captures, replacing
raw pcap for this reproduction (pcap carries full frames; the analyses only
need the header subset in :class:`~repro.telescope.packet.PacketBatch`).

Layout (every integer little-endian)::

    magic       8 bytes  b"RTRACE02"
    meta_len    4 bytes  uint32
    meta        meta_len bytes, UTF-8 JSON object: the plain metadata values
    arrays_len  4 bytes  uint32 (0 when the metadata holds no array)
    arrays      arrays_len bytes, the metadata's NumPy arrays:
        dir_len     4 bytes  uint32
        directory   dir_len bytes, UTF-8 JSON list of [name, dtype, length]
        data        each array's raw little-endian bytes, in directory order
    header_crc  4 bytes  zlib.crc32 of every byte above
    chunks      repeated:
        n_packets   4 bytes  uint32 (0 ends the stream)
        count_crc   4 bytes  zlib.crc32 of the n_packets field
        columns     raw little-endian arrays, in fixed column order
        data_crc    4 bytes  zlib.crc32 of the columns
    end         4 bytes  a zero n_packets, the last bytes of the file

Any metadata value that is a NumPy array is stored as one 1-D column of
the array block rather than as JSON; the directory admits little-endian
bool, int, uint, float and unicode dtypes only, so reading a file never
builds an object array or unpickles anything.  The header CRC is checked
when the file is opened, each chunk header's CRC during the chunk walk,
and each chunk's data CRC the first time the chunk is handed out, so any
single flipped byte raises :class:`TraceFormatError`.  ``RTRACE01`` files
(no array block, chunk headers of ``n_packets`` alone, no checksums) are
still read; only ``RTRACE02`` is written.

Chunking lets a writer stream a multi-day capture without holding it in
memory.  :class:`TraceWriter` writes a temporary file beside the target
and renames it into place on a clean exit
(:func:`repro._files.atomic_replace`, the program's one way to write a
file it owns), so a reader holding the old capture keeps it and an
interrupted write leaves the target untouched.
:class:`TraceReader`, the one reader, maps the file and hands its chunks
out as zero-copy column views; :func:`read_trace` copies them into one
owned batch.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import mmap
import os
import re
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro._files import atomic_replace, orphaned_temp_files
from repro.telescope.packet import PacketBatch

MAGIC = b"RTRACE02"
#: The first revision: no array block and no checksums.  Read, never written.
MAGIC_V1 = b"RTRACE01"

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

#: dtype spellings the array directory admits: little-endian (or
#: single-byte) bool, int, uint, float and fixed-width unicode.
_ARRAY_DTYPE = re.compile(r"\|b1|\|[iu]1|<[iu][248]|<f[248]|<U[1-9][0-9]{0,8}")

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or truncated."""


def _u32(value: int) -> bytes:
    return struct.pack("<I", value)


def _encode_header(meta: Dict[str, Any]) -> bytes:
    """Magic, metadata, array block and header CRC, ready to write.

    Raises ``ValueError`` for an array value that is not 1-D or whose dtype
    the directory does not admit, ``TypeError`` for a non-string array key.
    """
    plain = {k: v for k, v in meta.items() if not isinstance(v, np.ndarray)}
    directory: List[List[Any]] = []
    data: List[bytes] = []
    for name in sorted(k for k, v in meta.items() if isinstance(v, np.ndarray)):
        if not isinstance(name, str):
            raise TypeError(f"array metadata keys must be str, not {name!r}")
        value = meta[name]
        column = np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("<"))
        if value.ndim != 1 or not _ARRAY_DTYPE.fullmatch(column.dtype.str):
            raise ValueError(
                f"metadata array {name!r} ({value.dtype}, shape {value.shape}) "
                "is not a 1-D bool, int, uint, float or unicode column"
            )
        directory.append([name, column.dtype.str, len(column)])
        data.append(column.tobytes())
    arrays = b""
    if directory:
        listing = json.dumps(directory).encode("utf-8")
        arrays = b"".join([_u32(len(listing)), listing, *data])
    meta_bytes = json.dumps(plain, sort_keys=True).encode("utf-8")
    header = b"".join(
        [MAGIC, _u32(len(meta_bytes)), meta_bytes, _u32(len(arrays)), arrays]
    )
    return header + _u32(zlib.crc32(header))


def _decode_meta(raw: bytes, path: Path) -> Dict[str, Any]:
    """Parse a metadata block; damage raises :class:`TraceFormatError`."""
    try:
        meta = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise TraceFormatError(f"unreadable metadata block in {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise TraceFormatError(f"metadata block in {path} is not a JSON object")
    return meta


def _decode_arrays(buf, start: int, end: int, path: Path) -> Dict[str, np.ndarray]:
    """The array block ``buf[start:end]`` as read-only views into ``buf``.

    Every directory entry must name a new key, an admitted dtype and a
    length that fits in what is left of the block, and the arrays must
    fill the block exactly; anything else raises :class:`TraceFormatError`.
    """
    if start == end:
        return {}

    def damaged(why: str) -> TraceFormatError:
        return TraceFormatError(f"bad array block in {path}: {why}")

    if end - start < 4:
        raise damaged("no directory length")
    (dir_len,) = struct.unpack("<I", buf[start:start + 4])
    pos = start + 4 + dir_len
    if pos > end:
        raise damaged(f"directory of {dir_len} bytes overruns the block")
    try:
        directory = json.loads(bytes(buf[start + 4:pos]).decode("utf-8"))
    except ValueError as exc:
        raise damaged(f"unreadable directory: {exc}") from exc
    if not isinstance(directory, list):
        raise damaged("directory is not a JSON list")
    arrays: Dict[str, np.ndarray] = {}
    for entry in directory:
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)
                and type(entry[2]) is int and entry[2] >= 0):
            raise damaged(f"directory entry {entry!r} is not [name, dtype, length]")
        name, spelling, length = entry
        if name in arrays:
            raise damaged(f"array {name!r} listed twice")
        if not _ARRAY_DTYPE.fullmatch(spelling):
            raise damaged(f"array {name!r} has unsupported dtype {spelling!r}")
        dtype = np.dtype(spelling)
        nbytes = length * dtype.itemsize
        if pos + nbytes > end:
            raise damaged(f"array {name!r} of {nbytes} bytes overruns the block")
        arrays[name] = (np.frombuffer(buf, dtype=dtype, count=length, offset=pos)
                        if length else np.empty(0, dtype=dtype))
        pos += nbytes
    if pos != end:
        raise damaged(f"{end - pos} bytes after the last array")
    return arrays


class TraceWriter:
    """Streaming trace writer; use as a context manager.

    Example::

        with TraceWriter(path, meta={"year": 2020}) as w:
            for batch in batches:
                w.write(batch)

    ``meta`` values that are NumPy arrays go to the array block as typed
    columns (1-D bool, int, uint, float or unicode; anything else raises
    ``ValueError`` here); every other value must be JSON-serialisable.

    The chunks go to a temporary file beside ``path``
    (:func:`atomic_replace`).  A clean exit writes the end marker and
    renames the file onto ``path``; an exception deletes it and leaves
    ``path`` as it was.  So a reader mapping the old capture keeps its
    file, and no interrupted write passes for a complete capture.  A
    writer killed outright leaves its temporary file behind; the next
    writer of ``path`` deletes it (:func:`orphaned_temp_files`).

    ``path`` is resolved through symlinks first, so writing through a
    link replaces the file it points to and the link stays a link.  The
    rename gives ``path`` a new inode: a capture that existed before
    takes the mode a new file gets under the umask, and the writer's
    owner, and any other hard link to it keeps the old contents.
    """

    def __init__(self, path: PathLike, meta: Optional[Dict[str, Any]] = None):
        self._path = Path(os.path.realpath(path))
        self._file: Optional[io.BufferedWriter] = None
        #: Holds the :func:`atomic_replace` of ``path`` while entered.
        self._replace: Optional[contextlib.ExitStack] = None
        self._header = _encode_header(dict(meta or {}))
        self._packets_written = 0

    def __enter__(self) -> "TraceWriter":
        for stale in orphaned_temp_files(self._path.parent,
                                         glob.escape(self._path.name)):
            try:
                stale.unlink()
            except OSError:  # gone already, or not ours to remove
                pass
        with contextlib.ExitStack() as stack:
            handle = stack.enter_context(atomic_replace(self._path))
            handle.write(self._header)
            self._replace = stack.pop_all()
        self._file = handle
        return self

    def write(self, batch: PacketBatch) -> None:
        """Append one chunk. Empty batches are skipped (0 marks EOF)."""
        if self._file is None:
            raise RuntimeError("TraceWriter must be used as a context manager")
        if len(batch) == 0:
            return
        count = _u32(len(batch))
        self._file.write(count + _u32(zlib.crc32(count)))
        cols = batch.columns()
        crc = 0
        for name, dtype in _COLUMN_ORDER:
            column = np.ascontiguousarray(cols[name], dtype=dtype)
            crc = zlib.crc32(column, crc)
            self._file.write(column)
        self._file.write(_u32(crc))
        self._packets_written += len(batch)

    @property
    def packets_written(self) -> int:
        return self._packets_written

    def __exit__(self, exc_type, exc, tb) -> None:
        replace, file = self._replace, self._file
        if replace is None or file is None:
            return
        self._replace = self._file = None
        if exc_type is not None:
            replace.__exit__(exc_type, exc, tb)
            return
        with replace:
            # Explicit terminator so a truncated tail is detectable.
            file.write(_u32(0))


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
        #: Byte offset of each chunk's column data (past its header).
        self.offsets = offsets
        #: Packets per chunk.
        self.counts = counts
        #: ``cum_counts[i]`` = packets in chunks ``0..i`` inclusive.
        self.cum_counts = np.cumsum(np.asarray(counts, dtype=np.int64))
        #: True when the file ends before its end marker — none at a chunk
        #: boundary, a partial chunk header or a short chunk — so the index
        #: holds only the complete chunks before the cut (``strict=False``
        #: only).
        self.truncated = truncated

    @property
    def n_chunks(self) -> int:
        return len(self.offsets)

    @property
    def total_packets(self) -> int:
        return int(self.cum_counts[-1]) if len(self.counts) else 0

    @classmethod
    def build(
        cls, buf, start: int, size: int, path: Path, strict: bool,
        checksummed: bool,
    ) -> "TraceIndex":
        """Walk the chunk headers of ``buf[start:size]``.

        ``buf`` is any random-access byte buffer (an ``mmap``, a ``bytes``).
        ``checksummed`` selects the ``RTRACE02`` chunk layout, whose
        header CRCs are checked here; ``False`` walks ``RTRACE01`` chunks.
        Raises :class:`TraceFormatError` on damage under ``strict=True``;
        otherwise a truncated tail ends the index with ``truncated`` set.
        A v2 file ends with its end marker, so reaching the end of the file
        without it is truncation, even at a chunk boundary; an ``RTRACE01``
        stream may end without its terminator.  A bad header CRC, or bytes
        after a v2 end marker, raise either way: they are damage, not a
        writer cut short.
        """
        head, tail = (8, 4) if checksummed else (4, 0)
        offsets: List[int] = []
        counts: List[int] = []
        truncated = False
        pos = start
        while True:
            batch_index = len(offsets)
            if pos + 4 <= size and buf[pos:pos + 4] == b"\0\0\0\0":
                if checksummed and pos + 4 != size:
                    raise TraceFormatError(
                        f"damaged trace file {path}: {size - pos - 4} bytes "
                        f"after the end marker at byte offset {pos}"
                    )
                break
            if pos + head > size:
                if pos == size and not checksummed:
                    break
                if strict:
                    what = "no end marker" if pos == size else "partial chunk header"
                    raise TraceFormatError(
                        f"truncated trace file {path}: {what} at byte offset "
                        f"{size} (batch {batch_index})"
                    )
                truncated = True
                break
            (count,) = struct.unpack("<I", buf[pos:pos + 4])
            if checksummed:
                (crc,) = struct.unpack("<I", buf[pos + 4:pos + 8])
                if zlib.crc32(buf[pos:pos + 4]) != crc:
                    raise TraceFormatError(
                        f"checksum mismatch in {path}: header of batch "
                        f"{batch_index} at byte offset {pos}"
                    )
            data = pos + head
            nbytes = count * _ROW_BYTES + tail
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
            pos = data + nbytes
        return cls(offsets, counts, truncated)


class TraceReader:
    """Zero-copy ``.rtrace`` reader over a memory-mapped file.

    A context manager: ``__enter__`` maps the file, checks the magic, the
    header (its CRC, then the metadata and array block) and builds the
    chunk directory (:class:`TraceIndex`) from the chunk headers.  Every
    length field is bounded by the file size before it is used, so a
    damaged count is an error, never a huge read.  Then:

    * ``meta`` holds the metadata; array values are read-only views into
      the mapped file;
    * iteration yields each chunk as a :class:`PacketBatch` whose columns
      are **read-only views straight into the mapped file** — no
      deserialisation copy, no per-column allocation; the OS pages data in
      on first touch and is free to evict it again, so reading a capture
      larger than RAM costs only page-cache churn;
    * ``skip_packets`` is a binary search over the index plus a view
      construction, and :meth:`chunk` is random access in O(1).

    A chunk's data CRC is checked the first time the chunk is handed out
    (by iteration, :meth:`chunk` or :meth:`skip_packets`), so a mismatch
    raises :class:`TraceFormatError` there, possibly mid-stream.

    ``strict=True`` (the default) raises :class:`TraceFormatError` on any
    truncated or corrupt chunk, reporting the byte offset and batch index of
    the damage.  ``strict=False`` tolerates a truncated tail — a writer
    killed before its end marker — by reading only the complete chunks
    before the cut (``truncated`` records that this happened).  Damage
    before the chunks (bad magic, unreadable metadata) and any checksum
    mismatch always raise.

    Lifetime: batches and metadata arrays handed out remain valid after the
    reader closes — the mapping is only released once the last view is
    garbage-collected (``close`` unmaps at once when no view is alive,
    lazily otherwise).  Callers that keep data while the file may be
    rewritten in place copy it out, as :func:`read_trace` does.
    """

    def __init__(self, path: PathLike, strict: bool = True):
        self._path = Path(path)
        self._strict = strict
        self.meta: Dict[str, Any] = {}
        self.truncated = False
        self.index: Optional[TraceIndex] = None
        self._mm: Optional[mmap.mmap] = None
        self._next_chunk = 0
        #: Per chunk: data CRC still to check (all False for ``RTRACE01``).
        self._unchecked: List[bool] = []
        #: Byte spans of the magic, the metadata and the array block.
        self._header_spans: List[Tuple[int, int]] = []

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
        try:
            self._read_header()
        except TraceFormatError:
            self.close()
            raise
        self.truncated = self.index.truncated
        self._next_chunk = 0
        return self

    def _read_header(self) -> None:
        mm = self._mm
        size = len(mm)
        path = self._path

        def length_at(pos: int, what: str) -> int:
            if pos + 4 > size:
                raise TraceFormatError(
                    f"truncated trace file {path}: short read of {what} "
                    f"length at byte offset {size} (batch 0)"
                )
            (value,) = struct.unpack("<I", mm[pos:pos + 4])
            if pos + 4 + value > size:
                raise TraceFormatError(
                    f"truncated trace file {path}: short read of {what} "
                    f"block at byte offset {size} (batch 0)"
                )
            return value

        magic = bytes(mm[: len(MAGIC)])
        if magic not in (MAGIC, MAGIC_V1):
            if magic.startswith(b"RTRACE"):
                # Same family, different format revision: name both
                # versions so multi-trace runs can tell which file is old.
                raise TraceFormatError(
                    f"unsupported trace format version {magic!r} in "
                    f"{path}: this reader supports {MAGIC!r} and {MAGIC_V1!r}"
                )
            raise TraceFormatError(f"bad magic in {path}: {magic!r}")
        checksummed = magic == MAGIC
        meta_start = len(MAGIC) + 4
        meta_end = meta_start + length_at(len(MAGIC), "metadata")
        arrays_start = arrays_end = chunks = meta_end
        if checksummed:
            arrays_start = meta_end + 4
            arrays_end = arrays_start + length_at(meta_end, "array")
            chunks = arrays_end + 4
            if chunks > size:
                raise TraceFormatError(
                    f"truncated trace file {path}: short read of header "
                    f"checksum at byte offset {size} (batch 0)"
                )
            (crc,) = struct.unpack("<I", mm[arrays_end:chunks])
            if zlib.crc32(np.frombuffer(mm, dtype=np.uint8, count=arrays_end)) != crc:
                raise TraceFormatError(f"checksum mismatch in {path}: header")
        plain = _decode_meta(bytes(mm[meta_start:meta_end]), path)
        arrays = _decode_arrays(mm, arrays_start, arrays_end, path)
        shared = sorted(set(plain) & set(arrays))
        if shared:
            raise TraceFormatError(
                f"bad array block in {path}: {shared} also in the metadata"
            )
        self.meta = {**plain, **arrays}
        self._header_spans = [(0, len(MAGIC)), (meta_start, meta_end),
                              (arrays_start, arrays_end)]
        self.index = TraceIndex.build(
            mm, chunks, size, path, self._strict, checksummed
        )
        self._unchecked = [checksummed] * self.index.n_chunks

    # -- access --------------------------------------------------------------

    def _entered(self) -> TraceIndex:
        if self.index is None:
            raise RuntimeError("TraceReader must be entered first")
        return self.index

    @property
    def total_packets(self) -> int:
        """Packets in the capture (index lookup, no data touched)."""
        return self._entered().total_packets

    def header_blake2b(self) -> str:
        """BLAKE2b-128 hex digest of the header as stored.

        It covers the magic, the metadata block and the array block, and
        leaves out the length fields and the CRC.  For an ``RTRACE01`` file
        that is the digest of its magic and metadata bytes, the form stream
        checkpoints have always keyed on.
        """
        self._entered()
        digest = hashlib.blake2b(digest_size=16)
        for start, end in self._header_spans:
            digest.update(self._mm[start:end])
        return digest.hexdigest()

    def chunk(self, i: int, start: int = 0) -> PacketBatch:
        """Chunk ``i`` (optionally from packet ``start``) as zero-copy views."""
        index = self._entered()
        data = index.offsets[i]
        count = index.counts[i]
        if self._unchecked[i]:
            end = data + count * _ROW_BYTES
            (crc,) = struct.unpack("<I", self._mm[end:end + 4])
            body = np.frombuffer(self._mm, dtype=np.uint8, count=end - data,
                                 offset=data)
            if zlib.crc32(body) != crc:
                raise TraceFormatError(
                    f"checksum mismatch in {self._path}: data of batch {i} "
                    f"at byte offset {data}"
                )
            self._unchecked[i] = False
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

    The columns and metadata arrays are copied out of the mapping
    (``PacketBatch.concat`` always copies), so nothing returned aliases a
    file that is later rewritten in place.  Every chunk's CRC is checked.
    """
    with TraceReader(path, strict=strict) as reader:
        meta = {k: v.copy() if isinstance(v, np.ndarray) else v
                for k, v in reader.meta.items()}
        return PacketBatch.concat(list(reader)), meta
