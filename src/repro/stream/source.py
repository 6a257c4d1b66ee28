"""Chunked ingestion front-ends for the streaming engine.

A *stream source* turns a capture — an ``.rtrace`` file, a pcap, or an
in-memory :class:`~repro.telescope.packet.PacketBatch` — into a sequence of
bounded *windows*: contiguous slices of the packet stream, re-batched to a
configurable packet budget and optionally aligned to wall-time boundaries.

Re-batching is **memoryless across window boundaries**: the split points
depend only on the packets after the previous boundary (a fill count that
resets on every emit, and absolute-time buckets).  That property is what
makes checkpoint resume exact — skipping the first *N* committed packets
and re-batching the remainder reproduces the original window sequence.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.telescope.packet import PacketBatch
from repro.telescope.trace import TraceReader

PathLike = Union[str, Path]

#: Default window budget: large enough that per-window numpy passes dominate
#: the Python orchestration, small enough to bound the working set.
DEFAULT_BATCH_SIZE = 65_536


def rebatch(
    chunks: Iterable[PacketBatch],
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    window_s: Optional[float] = None,
) -> Iterator[PacketBatch]:
    """Re-chunk a batch stream into windows of at most ``batch_size`` packets.

    With ``window_s`` set, a window additionally never spans an absolute
    time boundary (``floor(time / window_s)`` changes force a flush), which
    assumes the stream is time-ordered — the engine enforces that anyway.
    Empty windows are never emitted; input chunk boundaries are otherwise
    invisible to the consumer.
    """
    if batch_size is not None and batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if window_s is not None and window_s <= 0:
        raise ValueError("window_s must be positive")

    pending: List[PacketBatch] = []
    pending_n = 0
    pending_bucket: Optional[int] = None

    def take(k: int) -> PacketBatch:
        """Pop exactly ``k`` packets off the front of the pending queue."""
        nonlocal pending, pending_n
        out: List[PacketBatch] = []
        got = 0
        while got < k:
            head = pending[0]
            need = k - got
            if len(head) <= need:
                out.append(pending.pop(0))
                got += len(head)
            else:
                out.append(head[:need])
                pending[0] = head[need:]
                got += need
        pending_n -= k
        return out[0] if len(out) == 1 else PacketBatch.concat(out)

    def pieces_of(chunk: PacketBatch) -> Iterator[PacketBatch]:
        """Split a chunk wherever its time bucket changes."""
        if window_s is None or len(chunk) <= 1:
            yield chunk
            return
        buckets = np.floor(chunk.time / window_s).astype(np.int64)
        cuts = np.flatnonzero(buckets[1:] != buckets[:-1]) + 1
        prev = 0
        for cut in list(cuts) + [len(chunk)]:
            if cut > prev:
                yield chunk[prev:cut]
            prev = cut

    for chunk in chunks:
        if len(chunk) == 0:
            continue
        for piece in pieces_of(chunk):
            if window_s is not None:
                bucket = int(np.floor(float(piece.time[0]) / window_s))
                if pending_n and bucket != pending_bucket:
                    yield take(pending_n)
                pending_bucket = bucket
            # Zero-copy fast path: with nothing buffered, a piece that fits
            # the budget exactly IS the window — emit it as-is (the common
            # case when the capture's chunk size is a multiple of the window
            # budget, e.g. mmap chunks sliced by ``pieces_of``).  Buffered
            # pieces still share memory with their chunk (``take`` pops
            # views); only windows spanning chunk boundaries ever copy.
            if (
                not pending_n
                and batch_size is not None
                and len(piece) == batch_size
            ):
                yield piece
                continue
            pending.append(piece)
            pending_n += len(piece)
            while batch_size is not None and pending_n >= batch_size:
                yield take(batch_size)
    if pending_n:
        yield take(pending_n)


class StreamSource:
    """Base interface: windows of a capture, plus optional resume support."""

    #: Capture metadata (the ``.rtrace`` JSON block where available).
    meta: Dict[str, Any] = {}

    def identity(self) -> Optional[Dict[str, Any]]:
        """Stable description of the capture for checkpoint keying.

        ``None`` means the source cannot be re-identified across processes
        (e.g. an ad-hoc in-memory iterable), which disables checkpointing.
        """
        return None

    def windows(self, skip_packets: int = 0) -> Iterator[PacketBatch]:
        raise NotImplementedError


class TraceStreamSource(StreamSource):
    """Windows over an ``.rtrace`` capture.

    The windows handed to the engine are read-only views straight into the
    mapped file (:class:`~repro.telescope.trace.TraceReader`) — the sensor
    filter, re-batching and session building all run over the mapped pages
    in one pass, with a copy only where a window genuinely spans two
    chunks.

    Building the source opens the capture once, which checks the whole
    chunk directory: a damaged capture raises :class:`TraceFormatError`
    here, and with ``strict=False`` a cleanly-truncated tail is dropped and
    ``truncated`` is set.  ``skip_packets`` fast-forwards for checkpoint
    resume with an index seek, so a resumed run re-reads none of the
    committed bytes.
    """

    def __init__(
        self,
        path: PathLike,
        batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
        window_s: Optional[float] = None,
        strict: bool = True,
    ):
        self.path = Path(path)
        self.batch_size = batch_size
        self.window_s = window_s
        self.strict = strict
        with TraceReader(self.path, strict=strict) as reader:
            self.meta = reader.meta
            #: Mirrors ``TraceReader.truncated``.
            self.truncated = reader.truncated
            self._header_blake2b = reader.header_blake2b()

    def identity(self) -> Optional[Dict[str, Any]]:
        """Size plus a digest of the header as stored.

        Cheap (no full-content read) yet specific enough that a different
        capture squatting on the same path misses the checkpoint instead of
        corrupting the resume.  The digest covers the magic, the metadata
        and the array block (:meth:`TraceReader.header_blake2b`), so an
        ``RTRACE01`` capture keeps the identity it always had and
        checkpoints written over it still resume.
        """
        return {
            "kind": "rtrace",
            "size": self.path.stat().st_size,
            "meta_blake2b": self._header_blake2b,
        }

    def windows(self, skip_packets: int = 0) -> Iterator[PacketBatch]:
        with TraceReader(self.path, strict=self.strict) as reader:
            self.truncated = reader.truncated
            chunks: Iterator[PacketBatch]
            if skip_packets:
                remainder = reader.skip_packets(skip_packets)
                chunks = _chain_remainder(remainder, reader)
            else:
                chunks = iter(reader)
            yield from rebatch(chunks, self.batch_size, self.window_s)


class BatchStreamSource(StreamSource):
    """Windows over an in-memory batch (tests, library callers).

    No stable cross-process identity, so checkpointing is unavailable;
    ``skip_packets`` still works (in-process restarts, unit tests).
    """

    def __init__(
        self,
        batch: PacketBatch,
        batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
        window_s: Optional[float] = None,
    ):
        self._batch = batch
        self.batch_size = batch_size
        self.window_s = window_s
        self.meta = {}

    def windows(self, skip_packets: int = 0) -> Iterator[PacketBatch]:
        if skip_packets > len(self._batch):
            raise ValueError(
                f"cannot skip {skip_packets} packets of a "
                f"{len(self._batch)}-packet batch"
            )
        rest = self._batch[skip_packets:] if skip_packets else self._batch
        yield from rebatch(iter([rest]), self.batch_size, self.window_s)


class IterStreamSource(StreamSource):
    """Windows over any one-shot batch iterable (pcap adapters, generators).

    Single use: the underlying iterable is consumed by the first
    ``windows()`` call.  Resume is unsupported (no identity, no skipping).
    """

    def __init__(
        self,
        batches: Iterable[PacketBatch],
        batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
        window_s: Optional[float] = None,
    ):
        self._batches = iter(batches)
        self.batch_size = batch_size
        self.window_s = window_s
        self.meta = {}

    def windows(self, skip_packets: int = 0) -> Iterator[PacketBatch]:
        if skip_packets:
            raise ValueError("IterStreamSource cannot skip packets")
        yield from rebatch(self._batches, self.batch_size, self.window_s)


def _chain_remainder(
    remainder: PacketBatch, rest: Iterable[PacketBatch]
) -> Iterator[PacketBatch]:
    if len(remainder):
        yield remainder
    yield from rest
