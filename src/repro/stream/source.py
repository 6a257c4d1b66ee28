"""Chunked ingestion front-ends for the streaming engine.

A *stream source* turns a capture — an ``.rtrace`` file, or an in-memory
:class:`~repro.telescope.packet.PacketBatch` such as a pcap read whole —
into a sequence of bounded *windows*: contiguous slices of the packet
stream, re-batched to a configurable packet budget.

Re-batching is **memoryless across window boundaries**: the split points
depend only on the packets after the previous boundary (a fill count that
resets on every emit).  That property is what makes checkpoint resume
exact — skipping the first *N* committed packets and re-batching the
remainder reproduces the original window sequence.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro import DEFAULT_BATCH_SIZE
from repro.telescope.packet import PacketBatch
from repro.telescope.trace import TraceReader

PathLike = Union[str, Path]


def rebatch(
    chunks: Iterable[PacketBatch],
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
) -> Iterator[PacketBatch]:
    """Re-chunk a batch stream into windows of at most ``batch_size`` packets.

    Empty windows are never emitted; input chunk boundaries are otherwise
    invisible to the consumer.
    """
    if batch_size is not None and batch_size <= 0:
        raise ValueError("batch_size must be positive")

    pending: List[PacketBatch] = []
    pending_n = 0

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

    for chunk in chunks:
        if len(chunk) == 0:
            continue
        # Zero-copy fast path: with nothing buffered, a chunk that fits the
        # budget exactly IS the window — emit it as-is (the common case
        # when the capture's chunk size equals the window budget).
        # Buffered chunks still share memory with their source (``take``
        # pops views); only windows spanning chunk boundaries ever copy.
        if (
            not pending_n
            and batch_size is not None
            and len(chunk) == batch_size
        ):
            yield chunk
            continue
        pending.append(chunk)
        pending_n += len(chunk)
        while batch_size is not None and pending_n >= batch_size:
            yield take(batch_size)
    if pending_n:
        yield take(pending_n)


class StreamSource:
    """Base interface: windows of a capture, plus optional resume support."""

    #: Capture metadata (the ``.rtrace`` JSON block where available).
    meta: Dict[str, Any] = {}

    #: Packets the capture holds, where known without reading them; the
    #: furthest ``windows(skip_packets=...)`` can skip.
    total_packets: Optional[int] = None

    def identity(self) -> Optional[Dict[str, Any]]:
        """Stable description of the capture for checkpoint keying.

        ``None`` means the source cannot be re-identified across processes
        (e.g. an in-memory batch), which disables checkpointing.
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
    here, and with ``strict=False`` only the complete chunks before a cut
    are read and ``truncated`` is set.  ``skip_packets`` fast-forwards for checkpoint
    resume with an index seek, so a resumed run re-reads none of the
    committed bytes.
    """

    def __init__(
        self,
        path: PathLike,
        batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
        strict: bool = True,
    ):
        self.path = Path(path)
        self.batch_size = batch_size
        self.strict = strict
        with TraceReader(self.path, strict=strict) as reader:
            self.meta = reader.meta
            #: Mirrors ``TraceReader.truncated``.
            self.truncated = reader.truncated
            self.total_packets = reader.total_packets
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
            yield from rebatch(chunks, self.batch_size)


class BatchStreamSource(StreamSource):
    """Windows over an in-memory batch (a pcap read whole, tests, library
    callers).

    No stable cross-process identity, so checkpointing is unavailable;
    ``skip_packets`` still works (in-process restarts, unit tests).
    """

    def __init__(
        self,
        batch: PacketBatch,
        batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
    ):
        self._batch = batch
        self.batch_size = batch_size
        self.meta = {}
        self.total_packets = len(batch)

    def windows(self, skip_packets: int = 0) -> Iterator[PacketBatch]:
        if skip_packets > len(self._batch):
            raise ValueError(
                f"cannot skip {skip_packets} packets of a "
                f"{len(self._batch)}-packet batch"
            )
        rest = self._batch[skip_packets:] if skip_packets else self._batch
        yield from rebatch(iter([rest]), self.batch_size)


def _chain_remainder(
    remainder: PacketBatch, rest: Iterable[PacketBatch]
) -> Iterator[PacketBatch]:
    if len(remainder):
        yield remainder
    yield from rest
