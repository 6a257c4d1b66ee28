"""Packet records.

Two representations coexist:

* :class:`SynPacket` — a frozen dataclass for single-packet code paths and
  tests; readable but slow.
* :class:`PacketBatch` — a numpy column store holding millions of packets;
  the workhorse of the simulator and the analysis pipeline.

Only the header fields the paper's methodology touches are modelled: the
timestamp, the IPv4 addresses, TCP ports, the IP Identification field, the TCP
sequence number, TTL, window size and TCP flags.  Fingerprinting (Section 3.3
of the paper) operates exclusively on these.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro._util.validate import check_header_field
from repro.telescope.addresses import int_to_ip

# TCP control-bit masks (RFC 793).
FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20

#: Wire widths (bits) of the modelled integer header fields; the single
#: source of truth for ``SynPacket``'s runtime bound checks
#: (``repro._util.validate.check_header_field``).
_FIELD_BITS = {
    "src_ip": 32,
    "dst_ip": 32,
    "seq": 32,
    "src_port": 16,
    "dst_port": 16,
    "ip_id": 16,
    "window": 16,
    "ttl": 8,
    "flags": 8,
}

#: Columns of the batch store, in serialisation order.
_COLUMNS = (
    ("time", np.float64),
    ("src_ip", np.uint32),
    ("dst_ip", np.uint32),
    ("src_port", np.uint16),
    ("dst_port", np.uint16),
    ("ip_id", np.uint16),
    ("seq", np.uint32),
    ("ttl", np.uint8),
    ("window", np.uint16),
    ("flags", np.uint8),
)


@dataclass(frozen=True)
class SynPacket:
    """A single observed TCP packet (header subset).

    Despite the name the flags field may encode any combination; the sensor
    filters to pure SYN when separating scans from backscatter.
    """

    time: float
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    ip_id: int = 0
    seq: int = 0
    ttl: int = 64
    window: int = 65535
    flags: int = FLAG_SYN

    def __post_init__(self) -> None:
        for name, bits in _FIELD_BITS.items():
            check_header_field(name, getattr(self, name), bits)

    @property
    def is_syn_only(self) -> bool:
        """True when only the SYN control bit is set (a scan probe)."""
        return self.flags == FLAG_SYN

    @property
    def is_backscatter(self) -> bool:
        """True for SYN/ACK or RST frames — responses to spoofed attacks."""
        return bool(self.flags & (FLAG_ACK | FLAG_RST)) and not self.is_syn_only

    def describe(self) -> str:
        """Human-readable one-liner, e.g. for example scripts."""
        return (
            f"{self.time:12.3f}  {int_to_ip(self.src_ip)}:{self.src_port}"
            f" -> {int_to_ip(self.dst_ip)}:{self.dst_port}"
            f"  ipid={self.ip_id} seq={self.seq:#010x} flags={self.flags:#04x}"
        )


class PacketBatch:
    """Column-oriented packet store.

    All columns are numpy arrays of equal length; the batch is immutable
    (operations return new batches sharing or copying arrays, never mutating
    in place), which keeps analysis code free of aliasing bugs.  The
    invariant is enforced at runtime (``tests/test_packet.py``,
    ``TestPacketBatchImmutability``): the batch holds non-writeable views,
    so ``batch.ttl[0] = 1`` raises ``ValueError``.  Callers that handed arrays to the constructor keep
    their own writable references — freezing protects against mutation
    *through the batch*, it does not snapshot shared buffers.
    """

    __slots__ = ("_cols",)

    def __init__(self, **columns: np.ndarray):
        missing = [name for name, _ in _COLUMNS if name not in columns]
        extra = [name for name in columns if name not in dict(_COLUMNS)]
        if missing:
            raise ValueError(f"missing columns: {missing}")
        if extra:
            raise ValueError(f"unknown columns: {extra}")
        cols: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for name, dtype in _COLUMNS:
            arr = np.asarray(columns[name], dtype=dtype)
            if arr.ndim != 1:
                raise ValueError(f"column {name} must be 1-D")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise ValueError(
                    f"column {name} has length {arr.size}, expected {length}"
                )
            # Hold a non-writeable view so the immutability invariant is a
            # runtime guarantee, not a convention (the caller's own
            # reference, if any, keeps its original flags).
            frozen = arr.view()
            frozen.setflags(write=False)
            cols[name] = frozen
        self._cols = cols

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "PacketBatch":
        """A batch with zero packets."""
        return cls(**{name: np.array([], dtype=dt) for name, dt in _COLUMNS})

    @classmethod
    def from_packets(cls, packets: Iterable[SynPacket]) -> "PacketBatch":
        """Build a batch from individual :class:`SynPacket` records."""
        items = list(packets)
        return cls(
            time=np.array([p.time for p in items], dtype=np.float64),
            src_ip=np.array([p.src_ip for p in items], dtype=np.uint32),
            dst_ip=np.array([p.dst_ip for p in items], dtype=np.uint32),
            src_port=np.array([p.src_port for p in items], dtype=np.uint16),
            dst_port=np.array([p.dst_port for p in items], dtype=np.uint16),
            ip_id=np.array([p.ip_id for p in items], dtype=np.uint16),
            seq=np.array([p.seq for p in items], dtype=np.uint32),
            ttl=np.array([p.ttl for p in items], dtype=np.uint8),
            window=np.array([p.window for p in items], dtype=np.uint16),
            flags=np.array([p.flags for p in items], dtype=np.uint8),
        )

    @classmethod
    def concat(cls, batches: Sequence["PacketBatch"]) -> "PacketBatch":
        """Concatenate batches (order preserved, no sorting)."""
        if not batches:
            return cls.empty()
        return cls(**{
            name: np.concatenate([b._cols[name] for b in batches])
            for name, _ in _COLUMNS
        })

    # -- column access -----------------------------------------------------

    @property
    def time(self) -> np.ndarray:
        return self._cols["time"]

    @property
    def src_ip(self) -> np.ndarray:
        return self._cols["src_ip"]

    @property
    def dst_ip(self) -> np.ndarray:
        return self._cols["dst_ip"]

    @property
    def src_port(self) -> np.ndarray:
        return self._cols["src_port"]

    @property
    def dst_port(self) -> np.ndarray:
        return self._cols["dst_port"]

    @property
    def ip_id(self) -> np.ndarray:
        return self._cols["ip_id"]

    @property
    def seq(self) -> np.ndarray:
        return self._cols["seq"]

    @property
    def ttl(self) -> np.ndarray:
        return self._cols["ttl"]

    @property
    def window(self) -> np.ndarray:
        return self._cols["window"]

    @property
    def flags(self) -> np.ndarray:
        return self._cols["flags"]

    # -- protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return int(self._cols["time"].size)

    def __getitem__(self, index) -> "PacketBatch":
        """Slice / boolean-mask / fancy-index into a new batch."""
        if isinstance(index, (int, np.integer)):
            raise TypeError("use .packet(i) for single-packet access")
        return PacketBatch(**{name: col[index] for name, col in self._cols.items()})

    def packet(self, index: int) -> SynPacket:
        """Materialise packet ``index`` as a :class:`SynPacket`."""
        return SynPacket(
            time=float(self.time[index]),
            src_ip=int(self.src_ip[index]),
            dst_ip=int(self.dst_ip[index]),
            src_port=int(self.src_port[index]),
            dst_port=int(self.dst_port[index]),
            ip_id=int(self.ip_id[index]),
            seq=int(self.seq[index]),
            ttl=int(self.ttl[index]),
            window=int(self.window[index]),
            flags=int(self.flags[index]),
        )

    def __iter__(self) -> Iterator[SynPacket]:
        for i in range(len(self)):
            yield self.packet(i)

    # -- transformations ---------------------------------------------------

    def sorted_by_time(self) -> "PacketBatch":
        """Return a copy ordered by timestamp (stable)."""
        order = np.argsort(self.time, kind="stable")
        return self[order]

    def where(self, mask: np.ndarray) -> "PacketBatch":
        """Select packets where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError("mask length does not match batch length")
        return self[mask]

    def syn_only(self) -> "PacketBatch":
        """Keep only pure-SYN frames (scan probes, Section 3.1)."""
        return self.where(self.flags == FLAG_SYN)

    def time_window(self, start: float, end: float) -> "PacketBatch":
        """Packets with ``start <= time < end``."""
        if end < start:
            raise ValueError("end must be >= start")
        return self.where((self.time >= start) & (self.time < end))

    def group_by_source(self) -> Dict[int, np.ndarray]:
        """Index arrays per distinct source IP (sorted by first appearance
        of the source in ascending IP order)."""
        if len(self) == 0:
            return {}
        order = np.argsort(self.src_ip, kind="stable")
        sorted_src = self.src_ip[order]
        uniques, starts = np.unique(sorted_src, return_index=True)
        out: Dict[int, np.ndarray] = {}
        bounds = list(starts) + [sorted_src.size]
        for i, src in enumerate(uniques):
            out[int(src)] = order[bounds[i]:bounds[i + 1]]
        return out

    def distinct_sources(self) -> int:
        """Number of distinct source IPs."""
        if len(self) == 0:
            return 0
        # A sort: np.unique takes NumPy >= 2.3's slower hash path here.
        src = np.sort(self.src_ip)
        return int(np.count_nonzero(src[1:] != src[:-1])) + 1

    def distinct_ports(self) -> int:
        """Number of distinct destination ports."""
        return int(np.unique(self.dst_port).size) if len(self) else 0

    def port_packet_counts(self) -> Dict[int, int]:
        """Packets per destination port."""
        ports, counts = np.unique(self.dst_port, return_counts=True)
        return {int(p): int(c) for p, c in zip(ports, counts)}

    # -- misc ----------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the column arrays."""
        return int(sum(col.nbytes for col in self._cols.values()))

    def columns(self) -> Dict[str, np.ndarray]:
        """A fresh dict of the column arrays.

        The dict itself is a copy (re-keying it is fine — see
        ``Anonymizer.anonymize_batch``); the arrays are the batch's own
        non-writeable views, so element assignment raises ``ValueError``.
        Call ``np.array(col)`` for a writable copy.
        """
        return dict(self._cols)

    def __repr__(self) -> str:
        span = ""
        if len(self):
            span = f", t=[{self.time.min():.1f}, {self.time.max():.1f}]"
        return f"PacketBatch({len(self)} packets{span})"
