"""Tool fingerprinting — the *detecting* side of §3.3.

The detectors here implement the published header-field relations for the
five tracked tools.  They are written against the literature, not against
this repository's generators, and are validated in both directions by the
test suite (generators satisfy the relations; random traffic does not).

Detection order matters: the most specific single-packet relations run first
(ZMap's constant IP-ID, Masscan's IP-ID equation, Mirai's sequence=destIP),
then the pairwise relations (Unicorn before NMap, because NMap's relation has
a far higher chance rate — 2⁻¹⁶ per pair — and would shadow Unicorn's 2⁻³²
relation if tested first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.scanners.base import Tool
from repro.scanners.masscan import masscan_ip_id
from repro.scanners.zmap import ZMAP_IP_ID
from repro.telescope.packet import PacketBatch

#: Fraction of packets/pairs that must satisfy a relation for attribution.
DEFAULT_MATCH_THRESHOLD = 0.8

#: Packets examined per scan; fingerprints are deterministic per tool, so a
#: prefix sample is sufficient and keeps huge scans cheap.
DEFAULT_SAMPLE_LIMIT = 256


def masscan_match(ip_id: np.ndarray, dst_ip: np.ndarray, dst_port: np.ndarray,
                  seq: np.ndarray) -> np.ndarray:
    """Per-packet Masscan test: IPid == destIP ⊕ destPort ⊕ SeqNum (16-bit)."""
    return ip_id == masscan_ip_id(dst_ip, dst_port, seq)


def zmap_match(ip_id: np.ndarray) -> np.ndarray:
    """Per-packet stock-ZMap test: IP Identification == 54321."""
    return ip_id == ZMAP_IP_ID


def mirai_match(seq: np.ndarray, dst_ip: np.ndarray) -> np.ndarray:
    """Per-packet Mirai test: TCP sequence number == destination IP."""
    return seq.astype(np.uint32) == dst_ip.astype(np.uint32)


def nmap_pair_match(seq: np.ndarray) -> np.ndarray:
    """Consecutive-pair NMap test.

    Within one session, ``Seq1 ⊕ Seq2`` has equal 16-bit halves because the
    embedded info is duplicated into both halves before the session secret is
    XORed on.  Returns a boolean per consecutive pair (length ``n - 1``).
    """
    if seq.size < 2:
        return np.zeros(0, dtype=bool)
    delta = seq[:-1].astype(np.uint32) ^ seq[1:].astype(np.uint32)
    return (delta & np.uint32(0xFFFF)) == ((delta >> np.uint32(16)) & np.uint32(0xFFFF))


def unicorn_pair_match(
    seq: np.ndarray, dst_ip: np.ndarray, dst_port: np.ndarray, src_port: np.ndarray
) -> np.ndarray:
    """Consecutive-pair Unicorn test (paper §3.3)::

        Seq1 ⊕ Seq2 == destIP1 ⊕ destIP2 ⊕ srcPort1 ⊕ srcPort2
                       ⊕ ((destPort1 ⊕ destPort2) << 16)
    """
    if seq.size < 2:
        return np.zeros(0, dtype=bool)
    left = seq[:-1].astype(np.uint32) ^ seq[1:].astype(np.uint32)
    right = (
        (dst_ip[:-1].astype(np.uint32) ^ dst_ip[1:].astype(np.uint32))
        ^ (src_port[:-1].astype(np.uint32) ^ src_port[1:].astype(np.uint32))
        ^ ((dst_port[:-1].astype(np.uint32) ^ dst_port[1:].astype(np.uint32))
           << np.uint32(16))
    )
    return left == right


@dataclass(frozen=True)
class FingerprintVerdict:
    """Outcome of fingerprinting one scan."""

    tool: Tool
    match_fraction: float
    packets_examined: int


class ToolFingerprinter:
    """Attributes scans to tools from their header fields."""

    def __init__(
        self,
        threshold: float = DEFAULT_MATCH_THRESHOLD,
        sample_limit: int = DEFAULT_SAMPLE_LIMIT,
    ):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if sample_limit < 2:
            raise ValueError("sample_limit must be >= 2 (pairwise tests need pairs)")
        self.threshold = threshold
        self.sample_limit = sample_limit

    def fingerprint_arrays(
        self,
        ip_id: np.ndarray,
        seq: np.ndarray,
        dst_ip: np.ndarray,
        dst_port: np.ndarray,
        src_port: np.ndarray,
        counts: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fingerprint many scans in one pass.

        The field arrays hold each scan's first (at most ``sample_limit``)
        time-ordered packets back to back, ``counts[i]`` of them for scan
        ``i``.  Returns ``(tool, match_fraction)``: a :class:`Tool` object
        array and a float64 array, one entry per scan.  Per-scan hits are
        cumulative-sum differences and a pair that straddles two scans is
        never counted, so the result equals one call per scan.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size and (counts.min() < 0 or counts.max() > self.sample_limit):
            raise ValueError(
                f"scan packet counts must lie in [0, {self.sample_limit}]"
            )
        if int(counts.sum()) != ip_id.size:
            raise ValueError("counts do not add up to the packets given")
        ends = np.cumsum(counts)
        starts = ends - counts

        def hits(matched: np.ndarray) -> np.ndarray:
            cum = np.concatenate(([0], np.cumsum(matched)))
            return cum[ends] - cum[starts]

        def pair_hits(matched: np.ndarray) -> np.ndarray:
            # Pair i is (packet i, packet i + 1); the pair leaving a scan's
            # last packet crosses into the next scan and is masked out.
            padded = np.zeros(ip_id.size, dtype=bool)
            padded[:-1] = matched
            padded[ends[counts > 0] - 1] = False
            return hits(padded)

        # Single-packet relations, most specific first, then the pairwise
        # ones, which need at least one pair.
        relations = (
            (Tool.ZMAP, hits(zmap_match(ip_id)), counts),
            (Tool.MASSCAN, hits(masscan_match(ip_id, dst_ip, dst_port, seq)), counts),
            (Tool.MIRAI, hits(mirai_match(seq, dst_ip)), counts),
            (Tool.UNICORN,
             pair_hits(unicorn_pair_match(seq, dst_ip, dst_port, src_port)),
             counts - 1),
            (Tool.NMAP, pair_hits(nmap_pair_match(seq)), counts - 1),
        )
        tool = np.empty(counts.size, dtype=object)
        tool[:] = Tool.UNKNOWN  # np.full would store the plain str
        fraction = np.zeros(counts.size, dtype=np.float64)
        decided = np.zeros(counts.size, dtype=bool)
        for name, matched, tried in relations:
            with np.errstate(invalid="ignore", divide="ignore"):
                share = matched / tried
            won = ~decided & (tried > 0) & (share >= self.threshold)
            tool[won] = name
            fraction[won] = share[won]
            decided |= won
        return tool, fraction

    def fingerprint_batch(self, batch: PacketBatch) -> FingerprintVerdict:
        """Fingerprint a batch assumed to belong to one scan."""
        n = min(len(batch), self.sample_limit)
        tool, fraction = self.fingerprint_arrays(
            batch.ip_id[:n], batch.seq[:n], batch.dst_ip[:n],
            batch.dst_port[:n], batch.src_port[:n], np.array([n]),
        )
        return FingerprintVerdict(tool[0], float(fraction[0]), n)

    def per_packet_tool(self, batch: PacketBatch) -> np.ndarray:
        """Best-effort per-packet attribution over a mixed batch.

        Only the single-packet relations apply (pairwise tests are undefined
        across unrelated packets); everything else is UNKNOWN.  Used for
        traffic-share analyses where packets, not scans, are weighted.
        """
        n = len(batch)
        # ``np.full`` would store ``Tool.UNKNOWN`` as a plain ``str``.
        out = np.empty(n, dtype=object)
        out.fill(Tool.UNKNOWN)
        if n == 0:
            return out
        zm = zmap_match(batch.ip_id)
        ms = masscan_match(batch.ip_id, batch.dst_ip, batch.dst_port, batch.seq)
        mi = mirai_match(batch.seq, batch.dst_ip)
        out[mi] = Tool.MIRAI
        out[ms & ~zm] = Tool.MASSCAN
        out[zm] = Tool.ZMAP
        return out
