"""PCAP interoperability.

Real telescopes capture raw frames into libpcap files; this module writes
and reads classic pcap (magic ``0xa1b2c3d4``, microsecond timestamps,
LINKTYPE_ETHERNET) so synthetic captures can be inspected with tcpdump or
Wireshark, and so externally captured SYN traffic can be fed into the
analysis pipeline.

Each :class:`~repro.telescope.packet.SynPacket` becomes a minimal
Ethernet/IPv4/TCP frame (54 bytes on the wire): the fields the analysis
needs — addresses, ports, IP identification, TCP sequence number, TTL,
window, flags — are encoded in their real header positions, with correct
IPv4 header checksums. Reading tolerates (and skips) non-TCP frames and
both pcap endiannesses.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.telescope.packet import PacketBatch, SynPacket

PathLike = Union[str, Path]

PCAP_MAGIC_LE = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_ETH_HEADER = struct.Struct("!6s6sH")
_ETHERTYPE_IPV4 = 0x0800
_IP_PROTO_TCP = 6

#: Synthetic MAC addresses for the Ethernet layer.
_SRC_MAC = bytes.fromhex("020000000001")
_DST_MAC = bytes.fromhex("020000000002")


class PcapFormatError(ValueError):
    """Raised on malformed or unsupported pcap input."""


def _ipv4_checksum(header: bytes) -> int:
    """RFC 1071 ones'-complement checksum over an IPv4 header."""
    if len(header) % 2:
        header += b"\x00"
    total = sum(struct.unpack(f"!{len(header) // 2}H", header))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _build_frame(packet: SynPacket) -> bytes:
    """Serialise one packet as an Ethernet/IPv4/TCP frame."""
    tcp = struct.pack(
        "!HHIIBBHHH",
        packet.src_port,
        packet.dst_port,
        packet.seq,
        0,                       # ack number
        5 << 4,                  # data offset: 5 words
        packet.flags,
        packet.window,
        0,                       # checksum left zero (no payload either way)
        0,                       # urgent pointer
    )
    total_length = 20 + len(tcp)
    ip_wo_checksum = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,                    # version 4, IHL 5
        0,
        total_length,
        packet.ip_id,
        0,                       # flags/fragment
        packet.ttl,
        _IP_PROTO_TCP,
        0,                       # checksum placeholder
        struct.pack("!I", packet.src_ip),
        struct.pack("!I", packet.dst_ip),
    )
    checksum = _ipv4_checksum(ip_wo_checksum)
    ip = ip_wo_checksum[:10] + struct.pack("!H", checksum) + ip_wo_checksum[12:]
    eth = _ETH_HEADER.pack(_DST_MAC, _SRC_MAC, _ETHERTYPE_IPV4)
    return eth + ip + tcp


def write_pcap(path: PathLike, batch: PacketBatch) -> int:
    """Write a batch as a classic pcap file; returns frames written."""
    with open(path, "wb") as handle:
        handle.write(_GLOBAL_HEADER.pack(
            PCAP_MAGIC_LE, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET
        ))
        for packet in batch:
            frame = _build_frame(packet)
            seconds = int(packet.time)
            micros = int(round((packet.time - seconds) * 1e6))
            if micros >= 1_000_000:
                seconds += 1
                micros -= 1_000_000
            handle.write(_RECORD_HEADER.pack(seconds, micros,
                                             len(frame), len(frame)))
            handle.write(frame)
    return len(batch)


def _parse_frame(data: bytes, time: float) -> Optional[SynPacket]:
    """Parse one captured frame; ``None`` for anything that is not
    Ethernet/IPv4/TCP."""
    if len(data) < 14:
        return None
    ethertype = struct.unpack("!H", data[12:14])[0]
    if ethertype != _ETHERTYPE_IPV4:
        return None
    ip = data[14:]
    if len(ip) < 20 or (ip[0] >> 4) != 4:
        return None
    ihl = (ip[0] & 0x0F) * 4
    if len(ip) < ihl + 20 or ip[9] != _IP_PROTO_TCP:
        return None
    ip_id, = struct.unpack("!H", ip[4:6])
    ttl = ip[8]
    src_ip, = struct.unpack("!I", ip[12:16])
    dst_ip, = struct.unpack("!I", ip[16:20])
    tcp = ip[ihl:]
    src_port, dst_port, seq = struct.unpack("!HHI", tcp[0:8])
    flags = tcp[13]
    window, = struct.unpack("!H", tcp[14:16])
    return SynPacket(
        time=time, src_ip=src_ip, dst_ip=dst_ip,
        src_port=src_port, dst_port=dst_port,
        ip_id=ip_id, seq=seq, ttl=ttl, window=window, flags=flags,
    )


def iter_pcap(path: PathLike) -> Iterator[SynPacket]:
    """Iterate the TCP packets of a pcap file (non-TCP frames skipped)."""
    with open(path, "rb") as handle:
        header = handle.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise PcapFormatError(f"truncated pcap header: {path}")
        magic = struct.unpack("<I", header[:4])[0]
        if magic == PCAP_MAGIC_LE:
            endian = "<"
        elif magic == struct.unpack(">I", struct.pack("<I", PCAP_MAGIC_LE))[0]:
            endian = ">"
        else:
            raise PcapFormatError(f"bad pcap magic {magic:#010x}: {path}")
        record = struct.Struct(endian + "IIII")
        size = os.fstat(handle.fileno()).st_size
        while True:
            raw = handle.read(record.size)
            if not raw:
                return
            if len(raw) < record.size:
                raise PcapFormatError(f"truncated pcap record header: {path}")
            seconds, micros, caplen, _origlen = record.unpack(raw)
            # Checked before reading, so a damaged length cannot request
            # gigabytes.
            if caplen > size - handle.tell():
                raise PcapFormatError(f"truncated pcap frame: {path}")
            data = handle.read(caplen)
            packet = _parse_frame(data, seconds + micros / 1e6)
            if packet is not None:
                yield packet


def read_pcap(path: PathLike) -> PacketBatch:
    """Read all TCP packets of a pcap file into a batch."""
    return PacketBatch.from_packets(iter_pcap(path))
