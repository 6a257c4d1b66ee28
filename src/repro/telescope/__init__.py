"""Network telescope substrate: packets, address space, sensor and trace IO.

This package models the measurement infrastructure of the paper's Section 3.2:
a darknet built from partially populated /16 blocks, an ingress policy, and a
column-oriented trace format for captured SYN probes.
"""

from repro.telescope.addresses import (
    IPV4_SPACE_SIZE,
    AddressSet,
    CidrBlock,
    int_to_ip,
    ip_to_int,
    slash16_of,
    slash24_of,
)
from repro.telescope.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    FLAG_URG,
    PacketBatch,
    SynPacket,
)
from repro.telescope.sensor import (
    DEFAULT_BLOCKED_PORTS,
    INGRESS_BLOCK_SINCE_YEAR,
    PAPER_TELESCOPE_SIZE,
    IngressPolicy,
    ObservationStats,
    Telescope,
    coverage_estimate,
    detection_probability,
    hit_probability_per_probe,
    internet_wide_rate,
    time_to_detection,
)
from repro.telescope.anonymize import (
    PrefixPreservingAnonymizer,
    shared_prefix_length,
)
from repro.telescope.pcap import (
    PcapFormatError,
    iter_pcap,
    read_pcap,
    write_pcap,
)
from repro.telescope.trace import (
    TraceFormatError,
    TraceIndex,
    TraceReader,
    TraceWriter,
    read_trace,
    write_trace,
)

__all__ = [
    "IPV4_SPACE_SIZE",
    "AddressSet",
    "CidrBlock",
    "int_to_ip",
    "ip_to_int",
    "slash16_of",
    "slash24_of",
    "FLAG_ACK",
    "FLAG_FIN",
    "FLAG_PSH",
    "FLAG_RST",
    "FLAG_SYN",
    "FLAG_URG",
    "PacketBatch",
    "SynPacket",
    "DEFAULT_BLOCKED_PORTS",
    "INGRESS_BLOCK_SINCE_YEAR",
    "PAPER_TELESCOPE_SIZE",
    "IngressPolicy",
    "ObservationStats",
    "Telescope",
    "coverage_estimate",
    "detection_probability",
    "hit_probability_per_probe",
    "internet_wide_rate",
    "time_to_detection",
    "PrefixPreservingAnonymizer",
    "shared_prefix_length",
    "PcapFormatError",
    "iter_pcap",
    "read_pcap",
    "write_pcap",
    "TraceFormatError",
    "TraceIndex",
    "TraceReader",
    "TraceWriter",
    "read_trace",
    "write_trace",
]
