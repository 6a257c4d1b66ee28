"""Unit tests for SynPacket and the PacketBatch column store."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.telescope.packet import (
    FLAG_ACK,
    FLAG_RST,
    FLAG_SYN,
    PacketBatch,
    SynPacket,
)


def make_packets(n=10, t0=0.0):
    return [
        SynPacket(time=t0 + i, src_ip=100 + i % 3, dst_ip=200 + i,
                  src_port=4000 + i, dst_port=80, ip_id=i, seq=1000 + i)
        for i in range(n)
    ]


class TestSynPacket:
    def test_defaults(self):
        p = SynPacket(time=0.0, src_ip=1, dst_ip=2, src_port=3, dst_port=4)
        assert p.flags == FLAG_SYN
        assert p.is_syn_only and not p.is_backscatter

    def test_backscatter_flags(self):
        synack = SynPacket(time=0, src_ip=1, dst_ip=2, src_port=3, dst_port=4,
                           flags=FLAG_SYN | FLAG_ACK)
        rst = SynPacket(time=0, src_ip=1, dst_ip=2, src_port=3, dst_port=4,
                        flags=FLAG_RST)
        assert synack.is_backscatter and rst.is_backscatter
        assert not synack.is_syn_only

    @pytest.mark.parametrize("field,value", [
        ("src_ip", 2**32), ("dst_ip", -1), ("src_port", 70000),
        ("dst_port", -1), ("ip_id", 2**16), ("seq", 2**32),
        ("ttl", 256), ("window", 2**16), ("flags", 256),
    ])
    def test_out_of_range_rejected(self, field, value):
        kwargs = dict(time=0.0, src_ip=1, dst_ip=2, src_port=3, dst_port=4)
        kwargs[field] = value
        with pytest.raises(ValueError):
            SynPacket(**kwargs)

    def test_describe_contains_ips(self):
        p = SynPacket(time=1.5, src_ip=0x01020304, dst_ip=0x05060708,
                      src_port=1234, dst_port=80)
        text = p.describe()
        assert "1.2.3.4" in text and "5.6.7.8" in text


class TestPacketBatchConstruction:
    def test_from_packets_roundtrip(self):
        pkts = make_packets(5)
        batch = PacketBatch.from_packets(pkts)
        assert len(batch) == 5
        assert list(batch) == pkts

    def test_empty(self):
        b = PacketBatch.empty()
        assert len(b) == 0
        assert b.distinct_sources() == 0

    def test_concat(self):
        a = PacketBatch.from_packets(make_packets(3))
        b = PacketBatch.from_packets(make_packets(2, t0=100))
        c = PacketBatch.concat([a, b])
        assert len(c) == 5

    def test_concat_empty_list(self):
        assert len(PacketBatch.concat([])) == 0

    def test_missing_column_rejected(self):
        cols = PacketBatch.from_packets(make_packets(2)).columns()
        cols.pop("seq")
        with pytest.raises(ValueError):
            PacketBatch(**cols)

    def test_misaligned_column_rejected(self):
        cols = PacketBatch.from_packets(make_packets(2)).columns()
        cols["seq"] = cols["seq"][:1]
        with pytest.raises(ValueError):
            PacketBatch(**cols)

    def test_unknown_column_rejected(self):
        cols = PacketBatch.from_packets(make_packets(2)).columns()
        cols["bogus"] = cols["seq"]
        with pytest.raises(ValueError):
            PacketBatch(**cols)


class TestPacketBatchOps:
    def test_slice(self):
        b = PacketBatch.from_packets(make_packets(10))
        assert len(b[2:5]) == 3

    def test_integer_index_rejected(self):
        b = PacketBatch.from_packets(make_packets(3))
        with pytest.raises(TypeError):
            b[0]

    def test_packet_accessor(self):
        pkts = make_packets(3)
        b = PacketBatch.from_packets(pkts)
        assert b.packet(1) == pkts[1]

    def test_sorted_by_time(self):
        pkts = make_packets(5)[::-1]
        b = PacketBatch.from_packets(pkts).sorted_by_time()
        assert np.all(np.diff(b.time) >= 0)

    def test_where_mask(self):
        b = PacketBatch.from_packets(make_packets(10))
        out = b.where(b.src_ip == 100)
        assert len(out) == 4  # i % 3 == 0 for i in 0..9

    def test_where_misaligned_mask(self):
        b = PacketBatch.from_packets(make_packets(3))
        with pytest.raises(ValueError):
            b.where(np.array([True]))

    def test_syn_only_filter(self):
        pkts = make_packets(3)
        mixed = pkts + [SynPacket(time=9, src_ip=1, dst_ip=2, src_port=3,
                                  dst_port=4, flags=FLAG_SYN | FLAG_ACK)]
        b = PacketBatch.from_packets(mixed)
        assert len(b.syn_only()) == 3

    def test_time_window(self):
        b = PacketBatch.from_packets(make_packets(10))
        assert len(b.time_window(2.0, 5.0)) == 3

    def test_time_window_bad_range(self):
        b = PacketBatch.from_packets(make_packets(3))
        with pytest.raises(ValueError):
            b.time_window(5.0, 2.0)

    def test_group_by_source(self):
        b = PacketBatch.from_packets(make_packets(9))
        groups = b.group_by_source()
        assert set(groups) == {100, 101, 102}
        assert sum(idx.size for idx in groups.values()) == 9
        # Indices within a group must belong to that source.
        for src, idx in groups.items():
            assert np.all(b.src_ip[idx] == src)

    def test_distinct_counts(self):
        b = PacketBatch.from_packets(make_packets(9))
        assert b.distinct_sources() == 3
        assert b.distinct_ports() == 1

    def test_port_packet_counts(self):
        b = PacketBatch.from_packets(make_packets(4))
        assert b.port_packet_counts() == {80: 4}

    def test_memory_accounting(self):
        b = PacketBatch.from_packets(make_packets(100))
        # 30 bytes of payload per packet across the declared dtypes.
        assert b.memory_bytes() == 100 * 30

    def test_repr_mentions_count(self):
        assert "3 packets" in repr(PacketBatch.from_packets(make_packets(3)))

    @given(st.integers(min_value=1, max_value=50))
    def test_concat_length_property(self, n):
        a = PacketBatch.from_packets(make_packets(n))
        b = PacketBatch.concat([a, a])
        assert len(b) == 2 * n


class TestPacketBatchImmutability:
    """The immutability invariant is enforced at runtime, not just by docs."""

    def test_column_write_raises(self):
        b = PacketBatch.from_packets(make_packets(3))
        with pytest.raises(ValueError):
            b.ttl[0] = 1

    def test_every_column_is_read_only(self):
        b = PacketBatch.from_packets(make_packets(3))
        for name, col in b.columns().items():
            assert not col.flags.writeable, name

    def test_augmented_write_raises(self):
        b = PacketBatch.from_packets(make_packets(3))
        with pytest.raises(ValueError):
            b.flags[:] |= 0x10

    def test_derived_batches_also_frozen(self):
        b = PacketBatch.from_packets(make_packets(10))
        for derived in (b[2:5], b.sorted_by_time(), b.syn_only(),
                        PacketBatch.concat([b, b])):
            with pytest.raises(ValueError):
                derived.time[0] = 99.0

    def test_caller_arrays_keep_their_flags(self):
        cols = {n: np.array(c) for n, c in
                PacketBatch.from_packets(make_packets(2)).columns().items()}
        PacketBatch(**cols)
        assert all(arr.flags.writeable for arr in cols.values())

    def test_columns_dict_rekeying_is_allowed(self):
        # anonymize_batch-style use: replace dict entries, never mutate arrays.
        b = PacketBatch.from_packets(make_packets(2))
        cols = b.columns()
        cols["src_ip"] = cols["src_ip"] + 1  # new array, fine
        rebuilt = PacketBatch(**cols)
        assert np.array_equal(rebuilt.src_ip, b.src_ip + 1)
