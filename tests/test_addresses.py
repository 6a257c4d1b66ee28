"""Unit tests for IPv4 address arithmetic and CIDR handling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.telescope.addresses import (
    IPV4_SPACE_SIZE,
    AddressSet,
    CidrBlock,
    int_to_ip,
    ip_to_int,
    slash16_of,
    slash24_of,
)


class TestIpConversion:
    def test_roundtrip_known(self):
        assert ip_to_int("1.2.3.4") == 0x01020304
        assert int_to_ip(0x01020304) == "1.2.3.4"

    def test_zero_and_max(self):
        assert ip_to_int("0.0.0.0") == 0
        assert ip_to_int("255.255.255.255") == IPV4_SPACE_SIZE - 1

    def test_int_passthrough(self):
        assert ip_to_int(12345) == 12345

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "a.b.c.d", "1.2.3.256", "1.2.-3.4"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            ip_to_int(bad)

    def test_out_of_range_int(self):
        with pytest.raises(ValueError):
            ip_to_int(IPV4_SPACE_SIZE)
        with pytest.raises(ValueError):
            int_to_ip(-1)

    @given(st.integers(min_value=0, max_value=IPV4_SPACE_SIZE - 1))
    def test_roundtrip_property(self, value):
        assert ip_to_int(int_to_ip(value)) == value


class TestSlashHelpers:
    def test_slash16_scalar(self):
        assert slash16_of(ip_to_int("100.64.5.6")) == (100 << 8) | 64

    def test_slash16_array(self):
        arr = np.array([ip_to_int("10.0.0.1"), ip_to_int("10.1.0.1")], dtype=np.uint32)
        out = slash16_of(arr)
        assert out.tolist() == [10 << 8, (10 << 8) | 1]

    def test_slash24_scalar(self):
        assert slash24_of(ip_to_int("1.2.3.4")) == 0x010203


class TestCidrBlock:
    def test_parse(self):
        b = CidrBlock.parse("100.64.0.0/16")
        assert b.size == 65536
        assert str(b) == "100.64.0.0/16"

    def test_contains(self):
        b = CidrBlock.parse("100.64.0.0/16")
        assert "100.64.1.2" in b
        assert "100.65.0.0" not in b

    def test_contains_array(self):
        b = CidrBlock.parse("10.0.0.0/24")
        arr = np.array([ip_to_int("10.0.0.5"), ip_to_int("10.0.1.5")], dtype=np.uint32)
        assert b.contains_array(arr).tolist() == [True, False]

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            CidrBlock(ip_to_int("10.0.0.1"), 24)

    def test_bad_prefix_len(self):
        with pytest.raises(ValueError):
            CidrBlock(0, 33)

    def test_malformed_parse(self):
        with pytest.raises(ValueError):
            CidrBlock.parse("10.0.0.0")

    def test_addresses_materialisation(self):
        b = CidrBlock.parse("10.0.0.0/30")
        assert b.addresses().tolist() == [ip_to_int("10.0.0.0") + i for i in range(4)]

    def test_addresses_refuses_huge(self):
        with pytest.raises(ValueError):
            CidrBlock.parse("0.0.0.0/4").addresses()

    def test_sample_within(self, rng):
        b = CidrBlock.parse("10.0.0.0/24")
        s = b.sample(rng, 100)
        assert np.all(b.contains_array(s))

    def test_overlap(self):
        a = CidrBlock.parse("10.0.0.0/24")
        b = CidrBlock.parse("10.0.0.128/25")
        assert a.overlap(b) == 128
        c = CidrBlock.parse("10.0.1.0/24")
        assert a.overlap(c) == 0

    def test_first_last(self):
        b = CidrBlock.parse("10.0.0.0/24")
        assert b.last - b.first == 255


class TestAddressSet:
    def test_dedup_and_sort(self):
        s = AddressSet([5, 3, 5, 1])
        assert list(s) == [1, 3, 5]
        assert len(s) == 3

    def test_contains(self):
        s = AddressSet([10, 20])
        assert 10 in s and 15 not in s

    def test_contains_array(self):
        s = AddressSet([10, 20])
        got = s.contains_array(np.array([10, 11, 20], dtype=np.uint32))
        assert got.tolist() == [True, False, True]
        # Both ends of IPv4 and the addresses just outside the members.
        edges = np.array([0, 9, 21, 2**32 - 1], dtype=np.uint32)
        assert s.contains_array(edges).tolist() == [False] * 4
        ends = AddressSet([0, 2**32 - 1])
        assert ends.contains_array(edges).tolist() == [True, False, False, True]
        block = AddressSet(range(1000, 1100))
        probe = np.array([0, 999, 1000, 1099, 1100, 2**32 - 1], dtype=np.uint32)
        assert block.contains_array(probe).tolist() == [
            False, False, True, True, False, False]

    def test_empty_contains_array(self):
        s = AddressSet([])
        assert not s.contains_array(np.array([1], dtype=np.uint32)).any()

    def test_from_blocks_full(self):
        s = AddressSet.from_blocks([CidrBlock.parse("10.0.0.0/28")])
        assert len(s) == 16

    def test_from_blocks_partial(self, rng):
        s = AddressSet.from_blocks([CidrBlock.parse("10.0.0.0/24")],
                                   population=0.5, rng=rng)
        assert len(s) == 128

    def test_from_blocks_partial_needs_rng(self):
        with pytest.raises(ValueError):
            AddressSet.from_blocks([CidrBlock.parse("10.0.0.0/24")], population=0.5)

    def test_from_blocks_bad_population(self, rng):
        with pytest.raises(ValueError):
            AddressSet.from_blocks([CidrBlock.parse("10.0.0.0/24")],
                                   population=0.0, rng=rng)

    def test_sample_members_only(self, rng):
        s = AddressSet([100, 200, 300])
        got = s.sample(rng, 50)
        assert set(got.tolist()) <= {100, 200, 300}

    def test_sample_empty_raises(self, rng):
        with pytest.raises(ValueError):
            AddressSet([]).sample(rng, 1)

    def test_space_fraction(self):
        s = AddressSet(range(1024))
        assert s.overlap_fraction_of_space() == pytest.approx(1024 / IPV4_SPACE_SIZE)

    @pytest.mark.parametrize("bad", [-1, 2**32])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="out of IPv4 range"):
            AddressSet([7, bad])
        with pytest.raises(ValueError, match="out of IPv4 range"):
            AddressSet(np.array([7, bad], dtype=np.int64))
