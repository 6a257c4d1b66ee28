"""Unit tests for the tool-fingerprint detectors (§3.3).

Detectors are validated in both directions: each tool's generator output is
attributed to the right tool, and other tools' / random traffic is not.
"""

import numpy as np
import pytest

from repro.core.fingerprints import (
    ToolFingerprinter,
    masscan_match,
    mirai_match,
    nmap_pair_match,
    unicorn_pair_match,
    zmap_match,
)
from repro.scanners import (
    CustomToolModel,
    MasscanModel,
    MiraiModel,
    NMapModel,
    Tool,
    UnicornModel,
    ZMapModel,
    model_for,
)
from repro.telescope.packet import PacketBatch, SynPacket


def craft_batch(model, n=200, seed=0):
    gen = np.random.default_rng(seed)
    dst_ip = gen.integers(0, 2**32, n, dtype=np.uint32)
    dst_port = gen.integers(1, 2**16, n, dtype=np.uint16)
    fields = model.craft(dst_ip, dst_port)
    return PacketBatch(
        time=np.arange(n, dtype=float),
        src_ip=np.full(n, 42, dtype=np.uint32),
        dst_ip=dst_ip,
        src_port=fields.src_port,
        dst_port=dst_port,
        ip_id=fields.ip_id,
        seq=fields.seq,
        ttl=fields.ttl,
        window=fields.window,
        flags=np.full(n, 2, dtype=np.uint8),
    )


@pytest.fixture(scope="module")
def fingerprinter():
    return ToolFingerprinter()


class TestDetectorsAttributeTheirTool:
    @pytest.mark.parametrize("tool", [
        Tool.ZMAP, Tool.MASSCAN, Tool.NMAP, Tool.MIRAI, Tool.UNICORN,
    ])
    def test_generator_detected(self, fingerprinter, tool):
        batch = craft_batch(model_for(tool, rng=3))
        verdict = fingerprinter.fingerprint_batch(batch)
        assert verdict.tool == tool
        assert verdict.match_fraction >= 0.9

    def test_custom_is_unknown(self, fingerprinter):
        batch = craft_batch(CustomToolModel(rng=3))
        assert fingerprinter.fingerprint_batch(batch).tool == Tool.UNKNOWN

    def test_defingerprinted_zmap_is_unknown(self, fingerprinter):
        batch = craft_batch(ZMapModel(rng=3, fingerprintable=False))
        assert fingerprinter.fingerprint_batch(batch).tool == Tool.UNKNOWN

    def test_empty_batch(self, fingerprinter):
        verdict = fingerprinter.fingerprint_batch(PacketBatch.empty())
        assert verdict.tool == Tool.UNKNOWN
        assert verdict.packets_examined == 0

    def test_two_packet_scan_pairwise_tools(self, fingerprinter):
        batch = craft_batch(NMapModel(rng=1), n=2)
        assert fingerprinter.fingerprint_batch(batch).tool == Tool.NMAP


class TestDetectorCrossConfusion:
    """No tool's traffic should be attributed to another tool."""

    @pytest.mark.parametrize("tool", [
        Tool.ZMAP, Tool.MASSCAN, Tool.NMAP, Tool.MIRAI, Tool.UNICORN,
    ])
    def test_no_cross_attribution(self, fingerprinter, tool):
        for other in (Tool.ZMAP, Tool.MASSCAN, Tool.NMAP, Tool.MIRAI, Tool.UNICORN):
            if other == tool:
                continue
            batch = craft_batch(model_for(other, rng=17), n=300, seed=5)
            verdict = fingerprinter.fingerprint_batch(batch)
            assert verdict.tool != tool or verdict.tool == other


def fields(batch):
    return (batch.ip_id, batch.seq, batch.dst_ip, batch.dst_port,
            batch.src_port)


class TestOnePass:
    """One call over scans placed back to back equals one call per scan."""

    @pytest.mark.parametrize("limit", [2, 16, 256])
    def test_back_to_back_equals_one_call_per_scan(self, limit):
        fingerprinter = ToolFingerprinter(sample_limit=limit)
        # One NMap and one Unicorn session each split into two scans, so
        # the pair across each boundary satisfies the relation.
        nmap = craft_batch(NMapModel(rng=4), n=2 * limit, seed=1)
        unicorn = craft_batch(UnicornModel(rng=5), n=2 * limit, seed=2)
        assert nmap_pair_match(nmap.seq)[limit - 1]
        assert unicorn_pair_match(unicorn.seq, unicorn.dst_ip,
                                  unicorn.dst_port, unicorn.src_port)[limit - 1]
        scans = [
            craft_batch(ZMapModel(rng=1), n=1),
            nmap[:limit], nmap[limit:],
            craft_batch(MasscanModel(rng=2), n=limit, seed=3),
            PacketBatch.empty(),
            unicorn[:limit], unicorn[limit:],
            craft_batch(MiraiModel(rng=3), n=1, seed=4),
            craft_batch(CustomToolModel(rng=6), n=max(limit // 2, 1), seed=5),
            craft_batch(NMapModel(rng=7), n=1, seed=6),
        ]
        joined = PacketBatch.concat(scans)
        tool, fraction = fingerprinter.fingerprint_arrays(
            *fields(joined), np.array([len(scan) for scan in scans])
        )
        assert tool.size == fraction.size == len(scans)
        for i, scan in enumerate(scans):
            alone, alone_fraction = fingerprinter.fingerprint_arrays(
                *fields(scan), np.array([len(scan)])
            )
            assert tool[i] is alone[0]
            assert fraction[i].tobytes() == alone_fraction[0].tobytes()
        assert tool[[1, 2, 5, 6]].tolist() == [Tool.NMAP] * 2 + [Tool.UNICORN] * 2
        assert fraction[[1, 2, 5, 6]].tolist() == [1.0] * 4

    def test_counts_must_cover_the_packets_within_the_limit(self):
        fingerprinter = ToolFingerprinter(sample_limit=16)
        batch = craft_batch(MasscanModel(rng=0), n=32)
        with pytest.raises(ValueError, match="lie in"):
            fingerprinter.fingerprint_arrays(*fields(batch), np.array([32]))
        with pytest.raises(ValueError, match="add up"):
            fingerprinter.fingerprint_arrays(*fields(batch), np.array([16, 15]))


class TestRelationPrimitives:
    def test_zmap_match(self):
        assert zmap_match(np.array([54321], dtype=np.uint16))[0]
        assert not zmap_match(np.array([54320], dtype=np.uint16))[0]

    def test_masscan_match_positive(self):
        model = MasscanModel(rng=0)
        gen = np.random.default_rng(0)
        dip = gen.integers(0, 2**32, 50, dtype=np.uint32)
        dpt = gen.integers(1, 2**16, 50, dtype=np.uint16)
        fields = model.craft(dip, dpt)
        assert masscan_match(fields.ip_id, dip, dpt, fields.seq).all()

    def test_mirai_match(self):
        dip = np.array([123456789], dtype=np.uint32)
        assert mirai_match(dip.copy(), dip)[0]
        assert not mirai_match(dip + 1, dip)[0]

    def test_nmap_pair_match_short_input(self):
        assert nmap_pair_match(np.array([1], dtype=np.uint32)).size == 0

    def test_unicorn_pair_match_short_input(self):
        one = np.array([1], dtype=np.uint32)
        assert unicorn_pair_match(one, one, one.astype(np.uint16),
                                  one.astype(np.uint16)).size == 0

    def test_random_false_positive_rates(self, rng):
        """Random header fields must almost never satisfy the relations."""
        n = 20_000
        ip_id = rng.integers(0, 2**16, n, dtype=np.uint16)
        seq = rng.integers(0, 2**32, n, dtype=np.uint32)
        dip = rng.integers(0, 2**32, n, dtype=np.uint32)
        dpt = rng.integers(1, 2**16, n, dtype=np.uint16)
        spt = rng.integers(1, 2**16, n, dtype=np.uint16)
        assert zmap_match(ip_id).mean() < 1e-3
        assert masscan_match(ip_id, dip, dpt, seq).mean() < 1e-3
        assert mirai_match(seq, dip).mean() < 1e-3
        assert nmap_pair_match(seq).mean() < 1e-3      # chance 2^-16
        assert unicorn_pair_match(seq, dip, dpt, spt).mean() < 1e-4


class TestFingerprinterConfig:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ToolFingerprinter(threshold=0.0)
        with pytest.raises(ValueError):
            ToolFingerprinter(threshold=1.5)

    def test_sample_limit_validation(self):
        with pytest.raises(ValueError):
            ToolFingerprinter(sample_limit=1)

    def test_sample_limit_truncates(self):
        fp = ToolFingerprinter(sample_limit=16)
        batch = craft_batch(MasscanModel(rng=0), n=500)
        verdict = fp.fingerprint_batch(batch)
        assert verdict.packets_examined == 16
        assert verdict.tool == Tool.MASSCAN

    def test_mixed_traffic_below_threshold(self):
        """A scan that is half Masscan, half random must not be attributed."""
        a = craft_batch(MasscanModel(rng=1), n=100)
        b = craft_batch(CustomToolModel(rng=2), n=100, seed=9)
        interleaved = PacketBatch.concat([a, b]).sorted_by_time()
        verdict = ToolFingerprinter().fingerprint_batch(interleaved)
        assert verdict.tool == Tool.UNKNOWN

    def test_per_packet_tool_mixed(self):
        a = craft_batch(MasscanModel(rng=1), n=50)
        b = craft_batch(MiraiModel(rng=2), n=50, seed=4)
        c = craft_batch(ZMapModel(rng=3), n=50, seed=8)
        d = craft_batch(CustomToolModel(rng=4), n=50, seed=12)
        batch = PacketBatch.concat([a, b, c, d])
        tools = ToolFingerprinter().per_packet_tool(batch)
        assert all(isinstance(tool, Tool) for tool in tools)
        assert (tools[:50] == Tool.MASSCAN).mean() > 0.95
        assert (tools[50:100] == Tool.MIRAI).mean() > 0.95
        assert (tools[100:150] == Tool.ZMAP).mean() > 0.95
        assert (tools[150:] == Tool.UNKNOWN).mean() > 0.95
