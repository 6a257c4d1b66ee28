"""Property-based invariants of the analysis pipeline.

These pin down behaviours that must hold for *any* input: threshold
soundness of campaign identification, invariance under time translation and
packet reordering, and fingerprint stability.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaigns import CampaignCriteria, identify_scans
from repro.telescope.packet import PacketBatch

from tests.test_stream import assert_tables_equal


def random_batch(seed, n_sources=5, packets_per_source=150, duration=300.0):
    gen = np.random.default_rng(seed)
    total = n_sources * packets_per_source
    src = np.repeat(
        gen.integers(1, 2**31, n_sources, dtype=np.uint32), packets_per_source
    )
    return PacketBatch(
        time=gen.uniform(0, duration, total),
        src_ip=src,
        dst_ip=gen.integers(0x64400000, 0x64430000, total, dtype=np.uint32),
        src_port=gen.integers(1024, 65535, total, dtype=np.uint16),
        dst_port=gen.choice(
            np.array([22, 80, 443, 8080], dtype=np.uint16), total
        ),
        ip_id=gen.integers(0, 2**16, total, dtype=np.uint16),
        seq=gen.integers(0, 2**32, total, dtype=np.uint32),
        ttl=np.full(total, 52, dtype=np.uint8),
        window=np.full(total, 1024, dtype=np.uint16),
        flags=np.full(total, 2, dtype=np.uint8),
    ).sorted_by_time()


class TestThresholdSoundness:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_every_scan_satisfies_thresholds(self, seed):
        batch = random_batch(seed)
        criteria = CampaignCriteria()
        scans = identify_scans(batch, criteria=criteria)
        for i in range(len(scans)):
            assert scans.distinct_dsts[i] >= criteria.min_distinct_dsts
            assert scans.speed_pps[i] >= criteria.min_rate_pps
            assert scans.packets[i] >= scans.distinct_dsts[i]
            assert scans.end[i] >= scans.start[i]
            assert scans.n_ports[i] >= 1
            assert 0 < scans.coverage[i] <= 1

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_scan_packets_bounded_by_batch(self, seed):
        batch = random_batch(seed)
        scans = identify_scans(batch)
        assert scans.packets.sum() <= len(batch)


class TestInvariances:
    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=10, deadline=None)
    def test_time_translation(self, offset):
        """Shifting all timestamps must not change any scan statistic."""
        batch = random_batch(7)
        cols = batch.columns()
        cols["time"] = cols["time"] + offset
        shifted = PacketBatch(**cols)

        a = identify_scans(batch)
        b = identify_scans(shifted)
        assert len(a) == len(b)
        assert np.array_equal(a.src_ip, b.src_ip)
        assert np.array_equal(a.packets, b.packets)
        assert np.allclose(a.speed_pps, b.speed_pps, rtol=1e-9)
        assert np.allclose(b.start - a.start, offset, atol=1e-6)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_packet_order_irrelevant(self, seed):
        """identify_scans must not depend on the batch's storage order, to
        the bit, even with a NaN time mid-source: NaN sorts last among its
        source's packets however the batch is stored."""
        columns = {
            name: np.array(col) for name, col in random_batch(11).columns().items()
        }
        columns["time"][columns["time"].size // 2] = np.nan
        batch = PacketBatch(**columns)
        gen = np.random.default_rng(seed)
        perm = gen.permutation(len(batch))
        shuffled = batch[perm]

        assert_tables_equal(identify_scans(shuffled), identify_scans(batch))

    def test_subset_monotonicity(self):
        """Dropping a source removes exactly its scans, nothing else."""
        batch = random_batch(13)
        scans = identify_scans(batch)
        assert len(scans) > 0
        victim = int(scans.src_ip[0])
        reduced = batch.where(batch.src_ip != victim)
        remaining = identify_scans(reduced)
        assert victim not in set(remaining.src_ip.tolist())
        kept = scans.select(scans.src_ip != victim)
        assert np.array_equal(
            np.sort(kept.src_ip), np.sort(remaining.src_ip)
        )


class TestFingerprintStability:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_tool_verdicts_stable_under_shuffle(self, seed):
        """Single-packet fingerprints are order-independent; pairwise ones
        (NMap/Unicorn) hold for arbitrary packet pairs of a session, so a
        reshuffle may not flip any verdict."""
        from repro.scanners import MasscanModel, MiraiModel, NMapModel
        from repro.core.fingerprints import ToolFingerprinter

        gen = np.random.default_rng(seed)
        dip = gen.integers(0, 2**32, 120, dtype=np.uint32)
        dpt = gen.integers(1, 2**16, 120, dtype=np.uint16)
        fingerprinter = ToolFingerprinter()
        for model in (MasscanModel(rng=seed), MiraiModel(rng=seed),
                      NMapModel(rng=seed)):
            fields = model.craft(dip, dpt)
            perm = gen.permutation(120)
            one_scan = np.array([120])
            original, _ = fingerprinter.fingerprint_arrays(
                fields.ip_id, fields.seq, dip, dpt, fields.src_port, one_scan
            )
            shuffled, _ = fingerprinter.fingerprint_arrays(
                fields.ip_id[perm], fields.seq[perm], dip[perm], dpt[perm],
                fields.src_port[perm], one_scan,
            )
            assert original[0] == shuffled[0]
