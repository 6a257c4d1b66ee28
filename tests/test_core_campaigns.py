"""Unit tests for scan-campaign identification (§3.4)."""

import numpy as np
import pytest

from repro.core.campaigns import CampaignCriteria, ScanTable, identify_scans
from repro.scanners import Tool
from repro.telescope.packet import PacketBatch

from tests.campaigns_oracle import (
    detect_sequential,
    estimate_internet_rate,
    identify_scans_reference,
    iter_source_sessions,
)


def session_batch(src=1000, n=200, t0=0.0, duration=100.0, port=80, seed=0,
                  distinct_dsts=None):
    """A synthetic scan session with controllable shape."""
    gen = np.random.default_rng(seed)
    if distinct_dsts is None:
        dst = gen.integers(0x64400000, 0x64410000, n, dtype=np.uint32)
    else:
        pool = np.arange(0x64400000, 0x64400000 + distinct_dsts, dtype=np.uint32)
        dst = pool[gen.integers(0, pool.size, n)]
        # Guarantee every pool address appears at least once if n allows.
        dst[:min(n, pool.size)] = pool[:min(n, pool.size)]
    return PacketBatch(
        time=np.sort(gen.uniform(t0, t0 + duration, n)),
        src_ip=np.full(n, src, dtype=np.uint32),
        dst_ip=dst,
        src_port=gen.integers(1024, 65535, n, dtype=np.uint16),
        dst_port=np.full(n, port, dtype=np.uint16),
        ip_id=gen.integers(0, 2**16, n, dtype=np.uint16),
        seq=gen.integers(0, 2**32, n, dtype=np.uint32),
        ttl=np.full(n, 50, dtype=np.uint8),
        window=np.full(n, 1024, dtype=np.uint16),
        flags=np.full(n, 2, dtype=np.uint8),
    )


class TestCriteria:
    def test_defaults_are_paper_values(self):
        c = CampaignCriteria()
        assert c.min_distinct_dsts == 100
        assert c.min_rate_pps == 100.0
        assert c.expiry_s == 3600.0

    def test_durumeric_preset(self):
        c = CampaignCriteria.durumeric2014()
        assert c.min_rate_pps == 10.0
        assert c.expiry_s == 480.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignCriteria(min_distinct_dsts=0)
        with pytest.raises(ValueError):
            CampaignCriteria(min_rate_pps=0)
        with pytest.raises(ValueError):
            CampaignCriteria(expiry_s=-1)

    def test_internet_rate_extrapolation(self):
        c = CampaignCriteria(telescope_size=2**16)
        assert c.internet_rate(1.0) == pytest.approx(2**16)


class TestSessionSplitting:
    def test_single_session(self):
        batch = session_batch(n=50)
        sessions = list(iter_source_sessions(batch, 3600.0))
        assert len(sessions) == 1
        src, idx = sessions[0]
        assert src == 1000 and idx.size == 50

    def test_gap_splits_sessions(self):
        a = session_batch(n=30, t0=0.0, duration=100.0)
        b = session_batch(n=30, t0=10_000.0, duration=100.0, seed=1)
        merged = PacketBatch.concat([a, b])
        sessions = list(iter_source_sessions(merged, 3600.0))
        assert len(sessions) == 2

    def test_gap_below_expiry_stays_merged(self):
        a = session_batch(n=30, t0=0.0, duration=100.0)
        b = session_batch(n=30, t0=1000.0, duration=100.0, seed=1)
        merged = PacketBatch.concat([a, b])
        assert len(list(iter_source_sessions(merged, 3600.0))) == 1

    def test_sources_kept_separate(self):
        a = session_batch(src=1, n=20)
        b = session_batch(src=2, n=20, seed=1)
        merged = PacketBatch.concat([a, b])
        srcs = {s for s, _ in iter_source_sessions(merged, 3600.0)}
        assert srcs == {1, 2}

    def test_empty_batch(self):
        assert list(iter_source_sessions(PacketBatch.empty(), 3600.0)) == []

    def test_session_indices_time_ordered(self):
        batch = session_batch(n=40)
        for _, idx in iter_source_sessions(batch, 3600.0):
            assert np.all(np.diff(batch.time[idx]) >= 0)


class TestIdentifyScans:
    def test_detects_valid_scan(self):
        scans = identify_scans(session_batch(n=300, duration=60.0))
        assert len(scans) == 1
        assert scans.packets[0] == 300
        assert scans.distinct_dsts[0] >= 100

    def test_too_few_distinct_dsts_rejected(self):
        batch = session_batch(n=300, distinct_dsts=50)
        assert len(identify_scans(batch)) == 0

    def test_too_slow_rejected(self):
        # 150 packets over 20 days: split apart by the 1 h expiry and far
        # below the 100 pps Internet-wide rate in any surviving session.
        batch = session_batch(n=150, duration=20 * 86400.0)
        assert len(identify_scans(batch)) == 0

    def test_expiry_splits_into_two_scans(self):
        a = session_batch(n=200, t0=0.0, duration=60.0)
        b = session_batch(n=200, t0=8000.0, duration=60.0, seed=1)
        scans = identify_scans(PacketBatch.concat([a, b]))
        assert len(scans) == 2

    def test_ports_recorded(self):
        a = session_batch(n=150, port=80)
        b = session_batch(n=100, port=8080, seed=1)
        merged = PacketBatch.concat([a, b]).sorted_by_time()
        scans = identify_scans(merged)
        assert len(scans) == 1
        assert scans.port_sets[0].tolist() == [80, 8080]
        assert scans.primary_port[0] == 80  # more packets on 80

    def test_coverage_estimate(self):
        scans = identify_scans(session_batch(n=5000, duration=50.0))
        expected = scans.distinct_dsts[0] / CampaignCriteria().telescope_size
        assert scans.coverage[0] == pytest.approx(expected)

    def test_looser_criteria_accept_more(self):
        # 150 packets over 2.3 days: default criteria split it at the 1 h
        # gaps and reject the fragments; looser Durumeric-style thresholds
        # with a longer expiry keep it as one scan.
        slow = session_batch(n=150, duration=200_000.0)
        assert len(identify_scans(slow)) == 0
        loose = CampaignCriteria(min_rate_pps=1.0, expiry_s=300_000.0)
        assert len(identify_scans(slow, criteria=loose)) == 1

    def test_speed_estimate_random_scan(self):
        duration = 100.0
        batch = session_batch(n=1000, duration=duration)
        scans = identify_scans(batch)
        observed = scans.speed_pps[0]
        expected = CampaignCriteria().internet_rate(1000 / duration)
        assert observed == pytest.approx(expected, rel=0.05)


class TestSequentialDetection:
    def _sweep_batch(self, n=300, rate=2000.0, src=77):
        """A linear sweep across the paper telescope's address extent."""
        gen = np.random.default_rng(0)
        dst = np.sort(gen.choice(np.arange(0x64400000, 0x64430000, dtype=np.uint32),
                                 n, replace=False))
        # A sweep probing fraction c of addresses at `rate` pps moves at
        # rate/c addresses per second; with c = n / telescope_size the
        # estimator should recover `rate`.
        c = n / CampaignCriteria().telescope_size
        t = (dst - dst[0]).astype(np.float64) * c / rate
        return PacketBatch(
            time=t,
            src_ip=np.full(n, src, dtype=np.uint32),
            dst_ip=dst,
            src_port=gen.integers(1024, 65535, n, dtype=np.uint16),
            dst_port=np.full(n, 22, dtype=np.uint16),
            ip_id=gen.integers(0, 2**16, n, dtype=np.uint16),
            seq=gen.integers(0, 2**32, n, dtype=np.uint32),
            ttl=np.full(n, 50, dtype=np.uint8),
            window=np.full(n, 1024, dtype=np.uint16),
            flags=np.full(n, 2, dtype=np.uint8),
        )

    def test_detect_sequential_positive(self):
        batch = self._sweep_batch()
        assert detect_sequential(batch.time, batch.dst_ip)

    def test_detect_sequential_negative_random(self):
        batch = session_batch(n=300)
        assert not detect_sequential(batch.time, batch.dst_ip)

    def test_detect_sequential_needs_packets(self):
        batch = self._sweep_batch(n=25)
        small = batch[0:10]
        assert not detect_sequential(small.time, small.dst_ip)

    def test_sequential_flag_set_by_identify(self):
        scans = identify_scans(self._sweep_batch())
        assert len(scans) == 1
        assert bool(scans.sequential[0])

    def test_sweep_speed_not_inflated(self):
        """The burst must not be extrapolated as a random-targeting scan."""
        scans = identify_scans(self._sweep_batch(n=400))
        naive = CampaignCriteria().internet_rate(
            scans.packets[0] / scans.duration[0]
        )
        assert scans.speed_pps[0] < naive / 100

    def test_estimate_rate_constant_dst_falls_back(self):
        times = np.linspace(0, 10, 30)
        dst = np.full(30, 0x64400001, dtype=np.uint32)
        rate = estimate_internet_rate(times, dst, 1, CampaignCriteria(), True)
        assert rate == pytest.approx(CampaignCriteria().internet_rate(3.0), rel=0.01)


class TestScanTable:
    def test_select_roundtrip(self):
        scans = identify_scans(PacketBatch.concat([
            session_batch(src=1, n=200),
            session_batch(src=2, n=200, seed=1),
        ]))
        assert len(scans) == 2
        picked = scans.select(scans.src_ip == 1)
        assert len(picked) == 1 and picked.src_ip[0] == 1

    def test_select_requires_bool(self):
        scans = identify_scans(session_batch(n=200))
        with pytest.raises(TypeError):
            scans.select(np.array([1]))

    def test_select_misaligned(self):
        scans = identify_scans(session_batch(n=200))
        with pytest.raises(ValueError):
            scans.select(np.array([True, False]))

    def test_empty_table(self):
        table = ScanTable.empty()
        assert len(table) == 0
        assert table.tool_shares_by_scans() == {}
        assert table.tool_shares_by_packets() == {}

    def test_n_ports_column(self):
        a = session_batch(n=150, port=80)
        b = session_batch(n=150, port=443, seed=1)
        scans = identify_scans(PacketBatch.concat([a, b]).sorted_by_time())
        assert scans.n_ports[0] == 2

    def test_speed_bps_conversion(self):
        scans = identify_scans(session_batch(n=200))
        assert scans.speed_bps[0] == pytest.approx(scans.speed_pps[0] * 480)

    def test_column_misalignment_rejected(self):
        scans = identify_scans(session_batch(n=200))
        with pytest.raises(ValueError):
            ScanTable(
                src_ip=scans.src_ip,
                start=scans.start[:0],
                end=scans.end,
                packets=scans.packets,
                distinct_dsts=scans.distinct_dsts,
                port_sets=scans.port_sets,
                primary_port=scans.primary_port,
                tool=scans.tool,
                match_fraction=scans.match_fraction,
                speed_pps=scans.speed_pps,
                coverage=scans.coverage,
            )

    def test_enrich_fills_columns(self, classifier, registry, rng):
        src = int(registry.sample_addresses(rng, 1, country="CN")[0])
        scans = identify_scans(session_batch(src=src, n=200))
        scans.enrich(classifier)
        assert scans.country[0] == "CN"
        assert scans.scanner_type[0] is not None


class TestVectorizedAgainstReference:
    """The array implementation must reproduce the per-session loop exactly."""

    def _assert_tables_equal(self, a, b):
        assert len(a) == len(b)
        for name in ("src_ip", "start", "end", "packets", "distinct_dsts",
                     "primary_port", "match_fraction", "speed_pps",
                     "coverage", "sequential", "window_mode", "ttl_mode"):
            va, vb = getattr(a, name), getattr(b, name)
            assert va.dtype == vb.dtype, name
            assert va.tobytes() == vb.tobytes(), name
        assert [type(t) for t in a.tool] == [type(t) for t in b.tool]
        assert a.tool.tolist() == b.tool.tolist()
        for pa, pb in zip(a.port_sets, b.port_sets):
            assert pa.dtype == pb.dtype == np.int64
            assert np.array_equal(pa, pb)

    def test_simulated_capture(self, sim2020):
        """Bit for bit with the oracle, which always lexsorts: as captured
        (the kernel's packed-key sort), shuffled (storage order is not time
        order, so the kernel lexsorts too) and with times floored to whole
        seconds (ties within and across sources)."""
        captured = sim2020.batch
        columns = {name: np.array(col) for name, col in captured.columns().items()}
        columns["time"] = np.floor(columns["time"])
        shuffle = np.random.default_rng(5).permutation(len(captured))
        for batch in (captured, captured[shuffle], PacketBatch(**columns)):
            self._assert_tables_equal(
                identify_scans_reference(batch), identify_scans(batch)
            )

    def test_synthetic_edge_sessions(self):
        # Sweep (perfect correlation), random session, and a constant-dst
        # session that must be rejected, interleaved in one batch.
        gen = np.random.default_rng(3)
        sweep_dst = np.arange(0x64400000, 0x64400000 + 600, dtype=np.uint32)
        sweep = PacketBatch(
            time=np.linspace(0.0, 30.0, 600),
            src_ip=np.full(600, 42, dtype=np.uint32),
            dst_ip=sweep_dst,
            src_port=np.full(600, 40000, dtype=np.uint16),
            dst_port=np.full(600, 23, dtype=np.uint16),
            ip_id=gen.integers(0, 2**16, 600, dtype=np.uint16),
            seq=gen.integers(0, 2**32, 600, dtype=np.uint32),
            ttl=np.full(600, 240, dtype=np.uint8),
            window=np.full(600, 29200, dtype=np.uint16),
            flags=np.full(600, 2, dtype=np.uint8),
        )
        batch = PacketBatch.concat([
            sweep,
            session_batch(src=7, n=400, duration=80.0, seed=4),
            session_batch(src=9, n=300, duration=60.0, distinct_dsts=3,
                          seed=5),
        ]).sorted_by_time()
        self._assert_tables_equal(
            identify_scans_reference(batch), identify_scans(batch)
        )

    def test_empty(self):
        assert len(identify_scans(PacketBatch.empty())) == 0
        assert len(identify_scans_reference(PacketBatch.empty())) == 0
