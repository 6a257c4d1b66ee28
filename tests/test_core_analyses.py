"""Unit tests for volatility, events, speed and coverage analyses,
exercised on crafted scan tables and batches with known properties."""

import numpy as np
import pytest

from repro.core.campaigns import ScanTable
from repro.core.coverage import (
    CoverageStats,
    collaborating_subnets,
    coverage_by_tool,
    coverage_modes,
    coverage_stats,
)
from repro.core.speed import (
    GBPS_IN_PPS,
    nmap_faster_than_masscan,
    overall_speed_trend,
    speed_stats,
    speed_stats_by_tool,
    tool_speed_trend,
    top_k_mean_speed,
    top_k_speed_trend,
)
from repro.core.volatility import scan_weekly_tally, weekly_change_factors
from repro.scanners import Tool
from repro.stream.analyses import AnalysisConfig, AnalysisSuite
from repro.telescope.packet import PacketBatch


def make_table(speed=None, coverage=None, tool=None, src=None, start=None,
               end=None, ports=None):
    """Construct a ScanTable directly from per-scan attribute lists."""
    n = len(speed or coverage or tool or src or start or [1.0])
    speed = np.array(speed if speed is not None else [500.0] * n, dtype=float)
    coverage = np.array(coverage if coverage is not None else [0.01] * n, dtype=float)
    tool = np.array(tool if tool is not None else [Tool.UNKNOWN] * n, dtype=object)
    src = np.array(src if src is not None else range(1000, 1000 + n), dtype=np.uint32)
    start = np.array(start if start is not None else range(n), dtype=float)
    end = np.array(end if end is not None else (start + 60.0), dtype=float)
    port_sets = [np.array(p, dtype=np.int64) for p in
                 (ports if ports is not None else [[80]] * n)]
    return ScanTable(
        src_ip=src,
        start=start,
        end=end,
        packets=np.full(n, 200, dtype=np.int64),
        distinct_dsts=np.full(n, 150, dtype=np.int64),
        port_sets=port_sets,
        primary_port=np.array([p[0] for p in port_sets], dtype=np.uint16),
        tool=tool,
        match_fraction=np.ones(n),
        speed_pps=speed,
        coverage=coverage,
    )


class TestSpeedStats:
    def test_basic_stats(self):
        stats = speed_stats(np.array([100.0, 200.0, 300.0, 400.0]))
        assert stats.scans == 4
        assert stats.median_pps == pytest.approx(250.0)
        assert stats.mean_pps == pytest.approx(250.0)
        assert stats.max_pps == 400.0

    def test_threshold_fractions(self):
        speeds = np.array([500.0, 2000.0, GBPS_IN_PPS * 2])
        stats = speed_stats(speeds)
        assert stats.fraction_over_1000pps == pytest.approx(2 / 3)
        assert stats.fraction_over_1gbps == pytest.approx(1 / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            speed_stats(np.array([]))

    def test_by_tool_split(self):
        table = make_table(speed=[100, 200, 300, 400],
                           tool=[Tool.NMAP, Tool.NMAP, Tool.MASSCAN, Tool.MASSCAN])
        by_tool = speed_stats_by_tool(table)
        assert by_tool[Tool.NMAP].median_pps == pytest.approx(150.0)
        assert by_tool[Tool.MASSCAN].median_pps == pytest.approx(350.0)

    def test_nmap_vs_masscan(self):
        faster = make_table(speed=[900, 400],
                            tool=[Tool.NMAP, Tool.MASSCAN])
        assert nmap_faster_than_masscan(faster) is True
        slower = make_table(speed=[100, 400],
                            tool=[Tool.NMAP, Tool.MASSCAN])
        assert nmap_faster_than_masscan(slower) is False
        missing = make_table(speed=[100], tool=[Tool.ZMAP])
        assert nmap_faster_than_masscan(missing) is None

    def test_top_k(self):
        table = make_table(speed=list(range(1, 101)))
        assert top_k_mean_speed(table, k=10) == pytest.approx(np.mean(range(91, 101)))
        assert np.isnan(top_k_mean_speed(ScanTable.empty()))
        with pytest.raises(ValueError):
            top_k_mean_speed(table, k=0)


class TestSpeedTrends:
    def test_increasing_trend(self):
        tables = {y: make_table(speed=[float(100 * (y - 2014))] * 5)
                  for y in range(2015, 2020)}
        trend = overall_speed_trend(tables)
        assert trend.increasing and trend.r > 0.99

    def test_decreasing_trend(self):
        tables = {y: make_table(speed=[float(1000 - 100 * (y - 2015))] * 5)
                  for y in range(2015, 2020)}
        assert not overall_speed_trend(tables).increasing

    def test_tool_trend_filters(self):
        tables = {
            y: make_table(speed=[float(y), 1.0],
                          tool=[Tool.NMAP, Tool.MASSCAN])
            for y in range(2015, 2020)
        }
        trend = tool_speed_trend(tables, Tool.NMAP)
        assert trend.increasing
        flat = tool_speed_trend(tables, Tool.MASSCAN)
        assert np.isnan(flat.r) or abs(flat.r) < 0.2

    def test_trend_requires_two_years(self):
        with pytest.raises(ValueError):
            overall_speed_trend({2015: make_table()})

    def test_top_k_trend(self):
        tables = {y: make_table(speed=[float((y - 2010) * 1000)] * 3)
                  for y in (2015, 2018, 2021)}
        assert top_k_speed_trend(tables, k=2).increasing


class TestCoverage:
    def test_stats(self):
        stats = coverage_stats(np.array([0.1, 0.5, 0.95, 1.0]))
        assert stats.fraction_full_ipv4 == pytest.approx(0.5)
        assert stats.mean == pytest.approx(0.6375)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            coverage_stats(np.array([0.5]), full_threshold=0.0)
        with pytest.raises(ValueError):
            coverage_stats(np.array([]))

    def test_by_tool(self):
        table = make_table(coverage=[0.9, 0.1],
                           tool=[Tool.MASSCAN, Tool.MIRAI])
        by_tool = coverage_by_tool(table, full_threshold=0.8)
        assert by_tool[Tool.MASSCAN].fraction_full_ipv4 == 1.0
        assert by_tool[Tool.MIRAI].fraction_full_ipv4 == 0.0

    def test_modes_detect_slicing(self):
        """256-way sharding leaves a spike at coverage 1/256."""
        gen = np.random.default_rng(0)
        background = gen.uniform(0.001, 1.0, 500)
        mode = np.full(80, 1 / 256)
        modes = coverage_modes(np.concatenate([background, mode]),
                               min_count=30)
        assert any(abs(m.coverage - 1 / 256) / (1 / 256) < 0.2 for m in modes)

    def test_modes_empty_for_smooth(self):
        gen = np.random.default_rng(1)
        smooth = gen.uniform(0.01, 1.0, 2000)
        assert coverage_modes(smooth, min_count=60, excess_factor=5.0) == []

    def test_modes_empty_input(self):
        assert coverage_modes(np.array([])) == []

    def test_modes_bin_validation(self):
        with pytest.raises(ValueError):
            coverage_modes(np.array([0.5]), n_bins=5)


class TestCollaboration:
    def test_detects_slash24_cluster(self):
        base = 0x0A000000  # 10.0.0.0/24
        n = 16
        table = make_table(
            src=[base + i for i in range(n)],
            coverage=[0.004] * n,
            start=[100.0] * n,
            end=[5000.0] * n,
        )
        clusters = collaborating_subnets(table, min_sources=8)
        assert len(clusters) == 1
        assert clusters[0].sources == n
        assert clusters[0].total_coverage == pytest.approx(0.064)

    def test_scattered_sources_no_cluster(self):
        table = make_table(src=[0x0A000000 + i * 65536 for i in range(16)],
                           coverage=[0.004] * 16)
        assert collaborating_subnets(table, min_sources=8) == []

    def test_dissimilar_coverage_no_cluster(self):
        base = 0x0A000000
        gen = np.random.default_rng(0)
        table = make_table(
            src=[base + i for i in range(16)],
            coverage=gen.uniform(0.0001, 0.9, 16).tolist(),
            start=[100.0] * 16,
            end=[5000.0] * 16,
        )
        assert collaborating_subnets(table, min_sources=8,
                                     coverage_cv_max=0.3) == []

    def test_empty_table(self):
        assert collaborating_subnets(ScanTable.empty()) == []


def _week_batch(src_ips, weeks):
    """One packet per (src, week), placed mid-week."""
    week_s = 7 * 86_400.0
    n = len(src_ips)
    return PacketBatch(
        time=np.asarray(weeks, dtype=float) * week_s + week_s / 2,
        src_ip=np.asarray(src_ips, dtype=np.uint32),
        dst_ip=np.zeros(n, dtype=np.uint32),
        src_port=np.full(n, 40000, dtype=np.uint16),
        dst_port=np.full(n, 80, dtype=np.uint16),
        ip_id=np.zeros(n, dtype=np.uint16),
        seq=np.zeros(n, dtype=np.uint32),
        ttl=np.full(n, 64, dtype=np.uint8),
        window=np.zeros(n, dtype=np.uint16),
        flags=np.full(n, 2, dtype=np.uint8),
    )


def _source_tally(batch, n_weeks):
    """The per-(block, week) distinct-source tally of one window."""
    suite = AnalysisSuite(AnalysisConfig(year=2020, days=7 * n_weeks))
    suite.consume(batch)
    suite.volatility.finalize_counts(
        scan_weekly_tally(ScanTable.empty(), n_weeks)
    )
    return suite.volatility.tallies["sources"].pair()


class TestSourceWeeklyTally:
    def test_distinct_sources_past_week_255(self):
        """Regression: the old ``(src << 8) | week`` dedupe key let week
        indices past 255 bleed into the address bits, so an even source
        seen in week 257 collided with source+1 seen in week 1 — one of
        the two distinct (src, week) pairs silently vanished on any
        horizon beyond ~5 years."""
        src = np.uint32(0x0A0A0000 + 4)     # even, so src|1 == src + 1
        assert ((np.uint64(src) << np.uint64(8)) | np.uint64(257)) == (
            (np.uint64(src + 1) << np.uint64(8)) | np.uint64(1)
        )  # the collision the old key had
        batch = _week_batch([src + 1, src], [1, 257])
        keys, counts = _source_tally(batch, n_weeks=300)
        block = int(src) >> 16
        assert keys.tolist() == [
            (block << 32) | 1, (block << 32) | 257
        ]
        assert counts.tolist() == [1, 1]

    def test_duplicate_packets_deduped_within_week(self):
        src = np.uint32(0x0A0A0001)
        batch = _week_batch([src, src, src + 1], [260, 260, 260])
        keys, counts = _source_tally(batch, n_weeks=300)
        assert counts.tolist() == [2]  # two sources, one week, one block


class TestWeeklyChangeFactors:
    def test_stable_block_factor_one(self):
        series = np.array([[10, 10, 10]])
        factors = weekly_change_factors(series)
        assert np.allclose(factors, 1.0)

    def test_doubling_block(self):
        series = np.array([[10, 20, 40]])
        assert np.allclose(weekly_change_factors(series), 2.0)

    def test_decrease_counts_symmetrically(self):
        series = np.array([[40, 10]])
        assert weekly_change_factors(series)[0] == pytest.approx(4.0)

    def test_zero_to_active_is_inf(self):
        series = np.array([[0, 5]])
        assert np.isinf(weekly_change_factors(series)[0])

    def test_inactive_pairs_skipped(self):
        series = np.array([[0, 0, 5]])
        factors = weekly_change_factors(series)
        assert factors.size == 1  # only the (0, 5) transition counts

    def test_single_week_empty(self):
        assert weekly_change_factors(np.array([[5]])).size == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            weekly_change_factors(np.array([1, 2, 3]))
