"""Tests for ecosystem summaries (Table 1 machinery) and the reporting layer."""

import numpy as np
import pytest

from repro.core.ecosystem import (
    GrowthReport,
    PortShare,
    common_tool_share,
    growth_report,
    summarize_period,
    top_ports_by_packets,
    top_ports_by_scans,
    top_ports_by_sources,
)
from repro.core.pipeline import EXCLUDED_STUDY_PORTS
from repro.core.ports_analysis import (
    port_pair_affinity,
    port_space_coverage,
    ports_per_source_summary,
    speed_ports_correlation,
    vertical_scan_counts,
)
from repro.core.recurrence import recurrence_by_type
from repro.core.volatility import volatility_summary
from repro.reporting import (
    figure3_ports_per_ip,
    figure4_tool_mix_per_port,
    figure8_org_port_coverage,
    render_table1,
    render_table2,
)
from repro.core.classification import (
    capability_by_type,
    port_type_distribution,
    type_shares,
)
from repro.scanners import Tool


class TestYearSummary:
    def test_summary_fields(self, analysis2020):
        summary = summarize_period(analysis2020)
        assert summary.year == 2020
        assert summary.packets_per_day > 0
        assert summary.scans_per_month > 0
        assert len(summary.top_ports_by_packets) == 5
        assert len(summary.top_ports_by_sources) == 5
        assert len(summary.top_ports_by_scans) == 5

    def test_top_ports_ranked(self, analysis2020):
        tops = top_ports_by_packets(analysis2020, k=5)
        shares = [p.share for p in tops]
        assert shares == sorted(shares, reverse=True)

    def test_excluded_ports_absent(self, analysis2020):
        for getter in (top_ports_by_packets, top_ports_by_sources,
                       top_ports_by_scans):
            ports = {p.port for p in getter(analysis2020, k=20)}
            assert not (ports & EXCLUDED_STUDY_PORTS)

    def test_port_share_str(self):
        assert str(PortShare(80, 0.123)) == "80 (12.3%)"

    def test_tool_shares_sum_to_one(self, analysis2020):
        summary = summarize_period(analysis2020)
        assert sum(summary.tool_shares_by_scans.values()) == pytest.approx(1.0)
        assert sum(summary.tool_shares_by_packets.values()) == pytest.approx(1.0)

    def test_common_tool_share_excludes_unknown(self, analysis2020):
        summary = summarize_period(analysis2020)
        share = common_tool_share(summary)
        assert 0 < share < 1
        assert share == pytest.approx(
            1.0 - summary.tool_shares_by_scans.get(Tool.UNKNOWN, 0.0)
        )


class TestGrowth:
    def _summary(self, year, ppd, spm):
        return summarize_period.__wrapped__ if False else None

    def test_growth_report(self, analysis2020):
        s = summarize_period(analysis2020)
        import dataclasses
        s2015 = dataclasses.replace(
            s, year=2015, packets_per_day=s.packets_per_day / 30,
            scans_per_month=s.scans_per_month / 39,
        )
        report = growth_report({2015: s2015, 2020: s})
        assert report.packet_growth == pytest.approx(30.0)
        assert report.scan_growth == pytest.approx(39.0)
        assert report.first_year == 2015 and report.last_year == 2020

    def test_growth_needs_two_years(self, analysis2020):
        with pytest.raises(ValueError):
            growth_report({2020: summarize_period(analysis2020)})


class TestPortsAnalysisOnSim:
    def test_ports_per_source(self, analysis2020):
        summary = ports_per_source_summary(analysis2020.study_batch)
        assert summary.sources > 1000
        # 2020 calibration: ~74% single-port sources.
        assert 0.6 < summary.fraction_single_port < 0.9

    def test_port_pair_affinity_80_8080(self, analysis2020):
        """§5.1: by 2020, ~87% of port-80 scans also cover 8080."""
        affinity = port_pair_affinity(analysis2020.study_scans, 80, 8080)
        assert affinity > 0.4

    def test_affinity_nan_when_absent(self, analysis2020):
        assert np.isnan(port_pair_affinity(analysis2020.study_scans, 64999, 65000))

    def test_port_space_coverage(self, analysis2020):
        cov = port_space_coverage(analysis2020)
        assert cov.probed_ports > 1000
        assert 0 < cov.probed_privileged <= 1023

    def test_port_space_validation(self, analysis2020):
        with pytest.raises(ValueError):
            port_space_coverage(analysis2020, noise_floor_fraction=1.0)

    def test_vertical_scan_counts_monotone(self, analysis2020):
        counts = vertical_scan_counts(analysis2020.study_scans)
        assert counts.total_scans == len(analysis2020.study_scans)
        assert counts.over_100_ports >= counts.over_1000_ports >= counts.over_10000_ports

    def test_vertical_fraction_validation(self, analysis2020):
        counts = vertical_scan_counts(analysis2020.study_scans)
        with pytest.raises(ValueError):
            counts.fraction_over(500)

    def test_speed_ports_correlation_positive(self, analysis2020):
        """§5.3: scan speed correlates positively with ports targeted."""
        r, p = speed_ports_correlation(analysis2020.study_scans)
        assert r > 0


class TestVolatilityOnSim:
    def test_summary_metrics_present(self, analysis2020):
        summary = volatility_summary(analysis2020)
        assert set(summary) == {"sources", "scans", "packets"}

    def test_substantial_weekly_change(self, analysis2020):
        """§4.4: a large share of /16s changes at least 2× week-over-week."""
        summary = volatility_summary(analysis2020)
        assert summary["sources"].fraction_at_least_2x > 0.3
        assert summary["packets"].pairs > 100

    def test_fractions_ordered(self, analysis2020):
        for s in volatility_summary(analysis2020).values():
            assert s.fraction_at_least_3x <= s.fraction_at_least_2x


class TestRenderers:
    def test_table1_renders(self, analysis2020):
        text = render_table1({2020: summarize_period(analysis2020)})
        assert "Packets/day" in text
        assert "masscan (by scans)" in text
        assert "2020" in text

    def test_table1_scale_note(self, analysis2020):
        text = render_table1({2020: summarize_period(analysis2020)},
                             scale_note="scaled by 1e-4")
        assert text.endswith("scaled by 1e-4")

    def test_table1_empty_rejected(self):
        with pytest.raises(ValueError):
            render_table1({})

    def test_table2_renders(self, analysis2020):
        text = render_table2(type_shares(analysis2020))
        assert "Institutional" in text
        assert "%" in text

    def test_table2_empty_rejected(self):
        with pytest.raises(ValueError):
            render_table2([])


class TestFigureSeries:
    def test_figure2(self, analysis2020):
        cdfs = volatility_summary(analysis2020)
        assert "scans" in cdfs

    def test_figure3(self, analysis2020):
        series = figure3_ports_per_ip({2020: analysis2020})
        xs, ps = series[2020]
        assert xs.size > 0 and ps[-1] == pytest.approx(1.0)

    def test_figure4(self, analysis2020):
        mix = figure4_tool_mix_per_port(analysis2020, top_n=5)
        assert len(mix) == 5
        for port, tools in mix.items():
            if tools:
                assert sum(tools.values()) == pytest.approx(1.0, abs=1e-6)

    def test_figure5(self, analysis2020):
        assert len(port_type_distribution(analysis2020, top_n=8)) == 8

    def test_figure6(self, analysis2020):
        recurrence = recurrence_by_type(analysis2020.study_scans)
        assert recurrence

    def test_figure7(self, analysis2020):
        caps = capability_by_type(analysis2020)
        assert caps

    def test_figure8(self, analysis2020):
        rows = figure8_org_port_coverage(analysis2020)
        assert rows
        coverages = [r.coverage for r in rows]
        assert coverages == sorted(coverages, reverse=True)
