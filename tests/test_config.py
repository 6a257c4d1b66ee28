"""Unit tests for the per-year calibration configs."""

import numpy as np
import pytest

from repro import paper
from repro.enrichment.types import ScannerType
from repro.scanners.base import Tool
from repro.simulation import (
    ALL_YEARS,
    ShardingSpec,
    SpeedSpec,
    all_year_configs,
    year_config,
)
from repro.simulation.config import DisclosureEvent


class TestSpeedSpec:
    def test_floor_enforced(self, rng):
        spec = SpeedSpec(median_pps=50.0, sigma=0.1, floor_pps=120.0)
        draws = spec.sample(rng, 1000)
        assert draws.min() >= 120.0

    def test_cap_enforced(self, rng):
        spec = SpeedSpec(median_pps=1e6, sigma=2.0, cap_pps=2e6)
        draws = spec.sample(rng, 1000)
        assert draws.max() <= 2e6

    def test_median_roughly_right(self, rng):
        spec = SpeedSpec(median_pps=1000.0, sigma=0.5)
        draws = spec.sample(rng, 20_000)
        assert 900 < np.median(draws) < 1100

    def test_multiplier(self, rng):
        spec = SpeedSpec(median_pps=1000.0, sigma=0.3)
        fast = spec.sample(rng, 5000, multiplier=4.0)
        assert 3400 < np.median(fast) < 4600


class TestShardingSpec:
    def test_no_sharding(self, rng):
        spec = ShardingSpec()
        assert np.all(spec.sample_shards(rng, 100) == 1)
        assert spec.mean_shards() == 1.0

    def test_sharded_mean(self, rng):
        spec = ShardingSpec(prob_sharded=1.0, mean_extra_shards=4.0)
        shards = spec.sample_shards(rng, 20_000)
        assert shards.min() >= 2
        assert abs(shards.mean() - 5.0) < 0.25

    def test_shard_cap(self, rng):
        spec = ShardingSpec(prob_sharded=1.0, mean_extra_shards=1000.0)
        assert spec.sample_shards(rng, 100).max() <= 256


class TestDisclosureEvent:
    def test_surge_decays(self):
        event = DisclosureEvent("x", 443, 5, magnitude=40.0, decay_days=5.0)
        assert event.surge_factor(0) == pytest.approx(40.0)
        assert event.surge_factor(5) == pytest.approx(20.0)
        assert event.surge_factor(-1) == 0.0
        assert event.surge_factor(50) < 0.05


class TestYearConfigs:
    def test_all_years_buildable(self):
        configs = all_year_configs()
        assert sorted(configs) == list(ALL_YEARS)

    def test_out_of_range_year(self):
        with pytest.raises(ValueError):
            year_config(2014)
        with pytest.raises(ValueError):
            year_config(2025)

    def test_days_bounds(self):
        with pytest.raises(ValueError):
            year_config(2020, days=0)
        with pytest.raises(ValueError):
            year_config(2020, days=62)

    @pytest.mark.parametrize("year", ALL_YEARS)
    def test_cohort_shares_sane(self, year):
        cfg = year_config(year)
        scan_total = sum(c.scan_share for c in cfg.cohorts)
        assert 0.5 < scan_total <= 1.2
        pkt_total = sum(c.packet_share for c in cfg.cohorts)
        assert 0.5 < pkt_total <= 1.01

    @pytest.mark.parametrize("year", ALL_YEARS)
    def test_tool_weights_positive(self, year):
        for cohort in year_config(year).cohorts:
            assert sum(cohort.tool_weights.values()) > 0

    def test_mirai_absent_before_2017(self):
        for year in (2015, 2016):
            cfg = year_config(year)
            assert all(c.name != "residential_botnet" for c in cfg.cohorts)
            assert cfg.background_mirai_fraction <= 0.05

    def test_mirai_dominant_2017(self):
        cfg = year_config(2017)
        botnet = next(c for c in cfg.cohorts if c.name == "residential_botnet")
        assert botnet.scan_share == pytest.approx(0.465)
        assert botnet.scanner_type == ScannerType.RESIDENTIAL
        assert botnet.tool_weights == {Tool.MIRAI: 1.0}

    def test_packet_volume_growth_30x(self):
        first = year_config(2015).packets_per_day
        last = year_config(2024).packets_per_day
        assert last / first == pytest.approx(345 / 11, rel=0.01)

    def test_scan_growth_39x(self):
        first = year_config(2015).scans_per_month
        last = year_config(2024).scans_per_month
        assert last / first == pytest.approx(39.4, rel=0.05)

    def test_sharding_grows_over_years(self):
        early = year_config(2016).cohorts[0].sharding.mean_shards()
        late = year_config(2024).cohorts[0].sharding.mean_shards()
        assert late > early * 2

    def test_institutional_share_ramps(self):
        assert year_config(2015).institutional.packet_share < 0.1
        assert year_config(2023).institutional.packet_share >= 0.45

    def test_fingerprintable_drop_2023(self):
        assert year_config(2022).institutional.fingerprintable_fraction == 1.0
        assert year_config(2024).institutional.fingerprintable_fraction < 0.5

    def test_alias_adoption_trend(self):
        """§5.1: 80→8080 coupling 18% (2015) → ~87% (2020+)."""
        hosting_2015 = next(c for c in year_config(2015).cohorts
                            if c.name == "hosting_fast")
        hosting_2020 = next(c for c in year_config(2020).cohorts
                            if c.name == "hosting_fast")
        assert hosting_2015.alias_adoption == pytest.approx(0.18)
        assert hosting_2020.alias_adoption == pytest.approx(0.87)

    def test_events_exist_for_most_years(self):
        with_events = [y for y in ALL_YEARS if year_config(y).events]
        assert len(with_events) >= 8

    def test_event_ports_valid(self):
        for year in ALL_YEARS:
            for event in year_config(year).events:
                assert 0 < event.port < 65536
                assert 0 <= event.day_offset < year_config(year).days

    def test_port_country_overrides_present(self):
        cfg = year_config(2022)
        assert 3389 in cfg.port_country_overrides
        assert cfg.port_country_overrides[3389]["CN"] >= 0.7
        assert 8545 in cfg.port_country_overrides
        assert cfg.port_country_overrides[8545]["VN"] >= 0.5

    def test_http_us_abandonment(self):
        """§5.4: the US very active on HTTP 2016–2018, gone by 2019."""
        us_2017 = year_config(2017).port_country_overrides[80]["US"]
        us_2019 = year_config(2019).port_country_overrides[80]["US"]
        assert us_2017 > 0.3
        assert us_2019 < 0.1

    def test_table1_tool_shares_recorded(self):
        """Spot-check the Table 1 transcription."""
        assert paper.TOOL_SHARES_BY_SCANS[2015][Tool.NMAP] == pytest.approx(0.317)
        assert paper.TOOL_SHARES_BY_SCANS[2017][Tool.MIRAI] == pytest.approx(0.465)
        assert paper.TOOL_SHARES_BY_SCANS[2024][Tool.ZMAP] == pytest.approx(0.59)

    def test_scaling_respects_budget(self):
        cfg = year_config(2024)
        scaled = cfg.scaled(max_packets=100_000)
        assert scaled.period_packets <= 100_000 * 1.001
        assert 0 < scaled.scale <= 5e-3

    def test_scaling_cap_for_light_years(self):
        cfg = year_config(2015)
        scaled = cfg.scaled(max_packets=10**9)
        assert scaled.scale == pytest.approx(5e-3)
