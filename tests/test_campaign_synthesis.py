"""Unit and property tests for campaign specs and telescope-hit synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.enrichment.types import ScannerType
from repro.scanners import Tool
from repro.simulation.campaigns import (
    CampaignSpec,
    bounded_pareto_mean,
    calibrate_pareto_bounds,
    sample_bounded_pareto,
    solve_pareto_low,
    synthesize_campaign,
)
from repro.telescope import FLAG_SYN, Telescope
from repro.telescope.addresses import AddressSet


@pytest.fixture(scope="module")
def scope():
    return Telescope(AddressSet(range(10_000, 12_000)))


def make_spec(**overrides):
    base = dict(
        campaign_id=1,
        cohort="test",
        scanner_type=ScannerType.HOSTING,
        tool=Tool.MASSCAN,
        country="US",
        src_ips=(123456,),
        ports=(80,),
        start=100.0,
        rate_pps=1000.0,
        telescope_hits=500,
        ipv4_coverage=0.01,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestCampaignSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(src_ips=())
        with pytest.raises(ValueError):
            make_spec(ports=())
        with pytest.raises(ValueError):
            make_spec(rate_pps=0)
        with pytest.raises(ValueError):
            make_spec(ipv4_coverage=0.0)
        with pytest.raises(ValueError):
            make_spec(telescope_hits=-1)

    def test_duration_math(self):
        spec = make_spec(ipv4_coverage=0.5, ports=(80, 443), rate_pps=1e6)
        assert spec.total_probes == pytest.approx(0.5 * 2**32 * 2)
        assert spec.duration == pytest.approx(spec.total_probes / 1e6)
        assert spec.end == spec.start + spec.duration

    def test_shards_property(self):
        assert make_spec(src_ips=(1, 2, 3)).shards == 3


class TestSynthesis:
    def test_hit_count(self, scope, rng):
        batch = synthesize_campaign(make_spec(), scope, rng)
        assert len(batch) == 500

    def test_zero_hits(self, scope, rng):
        batch = synthesize_campaign(make_spec(telescope_hits=0), scope, rng)
        assert len(batch) == 0

    def test_destinations_in_telescope(self, scope, rng):
        batch = synthesize_campaign(make_spec(), scope, rng)
        assert np.all(scope.monitored.contains_array(batch.dst_ip))

    def test_all_syn(self, scope, rng):
        batch = synthesize_campaign(make_spec(), scope, rng)
        assert np.all(batch.flags == FLAG_SYN)

    def test_source_ip_stamped(self, scope, rng):
        batch = synthesize_campaign(make_spec(src_ips=(42,)), scope, rng)
        assert np.all(batch.src_ip == 42)

    def test_single_port(self, scope, rng):
        batch = synthesize_campaign(make_spec(ports=(443,)), scope, rng)
        assert np.all(batch.dst_port == 443)

    def test_multi_port_all_used(self, scope, rng):
        batch = synthesize_campaign(make_spec(ports=(80, 443, 8080)), scope, rng)
        assert set(np.unique(batch.dst_port).tolist()) == {80, 443, 8080}

    def test_times_within_window(self, scope, rng):
        spec = make_spec()
        batch = synthesize_campaign(spec, scope, rng)
        assert batch.time.min() >= spec.start
        assert batch.time.max() <= spec.end + 0.1

    def test_period_end_censoring(self, scope, rng):
        spec = make_spec(start=0.0, rate_pps=100.0, ipv4_coverage=1.0)
        cutoff = spec.duration / 2
        batch = synthesize_campaign(spec, scope, rng, period_end=cutoff)
        assert len(batch) < 500
        assert batch.time.max() < cutoff

    def test_sharded_split_even(self, scope, rng):
        spec = make_spec(src_ips=(1, 2, 3, 4), telescope_hits=403)
        batch = synthesize_campaign(spec, scope, rng)
        _, counts = np.unique(batch.src_ip, return_counts=True)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 403

    def test_masscan_fingerprint_present(self, scope, rng):
        from repro.scanners import masscan_ip_id
        batch = synthesize_campaign(make_spec(tool=Tool.MASSCAN), scope, rng)
        assert np.all(batch.ip_id == masscan_ip_id(batch.dst_ip, batch.dst_port, batch.seq))

    def test_zmap_fingerprint_toggle(self, scope, rng):
        marked = synthesize_campaign(
            make_spec(tool=Tool.ZMAP, fingerprintable=True), scope, rng)
        assert np.all(marked.ip_id == 54321)
        unmarked = synthesize_campaign(
            make_spec(tool=Tool.ZMAP, fingerprintable=False), scope, rng)
        assert np.mean(unmarked.ip_id == 54321) < 0.01

    def test_mirai_fingerprint(self, scope, rng):
        batch = synthesize_campaign(make_spec(tool=Tool.MIRAI), scope, rng)
        assert np.array_equal(batch.seq, batch.dst_ip)

    def test_sequential_times_track_addresses(self, scope, rng):
        spec = make_spec(sequential=True, tool=Tool.NMAP, rate_pps=100.0,
                         ipv4_coverage=0.3)
        batch = synthesize_campaign(spec, scope, rng)
        order = np.argsort(batch.time)
        dst_sorted = batch.dst_ip[order].astype(np.float64)
        r = np.corrcoef(np.arange(dst_sorted.size), dst_sorted)[0, 1]
        assert r > 0.95


class TestBoundedPareto:
    def test_mean_formula_against_samples(self, rng):
        alpha, low, high = 1.3, 100.0, 50_000.0
        analytic = bounded_pareto_mean(alpha, low, high)
        samples = sample_bounded_pareto(rng, alpha, low, high, 200_000)
        assert abs(samples.mean() - analytic) / analytic < 0.03

    def test_mean_alpha_one_limit(self):
        near_one = bounded_pareto_mean(1.0001, 100, 10_000)
        at_one = bounded_pareto_mean(1.0, 100, 10_000)
        assert abs(near_one - at_one) / at_one < 0.01

    def test_alpha_one_branch_where_isclose_holds(self):
        # At 1 +- 1.001e-5 the general form is ~1e-5 away from the limit
        # form, far above its rounding error, so equality with the limit
        # form tells which branch ran.
        low, high = 100.0, 10_000.0
        limit = float(np.log(high / low) / (1.0 / low - 1.0 / high))
        alphas = [1.0]
        for edge in (1.0 - 1.001e-5, 1.0 + 1.001e-5):
            for step in range(-3, 4):
                alphas.append(edge + step * np.spacing(edge))
            alphas += [edge - 1e-7, edge + 1e-7]
        taken = {alpha: bounded_pareto_mean(alpha, low, high) == limit
                 for alpha in alphas}
        assert taken == {alpha: bool(np.isclose(alpha, 1.0)) for alpha in alphas}
        assert any(taken.values()) and not all(taken.values())

    def test_samples_within_bounds(self, rng):
        s = sample_bounded_pareto(rng, 0.9, 10, 1000, 10_000)
        assert s.min() >= 10 and s.max() <= 1000

    def test_bad_bounds(self, rng):
        with pytest.raises(ValueError):
            sample_bounded_pareto(rng, 1.0, 100, 100, 10)
        with pytest.raises(ValueError):
            bounded_pareto_mean(1.0, 100, 50)

    def test_solve_low_achieves_mean(self, rng):
        alpha, high, target = 1.1, 71_536.0, 5_000.0
        low = solve_pareto_low(alpha, target, high)
        got = bounded_pareto_mean(alpha, low, high)
        assert abs(got - target) / target < 0.02

    def test_solve_low_floors(self):
        low = solve_pareto_low(1.1, 50.0, 71_536.0, low_floor=110.0)
        assert low == 110.0

    def test_calibrate_prefers_low(self):
        low, high = calibrate_pareto_bounds(1.1, 5_000.0, 125.0, 71_536.0)
        assert high == 71_536.0
        assert low > 125.0

    def test_calibrate_shrinks_cap_for_small_targets(self):
        low, high = calibrate_pareto_bounds(1.05, 200.0, 125.0, 71_536.0)
        assert low == 125.0
        assert high < 71_536.0
        got = bounded_pareto_mean(1.05, low, high)
        assert abs(got - 200.0) / 200.0 < 0.05

    @given(st.floats(min_value=150, max_value=20_000))
    @settings(max_examples=25, deadline=None)
    def test_calibrate_mean_property(self, target):
        low, high = calibrate_pareto_bounds(1.1, target, 125.0, 71_536.0)
        assert 125.0 <= low < high <= 71_536.0
        got = bounded_pareto_mean(1.1, low, high)
        assert abs(got - target) / target < 0.05
