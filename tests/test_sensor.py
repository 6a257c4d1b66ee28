"""Unit tests for the telescope sensor and its detection model."""

import numpy as np
import pytest

from repro.telescope import (
    AddressSet,
    CidrBlock,
    FLAG_ACK,
    FLAG_SYN,
    IngressPolicy,
    PacketBatch,
    SynPacket,
    Telescope,
    coverage_estimate,
    detection_probability,
    hit_probability_per_probe,
    internet_wide_rate,
    time_to_detection,
)
from repro.telescope.sensor import PAPER_TELESCOPE_SIZE


def packet(dst_ip, dst_port=80, flags=FLAG_SYN, t=0.0):
    return SynPacket(time=t, src_ip=1, dst_ip=dst_ip, src_port=2,
                     dst_port=dst_port, flags=flags)


@pytest.fixture()
def small_telescope():
    return Telescope(AddressSet(range(1000, 1100)))


class TestIngressPolicy:
    PORTS = np.array([23, 445, 80], dtype=np.uint16)

    def test_inactive_before_2017(self):
        policy = IngressPolicy()
        assert policy.allows(self.PORTS, 2016).tolist() == [True, True, True]

    def test_active_from_2017(self):
        policy = IngressPolicy()
        assert policy.allows(self.PORTS, 2017).tolist() == [False, False, True]

    def test_custom_ports(self):
        policy = IngressPolicy(blocked_ports=frozenset({8080}), active_since_year=2000)
        ports = np.array([8080, 23], dtype=np.uint16)
        assert policy.allows(ports, 2015).tolist() == [False, True]
        unblocked = IngressPolicy(blocked_ports=frozenset(), active_since_year=2000)
        assert unblocked.allows(ports, 2015).tolist() == [True, True]


class TestTelescope:
    def test_requires_addresses(self):
        with pytest.raises(ValueError):
            Telescope(AddressSet([]))

    def test_observe_filters_outside(self, small_telescope):
        batch = PacketBatch.from_packets([packet(1050), packet(5000)])
        out = small_telescope.observe(batch, 2015)
        assert len(out) == 1
        assert small_telescope.stats.outside_telescope == 1

    def test_observe_drops_backscatter(self, small_telescope):
        batch = PacketBatch.from_packets(
            [packet(1050), packet(1051, flags=FLAG_SYN | FLAG_ACK)]
        )
        out = small_telescope.observe(batch, 2015)
        assert len(out) == 1
        assert small_telescope.stats.backscatter == 1

    def test_observe_applies_ingress(self, small_telescope):
        batch = PacketBatch.from_packets([packet(1050, dst_port=445)])
        assert len(small_telescope.observe(batch, 2020)) == 0
        assert small_telescope.stats.ingress_dropped == 1

    def test_observe_sorts_by_time(self, small_telescope, rng):
        batch = PacketBatch.from_packets([packet(1050, t=5.0), packet(1051, t=1.0)])
        out = small_telescope.observe(batch, 2015)
        assert out.time.tolist() == [1.0, 5.0]

        # Many sources share each of a few times: an unstable sort would
        # interleave them, so ties must come out in row order.
        n = 2000
        times = rng.integers(0, 4, size=n).astype(np.float64)
        batch = PacketBatch.from_packets(
            SynPacket(time=float(t), src_ip=i, dst_ip=1000 + i % 100,
                      src_port=2, dst_port=80)
            for i, t in enumerate(times)
        )
        out = small_telescope.observe(batch, 2015)
        want = np.argsort(times, kind="stable")
        assert out.src_ip.tolist() == want.tolist()

    def test_paper_telescope_size(self):
        t = Telescope.paper_telescope(rng=3)
        assert abs(t.size - PAPER_TELESCOPE_SIZE) < 100

    def test_from_blocks(self):
        t = Telescope.from_blocks([CidrBlock.parse("10.0.0.0/24")])
        assert t.size == 256

    def test_sample_destinations_members(self, small_telescope, rng):
        got = small_telescope.sample_destinations(rng, 50)
        assert np.all(small_telescope.monitored.contains_array(got))

    def test_stats_accumulate(self, small_telescope):
        batch = PacketBatch.from_packets([packet(1050)])
        small_telescope.observe(batch, 2015)
        small_telescope.observe(batch, 2015)
        assert small_telescope.stats.scan_probes == 2


class TestDetectionModel:
    def test_hit_probability(self):
        assert hit_probability_per_probe(2**16) == pytest.approx(2**16 / 2**32)

    def test_paper_claim_100pps_1hour(self):
        """§3.4: a 100 pps scanner appears within 1 h with ~99.9% probability."""
        p = detection_probability(100, 3600)
        assert p > 0.99

    def test_time_to_detection_inverse(self):
        t = time_to_detection(100, confidence=0.999)
        assert detection_probability(100, t) == pytest.approx(0.999, rel=1e-6)

    def test_faster_scanner_detected_sooner(self):
        assert time_to_detection(1000) < time_to_detection(100)

    def test_confidence_must_be_fraction(self):
        with pytest.raises(ValueError):
            time_to_detection(100, confidence=1.0)

    def test_internet_wide_rate(self):
        # 1 telescope pps extrapolates by the inverse space fraction.
        rate = internet_wide_rate(1.0, telescope_size=2**16)
        assert rate == pytest.approx(2**16)

    def test_coverage_estimate_full(self):
        assert coverage_estimate(PAPER_TELESCOPE_SIZE) == 1.0

    def test_coverage_estimate_partial(self):
        assert coverage_estimate(PAPER_TELESCOPE_SIZE // 2) == pytest.approx(0.5, rel=1e-4)

    def test_coverage_estimate_negative_rejected(self):
        with pytest.raises(ValueError):
            coverage_estimate(-1)
