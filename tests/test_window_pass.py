"""The analysis suite's window pass vs the forms it replaced.

``AnalysisSuite.consume`` reduces each window once — the study mask, one
day division (:func:`~repro.core.churn.day_index`) and one sort into
distinct (source, day) pairs (:func:`~repro.core.churn.source_days`) — and
the packet-side accumulators tally those pairs.  These properties hold that
pass to the ``t // 604800``, ``np.unique`` and ``np.lexsort`` forms kept in
``tests/report_oracle.py``, on adversarial windows: tied times, times on
and one ulp either side of day and week boundaries, the extreme source
addresses, one-packet windows, windows with only excluded ports, horizons
past week 255 and arbitrary cuts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaigns import ScanTable
from repro.core.churn import day_index, first_appearance_days, source_days
from repro.core.pipeline import study_batch_of
from repro.core.volatility import (
    packet_weekly_tally,
    scan_weekly_tally,
    week_index,
)
from repro.stream import AnalysisConfig, AnalysisSuite
from repro.telescope import PacketBatch
from tests import report_oracle as oracle

DAY_S = 86_400.0
WEEK_S = 7 * DAY_S

#: Source addresses that stress the packed key: both ends of the address
#: space and a full /16 block.
EDGE_SOURCES = [0, 1, 0xFFFF, 0x10000, 0xFFFF0000, 0xFFFFFFFE, 0xFFFFFFFF]
#: The study-excluded ports, the classic ones and the port space's edges.
EDGE_PORTS = [23, 445, 22, 80, 8080, 0, 65535]


def batch_of(time, src_ip, dst_port):
    n = len(time)
    return PacketBatch(
        time=np.asarray(time, dtype=np.float64),
        src_ip=np.asarray(src_ip, dtype=np.uint32),
        dst_ip=np.arange(n, dtype=np.uint32),
        src_port=np.full(n, 40_000, dtype=np.uint16),
        dst_port=np.asarray(dst_port, dtype=np.uint16),
        ip_id=np.zeros(n, dtype=np.uint16),
        seq=np.zeros(n, dtype=np.uint32),
        ttl=np.full(n, 64, dtype=np.uint8),
        window=np.zeros(n, dtype=np.uint16),
        flags=np.full(n, 2, dtype=np.uint8),
    )


def windows_at(batch, cuts):
    """``batch`` split at the sorted packet indices ``cuts``."""
    bounds = [0, *cuts, len(batch)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mask = np.zeros(len(batch), dtype=bool)
        mask[lo:hi] = True
        yield batch.where(mask)


@st.composite
def boundary_times(draw, max_day):
    """A time on a day or week boundary, one ulp either side, or between."""
    kind = draw(st.sampled_from(["day", "week", "uniform"]))
    if kind == "uniform":
        return draw(st.floats(0.0, (max_day + 1) * DAY_S))
    unit = DAY_S if kind == "day" else WEEK_S
    t = draw(st.integers(0, int(max_day * DAY_S // unit))) * unit
    step = draw(st.sampled_from([-1, 0, 1]))
    if step:
        t = float(np.nextafter(t, np.inf * step))
    return max(t, 0.0)


@st.composite
def captures(draw):
    """A time-ordered capture, its period length and cut points."""
    days = draw(st.sampled_from([1, 3, 7, 30, 2_000]))
    max_day = days + 10                    # some packets past the period
    n = draw(st.integers(1, 60))
    times = sorted(draw(st.lists(boundary_times(max_day), min_size=n,
                                 max_size=n)))
    if draw(st.booleans()):               # ties
        times = [times[i // 2 * 2] for i in range(n)]
    pool = draw(st.lists(
        st.sampled_from(EDGE_SOURCES) | st.integers(0, 2**32 - 1),
        min_size=1, max_size=6,
    ))
    src = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    ports = draw(st.lists(
        st.sampled_from(EDGE_PORTS) | st.integers(0, 2**16 - 1),
        min_size=n, max_size=n,
    ))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=4)))
    cuts = [c for c in cuts if c < n]
    return batch_of(times, src, ports), days, cuts


def suite_over(windows, days):
    suite = AnalysisSuite(AnalysisConfig(year=2020, days=days))
    for window in windows:
        suite.consume(window)
    return suite


def packet_side(suite):
    """The packet-side state of a suite, finalised into plain arrays."""
    counts = suite.volatility.finalize_counts(
        scan_weekly_tally(ScanTable.empty(), suite.config.n_weeks)
    )
    ports = np.flatnonzero(suite.port_packets)
    return {
        **{f"vol_{name}": matrix for name, matrix in counts.items()},
        "port_keys": ports,
        "port_counts": suite.port_packets[ports],
        "churn_curve": np.cumsum(suite.churn.per_day),
        "churn_seen": suite.churn.seen,
        "study_packets": np.array([suite.study_packets]),
    }


def reference_side(batch, days):
    """The same state from the oracle's whole-array forms."""
    study = study_batch_of(batch)
    n_weeks = AnalysisConfig(year=2020, days=days).n_weeks
    counts = oracle.weekly_slash16_counts(study, ScanTable.empty(), n_weeks)
    ports, port_counts = oracle.port_tally(study)
    return {
        **{f"vol_{name}": matrix for name, matrix in counts.items()},
        "port_keys": ports,
        "port_counts": port_counts,
        "churn_curve": oracle.cumulative_distinct_sources(study, days),
        "churn_seen": np.unique(study.src_ip),
        "study_packets": np.array([len(study)]),
    }


def assert_state_equal(actual, expected):
    assert set(actual) == set(expected)
    for name in expected:
        assert np.array_equal(actual[name], expected[name]), name


class TestWindowPass:
    @settings(max_examples=150, deadline=None)
    @given(captures())
    def test_any_cut_equals_the_oracle(self, capture):
        batch, days, cuts = capture
        one = packet_side(suite_over([batch], days))
        assert_state_equal(one, reference_side(batch, days))
        assert_state_equal(
            packet_side(suite_over(windows_at(batch, cuts), days)), one
        )

    @settings(max_examples=150, deadline=None)
    @given(captures())
    def test_helpers_equal_the_replaced_forms(self, capture):
        batch, days, _ = capture
        n_weeks = AnalysisConfig(year=2020, days=days).n_weeks
        day = day_index(batch.time)
        assert np.array_equal(
            week_index(day, n_weeks), oracle.week_index(batch.time, n_weeks)
        )

        pairs = source_days(batch.src_ip, day)
        rows, counts = np.unique(
            np.stack([batch.src_ip.astype(np.int64), day]), axis=1,
            return_counts=True,
        )
        assert np.array_equal(pairs.src, rows[0])
        assert np.array_equal(pairs.day, rows[1])
        assert np.array_equal(pairs.packets, counts)

        srcs, first = first_appearance_days(pairs, days)
        ref_srcs, ref_first = oracle.first_appearance_days(batch, days)
        assert np.array_equal(srcs, ref_srcs)
        assert np.array_equal(first, ref_first)
        assert (srcs.dtype, first.dtype) == (ref_srcs.dtype, ref_first.dtype)

        tally = packet_weekly_tally(
            pairs.src, week_index(pairs.day, n_weeks), pairs.packets
        )
        reference = oracle.packet_weekly_tally(batch, n_weeks)
        for got, want in zip(tally, reference):
            assert np.array_equal(got, want) and got.dtype == want.dtype

    def test_week_from_day_is_exact_on_adversarial_times(self):
        """``day_index // 7`` equals ``t // 604800`` at every day boundary
        of the first 200,000 days, one ulp either side, and at random
        times — the identity the week index rests on."""
        edges = np.arange(200_000, dtype=np.float64) * DAY_S
        times = np.concatenate([
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges[1:], -np.inf),
            np.random.default_rng(11).uniform(0.0, 200_000 * DAY_S, 200_000),
        ])
        n_weeks = 200_000 // 7 + 2
        assert np.array_equal(
            week_index(day_index(times), n_weeks),
            oracle.week_index(times, n_weeks),
        )
        assert np.array_equal(
            day_index(times), (times // DAY_S).astype(np.int64)
        )

    def test_day_index_equals_floor_division_up_to_the_last_day(self):
        """``day_index`` floors a product, not a quotient: it must equal
        ``t // 86400.0`` at exact day multiples across the whole packable
        range, one ulp either side of them, and at random times."""
        rng = np.random.default_rng(26)
        days = np.concatenate([
            np.arange(1, 100_000), rng.integers(1, 2**32, 200_000),
            [2**32 - 1],
        ]).astype(np.float64)
        edges = days * DAY_S
        times = np.concatenate([
            [0.0], edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, -np.inf),
            rng.uniform(0.0, 2.0**32 * DAY_S, 200_000),
        ])
        times = times[times < 2.0**32 * DAY_S]
        assert np.array_equal(
            day_index(times), (times // DAY_S).astype(np.int64)
        )

    def test_excluded_ports_only(self):
        """A window of only ports 23 and 445 is an empty study view: it
        counts as consumed but leaves every tally untouched."""
        batch = batch_of([5.0, 6.0, 90_000.0], [7, 8, 9], [23, 445, 23])
        suite = suite_over(windows_at(batch, [1]), days=3)
        assert suite.packets_consumed == 3 and suite.study_packets == 0
        assert_state_equal(packet_side(suite), reference_side(batch, 3))

    def test_one_packet_windows_past_week_255(self):
        """A horizon longer than 255 weeks with one packet per window: the
        week sits in the low 32 bits of the volatility key."""
        days = 2_000
        times = [0.0, 257 * WEEK_S, 257 * WEEK_S + 1.0, (days + 5) * DAY_S]
        src = [0xFFFFFFFF, 0, 0xFFFFFFFF, 0x0A0A0004]
        batch = batch_of(times, src, [80, 80, 22, 8080])
        suite = suite_over(windows_at(batch, [1, 2, 3]), days)
        assert_state_equal(packet_side(suite), reference_side(batch, days))


class TestUnpackableTimes:
    """Times without a day index in [0, 2**32) raise one clear error."""

    def capture(self):
        return batch_of(
            [10.0, 20.0, 2 * DAY_S, 3 * DAY_S, 4 * DAY_S],
            [1, 2, 1, 2, 1], [80, 80, 80, 22, 80],
        )

    def with_time(self, index, value):
        batch = self.capture()
        columns = {k: np.array(v) for k, v in batch.columns().items()}
        columns["time"][index] = value
        return PacketBatch(**columns)

    @pytest.mark.parametrize("cuts", [[], [2], [1, 3]])
    def test_nan_raises_at_any_windowing(self, cuts):
        """The NaN packet's source was seen in an earlier window at every
        cut but the first, which once finished silently."""
        batch = self.with_time(3, np.nan)
        with pytest.raises(ValueError, match="no day index"):
            suite_over(windows_at(batch, cuts), days=7)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, -1.0, 2.0**32 * DAY_S])
    def test_out_of_range_times_raise(self, value):
        index = 0 if value < 0 else 4
        with pytest.raises(ValueError, match="no day index"):
            suite_over([self.with_time(index, value)], days=7)

    def test_last_packable_day_is_accepted(self):
        day = day_index(np.array([(2.0**32 - 1) * DAY_S]))
        assert day.tolist() == [2**32 - 1]
