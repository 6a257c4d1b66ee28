"""The analysis suite vs the whole-array reference report.

The contract under test (see ``repro/stream/analyses.py``): the suite's
packet-side accumulators, finalised over the final scan table, produce a
:class:`~repro.core.report.PaperReport` that is field-by-field — including
every float — equal to the batch assembly kept in
``tests/report_oracle.py``, at any window size, shard count and worker
count, across kill-and-resume, and within bounded memory; and
:func:`~repro.core.report.paper_report`, the suite over one window, equals
it too.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import analyze_period, analyze_simulation, paper_report
from repro.simulation import TelescopeWorld
from repro.stream import (
    AnalysisConfig,
    AnalysisSuite,
    BatchStreamSource,
    StreamOrderError,
    stream_report,
)
from repro.telescope import PacketBatch, read_trace, write_trace
from tests.report_oracle import batch_paper_report


def assert_reports_equal(actual, expected, path="report"):
    """Recursive exact equality over the report dataclass tree."""
    if dataclasses.is_dataclass(expected):
        assert type(actual) is type(expected), path
        for f in dataclasses.fields(expected):
            assert_reports_equal(
                getattr(actual, f.name), getattr(expected, f.name),
                f"{path}.{f.name}",
            )
    elif isinstance(expected, dict):
        assert set(actual) == set(expected), path
        for key in expected:
            assert_reports_equal(actual[key], expected[key], f"{path}[{key}]")
    elif isinstance(expected, (tuple, list)):
        assert len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_reports_equal(a, e, f"{path}[{i}]")
    elif isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), path
        assert np.array_equal(actual, expected), path
    else:
        # Floats included: the streaming path promises *exact* equality.
        assert actual == expected, (path, actual, expected)


@pytest.fixture(scope="module")
def expected_report(analysis2020):
    return batch_paper_report(analysis2020)


def windows_of(batch, size):
    """Split a batch into consecutive windows of ``size`` packets."""
    step = size or len(batch)
    for i in range(0, len(batch), step):
        mask = np.zeros(len(batch), dtype=bool)
        mask[i:i + step] = True
        yield batch.where(mask)


def no_scan_analysis(classifier):
    """A 10-day period whose sources each probe too few addresses to scan."""
    gen = np.random.default_rng(3)
    n = 500
    sources = gen.integers(1, 2**32, 50, dtype=np.uint32)
    batch = PacketBatch(
        time=np.sort(gen.uniform(0.0, 10 * 86_400.0, n)),
        src_ip=sources[gen.integers(0, sources.size, n)],
        dst_ip=gen.integers(0, 2**32, n, dtype=np.uint32),
        src_port=gen.integers(1024, 2**16, n).astype(np.uint16),
        dst_port=gen.choice([22, 23, 80, 445], n).astype(np.uint16),
        ip_id=gen.integers(0, 2**16, n, dtype=np.uint16),
        seq=gen.integers(0, 2**32, n, dtype=np.uint32),
        ttl=gen.integers(32, 128, n).astype(np.uint8),
        window=gen.integers(0, 2**16, n, dtype=np.uint16),
        flags=np.full(n, 2, dtype=np.uint8),
    )
    return analyze_period(batch, year=2020, days=10, classifier=classifier)


class TestPaperReport:
    """``paper_report`` — the suite over one window — equals the oracle."""

    def test_equals_oracle(self, analysis2020, expected_report):
        assert_reports_equal(paper_report(analysis2020), expected_report)

    def test_study_filter_drops_scans(self):
        sim = TelescopeWorld(rng=5).simulate_year(
            2016, days=3, max_packets=6_000, min_scans=40
        )
        analysis = analyze_simulation(sim)
        assert len(analysis.study_scans) < len(analysis.scans)
        assert_reports_equal(
            paper_report(analysis), batch_paper_report(analysis)
        )

    def test_period_without_scans(self, analysis2020):
        analysis = no_scan_analysis(analysis2020.classifier)
        assert len(analysis.scans) == 0 and len(analysis.study_batch) > 0
        report = paper_report(analysis)
        assert report.scans == 0 and report.trends.intensity is None
        assert_reports_equal(report, batch_paper_report(analysis))


class TestSuiteEquivalence:
    """The suite alone, fed windows directly (no engine in the loop)."""

    @pytest.mark.parametrize("batch_size", [4096, 50_000, None])
    def test_any_window_size(self, analysis2020, expected_report, batch_size):
        suite = AnalysisSuite(
            AnalysisConfig(year=analysis2020.year, days=analysis2020.days)
        )
        for window in windows_of(analysis2020.batch, batch_size):
            suite.consume(window)
        assert_reports_equal(
            suite.finalize(analysis2020.scans), expected_report
        )

    def test_out_of_order_window_rejected(self, analysis2020):
        suite = AnalysisSuite(
            AnalysisConfig(year=analysis2020.year, days=analysis2020.days)
        )
        batch = analysis2020.batch
        later = np.zeros(len(batch), dtype=bool)
        later[len(batch) // 2:] = True
        suite.consume(batch.where(later))
        with pytest.raises(StreamOrderError):
            suite.consume(batch.where(~later))


class TestSnapshotRestore:
    def test_midstream_roundtrip(self, analysis2020, expected_report):
        config = AnalysisConfig(
            year=analysis2020.year, days=analysis2020.days
        )
        suite = AnalysisSuite(config)
        windows = list(windows_of(analysis2020.batch, 16_384))
        for window in windows[: len(windows) // 2]:
            suite.consume(window)
        snapshot = suite.snapshot()

        restored = AnalysisSuite(config)
        restored.restore({k: v.copy() for k, v in snapshot.items()})
        for window in windows[len(windows) // 2:]:
            restored.consume(window)
        assert_reports_equal(
            restored.finalize(analysis2020.scans), expected_report
        )

    def test_snapshot_round_trips_through_rtrace(self, analysis2020, tmp_path):
        suite = AnalysisSuite(
            AnalysisConfig(year=analysis2020.year, days=analysis2020.days)
        )
        suite.consume(analysis2020.batch)
        path = tmp_path / "suite.rtrace"
        write_trace(path, PacketBatch.empty(), meta=suite.snapshot())
        _, arrays = read_trace(path)
        restored = AnalysisSuite(
            AnalysisConfig(year=analysis2020.year, days=analysis2020.days)
        )
        restored.restore(arrays)
        assert_reports_equal(
            restored.finalize(analysis2020.scans),
            batch_paper_report(analysis2020),
        )


class TestStreamReport:
    """The full engine path: identification + analyses in one pass."""

    @pytest.mark.parametrize("batch_size,n_shards", [
        (4096, 1), (50_000, 1), (None, 1),
        (4096, 2), (None, 2), (8192, 4),
    ])
    def test_equals_batch_report(
        self, analysis2020, expected_report, batch_size, n_shards
    ):
        result = stream_report(
            BatchStreamSource(analysis2020.batch, batch_size=batch_size),
            year=analysis2020.year,
            days=analysis2020.days,
            n_shards=n_shards,
            batch_size=batch_size,
            classifier=analysis2020.classifier,
        )
        assert_reports_equal(result.report, expected_report)
        # The suite is a bounded add-on, not a second copy of the capture.
        assert (0 < result.stats.analysis_state_bytes
                < analysis2020.batch.memory_bytes())

    def test_suite_rides_with_shard_zero(self, analysis2020):
        """A sharded run carries one suite, on shard 0, and that suite
        reads every raw packet, not shard 0's share of them."""
        from repro.stream import StreamEngine

        batch = analysis2020.batch
        result = StreamEngine(
            n_shards=3,
            analyses=AnalysisConfig(analysis2020.year, analysis2020.days),
        ).run(BatchStreamSource(batch, batch_size=8192))
        assert [run.analysis is not None for run in result.shards] == [
            True, False, False,
        ]
        assert result.shards[0].stats.packets < len(batch)
        assert result.analyses.packets_consumed == len(batch)

    def test_worker_processes_equal_batch_report(
        self, analysis2020, expected_report, tmp_path
    ):
        """Through pool workers, shard 0's suite snapshot crosses the
        process boundary and the report still equals the oracle's."""
        trace = tmp_path / "period.rtrace"
        write_trace(trace, analysis2020.batch, meta={
            "year": analysis2020.year, "days": analysis2020.days,
        })
        result = stream_report(
            trace, n_shards=2, workers=2,
            classifier=analysis2020.classifier,
        )
        assert_reports_equal(result.report, expected_report)

    def test_period_must_be_known(self, analysis2020):
        with pytest.raises(ValueError, match="year"):
            stream_report(
                BatchStreamSource(analysis2020.batch, batch_size=None)
            )

    def test_kill_and_resume(
        self, analysis2020, expected_report, tmp_path
    ):
        trace = tmp_path / "period.rtrace"
        write_trace(trace, analysis2020.batch, meta={
            "year": analysis2020.year, "days": analysis2020.days,
        })
        ckpt = tmp_path / "ckpt"

        class Killed(Exception):
            pass

        windows_seen = {"n": 0}

        def killer(shard, stats):
            windows_seen["n"] += 1
            if windows_seen["n"] == 3:
                raise Killed()

        with pytest.raises(Killed):
            stream_report(
                trace, batch_size=16_384, checkpoint_dir=ckpt,
                checkpoint_every=1, progress=killer,
                classifier=analysis2020.classifier,
            )

        result = stream_report(
            trace, batch_size=16_384, checkpoint_dir=ckpt,
            classifier=analysis2020.classifier,
        )
        assert result.resumed
        assert result.stats.resumed_packets > 0
        assert_reports_equal(result.report, expected_report)

    def test_sharded_kill_and_resume(
        self, analysis2020, expected_report, tmp_path
    ):
        trace = tmp_path / "period.rtrace"
        write_trace(trace, analysis2020.batch, meta={
            "year": analysis2020.year, "days": analysis2020.days,
        })
        ckpt = tmp_path / "ckpt"

        class Killed(Exception):
            pass

        windows_seen = {"n": 0}

        def killer(shard, stats):
            windows_seen["n"] += 1
            if windows_seen["n"] == 3:
                raise Killed()

        with pytest.raises(Killed):
            stream_report(
                trace, batch_size=16_384, n_shards=2, checkpoint_dir=ckpt,
                checkpoint_every=1, progress=killer,
                classifier=analysis2020.classifier,
            )

        result = stream_report(
            trace, batch_size=16_384, n_shards=2, checkpoint_dir=ckpt,
            classifier=analysis2020.classifier,
        )
        assert result.resumed
        assert_reports_equal(result.report, expected_report)

    def test_analysis_checkpoint_does_not_collide_with_plain(
        self, analysis2020, tmp_path
    ):
        """A run with analyses keys its checkpoints separately: finishing a
        plain stream first must not satisfy (or poison) a report run."""
        from repro.stream import StreamConfig, StreamEngine, TraceStreamSource

        trace = tmp_path / "period.rtrace"
        write_trace(trace, analysis2020.batch, meta={
            "year": analysis2020.year, "days": analysis2020.days,
        })
        ckpt = tmp_path / "ckpt"
        config = StreamConfig(batch_size=16_384, checkpoint_dir=ckpt)
        plain = StreamEngine(config=config).run(
            TraceStreamSource(trace, batch_size=16_384)
        )
        result = stream_report(
            trace, batch_size=16_384, checkpoint_dir=ckpt,
            classifier=analysis2020.classifier,
        )
        assert not result.resumed  # distinct key -> fresh pass
        assert_reports_equal(
            result.report, batch_paper_report(analysis2020)
        )
        assert len(plain.scans) == len(result.scans)


class TestBoundedMemory:
    def test_volatility_retires_closed_weeks(self):
        """On a long trace, only the watermark's weeks hold live source
        sets — per-week dedupe state must not accumulate over the run."""
        week_s = 7 * 86_400.0
        n_weeks = 30
        days = int(n_weeks * 7)
        gen = np.random.default_rng(5)
        suite = AnalysisSuite(AnalysisConfig(year=2020, days=days))

        per_week_state = []
        for week in range(n_weeks):
            n = 400
            times = np.sort(gen.uniform(week * week_s, (week + 1) * week_s, n))
            batch = PacketBatch(
                time=times,
                src_ip=(week * 10_000 + gen.integers(0, 3_000, n)).astype(
                    np.uint32
                ),
                dst_ip=gen.integers(0, 2**32, n, dtype=np.uint32),
                src_port=gen.integers(1024, 2**16, n).astype(np.uint16),
                dst_port=gen.integers(0, 2**16, n, dtype=np.uint16),
                ip_id=gen.integers(0, 2**16, n, dtype=np.uint16),
                seq=gen.integers(0, 2**32, n, dtype=np.uint32),
                ttl=gen.integers(32, 128, n).astype(np.uint8),
                window=gen.integers(0, 2**16, n, dtype=np.uint16),
                flags=np.full(n, 2, dtype=np.uint8),
            )
            suite.consume(batch)
            per_week_state.append(suite.volatility.open_week_count)

        # A window never spans a week here, so at most the current week is
        # open (plus, transiently, the one a boundary packet lands in).
        assert max(per_week_state) <= 2
        # The retired state lives in the sparse tallies, not source sets.
        assert suite.volatility.state_nbytes() < 2 * 1024 * 1024
