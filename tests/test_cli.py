"""Tests for the repro-scan command-line interface."""

import pytest

from repro.cli import main
from repro.telescope import read_trace


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """A small simulated capture written once for the CLI tests."""
    out = tmp_path_factory.mktemp("cli") / "capture.rtrace"
    code = main([
        "simulate", "--year", "2018", "--days", "5",
        "--max-packets", "40000", "--min-scans", "120",
        "--seed", "9", "--out", str(out),
    ])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_trace_with_metadata(self, capture):
        batch, meta = read_trace(capture)
        assert len(batch) > 10_000
        assert meta["year"] == 2018
        assert meta["days"] == 5
        assert 0 < meta["packet_scale"] <= 5e-3

    def test_pcap_copy(self, tmp_path, capsys):
        out = tmp_path / "c.rtrace"
        pcap = tmp_path / "c.pcap"
        code = main([
            "simulate", "--year", "2016", "--days", "3",
            "--max-packets", "15000", "--min-scans", "60",
            "--out", str(out), "--pcap", str(pcap),
        ])
        assert code == 0
        assert pcap.exists()
        text = capsys.readouterr().out
        assert "SYN share" in text

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.rtrace", tmp_path / "b.rtrace"
        for path in (a, b):
            main(["simulate", "--year", "2016", "--days", "3",
                  "--max-packets", "15000", "--min-scans", "60",
                  "--seed", "4", "--out", str(path)])
        batch_a, _ = read_trace(a)
        batch_b, _ = read_trace(b)
        assert len(batch_a) == len(batch_b)
        assert (batch_a.seq == batch_b.seq).all()

    def test_rewrite_removes_a_dead_writers_temp_file(self, tmp_path):
        """A killed ``simulate --out`` leaves ``<out>.tmp<pid>-<n>`` behind;
        the next write to that path deletes it, but keeps a live writer's
        file and those of other targets."""
        import subprocess
        import sys

        out = tmp_path / "c.rtrace"
        ended = subprocess.Popen([sys.executable, "-c", "pass"])
        ended.wait()  # its pid now names no process
        running = subprocess.Popen([sys.executable, "-c",
                                    "import time; time.sleep(60)"])
        try:
            dead = tmp_path / f"c.rtrace.tmp{ended.pid}-0"
            live = tmp_path / f"c.rtrace.tmp{running.pid}-0"
            other = tmp_path / f"d.rtrace.tmp{ended.pid}-0"
            for path in (dead, live, other):
                path.write_bytes(b"partial")
            assert main(["simulate", "--year", "2016", "--days", "3",
                         "--max-packets", "15000", "--min-scans", "60",
                         "--out", str(out)]) == 0
            assert len(read_trace(out)[0]) > 0
            assert not dead.exists() and live.exists() and other.exists()
        finally:
            running.kill()
            running.wait()


class TestAnalyze:
    def test_report_sections(self, capture, capsys):
        assert main(["analyze", str(capture)]) == 0
        text = capsys.readouterr().out
        assert "Packets/day" in text
        assert "Institutional" in text
        assert "known scanners:" in text
        assert "counting inflation" in text

    def test_year_override(self, capture, capsys):
        assert main(["analyze", str(capture), "--year", "2018"]) == 0

    def test_missing_metadata_errors(self, tmp_path, capsys):
        from repro.telescope import write_trace
        from repro.telescope.packet import PacketBatch
        bare = tmp_path / "bare.rtrace"
        write_trace(bare, PacketBatch.empty())
        assert main(["analyze", str(bare)]) == 2
        assert "year/days metadata" in capsys.readouterr().err


class TestReport:
    def test_multi_year_table(self, capsys):
        code = main(["report", "--years", "2015,2017", "--days", "3",
                     "--max-packets", "15000"])
        assert code == 0
        text = capsys.readouterr().out
        assert "2015" in text and "2017" in text
        assert "masscan (by scans)" in text

    def test_bad_years_rejected(self, capsys):
        assert main(["report", "--years", "2013"]) == 2
        assert main(["report", "--years", "twenty"]) == 2


class TestFingerprint:
    def test_tool_shares_printed(self, capture, capsys):
        assert main(["fingerprint", str(capture)]) == 0
        text = capsys.readouterr().out
        assert "packets" in text
        assert "masscan" in text or "unknown" in text

    def test_empty_capture(self, tmp_path, capsys):
        from repro.telescope import write_trace
        from repro.telescope.packet import PacketBatch
        empty = tmp_path / "empty.rtrace"
        write_trace(empty, PacketBatch.empty())
        assert main(["fingerprint", str(empty)]) == 1


class TestAnonymize:
    def test_roundtrip_preserves_structure(self, capture, tmp_path, capsys):
        out = tmp_path / "anon.rtrace"
        code = main(["anonymize", str(capture), "--out", str(out),
                     "--key", "987654321"])
        assert code == 0
        import numpy as np
        original, _ = read_trace(capture)
        anonymised, meta = read_trace(out)
        assert meta["anonymized"] is True
        assert len(anonymised) == len(original)
        assert not np.array_equal(anonymised.src_ip, original.src_ip)
        assert np.array_equal(anonymised.dst_ip, original.dst_ip)

    def test_bad_key(self, capture, tmp_path, capsys):
        out = tmp_path / "anon.rtrace"
        assert main(["anonymize", str(capture), "--out", str(out),
                     "--key", "-5"]) == 2

    def test_cache_entry_carries_no_ground_truth(self, tmp_path, capsys):
        """A capture-cache entry's metadata lists every campaign's raw
        source addresses; only the period's scalar keys may carry over."""
        cache = tmp_path / "cache"
        assert main(["simulate", "--year", "2018", "--days", "2",
                     "--max-packets", "8000", "--min-scans", "40",
                     "--seed", "4", "--cache-dir", str(cache),
                     "--out", str(tmp_path / "sim.rtrace")]) == 0
        (entry,) = cache.glob("*.rtrace")
        _, entry_meta = read_trace(entry)
        assert len(entry_meta["src_ips"]) > 0
        out = tmp_path / "anon.rtrace"
        assert main(["anonymize", str(entry), "--out", str(out),
                     "--key", "3"]) == 0
        _, meta = read_trace(out)
        assert meta == {
            "year": 2018, "days": 2, "anonymized": True,
            "packet_scale": entry_meta["packet_scale"],
            "scan_scale": entry_meta["scan_scale"],
        }


class TestStream:
    def test_stream_summary_and_stats(self, capture, tmp_path, capsys):
        stats_json = tmp_path / "stats.json"
        code = main([
            "stream", str(capture), "--batch-size", "8192",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--progress-every", "1", "--stats-json", str(stats_json),
        ])
        assert code == 0
        out = capsys.readouterr()
        assert "identified" in out.out
        assert "peak RSS" in out.out
        assert "w=1" in out.err  # progress lines on stderr
        import json
        stats = json.loads(stats_json.read_text())
        assert stats["packets"] > 10_000
        assert stats["windows"] >= 2
        assert stats["peak_rss_bytes"] > 0

    def test_stream_matches_batch(self, capture, capsys):
        assert main(["stream", str(capture), "--batch-size", "4096"]) == 0
        streamed = capsys.readouterr().out
        from repro.core.campaigns import identify_scans
        batch, _ = read_trace(capture)
        expected = identify_scans(batch)
        assert f"identified {len(expected):,} scan(s)" in streamed

    def test_stream_resumes(self, capture, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["stream", str(capture), "--batch-size", "8192",
                     "--checkpoint-dir", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["stream", str(capture), "--batch-size", "8192",
                     "--checkpoint-dir", str(ckpt)]) == 0
        assert "resumed from checkpoint" in capsys.readouterr().err

    def test_missing_capture(self, tmp_path, capsys):
        assert main(["stream", str(tmp_path / "missing.rtrace")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_stream_report_matches_analyze_report(self, capture, capsys):
        """The CI diff in miniature: both --report paths must print the
        byte-identical paper report on stdout."""
        assert main(["analyze", str(capture), "--report"]) == 0
        batch_out = capsys.readouterr().out
        assert "paper report" in batch_out
        assert "volatility" in batch_out
        assert main(["stream", str(capture), "--report",
                     "--batch-size", "8192"]) == 0
        out = capsys.readouterr()
        assert out.out == batch_out
        assert "analysis state" in out.err  # diagnostics stay on stderr
        assert main(["stream", str(capture), "--report", "--shards", "2",
                     "--batch-size", "4096"]) == 0
        assert capsys.readouterr().out == batch_out

    def test_stream_report_needs_period(self, tmp_path, capsys):
        from repro.telescope import write_trace
        from repro.telescope.packet import PacketBatch
        bare = tmp_path / "bare.rtrace"
        write_trace(bare, PacketBatch.empty())
        assert main(["stream", str(bare), "--report"]) == 2
        assert "year" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [0, 4, 100])
    def test_truncation_note_names_the_packets_read(self, capture, tmp_path,
                                                    capsys, cut):
        """A three-chunk capture cut ``cut`` bytes past where its third
        chunk's header starts — no end marker, a partial header, a short
        chunk — reads its first two chunks whole, and the note says so."""
        from repro.telescope import TraceReader, write_trace

        batch, meta = read_trace(capture)
        full = tmp_path / "full.rtrace"
        write_trace(full, batch, meta=meta, chunk_size=len(batch) // 3 + 1)
        with TraceReader(full) as reader:
            third_header = reader.index.offsets[2] - 8
            kept = int(reader.index.cum_counts[1])
        cut_path = tmp_path / "cut.rtrace"
        cut_path.write_bytes(full.read_bytes()[:third_header + cut])
        assert main(["stream", str(cut_path), "--tolerate-truncation"]) == 0
        notes = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("note:")]
        assert notes == [
            f"note: capture was truncated; read only its complete chunks "
            f"({kept:,} packets)"
        ]

    def test_cache_key_resolution(self, capture, tmp_path, capsys):
        # A capture argument that is not a file resolves through --cache-dir.
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "deadbeef.rtrace").write_bytes(capture.read_bytes())
        assert main(["stream", "deadbeef", "--cache-dir", str(cache),
                     "--batch-size", "8192"]) == 0
        assert "identified" in capsys.readouterr().out


#: Flags that changed nothing and were removed, each at the end of a
#: command line that must now be refused.
REMOVED_FLAGS = [
    "analyze CAPTURE --workers 0",
    "analyze CAPTURE --batch-size 4096",
    "fingerprint CAPTURE --workers 0",
    "fingerprint CAPTURE --batch-size 4096",
    "anonymize CAPTURE --key 3 --workers 0",
    "anonymize CAPTURE --key 3 --batch-size 4096",
    "simulate --workers 1",
    "stream CAPTURE --window-s 3600",
]


class TestCaptureFlags:
    def test_whole_capture_commands_take_cache_dir(self, capture, tmp_path,
                                                   capsys):
        # A capture argument that is not a file resolves through --cache-dir.
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "deadbeef.rtrace").write_bytes(capture.read_bytes())
        assert main(["analyze", str(capture)]) == 0
        by_path = capsys.readouterr().out
        assert main(["analyze", "deadbeef", "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == by_path
        assert main(["fingerprint", "deadbeef", "--cache-dir", str(cache)]) == 0
        assert "packets" in capsys.readouterr().out
        out = tmp_path / "anon.rtrace"
        assert main(["anonymize", "deadbeef", "--cache-dir", str(cache),
                     "--out", str(out), "--key", "24680"]) == 0
        assert len(read_trace(out)[0]) == len(read_trace(capture)[0])

    @pytest.mark.parametrize("argv", REMOVED_FLAGS)
    def test_removed_flags_are_rejected(self, capture, tmp_path, capsys,
                                        argv):
        out = tmp_path / "out.rtrace"
        args = [str(capture) if a == "CAPTURE" else a for a in argv.split()]
        if args[0] in ("simulate", "anonymize"):
            args += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        flag = argv.split()[-2]  # every entry ends in the removed flag
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestJsonReport:
    def test_json_matches_between_batch_and_stream(self, capture, capsys):
        import json

        assert main(["analyze", str(capture), "--report", "--json"]) == 0
        batch_out = capsys.readouterr().out
        doc = json.loads(batch_out)
        assert doc["year"] == 2018 and doc["days"] == 5
        assert main(["stream", str(capture), "--report", "--json",
                     "--batch-size", "8192"]) == 0
        assert capsys.readouterr().out == batch_out

    def test_json_requires_report(self, capture, capsys):
        assert main(["analyze", str(capture), "--json"]) == 2
        assert "--report" in capsys.readouterr().err
        assert main(["stream", str(capture), "--json"]) == 2
        assert "--report" in capsys.readouterr().err


class TestCacheCommand:
    def _fake_cache(self, tmp_path):
        # `cache ls|prune` manage files by size and mtime only, so plain
        # placeholder entries exercise the LRU mechanics.
        import os

        cache = tmp_path / "cache"
        cache.mkdir()
        old = cache / ("a" * 32 + ".rtrace")
        new = cache / ("b" * 32 + ".rtrace")
        old.write_bytes(b"x" * 2048)
        new.write_bytes(b"y" * 1024)
        os.utime(old, (1_000_000, 1_000_000))
        os.utime(new, (2_000_000, 2_000_000))
        return cache, old, new

    def test_ls_lists_lru_first(self, tmp_path, capsys):
        cache, old, new = self._fake_cache(tmp_path)
        assert main(["cache", "ls", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert lines[0].startswith("a" * 32)
        assert lines[1].startswith("b" * 32)
        assert "2 entr(y/ies)" in out.err

    def test_prune_evicts_oldest_until_budget(self, tmp_path, capsys):
        cache, old, new = self._fake_cache(tmp_path)
        assert main(["cache", "prune", "--cache-dir", str(cache),
                     "--max-bytes", "1K"]) == 0
        out = capsys.readouterr()
        assert not old.exists() and new.exists()
        assert "a" * 32 in out.out
        assert "1 evicted" in out.err

    def test_prune_within_budget_is_a_noop(self, tmp_path, capsys):
        cache, old, new = self._fake_cache(tmp_path)
        assert main(["cache", "prune", "--cache-dir", str(cache),
                     "--max-bytes", "1M"]) == 0
        assert old.exists() and new.exists()
        assert "0 evicted" in capsys.readouterr().err

    def test_orphaned_temp_file_is_listed_and_pruned(self, tmp_path, capsys):
        import subprocess
        import sys

        cache, old, new = self._fake_cache(tmp_path)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # its pid now names no process
        orphan = cache / f"{'c' * 32}.rtrace.tmp{child.pid}-0"
        orphan.write_bytes(b"z" * 512)
        assert main(["cache", "ls", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[0].endswith("(orphaned temp file)")
        assert "2 entr(y/ies), 1 orphaned temp file(s), 3.5 KB total" in out.err
        assert main(["cache", "prune", "--cache-dir", str(cache),
                     "--max-bytes", "1M"]) == 0
        assert not orphan.exists() and old.exists() and new.exists()
        assert "1 evicted" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["lots", "inf", "1e400", "nan"])
    def test_prune_rejects_malformed_budget(self, tmp_path, capsys, budget):
        cache, old, new = self._fake_cache(tmp_path)
        assert main(["cache", "prune", "--cache-dir", str(cache),
                     "--max-bytes", budget]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "malformed size" in errors[0], err
        assert old.exists() and new.exists()


class TestGracefulSignals:
    @pytest.fixture
    def sigterm_after(self, monkeypatch):
        """Deliver SIGTERM to this process right after the n-th window the
        identifier consumes — synchronously on the main thread, exactly
        like an operator's ``kill`` between two windows."""
        import os
        import signal
        import threading

        if threading.current_thread() is not threading.main_thread():
            pytest.skip("signal handlers need the main thread")

        from repro.stream.incremental import IncrementalScanIdentifier

        original = IncrementalScanIdentifier.consume

        def arm(n):
            windows = []

            def consume_then_signal(self, window):
                original(self, window)
                windows.append(None)
                if len(windows) == n:
                    os.kill(os.getpid(), signal.SIGTERM)

            monkeypatch.setattr(IncrementalScanIdentifier, "consume",
                                consume_then_signal)

        return arm

    def test_sigterm_mid_stream_flushes_and_exits_zero(
        self, capture, tmp_path, capsys, monkeypatch, sigterm_after
    ):
        """SIGTERM between windows takes the graceful path: checkpoint
        flushed, 'resumable from' line, exit code 0 — and the next run
        resumes from the flushed checkpoint."""
        import signal

        sigterm_after(3)
        ckpt = tmp_path / "ckpt"
        handler_before = signal.getsignal(signal.SIGTERM)
        assert main(["stream", str(capture), "--batch-size", "4096",
                     "--checkpoint-dir", str(ckpt),
                     "--checkpoint-every", "100"]) == 0
        err = capsys.readouterr().err
        assert "interrupted by SIGTERM" in err
        assert "resumable from" in err
        assert signal.getsignal(signal.SIGTERM) is handler_before

        monkeypatch.undo()
        assert main(["stream", str(capture), "--batch-size", "4096",
                     "--checkpoint-dir", str(ckpt)]) == 0
        assert "resumed from checkpoint" in capsys.readouterr().err

    def test_sigterm_mid_sharded_report_resumes_to_batch_report(
        self, capture, tmp_path, capsys, monkeypatch, sigterm_after
    ):
        """``stream --report --shards 2`` honours SIGTERM too: no partial
        report on stdout, exit 0, and the re-run's report is byte-equal to
        ``analyze --report``."""
        assert main(["analyze", str(capture), "--report"]) == 0
        batch_out = capsys.readouterr().out

        sigterm_after(3)
        argv = ["stream", str(capture), "--report", "--shards", "2",
                "--batch-size", "4096", "--checkpoint-dir",
                str(tmp_path / "ckpt"), "--checkpoint-every", "100"]
        assert main(argv) == 0
        out = capsys.readouterr()
        assert "interrupted by SIGTERM" in out.err
        assert "resumable from" in out.err
        assert out.out == ""

        monkeypatch.undo()
        assert main(argv) == 0
        out = capsys.readouterr()
        assert "resumed from checkpoint" in out.err
        assert out.out == batch_out


#: Invalid argument values and the library message each must end in;
#: ``CAPTURE`` stands for the shared test capture.
BAD_ARGV = {
    "simulate --days 100": "days must be within",
    "simulate --max-packets -5": "max_packets must be positive",
    "report --days 0": "days must be within",
    "report --workers -1": "workers must be non-negative",
    "validate --days 0": "days must be within",
    "analyze CAPTURE --days 0": "days must be >= 1",
    "stream CAPTURE --batch-size 0": "batch_size must be positive",
}


class TestBadArguments:
    @pytest.mark.parametrize("argv", sorted(BAD_ARGV))
    def test_exits_2_with_one_error_line(self, capture, tmp_path, capsys, argv):
        # The library's own message, not a traceback or a silent default.
        out = tmp_path / "out.rtrace"
        args = [str(capture) if a == "CAPTURE" else a for a in argv.split()]
        if args[0] in ("simulate", "anonymize"):
            args += ["--out", str(out)]
        assert main(args) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and BAD_ARGV[argv] in errors[0]
        assert not out.exists()


#: Every command that reads a capture, as run over a damaged one.
DAMAGED_ARGV = ["analyze", "fingerprint", "anonymize --key 3", "stream",
                "stream --report"]


class TestDamagedCapture:
    @pytest.fixture(scope="class")
    def damaged(self, capture, tmp_path_factory):
        """A bad-magic file, a copy of the capture cut mid-chunk, and a
        three-chunk copy with one byte flipped in its last chunk."""
        from repro.telescope import write_trace

        d = tmp_path_factory.mktemp("damaged")
        (d / "bad.rtrace").write_bytes(b"NOTTRACE" + b"\x00" * 6)
        data = capture.read_bytes()
        (d / "cut.rtrace").write_bytes(data[: len(data) // 2])
        batch, meta = read_trace(capture)
        write_trace(d / "flipped.rtrace", batch, meta=meta,
                    chunk_size=len(batch) // 3 + 1)
        data = bytearray((d / "flipped.rtrace").read_bytes())
        data[len(data) - 8 - 100] ^= 0x01  # before the data CRC and end
        (d / "flipped.rtrace").write_bytes(bytes(data))
        return d

    @pytest.mark.parametrize("kind,message", [
        ("bad", "bad magic in"), ("cut", "truncated trace file"),
        ("flipped", "checksum mismatch"),
    ])
    @pytest.mark.parametrize("argv", DAMAGED_ARGV)
    def test_exits_2_with_one_error_line(self, damaged, tmp_path, capsys,
                                         argv, kind, message):
        args = argv.split()
        args.insert(1, str(damaged / f"{kind}.rtrace"))
        if args[0] == "anonymize":
            args += ["--out", str(tmp_path / "out.rtrace")]
        if args[0] == "stream":
            args += ["--stats-json", str(tmp_path / "stats.json")]
        assert main(args) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]
        assert list(tmp_path.iterdir()) == []  # no output file written

    @pytest.mark.parametrize("extra", [[], ["--shards", "2", "--workers", "2"]])
    def test_checksum_mismatch_found_mid_stream(self, damaged, capsys, extra):
        assert main(["stream", str(damaged / "flipped.rtrace"),
                     "--batch-size", "4096", "--progress-every", "1",
                     *extra]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "checksum mismatch" in errors[0], err
        assert "batch 2" in errors[0] and "Traceback" not in err
        if not extra:  # in-process: the good chunks' windows came first
            assert err.index("shard 0:") < err.index("error:")


class TestServeCommand:
    def test_rejects_zero_workers(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
