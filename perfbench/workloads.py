"""The in-process workloads: cold-report, trace-replay and lint-tree.

Each workload runs in a fresh interpreter started by ``run.py``.  Its
``setup`` is what a user pays before the first result (timed as
``setup_s`` by the parent); ``unit`` is one measured repetition, returning
``{"report_s": ..., "rereport_s": ...}`` plus whatever the summary prints;
``failures`` counts outputs that differed from their reference.

The program is always reached through module attributes looked up at call
time (``pipeline.analyze_period``), so a traced run sees the wrapped entry
points.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import ROOT, SRC, median

#: cold-report: calibrated periods across the decade, parameters to reports.
#: The world seed is part of the fixed set: the simulator's cost depends on
#: the realisation (heavy-tailed port-set sizes), so a seed-derived world
#: would spread a 5-period pass by ~20% across seeds.  ``--seed`` orders
#: the periods instead.
COLD_YEARS = (2015, 2020, 2024)
COLD_DAYS = 7
COLD_MAX_PACKETS = 100_000
COLD_MIN_SCANS = 300
COLD_WORLD_SEED = 7

#: trace-replay: a large late capture and a small campaign-heavy early one.
REPLAY_CAPTURES = ((2024, 30, 1_000_000), (2016, 30, 300_000))
REPLAY_WORLD_SEED = 7
REPLAY_SHARDS = 2

LINT_WARM_REPEATS = 2


class ColdReport:
    """Calibrated periods from parameters to rendered text and JSON."""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.order = list(COLD_YEARS)
        random.Random(seed).shuffle(self.order)
        self.reference: Dict[int, Tuple[str, str]] = {}
        self.attempted = 0
        self.failures = 0
        self.packets = 0

    def setup(self) -> None:
        """World and registry (the package import is the child's)."""
        from repro.simulation import TelescopeWorld

        TelescopeWorld(rng=COLD_WORLD_SEED)

    def open(self) -> None:
        """Set up, then one tiny untimed period through the same path, so
        lazy set-up is not charged to the first measured unit."""
        from repro.exec.cache import CaptureCache
        from repro.simulation import TelescopeWorld

        self.setup()
        cache_dir = self.workdir / "warm-up"
        for _ in range(2):  # a store, then a load
            sims = TelescopeWorld(rng=COLD_WORLD_SEED).simulate_years(
                [COLD_YEARS[0]], days=1, max_packets=5_000, min_scans=20,
                cache=CaptureCache(cache_dir))
            self._reports(sims, [COLD_YEARS[0]], 1)
        shutil.rmtree(cache_dir)

    def _reports(self, sims: Dict[int, Any], years: List[int],
                 days: int = COLD_DAYS) -> Dict[int, Tuple[str, str]]:
        from repro.core import pipeline, report
        from repro import reporting
        from repro.enrichment.classify import ScannerClassifier

        out = {}
        for year in years:
            sim = sims[year]
            analysis = pipeline.analyze_period(
                sim.batch, year=year, days=days,
                classifier=ScannerClassifier(sim.registry))
            paper = report.paper_report(analysis)
            out[year] = (reporting.render_paper_report(paper),
                         reporting.render_paper_report_json(paper))
        return out

    def _simulate(self, cache_dir: Path) -> Dict[int, Any]:
        from repro.exec.cache import CaptureCache
        from repro.simulation import TelescopeWorld

        world = TelescopeWorld(rng=COLD_WORLD_SEED)
        return world.simulate_years(
            self.order, days=COLD_DAYS, max_packets=COLD_MAX_PACKETS,
            min_scans=COLD_MIN_SCANS, workers=0, cache=CaptureCache(cache_dir))

    def unit(self, index: int) -> Dict[str, float]:
        cache_dir = self.workdir / f"captures-{index}"
        start = time.perf_counter()
        sims = self._simulate(cache_dir)
        fresh = self._reports(sims, self.order)
        cold = time.perf_counter() - start
        if any(sim.cache_hit for sim in sims.values()):
            raise RuntimeError("cold pass hit a capture cache entry")
        self.packets = sum(len(sim.batch) for sim in sims.values())
        del sims
        start = time.perf_counter()
        stored = self._reports(self._simulate(cache_dir), self.order)
        warm = time.perf_counter() - start
        shutil.rmtree(cache_dir)
        # Each stored capture, read back, must report exactly like the
        # in-memory batch; every pass must report like the first.
        if not self.reference:
            self.reference = fresh
        for year in self.order:
            for got in (fresh[year], stored[year]):
                self.attempted += 1
                if got != self.reference[year]:
                    self.failures += 1
        return {"report_s": cold, "rereport_s": warm}

    def summary(self, e2e: Dict[str, float]) -> List[Tuple[str, float, str, str]]:
        return [
            ("cold_report_s", e2e["report_s"], "s",
             f"{len(COLD_YEARS)} periods of {COLD_DAYS} d, {self.packets} packets"),
            ("stored_report_s", e2e["rereport_s"], "s", "same periods from the capture cache"),
        ]


class TraceReplay:
    """Batch, serial-stream and 2-shard reports over existing captures."""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.reference: Dict[str, Tuple[str, str]] = {}
        self.attempted = 0
        self.failures = 0
        self.packets: Dict[str, int] = {}
        self.path_s: Dict[str, List[float]] = {"batch": [], "stream": [], "sharded": []}
        self.stream_stats: List[Any] = []

    def captures(self) -> List[Tuple[Path, int, int]]:
        return [(self.workdir / f"replay-{year}-{days}d.rtrace", year, days)
                for year, days, _ in REPLAY_CAPTURES]

    def setup(self) -> None:
        """Materialise the captures exactly as ``repro-scan simulate`` does."""
        from repro import cli

        for (path, year, days), (_, _, max_packets) in zip(self.captures(), REPLAY_CAPTURES):
            argv = ["simulate", "--year", str(year), "--days", str(days),
                    "--max-packets", str(max_packets),
                    "--seed", str(REPLAY_WORLD_SEED), "--out", str(path)]
            with contextlib.redirect_stdout(sys.stderr):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"simulate {argv} failed")

    def open(self) -> None:
        # One untimed pass over the small capture finishes lazy set-up (the
        # first streaming pass of a process is ~30% slower than later ones).
        path, _, _ = self.captures()[-1]
        self._stream(path, 1)
        self._stream(path, REPLAY_SHARDS)
        self.stream_stats.clear()

    def _batch(self, path: Path, year: int, days: int) -> Tuple[str, str]:
        from repro import reporting, stream
        from repro.core import pipeline, report
        from repro.enrichment import ScannerClassifier, build_default_registry
        from repro.telescope.packet import PacketBatch

        source = stream.TraceStreamSource(path)
        batch = PacketBatch.concat(list(source.windows()))
        analysis = pipeline.analyze_period(
            batch, year=year, days=days,
            classifier=ScannerClassifier(build_default_registry()))
        paper = report.paper_report(analysis)
        self.packets[path.name] = len(batch)
        return reporting.render_paper_report(paper), reporting.render_paper_report_json(paper)

    def _stream(self, path: Path, shards: int) -> Tuple[str, str]:
        from repro import reporting, stream

        result = stream.stream_report(path, n_shards=shards,
                                      workers=shards if shards > 1 else 0)
        self.stream_stats.append(result.stats)
        return (reporting.render_paper_report(result.report),
                reporting.render_paper_report_json(result.report))

    def unit(self, index: int) -> Dict[str, float]:
        spent = {"batch": 0.0, "stream": 0.0, "sharded": 0.0}
        for path, year, days in self.captures():
            paths = [("batch", lambda: self._batch(path, year, days)),
                     ("stream", lambda: self._stream(path, 1)),
                     ("sharded", lambda: self._stream(path, REPLAY_SHARDS))]
            self.rng.shuffle(paths)
            outputs = {}
            for name, run in paths:
                start = time.perf_counter()
                outputs[name] = run()
                spent[name] += time.perf_counter() - start
            ref = self.reference.setdefault(path.name, outputs["batch"])
            for name, got in outputs.items():
                self.attempted += 1
                if got != ref:
                    self.failures += 1
        for name, value in spent.items():
            self.path_s[name].append(value)
        return {"report_s": spent["batch"], "rereport_s": spent["stream"] + spent["sharded"]}

    def stream_extra(self) -> Dict[str, float]:
        stats = self.stream_stats
        if not stats:
            return {}
        n = len(stats)
        return {
            "stream.windows": sum(s.windows for s in stats) / n,
            "stream.peak_open_session_bytes": max(s.peak_open_session_bytes for s in stats),
            "stream.analysis_state_bytes": max(s.analysis_state_bytes for s in stats),
            "stream.sessions_discarded": sum(s.sessions_discarded for s in stats) / n,
        }

    def summary(self, e2e: Dict[str, float]) -> List[Tuple[str, float, str, str]]:
        total = sum(self.packets.values())
        note = f"{total} packets over {len(self.packets)} captures"
        return [
            ("batch_report_pps", total / median(self.path_s["batch"]), "packets/s", note),
            ("stream_report_pps", total / median(self.path_s["stream"]), "packets/s", note),
            ("sharded_report_pps", total / median(self.path_s["sharded"]), "packets/s",
             f"{REPLAY_SHARDS} shards, {REPLAY_SHARDS} workers"),
        ]


class LintTree:
    """``lint_repository`` over ``src/repro``, cold then warm summary cache."""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failures = 0
        self.files = 0

    def setup(self) -> None:
        from repro.lint.config import load_config

        self.config = load_config(ROOT / "pyproject.toml")

    def open(self) -> None:
        """Set up, then lint one small module untimed: the first lint of a
        process pays lazy rule set-up that no later lint pays."""
        from repro.lint import project

        self.setup()
        project.lint_repository(self.config, paths=[SRC / "repro" / "_util" / "fmt.py"],
                                use_cache=False)

    def _lint(self, cache_dir: Path) -> Tuple[List[Any], Any]:
        from repro.lint import project

        diagnostics, _, stats = project.lint_repository(
            self.config, paths=[SRC / "repro"], workers=0, cache_dir=cache_dir)
        return [repr(d) for d in diagnostics], stats

    def unit(self, index: int) -> Dict[str, float]:
        cache_dir = self.workdir / f"lint-cache-{index}"
        start = time.perf_counter()
        cold, cold_stats = self._lint(cache_dir)
        cold_s = time.perf_counter() - start
        self.files = cold_stats.files
        checks = [cold == [], cold_stats.cache_hits == 0]
        # Two warm lints per cold one: the warm median rests on six samples.
        warm_s = []
        for _ in range(LINT_WARM_REPEATS):
            start = time.perf_counter()
            warm, warm_stats = self._lint(cache_dir)
            warm_s.append(time.perf_counter() - start)
            checks += [warm == cold, warm_stats.cache_hits == warm_stats.files]
        shutil.rmtree(cache_dir)
        # Zero findings, identical cold and warm results, and warm runs
        # that really were served from the summary cache.
        self.attempted += len(checks)
        self.failures += checks.count(False)
        return {"report_s": cold_s, "rereport_s": median(warm_s)}

    def summary(self, e2e: Dict[str, float]) -> List[Tuple[str, float, str, str]]:
        return [
            ("lint_cold_s", e2e["report_s"], "s", f"{self.files} files"),
            ("lint_warm_s", e2e["rereport_s"], "s", "warm summary cache"),
        ]


IN_PROCESS = {"cold-report": ColdReport, "trace-replay": TraceReplay, "lint-tree": LintTree}
