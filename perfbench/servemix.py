"""serve-mix: ``repro-scan serve --workers 1`` driven over HTTP, open loop.

Set-up boots the server in a subprocess, waits for ``/healthz`` and warms
the jobs of two scenarios in both of their configs, so every later write
can flip a scenario between configs whose jobs are done.

The rate phase offers a fixed ladder of Poisson rates of cached
report GETs (json and text), ``/stats``, deduplicated ``POST /jobs`` and
scenario ``PUT``s.  Each scenario's requests share one lane (connection),
so the generator knows which config every report it reads belongs to; a
``PUT`` drops the scenario's cached payload and the next read re-derives
it through the queue's dedup.  The cold phase then times new scenarios
(new world seeds) from ``PUT`` until their report returns 200, and the
rereport phase times an ``analyze`` job over each of their stored captures.

Every report body is compared with the report rendered in-process for
that config, by a fresh interpreter over the server's own captures
(``python3 servemix.py expect``).
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import HERE, ROOT, cpu_seconds, declared, digest, median, peak_rss_mb, python
from layers import ATTRIBUTED_MIN, GLUE, layer_metrics
from loadgen import Outcome, Request, StepStats, account, meets, poisson_times, run_open_loop

LANES = 2                       # connections: at most nproc on the reference machine
SCENARIOS = (("bench-a", "s0"), ("bench-b", "s1"))
WARM_YEARS = (2017, 2022)       # each scenario flips between these configs
COLD_YEAR = 2019
#: Worlds are fixed, like cold-report's: their cost and report sizes vary
#: with the realisation, which would spread every number from seed to seed.
#: ``--seed`` drives the request schedule.  Cold scenarios use world seeds
#: COLD_SEED_BASE + i: fresh to the server, which starts empty every run.
WORLD_SEEDS = (101, 102, 103, 104)
COLD_SEED_BASE = 1001
SPEC = {"days": 2, "max_packets": 40_000, "min_scans": 150}
COLD_SPEC = {"days": 1, "max_packets": 20_000, "min_scans": 100}
#: The reference rate keeps the server well below saturation, so its read
#: latency reflects service time rather than queueing noise.
REFERENCE_RPS = 100
LADDER = ((REFERENCE_RPS, 0.4), (200, 0.1), (300, 0.1), (400, 0.1))  # (rate, share of --seconds)
COLD_SHARE = 0.3
#: The ladder, the mix and the limit are assumed, not measured from real
#: traffic; README.md gives the reason for each share.
P99_LIMIT_MS = 50.0
MIX = (("json", 0.55), ("text", 0.20), ("stats", 0.10), ("post", 0.10), ("put", 0.05))


def label(cfg: Dict[str, int]) -> str:
    return "{year}-{days}d-{max_packets}-{min_scans}-s{seed}".format(**cfg)


def http_call(port: int, method: str, path: str, body: Optional[bytes] = None,
              timeout: float = 30.0) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except http.client.HTTPException as exc:
        raise OSError(f"{type(exc).__name__}: {exc}") from exc
    finally:
        conn.close()


class Server:
    """One server process with its own state and capture directories."""

    def __init__(self, workdir: Path, env: Dict[str, str], spans: Optional[Path] = None):
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.cache_dir = workdir / "captures"
        serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "1",
                 "--state-dir", str(workdir / "state"), "--cache-dir", str(self.cache_dir)]
        cmd = ([python(), str(HERE / "serve_launcher.py"), "--spans", str(spans), "--", *serve]
               if spans is not None else [python(), "-m", "repro.cli", *serve])
        self.log = workdir / "server.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=log,
                                         env=env, cwd=ROOT)
        self.port = self._wait_port()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            found = re.search(r"listening on http://[^:]+:(\d+)", self.log.read_text())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start: {self.log.read_text()[-2000:]}")

    def call(self, method: str, path: str, body: Any = None, timeout: float = 30.0) -> Tuple[int, bytes]:
        blob = json.dumps(body).encode() if body is not None else None
        return http_call(self.port, method, path, blob, timeout)

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.call("GET", "/healthz", timeout=2.0)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server never became healthy")

    def report(self, tenant: str, name: str, fmt: str = "json", timeout: float = 60.0) -> bytes:
        """GET a scenario report, waiting through 202s; raises unless 200."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = self.call("GET", f"/scenarios/{tenant}/{name}/report?format={fmt}&wait=30")
            if status == 200:
                return body
            if status != 202:
                raise RuntimeError(f"report {tenant}/{name}: HTTP {status}: {body[:200]!r}")
        raise RuntimeError(f"report {tenant}/{name} not ready in {timeout} s")

    def put(self, tenant: str, name: str, cfg: Dict[str, int]) -> None:
        status, body = self.call("PUT", f"/scenarios/{tenant}/{name}", cfg)
        if status != 200:
            raise RuntimeError(f"PUT {tenant}/{name}: HTTP {status}: {body[:200]!r}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


class ServeMix:
    def __init__(self, work: Path, env: Dict[str, str], seed: int, seconds: float):
        self.work = work
        self.env = env
        self.seconds = seconds
        self.rng = random.Random(seed)
        seeds = iter(WORLD_SEEDS)
        self.configs = {
            scn: [dict(SPEC, year=year, seed=next(seeds)) for year in WARM_YEARS]
            for scn in SCENARIOS
        }
        self.expect_keys: Dict[str, Dict[str, int]] = {}
        for cfgs in self.configs.values():
            for cfg in cfgs:
                self.expect_keys[label(cfg)] = cfg
        self.outcomes: List[Outcome] = []
        self.cold_configs: List[Dict[str, int]] = []

    # -- set-up ---------------------------------------------------------------

    def boot(self, name: str, spans: Optional[Path] = None) -> Server:
        """Boot to ``/healthz`` and warm every scenario's jobs (set-up)."""
        server = Server(self.work / name, self.env, spans)
        try:
            server.wait_healthy()
            for scn, cfgs in self.configs.items():
                for cfg in cfgs:  # ends on the last config
                    server.put(*scn, cfg)
                    server.report(*scn)
            first = self.configs[SCENARIOS[0]][0]
            status, body = server.call("POST", "/jobs", dict(first, kind="stream-report"))
            if status != 200:
                raise RuntimeError(f"dedup POST /jobs: HTTP {status}: {body[:200]!r}")
        except BaseException:
            server.stop()
            raise
        return server

    # -- rate phase -----------------------------------------------------------

    def schedule(self, steps: List[Tuple[float, float, float]]) -> List[List[Request]]:
        lanes: List[List[Request]] = [[] for _ in range(LANES)]
        state = {scn: len(cfgs) - 1 for scn, cfgs in self.configs.items()}
        for rate, begin, end in steps:
            for due in poisson_times(self.rng, rate, begin, end):
                lane = self.rng.randrange(LANES)
                scn = SCENARIOS[lane]
                tenant, name = scn
                cfg = self.configs[scn][state[scn]]
                pick, acc = self.rng.random(), 0.0
                for kind, share in MIX:
                    acc += share
                    if pick < acc:
                        break
                if kind in ("json", "text"):
                    req = Request(due, "GET", f"/scenarios/{tenant}/{name}/report?format={kind}",
                                  "read", key=(label(cfg), kind))
                elif kind == "stats":
                    req = Request(due, "GET", "/stats", "read", key=("stats",))
                elif kind == "post":
                    req = Request(due, "POST", "/jobs", "write",
                                  json.dumps(dict(cfg, kind="stream-report")).encode())
                else:
                    state[scn] = 1 - state[scn]
                    req = Request(due, "PUT", f"/scenarios/{tenant}/{name}", "write",
                                  json.dumps(self.configs[scn][state[scn]]).encode())
                lanes[lane].append(req)
        return lanes

    def rate_phase(self, server: Server, ladder) -> Tuple[List[StepStats], float]:
        steps, t = [], 0.5  # the first request is due half a second in
        for rate, share in ladder:
            steps.append((rate, t, t + share * self.seconds))
            t += share * self.seconds
        lanes = self.schedule(steps)

        def send(req: Request) -> Tuple[int, bytes]:
            status, body = http_call(server.port, req.method, req.path, req.body, timeout=10.0)
            if req.key is not None and req.key[0] != "stats":
                body = digest(body.decode("utf-8")).encode()
            return status, body

        cpu0 = cpu_seconds(server.proc.pid)
        outcomes = run_open_loop(lanes, send)
        cpu_ms = (cpu_seconds(server.proc.pid) - cpu0) * 1000.0
        self.outcomes.extend(outcomes)
        stats = []
        for rate, begin, end in steps:
            step = account(outcomes, rate, begin, end)
            depths = [json.loads(o.body)["queue_depth"] for o in outcomes
                      if begin <= o.request.due < end and o.request.key == ("stats",) and o.ok]
            step.extra["queue_depth_max"] = max(depths, default=0)
            stats.append(step)
        return stats, cpu_ms / max(1, len(outcomes))

    # -- cold phase -----------------------------------------------------------

    def cold_phase(self, server: Server, budget: float, minimum: int, maximum: int,
                   replay: Sequence[Dict[str, int]] = ()) -> List[float]:
        """Time new scenarios from ``PUT`` until their report returns 200.

        Each gets the next world seed, unless ``replay`` lists the configs
        to run again: on another server, whose empty cache makes them new
        there too.
        """
        if replay:
            minimum = maximum = len(replay)
        times: List[float] = []
        start = time.perf_counter()
        while len(times) < maximum and (len(times) < minimum or time.perf_counter() - start < budget):
            if replay:
                cfg = replay[len(times)]
            else:
                cfg = dict(COLD_SPEC, year=COLD_YEAR, seed=COLD_SEED_BASE + len(self.cold_configs))
                self.cold_configs.append(cfg)
                self.expect_keys[label(cfg)] = cfg
            name = f"c{len(times)}"
            began = time.perf_counter()
            server.put("bench-cold", name, cfg)
            body = server.report("bench-cold", name)
            elapsed = time.perf_counter() - began
            times.append(elapsed)
            req = Request(0.0, "GET", f"/scenarios/bench-cold/{name}/report", "read",
                          key=(label(cfg), "json"))
            self.outcomes.append(Outcome(req, 0.0, elapsed, 200, digest(body.decode()).encode()))
        return times

    def rereport_phase(self, server: Server, configs: List[Dict[str, int]]) -> List[float]:
        """Batch ``analyze`` jobs over captures the cold phase stored.

        The same report again, from the capture cache instead of the
        simulator: ``POST /jobs`` until the job record is done.  Each job
        is new (a new kind for a known capture), so it runs in the pool
        worker; its report text must equal the in-process streaming render.
        """
        times: List[float] = []
        for cfg in configs:
            began = time.perf_counter()
            status, body = server.call("POST", "/jobs", dict(cfg, kind="analyze"))
            job = json.loads(body)["job"]
            while status == 202:
                status, body = server.call("GET", f"/jobs/{job['job_id']}?wait=30")
                job = json.loads(body)["job"]
            times.append(time.perf_counter() - began)
            done = status == 200 and job["status"] == "done" and job["result"]["capture"]["cache_hit"]
            text = job["result"]["report_text"] + "\n" if done else ""
            req = Request(0.0, "POST", "/jobs", "write", key=(label(cfg), "text"))
            self.outcomes.append(Outcome(req, 0.0, times[-1], 200 if done else 500,
                                         digest(text).encode()))
        return times

    # -- output check ---------------------------------------------------------

    def check(self, cache_dirs: List[Path]) -> Tuple[int, int]:
        """(attempted, failed) over every outcome, bodies against in-process renders."""
        spec_file = self.work / "expect.json"
        spec_file.write_text(json.dumps({
            "cache_dirs": [str(d) for d in cache_dirs],
            "configs": self.expect_keys,
        }))
        done = subprocess.run([python(), str(HERE / "servemix.py"), "expect", str(spec_file)],
                              env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"expect failed: {done.stderr[-2000:]}")
        answer = json.loads(done.stdout.strip().splitlines()[-1])
        self.import_s = answer["import_s"]
        return len(self.outcomes), count_failures(self.outcomes, answer["reports"])


def count_failures(outcomes: List[Outcome], expected: Dict[str, Dict[str, str]]) -> int:
    """Outcomes that failed, or whose report digest differs from the
    in-process rendering of the same config and format."""
    failed = 0
    for outcome in outcomes:
        key = outcome.request.key
        ok = outcome.ok
        if ok and key is not None and key[0] != "stats":
            ok = outcome.body.decode() == expected[key[0]][key[1]]
        failed += 0 if ok else 1
    return failed


def expect_main(spec_file: str) -> int:
    """Render each config's report in-process, from the server's captures."""
    began = time.perf_counter()
    import repro.cli  # noqa: F401 - timed as cli.import_s

    import_s = time.perf_counter() - began
    from repro.exec.cache import CaptureCache
    from repro.reporting import render_paper_report, render_paper_report_json
    from repro.simulation import TelescopeWorld
    from repro.stream import stream_report

    spec = json.loads(Path(spec_file).read_text())
    out = {}
    for name, cfg in spec["configs"].items():
        world = TelescopeWorld(rng=cfg["seed"])
        path = None
        for cache_dir in spec["cache_dirs"]:
            cache = CaptureCache(cache_dir)
            key = cache.key_for(world, cfg["year"], days=cfg["days"],
                                max_packets=cfg["max_packets"], min_scans=cfg["min_scans"])
            if cache.path_for(key).exists():
                path = cache.path_for(key)
                break
        if path is None:
            raise SystemExit(f"no capture for {name}")
        report = stream_report(str(path), year=cfg["year"], days=cfg["days"]).report
        out[name] = {"text": digest(render_paper_report(report) + "\n"),
                     "json": digest(render_paper_report_json(report) + "\n")}
    print(json.dumps({"import_s": import_s, "reports": out}))
    return 0


def run(work: Path, env: Dict[str, str], seed: int, seconds: float, trace: bool,
        setup_reps: int) -> Dict[str, Any]:
    mix = ServeMix(work, env, seed, seconds)
    setup_s: List[float] = []
    server: Optional[Server] = None
    try:
        for rep in range(setup_reps):
            if server is not None:
                server.stop()
            began = time.perf_counter()
            server = mix.boot(f"serve-{rep}")
            setup_s.append(time.perf_counter() - began)
        if not trace:
            steps, cpu_ms = mix.rate_phase(server, LADDER)
            cold = mix.cold_phase(server, COLD_SHARE * seconds, 3, 12)
            again = mix.rereport_phase(server, mix.cold_configs)
            rss = peak_rss_mb(str(server.proc.pid))
        else:
            probe = ((REFERENCE_RPS, 0.25),)
            mix.rate_phase(server, probe)
            cold = mix.cold_phase(server, 0.0, 2, 2)
    finally:
        if server is not None:
            server.stop()
    dirs = [server.cache_dir]
    if not trace:
        attempted, failed = mix.check(dirs)
        ref = next(s for s in steps if s.rate == REFERENCE_RPS)
        sustained = max((s.rate for s in steps if meets(s, P99_LIMIT_MS, LANES)), default=0)
        return {
            "attempted": attempted, "failed": failed,
            "metrics": {"setup_s": median(setup_s), "peak_rss_mb": rss,
                        "report_s": median(cold), "rereport_s": median(again)},
            "summary": summary(steps, ref, sustained, cold, cpu_ms, again),
        }

    # Traced run: the same probe and the same cold worlds on a traced
    # server, with recording on only while they run.
    spans_file = work / "spans.json"
    traced = mix.boot("serve-traced", spans_file)
    try:
        stats0 = json.loads(traced.call("GET", "/stats")[1])
        traced.proc.send_signal(signal.SIGUSR1)
        t_steps, cpu_ms = mix.rate_phase(traced, probe)
        t_cold = mix.cold_phase(traced, 0.0, 0, 0, replay=mix.cold_configs)
        mix.rereport_phase(traced, mix.cold_configs)
        stats1 = json.loads(traced.call("GET", "/stats")[1])
    finally:
        traced.stop()
    dirs.append(traced.cache_dir)
    attempted, failed = mix.check(dirs)
    layers, shipped = traced_layers(spans_file, t_steps[0], cold, t_cold, stats0, stats1, cpu_ms)
    layers["cli.import_s"] = mix.import_s
    # Every job the traced server ran shipped its worker's spans back, and
    # layer spans account for the traced wall time.
    checks = [shipped, layers["bench.attributed_share"] >= ATTRIBUTED_MIN]
    return {"attempted": attempted + len(checks), "failed": failed + checks.count(False),
            "layers": layers}


def traced_layers(spans_file: Path, traced: StepStats, cold: List[float],
                  t_cold: List[float], stats0: Dict[str, Any], stats1: Dict[str, Any],
                  cpu_ms: float) -> Tuple[Dict[str, float], bool]:
    """Per-layer metrics of the traced server, and whether every job it
    completed while recording shipped its spans back."""
    from tracing import attributed_share, summarise

    data = json.loads(spans_file.read_text())
    spans = [tuple(s) for s in data["spans"]]
    counts = data["counts"]
    summ = summarise(spans)
    c0, c1 = stats0["counters"], stats1["counters"]
    submissions = c1["submissions"] - c0["submissions"]
    served = counts.get("serve.scenarios.reports_served", 0.0)
    derived = summ.get("serve.scenarios.cache_derived", {}).get("calls", 0.0)
    jobs = summ.get("serve.jobs.execute_job", {}).get("calls", 0.0)
    extra = {
        "serve.queue.dedup_ratio": (c1["dedup_hits"] - c0["dedup_hits"]) / submissions if submissions else 0.0,
        "serve.scenarios.derived_hit_ratio": (served - derived) / served if served else 0.0,
        "serve.queue_depth.max": traced.extra["queue_depth_max"],
        "serve.server_cpu_ms_per_request": cpu_ms,
        "bench.generator_lateness_ms.p50": traced.lateness_p50_ms,
        "bench.generator_lateness_ms.max": traced.lateness_max_ms,
        "bench.trace_overhead_s": median(t_cold) - median(cold),
        "bench.trace_overhead_share": median(t_cold) / median(cold) - 1.0,
        "bench.attributed_share": attributed_share(spans, GLUE),
    }
    names = [m["name"] for m in declared("per_layer")]
    shipped = jobs > 0 and jobs == c1["completed"] - c0["completed"]
    return layer_metrics(names, summ, counts, 1, extra), shipped


def summary(steps: List[StepStats], ref: StepStats, sustained: float, cold: List[float],
            cpu_ms: float, again: List[float]) -> List[Tuple[str, float, str, str]]:
    rows = [
        ("serve_stored_report_s", median(again), "s",
         f"median of {len(again)} analyze jobs over stored captures"),
        ("serve_read_p50_ms", ref.read_p50_ms, "ms", f"{ref.reads} GETs at {ref.rate:g} req/s"),
        ("serve_read_p99_ms", ref.read_p99_ms, "ms", f"{ref.reads} GETs at {ref.rate:g} req/s"),
        ("serve_write_p50_ms", ref.write_p50_ms, "ms", f"{ref.writes} POST/PUT at {ref.rate:g} req/s"),
        ("serve_write_p99_ms", ref.write_p99_ms, "ms", f"{ref.writes} POST/PUT at {ref.rate:g} req/s"),
        ("serve_sustained_rps", float(sustained), "req/s",
         f"read p99 <= {P99_LIMIT_MS:g} ms, no failures, backlog <= {LANES}"),
        ("serve_cold_report_s", median(cold), "s", f"median of {len(cold)} new scenarios"),
        ("serve_cpu_ms_per_request", cpu_ms, "ms", "server process"),
    ]
    for s in steps:
        rows.append((f"step_{s.rate:g}_read_p99_ms", s.read_p99_ms, "ms",
                     f"p50 {s.read_p50_ms:.2f} ms, {s.requests} req, {s.failed} failed, "
                     f"lateness p50 {s.lateness_p50_ms:.2f} "
                     f"max {s.lateness_max_ms:.1f} ms, backlog {s.backlog_start}->{s.backlog_end}"))
    return rows


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "expect":
        sys.exit(expect_main(sys.argv[2]))
    print("usage: servemix.py expect SPEC.json", file=sys.stderr)
    sys.exit(2)
