"""Tests of the benchmark's own arithmetic (no program run needed).

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import declared, digest  # noqa: E402
from layers import GLUE, MOVES  # noqa: E402
from loadgen import Outcome, Request, account, meets, run_open_loop  # noqa: E402
from servemix import count_failures  # noqa: E402
from tracing import (  # noqa: E402
    Recorder, attributed_share, self_times, summarise, take_shipped, worker_entry, wrap)
from workloads import TraceReplay  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_back_to_back_children(self):
        spans = [
            ("root", 0.0, 10.0, -1, 0),
            ("a", 1.0, 3.0, 0, 0),       # back to back with b
            ("b", 3.0, 6.0, 0, 0),
            ("a.inner", 1.5, 2.5, 1, 0),  # nested in a
        ]
        self.assertEqual(self_times(spans), [5.0, 1.0, 3.0, 1.0])
        # One thread's tree: self times add up to the root's wall time.
        self.assertAlmostEqual(sum(self_times(spans)), 10.0)

    def test_overlapping_children_are_subtracted_once(self):
        spans = [
            ("root", 0.0, 10.0, -1, 0),
            ("t1", 2.0, 6.0, 0, 0),       # concurrent children (two threads)
            ("t2", 4.0, 8.0, 0, 0),
            ("late", 9.0, 12.0, 0, 0),    # clipped to the parent
        ]
        self.assertAlmostEqual(self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_busy_counts_outermost_span_of_a_name(self):
        spans = [("f", 0.0, 4.0, -1, 0), ("f", 1.0, 2.0, 0, 0), ("g", 2.0, 3.0, 0, 0)]
        row = summarise(spans)["f"]
        self.assertEqual(row["calls"], 2)
        self.assertAlmostEqual(row["busy_s"], 4.0)
        self.assertAlmostEqual(row["self_s"], 2.0 + 1.0)

    def test_wrapped_calls_link_parents(self):
        rec = Recorder()
        inner = wrap(rec, lambda x: x + 1, "inner")
        outer = wrap(rec, lambda x: inner(x) * 2, "outer")

        def numbers():
            yield from (1, 2)
        gen = wrap(rec, numbers, "gen")
        self.assertEqual(outer(1), 4)  # disabled: no spans
        self.assertEqual(rec.spans(), [])
        rec.enabled = True
        outer(1)
        self.assertEqual(list(gen()), [1, 2])
        names = [(s[0], s[3]) for s in rec.spans()]
        # one span per generator resumption, the last one ending the generator
        self.assertEqual(names, [("outer", -1), ("inner", 0),
                                 ("gen", -1), ("gen", -1), ("gen", -1)])


class WorkerSpansTest(unittest.TestCase):
    def test_each_worker_task_ships_its_own_spans(self):
        rec = Recorder()
        task = worker_entry(rec, wrap(rec, lambda: {"n": 1}, "layer"), "shard")
        self.assertEqual(task(), {"n": 1})  # forked while not recording
        rec.enabled = True  # forked while recording: every task is traced
        results = [task(), task()]
        shipped = [take_shipped(r) for r in results]
        self.assertEqual(results, [{"n": 1}, {"n": 1}])
        self.assertEqual([[(s[0], s[3]) for s in spans] for spans, _ in shipped],
                         [[("shard", -1), ("layer", 0)]] * 2)

    def test_lost_worker_spans_lower_the_attributed_share(self):
        unit = ("bench.unit", 0.0, 10.0, -1, 0)
        engine = ("stream.sharded.run", 1.0, 9.0, 0, 0)
        lost = [unit, engine]
        self.assertAlmostEqual(attributed_share(lost, GLUE), 0.0)
        rec = Recorder()
        rec.absorb(lost, {})
        # Two workers' roots, overlapping in time, each with a layer child.
        worker = [("stream.sharded.shard", 1.5, 8.5, -1, 0), ("layer", 2.0, 8.0, 0, 0)]
        rec.absorb(worker, {}, parent=1)
        rec.absorb(worker, {}, parent=1)
        spans = rec.spans()
        self.assertEqual([s[3] for s in spans], [-1, 0, 1, 2, 1, 4])
        self.assertAlmostEqual(attributed_share(spans, GLUE), 1.0 - 3.0 / 10.0)


class DeclaredMetricsTest(unittest.TestCase):
    def test_every_per_layer_metric_names_what_it_moves(self):
        self.assertEqual(sorted(m["name"] for m in declared("per_layer")), sorted(MOVES))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class OpenLoopTest(unittest.TestCase):
    def test_stall_is_charged_to_requests_queued_behind_it(self):
        clock = FakeClock()
        lane = [Request(due=0.01 * i, method="GET", path="/", kind="read") for i in range(4)]

        def send(req):
            clock.now += 0.5 if req.due == 0.0 else 0.001
            return 200, b""

        out = run_open_loop([lane], send, clock=clock, sleep=clock.sleep)
        self.assertEqual([round(o.lateness, 3) for o in out], [0.0, 0.49, 0.481, 0.472])
        # Latency runs from the due time: a closed loop would report 1 ms.
        self.assertEqual([round(o.latency, 3) for o in out], [0.5, 0.491, 0.482, 0.473])
        step = account(out, rate=100.0, begin=0.0, end=0.04)
        self.assertEqual(step.backlog_end, 4)
        self.assertGreater(step.read_p50_ms, 480.0)
        self.assertFalse(meets(step, p99_limit_ms=50.0, lanes=1))

    def test_failed_request_misses_the_latency_limit(self):
        req = Request(due=0.0, method="GET", path="/", kind="read")
        out = [Outcome(req, 0.0, 0.001, 503)]
        step = account(out, rate=1.0, begin=0.0, end=1.0)
        self.assertEqual(step.failed, 1)
        self.assertEqual(step.read_p99_ms, float("inf"))


class OutputCheckTest(unittest.TestCase):
    def test_one_byte_report_difference_is_a_failure(self):
        report = '{"year": 2020}\n'
        expected = {"cfg": {"json": digest(report), "text": digest("x")}}
        req = Request(0.0, "GET", "/scenarios/t/n/report", "read", key=("cfg", "json"))
        good = Outcome(req, 0.0, 0.001, 200, digest(report).encode())
        bad = Outcome(req, 0.0, 0.001, 200, digest(report.replace("0}", "1}")).encode())
        self.assertEqual(count_failures([good], expected), 0)
        self.assertEqual(count_failures([good, bad], expected), 1)

    def test_replay_paths_must_agree_byte_for_byte(self):
        replay = TraceReplay(Path("unused"), seed=1)
        replay.captures = lambda: [(Path("a.rtrace"), 2020, 14)]
        replay._batch = lambda path, year, days: ("report\n", "{}")
        replay._stream = lambda path, shards: ("report\n", "{}" if shards == 1 else "{ }")
        replay.unit(0)
        self.assertEqual((replay.attempted, replay.failures), (3, 1))


if __name__ == "__main__":
    unittest.main()
