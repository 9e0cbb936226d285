"""Self-tests of the benchmark's own statistics (swvebench/stats.py) and
of how run.py applies them.

    python3 -m unittest discover -s swvebench/tests
"""

import math
import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402
import stats  # noqa: E402


class TailPercentileRule(unittest.TestCase):
    def test_beyond_count_matches_the_samples(self):
        rng = random.Random(7)
        for n in (20, 57, 99, 100, 101, 950, 1000, 2077):
            xs = [rng.random() for _ in range(n)]
            for p in (99.9, 99.0, 90.0, 80.0, 75.0, 50.0):
                value = stats.percentile(xs, p)
                above = sum(1 for x in xs if x > value)
                self.assertEqual(above, stats.samples_beyond(n, p), (n, p))

    def test_tail_needs_ten_beyond(self):
        xs = list(range(1000))
        self.assertEqual(stats.tail_percentile(xs, 99.0), stats.percentile(xs, 99.0))
        self.assertEqual(stats.tail_percentile(xs[:902], 99.0),
                         stats.percentile(xs[:902], 99.0))
        with self.assertRaises(ValueError):
            stats.tail_percentile(xs[:901], 99.0)
        self.assertEqual(stats.tail_percentile(xs[:47], 80.0),
                         stats.percentile(xs[:47], 80.0))
        with self.assertRaises(ValueError):
            stats.tail_percentile(xs[:46], 80.0)

    def test_run_refuses_a_tail_with_too_few_samples_beyond(self):
        def raw(n):
            return {"workload": "batch", "setup_s": 0.5, "peak_rss_mb": 10.0,
                    "phases": [{"traced": 0, "wall_s": 1.0, "ops": n,
                                "useful_cells": 10**9, "extra": {},
                                "latency_ms": [float(i) for i in range(n)]}]}
        m, _ = run.end_to_end([raw(38)])  # batch reports p75
        self.assertEqual(m["latency_tail_ms"], stats.percentile(range(38), 75.0))
        with self.assertRaises(ValueError):
            run.end_to_end([raw(37)])

    def test_failures_sort_as_infinitely_slow(self):
        xs = [1.0] * 98 + [-1.0, -1.0]
        self.assertEqual(stats.percentile(xs, 50), 1.0)
        self.assertTrue(math.isinf(stats.percentile(xs, 99)))


class CoordinatedOmission(unittest.TestCase):
    """A server that stalls for 500 ms under one connection: timing from
    the send hides the requests that queued behind the stall; timing from
    the due time charges each of them the wait."""

    def simulate(self):
        due = [i * 10.0 for i in range(100)]  # 100/s for 1 s
        send, done = [], []
        free = 0.0
        for d in due:
            s = max(d, free)
            service = 500.0 if 100.0 <= s < 110.0 else 1.0
            send.append(s)
            free = s + service
            done.append(free)
        return due, send, done

    def test_due_time_latency_counts_the_stall(self):
        due, send, done = self.simulate()
        from_due = stats.due_latencies(due, done)
        from_send = stats.due_latencies(send, done)
        self.assertAlmostEqual(stats.percentile(from_send, 90), 1.0)
        self.assertGreater(stats.percentile(from_due, 90), 300.0)
        # Only the stalled request itself is slow when timed from its send;
        # from the due time, so are the 44 that queued behind it.
        self.assertEqual(sum(1 for x in from_send if x > 100.0), 1)
        self.assertEqual(sum(1 for x in from_due if x > 100.0), 45)

    def test_failed_requests_count_as_infinitely_slow(self):
        lat = stats.due_latencies([0.0, 10.0, 20.0], [5.0, -1.0, 26.0])
        self.assertEqual(lat, [5.0, -1.0, 6.0])
        self.assertTrue(math.isinf(stats.percentile(lat, 99)))

    def test_run_times_serve_requests_from_their_due_time(self):
        due, send, done = self.simulate()
        phase = {"latency_ms": [],
                 "extra": {"due_ms": due, "send_ms": send, "done_ms": done}}
        self.assertEqual(run.latencies(phase), stats.due_latencies(due, done))
        closed = {"latency_ms": [1.0, 2.0], "extra": {}}
        self.assertEqual(run.latencies(closed), [1.0, 2.0])

    def test_backlog_detection(self):
        due, send, _ = self.simulate()
        self.assertFalse(stats.backlog_grows(due, send, 100.0))
        # A generator that falls further behind with every request.
        late = [d + 2.0 * i for i, d in enumerate(due)]
        self.assertTrue(stats.backlog_grows(due, late, 100.0))


class SelfTimes(unittest.TestCase):
    @staticmethod
    def span(i, parent, name, start, end, replayed=False):
        return {"id": i, "parent": parent, "name": name, "start": start,
                "end": end, "replayed": replayed}

    def test_overlapping_children_are_subtracted_once(self):
        spans = [self.span(1, 0, "rpc", 0, 100),
                 self.span(2, 1, "queue", 10, 40),
                 self.span(3, 1, "exec", 30, 60)]
        own, total, residual = stats.self_times(spans)
        self.assertEqual(own["rpc"], 50)
        self.assertEqual(own["queue"], 30)
        self.assertEqual(own["exec"], 30)
        self.assertEqual(total, 100)
        # The children overlap by 10: the self times over-explain by 10.
        self.assertEqual(residual, -10)

    def test_replayed_children_lie_outside_the_parent(self):
        spans = [self.span(1, 0, "align.search", 0, 100),
                 self.span(2, 1, "core.batch32", 200, 260, True),
                 self.span(3, 1, "core.realign", 260, 270, True)]
        own, total, residual = stats.self_times(spans)
        self.assertEqual(own["align.search"], 30)
        self.assertEqual(own["core.batch32"], 60)
        self.assertEqual(residual, 0)

    def test_slow_replay_leaves_a_negative_residual(self):
        spans = [self.span(1, 0, "core.traceback", 0, 10),
                 self.span(2, 1, "core.diag", 20, 32, True)]
        own, total, residual = stats.self_times(spans)
        self.assertEqual(own["core.traceback"], 0)
        self.assertEqual(residual, -2)

    def test_nested_child_is_clipped_to_its_parent(self):
        spans = [self.span(1, 0, "a", 0, 100), self.span(2, 1, "b", 90, 120)]
        own, _, residual = stats.self_times(spans)
        self.assertEqual(own["a"], 90)
        self.assertEqual(residual, -20)

    def test_grandchildren(self):
        spans = [self.span(1, 0, "a", 0, 100), self.span(2, 1, "b", 10, 60),
                 self.span(3, 2, "c", 20, 30), self.span(4, 0, "a", 200, 210)]
        own, total, residual = stats.self_times(spans)
        self.assertEqual(own, {"a": 60, "b": 40, "c": 10})
        self.assertEqual(total, 110)
        self.assertEqual(residual, 0)


class QpsAtSlo(unittest.TestCase):
    def test_interpolates_on_log_p99(self):
        q = stats.qps_at_slo([100, 200, 300], [10.0, 50.0, 200.0],
                             [False, False, False], 100.0)
        self.assertAlmostEqual(q, 250.0)

    def test_moves_smoothly_not_in_steps(self):
        a = stats.qps_at_slo([100, 200, 300], [10.0, 50.0, 200.0],
                             [False] * 3, 100.0)
        b = stats.qps_at_slo([100, 200, 300], [10.0, 52.0, 200.0],
                             [False] * 3, 100.0)
        self.assertLess(abs(a - b), 5.0)
        self.assertNotEqual(a, b)

    def test_growing_backlog_fails_the_rate(self):
        q = stats.qps_at_slo([100, 200, 300], [10.0, 50.0, 900.0],
                             [False, False, True], 100.0)
        self.assertAlmostEqual(q, 200 + 100 * math.log(2) / math.log(18))
        # A rate whose backlog grows fails even if its p99 looks fine: the
        # limit is reached no later than that rate.
        q = stats.qps_at_slo([100, 200, 300, 400], [10.0, 50.0, 60.0, 70.0],
                             [False, False, True, True], 100.0)
        self.assertEqual(q, 300)

    def test_a_transient_failure_below_a_passing_rate_does_not_decide(self):
        q = stats.qps_at_slo([100, 200, 300], [400.0, 50.0, 900.0],
                             [False, False, True], 100.0)
        self.assertAlmostEqual(q, 200 + 100 * math.log(2) / math.log(18))

    def test_every_rate_meets_the_limit(self):
        self.assertEqual(stats.qps_at_slo([100, 200], [1.0, 2.0],
                                          [False, False], 100.0), 200)

    def test_no_rate_meets_the_limit(self):
        q = stats.qps_at_slo([100, 200], [400.0, 900.0], [False, False], 100.0)
        self.assertAlmostEqual(q, 25.0)

    def test_failed_requests_make_p99_infinite(self):
        p99 = stats.percentile([1.0] * 90 + [-1.0] * 10, 99)
        q = stats.qps_at_slo([100, 200], [10.0, p99], [False, False], 100.0)
        self.assertEqual(q, 100)


class FailedFrac(unittest.TestCase):
    def test_failures_and_mismatches_count_against_attempts(self):
        self.assertAlmostEqual(stats.failed_frac(200, failed=6, mismatches=4),
                               10 / 200)
        # The denominator is every attempt, checked or not.
        self.assertAlmostEqual(stats.failed_frac(400, failed=6, mismatches=4),
                               10 / 400)

    def test_clean_run(self):
        self.assertEqual(stats.failed_frac(5), 0.0)

    def test_needs_an_attempt(self):
        with self.assertRaises(ValueError):
            stats.failed_frac(0)


if __name__ == "__main__":
    unittest.main()
