"""Tests of the benchmark's own statistics (perfbench/stats.py).

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        # 100 samples: p99 and p95 leave 1 and 5 beyond, p90 leaves 10.
        t = stats.tail(range(1, 101))
        self.assertEqual(t["percentile"], 90.0)
        self.assertEqual(t["value"], 90)
        self.assertEqual(t["beyond"], 10)
        self.assertEqual(t["count"], 100)

    def test_large_sample_reaches_p99(self):
        t = stats.tail(range(1, 1001))
        self.assertEqual((t["percentile"], t["value"], t["beyond"]),
                         (99.0, 990, 10))

    def test_order_of_input_does_not_matter(self):
        xs = [(i * 37) % 101 for i in range(101)]
        self.assertEqual(stats.tail(xs), stats.tail(sorted(xs)))

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.tail(range(19)))
        self.assertIsNone(stats.tail([]))
        # 20 samples: the median leaves exactly 10 beyond.
        t = stats.tail(range(1, 21))
        self.assertEqual((t["percentile"], t["value"]), (50.0, 10))

    def test_summary_reports_counts(self):
        s = stats.summary([3.0, 1.0, 2.0])
        self.assertEqual(s["count"], 3)
        self.assertEqual(s["p50"], 2.0)
        self.assertNotIn("tail", s)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)


def span(id_, parent, start, end, name="x"):
    return {"id": id_, "parent": parent, "start_us": start, "end_us": end,
            "name": name, "tid": 1}


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_and_clipped_children(self):
        spans = [span(1, 0, 0, 100),
                 span(2, 1, 10, 30), span(3, 1, 20, 50),  # overlap: [10,50)
                 span(4, 1, 90, 120),                     # clipped to 100
                 span(5, 2, 12, 14)]                      # grandchild
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 100 - 40 - 10)
        self.assertEqual(selfs[2], 20 - 2)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[5], 2)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span(7, 0, 5, 9)]), {7: 4})

    def test_chrome_trace_events(self):
        trace = stats.chrome_trace([span(1, 0, 100, 200, "tuning.probe"),
                                    span(2, 1, 120, 150, "exec.run")], 42)
        ev = trace["traceEvents"]
        self.assertEqual([e["ph"] for e in ev], ["X", "X"])
        self.assertEqual(ev[0]["ts"], 0)
        self.assertEqual(ev[1]["ts"], 20)
        self.assertEqual(ev[1]["args"]["parent"], 1)
        self.assertEqual(ev[0]["args"]["self_us"], 70)
        self.assertEqual(ev[0]["cat"], "tuning")


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        # The generator stalled: the second request went out 0.5 s late.
        # Its latency includes the stall; the lateness records it too.
        latency, late = stats.open_loop(due=[0.0, 1.0, 2.0],
                                        sent=[0.0, 1.5, 2.5],
                                        done=[0.25, 2.0, None])
        self.assertEqual(latency[:2], [0.25, 1.0])
        self.assertTrue(math.isinf(latency[2]))  # failed: misses any limit
        self.assertEqual(late, [0.0, 0.5, 0.5])

    def test_backlog(self):
        due = [0.0, 1.0, 2.0, 3.0]
        done = [0.5, 2.5, None, 3.1]
        self.assertEqual(stats.backlog(0.4, due, done), 1)
        self.assertEqual(stats.backlog(2.0, due, done), 2)
        self.assertEqual(stats.backlog(10.0, due, done), 1)


def ladder_jobs(rate, start, end, latency_of):
    due = [start + i / rate for i in range(int((end - start) * rate))]
    return due, [d + latency_of(d) for d in due]


class RateLadderTest(unittest.TestCase):
    def test_steady_rung_passes(self):
        due, done = ladder_jobs(10, 0, 10, lambda d: 0.1)
        v = stats.rung_verdict(10, 0, 10, due, done, [True] * len(due), 500)
        self.assertTrue(v["passed"], v["reasons"])
        self.assertEqual(v["jobs"], 100)

    def test_growing_backlog_fails(self):
        # Latency grows with time: the queue builds up.
        due, done = ladder_jobs(10, 0, 10, lambda d: 0.05 + 0.3 * d)
        v = stats.rung_verdict(10, 0, 10, due, done, [True] * len(due), 1e9)
        self.assertFalse(v["passed"])
        self.assertIn("backlog grows", v["reasons"])

    def test_burst_at_rung_end_does_not_fail(self):
        # A steady rung plus a burst of 7 jobs due 0.1 s before its end:
        # the backlog at the end point grows by 6, more than the slack of
        # 5 jobs (10% of 47), but its average over the last quarter does not.
        due, done = ladder_jobs(4, 0, 10, lambda d: 0.1)
        due += [9.9] * 7
        done += [10.2] * 7
        self.assertEqual(stats.backlog(9.99, due, done)
                         - stats.backlog(5.0, due, done), 6)
        v = stats.rung_verdict(4, 0, 10, due, done, [True] * len(due), 500)
        self.assertTrue(v["passed"], v["reasons"])

    def test_tail_over_limit_fails(self):
        due, done = ladder_jobs(10, 0, 10, lambda d: 0.6)
        v = stats.rung_verdict(10, 0, 10, due, done, [True] * len(due), 500)
        self.assertEqual(v["reasons"], ["tail over limit"])

    def test_failed_job_fails_the_rung(self):
        due, done = ladder_jobs(10, 0, 10, lambda d: 0.1)
        ok = [True] * len(due)
        ok[3] = False
        v = stats.rung_verdict(10, 0, 10, due, done, ok, 500)
        self.assertIn("failed jobs", v["reasons"])

    def test_max_rate_stops_at_first_failure(self):
        def v(rate, passed):
            return {"rate": rate, "passed": passed}
        self.assertEqual(stats.max_rate([v(10, True), v(5, True),
                                         v(15, False), v(20, True)]), 10)
        self.assertEqual(stats.max_rate([v(5, False), v(10, True)]), 0.0)
        self.assertEqual(stats.max_rate([v(5, True), v(10, True)]), 10)



class RefSecondsTest(unittest.TestCase):
    def test_slow_host_scales_down(self):
        # Probes at twice the reference time: the host ran at half speed.
        self.assertAlmostEqual(
            stats.ref_seconds([1.0, 3.0], [0.2, 0.2, 0.2], 0.1), 2.0)

    def test_reference_speed_keeps_seconds(self):
        self.assertEqual(stats.ref_seconds([1.5, 2.5], [0.1] * 3, 0.1), 4.0)

    def test_one_stalled_probe_does_not_rescale(self):
        self.assertAlmostEqual(
            stats.ref_seconds([1.0, 1.0], [0.1, 0.9, 0.1], 0.1), 2.0)

    def test_bad_probe_is_refused(self):
        with self.assertRaises(ValueError):
            stats.ref_seconds([1.0], [0.0, 0.0], 0.1)

if __name__ == "__main__":
    unittest.main()
