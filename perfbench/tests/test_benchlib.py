"""Tests of the benchmark's own Python code.

    python3 -m unittest discover -s perfbench/tests

Covers the digests, the spread statistic, record parsing, span self
time, the result line, the unavailable-metric path of run.py, and that
the metric tables agree with BENCHMARK.json. Runs no simulation.
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib  # noqa: E402
import run  # noqa: E402


class DigestTest(unittest.TestCase):
    def test_digest_is_pinned(self):
        # digests.json stores these; changing the hash voids every one.
        self.assertEqual(benchlib.row_digest("1T decoupled L2=1|100|200"),
                         "ba563809af57e8b6")

    def test_digest_sees_every_character(self):
        self.assertNotEqual(benchlib.row_digest("a|0.50000000000000011"),
                            benchlib.row_digest("a|0.5"))

    def test_mismatches_by_position(self):
        rows = ["a", "b", "c"]
        expected = [benchlib.row_digest(r) for r in rows]
        self.assertEqual(benchlib.count_mismatches(rows, expected), 0)
        self.assertEqual(benchlib.count_mismatches(["a", "x", "c"], expected),
                         1)
        self.assertEqual(benchlib.count_mismatches(["c", "b", "a"], expected),
                         2)

    def test_missing_and_extra_rows_fail(self):
        expected = [benchlib.row_digest(r) for r in ["a", "b"]]
        self.assertEqual(benchlib.count_mismatches(["a"], expected), 1)
        self.assertEqual(benchlib.count_mismatches(["a", "b", "c"], expected),
                         1)
        self.assertEqual(benchlib.count_mismatches(["a", "b"], []), 2)


class StatsTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [float(v) for v in range(1, 11)]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / 5.5)

    def test_spread_of_constant_is_zero(self):
        self.assertEqual(benchlib.spread([2.0] * 10), 0.0)

    def test_spread_of_three_repetitions(self):
        # The fewest repetitions a run measures.
        self.assertAlmostEqual(benchlib.spread([1.0, 2.0, 4.0]),
                               (4.0 - 1.0) / 2.0)


class RecordsTest(unittest.TestCase):
    # Repetition 1 runs at pace 1 (the fastest probe around it is the
    # reference time), repetitions 2 and 3 at pace 2: their probes take
    # SLOW times the reference time.
    REF = benchlib.PROBE_REF_S
    SLOW = 2 ** (1 / benchlib.PACE_EXPONENT)
    TEXT = "\n".join([
        "REP 0 1.5 300 400 2",
        "ROW 0 2T decoupled L2=64|10|20",
        "ROW 0 4T decoupled L2=64|30|40",
        f"PROBE 0 {REF}",
        f"PROBE 0 {1.5 * REF}",
        "REP 1 1.25 300 400 2",
        "ROW 1 2T decoupled L2=64|10|20",
        "ROW 1 4T decoupled L2=64|30|40",
        "SETUP 1 0.5",
        "SETUP 1 0.25",
        f"PROBE 1 {SLOW * REF}",
        "REP 2 1.5 300 400 2",
        "ROW 2 2T decoupled L2=64|10|20",
        "ROW 2 4T decoupled L2=64|30|41",
        "SETUP 2 0.75",
        f"PROBE 2 {SLOW * REF}",
        "REP 3 2.5 300 400 2",
        "ROW 3 2T decoupled L2=64|10|20",
        "ROW 3 4T decoupled L2=64|30|40",
        "SETUP 3 0.5",
        f"PROBE 3 {SLOW * REF}",
        "TRACED 2.0",
        "METRIC core.step_ns 961.5",
        "RSS_KB 8192",
        "a line that is not a record",
    ])

    def test_parse(self):
        rec = benchlib.parse_records(self.TEXT)
        self.assertEqual(rec.setup, {1: [0.5, 0.25], 2: [0.75], 3: [0.5]})
        self.assertEqual(rec.probes[0], [self.REF, 1.5 * self.REF])
        self.assertEqual(set(rec.probes), {0, 1, 2, 3})
        self.assertEqual(rec.reps, {0: (1.5, 300, 400, 2),
                                    1: (1.25, 300, 400, 2),
                                    2: (1.5, 300, 400, 2),
                                    3: (2.5, 300, 400, 2)})
        self.assertEqual(rec.rows[0], ["2T decoupled L2=64|10|20",
                                       "4T decoupled L2=64|30|40"])
        self.assertEqual(rec.traced, [2.0])
        self.assertEqual(rec.metrics, {"core.step_ns": 961.5})
        self.assertEqual(rec.rss_kb, 8192)

    def test_check_and_metrics(self):
        rec = benchlib.parse_records(self.TEXT)
        expected = [benchlib.row_digest(r) for r in rec.rows[0]]
        # Rep 0 matches the recorded digests; rep 2 differs from rep 1
        # in its second row.
        self.assertEqual(run.check_e2e(rec, expected), (8, 1))
        # Paced walls 1.25, 1.5 / 2 and 2.5 / 2; paced set-ups 0.5, 0.25,
        # 0.75 / 2 and 0.5 / 2.
        walls, setups = benchlib.paced(rec)
        for got, want in zip(walls + setups,
                             [1.25, 0.75, 1.25, 0.5, 0.25, 0.375, 0.25]):
            self.assertAlmostEqual(got, want)
        self.assertEqual((len(walls), len(setups)), (3, 4))
        # Tenth percentile of the paced walls, between the two fastest.
        wall = 0.75 + 0.2 * (1.25 - 0.75)
        m = run.e2e_metrics(rec)
        self.assertAlmostEqual(m["sim_ips"], 300 / wall)
        self.assertAlmostEqual(m["sim_cps"], 400 / wall)
        self.assertAlmostEqual(m["setup_s"], (0.25 + 0.375) / 2)
        self.assertEqual(m["peak_rss_mb"], 8.0)

    def test_pace_cancels_a_host_slowdown(self):
        # The same run while other tenants slow the probe by half: every
        # wall 1.5 ** PACE_EXPONENT times longer, the paced times
        # unchanged.
        rec = benchlib.parse_records(self.TEXT)
        slow = benchlib.parse_records(self.TEXT)
        f = 1.5 ** benchlib.PACE_EXPONENT
        slow.reps = {r: (f * w, i, c, j) for r, (w, i, c, j) in
                     rec.reps.items()}
        slow.probes = {r: [1.5 * p for p in ps] for r, ps in
                       rec.probes.items()}
        slow.setup = {r: [f * s for s in ss] for r, ss in rec.setup.items()}
        for a, b in zip(benchlib.paced(rec), benchlib.paced(slow)):
            for x, y in zip(a, b):
                self.assertAlmostEqual(x, y)


class SpanTest(unittest.TestCase):
    @staticmethod
    def span(name, start, end, parent):
        return {"name": name, "start_ns": start, "end_ns": end,
                "parent": parent}

    def test_self_time_and_coverage(self):
        spans = [
            self.span("sweep.rep", 0, 100, -1),
            self.span("sweep.job", 10, 90, 0),
            self.span("core.warmup", 10, 40, 1),
            self.span("core.measure", 40, 80, 1),
            self.span("replay.policy", 200, 300, -1),
            self.span("policy.order", 200, 300, 4),
        ]
        layers, coverage = benchlib.self_times(spans, "sweep.rep")
        self.assertEqual(layers, {"sweep": 20 + 10, "core": 30 + 40})
        self.assertAlmostEqual(coverage, 0.8)

    def test_no_roots(self):
        self.assertEqual(benchlib.self_times([], "sweep.rep"), ({}, 0.0))


class ResultLineTest(unittest.TestCase):
    def test_keys_and_values(self):
        line = benchlib.result_line(
            True, 10, 0, {"sim_ips": benchlib.metric(1.5, "insts/s")})
        self.assertEqual(json.loads(line), {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"sim_ips": {"value": 1.5, "unit": "insts/s"}}})
        self.assertNotIn("\n", line)

    def test_unavailable(self):
        m = benchlib.unavailable("ns", "building perfbench_layers failed")
        line = json.loads(benchlib.result_line(True, 1, 0, {"x": m}))
        self.assertIsNone(line["metrics"]["x"]["value"])
        self.assertEqual(line["metrics"]["x"]["unavailable"],
                         "building perfbench_layers failed")


class UnavailablePathTest(unittest.TestCase):
    """A layer program that does not build costs only the layer metrics."""

    def test_build_failure_marks_every_layer_metric(self):
        saved = run.build
        run.build = lambda target: f"building {target} failed (exit 2)"
        try:
            untraced = benchlib.parse_records(RecordsTest.TEXT)
            metrics, attempted, failed = run.layer_metrics(
                "paper-fig4", 1, untraced)
        finally:
            run.build = saved
        self.assertEqual((attempted, failed), (0, 0))
        self.assertEqual(set(metrics),
                         set(benchlib.PER_LAYER) | set(benchlib.EXTRA_LAYER))
        for m in metrics.values():
            self.assertIsNone(m["value"])
            self.assertEqual(m["unavailable"],
                             "building perfbench_layers failed (exit 2)")


class BenchmarkJsonTest(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        path = HERE.parent.parent / "BENCHMARK.json"
        doc = json.loads(path.read_text())
        self.assertEqual(tuple(w["name"] for w in doc["workloads"]),
                         benchlib.WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]},
                         benchlib.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         benchlib.PER_LAYER)

    def test_digests_cover_every_workload(self):
        digests = json.loads((HERE.parent / "digests.json").read_text())
        self.assertEqual(set(digests["workloads"]), set(benchlib.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
