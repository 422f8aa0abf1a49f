"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

The metric-name and bare-directory tests run the real benchmark (building it
on first use into .bench_build/perfbench); the comparison tests use two
recorded sets of real runs per workload in tests/data (<workload>-a.jsonl and
<workload>-b.jsonl, five seeds each, --trace 0 and 1, 30-second runs) and
run in milliseconds.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import compare  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
DATA = HERE / "data"


def run_bench(cwd, workload, trace, seconds=1, seed=7):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class MetricNames(unittest.TestCase):
    """The names and units printed equal those BENCHMARK.json declares."""

    def test_printed_names_match_benchmark_json(self):
        declared = {0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in BENCH["per_layer"]}}
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    p = run_bench(ROOT, w["name"], trace)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    res = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(res),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    printed = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(printed, declared[trace])


class BareDirectory(unittest.TestCase):
    """Without the simulator sources the benchmark fails without a result."""

    def test_fails_cleanly_without_sources(self):
        bare = ROOT / ".bench_build" / "perfbench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            p = run_bench(bare, BENCH["workloads"][0]["name"], 0)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class Comparison(unittest.TestCase):
    """What the comparison flags, on two recorded sets of real runs."""

    @classmethod
    def setUpClass(cls):
        cls.sets = {w["name"]: tuple(compare.load_runs(
            DATA / f"{w['name']}-{s}.jsonl") for s in "ab")
            for w in BENCH["workloads"]}
        cls.runs = cls.sets["observed"][0]

    def scaled(self, metric, factor):
        out = json.loads(json.dumps(self.runs))
        for r in out:
            if metric in r["metrics"]:
                r["metrics"][metric]["value"] *= factor
        return out

    def assert_only(self, res, **expected):
        """Every flag list of res is empty except those named in expected."""
        for key in ("failed_runs", "missing", "e2e_regressions",
                    "layer_regressions", "counter_changes", "drift"):
            self.assertEqual(res[key], expected.get(key, []), key)

    def test_identical_results_flag_nothing(self):
        self.assert_only(compare.compare(self.runs, self.runs, BENCH))

    def test_two_real_sets_of_the_same_code_flag_nothing(self):
        for name, (a, b) in self.sets.items():
            for base, cand in ((a, b), (b, a)):
                with self.subTest(workload=name,
                                  direction="ab" if base is a else "ba"):
                    self.assert_only(compare.compare(base, cand, BENCH))

    def test_slowdown_in_each_timed_layer(self):
        timed = [m["name"] for m in BENCH["per_layer"]
                 if compare.kind_of(m["name"]) == "time"]
        self.assertEqual(len(timed), 15)
        for layer in timed:
            # 5%, or 1.5 times the layer's threshold where that is larger.
            factor = max(1.05, 1.0 + 1.5 * compare.threshold(layer))
            with self.subTest(layer=layer, factor=factor):
                res = compare.compare(self.runs, self.scaled(layer, factor),
                                      BENCH)
                self.assert_only(res, layer_regressions=[layer])
                self.assertEqual(list(res["attributed"]), [layer])

    def test_core_run_slowdown_maps_to_its_variant_throughput(self):
        factor = 1.0 + 1.5 * compare.threshold("core.run_s.pf")
        res = compare.compare(self.runs, self.scaled("core.run_s.pf", factor),
                              BENCH)
        self.assertEqual(res["attributed"]["core.run_s.pf"],
                         ["mcycles_per_s", "pf_mcycles_per_s"])

    def test_half_the_threshold_is_not_flagged(self):
        for layer in ("core.run_s.orig", "stats.critpath_s.pf"):
            with self.subTest(layer=layer):
                factor = 1.0 + 0.5 * compare.threshold(layer)
                res = compare.compare(self.runs, self.scaled(layer, factor),
                                      BENCH)
                self.assert_only(res)

    def test_any_counter_change_is_flagged_exactly(self):
        res = compare.compare(self.runs,
                              self.scaled("sim.wheel_pops.orig", 1.0 + 1e-9),
                              BENCH)
        self.assert_only(res, counter_changes=["sim.wheel_pops.orig"])

    def test_end_to_end_regression_beyond_bound(self):
        bound = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        res = compare.compare(
            self.runs,
            self.scaled("wall_s", 1.0 + 1.5 * bound["wall_s"]), BENCH)
        self.assert_only(res, e2e_regressions=["wall_s"])

    def test_failed_candidate_is_flagged(self):
        failed = json.loads(json.dumps(self.runs[0]))
        failed.update(correct=False, metrics={})
        res = compare.compare(self.runs, [failed], BENCH)
        self.assertTrue(compare.flagged(res))
        self.assertEqual(res["failed_runs"], ["cand run 1"])
        self.assertEqual(len(res["missing"]),
                         len(compare.values_by_metric(self.runs)))

    def test_failed_run_count_is_flagged(self):
        cand = json.loads(json.dumps(self.runs))
        cand[-1]["failed"] = 1
        res = compare.compare(self.runs, cand, BENCH)
        self.assert_only(res, failed_runs=[f"cand run {len(cand)}"])

    def test_dropped_metric_is_flagged(self):
        cand = json.loads(json.dumps(self.runs))
        for r in cand:
            r["metrics"].pop("pf_mcycles_per_s", None)
        res = compare.compare(self.runs, cand, BENCH)
        self.assert_only(res, missing=["pf_mcycles_per_s (only in base)"])

    def test_every_per_layer_metric_has_a_kind(self):
        kinds = {compare.kind_of(m["name"]) for m in BENCH["per_layer"]}
        self.assertEqual(kinds, {"time", "exact", "context"})


if __name__ == "__main__":
    unittest.main()
