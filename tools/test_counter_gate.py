"""Tests of the exact work-counter gate (tools/counter_gate.py).

Run from the repository root:

    python3 -m unittest discover -s tools -v

Both sides are built from the recorded perfbench runs in
perfbench/tests/data (two sets per workload of the same code), read only.
"""

import copy
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import counter_gate  # noqa: E402
from counter_gate import compare  # noqa: E402

BENCH = json.loads(compare.BENCHMARK_JSON.read_text())
DATA = HERE.parent / "perfbench" / "tests" / "data"
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def recorded(side):
    """Every workload's recorded runs of one set, grouped in order."""
    return [run for w in WORKLOADS
            for run in compare.load_runs(DATA / f"{w}-{side}.jsonl")]


class CounterGate(unittest.TestCase):
    def setUp(self):
        self.base = recorded("a")
        self.cand = recorded("b")
        self.per = len(self.cand) // len(WORKLOADS)

    def edit(self, workload, fn):
        """A copy of cand with fn applied to every run of one workload."""
        cand = copy.deepcopy(self.cand)
        i = WORKLOADS.index(workload) * self.per
        for run in cand[i:i + self.per]:
            fn(run)
        return cand

    def bump(self, workload, counter):
        def fn(run):
            if counter in run["metrics"]:
                run["metrics"][counter]["value"] += 1
        return self.edit(workload, fn)

    def test_two_real_sets_of_the_same_code_pass(self):
        failures, rows = counter_gate.gate(self.base, self.cand, BENCH, set())
        self.assertEqual(failures, [])
        self.assertEqual(list(rows), WORKLOADS)

    def test_a_timing_only_difference_passes(self):
        def slower(run):
            for name, m in run["metrics"].items():
                if m["unit"] == "s":
                    m["value"] *= 3.0
                elif m["unit"] == "Mcycles/s":
                    m["value"] /= 3.0
        for w in WORKLOADS:
            with self.subTest(workload=w):
                failures, _ = counter_gate.gate(
                    self.base, self.edit(w, slower), BENCH, set())
                self.assertEqual(failures, [])

    def test_an_undeclared_counter_change_fails_and_is_named(self):
        cand = self.bump("stream", "noc.packets.pf")
        failures, _ = counter_gate.gate(self.base, cand, BENCH, set())
        self.assertEqual(failures,
                         ["stream: CHANGED: noc.packets.pf (undeclared)"])

    def test_a_declared_counter_change_passes(self):
        cand = self.bump("stream", "noc.packets.pf")
        failures, _ = counter_gate.gate(self.base, cand, BENCH,
                                        {"noc.packets.pf"})
        self.assertEqual(failures, [])
        failures, _ = counter_gate.gate(self.base, cand, BENCH,
                                        {"noc.packets.orig"})
        self.assertEqual(len(failures), 1)

    def test_drift_inside_one_side_fails(self):
        cand = copy.deepcopy(self.cand)
        for run in cand[:self.per]:
            if "sim.wheel_pops.orig" in run["metrics"]:
                run["metrics"]["sim.wheel_pops.orig"]["value"] += 1
                break
        failures, _ = counter_gate.gate(self.base, cand, BENCH, set())
        self.assertEqual(failures, ["bitcnt: DRIFT: sim.wheel_pops.orig (cand)"])

    def test_a_failed_run_fails(self):
        cand = copy.deepcopy(self.cand)
        cand[-1]["failed"] = 1
        failures, _ = counter_gate.gate(self.base, cand, BENCH, set())
        self.assertEqual(failures,
                         [f"observed: FAILED: cand run {self.per} "
                          "is not correct"])

    def test_a_missing_metric_fails(self):
        cand = self.edit("bitcnt",
                         lambda run: run["metrics"].pop("dma.bytes.pf", None))
        failures, _ = counter_gate.gate(self.base, cand, BENCH, set())
        self.assertEqual(failures,
                         ["bitcnt: MISSING: dma.bytes.pf (only in base)"])

    def test_runs_without_counters_fail(self):
        def untraced(runs):
            return [r for r in runs if "core.cycles.orig" not in r["metrics"]]
        failures, _ = counter_gate.gate(untraced(self.base),
                                        untraced(self.cand), BENCH, set())
        self.assertEqual(len(failures), len(WORKLOADS))

    def test_result_lines_must_split_over_the_workloads(self):
        with self.assertRaises(ValueError):
            counter_gate.gate(self.base, self.cand[:-1], BENCH, set())

    def test_trailers_declare_counters(self):
        log = ("Fix the bus\n\nBody text.\n\n"
               "Counters-changed: noc.packets.pf, sim.wheel_pops\n\n"
               "Another commit\n\nCounters-changed: dma.bytes\n"
               "Not a trailer: Counters-changed: core.cycles\n")
        self.assertEqual(counter_gate.declared_counters(log),
                         {"noc.packets.pf", "sim.wheel_pops", "dma.bytes"})
        self.assertEqual(counter_gate.declared_counters("no trailer"), set())


if __name__ == "__main__":
    unittest.main()
