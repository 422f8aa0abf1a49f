#!/usr/bin/env python3
"""Fails a change whose exact work counters differ from its base's.

Usage (from the repository root):

    python3 tools/counter_gate.py BASE.jsonl CAND.jsonl [REV_RANGE]

BASE.jsonl and CAND.jsonl hold perfbench --trace 1 result lines, grouped by
workload in BENCHMARK.json's order (bitcnt, stream, observed) with the same
number of runs for each; bench/trajectory/BENCH_<n>.jsonl is one such file.
Each workload is compared with perfbench/compare.py.  The gate fails on:

* a run that is not correct, or that counts a failed run;
* a metric that one side reports and the other does not;
* an exact counter (sim.*, core.*, dma.*, mem.*, noc.*, sched.*) that is not
  the same in every run of one side (drift);
* an exact counter that changed and is not declared.

A change declares the counters it expects to move with a trailer in any
commit message of REV_RANGE (as `git log` takes it):

    Counters-changed: sim.wheel_pops.orig, sim.wheel_pops.pf

Host time never fails the gate: timing rows are printed for context only.

Exits 1 when the gate fails, 0 otherwise.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import compare  # noqa: E402

TRAILER = re.compile(r"^Counters-changed:(.*)$", re.MULTILINE)


def declared_counters(messages):
    """The counter names the Counters-changed trailers of messages name."""
    names = set()
    for value in TRAILER.findall(messages):
        names.update(n for n in re.split(r"[,\s]+", value) if n)
    return names


def by_workload(runs, workloads):
    """Splits runs grouped by workload into {workload: runs}."""
    n, rest = divmod(len(runs), len(workloads))
    if n == 0 or rest:
        raise ValueError(f"{len(runs)} result lines do not split evenly "
                         f"over the workloads {', '.join(workloads)}")
    return {w: runs[i * n:(i + 1) * n] for i, w in enumerate(workloads)}


def gate(base_runs, cand_runs, bench, declared):
    """Returns (failures, rows): failure lines, and compare's rows per
    workload."""
    workloads = [w["name"] for w in bench["workloads"]]
    base = by_workload(base_runs, workloads)
    cand = by_workload(cand_runs, workloads)
    failures, rows = [], {}
    for w in workloads:
        res = compare.compare(base[w], cand[w], bench)
        rows[w] = res["rows"]
        failures += [f"{w}: FAILED: {r} is not correct"
                     for r in res["failed_runs"]]
        failures += [f"{w}: MISSING: {m}" for m in res["missing"]]
        failures += [f"{w}: DRIFT: {d}" for d in res["drift"]]
        failures += [f"{w}: CHANGED: {c} (undeclared)"
                     for c in res["counter_changes"]
                     if c not in declared]
        if not any(compare.kind_of(r[0]) == "exact" for r in res["rows"]):
            failures.append(f"{w}: no exact counters (not --trace 1 runs?)")
    return failures, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("cand")
    ap.add_argument("range", nargs="?",
                    help="commits whose messages may declare changes")
    args = ap.parse_args()
    bench = json.loads(compare.BENCHMARK_JSON.read_text())
    messages = ""
    if args.range:
        messages = subprocess.run(["git", "log", "--format=%B", args.range],
                                  check=True, capture_output=True,
                                  text=True).stdout
    declared = declared_counters(messages)
    try:
        failures, rows = gate(compare.load_runs(args.base),
                              compare.load_runs(args.cand), bench, declared)
    except ValueError as e:
        print(f"counter gate: FAIL: {e}")
        return 1
    for w, wrows in rows.items():
        exact = sum(compare.kind_of(r[0]) == "exact" for r in wrows)
        print(f"== {w}: {exact} exact counters compared\n"
              f"{'metric':<34} {'base':>12} {'cand':>12} {'delta':>8}")
        for name, bm, cm, delta, flag in wrows:
            if flag == "CHANGED":
                note = ("declared change" if name in declared
                        else "counter changed")
            elif compare.kind_of(name) == "time":
                note = "not gated"
            else:
                continue
            print(f"{name:<34} {bm:>12.6g} {cm:>12.6g} {delta:>+8.1%}  "
                  f"{note}")
    if declared:
        print(f"declared: {', '.join(sorted(declared))}")
    for f in failures:
        print(f)
    print("counter gate:", "FAIL" if failures else "pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
