#!/usr/bin/env python3
"""Compares two sets of benchmark results for one workload.

Usage:

    python3 perfbench/compare.py BASE.jsonl CAND.jsonl

Each file holds result lines as the benchmark prints them last (one JSON
object per run, from --trace 0 and --trace 1 runs alike).  For every metric
the median over a file's runs is compared:

* a run that is not correct, or that counts a failed run, is flagged;
* a metric that one file reports and the other does not is flagged;
* an end-to-end metric regresses when the candidate is worse than the base
  by more than its bound in BENCHMARK.json;
* a timed layer (a per-layer metric in seconds) regresses when it is slower
  by more than its LAYER_THRESHOLDS share, and the regression is attributed
  to the end-to-end metrics that layer feeds (LAYER_MAP);
* an exact work counter must be identical in every run of both files: any
  difference is reported as a change (or, inside one file, as drift) —
  never as noise;
* host-profile shares and the tracing overhead are printed for context and
  never flagged.

Exits 1 when anything is flagged, 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Timed layer (without its .orig/.pf suffix) -> end-to-end metrics it feeds.
# "{v}" stands for the layer's variant.
LAYER_MAP = {
    "workloads.build_s": ["setup_s"],
    "core.build_s": ["setup_s"],
    "mem.load_s": ["setup_s"],
    "core.run_s": ["mcycles_per_s", "{v}_mcycles_per_s"],
    "workloads.check_s": ["wall_s"],
    "stats.report_s": ["wall_s"],
    "stats.events_io_s": ["wall_s"],
    "stats.critpath_s": ["wall_s"],
}

# Timed layer -> relative slowdown of its median that flags it.  Each is 1.5
# times the largest difference between the medians of two separate sets of
# runs of the same code (tests/data/<workload>-a/-b.jsonl) on any workload
# and variant, rounded up to a whole percent, and at least 3%.  The largest
# differences were: workloads.build_s 4.6%, core.build_s 9.7%, mem.load_s
# 9.5%, core.run_s 3.6%, workloads.check_s 13.3%, stats.report_s 1.9%,
# stats.events_io_s 3.9%, stats.critpath_s 1.7%.
LAYER_THRESHOLDS = {
    "workloads.build_s": 0.07,
    "core.build_s": 0.15,
    "mem.load_s": 0.15,
    "core.run_s": 0.06,
    "workloads.check_s": 0.20,
    "stats.report_s": 0.03,
    "stats.events_io_s": 0.06,
    "stats.critpath_s": 0.03,
}

EXACT_PREFIXES = ("sim.", "core.", "sched.", "dma.", "mem.", "noc.")


def split_variant(name):
    """'core.run_s.orig' -> ('core.run_s', 'orig'); no suffix -> (name, None)."""
    for v in ("orig", "pf"):
        if name.endswith("." + v):
            return name[: -len(v) - 1], v
    return name, None


def kind_of(name):
    """'time', 'exact' or 'context' for a per-layer metric name."""
    base, _ = split_variant(name)
    if base in LAYER_MAP:
        return "time"
    if base.startswith(EXACT_PREFIXES):
        return "exact"
    return "context"


def threshold(layer):
    return LAYER_THRESHOLDS[split_variant(layer)[0]]


def attributed(layer):
    base, v = split_variant(layer)
    return [m.replace("{v}", v or "") for m in LAYER_MAP[base]]


def load_runs(path):
    runs = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            runs.append(json.loads(line))
    if not runs:
        raise ValueError(f"{path}: no result lines")
    return runs


def values_by_metric(runs):
    out = {}
    for r in runs:
        for name, m in r.get("metrics", {}).items():
            out.setdefault(name, []).append(m["value"])
    return out


def failed_runs(runs, side):
    """Runs that are not correct or that count a failed run."""
    return [f"{side} run {i}" for i, r in enumerate(runs, 1)
            if r.get("correct") is not True or r.get("failed") != 0]


def compare(base_runs, cand_runs, bench):
    """Returns a dict of flagged metrics; see the module docstring."""
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base = values_by_metric(base_runs)
    cand = values_by_metric(cand_runs)
    res = {"failed_runs": (failed_runs(base_runs, "base")
                           + failed_runs(cand_runs, "cand")),
           "missing": [f"{n} (only in {'base' if n in base else 'cand'})"
                       for n in sorted(set(base) ^ set(cand))],
           "e2e_regressions": [], "layer_regressions": [], "attributed": {},
           "counter_changes": [], "drift": [], "rows": []}
    for name in sorted(set(base) & set(cand)):
        b, c = base[name], cand[name]
        bm, cm = statistics.median(b), statistics.median(c)
        delta = (cm - bm) / bm if bm else (0.0 if cm == bm else float("inf"))
        flag = ""
        if name in e2e:
            worse = -delta if e2e[name]["better"] == "higher" else delta
            if worse > e2e[name]["bound"]:
                flag = "REGRESSION"
                res["e2e_regressions"].append(name)
        elif kind_of(name) == "time":
            if delta > threshold(name):
                flag = "REGRESSION"
                res["layer_regressions"].append(name)
                res["attributed"][name] = attributed(name)
        elif kind_of(name) == "exact":
            for side, vals in (("base", b), ("cand", c)):
                if len(set(vals)) > 1:
                    flag = "DRIFT"
                    res["drift"].append(f"{name} ({side})")
            if not flag and b[0] != c[0]:
                flag = "CHANGED"
                res["counter_changes"].append(name)
        res["rows"].append((name, bm, cm, delta, flag))
    return res


def flagged(res):
    return bool(res["failed_runs"] or res["missing"]
                or res["e2e_regressions"] or res["layer_regressions"]
                or res["counter_changes"] or res["drift"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("cand")
    args = ap.parse_args()
    bench = json.loads(BENCHMARK_JSON.read_text())
    res = compare(load_runs(args.base), load_runs(args.cand), bench)
    print(f"{'metric':<34} {'base':>12} {'cand':>12} {'delta':>8}  flag")
    for name, bm, cm, delta, flag in res["rows"]:
        print(f"{name:<34} {bm:>12.6g} {cm:>12.6g} {delta:>+8.1%}  {flag}")
    for layer, metrics in res["attributed"].items():
        print(f"{layer} slower: attributed to {', '.join(metrics)}")
    for run in res["failed_runs"]:
        print(f"FAILED: {run} is not correct")
    for name in res["missing"]:
        print(f"MISSING: {name}")
    return 1 if flagged(res) else 0


if __name__ == "__main__":
    sys.exit(main())
