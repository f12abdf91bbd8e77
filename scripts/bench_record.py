#!/usr/bin/env python3
"""Write a checked-in record of benchmark runs: paired runs of two checkouts, or the runs of one.

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR OUT_JSON
    python3 scripts/bench_record.py CHECKOUT_DIR OUT_JSON

Each directory is a checkout in which ``perfbench/run.py`` wrote its reports
to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``.  Untraced reports of
one workload and seed form a pair.  For every workload and end-to-end
metric of ``BENCHMARK.json`` the record holds each side's median and
quartiles over its runs, the pairs the change won (ties count for neither
side), whether a gain is shown (at least nine wins in ten, and medians
apart by more than the parent's interquartile range) and whether the
change stays within the metric's regression bound.  It also holds the
attempted and failed pass counts, the per-layer medians of traced reports,
and the host and library versions the reports recorded.

Given one checkout, the record is one-sided: the same fields for that
checkout's runs alone (one per seed of ``perfbench/run.py --workload all``),
each metric's median and quartiles over them, and no pairs.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
HOST_KEYS = ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "cpus_usable", "machine")


def load_reports(checkout: Path) -> dict:
    """{(workload, seed, trace): report} of a checkout's benchmark reports."""
    reports = {}
    for path in sorted((checkout / ".perfbench_out").glob("*.json")):
        with open(path) as fh:
            rep = json.load(fh)
        reports[(rep["workload"], rep["seed"], int(rep["trace"]))] = rep
    return reports


def spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": [float(v) for v in values]}


def compare(metric: dict, parent: list, change: list) -> dict:
    """One metric over paired runs: each side's spread, the change's pair wins, gain and bound."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) < 0.0 for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    gain = sign * (p["median"] - c["median"])
    worse = sign * (c["median"] - p["median"]) / abs(p["median"]) if p["median"] else 0.0
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": p, "change": c, "pairs": len(parent), "change_wins": int(wins), "ties": int(ties),
        "relative_change": (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0,
        "gain_shown": bool(wins >= 0.9 * len(parent) and gain > p["q3"] - p["q1"]),
        "within_bound": bool(worse <= metric["bound"]),
    }


def record(parent_dir: Path, change_dir: Path, benchmark: dict) -> dict:
    parent, change = load_reports(parent_dir), load_reports(change_dir)
    workloads = {}
    for name in sorted({w for w, _, _ in change}):
        seeds = sorted(s for w, s, t in change if w == name and t == 0 and (w, s, 0) in parent)
        traced = [s for w, s, t in change if w == name and t == 1 and (w, s, 1) in parent]
        pairs = [(parent[(name, s, 0)], change[(name, s, 0)]) for s in seeds]
        entry = {
            "seeds": seeds,
            "attempted": {"parent": sum(p["attempted"] for p, _ in pairs),
                          "change": sum(c["attempted"] for _, c in pairs)},
            "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                       "change": sum(c["failed"] for _, c in pairs)},
            "end_to_end": {
                m["name"]: compare(m, [p["end_to_end"][m["name"]]["median"] for p, _ in pairs],
                                   [c["end_to_end"][m["name"]]["median"] for _, c in pairs])
                for m in benchmark["end_to_end"] if pairs
            },
        }
        if traced:
            entry["per_layer"] = {"seeds": sorted(traced), **{
                m["name"]: {side: float(np.median([reps[(name, s, 1)]["per_layer"][m["name"]]["median"]
                                                   for s in traced]))
                            for side, reps in (("parent", parent), ("change", change))}
                for m in benchmark["per_layer"]}}
        workloads[name] = entry
    return {
        "command": benchmark["command"],
        "seconds": sorted({rep["seconds"] for rep in change.values()}),
        "host": {side: hosts(reps) for side, reps in (("parent", parent), ("change", change))},
        "workloads": workloads,
    }


def hosts(reports: dict) -> list:
    """The distinct host and library versions of some reports."""
    seen = {json.dumps({k: rep["environment"].get(k) for k in HOST_KEYS}, sort_keys=True)
            for rep in reports.values()}
    return [json.loads(h) for h in sorted(seen)]


def one_sided(checkout: Path, benchmark: dict) -> dict:
    """The runs of one checkout: per workload, each metric's spread over its seeds, and no pairs."""
    reports = load_reports(checkout)
    workloads = {}
    for name in sorted({w for w, _, _ in reports}):
        runs = {t: [reports[k] for k in sorted(reports) if k[0] == name and k[2] == t] for t in (0, 1)}
        entry = {
            "seeds": [rep["seed"] for rep in runs[0]],
            "attempted": sum(rep["attempted"] for rep in runs[0]),
            "failed": sum(rep["failed"] for rep in runs[0]),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "better": m["better"],
                            **spread([rep["end_to_end"][m["name"]]["median"] for rep in runs[0]])}
                for m in benchmark["end_to_end"] if runs[0]
            },
        }
        if runs[1]:
            entry["per_layer"] = {"seeds": [rep["seed"] for rep in runs[1]], **{
                m["name"]: spread([rep["per_layer"][m["name"]]["median"] for rep in runs[1]])
                for m in benchmark["per_layer"]}}
        workloads[name] = entry
    return {
        "command": benchmark["command"],
        "seconds": sorted({rep["seconds"] for rep in reports.values()}),
        "host": hosts(reports),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", type=Path, nargs="+", help="PARENT_DIR CHANGE_DIR, or one CHECKOUT_DIR")
    ap.add_argument("out", type=Path)
    args = ap.parse_args(argv)
    if len(args.checkouts) > 2:
        ap.error("give two checkouts (parent and change) or one")
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    doc = record(*args.checkouts, benchmark) if len(args.checkouts) == 2 else one_sided(args.checkouts[0], benchmark)
    if not doc["workloads"]:
        print(f"no reports under {args.checkouts[-1] / '.perfbench_out'}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, entry in doc["workloads"].items():
        for metric, cmp in entry.get("end_to_end", {}).items():
            if "pairs" not in cmp:
                print(f"{name:<18} {metric:<15} median {cmp['median']:.6g}  quartiles "
                      f"{cmp['q1']:.6g} .. {cmp['q3']:.6g}  runs {len(cmp['runs'])}")
                continue
            print(f"{name:<18} {metric:<15} parent {cmp['parent']['median']:.6g}  change "
                  f"{cmp['change']['median']:.6g}  wins {cmp['change_wins']}/{cmp['pairs']}  "
                  f"gain {'shown' if cmp['gain_shown'] else 'not shown'}  "
                  f"{'within' if cmp['within_bound'] else 'OUTSIDE'} bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
