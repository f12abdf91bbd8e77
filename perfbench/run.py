"""Layered benchmark for meshfd.

Run from the repository root; the library is imported from ``src/``.

    python3 perfbench/run.py --workload rbf-collocate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One run is one workload in one serial process with BLAS pinned to one
thread.  It repeats whole passes through the public pipeline until the
time is used up, checks every pass, and prints every metric by name and
unit.  The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A full report
with the environment, every pass and, when traced, every span is written
to ``.perfbench_out/``.  ``--workload all`` runs each workload in its own
process; with ``--trace 1`` it runs both an untraced and a traced process
per workload and prints the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOAD_NAMES = ("rbf-collocate", "rbf-lsq-aggregate", "fivepoint-grid", "pum-eval")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_DIR = ".perfbench_out"
MIN_PASSES = 2  # the generator's node order, then the seeded relabelling
CHILD_TIMEOUT_S = 600

# The metrics of the last output line, with their units.
END_TO_END = {
    "setup_s": "s",
    "stage_s": "s",
    "total_s": "s",
    "result_max_err": "1",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "geometry.generate_s": "s",
    "geometry.knn_s": "s",
    "geometry.knn_calls": "count",
    "spline.build_space_s": "s",
    "spaces.unisolvency_rank_s": "s",
    "spaces.unisolvency_rank_calls": "count",
    "spline.patches": "count",
    "spline.failing_patches": "count",
    "solve.build_sigma_s": "s",
    "solve.assemble_s": "s",
    "solve.rows": "count",
    "solve.rows_per_patch": "count",
    "solve.nnz": "count",
    "ndf.weights_s": "s",
    "ndf.weights_calls": "count",
    "ndf.worst_row_residual": "1",
    "solve.factor_s": "s",
    "solve.splu_s": "s",
    "solve.residual_norm": "1",
    "solve.cond_estimate": "1",
    "solve.lsq_optimality": "1",
    "solve.lsq_fallbacks": "count",
    "spline.from_nodal_values_s": "s",
    "spline.restriction_s": "s",
    "pum.for_space_s": "s",
    "pum.blend_s": "s",
    "pum.us_per_point": "us",
    "pum.cover_mean": "count",
    "trace.total_s": "s",
}
# The eight end-to-end metrics of the printout; a workload lacks some of them.
REPORTED = {
    "setup_s": "s",
    "solve_s": "s",
    "eval_s": "s",
    "total_s": "s",
    "max_err": "1",
    "eval_max_err": "1",
    "peak_rss_mb": "MiB",
    "fail_rate": "1",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Layered benchmark for meshfd.")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    """Versions, BLAS build and thread count, and CPUs, recorded with every result."""
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = int(getter())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ.get(k) for k in BLAS_PIN},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


# ---------------------------------------------------------------- one run


def measure(wl, seed: int, seconds: float, trace: bool):
    """Repeat checked passes until ``seconds`` are used up.

    Pass 0 takes the nodes in the generator's order; later passes take the
    seeded relabelling and are compared with pass 0.  A pass that raises or
    fails a check is counted as failed and the run goes on.  A speed
    sampler runs throughout; each pass keeps its stage times both as
    measured (``raw_durations``) and at the reference host speed
    (``durations``, from which the metrics are taken), each stage scaled
    by the samples taken while it ran.
    """
    from pipeline import check_pass, check_relabelling, make_inputs, run_pass, run_probes
    from speed import SpeedSampler
    from tracing import Recorder

    small = wl.small()
    run_pass(small, make_inputs(small, seed, permute=False), Recorder(False))

    inputs = [make_inputs(wl, seed, permute=False), make_inputs(wl, seed, permute=True)]
    records, ref, last, probes = [], None, None, None
    with SpeedSampler() as sampler:
        rec = Recorder(trace, sampler)
        deadline = time.perf_counter() + seconds
        while True:
            started = time.perf_counter()
            i = len(records)
            given = inputs[min(i, 1)]
            rec.begin_pass(i)
            record = {"pass": i, "node_order": "generator" if i == 0 else "seeded"}
            try:
                res = run_pass(wl, given, rec)
                first, last_mark = rec.windows["pass"]
                record["raw_durations"] = dict(rec.durations)
                record["host_scale"] = sampler.scale_between(first, last_mark) or 1.0
                record["speed_samples"] = last_mark - first
                record["durations"] = sampler.scale(rec.durations, rec.windows, outer="pass")
                check_pass(wl, res, given)
                if i == 0:
                    ref = res
                elif ref is None:
                    res.checks.append({"name": "reference pass", "ok": False,
                                       "detail": "the generator-order pass failed"})
                else:
                    check_relabelling(wl, ref, res, given)
                record["accuracy"] = res.accuracy
                record["checks"] = res.checks
                record["failed"] = not all(c["ok"] for c in res.checks)
                last = (res, given)
            except Exception:  # a failed pass is counted and the run goes on
                record["failed"] = True
                record["error"] = traceback.format_exc()
            records.append(record)
            spent = time.perf_counter() - started
            reserve = spent if trace else 0.0  # the probes cost about one pass
            if len(records) >= MIN_PASSES and time.perf_counter() + spent + reserve > deadline:
                break

        if trace and last is not None:
            rec.begin_pass(None)
            probes = run_probes(wl, last[0], last[1], rec)
            factors = sampler.scale({name: 1.0 for name in probes}, rec.windows)
            for name, probe in probes.items():
                probe["times"] = [t * factors[name] for t in probe["times"]]
    return records, last, probes, rec


def host_speed(records) -> dict:
    """How the passes were put on the reference speed scale."""
    import statistics

    timed = [r for r in records if "host_scale" in r]
    if not timed:
        return {}
    scales = [r["host_scale"] for r in timed]
    return {
        "scale_median": statistics.median(scales),
        "scale_min": min(scales),
        "scale_max": max(scales),
        "samples_per_pass": statistics.median(r["speed_samples"] for r in timed),
        "unscaled_total_s": statistics.median(r["raw_durations"]["pass"] for r in timed),
    }


def _stage_samples(records, names) -> list[float]:
    return [sum(r["durations"].get(n, 0.0) for n in names) for r in records if "durations" in r]


def _metric(samples, unit: str) -> dict:
    from tracing import summarize

    return {**summarize(samples), "unit": unit}


def _constant(value, unit: str) -> dict:
    return {"median": float(value), "n": 1, "unit": unit}


def end_to_end_metrics(wl, records) -> dict:
    """The printout's eight end-to-end metrics plus stage_s and result_max_err."""
    from pipeline import EVAL_STAGES, SETUP_STAGES, SOLVE_STAGES

    done = [r for r in records if "accuracy" in r]
    solves = wl.sigma is not None
    m = {
        "setup_s": _metric(_stage_samples(records, SETUP_STAGES), "s"),
        "total_s": _metric(_stage_samples(records, ("pass",)), "s"),
        "max_err": _metric([r["accuracy"]["max_err"] for r in done], "1"),
    }
    if solves:
        m["solve_s"] = _metric(_stage_samples(records, SOLVE_STAGES), "s")
        m["stage_s"] = m["solve_s"]
        m["result_max_err"] = m["max_err"]
    else:
        m["eval_s"] = _metric(_stage_samples(records, EVAL_STAGES), "s")
        m["eval_max_err"] = _metric([r["accuracy"]["eval_max_err"] for r in done], "1")
        m["stage_s"] = m["eval_s"]
        m["result_max_err"] = m["eval_max_err"]
    m["peak_rss_mb"] = _constant(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    failed = sum(r["failed"] for r in records)
    m["fail_rate"] = {"median": failed / len(records), "n": len(records), "unit": "1"}
    return m


def per_layer_metrics(wl, records, last, probes) -> dict:
    """Per-layer metrics of a traced run; a layer the workload never calls reads 0."""
    m = {}
    for name, stage in (
        ("geometry.generate_s", "geometry.generate"),
        ("spline.build_space_s", "spline.build_space"),
        ("solve.build_sigma_s", "solve.build_sigma"),
        ("solve.assemble_s", "solve.assemble"),
        ("solve.factor_s", "solve.factor"),
        ("spline.from_nodal_values_s", "spline.from_nodal_values"),
        ("spline.restriction_s", "spline.restriction"),
        ("pum.for_space_s", "pum.for_space"),
        ("pum.blend_s", "pum.blend"),
        ("trace.total_s", "pass"),
    ):
        if any(stage in r.get("durations", {}) for r in records):
            m[name] = _metric(_stage_samples(records, (stage,)), "s")
    for name in ("geometry.knn", "spaces.unisolvency_rank", "ndf.weights", "solve.splu"):
        if probes and name in probes:
            times = probes[name]["times"]
            m[name + "_s"] = {**_constant(sum(times), "s"), "per_call": _metric(times, "s")}
            if name != "solve.splu":
                m[name + "_calls"] = _constant(len(times), "count")
    if last is not None:
        res = last[0]
        m["spline.patches"] = _constant(res.space.m, "count")
        m["spline.failing_patches"] = _constant(len(res.space.failing_patches), "count")
        if wl.sigma is not None:
            rows = res.system.shape[0]
            cond = res.solution.rank_report.cond_estimate
            m["solve.rows"] = _constant(rows, "count")
            m["solve.rows_per_patch"] = _constant(rows / res.space.m, "count")
            m["solve.nnz"] = _constant(res.system.matrix.nnz, "count")
            m["ndf.worst_row_residual"] = _constant(res.system.worst_row_residual, "1")
            m["solve.residual_norm"] = _constant(res.solution.residual_norm, "1")
            if cond is not None:
                m["solve.cond_estimate"] = _constant(cond, "1")
        else:
            blend_s = m["pum.blend_s"]
            m["pum.us_per_point"] = {**blend_s, "median": 1e6 * blend_s["median"] / res.blended.size,
                                     "unit": "us"}
            if probes:
                m["pum.cover_mean"] = _constant(probes["pum.weights_at"]["cover_mean"], "count")
    done = [r for r in records if "accuracy" in r]
    if wl.least_squares and done:
        m["solve.lsq_optimality"] = _metric([r["accuracy"]["lsq_optimality"] for r in done], "1")
        m["solve.lsq_fallbacks"] = {"median": sum(r["accuracy"]["lsq_fallback"] for r in done),
                                    "n": len(done), "unit": "count"}
    for name, unit in PER_LAYER.items():
        m.setdefault(name, {"median": 0.0, "n": 0, "unit": unit, "absent": True})
    return m


def _fmt(value: float) -> str:
    if value == 0.0 or 1e-3 <= abs(value) < 1e5:
        return f"{value:.6g}"
    return f"{value:.4e}"


def _describe(name: str, entry: dict | None) -> str:
    if entry is None:
        return f"  {name:<30} n/a       (no such stage on this workload)"
    if entry.get("absent"):
        return f"  {name:<30} 0 {entry['unit']:<6} (layer not called on this workload)"
    text = f"  {name:<30} {_fmt(entry['median'])} {entry['unit']:<6}"
    if entry["n"] > 1:
        text += f" median of {entry['n']}"
        if "tail_percent" in entry:
            text += f", p{entry['tail_percent']:.1f} {_fmt(entry['tail_value'])}"
        else:
            text += " (no percentile has ten samples above it)"
    pc = entry.get("per_call")
    if pc and "tail_percent" in pc:
        text += (f"; per call median {_fmt(pc['median'])} s,"
                 f" p{pc['tail_percent']:.1f} {_fmt(pc['tail_value'])} s")
    return text


def run_one(args, root: Path) -> int:
    from pipeline import WORKLOADS
    from tracing import span_cost

    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)
    env = environment(args.seed)
    records, last, probes, rec = measure(wl, args.seed, args.seconds, trace)
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    e2e = end_to_end_metrics(wl, records)
    layer = per_layer_metrics(wl, records, last, probes) if trace else {}
    cost = span_cost() if trace else 0.0

    print(f"meshfd benchmark: workload {wl.name}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {'on' if trace else 'off'}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, BLAS threads {env['blas_threads']}, nproc {env['nproc']}")
    print(f"passes: {attempted} attempted, {failed} failed")
    speed = host_speed(records)
    if speed:
        print(f"host speed: {speed['samples_per_pass']:g} samples per pass; times are scaled to "
              f"the reference speed by {speed['scale_median']:.3f} (median; range "
              f"{speed['scale_min']:.3f} to {speed['scale_max']:.3f}); unscaled total_s "
              f"median {_fmt(speed['unscaled_total_s'])} s")
    for r in records:
        for c in r.get("checks", []):
            if not c["ok"]:
                print(f"  FAILED pass {r['pass']}: {c['name']}: {c['detail']}")
        if "error" in r:
            print(f"  FAILED pass {r['pass']} raised:\n{r['error']}")
    inconsistent = [name for name, pr in (probes or {}).items() if not pr["consistent"]]
    for name in inconsistent:
        print(f"  FAILED probe {name}: it did not reproduce the pass's result")
    relabelled = [r["accuracy"] for r in records if "relabel_change" in r.get("accuracy", {})]
    if relabelled:
        changes = [a["relabel_change"] for a in relabelled]
        affected = [a["relabel_affected"] for a in relabelled]
        print(f"relabelling: accuracy changed by {max(changes):.2e} (relative) with "
              f"{max(affected)} tie-broken stencils feeding the result")
    print("end-to-end metrics:")
    for name in REPORTED:
        print(_describe(name, e2e.get(name)))
    print("  stage_s is solve_s on a solve workload and eval_s on pum-eval;"
          " result_max_err is max_err or eval_max_err likewise")
    if trace:
        print("per-layer metrics:")
        for name in PER_LAYER:
            print(_describe(name, layer[name]))
        pass_spans = sum(1 for sp in rec.spans if sp["pass"] is not None) / attempted
        print(f"  tracing overhead: {pass_spans:g} spans per pass at {1e6 * cost:.2f} us each;"
              " compare trace.total_s with total_s of an untraced run")

    chosen = layer if trace else e2e
    names = PER_LAYER if trace else END_TO_END
    metrics = {n: {"value": float(chosen[n]["median"]), "unit": chosen[n]["unit"]} for n in names}

    correct = failed == 0 and not inconsistent
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": trace,
        "environment": env, "host_speed": speed, "correct": correct, "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "per_layer": layer, "passes": records,
        "probes_consistent": {name: pr["consistent"] for name, pr in (probes or {}).items()},
        "spans": rec.spans, "span_cost_s": cost,
    }
    with open(out_dir / f"{wl.name}-seed{args.seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=float)

    if last is None:
        print("no pass completed; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------- all workloads


def run_all(args, root: Path) -> int:
    """Each workload in its own process; with tracing, untraced and traced runs both."""
    traces = (0, 1) if args.trace else (0,)
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                status = 1
                continue
            with open(root / OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json") as fh:
                results[(name, trace)] = json.load(fh)
            print()

    print(f"summary, seed {args.seed}, {args.seconds:g} s per run:")
    print(f"  {'workload':<18} " + " ".join(f"{n:>13}" for n in REPORTED))
    for name in WORKLOAD_NAMES:
        rep = results.get((name, 0))
        if rep is None:
            continue
        cells = []
        for metric in REPORTED:
            entry = rep["end_to_end"].get(metric)
            cells.append(f"{_fmt(entry['median']):>13}" if entry else f"{'n/a':>13}")
        print(f"  {name:<18} " + " ".join(cells))
    print("  units: " + ", ".join(f"{n} {u}" for n, u in REPORTED.items()))
    if args.trace:
        print("tracing overhead (traced pass total against the untraced run's):")
        for name in WORKLOAD_NAMES:
            plain, traced = results.get((name, 0)), results.get((name, 1))
            if plain and traced:
                a = plain["end_to_end"]["total_s"]["median"]
                b = traced["per_layer"]["trace.total_s"]["median"]
                print(f"  {name:<18} untraced {a:.4f} s, traced {b:.4f} s, "
                      f"difference {100.0 * (b - a) / a:+.1f}%; span bookkeeping "
                      f"{1e6 * traced['span_cost_s']:.2f} us per span")
        print("  differences between two processes include the machine's run-to-run spread")
    summary = {
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {f"{n}/trace{t}": r["correct"] for (n, t), r in results.items()},
    }
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "meshfd" / "__init__.py").is_file():
        print(f"no meshfd sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    os.environ.update(BLAS_PIN)  # before numpy is first imported
    sys.path.insert(0, str(src))
    import meshfd

    if Path(meshfd.__file__).resolve().parent != (src / "meshfd").resolve():
        print(f"meshfd was imported from {meshfd.__file__}, not from {src}", file=sys.stderr)
        return 2
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
