"""Config-driven pipelines shared by the CLI subcommands.

All file outputs are deterministic for a fixed resolved config: floats are
written in their shortest round-trippable form, JSON keys are sorted, and
wall-clock timings only appear when explicitly requested.
"""

from __future__ import annotations

import csv
import json
import os
import time

import numpy as np

from .config import resolve_config
from .errors import ConfigError
from .geometry import (
    NodeSet,
    _as_bounds,
    _integer,
    generate_grid,
    generate_scattered,
    influences,
    load_nodes,
    save_nodes,
)
from .ndf import one_row
from .operators import Operator
from .problems import Problem, convergence_study, preset
from .pum import PartitionOfUnity
from .solve import SigmaMap, assemble, build_sigma, solve_least_squares, solve_square
from .spaces import Kernel, PatchTable, kernel_patch_recipe, poly_patch_recipe
from .spline import OverlapSplineSpace, build_space, dimension_analysis, from_nodal_values


def _fmt(v) -> str:
    """Shortest decimal that round-trips the double."""
    return repr(float(v))


def dump_json(doc) -> str:
    """Sorted-key JSON of a document that may hold numpy scalars and arrays."""
    return json.dumps(doc, indent=2, sort_keys=True, default=lambda o: o.tolist()) + "\n"


def _needed(cfg, name: str) -> dict:
    """A section the subcommand reads; `resolve_config` has checked its kind and keys."""
    if cfg[name] is None:
        raise ConfigError(f"config needs a {name!r} section")
    return cfg[name]


def _box(ns: NodeSet) -> np.ndarray:
    """The nodes' bounding box, what a null ``bounds`` of an evaluation or collocation grid means."""
    return np.column_stack([ns.points.min(axis=0), ns.points.max(axis=0)])


def build_nodeset(cfg) -> NodeSet:
    spec = _needed(cfg, "nodes")
    if spec["kind"] == "file":
        return load_nodes(spec["path"])
    bounds = spec["bounds"] or (0.0, 1.0)  # the default (lo, hi) pair serves every axis
    if spec["kind"] == "grid":
        return generate_grid(spec["d"], spec["n_per_axis"], bounds)
    return generate_scattered(spec["d"], spec["count"], bounds, source=spec["source"], seed=cfg["seed"],
                              boundary_per_side=spec["boundary_per_side"])


def make_recipe(cfg):
    spec = _needed(cfg, "space")
    if spec["kind"] == "poly":
        return poly_patch_recipe(spec["degree"], sublist=spec["sublist"])
    kernel = Kernel("gauss", spec["shape"]) if spec["kind"] == "gauss" else Kernel("polyharmonic", spec["exponent"])
    return kernel_patch_recipe(kernel, augmentation_degree=spec["augmentation_degree"])


def make_selector(cfg):
    spec = _needed(cfg, "selector")
    return ("knn", spec["k"]) if spec["kind"] == "knn" else ("range", spec["radius"])


def build_space_from_config(cfg, ns: NodeSet) -> OverlapSplineSpace:
    centers = cfg["centers"]
    if isinstance(centers, list):  # node indices
        centers = np.array([_integer(c, "center indices must be integers") for c in centers], dtype=np.intp)
    return build_space(ns, centers, make_selector(cfg), make_recipe(cfg), uncovered=cfg["uncovered"])


def resolve_problem(cfg) -> Problem | None:
    return None if cfg["problem"] is None else preset(cfg["problem"]["preset"])


def resolve_operator(cfg, problem: Problem | None = None) -> Operator:
    if cfg["operator"] is not None:
        return Operator(cfg["operator"]["kind"])
    if problem is not None:
        return problem.operator
    raise ConfigError("config needs an 'operator' or a 'problem' section")


def sigma_from_config(cfg, space: OverlapSplineSpace, ns: NodeSet) -> SigmaMap:
    spec = cfg["strategy"]
    if spec["kind"] != "nearest-node":
        return build_sigma(space, spec["kind"])
    coll = spec["collocation"]
    if coll["kind"] == "nodes":
        pts = ns.points
    elif coll["kind"] == "grid":
        pts = generate_grid(ns.d, coll["n_per_axis"], coll["bounds"] or _box(ns)).points
    else:
        pts = coll["points"]
    return build_sigma(space, "nearest-node", collocation_points=pts)


def _out_path(out_dir, name) -> str:
    """``name`` under ``out_dir``, made if missing; a directory that cannot be made raises `ConfigError`."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out_dir}: {exc}") from None
    return os.path.join(out_dir, name)


def _open_out(out_dir, name, newline=None):
    """Output file ``name`` under ``out_dir``, open for writing; a path that cannot be opened raises `ConfigError`."""
    path = _out_path(out_dir, name)
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from None


def write_report(cfg, command: str, results: dict, out_dir, timings=None) -> None:
    doc = {"command": command, "config": cfg, "results": results}
    if timings is not None:
        doc["timings"] = timings
    with _open_out(out_dir, cfg["outputs"]["report"]) as fh:
        fh.write(dump_json(doc))


def run_generate(cfg, out_dir) -> dict:
    ns = build_nodeset(cfg)
    save_nodes(ns, _out_path(out_dir, cfg["outputs"]["nodes"]))
    return {
        "n_nodes": ns.n,
        "d": ns.d,
        "n_boundary": int(ns.boundary_mask.sum()),
        "nodes_file": cfg["outputs"]["nodes"],
    }


def run_stencil(cfg, out_dir) -> dict:
    y = _needed(cfg, "stencil")["y"]
    ns = build_nodeset(cfg)
    y = y if isinstance(y, list) else [y]  # a bare number is a 1-D point
    table = PatchTable.of_recipes([(influences(ns, [y], make_selector(cfg)), make_recipe(cfg))])
    problem = resolve_problem(cfg)
    op = resolve_operator(cfg, problem)
    sw = one_row(op, table.influence.centers[0], table, 0)
    row = {
        "y": [float(v) for v in sw.point],
        "nodes": [int(i) for i in sw.influence.indices],
        "weights": [float(w) for w in sw.weights],
        "residual": sw.residual,
    }
    with _open_out(out_dir, cfg["outputs"]["stencil"]) as fh:
        fh.write(dump_json(row))
    return row


def run_dim(cfg, out_dir) -> dict:
    ns = build_nodeset(cfg)
    space = build_space_from_config(cfg, ns)
    report = dimension_analysis(space)
    doc = {
        "dim": report.dim_total,
        "ker": report.dim_ker_T,
        "im": report.dim_im_T,
        "lower_bound": report.lower_bound,
        "interpolatory": report.interpolatory,
    }
    with _open_out(out_dir, cfg["outputs"]["dim"]) as fh:
        fh.write(dump_json(doc))
    return doc


def _write_solution_csv(out_dir, name, ns: NodeSet, u_hat, exact: np.ndarray | None):
    with _open_out(out_dir, name, newline="") as fh:
        writer = csv.writer(fh)
        header = [f"x{a + 1}" for a in range(ns.d)] + ["u_hat"]
        if exact is not None:
            header += ["u_exact", "abs_err"]
        writer.writerow(header)
        for i in range(ns.n):
            row = [_fmt(v) for v in ns.points[i]] + [_fmt(u_hat[i])]
            if exact is not None:
                row += [_fmt(exact[i]), _fmt(abs(u_hat[i] - exact[i]))]
            writer.writerow(row)


def _solve_pipeline(cfg, problem: Problem):
    """Operator, nodes, space, sigma, assembly and solve; returns (nodes, system, solution)."""
    op = resolve_operator(cfg, problem)
    ns = build_nodeset(cfg)
    space = build_space_from_config(cfg, ns)
    sigma = sigma_from_config(cfg, space, ns)
    gs = assemble(space, op, problem.rhs, sigma, route=cfg["route"], dirichlet_data=problem.dirichlet)
    solution = solve_square(gs) if cfg["mode"] == "collocate" else solve_least_squares(gs)
    return ns, gs, solution


def run_solve(cfg, out_dir) -> dict:
    problem = preset(_needed(cfg, "problem")["preset"])  # presets carry rhs and boundary data
    ns, gs, solution = _solve_pipeline(cfg, problem)
    exact = problem.nodal_exact(ns) if problem.exact is not None else None
    _write_solution_csv(out_dir, cfg["outputs"]["solution"], ns, solution.nodal_values, exact)
    cond = solution.rank_report.cond_estimate
    results = {
        "M": gs.shape[0],
        "N": gs.shape[1],
        "residual_norm": solution.residual_norm,
        "worst_row_residual": gs.worst_row_residual,
        "full_rank": solution.rank_report.full_rank,
        "cond_estimate": cond if cond is not None and np.isfinite(cond) else None,
        "note": solution.rank_report.note,
        "solution_file": cfg["outputs"]["solution"],
    }
    if exact is not None:
        interior = ns.interior_indices
        results["max_err_interior"] = float(
            np.max(np.abs(solution.nodal_values[interior] - exact[interior]))
        )
    return results


def _level_h(cfg_nodes, ns: NodeSet) -> float:
    if cfg_nodes["kind"] == "grid":  # one (lo, hi) pair may serve every axis, as in `build_nodeset`
        lo, hi = _as_bounds(cfg_nodes["bounds"] or (0.0, 1.0), ns.d)[0]
        return float(hi - lo) / (cfg_nodes["n_per_axis"] - 1)
    # scattered: average spacing from the interior density
    d = ns.d
    volume = float(np.prod(ns.points.max(axis=0) - ns.points.min(axis=0)))
    interior = max(1, int((~ns.boundary_mask).sum()))
    return (volume / interior) ** (1.0 / d)


def run_converge(cfg, out_dir) -> dict:
    problem = preset(_needed(cfg, "problem")["preset"])
    spec = _needed(cfg, "levels")
    key = "count" if spec["n_per_axis"] is None else "n_per_axis"
    node_kind = _needed(cfg, "nodes")["kind"]
    if node_kind != {"n_per_axis": "grid", "count": "scattered"}[key]:
        raise ConfigError(f"levels key {key!r} does not match nodes kind {node_kind!r}")

    def run_level(prob: Problem, level):
        level_cfg = json.loads(json.dumps(cfg))  # deep copy without shared state
        level_cfg["nodes"] = dict(cfg["nodes"])
        level_cfg["nodes"][key] = level
        ns, _, sol = _solve_pipeline(level_cfg, prob)
        return _level_h(level_cfg["nodes"], ns), ns, sol.nodal_values

    table = convergence_study(problem, run_level, spec[key])
    with _open_out(out_dir, cfg["outputs"]["table"], newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h", "N", "max_err", "observed_order"])
        for row in table:
            writer.writerow(
                [_fmt(row.h), row.n_nodes, _fmt(row.max_err),
                 "" if row.observed_order is None else _fmt(row.observed_order)]
            )
    return {
        "levels": [
            {
                "level": r.level,
                "h": r.h,
                "N": r.n_nodes,
                "max_err": r.max_err,
                "observed_order": r.observed_order,
            }
            for r in table
        ],
        "table_file": cfg["outputs"]["table"],
    }


def _read_values(path) -> np.ndarray:
    """The 'value' column of a nodal value file; a row that is not one number raises `ConfigError` naming it."""
    if not isinstance(path, str):
        raise ConfigError(f"a nodal value file path must be a string, got {path!r}")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read nodal value file {path}: {exc}") from None
    if not rows or rows[0] != ["value"]:
        raise ConfigError("nodal value files carry a single 'value' column")
    values = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            (value,) = row
            values.append(float(value))
        except ValueError:
            raise ConfigError(f"nodal value file {path}, line {line}: {row!r} is not one number") from None
    return np.array(values)


def run_pum_eval(cfg, out_dir) -> dict:
    ns = build_nodeset(cfg)
    space = build_space_from_config(cfg, ns)
    if cfg["values"]["kind"] == "exact":
        problem = resolve_problem(cfg)
        if problem is None or problem.exact is None:
            raise ConfigError("values kind 'exact' needs a problem preset with an exact solution")
        values = problem.nodal_exact(ns)
    else:
        values = _read_values(cfg["values"]["path"])
        if values.shape[0] != ns.n:
            raise ConfigError(f"{values.shape[0]} values for {ns.n} nodes")

    spline = from_nodal_values(space, values)
    pou = PartitionOfUnity.for_space(space)

    pts = generate_grid(ns.d, cfg["eval"]["n_per_axis"], cfg["eval"]["bounds"] or _box(ns)).points

    with _open_out(out_dir, cfg["outputs"]["pum"], newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{a + 1}" for a in range(ns.d)] + ["value"])
        for p, value in zip(pts, pou.evaluate(spline, pts)):
            writer.writerow([_fmt(v) for v in p] + [_fmt(value)])
    return {"n_eval_points": int(pts.shape[0]), "pum_file": cfg["outputs"]["pum"]}


# subcommand: (its pipeline, its help text)
COMMANDS = {
    "generate": (run_generate, "generate a node cloud and write the node CSV"),
    "stencil": (run_stencil, "print one numerical-differentiation row as JSON"),
    "dim": (run_dim, "dimension analysis of an overlap-spline space"),
    "solve": (run_solve, "assemble and solve a boundary-value problem"),
    "converge": (run_converge, "run a refinement study and write the rate table"),
    "pum-eval": (run_pum_eval, "blend nodal data into a global function on an evaluation grid"),
}


def run_command(command: str, raw_cfg: dict, out_dir=".", seed=None, timings=False):
    """Resolve a config, run one subcommand, and write its report."""
    cfg = resolve_config(raw_cfg, seed=seed)
    t0 = time.perf_counter()
    results = COMMANDS[command][0](cfg, out_dir)
    elapsed = time.perf_counter() - t0
    write_report(cfg, command, results, out_dir, timings={"total_s": elapsed} if timings else None)
    return cfg, results
