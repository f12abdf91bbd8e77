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
from .geometry import NodeSet, generate_grid, generate_scattered, influences, load_nodes, save_nodes
from .ndf import weights_kernel, weights_poly
from .operators import IDENTITY, LAPLACIAN, SECOND_DERIVATIVE_1D, Operator
from .problems import Problem, convergence_study, preset
from .pum import PartitionOfUnity, blend
from .solve import SigmaMap, assemble, build_sigma, solve_least_squares, solve_square
from .spaces import Kernel, KernelSpace, kernel_patch_recipe, poly_patch_recipe
from .spline import OverlapSplineSpace, build_space, dimension_analysis, from_nodal_values

_OPERATORS = {
    "identity": IDENTITY,
    "laplacian": LAPLACIAN,
    "second-derivative-1d": SECOND_DERIVATIVE_1D,
}


def _fmt(v) -> str:
    """Shortest decimal that round-trips the double."""
    return repr(float(v))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(doc) -> str:
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def build_nodeset(cfg) -> NodeSet:
    spec = cfg.get("nodes")
    if not spec:
        raise ConfigError("config needs a 'nodes' section")
    kind = spec.get("kind")
    if kind == "grid":
        d = int(spec["d"])
        bounds = spec.get("bounds") or [(0.0, 1.0)] * d
        return generate_grid(d, int(spec["n_per_axis"]), bounds)
    if kind == "scattered":
        d = int(spec["d"])
        bounds = spec.get("bounds") or [(0.0, 1.0)] * d
        return generate_scattered(
            d,
            int(spec["count"]),
            bounds,
            source=spec.get("source", "halton"),
            seed=int(cfg.get("seed", 0)),
            boundary_per_side=spec.get("boundary_per_side"),
        )
    if kind == "file":
        return load_nodes(spec["path"])
    raise ConfigError(f"unknown nodes kind {kind!r}")


def make_recipe(cfg):
    spec = cfg.get("space")
    if not spec:
        raise ConfigError("config needs a 'space' section")
    kind = spec["kind"]
    if kind == "poly":
        sublist = spec.get("sublist")
        if sublist is not None:
            sublist = [tuple(int(e) for e in a) for a in sublist]
        return poly_patch_recipe(int(spec["degree"]), sublist=sublist)
    aug = spec.get("augmentation_degree", "minimal")
    if kind == "gauss":
        kernel = Kernel("gauss", float(spec["shape"]))
    else:
        kernel = Kernel("polyharmonic", float(spec["exponent"]))
    return kernel_patch_recipe(kernel, augmentation_degree=aug)


def make_selector(cfg):
    spec = cfg.get("selector")
    if not spec:
        raise ConfigError("config needs a 'selector' section")
    if spec.get("kind") == "knn":
        return ("knn", int(spec["k"]))
    if spec.get("kind") == "range":
        return ("range", float(spec["radius"]))
    raise ConfigError(f"unknown selector kind {spec.get('kind')!r}")


def build_space_from_config(cfg, ns: NodeSet) -> OverlapSplineSpace:
    centers = cfg.get("centers", "all")
    if isinstance(centers, list):
        centers = np.asarray(centers, dtype=int)
    return build_space(
        ns, centers, make_selector(cfg), make_recipe(cfg), uncovered=cfg.get("uncovered", "error")
    )


def resolve_problem(cfg) -> Problem | None:
    spec = cfg.get("problem")
    if not spec:
        return None
    return preset(spec["preset"], bounds=spec.get("bounds"))


def resolve_operator(cfg, problem: Problem | None = None) -> Operator:
    spec = cfg.get("operator")
    if spec:
        kind = spec.get("kind")
        if kind not in _OPERATORS:
            raise ConfigError(f"unknown operator kind {kind!r} (general operators are library-only)")
        return _OPERATORS[kind]
    if problem is not None:
        return problem.operator
    raise ConfigError("config needs an 'operator' or a 'problem' section")


def sigma_from_config(cfg, space: OverlapSplineSpace, ns: NodeSet) -> SigmaMap:
    spec = cfg.get("strategy") or {"kind": "same-index"}
    kind = spec.get("kind", "same-index")
    if kind in ("same-index", "per-set-aggregate"):
        return build_sigma(space, kind)
    if kind == "nearest-node":
        coll = spec.get("collocation") or {"kind": "nodes"}
        ckind = coll.get("kind", "nodes")
        if ckind == "nodes":
            pts = ns.points
        elif ckind == "grid":
            d = ns.d
            bounds = coll.get("bounds") or [
                (float(ns.points[:, a].min()), float(ns.points[:, a].max())) for a in range(d)
            ]
            pts = generate_grid(d, int(coll["n_per_axis"]), bounds).points
        elif ckind == "points":
            pts = np.atleast_2d(np.asarray(coll["points"], dtype=float))
        else:
            raise ConfigError(f"unknown collocation kind {ckind!r}")
        return build_sigma(space, "nearest-node", collocation_points=pts)
    raise ConfigError(f"unknown strategy kind {kind!r}")


def _out_path(out_dir, name) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def write_report(cfg, command: str, results: dict, out_dir, timings=None) -> str:
    doc = {"command": command, "config": cfg, "results": results}
    if timings is not None:
        doc["timings"] = timings
    path = _out_path(out_dir, cfg["outputs"]["report"])
    with open(path, "w") as fh:
        fh.write(dump_json(doc))
    return path


def run_generate(cfg, out_dir) -> dict:
    ns = build_nodeset(cfg)
    path = _out_path(out_dir, cfg["outputs"]["nodes"])
    save_nodes(ns, path)
    return {
        "n_nodes": ns.n,
        "d": ns.d,
        "n_boundary": int(ns.boundary_mask.sum()),
        "nodes_file": cfg["outputs"]["nodes"],
    }


def run_stencil(cfg, out_dir) -> dict:
    spec = cfg.get("stencil")
    if not spec or "y" not in spec:
        raise ConfigError("stencil subcommand needs a 'stencil': {'y': [...]} section")
    ns = build_nodeset(cfg)
    y = np.asarray(spec["y"], dtype=float).reshape(-1)
    infl = influences(ns, y[None, :], make_selector(cfg))[0]
    space = make_recipe(cfg)(infl)
    problem = resolve_problem(cfg)
    op = resolve_operator(cfg, problem)
    if isinstance(space, KernelSpace):
        sw = weights_kernel(op, y, infl, space)
    else:
        sw = weights_poly(op, y, infl, space)
    row = {
        "y": [float(v) for v in y],
        "nodes": [int(i) for i in infl.indices],
        "weights": [float(w) for w in sw.weights],
        "residual": float(sw.residual),
    }
    with open(_out_path(out_dir, cfg["outputs"]["stencil"]), "w") as fh:
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
    with open(_out_path(out_dir, cfg["outputs"]["dim"]), "w") as fh:
        fh.write(dump_json(doc))
    return doc


def _write_solution_csv(path, ns: NodeSet, u_hat, problem: Problem | None):
    exact = problem.nodal_exact(ns) if problem is not None and problem.exact is not None else None
    with open(path, "w", newline="") as fh:
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
    problem = resolve_problem(cfg)
    if problem is None:
        raise ConfigError("solve needs a 'problem' section (presets carry rhs and boundary data)")
    ns, gs, solution = _solve_pipeline(cfg, problem)
    _write_solution_csv(_out_path(out_dir, cfg["outputs"]["solution"]), ns, solution.nodal_values, problem)
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
    if problem.exact is not None:
        exact = problem.nodal_exact(ns)
        interior = ns.interior_indices
        results["max_err_interior"] = float(
            np.max(np.abs(solution.nodal_values[interior] - exact[interior]))
        )
    return results


def _level_h(cfg_nodes, ns: NodeSet) -> float:
    if cfg_nodes["kind"] == "grid":
        bounds = cfg_nodes.get("bounds") or [(0.0, 1.0)] * int(cfg_nodes["d"])
        lo, hi = bounds[0]
        return (float(hi) - float(lo)) / (int(cfg_nodes["n_per_axis"]) - 1)
    # scattered: average spacing from the interior density
    d = ns.d
    volume = float(np.prod(ns.points.max(axis=0) - ns.points.min(axis=0)))
    interior = max(1, int((~ns.boundary_mask).sum()))
    return (volume / interior) ** (1.0 / d)


def run_converge(cfg, out_dir) -> dict:
    problem = resolve_problem(cfg)
    if problem is None:
        raise ConfigError("converge needs a 'problem' section")
    spec = cfg.get("levels")
    if not spec:
        raise ConfigError("converge needs a 'levels' section")
    if "n_per_axis" in spec:
        key, values = "n_per_axis", [int(v) for v in spec["n_per_axis"]]
    elif "count" in spec:
        key, values = "count", [int(v) for v in spec["count"]]
    else:
        raise ConfigError("levels must list 'n_per_axis' or 'count'")
    node_kind = (cfg.get("nodes") or {}).get("kind")
    if (key == "n_per_axis" and node_kind != "grid") or (key == "count" and node_kind != "scattered"):
        raise ConfigError(f"levels key {key!r} does not match nodes kind {node_kind!r}")

    def run_level(prob: Problem, level):
        level_cfg = json.loads(json.dumps(cfg))  # deep copy without shared state
        level_cfg["nodes"] = dict(cfg["nodes"])
        level_cfg["nodes"][key] = level
        ns, _, sol = _solve_pipeline(level_cfg, prob)
        return _level_h(level_cfg["nodes"], ns), ns, sol.nodal_values

    table = convergence_study(problem, run_level, values)
    path = _out_path(out_dir, cfg["outputs"]["table"])
    with open(path, "w", newline="") as fh:
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


def run_pum_eval(cfg, out_dir) -> dict:
    ns = build_nodeset(cfg)
    space = build_space_from_config(cfg, ns)
    values_spec = cfg.get("values") or {"kind": "exact"}
    if values_spec.get("kind") == "exact":
        problem = resolve_problem(cfg)
        if problem is None or problem.exact is None:
            raise ConfigError("values kind 'exact' needs a problem preset with an exact solution")
        values = problem.nodal_exact(ns)
    elif values_spec.get("kind") == "file":
        with open(values_spec["path"], newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != ["value"]:
            raise ConfigError("nodal value files carry a single 'value' column")
        values = np.array([float(r[0]) for r in rows[1:]])
        if values.shape[0] != ns.n:
            raise ConfigError(f"{values.shape[0]} values for {ns.n} nodes")
    else:
        raise ConfigError(f"unknown values kind {values_spec.get('kind')!r}")

    spline = from_nodal_values(space, values)
    pou = PartitionOfUnity.for_space(space)

    eval_spec = cfg.get("eval") or {"kind": "grid", "n_per_axis": 11}
    if eval_spec.get("kind") != "grid":
        raise ConfigError("pum-eval supports 'grid' evaluation specs")
    bounds = eval_spec.get("bounds") or [
        (float(ns.points[:, a].min()), float(ns.points[:, a].max())) for a in range(ns.d)
    ]
    pts = generate_grid(ns.d, int(eval_spec["n_per_axis"]), bounds).points

    path = _out_path(out_dir, cfg["outputs"]["pum"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{a + 1}" for a in range(ns.d)] + ["value"])
        for p in pts:
            writer.writerow([_fmt(v) for v in p] + [_fmt(blend(spline, pou, p))])
    return {"n_eval_points": int(pts.shape[0]), "pum_file": cfg["outputs"]["pum"]}


_RUNNERS = {
    "generate": run_generate,
    "stencil": run_stencil,
    "dim": run_dim,
    "solve": run_solve,
    "converge": run_converge,
    "pum-eval": run_pum_eval,
}


def run_command(command: str, raw_cfg: dict, out_dir=".", seed=None, timings=False):
    """Resolve a config, run one subcommand, and write its report."""
    cfg = resolve_config(raw_cfg, seed=seed)
    t0 = time.perf_counter()
    results = _RUNNERS[command](cfg, out_dir)
    elapsed = time.perf_counter() - t0
    write_report(cfg, command, results, out_dir, timings={"total_s": elapsed} if timings else None)
    return cfg, results
