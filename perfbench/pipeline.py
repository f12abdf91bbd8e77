"""The four benchmark workloads: inputs, one timed pass, checks and probes.

A pass calls only meshfd's public functions, in pipeline order: node cloud
(geometry), patch build (spline/spaces), then either sigma map, assembly
and solve (ndf/solve) or nodal fit, restriction and partition-of-unity
blending (spline/pum).  Checks and probes run outside the timed pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from meshfd import (
    Kernel,
    KernelSpace,
    NodeSet,
    PartitionOfUnity,
    assemble,
    blend,
    build_sigma,
    build_space,
    from_nodal_values,
    generate_grid,
    generate_scattered,
    kernel_patch_recipe,
    knn,
    poly_patch_recipe,
    preset,
    restriction,
    solve_least_squares,
    solve_square,
    unisolvency_rank,
    weights_kernel,
    weights_poly,
)
from meshfd.ndf import EXACTNESS_RTOL
from meshfd.spline import CONNECTION_RTOL

BOX = [(0.0, 1.0), (0.0, 1.0)]
PROBLEM = preset("poisson2d")
FIVE_POINT_SUBLIST = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2))

SETUP_STAGES = ("geometry.generate", "spline.build_space")
SOLVE_STAGES = ("solve.build_sigma", "solve.assemble", "solve.factor")
EVAL_STAGES = ("spline.from_nodal_values", "spline.restriction", "pum.for_space", "pum.blend")

# Bound on ||A^T r|| / (||A||_F ||r||) for the least-squares solution.  The
# library reaches about 1e-13 on rbf-lsq-aggregate; a wrong minimizer gives
# values near 1e-2 or above.
LSQ_OPTIMALITY_RTOL = 1e-10

# Relative change of the accuracy metric allowed between two node orders
# whose stencils feed the same rows: rounding, amplified by the solve.
# Relabelling moves max_err by up to 2e-8 on fivepoint-grid (condition
# estimate 6e6) and 1e-9 on rbf-collocate; one interior stencil swapped at
# a distance tie moves it by 3e-5.
PERMUTATION_RTOL = 1e-6

# Relative slack when deciding that two stencil members are equidistant.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    cloud: str  # "halton": interior count plus boundary layer; "grid": points per axis
    size: int
    space: str  # "r3": r^3 with a degree-2 tail; "five-point": the {1, x, y, x^2, y^2} sublist
    k: int
    sigma: str | None  # None: nodal fit and PUM blending instead of a solve
    least_squares: bool = False
    eval_per_axis: int = 0

    def nodes(self) -> NodeSet:
        if self.cloud == "grid":
            return generate_grid(2, self.size, BOX)
        return generate_scattered(2, self.size, BOX, source="halton")

    def recipe(self):
        if self.space == "five-point":
            return poly_patch_recipe(2, sublist=FIVE_POINT_SUBLIST)
        return kernel_patch_recipe(Kernel("polyharmonic", 3.0), augmentation_degree=2)

    def small(self) -> "Workload":
        """The same pipeline on a tiny input, for warming up lazy imports and caches."""
        return replace(self, size=9 if self.cloud == "grid" else 100,
                       eval_per_axis=min(self.eval_per_axis, 5))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rbf-collocate", "halton", 6400, "r3", 12, "same-index"),
        Workload("rbf-lsq-aggregate", "halton", 400, "r3", 12, "per-set-aggregate",
                 least_squares=True),
        Workload("fivepoint-grid", "grid", 129, "five-point", 5, "same-index"),
        Workload("pum-eval", "halton", 1600, "r3", 12, None, eval_per_axis=65),
    )
}


@dataclass(frozen=True)
class Inputs:
    """What one pass receives: a node order and, for pum-eval, evaluation points."""

    order: np.ndarray
    nodal_values: np.ndarray  # manufactured solution at the reordered nodes
    eval_points: np.ndarray


def make_inputs(wl: Workload, seed: int, permute: bool) -> Inputs:
    """Seeded inputs.  The cloud itself is fixed; the seed only relabels it.

    The node order is the generator's own when ``permute`` is false and a
    seeded permutation otherwise.  Evaluation points are one uniform draw
    in each cell of an ``eval_per_axis``-squared grid over the box.
    """
    base = wl.nodes()
    order = np.arange(base.n)
    if permute:
        order = np.random.default_rng([seed, 0]).permutation(base.n)
    nodal = PROBLEM.nodal_exact(base)[order]
    m = wl.eval_per_axis
    cells = np.stack(np.meshgrid(np.arange(m), np.arange(m), indexing="ij"), axis=-1).reshape(-1, 2)
    jitter = np.random.default_rng([seed, 1]).random(cells.shape)
    return Inputs(order=order, nodal_values=nodal, eval_points=(cells + jitter) / max(m, 1))


@dataclass
class PassResult:
    nodes: NodeSet
    space: object
    sigma: object = None
    system: object = None
    solution: object = None
    spline: object = None
    restricted: np.ndarray | None = None
    pou: PartitionOfUnity | None = None
    blended: np.ndarray | None = None
    accuracy: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)


def run_pass(wl: Workload, inputs: Inputs, rec) -> PassResult:
    """One timed pass through the public pipeline; every call is a span."""
    with rec.span("pass"):
        with rec.span("geometry.generate"):
            base = wl.nodes()
            nodes = NodeSet(base.points[inputs.order], base.boundary_mask[inputs.order])
        with rec.span("spline.build_space"):
            space = build_space(nodes, "all", ("knn", wl.k), wl.recipe())
        out = PassResult(nodes=nodes, space=space)
        if wl.sigma is not None:
            with rec.span("solve.build_sigma"):
                out.sigma = build_sigma(space, wl.sigma)
            with rec.span("solve.assemble"):
                out.system = assemble(space, PROBLEM.operator, PROBLEM.rhs, out.sigma,
                                      dirichlet_data=PROBLEM.dirichlet)
            with rec.span("solve.factor"):
                solver = solve_least_squares if wl.least_squares else solve_square
                out.solution = solver(out.system)
        else:
            with rec.span("spline.from_nodal_values"):
                out.spline = from_nodal_values(space, inputs.nodal_values)
            with rec.span("spline.restriction"):
                out.restricted = restriction(out.spline)
            with rec.span("pum.for_space"):
                out.pou = PartitionOfUnity.for_space(space)
            with rec.span("pum.blend"):
                out.blended = np.array([blend(out.spline, out.pou, x) for x in inputs.eval_points])
    return out


# ---------------------------------------------------------------- checks


def _check(res: PassResult, name: str, ok, detail: str) -> None:
    res.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def lsq_optimality(matrix, u, rhs) -> float:
    """||A^T r|| / (||A||_F ||r||) with r = A u - b; zero at an exact minimizer."""
    r = matrix @ u - rhs
    denom = scipy.sparse.linalg.norm(matrix, "fro") * np.linalg.norm(r)
    return float(np.linalg.norm(matrix.T @ r) / denom) if denom > 0.0 else 0.0


def used_fallback(solution) -> bool:
    """True when solve_least_squares left the normal-equation path."""
    return not solution.rank_report.note.startswith("normal-equation")


def _five_point_defect(wl: Workload, res: PassResult, inputs: Inputs) -> float:
    """Largest entrywise distance of the interior rows from (1, 1, -4, 1, 1)/h^2."""
    n = wl.size
    h = 1.0 / (n - 1)
    inv = np.argsort(inputs.order)
    a = res.system.matrix[inv][:, inv].tocsr()  # back to grid numbering
    one_d = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n))
    eye = scipy.sparse.identity(n)
    expected = (scipy.sparse.kron(one_d, eye) + scipy.sparse.kron(eye, one_d)) / h**2
    interior = np.flatnonzero(~res.nodes.boundary_mask[inv])
    diff = (a[interior] - expected.tocsr()[interior]).tocoo()
    return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0


def check_pass(wl: Workload, res: PassResult, inputs: Inputs) -> None:
    """Fill ``res.accuracy`` and ``res.checks``; a failed check fails the pass."""
    interior = res.nodes.interior_indices
    if wl.sigma is not None:
        u = res.solution.nodal_values
        err = float(np.max(np.abs(u[interior] - inputs.nodal_values[interior])))
        res.accuracy["max_err"] = err
        _check(res, "max_err finite", np.isfinite(err), f"max_err {err:.6e}")
        worst = res.system.worst_row_residual
        _check(res, "worst_row_residual <= ndf.EXACTNESS_RTOL", worst <= EXACTNESS_RTOL,
               f"{worst:.3e} vs {EXACTNESS_RTOL:.0e}")
        if wl.least_squares:
            opt = lsq_optimality(res.system.matrix, u, res.system.rhs)
            res.accuracy["lsq_optimality"] = opt
            res.accuracy["lsq_fallback"] = int(used_fallback(res.solution))
            _check(res, "least-squares optimality", opt <= LSQ_OPTIMALITY_RTOL,
                   f"||A^T r||/(||A||_F ||r||) = {opt:.3e} vs {LSQ_OPTIMALITY_RTOL:.0e}")
        if wl.space == "five-point":
            defect = _five_point_defect(wl, res, inputs)
            tol = 1e-12 * (wl.size - 1) ** 2
            _check(res, "interior rows are the five-point stencil", defect <= tol,
                   f"entrywise defect {defect:.3e} vs {tol:.1e}")
    else:
        values = inputs.nodal_values
        conn = float(np.max(np.abs(res.restricted - values) / (1.0 + np.abs(values))))
        _check(res, "restriction reproduces the nodal values", conn <= CONNECTION_RTOL,
               f"{conn:.3e} vs spline.CONNECTION_RTOL {CONNECTION_RTOL:.0e}")
        res.accuracy["max_err"] = float(np.max(np.abs(res.restricted[interior] - values[interior])))
        exact = np.array([PROBLEM.exact(x) for x in inputs.eval_points])
        err = float(np.max(np.abs(res.blended - exact)))
        res.accuracy["eval_max_err"] = err
        _check(res, "eval_max_err finite", np.isfinite(err), f"eval_max_err {err:.6e}")


def headline_error(wl: Workload, res: PassResult) -> float:
    """The workload's accuracy metric: nodal error of a solve, blend error for pum-eval."""
    return res.accuracy["max_err" if wl.sigma is not None else "eval_max_err"]


def check_relabelling(wl: Workload, ref: PassResult, res: PassResult, inputs: Inputs) -> None:
    """Compare a relabelled pass with the reference order.

    kNN breaks exact distance ties by node index, so a relabelling may swap
    equidistant stencil members and nothing else.  Where no swapped stencil
    feeds a computed row (or, for pum-eval, the blend), the accuracy metric
    must agree to rounding; otherwise its change is recorded.
    """
    base_points = ref.nodes.points  # the reference pass uses the generator's order
    ref_sets = np.sort(np.array([p.influence.indices for p in ref.space.patches]), axis=1)
    inv = np.argsort(inputs.order)
    perm_idx = np.array([p.influence.indices for p in res.space.patches])
    perm_sets = np.sort(inputs.order[perm_idx][inv], axis=1)  # original labels, reference patch order
    differing = np.flatnonzero(np.any(ref_sets != perm_sets, axis=1))
    untied = []
    for q in differing:
        swapped = np.setxor1d(ref_sets[q], perm_sets[q])
        r_k = ref.space.patches[q].influence.radius
        dist = np.linalg.norm(base_points[swapped] - base_points[q], axis=1)
        if not np.all(np.abs(dist - r_k) <= TIE_RTOL * r_k):
            untied.append(int(q))
    _check(res, "relabelling changes stencils only at distance ties", not untied,
           f"{differing.size} stencils differ, {len(untied)} not at a tie {untied[:5]}")

    if wl.sigma is not None:
        dirichlet = ref.nodes.boundary_mask
        feeding = {pair.patch for pair in ref.sigma.pairs if not dirichlet[pair.node]}
        affected = [int(q) for q in differing if int(q) in feeding]
    else:
        affected = [int(q) for q in differing]
    before, after = headline_error(wl, ref), headline_error(wl, res)
    change = abs(after - before) / before
    res.accuracy["relabel_change"] = change
    res.accuracy["relabel_affected"] = len(affected)
    if not affected:
        _check(res, "accuracy unchanged by relabelling", change <= PERMUTATION_RTOL,
               f"relative change {change:.2e} vs {PERMUTATION_RTOL:.0e}")


# ---------------------------------------------------------------- probes


def _timed_calls(rec, name: str, fn, items) -> tuple[list, list[float]]:
    """Call fn on every item inside one span; return results and per-call times."""
    results, times = [], []
    with rec.span(name):
        for item in items:
            t0 = rec.clock()
            results.append(fn(item))
            times.append(rec.clock() - t0)
    return results, times


def run_probes(wl: Workload, res: PassResult, inputs: Inputs, rec) -> dict:
    """Call lower layers directly on a pass's own inputs; return per-call times.

    Each probe repeats work that the pass did inside a library call, so its
    total stands for that layer's share of the call.  ``consistent`` says
    whether the probe reproduced what the pass produced.
    """
    out: dict = {}
    nodes, patches = res.nodes, res.space.patches

    infl, t = _timed_calls(rec, "geometry.knn",
                           lambda p: knn(nodes, p.center, wl.k, center_index=p.center_node), patches)
    same = all(np.array_equal(a.indices, p.influence.indices) for a, p in zip(infl, patches))
    out["geometry.knn"] = {"times": t, "consistent": same}

    ranks, t = _timed_calls(rec, "spaces.unisolvency_rank",
                            lambda p: unisolvency_rank(p.space, p.influence.points), patches)
    same = all(r == p.rank for (r, _), p in zip(ranks, patches))
    out["spaces.unisolvency_rank"] = {"times": t, "consistent": same}

    if wl.sigma is not None:
        dirichlet = nodes.boundary_mask
        pairs = [pr for pr in res.sigma.pairs if pr.node is None or not dirichlet[pr.node]]

        def weights(pair):
            patch = patches[pair.patch]
            route = weights_kernel if isinstance(patch.space, KernelSpace) else weights_poly
            return route(PROBLEM.operator, pair.point, patch.influence, patch.space)

        rows, t = _timed_calls(rec, "ndf.weights", weights, pairs)
        worst = max((r.residual for r in rows), default=0.0)
        same = bool(np.isclose(worst, res.system.worst_row_residual, rtol=1e-9, atol=0.0))
        out["ndf.weights"] = {"times": t, "consistent": same}

        a = res.system.matrix.tocsc()
        target = (a.T @ a).tocsc() if wl.least_squares else a
        _, t = _timed_calls(rec, "solve.splu", scipy.sparse.linalg.splu, [target])
        out["solve.splu"] = {"times": t, "consistent": True}
    else:
        covers, t = _timed_calls(rec, "pum.weights_at", res.pou.weights_at, inputs.eval_points)
        same = all(abs(gamma.sum() - 1.0) <= 1e-12 for _, gamma in covers)
        out["pum.weights_at"] = {"times": t, "consistent": same,
                                 "cover_mean": float(np.mean([idx.size for idx, _ in covers]))}
    return out
