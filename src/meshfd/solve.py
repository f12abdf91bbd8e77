"""Global assembly and solution: square collocation and discrete least squares.

Each collocation point is paired with one patch through a sigma map; the
row for that point is the operator applied to the patch's cardinal basis
(or, equivalently, the exactness-condition weights), supported on the
patch's influence set.  Dirichlet nodes receive exact unit rows.  Square
systems go through a sparse direct factorization; overdetermined systems
are solved in the least-squares sense with an explicit normal-equation
residual check and a flagged minimum-norm fallback on rank deficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    AssemblyError,
    ConfigError,
    ContractError,
    InvalidInputError,
    MeshfdError,
    SingularSystemError,
)
from .linalg import RANK_RTOL
from .ndf import exactness_rows
from .operators import Operator
from .spline import OverlapSplineSpace, lagrange_row

# Acceptance bound for the normal-equation residual of a least-squares solve.
NORMAL_EQUATION_RTOL = 1e-7

# Largest dense fallback for rank-deficient least squares, in matrix entries.
_DENSE_FALLBACK_ENTRIES = 4_000_000


@dataclass(frozen=True, eq=False)
class SigmaPair:
    """One collocation point, the patch differentiated there, and its node id (if any)."""

    point: np.ndarray
    patch: int
    node: int | None = None


@dataclass(frozen=True, eq=False)
class SigmaMap:
    strategy: str
    pairs: tuple[SigmaPair, ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True, eq=False)
class RowMeta:
    point: np.ndarray
    patch: int
    residual: float
    dirichlet: bool


@dataclass(frozen=True, eq=False)
class GlobalSystem:
    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    row_meta: tuple[RowMeta, ...]

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def worst_row_residual(self) -> float:
        return max((m.residual for m in self.row_meta), default=0.0)


@dataclass(frozen=True)
class RankReport:
    full_rank: bool
    cond_estimate: float | None
    note: str = ""


@dataclass(frozen=True, eq=False)
class Solution:
    nodal_values: np.ndarray
    residual_norm: float
    rank_report: RankReport


def _check_region(space, pairs):
    """Every collocation point must lie in the influence region of its patch."""
    points = np.array([p.point for p in pairs]).reshape(len(pairs), space.nodes.d)
    patch = np.array([p.patch for p in pairs], dtype=int)
    centers, radii = space.table.influence.centers[patch], space.table.influence.radii[patch]
    dist = np.linalg.norm(points - centers, axis=1)
    bad = np.flatnonzero((dist > 2.0 * radii) & (dist > 0.0))
    if bad.size:
        j = bad[0]
        raise ConfigError(
            f"collocation point {points[j].tolist()} lies outside the influence region "
            f"of patch {patch[j]} (distance {dist[j]:.3g}, stencil radius {radii[j]:.3g})"
        )


def build_sigma(space: OverlapSplineSpace, strategy: str, collocation_points=None) -> SigmaMap:
    """Assign a patch to every collocation point.

    ``same-index``: collocation at the nodes; a node takes the patch centered
    on it, or the nearest containing patch when it has none (the endpoint
    redirection of one-dimensional layouts).  ``nearest-node``: explicit
    points, each taking the patch with the nearest center; exact duplicates
    take successively farther centers so repeated points carry distinct
    patches.  ``per-set-aggregate``: every patch contributes a block of
    collocation points, one per influence node, with a block-constant
    assignment.  Each strategy yields distinct (point, patch) pairs by
    construction.
    """
    nodes, infl = space.nodes, space.table.influence
    pairs: list[SigmaPair] = []

    if strategy == "same-index":
        has = np.flatnonzero(infl.center_index >= 0)
        node, first = np.unique(infl.center_index[has], return_index=True)
        centered = dict(zip(node.tolist(), has[first].tolist()))  # each node's first patch centred on it
        node_of, patch_of, _ = space.incidence
        for j in range(nodes.n):
            pi = centered.get(j)
            if pi is None:
                lo, hi = np.searchsorted(node_of, [j, j + 1])
                members = patch_of[lo:hi].tolist()
                pi = min(
                    members,
                    key=lambda i: (float(np.linalg.norm(nodes.points[j] - infl.centers[i])), i),
                )
            pairs.append(SigmaPair(point=nodes.points[j], patch=pi, node=j))

    elif strategy == "nearest-node":
        if collocation_points is None:
            raise ConfigError("nearest-node strategy needs explicit collocation points")
        pts = np.atleast_2d(np.asarray(collocation_points, dtype=float))
        if pts.shape[1] != nodes.d:
            raise InvalidInputError("collocation points must match the node dimension")
        centers = infl.centers
        tol = 1e-12 * max(1.0, nodes.diameter)
        dup_count: dict[bytes, int] = {}
        for y in pts:
            rank = dup_count.get(y.tobytes(), 0)
            dup_count[y.tobytes()] = rank + 1
            dist = np.linalg.norm(centers - y, axis=1)
            order = np.lexsort((np.arange(len(centers)), dist))
            if rank >= len(order):
                raise ConfigError(
                    f"collocation point {y.tolist()} repeats more often than there are patches"
                )
            pi = int(order[rank])
            node_dist, node_idx = nodes.tree.query(y)
            node = int(node_idx) if node_dist <= tol else None
            pairs.append(SigmaPair(point=y, patch=pi, node=node))

    elif strategy == "per-set-aggregate":
        owner = np.repeat(np.arange(space.m), infl.sizes).tolist()
        pairs = [SigmaPair(point=nodes.points[j], patch=pi, node=j)
                 for pi, j in zip(owner, infl.indices.tolist())]

    else:
        raise ConfigError(f"unknown sigma strategy {strategy!r}")

    _check_region(space, pairs)
    return SigmaMap(strategy=strategy, pairs=tuple(pairs))


def _attempt(fn, *args):
    """fn(*args), or the MeshfdError it raised."""
    try:
        return fn(*args)
    except MeshfdError as exc:
        return exc


def assemble(
    space: OverlapSplineSpace,
    op: Operator,
    f,
    sigma: SigmaMap,
    route: str = "exactness",
    dirichlet_data=None,
) -> GlobalSystem:
    """Build the sparse global system for a sigma map.

    Row j holds the differentiation weights of patch sigma(j) at y_j and
    the right-hand side f(y_j); rows at flagged Dirichlet nodes are exact
    unit rows with ``dirichlet_data`` (falling back to f) on the right.
    The exactness route computes all other rows in one call to the batched
    engine `ndf.exactness_rows` on the space's patch table; the
    ``"lagrange"`` route is the independent cardinal construction, one
    `spline.lagrange_row` per row.  A row that fails raises `AssemblyError`
    carrying its row and patch index.
    """
    if route not in ("exactness", "lagrange"):
        raise ConfigError(f"unknown assembly route {route!r}")
    if route == "lagrange" and not space.interpolatory:
        raise ContractError("the cardinal-basis route requires an interpolatory space")
    pairs = sigma.pairs
    boundary = space.nodes.boundary_mask
    dirichlet = [
        bool(op.identity_on_boundary and p.node is not None and boundary[p.node]) for p in pairs
    ]
    free = [j for j, dj in enumerate(dirichlet) if not dj]
    if route == "lagrange":
        rows = [_attempt(lagrange_row, space, pairs[j].patch, op, pairs[j].point) for j in free]
        rows = [row if isinstance(row, MeshfdError) else (row.weights, row.residual) for row in rows]
    else:
        rows = exactness_rows(op, [pairs[j].point for j in free], space.table, [pairs[j].patch for j in free])
    for j, row in zip(free, rows):
        if isinstance(row, MeshfdError):
            pair = pairs[j]
            raise AssemblyError(
                f"row {j} (patch {pair.patch}, point {pair.point.tolist()}): {row}",
                row=j, patch=pair.patch,
            ) from row
    computed = dict(zip(free, rows))

    m, offsets, indices = len(pairs), space.table.influence.offsets, space.table.influence.indices
    cols, vals, meta = [], [], []
    rhs = np.empty(m)
    for j, pair in enumerate(pairs):
        if dirichlet[j]:
            cols.append(np.array([pair.node]))
            vals.append(np.array([1.0]))
            data = dirichlet_data if dirichlet_data is not None else f
            rhs[j] = float(data(pair.point))
            residual = 0.0
        else:
            weights, residual = computed[j]
            cols.append(indices[offsets[pair.patch]:offsets[pair.patch + 1]])
            vals.append(weights)
            rhs[j] = float(f(pair.point))
        meta.append(RowMeta(point=pair.point, patch=pair.patch, residual=float(residual),
                            dirichlet=dirichlet[j]))
    row_idx = np.repeat(np.arange(m), [c.size for c in cols])
    matrix = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (row_idx, np.concatenate(cols))), shape=(m, space.nodes.n)
    )
    matrix.sort_indices()
    return GlobalSystem(matrix=matrix, rhs=rhs, row_meta=tuple(meta))


def _inverse_one_norm_estimate(lu, n, max_iters=5) -> float:
    """Deterministic Hager-style lower estimate of the inverse 1-norm."""
    x = np.full(n, 1.0 / n)
    estimate = 0.0
    for _ in range(max_iters):
        y = lu.solve(x)
        estimate = max(estimate, float(np.linalg.norm(y, 1)))
        s = np.sign(y)
        s[s == 0.0] = 1.0
        z = lu.solve(s, trans="T")
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= float(z @ x):
            break
        x = np.zeros(n)
        x[j] = 1.0
    return estimate


def _cond_estimate_from_lu(matrix, lu) -> float:
    one_norm = float(np.max(np.abs(matrix).sum(axis=0)))
    try:
        inv_norm = _inverse_one_norm_estimate(lu, matrix.shape[0])
    except Exception:
        return float("nan")
    return one_norm * inv_norm


def _dense_cond(matrix) -> float:
    if matrix.shape[0] > 2500:
        return float("inf")
    try:
        return float(np.linalg.cond(matrix.toarray(), 1))
    except Exception:
        return float("inf")


def solve_square(gs: GlobalSystem) -> Solution:
    """Direct sparse factorization of a square collocation system."""
    m, n = gs.shape
    if m != n:
        raise InvalidInputError(f"square solve needs M == N, got {m} x {n}")
    a = gs.matrix.tocsc()
    try:
        lu = scipy.sparse.linalg.splu(a)
        u = lu.solve(gs.rhs)
    except (RuntimeError, ValueError) as exc:
        raise SingularSystemError(
            f"singular collocation system: {exc}", cond_estimate=_dense_cond(gs.matrix)
        ) from None
    if not np.all(np.isfinite(u)):
        raise SingularSystemError(
            "factorization produced non-finite values", cond_estimate=_dense_cond(gs.matrix)
        )
    residual = float(np.linalg.norm(gs.matrix @ u - gs.rhs))
    cond = _cond_estimate_from_lu(gs.matrix, lu)
    return Solution(
        nodal_values=u,
        residual_norm=residual,
        rank_report=RankReport(full_rank=True, cond_estimate=cond),
    )


def solve_least_squares(gs: GlobalSystem, equilibrate: bool = False) -> Solution:
    """Minimum-residual solution of an overdetermined system.

    Solves the normal equations through a sparse factorization and accepts
    the result only if the normal-equation residual passes its relative
    bound; otherwise falls back to a dense minimum-norm solve and flags the
    rank deficiency.

    ``equilibrate`` divides every row and its right-hand side by the row's
    2-norm before minimizing.  That changes the functional (it weights the
    residual components), so it is off by default; it is a conditioning
    control, not plain least squares.
    """
    m, n = gs.shape
    if m < n:
        raise InvalidInputError(f"least squares needs M >= N, got {m} x {n}")
    a = gs.matrix.tocsc()
    b = gs.rhs
    if equilibrate:
        row_norms = np.sqrt(np.asarray(gs.matrix.multiply(gs.matrix).sum(axis=1)).ravel())
        scale = 1.0 / np.where(row_norms > 0.0, row_norms, 1.0)
        a = scipy.sparse.diags(scale).dot(a).tocsc()
        b = scale * b
    a_scale = float(scipy.sparse.linalg.norm(a, "fro"))
    b_scale = float(np.linalg.norm(b))
    bound = NORMAL_EQUATION_RTOL * max(a_scale * b_scale, 1e-300)

    u = None
    note = ""
    full_rank = True
    try:
        lu = scipy.sparse.linalg.splu((a.T @ a).tocsc())
        cand = lu.solve(a.T @ b)
        if np.all(np.isfinite(cand)):
            normal_defect = float(np.linalg.norm(a.T @ (a @ cand - b)))
            if normal_defect <= bound:
                u = cand
                note = f"normal-equation residual {normal_defect:.3e} within bound {bound:.3e}"
    except (RuntimeError, ValueError):
        pass

    if u is None:
        full_rank = False
        if m * n <= _DENSE_FALLBACK_ENTRIES:
            dense = a.toarray()
            u, _, rank, _ = np.linalg.lstsq(dense, b, rcond=RANK_RTOL)
            full_rank = rank == n
            note = f"dense minimum-norm fallback, rank {rank} of {n}"
        else:
            result = scipy.sparse.linalg.lsqr(a, b, atol=1e-12, btol=1e-12)
            u = result[0]
            note = "iterative fallback (lsqr); rank not verified"

    residual = float(np.linalg.norm(gs.matrix @ u - gs.rhs))
    return Solution(
        nodal_values=u,
        residual_norm=residual,
        rank_report=RankReport(full_rank=bool(full_rank), cond_estimate=None, note=note),
    )
