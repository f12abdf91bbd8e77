"""Global assembly and solution: square collocation and discrete least squares.

Each collocation point is paired with one patch through a sigma map; the
row for that point is the operator applied to the patch's cardinal basis
(or, equivalently, the exactness-condition weights; either route is one
call to the stencil engine), supported on the patch's influence set.
Dirichlet nodes receive exact unit rows.  Rows are arrays, not objects: a
`SigmaMap` holds each row's point, patch and node, a `GlobalSystem` each
row's residual and Dirichlet flag, and the CSR arrays are gathered straight
from the influence table.  A square solve imposes the
Dirichlet values exactly: the unit rows fix their nodes, the known columns
move to the right-hand side, and only the interior block goes through a
sparse direct factorization, its unknowns (and the interior rows with them)
in lexicographic order of their node coordinates, so that its fill does not
depend on how the nodes are labelled.  Overdetermined systems are solved in
the least-squares sense with an explicit normal-equation residual check and
a flagged minimum-norm fallback on rank deficiency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .errors import (
    AssemblyError,
    ConfigError,
    ContractError,
    InvalidInputError,
    SingularSystemError,
)
from .geometry import _distance, _floats, _sorted_rows, ranked_nearest
from .linalg import RANK_RTOL
from .ndf import exactness_rows
from .operators import Operator
from .problems import _field_values
from .spline import OverlapSplineSpace

# Acceptance bound for the normal-equation residual of a least-squares solve.
NORMAL_EQUATION_RTOL = 1e-7

# SuperLU policy of both solvers (a square solve's interior block B, the normal
# equations): minimum degree ordering on the pattern of B + B^T, symmetric mode,
# and a diagonal pivot kept unless below this share of its column's largest entry.
SQUARE_ORDERING = "MMD_AT_PLUS_A"
SQUARE_PIVOT_THRESH = 0.1
_SPLU = dict(permc_spec=SQUARE_ORDERING, diag_pivot_thresh=SQUARE_PIVOT_THRESH, options={"SymmetricMode": True})

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
    """Row j collocates at ``points[j]`` (M, d) on patch ``patch[j]``; ``node[j]`` is its node id, or -1."""

    strategy: str
    points: np.ndarray
    patch: np.ndarray
    node: np.ndarray

    @property
    def size(self) -> int:
        return len(self.patch)

    @cached_property
    def pairs(self) -> tuple[SigmaPair, ...]:
        """The rows as `SigmaPair` views, built on first access; node -1 shows as None."""
        return tuple(SigmaPair(y, p, None if j < 0 else j)
                     for y, p, j in zip(self.points, self.patch.tolist(), self.node.tolist()))


@dataclass(frozen=True, eq=False)
class GlobalSystem:
    """The sparse system; per row its exactness residual (0 for a unit row) and Dirichlet flag;
    per column its node's coordinates, ``points`` (N, d)."""

    matrix: scipy.sparse.csr_matrix
    rhs: np.ndarray
    residual: np.ndarray
    dirichlet: np.ndarray
    points: np.ndarray

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def worst_row_residual(self) -> float:
        return float(self.residual.max(initial=0.0))


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


def _check_region(space, points, patch):
    """Every collocation point must lie in the influence region of its patch."""
    centers, radii = space.table.influence.centers[patch], space.table.influence.radii[patch]
    dist = _distance(points - centers)
    bad = np.flatnonzero((dist > 2.0 * radii) & (dist > 0.0))
    if bad.size:
        j = bad[0]
        raise ConfigError(
            f"collocation point {points[j].tolist()} lies outside the influence region "
            f"of patch {patch[j]} (distance {dist[j]:.3g}, stencil radius {radii[j]:.3g})"
        )


def _nearest_centers(centers, points) -> np.ndarray:
    """Each point's patch by (exact distance, patch index); the r-th repeat of a point takes rank r."""
    key = np.unique(points + 0.0, axis=0, return_inverse=True)[1].reshape(-1)  # -0.0 equals 0.0
    order = np.argsort(key, kind="stable")
    rank = np.empty(len(points), dtype=int)
    rank[order] = np.arange(len(points)) - np.searchsorted(key[order], key[order])
    over = np.flatnonzero(rank >= len(centers))
    if over.size:
        raise ConfigError(f"collocation point {points[over[0]].tolist()} repeats more often than there are patches")
    return ranked_nearest(centers, points, rank)


def build_sigma(space: OverlapSplineSpace, strategy: str, collocation_points=None) -> SigmaMap:
    """Assign a patch to every collocation point.

    ``same-index``: collocation at the nodes; a node takes the first patch
    centered on it, or, when it has none (the endpoint redirection of
    one-dimensional layouts), the nearest patch it belongs to, ties going to
    the lower index.  ``nearest-node``: explicit points, each taking the
    patch with the nearest center; repeats of a point (``-0.0`` equals
    ``0.0``) take successively farther centers so repeated points carry
    distinct patches.  ``per-set-aggregate``: every patch contributes a
    block of collocation points, one per influence node, with a
    block-constant assignment.  Each strategy yields distinct (point,
    patch) pairs by construction.
    """
    nodes, infl = space.nodes, space.table.influence

    if strategy == "same-index":
        points, node, patch = nodes.points, np.arange(nodes.n), np.full(nodes.n, -1)
        has = np.flatnonzero(infl.center_index >= 0)
        centred, first = np.unique(infl.center_index[has], return_index=True)
        patch[centred] = has[first]
        if (patch < 0).any():
            node_of, patch_of, _ = space.incidence
            rest = np.flatnonzero(patch[node_of] < 0)  # memberships of the nodes no patch is centred on
            dist = _distance(points[node_of[rest]] - infl.centers[patch_of[rest]])
            offsets, nearest, _ = _sorted_rows(node_of[rest], patch_of[rest], dist, nodes.n)
            lone = np.flatnonzero(np.diff(offsets))  # each takes its row's first: the (distance, patch) minimum
            patch[lone] = nearest[offsets[lone]]

    elif strategy == "nearest-node":
        if collocation_points is None:
            raise ConfigError("nearest-node strategy needs explicit collocation points")
        points = np.atleast_2d(_floats(collocation_points, "collocation points"))
        if points.shape[1] != nodes.d:
            raise InvalidInputError("collocation points must match the node dimension")
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
        if bad.size:
            raise InvalidInputError(f"collocation point {bad[0]} is not finite: {points[bad[0]].tolist()}")
        patch = _nearest_centers(infl.centers, points)
        node_dist, node_idx = nodes.tree.query(points)
        node = np.where(node_dist <= 1e-12 * max(1.0, nodes.diameter), node_idx, -1)

    elif strategy == "per-set-aggregate":
        node, patch = infl.indices, np.repeat(np.arange(space.m), infl.sizes)
        points = nodes.points[node]

    else:
        raise ConfigError(f"unknown sigma strategy {strategy!r}")

    _check_region(space, points, patch)
    return SigmaMap(strategy=strategy, points=points, patch=patch, node=node)


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
    All other rows come from one call to the batched engine
    `ndf.exactness_rows` on the space's patch table; on the ``"lagrange"``
    route (interpolatory spaces only) it solves kernel patches by their
    nodal matrices, not their saddle systems.  A row that fails raises
    `AssemblyError` carrying its row and patch index.  A row's CSR columns
    are its patch's influence-table slice, and its values the engine's
    flat output.

    ``f`` and ``dirichlet_data`` map an (n, d) array of points to an (n,)
    array.  ``f`` is called once, on the points of the rows that are not
    Dirichlet rows, and the Dirichlet data once, on the Dirichlet rows'
    points; either set may be empty (0, d).  A result of another shape, a
    scalar included, raises `InvalidInputError` naming ``rhs`` or
    ``dirichlet_data``; a value that is not finite raises it naming its
    row and point.
    """
    if route == "lagrange" and not space.interpolatory:
        raise ContractError("the cardinal-basis route requires an interpolatory space")
    infl, m = space.table.influence, sigma.size
    dirichlet = (sigma.node >= 0) & space.nodes.boundary_mask[sigma.node] & bool(op.identity_on_boundary)
    free = np.flatnonzero(~dirichlet)
    points, patch = sigma.points[free], sigma.patch[free]
    weights, residual, errors = exactness_rows(op, points, space.table, patch, route)
    if errors:
        r = min(errors)
        raise AssemblyError(f"row {free[r]} (patch {patch[r]}, point {points[r].tolist()}): {errors[r]}",
                            row=int(free[r]), patch=int(patch[r])) from errors[r]

    sizes = np.where(dirichlet, 1, infl.sizes[sigma.patch])
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    row = np.repeat(np.arange(m), sizes)  # each entry's row
    data, indices, at = np.ones(indptr[-1]), sigma.node[row], ~dirichlet[row]  # a unit row: 1.0 at its node
    data[at] = weights
    indices[at] = infl.indices[(np.arange(indptr[-1]) + (infl.offsets[sigma.patch] - indptr[:-1])[row])[at]]
    matrix = scipy.sparse.csr_matrix((data, indices, indptr), shape=(m, space.nodes.n))
    matrix.sort_indices()
    rhs = np.empty(m)
    rhs[free] = _field_values(f, points, "rhs")
    name, bc = ("rhs", f) if dirichlet_data is None else ("dirichlet_data", dirichlet_data)
    rhs[dirichlet] = _field_values(bc, sigma.points[dirichlet], name)
    bad = np.flatnonzero(~np.isfinite(rhs))
    if bad.size:
        j = bad[0]
        raise InvalidInputError(f"{'Dirichlet value' if dirichlet[j] else 'right-hand side'} of row {j} "
                                f"at point {sigma.points[j].tolist()} is not finite: {rhs[j]}")
    row_residual = np.zeros(m)
    row_residual[free] = residual
    return GlobalSystem(matrix=matrix, rhs=rhs, residual=row_residual, dirichlet=dirichlet,
                        points=space.nodes.points)


def _cond_estimate_from_lu(matrix, lu) -> float:
    """``||B||_1`` times `onenormest` of ``B^-1`` by the factors (t=1: Hager's, no random draw); NaN if it fails."""
    inverse = scipy.sparse.linalg.LinearOperator(matrix.shape, lu.solve, lambda x: lu.solve(x, trans="T"), dtype=float)
    try:
        return float(np.max(np.abs(matrix).sum(axis=0))) * float(scipy.sparse.linalg.onenormest(inverse, t=1))
    except Exception:
        return float("nan")


def solve_square(gs: GlobalSystem) -> Solution:
    """Direct sparse solve of a square collocation system, Dirichlet unknowns eliminated.

    Every flagged Dirichlet row must be a unit row (one stored entry, 1.0);
    it fixes its node's value to its right-hand side exactly, and the known
    columns move to the right-hand side of the interior rows.  Only the
    interior block (interior rows by unfixed nodes) is factored.  Its
    unknowns are taken in lexicographic order of their node coordinates
    (first coordinate slowest, the order of `geometry.generate_grid`), and
    the interior rows by the same permutation, so row k still pairs with
    unknown k as in index order; two labellings of one node set thus factor
    the same block.  The factorization uses a minimum-degree ordering of the
    block's symmetrized pattern and a diagonal pivot preference
    (`SQUARE_ORDERING`, `SQUARE_PIVOT_THRESH`).  The residual is that of the
    full system; the condition estimate is the block's, from its factors by
    scipy's deterministic `onenormest`.  When the estimate times machine
    epsilon reaches 1 the solution keeps no digit: it is still returned,
    with ``full_rank=False`` and a note; so it is when the estimate fails
    (NaN), as no digit is verified.  A failed factorization (an exactly zero
    pivot) and two unit rows on one node raise `SingularSystemError` with
    estimate ``inf``; a non-finite solution of finite data raises it with
    the estimate of its factors.  A right-hand side or Dirichlet value that
    is not finite raises `InvalidInputError` naming its row before anything
    is factored.
    """
    m, n = gs.shape
    if m != n:
        raise InvalidInputError(f"square solve needs M == N, got {m} x {n}")
    bad = np.flatnonzero(~np.isfinite(gs.rhs))
    if bad.size:
        j = bad[0]
        raise InvalidInputError(f"{'Dirichlet value' if gs.dirichlet[j] else 'right-hand side'} of row {j} "
                                f"is not finite: {gs.rhs[j]}")
    a = gs.matrix.tocsr()
    rows = np.flatnonzero(gs.dirichlet)
    start = a.indptr[rows]
    unit = a.indptr[rows + 1] - start == 1
    unit[unit] = a.data[start[unit]] == 1.0
    if not unit.all():
        raise InvalidInputError(f"Dirichlet row {rows[~unit][0]} is not a unit row (one entry, 1.0)")
    known = a.indices[start]
    fixed = np.zeros(n, dtype=bool)
    fixed[known] = True
    if np.count_nonzero(fixed) < known.size:
        twice = np.flatnonzero(np.bincount(known, minlength=n) > 1)[0]
        raise SingularSystemError(f"two Dirichlet rows fix node {twice}: the interior block is not square",
                                  cond_estimate=float("inf"))
    u = np.zeros(n)
    u[known] = gs.rhs[rows]
    inner, free = np.flatnonzero(~gs.dirichlet), np.flatnonzero(~fixed)
    p = np.lexsort(gs.points[free].T[::-1])  # the first coordinate is the primary key
    inner, free = inner[p], free[p]
    interior = a[inner]
    block = interior[:, free].tocsc()
    try:
        lu = scipy.sparse.linalg.splu(block, **_SPLU)
        u[free] = lu.solve(gs.rhs[inner] - interior @ u)
    except (RuntimeError, ValueError) as exc:
        raise SingularSystemError(f"singular collocation system: {exc}", cond_estimate=float("inf")) from None
    cond = _cond_estimate_from_lu(block, lu) if free.size else 1.0  # all unit rows: a permutation
    if not np.all(np.isfinite(u)):
        raise SingularSystemError("factorization produced non-finite values", cond_estimate=cond)
    residual = float(np.linalg.norm(gs.matrix @ u - gs.rhs))
    eps = np.finfo(float).eps
    if np.isnan(cond):
        note = "interior-block condition estimate failed: no digit of the solution is verified"
    elif cond * eps >= 1.0:
        note = (f"interior-block condition estimate {cond:.3e} reaches 1/eps = {1.0 / eps:.3e}: "
                "the solution keeps no digit")
    else:
        note = ""
    return Solution(
        nodal_values=u,
        residual_norm=residual,
        rank_report=RankReport(full_rank=not note, cond_estimate=cond, note=note),
    )


def solve_least_squares(gs: GlobalSystem) -> Solution:
    """Minimum-residual solution of an overdetermined system.

    Factors the normal equations with the square solver's SuperLU policy
    (`_SPLU`) and accepts the result only if the normal-equation residual
    passes its relative bound; otherwise falls back to a dense minimum-norm
    solve and flags the rank deficiency.
    """
    m, n = gs.shape
    if m < n:
        raise InvalidInputError(f"least squares needs M >= N, got {m} x {n}")
    a = gs.matrix.tocsc()
    b = gs.rhs
    a_scale = float(scipy.sparse.linalg.norm(a, "fro"))
    b_scale = float(np.linalg.norm(b))
    bound = NORMAL_EQUATION_RTOL * max(a_scale * b_scale, 1e-300)

    u = None
    note = ""
    full_rank = True
    try:
        lu = scipy.sparse.linalg.splu((a.T @ a).tocsc(), **_SPLU)
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

    if not np.all(np.isfinite(u)):
        full_rank, note = False, f"{note}; the solution is not finite"
    residual = float(np.linalg.norm(gs.matrix @ u - gs.rhs))
    return Solution(
        nodal_values=u,
        residual_norm=residual,
        rank_report=RankReport(full_rank=bool(full_rank), cond_estimate=None, note=note),
    )
