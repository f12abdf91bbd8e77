"""Numerical differentiation weights by exactness on a local space.

A weight row approximates ``Lv(y) ~ sum_i w_i v(x_i)`` over a set of
influence; the weights are determined by requiring the formula to be
exact for every element of a generating space.  Polynomial spaces lead to
a transposed Vandermonde system; kernel spaces with a polynomial tail
lead to the symmetric saddle system whose multiplier block is discarded.

There is one exactness implementation, the batched engine
`weights_batch`: rows whose patch spaces share a shape (space type,
stencil size, basis or tail exponents, kernel) are stacked and solved
together, chunk by chunk.  `weights_poly` and `weights_kernel` are
one-row batches of it, and a row's result does not depend on the rows it
is stacked with.  The cardinal (Lagrange) rows of `spline.lagrange_row`
are the independent second route: they solve the patch's nodal matrix
(its basis at its own nodes) and share no solve with this engine.

When the exactness conditions do not pin the weights down uniquely, the
minimum-2-norm solution is returned; an inconsistent system raises with
rank diagnostics instead of silently returning a bad row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidInputError,
    MeshfdError,
    NotAnInterpolationSetError,
    UnsolvableExactnessError,
)
from .geometry import InfluenceSet, NodeSet, knn
from .linalg import RANK_RTOL, numerical_rank
from .operators import IDENTITY, LAPLACIAN, SECOND_DERIVATIVE_1D, Operator  # noqa: F401 (re-export)
from .spaces import (
    KernelSpace,
    PolySpace,
    apply_operator,
    kernel_derivative,
    monomial_derivatives,
    operator_terms,
    poly_patch_recipe,
    poly_space_dim,
    unisolvency_rank,
)

# A produced row must reproduce its generating space to this relative defect.
EXACTNESS_RTOL = 1e-8

# Rows stacked into one solve; keeps the transient arrays of a chunk at a few MB.
CHUNK_ROWS = 256

# `unisolvent_influence` gives up at this multiple of the polynomial dimension.
GROWTH_CAP = 3


@dataclass(frozen=True, eq=False)
class StencilWeights:
    """One numerical-differentiation row: weights aligned with the influence set."""

    point: np.ndarray
    influence: InfluenceSet
    weights: np.ndarray
    residual: float


def _defects(w, e, t) -> np.ndarray:
    """`exactness_defect` of stacked rows: w (R, n), e (R, n, k), t (R, k)."""
    lhs = (w[:, None, :] @ e)[:, 0, :]
    term_scale = (np.abs(w)[:, None, :] @ np.abs(e))[:, 0, :]
    denom = np.maximum(1.0, np.maximum(np.abs(t), term_scale))
    return np.max(np.abs(lhs - t) / denom, axis=1)


def exactness_defect(weights, basis_at_nodes, targets) -> float:
    """Max relative defect of ``sum_i w_i p_k(x_i) - t_k`` over basis index k.

    The denominator includes the magnitude sum of the weighted terms so that
    rows with large weights and heavy cancellation (second-order stencils at
    small spacing) are judged relative to their own scale.
    """
    w = np.asarray(weights, dtype=float).reshape(1, -1)
    b = np.atleast_2d(np.asarray(basis_at_nodes, dtype=float))[None]
    t = np.asarray(targets, dtype=float).reshape(1, -1)
    return float(_defects(w, b, t)[0])


def weights_poly(op: Operator, y, infl: InfluenceSet, ps: PolySpace) -> StencilWeights:
    """Weights exact on a polynomial space (a one-row `weights_batch`).

    Square unisolvent stencils give the unique row; a stencil larger than
    the space dimension gives the minimum-2-norm row.  A target outside the
    row space of the evaluation matrix is unsolvable and raises.
    """
    return _one_row(op, y, infl, ps)


def weights_kernel(op: Operator, y, infl: InfluenceSet, ks: KernelSpace) -> StencilWeights:
    """Weights exact on a kernel space with polynomial tail (a one-row `weights_batch`).

    Solves ``[[K, P], [P^T, 0]] [w; lam] = [LK(y, .); Lq(y)]`` and discards
    the multipliers; exactness then holds for the moment-constrained kernel
    combinations and the whole tail.
    """
    return _one_row(op, y, infl, ks)


def _one_row(op, y, infl, space) -> StencilWeights:
    row = weights_batch(op, [y], [infl], [space])[0]
    if isinstance(row, MeshfdError):
        raise row
    return row


def weights_batch(op: Operator, points, influences, spaces) -> list:
    """Exactness weights for many rows: row i is ``op`` at ``points[i]`` on its patch.

    Returns one entry per row, a `StencilWeights` or the `MeshfdError` that
    row raised, so a caller can report a failure with its own context.
    Rows are grouped by patch-space shape and solved in stacked chunks of
    `CHUNK_ROWS`; every check of a single row is applied row by row, and a
    row's weights and residual do not depend on the rows stacked with it.
    """
    out: list = [None] * len(points)
    groups: dict[tuple, list[int]] = {}
    ys = []
    for i, (y, infl, space) in enumerate(zip(points, influences, spaces)):
        y = np.asarray(y, dtype=float).reshape(-1)
        ys.append(y)
        try:
            key = _shape_key(y, infl, space)
        except MeshfdError as exc:
            out[i] = exc
            continue
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        for start in range(0, len(members), CHUNK_ROWS):
            chunk = members[start : start + CHUNK_ROWS]
            rows = _chunk_or_rows(op, [ys[i] for i in chunk], [influences[i] for i in chunk],
                                  [spaces[i] for i in chunk])
            for i, row in zip(chunk, rows):
                out[i] = row
    return out


def _shape_key(y, infl: InfluenceSet, space) -> tuple:
    """Rows with equal keys stack into one batched system."""
    if y.shape != (space.d,) or infl.points.shape[1] != space.d:
        raise InvalidInputError(f"point or stencil dimension differs from the {space.d}-dimensional space")
    if isinstance(space, KernelSpace):
        if not np.array_equal(space.centers, infl.points):
            raise InvalidInputError("kernel space centers must be the influence nodes")
        tail = None if space.aug is None else space.aug.exponents
        return ("kernel", space.d, infl.size, space.kernel, tail)
    return ("poly", space.d, infl.size, space.exponents)


def _chunk_or_rows(op, ys, infls, spaces) -> list:
    """Solve a chunk; when a chunk-wide step raises, solve its rows one at a time."""
    try:
        return _solve_chunk(op, ys, infls, spaces)
    except MeshfdError as exc:
        if len(ys) == 1:
            return [exc]
        return [_chunk_or_rows(op, [y], [i], [s])[0] for y, i, s in zip(ys, infls, spaces)]


def _solve_chunk(op, ys, infls, spaces) -> list:
    y = np.array(ys)
    x = np.stack([infl.points for infl in infls])
    out: list = [None] * len(ys)
    if op.kind == "identity":  # Kronecker row when y is a stencil node
        hits = np.all(x == y[:, None, :], axis=2)
        for r in np.flatnonzero(hits.any(axis=1)):
            w = np.zeros(x.shape[1])
            w[np.argmax(hits[r])] = 1.0
            out[r] = StencilWeights(point=y[r], influence=infls[r], weights=w, residual=0.0)
    todo = [r for r in range(len(ys)) if out[r] is None]
    if todo:
        solve = _kernel_rows if isinstance(spaces[0], KernelSpace) else _poly_rows
        rows = solve(op, y[todo], x[todo], [spaces[r] for r in todo])
        for r, row in zip(todo, rows):
            out[r] = row if isinstance(row, MeshfdError) else StencilWeights(
                point=y[r], influence=infls[r], weights=row[0], residual=row[1]
            )
    return out


def _operator_coefficients(op: Operator, d: int, y) -> tuple[list, np.ndarray]:
    """Derivative multi-indices of the operator and their coefficients at each point.

    Multi-indices are sorted, so a row sums its terms in the same order in
    every chunk; a zero coefficient adds nothing.
    """
    if op.kind == "general-second-order":
        per_point = [operator_terms(op, d, p) for p in y]
    else:
        per_point = [operator_terms(op, d, None)]
    betas = sorted({beta for terms in per_point for beta, _ in terms})
    coef = np.zeros((len(per_point), len(betas)))
    for r, terms in enumerate(per_point):
        for beta, c in terms:
            coef[r, betas.index(beta)] += c
    return betas, np.broadcast_to(coef, (y.shape[0], len(betas)))


def _apply(betas, coef, derivative, shape) -> np.ndarray:
    """Sum of coefficient times ``derivative(beta)`` over the operator's terms."""
    out = np.zeros(shape)
    for k, beta in enumerate(betas):
        out = out + coef[:, k, None] * derivative(beta)
    return out


def _monomial_system(betas, coef, y, x, polys) -> tuple[np.ndarray, np.ndarray]:
    """Equally shaped polynomial spaces: basis at the stencil nodes (R, n, dim), operator at y (R, dim)."""
    exps = polys[0].exponents
    shift = np.array([ps.shift for ps in polys])
    scale = np.array([ps.scale for ps in polys])
    at_nodes = monomial_derivatives((x - shift[:, None, :]) / scale[:, None, None], exps, (0,) * x.shape[2])
    z_y = (y - shift) / scale[:, None]
    at_y = _apply(betas, coef, lambda beta: monomial_derivatives(z_y, exps, beta, scale), (len(y), len(exps)))
    return at_nodes, at_y


def _stacked_solve(a, b) -> tuple[np.ndarray, dict]:
    """Solve every a[r] x = b[r]; returns the solutions and {row: error} for singular rows."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], {}
    except np.linalg.LinAlgError:
        sol, singular = np.full(b.shape, np.nan), {}
        for r in range(len(a)):
            try:
                sol[r] = np.linalg.solve(a[r : r + 1], b[r : r + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError as exc:
                singular[r] = exc
        return sol, singular


def _min_norm(a, b) -> np.ndarray:
    """Minimum-2-norm least-squares solutions of stacked systems, rank cut at RANK_RTOL."""
    return (np.linalg.pinv(a, rcond=RANK_RTOL) @ b[..., None])[..., 0]


def _rank(a) -> int | None:
    """Numerical rank for an error report; None when the matrix is not finite."""
    return numerical_rank(a) if np.all(np.isfinite(a)) else None


def _poly_rows(op, y, x, spaces) -> list:
    """Stacked transposed Vandermonde systems; entries are (weights, residual) or an error."""
    betas, coef = _operator_coefficients(op, x.shape[2], y)
    e, t = _monomial_system(betas, coef, y, x, spaces)
    n, dim = e.shape[1:]
    et = np.swapaxes(e, 1, 2)
    if n == dim:
        w, singular = _stacked_solve(et, t)
        rows = list(singular)
        if rows:
            w[rows] = _min_norm(et[rows], t[rows])
    else:
        w = _min_norm(et, t)
    defect = _defects(w, e, t)
    out = []
    for r in range(len(y)):
        if not defect[r] <= EXACTNESS_RTOL:
            rank_a = _rank(et[r])
            rank_aug = _rank(np.hstack([et[r], t[r][:, None]]))
            out.append(UnsolvableExactnessError(
                f"exactness defect {defect[r]:.2e}: system rank {rank_a}, augmented rank {rank_aug} "
                f"({dim} conditions, {n} nodes)",
                rank=rank_a, n_conditions=dim, defect=float(defect[r]),
            ))
        else:
            out.append((w[r], float(defect[r])))
    return out


def _kernel_rows(op, y, x, spaces) -> list:
    """Stacked saddle systems ``[[K, P], [P^T, 0]]``; entries are (weights, residual) or an error.

    As in `KernelSpace`, kernel values carry each patch's ``kernel_norm``
    (for a polyharmonic kernel, the kernel in the patch's scaled
    coordinates) and the tail is evaluated in local coordinates.  The
    exactness defect is measured on the space's basis: the kernel
    translates combined by an orthonormal basis of ``{c : P^T c = 0}``
    (from the same SVD that gives the tail rank), plus the tail monomials.
    """
    kernel, q = spaces[0].kernel, spaces[0].q_dim
    n_rows, n, d = x.shape
    norm = np.array([ks.kernel_norm for ks in spaces])[:, None]
    betas, coef = _operator_coefficients(op, d, y)
    kmat = norm[:, :, None] * kernel_derivative(kernel, x[:, :, None, :] - x[:, None, :, :], (0,) * d)
    k_rhs = norm * _apply(betas, coef, lambda beta: kernel_derivative(kernel, y[:, None, :] - x, beta),
                          (n_rows, n))

    out: list = [None] * n_rows
    if q:
        p, p_rhs = _monomial_system(betas, coef, y, x, [ks.aug for ks in spaces])
        _, s, vt = np.linalg.svd(np.swapaxes(p, 1, 2), full_matrices=True)
        rank = np.count_nonzero(s > RANK_RTOL * s[:, :1], axis=1)
        for r in np.flatnonzero(rank < q):
            out[r] = UnsolvableExactnessError(
                f"polynomial tail block has rank {rank[r]} < {q}: "
                "influence nodes are not unisolvent for the tail",
                rank=int(rank[r]), n_conditions=q,
            )
        null = np.swapaxes(vt[:, q:, :], 1, 2)
    ok = [r for r in range(n_rows) if out[r] is None]
    if not ok:
        return out

    a = np.zeros((len(ok), n + q, n + q))
    a[:, :n, :n] = kmat[ok]
    b = k_rhs[ok]
    e, t = kmat[ok], k_rhs[ok]
    if q:
        a[:, :n, n:] = p[ok]
        a[:, n:, :n] = np.swapaxes(p[ok], 1, 2)
        b = np.concatenate([b, p_rhs[ok]], axis=1)
        e = np.concatenate([e @ null[ok], p[ok]], axis=2)
        t = np.concatenate([(t[:, None, :] @ null[ok])[:, 0, :], p_rhs[ok]], axis=1)
    sol, singular = _stacked_solve(a, b)
    w = sol[:, :n]
    defect = _defects(w, e, t)
    for j, r in enumerate(ok):
        if j in singular:
            out[r] = UnsolvableExactnessError(f"singular saddle system: {singular[j]}")
        elif not defect[j] <= EXACTNESS_RTOL:
            out[r] = UnsolvableExactnessError(
                f"kernel exactness defect {defect[j]:.2e} on a {n}-node stencil",
                rank=_rank(a[j]), n_conditions=e.shape[2], defect=float(defect[j]),
            )
        else:
            out[r] = (w[j], float(defect[j]))
    return out


def verify_exactness(sw: StencilWeights, space, op: Operator) -> float:
    """Recompute the max relative exactness defect of a row over a space's basis."""
    e = np.atleast_2d(space.eval_basis(sw.influence.points))
    t = apply_operator(space, op, sw.point)
    return exactness_defect(sw.weights, e, t)


def unisolvent_influence(
    ns: NodeSet,
    center,
    degree: int,
    sublist=None,
    center_index: int | None = None,
) -> tuple[InfluenceSet, PolySpace]:
    """Nearest-neighbor stencil grown until unisolvent for the polynomial space.

    Starts from ``dim P`` neighbors and adds next-nearest nodes one at a
    time; gives up at ``GROWTH_CAP * dim P``.  One kNN query at the cap
    serves every step: the (distance, index) order is total, so each
    smaller stencil is a prefix of it.
    """
    target = len(tuple(sublist)) if sublist is not None else poly_space_dim(ns.d, degree)
    cap = min(GROWTH_CAP * target, ns.n)
    recipe = poly_patch_recipe(degree, sublist=sublist)
    last_rank = 0
    nearest = knn(ns, center, cap, center_index=center_index) if target <= cap else None
    for size in range(target, cap + 1):
        infl = replace(nearest, indices=nearest.indices[:size], distances=nearest.distances[:size],
                       points=nearest.points[:size])
        ps = recipe(infl)
        last_rank, _ = unisolvency_rank(ps, infl.points)
        if last_rank == ps.dim:
            return infl, ps
    raise NotAnInterpolationSetError(
        f"no unisolvent stencil of size <= {cap} around {np.asarray(center).tolist()}",
        rank=last_rank, dim=target, n_nodes=cap,
    )
