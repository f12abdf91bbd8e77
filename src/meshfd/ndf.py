"""Numerical differentiation weights by exactness on a local space.

A weight row approximates ``Lv(y) ~ sum_i w_i v(x_i)`` over a set of
influence; the weights are determined by requiring the formula to be
exact for every element of a generating space.  Polynomial spaces lead to
a transposed Vandermonde system; kernel spaces with a polynomial tail
lead to the symmetric saddle system whose multiplier block is discarded.

There is one exactness implementation and one entry to it, the batched
engine `exactness_rows`, whose rows are an (R, d) point array on patches of
a `spaces.PatchTable`: one `spaces.stack_spaces` call stacks each distinct
patch of the rows once, with its stencil, and the rows of equally shaped
patches are solved together (`spaces.walk_stack`); a row's result does not
depend on the rows it is solved with.  It returns arrays, not one object per
row: every row's weights in one flat array, slice after slice, the
residuals, and the errors of failed rows by row.  When a chunk's solve
raises, its rows are solved again one at a time, so that each bad row gets
its own error.  The operator enters as the table of `Operator.terms`.
`weights_poly`, `weights_kernel` and `spline.lagrange_row` are one-row
batches of it (`one_row`).

The engine has two solves.  The nodal solve takes the transposed nodal
matrix of a group's concrete basis (`StackedBasis.evaluate`): a transposed
Vandermonde system for a polynomial patch and, on a square patch of either
family, the cardinal (Lagrange) row ``L l_k(y)``, as exactness on a basis
and the cardinal functions of a square nodal matrix are the same
conditions.  The saddle solve reads a kernel group's translates and tail
(`StackedBasis.blocks`) and factors each distinct patch of a chunk once:
the rows that share a patch, as per-set aggregation makes them, are the
columns of one right-hand-side block.  Every block is at least two
columns wide, one-row calls included, because a one-column LAPACK solve
may differ from a column of a wider block in the last bits; so a row's
bits do not depend on the rows it is solved with.  The ``"exactness"``
route gives kernel groups the saddle solve, the ``"lagrange"`` route the
nodal one, so polynomial rows are one solve on both routes and kernel
rows compare the two systems.

One defect formula judges every row, `verify_exactness` included: the
relative residual of the row's own system, nodal or saddle; the saddle
solve forms no moment-null basis.

When the exactness conditions do not pin the weights down uniquely, the
minimum-2-norm solution is returned; an inconsistent system raises with
rank diagnostics instead of silently returning a bad row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InvalidInputError,
    MeshfdError,
    UnsolvableExactnessError,
)
from .geometry import InfluenceSet
from .linalg import RANK_RTOL, numerical_rank, stacked_solve
from .operators import Operator
from .spaces import (
    KernelSpace,
    PatchTable,
    PolySpace,
    apply_operator,
    stack_spaces,
    walk_stack,
)

# A produced row must reproduce its generating space to this relative defect.
EXACTNESS_RTOL = 1e-8

# Rows (or nodal fits) of one walked chunk (`spaces.walk_stack`): bounds a solve's temporaries at a few MB.
CHUNK_ROWS = 256


@dataclass(frozen=True, eq=False)
class StencilWeights:
    """One numerical-differentiation row: weights aligned with the influence set."""

    point: np.ndarray
    influence: InfluenceSet
    weights: np.ndarray
    residual: float


def weights_poly(op: Operator, y, infl: InfluenceSet, ps: PolySpace) -> StencilWeights:
    """Weights exact on a polynomial space (a one-row `exactness_rows`).

    Square unisolvent stencils give the unique row; a stencil larger than
    the space dimension gives the minimum-2-norm row.  A target outside the
    row space of the evaluation matrix is unsolvable and raises.
    """
    return one_row(op, y, PatchTable.of_pairs([infl], [ps]), 0)


def weights_kernel(op: Operator, y, infl: InfluenceSet, ks: KernelSpace) -> StencilWeights:
    """Weights exact on a kernel space with polynomial tail (a one-row `exactness_rows`).

    Solves ``[[K, P], [P^T, 0]] [w; lam] = [LK(y, .); Lq(y)]`` and discards
    the multipliers; exactness then holds for the moment-constrained kernel
    combinations and the whole tail.
    """
    return one_row(op, y, PatchTable.of_pairs([infl], [ks]), 0)


def one_row(op, y, table: PatchTable, patch: int, route: str = "exactness") -> StencilWeights:
    """``op`` at the point ``y`` on table patch ``patch``: a one-row `exactness_rows` that raises its error."""
    y = np.asarray(y, dtype=float).reshape(-1)
    weights, residual, errors = exactness_rows(op, y[None, :], table, [patch], route)
    if errors:
        raise errors[0]
    return StencilWeights(y, table.influence[patch], weights, float(residual[0]))


def exactness_rows(op: Operator, points, table: PatchTable, patches, route: str = "exactness"):
    """Exactness weights for many rows: row i is ``op`` at ``points[i]`` on table patch ``patches[i]``.

    ``points`` is an (R, d) array.  Returns ``(weights, residual, errors)``:
    every row's weights, aligned with its patch's influence set, in one flat
    array, slice after slice in row order; each row's exactness defect (R,);
    and ``{row: MeshfdError}`` for the rows that failed, whose weights and
    residual are NaN, so that a caller can report them with its own context.
    The rows' distinct patches are stacked once and walked `CHUNK_ROWS` rows at a time; a chunk
    factors each of its kernel patches once, its rows the columns of one saddle solve at least two
    wide, so a row equals its one-row call bit for bit whatever ``CHUNK_ROWS``.  A chunk whose solve
    raises is solved row by row from the same stack, so each bad row gets its own error.
    ``route="lagrange"`` solves kernel groups by their nodal matrices too,
    which gives the cardinal rows of square patches.
    """
    if route not in ("exactness", "lagrange"):
        raise ConfigError(f"unknown route {route!r}")
    saddle = route == "exactness"
    points, patches = np.asarray(points, dtype=float), table.ids(patches)
    if points.shape != (patches.size, table.shift.shape[1]):
        raise InvalidInputError(f"points must be one ({table.shift.shape[1]},) row per patch index, "
                                f"got shape {points.shape} for {patches.size} patch indices")
    start = np.cumsum(np.concatenate([[0], table.influence.sizes[patches]]))  # each row's weight slice
    weights, residual, errors = np.empty(start[-1]), np.empty(patches.size), {}

    def solve(rows, basis, slots):
        w, residual[rows], group_errors = _solve_group(op, points[rows], basis, slots, saddle)
        weights[start[rows][:, None] + np.arange(w.shape[1])] = w
        errors.update((int(rows[r]), exc) for r, exc in group_errors.items())

    distinct, patch = np.unique(patches, return_inverse=True)  # each row's index among the distinct patches
    for rows, _, basis, slots in walk_stack(stack_spaces(table, distinct), CHUNK_ROWS, patch):
        try:
            solve(rows, basis, slots)
        except MeshfdError:
            for r, slot in zip(rows.tolist(), slots.tolist()):
                try:
                    solve(np.array([r]), basis, np.array([slot]))
                except MeshfdError as exc:
                    weights[start[r]:start[r + 1]] = residual[r] = np.nan
                    errors[r] = exc
    return weights, residual, errors


def _solve_group(op, y, basis, slots, saddle):
    """Rows of one stacked group: weights (R, n), residuals (R,) and {row: error}; a failed row is NaN."""
    solve = _kernel_rows if saddle and basis.kernel is not None else _nodal_rows
    if op.kind != "identity":
        w, residual, errors = solve(op, y, basis, slots)
    else:  # Kronecker row when y is a stencil node
        hits = np.all(basis.centers[slots] == y[:, None, :], axis=2)
        kron, w, residual, errors = hits.any(axis=1), np.zeros(hits.shape), np.zeros(len(y)), {}
        w[kron, np.argmax(hits[kron], axis=1)] = 1.0
        todo = np.flatnonzero(~kron)
        if todo.size:
            w[todo], residual[todo], todo_errors = solve(op, y[todo], basis, slots[todo])
            errors = {int(todo[r]): exc for r, exc in todo_errors.items()}
    if errors:
        w[list(errors)] = residual[list(errors)] = np.nan
    return w, residual, errors


def _min_norm(a, b) -> np.ndarray:
    """Minimum-2-norm least-squares solutions of stacked systems, rank cut at RANK_RTOL."""
    return (np.linalg.pinv(a, rcond=RANK_RTOL) @ b[..., None])[..., 0]


def _rank(a) -> int | None:
    """Numerical rank for an error report; None when the matrix is not finite."""
    return numerical_rank(a) if np.all(np.isfinite(a)) else None


def _distinct(slots):
    """The distinct stacked patches among ``slots`` and each slot's index among them (None: the identity).

    Strictly ascending slots, such as same-index rows, are distinct already and skip the `np.unique`.
    """
    if np.all(slots[1:] > slots[:-1]):
        return slots, None
    return np.unique(slots, return_inverse=True)


def _nodal_rows(op, y, basis, slots):
    """Stacked transposed nodal systems of the concrete bases: weights (R, n), residuals (R,), {row: error}."""
    betas, coef = op.terms(y)
    used, inverse = _distinct(slots)
    e = basis.evaluate(None, rows=used)  # once per distinct patch
    e = e if inverse is None else e[inverse]
    t = basis.evaluate(y[:, None, :], betas, coef, slots)[:, 0, :]
    n, dim = e.shape[1:]
    et = np.swapaxes(e, 1, 2)
    if n == dim:
        w, singular = stacked_solve(et, t)
        rows = list(singular)
        if rows:
            w[rows] = _min_norm(et[rows], t[rows])
    else:
        w = _min_norm(et, t)
    defect, errors = _defects(et, w, t, n), {}
    for r in np.flatnonzero(~(defect <= EXACTNESS_RTOL)).tolist():
        rank_a = _rank(et[r])
        rank_aug = _rank(np.hstack([et[r], t[r][:, None]]))
        errors[r] = UnsolvableExactnessError(
            f"exactness defect {defect[r]:.2e}: system rank {rank_a}, augmented rank {rank_aug} "
            f"({dim} conditions, {n} nodes)",
            rank=rank_a, n_conditions=dim, defect=float(defect[r]),
        )
    return w, defect, errors


def _kernel_rows(op, y, basis, slots):
    """Stacked saddle systems ``[[K, P], [P^T, 0]]``: weights (R, n), residuals (R,) and {row: error}.

    ``K`` and ``P``, the scaled translates and the tail at the stencil nodes, fill one saddle matrix
    per distinct patch of the rows in place, and each is factored once: the rows of a patch are the
    columns of its right-hand-side block, zero-padded to the widest patch's so that one `stacked_solve`
    serves the call, and a singular patch fails each of its rows; rows on distinct patches are no
    special case.  Every block is at least two columns wide, so a row's bits equal its one-row call's.
    A row's defect is the residual of its own saddle system; no moment-null basis is formed.
    """
    q, n_rows, n = len(basis.exponents), len(y), basis.centers.shape[1]
    if basis.tail_rank < q:
        return np.full((n_rows, n), np.nan), np.full(n_rows, np.nan), {r: UnsolvableExactnessError(
            f"polynomial tail block has rank {basis.tail_rank} < {q}: "
            "influence nodes are not unisolvent for the tail",
            rank=basis.tail_rank, n_conditions=q,
        ) for r in range(n_rows)}
    betas, coef = op.terms(y)
    used, inverse = _distinct(slots)
    a = np.zeros((used.size, n + q, n + q))
    a[:, :n, :n], a[:, :n, n:] = basis.blocks(None, rows=used)
    a[:, n:, :n] = np.swapaxes(a[:, :n, n:], 1, 2)
    rhs = np.concatenate(basis.blocks(y[:, None, :], betas, coef, slots), axis=2)[:, 0, :]
    # Width >= 2 for every block, one-row calls included: with one column, OpenBLAS's getrs takes its
    # trsv path, whose bits may differ from a column of a wider block; from two columns on, a column's
    # bits depend neither on the width nor on its position, so no row depends on the rows beside it.
    inverse = np.arange(n_rows) if inverse is None else inverse
    count = np.bincount(inverse)
    first = np.cumsum(count) - count  # each patch's first row among the rows sorted by patch
    column = np.empty(n_rows, dtype=np.intp)  # each row's column in its patch's block
    column[np.argsort(inverse, kind="stable")] = np.arange(n_rows) - np.repeat(first, count)
    block = np.zeros((used.size, n + q, max(2, count.max())))
    block[inverse, :, column] = rhs
    x, singular = stacked_solve(a, block)
    failed = {r: exc for p, exc in singular.items() for r in np.flatnonzero(inverse == p).tolist()}
    sol, a = x[inverse, :, column], a[inverse]  # each row's own system, for its defect
    w = sol[:, :n]
    defect = _defects(a, sol, rhs, n)
    errors = {r: UnsolvableExactnessError(f"singular saddle system: {exc}") for r, exc in failed.items()}
    for r in np.flatnonzero(~(defect <= EXACTNESS_RTOL)).tolist():
        errors.setdefault(r, UnsolvableExactnessError(
            f"kernel exactness defect {defect[r]:.2e} on a {n}-node stencil",
            rank=_rank(a[r]), n_conditions=n + q, defect=float(defect[r]),
        ))
    return w, defect, errors


def _defects(a, sol, rhs, n: int) -> np.ndarray:
    """Max relative residual of stacked systems ``a @ sol = rhs`` whose first ``n`` unknowns are weights.

    Condition i is scaled by ``max(1, |rhs_i|, sum_j |a_ij| |w_j|)`` over the
    weights only, so that rows with large weights and heavy cancellation
    (second-order stencils at small spacing) are judged relative to their own
    scale, and a huge saddle multiplier cannot enlarge the scale of its own
    residual.  For a polynomial row (``a`` the transposed Vandermonde matrix,
    no multipliers) and for the tail conditions of a saddle system these are
    the exactness defects of the basis polynomials.
    """
    lhs = (a @ sol[:, :, None])[:, :, 0]
    term_scale = (np.abs(a[:, :, :n]) @ np.abs(sol[:, :n, None]))[:, :, 0]
    denom = np.maximum(1.0, np.maximum(np.abs(rhs), term_scale))
    return np.max(np.abs(lhs - rhs) / denom, axis=1)


def verify_exactness(sw: StencilWeights, space, op: Operator) -> float:
    """Recompute the max relative exactness defect of a row over a space's basis (the engine's `_defects`)."""
    e = np.atleast_2d(space.eval_basis(sw.influence.points))
    t = apply_operator(space, op, sw.point)
    return float(_defects(e.T[None], np.reshape(sw.weights, (1, -1)), t[None], e.shape[0])[0])

