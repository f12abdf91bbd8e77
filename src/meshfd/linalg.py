"""Dense rank and null-space helpers with one shared tolerance.

Every rank in the toolkit counts the singular values that `singular_rank` keeps
(`numerical_rank` for one matrix, `stacked_rank` for a stack, certifying most full
ranks by Cholesky), so that patch unisolvency tests and the spline dimension analyzer
agree on what counts as zero; every moment-null basis comes from `null_space`, and
every stacked square solve from `stacked_solve`.
"""

import contextlib

import numpy as np

# Relative singular-value cutoff used for every rank decision.
RANK_RTOL = 1e-10

# Largest cond_2 that `stacked_rank` certifies from a Cholesky factor: four orders inside 1 / RANK_RTOL.
CERTIFIED_COND = 1e6


def singular_rank(s):
    """Count of singular values (last axis, descending) above ``RANK_RTOL`` times the largest."""
    return np.count_nonzero(s > RANK_RTOL * s[..., :1], axis=-1)


def numerical_rank(a):
    """Rank of a dense matrix: its `singular_rank`."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or min(a.shape) == 0:
        return 0
    return int(singular_rank(np.linalg.svd(a, compute_uv=False)))


def stacked_rank(a) -> np.ndarray:
    """`numerical_rank` of each matrix of a stack (g, m, n); a Cholesky certificate spares most SVDs.

    A batched Cholesky ``A^T A = L L^T`` certifies rank n where ``||A||_F^2 ||L^-1||_F^2 <=
    CERTIFIED_COND**2``, a bound on ``cond_2(A)^2`` as ``||L^-1||_2 = 1 / sigma_min(A)``.  The
    computed factor is exact for ``A^T A + E`` with ``||E||_2 <= c(n) u ||A||_F^2`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 10; forming ``A^T A`` errs
    as little; ``L^-1`` and the norms err by a relative ``cond_2(L) u``), so a certified A is tall
    with cond_2(A) within a hair of 1e6: four orders inside the ``1 / RANK_RTOL`` at which
    `numerical_rank` could drop a singular value.  The rest, or the whole stack when its
    Cholesky raises, go to one batched SVD of singular values.
    """
    a = np.asarray(a, dtype=float)
    cert = np.full(a.shape[0], np.inf)
    with contextlib.suppress(np.linalg.LinAlgError), np.errstate(over="ignore", invalid="ignore"):
        inv = _lower_inverse(np.linalg.cholesky(np.swapaxes(a, 1, 2) @ a))
        cert = np.einsum("gij,gij->g", a, a) * np.einsum("gij,gij->g", inv, inv)  # inf or NaN: not certified
    rank, todo = np.full(a.shape[0], a.shape[2]), np.flatnonzero(~(cert <= CERTIFIED_COND**2))
    if todo.size:
        rank[todo] = singular_rank(np.linalg.svd(a[todo], compute_uv=False))
    return rank


def _lower_inverse(low) -> np.ndarray:
    """Inverses of a stack (g, n, n) of lower-triangular matrices, by batched forward substitution."""
    inv = np.zeros(low.shape)
    for i in range(low.shape[1]):
        inv[:, i, :i] = -np.einsum("gk,gkj->gj", low[:, i, :i], inv[:, :i, :i])
        inv[:, i, i] = 1.0
        inv[:, i, :i + 1] /= low[:, i, i, None]
    return inv


def stacked_solve(a, b):
    """Solve every ``a[g] x = b[g]``, matrix by matrix if the batch raises; returns solutions and {g: error}.

    ``a`` is (g, n, n); ``b`` is (g, n) vectors or (g, n, w) blocks of right-hand sides.  With
    OpenBLAS, a column of a block of width w >= 2 has the same bits whatever w and the column's
    position, but a one-column solve takes another path and may differ in the last bits; callers
    that need a row to equal its one-row call solve blocks at least two wide.
    """
    vectors = b.ndim == a.ndim - 1
    b = b[..., None] if vectors else b
    try:
        sol, singular = np.linalg.solve(a, b), {}
    except np.linalg.LinAlgError:
        sol, singular = np.full(b.shape, np.nan), {}
        for g in range(len(a)):
            try:
                sol[g] = np.linalg.solve(a[g : g + 1], b[g : g + 1])[0]
            except np.linalg.LinAlgError as exc:
                singular[g] = exc
    return (sol[..., 0] if vectors else sol), singular


def null_space(a, rank=None):
    """Orthonormal basis (C-contiguous columns) of the null space of a dense matrix, or of each of a stack.

    ``rank`` defaults to the matrix's `singular_rank`; a stack (g, m, n) passes the rank its matrices
    share.  A matrix with no rows has the full identity as its null space.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return np.tile(np.eye(a.shape[-1]), a.shape[:-2] + (1, 1))
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int(singular_rank(s)) if rank is None else rank
    return np.ascontiguousarray(np.swapaxes(vt[..., rank:, :], -1, -2))
