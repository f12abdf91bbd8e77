"""Dense rank and null-space helpers with one shared tolerance.

Every rank decision in the toolkit goes through `numerical_rank` so that
patch unisolvency tests and the spline dimension analyzer agree on what
counts as zero.
"""

import numpy as np

# Relative singular-value cutoff used for every rank decision.
RANK_RTOL = 1e-10


def numerical_rank(a, rtol=RANK_RTOL):
    """Rank of a dense matrix: number of singular values above rtol * s_max."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0 or min(a.shape) == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > rtol * s[0]))


def stacked_solve(a, b):
    """Solve every a[r] x = b[r], row by row if the batch raises; returns solutions and {row: error}."""
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


def null_space(a, rtol=RANK_RTOL):
    """Orthonormal basis (columns) of the null space of a dense matrix.

    A matrix with no rows has the full identity as its null space.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return np.eye(a.shape[1])
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    return vt[np.count_nonzero(s > rtol * s[0]):].T.copy()
