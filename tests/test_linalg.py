"""The one solve helper and the triangular inverse behind the rank certificate.

`stacked_solve` takes vectors or blocks of right-hand sides.  The saddle rows
rest on a property of the BLAS: a column of a block at least two wide has the
same bits whatever the block's width and the column's position in it.  A BLAS
that breaks it fails here, before any row comparison does.
"""

import numpy as np
import pytest

from meshfd.linalg import _lower_inverse, stacked_solve


def systems(n, width, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((5, n, n)) + n * np.eye(n), rng.standard_normal((5, n, width))


@pytest.mark.parametrize(("n", "widths"), [(6, (2, 3, 12)), (13, (2, 3, 12)), (18, (2, 3, 12)),
                                            (25, (2, 3, 12)), (40, (2, 3, 12)),
                                            (30, (2, 3, 12, 13, 20, 64))])  # 3-D aggregate widths
def test_block_columns_do_not_depend_on_width_or_position(n, widths):
    a, b = systems(n, widths[-1])
    whole, singular = stacked_solve(a, b)
    assert singular == {}
    for width in widths:
        for lo in range(widths[-1] - width + 1):
            part, _ = stacked_solve(a, b[:, :, lo:lo + width])
            assert np.array_equal(part, whole[:, :, lo:lo + width]), (width, lo)
    for lo in range(widths[-1]):  # a column moved into a zero-padded block of two
        padded = np.zeros(b.shape[:2] + (2,))
        padded[:, :, 1] = b[:, :, lo]
        assert np.array_equal(stacked_solve(a, padded)[0][:, :, 1], whole[:, :, lo])


def test_vectors_solve_as_one_column_blocks():
    a, b = systems(6, 1)
    sol, singular = stacked_solve(a, b[:, :, 0])
    assert singular == {} and sol.shape == (5, 6)
    assert np.array_equal(sol, stacked_solve(a, b)[0][:, :, 0])


@pytest.mark.parametrize("width", [None, 2, 3])
def test_a_singular_matrix_fails_alone(width):
    a, b = systems(6, width or 1)
    b = b[:, :, 0] if width is None else b
    a[3, :, 2] = 0.0  # a zero column: an exact zero pivot
    sol, singular = stacked_solve(a, b)
    assert list(singular) == [3] and isinstance(singular[3], np.linalg.LinAlgError)
    assert np.all(np.isnan(sol[3]))
    rest = [0, 1, 2, 4]
    assert np.array_equal(sol[rest], stacked_solve(a[rest], b[rest])[0])


@pytest.mark.parametrize("shape", [(6716, 12, 6), (40, 20, 10), (7, 3, 1)])
def test_lower_inverse_equals_the_lapack_inverse(shape):
    a = np.random.default_rng(shape[2]).standard_normal(shape)
    low = np.linalg.cholesky(np.swapaxes(a, 1, 2) @ a)
    expected, got = np.linalg.inv(low), _lower_inverse(low)
    assert np.all(np.triu(got, 1) == 0.0)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
