"""Tail ranks from a Cholesky certificate: the ranks of `numerical_rank`, most of them without an SVD.

`linalg.stacked_rank` certifies full column rank where the Cholesky factor
of the Gram matrix bounds the condition number by `CERTIFIED_COND`, sends
the matrices it cannot certify to one SVD of singular values, and sends the
whole stack there when the batched Cholesky raises.  Each branch is tested
here, and on the benchmark's kernel spaces and two more (a 3-D tail with
q = 10, a Gauss kernel with a tail) the ranks of `stack_spaces` equal the
per-tail `numerical_rank` and the stacked rows equal the one-row calls.
"""

import numpy as np
import pytest

import meshfd as m
from meshfd.errors import UnsolvableExactnessError
from meshfd.linalg import numerical_rank, stacked_rank
from meshfd.ndf import exactness_rows
from meshfd.spaces import KernelSpace, PatchTable, PolySpace, stack_spaces

from helpers import gauss_tail_space, halton_r3_space, halton_r3_space_3d, jittered_cloud


@pytest.fixture
def svd_calls(monkeypatch):
    """The shape of the argument of every `np.linalg.svd` call from here on."""
    calls, svd = [], np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def linear_tails(stencils) -> np.ndarray:
    """The linear tails (1, x, y) of stencils centred at their first node, stacked."""
    return np.stack([PolySpace.full(2, 1, shift=c[0]).eval_basis(c) for c in stencils])


def test_a_stack_whose_cholesky_raises_goes_whole_to_the_svd(svd_calls):
    """The collinear table of `test_kernel_group_splits_by_tail_rank`: one Gram matrix is singular."""
    line = np.column_stack([np.linspace(0.0, 1.0, 4), np.linspace(0.0, 0.5, 4)])
    plane = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.6, 0.7]])
    tails = linear_tails([plane, line, plane + 1.0])
    expected = [numerical_rank(t) for t in tails]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(np.swapaxes(tails, 1, 2) @ tails)
    svd_calls.clear()
    assert stacked_rank(tails).tolist() == expected == [3, 2, 3]
    assert svd_calls == [(3, 4, 3)]


def test_a_collinear_patch_fails_alone_in_the_middle_of_a_chunk():
    """Its tail's Gram matrix raises in the chunk's batched Cholesky; the other rows equal one-row calls."""
    cloud = jittered_cloud(3, n_axis=8)
    line = np.column_stack([np.linspace(0.0, 1.0, 13), np.full(13, 5.0)])  # far off: its kNN-12 stencils
    ns = m.NodeSet(points=np.vstack([cloud.points, line]),
                   boundary_mask=np.concatenate([cloud.boundary_mask, np.zeros(13, dtype=bool)]))
    space = m.build_space(ns, "all", ("knn", 12),
                          m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1))
    collinear = space.patches[cloud.n + 6]
    tail = collinear.space.aug.eval_basis(collinear.influence.points)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(tail.T @ tail)
    patches = np.concatenate([np.arange(20), [cloud.n + 6], np.arange(20, 40)])
    points = space.table.influence.centers[patches]
    weights, residual, errors = exactness_rows(m.LAPLACIAN, points, space.table, patches)
    assert list(errors) == [20]
    assert isinstance(errors[20], UnsolvableExactnessError)
    assert "tail block has rank 2 < 3" in str(errors[20])
    start = np.cumsum(np.concatenate([[0], space.table.influence.sizes[patches]]))
    for r, p in enumerate(patches.tolist()):
        if r != 20:
            patch = space.patches[p]
            sw = m.weights_kernel(m.LAPLACIAN, points[r], patch.influence, patch.space)
            assert np.array_equal(weights[start[r]:start[r + 1]], sw.weights) and residual[r] == sw.residual


def test_uncertified_tails_are_decided_by_the_svd(svd_calls):
    """Tails 1e-2 to 1e-12 off a line: the Cholesky passes, the certificate refuses all but the first."""
    x, wiggle = np.linspace(0.0, 1.0, 5), np.array([0.0, 1.0, -1.0, 0.5, 0.0])
    offsets = [1e-2, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12]
    stencils = [np.column_stack([x, eps * wiggle]) for eps in offsets]
    tails = linear_tails(stencils)
    expected = [numerical_rank(t) for t in tails]
    assert expected == [3, 3, 3, 3, 3, 2, 2, 2]
    np.linalg.cholesky(np.swapaxes(tails, 1, 2) @ tails)  # does not raise
    spaces = [KernelSpace(m.Kernel("polyharmonic", 3.0), c, aug=PolySpace.full(2, 1, shift=c[0])) for c in stencils]
    table = PatchTable.of_pairs([m.InfluenceSet(center=c[0], indices=np.arange(5), points=c,
                                                distances=np.linalg.norm(c - c[0], axis=1)) for c in stencils], spaces)
    svd_calls.clear()
    groups = stack_spaces(table, np.arange(len(stencils)))[0]
    assert svd_calls == [(7, 5, 3)]  # one SVD, of the seven tails left uncertified
    assert [(members.tolist(), basis.tail_rank) for members, basis in groups] == [
        ([5, 6, 7], 2), ([0, 1, 2, 3, 4], 3)]
    assert stacked_rank(tails).tolist() == expected


# The kernel spaces of the rbf-collocate, pum-eval and rbf-lsq-aggregate workloads, with their sigma maps.
SPACES = {
    "rbf-collocate": (lambda: halton_r3_space(6400, 12), "same-index"),
    "pum-eval": (lambda: halton_r3_space(1600, 12), "same-index"),
    "rbf-lsq-aggregate": (lambda: halton_r3_space(400, 12), "per-set-aggregate"),
    "halton-3d-r3-q10": (halton_r3_space_3d, "same-index"),
    "gauss-linear-tail": (gauss_tail_space, "per-set-aggregate"),
}


@pytest.mark.parametrize("name", SPACES)
def test_tail_ranks_equal_numerical_rank_and_rows_equal_one_row_calls(name):
    build, strategy = SPACES[name]
    ns, space = build()
    for members, basis in stack_spaces(space.table, np.arange(space.m))[0]:
        assert [numerical_rank(t) for t in basis.tail_at_centers] == [basis.tail_rank] * members.size
    sigma = m.build_sigma(space, strategy)
    weights, residual, errors = exactness_rows(m.LAPLACIAN, sigma.points, space.table, sigma.patch)
    assert errors == {}
    start = np.cumsum(np.concatenate([[0], space.table.influence.sizes[sigma.patch]]))
    for r in np.unique(np.linspace(0, sigma.patch.size - 1, 40).astype(int)).tolist():
        patch = space.patches[sigma.patch[r]]
        sw = m.weights_kernel(m.LAPLACIAN, sigma.points[r], patch.influence, patch.space)
        assert np.array_equal(weights[start[r]:start[r + 1]], sw.weights) and residual[r] == sw.residual
