"""Kernel stencil rows without the moment-null basis.

A kernel row's defect is the residual of its own saddle system, so the row
path needs the scaled translates and the tail monomials (`StackedBasis.blocks`)
but never the moment-null bases.  The oracle stays `verify_exactness`, the
defect on the space's basis; a perturbed solve must fail its own row; and the
nodal translate matrix built from its upper triangle equals the full
evaluation at the stencil nodes bit for bit.
"""

import numpy as np
import pytest

import meshfd as m
import meshfd.ndf as ndf
from meshfd.errors import UnsolvableExactnessError
from meshfd.ndf import EXACTNESS_RTOL, StencilWeights, exactness_rows, verify_exactness
from meshfd.spaces import StackedBasis, stack_spaces

from helpers import GENERAL_OP, constant, gauss_tail_space, halton_r3_space, halton_r3_space_3d

OPERATORS = {"laplacian": m.LAPLACIAN, "general": GENERAL_OP}


@pytest.mark.parametrize("strategy", ["same-index", "per-set-aggregate"])
@pytest.mark.parametrize("op", OPERATORS.values(), ids=OPERATORS.keys())
def test_every_assembled_interior_row_is_exact_on_the_basis(strategy, op):
    ns, space = halton_r3_space(count=60, k=12)
    sigma = m.build_sigma(space, strategy)
    gs = m.assemble(space, op, constant(0.0), sigma, dirichlet_data=constant(0.0))
    interior = np.flatnonzero(~ns.boundary_mask[sigma.node])
    assert interior.size and not gs.dirichlet[interior].any()
    for j in np.flatnonzero(~gs.dirichlet).tolist():  # with GENERAL_OP, the boundary rows too
        patch = space.patches[sigma.patch[j]]
        weights = gs.matrix[j].toarray()[0][patch.influence.indices]
        sw = StencilWeights(sigma.points[j], patch.influence, weights, float(gs.residual[j]))
        assert verify_exactness(sw, patch.space, op) <= EXACTNESS_RTOL
        assert gs.residual[j] <= EXACTNESS_RTOL


@pytest.mark.parametrize("unknown", ["weight", "multiplier"])
def test_a_perturbed_solve_fails_its_own_row(monkeypatch, unknown):
    ns, space = halton_r3_space(count=60, k=12)
    sigma = m.build_sigma(space, "same-index")
    op = m.Operator("laplacian", identity_on_boundary=False)
    assert len(stack_spaces(space.table, np.arange(space.m))[0]) == 1  # one group: rows solve in sigma order
    target, solve = 5, ndf.stacked_solve

    def perturbed(a, b):
        sol, singular = solve(a, b)
        j = 0 if unknown == "weight" else a.shape[1] - len(space.table.shapes[0][1])
        sol[target, j] += 1e-6 * max(1.0, abs(sol[target, j]))
        return sol, singular

    _, clean, errors = exactness_rows(op, sigma.points, space.table, sigma.patch)
    assert errors == {} and clean.max() <= EXACTNESS_RTOL
    monkeypatch.setattr(ndf, "stacked_solve", perturbed)
    _, residual, errors = exactness_rows(op, sigma.points, space.table, sigma.patch)
    assert list(errors) == [target]
    assert isinstance(errors[target], UnsolvableExactnessError)
    assert errors[target].defect > EXACTNESS_RTOL
    assert np.isnan(residual[target])
    others = np.arange(len(residual)) != target
    assert np.array_equal(residual[others], clean[others])


def test_assembly_runs_no_full_svd_and_never_reads_the_null_bases(monkeypatch):
    """Well-conditioned tails are certified by Cholesky: not even an SVD of singular values runs."""
    ns, space = halton_r3_space(count=60, k=12)
    sigma = m.build_sigma(space, "same-index")
    svd, full_svds, values_svds, null_reads = np.linalg.svd, [], [], []

    def counting_svd(a, *args, **kwargs):
        full = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
        (full_svds if full else values_svds).append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(StackedBasis, "null", property(lambda basis: null_reads.append(1)))
    gs = m.assemble(space, m.LAPLACIAN, constant(0.0), sigma, dirichlet_data=constant(0.0))
    assert gs.residual.max() <= EXACTNESS_RTOL
    assert full_svds == [] and values_svds == [] and null_reads == []


@pytest.mark.parametrize("strategy", ["same-index", "per-set-aggregate"])
def test_lagrange_rows_evaluate_a_patch_nodal_matrix_once_per_chunk(monkeypatch, strategy):
    """Rows on one patch share its nodal matrix: a chunk evaluates it once, not once per row."""
    ns, space = halton_r3_space(count=60, k=12)
    sigma = m.build_sigma(space, strategy)
    evaluate, nodal = StackedBasis.evaluate, []

    def counting(basis, points, betas=None, coef=None, rows=slice(None)):
        if points is None:
            nodal.append(np.arange(basis.centers.shape[0])[rows].size)
        return evaluate(basis, points, betas, coef, rows)

    clean = m.assemble(space, m.LAPLACIAN, constant(0.0), sigma, route="lagrange", dirichlet_data=constant(0.0))
    monkeypatch.setattr(StackedBasis, "evaluate", counting)
    gs = m.assemble(space, m.LAPLACIAN, constant(0.0), sigma, route="lagrange", dirichlet_data=constant(0.0))
    assert np.array_equal(gs.matrix.data, clean.matrix.data)
    solved, chunks = int((~gs.dirichlet).sum()), -(-len(sigma.patch) // ndf.CHUNK_ROWS)  # Dirichlet rows solve nothing
    assert sum(nodal) == solved if strategy == "same-index" else sum(nodal) <= space.m + chunks < solved


def gauss_space():
    ns = m.generate_scattered(2, 40, [(0.0, 1.0), (0.0, 1.0)], source="halton")
    return m.build_space(ns, "all", ("knn", 9), m.kernel_patch_recipe(m.Kernel("gauss", 3.0), augmentation_degree=None))


def one_node_space(kernel, degree):
    ns = m.generate_scattered(2, 20, [(0.0, 1.0), (0.0, 1.0)], source="halton")
    return m.build_space(ns, "all", ("knn", 1), m.kernel_patch_recipe(kernel, degree))


@pytest.mark.parametrize("build", [
    gauss_space, lambda: halton_r3_space(count=60, k=12)[1],
    lambda: one_node_space(m.Kernel("gauss", 3.0), None), lambda: one_node_space(m.Kernel("polyharmonic", 3.0), 1),
    lambda: halton_r3_space_3d()[1], lambda: gauss_tail_space()[1],
], ids=["gauss", "r3", "one-node-gauss", "one-node-r3", "r3-3d-q10", "gauss-linear-tail"])
def test_nodal_blocks_equal_the_blocks_at_the_centres(build):
    space = build()
    for _, basis in stack_spaces(space.table, np.arange(space.m))[0]:
        rows = np.arange(basis.centers.shape[0])[::2]
        for got, expected in zip(basis.blocks(None, rows=rows), basis.blocks(basis.centers[rows], rows=rows)):
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)
