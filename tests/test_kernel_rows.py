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
from meshfd.spaces import KernelSpace, PatchTable, StackedBasis, stack_spaces

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
        assert b.shape == a.shape[:2] + (2,)  # distinct rows: one width-2 block each, row r in block r
        j = 0 if unknown == "weight" else a.shape[1] - len(space.table.shapes[0][1])
        sol[target, j, 0] += 1e-6 * max(1.0, abs(sol[target, j, 0]))
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


@pytest.mark.parametrize("unknown", ["weight", "multiplier"])
def test_a_perturbed_column_of_a_shared_block_fails_only_its_row(monkeypatch, unknown):
    """Per-set-aggregate rows of one patch are the columns of one block; a bad column fails only its row."""
    ns, space = halton_r3_space(count=60, k=12)
    sigma = m.build_sigma(space, "per-set-aggregate")
    op = m.Operator("laplacian", identity_on_boundary=False)
    solve, perturbed_blocks = ndf.stacked_solve, []

    def perturbed(a, b):
        sol, singular = solve(a, b)
        if not perturbed_blocks and b.shape[2] >= 3:  # three or more rows share each patch of this block
            j = 0 if unknown == "weight" else a.shape[1] - len(space.table.shapes[0][1])
            sol[0, j, 1] += 1e-6 * max(1.0, abs(sol[0, j, 1]))
            perturbed_blocks.append(b.shape)
        return sol, singular

    clean_weights, clean, errors = exactness_rows(op, sigma.points, space.table, sigma.patch)
    assert errors == {} and clean.max() <= EXACTNESS_RTOL
    monkeypatch.setattr(ndf, "stacked_solve", perturbed)
    weights, residual, errors = exactness_rows(op, sigma.points, space.table, sigma.patch)
    assert len(perturbed_blocks) == 1
    (target,) = errors
    assert isinstance(errors[target], UnsolvableExactnessError) and errors[target].defect > EXACTNESS_RTOL
    assert np.isnan(residual[target])
    neighbours = np.flatnonzero(sigma.patch == sigma.patch[target])
    assert neighbours.size >= 3 and np.array_equal(residual[neighbours[neighbours != target]],
                                                   clean[neighbours[neighbours != target]])
    others = np.arange(len(residual)) != target
    assert np.array_equal(residual[others], clean[others])
    start = np.cumsum(np.concatenate([[0], space.table.influence.sizes[sigma.patch]]))
    kept = np.ones(weights.size, dtype=bool)
    kept[start[target]:start[target + 1]] = False
    assert np.array_equal(weights[kept], clean_weights[kept])


def rows_and_one_row_calls(op, points, table, patches):
    """`exactness_rows` of the rows, and for each row the weights and residual of its one-row call."""
    weights, residual, errors = exactness_rows(op, points, table, patches)
    start = np.cumsum(np.concatenate([[0], table.influence.sizes[patches]]))
    rows = [(weights[start[r]:start[r + 1]], residual[r]) for r in range(len(patches))]
    calls = []
    for y, p in zip(points, patches.tolist()):
        try:
            sw = ndf.one_row(op, y, table, p)
            calls.append((sw.weights, sw.residual))
        except UnsolvableExactnessError as exc:
            calls.append(exc)
    return rows, calls, errors


@pytest.mark.parametrize("op", OPERATORS.values(), ids=OPERATORS.keys())
@pytest.mark.parametrize("count", [1, 2, 3, 12])
def test_rows_of_one_patch_equal_their_one_row_calls(op, count):
    """One patch, 1 to 12 rows in one call (blocks of width 2, 2, 3 and 12): the bits of the one-row calls."""
    ns, space = halton_r3_space(count=60, k=12)
    patch = 17
    points = space.table.influence.centers[patch] + np.random.default_rng(count).uniform(-0.05, 0.05, (count, 2))
    rows, calls, errors = rows_and_one_row_calls(op, points, space.table, np.full(count, patch))
    assert errors == {}
    for (w, residual), (w_one, residual_one) in zip(rows, calls):
        assert np.array_equal(w, w_one) and residual == residual_one <= EXACTNESS_RTOL


def test_a_chunk_of_single_rows_and_twelve_row_patches_equals_one_row_calls():
    """Patches with one row and with twelve, the rows shuffled, in one chunk: each row has its one-row bits."""
    ns, space = halton_r3_space(count=60, k=12)
    rng = np.random.default_rng(4)
    patches = rng.permutation(np.concatenate([np.repeat([3, 40], 12), [7, 11, 52]]))
    points = space.table.influence.centers[patches] + rng.uniform(-0.05, 0.05, (patches.size, 2))
    rows, calls, errors = rows_and_one_row_calls(GENERAL_OP, points, space.table, patches)
    assert errors == {} and patches.size <= ndf.CHUNK_ROWS
    for (w, residual), (w_one, residual_one) in zip(rows, calls):
        assert np.array_equal(w, w_one) and residual == residual_one


def test_a_singular_patch_fails_each_of_its_rows_alone():
    """Three-node Gauss stencils, one with two coincident nodes: its saddle matrix is singular.

    Its rows fail with one error each, in shared blocks and in one-row blocks, and
    the other rows of the chunk equal their one-row calls.
    """
    rng = np.random.default_rng(6)
    stencils = [rng.random((3, 2)) for _ in range(4)]
    stencils[2][1] = stencils[2][0]  # two equal rows of the saddle matrix
    infl = [m.InfluenceSet(center=c[0], indices=np.arange(3), points=c, distances=np.linalg.norm(c - c[0], axis=1))
            for c in stencils]
    table = PatchTable.of_pairs(infl, [KernelSpace(m.Kernel("gauss", 1.0), c) for c in stencils])
    assert len(stack_spaces(table, np.arange(4))[0]) == 1  # one stacked group
    for patches in ([0, 2, 0, 1, 2, 0, 2, 3], [0, 1, 2, 3]):  # shared blocks; one row per patch
        patches = np.array(patches)
        points = table.influence.centers[patches] + rng.uniform(0.0, 0.1, (patches.size, 2))
        rows, calls, errors = rows_and_one_row_calls(m.LAPLACIAN, points, table, patches)
        failed = np.flatnonzero(patches == 2).tolist()
        assert sorted(errors) == failed and len({id(errors[r]) for r in failed}) == len(failed)
        for r, ((w, residual), call) in enumerate(zip(rows, calls)):
            if r in failed:
                assert "singular saddle system" in str(errors[r]) and "singular saddle system" in str(call)
                assert np.all(np.isnan(w)) and np.isnan(residual)
            else:
                assert np.array_equal(w, call[0]) and residual == call[1] <= EXACTNESS_RTOL


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
