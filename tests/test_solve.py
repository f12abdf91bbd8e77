import numpy as np
import pytest
import scipy.sparse

import meshfd as m
from meshfd.errors import ConfigError, InvalidInputError, SingularSystemError
from meshfd.problems import preset
from meshfd.solve import (
    GlobalSystem,
    RowMeta,
    assemble,
    build_sigma,
    solve_least_squares,
    solve_square,
)

from helpers import (
    five_star_sublist_space,
    jittered_cloud,
    quadratic_overlap_space_1d,
)


class TestBuildSigma:
    def test_same_index_1d_with_endpoint_redirection(self):
        n = 6
        ns, space = quadratic_overlap_space_1d(n)
        sigma = build_sigma(space, "same-index")
        assert sigma.size == ns.n
        # patch i is centered at node i+1; endpoints borrow the nearest patch
        assert sigma.pairs[0].patch == 0
        assert sigma.pairs[n].patch == n - 2
        for j in range(1, n):
            assert sigma.pairs[j].patch == j - 1

    def test_per_set_aggregate_block_structure(self):
        ns, space = quadratic_overlap_space_1d(5)
        sigma = build_sigma(space, "per-set-aggregate")
        assert sigma.size == sum(p.influence.size for p in space.patches)
        cursor = 0
        for pi, patch in enumerate(space.patches):
            block = sigma.pairs[cursor : cursor + patch.influence.size]
            assert all(pair.patch == pi for pair in block)
            cursor += patch.influence.size

    def test_nearest_node_on_the_nodes_is_identity(self):
        ns = jittered_cloud(1, n_axis=7)
        space = m.build_space(ns, "all", ("knn", 6), m.poly_patch_recipe(2))
        sigma = build_sigma(space, "nearest-node", collocation_points=ns.points)
        assert all(pair.patch == j for j, pair in enumerate(sigma.pairs))
        assert all(pair.node == j for j, pair in enumerate(sigma.pairs))

    def test_duplicated_points_get_distinct_patches(self):
        ns = jittered_cloud(2, n_axis=7)
        space = m.build_space(ns, "all", ("knn", 6), m.poly_patch_recipe(2))
        y = np.tile(ns.points[24], (3, 1))
        sigma = build_sigma(space, "nearest-node", collocation_points=y)
        picked = [pair.patch for pair in sigma.pairs]
        assert len(set(picked)) == 3
        assert picked[0] == 24

    def test_nearest_node_requires_points(self):
        ns, space = quadratic_overlap_space_1d(4)
        with pytest.raises(ConfigError):
            build_sigma(space, "nearest-node")

    def test_unknown_strategy(self):
        ns, space = quadratic_overlap_space_1d(4)
        with pytest.raises(ConfigError):
            build_sigma(space, "modal")


class TestAssemble:
    def test_1d_tridiagonal_plus_identity_system(self):
        n = 16
        h = 1.0 / n
        p = preset("bvp1d")
        ns, space = quadratic_overlap_space_1d(n)
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        a = gs.matrix.toarray()
        for j in range(1, n):
            row = np.zeros(ns.n)
            row[j - 1 : j + 2] = [1 / h**2, -2 / h**2, 1 / h**2]
            assert np.max(np.abs(a[j] - row)) <= 1e-12 / h**2
            assert gs.rhs[j] == p.rhs(ns.points[j])
        for j in (0, n):
            unit = np.zeros(ns.n)
            unit[j] = 1.0
            assert np.array_equal(a[j], unit)
            assert gs.rhs[j] == 0.0

    def test_2d_five_point_matrix(self):
        n = 8
        h = 1.0 / n
        p = preset("poisson2d")
        ns, space = five_star_sublist_space(n)
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        a = gs.matrix.toarray()
        grid = n + 1
        for i in range(1, n):
            for j in range(1, n):
                k = i * grid + j
                row = np.zeros(ns.n)
                row[k] = -4 / h**2
                for nb in (k - 1, k + 1, k - grid, k + grid):
                    row[nb] = 1 / h**2
                assert np.max(np.abs(a[k] - row)) <= 1e-12 / h**2
        for k in np.flatnonzero(ns.boundary_mask):
            unit = np.zeros(ns.n)
            unit[k] = 1.0
            assert np.array_equal(a[k], unit)

    def test_dirichlet_rows_are_exact_unit_rows(self):
        p = preset("poisson2d")
        ns, space = five_star_sublist_space(5)
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        for j, meta in enumerate(gs.row_meta):
            if meta.dirichlet:
                row = gs.matrix.getrow(j)
                assert row.nnz == 1
                assert row.data[0] == 1.0

    def test_stencil_sparsity(self):
        ns = jittered_cloud(3, n_axis=8)
        space = m.build_space(ns, "all", ("knn", 9),
                              m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0)))
        p = preset("poisson2d")
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        for j, pair in enumerate(sigma.pairs):
            assert gs.matrix.getrow(j).nnz <= space.patches[pair.patch].influence.size

    def test_aggregate_identity_rows_have_full_column_rank(self):
        ns, space = quadratic_overlap_space_1d(6)
        sigma = build_sigma(space, "per-set-aggregate")
        op = m.Operator("identity", identity_on_boundary=False)
        gs = assemble(space, op, lambda x: 0.0, sigma)
        rank = np.linalg.matrix_rank(gs.matrix.toarray())
        assert rank == ns.n

    def test_route_equivalence_on_interpolatory_spaces(self):
        p = preset("poisson2d")
        for seed in range(3):
            ns = jittered_cloud(seed, n_axis=9)
            for build in (
                lambda: m.build_space(ns, "all", ("knn", 6), m.poly_patch_recipe(2)),
                lambda: m.build_space(ns, "all", ("knn", 9),
                                      m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0))),
            ):
                space = build()
                sigma = build_sigma(space, "same-index")
                a = assemble(space, p.operator, p.rhs, sigma, route="exactness",
                             dirichlet_data=p.dirichlet)
                b = assemble(space, p.operator, p.rhs, sigma, route="lagrange",
                             dirichlet_data=p.dirichlet)
                assert np.max(np.abs((a.matrix - b.matrix).toarray())) <= 1e-10

    def test_deterministic_assembly(self):
        p = preset("poisson2d")
        ns, space = five_star_sublist_space(6)
        sigma = build_sigma(space, "same-index")
        a = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        b = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        assert np.array_equal(a.matrix.data, b.matrix.data)
        assert np.array_equal(a.matrix.indices, b.matrix.indices)
        assert np.array_equal(a.rhs, b.rhs)


def one_row(op, pair, patch):
    """The scalar call for one assembled row."""
    route = m.weights_kernel if isinstance(patch.space, m.KernelSpace) else m.weights_poly
    return route(op, pair.point, patch.influence, patch.space)


R3_TAIL1 = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1)

# Point-dependent coefficients; the first-order x term vanishes on half the
# points, so rows of one chunk carry different sets of derivative terms.
GENERAL_OP = m.Operator(
    "general-second-order",
    a=lambda x: np.array([[1.0 + x[0], 0.3 * x[1]], [0.3 * x[1], 2.0 - x[1]]]),
    b=lambda x: np.array([max(x[0] - 0.5, 0.0), 1.0]),
    c=lambda x: float(x[0] * x[1]),
    identity_on_boundary=False,
)


class TestBatchedAssembly:
    def mixed_spaces(self):
        """Kernel kNN patches plus single-node constant patches, and range stencils of varying size."""
        ns = m.generate_scattered(2, 60, [(0.0, 1.0), (0.0, 1.0)], source="halton")
        knn_space = m.build_space(ns, ns.interior_indices[::2], ("knn", 9), R3_TAIL1,
                                  uncovered="constant-patch")
        range_kernel = m.build_space(ns, "all", ("range", 0.2), R3_TAIL1)
        range_poly = m.build_space(ns, "all", ("range", 0.2), m.poly_patch_recipe(1))
        return [knn_space, range_kernel, range_poly]

    @pytest.mark.parametrize("chunk_rows", [1, 7, 256])
    @pytest.mark.parametrize("op", [m.Operator("laplacian", identity_on_boundary=False), GENERAL_OP],
                             ids=["laplacian", "general"])
    def test_rows_equal_one_row_calls(self, monkeypatch, chunk_rows, op):
        monkeypatch.setattr(m.ndf, "CHUNK_ROWS", chunk_rows)
        # no Dirichlet rows, so the constant patches carry engine rows too
        for space in self.mixed_spaces():
            sizes = {p.influence.size for p in space.patches}
            assert len(sizes) > 1
            sigma = build_sigma(space, "same-index")
            gs = assemble(space, op, lambda x: 0.0, sigma)
            for j, pair in enumerate(sigma.pairs):
                patch = space.patches[pair.patch]
                sw = one_row(op, pair, patch)
                expected = np.zeros(space.nodes.n)
                expected[patch.influence.indices] = sw.weights
                assert np.array_equal(gs.matrix[j].toarray()[0], expected)
                assert gs.row_meta[j].residual == sw.residual

    def test_collinear_stencil_mid_chunk_names_row_and_patch(self):
        rng = np.random.default_rng(5)
        line = np.column_stack([np.linspace(0.0, 0.7, 8), np.full(8, 10.0)])
        pts = np.vstack([rng.random((20, 2)), line, rng.random((20, 2))])
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(len(pts), dtype=bool))
        space = m.build_space(ns, "all", ("knn", 6), R3_TAIL1)
        sigma = build_sigma(space, "same-index")
        with pytest.raises(m.AssemblyError) as err:
            assemble(space, m.LAPLACIAN, lambda x: 0.0, sigma)
        assert (err.value.row, err.value.patch) == (20, 20)
        with pytest.raises(m.UnsolvableExactnessError) as scalar:
            one_row(m.LAPLACIAN, sigma.pairs[20], space.patches[20])
        assert str(err.value) == f"row 20 (patch 20, point {pts[20].tolist()}): {scalar.value}"
        assert "rank 2 < 3" in str(scalar.value)

    def test_identity_operator_gives_kronecker_rows(self):
        for space in self.mixed_spaces():
            sigma = build_sigma(space, "same-index")
            gs = assemble(space, m.IDENTITY, lambda x: 0.0, sigma)
            assert np.array_equal(gs.matrix.toarray(), np.eye(space.nodes.n))
            assert gs.worst_row_residual == 0.0

    def test_general_operator_matches_lagrange_route(self):
        ns = jittered_cloud(1, n_axis=9)
        space = m.build_space(ns, "all", ("knn", 9), R3_TAIL1)
        sigma = build_sigma(space, "same-index")
        a = assemble(space, GENERAL_OP, lambda x: 0.0, sigma)
        b = assemble(space, GENERAL_OP, lambda x: 0.0, sigma, route="lagrange")
        assert np.max(np.abs((a.matrix - b.matrix).toarray())) <= 1e-10


class TestSolveSquare:
    def test_zero_rhs_zero_solution(self):
        p = preset("bvp1d")
        ns, space = quadratic_overlap_space_1d(12)
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, p.operator, lambda x: 0.0, sigma, dirichlet_data=lambda x: 0.0)
        sol = solve_square(gs)
        assert np.max(np.abs(sol.nodal_values)) == 0.0

    def test_bvp1d_second_order_convergence(self):
        p = preset("bvp1d")
        errs = {}
        for n in (32, 64):
            ns, space = quadratic_overlap_space_1d(n)
            sigma = build_sigma(space, "same-index")
            gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
            sol = solve_square(gs)
            errs[n] = np.max(np.abs(sol.nodal_values - p.nodal_exact(ns)))
            assert sol.residual_norm <= 1e-8 * np.linalg.norm(gs.rhs)
        rate = np.log2(errs[32] / errs[64])
        assert rate >= 1.9

    def test_manufactured_poisson_convergence(self):
        p = preset("poisson2d")
        errs = {}
        for n in (8, 16):
            ns, space = five_star_sublist_space(n)
            sigma = build_sigma(space, "same-index")
            gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
            sol = solve_square(gs)
            errs[n] = np.max(np.abs(sol.nodal_values - p.nodal_exact(ns)))
        assert np.log2(errs[8] / errs[16]) >= 1.9

    def test_rectangular_input_rejected(self):
        gs = GlobalSystem(
            matrix=scipy.sparse.csr_matrix(np.ones((3, 2))),
            rhs=np.ones(3),
            row_meta=tuple(RowMeta(np.zeros(1), 0, 0.0, False) for _ in range(3)),
        )
        with pytest.raises(InvalidInputError):
            solve_square(gs)

    def test_singular_system_reported_with_condition(self):
        a = scipy.sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        gs = GlobalSystem(
            matrix=a, rhs=np.ones(2),
            row_meta=tuple(RowMeta(np.zeros(1), 0, 0.0, False) for _ in range(2)),
        )
        with pytest.raises(SingularSystemError) as err:
            solve_square(gs)
        assert err.value.cond_estimate is not None


class TestSolveLeastSquares:
    def test_square_nonsingular_matches_collocation(self):
        p = preset("poisson2d")
        ns, space = five_star_sublist_space(8)
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        direct = solve_square(gs)
        lsq = solve_least_squares(gs)
        assert np.max(np.abs(direct.nodal_values - lsq.nodal_values)) <= 1e-9
        assert lsq.rank_report.full_rank

    def test_aggregate_reduces_to_square_when_sets_disjoint(self):
        # two disjoint patches covering all four nodes exactly once
        pts = np.array([[0.0], [0.1], [0.6], [0.7]])
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(4, dtype=bool))
        space = m.build_space(ns, np.array([[0.05], [0.65]]), ("knn", 2), m.poly_patch_recipe(1))
        sigma = build_sigma(space, "per-set-aggregate")
        op = m.Operator("identity", identity_on_boundary=False)
        gs = assemble(space, op, lambda x: float(x[0]), sigma)
        assert gs.shape == (4, 4)
        lsq = solve_least_squares(gs)
        direct = solve_square(gs)
        assert np.allclose(lsq.nodal_values, direct.nodal_values, atol=1e-12)

    def test_aggregate_poisson_full_rank_and_accuracy(self):
        p = preset("poisson2d")
        ns = jittered_cloud(5, n_axis=9)
        space = m.build_space(ns, "all", ("knn", 9),
                              m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0)))
        sigma_sq = build_sigma(space, "same-index")
        gs_sq = assemble(space, p.operator, p.rhs, sigma_sq, dirichlet_data=p.dirichlet)
        err_sq = np.max(np.abs(solve_square(gs_sq).nodal_values - p.nodal_exact(ns)))

        sigma = build_sigma(space, "per-set-aggregate")
        gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        assert gs.shape[0] > gs.shape[1]
        sol = solve_least_squares(gs)
        assert sol.rank_report.full_rank
        assert np.isfinite(sol.residual_norm)
        err = np.max(np.abs(sol.nodal_values - p.nodal_exact(ns)))
        assert err <= 5.0 * max(err_sq, 1e-3)

    def test_normal_equation_residual_bound(self):
        p = preset("poisson2d")
        ns, space = five_star_sublist_space(6)
        sigma = build_sigma(space, "per-set-aggregate")
        gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        sol = solve_least_squares(gs)
        a = gs.matrix
        defect = np.linalg.norm(a.T @ (a @ sol.nodal_values - gs.rhs))
        assert defect <= 1e-7 * scipy.sparse.linalg.norm(a, "fro") * np.linalg.norm(gs.rhs)

    def test_rank_deficient_flagged_minimum_norm(self):
        a = scipy.sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]))
        gs = GlobalSystem(
            matrix=a, rhs=np.array([2.0, 2.0, 4.0]),
            row_meta=tuple(RowMeta(np.zeros(1), 0, 0.0, False) for _ in range(3)),
        )
        sol = solve_least_squares(gs)
        assert not sol.rank_report.full_rank
        # minimum-norm solution of the consistent rank-1 system
        assert np.allclose(sol.nodal_values, [1.0, 1.0], atol=1e-10)

    def test_underdetermined_rejected(self):
        a = scipy.sparse.csr_matrix(np.ones((2, 3)))
        gs = GlobalSystem(
            matrix=a, rhs=np.ones(2),
            row_meta=tuple(RowMeta(np.zeros(1), 0, 0.0, False) for _ in range(2)),
        )
        with pytest.raises(InvalidInputError):
            solve_least_squares(gs)

    def test_row_equilibration_flag(self):
        p = preset("poisson2d")
        ns, space = five_star_sublist_space(6)
        sigma = build_sigma(space, "per-set-aggregate")
        gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        plain = solve_least_squares(gs)
        scaled = solve_least_squares(gs, equilibrate=True)
        # both solve the problem to comparable accuracy but are distinct functionals
        exact = p.nodal_exact(ns)
        for sol in (plain, scaled):
            err = np.max(np.abs(sol.nodal_values - exact)[ns.interior_indices])
            assert err < 0.05
        assert not np.array_equal(plain.nodal_values, scaled.nodal_values)


class TestGaussPipeline:
    def test_gauss_rbf_fixed_shape_converges(self):
        # fixed shape parameter: refining the cloud sharpens the solution
        p = preset("poisson2d")
        errs = []
        for n_axis in (8, 15):
            ns = jittered_cloud(8, n_axis=n_axis, jitter=0.1)
            space = m.build_space(ns, "all", ("knn", 9),
                                  m.kernel_patch_recipe(m.Kernel("gauss", 2.0)))
            assert space.interpolatory
            sigma = build_sigma(space, "same-index")
            gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
            assert gs.worst_row_residual <= 1e-8
            sol = solve_square(gs)
            errs.append(np.max(np.abs(sol.nodal_values - p.nodal_exact(ns))[ns.interior_indices]))
        assert errs[0] < 0.05
        assert errs[1] < errs[0]


class TestAssemblyErrors:
    def test_failed_row_names_row_and_patch(self):
        from meshfd.errors import AssemblyError
        from helpers import five_star_full_p2_space

        ns, space = five_star_full_p2_space(4)
        # identity exactness at a point outside the node set is unsolvable on
        # full quadratics over a 5-star (six conditions, rank five)
        y = np.array([[0.52, 0.48]])
        sigma = build_sigma(space, "nearest-node", collocation_points=y)
        op = m.Operator("identity", identity_on_boundary=False)
        with pytest.raises(AssemblyError, match="row 0"):
            assemble(space, op, lambda x: 0.0, sigma)
