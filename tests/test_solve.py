import re

import numpy as np
import pytest
import scipy.sparse

import meshfd as m
from meshfd.errors import ConfigError, InvalidInputError, SingularSystemError
from meshfd import solve
from meshfd.problems import convergence_study, preset
from meshfd.spaces import PatchTable, StackedBasis
from meshfd.solve import (
    GlobalSystem,
    assemble,
    build_sigma,
    solve_least_squares,
    solve_square,
)

from helpers import (
    GENERAL_OP,
    constant,
    five_star_sublist_space,
    halton_r3_space,
    hand_made_space,
    jittered_cloud,
    quadratic_overlap_space_1d,
    seven_star_sublist_space,
)


def _line(n):
    """Coordinates for the n columns of a hand-made system: nodes on a line, in index order."""
    return np.arange(n, dtype=float)[:, None]


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

    def test_point_outside_the_influence_region_rejected(self):
        ns, space = quadratic_overlap_space_1d(4)  # last patch: center 0.75, stencil radius 0.25
        for y in (5.0, 1.3):
            with pytest.raises(ConfigError, match="outside the influence region of patch 2"):
                build_sigma(space, "nearest-node", collocation_points=[[y]])
        assert build_sigma(space, "nearest-node", collocation_points=[[1.2]]).pairs[0].patch == 2

    @pytest.mark.parametrize("strategy", ["same-index", "nearest-node", "per-set-aggregate"])
    def test_every_strategy_yields_distinct_pairs(self, strategy):
        ns, space = five_star_sublist_space(4)  # boundary nodes take the same-index fallback
        points = np.vstack([ns.points, np.tile(ns.points[12], (3, 1))])
        sigma = build_sigma(space, strategy,
                            collocation_points=points if strategy == "nearest-node" else None)
        keys = [(pair.point.tobytes(), pair.patch) for pair in sigma.pairs]
        assert len(set(keys)) == len(keys)
        if strategy == "nearest-node":
            assert len({patch for key, patch in keys if key == ns.points[12].tobytes()}) == 4

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
        assert np.array_equal(gs.dirichlet, ns.boundary_mask)
        for j in np.flatnonzero(gs.dirichlet):
            row = gs.matrix.getrow(j)
            assert row.nnz == 1
            assert row.data[0] == 1.0

    def test_stencil_sparsity(self):
        ns = jittered_cloud(3, n_axis=8)
        space = m.build_space(ns, "all", ("knn", 9),
                              m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1))
        p = preset("poisson2d")
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        for j, pair in enumerate(sigma.pairs):
            assert gs.matrix.getrow(j).nnz <= space.patches[pair.patch].influence.size

    def test_aggregate_identity_rows_have_full_column_rank(self):
        ns, space = quadratic_overlap_space_1d(6)
        sigma = build_sigma(space, "per-set-aggregate")
        op = m.Operator("identity", identity_on_boundary=False)
        gs = assemble(space, op, constant(0.0), sigma)
        rank = np.linalg.matrix_rank(gs.matrix.toarray())
        assert rank == ns.n

    def test_route_equivalence_on_interpolatory_spaces(self):
        p = preset("poisson2d")
        for seed in range(3):
            ns = jittered_cloud(seed, n_axis=9)
            for build in (
                lambda: m.build_space(ns, "all", ("knn", 6), m.poly_patch_recipe(2)),
                lambda: m.build_space(ns, "all", ("knn", 9),
                                      m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1)),
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
            gs = assemble(space, op, constant(0.0), sigma)
            for j, pair in enumerate(sigma.pairs):
                patch = space.patches[pair.patch]
                sw = one_row(op, pair, patch)
                expected = np.zeros(space.nodes.n)
                expected[patch.influence.indices] = sw.weights
                assert np.array_equal(gs.matrix[j].toarray()[0], expected)
                assert gs.residual[j] == sw.residual

    @pytest.mark.parametrize("op", [m.Operator("laplacian", identity_on_boundary=False), GENERAL_OP],
                             ids=["laplacian", "general"])
    def test_aggregate_rows_equal_one_row_calls(self, monkeypatch, op):
        """Per-set-aggregate rows share their patch's stack and still equal the one-row calls."""
        for space in self.mixed_spaces():
            sigma = build_sigma(space, "per-set-aggregate")
            expected = np.zeros((sigma.size, space.nodes.n))
            residuals = []
            for j, pair in enumerate(sigma.pairs):
                patch = space.patches[pair.patch]
                sw = one_row(op, pair, patch)
                expected[j, patch.influence.indices] = sw.weights
                residuals.append(sw.residual)
            for chunk_rows in (1, 7, 256):
                monkeypatch.setattr(m.ndf, "CHUNK_ROWS", chunk_rows)
                gs = assemble(space, op, constant(0.0), sigma)
                assert np.array_equal(gs.matrix.toarray(), expected)
                assert gs.residual.tolist() == residuals

    @pytest.mark.parametrize("strategy", ["per-set-aggregate", "same-index"])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 256])
    def test_one_stack_per_call_of_the_distinct_patches(self, monkeypatch, chunk_rows, strategy):
        monkeypatch.setattr(m.ndf, "CHUNK_ROWS", chunk_rows)
        ns = m.generate_scattered(2, 30, [(0.0, 1.0), (0.0, 1.0)], source="halton")
        space = m.build_space(ns, "all", ("knn", 9), R3_TAIL1)
        sigma = build_sigma(space, strategy)
        stacked, stack = [], m.ndf.stack_spaces

        def counting(table, patches):
            stacked.append(np.asarray(patches).tolist())
            return stack(table, patches)

        monkeypatch.setattr(m.ndf, "stack_spaces", counting)
        assemble(space, m.Operator("laplacian", identity_on_boundary=False), constant(0.0), sigma)
        assert stacked == [sorted(set(sigma.patch.tolist()))]

    @pytest.mark.parametrize("chunk_rows", [7, 256])
    def test_each_patch_nodal_block_evaluated_once_per_chunk(self, monkeypatch, chunk_rows):
        monkeypatch.setattr(m.ndf, "CHUNK_ROWS", chunk_rows)
        ns = m.generate_scattered(2, 30, [(0.0, 1.0), (0.0, 1.0)], source="halton")
        space = m.build_space(ns, "all", ("knn", 9), R3_TAIL1)
        sigma = build_sigma(space, "per-set-aggregate")
        at_nodes, blocks = [], StackedBasis.blocks

        def counting(basis, points, betas=None, coef=None, rows=slice(None)):
            if points is None:  # patch i is centred on node i, its first stencil node
                at_nodes.append(basis.indices[rows][:, 0].tolist())
            return blocks(basis, points, betas, coef, rows)

        monkeypatch.setattr(StackedBasis, "blocks", counting)
        assemble(space, m.Operator("laplacian", identity_on_boundary=False), constant(0.0), sigma)
        patches = [pair.patch for pair in sigma.pairs]
        chunks = [sorted(set(patches[lo:lo + chunk_rows])) for lo in range(0, len(patches), chunk_rows)]
        assert len(at_nodes) == len(chunks)  # one kernel group per chunk on this cloud
        assert [sorted(seen) for seen in at_nodes] == chunks

    @pytest.mark.parametrize("bad", ["moved-centres"])
    def test_bad_row_mid_chunk_gets_its_own_error(self, bad):
        ns = m.generate_scattered(2, 30, [(0.0, 1.0), (0.0, 1.0)], source="halton")
        space = m.build_space(ns, "all", ("knn", 9), R3_TAIL1)
        sigma = build_sigma(space, "same-index")
        pairs = [pair for pair in sigma.pairs if not ns.boundary_mask[pair.node]]
        k = len(pairs) // 2
        patches = [(space.patches[pair.patch].influence, space.patches[pair.patch].space) for pair in pairs]
        infl, ps = patches[k]  # a bad pairing is refused where the table is filled, before any row
        moved = (infl, m.KernelSpace(ps.kernel, ps.centers + 0.01, aug=ps.aug, scale=ps.scale))
        message = "kernel interpolation expects values at the kernel centers"
        with pytest.raises(InvalidInputError, match=message):
            PatchTable.of_pairs(*zip(*patches[:k] + [moved]))
        with pytest.raises(InvalidInputError, match=message):
            hand_made_space(ns, [moved if i == pairs[k].patch else (p.influence, p.space)
                                 for i, p in enumerate(space.patches)])

    def test_collinear_stencil_mid_chunk_names_row_and_patch(self):
        rng = np.random.default_rng(5)
        line = np.column_stack([np.linspace(0.0, 0.7, 8), np.full(8, 10.0)])
        pts = np.vstack([rng.random((20, 2)), line, rng.random((20, 2))])
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(len(pts), dtype=bool))
        space = m.build_space(ns, "all", ("knn", 6), R3_TAIL1)
        sigma = build_sigma(space, "same-index")
        with pytest.raises(m.AssemblyError) as err:
            assemble(space, m.LAPLACIAN, constant(0.0), sigma)
        assert (err.value.row, err.value.patch) == (20, 20)
        with pytest.raises(m.UnsolvableExactnessError) as scalar:
            one_row(m.LAPLACIAN, sigma.pairs[20], space.patches[20])
        assert str(err.value) == f"row 20 (patch 20, point {pts[20].tolist()}): {scalar.value}"
        assert "rank 2 < 3" in str(scalar.value)

    def test_identity_operator_gives_kronecker_rows(self):
        for space in self.mixed_spaces():
            sigma = build_sigma(space, "same-index")
            gs = assemble(space, m.IDENTITY, constant(0.0), sigma)
            assert np.array_equal(gs.matrix.toarray(), np.eye(space.nodes.n))
            assert gs.worst_row_residual == 0.0

    def test_general_operator_matches_lagrange_route(self):
        ns = jittered_cloud(1, n_axis=9)
        space = m.build_space(ns, "all", ("knn", 9), R3_TAIL1)
        sigma = build_sigma(space, "same-index")
        a = assemble(space, GENERAL_OP, constant(0.0), sigma)
        b = assemble(space, GENERAL_OP, constant(0.0), sigma, route="lagrange")
        assert np.max(np.abs((a.matrix - b.matrix).toarray())) <= 1e-10


class TestSolveSquare:
    def test_zero_rhs_zero_solution(self):
        p = preset("bvp1d")
        ns, space = quadratic_overlap_space_1d(12)
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, p.operator, constant(0.0), sigma, dirichlet_data=constant(0.0))
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

    def test_default_kernel_recipe_converges_at_second_order(self):
        """r^3 with the default quadratic tail and k = 12 = 2 dim(tail) on Halton clouds."""
        def level(problem, count):
            ns = m.generate_scattered(2, count, problem.bounds, source="halton")
            space = m.build_space(ns, "all", ("knn", 12), m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0)))
            gs = assemble(space, problem.operator, problem.rhs, build_sigma(space, "same-index"),
                          dirichlet_data=problem.dirichlet)
            return count ** -0.5, ns, solve_square(gs).nodal_values

        table = convergence_study(preset("poisson2d"), level, [400, 1600, 6400])
        assert all(row.observed_order >= 1.5 for row in table[1:]), [row.max_err for row in table]

    def test_rectangular_input_rejected(self):
        gs = GlobalSystem(
            matrix=scipy.sparse.csr_matrix(np.ones((3, 2))),
            rhs=np.ones(3),
            residual=np.zeros(3), dirichlet=np.zeros(3, dtype=bool), points=_line(2),
        )
        with pytest.raises(InvalidInputError):
            solve_square(gs)

    def test_singular_system_reported_with_condition(self):
        a = scipy.sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        gs = GlobalSystem(
            matrix=a, rhs=np.ones(2),
            residual=np.zeros(2), dirichlet=np.zeros(2, dtype=bool), points=_line(2),
        )
        with pytest.raises(SingularSystemError) as err:
            solve_square(gs)
        assert err.value.cond_estimate == np.inf


def _hand_system(rows, dirichlet, rhs):
    return GlobalSystem(matrix=scipy.sparse.csr_matrix(np.array(rows, dtype=float)),
                        rhs=np.array(rhs, dtype=float), residual=np.zeros(len(rows)),
                        dirichlet=np.array(dirichlet, dtype=bool), points=_line(len(rows[0])))


def _boundary_data(x):
    return 1.0 + np.sum(x, axis=1)


ELIMINATION_SYSTEMS = {
    "bvp1d": lambda: (quadratic_overlap_space_1d(16)[1], preset("bvp1d")),
    "five-star": lambda: (five_star_sublist_space(8)[1], preset("poisson2d")),
    "r3-tail2": lambda: (halton_r3_space(60)[1], preset("poisson2d")),
}


class TestEliminatedSolve:
    """The Dirichlet unknowns are imposed exactly and only the interior block is factored."""

    def system(self, name):
        space, p = ELIMINATION_SYSTEMS[name]()
        return assemble(space, p.operator, p.rhs, build_sigma(space, "same-index"),
                        dirichlet_data=_boundary_data)

    @pytest.mark.parametrize("name", sorted(ELIMINATION_SYSTEMS))
    def test_agrees_with_a_dense_solve_of_the_full_system(self, name):
        gs = self.system(name)
        assert gs.dirichlet.any()
        ref = np.linalg.solve(gs.matrix.toarray(), gs.rhs)
        u = solve_square(gs).nodal_values
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", sorted(ELIMINATION_SYSTEMS))
    def test_dirichlet_values_are_the_rhs_bit_for_bit(self, name):
        gs = self.system(name)
        rows = np.flatnonzero(gs.dirichlet)
        nodes = gs.matrix.indices[gs.matrix.indptr[rows]]
        u = solve_square(gs).nodal_values
        assert np.array_equal(u[nodes], gs.rhs[rows])
        assert np.unique(gs.rhs[rows]).size > 1  # non-constant boundary data

    def test_splu_gets_the_interior_block(self, monkeypatch):
        gs = self.system("five-star")
        seen, splu = [], scipy.sparse.linalg.splu

        def spy(a, **kwargs):
            seen.append((a.shape, kwargs))
            return splu(a, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        sol = solve_square(gs)
        n, d = gs.shape[0], int(gs.dirichlet.sum())
        assert seen == [((n - d, n - d), {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.1,
                                          "options": {"SymmetricMode": True}})]
        block = gs.matrix.toarray()[~gs.dirichlet][:, ~gs.dirichlet]  # each unit row sits on its own node
        assert sol.rank_report.cond_estimate == pytest.approx(np.linalg.cond(block, 1), rel=1e-9)
        assert sol.residual_norm == np.linalg.norm(gs.matrix @ sol.nodal_values - gs.rhs)

    def test_two_unit_rows_on_one_node_raise(self):
        gs = _hand_system([[1, 0, 0], [1, 0, 0], [1, -2, 1]], [True, True, False], [1, 2, 0])
        with pytest.raises(SingularSystemError, match="two Dirichlet rows fix node 0"):
            solve_square(gs)

    @pytest.mark.parametrize("row", [[1, 1, 0], [2, 0, 0], [0, 0, 0]], ids=["two-entries", "not-one", "empty"])
    def test_flagged_row_that_is_not_a_unit_row_raises(self, row):
        gs = _hand_system([row, [1, -2, 1], [0, 0, 1]], [True, False, True], [1, 0, 3])
        with pytest.raises(InvalidInputError, match="Dirichlet row 0 is not a unit row"):
            solve_square(gs)

    def test_system_without_dirichlet_rows(self):
        rows = [[4, -1, 0.5], [-1, 3, -1], [0.25, -1, 2]]
        gs = _hand_system(rows, [False] * 3, [1, 2, 3])
        sol = solve_square(gs)
        assert np.allclose(sol.nodal_values, np.linalg.solve(rows, [1, 2, 3]), rtol=1e-14, atol=0.0)

    def test_system_of_unit_rows_only(self):
        gs = _hand_system([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [True] * 3, [1.5, -2.5, 3.5])
        sol = solve_square(gs)
        assert sol.nodal_values.tolist() == [3.5, 1.5, -2.5]
        assert sol.residual_norm == 0.0
        assert sol.rank_report.cond_estimate == 1.0

    def test_singular_interior_block_reported_with_its_condition(self):
        gs = _hand_system([[1, 0, 0], [0, 1, 1], [5, 1, 1]], [True, False, False], [1, 2, 3])
        with pytest.raises(SingularSystemError) as err:
            solve_square(gs)
        assert err.value.cond_estimate == np.inf

    def test_failed_factorization_makes_no_dense_copy(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "cond", lambda *args: pytest.fail("densified"))
        gs = _hand_system([[1, 0, 0], [0, 1, 1], [5, 1, 1]], [True, False, False], [1, 2, 3])
        with pytest.raises(SingularSystemError, match="^singular collocation system") as err:
            solve_square(gs)
        assert err.value.cond_estimate == np.inf


STAR_GRIDS = {
    "five-star-16": (five_star_sublist_space, 16),
    "five-star-64": (five_star_sublist_space, 64),
    "seven-star-8": (seven_star_sublist_space, 8),
}


class TestNodeOrder:
    """The interior block is factored in coordinate order, so node labels do not reach the solve."""

    @staticmethod
    def solve(builder, n, order=None):
        ns, space = builder(n, order)
        gs = assemble(space, m.LAPLACIAN, lambda x: np.cos(np.sum(x, axis=1)), build_sigma(space, "same-index"),
                      dirichlet_data=_boundary_data)
        return ns, solve_square(gs)

    @pytest.mark.parametrize("name", sorted(STAR_GRIDS))
    def test_relabelled_grid_gives_the_same_solution_bit_for_bit(self, name):
        builder, n = STAR_GRIDS[name]
        ns, ref = self.solve(builder, n)
        order = np.random.default_rng(14).permutation(ns.n)
        _, sol = self.solve(builder, n, order)
        assert np.array_equal(sol.nodal_values, ref.nodal_values[order])
        assert sol.rank_report.cond_estimate == ref.rank_report.cond_estimate

    def test_generator_order_factors_the_block_in_index_order(self, monkeypatch):
        ns, space = five_star_sublist_space(8)
        gs = assemble(space, m.LAPLACIAN, constant(1.0), build_sigma(space, "same-index"),
                      dirichlet_data=_boundary_data)
        seen, splu = [], scipy.sparse.linalg.splu

        def spy(a, **kwargs):
            seen.append(a)
            return splu(a, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        solve_square(gs)
        inner = ns.interior_indices
        assert (seen[0] != gs.matrix[inner][:, inner]).nnz == 0


class TestNoDigitLeft:
    """A block whose condition estimate reaches 1/eps is reported, not silently returned."""

    @staticmethod
    def random_cloud_solve(seed):
        ns = m.generate_scattered(2, 1600, [(0.0, 1.0), (0.0, 1.0)], source="random", seed=seed)
        recipe = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=2)
        space = m.build_space(ns, "all", ("knn", 12), recipe)
        p = preset("poisson2d")
        gs = assemble(space, p.operator, p.rhs, build_sigma(space, "same-index"), dirichlet_data=p.dirichlet)
        return solve_square(gs)

    def test_failing_random_cloud_is_flagged(self):
        report = self.random_cloud_solve(2).rank_report
        assert not report.full_rank
        assert report.cond_estimate * np.finfo(float).eps >= 1.0
        assert report.note.startswith(f"interior-block condition estimate {report.cond_estimate:.3e}")
        assert "1/eps = 4.504e+15" in report.note

    def test_working_random_cloud_is_not_flagged(self):
        report = self.random_cloud_solve(3).rank_report
        assert report.full_rank
        assert report.note == ""
        assert report.cond_estimate < 1e8

    def test_failed_estimate_is_flagged(self, monkeypatch):
        def fail(operator, t):
            raise RuntimeError("estimate failed")

        monkeypatch.setattr(scipy.sparse.linalg, "onenormest", fail)
        report = solve_square(_hand_system([[2, 1], [1, 3]], [False, False], [1, 2])).rank_report
        assert np.isnan(report.cond_estimate)
        assert not report.full_rank
        assert report.note == "interior-block condition estimate failed: no digit of the solution is verified"

    def test_nearly_singular_hand_block_is_flagged_and_still_solved(self):
        gs = _hand_system([[1, 1], [1, 1 + 4e-16]], [False, False], [2, 2])
        sol = solve_square(gs)
        assert not sol.rank_report.full_rank
        assert "keeps no digit" in sol.rank_report.note
        assert np.all(np.isfinite(sol.nodal_values))


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
        gs = assemble(space, op, lambda x: x[:, 0], sigma)
        assert gs.shape == (4, 4)
        lsq = solve_least_squares(gs)
        direct = solve_square(gs)
        assert np.allclose(lsq.nodal_values, direct.nodal_values, atol=1e-12)

    def test_aggregate_poisson_full_rank_and_accuracy(self):
        p = preset("poisson2d")
        ns = jittered_cloud(5, n_axis=9)
        space = m.build_space(ns, "all", ("knn", 9),
                              m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1))
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
            residual=np.zeros(3), dirichlet=np.zeros(3, dtype=bool), points=_line(2),
        )
        sol = solve_least_squares(gs)
        assert not sol.rank_report.full_rank
        # minimum-norm solution of the consistent rank-1 system
        assert np.allclose(sol.nodal_values, [1.0, 1.0], atol=1e-10)

    def test_underdetermined_rejected(self):
        a = scipy.sparse.csr_matrix(np.ones((2, 3)))
        gs = GlobalSystem(
            matrix=a, rhs=np.ones(2),
            residual=np.zeros(2), dirichlet=np.zeros(2, dtype=bool), points=_line(3),
        )
        with pytest.raises(InvalidInputError):
            solve_least_squares(gs)


class TestLeastSquaresFallbacks:
    """A zero column makes the normal equations singular and forces a fallback."""

    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
    B = np.array([1.0, 2.0, 2.5, -0.5])

    def system(self):
        return GlobalSystem(
            matrix=scipy.sparse.csr_matrix(self.A), rhs=self.B,
            residual=np.zeros(4), dirichlet=np.zeros(4, dtype=bool), points=_line(3),
        )

    def test_dense_minimum_norm_branch(self):
        sol = solve_least_squares(self.system())
        assert sol.rank_report.note == "dense minimum-norm fallback, rank 2 of 3"
        assert not sol.rank_report.full_rank
        ref = np.linalg.lstsq(self.A, self.B, rcond=None)[0]
        assert np.allclose(sol.nodal_values, ref, rtol=0.0, atol=1e-12)

    def test_iterative_branch(self, monkeypatch):
        monkeypatch.setattr(solve, "_DENSE_FALLBACK_ENTRIES", 0)
        sol = solve_least_squares(self.system())
        assert sol.rank_report.note.startswith("iterative fallback (lsqr)")
        assert not sol.rank_report.full_rank
        ref = np.linalg.lstsq(self.A, self.B, rcond=None)[0]
        assert np.allclose(sol.nodal_values, ref, rtol=0.0, atol=1e-10)


class TestNormalEquationRejection:
    def test_rejected_normal_equations_fall_back_to_the_dense_solve(self, monkeypatch):
        ns = m.generate_scattered(2, 60, [(0.0, 1.0), (0.0, 1.0)], source="halton")
        recipe = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=2)
        space = m.build_space(ns, "all", ("knn", 12), recipe)
        p = preset("poisson2d")
        gs = assemble(space, p.operator, p.rhs, build_sigma(space, "per-set-aggregate"),
                      dirichlet_data=p.dirichlet)
        accepted = solve_least_squares(gs)
        assert accepted.rank_report.note.startswith("normal-equation residual")
        monkeypatch.setattr(solve, "NORMAL_EQUATION_RTOL", 0.0)
        fallback = solve_least_squares(gs)
        assert fallback.rank_report.note == f"dense minimum-norm fallback, rank {ns.n} of {ns.n}"
        assert fallback.rank_report.full_rank
        assert np.max(np.abs(fallback.nodal_values - accepted.nodal_values)) <= 1e-8


class TestGaussPipeline:
    def test_gauss_rbf_fixed_shape_converges(self):
        # fixed shape parameter: refining the cloud sharpens the solution
        p = preset("poisson2d")
        errs = []
        for n_axis in (8, 15):
            ns = jittered_cloud(8, n_axis=n_axis, jitter=0.1)
            space = m.build_space(ns, "all", ("knn", 9),
                                  m.kernel_patch_recipe(m.Kernel("gauss", 2.0), augmentation_degree=None))
            assert space.interpolatory
            sigma = build_sigma(space, "same-index")
            gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
            assert gs.worst_row_residual <= 1e-8
            sol = solve_square(gs)
            errs.append(np.max(np.abs(sol.nodal_values - p.nodal_exact(ns))[ns.interior_indices]))
        assert errs[0] < 0.05
        assert errs[1] < errs[0]


class _Recording:
    """Problem data equal to ``value`` that keeps the points of every call."""

    def __init__(self, value):
        self.value, self.calls = value, []

    def __call__(self, x):
        self.calls.append(np.array(x))
        return np.full(len(x), self.value)


class TestProblemData:
    """The right-hand side and the Dirichlet data are fields: one call per row set, (n, d) in, (n,) out."""

    @staticmethod
    def system():
        _, space = quadratic_overlap_space_1d(8)  # 9 nodes: 7 free rows, 2 Dirichlet rows
        return space, build_sigma(space, "same-index"), preset("bvp1d").operator

    def test_one_call_per_row_set(self):
        space, sigma, op = self.system()
        f, g = _Recording(2.0), _Recording(3.0)
        gs = assemble(space, op, f, sigma, dirichlet_data=g)
        assert [c.shape for c in f.calls] == [(7, 1)] and [c.shape for c in g.calls] == [(2, 1)]
        assert np.array_equal(f.calls[0], sigma.points[~gs.dirichlet])
        assert np.array_equal(g.calls[0], sigma.points[gs.dirichlet])
        assert np.array_equal(gs.rhs, np.where(gs.dirichlet, 3.0, 2.0))

    def test_rhs_serves_the_dirichlet_rows_without_dirichlet_data(self):
        space, sigma, op = self.system()
        f = _Recording(2.0)
        gs = assemble(space, op, f, sigma)
        assert [c.shape for c in f.calls] == [(7, 1), (2, 1)]
        assert np.array_equal(f.calls[0], sigma.points[~gs.dirichlet])
        assert np.array_equal(f.calls[1], sigma.points[gs.dirichlet])
        assert np.array_equal(gs.rhs, np.full(9, 2.0))

    def test_no_dirichlet_row_is_a_call_on_no_points(self):
        ns = m.generate_scattered(2, 30, [(0.0, 1.0), (0.0, 1.0)], source="halton")
        space = m.build_space(ns, "all", ("knn", 9), R3_TAIL1)
        f, g = _Recording(1.0), _Recording(0.0)
        gs = assemble(space, m.Operator("laplacian", identity_on_boundary=False), f,
                      build_sigma(space, "same-index"), dirichlet_data=g)
        assert not gs.dirichlet.any()
        assert [c.shape for c in f.calls] == [(ns.n, 2)] and [c.shape for c in g.calls] == [(0, 2)]

    @pytest.mark.parametrize("bad, shape", [(lambda x: float(x[0, 0]), "()"), (lambda x: x[:, :1], "(7, 1)")],
                             ids=["scalar", "column"])
    def test_rhs_of_another_shape_is_refused(self, bad, shape):
        space, sigma, op = self.system()
        message = f"rhs must map (n, d) points to an (n,) array: got shape {shape} for 7 points"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            assemble(space, op, bad, sigma, dirichlet_data=constant(0.0))

    @pytest.mark.parametrize("bad, shape", [(lambda x: float(x[0, 0]), "()"), (lambda x: x[:, :1], "(2, 1)")],
                             ids=["scalar", "column"])
    def test_dirichlet_data_of_another_shape_is_refused(self, bad, shape):
        space, sigma, op = self.system()
        message = f"dirichlet_data must map (n, d) points to an (n,) array: got shape {shape} for 2 points"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            assemble(space, op, constant(0.0), sigma, dirichlet_data=bad)


class TestNonFiniteData:
    """A NaN right-hand side is refused where the system is made and never passes as a full-rank solve."""

    def grid_space(self):
        ns = m.generate_grid(2, 6, [(0.0, 1.0), (0.0, 1.0)])
        return ns, m.build_space(ns, "all", ("knn", 6), m.poly_patch_recipe(2))

    def test_assembly_names_the_row_and_its_point(self):
        ns, space = self.grid_space()
        sigma = build_sigma(space, "same-index")
        j = int(ns.interior_indices[0])
        message = f"right-hand side of row {j} at point {ns.points[j].tolist()} is not finite: nan"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            assemble(space, m.LAPLACIAN, constant(float("nan")), sigma, dirichlet_data=constant(0.0))
        message = "Dirichlet value of row 0 at point [0.0, 0.0] is not finite: inf"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            assemble(space, m.LAPLACIAN, constant(0.0), sigma, dirichlet_data=constant(float("inf")))

    @pytest.mark.parametrize("dirichlet, rhs, message", [
        ([False] * 3, [1.0, np.nan, 1.0], "right-hand side of row 1 is not finite: nan"),
        ([True, False, False], [np.inf, 0.0, 1.0], "Dirichlet value of row 0 is not finite: inf"),
    ], ids=["interior-nan", "dirichlet-inf"])
    def test_square_solve_refuses_non_finite_data_before_factoring(self, monkeypatch, dirichlet, rhs, message):
        gs = _hand_system([[1, 0, 0], [-1, 2, 0], [0, -1, 2]], dirichlet, rhs)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda *args, **kwargs: pytest.fail("factored"))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            solve_square(gs)

    def test_square_solve_of_finite_data_with_a_non_finite_solution_raises(self):
        gs = _hand_system([[1e-300, 0], [0, 1]], [False, False], [1e10, 1.0])
        with pytest.raises(SingularSystemError, match="^factorization produced non-finite values$") as err:
            solve_square(gs)
        assert err.value.cond_estimate == pytest.approx(1e300)

    def test_least_squares_never_reports_a_non_finite_solution_as_full_rank(self):
        a = np.vstack([np.eye(3), np.ones((1, 3))])
        gs = GlobalSystem(matrix=scipy.sparse.csr_matrix(a), rhs=np.array([1.0, np.nan, 2.0, 0.0]),
                          residual=np.zeros(4), dirichlet=np.zeros(4, dtype=bool), points=_line(3))
        sol = solve_least_squares(gs)
        assert not np.all(np.isfinite(sol.nodal_values))
        assert not sol.rank_report.full_rank
        assert sol.rank_report.note.endswith("; the solution is not finite")


class TestAssemblyErrors:
    def test_lagrange_route_refuses_a_non_interpolatory_space(self):
        from helpers import five_star_full_p2_space

        ns, space = five_star_full_p2_space(4)
        sigma = build_sigma(space, "same-index")
        with pytest.raises(m.ContractError, match="^the cardinal-basis route requires an interpolatory space$"):
            assemble(space, m.LAPLACIAN, constant(0.0), sigma, route="lagrange")

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
            assemble(space, op, constant(0.0), sigma)
