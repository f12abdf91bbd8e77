import logging

import numpy as np
import pytest

import meshfd as m
from meshfd.errors import (
    AnalysisSizeError,
    ConstructionError,
    ContractError,
    InconsistentSplineError,
    InvalidInputError,
)
from helpers import (
    five_star_full_p2_space,
    five_star_sublist_space,
    grid1d,
    jittered_cloud,
    quadratic_overlap_space_1d,
)


def lagrange_patch_1d(x, j, i, h):
    """Piecewise quadratic cardinal patches on a uniform 1D grid."""
    xj = j * h
    if i == j - 1:
        return 0.5 * (x - (xj - 2 * h)) * (x - (xj - h)) / h**2
    if i == j:
        return -(x - (xj - h)) * (x - (xj + h)) / h**2
    if i == j + 1:
        return 0.5 * (x - (xj + h)) * (x - (xj + 2 * h)) / h**2
    return 0.0


class TestBuildSpace:
    def test_1d_quadratic_layout(self):
        ns, space = quadratic_overlap_space_1d(8)
        assert space.m == 7  # one patch per interior node
        assert space.interpolatory
        assert space.failing_patches == ()
        for i, patch in enumerate(space.patches):
            assert set(patch.influence.indices.tolist()) == {i, i + 1, i + 2}

    def test_2d_sublist_is_interpolatory(self):
        ns, space = five_star_sublist_space(4)
        assert space.interpolatory
        assert space.m == 9 + 4  # interior 5-stars plus four corner completions

    def test_single_constant_patch_not_interpolatory(self):
        ns = grid1d(3)
        space = m.build_space(ns, np.array([[0.5]]), ("knn", ns.n), m.poly_patch_recipe(0))
        assert not space.interpolatory
        assert space.failing_patches == (0,)

    def test_uncovered_node_is_an_error_naming_it(self):
        ns = grid1d(4)
        with pytest.raises(ConstructionError, match="0"):
            m.build_space(ns, np.array([[1.0]]), ("knn", 3), m.poly_patch_recipe(2))

    def test_non_interpolating_patches_logged_at_info(self, caplog):
        with caplog.at_level(logging.INFO, logger="meshfd.spline"):
            five_star_full_p2_space(4)
        [record] = caplog.records
        assert record.levelno == logging.INFO
        assert record.getMessage() == (
            "9 of 13 patches are not interpolation sets (first: [0, 1, 2, 3, 4, 5, 6, 7, 8])"
        )
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="meshfd.spline"):
            five_star_sublist_space(4)
        assert caplog.records == []

    def test_constant_patch_completion_covers(self):
        ns, space = five_star_full_p2_space(4)
        assert space.m == 13
        assert len([p for p in space.patches if p.space.dim == 1]) == 4

    def test_empty_selector_result_rejected(self):
        ns = grid1d(4)
        with pytest.raises(ConstructionError, match="no influence"):
            m.build_space(ns, np.array([[10.0]]), ("range", 0.01), m.poly_patch_recipe(2))

    def test_centers_as_node_indices(self):
        ns = grid1d(6)
        space = m.build_space(ns, np.array([2, 3, 4]), ("knn", 3), m.poly_patch_recipe(2),
                              uncovered="constant-patch")
        centered = [p.center_node for p in space.patches[:3]]
        assert centered == [2, 3, 4]
        assert all(p.is_interpolation_set for p in space.patches)

    @pytest.mark.parametrize("bad", [[-1, 2], [2, 7]])
    def test_out_of_range_center_indices_rejected(self, bad):
        ns = grid1d(6)
        with pytest.raises(InvalidInputError, match="center indices"):
            m.build_space(ns, np.array(bad), ("knn", 3), m.poly_patch_recipe(2),
                          uncovered="constant-patch")


class TestDimensionAnalysis:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_five_star_full_quadratics_identity(self, n):
        ns, space = five_star_full_p2_space(n)
        rep = m.dimension_analysis(space)
        assert rep.dim_total == (n + 1) ** 2 + (n - 1) ** 2
        assert rep.dim_ker_T == (n - 1) ** 2
        assert rep.dim_im_T == (n + 1) ** 2
        assert rep.dim_total == rep.dim_ker_T + rep.dim_im_T
        assert not rep.interpolatory

    def test_interpolatory_space_dim_equals_node_count(self):
        ns, space = quadratic_overlap_space_1d(6)
        rep = m.dimension_analysis(space)
        assert rep.dim_total == ns.n
        assert rep.dim_ker_T == 0
        assert rep.dim_im_T == ns.n
        assert rep.upper_bound_unisolvent == ns.n
        assert rep.interpolatory

    def test_single_full_patch(self):
        ns = grid1d(2)  # 3 nodes
        space = m.build_space(ns, np.array([[0.5]]), ("knn", 3), m.poly_patch_recipe(2))
        rep = m.dimension_analysis(space)
        assert rep.dim_total == 3 == rep.dim_im_T
        assert rep.dim_ker_T == 0

    def test_lower_bound_on_random_configurations(self):
        rng = np.random.default_rng(7)
        checked = 0
        for trial in range(100):
            d = int(rng.integers(1, 3))
            n_nodes = int(rng.integers(6, 14))
            pts = rng.random((n_nodes, d))
            ns = m.NodeSet(points=pts, boundary_mask=np.zeros(n_nodes, dtype=bool))
            degree = int(rng.integers(0, 3))
            if rng.random() < 0.5:
                k = int(rng.integers(1, n_nodes + 1))
                selector = ("knn", k)
            else:
                selector = ("range", float(rng.uniform(0.3, 1.2)))
            n_centers = int(rng.integers(1, 5))
            centers = pts[rng.integers(0, n_nodes, size=n_centers)] + rng.normal(0, 0.05, (n_centers, d))
            try:
                space = m.build_space(ns, centers, selector, m.poly_patch_recipe(degree),
                                      uncovered="constant-patch")
            except ConstructionError:
                continue
            rep = m.dimension_analysis(space)
            assert rep.dim_total >= max(rep.lower_bound, 0)
            assert rep.dim_total == rep.dim_ker_T + rep.dim_im_T
            if all(p.unisolvent for p in space.patches):
                assert rep.dim_im_T <= ns.n
            checked += 1
        assert checked >= 80

    def test_guard_rejects_oversized_analysis(self):
        ns, space = quadratic_overlap_space_1d(8)
        with pytest.raises(AnalysisSizeError):
            m.dimension_analysis(space, guard=10)


class TestFromNodalValues:
    def test_zero_values_zero_patches(self):
        ns, space = quadratic_overlap_space_1d(5)
        s = m.from_nodal_values(space, np.zeros(ns.n))
        assert all(np.allclose(c, 0.0, atol=1e-14) for c in s.patch_coeffs)

    def test_delta_values_give_cardinal_patches(self):
        n = 8
        h = 1.0 / n
        ns, space = quadratic_overlap_space_1d(n)
        j = 4
        values = np.zeros(ns.n)
        values[j] = 1.0
        s = m.from_nodal_values(space, values)
        for i in range(1, n):  # patch index i-1 belongs to interior node i
            for x in np.linspace((i - 1) * h, (i + 1) * h, 9):
                expected = lagrange_patch_1d(x, j, i, h)
                assert s.patch_eval(i - 1, [x]) == pytest.approx(expected, abs=1e-10)

    def test_global_quadratic_reproduced_on_every_patch(self):
        ns, space = quadratic_overlap_space_1d(7)
        values = 2.0 * ns.points.ravel() ** 2 - 0.5 * ns.points.ravel() + 3.0
        s = m.from_nodal_values(space, values)
        for i, patch in enumerate(space.patches):
            lo, hi = patch.influence.points.min(), patch.influence.points.max()
            for x in np.linspace(lo, hi, 7):
                assert s.patch_eval(i, [x]) == pytest.approx(2 * x**2 - 0.5 * x + 3, rel=1e-12)

    def test_connection_condition_holds(self, rng):
        ns, space = five_star_sublist_space(5)
        s = m.from_nodal_values(space, rng.standard_normal(ns.n))
        assert m.connection_defect(s) <= 1e-9

    def test_non_interpolatory_space_rejected(self):
        ns, space = five_star_full_p2_space(4)
        with pytest.raises(ContractError):
            m.from_nodal_values(space, np.zeros(ns.n))


class TestRestriction:
    def test_round_trip_identity(self, rng):
        ns, space = five_star_sublist_space(4)
        values = rng.standard_normal(ns.n)
        assert np.max(np.abs(m.restriction(m.from_nodal_values(space, values)) - values)) <= 1e-9

    def test_zero_spline(self):
        ns, space = quadratic_overlap_space_1d(4)
        s = m.from_nodal_values(space, np.zeros(ns.n))
        assert np.array_equal(m.restriction(s), np.zeros(ns.n))

    def test_cardinal_spline_restricts_to_unit_vector(self):
        ns, space = quadratic_overlap_space_1d(6)
        values = np.zeros(ns.n)
        values[3] = 1.0
        r = m.restriction(m.from_nodal_values(space, values))
        assert np.max(np.abs(r - values)) <= 1e-12

    def test_connection_violation_detected(self):
        ns, space = quadratic_overlap_space_1d(4)
        s = m.from_nodal_values(space, np.arange(ns.n, dtype=float))
        bad = list(np.copy(c) for c in s.patch_coeffs)
        bad[1][0] += 1.0
        broken = m.OverlapSpline(space=space, patch_coeffs=tuple(bad))
        with pytest.raises(InconsistentSplineError):
            m.restriction(broken)


class TestLagrangeRow:
    def test_second_derivative_row_1d(self):
        n = 10
        h = 1.0 / n
        ns, space = quadratic_overlap_space_1d(n)
        k = 5
        row = m.lagrange_row(space, k - 1, m.SECOND_DERIVATIVE_1D, ns.points[k])
        expected = {k - 1: 1 / h**2, k: -2 / h**2, k + 1: 1 / h**2}
        for idx, w in zip(row.influence.indices, row.weights):
            assert w == pytest.approx(expected[int(idx)], abs=1e-12 / h**2)

    def test_identity_row_is_kronecker(self):
        ns, space = quadratic_overlap_space_1d(8)
        row = m.lagrange_row(space, 3, m.IDENTITY, ns.points[4])
        target = (row.influence.indices == 4).astype(float)
        assert np.max(np.abs(row.weights - target)) <= 1e-12

    def test_five_point_laplacian_row(self):
        n = 6
        h = 1.0 / n
        ns, space = five_star_sublist_space(n)
        patch_idx = 0
        center = space.patches[patch_idx].center
        row = m.lagrange_row(space, patch_idx, m.LAPLACIAN, center)
        weights = {int(i): w for i, w in zip(row.influence.indices, row.weights)}
        center_node = space.patches[patch_idx].center_node
        for idx, w in weights.items():
            expected = -4.0 / h**2 if idx == center_node else 1.0 / h**2
            assert w == pytest.approx(expected, abs=1e-12 / h**2)

    def test_locality_support_is_influence_set(self):
        ns, space = quadratic_overlap_space_1d(9)
        row = m.lagrange_row(space, 2, m.SECOND_DERIVATIVE_1D, ns.points[3])
        assert row.weights.shape[0] == space.patches[2].influence.size == 3

    def test_kernel_patch_row(self, rng):
        ns = jittered_cloud(0, n_axis=8)
        space = m.build_space(ns, "all", ("knn", 9),
                              m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0)))
        row = m.lagrange_row(space, 20, m.LAPLACIAN, space.patches[20].center)
        assert row.residual <= 1e-8

    def test_coincident_kernel_nodes_raise_instead_of_nan_row(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.3, 0.1]])
        infl = m.InfluenceSet(center=pts[0], indices=[0, 1, 2],
                              distances=np.linalg.norm(pts, axis=1), points=pts)
        ks = m.KernelSpace(m.Kernel("gauss", 1.0), pts)
        nodes = m.NodeSet(points=[[0.0, 0.0], [1.0, 0.0], [0.3, 0.1]], boundary_mask=[False] * 3)
        patch = m.Patch(influence=infl, space=ks, rank=3, is_interpolation_set=True)
        space = m.OverlapSplineSpace(nodes=nodes, patches=(patch,))
        with pytest.raises(m.NotAnInterpolationSetError, match="singular local system on patch 0"):
            m.lagrange_row(space, 0, m.LAPLACIAN, pts[2])

    def test_rejects_non_interpolatory_patch(self):
        ns, space = five_star_full_p2_space(4)
        with pytest.raises(m.NotAnInterpolationSetError):
            m.lagrange_row(space, 0, m.LAPLACIAN, space.patches[0].center)
