import numpy as np
import pytest
from hypothesis import given, strategies as st

import meshfd as m
from meshfd.errors import UnsolvableExactnessError
from meshfd.spaces import KernelSpace, PolySpace

from helpers import FIVE_STAR_SUBLIST, grid1d, grid2d


def coincident_stencil():
    """Three influence points, two of them coincident under distinct indices."""
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.3, 0.1]])
    dist = np.linalg.norm(pts, axis=1)
    return m.InfluenceSet(center=pts[0], indices=[0, 1, 2], distances=dist, points=pts)


def symmetric_stencil_1d(h):
    ns = grid1d(2, bounds=(-h, h))  # nodes -h, 0, h
    return ns, m.knn(ns, [0.0], 3)


class TestWeightsPoly:
    def test_classic_second_difference(self):
        h = 0.1
        ns, infl = symmetric_stencil_1d(h)
        ps = PolySpace.full(1, 2, shift=[0.0], scale=h)
        sw = m.weights_poly(m.SECOND_DERIVATIVE_1D, [0.0], infl, ps)
        expected = {0: 1 / h**2, 1: -2 / h**2, 2: 1 / h**2}
        for idx, w in zip(infl.indices, sw.weights):
            assert w == pytest.approx(expected[int(idx)], abs=1e-12 / h**2)
        assert sw.residual <= 1e-12

    def test_seven_point_stencil_in_3d(self):
        n = 6
        h = 1.0 / n
        ns = m.generate_grid(3, n + 1, [(0.0, 1.0)] * 3)
        center = np.array([0.5, 0.5, 0.5])
        infl = m.knn(ns, center, 7)
        sub = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
        ps = PolySpace.from_exponents(3, sub, shift=center, scale=h)
        sw = m.weights_poly(m.LAPLACIAN, center, infl, ps)
        for dist, w in zip(infl.distances, sw.weights):
            expected = -6.0 / h**2 if dist == 0.0 else 1.0 / h**2
            assert w == pytest.approx(expected, abs=1e-11 / h**2)

    def test_five_point_from_sublist(self):
        n = 8
        h = 1.0 / n
        ns = grid2d(n)
        center = np.array([0.5, 0.5])
        infl = m.range_search(ns, center, 1.2 * h)
        ps = PolySpace.from_exponents(2, FIVE_STAR_SUBLIST, shift=center, scale=h)
        sw = m.weights_poly(m.LAPLACIAN, center, infl, ps)
        for dist, w in zip(infl.distances, sw.weights):
            expected = -4.0 / h**2 if dist == 0.0 else 1.0 / h**2
            assert w == pytest.approx(expected, abs=1e-12 / h**2)

    def test_identity_gives_kronecker_row(self, rng):
        ns = grid2d(5)
        infl = m.knn(ns, [0.4, 0.6], 7)
        y = infl.points[3]
        for ps in (PolySpace.full(2, 1, shift=infl.center, scale=infl.radius),
                   PolySpace.full(2, 2, shift=infl.center, scale=infl.radius)):
            sw = m.weights_poly(m.IDENTITY, y, infl, ps)
            expected = np.zeros(infl.size)
            expected[3] = 1.0
            assert np.array_equal(sw.weights, expected)
            assert sw.residual == 0.0

    def test_minimum_norm_choice_when_underdetermined(self):
        ns = grid1d(6)
        infl = m.knn(ns, [0.5], 5)
        ps = PolySpace.full(1, 2, shift=[0.5], scale=infl.radius)
        sw = m.weights_poly(m.SECOND_DERIVATIVE_1D, [0.5], infl, ps)
        e = ps.eval_basis(infl.points)
        t = m.apply_operator(ps, m.SECOND_DERIVATIVE_1D, [0.5])
        w_oracle, *_ = np.linalg.lstsq(e.T, t, rcond=None)  # SVD min-norm reference
        assert np.allclose(sw.weights, w_oracle, atol=1e-9)
        assert sw.residual <= 1e-12

    def test_square_singular_system_takes_the_minimum_norm_row(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # collinear: the y column vanishes
        infl = m.InfluenceSet(center=pts[0], indices=[0, 1, 2], distances=pts[:, 0], points=pts)
        ps = PolySpace.full(2, 1)
        sw = m.weights_poly(m.IDENTITY, [0.5, 0.0], infl, ps)
        assert np.allclose(sw.weights, [7 / 12, 1 / 3, 1 / 12], rtol=0.0, atol=1e-15)
        assert sw.residual <= m.ndf.EXACTNESS_RTOL
        with pytest.raises(UnsolvableExactnessError, match="system rank 2, augmented rank 3") as err:
            m.weights_poly(m.IDENTITY, [0.5, 0.3], infl, ps)
        assert err.value.rank == 2

    def test_inconsistent_target_raises_with_rank(self):
        ns = grid1d(2)
        infl = m.knn(ns, [0.5], 1)  # single node at 0.5
        ps = PolySpace.from_exponents(1, [(1,)], shift=[0.5], scale=1.0)  # span{x - 0.5}
        with pytest.raises(UnsolvableExactnessError) as err:
            m.weights_poly(m.IDENTITY, [0.75], infl, ps)
        assert err.value.rank is not None

    def test_general_second_order_operator_weights(self, rng):
        op = m.Operator(
            "general-second-order",
            a=lambda x: np.array([[2.0, 0.0], [0.0, 1.0]]),
            b=lambda x: np.array([0.5, -1.0]),
            c=lambda x: float(x[0]),
        )
        pts = rng.random((8, 2))
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(8, dtype=bool))
        infl = m.knn(ns, pts.mean(axis=0), 8)
        ps = PolySpace.full(2, 2, shift=infl.center, scale=infl.radius)
        sw = m.weights_poly(op, infl.center, infl, ps)
        assert m.verify_exactness(sw, ps, op) <= 1e-8
        # cross-check one basis element by hand: p = x1^2 in shifted/scaled coords
        z = (infl.points - infl.center) / infl.radius
        vals = z[:, 0] ** 2
        y = np.zeros(2)  # the center in local coordinates
        target = 2.0 * 2.0 / infl.radius**2 + 0.5 * 2 * y[0] / infl.radius + float(infl.center[0]) * 0.0
        assert sw.weights @ vals == pytest.approx(target, rel=1e-9)

    def test_non_finite_rows_raise(self):
        infl = coincident_stencil()
        ps = PolySpace.full(2, 1, shift=infl.center, scale=0.3)
        with pytest.raises(UnsolvableExactnessError) as err:
            m.weights_poly(m.IDENTITY, [0.1, 0.2], infl, ps)
        assert err.value.rank == 2
        # a non-finite target gives a NaN defect, which must not pass the bound
        with pytest.raises(UnsolvableExactnessError, match="defect nan"):
            m.weights_poly(m.IDENTITY, [np.nan, 0.2], infl, ps)

    @given(seed=st.integers(0, 400), t=st.sampled_from([0.5, 2.0]))
    def test_scale_covariance_of_laplacian_weights(self, seed, t):
        rng = np.random.default_rng(seed)
        pts = rng.random((6, 2))
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(6, dtype=bool))
        center = pts.mean(axis=0)
        infl = m.knn(ns, center, 6)
        ps = PolySpace.full(2, 2, shift=center, scale=infl.radius)
        rank, iset = m.unisolvency_rank(ps, infl.points)
        if not iset:
            return
        sw = m.weights_poly(m.LAPLACIAN, center, infl, ps)

        ns_t = m.NodeSet(points=t * pts, boundary_mask=np.zeros(6, dtype=bool))
        infl_t = m.knn(ns_t, t * center, 6)
        ps_t = PolySpace.full(2, 2, shift=t * center, scale=infl_t.radius)
        sw_t = m.weights_poly(m.LAPLACIAN, t * center, infl_t, ps_t)
        assert np.allclose(sw_t.weights, sw.weights / t**2, rtol=1e-10, atol=1e-12)


class TestWeightsKernel:
    def test_1d_symmetric_matches_dense_oracle(self):
        h = 0.1
        ns, infl = symmetric_stencil_1d(h)
        ks = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1)(infl)
        sw = m.weights_kernel(m.SECOND_DERIVATIVE_1D, [0.0], infl, ks)

        def d2_r3_1d(y, coords):
            return 6.0 * np.linalg.norm(y - coords, axis=1)

        def oracle(y, coords):
            return d2_r3_1d(y, coords)

        n = 3
        coords = infl.points
        r = np.abs(coords - coords.T)
        a = np.zeros((5, 5))
        a[:3, :3] = r**3
        a[:3, 3] = 1.0
        a[:3, 4] = coords.ravel()
        a[3, :3] = 1.0
        a[4, :3] = coords.ravel()
        rhs = np.concatenate([oracle(np.array([0.0]), coords), [0.0, 0.0]])
        w_oracle = np.linalg.solve(a, rhs)[:3]
        assert np.allclose(sw.weights, w_oracle, atol=1e-9)
        # mirror symmetry of the stencil forces equal outer weights
        mirror = {int(i): w for i, w in zip(infl.indices, sw.weights)}
        assert mirror[0] == pytest.approx(mirror[2], abs=1e-10)

    def test_identity_kronecker(self):
        h = 0.2
        ns, infl = symmetric_stencil_1d(h)
        ks = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1)(infl)
        sw = m.weights_kernel(m.IDENTITY, [0.0], infl, ks)
        expected = np.zeros(3)
        expected[list(infl.indices).index(1)] = 1.0
        assert np.array_equal(sw.weights, expected)

    def test_gauss_flat_limit_approaches_five_point(self):
        n = 8
        h = 1.0 / n
        ns = grid2d(n)
        center = np.array([0.5, 0.5])
        infl = m.range_search(ns, center, 1.2 * h)
        five_point = np.where(infl.distances == 0.0, -4.0, 1.0) / h**2
        diffs = []
        for eps_h in (2.0, 1.0, 0.5, 0.25):
            ks = KernelSpace(m.Kernel("gauss", eps_h / h), infl.points)
            sw = m.weights_kernel(m.LAPLACIAN, center, infl, ks)
            diffs.append(np.max(np.abs(sw.weights - five_point)))
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    def test_tail_polynomials_reproduced(self, rng):
        pts = rng.random((9, 2))
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(9, dtype=bool))
        infl = m.knn(ns, pts.mean(axis=0), 9)
        ks = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1)(infl)
        y = infl.center
        sw = m.weights_kernel(m.LAPLACIAN, y, infl, ks)
        # raw monomials of the tail: 1, x, y
        for a, target in (((0, 0), 0.0), ((1, 0), 0.0), ((0, 1), 0.0)):
            vals = np.prod(infl.points ** np.array(a), axis=1)
            assert abs(sw.weights @ vals - target) <= 1e-9 * max(1.0, np.abs(sw.weights) @ np.abs(vals))

    def test_collinear_nodes_fail_tail_rank(self):
        pts = np.column_stack([np.linspace(0, 1, 6), np.zeros(6)])
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(6, dtype=bool))
        infl = m.knn(ns, [0.5, 0.0], 6)
        ks = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1)(infl)
        with pytest.raises(UnsolvableExactnessError, match="unisolvent"):
            m.weights_kernel(m.LAPLACIAN, [0.5, 0.0], infl, ks)

    def test_coincident_nodes_raise_instead_of_nan_row(self):
        infl = coincident_stencil()
        ks = KernelSpace(m.Kernel("gauss", 1.0), infl.points)
        with pytest.raises(UnsolvableExactnessError, match="singular saddle system"):
            m.weights_kernel(m.LAPLACIAN, infl.center, infl, ks)
        # a non-finite target gives a NaN defect, which must not pass the bound
        distinct = m.InfluenceSet(center=[0.0, 0.0], indices=[0, 1, 2], distances=[0.0, 0.3, 0.3],
                                  points=[[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]])
        ks = KernelSpace(m.Kernel("gauss", 1.0), distinct.points)
        with pytest.raises(UnsolvableExactnessError, match="defect nan"):
            m.weights_kernel(m.LAPLACIAN, [np.nan, 0.0], distinct, ks)

    def test_mismatched_centers_rejected(self, rng):
        pts = rng.random((5, 2))
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(5, dtype=bool))
        infl = m.knn(ns, pts[0], 5)
        other = KernelSpace(m.Kernel("gauss", 1.0), rng.random((5, 2)))
        with pytest.raises(m.InvalidInputError):
            m.weights_kernel(m.LAPLACIAN, pts[0], infl, other)


class TestVerifyExactness:
    def test_produced_rows_pass(self):
        h = 0.05
        ns, infl = symmetric_stencil_1d(h)
        ps = PolySpace.full(1, 2, shift=[0.0], scale=h)
        sw = m.weights_poly(m.SECOND_DERIVATIVE_1D, [0.0], infl, ps)
        assert m.verify_exactness(sw, ps, m.SECOND_DERIVATIVE_1D) <= 1e-8

    def test_corrupted_row_detected(self):
        h = 0.05
        ns, infl = symmetric_stencil_1d(h)
        ps = PolySpace.full(1, 2, shift=[0.0], scale=h)
        sw = m.weights_poly(m.SECOND_DERIVATIVE_1D, [0.0], infl, ps)
        bad = m.StencilWeights(point=sw.point, influence=sw.influence,
                               weights=sw.weights * 1.1, residual=sw.residual)
        assert m.verify_exactness(bad, ps, m.SECOND_DERIVATIVE_1D) > 1e-3

    def test_five_point_exact_on_full_quadratics(self):
        n = 8
        h = 1.0 / n
        ns = grid2d(n)
        center = np.array([0.5, 0.5])
        infl = m.range_search(ns, center, 1.2 * h)
        sub = PolySpace.from_exponents(2, FIVE_STAR_SUBLIST, shift=center, scale=h)
        sw = m.weights_poly(m.LAPLACIAN, center, infl, sub)
        full = PolySpace.full(2, 2, shift=center, scale=h)
        assert m.verify_exactness(sw, full, m.LAPLACIAN) <= 1e-8
        # brute-force both sides for the cross monomial x1 * x2
        cross = np.prod(infl.points - center, axis=1)
        assert abs(sw.weights @ cross) <= 1e-8 * max(1.0, np.abs(sw.weights) @ np.abs(cross))

    @given(seed=st.integers(0, 500))
    def test_exactness_property_random_stencils(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 3))
        n = int(rng.integers(3, 13))
        pts = rng.random((n, d))
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(n, dtype=bool))
        center = pts.mean(axis=0)
        infl = m.knn(ns, center, n)
        degree = int(rng.integers(0, 3))
        ps = PolySpace.full(d, degree, shift=center, scale=max(infl.radius, 1e-3))
        if ps.dim > n:
            return
        op = m.LAPLACIAN if rng.random() < 0.5 else m.IDENTITY
        try:
            sw = m.weights_poly(op, center, infl, ps)
        except UnsolvableExactnessError:
            return
        assert m.verify_exactness(sw, ps, op) <= 1e-8
