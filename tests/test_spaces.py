import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import meshfd as m
from meshfd.errors import InvalidInputError, NotAnInterpolationSetError
from meshfd.spaces import KernelSpace, PolySpace, kernel_translate_derivative, patch_value

from helpers import FIVE_STAR_SUBLIST


class TestMonomialBasis:
    def test_graded_lexicographic_order_2d(self):
        assert m.monomial_exponents(2, 2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_1d_values(self):
        ps = PolySpace.full(1, 2)
        assert np.array_equal(ps.eval_basis([2.0]), [1.0, 2.0, 4.0])

    def test_sublist_at_ones(self):
        ps = PolySpace.from_exponents(2, FIVE_STAR_SUBLIST)
        assert np.array_equal(ps.eval_basis([1.0, 1.0]), np.ones(5))

    def test_full_dim_is_binomial(self):
        ps = PolySpace.full(2, 2)
        assert ps.dim == 6 == math.comb(2 + 2, 2)

    def test_shifted_scaled_coordinates(self):
        ps = PolySpace.full(1, 1, shift=[2.0], scale=4.0)
        assert np.array_equal(ps.eval_basis([6.0]), [1.0, 1.0])

    def test_sublist_must_be_subset(self):
        with pytest.raises(InvalidInputError):
            PolySpace(d=2, degree=1, shift=[0, 0], scale=1.0, exponents=((0, 0), (2, 0)))

    def test_dimension_mismatch_rejected(self):
        ps = PolySpace.full(2, 1)
        with pytest.raises(InvalidInputError):
            ps.eval_basis([1.0])

    @given(seed=st.integers(0, 1000))
    def test_derivatives_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        ps = PolySpace.full(2, 3, shift=rng.random(2), scale=0.5 + rng.random())
        x = rng.random(2)
        step = 1e-6
        for beta, axis in (((1, 0), 0), ((0, 1), 1)):
            e = np.zeros(2)
            e[axis] = step
            fd = (ps.eval_basis(x + e) - ps.eval_basis(x - e)) / (2 * step)
            assert np.allclose(ps.eval_basis_derivative(x, beta), fd, atol=1e-6, rtol=1e-6)


class TestKernel:
    def test_gauss_at_coincident_points(self):
        assert m.kernel_eval(m.Kernel("gauss", 1.0), [0.3, 0.4], [0.3, 0.4]) == 1.0

    def test_polyharmonic_cubic(self):
        k = m.Kernel("polyharmonic", 3.0)
        assert m.kernel_eval(k, [0.0], [2.0]) == 8.0

    def test_gauss_shape_two(self):
        k = m.Kernel("gauss", 2.0)
        assert m.kernel_eval(k, [0.0], [1.0]) == pytest.approx(math.exp(-4.0), rel=1e-15)

    def test_symmetry(self):
        k = m.Kernel("polyharmonic", 2.5)
        x, y = np.array([0.1, 0.9]), np.array([0.7, 0.2])
        assert m.kernel_eval(k, x, y) == m.kernel_eval(k, y, x)

    def test_conditional_orders(self):
        assert m.Kernel("gauss", 1.0).cpd_order == 0
        assert m.Kernel("polyharmonic", 3.0).cpd_order == 2
        assert m.Kernel("polyharmonic", 1.0).cpd_order == 1
        assert m.Kernel("polyharmonic", 5.0).cpd_order == 3

    def test_even_exponent_rejected(self):
        with pytest.raises(InvalidInputError):
            m.Kernel("polyharmonic", 4.0)

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(InvalidInputError):
            m.Kernel("gauss", 0.0)

    def test_gauss_matrix_is_spd(self, rng):
        pts = rng.random((12, 2))
        k = m.Kernel("gauss", 2.0)
        gram = kernel_translate_derivative(k, pts, pts, (0, 0))
        np.linalg.cholesky(gram)  # raises if not positive definite

    def test_second_derivative_limits(self):
        assert m.Kernel("gauss", 3.0).second_derivative_limit_at_zero() == -18.0
        assert m.Kernel("polyharmonic", 3.0).second_derivative_limit_at_zero() == 0.0
        with pytest.raises(InvalidInputError):
            m.Kernel("polyharmonic", 1.5).second_derivative_limit_at_zero()


class TestUnisolvencyRank:
    def test_collinear_points_lose_a_dimension(self):
        ps = PolySpace.full(2, 1)
        coords = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        rank, iset = m.unisolvency_rank(ps, coords)
        assert rank == 2 and not iset

    def test_full_quadratics_on_five_star(self):
        ps = PolySpace.full(2, 2, shift=[0.5, 0.5], scale=0.25)
        star = np.array([[0.5, 0.5], [0.25, 0.5], [0.75, 0.5], [0.5, 0.25], [0.5, 0.75]])
        rank, iset = m.unisolvency_rank(ps, star)
        assert rank == 5 and not iset

    def test_sublist_on_five_star_is_iset(self):
        ps = PolySpace.from_exponents(2, FIVE_STAR_SUBLIST, shift=[0.5, 0.5], scale=0.25)
        star = np.array([[0.5, 0.5], [0.25, 0.5], [0.75, 0.5], [0.5, 0.25], [0.5, 0.75]])
        rank, iset = m.unisolvency_rank(ps, star)
        assert rank == 5 and iset

    @given(seed=st.integers(0, 500))
    def test_rank_invariant_under_rigid_translation(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.random((6, 2))
        shiftv = rng.standard_normal(2) * 10
        ps0 = PolySpace.full(2, 2, shift=coords.mean(axis=0), scale=1.0)
        ps1 = PolySpace.full(2, 2, shift=coords.mean(axis=0) + shiftv, scale=1.0)
        r0, _ = m.unisolvency_rank(ps0, coords)
        r1, _ = m.unisolvency_rank(ps1, coords + shiftv)
        assert r0 == r1


class TestLocalInterpolate:
    def test_lagrange_quadratic_from_delta(self):
        h = 0.25
        coords = np.array([[0.25], [0.5], [0.75]])
        ps = PolySpace.full(1, 2, shift=[0.5], scale=0.25)
        coeffs = m.local_interpolate(ps, coords, [0.0, 1.0, 0.0])
        for x in np.linspace(0.2, 0.8, 13):
            expected = -(x - 0.25) * (x - 0.75) / h**2
            assert patch_value(ps, coeffs, [x]) == pytest.approx(expected, abs=1e-12)

    def test_zero_values_zero_patch(self):
        ps = PolySpace.full(2, 1)
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        coeffs = m.local_interpolate(ps, coords, np.zeros(3))
        assert np.allclose(coeffs, 0.0, atol=1e-14)

    def test_kernel_matches_dense_saddle_oracle(self):
        h = 0.1
        coords = np.array([[-h], [0.0], [h]])
        kernel = m.Kernel("polyharmonic", 3.0)
        aug = PolySpace.full(1, 1)
        ks = KernelSpace(kernel, coords, aug=aug)
        values = np.array([0.0, 1.0, 0.0])
        coeffs = m.local_interpolate(ks, coords, values)

        # independent dense saddle solve in raw coordinates
        r = np.abs(coords - coords.T)
        a = np.zeros((5, 5))
        a[:3, :3] = r**3
        a[:3, 3] = 1.0
        a[:3, 4] = coords.ravel()
        a[3, :3] = 1.0
        a[4, :3] = coords.ravel()
        sol = np.linalg.solve(a, np.concatenate([values, [0.0, 0.0]]))
        for x in np.linspace(-h, h, 7):
            oracle = sol[:3] @ np.abs(x - coords.ravel()) ** 3 + sol[3] + sol[4] * x
            assert patch_value(ks, coeffs, [x]) == pytest.approx(oracle, abs=1e-12)

    def test_not_an_iset_reports_rank(self):
        ps = PolySpace.full(2, 1)
        coords = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        with pytest.raises(NotAnInterpolationSetError) as err:
            m.local_interpolate(ps, coords, [1.0, 2.0, 3.0])
        assert err.value.rank == 2

    def test_rank_deficient_kernel_tail_is_not_an_iset(self):
        # collinear nodes give the linear tail rank 2 of 3: dim = (5 - 2) + 3 = 6 > 5 nodes
        t = np.linspace(0.0, 1.0, 5)
        coords = np.column_stack([t, 2.0 * t])
        ks = KernelSpace(m.Kernel("polyharmonic", 3.0), coords, aug=PolySpace.full(2, 1))
        assert (ks.n, ks.dim) == (5, 6)
        with pytest.raises(NotAnInterpolationSetError,
                           match="5 nodes cannot be an interpolation set for dimension 6") as err:
            m.local_interpolate(ks, coords, np.arange(5.0))
        assert (err.value.rank, err.value.dim, err.value.n_nodes) == (5, 6, 5)

    def test_kernel_values_off_the_centers_rejected(self):
        coords = np.array([[0.0], [0.5], [1.0]])
        ks = KernelSpace(m.Kernel("gauss", 1.0), coords)
        with pytest.raises(InvalidInputError, match="kernel centers"):
            m.local_interpolate(ks, coords[:2], [1.0, 2.0])

    @given(seed=st.integers(0, 300))
    def test_interpolation_residual_random_isets(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.random((6, 2))
        ps = PolySpace.full(2, 2, shift=coords.mean(axis=0), scale=1.0)
        rank, iset = m.unisolvency_rank(ps, coords)
        if not iset:
            return
        values = rng.standard_normal(6) * 10
        coeffs = m.local_interpolate(ps, coords, values)
        recon = np.array([patch_value(ps, coeffs, c) for c in coords])
        assert np.max(np.abs(recon - values)) <= 1e-9 * (1 + np.max(np.abs(values)))


class TestApplyOperator:
    def test_identity_equals_eval_everywhere(self, rng):
        spaces = [
            PolySpace.full(2, 2, shift=[0.2, 0.3], scale=0.5),
            KernelSpace(m.Kernel("gauss", 2.0), rng.random((7, 2))),
            KernelSpace(
                m.Kernel("polyharmonic", 3.0), rng.random((8, 2)),
                aug=PolySpace.full(2, 1), scale=0.5,
            ),
        ]
        for space in spaces:
            for _ in range(100):
                x = rng.random(2)
                assert np.allclose(
                    m.apply_operator(space, m.IDENTITY, x), space.eval_basis(x),
                    rtol=0, atol=0,
                )

    def test_poly_laplacian_exact(self):
        ps = PolySpace.full(2, 2)  # 1, x, y, x^2, xy, y^2
        out = m.apply_operator(ps, m.LAPLACIAN, [0.7, 0.1])
        assert np.array_equal(out, [0.0, 0.0, 0.0, 2.0, 0.0, 2.0])

    def test_kernel_laplacian_matches_radial_formula(self, rng):
        # laplacian of r^3 in 2D is 9 r
        center = np.array([[0.2, 0.3]])
        ks = KernelSpace(m.Kernel("polyharmonic", 3.0), center, aug=None)
        x = np.array([0.5, 0.7])
        r = np.linalg.norm(x - center[0])
        assert m.apply_operator(ks, m.LAPLACIAN, x)[0] == pytest.approx(9.0 * r, rel=1e-12)

    def test_gauss_laplacian_at_center(self):
        # 2D: laplacian at the center is -2 d eps^2
        ks = KernelSpace(m.Kernel("gauss", 3.0), np.array([[0.5, 0.5]]))
        val = m.apply_operator(ks, m.LAPLACIAN, [0.5, 0.5])[0]
        assert val == pytest.approx(-2 * 2 * 9.0, rel=1e-14)

    def test_second_derivative_1d_requires_1d(self):
        ps = PolySpace.full(2, 2)
        with pytest.raises(InvalidInputError):
            m.apply_operator(ps, m.SECOND_DERIVATIVE_1D, [0.0, 0.0])

    def test_general_second_order_combination(self):
        ps = PolySpace.full(2, 2)
        op = m.Operator(
            "general-second-order",
            a=lambda x: np.array([[1.0, 0.5], [0.5, 2.0]]),
            b=lambda x: np.array([1.0, 0.0]),
            c=lambda x: 3.0,
        )
        x = np.array([0.4, 0.9])
        out = m.apply_operator(ps, op, x)
        # check on p(x) = x*y: a-part gives 0.5+0.5, b-part gives y, c-part 3*x*y
        idx = m.monomial_exponents(2, 2).index((1, 1))
        assert out[idx] == pytest.approx(1.0 + x[1] + 3.0 * x[0] * x[1], rel=1e-12)

    def test_polyharmonic_low_exponent_rejected_at_center(self):
        ks = KernelSpace(m.Kernel("polyharmonic", 1.5), np.array([[0.5, 0.5]]))
        with pytest.raises(InvalidInputError):
            m.apply_operator(ks, m.LAPLACIAN, [0.5, 0.5])


class TestKernelDerivatives:
    """Radial derivative formulas against plain finite differences."""

    @pytest.mark.parametrize("kernel", [
        m.Kernel("gauss", 2.0),
        m.Kernel("polyharmonic", 3.0),
        m.Kernel("polyharmonic", 5.0),
    ])
    @pytest.mark.parametrize("beta", [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)])
    def test_translate_derivative_matches_fd(self, kernel, beta):
        rng = np.random.default_rng(17)
        centers = rng.random((6, 2))
        x = np.array([0.62, 0.41])
        got = kernel_translate_derivative(kernel, x, centers, beta)

        def value(p):
            return kernel.phi(np.linalg.norm(p - centers, axis=1))

        step = 1e-5
        if sum(beta) == 1:
            axis = beta.index(1)
            e = np.zeros(2)
            e[axis] = step
            fd = (value(x + e) - value(x - e)) / (2 * step)
            tol = 1e-7
        elif beta in ((2, 0), (0, 2)):
            axis = beta.index(2)
            e = np.zeros(2)
            e[axis] = step
            fd = (value(x + e) - 2 * value(x) + value(x - e)) / step**2
            tol = 1e-4
        else:
            ex, ey = np.array([step, 0.0]), np.array([0.0, step])
            fd = (value(x + ex + ey) - value(x + ex - ey)
                  - value(x - ex + ey) + value(x - ex - ey)) / (4 * step**2)
            tol = 1e-4
        assert np.allclose(got, fd, rtol=tol, atol=tol)

    def test_gauss_limits_at_center_match_fd(self):
        kernel = m.Kernel("gauss", 1.5)
        center = np.array([[0.3, 0.7]])

        got = kernel_translate_derivative(kernel, center[0], center, (2, 0))[0]
        step = 1e-4

        def value(p):
            return float(kernel.phi(np.linalg.norm(p - center[0])))

        fd = (value(center[0] + [step, 0]) - 2 * value(center[0])
              + value(center[0] - [step, 0])) / step**2
        assert got == pytest.approx(fd, rel=1e-6)
        assert kernel_translate_derivative(kernel, center[0], center, (1, 1))[0] == 0.0
