import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import meshfd as m
from meshfd.errors import InvalidInputError, NotAnInterpolationSetError
from meshfd.geometry import influences
from meshfd.linalg import null_space
from meshfd import spaces as spaces_module
from meshfd.spaces import (
    DEFAULT_TAIL_DEGREE, KernelSpace, PatchTable, PolySpace, kernel_derivative, monomial_derivatives, stack_spaces,
)

from helpers import (
    FIVE_STAR_SUBLIST,
    five_star_sublist_space,
    halton_r3_space,
    halton_r3_space_3d,
    jittered_cloud,
    kernel_derivative_alone,
    local_interpolate,
    monomial_derivatives_loop,
    patch_value,
)


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

    def test_from_exponents_needs_a_monomial(self):
        with pytest.raises(InvalidInputError, match="^a polynomial space needs at least one monomial$"):
            PolySpace.from_exponents(2, [])

    def test_sublist_must_be_subset(self):
        with pytest.raises(InvalidInputError):
            PolySpace(d=2, degree=1, shift=[0, 0], scale=1.0, exponents=((0, 0), (2, 0)))

    def test_dimension_mismatch_rejected(self):
        ps = PolySpace.full(2, 1)
        with pytest.raises(InvalidInputError):
            ps.eval_basis([1.0])

    @pytest.mark.parametrize("exponents, message", [
        (((0, 0), (2, 0)), r"exponent \(2, 0\) is not a monomial of total degree <= 1"),
        (((0, 0), (1, 0), (0, 0)), "duplicate monomials in basis list"),
        ((), "a polynomial space needs at least one monomial"),
    ])
    def test_bad_list_rejected_on_every_construction(self, exponents, message):
        for _ in range(2):  # the checked lists are cached; a failure must not be
            with pytest.raises(InvalidInputError, match=message):
                PolySpace(d=2, degree=1, shift=[0, 0], scale=1.0, exponents=exponents)

    @pytest.mark.parametrize("sublist", [None, FIVE_STAR_SUBLIST])
    def test_recipe_spaces_share_one_exponent_list(self, sublist):
        ns = m.generate_grid(2, 5, [(0.0, 1.0), (0.0, 1.0)])
        recipe = m.poly_patch_recipe(2, sublist=sublist)
        a, b = (recipe(m.knn(ns, ns.points[i], 5)) for i in (6, 12))
        assert a.exponents is b.exponents
        assert a.exponents == (m.monomial_exponents(2, 2) if sublist is None else tuple(sublist))

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
        x = np.array([0.3, 0.4])
        assert kernel_derivative(m.Kernel("gauss", 1.0), x - x, (0, 0)) == 1.0

    def test_polyharmonic_cubic(self):
        k = m.Kernel("polyharmonic", 3.0)
        assert k.phi(2.0) == 8.0

    def test_gauss_shape_two(self):
        k = m.Kernel("gauss", 2.0)
        assert k.phi(1.0) == pytest.approx(math.exp(-4.0), rel=1e-15)

    def test_symmetry(self):
        k = m.Kernel("polyharmonic", 2.5)
        x, y = np.array([0.1, 0.9]), np.array([0.7, 0.2])
        assert kernel_derivative(k, x - y, (0, 0)) == kernel_derivative(k, y - x, (0, 0))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_distances_have_the_bits_of_linalg_norm(self, rng, d):
        """r is summed axis by axis in order: below eight axes, the bits of `np.linalg.norm`."""
        diff = rng.standard_normal((40, 7, d)) * 10.0 ** rng.integers(-6, 6, (40, 7, d))
        k = m.Kernel("polyharmonic", 1.0)  # phi(r) = r
        for x in (diff, np.swapaxes(np.swapaxes(diff, 0, 2).copy(), 0, 2)):  # contiguous and strided axes
            assert np.array_equal(kernel_derivative(k, x, (0,) * d), np.linalg.norm(x, axis=-1))

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

    @pytest.mark.parametrize("exponent, degree, message", [
        (3.0, None, "kernel of conditional order 2 requires a tail of degree >= 1"),
        (5.0, 1, "tail degree 1 below the minimal degree 2 for this kernel"),
    ], ids=["no-tail", "tail-too-low"])
    def test_recipe_refuses_a_tail_below_the_minimal_degree(self, exponent, degree, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            m.kernel_patch_recipe(m.Kernel("polyharmonic", exponent), augmentation_degree=degree)

    def test_default_tail_is_quadratic_and_below_the_minimal_degree_of_r7(self):
        assert DEFAULT_TAIL_DEGREE == 2
        for kernel in (m.Kernel("gauss", 1.0), m.Kernel("polyharmonic", 3.0), m.Kernel("polyharmonic", 5.0)):
            assert m.kernel_patch_recipe(kernel).degree == DEFAULT_TAIL_DEGREE
        with pytest.raises(InvalidInputError, match="^tail degree 2 below the minimal degree 3 for this kernel$"):
            m.kernel_patch_recipe(m.Kernel("polyharmonic", 7.0))

    @pytest.mark.parametrize("make", [
        lambda: m.poly_patch_recipe(-1),
        lambda: m.kernel_patch_recipe(m.Kernel("gauss", 1.0), -1),
        lambda: m.poly_patch_recipe(1, sublist=[(0, 0), (-1, 0)]),
    ], ids=["poly", "kernel-tail", "sublist-exponent"])
    def test_recipe_refuses_a_negative_degree(self, make):
        with pytest.raises(InvalidInputError, match="^a degree must be nonnegative, got -1$"):
            make()

    def test_gauss_matrix_is_spd(self, rng):
        pts = rng.random((12, 2))
        k = m.Kernel("gauss", 2.0)
        gram = kernel_derivative(k, pts[:, None, :] - pts, (0, 0))
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
        coeffs = local_interpolate(ps, coords, [0.0, 1.0, 0.0])
        for x in np.linspace(0.2, 0.8, 13):
            expected = -(x - 0.25) * (x - 0.75) / h**2
            assert patch_value(ps, coeffs, [x]) == pytest.approx(expected, abs=1e-12)

    def test_zero_values_zero_patch(self):
        ps = PolySpace.full(2, 1)
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        coeffs = local_interpolate(ps, coords, np.zeros(3))
        assert np.allclose(coeffs, 0.0, atol=1e-14)

    def test_kernel_matches_dense_saddle_oracle(self):
        h = 0.1
        coords = np.array([[-h], [0.0], [h]])
        kernel = m.Kernel("polyharmonic", 3.0)
        aug = PolySpace.full(1, 1)
        ks = KernelSpace(kernel, coords, aug=aug)
        values = np.array([0.0, 1.0, 0.0])
        coeffs = local_interpolate(ks, coords, values)

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
            local_interpolate(ps, coords, [1.0, 2.0, 3.0])
        assert err.value.rank == 2

    def test_rank_deficient_kernel_tail_is_not_an_iset(self):
        # collinear nodes give the linear tail rank 2 of 3: dim = (5 - 2) + 3 = 6 > 5 nodes
        t = np.linspace(0.0, 1.0, 5)
        coords = np.column_stack([t, 2.0 * t])
        ks = KernelSpace(m.Kernel("polyharmonic", 3.0), coords, aug=PolySpace.full(2, 1))
        assert (ks.n, ks.dim) == (5, 6)
        with pytest.raises(NotAnInterpolationSetError,
                           match="5 nodes cannot be an interpolation set for dimension 6") as err:
            local_interpolate(ks, coords, np.arange(5.0))
        assert (err.value.rank, err.value.dim, err.value.n_nodes) == (5, 6, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        coords = np.array([[0.0], [0.5], [1.0]])
        values = np.array([1.0, bad, bad])
        for space in (PolySpace.full(1, 2), KernelSpace(m.Kernel("gauss", 1.0), coords)):
            with pytest.raises(InvalidInputError, match=rf"^value at node 1 is not finite: {bad}$"):
                local_interpolate(space, coords, values)

    def test_kernel_values_off_the_centers_rejected(self):
        coords = np.array([[0.0], [0.5], [1.0]])
        ks = KernelSpace(m.Kernel("gauss", 1.0), coords)
        with pytest.raises(InvalidInputError, match="kernel centers"):
            local_interpolate(ks, coords[:2], [1.0, 2.0])

    @given(seed=st.integers(0, 300))
    def test_interpolation_residual_random_isets(self, seed):
        rng = np.random.default_rng(seed)
        coords = rng.random((6, 2))
        ps = PolySpace.full(2, 2, shift=coords.mean(axis=0), scale=1.0)
        rank, iset = m.unisolvency_rank(ps, coords)
        if not iset:
            return
        values = rng.standard_normal(6) * 10
        coeffs = local_interpolate(ps, coords, values)
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


class TestMonomialDerivatives:
    """`monomial_derivatives` has the bits of the term-by-term loop it replaced."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equal_to_the_term_by_term_loop_bit_for_bit(self, d):
        rng = np.random.default_rng(40 + d)
        z = rng.standard_normal((4, 5, d))
        z[0, 0] = -0.0
        betas = [b for b in itertools.product(range(3), repeat=d) if sum(b) <= 2]
        for degree, beta, scale in itertools.product(range(4), betas, [1.0, 0.37, 0.5 + rng.random((4, 1))]):
            exps = m.monomial_exponents(d, degree)
            got = monomial_derivatives(z, exps, beta, scale)
            want = monomial_derivatives_loop(z, exps, beta, scale)
            assert got.dtype == want.dtype and got.shape == want.shape == (4, 5, len(exps))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1.0, np.array([[0.5], [2.0]])], ids=["scalar", "per-stencil"])
    def test_killed_monomials_are_positive_zeros(self, scale):
        z = -np.random.default_rng(7).random((2, 3, 2))  # negative coordinates: a sign could leak
        exps = m.monomial_exponents(2, 3)
        for beta in [(1, 0), (0, 2), (1, 1), (2, 0)]:
            got = monomial_derivatives(z, exps, beta, scale)
            killed = [k for k, a in enumerate(exps) if any(b > e for e, b in zip(a, beta))]
            assert killed and np.all(got[..., killed] == 0.0) and not np.signbit(got[..., killed]).any()


class TestKernelDerivatives:
    """Radial derivative formulas against plain finite differences."""

    @pytest.mark.parametrize("kernel", [m.Kernel("gauss", 2.0), m.Kernel("polyharmonic", 3.0)])
    def test_shared_radial_factors_keep_every_bit(self, kernel):
        rng = np.random.default_rng(23)
        diff = rng.standard_normal((3, 4, 2))
        diff[1, 2] = 0.0  # a zero displacement takes the limits at the centre
        betas = [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2), (0, 1)]
        for beta, got in zip(betas, spaces_module._kernel_derivatives(kernel, diff, betas)):
            assert got.tobytes() == kernel_derivative_alone(kernel, diff, beta).tobytes()
            assert got.tobytes() == kernel_derivative(kernel, diff, beta).tobytes()

    def test_an_operator_block_computes_the_distances_once(self, monkeypatch):
        ns, space = halton_r3_space(count=40, k=12)
        (_, basis), *_ = space._stacks[0]
        points = ns.points[:6].reshape(2, 3, 2)
        betas, coef = m.LAPLACIAN.terms(points.reshape(-1, 2))
        coef = coef[:2]
        calls = []
        distance = spaces_module._distance
        monkeypatch.setattr(spaces_module, "_distance", lambda diff: calls.append(diff.shape) or distance(diff))
        translates, _ = basis.blocks(points, betas, coef, rows=np.array([0, 1]))
        assert len(betas) == 2 and calls == [(2, 3, 12, 2)]
        alone = sum((coef[:, k, None, None] * kernel_derivative_alone(
            basis.kernel, points[:, :, None, :] - basis.centers[:2, None], beta) for k, beta in enumerate(betas)),
            np.zeros(translates.shape))
        assert translates.tobytes() == (basis.norm[:2, None, None] * alone).tobytes()

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
        got = kernel_derivative(kernel, x - centers, beta)

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

    @pytest.mark.parametrize("beta", [(2,), (1, 0, 0), (0, 0, 2), (1, -1)])
    def test_malformed_beta_rejected_by_tail_free_space(self, beta):
        ks = KernelSpace(m.Kernel("gauss", 2.0), np.random.default_rng(5).random((4, 2)))
        with pytest.raises(InvalidInputError, match="does not match dimension 2"):
            ks.eval_basis_derivative([0.3, 0.6], beta)

    def test_point_dimension_checked_by_kernel_space(self):
        ks = KernelSpace(m.Kernel("polyharmonic", 3.0), np.eye(2), aug=PolySpace.full(2, 0))
        with pytest.raises(InvalidInputError, match="points of dimension 3 in a 2-dimensional space"):
            ks.eval_basis(np.zeros((4, 3)))

    def test_gauss_limits_at_center_match_fd(self):
        kernel = m.Kernel("gauss", 1.5)
        center = np.array([[0.3, 0.7]])

        got = kernel_derivative(kernel, center[0] - center, (2, 0))[0]
        step = 1e-4

        def value(p):
            return float(kernel.phi(np.linalg.norm(p - center[0])))

        fd = (value(center[0] + [step, 0]) - 2 * value(center[0])
              + value(center[0] - [step, 0])) / step**2
        assert got == pytest.approx(fd, rel=1e-6)
        assert kernel_derivative(kernel, center[0] - center, (1, 1))[0] == 0.0


STACK_CASES = {
    "r3-degree-2-tail": lambda: halton_r3_space(count=40, k=12)[1],
    "gauss-tail-free": lambda: m.build_space(jittered_cloud(3, n_axis=6), "all", ("knn", 7),
                                             m.kernel_patch_recipe(m.Kernel("gauss", 3.0), augmentation_degree=None)),
    "five-star-constant-patches": lambda: five_star_sublist_space(4)[1],
}


def mixed_tail_rank_table():
    """Three linear-tail r^3 patches of four nodes, the middle one collinear (tail rank 2, the others 3)."""
    line = np.column_stack([np.linspace(0.0, 1.0, 4), np.linspace(0.0, 0.5, 4)])
    plane = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.6, 0.7]])
    spaces = [KernelSpace(m.Kernel("polyharmonic", 3.0), c, aug=PolySpace.full(2, 1, shift=c[0]))
              for c in (plane, line, plane + 1.0)]
    table = PatchTable.of_pairs([m.InfluenceSet(center=c[0], indices=np.arange(4), points=c,
                                                distances=np.linalg.norm(c - c[0], axis=1))
                                 for c in (plane, line, plane + 1.0)], spaces)
    return spaces, table


class TestStackedBasis:
    """The stacked evaluator against each space's own basis, the one-patch oracle."""

    @pytest.mark.parametrize("case", STACK_CASES)
    @pytest.mark.parametrize("beta", [(0, 0), (1, 0), (0, 2), (1, 1)])
    def test_matches_each_space_and_its_dimension(self, case, beta, rng):
        space = STACK_CASES[case]()
        spaces = [p.space for p in space.patches]
        groups = stack_spaces(space.table, np.arange(space.m))[0]
        assert sorted(np.concatenate([members for members, _ in groups]).tolist()) == list(range(len(spaces)))
        for members, basis in groups:
            pts = rng.random((members.size, 3, 2))
            got = basis.evaluate(pts, [beta])
            for j, i in enumerate(members):
                assert basis.dim == spaces[i].dim
                oracle = spaces[i].eval_basis_derivative(pts[j], beta)
                assert np.allclose(got[j], oracle, rtol=1e-12, atol=1e-12 * np.max(np.abs(oracle)))

    def test_kernel_group_takes_the_moment_null_bases_of_its_spaces(self):
        space = halton_r3_space(count=40, k=12)[1]
        spaces = [p.space for p in space.patches]
        ((members, basis),) = stack_spaces(space.table, np.arange(space.m))[0]
        for j, i in enumerate(members):
            assert np.array_equal(basis.null[j], spaces[i].moment_null)
            assert np.array_equal(basis.tail_at_centers[j], spaces[i].aug.eval_basis(spaces[i].centers))

    def test_operator_terms_are_summed_with_their_coefficients(self, rng):
        space = halton_r3_space(count=40, k=12)[1]
        ((_, basis),) = stack_spaces(space.table, np.arange(space.m))[0]
        pts = rng.random((basis.centers.shape[0], 1, 2))
        betas = [(2, 0), (1, 1), (0, 2)]
        coef = rng.standard_normal((pts.shape[0], 3))
        parts = [basis.evaluate(pts, [beta]) for beta in betas]
        expected = sum(coef[:, k, None, None] * part for k, part in enumerate(parts))
        assert np.allclose(basis.evaluate(pts, betas, coef), expected, rtol=1e-12, atol=1e-9)

    def test_pairing_refuses_a_stencil_of_another_dimension(self):
        ns = m.generate_grid(1, 5, (0.0, 1.0))
        infl = influences(ns, None, ("knn", 3), center_indices=[2])[0]
        with pytest.raises(InvalidInputError, match="^stencil of dimension 1 in a 2-dimensional space$"):
            PatchTable.of_pairs([infl], [PolySpace(2, 1, np.zeros(2), 1.0, m.monomial_exponents(2, 1))])

    def test_kernel_group_splits_by_tail_rank(self):
        spaces, table = mixed_tail_rank_table()
        groups, group, slot = stack_spaces(table, np.arange(3))
        assert [(members.tolist(), basis.tail_rank, basis.dim) for members, basis in groups] == [
            ([1], 2, 5), ([0, 2], 3, 4)]
        assert group.tolist() == [1, 0, 1] and slot.tolist() == [0, 0, 1]
        assert [spaces[i].dim for i in range(3)] == [4, 5, 4]

    @pytest.mark.parametrize("case", ["mixed-tail-rank", "r3-degree-2-tail-3d"])
    def test_stacked_null_space_is_each_matrix_alone_bit_for_bit(self, case):
        if case == "mixed-tail-rank":
            spaces, table = mixed_tail_rank_table()
        else:
            space = halton_r3_space_3d()[1]
            spaces, table = [p.space for p in space.patches], space.table
        for members, basis in stack_spaces(table, np.arange(len(spaces)))[0]:
            tails = np.swapaxes(basis.tail_at_centers, 1, 2)
            stacked = null_space(tails, basis.tail_rank)
            g, _, s = tails.shape
            assert stacked.shape == (g, s, s - basis.tail_rank) and stacked.flags.c_contiguous
            assert np.array_equal(basis.null, stacked)
            for j, i in enumerate(members.tolist()):
                alone = null_space(tails[j])
                assert alone.flags.c_contiguous and np.array_equal(stacked[j], alone)
                assert np.array_equal(stacked[j], spaces[i].moment_null)

    def test_only_spaces_names_the_basis_layout(self):
        """Kernel translates, monomial derivatives and the moment-null block stay inside spaces.py."""
        layout = re.compile(r"\b(kernel_derivative|monomial_derivatives|moment_null|kernel_norm)\b")
        src = Path(m.__file__).parent
        leaks = sorted(f.name for f in src.glob("*.py") if f.name != "spaces.py" and layout.search(f.read_text()))
        assert leaks == []
