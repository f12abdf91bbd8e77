import numpy as np
import pytest

import meshfd as m
from meshfd.errors import CoverageError, InvalidInputError
from meshfd.pum import DEFAULT_RADIUS_FACTOR, PartitionOfUnity, blend, blend_disconnected
from meshfd.spaces import local_interpolate, patch_value

from helpers import five_star_sublist_space, grid1d, jittered_cloud, quadratic_overlap_space_1d


def covered_samples(pou, rng, n, bounds):
    """Random points, rejection-sampled to lie in at least one ball."""
    out = []
    while len(out) < n:
        x = bounds[:, 0] + rng.random(bounds.shape[0]) * (bounds[:, 1] - bounds[:, 0])
        try:
            pou.weights_at(x)
        except CoverageError:
            continue
        out.append(x)
    return np.array(out)


def per_patch_radii(space):
    """Oracle: the ball radius rule with one tree query per patch."""
    nodes = space.nodes
    radii = []
    for patch in space.patches:
        size, r = patch.influence.size, patch.influence.radius
        d_out = np.inf
        if size + 1 <= nodes.n:
            d_out = float(np.max(nodes.tree.query(patch.center, k=size + 1)[0]))
        if r == 0.0:
            radii.append(0.5 * d_out if np.isfinite(d_out) else 1.0)
        elif d_out > r:
            radii.append(min(DEFAULT_RADIUS_FACTOR * r, 0.5 * (r + d_out)))
        else:
            radii.append(DEFAULT_RADIUS_FACTOR * r)
    return np.array(radii)


RADIUS_CASES = {
    # single-node constant patches of radius 0 complete the cover
    "constant-patches": lambda: five_star_sublist_space(4)[1],
    # patch 1 holds every node, patch 0 does not
    "patch-holds-all": lambda: m.build_space(grid1d(4), np.array([[0.0], [0.5]]), ("range", 0.6),
                                             m.poly_patch_recipe(0)),
    # the third neighbor ties the second, so the ball is not clipped
    "tied-outer-node": lambda: m.build_space(grid1d(6), "all", ("knn", 2), m.poly_patch_recipe(1)),
    "scattered": lambda: m.build_space(jittered_cloud(4, n_axis=7), "all", ("knn", 9),
                                       m.poly_patch_recipe(1)),
    "one-node": lambda: m.build_space(m.NodeSet(points=[[0.3, 0.4]], boundary_mask=[True]), "all",
                                      ("knn", 1), m.poly_patch_recipe(0)),
}


class TestPartitionOfUnity:
    @pytest.mark.parametrize("case", RADIUS_CASES)
    def test_for_space_radii_match_per_patch_rule(self, case):
        space = RADIUS_CASES[case]()
        pou = PartitionOfUnity.for_space(space)
        assert np.array_equal(pou.radii, per_patch_radii(space))
        assert np.array_equal(pou.centers, [p.center for p in space.patches])

    def test_weights_sum_to_one_at_random_covered_points(self, rng):
        ns, space = five_star_sublist_space(6)
        pou = PartitionOfUnity.for_space(space)
        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        for x in covered_samples(pou, rng, 1000, bounds):
            idx, gamma = pou.weights_at(x)
            assert abs(gamma.sum() - 1.0) <= 1e-12
            assert np.all(gamma >= 0.0)

    def test_weight_vanishes_outside_its_ball(self, rng):
        ns, space = quadratic_overlap_space_1d(8)
        pou = PartitionOfUnity.for_space(space)
        for x in np.linspace(0.01, 0.99, 57):
            idx, _ = pou.weights_at(np.array([x]))
            for i in idx:
                assert np.linalg.norm(x - pou.centers[i]) < pou.radii[i]

    def test_uncovered_point_raises(self):
        pou = PartitionOfUnity(centers=np.array([[0.0, 0.0]]), radii=np.array([0.1]))
        with pytest.raises(CoverageError):
            pou.weights_at([5.0, 5.0])

    def test_positive_radii_required(self):
        with pytest.raises(InvalidInputError):
            PartitionOfUnity(centers=np.array([[0.0]]), radii=np.array([0.0]))

    def test_continuity_across_ball_boundaries(self, rng):
        ns, space = quadratic_overlap_space_1d(8)
        pou = PartitionOfUnity.for_space(space)
        s = m.from_nodal_values(space, np.sin(3 * ns.points.ravel()))
        step = 1e-6
        border = float(pou.centers[3, 0] + pou.radii[3])  # crossing patch 3's ball edge
        for x0 in (border - 2 * step, border - step, border, border + step):
            a = blend(s, pou, [x0])
            b = blend(s, pou, [x0 + step])
            assert abs(a - b) <= 1e-4


class TestBlend:
    def test_matches_restriction_at_nodes(self, rng):
        for build in (lambda: quadratic_overlap_space_1d(9),
                      lambda: five_star_sublist_space(5)):
            ns, space = build()
            values = rng.standard_normal(ns.n)
            s = m.from_nodal_values(space, values)
            pou = PartitionOfUnity.for_space(space)
            blended = np.array([blend(s, pou, x) for x in ns.points])
            assert np.max(np.abs(blended - values)) <= 1e-9

    def test_single_covering_patch_returns_patch_value(self):
        ns, space = quadratic_overlap_space_1d(4)
        values = np.arange(ns.n, dtype=float)
        s = m.from_nodal_values(space, values)
        pou = PartitionOfUnity.for_space(space)
        x = np.array([0.02])  # only the first patch ball reaches the left edge
        idx, gamma = pou.weights_at(x)
        assert len(idx) == 1
        assert blend(s, pou, x) == pytest.approx(float(s.patch_eval(int(idx[0]), x)), abs=1e-15)

    def test_identical_polynomial_patches_reproduce_it(self, rng):
        ns, space = quadratic_overlap_space_1d(7)
        xs = ns.points.ravel()
        values = 1.5 * xs**2 - 2.0 * xs + 0.25
        s = m.from_nodal_values(space, values)
        pou = PartitionOfUnity.for_space(space)
        for x in np.linspace(0.05, 0.95, 31):
            assert blend(s, pou, [x]) == pytest.approx(1.5 * x**2 - 2.0 * x + 0.25, abs=1e-11)

    def test_misaligned_partition_rejected(self):
        ns, space = quadratic_overlap_space_1d(5)
        s = m.from_nodal_values(space, np.zeros(ns.n))
        pou = PartitionOfUnity(centers=np.array([[0.5]]), radii=np.array([1.0]))
        with pytest.raises(InvalidInputError):
            blend(s, pou, [0.5])


class TestBlendDisconnected:
    @staticmethod
    def _local_kernel_fits(ns, space, sample):
        fits = []
        for patch in space.patches:
            values = np.array([sample(p) for p in patch.influence.points])
            coeffs = local_interpolate(patch.space, patch.influence.points, values)
            fits.append((patch.space, coeffs))
        return lambda i, x: patch_value(fits[i][0], fits[i][1], x)

    def test_constant_data_reproduced(self, rng):
        ns = jittered_cloud(4, n_axis=7)
        space = m.build_space(ns, "all", ("knn", 9),
                              m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0)))
        pou = PartitionOfUnity.for_space(space)
        fits = self._local_kernel_fits(ns, space, lambda p: 4.25)
        for _ in range(50):
            x = 0.05 + 0.9 * rng.random(2)
            assert abs(blend_disconnected(fits, pou, x) - 4.25) <= 1e-9

    def test_single_patch_blend_is_the_patch(self):
        pts = np.array([[0.4], [0.5], [0.6]])
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(3, dtype=bool))
        space = m.build_space(ns, np.array([[0.5]]), ("knn", 3), m.poly_patch_recipe(2))
        pou = PartitionOfUnity.for_space(space)
        s = m.from_nodal_values(space, np.array([1.0, 2.0, 4.0]))
        x = np.array([0.47])
        assert blend(s, pou, x) == pytest.approx(float(s.patch_eval(0, x)), abs=1e-15)

    def test_smooth_function_error_decreases_with_refinement(self):
        target = lambda p: np.sin(np.pi * p[0]) * np.sin(np.pi * p[1])
        errors = []
        for n_axis in (5, 9, 17):
            ns = jittered_cloud(11, n_axis=n_axis, jitter=0.1)
            space = m.build_space(ns, "all", ("knn", 9),
                                  m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0)))
            pou = PartitionOfUnity.for_space(space)
            fits = self._local_kernel_fits(ns, space, target)
            probe = m.generate_grid(2, 7, [(0.15, 0.85), (0.15, 0.85)]).points
            err = max(abs(blend_disconnected(fits, pou, x) - target(x)) for x in probe)
            errors.append(err)
        assert errors[0] > errors[1] > errors[2]
