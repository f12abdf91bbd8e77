import numpy as np
import pytest

import meshfd as m
from meshfd import spline
from meshfd.errors import CoverageError, InvalidInputError
from meshfd.pum import DEFAULT_RADIUS_FACTOR, PartitionOfUnity, blend
from meshfd.spaces import KernelSpace, PatchTable, StackedBasis

from helpers import (
    blend_disconnected,
    five_star_sublist_space,
    grid1d,
    halton_r3_space,
    halton_r3_space_3d,
    hand_made_space,
    jittered_cloud,
    local_interpolate,
    patch_eval,
    patch_value,
    quadratic_overlap_space_1d,
)


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

    @pytest.mark.parametrize("centers, radii, message", [
        ([[0.0, np.nan]], [0.5], r"^partition-of-unity center \[0.0, nan\] is not finite$"),
        ([[0.0, 0.0]], [np.inf], "^partition-of-unity radii must be positive and finite$"),
        ([[0.0, 0.0]], [np.nan], "^partition-of-unity radii must be positive and finite$"),
    ], ids=["nan-center", "inf-radius", "nan-radius"])
    def test_non_finite_centers_and_radii_rejected(self, centers, radii, message):
        with pytest.raises(InvalidInputError, match=message):
            PartitionOfUnity(centers=np.array(centers), radii=np.array(radii))

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
        assert blend(s, pou, x) == pytest.approx(float(patch_eval(s, int(idx[0]), x)), abs=1e-15)

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
                              m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1))
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
        assert blend(s, pou, x) == pytest.approx(float(patch_eval(s, 0, x)), abs=1e-15)

    def test_smooth_function_error_decreases_with_refinement(self):
        target = lambda p: np.sin(np.pi * p[0]) * np.sin(np.pi * p[1])
        errors = []
        for n_axis in (5, 9, 17):
            ns = jittered_cloud(11, n_axis=n_axis, jitter=0.1)
            space = m.build_space(ns, "all", ("knn", 9),
                                  m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1))
            pou = PartitionOfUnity.for_space(space)
            fits = self._local_kernel_fits(ns, space, target)
            probe = m.generate_grid(2, 7, [(0.15, 0.85), (0.15, 0.85)]).points
            err = max(abs(blend_disconnected(fits, pou, x) - target(x)) for x in probe)
            errors.append(err)
        assert errors[0] > errors[1] > errors[2]


def brute_force_weights(pou, x):
    """Oracle: the Shepard weights from a scan over every centre."""
    t = np.linalg.norm(pou.centers - x, axis=1) / pou.radii
    inside = np.flatnonzero(t < 1.0)
    bump = (1.0 - t[inside]) ** 2
    return inside, bump / bump.sum()


def unequal_radii_partition(rng):
    centers = rng.random((300, 2))
    return PartitionOfUnity(centers=centers, radii=rng.uniform(0.02, 0.3, 300))


class TestShepardWeights:
    @pytest.mark.parametrize("build", [
        lambda rng: PartitionOfUnity.for_space(halton_r3_space()[1]),
        unequal_radii_partition,
    ], ids=["pum-eval-small", "unequal-radii"])
    def test_tree_query_matches_brute_force_scan(self, build, rng):
        pou = build(rng)
        samples = rng.uniform(-0.1, 1.1, size=(2000, 2))
        # points on ball boundaries, nudged by a few ulps either way
        pick = rng.integers(0, pou.m, 200)
        angle = rng.uniform(0.0, 2.0 * np.pi, 200)
        direction = np.column_stack([np.cos(angle), np.sin(angle)])
        nudge = 1.0 + rng.integers(-4, 5, 200)[:, None] * np.finfo(float).eps
        edge = pou.centers[pick] + pou.radii[pick, None] * nudge * direction
        for x in np.vstack([samples, edge]):
            inside, gamma = brute_force_weights(pou, x)
            if inside.size == 0:
                with pytest.raises(CoverageError, match=r"is covered by no partition ball"):
                    pou.weights_at(x)
                continue
            idx, weights = pou.weights_at(x)
            assert np.array_equal(idx, inside)
            assert np.max(np.abs(weights - gamma)) <= 1e-15

    def test_coverage_error_names_the_first_uncovered_point(self):
        pou = PartitionOfUnity(centers=np.array([[0.0, 0.0]]), radii=np.array([0.5]))
        with pytest.raises(CoverageError, match=r"^point \[5.0, 5.0\] is covered by no partition ball$"):
            pou.weights_at([5.0, 5.0])
        ns, space = quadratic_overlap_space_1d(3)
        s = m.from_nodal_values(space, np.zeros(ns.n))
        with pytest.raises(CoverageError, match=r"^point \[2.0\] is covered"):
            PartitionOfUnity.for_space(space).evaluate(s, [[0.5], [2.0], [3.0]])


def fitted(ns, space):
    """The member of an interpolatory space that takes the values of a smooth function at the nodes."""
    return ns, m.from_nodal_values(space, np.sin(3.0 * ns.points).sum(axis=1))


def mixed_tail_rank_spline():
    """The three kernel patches of `test_kernel_group_splits_by_tail_rank` on their 11 nodes.

    The collinear patch's linear tail has rank 2, so its group's moment-null
    block is one column wider (dimension 5 on 4 nodes).  Such a patch is not
    interpolatory, so the coefficients are drawn, not fitted.
    """
    plane = np.array([[0.0, 0.0], [0.6, 0.7], [1.0, 0.0], [0.0, 1.0]])  # by distance from the first
    line = np.column_stack([np.linspace(0.0, 1.0, 4), np.linspace(0.0, 0.5, 4)])
    stencils = [plane, line, plane + 1.0]
    points = np.unique(np.vstack(stencils), axis=0)
    ns = m.NodeSet(points=points, boundary_mask=np.zeros(len(points), dtype=bool))
    patches = []
    for c in stencils:
        index = [int(np.flatnonzero((points == x).all(axis=1))[0]) for x in c]
        influence = m.InfluenceSet(center=c[0], indices=index, points=c,
                                   distances=np.linalg.norm(c - c[0], axis=1), center_index=index[0])
        kernel = KernelSpace(m.Kernel("polyharmonic", 3.0), c, aug=m.PolySpace.full(2, 1, shift=c[0]))
        patches.append((influence, kernel))
    space = hand_made_space(ns, patches)
    rng = np.random.default_rng(11)
    coeffs = tuple(rng.standard_normal(p.space.dim) for p in space.patches)
    assert [len(c) for c in coeffs] == [4, 5, 4]
    return ns, m.OverlapSpline(space=space, patch_coeffs=coeffs)


ORACLE_SPACES = {
    "r3-degree-2-tail": lambda: fitted(*halton_r3_space()),
    "gauss-tail-free": lambda: (lambda ns: fitted(ns, m.build_space(
        ns, "all", ("knn", 9), m.kernel_patch_recipe(m.Kernel("gauss", 3.0), augmentation_degree=None),
    )))(jittered_cloud(5, n_axis=9)),
    "quadratic-1d": lambda: fitted(*quadratic_overlap_space_1d(9)),
    "five-star-constant-patches": lambda: fitted(*five_star_sublist_space(6)),
    "mixed-tail-rank": mixed_tail_rank_spline,
    "r3-degree-2-tail-3d": lambda: fitted(*halton_r3_space_3d()),
}


class TestEvaluationTable:
    @pytest.mark.parametrize("case", ORACLE_SPACES)
    def test_evaluate_and_blend_match_the_per_patch_oracle(self, case, rng):
        ns, s = ORACLE_SPACES[case]()
        pou = PartitionOfUnity.for_space(s.space)
        bounds = np.array([[0.0, 1.0]] * ns.d)
        pts = np.vstack([covered_samples(pou, rng, 300, bounds), ns.points])
        oracle = np.array([blend_disconnected(lambda i, y: patch_eval(s, i, y), pou, x) for x in pts])
        batched = pou.evaluate(s, pts)
        one_point = np.array([blend(s, pou, x) for x in pts])
        assert np.array_equal(batched, one_point)
        assert np.all(np.abs(batched - oracle) <= 1e-13 * (1.0 + np.abs(oracle)))

    def test_mixed_space_stacks_two_shape_groups(self):
        ns, space = five_star_sublist_space(6)
        s = m.from_nodal_values(space, np.zeros(ns.n))
        groups, group_of, _ = s.space._stacks
        assert [basis.dim for _, basis in groups] == [5, 1]
        assert np.array_equal(np.bincount(group_of), [25, 4])  # 5 x 5 interior stars, 4 corner constants
        # polynomial groups: no kernel weights, the whole coefficient vector is the tail
        assert [(w.shape, a.shape) for w, a in s._coeffs] == [((25, 0), (25, 5)), ((4, 0), (4, 1))]

    def test_eval_pairs_matches_patch_eval(self, rng):
        ns, space = five_star_sublist_space(4)
        s = m.from_nodal_values(space, rng.standard_normal(ns.n))
        patches = rng.integers(0, space.m, 50)
        pts = rng.random((50, 2))
        expected = [float(patch_eval(s, int(i), x)) for i, x in zip(patches, pts)]
        assert np.allclose(s.eval_pairs(patches, pts), expected, rtol=1e-13, atol=1e-13)

    def test_pair_chunks_agree_with_one_call(self, rng, monkeypatch):
        ns, space = halton_r3_space()
        s = m.from_nodal_values(space, np.cos(ns.points).prod(axis=1))
        pou = PartitionOfUnity.for_space(space)
        pts = covered_samples(pou, rng, 50, np.array([[0.0, 1.0], [0.0, 1.0]]))
        whole, restricted = pou.evaluate(s, pts), m.restriction(s)
        monkeypatch.setattr(spline, "EVAL_CHUNK_PAIRS", 5)
        assert np.array_equal(pou.evaluate(s, pts), whole)
        assert np.array_equal(m.restriction(s), restricted)
        empty = pou.evaluate(s, np.zeros((0, 2)))
        assert empty.shape == (0,) and empty.dtype == np.float64

    @pytest.mark.parametrize("patches, points", [
        (lambda n: [-1], [[0.5, 0.5]]),
        (lambda n: [0.7], [[0.5, 0.5]]),
        (lambda n: [n], [[0.5, 0.5]]),
        (lambda n: [True], [[0.5, 0.5]]),
        (lambda n: [0, 1], [[0.5, 0.5]]),
        (lambda n: [0], [0.5, 0.5]),
    ], ids=["negative", "fractional", "past-the-end", "boolean", "count-mismatch", "flat-point"])
    def test_eval_pairs_rejects_bad_pairs(self, patches, points):
        ns, space = halton_r3_space()
        s = m.from_nodal_values(space, np.zeros(ns.n))
        with pytest.raises(InvalidInputError):
            s.eval_pairs(patches(space.m), points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        ns, space = halton_r3_space()
        s = m.from_nodal_values(space, np.zeros(ns.n))
        pou = PartitionOfUnity.for_space(space)
        message = rf"^point \[0.5, {bad}\] is not finite$"
        with pytest.raises(InvalidInputError, match=message):
            pou.evaluate(s, [[0.5, 0.5], [0.5, bad]])
        with pytest.raises(InvalidInputError, match=message):
            blend(s, pou, [0.5, bad])
        with pytest.raises(InvalidInputError, match=message):
            pou.weights_at([0.5, bad])

    def test_the_first_of_several_non_finite_points_is_named(self):
        ns, space = halton_r3_space()
        s = m.from_nodal_values(space, np.zeros(ns.n))
        pou = PartitionOfUnity.for_space(space)
        with pytest.raises(InvalidInputError, match=r"^point \[nan, 0.5\] is not finite$"):
            pou.evaluate(s, [[0.5, 0.5], [np.nan, 0.5], [0.5, np.inf], [np.inf, np.nan]])
        for one_point in (lambda x: blend(s, pou, x), pou.weights_at):
            with pytest.raises(InvalidInputError, match=r"^point \[inf, nan\] is not finite$"):
                one_point([np.inf, np.nan])

    def test_points_of_the_wrong_dimension_rejected(self):
        ns, space = halton_r3_space()
        s = m.from_nodal_values(space, np.zeros(ns.n))
        pou = PartitionOfUnity.for_space(space)
        with pytest.raises(InvalidInputError):
            pou.evaluate(s, [[0.5, 0.5, 0.5]])

    @pytest.mark.parametrize("lengths, message", [
        ([3, 3], "one coefficient vector per patch is required"),
        ([3, 3, 2], "coefficient length does not match the patch dimension"),
    ], ids=["count", "length"])
    def test_coefficients_must_fit_the_patches(self, lengths, message):
        ns, space = quadratic_overlap_space_1d(4)  # three patches of dimension 3
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            m.OverlapSpline(space=space, patch_coeffs=tuple(np.zeros(n) for n in lengths))

    def test_coefficients_are_read_only_copies(self):
        ns, space = quadratic_overlap_space_1d(4)
        coeffs = [np.zeros(3) for _ in range(space.m)]
        s = m.OverlapSpline(space=space, patch_coeffs=tuple(coeffs))
        coeffs[0][0] = 1.0
        assert s.patch_coeffs[0][0] == 0.0
        with pytest.raises(ValueError):
            s.patch_coeffs[0][0] = 1.0

    def test_blend_makes_no_per_patch_call_once_the_table_is_built(self, rng, monkeypatch):
        ns, space = halton_r3_space()
        s = m.from_nodal_values(space, np.sin(ns.points).sum(axis=1))
        pou = PartitionOfUnity.for_space(space)
        pts = covered_samples(pou, rng, 200, np.array([[0.0, 1.0], [0.0, 1.0]]))
        blend(s, pou, pts[0])  # stacks the coefficients and builds the tree
        assert len(space._stacks[0]) == 1
        calls = {"derivative": 0, "stack_spaces": 0, "evaluate": 0, "values": 0, "weights_at": 0, "ids": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(KernelSpace, "_derivative", counting("derivative", KernelSpace._derivative))
        monkeypatch.setattr(spline, "stack_spaces", counting("stack_spaces", spline.stack_spaces))
        monkeypatch.setattr(StackedBasis, "evaluate", counting("evaluate", StackedBasis.evaluate))
        monkeypatch.setattr(StackedBasis, "values", counting("values", StackedBasis.values))
        monkeypatch.setattr(PartitionOfUnity, "weights_at",
                            counting("weights_at", PartitionOfUnity.weights_at))
        monkeypatch.setattr(PatchTable, "ids", counting("ids", PatchTable.ids))
        values = [blend(s, pou, x) for x in pts]
        m.restriction(s)
        # one collapsed value pass per blended point and per chunk of memberships; no basis, no per-patch
        # route, and the pairs that the cover and the incidence table build are not checked again
        chunks = -(-space.incidence[0].size // spline.EVAL_CHUNK_PAIRS)
        assert calls == {"derivative": 0, "stack_spaces": 0, "evaluate": 0, "values": len(pts) + chunks,
                         "weights_at": 0, "ids": 0}
        assert np.all(np.isfinite(values))
