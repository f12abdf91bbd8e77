import dataclasses
import gc
import logging
import re
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import meshfd as m
import meshfd.spaces as spaces_module
import meshfd.spline as spline_module
from meshfd.problems import preset
from meshfd.spaces import PatchTable, stack_spaces
from meshfd.errors import (
    AnalysisSizeError,
    ConstructionError,
    ContractError,
    InconsistentSplineError,
    InvalidInputError,
)
from helpers import (
    FIVE_STAR_SUBLIST,
    GENERAL_OP,
    cardinal_row,
    connection_defect,
    constant,
    dense_dimension_analysis,
    five_star_full_p2_space,
    five_star_sublist_space,
    gauss_tail_space,
    grid1d,
    grid2d,
    halton_r3_space,
    halton_r3_space_3d,
    hand_made_space,
    jittered_cloud,
    local_interpolate,
    patch_eval,
    quadratic_overlap_space_1d,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from dimension_probe import random_configuration  # noqa: E402


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


def membership_lists(space):
    """Oracle: for each node, the ascending indices of the patches containing it."""
    members = [[] for _ in range(space.nodes.n)]
    for i, patch in enumerate(space.patches):
        for k in patch.influence.indices:
            members[k].append(i)
    return members


def never_first_patch(space):
    """A patch that is never the first (lowest-index) patch at any of its nodes.

    Only the cross-check of restriction sees such a patch's values.
    """
    members = membership_lists(space)
    hidden = set(range(space.m)) - {ms[0] for ms in members}
    return min(hidden)


def first_connection_violation(s):
    """Oracle: (node, first patch, offending patch, their values) of the first disagreement."""
    for k, ms in enumerate(membership_lists(s.space)):
        v0 = float(patch_eval(s, ms[0], s.space.nodes.points[k]))
        for i in ms[1:]:
            v = float(patch_eval(s, i, s.space.nodes.points[k]))
            if abs(v - v0) > spline_module.CONNECTION_RTOL * (1.0 + abs(v0)):
                return k, ms[0], i, v0, v
    return None


def kernel_space(seed):
    """r^3 patches with a linear tail on kNN-9 stencils of a jittered 7 x 7 cloud."""
    ns = jittered_cloud(seed, n_axis=7)
    return ns, m.build_space(ns, "all", ("knn", 9),
                             m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1))


def mixed_tail_rank_space():
    """r^3 patches with a linear tail on four nodes each; patch 1's nodes are collinear.

    Patches 0 and 2 have a full-rank tail (dimension 4), patch 1 a tail of
    rank 2 (dimension 5): equal kernel, size and tail, different dimension.
    """
    pts = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.4], [0.3, 0.3],
                    [0.5, 0.5], [0.7, 0.7], [0.9, 0.9], [1.0, 0.2]])
    ns = m.NodeSet(points=pts, boundary_mask=np.zeros(len(pts), dtype=bool))
    recipe = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1)
    patches = []
    for idx in ([0, 1, 2, 3], [3, 4, 5, 6], [4, 5, 6, 7]):
        center = pts[idx[0]]
        infl = m.InfluenceSet(center=center, indices=np.array(idx),
                              distances=np.linalg.norm(pts[idx] - center, axis=1), points=pts[idx])
        patches.append((infl, recipe(infl)))
    return ns, hand_made_space(ns, patches)


def every_other_patch(ns, space):
    """The hand-made space of patches 0, 2, 4, ... of ``space``."""
    return ns, hand_made_space(ns, [(p.influence, p.space) for p in space.patches[::2]])


def _jittered_space(k, recipe):
    ns = jittered_cloud(3, n_axis=7)
    return m.build_space(ns, "all", ("knn", k), recipe)


def _five_point_grid_space(n):
    """kNN-5 patches with the five-point sublist on an (n+1)^2 grid, as in the fivepoint-grid workload."""
    return m.build_space(grid2d(n), "all", ("knn", 5), m.poly_patch_recipe(2, sublist=FIVE_STAR_SUBLIST))


# Well-conditioned spaces on which the per-patch formula must equal the dense oracle.
ORACLE_SPACES = {
    **{f"five-star-full-p2-{n}": (lambda n=n: five_star_full_p2_space(n)[1]) for n in (3, 4, 5)},
    "quadratic-1d-7": lambda: quadratic_overlap_space_1d(7)[1],
    "five-star-sublist-4": lambda: five_star_sublist_space(4)[1],
    "jittered-knn6-p2": lambda: _jittered_space(6, m.poly_patch_recipe(2)),
    "jittered-knn9-r3": lambda: _jittered_space(
        9, m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1)),
    "jittered-knn5-gauss": lambda: _jittered_space(
        5, m.kernel_patch_recipe(m.Kernel("gauss", 3.0), augmentation_degree=None)),
    "halton-r3": lambda: halton_r3_space()[1],
    "knn4-quadratic-1d": lambda: m.build_space(grid1d(10), "all", ("knn", 4), m.poly_patch_recipe(2)),
}


def near_line_configuration(rng):
    """Random polynomial patches on 8-19 nodes within 1e-6 to 1e-12 of the x axis."""
    n_nodes = int(rng.integers(8, 20))
    pts = np.column_stack([rng.random(n_nodes), 10.0 ** -rng.integers(6, 13) * rng.standard_normal(n_nodes)])
    ns = m.NodeSet(points=pts, boundary_mask=np.zeros(n_nodes, dtype=bool))
    if rng.random() < 0.5:
        selector = ("knn", int(rng.integers(2, n_nodes + 1)))
    else:
        selector = ("range", float(rng.uniform(0.2, 0.8)))
    centers = pts[rng.integers(0, n_nodes, size=int(rng.integers(1, 6)))]
    return ns, m.build_space(ns, centers, selector, m.poly_patch_recipe(int(rng.integers(1, 4))),
                             uncovered="constant-patch")


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
        with pytest.raises(ConstructionError, match=r"^nodes not covered by any patch: \[0, 1\]$"):
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

    @pytest.mark.parametrize("case", ["knn5-grid-singular-edges", "mixed-tail-rank", "constant-patch-cover"])
    def test_stacked_ranks_equal_per_patch_ranks(self, case, monkeypatch, one_matrix_ranks, caplog):
        """`failing_patches` comes from one batched SVD per stack group: no per-patch rank, no view."""
        grid, (ns, hand) = grid2d(8), mixed_tail_rank_space()
        pairs = [(p.influence, p.space) for p in hand.patches]
        build = {
            "knn5-grid-singular-edges": lambda: m.build_space(
                grid, "all", ("knn", 5), m.poly_patch_recipe(2, sublist=FIVE_STAR_SUBLIST)),
            "mixed-tail-rank": lambda: hand_made_space(ns, pairs),
            "constant-patch-cover": lambda: five_star_full_p2_space(4)[1],
        }[case]
        built = []
        monkeypatch.setattr(m.Patch, "__init__", lambda *args, **kwargs: built.append("patch"))
        with caplog.at_level(logging.INFO, logger="meshfd.spline"):
            space = build()  # build_space logs its failing patches
            failing, interpolatory = space.failing_patches, space.interpolatory
        assert built == [] and one_matrix_ranks == []
        monkeypatch.undo()
        assert failing and not interpolatory
        assert failing == tuple(i for i, p in enumerate(space.patches)
                                if not m.unisolvency_rank(p.space, p.influence.points)[1])

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
        assert all(m.unisolvency_rank(p.space, p.influence.points)[1] for p in space.patches)

    @pytest.mark.parametrize("build", [lambda: five_star_full_p2_space(4), lambda: kernel_space(2),
                                       lambda: halton_r3_space(), lambda: quadratic_overlap_space_1d(7)])
    def test_incidence_matches_membership_loop(self, build):
        ns, space = build()
        node, patch, flat = space.incidence
        expected = [(k, i) for k, ms in enumerate(membership_lists(space)) for i in ms]
        assert list(zip(node.tolist(), patch.tolist())) == expected
        concatenated = np.concatenate([p.influence.indices for p in space.patches])
        owner = np.repeat(np.arange(space.m), [p.influence.size for p in space.patches])
        assert np.array_equal(concatenated[flat], node)
        assert np.array_equal(owner[flat], patch)
        assert np.array_equal(flat, np.lexsort((owner, concatenated)))  # the (node, patch) sort it replaces

    def test_incidence_not_built_for_node_centred_sigma(self):
        space = m.build_space(grid2d(8), "all", ("knn", 5), m.poly_patch_recipe(1))
        m.build_sigma(space, "same-index")
        assert "incidence" not in space.__dict__

    def test_interior_centres_build_incidence_for_the_sigma_fallback(self):
        ns, space = quadratic_overlap_space_1d(7)
        assert "incidence" not in space.__dict__
        assert m.build_sigma(space, "same-index").patch[[0, -1]].tolist() == [0, space.m - 1]
        node, patch, flat = space.__dict__["incidence"]
        members = membership_lists(space)
        assert list(zip(node.tolist(), patch.tolist())) == [(k, i) for k, ms in enumerate(members) for i in ms]
        assert np.array_equal(space.table.influence.indices[flat], node)

    def test_ranks_measured_on_first_use_only(self, one_matrix_ranks, caplog):
        """A view is its table row and its owner: the rank pass runs on the first rank read, for every patch."""
        caplog.set_level(logging.WARNING, logger="meshfd.spline")
        ns, space = kernel_space(0)
        assert [f.name for f in dataclasses.fields(m.Patch)] == ["influence", "space", "owner", "row"]
        patch = space.patches[3]
        assert (patch.owner, patch.row) == (space, 3) and patch.owner.m == space.m
        assert "_ranks" not in space.__dict__  # neither the build nor the views measured a rank
        assert patch.is_interpolation_set and patch.unisolvent
        assert "_ranks" in space.__dict__ and space.interpolatory  # stacked ranks: no per-patch rank SVD
        assert one_matrix_ranks == []

    def test_views_hold_their_space_weakly(self):
        """A space with views is freed without the cyclic collector; a view that outlives it has no rank."""
        ns, space = kernel_space(0)
        view, owner = space.patches[3], weakref.ref(space)
        gc.disable()
        try:
            del space
            assert owner() is None
        finally:
            gc.enable()
        assert view.influence.size == 9 and view.space.dim == 9  # its own fields stay
        for judgement in ("rank", "unisolvent", "is_interpolation_set"):
            with pytest.raises(ReferenceError, match="^weakly-referenced object no longer exists$"):
                getattr(view, judgement)

    def test_recipe_must_be_a_recipe_object(self):
        ns = grid1d(6)
        recipe = m.poly_patch_recipe(2)
        with pytest.raises(InvalidInputError, match="recipe must be a spaces.Recipe"):
            m.build_space(ns, "interior", ("knn", 3), lambda infl: recipe(infl))

    def test_unknown_uncovered_policy_rejected_even_when_all_nodes_are_covered(self):
        ns = m.generate_grid(2, 5, [(0, 1), (0, 1)])
        with pytest.raises(InvalidInputError, match="unknown uncovered policy 'bogus'"):
            m.build_space(ns, "all", ("knn", 5), m.poly_patch_recipe(1), uncovered="bogus")

    @pytest.mark.parametrize("bad", [[-1, 2], [2, 7]])
    def test_out_of_range_center_indices_rejected(self, bad):
        ns = grid1d(6)
        with pytest.raises(InvalidInputError, match="center indices"):
            m.build_space(ns, np.array(bad), ("knn", 3), m.poly_patch_recipe(2),
                          uncovered="constant-patch")


def hand_made_line(indices, points):
    """Nodes 0, 0.5, 1 with the linear patch on nodes 0 and 1 and a second one on ``indices`` placed at ``points``."""
    ns, recipe = grid1d(2), m.poly_patch_recipe(1)
    sets = [m.InfluenceSet(center=[0.0], indices=[0, 1], distances=[0.0, 0.5], points=[[0.0], [0.5]]),
            m.InfluenceSet(center=points[0], indices=indices, points=points,
                           distances=np.linalg.norm(np.subtract(points, points[0]), axis=1))]
    return ns, hand_made_space(ns, [(infl, recipe(infl)) for infl in sets])


class TestHandMadeNodeReferences:
    """The constructor holds every influence set to the nodes: indices in range, then the nodes' own coordinates."""

    @pytest.mark.parametrize("indices, points, message", [
        ([1, 3], [[0.5], [1.5]], "patch 1 references node 3 outside the 3 nodes"),  # index N
        ([3, 4], [[1.5], [2.0]], "patch 1 references node 3 outside the 3 nodes"),  # indices above N
        ([2, -1], [[1.0], [0.5]], "patch 1 references node -1 outside the 3 nodes"),  # a negative index
        ([1, 2], [[0.5], [0.9]], "patch 1 references node 2 off its coordinates"),  # node 2 is at 1.0
    ], ids=["index-n", "above-n", "negative", "moved-point"])
    def test_bad_reference_names_patch_and_node(self, indices, points, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            hand_made_line(indices, points)

    def test_moved_second_coordinate_names_its_node(self):
        ns = grid2d(1)
        points = ns.points.copy()
        points[2, 1] += 0.25
        infl = m.InfluenceSet(center=points[0], indices=[0, 1, 2, 3], points=points,
                              distances=np.linalg.norm(points - points[0], axis=1))
        with pytest.raises(InvalidInputError, match="^patch 0 references node 2 off its coordinates$"):
            hand_made_space(ns, [(infl, m.poly_patch_recipe(1)(infl))])

    def test_influence_points_of_another_dimension_refused(self):
        ns = grid1d(2)
        infl = m.InfluenceSet(center=[0.0, 0.0], indices=[0, 1, 2], distances=[0.0, 0.5, 1.0],
                              points=[[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError, match=r"^influence points of shape \(3, 2\) for 1-D nodes$"):
            hand_made_space(ns, [(infl, m.poly_patch_recipe(1)(infl))])

    def test_consistent_references_accepted(self):
        ns, space = hand_made_line([1, 2], [[0.5], [1.0]])
        s = m.from_nodal_values(space, [1.0, 2.0, 3.0])
        assert np.allclose(m.restriction(s), [1.0, 2.0, 3.0], rtol=1e-14, atol=1e-14)


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
            if all(m.unisolvency_rank(p.space, p.influence.points)[0] == p.space.dim for p in space.patches):
                assert rep.dim_im_T <= ns.n
            checked += 1
        assert checked >= 80

    def test_guard_rejects_oversized_analysis(self, monkeypatch):
        """The guard bounds the left-null block C: one row per null vector, one column per node it touches.

        kNN-4 patches on a 9-node line: quadratics on the interior centres give C 7 x 9 (the columns
        trip the guard), constants on every node give it 27 x 9 (the rows do).
        """
        for centers, degree, rows in (("interior", 2, 7), ("all", 0, 27)):
            space = m.build_space(grid1d(8), centers, ("knn", 4), m.poly_patch_recipe(degree))
            monkeypatch.setattr(spline_module, "ANALYSIS_GUARD", max(rows, 9))
            assert m.dimension_analysis(space) == dense_dimension_analysis(space)
            monkeypatch.setattr(spline_module, "ANALYSIS_GUARD", max(rows, 9) - 1)
            with pytest.raises(AnalysisSizeError, match=f"{rows} x 9"):
                m.dimension_analysis(space)

    @pytest.mark.parametrize("name", sorted(ORACLE_SPACES))
    def test_equals_dense_oracle(self, name):
        space = ORACLE_SPACES[name]()
        assert m.dimension_analysis(space) == dense_dimension_analysis(space)

    @pytest.mark.parametrize("n, dim, ker", [(8, 85, 32), (16, 293, 64)])
    def test_knn5_five_point_grids(self, n, dim, ker):
        """kNN-5 five-point patches on an (n+1)^2 grid: ker T is one function per collinear edge patch."""
        space = _five_point_grid_space(n)
        rep = m.dimension_analysis(space)
        assert rep == dense_dimension_analysis(space)
        assert (rep.dim_total, rep.dim_ker_T, rep.dim_im_T) == (dim, ker, dim - ker)
        assert rep.dim_ker_T == len(space.failing_patches) == 4 * n

    def test_equals_dense_oracle_on_probe_configurations(self):
        rng, checked = np.random.default_rng(0), 0
        while checked < 100:
            try:
                ns, space = random_configuration(rng)
            except ConstructionError:
                continue
            assert m.dimension_analysis(space) == dense_dimension_analysis(space)
            checked += 1

    def test_nearly_dependent_nodes_keep_the_invariants(self):
        """Nodes within 1e-6 to 1e-12 of a line: rank decisions sit at the tolerance, where the dense
        oracle's global SVD may decide otherwise, so check what the per-patch formula must satisfy."""
        rng, checked, deficient = np.random.default_rng(0), 0, 0
        while checked < 100:
            try:
                ns, space = near_line_configuration(rng)
            except ConstructionError:
                continue
            rep = m.dimension_analysis(space)
            ranks = [m.unisolvency_rank(p.space, p.influence.points) for p in space.patches]
            assert rep.dim_ker_T == sum(p.space.dim - r for p, (r, _) in zip(space.patches, ranks))
            assert rep.dim_total == rep.dim_ker_T + rep.dim_im_T >= max(rep.lower_bound, 0)
            assert rep.dim_im_T <= ns.n
            assert space.failing_patches == tuple(i for i, (_, iset) in enumerate(ranks) if not iset)
            deficient += rep.dim_ker_T > 0
            checked += 1
        assert deficient >= 50

    def test_benchmark_scale_space(self, monkeypatch, one_matrix_ranks):
        """The `fivepoint-grid` space (129^2, kNN 5) within the default guard: one batched rank pass,
        no `Patch` view, no per-patch rank: the one one-matrix rank is that of the left-null block C."""
        space = _five_point_grid_space(128)
        built = []
        monkeypatch.setattr(m.Patch, "__init__", lambda *args, **kwargs: built.append("patch"))
        start = time.perf_counter()
        rep = m.dimension_analysis(space)
        elapsed = time.perf_counter() - start
        assert built == [] and [rows for rows, _ in one_matrix_ranks] == [512]
        assert rep.dim_ker_T == len(space.failing_patches) == 512
        assert (rep.dim_total, rep.dim_im_T) == (16645, 16133)
        assert elapsed < 5.0, f"dimension analysis of the 129^2 space took {elapsed:.2f}s"


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
                assert patch_eval(s, i - 1, [x]) == pytest.approx(expected, abs=1e-10)

    def test_global_quadratic_reproduced_on_every_patch(self):
        ns, space = quadratic_overlap_space_1d(7)
        values = 2.0 * ns.points.ravel() ** 2 - 0.5 * ns.points.ravel() + 3.0
        s = m.from_nodal_values(space, values)
        for i, patch in enumerate(space.patches):
            lo, hi = patch.influence.points.min(), patch.influence.points.max()
            for x in np.linspace(lo, hi, 7):
                assert patch_eval(s, i, [x]) == pytest.approx(2 * x**2 - 0.5 * x + 3, rel=1e-12)

    def test_connection_condition_holds(self, rng):
        ns, space = five_star_sublist_space(5)
        s = m.from_nodal_values(space, rng.standard_normal(ns.n))
        assert connection_defect(s) <= 1e-9

    def test_non_interpolatory_space_rejected(self):
        ns, space = five_star_full_p2_space(4)
        failing = space.failing_patches[:10]
        assert failing == tuple(range(9))
        with pytest.raises(ContractError,
                           match=re.escape(f"space is not interpolatory (failing patches: {failing})")):
            m.from_nodal_values(space, np.zeros(ns.n))

    def test_nodal_value_count_checked(self):
        ns, space = halton_r3_space()
        with pytest.raises(InvalidInputError, match=f"^expected {ns.n} nodal values, got {ns.n - 1}$"):
            m.from_nodal_values(space, np.zeros(ns.n - 1))

    def test_singular_square_patches_rejected(self):
        # kNN-5 edge stencils of a grid are collinear: square but singular nodal matrices
        ns = m.generate_grid(2, 5, [(0.0, 1.0), (0.0, 1.0)])
        space = m.build_space(ns, "all", ("knn", 5), m.poly_patch_recipe(2, sublist=FIVE_STAR_SUBLIST))
        failing = space.failing_patches[:10]
        assert failing and all(space.patches[i].influence.size == space.patches[i].space.dim
                               for i in failing)
        with pytest.raises(ContractError, match=re.escape(f"(failing patches: {failing})")):
            m.from_nodal_values(space, np.zeros(ns.n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, bad):
        ns, space = halton_r3_space()
        values = np.zeros(ns.n)
        values[[7, 30]] = bad
        with pytest.raises(InvalidInputError, match=rf"^value at node 7 is not finite: {bad}$"):
            m.from_nodal_values(space, values)

    @pytest.mark.parametrize("build", [
        halton_r3_space,
        lambda: five_star_sublist_space(6),
        lambda: every_other_patch(*mixed_tail_rank_space()),
        gauss_tail_space,
        lambda: halton_r3_space_3d(352, 20),
    ], ids=["pum-eval-small", "five-star-mixed", "mixed-tail-rank-full-patches", "gauss-linear-tail", "r3-3d"])
    def test_coefficients_equal_local_interpolate(self, build, rng):
        ns, space = build()
        values = rng.standard_normal(ns.n)
        s = m.from_nodal_values(space, values)
        for patch, c in zip(space.patches, s.patch_coeffs):
            oracle = local_interpolate(patch.space, patch.influence.points, values[patch.influence.indices])
            assert np.array_equal(c, oracle)

    def test_non_square_group_fails_all_its_patches(self):
        ns, space = mixed_tail_rank_space()  # patch 1: dimension 5 on 4 nodes
        with pytest.raises(ContractError, match=re.escape("(failing patches: (1,))")):
            m.from_nodal_values(space, np.ones(ns.n))

    def test_singular_patch_fails_alone_in_its_stacked_group(self, monkeypatch):
        ns, space = five_star_sublist_space(4)
        bottom = np.flatnonzero(ns.points[:, 1] == 0.0)  # five collinear nodes: the y column vanishes
        center = ns.points[bottom[2]]
        infl = m.InfluenceSet(center=center, indices=bottom, points=ns.points[bottom],
                              distances=np.linalg.norm(ns.points[bottom] - center, axis=1))
        recipe = m.poly_patch_recipe(2, sublist=FIVE_STAR_SUBLIST)
        space = hand_made_space(ns, [(p.influence, p.space) for p in space.patches] + [(infl, recipe(infl))])
        solves, solve = [], spline_module.stacked_solve

        def spy(a, b):
            sol, singular = solve(a, b)
            solves.append((len(a), sorted(singular), np.isfinite(sol).all(axis=1)))
            return sol, singular

        monkeypatch.setattr(spline_module, "stacked_solve", spy)
        with pytest.raises(ContractError, match=re.escape(f"(failing patches: ({space.m - 1},))")):
            m.from_nodal_values(space, np.cos(ns.points).sum(axis=1))
        (size, singular, finite), = [entry for entry in solves if entry[1]]
        assert size == 10 and singular == [9]  # nine interior stars fitted beside it
        assert finite.tolist() == [True] * 9 + [False]

    def test_kernel_centers_must_be_the_influence_nodes(self):
        ns, space = kernel_space(0)
        patch = space.patches[0]
        moved = m.KernelSpace(patch.space.kernel, patch.influence.points + 0.01, aug=patch.space.aug,
                              scale=patch.space.scale)
        with pytest.raises(InvalidInputError, match="kernel interpolation expects values at the kernel centers"):
            hand_made_space(ns, [(patch.influence, moved)] + [(p.influence, p.space) for p in space.patches[1:]])

    def test_stacked_evaluation_rejects_moved_kernel_centres(self):
        ns, space = kernel_space(0)
        s = m.from_nodal_values(space, np.zeros(ns.n))
        patch = space.patches[0]
        moved = m.KernelSpace(patch.space.kernel, patch.influence.points + 0.01, aug=patch.space.aug,
                              scale=patch.space.scale)
        with pytest.raises(InvalidInputError, match="kernel interpolation expects values at the kernel centers"):
            stack_spaces(PatchTable.of_pairs([patch.influence], [moved]), [0])
        assert np.array_equal(s.eval_pairs([0], ns.points[:1]), [0.0])

    def test_tail_is_evaluated_at_the_centres_once_per_group(self, monkeypatch):
        ns, space = halton_r3_space()
        calls = []
        monomials = spaces_module.monomial_derivatives
        monkeypatch.setattr(spaces_module, "monomial_derivatives",
                            lambda z, *args: calls.append(z.shape) or monomials(z, *args))
        m.from_nodal_values(space, np.sin(ns.points).sum(axis=1))
        assert calls == [(space.m, 12, 2)]  # one kernel group of 12-node patches

    def test_local_solves_are_the_only_test(self, one_matrix_ranks):
        ns, space = five_star_sublist_space(4)
        m.from_nodal_values(space, np.zeros(ns.n))
        assert one_matrix_ranks == []


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

    def test_matches_node_by_node_oracle(self, rng):
        ns, space = kernel_space(1)
        s = m.from_nodal_values(space, rng.standard_normal(ns.n))
        oracle = [[float(patch_eval(s, i, ns.points[k])) for i in ms]
                  for k, ms in enumerate(membership_lists(space))]
        first = np.array([vals[0] for vals in oracle])
        defect = max(abs(v - vals[0]) / (1.0 + abs(vals[0])) for vals in oracle for v in vals)
        assert np.max(np.abs(m.restriction(s) - first) / (1.0 + np.abs(first))) <= 1e-13
        assert connection_defect(s) == pytest.approx(defect, abs=1e-13)

    def test_non_finite_patch_values_rejected(self):
        ns = m.generate_grid(1, 9, [(0.0, 1.0)])
        space = m.build_space(ns, "all", ("knn", 3), m.poly_patch_recipe(2))
        s = m.from_nodal_values(space, np.sin(ns.points[:, 0]))
        bad = list(s.patch_coeffs)
        bad[4] = np.full_like(bad[4], np.nan)
        broken = m.OverlapSpline(space=space, patch_coeffs=tuple(bad))
        assert not np.isfinite(connection_defect(broken))
        first_node = int(space.patches[4].influence.indices.min())
        with pytest.raises(InconsistentSplineError,
                           match=f"patch 4 is not finite at node {first_node}: nan"):
            m.restriction(broken)

    def test_perturbed_coefficient_reported_through_the_table(self):
        ns, space = halton_r3_space()
        s = m.from_nodal_values(space, np.sin(ns.points).sum(axis=1))
        i = never_first_patch(space)
        bad = [np.copy(c) for c in s.patch_coeffs]
        bad[i][0] += 1e-3
        broken = m.OverlapSpline(space=space, patch_coeffs=tuple(bad))
        k, a, b, v0, v = first_connection_violation(broken)
        assert b == i
        with pytest.raises(InconsistentSplineError,
                           match=rf"^patches {a} and {i} disagree at node {k}: ") as err:
            m.restriction(broken)
        got = re.search(r": (\S+) vs (\S+)$", str(err.value))
        assert float(got[1]) == pytest.approx(v0, rel=1e-12)
        assert float(got[2]) == pytest.approx(v, rel=1e-12)

    @pytest.mark.parametrize("entry", [0, -1], ids=["kernel-coefficient", "tail-coefficient"])
    def test_nan_coefficient_reported_through_the_table(self, entry):
        ns, space = halton_r3_space()
        s = m.from_nodal_values(space, np.sin(ns.points).sum(axis=1))
        i = never_first_patch(space)
        bad = [np.copy(c) for c in s.patch_coeffs]
        bad[i][entry] = np.nan
        broken = m.OverlapSpline(space=space, patch_coeffs=tuple(bad))
        first_node = int(space.patches[i].influence.indices.min())
        with pytest.raises(InconsistentSplineError,
                           match=rf"^patch {i} is not finite at node {first_node}: nan$"):
            m.restriction(broken)
        assert not np.isfinite(connection_defect(broken))


    def test_patches_differing_only_in_tail_rank(self, rng):
        ns, space = mixed_tail_rank_space()
        assert [p.space.dim for p in space.patches] == [4, 5, 4]
        s = m.OverlapSpline(space=space, patch_coeffs=tuple(
            rng.standard_normal(p.space.dim) for p in space.patches))
        node, patch, _ = space.incidence
        oracle = [float(patch_eval(s, i, ns.points[k])) for k, i in zip(node, patch)]
        assert np.allclose(s.eval_pairs(patch, ns.points[node]), oracle, rtol=1e-13, atol=1e-13)
        values = [[float(patch_eval(s, i, ns.points[k])) for i in ms]
                  for k, ms in enumerate(membership_lists(space))]
        defect = max(abs(v - vals[0]) / (1.0 + abs(vals[0])) for vals in values for v in vals)
        assert connection_defect(s) == pytest.approx(defect, abs=1e-13)
        k, a, b, _, _ = first_connection_violation(s)
        with pytest.raises(InconsistentSplineError, match=rf"^patches {a} and {b} disagree at node {k}: "):
            m.restriction(s)

        # a linear function carried by every tail: consistent, so it restricts to its nodal values
        def tail_of(ps, a0=0.5, grad=np.array([2.0, -1.0])):
            c = np.zeros(ps.dim)
            tail = {(0, 0): a0 + grad @ ps.aug.shift, (1, 0): ps.aug.scale * grad[0],
                    (0, 1): ps.aug.scale * grad[1]}
            c[ps.dim - ps.q_dim:] = [tail[e] for e in ps.aug.exponents]
            return c

        linear = m.OverlapSpline(space=space, patch_coeffs=tuple(tail_of(p.space) for p in space.patches))
        expected = 0.5 + ns.points @ np.array([2.0, -1.0])
        assert np.allclose(m.restriction(linear), expected, rtol=1e-13, atol=1e-13)


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
                              m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1))
        row = m.lagrange_row(space, 20, m.LAPLACIAN, space.patches[20].center)
        assert row.residual <= 1e-8

    def test_coincident_kernel_nodes_raise_instead_of_nan_row(self):
        """Nodes 1e-150 apart are distinct nodes but coincident kernel centres: equal Gauss rows, rank 2."""
        pts = np.array([[0.0, 0.0], [1e-150, 0.0], [0.3, 0.1]])
        infl = m.InfluenceSet(center=pts[0], indices=[0, 1, 2],
                              distances=np.linalg.norm(pts, axis=1), points=pts)
        ks = m.KernelSpace(m.Kernel("gauss", 1.0), pts)
        nodes = m.NodeSet(points=pts, boundary_mask=[False] * 3)
        space = hand_made_space(nodes, [(infl, ks)])
        with pytest.raises(m.NotAnInterpolationSetError, match="rank 2, dim 3"):
            m.lagrange_row(space, 0, m.LAPLACIAN, pts[2])

    def test_interpolatory_space_measures_no_patch_rank(self, one_matrix_ranks):
        ns, space = halton_r3_space(60)
        gs = m.assemble(space, m.LAPLACIAN, constant(0.0), m.build_sigma(space, "same-index"), route="lagrange")
        m.lagrange_row(space, -1, m.LAPLACIAN, space.table.influence.centers[-1])
        assert gs.matrix.shape == (ns.n, ns.n)
        assert one_matrix_ranks == []  # no per-patch rank was measured
        assert "patches" not in space.__dict__  # no `Patch` view was built

    def test_negative_index_counts_from_the_end(self):
        ns, space = quadratic_overlap_space_1d(8)
        op = m.SECOND_DERIVATIVE_1D
        last = m.lagrange_row(space, -1, op, ns.points[7])
        assert np.array_equal(last.weights, m.lagrange_row(space, 6, op, ns.points[7]).weights)
        assert np.array_equal(last.influence.indices, space.patches[6].influence.indices)

    @pytest.mark.parametrize("index", [7, -8, 1.5, True, [1], "1"])
    def test_bad_patch_index_raises(self, index):
        ns, space = quadratic_overlap_space_1d(8)  # 7 patches
        with pytest.raises(InvalidInputError, match="patch ind"):
            m.lagrange_row(space, index, m.SECOND_DERIVATIVE_1D, ns.points[4])
        with pytest.raises(InvalidInputError, match="patch ind"):
            patch_eval(m.from_nodal_values(space, np.zeros(ns.n)), index, ns.points[4])

    def test_rejects_non_interpolatory_patch(self):
        ns, space = five_star_full_p2_space(4)
        with pytest.raises(m.NotAnInterpolationSetError):
            m.lagrange_row(space, 0, m.LAPLACIAN, space.patches[0].center)

    def test_failing_patch_error_reads_the_rank_pass(self):
        """The error's fields are the patch's own, taken from the rank pass without a `Patch` view."""
        ns, space = five_star_full_p2_space(4)
        failing = space.failing_patches[0]
        with pytest.raises(m.NotAnInterpolationSetError, match=r"\(rank 5, dim 6, nodes 5\)") as err:
            m.lagrange_row(space, failing, m.LAPLACIAN, space.table.influence.centers[failing])
        assert "patches" not in space.__dict__
        patch = space.patches[failing]
        assert (err.value.rank, err.value.dim, err.value.n_nodes) == (patch.rank, patch.space.dim, patch.influence.size)


R3_TAIL1 = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1)
POISSON = preset("poisson2d")


def criterion_3_space(seed, recipe, k):
    """A space of acceptance criterion 3: `k`-nearest stencils on a 14 x 14 jittered cloud."""
    return m.build_space(jittered_cloud(seed, n_axis=14), "all", ("knn", k), recipe)


def off_node_points(space):
    ns = space.nodes
    inner = ns.interior_indices
    return np.vstack([ns.points[::2], 0.5 * (ns.points[inner[:-1]] + ns.points[inner[1:]])])


LAGRANGE_CASES = {
    **{f"criterion-3-p2-seed-{seed}": (lambda seed=seed: criterion_3_space(seed, m.poly_patch_recipe(2), 6),
                                       POISSON.operator, "same-index") for seed in (0, 1, 2)},
    **{f"criterion-3-r3-seed-{seed}": (lambda seed=seed: criterion_3_space(seed, R3_TAIL1, 9),
                                       POISSON.operator, "same-index") for seed in (0, 1, 2)},
    "halton-r3-3d": (lambda: halton_r3_space_3d()[1], m.LAPLACIAN, "same-index"),
    "gauss-tail": (lambda: gauss_tail_space()[1], POISSON.operator, "same-index"),
    "general-operator": (lambda: criterion_3_space(1, R3_TAIL1, 9), GENERAL_OP, "same-index"),
    "per-set-aggregate": (lambda: criterion_3_space(5, R3_TAIL1, 9), POISSON.operator, "per-set-aggregate"),
    "nearest-node": (lambda: criterion_3_space(3, R3_TAIL1, 9), POISSON.operator, "nearest-node"),
}


class TestLagrangeRoute:
    @pytest.mark.parametrize("case", sorted(LAGRANGE_CASES))
    def test_rows_match_the_scalar_cardinal_oracle(self, case):
        build, op, strategy = LAGRANGE_CASES[case]
        space = build()
        assert space.interpolatory
        points = off_node_points(space) if strategy == "nearest-node" else None
        sigma = m.build_sigma(space, strategy, collocation_points=points)
        gs = m.assemble(space, op, constant(0.0), sigma, route="lagrange")
        free, infl = np.flatnonzero(~gs.dirichlet), space.table.influence
        expected = np.zeros(gs.shape)
        for j in free.tolist():
            p, y = int(sigma.patch[j]), sigma.points[j]
            expected[j, infl[p].indices] = row = cardinal_row(space, p, op, y)
            assert np.max(np.abs(m.lagrange_row(space, p, op, y).weights - row)) <= 1e-10
        assert np.max(np.abs(gs.matrix.toarray()[free] - expected[free])) <= 1e-10

    @pytest.mark.parametrize("build", [
        lambda: criterion_3_space(0, m.poly_patch_recipe(2), 6),
        lambda: five_star_sublist_space(6)[1],
        lambda: quadratic_overlap_space_1d(10)[1],
    ], ids=["p2-jittered", "five-star-sublist", "quadratic-1d"])
    def test_routes_are_bit_equal_on_polynomial_spaces(self, build):
        space = build()
        sigma = m.build_sigma(space, "same-index")
        op = POISSON.operator if space.nodes.d == 2 else m.SECOND_DERIVATIVE_1D
        a, b = (m.assemble(space, op, constant(1.0), sigma, route=r) for r in ("exactness", "lagrange"))
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a.matrix, name), getattr(b.matrix, name))
        assert np.array_equal(a.residual, b.residual)
