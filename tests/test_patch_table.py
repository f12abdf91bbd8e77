"""The patch table: `build_space` builds no per-patch object, and the table equals hand-made patches.

A space built from a recipe holds its patches as arrays (`spaces.PatchTable`);
hand-made (influence set, space) pairs fill the same table through
`PatchTable.of_pairs`, which checks each pairing.  On the small input of every
benchmark workload both give bit-identical systems, solutions, fits and
blends, and the lazily built `space.patches` equal the pairs built one
influence set at a time, with the ranks of the batched rank pass.
"""

import collections
import sys
from pathlib import Path

import numpy as np
import pytest

import meshfd as m
from meshfd.errors import ConstructionError, InvalidInputError
from meshfd.geometry import influences
from meshfd.spaces import PatchTable, Recipe

from helpers import five_star_sublist_space, halton_r3_space, hand_made_space

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from pipeline import PROBLEM, WORKLOADS, make_inputs  # noqa: E402


def one_set_at_a_time(ns, k, recipe):
    """(influence set, space) pairs of a kNN space built as before the table: one query and one recipe call per node."""
    sets = [m.knn(ns, ns.points[i], k, center_index=i) for i in range(ns.n)]
    return [(infl, recipe(infl)) for infl in sets]


def pipeline_outputs(wl, space, inputs) -> list:
    """Every array the workload's pipeline produces on the space."""
    if wl.sigma is not None:
        sigma = m.build_sigma(space, wl.sigma)
        gs = m.assemble(space, PROBLEM.operator, PROBLEM.rhs, sigma, dirichlet_data=PROBLEM.dirichlet)
        solution = (m.solve_least_squares if wl.least_squares else m.solve_square)(gs)
        a = gs.matrix
        return [a.data, a.indices, a.indptr, gs.rhs, gs.residual,
                solution.nodal_values]
    s = m.from_nodal_values(space, inputs.nodal_values)
    pou = m.PartitionOfUnity.for_space(space)
    return [np.concatenate(s.patch_coeffs), m.restriction(s), pou.radii, pou.evaluate(s, inputs.eval_points),
            [m.blend(s, pou, x) for x in inputs.eval_points]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_hand_made_patches_give_identical_outputs(name):
    wl = WORKLOADS[name].small()
    inputs = make_inputs(wl, 7, permute=True)
    base = wl.nodes()
    ns = m.NodeSet(base.points[inputs.order], base.boundary_mask[inputs.order])
    table_built = m.build_space(ns, "all", ("knn", wl.k), wl.recipe())
    hand_made = hand_made_space(ns, one_set_at_a_time(ns, wl.k, wl.recipe()))
    for got, expected in zip(pipeline_outputs(wl, table_built, inputs), pipeline_outputs(wl, hand_made, inputs)):
        assert np.array_equal(got, expected)
    assert table_built.failing_patches == hand_made.failing_patches


def assert_same_patches(got, expected):
    """The views ``got`` hold the (influence set, space) pairs ``expected``."""
    assert len(got) == len(expected)
    for p, (influence, space) in zip(got, expected):
        for field in ("indices", "distances", "points", "center", "center_index"):
            assert np.array_equal(getattr(p.influence, field), getattr(influence, field), equal_nan=False)
        assert type(p.space) is type(space)
        polys = [(p.space, space)]
        if isinstance(p.space, m.KernelSpace):
            assert p.space.kernel == space.kernel and p.space.scale == space.scale
            assert np.array_equal(p.space.centers, space.centers)
            assert (p.space.aug is None) == (space.aug is None)
            polys = [(p.space.aug, space.aug)] if p.space.aug is not None else []
        for a, b in polys:
            assert (a.d, a.degree, a.scale, a.exponents) == (b.d, b.degree, b.scale, b.exponents)
            assert np.array_equal(a.shift, b.shift)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_patch_views_equal_one_set_at_a_time_patches(name, one_matrix_ranks):
    """The views hold the one-set-at-a-time pairs; their ranks are the rank pass's, read on first use.

    Building the views runs no rank pass, reading their ranks no per-patch SVD,
    and the per-patch oracle `unisolvency_rank` agrees with every one of them.
    """
    wl = WORKLOADS[name].small()
    ns = wl.nodes()
    space = m.build_space(ns, "all", ("knn", wl.k), wl.recipe())
    assert_same_patches(space.patches, one_set_at_a_time(ns, wl.k, wl.recipe()))
    assert "_ranks" not in space.__dict__
    ranks = [p.rank for p in space.patches]
    assert one_matrix_ranks == []
    assert ranks == space._ranks[0].tolist()
    assert [p.unisolvent for p in space.patches] == [r == p.space.dim for r, p in zip(ranks, space.patches)]
    assert [m.unisolvency_rank(p.space, p.influence.points)[0] for p in space.patches] == ranks
    assert len(one_matrix_ranks) == space.m  # the oracle's one SVD per patch is seen


def test_constant_patch_views_are_the_constant_spaces():
    ns, space = five_star_sublist_space(4)
    corners = np.flatnonzero([p.space.dim == 1 for p in space.patches])
    expected = []
    for j in (space.patches[i].center_node for i in corners):
        infl = m.knn(ns, ns.points[j], 1, center_index=j)
        expected.append((infl, m.PolySpace.full(ns.d, 0, shift=infl.center, scale=1.0)))
    assert_same_patches([space.patches[i] for i in corners], expected)
    assert corners.tolist() == list(range(space.m - 4, space.m))


@pytest.fixture
def constructions(monkeypatch):
    """Counts of `Patch`, `InfluenceSet`, `PolySpace` and `KernelSpace` constructions and recipe calls."""
    counts = collections.Counter()

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[cls.__name__] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (m.Patch, m.InfluenceSet, m.PolySpace, m.KernelSpace):
        counting(cls, "__init__")
    counting(Recipe, "__call__")
    return counts


def test_solve_pipelines_build_no_patch_object(constructions):
    grid = m.generate_grid(2, 9, [(0.0, 1.0), (0.0, 1.0)])
    ns, _ = halton_r3_space()
    cases = [(m.build_space(grid, "all", ("knn", 5), WORKLOADS["fivepoint-grid"].recipe()), ["same-index"]),
             (five_star_sublist_space(8)[1], ["same-index"]),  # with constant patches on the corners
             (m.build_space(ns, "all", ("knn", 12), WORKLOADS["rbf-collocate"].recipe()),
              ["same-index", "per-set-aggregate"])]
    for space, strategies in cases:
        for strategy in strategies:
            sigma = m.build_sigma(space, strategy)
            gs = m.assemble(space, PROBLEM.operator, PROBLEM.rhs, sigma, dirichlet_data=PROBLEM.dirichlet)
            (m.solve_square if gs.shape[0] == gs.shape[1] else m.solve_least_squares)(gs)
    assert constructions == {}
    assert space.patches[0].space.dim == 12  # the views, built on request
    assert constructions == {"Patch": space.m, "InfluenceSet": space.m, "KernelSpace": space.m,
                             "PolySpace": space.m, "Recipe": space.m}


def test_spline_pipeline_builds_no_patch_object(constructions, rng):
    ns, space = halton_r3_space()
    s = m.from_nodal_values(space, np.sin(ns.points).sum(axis=1))
    m.restriction(s)
    pou = m.PartitionOfUnity.for_space(space)
    points = rng.random((20, 2))
    assert np.array_equal(pou.evaluate(s, points), [m.blend(s, pou, x) for x in points])
    assert constructions == {}


def test_empty_influence_sets():
    ns = m.generate_grid(2, 5, [(0.0, 1.0), (0.0, 1.0)])
    far = influences(ns, np.array([[5.0, 5.0]]), ("range", 0.1))
    assert far.sizes.tolist() == [0] and far.radii.tolist() == [0.0]
    table = influences(ns, np.array([[5.0, 5.0], [0.5, 0.5]]), ("range", 0.3))
    assert table.sizes.tolist() == [0, 5] and table.radii.tolist() == [0.0, 0.25]
    with pytest.raises(InvalidInputError, match="a kernel space needs at least one center"):
        PatchTable.of_recipes([(table, m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1))])
    with pytest.raises(ConstructionError, match=r"yields no influence nodes around \[5.0, 5.0\]"):
        m.build_space(ns, np.array([[0.5, 0.5], [5.0, 5.0]]), ("range", 0.3), m.poly_patch_recipe(1))
