"""Rows as arrays: the sigma map's picks, the directly built CSR system and the engine's flat output.

Every reference here is built row by row, as the library did before its rows
became arrays: the same-index fallback by the brute-force ``(distance, patch
index)`` rule over each node's patches, and the global system from (row,
column, value) triplets of one-row weight calls.
"""

import numpy as np
import pytest
import scipy.sparse

import meshfd as m
from meshfd.errors import InvalidInputError, UnsolvableExactnessError
from meshfd.ndf import exactness_rows
from meshfd.problems import preset
from meshfd.solve import SigmaPair

from helpers import constant, jittered_cloud, quadratic_overlap_space_1d

R3_TAIL1 = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=1)
POISSON = preset("poisson2d")


def brute_force_same_index(space):
    """Each node's first centred patch, else ``min(members, key=(distance, index))`` over its patches."""
    picks = []
    for j, y in enumerate(space.nodes.points):
        centred = [i for i, p in enumerate(space.patches) if p.center_node == j]
        members = [i for i, p in enumerate(space.patches) if j in p.influence.indices.tolist()]
        picks.append(centred[0] if centred else
                     min(members, key=lambda i: (float(np.linalg.norm(y - space.patches[i].center)), i)))
    return picks


def brute_force_nearest_node(space, points):
    """The r-th repeat of a point takes the r-th centre by (exact distance, patch index) over all centres."""
    centers, picks, repeats = space.table.influence.centers, [], {}
    for y in np.asarray(points, dtype=float):
        rank = repeats[(y + 0.0).tobytes()] = repeats.get((y + 0.0).tobytes(), -1) + 1
        picks.append(int(np.lexsort((np.arange(len(centers)), np.linalg.norm(centers - y, axis=1)))[rank]))
    return picks


def cell_centred_space():
    """A 5 x 5 grid with patches at the 16 cell centres: no node is a centre, and every node is tied."""
    ns = m.generate_grid(2, 5, [(0.0, 1.0), (0.0, 1.0)])
    cells = (np.stack(np.meshgrid(np.arange(4), np.arange(4), indexing="ij"), axis=-1).reshape(-1, 2) + 0.5) / 4
    return m.build_space(ns, cells, ("knn", 6), m.poly_patch_recipe(1))


class TestSameIndexFallback:
    def test_1d_endpoint_redirection(self):
        ns, space = quadratic_overlap_space_1d(7)
        sigma = m.build_sigma(space, "same-index")
        assert sigma.patch.tolist() == brute_force_same_index(space)
        assert sigma.patch[[0, -1]].tolist() == [0, space.m - 1]

    def test_off_node_centres_with_exact_ties(self):
        space = cell_centred_space()
        assert np.all(space.table.influence.center_index < 0)  # every node takes the fallback
        y, centers = space.nodes.points[6], space.table.influence.centers  # node (0.25, 0.25)
        node_of, patch_of, _ = space.incidence
        dist = [float(np.linalg.norm(y - centers[i])) for i in patch_of[node_of == 6]]
        assert len(dist) >= 2 and len(set(dist)) < len(dist)  # an exact distance tie
        sigma = m.build_sigma(space, "same-index")
        assert sigma.patch.tolist() == brute_force_same_index(space)
        assert sigma.node.tolist() == list(range(space.nodes.n))

    def test_scattered_off_node_centres(self):
        ns = jittered_cloud(4, n_axis=8)
        centers = np.random.default_rng(4).random((40, 2))
        space = m.build_space(ns, centers, ("knn", 9), m.poly_patch_recipe(1), uncovered="constant-patch")
        assert m.build_sigma(space, "same-index").patch.tolist() == brute_force_same_index(space)


class TestNearestNode:
    def test_negative_zero_is_the_same_point(self):
        ns = m.generate_grid(1, 9, [(-1.0, 1.0)])
        space = m.build_space(ns, "all", ("knn", 3), m.poly_patch_recipe(2))
        sigma = m.build_sigma(space, "nearest-node", collocation_points=[[0.0], [-0.0], [0.0]])
        assert sigma.patch.tolist() == [4, 3, 5]
        assert sigma.node.tolist() == [4, 4, 4]
        assert np.signbit(sigma.points[1, 0])  # the point itself is kept as given

    def test_picks_equal_the_brute_force_rule(self):
        space = cell_centred_space()  # every node and cell edge midpoint is equidistant from 2-4 centres
        ties = np.vstack([space.nodes.points, [[0.25, 0.5], [0.5, 0.125]]])
        cloud = m.build_space(jittered_cloud(6, n_axis=12), "all", ("knn", 6), m.poly_patch_recipe(1))
        rng = np.random.default_rng(6)
        scattered = np.vstack([rng.random((200, 2)), cloud.nodes.points[::7], [[0.0, 0.5], [-0.0, 0.5]]])
        for sp, points in ((space, ties), (cloud, scattered)):
            points = np.vstack([points, np.tile(points[3], (5, 1)), points[::4]])  # repeats, interleaved
            picks = m.build_sigma(sp, "nearest-node", collocation_points=points).patch.tolist()
            assert picks == brute_force_nearest_node(sp, points)

    def test_more_repeats_than_patches_rejected(self):
        space = cell_centred_space()
        points = np.vstack([[[0.1, 0.1]], np.tile([0.5, 0.5], (17, 1))])
        assert m.build_sigma(space, "nearest-node", collocation_points=points[:17]).patch.tolist() == \
            brute_force_nearest_node(space, points[:17])
        with pytest.raises(m.ConfigError, match=r"point \[0.5, 0.5\] repeats more often than there are patches"):
            m.build_sigma(space, "nearest-node", collocation_points=points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected(self, bad):
        ns = m.generate_grid(1, 9, [(-1.0, 1.0)])
        space = m.build_space(ns, "all", ("knn", 3), m.poly_patch_recipe(2))
        with pytest.raises(InvalidInputError, match="collocation point 0 is not finite"):
            m.build_sigma(space, "nearest-node", collocation_points=[[bad], [0.1]])

    def test_nodes_of_one_batched_query_equal_one_query_per_point(self):
        ns = jittered_cloud(2, n_axis=7)
        space = m.build_space(ns, "all", ("knn", 6), m.poly_patch_recipe(2))
        points = np.vstack([ns.points[::3], 0.5 * (ns.points[1:20:4] + ns.points[2:21:4])])
        sigma = m.build_sigma(space, "nearest-node", collocation_points=points)
        tol = 1e-12 * max(1.0, ns.diameter)
        for y, node in zip(points, sigma.node.tolist()):
            dist, idx = ns.tree.query(y)
            assert node == (int(idx) if dist <= tol else -1)
        assert (sigma.node < 0).sum() == 5
        assert [pair.node for pair in sigma.pairs][-5:] == [None] * 5


def one_row(space, op, pair, route):
    patch = space.patches[pair.patch]
    if route == "lagrange":
        return m.lagrange_row(space, pair.patch, op, pair.point)
    weights = m.weights_kernel if isinstance(patch.space, m.KernelSpace) else m.weights_poly
    return weights(op, pair.point, patch.influence, patch.space)


def coo_reference(space, op, f, sigma, route="exactness", dirichlet_data=None):
    """(data, indices, indptr, rhs, residual, dirichlet) of the system built from triplets, row by row."""
    rows, cols, vals, rhs, residual, dirichlet = [], [], [], [], [], []
    for j, pair in enumerate(sigma.pairs):
        unit = bool(op.identity_on_boundary and pair.node is not None and space.nodes.boundary_mask[pair.node])
        if unit:
            cols.append([pair.node])
            vals.append([1.0])
            rhs.append(float((dirichlet_data or f)(pair.point)))
            residual.append(0.0)
        else:
            sw = one_row(space, op, pair, route)
            cols.append(space.patches[pair.patch].influence.indices)
            vals.append(sw.weights)
            rhs.append(float(f(pair.point)))
            residual.append(sw.residual)
        rows.append(np.full(len(cols[-1]), j))
        dirichlet.append(unit)
    a = scipy.sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                                shape=(sigma.size, space.nodes.n))
    a.sort_indices()
    return a.data, a.indices, a.indptr, np.array(rhs), np.array(residual), np.array(dirichlet)


def constant_patch_space():
    ns = m.generate_scattered(2, 60, [(0.0, 1.0), (0.0, 1.0)], source="halton")
    return m.build_space(ns, ns.interior_indices[::2], ("knn", 9), R3_TAIL1, uncovered="constant-patch")


def off_node_points(space):
    ns = space.nodes
    return np.vstack([ns.points[::2], 0.5 * (ns.points[ns.interior_indices[:-1]] + ns.points[ns.interior_indices[1:]])])


CASES = {
    "same-index-constant-patches": (constant_patch_space, "same-index", None, "exactness"),
    "nearest-node-off-node": (lambda: m.build_space(jittered_cloud(3, n_axis=8), "all", ("knn", 9), R3_TAIL1),
                              "nearest-node", off_node_points, "exactness"),
    "per-set-aggregate": (lambda: m.build_space(jittered_cloud(5, n_axis=7), "all", ("knn", 9), R3_TAIL1),
                          "per-set-aggregate", None, "exactness"),
    "lagrange": (lambda: m.build_space(jittered_cloud(1, n_axis=8), "all", ("knn", 9), R3_TAIL1),
                 "same-index", None, "lagrange"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csr_equals_a_triplet_reference(case):
    build, strategy, points, route = CASES[case]
    space = build()
    sigma = m.build_sigma(space, strategy, collocation_points=None if points is None else points(space))
    gs = m.assemble(space, POISSON.operator, POISSON.rhs, sigma, route=route, dirichlet_data=POISSON.dirichlet)
    expected = coo_reference(space, POISSON.operator, POISSON.rhs, sigma, route, POISSON.dirichlet)
    got = (gs.matrix.data, gs.matrix.indices, gs.matrix.indptr, gs.rhs, gs.residual, gs.dirichlet)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert gs.dirichlet.any() and not gs.dirichlet.all()
    assert gs.worst_row_residual == max(expected[4].tolist())
    if case == "same-index-constant-patches":
        sizes = space.table.influence.sizes[sigma.patch]
        assert np.any((sizes == 1) & ~gs.dirichlet)  # a free row on a one-node constant patch
    if case == "nearest-node-off-node":
        assert np.any(sigma.node < 0)


def test_building_and_assembling_makes_no_sigma_pair(monkeypatch):
    made, init = [], SigmaPair.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SigmaPair, "__init__", counting)
    space = m.build_space(jittered_cloud(3, n_axis=6), "all", ("knn", 9), R3_TAIL1)
    for strategy, route in (("same-index", "exactness"), ("same-index", "lagrange"),
                            ("nearest-node", "exactness"), ("per-set-aggregate", "exactness")):
        points = off_node_points(space) if strategy == "nearest-node" else None
        sigma = m.build_sigma(space, strategy, collocation_points=points)
        m.assemble(space, POISSON.operator, POISSON.rhs, sigma, route=route, dirichlet_data=POISSON.dirichlet)
        assert made == []
    assert len(sigma.pairs) == sigma.size and len(made) == sigma.size  # the views are built on access


class TestFlatEngineOutput:
    def test_failed_row_is_nan_and_reported_by_row(self):
        rng = np.random.default_rng(5)
        line = np.column_stack([np.linspace(0.0, 0.7, 8), np.full(8, 10.0)])
        pts = np.vstack([rng.random((20, 2)), line, rng.random((20, 2))])
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(len(pts), dtype=bool))
        space = m.build_space(ns, "all", ("knn", 6), R3_TAIL1)
        weights, residual, errors = exactness_rows(m.LAPLACIAN, pts, space.table, np.arange(ns.n))
        assert weights.shape == (space.table.influence.indices.size,) and residual.shape == (ns.n,)
        assert 20 in errors and all(isinstance(e, UnsolvableExactnessError) for e in errors.values())
        offsets = space.table.influence.offsets
        for r in range(ns.n):
            w = weights[offsets[r]:offsets[r + 1]]
            if r in errors:
                assert np.all(np.isnan(w)) and np.isnan(residual[r])
            else:
                sw = m.weights_kernel(m.LAPLACIAN, pts[r], space.patches[r].influence, space.patches[r].space)
                assert np.array_equal(w, sw.weights) and residual[r] == sw.residual

    @pytest.mark.parametrize("chunk_rows", [1, 7, 256])
    def test_chunk_wide_error_is_retried_row_by_row(self, monkeypatch, chunk_rows):
        """A point on a kernel centre fails the stacked r^1.5 Laplacian of its whole chunk; the retry confines it."""
        ns = jittered_cloud(3, n_axis=8)
        space = m.build_space(ns, "all", ("knn", 12),
                              m.kernel_patch_recipe(m.Kernel("polyharmonic", 1.5), augmentation_degree=2))
        points = np.random.default_rng(8).uniform(0.1, 0.9, (40, 2))
        points[[9, 30]] = ns.points[ns.interior_indices[[4, 20]]]
        sigma = m.build_sigma(space, "nearest-node", collocation_points=points)
        monkeypatch.setattr(m.ndf, "CHUNK_ROWS", chunk_rows)
        weights, residual, errors = exactness_rows(m.LAPLACIAN, sigma.points, space.table, sigma.patch)
        assert sorted(errors) == [9, 30]
        assert all("second derivative of r^1.5 is undefined at a kernel center" in str(e) for e in errors.values())
        start = np.cumsum(np.concatenate([[0], space.table.influence.sizes[sigma.patch]]))
        for r, (y, p) in enumerate(zip(sigma.points, sigma.patch.tolist())):
            w = weights[start[r]:start[r + 1]]
            if r in errors:
                assert np.all(np.isnan(w)) and np.isnan(residual[r])
            else:
                sw = m.weights_kernel(m.LAPLACIAN, y, space.patches[p].influence, space.patches[p].space)
                assert np.array_equal(w, sw.weights) and residual[r] == sw.residual
        with pytest.raises(m.AssemblyError, match="second derivative of r\\^1.5") as err:
            m.assemble(space, m.LAPLACIAN, constant(0.0), sigma)
        assert (err.value.row, err.value.patch) == (9, sigma.patch[9])
        assert str(err.value).startswith(f"row 9 (patch {sigma.patch[9]}, point {points[9].tolist()}): ")

    @pytest.mark.parametrize("points", [np.zeros((3, 3)), np.zeros((2, 2)), np.zeros(6)])
    def test_points_must_be_one_row_per_patch(self, points):
        space = m.build_space(jittered_cloud(3, n_axis=5), "all", ("knn", 9), R3_TAIL1)
        with pytest.raises(InvalidInputError, match="one \\(2,\\) row per patch index"):
            exactness_rows(m.LAPLACIAN, points, space.table, [0, 1, 2])

    def test_unknown_route_rejected(self):
        space = m.build_space(jittered_cloud(3, n_axis=5), "all", ("knn", 9), R3_TAIL1)
        with pytest.raises(m.ConfigError, match="^unknown route 'cardinal'$"):
            exactness_rows(m.LAPLACIAN, np.zeros((3, 2)), space.table, [0, 1, 2], route="cardinal")
