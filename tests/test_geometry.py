import numpy as np
import pytest
from hypothesis import given, strategies as st

import meshfd as m
import meshfd.geometry as geometry_module
from meshfd.errors import ConstructionError, InvalidInputError

from helpers import brute_force_knn, brute_force_range


class TestGenerateGrid:
    def test_1d_five_nodes(self):
        ns = m.generate_grid(1, 5, [(0.0, 1.0)])
        assert np.array_equal(ns.points.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(ns.boundary_mask, [True, False, False, False, True])

    def test_2d_tensor_layout(self):
        n = 5
        ns = m.generate_grid(2, n, [(0.0, 1.0), (0.0, 1.0)])
        h = 1.0 / (n - 1)
        for i in range(n):
            for j in range(n):
                assert np.array_equal(ns.points[i * n + j], [i * h, j * h])

    def test_2d_two_per_axis_all_corners(self):
        ns = m.generate_grid(2, 2, [(0.0, 1.0), (0.0, 1.0)])
        assert ns.n == 4
        assert ns.boundary_mask.all()

    def test_boundary_marks_box_faces_only(self):
        ns = m.generate_grid(2, 4, [(0.0, 3.0), (-1.0, 1.0)])
        on_face = (
            (ns.points[:, 0] == 0.0) | (ns.points[:, 0] == 3.0)
            | (ns.points[:, 1] == -1.0) | (ns.points[:, 1] == 1.0)
        )
        assert np.array_equal(ns.boundary_mask, on_face)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            m.generate_grid(0, 4, [])
        with pytest.raises(InvalidInputError):
            m.generate_grid(1, 1, [(0.0, 1.0)])
        with pytest.raises(InvalidInputError):
            m.generate_grid(1, 4, [(1.0, 1.0)])
        with pytest.raises(InvalidInputError, match=r"^n_per_axis must be an integer, got 9\.7$"):
            m.generate_grid(2, 9.7, [(0.0, 1.0), (0.0, 1.0)])


class TestGenerateScattered:
    def test_seeded_random_reproducible(self):
        a = m.generate_scattered(2, 1, [(0, 1), (0, 1)], source="random", seed=7)
        b = m.generate_scattered(2, 1, [(0, 1), (0, 1)], source="random", seed=7)
        assert np.array_equal(a.points, b.points)
        assert not a.boundary_mask[0]

    def test_halton_distinct_all_pairs(self):
        ns = m.generate_scattered(2, 100, [(0, 1), (0, 1)], source="halton")
        diff = ns.points[:, None, :] - ns.points[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 0.0
        assert int((~ns.boundary_mask).sum()) == 100
        assert int(ns.boundary_mask.sum()) > 0

    def test_identical_calls_identical_nodes(self):
        a = m.generate_scattered(2, 50, [(0, 1), (0, 1)], source="halton")
        b = m.generate_scattered(2, 50, [(0, 1), (0, 1)], source="halton")
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.boundary_mask, b.boundary_mask)

    def test_boundary_nodes_on_faces(self):
        ns = m.generate_scattered(2, 30, [(0, 1), (0, 1)], source="random", seed=3)
        for p in ns.points[ns.boundary_mask]:
            assert p.min() == 0.0 or p.max() == 1.0

    def test_count_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            m.generate_scattered(2, 0, [(0, 1), (0, 1)])

    def test_sizes_must_be_integers(self):
        with pytest.raises(InvalidInputError, match=r"^count must be an integer, got '30'$"):
            m.generate_scattered(2, "30", [(0, 1), (0, 1)])
        with pytest.raises(InvalidInputError, match=r"^boundary_per_side must be an integer, got 4\.5$"):
            m.generate_scattered(2, 30, [(0, 1), (0, 1)], boundary_per_side=4.5)

    def test_unknown_source_rejected(self):
        with pytest.raises(InvalidInputError):
            m.generate_scattered(2, 5, [(0, 1), (0, 1)], source="sobolish")

    @pytest.mark.parametrize("per_side", [0, 1, -3])
    def test_boundary_needs_two_nodes_per_side(self, per_side):
        with pytest.raises(InvalidInputError, match=r"^boundary_per_side must be at least 2$"):
            m.generate_scattered(2, 30, [(0, 1), (0, 1)], boundary_per_side=per_side)


class TestKnn:
    def test_1d_symmetric_neighbors(self):
        ns = m.generate_grid(1, 5, [(0.0, 1.0)])
        infl = m.knn(ns, [0.5], 3)
        assert set(infl.indices.tolist()) == {1, 2, 3}
        assert infl.indices[0] == 2  # the center node comes first

    def test_2d_five_star(self):
        n = 5
        ns = m.generate_grid(2, n, [(0.0, 1.0), (0.0, 1.0)])
        center = np.array([0.5, 0.5])
        infl = m.knn(ns, center, 5)
        idx = {tuple(ns.points[i]) for i in infl.indices}
        assert idx == {(0.5, 0.5), (0.25, 0.5), (0.75, 0.5), (0.5, 0.25), (0.5, 0.75)}

    def test_tie_broken_by_lower_index(self):
        ns = m.NodeSet(points=np.array([[0.0], [2.0]]), boundary_mask=[False, False])
        infl = m.knn(ns, [1.0], 1)
        assert infl.indices.tolist() == [0]

    def test_k_out_of_range(self):
        ns = m.generate_grid(1, 5, [(0.0, 1.0)])
        with pytest.raises(InvalidInputError):
            m.knn(ns, [0.5], 6)
        with pytest.raises(InvalidInputError):
            m.knn(ns, [0.5], 0)

    @given(
        n=st.integers(min_value=2, max_value=500),
        k=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_oracle_equivalence_random_clouds(self, n, k, seed):
        k = min(k, n)
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(n, dtype=bool))
        center = rng.random(2)
        infl = m.knn(ns, center, k)
        idx, dist = brute_force_knn(pts, center, k)
        assert np.array_equal(infl.indices, idx)
        assert np.allclose(infl.distances, dist, rtol=0, atol=0)


class TestRangeSearch:
    def test_five_star_radius(self):
        n = 5
        ns = m.generate_grid(2, n, [(0.0, 1.0), (0.0, 1.0)])
        h = 0.25
        infl = m.range_search(ns, [0.5, 0.5], h + 0.2 * h)
        assert infl.size == 5
        assert infl.radius == h

    def test_small_radius_empty(self):
        ns = m.generate_grid(2, 5, [(0.0, 1.0), (0.0, 1.0)])
        infl = m.range_search(ns, [0.51, 0.37], 1e-4)
        assert infl.size == 0
        assert infl.radius == 0.0

    def test_radius_beyond_diameter_returns_all(self):
        ns = m.generate_grid(2, 5, [(0.0, 1.0), (0.0, 1.0)])
        infl = m.range_search(ns, [0.5, 0.5], 10.0)
        assert infl.size == ns.n

    def test_nonpositive_radius_rejected(self):
        ns = m.generate_grid(1, 5, [(0.0, 1.0)])
        with pytest.raises(InvalidInputError):
            m.range_search(ns, [0.5], 0.0)

    @given(
        n=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=10_000),
        radius=st.floats(min_value=1e-3, max_value=2.0),
    )
    def test_oracle_equivalence(self, n, seed, radius):
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 2))
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(n, dtype=bool))
        center = rng.random(2)
        infl = m.range_search(ns, center, radius)
        idx, _ = brute_force_range(pts, center, radius)
        assert np.array_equal(infl.indices, idx)


def lattice_clouds():
    """Clouds whose distances tie everywhere: 1D grid, 2D grid, Halton + boundary layer."""
    return {
        "grid1d": m.generate_grid(1, 17, [(0.0, 1.0)]),
        "grid2d": m.generate_grid(2, 9, [(0.0, 1.0), (0.0, 1.0)]),
        "halton": m.generate_scattered(2, 48, [(0.0, 1.0), (0.0, 1.0)], boundary_per_side=7),
    }


def query_centers(ns, kind):
    """Every node, every cell midpoint of consecutive nodes, or seeded raw points."""
    if kind == "nodes":
        return np.arange(ns.n)
    if kind == "midpoints":
        mids = 0.5 * (ns.points[:-1] + ns.points[1:])
        if ns.d == 1:
            return mids
        axis = (np.arange(8) + 0.5) / 8.0  # centers of the 2D grid's cells
        cells = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        return np.vstack([mids, cells])
    return np.random.default_rng(5).random((40, ns.d))


class TestBatchedInfluences:
    """Every influence set of `build_space` equals the brute-force oracle bit for bit."""

    @pytest.mark.parametrize("cloud", ["grid1d", "grid2d", "halton"])
    @pytest.mark.parametrize("where", ["nodes", "midpoints", "raw"])
    def test_knn_sets_match_oracle(self, cloud, where):
        ns = lattice_clouds()[cloud]
        centers = query_centers(ns, where)
        for k in (1, 2, 3, 5, 9, ns.n):
            space = m.build_space(ns, centers, ("knn", k), m.poly_patch_recipe(0),
                                  uncovered="constant-patch")
            points = ns.points[centers] if where == "nodes" else centers
            for patch, center in zip(space.patches, points):
                idx, dist = brute_force_knn(ns.points, center, k)
                assert np.array_equal(patch.influence.indices, idx)
                assert np.array_equal(patch.influence.distances, dist)

    @pytest.mark.parametrize("cloud", ["grid1d", "grid2d", "halton"])
    @pytest.mark.parametrize("where", ["nodes", "midpoints", "raw"])
    def test_range_sets_match_oracle(self, cloud, where):
        ns = lattice_clouds()[cloud]
        centers = query_centers(ns, where)
        points = ns.points[centers] if where == "nodes" else centers
        h = 1.0 / 8.0
        for radius in (h, 1.5 * h, np.sqrt(2.0) * h, 0.5):
            nonempty = [i for i, c in enumerate(points)
                        if brute_force_range(ns.points, c, radius)[0].size]
            sel = centers[nonempty]
            space = m.build_space(ns, sel, ("range", radius), m.poly_patch_recipe(0),
                                  uncovered="constant-patch")
            for patch, center in zip(space.patches, points[nonempty]):
                idx, dist = brute_force_range(ns.points, center, radius)
                assert np.array_equal(patch.influence.indices, idx)
                assert np.array_equal(patch.influence.distances, dist)

    def test_tied_kth_neighbor_is_exercised(self):
        # on the 2D grid the (k+1)-th neighbor ties the k-th for these k at most nodes
        ns = lattice_clouds()["grid2d"]
        for k in (2, 3):
            space = m.build_space(ns, "all", ("knn", k), m.poly_patch_recipe(0))
            tied = 0
            for patch in space.patches:
                idx, dist = brute_force_knn(ns.points, patch.center, k + 1)
                tied += dist[k] == dist[k - 1]
                assert np.array_equal(patch.influence.indices, idx[:k])
                assert np.array_equal(patch.influence.distances, dist[:k])
            assert tied >= ns.n // 2

    def test_one_center_calls_equal_batched_sets(self):
        ns = lattice_clouds()["halton"]
        space = m.build_space(ns, "all", ("knn", 7), m.poly_patch_recipe(0))
        for patch in space.patches:
            one = m.knn(ns, patch.center, 7, center_index=patch.center_node)
            assert np.array_equal(one.indices, patch.influence.indices)
            assert np.array_equal(one.distances, patch.influence.distances)
            assert one.center_index == patch.center_node


def relabelled_grid(n_per_axis, seed):
    """A 2D grid of the unit square with its nodes in a seeded order."""
    ns = m.generate_grid(2, n_per_axis, [(0.0, 1.0), (0.0, 1.0)])
    order = np.random.default_rng(seed).permutation(ns.n)
    return m.NodeSet(points=ns.points[order], boundary_mask=ns.boundary_mask[order])


class TestRowOrdering:
    """Rows grouped by centre and sorted one at a time equal the brute-force order."""

    @pytest.mark.parametrize("n_per_axis", [9, 17])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_relabelled_grids_match_oracle(self, n_per_axis, seed):
        ns = relabelled_grid(n_per_axis, seed)
        h = 1.0 / (n_per_axis - 1)
        for kind, value in (("knn", 5), ("knn", 9), ("range", h), ("range", 1.5 * h), ("range", 2.0 * h)):
            table = geometry_module.influences(ns, None, (kind, value), np.arange(ns.n))
            tied = 0
            for i, center in enumerate(ns.points):
                if kind == "knn":
                    idx, dist = brute_force_knn(ns.points, center, value + 1)
                    tied += dist[value] == dist[value - 1]
                    idx, dist = idx[:value], dist[:value]
                else:
                    idx, dist = brute_force_range(ns.points, center, value)
                assert np.array_equal(table[i].indices, idx)
                assert np.array_equal(table[i].distances, dist)
            assert kind == "range" or tied > 0  # a (k+1)-th neighbour ties the k-th: the ball re-query runs

    def test_one_ball_holds_every_node(self):
        ns = relabelled_grid(9, 2)
        centers = np.array([[0.5, 0.5], [1.5, 1.5], [1.74, 0.5625], [-0.5, -0.5], [0.5625, 1.74]])
        table = geometry_module.influences(ns, centers, ("range", 0.75))
        assert table.sizes.tolist() == [81, 1, 2, 1, 2]
        for i, center in enumerate(centers):
            idx, dist = brute_force_range(ns.points, center, 0.75)
            assert np.array_equal(table[i].indices, idx)
            assert np.array_equal(table[i].distances, dist)

    def test_ranked_nearest_matches_oracle(self):
        grid = m.generate_grid(2, 4, [(0.0, 1.0), (0.0, 1.0)]).points
        cloud = np.vstack([grid, grid[[5, 5, 10, 0]]])  # coincident points: distance ties at 0
        rng = np.random.default_rng(3)
        points = np.vstack([grid, 0.5 * (grid[:-1] + grid[1:]), rng.random((20, 2))])
        ranks = [np.full(len(points), r) for r in range(4)] + [rng.integers(0, 4, len(points))]
        for rank in ranks:
            want = [brute_force_knn(cloud, y, r + 1)[0][r] for y, r in zip(points, rank.tolist())]
            assert geometry_module.ranked_nearest(cloud, points, rank).tolist() == want
        _, dist = brute_force_knn(cloud, grid[5], 4)
        assert dist.tolist() == [0.0, 0.0, 0.0, dist[3]]  # three coincident points, ranked by index


class TestDistance:
    """`geometry._distance` has the bits of `np.linalg.norm`, which is why every caller may share it."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_clouds(self, d):
        rng = np.random.default_rng(d)
        cloud = rng.standard_normal((300, d)) * 10.0 ** rng.integers(-6, 6, (300, d))
        diff = cloud[:, None, :] - cloud[None, :40, :]
        for x in (diff, np.swapaxes(np.swapaxes(diff, 0, 2).copy(), 0, 2)):  # contiguous and strided axes
            assert np.array_equal(geometry_module._distance(x), np.linalg.norm(x, axis=-1))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tie_heavy_grids(self, d):
        grid = m.generate_grid(d, {1: 40, 2: 9, 3: 5}[d], [(-0.3, 0.7)] * d).points
        diff = grid[:, None, :] - grid[None, :, :]
        dist = geometry_module._distance(diff)
        assert np.array_equal(dist, np.linalg.norm(diff, axis=-1))
        assert np.array_equal(dist, dist.T) and np.unique(dist).size < dist.size // 10  # ties abound


class TestBallCandidates:
    def test_each_owner_holds_its_padded_ball_in_ascending_order(self):
        ns = m.generate_grid(2, 7, [(0.0, 1.0), (0.0, 1.0)])
        rows, h = [3, 24, 48], 1.0 / 6.0
        owner, cand = geometry_module._ball_candidates(ns.tree, ns.points[rows], h)
        for i, r in enumerate(rows):
            want = np.flatnonzero(np.linalg.norm(ns.points - ns.points[r], axis=1) <= h * (1.0 + 1e-6))
            assert cand[owner == i].tolist() == want.tolist()  # ascending, and the grid neighbors at exactly h kept
        assert np.all(np.diff(owner) >= 0)


class TestQueryArguments:
    """The one neighbor query rejects a non-finite centre and a malformed selector."""

    GRID = m.generate_grid(2, 5, [(0.0, 1.0), (0.0, 1.0)])

    @pytest.mark.parametrize("query", [
        lambda ns: m.knn(ns, [np.nan, 0.5], 3),
        lambda ns: m.range_search(ns, [0.5, np.inf], 0.3),
        lambda ns: m.build_space(ns, np.array([[0.5, 0.5], [np.nan, 0.5]]), ("knn", 3), m.poly_patch_recipe(1)),
        lambda ns: m.build_space(ns, np.array([[0.5, 0.5], [0.5, -np.inf]]), ("range", 0.3), m.poly_patch_recipe(0)),
    ], ids=["knn", "range_search", "build_space-knn", "build_space-range"])
    def test_non_finite_centre_rejected(self, query):
        with pytest.raises(InvalidInputError, match="is not finite"):
            query(self.GRID)

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -0.5, True])
    def test_range_needs_a_positive_finite_radius(self, radius):
        with pytest.raises(InvalidInputError, match="positive finite radius"):
            m.build_space(self.GRID, "all", ("range", radius), m.poly_patch_recipe(0))
        with pytest.raises(InvalidInputError, match="positive finite radius"):
            m.range_search(self.GRID, [0.5, 0.5], radius)

    @pytest.mark.parametrize("k", [5.7, 5.0, True, np.bool_(True), "5"])
    def test_knn_needs_an_integer_k(self, k):
        with pytest.raises(InvalidInputError, match="integer k"):
            m.build_space(self.GRID, "all", ("knn", k), m.poly_patch_recipe(1))
        with pytest.raises(InvalidInputError, match="integer k"):
            m.knn(self.GRID, [0.5, 0.5], k)

    def test_numpy_integer_k_is_an_integer(self):
        assert np.array_equal(m.knn(self.GRID, [0.5, 0.5], np.int64(5)).indices,
                              m.knn(self.GRID, [0.5, 0.5], 5).indices)


class TestInfluenceSet:
    def test_duplicate_indices_rejected(self):
        pts = np.array([[0.0], [0.5], [0.0]])
        with pytest.raises(InvalidInputError, match="influence indices must be distinct"):
            m.InfluenceSet(center=[0.0], indices=[0, 1, 0], distances=[0.0, 0.5, 0.0], points=pts)


class TestNodeSet:
    def test_coincident_nodes_rejected(self):
        with pytest.raises(ConstructionError):
            m.NodeSet(points=np.array([[0.1, 0.2], [0.1, 0.2]]), boundary_mask=[False, False])

    def test_one_tree_per_node_set(self, monkeypatch):
        built = []
        tree = geometry_module.cKDTree
        monkeypatch.setattr(geometry_module, "cKDTree", lambda pts: built.append(pts) or tree(pts))
        ns = m.generate_grid(2, 5, [(0.0, 1.0), (0.0, 1.0)])
        m.knn(ns, ns.points[6], 5)
        assert len(built) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_rejected(self, bad):
        pts = np.array([[0.0, 0.0], [0.5, bad], [1.0, 1.0]])
        with pytest.raises(InvalidInputError, match=r"^node 1 is not finite: \[0\.5, "):
            m.NodeSet(points=pts, boundary_mask=[True, False, True])

    def test_points_are_read_only(self):
        ns = m.generate_grid(1, 3, [(0.0, 1.0)])
        with pytest.raises(ValueError):
            ns.points[0] = 9.0


class TestNodeCsv:
    def test_round_trip_bitwise(self, tmp_path):
        ns = m.generate_scattered(2, 17, [(0, 1), (0, 2)], source="random", seed=11)
        path = tmp_path / "nodes.csv"
        m.save_nodes(ns, path)
        back = m.load_nodes(path)
        assert np.array_equal(back.points, ns.points)
        assert np.array_equal(back.boundary_mask, ns.boundary_mask)

    def test_header_format(self, tmp_path):
        ns = m.generate_grid(2, 2, [(0, 1), (0, 1)])
        path = tmp_path / "nodes.csv"
        m.save_nodes(ns, path)
        assert path.read_text().splitlines()[0] == "x1,x2,boundary"

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,boundary\n0.0,0.0,0\n0.5,1\n")
        with pytest.raises(InvalidInputError, match="ragged"):
            m.load_nodes(path)

    def test_bad_boundary_flag_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,boundary\n0.0,2\n")
        with pytest.raises(InvalidInputError):
            m.load_nodes(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,boundary\n0.0,0.0,0\n")
        with pytest.raises(InvalidInputError):
            m.load_nodes(path)

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("x1,boundary\n0.25,0\n0.25,0\n")
        with pytest.raises(ConstructionError):
            m.load_nodes(path)

    def test_non_numeric_coordinate_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,boundary\n0.0,0.0,1\n0.5,abc,0\n")
        with pytest.raises(InvalidInputError, match=f"row 3 in {path}"):
            m.load_nodes(path)

    def test_non_finite_coordinate_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,boundary\n0.0,0.0,1\n0.5,nan,0\n")
        with pytest.raises(InvalidInputError, match="node 1 is not finite"):
            m.load_nodes(path)
