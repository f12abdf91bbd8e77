"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is asserted exactly as stated.
"""

import json
import time

import numpy as np

import meshfd as m
from meshfd.cli import main as cli_main
from meshfd.errors import ConstructionError
from meshfd.problems import convergence_study, preset
from meshfd.pum import PartitionOfUnity, blend
from meshfd.solve import assemble, build_sigma, solve_least_squares, solve_square
from meshfd.spaces import PolySpace

from helpers import (
    dense_saddle_laplacian_weights,
    five_star_full_p2_space,
    five_star_sublist_space,
    grid1d,
    grid2d,
    jittered_cloud,
    quadratic_overlap_space_1d,
)

R3 = m.Kernel("polyharmonic", 3.0)


def report(line):
    print(f"\nACCEPTANCE {line}: PASS")


def five_point_matrix(n):
    """Reference sparse matrix for the unit-square Poisson grid (Dirichlet rows unit)."""
    import scipy.sparse

    grid_n = n + 1
    h2 = (1.0 / n) ** 2
    rows, cols, vals = [], [], []
    for i in range(grid_n):
        for j in range(grid_n):
            k = i * grid_n + j
            if i in (0, n) or j in (0, n):
                rows.append(k)
                cols.append(k)
                vals.append(1.0)
            else:
                for col, v in ((k, -4.0), (k - 1, 1.0), (k + 1, 1.0),
                               (k - grid_n, 1.0), (k + grid_n, 1.0)):
                    rows.append(k)
                    cols.append(col)
                    vals.append(v / h2)
    size = grid_n * grid_n
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(size, size))


def test_criterion_1_classical_scheme_recovery():
    # 1D quadratic pipeline reproduces the tridiagonal-plus-identity system
    n = 64
    h = 1.0 / n
    p1 = preset("bvp1d")
    t_start = time.perf_counter()
    ns, space = quadratic_overlap_space_1d(n)
    sigma = build_sigma(space, "same-index")
    gs = assemble(space, p1.operator, p1.rhs, sigma, dirichlet_data=p1.dirichlet)
    elapsed_1d = time.perf_counter() - t_start
    a = gs.matrix.toarray()
    tol = 1e-12 / h**2
    for j in range(1, n):
        row = np.zeros(ns.n)
        row[j - 1 : j + 2] = [1 / h**2, -2 / h**2, 1 / h**2]
        assert np.max(np.abs(a[j] - row)) <= tol
    for j in (0, n):
        unit = np.zeros(ns.n)
        unit[j] = 1.0
        assert np.array_equal(a[j], unit)

    # 2D sublist pipeline reproduces the five-point matrix at the largest size
    n2 = 64
    h2 = 1.0 / n2
    p2 = preset("poisson2d")
    t_start = time.perf_counter()
    ns2, space2 = five_star_sublist_space(n2)
    sigma2 = build_sigma(space2, "same-index")
    gs2 = assemble(space2, p2.operator, p2.rhs, sigma2, dirichlet_data=p2.dirichlet)
    elapsed_2d = time.perf_counter() - t_start
    diff = (gs2.matrix - five_point_matrix(n2)).tocoo()
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) <= 1e-12 / h2**2
    boundary = np.flatnonzero(ns2.boundary_mask)
    sub = gs2.matrix[boundary]
    assert sub.nnz == boundary.size
    assert np.all(sub.data == 1.0)
    assert np.array_equal(np.sort(sub.indices), boundary)

    elapsed = elapsed_1d + elapsed_2d
    assert elapsed < 1.0, f"classical recovery pipelines took {elapsed:.2f}s at N = 64^2"
    report(f"1 classical-scheme recovery ({elapsed:.2f}s)")


def test_criterion_2_dimension_identities():
    for n in (3, 4, 5):
        ns, space = five_star_full_p2_space(n)
        rep = m.dimension_analysis(space)
        assert rep.dim_total == (n + 1) ** 2 + (n - 1) ** 2
        assert rep.dim_ker_T == (n - 1) ** 2
        assert rep.dim_im_T == (n + 1) ** 2

    # every interpolatory space in the suite satisfies dim = |X|, ker = 0
    interpolatory_spaces = [
        quadratic_overlap_space_1d(7),
        five_star_sublist_space(4),
    ]
    ns_j = jittered_cloud(3, n_axis=7)
    interpolatory_spaces.append(
        (ns_j, m.build_space(ns_j, "all", ("knn", 6), m.poly_patch_recipe(2)))
    )
    interpolatory_spaces.append(
        (ns_j, m.build_space(ns_j, "all", ("knn", 9), m.kernel_patch_recipe(R3, augmentation_degree=1)))
    )
    interpolatory_spaces.append(
        (ns_j, m.build_space(ns_j, "all", ("knn", 5),
                             m.kernel_patch_recipe(m.Kernel("gauss", 3.0), augmentation_degree=None)))
    )
    for ns, space in interpolatory_spaces:
        assert space.interpolatory
        rep = m.dimension_analysis(space)
        assert rep.dim_total == ns.n and rep.dim_ker_T == 0 and rep.dim_im_T == ns.n

    # the dimension lower bound holds on randomized configurations
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        d = int(rng.integers(1, 3))
        n_nodes = int(rng.integers(6, 14))
        pts = rng.random((n_nodes, d))
        try:
            ns = m.NodeSet(points=pts, boundary_mask=np.zeros(n_nodes, dtype=bool))
        except ConstructionError:
            continue
        degree = int(rng.integers(0, 3))
        selector = (
            ("knn", int(rng.integers(1, n_nodes + 1)))
            if rng.random() < 0.5
            else ("range", float(rng.uniform(0.3, 1.2)))
        )
        n_centers = int(rng.integers(1, 5))
        centers = pts[rng.integers(0, n_nodes, size=n_centers)] + rng.normal(0, 0.05, (n_centers, d))
        try:
            space = m.build_space(ns, centers, selector, m.poly_patch_recipe(degree),
                                  uncovered="constant-patch")
        except ConstructionError:
            continue
        rep = m.dimension_analysis(space)
        assert rep.dim_total >= max(rep.lower_bound, 0)
        checked += 1
    report("2 dimension identities")


def test_criterion_3_collocation_mfd_identity():
    p2 = preset("poisson2d")
    for seed in range(10):
        ns = jittered_cloud(seed, n_axis=14)  # 196 nodes <= 400
        for recipe in (m.poly_patch_recipe(2), m.kernel_patch_recipe(R3, augmentation_degree=1)):
            k = 6 if isinstance(recipe(m.knn(ns, ns.points[0], 9)), PolySpace) else 9
            space = m.build_space(ns, "all", ("knn", k), recipe)
            assert space.interpolatory
            sigma = build_sigma(space, "same-index")
            by_exact = assemble(space, p2.operator, p2.rhs, sigma,
                                route="exactness", dirichlet_data=p2.dirichlet)
            by_lagrange = assemble(space, p2.operator, p2.rhs, sigma,
                                   route="lagrange", dirichlet_data=p2.dirichlet)
            diff = np.max(np.abs((by_exact.matrix - by_lagrange.matrix).toarray()))
            assert diff <= 1e-10, f"seed {seed}: route difference {diff:.2e}"
    report("3 collocation equals the differentiation-weight route")


def test_criterion_4_rbf_fd_validity():
    rng = np.random.default_rng(3)
    recipe = m.kernel_patch_recipe(R3, augmentation_degree=1)

    # exactness on random stencils of sizes 5..15
    for size in range(5, 16):
        pts = rng.random((size, 2))
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(size, dtype=bool))
        infl = m.knn(ns, pts.mean(axis=0), size)
        ks = recipe(infl)
        sw = m.weights_kernel(m.LAPLACIAN, infl.center, infl, ks)
        assert m.verify_exactness(sw, ks, m.LAPLACIAN) <= 1e-8

    # mirror symmetry on symmetric stencils
    ns1 = grid1d(2, bounds=(-0.1, 0.1))
    infl1 = m.knn(ns1, [0.0], 3)
    sw1 = m.weights_kernel(m.SECOND_DERIVATIVE_1D, [0.0], infl1, recipe(infl1))
    w1 = {int(i): w for i, w in zip(infl1.indices, sw1.weights)}
    assert abs(w1[0] - w1[2]) <= 1e-10

    ns2 = grid2d(8)
    infl2 = m.range_search(ns2, [0.5, 0.5], 1.2 / 8)
    sw2 = m.weights_kernel(m.LAPLACIAN, [0.5, 0.5], infl2, recipe(infl2))
    neighbor_weights = sw2.weights[infl2.distances > 0]
    assert np.max(neighbor_weights) - np.min(neighbor_weights) <= 1e-10

    # independent dense saddle oracle
    for trial in range(10):
        size = int(rng.integers(6, 13))
        pts = rng.random((size, 2))
        ns = m.NodeSet(points=pts, boundary_mask=np.zeros(size, dtype=bool))
        infl = m.knn(ns, pts.mean(axis=0), size)
        sw = m.weights_kernel(m.LAPLACIAN, infl.center, infl, recipe(infl))
        w_oracle = dense_saddle_laplacian_weights(infl.points, infl.center, 3.0, 1)
        assert np.max(np.abs(sw.weights - w_oracle)) <= 1e-9
    report("4 polyharmonic differentiation weights")


def test_criterion_5_convergence_orders():
    t_start = time.perf_counter()

    p1 = preset("bvp1d")

    def level_1d(problem, n):
        ns, space = quadratic_overlap_space_1d(n)
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, problem.operator, problem.rhs, sigma,
                      dirichlet_data=problem.dirichlet)
        return 1.0 / n, ns, solve_square(gs).nodal_values

    table = convergence_study(p1, level_1d, [32, 64, 128])
    assert all(row.observed_order >= 1.9 for row in table[1:])

    p2 = preset("poisson2d")

    def level_2d(problem, n):
        ns, space = five_star_sublist_space(n)
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, problem.operator, problem.rhs, sigma,
                      dirichlet_data=problem.dirichlet)
        return 1.0 / n, ns, solve_square(gs).nodal_values

    table2 = convergence_study(p2, level_2d, [8, 16, 32])
    assert all(row.observed_order >= 1.9 for row in table2[1:])

    def level_rbf(problem, count):
        ns = m.generate_scattered(2, count, problem.bounds, source="halton")
        space = m.build_space(ns, "all", ("knn", 9), m.kernel_patch_recipe(R3))
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, problem.operator, problem.rhs, sigma,
                      dirichlet_data=problem.dirichlet)
        return count ** -0.5, ns, solve_square(gs).nodal_values

    table3 = convergence_study(p2, level_rbf, [100, 200, 400])
    errs = [row.max_err for row in table3]
    assert errs[0] > errs[1] > errs[2], f"no monotone decrease: {errs}"

    elapsed = time.perf_counter() - t_start
    assert elapsed < 60.0
    report(f"5 convergence orders ({elapsed:.1f}s)")


def test_criterion_6_oversampled_least_squares():
    p2 = preset("poisson2d")

    # per-set-aggregate systems keep full column rank across random instances
    for seed in range(10):
        ns = jittered_cloud(seed, n_axis=8)
        space = m.build_space(ns, "all", ("knn", 9), m.kernel_patch_recipe(R3, augmentation_degree=1))
        sigma = build_sigma(space, "per-set-aggregate")
        gs = assemble(space, p2.operator, p2.rhs, sigma, dirichlet_data=p2.dirichlet)
        assert gs.shape[0] == sum(pt.influence.size for pt in space.patches)
        assert np.linalg.matrix_rank(gs.matrix.toarray()) == ns.n

    # square nonsingular system: least squares equals collocation
    ns, space = five_star_sublist_space(10)
    sigma = build_sigma(space, "same-index")
    gs = assemble(space, p2.operator, p2.rhs, sigma, dirichlet_data=p2.dirichlet)
    direct = solve_square(gs)
    lsq = solve_least_squares(gs)
    assert np.max(np.abs(direct.nodal_values - lsq.nodal_values)) <= 1e-9

    # duplicated collocation points always land on distinct patches
    ns_d = jittered_cloud(17, n_axis=8)
    space_d = m.build_space(ns_d, "all", ("knn", 6), m.poly_patch_recipe(2))
    dup = np.vstack([ns_d.points, np.tile(ns_d.points[10], (4, 1))])
    sigma_d = build_sigma(space_d, "nearest-node", collocation_points=dup)
    by_point = {}
    for pair in sigma_d.pairs:
        by_point.setdefault(pair.point.tobytes(), []).append(pair.patch)
    for patches in by_point.values():
        assert len(set(patches)) == len(patches)
    report("6 oversampled least squares")


def test_criterion_7_partition_of_unity():
    rng = np.random.default_rng(9)
    ns, space = five_star_sublist_space(6)
    pou = PartitionOfUnity.for_space(space)

    # partition-sum defect at 1000 random covered points
    count = 0
    while count < 1000:
        x = rng.random(2)
        try:
            _, gamma = pou.weights_at(x)
        except m.CoverageError:
            continue
        assert abs(gamma.sum() - 1.0) <= 1e-12
        count += 1

    # interpolatory blend matches the restriction at every node
    values = rng.standard_normal(ns.n)
    s = m.from_nodal_values(space, values)
    blended = np.array([blend(s, pou, x) for x in ns.points])
    assert np.max(np.abs(blended - m.restriction(s))) <= 1e-9

    # constant reproduction with kernel-plus-constant patches
    ns_k = jittered_cloud(23, n_axis=7)
    space_k = m.build_space(ns_k, "all", ("knn", 9), m.kernel_patch_recipe(R3, augmentation_degree=1))
    pou_k = PartitionOfUnity.for_space(space_k)
    s_k = m.from_nodal_values(space_k, np.full(ns_k.n, 2.75))
    for _ in range(200):
        x = 0.05 + 0.9 * rng.random(2)
        assert abs(blend(s_k, pou_k, x) - 2.75) <= 1e-9
    report("7 partition of unity")


def test_criterion_8_cli_determinism(tmp_path):
    n = 6
    base = {
        "nodes": {"kind": "scattered", "d": 2, "count": 40, "bounds": [[0.0, 1.0], [0.0, 1.0]]},
        "space": {"kind": "polyharmonic", "exponent": 3.0},
        "selector": {"kind": "knn", "k": 9},
        "problem": {"preset": "poisson2d"},
    }
    grid_nodes = {"kind": "grid", "d": 2, "n_per_axis": n + 1, "bounds": [[0.0, 1.0], [0.0, 1.0]]}
    configs = {
        "generate": base,
        "solve": base,
        "stencil": {**base, "operator": {"kind": "laplacian"}, "stencil": {"y": [0.5, 0.5]}},
        "dim": {
            "nodes": grid_nodes,
            "space": {"kind": "poly", "degree": 2},
            "selector": {"kind": "range", "radius": 1.2 / n},
            "centers": "interior",
            "uncovered": "constant-patch",
        },
        "converge": {
            "nodes": {"kind": "grid", "d": 1, "n_per_axis": 9, "bounds": [[0.0, 1.0]]},
            "space": {"kind": "poly", "degree": 2},
            "selector": {"kind": "knn", "k": 3},
            "centers": "interior",
            "problem": {"preset": "bvp1d"},
            "levels": {"n_per_axis": [9, 17, 33]},
        },
        "pum-eval": {
            "nodes": {"kind": "grid", "d": 1, "n_per_axis": 17, "bounds": [[0.0, 1.0]]},
            "space": {"kind": "poly", "degree": 2},
            "selector": {"kind": "knn", "k": 3},
            "centers": "interior",
            "problem": {"preset": "bvp1d"},
            "values": {"kind": "exact"},
            "eval": {"kind": "grid", "n_per_axis": 21},
        },
    }
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.config.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in (1, 2):
            out_dir = tmp_path / f"{command}-{run}"
            code = cli_main([command, "--config", str(cfg_path), "--out-dir", str(out_dir)])
            assert code == 0, command
            outs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert outs[0] == outs[1], f"{command} runs differ"
    report("8 CLI determinism")
