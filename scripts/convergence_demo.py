#!/usr/bin/env python3
"""Convergence demo: classical grids and a scattered-node kernel pipeline.

Runs three refinement studies and prints their rate tables:
  * 1D two-point boundary value problem with quadratic patches,
  * 2D Poisson on the unit square with the five-point sublist patches,
  * 2D Poisson on Halton nodes with cubic polyharmonic stencils and the
    default quadratic tail (k = 12).
"""

import meshfd as m
from meshfd.problems import convergence_study, preset
from meshfd.solve import assemble, build_sigma, solve_square

FIVE_STAR_SUBLIST = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)]


def print_table(title, table):
    print(f"\n{title}")
    print(f"{'h':>12} {'N':>7} {'max_err':>12} {'order':>7}")
    for row in table:
        order = f"{row.observed_order:.2f}" if row.observed_order is not None else "-"
        print(f"{row.h:12.5g} {row.n_nodes:7d} {row.max_err:12.4e} {order:>7}")


def level_1d(problem, n):
    ns = m.generate_grid(1, n + 1, problem.bounds)
    space = m.build_space(ns, "interior", ("knn", 3), m.poly_patch_recipe(2))
    sigma = build_sigma(space, "same-index")
    gs = assemble(space, problem.operator, problem.rhs, sigma, dirichlet_data=problem.dirichlet)
    return 1.0 / n, ns, solve_square(gs).nodal_values


def level_2d(problem, n):
    ns = m.generate_grid(2, n + 1, problem.bounds)
    space = m.build_space(
        ns, "interior", ("range", 1.2 / n),
        m.poly_patch_recipe(2, sublist=FIVE_STAR_SUBLIST), uncovered="constant-patch",
    )
    sigma = build_sigma(space, "same-index")
    gs = assemble(space, problem.operator, problem.rhs, sigma, dirichlet_data=problem.dirichlet)
    return 1.0 / n, ns, solve_square(gs).nodal_values


def level_rbf(problem, count):
    ns = m.generate_scattered(2, count, problem.bounds, source="halton")
    space = m.build_space(
        ns, "all", ("knn", 12), m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0))
    )
    sigma = build_sigma(space, "same-index")
    gs = assemble(space, problem.operator, problem.rhs, sigma, dirichlet_data=problem.dirichlet)
    return count**-0.5, ns, solve_square(gs).nodal_values


def main():
    print_table(
        "1D u'' = f, quadratic patches",
        convergence_study(preset("bvp1d"), level_1d, [32, 64, 128]),
    )
    print_table(
        "2D Poisson, five-point sublist patches",
        convergence_study(preset("poisson2d"), level_2d, [8, 16, 32]),
    )
    print_table(
        "2D Poisson, Halton nodes, r^3 + quadratic tail (k = 12)",
        convergence_study(preset("poisson2d"), level_rbf, [100, 200, 400]),
    )


if __name__ == "__main__":
    main()
