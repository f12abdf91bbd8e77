"""Three-dimensional collocation: the seven-point scheme and its convergence on a grid."""

import numpy as np
import scipy.sparse

import meshfd as m
from meshfd.problems import Problem, convergence_study
from meshfd.solve import assemble, build_sigma, solve_square

from helpers import seven_star_sublist_space


def _exact(x):
    return np.exp(x[..., 0]) * np.sin(x[..., 1]) * np.cos(x[..., 2])


# Laplacian of exp(x) sin(y) cos(z) is -exp(x) sin(y) cos(z); the boundary data is not zero.
POISSON_3D = Problem(name="poisson3d", d=3, bounds=[(0.0, 1.0)] * 3, operator=m.LAPLACIAN,
                     rhs=lambda x: -_exact(x), dirichlet=_exact, exact=_exact)


def _system(n):
    ns, space = seven_star_sublist_space(n)
    sigma = build_sigma(space, "same-index")
    return ns, assemble(space, POISSON_3D.operator, POISSON_3D.rhs, sigma, dirichlet_data=POISSON_3D.dirichlet)


def test_seven_point_recovery():
    n = 8
    h = 1.0 / n
    ns, gs = _system(n)
    one_d = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n + 1, n + 1))
    eye = scipy.sparse.identity(n + 1)
    seven = (scipy.sparse.kron(scipy.sparse.kron(one_d, eye), eye) + scipy.sparse.kron(scipy.sparse.kron(eye, one_d), eye)
             + scipy.sparse.kron(scipy.sparse.kron(eye, eye), one_d)).toarray() / h**2
    a = gs.matrix.toarray()
    interior = ns.interior_indices
    assert interior.size == (n - 1) ** 3
    assert np.max(np.abs(a[interior] - seven[interior])) <= 1e-12 / h**2
    for j in ns.boundary_indices:
        assert gs.matrix.getrow(j).nnz == 1 and a[j, j] == 1.0
    assert gs.worst_row_residual <= m.ndf.EXACTNESS_RTOL


def test_grid_convergence_order():
    def run_level(problem, n):
        ns, gs = _system(n)
        return 1.0 / n, ns, solve_square(gs).nodal_values

    levels = convergence_study(POISSON_3D, run_level, [8, 12, 16])  # 9^3, 13^3 and 17^3 nodes
    assert [lv.n_nodes for lv in levels] == [9**3, 13**3, 17**3]
    assert all(lv.observed_order >= 1.9 for lv in levels[1:]), [lv.observed_order for lv in levels]
