"""Shared builders for the test suite."""

import numpy as np
import scipy.sparse

import meshfd as m
from meshfd.errors import AnalysisSizeError, InvalidInputError, NotAnInterpolationSetError
from meshfd.linalg import null_space, numerical_rank
from meshfd.spaces import PatchTable
from meshfd.spline import ANALYSIS_GUARD, INTERPOLATION_RTOL, DimensionReport

FIVE_STAR_SUBLIST = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)]
SEVEN_STAR_SUBLIST = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)]

# Point-dependent coefficients; the first-order x term vanishes on half the
# points, so rows of one chunk carry different sets of derivative terms.
GENERAL_OP = m.Operator(
    "general-second-order",
    a=lambda x: np.array([[1.0 + x[0], 0.3 * x[1]], [0.3 * x[1], 2.0 - x[1]]]),
    b=lambda x: np.array([max(x[0] - 0.5, 0.0), 1.0]),
    c=lambda x: float(x[0] * x[1]),
    identity_on_boundary=False,
)


def constant(value):
    """Problem data equal to ``value`` everywhere: (n, d) points to an (n,) array."""
    return lambda x: np.full(len(x), float(value))


def grid1d(n_intervals, bounds=(0.0, 1.0)):
    return m.generate_grid(1, n_intervals + 1, [bounds])


def grid2d(n_intervals, bounds=((0.0, 1.0), (0.0, 1.0))):
    return m.generate_grid(2, n_intervals + 1, bounds)


def quadratic_overlap_space_1d(n_intervals):
    """Interior-centered quadratic patches on three consecutive grid nodes."""
    ns = grid1d(n_intervals)
    space = m.build_space(ns, "interior", ("knn", 3), m.poly_patch_recipe(2))
    return ns, space


def _star_sublist_space(ns, n_intervals, sublist, order):
    """Grid patches on the stars of the axis-aligned quadratic sublist; ``order`` relabels the nodes."""
    if order is not None:
        ns = m.NodeSet(points=ns.points[order], boundary_mask=ns.boundary_mask[order])
    h = 1.0 / n_intervals
    space = m.build_space(
        ns, "interior", ("range", 1.2 * h),
        m.poly_patch_recipe(2, sublist=sublist),
        uncovered="constant-patch",
    )
    return ns, space


def five_star_sublist_space(n_intervals, order=None):
    """Grid patches on the 5-stars with the axis-aligned quadratic sublist.

    ``order`` (a permutation of the generator's labels) gives node i the
    generator's node ``order[i]``.
    """
    return _star_sublist_space(grid2d(n_intervals), n_intervals, FIVE_STAR_SUBLIST, order)


def seven_star_sublist_space(n_intervals, order=None):
    """3-D grid patches on the 7-stars with the axis-aligned quadratic sublist; ``order`` as above."""
    ns = m.generate_grid(3, n_intervals + 1, [(0.0, 1.0)] * 3)
    return _star_sublist_space(ns, n_intervals, SEVEN_STAR_SUBLIST, order)


def five_star_full_p2_space(n_intervals):
    """Grid 5-star patches carrying the full bivariate quadratics."""
    ns = grid2d(n_intervals)
    h = 1.0 / n_intervals
    space = m.build_space(
        ns, "interior", ("range", 1.2 * h), m.poly_patch_recipe(2),
        uncovered="constant-patch",
    )
    return ns, space


def hand_made_space(nodes, pairs):
    """The space of hand-made (influence set, local space) pairs, its table filled by `PatchTable.of_pairs`."""
    infls, spaces = tuple(zip(*pairs)) or ((), ())
    return m.OverlapSplineSpace(nodes, PatchTable.of_pairs(infls, spaces), lambda i, _: spaces[i])


def halton_r3_space(count=100, k=12):
    """r^3 patches with a degree-2 tail on kNN stencils of a Halton cloud in the unit square.

    With the defaults this is the small input of the ``pum-eval`` benchmark workload.
    """
    ns = m.generate_scattered(2, count, [(0.0, 1.0), (0.0, 1.0)], source="halton")
    recipe = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=2)
    return ns, m.build_space(ns, "all", ("knn", k), recipe)


def halton_r3_space_3d(count=200, k=20):
    """r^3 patches with a degree-2 tail (q = 10) on kNN stencils of a Halton cloud in the unit cube."""
    ns = m.generate_scattered(3, count, [(0.0, 1.0)] * 3, source="halton")
    recipe = m.kernel_patch_recipe(m.Kernel("polyharmonic", 3.0), augmentation_degree=2)
    return ns, m.build_space(ns, "all", ("knn", k), recipe)


def gauss_tail_space(count=60, k=9):
    """Gauss patches with a linear tail on kNN stencils of a Halton cloud in the unit square."""
    ns = m.generate_scattered(2, count, [(0.0, 1.0), (0.0, 1.0)], source="halton")
    return ns, m.build_space(ns, "all", ("knn", k), m.kernel_patch_recipe(m.Kernel("gauss", 3.0), 1))


def jittered_cloud(seed, n_axis=14, jitter=0.15):
    """Quasi-uniform scattered nodes: a grid with seeded interior jitter."""
    rng = np.random.default_rng(seed)
    base = grid2d(n_axis - 1)
    pts = base.points.copy()
    h = 1.0 / (n_axis - 1)
    interior = ~base.boundary_mask
    pts[interior] += rng.uniform(-jitter * h, jitter * h, size=(int(interior.sum()), 2))
    return m.NodeSet(points=pts, boundary_mask=base.boundary_mask)


def brute_force_knn(points, center, k):
    """Oracle: sort all distances, ties by ascending index."""
    center = np.asarray(center, dtype=float)
    dist = np.linalg.norm(points - center, axis=1)
    order = np.lexsort((np.arange(len(points)), dist))
    return order[:k], dist[order[:k]]


def brute_force_range(points, center, radius):
    center = np.asarray(center, dtype=float)
    dist = np.linalg.norm(points - center, axis=1)
    idx = np.flatnonzero(dist <= radius)
    order = np.lexsort((idx, dist[idx]))
    return idx[order], dist[idx][order]


def raw_monomial_laplacian(y, exps):
    """Laplacian of raw (unshifted) monomials at y."""
    y = np.asarray(y, dtype=float)
    d = y.shape[0]
    out = []
    for a in exps:
        total = 0.0
        for axis in range(d):
            if a[axis] >= 2:
                term = a[axis] * (a[axis] - 1) * y[axis] ** (a[axis] - 2)
                for other in range(d):
                    if other != axis:
                        term *= y[other] ** a[other]
            else:
                term = 0.0
            total += term
        out.append(total)
    return np.array(out)


def dense_saddle_laplacian_weights(coords, y, alpha, aug_degree):
    """Independent oracle: raw-coordinate dense saddle solve for Laplacian weights."""
    coords = np.asarray(coords, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = coords.shape
    r = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    exps = m.monomial_exponents(d, aug_degree)
    p = np.column_stack([np.prod(coords ** np.array(a), axis=1) for a in exps])
    q = p.shape[1]
    a = np.zeros((n + q, n + q))
    a[:n, :n] = r**alpha
    a[:n, n:] = p
    a[n:, :n] = p.T
    ry = np.linalg.norm(y - coords, axis=1)
    lap_kernel = alpha * (alpha + d - 2.0) * ry ** (alpha - 2.0)
    rhs = np.concatenate([lap_kernel, raw_monomial_laplacian(y, exps)])
    return np.linalg.solve(a, rhs)[:n]


# The scalar cardinal construction that `meshfd.spline.lagrange_row` ran before
# the Lagrange route became the stencil engine's nodal solve, kept as its oracle.
def cardinal_row(space, patch_index, op, y):
    """``L l_k(y)`` for one patch's cardinal functions: its nodal matrix inverted, the operator applied."""
    patch = space.patches[patch_index]
    e = np.atleast_2d(patch.space.eval_basis(patch.influence.points))
    cardinal = np.linalg.solve(e, np.eye(e.shape[0]))
    return m.apply_operator(patch.space, op, y) @ cardinal


# The dense route that `meshfd.spline.dimension_analysis` took before it read
# the per-patch ranks, kept as its oracle: one global SVD and null space over
# every patch coefficient.
def dense_dimension_analysis(space, guard=ANALYSIS_GUARD):
    """Split the space dimension into kernel and image of the nodal-value map.

    Builds the connection-constraint matrix over all patch coefficients
    (rows: first containing patch minus each subsequent one, per shared
    node), so the total dimension is ``D - rank``; the image dimension is
    the rank of the nodal evaluation map restricted to the constraint null
    space, and the kernel dimension follows by subtraction.
    """
    total_coeffs = int(sum(p.space.dim for p in space.patches))
    if total_coeffs > guard:
        raise AnalysisSizeError(
            f"{total_coeffs} patch coefficients exceed the dense-analysis guard {guard}; "
            "analyze a subsample instead"
        )
    node, _, flat = space.incidence
    first = np.searchsorted(node, node)  # each membership's first entry at its node
    lead = first == np.arange(node.size)
    # row j: the basis of membership j's patch at its node, in that patch's coefficient columns
    values = scipy.sparse.block_diag(
        [np.atleast_2d(p.space.eval_basis(p.influence.points)) for p in space.patches], format="csr"
    )[flat]
    constraints = (values[first[~lead]] - values[~lead]).toarray()

    dim_total = total_coeffs - numerical_rank(constraints)
    basis = null_space(constraints)

    nodal_map = values[lead].toarray()  # one row per node, from its first patch
    dim_im = numerical_rank(nodal_map @ basis)
    dim_ker = dim_total - dim_im

    lower = space.nodes.n + total_coeffs - node.size
    upper = space.nodes.n if all(m.unisolvency_rank(p.space, p.influence.points)[0] == p.space.dim
                                 for p in space.patches) else None
    return DimensionReport(
        dim_total=int(dim_total),
        dim_ker_T=int(dim_ker),
        dim_im_T=int(dim_im),
        lower_bound=int(lower),
        upper_bound_unisolvent=upper,
        interpolatory=space.interpolatory,
    )


# The one-patch routes that `meshfd.spaces` and `OverlapSpline` kept before
# every fit and value became a stacked call, kept as the oracles of
# `from_nodal_values` and `OverlapSpline.eval_pairs`.
def local_interpolate(space, coords, values):
    """Coefficients, in the space's basis, of the interpolant of ``values`` at ``coords`` (a kernel space's centers).

    A node set that is not an interpolation set raises `NotAnInterpolationSetError` with the nodal matrix's rank.
    """
    coords, values = np.atleast_2d(np.asarray(coords, dtype=float)), np.asarray(values, dtype=float).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvalidInputError(f"value at node {bad[0]} is not finite: {values[bad[0]]}")
    if isinstance(space, m.KernelSpace) and coords.shape[0] != space.n:
        raise InvalidInputError("kernel interpolation expects values at the kernel centers")
    e, n = np.atleast_2d(space.eval_basis(coords)), coords.shape[0]
    try:
        if n != space.dim:
            raise np.linalg.LinAlgError(f"{n} nodes cannot be an interpolation set for dimension {space.dim}")
        coeffs = np.linalg.solve(e, values)
        if not np.max(np.abs(e @ coeffs - values)) <= INTERPOLATION_RTOL * (1.0 + np.max(np.abs(values))):
            raise np.linalg.LinAlgError("interpolation residual above the tolerance")
    except np.linalg.LinAlgError as exc:
        raise NotAnInterpolationSetError(str(exc), rank=numerical_rank(e), dim=space.dim, n_nodes=n) from None
    return coeffs


def patch_value(space, coeffs, x):
    """A patch's value at x from its coefficients in the space's basis."""
    return space.eval_basis(x) @ np.asarray(coeffs, dtype=float)


def patch_eval(s, i, x):
    """Patch i of the spline s at x through its own space (a negative i counts from the end)."""
    i = s.space.table.index(i)
    return patch_value(s.space.patches[i].space, s.patch_coeffs[i], x)


# The presets' finite-difference oracle, independent of every patch space:
# sixth-order central stencils.
_OFFSETS = np.arange(-3, 4)
_D1 = np.array([-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60])
_D2 = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])


def _fd_axis_derivative(fn, x, axis, order, step):
    coeffs = _D1 if order == 1 else _D2
    acc = 0.0
    for off, c in zip(_OFFSETS, coeffs):
        if c == 0.0:
            continue
        p = np.array(x, dtype=float)
        p[axis] += off * step
        acc += c * float(fn(p))
    return acc / step**order


def _fd_mixed_derivative(fn, x, axis_a, axis_b, step):
    def inner(p):
        return _fd_axis_derivative(fn, p, axis_b, 1, step)

    return _fd_axis_derivative(inner, x, axis_a, 1, step)


def numeric_operator_apply(op: m.Operator, fn, x, step: float = 1e-2) -> float:
    """Apply an operator to a plain function by high-order finite differences.

    This is the independent oracle for manufactured-solution checks: it
    reads the operator's terms (`Operator.terms`) and never touches the
    patch-space machinery.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    betas, coef = op.terms(x[None])
    total = 0.0
    for beta, coeff in zip(betas, coef[0]):
        axes = [a for a, e in enumerate(beta) for _ in range(e)]
        if not axes:
            total += coeff * float(fn(x))
        elif len(set(axes)) == 1:
            total += coeff * _fd_axis_derivative(fn, x, axes[0], len(axes), step)
        else:
            total += coeff * _fd_mixed_derivative(fn, x, *axes, step)
    return total


def consistency_defect(problem: m.Problem, points) -> float:
    """Max relative defect of L(exact) - rhs at the given interior points."""
    if problem.exact is None:
        raise InvalidInputError("consistency check needs an exact solution")
    worst = 0.0
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        lhs = numeric_operator_apply(problem.operator, problem.exact, x)
        target = float(problem.rhs(x))
        worst = max(worst, abs(lhs - target) / max(1.0, abs(target)))
    return worst


# The per-patch oracle of `PartitionOfUnity.evaluate`: one weight query per
# point, any per-patch callable.
def blend_disconnected(patch_values, pou: m.PartitionOfUnity, x) -> float:
    """Weighted average of per-patch local fits; no connection condition assumed.

    ``patch_values`` maps a patch index and a point to the patch value
    there, so any collection of independent local approximations can be
    blended.
    """
    idx, gamma = pou.weights_at(x)
    return float(sum(g * float(patch_values(int(i), x)) for i, g in zip(idx, gamma)))


def connection_defect(s):
    """Largest normalized patch disagreement over all shared nodes; NaN if a value is not finite."""
    node, patch, _ = s.space.incidence
    vals = s.eval_pairs(patch, s.space.nodes.points[node])
    if not np.all(np.isfinite(vals)):
        return float("nan")
    first = vals[np.searchsorted(node, node)]  # each membership's first entry at its node
    return float(np.max(np.abs(vals - first) / (1.0 + np.abs(first))))


# Frozen term-by-term forms of the two basis-derivative routines of `spaces`,
# kept as their bit-for-bit oracles.
def monomial_derivatives_loop(z, exponents, beta, scale=1.0):
    """d^beta of every monomial z^alpha, one term at a time: coefficient times ``scale**-|beta|``, then each power.

    A monomial that d^beta kills is assigned 0.0; no factor is skipped, not even 1.0 or ``z ** 1``.
    """
    rescale = 1.0
    for _ in range(sum(beta)):
        rescale = rescale / scale
    out = np.empty(z.shape[:-1] + (len(exponents),))
    for k, alpha in enumerate(exponents):
        if any(b > a for a, b in zip(alpha, beta)):
            out[..., k] = 0.0
            continue
        coef = 1.0
        for a, b in zip(alpha, beta):
            for step in range(b):
                coef *= a - step
        col = coef * rescale
        for axis, (a, b) in enumerate(zip(alpha, beta)):
            if a - b:
                col = col * z[..., axis] ** (a - b)
        out[..., k] = col
    return out


def kernel_derivative_alone(kernel: m.Kernel, diff, beta):
    """d^beta_x K(x, c), |beta| <= 2, with r and every radial factor computed for this one multi-index."""
    r = np.sqrt(sum(diff[..., k] * diff[..., k] for k in range(diff.shape[-1])))
    if sum(beta) == 0:
        return kernel.phi(r)
    zero = r == 0.0
    rs = np.where(zero, 1.0, r)
    axes = [a for a, e in enumerate(beta) for _ in range(e)]
    if len(axes) == 1:
        out = kernel.dphi_over_r(rs) * diff[..., axes[0]]
        return np.where(zero, kernel.gradient_limit_at_zero(), out) if zero.any() else out
    a, b = axes
    g1r = kernel.dphi_over_r(rs)
    out = (kernel.d2phi(rs) - g1r) * (diff[..., a] / rs) * (diff[..., b] / rs)
    if a == b:
        out = out + g1r
    if zero.any():
        out = np.where(zero, kernel.second_derivative_limit_at_zero() if a == b else 0.0, out)
    return out
