"""Boundary-value problem definitions and the convergence-study harness.

A problem couples an operator with a right-hand side, Dirichlet data, and
(optionally) a manufactured exact solution; the operator degenerates to
the identity at boundary nodes, so the right-hand side extends to the
boundary with the Dirichlet values.  Self-consistency of a manufactured
solution is checked with high-order finite differences, independently of
any solver machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidInputError, MeshfdError
from .geometry import NodeSet
from .operators import LAPLACIAN, SECOND_DERIVATIVE_1D, Operator

PRESETS = ("bvp1d", "poisson2d")

# Sixth-order central stencils used for the independent operator check.
_OFFSETS = np.arange(-3, 4)
_D1 = np.array([-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60])
_D2 = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])


@dataclass(frozen=True, eq=False)
class Problem:
    """Operator equation Lu = f on a box with Dirichlet boundary data."""

    name: str
    d: int
    bounds: np.ndarray
    operator: Operator
    rhs: Callable
    dirichlet: Callable
    exact: Callable | None = None

    def __post_init__(self):
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float).reshape(self.d, 2))

    def rhs_extended(self, x, boundary: bool) -> float:
        """Right-hand side with the Dirichlet extension at boundary nodes."""
        return float(self.dirichlet(x)) if boundary else float(self.rhs(x))

    def nodal_exact(self, ns: NodeSet) -> np.ndarray:
        if self.exact is None:
            raise InvalidInputError(f"problem {self.name!r} has no exact solution")
        return np.array([float(self.exact(p)) for p in ns.points])


def preset(name: str, bounds=None) -> Problem:
    """Named problems with manufactured solutions.

    ``bvp1d``: u'' = f on an interval with zero endpoint values and
    u = sin(pi x).  ``poisson2d``: Laplace operator on the unit square with
    u = sin(pi x1) sin(pi x2).
    """
    if name == "bvp1d":
        b = np.asarray(bounds if bounds is not None else [(0.0, 1.0)], dtype=float)

        def exact(x):
            return math.sin(math.pi * float(np.asarray(x).reshape(-1)[0]))

        def rhs(x):
            return -math.pi**2 * math.sin(math.pi * float(np.asarray(x).reshape(-1)[0]))

        return Problem(
            name=name, d=1, bounds=b, operator=SECOND_DERIVATIVE_1D,
            rhs=rhs, dirichlet=lambda x: 0.0, exact=exact,
        )
    if name == "poisson2d":
        b = np.asarray(bounds if bounds is not None else [(0.0, 1.0), (0.0, 1.0)], dtype=float)

        def exact(x):
            x = np.asarray(x, dtype=float).reshape(-1)
            return math.sin(math.pi * x[0]) * math.sin(math.pi * x[1])

        def rhs(x):
            return -2.0 * math.pi**2 * exact(x)

        return Problem(
            name=name, d=2, bounds=b, operator=LAPLACIAN,
            rhs=rhs, dirichlet=lambda x: 0.0, exact=exact,
        )
    raise InvalidInputError(f"unknown problem preset {name!r}, expected one of {PRESETS}")


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


def numeric_operator_apply(op: Operator, fn, x, step: float = 1e-2) -> float:
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


def consistency_defect(problem: Problem, points) -> float:
    """Max relative defect of L(exact) - rhs at the given interior points."""
    if problem.exact is None:
        raise InvalidInputError("consistency check needs an exact solution")
    worst = 0.0
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        lhs = numeric_operator_apply(problem.operator, problem.exact, x)
        target = float(problem.rhs(x))
        worst = max(worst, abs(lhs - target) / max(1.0, abs(target)))
    return worst


@dataclass(frozen=True)
class LevelResult:
    """One refinement level of a convergence study."""

    level: int
    h: float
    n_nodes: int
    max_err: float
    observed_order: float | None


def convergence_study(problem: Problem, run_level, levels) -> list[LevelResult]:
    """Max-norm nodal errors and observed orders over refinement levels.

    ``run_level(problem, level)`` returns ``(h, nodeset, nodal_values)``;
    errors are measured over interior nodes against the exact solution.  A
    failing level aborts the study naming the level.
    """
    levels = list(levels)
    if len(levels) < 3:
        raise InvalidInputError("a convergence study needs at least 3 levels")
    if problem.exact is None:
        raise InvalidInputError("a convergence study needs an exact solution")
    raw = []
    for lv in levels:
        try:
            h, ns, u_hat = run_level(problem, lv)
        except Exception as exc:
            raise MeshfdError(f"convergence study aborted at level {lv!r}: {exc}") from exc
        exact = problem.nodal_exact(ns)
        interior = ns.interior_indices
        err = float(np.max(np.abs(np.asarray(u_hat)[interior] - exact[interior])))
        raw.append((lv, float(h), ns.n, err))

    results: list[LevelResult] = []
    prev = None
    for lv, h, n, err in raw:
        order = None
        if prev is not None:
            h_prev, err_prev = prev
            if err > 0.0 and err_prev > 0.0 and h_prev != h:
                order = math.log(err_prev / err) / math.log(h_prev / h)
        results.append(LevelResult(level=lv, h=h, n_nodes=n, max_err=err, observed_order=order))
        prev = (h, err)
    return results


def with_exact(problem: Problem, exact, rhs) -> Problem:
    """A copy of a problem with a different manufactured solution."""
    return replace(problem, exact=exact, rhs=rhs)
