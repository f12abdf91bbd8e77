"""Boundary-value problem definitions and the convergence-study harness.

A problem couples an operator with a right-hand side, Dirichlet data, and
(optionally) a manufactured exact solution; the operator degenerates to
the identity at boundary nodes, so assembly extends the right-hand side
to the boundary with the Dirichlet values.  Problem data are fields: the
right-hand side, the Dirichlet data and the exact solution each take an
(n, d) array of points and return an (n,) array, and the library calls
each once per row or node set (n may be 0).  A result of any other shape,
a scalar included, raises `InvalidInputError` naming the callable, so a
callable that returns one value per call is refused.  The presets act on
``x[..., k]``, so one point (d,) gives a 0-d value.  The presets'
manufactured solutions are checked against their right-hand sides by a
high-order finite-difference oracle (`consistency_defect` in
`tests/helpers.py`), independent of any solver machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, MeshfdError
from .geometry import NodeSet
from .operators import LAPLACIAN, SECOND_DERIVATIVE_1D, Operator

PRESETS = ("bvp1d", "poisson2d")


@dataclass(frozen=True, eq=False)
class Problem:
    """Operator equation Lu = f on a box with Dirichlet boundary data.

    ``rhs``, ``dirichlet`` and ``exact`` map an (n, d) array of points to
    an (n,) array; a result of any other shape raises `InvalidInputError`
    naming the callable where the library calls it.
    """

    name: str
    d: int
    bounds: np.ndarray
    operator: Operator
    rhs: Callable
    dirichlet: Callable
    exact: Callable | None = None

    def __post_init__(self):
        object.__setattr__(self, "bounds", np.asarray(self.bounds, dtype=float).reshape(self.d, 2))

    def nodal_exact(self, ns: NodeSet) -> np.ndarray:
        """The exact solution at every node, from one call of ``exact`` on all of them."""
        if self.exact is None:
            raise InvalidInputError(f"problem {self.name!r} has no exact solution")
        return _field_values(self.exact, ns.points, "exact")


def _field_values(fn, points: np.ndarray, name: str) -> np.ndarray:
    """``fn(points)`` for (n, d) points as an (n,) float array; any other shape raises naming ``name``."""
    values = np.asarray(fn(points), dtype=float)
    if values.shape != points.shape[:1]:
        raise InvalidInputError(f"{name} must map (n, d) points to an (n,) array: "
                                f"got shape {values.shape} for {points.shape[0]} points")
    return values


def _zeros(x):
    return np.zeros(np.shape(x)[:-1])


def preset(name: str) -> Problem:
    """Named problems with manufactured solutions.

    ``bvp1d``: u'' = f on an interval with zero endpoint values and
    u = sin(pi x).  ``poisson2d``: Laplace operator on the unit square with
    u = sin(pi x1) sin(pi x2).  Each callable acts on the last axis of its
    argument: (n, d) points give (n,) values and one point (d,) a 0-d value.
    """
    if name == "bvp1d":
        def exact(x):
            return np.sin(math.pi * np.asarray(x, dtype=float)[..., 0])

        def rhs(x):
            return -math.pi**2 * exact(x)

        return Problem(
            name=name, d=1, bounds=[(0.0, 1.0)], operator=SECOND_DERIVATIVE_1D,
            rhs=rhs, dirichlet=_zeros, exact=exact,
        )
    if name == "poisson2d":
        def exact(x):
            x = np.asarray(x, dtype=float)
            return np.sin(math.pi * x[..., 0]) * np.sin(math.pi * x[..., 1])

        def rhs(x):
            return -2.0 * math.pi**2 * exact(x)

        return Problem(
            name=name, d=2, bounds=[(0.0, 1.0), (0.0, 1.0)], operator=LAPLACIAN,
            rhs=rhs, dirichlet=_zeros, exact=exact,
        )
    raise InvalidInputError(f"unknown problem preset {name!r}, expected one of {PRESETS}")


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
    try:
        if isinstance(levels, (str, bytes)):  # list() would split it into characters
            raise TypeError
        levels = list(levels)
    except TypeError:
        raise InvalidInputError(f"convergence levels must be a list, got {levels!r}") from None
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

