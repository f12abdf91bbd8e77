"""Linear differential operators acting on local function spaces.

An operator is applied to a basis, so linearity carries it to the whole
span.  At Dirichlet nodes the operator degenerates to the identity, which
is what the ``identity_on_boundary`` flag records.

This module alone lists the operator kinds, and `Operator.terms` is the one
expansion ``L = sum_beta c_beta(x) d^beta``, read by the exactness rows, the
scalar `spaces.apply_operator` and the finite-difference oracle of the
presets (`numeric_operator_apply` in `tests/helpers.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError

KINDS = ("identity", "laplacian", "second-derivative-1d", "general-second-order")


def _unit(d: int, *axes) -> tuple[int, ...]:
    """The multi-index with one derivative along each of ``axes``."""
    return tuple(axes.count(i) for i in range(d))


@dataclass(frozen=True)
class Operator:
    """A linear operator of order at most two.

    ``general-second-order`` is sum(a[k][l] d2/dxk dxl) + sum(b[k] d/dxk) + c,
    with coefficient functions of the evaluation point: ``a(x) -> (d, d)``,
    ``b(x) -> (d,)``, ``c(x) -> float``.  Any of them may be None.
    """

    kind: str
    a: Callable | None = None
    b: Callable | None = None
    c: Callable | None = None
    identity_on_boundary: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown operator kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "general-second-order" and self.a is None and self.b is None and self.c is None:
            raise InvalidInputError("general-second-order needs at least one coefficient function")

    def terms(self, points) -> tuple[list, np.ndarray]:
        """The operator at each of the (R, d) ``points``: sorted multi-indices and an (R, K) coefficient table.

        Entry (r, k) is the coefficient of ``d^betas[k]`` at ``points[r]``.  A
        constant-coefficient kind has one row, broadcast.  A general operator
        calls ``a``, ``b`` and ``c`` once per point; its zero ``a`` and ``b``
        entries add no term, and a coefficient is summed in the order ``a``
        row-major, ``b``, ``c``, so ``a[k][l]`` and ``a[l][k]`` make one entry.
        """
        points = np.asarray(points, dtype=float)
        d = points.shape[1]
        if self.kind == "general-second-order":
            rows = [self._point_terms(x, d) for x in points]
        elif self.kind == "second-derivative-1d" and d != 1:
            raise InvalidInputError("second-derivative-1d needs a one-dimensional space")
        else:
            fixed = {"identity": [_unit(d)], "second-derivative-1d": [(2,)],
                     "laplacian": [_unit(d, a, a) for a in range(d)]}[self.kind]
            rows = [dict.fromkeys(fixed, 1.0)]
        betas = sorted(set().union(*rows))
        coef = np.array([[row.get(beta, 0.0) for beta in betas] for row in rows])
        return betas, np.broadcast_to(coef, (len(points), len(betas)))

    def _point_terms(self, x, d: int) -> dict:
        """``{beta: coefficient}`` of a general operator at one point, summed in the order a, b, c."""
        pairs = []
        if self.a is not None:
            a = np.atleast_2d(np.asarray(self.a(x), dtype=float))
            if a.shape != (d, d):
                raise InvalidInputError(f"second-order coefficient must be ({d}, {d})")
            pairs += [(_unit(d, k, l), float(a[k, l])) for k in range(d) for l in range(d) if a[k, l] != 0.0]
        if self.b is not None:
            b = np.asarray(self.b(x), dtype=float).reshape(-1)
            if b.shape != (d,):
                raise InvalidInputError(f"first-order coefficient must be ({d},)")
            pairs += [(_unit(d, k), float(b[k])) for k in range(d) if b[k] != 0.0]
        if self.c is not None:
            pairs.append((_unit(d), float(self.c(x))))
        terms: dict = {}
        for beta, c in pairs:
            terms[beta] = terms.get(beta, 0.0) + c
        return terms


IDENTITY = Operator("identity")
LAPLACIAN = Operator("laplacian")
SECOND_DERIVATIVE_1D = Operator("second-derivative-1d")
