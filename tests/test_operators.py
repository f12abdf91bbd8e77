"""The one operator expansion, `Operator.terms`, and the operator kinds a run config may name."""

import re

import numpy as np
import pytest

import meshfd as m
from meshfd.errors import ConfigError, InvalidInputError
from meshfd.config import resolve_config
from meshfd.runner import resolve_operator

from helpers import GENERAL_OP


class TestTerms:
    def test_general_operator_table_by_hand(self):
        # b[0] = max(x - 0.5, 0) vanishes at the first point only; a[0][1] = a[1][0] = 0.3 y
        pts = np.array([[0.2, 0.4], [0.8, 0.6]])
        betas, coef = GENERAL_OP.terms(pts)
        assert betas == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
        x, y = pts[:, 0], pts[:, 1]
        expected = np.column_stack([x * y, np.ones(2), 2.0 - y, [0.0, 0.8 - 0.5], 0.3 * y + 0.3 * y, 1.0 + x])
        assert np.array_equal(coef, expected)

    def test_zero_coefficients_add_no_term(self):
        betas, coef = GENERAL_OP.terms(np.array([[0.2, 0.0]]))  # b[0] = 0 and a[0][1] = a[1][0] = 0
        assert betas == [(0, 0), (0, 1), (0, 2), (2, 0)]
        assert np.array_equal(coef, [[0.0, 1.0, 2.0, 1.2]])

    def test_constant_kinds_broadcast_one_row(self):
        pts = np.zeros((4, 3))
        assert m.IDENTITY.terms(pts)[0] == [(0, 0, 0)]
        betas, coef = m.LAPLACIAN.terms(pts)
        assert betas == [(0, 0, 2), (0, 2, 0), (2, 0, 0)]
        assert coef.shape == (4, 3) and np.all(coef == 1.0)
        assert m.SECOND_DERIVATIVE_1D.terms(np.zeros((2, 1)))[0] == [(2,)]

    @pytest.mark.parametrize("op, message", [
        (m.SECOND_DERIVATIVE_1D, "second-derivative-1d needs a one-dimensional space"),
        (m.Operator("general-second-order", a=lambda x: np.eye(3)), r"second-order coefficient must be \(2, 2\)"),
        (m.Operator("general-second-order", b=lambda x: np.ones(3)), r"first-order coefficient must be \(2,\)"),
    ])
    def test_shape_checks(self, op, message):
        with pytest.raises(InvalidInputError, match=message):
            op.terms(np.zeros((1, 2)))


class TestResolveOperator:
    """A run config names an operator by its kind; `resolve_config` checks the kind first."""

    @pytest.mark.parametrize("kind", ["identity", "laplacian", "second-derivative-1d"])
    def test_named_kinds(self, kind):
        assert resolve_operator(resolve_config({"operator": {"kind": kind}})) == m.Operator(kind)

    @pytest.mark.parametrize("kind", ["biharmonic", "general-second-order", None])
    def test_other_kinds_are_config_errors(self, kind):
        kinds = "('identity', 'laplacian', 'second-derivative-1d')"
        with pytest.raises(ConfigError, match=rf"^operator kind must be one of {re.escape(kinds)}, got {kind!r}$"):
            resolve_config({"operator": {"kind": kind}})
