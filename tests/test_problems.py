import dataclasses
import math
import re

import numpy as np
import pytest

from meshfd.errors import InvalidInputError, MeshfdError
from meshfd.problems import PRESETS, LevelResult, convergence_study, preset
from meshfd.solve import assemble, build_sigma, solve_square

from helpers import consistency_defect, constant, quadratic_overlap_space_1d


def run_bvp1d_level(problem, n):
    ns, space = quadratic_overlap_space_1d(n)
    sigma = build_sigma(space, "same-index")
    gs = assemble(space, problem.operator, problem.rhs, sigma, dirichlet_data=problem.dirichlet)
    return 1.0 / n, ns, solve_square(gs).nodal_values


class TestPresets:
    def test_bvp1d_fields(self):
        p = preset("bvp1d")
        assert p.d == 1
        assert p.operator.kind == "second-derivative-1d"
        for x in (0.1, 0.37, 0.9):
            assert p.rhs([x]) == pytest.approx(-math.pi**2 * math.sin(math.pi * x), rel=1e-15)
        assert p.dirichlet([0.0]) == 0.0
        assert p.exact([0.5]) == pytest.approx(1.0, rel=1e-15)

    def test_poisson2d_fields(self):
        p = preset("poisson2d")
        assert p.d == 2
        assert p.operator.kind == "laplacian"
        x = np.array([0.3, 0.8])
        u = math.sin(math.pi * 0.3) * math.sin(math.pi * 0.8)
        assert p.exact(x) == pytest.approx(u, rel=1e-15)
        assert p.rhs(x) == pytest.approx(-2 * math.pi**2 * u, rel=1e-15)

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_data_are_fields_equal_to_one_point_calls(self, name, rng):
        p = preset(name)
        points = rng.uniform(-0.5, 1.5, size=(64, p.d))
        for fn in (p.rhs, p.dirichlet, p.exact):
            one = [fn(x) for x in points]
            assert all(np.shape(v) == () for v in one)  # one point (d,) gives a 0-d value
            values = fn(points)
            assert values.shape == (64,)
            assert np.array_equal(values, np.array(one, dtype=float))

    @pytest.mark.parametrize("bad, shape", [(lambda x: float(x[0, 0]), "()"), (lambda x: x[:, :1], "(9, 1)")],
                             ids=["scalar", "column"])
    def test_nodal_exact_refuses_another_shape(self, bad, shape):
        p = dataclasses.replace(preset("bvp1d"), exact=bad)
        ns, _ = quadratic_overlap_space_1d(8)
        message = f"exact must map (n, d) points to an (n,) array: got shape {shape} for 9 points"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            p.nodal_exact(ns)

    def test_unknown_preset(self):
        with pytest.raises(InvalidInputError):
            preset("stokes3d")

    def test_self_consistency_via_finite_differences(self, rng):
        p1 = preset("bvp1d")
        pts1 = rng.uniform(0.1, 0.9, size=(20, 1))
        assert consistency_defect(p1, pts1) <= 1e-10
        p2 = preset("poisson2d")
        pts2 = rng.uniform(0.1, 0.9, size=(20, 2))
        assert consistency_defect(p2, pts2) <= 1e-10

    def test_boundary_extension_of_rhs(self):
        """Assembly takes the Dirichlet values on the boundary rows and the right-hand side elsewhere."""
        p = dataclasses.replace(preset("bvp1d"), dirichlet=lambda x: 1.0 + x[:, 0])
        ns, space = quadratic_overlap_space_1d(4)
        sigma = build_sigma(space, "same-index")
        gs = assemble(space, p.operator, p.rhs, sigma, dirichlet_data=p.dirichlet)
        assert np.array_equal(gs.rhs[gs.dirichlet], [1.0, 2.0])
        assert np.array_equal(gs.rhs[~gs.dirichlet], [p.rhs(y) for y in sigma.points[~gs.dirichlet]])


class TestConvergenceStudy:
    def test_bvp1d_orders_above_threshold(self):
        p = preset("bvp1d")
        table = convergence_study(p, run_bvp1d_level, [32, 64, 128])
        assert len(table) == 3
        assert table[0].observed_order is None
        for row in table[1:]:
            assert row.observed_order >= 1.9

    def test_quadratic_solution_is_reproduced_exactly(self):
        base = preset("bvp1d")
        quad = dataclasses.replace(
            base,
            exact=lambda x: x[:, 0] * (1.0 - x[:, 0]),
            rhs=constant(-2.0),
        )
        table = convergence_study(quad, run_bvp1d_level, [8, 16, 32])
        for row in table:
            assert row.max_err <= 1e-9

    def test_too_few_levels_rejected(self):
        p = preset("bvp1d")
        with pytest.raises(InvalidInputError):
            convergence_study(p, run_bvp1d_level, [8, 16])

    def test_string_levels_rejected(self):
        with pytest.raises(InvalidInputError, match="^convergence levels must be a list, got '100'$"):
            convergence_study(preset("bvp1d"), run_bvp1d_level, "100")

    def test_failing_level_aborts_naming_it(self):
        p = preset("bvp1d")

        def broken(problem, n):
            if n == 16:
                raise RuntimeError("synthetic failure")
            return run_bvp1d_level(problem, n)

        with pytest.raises(MeshfdError, match="16"):
            convergence_study(p, broken, [8, 16, 32])

    def test_result_rows_carry_level_metadata(self):
        p = preset("bvp1d")
        table = convergence_study(p, run_bvp1d_level, [8, 16, 32])
        assert [r.level for r in table] == [8, 16, 32]
        assert all(isinstance(r, LevelResult) for r in table)
        assert all(r.n_nodes == r.level + 1 for r in table)
