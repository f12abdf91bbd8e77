import json
import os
from pathlib import Path

import numpy as np
import pytest

import meshfd as m
from meshfd.cli import main
from meshfd.config import resolve_config

from helpers import FIVE_STAR_SUBLIST


def write_config(path, cfg):
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def run_cli(command, cfg_path, out_dir, extra=()):
    return main([command, "--config", str(cfg_path), "--out-dir", str(out_dir), *extra])


def read_outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.fixture
def dim_config(tmp_path):
    n = 4
    cfg = {
        "nodes": {"kind": "grid", "d": 2, "n_per_axis": n + 1, "bounds": [[0.0, 1.0], [0.0, 1.0]]},
        "space": {"kind": "poly", "degree": 2},
        "selector": {"kind": "range", "radius": 1.2 / n},
        "centers": "interior",
        "uncovered": "constant-patch",
    }
    return write_config(tmp_path / "dim.json.in", cfg)


@pytest.fixture
def solve_config(tmp_path):
    cfg = {
        "nodes": {"kind": "grid", "d": 1, "n_per_axis": 33, "bounds": [[0.0, 1.0]]},
        "space": {"kind": "poly", "degree": 2},
        "selector": {"kind": "knn", "k": 3},
        "centers": "interior",
        "problem": {"preset": "bvp1d"},
        "strategy": {"kind": "same-index"},
        "mode": "collocate",
        "route": "exactness",
    }
    return write_config(tmp_path / "solve.json.in", cfg)


class TestDimCommand:
    def test_reports_the_grid_dimension_split(self, dim_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("dim", dim_config, out) == 0
        doc = json.loads((out / "dim.json").read_text())
        assert doc == {"dim": 34, "ker": 9, "im": 25, "lower_bound": 34, "interpolatory": False}
        printed = json.loads(capsys.readouterr().out)
        assert printed["dim"] == 34

    def test_benchmark_size_grid(self, tmp_path):
        """A 65^2 kNN-5 grid with the five-point sublist: 21125 coefficients, analyzed from per-patch ranks."""
        cfg = {
            "nodes": {"kind": "grid", "d": 2, "n_per_axis": 65, "bounds": [[0.0, 1.0], [0.0, 1.0]]},
            "space": {"kind": "poly", "degree": 2, "sublist": [list(a) for a in FIVE_STAR_SUBLIST]},
            "selector": {"kind": "knn", "k": 5},
        }
        out = tmp_path / "out"
        assert run_cli("dim", write_config(tmp_path / "dim.json.in", cfg), out) == 0
        doc = json.loads((out / "dim.json").read_text())
        assert doc == {"dim": 4229, "ker": 256, "im": 3973, "lower_bound": 4225, "interpolatory": False}


class TestStencilCommand:
    def test_five_point_row(self, tmp_path, capsys):
        n = 8
        cfg = {
            "nodes": {"kind": "grid", "d": 2, "n_per_axis": n + 1, "bounds": [[0.0, 1.0], [0.0, 1.0]]},
            "space": {"kind": "poly", "degree": 2, "sublist": [list(a) for a in FIVE_STAR_SUBLIST]},
            "selector": {"kind": "range", "radius": 1.2 / n},
            "operator": {"kind": "laplacian"},
            "stencil": {"y": [0.5, 0.5]},
        }
        path = write_config(tmp_path / "stencil.json.in", cfg)
        out = tmp_path / "out"
        assert run_cli("stencil", path, out) == 0
        row = json.loads((out / "stencil.json").read_text())
        h2 = (1.0 / n) ** 2
        weights = np.array(row["weights"]) * h2
        assert weights[0] == pytest.approx(-4.0, abs=1e-12)
        assert np.allclose(weights[1:], 1.0, atol=1e-12)
        assert row["residual"] <= 1e-8
        assert len(row["nodes"]) == 5


    def test_unsolvable_row_exits_one_with_its_error(self, tmp_path, capsys):
        cfg = {
            "nodes": {"kind": "grid", "d": 1, "n_per_axis": 9, "bounds": [[0.0, 1.0]]},
            "space": {"kind": "poly", "degree": 2},
            "selector": {"kind": "knn", "k": 2},
            "operator": {"kind": "second-derivative-1d"},
            "stencil": {"y": [0.5]},
        }
        path = write_config(tmp_path / "stencil.json.in", cfg)
        assert run_cli("stencil", path, tmp_path / "out") == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "UnsolvableExactnessError", "message": "exactness defect 1.00e+00: system rank 2, "
                       "augmented rank 3 (3 conditions, 2 nodes)"}


    def test_non_numeric_point_exits_one(self, tmp_path, capsys):
        cfg = {
            "nodes": {"kind": "grid", "d": 2, "n_per_axis": 5},
            "space": {"kind": "poly", "degree": 1},
            "selector": {"kind": "knn", "k": 3},
            "operator": {"kind": "laplacian"},
            "stencil": {"y": ["a", 0.5]},
        }
        assert run_cli("stencil", write_config(tmp_path / "stencil.json.in", cfg), tmp_path / "out") == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "InvalidInputError", "message": "center points must be numbers, got [['a', 0.5]]"}


class TestGenerateCommand:
    def test_writes_nodes_csv(self, tmp_path):
        cfg = {"nodes": {"kind": "scattered", "d": 2, "count": 40, "bounds": [[0, 1], [0, 1]]}}
        path = write_config(tmp_path / "gen.json.in", cfg)
        out = tmp_path / "out"
        assert run_cli("generate", path, out) == 0
        ns = m.load_nodes(out / "nodes.csv")
        assert int((~ns.boundary_mask).sum()) == 40

    def test_integer_seed_is_kept(self, tmp_path):
        cfg = {"seed": 2, "nodes": {"kind": "scattered", "d": 2, "count": 5, "source": "random"}}
        out = tmp_path / "out"
        assert run_cli("generate", write_config(tmp_path / "gen.json.in", cfg), out) == 0
        assert json.loads((out / "report.json").read_text())["config"]["seed"] == 2
        del cfg["seed"]
        assert run_cli("generate", write_config(tmp_path / "gen0.json.in", cfg), tmp_path / "o", ["--seed", "2"]) == 0
        assert (out / "nodes.csv").read_bytes() == (tmp_path / "o" / "nodes.csv").read_bytes()

    def test_generated_file_feeds_other_commands(self, tmp_path):
        gen_cfg = {"nodes": {"kind": "scattered", "d": 2, "count": 60, "bounds": [[0, 1], [0, 1]]}}
        path = write_config(tmp_path / "gen.json.in", gen_cfg)
        out = tmp_path / "out"
        assert run_cli("generate", path, out) == 0
        solve_cfg = {
            "nodes": {"kind": "file", "path": str(out / "nodes.csv")},
            "space": {"kind": "polyharmonic", "exponent": 3.0},
            "selector": {"kind": "knn", "k": 9},
            "problem": {"preset": "poisson2d"},
        }
        path2 = write_config(tmp_path / "solve.json.in", solve_cfg)
        assert run_cli("solve", path2, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["max_err_interior"] < 1.0


class TestSolveCommand:
    def test_solution_csv_columns(self, solve_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("solve", solve_config, out) == 0
        lines = (out / "solution.csv").read_text().splitlines()
        assert lines[0] == "x1,u_hat,u_exact,abs_err"
        assert len(lines) == 34
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["max_err_interior"] <= 1e-3
        assert report["config"]["mode"] == "collocate"

    def test_byte_identical_reruns(self, solve_config, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli("solve", solve_config, out1) == 0
        assert run_cli("solve", solve_config, out2) == 0
        assert read_outputs(out1) == read_outputs(out2)

    def test_report_roundtrip_reproduces_outputs(self, solve_config, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run_cli("solve", solve_config, out1) == 0
        assert run_cli("solve", out1 / "report.json", out2) == 0
        assert read_outputs(out1) == read_outputs(out2)

    def test_kernel_space_echoes_the_default_tail_degree(self, tmp_path):
        cfg = {
            "nodes": {"kind": "scattered", "d": 2, "count": 60, "bounds": [[0, 1], [0, 1]]},
            "space": {"kind": "polyharmonic", "exponent": 3.0},
            "selector": {"kind": "knn", "k": 12},
            "problem": {"preset": "poisson2d"},
        }
        out = tmp_path / "out"
        assert run_cli("solve", write_config(tmp_path / "solve.json.in", cfg), out) == 0
        space = json.loads((out / "report.json").read_text())["config"]["space"]
        assert space == {"kind": "polyharmonic", "exponent": 3.0, "augmentation_degree": 2}

    def test_timings_flag_adds_timings(self, solve_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli("solve", solve_config, out, extra=["--timings"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "timings" in report and report["timings"]["total_s"] > 0


class TestSolveLsqMode:
    def test_aggregate_least_squares_run(self, tmp_path):
        cfg = {
            "nodes": {"kind": "scattered", "d": 2, "count": 80, "bounds": [[0, 1], [0, 1]]},
            "space": {"kind": "polyharmonic", "exponent": 3.0},
            "selector": {"kind": "knn", "k": 9},
            "problem": {"preset": "poisson2d"},
            "strategy": {"kind": "per-set-aggregate"},
            "mode": "lsq",
        }
        path = write_config(tmp_path / "lsq.json.in", cfg)
        out = tmp_path / "out"
        assert run_cli("solve", path, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["M"] > report["results"]["N"]
        assert report["results"]["full_rank"] is True


class TestNearestNodeStrategy:
    @staticmethod
    def config(strategy, mode="collocate"):
        return {
            "nodes": {"kind": "grid", "d": 1, "n_per_axis": 17, "bounds": [[0.0, 1.0]]},
            "space": {"kind": "poly", "degree": 2},
            "selector": {"kind": "knn", "k": 3},
            "centers": "all",
            "problem": {"preset": "bvp1d"},
            "strategy": strategy,
            "mode": mode,
        }

    def test_collocation_at_the_nodes_equals_same_index(self, tmp_path):
        """Every node centres a patch, so each node's nearest patch is its own."""
        out = {}
        for name, strategy in (("same", {"kind": "same-index"}),
                               ("nearest", {"kind": "nearest-node", "collocation": {"kind": "nodes"}})):
            out[name] = tmp_path / name
            assert run_cli("solve", write_config(tmp_path / f"{name}.json.in", self.config(strategy)), out[name]) == 0
        assert (out["same"] / "solution.csv").read_bytes() == (out["nearest"] / "solution.csv").read_bytes()

    def test_grid_collocation_oversamples_in_lsq_mode(self, tmp_path):
        strategy = {"kind": "nearest-node", "collocation": {"kind": "grid", "n_per_axis": 33}}
        out = tmp_path / "out"
        assert run_cli("solve", write_config(tmp_path / "lsq.json.in", self.config(strategy, "lsq")), out) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert (results["M"], results["N"]) == (33, 17)


class TestConvergeCommand:
    def test_rate_table_csv(self, tmp_path):
        cfg = {
            "nodes": {"kind": "grid", "d": 1, "n_per_axis": 9, "bounds": [[0.0, 1.0]]},
            "space": {"kind": "poly", "degree": 2},
            "selector": {"kind": "knn", "k": 3},
            "centers": "interior",
            "problem": {"preset": "bvp1d"},
            "levels": {"n_per_axis": [9, 17, 33]},
        }
        path = write_config(tmp_path / "conv.json.in", cfg)
        out = tmp_path / "out"
        assert run_cli("converge", path, out) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "h,N,max_err,observed_order"
        assert len(lines) == 4
        last = lines[-1].split(",")
        assert float(last[3]) >= 1.9


    def test_one_bounds_pair_gives_the_same_table(self, tmp_path):
        cfg = {
            "nodes": {"kind": "grid", "d": 1, "n_per_axis": 9},
            "space": {"kind": "poly", "degree": 2},
            "selector": {"kind": "knn", "k": 3},
            "centers": "interior",
            "problem": {"preset": "bvp1d"},
            "levels": {"n_per_axis": [9, 17, 33]},
        }
        tables = []
        for name, bounds in (("pairs", [[0.0, 1.0]]), ("pair", [0.0, 1.0])):
            cfg["nodes"]["bounds"] = bounds
            out = tmp_path / name
            assert run_cli("converge", write_config(tmp_path / f"{name}.json.in", cfg), out) == 0
            tables.append((out / "convergence.csv").read_bytes())
        assert tables[0] == tables[1]
        assert [line.split(",")[0] for line in tables[0].decode().splitlines()[1:]] == ["0.125", "0.0625", "0.03125"]

    def test_scattered_count_levels(self, tmp_path):
        cfg = {
            "nodes": {"kind": "scattered", "d": 2, "count": 30, "bounds": [[0, 1], [0, 1]]},
            "space": {"kind": "polyharmonic", "exponent": 3.0},
            "selector": {"kind": "knn", "k": 9},
            "problem": {"preset": "poisson2d"},
            "levels": {"count": [30, 60, 120]},
        }
        out = tmp_path / "out"
        assert run_cli("converge", write_config(tmp_path / "conv.json.in", cfg), out) == 0
        rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3
        h = [float(row[0]) for row in rows]
        assert h[0] > h[1] > h[2]


class TestPumEvalCommand:
    def test_blended_grid_csv(self, tmp_path):
        cfg = {
            "nodes": {"kind": "grid", "d": 1, "n_per_axis": 17, "bounds": [[0.0, 1.0]]},
            "space": {"kind": "poly", "degree": 2},
            "selector": {"kind": "knn", "k": 3},
            "centers": "interior",
            "problem": {"preset": "bvp1d"},
            "values": {"kind": "exact"},
            "eval": {"kind": "grid", "n_per_axis": 33},
        }
        path = write_config(tmp_path / "pum.json.in", cfg)
        out = tmp_path / "out"
        assert run_cli("pum-eval", path, out) == 0
        lines = (out / "pum.csv").read_text().splitlines()
        assert lines[0] == "x1,value"
        assert len(lines) == 34
        for line in lines[1:]:
            x, v = (float(t) for t in line.split(","))
            assert abs(v - np.sin(np.pi * x)) < 5e-3


    def test_non_finite_value_in_file_reported(self, tmp_path, capsys):
        values = tmp_path / "values.csv"
        values.write_text("value\n" + "\n".join(["0.5"] * 3 + ["nan"] + ["0.5"] * 13) + "\n")
        cfg = {
            "nodes": {"kind": "grid", "d": 1, "n_per_axis": 17, "bounds": [[0.0, 1.0]]},
            "space": {"kind": "poly", "degree": 2},
            "selector": {"kind": "knn", "k": 3},
            "centers": "all",
            "values": {"kind": "file", "path": str(values)},
        }
        path = write_config(tmp_path / "pum.json.in", cfg)
        assert run_cli("pum-eval", path, tmp_path / "out") == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InvalidInputError", "message": "value at node 3 is not finite: nan"}


    def test_non_numeric_value_row_reported(self, tmp_path, capsys):
        values = tmp_path / "values.csv"
        values.write_text("value\n" + "\n".join(["0.5"] * 3 + ["abc"] + ["0.5"] * 13) + "\n")
        cfg = {
            "nodes": {"kind": "grid", "d": 1, "n_per_axis": 17, "bounds": [[0.0, 1.0]]},
            "space": {"kind": "poly", "degree": 2},
            "selector": {"kind": "knn", "k": 3},
            "centers": "all",
            "values": {"kind": "file", "path": str(values)},
        }
        assert run_cli("pum-eval", write_config(tmp_path / "pum.json.in", cfg), tmp_path / "out") == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigError", "message": f"nodal value file {values}, line 5: ['abc'] is not one number"}


class TestSubprocessInvocation:
    def test_two_processes_produce_identical_bytes(self, solve_config, tmp_path):
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outs = []
        for run in (1, 2):
            out_dir = tmp_path / f"proc-{run}"
            res = subprocess.run(
                [sys.executable, "-m", "meshfd.cli", "solve",
                 "--config", str(solve_config), "--out-dir", str(out_dir)],
                capture_output=True, text=True, env=env,
            )
            assert res.returncode == 0, res.stderr
            outs.append(read_outputs(out_dir))
        assert outs[0] == outs[1]


class TestErrorHandling:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.json"])
        assert exc.value.code == 2

    def test_config_error_returns_one(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json.in", {"space": {"kind": "poly", "degree": 2}})
        assert main(["dim", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json.in", {"nodez": {}})
        assert main(["generate", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
        assert "nodez" in json.loads(capsys.readouterr().err)["message"]

    def test_removed_threads_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path / "old.json.in", {"threads": 2})
        assert main(["generate", "--config", path, "--out-dir", str(tmp_path / "o")]) == 1
        assert "threads" in json.loads(capsys.readouterr().err)["message"]
        with pytest.raises(SystemExit):
            main(["generate", "--config", path, "--threads", "2"])

    @pytest.mark.parametrize("bad, message", [("nan", "node 1 is not finite: [0.5, nan]"),
                                              ("abc", "row 3 in ")])
    def test_bad_node_file_returns_one(self, tmp_path, capsys, bad, message):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(f"x1,x2,boundary\n0.0,0.0,1\n0.5,{bad},0\n1.0,1.0,1\n")
        cfg = {
            "nodes": {"kind": "file", "path": str(nodes)},
            "space": {"kind": "poly", "degree": 0},
            "selector": {"kind": "knn", "k": 1},
            "centers": "all",
        }
        assert run_cli("dim", write_config(tmp_path / "dim.json.in", cfg), tmp_path / "o") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidInputError"
        assert message in err["message"]

    @pytest.mark.parametrize("space, message", [
        ('{"kind": "polyharmonic", "exponent": 1e400}', "kernel parameter must be finite and positive, got inf"),
        ('{"kind": "gauss", "shape": NaN}', "kernel parameter must be finite and positive, got nan"),
        ('{"kind": "polyharmonic", "exponent": 3.0, "augmentation_degree": 1.5}',
         "a degree must be an integer, got 1.5"),
        ('{"kind": "gauss", "shape": 1.0, "augmentation_degree": true}', "a degree must be an integer, got True"),
        ('{"kind": "gauss", "shape": "abc"}', "kernel parameter must be a number, got 'abc'"),
        ('{"kind": "polyharmonic", "exponent": 3.0, "augmentation_degree": "minimal"}',
         "a degree must be an integer, got 'minimal'"),
    ], ids=["exponent-1e400", "shape-nan", "degree-1.5", "degree-true", "shape-abc", "degree-minimal"])
    def test_bad_kernel_or_recipe_parameter_returns_one(self, tmp_path, capsys, space, message):
        path = tmp_path / "solve.json.in"
        path.write_text('{"nodes": {"kind": "scattered", "d": 2, "count": 30, "bounds": [[0, 1], [0, 1]]}, '
                        f'"space": {space}, "selector": {{"kind": "knn", "k": 9}}, '
                        '"problem": {"preset": "poisson2d"}}')
        assert run_cli("solve", path, tmp_path / "o") == 1
        assert json.loads(capsys.readouterr().err) == {"error": "InvalidInputError", "message": message}

    @pytest.mark.parametrize("section, value, message", [
        ("selector", {"kind": "knn", "k": 9.5}, "knn selector needs an integer k, got 9.5"),
        ("selector", {"kind": "range", "radius": "abc"}, "range selector needs a positive finite radius, got 'abc'"),
        ("nodes", {"kind": "grid", "d": 2, "n_per_axis": 9.7}, "n_per_axis must be an integer, got 9.7"),
        ("nodes", {"kind": "scattered", "d": 2, "count": 30.5}, "count must be an integer, got 30.5"),
        ("nodes", {"kind": "scattered", "d": 2.0, "count": 30}, "dimension must be an integer, got 2.0"),
        ("nodes", {"kind": "grid", "d": 2, "n_per_axis": 5, "bounds": [["a", 1], [0, 1]]},
         "box bounds must be numbers, got [['a', 1], [0, 1]]"),
        ("seed", 2.5, "seed must be an integer, got 2.5"),
        ("centers", [10.7, 40.2, 70.9], "center indices must be integers, got 10.7"),
        ("strategy", {"kind": "nearest-node", "collocation": {"kind": "points", "points": [["a", 0.5]]}},
         "collocation points must be numbers, got [['a', 0.5]]"),
    ], ids=["k-9.5", "radius-abc", "n_per_axis-9.7", "count-30.5", "d-2.0", "bounds-a", "seed-2.5",
            "centers-10.7", "points-a"])
    def test_config_value_is_not_coerced(self, tmp_path, capsys, section, value, message):
        cfg = {
            "nodes": {"kind": "scattered", "d": 2, "count": 30},
            "space": {"kind": "polyharmonic", "exponent": 3.0},
            "selector": {"kind": "knn", "k": 9},
            "problem": {"preset": "poisson2d"},
        }
        cfg[section] = value
        assert run_cli("solve", write_config(tmp_path / "solve.json.in", cfg), tmp_path / "o") == 1
        assert json.loads(capsys.readouterr().err) == {"error": "InvalidInputError", "message": message}

    @pytest.mark.parametrize("text, message", [
        ('{"nodes": ', "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ('{"space": {"kind": "spline"}}', "space kind must be one of ('poly', 'gauss', 'polyharmonic')"),
        ('{"mode": "fit"}', "mode must be 'collocate' or 'lsq'"),
        ('{"route": "cardinal"}', "route must be 'exactness' or 'lagrange'"),
        ('{"uncovered": "drop"}', "uncovered must be 'error' or 'constant-patch'"),
        ('{"problem": {"preset": "poisson2d", "bounds": [[0, 2], [0, 2]]}}',
         "the 'problem' section takes the keys ['preset'], got unknown ['bounds']"),
        ('{"problem": {"preset": "poisson2d", "bounds": [0.0, 1.0]}}', "the 'problem' section takes the keys ['preset']"),
    ], ids=["json", "not-an-object", "space-kind", "mode", "route", "uncovered", "problem-bounds", "problem-pair"])
    def test_config_refusal_returns_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json.in"
        path.write_text(text)
        assert run_cli("solve", path, tmp_path / "o") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert message in err["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


class TestConfigTable:
    """`resolve_config` checks every section against the one table and fills in its defaults."""

    BASE = {
        "nodes": {"kind": "grid", "d": 1, "n_per_axis": 9},
        "space": {"kind": "poly", "degree": 2},
        "selector": {"kind": "knn", "k": 3},
        "problem": {"preset": "bvp1d"},
    }

    @pytest.mark.parametrize("command, section, value, error, message", [
        ("solve", "strategy", "same-index", "ConfigError",
         "the 'strategy' section must be a JSON object or null, got 'same-index'"),
        ("solve", "selector", {"kind": "knn", "kk": 9}, "ConfigError",
         "the 'selector' section of kind 'knn' takes the keys ['k', 'kind'], got unknown ['kk']"),
        ("generate", "nodes", {"kind": "grid", "d": 1}, "ConfigError",
         "the 'nodes' section of kind 'grid' takes the keys ['bounds', 'd', 'kind', 'n_per_axis'], "
         "misses ['n_per_axis']"),
        ("solve", "space", {"kind": "poly", "degree": 2, "degre": 3}, "ConfigError",
         "the 'space' section of kind 'poly' takes the keys ['degree', 'kind', 'sublist'], got unknown ['degre']"),
        ("generate", "outputs", {"report": 3}, "ConfigError", "outputs must be file names, got {"),
        ("generate", "nodes", {"kind": "file", "path": "nope.csv"}, "InvalidInputError",
         "cannot read node file nope.csv: [Errno 2]"),
        ("generate", "nodes", {"kind": "file", "path": 5}, "InvalidInputError",
         "a node file path must be a string, got 5"),
        ("pum-eval", "values", {"kind": "file", "path": "nope.csv"}, "ConfigError",
         "cannot read nodal value file nope.csv: [Errno 2]"),
        ("pum-eval", "values", {"kind": "file", "path": 5}, "ConfigError",
         "a nodal value file path must be a string, got 5"),
        ("dim", "centers", {"a": 1}, "InvalidInputError", "center points must be numbers, got {'a': 1}"),
        ("dim", "space", {"kind": "poly", "degree": 2, "sublist": 5}, "InvalidInputError",
         "a sublist must list exponent tuples, got 5"),
        ("converge", "levels", {"n_per_axis": 9}, "InvalidInputError", "convergence levels must be a list, got 9"),
        ("converge", "levels", {"n_per_axis": "100"}, "InvalidInputError",
         "convergence levels must be a list, got '100'"),
        ("converge", "levels", {"n_per_axis": [9, 17, 33], "count": [9, 17, 33]}, "ConfigError",
         "the 'levels' section takes one of 'n_per_axis' and 'count'"),
        ("generate", "outputs", {"nodes": ""}, "InvalidInputError",
         "cannot write node file o/: [Errno 21] Is a directory"),
        ("generate", "outputs", {"nodes": "a/b/c.csv"}, "InvalidInputError",
         "cannot write node file o/a/b/c.csv: [Errno 2] No such file or directory"),
        ("dim", "outputs", {"dim": "a/dim.json"}, "ConfigError",
         "cannot write output file o/a/dim.json: [Errno 2] No such file or directory"),
        ("solve", "selector", {"kind": "range", "radius": True}, "InvalidInputError",
         "range selector needs a positive finite radius, got True"),
        ("generate", "nodes", {"kind": "scattered", "d": 2, "count": 30, "boundary_per_side": 0},
         "InvalidInputError", "boundary_per_side must be at least 2"),
    ], ids=["strategy-string", "selector-kk", "grid-no-n_per_axis", "space-degre", "outputs-number",
            "missing-node-file", "node-path-5", "missing-values-file", "values-path-5", "centers-dict",
            "sublist-5", "levels-number", "levels-string", "levels-two-keys", "nodes-output-directory",
            "nodes-output-no-parent", "dim-output-no-parent", "range-radius-true", "scattered-boundary-0"])
    def test_malformed_config_exits_one_with_its_error(self, tmp_path, monkeypatch, capsys, command, section,
                                                       value, error, message):
        monkeypatch.chdir(tmp_path)  # where the relative "nope.csv" is looked for
        assert run_cli(command, write_config(tmp_path / "bad.json.in", dict(self.BASE, **{section: value})), "o") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert err["message"].startswith(message)

    @pytest.mark.parametrize("cfg", [
        {},
        BASE,
        dict(BASE, strategy={"kind": "nearest-node", "collocation": {"kind": "grid", "n_per_axis": 5}},
             levels={"count": [1, 2, 3]}, outputs={"report": "r.json"}, values={"kind": "file", "path": "v.csv"}),
        {"space": {"kind": "gauss", "shape": 1.0}, "eval": {"n_per_axis": 3}, "strategy": {}, "seed": 4},
    ], ids=["empty", "base", "nested", "kind-from-default"])
    def test_resolving_twice_is_resolving_once(self, cfg):
        once = resolve_config(cfg)
        assert resolve_config(once) == once

    def test_left_out_defaults_and_spelled_out_defaults_give_the_same_bytes(self, tmp_path):
        spelled = {
            "seed": 0, "centers": "all", "uncovered": "error", "mode": "collocate", "route": "exactness",
            "nodes": {"kind": "grid", "d": 1, "n_per_axis": 9, "bounds": None},
            "space": {"kind": "poly", "degree": 2, "sublist": None},
            "selector": {"kind": "knn", "k": 3},
            "operator": None,
            "problem": {"preset": "bvp1d"},
            "strategy": {"kind": "same-index"},
            "stencil": None,
            "levels": None,
            "eval": {"kind": "grid", "n_per_axis": 11, "bounds": None},
            "values": {"kind": "exact"},
            "outputs": {"nodes": "nodes.csv", "solution": "solution.csv", "report": "report.json",
                        "stencil": "stencil.json", "dim": "dim.json", "table": "convergence.csv",
                        "pum": "pum.csv"},
        }
        for command in ("solve", "pum-eval"):
            outs = []
            for name, cfg in (("left-out", self.BASE), ("spelled", spelled)):
                outs.append(tmp_path / f"{command}-{name}")
                assert run_cli(command, write_config(tmp_path / f"{name}.json.in", cfg), outs[-1]) == 0
            assert read_outputs(outs[0]) == read_outputs(outs[1])
            assert json.loads((outs[0] / "report.json").read_text())["config"] == spelled
