import json

import numpy as np
import pytest

import meshfd as m
from meshfd.cli import main

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


class TestGenerateCommand:
    def test_writes_nodes_csv(self, tmp_path):
        cfg = {"nodes": {"kind": "scattered", "d": 2, "count": 40, "bounds": [[0, 1], [0, 1]]}}
        path = write_config(tmp_path / "gen.json.in", cfg)
        out = tmp_path / "out"
        assert run_cli("generate", path, out) == 0
        ns = m.load_nodes(out / "nodes.csv")
        assert int((~ns.boundary_mask).sum()) == 40

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


class TestSubprocessInvocation:
    def test_two_processes_produce_identical_bytes(self, solve_config, tmp_path):
        import subprocess
        import sys

        outs = []
        for run in (1, 2):
            out_dir = tmp_path / f"proc-{run}"
            res = subprocess.run(
                [sys.executable, "-m", "meshfd.cli", "solve",
                 "--config", str(solve_config), "--out-dir", str(out_dir)],
                capture_output=True, text=True,
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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
