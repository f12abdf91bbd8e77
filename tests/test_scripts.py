"""Smoke tests: the scripts under scripts/ run against the package and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )


def test_dimension_probe_runs():
    res = run_script("dimension_probe.py", "--trials", "20")
    assert res.returncode == 0, res.stderr
    assert "configurations attain the lower bound" in res.stdout


def test_convergence_demo_prints_every_table():
    res = run_script("convergence_demo.py")
    assert res.returncode == 0, res.stderr
    for heading in (
        "1D u'' = f, quadratic patches",
        "2D Poisson, five-point sublist patches",
        "2D Poisson, Halton nodes, r^3 + linear tail (k = 9)",
    ):
        assert heading in res.stdout
    assert res.stdout.count("max_err") == 3
