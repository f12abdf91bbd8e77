"""Smoke tests: the scripts under scripts/ run against the package and print their tables or verdicts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
        "2D Poisson, Halton nodes, r^3 + quadratic tail (k = 12)",
    ):
        assert heading in res.stdout
    assert res.stdout.count("max_err") == 3
    rbf_rows = res.stdout.split("r^3 + quadratic tail (k = 12)\n")[1].splitlines()[2:4]
    orders = [float(line.split()[-1]) for line in rbf_rows]
    assert len(orders) == 2 and min(orders) >= 1.5, res.stdout


def test_bit_identity_tells_equal_dumps_from_changed_ones(tmp_path):
    first, second = tmp_path / "first.npz", tmp_path / "second.npz"
    res = run_script("bit_identity.py", "dump", str(first), "--small")
    assert res.returncode == 0, res.stderr
    res = run_script("bit_identity.py", "compare", str(first), str(first))
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines()[-1] == "48 of 48 arrays equal"  # 7 arrays x 2 orders x 3 solves, 3 x 2 for pum-eval
    with np.load(first) as dump:
        arrays = dict(dump)
    solution = arrays["rbf-collocate/generator/solution"]
    old = float(solution[3])
    solution[3] = np.nextafter(old, np.inf)
    del arrays["pum-eval/relabelled/blend"]
    np.savez(second, **arrays)
    res = run_script("bit_identity.py", "compare", str(first), str(second))
    assert res.returncode == 1
    spacing = abs(float(solution[3]) - old)  # adjacent doubles: the difference is exact
    relative = spacing / max(abs(old), abs(float(solution[3])))
    assert (f"DIFFERS  rbf-collocate/generator/solution: 1 of {solution.size} elements, "
            f"largest |difference| {spacing!r}, largest relative difference {relative!r}\n") in res.stdout
    assert "DIFFERS  pum-eval/relabelled/blend: only in the first dump" in res.stdout
    assert res.stdout.splitlines()[-1] == "46 of 48 arrays equal"


def test_bit_identity_differences_skip_slots_with_equal_bytes(tmp_path):
    """A NaN held in one slot by both dumps (a least-squares cond slot) hides no difference, nor does
    a signed zero, whose bytes differ but whose relative difference is 0/0."""
    first, second = tmp_path / "first.npz", tmp_path / "second.npz"
    np.savez(first, diagnostics=np.array([1e-13, np.nan]), solution=np.array([np.nan, 4.0, -2.0, 0.0]),
             indptr=np.array([0, 3, 5]))
    np.savez(second, diagnostics=np.array([1e-13, np.nan]), solution=np.array([np.nan, 4.0, -2.5, -0.0]),
             indptr=np.array([0, 3, 6]))
    res = run_script("bit_identity.py", "compare", str(first), str(second))
    assert res.returncode == 1
    assert res.stdout.splitlines() == [
        "equal    diagnostics: float64(2,)",
        "DIFFERS  indptr: 1 of 3 elements",
        "DIFFERS  solution: 2 of 4 elements, largest |difference| 0.5, largest relative difference 0.2",
        "1 of 3 arrays equal",
    ]


def test_bit_identity_differences_skip_slots_that_are_not_finite(tmp_path):
    """A NaN or an infinity in one dump hides no move of a finite slot: the maxima skip it and count it."""
    first, second = tmp_path / "first.npz", tmp_path / "second.npz"
    np.savez(first, solution=np.array([1.0, np.nan, 3.0]), blend=np.array([np.inf, 2.0]))
    np.savez(second, solution=np.array([1.0, 2.0, 3.5]), blend=np.array([1.0, np.nan]))
    res = run_script("bit_identity.py", "compare", str(first), str(second))
    assert res.returncode == 1
    assert res.stdout.splitlines() == [
        "DIFFERS  blend: 2 of 2 elements, 2 not finite in a dump",
        f"DIFFERS  solution: 2 of 3 elements, largest |difference| 0.5, "
        f"largest relative difference {0.5 / 3.5!r}, 1 not finite in a dump",
        "0 of 2 arrays equal",
    ]
