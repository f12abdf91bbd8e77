#!/usr/bin/env python3
"""Dump what the benchmark workloads compute, or tell whether two dumps are equal bit for bit.

    PYTHONPATH=src python3 scripts/bit_identity.py dump OUT.npz [--small]
    python3 scripts/bit_identity.py compare A.npz B.npz

``dump`` runs one pass of every workload of ``perfbench/pipeline.py``
(``--small``: its small input), once in the generator's node order and
once in the seeded relabelling, and saves into one ``.npz``: for the three
solve workloads the assembled CSR arrays (``data``, ``indices``,
``indptr``), ``rhs``, the row residuals, the solution and its
``diagnostics`` ``[residual_norm, cond_estimate]`` (a least-squares
solve has no estimate: NaN); for ``pum-eval`` the stacked patch
coefficients, the restriction and the blended values at the evaluation
points.  The library is the ``meshfd`` on ``PYTHONPATH``,
so dumping once per checkout checks that a change leaves every output as
it was.

``compare`` prints one line per array and exits with status 1 when an
array differs in dtype, shape or any byte, or is missing from one dump.
The line of a float array that differs ends with the largest absolute
and the largest relative difference (to the larger magnitude) of the
elements whose bytes differ and that are finite in both dumps, so a
rounding-level move reads as one and a NaN or an infinity, in one dump or
in both, hides no other move; it then counts the differing elements that
are not finite in a dump.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 7


def outputs(small: bool) -> dict:
    """``{"<workload>/<order>/<array>": array}`` for every workload, in both node orders."""
    sys.path.insert(0, str(PERFBENCH))  # the workloads import meshfd; `compare` needs neither
    from pipeline import WORKLOADS, make_inputs, run_pass
    from tracing import Recorder

    out = {}
    for name, wl in sorted(WORKLOADS.items()):
        wl = wl.small() if small else wl
        for order in ("generator", "relabelled"):
            res = run_pass(wl, make_inputs(wl, SEED, permute=order == "relabelled"), Recorder(False))
            key = f"{name}/{order}/"
            if res.system is not None:
                matrix, report = res.system.matrix.tocsr(), res.solution.rank_report
                cond = np.nan if report.cond_estimate is None else report.cond_estimate
                out.update({key + "data": matrix.data, key + "indices": matrix.indices,
                            key + "indptr": matrix.indptr, key + "rhs": res.system.rhs,
                            key + "residual": res.system.residual,
                            key + "solution": res.solution.nodal_values,
                            key + "diagnostics": np.array([res.solution.residual_norm, cond])})
            else:
                out.update({key + "coefficients": np.concatenate(res.spline.patch_coeffs),
                            key + "restriction": res.restricted, key + "blend": res.blended})
    return out


def differences(a: dict, b: dict) -> list[str]:
    """One line per array of either dump; the lines of arrays that differ start with DIFFERS."""
    lines = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            lines.append(f"DIFFERS  {key}: only in {'the first' if key in a else 'the second'} dump")
        elif a[key].dtype != b[key].dtype or a[key].shape != b[key].shape:
            lines.append(f"DIFFERS  {key}: {a[key].dtype}{a[key].shape} vs {b[key].dtype}{b[key].shape}")
        elif a[key].tobytes() != b[key].tobytes():
            as_bytes = [np.frombuffer(x[key].tobytes(), np.uint8).reshape(x[key].size, -1) for x in (a, b)]
            moved = np.any(as_bytes[0] != as_bytes[1], axis=1)
            line = f"DIFFERS  {key}: {int(moved.sum())} of {a[key].size} elements"
            if a[key].dtype.kind == "f":
                first, second = a[key].reshape(-1)[moved], b[key].reshape(-1)[moved]
                finite = np.isfinite(first) & np.isfinite(second)
                first, second = first[finite], second[finite]
                difference = np.abs(first - second)
                with np.errstate(invalid="ignore"):
                    relative = difference / np.maximum(np.abs(first), np.abs(second))
                relative[difference == 0.0] = 0.0  # +0.0 against -0.0: bytes differ, values do not
                if finite.any():
                    line += (f", largest |difference| {float(np.max(difference))!r}"
                             f", largest relative difference {float(np.max(relative))!r}")
                if not finite.all():
                    line += f", {int(np.count_nonzero(~finite))} not finite in a dump"
            lines.append(line)
        else:
            lines.append(f"equal    {key}: {a[key].dtype}{a[key].shape}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    dump = sub.add_parser("dump", help="run the workloads and save their outputs")
    dump.add_argument("out", type=Path)
    dump.add_argument("--small", action="store_true", help="the workloads' small inputs")
    compare = sub.add_parser("compare", help="exit 1 unless two dumps are equal bit for bit")
    compare.add_argument("first", type=Path)
    compare.add_argument("second", type=Path)
    args = ap.parse_args(argv)
    if args.command == "dump":
        arrays = outputs(args.small)
        np.savez(args.out, **arrays)
        print(f"wrote {len(arrays)} arrays to {args.out}")
        return 0
    with np.load(args.first) as first, np.load(args.second) as second:
        lines = differences(dict(first), dict(second))
    print("\n".join(lines))
    bad = sum(line.startswith("DIFFERS") for line in lines)
    print(f"{len(lines) - bad} of {len(lines)} arrays equal")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
