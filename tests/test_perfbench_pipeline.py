"""Smoke test of the benchmark pipeline: every workload's small input, checked and probed.

The benchmark's checks and probes read the library's public objects (patch
ranks, failing patches, centre nodes, sigma pairs), so a change there that
breaks the benchmark shows up here.  Nothing under ``perfbench/`` is
edited and no file is written.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from pipeline import (  # noqa: E402
    WORKLOADS,
    check_pass,
    check_relabelling,
    make_inputs,
    run_pass,
    run_probes,
)
from tracing import Recorder  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_workload_checks_and_probes(name):
    wl = WORKLOADS[name].small()
    ref_inputs = make_inputs(wl, 1, permute=False)
    inputs = make_inputs(wl, 1, permute=True)
    rec = Recorder(True)
    ref = run_pass(wl, ref_inputs, rec)
    check_pass(wl, ref, ref_inputs)
    res = run_pass(wl, inputs, rec)
    check_pass(wl, res, inputs)
    check_relabelling(wl, ref, res, inputs)
    for checked in (ref, res):
        failed = [c for c in checked.checks if not c["ok"]]
        assert failed == []
    probes = run_probes(wl, res, inputs, rec)
    assert probes
    assert {probe: out["consistent"] for probe, out in probes.items()} == dict.fromkeys(probes, True)
