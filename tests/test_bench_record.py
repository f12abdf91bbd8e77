"""`scripts/bench_record.py` on synthetic benchmark reports."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench_record  # noqa: E402

METRICS = ("setup_s", "stage_s", "total_s", "result_max_err", "peak_rss_mb")


def write_report(checkout: Path, seed: int, values: dict, attempted: int, failed: int, numpy="2.4.6",
                 workload="fivepoint-grid", per_layer=None):
    out = checkout / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    trace = per_layer is not None
    report = {
        "workload": workload, "seed": seed, "seconds": 30.0, "trace": trace,
        "environment": {"python": "3.11.7", "numpy": numpy, "scipy": "1.17.1", "nproc": 2},
        "attempted": attempted, "failed": failed,
        "per_layer": {name: {"median": value} for name, value in (per_layer or {}).items()},
        "end_to_end": {name: {"median": values.get(name, 1.0), "unit": "s"} for name in METRICS},
    }
    with open(out / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(report, fh)


def test_record_of_one_pair(tmp_path):
    write_report(tmp_path / "parent", 3, {"setup_s": 0.40, "peak_rss_mb": 200.0}, attempted=9, failed=0)
    write_report(tmp_path / "change", 3, {"setup_s": 0.06, "peak_rss_mb": 240.0}, attempted=12, failed=1,
                 numpy="2.4.7")
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(tmp_path / "parent"), str(tmp_path / "change"), str(out)]) == 0
    doc = json.loads(out.read_text())
    entry = doc["workloads"]["fivepoint-grid"]
    assert entry["seeds"] == [3]
    assert entry["attempted"] == {"parent": 9, "change": 12}
    assert entry["failed"] == {"parent": 0, "change": 1}
    setup = entry["end_to_end"]["setup_s"]
    assert (setup["parent"]["median"], setup["change"]["median"]) == (0.40, 0.06)
    assert (setup["change_wins"], setup["ties"], setup["pairs"]) == (1, 0, 1)
    assert setup["gain_shown"] and setup["within_bound"]
    rss = entry["end_to_end"]["peak_rss_mb"]  # 20 % worse against a 10 % bound
    assert rss["change_wins"] == 0 and not rss["gain_shown"] and not rss["within_bound"]
    total = entry["end_to_end"]["total_s"]
    assert (total["ties"], total["change_wins"], total["gain_shown"], total["within_bound"]) == (1, 0, False, True)
    assert [h["numpy"] for h in doc["host"]["parent"]] == ["2.4.6"]
    assert [h["numpy"] for h in doc["host"]["change"]] == ["2.4.7"]


def test_no_reports_is_an_error(tmp_path, capsys):
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    assert bench_record.main([str(tmp_path / "parent"), str(tmp_path / "change"), str(tmp_path / "o.json")]) == 1
    assert "no reports" in capsys.readouterr().err


def test_one_sided_record_of_one_checkout(tmp_path, capsys):
    for seed, stage in ((1, 0.30), (2, 0.20), (3, 0.26), (4, 0.22)):
        write_report(tmp_path, seed, {"stage_s": stage}, attempted=10, failed=seed == 3)
    write_report(tmp_path, 1, {}, attempted=5, failed=0, workload="pum-eval")
    layers = {m["name"]: 0.5 for m in json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    write_report(tmp_path, 1, {}, attempted=4, failed=0, per_layer={**layers, "solve.build_sigma_s": 0.002})
    out = tmp_path / "BENCH.json"
    assert bench_record.main([str(tmp_path), str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["fivepoint-grid", "pum-eval"]
    entry = doc["workloads"]["fivepoint-grid"]
    assert entry["seeds"] == [1, 2, 3, 4]
    assert (entry["attempted"], entry["failed"]) == (40, 1)  # untraced runs only
    stage = entry["end_to_end"]["stage_s"]
    assert stage["runs"] == [0.30, 0.20, 0.26, 0.22]
    assert (stage["median"], stage["q1"], stage["q3"]) == tuple(np.percentile([0.30, 0.20, 0.26, 0.22], [50, 25, 75]))
    assert (stage["unit"], stage["better"]) == ("s", "lower")
    assert not any(key in stage for key in ("pairs", "change_wins", "parent", "change"))
    assert entry["per_layer"]["seeds"] == [1]
    assert entry["per_layer"]["solve.build_sigma_s"]["median"] == 0.002
    assert "per_layer" not in doc["workloads"]["pum-eval"]
    assert [h["numpy"] for h in doc["host"]] == ["2.4.6"]
    assert "median 0.24  quartiles 0.215 .. 0.27  runs 4" in capsys.readouterr().out


def test_three_checkouts_are_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main([str(tmp_path), str(tmp_path), str(tmp_path), str(tmp_path / "o.json")])
