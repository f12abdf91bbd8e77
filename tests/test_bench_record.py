"""`scripts/bench_record.py` on synthetic benchmark reports."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench_record  # noqa: E402

METRICS = ("setup_s", "stage_s", "total_s", "result_max_err", "peak_rss_mb")


def write_report(checkout: Path, seed: int, values: dict, attempted: int, failed: int, numpy="2.4.6"):
    out = checkout / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "workload": "fivepoint-grid", "seed": seed, "seconds": 30.0, "trace": False,
        "environment": {"python": "3.11.7", "numpy": numpy, "scipy": "1.17.1", "nproc": 2},
        "attempted": attempted, "failed": failed, "per_layer": {},
        "end_to_end": {name: {"median": values.get(name, 1.0), "unit": "s"} for name in METRICS},
    }
    with open(out / f"fivepoint-grid-seed{seed}-trace0.json", "w") as fh:
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
