"""Smoke test of the end-to-end benchmark (run it explicitly).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Runs ``run.py --smoke --trace 1`` — every workload at 1/20 of the measured
work, untraced and traced, with all output checks — and validates what it
prints and writes against the names in ``BENCHMARK.json``.  Not part of
the tier-1 ``testpaths``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_smoke_report_matches_the_contract(tmp_path):
    out = tmp_path / "report.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1", "--out", str(out)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-4000:]

    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1

    report = json.loads(out.read_text())
    workloads = [entry["name"] for entry in CONTRACT["workloads"]]
    end_to_end = {entry["name"]: entry["unit"] for entry in CONTRACT["end_to_end"]}
    per_layer = {entry["name"] for entry in CONTRACT["per_layer"]}
    assert list(report["workloads"]) == workloads
    for workload in workloads:
        summary = report["workloads"][workload]
        assert len(summary["input_sha256"]) == 64
        assert set(summary["end_to_end"]) == set(end_to_end)
        for name, values in summary["end_to_end"].items():
            assert values["unit"] == end_to_end[name]
            assert values["median"] > 0, f"{workload}.{name} must never read 0"
            assert last["metrics"][f"{workload}.{name}"]["value"] == values["median"]
        assert set(summary["per_layer"]) == per_layer
        assert summary["trace"]["missing_spans"] == []
        assert (HERE / "out" / summary["trace"]["file"]).exists()
        assert summary["failed"] == 0


def test_single_workload_prints_the_contract_line():
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "ingest_vec",
            "--seed", "7", "--seconds", "20", "--trace", "0", "--smoke",
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout[-4000:]
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == [entry["name"] for entry in CONTRACT["end_to_end"]]
    for entry in CONTRACT["end_to_end"]:
        assert last["metrics"][entry["name"]]["unit"] == entry["unit"]
