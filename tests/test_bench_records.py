"""The benchmark records at the repo root (`BENCH_*.json`) stay readable:
each parses, has the shared keys, and names only what BENCHMARK.json
declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED_KEYS = {"change", "command", "machine", "statistics", "claimed", "runs"}


def declared() -> tuple[set[str], set[str]]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    return workloads, metrics


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_names_only_declared_workloads_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert REQUIRED_KEYS <= set(record), REQUIRED_KEYS - set(record)
    workloads, metrics = declared()
    assert record["claimed"]["workload"] in workloads
    assert record["claimed"]["metric"] in metrics
    assert record["runs"]
    for run in record["runs"]:
        assert set(run["workloads"]) <= workloads, set(run["workloads"]) - workloads
        for name, measured in run["workloads"].items():
            assert set(measured) <= metrics, (name, set(measured) - metrics)
