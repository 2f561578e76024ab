"""Every committed perf record, BENCH_<n>.json, holds what its claim rests on:
the commits, the command, the environment, and each end-to-end metric of
BENCHMARK.json on each workload, with at least ten seeds on the claimed one."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_complete(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("parent", "change", "command", "claim", "env"):
        assert record.get(key), f"{path.name} has no {key}"
    workloads = record["workloads"]
    assert set(workloads) == WORKLOADS
    for name, entry in workloads.items():
        for metric in METRICS:
            sides = entry["metrics"][metric]
            for side in ("parent", "change"):
                assert isinstance(sides[side]["median"], float), (name, metric, side)
    # the claim names the workload it rests on, as "<metric> on <workload>: ..."
    claimed = [name for name in WORKLOADS if f" on {name}:" in record["claim"]]
    assert len(claimed) == 1, record["claim"]
    assert len(workloads[claimed[0]]["seeds"]) >= 10
