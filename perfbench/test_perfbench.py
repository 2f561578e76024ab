"""Self-test of the benchmark at small sizes: `python3 -m pytest perfbench`.

Checks that the golden ops match reference.json, that the traced pass
reproduces the untraced outputs bit for bit (for desk-ensemble, the
decomposition against the CLI command), and that the deterministic counts
repeat exactly: all of them on a rerun of one seed, the structural ones
across seeds.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

workloads = run.load_package()
from tracing import Tracer  # noqa: E402

SMALL = {
    "desk-ensemble": {"nodes": 2000},
    "isolation-grid": {"nodes": 2000},
    "analytic-crosscheck": {"bound_rows": 250, "part_horizon": 5.0},
}
STRUCTURAL = ("graphs.builds", "graphs.distinct_builds", "netsim.node_days", "dde.steps",
              "stability.calls", "stability.root_calls.real", "stability.root_calls.complex")
SEEDED = STRUCTURAL + ("netsim.infectious_node_days",)


def traced_run(name, seed, workdir):
    wl = workloads.WORKLOADS[name](seed, 2, str(workdir), **SMALL[name])
    plain, plain_wall = run.run_pass(wl)
    tracer = Tracer()
    traced, traced_wall = run.run_pass(wl, tracer)
    return plain, traced, run.layer_metrics(wl, tracer, plain, plain_wall, traced_wall)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_golden_ops_match_reference(name, tmp_path):
    checked, bad = run.check_golden(workloads.WORKLOADS[name](0, 0, str(tmp_path)))
    assert checked > 0
    assert bad == []


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_pass_reproduces_outputs_and_counts_repeat(name, tmp_path):
    plain, traced, first = traced_run(name, 3, tmp_path)
    assert [r.problems for r in plain + traced] == [[]] * (2 * len(plain))
    assert [r.digest for r in traced] == [r.digest for r in plain]
    _, _, rerun = traced_run(name, 3, tmp_path)
    _, _, other = traced_run(name, 4, tmp_path)
    assert {k: rerun[k] for k in SEEDED} == {k: first[k] for k in SEEDED}
    assert {k: other[k] for k in STRUCTURAL} == {k: first[k] for k in STRUCTURAL}


def test_desk_seeding_modes_share_graphs(tmp_path):
    _, _, m = traced_run("desk-ensemble", 5, tmp_path)
    builds, _ = m["graphs.builds"]
    assert builds == 2 * 3 * 2 * 2  # cycles x families x seeding modes x runs
    assert m["graphs.distinct_ratio"] == (0.5, "frac")


def test_tail_has_ten_samples_beyond():
    value, pct = run.tail([float(x) for x in range(40)])
    assert value == 29.0 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
