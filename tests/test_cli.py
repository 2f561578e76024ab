import math

import numpy as np
import pytest

from epidelay.cli import main


def run_cli(*argv) -> int:
    return main(list(argv))


def parse_machine_line(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.split())


class TestClassify:
    def test_reference_homogeneous(self, capsys):
        assert run_cli("classify", "--r0", "3", "--alpha", "0.8", "--gamma", "0.1") == 0
        out = capsys.readouterr().out.splitlines()
        fields = parse_machine_line(out[-1])
        assert fields["verdict"] == "stable_up_to"
        assert float(fields["t_max_days"]) == pytest.approx(math.log(1.2) / 0.1, abs=1e-3)

    def test_infeasible(self, capsys):
        assert run_cli("classify", "--r0", "3", "--alpha", "0.6") == 0
        fields = parse_machine_line(capsys.readouterr().out.splitlines()[-1])
        assert fields["verdict"] == "infeasible_at_zero_delay"

    def test_unconditional(self, capsys):
        assert run_cli("classify", "--r0", "0.5", "--alpha", "0.8") == 0
        fields = parse_machine_line(capsys.readouterr().out.splitlines()[-1])
        assert fields["verdict"] == "unconditionally_stable"
        assert math.isinf(float(fields["t_max_days"]))

    def test_distribution_file(self, tmp_path, capsys):
        dist = tmp_path / "two_point.csv"
        dist.write_text("k,count\n1,500\n7,500\n", encoding="utf-8")
        assert run_cli("classify", "--dist", str(dist), "--rho", "0.075",
                       "--alpha", "0.8", "--gamma", "0.1") == 0
        fields = parse_machine_line(capsys.readouterr().out.splitlines()[-1])
        # beta_h = 0.075 * <k^2>/mu = 0.075 * 25/4
        assert float(fields["r0_eff"]) == pytest.approx(0.075 * 25 / 4 / 0.1, rel=1e-9)

    def test_parse_error_names_line(self, tmp_path, capsys):
        dist = tmp_path / "bad.csv"
        dist.write_text("k,count\n1,500\noops\n", encoding="utf-8")
        assert run_cli("classify", "--dist", str(dist), "--rho", "0.05",
                       "--alpha", "0.8") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3" in err

    def test_missing_inputs(self, capsys):
        assert run_cli("classify", "--alpha", "0.8") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_matches_bound_row(self, tmp_path, capsys):
        # both commands scale R0 by h = 1 + cv^2 the same way, to the last bit
        r0, cv = "5.085024172081335", "0.9127555772777217"
        gamma, alpha = "0.20165894394179495", "0.9188489682951995"
        assert run_cli("classify", "--r0", r0, "--cv", cv, "--gamma", gamma,
                       "--alpha", alpha) == 0
        fields = parse_machine_line(capsys.readouterr().out.splitlines()[-1])
        out = tmp_path / "bound.csv"
        assert run_cli("bound", "--cv-range", "0:1:0.5", "--markers", cv, "--r0", r0,
                       "--gamma", gamma, "--alpha", alpha, "--out", str(out)) == 0
        row = [ln.split(",") for ln in out.read_text().splitlines()[1:]
               if float(ln.split(",")[0]) == float(cv)]
        assert len(row) == 1
        assert fields["t_max_days"] == row[0][2] == "0.1430527245321484"
        assert fields["verdict"] == row[0][3]

    @pytest.mark.parametrize("argv,name", [
        (["--r0", "nan"], "r0"), (["--r0", "inf"], "r0"), (["--r0", "-1"], "r0"),
        (["--r0", "3", "--cv", "nan"], "cv"),
        (["--rho", "nan"], "rho"), (["--rho", "-0.5"], "rho"), (["--rho", "1.5"], "rho"),
        (["--r0", "3", "--cv", "0.5", "--fixed-graph"], "--fixed-graph"),
    ])
    def test_invalid_inputs(self, argv, name, tmp_path, capsys):
        if "--rho" in argv:
            dist = tmp_path / "two_point.csv"
            dist.write_text("k,count\n1,500\n7,500\n", encoding="utf-8")
            argv = ["--dist", str(dist), *argv]
        assert run_cli("classify", *argv, "--alpha", "0.8") == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be")

    def test_out_file_and_sidecar(self, tmp_path):
        out = tmp_path / "verdict.txt"
        assert run_cli("classify", "--r0", "3", "--alpha", "0.8", "--out", str(out)) == 0
        assert out.exists()
        meta = (tmp_path / "verdict.txt.meta").read_text()
        assert "artifact_version=" in meta
        assert "arg_alpha=0.8" in meta


class TestBound:
    def test_r0_sweep(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli("bound", "--r0-range", "1:6:0.5", "--alpha", "0.7,0.8",
                       "--gamma", "0.1", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,alpha,T_max_days,verdict"
        assert len(lines) == 1 + 11 * 2
        # curves decrease with R0 once bounded
        rows = [ln.split(",") for ln in lines[1:] if ln.split(",")[1] == "0.80000000000000004"]
        bounded = [(float(x), float(t)) for x, _, t, v in rows if v == "stable_up_to"]
        assert all(t2 < t1 for (_, t1), (_, t2) in zip(bounded, bounded[1:]))

    def test_cv_sweep_with_markers(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli("bound", "--cv-range", "0:1.0:0.05", "--r0", "3",
                       "--alpha", "0.8", "--out", str(out)) == 0
        lines = out.read_text().splitlines()[1:]
        xs = sorted({float(ln.split(",")[0]) for ln in lines})
        assert 0.37 in xs and 0.67 in xs
        at_zero = [ln for ln in lines if ln.startswith("0,")][0]
        assert float(at_zero.split(",")[2]) == pytest.approx(1.8232, abs=1e-3)

    def test_malformed_range(self, tmp_path, capsys):
        assert run_cli("bound", "--r0-range", "nope", "--out",
                       str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("spec", ["nan:1:0.1", "0:inf:1", "0:1:1e-12"])
    def test_non_finite_or_oversized_range(self, spec, tmp_path, capsys):
        assert run_cli("bound", "--r0-range", spec, "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("r0", ["nan", "inf", "0"])
    def test_cv_sweep_rejects_bad_r0(self, r0, tmp_path, capsys):
        assert run_cli("bound", "--cv-range", "0:1:0.5", "--r0", r0,
                       "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_requires_exactly_one_range(self, tmp_path, capsys):
        assert run_cli("bound", "--out", str(tmp_path / "x.csv")) == 1
        assert run_cli("bound", "--r0-range", "1:2:1", "--cv-range", "0:1:0.5",
                       "--r0", "3", "--out", str(tmp_path / "x.csv")) == 1

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["bound", "--cv-range", "0:0.8:0.1", "--r0", "3", "--alpha", "0.8"]
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestDde:
    def test_homogeneous_uncontrolled(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run_cli("dde", "--system", "homogeneous", "--rho", "0.075",
                       "--mu", "4", "--alpha", "0", "--horizon", "40",
                       "--fit-window", "10,30", "--out", str(out)) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("fitted_rate")][0]
        rate = float(parse_machine_line(line)["fitted_rate_per_day"])
        assert rate == pytest.approx(0.2, rel=0.01)
        assert out.read_text().splitlines()[0] == "t,s,i,r"

    def test_reduced_at_boundary(self, tmp_path, capsys):
        t_max = 10.0 * math.log(0.3 / 0.275)
        out = tmp_path / "traj.csv"
        assert run_cli("dde", "--system", "reduced", "--rho", "0.075", "--mu", "4",
                       "--cv", "0.5", "--alpha", "0.8", "--t-delay", str(t_max),
                       "--horizon", "100", "--out", str(out)) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("fitted_rate")][0]
        rate = float(parse_machine_line(line)["fitted_rate_per_day"])
        assert abs(rate) < 1e-3

    def test_paired_equivalence_gap(self, tmp_path, capsys):
        dist = tmp_path / "dist.csv"
        dist.write_text("k,count\n2,600\n5,400\n", encoding="utf-8")
        out = tmp_path / "paired.csv"
        assert run_cli("dde", "--system", "partitioned", "--dist", str(dist),
                       "--rho", "0.05", "--alpha", "0.6", "--t-delay", "1",
                       "--horizon", "30", "--fit-window", "10,30",
                       "--paired", "--out", str(out)) == 0
        line = [ln for ln in capsys.readouterr().out.splitlines()
                if "max_rel_gap" in ln][0]
        gap = float(parse_machine_line(line)["max_rel_gap"])
        assert gap < 1e-6
        assert out.read_text().splitlines()[0] == "t,i_partitioned,i_reduced"

    def test_partitioned_dynamic_matches_frozen_early(self, tmp_path, capsys):
        dist = tmp_path / "dist.csv"
        dist.write_text("k,count\n1,50\n9,50\n", encoding="utf-8")
        rates = []
        for extra in ([], ["--dynamic"]):
            out = tmp_path / f"part{len(extra)}.csv"
            assert run_cli("dde", "--system", "partitioned", "--dist", str(dist),
                           "--rho", "0.075", "--alpha", "0.8", "--t-delay", "0.5",
                           "--i0", "1e-8", *extra, "--out", str(out)) == 0
            meta = dict(ln.split("=", 1) for ln in
                        (tmp_path / f"{out.name}.meta").read_text().splitlines())
            rates.append(float(meta["fitted_rate_per_day"]))
        # susceptibles barely deplete from a tiny seed, so both systems
        # grow at the frozen linearization's rate
        assert rates[1] == pytest.approx(rates[0], rel=1e-3)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("window", ["10", "10,20,30", "nan,30", "10,inf", "30,10", "10,10"])
    def test_malformed_fit_window(self, window, tmp_path, capsys):
        assert run_cli("dde", "--system", "homogeneous", "--fit-window", window,
                       "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("grid", [["--dt", "nan"], ["--horizon", "inf"],
                                      ["--horizon", "1e9"]])
    def test_non_finite_or_oversized_grid(self, grid, tmp_path, capsys):
        assert run_cli("dde", "--system", "homogeneous", "--fit-window", "10,20", *grid,
                       "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_partitioned_requires_dist(self, tmp_path, capsys):
        assert run_cli("dde", "--system", "partitioned",
                       "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestNetsim:
    def test_smoke_and_determinism(self, tmp_path):
        out1 = tmp_path / "runs1.csv"
        out2 = tmp_path / "runs2.csv"
        common = ["netsim", "--graph", "config-poisson", "--nodes", "2000",
                  "--mu", "4", "--runs", "3", "--days", "8", "--seed", "7"]
        assert run_cli(*common, "--out", str(out1)) == 0
        assert run_cli(*common, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        agg = tmp_path / "runs1_aggregate.csv"
        assert agg.exists()
        assert agg.read_text().splitlines()[0].startswith("day,mean_S")
        meta = (tmp_path / "runs1.csv.meta").read_text()
        assert "arg_seed=7" in meta and "census_mu_mean=" in meta

    def test_threads_do_not_change_results(self, tmp_path):
        base = ["netsim", "--graph", "watts-strogatz", "--nodes", "1000",
                "--mu", "4", "--runs", "4", "--days", "6", "--seed", "3"]
        out1 = tmp_path / "t1.csv"
        out4 = tmp_path / "t4.csv"
        assert run_cli(*base, "--threads", "1", "--out", str(out1)) == 0
        assert run_cli(*base, "--threads", "4", "--out", str(out4)) == 0
        assert out1.read_bytes() == out4.read_bytes()

    def test_graph_export(self, tmp_path):
        out = tmp_path / "runs.csv"
        edges = tmp_path / "graph.txt"
        assert run_cli("netsim", "--graph", "config-poisson", "--nodes", "500",
                       "--runs", "1", "--days", "3", "--out", str(out),
                       "--export-graph", str(edges)) == 0
        assert edges.exists() and len(edges.read_text().splitlines()) > 400

    @pytest.mark.parametrize("bad", [["--seed-count", "-1"], ["--seed", "-1"],
                                     ["--mu", "nan"], ["--mu", "inf"]])
    @pytest.mark.parametrize("graph", ["config-poisson", "barabasi-albert"])
    def test_malformed_inputs(self, graph, bad, tmp_path, capsys):
        assert run_cli("netsim", "--graph", graph, "--nodes", "500", "--runs", "2",
                       "--days", "3", *bad, "--out", str(tmp_path / "runs.csv")) == 1
        assert capsys.readouterr().err.startswith("error:")
