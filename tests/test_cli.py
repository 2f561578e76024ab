import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import epidelay
from epidelay import netsim, stability
from epidelay.cli import main
from epidelay.dde import History, integrate_homogeneous, integrate_reduced
from epidelay.params import (DegreeStats, EpidemicParams, compute_stats, effective_beta,
                             load_distribution, write_csv)


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

    def test_degrees_beyond_float_range(self, tmp_path, capsys):
        dist = tmp_path / "huge.csv"
        dist.write_text(f"k,count\n1,5\n{10**120},1\n", encoding="utf-8")
        assert run_cli("classify", "--dist", str(dist), "--rho", "0.1", "--alpha", "0.8") == 1
        assert capsys.readouterr().err.startswith("error: degree moments are not finite")

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
        assert run_cli("bound", "--cv-range", f"{cv}:{cv}:1", "--r0", r0,
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
        # flags the chosen mode would ignore
        (["--rho", "0.1", "--cv", "5"], "--cv"), (["--rho", "0.1", "--r0", "3"], "--r0"),
        (["--r0", "3", "--rho", "0.1"], "--rho"),
        # a given 0 is present, although 0 == False
        (["--rho", "0.1", "--cv", "0"], "--cv"), (["--r0", "3", "--rho", "0"], "--rho"),
    ])
    def test_invalid_inputs(self, argv, name, tmp_path, capsys):
        if argv[0] == "--rho":
            dist = tmp_path / "two_point.csv"
            dist.write_text("k,count\n1,500\n7,500\n", encoding="utf-8")
            argv = ["--dist", str(dist), *argv]
        assert run_cli("classify", *argv, "--alpha", "0.8") == 1
        assert capsys.readouterr().err.startswith(f"error: {name} must be")

    @pytest.mark.parametrize("command,argv,message", [
        # 1/gamma overflows: this read stable_up_to at t_max inf (alpha 0.9)
        # and infeasible with margin 0 (alpha 0.5)
        ("classify", ["--r0", "2", "--alpha", "0.9", "--gamma", "1e-320"], "gamma must be"),
        ("classify", ["--r0", "2", "--alpha", "0.5", "--gamma", "1e-320"], "gamma must be"),
        ("bound", ["--r0-range", "2:3:1", "--alpha", "0.9", "--gamma", "1e-320"],
         "gamma must be"),
        # 1/gamma is finite, but t_max = ln(0.9e10)/gamma is not
        ("classify", ["--r0", "1.0000000001", "--alpha", "0.9", "--gamma", "1e-308"],
         "delay bound t_max = inf"),
        ("bound", ["--r0-range", "1.0000000001:1.0000000001:1", "--alpha", "0.9",
                   "--gamma", "1e-308"], "delay bound t_max = inf"),
        # beta_h = R0*gamma overflows; this printed beta_h=inf, then failed
        ("classify", ["--r0", "1e308", "--gamma", "10", "--alpha", "0.5"],
         "mixing rate beta_h = inf"),
        ("bound", ["--r0-range", "1e308:1e308:1", "--gamma", "10", "--alpha", "0.5"],
         "mixing rate beta_h = inf"),
    ])
    def test_non_finite_bound_fails_before_output(self, command, argv, message, tmp_path,
                                                  capsys):
        out = tmp_path / "out.csv"
        extra = ["--out", str(out)] if command == "bound" else ["--t-delay", "1"]
        assert run_cli(command, *argv, *extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--r0", "0.9", "--alpha", "0", "--t-delay", "1e5"],
        ["--r0", "0.5", "--alpha", "0.5", "--t-delay", "1e300"],
    ])
    def test_huge_delay_root(self, argv, capsys):
        # exp(-a*tau) overflows here, though x = b*tau*exp(-a*tau) is tiny;
        # this printed the headline, then an OverflowError
        assert run_cli("classify", *argv) == 0
        fields = parse_machine_line(capsys.readouterr().out.splitlines()[-1])
        beta_h = float(argv[1]) * 0.1
        assert float(fields["margin"]) == pytest.approx(beta_h - 0.1, abs=1e-12)

    def test_out_file_and_sidecar(self, tmp_path):
        out = tmp_path / "verdict.txt"
        assert run_cli("classify", "--r0", "3", "--alpha", "0.8", "--out", str(out)) == 0
        assert out.exists()
        meta = (tmp_path / "verdict.txt.meta").read_text()
        assert "artifact_version=" in meta
        assert "arg_alpha=0.8" in meta
        # --cv has no default, so the sidecar lists it only when given
        assert "arg_cv=" not in meta
        assert run_cli("classify", "--r0", "3", "--cv", "0.5", "--alpha", "0.8",
                       "--out", str(out)) == 0
        assert "arg_cv=0.5" in (tmp_path / "verdict.txt.meta").read_text()


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

    def test_r0_range_refuses_r0(self, tmp_path, capsys):
        assert run_cli("bound", "--r0-range", "1:2:0.5", "--r0", "9",
                       "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("error: --r0 must be")

    @pytest.mark.parametrize("sweep", [["--r0-range", "0.5:6:0.25"],
                                       ["--cv-range", "0:1.5:0.1", "--r0", "3"]])
    def test_solves_no_root(self, sweep, tmp_path, monkeypatch):
        # the CSV holds the verdict kind and t_max, neither of which needs a root
        args = ["bound", *sweep, "--alpha", "0.5,0.8,1"]
        assert run_cli(*args, "--out", str(tmp_path / "a.csv")) == 0

        def no_root(cp):
            raise AssertionError(f"rightmost root solved for {cp}")

        monkeypatch.setattr(stability, "rightmost_root", no_root)
        assert run_cli(*args, "--out", str(tmp_path / "b.csv")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

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

    def test_history_rate_applies(self, tmp_path):
        # the history enters through the isolation term, so alpha > 0
        argv = ["dde", "--system", "reduced", "--alpha", "0.5", "--t-delay", "1", "--out"]
        out = tmp_path / "rate.csv"
        assert run_cli(*argv, str(out), "--history-rate", "0.05") == 0
        params = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.5, t_delay=1.0)
        stats = DegreeStats.from_mu_cv(4.0, 0.0)
        i0 = 1e-5
        ref = tmp_path / "ref.csv"
        integrate_reduced(params, stats,
                          History([i0, effective_beta(params, stats) * i0], 0.05),
                          100.0, 0.01).to_csv(ref)
        assert out.read_bytes() == ref.read_bytes()
        flat = tmp_path / "flat.csv"
        assert run_cli(*argv, str(flat)) == 0
        assert flat.read_bytes() != out.read_bytes()

    @pytest.mark.parametrize("system", ["homogeneous", "reduced"])
    @pytest.mark.parametrize("bad", [["--i0", "nan"], ["--i0", "inf"],
                                     ["--history-rate", "nan"], ["--history-rate=-inf"]])
    def test_non_finite_history(self, system, bad, tmp_path, capsys):
        assert run_cli("dde", "--system", system, "--t-delay", "1", *bad,
                       "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("error: history")

    @pytest.mark.parametrize("system", ["homogeneous", "reduced"])
    def test_dist_sets_mixing_rate(self, system, tmp_path):
        # --dist replaces --mu/--cv in every system, through the same beta_h
        dist = tmp_path / "dist.csv"
        dist.write_text("k,count\n2,600\n5,400\n", encoding="utf-8")
        out = tmp_path / "cli.csv"
        assert run_cli("dde", "--system", system, "--dist", str(dist), "--alpha", "0.5",
                       "--t-delay", "1", "--history-rate", "0.05", "--horizon", "40",
                       "--fit-window", "10,40", "--out", str(out)) == 0
        params = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.5, t_delay=1.0)
        stats = compute_stats(load_distribution(dist))
        beta_h = effective_beta(params, stats)
        i0 = 1e-5
        if system == "homogeneous":
            traj = integrate_homogeneous(params, beta_h, History([1.0 - i0, i0, 0.0], 0.05),
                                         40.0, 0.01)
        else:
            traj = integrate_reduced(params, stats, History([i0, beta_h * i0], 0.05), 40.0, 0.01)
        ref = tmp_path / "ref.csv"
        traj.to_csv(ref)
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("system", ["homogeneous", "reduced"])
    @pytest.mark.parametrize("flag", ["--dynamic", "--paired"])
    def test_partitioned_flags_refused(self, system, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_cli("dde", "--system", system, flag, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {flag} must be left out with --system {system}")
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--mu", "4"], ["--cv", "0"]])
    @pytest.mark.parametrize("system", ["homogeneous", "reduced", "partitioned"])
    def test_mu_cv_refused_with_dist(self, system, flag, tmp_path, capsys):
        # --dist replaces --mu/--cv; a given --cv 0, which equals False, is
        # refused too
        dist = tmp_path / "dist.csv"
        dist.write_text("k,count\n2,600\n5,400\n", encoding="utf-8")
        out = tmp_path / "x.csv"
        assert run_cli("dde", "--system", system, "--dist", str(dist), *flag,
                       "--out", str(out)) == 1
        mode = "--system partitioned" if system == "partitioned" else "--dist"
        assert capsys.readouterr().err.startswith(
            f"error: {flag[0]} must be left out with {mode}")
        assert not out.exists()

    def test_sidecar_records_mu_cv_only_when_read(self, tmp_path):
        out = tmp_path / "x.csv"
        argv = ["dde", "--system", "reduced", "--horizon", "30", "--fit-window", "10,30"]
        assert run_cli(*argv, "--out", str(out)) == 0
        meta = (tmp_path / "x.csv.meta").read_text().splitlines()
        assert "arg_mu=4.0" in meta and "arg_cv=0.0" in meta
        dist = tmp_path / "dist.csv"
        dist.write_text("k,count\n2,600\n5,400\n", encoding="utf-8")
        for system in ("reduced", "partitioned"):
            argv[2] = system
            assert run_cli(*argv, "--dist", str(dist), "--out", str(out)) == 0
            meta = (tmp_path / "x.csv.meta").read_text()
            assert "arg_mu=" not in meta and "arg_cv=" not in meta

    @pytest.mark.parametrize("i0", ["0", "1.5"])
    @pytest.mark.parametrize("system", ["homogeneous", "reduced", "partitioned"])
    def test_i0_outside_unit_interval(self, system, i0, tmp_path, capsys):
        dist = tmp_path / "dist.csv"
        dist.write_text("k,count\n2,600\n5,400\n", encoding="utf-8")
        extra = ["--dist", str(dist)] if system == "partitioned" else []
        out = tmp_path / "x.csv"
        assert run_cli("dde", "--system", system, *extra, f"--i0={i0}", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: history i0 must be in (0, 1]")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [[], ["--dynamic"], ["--paired"]])
    def test_partitioned_degree_too_large(self, extra, tmp_path, capsys):
        # rejected before a state array of 1e15 entries is allocated
        dist = tmp_path / "huge.csv"
        dist.write_text(f"k,count\n1,5\n{10**15},1\n", encoding="utf-8")
        assert run_cli("dde", "--system", "partitioned", "--dist", str(dist), *extra,
                       "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith(f"error: max degree {10**15} exceeds")

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

    def test_thread_count_beyond_pool_limit(self, tmp_path, capsys):
        # netsim.MAX_THREADS is 256; one run starts at most one thread either way
        base = ["netsim", "--graph", "config-poisson", "--nodes", "500", "--runs", "1",
                "--days", "3", "--out", str(tmp_path / "runs.csv")]
        assert run_cli(*base, "--threads", "257") == 1
        assert capsys.readouterr().err.startswith("error: threads must be in [1, 256]")
        assert not (tmp_path / "runs.csv").exists()
        assert run_cli(*base, "--threads", "256") == 0

    def test_extinct_ensemble_writes_aggregate_without_warnings(self, tmp_path):
        # rho 0: every run dies out, so late days have no infectious node in
        # any run and the across-run mean and deviation there are nan
        out, agg = tmp_path / "runs.csv", tmp_path / "agg.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("netsim", "--graph", "config-poisson", "--nodes", "1000",
                           "--rho", "0", "--days", "120", "--runs", "2", "--seed", "3",
                           "--out", str(out), "--agg-out", str(agg)) == 0
        # the expected file: the runs CSV reduced with numpy's nan-aware
        # mean and deviation, their warnings ignored
        rows = np.genfromtxt(out, delimiter=",", skip_header=1)
        cols = rows[:, 2:].reshape(2, 120, 5).transpose(2, 0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reduced = (*(c.mean(axis=0) for c in cols[:4]), np.nanmean(cols[4], axis=0),
                       np.nanstd(cols[4], axis=0, ddof=1))
        valid = np.count_nonzero(~np.isnan(cols[4]), axis=0)
        assert {0, 1} <= set(valid.tolist())
        want = tmp_path / "want.csv"
        write_csv(want, ("day", "mean_S", "mean_I", "mean_R", "mean_isolated",
                         "mean_inf_degree", "stddev_inf_degree"),
                  zip(range(1, 121), *(c.tolist() for c in reduced)))
        assert agg.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("runs,days,limit", [
        (100_001, 1, "runs must be in [1, 100000]"),
        (2, 5_000_001, "runs x days = 2 x 5000001 exceeds 10000000"),
    ])
    def test_oversized_ensemble_refused(self, runs, days, limit, tmp_path, capsys):
        # refused before the pool queues a run; each would take gigabytes
        out = tmp_path / "runs.csv"
        assert run_cli("netsim", "--graph", "config-poisson", "--nodes", "100",
                       "--runs", str(runs), "--days", str(days), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: {limit}")
        assert not out.exists()

    @pytest.mark.parametrize("days", ["0", "-3"])
    def test_bad_days_refused_before_any_graph(self, days, tmp_path, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("graph built before days was checked")

        monkeypatch.setattr(netsim, "generate_graph", no_build)
        out = tmp_path / "runs.csv"
        assert run_cli("netsim", "--graph", "barabasi-albert", "--nodes", "1000000",
                       "--runs", "4", "--threads", "2", "--days", days, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"error: days must be >= 1, got {days}")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["0", "0.5", "1"])
    @pytest.mark.parametrize("t_delay", ["9.3e18", "1e19", "1e300"])
    def test_delay_past_the_run_isolates_no_one(self, t_delay, alpha, tmp_path):
        # isolation falls due only after the last day, so every CSV is the
        # one --alpha 0 writes
        def netsim(name, *flags):
            out = tmp_path / name
            assert run_cli("netsim", "--graph", "config-poisson", "--nodes", "1000",
                           "--runs", "2", "--days", "5", "--seed", "3", *flags,
                           "--out", str(out)) == 0
            return out.read_bytes(), (tmp_path / f"{name}_aggregate.csv").read_bytes()

        assert netsim("delayed", "--alpha", alpha, "--t-delay", t_delay) == netsim("none")

    def test_default_aggregate_path_in_dotted_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results.v2").mkdir()
        assert run_cli("netsim", "--graph", "config-poisson", "--nodes", "500", "--runs", "1",
                       "--days", "3", "--out", "results.v2/runs") == 0
        assert sorted(p.name for p in (tmp_path / "results.v2").iterdir()) == [
            "runs", "runs.meta", "runs_aggregate.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.v2"]

    def test_graph_export(self, tmp_path):
        out = tmp_path / "runs.csv"
        edges = tmp_path / "graph.txt"
        assert run_cli("netsim", "--graph", "config-poisson", "--nodes", "500",
                       "--runs", "1", "--days", "3", "--out", str(out),
                       "--export-graph", str(edges)) == 0
        assert edges.exists() and len(edges.read_text().splitlines()) > 400

    @pytest.mark.parametrize("bad", [["--seed-count", "-1"], ["--seed", "-1"],
                                     ["--mu", "nan"], ["--mu", "inf"],
                                     ["--threads", "0"], ["--threads", "-3"],
                                     # oversized graphs fail before any allocation
                                     ["--nodes", "100000000000"],
                                     ["--nodes", "200000", "--mu", "150000"]])
    @pytest.mark.parametrize("graph", ["config-poisson", "barabasi-albert"])
    def test_malformed_inputs(self, graph, bad, tmp_path, capsys):
        assert run_cli("netsim", "--graph", graph, "--nodes", "500", "--runs", "2",
                       "--days", "3", *bad, "--out", str(tmp_path / "runs.csv")) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["bound", "--cv-range", "0:1:0.5", "--r0", "3", "--markers", "0.5"],
    ["netsim", "--graph", "watts-strogatz", "--nodes", "500", "--ws-rewire", "0.2"],
])
def test_deleted_flags_are_usage_errors(argv, tmp_path, capsys):
    # cv sweeps always add 0.37 and 0.67; Watts-Strogatz always rewires at 0.1
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(tmp_path / "x.csv"))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_runtime_needs_only_numpy(tmp_path):
    # scipy and hypothesis are test extras and numba is gone; each command
    # must run in an interpreter where none of them can be imported
    script = textwrap.dedent("""
        import sys
        for name in ("scipy", "hypothesis", "numba"):
            sys.modules[name] = None  # makes `import name` raise ImportError
        from epidelay.cli import main
        dist = "dist.csv"
        with open(dist, "w") as fh:
            fh.write("k,count\\n2,600\\n5,400\\n")
        commands = [
            ["bound", "--cv-range", "0:1:0.5", "--r0", "3", "--out", "bound.csv"],
            ["classify", "--dist", dist, "--rho", "0.1", "--alpha", "0.8"],
            ["dde", "--system", "partitioned", "--dist", dist, "--paired",
             "--horizon", "20", "--fit-window", "5,20", "--out", "dde.csv"],
            ["netsim", "--graph", "watts-strogatz", "--nodes", "300", "--runs", "2",
             "--days", "3", "--out", "runs.csv"],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(epidelay.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "bound.csv", "dde.csv", "dist.csv", "runs.csv", "runs_aggregate.csv"]
