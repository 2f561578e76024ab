"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Criterion 7 (network ensembles at 1e5 nodes x 100 runs) dominates
the runtime at 20-30 s on a 2-vCPU host; everything else finishes in seconds.
"""

import math

import numpy as np
import pytest

from epidelay.cli import main as cli_main
from epidelay.dde import (
    constant_history,
    consistent_reduced_history,
    estimate_growth_rate,
    infectious_fraction,
    integrate_partitioned,
    integrate_reduced,
)
from epidelay.netsim import GraphSpec, run_scenarios
from epidelay.params import (
    DegreeDistribution,
    DegreeStats,
    EpidemicParams,
    compute_stats,
    effective_beta,
)
from epidelay.stability import (
    VerdictKind,
    degree_proportional_alpha,
    heterogeneous_delay_bound,
    homogeneous_delay_bound,
    lambert_w,
    max_cv,
    model_char_params,
    rightmost_root,
)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


def test_criterion_1_homogeneous_delay_bound(capsys):
    code = cli_main(["classify", "--r0", "3", "--alpha", "0.8", "--gamma", "0.1"])
    out = capsys.readouterr().out
    fields = dict(tok.split("=", 1) for tok in out.splitlines()[-1].split())
    t_cli = float(fields["t_max_days"])
    expected = math.log(1.2) / 0.1
    ok = code == 0 and abs(t_cli - expected) <= 1e-3 and abs(expected - 1.8232) < 1e-3
    with capsys.disabled():
        report(1, "homogeneous bound: T_max = ln(1.2)/0.1 = 1.8232 days via classify",
               ok, f"cli={t_cli:.6f}")


def test_criterion_2_infeasibility_threshold():
    p_lo = EpidemicParams(rho=0.0, gamma=0.1, alpha=2.0 / 3.0 - 1e-9, t_delay=0.0)
    p_hi = EpidemicParams(rho=0.0, gamma=0.1, alpha=2.0 / 3.0 + 1e-9, t_delay=0.0)
    below = homogeneous_delay_bound(p_lo, 3.0)
    above = homogeneous_delay_bound(p_hi, 3.0)
    ok = (below.kind is VerdictKind.INFEASIBLE_AT_ZERO_DELAY
          and above.kind is VerdictKind.STABLE_UP_TO and above.t_max > 0.0)
    report(2, "verdict flips across alpha = 2/3 +- 1e-9 at R0 = 3", ok,
           f"below={below.kind.value}, above={above.kind.value}")


def test_criterion_3_maximum_heterogeneity(tmp_path, capsys):
    crit = max_cv(3.0, 0.8)
    analytic_ok = abs(crit - math.sqrt(2.0 / 3.0)) <= 1e-6

    out = tmp_path / "fig2.csv"
    code = cli_main(["bound", "--cv-range", "0.7:0.9:0.0005", "--r0", "3",
                     "--alpha", "0.8", "--gamma", "0.1", "--out", str(out)])
    capsys.readouterr()
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    stable_x = [float(r[0]) for r in rows if r[3] == "stable_up_to"]
    infeasible_x = [float(r[0]) for r in rows if r[3] == "infeasible_at_zero_delay"]
    crossing = 0.5 * (max(stable_x) + min(infeasible_x))
    sweep_ok = code == 0 and abs(crossing - crit) <= 1e-3
    with capsys.disabled():
        report(3, "max c_v at R0=3, alpha=0.8 equals sqrt(2/3) ~ 0.8165; sweep crossing agrees",
               analytic_ok and sweep_ok, f"max_cv={crit:.6f}, crossing={crossing:.6f}")


def test_criterion_4_boundary_root():
    rng = np.random.default_rng(1234)
    checked = 0
    worst_re = 0.0
    ok = True
    while checked < 20:
        gamma = float(rng.uniform(0.05, 0.4))
        mu = float(rng.uniform(1.5, 8.0))
        rho = float(rng.uniform(0.005, 0.15))
        cv = float(rng.uniform(0.0, 1.2))
        alpha = float(rng.uniform(0.05, 1.0))
        p0 = EpidemicParams(rho=rho, gamma=gamma, alpha=alpha, t_delay=0.0)
        stats = DegreeStats.from_mu_cv(mu, cv)
        verdict = heterogeneous_delay_bound(p0, stats)
        if verdict.kind is not VerdictKind.STABLE_UP_TO or not 0.05 < verdict.t_max < 50:
            continue
        checked += 1
        beta_h = effective_beta(p0, stats)

        def root_at(tau):
            q = EpidemicParams(rho=rho, gamma=gamma, alpha=alpha, t_delay=tau)
            return rightmost_root(model_char_params(beta_h, q)).real

        at = root_at(verdict.t_max)
        worst_re = max(worst_re, abs(at))
        ok &= abs(at) < 1e-8
        ok &= root_at(verdict.t_max * 0.99) < 0.0 < root_at(verdict.t_max * 1.01)
    report(4, "rightmost root sits on the axis at T_max and flips sign across it "
              "(20 random bounded configurations)", ok, f"worst |Re| = {worst_re:.2e}")


def test_criterion_5_analytic_numeric_agreement():
    # (mu, rho, gamma, alpha, cv, tau_factor_or_tau); factors scale T_max
    grid = [
        (4.0, 0.075, 0.1, 0.8, 0.0, ("factor", 0.5)),
        (4.0, 0.075, 0.1, 0.8, 0.0, ("factor", 1.5)),
        (4.0, 0.075, 0.1, 0.8, 0.5, ("factor", 0.5)),
        (4.0, 0.075, 0.1, 0.8, 0.5, ("factor", 1.5)),
        (4.0, 0.075, 0.1, 0.8, 0.5, ("factor", 1.0)),
        (4.0, 0.075, 0.1, 0.8, 0.7, ("factor", 0.5)),
        (4.0, 0.075, 0.1, 0.0, 0.5, ("tau", 0.5)),
        (4.0, 0.075, 0.2, 0.9, 0.3, ("tau", 2.0)),
        (4.0, 0.0125, 0.1, 0.8, 0.5, ("tau", 1.0)),
        (4.0, 0.02, 0.1, 0.5, 0.0, ("tau", 1.0)),
    ]
    ok = True
    details = []
    for mu, rho, gamma, alpha, cv, tau_spec in grid:
        stats = DegreeStats.from_mu_cv(mu, cv)
        p0 = EpidemicParams(rho=rho, gamma=gamma, alpha=alpha, t_delay=0.0)
        if tau_spec[0] == "factor":
            verdict = heterogeneous_delay_bound(p0, stats)
            tau = verdict.t_max * tau_spec[1]
        else:
            tau = tau_spec[1]
        p = EpidemicParams(rho=rho, gamma=gamma, alpha=alpha, t_delay=tau)
        beta_h = effective_beta(p, stats)
        root = rightmost_root(model_char_params(beta_h, p)).real
        i0 = 1e-5
        hist = constant_history([i0, beta_h * i0])
        traj = integrate_reduced(p, stats, hist, 100.0, 0.01)
        start = 5.0 * max(1.0 / gamma, tau)
        fit = estimate_growth_rate(traj, "lambda", (start, 100.0))
        err = abs(fit.rate - root)
        tol = max(0.02 * abs(root), 1e-3)
        ok &= err <= tol
        details.append(f"{fit.rate:+.4f}~{root:+.4f}")
    report(5, "reduced-system fitted growth rate matches Re(rightmost root) "
              "within 2% (1e-3 near zero) on a 10-point grid", ok, " ".join(details))


def test_criterion_6_reduction_equivalence_oracle():
    rng = np.random.default_rng(31415)
    ok = True
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(3, 21))
        n_degrees = int(rng.integers(2, min(6, n + 1)))
        ks = rng.choice(np.arange(1, n + 1), size=n_degrees, replace=False)
        counts = {int(k): int(rng.integers(50, 5000)) for k in ks}
        dist = DegreeDistribution(counts)
        n = dist.max_degree
        p = EpidemicParams(rho=float(rng.uniform(0.01, 0.08)), gamma=0.1,
                           alpha=float(rng.uniform(0.3, 0.9)),
                           t_delay=float(rng.uniform(0.5, 2.0)))
        y0 = np.zeros(n)
        for k, cnt in dist.items():
            y0[k - 1] = 1e-4 * cnt
        part = integrate_partitioned(p, dist, constant_history(y0), 50.0, 0.01)
        agg = infectious_fraction(part, dist)
        red = integrate_reduced(p, compute_stats(dist),
                                consistent_reduced_history(dist, y0, p.rho), 50.0, 0.01)
        ref = red.component("i")
        gap = float(np.max(np.abs(agg - ref) / np.abs(ref)))
        worst = max(worst, gap)
        ok &= gap < 1e-6
    report(6, "partitioned and reduced infectious trajectories agree to 1e-6 "
              "relative over [0, 50] days (5 random distributions, n <= 20)",
           ok, f"worst gap = {worst:.2e}")


def test_criterion_7_network_reproduction():
    params = EpidemicParams(rho=0.2, gamma=0.1, alpha=0.0, t_delay=0.0)
    results = {}
    seedings = ("uniform", "degree")
    for kind in ("config-poisson", "barabasi-albert", "watts-strogatz"):
        # each run's graph is built once and serves both seedings
        ensembles = run_scenarios(GraphSpec(kind, 100_000, 4.0),
                                  [(params, seeding) for seeding in seedings],
                                  runs=100, days=30, base_seed=2024, threads=2)
        results.update(((kind, seeding), stats) for seeding, stats in zip(seedings, ensembles))

    def census(stats):
        mu = float(stats.census_mu.mean())
        sb = mu + float(stats.census_var.mean()) / mu
        return mu, sb

    def stderr_day1(stats):
        # standard error of day 1's ensemble mean infectious degree
        valid = np.sum(~np.isnan(stats.mean_inf_degree), axis=0)
        return float((stats.stddev_inf_degree() / np.sqrt(np.maximum(valid, 1)))[0])

    checks = []

    # (a) configuration model, uniform seeding
    st = results["config-poisson", "uniform"]
    mu, sb = census(st)
    m = st.ensemble_mean_inf_degree()
    plateau = float(np.nanmean(m[14:30]))
    checks.append(("7a day1", abs(m[0] - mu) <= 0.3,
                   f"day1={m[0]:.3f} vs mu={mu:.3f}"))
    checks.append(("7a plateau", mu <= plateau <= 1.05 * sb,
                   f"plateau={plateau:.3f} in [{mu:.3f}, {1.05 * sb:.3f}]"))

    # (b) configuration model, degree-proportional seeding
    st = results["config-poisson", "degree"]
    mu, sb = census(st)
    m = st.ensemble_mean_inf_degree()
    spread = np.nanstd(st.mean_inf_degree, axis=0, ddof=1)
    rises = np.diff(m) - 2.0 * spread[1:]
    checks.append(("7b day1", abs(m[0] - sb) <= 0.05 * sb,
                   f"day1={m[0]:.3f} vs mu+var/mu={sb:.3f}"))
    checks.append(("7b non-increase", float(np.max(rises)) <= 0.0,
                   f"worst rise minus 2*spread = {float(np.max(rises)):+.4f}"))

    # (c) analogous qualitative checks for the other two families
    for kind in ("barabasi-albert", "watts-strogatz"):
        st = results[kind, "uniform"]
        mu, sb = census(st)
        m = st.ensemble_mean_inf_degree()
        se1 = stderr_day1(st)
        checks.append((f"7c {kind} day1", abs(m[0] - mu) <= max(0.3, 4.0 * se1),
                       f"day1={m[0]:.3f} vs mu={mu:.3f}"))
        checks.append((f"7c {kind} bounded", float(np.nanmax(m)) <= 1.05 * sb,
                       f"max={float(np.nanmax(m)):.3f} <= {1.05 * sb:.3f}"))
        checks.append((f"7c {kind} rises above mu", float(np.nanmean(m[2:10])) > mu,
                       f"early mean={float(np.nanmean(m[2:10])):.3f}"))
        st = results[kind, "degree"]
        mu, sb = census(st)
        m = st.ensemble_mean_inf_degree()
        se1 = stderr_day1(st)
        spread = np.nanstd(st.mean_inf_degree, axis=0, ddof=1)
        rises = np.diff(m) - 2.0 * spread[1:]
        checks.append((f"7c {kind} degree day1",
                       abs(m[0] - sb) <= max(0.05 * sb, 4.0 * se1),
                       f"day1={m[0]:.3f} vs {sb:.3f}"))
        checks.append((f"7c {kind} non-increase", float(np.max(rises)) <= 0.0,
                       f"worst rise minus 2*spread = {float(np.max(rises)):+.4f}"))

    ok = all(passed for _, passed, _ in checks)
    detail = "; ".join(f"{name}[{'ok' if passed else info}]" if passed
                       else f"{name}[FAIL {info}]" for name, passed, info in checks)
    report(7, "desk-scale network experiments reproduce the infectious-degree "
              "behaviour on all three graph families", ok, detail)


def test_criterion_8_lambert_identity_suite():
    ok = True
    worst = 0.0
    for w in np.linspace(-1.0, 10.0, 10_000):
        err = abs(lambert_w(w * math.exp(w), "principal") - w)
        worst = max(worst, err)
        ok &= err <= 1e-10
    for w in np.linspace(-20.0, -1.0, 10_000):
        err = abs(lambert_w(w * math.exp(w), "minus_one") - w)
        worst = max(worst, err)
        ok &= err <= 1e-10
    report(8, "Lambert W identity W(w e^w) = w to 1e-10 on both branches "
              "(10^4 samples each)", ok, f"worst error = {worst:.2e}")


def test_criterion_9_degree_proportional_isolation_factor():
    dist = DegreeDistribution({1: 500, 7: 500})
    stats = compute_stats(dist)
    n = dist.max_degree
    alpha, rho, gamma, tau = 0.7, 0.075, 0.1, 1.0
    y0 = np.zeros(n)
    for k, cnt in dist.items():
        y0[k - 1] = 1e-4 * cnt

    p = EpidemicParams(rho=rho, gamma=gamma, alpha=alpha, t_delay=tau)
    part = integrate_partitioned(p, dist, constant_history(y0), 50.0, 0.01,
                                 degree_proportional=True)
    agg = infectious_fraction(part, dist)
    mask = (part.times >= 25.0) & (part.times <= 50.0)
    rate_partitioned = float(np.polyfit(part.times[mask], np.log(agg[mask]), 1)[0])

    def reduced_rate(alpha_eff: float) -> float:
        q = EpidemicParams(rho=rho, gamma=gamma, alpha=alpha_eff, t_delay=tau)
        red = integrate_reduced(q, stats, consistent_reduced_history(dist, y0, rho),
                                50.0, 0.01)
        return estimate_growth_rate(red, "i", (25.0, 50.0)).rate

    alpha_derived = degree_proportional_alpha(alpha, dist)
    rate_derived = reduced_rate(alpha_derived)
    rel_derived = abs(rate_partitioned - rate_derived) / abs(rate_partitioned)

    # the printed variant of the scaling factor, <k^3>/(n sigma^2 mu^2)
    alpha_printed = alpha * stats.k3 / (n * stats.sigma**2 * stats.mu**2)
    rate_printed = reduced_rate(alpha_printed)
    rel_printed = abs(rate_partitioned - rate_printed) / abs(rate_partitioned)

    print(f"  degree-proportional isolation, two-point distribution N_1=N_7=500:")
    print(f"  derived factor <k^3>/(n<k^2>): alpha_eff={alpha_derived:.6f} "
          f"rate gap {100 * rel_derived:.3f}% (agrees)")
    print(f"  printed factor <k^3>/(n s^2 m^2): alpha_eff={alpha_printed:.6f} "
          f"rate gap {100 * rel_printed:.1f}% (disagrees, as documented)")
    ok = (abs(alpha_derived - 0.688) < 1e-12 and rel_derived <= 0.01
          and rel_printed > 0.01)
    report(9, "equivalent common isolation fraction for alpha_k = alpha*k/n "
              "verified by the delayed-system oracle; printed variant fails it",
           ok, f"derived gap {100 * rel_derived:.3f}%, printed gap {100 * rel_printed:.1f}%")
