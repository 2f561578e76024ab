import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epidelay import dde
from epidelay.dde import (
    History,
    IntegrationError,
    Trajectory,
    _make_times,
    constant_history,
    consistent_reduced_history,
    default_fit_window,
    estimate_growth_rate,
    infectious_fraction,
    integrate_homogeneous,
    integrate_partitioned,
    integrate_reduced,
    partition_sizes,
)
from epidelay.params import (
    DegreeDistribution,
    DegreeStats,
    EpidemicParams,
    HeterogeneityMode,
    ModelError,
    compute_stats,
    effective_beta,
)
from epidelay.stability import (
    VerdictKind,
    heterogeneous_delay_bound,
    model_char_params,
    rightmost_root,
)


def synthetic_exponential(rate: float, t_end: float = 20.0, dt: float = 0.1) -> Trajectory:
    times = np.arange(0.0, t_end + dt / 2, dt)
    states = np.exp(rate * times)[:, None]
    derivs = rate * states
    return Trajectory(times=times, states=states, derivs=derivs,
                      components=("x",), history=constant_history([1.0]))


class TestGrowthEstimator:
    def test_exact_exponential(self):
        traj = synthetic_exponential(0.2)
        fit = estimate_growth_rate(traj, "x", (0.0, 20.0))
        assert fit.rate == pytest.approx(0.2, abs=1e-10)
        assert fit.residual_rms < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_samples_rejected(self, bad):
        traj = synthetic_exponential(0.2)
        series = traj.component("x").copy()
        series[100] = bad
        with pytest.raises(ModelError, match="non-finite samples"):
            estimate_growth_rate(traj, series, (0.0, 20.0))

    def test_nonpositive_samples_rejected(self):
        times = np.linspace(0, 10, 11)
        states = np.linspace(1.0, -0.5, 11)[:, None]
        traj = Trajectory(times=times, states=states, derivs=np.zeros_like(states),
                          components=("x",), history=constant_history([1.0]))
        with pytest.raises(ModelError):
            estimate_growth_rate(traj, "x", (0.0, 10.0))

    def test_series_of_wrong_shape_rejected(self):
        traj = synthetic_exponential(0.2)
        with pytest.raises(ModelError, match="observable has shape"):
            estimate_growth_rate(traj, np.ones(len(traj.times) - 1), (0.0, 20.0))

    def test_window_too_small(self):
        traj = synthetic_exponential(0.1)
        with pytest.raises(ModelError):
            estimate_growth_rate(traj, "x", (0.0, 0.05))

    def test_default_window_skips_transient(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.0, t_delay=2.0)
        assert default_fit_window(p, 100.0) == (50.0, 100.0)
        p = EpidemicParams(rho=0.0, gamma=0.5, alpha=0.0, t_delay=7.0)
        assert default_fit_window(p, 100.0) == (35.0, 100.0)
        with pytest.raises(ModelError):
            default_fit_window(p, 20.0)


class TestHomogeneous:
    def test_uncontrolled_growth_rate(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.0, t_delay=0.0)
        hist = constant_history([1.0 - 1e-5, 1e-5, 0.0])
        traj = integrate_homogeneous(p, 0.3, hist, 40.0, 0.01)
        fit = estimate_growth_rate(traj, "i", (10.0, 30.0))
        assert fit.rate == pytest.approx(0.2, rel=0.01)

    def test_conservation_with_isolation(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.8, t_delay=1.0)
        hist = constant_history([1.0 - 1e-3, 1e-3, 0.0])
        traj = integrate_homogeneous(p, 0.3, hist, 100.0, 0.01)
        total = traj.states.sum(axis=1)
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_fourth_order_convergence(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.0, t_delay=0.0)
        hist = constant_history([0.9, 0.1, 0.0])

        def endpoint(dt):
            return integrate_homogeneous(p, 0.4, hist, 5.0, dt).states[-1]

        ref = endpoint(0.05 / 8)
        err_coarse = np.max(np.abs(endpoint(0.05) - ref))
        err_fine = np.max(np.abs(endpoint(0.025) - ref))
        assert err_coarse / err_fine == pytest.approx(16.0, rel=0.4)

    def test_delay_continuity(self):
        hist = constant_history([1.0 - 1e-4, 1e-4, 0.0])
        base = integrate_homogeneous(
            EpidemicParams(rho=0.0, gamma=0.1, alpha=0.8, t_delay=0.0),
            0.3, hist, 10.0, 0.025)
        diffs = []
        for tau in (0.4, 0.2, 0.1):
            p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.8, t_delay=tau)
            traj = integrate_homogeneous(p, 0.3, hist, 10.0, 0.025)
            diffs.append(abs(traj.component("i")[-1] - base.component("i")[-1]))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[0] / diffs[1] == pytest.approx(2.0, rel=0.3)
        assert diffs[1] / diffs[2] == pytest.approx(2.0, rel=0.3)

    def test_blow_up_reports_last_time(self, monkeypatch):
        p = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.0, t_delay=0.0)
        stats = DegreeStats.from_mu_cv(4.0, 0.5)
        hist = constant_history([1e-5, 0.375e-5])
        monkeypatch.setattr(dde, "BLOW_UP_CAP", 1e-3)
        with pytest.raises(IntegrationError) as err:
            integrate_reduced(p, stats, hist, 200.0, 0.01)
        assert 0.0 < err.value.t_last < 200.0

    def test_dt_vs_delay_precondition(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.5, t_delay=0.02)
        hist = constant_history([0.9, 0.1, 0.0])
        with pytest.raises(ModelError):
            integrate_homogeneous(p, 0.3, hist, 1.0, 0.01)

    @pytest.mark.parametrize("t_end,dt", [(1.0, float("nan")), (1.0, float("inf")),
                                          (float("nan"), 0.01), (float("inf"), 0.01),
                                          (1e7, 0.01), (1e300, 1e-300)])
    def test_non_finite_or_oversized_grid(self, t_end, dt):
        # rejected before anything is allocated
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.5, t_delay=0.0)
        hist = constant_history([0.9, 0.1, 0.0])
        with pytest.raises(ModelError):
            integrate_homogeneous(p, 0.3, hist, t_end, dt)

    def test_bit_reproducible(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.7, t_delay=0.8)
        hist = constant_history([1.0 - 1e-4, 1e-4, 0.0])
        a = integrate_homogeneous(p, 0.3, hist, 20.0, 0.01)
        b = integrate_homogeneous(p, 0.3, hist, 20.0, 0.01)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)


    # the homogeneous ops of the analytic-crosscheck benchmark at seed 43,
    # op (8, 1), and seed 884, op (2, 1), as that benchmark builds them. The
    # branch arguments, -0.3645 and -0.3668, lie just above -1/e, so a second
    # real root trails the rightmost one by 0.034 and 0.029/day, and a
    # log-linear fit over the window reads a mix of both modes
    @pytest.mark.xfail(strict=True, reason="the growth fit sees only one exponential mode")
    @pytest.mark.parametrize("p,stats", [
        (EpidemicParams(rho=0.01733976828648324, gamma=0.09130886295149547,
                        alpha=0.9922181257204428, t_delay=7.983215647484057),
         DegreeStats.from_mu_cv(5.521765007242578, 0.48989172289472727)),
        (EpidemicParams(rho=0.016257734963321717, gamma=0.14243376569923769,
                        alpha=0.9979322964548305, t_delay=5.2203263772847235),
         DegreeStats.from_mu_cv(6.687351157098339, 0.8316554775759887)),
    ], ids=["seed43-op8", "seed884-op2"])
    def test_growth_meets_root_near_the_branch_point(self, p, stats):
        beta_h = effective_beta(p, stats)
        traj = integrate_homogeneous(p, beta_h, constant_history([1.0 - 1e-12, 1e-12, 0.0]),
                                     100.0, 0.01)
        fit = estimate_growth_rate(traj, "i", (5.0 * max(1.0 / p.gamma, p.t_delay), 100.0))
        root = rightmost_root(model_char_params(beta_h, p)).real
        assert abs(fit.rate - root) <= max(0.02 * abs(root), 1e-3)


class TestHistory:
    @pytest.mark.parametrize("y0,rate", [([math.nan, 0.1], 0.0), ([0.9, math.inf], 0.0),
                                         ([0.9, 0.1], math.nan), ([0.9, 0.1], math.inf),
                                         ([0.9, 0.1], -math.inf)])
    def test_non_finite_rejected(self, y0, rate):
        with pytest.raises(ModelError, match="history"):
            History(y0, rate)

    def test_overflow_refused(self):
        # exp(1000) and exp(1e6) pass the float range
        with pytest.raises(ModelError, match="history .* beyond the float range"):
            History([0.9, 0.1], -1000.0)(-1.0)
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.5, t_delay=1.0)
        traj = integrate_homogeneous(p, 0.3, History([0.99, 0.01, 0.0], -1.0), 5.0, 0.05)
        with pytest.raises(ModelError, match="history .* beyond the float range"):
            traj.sample(-1e6)

    def test_product_overflow_refused(self):
        # exp(709.5) is finite; its product with the largest |y0| decides,
        # exactly where the product itself would pass the float range
        factor = math.exp(709.5)
        c = sys.float_info.max / factor
        while c * factor < math.inf:
            c = math.nextafter(c, math.inf)
        for y0 in ([c, 0.0, 1e-3], [1e-3, -c], [0.0, 2.0]):
            with pytest.raises(ModelError, match="history .* beyond the float range"):
                History(y0, -709.5)(-1.0)
        inside = [math.nextafter(c, 0.0), 0.0, -1e-3]
        assert same_bits(History(inside, -709.5)(-1.0), np.array(inside) * factor)
        # an exp that overflows is refused whatever y0 holds
        with pytest.raises(ModelError, match="history .* beyond the float range"):
            History([0.0, 0.0], -1000.0)(-1.0)

    def test_rate_zero_is_constant(self):
        y0 = [0.3, 1.0 / 7.0]
        for theta in (-2.5, -1e-9, 0.0):
            assert np.array_equal(History(y0, 0.0)(theta), constant_history(y0)(theta))


# Reference stepper: the scalar loops the kernels replaced, one component at a
# time, with the systems selected by code and their coefficients packed into
# one array. The kernels must reproduce it bit for bit.
SYS_HOMOGENEOUS, SYS_REDUCED, SYS_PARTITIONED_FROZEN, SYS_PARTITIONED_DYNAMIC = range(4)


def ref_dense_eval(t_query, times, states, derivs, filled, dt, hist_rate, hist_y0, out):
    t0 = times[0]
    if t_query <= t0:
        factor = math.exp(hist_rate * (t_query - t0))
        for j in range(out.shape[0]):
            out[j] = hist_y0[j] * factor
        return
    i = int((t_query - t0) / dt)
    if i > filled - 1:
        i = filled - 1
    if i < 0:
        i = 0
    while i > 0 and times[i] > t_query:
        i -= 1
    while i < filled - 1 and times[i + 1] < t_query:
        i += 1
    h = times[i + 1] - times[i]
    th = (t_query - times[i]) / h
    h00 = (1.0 + 2.0 * th) * (1.0 - th) * (1.0 - th)
    h10 = th * (1.0 - th) * (1.0 - th)
    h01 = th * th * (3.0 - 2.0 * th)
    h11 = th * th * (th - 1.0)
    for j in range(out.shape[0]):
        out[j] = (
            h00 * states[i, j]
            + h10 * h * derivs[i, j]
            + h01 * states[i + 1, j]
            + h11 * h * derivs[i + 1, j]
        )


def ref_rhs(system, y, y_del, coeffs, out):
    if system == SYS_HOMOGENEOUS:
        beta, gamma, iso = coeffs[0], coeffs[1], coeffs[2]
        q = iso * y_del[1]
        flow = beta * y[0] * (y[1] - q)
        out[0] = -flow
        out[1] = flow - gamma * y[1]
        out[2] = gamma * y[1]
    elif system == SYS_REDUCED:
        mu, beta_h, gamma, iso = coeffs[0], coeffs[1], coeffs[2], coeffs[3]
        xi = y[1] - iso * y_del[1]
        out[0] = mu * xi - gamma * y[0]
        out[1] = beta_h * xi - gamma * y[1]
    elif system == SYS_PARTITIONED_FROZEN:
        n = y.shape[0]
        gamma, scale = coeffs[0], coeffs[1]
        xi_sum = 0.0
        for i in range(n):
            k = float(i + 1)
            xi_sum += k * (y[i] - coeffs[2 + i] * y_del[i])
        xi = scale * xi_sum
        for i in range(n):
            out[i] = float(i + 1) * coeffs[2 + n + i] * xi - gamma * y[i]
    else:
        n = y.shape[0] // 2
        gamma, scale = coeffs[0], coeffs[1]
        xi_sum = 0.0
        for i in range(n):
            k = float(i + 1)
            xi_sum += k * (y[n + i] - coeffs[2 + i] * y_del[n + i])
        xi = scale * xi_sum
        for i in range(n):
            k = float(i + 1)
            out[i] = -k * y[i] * xi
            out[n + i] = k * y[i] * xi - gamma * y[n + i]


def ref_rk4_dde(system, times, states, derivs, dt, tau, coeffs, hist_rate, hist_y0, cap):
    nsteps = times.shape[0] - 1
    dim = states.shape[1]
    lag = tau > 0.0
    y_del = np.empty(dim)
    y_tmp = np.empty(dim)
    k2 = np.empty(dim)
    k3 = np.empty(dim)
    k4 = np.empty(dim)
    stage_del = y_del if lag else y_tmp
    if lag:
        ref_dense_eval(times[0] - tau, times, states, derivs, 0, dt, hist_rate, hist_y0, y_del)
    ref_rhs(system, states[0], y_del if lag else states[0], coeffs, derivs[0])
    for m in range(nsteps):
        t = times[m]
        h = times[m + 1] - times[m]
        half = 0.5 * h
        if lag:
            ref_dense_eval(t + half - tau, times, states, derivs, m, dt, hist_rate, hist_y0,
                           y_del)
        for j in range(dim):
            y_tmp[j] = states[m, j] + half * derivs[m, j]
        ref_rhs(system, y_tmp, stage_del, coeffs, k2)
        for j in range(dim):
            y_tmp[j] = states[m, j] + half * k2[j]
        ref_rhs(system, y_tmp, stage_del, coeffs, k3)
        if lag:
            ref_dense_eval(t + h - tau, times, states, derivs, m, dt, hist_rate, hist_y0, y_del)
        for j in range(dim):
            y_tmp[j] = states[m, j] + h * k3[j]
        ref_rhs(system, y_tmp, stage_del, coeffs, k4)
        bad = False
        for j in range(dim):
            val = states[m, j] + (h / 6.0) * (derivs[m, j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
            states[m + 1, j] = val
            if not math.isfinite(val) or abs(val) > cap:
                bad = True
        if bad:
            return 1, m
        ref_rhs(system, states[m + 1], y_del if lag else states[m + 1], coeffs, derivs[m + 1])
    return 0, nsteps


ORACLE_DIST = DegreeDistribution({1: 300, 2: 250, 3: 200, 4: 150, 6: 100, 9: 60, 12: 30, 17: 10})


def oracle_case(system, tau, rate, rho=0.05, cap=1e12, t_end=30.003, dt=0.05,
                homogeneous_y0=(1.0 - 1e-4, 1e-4, 0.0), seeded=1e-3):
    """(run, reference, sample) for one configuration: run() integrates it
    with the package at BLOW_UP_CAP = cap; reference is (status, last,
    times, states, derivs) from the loop stepper, and sample(t) its dense
    output. homogeneous_y0 is the homogeneous system's (S, I, R) history;
    the reduced system's I and the partitioned systems' Y_k / N_k start at
    seeded."""
    dist = ORACLE_DIST
    n = dist.max_degree
    n_k = partition_sizes(dist)
    y0 = seeded * n_k
    p = EpidemicParams(rho=rho, gamma=0.1, alpha=0.7, t_delay=tau)
    iso = p.alpha * math.exp(-p.gamma * tau)
    scale = p.rho / float(np.sum(np.arange(1, n + 1) * n_k))
    alphas = p.alpha * np.arange(1, n + 1) / n
    if system == "homogeneous":
        hist = History(homogeneous_y0, rate)
        code, coeffs = SYS_HOMOGENEOUS, [0.3, p.gamma, iso]

        def integrate():
            return integrate_homogeneous(p, 0.3, hist, t_end, dt)
    elif system == "reduced":
        stats = DegreeStats.from_mu_cv(4.0, 0.5)
        beta_h = effective_beta(p, stats)
        i0 = 1e-2 * seeded
        hist = History([i0, beta_h * i0], rate)
        code, coeffs = SYS_REDUCED, [stats.mu, beta_h, p.gamma, iso]

        def integrate():
            return integrate_reduced(p, stats, hist, t_end, dt)
    elif system == "dynamic":
        hist = History(np.concatenate((n_k - y0, y0)), rate)
        code = SYS_PARTITIONED_DYNAMIC
        coeffs = np.concatenate(([p.gamma, scale], np.full(n, iso)))

        def integrate():
            return integrate_partitioned(p, dist, hist, t_end, dt, dynamic_susceptibles=True)
    else:
        hist = History(y0, rate)
        proportional = system == "alpha-by-degree"
        isos = alphas * math.exp(-p.gamma * tau) if proportional else np.full(n, iso)
        code = SYS_PARTITIONED_FROZEN
        coeffs = np.concatenate(([p.gamma, scale], isos, n_k))

        def integrate():
            return integrate_partitioned(p, dist, hist, t_end, dt,
                                         degree_proportional=proportional)

    def run():
        with mock.patch.object(dde, "BLOW_UP_CAP", cap):
            return integrate()

    times = _make_times(t_end, dt)
    states = np.empty((len(times), len(hist.y0)))
    derivs = np.empty_like(states)
    states[0] = hist.y0
    status, last = ref_rk4_dde(code, times, states, derivs, dt, tau,
                               np.asarray(coeffs, dtype=np.float64), hist.rate, hist.y0, cap)

    def sample(t):
        out = np.empty(states.shape[1])
        ref_dense_eval(float(t), times, states, derivs, len(times) - 1, times[1] - times[0],
                       hist.rate, hist.y0, out)
        return out

    return run, (status, last, times, states, derivs), sample


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


ORACLE_SYSTEMS = ("homogeneous", "reduced", "frozen", "dynamic", "alpha-by-degree")
STEPPERS = ("_rk4_arrays", "_rk4_reduced", "_rk4_homogeneous")

# oracle_case arguments that make a system's state grow through a cap: from
# S = 2 and I < 0 the homogeneous peak |state| rises from 2 to about 2.005
# over an oracle run
GROWING = {"homogeneous": {"homogeneous_y0": (2.0, -1e-4, 0.0)}}


def midway_cap(system, tau, **case):
    """A cap halfway between the peak |state| of the loop stepper's first
    and last nodes, which a run whose peak grows passes mid-run."""
    _, (status, _, _, states, _), _ = oracle_case(system, tau, 0.05, **case)
    assert status == 0
    peaks = np.abs(states).max(axis=1)
    assert peaks[-1] > peaks[0]
    return 0.5 * (peaks[0] + peaks[-1])


def spy_lookups(monkeypatch):
    """Count the segments the steppers are given delayed states for and the
    delayed-state gathers."""
    seen = {"segments": 0, "gathered": 0}
    plain_delayed = dde._delayed

    def spy(stepper):
        def step(f, tl, states, derivs, m0, dels):
            seen["segments"] += dels is not None
            stepper(f, tl, states, derivs, m0, dels)
        return step

    def delayed(*args):
        seen["gathered"] += 1
        return plain_delayed(*args)

    for name in STEPPERS:
        monkeypatch.setattr(dde, name, spy(getattr(dde, name)))
    monkeypatch.setattr(dde, "_delayed", delayed)
    return seen


class TestStepperOracle:
    # at dt 0.05 the delays are 4 (the least allowed), 7.4, 20 and 26 steps;
    # both kernels gather every segment of each
    @pytest.mark.parametrize("rate", [0.0, 0.05])
    @pytest.mark.parametrize("tau", [0.0, 0.2, 0.37, 1.0, 1.3])
    @pytest.mark.parametrize("system", ORACLE_SYSTEMS)
    def test_bit_identical_to_loop_stepper(self, system, tau, rate, monkeypatch):
        run, (status, _, times, states, derivs), ref_sample = oracle_case(system, tau, rate)
        assert status == 0
        seen = spy_lookups(monkeypatch)
        traj = run()
        assert same_bits(traj.times, times)
        assert same_bits(traj.states, states)
        assert same_bits(traj.derivs, derivs)
        # the grid ends in a 0.003-day step; sample nodes, interiors, the
        # tail interval and the history side
        for t in (-1.3, -0.37, -0.01, 0.0, 0.013, 1.0, 17.2371, 30.0, 30.001, 30.003):
            assert same_bits(traj.sample(t), ref_sample(t)), t
        if tau == 0.0:
            assert seen == {"segments": 0, "gathered": 0}
        else:
            assert seen["gathered"] == seen["segments"] > 0

    # at rho 0.3 these grow through the cap mid-run; the reduced runs and the
    # frozen one at 0.37 fail past the first step of a segment, and at tau 0
    # a whole block is one segment. The dynamic system is bounded by its
    # partition sizes; the growing homogeneous one passes a cap taken
    # halfway along its own run (cap None)
    @pytest.mark.parametrize("system,cap", [
        ("reduced", 1.0), ("frozen", 1e4), ("alpha-by-degree", 1e5), ("homogeneous", None),
    ])
    def test_blow_up_stops_where_the_loop_does(self, system, cap):
        case = GROWING.get(system, {})
        for tau in (0.37, 0.2, 0.0):
            run, (status, last, times, _, _), _ = oracle_case(
                system, tau, 0.05, rho=0.3, cap=cap or midway_cap(system, tau, **case), **case)
            assert status == 1 and 0 < last < len(times) - 1
            with pytest.raises(IntegrationError) as err:
                run()
            assert err.value.t_last == float(times[last]), tau

    # the reduced and frozen systems are linear, so from a negated history
    # every state is negated and the run falls through minus the cap, each
    # node below the cap
    @pytest.mark.parametrize("system,cap", [("reduced", 1.0), ("frozen", 1e4)])
    def test_blow_up_below_minus_the_cap(self, system, cap):
        for tau in (0.37, 0.0):
            run, (status, last, times, states, _), _ = oracle_case(
                system, tau, 0.05, rho=0.3, cap=cap, seeded=-1e-3)
            assert status == 1 and 0 < last < len(times) - 1
            assert states[last + 1].min() < -cap and states[:last + 2].max() <= cap
            with pytest.raises(IntegrationError) as err:
                run()
            assert err.value.t_last == float(times[last]), tau

    @pytest.mark.parametrize("first", [True, False])
    @pytest.mark.parametrize("system,cap", [
        ("reduced", 1.0), ("frozen", 1e4), ("alpha-by-degree", 1e5), ("homogeneous", None),
    ])
    def test_blow_up_at_a_segment_edge(self, system, cap, first, monkeypatch):
        # a cap between the peak |state| up to node m and the peak at node
        # m + 1 fails step m: here a segment's first step or its last
        case = GROWING.get(system, {})
        cap = cap or midway_cap(system, 0.37, **case)
        run, (_, last, times, states, _), _ = oracle_case(system, 0.37, 0.05, rho=0.3, cap=cap,
                                                          **case)
        starts = []
        for name in STEPPERS:
            def step(*args, stepper=getattr(dde, name)):
                starts.append(args[4])
                stepper(*args)
            monkeypatch.setattr(dde, name, step)
        with pytest.raises(IntegrationError):
            run()
        peaks = np.maximum.accumulate(np.abs(states[:last + 1]).max(axis=1))
        edges = starts[:-1] if first else [b - 1 for a, b in zip(starts, starts[1:]) if b - 1 > a]
        m = max(m for m in edges if 0 < m < last and peaks[m + 1] > peaks[m])
        run, (status, last, times, _, _), _ = oracle_case(
            system, 0.37, 0.05, rho=0.3, cap=0.5 * (peaks[m] + peaks[m + 1]), **case)
        assert status == 1 and last == m
        with pytest.raises(IntegrationError) as err:
            run()
        assert err.value.t_last == float(times[last])

    # from states far outside the model's range these runs overflow at step
    # 2, in the first of the 3- and 4-step segments of a 256-step block, so
    # the block's later segments step on from inf and NaN nodes: silently,
    # and the run still ends where the loop's does
    @pytest.mark.parametrize("system,case", [
        ("homogeneous", {"homogeneous_y0": (1e3, 1e3, 0.0)}), ("dynamic", {"seeded": 100.0}),
    ])
    def test_overflow_early_in_a_block(self, system, case, monkeypatch):
        # the loop stepper's numpy scalars warn on overflow
        with np.errstate(over="ignore", invalid="ignore"):
            run, (status, last, times, states, _), _ = oracle_case(
                system, 0.2, 0.05, rho=0.3, cap=math.inf, **case)
        assert status == 1 and last == 2 and not np.isfinite(states[last + 1]).all()
        seen = spy_lookups(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as err:
                run()
        assert err.value.t_last == float(times[last])
        assert seen["segments"] > 50

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(system=st.sampled_from(ORACLE_SYSTEMS),
           dt=st.sampled_from([0.01, 0.03, 0.05]),
           ratio=st.one_of(st.integers(4, 64), st.floats(4.0, 64.0)),
           rate=st.sampled_from([0.0, 0.05, -0.2]),
           segments=st.floats(1.0, 3.0),
           tail=st.floats(0.05, 0.95),
           draws=st.lists(st.floats(-1.1, 1.0), min_size=4, max_size=4))
    def test_any_delay_matches_loop_stepper(self, system, dt, ratio, rate, segments, tail,
                                            draws):
        # delays of 4 to 64 steps, whole or not, and a horizon of one to
        # three delays that ends in a short tail step
        tau = ratio * dt
        t_end = (math.floor(segments * ratio) + tail) * dt
        run, (status, _, times, states, derivs), ref_sample = oracle_case(
            system, tau, rate, t_end=t_end, dt=dt)
        assert status == 0
        traj = run()
        assert same_bits(traj.states, states)
        assert same_bits(traj.derivs, derivs)
        for u in draws:
            t = u * (tau + t_end) if u < 0.0 else u * t_end
            assert same_bits(traj.sample(t), ref_sample(t)), t


class TestMemory:
    # 1.5e4 steps, 0.48 MB of states and derivatives; the delays give the
    # float kernel segments of 3-4 and 49-50 steps, whose node lists it
    # writes into the arrays as each ends. Keeping every node as a Python
    # list peaked near 12 times the arrays; this peaks near 1.5 times.
    @pytest.mark.parametrize("tau", [0.04, 0.5])
    def test_float_kernel_keeps_a_bounded_window(self, tau):
        p = EpidemicParams(rho=0.02, gamma=0.1, alpha=0.9, t_delay=tau)
        stats = DegreeStats.from_mu_cv(4.0, 0.5)
        hist = constant_history([1e-5, effective_beta(p, stats) * 1e-5])
        tracemalloc.start()
        try:
            traj = integrate_reduced(p, stats, hist, 150.0, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (traj.states.nbytes + traj.derivs.nbytes)

    # 1e4 steps of 17 or 34 components, 2.7 or 5.4 MB of states and
    # derivatives; the array kernel's stage rows, its delayed products (the
    # gather, multiplied in place) and the driver's cap test (two values a
    # node of a block) stay within
    # _GATHER_VALUES (0.5 MB), and this peaks at 1.03-1.07 times the arrays
    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize("tau", [0.04, 0.5])
    def test_array_kernel_keeps_a_bounded_window(self, tau, dynamic):
        p = EpidemicParams(rho=0.02, gamma=0.1, alpha=0.9, t_delay=tau)
        n_k = partition_sizes(ORACLE_DIST)
        y0 = 1e-3 * n_k
        hist = History(np.concatenate((n_k - y0, y0)) if dynamic else y0)
        tracemalloc.start()
        try:
            traj = integrate_partitioned(p, ORACLE_DIST, hist, 100.0, 0.01,
                                         dynamic_susceptibles=dynamic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (traj.states.nbytes + traj.derivs.nbytes)


class TestHermiteBracket:
    # the lookup's guess int((t - t0)/dt), clamped to the grid, is never
    # below the query's interval, so moving it down alone brackets t
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(dt=st.floats(1e-3, 1.0), steps=st.integers(1, 100_000),
           tail=st.just(0.0) | st.floats(0.01, 0.99), data=st.data())
    def test_guess_never_below_bracket(self, dt, steps, tail, data):
        times = _make_times((steps + tail) * dt, dt)
        nodes = data.draw(st.lists(st.integers(0, len(times) - 1), min_size=1, max_size=20))
        ulps = data.draw(st.lists(st.integers(-4, 4), min_size=len(nodes), max_size=len(nodes)))
        queries = []
        for k, n in zip(nodes, ulps):
            t = float(times[k])
            for _ in range(abs(n)):
                t = math.nextafter(t, math.copysign(math.inf, n))
            queries.append(t)
        span = float(times[-1] - times[0])
        queries += [float(times[0]) + u * span
                    for u in data.draw(st.lists(st.floats(0.0, 1.0), max_size=20))]
        t = np.array([q for q in queries if times[0] < q <= times[-1]])
        assume(len(t))
        i = dde._hermite(t, times, dt)[0]
        assert ((0 <= i) & (i <= len(times) - 2)).all()
        assert ((times[i] <= t) & (t <= times[i + 1])).all()
        guess = np.clip(((t - times[0]) / dt).astype(np.intp), 0, len(times) - 2)
        assert (guess >= i).all()


class TestDenseOutput:
    def test_nodes_match_exactly(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.5, t_delay=1.0)
        hist = constant_history([0.99, 0.01, 0.0])
        traj = integrate_homogeneous(p, 0.3, hist, 5.0, 0.05)
        for i in (0, 7, 42, len(traj.times) - 1):
            assert np.array_equal(traj.sample(traj.times[i]), traj.states[i])

    def test_sample_past_horizon_refused(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.5, t_delay=1.0)
        traj = integrate_homogeneous(p, 0.3, constant_history([0.99, 0.01, 0.0]), 5.0, 0.05)
        with pytest.raises(ModelError, match="beyond integrated horizon"):
            traj.sample(traj.times[-1] + 0.01)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_refused(self, t):
        # a rate-0 history would read 0*-inf as NaN
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.5, t_delay=1.0)
        traj = integrate_homogeneous(p, 0.3, constant_history([0.99, 0.01, 0.0]), 5.0, 0.05)
        with pytest.raises(ModelError, match="t must be finite"):
            traj.sample(t)

    def test_history_of_wrong_dimension_refused(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.5, t_delay=1.0)
        with pytest.raises(ModelError, match="history dimension"):
            integrate_homogeneous(p, 0.3, constant_history([0.99, 0.01]), 5.0, 0.05)

    def test_history_returned_exactly_before_start(self):
        y0 = np.array([0.9, 0.1, 0.0])
        hist = History(y0, 0.3)
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.5, t_delay=1.0)
        traj = integrate_homogeneous(p, 0.3, hist, 5.0, 0.05)
        for theta in (-1.0, -0.37, 0.0):
            assert np.array_equal(traj.sample(theta), hist(theta))

    def test_interpolation_accuracy_between_nodes(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.0, t_delay=0.0)
        hist = constant_history([0.9, 0.1, 0.0])
        coarse = integrate_homogeneous(p, 0.4, hist, 5.0, 0.05)
        fine = integrate_homogeneous(p, 0.4, hist, 5.0, 0.0125)
        t = 2.0 + 0.05 / 3
        assert coarse.sample(t) == pytest.approx(fine.sample(t), abs=1e-8)

    def test_csv_round_trip(self, tmp_path):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.5, t_delay=1.0)
        hist = constant_history([0.99, 0.01, 0.0])
        traj = integrate_homogeneous(p, 0.3, hist, 5.0, 0.05)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,s,i,r"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:], traj.states)


class TestReducedSystem:
    # {1: 50, 9: 50} has h = 1.64 mixed and 1.44 on a fixed graph; the DDE
    # must follow whichever h the stats carry
    @pytest.mark.parametrize("stats", [
        DegreeStats.from_mu_cv(4.0, 0.5),
        compute_stats(DegreeDistribution({1: 50, 9: 50}), HeterogeneityMode.MIXED_POPULATION),
        compute_stats(DegreeDistribution({1: 50, 9: 50}), HeterogeneityMode.FIXED_GRAPH),
    ], ids=["mu-cv", "mixed-population", "fixed-graph"])
    def test_growth_matches_rightmost_root(self, stats):
        p = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.8, t_delay=0.5)
        beta_h = p.rho * stats.mu * stats.h
        hist = constant_history([1e-5, beta_h * 1e-5])
        traj = integrate_reduced(p, stats, hist, 100.0, 0.01)
        fit = estimate_growth_rate(traj, "lambda", (50.0, 100.0))
        root = rightmost_root(model_char_params(beta_h, p))
        assert fit.rate == pytest.approx(root.real, rel=1e-6, abs=1e-9)

    # the degree distribution sets cv; both modes map it to a different h
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(rho=st.floats(0.005, 0.3), gamma=st.floats(0.1, 0.5), alpha=st.floats(0.0, 1.0),
           t_delay=st.floats(0.1, 5.0),
           counts=st.dictionaries(st.integers(1, 8), st.integers(1, 1000), min_size=1,
                                  max_size=3),
           mode=st.sampled_from(list(HeterogeneityMode)))
    def test_bound_root_and_growth_signs_agree(self, rho, gamma, alpha, t_delay, counts, mode):
        p = EpidemicParams(rho=rho, gamma=gamma, alpha=alpha, t_delay=t_delay)
        stats = compute_stats(DegreeDistribution(counts), mode)
        verdict = heterogeneous_delay_bound(p, stats)
        beta_h = effective_beta(p, stats)
        # keep away from the boundary, where the signs are not resolvable
        assume(abs(verdict.margin) > 0.01 and beta_h > 0.0)
        bound_stable = verdict.kind is VerdictKind.UNCONDITIONALLY_STABLE or (
            verdict.kind is VerdictKind.STABLE_UP_TO and t_delay < verdict.t_max)
        with mock.patch.object(dde, "BLOW_UP_CAP", 1e250):
            traj = integrate_reduced(p, stats, constant_history([1e-5, beta_h * 1e-5]), 100.0,
                                     0.02)
        fit = estimate_growth_rate(traj, "lambda", default_fit_window(p, 100.0))
        assert bound_stable == (verdict.margin < 0.0) == (fit.rate < 0.0)

    def test_exponential_history_shortens_transient(self):
        p = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.8, t_delay=1.0)
        stats = DegreeStats.from_mu_cv(4.0, 0.0)
        beta_h = 0.3
        root = rightmost_root(model_char_params(beta_h, p)).real
        y0 = np.array([1e-5, beta_h * 1e-5])
        traj = integrate_reduced(p, stats, History(y0, root), 30.0, 0.01)
        fit = estimate_growth_rate(traj, "lambda", (5.0, 30.0))
        assert fit.rate == pytest.approx(root, rel=1e-3)


class TestPartitionedSystem:
    def rand_dist(self, rng) -> DegreeDistribution:
        n = int(rng.integers(3, 21))
        ks = rng.choice(np.arange(1, n + 1), size=min(5, n), replace=False)
        counts = {int(k): int(rng.integers(50, 2000)) for k in ks}
        counts[int(max(ks))] = max(counts[int(max(ks))], 1)
        return DegreeDistribution(counts)

    def test_reduction_equivalence_random_distributions(self):
        rng = np.random.default_rng(2718)
        for _ in range(3):
            dist = self.rand_dist(rng)
            n = dist.max_degree
            p = EpidemicParams(rho=float(rng.uniform(0.01, 0.08)), gamma=0.1,
                               alpha=float(rng.uniform(0.3, 0.9)),
                               t_delay=float(rng.uniform(0.5, 2.0)))
            y0 = np.zeros(n)
            for k, cnt in dist.items():
                if k >= 1:
                    y0[k - 1] = 1e-4 * cnt
            part = integrate_partitioned(p, dist, constant_history(y0), 50.0, 0.01)
            agg = infectious_fraction(part, dist)
            red = integrate_reduced(p, compute_stats(dist),
                                    consistent_reduced_history(dist, y0, p.rho), 50.0, 0.01)
            ref = red.component("i")
            assert np.max(np.abs(agg - ref) / np.abs(ref)) < 1e-6

    def test_infectious_fraction_needs_partitions(self):
        p = EpidemicParams(rho=0.05, gamma=0.1, alpha=0.5, t_delay=1.0)
        dist = DegreeDistribution({2: 600, 5: 400})
        traj = integrate_reduced(p, compute_stats(dist), constant_history([1e-3, 1e-4]),
                                 5.0, 0.05)
        with pytest.raises(ModelError, match="no partition components"):
            infectious_fraction(traj, dist)

    def test_dynamic_mode_tracks_frozen_early(self):
        dist = DegreeDistribution({2: 4000, 6: 1000})
        p = EpidemicParams(rho=0.05, gamma=0.1, alpha=0.5, t_delay=1.0)
        n = dist.max_degree
        y0 = np.zeros(n)
        y0[1] = 1.0
        frozen = integrate_partitioned(p, dist, constant_history(y0), 5.0, 0.01)
        x0 = np.zeros(2 * n)
        for k, cnt in dist.items():
            x0[k - 1] = cnt
        x0[n:] = y0
        dyn = integrate_partitioned(p, dist, constant_history(x0), 5.0, 0.01,
                                    dynamic_susceptibles=True)
        agg_frozen = infectious_fraction(frozen, dist)
        agg_dyn = infectious_fraction(dyn, dist)
        assert agg_dyn[-1] == pytest.approx(agg_frozen[-1], rel=1e-3)
        # susceptibles only deplete
        x_cols = [i for i, c in enumerate(dyn.components) if c.startswith("x")]
        xs = dyn.states[:, x_cols]
        assert np.all(np.diff(xs.sum(axis=1)) <= 1e-12)

    def test_per_degree_isolation_fractions(self):
        dist = DegreeDistribution({1: 500, 7: 500})
        p = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.7, t_delay=1.0)
        y0 = np.array([5.0, 0, 0, 0, 0, 0, 5.0])
        traj = integrate_partitioned(p, dist, constant_history(y0), 10.0, 0.01,
                                     degree_proportional=True)
        assert np.all(np.isfinite(traj.states))

    def test_overflow_is_silent_and_stops_the_run(self, monkeypatch):
        # with no cap below the float range this run's states overflow to
        # inf; the array stepper must say so with IntegrationError, as the
        # float steppers do, not with a RuntimeWarning (an error here)
        dist = DegreeDistribution({1: 500, 2: 400, 3: 300, 4: 200, 5: 100, 6: 50})
        p = EpidemicParams(rho=0.05, gamma=0.1, alpha=0.8, t_delay=7.3)
        n_k = partition_sizes(dist)
        hist = History(np.concatenate((n_k - 0.01 * n_k, 0.5 * n_k)), -0.2)
        monkeypatch.setattr(dde, "BLOW_UP_CAP", math.inf)
        with pytest.raises(IntegrationError) as err:
            integrate_partitioned(p, dist, hist, 40.0, 0.01, dynamic_susceptibles=True)
        assert 0.0 < err.value.t_last < 40.0


class TestConsistentReducedHistory:
    def test_proportional_seeding_matches_size_biased_force(self):
        dist = DegreeDistribution({2: 600, 5: 400})
        stats = compute_stats(dist)
        n = dist.max_degree
        y0 = np.zeros(n)
        scale = 1e-3
        for k, cnt in dist.items():
            y0[k - 1] = scale * k * cnt
        hist = consistent_reduced_history(dist, y0, rho=0.05)
        y_total = y0.sum()
        # seeding proportional to k*N_k concentrates force by <k^2>/<k>^2
        lam_expected = 0.05 * (stats.sigma**2 + stats.mu**2) * y_total / (
            stats.mu**2 * dist.population)
        assert hist.y0[1] == pytest.approx(lam_expected, rel=1e-12)
        assert hist.y0[0] == pytest.approx(y_total / dist.population, rel=1e-12)

    def test_single_degree_recovers_homogeneous_force(self):
        dist = DegreeDistribution({4: 1000})
        y0 = np.zeros(4)
        y0[3] = 10.0
        hist = consistent_reduced_history(dist, y0, rho=0.2)
        assert hist.y0[1] == pytest.approx(0.2 * hist.y0[0], rel=1e-12)

    def test_zero_rho(self):
        dist = DegreeDistribution({4: 1000})
        y0 = np.zeros(4)
        y0[3] = 10.0
        assert consistent_reduced_history(dist, y0, rho=0.0).y0[1] == 0.0

    def test_all_zero_rejected(self):
        dist = DegreeDistribution({4: 1000})
        with pytest.raises(ModelError):
            consistent_reduced_history(dist, np.zeros(4), rho=0.1)

    @pytest.mark.parametrize("y0,message", [([0.0, 0.0, 1.0], "one entry per degree"),
                                            ([0.0, 0.0, 1.0, -1e-9], "nonnegative")])
    def test_bad_profile_rejected(self, y0, message):
        dist = DegreeDistribution({4: 1000})
        with pytest.raises(ModelError, match=message):
            consistent_reduced_history(dist, y0, rho=0.1)
