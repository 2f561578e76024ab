import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from epidelay.dde import (
    IntegrationError,
    Trajectory,
    _make_times,
    constant_history,
    consistent_reduced_history,
    default_fit_window,
    estimate_growth_rate,
    exponential_history,
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

    def test_nonpositive_samples_rejected(self):
        times = np.linspace(0, 10, 11)
        states = np.linspace(1.0, -0.5, 11)[:, None]
        traj = Trajectory(times=times, states=states, derivs=np.zeros_like(states),
                          components=("x",), history=constant_history([1.0]))
        with pytest.raises(ModelError):
            estimate_growth_rate(traj, "x", (0.0, 10.0))

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

    def test_blow_up_reports_last_time(self):
        p = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.0, t_delay=0.0)
        stats = DegreeStats.from_mu_cv(4.0, 0.5)
        hist = constant_history([1e-5, 0.375e-5])
        with pytest.raises(IntegrationError) as err:
            integrate_reduced(p, stats, hist, 200.0, 0.01, cap=1e-3)
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


def oracle_case(system, tau, rate, rho=0.05, cap=1e12, t_end=30.003, dt=0.05):
    """(run, reference, sample) for one configuration: run() integrates it
    with the package; reference is (status, last, times, states, derivs)
    from the loop stepper, and sample(t) its dense output."""
    dist = ORACLE_DIST
    n = dist.max_degree
    n_k = partition_sizes(dist)
    y0 = 1e-3 * n_k
    p = EpidemicParams(rho=rho, gamma=0.1, alpha=0.7, t_delay=tau)
    iso = p.alpha * math.exp(-p.gamma * tau)
    scale = p.rho / float(np.sum(np.arange(1, n + 1) * n_k))
    alphas = p.alpha * np.arange(1, n + 1) / n
    if system == "homogeneous":
        hist = exponential_history([1.0 - 1e-4, 1e-4, 0.0], rate)
        code, coeffs = SYS_HOMOGENEOUS, [0.3, p.gamma, iso]

        def run():
            return integrate_homogeneous(p, 0.3, hist, t_end, dt, cap=cap)
    elif system == "reduced":
        stats = DegreeStats.from_mu_cv(4.0, 0.5)
        beta_h = effective_beta(p, stats)
        hist = exponential_history([1e-5, beta_h * 1e-5], rate)
        code, coeffs = SYS_REDUCED, [stats.mu, beta_h, p.gamma, iso]

        def run():
            return integrate_reduced(p, stats, hist, t_end, dt, cap=cap)
    elif system == "dynamic":
        hist = exponential_history(np.concatenate((n_k - y0, y0)), rate)
        code = SYS_PARTITIONED_DYNAMIC
        coeffs = np.concatenate(([p.gamma, scale], np.full(n, iso)))

        def run():
            return integrate_partitioned(p, dist, hist, t_end, dt, dynamic_susceptibles=True,
                                         cap=cap)
    else:
        hist = exponential_history(y0, rate)
        by_degree = alphas if system == "alpha-by-degree" else None
        isos = alphas * math.exp(-p.gamma * tau) if by_degree is not None else np.full(n, iso)
        code = SYS_PARTITIONED_FROZEN
        coeffs = np.concatenate(([p.gamma, scale], isos, n_k))

        def run():
            return integrate_partitioned(p, dist, hist, t_end, dt, alpha_by_degree=by_degree,
                                         cap=cap)

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


class TestStepperOracle:
    @pytest.mark.parametrize("rate", [0.0, 0.05])
    @pytest.mark.parametrize("tau", [0.0, 0.37, 1.3])
    @pytest.mark.parametrize("system", ORACLE_SYSTEMS)
    def test_bit_identical_to_loop_stepper(self, system, tau, rate):
        run, (status, _, times, states, derivs), ref_sample = oracle_case(system, tau, rate)
        assert status == 0
        traj = run()
        assert same_bits(traj.times, times)
        assert same_bits(traj.states, states)
        assert same_bits(traj.derivs, derivs)
        # the grid ends in a 0.003-day step; sample nodes, interiors, the
        # tail interval and the history side
        for t in (-1.3, -0.37, -0.01, 0.0, 0.013, 1.0, 17.2371, 30.0, 30.001, 30.003):
            assert same_bits(traj.sample(t), ref_sample(t)), t

    # at rho 0.3 these grow through the cap mid-run; the dynamic system is
    # bounded by its partition sizes
    @pytest.mark.parametrize("system,cap", [
        ("reduced", 1.0), ("frozen", 1e4), ("alpha-by-degree", 1e5),
    ])
    def test_blow_up_stops_where_the_loop_does(self, system, cap):
        run, (status, last, times, _, _), _ = oracle_case(system, 0.37, 0.05, rho=0.3, cap=cap)
        assert status == 1 and 0 < last < len(times) - 1
        with pytest.raises(IntegrationError) as err:
            run()
        assert err.value.t_last == float(times[last])


class TestDenseOutput:
    def test_nodes_match_exactly(self):
        p = EpidemicParams(rho=0.0, gamma=0.1, alpha=0.5, t_delay=1.0)
        hist = constant_history([0.99, 0.01, 0.0])
        traj = integrate_homogeneous(p, 0.3, hist, 5.0, 0.05)
        for i in (0, 7, 42, len(traj.times) - 1):
            assert np.array_equal(traj.sample(traj.times[i]), traj.states[i])

    def test_history_returned_exactly_before_start(self):
        y0 = np.array([0.9, 0.1, 0.0])
        hist = exponential_history(y0, 0.3)
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
        traj = integrate_reduced(p, stats, constant_history([1e-5, beta_h * 1e-5]), 100.0,
                                 0.02, cap=1e250)
        fit = estimate_growth_rate(traj, "lambda", default_fit_window(p, 100.0))
        assert bound_stable == (verdict.margin < 0.0) == (fit.rate < 0.0)

    def test_exponential_history_shortens_transient(self):
        p = EpidemicParams(rho=0.075, gamma=0.1, alpha=0.8, t_delay=1.0)
        stats = DegreeStats.from_mu_cv(4.0, 0.0)
        beta_h = 0.3
        root = rightmost_root(model_char_params(beta_h, p)).real
        y0 = np.array([1e-5, beta_h * 1e-5])
        traj = integrate_reduced(p, stats, exponential_history(y0, root), 30.0, 0.01)
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
        alphas = 0.7 * np.arange(1, 8) / 7.0
        traj = integrate_partitioned(p, dist, constant_history(y0), 10.0, 0.01,
                                     alpha_by_degree=alphas)
        assert np.all(np.isfinite(traj.states))
        with pytest.raises(ModelError):
            integrate_partitioned(p, dist, constant_history(y0), 10.0, 0.01,
                                  alpha_by_degree=np.array([0.5, 0.5]))


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
