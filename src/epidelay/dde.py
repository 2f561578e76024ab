"""Fixed-step method-of-steps integrator for the delayed isolation models.

Three systems share one classic RK4 stepper with cubic Hermite dense output
for the delayed-term lookups:

  homogeneous   state (S, I, R):
      S' = -beta*S*(I - Q),  I' = beta*S*(I - Q) - gamma*I,  R' = gamma*I,
      Q(t) = alpha*exp(-gamma*tau)*I(t - tau)

  partitioned   state Y_k, k = 1..n (counts; susceptibles frozen at N_k or
      dynamic):  Y_k' = k*X_k*xi - gamma*Y_k,   optionally X_k' = -k*X_k*xi,
      xi(t) = rho * sum_i i*(Y_i - alpha_i*exp(-gamma*tau)*Y_i(t - tau))
                  / sum_k k*N_k

  reduced       state (I, lambda):
      I' = mu*xi - gamma*I,  lambda' = beta_h*xi - gamma*lambda,
      xi(t) = lambda(t) - alpha*exp(-gamma*tau)*lambda(t - tau)

with beta_h = rho*mu*h from params.effective_beta, so the heterogeneity
mode chosen for the stats carries through. About the all-susceptible
equilibrium the partitioned and reduced systems produce identical aggregate
infectious trajectories for consistent initial histories, which is the main
oracle the test suite leans on.

The step size must satisfy dt <= tau/4 so every delayed lookup lands in
already-completed history; at tau = 0 each stage reads its own state as the
delayed one. dt and the horizon must be finite, and the time grid may hold
at most MAX_GRID_VALUES values. Integration is bit-for-bit reproducible for
identical inputs; the stepper compiles under numba when it is installed
(see _accel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accel import maybe_njit
from .params import DegreeDistribution, EpidemicParams, ModelError, effective_beta

SYS_HOMOGENEOUS = 0
SYS_REDUCED = 1
SYS_PARTITIONED_FROZEN = 2
SYS_PARTITIONED_DYNAMIC = 3

# Largest time grid (nodes x state components) an integration may allocate:
# far above any grid in use (10,001 nodes x 80 components), while its states
# and derivatives (two float64 arrays, 320 MB at the limit) still fit in memory.
MAX_GRID_VALUES = 20_000_000


class IntegrationError(RuntimeError):
    """State magnitude exceeded the blow-up cap; carries the last valid time."""

    def __init__(self, message: str, t_last: float):
        super().__init__(message)
        self.t_last = t_last


@dataclass(frozen=True)
class History:
    """Initial-history function on [-tau, 0]: y(theta) = y0 * exp(rate*theta)."""

    y0: np.ndarray
    rate: float = 0.0

    def __post_init__(self):
        y0 = np.asarray(self.y0, dtype=np.float64).copy()
        y0.setflags(write=False)
        object.__setattr__(self, "y0", y0)

    def __call__(self, theta: float) -> np.ndarray:
        return self.y0 * math.exp(self.rate * theta)


def constant_history(y0) -> History:
    return History(np.asarray(y0, dtype=np.float64), 0.0)


def exponential_history(y0, rate: float) -> History:
    return History(np.asarray(y0, dtype=np.float64), float(rate))


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped state history with dense cubic Hermite interpolation."""

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    components: tuple[str, ...]
    history: History

    def __post_init__(self):
        for arr in (self.times, self.states, self.derivs):
            arr.setflags(write=False)

    def component(self, name: str) -> np.ndarray:
        return self.states[:, self.components.index(name)]

    def sample(self, t: float) -> np.ndarray:
        """Dense state at time t; for t <= times[0] this is exactly the
        supplied history function."""
        if t > self.times[-1]:
            raise ModelError(f"t={t} beyond integrated horizon {self.times[-1]}")
        out = np.empty(self.states.shape[1])
        _dense_eval(float(t), self.times, self.states, self.derivs, len(self.times) - 1,
                    self.times[1] - self.times[0], self.history.rate, self.history.y0, out)
        return out

    def to_csv(self, path) -> None:
        """Write `t,<components>` rows at full double precision."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t," + ",".join(self.components) + "\n")
            for i in range(len(self.times)):
                row = [f"{self.times[i]:.17g}"] + [f"{v:.17g}" for v in self.states[i]]
                fh.write(",".join(row) + "\n")


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares slope of log(observable) over a fit window."""

    rate: float
    residual_rms: float
    n_points: int
    window: tuple[float, float]


@maybe_njit(cache=True)
def _dense_eval(t_query, times, states, derivs, filled, dt, hist_rate, hist_y0, out):
    """Interpolated state at t_query, reading the initial history for
    t_query <= times[0] and cubic Hermite data otherwise. Only the first
    `filled` steps are trusted."""
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


@maybe_njit(cache=True)
def _rhs(system, y, y_del, coeffs, out):
    """Right-hand side of the selected system; y_del is the state at t - tau.

    coeffs layouts:
      homogeneous:          [beta, gamma, iso]            iso = alpha*e^{-gamma*tau}
      reduced:              [mu, beta_h, gamma, iso]
      partitioned frozen:   [gamma, scale] + iso_k(n) + N_k(n)   scale = rho/sum(k*N_k)
      partitioned dynamic:  [gamma, scale] + iso_k(n)            state is (X_1..X_n, Y_1..Y_n)
    """
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


@maybe_njit(cache=True)
def _rk4_dde(system, times, states, derivs, dt, tau, coeffs, hist_rate, hist_y0, cap):
    """Method-of-steps RK4 over the preallocated node arrays.

    At tau = 0 the delayed state is the stage state itself. Returns
    (status, last_index): status 0 on success, 1 on blow-up past `cap`
    with last_index the final trusted node.
    """
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
        _dense_eval(times[0] - tau, times, states, derivs, 0, dt, hist_rate, hist_y0, y_del)
    _rhs(system, states[0], y_del if lag else states[0], coeffs, derivs[0])

    for m in range(nsteps):
        t = times[m]
        h = times[m + 1] - times[m]
        half = 0.5 * h

        # stages 2 and 3 share the delayed lookup at t + h/2 - tau
        if lag:
            _dense_eval(t + half - tau, times, states, derivs, m, dt, hist_rate, hist_y0, y_del)
        for j in range(dim):
            y_tmp[j] = states[m, j] + half * derivs[m, j]
        _rhs(system, y_tmp, stage_del, coeffs, k2)

        for j in range(dim):
            y_tmp[j] = states[m, j] + half * k2[j]
        _rhs(system, y_tmp, stage_del, coeffs, k3)

        # stage 4 and the next node derivative share the lookup at t + h - tau
        if lag:
            _dense_eval(t + h - tau, times, states, derivs, m, dt, hist_rate, hist_y0, y_del)
        for j in range(dim):
            y_tmp[j] = states[m, j] + h * k3[j]
        _rhs(system, y_tmp, stage_del, coeffs, k4)

        bad = False
        for j in range(dim):
            val = states[m, j] + (h / 6.0) * (derivs[m, j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
            states[m + 1, j] = val
            if not math.isfinite(val) or abs(val) > cap:
                bad = True
        if bad:
            return 1, m
        _rhs(system, states[m + 1], y_del if lag else states[m + 1], coeffs, derivs[m + 1])
    return 0, nsteps


def _make_times(t_end: float, dt: float) -> np.ndarray:
    n_full = int(math.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    short_tail = remainder > 1e-9 * max(1.0, t_end)
    times = np.arange(n_full + 1 + (1 if short_tail else 0)) * dt
    if short_tail:
        times[-1] = t_end
    return times


def _integrate(system, coeffs, history, components, t_end, dt, tau, cap):
    if not 0.0 < dt < math.inf:
        raise ModelError(f"dt must be finite and > 0, got {dt}")
    if not 0.0 < t_end < math.inf:
        raise ModelError(f"t_end must be finite and > 0, got {t_end}")
    if tau > 0.0 and dt > tau / 4.0:
        raise ModelError(f"dt={dt} too coarse for delay {tau}; need dt <= t_delay/4")
    y0 = np.asarray(history.y0, dtype=np.float64)
    if y0.shape != (len(components),):
        raise ModelError(f"history dimension {y0.shape} does not match state {len(components)}")
    if not (t_end / dt + 2.0) * len(y0) <= MAX_GRID_VALUES:
        raise ModelError(f"time grid t_end/dt = {t_end:g}/{dt:g} with {len(y0)} components "
                         f"exceeds {MAX_GRID_VALUES} values")
    times = _make_times(t_end, dt)
    states = np.empty((len(times), len(y0)), dtype=np.float64)
    derivs = np.empty_like(states)
    states[0] = y0
    status, last = _rk4_dde(
        system, times, states, derivs, dt, tau,
        np.asarray(coeffs, dtype=np.float64),
        float(history.rate), y0, cap,
    )
    if status != 0:
        raise IntegrationError(
            f"state magnitude exceeded cap {cap:g} after t={times[last]:.6g}",
            t_last=float(times[last]),
        )
    return Trajectory(times=times, states=states, derivs=derivs,
                      components=tuple(components), history=history)


def integrate_homogeneous(
    params: EpidemicParams,
    beta: float,
    history: History,
    t_end: float,
    dt: float = 0.01,
    cap: float = 1e12,
) -> Trajectory:
    """Integrate the nonlinear (S, I, R) system with delayed isolation.

    beta is the mixing rate, e.g. effective_beta(params, stats); pass the
    heterogeneity-scaled value to integrate the equivalent homogeneous
    model of a heterogeneous population.
    """
    tau = params.t_delay
    iso = params.alpha * math.exp(-params.gamma * tau)
    return _integrate(
        SYS_HOMOGENEOUS, [beta, params.gamma, iso], history,
        ("s", "i", "r"), t_end, dt, tau, cap,
    )


def integrate_reduced(
    params: EpidemicParams,
    stats,
    history: History,
    t_end: float,
    dt: float = 0.01,
    cap: float = 1e12,
) -> Trajectory:
    """Integrate the two-dimensional (I, lambda) population-level system,
    with beta_h = effective_beta(params, stats)."""
    tau = params.t_delay
    beta_h = effective_beta(params, stats)
    iso = params.alpha * math.exp(-params.gamma * tau)
    return _integrate(
        SYS_REDUCED, [stats.mu, beta_h, params.gamma, iso], history,
        ("i", "lambda"), t_end, dt, tau, cap,
    )


def partition_sizes(dist: DegreeDistribution) -> np.ndarray:
    """Partition sizes N_k for degrees k = 1..max_degree (degree 0 left out)."""
    n_k = np.zeros(dist.max_degree, dtype=np.float64)
    for k, cnt in dist.items():
        if k >= 1:
            n_k[k - 1] = cnt
    return n_k


def integrate_partitioned(
    params: EpidemicParams,
    dist: DegreeDistribution,
    history: History,
    t_end: float,
    dt: float = 0.01,
    dynamic_susceptibles: bool = False,
    alpha_by_degree=None,
    cap: float = 1e12,
) -> Trajectory:
    """Integrate the per-degree infectious counts Y_k, k = 1..max_degree.

    Frozen mode (default) pins susceptibles at the partition sizes N_k,
    matching the early-epidemic linearization; dynamic mode also evolves
    X_k. alpha_by_degree optionally overrides the common isolation fraction
    with one value per degree 1..n (e.g. alpha*k/n for detection effort
    proportional to contact count). Degree-0 individuals are inert and are
    not part of the state.
    """
    n = dist.max_degree
    if n < 1:
        raise ModelError("partitioned system needs a positive maximum degree")
    tau = params.t_delay
    n_k = partition_sizes(dist)
    sum_k_n = float(np.sum(np.arange(1, n + 1, dtype=np.float64) * n_k))
    if alpha_by_degree is None:
        alphas = np.full(n, params.alpha, dtype=np.float64)
    else:
        alphas = np.asarray(alpha_by_degree, dtype=np.float64)
        if alphas.shape != (n,):
            raise ModelError(f"alpha_by_degree must have one entry per degree 1..{n}")
        if np.any((alphas < 0.0) | (alphas > 1.0)):
            raise ModelError("alpha_by_degree entries must lie in [0, 1]")
    iso = alphas * math.exp(-params.gamma * tau)
    scale = params.rho / sum_k_n
    if dynamic_susceptibles:
        coeffs = np.concatenate(([params.gamma, scale], iso))
        components = tuple(f"x{k}" for k in range(1, n + 1)) + tuple(
            f"y{k}" for k in range(1, n + 1)
        )
        system = SYS_PARTITIONED_DYNAMIC
    else:
        coeffs = np.concatenate(([params.gamma, scale], iso, n_k))
        components = tuple(f"y{k}" for k in range(1, n + 1))
        system = SYS_PARTITIONED_FROZEN
    return _integrate(system, coeffs, history, components, t_end, dt, tau, cap)


def infectious_fraction(traj: Trajectory, dist: DegreeDistribution) -> np.ndarray:
    """Aggregate infectious proportion sum_k Y_k / N from a partitioned
    trajectory (frozen or dynamic)."""
    y_cols = [i for i, name in enumerate(traj.components) if name.startswith("y")]
    if not y_cols:
        raise ModelError("trajectory has no partition components")
    return traj.states[:, y_cols].sum(axis=1) / dist.population


def consistent_reduced_history(
    dist: DegreeDistribution, y0_profile, rho: float
) -> History:
    """Constant (I, lambda) history consistent with a per-degree seeding.

    y0_profile holds initially infectious counts for degrees 1..max_degree;
    lambda(0) = rho * sum(k*Y_k0) / sum(k*N_k) and I(0) = sum(Y_k0)/N, held
    constant on the initial interval.
    """
    y0 = np.asarray(y0_profile, dtype=np.float64)
    n = dist.max_degree
    if y0.shape != (n,):
        raise ModelError(f"y0_profile must have one entry per degree 1..{n}")
    if np.any(y0 < 0.0):
        raise ModelError("y0_profile must be nonnegative")
    if not np.any(y0 > 0.0):
        raise ModelError("y0_profile is all zero; nothing to seed")
    ks = np.arange(1, n + 1, dtype=np.float64)
    lam0 = rho * float(np.sum(ks * y0)) / float(np.sum(ks * partition_sizes(dist)))
    i0 = float(np.sum(y0)) / dist.population
    return constant_history([i0, lam0])


def estimate_growth_rate(traj: Trajectory, observable, window: tuple[float, float]) -> GrowthFit:
    """Least-squares slope of log(observable) versus time on the window.

    observable is a component name or a series sampled at traj.times, such
    as the infectious_fraction of a partitioned run. All samples in the
    window must be strictly positive.
    """
    if isinstance(observable, str):
        series = traj.component(observable)
    else:
        series = np.asarray(observable, dtype=np.float64)
        if series.shape != traj.times.shape:
            raise ModelError(f"observable has shape {series.shape}, expected {traj.times.shape}")
    t0, t1 = window
    mask = (traj.times >= t0 - 1e-12) & (traj.times <= t1 + 1e-12)
    if int(mask.sum()) < 3:
        raise ModelError(f"window [{t0}, {t1}] contains fewer than 3 samples")
    ts = traj.times[mask]
    ys = series[mask]
    if np.any(ys <= 0.0):
        raise ModelError("observable has nonpositive samples in the fit window")
    logs = np.log(ys)
    slope, intercept = np.polyfit(ts, logs, 1)
    resid = logs - (slope * ts + intercept)
    rms = float(np.sqrt(np.mean(resid * resid)))
    return GrowthFit(rate=float(slope), residual_rms=rms, n_points=int(mask.sum()), window=(t0, t1))


def default_fit_window(params: EpidemicParams, t_end: float) -> tuple[float, float]:
    """Fit window skipping the initial transient: the first
    5*max(1/gamma, t_delay) days are excluded."""
    start = 5.0 * max(1.0 / params.gamma, params.t_delay)
    if start >= t_end:
        raise ModelError(
            f"horizon {t_end} too short to clear the transient (needs > {start:.3g} days)"
        )
    return (start, t_end)
