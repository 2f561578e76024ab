"""Fixed-step method-of-steps integrator for the delayed isolation models.

Three systems share one classic RK4 scheme with cubic Hermite dense output
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
at most MAX_GRID_VALUES values.

The scheme runs in one of two kernels, chosen by the system. The
partitioned systems step whole state vectors as numpy expressions
(_rk4_arrays), so the Python cost of a step does not grow with the number
of degrees. The homogeneous and reduced systems have two or three
components, for which a numpy call costs more than its arithmetic, so they
step lists of Python floats (_rk4_floats). Both evaluate every component in
the same IEEE operation order, and one routine (_hermite) gives the dense
output weights to both and to Trajectory.sample. Integration is
bit-for-bit reproducible for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DegreeDistribution, EpidemicParams, ModelError, effective_beta

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
        object.__setattr__(self, "rate", float(self.rate))

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
        return _dense(float(t), self.times, self.states, self.derivs, len(self.times) - 1,
                      self.times[1] - self.times[0], self.history)

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


def _hermite(t, times, filled, dt):
    """Cubic Hermite weights at t > times[0], over the first `filled` steps.

    Returns (i, h00, h10*h, h01, h11*h): the state at t is
    h00*y[i] + (h10*h)*y'[i] + h01*y[i+1] + (h11*h)*y'[i+1], summed in that
    order. Both kernels and Trajectory.sample combine the weights this way.
    """
    t0 = times[0]
    i = int((t - t0) / dt)
    if i > filled - 1:
        i = filled - 1
    if i < 0:
        i = 0
    while i > 0 and times[i] > t:
        i -= 1
    while i < filled - 1 and times[i + 1] < t:
        i += 1
    h = times[i + 1] - times[i]
    th = (t - times[i]) / h
    h00 = (1.0 + 2.0 * th) * (1.0 - th) * (1.0 - th)
    h10 = th * (1.0 - th) * (1.0 - th)
    h01 = th * th * (3.0 - 2.0 * th)
    h11 = th * th * (th - 1.0)
    return i, h00, h10 * h, h01, h11 * h


def _dense(t, times, states, derivs, filled, dt, history):
    """State at t as a new array: the history for t <= times[0], else the
    Hermite interpolant over the first `filled` steps."""
    t0 = times[0]
    if t <= t0:
        return history(t - t0)
    i, w00, w10, w01, w11 = _hermite(t, times, filled, dt)
    return w00 * states[i] + w10 * derivs[i] + w01 * states[i + 1] + w11 * derivs[i + 1]


def _rk4_arrays(rhs, times, states, derivs, dt, tau, history, cap):
    """Method-of-steps RK4 with each stage one whole-vector expression,
    written into the preallocated node arrays as it goes.

    rhs(y, y_del) returns the derivative as a new array; at tau = 0 it is
    given the stage state itself as the delayed state. Returns the number of
    steps completed: fewer than len(times) - 1 when the state passed `cap`
    or stopped being finite, the failed step's start being the last trusted
    node.
    """
    tl = times.tolist()
    lag = tau > 0.0
    y_del = _dense(tl[0] - tau, tl, states, derivs, 0, dt, history) if lag else states[0]
    derivs[0] = rhs(states[0], y_del)
    for m in range(len(tl) - 1):
        t = tl[m]
        h = tl[m + 1] - t
        half = 0.5 * h
        y, d = states[m], derivs[m]

        # stages 2 and 3 share the delayed lookup at t + h/2 - tau
        if lag:
            y_del = _dense(t + half - tau, tl, states, derivs, m, dt, history)
        y_tmp = y + half * d
        k2 = rhs(y_tmp, y_del if lag else y_tmp)
        y_tmp = y + half * k2
        k3 = rhs(y_tmp, y_del if lag else y_tmp)

        # stage 4 and the next node derivative share the lookup at t + h - tau
        if lag:
            y_del = _dense(t + h - tau, tl, states, derivs, m, dt, history)
        y_tmp = y + h * k3
        k4 = rhs(y_tmp, y_del if lag else y_tmp)

        y_new = y + (h / 6.0) * (d + 2.0 * k2 + 2.0 * k3 + k4)
        peak = float(np.abs(y_new).max())
        if not math.isfinite(peak) or peak > cap:
            return m
        states[m + 1] = y_new
        derivs[m + 1] = rhs(y_new, y_del if lag else y_new)
    return len(tl) - 1


def _rk4_floats(rhs, times, states, derivs, dt, tau, history, cap):
    """The same method-of-steps RK4 on lists of Python floats, one list per
    node, copied into `states` and `derivs` at the end.

    For the two- and three-component systems a numpy call costs more than
    the arithmetic it would do, so this kernel evaluates every expression of
    _rk4_arrays component by component in the same order, giving the same
    bits. rhs(y, y_del) takes and returns sequences of floats. Returns the
    number of steps completed, as _rk4_arrays does.
    """
    tl = times.tolist()
    t0 = tl[0]
    ys = [states[0].tolist()]
    ds = []

    def dense(t, filled):
        if t <= t0:
            return history(t - t0).tolist()
        i, w00, w10, w01, w11 = _hermite(t, tl, filled, dt)
        return [w00 * a + w10 * b + w01 * c + w11 * e
                for a, b, c, e in zip(ys[i], ds[i], ys[i + 1], ds[i + 1])]

    lag = tau > 0.0
    y_del = dense(t0 - tau, 0) if lag else ys[0]
    ds.append(rhs(ys[0], y_del))
    for m in range(len(tl) - 1):
        t = tl[m]
        h = tl[m + 1] - t
        half = 0.5 * h
        y, d = ys[m], ds[m]

        if lag:
            y_del = dense(t + half - tau, m)
        y_tmp = [a + half * b for a, b in zip(y, d)]
        k2 = rhs(y_tmp, y_del if lag else y_tmp)
        y_tmp = [a + half * b for a, b in zip(y, k2)]
        k3 = rhs(y_tmp, y_del if lag else y_tmp)

        if lag:
            y_del = dense(t + h - tau, m)
        y_tmp = [a + h * b for a, b in zip(y, k3)]
        k4 = rhs(y_tmp, y_del if lag else y_tmp)

        h6 = h / 6.0
        y_new = [a + h6 * (b + 2.0 * c + 2.0 * e + f)
                 for a, b, c, e, f in zip(y, d, k2, k3, k4)]
        for v in y_new:
            if not math.isfinite(v) or abs(v) > cap:
                return m
        ys.append(y_new)
        ds.append(rhs(y_new, y_del if lag else y_new))
    states[:] = ys
    derivs[:] = ds
    return len(tl) - 1


def _make_times(t_end: float, dt: float) -> np.ndarray:
    n_full = int(math.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    short_tail = remainder > 1e-9 * max(1.0, t_end)
    times = np.arange(n_full + 1 + (1 if short_tail else 0)) * dt
    if short_tail:
        times[-1] = t_end
    return times


def _integrate(kernel, rhs, history, components, t_end, dt, tau, cap):
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
    last = kernel(rhs, times, states, derivs, dt, tau, history, cap)
    if last < len(times) - 1:
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
    beta, gamma = float(beta), params.gamma
    iso = params.alpha * math.exp(-gamma * tau)

    def rhs(y, y_del):
        s, i, _ = y
        flow = beta * s * (i - iso * y_del[1])
        return [-flow, flow - gamma * i, gamma * i]

    return _integrate(_rk4_floats, rhs, history, ("s", "i", "r"), t_end, dt, tau, cap)


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
    mu, beta_h, gamma = float(stats.mu), effective_beta(params, stats), params.gamma
    iso = params.alpha * math.exp(-gamma * tau)

    def rhs(y, y_del):
        i, lam = y
        xi = lam - iso * y_del[1]
        return [mu * xi - gamma * i, beta_h * xi - gamma * lam]

    return _integrate(_rk4_floats, rhs, history, ("i", "lambda"), t_end, dt, tau, cap)


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
    ks = np.arange(1, n + 1, dtype=np.float64)
    sum_k_n = float(np.sum(ks * n_k))
    if alpha_by_degree is None:
        alphas = np.full(n, params.alpha, dtype=np.float64)
    else:
        alphas = np.asarray(alpha_by_degree, dtype=np.float64)
        if alphas.shape != (n,):
            raise ModelError(f"alpha_by_degree must have one entry per degree 1..{n}")
        if np.any((alphas < 0.0) | (alphas > 1.0)):
            raise ModelError("alpha_by_degree entries must lie in [0, 1]")
    gamma = params.gamma
    iso = alphas * math.exp(-gamma * tau)
    scale = params.rho / sum_k_n

    def force(y, y_del):
        # xi = scale * sum_k k*(Y_k - iso_k*Y_k(t - tau)), summed in degree
        # order as a loop would; np.sum and np.dot use other orders. The 0.0
        # start gives an all-negative-zero sum the loop's sign.
        return scale * (0.0 + np.add.accumulate(ks * (y - iso * y_del))[-1])

    if dynamic_susceptibles:
        def rhs(y, y_del):
            x, y_inf = y[:n], y[n:]
            flow = ks * x * force(y_inf, y_del[n:])
            return np.concatenate((-flow, flow - gamma * y_inf))

        components = tuple(f"x{k}" for k in range(1, n + 1)) + tuple(
            f"y{k}" for k in range(1, n + 1)
        )
    else:
        k_n = ks * n_k

        def rhs(y, y_del):
            return k_n * force(y, y_del) - gamma * y

        components = tuple(f"y{k}" for k in range(1, n + 1))
    return _integrate(_rk4_arrays, rhs, history, components, t_end, dt, tau, cap)


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
