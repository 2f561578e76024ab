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

_integrate is the one method-of-steps driver, and it settles the run-level
rules once. Where a delayed lookup falls depends on the time grid and tau,
not on the state, so it plans the lookups of a block of _BLOCK steps at
once (_plan): one vectorised _hermite call gives every query its node index
and Hermite weights, with a scalar loop's operations in its order. As
dt <= tau/4 puts every lookup behind its step, one bracket rule serves the
plan and Trajectory.sample alike: the guess from the grid, clamped to it and
moved down only. The driver splits the block into segments whose lookups
read only nodes computed before the segment starts, about tau/dt - 1 steps
each. For each segment it gathers the delayed states in one numpy pass
(_delayed), hands them to the system's stepper with the run's cap
(BLOW_UP_CAP, read once a run and bounded to the float range, so a
non-finite state fails it too), and stops the run with IntegrationError at
the first step whose state passed it. Trajectory.sample goes through
_hermite and _gather too, so there is one dense-output routine. Beyond the
node arrays a run's working memory is bounded by _BLOCK and _GATHER_VALUES,
not by the length of the grid.

The steppers run one segment's RK4 steps each. The partitioned systems
step whole state vectors as numpy expressions (_rk4_arrays), so the Python
cost of a step does not grow with the number of degrees. The homogeneous
and reduced systems have three and two components, for which a numpy call
costs more than its arithmetic, so each has its own stepper
(_rk4_homogeneous, _rk4_reduced) that keeps the state and derivative in
local floats. Each system's formula is written once, as a scalar function
f(*y, y_del) of the state and the one delayed component it reads; it also
gives _integrate the first derivative. Their adapter (_scalar_system) picks
that component from the gathered delayed states once a segment and hands
it to the stepper as a list of floats. Every stepper evaluates each
component in the same IEEE operation order, so integration is bit-for-bit
reproducible for identical inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .params import DegreeDistribution, EpidemicParams, ModelError, effective_beta, write_csv

# Largest time grid (nodes x state components) an integration may allocate:
# far above any grid in use (10,001 nodes x 80 components), while its states
# and derivatives (two float64 arrays, 320 MB at the limit) and its times
# (8 bytes a node, 160 MB for one component) still fit in memory. The
# steppers' own working memory is bounded by _BLOCK and _GATHER_VALUES.
MAX_GRID_VALUES = 20_000_000

BLOW_UP_CAP = 1e12  # largest |state| a run may reach; read when _integrate runs


class IntegrationError(RuntimeError):
    """State magnitude exceeded the blow-up cap; carries the last valid time."""

    def __init__(self, message: str, t_last: float):
        super().__init__(message)
        self.t_last = t_last


@dataclass(frozen=True)
class History:
    """Initial-history function on [-tau, 0]: y(theta) = y0 * exp(rate*theta),
    with y0 and rate finite. It is read at finite theta only; a theta whose
    exp(rate*theta), or its product with a component of y0, passes the float
    range raises ModelError."""

    y0: np.ndarray
    rate: float = 0.0
    # the largest |y0|, whose product overflows first
    _peak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y0 = np.asarray(self.y0, dtype=np.float64).copy()
        rate = float(self.rate)
        if not np.isfinite(y0).all():
            raise ModelError(f"history y0 must be finite, got {y0}")
        if not math.isfinite(rate):
            raise ModelError(f"history rate must be finite, got {rate}")
        y0.setflags(write=False)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "_peak", float(np.max(np.abs(y0), initial=0.0)))

    def __call__(self, theta: float) -> np.ndarray:
        try:
            factor = math.exp(self.rate * theta)
        except OverflowError:
            factor = math.inf
        # past the range the product is inf, or NaN for an inf exp at a zero peak
        if not self._peak * factor < math.inf:
            raise ModelError(f"history y0*exp(rate*theta) at rate {self.rate:g}, theta "
                             f"{theta:g} is beyond the float range")
        return self.y0 * factor


def constant_history(y0) -> History:
    return History(y0)


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
        """Dense state at a finite time t up to the horizon; for t <=
        times[0] this is exactly the supplied history function."""
        if not math.isfinite(t):
            raise ModelError(f"t must be finite, got {t}")
        if t > self.times[-1]:
            raise ModelError(f"t={t} beyond integrated horizon {self.times[-1]}")
        t, times = float(t), self.times
        if t <= times[0]:
            return self.history(t - times[0])
        found = _hermite(np.array([t]), times, times[1] - times[0])
        return _gather(self.states, self.derivs, *found)[0]

    def to_csv(self, path) -> None:
        """Write `t,<components>` rows at full double precision."""
        write_csv(path, ("t",) + self.components,
                  map(np.ndarray.tolist, np.column_stack((self.times, self.states))))


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares slope of log(observable) over a fit window."""

    rate: float
    residual_rms: float
    n_points: int
    window: tuple[float, float]


def _hermite(t, times, dt):
    """Cubic Hermite weights at the query times t > times[0] (an array) up to
    times[-1].

    Returns (i, h00, h10*h, h01, h11*h), one entry a query: the state at
    t[j] is h00*y[i] + (h10*h)*y'[i] + h01*y[i+1] + (h11*h)*y'[i+1], summed
    in that order (_gather). Each query takes a scalar loop's steps: the
    guess int((t - t0)/dt), clamped to [0, len(times) - 2], moved down while
    its node lies after t. The guess is never below the query's interval:
    _make_times puts node k at k*dt rounded, so a t above times[k] has
    t/dt > k*(1 - 2**-106), which rounds to at least k.
    """
    t0 = times[0]
    i = np.maximum(np.minimum(((t - t0) / dt).astype(np.intp), len(times) - 2), 0)
    while True:
        down = (i > 0) & (times[i] > t)
        if not down.any():
            break
        i -= down
    ti = times[i]
    h = times[i + 1] - ti
    th = (t - ti) / h
    h00 = (1.0 + 2.0 * th) * (1.0 - th) * (1.0 - th)
    h10 = th * (1.0 - th) * (1.0 - th)
    h01 = th * th * (3.0 - 2.0 * th)
    h11 = th * th * (th - 1.0)
    return i, h00, h10 * h, h01, h11 * h


def _gather(states, derivs, i, w00, w10, w01, w11):
    """The interpolated states at _hermite's queries, one row a query."""
    j = i + 1
    return (w00[:, None] * states.take(i, 0) + w10[:, None] * derivs.take(i, 0)
            + w01[:, None] * states.take(j, 0) + w11[:, None] * derivs.take(j, 0))


# Most values one segment's gather holds (512 KB): a system with many
# components steps shorter segments.
_GATHER_VALUES = 1 << 16

# Steps whose delayed lookups are planned at once. A block's plan holds a
# dozen values a step; with the float kernel's node lists of one segment
# that is under 0.5 MB, however long the grid. Runs took as long with
# blocks of 128 or 1024 steps.
_BLOCK = 256


def _plan(times, b0, b1, dt, tau):
    """The delayed lookups of steps b0..b1-1, two a step in step order: at
    t + h/2 - tau (stages 2 and 3) and at t + h - tau (stage 4 and the next
    node's derivative). As dt <= tau/4, each lies about three steps or more
    behind its step, among nodes computed before it.

    Returns the lookups (q, i, w00, w10, w01, w11), one entry a query, i
    being -1 where q <= times[0] and the history answers; and ends, where
    ends[k] is the block step after the segment that starts at step
    b0 + k: the steps from there whose lookups read only nodes up to b0 + k.
    """
    t = times[b0:b1]
    h = times[b0 + 1:b1 + 1] - t
    q = np.empty(2 * (b1 - b0))
    q[0::2] = t + 0.5 * h - tau
    q[1::2] = t + h - tau
    i, *weights = _hermite(q, times, dt)
    i[q <= times[0]] = -1
    # a query reads nodes i and i + 1; the running maximum ends a segment
    # before the first step that reads past its start even if an index
    # were to step back
    top = np.maximum.accumulate(np.maximum(i[0::2], i[1::2]))
    return (q, i, *weights), np.searchsorted(top, np.arange(b0, b1)).tolist()


def _delayed(lookups, r0, r1, states, derivs, history):
    """Delayed states of lookup rows r0..r1-1 as one 2-D array: gathered
    from the nodes, or the history's for queries at or before time 0."""
    q, i, *weights = (a[r0:r1] for a in lookups)
    if i[0] >= 0:
        return _gather(states, derivs, i, *weights)
    # queries grow along the rows, so the history answers a leading run
    past = int(np.count_nonzero(i < 0))
    out = np.empty((r1 - r0, states.shape[1]))
    out[past:] = _gather(states, derivs, i[past:], *(w[past:] for w in weights))
    for r in range(past):
        out[r] = history(float(q[r]))
    return out


def _rk4_arrays(rhs, tl, states, derivs, m0, dels, cap):
    """RK4 steps m0..m0 + len(tl) - 2 of a segment at the node times tl,
    each stage one whole-vector expression, written into the node arrays.

    rhs(y, y_del) returns the derivative as a new array. dels holds the
    delayed states, two rows a step, or is None at tau = 0, where each stage
    is its own delayed state. cap is finite. Returns the steps done: fewer
    than len(tl) - 1 when the state passed `cap` or stopped being finite.
    """
    lag = dels is not None
    for j in range(len(tl) - 1):
        m = m0 + j
        t = tl[j]
        h = tl[j + 1] - t
        half = 0.5 * h
        y, d = states[m], derivs[m]

        # stages 2 and 3 share the delayed lookup at t + h/2 - tau
        y_tmp = y + half * d
        k2 = rhs(y_tmp, dels[2 * j] if lag else y_tmp)
        y_tmp = y + half * k2
        k3 = rhs(y_tmp, dels[2 * j] if lag else y_tmp)

        # stage 4 and the next node derivative share the lookup at t + h - tau
        y_tmp = y + h * k3
        k4 = rhs(y_tmp, dels[2 * j + 1] if lag else y_tmp)

        y_new = y + (h / 6.0) * (d + 2.0 * k2 + 2.0 * k3 + k4)
        # the ufunc reduction skips max()'s Python wrapper; NaN propagates,
        # and NaN and inf fail the finite cap
        peak = np.maximum.reduce(np.abs(y_new))
        if not peak <= cap:
            return j
        states[m + 1] = y_new
        derivs[m + 1] = rhs(y_new, dels[2 * j + 1] if lag else y_new)
    return len(tl) - 1


def _rk4_reduced(f, tl, states, derivs, m0, dels, cap):
    """_rk4_arrays' segment for the reduced system, (I, lambda) in local
    floats, each expression taken component by component in the same order
    (the same bits). f(i, lam, lam_del) is the system's formula, and dels
    the delayed lambda as a list of floats, two a step, or None at tau = 0.
    The nodes are written into the arrays when the segment ends. Returns
    the steps done, as _rk4_arrays does; a non-finite state fails the cap."""
    lag = dels is not None
    i, lam = states[m0].tolist()
    di, dlam = derivs[m0].tolist()
    y_nodes, d_nodes = [], []
    for j in range(len(tl) - 1):
        h = tl[j + 1] - tl[j]
        half = 0.5 * h
        a, b = i + half * di, lam + half * dlam
        k2i, k2l = f(a, b, dels[2 * j] if lag else b)
        a, b = i + half * k2i, lam + half * k2l
        k3i, k3l = f(a, b, dels[2 * j] if lag else b)
        a, b = i + h * k3i, lam + h * k3l
        k4i, k4l = f(a, b, dels[2 * j + 1] if lag else b)
        h6 = h / 6.0
        i += h6 * (di + 2.0 * k2i + 2.0 * k3i + k4i)
        lam += h6 * (dlam + 2.0 * k2l + 2.0 * k3l + k4l)
        if not (abs(i) <= cap and abs(lam) <= cap):
            return j
        di, dlam = d = f(i, lam, dels[2 * j + 1] if lag else lam)
        y_nodes.append((i, lam))
        d_nodes.append(d)
    states[m0 + 1:m0 + len(tl)] = y_nodes
    derivs[m0 + 1:m0 + len(tl)] = d_nodes
    return len(tl) - 1


def _rk4_homogeneous(f, tl, states, derivs, m0, dels, cap):
    """_rk4_reduced's segment for the homogeneous system, (S, I, R) in local
    floats; f(s, i, r, i_del) is the system's formula and dels the delayed
    I."""
    lag = dels is not None
    s, i, r = states[m0].tolist()
    ds, di, dr = derivs[m0].tolist()
    y_nodes, d_nodes = [], []
    for j in range(len(tl) - 1):
        h = tl[j + 1] - tl[j]
        half = 0.5 * h
        a, b, c = s + half * ds, i + half * di, r + half * dr
        k2s, k2i, k2r = f(a, b, c, dels[2 * j] if lag else b)
        a, b, c = s + half * k2s, i + half * k2i, r + half * k2r
        k3s, k3i, k3r = f(a, b, c, dels[2 * j] if lag else b)
        a, b, c = s + h * k3s, i + h * k3i, r + h * k3r
        k4s, k4i, k4r = f(a, b, c, dels[2 * j + 1] if lag else b)
        h6 = h / 6.0
        s += h6 * (ds + 2.0 * k2s + 2.0 * k3s + k4s)
        i += h6 * (di + 2.0 * k2i + 2.0 * k3i + k4i)
        r += h6 * (dr + 2.0 * k2r + 2.0 * k3r + k4r)
        if not (abs(s) <= cap and abs(i) <= cap and abs(r) <= cap):
            return j
        ds, di, dr = d = f(s, i, r, dels[2 * j + 1] if lag else i)
        y_nodes.append((s, i, r))
        d_nodes.append(d)
    states[m0 + 1:m0 + len(tl)] = y_nodes
    derivs[m0 + 1:m0 + len(tl)] = d_nodes
    return len(tl) - 1


def _scalar_system(stepper, f):
    """_integrate's kernel and rhs for a system stepped in floats: stepper
    with the formula f(*y, y_del), y_del the delayed component 1, which the
    kernel picks from the gathered delayed states once a segment."""
    def kernel(_, tl, states, derivs, m0, dels, cap):
        dels = None if dels is None else dels[:, 1].tolist()
        return stepper(f, tl, states, derivs, m0, dels, cap)
    return kernel, (lambda y, y_del: f(*y, y_del[1]))


def _make_times(t_end: float, dt: float) -> np.ndarray:
    n_full = int(math.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    short_tail = remainder > 1e-9 * max(1.0, t_end)
    times = np.arange(n_full + 1 + (1 if short_tail else 0)) * dt
    if short_tail:
        times[-1] = t_end
    return times


def _integrate(kernel, rhs, history, components, t_end, dt, tau):
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
    lag = tau > 0.0
    y_del = history(-tau) if lag else y0
    # overflow is silent here, as in the float steppers; the cap stops it
    with np.errstate(over="ignore", invalid="ignore"):
        derivs[0] = rhs(y0, y_del)
    # a segment gathers at most _GATHER_VALUES values (or one step's); one
    # that its block's end cuts short is planned again with the next block
    # unless it is the block's first
    most = max(1, _GATHER_VALUES // (2 * len(y0)))
    cap = min(BLOW_UP_CAP, sys.float_info.max)  # a non-finite state fails it too
    n = len(times) - 1
    b0 = 0
    while b0 < n:
        b1 = min(b0 + _BLOCK, n)
        tl = times[b0:b1 + 1].tolist()
        lookups, ends = _plan(times, b0, b1, dt, tau) if lag else (None, [b1 - b0] * (b1 - b0))
        k = 0
        while k < b1 - b0:
            e = min(ends[k], k + most)
            if e == b1 - b0 and 0 < k and b1 < n:
                break
            m0 = b0 + k
            dels = _delayed(lookups, 2 * k, 2 * e, states, derivs, history) if lag else None
            done = kernel(rhs, tl[k:e + 1], states, derivs, m0, dels, cap)
            if done < e - k:
                t_last = float(times[m0 + done])
                raise IntegrationError(f"state magnitude exceeded cap {BLOW_UP_CAP:g} after "
                                       f"t={t_last:.6g}", t_last=t_last)
            k = e
        b0 += k
    return Trajectory(times=times, states=states, derivs=derivs,
                      components=tuple(components), history=history)


def integrate_homogeneous(
    params: EpidemicParams,
    beta: float,
    history: History,
    t_end: float,
    dt: float = 0.01,
) -> Trajectory:
    """Integrate the nonlinear (S, I, R) system with delayed isolation.

    beta is the mixing rate, e.g. effective_beta(params, stats); pass the
    heterogeneity-scaled value to integrate the equivalent homogeneous
    model of a heterogeneous population.
    """
    tau = params.t_delay
    beta, gamma = float(beta), params.gamma
    iso = params.alpha * math.exp(-gamma * tau)

    def f(s, i, r, i_del):
        flow = beta * s * (i - iso * i_del)
        return -flow, flow - gamma * i, gamma * i

    return _integrate(*_scalar_system(_rk4_homogeneous, f), history, ("s", "i", "r"),
                      t_end, dt, tau)


def integrate_reduced(
    params: EpidemicParams,
    stats,
    history: History,
    t_end: float,
    dt: float = 0.01,
) -> Trajectory:
    """Integrate the two-dimensional (I, lambda) population-level system,
    with beta_h = effective_beta(params, stats)."""
    tau = params.t_delay
    mu, beta_h, gamma = float(stats.mu), effective_beta(params, stats), params.gamma
    iso = params.alpha * math.exp(-gamma * tau)

    def f(i, lam, lam_del):
        xi = lam - iso * lam_del
        return mu * xi - gamma * i, beta_h * xi - gamma * lam

    return _integrate(*_scalar_system(_rk4_reduced, f), history, ("i", "lambda"),
                      t_end, dt, tau)


def partition_sizes(dist: DegreeDistribution) -> np.ndarray:
    """Partition sizes N_k for degrees k = 1..max_degree (degree 0 left out).
    The partitioned state has at least max_degree components on a grid of at
    least two times, so a max degree above MAX_GRID_VALUES // 2 is rejected
    here, before the first array of the state's length is allocated."""
    if dist.max_degree > MAX_GRID_VALUES // 2:
        raise ModelError(f"max degree {dist.max_degree} exceeds {MAX_GRID_VALUES // 2}; "
                         f"a partitioned grid would hold more than {MAX_GRID_VALUES} values")
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
    degree_proportional: bool = False,
) -> Trajectory:
    """Integrate the per-degree infectious counts Y_k, k = 1..max_degree.

    Frozen mode (default) pins susceptibles at the partition sizes N_k,
    matching the early-epidemic linearization; dynamic mode also evolves
    X_k. Every degree isolates the fraction params.alpha, or with
    degree_proportional alpha_k = alpha*k/n, n = max_degree (detection
    effort proportional to contact count; stability.degree_proportional_alpha
    gives its equivalent common fraction). Degree-0 individuals are inert
    and are not part of the state.
    """
    n = dist.max_degree
    tau = params.t_delay
    n_k = partition_sizes(dist)
    ks = np.arange(1, n + 1, dtype=np.float64)
    sum_k_n = float(np.sum(ks * n_k))
    alphas = params.alpha * ks / n if degree_proportional else np.full(n, params.alpha)
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
    return _integrate(_rk4_arrays, rhs, history, components, t_end, dt, tau)


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
    window must be finite and strictly positive.
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
    if not np.isfinite(ys).all():
        raise ModelError("observable has non-finite samples in the fit window")
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
