"""Analytic stability conditions for delayed case isolation.

The linearized infection dynamics reduce to the scalar delay equation

    s = a + b * exp(-s * tau),   a = beta_h - gamma,
                                 b = -beta_h * alpha * exp(-gamma * tau),

where beta_h = rho * mu * h is the heterogeneity-scaled mixing rate. The
configuration is asymptotically stable iff the rightmost root of that
equation has negative real part, which happens iff

    t_delay < t_max = (1/gamma) * ln(alpha * beta_h / (beta_h - gamma))

whenever beta_h > gamma and alpha > 1 - gamma/beta_h. This module provides
the closed-form bounds, the coefficients of the characteristic equation,
its rightmost root via the Lambert W function, and the equivalent common
isolation fraction for a degree-proportional isolation scheme.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

from .params import (DegreeDistribution, DegreeStats, EpidemicParams, ModelError, compute_stats,
                     effective_beta)

# Branch point of the Lambert W function, -1/e, as the nearest double.
_BRANCH_POINT = -math.exp(-1.0)
# Absolute slack absorbing last-ulp rounding when callers compute w*exp(w).
_BRANCH_SLACK = 1e-14
# Newton iterations rightmost_root allows on the complex branch.
_ROOT_MAX_ITER = 200


class NumericalError(RuntimeError):
    """An iterative method failed to converge; carries diagnostics."""


class VerdictKind(enum.Enum):
    UNCONDITIONALLY_STABLE = "unconditionally_stable"
    STABLE_UP_TO = "stable_up_to"
    INFEASIBLE_AT_ZERO_DELAY = "infeasible_at_zero_delay"


@dataclass(frozen=True)
class CharacteristicParams:
    """Coefficients of the scalar delay equation s = a + b*exp(-s*tau);
    a, b and tau must be finite, and tau >= 0."""

    a: float
    b: float
    tau: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.tau))):
            raise ModelError(f"a, b and tau must be finite, got {self}")
        if self.tau < 0.0:
            raise ModelError(f"tau must be >= 0, got {self.tau}")


@dataclass(frozen=True)
class StabilityVerdict:
    """The analytic answer for one configuration at its own delay.

    t_max is +inf for UNCONDITIONALLY_STABLE, 0.0 for
    INFEASIBLE_AT_ZERO_DELAY and the positive delay bound for STABLE_UP_TO.
    r0 is the R0 asked for, or beta_h/gamma; re = r0*(1 - alpha*exp(-gamma*
    t_delay)). The characteristic equation and its rightmost root are
    solved once, on first read, so a sweep that reads only kind and t_max
    solves none. margin is the root's real part; stable iff margin < 0 (a
    marginal root on the imaginary axis counts as unstable).
    """

    kind: VerdictKind
    t_max: float
    beta_h: float
    r0: float
    params: EpidemicParams

    @functools.cached_property
    def char_params(self) -> CharacteristicParams:
        return model_char_params(self.beta_h, self.params)

    @functools.cached_property
    def rightmost_root(self) -> complex:
        return rightmost_root(self.char_params)

    @property
    def margin(self) -> float:
        return self.rightmost_root.real

    @property
    def is_stable(self) -> bool:
        return self.margin < 0.0

    @property
    def re(self) -> float:
        p = self.params
        return self.r0 * (1.0 - p.alpha * math.exp(-p.gamma * p.t_delay))


def lambert_w(x: float, branch: str = "principal") -> float:
    """Real Lambert W: the solution w of w * exp(w) = x on the given branch.

    branch="principal" requires x >= -1/e and returns w >= -1;
    branch="minus_one" requires -1/e <= x < 0 and returns w <= -1.
    The result satisfies |w*exp(w) - x| <= 1e-12 * max(1, |x|).
    """
    if not math.isfinite(x):
        raise ModelError(f"lambert_w requires a finite argument, got {x}")
    if branch == "principal":
        if x < _BRANCH_POINT - _BRANCH_SLACK:
            raise ModelError(f"principal branch requires x >= -1/e, got {x}")
        return _lambert_w0(max(x, _BRANCH_POINT))
    if branch == "minus_one":
        if x < _BRANCH_POINT - _BRANCH_SLACK or x >= 0.0:
            raise ModelError(f"minus_one branch requires -1/e <= x < 0, got {x}")
        return _lambert_wm1(max(x, _BRANCH_POINT))
    raise ModelError(f"unknown branch {branch!r}")


def _branch_series(p: float) -> float:
    # Expansion of W about the branch point in p = +-sqrt(2*(e*x + 1)).
    return -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0))))


def _halley(w: float, x: float) -> float:
    # Cubically convergent iteration on w*exp(w) - x; 4-6 rounds suffice
    # from the seeds used below.
    for _ in range(50):
        e = math.exp(w)
        p = w * e - x
        if p == 0.0:
            return w
        w1 = w + 1.0
        denom = e * w1 - (w + 2.0) * p / (2.0 * w1)
        dw = p / denom
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            return w
    return w


def _lambert_w0(x: float) -> float:
    if x == 0.0:
        return 0.0
    q = 2.0 * (math.e * x + 1.0)
    if q <= 0.0:
        return -1.0
    if q < 1e-6:
        # Too close to the branch point for Halley (derivative vanishes);
        # the series error is O(q^2.5) here, below the residual contract.
        return _branch_series(math.sqrt(q))
    if x < 0.3:
        w = _branch_series(math.sqrt(q)) if x < 0.0 else math.log1p(x)
    elif x < 10.0:
        w = math.log1p(x) * (1.0 - math.log(math.log1p(x) + 1.0) / (2.0 + math.log1p(x)))
    else:
        lx = math.log(x)
        w = lx - math.log(lx)
    w = _halley(w, x)
    return max(w, -1.0)


def _lambert_wm1(x: float) -> float:
    q = 2.0 * (math.e * x + 1.0)
    if q <= 0.0:
        return -1.0
    if q < 1e-6:
        return _branch_series(-math.sqrt(q))
    if x < -0.25:
        w = _branch_series(-math.sqrt(q))
    else:
        # Asymptotic seed for x -> 0-: w ~ ln(-x) - ln(-ln(-x)).
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    w = _halley(w, x)
    return min(w, -1.0)


def rightmost_root(cp: CharacteristicParams) -> complex:
    """Root of s = a + b*exp(-s*tau) with maximal real part.

    For tau = 0 the equation is algebraic and the root is a + b. Otherwise,
    with x = b*tau*exp(-a*tau): when x >= -1/e the dominant root is real,
    a + W0(x)/tau. When x < -1/e the dominant roots are a complex-conjugate
    pair, located by Newton's method on f(s) = s - a - b*exp(-s*tau),
    seeded at a - 1/tau + i*pi/(2*tau) or, below x = -e^3, at the
    asymptotic W0(x); the member with positive imaginary part is returned.
    With w = (s - a)*tau, f is (w - x*exp(-w))/tau and both seeds depend on
    x alone, so in exact arithmetic the Newton path does too. For
    coefficients produced by the isolation model the branch argument never
    drops below -1/e (it equals -alpha*u*exp(-u) with u = beta_h*tau), so
    the complex path only triggers for general inputs. An x beyond the
    float range raises ModelError.
    """
    a, b, tau = cp.a, cp.b, cp.tau
    if tau == 0.0:
        return complex(a + b, 0.0)
    try:
        x = b * tau * math.exp(-a * tau)
    except OverflowError:
        x = math.nan
    if not math.isfinite(x):
        # b*tau or exp(-a*tau) passes the largest double (an infinite b*tau
        # times an exp(-a*tau) that underflows to 0 is NaN), though x itself
        # may not: for the isolation model x is tiny
        try:
            x = math.copysign(math.exp(math.log(abs(b)) + math.log(tau) - a * tau), b) if b else 0.0
        except OverflowError:
            x = math.inf
    if not math.isfinite(x):
        raise ModelError(f"rightmost_root: branch argument b*tau*exp(-a*tau) is not finite "
                         f"for {cp}")
    if x >= _BRANCH_POINT:
        return complex(a + _lambert_w0(x) / tau, 0.0)

    def scaled_exp(c: float, log_c: float, s: complex) -> complex:
        """c*exp(-s*tau) for c = -exp(log_c) (b < 0 on this branch), taken
        from logs where c or exp(-s*tau) passes the largest double and the
        product may not."""
        if math.isfinite(c):
            try:
                return c * cmath.exp(-s * tau)
            except OverflowError:
                pass
        return -cmath.exp(log_c - s * tau)

    bt = b * tau
    log_b = math.log(-b)
    log_bt = math.log(-bt) if math.isfinite(bt) else log_b + math.log(tau)

    if x < -math.exp(3.0):
        # from a - 1/tau Newton gains about one unit of Re s a step; here
        # W0(x) ~ L1 - L2 + L2/L1, L1 the principal log(x), L2 = log(L1)
        l1 = cmath.log(x)
        l2 = cmath.log(l1)
        s = a + (l1 - l2 + l2 / l1) / tau
    else:
        s = complex(a - 1.0 / tau, math.pi / (2.0 * tau))
    for _ in range(_ROOT_MAX_ITER):
        f = s - a - scaled_exp(b, log_b, s)
        res = abs(f)
        # rounding alone leaves a residual of some ulps of the largest of
        # |s|, |a| and |s*tau|*|s - a|: b*exp(-s*tau), of size |s - a| near
        # the root, moves by the ulp of its argument s*tau
        if res <= max(1e-12, 64.0 * math.ulp(max(abs(s), abs(a), abs(s * tau) * abs(s - a)))):
            return s if s.imag >= 0.0 else s.conjugate()
        s -= f / (1.0 + scaled_exp(bt, log_bt, s))
    raise NumericalError(
        f"rightmost_root: no convergence after {_ROOT_MAX_ITER} iterations, "
        f"s={s}, |f|={res:.3e} for {cp}"
    )


def model_char_params(beta_h: float, params: EpidemicParams) -> CharacteristicParams:
    """Scalar delay-equation coefficients for the isolation model at the
    configuration's own delay."""
    tau = params.t_delay
    return CharacteristicParams(
        a=beta_h - params.gamma,
        b=-beta_h * params.alpha * math.exp(-params.gamma * tau),
        tau=tau,
    )


def _bound_for_mixing_rate(beta_h: float, r0: float, params: EpidemicParams) -> StabilityVerdict:
    g, al = params.gamma, params.alpha
    if not math.isfinite(beta_h):
        raise ModelError(f"mixing rate beta_h = {beta_h} is not finite")
    if beta_h <= g:
        kind, t_max = VerdictKind.UNCONDITIONALLY_STABLE, math.inf
    elif al <= 1.0 - g / beta_h:
        kind, t_max = VerdictKind.INFEASIBLE_AT_ZERO_DELAY, 0.0
    else:
        kind = VerdictKind.STABLE_UP_TO
        t_max = math.log(al * beta_h / (beta_h - g)) / g
        if not math.isfinite(t_max):
            raise ModelError(f"delay bound t_max = {t_max} is not finite (gamma = {g})")
    return StabilityVerdict(kind=kind, t_max=t_max, beta_h=beta_h, r0=r0, params=params)


def homogeneous_delay_bound(params: EpidemicParams, r0: float) -> StabilityVerdict:
    """Delay classification for a uniformly mixing population with basic
    reproduction number r0.

    R0 <= 1: stable at any delay. R0 > 1 and alpha <= 1 - 1/R0: unstable
    even at zero delay. Otherwise stable exactly for delays below
    t_max = (1/gamma) * ln(alpha / (1 - 1/R0)).
    """
    if not 0.0 < r0 < math.inf:
        raise ModelError(f"r0 must be finite and > 0, got {r0}")
    return _bound_for_mixing_rate(r0 * params.gamma, r0, params)


def heterogeneous_delay_bound(params: EpidemicParams, stats: DegreeStats) -> StabilityVerdict:
    """Delay classification for a heterogeneous population via the scaled
    mixing rate beta_h = rho * mu * h; reduces to the homogeneous bound
    when c_v = 0."""
    beta_h = effective_beta(params, stats)
    return _bound_for_mixing_rate(beta_h, beta_h / params.gamma, params)


def max_cv(r0: float, alpha: float) -> float | None:
    """Largest coefficient of variation still allowing a positive delay.

    Solves c_v^2 < 1/(r0*(1-alpha)) - 1 for a population whose
    homogeneous-equivalent reproduction number r0 exceeds 1. Returns None
    when r0*(1-alpha) >= 1 (no positive delay even at c_v = 0).
    """
    if r0 <= 1.0:
        raise ModelError(f"max_cv requires r0 > 1, got {r0}")
    if not 0.0 <= alpha < 1.0:
        raise ModelError(f"max_cv requires 0 <= alpha < 1, got {alpha}")
    radicand = 1.0 / (r0 * (1.0 - alpha)) - 1.0
    if radicand <= 0.0:
        return None
    return math.sqrt(radicand)


def degree_proportional_alpha(alpha: float, dist: DegreeDistribution) -> float:
    """Common isolation fraction equivalent to the degree-proportional
    scheme alpha_k = alpha * k / n, n = dist.max_degree, that
    integrate_partitioned(degree_proportional=True) integrates.

    Equating the per-partition isolation terms weighted by k^2 * N_k gives
    the factor <k^3> / (n * <k^2>) with <k^2> = sigma^2 + mu^2, so
    alpha_eff = alpha * <k^3> / (n * (sigma^2 + mu^2)).
    """
    stats = compute_stats(dist)
    return alpha * stats.k3 / (dist.max_degree * (stats.sigma**2 + stats.mu**2))
