import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from epidelay.params import (
    DegreeDistribution,
    DegreeStats,
    EpidemicParams,
    ModelError,
    effective_beta,
)
from epidelay.stability import (
    CharacteristicParams,
    VerdictKind,
    degree_proportional_alpha,
    heterogeneous_delay_bound,
    homogeneous_delay_bound,
    max_cv,
    model_char_params,
    rightmost_root,
)


def params(rho=0.0, gamma=0.1, alpha=0.8, t_delay=0.0):
    return EpidemicParams(rho=rho, gamma=gamma, alpha=alpha, t_delay=t_delay)


def char_fn(s: complex, beta_h: float, params: EpidemicParams) -> complex:
    """Characteristic function f(s) = s - beta_h*(1 - alpha*e^{-(gamma+s)T}) + gamma,
    written from the model independently of model_char_params.

    Its roots (together with the always-stable root at -gamma) are the
    characteristic roots of the linearized isolation dynamics. At s = 0 it
    equals gamma * (1 - Re) with Re the effective reproduction number.
    """
    g, al, tau = params.gamma, params.alpha, params.t_delay
    return s - beta_h * (1.0 - al * cmath.exp(-(g + s) * tau)) + g


class TestHomogeneousBound:
    def test_reference_case(self):
        v = homogeneous_delay_bound(params(alpha=0.8, gamma=0.1), 3.0)
        assert v.kind is VerdictKind.STABLE_UP_TO
        assert v.t_max == pytest.approx(math.log(1.2) / 0.1, rel=1e-12)
        assert v.t_max == pytest.approx(1.823, abs=1e-3)

    def test_low_alpha_infeasible(self):
        v = homogeneous_delay_bound(params(alpha=0.6), 3.0)
        assert v.kind is VerdictKind.INFEASIBLE_AT_ZERO_DELAY
        assert v.t_max == 0.0

    def test_subcritical_unconditional(self):
        v = homogeneous_delay_bound(params(alpha=0.3), 0.9)
        assert v.kind is VerdictKind.UNCONDITIONALLY_STABLE
        assert math.isinf(v.t_max)

    def test_flip_exactly_at_alpha_threshold(self):
        below = homogeneous_delay_bound(params(alpha=2.0 / 3.0 - 1e-9), 3.0)
        above = homogeneous_delay_bound(params(alpha=2.0 / 3.0 + 1e-9), 3.0)
        assert below.kind is VerdictKind.INFEASIBLE_AT_ZERO_DELAY
        assert above.kind is VerdictKind.STABLE_UP_TO
        assert above.t_max > 0.0

    def test_r0_domain_error(self):
        with pytest.raises(ModelError):
            homogeneous_delay_bound(params(), 0.0)
        with pytest.raises(ModelError):
            homogeneous_delay_bound(params(), -2.0)
        for r0 in (math.nan, math.inf):
            with pytest.raises(ModelError):
                homogeneous_delay_bound(params(), r0)

    def test_margin_sign_tracks_delay(self):
        v = homogeneous_delay_bound(params(alpha=0.8, t_delay=1.0), 3.0)
        assert v.is_stable and v.margin < 0.0
        v = homogeneous_delay_bound(params(alpha=0.8, t_delay=2.5), 3.0)
        assert not v.is_stable and v.margin > 0.0


class TestHeterogeneousBound:
    def test_cv_zero_matches_homogeneous(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            gamma = rng.uniform(0.05, 0.4)
            mu = rng.uniform(1.5, 8.0)
            rho = rng.uniform(0.005, 0.12)
            alpha = rng.uniform(0.0, 1.0)
            t = rng.uniform(0.0, 3.0)
            p = params(rho=rho, gamma=gamma, alpha=alpha, t_delay=t)
            het = heterogeneous_delay_bound(p, DegreeStats.from_mu_cv(mu, 0.0))
            hom = homogeneous_delay_bound(p, rho * mu / gamma)
            assert het.kind is hom.kind
            if math.isfinite(het.t_max):
                assert het.t_max == pytest.approx(hom.t_max, rel=1e-12)
            assert het.margin == pytest.approx(hom.margin, rel=1e-12, abs=1e-15)

    def test_reference_cv_half(self):
        p = params(rho=0.075, alpha=0.8)
        v = heterogeneous_delay_bound(p, DegreeStats.from_mu_cv(4.0, 0.5))
        assert v.t_max == pytest.approx(10.0 * math.log(0.3 / 0.275), rel=1e-12)
        assert v.t_max == pytest.approx(0.870, abs=1e-3)

    def test_near_critical_cv(self):
        p = params(rho=0.075, alpha=0.8)
        crit = max_cv(3.0, 0.8)
        just_below = heterogeneous_delay_bound(p, DegreeStats.from_mu_cv(4.0, crit - 1e-6))
        just_above = heterogeneous_delay_bound(p, DegreeStats.from_mu_cv(4.0, crit + 1e-6))
        assert just_below.kind is VerdictKind.STABLE_UP_TO
        assert just_below.t_max < 1e-4
        assert just_above.kind is VerdictKind.INFEASIBLE_AT_ZERO_DELAY

    def test_t_max_strictly_decreasing_in_cv(self):
        p = params(rho=0.075, alpha=0.9)
        cvs = np.linspace(0.0, 1.0, 21)
        t_maxes = [heterogeneous_delay_bound(p, DegreeStats.from_mu_cv(4.0, cv)).t_max
                   for cv in cvs]
        assert all(b < a for a, b in zip(t_maxes, t_maxes[1:]))


class TestMaxCv:
    def test_reference_values(self):
        assert max_cv(3.0, 0.8) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
        assert max_cv(3.0, 0.9) == pytest.approx(math.sqrt(7.0 / 3.0), abs=1e-12)

    def test_boundary_infeasible(self):
        assert max_cv(3.0, 2.0 / 3.0) is None
        assert max_cv(3.0, 0.5) is None

    def test_domain_errors(self):
        with pytest.raises(ModelError):
            max_cv(0.9, 0.5)
        with pytest.raises(ModelError):
            max_cv(3.0, 1.0)

    def test_consistent_with_bound_sign_change(self):
        for alpha in (0.75, 0.8, 0.9, 0.95):
            crit = max_cv(3.0, alpha)
            p = params(rho=0.075, alpha=alpha)
            below = heterogeneous_delay_bound(p, DegreeStats.from_mu_cv(4.0, crit - 1e-7))
            above = heterogeneous_delay_bound(p, DegreeStats.from_mu_cv(4.0, crit + 1e-7))
            assert below.kind is VerdictKind.STABLE_UP_TO
            assert above.kind is VerdictKind.INFEASIBLE_AT_ZERO_DELAY


class TestCharFn:
    def test_no_isolation_root(self):
        p = params(rho=0.075, alpha=0.0, t_delay=2.0)
        beta_h = 0.375
        root = beta_h - p.gamma
        assert abs(char_fn(root, beta_h, p)) < 1e-15

    def test_f0_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            p = params(rho=0.0, gamma=rng.uniform(0.05, 0.5),
                       alpha=rng.uniform(0, 1), t_delay=rng.uniform(0, 5))
            beta_h = rng.uniform(0.01, 1.0)
            # rho = beta_h on a one-contact population (mu 1, h 1)
            v = heterogeneous_delay_bound(replace(p, rho=beta_h), DegreeStats.from_mu_cv(1.0, 0.0))
            assert v.beta_h == beta_h
            f0 = char_fn(0.0, beta_h, p)
            assert f0.real == pytest.approx(p.gamma * (1.0 - v.re), rel=1e-12, abs=1e-15)
            assert f0.imag == 0.0

    def test_zero_at_boundary_delay(self):
        p0 = params(rho=0.075, alpha=0.8)
        stats = DegreeStats.from_mu_cv(4.0, 0.5)
        v = heterogeneous_delay_bound(p0, stats)
        p_boundary = params(rho=0.075, alpha=0.8, t_delay=v.t_max)
        beta_h = effective_beta(p_boundary, stats)
        assert abs(char_fn(0.0, beta_h, p_boundary)) < 1e-14


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["a", "b", "tau"])
def test_non_finite_coefficient_refused(field, value):
    coeffs = {"a": 0.5, "b": -0.5, "tau": 1.0, field: value}
    with pytest.raises(ModelError, match="must be finite"):
        CharacteristicParams(**coeffs)


def test_negative_tau_refused():
    with pytest.raises(ModelError, match="tau must be >= 0"):
        CharacteristicParams(a=0.5, b=-0.5, tau=-1e-3)


class TestRightmostRoot:
    def test_no_delay_term(self):
        assert rightmost_root(CharacteristicParams(a=0.25, b=0.0, tau=1.5)) == 0.25 + 0j

    def test_tau_zero(self):
        assert rightmost_root(CharacteristicParams(a=0.25, b=-0.4, tau=0.0)) == pytest.approx(-0.15)

    def test_residual_is_a_root(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            cp = CharacteristicParams(a=rng.uniform(-1, 1), b=rng.uniform(-2, 0.5),
                                      tau=rng.uniform(0.01, 5.0))
            s = rightmost_root(cp)
            assert abs(s - cp.a - cp.b * cmath.exp(-s * cp.tau)) < 1e-9

    def test_overflowing_b_tau_with_finite_branch_argument(self):
        # b*tau passes the largest double without an OverflowError, yet
        # ln|x| = 554.1; the root is scipy's a + W0(x)/tau, x from logs
        cp = CharacteristicParams(a=23.266788127432434, b=-3.8112243106301687e307,
                                  tau=6.70495271588154)
        s = rightmost_root(cp)
        assert abs(s - (104.97142585545069 + 0.46769435085799926j)) <= 1e-14 * abs(s)

    def test_overflowing_exponential_with_finite_branch_argument(self):
        # exp(-a*tau) = exp(800) passes the largest double; x does not
        cp = CharacteristicParams(a=-0.01, b=0.05 * math.exp(-200.0), tau=8e4)
        x = 0.05 * 8e4 * math.exp(600.0)
        s = rightmost_root(cp)
        assert s.imag == 0.0
        assert s.real == pytest.approx(cp.a + scipy_lambertw(x, 0).real / cp.tau, rel=1e-12)
        assert abs(s - cp.a - cp.b * cmath.exp(-s * cp.tau)) < 1e-9
        # b = 0 leaves the root at a
        assert rightmost_root(CharacteristicParams(a=-0.01, b=0.0, tau=1e300)) == -0.01 + 0j

    @pytest.mark.parametrize("a,b,tau", [(-1000.0, 1.0, 1.0), (-1e300, 1.0, 1e300)])
    def test_non_finite_branch_argument_refused(self, a, b, tau):
        with pytest.raises(ModelError, match="not finite"):
            rightmost_root(CharacteristicParams(a=a, b=b, tau=tau))

    def test_nan_product_with_representable_branch_argument(self):
        # b*tau is inf and exp(-a*tau) is 0, so the direct product is NaN;
        # from logs x = exp(2*ln(1e300) - 1e300) = 0.0 and the root is a
        s = rightmost_root(CharacteristicParams(a=1.0, b=1e300, tau=1e300))
        assert s == 1.0 + 0j
        assert s.real - 1.0 - 1e300 * math.exp(-s.real * 1e300) == 0.0

    def test_complex_branch_overflow_fallback(self):
        # x is about -1, from logs, and exp(-s*tau) passes the largest
        # double at the seed a - 1/tau + i*pi/2, so b*exp(-s*tau) is taken
        # from logs along the Newton path
        cp = CharacteristicParams(a=-720.0, b=-math.exp(-720.0), tau=1.0)
        x = -math.exp(math.log(-cp.b) - cp.a)
        s = rightmost_root(cp)
        assert s == -720.3181315052068 + 1.337235701428935j
        assert s == pytest.approx(cp.a + complex(scipy_lambertw(x, 0)), rel=1e-15)

    def test_complex_branch_scan_matches_scipy(self):
        # x from just below -1/e (offsets 1e-14 to 1) to -e^700, a in (-2, 2),
        # tau in (0.01, 10). Near -1/e b is the direct quotient, so the
        # branch argument rightmost_root forms stays below -1/e; far out b
        # comes from logs, with ln|x| capped where b would pass the float range
        rng = np.random.default_rng(36)
        n = 4000
        a_all = rng.uniform(-2.0, 2.0, 2 * n)
        tau_all = 10.0 ** rng.uniform(-2.0, 1.0, 2 * n)
        offsets = 10.0 ** rng.uniform(-14.0, 0.0, n)
        log_far = rng.uniform(math.log(1.0 + math.exp(-1.0)), 700.0, n)
        for i in range(2 * n):
            a, tau = float(a_all[i]), float(tau_all[i])
            if i < n:
                x = -math.exp(-1.0) - float(offsets[i])
                b = x * math.exp(a * tau) / tau
            else:
                log_x = min(float(log_far[i - n]), 709.0 - a * tau + math.log(tau))
                x = -math.exp(log_x)
                b = -math.exp(log_x + a * tau - math.log(tau))
            s = rightmost_root(CharacteristicParams(a=a, b=b, tau=tau))
            assert s.imag > 0.0
            try:
                delayed = b * cmath.exp(-s * tau)
            except OverflowError:
                delayed = -cmath.exp(math.log(-b) - s * tau)
            # the stop test's bound: 1e-12, or some ulps of the largest term
            scale = max(1.0, abs(s), abs(a), abs(s * tau) * abs(s - a))
            assert abs(s - a - delayed) <= 1e-12 * scale
            expected = a + complex(scipy_lambertw(x, 0)) / tau
            assert abs(s - expected) <= 1e-5 * max(1.0, abs(s))

    @pytest.mark.parametrize("a,b", [(-710.0, -1e-300), (-700.0, -1e-290), (0.0, -1e100)])
    def test_complex_branch_far_left(self, a, b):
        # exp(-s*tau) passes the largest double along the Newton path for
        # the first pair (an OverflowError), and for the second rounding
        # alone kept |f| above an absolute 1e-12 (damping stalled). For the
        # third the root, 224.8 + 3.1i, lies so far from a - 1/tau that
        # Newton from there did not converge in 200 steps
        s = rightmost_root(CharacteristicParams(a=a, b=b, tau=1.0))
        # b*exp(-s) from logs: exp(-s) itself overflows at the root too
        resid = abs(s - a + cmath.exp(math.log(-b) - s))
        assert s.imag > 0.0 and resid <= 1e-12 * max(1.0, abs(s), abs(a))
        x = -math.exp(math.log(-b) - a)  # finite, far below -1/e
        assert s == pytest.approx(a + complex(scipy_lambertw(x, 0)), rel=1e-14)

    def test_complex_pair_matches_scipy_branch(self):
        rng = np.random.default_rng(29)
        found_complex = 0
        for _ in range(40):
            a = rng.uniform(-1.0, 1.0)
            tau = rng.uniform(0.1, 4.0)
            x = rng.uniform(-6.0, -0.5)  # below the -1/e branch point
            b = x / (tau * math.exp(-a * tau))
            s = rightmost_root(CharacteristicParams(a=a, b=b, tau=tau))
            expected = a + complex(scipy_lambertw(x, 0)) / tau
            if abs(expected.imag) > 1e-12:
                found_complex += 1
                assert s.real == pytest.approx(expected.real, abs=1e-8)
                assert abs(s.imag) == pytest.approx(abs(expected.imag), abs=1e-8)
                # dominance over the neighboring branches
                for k in (1, -1):
                    other = a + complex(scipy_lambertw(x, k)) / tau
                    assert s.real >= other.real - 1e-9
        assert found_complex >= 30

    def test_boundary_root_on_axis(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 20:
            gamma = rng.uniform(0.05, 0.4)
            mu = rng.uniform(1.5, 8.0)
            rho = rng.uniform(0.005, 0.15)
            cv = rng.uniform(0.0, 1.2)
            alpha = rng.uniform(0.05, 1.0)
            p = EpidemicParams(rho=rho, gamma=gamma, alpha=alpha, t_delay=0.0)
            stats = DegreeStats.from_mu_cv(mu, cv)
            v = heterogeneous_delay_bound(p, stats)
            if v.kind is not VerdictKind.STABLE_UP_TO or not 0.05 < v.t_max < 50:
                continue
            checked += 1
            beta_h = effective_beta(p, stats)
            at = rightmost_root(model_char_params(
                beta_h, EpidemicParams(rho=rho, gamma=gamma, alpha=alpha, t_delay=v.t_max)))
            assert abs(at.real) < 1e-8
            below = rightmost_root(model_char_params(
                beta_h, EpidemicParams(rho=rho, gamma=gamma, alpha=alpha,
                                       t_delay=v.t_max * 0.99)))
            above = rightmost_root(model_char_params(
                beta_h, EpidemicParams(rho=rho, gamma=gamma, alpha=alpha,
                                       t_delay=v.t_max * 1.01)))
            assert below.real < 0.0 < above.real

    def test_verdict_root_consistency_grid(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 10:
            gamma = rng.uniform(0.05, 0.3)
            p = EpidemicParams(rho=rng.uniform(0.01, 0.12), gamma=gamma,
                               alpha=rng.uniform(0.1, 1.0), t_delay=0.0)
            stats = DegreeStats.from_mu_cv(rng.uniform(2, 7), rng.uniform(0, 1))
            v = heterogeneous_delay_bound(p, stats)
            if v.kind is not VerdictKind.STABLE_UP_TO or not 0.1 < v.t_max < 40:
                continue
            checked += 1
            for frac, expect_stable in ((0.5, True), (0.9, True), (1.1, False), (1.5, False)):
                q = EpidemicParams(rho=p.rho, gamma=p.gamma, alpha=p.alpha,
                                   t_delay=v.t_max * frac)
                vq = heterogeneous_delay_bound(q, stats)
                assert vq.is_stable == expect_stable


class TestDegreeProportionalAlpha:
    def test_degenerate_collapses(self):
        dist = DegreeDistribution({5: 1000})
        assert degree_proportional_alpha(0.7, dist) == pytest.approx(0.7, rel=1e-12)

    def test_two_point_reference(self):
        dist = DegreeDistribution({1: 500, 7: 500})
        # <k^3> = 172, <k^2> = 25, n = 7 -> 0.7 * 172/175
        assert degree_proportional_alpha(0.7, dist) == pytest.approx(0.688, abs=1e-12)

    def test_zero_alpha(self):
        assert degree_proportional_alpha(0.0, DegreeDistribution({1: 500, 7: 500})) == 0.0

    def test_matches_exact_moment_ratio(self):
        # alpha * sum k^3 N_k / (n * sum k^2 N_k) in exact rationals; a
        # degree-0 partition adds to neither sum, and one degree gives alpha
        def exact(alpha, counts):
            ratio = Fraction(sum(k**3 * c for k, c in counts.items()),
                             max(counts) * sum(k * k * c for k, c in counts.items()))
            return float(Fraction(alpha) * ratio)

        rng = np.random.default_rng(2026)
        cases = [(0.7, {5: 1000}), (0.31, {12: 3}), (0.9, {0: 40, 1: 500, 7: 500})]
        for _ in range(200):
            degrees = rng.choice(np.arange(1, int(rng.choice([8, 60, 1000])) + 1),
                                 size=int(rng.integers(1, 9)), replace=False)
            counts = {int(k): int(rng.integers(1, 10 ** int(rng.integers(1, 7))))
                      for k in degrees}
            cases.append((float(rng.uniform(0.0, 1.0)), counts))
            cases.append((cases[-1][0], {0: int(rng.integers(1, 10**6)), **counts}))
        for alpha, counts in cases:
            got = degree_proportional_alpha(alpha, DegreeDistribution(counts))
            want = exact(alpha, counts)
            assert abs(got - want) <= 1e-15 * want, counts
        assert exact(0.7, {5: 1000}) == 0.7 and exact(0.31, {12: 3}) == 0.31
