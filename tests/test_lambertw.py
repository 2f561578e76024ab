import math

import numpy as np
import pytest
from scipy.special import lambertw as scipy_lambertw

from epidelay.params import ModelError
from epidelay.stability import lambert_w


def bisection_oracle(x: float, lo: float, hi: float) -> float:
    """Solve w*exp(w) = x by bisection on a bracketing interval."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_w0_at_zero():
    assert lambert_w(0.0) == 0.0


def test_w0_at_e():
    assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)


def test_w0_of_one_vs_bisection():
    oracle = bisection_oracle(1.0, 0.0, 1.0)
    assert lambert_w(1.0) == pytest.approx(oracle, abs=1e-12)
    assert lambert_w(1.0) == pytest.approx(0.5671432904097838, abs=1e-12)


def test_w0_identity_on_grid():
    for w in np.linspace(-1.0, 10.0, 2001):
        x = w * math.exp(w)
        assert abs(lambert_w(x, "principal") - w) <= 1e-10


def test_wm1_identity_on_grid():
    for w in np.linspace(-20.0, -1.0, 2001):
        x = w * math.exp(w)
        assert abs(lambert_w(x, "minus_one") - w) <= 1e-10


def test_residual_contract_both_branches():
    rng = np.random.default_rng(11)
    for _ in range(500):
        x = rng.uniform(-math.exp(-1.0), 100.0)
        w = lambert_w(x, "principal")
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        assert w >= -1.0
    for _ in range(500):
        x = rng.uniform(-math.exp(-1.0), -1e-12)
        w = lambert_w(x, "minus_one")
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        assert w <= -1.0


def test_near_branch_point():
    bp = -math.exp(-1.0)
    for eps in (0.0, 1e-15, 1e-12, 1e-9, 1e-6):
        w0 = lambert_w(bp + eps, "principal")
        wm = lambert_w(bp + eps, "minus_one")
        assert w0 >= -1.0
        assert wm <= -1.0
        assert abs(w0 * math.exp(w0) - (bp + eps)) <= 1e-12
        assert abs(wm * math.exp(wm) - (bp + eps)) <= 1e-12


def test_matches_scipy():
    rng = np.random.default_rng(23)
    xs = rng.uniform(-math.exp(-1.0) + 1e-9, 50.0, size=300)
    for x in xs:
        assert lambert_w(float(x), "principal") == pytest.approx(
            float(np.real(scipy_lambertw(x, 0))), abs=1e-10)
    xs = rng.uniform(-math.exp(-1.0) + 1e-9, -1e-6, size=300)
    for x in xs:
        assert lambert_w(float(x), "minus_one") == pytest.approx(
            float(np.real(scipy_lambertw(x, -1))), abs=1e-10)


def test_domain_errors():
    with pytest.raises(ModelError):
        lambert_w(-1.0, "principal")
    with pytest.raises(ModelError):
        lambert_w(0.5, "minus_one")
    with pytest.raises(ModelError):
        lambert_w(-1.0, "minus_one")
    with pytest.raises(ModelError):
        lambert_w(1.0, "k=2")


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("branch", ["principal", "minus_one"])
def test_non_finite_rejected(x, branch):
    with pytest.raises(ModelError):
        lambert_w(x, branch)
