"""Quadrature tests: the library's fixed decaying-tail rule, and the
adaptive integrator that tests/oracles.py keeps as its independent route.

Expected values are frozen from independent oracles (series expansions,
closed forms) computed separately from the code under test.
"""

import math

import numpy as np
import pytest

from heisenkern.numerics import QuadratureSpec, integrate_decaying

from oracles import AdaptiveSpec, QuadratureError, adaptive_decaying, integrate_1d

# Oracle: int_0^1 x/sinh(x) dx from the expansion x/sinh x = 2 sum_k x e^{-(2k+1)x},
# integrated term by term: pi^2/4 - sum_k 2(1+a)e^{-a}/a^2 with a = 2k+1.
# The 2/a^2 part telescopes to pi^2/4 exactly; the remainder converges geometrically.
X_OVER_SINH_01 = 0.9480619836146862

# Oracle: int_0^infty lambda/sinh(lambda) = sum_k 2/(2k+1)^2 * 2 = pi^2/4.
PI2_OVER_4 = math.pi**2 / 4.0

# Closed form: int_0^infty cos(5 l) e^{-l} dl = 1/(1+25).
COS5_EXP = 1.0 / 26.0


class TestQuadratureSpec:
    def test_defaults(self):
        assert QuadratureSpec().abs_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_panel_cap_quarter_period(self):
        # at wavenumber 8 the fixed rule lays 12-point panels pi/16 wide on [0, 40]
        seen = []

        def f(lam):
            seen.append(lam)
            return np.exp(-lam)

        integrate_decaying(f, 1.0, 8.0)
        assert seen[0].size == 12 * math.ceil(40.0 / (math.pi / 16.0))


class TestIntegrate1d:
    def test_x_over_sinh(self):
        val, err = integrate_1d(lambda x: x / np.sinh(x), 1e-300, 1.0)
        assert abs(val - X_OVER_SINH_01) < 1e-9
        assert err < 1e-8

    def test_oscillatory_panel_rule(self):
        # high wavenumber: plain rule would need luck, capped panels do not
        spec = AdaptiveSpec(oscillation_wavenumber=50.0)
        val, _ = integrate_1d(lambda x: np.cos(50.0 * x), 0.0, 1.0, spec)
        assert val == pytest.approx(math.sin(50.0) / 50.0, abs=1e-12)

    def test_error_estimate_is_honest(self):
        val, err = integrate_1d(lambda x: np.exp(-x * x), 0.0, 3.0)
        exact = 0.8862073482595214  # sqrt(pi)/2 * erf(3), series oracle
        assert abs(val - exact) <= max(err * 1e3, 1e-12)

    def test_nonconvergence_raises_with_payload(self):
        spec = AdaptiveSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=4)
        with pytest.raises(QuadratureError) as exc:
            integrate_1d(lambda x: np.abs(x - 1.0 / 3.0) ** 0.3, 0.0, 1.0, spec)
        assert exc.value.value == pytest.approx(0.58, abs=0.2)
        assert exc.value.error_estimate > 0

    def test_scalar_only_integrand_supported(self):
        val, _ = integrate_1d(lambda x: math.exp(-x), 0.0, 1.0)
        assert val == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 0.0)


class TestIntegrateDecaying:
    def test_lambda_over_sinh(self):
        val = integrate_decaying(
            lambda lam: np.where(lam < 1e-12, 1.0, lam / np.sinh(np.maximum(lam, 1e-12))),
            decay_rate=1.0,
            wavenumber=0.0,
        )
        assert val == pytest.approx(PI2_OVER_4, abs=1e-13)

    def test_oscillatory_decaying(self):
        val = integrate_decaying(lambda lam: np.cos(5.0 * lam) * np.exp(-lam), 1.0, 5.0)
        assert val == pytest.approx(COS5_EXP, abs=1e-13)

    @pytest.mark.parametrize("a, k", [(1.0, 0.0), (0.3, 0.0), (2.0, 1.5), (17.0, 3.0),
                                      (0.5, 12.0), (1.0, 50.0)])
    def test_exponential_cosine_closed_form(self, a, k):
        # int_0^inf e^{-a lam} cos(k lam) dlam = a/(a^2 + k^2)
        val = integrate_decaying(lambda lam: np.exp(-a * lam) * np.cos(k * lam), a, k)
        assert abs(val - a / (a * a + k * k)) <= 1e-13

    def test_complex_integrand(self):
        # int_0^inf e^{-(a - i k) lam} dlam = 1/(a - i k)
        val = integrate_decaying(lambda lam: np.exp(-complex(2.0, -7.0) * lam), 2.0, 7.0)
        assert abs(val - 1.0 / complex(2.0, -7.0)) <= 1e-13

    def test_split_additivity(self):
        # adaptive route: integral over [0, inf) equals [0, c] + shifted remainder
        f = lambda lam: np.exp(-0.7 * lam) * (1.0 + np.sin(lam)) ** 2
        whole = adaptive_decaying(f, 0.7)
        c = 2.3
        head, _ = integrate_1d(f, 1e-12, c)
        tail = adaptive_decaying(lambda u: f(u + c), 0.7)
        assert whole == pytest.approx(head + tail, abs=1e-9)

    def test_decay_rate_validation(self):
        with pytest.raises(ValueError):
            integrate_decaying(lambda x: np.exp(-x), 0.0, 0.0)
        with pytest.raises(ValueError):
            adaptive_decaying(lambda x: np.exp(-x), 0.0)
