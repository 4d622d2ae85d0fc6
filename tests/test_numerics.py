"""Quadrature tests: the library's fixed decaying-tail rule, and the
adaptive integrator that tests/oracles.py keeps as its independent route.

Expected values are frozen from independent oracles (series expansions,
closed forms) computed separately from the code under test.
"""

import math

import numpy as np
import pytest

from heisenkern.numerics import (BicubicTable, QuadratureSpec, gauss_legendre, gauss_panels,
                                 integrate_decaying)

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

        def f(lam, rows):
            seen.append(lam)
            return np.exp(-lam)

        integrate_decaying(f, [1.0], [8.0])
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


def _one_point(g, a, k):
    """integrate_decaying at the one point (a, k), ``g`` mapping its row of nodes."""
    return integrate_decaying(lambda lam, rows: g(lam), [a], [k])[0]


def _lam_over_sinh(lam):
    return np.where(lam < 1e-12, 1.0, lam / np.sinh(np.maximum(lam, 1e-12)))


def _exp_cos(a, k):
    return lambda lam: np.exp(-a * lam) * np.cos(k * lam)


EXP_COS_CASES = [(1.0, 0.0), (0.3, 0.0), (2.0, 1.5), (17.0, 3.0), (0.5, 12.0), (1.0, 50.0)]
# (integrand, decay_rate, wavenumber) of every real case below
REAL_CASES = [(_lam_over_sinh, 1.0, 0.0), (_exp_cos(1.0, 5.0), 1.0, 5.0),
              *((_exp_cos(a, k), a, k) for a, k in EXP_COS_CASES)]


def _multi_point(cases):
    """One integrate_decaying call over ``cases``, each point on its own rule,
    and the node counts its integrand saw."""
    seen = set()

    def f(lam, rows):
        seen.add(lam.shape[1])
        return np.stack([cases[i][0](lam[j]) for j, i in enumerate(rows)])

    vals = integrate_decaying(f, [c[1] for c in cases], [c[2] for c in cases])
    return vals, seen


class TestIntegrateDecaying:
    def test_lambda_over_sinh(self):
        val = _one_point(_lam_over_sinh, 1.0, 0.0)
        assert val == pytest.approx(PI2_OVER_4, abs=1e-13)

    def test_oscillatory_decaying(self):
        val = _one_point(lambda lam: np.cos(5.0 * lam) * np.exp(-lam), 1.0, 5.0)
        assert val == pytest.approx(COS5_EXP, abs=1e-13)

    @pytest.mark.parametrize("a, k", EXP_COS_CASES)
    def test_exponential_cosine_closed_form(self, a, k):
        # int_0^inf e^{-a lam} cos(k lam) dlam = a/(a^2 + k^2)
        val = _one_point(lambda lam: np.exp(-a * lam) * np.cos(k * lam), a, k)
        assert abs(val - a / (a * a + k * k)) <= 1e-13

    def test_complex_integrand(self):
        # int_0^inf e^{-(a - i k) lam} dlam = 1/(a - i k)
        val = _one_point(lambda lam: np.exp(-complex(2.0, -7.0) * lam), 2.0, 7.0)
        assert abs(val - 1.0 / complex(2.0, -7.0)) <= 1e-13

    def test_multi_point_call_keeps_each_rule(self):
        """Every case above in one call, each point on its own rule, has the
        bits of its one-point call; so do complex e^{-(a - ik) lam} rows."""
        vals, seen = _multi_point(REAL_CASES)
        assert vals.shape == (len(REAL_CASES),) and len(seen) == 4
        for val, (f, a, k) in zip(vals, REAL_CASES):
            assert val.hex() == float(_one_point(f, a, k)).hex()
        complex_cases = [(lambda lam, s=complex(a, -k): np.exp(-s * lam), a, k)
                         for a, k in [(2.0, 7.0), *EXP_COS_CASES]]
        vals, seen = _multi_point(complex_cases)
        assert vals.dtype == complex and len(seen) == 4
        for val, (f, a, k) in zip(vals, complex_cases):
            assert complex(val) == complex(_one_point(f, a, k))
            assert abs(val - 1.0 / complex(a, -k)) <= 1e-13

    def test_points_grouped_in_blocks(self):
        """A group of one panel count wider than a block is split into blocks,
        and each value keeps the bits of its one-point call."""
        a = np.linspace(1.0, 3.0, 300)
        vals = integrate_decaying(lambda lam, rows: np.exp(-a[rows, None] * lam), a, 0.0)
        assert vals.shape == a.shape
        for val, ai in zip(vals, a):
            assert val.hex() == float(_one_point(lambda lam: np.exp(-ai * lam), ai, 0.0)).hex()

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
            integrate_decaying(lambda lam, rows: np.exp(-lam), [0.0], [0.0])
        with pytest.raises(ValueError):
            adaptive_decaying(lambda x: np.exp(-x), 0.0)

    @pytest.mark.parametrize("decay, k", [(1.0, -30.0), (1.0, math.nan), (1.0, math.inf),
                                          (math.inf, 1.0), (math.nan, 1.0)])
    def test_refuses_bad_rates(self, decay, k):
        """A negative or non-finite wavenumber and a non-finite decay rate
        raise: a negative wavenumber was read as no oscillation, so
        cos(30 lam) e^{-lam} came out 1.2542e-3 against 1/901 = 1.1099e-3."""
        with pytest.raises(ValueError):
            integrate_decaying(lambda lam, rows: np.cos(30.0 * lam) * np.exp(-lam), [decay], [k])

    def test_negative_wavenumber_row_in_a_batch_raises(self):
        with pytest.raises(ValueError, match="wavenumber"):
            integrate_decaying(lambda lam, rows: np.exp(-lam), [1.0, 1.0], [0.0, -1.0])


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [0, -3, 2.7, math.nan, math.inf, "4", None])
    def test_refuses_bad_node_counts(self, n):
        with pytest.raises(ValueError, match="integer"):
            gauss_legendre(0.0, 1.0, n)
        with pytest.raises(ValueError, match="integer"):
            gauss_panels(np.array([0.0, 0.5, 1.0]), n)

    def test_integral_float_counts_are_ints(self):
        for got, want in zip(gauss_legendre(0.0, 1.0, 2.0), gauss_legendre(0.0, 1.0, 2)):
            assert np.array_equal(got, want)
        edges = np.array([0.0, 0.5, 1.0])
        for got, want in zip(gauss_panels(edges, 2.0), gauss_panels(edges, 2)):
            assert np.array_equal(got, want) and got.size == 4


class TestBicubicTable:
    GRID = np.arange(6) * 0.5

    def test_reproduces_bicubic_polynomials(self):
        """Not-a-knot cubics hold every bicubic polynomial: off the nodes and
        past the grid's edges the table is the polynomial to rounding."""
        def poly(x, y):
            return np.stack([1.0 + x - 2.0 * y + x**3 * y**2 - 0.5 * x * y**3, x**2 * y**3 - 3.0 * y])

        xg, yg = self.GRID, np.linspace(-1.0, 2.0, 7)
        X, Y = np.meshgrid(xg, yg, indexing="ij")
        table = BicubicTable(xg, yg, np.moveaxis(poly(X, Y), 0, -1))
        rng = np.random.default_rng(2)
        x, y = rng.uniform(-0.5, 3.0, 500), rng.uniform(-1.5, 2.5, 500)
        assert table(x, y).shape == (2, 500)
        assert np.max(np.abs(table(x, y) - poly(x, y))) <= 1e-12

    @pytest.mark.parametrize("xg", [
        np.arange(3) * 0.5,                      # fewer than 4 nodes
        np.arange(6)[::-1] * 0.5,                # decreasing
        np.array([0.0, 0.5, 0.5, 1.5, 2.0, 2.5]),  # a repeated node
        np.array([0.0, 0.5, 1.0, 1.7, 2.0, 2.5]),  # a node past a quarter step
        np.array([0.0, 0.5, 1.0, np.nan, 2.0, 2.5]),
        np.zeros((2, 3)),                        # not 1-d
    ])
    def test_refuses_bad_grids(self, xg):
        with pytest.raises(ValueError, match="xg"):
            BicubicTable(xg, self.GRID, np.zeros((np.size(xg), 6, 1)))
        with pytest.raises(ValueError, match="yg"):
            BicubicTable(self.GRID, xg, np.zeros((6, np.size(xg), 1)))

    def test_accepts_a_grid_uniform_to_a_quarter_step(self):
        xg = np.array([0.0, 0.5, 1.0, 1.6, 2.0, 2.5])
        table = BicubicTable(xg, self.GRID, np.ones((6, 6, 1)))
        assert np.allclose(table(np.linspace(0.0, 2.5, 11), np.zeros(11)), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(6, 6), (5, 6, 1), (6, 7, 2), (6, 6, 1, 1)])
    def test_refuses_values_of_another_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            BicubicTable(self.GRID, self.GRID, np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_values(self, bad):
        values = np.zeros((6, 6, 2))
        values[3, 2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            BicubicTable(self.GRID, self.GRID, values)
