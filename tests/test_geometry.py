"""Geodesic chart, CC distance, and volume-element tests.

The chart algebra is self-checking: geodesic_point and cc_distance are
independent code paths (forward map vs root solve), so the unit-speed
identity d(geodesic_point(u, s)) = s exercises both.  The Jacobian is
pinned twice, against finite-difference determinants of the chart map
and against Cartesian integrals with closed-form values.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisenkern.geometry import (
    ChartDegenerateError,
    GeodesicChart,
    cc_distance,
    cc_distance_many,
    chart_ball_nodes,
    geodesic_point,
    jacobian_A,
    mu,
    polar_from_cartesian,
)
from heisenkern.group import GroupElement, ScalarField, apply_L, dilate, homogeneous_norm

# d(0,0,1): the full-circle geodesic with z = pi|u|^2 = 1 has length
# s = 2 pi |u| = 2 sqrt(pi)
TWO_SQRT_PI = 3.5449077018110318

# mu(1) = 1/sin(1)^2 - cot(1), evaluated directly
MU_AT_1 = 0.7701903115030614

# A(1, pi) = 4 sin(pi/2)(sin(pi/2) - (pi/2) cos(pi/2)) = 4
A_AT_1_PI = 4.0

# integral of exp(-((x^2+y^2)^2 + z^2)) over R^3:
# sqrt(pi) * int 2 pi r exp(-r^4) dr = sqrt(pi) * pi * sqrt(pi)/2 = pi^2/2
F1_INTEGRAL = math.pi**2 / 2.0
# same with an (x^2+y^2) factor: sqrt(pi) * 2 pi * (1/4) = pi^{3/2}/2
F2_INTEGRAL = math.pi**1.5 / 2.0

finite_coord = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


class TestMu:
    def test_pi_half(self):
        # cot(pi/2) = 0 leaves (pi/2)/sin(pi/2)^2
        assert mu(math.pi / 2.0) == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_frozen_value_at_one(self):
        assert mu(1.0) == pytest.approx(MU_AT_1, abs=1e-14)

    def test_series_regime_matches_leading_order(self):
        assert mu(1e-4) == pytest.approx((2.0 / 3.0) * 1e-4, rel=1e-7)

    def test_series_joins_direct_branch(self):
        # just above the 1e-3 switch the direct branch must agree with
        # the series to its truncation error
        phi = 1.1e-3
        series = (2.0 / 3.0) * phi + (4.0 / 45.0) * phi**3
        assert mu(phi) == pytest.approx(series, rel=1e-9)

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(1e-5, math.pi - 1e-5, 10_000)
        vals = np.array([mu(p) for p in grid])
        assert np.all(np.diff(vals) > 0.0)

    @pytest.mark.parametrize("bad", [0.0, -0.2, math.pi, 3.5])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            mu(bad)


class TestCcDistance:
    def test_planar_point(self):
        res = cc_distance(GroupElement(3.0, 0.0, 0.0))
        assert res.branch == "planar"
        assert res.d == pytest.approx(3.0, abs=1e-14)

    def test_axis_point_frozen(self):
        res = cc_distance(GroupElement(0.0, 0.0, 1.0))
        assert res.branch == "axis"
        assert res.d == pytest.approx(TWO_SQRT_PI, abs=1e-8)
        assert res.phi == math.pi

    def test_origin(self):
        assert cc_distance(GroupElement(0.0, 0.0, 0.0)).d == 0.0

    def test_depends_only_on_r_and_abs_z(self):
        a = cc_distance(GroupElement(0.6, 0.8, 0.7))
        b = cc_distance(GroupElement(1.0, 0.0, -0.7))
        assert a.d == pytest.approx(b.d, rel=1e-12)
        assert a.phi == pytest.approx(b.phi, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        x=finite_coord,
        y=finite_coord,
        z=finite_coord,
        lam=st.floats(min_value=0.05, max_value=20.0),
    )
    def test_dilation_homogeneity(self, x, y, z, lam):
        p = GroupElement(x, y, z)
        base = cc_distance(p).d
        scaled = cc_distance(dilate(p, lam)).d
        assert scaled == pytest.approx(lam * base, rel=1e-10, abs=1e-14)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=40)
        ys = rng.normal(size=40)
        zs = rng.normal(size=40)
        # branch points included on purpose
        xs[0], ys[0], zs[0] = 0.0, 0.0, 2.0
        xs[1], ys[1], zs[1] = 1.5, -0.5, 0.0
        batch = cc_distance_many(xs, ys, zs)
        for i in range(40):
            one = cc_distance(GroupElement(xs[i], ys[i], zs[i])).d
            assert batch[i] == pytest.approx(one, rel=1e-13, abs=1e-13)

    def test_subnormal_radius_without_warning(self):
        """az/r overflows at a subnormal r; the axis value comes out
        with no RuntimeWarning, equal to the scalar route's."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = cc_distance_many(np.array([5e-324, 0.0]), 0.0, 1.0)
        assert d[0] == d[1] == cc_distance(GroupElement(5e-324, 0.0, 1.0)).d
        assert d[0] == pytest.approx(TWO_SQRT_PI, rel=1e-15)

    def test_continuity_across_planar_threshold(self):
        lo = cc_distance(GroupElement(1.0, 0.0, 0.9e-12)).d
        hi = cc_distance(GroupElement(1.0, 0.0, 1.1e-12)).d
        assert abs(lo - hi) < 1e-10

    def test_continuity_across_axis_threshold(self):
        lo = cc_distance(GroupElement(0.9e-12, 0.0, 1.0)).d
        hi = cc_distance(GroupElement(1.1e-12, 0.0, 1.0)).d
        assert abs(lo - hi) < 1e-10


class TestGeodesicPoint:
    def test_short_arclength_stays_near_origin(self):
        g = geodesic_point(GeodesicChart(u=1.0 + 0.5j, s=1e-9))
        assert homogeneous_norm(g) < 1e-8

    def test_cut_point_lands_on_axis(self):
        g = geodesic_point(GeodesicChart(u=1.0 + 0j, s=2.0 * math.pi))
        assert abs(g.x) < 1e-12 and abs(g.y) < 1e-12
        assert g.z == pytest.approx(math.pi, abs=1e-12)

    def test_half_turn_example(self):
        g = geodesic_point(GeodesicChart(u=1.0 + 0j, s=math.pi))
        assert g.x == pytest.approx(2.0, abs=1e-14)
        assert g.y == pytest.approx(0.0, abs=1e-14)
        assert g.z == pytest.approx(math.pi / 2.0, abs=1e-14)

    def test_planar_branch(self):
        g = geodesic_point(GeodesicChart(u=1j, s=2.0, branch="planar"))
        assert (g.x, g.y, g.z) == pytest.approx((2.0, 0.0, 0.0), abs=1e-14)

    def test_mirror_flips_y_and_z(self):
        ch = GeodesicChart(u=0.8 - 0.3j, s=2.5)
        a = geodesic_point(ch)
        b = geodesic_point(GeodesicChart(u=ch.u, s=ch.s, mirror=True))
        assert (b.x, b.y, b.z) == (a.x, -a.y, -a.z)

    def test_chart_validation(self):
        with pytest.raises(ValueError):
            GeodesicChart(u=1.0, s=2.0 * math.pi + 0.1)
        with pytest.raises(ValueError):
            GeodesicChart(u=1.0, s=0.0)
        with pytest.raises(ValueError):
            GeodesicChart(u=0.0, s=1.0)
        with pytest.raises(ValueError):
            GeodesicChart(u=1.0, s=1.0, branch="spiral")
        with pytest.raises(ValueError):
            GeodesicChart(u=2.0 + 0j, s=1.0, branch="planar")


class TestUnitSpeed:
    def test_hundred_random_charts(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for i in range(100):
            rho = rng.uniform(0.2, 4.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            s = rng.uniform(1e-3, 0.9999) * 2.0 * math.pi * rho
            u = rho * complex(math.cos(ang), math.sin(ang))
            g = geodesic_point(GeodesicChart(u=u, s=s, mirror=bool(i % 2)))
            worst = max(worst, abs(cc_distance(g).d - s))
        assert worst <= 1e-8

    def test_cut_length(self):
        u = 1.3 + 0.4j
        g = geodesic_point(GeodesicChart(u=u, s=2.0 * math.pi * abs(u)))
        res = cc_distance(g)
        assert res.branch == "axis"
        assert res.d == pytest.approx(2.0 * math.pi * abs(u), abs=1e-8)


class TestPolarFromCartesian:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = GroupElement(*rng.normal(size=3))
            q = geodesic_point(polar_from_cartesian(p))
            assert abs(q.x - p.x) + abs(q.y - p.y) + abs(q.z - p.z) <= 1e-8

    def test_chart_roundtrip(self):
        p = geodesic_point(GeodesicChart(u=2.0 + 0j, s=3.0))
        ch = polar_from_cartesian(p)
        assert ch.u == pytest.approx(2.0 + 0j, abs=1e-9)
        assert ch.s == pytest.approx(3.0, abs=1e-9)

    def test_half_turn_inverse(self):
        ch = polar_from_cartesian(GroupElement(2.0, 0.0, math.pi / 2.0))
        assert ch.u == pytest.approx(1.0 + 0j, abs=1e-12)
        assert ch.s == pytest.approx(math.pi, abs=1e-12)

    def test_planar_sentinel(self):
        ch = polar_from_cartesian(GroupElement(1.0, 0.0, 0.0))
        assert ch.branch == "planar"
        assert ch.s == pytest.approx(1.0, abs=1e-14)
        assert geodesic_point(ch).x == pytest.approx(1.0, abs=1e-14)

    def test_arclength_is_distance(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            p = GroupElement(*rng.normal(size=3))
            assert polar_from_cartesian(p).s == pytest.approx(
                cc_distance(p).d, rel=1e-12
            )

    def test_degenerate_inputs(self):
        with pytest.raises(ChartDegenerateError):
            polar_from_cartesian(GroupElement(0.0, 0.0, 1.0))
        with pytest.raises(ChartDegenerateError):
            polar_from_cartesian(GroupElement(0.0, 0.0, 0.0))


class TestJacobian:
    def test_frozen_value(self):
        assert jacobian_A(1.0, math.pi) == pytest.approx(A_AT_1_PI, abs=1e-12)

    def test_vanishes_at_cut(self):
        assert jacobian_A(1.0, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_quartic_vanishing_at_origin(self):
        # A ~ s^4/(12 |u|^3) as s -> 0 at fixed u
        val = jacobian_A(2.0, 1e-3)
        assert val == pytest.approx(1e-12 / 96.0, rel=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(
        u_abs=st.floats(min_value=0.1, max_value=8.0),
        frac=st.floats(min_value=1e-3, max_value=0.999),
        lam=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_degree_one_scaling(self, u_abs, frac, lam):
        # A du ds must pick up lambda^4 = lambda^2 (du) lambda (ds) lambda (A)
        s = frac * 2.0 * math.pi * u_abs
        assert jacobian_A(lam * u_abs, lam * s) == pytest.approx(
            lam * jacobian_A(u_abs, s), rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            jacobian_A(0.0, 1.0)
        with pytest.raises(ValueError):
            jacobian_A(1.0, 7.0)
        with pytest.raises(ValueError):
            jacobian_A(1.0, np.array([1.0, 7.0]))

    def test_array_matches_scalar(self):
        s = np.linspace(1e-3, 2.0 * math.pi * 1.3, 97)
        a = jacobian_A(1.3, s)
        assert isinstance(jacobian_A(1.3, float(s[5])), float)
        assert a.tobytes() == np.array([jacobian_A(1.3, float(v)) for v in s]).tobytes()

    def test_matches_fd_determinant_of_chart_map(self):
        # |det d(x,y,z)/d(rho, alpha, s)| should equal A(rho, s) * rho
        def chart_map(rho, alpha, s):
            u = rho * complex(math.cos(alpha), math.sin(alpha))
            g = geodesic_point(GeodesicChart(u=u, s=s))
            return np.array([g.x, g.y, g.z])

        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            rho = rng.uniform(0.3, 3.0)
            alpha = rng.uniform(0.0, 2.0 * math.pi)
            s = rng.uniform(0.05, 0.95) * 2.0 * math.pi * rho
            cols = [
                (chart_map(rho + h, alpha, s) - chart_map(rho - h, alpha, s)) / (2 * h),
                (chart_map(rho, alpha + h, s) - chart_map(rho, alpha - h, s)) / (2 * h),
                (chart_map(rho, alpha, s + h) - chart_map(rho, alpha, s - h)) / (2 * h),
            ]
            det = abs(np.linalg.det(np.column_stack(cols)))
            assert det == pytest.approx(jacobian_A(rho, s) * rho, rel=1e-6)


def _f1(x, y, z):
    return np.exp(-(((x * x + y * y) ** 2) + z * z))


def _f2(x, y, z):
    return (x * x + y * y) * _f1(x, y, z)


def _f3(x, y, z):
    return np.cos(x) * _f1(x, y, z)


@pytest.fixture(scope="module")
def chart_nodes():
    return chart_ball_nodes(8.0, n_s=80, n_phi=60, n_alpha=48)


class TestChangeOfVariables:
    """Chart integrals against Cartesian integration of the same functions.

    The integrands decay like exp(-norm^4), so a chart ball of radius 8
    captures them to far below the tolerance.
    """

    def _cartesian(self, f):
        xs = np.linspace(-3.2, 3.2, 161)
        zs = np.linspace(-7.0, 7.0, 281)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        slab = np.empty(len(zs))
        for k, z in enumerate(zs):
            slab[k] = np.trapezoid(np.trapezoid(f(gx, gy, z), xs, axis=1), xs)
        return float(np.trapezoid(slab, zs))

    def test_three_functions_match_cartesian(self, chart_nodes):
        x, y, z, w = chart_nodes
        for f in (_f1, _f2, _f3):
            chart_val = float(np.sum(w * f(x, y, z)))
            cart_val = self._cartesian(f)
            assert chart_val == pytest.approx(cart_val, rel=1e-4)

    def test_closed_form_anchors(self, chart_nodes):
        # independent of any Cartesian discretization
        x, y, z, w = chart_nodes
        assert float(np.sum(w * _f1(x, y, z))) == pytest.approx(F1_INTEGRAL, rel=1e-10)
        assert float(np.sum(w * _f2(x, y, z))) == pytest.approx(F2_INTEGRAL, rel=1e-10)


class TestChartBallNodes:
    def test_nodes_stay_inside_ball(self):
        x, y, z, w = chart_ball_nodes(2.5, n_s=24, n_phi=16, n_alpha=12)
        d = cc_distance_many(x, y, z)
        assert np.all(d <= 2.5 * (1.0 + 1e-9))
        assert np.all(w > 0.0)

    def test_volume_scales_like_fourth_power(self):
        _, _, _, w1 = chart_ball_nodes(1.0, n_s=40, n_phi=30, n_alpha=6)
        _, _, _, w2 = chart_ball_nodes(2.0, n_s=40, n_phi=30, n_alpha=6)
        assert w2.sum() == pytest.approx(16.0 * w1.sum(), rel=1e-12)

    def test_odd_in_z_integrates_to_zero(self):
        x, y, z, w = chart_ball_nodes(3.0, n_s=20, n_phi=14, n_alpha=10)
        assert abs(np.sum(w * z * np.exp(-x * x))) < 1e-13

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            chart_ball_nodes(0.0)


class TestNormEquivalence:
    def test_bracket_over_log_grid(self):
        # ratio norm^4/d^4 is dilation invariant; sweep directions x scales
        # (odd count so the planar direction psi = 0 is on the grid)
        psis = np.linspace(-math.pi / 2.0, math.pi / 2.0, 101)
        lams = np.logspace(-3.0, 3.0, 100)
        r_dir = np.sqrt(np.abs(np.cos(psis)))
        z_dir = np.sin(psis)
        x = np.outer(lams, r_dir).ravel()
        z = np.outer(lams * lams, z_dir).ravel()
        norm4 = (x * x) ** 2 + z * z
        d = cc_distance_many(x, np.zeros_like(x), z)
        ratio = norm4 / d**4
        c1, c2 = float(ratio.min()), float(ratio.max())
        assert 0.0 < c1 <= c2 < math.inf
        # extremes: axis direction gives 1/(16 pi^2), planar gives 1
        assert c1 == pytest.approx(1.0 / (16.0 * math.pi**2), rel=1e-6)
        assert c2 == pytest.approx(1.0, rel=1e-9)
        print(f"norm-equivalence bracket: c1={c1:.8f} c2={c2:.8f}")


class TestBoundedAlgebraBound:
    def test_sub_laplacian_of_inverse_norm_weight(self):
        # f = (1+R)^{-1}, R = (x^2+y^2)^2 + z^2: |Lf| (1+R) stays bounded
        # on d <= 6; the empirical sup is ~4.1
        def fval(x, y, z):
            return 1.0 / (1.0 + (x * x + y * y) ** 2 + z * z)

        def fgrad(x, y, z):
            big = 1.0 + (x * x + y * y) ** 2 + z * z
            c = -1.0 / (big * big)
            fx = c * 4.0 * x * (x * x + y * y)
            fy = c * 4.0 * y * (x * x + y * y)
            fz = c * 2.0 * z
            return (fx - 0.5 * y * fz, fy + 0.5 * x * fz, fz)

        f = ScalarField(fval, analytic_gradient=fgrad, name="inv_weight")
        x, y, z, _ = chart_ball_nodes(6.0, n_s=14, n_phi=10, n_alpha=8)
        pts = [GroupElement(float(a), float(b), float(c)) for a, b, c in zip(x, y, z)]
        pts += [
            GroupElement(0.0, 0.0, 0.0),
            GroupElement(0.0, 0.0, 2.8),
            GroupElement(5.9, 0.0, 0.0),
        ]
        sup = 0.0
        for p in pts[:600]:
            big = 1.0 + (p.x * p.x + p.y * p.y) ** 2 + p.z * p.z
            sup = max(sup, abs(float(apply_L(f, p))) * big)
        assert math.isfinite(sup)
        assert sup < 50.0
        print(f"empirical B1: {sup:.4f}")
