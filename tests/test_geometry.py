"""Geodesic chart, CC distance, and volume-element tests.

The chart algebra is self-checking: the chart map geodesic_point and
its inverse polar_from_cartesian (oracles in oracles.py) and the
library's cc_distance_many are independent code paths (forward map vs
root solve), so the unit-speed identity d(geodesic_point(u, s)) = s
exercises both.  The one-point cc_distance, with its half-angle and
branch, is the oracles'; at every point a test here sends it, its d is
cc_distance_many's bit for bit.  The Jacobian is pinned twice, against
finite-difference determinants of the chart map and against Cartesian
integrals with closed-form values.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisenkern.geometry import cc_distance_many, chart_ball_nodes, jacobian_A
from heisenkern.group import GroupElement, ScalarField

import oracles
from oracles import (
    ChartDegenerateError,
    GeodesicChart,
    apply_L,
    dilate,
    geodesic_point,
    homogeneous_norm,
    mu,
    polar_from_cartesian,
)

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



def cc_distance(p: GroupElement) -> oracles.DistanceResult:
    """The oracles' one-point distance, whose d must equal cc_distance_many's
    bit for bit at every point a test here sends it: the oracle's branch
    masks cannot drift from the library's."""
    res = oracles.cc_distance(p)
    assert res.d.hex() == float(cc_distance_many(p.x, p.y, p.z)).hex(), p
    return res


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

    def test_scalar_is_the_vectorized_routes_point(self):
        """cc_distance is one point of cc_distance_many, bit for bit, on
        every branch and at scales from 1e-8 to 1e6; its phi is 0
        on the planar branch and pi on the axis."""
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.normal(size=(3, 200)) * s for s in (1e-8, 1.0, 1e6)]
                             + [[[0.0, 3.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0, 0.7]]], axis=1)
        batch = cc_distance_many(*pts)
        for (x, y, z), d in zip(pts.T, batch):
            res = cc_distance(GroupElement(x, y, z))
            assert res.d.hex() == d.hex(), (x, y, z)
            if res.branch == "generic":
                assert 0.0 < res.phi < math.pi
            else:
                assert res.phi == {"planar": 0.0, "axis": math.pi}[res.branch]
        assert [cc_distance(GroupElement(*p)).branch for p in pts[:, -4:].T] == [
            "planar", "planar", "axis", "generic"]

    def test_oracle_branches_at_the_thresholds(self):
        """On both sides of the planar and the axis threshold, at unit scale,
        at 1e-150 and at subnormal radii, the oracle's branch is the one its
        d and phi show and its d is cc_distance_many's bit for bit."""
        pts = []
        for s in (1.0, 1e-150, 1e150):
            for f in (0.5, 0.999999, 1.0, 1.000001, 2.0):
                pts.append((s, 0.0, f * 1e-12 * s * s))           # planar threshold
                pts.append((f * 1e-12 * s, 0.0, s * s))           # axis threshold
        pts += [(5e-324, 0.0, 1.0), (1e-320, 0.0, 0.0), (1e-160, 0.0, 1e-300)]
        for x, y, z in pts:
            res = cc_distance(GroupElement(x, y, z))
            r = math.hypot(x, y)
            want = {"planar": (r, 0.0), "axis": (2.0 * math.sqrt(math.pi * abs(z)), math.pi)}
            if res.branch == "generic":
                assert 0.0 < res.phi < math.pi
            else:
                assert (res.d, res.phi) == pytest.approx(want[res.branch], rel=1e-15)
        assert {cc_distance(GroupElement(*p)).branch for p in pts} == {"planar", "axis", "generic"}

    def test_subnormal_radius_without_warning(self):
        """az/r overflows at a subnormal r; the axis value comes out
        with no RuntimeWarning, equal to the scalar route's."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = cc_distance_many(np.array([5e-324, 0.0]), 0.0, 1.0)
        assert d[0] == d[1] == cc_distance(GroupElement(5e-324, 0.0, 1.0)).d
        assert d[0] == pytest.approx(TWO_SQRT_PI, rel=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_coordinate_raises(self, bad, axis):
        """A NaN or infinite coordinate raises instead of giving d = nan,
        in the scalar and the vectorized routine alike."""
        p = [0.3, -0.2, 0.0]
        p[axis] = bad
        with pytest.raises(ValueError, match="finite"):
            cc_distance(GroupElement(*p))
        coords = [np.array([0.5, c]) for c in (0.3, -0.2, 0.0)]
        coords[axis][1] = bad
        with pytest.raises(ValueError, match="finite"):
            cc_distance_many(*coords)

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

    @pytest.mark.parametrize("r", [1e-3, 1e-100, 1e-160, 1e-200, 5e-324])
    def test_tiny_planar_points(self, r):
        """z = 0 is planar at every r, where r * r underflows too."""
        p = GroupElement(r, 0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ch = polar_from_cartesian(p)
            branch = cc_distance(p).branch
        assert ch.branch == branch == "planar"
        assert ch.s == r

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

    def test_half_turns_are_exact(self):
        """At even n_alpha the rotations by alpha + pi are the exact
        negatives in (x, y) of those by alpha, so a sum odd in (x, y)
        is exactly 0."""
        x, y, z, w = chart_ball_nodes(3.0, n_s=20, n_phi=14, n_alpha=10)
        xa, ya, za, wa = (v.reshape(2, 2, -1) for v in (x, y, z, w))
        assert np.array_equal(xa[:, 1], -xa[:, 0]) and np.array_equal(ya[:, 1], -ya[:, 0])
        assert np.array_equal(za[:, 1], za[:, 0]) and np.array_equal(wa[:, 1], wa[:, 0])
        assert np.sum(w * x * np.exp(-y * y)) == 0.0

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            chart_ball_nodes(0.0)

    @pytest.mark.parametrize("n_alpha", [0, 2.5, -1])
    def test_bad_alpha_count(self, n_alpha):
        """0 would divide by zero and 2.5 is no array length; both raise as
        n_s and n_phi do."""
        with pytest.raises(ValueError, match="n_alpha must be an integer >= 1"):
            chart_ball_nodes(1.0, n_alpha=n_alpha)

    def test_integral_float_alpha_count(self):
        got = chart_ball_nodes(1.0, n_s=6, n_phi=5, n_alpha=6.0)
        want = chart_ball_nodes(1.0, n_s=6, n_phi=5, n_alpha=6)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_radius(self, radius):
        with pytest.raises(ValueError, match="finite"):
            chart_ball_nodes(radius)


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
