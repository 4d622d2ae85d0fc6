"""Semigroup quadrature tests: P_t examples, three gradient routes at the
origin (grad_Pt_at, the one routine every harness gradient row uses,
against grad_Pt_origin's ibp route and the oracles' centred differences
of apply_Pt_many), entropies, and the variance-from-interpolation
identity.  A field without an analytic gradient raises wherever P_t's
gradient needs one.

Every expected value is derived by hand from the generator L = X^2 + Y^2
acting on polynomials (d/dt E[f] = E[Lf], so e.g. E[x^2] = 2t and
E[z^2] = t^2), from symmetry of the mirrored node set, or from a Taylor
expansion; the two starred values come from the closed-form gradient of
log h checked in the kernel module.  The fine tier is also checked
against the closed-form P_t f, gradient and variance of the lambda-slice
f = cos(lam z) e^{-a r^2} (oracles.LambdaSlice).  The interpolation identity tests
run both legs of the nested quadrature at the reduced node tier, which
resolves trig modulations up to wavenumber about 1.5 at the 1e-3 level;
the family below stays inside that window on purpose.
"""

import functools
import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisenkern import semigroup
from heisenkern.geometry import chart_ball_nodes
from heisenkern.group import GroupElement, ScalarField, poly_field
from heisenkern.kernel import xhat_log_h_field
from heisenkern.numerics import QuadratureSpec, gauss_legendre
from heisenkern.semigroup import (
    MASS_DEFICIT_TOL,
    HeatOpConfig,
    MassDeficitError,
    apply_Pt_many,
    grad_Pt_at,
    grad_Pt_origin,
    heat_measure,
    interpolation_variance,
    variance,
)

from oracles import (ExactPoly, LambdaSlice, apply_Pt, entropy_phi, grad_Pt_origin_fd,
                     validate_gradient, xhat_log_h_exact)

ORIGIN = GroupElement(0.0, 0.0, 0.0)
CFG1 = HeatOpConfig(t=1.0)
COARSE = QuadratureSpec(abs_tol=1e-6)
NESTED = QuadratureSpec(abs_tol=1e-4)
CFG1_COARSE = HeatOpConfig(t=1.0, quad=COARSE)
CFG1_NESTED = HeatOpConfig(t=1.0, quad=NESTED)

ONE = poly_field({(0, 0, 0): 1.0}, name="1")


def coord_field(name, F, Fx, Fy, Fz):
    """Field from coordinate partials; converts them to frame components."""

    def grad(x, y, z):
        px, py, pz = Fx(x, y, z), Fy(x, y, z), Fz(x, y, z)
        return (
            px - 0.5 * np.asarray(y, float) * pz,
            py + 0.5 * np.asarray(x, float) * pz,
            pz,
        )

    return ScalarField(eval=F, analytic_gradient=grad, name=name)


def _zero(x, y, z):
    return np.zeros(np.broadcast(x, y, z).shape)


def _family():
    """Twenty fields for the route-agreement and interpolation checks.

    Polynomials of degree <= 3, trig modulations with wavenumber <= 1.5,
    bounded rational and sigmoid shapes, Gaussian bumps, and the
    distinguished gradient-of-log-kernel member last.
    """
    return [
        poly_field({(1, 0, 0): 1.0}, "x"),
        poly_field({(0, 1, 0): 1.0, (1, 0, 0): -2.0}, "y-2x"),
        poly_field({(0, 0, 1): 1.0}, "z"),
        poly_field({(2, 0, 0): 1.0, (0, 2, 0): 1.0}, "x^2+y^2"),
        poly_field({(1, 1, 0): 1.0}, "xy"),
        poly_field({(1, 0, 1): 1.0}, "xz"),
        poly_field({(2, 0, 0): 1.0, (0, 1, 0): -1.0, (0, 0, 1): 1.0}, "x^2-y+z"),
        poly_field({(3, 0, 0): 1.0}, "x^3"),
        poly_field({(2, 1, 0): 1.0}, "x^2 y"),
        poly_field({(0, 1, 1): 1.0, (1, 0, 0): 1.0}, "yz+x"),
        poly_field({(0, 0, 2): 1.0}, "z^2"),
        coord_field(
            "sin x",
            lambda x, y, z: np.sin(x) + _zero(x, y, z),
            lambda x, y, z: np.cos(x) + _zero(x, y, z),
            _zero,
            _zero,
        ),
        coord_field(
            "cos(x+y)",
            lambda x, y, z: np.cos(x + y) + _zero(x, y, z),
            lambda x, y, z: -np.sin(x + y) + _zero(x, y, z),
            lambda x, y, z: -np.sin(x + y) + _zero(x, y, z),
            _zero,
        ),
        coord_field(
            "sin(.7(x+y))cos(.4z)",
            lambda x, y, z: np.sin(0.7 * (x + y)) * np.cos(0.4 * z),
            lambda x, y, z: 0.7 * np.cos(0.7 * (x + y)) * np.cos(0.4 * z),
            lambda x, y, z: 0.7 * np.cos(0.7 * (x + y)) * np.cos(0.4 * z),
            lambda x, y, z: -0.4 * np.sin(0.7 * (x + y)) * np.sin(0.4 * z),
        ),
        coord_field(
            "gauss-xy",
            lambda x, y, z: np.exp(-(x * x + y * y) / 4.0) + _zero(x, y, z),
            lambda x, y, z: -0.5 * x * np.exp(-(x * x + y * y) / 4.0),
            lambda x, y, z: -0.5 * y * np.exp(-(x * x + y * y) / 4.0),
            _zero,
        ),
        coord_field(
            "gauss-xyz",
            lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 8.0),
            lambda x, y, z: -0.25 * x * np.exp(-(x * x + y * y + z * z) / 8.0),
            lambda x, y, z: -0.25 * y * np.exp(-(x * x + y * y + z * z) / 8.0),
            lambda x, y, z: -0.25 * z * np.exp(-(x * x + y * y + z * z) / 8.0),
        ),
        coord_field(
            "x gauss-yz",
            lambda x, y, z: x * np.exp(-(y * y + z * z) / 8.0),
            lambda x, y, z: np.exp(-(y * y + z * z) / 8.0) + _zero(x, y, z),
            lambda x, y, z: -x * y / 4.0 * np.exp(-(y * y + z * z) / 8.0),
            lambda x, y, z: -x * z / 4.0 * np.exp(-(y * y + z * z) / 8.0),
        ),
        coord_field(
            "tanh(x/2)",
            lambda x, y, z: np.tanh(0.5 * x) + _zero(x, y, z),
            lambda x, y, z: 0.5 / np.cosh(0.5 * x) ** 2 + _zero(x, y, z),
            _zero,
            _zero,
        ),
        coord_field(
            "1/(1+r^2)",
            lambda x, y, z: 1.0 / (1.0 + x * x + y * y) + _zero(x, y, z),
            lambda x, y, z: -2.0 * x / (1.0 + x * x + y * y) ** 2,
            lambda x, y, z: -2.0 * y / (1.0 + x * x + y * y) ** 2,
            _zero,
        ),
        xhat_log_h_field(),
    ]


FAMILY = _family()


# ---------------------------------------------------------------- apply_Pt


def test_mass_normalization():
    v = apply_Pt(ONE, CFG1)
    assert abs(v - 1.0) <= MASS_DEFICIT_TOL


def test_deficit_certified_at_every_tier():
    for quad in (QuadratureSpec(), COARSE, NESTED):
        m = heat_measure(HeatOpConfig(t=1.0, quad=quad))
        assert m.deficit <= MASS_DEFICIT_TOL


def test_odd_coordinates_integrate_to_zero():
    # z by the mirrored node copies, x and y by the angular rule
    for key, coeff in (("x", (1, 0, 0)), ("y", (0, 1, 0)), ("z", (0, 0, 1))):
        v = apply_Pt(poly_field({coeff: 1.0}, key), CFG1)
        assert abs(v) <= 1e-12, key


def test_radial_quadratic_grows_at_rate_four():
    # L(x^2+y^2) = 4 and L^2 = 0, so P_t(x^2+y^2)(0) = 4t exactly
    f = poly_field({(2, 0, 0): 1.0, (0, 2, 0): 1.0}, "x^2+y^2")
    assert apply_Pt(f, CFG1) == pytest.approx(4.0, rel=1e-6)
    assert apply_Pt(f, HeatOpConfig(t=0.3)) == pytest.approx(1.2, rel=1e-6)


def test_translated_radial_quadratic():
    # f(g.y) = (1+y1)^2 + (-2+y2)^2, cross terms are odd: 5 + 4t
    f = poly_field({(2, 0, 0): 1.0, (0, 2, 0): 1.0}, "x^2+y^2")
    v = apply_Pt(f, CFG1, GroupElement(1.0, -2.0, 0.5))
    assert v == pytest.approx(9.0, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    c=st.floats(-3.0, 3.0),
    d=st.floats(-3.0, 3.0),
)
def test_affine_functions_keep_their_constant(a, b, c, d):
    f = poly_field({(0, 0, 0): a, (1, 0, 0): b, (0, 1, 0): c, (0, 0, 1): d})
    v = apply_Pt(f, CFG1_COARSE)
    assert abs(v - a) <= 1e-8 * (1.0 + abs(a) + abs(b) + abs(c) + abs(d))


def test_apply_many_matches_scalar():
    f = FAMILY[13]
    pts = np.array([[0.0, 0.0, 0.0], [1.0, -0.5, 0.3], [-2.0, 1.0, -1.0]])
    many = apply_Pt_many(f, CFG1_COARSE, pts)
    for row, want in zip(pts, many):
        assert apply_Pt(f, CFG1_COARSE, GroupElement(*row)) == want


def test_apply_many_independent_of_batch():
    """One call on 300 points, 300 one-point calls and apply_Pt agree bit for bit."""
    f = poly_field({(1, 0, 1): 1.0, (0, 2, 0): 0.3}, "xz+0.3y^2")
    cfg = HeatOpConfig(t=0.5, quad=COARSE)
    pts = np.random.default_rng(11).uniform(-2.0, 2.0, size=(300, 3))
    batch = apply_Pt_many(f, cfg, pts)
    single = np.concatenate([apply_Pt_many(f, cfg, row) for row in pts])
    scalar = np.array([apply_Pt(f, cfg, GroupElement(*row)) for row in pts])
    assert single.tobytes() == batch.tobytes()
    assert scalar.tobytes() == batch.tobytes()


def test_fine_tier_values_independent_of_batch():
    """On the fine tier (24,576 nodes, so blocks of two points) apply_Pt_many
    and grad_Pt_at give each of three points the same bits alone as in one
    batch, whose last block has one row."""
    f = poly_field({(3, 0, 0): 1.0, (1, 1, 1): 0.5, (0, 1, 2): -0.2, (0, 0, 1): 1.0}, "cubic")
    measure = heat_measure(CFG1)
    assert measure.x.size == 24576
    pts = np.array([[0.3, -0.7, 0.2], [1.1, 0.4, -0.5], [-0.6, 0.9, 1.3]])
    batch = apply_Pt_many(f, CFG1, pts)
    grads = grad_Pt_at(f, measure, *pts.T)
    for i, row in enumerate(pts):
        assert apply_Pt_many(f, CFG1, row).tobytes() == batch[i:i + 1].tobytes()
        for got, want in zip(grad_Pt_at(f, measure, *row[:, None]), grads):
            assert got.tobytes() == want[i:i + 1].tobytes()


# the lambda-slice f = cos(1.5 z) exp(-0.3 r^2) at three points, and the
# fine tier's error against its closed form at t = 1, as measured: P_t f
# relative, each component of grad P_t f absolute (the symmetric nodes
# cancel both exactly at the origin: the z-mirror Y P_t f, the alpha
# half-turns X P_t f) and the variance relative; the variance's f^2 holds
# cos(3 z), which the tier resolves worst at r = 2.2
SLICE = LambdaSlice(1.5, 0.3)
SLICE_POINTS = np.array([[0.0, 0.0, 0.0], [0.7, -0.4, 0.3], [2.0, 1.0, -0.5]])
SLICE_VALUE_REL = [9.5e-13, 9.8e-13, 6.2e-10]
SLICE_GRAD_ABS = [0.0, 1.1e-13, 9.8e-11]
SLICE_VARIANCE_REL = [3.3e-11, 5.8e-11, 1.1e-7]


def test_lambda_slice_oracle_is_consistent():
    """The slice's frame gradient agrees with centred differences, its
    closed form at a = 0 is cos(lam z) e^{-(lam/4) tanh(lam t) r^2} /
    cosh(lam t), and it tends to the planar heat flow as lam -> 0."""
    pts = [GroupElement(*p) for p in SLICE_POINTS]
    assert validate_gradient(SLICE.field(), pts, rtol=1e-6, atol=1e-6) <= 1e-6
    x, y, z = SLICE_POINTS.T
    lam, t, r2 = 1.5, 0.8, x * x + y * y
    want = np.cos(lam * z) * np.exp(-0.25 * lam * math.tanh(lam * t) * r2) / math.cosh(lam * t)
    assert LambdaSlice(lam, 0.0).Pt(t, x, y, z) == pytest.approx(want, rel=1e-14)
    assert (LambdaSlice(1e-5, 0.3).Pt(t, x, y, z)
            == pytest.approx(LambdaSlice(0.0, 0.3).Pt(t, x, y, z), rel=1e-9))


def test_fine_tier_against_the_lambda_slice():
    """apply_Pt_many, grad_Pt_at and variance on the fine tier against the
    exact P_1 f, grad P_1 f and Var of the lambda-slice, each within the
    error measured at its point."""
    f = SLICE.field()
    got = apply_Pt_many(f, CFG1, SLICE_POINTS)
    want = SLICE.Pt(1.0, *SLICE_POINTS.T)
    assert np.all(np.abs(got - want) <= np.array(SLICE_VALUE_REL) * np.abs(want))
    gx, gy = grad_Pt_at(f, heat_measure(CFG1), *SLICE_POINTS.T)
    wx, wy = SLICE.grad_Pt(1.0, *SLICE_POINTS.T)
    assert np.all(np.maximum(np.abs(gx - wx), np.abs(gy - wy)) <= SLICE_GRAD_ABS)
    for p, bound in zip(SLICE_POINTS, SLICE_VARIANCE_REL):
        exact = float(SLICE.variance(1.0, *p))
        assert abs(variance(f, CFG1, GroupElement(*p)) - exact) <= bound * exact, p


# the 12 monomials x^i y^j z^k of weighted degree 0 < i + j + 2k <= 3, whose
# P_t f is the finite sum e^{tL} f (oracles.ExactPoly), at t = 0.7 (a
# dilated measure) and two points; each tier's worst error over them, as
# measured: P_t f absolute, each component of grad P_t f absolute and the
# variance relative, at the origin and at the translated point.  The fine
# tier errs about as the coarse one does, up to 63 times its abs_tol of
# 1e-10: the truncation at d <= 10 sqrt(t) sets the error, not the nodes.
EXACT_T = 0.7
EXACT_MONOMIALS = [(i, j, k) for k in range(2) for j in range(4) for i in range(4)
                   if 0 < i + j + 2 * k <= 3]
EXACT_POINTS = np.array([[0.0, 0.0, 0.0], [0.7, -0.4, 0.3]])
EXACT_BOUNDS = {                  # (value abs, grad abs, variance rel) per point
    "fine": ([2.07e-9, 4.37e-9], [6.19e-9, 6.33e-9], [1.11e-7, 8.99e-8]),
    "coarse": ([2.05e-9, 4.33e-9], [6.13e-9, 6.31e-9], [1.11e-7, 8.99e-8]),
    "nested": ([1.41e-8, 3.74e-8], [5.33e-8, 7.47e-8], [1.48e-7, 1.21e-7]),
}
# interpolation_variance on the nested tier, relative, the worst monomial
EXACT_IV_REL = 1.6e-7


def test_exact_polynomial_oracle_is_consistent():
    """The rational heat flow gives the generator's closed forms:
    Var(xz) = 10 t^3/3, Var(x^2 + y^2) = 16 t^2 and E[z^2] = t^2 at the
    origin, and X, Y lower the weighted degree by one."""
    t = Fraction(7, 10)
    xz = ExactPoly({(1, 0, 1): 1})
    r2 = ExactPoly({(2, 0, 0): 1, (0, 2, 0): 1})
    z = ExactPoly({(0, 0, 1): 1})
    for f, want in ((xz, Fraction(10, 3) * t**3), (r2, 16 * t * t)):
        assert (f * f).heat(t)(0, 0, 0) - f.heat(t)(0, 0, 0) ** 2 == want
    assert (z * z).heat(t)(0, 0, 0) == t * t
    assert xz.X().terms == {(0, 0, 1): 1, (1, 1, 0): Fraction(-1, 2)}
    assert xz.Y().terms == {(2, 0, 0): Fraction(1, 2)}
    assert r2.L().terms == {(0, 0, 0): 4}


@pytest.mark.parametrize("tier", list(EXACT_BOUNDS))
def test_tiers_against_exact_polynomials(tier):
    """apply_Pt_many, grad_Pt_at and variance on each tier against the
    exact P_t f, grad P_t f and Var of the 12 monomials, each within the
    worst error measured at its point."""
    cfg = HeatOpConfig(t=EXACT_T, quad=TIERS[tier][0])
    value_abs, grad_abs, var_rel = EXACT_BOUNDS[tier]
    for mono in EXACT_MONOMIALS:
        f = ExactPoly({mono: 1})
        pf, field = f.heat(EXACT_T), f.field()
        want = [float(pf(*p)) for p in EXACT_POINTS]
        assert np.all(np.abs(apply_Pt_many(field, cfg, EXACT_POINTS) - want) <= value_abs), mono
        gx, gy = grad_Pt_at(field, heat_measure(cfg), *EXACT_POINTS.T)
        wx, wy = ([float(g(*p)) for p in EXACT_POINTS] for g in (pf.X(), pf.Y()))
        assert np.all(np.maximum(np.abs(gx - wx), np.abs(gy - wy)) <= grad_abs), mono
        for p, bound in zip(EXACT_POINTS, var_rel):
            exact = float((f * f).heat(EXACT_T)(*p) - pf(*p) ** 2)
            assert abs(variance(field, cfg, GroupElement(*p)) - exact) <= bound * exact, (mono, p)


def test_interpolation_variance_against_exact_polynomials():
    cfg = HeatOpConfig(t=EXACT_T, quad=NESTED)
    for mono in EXACT_MONOMIALS:
        f = ExactPoly({mono: 1})
        exact = float((f * f).heat(EXACT_T)(0, 0, 0) - f.heat(EXACT_T)(0, 0, 0) ** 2)
        assert abs(interpolation_variance(f.field(), cfg) - exact) <= EXACT_IV_REL * exact, mono


def test_config_validation():
    with pytest.raises(ValueError):
        HeatOpConfig(t=0.0)
    with pytest.raises(ValueError):
        HeatOpConfig(t=-1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_config_rejects_non_finite_t(t):
    with pytest.raises(ValueError, match="finite"):
        HeatOpConfig(t=t)


def test_truncation_too_tight_is_a_config_error(monkeypatch):
    """A mass deficit above MASS_DEFICIT_TOL raises on the next build."""
    deficit = heat_measure(CFG1_COARSE).deficit
    assert deficit > 0.0
    semigroup._base_measure.cache_clear()
    monkeypatch.setattr(semigroup, "MASS_DEFICIT_TOL", 0.5 * deficit)
    with pytest.raises(MassDeficitError):
        heat_measure(CFG1_COARSE)
    with pytest.raises(MassDeficitError):
        apply_Pt(ONE, HeatOpConfig(t=4.0, quad=COARSE))


def test_measure_is_cached_per_config():
    assert heat_measure(CFG1_COARSE) is heat_measure(HeatOpConfig(t=1.0, quad=COARSE))


def test_measure_at_another_time_is_freed_once_dropped():
    """Only the t = 1 measure of a tier is kept: the dilated nodes at
    t = 0.37 share its mu and go with the measure, so distinct times
    retain no memory."""
    m = heat_measure(HeatOpConfig(t=0.37))
    assert m.mu is heat_measure(CFG1).mu
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("t", [1.0, 0.37])
def test_cached_measure_arrays_are_read_only(t):
    """The tier's t = 1 nodes, mu and log-gradient are shared by every
    caller, so none of them can be written, through a measure at any t."""
    m = heat_measure(HeatOpConfig(t=t, quad=COARSE))
    base = heat_measure(CFG1_COARSE)
    assert m.mu is base.mu
    for a in (base.x, base.y, base.z, base.mu, *semigroup._hat_log_grad(m.counts)):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        m.mu[0] = 0.0


# ------------------------------------------------ dilation of the t = 1 measure

# (spec, (n_s, n_phi, n_alpha)) per node tier at the default radius 10 sqrt(t)
TIERS = {
    "fine": (QuadratureSpec(), (32, 24, 16)),
    "coarse": (COARSE, (22, 16, 10)),
    "nested": (NESTED, (16, 12, 8)),
}
DILATION_TIMES = (0.05, 0.5, 2.0)


@pytest.mark.parametrize("t", DILATION_TIMES)
@pytest.mark.parametrize("tier", list(TIERS))
def test_dilated_measure_closed_form_variances(tier, t):
    # Var(xz) = 10 t^3/3 and Var(x^2+y^2) = 16 t^2 from the generator
    cfg = HeatOpConfig(t=t, quad=TIERS[tier][0])
    xz = poly_field({(1, 0, 1): 1.0}, "xz")
    r2 = poly_field({(2, 0, 0): 1.0, (0, 2, 0): 1.0}, "x^2+y^2")
    assert variance(xz, cfg) == pytest.approx(10.0 * t**3 / 3.0, rel=1e-5)
    assert variance(r2, cfg) == pytest.approx(16.0 * t * t, rel=1e-5)
    assert heat_measure(cfg).deficit <= MASS_DEFICIT_TOL


@pytest.mark.parametrize("t", DILATION_TIMES)
@pytest.mark.parametrize("tier", list(TIERS))
def test_dilated_nodes_match_direct_chart(tier, t):
    """Nodes at t are the chart nodes of radius 10 sqrt(t), and also the
    t = 1 nodes scaled by sqrt(t) horizontally and t vertically."""
    spec, counts = TIERS[tier]
    m = heat_measure(HeatOpConfig(t=t, quad=spec))
    m1 = heat_measure(HeatOpConfig(t=1.0, quad=spec))
    x, y, z, _ = chart_ball_nodes(10.0 * math.sqrt(t), *counts)
    st_ = math.sqrt(t)
    for got, direct, base, scale in ((m.x, x, m1.x, st_), (m.y, y, m1.y, st_), (m.z, z, m1.z, t)):
        tol = 1e-14 * float(np.max(np.abs(direct)))
        np.testing.assert_allclose(got, direct, rtol=1e-14, atol=tol)
        np.testing.assert_allclose(got, base * scale, rtol=1e-14, atol=tol)
    np.testing.assert_array_equal(m.mu, m1.mu)


@pytest.mark.parametrize("tier", list(TIERS))
def test_kernel_identical_on_symmetric_copies(tier):
    """The chart weights are equal on every alpha rotation and on the z
    mirror, so equal mu rows mean the kernel value is the same bits too."""
    spec, (n_s, n_phi, n_alpha) = TIERS[tier]
    _, _, _, w = chart_ball_nodes(10.0, n_s, n_phi, n_alpha)
    w_rows = w.reshape(2 * n_alpha, n_s * n_phi)
    np.testing.assert_array_equal(w_rows, np.broadcast_to(w_rows[0], w_rows.shape))
    for t in DILATION_TIMES:
        rows = heat_measure(HeatOpConfig(t=t, quad=spec)).mu.reshape(2 * n_alpha, -1)
        np.testing.assert_array_equal(rows, np.broadcast_to(rows[0], rows.shape))


@pytest.mark.parametrize("t", DILATION_TIMES)
def test_ibp_route_scales_log_gradient(t):
    # X P_t x (0) = 1 at every t: the t = 1 log-gradient over sqrt(t)
    g = grad_Pt_origin(poly_field({(1, 0, 0): 1.0}, "x"), HeatOpConfig(t=t, quad=COARSE),
                       route="ibp")
    assert g[0] == pytest.approx(1.0, abs=1e-6)
    assert g[1] == pytest.approx(0.0, abs=1e-6)


def test_interpolation_variance_builds_one_kernel_grid(monkeypatch):
    """variance and all 32 legs of interpolation_variance evaluate the
    kernel once, on the 16 x 12 radial nodes of the nested tier."""
    calls = []
    p1_many = semigroup.p1_many

    def counting_p1_many(r, z):
        calls.append(np.size(r))
        return p1_many(r, z)

    monkeypatch.setattr(semigroup, "p1_many", counting_p1_many)
    semigroup._base_measure.cache_clear()
    cfg = HeatOpConfig(t=0.7, quad=NESTED)
    x = poly_field({(1, 0, 0): 1.0}, "x")
    assert variance(x, cfg) == pytest.approx(1.4, rel=1e-6)
    assert interpolation_variance(x, cfg) == pytest.approx(1.4, rel=1e-5)
    assert calls == [16 * 12]
    assert semigroup._base_measure.cache_info().misses == 1


# ---------------------------------------------------------------- variance


def test_variance_constant_is_zero():
    # the renormalized weights sum to 1 only up to a ulp, so the
    # two-pass sum leaves squares of that, not an exact zero
    assert variance(poly_field({(0, 0, 0): 7.5}), CFG1) <= 1e-24


def test_variance_vertical_coordinate():
    # L(z^2) = (x^2+y^2)/2, so E[z^2] = int_0^t 2s ds = t^2
    assert variance(poly_field({(0, 0, 1): 1.0}), CFG1) == pytest.approx(1.0, rel=1e-6)


def test_variance_horizontal_coordinate():
    # L(x^2) = 2, so Var(x) = 2t
    assert variance(poly_field({(1, 0, 0): 1.0}), CFG1) == pytest.approx(2.0, rel=1e-6)


def test_variance_of_z_translated():
    # z(g.y) = g3 + z + (g1 y - g2 x)/2; at g = (1,1,0) the variance is
    # Var(z) + (Var(y) + Var(x))/4 = 1 + 1 = 2 (odd covariances vanish)
    v = variance(poly_field({(0, 0, 1): 1.0}), CFG1, GroupElement(1.0, 1.0, 0.0))
    assert v == pytest.approx(2.0, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    c0=st.floats(-2.0, 2.0),
    cx=st.floats(-2.0, 2.0),
    cy=st.floats(-2.0, 2.0),
    cz=st.floats(-2.0, 2.0),
    cxy=st.floats(-2.0, 2.0),
)
def test_variance_nonnegative(c0, cx, cy, cz, cxy):
    f = poly_field(
        {(0, 0, 0): c0, (1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz, (1, 1, 0): cxy}
    )
    assert variance(f, CFG1_COARSE) >= 0.0


# ------------------------------------------------------------- grad routes

# grad_Pt_at at the origin, named for the right-invariant fields it
# transfers, next to grad_Pt_origin's ibp route and the oracles' differences
ROUTES = ("fd", "hat-transfer", "ibp")


def grad_origin(f, cfg, route):
    if route == "hat-transfer":
        gx, gy = grad_Pt_at(f, heat_measure(cfg), 0.0, 0.0, 0.0)
        return float(gx[0]), float(gy[0])
    if route == "fd":
        return grad_Pt_origin_fd(f, cfg)
    return grad_Pt_origin(f, cfg, route=route)


@pytest.mark.parametrize("route", ROUTES)
def test_grad_of_linear_coordinate(route):
    g = grad_origin(poly_field({(1, 0, 0): 1.0}, "x"), CFG1, route)
    assert g[0] == pytest.approx(1.0, abs=1e-6)
    assert g[1] == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("route", ROUTES)
def test_grad_of_log_kernel_gradient(route):
    """The distinguished member has X P_1 f(0) = -1 and Y P_1 f(0) = 0."""
    g = grad_origin(FAMILY[-1], CFG1, route)
    assert g[0] == pytest.approx(-1.0, abs=1e-4)
    assert g[1] == pytest.approx(0.0, abs=1e-4)


@pytest.mark.parametrize("route", ROUTES)
def test_grad_of_radial_even_function_vanishes(route):
    f = coord_field(
        "radial-even",
        lambda x, y, z: np.exp(-(x * x + y * y) / 4.0) * np.cos(z),
        lambda x, y, z: -0.5 * x * np.exp(-(x * x + y * y) / 4.0) * np.cos(z),
        lambda x, y, z: -0.5 * y * np.exp(-(x * x + y * y) / 4.0) * np.cos(z),
        lambda x, y, z: -np.exp(-(x * x + y * y) / 4.0) * np.sin(z),
    )
    g = grad_origin(f, CFG1, route)
    assert abs(g[0]) <= 1e-9
    assert abs(g[1]) <= 1e-9


def test_grad_route_name_is_checked():
    """ibp is the one route: the differences live in the oracles."""
    with pytest.raises(ValueError):
        grad_Pt_origin(ONE, CFG1, route="fd")
    with pytest.raises(ValueError):
        grad_Pt_origin(ONE, CFG1, route="adjoint")
    with pytest.raises(ValueError):
        grad_Pt_origin(ONE, CFG1, route="hat-transfer")
    with pytest.raises(TypeError):
        grad_Pt_origin(ONE, CFG1)


X2 = poly_field({(2, 0, 0): 1.0}, name="x^2")


@pytest.mark.parametrize("call", [
    lambda: apply_Pt_many(X2, CFG1, [[0.0, 0.0, 0.0], [math.inf, 0.0, 0.0]]),
    lambda: apply_Pt_many(X2, CFG1, [[0.0, math.nan, -math.inf]]),
    lambda: variance(X2, CFG1, GroupElement(math.nan, 0.0, 0.0)),
    lambda: grad_Pt_at(X2, heat_measure(CFG1), math.nan, 0.0, 0.0),
], ids=["apply_Pt_many-inf", "apply_Pt_many-nan", "variance-nan", "grad_Pt_at-nan"])
def test_non_finite_points_rejected(call):
    with pytest.raises(ValueError, match="finite"):
        call()


def test_route_agreement_across_family():
    """All three routes agree pairwise within 1e-4 on the whole family."""
    worst = 0.0
    worst_tag = ""
    for f in FAMILY:
        grads = [grad_origin(f, CFG1, r) for r in ROUTES]
        for i in range(len(grads)):
            for j in range(i + 1, len(grads)):
                d = max(
                    abs(grads[i][0] - grads[j][0]), abs(grads[i][1] - grads[j][1])
                )
                if d > worst:
                    worst = d
                    worst_tag = f"{f.name}: {ROUTES[i]} vs {ROUTES[j]}"
    assert worst <= 1e-4, worst_tag


# ---------------------------------------------------------------- entropy


def test_entropy_constant_is_zero():
    f = poly_field({(0, 0, 0): 3.0})
    assert abs(entropy_phi(f, CFG1, ORIGIN, lambda u: u * np.log(u))) <= 1e-12


def test_entropy_square_reduces_to_variance():
    f = poly_field({(1, 0, 0): 1.0, (0, 0, 1): 0.5})
    e = entropy_phi(f, CFG1, ORIGIN, lambda u: u * u)
    assert e == pytest.approx(variance(f, CFG1), abs=1e-12)


def test_entropy_ulogu_second_order_taylor():
    # Ent(1 + eps x) = (eps^2/2) Var(x) + O(eps^4) = eps^2 at t = 1
    eps = 0.05
    f = poly_field({(0, 0, 0): 1.0, (1, 0, 0): eps})
    e = entropy_phi(f, CFG1, ORIGIN, lambda u: u * np.log(u))
    assert e == pytest.approx(eps * eps, rel=1e-2)


def test_entropy_jensen_nonnegative():
    combos = [
        (FAMILY[11], np.exp),
        (poly_field({(1, 0, 0): 1.0, (0, 0, 1): 1.0}), lambda u: u ** 4),
        (FAMILY[17], lambda u: np.cosh(u)),
    ]
    for f, phi in combos:
        assert entropy_phi(f, CFG1_COARSE, ORIGIN, phi) >= -1e-12


def test_entropy_domain_violation():
    # x takes negative values on the ball, where u log u is undefined
    with pytest.raises(ValueError, match="domain of phi"):
        entropy_phi(poly_field({(1, 0, 0): 1.0}), CFG1, ORIGIN, lambda u: u * np.log(u))


# --------------------------------------------- interpolation of variance


def test_interpolation_variance_constant():
    assert abs(interpolation_variance(poly_field({(0, 0, 0): 2.0}), CFG1_NESTED)) <= 1e-12


def test_interpolation_variance_linear():
    v = interpolation_variance(poly_field({(1, 0, 0): 1.0}, "x"), CFG1_NESTED)
    assert v == pytest.approx(2.0, rel=1e-5)


# t E[(Xhat log p_t)^2] on the nested, coarse and fine tiers, whose exact
# value is 1 by the Fisher identity E[grad-hat log p_t grad-hat log p_t^T] = I/t
FISHER_READINGS = {1e-4: 0.999999880015, 1e-6: 0.999999998573, 1e-10: 0.999999998777}


@pytest.mark.parametrize("abs_tol", list(FISHER_READINGS))
@pytest.mark.parametrize("t", [1.0, 0.5])
def test_hat_log_grad_fisher_identity(abs_tol, t):
    """t E[(Xhat l)^2] = t E[(Yhat l)^2] = 1 within 1.2 times each tier's
    measured error, and the cross term is exactly 0: the mirror
    (x, -y, -z) keeps Xhat l and negates Yhat l on the second half of
    the nodes."""
    m = heat_measure(HeatOpConfig(t=t, quad=QuadratureSpec(abs_tol=abs_tol)))
    gx, gy = m.hat_log_grad()
    bound = 1.2 * (1.0 - FISHER_READINGS[abs_tol])
    assert abs(t * float(m.mu @ (gx * gx)) - 1.0) <= bound
    assert abs(t * float(m.mu @ (gy * gy)) - 1.0) <= bound
    half = m.mu.size // 2
    cross = gx * gy
    assert float(m.mu[:half] @ cross[:half]) + float(m.mu[half:] @ cross[half:]) == 0.0


def _nested_pair(k: int = 5):
    """(outer, inner) measures of interpolation_variance's k-th s-node at t = 1."""
    base = heat_measure(CFG1_NESTED)
    s = gauss_legendre(0.0, 1.0, 16)[0][k]
    return base.at(s), base.at(1.0 - s)


@pytest.mark.parametrize("name", ["x", "1/(1+r^2)", "yz+x"])
def test_grad_inner_at_independent_of_block_size(monkeypatch, name):
    """grad_Pt_at of the inner measure at the outer nodes: row blocks of
    1, 7, 16 and all outer nodes give the same bits."""
    f = next(g for g in FAMILY if g.name == name)
    outer, inner = _nested_pair()
    results = []
    for rows in (1, 7, 16, outer.x.size):
        monkeypatch.setattr(semigroup, "_BLOCK_BYTES", 8 * inner.x.size * rows)
        results.append(grad_Pt_at(f, inner, outer.x, outer.y, outer.z))
    for gx, gy in results[1:]:
        assert gx.tobytes() == results[0][0].tobytes()
        assert gy.tobytes() == results[0][1].tobytes()


def test_gradient_free_field_raises():
    """P_t's gradient takes no differences: a field without an analytic
    gradient raises ValueError naming it in grad_Pt_at and
    interpolation_variance, and so does building the rotated and mirrored
    copies of the orbit sum from it.  xz + x has rotation order 1 and no
    mirror parity, so its analytic basis holds all four copies."""
    f = poly_field({(1, 0, 1): 1.0, (1, 0, 0): 1.0}, "xz+x")
    bare = ScalarField(eval=f.eval, name="bare xz+x")
    outer, inner = _nested_pair()
    with pytest.raises(ValueError, match="bare xz"):
        grad_Pt_at(bare, inner, outer.x, outer.y, outer.z)
    with pytest.raises(ValueError, match="bare xz"):
        semigroup._orbit_basis(bare, outer.counts)
    with pytest.raises(ValueError, match="bare xz"):
        interpolation_variance(bare, CFG1_NESTED)
    with pytest.raises(ValueError, match="bare xz"):
        interpolation_variance(_undeclared(bare), CFG1_NESTED)
    n, fields, weight = semigroup._orbit_basis(f, outer.counts)
    assert (n, len(fields), weight) == (16 * 12, 4, 0.5 * 8)
    assert all(g.analytic_gradient is not None for g in fields)


# --------------------------------------------- orbit sum over the outer nodes


def _undeclared(f):
    """f with its rotation order and mirror parity dropped: the outer sum
    then visits all nodes."""
    return ScalarField(eval=lambda *a: f.eval(*a), analytic_gradient=f.analytic_gradient,
                       fd_step=f.fd_step, name=f.name)


def _traced(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize(
    "coeffs, order",
    [
        ({(1, 0, 1): 1.0}, 1),
        ({(1, 0, 0): 1.0}, 1),
        ({(0, 1, 1): 1.0, (1, 0, 0): -2.0}, 1),
        ({(0, 0, 2): 1.0}, 0),
        ({(0, 0, 0): 2.0}, 0),
        ({(2, 0, 0): 1.0}, None),
        ({(1, 0, 0): 1.0, (0, 0, 1): 1.0}, None),
        ({(2, 0, 0): 1.0, (0, 2, 0): 1.0}, None),
    ],
)
def test_poly_field_rotation_order(coeffs, order):
    assert poly_field(coeffs).rotation_order == order


@pytest.mark.parametrize(
    "coeffs, parity",
    [
        ({(1, 0, 1): 1.0}, -1),
        ({(0, 0, 1): 1.0}, -1),
        ({(1, 0, 0): 1.0}, 1),
        ({(0, 0, 2): 1.0}, 1),
        ({(0, 1, 1): 1.0, (1, 0, 0): 1.0}, 1),
        ({(0, 0, 0): 2.0}, 1),
        ({(1, 0, 1): 1.0, (1, 0, 0): 1.0}, None),
        ({(1, 0, 0): 1.0, (0, 0, 1): 1.0}, None),
    ],
    ids=["xz", "z", "x", "z^2", "yz+x", "1", "xz+x", "x+z"],
)
def test_poly_field_mirror_parity(coeffs, parity):
    assert poly_field(coeffs).mirror_parity == parity


@pytest.mark.parametrize("f, parity", [pytest.param(f, e, id=f.name) for f, e in (
    (poly_field({(1, 0, 1): 1.0}, "xz"), -1), (FAMILY[-1], 1), (xhat_log_h_exact(), 1))])
def test_rotation_order_survives_a_wrapped_rebuild(f, parity):
    """A field rebuilt from functools.wraps wrappers of its functions keeps
    its order and parity; one rebuilt around a plain lambda drops both."""
    rebuilt = ScalarField(eval=_traced(f.eval), analytic_gradient=_traced(f.analytic_gradient),
                          fd_step=f.fd_step, name=f.name)
    assert f.rotation_order == rebuilt.rotation_order == 1
    assert f.mirror_parity == rebuilt.mirror_parity == parity
    assert _undeclared(f).rotation_order is None
    assert _undeclared(f).mirror_parity is None


def test_declared_rotation_order_holds():
    """f o R_a = cos(a) f + sin(a) (f o R_{pi/2}) for the declared order-1
    fields, and f o R_a = f for an order-0 one, at random points."""
    rng = np.random.default_rng(7)
    x, y, z = rng.uniform(-2.0, 2.0, (3, 50))
    a = 0.9

    def rot(f, c, s):
        return f.eval(c * x - s * y, s * x + c * y, z)

    for f in (poly_field({(1, 0, 1): 1.0, (0, 1, 2): 0.5}), FAMILY[-1]):
        want = math.cos(a) * f.eval(x, y, z) + math.sin(a) * rot(f, 0.0, 1.0)
        np.testing.assert_allclose(rot(f, math.cos(a), math.sin(a)), want, rtol=1e-9, atol=1e-12)
    f = poly_field({(0, 0, 2): 1.0, (0, 0, 1): -3.0})
    np.testing.assert_allclose(rot(f, math.cos(a), math.sin(a)), f.eval(x, y, z), rtol=1e-15)


def test_declared_mirror_parity_holds():
    """f(x, -y, -z) = e f(x, y, z) for the declared parity e, at random points."""
    rng = np.random.default_rng(11)
    x, y, z = rng.uniform(-2.0, 2.0, (3, 50))
    fields = [poly_field({(1, 0, 1): 1.0}), poly_field({(0, 1, 1): 1.0, (1, 0, 0): 1.0}),
              poly_field({(0, 0, 2): 1.0}), xhat_log_h_field()]
    for f, e in zip(fields, (-1, 1, 1, 1)):
        assert f.mirror_parity == e
        np.testing.assert_allclose(f.eval(x, -y, -z), e * f.eval(x, y, z), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("parity", [0, 2])
def test_unknown_mirror_parity_is_rejected(parity):
    def ev(x, y, z):
        return x * z

    ev.rotation_order, ev.mirror_parity = 1, parity
    with pytest.raises(ValueError, match="mirror parity"):
        interpolation_variance(ScalarField(eval=ev), CFG1_NESTED)


def test_unknown_rotation_order_is_rejected():
    def ev(x, y, z):
        return x * x - y * y

    ev.rotation_order = 2
    with pytest.raises(ValueError, match="rotation order"):
        interpolation_variance(ScalarField(eval=ev), CFG1_NESTED)


@pytest.mark.parametrize("t", [0.5, 1.0])
@pytest.mark.parametrize(
    "coeffs",
    [{(0, 0, 0): 2.0}, {(1, 0, 0): 1.0}, {(1, 0, 1): 1.0}, {(0, 0, 1): 1.0}, {(0, 0, 2): 1.0},
     {(0, 1, 1): 1.0, (1, 0, 0): 1.0}, {(1, 0, 1): 1.0, (1, 0, 0): 1.0}],
    ids=["1", "x", "xz", "z", "z^2", "yz+x", "xz+x"],
)
def test_orbit_sum_matches_all_nodes(coeffs, t):
    """The orbit route of a declared field against the sum over all 3,072
    nested-tier nodes of the same field with its declarations dropped.
    xz + x declares no mirror parity, so it covers the four-field basis."""
    f = poly_field(coeffs)
    cfg = HeatOpConfig(t=t, quad=NESTED)
    orbit = interpolation_variance(f, cfg)
    assert orbit == pytest.approx(interpolation_variance(_undeclared(f), cfg), rel=1e-12, abs=0.0)


def test_orbit_sum_matches_all_nodes_extremal_member():
    """f* on one s-node: the 768 orbit rows against all 3,072 outer nodes."""
    fstar = FAMILY[-1]
    outer, inner = _nested_pair()
    assert semigroup._orbit_basis(fstar, outer.counts)[0] == 16 * 12
    orbit = semigroup._gamma_sum(fstar, outer, inner)
    assert orbit == pytest.approx(semigroup._gamma_sum(_undeclared(fstar), outer, inner),
                                  rel=1e-12)


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_interpolation_variance_xz_closed_form(t):
    """Var_{P_t}(xz) = 10 t^3 / 3 through the nested quadrature."""
    xz = poly_field({(1, 0, 1): 1.0}, "xz")
    iv = interpolation_variance(xz, HeatOpConfig(t=t, quad=NESTED))
    assert iv == pytest.approx(10.0 * t**3 / 3.0, rel=1e-5)


def test_interpolation_variance_xz_pinned():
    """The nested-quadrature value of Var_{P_1}(xz), 1.4e-7 off 10/3."""
    xz = poly_field({(1, 0, 1): 1.0}, "xz")
    assert interpolation_variance(xz, CFG1_NESTED) == pytest.approx(3.333332861854166, rel=1e-12)


def test_interpolation_variance_extremal_member():
    """Equality case: the interpolated variance of the log-kernel gradient
    is 1 at t = 1, and matches the direct variance to 1e-3 relative.

    This is the family's 20th member; the other 19 run in
    test_interpolation_matches_variance_family.
    """
    fstar = FAMILY[-1]
    iv = interpolation_variance(fstar, CFG1_NESTED)
    assert iv == pytest.approx(0.9999946252008884, rel=1e-12)
    assert iv == pytest.approx(1.0, abs=1e-4)
    assert iv == pytest.approx(variance(fstar, CFG1_NESTED), rel=1e-3)


def test_interpolation_matches_variance_family():
    worst = 0.0
    worst_name = ""
    for f in FAMILY[:-1]:
        iv = interpolation_variance(f, CFG1_NESTED)
        var = variance(f, CFG1_NESTED)
        rel = abs(iv - var) / abs(var)
        if rel > worst:
            worst = rel
            worst_name = f.name
    assert worst <= 1e-3, worst_name


# ------------------------------------------------------------- invariants


def test_semigroup_property():
    f = coord_field(
        "cos(x)exp(-z^2/8)",
        lambda x, y, z: np.cos(x) * np.exp(-z * z / 8.0),
        lambda x, y, z: -np.sin(x) * np.exp(-z * z / 8.0),
        _zero,
        lambda x, y, z: -0.25 * z * np.cos(x) * np.exp(-z * z / 8.0),
    )
    cfg_s = HeatOpConfig(t=0.5, quad=COARSE)

    def psf(x, y, z):
        x, y, z = np.broadcast_arrays(
            np.asarray(x, float), np.asarray(y, float), np.asarray(z, float)
        )
        pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        return apply_Pt_many(f, cfg_s, pts).reshape(x.shape)

    lhs = apply_Pt(f, HeatOpConfig(t=1.2, quad=COARSE))
    rhs = apply_Pt(ScalarField(eval=psf, name="P_s f"), HeatOpConfig(t=0.7, quad=COARSE))
    assert rhs == pytest.approx(lhs, rel=1e-4)


def test_dilation_identity_at_origin():
    # node sets and weights scale exactly under the dilation, so the two
    # discrete sums agree to roundoff, far inside the 1e-6 contract
    t = 2.3
    f = ScalarField(
        eval=lambda x, y, z: np.cos(0.5 * x + 0.4 * y) * np.exp(-z * z / 9.0)
        + 0.1 * x * z,
        name="mixed",
    )
    st_ = math.sqrt(t)
    fdil = ScalarField(eval=lambda x, y, z: f.eval(st_ * x, st_ * y, t * z))
    a = apply_Pt(f, HeatOpConfig(t=t))
    b = apply_Pt(fdil, HeatOpConfig(t=1.0))
    assert b == pytest.approx(a, rel=1e-6)
