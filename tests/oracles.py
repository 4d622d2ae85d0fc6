"""Test-only routes through the heisenkern internals.

Each helper here is a second way to a quantity the library computes, or
a convenience only the tests need: per-point kernel derivatives and the
exact (quadrature per point) fields log h and f* = Xhat log h, an
adaptive Gauss-panel integrator with the direct shifted integral
p1(r, z + 2i) and an adaptive p1*(r, z + 2i) on it, P_t at many points
and at one, its gradient at the origin by differences and a phi-entropy,
the group law multiply and inverse on GroupElement, the one
centred-difference calculus (the frame X, Y, Z, the fields Xhat, Yhat,
Theta and D, Gamma, Gamma_2, the sub-Laplacian by difference stencils
and frame-gradient validation), the chart function mu, the
geodesic chart map and its inverse, one point's CC distance with its
half-angle and branch, an atom's support bound from its centre alone,
the C_lower bound with its witness, single-path Monte Carlo draws, the
stepwise midpoint-rule sampler with the exact E[cos(mu z)] of its
n-step law, the lambda-slice f = cos(lam z) e^{-a r^2} with its exact
P_t f, gradient and variance, exact rational polynomials with their
finite heat flow e^{tL} f, the mpmath ray limit L(t) and ray ratio behind the
stored values in test_harness.py, the mpmath p1(r, z + 2i) and the
mpmath kernel with its five derivatives behind those in test_kernel.py,
the 50-digit phi-entropies and variances over a member context's float
terms behind the phi-suite referee in test_harness.py, the 50-digit
Gaussian quantile and chi-squared survival function behind the stored
values in test_harness.py and test_mc.py, and the digests
of an array built in fresh processes at one and two BLAS threads.
None of them is called by the library itself; they are built on its
private pieces, so a change there that moves a value shows up in the
tests that use them.
"""

from __future__ import annotations

import heapq
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from heisenkern import family as Fam
from heisenkern import geometry as Geo
from heisenkern import group as G
from heisenkern import harness as H
from heisenkern import kernel as K
from heisenkern import mc as MC
from heisenkern import numerics as N
from heisenkern import semigroup as S
from heisenkern.group import GroupElement, ScalarField

# ---------------------------------------------------------------------------
# kernel: per-point views of radial_row, and the exact fields


def _at_point(r: float, z: float):
    """(p, p_r, p_z, p_rr, p_rz/r, p_zz) at one point: radial_row on [r]."""
    return tuple(float(v[0]) for v in K.radial_row(np.array([r], dtype=float), float(z)))


def p(t: float, r: float, z: float) -> float:
    """Heat kernel at time t via the dilation scaling t^{-2} p1(r/sqrt t, z/t)."""
    if not (t > 0.0):
        raise ValueError("time must be > 0")
    rt = math.sqrt(t)
    return K.p1(r / rt, z / t) / (t * t)


def p1_partials(r: float, z: float):
    """(d/dr p1, d/dz p1) by differentiation under the integral."""
    return _at_point(r, z)[1:3]


def p1_second_partials(r: float, z: float):
    """(d2/dr2, d2/drdz / r, d2/dz2) of p1.

    The mixed derivative is returned with its factor r stripped so the
    z-axis limit stays available; multiply by r to recover d2/drdz.
    """
    return _at_point(r, z)[3:]


@dataclass(frozen=True)
class RadialLogDerivatives:
    """First and second partials of log p1 in radial form.

    a = d_r log p1 and b = d_z log p1; alpha = a/r extends evenly across
    the axis.  alpha_r, alpha_z, b_r, b_z are the partials needed for
    gradients of fields built from x alpha + (y/2) b.
    """

    a: float
    b: float
    alpha: float
    alpha_r: float
    alpha_z: float
    b_r: float
    b_z: float


def log_derivatives(r: float, z: float) -> RadialLogDerivatives:
    """Exact log-derivative bundle at one point: kernel._log_bundle of
    radial_row on [r].

    Like kernel.p1, the panel rule is fitted to the point alone, and
    radial_row range-checks (r, z).
    """
    rs = np.array([r], dtype=float)
    d = K._log_bundle(rs, K.radial_row(rs, float(z)))
    return RadialLogDerivatives(**{key: float(v[0]) for key, v in d.items()})


def _pointwise(fn, n_out: int, x, y, z):
    """fn(x, y, z) -> ``n_out`` floats, applied point by point.

    Returns one array per component over the broadcast shape, or floats
    when every input is a scalar.
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (x, y, z)))
    shape = arrays[0].shape
    out = np.empty((n_out, arrays[0].size))
    for i, point in enumerate(zip(*(a.ravel() for a in arrays))):
        out[:, i] = fn(*point)
    if not shape:
        return tuple(float(v[0]) for v in out)
    return tuple(v.reshape(shape) for v in out)


def log_h_field() -> ScalarField:
    """log h as a ScalarField with the exact frame gradient.

    X log h = x alpha - (y/2) b, Y log h = y alpha + (x/2) b,
    Z log h = b, through the chain rule in (r, z).
    """

    def value(x, y, z):
        return (math.log(K.p1(math.hypot(x, y), z)),)

    def gradient(x, y, z):
        d = log_derivatives(math.hypot(x, y), z)
        return x * d.alpha - 0.5 * y * d.b, y * d.alpha + 0.5 * x * d.b, d.b

    def ev(x, y, z):
        return _pointwise(value, 1, x, y, z)[0]

    def grad(x, y, z):
        return _pointwise(gradient, 3, x, y, z)

    return ScalarField(eval=ev, analytic_gradient=grad, name="log_h")


def xhat_log_h_exact() -> ScalarField:
    """f* = Xhat(log h) from full quadrature per point.

    The same pieces as kernel.xhat_log_h_field, with the bundle from
    :func:`log_derivatives` instead of the spline tables; rotation
    order 1 and mirror parity +1, like the spline field.
    """

    def bundle(x, y, z):
        d = log_derivatives(math.hypot(x, y), z)
        return d.alpha, d.b, d.alpha_r, d.alpha_z, d.b_r, d.b_z

    def ev(x, y, z):
        return _pointwise(lambda *q: (K._fstar_pieces(*q, bundle(*q))[0],), 1, x, y, z)[0]

    def grad(x, y, z):
        return _pointwise(lambda *q: K._fstar_pieces(*q, bundle(*q))[1:], 3, x, y, z)

    ev.rotation_order, ev.mirror_parity = 1, 1
    return ScalarField(eval=ev, analytic_gradient=grad, name="xhat_log_h")


# ---------------------------------------------------------------------------
# adaptive quadrature: the independent route to the library's fixed rules


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of subdivisions.

    Carries the best value and its error estimate so callers can decide
    whether the partial result is usable.
    """

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class AdaptiveSpec:
    """Tolerances and seed panels of the adaptive integrator.

    ``oscillation_wavenumber`` is the |k| of a cos(kx)/sin(kx) factor in
    the integrand.  Seed panels are kept no wider than a quarter period
    pi/(2k), which keeps plain Gauss panels accurate on oscillatory
    integrands without any specialised rule.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 4000
    oscillation_wavenumber: float = 0.0

    def max_panel_width(self) -> float:
        if self.oscillation_wavenumber > 0.0:
            return math.pi / (2.0 * self.oscillation_wavenumber)
        return math.inf


# the converged reference for the kernel's lambda-integrals
TIGHT = AdaptiveSpec(abs_tol=1e-16, rel_tol=1e-14)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _eval_integrand(f, x):
    try:
        y = f(x)
    except (TypeError, ValueError):
        y = None
    if y is None or np.ndim(y) == 0:
        # scalar-only integrand: fall back to a loop
        y = np.array([float(f(v)) for v in x])
    return np.asarray(y, dtype=float)


def _gauss_panel(f, a, b):
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_NODES
    return half * float(_GL_WEIGHTS @ _eval_integrand(f, x))


def _refined(f, a, b, coarse):
    """Panel record (err, a, mid, b, left, right) from one bisection."""
    mid = 0.5 * (a + b)
    left = _gauss_panel(f, a, mid)
    right = _gauss_panel(f, mid, b)
    err = abs((left + right) - coarse)
    return err, a, mid, b, left, right


def integrate_1d(f, a: float, b: float, spec: AdaptiveSpec | None = None):
    """Integrate ``f`` over [a, b] adaptively.

    Returns ``(value, error_estimate)``.  Panels are 12-point Gauss rules;
    the per-panel error estimate is the discrepancy against the panel's
    bisection, and the worst panel is refined until the summed estimate
    meets ``max(abs_tol, rel_tol * |value|)`` or ``max_subdivisions``
    panels exist (then :class:`QuadratureError` carries the best value).
    """
    if spec is None:
        spec = AdaptiveSpec()
    if not (b > a):
        raise ValueError("integration interval must satisfy a < b")

    width_cap = spec.max_panel_width()
    if math.isfinite(width_cap):
        n0 = int(math.ceil((b - a) / width_cap))
        n0 = max(1, min(n0, spec.max_subdivisions))
    else:
        n0 = 1
    edges = np.linspace(a, b, n0 + 1)

    heap = []
    order = 0
    n_panels = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        coarse = _gauss_panel(f, lo, hi)
        err, pa, mid, pb, left, right = _refined(f, lo, hi, coarse)
        heapq.heappush(heap, (-err, order, pa, mid, pb, left, right))
        order += 1
        n_panels += 1

    def totals():
        value = 0.0
        err = 0.0
        scale = 0.0
        for negerr, _, _, _, _, left, right in heap:
            value += left + right
            err += -negerr
            scale += abs(left) + abs(right)
        return value, err, scale

    while True:
        value, err_total, scale = totals()
        tol = max(spec.abs_tol, spec.rel_tol * abs(value), 64.0 * np.finfo(float).eps * scale)
        if err_total <= tol:
            return value, err_total
        if n_panels >= spec.max_subdivisions:
            raise QuadratureError(
                f"quadrature did not converge within {spec.max_subdivisions} panels "
                f"(estimate {err_total:.3e}, tolerance {tol:.3e})",
                value,
                err_total,
            )
        _, _, pa, mid, pb, left, right = heapq.heappop(heap)
        for lo, hi, coarse in ((pa, mid, left), (mid, pb, right)):
            err, qa, qmid, qb, ql, qr = _refined(f, lo, hi, coarse)
            heapq.heappush(heap, (-err, order, qa, qmid, qb, ql, qr))
            order += 1
        n_panels += 1


def adaptive_decaying(f, decay_rate: float, spec: AdaptiveSpec | None = None) -> float:
    """Integrate ``f`` over [0, inf) assuming |f| <= M exp(-decay_rate x).

    The envelope constant M is estimated from probes, the domain is cut at
    Lambda with tail bound M exp(-decay_rate Lambda)/decay_rate below
    abs_tol/10, and the finite piece goes through :func:`integrate_1d`
    with the spec's oscillation panel cap.
    """
    if spec is None:
        spec = AdaptiveSpec()
    if not (decay_rate > 0.0):
        raise ValueError("decay_rate must be > 0")

    probes = np.linspace(0.0, 30.0 / decay_rate, 241)[1:]
    vals = np.abs(_eval_integrand(f, probes)) * np.exp(decay_rate * probes)
    m_env = float(np.max(vals))
    if not math.isfinite(m_env):
        raise ValueError("integrand not finite on probe grid")
    m_env = max(m_env, 1e-300)
    lam = math.log(10.0 * m_env / (spec.abs_tol * decay_rate)) / decay_rate
    lam = max(lam, 5.0 / decay_rate)
    value, _ = integrate_1d(f, 0.0, lam, spec)
    return value


# ---------------------------------------------------------------------------
# kernel: the complex shifts by adaptive quadrature


def _osc_spec(spec: AdaptiveSpec | None, z: float) -> AdaptiveSpec:
    return replace(spec or AdaptiveSpec(), oscillation_wavenumber=abs(z))


def _g_factor(lam, r):
    """G(lam, r) = (lam/sinh lam) e^{-(r^2/4) lam coth lam} at the adaptive
    rule's nodes, all inside (0, inf), where neither quotient is 0/0."""
    return lam / np.sinh(lam) * np.exp(-0.25 * r * r * lam / np.tanh(lam))


def p1_complex_shift(r: float, z: float, spec: AdaptiveSpec | None = None) -> K.ComplexKernelValue:
    """p1(r, z + 2i) by direct quadrature of the shifted integrand.

    Folding the full-line integral to [0, inf) gives cosh/sinh factors;
    the net decay 1 + r^2/4 - 2 forces r > 2.
    """
    K._check_batch(r, z, "p1_complex_shift")
    if r <= 2.0:
        raise ValueError(
            "shifted integral diverges for r <= 2; use p1_star_shifted"
        )
    spec = _osc_spec(spec, z)
    decay = 0.25 * r * r - 1.0

    def f_re(lam):
        return np.cosh(2.0 * lam) * np.cos(lam * z) * _g_factor(lam, r)

    def f_im(lam):
        return -np.sinh(2.0 * lam) * np.sin(lam * z) * _g_factor(lam, r)

    re = adaptive_decaying(f_re, decay, spec) / K.FOUR_PI_SQ
    im = adaptive_decaying(f_im, decay, spec) / K.FOUR_PI_SQ
    return K.ComplexKernelValue(re, im)


def _pole_bracket(lam, r):
    """G(lam, r) - 2 lam e^{-lam(1+r^2/4)} without subtractive cancellation.

    With u = e^{-2 lam} and g = -(r^2/2) lam u/(1-u):
    bracket = 2 lam e^{-lam(1+r^2/4)} (expm1(g) + u)/(1-u).
    """
    lam = np.asarray(lam, dtype=float)
    u = np.exp(-2.0 * lam)
    one_minus_u = -np.expm1(-2.0 * lam)
    safe = np.where(one_minus_u > 0.0, one_minus_u, 1.0)
    g = -0.5 * r * r * lam * u / safe
    out = 2.0 * lam * np.exp(-lam * (1.0 + 0.25 * r * r)) * (np.expm1(g) + u) / safe
    # removable point: bracket -> e^{-r^2/4} as lam -> 0
    return np.where(one_minus_u > 0.0, out, math.exp(-0.25 * r * r))


def p1_star_adaptive(r: float, z: float, spec: AdaptiveSpec = TIGHT) -> complex:
    """p1*(r, z + 2i) on the adaptive route, its integrand cosh(2 lam) cos(lam z)
    and sinh(2 lam) sin(lam z) times the bracket: the factors that
    kernel._star_integrand folds into real exponentials, taken apart."""
    spec = _osc_spec(spec, z)
    decay = 1.0 + 0.25 * r * r

    def f_re(lam):
        return np.cosh(2.0 * lam) * np.cos(lam * z) * _pole_bracket(lam, r)

    def f_im(lam):
        return -np.sinh(2.0 * lam) * np.sin(lam * z) * _pole_bracket(lam, r)

    value = complex(adaptive_decaying(f_re, decay, spec), adaptive_decaying(f_im, decay, spec))
    return value / K.FOUR_PI_SQ + 1.0 / (K.FOUR_PI_SQ * complex(3.0 + 0.25 * r * r, -z) ** 2)


def p1_shift_mp(r: float, z: float, dps: int = 30) -> complex:
    """The literal p1(r, z + 2i), r > 2, in mpmath:
    (1/4 pi^2) int_0^inf cosh(lam (2 - iz)) (lam/sinh lam) e^{-(r^2/4) lam coth lam} dlam,
    whose integrand decays as e^{-(r^2/4 - 1) lam}.  This generates
    P1_SHIFT_MP in test_kernel.py (about 0.05 s a point at 30 digits);
    the tests read the stored values and do not import mpmath.
    """
    import mpmath as mp

    with mp.workdps(dps):
        r, z = mp.mpf(r), mp.mpf(z)
        shift = mp.mpc(2, -z)

        def g(lam):
            return mp.cosh(lam * shift) * lam / mp.sinh(lam) * mp.exp(-(r * r / 4) * lam * mp.coth(lam))

        return complex(mp.quad(g, [0, 1, 2, 4, 8, 16, 32, 64, mp.inf]) / (4 * mp.pi**2))


def removed_pole_shifted(r: float, z: float) -> complex:
    """The pole term separating the two routes: 1/(4 pi^2 (r^2/4 - 1 + iz)^2)."""
    return 1.0 / (K.FOUR_PI_SQ * complex(0.25 * r * r - 1.0, z) ** 2)


# ---------------------------------------------------------------------------
# semigroup


def apply_Pt_many(f: ScalarField, cfg: S.HeatOpConfig, xs) -> np.ndarray:
    """P_t f at many points (rows of ``xs``) against one cached measure.

    Each point's row is summed by np.add.reduce, whose order is fixed by
    the row alone, so a value does not depend on its batch.
    """
    measure = S.heat_measure(cfg)
    xs = np.asarray(xs, dtype=float).reshape(-1, 3)
    out = np.empty(xs.shape[0])
    for rows, qx, qy, qz in S._translated_nodes(measure, *xs.T):
        vals = np.broadcast_to(np.asarray(f.eval(qx, qy, qz), dtype=float), qx.shape)
        out[rows] = np.add.reduce(measure.mu * vals, axis=-1)
    return out


def apply_Pt(f: ScalarField, cfg: S.HeatOpConfig, x: GroupElement = S._ORIGIN) -> float:
    """P_t f(x) = sum mu_k f(x . y_k): apply_Pt_many at one point."""
    return float(apply_Pt_many(f, cfg, [x.x, x.y, x.z])[0])


def grad_Pt_origin_fd(f: ScalarField, cfg: S.HeatOpConfig, h: float = G.FD_STEP_FIRST):
    """(X P_t f, Y P_t f) at 0 by centred differences of apply_Pt_many along
    the X and Y integral curves through 0."""
    v = apply_Pt_many(f, cfg, [[h, 0.0, 0.0], [-h, 0.0, 0.0], [0.0, h, 0.0], [0.0, -h, 0.0]])
    return (v[0] - v[1]) / (2.0 * h), (v[2] - v[3]) / (2.0 * h)


def _phi_values(phi, arr: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(phi(arr), dtype=float)
        if out.shape == arr.shape:
            return out
    except TypeError:
        pass
    return np.asarray([phi(float(v)) for v in arr], dtype=float)


def entropy_phi(f: ScalarField, cfg: S.HeatOpConfig, x: GroupElement, phi) -> float:
    """phi-entropy P_t(phi(f))(x) - phi(P_t f(x)), nonnegative by Jensen.

    ``phi`` must be convex on the range of f; leaving its domain
    (non-finite phi values on the ball) raises ValueError.  Weights are
    renormalized as in semigroup.variance so Jensen applies exactly.
    """
    measure = S.heat_measure(cfg)
    vals = S._values_at(f, measure, x)
    w = measure.mu / np.sum(measure.mu)
    mean = float(np.dot(w, vals))
    with np.errstate(all="ignore"):
        try:
            phiv = _phi_values(phi, vals)
            phim = float(phi(mean))
        except ValueError as exc:
            raise ValueError("f leaves the domain of phi on the integration ball") from exc
    if not (np.all(np.isfinite(phiv)) and math.isfinite(phim)):
        raise ValueError("f leaves the domain of phi on the integration ball")
    return float(np.dot(w, phiv)) - phim


def _slice_factor(lam: float, a: float, t: float):
    """(A, b) with P_t[cos(lam z) e^{-a r^2}] = cos(lam z) A e^{-b r^2}.

    With c = (lam/4) coth(lam t), A = lam / (4 sinh(lam t) (a + c)) and
    b = a - (4a^2 - lam^2/4) / (4(a + c)): the kernel's z-Fourier
    transform at lam is a Gaussian in r, so one Gaussian integral gives
    P_t.  At lam = 0 the planar heat flow gives A = 1/(1 + 4at) and b = aA.
    """
    if lam == 0.0:
        return 1.0 / (1.0 + 4.0 * a * t), a / (1.0 + 4.0 * a * t)
    c = 0.25 * lam / math.tanh(lam * t)
    return (lam / (4.0 * math.sinh(lam * t) * (a + c)),
            a - (4.0 * a * a - 0.25 * lam * lam) / (4.0 * (a + c)))


@dataclass(frozen=True)
class LambdaSlice:
    """f = cos(lam z) exp(-a r^2), whose P_t f, frame gradient of P_t f
    and variance P_t f^2 - (P_t f)^2 are closed forms (``_slice_factor``;
    f^2 = (e^{-2ar^2} + cos(2 lam z) e^{-2ar^2}) / 2 is two slices)."""

    lam: float
    a: float

    def field(self) -> ScalarField:
        lam, a = self.lam, self.a

        def ev(x, y, z):
            return np.cos(lam * np.asarray(z)) * np.exp(-a * (np.square(x) + np.square(y)))

        def grad(x, y, z):
            x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
            g = np.exp(-a * (x * x + y * y))
            f, fz = np.cos(lam * z) * g, -lam * np.sin(lam * z) * g
            return -2.0 * a * x * f - 0.5 * y * fz, -2.0 * a * y * f + 0.5 * x * fz, fz

        return ScalarField(eval=ev, analytic_gradient=grad, name=f"slice[{lam},{a}]")

    def Pt(self, t: float, x, y, z):
        A, b = _slice_factor(self.lam, self.a, t)
        return np.cos(self.lam * np.asarray(z)) * A * np.exp(-b * (np.square(x) + np.square(y)))

    def grad_Pt(self, t: float, x, y, z):
        """(X P_t f, Y P_t f): X = d_x - (y/2) d_z, Y = d_y + (x/2) d_z."""
        x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
        A, b = _slice_factor(self.lam, self.a, t)
        g = A * np.exp(-b * (x * x + y * y))
        u, uz = np.cos(self.lam * z) * g, -self.lam * np.sin(self.lam * z) * g
        return -2.0 * b * x * u - 0.5 * y * uz, -2.0 * b * y * u + 0.5 * x * uz

    def variance(self, t: float, x, y, z):
        sq = 0.5 * (LambdaSlice(0.0, 2.0 * self.a).Pt(t, x, y, z)
                    + LambdaSlice(2.0 * self.lam, 2.0 * self.a).Pt(t, x, y, z))
        return sq - np.square(self.Pt(t, x, y, z))


class ExactPoly:
    """A polynomial in (x, y, z) with exact rational coefficients, held as
    {(i, j, k): Fraction} for the monomials x^i y^j z^k.

    X = d_x - (y/2) d_z and Y = d_y + (x/2) d_z each lower the weighted
    degree i + j + 2k by one, so L = X^2 + Y^2 lowers it by two, L^k f
    vanishes past half the degree of f, and P_t f = e^{tL} f =
    sum_k t^k L^k f / k! is a finite sum, exact at every point.
    """

    def __init__(self, terms):
        self.terms = {m: Fraction(c) for m, c in terms.items() if c != 0}

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return ExactPoly(out)

    def __mul__(self, other):
        if not isinstance(other, ExactPoly):
            return ExactPoly({m: c * Fraction(other) for m, c in self.terms.items()})
        out = {}
        for (i, j, k), c in self.terms.items():
            for (a, b, d), e in other.terms.items():
                m = (i + a, j + b, k + d)
                out[m] = out.get(m, 0) + c * e
        return ExactPoly(out)

    def _d(self, axis):
        out = {}
        for m, c in self.terms.items():
            if m[axis]:
                out[m[:axis] + (m[axis] - 1,) + m[axis + 1:]] = c * m[axis]
        return ExactPoly(out)

    def X(self):
        return self._d(0) + ExactPoly({(0, 1, 0): Fraction(-1, 2)}) * self._d(2)

    def Y(self):
        return self._d(1) + ExactPoly({(1, 0, 0): Fraction(1, 2)}) * self._d(2)

    def L(self):
        return self.X().X() + self.Y().Y()

    def heat(self, t):
        """P_t f = sum_k t^k L^k f / k!, exact for the rational ``t``."""
        t = Fraction(t)
        total, term, scale, k = ExactPoly({}), self, Fraction(1), 0
        while term.terms:
            total = total + term * scale
            k += 1
            term, scale = term.L(), scale * t / k
        return total

    def __call__(self, x, y, z):
        """The exact value at the float point (x, y, z), as a Fraction.

        Each coordinate is an integer over a power of two, so each term is
        an integer over the coefficients' common denominator times a power
        of two, and the sum is taken in integers.
        """
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        point = [float(v).as_integer_ratio() for v in (x, y, z)]
        parts = []
        for exponents, c in self.terms.items():
            n, shift = c.numerator * (den // c.denominator), 0
            for (num, pow2), e in zip(point, exponents):
                n *= num**e
                shift += (pow2.bit_length() - 1) * e
            parts.append((n, shift))
        top = max((shift for _, shift in parts), default=0)
        return Fraction(sum(n << (top - shift) for n, shift in parts), den << top)

    def field(self) -> ScalarField:
        return G.poly_field({m: float(c) for m, c in self.terms.items()},
                            name=f"exact{sorted(self.terms)}")


# ---------------------------------------------------------------------------
# group


@dataclass(frozen=True)
class CylPoint:
    """Cylindrical coordinates (r, theta, z) with r >= 0, theta in [0, 2pi)."""

    r: float
    theta: float
    z: float

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError("r must be >= 0")
        if not (0.0 <= self.theta < 2.0 * math.pi):
            raise ValueError("theta must lie in [0, 2pi)")

    @staticmethod
    def from_group(q: GroupElement) -> "CylPoint":
        r = math.hypot(q.x, q.y)
        theta = math.atan2(q.y, q.x) % (2.0 * math.pi)
        if r == 0.0:
            theta = 0.0
        return CylPoint(r, theta, q.z)

    def to_group(self) -> GroupElement:
        return GroupElement(self.r * math.cos(self.theta), self.r * math.sin(self.theta), self.z)


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """The group law a * b, group._mul_arrays on one pair."""
    x, y, z = G._mul_arrays(a.x, a.y, a.z, b.x, b.y, b.z)
    return GroupElement(float(x), float(y), float(z))


def inverse(a: GroupElement) -> GroupElement:
    # exponential coordinates: inversion is negation
    return GroupElement(-a.x, -a.y, -a.z)


def dilate(a: GroupElement, lam: float) -> GroupElement:
    return GroupElement(lam * a.x, lam * a.y, lam * lam * a.z)


def homogeneous_norm(a: GroupElement) -> float:
    return float(((a.x * a.x + a.y * a.y) ** 2 + a.z * a.z) ** 0.25)


def left_translate(f: ScalarField, a: GroupElement) -> ScalarField:
    """The field q -> f(a * q); the frame gradient transports exactly."""

    def ev(x, y, z):
        px, py, pz = G._mul_arrays(a.x, a.y, a.z, np.asarray(x, float), np.asarray(y, float),
                                   np.asarray(z, float))
        return f.eval(px, py, pz)

    grad = None
    if f.analytic_gradient is not None:

        def grad(x, y, z):
            px, py, pz = G._mul_arrays(a.x, a.y, a.z, np.asarray(x, float),
                                       np.asarray(y, float), np.asarray(z, float))
            return f.analytic_gradient(px, py, pz)

    return ScalarField(eval=ev, analytic_gradient=grad, fd_step=f.fd_step,
                       name=f"translate({f.name})")


# the step of a derived field's own differences, for second derivatives
FD_STEP_SECOND = 1e-4


def _as_scalar(v) -> float:
    """Collapse a scalar-like evaluation result (0-d or length-1) to float."""
    return float(np.squeeze(np.asarray(v, dtype=float)))


# the frame X, Y, Z, the right-invariant Xhat and Yhat, which commute with
# X and Y, the rotation Theta = x d/dy - y d/dx and the dilation generator
# D = (x d/dx + y d/dy)/2 + z d/dz.  Each is (its direction at (x, y, z),
# op f from the frame (Xf, Yf, Zf)).  The straight line through the
# direction is the integral curve of X, Y, Z, Xhat and Yhat, and
# first-order exact for Theta and D.
EXTRA_FIELDS = {
    "X": (lambda x, y, z: (1.0, 0.0, -0.5 * y),
          lambda x, y, z, gx, gy, gz: gx),
    "Y": (lambda x, y, z: (0.0, 1.0, 0.5 * x),
          lambda x, y, z, gx, gy, gz: gy),
    "Z": (lambda x, y, z: (0.0, 0.0, 1.0),
          lambda x, y, z, gx, gy, gz: gz),
    "Xhat": (lambda x, y, z: (1.0, 0.0, 0.5 * y),
             lambda x, y, z, gx, gy, gz: gx + y * gz),
    "Yhat": (lambda x, y, z: (0.0, 1.0, -0.5 * x),
             lambda x, y, z, gx, gy, gz: gy - x * gz),
    "Theta": (lambda x, y, z: (-y, x, 0.0),
              lambda x, y, z, gx, gy, gz: x * gy - y * gx - 0.5 * (x * x + y * y) * gz),
    "D": (lambda x, y, z: (0.5 * x, 0.5 * y, z),
          lambda x, y, z, gx, gy, gz: 0.5 * x * gx + 0.5 * y * gy + z * gz),
}


def _directional(op: str, f: ScalarField, x, y, z, step: float):
    """op f at (x, y, z): the analytic frame, else a centered difference
    along the direction with its step scaled by (1 + max |coordinate|)."""
    if op not in EXTRA_FIELDS:
        raise ValueError(f"unknown field {op!r}; expected one of {tuple(EXTRA_FIELDS)}")
    direction, combo = EXTRA_FIELDS[op]
    if f.analytic_gradient is not None:
        return combo(x, y, z, *f.analytic_gradient(x, y, z))
    vx, vy, vz = direction(x, y, z)
    scale = step * (1.0 + np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z))))
    fp = f.eval(x + scale * vx, y + scale * vy, z + scale * vz)
    fm = f.eval(x - scale * vx, y - scale * vy, z - scale * vz)
    return (fp - fm) / (2.0 * scale)


def apply_op(op: str, f: ScalarField, p: GroupElement, step: float | None = None) -> float:
    """op f at ``p``, op a field of EXTRA_FIELDS: the analytic frame when f
    has one, else a centred difference of step ``f.fd_step``, or ``step``
    when given."""
    if step is not None:
        f = replace(f, fd_step=step)
    return _as_scalar(_directional(op, f, p.x, p.y, p.z, f.fd_step))


def derived_op(op: str, f: ScalarField) -> ScalarField:
    """The function q -> (op f)(q) as a field with no gradient of its own; its
    differences take the step max(f.fd_step, FD_STEP_SECOND)."""

    def ev(x, y, z):
        x, y, z = (np.asarray(c, float) for c in (x, y, z))
        return _directional(op, f, x, y, z, f.fd_step)

    return ScalarField(eval=ev, fd_step=max(f.fd_step, FD_STEP_SECOND), name=f"{op}({f.name})")


def gamma_fd(f: ScalarField, g: ScalarField, p: GroupElement) -> float:
    """Carre du champ Gamma(f, g) = Xf Xg + Yf Yg at ``p`` by :func:`apply_op`."""
    xf = apply_op("X", f, p)
    yf = apply_op("Y", f, p)
    if g is f:
        return xf * xf + yf * yf
    return xf * apply_op("X", g, p) + yf * apply_op("Y", g, p)


def gamma2_fd(f: ScalarField, p: GroupElement) -> float:
    """Gamma_2(f) at ``p``, the form of ``group.gamma2``, with its second
    derivatives centred differences of the derived fields."""
    xf, yf, zf = (apply_op(op, f, p) for op in ("X", "Y", "Z"))
    fx, fy, fz = (derived_op(op, f) for op in ("X", "Y", "Z"))
    xxf = apply_op("X", fx, p)
    yyf = apply_op("Y", fy, p)
    xyf = apply_op("X", fy, p)
    yxf = apply_op("Y", fx, p)
    xzf = apply_op("X", fz, p)
    yzf = apply_op("Y", fz, p)
    return (
        xxf * xxf
        + yyf * yyf
        + 0.5 * (xyf + yxf) ** 2
        + 0.5 * zf * zf
        + 2.0 * (xzf * yf - yzf * xf)
    )


def apply_L(f: ScalarField, q: GroupElement) -> float:
    """Sub-Laplacian L = X^2 + Y^2 at ``q``.

    With an analytic gradient the outer layer is one centered difference
    of the exact frame components; otherwise the full coordinate stencil

        L = dxx + dyy + (x^2+y^2)/4 dzz + x dyz - y dxz

    is evaluated with second-order steps.
    """
    if f.analytic_gradient is not None:
        xxf = apply_op("X", derived_op("X", f), q, step=FD_STEP_SECOND)
        yyf = apply_op("Y", derived_op("Y", f), q, step=FD_STEP_SECOND)
        return xxf + yyf

    x, y, z = q.x, q.y, q.z
    h = FD_STEP_SECOND * (1.0 + max(abs(x), abs(y), abs(z)))

    def at(a, b, c):
        return _as_scalar(f.eval(a, b, c))

    f0 = at(x, y, z)
    dxx = (at(x + h, y, z) - 2.0 * f0 + at(x - h, y, z)) / h**2
    dyy = (at(x, y + h, z) - 2.0 * f0 + at(x, y - h, z)) / h**2
    dzz = (at(x, y, z + h) - 2.0 * f0 + at(x, y, z - h)) / h**2
    dyz = (
        at(x, y + h, z + h) - at(x, y + h, z - h) - at(x, y - h, z + h) + at(x, y - h, z - h)
    ) / (4.0 * h**2)
    dxz = (
        at(x + h, y, z + h) - at(x + h, y, z - h) - at(x - h, y, z + h) + at(x - h, y, z - h)
    ) / (4.0 * h**2)
    return dxx + dyy + 0.25 * (x * x + y * y) * dzz + x * dyz - y * dxz


def validate_gradient(f: ScalarField, points, rtol: float = 1e-6, atol: float = 1e-6) -> float:
    """Worst |analytic - centered-fd| frame-gradient deviation over points."""
    if f.analytic_gradient is None:
        raise ValueError("field has no analytic gradient to validate")
    worst = 0.0
    stripped = ScalarField(eval=f.eval, fd_step=f.fd_step, name=f.name)
    for q in points:
        ga = f.analytic_gradient(q.x, q.y, q.z)
        for op, exact in zip(("X", "Y", "Z"), ga):
            approx = apply_op(op, stripped, q)
            dev = abs(float(exact) - approx)
            worst = max(worst, dev)
            if dev > atol + rtol * abs(float(exact)):
                raise AssertionError(
                    f"gradient mismatch for {f.name!r} {op} at {q}: "
                    f"analytic {float(exact):.6e} vs fd {approx:.6e}"
                )
    return worst


# ---------------------------------------------------------------------------
# geometry: the chart function mu, the geodesic chart map and its inverse,
# and one point's distance with its branch


class ChartDegenerateError(ValueError):
    """Point on the z-axis: every rotation of one geodesic reaches it."""


@dataclass(frozen=True)
class GeodesicChart:
    """Geodesic parameters (u, s); ``mirror`` selects the z < 0 half.

    ``branch`` is "generic" (0 < s <= 2 pi |u|) or "planar" (straight
    line; u is then the unit-modulus limit direction and s the length).
    """

    u: complex
    s: float
    branch: str = "generic"
    mirror: bool = False

    def __post_init__(self):
        if self.branch not in ("generic", "planar"):
            raise ValueError(f"unknown branch {self.branch!r}")
        if not (self.s > 0.0):
            raise ValueError("arclength s must be > 0")
        au = abs(self.u)
        if self.branch == "generic":
            if not (au > 0.0):
                raise ValueError("generic chart needs |u| > 0")
            if self.s > 2.0 * math.pi * au * (1.0 + 1e-12):
                raise ValueError("s exceeds the cut length 2 pi |u|")
        else:
            if not math.isclose(au, 1.0, rel_tol=1e-9):
                raise ValueError("planar chart stores a unit direction in u")


def mu(phi: float) -> float:
    """Monotone chart function mu(phi) = phi/sin^2(phi) - cot(phi) on (0, pi)."""
    if not (0.0 < phi < math.pi):
        raise ValueError("mu is defined on the open interval (0, pi)")
    return float(Geo._mu_arrays(phi))


def geodesic_point(chart: GeodesicChart) -> GroupElement:
    """Endpoint of the chart's unit-speed geodesic at arclength s."""
    if chart.branch == "planar":
        w = -1j * chart.u * chart.s
        return GroupElement(float(w.real), float(w.imag), 0.0)
    au = abs(chart.u)
    sigma = chart.s / au
    w = chart.u * (1.0 - complex(math.cos(sigma), math.sin(sigma)))
    zv = 0.5 * au * au * float(Geo._phi_minus_sin(sigma))
    x, y = float(w.real), float(w.imag)
    if chart.mirror:
        return GroupElement(x, -y, -zv)
    return GroupElement(x, y, zv)


def polar_from_cartesian(q: GroupElement) -> GeodesicChart:
    """Invert :func:`geodesic_point`; unique off the z-axis.

    Raises :class:`ChartDegenerateError` on the z-axis.  Planar points
    (z = 0) return the straight-line sentinel branch.
    """
    r = math.hypot(q.x, q.y)
    az = abs(q.z)
    if r == 0.0 and az == 0.0:
        raise ChartDegenerateError("origin has zero arclength")
    if r < Geo.AXIS_R_FACTOR * math.sqrt(az):
        raise ChartDegenerateError(
            "z-axis point: chart is degenerate (full circle of geodesics)"
        )
    w = complex(q.x, q.y)
    # cc_distance's planar test: r * r would underflow for r below ~1.5e-154
    if az == 0.0 or az / r <= Geo.PLANAR_Z_FACTOR * r:
        return GeodesicChart(u=1j * w / r, s=r, branch="planar")
    mirror = q.z < 0.0
    if mirror:
        w = w.conjugate()
    target = 4.0 * (az / r) / r
    phi_a, sin_a = Geo._solve_half_angle(np.asarray([target]))
    phi, sin_phi = float(phi_a[0]), float(sin_a[0])
    rho = r / (2.0 * sin_phi)
    # 1 - e^{2 i phi} = 2 sin(phi) e^{i(phi - pi/2)}, with sin via the solver
    u = w * complex(sin_phi, math.cos(phi)) / (2.0 * sin_phi)
    return GeodesicChart(u=u, s=2.0 * rho * phi, mirror=mirror)


@dataclass(frozen=True)
class DistanceResult:
    d: float
    phi: float
    branch: str  # "planar", "axis" or "generic"


def cc_distance(p: GroupElement) -> DistanceResult:
    """CC distance from the origin with its half-angle phi (0 planar, pi on
    the axis) and branch.  The branch tests are its own, on float64
    scalars, with geometry's two branch factors and half-angle solve; the
    tests check its d against cc_distance_many bit for bit.  A non-finite
    coordinate raises ValueError."""
    x, y, z = (np.float64(c) for c in (p.x, p.y, p.z))
    if not all(np.isfinite(c) for c in (x, y, z)):
        raise ValueError("coordinates must be finite")
    r, az = np.hypot(x, y), abs(z)
    # az/r overflows to inf at a subnormal r, which the planar test reads correctly
    with np.errstate(over="ignore"):
        planar = az == 0.0 or az / (r if r > 0.0 else 1.0) <= Geo.PLANAR_Z_FACTOR * r
    if planar:
        return DistanceResult(float(r), 0.0, "planar")
    if r < Geo.AXIS_R_FACTOR * np.sqrt(az):
        return DistanceResult(float(2.0 * np.sqrt(math.pi * az)), math.pi, "axis")
    phi, sin_phi = (v[0] for v in Geo._solve_half_angle(np.array([4.0 * (az / r) / r])))
    return DistanceResult(float(r * phi / sin_phi), float(phi), "generic")


# ---------------------------------------------------------------------------
# family and harness: an atom's support bound from its centre alone, and a
# C_lower bound with its witness


def support_radius_bound(center, width: float, vert: float) -> float:
    """family._support_radius with the centre's distance measured afresh."""
    cx, cy, cz = center
    return Fam._support_radius(float(Geo.cc_distance_many(cx, cy, cz)), width, vert)


@dataclass(frozen=True)
class CLowerWitness:
    p: int
    value: float
    names: tuple
    coeffs: tuple


def c_lower_detail(p: int, family=None) -> CLowerWitness:
    """harness._c_lower on the family's chart span (the default family when
    None), with its witness: the six members with the largest coefficients
    in the combination that attains it.  The steps are _c_lower's, through
    harness._chart_p2 and _chart_p1, so the value has its bits."""
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    names, gx, gy, B, gram, mu = H._chart_span(Fam.build_family() if family is None else family)
    if not names:
        return CLowerWitness(p, 0.0, (), ())
    best, c = H._chart_p2(B, gram)
    if p == 1:
        best, c = H._chart_p1(B, gx, gy, mu, [c, *np.eye(len(c))])
    idx = np.argsort(-np.abs(c))[:6]
    return CLowerWitness(p, best, tuple(names[i] for i in idx), tuple(float(c[i]) for i in idx))


# ---------------------------------------------------------------------------
# mc: path endpoints, one stream per _stream_plan entry as in sample_batch,
# and the stepwise route to the same n-step law

# steps per area block of advance, the width of its sign matrix; it keeps
# the area work linear in the steps of a draw
_AREA_BLOCK = 32
# normals per draw of walk, the bound on its buffer; part of the stepwise
# sample, since the draws split each path's increments
_WALK_DRAWS = 1 << 19


def sample_heisenberg(cfg: MC.PathConfig) -> GroupElement:
    """One endpoint draw of the diffusion at time cfg.t (stream 0)."""
    x, y, z = MC._simulate_stream(MC._stream_generator(cfg.seed, 0), 1, cfg)
    return GroupElement(float(x[0]), float(y[0]), float(z[0]))


def sample_paths(n: int, cfg: MC.PathConfig) -> np.ndarray:
    """Endpoints of n independent paths, rows (x, y, z)."""
    n = MC._integral(n, "n", 1)
    out = np.empty((n, 3))
    lo = 0
    for i, size in enumerate(MC._stream_plan(n)):
        out[lo : lo + size] = np.stack(
            MC._simulate_stream(MC._stream_generator(cfg.seed, i), size, cfg), axis=1)
        lo += size
    return out


def sign_matrix(n: int) -> np.ndarray:
    """S_jk = sign(k - j), so the area's weights are c = S^T dx."""
    k = np.arange(n, dtype=float)
    return np.sign(k[None, :] - k[:, None])


def advance(rng, sigma, x, y, z, m):
    """Push (x, y, z) through m midpoint-rule steps, in place.

    One (paths, m, 2) draw of increments, then per block of at most
    _AREA_BLOCK steps the area identity midpoint sum = left-point sum =
    (x sum(dy) - y sum(dx) + dx^T S dy)/2, with dx^T S dy one product
    against the antisymmetric sign matrix.
    """
    dw = rng.standard_normal((x.size, m, 2))
    dw *= sigma
    b = min(m, _AREA_BLOCK)
    sign = sign_matrix(b)
    ones = np.ones(b)
    for lo in range(0, m, b):
        dx, dy = np.ascontiguousarray(dw[:, lo : lo + b].transpose(2, 0, 1))
        w = dx.shape[1]
        sx = dx @ ones[:w]
        sy = dy @ ones[:w]
        z += 0.5 * (x * sy - y * sx + np.einsum("ij,ij->i", dx @ sign[:w, :w], dy))
        x += sx
        y += sy


def walk(rng, cfg: MC.PathConfig, state: np.ndarray, steps: int) -> None:
    """Push the (3, paths) ``state`` through ``steps`` of cfg's midpoint
    steps, in draws of at most _WALK_DRAWS normals; the state
    between calls is the mid-path state, which the endpoint sampler
    never forms."""
    sigma = math.sqrt(2.0 * (cfg.t / cfg.n_steps))
    chunk = max(1, _WALK_DRAWS // (2 * state.shape[1]))
    for lo in range(0, steps, chunk):
        advance(rng, sigma, *state, min(chunk, steps - lo))


def cos_area_exact(mu: float, t: float, n_steps: int) -> float:
    """E[cos(mu z)] under the n-step midpoint law at time t.

    Given the x-increments dx (variance sigma^2 = 2t/n each), z is
    centred Gaussian with variance sigma^2 |c|^2 / 4, c = S^T dx, so
    E[cos(mu z) | dx] = exp(-mu^2 sigma^2 |c|^2 / 8), and averaging the
    Gaussian quadratic form over dx gives
    det(I + (mu sigma^2/2)^2 S S^T)^(-1/2).  As n grows this tends to
    the diffusion's 1/cosh(mu t).
    """
    sign = sign_matrix(n_steps)
    eig = np.linalg.eigvalsh(sign @ sign.T)
    a = (0.5 * mu * (2.0 * t / n_steps)) ** 2
    return math.exp(-0.5 * float(np.sum(np.log1p(a * eig))))


def ray_limit_mp(t: float, dps: int = 30):
    """L(t) = int_t^inf s^4 p_1(s, 0) ds / (t^4 p_1(t, 0)) in mpmath.

    p_1(s, 0) is (1/4 pi^2) int_0^inf (lam / sinh lam) e^{-a s^2} dlam with
    a = lam coth(lam) / 4, and int_t^inf s^4 e^{-a s^2} ds is
    Gamma(5/2, a t^2) / (2 a^{5/2}), so both sides are one lam-integral
    each and the 1/4 pi^2 cancels.  This generates RAY_LIMITS in
    test_harness.py (0.1-0.2 s per t at 30 digits); the tests read the
    stored values and do not import mpmath.
    """
    import mpmath as mp

    with mp.workdps(dps):
        t = mp.mpf(t)

        def a(lam):
            return lam * mp.coth(lam) / 4

        num = mp.quad(lambda lam: lam / mp.sinh(lam) * mp.gammainc(mp.mpf(5) / 2, a(lam) * t * t)
                      / (2 * a(lam) ** mp.mpf(2.5)), [0, 1, mp.inf])
        den = mp.quad(lambda lam: lam / mp.sinh(lam) * mp.exp(-a(lam) * t * t), [0, 1, mp.inf])
        return num / (t**4 * den)


def _p1_real_mp(r, z):
    """p_1(r, z) at the working precision: (1/4 pi^2) times
    int_0^inf (lam/sinh lam) e^{-(r^2/4) lam coth lam} cos(lam z) dlam on
    unit lam-panels out to dps ln 10 + 40, where the integrand is below
    e^-40 of the working epsilon, and one panel on to infinity."""
    import mpmath as mp

    def g(lam):
        return lam / mp.sinh(lam) * mp.exp(-(r * r / 4) * lam * mp.coth(lam)) * mp.cos(lam * z)

    lam_end = int(mp.mp.dps * math.log(10.0)) + 40
    return mp.quad(g, list(range(lam_end + 1)) + [mp.inf]) / (4 * mp.pi**2)


def kernel_six_mp(r: float, z: float, dps: int = 30):
    """(p, p_r, p_z, p_rr, p_rz/r, p_zz) of p_1 at (r, z) in mpmath, to
    ``dps`` digits, by real-line quadrature independent of the contour:
    (1/4 pi^2) int_0^inf F(lam) G(lam, r) dlam with F = cos(lam z) times
    1, -(r/2) lc, (r^2/4) lc^2 - lc/2 and -lam^2, and F = sin(lam z) times
    -lam and lam lc/2, where lc = lam coth lam.  The integrand is of size
    e^{-r^2/4} and the value of size e^{-d^2/4}, so the working precision
    carries (d^2 - r^2)/(4 ln 10) + 10 digits more than ``dps``.  The
    panels, 1/4 wide, stop where 2 lam e^{-(1 + r^2/4) lam}, a bound on
    |G|, is 10^-(working digits + 5) of e^{-d^2/4}, and each integral's
    error estimate must be below 10^-(dps + 2) of its value.  This
    generates KERNEL_SIX_MP in test_kernel.py (0.4-115 s a point at 30
    digits, the most near the axis at large z); the tests read the stored
    values and do not import mpmath.
    """
    import mpmath as mp

    d = float(Geo.cc_distance_many(r, 0.0, z))
    work = dps + int(0.25 * (d * d - r * r) / math.log(10.0)) + 10
    with mp.workdps(work):
        r, z = mp.mpf(r), mp.mpf(z)
        q = r * r / 4
        lam_end = (d * d / 4 + (work + 5) * math.log(10.0)) / (1.0 + float(q))
        edges = [mp.mpf(k) / 4 for k in range(int(4 * lam_end) + 2)]

        def g(lam):
            return lam / mp.sinh(lam) * mp.exp(-q * lam * mp.coth(lam))

        def lc(lam):
            return lam * mp.coth(lam)

        factors = (lambda lam: mp.cos(lam * z),
                   lambda lam: -r / 2 * lc(lam) * mp.cos(lam * z),
                   lambda lam: -lam * mp.sin(lam * z),
                   lambda lam: (q * lc(lam) - mp.mpf(1) / 2) * lc(lam) * mp.cos(lam * z),
                   lambda lam: lam * lc(lam) / 2 * mp.sin(lam * z),
                   lambda lam: -lam * lam * mp.cos(lam * z))
        # mpmath's error estimate has an absolute floor, so integrate
        # e^{d^2/4} G, whose value is of order one
        scale = mp.exp(mp.mpf(d) ** 2 / 4)
        out = []
        for f in factors:
            value, err = mp.quad(lambda lam: f(lam) * g(lam) * scale, edges, error=True)
            if not err <= mp.mpf(10) ** -(dps + 2) * abs(value):
                raise ArithmeticError(f"kernel_six_mp({r}, {z}): error estimate {err} of {value}")
            out.append(value / (4 * mp.pi**2 * scale))
        return tuple(out)


def ray_ratio_mp(u_abs: float, t: float, dps: int = 25, panels: int = 4):
    """The ray ratio int_t^{s_hi} A h ds / (A(u, t) h(u, t)) in mpmath.

    The same truncated s-range as harness._ray_ratios, with s_hi its
    tail cut, cut into ``panels`` equal panels, and its own
    real-z p_1 on the chart point r = 2|u| sin phi,
    z = (|u|^2/2)(2 phi - sin 2 phi), phi = s/(2|u|).  This generates
    RAY_SUP_MP in test_harness.py (under a minute at 25 digits on 4 panels); the
    tests read the stored value and do not import mpmath.
    """
    import mpmath as mp

    s_hi = min(2.0 * math.pi * u_abs * (1.0 - 1e-9), H._ray_s_cap(u_abs))
    with mp.workdps(dps):
        u = mp.mpf(u_abs)

        def a_h(s):
            phi = s / (2 * u)
            r = 2 * u * mp.sin(phi)
            z = u * u / 2 * (2 * phi - mp.sin(2 * phi))
            return 4 * u * mp.sin(phi) * (mp.sin(phi) - phi * mp.cos(phi)) * _p1_real_mp(r, z)

        edges = mp.linspace(mp.mpf(t), mp.mpf(s_hi), panels + 1)
        return mp.quad(a_h, edges) / a_h(mp.mpf(t))


def mean_mp(ctx, arr, outside: float = 0.0, phi=None):
    """E[phi(f)] in mpmath at the working precision against a harness
    member context's float weights mu and outside mass m_out, with f the
    float node values ``arr`` and ``outside`` on the outside atom, each
    taken exactly; phi defaults to the identity."""
    import mpmath as mp

    w = [mp.mpf(float(v)) for v in ctx.mu] + [mp.mpf(ctx.m_out)]
    f = [mp.mpf(float(v)) for v in arr] + [mp.mpf(float(outside))]
    return mp.fdot(w, f if phi is None else [phi(v) for v in f])


def phi_entropy_mp(ctx, arr, outside: float, phi):
    """E[phi(f)] - phi(E f) at the working precision (see :func:`mean_mp`)."""
    return mean_mp(ctx, arr, outside, phi) - phi(mean_mp(ctx, arr, outside))


def variance_mp(ctx, arr, outside: float = 0.0):
    """E[(f - m)^2] at the working precision (see :func:`mean_mp`)."""
    m = mean_mp(ctx, arr, outside)
    return mean_mp(ctx, arr, outside, lambda u: (u - m) ** 2)


def phi_suite_lhs_mp(family, dps: int = 50) -> dict:
    """{check: {member: lhs}} of harness.check_phi_suite's lsi, Beckner and
    Poincare rows and its beckner-p2-consistency row, at ``dps`` digits
    over each member context's float terms: the shifted values
    pos = f - min + 0.1 are the library's floats, as are the consistency
    row's rhs integrands.  This generates PHI_LHS_MP in test_harness.py
    (about 11 s at 50 digits on build_family(12)); the tests read the
    stored values and do not import mpmath.
    """
    import mpmath as mp

    rows = {}
    with mp.workdps(dps):
        for ctx in H._contexts(family):
            lo = H._pos_shift(ctx)
            pos, p_out = ctx.vals - lo + 0.1, 0.1 - lo

            def ent(p):
                phi = (lambda u: u * mp.log(u)) if p == 1 else (lambda u: u**p / (p - 1.0))
                return phi_entropy_mp(ctx, pos, p_out, phi)

            rows.setdefault("lsi", {})[ctx.name] = ent(1)
            for p in (1.25, 1.5, 1.75):
                rows.setdefault(f"beckner-{p}", {})[ctx.name] = ent(p)
            rows.setdefault("poincare", {})[ctx.name] = variance_mp(ctx, ctx.vals)
            if "beckner-p2-consistency" not in rows:
                p = 2.0 - 1e-4
                rhs_ratio = (p * mean_mp(ctx, pos ** (p - 2.0) * ctx.gam)
                             / (2 * mean_mp(ctx, ctx.gam)))
                rows["beckner-p2-consistency"] = {ctx.name: max(
                    abs(ent(p) / variance_mp(ctx, pos, p_out) - 1), abs(rhs_ratio - 1))}
    return rows


def ndtri_mp(u: float, dps: int = 50):
    """(Phi^{-1}(u), phi(Phi^{-1}(u))) at the float u in (0, 1) to ``dps``
    digits, as strings: the root of Phi(x) = min(u, 1 - u) (exact in
    mpmath) from the library's value, mirrored above 1/2.  This generates
    the stored values behind test_harness.py's quantile checks; the tests
    read them and do not import mpmath.
    """
    import mpmath as mp

    with mp.workdps(dps):
        low = min(mp.mpf(u), 1 - mp.mpf(u))
        x = mp.findroot(lambda x: mp.ncdf(x) - low, mp.mpf(-abs(float(N._ndtri(u)))))
        x = -x if u > 0.5 else x
        return mp.nstr(x, dps), mp.nstr(mp.npdf(x), dps)


def chi2_sf_mp(x: float, dof: int, dps: int = 50) -> str:
    """P(chi^2_dof > x) at the float x to ``dps`` digits, as a string: the
    regularised upper incomplete gamma Q(dof/2, x/2).  This generates the
    stored values behind test_mc.py's chi-squared checks; the tests read
    them and do not import mpmath.
    """
    import mpmath as mp

    with mp.workdps(dps):
        return mp.nstr(mp.gammainc(mp.mpf(dof) / 2, mp.mpf(x) / 2, mp.inf, regularized=True), dps)


def digests_at_blas_threads(build: str) -> list:
    """sha256 of ``build``'s bytes, a Python expression over the imported
    heisenkern modules harness and kernel, evaluated in fresh processes at
    OPENBLAS_NUM_THREADS = 1 and 2."""
    code = ("import hashlib\nfrom heisenkern import harness, kernel\n"
            f"print(hashlib.sha256(({build}).tobytes()).hexdigest())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(K.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        digests.append(out.split()[-1])
    return digests
