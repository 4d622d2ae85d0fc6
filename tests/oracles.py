"""Test-only routes through the heisenkern internals.

Each helper here is a second way to a quantity the library computes, or
a convenience only the tests need: per-point kernel derivatives and the
exact (quadrature per point) fields log h and f* = Xhat log h, the
direct shifted integral p1(r, z + 2i), the one-point P_t and a
phi-entropy, the sub-Laplacian by difference stencils, frame-gradient
validation against centered differences, the chart function mu, the
geodesic chart map and its inverse, and single-path Monte Carlo draws.
None of them is called by the library itself; they are built on its
private pieces, so a change there that moves a value shows up in the
tests that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from heisenkern import geometry as Geo
from heisenkern import group as G
from heisenkern import kernel as K
from heisenkern import mc as MC
from heisenkern import semigroup as S
from heisenkern.group import GroupElement, ScalarField
from heisenkern.numerics import QuadratureSpec, integrate_decaying

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
    """Exact log-derivative bundle at one point: kernel._log_bundle on [r].

    Like kernel.p1, the panel rule is fitted to the point alone, and
    radial_row range-checks (r, z).
    """
    d = K._log_bundle(np.array([r], dtype=float), float(z))
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
    order 1, like the spline field.
    """

    def bundle(x, y, z):
        d = log_derivatives(math.hypot(x, y), z)
        return d.alpha, d.b, d.alpha_r, d.alpha_z, d.b_r, d.b_z

    def ev(x, y, z):
        return _pointwise(lambda *q: (K._fstar_pieces(*q, bundle(*q))[0],), 1, x, y, z)[0]

    def grad(x, y, z):
        return _pointwise(lambda *q: K._fstar_pieces(*q, bundle(*q))[1:], 3, x, y, z)

    ev.rotation_order = 1
    return ScalarField(eval=ev, analytic_gradient=grad, name="xhat_log_h")


# ---------------------------------------------------------------------------
# kernel: the direct shifted integral, the independent route to p1_star_shifted


def _g_factor(lam, r):
    return K._sinh_ratio(lam) * np.exp(-0.25 * r * r * K._lam_coth(lam))


def p1_complex_shift(r: float, z: float, spec: QuadratureSpec | None = None) -> K.ComplexKernelValue:
    """p1(r, z + 2i) by direct quadrature of the shifted integrand.

    Folding the full-line integral to [0, inf) gives cosh/sinh factors;
    the net decay 1 + r^2/4 - 2 forces r > 2.
    """
    K._check_range(r, z)
    if r <= 2.0:
        raise ValueError(
            "shifted integral diverges for r <= 2; use p1_star_shifted"
        )
    spec = K._osc_spec(spec, z)
    decay = 0.25 * r * r - 1.0

    def f_re(lam):
        return np.cosh(2.0 * lam) * np.cos(lam * z) * _g_factor(lam, r)

    def f_im(lam):
        return -np.sinh(2.0 * lam) * np.sin(lam * z) * _g_factor(lam, r)

    re = integrate_decaying(f_re, decay, spec) / K.FOUR_PI_SQ
    im = integrate_decaying(f_im, decay, spec) / K.FOUR_PI_SQ
    return K.ComplexKernelValue(re, im)


def removed_pole_shifted(r: float, z: float) -> complex:
    """The pole term separating the two routes: 1/(4 pi^2 (r^2/4 - 1 + iz)^2)."""
    return 1.0 / (K.FOUR_PI_SQ * complex(0.25 * r * r - 1.0, z) ** 2)


# ---------------------------------------------------------------------------
# semigroup


def apply_Pt(f: ScalarField, cfg: S.HeatOpConfig, x: GroupElement = S._ORIGIN) -> float:
    """P_t f(x) = sum mu_k f(x . y_k): semigroup.apply_Pt_many at one point."""
    return float(S.apply_Pt_many(f, cfg, [x.x, x.y, x.z])[0])


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


def apply_L(f: ScalarField, q: GroupElement) -> float:
    """Sub-Laplacian L = X^2 + Y^2 at ``q``.

    With an analytic gradient the outer layer is one centered difference
    of the exact frame components; otherwise the full coordinate stencil

        L = dxx + dyy + (x^2+y^2)/4 dzz + x dyz - y dxz

    is evaluated with second-order steps.
    """
    if f.analytic_gradient is not None:
        xf_field = G.derived_field("X", f)
        yf_field = G.derived_field("Y", f)
        xxf = G.apply_field("X", xf_field, q, step=G.FD_STEP_SECOND).value
        yyf = G.apply_field("Y", yf_field, q, step=G.FD_STEP_SECOND).value
        return xxf + yyf

    x, y, z = q.x, q.y, q.z
    h = G.FD_STEP_SECOND * (1.0 + max(abs(x), abs(y), abs(z)))

    def at(a, b, c):
        return G._as_scalar(f.eval(a, b, c))

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
            approx = G.apply_field(op, stripped, q).value
            dev = abs(float(exact) - approx)
            worst = max(worst, dev)
            if dev > atol + rtol * abs(float(exact)):
                raise AssertionError(
                    f"gradient mismatch for {f.name!r} {op} at {q}: "
                    f"analytic {float(exact):.6e} vs fd {approx:.6e}"
                )
    return worst


# ---------------------------------------------------------------------------
# geometry: the chart function mu, the geodesic chart map and its inverse


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


# ---------------------------------------------------------------------------
# mc: path endpoints, one stream per _stream_plan entry as in sample_batch


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
