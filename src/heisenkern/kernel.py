"""Heat kernel at unit time, its derivatives, and complex-shifted variants.

Base integral:

    p1(r, z) = (1/4 pi^2) int_0^inf cos(lam z) G(lam, r) dlam,
    G(lam, r) = (lam/sinh lam) exp(-(r^2/4) lam coth lam),

with every other time reached through p(t, r, z) = t^{-2} p1(r/sqrt(t), z/t).

Routes: every real-kernel value comes from one fixed Gauss-Legendre
panel rule, built by _panel_kernel.  radial_row applies it to one z-row;
the point functions p1, p, p1_partials and p1_second_partials are
radial_row at the single point, so their rule is set by that point
alone; p1_many and log_grad_many take one rule per run of _CHUNK pairs,
and within a run take exp once per distinct radius and cos/sin once per
distinct height, with the bits of a per-point evaluation.
The log-derivative bundle of log p1 comes from _log_bundle, which
log_derivatives and the interpolation table both call; the table itself
is evaluated by scipy's NdBSpline.  Only the complex shifts
p1_complex_shift and p1_star_shifted integrate adaptively, through
numerics.integrate_decaying.

Accuracy note: the integrand envelope is of size exp(-r^2/4) while the
true value is of size exp(-d^2/4), so float64 quadrature carries a
relative noise floor of roughly 1e-13 * exp((d^2 - r^2)/4).  Every grid
in this package stays where that floor is harmless; the interpolation
tables switch to the Gaussian-estimate asymptote once the cancellation
exponent (d^2 - r^2)/4 exceeds CANCEL_BUDGET, a region whose heat-measure
weight is below exp(-16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .geometry import cc_distance_many
from .group import ScalarField
from .numerics import QuadratureSpec, integrate_decaying

__all__ = [
    "ComplexKernelValue",
    "KernelRangeError",
    "p1",
    "p",
    "p1_many",
    "log_grad_many",
    "p1_partials",
    "p1_second_partials",
    "RadialLogDerivatives",
    "log_derivatives",
    "log_h_field",
    "xhat_log_h_field",
    "p1_complex_shift",
    "p1_star_shifted",
    "radial_row",
    "get_spline_tables",
]

FOUR_PI_SQ = 4.0 * math.pi**2
Z_RANGE_LIMIT = 50.0
SERIES_CUT = 1e-4

# quadrature relative noise ~1e-12 exp((d^2-r^2)/4); beyond this exponent
# the tables fall back to the cut-locus asymptote (noise at the boundary is
# ~4e-3 relative, and every consumer weights that region below e^{-13})
CANCEL_BUDGET = 22.0


class KernelRangeError(ValueError):
    """Non-finite or negative r, or |z| outside the supported oscillation range."""


@dataclass(frozen=True)
class ComplexKernelValue:
    re: float
    im: float
    method: str  # "shifted-integral" or "regularized-plus-pole"

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("complex kernel value must be finite")
        if self.method not in ("shifted-integral", "regularized-plus-pole"):
            raise ValueError(f"unknown method {self.method!r}")

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def _sinh_ratio(lam):
    """lam/sinh(lam); series below the cut keeps the removable point smooth."""
    lam = np.asarray(lam, dtype=float)
    small = np.abs(lam) < SERIES_CUT
    safe = np.where(small, 1.0, lam)
    l2 = lam * lam
    series = 1.0 - l2 / 6.0 + 7.0 * l2 * l2 / 360.0
    return np.where(small, series, safe / np.sinh(safe))


def _lam_coth(lam):
    """lam coth(lam) with the same series guard."""
    lam = np.asarray(lam, dtype=float)
    small = np.abs(lam) < SERIES_CUT
    safe = np.where(small, 1.0, lam)
    l2 = lam * lam
    series = 1.0 + l2 / 3.0 - l2 * l2 / 45.0
    return np.where(small, series, safe / np.tanh(safe))


def _g_factor(lam, r):
    return _sinh_ratio(lam) * np.exp(-0.25 * r * r * _lam_coth(lam))


def _check_range(r, z):
    if not (math.isfinite(r) and math.isfinite(z)):
        raise KernelRangeError("coordinates must be finite")
    if r < 0.0:
        raise KernelRangeError("radial coordinate must be >= 0")
    if abs(z) > Z_RANGE_LIMIT:
        raise KernelRangeError(
            f"|z| = {abs(z):.3g} exceeds the supported range {Z_RANGE_LIMIT}; "
            "the oscillatory quadrature would need finer panels than the "
            "accuracy model supports"
        )


def _osc_spec(spec: QuadratureSpec | None, z: float) -> QuadratureSpec:
    return replace(spec or QuadratureSpec(), oscillation_wavenumber=abs(z))


def _at_point(r: float, z: float):
    """(p, p_r, p_z, p_rr, p_rz/r, p_zz) at one point: radial_row on [r]."""
    return tuple(float(v[0]) for v in radial_row(np.array([r], dtype=float), float(z)))


def p1(r: float, z: float) -> float:
    """Heat kernel at time 1 as a function of (r, z); even in z."""
    return _at_point(r, z)[0]


def p(t: float, r: float, z: float) -> float:
    """Heat kernel at time t via the dilation scaling t^{-2} p1(r/sqrt t, z/t)."""
    if not (t > 0.0):
        raise ValueError("time must be > 0")
    rt = math.sqrt(t)
    return p1(r / rt, z / t) / (t * t)


def p1_partials(r: float, z: float):
    """(d/dr p1, d/dz p1) by differentiation under the integral."""
    return _at_point(r, z)[1:3]


def p1_second_partials(r: float, z: float):
    """(d2/dr2, d2/drdz / r, d2/dz2) of p1.

    The mixed derivative is returned with its factor r stripped so the
    z-axis limit stays available; multiply by r to recover d2/drdz.
    """
    return _at_point(r, z)[3:]


# ---------------------------------------------------------------------------
# batched fixed-panel evaluation


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _panel_rule(lam_max: float, width: float):
    n = max(1, int(math.ceil(lam_max / width)))
    edges = np.linspace(0.0, lam_max, n + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


# the integrand envelope falls to exp(-_CUTOFF_TARGET) of its lam = 0 value at the cutoff
_CUTOFF_TARGET = 42.0


def _lambda_cutoff(r_min: float) -> float:
    """Tail cutoff: solve lam + (r_min^2/4)(lam coth lam - 1) = _CUTOFF_TARGET.

    The integrand envelope relative to its lam = 0 value is
    exp(-lam - q (lc(lam) - 1)) with q = r^2/4; near zero that decays
    like a Gaussian exp(-q lam^2/3), not like exp(-(1+q) lam), so a
    cutoff of 42/(1+q) would truncate far too early for large r.
    """
    q = 0.25 * r_min * r_min
    lo, hi = 0.0, _CUTOFF_TARGET
    # Python floats carry _lam_coth's own operations; np.tanh, not
    # math.tanh, keeps every cutoff's bits
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid < SERIES_CUT:
            l2 = mid * mid
            lc = 1.0 + l2 / 3.0 - l2 * l2 / 45.0
        else:
            lc = float(mid / np.tanh(mid))
        g = mid + q * (lc - 1.0)
        if g < _CUTOFF_TARGET:
            lo = mid
        else:
            hi = mid
    return hi


# points per panel rule in the paired routes; each chunk's rule comes from
# its own extremes, so a point's value depends on its batch-mates
_CHUNK = 2048


def _panel_kernel(rs, zmax: float):
    """(lam, w, lam coth lam, G) of the panel rule for radii ``rs``.

    The rule resolves the cos(lam z) oscillation up to |z| = zmax and the
    steepest exponential decay among ``rs``; G[i, k] = G(lam_k, rs[i]).
    """
    width = min(0.35, 3.0 / (1.0 + 0.25 * float(np.max(rs)) ** 2))
    if zmax > 0.0:
        width = min(width, 0.5 * math.pi / zmax)
    lam, w = _panel_rule(_lambda_cutoff(float(np.min(rs))), width)
    lc = _lam_coth(lam)
    G = np.exp(-0.25 * np.outer(rs * rs, lc)) * _sinh_ratio(lam)[None, :]
    return lam, w, lc, G


def _check_batch(r, z, name: str):
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(z))):
        raise KernelRangeError(f"{name}: coordinates must be finite")
    if np.min(r) < 0.0 or np.max(np.abs(z)) > Z_RANGE_LIMIT:
        raise KernelRangeError(f"{name} arguments out of range")


def radial_row(rs, z: float):
    """All kernel integrals for one z and many r values, sharing one rule.

    Returns (p, p_r, p_z, p_rr, p_rz/r, p_zz) as arrays over ``rs``.  The
    rule resolves both the cos(lam z) oscillation and the steepest
    exponential decay in the batch, then reuses the (r, lam) exponential
    matrix for all six weighted sums.
    """
    rs = np.asarray(rs, dtype=float)
    if rs.size == 0:
        empty = np.empty(0)
        return (empty,) * 6
    _check_batch(rs, z, "radial_row")
    lam, w, lc, G = _panel_kernel(rs, abs(z))
    cz = np.cos(lam * z)
    sz = np.sin(lam * z)

    m0 = G @ (w * cz)
    m1 = G @ (w * cz * lc)
    m2 = G @ (w * cz * lc * lc)
    m3 = G @ (w * sz * lam)
    m4 = G @ (w * sz * lam * lc)
    m5 = G @ (w * cz * lam * lam)

    pv = m0 / FOUR_PI_SQ
    pr = -0.5 * rs * m1 / FOUR_PI_SQ
    pz = -m3 / FOUR_PI_SQ
    prr = (0.25 * rs * rs * m2 - 0.5 * m1) / FOUR_PI_SQ
    prz_over_r = 0.5 * m4 / FOUR_PI_SQ
    pzz = -m5 / FOUR_PI_SQ
    return pv, pr, pz, prr, prz_over_r, pzz


def _distinct(a):
    """(values, index) with values[index] equal to the 1-d ``a``.

    values holds the distinct bit patterns of ``a``, so -0.0 stays apart
    from 0.0.  When none repeats, values is ``a`` itself and index a full
    slice, so indexing with it makes no copy.
    """
    u, inv = np.unique(a.view(np.int64), return_inverse=True)
    if u.size == a.size:
        return a, slice(None)
    return u.view(np.float64), inv


def _paired(r, z, name: str, sums, n_out: int):
    """Evaluate ``sums`` over broadcast (r, z) pairs, one rule per chunk.

    The pairs are range-checked, then each run of _CHUNK points gets the
    panel rule of its own extremes.  G is built on the chunk's distinct
    radii and its rows gathered back to the points; ``sums(z_u, z_inv,
    lam, w, lc, G)`` takes cos and sin on the distinct heights z_u,
    gathers them through z_inv and returns ``n_out`` arrays over the
    chunk.  The (point, node) products and their contraction over the
    whole chunk are those of a per-point evaluation, so no bit moves.
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast(r, z).shape
    r = np.broadcast_to(r, shape).ravel()
    z = np.broadcast_to(z, shape).ravel()
    if r.size:
        _check_batch(r, z, name)
    out = np.empty((n_out, r.size))
    for lo in range(0, r.size, _CHUNK):
        r_u, r_inv = _distinct(r[lo:lo + _CHUNK])
        z_u, z_inv = _distinct(z[lo:lo + _CHUNK])
        lam, w, lc, G = _panel_kernel(r_u, float(np.max(np.abs(z_u))))
        G = G[r_inv]  # rebinding frees the distinct-radius rows before sums
        out[:, lo:lo + _CHUNK] = sums(z_u, z_inv, lam, w, lc, G)
    return tuple(v.reshape(shape) for v in out)


def p1_many(r, z) -> np.ndarray:
    """Vectorized p1 over paired arrays (fixed-panel route).

    Each run of _CHUNK pairs shares the rule of its own extremes, so a
    value can move with its batch-mates, within the accuracy note's
    noise floor; :func:`p1` is the same rule fitted to one point.
    exp runs once per distinct radius and cos once per distinct height
    of a run, which makes tensor grids cheap, and every value keeps the
    bits of a per-point evaluation.
    """

    def sums(z_u, z_inv, lam, w, lc, G):
        G *= np.cos(np.outer(z_u, lam))[z_inv]
        return (G @ w / FOUR_PI_SQ,)

    return _paired(r, z, "p1_many", sums, 1)[0]


def log_grad_many(r, z):
    """Vectorized (alpha, b) = ((d_r log p1)/r, d_z log p1) over paired arrays.

    The normalization cancels in the ratios, and alpha is computed from
    the r-stripped integrand so the axis needs no special case.  This is
    what integration-by-parts gradient routes want at quadrature nodes.
    """

    def sums(z_u, z_inv, lam, w, lc, G):
        Gc = G * np.cos(np.outer(z_u, lam))[z_inv]
        m0 = Gc @ w
        m1 = Gc @ (w * lc)
        G *= np.sin(np.outer(z_u, lam))[z_inv]
        m3 = G @ (w * lam)
        return -0.5 * m1 / m0, -m3 / m0

    return _paired(r, z, "log_grad_many", sums, 2)


# ---------------------------------------------------------------------------
# log-derivatives of h = p1


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


_AXIS_EPS = 1e-8


def _log_bundle(rs, z: float) -> dict:
    """The RadialLogDerivatives fields as arrays over ``rs`` at one z.

    One radial_row rule serves the whole row; on the axis the even/odd
    structure in r pins alpha = L_rr and alpha_r = b_r = 0.
    """
    pv, pr, pz, prr, przr, pzz = radial_row(rs, z)
    a = pr / pv
    b = pz / pv
    l_rr = prr / pv - a * a
    on_axis = rs <= _AXIS_EPS
    r_safe = np.where(on_axis, 1.0, rs)
    alpha = np.where(on_axis, l_rr, a / r_safe)
    # a = r alpha, so L_rz/r = (p_rz/r)/p - alpha b at every r including 0
    alpha_z = przr / pv - alpha * b
    return {
        "a": a,
        "b": b,
        "alpha": alpha,
        "alpha_r": np.where(on_axis, 0.0, (l_rr - alpha) / r_safe),
        "alpha_z": alpha_z,
        "b_r": np.where(on_axis, 0.0, rs * alpha_z),
        "b_z": pzz / pv - b * b,
    }


def log_derivatives(r: float, z: float) -> RadialLogDerivatives:
    """Exact log-derivative bundle at one point: _log_bundle on [r].

    Like :func:`p1`, the panel rule is fitted to the point alone, and
    radial_row range-checks (r, z).
    """
    d = _log_bundle(np.array([r], dtype=float), float(z))
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
        return (math.log(p1(math.hypot(x, y), z)),)

    def gradient(x, y, z):
        d = log_derivatives(math.hypot(x, y), z)
        return x * d.alpha - 0.5 * y * d.b, y * d.alpha + 0.5 * x * d.b, d.b

    def ev(x, y, z):
        return _pointwise(value, 1, x, y, z)[0]

    def grad(x, y, z):
        return _pointwise(gradient, 3, x, y, z)

    return ScalarField(eval=ev, analytic_gradient=grad, name="log_h")


# ---------------------------------------------------------------------------
# interpolation tables with asymptotic fill


_TABLE_R_MAX = 16.0
_TABLE_Z_MAX = 26.0
_TABLE_DR = 0.1
_TABLE_DZ = 0.2
_PAD = 15  # mirrored rows/columns so the splines see the even/odd symmetry
_PAD_TOP = 6  # extra rows/columns past the clamp box


def _log_h_asymptote(r, z):
    """Cut-locus stand-in for log p1 beyond the cancellation budget.

    Near the axis the distance has a cone d ~ 2 sqrt(pi z) - r, but the
    kernel smooths it by averaging over the cut circle; a Bessel factor
    reproduces that rounding:

        log p1 ~ -pi z + log I0(d0 r / 2) - (1/2) log(1 + norm d0),
        d0 = 2 sqrt(pi z).

    On the axis this matches the closed form 1/(16 cosh^2(pi z/2)) up to
    the algebraic factor.  Differentiating the raw -d^2/4 instead would
    inject a spurious 1/r^2 into alpha_r at the cone.
    """
    from scipy.special import i0e

    r = np.asarray(r, dtype=float)
    z = np.abs(np.asarray(z, dtype=float))
    d0 = 2.0 * np.sqrt(np.pi * z)
    w = 0.5 * d0 * r
    norm = ((r * r) ** 2 + z * z) ** 0.25
    # log I0(w) = log i0e(w) + w, stable for large w
    return -np.pi * z + np.log(i0e(w)) + w - 0.5 * np.log1p(norm * d0)


def _asym_bundle(r, z):
    """(alpha, b, alpha_r, alpha_z, b_r, b_z) of the asymptote by FD.

    The asymptote is smooth in r (no cone), so plain central differences
    are safe, including near the axis.
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    hr, hz = 1e-3, 1e-3
    rr = np.maximum(r, 0.05)  # alpha = a/r needs r bounded away from 0

    def a_of(rv, zv):
        return (_log_h_asymptote(rv + hr, zv) - _log_h_asymptote(rv - hr, zv)) / (2 * hr)

    def b_of(rv, zv):
        return (_log_h_asymptote(rv, zv + hz) - _log_h_asymptote(rv, zv - hz)) / (2 * hz)

    a = a_of(rr, z)
    b = b_of(rr, z)
    alpha = a / rr
    alpha_r = (a_of(rr + hr, z) / (rr + hr) - a_of(rr - hr, z) / (rr - hr)) / (2 * hr)
    alpha_z = (a_of(rr, z + hz) / rr - a_of(rr, z - hz) / rr) / (2 * hz)
    b_r = (b_of(rr + hr, z) - b_of(rr - hr, z)) / (2 * hr)
    b_z = (b_of(rr, z + hz) - b_of(rr, z - hz)) / (2 * hz)
    on_axis = r < 1e-9  # odd components vanish there
    return (
        alpha,
        b,
        np.where(on_axis, 0.0, alpha_r),
        alpha_z,
        np.where(on_axis, 0.0, b_r),
        b_z,
    )


class LogHSplineTables:
    """Bicubic splines of the log-derivative bundle over (r, z >= 0).

    Values inside the cancellation budget come from the panel quadrature;
    outside they come from the asymptote, keeping the spline smooth where
    nested translations occasionally land with negligible weight.  Each
    quantity is fitted by RectBivariateSpline on the grid extended below
    the axes by mirrored rows and columns, signed by its parity, and past
    the clamp box by a strip of extra nodes (asymptote values at large
    |z|); the padding and the strip shape the fit, and so every table
    value.  One scipy NdBSpline carries the six coefficient grids and
    evaluates them at (min(r, 16), min(|z|, 26)); the z parity signs are
    applied afterwards.
    """

    _KEYS = ("alpha", "b", "alpha_r", "alpha_z", "b_r", "b_z")
    # parity of each table under r -> -r and z -> -z
    _PARITY = {
        "alpha": (1, 1),
        "b": (1, -1),
        "alpha_r": (-1, 1),
        "alpha_z": (1, -1),
        "b_r": (-1, -1),
        "b_z": (1, 1),
    }

    def __init__(self):
        from scipy.interpolate import NdBSpline, RectBivariateSpline

        nr = int(round(_TABLE_R_MAX / _TABLE_DR)) + 1 + _PAD_TOP
        nz = int(round(_TABLE_Z_MAX / _TABLE_DZ)) + 1 + _PAD_TOP
        rs = np.arange(nr) * _TABLE_DR
        zs = np.arange(nz) * _TABLE_DZ

        d = cc_distance_many(rs[:, None], np.zeros((nr, 1)), zs[None, :])
        cancel = 0.25 * (d * d - rs[:, None] ** 2)
        safe = cancel <= CANCEL_BUDGET

        tables = {key: np.empty((nr, nz)) for key in self._KEYS}

        for j, z in enumerate(zs):
            mask = safe[:, j]
            if np.any(mask):
                row = _log_bundle(rs[mask], float(z))
                for key in self._KEYS:
                    tables[key][mask, j] = row[key]
            if np.any(~mask):
                rj = rs[~mask]
                vals = _asym_bundle(rj, np.full(rj.shape, z))
                for key, v in zip(self._KEYS, vals):
                    tables[key][~mask, j] = v

        r_ext = np.concatenate([-rs[1 : _PAD + 1][::-1], rs])
        z_ext = np.concatenate([-zs[1 : _PAD + 1][::-1], zs])
        coef = []
        for key in self._KEYS:
            grid = tables[key]
            pr_, pz_ = self._PARITY[key]
            top = np.concatenate([pz_ * grid[:, 1 : _PAD + 1][:, ::-1], grid], axis=1)
            full = np.concatenate([pr_ * top[1 : _PAD + 1][::-1], top], axis=0)
            sp = RectBivariateSpline(r_ext, z_ext, full, kx=3, ky=3)
            tx, ty = sp.get_knots()
            coef.append(sp.get_coeffs().reshape(tx.size - 4, ty.size - 4))
        self._spline = NdBSpline((tx, ty), np.stack(coef, axis=-1), 3)
        self._odd_in_z = np.array([self._PARITY[key][1] == -1 for key in self._KEYS])

    def _signed(self, r, z):
        """(shape, (n, 6) values) at the broadcast (r, z), parity applied."""
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        shape = np.broadcast(r, z).shape
        r = np.broadcast_to(r, shape).ravel()
        z = np.broadcast_to(z, shape).ravel()
        q = np.stack([np.minimum(r, _TABLE_R_MAX), np.minimum(np.abs(z), _TABLE_Z_MAX)], axis=-1)
        vals = self._spline(q)
        sign = np.where(z < 0.0, -1.0, 1.0)
        vals[:, self._odd_in_z] *= sign[:, None]
        return shape, vals

    def eval(self, key: str, r, z):
        shape, vals = self._signed(r, z)
        out = vals[:, self._KEYS.index(key)]
        return out.reshape(shape) if shape else float(out[0])

    def bundle(self, r, z):
        shape, vals = self._signed(r, z)
        return tuple(v.reshape(shape) if shape else float(v[0]) for v in vals.T)


@cache
def get_spline_tables() -> LogHSplineTables:
    return LogHSplineTables()


def _fstar_pieces(x, y, z, bundle):
    alpha, b, alpha_r, alpha_z, b_r, b_z = bundle
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    inv_r = np.where(r > _AXIS_EPS, 1.0 / np.where(r > _AXIS_EPS, r, 1.0), 0.0)
    cx = x * inv_r
    cy = y * inv_r
    val = x * alpha + 0.5 * y * b
    dx = alpha + x * cx * alpha_r + 0.5 * y * cx * b_r
    dy = x * cy * alpha_r + 0.5 * b + 0.5 * y * cy * b_r
    dz = x * alpha_z + 0.5 * y * b_z
    gx = dx - 0.5 * y * dz
    gy = dy + 0.5 * x * dz
    return val, gx, gy, dz


def xhat_log_h_field(method: str = "exact") -> ScalarField:
    """f* = Xhat(log h) = x alpha(r,z) + (y/2) b(r,z) with frame gradient.

    method "exact" runs full quadrature per point; "spline" uses the
    cached tables and vectorizes (for bulk nested evaluation).  Both have
    rotation order 1, since alpha and b are radial:
    f* o R_{pi/2} = -y alpha + (x/2) b.
    """
    if method == "spline":
        tabs = get_spline_tables()

        def ev(x, y, z):
            r = np.hypot(np.asarray(x, float), np.asarray(y, float))
            val, _, _, _ = _fstar_pieces(x, y, z, tabs.bundle(r, z))
            return val

        def grad(x, y, z):
            r = np.hypot(np.asarray(x, float), np.asarray(y, float))
            _, gx, gy, gz = _fstar_pieces(x, y, z, tabs.bundle(r, z))
            return gx, gy, gz

        ev.rotation_order = 1
        return ScalarField(eval=ev, analytic_gradient=grad, name="xhat_log_h[spline]")

    if method != "exact":
        raise ValueError("method must be 'exact' or 'spline'")

    def bundle(x, y, z):
        d = log_derivatives(math.hypot(x, y), z)
        return d.alpha, d.b, d.alpha_r, d.alpha_z, d.b_r, d.b_z

    def ev_exact(x, y, z):
        return _pointwise(lambda *p: (_fstar_pieces(*p, bundle(*p))[0],), 1, x, y, z)[0]

    def grad_exact(x, y, z):
        return _pointwise(lambda *p: _fstar_pieces(*p, bundle(*p))[1:], 3, x, y, z)

    ev_exact.rotation_order = 1
    return ScalarField(eval=ev_exact, analytic_gradient=grad_exact, name="xhat_log_h")


# ---------------------------------------------------------------------------
# complex-shifted kernels


def p1_complex_shift(r: float, z: float, spec: QuadratureSpec | None = None) -> ComplexKernelValue:
    """p1(r, z + 2i) by direct quadrature of the shifted integrand.

    Folding the full-line integral to [0, inf) gives cosh/sinh factors;
    the net decay 1 + r^2/4 - 2 forces r > 2.
    """
    _check_range(r, z)
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

    re = integrate_decaying(f_re, decay, spec) / FOUR_PI_SQ
    im = integrate_decaying(f_im, decay, spec) / FOUR_PI_SQ
    return ComplexKernelValue(re, im, "shifted-integral")


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
    frac = (np.expm1(g) + u) / safe
    out = 2.0 * lam * np.exp(-lam * (1.0 + 0.25 * r * r)) * frac
    # removable point: bracket -> e^{-r^2/4} as lam -> 0
    return np.where(one_minus_u > 0.0, out, math.exp(-0.25 * r * r))


def p1_star_shifted(r: float, z: float, spec: QuadratureSpec | None = None) -> ComplexKernelValue:
    """p1*(r, z + 2i): pole-subtracted kernel plus the surviving pole.

    q has the leading exponential of the integrand removed, so its
    shifted integral converges for every r > 0; the removed piece
    integrates in closed form to two pole terms, of which only
    1/(4 pi^2 (3 + r^2/4 - i z)^2) belongs to p1*.
    """
    _check_range(r, z)
    if not (r > 0.0):
        raise ValueError("regularized route needs r > 0")
    spec = _osc_spec(spec, z)
    decay = 1.0 + 0.25 * r * r  # residual e^{-(3+r^2/4)lam} against cosh(2 lam)

    def f_re(lam):
        return np.cosh(2.0 * lam) * np.cos(lam * z) * _pole_bracket(lam, r)

    def f_im(lam):
        return -np.sinh(2.0 * lam) * np.sin(lam * z) * _pole_bracket(lam, r)

    re = integrate_decaying(f_re, decay, spec) / FOUR_PI_SQ
    im = integrate_decaying(f_im, decay, spec) / FOUR_PI_SQ
    pole = 1.0 / (FOUR_PI_SQ * complex(3.0 + 0.25 * r * r, -z) ** 2)
    return ComplexKernelValue(re + pole.real, im + pole.imag, "regularized-plus-pole")


def removed_pole_shifted(r: float, z: float) -> complex:
    """The pole term separating the two routes: 1/(4 pi^2 (r^2/4 - 1 + iz)^2)."""
    return 1.0 / (FOUR_PI_SQ * complex(0.25 * r * r - 1.0, z) ** 2)
