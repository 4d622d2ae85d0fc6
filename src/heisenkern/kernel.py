"""Heat kernel at unit time, its derivatives, and complex-shifted variants.

Base integral:

    p1(r, z) = (1/4 pi^2) int_0^inf cos(lam z) G(lam, r) dlam,
    G(lam, r) = (lam/sinh lam) exp(-(r^2/4) lam coth lam),

with every other time reached through p(t, r, z) = t^{-2} p1(r/sqrt(t), z/t).

Routes: the real kernel is integrated on the saddle-point contour
Im lam = theta, where nothing cancels (see _contour_rows).  At scattered
points one engine, _contour_sums, takes a trapezoid fixed by each point
alone and sums each point's row on its own; p1, p1_many, log_grad_many
and radial_row are views of it, so a value has the same bits alone, in
any batch and at any BLAS thread count.  Both kernel tables are this
module's, numerics.BicubicTables on uniform z-grids filled by
_contour_rows, the same integrand by inverse FFTs at each radius: the
interpolation table of the log-derivative bundle, with _log_bundle's
algebra on top, and the log p1 window table, from p alone, which
_pt_density reads for the harness's compact members.  The engine and
the rows share each band's factors lam/sinh lam and lam coth lam
(_band_nodes).  The complex shift p1_star_shifted gives each point its
own fixed Gauss panel rule through numerics.integrate_decaying; no value
is adaptive.

Accuracy note: the engine errs by at most 4.0e-14 relative on the
40-digit grid of perfbench/p1_reference.json; against a 30-digit mpmath
quadrature at 16 spline-table nodes, with cancellation exponents
(d^2 - r^2)/4 from 0.001 to 85, by 4.5e-13 in p1 and at most 4.1e-11 in
a derivative (p_zz).  On the axis its top band lies 0.3 below the pole
of lam/sinh lam, so a factor e^{0.3 |z|} cancels there: against
1/(16 cosh^2(pi z/2)) it errs by 1.0e-12 up to |z| = 30, 2.5e-11 up to
40 and 7.1e-10 up to 50.  The contour rows err by at most 3.5e-14
relative in p1 and 6.1e-12 max(1, |value|) in the bundle at the 16
nodes, and by 3.9e-15 and 2.5e-15 on the spline and window tables' grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# cc_distance_many stays importable here: the benchmark tracer wraps it in this module
from .geometry import _mu_arrays, cc_distance_many  # noqa: F401
from .group import ScalarField
from .numerics import BicubicTable, integrate_decaying

__all__ = [
    "ComplexKernelValue",
    "KernelRangeError",
    "p1",
    "p1_many",
    "log_grad_many",
    "xhat_log_h_field",
    "p1_star_shifted",
    "radial_row",
    "get_spline_tables",
]

FOUR_PI_SQ = 4.0 * math.pi**2
Z_RANGE_LIMIT = 50.0


class KernelRangeError(ValueError):
    """Non-finite or negative r, or |z| outside the supported oscillation range."""


@dataclass(frozen=True)
class ComplexKernelValue:
    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("complex kernel value must be finite")

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def _check_batch(r, z, name: str):
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(z))):
        raise KernelRangeError(f"{name}: coordinates must be finite")
    if np.min(r) < 0.0 or np.max(np.abs(z)) > Z_RANGE_LIMIT:
        raise KernelRangeError(f"{name} arguments out of range")


# ---------------------------------------------------------------------------
# the real kernel at scattered points: views of one contour engine


def p1(r: float, z: float) -> float:
    """Heat kernel at time 1 as a function of (r, z); even in z.

    The engine _contour_sums at the one point, with the bits it has in
    any batch.
    """
    return float(_contour_sums(float(r), float(z), "p1", 1)[0])


def p1_many(r, z) -> np.ndarray:
    """Vectorized p1 over the broadcast (r, z): the engine's first sum.

    Each value has the bits of :func:`p1` at its point, whatever its
    batch.  Neither kernel table is filled here: both come from
    _contour_rows.
    """
    return _contour_sums(r, z, "p1_many", 1)[0]


def log_grad_many(r, z):
    """Vectorized (alpha, b) = ((d_r log p1)/r, d_z log p1) over the broadcast (r, z).

    The normalization cancels in the ratios, and alpha is computed from
    the r-stripped integrand so the axis needs no special case.  This is
    what integration-by-parts gradient routes want at quadrature nodes.
    Each value is set by its point alone.
    """
    m0, m1, m2 = _contour_sums(r, z, "log_grad_many", 3)
    return -0.5 * m1 / m0, np.sign(z) * m2 / m0


def radial_row(rs, z: float):
    """All kernel integrals for one z and many r values.

    Returns (p, p_r, p_z, p_rr, p_rz/r, p_zz) as arrays over ``rs``, each
    point's from its own rule, so a row holds the values of its points.
    """
    rs = np.asarray(rs, dtype=float)
    m0, m1, m2, m3, m4, m5 = _contour_sums(rs, z, "radial_row", 6)
    sz = np.sign(z)
    return m0, -0.5 * rs * m1, sz * m2, 0.25 * rs * rs * m3 - 0.5 * m1, -0.5 * sz * m4, -m5


# ---------------------------------------------------------------------------
# log-derivatives of h = p1


_AXIS_EPS = 1e-8


def _log_bundle(rs, six) -> dict:
    """Partials of log p1 in radial form from ``six`` = (p, p_r, p_z, p_rr,
    p_rz/r, p_zz), arrays that broadcast against the radii ``rs``.

    a = d_r log p1 and b = d_z log p1; alpha = a/r extends evenly across
    the axis.  alpha_r, alpha_z, b_r, b_z are the partials needed for
    gradients of fields built from x alpha + (y/2) b.
    On the axis the even/odd structure in r pins alpha = L_rr and
    alpha_r = b_r = 0.
    """
    pv, pr, pz, prr, przr, pzz = six
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


# ---------------------------------------------------------------------------
# the saddle-point contour: the point engine, FFT rows and both interpolation tables


_TABLE_R_MAX = 16.0
_TABLE_Z_MAX = 26.0
_TABLE_DR = 0.1
_TABLE_DZ = 0.2
_PAD = 15  # mirrored rows/columns so the splines see the even/odd symmetry
_PAD_TOP = 6  # extra rows/columns past the clamp box

# contour heights Im(lam) = theta of the bands, the bounds on a band's FFT
# period (see _contour_rows), and the 5-smooth lengths, which the FFT takes fast
_BANDS = np.linspace(0.0, math.pi - 0.3, 8)
_STRIP = 77.0
_FOLD_MARGIN = 40.0
_FFT_LENGTHS = np.array(sorted(2**a * 3**b * 5**c
                               for a in range(16) for b in range(11) for c in range(7)))
# the engine's |z| levels: a point's period is that of the least level >= |z|
_LEVELS = np.array([2.0, 5.0, 10.0, 25.0, Z_RANGE_LIMIT])
# the engine rounds each point's node count up to a multiple of _NODE_STEP,
# so that points of nearby radii share one evaluation, and takes up to
# _CELLS (point, node) pairs at a time
_NODE_STEP = 32
_CELLS = 1 << 15


def _u_max(r):
    """The trapezoid's range |u| <= u_max at radius r, past which G is negligible."""
    return 45.0 / (1.0 + 0.25 * r * r) + 5.0


@cache
def _band_nodes(theta: float, h: float):
    """(lam, lam/sinh lam, lam coth lam) at lam_k = k h + i theta, read-only,
    for every k <= u_max(0)/h and on to a multiple of _NODE_STEP nodes:
    the factors that do not depend on r, shared by every row and point of
    step h on the band."""
    lam = np.arange(_NODE_STEP * (math.ceil(_u_max(0.0) / h) // _NODE_STEP + 1)) * h + 1j * theta
    lam_safe = np.where(lam == 0.0, 1.0, lam)
    ratio = np.where(lam == 0.0, 1.0, lam_safe / np.sinh(lam_safe))  # removable at lam = 0
    lc = np.where(lam == 0.0, 1.0, lam_safe / np.tanh(lam_safe))
    for a in (lam, ratio, lc):
        a.flags.writeable = False
    return lam, ratio, lc


def _contour_sums(r, z, name: str, n_sums: int):
    """The first ``n_sums`` of the contour sums M_j(r, z) of the broadcast
    (r, z), as an (n_sums, *shape) array, each point's on its own rule.

    M_j = e^{-theta |z|}/(8 pi^2) Re int e^{iu|z|} F_j G(u + i theta, r) du
    (see _contour_rows) with F_j = 1, lam coth lam, i lam, (lam coth lam)^2,
    i lam lam coth lam and lam^2, lam = u + i theta, so M_0 = p1 and the
    derivatives follow as in _contour_rows, with the sign of z on the
    odd ones.  A point takes the lowest band of _BANDS whose envelope at
    u = 0, log|G(i theta, r)| - theta |z|, is within 4 of the least over
    the bands, so at most a factor e^4 cancels; its period L is
    _contour_rows' with z_max the least of _LEVELS >= |z|, and its nodes
    u_k = 2 pi k/L run to u_max(r), the count rounded up to a multiple of
    _NODE_STEP.  The band, the level and the count are the point's own,
    the points that share all three are evaluated together in blocks of
    whole rows, and each row is summed alone by np.add.reduce, so a value
    has the same bits alone and in any batch.  A (point, node) costs one
    exp, one cos and, past M_0, one sin: with G = e^{l} and
    l = log(lam/sinh lam) - (r^2/4) lam coth lam, Re(e^{iu|z| + l} F) =
    e^{Re l} (cos(u|z| + Im l) Re F - sin(u|z| + Im l) Im F).
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast(r, z).shape
    r = np.broadcast_to(r, shape).ravel()
    az = np.abs(np.broadcast_to(z, shape).ravel())
    out = np.empty((n_sums, r.size))
    if r.size == 0:
        return out.reshape(n_sums, *shape)
    _check_batch(r, az, name)
    q = 0.25 * r * r
    pos = _BANDS > 0.0
    ratio0 = np.divide(_BANDS, np.sin(_BANDS), out=np.ones_like(_BANDS), where=pos)
    cot0 = np.divide(_BANDS * np.cos(_BANDS), np.sin(_BANDS), out=np.ones_like(_BANDS), where=pos)
    env = np.log(ratio0) - np.outer(q, cot0) - np.outer(az, _BANDS)
    band = np.argmax(env <= np.min(env, axis=1, keepdims=True) + 4.0, axis=1)
    level = np.searchsorted(_LEVELS, az)
    steps = 2.0 * math.pi / np.maximum(_STRIP / (math.pi - _BANDS)[:, None],
                                       2.0 * _LEVELS + _FOLD_MARGIN)
    count = np.ceil(_u_max(r) / steps[band, level]) + 1.0
    count = (_NODE_STEP * np.ceil(count / _NODE_STEP)).astype(np.int64)
    key = (band * _LEVELS.size + level) * (1 << 20) + count
    for k in np.unique(key):
        pts = np.flatnonzero(key == k)
        b, lv, n = band[pts[0]], level[pts[0]], int(count[pts[0]])
        theta, h = float(_BANDS[b]), float(steps[b, lv])
        lam, ratio, lc = (a[:n] for a in _band_nodes(theta, h))
        log_ratio = np.log(ratio)
        factors = [(f.real, f.imag)
                   for f in (lc, 1j * lam, lc * lc, 1j * lam * lc, lam * lam)[:n_sums - 1]]
        block = max(1, _CELLS // n)
        for lo in range(0, pts.size, block):
            rows = pts[lo:lo + block]
            qr = q[rows, None]
            mag = np.exp(log_ratio.real - qr * lc.real)
            phase = az[rows, None] * lam.real - qr * lc.imag + log_ratio.imag
            c = np.cos(phase) * mag
            c[:, 0] *= 0.5
            out[0, rows] = np.add.reduce(c, axis=-1)
            if n_sums > 1:
                s = np.sin(phase, out=phase)
                s *= mag
                s[:, 0] *= 0.5
                for j, (f_re, f_im) in enumerate(factors, 1):
                    out[j, rows] = np.add.reduce(c * f_re - s * f_im, axis=-1)
        out[:, pts] *= np.exp(-theta * az[pts]) * (h / FOUR_PI_SQ)
    return out.reshape(n_sums, *shape)


def _contour_rows(r: float, dz: float, nz: int, p_only: bool = False):
    """(p, p_r, p_z, p_rr, p_rz/r, p_zz) at radius r on z_j = j dz, j < nz,
    or p alone, as a (1, nz) array, if ``p_only``.

    G is even, real on the real line and analytic for |Im lam| < pi, so
    for 0 <= theta < pi

        p1(r, z) = e^{-theta z}/(8 pi^2) Re int e^{iuz} G(u + i theta, r) du,

    and each derivative multiplies the integrand by a factor of
    lam = u + i theta: d_r by -(r/2) lam coth lam, d_z by i lam, d_rr by
    (r^2/4)(lam coth lam)^2 - (1/2) lam coth lam, d_rz/r by
    -(1/2) i lam lam coth lam and d_zz by -lam^2.  On the band nearest the
    saddle lam = i theta*, mu(theta*) = 4z/r^2, the integrand is of the
    size of the value times e^{theta z}, so nothing cancels; each z takes
    the band of _BANDS whose midpoints bracket its saddle (every z > 0 on
    the axis the top one, z = 0 the real line).  This is not the envelope
    rule of _contour_sums: the two pick different bands at some (r, z),
    and both tables were fitted, and their rows checked against mpmath,
    on this one, so moving them would move every coefficient.  It errs by
    up to 3.6e-3 only near |z| = 48, past both tables' |z| <= 26, which is
    why scattered points take the other rule.

    Each band has its own FFT length N, the least 5-smooth one whose
    period L = N dz is at least _STRIP/(pi - theta) and 2 z_max +
    _FOLD_MARGIN, z_max = (nz - 1) dz.  The trapezoid nodes u_k = k h,
    h = 2 pi/L, cover |u| <= 45/(1 + r^2/4) + 5, and u_k z_j =
    2 pi k j/N, so the nodes folded mod N and one inverse FFT give the
    band's whole row.  The integrand at -u is the conjugate of that at u,
    so only the nodes u >= 0 are evaluated and the FFT is a real one.
    The trapezoid's alias terms are the band's integral at z + nL, n != 0.
    For n > 0 they fall like e^{-(pi - theta) L} <= e^{-77} against the
    value at z, as p1 falls like e^{-pi z} (the strip rule for the pole
    of G at distance pi - theta); for n < 0 they are of the size of p1 at
    L - z >= z + 40.  No bit depends on the BLAS.
    """
    zs = np.arange(nz) * dz
    saddle = 4.0 * zs / (r * r) if r > 0.0 else np.where(zs > 0.0, np.inf, 0.0)
    band = np.searchsorted(_mu_arrays(0.5 * (_BANDS[1:] + _BANDS[:-1])), saddle)
    u_max = _u_max(r)
    out = np.empty((1 if p_only else 6, nz))
    for b in np.unique(band):
        theta = _BANDS[b]
        js = np.flatnonzero(band == b)
        period = max(_STRIP / (math.pi - theta), 2.0 * zs[-1] + _FOLD_MARGIN)
        n = int(_FFT_LENGTHS[np.searchsorted(_FFT_LENGTHS, math.ceil(period / dz))])
        h = 2.0 * math.pi / (n * dz)
        k_max = math.ceil(u_max / h)
        lam, ratio, lc = (a[:k_max + 1] for a in _band_nodes(float(theta), h))
        g = ratio * np.exp(-0.25 * r * r * lc)
        f = g[None] if p_only else np.stack([g, -0.5 * r * lc * g, 1j * lam * g,
                                             (0.25 * r * r * lc - 0.5) * lc * g,
                                             -0.5j * lam * lc * g, -lam * lam * g])
        # node k, |k| <= k_max, sits at k + wraps n, so it folds onto k mod n
        wraps = -(-k_max // n)
        nodes = np.zeros((len(f), (2 * wraps + 1) * n), dtype=complex)
        nodes[:, wraps * n - k_max:wraps * n] = np.conj(f[:, :0:-1])
        nodes[:, wraps * n:wraps * n + k_max + 1] = f
        folded = nodes.reshape(len(f), 2 * wraps + 1, n).sum(1)
        row = np.fft.irfft(folded[:, :n // 2 + 1], n, axis=-1)[:, js]
        out[:, js] = row * np.exp(-theta * zs[js]) * (n * h / (2.0 * FOUR_PI_SQ))
    return out


class LogHSplineTables:
    """Bicubic splines of the log-derivative bundle over (r, z >= 0).

    Every node's value is _log_bundle of the _contour_rows row at its
    radius, so no node cancels and none falls back to an asymptote.  The
    six quantities fill one (r, z, 6) grid, extended below the axes by
    mirrored rows and columns, each component signed by its parity, and
    past the clamp box by a strip of extra nodes; the padding and the
    strip shape the fit, and so every table value.  One
    numerics.BicubicTable fits the six and evaluates them at
    (min(r, 16), min(|z|, 26)); the z parity signs are applied afterwards.
    """

    _KEYS = ("alpha", "b", "alpha_r", "alpha_z", "b_r", "b_z")
    # each quantity's sign under r -> -r and under z -> -z, in _KEYS order
    _PARITY_R = np.array([1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    _PARITY_Z = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0])

    def __init__(self):
        nr = int(round(_TABLE_R_MAX / _TABLE_DR)) + 1 + _PAD_TOP
        nz = int(round(_TABLE_Z_MAX / _TABLE_DZ)) + 1 + _PAD_TOP
        rs = np.arange(nr) * _TABLE_DR
        six = np.stack([_contour_rows(r, _TABLE_DZ, nz) for r in rs], axis=1)
        bundle = _log_bundle(rs[:, None], six)
        table = np.stack([bundle[key] for key in self._KEYS], axis=-1)

        top = np.concatenate([self._PARITY_Z * table[:, _PAD:0:-1], table], axis=1)
        full = np.concatenate([self._PARITY_R * top[_PAD:0:-1], top], axis=0)
        self._table = BicubicTable(np.arange(-_PAD, nr) * _TABLE_DR,
                                   np.arange(-_PAD, nz) * _TABLE_DZ, full)

    def bundle(self, r, z):
        """The six tables at the broadcast (r, z), in ``_KEYS`` order.

        Finite points past the table box take its edge values (r clamped to
        16, |z| to 26); non-finite ones raise :class:`KernelRangeError`.
        """
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(z))):
            raise KernelRangeError("bundle: coordinates must be finite")
        shape = np.broadcast(r, z).shape
        r = np.broadcast_to(r, shape).ravel()
        z = np.broadcast_to(z, shape).ravel()
        vals = self._table(np.minimum(r, _TABLE_R_MAX), np.minimum(np.abs(z), _TABLE_Z_MAX))
        vals[self._PARITY_Z < 0.0] *= np.where(z < 0.0, -1.0, 1.0)
        return tuple(v.reshape(shape) if shape else float(v[0]) for v in vals)


@cache
def get_spline_tables() -> LogHSplineTables:
    return LogHSplineTables()


# the log p_1 window table
#
# The family quadratures need p_1 at millions of scattered points; the
# panel-by-panel integrals would be dominated by kernel cost with the
# direct oscillatory route.  log p1 is smooth on the window r <= 8,
# |z| <= 9, which holds every panel and translated-panel point of the
# checks (r <= 5.1 and |z| <= 4.9 on the default families), so a
# one-time bicubic table serves the values, read once per mollifier atom
# and grid point in the process (harness._atom_weights).  Its 321 rows of
# 361 heights are _contour_rows of p alone, within 2.5e-15 relative of
# the 40-digit grid at its 35 points in the window.  Off its nodes the
# table is within 3.2e-7 relative of contour rows where p1 > 1e-6 and
# within 6.5e-7 in the checks' region, where p1 >= 9.3e-8 (4,000 seeded
# points); the error peaks at the axes r = 0 and z = 0, where the fit has
# no mirrored rows.  The table's nodes, multiples of 0.025, are
# interpolated exactly, so a grid of such points cannot see this error.
# A point outside the window raises KernelRangeError.  The build takes
# about 0.13 s on one core of a 2-core AMD EPYC, and its bytes do not
# depend on the BLAS thread count.

_P1TAB_R = 8.0
_P1TAB_Z = 9.0
_P1TAB_STEP = 0.025


@cache
def _p1_table():
    """The bicubic table of log p_1 on the window's (r, z >= 0) grid."""
    rg = np.arange(0.0, _P1TAB_R + _P1TAB_STEP, _P1TAB_STEP)
    zg = np.arange(0.0, _P1TAB_Z + _P1TAB_STEP, _P1TAB_STEP)
    rows = [_contour_rows(r, _P1TAB_STEP, zg.size, p_only=True)[0] for r in rg]
    return BicubicTable(rg, zg, np.log(rows)[:, :, None])


def _pt_density(x, y, z):
    """Heat kernel density p_1 at the flat lab points (x, y, z) from the window table.

    On one core of a 2-core AMD EPYC the table takes about 50 ns a point,
    its intervals guessed from the grid step (FITPACK's walk from the first
    knot took 78-327 ns), and the radius (hypot) about 13 ns.
    """
    r, z = np.hypot(x, y), np.abs(np.asarray(z, dtype=float))
    if not (np.all(r <= _P1TAB_R) and np.all(z <= _P1TAB_Z)):
        raise KernelRangeError(f"p1 table covers r <= {_P1TAB_R}, |z| <= {_P1TAB_Z}")
    return np.exp(_p1_table()(r, z)[0])


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


def xhat_log_h_field() -> ScalarField:
    """f* = Xhat(log h) = x alpha(r,z) + (y/2) b(r,z) with frame gradient.

    The bundle comes from the cached spline tables, vectorized for bulk
    nested evaluation.  Rotation order 1, since alpha and b are radial:
    f* o R_{pi/2} = -y alpha + (x/2) b.  Mirror parity +1, since alpha
    is even in z and b odd.  The value and the frame gradient come from
    one bundle, so the joint evaluation costs one table lookup a point.
    """
    tabs = get_spline_tables()

    def joint(x, y, z):
        r = np.hypot(np.asarray(x, float), np.asarray(y, float))
        return _fstar_pieces(x, y, z, tabs.bundle(r, z))

    def ev(x, y, z):
        return joint(x, y, z)[0]

    def grad(x, y, z):
        return joint(x, y, z)[1:]

    ev.rotation_order, ev.mirror_parity = 1, 1
    return ScalarField(eval=ev, analytic_gradient=grad, name="xhat_log_h[spline]", joint=joint)


# ---------------------------------------------------------------------------
# complex-shifted kernels


def _star_integrand(lam, r, z):
    """cosh(lam (2 - iz)) (G(lam, r) - 2 lam e^{-d lam}), d = 1 + r^2/4, at lam > 0,
    in real arithmetic; ``r`` and ``z`` broadcast against ``lam``.  With
    u = e^{-2 lam}, g = -(r^2/2) lam u/(1-u) and a = e^{(2-d) lam}, the
    bracket is 2 lam e^{-d lam} (expm1(g) + u)/(1-u), free of cancellation,
    and e^{-d lam} (cosh, sinh)(2 lam) = a (1 +- u^2)/2.
    """
    u = np.exp(-2.0 * lam)
    one_minus_u = -np.expm1(-2.0 * lam)
    g = -0.5 * r * r * lam * u / one_minus_u
    a = lam * (np.expm1(g) + u) / one_minus_u * np.exp((1.0 - 0.25 * r * r) * lam)
    u2 = u * u
    phase = lam * z
    out = np.empty(np.broadcast(lam, r, z).shape, dtype=complex)
    out.real = a * (1.0 + u2) * np.cos(phase)
    out.imag = -(a * (1.0 - u2) * np.sin(phase))
    return out


def p1_star_shifted(r, z):
    """p1*(r, z + 2i): pole-subtracted kernel plus the surviving pole.

    q has the leading exponential of the integrand removed, so its
    shifted integral converges for every r > 0; the removed piece
    integrates in closed form to two pole terms, of which only
    1/(4 pi^2 (3 + r^2/4 - i z)^2) belongs to p1*.  For r > 2, where the
    literal p1(r, z + 2i) converges, p1* is it minus the other pole term
    h = 1/(4 pi^2 (r^2/4 - 1 + iz)^2).  h solves h_r/r + (i/2) h_z = 0, so
    (X + iY)h = 0 and h integrates to zero against (X + iY)f for f
    compactly supported in r > 2: the commutation identity does not see it.

    q is the integral of :func:`_star_integrand` on integrate_decaying's
    rule for the decay 1 + r^2/4 and the wavenumber |z|.  A point gives a
    ComplexKernelValue; arrays (broadcast together) a complex array, each
    distinct point integrated once, with the bits of its own call.
    """
    r, z = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
    if r.size == 0:
        return np.empty(r.shape, dtype=complex)
    _check_batch(r, z, "p1_star_shifted")
    if not np.all(r > 0.0):
        raise ValueError("regularized route needs r > 0")
    # each distinct (r, z), bit for bit, is integrated once
    pts = np.stack([r.ravel(), z.ravel()], axis=1)
    _, first, inverse = np.unique(pts.view(np.int64), axis=0, return_index=True,
                                  return_inverse=True)
    rf, zf = pts[first].T
    decay = 1.0 + 0.25 * rf * rf  # residual e^{-(3+r^2/4)lam} against cosh(2 lam)
    q = integrate_decaying(lambda lam, rows: _star_integrand(lam, rf[rows, None], zf[rows, None]),
                           decay, np.abs(zf)) / FOUR_PI_SQ
    value = q + 1.0 / (FOUR_PI_SQ * (3.0 + 0.25 * rf * rf - 1j * zf) ** 2)
    value = value[inverse.ravel()].reshape(r.shape)
    if value.ndim == 0:
        return ComplexKernelValue(float(value.real), float(value.imag))
    return value
