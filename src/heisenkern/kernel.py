"""Heat kernel at unit time, its derivatives, and complex-shifted variants.

Base integral:

    p1(r, z) = (1/4 pi^2) int_0^inf cos(lam z) G(lam, r) dlam,
    G(lam, r) = (lam/sinh lam) exp(-(r^2/4) lam coth lam),

with every other time reached through p(t, r, z) = t^{-2} p1(r/sqrt(t), z/t).

Routes: every real-kernel value comes from one fixed Gauss-Legendre
panel rule, built by _panel_kernel.  radial_row applies it to one z-row;
the point function p1 is radial_row at the single point, so its rule is
set by that point alone; p1_many and log_grad_many take one rule per run
of _CHUNK pairs, and walk each run in _BLOCK blocks, taking cos/sin once
per distinct height of a block, with the bits of a per-point evaluation.
Within one call, consecutive chunks (or spline-table rows) with the same
radii and rule share one read-only kernel, so exp runs once per distinct
radius of such a run (_KernelRuns).  The log-derivative bundle of log p1
comes from _log_bundle, row by row, for the interpolation table, which
scipy's NdBSpline evaluates.  The panels come from numerics._panel_rule,
which also gives the complex shift p1_star_shifted its fixed rule,
through numerics.integrate_decaying; no kernel value is adaptive.

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
from dataclasses import dataclass
from functools import cache

import numpy as np

from .geometry import cc_distance_many
from .group import ScalarField
from .numerics import _panel_rule, integrate_decaying

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

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("complex kernel value must be finite")

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


def p1(r: float, z: float) -> float:
    """Heat kernel at time 1 as a function of (r, z); even in z.

    radial_row on [r], so the panel rule is fitted to the point alone.
    """
    return float(radial_row(np.array([r], dtype=float), float(z))[0][0])


# ---------------------------------------------------------------------------
# batched fixed-panel evaluation


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
# points per gather within a chunk: a block's (point, node) arrays are a
# few MB, so the allocator reuses them instead of mapping fresh pages for
# each.  256 = 16 * 16, so a BLAS matrix-vector kernel that takes rows in
# groups of up to 16 groups a block's rows as it would the whole chunk's,
# and every bit is kept (test_kernel's TestPairedDistinct checks it)
_BLOCK = 256


def _panel_width(r_max: float, zmax: float) -> float:
    """Panel width resolving the decay at radius r_max and cos(lam z) up to |z| = zmax."""
    width = min(0.35, 3.0 / (1.0 + 0.25 * r_max ** 2))
    if zmax > 0.0:
        width = min(width, 0.5 * math.pi / zmax)
    return width


def _panel_kernel(rs, zmax: float):
    """(lam, w, lam coth lam, G) of the panel rule for radii ``rs``.

    The rule resolves the cos(lam z) oscillation up to |z| = zmax and the
    steepest exponential decay among ``rs``; G[i, k] = G(lam_k, rs[i]).
    The arrays are read-only, as _KernelRuns shares them.
    """
    lam, w = _panel_rule(_lambda_cutoff(float(np.min(rs))), _panel_width(float(np.max(rs)), zmax))
    lc = _lam_coth(lam)
    G = np.exp(-0.25 * np.outer(rs * rs, lc)) * _sinh_ratio(lam)[None, :]
    for a in (lam, w, lc, G):
        a.flags.writeable = False
    return lam, w, lc, G


class _KernelRuns:
    """One call's panel kernels, each built once per run that shares it.

    Consecutive chunks of a paired call, or rows of the spline table, that
    have bit-equal radii and the same panel width share one rule (equal
    radii fix the cutoff too), so _panel_kernel runs once per such run.
    Each call makes its own, so no G outlives the call that built it.
    """

    def __init__(self):
        self._key = self._kernel = None

    def __call__(self, rs, zmax: float):
        key = (_panel_width(float(np.max(rs)), zmax), rs.tobytes())
        if key != self._key:
            self._kernel = None  # frees the last G before the next is built
            self._kernel = _panel_kernel(rs, zmax)
            self._key = key
        return self._kernel


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
    return _row_sums(rs, z, _panel_kernel)


def _row_sums(rs, z: float, kernel):
    """radial_row with the panel kernel from ``kernel(rs, |z|)``."""
    rs = np.asarray(rs, dtype=float)
    if rs.size == 0:
        empty = np.empty(0)
        return (empty,) * 6
    _check_batch(rs, z, "radial_row")
    lam, w, lc, G = kernel(rs, abs(z))
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
    radii, once for each run of chunks that share them and the rule.
    Each chunk is walked in blocks of _BLOCK points: ``sums(G_rows, z_u,
    z_inv, lam, w, lc)`` gets the block's rows of G (read-only), takes cos
    and sin on the block's distinct heights z_u, gathers them through
    z_inv (its own table, so free to overwrite) and returns ``n_out``
    arrays over the block.  The (point, node) products and their
    contraction are those of a per-point evaluation, so no bit moves.
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast(r, z).shape
    r = np.broadcast_to(r, shape).ravel()
    z = np.broadcast_to(z, shape).ravel()
    if r.size:
        _check_batch(r, z, name)
    out = np.empty((n_out, r.size))
    kernels = _KernelRuns()
    for lo in range(0, r.size, _CHUNK):
        hi = min(lo + _CHUNK, r.size)
        r_u, r_inv = _distinct(r[lo:hi])
        lam, w, lc, G = kernels(r_u, float(np.max(np.abs(z[lo:hi]))))
        for b in range(lo, hi, _BLOCK):
            e = min(b + _BLOCK, hi)
            rows = slice(b - lo, e - lo) if isinstance(r_inv, slice) else r_inv[b - lo:e - lo]
            out[:, b:e] = sums(G[rows], *_distinct(z[b:e]), lam, w, lc)
    return tuple(v.reshape(shape) for v in out)


def p1_many(r, z) -> np.ndarray:
    """Vectorized p1 over paired arrays (fixed-panel route).

    Each run of _CHUNK pairs shares the rule of its own extremes, so a
    value can move with its batch-mates, within the accuracy note's
    noise floor; :func:`p1` is the same rule fitted to one point.
    exp runs once per distinct radius of a run of chunks with one rule,
    and cos once per distinct height of a _BLOCK block, which makes tensor
    grids cheap, and every value keeps the bits of a per-point evaluation.
    """

    def sums(G, z_u, z_inv, lam, w, lc):
        zl = np.outer(z_u, lam)
        Gc = np.cos(zl, out=zl)[z_inv]
        Gc *= G
        return (Gc @ w / FOUR_PI_SQ,)

    return _paired(r, z, "p1_many", sums, 1)[0]


def log_grad_many(r, z):
    """Vectorized (alpha, b) = ((d_r log p1)/r, d_z log p1) over paired arrays.

    The normalization cancels in the ratios, and alpha is computed from
    the r-stripped integrand so the axis needs no special case.  This is
    what integration-by-parts gradient routes want at quadrature nodes.
    """

    def sums(G, z_u, z_inv, lam, w, lc):
        zl = np.outer(z_u, lam)
        Gc = np.cos(zl)[z_inv]
        Gc *= G
        m0 = Gc @ w
        m1 = Gc @ (w * lc)
        Gs = np.sin(zl, out=zl)[z_inv]
        Gs *= G
        m3 = Gs @ (w * lam)
        return -0.5 * m1 / m0, -m3 / m0

    return _paired(r, z, "log_grad_many", sums, 2)


# ---------------------------------------------------------------------------
# log-derivatives of h = p1


_AXIS_EPS = 1e-8


def _log_bundle(rs, z: float, kernels=None) -> dict:
    """Partials of log p1 in radial form as arrays over ``rs`` at one z.

    a = d_r log p1 and b = d_z log p1; alpha = a/r extends evenly across
    the axis.  alpha_r, alpha_z, b_r, b_z are the partials needed for
    gradients of fields built from x alpha + (y/2) b.

    One radial_row rule serves the whole row; ``kernels``, the spline
    table's _KernelRuns, lets rows with the same radii and rule share it.
    On the axis the even/odd structure in r pins alpha = L_rr and
    alpha_r = b_r = 0.
    """
    pv, pr, pz, prr, przr, pzz = _row_sums(rs, z, kernels or _panel_kernel)
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

        # rows up to z ~ 7 keep every radius, so they share one kernel
        kernels = _KernelRuns()
        for j, z in enumerate(zs):
            mask = safe[:, j]
            if np.any(mask):
                row = _log_bundle(rs[mask], float(z), kernels)
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

    def bundle(self, r, z):
        """The six tables at the broadcast (r, z), in ``_KEYS`` order."""
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        shape = np.broadcast(r, z).shape
        r = np.broadcast_to(r, shape).ravel()
        z = np.broadcast_to(z, shape).ravel()
        q = np.stack([np.minimum(r, _TABLE_R_MAX), np.minimum(np.abs(z), _TABLE_Z_MAX)], axis=-1)
        vals = self._spline(q)
        sign = np.where(z < 0.0, -1.0, 1.0)
        vals[:, self._odd_in_z] *= sign[:, None]
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


def xhat_log_h_field() -> ScalarField:
    """f* = Xhat(log h) = x alpha(r,z) + (y/2) b(r,z) with frame gradient.

    The bundle comes from the cached spline tables, vectorized for bulk
    nested evaluation.  Rotation order 1, since alpha and b are radial:
    f* o R_{pi/2} = -y alpha + (x/2) b.
    """
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


# ---------------------------------------------------------------------------
# complex-shifted kernels


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


def p1_star_shifted(r: float, z: float) -> ComplexKernelValue:
    """p1*(r, z + 2i): pole-subtracted kernel plus the surviving pole.

    q has the leading exponential of the integrand removed, so its
    shifted integral converges for every r > 0; the removed piece
    integrates in closed form to two pole terms, of which only
    1/(4 pi^2 (3 + r^2/4 - i z)^2) belongs to p1*.  Folded onto
    [0, inf), the shifted cos(lam (z + 2i)) is cosh(lam (2 - i z)), and
    integrate_decaying's fixed rule takes the decay 1 + r^2/4 and the
    wavenumber |z|.
    """
    _check_range(r, z)
    if not (r > 0.0):
        raise ValueError("regularized route needs r > 0")
    decay = 1.0 + 0.25 * r * r  # residual e^{-(3+r^2/4)lam} against cosh(2 lam)

    def f(lam):
        return np.cosh(lam * complex(2.0, -z)) * _pole_bracket(lam, r)

    q = integrate_decaying(f, decay, abs(z)) / FOUR_PI_SQ
    pole = 1.0 / (FOUR_PI_SQ * complex(3.0 + 0.25 * r * r, -z) ** 2)
    return ComplexKernelValue(float(q.real + pole.real), float(q.imag + pole.imag))
