"""Heat kernel at unit time, its derivatives, and complex-shifted variants.

Base integral:

    p1(r, z) = (1/4 pi^2) int_0^inf cos(lam z) G(lam, r) dlam,
    G(lam, r) = (lam/sinh lam) exp(-(r^2/4) lam coth lam),

with every other time reached through p(t, r, z) = t^{-2} p1(r/sqrt(t), z/t).

Routes: every real-kernel value at scattered points comes from one
fixed Gauss-Legendre panel rule, built by _panel_kernel.  radial_row
applies it to one z-row; the point function p1 is radial_row at the
single point, so its rule is set by that point alone; p1_many and
log_grad_many take one rule per run of _CHUNK pairs, and walk each run
in _BLOCK blocks, taking cos/sin once per distinct height of a block,
with the bits of a per-point evaluation.  Within one call, consecutive
chunks with the same radii and rule share one read-only kernel, so exp
runs once per distinct radius of such a run (_KernelRuns).  The panels
come from numerics._panel_rule, which also gives each point of the
complex shift p1_star_shifted its own fixed rule, through
numerics.integrate_decaying; no value is adaptive.  The interpolation
table of the log-derivative bundle, a numerics.BicubicTable like the
harness's p1 table, is filled by _contour_rows instead: one inverse FFT
per radius on the saddle-point contour, with _log_bundle's algebra on top.

Accuracy note: on the real lam-line the integrand envelope is of size
exp(-r^2/4) while the true value is of size exp(-d^2/4), so the panel
rule carries a relative noise floor of roughly 1e-13 exp((d^2 - r^2)/4);
its callers keep the cancellation exponent (d^2 - r^2)/4 near or below
CANCEL_BUDGET.  The contour rows cancel nothing: at 16 table nodes with
exponents from 0.001 to 85, they err against a 30-digit mpmath
quadrature by at most 1.1e-13 relative in p1 and 1.5e-11 max(1, |value|)
in the bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# cc_distance_many stays importable here: the benchmark tracer wraps it in this module
from .geometry import _mu_arrays, cc_distance_many  # noqa: F401
from .group import ScalarField
from .numerics import BicubicTable, _panel_rule, integrate_decaying

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

# the panel rule's relative noise is ~1e-13 exp((d^2-r^2)/4), ~4e-4 at this
# exponent: the floor of p1_many's callers (harness._ray_s_cap stops the ray
# survey short of it); the spline table's contour rows need no budget
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

    Consecutive chunks of a paired call that have bit-equal radii and the
    same panel width share one rule (equal radii fix the cutoff too), so
    _panel_kernel runs once per such run.
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
# FFT rows on the saddle-point contour, and the interpolation table


_TABLE_R_MAX = 16.0
_TABLE_Z_MAX = 26.0
_TABLE_DR = 0.1
_TABLE_DZ = 0.2
_PAD = 15  # mirrored rows/columns so the splines see the even/odd symmetry
_PAD_TOP = 6  # extra rows/columns past the clamp box

# contour heights Im(lam) = theta of the bands, and the FFT length
_BANDS = np.linspace(0.0, math.pi - 0.3, 8)
_FFT_N = 640


def _contour_rows(r: float, dz: float, nz: int):
    """(p, p_r, p_z, p_rr, p_rz/r, p_zz) at radius r on z_j = j dz, j < nz.

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
    the axis the top one, z = 0 the real line).  The trapezoid nodes
    u_k = k h, h = 2 pi/(_FFT_N dz), cover |u| <= 45/(1 + r^2/4) + 5 in
    whole periods of _FFT_N from a multiple of it, and u_k z_j =
    2 pi k j/_FFT_N, so the nodes folded mod _FFT_N and one inverse FFT
    give the whole row; its alias terms, the value at z + 2 pi n/h, are
    below e^{-(pi - theta) 2 pi/h} ~ 2e-17 of the band's integral at
    theta = pi - 0.3 and dz = 0.2.  No bit depends on the BLAS.
    """
    n = _FFT_N
    h = 2.0 * math.pi / (n * dz)
    k_max = math.ceil((45.0 / (1.0 + 0.25 * r * r) + 5.0) / h)
    k0 = -math.ceil(k_max / n) * n  # so node k folds onto k mod n with no phase
    periods = math.ceil((k_max + 1 - k0) / n)
    zs = np.arange(nz) * dz
    saddle = 4.0 * zs / (r * r) if r > 0.0 else np.where(zs > 0.0, np.inf, 0.0)
    band = np.searchsorted(_mu_arrays(0.5 * (_BANDS[1:] + _BANDS[:-1])), saddle)
    used, pick = np.unique(band, return_inverse=True)
    theta = _BANDS[used]
    lam = (np.arange(k0, k0 + periods * n) * h)[None, :] + 1j * theta[:, None]
    at_zero = lam == 0.0
    lam_safe = np.where(at_zero, 1.0, lam)
    ratio = np.where(at_zero, 1.0, lam_safe / np.sinh(lam_safe))  # removable at lam = 0
    lc = np.where(at_zero, 1.0, lam_safe / np.tanh(lam_safe))
    g = ratio * np.exp(-0.25 * r * r * lc)
    il = 1j * lam
    f = np.stack([g, -0.5 * r * lc * g, il * g, (0.25 * r * r * lc - 0.5) * lc * g,
                  -0.5 * il * lc * g, -lam * lam * g])
    rows = np.fft.ifft(f.reshape(6, len(used), periods, n).sum(2), axis=-1)[..., :nz].real
    return rows[:, pick, np.arange(nz)] * (n * h / (2.0 * FOUR_PI_SQ) * np.exp(-theta[pick] * zs))


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
    _check_batch(r, z, "p1_star_shifted")
    r, z = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
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
