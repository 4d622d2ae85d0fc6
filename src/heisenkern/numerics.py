"""The library's Gauss-Legendre rules, its one interpolation table and
its two special functions.

:func:`gauss_legendre` maps the n-point rule to [lo, hi] for every
fixed-order rule of the library.  :func:`gauss_panels` lays the rule on
each panel between given edges, for ``mc.kernel_cell_masses`` (the
chi-squared masses), the harness's ray survey and :func:`_panel_rule`'s
12-point panels on [0, lam_max], which serve only
:func:`integrate_decaying`, the integral over [0, inf) of an
exponentially decaying integrand.  No rule here adapts to its
integrand: the nodes are set by the arguments alone.  A node count that
is no integer >= 1, a wavenumber that is negative or not finite and a
decay rate that is not finite and > 0 raise ValueError.  Only the kernel's
complex shift p1*(r, z + 2i) calls :func:`integrate_decaying`.
:class:`QuadratureSpec` selects the semigroup's node tier.
:class:`BicubicTable` holds the kernel's spline bundle and the harness's
p1 window table.  :func:`_ndtri`, Phi^{-1} by Wichura's AS 241, gives the
harness's Gaussian isoperimetric profile, and :func:`_chi2_sf`, the
chi-squared survival function at an integer dof, the Monte Carlo
p-value.  The module needs numpy only, as does every heisenkern module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = ["BicubicTable", "QuadratureSpec", "gauss_legendre", "gauss_panels", "integrate_decaying"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Target accuracy of the semigroup's heat measure.

    ``abs_tol`` selects the node tier of semigroup.heat_measure: at or
    above 1e-4 the nested tier, at or above 1e-6 the coarse tier, and
    below that (the default 1e-10) the fine tier.
    """

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be > 0")


def _integral(value, name: str, low: int) -> int:
    """``value`` as an int >= low; an integral float counts, anything else raises."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value or as_int < low:
        raise ValueError(f"{name} must be an integer >= {low}")
    return as_int


@cache
def _leggauss(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], read-only since it is shared."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre(lo: float, hi: float, n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [lo, hi]."""
    nodes, weights = _leggauss(_integral(n, "n", 1))
    return 0.5 * (hi - lo) * (nodes + 1.0) + lo, 0.5 * (hi - lo) * weights


def gauss_panels(edges, n: int):
    """(nodes, weights) of the n-point Gauss-Legendre rule on each panel
    between consecutive ``edges`` (last axis): its midpoint plus its
    half-width times the [-1, 1] rule, rounded unlike :func:`gauss_legendre`."""
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    x, w = _leggauss(_integral(n, "n", 1))
    shape = (*edges.shape[:-1], -1)
    nodes = mid[..., None] + half[..., None] * x
    return nodes.reshape(shape), (half[..., None] * w).reshape(shape)


def _panel_rule(lam_max, width):
    """(nodes, weights) of 12-point Gauss panels no wider than ``width`` on [0, lam_max].

    Arrays of lam_max and width whose panel counts agree give one row per
    entry, each with the bits of its own scalar call.
    """
    n = max(1, int(np.max(np.ceil(lam_max / width))))
    return gauss_panels(np.linspace(0.0, lam_max, n + 1, axis=-1), 12)


# integrate_decaying cuts [0, inf) where exp(-decay_rate lam) reaches e^-40 (4e-18)
_DECAY_CUTOFF = 40.0
# points per integrand call, which bounds its (point, node) arrays: 128 x 480
# nodes for p1* on a bump panel, 128 x 15,288 at the kernel's |z| = 50
_ROWS = 128


def integrate_decaying(f, decay_rate, wavenumber):
    """Integrate ``f`` over [0, inf), for |f| of order exp(-decay_rate lam).

    A fixed rule, set by the arguments alone: 12-point Gauss-Legendre
    panels on [0, 40/decay_rate], each no wider than the decay length
    1/decay_rate or a quarter period pi/(2 wavenumber) of the integrand's
    cos/sin(wavenumber lam) factor.  The arguments broadcast together and
    give one integral per point, each on its own rule: ``f(lam, rows)``
    maps the nodes of the flat point indices ``rows``, a row each, to
    their values, real or complex, and the integrals have their type and
    the arguments' shape.  Points are grouped by panel count and each row
    is summed on its own, so a value does not depend on its batch.
    """
    decay, k = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (decay_rate, wavenumber)))
    shape, decay, k = decay.shape, decay.ravel(), k.ravel()
    if not np.all((decay > 0.0) & (decay < math.inf)):
        raise ValueError("decay_rate must be finite and > 0")
    if not np.all((k >= 0.0) & (k < math.inf)):
        raise ValueError("wavenumber must be finite and >= 0")
    quarter = np.divide(0.5 * math.pi, k, out=np.full(k.shape, np.inf), where=k > 0.0)
    width = np.minimum(1.0 / decay, quarter)
    lam_max = _DECAY_CUTOFF / decay
    counts = np.ceil(lam_max / width)
    sums = []
    for n in np.unique(counts):
        group = np.flatnonzero(counts == n)
        for lo in range(0, group.size, _ROWS):
            rows = group[lo:lo + _ROWS]
            lam, w = _panel_rule(lam_max[rows], width[rows])
            sums.append((rows, np.add.reduce(w * f(lam, rows), axis=-1)))
    out = np.empty(decay.size, dtype=np.result_type(*(s for _, s in sums)))
    for rows, s in sums:
        out[rows] = s
    return out.reshape(shape)


# points per BicubicTable evaluation block
_TABLE_BLOCK = 8192


def _interval(t, x, g0, inv):
    """The knot interval l of each x: t[l] <= x < t[l + 1], clamped to [3, n - 5].
    The knots t[4:-4] are the grid nodes from the third on, so (x - g0) inv + 2
    is l to within one, and one comparison on each side makes it exact."""
    n = len(t)
    l = np.clip(((x - g0) * inv).astype(np.intp) + 2, 3, n - 5)
    l -= (x < t[l]) & (l > 3)
    l += (x >= t[l + 1]) & (l < n - 5)
    return l


def _cubic_basis(t, x, l):
    """The (4, n) cubic B-splines nonzero on interval l, by de Boor's recurrence."""
    tk = {d: t[l + d] for d in range(-2, 4)}
    h = [1.0]
    for j in (1, 2, 3):
        hh, h = h, [0.0] * (j + 1)
        for i in range(1, j + 1):
            f = hh[i - 1] / (tk[i] - tk[i - j])
            h[i - 1] = h[i - 1] + f * (tk[i] - x)
            h[i] = f * (x - tk[i - j])
    return np.array(h)


class BicubicTable:
    """The bicubic interpolating spline of the k values ``values[i, j]`` at
    each node (xg[i], yg[j]) of a uniform grid.

    The knots ``t`` are FITPACK's for s = 0, each grid end four times and
    the nodes g[2:-2] between; the read-only coefficients ``c``, shaped as
    ``values``, solve the collocation at the nodes along each axis (de Boor,
    A Practical Guide to Splines).  A grid of fewer than 4 nodes or not
    increasing and uniform to a quarter step, and ``values`` of another
    shape or not finite, raise ValueError.  A call gives the (k, n) values
    at the flat points (x, y), past the edges from the end pieces: each
    point's 16 terms c * (hx_i * hy_j) are added to zero i-major, as
    scipy's tensor-product B-spline evaluation adds them, so a value
    depends on its own point only, not on its batch-mates or the blocks.
    """

    def __init__(self, xg, yg, values):
        grids = [np.asarray(g, dtype=float) for g in (xg, yg)]
        for name, g in zip(("xg", "yg"), grids):
            if g.ndim != 1 or g.size < 4 or not np.all(np.isfinite(g)):
                raise ValueError(f"{name} must be a finite 1-d grid of at least 4 nodes")
            even = np.linspace(g[0], g[-1], g.size)
            if not (np.all(np.diff(g) > 0.0) and np.all(np.abs(g - even) <= 0.25 * (even[1] - even[0]))):
                raise ValueError(f"{name} must be increasing and uniform to a quarter step")
        (nx, ny), c = (g.size for g in grids), np.asarray(values, dtype=float)
        if c.ndim != 3 or c.shape[:2] != (nx, ny):
            raise ValueError(f"values must have shape ({nx}, {ny}, k), not {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("values must be finite")
        self.t = tuple(np.concatenate([np.full(4, g[0]), g[2:-2], np.full(4, g[-1])]) for g in grids)
        self._axes = [(t, g[0], (g.size - 1) / (g[-1] - g[0])) for t, g in zip(self.t, grids)]
        for (t, g0, inv), g in zip(self._axes, grids):
            l = _interval(t, g, g0, inv)
            colloc = np.zeros((g.size, g.size))
            colloc[np.arange(g.size)[:, None], l[:, None] + np.arange(-3, 1)] = _cubic_basis(t, g, l).T
            # solve along the leading axis, then swap the grid axes
            c = np.linalg.solve(colloc, c.reshape(g.size, -1)).reshape(c.shape).transpose(1, 0, 2)
        # one contiguous row of coefficients per component, for the gathers
        self._rows = np.ascontiguousarray(c.transpose(2, 0, 1)).reshape(c.shape[2], -1)
        for a in (*self.t, self._rows):
            a.flags.writeable = False
        self.c = self._rows.reshape(-1, nx, ny).transpose(1, 2, 0)
        # flat offsets of a point's 4 x 4 coefficients, i-major
        self._offsets = (np.arange(4)[:, None] * ny + np.arange(4)).reshape(16, 1)

    def __call__(self, x, y):
        (tx, x0, xinv), (ty, y0, yinv) = self._axes
        out = np.zeros((len(self._rows), x.size))
        for s in range(0, x.size, _TABLE_BLOCK):
            xb, yb, acc = x[s:s + _TABLE_BLOCK], y[s:s + _TABLE_BLOCK], out[:, s:s + _TABLE_BLOCK]
            lx, ly = _interval(tx, xb, x0, xinv), _interval(ty, yb, y0, yinv)
            at = (lx - 3) * (len(ty) - 4) + (ly - 3) + self._offsets
            basis = (_cubic_basis(tx, xb, lx)[:, None] * _cubic_basis(ty, yb, ly)).reshape(16, -1)
            # one (k, block) term at a time, not all 16 gathered at once
            for ij in range(16):
                term = np.take(self._rows, at[ij], axis=1)
                term *= basis[ij]
                acc += term
        return out


# Wichura's AS 241 (PPND16), Applied Statistics 37 (1988) 477-484: Phi^{-1}
# as three degree-7 rationals, (numerator, denominator) highest power first.
# The central one is in r = 0.180625 - q^2, q = u - 1/2, |q| <= 0.425; the
# tails in s = sqrt(-log min(u, 1 - u)), as s - 1.6 up to s = 5, else s - 5.
_AS241 = (
    ((2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
      4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
      1.3314166789178437745e2, 3.3871328727963666080e0),
     (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
      2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
      4.2313330701600911252e1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
      4.63033784615654529590e0, 1.42343711074968357734e0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
      2.05319162663775882187e0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
      5.46378491116411436990e0, 6.65790464350110377720e0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)),
)


def _as241(branch: int, x, scale=1.0):
    """scale * num(x) / den(x) in AS 241's order, each polynomial by Horner's
    rule (in place on an array x, rebinding on a scalar)."""
    polys = []
    for coefs in _AS241[branch]:
        y = x * coefs[0]
        y += coefs[1]
        for c in coefs[2:]:
            y *= x
            y += c
        polys.append(y)
    return scale * polys[0] / polys[1]


def _ndtri(u):
    """Phi^{-1}(u) for u in [0, 1] by AS 241, -inf and inf at the ends.

    When every u is central (the harness's squashed Bobkov values all
    are) one rational gives them all.
    """
    u = np.asarray(u, dtype=float)
    q = u - 0.5
    central = np.abs(q) <= 0.425
    if central.all():
        return _as241(0, 0.180625 - q * q, q)
    out = np.empty_like(q)
    out[central] = _as241(0, 0.180625 - q[central] ** 2, q[central])
    tail = ~central
    with np.errstate(divide="ignore"):    # s = inf at u = 0 and 1, kept as Phi^{-1}'s size
        s = np.sqrt(-np.log(np.minimum(u, 1.0 - u)[tail]))
    x, near, far = s.copy(), s <= 5.0, (s > 5.0) & (s < np.inf)
    x[near] = _as241(1, s[near] - 1.6)
    x[far] = _as241(2, s[far] - 5.0)
    out[tail] = np.copysign(x, q[tail])
    return out


def _chi2_sf(x: float, dof: int) -> float:
    """P(chi^2_dof > x) for an integer dof >= 1 and a finite x >= 0.

    A finite sum of positive terms in lam = x/2: e^-lam sum_{j < dof/2}
    lam^j / j! for even dof, and erfc(sqrt(lam)) plus e^-lam
    sum_{j < (dof-1)/2} lam^(j+1/2) / Gamma(j + 3/2) for odd dof.  e^-lam
    enters as 2^k equal factors e^(-lam/2^k), lam/2^k < 512 (an exact
    division), one applied each time the running term passes 1e200 and
    the rest at the end, so no term overflows and none underflows early.
    """
    lam, odd = 0.5 * x, dof % 2
    k = max(0, math.frexp(lam / 512.0)[1])
    factor, left = math.exp(-math.ldexp(lam, -k)), 1 << k
    term = 2.0 * math.sqrt(lam / math.pi) if odd else 1.0
    total = 0.0
    for j in range(dof // 2):
        if term > 1e200 and left:
            term, total, left = term * factor, total * factor, left - 1
        total += term
        term *= lam / (j + 1.0 + 0.5 * odd)
    while left and total:
        total, left = total * factor, left - 1
    return (_erfc_sqrt(lam) if odd else 0.0) + total


def _erfc_sqrt(lam: float) -> float:
    """erfc(sqrt(lam)) for lam >= 0, corrected for the rounded root s: r = lam - s^2
    is exact from Dekker's split of s into 26-bit halves, and sqrt(lam) = s + r/(2s)
    to second order.  Uncorrected, the error is about lam 2^-53 (5.8e-14 at 300)."""
    s = math.sqrt(lam)
    if s == 0.0:
        return 1.0
    hi = 134217729.0 * s - (134217729.0 * s - s)      # 2^27 + 1 splits s
    lo = s - hi
    r = (lam - s * s) - (((hi * hi - s * s) + 2.0 * hi * lo) + lo * lo)
    return math.erfc(s) - r * math.exp(-lam) / (s * math.sqrt(math.pi))
