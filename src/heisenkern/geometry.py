"""Carnot-Caratheodory geometry: geodesics, distance, polar charts.

Unit-speed geodesics from the origin are indexed by a complex parameter
u and arclength s in (0, 2 pi |u|]:

    horizontal part  w(s) = u (1 - e^{i s/|u|}),
    vertical part    z(s) = (|u|^2/2) (s/|u| - sin(s/|u|)),

which sweeps the upper half-space z > 0; z < 0 comes from the mirror
isometry (x, y, z) -> (x, -y, -z) and z = 0 from the straight-line limit
|u| -> infinity.  With the half-angle phi = s/(2|u|) in (0, pi) the
chart satisfies r = 2|u| sin(phi), mu(phi) r^2 = 4 z and d = r phi/sin(phi)
for mu(t) = t/sin(t)^2 - cot(t), so the distance solve is a monotone
root-find in phi.  The cut locus is the z-axis (phi = pi).

The volume element in chart coordinates is A(u, s) du ds (du the planar
Lebesgue measure) with A = 4 |u| sin(phi) (sin(phi) - phi cos(phi));
rewritten over (alpha, s, phi) it is
s^3 sin(phi)(sin(phi) - phi cos(phi))/(2 phi^4) dalpha ds dphi per
half-space, which :func:`chart_ball_nodes` discretizes for integrals
over CC balls.  Both forms are pinned by the change-of-variables tests
against Cartesian integration.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import _integral, gauss_legendre

__all__ = [
    "cc_distance_many",
    "jacobian_A",
    "chart_ball_nodes",
]

# branch thresholds: relative, dimensionally consistent under dilations
PLANAR_Z_FACTOR = 1e-12  # |z| < factor * r^2  -> planar
AXIS_R_FACTOR = 1e-12  # r < factor * sqrt(|z|) -> axis


def _phi_minus_sin(phi):
    """phi - sin(phi), series-guarded against cancellation near 0."""
    phi = np.asarray(phi, dtype=float)
    small = np.abs(phi) < 1e-2
    p2 = phi * phi
    series = phi * p2 / 6.0 * (1.0 - p2 / 20.0 * (1.0 - p2 / 42.0))
    return np.where(small, series, phi - np.sin(phi))


def _sin_minus_phicos(phi):
    """sin(phi) - phi cos(phi), series-guarded against cancellation near 0."""
    phi = np.asarray(phi, dtype=float)
    small = np.abs(phi) < 1e-2
    p2 = phi * phi
    series = phi * p2 / 3.0 * (1.0 - p2 / 10.0 * (1.0 - p2 / 28.0))
    return np.where(small, series, np.sin(phi) - phi * np.cos(phi))


def _mu_arrays(phi):
    """Monotone chart function mu(phi) = phi/sin^2(phi) - cot(phi) on (0, pi)."""
    phi = np.asarray(phi, dtype=float)
    small = phi < 1e-3
    safe = np.where(small, 0.1, phi)
    direct = safe / np.sin(safe) ** 2 - 1.0 / np.tan(safe)
    series = (2.0 / 3.0) * phi + (4.0 / 45.0) * phi**3
    return np.where(small, series, direct)


# targets below mu(2.6) bracket inside (0, 2.6]; larger ones are handled
# in the complement variable delta = pi - phi
_PHI_CAP = 2.6


def _nu_arrays(delta):
    """mu(pi - delta) = (pi - delta)/sin^2(delta) + cot(delta), decreasing."""
    delta = np.asarray(delta, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        s = np.sin(delta)
        return (math.pi - delta) / (s * s) + np.cos(delta) / s


_MU_SPLIT = float(_mu_arrays(_PHI_CAP))


def _bisect(step, t, hi):
    """90 halvings of [1e-300, hi] elementwise over t, lo rising where step(mid)."""
    lo, hi = np.full(t.shape, 1e-300), np.full(t.shape, hi)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        up = step(mid)
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def _solve_half_angle(target):
    """Solve mu(phi) = target on (0, pi) elementwise.

    Returns (phi, sin_phi).  sin_phi is computed from the complement
    delta = pi - phi when phi is near pi; evaluating sin at a stored
    pi - delta would cap the relative accuracy at eps/delta.
    """
    target = np.asarray(target, dtype=float)
    phi, sin_phi = np.empty(target.shape), np.empty(target.shape)
    low = target < _MU_SPLIT
    high = ~low
    if np.any(low):
        t = target[low]
        phi[low] = mid = _bisect(lambda m: _mu_arrays(m) < t, t, _PHI_CAP)
        sin_phi[low] = np.sin(mid)
    if np.any(high):  # in delta = pi - phi, where nu -> inf as delta -> 0
        t = target[high]
        mid = _bisect(lambda m: _nu_arrays(m) >= t, t, math.pi - _PHI_CAP)
        phi[high] = math.pi - mid
        sin_phi[high] = np.sin(mid)
    return phi, sin_phi


def cc_distance_many(x, y, z):
    """Vectorized CC distance from the origin over the broadcast (x, y, z);
    a non-finite coordinate raises ValueError."""
    x, y, z = (np.asarray(a, dtype=float) for a in (x, y, z))
    if not all(np.all(np.isfinite(a)) for a in (x, y, z)):
        raise ValueError("coordinates must be finite")
    shape = np.broadcast(x, y, z).shape
    x, y, z = (np.broadcast_to(a, shape) for a in (x, y, z))
    r = np.hypot(x, y)
    az = np.abs(z)

    # az/r stays representable where r*r would underflow; at a subnormal r
    # it overflows to inf, which the planar test reads correctly
    safe_r = np.where(r > 0.0, r, 1.0)
    with np.errstate(over="ignore"):
        planar = (az == 0.0) | (az / safe_r <= PLANAR_Z_FACTOR * r)
    axis = ~planar & (r < AXIS_R_FACTOR * np.sqrt(az))
    generic = ~(planar | axis)

    d = np.where(planar, r, 0.0)
    d[axis] = 2.0 * np.sqrt(math.pi * az[axis])
    if np.any(generic):
        rg = r[generic]
        phi_g, sin_phi = _solve_half_angle(4.0 * (az[generic] / rg) / rg)
        d[generic] = rg * phi_g / sin_phi
    return d


def jacobian_A(u_abs: float, s):
    """Chart volume density: dx dy dz = A(u, s) du ds, du planar Lebesgue.

    A(u, s) = 4 |u| sin(phi) (sin(phi) - phi cos(phi)) with phi = s/(2|u|).
    Degree 1 under (u, s) -> (lambda u, lambda s), so A du ds picks up
    lambda^4, matching the Lebesgue factor of the dilation (lambda x,
    lambda y, lambda^2 z).  The coefficient is pinned by the Cartesian
    change-of-variables tests; the variant with (phi - sin(phi)) in the
    last factor fails them by a non-constant factor.  ``s`` may be an
    array; a scalar s gives a float.
    """
    au = abs(u_abs)
    s_arr = np.asarray(s, dtype=float)
    if not (au > 0.0 and np.all((0.0 < s_arr) & (s_arr <= 2.0 * math.pi * au * (1.0 + 1e-12)))):
        raise ValueError("need |u| > 0 and 0 < s <= 2 pi |u|")
    phi = s_arr / (2.0 * au)
    a = 4.0 * au * np.sin(phi) * _sin_minus_phicos(phi)
    return float(a) if a.ndim == 0 else a


def chart_ball_nodes(radius: float, n_s: int = 48, n_phi: int = 32, n_alpha: int = 40):
    """Quadrature nodes and Lebesgue weights covering the CC ball d <= radius.

    Tensor rule over (alpha, s, phi) with the chart density
    s^3 sin(phi)(sin(phi) - phi cos(phi))/(2 phi^4) on the z > 0 half
    plus the mirrored z < 0 copy.  Returns (x, y, z, w) flat arrays;
    sum(w * f(x,y,z)) approximates the Lebesgue integral of f over the
    ball.
    """
    if not (0.0 < radius < math.inf):
        raise ValueError("radius must be finite and > 0")
    n_alpha = _integral(n_alpha, "n_alpha", 1)
    s_nodes, s_w = gauss_legendre(0.0, radius, n_s)
    p_nodes, p_w = gauss_legendre(0.0, math.pi, n_phi)
    alpha = (np.arange(n_alpha) + 0.5) * (2.0 * math.pi / n_alpha)
    a_w = np.full(n_alpha, 2.0 * math.pi / n_alpha)

    s = s_nodes[:, None]
    phi = p_nodes[None, :]
    density = 0.5 * s**3 * np.sin(phi) * _sin_minus_phicos(phi) / phi**4
    w_sp = density * (s_w[:, None] * p_w[None, :])

    rho = s / (2.0 * phi)
    r = np.broadcast_to(2.0 * rho * np.sin(phi), (n_s, n_phi))
    zv = np.broadcast_to(0.5 * rho * rho * _phi_minus_sin(2.0 * phi), (n_s, n_phi))
    # horizontal direction at alpha = 0: (1 - e^{2 i phi}) has argument phi - pi/2
    ang0 = np.broadcast_to(phi - 0.5 * math.pi, (n_s, n_phi))
    # at even n_alpha the rotation by alpha + pi is the exact half-turn
    # (x, y) -> (-x, -y) of the one by alpha.  A pairwise sum whose halves
    # fall on the two, as np.sum's do on the semigroup tiers, of values
    # odd in (x, y) (X P_t f at the origin for f radial in (x, y)) is 0
    turns = n_alpha // 2 if n_alpha % 2 == 0 else n_alpha
    ang = alpha[:turns, None, None] + ang0[None, :, :]
    xs, ys = r[None, :, :] * np.cos(ang), r[None, :, :] * np.sin(ang)
    if turns < n_alpha:
        xs, ys = np.concatenate([xs, -xs]), np.concatenate([ys, -ys])
    xs, ys = xs.ravel(), ys.ravel()
    zs = np.broadcast_to(zv[None, :, :], (n_alpha, n_s, n_phi)).ravel()
    ws = (a_w[:, None, None] * w_sp[None, :, :]).ravel()

    x_all = np.concatenate([xs, xs])
    y_all = np.concatenate([ys, -ys])
    z_all = np.concatenate([zs, -zs])
    w_all = np.concatenate([ws, ws])
    return x_all, y_all, z_all, w_all
