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
from dataclasses import dataclass

import numpy as np

from .group import GroupElement

__all__ = [
    "GeodesicChart",
    "DistanceResult",
    "ChartDegenerateError",
    "mu",
    "cc_distance",
    "cc_distance_many",
    "geodesic_point",
    "jacobian_A",
    "polar_from_cartesian",
    "chart_ball_nodes",
]

# branch thresholds: relative, dimensionally consistent under dilations
PLANAR_Z_FACTOR = 1e-12  # |z| < factor * r^2  -> planar
AXIS_R_FACTOR = 1e-12  # r < factor * sqrt(|z|) -> axis


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


@dataclass(frozen=True)
class DistanceResult:
    d: float
    phi: float
    branch: str  # "planar", "axis", or "generic"


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
    phi = np.asarray(phi, dtype=float)
    small = phi < 1e-3
    safe = np.where(small, 0.1, phi)
    direct = safe / np.sin(safe) ** 2 - 1.0 / np.tan(safe)
    series = (2.0 / 3.0) * phi + (4.0 / 45.0) * phi**3
    return np.where(small, series, direct)


def mu(phi: float) -> float:
    """Monotone chart function mu(phi) = phi/sin^2(phi) - cot(phi) on (0, pi)."""
    if not (0.0 < phi < math.pi):
        raise ValueError("mu is defined on the open interval (0, pi)")
    return float(_mu_arrays(phi))


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


def _solve_half_angle(target):
    """Solve mu(phi) = target on (0, pi) elementwise.

    Returns (phi, sin_phi).  sin_phi is computed from the complement
    delta = pi - phi when phi is near pi; evaluating sin at a stored
    pi - delta would cap the relative accuracy at eps/delta.
    """
    target = np.asarray(target, dtype=float)
    phi = np.empty(target.shape)
    sin_phi = np.empty(target.shape)

    low = target < _MU_SPLIT
    if np.any(low):
        t = target[low]
        lo = np.full(t.shape, 1e-300)
        hi = np.full(t.shape, _PHI_CAP)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            below = _mu_arrays(mid) < t
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
        phi[low] = mid
        sin_phi[low] = np.sin(mid)

    high = ~low
    if np.any(high):
        t = target[high]
        lo = np.full(t.shape, 1e-300)  # nu -> inf as delta -> 0
        hi = np.full(t.shape, math.pi - _PHI_CAP)
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            above = _nu_arrays(mid) >= t
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        mid = 0.5 * (lo + hi)
        phi[high] = math.pi - mid
        sin_phi[high] = np.sin(mid)

    return phi, sin_phi


def cc_distance_many(x, y, z):
    """Vectorized CC distance from the origin (values only)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast(x, y, z).shape
    x, y, z = np.broadcast_to(x, shape), np.broadcast_to(y, shape), np.broadcast_to(z, shape)
    r = np.hypot(x, y)
    az = np.abs(z)

    # az/r stays representable where r*r would underflow; at a subnormal r
    # it overflows to inf, which the planar test reads correctly
    safe_r = np.where(r > 0.0, r, 1.0)
    with np.errstate(over="ignore"):
        planar = (az == 0.0) | (az / safe_r <= PLANAR_Z_FACTOR * r)
    axis = ~planar & (r < AXIS_R_FACTOR * np.sqrt(az))
    generic = ~(planar | axis)

    d = np.zeros(shape)
    d[planar] = r[planar]
    d[axis] = 2.0 * np.sqrt(math.pi * az[axis])
    if np.any(generic):
        rg = r[generic]
        tg = 4.0 * (az[generic] / rg) / rg
        phi, sin_phi = _solve_half_angle(tg)
        d[generic] = rg * phi / sin_phi
    return d


def cc_distance(p: GroupElement) -> DistanceResult:
    """CC distance from the origin with branch and half-angle diagnostics."""
    r = math.hypot(p.x, p.y)
    az = abs(p.z)
    if az == 0.0 or (r > 0.0 and az / r <= PLANAR_Z_FACTOR * r):
        return DistanceResult(r, 0.0, "planar")
    if r < AXIS_R_FACTOR * math.sqrt(az):
        return DistanceResult(2.0 * math.sqrt(math.pi * az), math.pi, "axis")
    target = 4.0 * (az / r) / r
    phi, sin_phi = _solve_half_angle(np.asarray([target]))
    return DistanceResult(r * float(phi[0]) / float(sin_phi[0]), float(phi[0]), "generic")


def geodesic_point(chart: GeodesicChart) -> GroupElement:
    """Endpoint of the chart's unit-speed geodesic at arclength s."""
    if chart.branch == "planar":
        w = -1j * chart.u * chart.s
        return GroupElement(float(w.real), float(w.imag), 0.0)
    au = abs(chart.u)
    sigma = chart.s / au
    w = chart.u * (1.0 - complex(math.cos(sigma), math.sin(sigma)))
    zv = 0.5 * au * au * float(_phi_minus_sin(sigma))
    x, y = float(w.real), float(w.imag)
    if chart.mirror:
        return GroupElement(x, -y, -zv)
    return GroupElement(x, y, zv)


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


def polar_from_cartesian(p: GroupElement) -> GeodesicChart:
    """Invert :func:`geodesic_point`; unique off the z-axis.

    Raises :class:`ChartDegenerateError` on the z-axis.  Planar points
    (z = 0) return the straight-line sentinel branch.
    """
    r = math.hypot(p.x, p.y)
    az = abs(p.z)
    if r == 0.0 and az == 0.0:
        raise ChartDegenerateError("origin has zero arclength")
    if r < AXIS_R_FACTOR * math.sqrt(az):
        raise ChartDegenerateError(
            "z-axis point: chart is degenerate (full circle of geodesics)"
        )
    w = complex(p.x, p.y)
    if az < PLANAR_Z_FACTOR * r * r:
        return GeodesicChart(u=1j * w / r, s=r, branch="planar")
    mirror = p.z < 0.0
    if mirror:
        w = w.conjugate()
    target = 4.0 * (az / r) / r
    phi_a, sin_a = _solve_half_angle(np.asarray([target]))
    phi, sin_phi = float(phi_a[0]), float(sin_a[0])
    rho = r / (2.0 * sin_phi)
    # 1 - e^{2 i phi} = 2 sin(phi) e^{i(phi - pi/2)}, with sin via the solver
    u = w * complex(sin_phi, math.cos(phi)) / (2.0 * sin_phi)
    return GeodesicChart(u=u, s=2.0 * rho * phi, mirror=mirror)


def chart_ball_nodes(radius: float, n_s: int = 48, n_phi: int = 32, n_alpha: int = 40):
    """Quadrature nodes and Lebesgue weights covering the CC ball d <= radius.

    Tensor rule over (alpha, s, phi) with the chart density
    s^3 sin(phi)(sin(phi) - phi cos(phi))/(2 phi^4) on the z > 0 half
    plus the mirrored z < 0 copy.  Returns (x, y, z, w) flat arrays;
    sum(w * f(x,y,z)) approximates the Lebesgue integral of f over the
    ball.
    """
    if not (radius > 0.0):
        raise ValueError("radius must be > 0")
    s_nodes, s_w = np.polynomial.legendre.leggauss(n_s)
    s_nodes = 0.5 * radius * (s_nodes + 1.0)
    s_w = 0.5 * radius * s_w
    p_nodes, p_w = np.polynomial.legendre.leggauss(n_phi)
    p_nodes = 0.5 * math.pi * (p_nodes + 1.0)
    p_w = 0.5 * math.pi * p_w
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
    ang = alpha[:, None, None] + ang0[None, :, :]
    xs = (r[None, :, :] * np.cos(ang)).ravel()
    ys = (r[None, :, :] * np.sin(ang)).ravel()
    zs = np.broadcast_to(zv[None, :, :], ang.shape).ravel()
    ws = (a_w[:, None, None] * w_sp[None, :, :]).ravel()

    x_all = np.concatenate([xs, xs])
    y_all = np.concatenate([ys, -ys])
    z_all = np.concatenate([zs, -zs])
    w_all = np.concatenate([ws, ws])
    return x_all, y_all, z_all, w_all
