"""Heat semigroup P_t = e^{tL} applied by quadrature against the kernel.

P_t f(x) = int f(x.y) p_t(y) dy, truncated to the CC ball
d(y) <= 10 sqrt(t) in the geodesic polar chart; the Gaussian decay of
the kernel keeps the discarded mass small.  The measure at time t is
the t = 1 measure of the same node tier, dilated, so the kernel is
evaluated and the mass deficit 1 - int_{d<=10} p_1 <= MASS_DEFICIT_TOL
certified once per tier, whose t = 1 measure alone is cached, with
read-only arrays.  Points x != 0 reduce to the origin by left-translating
f, so there is a single kernel center.

Everything is pure given a config.  Nested quadratures hand f whole
node arrays (and are free to do so concurrently), so a field's eval
must be reentrant and broadcast over arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cache

import numpy as np

from .geometry import chart_ball_nodes
from .group import GroupElement, ScalarField, _mul_arrays
from .kernel import log_grad_many, p1_many
from .numerics import QuadratureSpec, gauss_legendre

__all__ = [
    "MASS_DEFICIT_TOL",
    "COARSE_TIER",
    "HeatOpConfig",
    "MassDeficitError",
    "HeatMeasure",
    "heat_measure",
    "variance",
    "grad_sums",
    "grad_Pt_at",
    "grad_Pt_origin",
    "interpolation_variance",
]

MASS_DEFICIT_TOL = 1e-6
# dimensionless truncation radius R: the measure at t covers d <= R sqrt(t).
# Below about 8.5 the discarded kernel mass exceeds MASS_DEFICIT_TOL, and
# above 25 the chart's z extent R^2/(4 pi) leaves the kernel's range.
_DOMAIN_RADIUS = 10.0

# node tier switches: specs at or above these abs_tols get reduced rules
# meant for the legs of nested double quadratures
_COARSE_ABS_TOL = 1e-6
_NESTED_ABS_TOL = 1e-4
# the spec that selects the coarse tier
COARSE_TIER = QuadratureSpec(abs_tol=_COARSE_ABS_TOL)

_ORIGIN = GroupElement(0.0, 0.0, 0.0)

# bytes of one (points x nodes) array of translated nodes: 5 points at
# the 3,072-node nested tier.  A block's three translated-node arrays stay
# live while each orbit-basis field's frame gradient and the grad_sums
# buffer come and go: 8-10 such arrays at the peak for polynomial fields
# and 21 for the spline field f*.  Each stays below glibc's default
# 128 KiB mmap threshold, so it comes from the heap: at 384 KiB a nested
# pass took 115,655 minor page faults (4,064 at this size), unless an
# earlier free of a multi-MB array had raised the threshold
_BLOCK_BYTES = 120 << 10


class MassDeficitError(ValueError):
    """Truncated-domain kernel mass check failed for a config."""


@dataclass(frozen=True)
class HeatOpConfig:
    """Time and quadrature tier for one P_t.

    The measure covers d <= 10 sqrt(t).  ``quad.abs_tol`` picks the node
    tier: >= 1e-4 gives the nested tier and >= 1e-6 the coarse tier, the
    reduced rules meant for the legs of nested quadratures; anything
    tighter gives the fine tier.  A tier caches its t = 1 measure alone.
    """

    t: float
    quad: QuadratureSpec = dataclass_field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if not (0.0 < self.t < math.inf):
            raise ValueError("t must be finite and > 0")


def _node_counts(abs_tol: float):
    """(n_s, n_phi, n_alpha) of the tier that ``abs_tol`` selects."""
    if abs_tol >= _NESTED_ABS_TOL:
        return 16, 12, 8
    if abs_tol >= _COARSE_ABS_TOL:
        return 22, 16, 10
    return 32, 24, 16


def _spread(v: np.ndarray, size: int, odd: bool = False) -> np.ndarray:
    """Radial-node values copied to every alpha rotation, then to the z < 0 mirror."""
    half = np.tile(v, size // (2 * v.size))
    return np.concatenate([half, -half if odd else half])


@dataclass(frozen=True)
class HeatMeasure:
    """Chart nodes carrying the discrete heat measure of one config.

    ``mu`` (Lebesgue weight times kernel value) sums against node values
    to approximate integrals over d <= 10 sqrt(t).  By the parabolic
    scaling p_t(x, y, z) = t^-2 p_1(x/sqrt t, y/sqrt t, z/t), every
    measure dilates the t = 1 measure of its tier, of node counts
    ``counts``: x and y scaled by sqrt(t), z by t, ``mu`` and the mass
    deficit unchanged.
    """

    t: float
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    deficit: float
    counts: tuple          # (n_s, n_phi, n_alpha) of the node tier

    def hat_log_grad(self):
        """(Xhat log p_t, Yhat log p_t) at the nodes; the t = 1 pair over sqrt(t)."""
        gx, gy = _hat_log_grad(self.counts)
        st = math.sqrt(self.t)
        return gx / st, gy / st

    def at(self, t: float) -> "HeatMeasure":
        """This tier's measure at time t, built afresh; at t = 1 the cached one."""
        base, st = _base_measure(*self.counts), math.sqrt(t)
        if t == 1.0:
            return base
        return HeatMeasure(t, base.x * st, base.y * st, base.z * t, base.mu, base.deficit,
                           self.counts)


@cache
def _base_measure(n_s: int, n_phi: int, n_alpha: int) -> HeatMeasure:
    """The t = 1 measure over d <= _DOMAIN_RADIUS on one node tier, its mass
    checked and its arrays read-only.  The kernel depends on (r, |z|) only,
    so it is evaluated on the n_s x n_phi radial nodes of the chart and
    copied to every alpha rotation and to the z < 0 mirror: the value is
    the same bits on every symmetric copy.
    """
    x, y, z, w = chart_ball_nodes(_DOMAIN_RADIUS, n_s=n_s, n_phi=n_phi, n_alpha=n_alpha)
    n = n_s * n_phi
    mu = w * _spread(p1_many(np.hypot(x[:n], y[:n]), z[:n]), w.size)
    deficit = abs(1.0 - float(np.sum(mu)))
    if deficit > MASS_DEFICIT_TOL:
        raise MassDeficitError(
            f"kernel mass deficit {deficit:.3e} over d <= {_DOMAIN_RADIUS:g} sqrt(t) "
            f"exceeds {MASS_DEFICIT_TOL:g}"
        )
    for a in (x, y, z, mu):
        a.flags.writeable = False
    return HeatMeasure(1.0, x, y, z, mu, deficit, (n_s, n_phi, n_alpha))


@cache
def _hat_log_grad(counts: tuple):
    """(Xhat log p_1, Yhat log p_1) at the nodes of the tier's t = 1 measure; read-only."""
    m = _base_measure(*counts)
    n = counts[0] * counts[1]
    alpha, b = log_grad_many(np.hypot(m.x[:n], m.y[:n]), m.z[:n])
    alpha = _spread(alpha, m.x.size)
    b = _spread(b, m.x.size, odd=True)  # d_z log p1 is odd in z
    gx, gy = m.x * alpha + 0.5 * m.y * b, m.y * alpha - 0.5 * m.x * b
    gx.flags.writeable = gy.flags.writeable = False
    return gx, gy


def heat_measure(cfg: HeatOpConfig) -> HeatMeasure:
    """The measure for ``cfg``: its tier's cached t = 1 measure, dilated to cfg.t.

    Raises :class:`MassDeficitError` when |1 - sum mu| exceeds
    MASS_DEFICIT_TOL; that covers both truncation loss and rule error.
    The check runs once per tier, on the t = 1 measure, since the
    dilation leaves ``mu`` unchanged.  A measure at t != 1 is not
    cached, so distinct times retain no memory.
    """
    return _base_measure(*_node_counts(cfg.quad.abs_tol)).at(cfg.t)


def _check_points(*coords):
    if not all(np.all(np.isfinite(c)) for c in coords):
        raise ValueError("points must be finite")


def _values_at(f: ScalarField, measure: HeatMeasure, x: GroupElement) -> np.ndarray:
    _check_points(x.x, x.y, x.z)
    qx, qy, qz = _mul_arrays(x.x, x.y, x.z, measure.x, measure.y, measure.z)
    vals = np.asarray(f.eval(qx, qy, qz), dtype=float)
    return np.broadcast_to(vals, measure.mu.shape)


def _translated_nodes(measure: HeatMeasure, x, y, z):
    """The measure's nodes left-translated by the points (x, y, z), in blocks.

    Yields (rows, qx, qy, qz): for the points in slice ``rows``,
    q[i, k] = (x_i, y_i, z_i) . y_k.  A block holds about _BLOCK_BYTES
    per array, so the temporaries built from it stay in cache; a row sum
    has the same bits in any block.  A non-finite point raises ValueError.
    """
    x, y, z = (np.asarray(a, dtype=float).reshape(-1) for a in (x, y, z))
    _check_points(x, y, z)
    step = max(1, _BLOCK_BYTES // measure.x.nbytes)
    for rows in (slice(lo, lo + step) for lo in range(0, x.size, step)):
        yield (rows, *_mul_arrays(x[rows, None], y[rows, None], z[rows, None],
                                  measure.x, measure.y, measure.z))


def variance(f: ScalarField, cfg: HeatOpConfig, x: GroupElement = _ORIGIN) -> float:
    """P_t(f^2)(x) - (P_t f(x))^2, as a true probability-measure variance.

    The weights are renormalized to unit mass (they sum to 1 - deficit,
    deficit <= 1e-6), which keeps the result nonnegative by construction
    instead of up-to-the-deficit.
    """
    measure = heat_measure(cfg)
    vals = _values_at(f, measure, x)
    w = measure.mu / np.sum(measure.mu)
    mean = float(np.add.reduce(w * vals, axis=-1))
    return float(np.add.reduce(w * (vals - mean) ** 2, axis=-1))


def grad_Pt_origin(f: ScalarField, cfg: HeatOpConfig, route: str):
    """(X P_t f, Y P_t f) at the origin by a route other than :func:`grad_Pt_at`.

    The one route, ``"ibp"``, moves the derivative onto the kernel:
    -sum mu_k f(y_k) (Xhat log p_t)(y_k), likewise Yhat, so it reads no
    gradient of f.  Any other route raises ValueError.  No library code
    calls it: the tests check it against grad_Pt_at and differences of
    oracles.apply_Pt_many, and the benchmark's tracer test runs it.
    """
    if route != "ibp":
        raise ValueError(f"unknown route {route!r}; the one route is 'ibp'")
    measure = heat_measure(cfg)
    gx, gy = measure.hat_log_grad()
    vals = _values_at(f, measure, _ORIGIN)
    return (
        -float(np.add.reduce(measure.mu * (vals * gx), axis=-1)),
        -float(np.add.reduce(measure.mu * (vals * gy), axis=-1)),
    )


def _gradient(f: ScalarField):
    """f's analytic frame gradient; a field without one raises ValueError."""
    if f.analytic_gradient is None:
        raise ValueError(f"field {f.name!r} lacks an analytic gradient")
    return f.analytic_gradient


def grad_sums(weights, grad, dx, dy):
    """(X P_t f(w), Y P_t f(w)) from a quadrature of
    P_t f(w) = int f(q) p_t(w^{-1} q) dq on nodes q_k with weights w_k:

        X P_t f(w) = sum_k w_k (Xf + dy_k Zf)(q_k)
        Y P_t f(w) = sum_k w_k (Yf - dx_k Zf)(q_k)

    ``grad`` is (Xf, Yf, Zf) at the q_k and (dx_k, dy_k) the planar part
    of y_k = w^{-1} q_k: moving X from w to q = w . y turns it into
    X + y_2 Z, and Y into Y - y_1 Z.  Every argument broadcasts and the
    sums run over the last axis.  np.add.reduce sums each row in an order
    fixed by the row alone, so a value does not depend on the others.
    Both summands are built in one buffer, so a caller holding large dx
    and dy adds one temporary of their size, not two per sum.
    """
    gx, gy, gz = grad
    buf = np.empty(np.broadcast(weights, gx, gy, gz, dx, dy).shape)
    np.multiply(dy, gz, out=buf)
    buf += gx
    buf *= weights
    sx = np.add.reduce(buf, axis=-1)
    np.multiply(dx, gz, out=buf)
    np.subtract(gy, buf, out=buf)
    buf *= weights
    return sx, np.add.reduce(buf, axis=-1)


def grad_Pt_at(f: ScalarField, measure: HeatMeasure, x, y, z):
    """(X P_t f, Y P_t f) at the points (x, y, z), with t = measure.t.

    P_t f(w) = sum mu_k f(w . y_k), so :func:`grad_sums` applies with
    weights mu and w^{-1} q_k = y_k.  A field without an analytic
    gradient raises ValueError.  Both components come back as
    arrays, one entry per point; each is a row sum (see
    :func:`grad_sums`), so its bits do not depend on the block size.
    """
    gx, gy = _grads_Pt_at((f,), measure, x, y, z)
    return gx[0], gy[0]


def _grads_Pt_at(fields, measure: HeatMeasure, x, y, z) -> np.ndarray:
    """:func:`grad_Pt_at` of each field, as a (2, fields, points) array;
    each block of translated nodes serves every field."""
    grads = [_gradient(g) for g in fields]
    out = np.empty((2, len(grads), np.size(x)))
    for rows, qx, qy, qz in _translated_nodes(measure, x, y, z):
        for i, grad in enumerate(grads):
            out[0, i, rows], out[1, i, rows] = grad_sums(measure.mu, grad(qx, qy, qz),
                                                         measure.x, measure.y)
    return out


# the quarter turn R(x, y, z) = (-y, x, z) and the mirror M(x, y, z) =
# (x, -y, -z): automorphisms that fix the heat kernel.  Each is a name, a
# map of points and the map of frame gradients it induces, since
# (X, Y, Z)(f o R) = (Yf, -Xf, Zf) o R and (X, Y, Z)(f o M) = (Xf, -Yf, -Zf) o M.
_QUARTER = ("R", lambda x, y, z: (-y, x, z), lambda gx, gy, gz: (gy, -gx, gz))
_MIRROR = ("M", lambda x, y, z: (x, -y, -z), lambda gx, gy, gz: (gx, -gy, -gz))


def _composed(f: ScalarField, sigma) -> ScalarField:
    """The field f o sigma; f without an analytic gradient raises ValueError."""
    tag, move, turn = sigma
    grad = _gradient(f)
    return ScalarField(eval=lambda x, y, z: f.eval(*move(x, y, z)),
                       analytic_gradient=lambda x, y, z: turn(*grad(*move(x, y, z))),
                       name=f"{f.name} o {tag}")


def _orbit_basis(f: ScalarField, counts: tuple):
    """(n, fields, weight): the outer sum of :func:`interpolation_variance`
    on the tier of node counts ``counts`` is weight * sum_k mu_k sum_g
    |grad P g|^2 over its first n nodes and the fields g."""
    n_s, n_phi, n_alpha = counts
    n = n_s * n_phi
    order, parity = f.rotation_order, f.mirror_parity
    if parity not in (None, 1, -1):
        raise ValueError(f"mirror parity {parity!r} of {f.name!r}; expected 1, -1 or None")
    if order is None:
        return 2 * n * n_alpha, (f,), 1.0
    if order not in (0, 1):
        raise ValueError(f"rotation order {order!r} of {f.name!r}; expected 0, 1 or None")
    # f o M = +-f repeats f's squares, so f stands for both mirror halves
    fields, weight = ((f,), 2.0 * n_alpha) if parity else ((f, _composed(f, _MIRROR)), n_alpha)
    if order == 1:
        fields = tuple(h for g in fields for h in (g, _composed(g, _QUARTER)))
        weight *= 0.5
    return n, fields, weight


def _gamma_sum(f: ScalarField, outer: HeatMeasure, inner: HeatMeasure) -> float:
    """sum_k mu_k Gamma(P f)(y_k) over the nodes y_k of ``outer``, with P the
    operator of ``inner``; one pass over the translated nodes serves the
    orbit basis of f."""
    n, fields, weight = _orbit_basis(f, outer.counts)
    grads = _grads_Pt_at(fields, inner, outer.x[:n], outer.y[:n], outer.z[:n])
    sq = 0.0
    for gx, gy in zip(*grads):
        sq = sq + (gx * gx + gy * gy)
    return weight * float(np.add.reduce(outer.mu[:n] * sq, axis=-1))


def interpolation_variance(f: ScalarField, cfg: HeatOpConfig) -> float:
    """Variance of f under P_t rebuilt from 2 int_0^t P_s Gamma(P_{t-s}f) ds.

    The s integral uses a fixed 16-point Gauss rule on (0, t); its open
    nodes keep the inner operator away from the degenerate s = t
    endpoint, where P_{t-s} collapses to the identity.  Both legs of
    the nested quadrature run at the reduced node tier (the integrand
    is heat-regularized in s); agreement with :func:`variance` is the
    accuracy check.

    The outer sum runs over orbits.  The tier's nodes are the n = n_s
    n_phi radial nodes w, their rotations R_j w by 2 pi j / n_alpha and
    the mirror images M R_j w, with ``mu`` the same along each orbit.
    R_j and M are automorphisms that fix the kernel, so
    Gamma(P f)(sigma w) = |grad P(f o sigma)(w)|^2.  Summed over j with
    f o R_a = cos(a) f + sin(a) (f o R_{pi/2}) (rotation order 1), the
    cross terms cancel and the orbit contributes

        (n_alpha / 2) sum_{g in f, f o R, f o M, f o M o R} |grad P g(w)|^2,

    with R = R_{pi/2}; for f o R_a = f (order 0) it is
    n_alpha (|grad P f(w)|^2 + |grad P(f o M)(w)|^2).  A field that also
    declares its mirror parity, f o M = +-f, has the squares of f o M
    equal to those of f, so the orbit contributes
    n_alpha (|grad P f(w)|^2 + |grad P(f o R)(w)|^2) at order 1 and
    2 n_alpha |grad P f(w)|^2 at order 0.  A field without a declared
    order sums |grad P f|^2 over every node.  One pass over the blocks
    of translated inner nodes serves every field of the basis.  A field
    without an analytic gradient raises ValueError.
    """
    t = cfg.t
    coarse = QuadratureSpec(abs_tol=max(cfg.quad.abs_tol, _COARSE_ABS_TOL))
    base = heat_measure(HeatOpConfig(t=1.0, quad=coarse))
    total = 0.0
    for s, sw in zip(*gauss_legendre(0.0, t, 16)):
        total += sw * _gamma_sum(f, base.at(s), base.at(t - s))
    return 2.0 * total
