"""Deterministic numerical primitives shared across the library.

Adaptive panel quadrature on finite intervals, truncated integration of
exponentially decaying integrands on [0, inf), monotone root finding, a
from-scratch Gaussian cdf/quantile pair, the Gaussian isoperimetric
profile, and a restart-based Nelder-Mead minimizer.

This module needs numpy only: its Gaussian cdf is built from an
error-function series (small argument) and continued fraction (tail), and
its quantile is obtained by root-finding against that cdf.  The rest of
the library does use scipy: :mod:`.kernel` (``i0e`` and spline tables),
:mod:`.mc` (the chi-squared distribution) and :mod:`.harness`
(``ndtri``, Nelder-Mead, linear algebra and spline tables).  The library
itself calls none of the Gaussian, isoperimetric, root-finding or
minimizer helpers here; only their tests do.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "BracketError",
    "GaussianIsoFn",
    "integrate_1d",
    "integrate_decaying",
    "find_root_monotone",
    "gaussian_cdf",
    "gaussian_pdf",
    "gaussian_quantile",
    "isoperimetric_I",
    "minimize_derivative_free",
]

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of subdivisions.

    Carries the best value and its error estimate so callers can decide
    whether the partial result is usable.
    """

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class BracketError(ValueError):
    """Root bracket endpoints do not straddle a sign change."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and panel rules for 1-d quadrature.

    ``oscillation_wavenumber`` is the |k| of a cos(kx)/sin(kx) factor in
    the integrand.  Seed panels are kept no wider than a quarter period
    pi/(2k), which keeps plain Gauss panels accurate on oscillatory
    integrands without any specialised rule.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 4000
    oscillation_wavenumber: float = 0.0

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be > 0")
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.oscillation_wavenumber < 0.0:
            raise ValueError("oscillation_wavenumber must be >= 0")

    def max_panel_width(self) -> float:
        if self.oscillation_wavenumber > 0.0:
            return math.pi / (2.0 * self.oscillation_wavenumber)
        return math.inf

    def tightened(self, factor: float = 0.5) -> "QuadratureSpec":
        """Same panel rules with tolerances scaled by ``factor``."""
        return QuadratureSpec(
            abs_tol=self.abs_tol * factor,
            rel_tol=self.rel_tol * factor,
            max_subdivisions=self.max_subdivisions * 2,
            oscillation_wavenumber=self.oscillation_wavenumber,
        )


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


def integrate_1d(f, a: float, b: float, spec: QuadratureSpec | None = None):
    """Integrate ``f`` over [a, b] adaptively.

    Returns ``(value, error_estimate)``.  Panels are 12-point Gauss rules;
    the per-panel error estimate is the discrepancy against the panel's
    bisection, and the worst panel is refined until the summed estimate
    meets ``max(abs_tol, rel_tol * |value|)`` or ``max_subdivisions``
    panels exist (then :class:`QuadratureError` carries the best value).
    """
    if spec is None:
        spec = QuadratureSpec()
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


def integrate_decaying(f, decay_rate: float, spec: QuadratureSpec | None = None) -> float:
    """Integrate ``f`` over [0, inf) assuming |f| <= M exp(-decay_rate x).

    The envelope constant M is estimated from probes, the domain is cut at
    Lambda with tail bound M exp(-decay_rate Lambda)/decay_rate below
    abs_tol/10, and the finite piece goes through :func:`integrate_1d`
    with the spec's oscillation panel cap.
    """
    if spec is None:
        spec = QuadratureSpec()
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


def find_root_monotone(g, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bisection root of a monotone ``g`` on [lo, hi].

    Raises :class:`BracketError` when the endpoint values do not straddle
    zero.  Deterministic; ~60 iterations at most.
    """
    if not (hi > lo):
        raise ValueError("bracket must satisfy lo < hi")
    glo = float(g(lo))
    ghi = float(g(hi))
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    # sign comparison, not a product: products of near-underflow values lie
    if (glo > 0.0) == (ghi > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: g(lo)={glo:.3e}, g(hi)={ghi:.3e}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        gm = float(g(mid))
        if gm == 0.0:
            return mid
        if (gm > 0.0) == (glo > 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- Gaussian cdf / quantile / isoperimetric profile ---------------------

def _erfc_nonneg(x):
    """erfc on x >= 0: positive-term series below 3, continued fraction above."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)

    small = x < 3.0
    xs = x[small]
    if xs.size:
        # erf(x) = 2/sqrt(pi) e^{-x^2} sum_n 2^n x^{2n+1} / (1*3*...*(2n+1))
        term = xs.copy()
        total = xs.copy()
        for n in range(1, 120):
            term = term * (2.0 * xs * xs) / (2.0 * n + 1.0)
            total += term
            if float(np.max(term)) <= 1e-18 * max(float(np.min(total)), 1e-300):
                break
        out[small] = 1.0 - (2.0 / _SQRT_PI) * np.exp(-xs * xs) * total

    xl = x[~small]
    if xl.size:
        # sqrt(pi) e^{x^2} erfc(x) = 1/(x + (1/2)/(x + (2/2)/(x + (3/2)/(x + ...))))
        t = xl.copy()
        for k in range(60, 0, -1):
            t = xl + (0.5 * k) / t
        out[~small] = np.exp(-xl * xl) / (_SQRT_PI * t)
    return out


def gaussian_cdf(t):
    """Standard normal cdf, accurate in both tails, array-capable."""
    t_arr = np.asarray(t, dtype=float)
    x = np.abs(t_arr) / _SQRT_2
    half_erfc = 0.5 * _erfc_nonneg(x)
    out = np.where(t_arr >= 0.0, 1.0 - half_erfc, half_erfc)
    if np.ndim(t) == 0:
        return float(out)
    return out


def gaussian_pdf(t):
    t_arr = np.asarray(t, dtype=float)
    out = _INV_SQRT_2PI * np.exp(-0.5 * t_arr * t_arr)
    if np.ndim(t) == 0:
        return float(out)
    return out


def gaussian_quantile(p, quantile_tol: float = 1e-12):
    """Inverse of :func:`gaussian_cdf` by bisection plus Newton polish.

    Accepts p strictly inside (0, 1); the result x satisfies
    |gaussian_cdf(x) - p| <= quantile_tol.
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    lo = np.full_like(p_arr, -13.5)
    hi = np.full_like(p_arr, 13.5)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        below = gaussian_cdf(mid) < p_arr
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(3):
        x = x - (gaussian_cdf(x) - p_arr) / np.maximum(gaussian_pdf(x), 1e-300)
        x = np.clip(x, -13.5, 13.5)
    if np.ndim(p) == 0:
        return float(x)
    return x


def isoperimetric_I(u, quantile_tol: float = 1e-12):
    """Gaussian isoperimetric profile I(u) = pdf(quantile(u)) on [0, 1].

    I(0) = I(1) = 0 exactly; interior values satisfy I * I'' = -1.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("isoperimetric profile argument must lie in [0, 1]")
    interior = (u_arr > 0.0) & (u_arr < 1.0)
    out = np.zeros_like(u_arr)
    if np.any(interior):
        ui = u_arr[interior]
        out[interior] = gaussian_pdf(gaussian_quantile(ui, quantile_tol))
    if np.ndim(u) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class GaussianIsoFn:
    """Gaussian isoperimetric profile with a pinned quantile tolerance."""

    quantile_tol: float = 1e-12

    def __post_init__(self):
        if not (self.quantile_tol > 0.0):
            raise ValueError("quantile_tol must be > 0")

    def cdf(self, t):
        return gaussian_cdf(t)

    def quantile(self, p):
        return gaussian_quantile(p, self.quantile_tol)

    def __call__(self, u):
        return isoperimetric_I(u, self.quantile_tol)


# --- derivative-free minimisation -----------------------------------------

def _halton(index: int, base: int) -> float:
    """Radical-inverse (Halton) point in (0, 1)."""
    result = 0.0
    f = 1.0
    i = index
    while i > 0:
        f /= base
        result += f * (i % base)
        i //= base
    return result


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _nelder_mead(fn, x0, scale, budget):
    """One Nelder-Mead run; returns (best_x, best_f, evals_used)."""
    n = x0.size
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    pts = [x0.copy()]
    for i in range(n):
        p = x0.copy()
        p[i] += scale * (1.0 + abs(x0[i]))
        pts.append(p)
    vals = []
    used = 0
    for p in pts:
        vals.append(fn(p))
        used += 1
        if used >= budget:
            break
    while len(vals) < len(pts):
        vals.append(math.inf)
    simplex = sorted(zip(vals, map(tuple, pts)))

    while used < budget:
        simplex.sort()
        best_f = simplex[0][0]
        worst_f = simplex[-1][0]
        spread = max(abs(np.asarray(simplex[-1][1]) - np.asarray(simplex[0][1])).max(), 0.0)
        if worst_f - best_f <= 1e-13 * (1.0 + abs(best_f)) and spread <= 1e-10:
            break
        centroid = np.mean([np.asarray(p) for _, p in simplex[:-1]], axis=0)
        worst = np.asarray(simplex[-1][1])
        xr = centroid + alpha * (centroid - worst)
        fr = fn(xr)
        used += 1
        if fr < simplex[0][0]:
            xe = centroid + gamma * (centroid - worst)
            fe = fn(xe)
            used += 1
            simplex[-1] = (fe, tuple(xe)) if fe < fr else (fr, tuple(xr))
        elif fr < simplex[-2][0]:
            simplex[-1] = (fr, tuple(xr))
        else:
            xc = centroid + rho * (worst - centroid)
            fc = fn(xc)
            used += 1
            if fc < simplex[-1][0]:
                simplex[-1] = (fc, tuple(xc))
            else:
                x_best = np.asarray(simplex[0][1])
                for i in range(1, len(simplex)):
                    xs = x_best + sigma * (np.asarray(simplex[i][1]) - x_best)
                    fs = fn(xs)
                    used += 1
                    simplex[i] = (fs, tuple(xs))
                    if used >= budget:
                        break
    simplex.sort()
    return np.asarray(simplex[0][1]), simplex[0][0], used


def minimize_derivative_free(objective, init, budget: int = 2000):
    """Derivative-free minimisation: Nelder-Mead plus deterministic restarts.

    Restart starting points come from a Halton sequence scaled around the
    incumbent, so the whole search is a pure function of ``init`` and
    ``budget``.  NaN objective values are treated as +inf rejections.
    Returns ``(best_x, best_value)``.
    """
    x0 = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    n = x0.size
    if n > len(_HALTON_BASES):
        raise ValueError(f"dimension {n} exceeds supported maximum {len(_HALTON_BASES)}")

    def fn(x):
        v = objective(np.asarray(x, dtype=float))
        v = float(v)
        if math.isnan(v):
            return math.inf
        return v

    remaining = int(budget)
    best_x = x0.copy()
    best_f = fn(best_x)
    remaining -= 1

    restart = 0
    start = x0
    while remaining > n + 2:
        slice_budget = min(remaining, max(60 * n, 200))
        scale = 0.25 * (0.6 ** restart)
        xb, fb, used = _nelder_mead(fn, start, scale, slice_budget)
        remaining -= used
        if fb < best_f:
            best_f, best_x = fb, xb
        restart += 1
        offset = np.array(
            [2.0 * _halton(restart, _HALTON_BASES[i]) - 1.0 for i in range(n)]
        )
        start = best_x + offset * (0.5 + np.abs(best_x)) * (0.8 ** restart)
    return best_x, best_f
