"""Deterministic one-dimensional quadrature shared across the library.

Adaptive 12-point Gauss panel quadrature on finite intervals
(:func:`integrate_1d`), truncated integration of exponentially decaying
integrands on [0, inf) (:func:`integrate_decaying`), and the tolerance
and panel rules both take (:class:`QuadratureSpec`).  Only the kernel's
complex shifts, p1(r, z + 2i) and p1*(r, z + 2i), integrate over lambda
with :func:`integrate_decaying`; every real-kernel value comes from the
kernel's fixed panel rule.  ``QuadratureSpec.abs_tol`` also selects the
semigroup's node tier.  The module needs numpy only; the Gaussian
quantile and the Nelder-Mead search the harness uses come from scipy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "integrate_1d",
    "integrate_decaying",
]


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of subdivisions.

    Carries the best value and its error estimate so callers can decide
    whether the partial result is usable.
    """

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


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
