"""The library's one-dimensional quadrature: Gauss-Legendre rules.

:func:`gauss_legendre` maps the n-point rule to [lo, hi] for every
fixed-order rule of the library.  :func:`gauss_panels` lays the rule on
each panel between given edges, for ``mc.kernel_cell_masses`` (the
chi-squared masses) and for :func:`_panel_rule`'s 12-point panels on
[0, lam_max], which serve the kernel's real lambda-integrals and
:func:`integrate_decaying`, the integral over [0, inf) of an
exponentially decaying integrand.  No rule here adapts to its
integrand: the nodes are set by the arguments alone.  A node count that
is no integer >= 1, a wavenumber that is negative or not finite and a
decay rate that is not finite and > 0 raise ValueError.  Only the kernel's
complex shift p1*(r, z + 2i) calls :func:`integrate_decaying`.
:class:`QuadratureSpec` selects the semigroup's node tier.  The module
needs numpy only, as does importing any heisenkern module; the
harness's Gaussian quantile and tensorized C1 root load scipy inside
the functions that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = ["QuadratureSpec", "gauss_legendre", "gauss_panels", "integrate_decaying"]


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
