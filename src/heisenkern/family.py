"""Seeded families of smooth test functions with analytic gradients.

The default family mixes compactly supported mollifier bumps (group
offsets from centers inside d <= 3, support inside d <= 6), polynomials
of degree <= 3, trig-modulated bumps with wavenumbers <= 4, pairwise
linear combinations, and the distinguished equality-case field
Xhat(log h) as the last member.  Every member carries an exact frame
gradient, which the verification harness relies on for Gamma terms.

Compact members also carry the mollifier frames (atoms) of their
support; the harness integrates them over those frames (plus an exact
outside term, the integrand being identically zero there) instead of
forcing a global grid to resolve every bump.  Combinations pair members
of the same kind class, compact with compact (on disjoint support
boxes) and polynomial with polynomial, so each combination again has
either atoms or polynomial growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import cc_distance_many
from .group import ScalarField, poly_field
from .kernel import xhat_log_h_field
from .numerics import _integral

__all__ = [
    "DEFAULT_FAMILY_SEED",
    "TestFunctionFamily",
    "bump_field",
    "combine_fields",
    "build_family",
    "boxes_disjoint",
]

DEFAULT_FAMILY_SEED = 20260814

_SUPPORT_D_MAX = 6.0
# center distance + width + 2 sqrt(pi vert) stays below 6 for the
# extreme draws: 1.9 + 1.4 + 2 sqrt(0.55 pi) = 5.93
_CENTER_D_MAX = 1.9
_WIDTH_LO, _WIDTH_HI = 0.9, 1.4
_VERT_LO, _VERT_HI = 0.3, 0.55
_WAVENUMBER_MAX = 4.0


def _mollifier(q):
    """exp(1 - 1/(1-q)) on q < 1, 0 beyond; C^infty across the edge."""
    q = np.asarray(q, dtype=float)
    inside = q < 1.0 - 1e-12
    t = np.where(inside, 1.0 - q, 1.0)
    with np.errstate(over="ignore", under="ignore"):
        val = np.where(inside, np.exp(1.0 - 1.0 / t), 0.0)
    return val


def _mollifier_dq(q):
    """d/dq of the mollifier: -phi(q)/(1-q)^2, again 0 beyond the edge."""
    q = np.asarray(q, dtype=float)
    inside = q < 1.0 - 1e-12
    t = np.where(inside, 1.0 - q, 1.0)
    with np.errstate(over="ignore", under="ignore"):
        val = np.where(inside, -np.exp(1.0 - 1.0 / t) / (t * t), 0.0)
    return val


def bump_field(center, width: float, vert: Optional[float] = None,
               name: str = "bump") -> ScalarField:
    """Mollifier bump in group offsets g = center^{-1} . p.

    q(g) = (g1^2 + g2^2)/w^2 + g3^2/v^2 with an independent vertical
    half-width v (default w/3).  Since the frame fields are
    left-invariant, the frame gradient at p equals the frame gradient
    of the profile at g, available in closed form; no numerical
    differentiation anywhere.  A width or v that is not finite and > 0,
    or a centre coordinate that is not finite, raises ValueError.
    """
    cx, cy, cz = (float(c) for c in center)
    w = float(width)
    v = float(vert) if vert is not None else w / 3.0
    if not (0.0 < w < math.inf and 0.0 < v < math.inf):
        raise ValueError(f"width and vert must be finite and > 0, got {width}, {vert}")
    if not all(map(math.isfinite, (cx, cy, cz))):
        raise ValueError(f"the centre must be finite, got {center}")
    w2 = w ** 2
    v2 = v * v

    def offsets(x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        g1 = x - cx
        g2 = y - cy
        g3 = z - cz + 0.5 * (cy * g1 - cx * g2)
        return g1, g2, g3

    def ev(x, y, z):
        g1, g2, g3 = offsets(x, y, z)
        return _mollifier((g1 * g1 + g2 * g2) / w2 + g3 * g3 / v2)

    def grad(x, y, z):
        g1, g2, g3 = offsets(x, y, z)
        q = (g1 * g1 + g2 * g2) / w2 + g3 * g3 / v2
        dphi = _mollifier_dq(q)
        qx = 2.0 * g1 / w2
        qy = 2.0 * g2 / w2
        qz = 2.0 * g3 / v2
        return (
            dphi * (qx - 0.5 * g2 * qz),
            dphi * (qy + 0.5 * g1 * qz),
            dphi * qz,
        )

    return ScalarField(eval=ev, analytic_gradient=grad, name=name)


def support_box(center, width: float, vert: float) -> tuple:
    """Coordinate bounding box (x_lo, x_hi, y_lo, y_hi, z_lo, z_hi).

    Offsets satisfy |g1|, |g2| <= w and |g3| <= v; the z coordinate
    picks up the twist 0.5 (cy g1 - cx g2) on top of g3.
    """
    cx, cy, cz = (float(c) for c in center)
    zh = float(vert) + 0.5 * float(width) * (abs(cx) + abs(cy))
    return (cx - width, cx + width, cy - width, cy + width, cz - zh, cz + zh)


def _support_radius(dc: float, width: float, vert: float) -> float:
    """Upper bound for the CC distance of a bump's support from 0, from its
    centre's distance ``dc``: a horizontal segment reaches (g1, g2, 0) at
    cost |g_h| <= w and a vertical displacement costs 2 sqrt(pi |g3|) with
    |g3| <= v, so d(support) <= dc + w + 2 sqrt(pi v)."""
    return dc + float(width) + 2.0 * math.sqrt(math.pi * float(vert))


def _modulated_bump(center, width: float, vert: float, k, phase: float,
                    name: str) -> ScalarField:
    """bump * cos(k1 x + k2 y + k3 z + phase) with exact product gradient."""
    base = bump_field(center, width, vert, name=name + "[carrier]")
    k1, k2, k3 = (float(c) for c in k)
    ph = float(phase)

    def ev(x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        return base.eval(x, y, z) * np.cos(k1 * x + k2 * y + k3 * z + ph)

    def grad(x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        b = base.eval(x, y, z)
        bx, by, bz = base.analytic_gradient(x, y, z)
        arg = k1 * x + k2 * y + k3 * z + ph
        c = np.cos(arg)
        ms = -np.sin(arg)
        # frame components of the phase: X arg = k1 - (y/2) k3, etc.
        cx = ms * (k1 - 0.5 * y * k3)
        cy = ms * (k2 + 0.5 * x * k3)
        cz = ms * k3
        return bx * c + b * cx, by * c + b * cy, bz * c + b * cz

    return ScalarField(eval=ev, analytic_gradient=grad, name=name)


def combine_fields(parts: Sequence[ScalarField], coeffs, name: str) -> ScalarField:
    """Linear combination sum c_i f_i; gradients add (all parts carry them).
    A non-finite coefficient raises ValueError."""
    parts = list(parts)
    coeffs = [float(c) for c in coeffs]
    if len(parts) != len(coeffs) or not parts or not all(map(math.isfinite, coeffs)):
        raise ValueError("parts and coeffs must be matching nonempty sequences, coeffs finite")
    for f in parts:
        if f.analytic_gradient is None:
            raise ValueError(f"part {f.name!r} lacks an analytic gradient")

    def ev(x, y, z):
        acc = coeffs[0] * np.asarray(parts[0].eval(x, y, z), dtype=float)
        for c, f in zip(coeffs[1:], parts[1:]):
            acc = acc + c * np.asarray(f.eval(x, y, z), dtype=float)
        return acc

    def grad(x, y, z):
        gx, gy, gz = parts[0].analytic_gradient(x, y, z)
        gx = coeffs[0] * np.asarray(gx, dtype=float)
        gy = coeffs[0] * np.asarray(gy, dtype=float)
        gz = coeffs[0] * np.asarray(gz, dtype=float)
        for c, f in zip(coeffs[1:], parts[1:]):
            hx, hy, hz = f.analytic_gradient(x, y, z)
            gx = gx + c * np.asarray(hx, dtype=float)
            gy = gy + c * np.asarray(hy, dtype=float)
            gz = gz + c * np.asarray(hz, dtype=float)
        return gx, gy, gz

    return ScalarField(eval=ev, analytic_gradient=grad, name=name)


def boxes_disjoint(a: tuple, b: tuple) -> bool:
    return any(a[2 * k + 1] <= b[2 * k] or b[2 * k + 1] <= a[2 * k]
               for k in range(3))


@dataclass(frozen=True)
class TestFunctionFamily:
    """Members plus the construction data the harness reads.

    ``atoms`` lists the (center, width, vert) mollifier frames making up
    a compact member, or None for members of polynomial growth (no
    compact support); integrating in those offset frames keeps the
    support a well-proportioned box instead of the thin sheared slab it
    is in lab coordinates.

    ``_member_contexts`` is the harness's memo of each member's
    quadrature context (nodes, weights, values, gradient, Gamma), built
    on first use and shared by every check of this family.  It lives and
    is freed with the family object; ``dataclasses.replace`` starts the
    new family with an empty memo.
    """

    members: tuple
    seed: int
    combo_index: dict       # member name -> (part names, coeffs)
    kinds: dict             # member name -> bump | poly | trig | combo | fstar
    atoms: dict             # member name -> ((center, width, vert), ...) or None
    _member_contexts: dict = field(default_factory=dict, init=False, repr=False,
                                   compare=False)


def _draw_center(rng) -> tuple:
    # (center, its CC distance) by rejection against the CC ball; the z
    # window covers the whole reachable range |z| <= d^2/(4 pi) at this radius
    while True:
        x, y = rng.uniform(-_CENTER_D_MAX, _CENTER_D_MAX, size=2)
        z = rng.uniform(-0.3, 0.3)
        dc = float(cc_distance_many(x, y, z))
        if dc <= _CENTER_D_MAX:
            return (float(x), float(y), float(z)), dc


def _draw_atom(rng) -> tuple:
    """(center, width, vert) of one mollifier frame, its support inside d <= 6."""
    center, dc = _draw_center(rng)
    width = float(rng.uniform(_WIDTH_LO, _WIDTH_HI))
    vert = float(rng.uniform(_VERT_LO, _VERT_HI))
    if _support_radius(dc, width, vert) > _SUPPORT_D_MAX:
        raise AssertionError("draw windows violate the support bound")
    return center, width, vert


def _draw_poly(rng, idx: int) -> ScalarField:
    monomials = [
        (i, j, k)
        for i in range(4)
        for j in range(4)
        for k in range(2)
        if 1 <= i + j + 2 * k <= 3
    ]
    n_terms = int(rng.integers(1, 4))
    picks = rng.choice(len(monomials), size=n_terms, replace=False)
    coeffs = {}
    for p in picks:
        coeffs[monomials[int(p)]] = float(rng.uniform(-1.5, 1.5))
    return poly_field(coeffs, name=f"poly-{idx:03d}")


def _clamped_coeff(rng) -> float:
    c = float(rng.uniform(-1.2, 1.2))
    if abs(c) < 0.2:
        c = math.copysign(0.2, c if c != 0.0 else 1.0)
    return c


def build_family(size: int = 200, seed: int = DEFAULT_FAMILY_SEED) -> TestFunctionFamily:
    """Deterministic family of ``size`` members ending with Xhat(log h).

    Composition at the default size: 40 bumps, 30 polynomials, 20
    trig-modulated bumps, pairwise same-class combinations to fill,
    f* last.  Smaller sizes shrink each block proportionally (at least
    one bump is always present, and f* is always the final member).
    When the draws leave combination slots but nothing to pair (no two
    compact members on disjoint support boxes and fewer than two
    polynomials; seen at sizes 3-10 over seeds 0-39), the family is drawn
    again from the same seed with those slots as bumps.  A size or seed is
    validated as sample_batch's counts are; an integral float counts.
    """
    seed = _integral(seed, "seed", 0)
    n_free = _integral(size, "size", 2) - 1
    n_bump = max(1, round(n_free * 40 / 199))
    n_poly = round(n_free * 30 / 199)
    n_trig = round(n_free * 20 / 199)
    n_combo = n_free - n_bump - n_poly - n_trig
    if n_combo < 0:
        n_bump += n_combo
        n_combo = 0
    return (_draw_family(seed, n_bump, n_poly, n_trig, n_combo)
            or _draw_family(seed, n_bump + n_combo, n_poly, n_trig, 0))


def _draw_family(seed: int, n_bump: int, n_poly: int, n_trig: int, n_combo: int):
    """The family of these block sizes, f* added, or None if the combination
    slots have no pair to draw from."""
    rng = np.random.default_rng(int(seed))
    members, kinds, atoms = [], {}, {}

    def add(f: ScalarField, kind: str, frames: Optional[tuple] = None):
        members.append(f)
        kinds[f.name] = kind
        atoms[f.name] = frames

    for i in range(n_bump):
        atom = _draw_atom(rng)
        add(bump_field(*atom, name=f"bump-{i:03d}"), "bump", (atom,))
    for i in range(n_poly):
        add(_draw_poly(rng, i), "poly")
    for i in range(n_trig):
        atom = _draw_atom(rng)
        k = rng.uniform(-_WAVENUMBER_MAX, _WAVENUMBER_MAX, size=3)
        while float(np.max(np.abs(k))) < 0.3:
            k = rng.uniform(-_WAVENUMBER_MAX, _WAVENUMBER_MAX, size=3)
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        add(_modulated_bump(*atom, k, phase, name=f"trig-{i:03d}"), "trig", (atom,))

    # same-class pairings keep every combination either compactly
    # supported or of polynomial growth; compact pairs are restricted
    # to disjoint support boxes so a combination integrates as two
    # independent mollifier frames (no sheared overlap region to grid)
    compact = [m for m in members if atoms[m.name]]
    polys = [m for m in members if not atoms[m.name]]
    boxes = [support_box(*atoms[m.name][0]) for m in compact]
    disjoint_pairs = [(i, j) for i in range(len(compact)) for j in range(i + 1, len(compact))
                      if boxes_disjoint(boxes[i], boxes[j])]
    if n_combo and not disjoint_pairs and len(polys) < 2:
        return None
    combo_index = {}
    n_poly_combo = min(round(n_combo / 4), 0 if len(polys) < 2 else n_combo)
    n_compact_combo = n_combo - n_poly_combo if disjoint_pairs else 0
    for i in range(n_combo):
        if i < n_compact_combo:
            ia, ib = disjoint_pairs[int(rng.integers(len(disjoint_pairs)))]
            pa, pb = compact[ia], compact[ib]
        else:
            ia, ib = (int(v) for v in rng.choice(len(polys), size=2, replace=False))
            pa, pb = polys[ia], polys[ib]
        ca, cb = _clamped_coeff(rng), _clamped_coeff(rng)
        name = f"combo-{i:03d}"
        combo_index[name] = ((pa.name, pb.name), (ca, cb))
        add(combine_fields([pa, pb], [ca, cb], name), "combo",
            atoms[pa.name] + atoms[pb.name] if i < n_compact_combo else None)
    add(xhat_log_h_field(), "fstar")

    return TestFunctionFamily(
        members=tuple(members),
        seed=int(seed),
        combo_index=combo_index,
        kinds=kinds,
        atoms=atoms,
    )
