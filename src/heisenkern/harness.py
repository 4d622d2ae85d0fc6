"""Inequality verification and constant estimation for the heat semigroup.

Checks run over seeded test-function families (see :mod:`.family`) and
come back as :class:`InequalityReport` rows with a uniform pass rule:
lhs <= rhs * (1 + slack) + a tiny absolute floor, slack = 1e-6 plus the
check's quadrature budget.  Gradient-bound constants are adaptive lower
bounds, never assumptions: a violation is treated as information about
the constant, and :func:`run_inequality_suite` re-verifies after one
update pass.

Every inequality checked here is covariant under the parabolic dilation
p_t = t^-2 p_1 o delta_{1/sqrt(t)}, so the checks run at t = 1 on one
configuration: the coarse chart measure of radius 10, the coarse atom
panels and the p_1 table on its window.

The ray inequality takes its constant from the |u| -> inf limit of the
ray ratio, a 1-D integral of p_1 on z = 0, and surveys rays against it.
The (1,1) Poincare on a ball has no a-priori constant; it reports the
empirical sup ratio over the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .family import TestFunctionFamily, build_family
# cc_distance_many stays importable here: the benchmark tracer wraps it in this module
from .geometry import cc_distance_many, chart_ball_nodes, jacobian_A  # noqa: F401
from .group import GroupElement, ScalarField, gamma2, poly_field
# log_grad_many stays importable here: the benchmark tracer wraps it in this module
from .kernel import _pt_density, log_grad_many, p1_many, p1_star_shifted  # noqa: F401
from .mc import sample_kolmogorov
from .numerics import _ndtri, gauss_legendre, gauss_panels
from .semigroup import COARSE_TIER, HeatOpConfig, grad_Pt_at, grad_sums, heat_measure

__all__ = [
    "SLACK_BASE",
    "QUAD_BUDGET",
    "FAMILY_QUAD_BUDGET",
    "ABS_FLOOR",
    "InequalityReport",
    "ConstantEstimate",
    "RaySurvey",
    "estimate_A",
    "check_kernel_identities",
    "check_driver_melcher",
    "check_reverse_poincare",
    "check_phi_suite",
    "check_cheeger_bobkov",
    "check_ray_inequality",
    "check_local_11_poincare",
    "check_commutation",
    "commutation_default_bumps",
    "demonstrate_gamma2_unbounded",
    "check_kolmogorov_counterexample",
    "run_inequality_suite",
    "constants_estimate",
]

SLACK_BASE = 1e-6
# relative budget charged to chart-measure quadratures (global members,
# kernel identities); checks never fail on noise below their budget
QUAD_BUDGET = 1e-5
# budget for per-member panel quadratures over compactly supported
# members: the kinked integrands (|f - m|, sqrt(Gamma)) converge
# algebraically and the worst movement observed against panels about
# 1.3x finer in each direction is 2.8e-3
FAMILY_QUAD_BUDGET = 4e-3
ABS_FLOOR = 1e-12
SQRT2 = math.sqrt(2.0)

# t = 1 on the coarse node tier; the chart measure's radius defaults to 10
_CFG = HeatOpConfig(t=1.0, quad=COARSE_TIER)


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality; ``passed`` serializes under the key "pass".

    ``expected_violation`` marks a row that must fail, such as a
    counterexample's; a row is unexpected when ``passed`` equals it.
    """

    check: str
    function: str
    lhs: float
    rhs: float
    ratio: float
    constant: float
    passed: bool
    error_budget: float
    note: str = ""
    expected_violation: bool = False
    # the C_1 at which a failing row would hold, for rows whose rhs is no
    # power of C_1 (see _implied_c1)
    implied_c1: float | None = None

    def as_dict(self) -> dict:
        d = {
            "check": self.check,
            "function": self.function,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "constant": self.constant,
            "pass": self.passed,
            "error_budget": self.error_budget,
            "expected_violation": self.expected_violation,
        }
        if self.note:
            d["note"] = self.note
        if self.implied_c1 is not None:
            d["implied_c1"] = self.implied_c1
        return d


def _report(check, function, lhs, rhs, constant, budget=QUAD_BUDGET, note="",
            expected_violation=False, implied_c1=None) -> InequalityReport:
    lhs = float(lhs)
    rhs = float(rhs)
    if rhs != 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else math.inf
    slack = SLACK_BASE + budget
    passed = lhs <= rhs * (1.0 + slack) + ABS_FLOOR
    return InequalityReport(check, function, lhs, rhs, ratio, float(constant),
                            bool(passed), budget, note, expected_violation, implied_c1)


@dataclass(frozen=True)
class ConstantEstimate:
    """Best lower bounds found plus the working gradient-bound constant."""

    A: float
    C1_lower: float
    C2_lower: float
    C1_working: float | None = None     # None takes max(C1_lower, sqrt 2)

    def __post_init__(self):
        if not (0.0 <= self.A < math.inf):
            raise ValueError(f"A must be finite and >= 0, got {self.A}")
        if self.C1_working is None:
            object.__setattr__(self, "C1_working", max(self.C1_lower, SQRT2))
        for name in ("C1_lower", "C2_lower", "C1_working"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


# ---------------------------------------------------------------------------
# constant A and the section-3 kernel identities


def _gamma_log_h_nodes(measure):
    """Gamma(log p_t) = (Xhat log p_t)^2 + (Yhat log p_t)^2 = r^2 (alpha^2 + b^2/4) at t = 1."""
    gx, gy = measure.hat_log_grad()
    return gx * gx + gy * gy


def estimate_A() -> float:
    """A = int r Gamma(log h, log h) h dx over d <= 10 at t = 1.

    r is the Euclidean norm of the horizontal projection.  For radial g,
    Gamma(g) = g_r^2 + (r^2/4) g_z^2, assembled from the vectorized
    log-derivative bundle.
    """
    m = heat_measure(_CFG)
    r = np.hypot(m.x, m.y)
    return float(np.sum(m.mu * r * _gamma_log_h_nodes(m)))


def check_kernel_identities() -> list:
    """<Gamma(log h) h> = 2, <(Xhat log h)^2 h> = 1, <Xhat Yhat cross> = 0.

    Encoded as |measured - target| <= QUAD_BUDGET so the uniform pass
    rule applies; the measured value rides along in the note.
    """
    m = heat_measure(_CFG)
    gam = float(np.sum(m.mu * _gamma_log_h_nodes(m)))
    gx, gy = m.hat_log_grad()
    sq = float(np.sum(m.mu * gx * gx))
    cross = float(np.sum(m.mu * gx * gy))
    rows = []
    for check, value, target in (
        ("identity-gamma-logh", gam, 2.0),
        ("identity-xhat-sq", sq, 1.0),
        ("identity-xhat-yhat", cross, 0.0),
    ):
        rows.append(_report(check, "log h", abs(value - target), QUAD_BUDGET,
                            target, budget=0.0, note=f"measured {value:.8f}"))
    return rows


# ---------------------------------------------------------------------------
# per-member quadrature contexts
#
# Compact members integrate over their own mollifier atoms in
# ellipsoidal coordinates (q = sigma^2, latitude, longitude), which
# confines the mollifier's edge non-analyticity to the 1-d sigma
# direction.  The leftover kernel mass becomes an explicit outside
# atom where the member vanishes identically, so every expectation is
# against an exactly unit-mass measure and Jensen-type steps in the
# checks hold without rounding caveats.  Members of polynomial growth
# use the global chart measure.  A combo's context is built from its
# parts' contexts with the bits of evaluating the combo field (_combo_ctx).

# (n_sigma, n_latitude, n_longitude) per atom kind; trig modulation
# needs the extra angular resolution
_PANEL_COUNTS = {"bump": (22, 12, 24), "trig": (28, 16, 32)}


@cache
def _atom_nodes(atom: tuple, counts: tuple):
    """(x, y, z, leb) of one mollifier atom's panel; cached and read-only,
    shared by combos, the atom weights and the commutation check."""
    (cx, cy, cz), w, v = atom
    ns, nf, nt = counts
    S, WS = gauss_legendre(0.0, 1.0, ns)
    F, WF = gauss_legendre(-0.5 * math.pi, 0.5 * math.pi, nf)
    TH = np.arange(nt) * (2.0 * math.pi / nt)
    Sg, Fg, Tg = np.meshgrid(S, F, TH, indexing="ij")
    rho = w * Sg * np.cos(Fg)
    g1 = rho * np.cos(Tg)
    g2 = rho * np.sin(Tg)
    g3 = v * Sg * np.sin(Fg)
    # volume element w^2 v sigma^2 cos(lat); longitude is trapezoid
    leb = ((w * w * v) * (Sg * Sg * np.cos(Fg))
           * (WS[:, None, None] * WF[None, :, None] * (2.0 * math.pi / nt)))
    x = cx + g1.ravel()
    y = cy + g2.ravel()
    z = cz + g3.ravel() - 0.5 * (cy * g1.ravel() - cx * g2.ravel())
    leb = leb.ravel()
    for arr in (x, y, z, leb):
        arr.flags.writeable = False
    return x, y, z, leb


@cache
def _grad_grid():
    """The 25 points w where the grad-bound rows compare |grad P_t f|(w); all have d(w) <= 4."""
    pts = [(0.0, 0.0, 0.0)]
    for a in (-2.0, -1.0, 1.0, 2.0):
        pts.append((a, 0.0, 0.0))
        pts.append((0.0, a, 0.0))
    for sx in (-1.4, 1.4):
        for sy in (-1.4, 1.4):
            for sz in (-0.8, 0.0, 0.8):
                pts.append((sx, sy, sz))
    for sz in (-1.2, -0.5, 0.5, 1.2):
        pts.append((0.0, 0.0, sz))
    pts = np.array(pts)
    pts.flags.writeable = False
    return pts


@cache
def _grid_orbits(order, parity):
    """(src, sign) with (X, Y) P_1 f(w_i) = sign[:, i] (X, Y) P_1 f(w_src[i]) on the
    grid, src[i] the first point of i's orbit under the half-turn (x, y, z) ->
    (-x, -y, z) if f declares its rotation ``order``, and the mirror (x, -y, -z)
    if it declares its ``parity`` e.  Both fix the kernel and map the grid onto
    itself; f o R_pi = (-1)^order f gives the signs -(-1)^order, f o M = e f the
    signs (e, -e).  The sums keep them bit for bit: the chart's alpha + pi
    rotations are exact negatives, its mirror an exact copy, and a row sum's
    pairwise halves fall on those copies (the quarter turn is no symmetry of
    the nodes).  An order not 0 or 1, or a parity not +-1, raises ValueError."""
    if order not in (None, 0, 1) or parity not in (None, 1, -1):
        raise ValueError(f"unknown rotation order {order!r} or mirror parity {parity!r}")
    maps = [((1.0, 1.0, 1.0), (1.0, 1.0))]
    if order is not None:
        maps.append(((-1.0, -1.0, 1.0), (2.0 * order - 1.0,) * 2))
    if parity is not None:
        maps += [((p[0], -p[1], -p[2]), (s[0] * parity, -s[1] * parity)) for p, s in maps]
    grid = _grad_grid()
    where = {tuple(w): i for i, w in enumerate(grid)}
    src, sign = np.full(len(grid), -1), np.ones((2, len(grid)))
    for i, w in enumerate(grid):
        if src[i] < 0:
            for flip, s in maps:
                j = where[tuple(np.multiply(flip, w))]
                if src[j] < 0:
                    src[j], sign[:, j] = i, s
    src.flags.writeable = sign.flags.writeable = False
    return src, sign


@cache
def _atom_weights(atom: tuple, counts: tuple, i: int) -> np.ndarray:
    """leb * p_1(w^{-1} u) over one atom's panel nodes u at grad-bound grid point w = grid[i].

    Row 0 is the origin, where w^{-1} u = u, so it is the member context's
    panel density mu, read alone by callers that need only mu.  A row is
    read-only and kept for the process, keyed like :func:`_atom_nodes`:
    50.7 kB per bump atom and 115 kB per trig atom, so with all 25 rows
    12.1 MB at family size 24 and about 108 MB at size 200.
    """
    x, y, z, leb = _atom_nodes(atom, counts)
    w1, w2, w3 = _grad_grid()[i]
    row = leb * _pt_density(x - w1, y - w2, z - w3 - 0.5 * (w1 * y - w2 * x))
    row.flags.writeable = False
    return row


@dataclass(frozen=True)
class _MemberCtx:
    name: str
    f: ScalarField
    compact: bool
    panels: tuple       # (atom, counts) for each atom of a compact member
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    mu: np.ndarray      # kernel-weighted; mu total plus m_out is exactly 1
    m_out: float
    vals: np.ndarray
    gx: np.ndarray      # frame components (Xf, Yf, Zf)
    gy: np.ndarray
    gz: np.ndarray
    gam: np.ndarray
    a: float            # X P_t f (0), by grad_sums against mu
    b: float            # Y P_t f (0)

    def expect(self, arr, outside: float = 0.0) -> float:
        # a row sum, like every node sum in semigroup and harness: its bits
        # depend on neither the BLAS thread count nor the batch it sits in
        return float(np.add.reduce(self.mu * arr, axis=-1)) + self.m_out * float(outside)


def _member_ctx(family: TestFunctionFamily, f: ScalarField) -> _MemberCtx:
    """The member's quadrature context, built once per family and shared.

    The memo lives on the family (``family._member_contexts``), so the
    contexts are freed with it.  The key holds the member's panels, each
    atom with the panel counts of its kind (a combo's atoms those of its
    parts), so patched ``_PANEL_COUNTS`` build afresh; a field that is
    not the memoised context's member is rebuilt too.  A combo's comes
    from its parts' contexts (:func:`_combo_ctx`).
    """
    combo = family.combo_index.get(f.name)
    parts = combo[0] if combo else (f.name,)
    panels = tuple((a, _PANEL_COUNTS[family.kinds[p]])
                   for a, p in zip(family.atoms.get(f.name) or (), parts))
    key = (f.name, panels)
    ctx = family._member_contexts.get(key)
    if ctx is None or ctx.f is not f:
        if combo:
            members = {m.name: m for m in family.members}
            ctx = _combo_ctx(f, [_member_ctx(family, members[p]) for p in parts], combo[1])
        else:
            ctx = _build_member_ctx(f, panels)
        family._member_contexts[key] = ctx
    return ctx


@cache
def _chart_mu() -> np.ndarray:
    """The chart measure's mu over its sum, of unit mass and read-only: the
    weights of every chart member's context.  _chart_span and the chart
    grad-bound rows keep the raw mu, of mass 1 - 1.25e-10."""
    mu = heat_measure(_CFG).mu
    mu = mu / float(np.sum(mu))
    mu.flags.writeable = False
    return mu


def _build_member_ctx(f: ScalarField, panels: tuple, arrays=None) -> _MemberCtx:
    """f, its frame gradient and Gamma(f) on the member's nodes, with (a, b).

    Chart members (no ``panels``) take the chart nodes and :func:`_chart_mu`,
    compact ones their panels, (atom, counts) for each atom.  ``arrays`` is
    (f, Xf, Yf, Zf) on those nodes, or None to evaluate f there.  Every array
    is read-only, since the context is shared by all checks of the family.
    """
    if f.analytic_gradient is None:
        raise ValueError(f"family member {f.name!r} lacks an analytic gradient")
    if not panels:
        m = heat_measure(_CFG)
        x, y, z, mu, m_out = m.x, m.y, m.z, _chart_mu(), 0.0
    else:
        nodes = [_atom_nodes(*p) for p in panels]
        x, y, z = (np.concatenate([n[k] for n in nodes]) for k in range(3))
        mu = np.concatenate([_atom_weights(*p, 0) for p in panels])
        m_out = 1.0 - float(np.sum(mu))
        if m_out < -1e-9:
            raise ArithmeticError(f"panel mass for {f.name!r} exceeds 1")
        m_out = max(m_out, 0.0)
    if arrays is None:
        arrays = (np.broadcast_to(np.asarray(v, dtype=float), mu.shape)
                  for v in f.value_and_gradient(x, y, z))
    vals, gx, gy, gz = arrays
    gam = gx * gx + gy * gy
    a, b = (float(v) for v in grad_sums(mu, (gx, gy, gz), x, y))
    for arr in (x, y, z, mu, vals, gx, gy, gz, gam):
        arr.flags.writeable = False
    return _MemberCtx(f.name, f, bool(panels), panels, x, y, z, mu, m_out,
                      vals, gx, gy, gz, gam, a, b)


def _combo_ctx(f: ScalarField, parts: list, coeffs: tuple) -> _MemberCtx:
    """The combo f = ca A + cb B's context from its parts', with the bits of
    :func:`_build_member_ctx` evaluating f: combine_fields' ca A + cb B on the
    shared chart nodes, and on compact parts' disjoint support boxes, where
    each is 0.0 on the other's panel, ca A then cb B into one buffer."""
    (A, B), (ca, cb) = parts, coeffs
    keys = ("vals", "gx", "gy", "gz")
    if not A.compact:
        arrays = [ca * getattr(A, k) + cb * getattr(B, k) for k in keys]
    else:
        arrays = [np.empty(A.mu.size + B.mu.size) for _ in keys]
        for out, k in zip(arrays, keys):
            np.multiply(ca, getattr(A, k), out=out[:A.mu.size])
            np.multiply(cb, getattr(B, k), out=out[A.mu.size:])
    return _build_member_ctx(f, A.panels + B.panels, arrays)


def _contexts(family: TestFunctionFamily):
    """Every member's shared context, in member order (see _member_ctx)."""
    for f in family.members:
        yield _member_ctx(family, f)


def _check_budget(ctx: _MemberCtx) -> float:
    return FAMILY_QUAD_BUDGET if ctx.compact else QUAD_BUDGET


# ---------------------------------------------------------------------------
# Driver-Melcher and reverse Poincare


def check_driver_melcher(family: TestFunctionFamily) -> list:
    """Gamma(P_t f)(0) <= 2(A+4) P_t(Gamma(f))(0) member by member."""
    const = 2.0 * (estimate_A() + 4.0)
    rows = []
    for ctx in _contexts(family):
        lhs = ctx.a * ctx.a + ctx.b * ctx.b
        rhs = const * ctx.expect(ctx.gam)
        rows.append(_report("driver-melcher", ctx.name, lhs, rhs, const,
                            budget=_check_budget(ctx)))
    return rows


def check_reverse_poincare(family: TestFunctionFamily) -> list:
    """t Gamma(P_t f)(0) <= P_t(f^2)(0) - (P_t f(0))^2 member by member."""
    rows = []
    for ctx in _contexts(family):
        lhs = ctx.a * ctx.a + ctx.b * ctx.b
        rows.append(_report("reverse-poincare", ctx.name, lhs, _variance(ctx, ctx.vals), 1.0,
                            budget=_check_budget(ctx)))
    return rows


# ---------------------------------------------------------------------------
# lower bounds for C_1 and C_2


def _kept_span(G: np.ndarray):
    lam, U = np.linalg.eigh(G)
    keep = lam > max(lam[-1], 0.0) * 1e-10
    return lam[keep], U[:, keep]


def _chart_p2(B: np.ndarray, G: np.ndarray):
    """Top of the p = 2 Rayleigh quotient over the chart block span."""
    lam, U = _kept_span(G)
    s2 = (U / lam) @ (U.T @ B)          # G^+ B
    S = B.T @ s2                        # 2 x 2
    evals, evecs = np.linalg.eigh(0.5 * (S + S.T))
    c2 = s2 @ evecs[:, -1]
    best = float(evals[-1])
    diag = np.diag(G)
    single2 = np.divide(B[:, 0] ** 2 + B[:, 1] ** 2, diag,
                        out=np.zeros(B.shape[0]), where=diag > 0.0)
    if float(np.max(single2)) > best:
        best = float(np.max(single2))
        c2 = np.eye(B.shape[0])[int(np.argmax(single2))]
    return best, c2


def _chart_p1(B: np.ndarray, gx: np.ndarray, gy: np.ndarray, mu: np.ndarray, starts: list):
    """Top of R(c) = |cB| / E|c.grad f| over the chart block span, from the best of ``starts``.

    Repeats c <- W(c)^+ B e(c), with e(c) = cB / |cB| and W(c) the Gram
    matrix under node weights mu / |c.grad f|.  By Cauchy-Schwarz
    R(c') >= e.(c'B) / sqrt(c'W(c)c' E|c.grad f|), with equality at c' = c,
    and the step maximises that minorant, so no step lowers R; the
    iteration stops at the first step that does not raise it.
    """
    def ratio(c):
        a = np.hypot(c @ gx, c @ gy)
        den = float(np.add.reduce(mu * a, axis=-1))
        return (math.hypot(*(c @ B)) / den if den > 0.0 else 0.0), a

    (best, a), c = max(((ratio(c), c) for c in starts), key=lambda t: t[0][0])
    while best > 0.0:
        g = c @ B
        w = np.divide(mu, a, out=np.zeros(mu.size), where=a > 0.0)
        lam, U = _kept_span((gx * w) @ gx.T + (gy * w) @ gy.T)
        c_next = U @ ((U.T @ (B @ (g / math.hypot(*g)))) / lam)
        r, a_next = ratio(c_next)
        if not r > best:
            break
        best, a, c = r, a_next, c_next
    return best, c


def _chart_span(family: TestFunctionFamily):
    """Gradient rows on the chart measure for polynomial-growth members.

    The frame gradients are the member contexts'; B and G weight them
    with the raw chart mu (see _chart_mu).
    """
    ctxs = [_member_ctx(family, f) for f in family.members if family.atoms.get(f.name) is None]
    m = heat_measure(_CFG)
    shape = (len(ctxs), m.mu.size)
    gx, gy, gz = (np.reshape([getattr(c, k) for c in ctxs], shape) for k in ("gx", "gy", "gz"))
    B = np.column_stack(grad_sums(m.mu, (gx, gy, gz), m.x, m.y))
    G = (gx * m.mu) @ gx.T + (gy * m.mu) @ gy.T
    return [c.name for c in ctxs], gx, gy, B, G, m.mu


def constants_estimate(family: TestFunctionFamily | None = None) -> ConstantEstimate:
    """A with the C_1 and C_2 lower bounds, each floored at 1: the best ratio
    |grad P_t f|^p(0) / P_t(|grad f|^p)(0), p = 1 and 2, over the
    combinations of the chart members in one chart span (see _chart_span).

    f* = Xhat log h ends every family build_family returns; its own ratios
    (1.5172 at p = 1, 2.0000060 at p = 2) bound the values below, and the
    compact members' single ratios stay far under them, so they are not
    searched; an empty span gives 0.  p = 2 is the top eigenvalue of B' G^+ B,
    B the n x 2 member gradients at 0 and G the Gram matrix of
    P_t(Gamma(f_i, f_j))(0); p = 1 is _chart_p1's fixed point, started
    from the better of the p = 2 witness and the best single."""
    if family is None:
        family = build_family()
    A = estimate_A()
    names, gx, gy, B, G, mu = _chart_span(family)
    c1 = c2 = 0.0
    if names:
        c2, c = _chart_p2(B, G)
        c1, _ = _chart_p1(B, gx, gy, mu, [c, *np.eye(len(c))])
    return ConstantEstimate(A=A, C1_lower=max(c1, 1.0), C2_lower=max(c2, 1.0))


# ---------------------------------------------------------------------------
# phi-entropy suite


def _pos_shift(ctx: _MemberCtx) -> float:
    """The member's least value where the measure lives, its outside atom's 0 included."""
    lo = float(np.min(ctx.vals))
    if ctx.compact:
        lo = min(lo, 0.0)    # the outside atom sees f = 0
    return lo


def _variance(ctx: _MemberCtx, arr, outside: float = 0.0) -> float:
    """E[(f - m)^2] over the member's measure, outside atom included: no difference of means."""
    m = ctx.expect(arr, outside)
    return ctx.expect((arr - m) ** 2, (outside - m) ** 2)


def _gap(d, log1p_d, p: float):
    """g_p(d) = ((1 + d)^p - 1 - p d) / (p - 1), (1 + d) log(1 + d) - d at p = 1: the convex
    phi_p(u) = u^p / (p - 1) (u log u at p = 1) above its tangent at u = 1, so >= 0."""
    if p == 1.0:
        return (1.0 + d) * log1p_d - d
    return (np.expm1(p * log1p_d) - p * d) / (p - 1.0)


def check_phi_suite(family: TestFunctionFamily, C1_working: float = SQRT2) -> list:
    """Log-Sobolev (p = 1), Beckner (p in {1.25, 1.5, 1.75}) and Poincare rows.

    Members are shifted to pos = f - min + 0.1 > 0; the shift leaves
    gradients untouched.  Each lhs is a mean of non-negative terms over the
    exactly unit-mass measure (panel plus outside atom for compact members),
    not a difference of nearly equal means: with m = E[pos] and
    d = pos / m - 1, E[phi_p(pos)] - phi_p(m) = m^p E[g_p(d)] (:func:`_gap`),
    and Var = E[(f - m)^2].  Each is within 5e-13 of a 50-digit sum of the
    same float terms.  At p = 1 the rhs p C^2 E[pos^(p-2) Gamma] is
    C^2 E[Gamma / pos].  One extra row compares Beckner at p = 2 - 1e-4
    against Poincare on the first member (continuity in p).
    """
    c1_sq = C1_working * C1_working
    rows = []
    consistency = None
    for ctx in _contexts(family):
        budget = _check_budget(ctx)
        lo = _pos_shift(ctx)
        pos, p_out = ctx.vals - lo + 0.1, 0.1 - lo
        m = ctx.expect(pos, p_out)
        d, d_out = pos / m - 1.0, p_out / m - 1.0
        log1p_d, log1p_out = np.log1p(d), math.log1p(d_out)

        def entropy(p):    # Ent_p(pos), and its row's rhs p C^2 E[pos^(p-2) Gamma]
            lhs = m**p * ctx.expect(_gap(d, log1p_d, p), _gap(d_out, log1p_out, p))
            return lhs, p * c1_sq * ctx.expect(pos ** (p - 2.0) * ctx.gam)

        for pexp in (1.0, 1.25, 1.5, 1.75):
            rows.append(_report("lsi" if pexp == 1.0 else f"beckner-{pexp}", ctx.name,
                                *entropy(pexp), C1_working, budget=budget))

        rhs_pi = 2.0 * c1_sq * ctx.expect(ctx.gam)
        rows.append(_report("poincare", ctx.name, _variance(ctx, ctx.vals), rhs_pi,
                            C1_working, budget=budget))

        if consistency is None:
            pexp = 2.0 - 1e-4
            lhs_b, rhs_b = entropy(pexp)
            var_pos = _variance(ctx, pos, p_out)
            dev = abs(lhs_b / var_pos - 1.0) if var_pos > 0 else 0.0
            dev = max(dev, abs(rhs_b / rhs_pi - 1.0) if rhs_pi > 0 else 0.0)
            consistency = _report("beckner-p2-consistency", ctx.name, dev, 1e-3,
                                  pexp, budget=0.0,
                                  note="Beckner at p = 2 - 1e-4 against Poincare, both sides")
    rows.append(consistency)
    return rows


# ---------------------------------------------------------------------------
# Cheeger, correlation, Bobkov, uniform gradient bound


def _gauss_isop(u):
    """I(u) = phi(Phi^{-1}(u)), the Gaussian isoperimetric profile."""
    q = _ndtri(u)
    return np.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)


def _squash(vals, gam):
    """f -> 0.1 + 0.8 sigma(f) with the matching Gamma factor."""
    with np.errstate(over="ignore"):  # exp(-vals) = inf gives the exact limit s = 0
        s = 1.0 / (1.0 + np.exp(-vals))
    der = 0.8 * s * (1.0 - s)
    return 0.1 + 0.8 * s, der * der * gam


def _tensorized_c1(rhs, lhs: float, c1: float) -> float:
    """The root C > c1 of rhs(C) = lhs for the increasing tensorized Bobkov
    rhs, by bisection to 1e-12: the bracket's upper end, where the row holds."""
    lo, hi = c1, 2.0 * c1
    while rhs(hi) < lhs:
        if hi > 1e6:
            raise ArithmeticError("the tensorized Bobkov rhs does not reach its lhs")
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if rhs(mid) < lhs else (lo, mid)
    return hi


def check_cheeger_bobkov(family: TestFunctionFamily, C1_working: float = SQRT2) -> list:
    """The L1 Cheeger bound, correlation pairs, both Bobkov forms, and
    the uniform gradient bound over a point grid with d <= 4.

    The tensorized Bobkov constant is written unsubscripted in the
    source inequality; C1_working stands in and the row carries a note.
    Its rhs E sqrt(I^2 + 2 C^4 Gamma) is no power of C, so a failing row
    carries the exact C at which it would hold.  The gradient-bound sup
    norm of f is max |f| over the member's own nodes, which for the
    compactly supported members cover their support; on the chart it
    does not grow with the grid's translations.  The lhs is
    :func:`_grid_grad`.  The compact members' kernel weights are
    :func:`_atom_weights`, read from the window table once per mollifier
    atom and grid point in the process, so combos that reuse the atoms of
    the bumps, and later calls on a family with the same atoms, pay no
    kernel evaluations.  The member contexts are the family's shared
    ones: after the constants and the phi suite, or on an update pass,
    this call builds none.
    """
    ctxs = list(_contexts(family))
    i_half = float(_gauss_isop(0.5))    # squash(0), the outside-atom level
    rows = []

    for ctx in ctxs:
        budget = _check_budget(ctx)
        mean = ctx.expect(ctx.vals)
        lhs = ctx.expect(np.abs(ctx.vals - mean), abs(mean))
        rhs = 4.0 * C1_working * ctx.expect(np.sqrt(ctx.gam))
        rows.append(_report("cheeger-l1", ctx.name, lhs, rhs, C1_working,
                            budget=budget))

        squashed, gam_s = _squash(ctx.vals, ctx.gam)
        mean_s = ctx.expect(squashed, 0.5)
        isf = _gauss_isop(squashed)
        lhs_b = float(_gauss_isop(mean_s)) - ctx.expect(isf, i_half)
        rhs_b = C1_working**2 * SQRT2 * ctx.expect(np.sqrt(gam_s))
        rows.append(_report("bobkov-semigroup", ctx.name, lhs_b, rhs_b, C1_working,
                            budget=budget))

        lhs_t = float(_gauss_isop(mean_s))

        def rhs_t(c):
            return ctx.expect(np.sqrt(isf * isf + 2.0 * c**4 * gam_s), i_half)

        rhs_c = rhs_t(C1_working)
        implied = _tensorized_c1(rhs_t, lhs_t, C1_working) if lhs_t > rhs_c else None
        rows.append(_report("bobkov-tensorized", ctx.name, lhs_t, rhs_c, C1_working,
                            budget=budget, implied_c1=implied,
                            note="source writes the constant unsubscripted; using C1_working"))

    for k in range(0, len(ctxs) - 1, 2):
        ci, cj = ctxs[k], ctxs[k + 1]
        # the product lives on the host support (or the shared chart nodes)
        if ci.compact:
            prod = ci.expect(ci.vals * np.asarray(cj.f.eval(ci.x, ci.y, ci.z), float))
        elif cj.compact:
            prod = cj.expect(cj.vals * np.asarray(ci.f.eval(cj.x, cj.y, cj.z), float))
        else:
            prod = ci.expect(ci.vals * cj.vals)
        cov = prod - ci.expect(ci.vals) * cj.expect(cj.vals)
        rhs = (2.0 * C1_working**2
               * math.sqrt(max(ci.expect(ci.gam), 0.0))
               * math.sqrt(max(cj.expect(cj.gam), 0.0)))
        budget = FAMILY_QUAD_BUDGET if (ci.compact or cj.compact) else QUAD_BUDGET
        rows.append(_report("correlation", f"{ci.name}|{cj.name}", abs(cov), rhs,
                            C1_working, budget=budget))

    for ctx in ctxs:
        worst = float(np.max(np.hypot(*_grid_grad(ctx))))
        rows.append(_report("grad-bound", ctx.name, worst, float(np.max(np.abs(ctx.vals))), 1.0,
                            budget=_check_budget(ctx),
                            note="sup norm taken over the member's nodes; a lower "
                                 "bound of the true sup, so passing is conservative"))
    return rows


def _grid_grad(ctx: _MemberCtx):
    """(X P_1 f, Y P_1 f) at each grad-bound grid point.

    A compact member sums its panel against its atoms' cached
    :func:`_atom_weights` rows, all read first (cold rows built between
    the row sums fragment the heap: 1.4 MB of peak RSS at size 24), one
    grid row at a time, each row copied once into one reused buffer.  A
    chart member, combos included, takes :func:`grad_Pt_at` at the first
    point of each orbit of its declared symmetries (:func:`_grid_orbits`)
    but the origin, whose term reads the context's frame gradient on the
    untranslated chart nodes; the orbits' other points take signed copies.
    """
    grid = _grad_grid()
    out = np.empty((2, len(grid)))
    if not ctx.compact:
        chart = heat_measure(_CFG)
        src, sign = _grid_orbits(ctx.f.rotation_order, ctx.f.mirror_parity)
        out[:, 0] = grad_sums(chart.mu, (ctx.gx, ctx.gy, ctx.gz), chart.x, chart.y)
        own = src == np.arange(len(grid))
        first = np.flatnonzero(own)[1:]
        out[:, first] = grad_Pt_at(ctx.f, chart, *grid[first].T)
        # a sum that cancels to zero is +0.0 at every point of its orbit,
        # so adding 0.0 turns a negated copy of it back into +0.0
        copy = ~own
        out[:, copy] = sign[:, copy] * out[:, src[copy]] + 0.0
        return out[0], out[1]
    parts = [[_atom_weights(*p, i) for p in ctx.panels] for i in range(len(grid))]
    # the panel covers the support, so the nodes stay put and
    # w^{-1} u has planar part (x - w1, y - w2)
    weights = np.empty(ctx.x.size)
    for i, part in enumerate(parts):
        out[:, i] = grad_sums(np.concatenate(part, out=weights), (ctx.gx, ctx.gy, ctx.gz),
                              ctx.x - grid[i, 0], ctx.y - grid[i, 1])
    return out[0], out[1]


# ---------------------------------------------------------------------------
# ray inequality in the geodesic chart


@dataclass(frozen=True)
class RaySurvey:
    constant: float     # the |u| -> inf limit L(1), the sup over the surveyed range
    sup: float          # the largest surveyed ratio
    argmax: tuple
    n_rays: int


def _ray_point(u_abs: float, s):
    # chart: r = 2|u| sin(phi), z = (|u|^2/2)(2 phi - sin 2 phi), phi = s/(2|u|)
    phi = np.asarray(s, dtype=float) / (2.0 * u_abs)
    r = 2.0 * u_abs * np.sin(phi)
    z = 0.5 * u_abs * u_abs * (2.0 * phi - np.sin(2.0 * phi))
    return r, z


# the ray survey's tail cut: past s with (s^2 - r^2)/4 = _RAY_TAIL the
# integrand is below e^{-(r^2/4 + _RAY_TAIL)}, under e^-20 of the endpoint mass
_RAY_TAIL = 20.0


def _ray_s_cap(u_abs: float) -> float:
    """The survey's tail cut on the ray |u|: the largest s with (s^2 - r^2)/4
    at most _RAY_TAIL, or the ray's end 2 pi |u| if it stays below."""
    lo, hi = 0.0, math.pi
    if 4.0 * u_abs * u_abs * (math.pi**2) <= 4.0 * _RAY_TAIL:
        return 2.0 * math.pi * u_abs
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 4.0 * u_abs * u_abs * (mid * mid - math.sin(mid) ** 2) <= 4.0 * _RAY_TAIL:
            lo = mid
        else:
            hi = mid
    return 2.0 * u_abs * lo


# upper end of the limit's s-range: the integral of s^4 p_1(s, 0) past it
# is 1.2e-26 of the integral from s = 1
_RAY_S_END = 16.0


# Gauss nodes per panel of a ray's s-range: the survey's ratios at 16 and
# 32 nodes a panel agree to 1.0e-10 of its sup
_RAY_NODES = 16


def _ray_ratios(u_abs: float, ts, m: int = _RAY_NODES) -> np.ndarray:
    """int_t^{s_hi} A h ds over A(u,t) h(u,t) at each t of the increasing ``ts``.

    The t's and s_hi, the tail cut, are the edges of Gauss panels of m
    nodes each, so a ratio's numerator is the sum of the panels right of
    its t, and each panel is integrated once for every t it serves.  One
    p1_many call takes every panel's nodes and left end, whose value is
    the denominator; each kernel value is set by its point alone, so the
    ratios have the bits of a call per panel.  The tail past s_hi carries
    less than e^-20 of the endpoint mass (the integrand there is below
    e^{-(r^2+4*20)/4} while the endpoint is of order e^{-t^2/4}), so
    dropping it cannot move the ratio at the reported precision.  Each
    t must lie below s_hi.
    """
    s_hi = min(2.0 * math.pi * u_abs * (1.0 - 1e-9), _ray_s_cap(u_abs))
    edges = np.append(np.asarray(ts, dtype=float), s_hi)
    s, ws = gauss_panels(edges, m)
    h = p1_many(*_ray_point(u_abs, np.append(edges[:-1], s)))
    pan = np.add.reduce((ws * jacobian_A(u_abs, s) * h[edges.size - 1:]).reshape(-1, m), axis=-1)
    den = jacobian_A(u_abs, edges[:-1]) * h[:edges.size - 1]
    return np.cumsum(pan[::-1])[::-1] / den


def _ray_limit(t: float) -> float:
    """L(t) = int_t^inf s^4 p_1(s, 0) ds / (t^4 p_1(t, 0)), the |u| -> inf limit of the ray ratio.

    As |u| grows at fixed s the ray tends to the line z = 0 and
    A(u, s) to s^4 / (12 |u|^3), whose |u| factor cancels in the ratio.
    One p1_many call on 96 Gauss nodes over [t, _RAY_S_END] and at t.
    """
    s, ws = gauss_legendre(t, _RAY_S_END, 96)
    h = p1_many(np.append(s, t), np.zeros(s.size + 1))
    return float(np.sum(ws * s**4 * h[:-1])) / (t**4 * float(h[-1]))


def check_ray_inequality() -> tuple:
    """The ray ratio's sup over t >= 1 against its |u| -> inf limit L(1).

    Returns (survey, report).  The ratio rises with |u| and falls with t,
    so its sup over the range t >= 1 is the limit L(1), which is the
    row's constant and rhs.  The range t >= 1 is the harness's own: the
    ratio grows without bound as t -> 0 (159.8 at t = 0.5, |u| = 3.9).
    The survey checks the constant on 20 values of |u| up to 3.9 and 16
    values of t per |u|; the row's lhs is the largest surveyed ratio.  A
    ray's 16 t's and its tail cut s_hi cut its s-range into 16 Gauss
    panels, so one :func:`_ray_ratios` call, with one kernel call,
    integrates each panel once and gives all 16 ratios as suffix sums;
    the tail past s_hi, below e^-20 of the endpoint mass, is dropped.
    """
    u_lo = 1.0 / (2.0 * math.pi) + 0.01
    const = _ray_limit(1.0)
    sup = 0.0
    arg = (u_lo, 1.0)
    count = 0
    for u_abs in np.geomspace(u_lo, 3.9, 20):
        t_hi = min(2.0 * math.pi * u_abs * (1.0 - 1e-6), _ray_s_cap(u_abs)) - 1e-6
        if t_hi <= 1.0:
            continue
        ts = np.linspace(1.0, t_hi, 16)
        for t, ratio in zip(ts, _ray_ratios(float(u_abs), ts)):
            count += 1
            if ratio > sup:
                sup = float(ratio)
                arg = (float(u_abs), float(t))
    rep = _report("ray-inequality", f"grid({count} rays)", sup, const, const,
                  note=f"sup {sup:.6f} at |u|,t = {arg[0]:.4f},{arg[1]:.4f}; rhs is the "
                       f"|u| -> inf limit L(1) on the harness's range t >= 1")
    return RaySurvey(const, sup, arg, count), rep


# ---------------------------------------------------------------------------
# (1,1) Poincare on a CC ball


def check_local_11_poincare(family: TestFunctionFamily) -> tuple:
    """int_B |f - m| dx against int_B |grad f| dx over the unit CC ball.

    Lebesgue weights on both sides; m is the ball mean.  Returns
    (empirical sup ratio, reports) where each report's rhs carries the
    final empirical constant, so passing is by construction and the
    content is the constant's finiteness and size.
    """
    x, y, z, wq = chart_ball_nodes(1.0, n_s=32, n_phi=24, n_alpha=16)
    vol = float(np.sum(wq))
    pairs = []
    for f in family.members:
        vals, gx, gy, _ = (np.broadcast_to(np.asarray(v, dtype=float), wq.shape)
                           for v in f.value_and_gradient(x, y, z))
        gnorm = np.hypot(gx, gy)
        m = float(np.sum(wq * vals)) / vol
        lhs = float(np.sum(wq * np.abs(vals - m)))
        rhs = float(np.sum(wq * gnorm))
        scale = max(1.0, float(np.max(np.abs(vals))))
        if rhs <= 1e-13 * scale:
            if lhs <= 1e-12 * scale:
                pairs.append((f.name, None, None))   # constant on B, skipped
                continue
            raise ArithmeticError(f"member {f.name}: zero gradient mass with nonzero "
                                  "oscillation on the ball")
        pairs.append((f.name, lhs, rhs))
    ratios = [l / r for _, l, r in pairs if l is not None]
    sup = max(ratios) if ratios else 0.0
    rows = []
    for name, lhs, rhs in pairs:
        if lhs is None:
            rows.append(_report("local-11-poincare", name, 0.0, 0.0, sup,
                                note="constant on the ball, skipped"))
        else:
            rows.append(_report("local-11-poincare", name, lhs, sup * rhs, sup))
    return sup, rows


# ---------------------------------------------------------------------------
# complex commutation

# name -> mollifier atom (center, width, vert) of each default bump, all in 2 < d < 5
_COMMUTATION_ATOMS = {
    "bump-axis": ((0.0, 0.0, 1.0), 0.5, 0.5 / 3.0),
    "bump-offaxis": ((3.3, 0.6, 0.2), 0.55, 0.55 / 3.0),
    "bump-offaxis-2": ((-2.3, 2.2, -0.3), 0.5, 0.5 / 3.0),
}


def commutation_default_bumps() -> list:
    """The commutation check's three mollifier bumps, one per atom it knows.

    The first is centred on the z-axis, so both sides vanish by symmetry;
    the other two are generic translated bumps off the axis.
    """
    from .family import bump_field

    return [bump_field(*atom, name=name) for name, atom in _COMMUTATION_ATOMS.items()]


@cache
def _commutation_weights(atom: tuple, counts: tuple):
    """(leb p_1, leb p1*) on one atom's panel nodes: the two sides' weights."""
    x, y, z, leb = _atom_nodes(atom, counts)
    r = np.hypot(x, y)
    left = leb * p1_many(r, z)
    right = leb * p1_star_shifted(r, z)
    left.flags.writeable = right.flags.writeable = False
    return left, right


def check_commutation(f: ScalarField | None = None) -> InequalityReport:
    """(X + iY)P_1 f(0) against the shifted-kernel integral of (X + iY)f.

    Both sides are sums on the bump's own atom panel at the compact
    members' bump counts: the left is :func:`grad_sums` against leb p_1,
    as the grad-bound rows form it, the right sum leb p1* (Xf + iYf).
    The row passes when the gap is at most 1e-8 |rhs| plus the report's
    floor; its note holds both sides.  ``f`` must be one of
    :func:`commutation_default_bumps`, found by name; any other field
    raises ValueError.
    """
    if f is None:
        f = commutation_default_bumps()[1]
    atom = _COMMUTATION_ATOMS.get(f.name)
    if atom is None:
        raise ValueError(f"no mollifier atom known for {f.name!r}; "
                         f"expected one of {sorted(_COMMUTATION_ATOMS)}")
    counts = _PANEL_COUNTS["bump"]
    x, y, z, _ = _atom_nodes(atom, counts)
    left, right = _commutation_weights(atom, counts)
    grad = f.analytic_gradient(x, y, z)
    lhs = complex(*grad_sums(left, grad, x, y))
    rhs = complex(np.add.reduce(right * (grad[0] + 1j * grad[1]), axis=-1))
    return _report("commutation", f.name, abs(lhs - rhs), 1e-8 * abs(rhs), 1e-8, budget=0.0,
                   note=f"lhs {lhs!r} rhs {rhs!r}")


# ---------------------------------------------------------------------------
# Gamma_2 unboundedness


def demonstrate_gamma2_unbounded() -> InequalityReport:
    """Exhibit a cubic f with Gamma_2(f)/Gamma(f) below -1000.

    At the origin f = x + M yz has Xf = 1, YZf = M and every other term
    of Gamma_2 zero, so Gamma = 1 and Gamma_2 = -2M: no K gives
    Gamma_2 >= K Gamma.  The origin is no restriction.  X, Y and Z are
    left-invariant and a left translate of a cubic is a cubic, so no
    other point reaches a ratio that the origin cannot.  Gamma_2 is
    group.gamma2 on f's coefficients, and Gamma = (Xf)^2 + (Yf)^2 reads
    the exact frame gradient; both are exact, so the row passes only if
    the ratio equals -2M.
    """
    target = -1e3
    M = 0.6 * abs(target)
    coeffs = {(1, 0, 0): 1.0, (0, 1, 1): M}
    xf, yf, _ = poly_field(coeffs).analytic_gradient(0.0, 0.0, 0.0)
    ratio = gamma2(coeffs, GroupElement(0.0, 0.0, 0.0)) / float(xf * xf + yf * yf)
    closed = -2.0 * M
    rep = _report("gamma2-unbounded", "gamma2-witness", ratio, target, target, budget=0.0,
                  note=f"f = x + {M:g} yz at 0, ratio {ratio:.10g}, closed form {closed:g}")
    return replace(rep, passed=rep.passed and ratio == closed)


# ---------------------------------------------------------------------------
# Kolmogorov counterexample


def check_kolmogorov_counterexample() -> list:
    """The R^2 hypoelliptic process where the forward Poincare dies.

    From 400,000 seeded exact draws at t = 1: Var of the integrated
    coordinate matches t^3/3; the test function f = y has
    Gamma(f) = (d_x f)^2 = 0 exactly, so the Poincare rhs is zero against
    a positive variance: that row is an expected violation and carries
    ``passed = False`` deliberately.  The reverse-inequality
    ratio for f = x stays finite (near 1) and is reported.
    """
    t, n = 1.0, 400_000
    u, v = sample_kolmogorov(t, 90210, n)
    target = t**3 / 3.0
    v2 = v * v
    se_v2 = float(np.std(v2)) / math.sqrt(n)
    var_v = float(np.mean(v2)) - float(np.mean(v)) ** 2
    rows = [
        _report("kolmogorov-variance", "second coordinate", abs(var_v - target),
                3.0 * se_v2, target, budget=0.0,
                note=f"measured {var_v:.6f} against t^3/3 = {target:.6f}"),
        _report("kolmogorov-forward-poincare", "f = y", var_v, 0.0, math.nan,
                budget=0.0, expected_violation=True,
                note="expected violation: Gamma(y-field) = 0 exactly while Var > 0; "
                     "no constant C(t) can hold"),
    ]
    # E[second coordinate] from start (1, 0) is y + t x = t
    mean_lin = t + float(np.mean(v))
    se_v = float(np.std(v)) / math.sqrt(n)
    rows.append(_report("kolmogorov-semigroup-linear", "f = y at (1,0)",
                        abs(mean_lin - t), 3.0 * se_v, t, budget=0.0,
                        note=f"measured {mean_lin:.6f} against t = {t:.6f}"))
    # reverse ratio for f = x: Var(u)/ (t Gamma(P_t f)) with Gamma(P_t f) = 1
    var_u = float(np.var(u))
    se_u2 = float(np.std(u * u)) / math.sqrt(n)
    rows.append(_report("kolmogorov-reverse-ratio", "f = x", abs(var_u - t),
                        3.0 * se_u2, var_u / t, budget=0.0,
                        note=f"finite reverse ratio Var/(t Gamma) = {var_u / t:.6f}"))
    return rows


# ---------------------------------------------------------------------------
# adaptive orchestration


# the rows that carry C_1, each with the power k of rhs proportional to
# C_1^k; the tensorized Bobkov rhs is no power, and its failing rows carry
# their implied constant
_C_POWER = {
    "lsi": 2.0, "beckner-1.25": 2.0, "beckner-1.5": 2.0, "beckner-1.75": 2.0,
    "poincare": 2.0, "correlation": 2.0, "bobkov-semigroup": 2.0,
    "cheeger-l1": 1.0, "bobkov-tensorized": None,
}


def _implied_c1(rep: InequalityReport, used: float) -> float:
    """The C_1 at which a failing row holds with equality; ``used`` otherwise."""
    if rep.check not in _C_POWER or rep.rhs <= 0.0 or rep.lhs <= rep.rhs:
        return used
    k = _C_POWER[rep.check]
    if k is None:
        return rep.implied_c1
    return used * (rep.lhs / rep.rhs) ** (1.0 / k)


@dataclass(frozen=True)
class SuiteResult:
    reports: tuple
    constants: ConstantEstimate
    first_pass_violations: int
    update_passes: int

    @property
    def violations(self):
        return tuple(r for r in self.reports if not r.passed)

    @property
    def unexpected(self):
        """Rows whose verdict differs from the expected one."""
        return tuple(r for r in self.reports if r.passed == r.expected_violation)


def run_inequality_suite(family: TestFunctionFamily | None = None,
                         constants: ConstantEstimate | None = None) -> SuiteResult:
    """Phi suite plus Cheeger/Bobkov with the adaptive-constant policy.

    A violation under the working constant is read as a better lower
    bound: C1_working moves to the largest implied constant plus 1e-3
    and both check groups rerun once.  Each implied constant is exact,
    so at most one update pass is made.  The returned reports are the
    final pass; the count of first-pass violations records whether the
    update triggered.
    """
    if family is None:
        family = build_family()
    if constants is None:
        constants = constants_estimate(family)
    c1w = constants.C1_working
    rows = check_phi_suite(family, c1w) + check_cheeger_bobkov(family, c1w)
    bad = [r for r in rows if not r.passed and r.check in _C_POWER]
    if bad:
        c1w = max(_implied_c1(r, c1w) for r in bad) + 1e-3
        rows = check_phi_suite(family, c1w) + check_cheeger_bobkov(family, c1w)
    final = ConstantEstimate(A=constants.A, C1_lower=constants.C1_lower,
                             C2_lower=constants.C2_lower, C1_working=c1w)
    rows.append(_report("c2-vs-c1sq", "constants", final.C2_lower,
                        c1w * c1w, c1w,
                        note=f"C2_lower {final.C2_lower:.6f} against C1_working^2"))
    rows.sort(key=lambda r: (r.check, r.function))
    return SuiteResult(tuple(rows), final, len(bad), int(bool(bad)))
