"""Heisenberg group calculus in exponential coordinates.

The group is R^3 with product

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x y' - y x')/2),

anisotropic dilations (x, y, z) -> (lx, ly, l^2 z), and homogeneous norm
((x^2 + y^2)^2 + z^2)^(1/4).  Left-invariant horizontal fields

    X = d/dx - (y/2) d/dz,      Y = d/dy + (x/2) d/dz,      Z = d/dz,

satisfy [X, Y] = Z; the right-invariant partners Xhat, Yhat commute with
them.  Theta is the horizontal rotation x d/dy - y d/dx and D the
dilation generator (x d/dx + y d/dy)/2 + z d/dz.

Derivatives of a :class:`ScalarField` use the analytic gradient when the
field carries one, otherwise centered differences along the straight
line through the field's direction vector (which is the integral curve
for X, Y, Z, Xhat, Yhat, and first-order exact for Theta and D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "GroupElement",
    "CylPoint",
    "ScalarField",
    "DiffOpResult",
    "FIELD_NAMES",
    "multiply",
    "inverse",
    "dilate",
    "homogeneous_norm",
    "left_translate",
    "apply_field",
    "gamma",
    "apply_L",
    "gamma2",
    "derived_field",
    "poly_field",
    "validate_gradient",
]

FIELD_NAMES = ("X", "Y", "Z", "Xhat", "Yhat", "Theta", "D")

# centered-difference base steps by derivative order of the context
FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 1e-4


def _as_scalar(v) -> float:
    """Collapse a scalar-like evaluation result (0-d or length-1) to float."""
    return float(np.squeeze(np.asarray(v, dtype=float)))


@dataclass(frozen=True)
class GroupElement:
    x: float
    y: float
    z: float

    def as_tuple(self):
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class CylPoint:
    """Cylindrical coordinates (r, theta, z) with r >= 0, theta in [0, 2pi)."""

    r: float
    theta: float
    z: float

    def __post_init__(self):
        if self.r < 0.0:
            raise ValueError("r must be >= 0")
        if not (0.0 <= self.theta < 2.0 * math.pi):
            raise ValueError("theta must lie in [0, 2pi)")

    @staticmethod
    def from_group(p: GroupElement) -> "CylPoint":
        r = math.hypot(p.x, p.y)
        theta = math.atan2(p.y, p.x) % (2.0 * math.pi)
        if r == 0.0:
            theta = 0.0
        return CylPoint(r, theta, p.z)

    def to_group(self) -> GroupElement:
        return GroupElement(self.r * math.cos(self.theta), self.r * math.sin(self.theta), self.z)


def _mul_arrays(ax, ay, az, bx, by, bz):
    """Group product on coordinate arrays (broadcasting)."""
    return (
        ax + bx,
        ay + by,
        az + bz + 0.5 * (ax * by - ay * bx),
    )


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    x, y, z = _mul_arrays(a.x, a.y, a.z, b.x, b.y, b.z)
    return GroupElement(float(x), float(y), float(z))


def inverse(a: GroupElement) -> GroupElement:
    # exponential coordinates: inversion is negation
    return GroupElement(-a.x, -a.y, -a.z)


def dilate(a: GroupElement, lam: float) -> GroupElement:
    return GroupElement(lam * a.x, lam * a.y, lam * lam * a.z)


def homogeneous_norm(a: GroupElement) -> float:
    return float(((a.x * a.x + a.y * a.y) ** 2 + a.z * a.z) ** 0.25)


@dataclass
class ScalarField:
    """Smooth function on the group with vectorized evaluation.

    ``eval(x, y, z)`` must accept numpy arrays and broadcast.  When
    ``analytic_gradient`` is given it returns the left-invariant frame
    components (Xf, Yf, Zf) and must agree with centered differences of
    ``eval`` to O(fd_step^2).
    """

    eval: Callable
    analytic_gradient: Optional[Callable] = None
    fd_step: float = FD_STEP_FIRST
    name: str = ""

    def __post_init__(self):
        if not (self.fd_step > 0.0):
            raise ValueError("fd_step must be > 0")

    def value_at(self, p: GroupElement) -> float:
        return _as_scalar(self.eval(p.x, p.y, p.z))

    @property
    def rotation_order(self) -> Optional[int]:
        """How f transforms under the rotations R_a by a about the z axis.

        1: f o R_a = cos(a) f + sin(a) (f o R_{pi/2});  0: f o R_a = f;
        None: nothing declared.  It is an attribute of ``eval``, so a field
        rebuilt around the same function (or a ``functools.wraps`` wrapper
        of it) keeps the declaration, and one built around any other
        function drops it.
        """
        return getattr(self.eval, "rotation_order", None)


@dataclass(frozen=True)
class DiffOpResult:
    value: float
    scheme: str  # "analytic" or "centered-fd"


def _direction(op: str, x, y, z):
    """Coordinate components of the field ``op`` at (x, y, z)."""
    zero = np.zeros_like(np.asarray(x, dtype=float))
    one = zero + 1.0
    if op == "X":
        return one, zero, -0.5 * y + zero
    if op == "Y":
        return zero, one, 0.5 * x + zero
    if op == "Z":
        return zero, zero, one
    if op == "Xhat":
        return one, zero, 0.5 * y + zero
    if op == "Yhat":
        return zero, one, -0.5 * x + zero
    if op == "Theta":
        return -y + zero, x + zero, zero
    if op == "D":
        return 0.5 * x + zero, 0.5 * y + zero, z + zero
    raise ValueError(f"unknown field {op!r}; expected one of {FIELD_NAMES}")


def _combo_from_frame(op: str, x, y, z, gx, gy, gz):
    """Express ``op`` applied to f through the frame (Xf, Yf, Zf)."""
    if op == "X":
        return gx
    if op == "Y":
        return gy
    if op == "Z":
        return gz
    if op == "Xhat":
        return gx + y * gz
    if op == "Yhat":
        return gy - x * gz
    if op == "Theta":
        return x * gy - y * gx - 0.5 * (x * x + y * y) * gz
    if op == "D":
        return 0.5 * x * gx + 0.5 * y * gy + z * gz
    raise ValueError(f"unknown field {op!r}; expected one of {FIELD_NAMES}")


def _fd_directional(f: ScalarField, p: GroupElement, vx, vy, vz, step: float) -> float:
    scale = step * (1.0 + max(abs(p.x), abs(p.y), abs(p.z)))
    fp = _as_scalar(f.eval(p.x + scale * vx, p.y + scale * vy, p.z + scale * vz))
    fm = _as_scalar(f.eval(p.x - scale * vx, p.y - scale * vy, p.z - scale * vz))
    return (fp - fm) / (2.0 * scale)


def apply_field(op: str, f: ScalarField, p: GroupElement, step: float | None = None) -> DiffOpResult:
    """Apply one of X, Y, Z, Xhat, Yhat, Theta, D to ``f`` at ``p``.

    Uses the analytic gradient when present (every one of the seven
    fields is a pointwise combination of Xf, Yf, Zf), else a centered
    difference along the field direction with step scaled by
    (1 + max |coordinate|).
    """
    if f.analytic_gradient is not None:
        gx, gy, gz = f.analytic_gradient(p.x, p.y, p.z)
        value = _combo_from_frame(op, p.x, p.y, p.z, gx, gy, gz)
        return DiffOpResult(_as_scalar(value), "analytic")
    vx, vy, vz = _direction(op, p.x, p.y, p.z)
    h = step if step is not None else f.fd_step
    return DiffOpResult(_fd_directional(f, p, float(vx), float(vy), float(vz), h), "centered-fd")


def derived_field(op: str, f: ScalarField) -> ScalarField:
    """The function q -> (op f)(q) as a field (no gradient of its own)."""

    if f.analytic_gradient is not None:

        def ev(x, y, z):
            gx, gy, gz = f.analytic_gradient(x, y, z)
            return _combo_from_frame(op, np.asarray(x, float), np.asarray(y, float),
                                     np.asarray(z, float), gx, gy, gz)

    else:
        h = f.fd_step

        def ev(x, y, z):
            x = np.asarray(x, float)
            y = np.asarray(y, float)
            z = np.asarray(z, float)
            vx, vy, vz = _direction(op, x, y, z)
            scale = h * (1.0 + np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z))))
            fp = f.eval(x + scale * vx, y + scale * vy, z + scale * vz)
            fm = f.eval(x - scale * vx, y - scale * vy, z - scale * vz)
            return (fp - fm) / (2.0 * scale)

    return ScalarField(eval=ev, fd_step=max(f.fd_step, FD_STEP_SECOND), name=f"{op}({f.name})")


def gamma(f: ScalarField, g: ScalarField, p: GroupElement) -> float:
    """Carre du champ Gamma(f, g) = Xf Xg + Yf Yg at ``p``."""
    xf = apply_field("X", f, p).value
    yf = apply_field("Y", f, p).value
    if g is f:
        return xf * xf + yf * yf
    xg = apply_field("X", g, p).value
    yg = apply_field("Y", g, p).value
    return xf * xg + yf * yg


def apply_L(f: ScalarField, p: GroupElement) -> float:
    """Sub-Laplacian L = X^2 + Y^2 at ``p``.

    With an analytic gradient the outer layer is one centered difference
    of the exact frame components; otherwise the full coordinate stencil

        L = dxx + dyy + (x^2+y^2)/4 dzz + x dyz - y dxz

    is evaluated with second-order steps.
    """
    if f.analytic_gradient is not None:
        xf_field = derived_field("X", f)
        yf_field = derived_field("Y", f)
        xxf = apply_field("X", xf_field, p, step=FD_STEP_SECOND).value
        yyf = apply_field("Y", yf_field, p, step=FD_STEP_SECOND).value
        return xxf + yyf

    x, y, z = p.x, p.y, p.z
    h = FD_STEP_SECOND * (1.0 + max(abs(x), abs(y), abs(z)))
    f0 = _as_scalar(f.eval(x, y, z))
    dxx = (_as_scalar(f.eval(x + h, y, z)) - 2.0 * f0 + _as_scalar(f.eval(x - h, y, z))) / h**2
    dyy = (_as_scalar(f.eval(x, y + h, z)) - 2.0 * f0 + _as_scalar(f.eval(x, y - h, z))) / h**2
    dzz = (_as_scalar(f.eval(x, y, z + h)) - 2.0 * f0 + _as_scalar(f.eval(x, y, z - h))) / h**2
    dyz = (
        _as_scalar(f.eval(x, y + h, z + h))
        - _as_scalar(f.eval(x, y + h, z - h))
        - _as_scalar(f.eval(x, y - h, z + h))
        + _as_scalar(f.eval(x, y - h, z - h))
    ) / (4.0 * h**2)
    dxz = (
        _as_scalar(f.eval(x + h, y, z + h))
        - _as_scalar(f.eval(x + h, y, z - h))
        - _as_scalar(f.eval(x - h, y, z + h))
        + _as_scalar(f.eval(x - h, y, z - h))
    ) / (4.0 * h**2)
    return dxx + dyy + 0.25 * (x * x + y * y) * dzz + x * dyz - y * dxz


def gamma2(f: ScalarField, p: GroupElement) -> float:
    """Iterated form Gamma_2(f) at ``p``:

        (X^2 f)^2 + (Y^2 f)^2 + ((XY+YX)f)^2/2 + (Zf)^2/2
        + 2 (XZf * Yf - YZf * Xf).

    Unbounded below as a quadratic form in f: the mixed third-order term
    has no sign, which is the group's "Ricci = -infinity" phenomenon.
    """
    xf = apply_field("X", f, p).value
    yf = apply_field("Y", f, p).value
    zf = apply_field("Z", f, p).value

    fx = derived_field("X", f)
    fy = derived_field("Y", f)
    fz = derived_field("Z", f)
    xxf = apply_field("X", fx, p, step=FD_STEP_SECOND).value
    yyf = apply_field("Y", fy, p, step=FD_STEP_SECOND).value
    xyf = apply_field("X", fy, p, step=FD_STEP_SECOND).value
    yxf = apply_field("Y", fx, p, step=FD_STEP_SECOND).value
    xzf = apply_field("X", fz, p, step=FD_STEP_SECOND).value
    yzf = apply_field("Y", fz, p, step=FD_STEP_SECOND).value

    return (
        xxf * xxf
        + yyf * yyf
        + 0.5 * (xyf + yxf) ** 2
        + 0.5 * zf * zf
        + 2.0 * (xzf * yf - yzf * xf)
    )


def left_translate(f: ScalarField, a: GroupElement) -> ScalarField:
    """The field q -> f(a * q); the frame gradient transports exactly."""

    def ev(x, y, z):
        px, py, pz = _mul_arrays(a.x, a.y, a.z, np.asarray(x, float), np.asarray(y, float),
                                 np.asarray(z, float))
        return f.eval(px, py, pz)

    grad = None
    if f.analytic_gradient is not None:

        def grad(x, y, z):
            px, py, pz = _mul_arrays(a.x, a.y, a.z, np.asarray(x, float), np.asarray(y, float),
                                     np.asarray(z, float))
            return f.analytic_gradient(px, py, pz)

    return ScalarField(eval=ev, analytic_gradient=grad, fd_step=f.fd_step,
                       name=f"translate({f.name})")


# --- polynomial fields -----------------------------------------------------

def _monomial(c: float, x, i: int, y, j: int, z, k: int):
    """c * x**i * y**j * z**k, multiplied left to right without its factors equal to 1.

    Multiplying by exactly 1.0 is exact, so the result has the bits of
    the full product.
    """
    out = None if c == 1.0 else c
    for v, e in ((x, i), (y, j), (z, k)):
        if e:
            p = v if e == 1 else v**e
            out = p if out is None else out * p
    return 1.0 if out is None else out


def _add(total, term):
    return term if total is None else total + term


def _fresh(v, shape, inputs):
    """``v`` as a new array of ``shape``; None is the empty sum."""
    if v is None:
        return np.zeros(shape)
    if isinstance(v, np.ndarray) and v.shape == shape and not any(v is a for a in inputs):
        return v
    return np.array(np.broadcast_to(v, shape))


def poly_field(coeffs: dict, name: str = "poly") -> ScalarField:
    """Polynomial sum c * x^i y^j z^k from ``{(i, j, k): c}`` with exact frame gradient.

    Terms are summed in the order of ``coeffs``, with no zero accumulator.
    The rotation order is 0 when every term has i = j = 0, 1 when every
    term has i + j = 1, and undeclared otherwise.
    """
    items = [((int(i), int(j), int(k)), float(c)) for (i, j, k), c in coeffs.items()]

    def ev(x, y, z):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        z = np.asarray(z, float)
        total = None
        for (i, j, k), c in items:
            total = _add(total, _monomial(c, x, i, y, j, z, k))
        return _fresh(total, np.broadcast(x, y, z).shape, (x, y, z))

    def grad(x, y, z):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        z = np.asarray(z, float)
        px = py = pz = None
        for (i, j, k), c in items:
            if i:
                px = _add(px, _monomial(c * i, x, i - 1, y, j, z, k))
            if j:
                py = _add(py, _monomial(c * j, x, i, y, j - 1, z, k))
            if k:
                pz = _add(pz, _monomial(c * k, x, i, y, j, z, k - 1))
        # X = d_x - (y/2) d_z, Y = d_y + (x/2) d_z; an absent partial is zero
        if pz is not None:
            hx = 0.5 * y * pz
            hy = 0.5 * x * pz
            px = -hx if px is None else px - hx
            py = hy if py is None else py + hy
        shape = np.broadcast(x, y, z).shape
        return tuple(_fresh(g, shape, (x, y, z)) for g in (px, py, pz))

    planar = {i + j for (i, j, _), _ in items}
    if planar <= {0}:
        ev.rotation_order = 0
    elif planar == {1}:
        ev.rotation_order = 1
    return ScalarField(eval=ev, analytic_gradient=grad, name=name)


def validate_gradient(f: ScalarField, points, rtol: float = 1e-6, atol: float = 1e-6) -> float:
    """Worst |analytic - centered-fd| frame-gradient deviation over points."""
    if f.analytic_gradient is None:
        raise ValueError("field has no analytic gradient to validate")
    worst = 0.0
    stripped = ScalarField(eval=f.eval, fd_step=f.fd_step, name=f.name)
    for p in points:
        ga = f.analytic_gradient(p.x, p.y, p.z)
        for op, exact in zip(("X", "Y", "Z"), ga):
            approx = apply_field(op, stripped, p).value
            dev = abs(float(exact) - approx)
            worst = max(worst, dev)
            if dev > atol + rtol * abs(float(exact)):
                raise AssertionError(
                    f"gradient mismatch for {f.name!r} {op} at {p}: "
                    f"analytic {float(exact):.6e} vs fd {approx:.6e}"
                )
    return worst
