"""Heisenberg group calculus in exponential coordinates.

The group is R^3 with product

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x y' - y x')/2),

anisotropic dilations (x, y, z) -> (lx, ly, l^2 z), and homogeneous norm
((x^2 + y^2)^2 + z^2)^(1/4).  Left-invariant horizontal fields

    X = d/dx - (y/2) d/dz,      Y = d/dy + (x/2) d/dz,      Z = d/dz,

satisfy [X, Y] = Z, the only nonzero bracket.  They are the fields the
library differentiates along; the right-invariant partners, the rotation
and the dilation generator, which only checks of the calculus use, live
with the tests.

Derivatives of a :class:`ScalarField` use the analytic gradient when the
field carries one, otherwise centered differences along the straight
line through the field's direction vector, which is the integral curve
of each of X, Y and Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "GroupElement",
    "ScalarField",
    "FIELD_NAMES",
    "multiply",
    "inverse",
    "apply_field",
    "gamma",
    "gamma2",
    "derived_field",
    "poly_field",
]

FIELD_NAMES = ("X", "Y", "Z")

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


@dataclass
class ScalarField:
    """Smooth function on the group with vectorized evaluation.

    ``eval(x, y, z)`` must accept numpy arrays and broadcast.  When
    ``analytic_gradient`` is given it returns the left-invariant frame
    components (Xf, Yf, Zf) and must agree with centered differences of
    ``eval`` to O(fd_step^2).  A field whose value and gradient share
    their work may also give ``joint``, returning (f, Xf, Yf, Zf) from
    one evaluation with the bits of ``eval`` and ``analytic_gradient``;
    callers that need both read them through :meth:`value_and_gradient`.
    """

    eval: Callable
    analytic_gradient: Optional[Callable] = None
    fd_step: float = FD_STEP_FIRST
    name: str = ""
    joint: Optional[Callable] = None

    def __post_init__(self):
        if not (0.0 < self.fd_step < np.inf):
            raise ValueError("fd_step must be finite and > 0")
        if self.joint is not None and self.analytic_gradient is None:
            raise ValueError("a joint evaluation needs an analytic gradient")

    def value_and_gradient(self, x, y, z):
        """(f, Xf, Yf, Zf) at (x, y, z): ``joint`` when given, else
        ``eval`` and ``analytic_gradient``, which must be given."""
        if self.joint is not None:
            return self.joint(x, y, z)
        return (self.eval(x, y, z), *self.analytic_gradient(x, y, z))

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

    @property
    def mirror_parity(self) -> Optional[int]:
        """e = +1 or -1 when f o M = e f for the mirror M(x, y, z) = (x, -y, -z);
        None: nothing declared.  An attribute of ``eval``, kept and dropped
        as :attr:`rotation_order` is.
        """
        return getattr(self.eval, "mirror_parity", None)


def _unknown(op: str) -> ValueError:
    return ValueError(f"unknown field {op!r}; expected one of {FIELD_NAMES}")


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
    raise _unknown(op)


def _combo_from_frame(op: str, gx, gy, gz):
    """``op`` f read off the frame (Xf, Yf, Zf)."""
    if op not in FIELD_NAMES:
        raise _unknown(op)
    return (gx, gy, gz)[FIELD_NAMES.index(op)]


def apply_field(op: str, f: ScalarField, p: GroupElement) -> float:
    """Apply one of X, Y, Z to ``f`` at ``p``: :func:`derived_field` at the point.

    Uses the analytic gradient when present, else a centered difference
    along the field direction with step f.fd_step (1 + max |coordinate|).
    """
    return _as_scalar(derived_field(op, f).eval(p.x, p.y, p.z))


def derived_field(op: str, f: ScalarField) -> ScalarField:
    """The function q -> (op f)(q) as a field (no gradient of its own)."""

    if f.analytic_gradient is not None:

        def ev(x, y, z):
            return _combo_from_frame(op, *f.analytic_gradient(x, y, z))

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
    xf = apply_field("X", f, p)
    yf = apply_field("Y", f, p)
    if g is f:
        return xf * xf + yf * yf
    xg = apply_field("X", g, p)
    yg = apply_field("Y", g, p)
    return xf * xg + yf * yg


def gamma2(f: ScalarField, p: GroupElement) -> float:
    """Iterated form Gamma_2(f) at ``p``:

        (X^2 f)^2 + (Y^2 f)^2 + ((XY+YX)f)^2/2 + (Zf)^2/2
        + 2 (XZf * Yf - YZf * Xf).

    Unbounded below as a quadratic form in f: the mixed third-order term
    has no sign, which is the group's "Ricci = -infinity" phenomenon.
    Second derivatives difference the derived fields, of step
    max(f.fd_step, FD_STEP_SECOND).
    """
    xf = apply_field("X", f, p)
    yf = apply_field("Y", f, p)
    zf = apply_field("Z", f, p)

    fx = derived_field("X", f)
    fy = derived_field("Y", f)
    fz = derived_field("Z", f)
    xxf = apply_field("X", fx, p)
    yyf = apply_field("Y", fy, p)
    xyf = apply_field("X", fy, p)
    yxf = apply_field("Y", fx, p)
    xzf = apply_field("X", fz, p)
    yzf = apply_field("Y", fz, p)

    return (
        xxf * xxf
        + yyf * yyf
        + 0.5 * (xyf + yxf) ** 2
        + 0.5 * zf * zf
        + 2.0 * (xzf * yf - yzf * xf)
    )


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


def _shaped(v, shape):
    """``v`` as a read-only view of ``shape``, no copy; None is the empty sum."""
    return np.broadcast_to(0.0 if v is None else v, shape)


def poly_field(coeffs: dict, name: str = "poly") -> ScalarField:
    """Polynomial sum c * x^i y^j z^k from ``{(i, j, k): c}`` with exact frame gradient.

    Terms are summed in the order of ``coeffs``, with no zero accumulator.
    The rotation order is 0 when every term has i = j = 0, 1 when every
    term has i + j = 1, and undeclared otherwise.  The mirror parity is
    -1 when every term has j + k odd, +1 when every term has it even,
    and undeclared otherwise.  The value and gradient are read-only
    arrays of the inputs' broadcast shape, and may share memory with the
    inputs.  An exponent that is not a non-negative integer raises ValueError.
    """
    for key in coeffs:
        if not all(float(e).is_integer() and e >= 0 for e in key):
            raise ValueError(f"exponents must be non-negative integers, got {key}")
    items = [((int(i), int(j), int(k)), float(c)) for (i, j, k), c in coeffs.items()]

    def ev(x, y, z):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        z = np.asarray(z, float)
        total = None
        for (i, j, k), c in items:
            total = _add(total, _monomial(c, x, i, y, j, z, k))
        return _shaped(total, np.broadcast(x, y, z).shape)

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
        return tuple(_shaped(g, shape) for g in (px, py, pz))

    planar = {i + j for (i, j, _), _ in items}
    if planar <= {0}:
        ev.rotation_order = 0
    elif planar == {1}:
        ev.rotation_order = 1
    odd = {(j + k) % 2 for (_, j, k), _ in items}
    if len(odd) == 1:
        ev.mirror_parity = 1 - 2 * odd.pop()
    return ScalarField(eval=ev, analytic_gradient=grad, name=name)
