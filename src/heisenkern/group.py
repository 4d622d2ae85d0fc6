"""Heisenberg group calculus in exponential coordinates.

The group is R^3 with product

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + (x y' - y x')/2),

anisotropic dilations (x, y, z) -> (lx, ly, l^2 z), and homogeneous norm
((x^2 + y^2)^2 + z^2)^(1/4).  Left-invariant horizontal fields

    X = d/dx - (y/2) d/dz,      Y = d/dy + (x/2) d/dz,      Z = d/dz,

satisfy [X, Y] = Z, the only nonzero bracket.  They are the fields the
library differentiates along; the right-invariant partners, the rotation
and the dilation generator, which only checks of the calculus use, live
with the tests, and so does the group law on :class:`GroupElement`: the
library multiplies coordinate arrays.

The library differentiates exactly: a :class:`ScalarField` through its
analytic gradient, and a polynomial given by its coefficients through
the frame's action on them (``_frame``), which gives both
:func:`poly_field`'s gradient and :func:`gamma2`.  Nothing here takes a
difference; the one difference calculus is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "GroupElement",
    "ScalarField",
    "gamma2",
    "poly_field",
]

# the default ScalarField.fd_step
FD_STEP_FIRST = 1e-5


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


@dataclass
class ScalarField:
    """Smooth function on the group with vectorized evaluation.

    ``eval(x, y, z)`` must accept numpy arrays and broadcast.
    ``analytic_gradient`` returns the left-invariant frame components
    (Xf, Yf, Zf); every derivative the library takes reads it, and a
    field without one raises where a gradient is needed: there is no
    difference fallback.  ``fd_step`` is the base step of the tests'
    centred-difference oracle, and the benchmark tracer's field copies
    pass it on, so it stays although the library never reads it.  A
    field whose value and gradient share
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


def _evaluate(items, x, y, z):
    """sum c x^i y^j z^k over ``items``' ((i, j, k), c) in their order, with
    no zero accumulator; the empty sum is 0.0."""
    total = None
    for (i, j, k), c in items:
        term = _monomial(c, x, i, y, j, z, k)
        total = term if total is None else total + term
    return 0.0 if total is None else total


def poly_field(coeffs: dict, name: str = "poly") -> ScalarField:
    """Polynomial sum c * x^i y^j z^k from ``{(i, j, k): c}`` with exact frame gradient.

    Terms are summed in the order of ``coeffs``, with no zero accumulator.
    The gradient (Xf, Yf, Zf) is :func:`_frame` on the coefficients, taken
    once here, and evaluated the same way; a term whose coefficient
    cancels to 0.0 is dropped, so a component that vanishes identically
    is +0.0 everywhere.
    The rotation order is 0 when every term has i = j = 0, 1 when every
    term has i + j = 1, and undeclared otherwise.  The mirror parity is
    -1 when every term has j + k odd, +1 when every term has it even,
    and undeclared otherwise.  The value and gradient are read-only
    arrays of the inputs' broadcast shape, and may share memory with the
    inputs.  An exponent that is not a non-negative integer, or a
    coefficient that is not finite, raises ValueError.
    """
    for key in coeffs:
        if not all(float(e).is_integer() and e >= 0 for e in key):
            raise ValueError(f"exponents must be non-negative integers, got {key}")
    items = [((int(i), int(j), int(k)), float(c)) for (i, j, k), c in coeffs.items()]
    if not np.all(np.isfinite([c for _, c in items])):
        raise ValueError(f"coefficients must be finite, got {coeffs}")
    frame = [[(m, c) for m, c in _frame(op, dict(items)).items() if c != 0.0] for op in "XYZ"]

    def at(terms, x, y, z):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        z = np.asarray(z, float)
        # a read-only view of the broadcast shape, no copy
        return np.broadcast_to(_evaluate(terms, x, y, z), np.broadcast(x, y, z).shape)

    def ev(x, y, z):
        return at(items, x, y, z)

    def grad(x, y, z):
        return tuple(at(terms, x, y, z) for terms in frame)

    planar = {i + j for (i, j, _), _ in items}
    if planar <= {0}:
        ev.rotation_order = 0
    elif planar == {1}:
        ev.rotation_order = 1
    odd = {(j + k) % 2 for (_, j, k), _ in items}
    if len(odd) == 1:
        ev.mirror_parity = 1 - 2 * odd.pop()
    return ScalarField(eval=ev, analytic_gradient=grad, name=name)


# X = d_x - (y/2) d_z, Y = d_y + (x/2) d_z and Z = d_z on x^i y^j z^k: each
# term is (scale, the axis whose exponent multiplies it, the exponent shift)
_FRAME = {
    "X": ((1.0, 0, (-1, 0, 0)), (-0.5, 2, (0, 1, -1))),
    "Y": ((1.0, 1, (0, -1, 0)), (0.5, 2, (1, 0, -1))),
    "Z": ((1.0, 2, (0, 0, -1)),),
}


def _frame(op: str, coeffs: dict) -> dict:
    """op f, exactly, for f = sum c x^i y^j z^k given as ``{(i, j, k): c}``.

    X and Y lower the weighted degree i + j + 2k by one, Z by two.
    """
    out = {}
    for m, c in coeffs.items():
        for scale, axis, shift in _FRAME[op]:
            if m[axis]:
                key = tuple(e + s for e, s in zip(m, shift))
                out[key] = out.get(key, 0.0) + scale * m[axis] * c
    return out


def gamma2(coeffs: dict, p: GroupElement) -> float:
    """Iterated form Gamma_2(f) at ``p`` of the polynomial f = sum c x^i y^j z^k
    given as ``{(i, j, k): c}``, from its exact frame derivatives:

        (X^2 f)^2 + (Y^2 f)^2 + ((XY+YX)f)^2/2 + (Zf)^2/2
        + 2 (XZf * Yf - YZf * Xf).

    Unbounded below as a quadratic form in f: the mixed third-order term
    has no sign, which is the group's "Ricci = -infinity" phenomenon.
    """

    def at(word):
        g = coeffs
        for op in reversed(word):
            g = _frame(op, g)
        return _evaluate(g.items(), p.x, p.y, p.z)

    xf, yf, zf, xxf, yyf, xyf, yxf, xzf, yzf = map(at, ("X", "Y", "Z", "XX", "YY", "XY", "YX",
                                                       "XZ", "YZ"))
    return (
        xxf * xxf
        + yyf * yyf
        + 0.5 * (xyf + yxf) ** 2
        + 0.5 * zf * zf
        + 2.0 * (xzf * yf - yzf * xf)
    )
