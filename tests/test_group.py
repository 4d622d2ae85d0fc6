"""Group law, frame fields, carre du champ, and Gamma_2 tests.

The group law on GroupElement, multiply and inverse, is the oracles':
the library multiplies coordinate arrays (group._mul_arrays).

The library's Gamma_2 is exact on polynomial coefficients; the
centred-difference calculus it is checked against, and which checks the
frame fields, Gamma and L, is the oracles' one copy."""

import dataclasses
import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenkern import family, geometry
from heisenkern.group import (
    GroupElement,
    ScalarField,
    _frame,
    gamma2,
    poly_field,
)

from oracles import (
    FD_STEP_SECOND,
    CylPoint,
    ExactPoly,
    apply_L,
    apply_op,
    derived_op,
    dilate,
    gamma2_fd,
    gamma_fd,
    homogeneous_norm,
    inverse,
    left_translate,
    multiply,
    validate_gradient,
)

FRAME = ("X", "Y", "Z")

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def elements(draw_x, draw_y, draw_z):
    return GroupElement(draw_x, draw_y, draw_z)


MONOMIALS = [
    (i, j, k)
    for i in range(4)
    for j in range(4)
    for k in range(4)
    if i + j + k <= 3
]


def random_cubic(rng, name="cubic"):
    coeffs = {m: float(c) for m, c in zip(MONOMIALS, rng.uniform(-1.0, 1.0, len(MONOMIALS)))}
    return poly_field(coeffs, name=name)


def random_points(rng, n, scale=1.5):
    return [GroupElement(*rng.uniform(-scale, scale, 3)) for _ in range(n)]


class TestGroupLaw:
    @given(coord, coord, coord, coord, coord, coord, coord, coord, coord)
    @settings(max_examples=50, deadline=None)
    def test_associativity(self, ax, ay, az, bx, by, bz, cx, cy, cz):
        a = GroupElement(ax, ay, az)
        b = GroupElement(bx, by, bz)
        c = GroupElement(cx, cy, cz)
        lhs = multiply(multiply(a, b), c)
        rhs = multiply(a, multiply(b, c))
        np.testing.assert_allclose(astuple(lhs), astuple(rhs), atol=1e-12)

    @given(coord, coord, coord)
    @settings(max_examples=50, deadline=None)
    def test_inverse_is_negation(self, x, y, z):
        a = GroupElement(x, y, z)
        e = multiply(a, inverse(a))
        np.testing.assert_allclose(astuple(e), (0.0, 0.0, 0.0), atol=1e-12)
        assert astuple(inverse(a)) == (-x, -y, -z)

    def test_noncommutative(self):
        a = GroupElement(1.0, 0.0, 0.0)
        b = GroupElement(0.0, 1.0, 0.0)
        assert multiply(a, b).z == pytest.approx(0.5)
        assert multiply(b, a).z == pytest.approx(-0.5)

    @given(coord, coord, coord, st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=50, deadline=None)
    def test_dilation_automorphism_and_norm(self, x, y, z, lam):
        a = GroupElement(x, y, z)
        b = GroupElement(y, z, x)
        lhs = dilate(multiply(a, b), lam)
        rhs = multiply(dilate(a, lam), dilate(b, lam))
        np.testing.assert_allclose(astuple(lhs), astuple(rhs), rtol=1e-12, atol=1e-12)
        assert homogeneous_norm(dilate(a, lam)) == pytest.approx(
            lam * homogeneous_norm(a), rel=1e-12
        )
        assert homogeneous_norm(inverse(a)) == pytest.approx(homogeneous_norm(a), rel=1e-12)


class TestCylPoint:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = GroupElement(*rng.uniform(-5, 5, 3))
            q = CylPoint.from_group(p).to_group()
            np.testing.assert_allclose(astuple(q), astuple(p), atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            CylPoint(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CylPoint(1.0, 7.0, 0.0)


class TestApplyField:
    def test_analytic_matches_fd(self):
        rng = np.random.default_rng(3)
        f = random_cubic(rng)
        f_fd = ScalarField(eval=f.eval, name="fd-view")
        for p in random_points(rng, 20):
            for op in ("X", "Y", "Z", "Xhat", "Yhat", "Theta", "D"):
                exact = apply_op(op, f, p)
                approx = apply_op(op, f_fd, p)
                if op in FRAME:
                    # a field with a gradient reads its frame component
                    frame = f.analytic_gradient(p.x, p.y, p.z)
                    assert exact == float(frame[FRAME.index(op)])
                assert approx == pytest.approx(exact, rel=1e-7, abs=1e-7)

    def test_gradient_validation_helper(self):
        rng = np.random.default_rng(11)
        f = random_cubic(rng)
        worst = validate_gradient(f, random_points(rng, 10))
        assert worst < 1e-7

    def test_unknown_op(self):
        f = poly_field({(1, 0, 0): 1.0})
        with pytest.raises(ValueError):
            apply_op("W", f, GroupElement(0, 0, 0))

    @pytest.mark.parametrize("step", [math.nan, math.inf, -1e-5, 0.0])
    def test_bad_step_raises(self, step):
        """A step that is not finite and positive raises when the field is
        built or given that step, where it used to give NaN, a sign-flipped
        difference or ZeroDivisionError on a gradient-free field."""
        f = ScalarField(eval=poly_field({(1, 1, 0): 1.0}).eval, name="fd-only")
        with pytest.raises(ValueError, match="fd_step"):
            ScalarField(eval=f.eval, fd_step=step)
        with pytest.raises(ValueError, match="fd_step"):
            dataclasses.replace(f, fd_step=step)

    def test_apply_field_takes_the_fields_own_step(self):
        """Without a ``step`` a gradient-free field's fd_step sets the
        difference, a given ``step`` replaces it, and gamma2_fd's second
        derivatives use the derived fields' max(fd_step, FD_STEP_SECOND)."""
        f = ScalarField(eval=poly_field({(3, 0, 0): 1.0}).eval, name="fd-only")
        p = GroupElement(0.5, 0.0, 0.0)
        coarse = dataclasses.replace(f, fd_step=1e-2)
        # X x^3 = 3 x^2; the centred difference adds h^2 exactly, h = 1e-2 * 1.5
        assert apply_op("X", coarse, p) == pytest.approx(0.75 + 1.5e-2 ** 2, rel=1e-9)
        assert apply_op("X", f, p, step=1e-2) == apply_op("X", coarse, p)
        assert derived_op("X", f).fd_step == FD_STEP_SECOND

    def test_value_and_gradient_reads_joint_or_both(self):
        """value_and_gradient is (eval, *analytic_gradient) without a joint
        evaluation and the joint's own result with one; a joint evaluation
        needs the analytic gradient beside it."""
        f = poly_field({(1, 0, 1): 2.0, (0, 2, 0): -1.0})
        x, y, z = np.array([0.3, -1.2]), np.array([0.5, 0.1]), np.array([-0.7, 2.0])
        want = (f.eval(x, y, z), *f.analytic_gradient(x, y, z))
        for got, ref in zip(f.value_and_gradient(x, y, z), want, strict=True):
            assert np.array_equal(got, ref)
        calls = []

        def joint(*q):
            calls.append(q)
            return want

        g = ScalarField(eval=f.eval, analytic_gradient=f.analytic_gradient, joint=joint)
        assert g.value_and_gradient(x, y, z) is want and len(calls) == 1
        with pytest.raises(ValueError, match="joint"):
            ScalarField(eval=f.eval, joint=joint)


def commutator(op1, op2, f, p, step=None):
    a = apply_op(op1, derived_op(op2, f), p, step=step)
    b = apply_op(op2, derived_op(op1, f), p, step=step)
    return a - b


class TestCommutators:
    def test_structure_relations_analytic(self):
        # [X, Y] = Z, [X, Z] = [Y, Z] = 0 on cubics, 50 random points
        rng = np.random.default_rng(5)
        f = random_cubic(rng)
        for p in random_points(rng, 50):
            zf = apply_op("Z", f, p)
            assert commutator("X", "Y", f, p) == pytest.approx(zf, abs=1e-4)
            assert commutator("X", "Z", f, p) == pytest.approx(0.0, abs=1e-4)
            assert commutator("Y", "Z", f, p) == pytest.approx(0.0, abs=1e-4)

    def test_structure_relations_pure_fd(self):
        rng = np.random.default_rng(6)
        f_exact = random_cubic(rng)
        f = ScalarField(eval=f_exact.eval, name="fd-only")
        for p in random_points(rng, 10):
            zf = apply_op("Z", f, p)
            assert commutator("X", "Y", f, p) == pytest.approx(zf, abs=1e-2)

    def test_right_invariant_fields_commute_with_left(self):
        rng = np.random.default_rng(8)
        f = random_cubic(rng)
        for p in random_points(rng, 25):
            assert commutator("Xhat", "X", f, p) == pytest.approx(0.0, abs=1e-4)
            assert commutator("Xhat", "Y", f, p) == pytest.approx(0.0, abs=1e-4)
            assert commutator("Yhat", "X", f, p) == pytest.approx(0.0, abs=1e-4)
            assert commutator("Yhat", "Y", f, p) == pytest.approx(0.0, abs=1e-4)

    def test_L_D_commutator_is_L(self):
        # [L, D] = L on cubics
        rng = np.random.default_rng(9)
        f = random_cubic(rng)
        for p in random_points(rng, 10, scale=1.0):
            df = derived_op("D", f)
            lf = ScalarField(eval=lambda x, y, z: _apply_L_vec(f, x, y, z), name="Lf")
            ldf = apply_L(df, p)
            dlf = apply_op("D", lf, p, step=1e-3)
            lf_val = apply_L(f, p)
            assert ldf - dlf == pytest.approx(lf_val, abs=2e-2)


def _apply_L_vec(f, x, y, z):
    """Vectorized L via the analytic frame of a polynomial field."""
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    z = np.atleast_1d(np.asarray(z, float))
    shape = np.broadcast(x, y, z).shape
    out = np.zeros(shape)
    it = np.nditer(np.zeros(shape), flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        p = GroupElement(float(np.broadcast_to(x, shape)[idx]),
                         float(np.broadcast_to(y, shape)[idx]),
                         float(np.broadcast_to(z, shape)[idx]))
        out[idx] = apply_L(f, p)
    return out if shape else float(out)


class TestSubLaplacian:
    def test_worked_examples(self):
        rng = np.random.default_rng(10)
        f_r2 = poly_field({(2, 0, 0): 1.0, (0, 2, 0): 1.0}, name="x2+y2")
        f_z = poly_field({(0, 0, 1): 1.0}, name="z")
        f_z2 = poly_field({(0, 0, 2): 1.0}, name="z2")
        for p in random_points(rng, 10):
            assert apply_L(f_r2, p) == pytest.approx(4.0, abs=1e-6)
            assert apply_L(f_z, p) == pytest.approx(0.0, abs=1e-8)
            r2 = p.x * p.x + p.y * p.y
            assert apply_L(f_z2, p) == pytest.approx(r2 / 2.0, rel=1e-5, abs=1e-6)

    def test_pure_fd_stencil_agrees(self):
        rng = np.random.default_rng(12)
        f = random_cubic(rng)
        f_fd = ScalarField(eval=f.eval, name="fd-only")
        for p in random_points(rng, 10):
            assert apply_L(f_fd, p) == pytest.approx(apply_L(f, p), rel=1e-5, abs=1e-5)

    def test_dilation_covariance(self):
        # L(f o dil_lam)(p) = lam^2 (Lf)(dil_lam p)
        rng = np.random.default_rng(13)
        f = random_cubic(rng)
        for lam in (0.5, 2.0):
            scaled = ScalarField(
                eval=lambda x, y, z, lam=lam: f.eval(lam * x, lam * y, lam * lam * z),
                analytic_gradient=lambda x, y, z, lam=lam: tuple(
                    lam * g for g in f.analytic_gradient(lam * x, lam * y, lam * lam * z)
                ),
                name="dilated",
            )
            for p in random_points(rng, 5):
                lhs = apply_L(scaled, p)
                rhs = lam * lam * apply_L(f, dilate(p, lam))
                assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-5)


class TestGamma:
    def test_gamma_of_coordinates(self):
        fx = poly_field({(1, 0, 0): 1.0}, name="x")
        fz = poly_field({(0, 0, 1): 1.0}, name="z")
        rng = np.random.default_rng(14)
        for p in random_points(rng, 10):
            assert gamma_fd(fx, fx, p) == pytest.approx(1.0, abs=1e-10)
            # Gamma(z, z) = (y^2 + x^2)/4
            assert gamma_fd(fz, fz, p) == pytest.approx(
                (p.x * p.x + p.y * p.y) / 4.0, rel=1e-9, abs=1e-10
            )

    def test_gamma2_examples(self):
        fx = poly_field({(1, 0, 0): 1.0}, name="x")
        fz = poly_field({(0, 0, 1): 1.0}, name="z")
        rng = np.random.default_rng(15)
        for p in random_points(rng, 10):
            assert gamma2_fd(fx, p) == pytest.approx(0.0, abs=1e-6)
            assert gamma2({(1, 0, 0): 1.0}, p) == 0.0
        assert gamma2_fd(fz, GroupElement(0, 0, 0)) == pytest.approx(0.5, abs=1e-6)
        assert gamma2({(0, 0, 1): 1.0}, GroupElement(0, 0, 0)) == 0.5

    def test_gamma2_defining_identity(self):
        # Gamma_2(f) = (L Gamma(f,f) - 2 Gamma(f, Lf)) / 2 for a random cubic
        rng = np.random.default_rng(16)
        f = random_cubic(rng)
        p = GroupElement(0.3, -0.7, 0.4)

        gamma_f = ScalarField(
            eval=lambda x, y, z: _gamma_vec(f, x, y, z), name="Gamma(f,f)"
        )
        lf = ScalarField(eval=lambda x, y, z: _apply_L_vec(f, x, y, z), name="Lf")
        lhs = gamma2_fd(f, p)
        rhs = 0.5 * (apply_L(gamma_f, p) - 2.0 * _gamma_pair(f, lf, p))
        assert lhs == pytest.approx(rhs, abs=1e-4)

    def test_gamma2_matches_taylor_form(self):
        """Gamma and Gamma_2 of random cubics g against the exact Taylor
        forms of g at 0, evaluated at the origin and at generic points a.
        X, Y and Z are left-invariant, so g o tau_{a^-1} takes at a the
        values g takes at 0.  At 0 the frame's words reduce to partials
        (XY + YX = 2 d_xy there), so Gamma_2 = f_xx^2 + f_yy^2 + 2 f_xy^2
        + f_z^2/2 + 2 (f_xz f_y - f_yz f_x).  The library's exact gamma2
        meets it at 0 to rounding, and g's centred differences at a."""
        rng = np.random.default_rng(19)
        origin = GroupElement(0.0, 0.0, 0.0)
        for _ in range(20):
            c = dict(zip(MONOMIALS, rng.uniform(-1.0, 1.0, len(MONOMIALS))))
            g = poly_field(c)
            a = GroupElement(*rng.uniform(-1.3, 1.3, 3))
            exact = ((2.0 * c[2, 0, 0]) ** 2 + (2.0 * c[0, 2, 0]) ** 2 + 2.0 * c[1, 1, 0] ** 2
                     + 0.5 * c[0, 0, 1] ** 2
                     + 2.0 * (c[1, 0, 1] * c[0, 1, 0] - c[0, 1, 1] * c[1, 0, 0]))
            assert gamma2(c, origin) == pytest.approx(exact, rel=1e-12, abs=1e-12)
            assert gamma2(c, a) == pytest.approx(gamma2_fd(g, a), rel=1e-6)
            for f, p in ((g, origin), (left_translate(g, inverse(a)), a)):
                assert gamma_fd(f, f, p) == pytest.approx(c[1, 0, 0] ** 2 + c[0, 1, 0] ** 2,
                                                           rel=1e-9)
                assert gamma2_fd(f, p) == pytest.approx(exact, rel=1e-6)


def _gamma_vec(f, x, y, z):
    gx, gy, _ = f.analytic_gradient(x, y, z)
    return gx * gx + gy * gy


def _gamma_pair(f, g, p):
    return gamma_fd(f, dataclasses.replace(g, fd_step=1e-3), p)


class TestLeftTranslate:
    def test_left_invariance_of_frame(self):
        rng = np.random.default_rng(17)
        f = random_cubic(rng)
        a = GroupElement(0.8, -0.4, 0.2)
        shifted = left_translate(f, a)
        for p in random_points(rng, 10):
            for op in ("X", "Y", "Z"):
                lhs = apply_op(op, shifted, p)
                rhs = apply_op(op, f, multiply(a, p))
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)

    def test_translate_evaluates_shifted(self):
        f = poly_field({(0, 0, 1): 1.0}, name="z")
        a = GroupElement(1.0, 2.0, 3.0)
        shifted = left_translate(f, a)
        # z-coordinate of a * (1, 1, 0) picks up the area term
        assert float(shifted.eval(1.0, 1.0, 0.0)) == pytest.approx(
            3.0 + 0.5 * (1.0 * 1.0 - 2.0 * 1.0)
        )


def _naive_poly(coeffs, x, y, z):
    """Value of sum c x^i y^j z^k and its frame gradient, the naive
    evaluation of ``coeffs`` and of group._frame's X, Y and Z dicts of
    them, each term by term into a zero accumulator."""
    shape = np.broadcast(x, y, z).shape
    sums = []
    for terms in (coeffs, *(_frame(op, coeffs) for op in "XYZ")):
        total = np.zeros(shape)
        for (i, j, k), c in terms.items():
            total += c * x**i * y**j * z**k
        sums.append(total)
    return sums[0], sums[1:]


@pytest.mark.parametrize("exponents", [(1.5, 0, 0), (0, -1, 0), (0, 0, math.nan),
                                       (math.inf, 0, 0), (1, 0.999, 0)])
def test_poly_field_refuses_bad_exponents(exponents):
    """int() would truncate 1.5 to 1 and evaluate x; negative, non-finite
    and non-integral exponents raise instead."""
    with pytest.raises(ValueError, match="non-negative integers"):
        poly_field({(1, 0, 0): 1.0, exponents: 2.0})


def test_poly_field_accepts_integral_floats():
    f, g = poly_field({(2.0, 0, 1.0): 1.5}), poly_field({(2, 0, 1): 1.5})
    x, y, z = np.array([0.3, -1.2]), np.array([2.0, 0.5]), np.array([-0.7, 1.1])
    assert f.eval(x, y, z).tobytes() == g.eval(x, y, z).tobytes()


def _random_polys():
    """The test points and 300 random polynomials of degree <= 3 per
    variable, some with a constant term, some with unit coefficients."""
    rng = np.random.default_rng(20071017)
    # no coordinate is 0, so no term is +-0 and the sign of zero cannot differ
    points = [rng.normal(size=(3, 64)) * 2.0,
              (rng.normal(size=(4, 1)), rng.normal(size=(1, 5)), np.float64(0.7))]
    polys = []
    for _ in range(300):
        coeffs = {}
        for _ in range(rng.integers(1, 5)):
            c = 1.0 if rng.random() < 0.3 else float(rng.normal())
            coeffs[tuple(int(e) for e in rng.integers(0, 4, 3))] = c
        if rng.random() < 0.3:
            coeffs[(0, 0, 0)] = float(rng.normal())
        polys.append(coeffs)
    return points, polys


def test_poly_field_matches_naive_formula_bitwise():
    """poly_field skips zero accumulators, x**0 and factors of 1.0 without
    changing a bit, on _random_polys: its value is the naive sum of the
    terms, and its gradient the naive sum of group._frame's X, Y and Z
    terms.  The value and gradient are read-only arrays of the inputs'
    broadcast shape."""
    points, polys = _random_polys()
    for coeffs in polys:
        f = poly_field(coeffs)
        for x, y, z in points:
            want_val, want_grad = _naive_poly(coeffs, x, y, z)
            got_val = f.eval(x, y, z)
            assert got_val.shape == want_val.shape and not got_val.flags.writeable
            assert got_val.tobytes() == want_val.tobytes(), coeffs
            for got, want in zip(f.analytic_gradient(x, y, z), want_grad):
                assert got.shape == want.shape and not got.flags.writeable
                assert got.tobytes() == want.tobytes(), coeffs


def _gradient_error_multiple(coeffs, points) -> float:
    """max |g - exact| / (eps * sum|terms|) over ``points`` and the three
    frame components g of poly_field(coeffs), where ExactPoly gives the
    exact X, Y and d_z polynomials and the sum runs over their terms."""
    exact = ExactPoly(coeffs)
    worst = 0.0
    for x, y, z in points:
        grads = poly_field(coeffs).analytic_gradient(x, y, z)
        x, y, z, *grads = (a.ravel() for a in np.broadcast_arrays(x, y, z, *grads))
        for got, want in zip(grads, (exact.X(), exact.Y(), exact._d(2))):
            size = sum(abs(float(c)) * np.abs(x)**i * np.abs(y)**j * np.abs(z)**k
                       for (i, j, k), c in want.terms.items()) * np.finfo(float).eps
            for g, s, p in zip(got, np.broadcast_to(size, got.shape), zip(x, y, z)):
                err = float(abs(Fraction(float(g)) - want(*p)))
                if err:
                    worst = max(worst, err / s)
    return worst


def _family_polys():
    """The coefficients of build_family(200)'s polynomial members."""
    drawn = []

    def record(coeffs, name="poly"):
        drawn.append(coeffs)
        return poly_field(coeffs, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(family, "poly_field", record)
        family.build_family(200)
    return drawn


def test_poly_field_gradient_within_measured_error():
    """poly_field's frame gradient against ExactPoly's exact X, Y and d_z,
    as multiples of eps * sum|terms| of the exact component, worst case:

    - _random_polys at its 84 points: 2.197 (the partial-derivative
      route, d_x f - (y/2) d_z f from separately summed partials: 19.16);
    - build_family(200)'s 30 polynomials on 400 chart nodes of d <= 10:
      1.292 (partials: 2.310).

    The partial-derivative route leaves the cancellation between d_x f and
    (y/2) d_z f to two evaluated sums; _frame cancels the coefficients,
    where a monomial's scaled coefficient is exact for exponents 1 and 2
    and the sum of two is rounded once."""
    points, polys = _random_polys()
    assert max(_gradient_error_multiple(c, points) for c in polys) <= 2.2
    nodes = [geometry.chart_ball_nodes(10.0, n_s=5, n_phi=5, n_alpha=8)[:3]]
    assert max(_gradient_error_multiple(c, nodes) for c in _family_polys()) <= 1.3


def test_poly_field_vanishing_component_is_exact_zero():
    """X(xy + 2z) = y - y vanishes identically: its coefficient cancels to
    0.0 in _frame and the term is dropped, so Xf is +0.0 at negative y and
    at infinite coordinates, where y - y would be nan."""
    f = poly_field({(1, 1, 0): 1.0, (0, 0, 1): 2.0})
    x = np.array([0.3, math.inf, -2.0, 0.5])
    y = np.array([-1.5, -0.7, math.inf, -math.inf])
    gx, gy, gz = f.analytic_gradient(x, y, 0.25)
    assert gx.tobytes() == np.zeros(4).tobytes()
    assert gy.tobytes() == (2.0 * x).tobytes() and gz.tobytes() == np.full(4, 2.0).tobytes()
