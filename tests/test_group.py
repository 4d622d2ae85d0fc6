"""Group law, frame fields, carre du champ, and Gamma_2 tests."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenkern.group import (
    FIELD_NAMES,
    GroupElement,
    ScalarField,
    apply_field,
    gamma,
    gamma2,
    inverse,
    multiply,
    poly_field,
)

from oracles import (
    CylPoint,
    apply_L,
    apply_op,
    derived_op,
    dilate,
    homogeneous_norm,
    left_translate,
    validate_gradient,
)

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
                if op in FIELD_NAMES:
                    # a field with a gradient reads its frame component
                    frame = f.analytic_gradient(p.x, p.y, p.z)
                    assert exact == float(frame[FIELD_NAMES.index(op)])
                assert approx == pytest.approx(exact, rel=1e-7, abs=1e-7)

    def test_gradient_validation_helper(self):
        rng = np.random.default_rng(11)
        f = random_cubic(rng)
        worst = validate_gradient(f, random_points(rng, 10))
        assert worst < 1e-7

    def test_unknown_op(self):
        f = poly_field({(1, 0, 0): 1.0})
        with pytest.raises(ValueError):
            apply_field("W", f, GroupElement(0, 0, 0))


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
            zf = apply_field("Z", f, p)
            assert commutator("X", "Y", f, p) == pytest.approx(zf, abs=1e-4)
            assert commutator("X", "Z", f, p) == pytest.approx(0.0, abs=1e-4)
            assert commutator("Y", "Z", f, p) == pytest.approx(0.0, abs=1e-4)

    def test_structure_relations_pure_fd(self):
        rng = np.random.default_rng(6)
        f_exact = random_cubic(rng)
        f = ScalarField(eval=f_exact.eval, name="fd-only")
        for p in random_points(rng, 10):
            zf = apply_field("Z", f, p)
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
            assert gamma(fx, fx, p) == pytest.approx(1.0, abs=1e-10)
            # Gamma(z, z) = (y^2 + x^2)/4
            assert gamma(fz, fz, p) == pytest.approx(
                (p.x * p.x + p.y * p.y) / 4.0, rel=1e-9, abs=1e-10
            )

    def test_gamma2_examples(self):
        fx = poly_field({(1, 0, 0): 1.0}, name="x")
        fz = poly_field({(0, 0, 1): 1.0}, name="z")
        rng = np.random.default_rng(15)
        for p in random_points(rng, 10):
            assert gamma2(fx, p) == pytest.approx(0.0, abs=1e-6)
        assert gamma2(fz, GroupElement(0, 0, 0)) == pytest.approx(0.5, abs=1e-6)

    def test_gamma2_defining_identity(self):
        # Gamma_2(f) = (L Gamma(f,f) - 2 Gamma(f, Lf)) / 2 for a random cubic
        rng = np.random.default_rng(16)
        f = random_cubic(rng)
        p = GroupElement(0.3, -0.7, 0.4)

        gamma_f = ScalarField(
            eval=lambda x, y, z: _gamma_vec(f, x, y, z), name="Gamma(f,f)"
        )
        lf = ScalarField(eval=lambda x, y, z: _apply_L_vec(f, x, y, z), name="Lf")
        lhs = gamma2(f, p)
        rhs = 0.5 * (apply_L(gamma_f, p) - 2.0 * _gamma_pair(f, lf, p))
        assert lhs == pytest.approx(rhs, abs=1e-4)

    def test_gamma2_matches_taylor_form(self):
        """Gamma and Gamma_2 of random cubics g against the exact Taylor
        forms of g at 0, evaluated at the origin and at generic points a.
        X, Y and Z are left-invariant, so g o tau_{a^-1} takes at a the
        values g takes at 0.  At 0 the frame's words reduce to partials
        (XY + YX = 2 d_xy there), so Gamma_2 = f_xx^2 + f_yy^2 + 2 f_xy^2
        + f_z^2/2 + 2 (f_xz f_y - f_yz f_x)."""
        rng = np.random.default_rng(19)
        origin = GroupElement(0.0, 0.0, 0.0)
        for _ in range(20):
            c = dict(zip(MONOMIALS, rng.uniform(-1.0, 1.0, len(MONOMIALS))))
            g = poly_field(c)
            a = GroupElement(*rng.uniform(-1.3, 1.3, 3))
            exact = ((2.0 * c[2, 0, 0]) ** 2 + (2.0 * c[0, 2, 0]) ** 2 + 2.0 * c[1, 1, 0] ** 2
                     + 0.5 * c[0, 0, 1] ** 2
                     + 2.0 * (c[1, 0, 1] * c[0, 1, 0] - c[0, 1, 1] * c[1, 0, 0]))
            for f, p in ((g, origin), (left_translate(g, inverse(a)), a)):
                assert gamma(f, f, p) == pytest.approx(c[1, 0, 0] ** 2 + c[0, 1, 0] ** 2,
                                                        rel=1e-9)
                assert gamma2(f, p) == pytest.approx(exact, rel=1e-6)


def _gamma_vec(f, x, y, z):
    gx, gy, _ = f.analytic_gradient(x, y, z)
    return gx * gx + gy * gy


def _gamma_pair(f, g, p):
    xf = apply_field("X", f, p)
    yf = apply_field("Y", f, p)
    xg = apply_field("X", g, p, step=1e-3)
    yg = apply_field("Y", g, p, step=1e-3)
    return xf * xg + yf * yg


class TestLeftTranslate:
    def test_left_invariance_of_frame(self):
        rng = np.random.default_rng(17)
        f = random_cubic(rng)
        a = GroupElement(0.8, -0.4, 0.2)
        shifted = left_translate(f, a)
        for p in random_points(rng, 10):
            for op in ("X", "Y", "Z"):
                lhs = apply_field(op, shifted, p)
                rhs = apply_field(op, f, multiply(a, p))
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
    """Value and frame gradient of sum c x^i y^j z^k, term by term into zero accumulators."""
    shape = np.broadcast(x, y, z).shape
    val, px, py, pz = (np.zeros(shape) for _ in range(4))
    for (i, j, k), c in coeffs.items():
        val += c * x**i * y**j * z**k
        if i:
            px += c * i * x ** (i - 1) * y**j * z**k
        if j:
            py += c * j * x**i * y ** (j - 1) * z**k
        if k:
            pz += c * k * x**i * y**j * z ** (k - 1)
    return val, (px - 0.5 * y * pz, py + 0.5 * x * pz, pz)


def test_poly_field_matches_naive_formula_bitwise():
    """poly_field skips zero accumulators, x**0 and factors of 1.0 without
    changing a bit: 300 random polynomials of degree <= 3 per variable,
    some with a constant term, some with unit coefficients."""
    rng = np.random.default_rng(20071017)
    # no coordinate is 0, so no term is +-0 and the sign of zero cannot differ
    points = [rng.normal(size=(3, 64)) * 2.0,
              (rng.normal(size=(4, 1)), rng.normal(size=(1, 5)), np.float64(0.7))]
    for _ in range(300):
        coeffs = {}
        for _ in range(rng.integers(1, 5)):
            c = 1.0 if rng.random() < 0.3 else float(rng.normal())
            coeffs[tuple(int(e) for e in rng.integers(0, 4, 3))] = c
        if rng.random() < 0.3:
            coeffs[(0, 0, 0)] = float(rng.normal())
        f = poly_field(coeffs)
        for x, y, z in points:
            want_val, want_grad = _naive_poly(coeffs, x, y, z)
            got_val = f.eval(x, y, z)
            assert got_val.shape == want_val.shape
            assert got_val.tobytes() == want_val.tobytes(), coeffs
            for got, want in zip(f.analytic_gradient(x, y, z), want_grad):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), coeffs
