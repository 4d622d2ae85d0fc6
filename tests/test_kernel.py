"""Heat-kernel quadrature, derivative, and complex-route tests.

Oracles, in dependency order: the 41-point, 40-digit mpmath grid in
perfbench/p1_reference.json (read from the JSON, so no test needs
mpmath); the origin value from the series sum of int_0^inf
lam/sinh(lam); the whole z-axis closed form p1(0,z) = 1/(16 cosh^2(pi
z/2)), derived termwise below and verified against its own partial sums
before it judges the quadrature; time scaling, pinned by an independent
quadrature of the t=2 integrand; everything differential is
cross-checked by centered differences.

Accuracy model: every real-kernel value at scattered points comes from
one engine on the saddle-point contour, with a rule set by its point
alone, so a value has the same bits alone and in any batch
(TestPointEngine).  Its bounds are measured: within 1e-13 relative of
the 40-digit grid (test_reference_grid); at 16 stored 30-digit values of
oracles.kernel_six_mp, of the kernel and its five derivatives, within
the bounds of TestPointEngine.test_six_match_mpmath; against the axis
closed form out to |z| = 50 within a floor that grows like e^{0.3|z|},
from the top band's distance 0.3 to the pole of lam/sinh lam.  The
contour rows that fill both kernel tables are judged against the same
16 values, the 40-digit grid on each table's z-grid and the axis closed
form.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heisenkern import kernel as K
from heisenkern.geometry import cc_distance_many
from heisenkern.group import GroupElement, ScalarField

import oracles as O
from oracles import apply_L, apply_op, gamma_fd, validate_gradient

# p1(0,0) = (1/4pi^2) int_0^inf lam/sinh(lam) dlam = (1/4pi^2)(pi^2/4)
P1_ORIGIN = 0.0625

# p1_star_shifted(1, 0): finiteness example on the fixed rule, 4e-15
# relative from the converged adaptive route (oracles.p1_star_adaptive)
STAR_AT_1_0_RE = 0.01039849625698081

# the literal p1(r, z + 2i) at r > 2, where its shifted lambda-integral
# converges, to 22 digits of oracles.p1_shift_mp (mpmath at 30 digits,
# equal to 40 digits within 1.2e-31); the tests do not import mpmath
P1_SHIFT_MP = {
    (3.0, 0.2): complex(0.01084563831230726126739, -0.003993054668142793296955),
    (3.3, -0.4): complex(0.003997426592931836310712, 0.002331352437025999733665),
    (2.6, 0.0): complex(0.04804788751794409338705, 0.0),
    (3.8, 1.0): complex(0.0006128459724285639786255, -0.0007703844727593446916139),
}

# (p, p_r, p_z, p_rr, p_rz/r, p_zz) of p1 at 16 spline-table nodes, to 30
# digits of oracles.kernel_six_mp (real-line mpmath quadrature; the same to
# 36 digits at 36), cancellation exponent (d^2 - r^2)/4 from 0.001 to 85
KERNEL_SIX_MP = {
    (1.0, 1.0): (1.06967252379466831339017977001e-2, -6.73309259537474080933327386062e-4,
                 -2.33466072503511864537782117266e-2, -7.26634406626057623862021586477e-3,
                 1.30587230464019637937286516079e-2, 4.09178589200984301839792930809e-2),
    (4.0, 3.0): (7.06924297240103951136826829349e-5, -1.08732132586327774343023623243e-4,
                 -7.01872171299729138674576885041e-5, 1.07108862362225001749339234766e-4,
                 3.38016297402617594852823099572e-5, 5.16788069747276104743679042933e-5),
    (2.0, 6.0): (2.22052433604827466726107562306e-7, 4.76263245959489004413158077855e-7,
                 -5.34729101174966096044985837001e-7, 7.76543787608825500596375824174e-7,
                 -5.26728226489837011831533277097e-7, 1.27333108329208263560158695644e-6),
    (0.5, 10.0): (2.13080189323440032948772569434e-14, 8.66699138091231228743096078929e-14,
                  -6.45386677646456705526079921211e-14, 3.95551356271908243324436488626e-13,
                  -5.12388887265607645614930592003e-13, 1.95391639029334866315076815017e-13),
    (8.0, 12.0): (1.98072531478473365332137146887e-12, -5.42877847552673896627553712706e-12,
                  -1.94940052234089567785662854978e-12, 1.31259360426137265405210356731e-11,
                  7.14941097532928923189118587083e-13, 1.79369567546595953268764716473e-12),
    (3.0, 20.0): (6.31497069487307321641417288526e-21, 3.22039187973739690167621447219e-20,
                  -1.59897358266562335844187010702e-20, 1.57257716524883361710525894054e-19,
                  -2.67156906444981699828583389856e-20, 4.03851292548042460804248220399e-20),
    (6.6, 23.0): (1.04374881653963869641620828987e-18, 1.28366052076287099008624797917e-18,
                  -1.87813510185278787427439674817e-18, 2.27447420895472784570672549077e-19,
                  -3.15603318758560080799554846628e-19, 3.34725331054403086409688401498e-18),
    (0.0, 26.0): (8.3975927409978181222546347409e-37, 0.0,
                  -2.63818156629577207199089055156e-36, 3.34566010877452551236561136962e-35,
                  -1.03787921408196892899587279269e-34, 8.28809182751081161596720116129e-36),
    (12.0, 26.0): (2.80859638014441661868996864355e-24, -1.16384642790860126022939563903e-23,
                   -2.6781185191830244508206545868e-24, 4.57783274050337319151259467592e-23,
                   9.53949686838019740451038779414e-25, 2.47322830642248094165146397921e-24),
    (16.0, 8.0): (3.67852427680236467696345477884e-31, -2.93138975028904133123950860038e-30,
                  -6.87551401876554982249643208325e-32, 2.317114017826852502471280303e-29,
                  3.47769987570379183062049035658e-32, 4.33634296215065248144935424124e-33),
    (0.1, 27.2): (2.36087354051893514577543043656e-38, 8.92649466918882233612848759403e-38,
                  -7.40007739033368679016331784313e-38, 1.06791098426915104482949971856e-36,
                  -2.7673409546753725128020255504e-36, 2.31952335102564423059454520802e-37),
    (16.6, 27.2): (2.11858734170287411744486970485e-36, -1.57817974342960787096677480079e-35,
                   -1.20238329284083953386554068992e-36, 1.16189847956528839976562523793e-34,
                   5.47581756173116461776673485086e-37, 6.41855600505250688008240844331e-37),
    (0.3, 5.0): (5.00146807033367452202081178385e-8, 8.7124190206031884184209896771e-8,
                 -1.54068673774157455165287794624e-7, 3.56154727571786086408117858709e-7,
                 -8.35380668746979889128917343477e-7, 4.74519289243701907968936356709e-7),
    (10.0, 0.2): (1.07430576534151981866149114983e-13, -5.477815060438548326425201482e-13,
                  -1.29391110351801126276915858576e-15, 2.74042634552202964773486288568e-12,
                  6.85721490998193174934244807127e-16, -6.45372142183881450893556916473e-15),
    (0.0, 0.2): (5.6715781749093439426196861797e-2, 0.0,
                 -5.42045973097499616373360926518e-2, -5.12953220181184429615672926627e-2,
                 1.01524322469506558728810107309e-1, -2.02174265048816151505133481117e-1),
    (5.0, 18.0): (9.20062520560385617199087717409e-16, 1.98195669213867573531051850542e-15,
                  -1.84865018680090375318721386485e-15, 3.06562649725574845046977641203e-15,
                  -7.50560425756291299312473889531e-16, 3.68298700084245174194615964093e-15),
}


# regression pin: the mpmath value at (1, 1); K.p1 meets it within 3.2e-16
# relative (2.3e-16 from its 30 digits)
P1_AT_1_1 = KERNEL_SIX_MP[(1.0, 1.0)][0]


def p1_axis_closed_form(z: float) -> float:
    """1/(16 cosh^2(pi z/2)).

    Derivation: expand 1/sinh(lam) = 2 sum_k exp(-(2k+1) lam); termwise
    int_0^inf lam e^{-(2k+1)lam} cos(lam z) dlam
        = ((2k+1)^2 - z^2)/((2k+1)^2 + z^2)^2,
    and the resulting even lattice sum is (pi^2/4) sech^2(pi z/2).
    test_axis_series_matches_closed_form re-derives this numerically.
    """
    return 1.0 / (16.0 * math.cosh(0.5 * math.pi * z) ** 2)


def axis_series(z: float, terms: int = 200_000) -> float:
    """Partial series for (1/4pi^2) int lam cos(lam z)/sinh(lam) dlam."""
    k = np.arange(terms, dtype=float)
    m = 2.0 * k + 1.0
    s = 2.0 * np.sum((m * m - z * z) / (m * m + z * z) ** 2)
    # tail: 2 sum_{k>=K} ~ 2 int_{K-1/2}^inf dk/(2k+1)^2 = 1/(2K)
    tail = 1.0 / (2.0 * terms)
    return (s + tail) / (4.0 * math.pi**2)


REFERENCE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "p1_reference.json"
)


def load_reference():
    """(r, z, p1) arrays of the stored 40-digit mpmath grid."""
    with open(REFERENCE_PATH) as fh:
        pts = json.load(fh)["points"]
    return tuple(np.array([float(q[key]) for q in pts]) for key in ("r", "z", "p1"))


def sample_ball(n: int, radius: float, seed: int) -> np.ndarray:
    """Rejection-sample n points of the cc ball, columns (x, y, z, d)."""
    rng = np.random.default_rng(seed)
    zmax = radius * radius / (4.0 * math.pi) + 0.1
    out = []
    while sum(len(o) for o in out) < n:
        x = rng.uniform(-radius, radius, 4 * n)
        y = rng.uniform(-radius, radius, 4 * n)
        z = rng.uniform(-zmax, zmax, 4 * n)
        d = cc_distance_many(x, y, z)
        m = d <= radius
        out.append(np.column_stack([x[m], y[m], z[m], d[m]]))
    return np.concatenate(out)[:n]


@pytest.fixture(scope="module")
def ball8():
    return sample_ball(3000, 8.0, seed=42)


@pytest.fixture(scope="module")
def tables():
    return K.get_spline_tables()


class TestP1Values:
    def test_origin(self):
        assert abs(K.p1(0.0, 0.0) - P1_ORIGIN) <= 1e-9

    def test_axis_series_matches_closed_form(self):
        for z in (0.8, 2.0, 4.0):
            assert math.isclose(axis_series(z), p1_axis_closed_form(z), rel_tol=1e-7)

    def test_axis_closed_form(self):
        for z in (0.8, 2.0, 4.0):
            assert math.isclose(K.p1(0.0, z), p1_axis_closed_form(z), rel_tol=1e-6)

    def test_regression_pin(self):
        assert math.isclose(K.p1(1.0, 1.0), P1_AT_1_1, rel_tol=4e-16)

    def test_even_in_z(self):
        for r, z in ((0.5, 1.3), (2.0, 0.2), (0.0, 3.7)):
            assert K.p1(r, -z) == K.p1(r, z)

    def test_positivity_sample(self, ball8):
        x, y, z, d = ball8.T
        vals = K.p1_many(np.hypot(x, y), z)
        assert np.all(vals > 0.0)

    def test_time_scaling(self):
        assert O.p(4.0, 2.0, 4.0) == K.p1(1.0, 1.0) / 16.0
        assert O.p(1.0, 0.7, -0.3) == K.p1(0.7, -0.3)

    def test_t2_direct_quadrature_oracle(self):
        # independent route: p(t,r,z) = (1/4pi^2) int cos(lam z)
        #   (lam/sinh(t lam)) exp(-(r^2/4) lam coth(t lam)) dlam at t=2,
        # on the adaptive integrator
        r, z, t = 1.0, 1.0, 2.0

        def f(lam):
            lam = np.asarray(lam, dtype=float)
            tl = t * lam
            small = np.abs(tl) < 1e-6
            safe = np.where(small, 1.0, tl)
            ratio = np.where(small, 1.0 / t - tl * tl / (6.0 * t), lam / np.sinh(safe))
            coth = np.where(small, 1.0 / safe + safe / 3.0, 1.0 / np.tanh(safe))
            return np.cos(lam * z) * ratio * np.exp(-0.25 * r * r * lam * coth)

        spec = O.AdaptiveSpec(oscillation_wavenumber=abs(z))
        direct = O.adaptive_decaying(f, 1.0 + 0.25 * r * r * 2.0, spec) / (4 * math.pi**2)
        assert math.isclose(direct, O.p(t, r, z), rel_tol=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            O.p(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            O.p(-2.0, 1.0, 1.0)
        with pytest.raises(K.KernelRangeError):
            K.p1(1.0, 51.0)
        with pytest.raises(ValueError):
            K.p1(-0.5, 0.0)

    def test_reference_grid(self):
        """p1 and one mixed p1_many batch against the 40-digit grid, within
        1e-13 relative (measured 3.96e-14 for both)."""
        r, z, ref = load_reference()
        assert r.size == 41
        point = np.array([K.p1(ri, zi) for ri, zi in zip(r, z)])
        for name, got in (("p1", point), ("p1_many", K.p1_many(r, z))):
            err = np.abs(got - ref) / ref
            worst = int(np.argmax(err))
            print(f"\n{name} on the reference grid: max rel err {err[worst]:.3g} at "
                  f"({r[worst]:g}, {z[worst]:g})")
            assert np.all(err <= 1e-13), name

    def test_point_views_never_integrate_adaptively(self, monkeypatch):
        # p1 and its point views never go through the complex-shift integrator
        def refuse(*args, **kwargs):
            raise AssertionError("complex-shift integrator called by a real-kernel view")

        monkeypatch.setattr(K, "integrate_decaying", refuse)
        assert math.isclose(K.p1(1.0, 1.0), P1_AT_1_1, rel_tol=4e-16)
        assert O.p(2.0, 1.0, 0.5) > 0.0
        assert len(O.p1_partials(0.7, 0.4)) == 2
        assert len(O.p1_second_partials(0.7, 0.4)) == 3
        assert O.log_derivatives(0.7, 0.4).b < 0.0
        lh = O.log_h_field()
        assert math.isfinite(lh.eval(0.5, 0.2, 0.4))
        assert all(math.isfinite(g) for g in lh.analytic_gradient(0.5, 0.2, 0.4))


def _bits_equal(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# batch-mates on other bands, levels and node counts than most points of
# the hypothesis range: the axis, a wide radius, and |z| near the top
_MATES_R = np.array([0.0, 16.0, 1.0, 0.3])
_MATES_Z = np.array([5.0, 0.0, -2.0, 49.0])


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(min_value=0.0, max_value=16.0),
    z=st.floats(min_value=-50.0, max_value=50.0),
)
def test_many_matches_scalar(r, z):
    """A point in a mixed p1_many batch has the bits of the per-point view."""
    batch = K.p1_many(np.append(_MATES_R, r), np.append(_MATES_Z, z))
    assert _bits_equal(batch[-1], K.p1(r, z))


def test_batch_values_are_point_values():
    """The 41 grid points shuffled among 4,000 others (r <= 16, |z| <= 50):
    each p1_many value has the bits of the per-point view, and so do
    log_grad_many's."""
    r, z, _ = load_reference()
    rng = np.random.default_rng(8)
    n = 4000
    rs = np.concatenate([r, rng.uniform(0.0, 16.0, n)])
    zs = np.concatenate([z, rng.uniform(-50.0, 50.0, n)])
    order = rng.permutation(rs.size)
    batch = np.empty(rs.size)
    batch[order] = K.p1_many(rs[order], zs[order])
    alpha, b = np.empty((2, rs.size))
    alpha[order], b[order] = K.log_grad_many(rs[order], zs[order])
    assert _bits_equal(batch[:r.size], [K.p1(ri, zi) for ri, zi in zip(r, z)])
    alone = np.array([K.log_grad_many(ri, zi) for ri, zi in zip(r, z)]).T
    assert _bits_equal(np.array([alpha[:r.size], b[:r.size]]), alone)


def test_values_ignore_blas_threads():
    """p1_many, log_grad_many and radial_row on 4,001 points, in fresh
    processes at one and two BLAS threads, have the same bytes: the
    engine makes no BLAS call."""
    grid = "kernel.np.linspace(0.0, 16.0, 4001), kernel.np.linspace(-50.0, 50.0, 4001)"
    build = (f"kernel.np.concatenate([kernel.p1_many({grid}), *kernel.log_grad_many({grid}), "
             "*kernel.radial_row(kernel.np.linspace(0.0, 16.0, 4001), 3.0)])")
    digests = O.digests_at_blas_threads(build)
    assert digests[0] == digests[1]


class TestBatchRoutes:
    @pytest.mark.parametrize("call", [
        lambda: K.p1_many([math.nan], [0.0]),
        lambda: K.log_grad_many([1.0], [math.nan]),
        lambda: K.radial_row([math.nan], 0.0),
        lambda: K.p1_many([math.inf], [0.0]),
        lambda: O.p1_complex_shift(math.nan, 0.0),
        lambda: K.p1_star_shifted(math.nan, 0.0),
        lambda: K.p1_star_shifted(-1.0, 0.0),
        lambda: K.get_spline_tables().bundle(math.nan, 0.0),
        # inf would read the table's r = 16 edge value
        lambda: K.get_spline_tables().bundle(math.inf, 0.0),
        lambda: K.get_spline_tables().bundle([1.0, 2.0], [0.0, -math.inf]),
    ], ids=["p1_many-nan", "log_grad_many-nan", "radial_row-nan", "p1_many-inf",
            "p1_complex_shift-nan", "p1_star_shifted-nan", "p1_star_shifted-negative",
            "bundle-nan", "bundle-inf", "bundle-z-inf"])
    def test_non_finite_arguments_rejected(self, call):
        with pytest.raises(K.KernelRangeError):
            call()

    def test_radial_row_vs_point_view(self):
        """A row's values have the bits of each point's own evaluation."""
        rs = np.array([0.0, 0.5, 1.7, 3.2, 6.0])
        z = 1.4
        row = K.radial_row(rs, z)
        for i, r in enumerate(rs):
            point = (K.p1(float(r), z), *O.p1_partials(float(r), z),
                     *O.p1_second_partials(float(r), z))
            assert _bits_equal([v[i] for v in row], point)

    def test_many_shapes_and_range(self):
        out = K.p1_many(np.ones((2, 3)), 0.5)
        assert out.shape == (2, 3)
        assert K.p1_many(np.empty(0), np.empty(0)).size == 0
        with pytest.raises(K.KernelRangeError):
            K.p1_many([1.0], [60.0])

    def test_row_empty_and_range(self):
        assert K.radial_row(np.empty(0), 1.0)[0].size == 0
        with pytest.raises(K.KernelRangeError):
            K.radial_row(np.array([-1.0]), 0.0)


def _table_grid():
    """The harness window table's grid, z-major (r <= 8, |z| <= 9, step
    0.025): a tensor grid whose chunks repeat their radii."""
    rg = np.arange(0.0, 8.0 + 0.025, 0.025)
    zg = np.arange(0.0, 9.0 + 0.025, 0.025)
    Z, R = np.meshgrid(zg, rg, indexing="ij")
    return R.ravel(), Z.ravel()


def _cell_nodes():
    """r-major Gauss nodes as mc.kernel_cell_masses lays them out for the
    chi-squared histogram (20 r cells on [0, 5], 10 z cells on [-2, 2])."""
    xg = np.polynomial.legendre.leggauss(8)[0]

    def nodes(edges):
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        return (mid[:, None] + half[:, None] * xg[None, :]).ravel()

    return nodes(np.linspace(0.0, 5.0, 21))[:, None], nodes(np.linspace(-2.0, 2.0, 11))[None, :]


def _ray_nodes():
    """96 distinct points of one ray-survey leg (|u| = 1.3, s in (1, 2 pi |u|))."""
    u = 1.3
    x, _ = np.polynomial.legendre.leggauss(96)
    phi = (0.5 * (2.0 * math.pi * u - 1.0) * (x + 1.0) + 1.0) / (2.0 * u)
    return 2.0 * u * np.sin(phi), 0.5 * u * u * (2.0 * phi - np.sin(2.0 * phi))


def _shuffled_repeats():
    """5,000 points in shuffled order over 37 radii and 29 signed heights,
    with -0.0 and 0.0 both present."""
    rng = np.random.default_rng(17)
    r = rng.choice(np.linspace(0.0, 6.0, 37), 5000)
    z = rng.choice(np.linspace(-4.0, 4.0, 29), 5000)
    z[rng.choice(5000, 40, replace=False)] = -0.0
    return r, z


class TestBatchBits:
    """p1_many and log_grad_many on (r, z) batches whose radii and heights
    repeat, so few of the points are distinct: each value in one batch has
    the bits of its one-point evaluation."""

    @pytest.mark.parametrize("make", [
        lambda: tuple(a[40_960:45_056] for a in _table_grid()),
        _cell_nodes,
        _shuffled_repeats,
        _ray_nodes,
    ], ids=["table-grid-two-chunks", "cell-masses-r-major", "shuffled-repeats", "ray-96"])
    def test_batch_matches_points(self, make):
        """The whole set in one call, checked at up to 1,000 seeded points."""
        r, z = (a.ravel() for a in np.broadcast_arrays(*make()))
        got = np.array([K.p1_many(r, z), *K.log_grad_many(r, z)])
        pick = np.random.default_rng(2).permutation(r.size)[:1000]
        want = np.array([[K.p1(r[i], z[i]), *K.log_grad_many(r[i], z[i])] for i in pick]).T
        assert _bits_equal(got[:, pick], want)


class TestPointEngine:
    """The engine behind p1, p1_many, log_grad_many and radial_row against
    its oracles, with the bounds measured on it."""

    def test_six_match_mpmath(self):
        """(p, p_r, p_z, p_rr, p_rz/r, p_zz) of radial_row at the 16 nodes
        of KERNEL_SIX_MP, relative to each value (measured 4.45e-13 on p at
        (16, 8), 2.75e-13, 2.48e-12, 1.64e-13, 1.54e-12 and 4.05e-11 on
        p_zz); p_r is 0 on the axis, and so are the stored values."""
        bounds = (6e-13, 4e-13, 3.5e-12, 2.5e-13, 2.2e-12, 6e-11)
        err = np.zeros(6)
        for (r, z), six in KERNEL_SIX_MP.items():
            got = [float(v[0]) for v in K.radial_row(np.array([r]), z)]
            assert got[0] == K.p1(r, z)
            for j, (g, w) in enumerate(zip(got, six)):
                err[j] = max(err[j], abs(g - w) / abs(w) if w else abs(g))
        print(f"\nradial_row against mpmath at 16 nodes: {err}")
        assert np.all(err <= bounds)

    def test_log_grad_matches_mpmath(self):
        """log_grad_many's (alpha, b) against _log_bundle of the stored
        mpmath values, within 8e-13 max(1, |value|) (measured 5.48e-13)."""
        r = np.array([key[0] for key in KERNEL_SIX_MP])
        z = np.array([key[1] for key in KERNEL_SIX_MP])
        want = K._log_bundle(r, np.array(list(KERNEL_SIX_MP.values())).T)
        for got, key in zip(K.log_grad_many(r, z), ("alpha", "b")):
            err = np.abs(got - want[key]) / np.maximum(1.0, np.abs(want[key]))
            assert np.all(err <= 8e-13), key

    def test_axis_closed_form_to_the_range_limit(self):
        """p1(0, z) against 1/(16 cosh^2(pi z/2)) on 501 heights to |z| = 50.
        The floor grows like e^{0.3 |z|}, the top band's cancellation:
        measured 9.95e-13 up to 30, 2.52e-11 up to 40 and 7.07e-10 up to 50."""
        zs = np.linspace(0.0, 50.0, 501)
        want = 1.0 / (16.0 * np.cosh(0.5 * math.pi * zs) ** 2)
        err = np.abs(K.p1_many(np.zeros_like(zs), zs) - want) / want
        for z_top, bound in ((30.0, 1.5e-12), (40.0, 4e-11), (50.0, 1.1e-9)):
            assert np.max(err[zs <= z_top]) <= bound, z_top

    def test_positive_on_the_whole_range(self):
        """p1_many > 0 on 8,000 seeded points and a 65 x 101 grid of
        r <= 16, |z| <= 50, the whole range it accepts but r > 16."""
        rng = np.random.default_rng(31)
        R, Z = np.meshgrid(np.linspace(0.0, 16.0, 65), np.linspace(-50.0, 50.0, 101))
        r = np.concatenate([rng.uniform(0.0, 16.0, 8000), R.ravel()])
        z = np.concatenate([rng.uniform(-50.0, 50.0, 8000), Z.ravel()])
        assert np.all(K.p1_many(r, z) > 0.0)


class TestPartials:
    def test_odd_integrand_zeros(self):
        assert O.p1_partials(1.3, 0.0)[1] == 0.0
        assert O.p1_partials(0.0, 2.1)[0] == 0.0

    def test_fd_oracle_first(self):
        r, z, h = 1.0, 1.0, 1e-5
        dr, dz = O.p1_partials(r, z)
        assert abs(dr - (K.p1(r + h, z) - K.p1(r - h, z)) / (2 * h)) <= 1e-6
        assert abs(dz - (K.p1(r, z + h) - K.p1(r, z - h)) / (2 * h)) <= 1e-6

    def test_fd_oracle_second(self):
        r, z, h = 1.3, 0.7, 1e-4
        drr, drzr, dzz = O.p1_second_partials(r, z)
        fd_rr = (K.p1(r + h, z) - 2 * K.p1(r, z) + K.p1(r - h, z)) / h**2
        fd_zz = (K.p1(r, z + h) - 2 * K.p1(r, z) + K.p1(r, z - h)) / h**2
        fd_rz = (
            K.p1(r + h, z + h) - K.p1(r + h, z - h) - K.p1(r - h, z + h) + K.p1(r - h, z - h)
        ) / (4 * h * h)
        assert abs(drr - fd_rr) <= 5e-6
        assert abs(dzz - fd_zz) <= 5e-6
        assert abs(drzr * r - fd_rz) <= 5e-6

    def test_parity_in_z(self):
        dr_p, dz_p = O.p1_partials(1.1, 0.9)
        dr_m, dz_m = O.p1_partials(1.1, -0.9)
        assert dr_m == dr_p and dz_m == -dz_p


class TestLogDerivatives:
    def test_fd_cross_check(self):
        h = 1e-5
        for r, z in ((1.1, 0.8), (0.4, -1.7)):
            d = O.log_derivatives(r, z)
            lg = lambda rr, zz: math.log(K.p1(rr, zz))
            assert abs(d.a - (lg(r + h, z) - lg(r - h, z)) / (2 * h)) <= 1e-4
            assert abs(d.b - (lg(r, z + h) - lg(r, z - h)) / (2 * h)) <= 1e-4
            al = lambda rr, zz: (lg(rr + h, zz) - lg(rr - h, zz)) / (2 * h) / rr
            bz = lambda rr, zz: (lg(rr, zz + h) - lg(rr, zz - h)) / (2 * h)
            assert abs(d.alpha - al(r, z)) <= 1e-4
            assert abs(d.alpha_r - (al(r + h, z) - al(r - h, z)) / (2 * h)) <= 1e-4
            assert abs(d.alpha_z - (al(r, z + h) - al(r, z - h)) / (2 * h)) <= 1e-4
            assert abs(d.b_r - (bz(r + h, z) - bz(r - h, z)) / (2 * h)) <= 1e-4
            assert abs(d.b_z - (bz(r, z + h) - bz(r, z - h)) / (2 * h)) <= 1e-4

    def test_axis_limits_continuous(self):
        d0 = O.log_derivatives(0.0, 0.9)
        dn = O.log_derivatives(1e-4, 0.9)
        assert abs(d0.alpha - dn.alpha) <= 1e-5
        assert abs(d0.alpha_z - dn.alpha_z) <= 1e-5
        assert d0.a == 0.0 and d0.alpha_r == 0.0 and d0.b_r == 0.0

    def test_axis_closed_forms(self):
        # b(0,z) = -pi tanh(pi z/2), b_z(0,z) = -(pi^2/2) sech^2(pi z/2)
        for z in (1.0, 3.0):
            d = O.log_derivatives(0.0, z)
            assert abs(d.b - (-math.pi * math.tanh(math.pi * z / 2))) <= 1e-6
            sech2 = 1.0 / math.cosh(math.pi * z / 2) ** 2
            assert abs(d.b_z - (-(math.pi**2 / 2) * sech2)) <= 1e-6

    def test_z_parity(self):
        dp = O.log_derivatives(1.4, 1.1)
        dm = O.log_derivatives(1.4, -1.1)
        assert math.isclose(dm.a, dp.a, rel_tol=1e-13)
        assert math.isclose(dm.b, -dp.b, rel_tol=1e-13)
        assert math.isclose(dm.alpha_r, dp.alpha_r, rel_tol=1e-13)
        assert math.isclose(dm.alpha_z, -dp.alpha_z, rel_tol=1e-13)
        assert math.isclose(dm.b_r, -dp.b_r, rel_tol=1e-13)
        assert math.isclose(dm.b_z, dp.b_z, rel_tol=1e-13)

    def test_gamma_formula(self):
        # Gamma(log h) = a^2 + (r^2/4) b^2 for radial-in-(r,z) log h
        lh = O.log_h_field()
        for x, y, z in ((0.6, -0.4, 0.3), (1.2, 0.5, -0.9)):
            d = O.log_derivatives(math.hypot(x, y), z)
            expect = d.a**2 + 0.25 * (x * x + y * y) * d.b**2
            got = gamma_fd(lh, lh, GroupElement(x, y, z))
            assert math.isclose(got, expect, rel_tol=1e-8)


def _contour_errors():
    """Worst relative error of p, and of the bundle in units of
    max(1, |value|), of _contour_rows against KERNEL_SIX_MP."""
    n_z = int(round(K._TABLE_Z_MAX / K._TABLE_DZ)) + 1 + K._PAD_TOP
    err_p = err_bundle = 0.0
    for (r, z), six in KERNEL_SIX_MP.items():
        j = int(round(z / K._TABLE_DZ))
        got = K._contour_rows(r, K._TABLE_DZ, n_z)[:, j]
        err_p = max(err_p, abs(got[0] - six[0]) / six[0])
        pair = [K._log_bundle(r, v) for v in (got, six)]
        for key in K.LogHSplineTables._KEYS:
            g, w = (float(b[key]) for b in pair)
            err_bundle = max(err_bundle, abs(g - w) / max(1.0, abs(w)))
    return err_p, err_bundle


class TestContourRows:
    """The fill of both kernel tables, FFT rows on the saddle-point contour."""

    def test_rows_match_mpmath(self):
        """p within 1.1e-13 relative (measured 3.45e-14 at (0.1, 27.2)), the
        bundle within 1.5e-11 max(1, |value|) (measured 6.10e-12, on alpha_z
        there)."""
        err_p, err_bundle = _contour_errors()
        assert err_p <= 1.1e-13
        assert err_bundle <= 1.5e-11

    @pytest.mark.parametrize("table", ["spline", "window"])
    def test_rows_match_reference_grid(self, table):
        """p on each table's grid at every point of the 40-digit grid that
        the grid holds, within 1e-14 relative: measured 3.91e-15 at (1, 12)
        on the spline table's (all 41 points) and 2.47e-15 at (8, 3) on the
        window's (35 points, r <= 8, |z| <= 9)."""
        dz, dr, nz, r_max = {
            "spline": (K._TABLE_DZ, K._TABLE_DR,
                       int(round(K._TABLE_Z_MAX / K._TABLE_DZ)) + 1 + K._PAD_TOP,
                       K._TABLE_R_MAX + K._PAD_TOP * K._TABLE_DR),
            "window": (K._P1TAB_STEP, K._P1TAB_STEP,
                       int(round(K._P1TAB_Z / K._P1TAB_STEP)) + 1, K._P1TAB_R),
        }[table]
        r, z, ref = load_reference()
        on_grid = [i for i in range(r.size) if r[i] <= r_max and abs(z[i]) <= (nz - 1) * dz
                   and r[i] / dr == round(r[i] / dr) and z[i] / dz == round(z[i] / dz)]
        assert len(on_grid) == {"spline": 41, "window": 35}[table]
        for i in on_grid:
            got = K._contour_rows(r[i], dz, nz, p_only=True)[0, int(round(abs(z[i]) / dz))]
            assert abs(got - ref[i]) <= 1e-14 * ref[i], (r[i], z[i])

    def test_p_only_is_the_first_row(self):
        """p alone has the bits of the first of the six rows."""
        n_z = int(round(K._TABLE_Z_MAX / K._TABLE_DZ)) + 1 + K._PAD_TOP
        for r in (0.0, 0.1, 1.0, 6.6, 16.6):
            p = K._contour_rows(r, K._TABLE_DZ, n_z, p_only=True)
            assert p.shape == (1, n_z)
            assert _bits_equal(p[0], K._contour_rows(r, K._TABLE_DZ, n_z)[0])

    @pytest.mark.parametrize("bands", [7, 10])
    def test_band_count_converged(self, monkeypatch, bands):
        """7 and 10 bands meet the same bounds as the 8 in use (each
        measured with the same worst cases as 8)."""
        monkeypatch.setattr(K, "_BANDS", np.linspace(0.0, math.pi - 0.3, bands))
        err_p, err_bundle = _contour_errors()
        assert err_p <= 1.1e-13
        assert err_bundle <= 1.5e-11

    def test_four_bands_are_too_few(self, monkeypatch):
        """With 4 bands some z sits far from its saddle, and p misses by
        3.99e-6 relative at (3, 20)."""
        monkeypatch.setattr(K, "_BANDS", np.linspace(0.0, math.pi - 0.3, 4))
        assert 1e-6 < _contour_errors()[0] <= 4e-6

    def test_six_bands_are_too_few(self, monkeypatch):
        """6 bands miss by 3.75e-11 relative at (5, 18), so 7 is the fewest
        that meets the bounds."""
        monkeypatch.setattr(K, "_BANDS", np.linspace(0.0, math.pi - 0.3, 6))
        assert 1e-11 < _contour_errors()[0] <= 3.8e-11

    def test_shorter_fft_aliases(self):
        """A period shorter than either bound lets the alias terms reach p.
        With L >= 30/(pi - theta), p misses by 1.78e-11 relative at
        (0.5, 10), where the alias at z + L falls only like
        e^{-(pi - theta) L}; with L >= 2 z_max, by 1.03e-11, from the image
        of the row's top at L - z.  At 77/(pi - theta) and 2 z_max + 40 the
        worst is 3.45e-14 (test_rows_match_mpmath)."""
        for name, value, low, high in (("_STRIP", 30.0, 1.7e-11, 1.8e-11),
                                       ("_FOLD_MARGIN", 0.0, 1e-11, 1.1e-11)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(K, name, value)
                assert low < _contour_errors()[0] <= high, name

    def test_axis_row_closed_form(self):
        """The r = 0 row against 1/(16 cosh^2(pi z/2)) at every table height,
        to 1.1e-13 relative (measured 9.62e-14)."""
        n_z = int(round(K._TABLE_Z_MAX / K._TABLE_DZ)) + 1 + K._PAD_TOP
        zs = np.arange(n_z) * K._TABLE_DZ
        want = 1.0 / (16.0 * np.cosh(0.5 * math.pi * zs) ** 2)
        got = K._contour_rows(0.0, K._TABLE_DZ, n_z)[0]
        assert np.max(np.abs(got - want) / want) <= 1.1e-13


class TestSplineTables:
    def test_cached_singleton(self, tables):
        assert K.get_spline_tables() is tables

    def test_matches_exact_in_trusted_region(self, tables):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            r = rng.uniform(0.0, 7.0)
            z = rng.uniform(-8.0, 8.0)
            d = float(cc_distance_many(r, 0.0, z))
            if 0.25 * (d * d - r * r) > 12.0:
                continue
            ex = O.log_derivatives(r, z)
            vals = tables.bundle(r, z)
            for v_ex, v_sp in zip(
                (ex.alpha, ex.b, ex.alpha_r, ex.alpha_z, ex.b_r, ex.b_z), vals
            ):
                assert abs(float(v_sp) - v_ex) <= 2e-3 * (1.0 + abs(v_ex))
            checked += 1

    def test_meets_contour_rows_at_its_nodes(self, tables):
        """Inside the clamp box the table returns the _log_bundle of the
        _contour_rows it was fitted to, within 4.3e-16 of each component's
        largest value there (measured 4.24e-16, on b)."""
        n_r = int(round(K._TABLE_R_MAX / K._TABLE_DR)) + 1
        n_z = int(round(K._TABLE_Z_MAX / K._TABLE_DZ)) + 1
        rs = np.arange(n_r) * K._TABLE_DR
        zs = np.arange(n_z) * K._TABLE_DZ
        want = np.empty((6, n_r, n_z))
        for i, r in enumerate(rs):
            row = K._log_bundle(r, K._contour_rows(r, K._TABLE_DZ, n_z))
            want[:, i] = [row[key] for key in K.LogHSplineTables._KEYS]
        got = np.array(tables.bundle(rs[:, None], zs[None, :]))
        scale = np.max(np.abs(want), axis=(1, 2))
        err = np.max(np.abs(got - want), axis=(1, 2))
        assert np.all(err <= 4.3e-16 * scale), err / scale

    def test_coefficients_ignore_blas_threads(self):
        """Built in fresh processes at one and two BLAS threads, the table's
        coefficients have the same bytes: its rows are FFTs, not BLAS
        contractions, and the fit's two collocation solves keep their bits."""
        digests = O.digests_at_blas_threads("kernel.LogHSplineTables()._table._rows")
        assert digests[0] == digests[1]

    def test_parity_at_eval(self, tables):
        r, z = 1.7, 2.3
        up = dict(zip(K.LogHSplineTables._KEYS, tables.bundle(r, z)))
        down = dict(zip(K.LogHSplineTables._KEYS, tables.bundle(r, -z)))
        assert down["b"] == -up["b"]
        assert down["alpha"] == up["alpha"]
        assert down["b_z"] == up["b_z"]

    def test_axis_odd_components_vanish(self, tables):
        for z in (0.5, 3.0, 9.0):
            row = dict(zip(K.LogHSplineTables._KEYS, tables.bundle(0.0, z)))
            assert abs(float(row["alpha_r"])) <= 1e-6
            assert abs(float(row["b_r"])) <= 1e-6

    def test_clamped_far_queries_finite(self, tables):
        vals = tables.bundle(np.array([25.0, 3.0]), np.array([40.0, -30.0]))
        for v in vals:
            assert np.all(np.isfinite(v))

    def test_bundle_values_ignore_batch_mates_and_blocks(self, tables):
        """One call on a shuffled set that spans two evaluation blocks, past
        the clamp box and on both sides of z = 0, gives each point the bits
        of its own one-point call."""
        from heisenkern.numerics import _TABLE_BLOCK

        n = _TABLE_BLOCK + 1_500
        rng = np.random.default_rng(23)
        r = rng.uniform(0.0, 18.0, n)
        z = rng.uniform(-28.0, 28.0, n)
        batch = np.array(tables.bundle(r, z))
        single = np.array([tables.bundle(a, b) for a, b in zip(r, z)]).T
        assert _bits_equal(batch, single)


class TestLogHField:
    def test_gradient_validates(self):
        lh = O.log_h_field()
        pts = [
            GroupElement(0.5, 0.3, -0.4),
            GroupElement(-1.2, 0.8, 1.5),
            GroupElement(0.0, 0.0, 0.7),
            GroupElement(2.0, -0.1, 0.0),
        ]
        validate_gradient(lh, pts, rtol=1e-5, atol=1e-6)

    def test_z_log_h_vanishes_at_z0(self):
        lh = O.log_h_field()
        val = apply_op("Z", lh, GroupElement(1.0, 0.0, 0.0))
        assert val == 0.0

    def test_theta_annihilates(self):
        lh = O.log_h_field()
        for pt in (GroupElement(0.8, -0.6, 0.4), GroupElement(1.5, 2.0, -1.1)):
            assert abs(apply_op("Theta", lh, pt)) <= 1e-10

    def test_gamma_at_origin_with_fd(self):
        lh = O.log_h_field()
        stripped = dataclasses.replace(lh, analytic_gradient=None)
        origin = GroupElement(0.0, 0.0, 0.0)
        assert abs(gamma_fd(lh, lh, origin)) <= 1e-12
        assert abs(gamma_fd(stripped, stripped, origin)) <= 1e-8

    def test_invariant_measure_identity(self):
        # (L + D + 2) h = 0, in log form L f + Gamma(f) + D f + 2 = 0
        lh = O.log_h_field()
        rng = np.random.default_rng(3)
        pts = sample_ball(40, 4.0, seed=3)
        worst = 0.0
        for x, y, z, d in pts:
            pt = GroupElement(float(x), float(y), float(z))
            resid = (
                apply_L(lh, pt)
                + gamma_fd(lh, lh, pt)
                + apply_op("D", lh, pt)
                + 2.0
            )
            worst = max(worst, abs(resid))
        print(f"\n(L+D+2)h residual (log form), d<=4, n=40: sup {worst:.3e}")
        assert worst <= 1e-4

    def test_heat_equation_in_t(self):
        pts = sample_ball(20, 3.0, seed=9)
        delta = 1e-4
        worst = 0.0
        for x, y, z, d in pts:
            pt = GroupElement(float(x), float(y), float(z))
            f = ScalarField(
                eval=lambda xx, yy, zz: O.p(1.0, math.hypot(float(xx), float(yy)), float(zz)),
                name="p_t1",
            )
            lhs = (
                O.p(1.0 + delta, math.hypot(x, y), z) - O.p(1.0 - delta, math.hypot(x, y), z)
            ) / (2 * delta)
            rhs = apply_L(f, pt)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst <= 1e-3


class TestXhatField:
    def test_matches_xhat_of_log_h(self):
        fe = O.xhat_log_h_exact()
        lh = O.log_h_field()
        for pt in (GroupElement(0.7, -1.1, 0.6), GroupElement(-0.3, 0.2, -1.4)):
            direct = fe.eval(pt.x, pt.y, pt.z)
            via_op = apply_op("Xhat", lh, pt)
            assert math.isclose(direct, via_op, rel_tol=1e-10, abs_tol=1e-12)

    def test_gradient_validates(self):
        fe = O.xhat_log_h_exact()
        pts = [
            GroupElement(0.7, -1.1, 0.6),
            GroupElement(1.4, 0.2, -0.8),
            GroupElement(0.0, 0.9, 1.2),
        ]
        validate_gradient(fe, pts, rtol=1e-4, atol=1e-5)

    def test_spline_route_agrees(self, tables):
        fe = O.xhat_log_h_exact()
        fs = K.xhat_log_h_field()
        for pt in (GroupElement(0.7, -1.1, 0.6), GroupElement(2.2, 1.3, -2.0)):
            assert abs(fe.eval(pt.x, pt.y, pt.z) - float(fs.eval(pt.x, pt.y, pt.z))) <= 1e-5
            ge = fe.analytic_gradient(pt.x, pt.y, pt.z)
            gs = fs.analytic_gradient(pt.x, pt.y, pt.z)
            for a, b in zip(ge, gs):
                assert abs(float(a) - float(b)) <= 2e-3 * (1.0 + abs(float(a)))

    def test_joint_evaluation_is_eval_and_gradient(self, tables):
        """f*'s joint evaluation gives exactly (eval, *analytic_gradient), in
        a batch and one point at a time: on the axis r = 0, below the plane
        z < 0 and at points the table clamps (r > 16, |z| > 26)."""
        fs = K.xhat_log_h_field()
        x = np.array([0.0, 0.0, 0.7, -1.3, 20.0, 0.4, -12.0])
        y = np.array([0.0, 0.0, -1.1, 0.2, 3.0, -0.3, 13.0])
        z = np.array([1.5, -2.0, -0.6, -3.2, 1.0, -40.0, 30.0])
        joint = fs.value_and_gradient(x, y, z)
        want = (fs.eval(x, y, z), *fs.analytic_gradient(x, y, z))
        assert len(joint) == 4
        for got, ref in zip(joint, want):
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(ref).view(np.int64))
        for i in range(x.size):
            one = fs.value_and_gradient(x[i], y[i], z[i])
            assert [float(v) for v in one] == [float(v[i]) for v in joint]

    def test_odd_symmetry_and_axis(self):
        fs = K.xhat_log_h_field()
        v1 = float(fs.eval(0.8, 0.5, 1.1))
        v2 = float(fs.eval(-0.8, -0.5, 1.1))
        assert math.isclose(v1, -v2, rel_tol=1e-12)
        assert float(fs.eval(0.0, 0.0, 2.0)) == 0.0


class TestComplexRoutes:
    def test_conjugate_symmetry(self):
        for fn, r in ((O.p1_complex_shift, 3.0), (K.p1_star_shifted, 1.5)):
            v_p = fn(r, 1.2)
            v_m = fn(r, -1.2)
            assert v_m.re == v_p.re and v_m.im == -v_p.im

    def test_route_cross_check(self):
        """For r > 2, p1* is the literal p1(r, z + 2i) less the removed pole:
        against the adaptive route to 1e-8, and against the stored mpmath
        values to 1.5e-14 relative (measured at most 1.27e-14, at (3.8, 1),
        where the two pole-free pieces cancel to a fifth of the pole term)."""
        for r, z in ((4.0, 0.0), (4.0, 1.0), (2.5, 0.7), (3.5, -2.0)):
            shift = O.p1_complex_shift(r, z).as_complex()
            star = K.p1_star_shifted(r, z).as_complex()
            pole = O.removed_pole_shifted(r, z)
            assert abs((shift - pole) - star) <= 1e-8
        worst = 0.0
        for (r, z), literal in P1_SHIFT_MP.items():
            star = K.p1_star_shifted(r, z).as_complex()
            worst = max(worst, abs(star + O.removed_pole_shifted(r, z) - literal) / abs(literal))
        print(f"\np1* plus the removed pole against mpmath: max rel err {worst:.3g}")
        assert worst <= 1.5e-14

    def test_star_batch_keeps_each_points_bits(self):
        """A point's p1* has the bits of its own scalar call in a batch whose
        mates span many panel counts, in any order, repeated and beside
        1,000 others."""
        rs = np.array([0.05, 0.3, 1.0, 2.0, 3.5, 5.0, 8.0])
        zs = np.array([0.0, 0.7, -12.0, 25.0])
        R, Z = np.meshgrid(rs, zs, indexing="ij")
        # each point's panel count, as integrate_decaying sets it
        counts = {math.ceil(40.0 / d / (min(1.0 / d, 0.5 * math.pi / abs(z)) if z else 1.0 / d))
                  for d, z in zip(1.0 + 0.25 * R.ravel() ** 2, Z.ravel())}
        assert len(counts) >= 10
        alone = np.array([[K.p1_star_shifted(r, z).as_complex() for z in zs] for r in rs])
        batch = K.p1_star_shifted(R, Z)
        assert batch.shape == R.shape
        assert np.array_equal(batch.view(np.int64), alone.view(np.int64))
        rng = np.random.default_rng(3)
        r2 = np.concatenate([R.ravel(), R.ravel(), rng.uniform(0.05, 8.0, 1000)])
        z2 = np.concatenate([Z.ravel(), Z.ravel(), rng.uniform(-25.0, 25.0, 1000)])
        order = rng.permutation(r2.size)
        mixed = np.empty(r2.size, dtype=complex)
        mixed[order] = K.p1_star_shifted(r2[order], z2[order])
        for part in (mixed[:R.size], mixed[R.size:2 * R.size]):
            assert np.array_equal(part.view(np.int64), alone.ravel().view(np.int64))

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_star_empty_batch(self, shape):
        """An empty batch gives an empty complex array of the broadcast
        shape, as p1_many and radial_row do."""
        out = K.p1_star_shifted(np.empty(shape), 0.5)
        assert out.shape == shape and out.dtype == complex

    def test_star_finite_at_interior_point(self):
        v = K.p1_star_shifted(1.0, 0.0)
        assert math.isclose(v.re, STAR_AT_1_0_RE, rel_tol=1e-12)
        assert v.im == 0.0
        assert math.isclose(v.re, O.p1_star_adaptive(1.0, 0.0).real, rel_tol=1e-13)

    def test_star_matches_adaptive_reference(self):
        """The fixed rule against the converged adaptive route, r in [0.05, 8], |z| <= 25."""
        worst = 0.0
        for r in (0.05, 0.3, 1.0, 2.0, 3.5, 5.0, 8.0):
            for z in (0.0, 0.7, -2.0, 6.0, -12.0, 25.0):
                ref = O.p1_star_adaptive(r, z)
                worst = max(worst, abs(K.p1_star_shifted(r, z).as_complex() - ref) / abs(ref))
        print(f"\np1_star_shifted against the adaptive reference: max rel err {worst:.3g}")
        assert worst <= 1e-12

    def test_shift_envelope_decay(self):
        mags = [abs(O.p1_complex_shift(r, 0.0).as_complex()) for r in (3.0, 5.0, 10.0)]
        assert mags[0] > mags[1] > mags[2]

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="star"):
            O.p1_complex_shift(2.0, 0.0)
        with pytest.raises(ValueError):
            K.p1_star_shifted(0.0, 1.0)

    def test_value_type_validation(self):
        with pytest.raises(ValueError):
            K.ComplexKernelValue(math.inf, 0.0)

    def test_pole_field_annihilated_by_x_plus_iy(self):
        # the complexified horizontal gradient kills any function of
        # w = 1 + iz + r^2/4, in particular the pole term
        def w_of(x, y, z):
            return complex(1.0 + 0.25 * (x * x + y * y), z) ** -2

        re_f = ScalarField(eval=lambda x, y, z: np.real(w_of(float(x), float(y), float(z))))
        im_f = ScalarField(eval=lambda x, y, z: np.imag(w_of(float(x), float(y), float(z))))
        rng = np.random.default_rng(5)
        for _ in range(5):
            pt = GroupElement(*rng.uniform(-1.5, 1.5, 3))
            x_re = apply_op("X", re_f, pt)
            y_re = apply_op("Y", re_f, pt)
            x_im = apply_op("X", im_f, pt)
            y_im = apply_op("Y", im_f, pt)
            # (X + iY)(re + i im) = 0: real and imaginary parts separately
            assert abs(x_re - y_im) <= 1e-6
            assert abs(x_im + y_re) <= 1e-6


class TestGaussianEstimates:
    def test_esth1_bracket(self, ball8):
        x, y, z, d = ball8.T
        r = np.hypot(x, y)
        pv = K.p1_many(r, z)
        norm = (r**4 + z * z) ** 0.25
        ratio = pv * np.sqrt(1.0 + norm * d) * np.exp(0.25 * d * d)
        lo, hi = ratio.min(), ratio.max()
        print(f"\nesth1 empirical bracket over d<=8: [{lo:.6f}, {hi:.6f}]")
        assert 0.03 <= lo and hi <= 0.8

    def test_esth2_esth3_constant(self, ball8, tables):
        x, y, z, d = ball8.T
        r = np.hypot(x, y)
        alpha, b, *_ = tables.bundle(r, z)
        a = r * alpha
        gamma_logh = a * a + 0.25 * r * r * b * b
        c2 = float(np.max(gamma_logh / (1.0 + d)))
        c3 = float(np.max(np.abs(b)))
        c = max(c2, c3)
        print(f"\nesth2/esth3 empirical C over d<=8: {c:.4f} "
              f"(gradient part {c2:.4f}, vertical part {c3:.4f})")
        assert c <= 4.0
        # the vertical bound saturates at pi on the axis
        assert c3 <= math.pi + 1e-6


class TestRatioShell:
    def test_outer_sup_controlled_by_inner(self):
        # shell 25 <= r^2+|z| <= 400, restricted to points where the
        # real-kernel denominator is float64-honest: (d^2-r^2)/4 <= 14
        sups = {"inner": 0.0, "outer": 0.0}
        kept = 0
        for sig in np.geomspace(25.0, 400.0, 25):
            for w in np.linspace(0.35, 1.0, 14):
                r = math.sqrt(sig * w)
                z = sig * (1.0 - w)
                if z > 50.0 or r <= 2.05:
                    continue
                d = float(cc_distance_many(r, 0.0, z))
                if 0.25 * (d * d - r * r) > 14.0:
                    continue
                den = float(K.p1_many(r, z))
                num = abs(O.p1_complex_shift(r, z).as_complex())
                assert den > 0.0
                side = "inner" if sig <= 212.5 else "outer"
                sups[side] = max(sups[side], num / den)
                kept += 1
        print(f"\nshifted/real ratio shell: n={kept}, "
              f"inner sup {sups['inner']:.4f}, outer sup {sups['outer']:.4f}")
        assert kept > 80
        assert sups["outer"] <= 1.5 * sups["inner"]
