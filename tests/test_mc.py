"""Sampler tests with generator-derived moment oracles.

The key derivation: with the midpoint area rule, stepping from
(x_k, y_k, z_k) by (dx, dy) adds exactly z -> z + (x_k dy - y_k dx)/2
plus the cross term (dx dy - dy dx)/4 = 0, so the discrete chain is
the left random walk with group increments (dx, dy, 0).  Hence

    E[z_N^2] = (1/4) sum_k E[x_k^2] E[dy^2] + E[y_k^2] E[dx^2]
             = (1/4) sum_k 2 (2 k dt)(2 dt) = t^2 (1 - 1/N),

an exact finite-N law used below both as a moment oracle and as the
doubling-bias trend.  Planar moments are bias-free at every N because
the increments themselves are exact Gaussians of variance 2 dt.

The sampler draws that law without stepping y.  Summing y_k dx_k by
parts turns the area into z = (1/2) sum_j c_j dy_j with
c_j = x_j + x_{j+1} - X, X = x_N, that is c = S^T dx for the sign
matrix S_jk = sign(k - j).  Given the x-path, (Y, z) is a centred 2-D
Gaussian with Var Y = N sigma^2, Cov(Y, z) = sigma^2 sum(c)/2 and
Var z = sigma^2 sum(c^2)/4, which two normals realise exactly.  The
x-increments come from their coefficients in the orthonormal DST-II
basis that diagonalises the centred sum of c^2, so the three per-path
statistics are dot products against closed-form weights.  A path draws
only the leading modes of each parity; each tail enters through its
linear statistic and the conditional mean of its share of that sum.
The tests build the basis from its sines, check the statistics against
the sign matrix, and check from the weights alone that Var X =
N sigma^2 and E[z^2] = t^2 (1 - 1/N), that the truncated law's E[z^4]
falls short by at most 1e-6 (against the sign matrix's exact value),
and that its E[cos(mu z)] lies at most 1e-6 below the exact n-step
value that follows.  The same conditioning gives
E[cos(mu z) | dx] = exp(-mu^2 sigma^2 |c|^2/8), and averaging over dx
the exact n-step characteristic function
det(I + (mu sigma^2/2)^2 S S^T)^(-1/2) (oracles.cos_area_exact); it
tells the n-step law from the diffusion's 1/cosh(mu t) at N = 10.  The
stepwise midpoint sampler in the oracles is a second route to the same
law, checked against the literal midpoint rule, against that
characteristic function and against the endpoint sampler's increments.
All seeds are pinned, so every statistical deviation below is a fixed
number, checked once against its 3 or 4 SE budget with room to spare.
"""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from heisenkern.group import GroupElement
from heisenkern.mc import (
    BatchStats,
    PathConfig,
    chi2_against_kernel,
    kernel_cell_masses,
    sample_batch,
    sample_kolmogorov,
    _path_basis,
    _path_stats,
    _simulate_stream,
    _stream_generator,
)
from heisenkern import mc
from heisenkern.numerics import _chi2_sf

from oracles import (
    advance,
    cos_area_exact,
    sample_heisenberg,
    sample_paths,
    sign_matrix,
    walk,
)


def test_config_validation():
    with pytest.raises(ValueError):
        PathConfig(t=0.0, n_steps=100, seed=1)
    with pytest.raises(ValueError):
        PathConfig(t=1.0, n_steps=9, seed=1)
    with pytest.raises(ValueError):
        PathConfig(t=1.0, n_steps=100.5, seed=1)
    with pytest.raises(ValueError):
        PathConfig(t=1.0, n_steps=100, seed=-1)
    with pytest.raises(ValueError):
        PathConfig(t=1.0, n_steps=100, seed=2 ** 64)


def test_single_draw_is_deterministic():
    cfg = PathConfig(t=1.0, n_steps=50, seed=42)
    assert sample_heisenberg(cfg) == sample_heisenberg(cfg)
    other = sample_heisenberg(PathConfig(t=1.0, n_steps=50, seed=43))
    assert other != sample_heisenberg(cfg)


def test_t_to_zero_limit():
    g = sample_heisenberg(PathConfig(t=1e-12, n_steps=10, seed=3))
    assert abs(g.x) < 1e-4 and abs(g.y) < 1e-4 and abs(g.z) < 1e-8


def test_sample_paths_deterministic_rows():
    cfg = PathConfig(t=0.5, n_steps=20, seed=9)
    a = sample_paths(2000, cfg)
    b = sample_paths(2000, cfg)
    assert a.shape == (2000, 3)
    assert np.array_equal(a, b)


def test_planar_second_moment():
    # E[x^2 + y^2] = 4t for every step count (exact increments)
    s = sample_batch(1_000_000, PathConfig(t=1.0, n_steps=10, seed=2718))
    assert abs(s.mean_r2 - 4.0) <= 3.0 * s.se_r2


def test_vertical_second_moment():
    # finite-N value 1 - 1/1000; the residual bias is 0.2 SE here
    s = sample_batch(200_000, PathConfig(t=1.0, n_steps=1000, seed=1618))
    assert abs(s.mean_z2 - 1.0) <= 3.0 * s.se_z2
    assert abs(s.mean_z) <= 3.0 * s.se_z
    assert abs(s.mean_x) <= 3.0 * s.se_x


def test_batch_accounting():
    n = 12_345
    cfg = PathConfig(t=1.0, n_steps=30, seed=5)
    s = sample_batch(n, cfg)
    assert s.n == n
    assert s.hist.shape == (20, 10)
    assert s.hist.sum() <= n
    assert s.n_streams >= 10
    for se in (s.se_x, s.se_z, s.se_r2, s.se_z2):
        assert se > 0.0
    with pytest.raises(ValueError):
        sample_batch(999, cfg)


def test_batches_are_reproducible():
    cfg = PathConfig(t=1.0, n_steps=40, seed=77)
    a = sample_batch(4000, cfg)
    b = sample_batch(4000, cfg)
    assert a.mean_z2 == b.mean_z2
    assert a.se_r2 == b.se_r2
    assert np.array_equal(a.hist, b.hist)


# p_1 at 24 seeded Gauss nodes of the chi-squared cell grid, to 22 digits
# of oracles._p1_real_mp at 30 digits; the tests do not import mpmath
CELL_NODE_P1_MP = (
    (1.2245833096767034, 1.9593332954827254, 0.00121591528458022589242),
    (3.3979293303119564, -1.592057971299507, 0.0006480991570346120308394),
    (0.47458330967670337, -0.007942028700492765, 0.05595987934626664713155),
    (1.059308448760459, 0.30510648198326606, 0.03252819441743398225172),
    (1.559308448760459, 0.7920579712995075, 0.01240715363423443341222),
    (1.5254166903232966, -1.9920579712995072, 0.001335328819760609885095),
    (4.525416690323297, -1.1920579712995072, 0.00008161744217903087220899),
    (3.995036232062192, -0.09489351801673418, 0.0003497981218185772097628),
    (4.559308448760459, -1.6948935180167344, 0.00006118135087520279881379),
    (4.995036232062192, 1.9593332954827254, 0.00001888732842950741197415),
    (0.3979293303119562, 0.5633130715008704, 0.03014390414866344446607),
    (0.7245833096767034, 1.1920579712995074, 0.006530852586621183995611),
    (4.309308448760459, 0.04066670451727469, 0.0001698104030764306931883),
    (0.3979293303119562, 0.3920579712995076, 0.0414650729629763794978),
    (0.8093084487604589, -0.6366869284991298, 0.02353981889564121888175),
    (0.8979293303119562, -0.7051064819832656, 0.0200769520002202614649),
    (4.559308448760459, -1.5051064819832658, 0.00006669481668005019417995),
    (1.7754166903232966, -1.1920579712995072, 0.006015403170173468290756),
    (1.309308448760459, 1.1051064819832659, 0.008290081345472592554484),
    (0.8520706696880438, -0.2366869284991299, 0.04025126175421737066879),
    (2.2754166903232966, 1.2948935180167345, 0.003628468768060749031306),
    (2.9745833096767034, -0.8406667045172744, 0.002146836812806376223979),
    (4.004963767937808, 0.8406667045172749, 0.0003000453889542061191267),
    (3.0593084487604587, 1.5051064819832658, 0.00116583224419184669139),
)


def test_cell_node_kernel_values_match_mpmath():
    """The kernel values behind the cell masses, within 1e-15 relative of
    mpmath at 24 seeded cell nodes (measured 8.2e-16)."""
    r, z, want = (np.array(a) for a in zip(*CELL_NODE_P1_MP))
    assert np.all(np.abs(mc.p1_many(r, z) - want) <= 1e-15 * want)


# P(chi^2_200 > the statistic below) to 50 digits (oracles.chi2_sf_mp);
# it rounds to 0x1.eb67f8baa2830p-1
CHI2_P_MP = "0.95977761533982247734499357850426241283446751225405"


def test_histogram_matches_kernel_masses():
    """Pearson chi-squared of sampled cell counts against the quadrature
    masses of the same 200 cells; the two routes share nothing but the
    group law.

    The histogram's bytes are pinned (SFC64 streams): the sample is fixed
    by the seed together with the stream split and the per-path draw
    layout, so a sampler change that moves the stream shows up here.  The
    statistic (166.44581..., p = 0.960) is pinned bit for bit on the
    masses of the kernel values that
    test_cell_node_kernel_values_match_mpmath checks.  The p-value is
    pinned at its measured error, 4 ulp above the correctly rounded
    50-digit value (5.2e-16 relative; scipy's chdtrc is 1 ulp below it).
    """
    s = sample_batch(200_000, PathConfig(t=1.0, n_steps=600, seed=4242))
    digest = hashlib.sha256(s.hist.tobytes()).hexdigest()
    assert digest == "3d925898e5f69f31c9cdd2c7dd3b3ea5a74df519f252b56bf98fb9ca9778d850"
    masses = kernel_cell_masses(s.r_edges, s.z_edges, s.t)
    assert 0.9 < masses.sum() < 1.0
    res = chi2_against_kernel(s)
    assert res.dof == res.n_categories - 1 == 200
    assert res.p_value > 0.01
    assert res.statistic == float.fromhex("0x1.4ce440e1f9e50p+7")
    assert float(CHI2_P_MP) == float.fromhex("0x1.eb67f8baa2830p-1")
    assert res.p_value == float.fromhex("0x1.eb67f8baa2834p-1")


# P(chi^2_dof > x) to 25 digits (oracles.chi2_sf_mp): even and odd dof, deep
# tails, and dof and x past 1,024, where e^(-x/2) enters in several factors
CHI2_SF_MP = (
    (2, 3.0, "0.2231301601484298289332805"),
    (10, 7.5, "0.6775476361045436588172014"),
    (200, 250.0, "0.009379131668826096107215513"),
    (400, 600.0, "3.371103255525884323675968e-10"),
    (10, 1000.0, "1.870290720915949695839203e-208"),
    (2000, 2000.0, "0.4957947558197844914962222"),
    (1, 0.5, "0.4795001221869534623172533"),
    (1, 600.0, "1.674167984691787762035184e-132"),
    (3, 2.5, "0.475291083343020590158553"),
    (201, 180.25, "0.8506643166561799448888725"),
    (399, 420.0, "0.2253534357114192857746373"),
    (2001, 2100.5, "0.05961702445197940278952394"),
)


def test_chi2_sf_against_mpmath():
    """The survival function against stored 50-digit values within the
    measured 2.7e-15 relative (at dof 2,000), dof 1 included: there
    erfc(sqrt(x/2)) alone is the answer, and the correction for the rounded
    root holds it to 1.9e-16 at x = 600, where the uncorrected root erred
    by 5.8e-14.  At x = 0 every dof gives 1 exactly, and far out in the
    tail 0."""
    for dof, x, want in CHI2_SF_MP:
        err = abs(_chi2_sf(x, dof) - float(want)) / float(want)
        assert err <= 2.7e-15, (dof, x, err)
    assert [_chi2_sf(0.0, dof) for dof in (1, 2, 3, 200)] == [1.0] * 4
    assert _chi2_sf(3000.0, 3) == _chi2_sf(1e6, 2000) == 0.0


def test_doubling_halves_the_vertical_bias():
    # E[z_N^2] = 1 - 1/N exactly; each estimate must sit within 4 SE of
    # its own finite-N law and the sequence must climb monotonically
    means = []
    for n_steps in (10, 20, 40, 80):
        s = sample_batch(800_000, PathConfig(t=1.0, n_steps=n_steps, seed=555))
        exact = 1.0 - 1.0 / n_steps
        assert abs(s.mean_z2 - exact) <= 4.0 * s.se_z2, n_steps
        means.append(s.mean_z2)
    assert all(a < b for a, b in zip(means, means[1:]))
    assert means[-1] < 1.0


def test_dilation_scaling_in_law():
    # moments at lambda^2 t match lambda-dilated moments at t
    lam2 = 2.25
    sa = sample_batch(200_000, PathConfig(t=1.8, n_steps=100, seed=81))
    sb = sample_batch(200_000, PathConfig(t=0.8, n_steps=100, seed=82))
    checks = (
        (sa.mean_r2, sa.se_r2, sb.mean_r2, sb.se_r2, lam2),
        (sa.mean_z2, sa.se_z2, sb.mean_z2, sb.se_z2, lam2 * lam2),
        (sa.mean_z, sa.se_z, sb.mean_z, sb.se_z, lam2),
    )
    for a, sea, b, seb, scale in checks:
        se = math.hypot(sea, scale * seb)
        assert abs(a - scale * b) <= 3.0 * se


def _midpoint_steps(dw, x, y, z):
    """The literal midpoint rule, one step at a time: the oracle for
    the stepwise route's blocked area sums."""
    x, y, z = x.copy(), y.copy(), z.copy()
    for j in range(dw.shape[1]):
        dx = dw[:, j, 0]
        dy = dw[:, j, 1]
        z += ((x + dx / 2) * dy - (y + dy / 2) * dx) / 2
        x += dx
        y += dy
    return x, y, z


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, m", [(1, 600), (7, 33), (8192, 32), (3, 1), (1, 5000)])
def test_advance_matches_midpoint_rule(n, m):
    # (1, 5000) crosses many step blocks, (7, 33) ends on a partial one
    sigma = math.sqrt(2.0 / m)
    start = np.random.default_rng(m).standard_normal((3, n))
    rng, twin = _stream_generator(31, n), _stream_generator(31, n)
    x, y, z = start.copy()
    advance(rng, sigma, x, y, z, m)
    dw = twin.standard_normal((n, m, 2)) * sigma
    # the same one draw: both generators end in the same state
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
    for got, want in zip((x, y, z), _midpoint_steps(dw, *start)):
        assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.filterwarnings("error")
def test_simulate_stream_records_at_both_ends():
    # path k takes normals k (2h + 4) onwards: the odd head, zeta_odd,
    # the even head, zeta_even, then g1, g2; X reads the first h + 1,
    # and at 51 steps both tails hold several modes
    cfg = PathConfig(t=1.0, n_steps=51, seed=1)
    h, lam, a, b, base = _path_basis(51)
    assert h == 12 and base > 0.0
    rng, twin = _stream_generator(1, 0), _stream_generator(1, 0)
    x, y, z = _simulate_stream(rng, 10, cfg)
    g = twin.standard_normal((10, 2 * h + 4))
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
    sigma, root_n = math.sqrt(2.0 / 51), math.sqrt(51)
    sum_c = np.einsum("ij,j->i", g[:, h + 1 : 2 * h + 2], b)
    sc = np.einsum("ij,ij,j->i", g[:, : 2 * h + 2], g[:, : 2 * h + 2], lam) + base
    assert np.array_equal(x, sigma * np.einsum("ij,j->i", g[:, : h + 1], a))
    assert np.array_equal(y, sigma * root_n * g[:, 2 * h + 2])
    assert np.array_equal(z, 0.5 * sigma * sigma * (sum_c / root_n * g[:, -2] + np.sqrt(sc) * g[:, -1]))
    # one step from the origin is a straight segment: c_0 = x_1 - X = 0,
    # so no area yet, and h = 0 leaves 4 normals a path (PathConfig asks
    # for 10 steps; the stream reads t and n_steps only)
    one = SimpleNamespace(t=cfg.t / 51, n_steps=1)
    rng, twin = _stream_generator(1, 0), _stream_generator(1, 0)
    x1, y1, z1 = _simulate_stream(rng, 10, one)
    twin.standard_normal((10, 4))
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
    assert np.all(z1 == 0.0) and np.all(x1 != 0.0) and np.all(y1 != 0.0)


@pytest.mark.filterwarnings("error")
def test_stream_prefix_ignores_stream_length():
    # a stream is one draw of whole rows, each reduced along itself, so
    # its first m paths keep their bits whether it holds m paths or a
    # full stream's 8192
    cfg = PathConfig(t=1.0, n_steps=600, seed=3)
    full = _simulate_stream(_stream_generator(3, 0), mc._STREAM_PATHS, cfg)
    for m in (1, 7, 500):
        got = _simulate_stream(_stream_generator(3, 0), m, cfg)
        assert all(np.array_equal(a[:m], b) for a, b in zip(full, got)), m


def _sine_basis(n):
    """The orthonormal DST-II vectors sqrt(2/n) sin(pi m (j + 1/2) / n)
    as columns, odd m ascending, then even m ascending, with the m = n
    column scaled to sqrt(1/n); each angle is reduced mod 2 pi exactly
    on its integer numerator."""
    m = np.concatenate([np.arange(1, n + 1, 2), np.arange(2, n + 1, 2)])
    k = (m[None, :] * (2 * np.arange(n)[:, None] + 1)) % (4 * n)
    return np.sin(np.pi * k / (2 * n)) * np.where(m == n, math.sqrt(1.0 / n), math.sqrt(2.0 / n))


def _tails_exact(n, h):
    """Whether each parity keeps all but at most one of its modes."""
    return h >= (n + 1) // 2 - 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 7, 8, 600, 601])
def test_path_stats_match_sign_matrix(n):
    # brute force: dx = E eta in the sine basis, then c = S^T dx on the
    # n x n sign matrix, one row per path.  A row's zeta stands for the
    # tail coefficients u zeta, u = c_T / A with c_T the brute-force
    # weights of X (odd tail) or sum(c) (even tail), on which Sc is its
    # conditional mean less base; at 1, 2, 7 and 8 steps each tail is
    # one mode, so nothing is truncated.  Each error is measured on the
    # statistic's own scale, sum |dx| per unit of c
    h, lam, a, b, base = _path_basis(n)
    assert _tails_exact(n, h) == (n < 600) and (base == 0.0) == (n < 600)
    e = _sine_basis(n)
    assert np.max(np.abs(e.T @ e - np.eye(n))) <= 1e-13
    odd = (n + 1) // 2
    weights = (e.sum(axis=0)[:odd], (e.T @ sign_matrix(n).sum(axis=1))[odd:])
    rows = np.random.default_rng(n).standard_normal((64, 2 * h + 2))
    eta = np.empty((64, n))
    for cols, half, w in zip((slice(0, odd), slice(odd, n)), (rows[:, : h + 1], rows[:, h + 1 :]), weights):
        tail = w[h:] / np.linalg.norm(w[h:])
        eta[:, cols] = np.concatenate([half[:, :h], half[:, h:] * tail], axis=1)
    dx = eta @ e.T
    c = dx @ sign_matrix(n)
    sc = np.sum((c - c.mean(axis=1, keepdims=True)) ** 2, axis=1)
    want = (dx.sum(axis=1), c.sum(axis=1), sc + base)
    got = _path_stats(rows, n)
    scale = np.abs(dx).sum(axis=1)
    for g, w, unit in zip(got, want, (scale, n * scale, n * scale * scale)):
        assert np.max(np.abs(g - w) / unit) <= 1e-13
    assert np.all(got[2] >= 0.0)
    if n == 1:
        assert np.all(got[1] == 0.0) and np.all(got[2] == 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 7, 8, 10, 80, 600, 601, 1000])
def test_path_basis_moments(n):
    # with unit normals, Var X = sum a^2, and E[sum(c)^2/n + Sc] =
    # sum b^2/n + sum lambda + base, each zeta^2 having mean 1, so these
    # sums give Var X = n sigma^2 and E[z^2] = (sigma^4/4) n (n - 1) =
    # t^2 (1 - 1/n) with no sampling
    h, lam, a, b, base = _path_basis(n)
    assert lam.size == 2 * h + 2 and a.size == b.size == h + 1
    assert not (lam.flags.writeable or a.flags.writeable or b.flags.writeable)
    assert _path_basis(n) is _path_basis(n)
    assert abs(float(np.sum(a * a)) - n) <= 1e-14 * n
    assert abs(float(np.sum(lam) + base + np.sum(b * b) / n) - n * (n - 1)) <= 1e-14 * n * (n - 1)
    assert np.all(lam >= 0.0) and base >= 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 7, 10, 11, 80, 600, 1000])
def test_fourth_moment_shortfall(n):
    # E[|c|^4] = tr(G)^2 + 2 tr(G^2) for G = S S^T on the sign matrix;
    # the truncated law has (tr K + base)^2 + 2 tr(K^2), K = diag(lambda)
    # + beta beta^T / n on the row with beta = b on its even half.  Their
    # relative gap is the library's shortfall from tail sums alone, at
    # most 1e-6 at the smallest such h, and exactly 0 when no tail holds
    # two modes (at n = 1 both moments are 0)
    h, lam, a, b, base = _path_basis(n)
    modes = mc._parity_modes(n)
    got = mc._z4_shortfall(modes, h)
    g = sign_matrix(n) @ sign_matrix(n).T
    beta = np.concatenate([np.zeros(h + 1), b])
    k = np.diag(lam) + np.outer(beta, beta) / n
    exact = np.trace(g) ** 2 + 2.0 * np.sum(g * g)
    trunc = (np.trace(k) + base) ** 2 + 2.0 * np.sum(k * k)
    if _tails_exact(n, h):
        assert got == 0.0 and abs(trunc - exact) <= 1e-14 * exact
    else:
        assert 0.0 < got <= 1e-6 < mc._z4_shortfall(modes, h - 1)
        assert abs((1.0 - trunc / exact) - got) <= 1e-14
    assert h == 0 or mc._z4_shortfall(modes, h - 1) > 1e-6


def _cos_area_truncated(mu, t, n):
    """E[cos(mu z)] under the truncated n-step law at time t.

    Given the row v, z is centred Gaussian with variance
    (sigma^4/4) (v^T K v + base), K as in the shortfall test, so
    E[cos(mu z)] = exp(-s base) det(I + 2 s K)^(-1/2), s = mu^2 sigma^4/8,
    and the rank-one update gives the determinant
    prod(q) (1 + (2 s/n) sum beta^2/q), q = 1 + 2 s lambda.
    """
    h, lam, a, b, base = _path_basis(n)
    s = (mu * 2.0 * t / n) ** 2 / 8.0
    q = 1.0 + 2.0 * s * lam
    beta2 = np.concatenate([np.zeros(h + 1), b * b])
    logdet = float(np.sum(np.log(q))) + math.log1p(2.0 * s / n * float(np.sum(beta2 / q)))
    return math.exp(-s * base - 0.5 * logdet)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [10, 80, 600, 1000])
def test_truncated_cos_area_against_n_step_law(n):
    # truncation swaps Q_T for its conditional mean, and exp(-s Q) is
    # convex, so it can only lower E[cos(mu z)]: by at most 8.50e-7
    # (measured at n = 1000, mu = 2), and at n = 10, where the law is
    # exact, by rounding alone (1.1e-16 measured)
    for mu in (0.5, 1.0, 2.0):
        gap = cos_area_exact(mu, 1.0, n) - _cos_area_truncated(mu, 1.0, n)
        if n == 10:
            assert abs(gap) <= 1e-15, mu
        else:
            assert 0.0 < gap <= 1e-6, mu


def _stepwise_z(n_paths, cfg):
    state = np.zeros((3, n_paths))
    walk(_stream_generator(cfg.seed, 0), cfg, state, cfg.n_steps)
    return state[2]


@pytest.mark.parametrize(
    "route, n_steps, n_paths, seed",
    [("endpoint", 10, 400_000, 31), ("stepwise", 10, 400_000, 32),
     ("endpoint", 600, 200_000, 33), ("stepwise", 600, 100_000, 34)],
)
def test_cos_area_matches_n_step_law(route, n_steps, n_paths, seed):
    """E[cos(mu z)] of both routes within 4 SE of the exact n-step value.
    At 10 steps the exact value is far from the diffusion's 1/cosh(mu t)
    (0.67971 against 0.64805 at mu = 1), so the check sees the step count."""
    cfg = PathConfig(t=1.0, n_steps=n_steps, seed=seed)
    z = sample_paths(n_paths, cfg)[:, 2] if route == "endpoint" else _stepwise_z(n_paths, cfg)
    for mu in (0.5, 1.0, 2.0):
        cos = np.cos(mu * z)
        se = float(np.std(cos)) / math.sqrt(n_paths)
        exact = cos_area_exact(mu, cfg.t, n_steps)
        assert abs(float(np.mean(cos)) - exact) <= 4.0 * se, mu
        if n_steps == 10:
            assert abs(exact - 1.0 / math.cosh(mu * cfg.t)) > 20.0 * se, mu


def test_cos_area_exact_limits():
    # curvature at mu = 0 is E[z^2] = t^2 (1 - 1/n), and the n-step value
    # tends to 1/cosh(mu t) at rate 1/n
    t, h = 1.5, 1e-4
    for n in (1, 10, 600):
        curvature = 2.0 * (1.0 - cos_area_exact(h, t, n)) / (h * h)
        assert abs(curvature - t * t * (1.0 - 1.0 / n)) <= 1e-6
    gaps = [cos_area_exact(1.0, t, n) - 1.0 / math.cosh(t) for n in (100, 200, 400)]
    assert all(g > 0.0 for g in gaps)
    assert all(abs(a / b - 2.0) < 0.05 for a, b in zip(gaps, gaps[1:]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t",[0.0, math.inf, math.nan, -1.0])
def test_cell_masses_reject_bad_t(t):
    edges = np.linspace(0.0, 5.0, 3)
    with pytest.raises(ValueError, match="t must"):
        kernel_cell_masses(edges, edges - 2.5, t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "edges",
    [np.linspace(5.0, 0.0, 3), [0.0, 1.0, 1.0], [0.0, math.inf], [0.0, math.nan, 2.0], [1.0]],
)
def test_cell_masses_reject_bad_edges(edges):
    good = np.linspace(0.0, 5.0, 3)
    with pytest.raises(ValueError, match="r_edges"):
        kernel_cell_masses(edges, good - 2.5, 1.0)
    with pytest.raises(ValueError, match="z_edges"):
        kernel_cell_masses(good, edges, 1.0)


def test_increments_are_stationary():
    """inverse(X_s) . X_t has the law of X_{t-s} (the chain is a group
    random walk, so this holds at finite N too, with matching step
    counts).  Needs the mid-path state, which only the stepwise route
    forms, so the check is also one across routes: its increments
    against the endpoint sampler's fresh paths."""
    rng, state = _stream_generator(99, 0), np.zeros((3, 100_000))
    cfg = PathConfig(t=1.0, n_steps=500, seed=99)
    walk(rng, cfg, state, 200)
    xs, ys, zs = state.copy()
    walk(rng, cfg, state, 300)
    xt, yt, zt = state
    gx = xt - xs
    gy = yt - ys
    gz = zt - zs - 0.5 * (xs * yt - ys * xt)
    inc_r2 = gx * gx + gy * gy
    inc_z2 = gz * gz
    fresh = sample_batch(100_000, PathConfig(t=0.6, n_steps=300, seed=98))
    n = gx.size
    se_r2 = math.hypot(float(np.std(inc_r2)) / math.sqrt(n), fresh.se_r2)
    se_z2 = math.hypot(float(np.std(inc_z2)) / math.sqrt(n), fresh.se_z2)
    se_z = math.hypot(float(np.std(gz)) / math.sqrt(n), fresh.se_z)
    assert abs(float(np.mean(inc_r2)) - fresh.mean_r2) <= 3.0 * se_r2
    assert abs(float(np.mean(inc_z2)) - fresh.mean_z2) <= 3.0 * se_z2
    assert abs(float(np.mean(gz)) - fresh.mean_z) <= 3.0 * se_z


@pytest.mark.filterwarnings("error")
def test_config_stores_integral_step_count():
    cfg = PathConfig(t=1.0, n_steps=600.0, seed=1)
    assert type(cfg.n_steps) is int and cfg.n_steps == 600
    a = sample_batch(1000, cfg)
    b = sample_batch(1000, PathConfig(t=1.0, n_steps=600, seed=1))
    assert np.array_equal(a.hist, b.hist) and a.mean_z2 == b.mean_z2


@pytest.mark.filterwarnings("error")
def test_config_rejects_fractional_seed():
    with pytest.raises(ValueError, match="seed"):
        PathConfig(t=1.0, n_steps=10, seed=1.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_config_rejects_non_finite_t(t):
    with pytest.raises(ValueError, match="finite"):
        PathConfig(t=t, n_steps=10, seed=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1000.5, "1000", None])
def test_batch_and_paths_reject_non_integral_n(n):
    cfg = PathConfig(t=1.0, n_steps=10, seed=1)
    with pytest.raises(ValueError, match="integer"):
        sample_batch(n, cfg)
    with pytest.raises(ValueError, match="integer"):
        sample_paths(n, cfg)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_kolmogorov_rejects_non_finite_t(t):
    with pytest.raises(ValueError, match="finite"):
        sample_kolmogorov(t, 1, 1)


@pytest.mark.filterwarnings("error")
def test_kolmogorov_rejects_fractional_seed():
    with pytest.raises(ValueError, match="seed"):
        sample_kolmogorov(1.0, 1.5, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2.7, 0, -3])
def test_kolmogorov_rejects_bad_count(n):
    with pytest.raises(ValueError, match="n must"):
        sample_kolmogorov(1.0, 1, n=n)


def test_kolmogorov_covariance():
    # Var(int_0^t B) = int int min(u, v) du dv = t^3/3, Cov = t^2/2
    u, v = sample_kolmogorov(2.0, 11, n=1_000_000)
    se_v2 = float(np.std(v * v)) / 1000.0
    se_uv = float(np.std(u * v)) / 1000.0
    se_u2 = float(np.std(u * u)) / 1000.0
    assert abs(float(np.mean(v * v)) - 8.0 / 3.0) <= 3.0 * se_v2
    assert abs(float(np.mean(u * v)) - 2.0) <= 3.0 * se_uv
    assert abs(float(np.mean(u * u)) - 2.0) <= 3.0 * se_u2


def test_kolmogorov_scalar_draw():
    u, v = sample_kolmogorov(2.0, 11, n=1)
    uu, vv = sample_kolmogorov(2.0, 11, n=4)
    assert u.shape == v.shape == (1,)
    assert (u[0], v[0]) == (uu[0], vv[0])
    fu, fv = sample_kolmogorov(2.0, 11.0, n=4.0)
    assert np.array_equal(fu, uu) and np.array_equal(fv, vv)
    tiny_u, tiny_v = sample_kolmogorov(1e-10, 5, n=1)
    assert abs(tiny_u[0]) < 1e-3 and abs(tiny_v[0]) < 1e-12
    with pytest.raises(ValueError):
        sample_kolmogorov(0.0, 1, n=1)
