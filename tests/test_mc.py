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
All seeds are pinned, so every statistical deviation below is a fixed
number, checked once against its 3 SE budget with room to spare.
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from heisenkern.group import GroupElement
from heisenkern.mc import (
    BatchStats,
    PathConfig,
    chi2_against_kernel,
    kernel_cell_masses,
    sample_batch,
    sample_kolmogorov,
    _DRAWS_PER_CHUNK,
    _advance,
    _simulate_stream,
    _stream_generator,
)

from oracles import sample_heisenberg, sample_paths


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


def test_histogram_matches_kernel_masses():
    """Pearson chi-squared of sampled cell counts against the quadrature
    masses of the same 200 cells; the two routes share nothing but the
    group law.

    The statistic is also pinned bit for bit (196.54485..., p = 0.556,
    on SFC64 streams): the sample is fixed by the seed together with the
    stream and draw shapes, so a sampler change that moves the stream
    shows up here.
    The p-value is pinned too, and must equal scipy.stats' chi-squared
    survival function bit for bit.
    """
    s = sample_batch(200_000, PathConfig(t=1.0, n_steps=600, seed=4242))
    masses = kernel_cell_masses(s.r_edges, s.z_edges, s.t)
    assert 0.9 < masses.sum() < 1.0
    res = chi2_against_kernel(s)
    assert res.dof == res.n_categories - 1 == 200
    assert res.p_value > 0.01
    assert res.statistic == float.fromhex("0x1.8916f7194a470p+7")
    assert res.p_value == float.fromhex("0x1.1c94149e66e23p-1")
    assert res.p_value == float(chi2.sf(res.statistic, res.dof))


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
    _advance's blocked area sums."""
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
    _advance(rng, sigma, x, y, z, m)
    dw = twin.standard_normal((n, m, 2)) * sigma
    # the same one draw: both generators end in the same state
    np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)
    for got, want in zip((x, y, z), _midpoint_steps(dw, *start)):
        assert np.max(np.abs(got - want)) <= 1e-13


def _walk(rng, cfg, state, steps):
    """Push the (3, paths) ``state`` through ``steps`` steps of cfg's
    paths, drawn as _simulate_stream draws them; between calls the state
    is a mid-path state of the stream when each stop falls on a draw
    boundary."""
    sigma = math.sqrt(2.0 * (cfg.t / cfg.n_steps))
    chunk = max(1, _DRAWS_PER_CHUNK // (2 * state.shape[1]))
    for lo in range(0, steps, chunk):
        _advance(rng, sigma, *state, min(chunk, steps - lo))


@pytest.mark.filterwarnings("error")
def test_simulate_stream_records_at_both_ends():
    cfg = PathConfig(t=1.0, n_steps=50, seed=1)
    end = _simulate_stream(_stream_generator(1, 0), 10, cfg)
    last = np.zeros((3, 10))
    _walk(_stream_generator(1, 0), cfg, last, 50)
    assert all(np.array_equal(a, b) for a, b in zip(end, last))
    # one step from the origin is a straight segment: no area yet
    x1, y1, z1 = first = np.zeros((3, 10))
    _walk(_stream_generator(1, 0), cfg, first, 1)
    assert np.all(z1 == 0.0) and np.all(x1 != 0.0) and np.all(y1 != 0.0)


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
    counts).  Needs the mid-path state, hence the stream walked by hand;
    step 200 is a draw boundary of its 100,000-path stream."""
    rng, state = _stream_generator(99, 0), np.zeros((3, 100_000))
    cfg = PathConfig(t=1.0, n_steps=500, seed=99)
    _walk(rng, cfg, state, 200)
    xs, ys, zs = state.copy()
    _walk(rng, cfg, state, 300)
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
