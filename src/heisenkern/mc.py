"""Monte Carlo sampling of the horizontal diffusion and of a degenerate
Gaussian companion process, with batch statistics sized against the
kernel quadrature.

The diffusion generated by X^2 + Y^2 has planar coordinates that are
Brownian motions of variance 2t each (L(x^2) = 2, so quadratic
variation runs at rate 2, not the conventional 1), and the vertical
coordinate is the signed area swept by the planar path.  The sampled
law is that of n_steps exact Gaussian increments of variance
sigma^2 = 2t/n_steps, with the area accumulated by the midpoint rule

    z += (x_mid dy - y_mid dx) / 2,

whose weak bias on E[z^2] is exactly -t^2/n_steps (derivation in the
tests); the planar moments carry no discretization bias at all.  The
midpoint's cross terms cancel, (dx dy - dy dx)/4 = 0, so the midpoint
sum equals the left-point sum, and summing y_j dx_j by parts gives

    z = (1/2) sum_j c_j dy_j,   c_j = x_j + x_{j+1} - X,   X = x_n,

that is c = C dx with C_jk = sign(j - k).  Given the x-path, (Y, z)
is a centred 2-D Gaussian with Var Y = n sigma^2,
Cov(Y, z) = sigma^2 sum(c) / 2 and Var z = sigma^2 sum(c^2) / 4, which
two more normals g1, g2 realise exactly:

    Y = sigma sqrt(n) g1,   z = (sigma/2) (sum(c)/sqrt(n) g1 + sqrt(Sc) g2),

with Sc = sum((c - mean(c))^2).

The x-increments are drawn in a sine basis, not step by step.
Sc = dx^T M dx with M = C^T (I - J/n) C, and M is diagonal in the
orthonormal DST-II vectors e_m(j) = w_m sin(pi m (j + 1/2) / n),
m = 1 .. n, with w_m = sqrt(2/n) and w_n = sqrt(1/n): its eigenvalues
are lambda_m = cot^2(pi m / 2n), and lambda_n = 0, since e_n is the
alternating vector, whose c is constant.  With eta the path's
coefficients in that basis, dx = sigma E eta; E is orthogonal, so n
iid normals eta give dx the law of n iid increments, and

    X      = sigma sum a_m eta_m,  a_m = w_m / sin(pi m / 2n) on odd m,
    sum(c) = sigma sum b_m eta_m,  b_m = n w_m / sin(pi m / 2n) on even m,
    Sc     = sigma^2 sum lambda_m eta_m^2,

with a zero on even m and b zero on odd m: all n coefficients give
(x, y, z) the n-step law exactly, E[z^2] = t^2 (1 - 1/n) included.

A path draws only the leading h modes of each parity, its head.  The
rest of a parity, its tail T, enters through two numbers: its linear
statistic, one normal zeta with A zeta = sum_T c_m eta_m (c = a on odd
m, b on even m, A^2 = sum_T c^2), and its part Q_T = sum_T lambda eta^2
of Sc, replaced by the conditional mean given zeta,

    E[Q_T | zeta] = base + slope zeta^2,
    base = sum_T lambda (1 - u^2),  slope = sum_T lambda u^2,  u = c / A.

So X and sum(c), and with them (x, y), keep their law exactly, and so
does E[Sc], hence E[z^2] = t^2 (1 - 1/n); a tail of at most one mode
is its own zeta, so when both are, the whole n-step law is exact.  Only
E[z^4] = 3 (sigma^2/2)^4 E[|c|^4] falls short (|c|^2 = sum(c)^2/n + Sc,
c in units of sigma), by the share

    sum over the parities of E[Var(Q_T | zeta)] / E[|c|^4],
    E[Var(Q_T | zeta)] = 2 (sum_T lambda^2 - slope^2),
    E[|c|^4] = tr(K)^2 + 2 tr(K^2),  K = diag(lambda) + b b^T / n,

all O(n) sums over the weights.  h is the smallest head whose shortfall
is at most _Z4_SHORTFALL = 1e-6: h = 20 at n = 600 (44 normals a path
in place of 602), 15 at n = 80, and 4 at n = 10, where each tail is one
mode and the law exact.

Each stream seeds its own generator: stream i of a batch draws from
SFC64(SeedSequence((seed, i))), so per-stream output is independent
of how streams are scheduled and aggregation is a plain sum.  Within a
stream, path k takes normals k (2h + 4) onwards: the odd head
ascending, zeta_odd, the even head ascending, zeta_even, then g1 and
g2, so X and sum(c) each read one contiguous half of the first 2h + 2.
The sample is defined by the seed, the split of paths among streams
and that layout: a stream is one draw, so its first m paths are the
same whatever its length, and every reduction runs along one path's
row, so no BLAS call and no thread count touches the bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import p1_many
from .numerics import _chi2_sf, _integral, gauss_panels

__all__ = [
    "PathConfig",
    "BatchStats",
    "Chi2Result",
    "sample_batch",
    "sample_kolmogorov",
    "kernel_cell_masses",
    "chi2_against_kernel",
]

# paths per stream: part of the sample's definition, since it splits
# the paths among the seeded streams.
_STREAM_PATHS = 8192
# the largest relative shortfall of E[z^4] that a path's truncated sine
# series may have: it sets the head size h of each step count
_Z4_SHORTFALL = 1e-6


@dataclass(frozen=True)
class PathConfig:
    """Time horizon, step count, and master seed for one simulation."""

    t: float
    n_steps: int
    seed: int

    def __post_init__(self):
        _check_t(self.t)
        object.__setattr__(self, "n_steps", _integral(self.n_steps, "n_steps", 10))
        object.__setattr__(self, "seed", _check_seed(self.seed))


def _check_t(t: float) -> None:
    if not (0.0 < t < math.inf):
        raise ValueError("t must be finite and > 0")


def _check_seed(seed) -> int:
    seed = _integral(seed, "seed", 0)
    if seed >= 2 ** 64:
        raise ValueError("seed must fit in 64 unsigned bits")
    return seed


def _stream_generator(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((int(seed), int(stream)))))


def _parity_modes(n: int):
    """(lambda, c) of the n-step sine modes, odd m then even m, each
    ascending in m, with c = a on odd m and c = b on even m."""
    m = np.arange(1, n + 1)
    angle = (0.5 * np.pi / n) * m
    sin = np.sin(angle)
    w = np.where(m == n, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    lam = (np.cos(angle) / sin) ** 2
    lam[-1] = 0.0
    c = np.where(m % 2 == 1, 1.0, float(n)) * w / sin
    return (lam[0::2], c[0::2]), (lam[1::2], c[1::2])


def _tail(lam, c):
    """(A, base, slope, E[Var(Q_T | zeta)]) of one parity's tail modes;
    all zero for an empty tail, and (c, 0, lambda, 0) for one mode."""
    c2 = c * c
    a2 = float(np.sum(c2))
    u2 = c2 / a2
    slope = float(np.sum(lam * u2))
    lost = 2.0 * (float(np.sum(lam * lam)) - slope * slope)
    return math.sqrt(a2), float(np.sum(lam * (1.0 - u2))), slope, lost


def _z4_shortfall(modes, h: int) -> float:
    """Relative shortfall of E[z^4] when each parity of ``modes``
    (from :func:`_parity_modes`) keeps its first h modes; exactly 0 when
    each tail has at most one mode (so at n = 1, where z = 0)."""
    (lo, co), (le, ce) = modes
    lost = _tail(lo[h:], co[h:])[3] + _tail(le[h:], ce[h:])[3]
    if lost == 0.0:
        return 0.0
    b2n = ce * ce / (lo.size + le.size)
    tr = float(np.sum(lo) + np.sum(le) + np.sum(b2n))
    tr2 = float(np.sum(lo * lo) + np.sum(le * le) + 2.0 * np.sum(le * b2n) + np.sum(b2n) ** 2)
    return lost / (tr * tr + 2.0 * tr2)


@functools.cache
def _path_basis(n: int):
    """(h, lambda, a, b, base) of the n-step row: the head size h, and
    read-only weights over a row's first 2h + 2 normals, (odd head,
    zeta_odd, even head, zeta_even): lambda over all of them (slope on
    each zeta), a over the odd half and b over the even half (A on each
    zeta); base is both tails' constant part of Sc.
    """
    modes = _parity_modes(n)
    h = next(h for h in range((n + 1) // 2) if _z4_shortfall(modes, h) <= _Z4_SHORTFALL)
    (lo, co), (le, ce) = modes
    a_odd, base_odd, slope_odd, _ = _tail(lo[h:], co[h:])
    a_even, base_even, slope_even, _ = _tail(le[h:], ce[h:])
    lam = np.concatenate([lo[:h], [slope_odd], le[:h], [slope_even]])
    a = np.append(co[:h], a_odd)
    b = np.append(ce[:h], a_even)
    for arr in (lam, a, b):
        arr.flags.writeable = False
    return h, lam, a, b, base_odd + base_even


def _path_stats(rows, n: int):
    """Per-path (X, sum(c), Sc) in units of sigma, sigma and sigma^2,
    for rows (odd head, zeta_odd, even head, zeta_even) of the n-step
    basis; Sc is its conditional mean given the row."""
    h, lam, a, b, base = _path_basis(n)
    return (
        np.einsum("ij,j->i", rows[:, : h + 1], a),
        np.einsum("ij,j->i", rows[:, h + 1 :], b),
        np.einsum("ij,ij,j->i", rows, rows, lam) + base,
    )


def _simulate_stream(rng, n_paths: int, cfg: PathConfig):
    """Endpoints (x, y, z) of n_paths paths from one draw of 2h + 4
    normals a path."""
    n = cfg.n_steps
    sigma = math.sqrt(2.0 * (cfg.t / n))
    draw = rng.standard_normal((n_paths, 2 * _path_basis(n)[0] + 4))
    x, sum_c, sc = _path_stats(draw[:, :-2], n)
    g1, g2 = draw[:, -2:].T
    root_n = math.sqrt(n)
    y = (sigma * root_n) * g1
    z = (0.5 * sigma * sigma) * (sum_c / root_n * g1 + np.sqrt(sc) * g2)
    return sigma * x, y, z


def _stream_plan(n: int):
    size = min(_STREAM_PATHS, max(1, n // 10))
    sizes = [size] * (n // size)
    if n % size:
        sizes.append(n % size)
    return sizes


@dataclass(frozen=True)
class BatchStats:
    """Aggregate moments and an (r, z) histogram for a sample batch.

    Standard errors come from batch means over the streams, which for
    independent paths estimates the plain sigma/sqrt(n).
    """

    n: int
    t: float
    n_streams: int
    mean_x: float
    mean_z: float
    mean_r2: float
    mean_z2: float
    se_x: float
    se_z: float
    se_r2: float
    se_z2: float
    hist: np.ndarray
    r_edges: np.ndarray
    z_edges: np.ndarray


def _batch_se(stream_means, stream_sizes, overall, n):
    b = len(stream_means)
    if b < 2:
        return float("nan")
    s = sum(size * (m - overall) ** 2 for m, size in zip(stream_means, stream_sizes))
    return math.sqrt(s / (b - 1) / n)


def sample_batch(n: int, cfg: PathConfig) -> BatchStats:
    """Moment estimates with batch-means errors plus cell counts.

    Bins: 20 radial cells over r <= 5 sqrt(t) by 10 vertical cells over
    |z| <= 2t, the 200-cell grid the kernel cross-check uses.
    """
    n = _integral(n, "n", 1000)
    r_edges = np.linspace(0.0, 5.0, 21) * math.sqrt(cfg.t)
    z_edges = np.linspace(-2.0, 2.0, 11) * cfg.t

    sizes = _stream_plan(n)
    hist = np.zeros((r_edges.size - 1, z_edges.size - 1))
    means = {key: [] for key in ("x", "z", "r2", "z2")}
    for i, size in enumerate(sizes):
        x, y, z = _simulate_stream(_stream_generator(cfg.seed, i), size, cfg)
        r2 = x * x + y * y
        means["x"].append(float(np.mean(x)))
        means["z"].append(float(np.mean(z)))
        means["r2"].append(float(np.mean(r2)))
        means["z2"].append(float(np.mean(z * z)))
        hist += np.histogram2d(np.sqrt(r2), z, bins=(r_edges, z_edges))[0]

    overall = {
        key: sum(m * s for m, s in zip(vals, sizes)) / n for key, vals in means.items()
    }
    se = {key: _batch_se(vals, sizes, overall[key], n) for key, vals in means.items()}
    return BatchStats(
        n=n,
        t=cfg.t,
        n_streams=len(sizes),
        mean_x=overall["x"],
        mean_z=overall["z"],
        mean_r2=overall["r2"],
        mean_z2=overall["z2"],
        se_x=se["x"],
        se_z=se["z"],
        se_r2=se["r2"],
        se_z2=se["z2"],
        hist=hist,
        r_edges=r_edges,
        z_edges=z_edges,
    )


def sample_kolmogorov(t: float, seed: int, n: int):
    """n exact draws of (B_t, int_0^t B_s ds) for a standard Brownian B.

    The pair is centered Gaussian with covariance
    [[t, t^2/2], [t^2/2, t^3/3]], realized from two standard normals by
    the lower Cholesky factor [[sqrt(t), 0],
    [t^{3/2}/2, t^{3/2}/(2 sqrt(3))]].  Returns two arrays of length n
    from a single counter-based stream.
    """
    _check_t(t)
    seed = _check_seed(seed)
    n = _integral(n, "n", 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed,))))
    # pair-major draws, so the n-draw arrays extend the shorter ones
    g = rng.standard_normal((n, 2)).T
    u = math.sqrt(t) * g[0]
    v = 0.5 * t ** 1.5 * (g[0] + g[1] / math.sqrt(3.0))
    return u, v


def _check_edges(edges, name: str) -> np.ndarray:
    edges = np.asarray(edges, float)
    if edges.ndim != 1 or edges.size < 2 or not (
        np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0.0)
    ):
        raise ValueError(f"{name} must be finite and strictly increasing")
    return edges


def kernel_cell_masses(r_edges, z_edges, t: float = 1.0) -> np.ndarray:
    """Heat-kernel mass of each solid cell {r in dr, z in dz} at time t.

    8 x 8-point Gauss rule per cell on the density 2 pi r p_t(r, z); this
    is the quadrature side of the histogram cross-check.  Edges must be
    finite and strictly increasing.
    """
    _check_t(t)
    n_nodes = 8
    r_edges = _check_edges(r_edges, "r_edges")
    z_edges = _check_edges(z_edges, "z_edges")
    rn, rw = gauss_panels(r_edges, n_nodes)
    zn, zw = gauss_panels(z_edges, n_nodes)
    st = math.sqrt(t)
    dens = p1_many(rn[:, None] / st, zn[None, :] / t) / (t * t)
    integrand = 2.0 * math.pi * rn[:, None] * dens
    cellwise = (rw[:, None] * zw[None, :]) * integrand
    nr = r_edges.size - 1
    nz = z_edges.size - 1
    return cellwise.reshape(nr, n_nodes, nz, n_nodes).sum(axis=(1, 3))


@dataclass(frozen=True)
class Chi2Result:
    statistic: float
    dof: int
    p_value: float
    n_categories: int


def chi2_against_kernel(stats: BatchStats) -> Chi2Result:
    """Pearson chi-squared of the batch histogram against kernel masses.

    Cells whose expected count falls below 5 are merged with the
    out-of-grid remainder into one category, keeping the asymptotic
    chi-squared distribution honest.  The p-value is the chi-squared
    survival function at the integer dof, ``numerics._chi2_sf``, a finite
    sum in the standard library's floats.
    """
    masses = kernel_cell_masses(stats.r_edges, stats.z_edges, stats.t)
    expected = stats.n * masses
    observed = stats.hist
    keep = expected >= 5.0
    rest_exp = stats.n * max(0.0, 1.0 - float(masses.sum())) + float(expected[~keep].sum())
    rest_obs = stats.n - float(observed.sum()) + float(observed[~keep].sum())
    stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    ncat = int(keep.sum())
    if rest_exp > 0.0:
        stat += (rest_obs - rest_exp) ** 2 / rest_exp
        ncat += 1
    dof = ncat - 1
    return Chi2Result(stat, dof, _chi2_sf(stat, dof), ncat)
