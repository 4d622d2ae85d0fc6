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

with Sc = sum((c - mean(c))^2), so a path costs n_steps + 2 normals.

The x-increments are drawn in a sine basis, not step by step.
Sc = dx^T M dx with M = C^T (I - J/n) C, and M is diagonal in the
orthonormal DST-II vectors e_m(j) = w_m sin(pi m (j + 1/2) / n),
m = 1 .. n, with w_m = sqrt(2/n) and w_n = sqrt(1/n): its eigenvalues
are lambda_m = cot^2(pi m / 2n), and lambda_n = 0, since e_n is the
alternating vector, whose c is constant.  A path's first n normals
are its coefficients eta in that basis, dx = sigma E eta; E is
orthogonal, so dx has the law of n iid increments, and

    X      = sigma sum a_m eta_m,  a_m = w_m / sin(pi m / 2n) on odd m,
    sum(c) = sigma sum b_m eta_m,  b_m = n w_m / sin(pi m / 2n) on even m,
    Sc     = sigma^2 sum lambda_m eta_m^2,

with a zero on even m and b zero on odd m: three dot products per path
against fixed weights, and Sc a sum of non-negative terms.  So
(x, y, z) keeps the n-step law exactly, E[z^2] = t^2 (1 - 1/n)
included.

Each stream seeds its own generator: stream i of a batch draws from
SFC64(SeedSequence((seed, i))), so per-stream output is independent
of how streams are scheduled and aggregation is a plain sum.  Within a
stream, path k takes normals k (n_steps + 2) onwards: the coefficients
of the odd modes in ascending order, then those of the even modes,
then g1 and g2, so X and sum(c) each read one contiguous half of the
row.  The sample is defined by the seed, the split of paths among
streams and that layout; how many paths share a draw buffer does not
enter it, and every reduction runs along one path's row, so no BLAS
call and no thread count touches the bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import p1_many
from .numerics import _integral, gauss_panels

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
# normals per draw buffer, reused for a stream's whole run of draws.
# Not part of the sample: paths are drawn whole and in order.
_DRAWS_PER_CHUNK = 1 << 19


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


@functools.cache
def _path_basis(n: int):
    """Read-only weights (lambda, a, b) of the n-step sine basis.

    The modes run in the row's order, odd m ascending, then even m
    ascending: lambda covers all n of them, a the odd ones and b the
    even ones.
    """
    m = np.concatenate([np.arange(1, n + 1, 2), np.arange(2, n + 1, 2)])
    angle = (0.5 * np.pi / n) * m
    sin = np.sin(angle)
    w = np.where(m == n, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
    lam = (np.cos(angle) / sin) ** 2
    lam[m == n] = 0.0
    odd = (n + 1) // 2
    a = w[:odd] / sin[:odd]
    b = n * w[odd:] / sin[odd:]
    for arr in (lam, a, b):
        arr.flags.writeable = False
    return lam, a, b


def _path_stats(eta):
    """Per-path (X, sum(c), Sc) in units of sigma, sigma and sigma^2, for
    rows eta of sine coefficients in parity-major order."""
    lam, a, b = _path_basis(eta.shape[1])
    odd = a.size
    return (
        np.einsum("ij,j->i", eta[:, :odd], a),
        np.einsum("ij,j->i", eta[:, odd:], b),
        np.einsum("ij,ij,j->i", eta, eta, lam),
    )


def _simulate_stream(rng, n_paths: int, cfg: PathConfig):
    """Endpoints (x, y, z) of n_paths paths, drawn whole, in order, into
    one buffer of at most _DRAWS_PER_CHUNK normals (or one path's)."""
    n = cfg.n_steps
    sigma = math.sqrt(2.0 * (cfg.t / n))
    rows = max(1, min(n_paths, _DRAWS_PER_CHUNK // (n + 2)))
    buf = np.empty((rows, n + 2))
    x, sum_c, sc = np.empty((3, n_paths))
    g = np.empty((n_paths, 2))
    for lo in range(0, n_paths, rows):
        hi = min(n_paths, lo + rows)
        draw = rng.standard_normal(out=buf[: hi - lo])
        x[lo:hi], sum_c[lo:hi], sc[lo:hi] = _path_stats(draw[:, :n])
        g[lo:hi] = draw[:, n:]
    g1, g2 = g.T
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
    survival function, scipy.special.chdtrc.
    """
    from scipy.special import chdtrc

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
    return Chi2Result(stat, dof, float(chdtrc(dof, stat)), ncat)
