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

that is c = S^T dx with S_jk = sign(k - j).  Given the x-path, (Y, z)
is therefore a centred 2-D Gaussian with Var Y = n sigma^2,
Cov(Y, z) = sigma^2 sum(c) / 2 and Var z = sigma^2 sum(c^2) / 4.  The
sampler draws only the x-increments, then (Y, z) from two more
normals g1, g2:

    Y = sigma sqrt(n) g1,   z = (sigma/2) (sum(c)/sqrt(n) g1 + sqrt(Sc) g2),

with Sc = sum((c - mean(c))^2), so a path costs n_steps + 2 normals
instead of 2 n_steps, and (x, y, z) keeps the n-step law exactly.

Each stream seeds its own generator: stream i of a batch draws from
SFC64(SeedSequence((seed, i))), so per-stream output is independent
of how streams are scheduled and aggregation is a plain sum.  Within a
stream, path k takes normals k (n_steps + 2) onwards, increments first,
then g1 and g2.  The sample is defined by the seed, the split of paths
among streams and that layout; how many paths share a draw buffer does
not enter it, and every reduction runs along one path's row, so no BLAS
call and no thread count touches the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import p1_many

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


def _integral(value, name: str, low: int) -> int:
    """``value`` as an int >= low; an integral float counts, anything else raises."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value or as_int < low:
        raise ValueError(f"{name} must be an integer >= {low}")
    return as_int


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


def _path_stats(dx, work):
    """Per-path (X, sum(c), Sc) for the rows of x-increments dx.

    c_j = x_j + x_{j+1} - X with x_0 = 0 and X = x_n, and
    Sc = sum((c - mean(c))^2), a centred sum, so it cannot go negative.
    c - mean(c) does not depend on X, and sum(c) = n (mean(m) - X) with
    m_j = x_j + x_{j+1}.  dx is overwritten with the path; work is
    scratch of dx's shape.
    """
    n = dx.shape[1]
    x = np.cumsum(dx, axis=1, out=dx)
    work[:, 0] = x[:, 0]
    np.add(x[:, 1:], x[:, :-1], out=work[:, 1:])
    mean = work.sum(axis=1) / n
    work -= mean[:, None]
    end = x[:, -1].copy()
    return end, n * (mean - end), np.einsum("ij,ij->i", work, work)


def _simulate_stream(rng, n_paths: int, cfg: PathConfig):
    """Endpoints (x, y, z) of n_paths paths, drawn whole, in order, into
    one buffer of at most _DRAWS_PER_CHUNK normals (or one path's)."""
    n = cfg.n_steps
    sigma = math.sqrt(2.0 * (cfg.t / n))
    rows = max(1, min(n_paths, _DRAWS_PER_CHUNK // (n + 2)))
    buf = np.empty((rows, n + 2))
    work = np.empty((rows, n))
    x, sum_c, sc = np.empty((3, n_paths))
    g = np.empty((n_paths, 2))
    for lo in range(0, n_paths, rows):
        hi = min(n_paths, lo + rows)
        draw = rng.standard_normal(out=buf[: hi - lo])
        # unit increments: c and Sc come out in units of sigma and sigma^2
        x[lo:hi], sum_c[lo:hi], sc[lo:hi] = _path_stats(draw[:, :n], work[: hi - lo])
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
    xg, wg = np.polynomial.legendre.leggauss(n_nodes)

    def per_cell(edges):
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        nodes = mid[:, None] + half[:, None] * xg[None, :]
        weights = half[:, None] * wg[None, :]
        return nodes.ravel(), weights.ravel()

    rn, rw = per_cell(r_edges)
    zn, zw = per_cell(z_edges)
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
