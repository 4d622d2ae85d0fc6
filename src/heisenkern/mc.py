"""Monte Carlo sampling of the horizontal diffusion and of a degenerate
Gaussian companion process, with batch statistics sized against the
kernel quadrature.

The diffusion generated by X^2 + Y^2 has planar coordinates that are
Brownian motions of variance 2t each (L(x^2) = 2, so quadratic
variation runs at rate 2, not the conventional 1), and the vertical
coordinate is the signed area swept by the planar path.  Paths use
exact Gaussian increments and accumulate the area by the midpoint rule

    z += (x_mid dy - y_mid dx) / 2

whose weak bias on E[z^2] is exactly -t^2/n_steps (derivation in the
tests); the planar moments carry no discretization bias at all.  The
midpoint's cross terms cancel, (dx dy - dy dx)/4 = 0, so the midpoint
sum equals the left-point sum, and over a run of steps (dx_j, dy_j)
from (x, y) it is

    z += (x sum(dy) - y sum(dx) + dx^T S dy) / 2,   S_jk = sign(k - j),

which the sampler evaluates as one small matrix product per block of
steps.

Each stream seeds its own generator: stream i of a batch draws from
SFC64(SeedSequence((seed, i))), so per-stream output is independent
of how streams are scheduled and aggregation is a plain sum.  The
sample is defined by the seed, the split of paths among streams and
the (paths, steps, 2) shape of each draw; the width of the area's step
blocks only regroups sums, so it moves endpoints by rounding alone.
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

# paths per stream and normal draws per chunk.  Both are part of the
# sample's definition, not only of its loops: the first splits the paths
# among the seeded streams, and the second fixes the (paths, steps, 2)
# shape of each draw, which decides which normal goes to which path and
# step.  Changing either changes the sample for the same seed.
_STREAM_PATHS = 8192
_DRAWS_PER_CHUNK = 1 << 19
# steps per area block, the width of the sign matrix _advance builds; it
# keeps the area work linear in the steps of a draw.  Not part of the
# sample: it only regroups the area sums.
_AREA_BLOCK = 32


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


def _advance(rng, sigma, x, y, z, m):
    """Push (x, y, z) through m steps, in place.

    One (paths, m, 2) draw of increments, then per block of at most
    _AREA_BLOCK steps the area identity of the module docstring,
    midpoint sum = left-point sum = (x sum(dy) - y sum(dx) + dx^T S dy)/2,
    with dx^T S dy one product against the antisymmetric sign matrix.
    """
    dw = rng.standard_normal((x.size, m, 2))
    dw *= sigma
    b = min(m, _AREA_BLOCK)
    k = np.arange(b, dtype=float)
    sign = np.sign(k[None, :] - k[:, None])
    ones = np.ones(b)
    for lo in range(0, m, b):
        dx, dy = np.ascontiguousarray(dw[:, lo : lo + b].transpose(2, 0, 1))
        w = dx.shape[1]
        sx = dx @ ones[:w]
        sy = dy @ ones[:w]
        z += 0.5 * (x * sy - y * sx + np.einsum("ij,ij->i", dx @ sign[:w, :w], dy))
        x += sx
        y += sy


def _simulate_stream(rng, n_paths: int, cfg: PathConfig):
    """Endpoints (x, y, z) of n_paths paths, in draws of at most
    _DRAWS_PER_CHUNK normals."""
    dt = cfg.t / cfg.n_steps
    sigma = math.sqrt(2.0 * dt)
    x = np.zeros(n_paths)
    y = np.zeros(n_paths)
    z = np.zeros(n_paths)
    chunk = max(1, _DRAWS_PER_CHUNK // (2 * n_paths))
    for step in range(0, cfg.n_steps, chunk):
        _advance(rng, sigma, x, y, z, min(chunk, cfg.n_steps - step))
    return x, y, z


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
