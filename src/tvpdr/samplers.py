"""Random draws used by the Gibbs sampler.

Three primitives: univariate truncated normals (vectorized), Gaussian draws
parameterized by a banded precision matrix, and a coordinate-wise Gibbs pass
for box-truncated Gaussians with banded precision. All randomness flows
through ``RngHandle`` so that (seed, stream, call sequence) pins every draw
bit for bit, including across parallel backtest origins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .banded import BandedMatrix, cholesky_banded, solve_banded

__all__ = [
    "RngHandle",
    "as_generator",
    "sample_truncated_normal",
    "sample_gaussian_precision",
    "sample_truncated_mvn",
]

# Beyond this many sds from the mean, inversion loses accuracy and we switch
# to rejection sampling.
_TAIL = 4.0


@dataclass
class RngHandle:
    """Named, reproducible random stream.

    Streams with the same seed and different stream ids are statistically
    independent (Philox keyed off a SeedSequence spawn key), which is what
    lets backtest origins run in any order, or in parallel, without changing
    the numbers.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= int(self.stream) < 2**64:
            raise ValueError("stream must be a 64-bit unsigned integer")

    @property
    def rng(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(int(self.seed), spawn_key=(int(self.stream),))
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen


def as_generator(rng) -> np.random.Generator:
    """Accept an RngHandle or a bare numpy Generator."""
    if isinstance(rng, RngHandle):
        return rng.rng
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngHandle or numpy Generator, got {type(rng)!r}")


def _tail_reject(a: np.ndarray, b: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Standardized draws on [a, b) with a >= _TAIL (b possibly inf).

    Robert's one-sided exponential proposal when the interval is wide,
    uniform proposal with exp((a^2 - x^2)/2) acceptance when it is narrow;
    the narrow branch keeps the acceptance rate bounded away from zero when
    b - a is tiny deep in the tail.
    """
    out = np.empty_like(a)
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    wide = (b - a) >= 1.0 / a
    pending = np.ones(a.shape, dtype=bool)
    while pending.any():
        idx = np.nonzero(pending)[0]
        aa, bb, ll = a[idx], b[idx], lam[idx]
        w = wide[idx]
        u1 = 1.0 - gen.random(idx.size)  # in (0, 1], keeps log finite
        u2 = gen.random(idx.size)
        x = np.where(w, aa - np.log(u1) / ll, aa + u1 * np.where(np.isfinite(bb), bb - aa, 0.0))
        logacc = np.where(w, -0.5 * (x - ll) ** 2, 0.5 * (aa * aa - x * x))
        ok = np.log(np.maximum(u2, 1e-300)) <= logacc
        ok &= x < bb
        good = idx[ok]
        out[good] = x[ok]
        pending[good] = False
    return out


def _truncated_std_normal(a: np.ndarray, b: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Standardized truncated normal on (a, b); a < b, either side may be inf."""
    z = np.empty_like(a)

    right = a >= _TAIL
    left = b <= -_TAIL
    mid = ~(right | left)

    if mid.any():
        am, bm = a[mid], b[mid]
        u = gen.random(am.shape)
        zm = np.empty_like(am)
        hi = am >= 0.0
        if hi.any():
            # both bounds right of center: work on the survival scale
            pa = ndtr(-am[hi])
            pb = ndtr(-bm[hi])
            zm[hi] = -ndtri(pb + u[hi] * (pa - pb))
        lo = ~hi
        if lo.any():
            fa = ndtr(am[lo])
            fb = ndtr(bm[lo])
            zm[lo] = ndtri(fa + u[lo] * (fb - fa))
        z[mid] = zm
    if right.any():
        z[right] = _tail_reject(a[right], b[right], gen)
    if left.any():
        z[left] = -_tail_reject(-b[left], -a[left], gen)
    return z


def sample_truncated_normal(mean, sd, lower, upper, rng):
    """Draw from N(mean, sd^2) truncated to (lower, upper).

    Scalars broadcast against arrays; the output has the broadcast shape
    (a float for all-scalar input). Draws are strictly inside the interval.
    Inversion via ndtr/ndtri handles intervals that touch the central
    +-4 sd region; intervals entirely beyond that use rejection sampling
    (exponential proposal, uniform proposal for narrow slivers).
    """
    gen = as_generator(rng)
    mean = np.asarray(mean, dtype=np.float64)
    sd = np.asarray(sd, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)

    if not np.all(np.isfinite(mean)):
        raise ValueError("truncated normal mean must be finite")
    if not np.all(np.isfinite(sd) & (sd > 0.0)):
        raise ValueError("truncated normal sd must be finite and positive")
    if not np.all(lower < upper):
        raise ValueError("empty truncation interval: lower must be < upper")

    scalar = mean.ndim == sd.ndim == lower.ndim == upper.ndim == 0
    shape = np.broadcast_shapes(mean.shape, sd.shape, lower.shape, upper.shape)
    mean, sd, lower, upper = (np.broadcast_to(v, shape).ravel() for v in (mean, sd, lower, upper))
    z = _truncated_std_normal((lower - mean) / sd, (upper - mean) / sd, gen)

    # Rounding can land a draw exactly on a bound; push it one ulp inside so
    # the strict-containment contract holds everywhere downstream.
    draw = np.minimum(np.maximum(mean + sd * z, np.nextafter(lower, np.inf)),
                      np.nextafter(upper, -np.inf))
    draw = draw.reshape(shape)
    return float(draw) if scalar else draw


def sample_gaussian_precision(precision: BandedMatrix, b: np.ndarray, rng) -> np.ndarray:
    """One draw from N(K^{-1} b, K^{-1}) for banded SPD K.

    Factorizes K = L L' once and folds mean and noise into two triangular
    solves with iid normals z: x = L'^{-1}(L^{-1} b + z), which is the mean
    K^{-1} b plus the noise L'^{-1} z. On a block-diagonal stack of paths
    this is one independent draw per path.
    """
    gen = as_generator(rng)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (precision.dim,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({precision.dim},)")
    factor = cholesky_banded(precision)
    z = gen.standard_normal(precision.dim)
    return solve_banded(factor, solve_banded(factor, b, mode="forward") + z, mode="backward")


def sample_truncated_mvn(
    precision: BandedMatrix,
    mean: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    init: np.ndarray,
    sweeps: int,
    rng,
) -> np.ndarray:
    """Coordinate-wise Gibbs for a box-truncated Gaussian with banded precision.

    Runs ``sweeps`` full passes and returns the final state. Coordinates are
    updated in color groups (index mod bandwidth+1): same-color coordinates
    are conditionally independent given the rest, so each group updates as
    one vectorized truncated-normal draw. Every full conditional is the exact
    univariate truncated normal, so this is a valid Gibbs kernel for the
    truncated target; one call advances the chain, it does not produce an
    independent draw.
    """
    gen = as_generator(rng)
    n = precision.dim
    mean = np.asarray(mean, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    x = np.array(init, dtype=np.float64, copy=True)
    for name, arr in (("mean", mean), ("lower", lower), ("upper", upper), ("init", x)):
        if arr.shape != (n,):
            raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    if np.any(lower >= upper):
        bad = int(np.argmax(lower >= upper))
        raise ValueError(f"empty truncation box at coordinate {bad}")
    if np.any(x < lower) or np.any(x > upper):
        raise ValueError("init point lies outside the truncation box")
    if sweeps < 1:
        raise ValueError("sweeps must be a positive integer")

    diag = precision.diagonals[0]
    if np.any(diag <= 0.0):
        raise ValueError("precision diagonal must be positive")
    sd = 1.0 / np.sqrt(diag)
    ncolors = precision.bandwidth + 1
    colors = [np.arange(c, n, ncolors) for c in range(ncolors)]

    for _ in range(sweeps):
        for idx in colors:
            # v_i = sum_j K_ij (x_j - mean_j); conditional mean is then
            # m_i = x_i - v_i / K_ii, and same-color coords don't interact.
            v = precision.matvec(x - mean)
            m = x[idx] - v[idx] / diag[idx]
            x[idx] = sample_truncated_normal(m, sd[idx], lower[idx], upper[idx], gen)
    return x
