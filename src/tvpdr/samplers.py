"""Random draws used by the Gibbs sampler.

Three primitives: univariate truncated normals (vectorized), Gaussian draws
parameterized by a banded precision matrix, and a coordinate-wise Gibbs pass
for box-truncated Gaussians with banded precision. Truncated normals are
drawn by inversion, each interval mirrored onto the lower tail where
ndtr/ndtri keep full relative accuracy out to 30 sd, and by rejection
beyond that. All randomness flows through ``RngHandle`` so that (seed,
stream, call sequence) pins every draw bit for bit, including across
parallel backtest origins.

Inputs are validated once, at the public entry points. The inner loops of
the Gibbs sampler then draw every truncated normal through the one
unchecked private core, ``_draw``.
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

# Inversion on the mirrored (lower-tail) scale keeps full relative accuracy
# out to this many sds: ndtr(-30) ~ 5e-198 is still a normal double.
# Intervals lying entirely beyond it are drawn by rejection.
_TAIL = 30.0


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
    """Standardized truncated normal on (a, b); a < b, either side may be inf.

    Intervals with a >= 0 are mirrored to (-b, -a), so every interval starts
    left of center and one inversion pass on the lower tail, where ndtr and
    ndtri keep full relative accuracy, serves them all. Intervals lying
    entirely beyond _TAIL sds are drawn by rejection instead.
    """
    flip = a >= 0.0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    tail = hi <= -_TAIL
    fa = ndtr(lo)
    z = ndtri(fa + gen.random(a.shape) * (ndtr(hi) - fa))  # tail slots are redrawn below
    if tail.any():
        z[tail] = -_tail_reject(-hi[tail], -lo[tail], gen)
    return np.where(flip, -z, z)


def _draw(mean, sd, lower, upper, lower_in, upper_in, gen):
    """N(mean, sd^2) on (lower, upper), unchecked.

    Callers have checked that mean is finite, sd finite and positive and
    lower < upper. ``lower_in``/``upper_in`` are the bounds moved one ulp
    inside: rounding can land a draw exactly on a bound, and clamping to
    them keeps draws strictly inside everywhere downstream.
    """
    a, b = (lower - mean) / sd, (upper - mean) / sd
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    z = _truncated_std_normal(a.ravel(), b.ravel(), gen).reshape(a.shape)
    return np.minimum(np.maximum(mean + sd * z, lower_in), upper_in)


def sample_truncated_normal(mean, sd, lower, upper, rng):
    """Draw from N(mean, sd^2) truncated to (lower, upper).

    Scalars broadcast against arrays; the output has the broadcast shape
    (a float for all-scalar input). Draws are strictly inside the interval.
    Every interval is mirrored to start left of center and drawn in one
    ndtr/ndtri inversion pass, accurate out to 30 sd; intervals entirely
    beyond 30 sd use rejection sampling (exponential proposal, uniform
    proposal for narrow slivers). Raises ValueError for a non-finite mean, a
    non-finite or non-positive sd, or an empty interval.
    """
    gen = as_generator(rng)
    mean, sd, lower, upper = (np.asarray(v, dtype=np.float64) for v in (mean, sd, lower, upper))

    if not np.all(np.isfinite(mean)):
        raise ValueError("truncated normal mean must be finite")
    if not np.all(np.isfinite(sd) & (sd > 0.0)):
        raise ValueError("truncated normal sd must be finite and positive")
    if not np.all(lower < upper):
        raise ValueError("empty truncation interval: lower must be < upper")

    draw = _draw(mean, sd, lower, upper, np.nextafter(lower, np.inf),
                 np.nextafter(upper, -np.inf), gen)
    return float(draw) if draw.ndim == 0 else draw


def sample_gaussian_precision(precision: BandedMatrix, b: np.ndarray, rng,
                              overwrite: bool = False) -> np.ndarray:
    """One draw from N(K^{-1} b, K^{-1}) for banded SPD K.

    Factorizes K = L L' once and folds mean and noise into two triangular
    solves with iid normals z: x = L'^{-1}(L^{-1} b + z), which is the mean
    K^{-1} b plus the noise L'^{-1} z. On a block-diagonal stack of paths
    this is one independent draw per path.

    With ``overwrite`` a Fortran-ordered K (as ``assemble_precision``
    builds it) is factored in place: the draw consumes the precision, whose
    storage then holds L. Callers that read K afterwards leave it False,
    and the factorization works on a copy. The draw is the same either way.
    """
    gen = as_generator(rng)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (precision.dim,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({precision.dim},)")
    factor = cholesky_banded(precision, overwrite=overwrite)
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

    The arguments are validated once, on entry: shapes, a finite mean, a
    non-empty box holding ``init``, and a finite positive precision
    diagonal. Each color's conditional sd, bounds and one-ulp-inside clamps
    are computed then too, so a sweep checks only that the conditional
    means it draws around are finite. Raises ValueError otherwise.
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
    if not np.all(np.isfinite(mean)):
        raise ValueError("truncated MVN mean must be finite")
    nonempty = lower < upper
    if not np.all(nonempty):
        raise ValueError(f"empty truncation box at coordinate {int(np.argmin(nonempty))}")
    if np.any(x < lower) or np.any(x > upper):
        raise ValueError("init point lies outside the truncation box")
    if sweeps < 1:
        raise ValueError("sweeps must be a positive integer")

    diag = precision.diagonals[0]
    if not np.all(np.isfinite(diag) & (diag > 0.0)):
        raise ValueError("precision diagonal must be finite and positive")
    sd = 1.0 / np.sqrt(diag)
    lower_in, upper_in = np.nextafter(lower, np.inf), np.nextafter(upper, -np.inf)
    # r = x - mean sits between ``width`` zeros at each end, so a color's
    # neighbors at offset o are its strided slice shifted by o; only the
    # color just drawn changes r. Per color, v_i = sum_j K_ij r_j adds terms
    # in BandedMatrix.matvec's order (self, -1, +1, -2, +2, ...; 0 past
    # either end), then m_i = x_i - v_i / K_ii.
    width = precision.bandwidth
    r = np.zeros(n + 2 * width)
    np.subtract(x, mean, out=r[width : width + n])
    # The band rows padded the same way, their unused tails zeroed, give the
    # couplings as strided slices as well: K_{i,i-k} = diagonals[k, i-k] sits
    # at the view of offset -k, and K_{i,i+k} = diagonals[k, i] at offset 0.
    band = np.zeros((width + 1, n + 2 * width))
    band[:, width : width + n] = precision.diagonals
    for k in range(1, width + 1):
        band[k, width + n - k : width + n] = 0.0
    offsets = [0] + [s * k for k in range(1, width + 1) for s in (-1, 1)]
    groups = []
    for c in range(width + 1):
        own = slice(c, n, width + 1)
        views = [slice(width + c + o, width + n + o, width + 1) for o in offsets]
        coupling = np.array([band[abs(o), view if o < 0 else views[0]]
                             for o, view in zip(offsets, views)])
        groups.append((own, views, coupling, mean[own],
                       (sd[own], lower[own], upper[own], lower_in[own], upper_in[own])))

    for _ in range(sweeps):
        for own, views, coupling, mean_c, box in groups:
            v = coupling[0] * r[views[0]]
            for cpl, view in zip(coupling[1:], views[1:]):
                v += cpl * r[view]
            m = x[own] - v / coupling[0]
            if not np.all(np.isfinite(m)):
                raise ValueError("truncated MVN conditional mean is not finite")
            x[own] = drawn = _draw(m, *box, gen)
            np.subtract(drawn, mean_c, out=r[views[0]])
    return x
