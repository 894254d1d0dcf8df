"""Random draws used by the Gibbs sampler.

Three primitives: univariate truncated normals (vectorized), Gaussian draws
parameterized by a banded precision matrix, and a two-colour Gibbs sweep for
box-truncated Gaussians with tridiagonal precision, which reads each full
conditional from the precision and the canonical rhs and so factors
nothing. A truncated normal is one standard normal proposal, kept where it
lies inside its box; the misses are drawn by inversion, each interval
mirrored onto the lower tail where ndtr/ndtri keep full relative accuracy
out to 30 sd, and by rejection beyond that. Every draw takes a numpy
Generator, and a fit's come from ``stream_generator(seed, stream,
lane)``, so (seed, stream, call sequence) pins every draw bit for bit,
including across parallel backtest origins and lane processes.

Inputs are validated once, at the public entry points. The inner loops of
the Gibbs sampler then draw every truncated normal, the probit latents
included, through one unchecked private core, ``_draw``, every intercept
sweep through ``_truncated_mvn``, and every path through
``_gaussian_precision``, which factors and solves in buffers the sampler
owns; each checks only what the draws can break.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

from .banded import _factor, _solve

__all__ = [
    "DRAW_SCHEME",
    "stream_generator",
    "sample_truncated_normal",
    "sample_gaussian_precision",
    "sample_truncated_mvn",
]

# Inversion on the mirrored (lower-tail) scale keeps full relative accuracy
# out to this many sds: ndtr(-30) ~ 5e-198 is still a normal double.
# Intervals lying entirely beyond it are drawn by rejection.
_TAIL = 30.0
# Records name this, so draws of another generator or scheme never mix into
# them: every fit draws each colour of thresholds in two lanes, each on its
# own stream, so its draws differ from those of one stream.
DRAW_SCHEME = ("SFC64 streams; truncated normals: one normal proposal, inversion for the "
               "misses; every fit in two lanes, the upper on spawn key (stream, 1)")


def _integer(name: str, value) -> int:
    """``value`` as a plain int, so it hashes and serialises as one; a bool,
    a float (integral or not) or a string is refused with TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _count(name: str, value) -> int:
    """``_integer(name, value)``, at least 1: the one rule for a count."""
    value = _integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value


def _uint64(name: str, value) -> int:
    """``_integer(name, value)`` in [0, 2**64)."""
    value = _integer(name, value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value}")
    return value


def stream_generator(seed, stream=0, lane=0) -> np.random.Generator:
    """The random stream named by (seed, stream): the one place that names the bit generator.

    Streams with the same seed and different stream ids are statistically
    independent (SFC64 seeded from a SeedSequence spawn key), which is what
    lets backtest origins run in any order, or in parallel, without changing
    the numbers. A ``lane`` >= 1 names a sub-stream of the stream, spawn key
    (stream, lane), independent of it and of the other lanes; lane 0 is the
    stream itself. A fit draws each lane of a colour from its own,
    whichever process draws it. Seed, stream and lane follow
    ``ModelSpec.seed``'s rule.
    """
    key = (_uint64("stream", stream),)
    lane = _uint64("lane", lane)
    if lane:
        key += (lane,)
    ss = np.random.SeedSequence(_uint64("seed", seed), spawn_key=key)
    return np.random.Generator(np.random.SFC64(ss))


class _Lanes:
    """The generator of one draw stacked from a batch's two lanes (a
    monotone colour, or all thresholds of an unconstrained fit), lane 0
    first: of a draw of ``size`` rows, the first ``cut`` are lane 0's,
    drawn from ``gens[0]``, and the rest lane 1's, from ``gens[1]``. So
    each lane draws what it would alone, and a batch of two lanes draws
    what the lanes drawn one at a time, or in two processes, would. It
    draws as a Generator does, for the draws a sampler makes; ``take``
    gives the lanes of a subset of a draw."""

    __slots__ = ("gens", "cut", "size")

    def __init__(self, gens, cut: int, size: int):
        self.gens, self.cut, self.size = gens, cut, size

    def _halves(self, out: np.ndarray) -> tuple:
        flat = out.reshape(-1)
        at = flat.size // self.size * self.cut
        return flat[:at], flat[at:]

    def standard_normal(self, size) -> np.ndarray:
        out = np.empty(size)
        lane0, lane1 = self._halves(out)
        self.gens[0].standard_normal(out=lane0)
        self.gens[1].standard_normal(out=lane1)
        return out

    def random(self, size) -> np.ndarray:
        out = np.empty(size)
        lane0, lane1 = self._halves(out)
        self.gens[0].random(out=lane0)
        self.gens[1].random(out=lane1)
        return out

    def standard_gamma(self, shape, size) -> np.ndarray:
        out = np.empty(size)
        lane0, lane1 = self._halves(out)
        self.gens[0].standard_gamma(shape, out=lane0)
        self.gens[1].standard_gamma(shape, out=lane1)
        return out

    def take(self, keep: np.ndarray, size: int) -> _Lanes:
        """The lanes of the elements ``keep`` of a draw of ``size``: a
        boolean mask, or indices in increasing order."""
        at = size // self.size * self.cut
        if keep.dtype == bool:
            keep = keep.ravel()
            return _Lanes(self.gens, int(np.count_nonzero(keep[:at])), int(np.count_nonzero(keep)))
        return _Lanes(self.gens, int(keep.searchsorted(at)), keep.size)


def _part(gen, keep: np.ndarray, size: int):
    """The generator of the elements ``keep`` of a draw of ``size`` from ``gen``."""
    return gen.take(keep, size) if isinstance(gen, _Lanes) else gen


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
        part = _part(gen, idx, a.size)
        u1 = 1.0 - part.random(idx.size)  # in (0, 1], keeps log finite
        u2 = part.random(idx.size)
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
        z[tail] = -_tail_reject(-hi[tail], -lo[tail], _part(gen, tail, tail.size))
    return np.where(flip, -z, z)


def _draw(mean, sd, lower, upper, lower_in, upper_in, gen):
    """N(mean, sd^2) on (lower, upper), unchecked.

    Callers have checked that mean is finite, sd finite and positive and
    lower < upper. A standard normal is kept where it lies strictly inside
    the standardized box (a, b), and the misses go, in one call, to the
    inversion core: exact, since a draw lands in A within the box with
    probability N(A) + (1 - N(a, b)) N(A) / N(a, b) = N(A) / N(a, b).
    Clamping to ``lower_in``/``upper_in``, the bounds moved one ulp inside,
    keeps a draw that rounds onto a bound strictly inside.
    """
    a, b = (lower - mean) / sd, (upper - mean) / sd
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    z = gen.standard_normal(a.shape)
    miss = np.flatnonzero((z <= a) | (z >= b))  # indices gather faster than a random mask
    if miss.size:
        z.ravel()[miss] = _truncated_std_normal(a.ravel()[miss], b.ravel()[miss],
                                                _part(gen, miss, z.size))
    return np.minimum(np.maximum(mean + sd * z, lower_in), upper_in)


def sample_truncated_normal(mean, sd, lower, upper, gen: np.random.Generator):
    """Draw from N(mean, sd^2) truncated to (lower, upper).

    Scalars broadcast against arrays; the output has the broadcast shape
    (a float for all-scalar input). Draws are strictly inside the interval.
    A standard normal proposal is kept where it lands inside; misses are
    mirrored to start left of center and inverted by ndtr/ndtri, accurate
    out to 30 sd, or beyond 30 sd drawn by rejection (exponential proposal,
    uniform proposal for narrow slivers). Raises ValueError for a non-finite
    mean, a non-finite or non-positive sd, or an empty interval.
    """
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


def _gaussian_precision(band: np.ndarray, b: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """``sample_gaussian_precision`` in place, for a draw that owns its
    buffers: the Fortran-ordered float64 ``band`` is factored in place and
    consumed, and the draw lands in ``b``, a contiguous float64 vector of
    the band's dimension, which it returns. Checks only what depends on the
    draws: a finite ``b`` and the pivots."""
    if not np.isfinite(b).all():
        raise ValueError("precision rhs must be finite")
    factor = _factor(band)
    z = gen.standard_normal(band.shape[1])
    b = _solve(factor, b)
    b += z
    return _solve(factor, b, transpose=True)


def sample_gaussian_precision(band: np.ndarray, b: np.ndarray,
                              gen: np.random.Generator) -> np.ndarray:
    """One draw from N(K^{-1} b, K^{-1}) for banded SPD K, given as its band.

    Factorizes K = L L' once and folds mean and noise into two triangular
    solves with iid normals z: x = L'^{-1}(L^{-1} b + z), which is the mean
    K^{-1} b plus the noise L'^{-1} z. On a block-diagonal stack of paths
    this is one independent draw per path. A non-finite b or K raises.
    ``band`` and ``b`` are left as they were: the draw works on copies.
    """
    if np.shape(b) != (np.shape(band)[1],):
        raise ValueError(f"rhs has shape {np.shape(b)}, expected ({np.shape(band)[1]},)")
    return _gaussian_precision(np.array(band, dtype=np.float64, order="F"),
                               np.array(b, dtype=np.float64), gen)


def sample_truncated_mvn(
    diag: np.ndarray,
    off: np.ndarray,
    rhs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    init: np.ndarray,
    sweeps: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """Coordinate-wise Gibbs for a box-truncated Gaussian with tridiagonal precision.

    The target is N(K^{-1} rhs, K^{-1}) truncated to (lower, upper), where K
    has diagonal ``diag`` and couplings K_{i,i+1} = K_{i+1,i} = ``off[i]``
    (``off[-1]`` is ignored). Coordinate i's full conditional is the normal
    with mean (rhs_i - K_{i,i-1} x_{i-1} - K_{i,i+1} x_{i+1}) / K_ii and
    variance 1 / K_ii, truncated to its interval. Even coordinates are
    conditionally independent given the odd ones and vice versa, so a sweep
    is two vectorized truncated-normal draws: the even coordinates, then the
    odd ones. Runs ``sweeps`` sweeps and returns the final state; this is a
    valid Gibbs kernel for the truncated target, so one call advances the
    chain, it does not produce an independent draw.

    The arguments are validated once, on entry: shapes, a finite rhs, a
    non-empty box holding ``init``, a finite positive diagonal and a
    positive integer ``sweeps`` (a bool or a float raises TypeError). Each
    colour's conditional sd, bounds and one-ulp-inside clamps are computed
    then too, so a sweep checks only that the conditional means it draws
    around are finite. Raises ValueError otherwise.
    """
    diag, off, rhs, lower, upper = (np.asarray(v, dtype=np.float64)
                                    for v in (diag, off, rhs, lower, upper))
    if diag.ndim != 1:
        raise ValueError(f"diag has shape {diag.shape}, expected one dimension")
    n = diag.size
    init = np.asarray(init, dtype=np.float64)
    for name, arr in (("off", off), ("rhs", rhs), ("lower", lower), ("upper", upper),
                      ("init", init)):
        if arr.shape != (n,):
            raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("truncated MVN rhs must be finite")
    nonempty = lower < upper
    if not np.all(nonempty):
        raise ValueError(f"empty truncation box at coordinate {int(np.argmin(nonempty))}")
    if np.any(init < lower) or np.any(init > upper):
        raise ValueError("init point lies outside the truncation box")
    sweeps = _count("sweeps", sweeps)
    if not np.all(np.isfinite(diag) & (diag > 0.0)):
        raise ValueError("precision diagonal must be finite and positive")
    return _truncated_mvn(diag, off, rhs, lower, upper, init, sweeps, gen)


def _truncated_mvn(diag, off, rhs, lower, upper, init, sweeps: int, gen) -> np.ndarray:
    """``sample_truncated_mvn``'s core, for a caller whose system is valid by
    construction: float64 vectors of one length, a non-empty box holding
    ``init``, a finite positive diagonal and a positive integer ``sweeps``.
    Checks only that the conditional means it draws around are finite, which
    a non-finite rhs breaks too.

    With ``_Lanes`` in place of a Generator the vector is a colour's two
    lanes, which never couple, and each lane's colours alternate from its
    own first coordinate, so each lane is swept, and drawn, as it would be
    alone.
    """
    n = diag.size
    # x sits between two zeros, so a colour's neighbours on either side are
    # strided slices of the padded state; those past an end have coupling 0.
    padded = np.zeros(n + 2)
    x = padded[1 : n + 1]
    x[:] = init
    left, right = np.zeros(n), np.zeros(n)
    left[1:] = right[:-1] = off[:-1]
    sd = 1.0 / np.sqrt(diag)
    lower_in, upper_in = np.nextafter(lower, np.inf), np.nextafter(upper, -np.inf)
    lanes = isinstance(gen, _Lanes)
    cut = gen.cut if lanes else n  # lane 1's first coordinate
    colours = []
    for c in range(2):
        # lane 0's coordinates of this colour are own[:cut_c], lane 1's the rest
        cut_c = len(range(c, cut, 2))
        size_c = cut_c + len(range(cut + c, n, 2))
        if not size_c:
            continue
        if lanes and cut % 2:  # lane 1's colours start on the other parity
            own = np.r_[c:cut:2, cut + c : n : 2]
            after = own + 2
        else:
            own, after = slice(c, n, 2), slice(c + 2, n + 2, 2)
        colours.append((own, after, rhs[own], left[own], right[own], diag[own],
                        (sd[own], lower[own], upper[own], lower_in[own], upper_in[own]),
                        _Lanes(gen.gens, cut_c, size_c) if lanes else gen))

    for _ in range(sweeps):
        for own, after, rhs_c, left_c, right_c, diag_c, box, gen_c in colours:
            # padded[own] holds each coordinate's left neighbour, padded[after] its right
            m = (rhs_c - left_c * padded[own] - right_c * padded[after]) / diag_c
            if not np.all(np.isfinite(m)):
                raise ValueError("truncated MVN conditional mean is not finite")
            x[own] = _draw(m, *box, gen_c)
    return x
