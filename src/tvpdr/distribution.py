"""Threshold grids and conditional CDFs built from posterior draws.

A fitted model gives, per kept draw, a CDF value at every grid threshold.
Averaging across draws and (where needed) rearranging produces one
finalized non-decreasing curve per conditioning point, which is what the
risk measures, quantiles and PIT evaluation consume. Outside the grid the
curve is extended linearly to 0 one grid step below the first threshold
and to 1 one step above the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .samplers import _count, _integer

# How forecast_predictive integrates the innovation step; records computed
# from its curves name this, so a change of scheme is never mixed into old
# records.
PREDICTIVE_DRAW = "closed form Phi(x'beta_T / sqrt(1 + j x'diag(sigma2)x)) at j steps"
# Read curves take Phi of this many kept draws at a time; every block size
# gives the same bits. At the bench read shape (1000 kept, K 65, 2 cores),
# blocks of 64, 256 and 1000 draws (one pass) took 0.603, 0.571 and 0.569 ms
# per in-sample curve and 0.805, 0.751 and 0.954 ms per predictive curve,
# and a one-pass read allocates fresh (kept, K) temporaries.
_CURVE_BLOCK = 64
# Most thresholds a grid may hold: a fit keeps K x T x d states, so more is a typo.
MAX_THRESHOLDS = 10_000

__all__ = [
    "LinkFunction",
    "PROBIT",
    "DESIGN_TRANSFORMS",
    "apply_design_transform",
    "ThresholdGrid",
    "ConditionalCdf",
    "Quantile",
    "build_threshold_grid",
    "conditional_cdf",
    "quantile_from_cdf",
    "forecast_predictive",
    "PREDICTIVE_DRAW",
    "cdf_derivative",
    "cdf_interpolate",
]


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class LinkFunction:
    """A CDF link with its density and inverse; ``PROBIT`` is the only one."""

    cdf: callable
    pdf: callable
    inverse: callable


# The model's only link. Every latent is N(fit, 1) truncated at 0 (Albert &
# Chib 1993), so the sampler is probit by construction, and every reader
# takes Phi and phi from here.
PROBIT = LinkFunction(cdf=ndtr, pdf=_phi, inverse=ndtri)


# The expansions g of the model Phi(g(x_t)' beta_t). The fit and the readers
# both take raw design rows and apply the one the estimate names; quadratic
# appends the squares of the non-intercept columns on the right.
DESIGN_TRANSFORMS = {
    "identity": lambda x: x,
    "quadratic": lambda x: np.hstack([x, x[:, 1:] ** 2]),
}


def apply_design_transform(x: np.ndarray, name: str) -> np.ndarray:
    """Map raw design rows (intercept first) through a named expansion g."""
    if name not in DESIGN_TRANSFORMS:
        raise ValueError(f"unknown design transform {name!r}")
    return DESIGN_TRANSFORMS[name](np.atleast_2d(np.asarray(x, dtype=np.float64)))


def _design_row(draws, x, name: str) -> np.ndarray:
    """g(x) of one raw design row, checked against the draws' width."""
    x = np.asarray(x, dtype=np.float64)
    row = apply_design_transform(x, draws.design_transform)[0] if x.ndim == 1 else x
    if row.shape != (draws.d,):
        raise ValueError(f"{name} has shape {x.shape}, which the {draws.design_transform} "
                         f"design maps to {row.shape}; the draws need ({draws.d},)")
    return row


@dataclass(eq=False, frozen=True)
class ThresholdGrid:
    """Uniformly spaced thresholds with their construction parameters."""

    points: np.ndarray
    min_value: float
    max_value: float
    step: float

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.float64))
        p = self.points
        if p.ndim != 1 or p.size < 1:
            raise ValueError("grid needs at least one threshold")
        # every check below is False on NaN, so a non-finite grid would pass them
        if not (np.isfinite(p).all() and np.isfinite([self.min_value, self.max_value,
                                                       self.step]).all()):
            raise ValueError("grid points, min, max and step must be finite")
        if p.size > 1:
            d = np.diff(p)
            if np.any(d <= 0.0):
                raise ValueError("grid points must be strictly increasing")
            scale = max(abs(self.min_value), abs(self.max_value), 1.0)
            if np.any(np.abs(d - self.step) > 1e-12 * scale):
                raise ValueError("grid spacing is not uniform")

    @property
    def n(self) -> int:
        return int(self.points.size)

    def canonical(self) -> dict:
        return {
            "min": float(self.min_value),
            "max": float(self.max_value),
            "step": float(self.step),
            "n": self.n,
        }


def build_threshold_grid(min_value: float, max_value: float, step: float) -> ThresholdGrid:
    """Grid min, min+step, ... up to the largest point <= max.

    A 0.1 step over [0, 9.1] gives 92 thresholds; the endpoint lands on the
    grid whenever (max - min) is an integer multiple of step. More than
    ``MAX_THRESHOLDS`` are refused.
    """
    if not (np.isfinite(min_value) and np.isfinite(max_value) and np.isfinite(step)):
        raise ValueError("grid parameters must be finite")
    if min_value >= max_value:
        raise ValueError("grid needs min < max")
    if step <= 0.0:
        raise ValueError("grid step must be positive")
    if step > max_value - min_value:
        raise ValueError("grid step exceeds the grid range")
    count = (max_value - min_value) / step + 1.0 + 1e-9  # inf for a subnormal step
    if count >= MAX_THRESHOLDS + 1:  # refused before anything is allocated
        shown = math.floor(count) if math.isfinite(count) else count
        raise ValueError(f"grid step {step:g} over [{min_value:g}, {max_value:g}] gives "
                         f"{shown:.6g} thresholds, more than {MAX_THRESHOLDS}")
    points = min_value + step * np.arange(int(count))
    return ThresholdGrid(points=points, min_value=float(min_value),
                         max_value=float(max_value), step=float(step))


@dataclass(eq=False)
class ConditionalCdf:
    """One finalized conditional CDF: non-decreasing values on a grid."""

    grid: ThresholdGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n,):
            raise ValueError("values must align with the grid")
        if np.any(self.values < -1e-12) or np.any(self.values > 1.0 + 1e-12):
            raise ValueError("CDF values must lie in [0, 1]")
        self.values = np.clip(self.values, 0.0, 1.0)
        if np.any(np.diff(self.values) < 0.0):
            raise ValueError("CDF values must be non-decreasing; sort them first")


class Quantile(float):
    """A quantile that knows whether it was censored at a grid endpoint."""

    censored: bool

    def __new__(cls, value: float, censored: bool = False):
        obj = super().__new__(cls, value)
        obj.censored = bool(censored)
        return obj


def conditional_cdf(draws, x, t: int) -> ConditionalCdf:
    """Posterior-mean CDF at in-sample time t for the raw design row x.

    x is intercept first, as ``run_gibbs`` takes its rows, and the draws'
    design transform maps it here. Under monotone estimation the per-draw
    curves at an in-sample point are already ordered and the average needs
    no adjustment; otherwise the averaged curve is rearranged (sorted
    ascending) before finalization.
    """
    x, t = _design_row(draws, x, "x"), _integer("t", t)
    if not 0 <= t < draws.n_obs:
        raise ValueError(f"time index {t} outside 0..{draws.n_obs - 1}")
    beta_t = draws.beta[:, :, t, :]
    values = _mean_cdf(lambda lo, hi, out: np.matmul(beta_t[lo:hi], x, out=out),
                       *beta_t.shape[:2])
    if np.any(np.diff(values) < 0.0):
        values = np.sort(values)
    return ConditionalCdf(grid=draws.grid, values=values)


def forecast_predictive(draws, x_next, steps: int = 1) -> ConditionalCdf:
    """Predictive CDF ``steps`` quarters past the last state, at the raw
    design row x_next.

    x_next is intercept first and is mapped through the estimate's design
    transform, as in ``conditional_cdf``; x below is that mapped row.
    Each kept draw's final state moves j = ``steps`` random-walk steps with
    its own innovation variances, beta_T + eta with eta ~ N(0, j diag(sigma2)),
    and only the projection x'(beta_T + eta) reaches Phi. Given the draw,
    that projection is N(x'beta_T, j x' diag(sigma2) x), so for the probit
    link E_eta Phi(x'beta_T + x'eta) = Phi(x'beta_T / sqrt(1 + j x' diag(sigma2) x))
    exactly. The curve is the mean of that over kept draws, rearranged, so
    it takes no random numbers and carries no Monte Carlo error from the
    steps ahead; ``PREDICTIVE_DRAW`` names the scheme. ``steps`` is a count
    (``samplers._count``).
    """
    steps, x_next = _count("steps", steps), _design_row(draws, x_next, "x_next")
    # j x^2 is x^2 to the bit at j = 1
    beta_last, var = draws.beta[:, :, -1, :], steps * (x_next * x_next)
    kept, k = beta_last.shape[:2]
    scale = np.empty((min(kept, _curve_block(k, kept)), k))

    def fill(lo, hi, out):
        np.matmul(beta_last[lo:hi], x_next, out=out)
        spread = np.matmul(draws.sigma2[lo:hi], var, out=scale[: hi - lo])
        spread += 1.0
        out /= np.sqrt(spread, out=spread)

    values = np.sort(_mean_cdf(fill, kept, k))
    return ConditionalCdf(grid=draws.grid, values=values)


def _curve_block(k: int, kept: int) -> int:
    # numpy sums a single column pairwise, not row by row, so one threshold
    # takes all its draws in one block
    return _CURVE_BLOCK if k > 1 else kept


def _mean_cdf(fill, kept: int, k: int) -> np.ndarray:
    """Mean over kept draws of Phi of their (kept, K) fits.

    ``fill(lo, hi, out)`` writes the fits of draws lo..hi-1 into ``out``. The
    draws go through one (block + 1, K) buffer whose row 0 carries the sum so
    far, so each reduction adds rows in the order that ``.mean(axis=0)`` of
    the whole (kept, K) array does, and the mean is the same to the bit.
    """
    block = _curve_block(k, kept)
    buf, total = np.empty((min(kept, block) + 1, k)), np.empty(k)
    for lo in range(0, kept, block):
        hi = min(lo + block, kept)
        first = 0 if lo == 0 else 1
        rows = buf[first : first + hi - lo]
        fill(lo, hi, rows)
        PROBIT.cdf(rows, out=rows)
        np.add.reduce(buf[: first + hi - lo], axis=0, out=total)
        buf[0] = total
    return np.divide(total, kept, out=total)


def quantile_from_cdf(cdf: ConditionalCdf, tau: float) -> Quantile:
    """Generalized inverse with linear interpolation between thresholds.

    Returns the first grid point when tau is below the whole curve and the
    last when tau is above it, flagged censored in both cases.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    v = cdf.values
    y = cdf.grid.points
    j = int(np.searchsorted(v, tau, side="left"))
    if j == 0:
        return Quantile(y[0], censored=bool(tau < v[0]))
    if j == v.size:
        return Quantile(y[-1], censored=True)
    frac = (tau - v[j - 1]) / (v[j] - v[j - 1])
    return Quantile(y[j - 1] + frac * (y[j] - y[j - 1]), censored=False)


def cdf_interpolate(cdf: ConditionalCdf, at) -> np.ndarray:
    """CDF evaluated anywhere: linear between thresholds, extended to 0 one
    step below the grid and to 1 one step above, clamped outside. A NaN
    point raises ValueError rather than reading NaN; +-inf read 0 and 1."""
    if np.isnan(at).any():
        raise ValueError("cannot read a CDF at NaN; a probe must be a number")
    g = cdf.grid
    xs = np.concatenate(([g.points[0] - g.step], g.points, [g.points[-1] + g.step]))
    vs = np.concatenate(([0.0], cdf.values, [1.0]))
    return np.interp(at, xs, vs)


def cdf_derivative(draws, x, t: int, j: int) -> np.ndarray:
    """Posterior-mean gradient of the CDF in the conditioning variables.

    For the identity design the chain rule gives phi(x'beta) beta, one
    entry per design coordinate, averaged across kept draws. Expanded
    designs would need the transform Jacobian, which is out of scope here.
    """
    if draws.design_transform != "identity":
        raise ValueError("cdf_derivative is defined for the identity design transform")
    x, t, j = _design_row(draws, x, "x"), _integer("t", t), _integer("j", j)
    if not 0 <= t < draws.n_obs:
        raise ValueError(f"time index {t} outside 0..{draws.n_obs - 1}")
    if not 0 <= j < draws.n_thresholds:
        raise ValueError(f"threshold index {j} outside 0..{draws.n_thresholds - 1}")
    beta_jt = draws.beta[:, j, t, :]
    dens = PROBIT.pdf(beta_jt @ x)
    return (dens[:, None] * beta_jt).mean(axis=0)
