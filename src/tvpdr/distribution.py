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

from .samplers import as_generator

# How forecast_predictive draws its innovations; records computed from its
# curves name this, so a change of scheme is never mixed into old records.
PREDICTIVE_DRAW = "one innovation per kept draw"

__all__ = [
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
    grid whenever (max - min) is an integer multiple of step.
    """
    if not (np.isfinite(min_value) and np.isfinite(max_value) and np.isfinite(step)):
        raise ValueError("grid parameters must be finite")
    if min_value >= max_value:
        raise ValueError("grid needs min < max")
    if step <= 0.0:
        raise ValueError("grid step must be positive")
    if step > max_value - min_value:
        raise ValueError("grid step exceeds the grid range")
    count = int(math.floor((max_value - min_value) / step + 1.0 + 1e-9))
    points = min_value + step * np.arange(count)
    return ThresholdGrid(points=points, min_value=float(min_value),
                         max_value=float(max_value), step=float(step))


@dataclass(eq=False)
class ConditionalCdf:
    """One finalized conditional CDF: non-decreasing values on a grid.

    ``time_index`` is the 0-based in-sample index the curve conditions on,
    or the string "predictive" for the one-step-ahead curve. ``x`` is the
    design-space evaluation point (after the design transform).
    """

    grid: ThresholdGrid
    values: np.ndarray
    x: np.ndarray
    time_index: object

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.n,):
            raise ValueError("values must align with the grid")
        if np.any(self.values < -1e-12) or np.any(self.values > 1.0 + 1e-12):
            raise ValueError("CDF values must lie in [0, 1]")
        self.values = np.clip(self.values, 0.0, 1.0)
        if np.any(np.diff(self.values) < 0.0):
            raise ValueError("CDF values must be non-decreasing; rearrange first")


class Quantile(float):
    """A quantile that knows whether it was censored at a grid endpoint."""

    censored: bool

    def __new__(cls, value: float, censored: bool = False):
        obj = super().__new__(cls, value)
        obj.censored = bool(censored)
        return obj


def conditional_cdf(draws, x, t: int, link) -> ConditionalCdf:
    """Posterior-mean CDF at in-sample time t for design point x.

    Under monotone estimation at an in-sample point the per-draw curves are
    already ordered and the average needs no adjustment; otherwise the
    averaged curve is rearranged (sorted ascending) before finalization.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (draws.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({draws.d},)")
    if not 0 <= t < draws.n_obs:
        raise ValueError(f"time index {t} outside 0..{draws.n_obs - 1}")
    fits = draws.beta[:, :, t, :] @ x
    values = link.cdf(fits).mean(axis=0)
    if np.any(np.diff(values) < 0.0):
        values = np.sort(values)
    return ConditionalCdf(grid=draws.grid, values=values, x=x, time_index=t)


def forecast_predictive(draws, x_next, rng, link) -> ConditionalCdf:
    """One-step-ahead predictive CDF at design point x_next.

    Each kept draw's final state is propagated one step with its own
    innovation variances, the link is applied draw by draw, the curves are
    averaged, and the average is rearranged.

    Only the projection x'(beta_T + eta) reaches the link, and with
    eta ~ N(0, diag(sigma2)) the projected innovation x'eta is exactly
    N(0, sum_j x_j^2 sigma2_j). So draw n takes one standard normal z_n,
    shared by its K thresholds, and threshold k uses
    x'beta_T + sqrt(x' diag(sigma2_k) x) z_n. Across draws the z_n are iid
    N(0, 1), so each threshold's estimator has the same distribution as one
    that propagates all d coefficients; sharing z_n across thresholds only
    correlates their errors (common random numbers). The generator advances
    by exactly ``kept`` normals. The numbers drawn for a given rng differ
    from those of earlier versions, which drew one normal per (draw,
    threshold) or per coefficient; ``PREDICTIVE_DRAW`` names the scheme.
    """
    gen = as_generator(rng)
    x_next = np.asarray(x_next, dtype=np.float64)
    if x_next.shape != (draws.d,):
        raise ValueError(f"x_next has shape {x_next.shape}, expected ({draws.d},)")
    fits = draws.beta[:, :, -1, :] @ x_next
    scale = np.sqrt(draws.sigma2 @ (x_next * x_next))
    scale *= gen.standard_normal(fits.shape[0])[:, None]
    fits += scale
    values = np.sort(link.cdf(fits).mean(axis=0))
    return ConditionalCdf(grid=draws.grid, values=values, x=x_next, time_index="predictive")


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
    step below the grid and to 1 one step above, clamped outside."""
    g = cdf.grid
    xs = np.concatenate(([g.points[0] - g.step], g.points, [g.points[-1] + g.step]))
    vs = np.concatenate(([0.0], cdf.values, [1.0]))
    return np.interp(at, xs, vs)


def cdf_derivative(draws, x, t: int, j: int, link) -> np.ndarray:
    """Posterior-mean gradient of the CDF in the conditioning variables.

    For the identity design the chain rule gives lambda(x'beta) beta, one
    entry per design coordinate, averaged across kept draws. Expanded
    designs would need the transform Jacobian, which is out of scope here.
    """
    if draws.design_transform != "identity":
        raise ValueError("cdf_derivative is defined for the identity design transform")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (draws.d,):
        raise ValueError(f"x has shape {x.shape}, expected ({draws.d},)")
    if not 0 <= t < draws.n_obs:
        raise ValueError(f"time index {t} outside 0..{draws.n_obs - 1}")
    if not 0 <= j < draws.n_thresholds:
        raise ValueError(f"threshold index {j} outside 0..{draws.n_thresholds - 1}")
    beta_jt = draws.beta[:, j, t, :]
    dens = link.pdf(beta_jt @ x)
    return (dens[:, None] * beta_jt).mean(axis=0)
