"""Target-range risk measures and counterfactual comparisons.

Integrals against a grid CDF are Stieltjes sums over cell masses: the
probability increment of each grid cell sits at the cell midpoint, and two
boundary cells (one grid step wide on each side) carry the mass below the
first threshold and above the last, matching the linear boundary extension
of the curve itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import ConditionalCdf, cdf_interpolate

__all__ = [
    "RiskReportRow",
    "deflation_risk",
    "excess_inflation_risk",
    "distribution_mean",
    "compare_distributions",
]

DEFAULT_PROBES = (3.0, 4.0, 5.0, 6.0)


def _cell_masses(cdf: ConditionalCdf):
    v = cdf.values
    y = cdf.grid.points
    step = cdf.grid.step
    mids = np.concatenate((
        [y[0] - 0.5 * step],
        0.5 * (y[:-1] + y[1:]),
        [y[-1] + 0.5 * step],
    ))
    masses = np.concatenate(([v[0]], np.diff(v), [1.0 - v[-1]]))
    return mids, masses


def deflation_risk(cdf: ConditionalCdf, lower_target: float, alpha: float) -> float:
    """Signed downside risk -integral of (target - y)^alpha below the target.

    Always <= 0; alpha = 0 reduces to -P(y < target) and alpha = 1 to minus
    the expected shortfall below the target.
    """
    if not 0.0 <= alpha < np.inf:  # False for NaN too
        raise ValueError(f"alpha must be >= 0 and finite, got {alpha}")
    if not np.isfinite(lower_target):
        raise ValueError("lower_target must be finite")
    mids, masses = _cell_masses(cdf)
    take = mids <= lower_target
    return -float(np.sum(masses[take] * (lower_target - mids[take]) ** alpha))


def excess_inflation_risk(cdf: ConditionalCdf, upper_target: float, gamma: float) -> float:
    """Upside risk: integral of (y - target)^gamma above the target.

    gamma = 0 reduces to P(y > target), gamma = 1 to the expected excess
    over the target.
    """
    if not 0.0 <= gamma < np.inf:  # False for NaN too
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")
    if not np.isfinite(upper_target):
        raise ValueError("upper_target must be finite")
    mids, masses = _cell_masses(cdf)
    take = mids >= upper_target
    return float(np.sum(masses[take] * (mids[take] - upper_target) ** gamma))


def distribution_mean(cdf: ConditionalCdf) -> float:
    """Mean as the sum of cell midpoints times cell masses, boundary cells
    included: exact for the piecewise-linear CDF of ``cdf_interpolate``."""
    mids, masses = _cell_masses(cdf)
    return float(np.sum(mids * masses))


@dataclass
class RiskReportRow:
    """One scenario line: mean and exceedance probabilities at the probes."""

    label: str
    mean: float
    exceedance: dict


def compare_distributions(
    baseline: ConditionalCdf,
    counterfactual: ConditionalCdf,
    probes=DEFAULT_PROBES,
) -> list:
    """Side-by-side summary rows for two curves on the same grid.

    Each row carries the distribution mean and P(y > probe) for every probe
    threshold, baseline first.
    """
    if baseline.grid.n != counterfactual.grid.n or np.any(
        baseline.grid.points != counterfactual.grid.points
    ):
        raise ValueError("baseline and counterfactual live on different grids")
    probes = tuple(float(p) for p in probes)
    rows = []
    for label, cdf in (("baseline", baseline), ("counterfactual", counterfactual)):
        exceedance = {p: 1.0 - float(cdf_interpolate(cdf, p)) for p in probes}
        rows.append(RiskReportRow(label=label, mean=distribution_mean(cdf), exceedance=exceedance))
    return rows

