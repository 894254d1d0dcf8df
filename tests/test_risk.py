"""Target-range risk measures on discretized CDFs.

The measures treat the curve as cell masses at cell midpoints plus two
boundary cells, so on a fine grid they converge to the continuous-case
integrals; several tests pin them against exact standard normal facts.
"""

import numpy as np
import pytest
from scipy.special import ndtr

from tvpdr.distribution import ConditionalCdf, build_threshold_grid
from tvpdr.risk import (
    DEFAULT_PROBES,
    compare_distributions,
    deflation_risk,
    distribution_mean,
    excess_inflation_risk,
)

from reference import PHI0


def gaussian_cdf(lo=-8.0, hi=8.0, step=0.002, mean=0.0, sd=1.0):
    grid = build_threshold_grid(lo, hi, step)
    values = ndtr((grid.points - mean) / sd)
    return ConditionalCdf(grid=grid, values=values)


def test_risk_measures_validate_exponents_and_targets():
    # the measures check their own inputs; the CLI adds lower < upper
    cdf = gaussian_cdf()
    assert DEFAULT_PROBES == (3.0, 4.0, 5.0, 6.0)
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        deflation_risk(cdf, 1.0, -0.5)
    with pytest.raises(ValueError, match="gamma must be >= 0"):
        excess_inflation_risk(cdf, 3.0, -0.5)
    with pytest.raises(ValueError, match="lower_target must be finite"):
        deflation_risk(cdf, np.nan, 0.0)
    with pytest.raises(ValueError, match="upper_target must be finite"):
        excess_inflation_risk(cdf, np.inf, 0.0)
    # NaN passes a plain "< 0" check, and an infinite power reads -inf or inf
    for exponent in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"alpha must be >= 0 and finite, got {exponent}"):
            deflation_risk(cdf, 1.0, exponent)
        with pytest.raises(ValueError, match=f"gamma must be >= 0 and finite, got {exponent}"):
            excess_inflation_risk(cdf, 3.0, exponent)


def test_exponent_zero_reduces_to_probabilities():
    cdf = gaussian_cdf()
    # alpha=0 telescopes to minus the CDF mass at or below the target cell
    dr = deflation_risk(cdf, 0.0, 0.0)
    assert abs(dr - (-0.5)) < 1e-3
    eir = excess_inflation_risk(cdf, 0.0, 0.0)
    assert abs(eir - 0.5) < 1e-3
    # one sided versions at +-1
    assert abs(deflation_risk(cdf, -1.0, 0.0) + ndtr(-1.0)) < 1e-3
    assert abs(excess_inflation_risk(cdf, 1.0, 0.0) - ndtr(-1.0)) < 1e-3


def test_exponent_one_matches_gaussian_partial_moments():
    # E[(t - Y)^+] for standard normal Y at t=0 is phi(0); same by symmetry
    # for the upside; the fine grid should land within 2e-3
    cdf = gaussian_cdf()
    dr = deflation_risk(cdf, 0.0, 1.0)
    assert abs(dr - (-PHI0)) < 2e-3
    eir = excess_inflation_risk(cdf, 0.0, 1.0)
    assert abs(eir - PHI0) < 2e-3
    # nonzero target: E[(Y - 1)^+] = phi(1) - 1 * Phi(-1)
    want = np.exp(-0.5) / np.sqrt(2 * np.pi) - ndtr(-1.0)
    assert abs(excess_inflation_risk(cdf, 1.0, 1.0) - want) < 2e-3


def test_decomposition_sums_to_one():
    cdf = gaussian_cdf(step=0.01)
    for lo_t, hi_t in [(-1.0, 1.0), (0.5, 2.0), (-2.5, -0.5)]:
        dr = deflation_risk(cdf, lo_t, 0.0)
        eir = excess_inflation_risk(cdf, hi_t, 0.0)
        interior = 1.0 + dr - eir  # dr is signed negative
        assert abs(abs(dr) + interior + eir - 1.0) < 1e-6
        assert interior >= 0.0


def test_distribution_mean_matches_gaussian():
    assert abs(distribution_mean(gaussian_cdf())) < 2e-3
    assert abs(distribution_mean(gaussian_cdf(mean=1.7, sd=0.6)) - 1.7) < 2e-3


def test_risk_measures_validate():
    cdf = gaussian_cdf(step=0.01)
    with pytest.raises(ValueError):
        deflation_risk(cdf, np.inf, 0.0)
    with pytest.raises(ValueError):
        deflation_risk(cdf, 0.0, -1.0)
    with pytest.raises(ValueError):
        excess_inflation_risk(cdf, 0.0, -0.1)


def test_compare_distributions_rows():
    # the right-edge mass convention biases the mean by half a step, so use
    # the fine grid when checking location
    base = gaussian_cdf()
    shifted = gaussian_cdf(mean=2.0)
    rows = compare_distributions(base, shifted, probes=(3.0, 4.0))
    assert [r.label for r in rows] == ["baseline", "counterfactual"]
    assert abs(rows[0].mean - 0.0) < 2e-3
    assert abs(rows[1].mean - 2.0) < 2e-3
    # P(Y > 3) for N(2,1) is Phi(-1)
    assert abs(rows[1].exceedance[3.0] - ndtr(-1.0)) < 1e-3
    assert set(rows[0].exceedance) == {3.0, 4.0}
    with pytest.raises(ValueError):
        compare_distributions(base, gaussian_cdf(step=0.02), probes=(3.0,))
    # a NaN probe is refused, and infinite ones read exactly 1 and 0
    with pytest.raises(ValueError, match="cannot read a CDF at NaN"):
        compare_distributions(base, shifted, probes=(3.0, np.nan))
    rows = compare_distributions(base, shifted, probes=(-np.inf, np.inf))
    assert all(r.exceedance == {-np.inf: 1.0, np.inf: 0.0} for r in rows)



@pytest.mark.parametrize("step", [0.1, 0.5])
def test_distribution_mean_is_exact_on_coarse_grids(step):
    # a cell's mass sits at its midpoint, where the piecewise-linear CDF
    # puts its mean; at its right end the mean came out step / 2 too high
    for mean in (-0.37, 0.0, 2.2):
        cdf = gaussian_cdf(lo=-8.0, hi=8.0, step=step, mean=mean)
        assert abs(distribution_mean(cdf) - mean) < 1e-3
