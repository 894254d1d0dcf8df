"""Grid construction, CDF averaging, rearrangement, quantiles, derivatives."""

import numpy as np
import pytest
from scipy.special import ndtr

from tvpdr.distribution import (
    ConditionalCdf,
    Quantile,
    ThresholdGrid,
    build_threshold_grid,
    cdf_derivative,
    cdf_interpolate,
    conditional_cdf,
    forecast_predictive,
    quantile_from_cdf,
)
from tvpdr.model import ModelSpec, PROBIT, apply_design_transform, run_gibbs
from tvpdr.samplers import RngHandle

from reference import probit_mixture_cdf


def test_grid_counts_and_endpoints():
    g = build_threshold_grid(0.0, 9.1, 0.1)
    assert g.n == 92
    assert np.isclose(g.points[-1], 9.1)
    g2 = build_threshold_grid(-2.0, 4.0, 0.5)
    assert g2.n == 13
    assert g2.points[0] == -2.0
    # non-multiple range stops at the largest point inside
    g3 = build_threshold_grid(0.0, 1.0, 0.3)
    assert g3.n == 4
    assert np.isclose(g3.points[-1], 0.9)


def test_grid_validation():
    with pytest.raises(ValueError):
        build_threshold_grid(1.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        build_threshold_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        build_threshold_grid(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        build_threshold_grid(0.0, np.inf, 0.1)
    with pytest.raises(ValueError):
        ThresholdGrid(points=np.array([0.0, 0.1, 0.3]), min_value=0.0,
                      max_value=0.3, step=0.1)


def test_conditional_cdf_matches_probit_mixture():
    # hand-built draws: per draw n, beta gives fit a_n at t; the averaged CDF
    # at threshold j must be mean_n Phi(fit_{n,j}); with fits from N(a, b^2)
    # the large-draw limit is Phi(a / sqrt(1 + b^2))
    rng = np.random.default_rng(0)
    n_draws, t_len = 40_000, 3
    grid = build_threshold_grid(-1.0, 1.0, 1.0)

    class FakeDraws:
        pass

    draws = FakeDraws()
    a = np.array([-0.3, 0.4, 1.1])  # one intercept level per threshold
    beta = np.zeros((n_draws, 3, t_len, 2))
    beta[:, :, :, 0] = (a[None, :] + 0.7 * rng.standard_normal((n_draws, 3)))[:, :, None]
    draws.beta = beta
    draws.grid = grid
    draws.design_transform = "identity"
    draws.d = 2
    draws.n_obs = t_len

    cdf = conditional_cdf(draws, np.array([1.0, 0.0]), 1, PROBIT)
    want = np.array([probit_mixture_cdf(ai, 0.7) for ai in a])
    assert np.all(np.abs(cdf.values - want) < 0.01)
    assert cdf.time_index == 1
    assert np.all(np.diff(cdf.values) >= 0.0)


def test_conditional_cdf_rearranges_only_when_needed():
    grid = build_threshold_grid(0.0, 1.0, 0.5)

    class FakeDraws:
        pass

    draws = FakeDraws()
    # single draw with deliberately unordered fits across thresholds
    beta = np.zeros((1, 3, 2, 1))
    beta[0, :, :, 0] = np.array([[0.5, 0.5], [-0.5, -0.5], [0.0, 0.0]])
    draws.beta = beta
    draws.grid = grid
    draws.design_transform = "identity"
    draws.d = 1
    draws.n_obs = 2
    cdf = conditional_cdf(draws, np.array([1.0]), 0, PROBIT)
    want = np.sort(ndtr(np.array([0.5, -0.5, 0.0])))
    assert np.allclose(cdf.values, want)


def test_quantile_interpolation_and_censoring():
    grid = build_threshold_grid(0.0, 1.0, 1.0)
    cdf = ConditionalCdf(grid=grid, values=np.array([0.0, 1.0]), x=np.ones(1),
                         time_index=0)
    q = quantile_from_cdf(cdf, 0.5)
    assert isinstance(q, Quantile)
    assert float(q) == 0.5 and not q.censored

    grid2 = build_threshold_grid(0.0, 2.0, 1.0)
    cdf2 = ConditionalCdf(grid=grid2, values=np.array([0.25, 0.5, 0.75]),
                          x=np.ones(1), time_index=0)
    # below the first grid value: censored at the left endpoint
    ql = quantile_from_cdf(cdf2, 0.1)
    assert float(ql) == 0.0 and ql.censored
    # above the last: censored at the right endpoint
    qr = quantile_from_cdf(cdf2, 0.9)
    assert float(qr) == 2.0 and qr.censored
    # interior linear interpolation: tau=0.375 sits halfway in the first cell
    qm = quantile_from_cdf(cdf2, 0.375)
    assert np.isclose(float(qm), 0.5) and not qm.censored
    with pytest.raises(ValueError):
        quantile_from_cdf(cdf2, 0.0)


def test_cdf_interpolate_boundary_extension():
    grid = build_threshold_grid(0.0, 1.0, 0.5)
    cdf = ConditionalCdf(grid=grid, values=np.array([0.2, 0.5, 0.8]),
                         x=np.ones(1), time_index=0)
    # inside: linear between knots
    assert np.isclose(cdf_interpolate(cdf, 0.25), 0.35)
    # one step below the grid the curve hits 0, one step above it hits 1
    assert cdf_interpolate(cdf, -0.5) == 0.0
    assert cdf_interpolate(cdf, 1.5) == 1.0
    assert np.isclose(cdf_interpolate(cdf, -0.25), 0.1)
    assert np.isclose(cdf_interpolate(cdf, 1.25), 0.9)
    # far outside stays clamped
    assert cdf_interpolate(cdf, -10.0) == 0.0
    assert cdf_interpolate(cdf, 10.0) == 1.0
    arr = cdf_interpolate(cdf, np.array([0.0, 0.5, 1.0]))
    assert np.allclose(arr, [0.2, 0.5, 0.8])


def fit_small_model(seed=0, t_len=40, monotone=True):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(t_len), rng.normal(size=t_len)])
    y = 0.5 * x[:, 1] + rng.normal(size=t_len)
    grid = build_threshold_grid(float(y.min()), float(y.max()), 0.5)
    spec = ModelSpec(d=2, grid=grid, iterations=120, burnin=40,
                     monotone=monotone, seed=seed)
    return run_gibbs(spec, (y, x)), x, y


def test_forecast_predictive_is_reproducible_and_monotone():
    draws, x, y = fit_small_model(seed=4)
    link = PROBIT
    a = forecast_predictive(draws, x[-1], RngHandle(9), link)
    b = forecast_predictive(draws, x[-1], RngHandle(9), link)
    assert np.array_equal(a.values, b.values)
    assert a.time_index == "predictive"
    assert np.all(np.diff(a.values) >= 0.0)
    c = forecast_predictive(draws, x[-1], RngHandle(10), link)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("transform", ["identity", "quadratic"])
def test_forecast_predictive_matches_the_integrated_oracle(transform):
    # For fixed draws the predictive CDF at threshold k is a mean of
    # Phi(x'beta_{n,T} + x'eta_n) over draws, so its expectation over
    # streams is mean_n Phi(x'beta_{n,T} / sqrt(1 + x' Sigma_n x)). The
    # fits are spread far apart across thresholds so the rearrangement
    # never reorders a curve, and the variances and |x| stay well away
    # from 1 so sigma for sigma2, x for x^2 or a lost sqrt would each be
    # more than 10 standard errors off at every threshold.
    rng = np.random.default_rng(3)
    x = apply_design_transform(np.array([[1.0, 1.3, -0.8]]), transform)[0]
    kept, k, t_len, d = 200, 4, 3, x.size
    grid = build_threshold_grid(0.0, 3.0, 1.0)

    class FakeDraws:
        pass

    draws = FakeDraws()
    draws.beta = 0.3 * rng.standard_normal((kept, k, t_len, d))
    draws.beta[..., 0] += np.array([-4.5, -1.5, 1.5, 4.5])[None, :, None]
    draws.sigma2 = np.exp(rng.uniform(np.log(1.5), np.log(4.0), (kept, k, d)))
    draws.grid = grid
    draws.d = d

    fits = draws.beta[:, :, -1, :] @ x
    spread = draws.sigma2 @ (x * x)
    oracle = ndtr(fits / np.sqrt(1.0 + spread)).mean(axis=0)

    curves = np.array([forecast_predictive(draws, x, RngHandle(8, stream=s), PROBIT).values
                       for s in range(240)])
    se = curves.std(axis=0, ddof=1) / np.sqrt(len(curves))
    assert np.all(se > 0.0)
    assert np.all(np.abs(curves.mean(axis=0) - oracle) < 4.0 * se)


def test_forecast_predictive_draws_one_innovation_per_kept_draw():
    # each kept draw takes one standard normal, shared by all its thresholds
    draws, x, y = fit_small_model(seed=6)
    xn = x[-1]
    pred = forecast_predictive(draws, xn, RngHandle(8, stream=3), PROBIT)

    z = RngHandle(8, stream=3).rng.standard_normal(draws.kept)
    fits = np.empty((draws.kept, draws.n_thresholds))
    for n in range(draws.kept):
        fits[n] = draws.beta[n, :, -1, :] @ xn + np.sqrt(draws.sigma2[n] @ (xn * xn)) * z[n]
    want = np.sort(ndtr(fits).mean(axis=0))
    assert np.array_equal(pred.values.view(np.int64), want.view(np.int64))

    used = RngHandle(8, stream=3)
    forecast_predictive(draws, xn, used, PROBIT)
    ref = RngHandle(8, stream=3).rng
    ref.standard_normal(draws.kept)
    assert np.array_equal(used.rng.random(4), ref.random(4))


def test_forecast_predictive_widens_the_insample_cdf():
    # the one-step curve folds in innovation noise, so it cannot be sharper
    # at the extremes than the in-sample curve at the last time point
    draws, x, y = fit_small_model(seed=5, t_len=60)
    inc = conditional_cdf(draws, x[-1], draws.n_obs - 1, PROBIT)
    prd = forecast_predictive(draws, x[-1], RngHandle(11), PROBIT)
    spread_in = inc.values.max() - inc.values.min()
    spread_out = prd.values.max() - prd.values.min()
    assert spread_out <= spread_in + 0.02


def test_cdf_derivative_matches_finite_differences():
    draws, x, y = fit_small_model(seed=6)
    j = draws.grid.n // 2
    t = 10
    point = x[t]
    step = 1e-5
    grad = cdf_derivative(draws, point, t, j, PROBIT)
    for i in range(2):
        hi, lo = point.copy(), point.copy()
        hi[i] += step
        lo[i] -= step
        fit_hi = draws.beta[:, j, t, :] @ hi
        fit_lo = draws.beta[:, j, t, :] @ lo
        fd = (ndtr(fit_hi).mean() - ndtr(fit_lo).mean()) / (2.0 * step)
        assert np.isclose(grad[i], fd, rtol=1e-6, atol=1e-10)


def test_cdf_derivative_rejects_transformed_designs():
    draws, x, y = fit_small_model(seed=7)
    draws.design_transform = "quadratic"
    with pytest.raises(ValueError, match="identity"):
        cdf_derivative(draws, x[0], 0, 0, PROBIT)


def test_conditional_cdf_validates_time_index():
    draws, x, y = fit_small_model(seed=8)
    with pytest.raises(ValueError):
        conditional_cdf(draws, x[0], draws.n_obs, PROBIT)
    with pytest.raises(ValueError):
        conditional_cdf(draws, x[0], -1, PROBIT)
