"""Grid construction, CDF averaging, rearrangement, quantiles, derivatives."""

import numpy as np
import pytest
from scipy.special import ndtr

from tvpdr.distribution import (
    ConditionalCdf,
    Quantile,
    PROBIT,
    ThresholdGrid,
    apply_design_transform,
    build_threshold_grid,
    cdf_derivative,
    cdf_interpolate,
    conditional_cdf,
    forecast_predictive,
    quantile_from_cdf,
)
from tvpdr.model import ModelSpec, PosteriorDraws, run_gibbs
from tvpdr.samplers import stream_generator

from reference import (frozen_closed_form_predictive, frozen_conditional_cdf,
                       frozen_forecast_predictive, probit_mixture_cdf)


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


def test_grid_refuses_more_than_max_thresholds():
    # refused before the points are allocated: a mistyped --grid-step of 1e-9
    # over a range of 6.45 asked for 48 GiB
    assert build_threshold_grid(0.0, 9999.0, 1.0).n == 10_000
    with pytest.raises(ValueError, match=r"grid step 0.0001 over \[0, 1\] gives 10001 "
                                         r"thresholds, more than 10000"):
        build_threshold_grid(0.0, 1.0, 1e-4)
    with pytest.raises(ValueError, match=r"gives inf thresholds"):
        build_threshold_grid(0.0, 1.0, 5e-324)


@pytest.mark.parametrize("field, value", [
    ("points", [-1.0, np.nan, 1.0]), ("points", [np.nan]), ("points", [-1.0, 0.0, np.inf]),
    ("min_value", np.nan), ("max_value", np.nan), ("max_value", np.inf),
    ("step", np.nan), ("step", np.inf),
])
def test_grid_refuses_non_finite_values(field, value):
    # every ordering and spacing comparison is False on NaN, so without its
    # own check a NaN grid would pass them all
    args = {"points": [-1.0, 0.0, 1.0], "min_value": -1.0, "max_value": 1.0, "step": 1.0}
    ThresholdGrid(**args)
    args[field] = value
    with pytest.raises(ValueError, match="must be finite"):
        ThresholdGrid(**args)


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

    cdf = conditional_cdf(draws, np.array([1.0, 0.0]), 1)
    want = np.array([probit_mixture_cdf(ai, 0.7) for ai in a])
    assert np.all(np.abs(cdf.values - want) < 0.01)
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
    cdf = conditional_cdf(draws, np.array([1.0]), 0)
    want = np.sort(ndtr(np.array([0.5, -0.5, 0.0])))
    assert np.allclose(cdf.values, want)
    # a finalized curve is never rearranged: unsorted values are refused
    with pytest.raises(ValueError, match="must be non-decreasing; sort them first"):
        ConditionalCdf(grid=grid, values=np.array([0.5, 0.3, 0.8]))


def test_quantile_interpolation_and_censoring():
    grid = build_threshold_grid(0.0, 1.0, 1.0)
    cdf = ConditionalCdf(grid=grid, values=np.array([0.0, 1.0]))
    q = quantile_from_cdf(cdf, 0.5)
    assert isinstance(q, Quantile)
    assert float(q) == 0.5 and not q.censored

    grid2 = build_threshold_grid(0.0, 2.0, 1.0)
    cdf2 = ConditionalCdf(grid=grid2, values=np.array([0.25, 0.5, 0.75]))
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
    cdf = ConditionalCdf(grid=grid, values=np.array([0.2, 0.5, 0.8]))
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
    # infinities read exactly 0 and 1; NaN has no probability to read
    assert cdf_interpolate(cdf, -np.inf) == 0.0 and cdf_interpolate(cdf, np.inf) == 1.0
    for at in (np.nan, np.array([0.25, np.nan])):
        with pytest.raises(ValueError, match="cannot read a CDF at NaN"):
            cdf_interpolate(cdf, at)


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
    a = forecast_predictive(draws, x[-1])
    b = forecast_predictive(draws, x[-1])
    assert np.array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) >= 0.0)


@pytest.mark.parametrize("transform", ["identity", "quadratic"])
def test_forecast_predictive_matches_the_integrated_oracle(transform):
    # The simulated predictive CDF at threshold k is a mean of
    # Phi(x'beta_{n,T} + x'eta_n) over draws, so its expectation over
    # streams is the closed form mean_n Phi(x'beta_{n,T} / sqrt(1 + x' Sigma_n x)).
    # The fits are spread far apart across thresholds so the rearrangement
    # never reorders a curve, and the variances and |x| stay well away
    # from 1 so sigma for sigma2, x for x^2 or a lost sqrt would each be
    # more than 10 standard errors off at every threshold.
    rng = np.random.default_rng(3)
    raw = np.array([1.0, 1.3, -0.8])
    x = apply_design_transform(raw, transform)[0]
    kept, k, t_len, d = 200, 4, 3, x.size
    grid = build_threshold_grid(0.0, 3.0, 1.0)

    class FakeDraws:
        pass

    draws = FakeDraws()
    draws.beta = 0.3 * rng.standard_normal((kept, k, t_len, d))
    draws.beta[..., 0] += np.array([-4.5, -1.5, 1.5, 4.5])[None, :, None]
    draws.sigma2 = np.exp(rng.uniform(np.log(1.5), np.log(4.0), (kept, k, d)))
    draws.grid = grid
    draws.design_transform = transform
    draws.d = d

    exact = forecast_predictive(draws, raw).values
    curves = np.array([frozen_forecast_predictive(draws, x, stream_generator(8, s), PROBIT)
                       for s in range(240)])
    se = curves.std(axis=0, ddof=1) / np.sqrt(len(curves))
    assert np.all(se > 0.0)
    assert np.all(np.abs(curves.mean(axis=0) - exact) < 4.0 * se)


@pytest.mark.parametrize("steps", [2, 4])
def test_forecast_predictive_steps_match_simulated_random_walks(steps):
    # j steps past beta_T the state is beta_T + eta_1 + ... + eta_j, each
    # eta ~ N(0, diag(sigma2)). Simulating those innovations coordinate by
    # coordinate, stream by stream, estimates the j-step curve without the
    # closed form; the one-step curve is far outside its error.
    rng = np.random.default_rng(4)
    raw = np.array([1.0, 1.3])
    kept, k, d = 200, 4, 2
    draws = PosteriorDraws(
        grid=build_threshold_grid(0.0, 3.0, 1.0),
        beta=0.3 * rng.standard_normal((kept, k, 2, d)) + np.array([-3.0, -1.0, 1.0, 3.0])[
            None, :, None, None] * np.array([1.0, 0.0]),
        sigma2=np.exp(rng.uniform(np.log(0.2), np.log(0.6), (kept, k, d))),
        seed=0, stream=0, spec_hash="", data_hash="")

    def simulated(gen):
        beta = draws.beta[:, :, -1, :].copy()
        for _ in range(steps):
            beta += np.sqrt(draws.sigma2) * gen.standard_normal(beta.shape)
        return np.sort(ndtr(beta @ raw).mean(axis=0))

    curves = np.array([simulated(stream_generator(9, s)) for s in range(240)])
    mean, se = curves.mean(axis=0), curves.std(axis=0, ddof=1) / np.sqrt(len(curves))
    assert np.all(se > 0.0)
    assert np.all(np.abs(mean - forecast_predictive(draws, raw, steps=steps).values) < 4.0 * se)
    assert np.any(np.abs(mean - forecast_predictive(draws, raw).values) > 10.0 * se)


def test_forecast_predictive_one_step_is_the_default_and_steps_are_counts():
    draws, x, _ = fit_small_model(seed=5, t_len=20)
    one = forecast_predictive(draws, x[-1])
    assert forecast_predictive(draws, x[-1], steps=1).values.tobytes() == one.values.tobytes()
    assert forecast_predictive(draws, x[-1], steps=np.int64(1)).values.tobytes() == \
        one.values.tobytes()
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"steps must be a positive integer, got {bad}"):
            forecast_predictive(draws, x[-1], steps=bad)
    for bad in (1.5, None, True):
        with pytest.raises(TypeError, match=f"steps must be an integer, got {bad}"):
            forecast_predictive(draws, x[-1], steps=bad)


def test_forecast_predictive_widens_the_insample_cdf():
    # the one-step curve folds in innovation noise, so it cannot be sharper
    # at the extremes than the in-sample curve at the last time point
    draws, x, y = fit_small_model(seed=5, t_len=60)
    inc = conditional_cdf(draws, x[-1], draws.n_obs - 1)
    prd = forecast_predictive(draws, x[-1])
    spread_in = inc.values.max() - inc.values.min()
    spread_out = prd.values.max() - prd.values.min()
    assert spread_out <= spread_in + 0.02


def test_cdf_derivative_matches_finite_differences():
    draws, x, y = fit_small_model(seed=6)
    j = draws.grid.n // 2
    t = 10
    point = x[t]
    step = 1e-5
    grad = cdf_derivative(draws, point, t, j)
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
        cdf_derivative(draws, x[0], 0, 0)


def test_conditional_cdf_validates_time_index():
    draws, x, y = fit_small_model(seed=8)
    with pytest.raises(ValueError):
        conditional_cdf(draws, x[0], draws.n_obs)
    with pytest.raises(ValueError):
        conditional_cdf(draws, x[0], -1)


@pytest.mark.parametrize("kept", [1, 63, 64, 65, 997])
def test_blocked_read_curves_equal_the_one_shot_curves(kept):
    # in-memory (iteration-major) and loaded (time-major) layouts, one and
    # many thresholds, with kept on and off the 64-draw block boundary
    rng = np.random.default_rng(kept)
    t_len = 4
    for k, d in ((1, 1), (2, 3), (65, 3)):
        grid = ThresholdGrid(points=np.arange(k, dtype=float), min_value=0.0,
                             max_value=float(k - 1), step=1.0)
        beta = 0.4 * rng.standard_normal((kept, k, t_len, d))
        beta[..., 0] += np.linspace(-2.0, 2.0, k)[:, None]
        time_major = np.ascontiguousarray(beta.transpose(2, 0, 1, 3)).transpose(1, 2, 0, 3)
        sigma2 = rng.gamma(2.0, 0.1, size=(kept, k, d))
        x = np.concatenate(([1.0], rng.standard_normal(d - 1)))
        for layout in (beta, time_major):
            draws = PosteriorDraws(grid=grid, beta=layout, sigma2=sigma2, seed=0, stream=0,
                                   spec_hash="a", data_hash="b")
            for t in (0, t_len - 1):
                got = conditional_cdf(draws, x, t).values
                assert got.tobytes() == frozen_conditional_cdf(draws, x, t, PROBIT).tobytes()
            got = forecast_predictive(draws, x).values
            assert got.tobytes() == frozen_closed_form_predictive(draws, x, PROBIT).tobytes()


@pytest.mark.parametrize("transform", ["identity", "quadratic"])
def test_reads_take_the_raw_rows_the_fit_took(transform):
    # run_gibbs maps raw rows (intercept first) through the spec's design
    # transform, and so do the readers: the same rows go into both
    rng = np.random.default_rng(12)
    t_len = 30
    x = np.column_stack([np.ones(t_len), rng.standard_normal((t_len, 2))])
    y = 1.0 + 0.5 * x[:, 1] + rng.standard_normal(t_len)
    grid = build_threshold_grid(float(y.min()), float(y.max()), 0.5)
    d = apply_design_transform(x[:1], transform).shape[1]
    spec = ModelSpec(d=d, grid=grid, design_transform=transform, iterations=60, burnin=20,
                     monotone=False, seed=2)
    draws = run_gibbs(spec, (y, x))
    assert draws.design_transform == transform and draws.d == (3 if transform == "identity" else 5)
    design = apply_design_transform(x, transform)
    for t in (0, t_len // 2, t_len - 1):
        got = conditional_cdf(draws, x[t], t).values
        assert got.tobytes() == frozen_conditional_cdf(draws, design[t], t, PROBIT).tobytes()
    got = forecast_predictive(draws, x[-1]).values
    assert got.tobytes() == frozen_closed_form_predictive(draws, design[-1], PROBIT).tobytes()
    # a row already mapped is not a raw row
    if transform == "quadratic":
        with pytest.raises(ValueError, match=r"x has shape \(5,\).*need \(5,\)"):
            conditional_cdf(draws, design[0], 0)
        with pytest.raises(ValueError, match=r"x_next has shape \(5,\)"):
            forecast_predictive(draws, design[-1])
