"""Acceptance checks, one per shipped guarantee, each printing a verdict line.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line per
criterion with the measured numbers next to it. The monotonicity run (4) and
the out-of-sample calibration run (7) dominate the runtime; the whole module
is a few minutes single-threaded. The slowest checks (c06, c07, c12) carry
the ``slow`` marker, so ``pytest -m "not slow"`` gives a quick inner loop;
a full run still runs them.
"""

import contextlib
import io
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from tvpdr import (
    BacktestPlan,
    ConditionalCdf,
    MacroDataset,
    ModelSpec,
    PosteriorDraws,
    ThresholdGrid,
    build_threshold_grid,
    cdf_derivative,
    compare_distributions,
    conditional_cdf,
    deflation_risk,
    excess_inflation_risk,
    expanding_window_backtest,
    pit_uniformity_band,
    run_gibbs,
)
from tvpdr.banded import assemble_precision, cholesky_banded, solve_banded
from tvpdr.cli import main
from tvpdr.model import draw_sigma2
from tvpdr.samplers import sample_gaussian_precision, stream_generator
from tvpdr.risk import DEFAULT_PROBES

from reference import (
    PHI0,
    band_to_dense,
    batch_means_se,
    dense_gibbs_reference,
    dense_monotone_gibbs_reference,
    dense_to_band,
    inverse_gamma_cdf,
    kolmogorov_distance,
)


def verdict(number, name, ok, detail):
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}): {detail}"


def random_banded_spd(rng, dim, bandwidth):
    b = np.zeros((dim, dim))
    for k in range(bandwidth + 1):
        idx = np.arange(dim - k)
        b[idx + k, idx] = rng.normal(size=dim - k)
    return b @ b.T + dim * np.eye(dim)


def test_c01_banded_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_factor = 0.0
    worst_solve = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 201))
        bw = int(rng.integers(1, min(dim, 7)))
        dense = random_banded_spd(rng, dim, bw)
        factor = cholesky_banded(dense_to_band(dense, bw))

        ref_l = np.linalg.cholesky(dense)
        err_f = np.max(np.abs(band_to_dense(factor, lower=True) - ref_l)) / np.max(np.abs(ref_l))
        worst_factor = max(worst_factor, err_f)

        rhs = rng.normal(size=dim)
        got = solve_banded(factor, solve_banded(factor, rhs), transpose=True)
        ref_x = np.linalg.solve(dense, rhs)
        err_s = np.max(np.abs(got - ref_x)) / np.max(np.abs(ref_x))
        worst_solve = max(worst_solve, err_s)
    elapsed = time.perf_counter() - t0
    ok = worst_factor <= 1e-10 and worst_solve <= 1e-8 and elapsed < 5.0
    verdict(1, "banded cholesky and solve vs dense", ok,
            f"factor {worst_factor:.2e} <= 1e-10, solve {worst_solve:.2e} <= 1e-8, "
            f"{elapsed:.1f}s < 5s, 100 instances")


def test_c02_precision_sampler_moments():
    rng = np.random.default_rng(202)
    t_len, d, n = 10, 2, 100_000
    design = rng.normal(size=(t_len, d))
    design[:, 0] = 1.0
    sigma2 = np.array([0.09, 0.25])
    precision = assemble_precision(design, sigma2)
    b = rng.normal(size=t_len * d)

    dense_k = band_to_dense(precision)
    cov = np.linalg.inv(dense_k)
    mu = np.linalg.solve(dense_k, b)

    gen = stream_generator(202)
    t0 = time.perf_counter()
    draws = np.empty((n, t_len * d))
    for i in range(n):
        draws[i] = sample_gaussian_precision(precision, b, gen)
    elapsed = time.perf_counter() - t0

    mean_se = np.sqrt(np.diag(cov) / n)
    z_mean = np.max(np.abs(draws.mean(axis=0) - mu) / mean_se)

    sample_cov = np.cov(draws, rowvar=False)
    cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    z_cov = np.max(np.abs(sample_cov - cov) / cov_se)

    ok = z_mean <= 3.0 and z_cov <= 3.0 and elapsed < 30.0
    verdict(2, "precision sampler mean and covariance", ok,
            f"max mean z {z_mean:.2f} <= 3, max cov z {z_cov:.2f} <= 3, "
            f"{elapsed:.1f}s < 30s at 1e5 draws")


def test_c03_variance_update_distribution():
    n = 1_000_000
    path = np.array([0.0, 0.3, -0.2, 0.5])
    beta = np.repeat(path[:, None], n, axis=1)  # one identical column per draw
    nu, s = 3.0, 0.01
    samples = draw_sigma2(beta, nu, s, stream_generator(303))

    shape = nu + 0.5 * (path.size - 1)
    scale = s + 0.5 * float(np.sum(np.diff(path) ** 2))
    ks = kolmogorov_distance(samples, lambda x: inverse_gamma_cdf(x, shape, scale))
    ok = ks < 0.01
    verdict(3, "variance update matches inverse gamma", ok,
            f"Kolmogorov distance {ks:.5f} < 0.01 at 1e6 draws, "
            f"shape {shape:g}, scale {scale:.4g}")


def test_c04_monotone_ordering_zero_violations():
    rng = np.random.default_rng(404)
    t_len, d = 100, 3
    design = np.column_stack([np.ones(t_len), rng.normal(size=(t_len, 2))])
    y = 0.6 * design[:, 1] - 0.3 * design[:, 2] + rng.normal(size=t_len)
    step = (float(y.max()) - float(y.min())) / 19.0
    grid = build_threshold_grid(float(y.min()), float(y.max()), step)
    assert grid.n == 20
    spec = ModelSpec(d=d, grid=grid, iterations=2000, burnin=500,
                     monotone=True, seed=404)

    t0 = time.perf_counter()
    draws = run_gibbs(spec, (y, design))
    elapsed = time.perf_counter() - t0

    violations = 0
    for k in range(draws.kept):
        fits = np.empty((grid.n, t_len))
        for j in range(grid.n):
            # the exact accumulation the sampler itself uses
            fits[j] = np.einsum("td,td->t", design, draws.beta[k, j])
        violations += int(np.sum(np.diff(fits, axis=0) < 0.0))
    ok = violations == 0 and elapsed < 600.0
    verdict(4, "monotone mode has zero ordering violations", ok,
            f"{violations} violations across {draws.kept} kept draws x "
            f"{grid.n - 1} adjacent pairs x {t_len} times, {elapsed:.0f}s < 600s")


def test_c05_posterior_recovery_constant_dgp():
    rng = np.random.default_rng(505)
    t_len = 300
    x = rng.normal(size=t_len)
    design = np.column_stack([np.ones(t_len), x])
    y = 0.7 * x + rng.normal(size=t_len)
    # P(y <= 0 | x) = Phi(-0.7 x), so the single-threshold truth is (0, -0.7)
    truth = np.array([0.0, -0.7])
    grid = ThresholdGrid(points=np.array([0.0]), min_value=0.0, max_value=0.0, step=0.5)
    spec = ModelSpec(d=2, grid=grid, iterations=4000, burnin=1000,
                     monotone=False, ig_prior_s=0.1, seed=505)
    draws = run_gibbs(spec, (y, design))

    paths = draws.beta[:, 0]  # (kept, T, 2)
    post_mean = paths.mean(axis=0)
    post_sd = paths.std(axis=0, ddof=1)
    covered = np.abs(post_mean - truth) <= 3.0 * post_sd
    frac = float(covered.mean())
    ok = frac >= 0.95
    verdict(5, "constant-coefficient recovery", ok,
            f"truth inside 3 posterior sd at {frac:.1%} of {covered.size} "
            f"path points (need >= 95%)")


@pytest.mark.slow
def test_c06_dense_reference_gibbs_agreement():
    rng = np.random.default_rng(606)
    t_len = 5
    design = np.ones((t_len, 1))
    y = rng.normal(size=t_len) + 0.4
    grid = ThresholdGrid(points=np.array([0.0]), min_value=0.0, max_value=0.0, step=0.5)
    iterations, burnin = 6000, 1000

    diffs = np.empty((5, t_len))
    ses = np.empty((5, t_len))
    for s in range(5):
        spec = ModelSpec(d=1, grid=grid, iterations=iterations, burnin=burnin,
                         monotone=False, seed=s)
        mine = run_gibbs(spec, (y, design))
        chain = mine.beta[:, 0, :, 0]  # (kept, T)

        ref_beta, _ = dense_gibbs_reference(
            y, design, 0.0, nu=3.0, s=0.01,
            iterations=iterations, burnin=burnin,
            rng=np.random.default_rng(7000 + s),
        )
        ref_chain = ref_beta[:, :, 0]

        diffs[s] = chain.mean(axis=0) - ref_chain.mean(axis=0)
        ses[s] = np.array([
            np.hypot(batch_means_se(chain[:, t]), batch_means_se(ref_chain[:, t]))
            for t in range(t_len)
        ])

    mean_diff = diffs.mean(axis=0)
    pooled_se = np.sqrt(np.sum(ses**2, axis=0)) / 5.0
    z = np.max(np.abs(mean_diff) / pooled_se)
    ok = z <= 3.0
    verdict(6, "matches dense reference Gibbs", ok,
            f"max |mean difference| / MC se = {z:.2f} <= 3 over 5 seeds, "
            f"largest gap {np.max(np.abs(mean_diff)):.4f}")


@pytest.mark.slow
def test_c12_monotone_matches_sequential_scan_reference():
    # the red-black threshold sweep and the stacked intercept system change
    # the scan order, not the target: posterior path means must match a
    # literal single-site, threshold-by-threshold monotone Gibbs sampler
    rng = np.random.default_rng(1212)
    t_len = 5
    y = rng.normal(size=t_len) + 0.3
    points = np.array([-0.4, 0.3, 1.0])
    grid = ThresholdGrid(points=points, min_value=-0.4, max_value=1.0, step=0.7)
    spec = ModelSpec(d=1, grid=grid, iterations=2500, burnin=300, monotone=True,
                     ig_prior_s=0.1, seed=12)

    t0 = time.perf_counter()
    mine = run_gibbs(spec, (y, np.ones((t_len, 1)))).beta[:, :, :, 0]
    ref = dense_monotone_gibbs_reference(y, points, nu=3.0, s=0.1, iterations=1000, burnin=300,
                                         chains=40, rng=np.random.default_rng(1200))
    elapsed = time.perf_counter() - t0

    chain_means = ref.mean(axis=1)  # (chains, K, T), independent chains
    ref_se = chain_means.std(axis=0, ddof=1) / np.sqrt(chain_means.shape[0])
    my_se = np.array([[batch_means_se(mine[:, j, t]) for t in range(t_len)]
                      for j in range(grid.n)])
    gap = mine.mean(axis=0) - chain_means.mean(axis=0)
    z = np.max(np.abs(gap) / np.hypot(my_se, ref_se))
    ok = z <= 3.0
    verdict(12, "monotone sampler matches sequential-scan reference", ok,
            f"max |mean difference| / MC se = {z:.2f} <= 3 over {grid.n} x {t_len} "
            f"path points, largest gap {np.max(np.abs(gap)):.4f}, {elapsed:.0f}s")


@pytest.mark.slow
def test_c07_out_of_sample_calibration():
    # covariate-driven Gaussian outcomes are exactly probit-representable at
    # every threshold, so a calibrated fit is attainable out of sample
    rng = np.random.default_rng(707)
    n = 560
    u = np.empty(n)
    u[0] = 0.0
    for t in range(1, n):
        u[t] = 0.9 * u[t - 1] + 0.5 * rng.normal()
    infl = np.empty(n)
    infl[0] = 2.0 + rng.normal()
    for t in range(1, n):
        infl[t] = 2.0 + 0.5 * u[t - 1] + rng.normal()
    prices = np.empty(n)
    prices[0] = 100.0
    for t in range(1, n):
        prices[t] = prices[t - 1] * np.exp(infl[t] / 400.0)
    dates = tuple(f"{1900 + i // 4}Q{i % 4 + 1}" for i in range(n))
    ds = MacroDataset(dates=dates, series={"P": prices, "u": u}, codes={})
    ds = ds.with_inflation("P", 1)

    spread = float(infl[1:].max() - infl[1:].min())
    grid = build_threshold_grid(float(infl[1:].min()), float(infl[1:].max()), spread / 14.0)
    spec = ModelSpec(d=2, grid=grid, iterations=500, burnin=100,
                     monotone=False, seed=707)
    plan = BacktestPlan(dates[0], dates[159], refit_every=4)

    t0 = time.perf_counter()
    result = expanding_window_backtest(plan, spec, ds, ("u",))
    elapsed = time.perf_counter() - t0

    pits = np.array([r.pit for r in result.records])
    ks = kolmogorov_distance(pits, lambda v: np.clip(v, 0.0, 1.0))
    band = pit_uniformity_band(pits.size, 0.95)
    exceed = float(np.mean([r.realized <= r.quantiles[0.05] for r in result.records]))
    ok = (not result.failures and pits.size >= 400
          and ks <= band and 0.03 <= exceed <= 0.07)
    verdict(7, "out-of-sample calibration", ok,
            f"{pits.size} origins, PIT KS {ks:.4f} inside 95% band {band:.4f}, "
            f"5% quantile exceedance {exceed:.3f} in [0.03, 0.07], {elapsed:.0f}s")


def gaussian_cdf(mean=0.0, sd=1.0, lo=-8.0, hi=8.0, step=0.002):
    grid = build_threshold_grid(lo, hi, step)
    values = ndtr((grid.points - mean) / sd)
    return ConditionalCdf(grid=grid, values=values)


def test_c08_risk_measure_oracle():
    cdf = gaussian_cdf()
    lo_t, hi_t = 0.0, 1.0

    dr0 = deflation_risk(cdf, lo_t, 0.0)
    dr1 = deflation_risk(cdf, lo_t, 1.0)
    eir0 = excess_inflation_risk(cdf, hi_t, 0.0)
    eir1 = excess_inflation_risk(cdf, hi_t, 1.0)
    # partial moments of N(0,1): E[(t-Y)1{Y<=t}] = (t-mu)Phi(z) + sd phi(z)
    exact = {
        "dr0": -ndtr(0.0),
        "dr1": -PHI0,
        "eir0": 1.0 - ndtr(1.0),
        "eir1": float(np.exp(-0.5) / np.sqrt(2 * np.pi) - (1.0 - ndtr(1.0))),
    }
    errs = {
        "dr0": abs(dr0 - exact["dr0"]),
        "dr1": abs(dr1 - exact["dr1"]),
        "eir0": abs(eir0 - exact["eir0"]),
        "eir1": abs(eir1 - exact["eir1"]),
    }

    # independent cell reconstruction for the probability decomposition
    pts, v, step = cdf.grid.points, cdf.values, cdf.grid.step
    mids = np.concatenate([[pts[0] - step / 2], (pts[:-1] + pts[1:]) / 2,
                           [pts[-1] + step / 2]])
    masses = np.concatenate([[v[0]], np.diff(v), [1.0 - v[-1]]])
    interior = float(masses[(mids > lo_t) & (mids < hi_t)].sum())
    decomp = abs(abs(dr0) + interior + eir0 - 1.0)

    ok = max(errs.values()) <= 2e-3 and decomp <= 1e-6
    verdict(8, "risk measures vs analytic partial moments", ok,
            f"worst oracle gap {max(errs.values()):.2e} <= 2e-3, "
            f"|DR| + interior + EIR off 1 by {decomp:.1e} <= 1e-6")


def test_c09_derivative_finite_difference():
    rng = np.random.default_rng(909)
    kept, k, t_len, d = 1000, 5, 8, 3
    grid = build_threshold_grid(-1.0, 1.0, 0.5)
    beta = 0.3 * rng.normal(size=(kept, k, t_len, d))
    # spread the intercepts so the averaged curve is strictly increasing in j
    beta[:, :, :, 0] += np.linspace(-2.4, 2.4, k)[None, :, None]
    draws = PosteriorDraws(grid=grid, beta=beta,
                           sigma2=np.full((kept, k, d), 0.01),
                           seed=0, stream=0, spec_hash="x" * 64, data_hash="y" * 64)
    x = np.array([1.0, 0.4, -0.8])
    t, h = 4, 1e-5

    worst = 0.0
    for j in range(k):
        analytic = cdf_derivative(draws, x, t, j)
        fd = np.empty(d)
        for c in range(d):
            hi = x.copy()
            lo = x.copy()
            hi[c] += h
            lo[c] -= h
            up = conditional_cdf(draws, hi, t).values[j]
            dn = conditional_cdf(draws, lo, t).values[j]
            fd[c] = (up - dn) / (2 * h)
        worst = max(worst, float(np.max(np.abs(analytic - fd)) / np.max(np.abs(analytic))))
    ok = worst <= 1e-6
    verdict(9, "cdf derivative vs central differences", ok,
            f"worst relative gap {worst:.2e} <= 1e-6 over {k} thresholds, "
            f"{kept} draws, step {h:g}")


def write_quarterly_csv(path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    infl = 2.0 + 0.8 * rng.normal(size=n)
    u = np.round(rng.normal(size=n), 2)
    u[40] = 3.39  # 2010Q1
    u[48] = 1.73  # 2012Q1
    prices = np.empty(n)
    prices[0] = 100.0
    for t in range(1, n):
        prices[t] = prices[t - 1] * np.exp(infl[t] / 400.0)
    dates = [f"{2000 + i // 4}Q{i % 4 + 1}" for i in range(n)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,P,u\n")
        for i in range(n):
            fh.write(f"{dates[i]},{float(prices[i])!r},{float(u[i])!r}\n")
    return dates


DATA_ARGS = ["--price-column", "P", "--horizon", "1", "--covariates", "u"]
FAST_MODEL = ["--iters", "40", "--burnin", "10", "--monotone", "off",
              "--grid-step", "0.5", "--seed", "6"]


def test_c10_counterfactual_arithmetic_and_layout(tmp_path):
    csv = str(tmp_path / "macro.csv")
    write_quarterly_csv(csv)
    ds = MacroDataset(
        dates=tuple(f"{2000 + i // 4}Q{i % 4 + 1}" for i in range(60)),
        series={"u": np.where(np.arange(60) == 40, 3.39,
                              np.where(np.arange(60) == 48, 1.73, 0.5))},
        codes={},
    )
    eased = ds.with_shift("u", -5.0, ("2010Q1", "2010Q4"))
    v_down = float(eased.series["u"][40])
    tightened = ds.with_shift("u", 5.0, ("2012Q1", "2012Q4"))
    v_up = float(tightened.series["u"][48])
    exact = v_down == 3.39 - 5.0 and v_up == 1.73 + 5.0
    displayed = f"{v_down:.2f}" == "-1.61" and f"{v_up:.2f}" == "6.73"

    est = str(tmp_path / "est")
    assert main(["estimate", "--data", csv, *DATA_ARGS, *FAST_MODEL, "--out", est]) == 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([
            "counterfactual", "--data", csv, *DATA_ARGS, "--estimate", est,
            "--variable", "u", "--delta", "-5", "--start", "2010Q1", "--end", "2010Q4",
            "--probes", "3,4,5,6",
        ])
    rows = [line.split("\t") for line in buf.getvalue().strip().split("\n")]
    layout = (code == 0
              and rows[0] == ["statistic", "baseline", "counterfactual"]
              and [r[0] for r in rows[1:]] ==
              ["mean", "p_above_3", "p_above_4", "p_above_5", "p_above_6"])
    assert DEFAULT_PROBES == (3.0, 4.0, 5.0, 6.0)

    ok = exact and displayed and layout
    verdict(10, "counterfactual arithmetic and report layout", ok,
            f"3.39 - 5 -> {v_down:.2f}, 1.73 + 5 -> {v_up:.2f}, exact float "
            f"equality {exact}, table order {'ok' if layout else 'wrong'}")


def test_c11_estimate_determinism(tmp_path):
    csv = str(tmp_path / "macro.csv")
    write_quarterly_csv(csv, seed=5)
    dirs = [str(tmp_path / "est_a"), str(tmp_path / "est_b")]
    for where in dirs:
        assert main(["estimate", "--data", csv, *DATA_ARGS, *FAST_MODEL,
                     "--out", where]) == 0

    names = [sorted(os.listdir(d)) for d in dirs]
    same_files = names[0] == names[1]
    same_bytes = same_files and all(
        Path(dirs[0], f).read_bytes() == Path(dirs[1], f).read_bytes()
        for f in names[0]
    )
    ok = same_files and same_bytes
    verdict(11, "identical seed gives byte-identical estimates", ok,
            f"{len(names[0])} files compared byte for byte: "
            f"{'identical' if same_bytes else 'DIFFER'}")
