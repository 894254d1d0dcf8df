"""Gibbs updates: latent draws, state paths, variances, ordering constraint."""

from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.special import ndtr

from tvpdr.banded import assemble_precision
from tvpdr.distribution import PROBIT, apply_design_transform, build_threshold_grid, conditional_cdf
from tvpdr.evaluation import _last_quarter
from tvpdr.model import (
    EstimationError,
    ModelSpec,
    MonotonicityError,
    draw_beta_monotone,
    draw_beta_unconstrained,
    draw_latent,
    draw_sigma2,
    fitted_values,
    hash_data,
    initial_state,
    run_gibbs,
    _intercept_system,
    _latent_box,
    _repair_ordering,
)
from tvpdr.samplers import _draw, sample_truncated_normal, stream_generator

from reference import (
    band_to_dense,
    batch_means_se,
    dense_precision,
    frozen_band_matvec,
    frozen_draw_latent,
    frozen_draw_sigma2,
    inverse_gamma_cdf,
    kolmogorov_distance,
    monotone_successive_conditional,
    ordered_prior_draws,
    prior_draws,
    public_draw_loop,
    successive_conditional,
    truncated_normal_cdf,
)


def small_problem(seed=0, t_len=12, d=2):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(t_len)] + [rng.normal(size=t_len) for _ in range(d - 1)])
    y = 0.6 * x[:, -1] + rng.normal(size=t_len)
    return y, x


def test_design_transforms():
    x = np.array([[1.0, 2.0, -3.0]])
    assert np.array_equal(apply_design_transform(x, "identity"), x)
    quad = apply_design_transform(x, "quadratic")
    assert np.array_equal(quad, np.array([[1.0, 2.0, -3.0, 4.0, 9.0]]))
    with pytest.raises(ValueError):
        apply_design_transform(x, "cubic")


def test_fitted_values_is_the_canonical_order():
    rng = np.random.default_rng(1)
    design = rng.normal(size=(7, 3))
    beta = rng.normal(size=(7, 3))
    want = np.einsum("td,td->t", design, beta)
    assert np.array_equal(fitted_values(design, beta), want)


def test_model_spec_validation_and_hash():
    grid = build_threshold_grid(0.0, 1.0, 0.5)
    spec = ModelSpec(d=2, grid=grid)
    assert spec.iterations == 10000 and spec.burnin == 5000
    assert len(spec.spec_hash()) == 64
    other = ModelSpec(d=2, grid=grid, iterations=9000, burnin=4000)
    assert spec.spec_hash() != other.spec_hash()
    # the hash names the model, not the run: a seed change is run identity
    # and lives in the stored manifest instead
    assert spec.spec_hash() == ModelSpec(d=2, grid=grid, seed=9).spec_hash()
    with pytest.raises(ValueError):
        ModelSpec(d=0, grid=grid)
    with pytest.raises(ValueError):
        ModelSpec(d=2, grid=grid, burnin=10, iterations=10)
    # the model is probit by construction: the link is not a setting
    with pytest.raises(TypeError):
        ModelSpec(d=2, grid=grid, link="logit")
    with pytest.raises(ValueError):
        ModelSpec(d=2, grid=grid, ig_prior_s=-1.0)
    # one inverse gamma prior for every coefficient: per-coefficient values are refused
    for bad in ([3.0, 3.0], np.array([3.0]), float("nan")):
        with pytest.raises(ValueError, match="ig_prior_nu must be one positive number"):
            ModelSpec(d=2, grid=grid, ig_prior_nu=bad)
    with pytest.raises(ValueError, match="ig_prior_s must be one positive number"):
        ModelSpec(d=2, grid=grid, ig_prior_s=(0.01, 0.02))


def test_model_spec_seed_is_one_64_bit_integer():
    # the one seed of a run: it keys every random stream and goes into JSON
    # sidecars, so it is a plain int in [0, 2**64)
    grid = build_threshold_grid(0.0, 1.0, 0.5)
    for bad in (True, 1.5, None, "3"):
        with pytest.raises(TypeError, match="seed must be an integer"):
            ModelSpec(d=2, grid=grid, seed=bad)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            ModelSpec(d=2, grid=grid, seed=bad)
    for good in (np.uint64(2**64 - 1), np.int32(7)):
        spec = ModelSpec(d=2, grid=grid, seed=good)
        assert type(spec.seed) is int and spec.seed == int(good)
    with pytest.raises(ValueError, match="seed must lie"):
        replace(ModelSpec(d=2, grid=grid), seed=-1)


@pytest.mark.parametrize("field", ["d", "iterations", "burnin", "truncation_sweeps"])
def test_model_spec_counts_are_integers(field):
    # a float count fit the model of the int but hashed apart from it, a
    # numpy integer could not be hashed at all, and a fractional count
    # failed deep inside the sampler
    grid = build_threshold_grid(0.0, 1.0, 0.5)
    counts = {"d": 2, "iterations": 10000, "burnin": 5000, "truncation_sweeps": 5}
    for bad in (float(counts[field]), counts[field] + 0.5, True, "2"):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            ModelSpec(grid=grid, **{**counts, field: bad})
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            replace(ModelSpec(grid=grid, **counts), **{field: bad})
    spec = ModelSpec(grid=grid, **{**counts, field: np.int64(counts[field])})
    assert type(getattr(spec, field)) is int
    assert spec.spec_hash() == ModelSpec(grid=grid, **counts).spec_hash()


def test_spec_hash_is_pinned():
    # stored MANIFESTs and backtest sidecars carry these hashes; they move
    # only when the model does, never with a refactor of the spec's code
    grid = build_threshold_grid(0.0, 1.0, 0.5)
    assert ModelSpec(d=2, grid=grid).spec_hash() == (
        "587af11f1145e8bacd36db7bcb42060caefe2ffb65594a195de4d68317c8e047")
    spec = ModelSpec(d=3, grid=grid, monotone=False, ig_prior_s=0.1)
    assert spec.spec_hash() == (
        "19a0c066af0954a9846f27304e2f65cbf689c4cb7ee5efe3d0f6e385197c9176")


def test_spec_hash_names_every_field_but_the_seed():
    # every field that defines the model moves the hash, and the canonical
    # form holds nothing else but the first-state variance the model fixes,
    # so a retired option cannot linger in the hash
    grid = build_threshold_grid(0.0, 1.0, 0.5)
    spec = ModelSpec(d=2, grid=grid)
    changed = dict(d=3, grid=build_threshold_grid(0.0, 1.0, 0.25), design_transform="quadratic",
                   iterations=10001, burnin=4999, monotone=False, truncation_sweeps=4,
                   ig_prior_nu=2.5, ig_prior_s=0.02)
    names = {f.name for f in fields(ModelSpec)}
    assert set(changed) == names - {"seed"}
    for name, value in changed.items():
        assert replace(spec, **{name: value}).spec_hash() != spec.spec_hash(), name
    assert set(spec.canonical()) == set(changed) | {"first_state_variance"}



def test_hash_data_tracks_content():
    y, x = small_problem()
    h = hash_data(y, x)
    assert h == hash_data(y.copy(), x.copy())
    y2 = y.copy()
    y2[0] += 1e-12
    assert h != hash_data(y2, x)


def test_draw_latent_signs_match_indicator():
    y, x = small_problem(seed=2)
    beta = np.zeros((len(y), 2))
    z = draw_latent(np.median(y), y, fitted_values(x, beta), stream_generator(3))
    below = y <= np.median(y)
    assert np.all(z[below] > 0.0)
    assert np.all(z[~below] < 0.0)


def _same_draws(new_gen, old_gen, new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.array_equal(new.view(np.int64), old.view(np.int64))
    assert new_gen.random() == old_gen.random()


def test_draw_latent_matches_the_frozen_two_sided_draw():
    # draw_latent's bounds, built once per fit, and their one-ulp-inside clamps give
    # the public checked draw on the frozen two-sided bounds, bit for bit:
    # fits beyond 30 sd on either side of either bound, at the cutoff, so far
    # out that a draw rounds onto its bound 0 and is clamped, and exactly
    # zero, for single paths, batches and a broadcast threshold
    rs = np.random.default_rng(40)
    t_len = 30
    y = rs.normal(size=t_len)
    design = np.column_stack([np.ones(t_len), rs.normal(size=t_len)])
    far = [31.0, -31.0, 33.5, -33.5, 35.0, -35.0, 0.0, -0.0, 30.0, -30.0, 29.999, -29.999,
           1e20, -1e20]
    beta = np.zeros((3, t_len, 2))
    beta[:, :14, 0] = far  # slope 0: these fits are the intercepts exactly
    beta[:, 14:] = rs.normal(0.0, 3.0, size=(3, t_len - 14, 2))
    thresholds = np.array([-10.0, 0.0, 10.0])  # all above, mixed, all below
    calls = [(thresholds, beta), (thresholds[1], beta[1]), (0.0, beta), (-10.0, beta[2])]
    for threshold, paths in calls:
        seed = int(rs.integers(2**32))
        new_gen, old_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        new = draw_latent(threshold, y, fitted_values(design, paths), new_gen)
        old = frozen_draw_latent(threshold, y, design, paths, old_gen,
                                 draw=sample_truncated_normal)
        _same_draws(new_gen, old_gen, new, old)
    # fitted_values never returns -0.0; the core with _latent_box's bounds
    # and clamps still matches on it
    mean = np.array([[-0.0, 0.0, -0.0, 0.0, 31.0, -31.0, 1e20, -1e20]])
    positive = np.array([[True, True, False, False, True, False, False, True]])
    box = _latent_box(0.0, np.where(positive, -1.0, 1.0))
    new_gen, old_gen = np.random.default_rng(41), np.random.default_rng(41)
    old = sample_truncated_normal(mean, 1.0, box[0], box[1], old_gen)
    new = _draw(mean, 1.0, *box, new_gen)
    _same_draws(new_gen, old_gen, new, old)
    assert old[0, -2] == -5e-324 and old[0, -1] == 5e-324  # rounded onto 0, clamped


def test_draw_latent_follows_the_exact_law():
    # Each fit draws N(fit, 1) on (0, inf) in one row and on (-inf, 0) in the
    # next: zero fits, fits whose proposal lands on the right side mostly,
    # rarely and never, fits at the 30 sd cutoff and beyond it. Keeping a
    # proposal on the wrong side of 0, or redrawing a miss from the
    # untruncated normal, piles draws on the clamps and fails here.
    fit_values = [0.0, -0.0, 0.4, -1.5, 3.0, -29.5, 30.0, -31.0, 36.0]
    n = 20_000
    fits = np.repeat(np.array(fit_values), 2)[:, None] * np.ones(n)
    positive = np.tile([True, False], len(fit_values))
    z = draw_latent(np.where(positive, 1.0, -1.0), np.zeros(n), fits, stream_generator(43))
    assert np.all(np.where(positive[:, None], z > 0.0, z < 0.0))
    for m, side, row in zip(fits[:, 0], positive, z):
        cdf = truncated_normal_cdf(m, 1.0, *((0.0, np.inf) if side else (-np.inf, 0.0)))
        assert np.sqrt(n) * kolmogorov_distance(row, cdf) < 1.95, (m, side)
    # fits 1e20 sd from 0: on their own side they are the draw, exactly, and
    # across 0 the draw rounds onto 0 and is clamped one ulp inside
    fits = np.array([[1e20, -1e20, 1e20, -1e20]])
    z = draw_latent(np.array([1.0]), np.array([0.0, 2.0, 2.0, 0.0]), fits, stream_generator(44))
    assert np.array_equal(z, [[1e20, -1e20, -5e-324, 5e-324]])


def test_draw_latent_rejects_a_non_finite_fit():
    y, x = small_problem(seed=2)
    beta = np.zeros((len(y), 2))
    beta[3, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        draw_latent(0.0, y, fitted_values(x, beta), stream_generator(3))


def test_draw_sigma2_matches_the_frozen_draw():
    rs = np.random.default_rng(42)
    for shape in [(2, 1), (12, 3), (4, 12, 2), (33, 160, 3)]:
        beta = rs.normal(size=shape)
        seed = int(rs.integers(2**32))
        new_gen, old_gen = np.random.default_rng(seed), np.random.default_rng(seed)
        new = draw_sigma2(beta, 3.0, 0.01, new_gen)
        old = frozen_draw_sigma2(beta, 3.0, 0.01, old_gen)
        _same_draws(new_gen, old_gen, new, old)


def test_draw_sigma2_matches_the_frozen_draw_on_long_paths():
    # long enough that how the increments are summed over t shows: the
    # pairwise order at d = 1 and the sequential one at d > 1
    rs = np.random.default_rng(43)
    for d in (1, 2, 3, 4):
        for shape in [(160, d), (33, 160, d), (5, 257, d)]:
            beta = rs.normal(size=shape) * 10.0 ** rs.uniform(-3, 3, size=shape)
            seed = int(rs.integers(2**32))
            new_gen, old_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            new = draw_sigma2(beta, 3.0, 0.01, new_gen)
            old = frozen_draw_sigma2(beta, 3.0, 0.01, old_gen)
            _same_draws(new_gen, old_gen, new, old)


def test_draw_sigma2_matches_inverse_gamma_cdf():
    # increments of the test path are fixed, so the posterior is exactly
    # IG(nu + (T-1)/2, s + sum(diff^2)/2); nu=3, s=1, four unit increments
    # gives IG(5, 3) with mean 3/4. beta_1 = 1 has its own N(0, V) prior and
    # stays out: with it the posterior would be IG(5.5, 3.5)
    t_len = 5
    beta = np.cumsum(np.ones((t_len, 1)), axis=0)
    many = np.tile(beta, (1, 200_000))
    draws = draw_sigma2(many, 3.0, 1.0, stream_generator(4))
    dist = kolmogorov_distance(draws, lambda q: inverse_gamma_cdf(q, 5.0, 3.0))
    assert dist < 0.005
    assert abs(draws.mean() - 0.75) < 0.01
    with pytest.raises(ValueError, match="two positive numbers"):
        draw_sigma2(beta, np.array([3.0]), 1.0, stream_generator(7))


def test_unconstrained_beta_posterior_moments():
    # with latents fixed, beta | z is exactly N(K^{-1} X'z, K^{-1})
    rng = np.random.default_rng(7)
    t_len, d = 6, 2
    design = np.column_stack([np.ones(t_len), rng.normal(size=t_len)])
    z = rng.normal(size=t_len)
    sigma2 = np.array([0.5, 1.2])
    k = band_to_dense(assemble_precision(design, sigma2))
    cov = np.linalg.inv(k)
    mu = cov @ (design * z[:, None]).reshape(-1)

    gen = stream_generator(8)
    draws = np.stack([
        draw_beta_unconstrained(design, z, sigma2, gen).reshape(-1)
        for _ in range(50_000)
    ])
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 4.0 * se)


def test_monotone_draw_respects_neighbor_paths():
    y, x = small_problem(seed=9, t_len=20, d=2)
    t_len = len(y)
    lower = np.full(t_len, -0.8)
    upper = np.full(t_len, 1.1)
    gen = stream_generator(10)
    z = draw_latent(np.median(y), y, np.zeros(t_len), gen)
    beta = np.zeros((t_len, 2))  # the sweep clips the current intercepts into the box
    for _ in range(50):
        beta, fit = draw_beta_monotone(lower, upper, x, z, np.array([0.3, 0.3]), beta, gen)
        assert np.array_equal(fit, fitted_values(x, beta))
        assert np.all(fit >= lower), "fit fell below the lower neighbor"
        assert np.all(fit <= upper), "fit crossed the upper neighbor"


def test_monotone_draw_one_sided_and_unbounded():
    y, x = small_problem(seed=11, t_len=15, d=3)
    t_len = len(y)
    gen = stream_generator(12)
    z = draw_latent(np.median(y), y, np.zeros(t_len), gen)
    sig = np.full(3, 0.2)
    lo = np.full(t_len, 0.0)
    b = np.zeros((t_len, 3))
    for _ in range(20):
        b, fit = draw_beta_monotone(lo, None, x, z, sig, b, gen)
        assert np.all(fit >= lo)
    hi = np.full(t_len, 0.5)
    for _ in range(20):
        b, fit = draw_beta_monotone(None, hi, x, z, sig, b, gen)
        assert np.all(fit <= hi)
    # fully unconstrained falls back to the joint Gaussian draw
    b, fit = draw_beta_monotone(None, None, x, z, sig, b, gen)
    assert b.shape == (t_len, 3)
    assert np.array_equal(fit, fitted_values(x, b))
    with pytest.raises(ValueError, match="current paths"):
        draw_beta_monotone(lo, None, x, z, sig, np.zeros((t_len, 2)), gen)


def test_monotone_draw_detects_crossing_paths():
    y, x = small_problem(seed=13)
    t_len = len(y)
    gen = stream_generator(14)
    z = draw_latent(np.median(y), y, np.zeros(t_len), gen)
    lower = np.zeros(t_len)
    upper = np.zeros(t_len) - 0.1
    with pytest.raises(MonotonicityError, match="cross at t="):
        draw_beta_monotone(lower, upper, x, z, np.array([0.3, 0.3]), np.zeros((t_len, 2)),
                           gen)


def test_monotone_draw_requires_intercept():
    y, x = small_problem(seed=15)
    x = x.copy()
    x[:, 0] = 2.0
    gen = stream_generator(16)
    with pytest.raises(ValueError, match="intercept"):
        draw_beta_monotone(np.zeros(len(y)), None, x, np.zeros(len(y)),
                           np.array([0.3, 0.3]), np.zeros((len(y), 2)), gen)


def test_monotone_matches_unconstrained_when_single_threshold():
    # a lone threshold has no neighbors, so the constrained draw reduces to
    # the plain joint draw and consumes the random stream identically: the
    # two runs must agree bit for bit, not just in distribution
    from tvpdr.distribution import ThresholdGrid

    y, x = small_problem(seed=17, t_len=30, d=2)
    grid = ThresholdGrid(points=np.array([0.0]), min_value=0.0, max_value=0.0, step=0.5)
    spec_m = ModelSpec(d=2, grid=grid, iterations=80, burnin=20, monotone=True, seed=5)
    spec_u = ModelSpec(d=2, grid=grid, iterations=80, burnin=20, monotone=False, seed=5)
    dm = run_gibbs(spec_m, (y, x))
    du = run_gibbs(spec_u, (y, x))
    assert np.array_equal(dm.beta, du.beta)
    assert np.array_equal(dm.sigma2, du.sigma2)


def test_initial_state_is_ordered():
    y, x = small_problem(seed=18, t_len=40)
    grid = build_threshold_grid(float(y.min()), float(y.max()), 0.2)
    state = initial_state(y, grid, len(y), 2, PROBIT)
    assert np.all(np.diff(state.fitted, axis=0) > 0.0)
    assert state.beta.shape == (grid.n, len(y), 2)


def test_run_gibbs_shapes_metadata_and_reproducibility():
    y, x = small_problem(seed=19, t_len=25)
    grid = build_threshold_grid(float(y.min()), float(y.max()), 0.5)
    spec = ModelSpec(d=2, grid=grid, iterations=40, burnin=15, seed=77)
    a = run_gibbs(spec, (y, x))
    b = run_gibbs(spec, (y, x))
    assert a.beta.shape == (25, grid.n, 25, 2)
    assert a.sigma2.shape == (25, grid.n, 2)
    assert a.kept == 25
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.sigma2, b.sigma2)
    assert a.spec_hash == spec.spec_hash()
    assert a.data_hash == hash_data(y, x)
    assert a.seed == 77 and a.stream == 0
    # a different stream changes the draws but not the seed
    c = run_gibbs(spec, (y, x), stream=3)
    assert not np.array_equal(a.beta, c.beta)
    assert (c.seed, c.stream) == (77, 3)


def test_run_gibbs_draws_the_spec_seed_on_the_stream_it_records():
    # the seed is the spec's and the stream keyword-only, so a generator or
    # seed passed the old way fails loudly instead of being read as a stream
    y, x = small_problem(seed=19, t_len=12)
    grid = build_threshold_grid(float(y.min()), float(y.max()), 0.5)
    spec = ModelSpec(d=2, grid=grid, iterations=4, burnin=2, seed=5)
    draws = run_gibbs(spec, (y, x), stream=2)
    assert (draws.seed, draws.stream) == (5, 2)
    beta, sigma2 = public_draw_loop(spec, y, x, stream_generator(5, 2), stream_generator(5, 2, 1))
    assert np.array_equal(draws.beta, beta) and np.array_equal(draws.sigma2, sigma2)
    for old in (stream_generator(5), 5):
        with pytest.raises(TypeError, match="positional"):
            run_gibbs(spec, (y, x), old)


def test_run_gibbs_kept_ordering_every_iteration():
    y, x = small_problem(seed=20, t_len=30)
    grid = build_threshold_grid(float(y.min()), float(y.max()), 0.4)
    spec = ModelSpec(d=2, grid=grid, iterations=60, burnin=20, seed=3)
    draws = run_gibbs(spec, (y, x))
    for it in range(draws.kept):
        fits = np.stack([fitted_values(x, draws.beta[it, j]) for j in range(grid.n)])
        assert np.all(np.diff(fits, axis=0) >= 0.0)


def test_run_gibbs_validates_data():
    grid = build_threshold_grid(0.0, 1.0, 0.5)
    spec = ModelSpec(d=2, grid=grid, iterations=4, burnin=1)
    y = np.array([0.1, np.nan, 0.3])
    x = np.ones((3, 2))
    with pytest.raises(ValueError, match="missing"):
        run_gibbs(spec, (y, x))
    with pytest.raises(ValueError, match="intercept"):
        run_gibbs(spec, (np.zeros(3), np.full((3, 2), 2.0)))
    with pytest.raises(ValueError, match="columns"):
        run_gibbs(spec, (np.zeros(3), np.ones((3, 3))))


def test_run_gibbs_wraps_update_failures(monkeypatch):
    # any exception inside an update is re-raised with the iteration,
    # threshold index and threshold value attached
    import tvpdr.model as model_mod

    y, x = small_problem(seed=21)
    grid = build_threshold_grid(float(y.min()), float(y.max()), 1.0)
    spec = ModelSpec(d=2, grid=grid, iterations=3, burnin=1)

    def boom(*args, **kwargs):
        raise ValueError("forced failure")

    monkeypatch.setattr(model_mod, "_draw_sigma2", boom)
    with pytest.raises(EstimationError, match=r"iteration 0, threshold 0 \(y="):
        run_gibbs(spec, (y, x))


def test_stacked_precision_is_block_diagonal_of_single_paths():
    # one assembly for B paths must equal the B single-path assemblies side
    # by side, with every coupling across a path boundary exactly zero
    rng = np.random.default_rng(22)
    worst = 0.0
    for t_len, d, n_paths in [(2, 1, 3), (6, 2, 4), (9, 3, 5)]:
        design = rng.normal(size=(t_len, d))
        sigma2 = rng.uniform(0.05, 2.0, size=(n_paths, d))
        stacked = assemble_precision(design, sigma2)
        singles = [assemble_precision(design, sigma2[b]) for b in range(n_paths)]
        assert stacked.shape == (d + 1, n_paths * t_len * d)
        assert np.array_equal(stacked, np.hstack(singles))

        dense = band_to_dense(stacked)
        want = block_diag(*[dense_precision(design, sigma2[b]) for b in range(n_paths)])
        worst = max(worst, np.max(np.abs(dense - want)) / np.max(np.abs(want)))
        assert np.all(dense[want == 0.0] == 0.0)
    assert worst <= 1e-12


def test_intercept_system_matches_the_joint_system_bitwise():
    # the monotone intercept step builds its tridiagonal system from sigma2_0,
    # the latents and the slopes; it must be the intercept rows of the joint
    # precision K and of X'z - K rest to the last bit, including the first
    # and last rows, which lack a neighbour on one side
    rng = np.random.default_rng(24)
    t_len, n_paths = 7, 3
    for d in (1, 2, 3, 4):
        design = rng.normal(size=(t_len, d)) * 10.0 ** rng.uniform(-3, 3, size=(t_len, d))
        design[:, 0] = 1.0
        sigma2 = 10.0 ** rng.uniform(-3, 1, size=(n_paths, d))
        latent = rng.normal(size=(n_paths, t_len))
        rest = rng.normal(size=(n_paths, t_len, d))
        rest *= 10.0 ** rng.uniform(-3, 3, rest.shape)
        pinned = np.zeros((n_paths, t_len), dtype=bool)
        pinned[:, [0, 3, t_len - 1]] = True  # first, interior and last rows
        pinned[1] = ~pinned[1]
        pinned[2] = rng.random(t_len) < 0.5
        rest[..., 0] = np.where(pinned, rest[..., 0], 0.0)

        diag, off, rhs = _intercept_system(design, latent, sigma2, rest)
        precision = assemble_precision(design, sigma2)
        assert np.array_equal(diag.ravel(), precision[0, ::d])
        assert np.array_equal(off.ravel(), precision[d, ::d])
        xz = (latent[..., None] * design).ravel()
        assert np.array_equal(rhs.ravel(), (xz - frozen_band_matvec(precision, rest.ravel()))[::d])


def test_batched_fitted_values_match_single_calls_bitwise():
    # the ordering guarantee compares fits exactly, so the batched fit must
    # be the per-threshold fit to the last bit, whatever the memory layout
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 5, 8):
        design = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-3, 3, size=(40, d))
        beta = rng.normal(size=(6, 40, d)) * 10.0 ** rng.uniform(-3, 3, size=(6, 40, d))
        singles = np.stack([fitted_values(design, b) for b in beta])
        assert np.array_equal(fitted_values(design, beta), singles)
        assert np.array_equal(singles[0], np.einsum("td,td->t", design, beta[0]))
        assert np.array_equal(fitted_values(np.asfortranarray(design), beta[0]), singles[0])
        assert np.array_equal(fitted_values(design, np.asfortranarray(beta[0])), singles[0])


def test_draws_accept_a_leading_threshold_axis():
    y, x = small_problem(seed=26, t_len=10, d=2)
    beta = np.zeros((3, 10, 2))
    z = draw_latent(np.array([-0.5, 0.0, 0.5]), y, fitted_values(x, beta), stream_generator(27))
    assert z.shape == (3, 10)
    assert np.all((z > 0.0) == (y <= np.array([-0.5, 0.0, 0.5])[:, None]))
    sig = np.full((3, 2), 0.3)
    assert draw_beta_unconstrained(x, z, sig, stream_generator(28)).shape == (3, 10, 2)
    assert draw_sigma2(beta, 3.0, 0.01, stream_generator(29)).shape == (3, 2)
    lower = np.vstack([np.full(10, -np.inf), np.full((2, 10), -1.0)])
    upper = np.vstack([np.full((2, 10), 1.0), np.full(10, np.inf)])
    b, fits = draw_beta_monotone(lower, upper, x, z, sig, beta, stream_generator(30))
    assert b.shape == (3, 10, 2)
    assert np.array_equal(fits, fitted_values(x, b))
    assert np.all((fits >= lower) & (fits <= upper))


@pytest.mark.parametrize("rows", [[0, 1], [1]])
def test_monotone_draw_pins_degenerate_boxes(rows, monkeypatch):
    # Row 0's neighbours meet at t = 0, an interior t and T-1; row 1's meet
    # everywhere but t = 3, so alone it leaves the sweep one free intercept
    # and an empty odd colour. A pinned fit is its bound exactly. An exact
    # hit exists when the bound and the intercept that hits it (the bound
    # less the slope term) share the binade [4, 8); every joint draw checks
    # that premise on its slopes, so a stream that breaks it says so
    # (test_repair_leftover_raises has a point box that no fit can hit).
    import tvpdr.model as model_mod

    y, x = small_problem(seed=31, t_len=10, d=2)
    lower = np.vstack([np.full(10, 4.0), [5.75, 6.0, 6.25, 6.0, 6.25, 6.0, 6.0, 6.0, 5.5, 6.5]])
    upper = np.vstack([np.full(10, 6.0), lower[1]])
    lower[0, [0, 4, 9]] = upper[0, [0, 4, 9]] = [5.5, 5.5, 6.5]
    lower[1, 3] = 4.0
    lower, upper = lower[rows], upper[rows]
    pinned = lower == upper
    joint_draw = model_mod._draw_paths

    def checked_joint_draw(*args, **kwargs):
        joint = joint_draw(*args, **kwargs)
        hit = (lower - x[:, 1] * joint[..., 1])[pinned]
        assert np.all((hit >= 4.0) & (hit < 8.0)), f"premise broken: {hit}"
        return joint

    monkeypatch.setattr(model_mod, "_draw_paths", checked_joint_draw)
    gen = stream_generator(32)
    z = draw_latent(np.zeros(len(rows)), y, np.zeros((len(rows), 10)), gen)
    beta = np.zeros((len(rows), 10, 2))
    for _ in range(20):
        beta, fits = draw_beta_monotone(lower, upper, x, z, np.full((len(rows), 2), 0.3),
                                        beta, gen)
        assert np.array_equal(fits[pinned], lower[pinned])
        assert np.all((fits[~pinned] > lower[~pinned]) & (fits[~pinned] < upper[~pinned]))


@pytest.mark.parametrize("n_thresholds", [2, 3, 4])
def test_run_gibbs_monotone_small_grids_stay_ordered(n_thresholds):
    # even and odd color sets of every size up to two thresholds each
    y, x = small_problem(seed=24, t_len=30, d=3)
    lo = float(np.quantile(y, 0.2))
    step = float(np.quantile(y, 0.8) - lo) / (n_thresholds - 1)
    grid = build_threshold_grid(lo, lo + step * (n_thresholds - 1), step)
    assert grid.n == n_thresholds
    spec = ModelSpec(d=3, grid=grid, iterations=60, burnin=10, seed=n_thresholds)
    draws = run_gibbs(spec, (y, x))
    for it in range(draws.kept):
        fits = np.stack([fitted_values(x, draws.beta[it, j]) for j in range(grid.n)])
        assert np.all(np.diff(fits, axis=0) >= 0.0)


def test_repair_leftover_raises():
    # a degenerate box [1e-20, 1e-20] next to an O(1) slope term: the fit
    # intercept + slope can only land on multiples of the slope's ulp, so no
    # intercept puts it on the box and the repair must give up loudly
    t_len = 8
    x = np.ones((t_len, 2))
    box = np.full(t_len, 1e-20)
    z = np.linspace(-1.0, 1.0, t_len)
    with pytest.raises(MonotonicityError, match=r"outside its ordering box .* at t=\d+ after"):
        draw_beta_monotone(box, box, x, z, np.array([0.3, 0.3]), np.zeros((t_len, 2)),
                           stream_generator(25))


def test_repair_steps_an_intercept_by_its_own_ulp():
    # the fit 0.24999999999999997 misses the point box 0.25 by one fit ulp,
    # half an ulp of the intercept 0.3878..., so both the error step and the
    # fit-scale nudge round away; one intercept ulp up hits the box exactly
    design = np.array([[1.0, 0.29839891899840504], [1.0, 0.0]])
    beta = np.array([[[0.3878576425125376, -0.46199109224411944], [0.0, 0.0]]])
    assert fitted_values(design, beta)[0, 0] == np.nextafter(0.25, 0.0)
    lower, upper = np.array([[0.25, -1.0]]), np.array([[0.25, 1.0]])
    repaired, fits = _repair_ordering(beta.copy(), design, lower, upper)
    assert fits[0, 0] == 0.25
    assert repaired[0, 0, 0] == np.nextafter(beta[0, 0, 0], np.inf)
    assert np.array_equal(repaired[0, 1], beta[0, 1])


def test_run_gibbs_names_the_failing_threshold_in_a_batch(monkeypatch):
    import tvpdr.model as model_mod

    y, x = small_problem(seed=31, t_len=12)
    grid = build_threshold_grid(float(y.min()), float(y.max()), 0.5)
    assert grid.n >= 5

    # monotone: the even batch is thresholds 0, 2, 4, ...; its row 1 is threshold 2
    def leftover(*args, **kwargs):
        raise MonotonicityError("forced leftover at t=3", path=1)

    monkeypatch.setattr(model_mod, "_draw_monotone", leftover)
    with pytest.raises(EstimationError, match=r"iteration 0, threshold 2 \(y=.*at t=3"):
        run_gibbs(ModelSpec(d=2, grid=grid, iterations=3, burnin=1), (y, x))

    # unconstrained: one batch; a pivot failure in block 3 names threshold 3
    real = model_mod._gaussian_precision
    t_len, d = x.shape

    def broken(band, b, gen):
        band[0, 3 * t_len * d + 5] = -1.0
        return real(band, b, gen)

    monkeypatch.setattr(model_mod, "_gaussian_precision", broken)
    spec = ModelSpec(d=2, grid=grid, iterations=3, burnin=1, monotone=False)
    with pytest.raises(EstimationError, match=r"iteration 0, threshold 3 \(y=.*not positive definite"):
        run_gibbs(spec, (y, x))


@pytest.mark.parametrize("monotone, d, buffers", [
    *(pytest.param(monotone, d, None, id=f"{monotone}-{d}")
      for monotone in (True, False) for d in (1, 2, 3, 4)),
    pytest.param(False, 2, _last_quarter, id="backtest")])
def test_run_gibbs_equals_the_public_draws_bitwise(monotone, d, buffers):
    # the per-fit workspace (likelihood band, latent bounds, band storage,
    # strided batches, reused fits, paths, fits and variances drawn into
    # the state) must not move a single draw
    if buffers is not None:
        # a backtest refit: unconstrained, one colour of K >= 9 thresholds
        # in two lanes, on its own stream, keeping the last quarter of each
        # path
        y, x = small_problem(seed=46, t_len=48, d=d)
        lo, hi = (float(q) for q in np.quantile(y, [0.05, 0.95]))
        grid = build_threshold_grid(lo, hi, (hi - lo) / 10)
        assert grid.n >= 9
        spec = ModelSpec(d=d, grid=grid, iterations=10, burnin=4, monotone=False, seed=47)
        draws = run_gibbs(spec, (y, x), stream=3, buffers=buffers)
        beta, sigma2 = public_draw_loop(spec, y, x, stream_generator(spec.seed, 3),
                                        stream_generator(spec.seed, 3, 1))
        assert draws.n_obs == 1
        assert np.array_equal(draws.beta, beta[:, :, -1:])
        assert np.array_equal(draws.sigma2, sigma2)
        return
    # each colour's two lanes (unconstrained: one colour of all K) on two
    # streams, drawn here as one batch; monotone at K = 2 and 3 a colour of one threshold leaves its upper lane
    # empty, and at T = 13 a lower lane of one threshold has an odd number
    # of intercepts, so the upper lane's colours start on the other parity
    for t_len in (12, 13) if monotone else (12,):
        y, x = small_problem(seed=40 + d, t_len=t_len, d=d)
        lo = float(np.quantile(y, 0.1))
        for n_thresholds in (2, 3, 4, 5) if monotone else (4, 5):
            step = (float(np.quantile(y, 0.9)) - lo) / (n_thresholds - 1)
            grid = build_threshold_grid(lo, lo + step * (n_thresholds - 1), step)
            assert grid.n == n_thresholds
            spec = ModelSpec(d=d, grid=grid, iterations=6, burnin=2, monotone=monotone,
                             seed=d + n_thresholds)
            draws = run_gibbs(spec, (y, x))
            beta, sigma2 = public_draw_loop(spec, y, x, stream_generator(spec.seed),
                                            stream_generator(spec.seed, lane=1))
            assert np.array_equal(draws.beta, beta)
            assert np.array_equal(draws.sigma2, sigma2)


@pytest.mark.parametrize("monotone", [False, True])
def test_early_cdf_follows_the_data_not_the_first_state_prior(monotone):
    # y iid N(2, 1), intercept only, so the CDF at 0.5 is 0.081 in the data
    # at every t. A first-state prior N(0, sigma2), with sigma2 near 0.01,
    # pinned the early intercepts near 0: the t = 0 CDF read 0.47 in both
    # modes. Under beta_1 ~ N(0, V) it reads 0.12 and 0.11
    y = np.random.default_rng(3).normal(2.0, 1.0, size=160)
    grid = build_threshold_grid(0.5, 3.5, 1.5)
    spec = ModelSpec(d=1, grid=grid, iterations=600, burnin=200, monotone=monotone, seed=3)
    draws = run_gibbs(spec, (y, np.ones((160, 1))))
    assert np.mean(y <= 0.5) == 0.08125
    assert abs(conditional_cdf(draws, np.ones(1), 0).values[0] - 0.08125) < 0.1


def test_run_gibbs_buffers_may_keep_the_last_quarters():
    y, x = small_problem(seed=44, t_len=15)
    grid = build_threshold_grid(float(np.quantile(y, 0.2)), float(np.quantile(y, 0.8)), 0.4)
    spec = ModelSpec(d=2, grid=grid, iterations=8, burnin=3, monotone=False, seed=45)
    whole = run_gibbs(spec, (y, x))

    def last_two(kept, k, t_len, d):
        return np.empty((kept, k, 2, d)), np.empty((kept, k, d))

    tail = run_gibbs(spec, (y, x), buffers=last_two)
    assert tail.n_obs == 2
    assert np.array_equal(tail.beta, whole.beta[:, :, -2:])
    assert np.array_equal(tail.sigma2, whole.sigma2)

    def too_long(kept, k, t_len, d):
        return np.empty((kept, k, t_len + 1, d)), np.empty((kept, k, d))

    with pytest.raises(ValueError, match="buffers"):
        run_gibbs(spec, (y, x), buffers=too_long)


def _geweke_z(per_chain, prior):
    """Chain means against direct prior draws, one z per moment."""
    return (per_chain.mean(axis=0) - prior.mean(axis=0)) / np.sqrt(
        per_chain.var(axis=0, ddof=1) / per_chain.shape[0]
        + prior.var(axis=0, ddof=1) / prior.shape[0])


@pytest.mark.slow
@pytest.mark.parametrize("d", [1, 2])
def test_unconstrained_kernel_passes_a_joint_distribution_test(d):
    # Geweke (2004): alternate simulating the indicators given the
    # parameters with one Gibbs update given the indicators. Started at
    # prior draws, the chains keep the prior as their marginal exactly when
    # the update is a valid kernel for it. The update is the one run_gibbs
    # makes: beta_1 ~ N(0, V) on its own, so the sigma2 update leaves it
    # out. T = 5, sigma2 ~ IG(3, 1), slope column 1.5 N(0, 1); the
    # unconstrained paths of a K = 2 fit are independent chains like these.
    # Moments of log sigma2, beta_1 and beta_T, their squares and the fits
    # at t = 1 and T: chain means against direct prior draws.
    gen = np.random.default_rng(1)
    t_len, nu, s, chains, prior_n = 5, 3.0, 1.0, 2000, 400_000
    design = np.column_stack([np.ones(t_len)] +
                             [1.5 * gen.standard_normal(t_len) for _ in range(d - 1)])

    def moments(beta, sigma2):
        firsts = [np.log(sigma2), beta[..., 0, :], beta[..., -1, :]]
        fits = fitted_values(design, beta)
        return np.concatenate(firsts + [m ** 2 for m in firsts]
                              + [fits[..., :1], fits[..., -1:]], axis=-1)

    per_chain = successive_conditional(design, *prior_draws(chains, t_len, d, nu, s, gen),
                                       nu, s, 2000, gen, moments)
    prior = np.concatenate([moments(*prior_draws(prior_n // 4, t_len, d, nu, s, gen))
                            for _ in range(4)])
    z = _geweke_z(per_chain, prior)
    assert np.abs(z).max() <= 3.5, np.round(z, 2)


@pytest.mark.slow
def test_monotone_kernel_passes_a_joint_distribution_test():
    # The joint-distribution test above for a monotone K = 2 fit at d = 1.
    # The prior is the product prior restricted to ordered fits, and each
    # threshold's update is exact there: the intercept sweep is a Gibbs
    # kernel for its truncated conditional when it continues from the
    # current intercepts, whatever the number of sweeps; three keep the
    # test sharp. Started at the joint draw's intercepts instead, the
    # same sweep gives max |z| near 12. The same moments per threshold,
    # chain means against ordered prior draws.
    gen = np.random.default_rng(1)
    t_len, nu, s, chains, prior_n = 5, 3.0, 1.0, 2000, 400_000
    design = np.ones((t_len, 1))

    def moments(beta, sigma2):
        firsts = [np.log(sigma2), beta[..., 0, :], beta[..., -1, :]]
        fits = fitted_values(design, beta)
        m = np.concatenate(firsts + [f ** 2 for f in firsts]
                           + [fits[..., :1], fits[..., -1:]], axis=-1)
        return m.reshape(m.shape[0], -1)

    per_chain = monotone_successive_conditional(
        design, *ordered_prior_draws(chains, design, nu, s, gen), nu, s, 2000, 3, gen, moments)
    prior = np.concatenate([moments(*ordered_prior_draws(prior_n // 4, design, nu, s, gen))
                            for _ in range(4)])
    z = _geweke_z(per_chain, prior)
    assert np.abs(z).max() <= 3.5, np.round(z, 2)
