"""Gibbs updates: latent draws, state paths, variances, ordering constraint."""

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.special import ndtr

from tvpdr.banded import assemble_precision
from tvpdr.distribution import build_threshold_grid
from tvpdr.model import (
    EstimationError,
    ModelSpec,
    MonotonicityError,
    PROBIT,
    apply_design_transform,
    draw_beta_monotone,
    draw_beta_unconstrained,
    draw_latent,
    draw_sigma2,
    fitted_values,
    hash_data,
    initial_state,
    run_gibbs,
    _HUGE,
    _TINY,
    _stride_rows_matvec,
)
from tvpdr.samplers import RngHandle, _draw

from reference import (
    batch_means_se,
    dense_precision,
    frozen_draw_latent,
    frozen_draw_sigma2,
    frozen_mirrored_truncated_normal,
    inverse_gamma_cdf,
    kolmogorov_distance,
    public_draw_loop,
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
    with pytest.raises(ValueError):
        ModelSpec(d=2, grid=grid, link="logit")
    with pytest.raises(ValueError):
        ModelSpec(d=2, grid=grid, ig_prior_s=-1.0)


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
    z = draw_latent(np.median(y), y, x, beta, RngHandle(3))
    below = y <= np.median(y)
    assert np.all(z[below] > 0.0)
    assert np.all(z[~below] < 0.0)


def _same_draws(new_gen, old_gen, new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.array_equal(new.view(np.int64), old.view(np.int64))
    assert new_gen.random() == old_gen.random()


def test_draw_latent_matches_the_frozen_two_sided_draw():
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
        new = draw_latent(threshold, y, design, paths, new_gen)
        _same_draws(new_gen, old_gen, new, frozen_draw_latent(threshold, y, design, paths, old_gen))
    # fitted_values never returns -0.0; the core with draw_latent's constant
    # clamps still matches on it
    mean = np.array([[-0.0, 0.0, -0.0, 0.0, 31.0, -31.0, 1e20, -1e20]])
    positive = np.array([[True, True, False, False, True, False, False, True]])
    lower, upper = np.where(positive, 0.0, -np.inf), np.where(positive, np.inf, 0.0)
    new_gen, old_gen = np.random.default_rng(41), np.random.default_rng(41)
    old = frozen_mirrored_truncated_normal(mean, 1.0, lower, upper, old_gen)
    new = _draw(mean, 1.0, lower, upper, np.where(positive, _TINY, -_HUGE),
                np.where(positive, _HUGE, -_TINY), new_gen)
    _same_draws(new_gen, old_gen, new, old)
    assert old[0, -2] == -5e-324 and old[0, -1] == 5e-324  # rounded onto 0, clamped


def test_draw_latent_rejects_a_non_finite_fit():
    y, x = small_problem(seed=2)
    beta = np.zeros((len(y), 2))
    beta[3, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        draw_latent(0.0, y, x, beta, RngHandle(3))


def test_draw_sigma2_matches_the_frozen_draw():
    rs = np.random.default_rng(42)
    for shape in [(2, 1), (12, 3), (4, 12, 2), (33, 160, 3)]:
        beta = rs.normal(size=shape)
        for include_initial in (False, True):
            seed = int(rs.integers(2**32))
            new_gen, old_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            new = draw_sigma2(beta, 3.0, 0.01, new_gen, include_initial=include_initial)
            old = frozen_draw_sigma2(beta, 3.0, 0.01, old_gen, include_initial=include_initial)
            _same_draws(new_gen, old_gen, new, old)


def test_draw_sigma2_matches_the_frozen_draw_on_long_paths():
    # long enough that how the increments are summed over t shows: the
    # pairwise order at d = 1 and the sequential one at d > 1
    rs = np.random.default_rng(43)
    for d in (1, 2, 3, 4):
        for shape in [(160, d), (33, 160, d), (5, 257, d)]:
            beta = rs.normal(size=shape) * 10.0 ** rs.uniform(-3, 3, size=shape)
            for include_initial in (False, True):
                seed = int(rs.integers(2**32))
                new_gen, old_gen = np.random.default_rng(seed), np.random.default_rng(seed)
                new = draw_sigma2(beta, 3.0, 0.01, new_gen, include_initial=include_initial)
                old = frozen_draw_sigma2(beta, 3.0, 0.01, old_gen, include_initial=include_initial)
                _same_draws(new_gen, old_gen, new, old)


def test_draw_sigma2_matches_inverse_gamma_cdf():
    # increments of the test path are fixed, so the posterior is exactly
    # IG(nu + (T-1)/2, s + sum(diff^2)/2); nu=3, s=1, four unit increments
    # gives IG(5, 3) with mean 3/4
    t_len = 5
    beta = np.cumsum(np.ones((t_len, 1)), axis=0)
    many = np.tile(beta, (1, 200_000))
    draws = draw_sigma2(many, np.full(many.shape[1], 3.0), np.full(many.shape[1], 1.0),
                        RngHandle(4))
    dist = kolmogorov_distance(draws, lambda q: inverse_gamma_cdf(q, 5.0, 3.0))
    assert dist < 0.005
    assert abs(draws.mean() - 0.75) < 0.01


def test_draw_sigma2_include_initial_flag():
    t_len = 4
    beta = np.array([[2.0], [2.0], [2.0], [2.0]])  # zero increments
    nu = np.array([3.0])
    s = np.array([1.0])
    # without the initial state the scale stays s; with it, s + beta_1^2/2
    a = np.array([draw_sigma2(beta, nu, s, RngHandle(5, stream=i))[0] for i in range(4000)])
    b = np.array([
        draw_sigma2(beta, nu, s, RngHandle(6, stream=i), include_initial=True)[0]
        for i in range(4000)
    ])
    # IG(4.5, 1) vs IG(5, 3) means: 1/3.5 vs 3/4
    assert abs(a.mean() - 1.0 / 3.5) < 0.02
    assert abs(b.mean() - 3.0 / 4.0) < 0.05


def test_unconstrained_beta_posterior_moments():
    # with latents fixed, beta | z is exactly N(K^{-1} X'z, K^{-1})
    rng = np.random.default_rng(7)
    t_len, d = 6, 2
    design = np.column_stack([np.ones(t_len), rng.normal(size=t_len)])
    z = rng.normal(size=t_len)
    sigma2 = np.array([0.5, 1.2])
    k = assemble_precision(design, sigma2).to_dense()
    cov = np.linalg.inv(k)
    mu = cov @ (design * z[:, None]).reshape(-1)

    handle = RngHandle(8)
    draws = np.stack([
        draw_beta_unconstrained(design, z, sigma2, handle).reshape(-1)
        for _ in range(50_000)
    ])
    se = np.sqrt(np.diag(cov) / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mu) < 4.0 * se)


def test_monotone_draw_respects_neighbor_paths():
    y, x = small_problem(seed=9, t_len=20, d=2)
    t_len = len(y)
    lower = np.full(t_len, -0.8)
    upper = np.full(t_len, 1.1)
    handle = RngHandle(10)
    z = draw_latent(np.median(y), y, x, np.zeros((t_len, 2)), handle)
    for _ in range(50):
        beta = draw_beta_monotone(lower, upper, x, z, np.array([0.3, 0.3]), handle)
        fit = fitted_values(x, beta)
        assert np.all(fit >= lower), "fit fell below the lower neighbor"
        assert np.all(fit <= upper), "fit crossed the upper neighbor"


def test_monotone_draw_one_sided_and_unbounded():
    y, x = small_problem(seed=11, t_len=15, d=3)
    t_len = len(y)
    handle = RngHandle(12)
    z = draw_latent(np.median(y), y, x, np.zeros((t_len, 3)), handle)
    sig = np.full(3, 0.2)
    lo = np.full(t_len, 0.0)
    for _ in range(20):
        b = draw_beta_monotone(lo, None, x, z, sig, handle)
        assert np.all(fitted_values(x, b) >= lo)
    hi = np.full(t_len, 0.5)
    for _ in range(20):
        b = draw_beta_monotone(None, hi, x, z, sig, handle)
        assert np.all(fitted_values(x, b) <= hi)
    # fully unconstrained falls back to the joint Gaussian draw
    b = draw_beta_monotone(None, None, x, z, sig, handle)
    assert b.shape == (t_len, 3)


def test_monotone_draw_detects_crossing_paths():
    y, x = small_problem(seed=13)
    t_len = len(y)
    handle = RngHandle(14)
    z = draw_latent(np.median(y), y, x, np.zeros((t_len, 2)), handle)
    lower = np.zeros(t_len)
    upper = np.zeros(t_len) - 0.1
    with pytest.raises(MonotonicityError, match="cross at t="):
        draw_beta_monotone(lower, upper, x, z, np.array([0.3, 0.3]), handle)


def test_monotone_draw_requires_intercept():
    y, x = small_problem(seed=15)
    x = x.copy()
    x[:, 0] = 2.0
    handle = RngHandle(16)
    with pytest.raises(ValueError, match="intercept"):
        draw_beta_monotone(np.zeros(len(y)), None, x, np.zeros(len(y)),
                           np.array([0.3, 0.3]), handle)


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
    # a different stream changes the draws but not the metadata
    c = run_gibbs(spec, (y, x), RngHandle(77, stream=3))
    assert not np.array_equal(a.beta, c.beta)
    assert c.stream == 3


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

    monkeypatch.setattr(model_mod, "draw_sigma2", boom)
    with pytest.raises(EstimationError, match=r"iteration 0, threshold 0 \(y="):
        run_gibbs(spec, (y, x))


def test_stacked_precision_is_block_diagonal_of_single_paths():
    # one assembly for B paths must equal the B single-path assemblies side
    # by side, ridge included (each path's own diagonal max), with every
    # coupling across a path boundary exactly zero
    rng = np.random.default_rng(22)
    worst = 0.0
    for t_len, d, n_paths in [(2, 1, 3), (6, 2, 4), (9, 3, 5)]:
        design = rng.normal(size=(t_len, d))
        sigma2 = rng.uniform(0.05, 2.0, size=(n_paths, d))
        for ridge in (0.0, 1e-3):
            stacked = assemble_precision(design, sigma2, ridge)
            singles = [assemble_precision(design, sigma2[b], ridge) for b in range(n_paths)]
            assert stacked.bandwidth == d
            assert np.array_equal(stacked.diagonals, np.hstack([m.diagonals for m in singles]))

            dense = stacked.to_dense()
            blocks = []
            for b in range(n_paths):
                k = dense_precision(design, sigma2[b])
                blocks.append(k + ridge * np.max(np.diag(k)) * np.eye(t_len * d))
            want = block_diag(*blocks)
            worst = max(worst, np.max(np.abs(dense - want)) / np.max(np.abs(want)))
            assert np.all(dense[want == 0.0] == 0.0)
    assert worst <= 1e-12


def test_intercept_rows_match_the_full_product_bitwise():
    # the monotone intercept draw needs (K x) only at rows 0, d, 2d, ...;
    # those entries must be the full product's to the last bit, including
    # the first and last rows, which lack a neighbour on one side
    rng = np.random.default_rng(24)
    for d in (1, 2, 3, 4):
        design = rng.normal(size=(7, d)) * 10.0 ** rng.uniform(-3, 3, size=(7, d))
        sigma2 = 10.0 ** rng.uniform(-3, 1, size=(3, d))
        for ridge in (0.0, 1e-6):
            precision = assemble_precision(design, sigma2, ridge)
            x = rng.normal(size=precision.dim) * 10.0 ** rng.uniform(-3, 3, precision.dim)
            assert np.array_equal(_stride_rows_matvec(precision, x, d),
                                  precision.matvec(x)[::d])


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
    z = draw_latent(np.array([-0.5, 0.0, 0.5]), y, x, beta, RngHandle(27))
    assert z.shape == (3, 10)
    assert np.all((z > 0.0) == (y <= np.array([-0.5, 0.0, 0.5])[:, None]))
    sig = np.full((3, 2), 0.3)
    assert draw_beta_unconstrained(x, z, sig, RngHandle(28)).shape == (3, 10, 2)
    assert draw_sigma2(beta, 3.0, 0.01, RngHandle(29)).shape == (3, 2)
    lower = np.vstack([np.full(10, -np.inf), np.full((2, 10), -1.0)])
    upper = np.vstack([np.full((2, 10), 1.0), np.full(10, np.inf)])
    b = draw_beta_monotone(lower, upper, x, z, sig, RngHandle(30))
    fits = fitted_values(x, b)
    assert b.shape == (3, 10, 2)
    assert np.all((fits >= lower) & (fits <= upper))


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
        draw_beta_monotone(box, box, x, z, np.array([0.3, 0.3]), RngHandle(25))


def test_run_gibbs_names_the_failing_threshold_in_a_batch(monkeypatch):
    import tvpdr.model as model_mod

    y, x = small_problem(seed=31, t_len=12)
    grid = build_threshold_grid(float(y.min()), float(y.max()), 0.5)
    assert grid.n >= 5

    # monotone: the even batch is thresholds 0, 2, 4, ...; its row 1 is threshold 2
    def leftover(*args, **kwargs):
        raise MonotonicityError("forced leftover at t=3", path=1)

    monkeypatch.setattr(model_mod, "draw_beta_monotone", leftover)
    with pytest.raises(EstimationError, match=r"iteration 0, threshold 2 \(y=.*at t=3"):
        run_gibbs(ModelSpec(d=2, grid=grid, iterations=3, burnin=1), (y, x))

    # unconstrained: one batch; a pivot failure in block 3 names threshold 3
    real = model_mod.assemble_precision
    t_len, d = x.shape

    def broken(design, sigma2, ridge_scale=0.0, likelihood=None, out=None):
        k = real(design, sigma2, ridge_scale, likelihood=likelihood, out=out)
        k.diagonals[0, 3 * t_len * d + 5] = -1.0
        return k

    monkeypatch.setattr(model_mod, "assemble_precision", broken)
    spec = ModelSpec(d=2, grid=grid, iterations=3, burnin=1, monotone=False)
    with pytest.raises(EstimationError, match=r"iteration 0, threshold 3 \(y=.*not positive definite"):
        run_gibbs(spec, (y, x))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("monotone", [True, False])
def test_run_gibbs_equals_the_public_draws_bitwise(d, monotone):
    # the per-fit workspace (likelihood band, latent bounds, band storage,
    # strided batches, reused fits) must not move a single draw
    y, x = small_problem(seed=40 + d, t_len=12, d=d)
    lo = float(np.quantile(y, 0.1))
    for n_thresholds in (4, 5):
        step = (float(np.quantile(y, 0.9)) - lo) / (n_thresholds - 1)
        grid = build_threshold_grid(lo, lo + step * (n_thresholds - 1), step)
        assert grid.n == n_thresholds
        for ridge in (0.0, 1e-6):
            for include_initial in (False, True):
                spec = ModelSpec(d=d, grid=grid, iterations=6, burnin=2, monotone=monotone,
                                 ridge_scale=ridge, include_initial_state_in_ig=include_initial,
                                 seed=d + n_thresholds)
                draws = run_gibbs(spec, (y, x), RngHandle(spec.seed))
                beta, sigma2 = public_draw_loop(spec, y, x, RngHandle(spec.seed).rng)
                assert np.array_equal(draws.beta, beta)
                assert np.array_equal(draws.sigma2, sigma2)


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
