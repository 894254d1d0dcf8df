"""Slow, independent reference implementations used only by the tests.

Everything here is written against dense numpy/scipy primitives in the most
literal way possible so it shares no code path with the package: dense
precision assembly via kron, dense/band conversions, a one-threshold Gibbs
sampler on top of scipy.stats.truncnorm and numpy.linalg, a single-site
sequential-scan monotone Gibbs sampler, analytic distribution facts, a
batch-means Monte Carlo standard error, and frozen copies of earlier
truncated-normal kernels, Gibbs inner-loop draws, band assembly, the band
matvec, one-shot read curves, the simulated PIT band and exact Kolmogorov
quantiles. The one exception is ``public_draw_loop``: the Gibbs loop spelled
out over the package's public draws, which ``run_gibbs`` must reproduce bit
for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import stats
from scipy.special import gammainc, log_ndtr, ndtr, ndtri

from tvpdr.banded import FIRST_STATE_VARIANCE


def dense_walk(t_len: int) -> np.ndarray:
    """D'D for the (T - 1) x T first-difference matrix D, built from D."""
    diff = np.eye(t_len)[1:] - np.eye(t_len)[:-1]
    return diff.T @ diff


def dense_first_state(t_len: int, d: int) -> np.ndarray:
    """(e_1 e_1') kron I_d / V: the precision of beta_1 ~ N(0, V I_d)."""
    first = np.zeros((t_len, t_len))
    first[0, 0] = 1.0
    return np.kron(first, np.eye(d) / FIRST_STATE_VARIANCE)


def dense_precision(design: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Literal K = X'X + (D'D) kron diag(1/sigma2) + (e_1 e_1') kron I_d / V
    as a dense matrix."""
    design = np.asarray(design, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    t_len, d = design.shape
    xtx = np.zeros((t_len * d, t_len * d))
    for t in range(t_len):
        g = design[t]
        xtx[t * d : (t + 1) * d, t * d : (t + 1) * d] = np.outer(g, g)
    return xtx + np.kron(dense_walk(t_len), np.diag(1.0 / sigma2)) + dense_first_state(t_len, d)


def band_to_dense(band: np.ndarray, lower: bool = False) -> np.ndarray:
    """Dense matrix of a (d + 1, n) lower band array: symmetric, or with
    ``lower`` only its lower triangle (a Cholesky factor)."""
    n = band.shape[1]
    a = np.zeros((n, n))
    for k in range(band.shape[0]):
        idx = np.arange(n - k)
        a[idx + k, idx] = band[k, : n - k]
        if k > 0 and not lower:
            a[idx, idx + k] = band[k, : n - k]
    return a


def dense_to_band(a: np.ndarray, bandwidth: int) -> np.ndarray:
    """The (bandwidth + 1, n) lower band array of a dense symmetric matrix,
    with zeros in each row's unused tail."""
    n = a.shape[0]
    band = np.zeros((bandwidth + 1, n))
    for k in range(bandwidth + 1):
        band[k, : n - k] = np.diagonal(a, offset=-k)
    return band


def frozen_band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetric band matrix times vector in the order first written: the
    diagonal term, then per subdiagonal k = 1..d its lower and upper terms."""
    n = band.shape[1]
    y = band[0] * x
    for k in range(1, band.shape[0]):
        sub = band[k, : n - k]
        y[k:] += sub * x[: n - k]
        y[: n - k] += sub * x[k:]
    return y


def dense_gibbs_reference(
    y: np.ndarray,
    design: np.ndarray,
    threshold: float,
    nu: float,
    s: float,
    iterations: int,
    burnin: int,
    rng: np.random.Generator,
):
    """Unconstrained single-threshold Gibbs written with dense linear algebra.

    Latents via scipy.stats.truncnorm, state path via numpy Cholesky of the
    dense precision, variances via the inverse-gamma conjugate update. The
    draw sequence differs from the package sampler; agreement is checked on
    posterior moments, never draw by draw.
    """
    y = np.asarray(y, dtype=np.float64)
    design = np.asarray(design, dtype=np.float64)
    t_len, d = design.shape
    below = y <= threshold

    beta = np.zeros((t_len, d))
    sigma2 = np.full(d, 0.01)
    kept_beta = np.empty((iterations - burnin, t_len, d))
    kept_sigma2 = np.empty((iterations - burnin, d))

    for it in range(iterations):
        fit = np.sum(design * beta, axis=1)
        a = np.where(below, -fit, -np.inf)
        b = np.where(below, np.inf, -fit)
        z = stats.truncnorm.rvs(a, b, loc=fit, scale=1.0, random_state=rng)

        k = dense_precision(design, sigma2)
        rhs = (design * z[:, None]).reshape(-1)
        chol = np.linalg.cholesky(k)
        mu = np.linalg.solve(k, rhs)
        noise = np.linalg.solve(chol.T, rng.standard_normal(t_len * d))
        beta = (mu + noise).reshape(t_len, d)

        diff2 = np.sum(np.diff(beta, axis=0) ** 2, axis=0)
        shape = nu + 0.5 * (t_len - 1)
        scale = s + 0.5 * diff2
        sigma2 = scale / rng.gamma(shape, 1.0, size=d)

        if it >= burnin:
            kept_beta[it - burnin] = beta
            kept_sigma2[it - burnin] = sigma2
    return kept_beta, kept_sigma2


def dense_monotone_gibbs_reference(
    y: np.ndarray,
    thresholds,
    nu: float,
    s: float,
    iterations: int,
    burnin: int,
    chains: int,
    rng: np.random.Generator,
):
    """Sequential-scan monotone Gibbs for intercept-only paths (d = 1).

    Thresholds in grid order, one at a time: latents via scipy.stats.truncnorm,
    then every path point beta_{j,t} in turn from its exact univariate full
    conditional under the dense precision, truncated to
    [beta_{j-1,t}, beta_{j+1,t}] (open at the grid ends), then the variance
    by the inverse-gamma update. Single-site and literal: it shares neither
    the red-black threshold order nor any banded code with the package.
    ``chains`` independent chains run side by side, vectorized across chains
    only, so their means give a Monte Carlo error free of autocorrelation
    estimates. Returns the kept paths, (chains, kept, K, T).
    """
    y = np.asarray(y, dtype=np.float64)
    t_len, k = y.size, len(thresholds)
    dtd = dense_walk(t_len)
    xtx = np.eye(t_len) + dense_first_state(t_len, 1)  # the likelihood and beta_1's prior
    beta = np.tile(np.linspace(-1.0, 1.0, k)[None, :, None], (chains, 1, t_len))
    sigma2 = np.full((chains, k), 0.01)
    kept = np.empty((chains, iterations - burnin, k, t_len))
    open_end = np.full((chains, t_len), np.inf)

    for it in range(iterations):
        for j in range(k):
            below = y <= thresholds[j]
            fit = beta[:, j]
            a = np.where(below, -fit, -np.inf)
            b = np.where(below, np.inf, -fit)
            z = stats.truncnorm.rvs(a, b, loc=fit, scale=1.0, random_state=rng)

            prec = xtx + dtd / sigma2[:, j, None, None]  # (chains, T, T)
            lower = beta[:, j - 1] if j > 0 else -open_end
            upper = beta[:, j + 1] if j < k - 1 else open_end
            for t in range(t_len):
                ktt = prec[:, t, t]
                others = np.einsum("cs,cs->c", prec[:, t], beta[:, j]) - ktt * beta[:, j, t]
                m = (z[:, t] - others) / ktt
                sd = 1.0 / np.sqrt(ktt)
                beta[:, j, t] = stats.truncnorm.rvs((lower[:, t] - m) / sd, (upper[:, t] - m) / sd,
                                                    loc=m, scale=sd, random_state=rng)

            rss = np.sum(np.diff(beta[:, j], axis=1) ** 2, axis=1)
            sigma2[:, j] = (s + 0.5 * rss) / rng.gamma(nu + 0.5 * (t_len - 1), size=chains)
        if it >= burnin:
            kept[:, it - burnin] = beta
    return kept


def batch_means_se(chain: np.ndarray, n_batches: int = 25) -> float:
    """Monte Carlo standard error of the chain mean by batch means."""
    chain = np.asarray(chain, dtype=np.float64).ravel()
    n = chain.size // n_batches * n_batches
    batches = chain[:n].reshape(n_batches, -1).mean(axis=1)
    return float(batches.std(ddof=1) / np.sqrt(n_batches))


def inverse_gamma_cdf(x, shape: float, scale: float):
    """IG(shape, scale) distribution function, via the gamma of 1/x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = 1.0 - gammainc(shape, scale / x[pos])
    return out


def truncated_normal_cdf(mean, sd, lower, upper):
    """CDF of N(mean, sd^2) on (lower, upper), from log Phi on the lower tail
    (a box right of the mean is mirrored there), so it holds 40 sd out."""
    a, b = (lower - mean) / sd, (upper - mean) / sd
    flip = a >= 0.0
    lo, hi = (-b, -a) if flip else (a, b)

    def lower_tail(t):
        return (np.exp(log_ndtr(t) - log_ndtr(hi)) - np.exp(log_ndtr(lo) - log_ndtr(hi))) / (
            1.0 - np.exp(log_ndtr(lo) - log_ndtr(hi)))

    if flip:
        return lambda x: 1.0 - lower_tail(-(x - mean) / sd)
    return lambda x: lower_tail((x - mean) / sd)


def kolmogorov_distance(samples: np.ndarray, cdf) -> float:
    """sup_x |ECDF(x) - cdf(x)| over the sample points."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    f = cdf(s)
    i = np.arange(1, n + 1)
    return float(max((i / n - f).max(), (f - (i - 1) / n).max()))


def probit_mixture_cdf(a: float, b: float) -> float:
    """E[Phi(a + b Z)] for standard normal Z, i.e. Phi(a / sqrt(1 + b^2))."""
    return float(ndtr(a / np.sqrt(1.0 + b * b)))



# Frozen copy of the truncated-normal kernel before intervals were mirrored
# and inversion extended to 30 sd: inversion on the survival scale (a >= 0)
# or the distribution scale (a < 0) when the interval reaches within 4 sd,
# rejection beyond. The package's inversion core must reproduce its draws,
# and leave the generator in the same state, whenever no bound lies beyond
# 4 sd.
FROZEN_TAIL = 4.0


def frozen_tail_reject(a: np.ndarray, b: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Standardized draws on [a, b) with a >= FROZEN_TAIL (b possibly inf)."""
    out = np.empty_like(a)
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    wide = (b - a) >= 1.0 / a
    pending = np.ones(a.shape, dtype=bool)
    while pending.any():
        idx = np.nonzero(pending)[0]
        aa, bb, ll = a[idx], b[idx], lam[idx]
        w = wide[idx]
        u1 = 1.0 - gen.random(idx.size)
        u2 = gen.random(idx.size)
        x = np.where(w, aa - np.log(u1) / ll, aa + u1 * np.where(np.isfinite(bb), bb - aa, 0.0))
        logacc = np.where(w, -0.5 * (x - ll) ** 2, 0.5 * (aa * aa - x * x))
        ok = np.log(np.maximum(u2, 1e-300)) <= logacc
        ok &= x < bb
        good = idx[ok]
        out[good] = x[ok]
        pending[good] = False
    return out


def frozen_truncated_std_normal(a: np.ndarray, b: np.ndarray,
                                gen: np.random.Generator) -> np.ndarray:
    """Standardized truncated normal on (a, b), 1-D a < b, either side may be inf."""
    z = np.empty_like(a)
    right = a >= FROZEN_TAIL
    left = b <= -FROZEN_TAIL
    mid = ~(right | left)
    if mid.any():
        am, bm = a[mid], b[mid]
        u = gen.random(am.shape)
        zm = np.empty_like(am)
        hi = am >= 0.0
        if hi.any():
            pa = ndtr(-am[hi])
            pb = ndtr(-bm[hi])
            zm[hi] = -ndtri(pb + u[hi] * (pa - pb))
        lo = ~hi
        if lo.any():
            fa = ndtr(am[lo])
            fb = ndtr(bm[lo])
            zm[lo] = ndtri(fa + u[lo] * (fb - fa))
        z[mid] = zm
    if right.any():
        z[right] = frozen_tail_reject(a[right], b[right], gen)
    if left.any():
        z[left] = -frozen_tail_reject(-b[left], -a[left], gen)
    return z


# Frozen copy of the Gibbs inner loop before its checks and clamps moved out
# of the per-draw path: the mirrored kernel that inverts out to 30 sd, the
# intercept sweep that re-enters a checked public draw per color and
# refreshes all of x - mean, the latent draw through it with two-sided
# bounds, and the variance draw. The package's inversion core and variance
# draw must reproduce their draws, and leave the generator in the same
# state, for every input. The sweep and the latent draw take that public
# draw as an argument: around the package's own, they check its sweep and
# latent bounds.
FROZEN_MIRRORED_TAIL = 30.0


def frozen_mirrored_std_normal(a: np.ndarray, b: np.ndarray,
                               gen: np.random.Generator) -> np.ndarray:
    """Standardized truncated normal on (a, b): intervals with a >= 0 mirrored
    to (-b, -a), one ndtr/ndtri pass, rejection beyond 30 sd."""
    flip = a >= 0.0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    tail = hi <= -FROZEN_MIRRORED_TAIL
    fa = ndtr(lo)
    z = ndtri(fa + gen.random(a.shape) * (ndtr(hi) - fa))
    if tail.any():
        # the rejection sampler above has no cutoff of its own
        z[tail] = -frozen_tail_reject(-hi[tail], -lo[tail], gen)
    return np.where(flip, -z, z)


def frozen_truncated_mvn(band, mean, lower, upper, init, sweeps: int,
                         gen: np.random.Generator, draw) -> np.ndarray:
    """Color-group Gibbs sweep for a box-truncated Gaussian whose precision
    is the (bandwidth + 1, n) lower band array ``band``; the caller passes
    valid input. ``draw(mean, sd, lower, upper, gen)`` draws each color's
    conditional."""
    n = band.shape[1]
    mean, lower, upper = (np.asarray(v, dtype=np.float64) for v in (mean, lower, upper))
    x = np.array(init, dtype=np.float64, copy=True)
    sd = 1.0 / np.sqrt(band[0])
    width = band.shape[0] - 1
    r = np.zeros(n + 2 * width)
    offsets = np.array([0] + [s * k for k in range(1, width + 1) for s in (-1, 1)])
    groups = []
    for c in range(width + 1):
        own = slice(c, n, width + 1)
        nbr = np.arange(n)[own] + offsets[:, None]
        entries = band[abs(offsets)[:, None], np.maximum(np.minimum(nbr, nbr[0]), 0)]
        coupling = np.where((nbr >= 0) & (nbr < n), entries, 0.0)
        views = [slice(width + c + o, width + n + o, width + 1) for o in offsets]
        groups.append((own, views, coupling, sd[own], lower[own], upper[own]))
    for _ in range(sweeps):
        for own, views, coupling, sd_c, lower_c, upper_c in groups:
            np.subtract(x, mean, out=r[width : width + n])
            v = coupling[0] * r[views[0]]
            for cpl, view in zip(coupling[1:], views[1:]):
                v += cpl * r[view]
            x[own] = draw(x[own] - v / coupling[0], sd_c, lower_c, upper_c, gen)
    return x


def frozen_draw_latent(threshold, y, design, beta, gen: np.random.Generator,
                       draw) -> np.ndarray:
    """Probit latents: N(fit, 1) on (0, inf) where y <= threshold, else (-inf, 0),
    drawn with ``draw(mean, sd, lower, upper, gen)`` on these two-sided bounds."""
    mean = np.einsum("td,...td->...t", np.ascontiguousarray(design), np.ascontiguousarray(beta))
    below = y <= np.asarray(threshold)[..., None]
    lower = np.where(below, 0.0, -np.inf)
    upper = np.where(below, np.inf, 0.0)
    return draw(mean, 1.0, lower, upper, gen)


def frozen_draw_sigma2(beta, nu, s, gen: np.random.Generator):
    """Inverse-gamma update of the random-walk variances, (T, d) or (B, T, d) paths."""
    beta = np.asarray(beta, dtype=np.float64)
    t_len, d = beta.shape[-2:]
    nu = np.broadcast_to(np.asarray(nu, dtype=np.float64), (d,))
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), (d,))
    rss = np.sum(np.diff(beta, axis=-2) ** 2, axis=-2)
    shape = nu + 0.5 * (t_len - 1)
    scale = s + 0.5 * rss
    return 1.0 / gen.gamma(shape, 1.0 / scale)

def frozen_assemble_bands(design, sigma2) -> np.ndarray:
    """Band storage of the stacked precision as first written: C-ordered
    (d + 1, B*T*d), the likelihood outer products per t, then the walk
    prior, then the first state's 1/V."""
    design = np.asarray(design, dtype=np.float64)
    t_len, d = design.shape
    inv = 1.0 / np.asarray(sigma2, dtype=np.float64).reshape(-1, 1, d)
    bands = np.zeros((d + 1, inv.shape[0], t_len, d))
    for k in range(d):
        bands[k, :, :, : d - k] = design[:, k:] * design[:, : d - k]
    walk = np.full((t_len, 1), 2.0)
    walk[[0, -1]] = 1.0
    bands[0] += walk * inv
    bands[0, :, 0] += 1.0 / FIRST_STATE_VARIANCE
    bands[d, :, :-1] = -inv
    return bands.reshape(d + 1, -1)


def public_draw_loop(spec, y, x, gen: np.random.Generator, lane_gen: np.random.Generator):
    """The Gibbs loop written against the package's public draws, batch by
    batch, with nothing built ahead: fancy-indexed red-black colours (one
    colour of all thresholds when unconstrained), each split into its lower
    half (one threshold larger at an odd size), drawn from ``gen``, then
    its upper half, drawn from ``lane_gen``, neighbor bounds stacked
    afresh, fits recomputed after every monotone draw and the latents drawn
    around fits recomputed from the current paths. Returns the kept (beta,
    sigma2)."""
    from tvpdr.distribution import PROBIT, apply_design_transform
    from tvpdr.model import (draw_beta_monotone, draw_beta_unconstrained, draw_latent, draw_sigma2,
                             fitted_values, initial_state)

    y = np.asarray(y, dtype=np.float64)
    design = apply_design_transform(x, spec.design_transform)
    t_len, d = design.shape
    k = spec.grid.n
    state = initial_state(y, spec.grid, t_len, d, PROBIT)
    nu, s = spec.ig_prior_nu, spec.ig_prior_s
    batches = []
    for colour in ((np.arange(c, k, 2) for c in range(min(k, 2))) if spec.monotone
                   else [np.arange(k)]):
        half = len(colour) - len(colour) // 2
        batches += [(colour[:half], gen), (colour[half:], lane_gen)]
    edge = np.full((1, t_len), np.inf)
    kept_beta, kept_sigma2 = [], []
    for it in range(spec.iterations):
        for batch, batch_gen in batches:
            if not batch.size:
                continue
            latent = draw_latent(spec.grid.points[batch], y,
                                 fitted_values(design, state.beta[batch]), batch_gen)
            if spec.monotone:
                bounds = np.vstack([-edge, state.fitted, edge])
                beta, _ = draw_beta_monotone(
                    bounds[batch], bounds[batch + 2], design, latent, state.sigma2[batch],
                    state.beta[batch], batch_gen, sweeps=spec.truncation_sweeps)
                state.fitted[batch] = fitted_values(design, beta)
            else:
                beta = draw_beta_unconstrained(design, latent, state.sigma2[batch], batch_gen)
            state.beta[batch] = beta
            state.sigma2[batch] = draw_sigma2(beta, nu, s, batch_gen)
        if it >= spec.burnin:
            kept_beta.append(state.beta.copy())
            kept_sigma2.append(state.sigma2.copy())
    return np.array(kept_beta), np.array(kept_sigma2)


def prior_draws(n: int, t_len: int, d: int, nu: float, s: float, gen: np.random.Generator):
    """n independent draws of (beta (n, T, d), sigma2 (n, d)) from the
    model's prior: sigma2_j ~ IG(nu, s), beta_1 ~ N(0, V I_d) with V =
    ``FIRST_STATE_VARIANCE`` independent of sigma2, and random-walk
    increments N(0, diag(sigma2)), as the precision and the inverse gamma
    update both state it."""
    sigma2 = s / gen.gamma(nu, 1.0, size=(n, d))
    steps = np.sqrt(sigma2)[:, None, :] * gen.standard_normal((n, t_len, d))
    steps[:, 0] = np.sqrt(FIRST_STATE_VARIANCE) * gen.standard_normal((n, d))
    return np.cumsum(steps, axis=1), sigma2


def successive_conditional(design, beta, sigma2, nu: float, s: float, sweeps: int,
                           gen: np.random.Generator, statistic):
    """Geweke's (2004) successive-conditional simulator for unconstrained
    paths, over the package's public draws.

    Each sweep simulates the data given the parameters, the indicators
    1{y <= c} at every path b and time t as Bernoulli(Phi(fit_bt)), then
    runs one Gibbs update of the parameters given the data: latents,
    paths, variances, each drawn as ``run_gibbs`` draws it.
    An indicator goes in as y = -1 (1) or +1 (0) against threshold 0, so
    ``draw_latent`` sees the probit likelihood it samples. The B paths in
    ``beta`` (B, T, d) and ``sigma2`` (B, d) are independent chains,
    stacked as ``run_gibbs`` stacks an unconstrained batch. Started at
    prior draws the joint chain is stationary from its first sweep, and
    its (beta, sigma2) marginal is the prior exactly when the update is a
    valid kernel for it. Returns each chain's mean over the sweeps of
    ``statistic(beta, sigma2)``, which maps the (B, T, d) paths and (B, d)
    variances to (B, S) values.
    """
    from tvpdr.model import draw_beta_unconstrained, draw_latent, draw_sigma2, fitted_values

    total = 0.0
    for _ in range(sweeps):
        fits = fitted_values(design, beta)
        y = np.where(gen.random(fits.shape) < ndtr(fits), -1.0, 1.0)
        latent = draw_latent(0.0, y, fits, gen)
        beta = draw_beta_unconstrained(design, latent, sigma2, gen)
        sigma2 = draw_sigma2(beta, nu, s, gen)
        total = total + statistic(beta, sigma2)
    return total / sweeps


def ordered_prior_draws(n: int, design: np.ndarray, nu: float, s: float,
                        gen: np.random.Generator):
    """n draws of (beta (n, 2, T, d), sigma2 (n, 2, d)) from the monotone
    model's prior for K = 2 thresholds: two independent ``prior_draws``
    paths, rejected unless fit_1 <= fit_2 at every t."""
    t_len, d = design.shape
    beta, sigma2, found = [], [], 0
    while found < n:
        paths, variances = prior_draws(2 * n, t_len, d, nu, s, gen)
        paths, variances = paths.reshape(n, 2, t_len, d), variances.reshape(n, 2, d)
        fits = np.einsum("td,nktd->nkt", design, paths)
        keep = np.all(fits[:, 0] <= fits[:, 1], axis=-1)
        beta.append(paths[keep])
        sigma2.append(variances[keep])
        found += int(keep.sum())
    return np.concatenate(beta)[:n], np.concatenate(sigma2)[:n]


def monotone_successive_conditional(design, beta, sigma2, nu: float, s: float, sweeps: int,
                                    truncation_sweeps: int, gen: np.random.Generator,
                                    statistic):
    """Geweke's (2004) successive-conditional simulator for a monotone fit
    of K = 2 thresholds, over the package's public draws.

    Each sweep simulates the indicators of each threshold at every t as
    Bernoulli(Phi(fit)), the likelihood a threshold's update sees, then
    updates threshold 0 with threshold 1's fits as its upper bound and
    threshold 1 with threshold 0's new fits as its lower bound, as the
    red-black scan of ``run_gibbs`` does at K = 2: latents, the monotone
    path draw from the current paths with ``truncation_sweeps`` sweeps,
    variances, each drawn as ``run_gibbs`` draws it. The B
    chains in ``beta`` (B, 2, T, d) and ``sigma2`` (B, 2, d) are
    independent; started at ``ordered_prior_draws`` the joint chain is
    stationary from its first sweep. Returns each chain's mean over the
    sweeps of ``statistic(beta, sigma2)``, which maps them to (B, S) values.
    """
    from tvpdr.model import draw_beta_monotone, draw_latent, draw_sigma2, fitted_values

    beta, sigma2 = beta.copy(), sigma2.copy()
    fits = fitted_values(design, beta)
    total = 0.0
    for _ in range(sweeps):
        y = np.where(gen.random(fits.shape) < ndtr(fits), -1.0, 1.0)
        for k, (lower, upper) in enumerate([(None, fits[:, 1]), (fits[:, 0], None)]):
            latent = draw_latent(0.0, y[:, k], fits[:, k], gen)
            beta[:, k], fits[:, k] = draw_beta_monotone(
                lower, upper, design, latent, sigma2[:, k], beta[:, k], gen,
                sweeps=truncation_sweeps)
            sigma2[:, k] = draw_sigma2(beta[:, k], nu, s, gen)
        total = total + statistic(beta, sigma2)
    return total / sweeps


def frozen_conditional_cdf(draws, x, t: int, link) -> np.ndarray:
    """Posterior-mean CDF values as first written: all (kept, K) fits at once,
    the link applied to all of them, then the mean and, if needed, a sort."""
    fits = draws.beta[:, :, t, :] @ np.asarray(x, dtype=np.float64)
    values = link.cdf(fits).mean(axis=0)
    if np.any(np.diff(values) < 0.0):
        values = np.sort(values)
    return values


def frozen_forecast_predictive(draws, x_next, gen: np.random.Generator, link) -> np.ndarray:
    """One-step predictive CDF values as first simulated with one innovation
    per kept draw, all (kept, K) fits and scales at once. Its expectation
    over ``gen`` is the closed form below."""
    x_next = np.asarray(x_next, dtype=np.float64)
    fits = draws.beta[:, :, -1, :] @ x_next
    scale = np.sqrt(draws.sigma2 @ (x_next * x_next))
    scale *= gen.standard_normal(fits.shape[0])[:, None]
    fits += scale
    return np.sort(link.cdf(fits).mean(axis=0))


def frozen_closed_form_predictive(draws, x_next, link) -> np.ndarray:
    """One-step predictive CDF values in closed form as first written: all
    (kept, K) fits divided by sqrt(1 + x' diag(sigma2) x) at once, the link
    applied to all of them, then the mean and a sort."""
    x_next = np.asarray(x_next, dtype=np.float64)
    fits = draws.beta[:, :, -1, :] @ x_next
    fits /= np.sqrt(1.0 + draws.sigma2 @ (x_next * x_next))
    return np.sort(link.cdf(fits).mean(axis=0))


def frozen_pit_uniformity_band(n: int, level: float, gen: np.random.Generator,
                               sims: int) -> float:
    """Simulated Kolmogorov band as first written: the ``level`` quantile of
    the statistic over all (sims, n) uniforms at once."""
    u = gen.random((sims, n))
    u.sort(axis=1)
    i = np.arange(1, n + 1)
    upper = (i / n - u).max(axis=1)
    lower = (u - (i - 1) / n).max(axis=1)
    stat = np.maximum(upper, lower)
    return float(np.quantile(stat, level))


# Frozen oracle values, each computed once from an independent route and
# pinned here so a regression cannot silently move them.

# mean of |N(0,1)| = sqrt(2/pi); 1e6-draw MC agrees to 3 decimal places
HALF_NORMAL_MEAN = 0.7978845608028654

# E[X1] for N(0, I2) truncated to the unit box, X1 in [0, 1]:
# (phi(0) - phi(1)) / (Phi(1) - Phi(0))
UNIT_BOX_COORD_MEAN = 0.45986222928642656

# KS 95% critical value, asymptotic 1.3580986 / sqrt(n) at n = 100
KS95_N100 = 0.13580986393225505

# exact two-sided Kolmogorov quantiles, scipy.stats.kstwo.ppf(level, n)
# (scipy 1.17.1), keyed by (n, level)
KSTWO_PPF = {
    (1, 0.8): 0.9, (1, 0.9): 0.95, (1, 0.95): 0.975, (1, 0.99): 0.995,
    (2, 0.8): 0.6837722339831621, (2, 0.9): 0.7763932022500211,
    (2, 0.95): 0.841886116991581, (2, 0.99): 0.9292893218813452,
    (7, 0.8): 0.38145200224661374, (7, 0.9): 0.4360683886201389,
    (7, 0.95): 0.4834239632303475, (7, 0.99): 0.5758120914333914,
    (20, 0.8): 0.23151862314131647, (20, 0.9): 0.2647305721955969,
    (20, 0.95): 0.2940753144343292, (20, 0.99): 0.35241089163889466,
    (100, 0.8): 0.1056054379300071, (100, 0.9): 0.12066340877827493,
    (100, 0.95): 0.13402791648569778, (100, 0.99): 0.16080868092856113,
    (400, 0.8): 0.05322038866705009, (400, 0.9): 0.0607688078354908,
    (400, 0.95): 0.0674737589261713, (400, 0.99): 0.08092853743274622,
}

# standard normal density at zero
PHI0 = 0.3989422804014327
