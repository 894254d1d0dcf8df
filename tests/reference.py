"""Slow, independent reference implementations used only by the tests.

Everything here is written against dense numpy/scipy primitives in the most
literal way possible so it shares no code path with the package: dense
precision assembly via kron, a one-threshold Gibbs sampler on top of
scipy.stats.truncnorm and numpy.linalg, a single-site sequential-scan
monotone Gibbs sampler, analytic distribution facts, a batch-means Monte
Carlo standard error, and frozen copies of earlier truncated-normal kernels,
Gibbs inner-loop draws and band assembly. The one exception is
``public_draw_loop``: the Gibbs loop spelled out over the package's public
draws, which ``run_gibbs`` must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import stats
from scipy.special import gammainc, ndtr, ndtri


def dense_precision(design: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Literal K = X'X + (D'D) kron diag(1/sigma2) as a dense matrix."""
    design = np.asarray(design, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    t_len, d = design.shape
    xtx = np.zeros((t_len * d, t_len * d))
    for t in range(t_len):
        g = design[t]
        xtx[t * d : (t + 1) * d, t * d : (t + 1) * d] = np.outer(g, g)
    dtd = 2.0 * np.eye(t_len)
    dtd[-1, -1] = 1.0
    for t in range(t_len - 1):
        dtd[t, t + 1] = -1.0
        dtd[t + 1, t] = -1.0
    return xtx + np.kron(dtd, np.diag(1.0 / sigma2))


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
    dtd = dense_precision(np.zeros((t_len, 1)), np.ones(1))
    xtx = dense_precision(np.ones((t_len, 1)), np.ones(1)) - dtd
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
# rejection beyond. The package must reproduce its draws, and leave the
# generator in the same state, whenever no bound lies beyond 4 sd.
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


def frozen_truncated_normal(mean, sd, lower, upper, gen: np.random.Generator):
    """N(mean, sd^2) on (lower, upper) through the frozen kernel, broadcast as
    ``sample_truncated_normal`` does (a float for all-scalar input)."""
    args = [np.asarray(v, dtype=np.float64) for v in (mean, sd, lower, upper)]
    shape = np.broadcast_shapes(*(v.shape for v in args))
    mean, sd, lower, upper = (np.broadcast_to(v, shape).ravel() for v in args)
    z = frozen_truncated_std_normal((lower - mean) / sd, (upper - mean) / sd, gen)
    draw = np.minimum(np.maximum(mean + sd * z, np.nextafter(lower, np.inf)),
                      np.nextafter(upper, -np.inf)).reshape(shape)
    return float(draw) if shape == () else draw


# Frozen copy of the Gibbs inner loop before its checks and clamps moved out
# of the per-draw path: the mirrored kernel that inverts out to 30 sd behind
# a checked public draw, the intercept sweep that re-enters that draw per
# color and refreshes all of x - mean, the latent draw through it with
# two-sided bounds, and the variance draw. The package must reproduce their
# draws, and leave the generator in the same state, for every input.
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


def frozen_mirrored_truncated_normal(mean, sd, lower, upper, gen: np.random.Generator):
    """N(mean, sd^2) on (lower, upper), checked on every call, clamped one ulp
    inside bounds computed on every call."""
    mean, sd, lower, upper = (np.asarray(v, dtype=np.float64) for v in (mean, sd, lower, upper))
    if not np.all(np.isfinite(mean)):
        raise ValueError("truncated normal mean must be finite")
    if not np.all(np.isfinite(sd) & (sd > 0.0)):
        raise ValueError("truncated normal sd must be finite and positive")
    if not np.all(lower < upper):
        raise ValueError("empty truncation interval: lower must be < upper")
    a, b = np.broadcast_arrays((lower - mean) / sd, (upper - mean) / sd)
    z = frozen_mirrored_std_normal(a.ravel(), b.ravel(), gen).reshape(a.shape)
    draw = np.minimum(np.maximum(mean + sd * z, np.nextafter(lower, np.inf)),
                      np.nextafter(upper, -np.inf))
    return float(draw) if draw.ndim == 0 else draw


def frozen_truncated_mvn(precision, mean, lower, upper, init, sweeps: int,
                         gen: np.random.Generator) -> np.ndarray:
    """Color-group Gibbs sweep for a box-truncated Gaussian with band precision
    (``dim``, ``bandwidth``, lower band ``diagonals``); the caller passes
    valid input."""
    n = precision.dim
    mean, lower, upper = (np.asarray(v, dtype=np.float64) for v in (mean, lower, upper))
    x = np.array(init, dtype=np.float64, copy=True)
    sd = 1.0 / np.sqrt(precision.diagonals[0])
    width = precision.bandwidth
    r = np.zeros(n + 2 * width)
    offsets = np.array([0] + [s * k for k in range(1, width + 1) for s in (-1, 1)])
    groups = []
    for c in range(width + 1):
        own = slice(c, n, width + 1)
        nbr = np.arange(n)[own] + offsets[:, None]
        band = precision.diagonals[abs(offsets)[:, None], np.maximum(np.minimum(nbr, nbr[0]), 0)]
        coupling = np.where((nbr >= 0) & (nbr < n), band, 0.0)
        views = [slice(width + c + o, width + n + o, width + 1) for o in offsets]
        groups.append((own, views, coupling, sd[own], lower[own], upper[own]))
    for _ in range(sweeps):
        for own, views, coupling, sd_c, lower_c, upper_c in groups:
            np.subtract(x, mean, out=r[width : width + n])
            v = coupling[0] * r[views[0]]
            for cpl, view in zip(coupling[1:], views[1:]):
                v += cpl * r[view]
            x[own] = frozen_mirrored_truncated_normal(x[own] - v / coupling[0], sd_c,
                                                      lower_c, upper_c, gen)
    return x


def frozen_draw_latent(threshold, y, design, beta, gen: np.random.Generator) -> np.ndarray:
    """Probit latents: N(fit, 1) on (0, inf) where y <= threshold, else (-inf, 0)."""
    mean = np.einsum("td,...td->...t", np.ascontiguousarray(design), np.ascontiguousarray(beta))
    below = y <= np.asarray(threshold)[..., None]
    lower = np.where(below, 0.0, -np.inf)
    upper = np.where(below, np.inf, 0.0)
    return frozen_mirrored_truncated_normal(mean, 1.0, lower, upper, gen)


def frozen_draw_sigma2(beta, nu, s, gen: np.random.Generator, include_initial=False):
    """Inverse-gamma update of the random-walk variances, (T, d) or (B, T, d) paths."""
    beta = np.asarray(beta, dtype=np.float64)
    t_len, d = beta.shape[-2:]
    nu = np.broadcast_to(np.asarray(nu, dtype=np.float64), (d,))
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), (d,))
    rss = np.sum(np.diff(beta, axis=-2) ** 2, axis=-2)
    if include_initial:
        shape = nu + 0.5 * t_len
        scale = s + 0.5 * (rss + beta[..., 0, :] ** 2)
    else:
        shape = nu + 0.5 * (t_len - 1)
        scale = s + 0.5 * rss
    return 1.0 / gen.gamma(shape, 1.0 / scale)

def frozen_assemble_bands(design, sigma2, ridge_scale: float = 0.0) -> np.ndarray:
    """Band storage of the stacked precision as first written: C-ordered
    (d + 1, B*T*d), the likelihood outer products per t, then the prior."""
    design = np.asarray(design, dtype=np.float64)
    t_len, d = design.shape
    inv = 1.0 / np.asarray(sigma2, dtype=np.float64).reshape(-1, 1, d)
    bands = np.zeros((d + 1, inv.shape[0], t_len, d))
    for k in range(d):
        bands[k, :, :, : d - k] = design[:, k:] * design[:, : d - k]
    walk = np.full((t_len, 1), 2.0)
    walk[-1] = 1.0
    bands[0] += walk * inv
    bands[d, :, :-1] = -inv
    diagonals = bands.reshape(d + 1, -1)
    if ridge_scale > 0.0:
        per_path = diagonals[0].reshape(inv.shape[0], -1)
        per_path += ridge_scale * per_path.max(axis=1, keepdims=True)
    return diagonals


def public_draw_loop(spec, y, x, gen: np.random.Generator):
    """The Gibbs loop written against the package's public draws, batch by
    batch, with nothing built ahead: fancy-indexed red-black batches (one
    batch of all thresholds when unconstrained), neighbor bounds stacked
    afresh and fits recomputed after every monotone draw. Returns the kept
    (beta, sigma2)."""
    from tvpdr.model import (apply_design_transform, draw_beta_monotone,
                             draw_beta_unconstrained, draw_latent, draw_sigma2, fitted_values,
                             initial_state)

    y = np.asarray(y, dtype=np.float64)
    design = apply_design_transform(x, spec.design_transform)
    t_len, d = design.shape
    k = spec.grid.n
    state = initial_state(y, spec.grid, t_len, d, spec.link_function())
    nu, s = spec.prior_arrays()
    colors = [np.arange(c, k, 2) for c in range(min(k, 2))] if spec.monotone else [np.arange(k)]
    edge = np.full((1, t_len), np.inf)
    kept_beta, kept_sigma2 = [], []
    for it in range(spec.iterations):
        for batch in colors:
            latent = draw_latent(spec.grid.points[batch], y, design, state.beta[batch], gen)
            if spec.monotone:
                bounds = np.vstack([-edge, state.fitted, edge])
                beta = draw_beta_monotone(
                    bounds[batch], bounds[batch + 2], design, latent, state.sigma2[batch], gen,
                    sweeps=spec.truncation_sweeps, warm_start=state.beta[batch],
                    ridge_scale=spec.ridge_scale)
                state.fitted[batch] = fitted_values(design, beta)
            else:
                beta = draw_beta_unconstrained(design, latent, state.sigma2[batch], gen,
                                               ridge_scale=spec.ridge_scale)
            state.beta[batch] = beta
            state.sigma2[batch] = draw_sigma2(beta, nu, s, gen,
                                              include_initial=spec.include_initial_state_in_ig)
        if it >= spec.burnin:
            kept_beta.append(state.beta.copy())
            kept_sigma2.append(state.sigma2.copy())
    return np.array(kept_beta), np.array(kept_sigma2)


# Frozen oracle values, each computed once from an independent route and
# pinned here so a regression cannot silently move them.

# mean of |N(0,1)| = sqrt(2/pi); 1e6-draw MC agrees to 3 decimal places
HALF_NORMAL_MEAN = 0.7978845608028654

# E[X1] for N(0, I2) truncated to the unit box, X1 in [0, 1]:
# (phi(0) - phi(1)) / (Phi(1) - Phi(0))
UNIT_BOX_COORD_MEAN = 0.45986222928642656

# KS 95% critical value, asymptotic 1.3580986 / sqrt(n) at n = 100
KS95_N100 = 0.13580986393225505

# standard normal density at zero
PHI0 = 0.3989422804014327
