"""Seeded inputs for the benchmark workloads, and the set-up step that writes them.

Run as a script to set up one workload in a fresh directory:

    python3 bench/workloads.py --workload read --seed 3 --seconds 30 --out DIR

It writes the workload's CSV (and, for ``read``, a stored estimate) plus
``inputs.json``: the exact CLI argument lists the measured loop will issue and
what their outputs must look like. The same seed always gives the same files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from checks import ordering_crossings

ROOT = Path(__file__).resolve().parent.parent

# The order fixes each workload's random stream; BENCHMARK.json says why each exists.
WORKLOADS = ("fit-monotone", "backtest", "read")

# fit-monotone: one op is one `estimate`; K is pinned by fixing the target's range.
FIT_ITERS, FIT_BURNIN = 80, 16
FIT_RANGE = 6.45             # target range; grid step 0.1 gives K = 65
FIT_QUARTERS = 162           # T = 160 aligned rows after the inflation and lag losses
# backtest: one op is one `evaluate` over origins 160..259, refit every 4.
BT_ITERS, BT_BURNIN = 80, 20
BT_QUARTERS = 261
BT_FIRST_ORIGIN = 160
BT_STEP, BT_RANGE = 0.5, 7.05  # K = 15 in every refit window
# read: one op is one query against a stored estimate of READ_KEPT draws.
READ_KEPT = 1000
# nominal wall of one op at the baseline, used only to size a run from --seconds
OP_SECONDS = {"fit-monotone": 12.0, "backtest": 12.0, "read": 0.2}
MIN_OPS = {"fit-monotone": 2, "backtest": 2, "read": 110}  # read: >= 10 beyond p90
TAUS = (0.05, 0.5, 0.95)


def load_program():
    """Import tvpdr from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "tvpdr" / "__init__.py").is_file():
        raise SystemExit(f"error: no tvpdr sources under {src}")
    sys.path.insert(0, str(src))
    import tvpdr
    import tvpdr.cli  # noqa: F401  (not imported by the package itself)

    if Path(tvpdr.__file__).resolve().parent != (src / "tvpdr").resolve():
        raise SystemExit(f"error: imported tvpdr from {tvpdr.__file__}, not {src}")
    return tvpdr


def quarters(start_year: int, n: int) -> list:
    return [f"{start_year + i // 4}Q{i % 4 + 1}" for i in range(n)]


def n_ops(workload: str, seconds: float) -> int:
    return max(MIN_OPS[workload], round(seconds / OP_SECONDS[workload]))


def _ar1(rng, n, rho, sd):
    out = np.empty(n)
    out[0] = rng.normal(0.0, sd / np.sqrt(1.0 - rho * rho))
    for t in range(1, n):
        out[t] = rho * out[t - 1] + rng.normal(0.0, sd)
    return out


def _prices(infl):
    """Price level whose one-quarter annualized log inflation is ``infl[1:]``."""
    return 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(infl[1:] / 400.0))))


def _write_csv(path, dates, columns: dict):
    names = list(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["date"] + names) + "\n")
        for i, d in enumerate(dates):
            fh.write(",".join([d] + [repr(float(columns[c][i])) for c in names]) + "\n")


def paper_csv(rng, path):
    """Quarterly PCEPI/UNRATE/NROU with a Phillips-curve inflation process.

    Inflation is AR(1) around 2.5 and falls with the lagged unemployment gap.
    The aligned target's range is rescaled to FIT_RANGE so every seed gives
    the same grid size, and hence the same work per sweep.
    """
    n = FIT_QUARTERS
    gap = _ar1(rng, n, 0.9, 0.3)
    infl = np.empty(n)
    infl[0] = 2.5
    for t in range(1, n):
        infl[t] = 2.5 + 0.6 * (infl[t - 1] - 2.5) - 0.4 * gap[t - 1] + rng.normal()
    target = infl[2:]  # infl_{t+1} for the aligned rows t = 1..n-2
    infl = 2.5 + (infl - 2.5) * (FIT_RANGE / np.ptp(target))
    nrou = 5.5 + 0.5 * np.sin(2.0 * np.pi * np.arange(n) / 120.0)
    dates = quarters(1960, n)
    _write_csv(path, dates, {"PCEPI": _prices(infl), "UNRATE": nrou + gap, "NROU": nrou})
    return dates


def backtest_csv(rng, path):
    """c07-shaped data: infl_t = 2 + 0.5 u_{t-1} + N(0, 1), u an AR(1).

    The first training window's target range is rescaled to BT_RANGE and
    later values are clipped into it, so every refit has the same grid.
    """
    n = BT_QUARTERS
    u = _ar1(rng, n, 0.9, 0.5)
    infl = np.empty(n)
    infl[0] = 2.0
    infl[1:] = 2.0 + 0.5 * u[:-1] + rng.normal(size=n - 1)
    first = infl[1 : BT_FIRST_ORIGIN + 1]  # targets of training rows 0..159
    infl = 2.0 + (infl - 2.0) * (BT_RANGE / np.ptp(first))
    lo, hi = infl[1 : BT_FIRST_ORIGIN + 1].min(), infl[1 : BT_FIRST_ORIGIN + 1].max()
    infl[BT_FIRST_ORIGIN + 1 :] = np.clip(infl[BT_FIRST_ORIGIN + 1 :], lo, hi)
    dates = quarters(1950, n)
    _write_csv(path, dates, {"P": _prices(infl), "u": u})
    return dates


def paper_args(csv):
    return ["--data", csv, "--price-column", "PCEPI", "--horizon", "1",
            "--covariates", "infl_PCEPI_1q,ugap"]


def aligned_paper(tvpdr, csv):
    return tvpdr.data.assemble_design(tvpdr.data.load_csv(csv).with_inflation("PCEPI", 1),
                                      ("infl_PCEPI_1q", "ugap"), lag=1)


def synthetic_estimate(tvpdr, aligned, rng, kept, seed):
    """A paper-shaped estimate with ``kept`` draws, built without sampling.

    Intercepts start from the sampler's own initial state (a probit of the
    smoothed empirical CDF, strictly increasing across thresholds) plus a
    random-walk level shared by every threshold of a draw; slopes are
    random-walk paths shared across thresholds too. Shared terms cancel in
    adjacent-threshold differences, so every draw is ordered at every t, as
    the sampler's own draws are.
    """
    y, x = aligned.y, aligned.x
    t_len, d = x.shape
    grid = tvpdr.distribution.build_threshold_grid(float(y.min()), float(y.max()), 0.1)
    k = grid.n
    base = tvpdr.model.initial_state(y, grid, t_len, d, tvpdr.model.LINKS["probit"]).beta[:, 0, 0]
    beta = np.empty((kept, k, t_len, d))

    def walk(scale, start):
        return (rng.normal(0.0, start, (kept, 1))
                + np.cumsum(rng.normal(0.0, scale, (kept, t_len)), axis=1))

    beta[..., 0] = base[None, :, None] + walk(0.02, 0.05)[:, None, :]
    beta[..., 1] = walk(0.005, 0.03)[:, None, :]
    beta[..., 2] = walk(0.005, 0.03)[:, None, :]
    sigma2 = 0.01 * np.exp(0.3 * rng.normal(size=(kept, k, d)))
    spec = tvpdr.model.ModelSpec(d=d, grid=grid, iterations=2 * kept, burnin=kept, seed=seed)
    return tvpdr.model.PosteriorDraws(
        grid=grid, beta=beta, sigma2=sigma2, seed=seed, stream=0,
        spec_hash=spec.spec_hash(), data_hash=tvpdr.model.hash_data(y, x))


def read_queries(rng, csv, estimate, dates, n):
    """A seeded mix of read commands drawn with replacement from a pool.

    The pool holds forecast, in-sample risk and counterfactual queries at 8
    seeded dates plus 4 predictive risk queries, so a run repeats queries
    and each repeat must print exactly what its first issue printed.
    """
    common = paper_args(csv) + ["--estimate", estimate]
    picks = sorted(rng.choice(np.arange(8, len(dates)), size=8, replace=False))
    pool = []
    for i in picks:
        d = dates[i]
        lower = float(rng.choice([0.5, 1.0, 1.5]))
        pool.append(["forecast", *common, "--date", d, "--taus", "0.05,0.25,0.5,0.75,0.95"])
        pool.append(["risk", *common, "--date", d, "--lower", repr(lower),
                     "--upper", repr(lower + 2.0), "--alpha", "1", "--gamma", "1"])
        pool.append(["counterfactual", *common, "--variable", "ugap",
                     "--delta", repr(float(rng.choice([-1.0, -0.5, 0.5, 1.0]))),
                     "--start", dates[i - 4], "--end", d, "--date", d])
    for stream in range(4):
        pool.append(["risk", *common, "--predictive", "--seed", str(int(rng.integers(1000))),
                     "--stream", str(stream), "--alpha", "0", "--gamma", "1"])
    return [pool[i] for i in rng.integers(0, len(pool), size=n)]


def setup(workload: str, seed: int, seconds: float, out: Path) -> dict:
    """Generate one workload's inputs under ``out`` and describe its commands."""
    tvpdr = load_program()
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=False)
    csv = str(out / "data.csv")
    ops = n_ops(workload, seconds)
    if workload == "fit-monotone":
        paper_csv(rng, csv)
        aligned = aligned_paper(tvpdr, csv)
        commands = [["estimate", *paper_args(csv), "--iters", str(FIT_ITERS),
                     "--burnin", str(FIT_BURNIN), "--grid-step", "0.1", "--monotone", "on",
                     "--seed", str(int(rng.integers(2**31))), "--out", str(out / f"est{i}")]
                    for i in range(ops)]
        expect = {"kept": FIT_ITERS - FIT_BURNIN, "obs": len(aligned.y)}
    elif workload == "backtest":
        dates = backtest_csv(rng, csv)
        data = tvpdr.data.load_csv(csv).with_inflation("P", 1)
        aligned = tvpdr.data.assemble_design(data, ("u",), lag=1)
        commands = [["evaluate", "--data", csv, "--price-column", "P", "--horizon", "1",
                     "--covariates", "u", "--iters", str(BT_ITERS), "--burnin", str(BT_BURNIN),
                     "--monotone", "off", "--grid-step", repr(BT_STEP),
                     "--initial-start", dates[0], "--initial-end", dates[BT_FIRST_ORIGIN],
                     "--refit-every", "4", "--taus", ",".join(map(repr, TAUS)),
                     "--workers", "1", "--seed", str(int(rng.integers(2**31))),
                     "--out", str(out / f"bt{i}" / "records.tsv")]
                    for i in range(ops)]
        expect = {"dates": list(aligned.outcome_dates[BT_FIRST_ORIGIN:]), "taus": TAUS}
    else:
        dates = paper_csv(rng, csv)
        aligned = aligned_paper(tvpdr, csv)
        estimate = str(out / "estimate")
        draws = synthetic_estimate(tvpdr, aligned, rng, READ_KEPT, seed)
        bad = ordering_crossings(tvpdr, aligned.x, draws.beta)
        if bad:
            raise SystemExit(f"error: synthetic estimate has {bad} ordering crossings")
        tvpdr.store.save_estimate(estimate, draws)
        commands = read_queries(rng, csv, estimate, list(aligned.origin_dates), ops)
        expect = {}
    inputs = {"workload": workload, "seed": seed, "csv": csv, "commands": commands,
              "expect": expect}
    (out / "inputs.json").write_text(json.dumps(inputs, indent=1), encoding="utf-8")
    return inputs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True, help="directory to create")
    args = p.parse_args(argv)
    setup(args.workload, args.seed, args.seconds, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
