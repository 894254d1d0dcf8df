"""Correctness checks on the outputs of benchmark commands.

Each check returns a list of problems; an empty list means the output is
right. A command with any problem counts as a failed operation.
"""

from __future__ import annotations

import numpy as np


def ordering_crossings(tvpdr, design, beta) -> int:
    """Adjacent-threshold crossings over every kept draw and every t.

    Fits come from ``model.fitted_values``, the accumulation the sampler
    orders, one (draw, threshold) at a time as acceptance check c04 does.
    """
    fitted_values = tvpdr.model.fitted_values
    kept, k = beta.shape[:2]
    fits = np.empty((k, design.shape[0]))
    bad = 0
    for s in range(kept):
        for j in range(k):
            fits[j] = fitted_values(design, beta[s, j])
        bad += int(np.sum(np.diff(fits, axis=0) < 0.0))
    return bad


def table(stdout: str) -> dict:
    """First cell of each TSV row mapped to the rest of the row."""
    rows = [line.split("\t") for line in stdout.splitlines() if line]
    return {r[0]: r[1:] for r in rows}


def check_estimate(tvpdr, stdout, out_dir, aligned, expect) -> tuple:
    """The estimate printed its summary and the stored draws never cross."""
    rows = table(stdout)
    if rows.get("kept_draws") != [str(expect["kept"])]:
        return [f"estimate printed kept_draws {rows.get('kept_draws')}"], None
    draws = tvpdr.store.load_estimate(
        out_dir, expect_data_hash=tvpdr.model.hash_data(aligned.y, aligned.x))
    if draws.kept != expect["kept"] or draws.n_obs != expect["obs"]:
        return [f"stored draws have shape {draws.beta.shape}"], None
    bad = ordering_crossings(tvpdr, aligned.x, draws.beta)
    return ([f"{bad} ordering crossings"] if bad else []), draws


def check_backtest(stdout, records_path, expect) -> list:
    """One record per origin, PIT in [0, 1], monotone CDFs, ordered coverage."""
    problems = []
    rows = table(stdout)
    if rows.get("failures") != ["0"]:
        problems.append(f"skipped refits: {rows.get('failures')}")
    with open(records_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split("\t")
    records = [line.split("\t") for line in lines[1:]]
    if [r[0] for r in records] != expect["dates"]:
        problems.append(f"{len(records)} records for {len(expect['dates'])} origins")
    cdf_cols = [i for i, name in enumerate(header) if name.startswith("cdf_")]
    pits = np.array([float(r[2]) for r in records])
    cdfs = np.array([[float(r[i]) for i in cdf_cols] for r in records])
    if pits.size == 0 or np.any((pits < 0.0) | (pits > 1.0)):
        problems.append("PIT outside [0, 1]")
    if np.any(np.diff(cdfs, axis=1) < 0.0) or np.any((cdfs < 0.0) | (cdfs > 1.0)):
        problems.append("a recorded CDF is not monotone in [0, 1]")
    # ordered quantiles at every origin make coverage non-decreasing in tau
    coverage = [float(rows[f"coverage_{t:g}"][0]) for t in expect["taus"]]
    if np.any(np.diff(coverage) < 0.0):
        problems.append(f"coverage not ordered in tau: {coverage}")
    return problems


def check_read(argv, stdout) -> list:
    """Ordered quantiles, deflation risk <= 0, probabilities in [0, 1]."""
    rows = table(stdout)
    command = argv[0]
    if command == "forecast":
        qs = [float(v[0]) for k, v in rows.items() if k.startswith("q")]
        if len(qs) != 5 or np.any(np.diff(qs) < 0.0):
            return [f"forecast quantiles not ordered: {qs}"]
        return []
    if command == "risk":
        dr = next(float(v[0]) for k, v in rows.items() if k.startswith("deflation_risk"))
        eir = next(float(v[0]) for k, v in rows.items() if k.startswith("excess_inflation"))
        mass = float(rows["target_range_mass"][0])
        if not (dr <= 0.0 <= eir and 0.0 <= mass <= 1.0 + 1e-12):
            return [f"risk out of range: dr={dr} eir={eir} mass={mass}"]
        return []
    probs = [float(c) for k, v in rows.items() if k.startswith("p_above") for c in v]
    if len(rows.get("mean", [])) != 2 or not all(0.0 <= p <= 1.0 for p in probs):
        return ["counterfactual table malformed"]
    return []
