"""Measured phase of one benchmark run: a closed loop of CLI commands.

Run by ``run.py`` in a fresh interpreter once set-up has written
``inputs.json``. It issues every command in-process through ``tvpdr.cli.main``,
one at a time, checks each output, and writes the workload's metrics to
``--result``. With ``--trace 1`` every other command runs with layer spans
on; the per-layer metrics come from those, and the untraced ones give the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import check_backtest, check_estimate, check_read
from ess import ess
from spans import Tracer, layer_metrics, targets
from workloads import aligned_paper, load_program


def dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file())


class Loop:
    """Issues commands, tags each as traced or not, and keeps every outcome."""

    def __init__(self, tvpdr, trace: bool):
        self.tvpdr = tvpdr
        self.trace = trace
        self.layers = Tracer()
        self.ops = []

    def run(self, argv) -> dict:
        i = len(self.ops)
        traced = self.trace and i % 2 == 1
        tracer = self.layers if traced else Tracer()
        tracer.op = i
        updates_before = tracer.counters["updates"]
        spans_before = len(tracer.spans)
        out, err = io.StringIO(), io.StringIO()
        with tracer.installed(targets(self.tvpdr, layers=traced)):
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.tvpdr.cli.main(argv)
            except Exception:  # a crash is a failed operation, not a dead benchmark
                rc, err = -1, io.StringIO(traceback.format_exc())
            wall = time.perf_counter() - start
        sampling = sum(s[5] - s[4] for s in tracer.spans[spans_before:]
                       if s[3] == "model.run_gibbs")
        op = {"traced": traced, "wall": wall, "sampling": sampling,
              "updates": tracer.counters["updates"] - updates_before,
              "stdout": out.getvalue(),
              "problems": [] if rc == 0 else [f"exit {rc}: {err.getvalue().strip()[-500:]}"]}
        self.ops.append(op)
        return op

    def timed(self, traced: bool):
        return [op for op in self.ops if op["traced"] == traced]

    def per_update_ms(self, traced: bool) -> float:
        ops = self.timed(traced)
        return 1e3 * sum(o["sampling"] for o in ops) / sum(o["updates"] for o in ops)


def fresh(path) -> None:
    """Refuse to run into leftovers: evaluate resumes from an existing file."""
    if os.path.exists(path):
        raise SystemExit(f"error: {path} exists before its command ran")


def fit_monotone(tvpdr, inputs, loop):
    aligned = aligned_paper(tvpdr, inputs["csv"])
    t_len = len(aligned.y)
    probes = (t_len // 4, t_len // 2, 3 * t_len // 4)
    cdf = tvpdr.model.LINKS["probit"].cdf
    saved = []
    for argv in inputs["commands"]:
        out_dir = argv[-1]
        fresh(out_dir)
        op = loop.run(argv)
        if not op["problems"]:
            op["problems"], draws = check_estimate(tvpdr, op["stdout"], out_dir, aligned,
                                                   inputs["expect"])
            if draws is not None:
                # CDF values users read: every threshold at three fixed t
                fits = np.stack([draws.beta[:, :, t, :] @ aligned.x[t] for t in probes], axis=1)
                op["ess_cdf"] = float(np.nanmedian(ess(cdf(fits))))
                op["ess_logsig2"] = float(np.nanmedian(ess(np.log(draws.sigma2))))
            saved.append(dir_bytes(out_dir))
        shutil.rmtree(out_dir, ignore_errors=True)
    ok = [o for o in loop.timed(False) if "ess_cdf" in o]
    mixing = [o for o in loop.ops if "ess_cdf" in o]  # draws do not depend on tracing
    e2e = {
        "estimate_s": statistics.median(o["wall"] for o in ok),
        "ms_per_update": statistics.median(1e3 * o["sampling"] / o["updates"] for o in ok),
        "ess_cdf_per_s": statistics.median(o["ess_cdf"] / o["sampling"] for o in ok),
        "ess_logsig2_per_s": statistics.median(o["ess_logsig2"] / o["sampling"] for o in ok),
        "ess_cdf_per_kupd": statistics.median(1e3 * o["ess_cdf"] / o["updates"] for o in mixing),
        "ess_logsig2_per_kupd": statistics.median(1e3 * o["ess_logsig2"] / o["updates"]
                                                  for o in mixing),
    }
    return e2e, {"bytes_written": statistics.mean(saved) if saved else 0.0}


def backtest(tvpdr, inputs, loop):
    expect = inputs["expect"]
    for argv in inputs["commands"]:
        records = argv[-1]
        fresh(os.path.dirname(records))
        os.makedirs(os.path.dirname(records))
        op = loop.run(argv)
        if not op["problems"]:
            op["problems"] = check_backtest(op["stdout"], records, expect)
        shutil.rmtree(os.path.dirname(records), ignore_errors=True)
    ok = [o for o in loop.timed(False) if not o["problems"]]
    origins = len(expect["dates"])
    e2e = {
        "evaluate_s": statistics.median(o["wall"] for o in ok),
        "ms_per_update": statistics.median(1e3 * o["sampling"] / o["updates"] for o in ok),
        "origins_per_s": statistics.median(origins / o["wall"] for o in ok),
    }
    return e2e, {}


def read(tvpdr, inputs, loop):
    first = {}
    estimate = inputs["commands"][0][inputs["commands"][0].index("--estimate") + 1]
    for argv in inputs["commands"]:
        op = loop.run(argv)
        if not op["problems"]:
            op["problems"] = check_read(argv, op["stdout"])
            seen = first.setdefault(tuple(argv), op["stdout"])
            if seen != op["stdout"]:
                op["problems"].append("a repeated query printed different output")
    lat = [1e3 * o["wall"] for o in loop.timed(False)]
    e2e = {**percentiles("read_ms", lat), "reads_per_s": 1e3 * len(lat) / sum(lat)}
    return e2e, {"bytes_read": dir_bytes(estimate)}


def percentiles(name, samples) -> dict:
    """Median and p90 of the samples, with how many there are beyond p90."""
    p50, p90 = np.percentile(samples, [50, 90])
    return {f"{name}_p50": float(p50), f"{name}_p90": float(p90),
            f"{name}_samples": len(samples),
            f"{name}_beyond_p90": int(np.sum(np.asarray(samples) > p90))}


WORKLOADS = {"fit-monotone": fit_monotone, "backtest": backtest, "read": read}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--inputs", required=True, help="directory set-up wrote")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", required=True, help="JSON file to write")
    p.add_argument("--spans", required=True, help="gzipped JSON file for traced spans")
    args = p.parse_args(argv)

    tvpdr = load_program()
    inputs = json.loads((Path(args.inputs) / "inputs.json").read_text(encoding="utf-8"))
    loop = Loop(tvpdr, bool(args.trace))
    e2e, io_bytes = WORKLOADS[args.workload](tvpdr, inputs, loop)
    e2e["peak_rss_mb"] = peak_rss_mb()
    problems = [p for op in loop.ops for p in op["problems"]]
    failed = sum(1 for op in loop.ops if op["problems"])
    result = {"attempted": len(loop.ops), "failed": failed, "problems": problems[:20],
              "e2e": e2e, "ops": [{k: op[k] for k in ("traced", "wall", "sampling", "updates")}
                                  for op in loop.ops]}
    if args.trace:
        traced = loop.timed(True)
        summary = loop.layers.summary()
        layers = layer_metrics(summary, loop.layers.counters, len(traced),
                               io_bytes.get("bytes_written", 0.0), io_bytes.get("bytes_read", 0.0))
        if any(o["updates"] for o in loop.ops):
            ratio = loop.per_update_ms(True) / loop.per_update_ms(False)
        else:
            ratio = (statistics.median(o["wall"] for o in traced)
                     / statistics.median(o["wall"] for o in loop.timed(False)))
        layers["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
        for name in ("ess_cdf_per_kupd", "ess_logsig2_per_kupd"):
            layers[f"model.{name}"] = e2e.get(name, 0.0)
        result["layers"] = layers
        result["span_counts"] = {name: s["calls"] for name, s in sorted(summary.items())}
        loop.layers.write(args.spans, {"workload": args.workload, "seed": inputs["seed"]})
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
