"""Benchmark entry point: set up one workload, measure it, print the metrics.

    python3 bench/run.py --workload fit-monotone --seed 1 --seconds 30 --trace 0

Set-up runs five times, each in a fresh interpreter (import, data
generation, and for ``read`` storing the estimate); ``setup_s`` is the median.
The measured phase then runs in one more fresh interpreter (``measure.py``) so
its peak RSS is its own. The last stdout line is the JSON result; the lines
before it name every metric with its unit. A fuller record, with the machine,
goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Each workload's own metrics, with units, and how they map onto the
# end-to-end metrics that every workload must report (BENCHMARK.json).
DETAIL_UNITS = {
    "estimate_s": "s", "evaluate_s": "s", "ms_per_update": "ms", "ess_cdf_per_s": "1/s",
    "ess_logsig2_per_s": "1/s", "ess_cdf_per_kupd": "1/kupdate",
    "ess_logsig2_per_kupd": "1/kupdate", "origins_per_s": "1/s", "read_ms_p50": "ms",
    "read_ms_p90": "ms", "reads_per_s": "1/s", "read_ms_samples": "count",
    "read_ms_beyond_p90": "count", "peak_rss_mb": "MB", "fail_frac": "ratio", "setup_s": "s",
}
SLOTS = {
    "fit-monotone": {"cmd_s": ("estimate_s", 1.0), "unit_ms": ("ms_per_update", 1.0)},
    "backtest": {"cmd_s": ("evaluate_s", 1.0), "unit_ms": ("ms_per_update", 1.0)},
    "read": {"cmd_s": ("read_ms_p50", 1e-3), "unit_ms": ("read_ms_p90", 1.0)},
}


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine(env) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {v: env[v] for v in THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def child(args, env, deadline):
    """Run a bench script in a fresh interpreter; kill it at the deadline."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *map(str, args)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # timeout or termination: never leave the child behind
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"error: {args[0]} ran past the deadline") from None
        raise
    if proc.returncode != 0:
        raise SystemExit(f"error: {args[0]} exited {proc.returncode}\n{err.strip()[-2000:]}")
    return time.perf_counter() - start


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))  # run the cleanups

    if not (ROOT / "src" / "tvpdr" / "__init__.py").is_file():
        print(f"error: no tvpdr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("TVPDR_THREADS", None)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    try:
        setup_times = []
        for i in range(SETUPS):
            inputs = work / f"setup{i}"
            setup_times.append(child([BENCH / "workloads.py", "--workload", args.workload,
                                      "--seed", args.seed, "--seconds", args.seconds,
                                      "--out", inputs], env, deadline))
            if i:
                shutil.rmtree(work / f"setup{i - 1}")
        result_file = work / "result.json"
        spans_file = results / f"{tag}-spans.json.gz"
        child([BENCH / "measure.py", "--workload", args.workload, "--inputs", inputs,
               "--trace", args.trace, "--result", result_file, "--spans", spans_file],
              env, deadline)
        measured = json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = dict(measured["e2e"], fail_frac=measured["failed"] / measured["attempted"])
    detail["setup_s"] = statistics.median(setup_times)
    if args.trace:
        values = measured["layers"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"setup_s": detail["setup_s"], "peak_rss_mb": detail["peak_rss_mb"]}
        for slot, (name, scale) in SLOTS[args.workload].items():
            values[slot] = detail[name] * scale
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    info = machine(env)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "setup_times_s": setup_times,
              "detail": detail, "metrics": values, "problems": measured["problems"],
              "ops": measured["ops"]}
    if args.trace:
        record["span_counts"] = measured["span_counts"]
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("machine " + json.dumps(info, sort_keys=True))
    for name, value in detail.items():
        print(f"{args.workload} {name} {value:.6g} {DETAIL_UNITS[name]}")
    for problem in measured["problems"]:
        print(f"{args.workload} problem: {problem}")
    print(json.dumps({
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
