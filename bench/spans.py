"""Spans around calls into tvpdr's layers, recorded from outside the package.

Each target wraps the name its caller resolves (``tvpdr.model.cholesky_banded``
rather than ``tvpdr.banded.cholesky_banded``, because ``model.py`` imports it
by name), so no package source changes. Spans are kept in memory as
``(id, parent, op, name, start, end)`` and written out when the run ends.
"""

from __future__ import annotations

import gzip
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _count_updates(counters, args, result):
    spec = args[0]
    counters["updates"] += spec.iterations * spec.grid.n


def _count_draws(counters, args, result):
    counters["tnorm_draws"] += int(np.size(result))


def targets(tvpdr, layers: bool):
    """(owner, attribute, span name, counter) for every wrapped call.

    Without ``layers`` only the sampler entry points are timed, which is
    what the untraced run needs for its sampling wall and update count.
    Internal names may move as the package changes; a target that no
    longer exists is skipped and its layer reports 0.
    """
    cli, evaluation, model, samplers = tvpdr.cli, tvpdr.evaluation, tvpdr.model, tvpdr.samplers
    timing = [
        (cli, "run_gibbs", "model.run_gibbs", _count_updates),
        (evaluation, "run_gibbs", "model.run_gibbs", _count_updates),
    ]
    if not layers:
        return timing
    return timing + [
        (cli, "main", "cli.main", None),
        (cli, "load_csv", "data.load_csv", None),
        (cli, "assemble_design", "data.assemble_design", None),
        (evaluation, "assemble_design", "data.assemble_design", None),
        (model, "draw_latent", "model.latent", None),
        (tvpdr.data.MacroDataset, "with_inflation", "data.with_inflation", None),
        (cli, "save_estimate", "store.save", None),
        (cli, "load_estimate", "store.load", None),
        (model, "draw_beta_monotone", "model.beta", None),
        (model, "draw_beta_unconstrained", "model.beta", None),
        (model, "draw_sigma2", "model.sigma2", None),
        (model, "sample_truncated_mvn", "samplers.tmvn", None),
        (model, "sample_truncated_normal", "samplers.tnorm", _count_draws),
        (samplers, "sample_truncated_normal", "samplers.tnorm", _count_draws),
        (model, "assemble_precision", "banded.assemble", None),
        (model, "cholesky_banded", "banded.cholesky", None),
        (model, "solve_banded", "banded.solve", None),
        (cli, "conditional_cdf", "distribution.cdf", None),
        (cli, "forecast_predictive", "distribution.forecast", None),
        (cli, "deflation_risk", "risk.measures", None),
        (cli, "excess_inflation_risk", "risk.measures", None),
        (cli, "distribution_mean", "risk.measures", None),
        (cli, "compare_distributions", "risk.compare", None),
        (cli, "expanding_window_backtest", "evaluation.backtest", None),
        (evaluation, "forecast_predictive", "evaluation.forecast", None),
    ]


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of one CLI command."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.op = 0
        self._ids = itertools.count()
        self._stack = []

    def wrap(self, fn, name, count=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end))
            if count is not None:
                count(self.counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, wrap_targets):
        saved = []
        try:
            for owner, attr, name, count in wrap_targets:
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds."""
        child = defaultdict(float)
        for sid, parent, op, name, start, end in self.spans:
            child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for sid, parent, op, name, start, end in self.spans:
            s = out[name]
            s["calls"] += 1
            s["total"] += end - start
            s["self"] += end - start - child[sid]
        return out

    def write(self, path, meta: dict):
        fields = ["id", "parent", "op", "name", "start", "end"]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans}, fh)


def layer_metrics(summary: dict, counters: dict, commands: int, bytes_written: float,
                  bytes_read: float) -> dict:
    """The per-layer metrics, from one run's traced commands.

    Per-update figures are self times divided by threshold updates; per-call
    figures divide by that span's calls. A layer a workload never calls
    reports 0.
    """
    updates = counters.get("updates", 0)

    def get(name, key):
        return summary[name][key] if name in summary else 0.0

    def per_update(*names, key="self", scale=1e6):
        return sum(get(n, key) for n in names) * scale / updates if updates else 0.0

    def per_call(name, key="self", scale=1e3):
        calls = get(name, "calls")
        return get(name, key) * scale / calls if calls else 0.0

    cli_total = get("cli.main", "total")
    unattributed = get("cli.main", "self") + get("model.run_gibbs", "self")
    return {
        "samplers.tmvn_us": per_update("samplers.tmvn"),
        "samplers.tnorm_us": per_update("samplers.tnorm"),
        "samplers.tnorm_calls": per_update("samplers.tnorm", key="calls", scale=1.0),
        "samplers.tnorm_draws": counters.get("tnorm_draws", 0) / updates if updates else 0.0,
        "banded.assemble_us": per_update("banded.assemble"),
        "banded.cholesky_us": per_update("banded.cholesky"),
        "banded.solve_us": per_update("banded.solve"),
        "banded.calls": per_update("banded.assemble", "banded.cholesky", "banded.solve",
                                   key="calls", scale=1.0),
        "model.latent_us": per_update("model.latent"),
        "model.beta_self_us": per_update("model.beta"),
        "model.sigma2_us": per_update("model.sigma2"),
        "model.loop_self_us": per_update("model.run_gibbs"),
        "store.save_ms": per_call("store.save"),
        "store.bytes_written": bytes_written,
        "store.load_ms": per_call("store.load"),
        "store.bytes_read": bytes_read,
        "data.load_ms": sum(get(n, "self") for n in
                            ("data.load_csv", "data.with_inflation", "data.assemble_design"))
                        * 1e3 / commands,
        "distribution.cdf_ms": per_call("distribution.cdf"),
        "distribution.forecast_ms": per_call("distribution.forecast"),
        "risk.measures_us": per_call("risk.measures", scale=1e6),
        "risk.compare_ms": per_call("risk.compare"),
        "evaluation.refit_ms": (per_call("model.run_gibbs", key="total")
                                if "evaluation.backtest" in summary else 0.0),
        "evaluation.forecast_ms": per_call("evaluation.forecast", key="total"),
        "evaluation.blocks": (get("model.run_gibbs", "calls") / commands
                              if "evaluation.backtest" in summary else 0.0),
        "cli.self_ms": per_call("cli.main"),
        "trace.coverage_pct": 100.0 * (1.0 - unattributed / cli_total) if cli_total else 0.0,
    }
