"""Spans around the package's public functions, recorded from outside the package.

`Tracer.installed()` replaces each public function named in `WRAPPED` by a
timing wrapper, in the module namespace where its caller looks the name up,
and restores the originals on exit.  Spans (name, start, end, parent) stay in
memory until the run ends.  A logging handler on the `mccvc.kernels` and
`mccvc.solvers` loggers counts the numerical guards that fire.  A sample of
`optimize_params` and `weighted_ridge_step` calls keeps its inputs and output
so that `perfbench.checks` can verify them after the run.
"""

from __future__ import annotations

import contextlib
import importlib
import logging
import statistics
import time
from collections import Counter

import numpy as np

# (module where the caller looks the name up, attribute, span name).  A span
# name is "<layer>.<function>", the layer being the module that defines it.
WRAPPED = (
    ("mccvc.cli", "main", "cli.main"),
    ("mccvc.cli", "load_csv", "data.load_csv"),
    ("mccvc.bench", "run_data_bench", "bench.run_data_bench"),
    ("mccvc.bench", "bench_dataset", "bench.bench_dataset"),
    ("mccvc.bench", "synth_case_design", "bench.synth_case_design"),
    ("mccvc.bench", "synth_fit", "bench.synth_fit"),
    ("mccvc.bench", "fit_mcc_vc", "solvers.fit_mcc_vc"),
    ("mccvc.bench", "fit_mcc", "solvers.fit_mcc"),
    ("mccvc.bench", "ridge_solve", "solvers.ridge_solve"),
    ("mccvc.solvers", "weighted_ridge_step", "solvers.weighted_ridge_step"),
    ("mccvc.solvers", "optimize_params", "kernels.optimize_params"),
    ("mccvc.solvers", "mcc_vc_cost", "kernels.mcc_vc_cost"),
    ("mccvc.bench", "init_elm", "features.init_elm"),
    ("mccvc.bench", "elm_features", "features.elm_features"),
    ("mccvc.bench", "build_linear_features", "features.build_linear_features"),
    ("mccvc.bench", "predict", "features.predict"),
    ("mccvc.bench", "generate_linear_data", "data.generate_linear_data"),
    ("mccvc.bench", "split", "data.split"),
    ("mccvc.bench", "kfold_indices", "data.kfold_indices"),
    ("mccvc.bench", "minmax_record", "data.minmax_record"),
    ("mccvc.bench", "apply_minmax", "data.apply_minmax"),
    ("mccvc.bench", "rmse_predictions", "data.rmse_predictions"),
)

# Loggers whose records are the package's numerical guards, and the message
# prefix that identifies each guard.
GUARDS = {
    "kernels.width_clamps": ("mccvc.kernels", "clamped"),
    "solvers.jitter_retries": ("mccvc.solvers", "factorization failed"),
}

FITS = ("solvers.fit_mcc_vc", "solvers.fit_mcc")


def layer(name: str) -> str:
    """Layer of a span; the CLI is timed with the bench layer it drives."""
    head = name.split(".", 1)[0]
    return "bench" if head == "cli" else head


class _GuardCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(logging.INFO)
        self.counts = counts

    def emit(self, record):
        for metric, (logger, prefix) in GUARDS.items():
            if record.name == logger and str(record.msg).startswith(prefix):
                self.counts[metric] += 1


class Tracer:
    """In-memory span recorder; `op` names the benchmark operation in progress."""

    def __init__(self, sample_every: int = 50, max_samples: int = 8):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.sample_every = sample_every
        self.max_samples = max_samples
        self.samples: dict[str, list] = {"kernels.optimize_params": [], "solvers.weighted_ridge_step": []}
        self.calls: Counter = Counter()
        self.events: Counter = Counter()
        self.fits: list[tuple[int, bool]] = []  # (iterations_run, converged)
        self.grid_evals = 0
        self.report_bytes = 0
        self.op = -1

    # -- recording ---------------------------------------------------------

    def _observe(self, name, args, result):
        n = self.calls[name]
        self.calls[name] += 1
        if name == "kernels.optimize_params":
            errors, grid = args[0], args[1]
            centers = 1 if grid.center_set is None or grid.center_rule.value != "grid" else grid.center_set.size
            self.grid_evals += len(errors) * grid.sigma_set.size * centers
            if n % self.sample_every == 0 and len(self.samples[name]) < self.max_samples:
                params, objective = result
                self.samples[name].append(
                    (self.op, np.array(errors, dtype=float), grid, params.sigma, params.center, objective)
                )
        elif name == "solvers.weighted_ridge_step":
            if n % self.sample_every == 0 and len(self.samples[name]) < self.max_samples:
                H, t, params, lam, beta_prev = args[:5]
                self.samples[name].append(
                    (self.op, np.array(H, dtype=float), np.array(t, dtype=float), params.sigma,
                     params.center, lam, np.array(beta_prev, dtype=float), np.array(result))
                )
        elif name in FITS:
            self.fits.append((result.iterations_run, result.converged))

    def _wrap(self, name, fn, solver_error):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, 0.0, 0.0, parent])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except solver_error:
                # Count each solver failure once, where it leaves the solvers layer.
                if layer(name) == "solvers" and (parent < 0 or layer(spans[parent][0]) != "solvers"):
                    self.events["solvers.solver_errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            self._observe(name, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED and count guard log records."""
        solver_error = importlib.import_module("mccvc.errors").SolverError
        originals = []
        handler = _GuardCounter(self.events)
        loggers = [logging.getLogger(name) for name, _ in GUARDS.values()]
        levels = [lg.level for lg in loggers]
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, solver_error))
            for lg in loggers:
                lg.setLevel(logging.INFO)
                lg.addHandler(handler)
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
            for lg, level in zip(loggers, levels):
                lg.removeHandler(handler)
                lg.setLevel(level)

    # -- reporting ---------------------------------------------------------

    def _arrays(self):
        names = np.array([s[0] for s in self.spans], dtype=object)
        parents = np.array([s[3] for s in self.spans], dtype=int)
        dur = np.array([s[2] - s[1] for s in self.spans])
        return names, parents, dur

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        _, parents, dur = self._arrays()
        own = dur.copy()
        nested = parents >= 0
        np.subtract.at(own, parents[nested], dur[nested])
        return own

    def layer_metrics(self, replications: int) -> dict[str, float]:
        """Per-layer metrics; calls, times and counts are per replication."""
        per = 1.0 / replications
        names, parents, dur = self._arrays()
        own = self.self_times()
        layers = np.array([layer(n) for n in names], dtype=object)
        nested = parents >= 0
        parent_name = np.where(nested, names[np.maximum(parents, 0)], "")
        parent_layer = np.where(nested, layers[np.maximum(parents, 0)], "")

        def by_name(name):
            return names == name

        def in_layer(lay):
            return layers == lay

        def top_of_layer(lay):
            # Spans of a layer not nested in the same layer: their durations add up.
            return (layers == lay) & (parent_layer != lay)

        def p50_ms(mask):
            return 1e3 * float(np.median(dur[mask])) if mask.any() else 0.0

        opt, cost, step = by_name("kernels.optimize_params"), by_name("kernels.mcc_vc_cost"), by_name("solvers.weighted_ridge_step")
        vc, mcc, ridge = by_name("solvers.fit_mcc_vc"), by_name("solvers.fit_mcc"), by_name("solvers.ridge_solve")
        kernels_in_vc = in_layer("kernels") & (parent_name == "solvers.fit_mcc_vc")
        iterations = [it for it, _ in self.fits]
        converged = sum(1 for _, ok in self.fits if ok)
        m = {
            "kernels.optimize_params.calls": per * opt.sum(),
            "kernels.optimize_params.s": per * dur[opt].sum(),
            "kernels.optimize_params.ms_p50": p50_ms(opt),
            "kernels.grid_evals": per * self.grid_evals,
            "kernels.grid_evals_per_s": self.grid_evals / dur[opt].sum() if opt.any() else 0.0,
            "kernels.mcc_vc_cost.calls": per * cost.sum(),
            "kernels.mcc_vc_cost.s": per * dur[cost].sum(),
            "kernels.width_clamps": per * self.events["kernels.width_clamps"],
            "kernels.share_of_vc_fit": dur[kernels_in_vc].sum() / dur[vc].sum() if vc.any() else 0.0,
            "kernels.self_s": per * own[in_layer("kernels")].sum(),
            "solvers.fit_mcc_vc.calls": per * vc.sum(),
            "solvers.fit_mcc_vc.s": per * dur[vc].sum(),
            "solvers.fit_mcc.calls": per * mcc.sum(),
            "solvers.fit_mcc.s": per * dur[mcc].sum(),
            "solvers.weighted_ridge_step.calls": per * step.sum(),
            "solvers.weighted_ridge_step.s": per * dur[step].sum(),
            "solvers.weighted_ridge_step.ms_p50": p50_ms(step),
            "solvers.ridge_solve.calls": per * ridge.sum(),
            "solvers.ridge_solve.s": per * dur[ridge].sum(),
            "solvers.loop_self_s": per * own[vc | mcc].sum(),
            "solvers.self_s": per * own[in_layer("solvers")].sum(),
            "solvers.iterations_mean": statistics.fmean(iterations) if iterations else 0.0,
            "solvers.iterations_max": max(iterations, default=0),
            "solvers.nonconverged": per * (len(self.fits) - converged),
            "solvers.converged_per_fit": converged / len(self.fits) if self.fits else 0.0,
            "solvers.jitter_retries": per * self.events["solvers.jitter_retries"],
            "solvers.solver_errors": per * self.events["solvers.solver_errors"],
            "features.calls": per * in_layer("features").sum(),
            "features.s": per * dur[top_of_layer("features")].sum(),
            "data.calls": per * in_layer("data").sum(),
            "data.s": per * dur[top_of_layer("data")].sum(),
            "bench.synth_fit.calls": per * by_name("bench.synth_fit").sum(),
            "cli.main.calls": per * by_name("cli.main").sum(),
            "cli.report_bytes": per * self.report_bytes,
            "bench.s": per * dur[~nested].sum(),
            "bench.self_s": per * own[in_layer("bench")].sum(),
            "trace.spans": per * len(self.spans),
        }
        return {k: float(v) for k, v in m.items()}
