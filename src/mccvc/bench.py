"""Benchmark and experiment drivers behind the command-line interface.

Every driver fits through one method dispatch, `_fit`, which runs
`ridge_solve` (mmse), `fit_mcc` (mcc) or `fit_mcc_vc` (mcc-vc) and returns the
weights with the fixed-point result.  Reports are plain JSON-serializable
dicts with a stable key order.  Every report embeds the fully resolved
configuration and all replication seeds, so re-running from the embedded
config reproduces it bit for bit (wall-clock fields excepted).  Each result
row counts the runs that failed numerically (`failures`) and, among the
others, those whose final fit stopped at `max_iterations` without converging
(`nonconverged`, always 0 for mmse).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._serialize import JsonRecord
from .data import (
    MinMaxRecord,
    NoiseModel,
    SplitSpec,
    TabularDataset,
    apply_minmax,
    generate_linear_data,
    inner_noise_presets,
    kfold_indices,
    minmax_record,
    rmse_predictions,
    rmse_weights,
    split,
)
from .errors import SolverError
from .features import (
    HiddenLayerSpec,
    build_linear_features,
    elm_features,
    init_elm,
    predict,
)
from .kernels import CenterRule, ParamGrid, default_param_grid, gaussian_kernel
from .solvers import FitConfig, FitResult, fit_mcc, fit_mcc_vc, ridge_solve

CASE_LABELS = {
    1: "gaussian(0,2)",
    2: "gaussian(3,1)",
    3: "laplace(0,1)",
    4: "chi-square(3)",
}

# Offset decorrelating the hidden-layer seed stream from the split seed stream.
_ELM_SEED_OFFSET = 1_000_003


def databench_default_grid() -> ParamGrid:
    """Width search for normalized data: 0.1..2.0 step 0.1, median center."""
    return ParamGrid(
        sigma_set=np.linspace(0.1, 2.0, 20),
        center_set=None,
        center_rule=CenterRule.MEDIAN_OF_ERRORS,
    )


class _BenchConfig(JsonRecord):
    """A Monte Carlo config serializes as its fields plus every replication seed."""

    def to_dict(self) -> dict:
        return {**super().to_dict(), "seeds": [self.seed + r for r in range(self.runs)]}


def _fit(method: str, H, targets, lambda_prime: float, sigma, grid, cfg, on_iteration=None):
    """Fit one canonical method; returns (beta, fixed-point result or None).

    `sigma` is the frozen mcc width, `grid` the mcc-vc search grid, and `cfg`
    supplies `max_iterations` and `tolerance`.  The solvers are looked up as
    module globals at call time, so a profiler can swap them for wrappers.
    """
    if method == "mmse":
        return ridge_solve(H, targets, lambda_prime), None
    if method == "mcc":
        result = fit_mcc(
            H,
            targets,
            sigma=sigma,
            lambda_prime=lambda_prime,
            max_iterations=cfg.max_iterations,
            tolerance=cfg.tolerance,
            on_iteration=on_iteration,
        )
    elif method == "mcc-vc":
        config = FitConfig(
            grid=grid,
            lambda_prime=lambda_prime,
            max_iterations=cfg.max_iterations,
            tolerance=cfg.tolerance,
        )
        result = fit_mcc_vc(H, targets, config, on_iteration=on_iteration)
    else:
        raise ValueError(f"unknown method {method!r}")
    return result.beta, result


def _offset(result: FitResult | None) -> float:
    # A variable-center fit aims the residuals at the converged center rather
    # than at zero, so its predictor is H beta + c*; mcc's center is 0.
    return 0.0 if result is None else result.trace[-1].center


def _aggregate(values: list[float]) -> tuple[float | None, float]:
    if not values:
        return None, 0.0
    arr = np.asarray(values)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


# ---------------------------------------------------------------------------
# Synthetic linear-regression benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthBenchConfig(_BenchConfig):
    seed: int = 42
    runs: int = 100
    n_samples: int = 400
    w_star: tuple[float, ...] = (1.0, 2.0)
    methods: tuple[str, ...] = ("mmse", "mcc", "mcc-vc")
    cases: tuple[int, ...] = (1, 2, 3, 4)
    lambda_prime: float = 1e-4
    mcc_sigmas: tuple[float, ...] = (4.0,)
    grid: ParamGrid = field(default_factory=default_param_grid)
    max_iterations: int = 100
    tolerance: float = 1e-9
    jobs: int = 1


def synth_fit(
    method: str,
    H: np.ndarray,
    targets: np.ndarray,
    cfg: SynthBenchConfig,
    sigma: float | None = None,
) -> tuple[np.ndarray, FitResult | None]:
    """Fit one method on a prepared design; returns (beta, fixed-point result)."""
    if sigma is None and method == "mcc":
        sigma = cfg.mcc_sigmas[0]
    return _fit(method, H, targets, cfg.lambda_prime, sigma, cfg.grid, cfg)


def _expand_methods(cfg: SynthBenchConfig) -> list[tuple[str, str, float | None]]:
    # (report label, canonical method, mcc sigma) in the requested order.
    out = []
    for m in cfg.methods:
        if m == "mcc" and len(cfg.mcc_sigmas) > 1:
            for s in cfg.mcc_sigmas:
                out.append((f"mcc@{s:g}", "mcc", s))
        elif m == "mcc":
            out.append(("mcc", "mcc", cfg.mcc_sigmas[0]))
        elif m in ("mmse", "mcc-vc"):
            out.append((m, m, None))
        else:
            raise ValueError(f"unknown method {m!r}")
    return out


def run_synth_bench(cfg: SynthBenchConfig) -> dict:
    """Monte Carlo weight-recovery benchmark on the four contamination cases.

    Each replication draws one dataset (shared by every method), times each
    fit, and scores it by `rmse_weights` against the generating weights.
    Replications that abort numerically are counted and excluded.
    """
    methods = _expand_methods(cfg)
    w_star = np.asarray(cfg.w_star, dtype=float)

    def one_replication(args) -> dict:
        case, rep = args
        H, targets = synth_case_design(case, cfg.n_samples, cfg.seed + rep, cfg.w_star)
        per_method = {}
        for label, method, sigma in methods:
            t0 = time.perf_counter()
            try:
                beta, result = synth_fit(method, H, targets, cfg, sigma)
            except SolverError:
                per_method[label] = None
                continue
            elapsed = time.perf_counter() - t0
            nonconverged = result is not None and not result.converged
            per_method[label] = (rmse_weights(beta, w_star), elapsed, nonconverged)
        return per_method

    tasks = [(case, rep) for case in cfg.cases for rep in range(cfg.runs)]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(one_replication, tasks))
    else:
        outcomes = [one_replication(t) for t in tasks]

    by_key: dict[tuple[str, int], dict] = {}
    for (case, _rep), outcome in zip(tasks, outcomes):
        for label, payload in outcome.items():
            slot = by_key.setdefault(
                (label, case), {"rmse": [], "time": [], "failures": 0, "nonconverged": 0}
            )
            if payload is None:
                slot["failures"] += 1
            else:
                slot["rmse"].append(payload[0])
                slot["time"].append(payload[1])
                slot["nonconverged"] += payload[2]

    results = []
    for label, _method, sigma in methods:
        for case in cfg.cases:
            slot = by_key[(label, case)]
            mean_rmse, std_rmse = _aggregate(slot["rmse"])
            mean_time, std_time = _aggregate(slot["time"])
            entry = {
                "method": label,
                "case": case,
                "case_label": CASE_LABELS[case],
                "mean_rmse": mean_rmse,
                "std_rmse": std_rmse,
                "mean_time_s": mean_time,
                "std_time_s": std_time,
                "runs": len(slot["rmse"]),
                "failures": slot["failures"],
                "nonconverged": slot["nonconverged"],
            }
            if sigma is not None:
                entry["mcc_sigma"] = sigma
            results.append(entry)

    return {
        "command": "synth-bench",
        "config": cfg.to_dict(),
        "notes": [
            "mmse has a closed-form solution; its timing covers only one solve "
            "and is not comparable to the iterative methods",
        ],
        "results": results,
    }


# ---------------------------------------------------------------------------
# Dataset benchmark (cross-validated ELM / linear regression)
# ---------------------------------------------------------------------------

_METHOD_ALIASES = {
    "mmse": "mmse",
    "relm": "mmse",
    "mcc": "mcc",
    "elm-mcc": "mcc",
    "elm-rcc": "mcc",
    "mcc-vc": "mcc-vc",
    "elm-mcc-vc": "mcc-vc",
}


def canonical_method(name: str) -> str:
    try:
        return _METHOD_ALIASES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown method {name!r}") from None


@dataclass(frozen=True)
class DataBenchConfig(_BenchConfig):
    target: int | str = -1
    train_fraction: float = 0.5
    folds: int = 5
    runs: int = 100
    seed: int = 42
    model: str = "elm"
    hidden: int = 100
    bias_column: bool = False
    methods: tuple[str, ...] = ("relm", "elm-mcc", "elm-mcc-vc")
    lambda_grid: tuple[float, ...] = (0.0, 1e-6, 1e-4, 1e-2, 1.0)
    mcc_sigma_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0)
    vc_grid: ParamGrid = field(default_factory=databench_default_grid)
    max_iterations: int = 100
    tolerance: float = 1e-9
    norm_scope: str = "full"

    def __post_init__(self):
        if self.model not in ("linear", "elm"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.norm_scope not in ("full", "train", "none"):
            raise ValueError(f"unknown normalization scope {self.norm_scope!r}")
        for m in self.methods:
            canonical_method(m)


def _feature_builder(cfg: DataBenchConfig, input_dim: int, rep: int):
    if cfg.model == "elm":
        spec = init_elm(input_dim, cfg.hidden, seed=cfg.seed + _ELM_SEED_OFFSET + rep)
        return lambda x: elm_features(spec, x)
    return lambda x: build_linear_features(x, bias_column=cfg.bias_column)


def _candidate_list(method: str, cfg: DataBenchConfig):
    # Candidates are tried in order; the first strictly-best score wins.
    if method == "mcc":
        return [
            {"lambda_prime": lp, "sigma": s}
            for lp in cfg.lambda_grid
            for s in cfg.mcc_sigma_grid
        ]
    return [{"lambda_prime": lp} for lp in cfg.lambda_grid]


def _fit_candidate(method: str, candidate: dict, H, targets, cfg: DataBenchConfig):
    """Fit one hyperparameter candidate; returns (beta, fixed-point result)."""
    sigma = candidate.get("sigma")
    return _fit(method, H, targets, candidate["lambda_prime"], sigma, cfg.vc_grid, cfg)


def _cross_validate(method: str, H, targets, folds, cfg: DataBenchConfig):
    """Mean validation RMSE per candidate; returns the best candidate or None."""
    best_score, best_candidate = np.inf, None
    for candidate in _candidate_list(method, cfg):
        scores = []
        try:
            for train_idx, val_idx in folds:
                beta, result = _fit_candidate(
                    method, candidate, H[train_idx], targets[train_idx], cfg
                )
                scores.append(
                    rmse_predictions(
                        predict(H[val_idx], beta) + _offset(result), targets[val_idx]
                    )
                )
        except SolverError:
            continue
        score = float(np.mean(scores))
        if score < best_score:
            best_score, best_candidate = score, candidate
    return best_candidate


def bench_dataset(name: str, data: TabularDataset, cfg: DataBenchConfig) -> dict:
    """Cross-validated benchmark of every requested method on one dataset."""
    if cfg.norm_scope == "full":
        data = apply_minmax(minmax_record(data), data)

    per_method: dict[str, dict] = {
        label: {
            "train_rmse": [],
            "test_rmse": [],
            "fit_time": [],
            "select_time": [],
            "selected": [],
            "failures": 0,
            "nonconverged": 0,
        }
        for label in cfg.methods
    }

    for rep in range(cfg.runs):
        split_seed = cfg.seed + rep
        train, test = split(
            data, SplitSpec(train_fraction=cfg.train_fraction, seed=split_seed)
        )
        if cfg.norm_scope == "train":
            record = minmax_record(train)
            train, test = apply_minmax(record, train), apply_minmax(record, test)

        features = _feature_builder(cfg, data.n_features, rep)
        H_train, H_test = features(train.features), features(test.features)
        folds = kfold_indices(train.n_rows, cfg.folds, split_seed)

        for label in cfg.methods:
            method = canonical_method(label)
            slot = per_method[label]
            t0 = time.perf_counter()
            candidate = _cross_validate(method, H_train, train.targets, folds, cfg)
            select_time = time.perf_counter() - t0
            if candidate is None:
                slot["failures"] += 1
                continue
            t0 = time.perf_counter()
            try:
                beta, result = _fit_candidate(
                    method, candidate, H_train, train.targets, cfg
                )
            except SolverError:
                slot["failures"] += 1
                continue
            fit_time = time.perf_counter() - t0
            offset = _offset(result)
            if result is not None and not result.converged:
                slot["nonconverged"] += 1
            slot["train_rmse"].append(
                rmse_predictions(predict(H_train, beta) + offset, train.targets)
            )
            slot["test_rmse"].append(
                rmse_predictions(predict(H_test, beta) + offset, test.targets)
            )
            slot["fit_time"].append(fit_time)
            slot["select_time"].append(select_time)
            slot["selected"].append(candidate)

    results = []
    for label in cfg.methods:
        slot = per_method[label]
        mean_train, std_train = _aggregate(slot["train_rmse"])
        mean_test, std_test = _aggregate(slot["test_rmse"])
        mean_fit, _ = _aggregate(slot["fit_time"])
        mean_select, _ = _aggregate(slot["select_time"])
        results.append(
            {
                "method": label,
                "dataset": name,
                "mean_train_rmse": mean_train,
                "std_train_rmse": std_train,
                "mean_test_rmse": mean_test,
                "std_test_rmse": std_test,
                "mean_fit_time_s": mean_fit,
                "mean_select_time_s": mean_select,
                "runs": len(slot["train_rmse"]),
                "failures": slot["failures"],
                "nonconverged": slot["nonconverged"],
                "selected": slot["selected"],
            }
        )
    return {"dataset": name, "rows": data.n_rows, "results": results}


def run_data_bench(datasets: list[tuple[str, TabularDataset]], cfg: DataBenchConfig) -> dict:
    sections = [bench_dataset(name, data, cfg) for name, data in datasets]
    return {
        "command": "data-bench",
        "config": cfg.to_dict(),
        "notes": [
            f"normalization scope: {cfg.norm_scope} "
            "(column min/max computed before splitting when 'full')",
            "RMSE values are reported on the normalized scale unless scope is 'none'",
        ],
        "datasets": sections,
    }


# ---------------------------------------------------------------------------
# Single-file fit and the model archive
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitCmdConfig:
    method: str = "mcc-vc"
    model: str = "linear"
    hidden: int = 100
    bias_column: bool = False
    normalize: bool = True
    lambda_prime: float = 1e-4
    mcc_sigma: float = 1.0
    grid: ParamGrid = field(default_factory=default_param_grid)
    max_iterations: int = 100
    tolerance: float = 1e-9
    seed: int = 42

    def __post_init__(self):
        if self.model not in ("linear", "elm"):
            raise ValueError(f"unknown model {self.model!r}")
        canonical_method(self.method)


def run_fit(data: TabularDataset, cfg: FitCmdConfig) -> dict:
    """Fit one method on the whole dataset and assemble a reloadable model dict."""
    record = None
    fitted = data
    if cfg.normalize:
        record = minmax_record(data)
        fitted = apply_minmax(record, data)

    method = canonical_method(cfg.method)
    if cfg.model == "elm":
        spec = init_elm(data.n_features, cfg.hidden, seed=cfg.seed)
        H = elm_features(spec, fitted.features)
        model_spec = {
            "kind": "elm",
            "input_dim": data.n_features,
            "hidden": cfg.hidden,
            "seed": cfg.seed,
            "input_weights": spec.input_weights.tolist(),
            "biases": spec.biases.tolist(),
        }
    else:
        H = build_linear_features(fitted.features, bias_column=cfg.bias_column)
        model_spec = {
            "kind": "linear",
            "input_dim": data.n_features,
            "bias_column": cfg.bias_column,
        }

    beta, result = _fit(
        method, H, fitted.targets, cfg.lambda_prime, cfg.mcc_sigma, cfg.grid, cfg
    )
    kernel = None
    if result is not None:
        last = result.trace[-1]
        kernel = {"sigma": last.sigma, "center": last.center}
    offset = _offset(result)
    fitted_predictions = predict(H, beta) + offset
    if record is not None:
        raw_predictions = record.inverse_targets(fitted_predictions)
    else:
        raw_predictions = fitted_predictions
    residuals = data.targets - raw_predictions

    model = {
        "command": "fit",
        "method": cfg.method,
        "model": model_spec,
        "normalization": None if record is None else record.to_dict(),
        "beta": [float(b) for b in beta],
        "kernel": kernel,
        "prediction_offset": offset,
        "training_rmse": rmse_predictions(raw_predictions, data.targets),
        "training_rmse_fitted_scale": rmse_predictions(fitted_predictions, fitted.targets),
        "residual_stats": {
            "mean": float(np.mean(residuals)),
            "median": float(np.median(residuals)),
            "std": float(np.std(residuals)),
            "min": float(np.min(residuals)),
            "max": float(np.max(residuals)),
        },
    }
    return model


def predict_with_model(model: dict, features_raw) -> np.ndarray:
    """Raw-scale predictions of a model dict produced by `run_fit`."""
    x = np.asarray(features_raw, dtype=float)
    record = None
    if model["normalization"] is not None:
        record = MinMaxRecord.from_dict(model["normalization"])
        x = record.transform_features(x)
    spec = model["model"]
    if spec["kind"] == "elm":
        layer = HiddenLayerSpec(
            input_weights=np.asarray(spec["input_weights"], dtype=float),
            biases=np.asarray(spec["biases"], dtype=float),
        )
        H = elm_features(layer, x)
    else:
        H = build_linear_features(x, bias_column=spec["bias_column"])
    y = predict(H, np.asarray(model["beta"], dtype=float)) + model.get("prediction_offset", 0.0)
    return record.inverse_targets(y) if record is not None else y


# ---------------------------------------------------------------------------
# Kernel-vs-residual traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelTraceConfig:
    iterations: tuple[int, ...] = (1, 2)
    bins: int = 24
    hist_range: str = "robust"
    curve_points: int = 256
    lambda_prime: float = 1e-4
    grid: ParamGrid = field(default_factory=default_param_grid)
    max_iterations: int = 100
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("bins must be positive")
        if self.curve_points < 200:
            raise ValueError("curve must be sampled at 200 or more points")
        if self.hist_range not in ("robust", "full"):
            raise ValueError(f"unknown histogram range mode {self.hist_range!r}")
        for k in self.iterations:
            if k < 1:
                raise ValueError("iteration indices are 1-based")


def _histogram_range(residuals: np.ndarray, mode: str) -> tuple[float, float]:
    lo, hi = float(residuals.min()), float(residuals.max())
    if mode == "full":
        return lo, hi
    # Clip to the inner-noise region so far outliers cannot flatten the bins.
    med = float(np.median(residuals))
    mad = float(np.median(np.abs(residuals - med)))
    scale = 1.4826 * mad
    if scale <= 0.0:
        scale = float(np.std(residuals)) or 1.0
    lo_r, hi_r = max(lo, med - 6.0 * scale), min(hi, med + 6.0 * scale)
    if lo_r >= hi_r:
        return lo, hi
    return lo_r, hi_r


def run_kernel_trace(H, targets, cfg: KernelTraceConfig) -> tuple[list[dict], FitResult]:
    """Fit with per-iteration capture and emit histogram-vs-kernel traces.

    Iteration k pairs the residuals of beta_{k-1} with the (sigma*, c*)
    selected on them, which is the kernel the weighting matrix used that step.
    """
    captured: dict[int, tuple[np.ndarray, float, float]] = {}

    def hook(k, residuals, params, _beta):
        captured[k] = (residuals.copy(), params.sigma, params.center)

    _, result = _fit("mcc-vc", H, targets, cfg.lambda_prime, None, cfg.grid, cfg, hook)

    traces = []
    for k in cfg.iterations:
        if k > result.iterations_run:
            raise ValueError(
                f"iteration {k} requested but the fit ran {result.iterations_run}"
            )
        residuals, sigma, center = captured[k]
        lo, hi = _histogram_range(residuals, cfg.hist_range)
        density, edges = np.histogram(
            residuals, bins=cfg.bins, range=(lo, hi), density=True
        )
        curve_x = np.linspace(edges[0], edges[-1], cfg.curve_points)
        curve_y = gaussian_kernel(curve_x - center, sigma)
        traces.append(
            {
                "iteration": k,
                "sigma": sigma,
                "center": center,
                "residual_median": float(np.median(residuals)),
                "bin_edges": [float(v) for v in edges],
                "density": [float(v) for v in density],
                "curve_x": [float(v) for v in curve_x],
                "curve_y": [float(v) for v in curve_y],
            }
        )
    return traces, result


def synth_case_design(
    case: int, n_samples: int, seed: int, w_star: tuple[float, ...] = (1.0, 2.0)
) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and targets for one contamination case of the benchmark."""
    if case not in CASE_LABELS:
        raise ValueError(f"case must be one of {sorted(CASE_LABELS)}")
    noise: NoiseModel = inner_noise_presets()[case - 1]
    inputs, targets = generate_linear_data(
        np.asarray(w_star, dtype=float), n_samples, noise, seed
    )
    return build_linear_features(inputs), targets
