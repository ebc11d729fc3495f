"""Benchmark and experiment drivers behind the command-line interface.

Every driver fits through one method dispatch, `_fit`, which runs
`ridge_solve` (mmse), `fit_mcc` (mcc) or `fit_mcc_vc` (mcc-vc) and returns the
weights with the fixed-point result.  Every config's loop settings default to
those of `FitConfig`, and are checked by building one.  Every feature matrix
comes from one feature map, `_feature_map`, a JSON-ready dict (an ELM layer or
linear features, the model file's "model" entry) applied by `_features`.
Reports are plain JSON-serializable dicts with a stable key order.  Every
report embeds the fully resolved configuration and all replication seeds, so
re-running from the embedded config reproduces it bit for bit (wall-clock
fields excepted).
Every `synth-bench` and `data-bench` result row is written by one `_Tally`:
the mean (and, for some metrics, the sample std) of each metric over the
successful runs, then `runs`, the runs that failed numerically (`failures`)
and the successful runs whose final fit stopped at `max_iterations` without
converging (`nonconverged`, always 0 for mmse).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_bool, check_count, check_integer, check_width, finite_array
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
from .solvers import FitConfig, FitResult, FitStart, _spans_constant, fit_mcc, fit_mcc_vc, ridge_solve

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

    def __post_init__(self):
        check_count(self.seed, 0, "seed")
        check_count(self.runs, 1, "runs")

    def to_dict(self) -> dict:
        return {**super().to_dict(), "seeds": [self.seed + r for r in range(self.runs)]}


def _check_fit_settings(cfg, lambdas, mcc_widths=()):
    """Check each lambda' with `cfg`'s loop settings by building its
    `FitConfig`, and each frozen mcc width by the width rule."""
    for lambda_prime in lambdas:
        FitConfig(lambda_prime, cfg.max_iterations, cfg.tolerance)
    for sigma in mcc_widths:
        check_width(sigma, "mcc width")


def _check_model(cfg):
    """Check the model settings: linear or elm, hidden >= 1, a bool bias_column."""
    if cfg.model not in ("linear", "elm"):
        raise ValueError(f"unknown model {cfg.model!r}")
    check_count(cfg.hidden, 1, "hidden")
    check_bool(cfg.bias_column, "bias_column")


def _check_case(case):
    """Reject a contamination case unless it is an integer (not 2.0) in 1-4."""
    if check_integer(case, "case") not in CASE_LABELS:
        raise ValueError(f"case must be one of {sorted(CASE_LABELS)}, got {case!r}")


def _check_distinct(cfg, names):
    """Reject each tuple setting of `cfg` in `names` that is empty or repeats
    an entry (whose fits would run, and count, twice)."""
    for name in names:
        values = getattr(cfg, name)
        if not values or len(set(values)) < len(values):
            raise ValueError(f"{name} must be non-empty and distinct, got {values!r}")


def _fit(method: str, H, targets, lambda_prime: float, sigma, grid, cfg, on_iteration=None,
         start=None):
    """Fit one canonical method; returns (beta, fixed-point result or None).

    `sigma` is the frozen mcc width, `grid` the mcc-vc search grid, and `cfg`
    supplies `max_iterations` and `tolerance`; both iterative solvers get the
    one `FitConfig` they share, and `start` (a `FitStart` of H and targets).  The
    solvers are looked up as module globals at call time, so a profiler can
    swap them for wrappers.
    """
    if method == "mmse":
        return ridge_solve(H, targets, lambda_prime), None
    config = FitConfig(lambda_prime, cfg.max_iterations, cfg.tolerance)
    if method == "mcc":
        result = fit_mcc(H, targets, sigma, config, on_iteration, start=start)
    elif method == "mcc-vc":
        result = fit_mcc_vc(H, targets, grid, config, on_iteration, start=start)
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


class _Tally:
    """The runs of one report row: each metric's values over the successful
    runs, the failed runs, and the successful fits that did not converge."""

    def __init__(self, with_std: tuple[str, ...], mean_only: tuple[str, ...] = ()):
        self.with_std = with_std
        self.values = {name: [] for name in with_std + mean_only}
        self.runs = self.failures = self.nonconverged = 0

    def add(self, result: FitResult | None, **metrics: float):
        for name, value in metrics.items():
            self.values[name].append(value)
        self.runs += 1
        self.nonconverged += result is not None and not result.converged

    def row(self) -> dict:
        row = {}
        for name, values in self.values.items():
            row[f"mean_{name}"], std = _aggregate(values)
            if name in self.with_std:
                row[f"std_{name}"] = std
        return {**row, "runs": self.runs, "failures": self.failures,
                "nonconverged": self.nonconverged}


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
    lambda_prime: float = FitConfig.lambda_prime
    mcc_sigmas: tuple[float, ...] = (4.0,)
    grid: ParamGrid = field(default_factory=default_param_grid)
    max_iterations: int = FitConfig.max_iterations
    tolerance: float = FitConfig.tolerance

    def __post_init__(self):
        super().__post_init__()
        _check_distinct(self, ("methods", "cases", "mcc_sigmas"))
        for m in self.methods:
            if m not in ("mmse", "mcc", "mcc-vc"):
                raise ValueError(f"unknown method {m!r}")
        for case in self.cases:
            _check_case(case)
        check_count(self.n_samples, 1, "n_samples")
        finite_array(self.w_star, "w_star", 1)
        _check_fit_settings(self, (self.lambda_prime,), self.mcc_sigmas)


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
            out.extend((f"mcc@{s:g}", "mcc", s) for s in cfg.mcc_sigmas)
        elif m == "mcc":
            out.append(("mcc", "mcc", cfg.mcc_sigmas[0]))
        else:
            out.append((m, m, None))
    return out


def run_synth_bench(cfg: SynthBenchConfig) -> dict:
    """Monte Carlo weight-recovery benchmark on the four contamination cases.

    Each replication draws one dataset (shared by every method), times each
    fit, and scores it by `rmse_weights` against the generating weights.
    Replications that abort numerically are counted and excluded.
    """
    methods = _expand_methods(cfg)
    w_star = np.asarray(cfg.w_star, dtype=float)
    tallies = {
        (label, case): _Tally(("rmse", "time_s")) for label, _, _ in methods for case in cfg.cases
    }
    for case in cfg.cases:
        for rep in range(cfg.runs):
            H, targets = synth_case_design(case, cfg.n_samples, cfg.seed + rep, cfg.w_star)
            for label, method, sigma in methods:
                tally = tallies[(label, case)]
                t0 = time.perf_counter()
                try:
                    beta, result = synth_fit(method, H, targets, cfg, sigma)
                except SolverError:
                    tally.failures += 1
                    continue
                elapsed = time.perf_counter() - t0
                tally.add(result, rmse=rmse_weights(beta, w_star), time_s=elapsed)

    results = []
    for label, _method, sigma in methods:
        for case in cfg.cases:
            entry = {"method": label, "case": case, "case_label": CASE_LABELS[case],
                     **tallies[(label, case)].row()}
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
    max_iterations: int = FitConfig.max_iterations
    tolerance: float = FitConfig.tolerance
    norm_scope: str = "full"

    def __post_init__(self):
        super().__post_init__()
        _check_model(self)
        if self.norm_scope not in ("full", "train", "none"):
            raise ValueError(f"unknown normalization scope {self.norm_scope!r}")
        _check_distinct(self, ("methods", "lambda_grid", "mcc_sigma_grid"))
        if len({canonical_method(m) for m in self.methods}) < len(self.methods):
            raise ValueError(f"methods must name distinct fits, got {self.methods!r}")
        if not isinstance(self.target, str):
            check_integer(self.target, "target")
        check_count(self.folds, 2, "folds")
        SplitSpec(train_fraction=self.train_fraction)
        _check_fit_settings(self, self.lambda_grid, self.mcc_sigma_grid)


def _feature_map(cfg: DataBenchConfig | FitCmdConfig, input_dim: int, seed: int) -> dict:
    """The `cfg.model` feature map as a JSON-ready dict: an ELM layer of
    `cfg.hidden` nodes drawn from `seed`, or the linear features."""
    if cfg.model == "elm":
        layer = init_elm(input_dim, cfg.hidden, seed=seed)
        return {
            "kind": "elm",
            "input_dim": input_dim,
            "hidden": cfg.hidden,
            "seed": seed,
            "input_weights": layer.input_weights.tolist(),
            "biases": layer.biases.tolist(),
        }
    return {"kind": "linear", "input_dim": input_dim, "bias_column": cfg.bias_column}


def _features(spec: dict, x) -> np.ndarray:
    """Design matrix of inputs `x` under a `_feature_map` dict."""
    if spec["kind"] == "elm":
        layer = HiddenLayerSpec(
            input_weights=np.asarray(spec["input_weights"], dtype=float),
            biases=np.asarray(spec["biases"], dtype=float),
        )
        return elm_features(layer, x)
    return build_linear_features(x, bias_column=spec["bias_column"])


def _candidate_list(method: str, cfg: DataBenchConfig):
    # Candidates in list order; the first strictly-best mean score wins.
    if method == "mcc":
        return [
            {"lambda_prime": lp, "sigma": s}
            for lp in cfg.lambda_grid
            for s in cfg.mcc_sigma_grid
        ]
    return [{"lambda_prime": lp} for lp in cfg.lambda_grid]


def _cross_validate(candidates: list[dict], folds, score):
    """The candidate of least mean `score(candidate, fold)` over `folds`, the
    first in list order among equals, or None if every candidate fails a fold.

    `score` is non-negative, such as a validation RMSE, and raises
    SolverError where a candidate's fit fails; such a candidate is dropped.
    The candidates race: each is scored on the first fold, then the survivors
    are completed in order of that score, and a candidate stops before its
    next fold once it can no longer be picked.  Its scores are non-negative
    and float addition and division round monotonically, so `np.mean` of its
    scores so far padded with zeros for the folds it has not run, summed in
    `np.mean`'s own order, is a lower bound on its mean; once that bound
    exceeds the least complete mean, its mean would too.  So the race picks
    the candidate that scoring every fold of every candidate would pick.
    """
    first = {}
    for i, candidate in enumerate(candidates):
        try:
            first[i] = score(candidate, folds[0])
        except SolverError:
            continue
    means, least = {}, np.inf
    for i in sorted(first, key=first.get):
        scores = [first[i]]
        try:
            for fold in folds[1:]:
                if np.mean(scores + [0.0] * (len(folds) - len(scores))) > least:
                    break
                scores.append(score(candidates[i], fold))
            else:
                means[i] = float(np.mean(scores))
                least = min(least, means[i])
        except SolverError:
            continue
    if least == np.inf:
        return None
    return candidates[min(i for i, mean in means.items() if mean == least)]


def bench_dataset(name: str, data: TabularDataset, cfg: DataBenchConfig) -> dict:
    """Cross-validated benchmark of every requested method on one dataset.

    Per split and method, each fold's candidates share one `FitStart` of its
    rows, and so their first search and step from beta = 0, bit for bit.
    """
    if cfg.norm_scope == "full":
        data = apply_minmax(minmax_record(data), data)

    tallies = {
        label: _Tally(("train_rmse", "test_rmse"), ("fit_time_s", "select_time_s"))
        for label in cfg.methods
    }
    selected: dict[str, list[dict]] = {label: [] for label in cfg.methods}

    for rep in range(cfg.runs):
        split_seed = cfg.seed + rep
        train, test = split(
            data, SplitSpec(train_fraction=cfg.train_fraction, seed=split_seed)
        )
        if cfg.norm_scope == "train":
            record = minmax_record(train)
            train, test = apply_minmax(record, train), apply_minmax(record, test)

        spec = _feature_map(cfg, data.n_features, cfg.seed + _ELM_SEED_OFFSET + rep)
        H_train, H_test = _features(spec, train.features), _features(spec, test.features)
        folds = kfold_indices(train.n_rows, cfg.folds, split_seed)

        for label in cfg.methods:
            method = canonical_method(label)
            tally = tallies[label]
            t0 = time.perf_counter()
            # Every fold's training rows are rows of H_train, so they span 1 if
            # it does; otherwise each fold's start tests its own rows.
            spans = True if method == "mcc-vc" and _spans_constant(H_train) else None
            fold_rows = [(FitStart(H_train[fit_idx], train.targets[fit_idx], spans),
                          H_train[val_idx], train.targets[val_idx]) for fit_idx, val_idx in folds]

            # One candidate fit on the rows of a start, for the race and the final fit.
            def fit(candidate: dict, start: FitStart):
                return _fit(method, start.H, start.t, candidate["lambda_prime"],
                            candidate.get("sigma"), cfg.vc_grid, cfg, start=start)

            def score(candidate: dict, fold) -> float:
                start, H_val, t_val = fold
                beta, result = fit(candidate, start)
                return rmse_predictions(predict(H_val, beta) + _offset(result), t_val)

            candidate = _cross_validate(_candidate_list(method, cfg), fold_rows, score)
            select_time = time.perf_counter() - t0
            if candidate is None:
                tally.failures += 1
                continue
            t0 = time.perf_counter()
            try:
                beta, result = fit(candidate, FitStart(H_train, train.targets, spans))
            except SolverError:
                tally.failures += 1
                continue
            fit_time = time.perf_counter() - t0
            offset = _offset(result)
            tally.add(
                result,
                train_rmse=rmse_predictions(predict(H_train, beta) + offset, train.targets),
                test_rmse=rmse_predictions(predict(H_test, beta) + offset, test.targets),
                fit_time_s=fit_time,
                select_time_s=select_time,
            )
            selected[label].append(candidate)

    results = [
        {"method": label, "dataset": name, **tallies[label].row(), "selected": selected[label]}
        for label in cfg.methods
    ]
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
class FitCmdConfig(JsonRecord):
    method: str = "mcc-vc"
    model: str = "elm"
    hidden: int = 100
    bias_column: bool = False
    normalize: bool = True
    lambda_prime: float = FitConfig.lambda_prime
    mcc_sigma: float = 1.0
    grid: ParamGrid = field(default_factory=default_param_grid)
    max_iterations: int = FitConfig.max_iterations
    tolerance: float = FitConfig.tolerance
    seed: int = 42

    def __post_init__(self):
        _check_model(self)
        canonical_method(self.method)
        check_count(self.seed, 0, "seed")
        check_bool(self.normalize, "normalize")
        _check_fit_settings(self, (self.lambda_prime,), (self.mcc_sigma,))


def run_fit(data: TabularDataset, cfg: FitCmdConfig) -> dict:
    """Fit one method on the whole dataset and assemble a reloadable model dict."""
    record = None
    fitted = data
    if cfg.normalize:
        record = minmax_record(data)
        fitted = apply_minmax(record, data)

    method = canonical_method(cfg.method)
    spec = _feature_map(cfg, data.n_features, cfg.seed)
    H = _features(spec, fitted.features)
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
        "model": spec,
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
    H = _features(model["model"], x)
    y = predict(H, np.asarray(model["beta"], dtype=float)) + model.get("prediction_offset", 0.0)
    return record.inverse_targets(y) if record is not None else y


# ---------------------------------------------------------------------------
# Kernel-vs-residual traces
# ---------------------------------------------------------------------------

# Samples of each trace's kernel curve.
CURVE_POINTS = 256


@dataclass(frozen=True)
class KernelTraceConfig(JsonRecord):
    iterations: tuple[int, ...] = (1, 2)
    bins: int = 24
    hist_range: str = "robust"
    lambda_prime: float = FitConfig.lambda_prime
    grid: ParamGrid = field(default_factory=default_param_grid)
    max_iterations: int = FitConfig.max_iterations
    tolerance: float = FitConfig.tolerance

    def __post_init__(self):
        check_count(self.bins, 1, "bins")
        if self.hist_range not in ("robust", "full"):
            raise ValueError(f"unknown histogram range mode {self.hist_range!r}")
        _check_distinct(self, ("iterations",))
        for k in self.iterations:
            check_count(k, 1, "iteration index")
        _check_fit_settings(self, (self.lambda_prime,))


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
    The hook copies the residuals of the requested iterations only, and the
    kernel comes from the fit's trace.
    """
    captured: dict[int, np.ndarray | None] = dict.fromkeys(cfg.iterations)

    def hook(k, residuals, _params, _beta):
        if k in captured:
            captured[k] = residuals.copy()

    _, result = _fit("mcc-vc", H, targets, cfg.lambda_prime, None, cfg.grid, cfg, hook)

    traces = []
    for k in cfg.iterations:
        if k > result.iterations_run:
            raise ValueError(
                f"iteration {k} requested but the fit ran {result.iterations_run}"
            )
        residuals, kernel = captured[k], result.trace[k - 1]
        lo, hi = _histogram_range(residuals, cfg.hist_range)
        density, edges = np.histogram(
            residuals, bins=cfg.bins, range=(lo, hi), density=True
        )
        curve_x = np.linspace(edges[0], edges[-1], CURVE_POINTS)
        curve_y = gaussian_kernel(curve_x - kernel.center, kernel.sigma)
        traces.append(
            {
                "iteration": k,
                "sigma": kernel.sigma,
                "center": kernel.center,
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
    _check_case(case)
    check_count(n_samples, 1, "n_samples")
    check_count(seed, 0, "seed")
    noise: NoiseModel = inner_noise_presets()[case - 1]
    inputs, targets = generate_linear_data(
        np.asarray(w_star, dtype=float), n_samples, noise, seed
    )
    return _features({"kind": "linear", "bias_column": False}, inputs), targets
