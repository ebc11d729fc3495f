"""Robust linear-in-parameters regression with correntropy losses.

The package fits models y = h(x) beta under three criteria: regularized least
squares, the classical zero-center correntropy criterion, and its
variable-center extension whose kernel width and center are re-chosen from the
residuals at every fixed-point iteration (on a design that spans the constant
vector the center is not identifiable, so the first one is kept).  Both loops
stop on a cost change relative to max(1, |cost|).  The two correntropy fits
share one contract, `fit_mcc(H, T, sigma, config)` and
`fit_mcc_vc(H, T, grid, config)`,
with one `FitConfig` of loop settings, and every linear solve passes one guard
that raises a SolverError on a singular, inaccurate or non-finite solution
rather than return a NaN.  `bench` and the `mccvc` CLI wrap
the solvers in reproducible Monte Carlo benchmarks; every benchmark fits
through one method dispatch, and each report row counts its failed runs and
its fits that stopped at the iteration cap without converging
(`nonconverged`).
"""

from .data import (
    ChiSquare,
    Gaussian,
    Laplace,
    MinMaxRecord,
    NoiseModel,
    SplitSpec,
    TabularDataset,
    apply_minmax,
    generate_linear_data,
    inner_noise_presets,
    kfold_indices,
    load_csv,
    minmax_record,
    rmse_predictions,
    rmse_weights,
    sample_noise,
    split,
)
from .errors import (
    DataError,
    DegenerateWeightsError,
    MccvcError,
    SingularSystemError,
    SolverError,
)
from .features import (
    HiddenLayerSpec,
    build_linear_features,
    elm_features,
    init_elm,
    predict,
)
from .kernels import (
    CenterRule,
    KernelParams,
    ParamGrid,
    default_param_grid,
    empirical_correntropy,
    gaussian_kde,
    gaussian_kernel,
    mcc_vc_cost,
    optimize_params,
    param_objective,
)
from .solvers import (
    FitConfig,
    FitResult,
    IterationRecord,
    fit_mcc,
    fit_mcc_vc,
    mcc_vc_gradient,
    ridge_solve,
    weighted_ridge_step,
)

__version__ = "0.1.0"

__all__ = [
    "CenterRule",
    "ChiSquare",
    "DataError",
    "DegenerateWeightsError",
    "FitConfig",
    "FitResult",
    "Gaussian",
    "HiddenLayerSpec",
    "IterationRecord",
    "KernelParams",
    "Laplace",
    "MccvcError",
    "MinMaxRecord",
    "NoiseModel",
    "ParamGrid",
    "SingularSystemError",
    "SolverError",
    "SplitSpec",
    "TabularDataset",
    "apply_minmax",
    "build_linear_features",
    "default_param_grid",
    "elm_features",
    "empirical_correntropy",
    "fit_mcc",
    "fit_mcc_vc",
    "gaussian_kde",
    "gaussian_kernel",
    "generate_linear_data",
    "init_elm",
    "inner_noise_presets",
    "kfold_indices",
    "load_csv",
    "mcc_vc_cost",
    "mcc_vc_gradient",
    "minmax_record",
    "optimize_params",
    "param_objective",
    "predict",
    "ridge_solve",
    "rmse_predictions",
    "rmse_weights",
    "sample_noise",
    "split",
    "weighted_ridge_step",
]
