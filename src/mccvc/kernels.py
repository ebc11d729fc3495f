"""Gaussian kernel, correntropy with a movable center, and kernel-parameter search.

The loss family used across the package is built from the normalized Gaussian
kernel G_sigma(u) = exp(-u^2 / (2 sigma^2)) / (sqrt(2 pi) sigma).  Correntropy
of a residual sample is the mean kernel value of (e_i - c), so the pair
(sigma, c) controls both the width and the location of the low-cost region.
`optimize_params` picks that pair by minimizing the integrated squared distance
between the shifted kernel and the residual density, evaluated on a finite
grid (the closed-form self-energy term is 1 / (2 sqrt(pi) sigma)).
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

log = logging.getLogger(__name__)

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI = math.sqrt(math.pi)

# Relative slack under which two grid objectives count as tied.
_TIE_RTOL = 1e-12
# The smallest admissible kernel width, as a fraction of the residual spread.
_SIGMA_FLOOR_FRAC = 1e-3


def _check_width(sigma, name: str = "sigma") -> float:
    """Return a kernel width as a float; reject it unless it is a positive finite
    real whose square is a normal float (a smaller one would make the kernel 0/0)."""
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {sigma!r}")
    if sigma * sigma < sys.float_info.min:
        raise ValueError(f"{name} {sigma!r} is too small: its square underflows")
    return sigma


class CenterRule(str, Enum):
    """How the center candidates are produced during the parameter search."""

    EXPLICIT_GRID = "grid"
    MEAN_OF_ERRORS = "mean"
    MEDIAN_OF_ERRORS = "median"


@dataclass(frozen=True)
class KernelParams:
    """Kernel width and center location, in the units of the error variable."""

    sigma: float
    center: float

    def __post_init__(self):
        sigma = _check_width(self.sigma)
        center = float(self.center)
        if not math.isfinite(center):
            raise ValueError(f"center must be finite, got {self.center!r}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class ParamGrid:
    """Admissible kernel widths and centers for the parameter search.

    `center_set` is only consulted when `center_rule` is EXPLICIT_GRID; the
    mean/median rules collapse the center search to a single data-driven value.
    """

    sigma_set: np.ndarray
    center_set: np.ndarray | None = None
    center_rule: CenterRule = CenterRule.EXPLICIT_GRID

    def __post_init__(self):
        sigmas = np.asarray(self.sigma_set, dtype=float)
        if sigmas.ndim != 1 or sigmas.size == 0:
            raise ValueError("sigma_set must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(sigmas)) or np.any(sigmas <= 0.0):
            raise ValueError("sigma_set entries must be positive finite reals")
        if np.any(np.diff(sigmas) <= 0.0):
            raise ValueError("sigma_set must be strictly increasing")
        sigmas.setflags(write=False)
        object.__setattr__(self, "sigma_set", sigmas)

        rule = CenterRule(self.center_rule)
        object.__setattr__(self, "center_rule", rule)

        centers = self.center_set
        if rule is CenterRule.EXPLICIT_GRID:
            if centers is None:
                raise ValueError("center_set is required with the explicit-grid rule")
            centers = np.asarray(centers, dtype=float)
            if centers.ndim != 1 or centers.size == 0:
                raise ValueError("center_set must be a non-empty 1-D sequence")
            if not np.all(np.isfinite(centers)):
                raise ValueError("center_set entries must be finite")
            if np.any(np.diff(centers) <= 0.0):
                raise ValueError("center_set must be strictly increasing")
            centers.setflags(write=False)
        elif centers is not None:
            centers = np.asarray(centers, dtype=float)
            centers.setflags(write=False)
        object.__setattr__(self, "center_set", centers)


def default_param_grid() -> ParamGrid:
    """Grid used by the linear-regression benchmark: widths 0.2..5.0 step 0.2,
    centers -5.0..5.0 step 0.1."""
    return ParamGrid(
        sigma_set=np.linspace(0.2, 5.0, 25),
        center_set=np.linspace(-5.0, 5.0, 101),
        center_rule=CenterRule.EXPLICIT_GRID,
    )


def as_error_vector(values) -> np.ndarray:
    """Validate and return residuals as a 1-D float array (N >= 1, all finite)."""
    e = np.asarray(values, dtype=float)
    if e.ndim != 1 or e.size == 0:
        raise ValueError("error vector must be 1-D and non-empty")
    if not np.all(np.isfinite(e)):
        raise ValueError("error vector contains non-finite entries")
    return e


def _kernel_values(u: np.ndarray, sigma: float) -> np.ndarray:
    # Shared elementwise expression; every public path must go through this so
    # identical inputs produce bitwise identical kernel values.
    coef = 1.0 / (SQRT_2PI * sigma)
    return np.exp(-(u * u) / (2.0 * sigma * sigma)) * coef


def gaussian_kernel(u, sigma: float):
    """Normalized Gaussian kernel exp(-u^2 / (2 sigma^2)) / (sqrt(2 pi) sigma).

    `u` may be a scalar or an ndarray; the peak value 1/(sqrt(2 pi) sigma) is
    attained at u = 0.  Far-tail evaluations may underflow to exactly 0.0,
    which is the intended weighting for extreme outliers.
    """
    sigma = _check_width(sigma)
    arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("kernel argument must be finite")
    out = _kernel_values(arr, sigma)
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def empirical_correntropy(errors, params: KernelParams) -> float:
    """Sample correntropy (1/N) sum_i G_sigma(e_i - c) of a residual vector."""
    e = as_error_vector(errors)
    return float(_kernel_values(e - params.center, params.sigma).mean())


def gaussian_kde(sample, x, bandwidth: float):
    """Gaussian kernel density estimate of `sample`, evaluated at `x`.

    By construction this is the same sum as `empirical_correntropy` with
    center x and width `bandwidth`; the two code paths agree bit for bit.
    """
    s = as_error_vector(sample)
    bandwidth = _check_width(bandwidth, "bandwidth")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation points must be finite")
    if xs.ndim == 0:
        return float(_kernel_values(float(xs) - s, bandwidth).mean())
    return _kernel_values(xs[:, None] - s[None, :], bandwidth).mean(axis=1)


def mcc_vc_cost(errors, params: KernelParams, weight_norm_sq: float, lam: float) -> float:
    """Regularized correntropy cost -V(e; sigma, c) + lam * ||beta||^2."""
    if lam < 0.0:
        raise ValueError("regularization weight must be non-negative")
    if weight_norm_sq < 0.0:
        raise ValueError("weight_norm_sq must be non-negative")
    return -empirical_correntropy(errors, params) + lam * float(weight_norm_sq)


def param_objective(errors, sigma: float, center: float) -> float:
    """Squared-distance objective between the shifted kernel and the error density.

    Equals 1/(2 sqrt(pi) sigma) - 2 * (1/N) sum_i G_sigma(e_i - center); the
    first term is the closed-form self-energy integral of the Gaussian kernel.
    """
    sigma = _check_width(sigma)
    e = as_error_vector(errors)
    corr = float(_kernel_values(e - float(center), sigma).mean())
    return 1.0 / (2.0 * SQRT_PI * sigma) - 2.0 * corr


def center_from_rule(errors, rule: CenterRule) -> float:
    """Data-driven center shortcut: mean or median of the error samples."""
    e = as_error_vector(errors)
    rule = CenterRule(rule)
    if rule is CenterRule.MEAN_OF_ERRORS:
        return float(np.mean(e))
    if rule is CenterRule.MEDIAN_OF_ERRORS:
        return float(np.median(e))
    raise ValueError("the explicit-grid rule does not define a single center")


def optimize_params(errors, grid: ParamGrid) -> tuple[KernelParams, float]:
    """Minimize `param_objective` over the effective (sigma, center) grid.

    The effective search space is sigma_set x center_set for the explicit-grid
    rule, and sigma_set x {mean-or-median of errors} otherwise.  Widths below
    1e-3 of the residual spread are clamped up so a single-sample spike cannot
    dominate the downstream weighting matrix; ties (within 1e-12 relative) go
    to the smaller width, then to the center closer to the sample median.
    Returns the winning pair and its objective value.
    """
    e = as_error_vector(errors)

    if grid.center_rule is CenterRule.EXPLICIT_GRID:
        centers = np.asarray(grid.center_set, dtype=float)
    else:
        centers = np.array([center_from_rule(e, grid.center_rule)])

    spread = float(np.std(e))
    floor = _SIGMA_FLOOR_FRAC * (spread if spread > 0.0 else 1.0)
    sigmas = np.asarray(grid.sigma_set, dtype=float)
    n_clamped = int(np.count_nonzero(sigmas < floor))
    if n_clamped:
        log.info(
            "clamped %d kernel width(s) below %.3g to the admissible floor",
            n_clamped, floor,
        )
        sigmas = np.maximum(sigmas, floor)

    # One (C, N) difference table, one exp pass per width; row means along the
    # contiguous axis reduce exactly like the 1-D path in param_objective.
    diff = centers[:, None] - e[None, :]
    objective = np.empty((sigmas.size, centers.size))
    for i, s in enumerate(sigmas):
        corr = _kernel_values(diff, s).mean(axis=1)
        objective[i, :] = 1.0 / (2.0 * SQRT_PI * s) - 2.0 * corr

    best = objective.min()
    tied = (objective - best) <= np.maximum(np.abs(objective), abs(best)) * _TIE_RTOL
    median = float(np.median(e))
    rows, cols = np.nonzero(tied)
    keys = [
        (sigmas[i], abs(centers[j] - median), centers[j])
        for i, j in zip(rows, cols)
    ]
    pick = min(range(len(keys)), key=keys.__getitem__)
    i_sel, j_sel = rows[pick], cols[pick]

    params = KernelParams(sigma=float(sigmas[i_sel]), center=float(centers[j_sel]))
    # Recompute through the scalar path so the returned value is exactly
    # param_objective evaluated at the returned pair.
    return params, param_objective(e, params.sigma, params.center)
