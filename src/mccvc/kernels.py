"""Gaussian kernel, correntropy with a movable center, and kernel-parameter search.

The loss family used across the package is built from the normalized Gaussian
kernel G_sigma(u) = exp(-u^2 / (2 sigma^2)) / (sqrt(2 pi) sigma).  Correntropy
of a residual sample is the mean kernel value of (e_i - c), so the pair
(sigma, c) controls both the width and the location of the low-cost region.
`optimize_params` picks that pair by minimizing the integrated squared distance
between the shifted kernel and the residual density, evaluated on a finite
grid (the closed-form self-energy term is 1 / (2 sqrt(pi) sigma)).  The
one-center (mean and median) rules compute every objective exactly.  On an
explicit grid every width is first screened, by linearly binned kernel sums
when N is large against the lattice and by kernel sums with differences
clipped at a fixed reach otherwise; both screens have a proven error bound,
and only the grid points that bound cannot rule out are recomputed exactly,
so the search returns bit for bit what the full table of objectives would.
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

# The smallest admissible kernel width, as a fraction of the residual spread.
_SIGMA_FLOOR_FRAC = 1e-3
# The explicit-grid screens (see `optimize_params`): lattice spacing in widths
# (rho), and the reach in widths beyond which an error leaves a center's binned
# sum, or counts as at the reach in a clipped one (L).
_BIN_FRAC = 0.1
_REACH = 10.0
# A width is screened only when N is at least this many times its node count B
# and there are at least this many centers.  Measured per width on 2 CPUs
# (numpy 2.4, 1 BLAS thread, widths 0.2-5, centers spanning 10, 10% outliers),
# exact row time over screened row time was 0.65-1.5 at N = B, and at N = 8B
# 3.8-23 with 101 centers, 1.4-8.5 with 25 and 0.95-3.6 with 8.  Against a
# clipped row (the alternative since) the ratio at N = 8B was 3.4-4.6 with 101
# centers, 1.1-2.0 with 25 and 0.71-0.82 with 8.
_SCREEN_RATIO = 8
# Lattice nodes must be 2**20 ulps apart or more, so their rounding stays far
# below a spacing (and two nodes never coincide).
_RESOLUTION = 2.0**20 * sys.float_info.epsilon
# Largest kernel value, in peaks, of a difference beyond (L - 1) widths; the
# 1 absorbs the rounding of the window ends and of the clip.
_TAIL = math.exp(-0.5 * (_REACH - 1.0) ** 2)


def _check_width(sigma, name: str = "sigma") -> float:
    """Return a kernel width as a float; reject it unless it is a positive finite
    real whose square is a normal float (a smaller one would make the kernel 0/0)."""
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {sigma!r}")
    if sigma * sigma < sys.float_info.min:
        raise ValueError(f"{name} {sigma!r} is too small: its square underflows")
    return sigma


def _check_non_negative(value, name: str) -> float:
    """Return a regularizer-like scalar as a float; reject it unless it is a
    non-negative finite real (a NaN or infinite one would make a silent NaN)."""
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be a non-negative finite real, got {value!r}")
    return value


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

    `x` may be a scalar or an array of any shape; the result has its shape.
    By construction every entry is the same sum as `empirical_correntropy`
    with center x and width `bandwidth`; the two code paths agree bit for bit.
    """
    s = as_error_vector(sample)
    bandwidth = _check_width(bandwidth, "bandwidth")
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation points must be finite")
    # Each row mean reduces along the contiguous axis, like the 1-D mean.
    out = _kernel_values(xs.reshape(-1, 1) - s, bandwidth).mean(axis=1).reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out


def mcc_vc_cost(errors, params: KernelParams, weight_norm_sq: float, lam: float) -> float:
    """Regularized correntropy cost -V(e; sigma, c) + lam * ||beta||^2."""
    lam = _check_non_negative(lam, "lam")
    weight_norm_sq = _check_non_negative(weight_norm_sq, "weight_norm_sq")
    return -empirical_correntropy(errors, params) + lam * weight_norm_sq


def param_objective(errors, sigma: float, center: float) -> float:
    """Squared-distance objective between the shifted kernel and the error density.

    Equals 1/(2 sqrt(pi) sigma) - 2 * (1/N) sum_i G_sigma(e_i - center); the
    first term is the closed-form self-energy integral of the Gaussian kernel.
    """
    sigma = _check_width(sigma)
    e = as_error_vector(errors)
    corr = float(_kernel_values(e - float(center), sigma).mean())
    return 1.0 / (2.0 * SQRT_PI * sigma) - 2.0 * corr


def _exact_objectives(diff: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """(S, C) objectives of each width in `sigmas` at each row of the (C, N)
    center-minus-error table `diff`, in blocks of at most max(C*N, 2**16)
    kernel values.  Every row mean reduces along the contiguous axis, so it
    is bit for bit the 1-D mean in `param_objective`."""
    per_block = max(1, (1 << 16) // diff.size)
    out = np.empty((sigmas.size, diff.shape[0]))
    for start in range(0, sigmas.size, per_block):
        s = sigmas[start:start + per_block, None, None]
        corr = _kernel_values(diff, s).mean(axis=2)
        out[start:start + per_block] = 1.0 / (2.0 * SQRT_PI * s[:, :, 0]) - 2.0 * corr
    return out


def _node_counts(centers: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Lattice size B of each width: nodes 0.1 sigma apart over the centers' range
    widened by the reach on both sides, plus two."""
    span = centers[-1] - centers[0] + 2.0 * _REACH * sigmas
    return np.ceil(span / (_BIN_FRAC * sigmas)) + 2


def _binned_objectives(sorted_e: np.ndarray, centers: np.ndarray, s, count: int):
    """Screened objectives of width `s` at every center from `count` lattice
    nodes, and the bound on their distance to the exact ones."""
    n = sorted_e.size
    h = _BIN_FRAC * s
    lo = centers[0] - _REACH * s
    first, stop = np.searchsorted(sorted_e, (lo, centers[-1] + _REACH * s))
    x = sorted_e[first:stop]
    nodes = lo + h * np.arange(count)
    k = np.minimum(((x - lo) / h).astype(np.intp), count - 2)
    left = nodes[k]
    t = (x - left) / (nodes[k + 1] - left)
    mass = np.bincount(k, 1.0 - t, count) + np.bincount(k + 1, t, count)
    # Clipping the differences to the reach keeps exp off its slow underflow path.
    u = centers[:, None] - nodes
    np.clip(u, -_REACH * s, _REACH * s, out=u)
    corr = (_kernel_values(u, s) @ mass) / n
    spacing = float(np.max(np.diff(nodes)))
    bound = 2.0 / (SQRT_2PI * s) * (
        spacing * spacing / (8.0 * s * s) + _TAIL + (2 * n + count + 48) * sys.float_info.epsilon
    )
    return 1.0 / (2.0 * SQRT_PI * s) - 2.0 * corr, bound


def _clipped_objectives(sq: np.ndarray, s):
    """Clipped objectives of width `s` at every row of the (C, N) table `sq` of
    squared center-minus-error differences, and the bound on their distance
    to the exact ones."""
    n = sq.shape[1]
    # Differences beyond the reach count as at the reach, which keeps every
    # exp argument in [-L^2/2, 0], off exp's slow underflow path.
    arg = sq * (-1.0 / (2.0 * s * s))
    np.maximum(arg, -0.5 * _REACH * _REACH, out=arg)
    corr = np.exp(arg, out=arg).mean(axis=1) / (SQRT_2PI * s)
    bound = 2.0 / (SQRT_2PI * s) * (_TAIL + (2 * n + 48) * sys.float_info.epsilon)
    return 1.0 / (2.0 * SQRT_PI * s) - 2.0 * corr, bound


def optimize_params(errors, grid: ParamGrid) -> tuple[KernelParams, float]:
    """Minimize `param_objective` over the effective (sigma, center) grid.

    The effective search space is sigma_set x center_set for the explicit-grid
    rule, and sigma_set x {mean-or-median of errors} otherwise.  Widths below
    1e-3 of the residual spread are clamped up so a single-sample spike cannot
    dominate the downstream weighting matrix; exact ties go to the smaller
    width, then to the center closer to the sample median, then to the
    smaller center.  Returns the winning pair and its objective value.

    The result is bit for bit that of the full (S, C) table of objectives,
    though on an explicit grid that table is only screened, and each row is of
    one of three kinds:

    - Exact rows.  The mean and median rules (one center) compute every width
      exactly, in one broadcast over blocks of widths; so does the rescore
      below.  An exact entry is bit for bit `param_objective` at its pair.
    - Binned rows.  An explicit-grid width is binned when there are at least
      8 centers and N is at least 8 times its node count B
      (`_SCREEN_RATIO`), and its lattice is coarse enough for its floats.
      The errors within L = 10 widths of the center range are linearly
      binned onto nodes h = 0.1 sigma apart (Silverman 1982, AS 176; Wand
      1994), and each center's kernel sum becomes one (C, B) matvec.  With
      p = 1/(sqrt(2 pi) sigma) the kernel's peak, each binned objective is
      within 2 p [h^2/(8 sigma^2) + exp(-(L-1)^2/2) + (2N + B + 48) eps] of
      the exact table entry.  The first term is the linear-interpolation
      error h^2/8 max|G''|, with max|G''| = p/sigma^2.  The second bounds a
      kernel value beyond (L - 1) widths: errors outside the window are
      dropped and node differences beyond L widths are clipped.  The third
      is rounding: each kernel value is within 16u p (u = eps/2), and a sum
      of m non-negative terms in any order within (m - 1)u of their total
      (Higham 2002, sec. 4.2).  That puts the exact mean within (N + 16)u p
      and the screen (bin masses from N weights, then a B-term matvec)
      within (N + B + 24)u p; (2N + B + 42)u is charged twice over as
      (2N + B + 48) eps to cover second-order terms.  The factor 2 is the
      objective's -2 in front of the mean.
    - Clipped rows.  Every other explicit-grid width (such as too few
      centers, too small an N, a clamped tiny width or centers too far out
      for a lattice) is screened from one (C, N) table of squared
      differences (c_j - e_i)^2 shared by all such widths.  Each exp argument
      is that square times -1/(2 sigma^2), a product rather than the exact
      row's division, and is clipped at -L^2/2: a difference beyond L widths
      counts as at L widths, which keeps every argument in [-50, 0], away
      from exp's slow path below about -708.  The peak p multiplies the
      row mean once instead of every value.  Each clipped objective is within
      2 p [exp(-(L-1)^2/2) + (2N + 48) eps] of the exact table entry, the
      binned bound with h = 0 and B = 0.  The first term covers the clip:
      beyond L widths the exact and the clipped kernel value both lie in
      [0, p exp(-L^2/2)] up to rounding, and charging them at L - 1 widths,
      as the binned tail does, absorbs that rounding.  The second is
      rounding, widened for the reordered arithmetic: the product argument
      has a relative error of at most 4u, which moves exp(a) by at most
      4u |a| exp(a) <= 4u/e, so each unscaled value is still within 16u of
      its exact exp; their mean is within (N - 1)u + u more, and dividing it
      by sqrt(2 pi) sigma adds 2u, so the clipped mean is within (N + 18)u p.
      With the exact mean's (N + 16)u p that is (2N + 34)u, charged twice
      over as (2N + 48) eps as above.
    - Certified rescore.  With U the least screened objective plus its bound,
      every point whose screened objective minus its bound exceeds U is above
      the grid minimum, so it is dropped.  The kept points are recomputed
      exactly, as table rows, which reduce like the full table; the tie rule
      and its keys then see the same minimum and the same tied set as on the
      full table.
    """
    e = as_error_vector(errors)
    n = e.size

    median = None
    if grid.center_rule is CenterRule.EXPLICIT_GRID:
        centers = np.asarray(grid.center_set, dtype=float)
    elif grid.center_rule is CenterRule.MEAN_OF_ERRORS:
        centers = np.array([np.mean(e)])
    else:
        median = float(np.median(e))
        centers = np.array([median])

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

    if grid.center_rule is not CenterRule.EXPLICIT_GRID:
        objective = _exact_objectives(centers[:, None] - e[None, :], sigmas)
        keep = np.ones(objective.shape, dtype=bool)
    else:
        objective = np.empty((sigmas.size, centers.size))
        screened = np.zeros(sigmas.size, dtype=bool)
        if centers.size >= _SCREEN_RATIO:
            counts = _node_counts(centers, sigmas)
            screened = (counts * _SCREEN_RATIO <= n) & (
                _BIN_FRAC * sigmas >= _RESOLUTION * (np.max(np.abs(centers)) + _REACH * sigmas)
            )
        bound = np.empty((sigmas.size, 1))
        if screened.any():
            sorted_e = np.sort(e)
            for i in np.flatnonzero(screened):
                objective[i], bound[i] = _binned_objectives(sorted_e, centers, sigmas[i], int(counts[i]))
        if not screened.all():
            sq = centers[:, None] - e[None, :]
            sq *= sq
            for i in np.flatnonzero(~screened):
                objective[i], bound[i] = _clipped_objectives(sq, sigmas[i])
        keep = objective - bound <= (objective + bound).min()
        for i in np.flatnonzero(keep.any(axis=1)):
            kept = centers[keep[i]]
            objective[i, keep[i]] = _exact_objectives(kept[:, None] - e[None, :], sigmas[i:i + 1])[0]

    rows, cols = np.nonzero(keep)
    values = objective[rows, cols]
    best = values.min()
    tied = values == best
    rows, cols = rows[tied], cols[tied]
    pick = 0
    if rows.size > 1:
        if median is None:
            median = float(np.median(e))
        keys = [(sigmas[i], abs(centers[j] - median), centers[j]) for i, j in zip(rows, cols)]
        pick = min(range(len(keys)), key=keys.__getitem__)
    i_sel, j_sel = rows[pick], cols[pick]

    # An exact table entry is bit for bit param_objective at its pair.
    params = KernelParams(sigma=float(sigmas[i_sel]), center=float(centers[j_sel]))
    return params, float(objective[i_sel, j_sel])
