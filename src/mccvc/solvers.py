"""Closed-form ridge solution and the correntropy fixed-point solvers.

The fixed-point loop alternates between (re)choosing kernel parameters from the
current residuals and solving a weighted ridge system
(H' Lambda H + lambda' I) beta = H' Lambda (T - c), where Lambda holds the
per-sample kernel weights.  The classical zero-center criterion is the same
loop with the kernel frozen at (sigma, 0).  Both solvers share one contract:
`fit_mcc(H, T, sigma, config)` and `fit_mcc_vc(H, T, grid, config)` differ
only in the kernel, and one `FitConfig` (lambda', the iteration cap and the
cost-change tolerance) carries every loop setting, checked once when it is
built.

lambda' is the one regularizer every function here takes.  The update is the
stationary point of J = -V(e; sigma, c) + lambda ||beta||^2 only for
lambda = lambda' / (2 N sigma^2), which only `mcc_vc_cost` and
`mcc_vc_gradient` compute.  At a fixed (sigma, c) the update is a
half-quadratic step and never raises J; the (sigma, c) choice minimizes the
density fit, not J, and may raise it, so the loop stops on the change of J
across one step at one (sigma, c), relative to max(1, |J|): a narrow kernel
makes |J| large (about 64 at sigma = 0.005), and an absolute tolerance near
the rounding of J would never be met.

When the constant vector lies in the span of H (an intercept column, or
sigmoid ELM features that sum to one), the center is not identifiable: a
shift of c is absorbed by the intercept direction of beta, the predictions
H beta + c do not move, and the median rule lets c drift by a little at
every step so the loop never stops.  `fit_mcc_vc` therefore tests once per
`FitStart` whether 1 is in span(H), unless the caller passes the answer in,
and, if it is, keeps the first iteration's c* and re-chooses only sigma on the
one-center grid {c*}.  The (sigma, c) searches of one fit share a
`kernels.RowBounds`, which lets each search skip the widths that the last
one and the drift of the residuals and of the center since it rule out (a
one-center search computes only the rows left in contention, on {c*} often
one), and carries the fit's search plan; `RowBounds.carry` states what each
search keeps.

A fit's `FitStart` checks H and T once; the loop then checks only what
each step makes new (a finite ||beta||^2 and finite residuals).  Each step
computes its new residuals once and evaluates the kernel once at them: those
values give the cost after the step and, flushed, the weights of the next
step.  The kernel is evaluated again only before a step whose kernel
`choose_params` moved; at an unchanged kernel the cost before a step is the
last step's cost, bit for bit.  The loop shares its step (`_weighted_equations`
and `_ridge`) and its cost (`kernels._cost`) with `weighted_ridge_step` and
`mcc_vc_cost`, which check their inputs and then run the same code, so
replaying a fit through them gives its iterates and costs bit for bit.
`fit_mcc_vc` calls `optimize_params` once per step through this module's
global of that name, its first search through its start.

The fits on one (H, T), such as a fold's candidates, can share a start: each
begins at beta = 0, so its first residuals, first search and, per first
kernel, its cost, weights, H'WH and H'W(T - c) are the same floats in each,
and lambda' enters only on H'WH's diagonal.  The start computes them once;
each fit adds its lambda' to a copy, carries a copy of the search's width
intervals and runs its later steps alone, so it is bit for bit the lone fit.

Every normal-equation system is assembled by `_normal_equations` and solved by
`_spd_solve`, whose guards raise a SolverError for mmse, mcc and mcc-vc alike.
Add regularization (lambda' > 0) to fit a rank-deficient design.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._checks import check_count, check_non_negative, finite_array, same_rows
from .errors import DegenerateWeightsError, SingularSystemError, SolverError
from .kernels import (
    CenterRule,
    KernelParams,
    ParamGrid,
    RowBounds,
    _cost,
    _kernel_values,
    mcc_vc_cost,  # noqa: F401  (a name of this module that perfbench's tracer wraps)
    optimize_params,
)

_RESIDUAL_RTOL = 1e-8
# 1 is in span(H) when its least-squares residual on H has an RMS below this.
_SPAN_RMS = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Loop settings of both fixed-point solvers: the update's regularizer lambda'
    (the cost's lambda' / (2 N sigma^2)), the iteration cap and the tolerance.

    A fit converges once one step changes the cost J by less than
    `tolerance` * max(1, |J|), J taken before the step.
    """

    lambda_prime: float = 1e-4
    max_iterations: int = 100
    tolerance: float = 1e-9

    def __post_init__(self):
        check_non_negative(self.lambda_prime, "lambda_prime")
        check_count(self.max_iterations, 1, "max_iterations")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class IterationRecord:
    sigma: float
    center: float
    cost: float
    max_delta: float


@dataclass(frozen=True)
class FitResult:
    """Learned weights plus per-iteration diagnostics of the fixed-point loop."""

    beta: np.ndarray
    iterations_run: int
    converged: bool
    trace: tuple[IterationRecord, ...]


def check_design(H, targets) -> tuple[np.ndarray, np.ndarray]:
    """Validate a design matrix / target vector pair and return float arrays."""
    H = finite_array(H, "H", 2)
    t = finite_array(targets, "targets", 1)
    same_rows(H, t, "targets")
    return H, t


def _spd_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A via Cholesky: LAPACK's
    potrf factors a copy of A's lower triangle and potrs solves with it, the
    calls (and so the bits) of scipy's cho_factor(lower=True) and cho_solve.

    A failed factorization (singular or indefinite normal equations, such as
    a rank-deficient design with lambda' = 0) raises SingularSystemError.  A
    is left as it was, and a solution is returned only if its residual on A
    is within 1e-8 (1 + max|b|); otherwise, a NaN residual of a non-finite
    solution or input included, it raises SolverError.
    """
    # scipy is imported where it is called, so `import mccvc` loads none of it.
    from scipy.linalg import get_lapack_funcs

    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
    factor, info = potrf(A, lower=1, clean=0)
    if info > 0:
        raise SingularSystemError("normal equations are singular; add regularization")
    x = potrs(factor, b, lower=1)[0]
    residual = float(np.abs(A @ x - b).max())
    if not residual <= _RESIDUAL_RTOL * (1.0 + float(np.abs(b).max())):
        raise SolverError(f"linear solve residual {residual:.3g} exceeds tolerance")
    return x


def _normal_equations(H: np.ndarray, r: np.ndarray, w=None) -> tuple[np.ndarray, np.ndarray]:
    """H'WH and H'W r, W = diag(w) or I; raise on overflow."""
    with np.errstate(over="ignore"):
        WH, Wr = (H, r) if w is None else (w[:, None] * H, w * r)
        A, b = H.T @ WH, H.T @ Wr
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise SolverError("normal equations overflow; rescale the design or targets")
    return A, b


def _ridge(A: np.ndarray, b: np.ndarray, lambda_prime: float) -> np.ndarray:
    # (A + lambda' I)^{-1} b, A's diagonal raised in place; lambda' is checked by the callers.
    A.flat[::A.shape[0] + 1] += lambda_prime
    return _spd_solve(A, b)


def ridge_solve(H, targets, lambda_prime: float) -> np.ndarray:
    """Regularized least squares (H'H + lambda' I)^{-1} H'T via an SPD factorization."""
    H, t = check_design(H, targets)
    return _ridge(*_normal_equations(H, t), check_non_negative(lambda_prime, "lambda_prime"))


def weighted_ridge_step(
    H,
    targets,
    params: KernelParams,
    lambda_prime: float,
    beta_prev,
) -> np.ndarray:
    """One fixed-point update (H'WH + lambda' I)^{-1} H'W(T - c).

    W is the diagonal of kernel weights G_sigma(e_i - c) at the residuals of
    `beta_prev`; at that (sigma, c) the step never raises `mcc_vc_cost` at
    the same lambda'.  A step with no weight as large as the smallest normal
    float has no data term, so it raises DegenerateWeightsError whatever
    lambda' is; otherwise every weight below that float (a subnormal one) is
    set to 0, which keeps the products with H off the CPU's slow subnormal
    path.  With lambda' = 0 a singular H'WH raises SingularSystemError.

    It checks its inputs and then runs the fixed-point loop's own step, so a
    fit's iterates are this function's values bit for bit.
    """
    H, t = check_design(H, targets)
    lambda_prime = check_non_negative(lambda_prime, "lambda_prime")
    beta_prev = finite_array(beta_prev, "beta", 1)
    same_rows(H.T, beta_prev, "beta")
    e = t - H @ beta_prev
    w = _kernel_values(e - params.center, params.sigma)
    return _ridge(*_weighted_equations(H, t, params, w), lambda_prime)


def _weighted_equations(H, t, params: KernelParams, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normal equations H'WH and H'W(T - c) of `weighted_ridge_step` from
    its unchecked inputs and the kernel values `w` at the residuals of
    beta_prev, whose subnormal entries it sets to 0 in place."""
    if w.max() < sys.float_info.min:
        raise DegenerateWeightsError(
            f"no residual is within reach of the kernel (sigma={params.sigma:g}, center="
            f"{params.center:g}); rescale the targets or widen the grid")
    w[w < sys.float_info.min] = 0.0
    return _normal_equations(H, t - params.center, w)


class FitStart:
    """The rows (H, T) that fits share, checked once, and what their first step
    computes before lambda' enters (see the module docstring), kept once
    computed without error.  `spans_constant`: 1 in span(H), None untested."""

    def __init__(self, H, targets, spans_constant: bool | None = None):
        self.H, self.t = check_design(H, targets)
        self.spans_constant, self._steps, self._search = spans_constant, {}, None

    def first_step(self, params: KernelParams, residuals: np.ndarray):
        """(J, H'WH, H'W(T - c)) at beta = 0 under the first kernel `params`.
        J = -mean(kv) + lambda' 0 / (2 N sigma^2) is the same float for every
        lambda', so it is taken at lambda' = 0."""
        if params not in self._steps:
            kv = _kernel_values(residuals - params.center, params.sigma)
            cost = _cost(kv, params.sigma, 0.0, 0.0)  # before the weights are flushed
            self._steps[params] = (cost, *_weighted_equations(self.H, self.t, params, kv))
        return self._steps[params]

    def first_search(self, residuals: np.ndarray, grid: ParamGrid) -> tuple[KernelParams, RowBounds]:
        """The first search's pick on `grid` and its `RowBounds` (a copy once kept)."""
        if self._search is not None and self._search[0] is grid:
            return self._search[1], self._search[2].copy()
        state = RowBounds()
        params = optimize_params(residuals, grid, state)[0]
        self._search = (grid, params, state.copy())
        return params, state


def _own_start(H, targets, start: FitStart | None) -> FitStart:
    if start is not None and (H is not start.H or targets is not start.t):
        raise ValueError("a start must hold the fit's own H and targets")
    return FitStart(H, targets) if start is None else start


# Per-iteration hook: receives (k, residuals of beta_{k-1}, chosen params, beta_k).
IterationHook = Callable[[int, np.ndarray, KernelParams, np.ndarray], None]


def _fixed_point_loop(
    start: FitStart,
    choose_params: Callable[[np.ndarray], KernelParams],
    config: FitConfig,
    on_iteration: IterationHook | None,
) -> FitResult:
    # H and t are checked by the start (see the module docstring).  `kv` holds
    # the kernel values of `residuals` at `params_prev`: the last step's cost
    # was taken from them, and they are the next step's weights unless the
    # kernel moves, since the cost and the weights of one (sigma, c) at the
    # same residuals are the same values.  The first step is the start's.
    H, t = start.H, start.t
    beta = np.zeros(H.shape[1])
    norm_sq = 0.0
    lambda_prime = float(config.lambda_prime)

    trace: list[IterationRecord] = []
    converged = False
    residuals = t - H @ beta
    params_prev = kv = cost = None
    for k in range(1, config.max_iterations + 1):
        params = choose_params(residuals)
        if k == 1:
            cost_prev, A, b = start.first_step(params, residuals)
            beta_next = _ridge(A.copy(), b, lambda_prime)
        else:
            if params != params_prev:
                kv = _kernel_values(residuals - params.center, params.sigma)
                cost = _cost(kv, params.sigma, norm_sq, lambda_prime)
            cost_prev = cost
            beta_next = _ridge(*_weighted_equations(H, t, params, kv), lambda_prime)
        residuals_next = t - H @ beta_next
        with np.errstate(over="ignore"):
            norm_sq = float(beta_next @ beta_next)
        if not math.isfinite(norm_sq):
            raise SolverError(
                "weights overflow: ||beta||^2 is not finite; rescale the design or targets"
            )
        finite_array(residuals_next, "errors")
        kv = _kernel_values(residuals_next - params.center, params.sigma)
        cost = _cost(kv, params.sigma, norm_sq, lambda_prime)
        max_delta = float(np.abs(beta_next - beta).max())
        trace.append(IterationRecord(params.sigma, params.center, cost, max_delta))
        if on_iteration is not None:
            on_iteration(k, residuals, params, beta_next)
        beta, residuals, params_prev = beta_next, residuals_next, params
        if abs(cost - cost_prev) < config.tolerance * max(1.0, abs(cost_prev)):
            converged = True
            break
    return FitResult(beta, len(trace), converged, tuple(trace))


def _spans_constant(H: np.ndarray) -> bool:
    """Whether the constant vector lies in span(H): its least-squares residual
    on H has an RMS below 1e-8.  LAPACK's pivoted-QR solver, gelsy, takes half
    the time of the SVD one at N=400, m=50."""
    from scipy.linalg import lstsq

    ones = np.ones(H.shape[0])
    coef = lstsq(H, ones, lapack_driver="gelsy", check_finite=False)[0]
    return float(np.sqrt(np.mean((ones - H @ coef) ** 2))) < _SPAN_RMS


def fit_mcc_vc(
    H,
    targets,
    grid: ParamGrid,
    config: FitConfig = FitConfig(),
    on_iteration: IterationHook | None = None,
    *,
    start: FitStart | None = None,
) -> FitResult:
    """Fixed-point regression with kernel width and center re-chosen per iteration.

    Each iteration computes residuals of the previous iterate, picks
    (sigma*, c*) by searching `grid` on those residuals, forms the kernel
    weights, and solves the weighted ridge system with `config.lambda_prime`.
    Iteration stops once the cost change (evaluated at the iteration's own
    parameters) drops below `config.tolerance` * max(1, |cost|), or after
    `config.max_iterations` steps.

    If 1 is in span(H) (its least-squares residual on H has an RMS below
    1e-8), c and the intercept direction of beta are confounded: any c gives
    the same predictions H beta + c once beta absorbs it, so c is not
    identifiable.  The fit then keeps the first iteration's c* and searches
    only the widths, on the one-center explicit grid sigma_set x {c*}.

    `start` is a `FitStart` of (H, targets) that the fits on those rows
    share: it holds the span test's answer and each fit's first search and
    step.  None (the default) gives the fit a start of its own.

    The searches of one fit share one `RowBounds`, so each search screens,
    or with one center computes, only the widths that the previous search
    and the drift of the residuals and of the center since it leave in
    contention.  A confounded fit's first search under the mean or median
    rule carries into its searches on {c*}, whose center is the same, so
    only that first search must compute every width.  Each pick is still
    bit for bit that of a search without it.
    """
    start = _own_start(H, targets, start)
    if start.spans_constant is None:
        start.spans_constant = _spans_constant(start.H)
    search, state = grid, None

    def choose(e: np.ndarray) -> KernelParams:
        nonlocal search, state
        if state is None:
            params, state = start.first_search(e, grid)
            if start.spans_constant:
                search = ParamGrid(grid.sigma_set, [params.center], CenterRule.EXPLICIT_GRID)
            return params
        return optimize_params(e, search, state)[0]

    return _fixed_point_loop(start, choose, config, on_iteration)


def fit_mcc(
    H,
    targets,
    sigma: float,
    config: FitConfig = FitConfig(),
    on_iteration: IterationHook | None = None,
    *,
    start: FitStart | None = None,
) -> FitResult:
    """Classical zero-center baseline: the `fit_mcc_vc` loop with (sigma, 0) frozen.

    It takes the same `config` and `start` as `fit_mcc_vc`; only the kernel
    differs, so `fit_mcc_vc` on the grid {sigma} x {0} (a width the search
    does not clamp) gives this fit bit for bit.  `KernelParams` checks `sigma`.
    """
    start = _own_start(H, targets, start)
    frozen = KernelParams(sigma=sigma, center=0.0)
    return _fixed_point_loop(start, lambda residuals: frozen, config, on_iteration)


def mcc_vc_gradient(H, targets, beta, params: KernelParams, lambda_prime: float) -> np.ndarray:
    """Analytic gradient of `mcc_vc_cost` at `beta`, for the same lambda'.

    g = -(1/N) sum_i G_sigma(e_i - c) (e_i - c) / sigma^2 * h_i + 2 lambda beta,
    e = T - H beta, lambda = lambda' / (2 N sigma^2): g = 0 where the update's
    (H'WH + lambda' I) beta = H'W(T - c) holds, as at a converged fit.
    """
    H, t = check_design(H, targets)
    lambda_prime = check_non_negative(lambda_prime, "lambda_prime")
    beta = finite_array(beta, "beta", 1)
    same_rows(H.T, beta, "beta")
    u = (t - H @ beta) - params.center
    w = _kernel_values(u, params.sigma)
    sigma_sq = params.sigma * params.sigma
    return -(H.T @ (w * u / sigma_sq)) / t.size + (lambda_prime / (t.size * sigma_sq)) * beta
