"""Closed-form ridge solution and the correntropy fixed-point solvers.

The fixed-point loop alternates between (re)choosing kernel parameters from the
current residuals and solving a weighted ridge system
(H' Lambda H + lambda' I) beta = H' Lambda (T - c), where Lambda holds the
per-sample kernel weights.  The classical zero-center criterion is the same
loop with the kernel frozen at (sigma, 0).
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import DegenerateWeightsError, DivergedError, SingularSystemError, SolverError
from .kernels import (
    KernelParams,
    ParamGrid,
    _kernel_values,
    mcc_vc_cost,
    optimize_params,
)

log = logging.getLogger(__name__)

_RESIDUAL_RTOL = 1e-8
_JITTER_SCALE = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Settings for the variable-center fixed-point solver."""

    grid: ParamGrid
    lambda_prime: float = 1e-4
    max_iterations: int = 100
    tolerance: float = 1e-9
    initial_beta: np.ndarray | None = None

    def __post_init__(self):
        if self.lambda_prime < 0.0:
            raise ValueError("lambda_prime must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.initial_beta is not None:
            b = np.asarray(self.initial_beta, dtype=float)
            if b.ndim != 1 or not np.all(np.isfinite(b)):
                raise ValueError("initial_beta must be a finite 1-D vector")
            b.setflags(write=False)
            object.__setattr__(self, "initial_beta", b)


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
    H = np.asarray(H, dtype=float)
    t = np.asarray(targets, dtype=float)
    if H.ndim != 2 or t.ndim != 1 or H.shape[0] != t.shape[0]:
        raise ValueError(f"design shape mismatch: H {H.shape} vs targets {t.shape}")
    if H.shape[0] < 1 or H.shape[1] < 1:
        raise ValueError("design matrix must be non-empty")
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(t))):
        raise ValueError("design contains non-finite entries")
    return H, t


def _spd_solve(A: np.ndarray, b: np.ndarray, allow_jitter: bool) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A via Cholesky.

    With `allow_jitter`, a failed factorization (semidefinite normal equations
    with zero regularization) is retried once with a small diagonal bump.
    The solve is verified against the system actually factorized.
    """
    A_used = A
    try:
        factor = cho_factor(A_used, lower=True)
    except LinAlgError:
        if not allow_jitter:
            raise SingularSystemError(
                "normal equations are singular; add regularization"
            ) from None
        jitter = _JITTER_SCALE * float(np.trace(A)) / A.shape[0]
        log.info("factorization failed; retrying with diagonal jitter %.3g", jitter)
        A_used = A + jitter * np.eye(A.shape[0])
        try:
            factor = cho_factor(A_used, lower=True)
        except LinAlgError:
            raise SingularSystemError(
                "normal equations remain singular after jitter retry"
            ) from None
    x = cho_solve(factor, b)
    residual = float(np.max(np.abs(A_used @ x - b)))
    if residual > _RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(b)))):
        raise SolverError(f"linear solve residual {residual:.3g} exceeds tolerance")
    return x


def ridge_solve(H, targets, lam: float) -> np.ndarray:
    """Regularized least squares (H'H + lam I)^{-1} H'T via an SPD factorization."""
    H, t = check_design(H, targets)
    if lam < 0.0:
        raise ValueError("lam must be non-negative")
    A = H.T @ H
    A[np.diag_indices_from(A)] += lam
    b = H.T @ t
    return _spd_solve(A, b, allow_jitter=False)


def weighted_ridge_step(
    H,
    targets,
    params: KernelParams,
    lambda_prime: float,
    beta_prev,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """One fixed-point update (H'WH + lambda' I)^{-1} H'W(T - c).

    W is the diagonal of kernel weights G_sigma(e_i - c) at the residuals of
    `beta_prev`; `weights` overrides it (used to cross-check the plain ridge
    path).  All-zero weights with no regularization mean sigma is far too
    small for the current residuals and raise DegenerateWeightsError.
    """
    H, t = check_design(H, targets)
    if lambda_prime < 0.0:
        raise ValueError("lambda_prime must be non-negative")
    if weights is None:
        beta_prev = np.asarray(beta_prev, dtype=float)
        e = t - H @ beta_prev
        w = _kernel_values(e - params.center, params.sigma)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != t.shape:
            raise ValueError("weights must match the sample count")
    if lambda_prime == 0.0 and not np.any(w > 0.0):
        raise DegenerateWeightsError(
            "all kernel weights underflowed to zero with no regularization"
        )
    t_shift = t - params.center
    A = H.T @ (w[:, None] * H)
    A[np.diag_indices_from(A)] += lambda_prime
    b = H.T @ (w * t_shift)
    return _spd_solve(A, b, allow_jitter=True)


# Per-iteration hook: receives (k, residuals of beta_{k-1}, chosen params, beta_k).
IterationHook = Callable[[int, np.ndarray, KernelParams, np.ndarray], None]


def _fixed_point_loop(
    H: np.ndarray,
    t: np.ndarray,
    choose_params: Callable[[np.ndarray], KernelParams],
    lambda_prime: float,
    max_iterations: int,
    tolerance: float,
    initial_beta: np.ndarray | None,
    on_iteration: IterationHook | None,
) -> FitResult:
    n, m = H.shape
    if initial_beta is None:
        beta = np.zeros(m)
    else:
        beta = np.asarray(initial_beta, dtype=float).copy()
        if beta.shape != (m,):
            raise ValueError(f"initial_beta has shape {beta.shape}, expected ({m},)")
    lam = lambda_prime / (2.0 * n)

    trace: list[IterationRecord] = []
    converged = False
    iterations = 0
    for k in range(1, max_iterations + 1):
        residuals = t - H @ beta
        params = choose_params(residuals)
        cost_prev = mcc_vc_cost(residuals, params, float(beta @ beta), lam)
        beta_next = weighted_ridge_step(H, t, params, lambda_prime, beta)
        if not np.all(np.isfinite(beta_next)):
            raise DivergedError(
                f"weight vector became non-finite at iteration {k}", iteration=k
            )
        cost = mcc_vc_cost(t - H @ beta_next, params, float(beta_next @ beta_next), lam)
        max_delta = float(np.max(np.abs(beta_next - beta)))
        trace.append(IterationRecord(params.sigma, params.center, cost, max_delta))
        if on_iteration is not None:
            on_iteration(k, residuals, params, beta_next)
        beta = beta_next
        iterations = k
        if abs(cost - cost_prev) < tolerance:
            converged = True
            break
    return FitResult(
        beta=beta, iterations_run=iterations, converged=converged, trace=tuple(trace)
    )


def fit_mcc_vc(
    H,
    targets,
    config: FitConfig,
    on_iteration: IterationHook | None = None,
) -> FitResult:
    """Fixed-point regression with kernel width and center re-chosen per iteration.

    Each iteration computes residuals of the previous iterate, picks
    (sigma*, c*) by grid search on those residuals, forms the kernel weights,
    and solves the weighted ridge system.  Iteration stops once the cost
    change (evaluated at the iteration's own parameters) drops below the
    configured tolerance, or after `max_iterations` steps.
    """
    H, t = check_design(H, targets)

    def choose(residuals: np.ndarray) -> KernelParams:
        params, _ = optimize_params(residuals, config.grid)
        return params

    return _fixed_point_loop(
        H,
        t,
        choose,
        config.lambda_prime,
        config.max_iterations,
        config.tolerance,
        config.initial_beta,
        on_iteration,
    )


def fit_mcc(
    H,
    targets,
    sigma: float,
    lambda_prime: float = 1e-4,
    max_iterations: int = 100,
    tolerance: float = 1e-9,
    initial_beta: np.ndarray | None = None,
    on_iteration: IterationHook | None = None,
) -> FitResult:
    """Classical zero-center baseline: the same loop with (sigma, 0) frozen.

    A positive width whose square underflows would zero every weight, so it
    raises DegenerateWeightsError before the first iteration.
    """
    H, t = check_design(H, targets)
    sigma = float(sigma)
    if 0.0 < sigma and sigma * sigma < sys.float_info.min:
        raise DegenerateWeightsError(f"kernel width {sigma!r} underflows every weight")
    frozen = KernelParams(sigma=sigma, center=0.0)
    return _fixed_point_loop(
        H,
        t,
        lambda residuals: frozen,
        lambda_prime,
        max_iterations,
        tolerance,
        initial_beta,
        on_iteration,
    )


def mcc_vc_gradient(H, targets, beta, params: KernelParams, lam: float) -> np.ndarray:
    """Analytic gradient of the regularized correntropy cost at `beta`.

    g = -(1/N) sum_i G_sigma(e_i - c) (e_i - c) / sigma^2 * h_i + 2 lam beta,
    with e = T - H beta.  Used to certify stationarity of converged fits.
    """
    H, t = check_design(H, targets)
    beta = np.asarray(beta, dtype=float)
    u = (t - H @ beta) - params.center
    w = _kernel_values(u, params.sigma)
    scale = w * u / (params.sigma * params.sigma)
    return -(H.T @ scale) / t.size + 2.0 * lam * beta
