"""Output checks computed apart from the package, in plain numpy.

None of these functions imports `mccvc`.  Each recomputes what an output must
be from the inputs and the method's documented rules, and returns None when
the output passes or a one-line reason when it does not.  The tolerances are
set from the arithmetic, never from a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI = math.sqrt(math.pi)

# Relative agreement asked of two solves of one well-conditioned system.
SOLVE_RTOL = 1e-9
# Relative slack of the documented tie rule of the kernel-parameter search.
TIE_RTOL = 1e-12
# Widths below this share of the residual spread are clamped up (documented).
SIGMA_FLOOR_FRAC = 1e-3
# A ridge candidate whose normal matrix is this ill-conditioned is singular
# for double precision; the package rejects it rather than solving it.
SINGULAR_COND = 1e14
# Agreement asked of CV scores and test RMSE recomputed from the seeds.
RELM_RTOL = 1e-8
ELM_SEED_OFFSET = 1_000_003


def gaussian(u, sigma: float) -> np.ndarray:
    """Normalized Gaussian kernel, written out independently of the package."""
    z = np.asarray(u, dtype=float) / sigma
    return np.exp(-0.5 * z * z) / (SQRT_2PI * sigma)


def weight_rmse(beta, w_star) -> float:
    d = np.asarray(beta, dtype=float) - np.asarray(w_star, dtype=float)
    return float(np.sqrt(np.mean(d * d)))


def _rel_gap(x, ref) -> float:
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(x - ref)) / max(1e-300, float(np.max(np.abs(ref)))))


def ridge(H, t, lam: float, beta) -> str | None:
    """The mmse beta solves the normal equations (H'H + lam I) beta = H't."""
    H = np.asarray(H, dtype=float)
    ref = np.linalg.solve(H.T @ H + lam * np.eye(H.shape[1]), H.T @ t)
    gap = _rel_gap(beta, ref)
    if not gap <= SOLVE_RTOL:
        return f"mmse beta differs from the normal-equation solve by {gap:.3g} (relative)"
    return None


def weighted_ridge_map(H, t, beta, sigma: float, center: float, lam: float) -> np.ndarray:
    """One step of the weighted-ridge map at fixed (sigma, center), from `beta`."""
    H = np.asarray(H, dtype=float)
    t = np.asarray(t, dtype=float)
    w = gaussian(t - H @ beta - center, sigma)
    A = H.T @ (w[:, None] * H) + lam * np.eye(H.shape[1])
    return np.linalg.solve(A, H.T @ (w * (t - center)))


def fixed_point(H, t, beta, sigma: float, center: float, lam: float, last_step: float) -> str | None:
    """beta is a fixed point of the weighted-ridge map at its final (sigma*, c*).

    The fit stopped after a step of size `last_step` (max-abs change of beta).
    Near a fixed point the map contracts, so one more application moves beta
    by less than that step (about 0.3-0.6 of it on the synthetic workloads);
    the factor 2 leaves room for the first-order approximation, and a
    rounding floor covers fits that stopped exactly.
    """
    beta = np.asarray(beta, dtype=float)
    nxt = weighted_ridge_map(H, t, beta, sigma, center, lam)
    gap = float(np.max(np.abs(nxt - beta)))
    tol = 2.0 * last_step + SOLVE_RTOL * (1.0 + float(np.max(np.abs(beta))))
    if not gap <= tol:
        return (
            f"beta is not a fixed point at sigma={sigma:.6g}, c={center:.6g}: "
            f"one more step moves it {gap:.3g} > {tol:.3g}"
        )
    return None


def grid_minimum(errors, sigma_set, center_set, rule: str) -> tuple[float, float, float]:
    """Brute-force minimum of the kernel-to-density distance over the grid.

    Objective 1/(2 sqrt(pi) s) - 2 mean_i G_s(e_i - c).  Centers are the
    explicit set (rule "grid") or the single mean/median of the errors.
    Widths are clamped up to 1e-3 of the error spread.  Ties within 1e-12
    relative go to the smaller width, then the center nearer the median,
    then the smaller center.  Returns (sigma, center, objective).
    """
    e = np.asarray(errors, dtype=float)
    median = float(np.median(e))
    if rule == "grid":
        centers = np.asarray(center_set, dtype=float)
    elif rule == "mean":
        centers = np.array([float(np.mean(e))])
    else:
        centers = np.array([median])
    spread = float(np.std(e))
    floor = SIGMA_FLOOR_FRAC * (spread if spread > 0.0 else 1.0)
    sigmas = np.maximum(np.asarray(sigma_set, dtype=float), floor)

    obj = np.empty((sigmas.size, centers.size))
    for i, s in enumerate(sigmas):
        for j0 in range(0, centers.size, 16):
            block = centers[j0:j0 + 16]
            corr = gaussian(e[None, :] - block[:, None], s).sum(axis=1) / e.size
            obj[i, j0:j0 + block.size] = 1.0 / (2.0 * SQRT_PI * s) - 2.0 * corr
    best = float(obj.min())
    tied = np.argwhere(obj - best <= np.maximum(np.abs(obj), abs(best)) * TIE_RTOL)
    i, j = min(tied, key=lambda ij: (sigmas[ij[0]], abs(centers[ij[1]] - median), centers[ij[1]]))
    return float(sigmas[i]), float(centers[j]), float(obj[i, j])


def param_search(errors, sigma_set, center_set, rule: str, sigma: float, center: float,
                 objective: float) -> str | None:
    """The returned (sigma*, c*) is the brute-force grid minimum under the tie rule."""
    s_ref, c_ref, obj_ref = grid_minimum(errors, sigma_set, center_set, rule)
    if sigma != s_ref or center != c_ref:
        return (
            f"search returned (sigma, c)=({sigma:.6g}, {center:.6g}); the grid minimum "
            f"is ({s_ref:.6g}, {c_ref:.6g})"
        )
    if not abs(objective - obj_ref) <= SOLVE_RTOL * max(1.0, abs(obj_ref)):
        return f"search objective {objective!r} differs from the recomputed {obj_ref!r}"
    return None


def ridge_step(H, t, sigma: float, center: float, lam: float, beta_prev, beta_next) -> str | None:
    """One weighted-ridge step agrees with np.linalg.solve on recomputed weights.

    The forward error is held to the conditioning of the system, and the
    backward error (relative residual) to a fixed 1e-8, which also covers the
    package's documented jitter retry on numerically singular systems.
    """
    H = np.asarray(H, dtype=float)
    t = np.asarray(t, dtype=float)
    w = gaussian(t - H @ beta_prev - center, sigma)
    A = H.T @ (w[:, None] * H) + lam * np.eye(H.shape[1])
    b = H.T @ (w * (t - center))
    x = np.asarray(beta_next, dtype=float)
    scale = np.linalg.norm(A, np.inf) * np.max(np.abs(x)) + np.max(np.abs(b))
    backward = float(np.max(np.abs(A @ x - b)) / max(scale, 1e-300))
    if not backward <= 1e-8:
        return f"weighted step leaves a relative residual {backward:.3g}"
    cond = float(np.linalg.cond(A))
    if cond < SINGULAR_COND:
        ref = np.linalg.solve(A, b)
        forward = _rel_gap(x, ref)
        if not forward <= SOLVE_RTOL + cond * 1e-14:
            return f"weighted step differs from np.linalg.solve by {forward:.3g} (cond {cond:.3g})"
    return None


def relm_recompute(values, split_seed: int, hidden: int, folds: int, lambdas,
                   train_fraction: float = 0.5) -> dict:
    """Recompute one relm data-bench row from its seed, in numpy.

    Follows the documented data-bench procedure: min-max scale every column
    of the whole file, split rows with a permutation drawn from `split_seed`,
    draw the hidden layer (weights on [-1, 1], biases on [0, 1]) from
    `split_seed + 1_000_003`, split the training rows into shuffled folds
    from `split_seed`, and score each ridge candidate by its mean validation
    RMSE.  Returns the CV score and test RMSE of every solvable candidate.
    """
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(axis=0), values.max(axis=0)
    scaled = (values - lo) / (hi - lo)
    X, y = scaled[:, :-1], scaled[:, -1]
    n = y.size
    perm = np.random.default_rng(split_seed).permutation(n)
    n_train = int(round(train_fraction * n))
    tr, te = perm[:n_train], perm[n_train:]

    rng = np.random.default_rng(split_seed + ELM_SEED_OFFSET)
    W = -1.0 + 2.0 * rng.random((hidden, X.shape[1]))
    bias = rng.random(hidden)

    def features(x):
        return 1.0 / (1.0 + np.exp(-(x @ W.T + bias)))

    H_tr, H_te, y_tr, y_te = features(X[tr]), features(X[te]), y[tr], y[te]
    parts = np.array_split(np.random.default_rng(split_seed).permutation(n_train), folds)

    def solve(H, t, lam):
        A = H.T @ H + lam * np.eye(H.shape[1])
        if np.linalg.cond(A) >= SINGULAR_COND:
            return None
        return np.linalg.solve(A, H.T @ t)

    def rmse(pred, t):
        return float(np.sqrt(np.mean((pred - t) ** 2)))

    out = {}
    for lam in lambdas:
        scores = []
        for k in range(folds):
            fit_idx = np.concatenate([parts[j] for j in range(folds) if j != k])
            beta = solve(H_tr[fit_idx], y_tr[fit_idx], lam)
            if beta is None:
                break
            scores.append(rmse(H_tr[parts[k]] @ beta, y_tr[parts[k]]))
        else:
            beta = solve(H_tr, y_tr, lam)
            if beta is not None:
                out[float(lam)] = {"cv": float(np.mean(scores)), "test_rmse": rmse(H_te @ beta, y_te)}
    return out


def relm_row(values, split_seed: int, hidden: int, folds: int, lambdas,
             chosen_lambda: float, test_rmse: float) -> str | None:
    """The relm row's chosen lambda' and test RMSE match the numpy recomputation.

    The chosen candidate must score the recomputed minimum (first strict
    minimum in grid order, to within RELM_RTOL), and its test RMSE must match.
    """
    table = relm_recompute(values, split_seed, hidden, folds, lambdas)
    if chosen_lambda not in table:
        return f"relm chose lambda'={chosen_lambda!r}, which the recomputation cannot solve"
    best = min(v["cv"] for v in table.values())
    chosen = table[chosen_lambda]
    if not chosen["cv"] <= best * (1.0 + RELM_RTOL):
        return f"relm chose lambda'={chosen_lambda!r} with CV {chosen['cv']!r} > minimum {best!r}"
    for lam, row in table.items():
        if lam == chosen_lambda:
            break
        if row["cv"] <= chosen["cv"] * (1.0 - RELM_RTOL):
            return f"an earlier lambda'={lam!r} scores lower ({row['cv']!r}) than the chosen one"
    gap = abs(test_rmse - chosen["test_rmse"]) / chosen["test_rmse"]
    if not gap <= RELM_RTOL:
        return f"relm test RMSE {test_rmse!r} differs from the recomputed {chosen['test_rmse']!r}"
    return None
