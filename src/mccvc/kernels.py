"""Gaussian kernel, correntropy with a movable center, and kernel-parameter search.

The loss family used across the package is built from the normalized Gaussian
kernel G_sigma(u) = exp(-u^2 / (2 sigma^2)) / (sqrt(2 pi) sigma).  Correntropy
of a residual sample is the mean kernel value of (e_i - c), so the pair
(sigma, c) controls both the width and the location of the low-cost region.
`optimize_params` picks that pair by minimizing the integrated squared distance
between the shifted kernel and the residual density, evaluated on a finite
grid (the closed-form self-energy term is 1 / (2 sqrt(pi) sigma)).  Every exact
kernel sum is one mean, `_kernel_mean`, and a row of one center, under the
mean or median rule or on an explicit grid of one center, needs no screen:
its exact value is that one mean.  On an explicit grid of more centers each
width is first screened by one kernel sum over points with masses, the
errors themselves or, when N is large against the lattice, their linear
binning, built from segment sums of the sorted errors in one pass, under
one proven error bound.  Each width is
screened at every 4th center and the last first, and at the centers between
two of them only where the objective's bounded curvature along the center
axis lets their interval reach below the cut: as |G''| <= p/sigma^2, p the
kernel's peak, the objective between two centers a < b is at least the
lesser of its values at a and b less p (b - a)^2/(4 sigma^2).  The least
screened point is rescored exactly first; a grid entry is at least the grid
minimum, so its value cuts the rest.  Only the grid points that the bounds
cannot rule out are rescored exactly, so the search returns bit for bit what
the full table would.  A fit's successive searches share
one `RowBounds`: each width carries an interval holding its least exact
objective, widened between searches by the kernel's bounded slope times
the move of the residuals and of a one-center search's center, and only the
widths whose interval can still reach the grid minimum are screened again,
or, with one center, computed exactly again.  So a fit's one-center searches
after its first compute few rows, often one.
The `RowBounds` also carries the fit's search plan, all that depends only on
the grid, N and the clamped widths: each width's drift coefficients and, for
several centers, the coarse and fine centers, each width's lattice size and
bin decision, its kernel scale, normalizer, self-energy, unbinned screen
bound and curvature reach.
`RowBounds.carry` states, once, what each search keeps of the plan and of the
intervals.  With the plan each stage runs once over all contending widths,
grouped by the points they sum over (the unbinned widths share the errors,
each binned width has its lattice): one coarse screen per group, broadcast
over blocks of its widths, one screen per group of every (width, center) pair
the reach admits, and one exact rescore of every kept point after the
best-first one.
Only calls are saved, not kernel sums: the plan's factors are the expressions
the screen took per call, so every screened objective and its bound are what
they were, the hoisted drift coefficients round within the drift's charge,
and every pick is what it was.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._checks import check_non_negative, check_width, finite_array, increasing_grid

log = logging.getLogger(__name__)

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI = math.sqrt(math.pi)

# The smallest admissible kernel width, as a fraction of the residual spread.
_SIGMA_FLOOR_FRAC = 1e-3
# The explicit-grid screen (see `optimize_params`): lattice spacing in widths
# (rho), and the reach in widths at which a difference is clipped, and beyond
# which an error leaves a binned row (L).
_BIN_FRAC = 0.1
_REACH = 10.0
# A width is binned when its unbinned row, C N kernel values, would cost more:
# binning costs, in such values (about 2 ns each), 2 per error, 2 per center
# and node and 24000 per row, so never with 2 centers or fewer.  Least squares
# on row times gave 0.93, 1.8 and 21000; the first and last are raised so that
# no width below is binned where its unbinned row was faster.  Unbinned over
# binned row time, the median of 5 interleaved sweeps of 15 rounds per width (2
# CPUs, numpy 2.4.6, 1 BLAS thread, centers spanning 10, 10% outliers), over
# widths 0.2, 1 and 5 (1 and 5 at N = 64B, 5 at 128B):
# N/B  8 centers 12        16        24        32        101
#   2  0.26-0.31 0.30-0.40 0.34-0.45 0.40-0.50 0.45-0.63 0.70-0.87
#   8  0.60-0.93 0.77-1.11 0.89-1.48 1.13-2.04 1.34-2.53 2.88-4.55
#  16  0.97-1.57 1.32-2.44 1.54-3.23 2.01-4.57 2.51-5.77 6.52-10.01
#  32  1.74-3.44 2.16-4.98 3.13-6.90 4.01-9.19 5.61-10.45 11.25-18.90
#  64  3.34-4.01 4.55-5.63 6.57-7.54 8.60-10.93 10.94-14.72 27.56-29.21
# 128  6.38      9.71      13.09     17.64     21.65     51.04
_BIN_COST_PER_ERROR = 2
_BIN_COST_PER_NODE = 2
_BIN_COST_PER_ROW = 24000
# The explicit-grid screen evaluates every 4th center of a width, and the
# last, before the centers between them (see `optimize_params`).  On the
# searches of 40 MCC-VC fits at N = 400 (cases 1-4, seeds 0-9, default grid)
# strides 2, 4 and 8 screened 53%, 33% and 32% of the (width, center) points
# of an all-centers screen; replayed in alternation (2 CPUs, numpy 2.4.6,
# 1 BLAS thread) strides 2 and 8 took x1.17 and x1.08 the time of stride 4,
# and at N = 20000 (cases 2 and 4, seeds 0-2) all three were within 3%.
_CENTER_STRIDE = 4
# Kernel values per block of a broadcast over widths (64 k, 512 kB).
_BLOCK_VALUES = 1 << 16
# Lattice nodes must be 2**20 ulps apart or more, so their rounding stays far
# below a spacing (and two nodes never coincide).
_RESOLUTION = 2.0**20 * sys.float_info.epsilon
# Largest kernel value, in peaks, of a difference beyond (L - 1) widths; the
# 1 absorbs the rounding of the window ends and of the clip.
_TAIL = math.exp(-0.5 * (_REACH - 1.0) ** 2)


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
        sigma = check_width(self.sigma)
        center = float(self.center)
        if not math.isfinite(center):
            raise ValueError(f"center must be finite, got {self.center!r}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class ParamGrid:
    """Admissible kernel widths and centers for the parameter search.

    Every width obeys the width rule of `KernelParams`.  `center_set` goes
    with the EXPLICIT_GRID rule only; the mean/median rules collapse the
    center search to a single data-driven value and take no `center_set`.
    """

    sigma_set: np.ndarray
    center_set: np.ndarray | None = None
    center_rule: CenterRule = CenterRule.EXPLICIT_GRID

    def __post_init__(self):
        sigmas = increasing_grid(self.sigma_set, "sigma_set")
        # The grid increases, so its first width is its smallest.
        check_width(sigmas[0], "sigma_set[0]")
        rule = CenterRule(self.center_rule)
        centers = self.center_set
        if rule is CenterRule.EXPLICIT_GRID:
            if centers is None:
                raise ValueError("center_set is required with the explicit-grid rule")
            centers = increasing_grid(centers, "center_set")
        elif centers is not None:
            raise ValueError(f"center_set goes only with the explicit-grid rule, not {rule.value}")
        object.__setattr__(self, "sigma_set", sigmas)
        object.__setattr__(self, "center_rule", rule)
        object.__setattr__(self, "center_set", centers)


def default_param_grid() -> ParamGrid:
    """Grid used by the linear-regression benchmark: widths 0.2..5.0 step 0.2,
    centers -5.0..5.0 step 0.1."""
    return ParamGrid(
        sigma_set=np.linspace(0.2, 5.0, 25),
        center_set=np.linspace(-5.0, 5.0, 101),
        center_rule=CenterRule.EXPLICIT_GRID,
    )


def _kernel_values(u: np.ndarray, sigma: float) -> np.ndarray:
    # Shared elementwise expression; every public path must go through this so
    # identical inputs produce bitwise identical kernel values.  A square or
    # exp argument past the largest float is inf, whose kernel value is the
    # exact 0, so that overflow is silenced.
    coef = 1.0 / (SQRT_2PI * sigma)
    with np.errstate(over="ignore"):
        return np.exp(-(u * u) / (2.0 * sigma * sigma)) * coef


def _kernel_mean(u: np.ndarray, sigma) -> np.ndarray:
    """Exact mean kernel value along the last axis of `u`, behind every exact sum:
    a C-contiguous table's rows reduce bit for bit like 1-D vectors."""
    return _kernel_values(u, sigma).mean(axis=-1)


def _objective(corr, sigma):
    # The closed-form self-energy 1/(2 sqrt(pi) sigma) minus twice the mean.
    return 1.0 / (2.0 * SQRT_PI * sigma) - 2.0 * corr


def gaussian_kernel(u, sigma: float):
    """Normalized Gaussian kernel exp(-u^2 / (2 sigma^2)) / (sqrt(2 pi) sigma).

    `u` may be a scalar or an ndarray; the peak value 1/(sqrt(2 pi) sigma) is
    attained at u = 0.  Far-tail evaluations may underflow to exactly 0.0,
    which is the intended weighting for extreme outliers.
    """
    sigma = check_width(sigma)
    arr = finite_array(u, "u")
    out = _kernel_values(arr, sigma)
    return float(out) if np.isscalar(u) or arr.ndim == 0 else out


def empirical_correntropy(errors, params: KernelParams) -> float:
    """Sample correntropy (1/N) sum_i G_sigma(e_i - c) of a residual vector."""
    e = finite_array(errors, "errors", 1)
    return float(_kernel_mean(e - params.center, params.sigma))


def gaussian_kde(sample, x, bandwidth: float):
    """Gaussian kernel density estimate of `sample`, evaluated at `x`.

    `x` may be a scalar or an array of any shape; the result has its shape.
    By construction every entry is the same sum as `empirical_correntropy`
    with center x and width `bandwidth`; the two code paths agree bit for bit.
    """
    s = finite_array(sample, "sample", 1)
    bandwidth = check_width(bandwidth, "bandwidth")
    xs = finite_array(x, "x")
    out = _kernel_mean(xs.reshape(-1, 1) - s, bandwidth).reshape(xs.shape)
    return float(out) if xs.ndim == 0 else out


def mcc_vc_cost(errors, params: KernelParams, weight_norm_sq: float, lambda_prime: float) -> float:
    """Cost J = -V(e; sigma, c) + lambda ||beta||^2 with lambda = lambda' / (2 N sigma^2),
    N = errors.size: -V has gradient -H'W(e - c) / (N sigma^2), so J is stationary
    exactly where the update (H'WH + lambda' I) beta = H'W(T - c) holds.

    It checks its inputs and then takes J by the one private expression that
    the fixed-point loop also uses on the kernel values it has already
    computed, so a fit's traced costs are this function's values bit for bit."""
    lambda_prime = check_non_negative(lambda_prime, "lambda_prime")
    weight_norm_sq = check_non_negative(weight_norm_sq, "weight_norm_sq")
    e = finite_array(errors, "errors", 1)
    return _cost(_kernel_values(e - params.center, params.sigma), params.sigma, weight_norm_sq, lambda_prime)


def _cost(kv: np.ndarray, sigma: float, weight_norm_sq: float, lambda_prime: float) -> float:
    # J from the kernel values kv = G_sigma(e - c) of the N residuals, unchecked.
    return -float(kv.mean()) + lambda_prime * weight_norm_sq / (2.0 * kv.size * sigma * sigma)


def param_objective(errors, sigma: float, center: float) -> float:
    """Squared-distance objective between the shifted kernel and the error density.

    Equals 1/(2 sqrt(pi) sigma) - 2 * (1/N) sum_i G_sigma(e_i - center); the
    first term is the closed-form self-energy integral of the Gaussian kernel.
    """
    params = KernelParams(sigma, center)
    return _objective(empirical_correntropy(errors, params), params.sigma)


def _exact_objectives(e: np.ndarray, centers: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """(P,) exact objectives at the pairs (centers[p], sigmas[p]) of two (P,)
    vectors, or of one center and P widths, in blocks of at most
    max(N, `_BLOCK_VALUES`) kernel values."""
    out = np.empty(sigmas.size)
    per_block = max(1, _BLOCK_VALUES // e.size)
    for start in range(0, sigmas.size, per_block):
        block = slice(start, start + per_block)
        s = sigmas[block, None]
        c = centers[block, None] if centers.size > 1 else centers[:, None]
        out[block] = _objective(_kernel_mean(c - e, s), s[:, 0])
    return out


def _node_counts(centers: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Lattice size B of each width: nodes 0.1 sigma apart over the centers' range
    widened by the reach on both sides, plus two."""
    span = centers[-1] - centers[0] + 2.0 * _REACH * sigmas
    return np.ceil(span / (_BIN_FRAC * sigmas)) + 2


def _lattice(sorted_e: np.ndarray, centers: np.ndarray, s, count: int):
    """Linear binning of the errors within L widths of the centers' range onto
    B = `count` nodes 0.1 `s` apart, from segment sums of the sorted errors:
    the nodes, their masses, the largest gap of a non-empty bin and the
    masses' rounding charge in eps (see `optimize_params`)."""
    h = _BIN_FRAC * s
    lo = centers[0] - _REACH * s
    first, stop = np.searchsorted(sorted_e, (lo, centers[-1] + _REACH * s))
    x = sorted_e[first:stop]
    nodes = lo + h * np.arange(count)
    # Bin j holds the errors in [n_j, n_j+1), and the last bin the rest; a
    # non-empty bin's segment ends where the next non-empty one starts.
    edges = np.searchsorted(x, nodes)
    edges[-1] = x.size
    counts = np.diff(edges)
    full = np.flatnonzero(counts)
    c, left, right = counts[full], nodes[full], nodes[full + 1]
    gap = right - left
    # The mass each bin sends to its right node, sum_i (x_i - n_j) / gap.
    upper = (np.add.reduceat(x, edges[full]) - c * left) / gap
    mass = np.zeros(count)
    mass[full] = c - upper
    mass[full + 1] += upper
    # max(|n_j|, |n_j+1|) is max(-n_j, n_j+1), as n_j < n_j+1.
    rounding = count + c @ (4.0 + c * np.maximum(-left, right) / gap) / sorted_e.size
    return nodes, mass, float(gap.max(initial=0.0)), float(rounding)


def _width_table(sigmas, n: int) -> np.ndarray:
    """Each width's row of a screen, stacked along a last axis of 4: the width
    sigma, its kernel scale -1/(2 sigma^2), its normalizer N sqrt(2 pi) sigma
    and its self-energy 1/(2 sqrt(pi) sigma)."""
    s = np.asarray(sigmas, dtype=float)
    return np.stack([s, -1.0 / (2.0 * s * s), n * SQRT_2PI * s, 1.0 / (2.0 * SQRT_PI * s)], axis=-1)


def _screened_objectives(sq: np.ndarray, mass: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Screened objectives at each row of the (C, P) table `sq` of squared
    center-minus-point differences over points of masses `mass`, for the
    widths of a `_width_table` (derived in `optimize_params`): a (k, 1, 4)
    column of widths gives (k, C) objectives, and a (C, 4) table, one width
    per row of `sq`, gives (C,)."""
    arg = sq * widths[..., 1, None]
    np.maximum(arg, -0.5 * _REACH * _REACH, out=arg)
    return widths[..., 3] - 2.0 * ((np.exp(arg, out=arg) @ mass) / widths[..., 2])


def _screen_bound(s, n: int, h: float, rounding: float):
    """How far a screened objective of width `s` can lie from the exact one,
    over N = `n` errors binned on nodes at most `h` apart whose masses charge
    `rounding` eps, or unbinned with h = 0 and no charge (see `optimize_params`)."""
    return 2.0 / (SQRT_2PI * s) * (
        h * h / (8.0 * s * s) + _TAIL + (2 * n + 48 + rounding) * sys.float_info.epsilon
    )


class _SearchPlan:
    """What a search needs that depends only on its grid, N and the clamped
    widths (see `optimize_params`): each width's drift coefficients and, for
    an explicit grid of several centers, the coarse and fine centers and the
    interval of each fine one, each width's lattice size, whether it is
    binned, its `_width_table` row, its unbinned screen bound and its
    curvature reach per coarse interval.  A one-center search's plan has no
    grid (`grid` is None), as its center comes with each call.
    `RowBounds.carry` decides when a search builds one."""

    def __init__(self, grid: ParamGrid | None, n: int, sigmas: np.ndarray):
        self.grid, self.n, self.sigmas = grid, n, sigmas
        eps = sys.float_info.epsilon
        # A row's drift is slope step + charge (see the drift bound).
        self.slope = 2.0 / (SQRT_2PI * math.sqrt(math.e)) / sigmas / sigmas
        self.charge = 2.0 * (n + 16) * eps / SQRT_2PI / sigmas
        if grid is None:
            return
        centers = self.centers = grid.center_set
        c, s = centers.size, sigmas[:, None]
        # Every 4th center and the last are screened first; each other center
        # lies inside one interval between two of them.
        self.coarse = np.append(np.arange(0, c - 1, _CENTER_STRIDE), c - 1)
        self.fine = np.flatnonzero(np.arange(c - 1) % _CENTER_STRIDE)
        self.interval = self.fine // _CENTER_STRIDE
        self.counts = _node_counts(centers, sigmas)
        self.binned = (
            (c * n >= _BIN_COST_PER_ERROR * n + _BIN_COST_PER_NODE * c * self.counts + _BIN_COST_PER_ROW)
            & (_BIN_FRAC * sigmas >= _RESOLUTION * (np.max(np.abs(centers)) + _REACH * sigmas))
        )
        self.ones = np.ones(n)
        self.widths = _width_table(sigmas, n)
        self.bound = _screen_bound(sigmas, n, 0.0, 0)
        # The least exact objective an interval between two coarse centers
        # can hold inside lies this far below their lesser screened objective
        # less its bound (see the center-axis bound); an infinite one refines
        # its interval, so that overflow is silenced.
        gap = np.diff(centers[self.coarse]) / s
        with np.errstate(over="ignore"):
            self.bend = (gap * gap / 4.0 + 2 * (n + 16) * eps) / (SQRT_2PI * s)


@dataclass
class RowBounds:
    """What one fit's searches carry from one call to the next (see
    `optimize_params`): the search plan of the last call, its residuals and
    its first center, and per width an interval [lo, hi] that holds the
    least exact objective of that width's row at those residuals and
    centers.  `carry` is the rule for what the next search keeps of them."""

    plan: _SearchPlan | None = None
    errors: np.ndarray | None = None
    center: float = 0.0
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def carry(self, e: np.ndarray, grid: ParamGrid, centers: np.ndarray, sigmas: np.ndarray):
        """Start a search of `grid` at the residuals `e`, its centers `centers`
        and the clamped widths `sigmas`: record them as the last call and
        return its search plan and each width's interval [lo, hi], which the
        search narrows in place.  This is the one rule for what a fit's
        searches carry:

        - a new state, another N, another number of widths or a change
          between one center and several builds a new plan, and every width
          starts at (-inf, inf);
        - a grid of several centers keeps the plan only for the same grid,
          and a one-center search (the mean and median rules, or an explicit
          grid of one center) keeps the last one-center plan whatever its
          grid, as its center comes with each call;
        - a kept plan keeps each width's carried interval, widened by its
          drift bound;
        - a moved clamp builds a new plan, widens the intervals of the widths
          that did not move and restarts those that did at (-inf, inf).

        The plan holds only what the grid, N and the clamped widths fix, each
        factor computed as a search without it would, so a carried plan
        changes no pick."""
        n, old, center = e.size, self.plan, float(centers[0])
        key = grid if centers.size > 1 else None
        if old is None or old.grid is not key or old.n != n or old.sigmas.size != sigmas.size:
            plan = _SearchPlan(key, n, sigmas)
            lo, hi = np.full(sigmas.size, -np.inf), np.full(sigmas.size, np.inf)
        else:
            moved = sigmas != old.sigmas
            plan = _SearchPlan(key, n, sigmas) if moved.any() else old
            # An overflowing drift is inf, which screens every width.
            with np.errstate(over="ignore"):
                # mean|e - e'| as np.mean takes it: one sum, one division by
                # N; the centers of one grid do not move, so |c - c'| is 0.
                step = float(np.abs(e - self.errors).sum()) / n + abs(center - self.center)
                drift = step * (1.0 + (n + 8) * sys.float_info.epsilon) * plan.slope + plan.charge
                lo, hi = self.lo - drift, self.hi + drift
            lo[moved], hi[moved] = -np.inf, np.inf
        self.plan, self.errors, self.center, self.lo, self.hi = plan, e.copy(), center, lo, hi
        return plan, lo, hi


def _grid_search(e: np.ndarray, grid: ParamGrid, sigmas: np.ndarray, state: RowBounds):
    """The certified search of an explicit grid of several centers (see
    `optimize_params`): the width and center indices of every point it
    rescores exactly, and their exact objectives."""
    n = e.size
    plan, lo, hi = state.carry(e, grid, grid.center_set, sigmas)
    centers, coarse, fine = plan.centers, plan.coarse, plan.fine
    cut = hi.min()
    # The k contending widths; every table below has one row per width.
    rows = np.flatnonzero(lo <= cut)
    widths, bound, is_binned = plan.widths[rows], plan.bound[rows], plan.binned[rows]
    # The point groups (points, masses, rows, pairs per refine block): the
    # unbinned rows share the errors with unit masses, in blocks whose
    # differences and kernel arguments hold `_BLOCK_VALUES` values, and each
    # binned row has its lattice, its bound and one block (a matvec's sums
    # depend on where its rows are split, so each keeps its own split).
    unbinned, binned = np.flatnonzero(~is_binned), np.flatnonzero(is_binned)
    groups = [(e, plan.ones, unbinned, max(1, _BLOCK_VALUES // (2 * n)))] if unbinned.size else []
    sorted_e = np.sort(e) if binned.size else None
    for k, r in enumerate(binned):
        i = rows[r]
        nodes, mass, h, rounding = _lattice(sorted_e, centers, sigmas[i], int(plan.counts[i]))
        bound[r] = _screen_bound(sigmas[i], n, h, rounding)
        groups.append((nodes, mass, binned[k:k + 1], fine.size))
    head = np.empty((rows.size, coarse.size))
    # A square or exp argument past the largest float is inf, which screens
    # as a clipped difference, so that overflow is silenced.
    with np.errstate(over="ignore"):
        # One pass per group at the coarse centers, over blocks of its rows.
        for x, mass, members, _ in groups:
            sq = (centers[coarse, None] - x) ** 2
            step = max(1, _BLOCK_VALUES // sq.size)
            for start in range(0, members.size, step):
                block = members[start:start + step]
                head[block] = _screened_objectives(sq, mass, widths[block, None])
        objective = np.full((rows.size, centers.size), np.inf)
        objective[:, coarse] = head
        cut = min(cut, (head + bound[:, None]).min())
        reach = (np.minimum(head[:, :-1], head[:, 1:]) - bound[:, None] - plan.bend[rows])[:, plan.interval]
        refine = reach <= cut
        # One pass per group over the (row, center) pairs the reach admits.
        for x, mass, members, step in groups:
            pr, pf = np.nonzero(refine[members])
            for start in range(0, pr.size, step):
                r, j = members[pr[start:start + step]], fine[pf[start:start + step]]
                sq = centers[j, None] - x
                objective[r, j] = _screened_objectives(np.square(sq, out=sq), mass, widths[r])
    least = objective.min(axis=1)
    unrefined = np.where(refine, np.inf, reach).min(axis=1, initial=np.inf)
    lo[rows] = np.minimum(least - bound, unrefined)
    hi[rows] = least + bound
    # Best first: the least screened point's exact objective bounds the grid
    # minimum before any other point is rescored.
    r0, j0 = divmod(int(np.argmin(objective)), centers.size)
    i0 = rows[r0]
    best = _exact_objectives(e, centers[j0, None], sigmas[i0, None])[0]
    hi[i0] = min(hi[i0], best)
    keep = objective - bound[:, None] <= min(cut, hi[rows].min())
    keep[r0, j0] = False
    kr, kj = np.nonzero(keep)
    if not kr.size:
        return np.array([i0]), np.array([j0]), np.array([best])
    values = _exact_objectives(e, centers[kj], sigmas[rows[kr]])
    return np.append(rows[kr], i0), np.append(kj, j0), np.append(values, best)


def optimize_params(
    errors, grid: ParamGrid, state: RowBounds | None = None
) -> tuple[KernelParams, float]:
    """Minimize `param_objective` over the effective (sigma, center) grid.

    The effective search space is sigma_set x center_set for the explicit-grid
    rule, and sigma_set x {mean-or-median of errors} otherwise.  Widths below
    1e-3 of the residual spread are clamped up so a single-sample spike cannot
    dominate the downstream weighting matrix; exact ties go to the smaller
    width, then to the center closer to the sample median, then to the
    smaller center.  Returns the winning pair and its objective value.  Errors
    whose spread overflows (their squared deviations from their mean sum past
    the largest float) raise ValueError.

    The result is bit for bit that of the full (S, C) table of objectives,
    with or without `state`, one `RowBounds` that a fit passes to each of its
    searches so that they share what bounds the last one proved and one
    search plan (see the module docstring and `RowBounds`).
    Every exact objective is a row of `_kernel_mean`, as in `param_objective`.
    A one-center search (the mean and median rules, or an explicit grid of
    one center) needs no screen: it computes exactly, in one broadcast over
    blocks of widths, the rows that its carried intervals leave in
    contention, every row without a state.  Each row of that broadcast is
    reduced as a 1-D vector, so a row is the same float in any subset of
    widths.  An explicit grid of more centers is screened, and only the
    points the screen cannot rule out are computed exactly:

    - Screened rows.  A width's row is the kernel sum (1/N) sum_k m_k
      G(c - x_k) over points x_k with masses m_k, from (c - x_k)^2 times
      -1/(2 sigma^2), clipped at -L^2/2 (L = 10: a difference beyond L widths
      counts as at L widths, so exp stays off its slow path below about
      -708), then exp and a matvec with the masses.  An unbinned row's points
      are the errors with unit masses, and the unbinned widths share one
      table of the coarse centers' squared differences, broadcast over
      blocks of widths.  A binned row's points are B nodes n_j 0.1 sigma
      apart, onto which the errors within L widths of the centers are
      linearly binned (Silverman 1982, AS 176; Wand 1994) from segment sums
      of the sorted errors: one searchsorted of the nodes puts in bin j the
      c_j errors x_i with n_j <= x_i < n_j+1, one add.reduceat gives each
      non-empty bin's sum S_j, and with g_j = n_j+1 - n_j the bin sends
      T_j = (S_j - c_j n_j)/g_j = sum_i (x_i - n_j)/g_j to n_j+1 and keeps
      c_j - T_j at n_j, so node k's mass is (c_k - T_k) + T_k-1: each x_i is
      split with weight (x_i - n_j)/g_j in [0, 1).  That is O(B log N) and
      one pass over the window; its squared center-minus-node table is
      built for the centers the row evaluates only.  A width is binned when
      that was measured faster (`_BIN_COST_*`) and its nodes are 2**20 ulps
      apart.
    - Bound.  With p = 1/(sqrt(2 pi) sigma) the kernel's peak, a screened
      objective is within 2 p [h^2/(8 sigma^2) + exp(-(L-1)^2/2) +
      (2N + 48 + R) eps] of the exact one; the 2 is the objective's -2.  For
      a binned row h is the largest gap g_j of a non-empty bin and
      R = B + (1/N) sum_j c_j (4 + c_j M_j/g_j), M_j = max(|n_j|, |n_j+1|),
      summed over the non-empty bins; for an unbinned row h = R = 0.
      Interpolation: h^2/8 max|G''|, with max|G''| = p/sigma^2.  Tail: an
      error outside the window, or a clipped difference, has its exact and
      its screened value in [0, p exp(-L^2/2)] up to rounding; charging it
      at L - 1 widths absorbs that rounding and that of the window ends.
      Rounding (u = eps/2): each kernel value is within 16u p, since an exp
      argument a off by a relative d <= 6u moves exp(a) by at most
      d |a| exp(a) <= d/e, and a sum of m terms in any order is within
      (m - 1)u of the sum of their absolute values (Higham 2002, sec. 4.2).
      So the exact mean is within (N + 16)u p, an unbinned screened one
      within (N + 24)u p (an N-term matvec, then the one division by
      N sqrt(2 pi) sigma), and a binned one within (B + 24)u p (the two
      additions of each node's mass, 3u in all, and a B-term matvec) plus
      what the errors of the T_j add; that sum is charged twice over.
      Segment sums: the computed S_j is within (c_j - 1)u c_j M_j, as
      |x_i| <= M_j, and c_j n_j within u c_j M_j; the subtraction, the
      division and the computed gap add a relative 3u to T_j in [0, c_j).  So
      T_j is within c_j u (3 + c_j M_j/g_j) to first order.  T_j's error
      moves mass between n_j and n_j+1, whose kernel values lie in [0, p],
      so it moves the mean by at most p |dT_j|/N; charging
      c_j (4 + c_j M_j/g_j) eps per bin covers the higher-order terms, and
      the slack covers the gaps' own rounding in h.
    - Center axis.  Each screened width is first screened at every 4th
      center and the last (`_CENTER_STRIDE`).  The objective's second
      derivative in c is -2 (1/N) sum_i G''(c - e_i), and G''(u) =
      p (u^2/sigma^2 - 1) exp(-u^2/(2 sigma^2))/sigma^2 lies in
      [-p/sigma^2, 2 exp(-3/2) p/sigma^2], so |f''| <= 2 p/sigma^2.  Between
      two grid centers a < b the true objective is then at least its chord
      less 2p/sigma^2 (c - a)(b - c)/2, so at least min(f(a), f(b)) -
      p (b - a)^2/(4 sigma^2).  The computed exact objectives are within
      2(N + 16)u p of the true ones (see Rounding), and the screened ones
      within their bound of the computed ones, so no computed exact
      objective of a center strictly between a and b is below min(f^(a),
      f^(b)) - bound - p [(b - a)^2/(4 sigma^2) + 2(N + 16) eps], f^ the
      screened objectives.  The centers inside an interval are screened
      only where that reaches the cut (U, or the least screened objective
      plus its bound); the rounding of the reach itself, a few u of terms
      of the order of p where it decides, falls in the bound's slack.
    - Carried intervals.  `state` (one `RowBounds` per fit, or none) holds,
      per width, an interval [lo, hi] around its row's least exact objective
      at the last call's residuals e' and center c'.  Each interval is
      widened by the width's drift bound to (e, c); U is the least hi, and
      only the widths with lo <= U are screened, or, with one center,
      computed exactly.  Their intervals are refreshed: on a grid of several
      centers lo to the least of the screened objectives minus their bound
      and the reaches of the intervals left unscreened, hi to the least
      screened objective plus its bound, or the best-first exact objective
      where that is lower; with one center lo and hi to the exact objective.
      A one-center width left out has an exact objective of at least
      lo > U, and U is at least the least computed objective (the width of
      the least hi is computed, and its value lies in its interval), so it
      is above the minimum and in no tie.  `RowBounds.carry` states when an
      interval is widened and when it restarts at (-inf, inf); a search
      without a state screens, or computes, every width.
    - Drift bound.  The objective depends on the errors only through
      u_i = e_i - c: its data part is -2 (1/N) sum_i G(u_i), and
      |G'(u)| = p |u|/sigma^2 exp(-u^2/(2 sigma^2)) is at most
      p/(sigma sqrt(e)), at |u| = sigma.  From (e', c') to (e, c) each u_i
      moves by at most |e_i - e'_i| + |c - c'|, so an exact objective moves
      by at most 2 p (mean|e - e'| + |c - c'|)/(sigma sqrt(e)), and so does a
      row's least one.  The centers of a grid of several centers do not
      move, so there |c - c'| = 0; a one-center search's c is its mean,
      median or one grid center.  The intervals hold computed exact
      objectives, each within 2(N + 16)u p of its true value (above), so
      the bound adds that once per residual vector, 2 p (N + 16) eps in all.
      The drift is the step mean|e - e'| + |c - c'| times the plan's slope
      2/(sqrt(2 pi e) sigma^2) plus its charge 2 (N + 16) eps/(sqrt(2 pi)
      sigma), and the computed step is raised by (N + 8) eps relative.  Its
      own rounding takes (N + 2)u of that: the mean's (a difference, an
      N-term sum and a division) (N + 1)u, the center term's (one
      subtraction) u of that term, and the addition u; the slope's (its
      constants, two divisions), the product's and the sum's, about 9u,
      fall within the (N + 14)u left.  The charge rounds by a few u
      relative, of second order in u against the first-order charge it
      carries.  A chain of widenings needs the rounding charge of its two
      ends only, so each further widening's charge absorbs the rounding of
      lo - drift and hi + drift; the first one's falls within the slack of
      the screened bound or, with one center, of the exact objectives'
      2(N + 16)u p (their kernel values take about 5u p of the 16u p
      charged, and |lo| is at most 2p).  The step is computed with overflow
      ignored: an infinite drift widens every interval to (-inf, inf).
    - Search plan.  `state` also carries the plan (see `RowBounds.carry`).
      The screen's kernel scale -1/(2 sigma^2), normalizer N sqrt(2 pi) sigma
      and self-energy 1/(2 sqrt(pi) sigma), the unbinned bound and the
      reach's bend are the plan's, each computed by the expression above
      from the same operands, so they are the same floats a call would
      compute.  Each stage runs once over the k contending widths, on (k, C)
      tables, one pass per point group: the unbinned rows form one group
      over the errors with unit masses, and each binned row its own over its
      lattice.  The coarse stage screens each group at the coarse centers,
      broadcast over blocks of its rows; the refine stage screens each
      group's (width, center) pairs that the reach admits, the unbinned ones
      in blocks and a binned row's in one; then one exact rescore of every
      kept point.  The screen and the bounds see the same
      values either way, and a screen of a point is within its bound in any
      summation order, so every pick is the same.
    - Certified rescore, best first.  The point with the least screened
      objective is computed exactly first; its value is a grid entry, so it
      is at least the grid minimum, and it lowers the cut (the least of U
      and of the screened objectives plus their bound) and its width's hi.
      A point whose screened objective minus its bound exceeds the cut is
      above the grid minimum, so it is dropped; so is every point of an
      interval whose reach exceeds the cut and of a width whose lo exceeds
      U.  The kept points are recomputed exactly (the best-first one is not
      computed twice), so the tie rule sees the full table's minimum and
      tied set.
    """
    e = finite_array(errors, "errors", 1)
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(np.std(e))
    if not math.isfinite(spread):
        raise ValueError("error spread overflows: the squared deviations from the mean "
                         f"must sum to at most the largest float, {sys.float_info.max:.3g}")

    median = None
    if grid.center_rule is CenterRule.EXPLICIT_GRID:
        centers = grid.center_set
    elif grid.center_rule is CenterRule.MEAN_OF_ERRORS:
        centers = np.array([np.mean(e)])
    else:
        median = float(np.median(e))
        centers = np.array([median])

    floor = _SIGMA_FLOOR_FRAC * (spread if spread > 0.0 else 1.0)
    sigmas = grid.sigma_set
    # The widths increase, so none is clamped unless the first one is.
    if sigmas[0] < floor:
        log.info(
            "clamped %d kernel width(s) below %.3g to the admissible floor",
            int(np.count_nonzero(sigmas < floor)), floor,
        )
        sigmas = np.maximum(sigmas, floor)

    state = RowBounds() if state is None else state
    if centers.size == 1:
        # A one-center row needs no screen: its exact value is one mean.
        lo, hi = state.carry(e, grid, centers, sigmas)[1:]
        rows = np.flatnonzero(lo <= hi.min())
        values = _exact_objectives(e, centers, sigmas[rows])
        lo[rows] = hi[rows] = values
        cols = np.zeros(rows.size, dtype=np.intp)
    else:
        rows, cols, values = _grid_search(e, grid, sigmas, state)

    tied = np.flatnonzero(values == values.min())
    pick = tied[0]
    if tied.size > 1:
        if median is None:
            median = float(np.median(e))
        pick = min(tied, key=lambda k: (sigmas[rows[k]], abs(centers[cols[k]] - median), centers[cols[k]]))

    # An exact objective is bit for bit param_objective at its pair.
    params = KernelParams(sigma=float(sigmas[rows[pick]]), center=float(centers[cols[pick]]))
    return params, float(values[pick])
