"""Kernel, correntropy, and parameter-search unit tests.

Expected constants marked "oracle" were computed independently with mpmath at
30 significant digits and frozen here.
"""

import logging
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mccvc import kernels, solvers
from mccvc._checks import finite_array
from mccvc.bench import synth_case_design
from mccvc.features import elm_features, init_elm
from mccvc.kernels import (
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
from mccvc.solvers import FitConfig, fit_mcc, fit_mcc_vc, ridge_solve

# oracle: 1/sqrt(2 pi) and friends, mpmath dps=30
G_0_1 = 0.39894228040143268
G_0_2 = 0.19947114020071634
G_1_1 = 0.24197072451914335
CORR_SYM3 = 0.29429457647990646      # mean of G at [-1, 0, 1], sigma 1, c 0
OBJ_AT_CENTER = -0.51578976902898721  # 1/(2 sqrt(pi)) - 2/sqrt(2 pi)
OBJ_SYM3 = -0.30649436118593477
# -V at [-1, 0, 1], sigma 2, c 0, plus lambda' ||beta||^2 / (2 N sigma^2), 0.1 * 4 / 24
COST_SYM3_SIGMA2 = -0.16717882232167193891


class TestGaussianKernel:
    def test_peak_value(self):
        assert gaussian_kernel(0.0, 1.0) == pytest.approx(G_0_1, rel=1e-14)

    def test_peak_scales_inversely_with_width(self):
        assert gaussian_kernel(0.0, 2.0) == pytest.approx(G_0_2, rel=1e-14)

    def test_off_peak_oracle(self):
        assert gaussian_kernel(1.0, 1.0) == pytest.approx(G_1_1, rel=1e-14)

    def test_vectorized_matches_scalar(self):
        u = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        out = gaussian_kernel(u, 1.5)
        for ui, oi in zip(u, out):
            assert gaussian_kernel(float(ui), 1.5) == oi

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError):
            gaussian_kernel(0.0, sigma)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_argument(self, u):
        with pytest.raises(ValueError):
            gaussian_kernel(u, 1.0)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for u in rng.normal(0, 10, 100):
            assert gaussian_kernel(u, 2.3) == gaussian_kernel(-u, 2.3)

    def test_scaling_identity(self):
        rng = np.random.default_rng(1)
        for u in rng.normal(0, 5, 50):
            for sigma in (0.1, 1.0, 7.5):
                lhs = gaussian_kernel(u, sigma)
                rhs = gaussian_kernel(u / sigma, 1.0) / sigma
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_peak_dominance(self):
        rng = np.random.default_rng(2)
        for sigma in (0.2, 1.0, 4.0):
            peak = gaussian_kernel(0.0, sigma)
            for u in rng.normal(0, 3, 50):
                if u != 0.0:
                    assert gaussian_kernel(u, sigma) < peak

    def test_far_tail_underflows_to_zero(self):
        assert gaussian_kernel(1e6, 1.0) == 0.0

    def test_difference_whose_square_overflows_weighs_exactly_zero(self):
        # The suite turns a RuntimeWarning into a failure, so these are also
        # checks that no overflow warning is raised.
        assert gaussian_kernel(1e200, 1.0) == 0.0
        assert gaussian_kernel(1e150, 1e-10) == 0.0  # a finite square, over 2 sigma^2
        assert empirical_correntropy([1e308, -1e308], KernelParams(1.0, 0.0)) == 0.0
        assert gaussian_kde([0.0], 1e300, 1.0) == 0.0
        cost = mcc_vc_cost([1e308, 0.0], KernelParams(1.0, 0.0), 0.0, 0.0)
        assert cost == pytest.approx(-G_0_1 / 2)


class TestEmpiricalCorrentropy:
    def test_all_residuals_at_center(self):
        for sigma in (0.3, 1.0, 5.0):
            params = KernelParams(sigma, 7.0)
            value = empirical_correntropy([7.0, 7.0, 7.0], params)
            assert value == 1.0 / (math.sqrt(2.0 * math.pi) * sigma)

    def test_single_sample_peak(self):
        assert empirical_correntropy([0.0], KernelParams(1.0, 0.0)) == pytest.approx(
            G_0_1, rel=1e-14
        )

    def test_three_point_oracle(self):
        value = empirical_correntropy([-1.0, 0.0, 1.0], KernelParams(1.0, 0.0))
        assert value == pytest.approx(CORR_SYM3, rel=1e-14)

    def test_zero_center_reduces_to_classical_form(self):
        rng = np.random.default_rng(3)
        e = rng.normal(1.0, 2.0, 200)
        classical = float(np.mean(gaussian_kernel(e, 1.3)))
        assert empirical_correntropy(e, KernelParams(1.3, 0.0)) == classical

    def test_kde_identity_is_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            e = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4), rng.integers(1, 80))
            sigma = float(rng.uniform(0.05, 8.0))
            c = float(rng.uniform(-10, 10))
            assert empirical_correntropy(e, KernelParams(sigma, c)) == gaussian_kde(
                e, c, sigma
            )

    def test_kde_on_a_2d_grid_matches_scalar_calls(self):
        rng = np.random.default_rng(12)
        e = rng.normal(0.5, 2.0, 70)
        x = np.linspace(-3.0, 4.0, 6).reshape(2, 3)
        out = gaussian_kde(e, x, 0.7)
        assert out.shape == (2, 3)
        for idx in np.ndindex(x.shape):
            assert out[idx] == gaussian_kde(e, float(x[idx]), 0.7)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        e = rng.normal(2.0, 1.5, 150)
        for delta in (-11.0, 0.25, 3.0):
            before = empirical_correntropy(e, KernelParams(0.8, 1.1))
            after = empirical_correntropy(e + delta, KernelParams(0.8, 1.1 + delta))
            assert after == pytest.approx(before, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_correntropy([], KernelParams(1.0, 0.0))

    @pytest.mark.parametrize("errors, message", [
        ([[0.0, 1.0]], "non-empty"),
        ([0.0, math.nan], "non-finite"),
        ([math.inf, 1.0], "non-finite"),
    ])
    def test_rejects_bad_error_vector(self, errors, message):
        with pytest.raises(ValueError, match=message):
            empirical_correntropy(errors, KernelParams(1.0, 0.0))

    @pytest.mark.parametrize("x", [math.nan, [0.0, math.inf]])
    def test_kde_rejects_non_finite_points(self, x):
        with pytest.raises(ValueError, match="x contains non-finite entries"):
            gaussian_kde([0.0, 1.0], x, 1.0)


class TestCost:
    def test_minimum_with_zero_regularization(self):
        for sigma in (0.5, 2.0):
            value = mcc_vc_cost([3.0, 3.0], KernelParams(sigma, 3.0), 0.0, 0.0)
            assert value == -1.0 / (math.sqrt(2.0 * math.pi) * sigma)

    def test_single_sample(self):
        value = mcc_vc_cost([0.0], KernelParams(1.0, 0.0), 0.0, 0.0)
        assert value == pytest.approx(-G_0_1, rel=1e-14)

    def test_with_penalty_oracle(self):
        value = mcc_vc_cost([-1.0, 0.0, 1.0], KernelParams(2.0, 0.0), 4.0, 0.1)
        assert value == pytest.approx(COST_SYM3_SIGMA2, rel=1e-12)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            mcc_vc_cost([1.0], KernelParams(1.0, 0.0), 1.0, -0.1)

    @pytest.mark.parametrize("weight_norm_sq, lambda_prime, name", [
        (1.0, math.nan, "lambda_prime"),
        (1.0, math.inf, "lambda_prime"),
        (math.inf, 0.0, "weight_norm_sq"),
        (math.nan, 0.1, "weight_norm_sq"),
        (-1.0, 0.1, "weight_norm_sq"),
    ])
    def test_rejects_non_finite_regularizer(self, weight_norm_sq, lambda_prime, name):
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative finite real"):
            mcc_vc_cost([0.5, -1.0, 2.0], KernelParams(1.0, 0.0), weight_norm_sq, lambda_prime)


class TestParamObjective:
    def test_all_at_center_oracle(self):
        value = param_objective([2.0, 2.0, 2.0], 1.0, 2.0)
        assert value == pytest.approx(OBJ_AT_CENTER, rel=1e-14)

    def test_three_point_oracle(self):
        value = param_objective([-1.0, 0.0, 1.0], 1.0, 0.0)
        assert value == pytest.approx(OBJ_SYM3, rel=1e-14)

    def test_large_width_vanishes_from_below(self):
        e = np.array([-1.0, 0.5, 2.0])
        for sigma in (1e3, 1e6):
            value = param_objective(e, sigma, 0.0)
            assert -1.0 / sigma < value < 0.0

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_rejects_a_center_that_is_not_finite(self, center):
        # (sigma, c) is checked as a KernelParams, as everywhere else.
        with pytest.raises(ValueError, match="center must be finite"):
            param_objective([0.0, 1.0], 1.0, center)


class TestOptimizeParams:
    def test_exact_center_match_dominates(self):
        grid = ParamGrid(np.array([1.0]), np.array([0.0, 3.0]))
        params, _ = optimize_params(np.full(6, 3.0), grid)
        assert (params.sigma, params.center) == (1.0, 3.0)

    def test_narrow_width_matches_peaked_sample(self):
        rng = np.random.default_rng(6)
        e = rng.normal(0.0, 0.05, 300)
        grid = ParamGrid(np.array([0.5, 5.0]), np.array([0.0]))
        params, value = optimize_params(e, grid)
        assert params.sigma == 0.5
        # brute-force comparison of the two candidates
        assert param_objective(e, 0.5, 0.0) < param_objective(e, 5.0, 0.0)
        assert value == param_objective(e, 0.5, 0.0)

    def test_singleton_grid_returned_verbatim(self):
        rng = np.random.default_rng(7)
        e = rng.normal(1.0, 2.0, 50)
        grid = ParamGrid(np.array([0.7]), np.array([-0.4]))
        params, value = optimize_params(e, grid)
        assert (params.sigma, params.center) == (0.7, -0.4)
        assert value == param_objective(e, 0.7, -0.4)

    def test_returned_value_equals_scalar_objective(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            e = rng.normal(rng.uniform(-3, 3), rng.uniform(0.2, 3), 120)
            params, value = optimize_params(e, default_param_grid())
            assert value == param_objective(e, params.sigma, params.center)

    def test_grid_optimality_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            e = rng.normal(rng.uniform(-2, 2), rng.uniform(0.3, 2), 60)
            sigmas = np.sort(rng.uniform(0.1, 5.0, 4))
            centers = np.sort(rng.uniform(-4, 4, 5))
            if np.any(np.diff(sigmas) == 0) or np.any(np.diff(centers) == 0):
                continue
            grid = ParamGrid(sigmas, centers)
            _, best = optimize_params(e, grid)
            for s in sigmas:
                for c in centers:
                    assert best <= param_objective(e, s, c)

    def test_tie_prefers_center_closer_to_median(self):
        # symmetric sample: objectives at +/-1 coincide; median 0 breaks the
        # tie toward the smaller distance, then the smaller center.
        e = np.array([-1.0, 1.0])
        grid = ParamGrid(np.array([1.0]), np.array([-1.0, 1.0]))
        params, _ = optimize_params(e, grid)
        assert params.center == -1.0

    def test_width_floor_clamps_degenerate_grids(self, caplog):
        e = np.random.default_rng(10).normal(0.0, 1.0, 100)
        grid = ParamGrid(np.array([1e-9, 1e-8]), np.array([0.0]))
        with caplog.at_level("INFO", logger="mccvc.kernels"):
            params, _ = optimize_params(e, grid)
        floor = 1e-3 * float(np.std(e))
        assert params.sigma == pytest.approx(floor, rel=1e-12)
        assert any("clamped" in r.message for r in caplog.records)

    def test_width_floor_with_constant_errors(self):
        grid = ParamGrid(np.array([1e-9]), np.array([2.0]))
        params, _ = optimize_params(np.full(10, 2.0), grid)
        assert params.sigma == pytest.approx(1e-3, rel=1e-12)

    def test_shift_equivariance_of_search(self):
        rng = np.random.default_rng(11)
        e = rng.normal(1.0, 1.2, 200)
        delta = 2.5
        grid = ParamGrid(np.array([0.5, 1.0, 2.0]), np.linspace(-3, 3, 25))
        shifted = ParamGrid(np.array([0.5, 1.0, 2.0]), np.linspace(-3, 3, 25) + delta)
        p0, _ = optimize_params(e, grid)
        p1, _ = optimize_params(e + delta, shifted)
        assert p1.sigma == p0.sigma
        assert p1.center - delta == pytest.approx(p0.center, abs=1e-9)


class TestTinyWidths:
    # 1e-300 squares to 0.0, where the kernel would evaluate 0/0 to NaN.
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: gaussian_kernel(0.0, s),
            lambda s: param_objective([0.0, 1.0], s, 0.0),
            lambda s: gaussian_kde([0.0, 1.0], 0.0, s),
            lambda s: KernelParams(s, 0.0),
            lambda s: fit_mcc(np.eye(2), [0.0, 1.0], s),
        ],
        ids=["gaussian_kernel", "param_objective", "gaussian_kde", "KernelParams", "fit_mcc"],
    )
    def test_width_whose_square_underflows_rejected(self, call):
        with pytest.raises(ValueError, match="underflows"):
            call(1e-300)

    def test_grid_of_such_a_width_fails_when_built(self):
        # The search clamps a width up to 1e-3 of the residual spread, here
        # 1.1e-155, whose square underflows; the grid is rejected before that.
        e = np.array([0.0, 1.0, 2.0, 3.0]) * 1e-152
        with pytest.raises(ValueError, match=r"^sigma_set\[0\] 1e-200 is too small"):
            optimize_params(e, ParamGrid([1e-200], None, CenterRule.MEDIAN_OF_ERRORS))

    def test_smallest_admissible_width_is_finite(self):
        sigma = 2.0 * math.sqrt(sys.float_info.min)
        assert math.isfinite(gaussian_kernel(0.0, sigma))
        assert gaussian_kernel(1.0, sigma) == 0.0
        assert math.isfinite(param_objective([0.0, 1.0], sigma, 0.0))


class TestTypes:
    def test_param_grid_stores_read_only_copies_of_the_callers_arrays(self):
        sigmas, centers = np.linspace(0.1, 1.0, 4), np.array([-1.0, 0.0, 1.0])
        grid = ParamGrid(sigmas, centers)
        assert sigmas.flags.writeable and centers.flags.writeable
        assert not grid.sigma_set.flags.writeable and not grid.center_set.flags.writeable
        sigmas[0] = centers[0] = 9.0
        assert grid.sigma_set[0] == 0.1 and grid.center_set[0] == -1.0

    def test_kernel_params_validation(self):
        with pytest.raises(ValueError):
            KernelParams(0.0, 0.0)
        with pytest.raises(ValueError):
            KernelParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            KernelParams(1.0, math.inf)

    def test_param_grid_validation(self):
        with pytest.raises(ValueError):
            ParamGrid(np.array([]), np.array([0.0]))
        with pytest.raises(ValueError):
            ParamGrid(np.array([1.0, 1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            ParamGrid(np.array([-1.0, 1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            ParamGrid(np.array([1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ParamGrid(np.array([1.0]), None, CenterRule.EXPLICIT_GRID)
        with pytest.raises(ValueError, match="underflows"):
            ParamGrid(np.array([1e-200, 1.0]), np.array([0.0]))
        for rule in (CenterRule.MEAN_OF_ERRORS, CenterRule.MEDIAN_OF_ERRORS):
            with pytest.raises(ValueError, match="center_set goes only with the explicit-grid"):
                ParamGrid(np.array([1.0]), np.array([0.0]), rule)

    @pytest.mark.parametrize("centers, message", [
        ([], "non-empty"),
        ([[0.0, 1.0]], "non-empty"),
        ([0.0, math.nan], "finite"),
        ([0.0, math.inf], "finite"),
    ])
    def test_param_grid_rejects_bad_center_set(self, centers, message):
        with pytest.raises(ValueError, match=f"center_set.*{message}"):
            ParamGrid(np.array([1.0]), centers)

    def test_param_grid_rule_without_centers(self):
        grid = ParamGrid(np.array([1.0]), None, CenterRule.MEDIAN_OF_ERRORS)
        assert grid.center_set is None

    def test_default_grid_shape(self):
        grid = default_param_grid()
        assert grid.sigma_set.size == 25
        assert grid.center_set.size == 101
        assert grid.sigma_set[0] == pytest.approx(0.2)
        assert grid.sigma_set[-1] == pytest.approx(5.0)
        assert grid.center_set[0] == -5.0
        assert grid.center_set[-1] == 5.0


def _reference_optimize_params(errors, grid):
    """The full-table search that `optimize_params` must reproduce bit for bit:
    every (sigma, center) objective from one (C, N) difference table."""
    e = finite_array(errors, "errors", 1)
    if grid.center_rule is CenterRule.EXPLICIT_GRID:
        centers = np.asarray(grid.center_set, dtype=float)
    elif grid.center_rule is CenterRule.MEAN_OF_ERRORS:
        centers = np.array([np.mean(e)])
    else:
        centers = np.array([np.median(e)])
    spread = float(np.std(e))
    floor = kernels._SIGMA_FLOOR_FRAC * (spread if spread > 0.0 else 1.0)
    sigmas = np.maximum(np.asarray(grid.sigma_set, dtype=float), floor)

    diff = centers[:, None] - e[None, :]
    objective = np.empty((sigmas.size, centers.size))
    for i, s in enumerate(sigmas):
        corr = kernels._kernel_values(diff, s).mean(axis=1)
        objective[i, :] = 1.0 / (2.0 * kernels.SQRT_PI * s) - 2.0 * corr

    best = objective.min()
    tied = objective == best
    median = float(np.median(e))
    rows, cols = np.nonzero(tied)
    keys = [(sigmas[i], abs(centers[j] - median), centers[j]) for i, j in zip(rows, cols)]
    pick = min(range(len(keys)), key=keys.__getitem__)
    params = KernelParams(sigma=float(sigmas[rows[pick]]), center=float(centers[cols[pick]]))
    return params, param_objective(e, params.sigma, params.center)


@pytest.fixture(scope="module")
def large_residuals():
    """Ridge residuals of the N=20000 designs of contamination cases 2 and 4."""
    out = []
    for case in (2, 4):
        H, t = synth_case_design(case, 20000, 17)
        out.append(t - H @ ridge_solve(H, t, 1e-4))
    return out


def _assert_same_search(errors, grid):
    assert optimize_params(errors, grid) == _reference_optimize_params(errors, grid)


class TestScreenedSearch:
    """The screened search returns the full table's (params, value) bit for bit."""

    def test_large_synthetic_residuals(self, large_residuals):
        for e in large_residuals:
            _assert_same_search(e, default_param_grid())

    def test_random_grids_with_uneven_centers(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            e = rng.normal(rng.uniform(-2, 2), rng.uniform(0.3, 2), 4000)
            far = rng.random(e.size) < 0.1
            e[far] = rng.normal(0.0, 30.0, far.sum())
            sigmas = np.unique(rng.uniform(0.2, 3.0, 6))
            centers = np.unique(rng.uniform(-4, 4, 24))
            _assert_same_search(e, ParamGrid(sigmas, centers))

    @pytest.mark.parametrize("errors", [[0.3], [0.3, -1.7]])
    def test_one_and_two_errors(self, errors):
        _assert_same_search(np.array(errors), default_param_grid())
        _assert_same_search(np.array(errors), ParamGrid(np.array([0.5, 2.0]), np.array([-1.0, 0.5])))

    def test_constant_errors(self):
        _assert_same_search(np.full(4000, 1.25), default_param_grid())

    def test_clamped_widths_log_once(self, caplog):
        e = np.random.default_rng(32).normal(0.0, 1.0, 4000)
        grid = ParamGrid(np.array([1e-9, 1e-8, 0.5, 1.0, 2.0]), np.linspace(-3, 3, 41))
        with caplog.at_level(logging.INFO, logger="mccvc.kernels"):
            _assert_same_search(e, grid)
            caplog.clear()
            optimize_params(e, grid)
        assert sum("clamped" in r.message for r in caplog.records) == 1

    def test_small_synthetic_residuals(self, monkeypatch):
        # At N=400 every default-grid width is an unbinned row: a lattice has
        # B >= 2L/0.1 + 2 = 202 nodes, so its 2 C B center-node cost alone
        # exceeds the C N of an unbinned row below N = 404, whatever C is.
        monkeypatch.setattr(kernels, "_lattice", None)
        for case in (1, 2, 3, 4):
            H, t = synth_case_design(case, 400, 18)
            _assert_same_search(t - H @ ridge_solve(H, t, 1e-4), default_param_grid())

    def test_winner_with_kernel_values_in_the_subnormal_band(self):
        # Outliers about 38 widths from the winning pair: their exact kernel
        # values are subnormal, and screened rows put them at the reach.
        rng = np.random.default_rng(37)
        e = np.concatenate([rng.normal(0.0, 0.3, 380), 15.2 + rng.uniform(-0.08, 0.08, 20)])
        _assert_same_search(e, default_param_grid())
        params, _ = optimize_params(e, default_param_grid())
        arg = -((e - params.center) ** 2) / (2.0 * params.sigma**2)
        assert np.count_nonzero((arg > -746.0) & (arg < -708.0)) == 20

    def test_errors_beyond_the_reach_of_every_center(self):
        for n in (4000, 400):
            e = np.random.default_rng(33).normal(100.0, 1.0, n)
            _assert_same_search(e, default_param_grid())

    def test_centers_whose_squared_distance_overflows(self):
        grid = ParamGrid(np.array([1.0]), np.array([-1e155, 0.0]))
        expected = (KernelParams(1.0, 0.0), param_objective(np.zeros(4), 1.0, 0.0))
        assert optimize_params(np.zeros(4), grid) == expected
        e = np.random.default_rng(41).normal(0.0, 1.0, 400)
        centers = np.array([-1e200, -1.0, 0.0, 1.0, 1e155])
        _assert_same_search(e, ParamGrid(np.array([0.5, 1.0]), centers))
        # A finite square times -1/(2 sigma^2) at a clamped width of 1e-3.
        _assert_same_search(e, ParamGrid(np.array([1e-3, 1.0]), np.array([-1e152, 0.0])))

    def test_mirrored_modes_tie(self):
        # Modes at +/-4 of a mirrored sample: the two best centers (sigma 0.6,
        # a binned width) tie and the rule picks the smaller one.
        x = np.random.default_rng(34).normal(4.0, 0.3, 4000)
        _assert_same_search(np.concatenate([x, -x]), default_param_grid())

    def test_centers_too_far_out_for_a_lattice(self, monkeypatch):
        # Near 1e17 floats are 16 apart, more than a lattice step of 0.1 sigma:
        # these widths are unbinned rows instead of binning onto coincident
        # nodes, though their row costs would bin them at N=4000 (at N=400
        # the small N alone keeps them unbinned).
        centers = 1e17 + 16.0 * np.arange(24)
        calls = []
        lattice = kernels._lattice
        monkeypatch.setattr(kernels, "_lattice", lambda *args: calls.append(1) or lattice(*args))
        for n in (4000, 400):
            e = 1e17 + np.random.default_rng(36).normal(0.0, 100.0, n)
            _assert_same_search(e, ParamGrid(np.array([50.0, 100.0]), centers))
        assert not calls

    def test_exact_tie(self):
        _assert_same_search(np.array([-1.0, 1.0]), ParamGrid(np.array([1.0]), np.array([-1.0, 1.0])))

    @pytest.mark.parametrize("errors, sigmas, centers", [
        ([2.0, -1.0], [1.0], [0.0, 1e-14]),
        ([0.0, 0.0, 4.0], [0.75], [0.0, 1e-8]),
        ([0.0, 0.0, 0.0, 3.0, -1.0], [2.0], [0.0, 1e-10]),
        ([1.0, 0.5, -2.0], [3.0], [0.0, 3.36e-14]),
    ])
    def test_near_tie_returns_the_grid_minimum(self, errors, sigmas, centers):
        # Objectives a few ulps apart are not tied: criterion 10 needs the
        # least one.
        e = np.array(errors)
        _, value = optimize_params(e, ParamGrid(np.array(sigmas), np.array(centers)))
        assert value == min(param_objective(e, s, c) for s in sigmas for c in centers)

    @pytest.mark.parametrize("rule", [CenterRule.MEAN_OF_ERRORS, CenterRule.MEDIAN_OF_ERRORS])
    def test_one_center_rules(self, rule, large_residuals):
        grid = ParamGrid(np.linspace(0.005, 0.25, 50), None, rule)
        rng = np.random.default_rng(35)
        _assert_same_search(rng.standard_t(2, 400), grid)
        _assert_same_search(large_residuals[0], grid)
        _assert_same_search(np.array([5.0]), grid)
        center = optimize_params(np.array([1.0, 2.0, 3.0, 100.0]), grid)[0].center
        assert center == (26.5 if rule is CenterRule.MEAN_OF_ERRORS else 2.5)

    def test_large_search_stays_below_one_difference_table(self, large_residuals):
        tracemalloc.start()
        try:
            optimize_params(large_residuals[0], default_param_grid())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 101 * 20000 * 8

    @pytest.mark.parametrize("n_centers, errors_per_node, binned", [
        (1, 128, False), (2, 128, False), (8, 8, False), (8, 32, True), (12, 8, False),
        (12, 16, True), (12, 64, True), (24, 4, False), (24, 16, True), (101, 2, False),
        (101, 4, True),
    ])
    def test_binned_only_where_cheaper(self, n_centers, errors_per_node, binned, monkeypatch):
        # A width is binned only where its binned row was measured faster:
        # never with 2 centers or fewer, and from fewer errors per node the
        # more centers there are.
        centers = np.linspace(-5.0, 5.0, n_centers)
        sigmas = np.array([1.0])
        n = errors_per_node * int(kernels._node_counts(centers, sigmas)[0])
        e = np.random.default_rng(38).normal(0.5, 1.0, n)
        calls = []
        lattice = kernels._lattice
        monkeypatch.setattr(kernels, "_lattice", lambda *args: calls.append(1) or lattice(*args))
        _assert_same_search(e, ParamGrid(sigmas, centers))
        assert len(calls) == binned

    @pytest.mark.parametrize("rule", list(CenterRule))
    def test_rejects_errors_whose_spread_overflows(self, rule):
        centers = np.array([-1.0, 0.0, 1.0]) if rule is CenterRule.EXPLICIT_GRID else None
        grid = ParamGrid(np.array([0.5, 1.0]), centers, rule)
        for errors in ([0.0, 1e160, 1.0, 2.0], [1e153, -1e153]):
            with pytest.raises(ValueError, match=r"^error spread overflows: .* 1\.8e\+308$"):
                optimize_params(np.array(errors * 200), grid)
        # A 1e154 error: its square and the spread are finite, so it is searched.
        e = np.random.default_rng(39).normal(0.0, 1.0, 400)
        e[7] = 1e154
        _assert_same_search(e, grid)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
    loc=st.floats(-5, 5),
    scale=st.floats(1e-3, 5),
    sigma=st.floats(1e-2, 50),
    centers=st.lists(st.floats(-10, 10), min_size=1, max_size=12, unique=True),
)
def test_screen_is_within_its_bound(n, seed, loc, scale, sigma, centers):
    # The binned and the unbinned row of one width against its exact row.
    rng = np.random.default_rng(seed)
    e = rng.normal(loc, scale, n)
    far = rng.random(n) < 0.1
    e[far] = rng.normal(0.0, 1e2, far.sum())
    c = np.sort(np.array(centers))
    exact = kernels._exact_objectives(e, c, np.full(c.size, sigma))
    count = int(kernels._node_counts(c, np.array([sigma]))[0])
    binned = kernels._lattice(np.sort(e), c, sigma, count)
    unbinned = (e, np.ones(n), 0.0, 0)
    for points, mass, h, rounding in (binned, unbinned):
        sq = (c[:, None] - points) ** 2
        screen = kernels._screened_objectives(sq, mass, kernels._width_table(sigma, n))
        assert np.all(np.abs(screen - exact) <= kernels._screen_bound(sigma, n, h, rounding))


def _per_point_lattice(sorted_e, centers, s, count):
    """The per-point linear binning that the segment sums replace: each error
    in the window is split between the two nodes around it by its own weight,
    and each node's mass is a bincount.  Returns the window, nodes and masses."""
    h = kernels._BIN_FRAC * s
    lo = centers[0] - kernels._REACH * s
    first, stop = np.searchsorted(sorted_e, (lo, centers[-1] + kernels._REACH * s))
    x = sorted_e[first:stop]
    nodes = lo + h * np.arange(count)
    k = np.minimum(((x - lo) / h).astype(np.intp), count - 2)
    left = nodes[k]
    t = (x - left) / (nodes[k + 1] - left)
    mass = np.bincount(k, 1.0 - t, count) + np.bincount(k + 1, t, count)
    return x, nodes, mass


def _exact_lattice(x, nodes):
    """The linear binning of `x` on `nodes` in rationals: bin j holds
    n_j <= x < n_j+1, the last bin the rest."""
    mass = [Fraction(0)] * nodes.size
    bins = np.minimum(np.searchsorted(nodes, x, side="right") - 1, nodes.size - 2)
    for xi, j in zip(x, bins):
        left, right = Fraction(nodes[j]), Fraction(nodes[j + 1])
        t = (Fraction(xi) - left) / (right - left)
        mass[j] += 1 - t
        mass[j + 1] += t
    return mass, np.bincount(bins, minlength=nodes.size - 1)


def _moved(diffs):
    """The most that mass changes `diffs` can move a sum over node values in
    [0, 1]: the larger of their positive and their negative parts."""
    return max(sum(d for d in diffs if d > 0), -sum(d for d in diffs if d < 0))


def _check_lattice(e, centers, s, exact=True):
    """`_lattice` against the per-point binning and, with `exact`, the exact
    one, each within the charge that `optimize_params` derives; its mass and
    first moment against the window's; and its screen against the exact row."""
    n, eps = e.size, sys.float_info.epsilon
    sorted_e = np.sort(e)
    count = int(kernels._node_counts(centers, np.array([s]))[0])
    lattice, mass, h, rounding = kernels._lattice(sorted_e, centers, s, count)
    x, nodes, reference = _per_point_lattice(sorted_e, centers, s, count)
    bins = np.minimum(np.searchsorted(nodes, x, side="right") - 1, count - 2)
    c = np.bincount(bins, minlength=count - 1)
    gap, top = np.diff(nodes), np.maximum(np.abs(nodes[:-1]), np.abs(nodes[1:]))
    # sum_j c_j (4 + c_j M_j/g_j): the segment sums' charge, N (R - B).
    charge = float(c @ (4.0 + c * top / gap))
    assert rounding == pytest.approx(count + charge / n, rel=1e-12)
    assert h == (gap[c > 0].max() if x.size else 0.0)
    np.testing.assert_array_equal(lattice, nodes)
    if exact:
        exact_mass, exact_counts = _exact_lattice(x, nodes)
        np.testing.assert_array_equal(exact_counts, c)
        diffs = [Fraction(m) - m_exact for m, m_exact in zip(mass, exact_mass)]
        assert _moved(diffs) <= Fraction(charge * eps)
    # The reference errs too: its bin index (x - n_0)/h is off by up to about
    # 2u (|x| + |n_0|)/h bins, which can put an error on a node's other side
    # with a weight just outside [0, 1), and its per-node sums of up to
    # c_j-1 + c_j weights cost it (c_j-1 + c_j)^2 u, below 4 c_j^2 M_j/g_j eps
    # as M_j >= g_j/2.
    misplaced = 4.0 * eps * float(np.sum(np.abs(x) + abs(nodes[0]))) / gap.min()
    assert _moved(mass - reference) <= 4.0 * charge * eps + misplaced
    assert abs(mass.sum() - x.size) <= (count + 4) * x.size * eps
    moment_tol = eps * (c @ (4.0 * gap + c * top) + (count + 4) * x.size * np.abs(nodes).max())
    assert abs(mass @ nodes - math.fsum(x)) <= moment_tol
    sq = (centers[:, None] - nodes) ** 2
    screen = kernels._screened_objectives(sq, mass, kernels._width_table(s, n))
    exact = kernels._exact_objectives(e, centers, np.full(centers.size, s))
    assert np.all(np.abs(screen - exact) <= kernels._screen_bound(s, n, h, rounding))
    return x, nodes


class TestLattice:
    """The segment-sum binning against the per-point and the exact binning."""

    CENTERS = np.linspace(-4.6, 4.6, 24)
    SIGMA = 0.5

    @staticmethod
    def _nodes(centers=CENTERS, sigma=SIGMA):
        count = int(kernels._node_counts(centers, np.array([sigma]))[0])
        lo = centers[0] - kernels._REACH * sigma
        return lo + kernels._BIN_FRAC * sigma * np.arange(count)

    def test_normal_errors_with_outliers(self):
        rng = np.random.default_rng(50)
        e = rng.normal(0.3, 1.5, 3000)
        e[rng.random(e.size) < 0.1] = rng.choice([-1e4, 1e4], 1) + rng.normal(0.0, 1.0)
        x, _ = _check_lattice(e, self.CENTERS, self.SIGMA)
        assert 0 < x.size < e.size

    def test_every_error_in_one_bin(self):
        nodes = self._nodes()
        e = nodes[40] + (nodes[41] - nodes[40]) * np.random.default_rng(51).random(3000)
        x, _ = _check_lattice(e, self.CENTERS, self.SIGMA)
        assert x.size == e.size

    def test_errors_on_nodes(self):
        nodes = self._nodes()
        # The errors on the nodes at or past the window's end leave it.
        e = nodes[np.random.default_rng(52).integers(0, nodes.size, 3000)]
        x, _ = _check_lattice(e, self.CENTERS, self.SIGMA)
        assert x.size == np.count_nonzero(e < self.CENTERS[-1] + kernels._REACH * self.SIGMA)

    def test_errors_at_both_ends_of_the_window(self):
        lo = self.CENTERS[0] - kernels._REACH * self.SIGMA
        hi = self.CENTERS[-1] + kernels._REACH * self.SIGMA
        ends = [lo, np.nextafter(lo, -np.inf), hi, np.nextafter(hi, -np.inf)]
        e = np.concatenate([np.repeat(ends, 500), np.random.default_rng(53).normal(0.0, 2.0, 1000)])
        x, _ = _check_lattice(e, self.CENTERS, self.SIGMA)
        assert x[0] == lo and x[-1] == np.nextafter(hi, -np.inf) and x.size == 2000

    def test_empty_window(self):
        e = np.random.default_rng(54).normal(1e3, 1.0, 3000)
        x, nodes = _check_lattice(e, self.CENTERS, self.SIGMA)
        _, mass, h, rounding = kernels._lattice(np.sort(e), self.CENTERS, self.SIGMA, nodes.size)
        assert x.size == 0 and not mass.any() and h == 0.0 and rounding == nodes.size

    def test_segment_sums_near_the_resolution_limit(self):
        # Nodes about 2**20 ulps apart, near the closest that a width is
        # binned at, and 3000 errors on one node.  The linear binning keeps
        # each error on its node, so the screen has no interpolation error
        # (h = 0 in its bound); but T_j = (S_j - c_j n_j)/g_j cancels a few
        # ulps of c_j |n_j| against a gap of 2**20 ulps and moves mass onto
        # the next node, which only the segment sums' charge R - B covers.
        s, n = 2.4e-3, 3000
        centers = 1e6 + s * np.linspace(-2.0, 2.0, 5)
        reach = kernels._RESOLUTION * (centers[-1] + kernels._REACH * s)
        assert reach <= kernels._BIN_FRAC * s <= 1.05 * reach
        nodes = self._nodes(centers, s)
        j = nodes.size // 2
        e = np.full(n, nodes[j])
        _, mass, _, rounding = kernels._lattice(e, centers, s, nodes.size)
        sq = (centers[:, None] - nodes) ** 2
        error = np.abs(kernels._screened_objectives(sq, mass, kernels._width_table(s, n))
                       - kernels._exact_objectives(e, centers, np.full(centers.size, s)))
        assert mass[j + 1] != 0.0
        assert np.any(error > kernels._screen_bound(s, n, 0.0, nodes.size))
        assert np.all(error <= kernels._screen_bound(s, n, 0.0, rounding))
        _check_lattice(e, centers, s)

    @pytest.mark.parametrize("error", [0.3, -7.2, 1e4])
    def test_one_error(self, error):
        _check_lattice(np.array([error]), self.CENTERS, self.SIGMA)

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(1, 2000),
        seed=st.integers(0, 2**32 - 1),
        sigma=st.floats(1e-2, 50),
        centers=st.lists(st.floats(-10, 10), min_size=2, max_size=24, unique=True),
    )
    def test_random_samples(self, n, seed, sigma, centers):
        rng = np.random.default_rng(seed)
        e = rng.normal(rng.uniform(-5, 5), rng.uniform(1e-3, 5), n)
        far = rng.random(n) < 0.1
        e[far] = rng.uniform(-1e4, 1e4, far.sum())
        _check_lattice(e, np.sort(np.array(centers)), sigma)


@settings(deadline=None, max_examples=1000)
@given(
    # Small samples tie often; N >= 2000 bins some widths of 24+ centers.
    n=st.integers(1, 20) | st.integers(1, 6000) | st.integers(2000, 6000),
    seed=st.integers(0, 2**32 - 1),
    n_centers=st.integers(1, 120),
    rule=st.sampled_from(list(CenterRule)),
    rounded=st.booleans(),
)
def test_search_is_the_full_table_search(n, seed, n_centers, rule, rounded):
    # Random grids, samples with 10% outliers up to 1e4, and (rounded to 0.1)
    # samples and centers that make exact ties.
    rng = np.random.default_rng(seed)
    e = rng.normal(rng.uniform(-3, 3), rng.uniform(0.05, 2), n)
    far = rng.random(n) < 0.1
    e[far] = rng.uniform(-1e4, 1e4, far.sum())
    sigmas = np.unique(rng.uniform(0.05, 3.0, rng.integers(1, 6)))
    centers = rng.uniform(-5, 5, n_centers)
    if rounded:
        e, centers = np.round(e, 1), np.round(centers, 1)
    # Only the explicit-grid rule takes a center set.
    explicit = rule is CenterRule.EXPLICIT_GRID
    grid = ParamGrid(sigmas, np.unique(centers) if explicit else None, rule)
    _assert_same_search(e, grid)


@settings(deadline=None, max_examples=300)
@given(
    # N >= 2000 bins some widths of 10 centers or more.
    n=st.integers(1, 20) | st.integers(1, 2000) | st.integers(2000, 6000),
    seed=st.integers(0, 2**32 - 1),
    n_centers=st.integers(2, 13).filter(lambda c: c % 4 != 1),
    rounded=st.booleans(),
)
def test_search_with_a_short_last_coarse_interval(n, seed, n_centers, rounded):
    # The coarse centers are every 4th and the last, so a count that is not
    # 1 mod 4 ends them with a shorter interval.  Unevenly spaced centers, and
    # a sample whose mode lies near the last center, which often holds the
    # minimum; rounded to 0.1, samples and centers make exact ties.
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-4.0, -2.0) + np.cumsum(rng.uniform(0.15, 1.5, n_centers))
    e = rng.normal(centers[-1] - rng.uniform(0.0, 1.0), rng.uniform(0.05, 2), n)
    far = rng.random(n) < 0.1
    e[far] = rng.uniform(-1e4, 1e4, far.sum())
    sigmas = np.unique(rng.uniform(0.05, 3.0, rng.integers(1, 6)))
    if rounded:
        e, centers = np.round(e, 1), np.round(centers, 1)
    grid = ParamGrid(sigmas, centers)
    assert grid.center_set.size == n_centers
    _assert_same_search(e, grid)


def _screen_off_by(theta, e, centers):
    """A stand-in for `_screened_objectives` on unbinned rows that puts each
    screened objective at center j exactly theta[j] of its bound away from
    the exact objective, as far as the bound lets a screen err."""
    index = {row.tobytes(): j for j, row in enumerate((centers[:, None] - e) ** 2)}

    def off(sq, mass, widths):
        j = np.array([index[row.tobytes()] for row in sq])
        c, s = np.broadcast_arrays(centers[j], widths[..., 0])
        exact = kernels._exact_objectives(e, c.ravel(), s.ravel()).reshape(s.shape)
        return exact + theta[j] * kernels._screen_bound(s, e.size, 0.0, 0)

    return off


class TestScreensAtTheirBound:
    """The search needs only that each screened objective lies within its bound
    of the exact one: screens off by 0.9 of their bound, up at some centers
    and down at others, still give the full table's (params, value)."""

    @staticmethod
    def _check(e, grid, theta, monkeypatch):
        expected = _reference_optimize_params(e, grid)
        monkeypatch.setattr(kernels, "_lattice", None)
        off = _screen_off_by(theta, e, grid.center_set)
        monkeypatch.setattr(kernels, "_screened_objectives", off)
        assert optimize_params(e, grid) == expected

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exact_tie(self, sign, monkeypatch):
        # The two centers tie and the rule picks -1.  Screened low at the
        # other one, that one is rescored first, and its exact value, not its
        # screened one, must be the cut that keeps -1.
        e, grid = np.array([-1.0, 1.0]), ParamGrid(np.array([1.0]), np.array([-1.0, 1.0]))
        self._check(e, grid, sign * np.array([0.9, -0.9]), monkeypatch)

    @pytest.mark.parametrize("seed", range(4))
    def test_mirrored_modes(self, seed, monkeypatch):
        # Modes at +/-3 of a mirrored sample: on the default grid the two best
        # points tie, or differ in their last bits (their sums run in another order).
        rng = np.random.default_rng(60 + seed)
        x = np.round(rng.normal(3.0, 0.3, 150), 1)
        grid = default_param_grid()
        self._check(np.concatenate([x, -x]), grid, rng.choice([-0.9, 0.9], grid.center_set.size),
                    monkeypatch)

    @settings(deadline=None, max_examples=100)
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        n_centers=st.integers(2, 30),
    )
    def test_random_grids(self, n, seed, n_centers):
        # Rounded samples and centers tie often; N <= 300 bins no width.
        rng = np.random.default_rng(seed)
        e = np.round(rng.normal(rng.uniform(-3, 3), rng.uniform(0.05, 2), n), 1)
        grid = ParamGrid(np.unique(rng.uniform(0.05, 3.0, rng.integers(1, 6))),
                         np.unique(np.round(rng.uniform(-5, 5, n_centers), 1)))
        theta = rng.uniform(-0.9, 0.9, grid.center_set.size)
        with pytest.MonkeyPatch.context() as mp:
            self._check(e, grid, theta, mp)


def _fit_searches(case, n, grid):
    """The residuals of every (sigma, c) search of one MCC-VC fit (seed 0),
    which passes one `RowBounds` to all of them."""
    searches, states, optimize = [], set(), solvers.optimize_params

    def search(e, grid, state):
        searches.append(np.array(e))
        states.add(id(state))
        return optimize(e, grid, state)

    H, t = synth_case_design(case, n, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "optimize_params", search)
        fit_mcc_vc(H, t, grid)
    assert len(states) == 1
    return searches


def _warm_searches(searches, grid):
    """Replay `searches` through one `RowBounds`, asserting each (params, value)
    equals a search without it; return the distinct widths each call screened,
    or, on a one-center grid, computed exactly, in the order first seen (a
    call may screen a block of widths, and a width's centers in more than one
    call; a grid of several centers rescores screened widths only)."""
    state, screened = kernels.RowBounds(), []
    screen, exact = kernels._screened_objectives, kernels._exact_objectives
    for e in searches:
        fresh = optimize_params(e, grid)
        widths = {}

        def counted_screen(sq, mass, rows):
            widths.update(dict.fromkeys(np.ravel(rows[..., 0])))
            return screen(sq, mass, rows)

        def counted_exact(e, centers, sigmas):
            widths.update(dict.fromkeys(sigmas))
            return exact(e, centers, sigmas)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_screened_objectives", counted_screen)
            mp.setattr(kernels, "_exact_objectives", counted_exact)
            assert optimize_params(e, grid, state) == fresh
        screened.append(list(widths))
    return screened


def _search_work(problems, grid):
    """Fit each (H, t) of `problems` by `fit_mcc_vc` on `grid`, and count through
    the search's seams the (width, center) points screened, the points
    rescored exactly, the lattices built and, summed over the searches, the
    distinct widths each one screened."""
    work, widths = dict.fromkeys(("screened", "exact", "widths", "lattices"), 0), set()
    screen, exact, optimize = kernels._screened_objectives, kernels._exact_objectives, solvers.optimize_params
    lattice = kernels._lattice

    def counted_screen(sq, mass, rows):
        out = screen(sq, mass, rows)
        work["screened"] += out.size
        widths.update(np.ravel(rows[..., 0]))
        return out

    def counted_exact(e, centers, sigmas):
        work["exact"] += sigmas.size
        return exact(e, centers, sigmas)

    def counted_lattice(*args):
        work["lattices"] += 1
        return lattice(*args)

    def search(e, grid, state):
        widths.clear()
        out = optimize(e, grid, state)
        work["widths"] += len(widths)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_screened_objectives", counted_screen)
        mp.setattr(kernels, "_exact_objectives", counted_exact)
        mp.setattr(kernels, "_lattice", counted_lattice)
        mp.setattr(solvers, "optimize_params", search)
        for H, t in problems:
            fit_mcc_vc(H, t, grid)
    return work


def _elm_problem():
    """Sigmoid ELM features (m=50) of a noisy sinc with outliers: the features
    span the constant vector, so the center and beta's intercept are confounded."""
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, (200, 2))
    t = 0.5 * np.sinc(4.0 * np.linalg.norm(X - 0.5, axis=1)) + 0.3 + 0.01 * rng.normal(size=200)
    outliers = rng.random(200) < 0.1
    t[outliers] += rng.normal(0.0, 0.5, outliers.sum())
    return elm_features(init_elm(2, 50, 1), X), t


_MEDIAN_GRID = ParamGrid(np.linspace(0.005, 0.25, 50), None, CenterRule.MEDIAN_OF_ERRORS)


class TestCarriedBounds:
    """Searches sharing a `RowBounds` return what searches without one do, bit
    for bit, and screen (or, with one center, compute) only the widths that
    can still hold the minimum."""

    @pytest.mark.parametrize("n, cases, seeds, grid, screened, exact, widths, lattices", [
        # The default grid: no width is binned at N=400, every width at N=20000.
        (400, (1, 2, 3, 4), range(10), None, 131430, 505, 4170, 0),
        (20000, (2, 4), range(3), None, 20667, 213, 663, 663),
        # Widths 0.02:0.04:0.98 and centers -4.6:0.4:4.6, as the CLI builds
        # them: at N=5000 every width but 0.02 is binned, so one search
        # screens rows of both kinds.
        (5000, (2, 4), range(2), (0.02 + 0.04 * np.arange(25), -4.6 + 0.4 * np.arange(24)),
         23655, 96, 1047, 958),
    ], ids=["n400", "n20000", "n5000-mixed"])
    def test_search_work_per_fit(self, n, cases, seeds, grid, screened, exact, widths, lattices):
        # The work of a search that screened and rescored one width per call:
        # running each stage once over all contending widths saves calls,
        # not kernel sums, so no count may rise above it.
        grid = default_param_grid() if grid is None else ParamGrid(*grid)
        problems = [synth_case_design(case, n, seed) for case in cases for seed in seeds]
        work = _search_work(problems, grid)
        assert work["screened"] <= screened
        assert work["exact"] <= exact
        assert work["widths"] <= widths
        assert work["lattices"] <= lattices

    def test_replayed_fits_at_n400(self):
        grid = default_param_grid()
        screened = []
        for case in (1, 2, 3, 4):
            screened += _warm_searches(_fit_searches(case, 400, grid), grid)
        # The first search of a fit screens all 25 widths; the rest few.
        assert sum(map(len, screened)) <= 0.5 * grid.sigma_set.size * len(screened)

    def test_replayed_fits_at_n20000(self):
        grid = default_param_grid()
        for case in (2, 4):
            screened = [len(w) for w in _warm_searches(_fit_searches(case, 20000, grid), grid)]
            assert screened[0] == grid.sigma_set.size > min(screened)

    def test_large_fits_rescore_few_points(self):
        # Best first: the exact rows (one center of one width, over the N
        # errors) of six N=20000 fits were 548 when every point the screen
        # kept was rescored, and are 213 with the best-first cut.
        rows, exact = [], kernels._exact_objectives
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_exact_objectives",
                       lambda e, c, s: rows.append(s.size) or exact(e, c, s))
            for case in (2, 4):
                for seed in range(3):
                    fit_mcc_vc(*synth_case_design(case, 20000, seed), default_param_grid())
        assert sum(rows) <= 250

    def test_best_width_moves_between_calls(self):
        # A sample, its contraction by 10 and the sample again: the best width
        # moves from the middle of the grid to its narrowest end and back, so
        # the carried intervals must widen by the drift to let it.
        e = np.random.default_rng(40).normal(0.3, 2.0, 400)
        grid = default_param_grid()
        searches = [e, 0.1 * e, e]
        assert len({optimize_params(x, grid)[0].sigma for x in searches}) == 2
        _warm_searches(searches, grid)

    def test_best_width_moves_between_calls_on_one_center(self):
        # The one-center twin of the test above: the median moves with the
        # sample, and the best width with it.
        e = np.random.default_rng(40).normal(0.3, 2.0, 400)
        grid = ParamGrid(default_param_grid().sigma_set, None, CenterRule.MEDIAN_OF_ERRORS)
        searches = [e, 0.1 * e, e]
        assert len({optimize_params(x, grid)[0].sigma for x in searches}) == 2
        _warm_searches(searches, grid)

    def test_median_moving_across_a_gap(self):
        # 1001 errors near -1 (spread 0.02) and 1000 near 1 (spread 0.3): the
        # median is the largest of the first cluster.  Moving that one error
        # past the second cluster moves the residuals by 0.002 on average but
        # the median by about 1, to the smallest of the second cluster, where
        # the best width is wider: only the center's own term in the drift
        # lets the search reach it.
        rng = np.random.default_rng(41)
        e = np.concatenate([rng.normal(-1.0, 0.02, 1001), rng.normal(1.0, 0.3, 1000)])
        moved = e.copy()
        moved[np.argmax(e[:1001])] = e.max() + 0.1
        assert np.median(moved) - np.median(e) > 0.9 > 0.002 > np.abs(moved - e).mean()
        searches = [e, moved, e]
        assert len({optimize_params(x, _MEDIAN_GRID)[0].sigma for x in searches}) == 2
        computed = _warm_searches(searches, _MEDIAN_GRID)
        assert len(computed[0]) == _MEDIAN_GRID.sigma_set.size

    @pytest.mark.parametrize("move", ["errors", "center"])
    def test_drift_holds_each_row_and_is_tight(self, move):
        # All but one error sit one width of the 1.0 row from the center, where
        # the kernel's slope is largest: moving them all outward by 1e-3 (the
        # center, a median, stays) or moving the one center by 1e-3 away from
        # them changes that row's objective by its whole drift bound, to
        # first order (G'' vanishes there).  Each carried interval holds its
        # row's new exact objective, and the 1.0 row uses more than 0.99 of
        # its drift, so no smaller drift would hold it.
        sigmas = np.array([0.5, 1.0, 2.0])
        if move == "errors":
            before = np.concatenate([-np.ones(200), [0.0], np.ones(200)])
            after, centers = before + 1e-3 * np.sign(before), (np.array([0.0]),) * 2
        else:
            before = after = np.concatenate([[0.0], np.ones(400)])
            centers = np.array([0.0]), np.array([-1e-3])
        state = kernels.RowBounds()
        optimize_params(before, ParamGrid(sigmas, centers[0]), state)
        carried = state.lo.copy()
        assert np.array_equal(carried, state.hi)
        _, lo, hi = state.carry(after, ParamGrid(sigmas, centers[1]), centers[1], sigmas)
        exact = kernels._exact_objectives(after, centers[1], sigmas)
        assert np.all((lo <= exact) & (exact <= hi))
        assert exact[1] - carried[1] > 0.99 * (hi[1] - carried[1])

    def test_state_of_another_grid_starts_fresh(self):
        e = np.random.default_rng(42).normal(0.0, 0.4, 400)
        far = ParamGrid(np.linspace(0.2, 5.0, 25), np.linspace(-5.0, -4.0, 11))
        near = ParamGrid(np.linspace(0.2, 5.0, 25), np.linspace(-0.5, 0.5, 11))
        state = kernels.RowBounds()
        optimize_params(e, far, state)
        assert optimize_params(e, near, state) == optimize_params(e, near)

    def test_clamped_widths_reset_their_rows_only(self, caplog):
        # The 0.01 width sits below 1e-3 of every residual spread of the fit,
        # and its floor moves at every search: its row starts afresh each
        # time, while the other widths keep their intervals.
        grid = ParamGrid(np.linspace(0.01, 4.81, 25), np.linspace(-5.0, 5.0, 101))
        searches = _fit_searches(2, 400, grid)
        floors = [1e-3 * float(np.std(e)) for e in searches]
        assert min(floors) > 0.01 and len(set(floors)) == len(searches)
        with caplog.at_level(logging.INFO, logger="mccvc.kernels"):
            screened = _warm_searches(searches, grid)
        # One clamp record per search, with and without a state.
        assert sum("clamped" in r.message for r in caplog.records) == 2 * len(searches)
        assert [w[0] for w in screened] == floors
        assert sum(map(len, screened)) <= 0.5 * grid.sigma_set.size * len(searches)

    def test_clamped_widths_reset_their_rows_only_on_one_center(self, caplog):
        # The one-center twin of the test above, under the median rule: the
        # clamped row is computed at every search, and the others only while
        # they can hold the minimum.
        grid = ParamGrid(np.linspace(0.01, 4.81, 25), None, CenterRule.MEDIAN_OF_ERRORS)
        searches = _fit_searches(2, 400, grid)
        floors = [1e-3 * float(np.std(e)) for e in searches]
        assert min(floors) > 0.01 and len(set(floors)) == len(searches)
        with caplog.at_level(logging.INFO, logger="mccvc.kernels"):
            computed = _warm_searches(searches, grid)
        assert sum("clamped" in r.message for r in caplog.records) == 2 * len(searches)
        assert [w[0] for w in computed] == floors
        assert sum(map(len, computed)) <= 0.5 * grid.sigma_set.size * len(searches)

    @pytest.mark.parametrize("lambda_prime, rows", [(1e-6, 344), (1e-4, 296), (1e-2, 131), (1.0, 122)])
    def test_confounded_elm_fit_computes_one_full_table(self, lambda_prime, rows):
        # The median rule's first search, then one-center searches at the
        # frozen center c*, which carry the first search's intervals (the
        # same center, |c - c'| = 0): one full table of the 50 widths per
        # fit, and at most the exact rows counted when the one-center
        # searches first carried their intervals (a full table per search,
        # 50 rows per step, without them).
        calls, exact = [], kernels._exact_objectives
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_exact_objectives", lambda e, c, s: calls.append(s.size) or exact(e, c, s))
            res = fit_mcc_vc(*_elm_problem(), _MEDIAN_GRID, FitConfig(lambda_prime))
        assert len(calls) == res.iterations_run > 10
        assert calls.count(_MEDIAN_GRID.sigma_set.size) == 1
        assert sum(calls) <= rows

    def test_overflowing_drift_screens_every_width(self):
        # Two one-error samples whose difference overflows: the drift is inf,
        # with no RuntimeWarning, and every width is screened.
        grid = default_param_grid()
        screened = _warm_searches([np.array([1.7e308]), np.array([-1.7e308])], grid)
        assert [len(w) for w in screened] == [grid.sigma_set.size] * 2
