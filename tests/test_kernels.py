"""Kernel, correntropy, and parameter-search unit tests.

Expected constants marked "oracle" were computed independently with mpmath at
30 significant digits and frozen here.
"""

import math
import sys

import numpy as np
import pytest

from mccvc.kernels import (
    CenterRule,
    KernelParams,
    ParamGrid,
    center_from_rule,
    default_param_grid,
    empirical_correntropy,
    gaussian_kde,
    gaussian_kernel,
    mcc_vc_cost,
    optimize_params,
    param_objective,
)

# oracle: 1/sqrt(2 pi) and friends, mpmath dps=30
G_0_1 = 0.39894228040143268
G_0_2 = 0.19947114020071634
G_1_1 = 0.24197072451914335
CORR_SYM3 = 0.29429457647990646      # mean of G at [-1, 0, 1], sigma 1, c 0
OBJ_AT_CENTER = -0.51578976902898721  # 1/(2 sqrt(pi)) - 2/sqrt(2 pi)
OBJ_SYM3 = -0.30649436118593477


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


class TestCost:
    def test_minimum_with_zero_regularization(self):
        for sigma in (0.5, 2.0):
            value = mcc_vc_cost([3.0, 3.0], KernelParams(sigma, 3.0), 0.0, 0.0)
            assert value == -1.0 / (math.sqrt(2.0 * math.pi) * sigma)

    def test_single_sample(self):
        value = mcc_vc_cost([0.0], KernelParams(1.0, 0.0), 0.0, 0.0)
        assert value == pytest.approx(-G_0_1, rel=1e-14)

    def test_with_penalty_oracle(self):
        value = mcc_vc_cost([-1.0, 0.0, 1.0], KernelParams(1.0, 0.0), 4.0, 0.1)
        assert value == pytest.approx(-CORR_SYM3 + 0.4, rel=1e-12)

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            mcc_vc_cost([1.0], KernelParams(1.0, 0.0), 1.0, -0.1)


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


class TestCenterFromRule:
    def test_mean(self):
        assert center_from_rule([1.0, 2.0, 3.0], CenterRule.MEAN_OF_ERRORS) == 2.0

    def test_median_ignores_outlier(self):
        value = center_from_rule([1.0, 2.0, 3.0, 100.0], CenterRule.MEDIAN_OF_ERRORS)
        assert value == 2.5

    def test_single_sample(self):
        assert center_from_rule([5.0], CenterRule.MEAN_OF_ERRORS) == 5.0
        assert center_from_rule([5.0], CenterRule.MEDIAN_OF_ERRORS) == 5.0

    def test_grid_rule_is_a_contract_violation(self):
        with pytest.raises(ValueError):
            center_from_rule([1.0], CenterRule.EXPLICIT_GRID)


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
        ],
        ids=["gaussian_kernel", "param_objective", "gaussian_kde", "KernelParams"],
    )
    def test_width_whose_square_underflows_rejected(self, call):
        with pytest.raises(ValueError, match="underflows"):
            call(1e-300)

    def test_smallest_admissible_width_is_finite(self):
        sigma = 2.0 * math.sqrt(sys.float_info.min)
        assert math.isfinite(gaussian_kernel(0.0, sigma))
        assert gaussian_kernel(1.0, sigma) == 0.0
        assert math.isfinite(param_objective([0.0, 1.0], sigma, 0.0))


class TestTypes:
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
