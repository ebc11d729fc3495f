"""Solver unit tests: ridge closed form, weighted steps, fixed-point loops."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from mccvc import kernels, solvers
from mccvc.bench import synth_case_design
from mccvc.errors import DegenerateWeightsError, SingularSystemError, SolverError
from mccvc.features import elm_features, init_elm
from mccvc.kernels import (
    CenterRule,
    KernelParams,
    ParamGrid,
    default_param_grid,
    gaussian_kernel,
    mcc_vc_cost,
    param_objective,
)
from mccvc.solvers import (
    FitConfig,
    fit_mcc,
    fit_mcc_vc,
    mcc_vc_gradient,
    ridge_solve,
    weighted_ridge_step,
)
from test_kernels import _MEDIAN_GRID, _elm_problem, _reference_optimize_params, _screen_off_by


def _random_problem(rng, n=60, m=3, noise=0.1):
    H = rng.normal(size=(n, m))
    beta_true = rng.normal(size=m)
    t = H @ beta_true + noise * rng.normal(size=n)
    return H, t, beta_true


# Equal columns: H'WH is exactly singular for any weights.
_DUPLICATED_COLUMN = (np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), np.array([1.0, 2.0, 3.0]))


class TestRidgeSolve:
    def test_identity_design_no_penalty(self):
        t = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(ridge_solve(np.eye(3), t, 0.0), t, rtol=1e-12)

    def test_identity_design_unit_penalty(self):
        t = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(ridge_solve(np.eye(3), t, 1.0), t / 2.0, rtol=1e-12)

    def test_one_dimensional_mean(self):
        beta = ridge_solve(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), 0.0)
        assert beta[0] == pytest.approx(2.0, rel=1e-12)

    def test_singular_without_penalty_raises(self):
        H = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularSystemError):
            ridge_solve(H, np.array([1.0, 2.0, 3.0]), 0.0)
        # any positive penalty restores solvability
        beta = ridge_solve(H, np.array([1.0, 2.0, 3.0]), 1e-6)
        assert np.all(np.isfinite(beta))

    def test_rejects_negative_penalty(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.ones(2), -1.0)

    @pytest.mark.parametrize("lambda_prime", [math.nan, math.inf])
    def test_rejects_non_finite_penalty(self, lambda_prime):
        with pytest.raises(ValueError, match="^lambda_prime must be a non-negative finite real"):
            ridge_solve(np.eye(2), np.ones(2), lambda_prime)

    @pytest.mark.parametrize("solve", ["ridge", "weighted"])
    def test_overflowing_normal_equations_raise(self, solve):
        # Every entry is finite, but H'H (and H'W H) overflow to inf.
        H = np.array([[1e200, 1.0], [1.0, 2.0], [3.0, 1.0]])
        t = np.array([1.0, 2.0, 3.0])
        with pytest.raises(SolverError, match="^normal equations overflow"):
            if solve == "ridge":
                ridge_solve(H, t, 1e-4)
            else:
                weighted_ridge_step(H, t, KernelParams(5.0, 0.0), 1e-4, np.zeros(2))

    def test_non_finite_solution_raises(self):
        # Cholesky succeeds but the solve returns NaN, whose residual is NaN.
        with pytest.raises(SolverError, match="^linear solve residual nan exceeds tolerance$"):
            solvers._spd_solve(np.diag([1e-300, 1.0]), np.array([1e300, 1.0]))

    @pytest.mark.parametrize("fit", [
        lambda H, t: ridge_solve(H, t, 1e-4),
        lambda H, t: weighted_ridge_step(H, t, KernelParams(1.0, 0.0), 1e-4, np.zeros(2)),
        lambda H, t: fit_mcc(H, t, 1.0),
        lambda H, t: fit_mcc_vc(H, t, default_param_grid()),
        lambda H, t: mcc_vc_gradient(H, t, np.zeros(2), KernelParams(1.0, 0.0), 1e-4),
    ], ids=["ridge_solve", "weighted_ridge_step", "fit_mcc", "fit_mcc_vc", "mcc_vc_gradient"])
    @pytest.mark.parametrize("H, t, message", [
        (np.eye(2), np.ones(3), "targets must have 2 entries"),
        (np.ones(2), np.ones(2), "H must be a non-empty 2-D array"),
        (np.eye(2), np.ones((2, 1)), "targets must be a non-empty 1-D array"),
        (np.zeros((0, 2)), np.zeros(0), "H must be a non-empty 2-D array"),
        (np.zeros((2, 0)), np.zeros(2), "H must be a non-empty 2-D array"),
        (np.array([[1.0], [np.nan]]), np.ones(2), "H contains non-finite entries"),
        (np.eye(2), np.array([1.0, np.inf]), "targets contains non-finite entries"),
    ])
    def test_rejects_a_bad_design(self, fit, H, t, message):
        # Every entry point that takes a design checks it by the same rules.
        with pytest.raises(ValueError, match=message):
            fit(H, t)

    def test_matches_lstsq_on_random_problems(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            H, t, _ = _random_problem(rng)
            expected = np.linalg.lstsq(H, t, rcond=None)[0]
            np.testing.assert_allclose(ridge_solve(H, t, 0.0), expected, rtol=1e-9)


class TestSpdSolve:
    """`_spd_solve` against scipy's cho_factor + cho_solve, a test-only oracle."""

    @pytest.mark.parametrize("m", [1, 2, 50])
    def test_matches_scipy_cholesky_bit_for_bit(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(300):
            # A weighted normal-equation matrix, as `_normal_solve` builds it.
            H = rng.normal(size=(2 * m + 3, m))
            w = rng.uniform(0.0, 1.0, H.shape[0])
            A = H.T @ (w[:, None] * H)
            A.flat[::m + 1] += float(np.exp(rng.uniform(np.log(1e-8), 0.0)))
            b = H.T @ (w * rng.normal(size=H.shape[0]))
            original = A.copy()
            x = solvers._spd_solve(A, b)
            expected = cho_solve(cho_factor(A, lower=True, check_finite=False), b, check_finite=False)
            assert np.array_equal(x, expected)
            # The residual guard read A itself: the factorization left it alone.
            assert np.array_equal(A, original)

    def test_indefinite_matrix_raises_singular(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularSystemError, match="^normal equations are singular; add regularization$"):
            solvers._spd_solve(A, np.ones(2))

    @pytest.mark.parametrize("where", [(0, 0), (1, 0), "b"])
    def test_nan_input_raises(self, where):
        A, b = np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
        if where == "b":
            b[1] = math.nan
        else:
            A[where] = math.nan
        with pytest.raises(SolverError):
            solvers._spd_solve(A, b)

    def test_guard_reads_the_triangle_the_factorization_skips(self):
        # The factorization reads only the lower triangle, so it succeeds;
        # the residual on the original A is NaN.
        A = np.array([[4.0, math.nan], [1.0, 3.0]])
        with pytest.raises(SolverError, match="^linear solve residual nan exceeds tolerance$"):
            solvers._spd_solve(A, np.array([1.0, 2.0]))


# Weight vectors that do not fit a two-column design, and the error each raises.
_BAD_BETAS = [
    ([math.nan, 0.0], "^beta contains non-finite entries$"),
    ([0.0, -math.inf], "^beta contains non-finite entries$"),
    ([1.0, 2.0, 3.0], r"^beta must have 2 entries, got shape \(3,\)$"),
    ([[1.0], [2.0]], r"^beta must be a non-empty 1-D array, got shape \(2, 1\)$"),
]


class TestWeightedRidgeStep:
    @pytest.mark.parametrize("lambda_prime", [-1e-4, math.nan, math.inf])
    def test_rejects_bad_lambda_prime(self, lambda_prime):
        H, t = np.eye(2), np.ones(2)
        with pytest.raises(ValueError, match="^lambda_prime must be a non-negative finite real"):
            weighted_ridge_step(H, t, KernelParams(1.0, 0.0), lambda_prime, np.zeros(2))

    @pytest.mark.parametrize("lambda_prime", [0.0, 1e-3])
    @pytest.mark.parametrize("beta, message", _BAD_BETAS)
    def test_rejects_bad_beta(self, lambda_prime, beta, message):
        with pytest.raises(ValueError, match=message):
            weighted_ridge_step(np.eye(2), np.array([1.0, 2.0]), KernelParams(1.0, 0.0), lambda_prime, beta)

    def test_huge_width_recovers_ols(self):
        rng = np.random.default_rng(1)
        H, t, _ = _random_problem(rng)
        params = KernelParams(1e8, 0.0)
        step = weighted_ridge_step(H, t, params, 0.0, np.zeros(H.shape[1]))
        ols = ridge_solve(H, t, 0.0)
        np.testing.assert_allclose(step, ols, rtol=1e-6)

    def test_residuals_at_center_give_uniform_weights(self):
        rng = np.random.default_rng(2)
        H = rng.normal(size=(40, 3))
        beta_prev = rng.normal(size=3)
        c = 1.7
        t = H @ beta_prev + c  # residuals identically equal to the center
        step = weighted_ridge_step(H, t, KernelParams(0.9, c), 0.0, beta_prev)
        ols = ridge_solve(H, t - c, 0.0)
        np.testing.assert_allclose(step, ols, rtol=1e-10)

    def test_one_dimensional_hand_oracle(self):
        # closed form beta = sum(w h t') / sum(w h^2) with w = G_sigma(e - c);
        # oracle value computed independently at high precision.
        H = np.array([[1.0], [1.0]])
        t = np.array([0.0, 10.0])
        step = weighted_ridge_step(H, t, KernelParams(1.0, 0.0), 0.0, np.array([0.0]))
        assert step[0] == pytest.approx(1.9287498479639178e-21, rel=1e-10)
        w = gaussian_kernel(t, 1.0)
        brute = float((w * H[:, 0] * t).sum() / (w * H[:, 0] ** 2).sum())
        assert step[0] == pytest.approx(brute, rel=1e-10)

    def test_all_weights_underflow_raises(self):
        # No weight is a normal float, so the step has no data term: with
        # lambda' > 0 it would solve lambda' I beta = 0 and return beta = 0.
        # The weights of [37.8, 38.2] are subnormal (about 2e-311 and 5e-318).
        H = np.array([[1.0], [1.0]])
        for targets in ([1e6, 2e6], [37.8, 38.2]):
            for lambda_prime in (0.0, 1e-4, 1.0):
                with pytest.raises(DegenerateWeightsError, match="rescale the targets"):
                    weighted_ridge_step(H, np.array(targets), KernelParams(1.0, 0.0),
                                        lambda_prime, np.array([0.0]))

    def test_one_normal_weight_is_enough(self):
        # The same two samples with one within reach solve for it alone.
        H = np.array([[1.0], [1.0]])
        t = np.array([1.0, 38.2])
        step = weighted_ridge_step(H, t, KernelParams(1.0, 0.0), 0.0, np.array([0.0]))
        assert step[0] == pytest.approx(1.0, rel=1e-12)

    def test_subnormal_weights_are_flushed_to_zero(self, monkeypatch):
        # Residuals 37.8-38.2 widths out have subnormal weights; the step
        # solves the normal equations with them set to 0.
        rng = np.random.default_rng(61)
        H = rng.normal(size=(400, 5))
        beta_prev = rng.normal(size=5)
        e = rng.normal(0.0, 1.0, 400)
        e[::50] = rng.uniform(37.8, 38.2, 8)
        t = H @ beta_prev + e
        seen = []
        normal_equations = solvers._normal_equations
        monkeypatch.setattr(solvers, "_normal_equations", lambda H, r, w: (
            seen.append(w.copy()) or normal_equations(H, r, w)))
        step = weighted_ridge_step(H, t, KernelParams(1.0, 0.0), 1e-4, beta_prev)
        w = gaussian_kernel(t - H @ beta_prev, 1.0)
        assert np.count_nonzero((w > 0.0) & (w < sys.float_info.min)) == 8
        w[w < sys.float_info.min] = 0.0
        np.testing.assert_array_equal(seen[0], w)
        A = H.T @ (w[:, None] * H) + 1e-4 * np.eye(5)
        np.testing.assert_allclose(step, np.linalg.solve(A, H.T @ (w * t)), rtol=1e-10)

    def test_singular_system_needs_regularization(self):
        # A duplicated column makes H' W H exactly singular: with lambda' = 0
        # there is no unique step, and any positive lambda' restores one.
        H, t = _DUPLICATED_COLUMN
        with pytest.raises(SingularSystemError):
            weighted_ridge_step(H, t, KernelParams(5.0, 0.0), 0.0, np.zeros(2))
        beta = weighted_ridge_step(H, t, KernelParams(5.0, 0.0), 1e-4, np.zeros(2))
        w = gaussian_kernel(t, 5.0)
        A = H.T @ (w[:, None] * H) + 1e-4 * np.eye(2)
        b = H.T @ (w * t)
        assert np.max(np.abs(A @ beta - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))

    @pytest.mark.parametrize("fit", ["mcc", "mcc-vc"])
    def test_unregularized_singular_fit_fails_at_first_iteration(self, fit, caplog):
        H, t = _DUPLICATED_COLUMN
        steps = []

        def hook(k, residuals, params, beta):
            steps.append(k)

        with caplog.at_level("DEBUG", logger="mccvc.solvers"):
            with pytest.raises(SingularSystemError):
                if fit == "mcc":
                    fit_mcc(H, t, 5.0, FitConfig(lambda_prime=0.0), on_iteration=hook)
                else:
                    grid = ParamGrid(np.array([1.0, 5.0]), np.array([-1.0, 0.0, 1.0]))
                    fit_mcc_vc(H, t, grid, FitConfig(lambda_prime=0.0), on_iteration=hook)
        assert steps == []
        assert not [r for r in caplog.records if r.name == "mccvc.solvers"]


class TestFixedPointLoops:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(4)
        H, _, beta_true = _random_problem(rng, n=80, m=4, noise=0.0)
        t = H @ beta_true
        grid = ParamGrid(np.linspace(0.2, 5.0, 25), np.linspace(-5, 5, 101))
        res = fit_mcc_vc(H, t, grid, FitConfig(lambda_prime=0.0))
        assert np.max(np.abs(res.beta - beta_true)) <= 1e-6
        assert res.iterations_run <= 100

    def test_noise_free_recovery_median_rule(self):
        rng = np.random.default_rng(5)
        H, _, beta_true = _random_problem(rng, n=80, m=4, noise=0.0)
        t = H @ beta_true
        grid = ParamGrid(
            np.linspace(0.2, 5.0, 25), None, CenterRule.MEDIAN_OF_ERRORS
        )
        res = fit_mcc_vc(H, t, grid, FitConfig(lambda_prime=0.0))
        assert np.max(np.abs(res.beta - beta_true)) <= 1e-6

    def test_singleton_grid_reduces_to_fixed_center_loop(self):
        rng = np.random.default_rng(6)
        H, t, _ = _random_problem(rng, noise=1.0)
        sigma = 1.3
        grid = ParamGrid(np.array([sigma]), np.array([0.0]))
        vc = fit_mcc_vc(H, t, grid, FitConfig(lambda_prime=1e-4))
        base = fit_mcc(H, t, sigma, FitConfig(lambda_prime=1e-4))
        assert vc.iterations_run == base.iterations_run
        assert vc.converged == base.converged
        assert np.array_equal(vc.beta, base.beta)
        for a, b in zip(vc.trace, base.trace):
            assert (a.sigma, a.center, a.cost, a.max_delta) == (
                b.sigma, b.center, b.cost, b.max_delta,
            )

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(7)
        H, t, _ = _random_problem(rng, noise=2.0)
        grid = ParamGrid(np.linspace(0.2, 3.0, 8), np.linspace(-2, 2, 11))
        a = fit_mcc_vc(H, t, grid)
        b = fit_mcc_vc(H, t, grid)
        assert np.array_equal(a.beta, b.beta)
        assert a.trace == b.trace

    def test_large_width_matches_ols_in_one_step(self):
        rng = np.random.default_rng(8)
        H, t, _ = _random_problem(rng, noise=0.5)
        res = fit_mcc(H, t, 1e6, FitConfig(lambda_prime=0.0))
        np.testing.assert_allclose(res.beta, ridge_solve(H, t, 0.0), rtol=1e-6)
        assert res.converged

    def test_trace_structure(self):
        rng = np.random.default_rng(9)
        H, t, _ = _random_problem(rng, noise=1.0)
        res = fit_mcc(H, t, sigma=2.0)
        assert len(res.trace) == res.iterations_run
        assert all(r.sigma == 2.0 and r.center == 0.0 for r in res.trace)
        assert np.all(np.isfinite(res.beta))

    def test_fit_mcc_rejects_width_whose_square_underflows(self):
        # The one width rule, `_checks.check_width`, as in `gaussian_kernel`.
        H, t, _ = _random_problem(np.random.default_rng(4))
        with pytest.raises(ValueError, match="underflows"):
            fit_mcc(H, t, 1e-300, FitConfig(lambda_prime=1e-4))

    @pytest.mark.parametrize("fit", [
        lambda H, t, config: fit_mcc(H, t, 4.0, config),
        lambda H, t, config: fit_mcc_vc(H, t, default_param_grid(), config),
    ], ids=["fit_mcc", "fit_mcc_vc"])
    @pytest.mark.parametrize("lambda_prime", [0.0, 1e-4])
    def test_shifted_targets_raise_rather_than_fit_beta_zero(self, fit, lambda_prime):
        # Targets 1000 above every center of the grid: the first step sees no
        # residual within reach of any kernel, and a fit that solved it anyway
        # would report beta = 0 as converged.
        H, t = synth_case_design(1, 400, 3)
        with pytest.raises(DegenerateWeightsError):
            fit(H, t + 1000.0, FitConfig(lambda_prime=lambda_prime))

    @pytest.mark.parametrize(
        "settings",
        [{"max_iterations": 0}, {"tolerance": 0.0}, {"tolerance": -1.0}, {"lambda_prime": -1.0}],
    )
    def test_fit_mcc_checks_loop_settings_like_fit_config(self, settings):
        H, t, _ = _random_problem(np.random.default_rng(10))
        with pytest.raises(ValueError):
            fit_mcc(H, t, 1.0, FitConfig(**settings))

    def test_huge_residuals_are_rejected_before_the_first_solve(self, monkeypatch):
        def solve(*args):
            raise AssertionError("a normal-equation system was assembled")

        monkeypatch.setattr(solvers, "_normal_equations", solve)
        H = np.ones((400, 1))
        t = np.array([0.0, 1e160, 1.0, 2.0] * 100)
        grid = ParamGrid(np.array([0.5, 1.0]), np.array([-1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="^error spread overflows"):
            fit_mcc_vc(H, t, grid)

    @pytest.mark.parametrize("fit", ["mcc", "mcc-vc"])
    def test_non_finite_residuals_raise(self, fit, monkeypatch):
        # A finite beta whose product with H overflows (numpy warns of it):
        # the loop checks each step's new residuals, as `mcc_vc_cost` checks
        # its errors.
        monkeypatch.setattr(solvers, "_normal_equations", lambda *args: (np.eye(1), np.array([1e10])))
        H, t = np.array([[1e300], [1.0], [2.0]]), np.array([0.0, 1.0, 2.0])
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="^errors contains non-finite entries$"):
            if fit == "mcc":
                fit_mcc(H, t, 1.0)
            else:
                fit_mcc_vc(H, t, ParamGrid(np.array([1.0]), np.array([0.0])))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(lambda_prime=-1.0)
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        for count in (2.5, True):
            with pytest.raises(ValueError, match="max_iterations must be an integer"):
                FitConfig(max_iterations=count)
        with pytest.raises(ValueError):
            FitConfig(tolerance=0.0)


class TestCenterFreeze:
    DELTA = 0.37

    def test_spans_constant(self):
        rng = np.random.default_rng(12)
        H = rng.normal(size=(50, 3))
        assert not solvers._spans_constant(H)
        assert solvers._spans_constant(np.column_stack([np.ones(50), H]))
        assert solvers._spans_constant(_elm_problem()[0])

    @pytest.mark.parametrize("problem", ["elm", "linear"])
    def test_a_passed_span_answer_replaces_the_test_bit_for_bit(self, problem, monkeypatch):
        if problem == "elm":
            H, t = _elm_problem()
        else:
            rng = np.random.default_rng(14)
            H = rng.normal(size=(120, 3))
            t = H @ [1.0, -2.0, 0.5] + 0.1 * rng.normal(size=120)
        tested = fit_mcc_vc(H, t, _MEDIAN_GRID)
        answer = solvers._spans_constant(H)

        def untested(_H):
            raise AssertionError("the span test ran although its answer was passed")

        monkeypatch.setattr(solvers, "_spans_constant", untested)
        passed = fit_mcc_vc(H, t, _MEDIAN_GRID, start=solvers.FitStart(H, t, answer))
        assert np.array_equal(passed.beta, tested.beta)
        assert passed.trace == tested.trace

    def test_shifted_targets_move_only_the_center_without_an_intercept(self):
        rng = np.random.default_rng(13)
        H = rng.normal(size=(120, 3))
        t = H @ [1.0, -2.0, 0.5] + 0.1 * rng.normal(size=120) + 0.2
        t[:12] += 5.0
        grid = ParamGrid(np.linspace(0.05, 2.0, 40), None, CenterRule.MEDIAN_OF_ERRORS)
        base = fit_mcc_vc(H, t, grid)
        shifted = fit_mcc_vc(H, t + self.DELTA, grid)
        assert base.converged and shifted.iterations_run == base.iterations_run
        # The center is re-chosen at every step, not frozen.
        assert len({r.center for r in base.trace}) == base.iterations_run
        for a, b in zip(base.trace, shifted.trace):
            assert a.sigma == b.sigma
            assert abs(b.center - a.center - self.DELTA) <= 1e-12
        assert np.max(np.abs(shifted.beta - base.beta)) <= 1e-12

    def test_confounded_center_is_frozen_and_predictions_shift(self):
        H, t = _elm_problem()
        config = FitConfig(lambda_prime=1e-4)
        base = fit_mcc_vc(H, t, _MEDIAN_GRID, config)
        shifted = fit_mcc_vc(H, t + self.DELTA, _MEDIAN_GRID, config)
        for res in (base, shifted):
            assert res.converged and res.iterations_run < config.max_iterations
            assert all(r.center == res.trace[0].center for r in res.trace[1:])
        assert len({r.sigma for r in base.trace}) > 1  # sigma is still re-chosen
        predict = lambda res: H @ res.beta + res.trace[-1].center  # noqa: E731
        assert np.max(np.abs(predict(shifted) - predict(base) - self.DELTA)) <= 1e-8

    def test_frozen_search_is_a_one_center_explicit_grid(self, monkeypatch):
        grids, optimize = [], solvers.optimize_params

        def search(e, grid, state):
            grids.append(grid)
            return optimize(e, grid, state)

        monkeypatch.setattr(solvers, "optimize_params", search)
        H, t = _elm_problem()
        res = fit_mcc_vc(H, t, _MEDIAN_GRID)
        assert len(grids) == res.iterations_run and grids[0] is _MEDIAN_GRID
        for grid in grids[1:]:
            assert grid.center_rule is CenterRule.EXPLICIT_GRID
            assert list(grid.center_set) == [res.trace[0].center]
            assert np.array_equal(grid.sigma_set, _MEDIAN_GRID.sigma_set)


class TestSharedStart:
    """Fits that share one `FitStart` of `_elm_problem`, as the lambda'
    candidates of a data-bench fold do, equal fits without it bit for bit in
    either order of lambda', and every guard of the shared first step still
    fires in each fit."""

    LAMBDAS = (0.0, 1e-6, 1e-4, 1.0)
    # fit_mcc at one width, and a confounded fit_mcc_vc (the ELM features span 1).
    FITS = {"mcc": (fit_mcc, 0.05), "vc": (fit_mcc_vc, _MEDIAN_GRID)}

    @pytest.mark.parametrize("order", [1, -1], ids=["listed", "reversed"])
    @pytest.mark.parametrize("method", ["mcc", "vc"])
    def test_shared_fits_equal_fits_alone(self, method, order, monkeypatch):
        fit, kernel = self.FITS[method]
        H, t = _elm_problem()
        start = solvers.FitStart(H, t)
        searches, optimize = [], solvers.optimize_params
        monkeypatch.setattr(solvers, "optimize_params",
                            lambda e, grid, state: searches.append(grid) or optimize(e, grid, state))
        kept = False  # whether a fit through the start has made its first search
        for lambda_prime in self.LAMBDAS[::order]:
            config = FitConfig(lambda_prime)
            if lambda_prime == 0.0:
                # H'WH is singular: the factorization fails in the fit alone
                # and in every fit through the start.
                for shared in (False, True, True):
                    with pytest.raises(SingularSystemError, match="^normal equations are singular"):
                        fit(H, t, kernel, config, start=start if shared else None)
                kept = True
                continue
            del searches[:]
            alone = fit(H, t, kernel, config)
            searched_alone = len(searches)
            shared = fit(H, t, kernel, config, start=start)
            assert np.array_equal(shared.beta, alone.beta)
            assert shared.trace == alone.trace
            assert (shared.iterations_run, shared.converged) == (alone.iterations_run, alone.converged)
            # Once kept, a shared fit takes its first search from the start.
            assert len(searches) - searched_alone == (method == "vc") * (alone.iterations_run - kept)
            kept = True

    @pytest.mark.parametrize("method", ["mcc", "vc"])
    def test_a_first_step_with_no_weight_raises_in_every_fit(self, method):
        # Residuals 1000 from the center and widths of at most 0.25: every
        # first weight is 0.  A failed first step keeps nothing for the next.
        H, t = _elm_problem()
        if method == "mcc":
            fit, kernel, t = fit_mcc, 0.05, t + 1e3
        else:
            fit, kernel = fit_mcc_vc, ParamGrid(_MEDIAN_GRID.sigma_set, np.array([1e3]))
        start = solvers.FitStart(H, t)
        for lambda_prime in self.LAMBDAS + self.LAMBDAS:
            with pytest.raises(DegenerateWeightsError, match="^no residual is within reach"):
                fit(H, t, kernel, FitConfig(lambda_prime), start=start)

    def test_each_fit_holds_its_own_width_intervals(self):
        # The kept state of the first search and every fit's copy of it hold
        # their own intervals: a write into one leaves the others as they were.
        H, t = _elm_problem()
        start = solvers.FitStart(H, t)
        params, first = start.first_search(t, _MEDIAN_GRID)
        lo, hi = first.lo.copy(), first.hi.copy()
        for _ in range(2):
            again, state = start.first_search(t, _MEDIAN_GRID)
            assert again == params and state is not first
            assert np.array_equal(state.lo, lo) and np.array_equal(state.hi, hi)
            state.lo[:], state.hi[:] = -np.inf, np.inf
        assert np.array_equal(first.lo, lo) and np.array_equal(first.hi, hi)

    def test_the_first_cost_is_taken_before_the_weights_are_flushed(self):
        # Residuals 37.6-38.2 widths out: one kernel value is just above the
        # smallest normal float and the rest are subnormal, so the flushed
        # weights' mean would be another float.
        t = np.array([37.6, 37.8, 38.0, 38.2])
        kv = gaussian_kernel(t, 1.0)
        assert kv.max() >= sys.float_info.min > kv[1] > 0.0
        start = solvers.FitStart(np.ones((4, 1)), t)
        assert start.first_step(KernelParams(1.0, 0.0), t)[0] == -float(kv.mean())

    def test_a_start_holds_the_fits_own_rows(self):
        H, t = _elm_problem()
        start = solvers.FitStart(H, t)
        for rows in ((H.copy(), t), (H, t.copy())):
            with pytest.raises(ValueError, match="^a start must hold the fit's own H and targets$"):
                fit_mcc(*rows, 0.05, start=start)


class TestRelativeStop:
    def test_stops_at_the_first_step_within_the_relative_tolerance(self):
        # A width of 0.05 makes |J| about 4.7, so the relative rule stops
        # where the cost still changes by more than the tolerance itself.
        H, t = _elm_problem()
        config = FitConfig(lambda_prime=1e-4, tolerance=1e-6)
        res = fit_mcc(H, t, 0.05, config)
        assert res.converged and res.iterations_run < config.max_iterations
        params = KernelParams(0.05, 0.0)
        costs = [mcc_vc_cost(t, params, 0.0, config.lambda_prime)] + [r.cost for r in res.trace]
        changes = [abs(b - a) / max(1.0, abs(a)) for a, b in zip(costs, costs[1:])]
        assert all(c >= config.tolerance for c in changes[:-1])
        assert changes[-1] < config.tolerance
        assert abs(costs[-1] - costs[-2]) >= config.tolerance


def _hooked(fit):
    """Run `fit(hook)` and return its result and every (residuals, params, beta)
    that the hook saw."""
    steps = []
    res = fit(lambda k, e, params, beta: steps.append((e.copy(), params, beta.copy())))
    assert len(steps) == res.iterations_run
    return res, steps


def _replay_stop_rule(H, t, fit, config):
    """Run `fit(hook)` and replay it through the public functions at each
    step's own (sigma, c), bit for bit: beta_k is `weighted_ridge_step` from
    beta_k-1, whose residuals the hook passed, and the traced cost is
    `mcc_vc_cost` at beta_k.  The fit must stop at exactly the first step
    whose change from `mcc_vc_cost` at beta_k-1 is within tolerance *
    max(1, |J before|)."""
    res, steps = _hooked(fit)
    lambda_prime, beta_prev, stops = config.lambda_prime, np.zeros(H.shape[1]), []
    for (e, params, beta), record in zip(steps, res.trace):
        assert np.array_equal(e, t - H @ beta_prev)
        assert np.array_equal(beta, weighted_ridge_step(H, t, params, lambda_prime, beta_prev))
        before = mcc_vc_cost(e, params, float(beta_prev @ beta_prev), lambda_prime)
        after = mcc_vc_cost(t - H @ beta, params, float(beta @ beta), lambda_prime)
        assert (record.sigma, record.center, record.cost) == (params.sigma, params.center, after)
        stops.append(abs(after - before) < config.tolerance * max(1.0, abs(before)))
        beta_prev = beta
    assert np.array_equal(res.beta, beta_prev)
    assert res.converged and stops.index(True) == res.iterations_run - 1
    return res


class TestStopRuleReplay:
    """Fits replayed through the public `weighted_ridge_step` and `mcc_vc_cost`
    (see `_replay_stop_rule`)."""

    CONFIG = FitConfig()

    def test_fit_mcc(self):
        H, t = _elm_problem()
        _replay_stop_rule(H, t, lambda hook: fit_mcc(H, t, 0.05, self.CONFIG, hook), self.CONFIG)

    def test_fit_mcc_vc_with_a_moving_kernel(self):
        H, t = synth_case_design(2, 400, 0)
        grid = default_param_grid()
        res = _replay_stop_rule(H, t, lambda hook: fit_mcc_vc(H, t, grid, self.CONFIG, hook), self.CONFIG)
        assert len({(r.sigma, r.center) for r in res.trace}) > 1

    def test_fit_mcc_vc_with_a_frozen_center(self):
        H, t = _elm_problem()
        res = _replay_stop_rule(H, t, lambda hook: fit_mcc_vc(H, t, _MEDIAN_GRID, self.CONFIG, hook), self.CONFIG)
        assert len({r.center for r in res.trace}) == 1 and len({r.sigma for r in res.trace}) > 1

    def test_fit_mcc_vc_stopping_at_a_kernel_change(self):
        # Nearly noise-free: beta barely moves after the first step, so the
        # fit stops at a step whose median center differs from the last
        # step's, where the last step's cost is not this step's pre-step cost.
        H, t, _ = _random_problem(np.random.default_rng(0), n=200, m=3, noise=1e-6)
        grid = ParamGrid(np.linspace(0.5, 5.0, 10), None, CenterRule.MEDIAN_OF_ERRORS)
        res = _replay_stop_rule(H, t, lambda hook: fit_mcc_vc(H, t, grid, self.CONFIG, hook), self.CONFIG)
        assert res.trace[-1].center != res.trace[-2].center


def _scaled_grid(grid: ParamGrid, s: float) -> ParamGrid:
    centers = None if grid.center_set is None else s * grid.center_set
    return ParamGrid(s * grid.sigma_set, centers, grid.center_rule)


def _iterates(fit, H, t, kernel, lambda_prime):
    """Every (residuals, sigma*, c*, beta_next) that `fit` passes to its hook
    in at most 30 steps.  The 1e-300 tolerance stops a fit only at a step that
    leaves its cost unchanged: the stop rule's max(1, |J|) is not scale-free."""
    steps = []
    fit(H, t, kernel, FitConfig(lambda_prime, 30, 1e-300),
        lambda k, e, params, beta: steps.append((e.copy(), params.sigma, params.center, beta)))
    return steps


class TestScaleEquivariance:
    """Targets, widths and centers times 4 and lambda' / 4 scale every iterate
    by exactly 4: the kernel, its self-energy and the Cholesky factor all scale
    by powers of 2, so an absolute constant slipped into the search or the step
    breaks the equality."""

    S = 4.0

    @pytest.mark.parametrize("problem", [
        *[(case, seed, rule) for case in (1, 2, 3, 4) for seed in (0, 1)
          for rule in ("grid", "median", "mean")],
        "mcc",
        "elm",
    ])
    def test_every_iterate_scales_by_four(self, problem):
        lambda_prime = FitConfig().lambda_prime
        if problem == "mcc":
            H, t = synth_case_design(3, 400, 0)
            fit, kernel, scaled = fit_mcc, 2.0, self.S * 2.0
        else:
            if problem == "elm":
                # The features span the constant vector, so the center freezes.
                (H, t), grid = _elm_problem(), _MEDIAN_GRID
            else:
                case, seed, rule = problem
                H, t = synth_case_design(case, 400, seed)
                grid = default_param_grid()
                if rule != "grid":
                    grid = ParamGrid(grid.sigma_set, None, rule)
            fit, kernel, scaled = fit_mcc_vc, grid, _scaled_grid(grid, self.S)
        base = _iterates(fit, H, t, kernel, lambda_prime)
        steps = _iterates(fit, H, self.S * t, scaled, lambda_prime / self.S)
        assert len(steps) == len(base)
        for (e, sigma, center, beta), (e4, sigma4, center4, beta4) in zip(base, steps):
            assert np.array_equal(e4, self.S * e)
            assert (sigma4, center4) == (self.S * sigma, self.S * center)
            assert np.array_equal(beta4, self.S * beta)
        if problem == "elm":
            assert len({center for _, _, center, _ in base}) == 1


class TestLoopCalls:
    """What one step of the loop calls: `optimize_params` once through this
    module's global in `fit_mcc_vc`, `_kernel_values` once plus once more
    where the kernel moves, and neither public `weighted_ridge_step` nor
    `mcc_vc_cost`, whose checks the fit ran once at its boundary."""

    @pytest.mark.parametrize("problem", ["mcc", "vc-linear", "vc-elm"])
    def test_calls_per_step(self, problem, monkeypatch):
        counts = dict.fromkeys(
            ("optimize_params", "_kernel_values", "weighted_ridge_step", "mcc_vc_cost"), 0)
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(solvers, name)):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(solvers, name, counted)
        if problem == "mcc":
            res = fit_mcc(*_elm_problem(), 0.05)
        elif problem == "vc-linear":
            res = fit_mcc_vc(*synth_case_design(2, 400, 0), default_param_grid())
        else:
            res = fit_mcc_vc(*_elm_problem(), _MEDIAN_GRID)
        kernels = [(r.sigma, r.center) for r in res.trace]
        changes = sum(a != b for a, b in zip(kernels, kernels[1:]))
        assert res.iterations_run > 1
        if problem != "mcc":
            assert 0 < changes < res.iterations_run - 1
        # One kernel evaluation after every step, and one before the first
        # step and each step whose kernel moved.
        assert counts == {
            "optimize_params": 0 if problem == "mcc" else res.iterations_run,
            "_kernel_values": res.iterations_run + 1 + changes,
            "weighted_ridge_step": 0,
            "mcc_vc_cost": 0,
        }


def _gaussian(u, sigma):
    """The kernel written out from its definition, apart from the package."""
    return np.exp(-0.5 * (u / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)


def _replay_reference(H, t, res, steps, kernel, lambda_prime):
    """Replay a fit's steps against a plain loop: the full-table search
    `_reference_optimize_params` (or the frozen (sigma, 0) of `fit_mcc`,
    `kernel` a float), `np.linalg.solve` on the weighted normal equations at
    the hook's residuals, and the cost from its definition.  Each step's
    (sigma, c) must be the reference pick, beta within 1e-9 relative of the
    reference solve, and the traced cost `mcc_vc_cost` at beta bit for bit
    and within 1e-13 of V + penalty of the definition: J = -V + penalty can
    cancel far below its terms, so J itself is no scale for the gap.  Two
    backward-stable solves of one system differ by up to about kappa(A) eps
    relative, so an ill-conditioned system (the ELM design's kappa is about
    2e8, where the gap reads up to 0.24 kappa eps) gets 4 kappa eps."""
    n, m = H.shape
    ones = np.ones(n)
    confounded = np.sqrt(np.mean((ones - H @ np.linalg.lstsq(H, ones, rcond=None)[0]) ** 2)) < 1e-8
    grid, beta_prev = kernel, np.zeros(m)
    for (e, params, beta), record in zip(steps, res.trace):
        np.testing.assert_allclose(e, t - H @ beta_prev, rtol=0.0, atol=1e-12 * (1.0 + np.abs(t).max()))
        if isinstance(kernel, float):
            pick = KernelParams(kernel, 0.0)
        else:
            pick = _reference_optimize_params(e, grid)[0]
            if confounded and grid is kernel:
                # 1 in span(H): later searches keep the first center.
                grid = ParamGrid(kernel.sigma_set, [pick.center], CenterRule.EXPLICIT_GRID)
        assert params == pick
        w = _gaussian(e - pick.center, pick.sigma)
        A = H.T @ (w[:, None] * H) + lambda_prime * np.eye(m)
        ref = np.linalg.solve(A, H.T @ (w * (t - pick.center)))
        rtol = max(1e-9, 4.0 * np.linalg.cond(A) * sys.float_info.epsilon)
        assert np.abs(beta - ref).max() <= rtol * np.abs(ref).max()
        assert record.cost == mcc_vc_cost(t - H @ beta, pick, float(beta @ beta), lambda_prime)
        v = np.mean(_gaussian(t - H @ beta - pick.center, pick.sigma))
        penalty = lambda_prime * (beta @ beta) / (2.0 * n * pick.sigma ** 2)
        assert abs(record.cost - (penalty - v)) <= 1e-13 * (v + penalty)
        beta_prev = beta


def _mirrored_problem():
    """A design whose rows come in pairs (h, t) and (-h, -t), 128 of each: every
    residual vector is mirrored, so the exact objectives at c and -c are sums
    of the same two halves and tie bit for bit, and the targets' two modes at
    +/-3 put the grid minimum at such a pair."""
    rng = np.random.default_rng(22)
    x = rng.uniform(0.5, 2.0, 128)
    y = 1.5 * x + np.where(rng.random(128) < 0.5, 3.0, -3.0) + rng.normal(0.0, 0.3, 128)
    return np.concatenate([x, -x])[:, None], np.concatenate([y, -y])


def _clamped_problem():
    """A line through the origin fitted exactly by 90% of the samples: once beta
    is near its slope their residuals are within rounding of 0, a width far
    below 1e-3 of the residual spread is clamped up to that floor, and the
    clamped width wins the search."""
    rng = np.random.default_rng(21)
    x = rng.uniform(1.0, 2.0, 200)
    t = 2.0 * x
    t[::10] += rng.normal(0.0, 3.0, 20)
    return x[:, None], t


class TestReferenceLoop:
    """Every step of a fit against a plain reference loop (see `_replay_reference`)."""

    @pytest.mark.parametrize("problem", [
        *[(case, rule) for case in (1, 2, 3, 4) for rule in ("grid", "median", "mean")],
        "elm", "clamped", "mcc", "mcc-elm",
    ], ids=lambda p: p if isinstance(p, str) else f"case{p[0]}-{p[1]}")
    def test_every_step_matches_the_reference(self, problem):
        lambda_prime = FitConfig().lambda_prime
        if problem == "mcc":
            (H, t), kernel = synth_case_design(3, 400, 0), 2.0
        elif problem == "mcc-elm":
            (H, t), kernel = _elm_problem(), 0.05
        elif problem == "elm":
            # The features span the constant vector, so the center freezes.
            (H, t), kernel = _elm_problem(), _MEDIAN_GRID
        elif problem == "clamped":
            (H, t), kernel = _clamped_problem(), ParamGrid(
                np.array([1e-9, 0.5, 1.0]), None, CenterRule.MEDIAN_OF_ERRORS)
        else:
            case, rule = problem
            H, t = synth_case_design(case, 400, 0)
            kernel = default_param_grid()
            if rule != "grid":
                kernel = ParamGrid(kernel.sigma_set, None, rule)
        fit = fit_mcc if isinstance(kernel, float) else fit_mcc_vc
        res, steps = _hooked(lambda hook: fit(H, t, kernel, FitConfig(lambda_prime), hook))
        assert res.iterations_run > 1
        if problem == "clamped":
            assert any(params.sigma not in kernel.sigma_set for _, params, _ in steps)
        _replay_reference(H, t, res, steps, kernel, lambda_prime)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(8, 160),
        m=st.integers(1, 3),
        hidden=st.sampled_from([0, 3, 6]),
        case=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        widths=st.lists(st.floats(0.05, 6.0), min_size=1, max_size=6),
        clamped=st.integers(0, 2),
        rule=st.sampled_from(["grid", "mean", "median"]),
        n_centers=st.integers(2, 30),
        reach=st.floats(0.5, 8.0),
        lambda_prime=st.sampled_from([1e-8, 1e-4, 1e-2, 1.0]),
        exact=st.booleans(),
    )
    # Two draws whose final cost J = -V + penalty cancels: in the first, J is
    # about 1e-6 from terms near 0.03.
    @example(n=8, m=1, hidden=6, case=1, seed=65536, widths=[3.09765625], clamped=0, rule="mean",
             n_centers=2, reach=1.0, lambda_prime=0.01, exact=False)
    @example(n=50, m=3, hidden=3, case=3, seed=9401, widths=[0.75, 0.6168668246327298], clamped=0,
             rule="mean", n_centers=2, reach=1.0, lambda_prime=1.0, exact=True)
    def test_drawn_designs(self, n, m, hidden, case, seed, widths, clamped, rule, n_centers,
                           reach, lambda_prime, exact):
        # m inputs of one contamination case, as linear features or through an
        # ELM layer of `hidden` nodes, with the case's noise on every target
        # or, `exact`, on every 10th only.  Widths below 1e-5 lie under the
        # clamp floor, 1e-3 of a residual spread that moves at every step, so
        # on an explicit grid the carried rows of the clamped widths restart
        # in the middle of the fit, and near-exact residuals let them win.
        H, t = synth_case_design(case, n, seed, tuple(np.linspace(1.0, 2.0, m)))
        if hidden:
            H = elm_features(init_elm(m, hidden, seed), H)
        if exact:
            t = np.where(np.arange(n) % 10, H.sum(axis=1), t)
        sigmas = np.unique([*widths, *np.geomspace(1e-9, 1e-5, clamped)])
        centers = np.linspace(-reach, reach, n_centers) if rule == "grid" else None
        grid = ParamGrid(sigmas, centers, rule)
        config = FitConfig(lambda_prime, max_iterations=30)
        try:
            res, steps = _hooked(lambda hook: fit_mcc_vc(H, t, grid, config, hook))
        except DegenerateWeightsError:
            # A picked kernel that reaches no residual (a mean-rule center in
            # a gap of the residuals, say) raises by the step's stated rule,
            # and leaves no fit to replay.
            reject()
        _replay_reference(H, t, res, steps, grid, lambda_prime)

    @pytest.mark.parametrize("case", [1, 2, 3, 4, "mirrored"])
    def test_every_step_with_screens_at_their_bound(self, case):
        # Every screen of the fit errs by 0.9 of its bound (`_screen_off_by`):
        # up at some centers and down at others, drawn afresh for each search,
        # or, on the mirrored design, down at every center above 0 and up at
        # every one below, so the screen favors the larger of two tied
        # centers.  The searches rely on the bound alone, so each step is
        # still the reference's.
        if case == "mirrored":
            H, t = _mirrored_problem()
            grid = ParamGrid(default_param_grid().sigma_set, np.arange(-50, 51) / 10)
        else:
            H, t = synth_case_design(case, 400, 0)
            grid = default_param_grid()
        rng, screens, optimize = np.random.default_rng(70), [], solvers.optimize_params

        def search(e, grid, state):
            c = grid.center_set
            theta = -0.9 * np.sign(c) if case == "mirrored" else rng.choice([-0.9, 0.9], c.size)
            screens.append(_screen_off_by(theta, e, c))
            return optimize(e, grid, state)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "optimize_params", search)
            mp.setattr(kernels, "_screened_objectives", lambda *args: screens[-1](*args))
            res, steps = _hooked(lambda hook: fit_mcc_vc(H, t, grid, FitConfig(), hook))
        assert len(screens) == res.iterations_run > 1
        _replay_reference(H, t, res, steps, grid, FitConfig().lambda_prime)
        if case == "mirrored":
            # The premise: the fit picks the lesser of two centers that tie.
            assert any(p.center < 0.0 and param_objective(e, p.sigma, p.center)
                       == param_objective(e, p.sigma, -p.center) for e, p, _ in steps)


class TestHalfQuadraticDescent:
    def test_step_never_raises_the_cost_at_its_kernel(self):
        # At a fixed (sigma, c) the update minimizes a quadratic majorizer of
        # the cost, so the cost at the same lambda' cannot rise.
        rng = np.random.default_rng(15)
        n, m = 60, 3
        rises = []
        for _ in range(500):
            H = rng.normal(size=(n, m))
            t = H @ rng.normal(size=m) + rng.normal(0.0, 0.5, n)
            outliers = rng.choice(n, n // 10, replace=False)
            t[outliers] += rng.normal(8.0, 4.0, outliers.size)
            params = KernelParams(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-1.0, 1.0)))
            lambda_prime = float(np.exp(rng.uniform(np.log(1e-2), np.log(30.0))))
            beta = rng.normal(size=m)
            step = weighted_ridge_step(H, t, params, lambda_prime, beta)
            before = mcc_vc_cost(t - H @ beta, params, float(beta @ beta), lambda_prime)
            after = mcc_vc_cost(t - H @ step, params, float(step @ step), lambda_prime)
            if after > before + 1e-12 * (1.0 + abs(before)):
                rises.append((after - before, params, lambda_prime))
        assert rises == []


def _assert_stationary(H, t, res, lambda_prime):
    assert res.converged
    last = res.trace[-1]
    g = mcc_vc_gradient(H, t, res.beta, KernelParams(last.sigma, last.center), lambda_prime)
    assert np.max(np.abs(g)) <= 1e-5 * (1.0 + np.max(np.abs(res.beta)))


class TestStationarity:
    def test_gradient_small_at_convergence(self):
        rng = np.random.default_rng(11)
        H, t, _ = _random_problem(rng, n=200, m=3, noise=1.0)
        grid = ParamGrid(np.linspace(0.2, 5.0, 25), np.linspace(-5, 5, 101))
        _assert_stationary(H, t, fit_mcc_vc(H, t, grid, FitConfig(lambda_prime=1e-4)), 1e-4)

    @pytest.mark.parametrize("fit, sigma, lambda_prime", [("mcc", 0.5, 1.0), ("mcc-vc", 2.0, 0.1)])
    def test_gradient_small_at_convergence_with_large_lambda_prime(self, fit, sigma, lambda_prime):
        # At sigma != 1 and lambda' >= 0.1 a cost whose lambda is not
        # lambda' / (2 N sigma^2) has a gradient far above the bound here.
        H, t, _ = _random_problem(np.random.default_rng(11), n=200, m=3, noise=1.0)
        config = FitConfig(lambda_prime=lambda_prime)
        if fit == "mcc":
            res = fit_mcc(H, t, sigma, config)
        else:
            res = fit_mcc_vc(H, t, ParamGrid(np.array([sigma]), np.array([0.0])), config)
        assert res.trace[-1].sigma == sigma
        _assert_stationary(H, t, res, lambda_prime)

    def test_one_extra_step_barely_moves_beta(self):
        rng = np.random.default_rng(12)
        H, t, _ = _random_problem(rng, n=200, m=3, noise=1.0)
        tol = 1e-9
        res = fit_mcc(H, t, 2.0, FitConfig(lambda_prime=1e-4, tolerance=tol))
        assert res.converged
        extra = weighted_ridge_step(H, t, KernelParams(2.0, 0.0), 1e-4, res.beta)
        bound = 10.0 * math.sqrt(tol) * (1.0 + np.max(np.abs(res.beta)))
        assert np.max(np.abs(extra - res.beta)) <= bound

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        H, t, _ = _random_problem(rng, n=50, m=4, noise=1.0)
        params = KernelParams(1.4, 0.6)
        lambda_prime = 1.0
        h = 1e-6
        for _ in range(5):
            beta = rng.normal(size=4)
            g = mcc_vc_gradient(H, t, beta, params, lambda_prime)
            fd = np.empty_like(g)
            for j in range(4):
                up, dn = beta.copy(), beta.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (
                    mcc_vc_cost(t - H @ up, params, float(up @ up), lambda_prime)
                    - mcc_vc_cost(t - H @ dn, params, float(dn @ dn), lambda_prime)
                ) / (2.0 * h)
            denom = max(np.max(np.abs(g)), 1e-8)
            assert np.max(np.abs(fd - g)) / denom <= 1e-4

    @pytest.mark.parametrize("lambda_prime", [-1e-3, math.nan, math.inf])
    def test_gradient_rejects_bad_lambda(self, lambda_prime):
        rng = np.random.default_rng(14)
        H, t, _ = _random_problem(rng, n=20, m=3)
        with pytest.raises(ValueError, match="^lambda_prime must be a non-negative finite real"):
            mcc_vc_gradient(H, t, np.zeros(3), KernelParams(1.0, 0.0), lambda_prime)

    @pytest.mark.parametrize("beta, message", _BAD_BETAS)
    def test_gradient_rejects_bad_beta(self, beta, message):
        with pytest.raises(ValueError, match=message):
            mcc_vc_gradient(np.eye(2), np.array([1.0, 2.0]), beta, KernelParams(1.0, 0.0), 0.0)
