"""Solver unit tests: ridge closed form, weighted steps, fixed-point loops."""

import math

import numpy as np
import pytest

from mccvc.errors import DegenerateWeightsError, SingularSystemError
from mccvc.kernels import CenterRule, KernelParams, ParamGrid, gaussian_kernel
from mccvc.solvers import (
    FitConfig,
    fit_mcc,
    fit_mcc_vc,
    mcc_vc_gradient,
    ridge_solve,
    weighted_ridge_step,
)


def _random_problem(rng, n=60, m=3, noise=0.1):
    H = rng.normal(size=(n, m))
    beta_true = rng.normal(size=m)
    t = H @ beta_true + noise * rng.normal(size=n)
    return H, t, beta_true


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

    def test_matches_lstsq_on_random_problems(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            H, t, _ = _random_problem(rng)
            expected = np.linalg.lstsq(H, t, rcond=None)[0]
            np.testing.assert_allclose(ridge_solve(H, t, 0.0), expected, rtol=1e-9)


class TestWeightedRidgeStep:
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
        H = np.array([[1.0], [1.0]])
        t = np.array([1e6, 2e6])
        with pytest.raises(DegenerateWeightsError):
            weighted_ridge_step(H, t, KernelParams(1.0, 0.0), 0.0, np.array([0.0]))

    def test_identity_weights_reproduce_ridge_exactly(self):
        rng = np.random.default_rng(3)
        H, t, _ = _random_problem(rng)
        lam = 0.37
        via_step = weighted_ridge_step(
            H, t, KernelParams(1.0, 0.0), lam, np.zeros(3), weights=np.ones(len(t))
        )
        assert np.array_equal(via_step, ridge_solve(H, t, lam))

    def test_jitter_retry_on_semidefinite_system(self, caplog):
        # duplicated column makes H' W H exactly singular; the retry bumps the
        # diagonal and still satisfies the solve-residual contract.
        H = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        t = np.array([1.0, 2.0, 3.0])
        with caplog.at_level("INFO", logger="mccvc.solvers"):
            beta = weighted_ridge_step(H, t, KernelParams(5.0, 0.0), 0.0, np.zeros(2))
        assert np.all(np.isfinite(beta))
        assert any("jitter" in r.message for r in caplog.records)


class TestFixedPointLoops:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(4)
        H, _, beta_true = _random_problem(rng, n=80, m=4, noise=0.0)
        t = H @ beta_true
        grid = ParamGrid(np.linspace(0.2, 5.0, 25), np.linspace(-5, 5, 101))
        res = fit_mcc_vc(H, t, FitConfig(grid=grid, lambda_prime=0.0))
        assert np.max(np.abs(res.beta - beta_true)) <= 1e-6
        assert res.iterations_run <= 100

    def test_noise_free_recovery_median_rule(self):
        rng = np.random.default_rng(5)
        H, _, beta_true = _random_problem(rng, n=80, m=4, noise=0.0)
        t = H @ beta_true
        grid = ParamGrid(
            np.linspace(0.2, 5.0, 25), None, CenterRule.MEDIAN_OF_ERRORS
        )
        res = fit_mcc_vc(H, t, FitConfig(grid=grid, lambda_prime=0.0))
        assert np.max(np.abs(res.beta - beta_true)) <= 1e-6

    def test_singleton_grid_reduces_to_fixed_center_loop(self):
        rng = np.random.default_rng(6)
        H, t, _ = _random_problem(rng, noise=1.0)
        sigma = 1.3
        grid = ParamGrid(np.array([sigma]), np.array([0.0]))
        vc = fit_mcc_vc(H, t, FitConfig(grid=grid, lambda_prime=1e-4))
        base = fit_mcc(H, t, sigma=sigma, lambda_prime=1e-4)
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
        cfg = FitConfig(grid=ParamGrid(np.linspace(0.2, 3.0, 8), np.linspace(-2, 2, 11)))
        a = fit_mcc_vc(H, t, cfg)
        b = fit_mcc_vc(H, t, cfg)
        assert np.array_equal(a.beta, b.beta)
        assert a.trace == b.trace

    def test_large_width_matches_ols_in_one_step(self):
        rng = np.random.default_rng(8)
        H, t, _ = _random_problem(rng, noise=0.5)
        res = fit_mcc(H, t, sigma=1e6, lambda_prime=0.0)
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
        H, t, _ = _random_problem(np.random.default_rng(4))
        with pytest.raises(DegenerateWeightsError):
            fit_mcc(H, t, sigma=1e-300, lambda_prime=1e-4)

    def test_initial_beta_shape_checked(self):
        rng = np.random.default_rng(10)
        H, t, _ = _random_problem(rng)
        cfg = FitConfig(
            grid=ParamGrid(np.array([1.0]), np.array([0.0])),
            initial_beta=np.zeros(7),
        )
        with pytest.raises(ValueError):
            fit_mcc_vc(H, t, cfg)

    def test_config_validation(self):
        grid = ParamGrid(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            FitConfig(grid=grid, lambda_prime=-1.0)
        with pytest.raises(ValueError):
            FitConfig(grid=grid, max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(grid=grid, tolerance=0.0)


class TestStationarity:
    def test_gradient_small_at_convergence(self):
        rng = np.random.default_rng(11)
        H, t, _ = _random_problem(rng, n=200, m=3, noise=1.0)
        lam_prime = 1e-4
        res = fit_mcc_vc(
            H, t, FitConfig(grid=ParamGrid(np.linspace(0.2, 5.0, 25),
                                           np.linspace(-5, 5, 101)),
                            lambda_prime=lam_prime)
        )
        assert res.converged
        last = res.trace[-1]
        lam = lam_prime / (2.0 * len(t))
        g = mcc_vc_gradient(H, t, res.beta, KernelParams(last.sigma, last.center), lam)
        assert np.max(np.abs(g)) <= 1e-5 * (1.0 + np.max(np.abs(res.beta)))

    def test_one_extra_step_barely_moves_beta(self):
        rng = np.random.default_rng(12)
        H, t, _ = _random_problem(rng, n=200, m=3, noise=1.0)
        tol = 1e-9
        res = fit_mcc(H, t, sigma=2.0, lambda_prime=1e-4, tolerance=tol)
        assert res.converged
        extra = weighted_ridge_step(H, t, KernelParams(2.0, 0.0), 1e-4, res.beta)
        bound = 10.0 * math.sqrt(tol) * (1.0 + np.max(np.abs(res.beta)))
        assert np.max(np.abs(extra - res.beta)) <= bound

    def test_gradient_matches_finite_differences(self):
        from mccvc.kernels import mcc_vc_cost

        rng = np.random.default_rng(13)
        H, t, _ = _random_problem(rng, n=50, m=4, noise=1.0)
        params = KernelParams(1.4, 0.6)
        lam = 1e-3
        h = 1e-6
        for _ in range(5):
            beta = rng.normal(size=4)
            g = mcc_vc_gradient(H, t, beta, params, lam)
            fd = np.empty_like(g)
            for j in range(4):
                up, dn = beta.copy(), beta.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (
                    mcc_vc_cost(t - H @ up, params, float(up @ up), lam)
                    - mcc_vc_cost(t - H @ dn, params, float(dn @ dn), lam)
                ) / (2.0 * h)
            denom = max(np.max(np.abs(g)), 1e-8)
            assert np.max(np.abs(fd - g)) / denom <= 1e-4
