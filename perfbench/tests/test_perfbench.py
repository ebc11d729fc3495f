"""Tests of the benchmark itself: tiny workloads pass their checks, and every
check rejects a deliberately perturbed output."""

import json
import logging
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from mccvc import bench, kernels, solvers  # noqa: E402

from perfbench import checks, tracing, workloads  # noqa: E402
from perfbench.workloads import ElmSincCV, Op, Synth, SynthContam  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyElm(ElmSincCV):
    ROWS = 120
    HIDDEN = 8


@pytest.fixture(scope="module")
def tiny_elm(tmp_path_factory):
    w = TinyElm()
    w.setup(3, tmp_path_factory.mktemp("elm"))
    return w


@pytest.fixture(scope="module")
def case2_fit():
    cfg = bench.SynthBenchConfig()
    H, t = bench.synth_case_design(2, 400, 11)
    beta, result = bench.synth_fit("mcc-vc", H, t, cfg)
    return cfg, H, t, beta, result


# -- tiny workloads pass their checks ---------------------------------------

@pytest.mark.parametrize("n_samples, cases", [(80, (1, 2, 3, 4)), (300, (2, 4))])
def test_synthetic_round_passes_its_checks(n_samples, cases):
    w = Synth(n_samples, cases)
    w.setup(5, None)
    ops = w.run_round(0)
    assert [op.kind for op in ops] == ["ridge", "mcc", "vc"] * len(cases)
    assert [op.error for op in ops] == [None] * len(ops)
    assert all(op.seconds > 0 and op.quality >= 0 for op in ops)


def test_elm_round_passes_its_checks(tiny_elm):
    ops = tiny_elm.run_round(0)
    assert [op.kind for op in ops] == ["ridge", "mcc", "vc"]
    assert [op.error for op in ops] == [None, None, None]
    np.testing.assert_array_equal(np.loadtxt(tiny_elm.csv, delimiter=","), tiny_elm.values)


def test_inputs_depend_only_on_the_seed():
    assert workloads.round_seed(7, 3) == workloads.round_seed(7, 3)
    assert len({workloads.round_seed(s, r) for s in range(4) for r in range(4)}) == 16
    np.testing.assert_array_equal(ElmSincCV.dataset(9, 50), ElmSincCV.dataset(9, 50))


# -- each check rejects a perturbed output ------------------------------------

def test_ridge_check_rejects_shifted_beta():
    cfg = bench.SynthBenchConfig()
    H, t = bench.synth_case_design(1, 400, 2)
    beta, _ = bench.synth_fit("mmse", H, t, cfg)
    assert checks.ridge(H, t, cfg.lambda_prime, beta) is None
    assert checks.ridge(H, t, cfg.lambda_prime, beta * (1 + 1e-6)) is not None


def test_fixed_point_check_rejects_moved_kernel_or_beta(case2_fit):
    cfg, H, t, beta, result = case2_fit
    last, lam = result.trace[-1], cfg.lambda_prime
    assert checks.fixed_point(H, t, beta, last.sigma, last.center, lam, last.max_delta) is None
    sigmas, centers = cfg.grid.sigma_set, cfg.grid.center_set
    i = int(np.argmin(np.abs(sigmas - last.sigma)))
    j = int(np.argmin(np.abs(centers - last.center)))
    moved = [
        (sigmas[i + 1], last.center, beta),
        (last.sigma, centers[j + 1], beta),
        (last.sigma, last.center, beta * (1 + 1e-3)),
    ]
    for sigma, center, b in moved:
        assert checks.fixed_point(H, t, b, sigma, center, lam, last.max_delta) is not None


def test_param_search_check_rejects_second_best_point(case2_fit):
    cfg, H, t, beta, _ = case2_fit
    e = t - H @ beta
    params, objective = kernels.optimize_params(e, cfg.grid)
    grid = cfg.grid
    assert checks.param_search(e, grid.sigma_set, grid.center_set, "grid",
                               params.sigma, params.center, objective) is None
    # The second-best grid point, by the brute-force table.
    others = [(s, c) for s in grid.sigma_set for c in grid.center_set
              if (s, c) != (params.sigma, params.center)]
    s2, c2 = min(others, key=lambda sc: kernels.param_objective(e, *sc))
    assert checks.param_search(e, grid.sigma_set, grid.center_set, "grid",
                               s2, c2, kernels.param_objective(e, s2, c2)) is not None
    assert checks.param_search(e, grid.sigma_set, grid.center_set, "grid",
                               params.sigma, params.center, objective * (1 + 1e-6)) is not None


def test_param_search_check_follows_the_median_rule():
    e = np.random.default_rng(4).standard_normal(300) * 0.05 + 0.3
    grid = kernels.ParamGrid(np.linspace(0.005, 0.25, 50), None, kernels.CenterRule.MEDIAN_OF_ERRORS)
    params, objective = kernels.optimize_params(e, grid)
    assert checks.param_search(e, grid.sigma_set, None, "median", params.sigma, params.center, objective) is None
    assert checks.param_search(e, grid.sigma_set, None, "median", params.sigma + 0.005,
                               params.center, objective) is not None


def test_ridge_step_check_rejects_shifted_solution(case2_fit):
    cfg, H, t, beta, result = case2_fit
    last = result.trace[-1]
    params = kernels.KernelParams(last.sigma, last.center)
    beta_prev = beta + 0.01
    nxt = solvers.weighted_ridge_step(H, t, params, cfg.lambda_prime, beta_prev)
    args = (H, t, last.sigma, last.center, cfg.lambda_prime, beta_prev)
    assert checks.ridge_step(*args, nxt) is None
    assert checks.ridge_step(*args, nxt * (1 + 1e-6)) is not None


def test_relm_check_rejects_other_lambda_or_rmse(tiny_elm):
    code, _, report = tiny_elm.call("relm", 4)
    assert code == 0
    row = report["datasets"][0]["results"][0]
    lam, rmse = row["selected"][0]["lambda_prime"], row["mean_test_rmse"]
    args = (tiny_elm.values, 4, tiny_elm.HIDDEN, tiny_elm.FOLDS, tiny_elm.LAMBDAS)
    assert checks.relm_row(*args, lam, rmse) is None
    assert checks.relm_row(*args, lam, rmse * (1 + 1e-6)) is not None
    table = checks.relm_recompute(*args)
    worst = max(table, key=lambda k: table[k]["cv"])
    assert checks.relm_row(*args, worst, table[worst]["test_rmse"]) is not None


def test_elm_report_checks_reject_failures_and_foreign_candidates(tiny_elm):
    _, _, report = tiny_elm.call("elm-mcc", 4)
    assert tiny_elm.check("mcc", 0, report, 4)[0] is None
    row = report["datasets"][0]["results"][0]
    assert tiny_elm.check("mcc", 3, report, 4)[0] is not None
    row["selected"][0]["sigma"] = 0.3
    assert tiny_elm.check("mcc", 0, report, 4)[0] is not None
    row["failures"] = 1
    assert tiny_elm.check("mcc", 0, report, 4)[0] is not None


def test_case2_ordering_check():
    def ops(vc, mcc, ridge):
        return [Op("vc", 1.0, None, 2, vc), Op("mcc", 1.0, None, 2, mcc), Op("ridge", 1.0, None, 2, ridge)]

    w = SynthContam()
    assert w.final_checks(ops(0.05, 0.07, 1.3)) == []
    assert w.final_checks(ops(0.07, 0.05, 1.3)) != []
    assert w.final_checks(ops(0.12, 0.2, 1.3)) != []
    assert w.final_checks(ops(0.05, 0.07, 0.4)) != []


# -- tracing ------------------------------------------------------------------

def test_tracer_restores_functions_and_counts_guards():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.WRAPPED}
    tracer = tracing.Tracer(sample_every=1)
    grid = kernels.ParamGrid(np.array([1e-6, 0.5]), np.array([0.0]))
    with tracer.installed():
        assert logging.getLogger("mccvc.kernels").level == logging.INFO
        solvers.optimize_params(np.linspace(-1.0, 1.0, 50), grid)
    assert {(m, a): getattr(sys.modules[m], a) for m, a, _ in tracing.WRAPPED} == originals
    assert tracer.events["kernels.width_clamps"] == 1
    assert tracer.grid_evals == 100
    assert len(tracer.samples["kernels.optimize_params"]) == 1


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["solvers.fit_mcc_vc", 0.0, 10.0, -1], ["kernels.optimize_params", 1.0, 4.0, 0],
                    ["solvers.weighted_ridge_step", 5.0, 6.0, 0]]
    np.testing.assert_allclose(tracer.self_times(), [6.0, 3.0, 1.0])
    m = tracer.layer_metrics(replications=2)
    assert m["kernels.share_of_vc_fit"] == pytest.approx(0.3)
    assert m["solvers.loop_self_s"] == pytest.approx(3.0)
    assert m["bench.s"] == pytest.approx(5.0)


# -- the command ----------------------------------------------------------------

@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, kind):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "synth-contam", "--seed", "3", "--seconds", "0.01",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == (24 if trace else 12)
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-contam", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
