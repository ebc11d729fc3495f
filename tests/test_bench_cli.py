"""Benchmark driver and command-line interface tests."""

import importlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mccvc import bench
from mccvc.bench import (
    DataBenchConfig,
    FitCmdConfig,
    KernelTraceConfig,
    SynthBenchConfig,
    _aggregate,
    bench_dataset,
    canonical_method,
    predict_with_model,
    run_fit,
    run_data_bench,
    run_kernel_trace,
    run_synth_bench,
    synth_case_design,
)
from mccvc.cli import main
from mccvc.data import TabularDataset
from mccvc.kernels import CenterRule, ParamGrid


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if "time" not in k}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def _small_synth_cfg(**overrides):
    defaults = dict(
        runs=2,
        n_samples=60,
        cases=(2,),
        grid=ParamGrid(np.linspace(0.5, 3.0, 6), np.linspace(-4, 4, 17)),
    )
    defaults.update(overrides)
    return SynthBenchConfig(**defaults)


@pytest.fixture
def small_dataset():
    rng = np.random.default_rng(21)
    X = rng.uniform(-2, 2, (48, 3))
    t = X @ [1.0, -0.5, 0.25] + rng.normal(0, 0.1, 48)
    return TabularDataset(X, t)


class TestSynthBench:
    def test_report_is_deterministic_modulo_timing(self):
        cfg = _small_synth_cfg(seed=7, runs=1)
        a = _strip_timings(run_synth_bench(cfg))
        b = _strip_timings(run_synth_bench(cfg))
        assert a == b

    def test_rerun_from_embedded_config(self):
        cfg = _small_synth_cfg()
        report = run_synth_bench(cfg)
        clone = SynthBenchConfig.from_dict(report["config"])
        assert _strip_timings(run_synth_bench(clone)) == _strip_timings(report)

    def test_single_method_single_section(self):
        report = run_synth_bench(_small_synth_cfg(methods=("mmse",)))
        assert len(report["results"]) == 1
        assert report["results"][0]["method"] == "mmse"

    def test_methods_keep_requested_order(self):
        report = run_synth_bench(_small_synth_cfg(methods=("mcc-vc", "mmse"), cases=(1, 2)))
        assert [r["method"] for r in report["results"]] == [
            "mcc-vc", "mcc-vc", "mmse", "mmse",
        ]
        assert [r["case"] for r in report["results"]] == [1, 2, 1, 2]

    def test_sigma_sweep_expands_sections(self):
        report = run_synth_bench(
            _small_synth_cfg(methods=("mcc",), mcc_sigmas=(1.0, 2.0))
        )
        assert [r["method"] for r in report["results"]] == ["mcc@1", "mcc@2"]
        assert [r["mcc_sigma"] for r in report["results"]] == [1.0, 2.0]

    def test_config_missing_jobs_takes_default(self):
        d = json.loads(json.dumps(_small_synth_cfg(jobs=3).to_dict()))
        del d["jobs"]
        assert SynthBenchConfig.from_dict(d).jobs == 1

    def test_config_keys_in_field_order(self):
        config = run_synth_bench(_small_synth_cfg(methods=("mmse",)))["config"]
        assert list(config) == [
            "seed", "runs", "n_samples", "w_star", "methods", "cases",
            "lambda_prime", "mcc_sigmas", "grid", "max_iterations", "tolerance",
            "jobs", "seeds",
        ]
        assert list(config["grid"]) == ["sigma_set", "center_set", "center_rule"]
        assert config["grid"]["center_rule"] == "grid"

    def test_nonconverged_counts_fits_stopped_at_the_cap(self):
        report = run_synth_bench(_small_synth_cfg(max_iterations=1))
        counts = {r["method"]: r["nonconverged"] for r in report["results"]}
        assert counts == {"mmse": 0, "mcc": 2, "mcc-vc": 2}

    def test_seeds_embedded(self):
        report = run_synth_bench(_small_synth_cfg(seed=11, runs=3))
        assert report["config"]["seeds"] == [11, 12, 13]

    def test_threaded_replications_match_serial(self):
        serial = _strip_timings(run_synth_bench(_small_synth_cfg(runs=3, jobs=1)))
        threaded = _strip_timings(run_synth_bench(_small_synth_cfg(runs=3, jobs=3)))
        assert serial["results"] == threaded["results"]

    def test_aggregate_uses_sample_std(self):
        values = [1.0, 2.0, 4.0, 8.0]
        mean, std = _aggregate(values)
        assert mean == pytest.approx(np.mean(values))
        assert std == pytest.approx(np.std(values, ddof=1))
        assert _aggregate([3.0]) == (3.0, 0.0)
        assert _aggregate([]) == (None, 0.0)

    def test_failed_replications_counted_not_fatal(self):
        # a kernel width this far below the residual scale underflows every
        # weight; with no regularization each replication aborts and must be
        # reported rather than crash the benchmark
        cfg = _small_synth_cfg(
            methods=("mcc",), mcc_sigmas=(1e-300,), lambda_prime=0.0, runs=3
        )
        report = run_synth_bench(cfg)
        row = report["results"][0]
        assert row["failures"] == 3
        assert row["runs"] == 0
        assert row["mean_rmse"] is None
        assert row["runs"] + row["failures"] == cfg.runs


class TestDataBench:
    def _cfg(self, **overrides):
        defaults = dict(
            runs=2,
            folds=4,
            hidden=8,
            seed=5,
            vc_grid=ParamGrid(np.linspace(0.05, 1.0, 10), None,
                              CenterRule.MEDIAN_OF_ERRORS),
            lambda_grid=(1e-4, 1e-2),
            mcc_sigma_grid=(0.5, 2.0),
        )
        defaults.update(overrides)
        return DataBenchConfig(**defaults)

    def test_three_sections_in_requested_order(self, small_dataset):
        section = bench_dataset("demo", small_dataset, self._cfg())
        assert [r["method"] for r in section["results"]] == [
            "relm", "elm-mcc", "elm-mcc-vc",
        ]
        for row in section["results"]:
            assert row["runs"] == 2
            assert row["failures"] == 0
            assert len(row["selected"]) == 2

    def test_rerun_from_embedded_config(self, small_dataset):
        report = run_data_bench([("demo", small_dataset)], self._cfg(runs=1))
        config = json.loads(json.dumps(report["config"]))
        clone = DataBenchConfig.from_dict(config)
        assert json.dumps(clone.to_dict()) == json.dumps(report["config"])
        rerun = run_data_bench([("demo", small_dataset)], clone)
        assert _strip_timings(rerun) == _strip_timings(report)

    def test_nonconverged_counts_fits_stopped_at_the_cap(self, small_dataset):
        section = bench_dataset("demo", small_dataset, self._cfg(max_iterations=1))
        counts = {r["method"]: r["nonconverged"] for r in section["results"]}
        assert counts == {"relm": 0, "elm-mcc": 2, "elm-mcc-vc": 2}

    def test_deterministic(self, small_dataset):
        a = _strip_timings(bench_dataset("demo", small_dataset, self._cfg()))
        b = _strip_timings(bench_dataset("demo", small_dataset, self._cfg()))
        assert a == b

    def test_linear_model_supported(self, small_dataset):
        cfg = self._cfg(model="linear", methods=("mmse", "mcc-vc"))
        section = bench_dataset("demo", small_dataset, cfg)
        assert [r["method"] for r in section["results"]] == ["mmse", "mcc-vc"]

    def test_method_aliases(self):
        assert canonical_method("RELM") == "mmse"
        assert canonical_method("elm-rcc") == "mcc"
        assert canonical_method("elm-mcc-vc") == "mcc-vc"
        with pytest.raises(ValueError):
            canonical_method("boost")


class TestFitCommand:
    def test_training_rmse_matches_recomputation(self, small_dataset):
        model = run_fit(small_dataset, FitCmdConfig(method="mcc-vc", model="elm",
                                                    hidden=12, seed=3))
        preds = predict_with_model(model, small_dataset.features)
        recomputed = float(np.sqrt(np.mean((preds - small_dataset.targets) ** 2)))
        assert model["training_rmse"] == pytest.approx(recomputed, abs=1e-10)

    def test_model_file_round_trip(self, small_dataset, tmp_path):
        model = run_fit(small_dataset, FitCmdConfig(method="mcc", model="elm",
                                                    hidden=12, seed=3))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        reloaded = json.loads(path.read_text())
        a = predict_with_model(model, small_dataset.features)
        b = predict_with_model(reloaded, small_dataset.features)
        np.testing.assert_array_equal(a, b)

    def test_generator_recovery_without_normalization(self):
        rng = np.random.default_rng(22)
        X = rng.uniform(-2, 2, (120, 2))
        data = TabularDataset(X, X @ [1.0, 2.0])
        cfg = FitCmdConfig(method="mcc-vc", model="linear", normalize=False,
                           lambda_prime=0.0)
        model = run_fit(data, cfg)
        beta = np.asarray(model["beta"])
        assert np.max(np.abs(beta - [1.0, 2.0])) <= 1e-6
        assert abs(model["prediction_offset"]) <= 1e-6

    def test_mmse_model(self, small_dataset):
        model = run_fit(small_dataset, FitCmdConfig(method="mmse", model="linear"))
        assert model["kernel"] is None
        assert model["prediction_offset"] == 0.0

    def test_bias_column_absorbs_intercept(self):
        rng = np.random.default_rng(25)
        X = rng.uniform(-2, 2, (80, 2))
        data = TabularDataset(X, X @ [1.0, 2.0] + 5.0)
        cfg = FitCmdConfig(method="mmse", model="linear", bias_column=True,
                           normalize=False, lambda_prime=0.0)
        model = run_fit(data, cfg)
        beta = np.asarray(model["beta"])
        np.testing.assert_allclose(beta, [1.0, 2.0, 5.0], atol=1e-8)
        preds = predict_with_model(model, X)
        np.testing.assert_allclose(preds, data.targets, atol=1e-8)


class TestKernelTrace:
    def test_histogram_integrates_to_one(self):
        H, t = synth_case_design(2, 200, 3)
        for mode in ("robust", "full"):
            traces, _ = run_kernel_trace(H, t, KernelTraceConfig(iterations=(1,),
                                                                 hist_range=mode))
            tr = traces[0]
            integral = float(np.sum(np.array(tr["density"])
                                    * np.diff(tr["bin_edges"])))
            assert integral == pytest.approx(1.0, abs=1e-6)

    def test_curve_sampled_densely(self):
        H, t = synth_case_design(2, 200, 3)
        traces, _ = run_kernel_trace(H, t, KernelTraceConfig(iterations=(1, 2)))
        assert all(len(tr["curve_x"]) >= 200 for tr in traces)
        assert [tr["iteration"] for tr in traces] == [1, 2]

    def test_iteration_zero_rejected(self):
        with pytest.raises(ValueError):
            KernelTraceConfig(iterations=(0,))

    def test_iteration_beyond_run_rejected(self):
        H, t = synth_case_design(2, 200, 3)
        with pytest.raises(ValueError, match="iteration 99"):
            run_kernel_trace(H, t, KernelTraceConfig(iterations=(99,)))

    def test_deterministic(self):
        H, t = synth_case_design(1, 150, 9)
        a, _ = run_kernel_trace(H, t, KernelTraceConfig(iterations=(1,)))
        b, _ = run_kernel_trace(H, t, KernelTraceConfig(iterations=(1,)))
        assert a == b


class TestCli:
    def test_synth_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "synth-bench", "--runs", "1", "--cases", "2", "--samples", "50",
            "--sigma-grid", "0.5:0.5:2.0", "--center-grid", "-3.0:0.5:3.0",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "synth-bench"
        assert {r["method"] for r in report["results"]} == {"mmse", "mcc", "mcc-vc"}
        assert "report written" in capsys.readouterr().out

    def test_identical_reports_for_same_seed(self, tmp_path):
        args = ["synth-bench", "--runs", "1", "--seed", "7", "--cases", "1",
                "--samples", "50", "--sigma-grid", "0.5:0.5:2.0",
                "--center-grid", "-2.0:0.5:2.0"]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        a = _strip_timings(json.loads(out_a.read_text()))
        b = _strip_timings(json.loads(out_b.read_text()))
        assert a == b

    def test_usage_error_exit_code(self, capsys):
        assert main(["synth-bench", "--bogus-flag"]) == 1
        assert main(["frobnicate"]) == 1
        assert main(["synth-bench", "--methods", "gradient-boost", "--runs", "1"]) == 1

    def test_data_error_exit_code(self, tmp_path, capsys):
        assert main(["data-bench", "--csv", str(tmp_path / "missing.csv"),
                     "--runs", "1"]) == 2

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # all-zero feature column + no regularization: singular normal equations
        path = tmp_path / "dup.csv"
        rows = ["1,0,2", "2,0,4", "3,0,5", "4,0,9"]
        path.write_text("\n".join(rows) + "\n")
        code = main(["fit", "--csv", str(path), "--no-header", "--method", "mmse",
                     "--model", "linear", "--lambda-prime", "0",
                     "--normalize", "false", "--out", str(tmp_path / "m.json")])
        assert code == 3

    def test_fit_and_model_output(self, tmp_path, capsys):
        path = tmp_path / "lin.csv"
        rng = np.random.default_rng(23)
        X = rng.uniform(-2, 2, (40, 2))
        t = X @ [1.0, 2.0]
        path.write_text("\n".join(f"{a},{b},{y}" for (a, b), y in zip(X, t)) + "\n")
        out = tmp_path / "model.json"
        code = main(["fit", "--csv", str(path), "--no-header", "--method", "mcc-vc",
                     "--model", "linear", "--normalize", "false",
                     "--lambda-prime", "0", "--out", str(out)])
        assert code == 0
        model = json.loads(out.read_text())
        assert np.max(np.abs(np.array(model["beta"]) - [1.0, 2.0])) <= 1e-6
        assert "sigma*" in capsys.readouterr().out

    def test_kernel_trace_csv_output(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["kernel-trace", "--case", "2", "--samples", "100",
                     "--iterations", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "iteration,kind,x_left,x_right,value"
        kinds = {line.split(",")[1] for line in lines[1:]}
        assert kinds == {"hist", "curve"}

    def test_kernel_trace_bad_iteration_is_usage_error(self, tmp_path):
        code = main(["kernel-trace", "--case", "2", "--samples", "100",
                     "--iterations", "99", "--out", str(tmp_path / "t.json")])
        assert code == 1

    def test_kernel_trace_from_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        rng = np.random.default_rng(26)
        X = rng.uniform(-2, 2, (60, 2))
        t = X @ [1.0, 2.0] + rng.normal(3.0, 1.0, 60)
        path.write_text("\n".join(f"{a},{b},{y}" for (a, b), y in zip(X, t)) + "\n")
        out = tmp_path / "trace.json"
        code = main(["kernel-trace", "--csv", str(path), "--no-header",
                     "--iterations", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["source"] == {"csv": str(path)}
        assert len(report["traces"]) == 1

    def test_data_bench_csv_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        rng = np.random.default_rng(24)
        X = rng.uniform(0, 1, (40, 2))
        t = X @ [0.5, 1.5] + rng.normal(0, 0.05, 40)
        path.write_text("x1,x2,y\n" + "\n".join(
            f"{a},{b},{y}" for (a, b), y in zip(X, t)) + "\n")
        out = tmp_path / "bench.json"
        code = main(["data-bench", "--csv", str(path), "--target", "y",
                     "--runs", "1", "--folds", "3", "--hidden", "6",
                     "--lambda-grid", "1e-4,1e-2", "--mcc-sigma", "0.5",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["datasets"][0]["dataset"] == "data"
        assert [r["method"] for r in report["datasets"][0]["results"]] == [
            "relm", "elm-mcc", "elm-mcc-vc",
        ]


class TestTracingContract:
    """A profiler times the solvers by swapping `fit_mcc_vc`, `fit_mcc` and
    `ridge_solve` in `mccvc.bench`, so every driver must look them up there
    at call time."""

    SOLVER = {"mmse": "ridge_solve", "mcc": "fit_mcc", "mcc-vc": "fit_mcc_vc"}

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in self.SOLVER.values():
            def counted(*args, _name=name, _fn=getattr(bench, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(bench, name, counted)
        return counts

    def test_every_driver_calls_the_patched_solvers(self, calls, small_dataset):
        grid = ParamGrid(np.linspace(0.5, 3.0, 6), np.linspace(-4, 4, 17))
        H, t = synth_case_design(2, 60, 1)
        for method, name in self.SOLVER.items():
            calls.clear()
            bench.synth_fit(method, H, t, _small_synth_cfg(grid=grid))
            assert calls == {name: 1}
            calls.clear()
            run_fit(small_dataset, FitCmdConfig(method=method, grid=grid))
            assert calls == {name: 1}

        calls.clear()
        cfg = DataBenchConfig(
            runs=1, folds=2, hidden=4, lambda_grid=(1e-2,), mcc_sigma_grid=(1.0,),
            vc_grid=ParamGrid(np.linspace(0.1, 1.0, 4), None, CenterRule.MEDIAN_OF_ERRORS),
        )
        bench_dataset("demo", small_dataset, cfg)
        # two CV folds and the final fit per method
        assert calls == {"ridge_solve": 3, "fit_mcc": 3, "fit_mcc_vc": 3}

        calls.clear()
        run_kernel_trace(H, t, KernelTraceConfig(iterations=(1,), grid=grid))
        assert calls == {"fit_mcc_vc": 1}

    def test_traced_names_resolve(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench.tracing import WRAPPED

        for module, attr, _span in WRAPPED:
            assert callable(getattr(importlib.import_module(module), attr, None)), (
                f"{module}.{attr} is traced but does not exist"
            )
