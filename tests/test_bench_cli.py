"""Benchmark driver and command-line interface tests."""

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mccvc import bench, cli, kernels
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
from mccvc.cli import _parse_bool, _parse_range, main
from mccvc.data import (
    Gaussian,
    NoiseModel,
    SplitSpec,
    TabularDataset,
    apply_minmax,
    minmax_record,
    sample_noise,
    split,
)
from mccvc.kernels import CenterRule, ParamGrid


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if "time" not in k}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


SYNTH_ROW_KEYS = [
    "method", "case", "case_label", "mean_rmse", "std_rmse", "mean_time_s",
    "std_time_s", "runs", "failures", "nonconverged",
]


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

    def test_row_keys_in_order(self):
        row = run_synth_bench(_small_synth_cfg(methods=("mmse",)))["results"][0]
        assert list(row) == SYNTH_ROW_KEYS
        sweep = run_synth_bench(_small_synth_cfg(methods=("mcc",), mcc_sigmas=(1.0, 2.0)))
        for row in sweep["results"]:
            assert list(row) == SYNTH_ROW_KEYS + ["mcc_sigma"]

    def test_config_with_a_jobs_key_reloads(self):
        # Reports once held a "jobs" setting; a key that names no field is ignored.
        cfg = _small_synth_cfg()
        d = {**json.loads(json.dumps(cfg.to_dict())), "jobs": 2}
        assert SynthBenchConfig.from_dict(d).to_dict() == cfg.to_dict()

    def test_config_keys_in_field_order(self):
        config = run_synth_bench(_small_synth_cfg(methods=("mmse",)))["config"]
        assert list(config) == [
            "seed", "runs", "n_samples", "w_star", "methods", "cases",
            "lambda_prime", "mcc_sigmas", "grid", "max_iterations", "tolerance",
            "seeds",
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

    def test_aggregate_uses_sample_std(self):
        values = [1.0, 2.0, 4.0, 8.0]
        mean, std = _aggregate(values)
        assert mean == pytest.approx(np.mean(values))
        assert std == pytest.approx(np.std(values, ddof=1))
        assert _aggregate([3.0]) == (3.0, 0.0)
        assert _aggregate([]) == (None, 0.0)

    @pytest.mark.parametrize(
        "overrides", [{"runs": 0}, {"methods": ()}, {"cases": ()}, {"mcc_sigmas": ()}]
    )
    def test_empty_inputs_rejected_at_construction(self, overrides):
        with pytest.raises(ValueError):
            _small_synth_cfg(**overrides)

    def test_data_bench_alias_rejected_as_a_method(self):
        with pytest.raises(ValueError, match="relm"):
            _small_synth_cfg(methods=("mmse", "relm"))

    def test_failed_replications_counted_not_fatal(self):
        # a kernel width this far below the residual scale underflows every
        # weight, so each replication aborts and must be reported rather than
        # crash the benchmark
        cfg = _small_synth_cfg(
            methods=("mcc",), mcc_sigmas=(1e-30,), lambda_prime=0.0, runs=3
        )
        report = run_synth_bench(cfg)
        row = report["results"][0]
        assert row["failures"] == 3
        assert row["runs"] == 0
        assert row["mean_rmse"] is None
        assert row["std_rmse"] == 0.0
        assert row["runs"] + row["failures"] == cfg.runs
        assert list(row) == SYNTH_ROW_KEYS + ["mcc_sigma"]


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

    def test_row_keys_in_order(self, small_dataset):
        row = bench_dataset("demo", small_dataset, self._cfg(methods=("elm-mcc",)))["results"][0]
        assert list(row) == [
            "method", "dataset", "mean_train_rmse", "std_train_rmse", "mean_test_rmse",
            "std_test_rmse", "mean_fit_time_s", "mean_select_time_s", "runs", "failures",
            "nonconverged", "selected",
        ]

    def test_unregularized_candidates_drop_out_on_a_singular_elm_design(self):
        # 30 sigmoid nodes on 2 inputs: cond(H) is 1e10-1e11, so every
        # lambda' = 0 fit fails its factorization and the other candidates
        # are selected, with no failed run.
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, (200, 2))
        t = np.sinc(np.linalg.norm(X, axis=1)) + rng.normal(0, 0.05, 200)
        cfg = self._cfg(
            folds=3, hidden=30, lambda_grid=(0.0, 1e-4, 1e-2), mcc_sigma_grid=(0.1, 0.5),
            vc_grid=ParamGrid(np.linspace(0.02, 0.5, 10), None, CenterRule.MEDIAN_OF_ERRORS),
        )
        for row in bench_dataset("sinc", TabularDataset(X, t), cfg)["results"]:
            assert row["failures"] == 0
            assert [c["lambda_prime"] > 0.0 for c in row["selected"]] == [True, True]

    def test_a_run_with_no_surviving_candidate_fails(self):
        # The singular design above with lambda' = 0 as the only candidate:
        # every cross-validation fit fails, so each run of each method does.
        rng = np.random.default_rng(7)
        X = rng.uniform(-2, 2, (200, 2))
        t = np.sinc(np.linalg.norm(X, axis=1)) + rng.normal(0, 0.05, 200)
        cfg = self._cfg(folds=3, hidden=30, lambda_grid=(0.0,))
        for row in bench_dataset("sinc", TabularDataset(X, t), cfg)["results"]:
            assert (row["runs"], row["failures"], row["selected"]) == (0, 2, [])
            assert row["mean_test_rmse"] is None

    def test_a_run_whose_final_fit_fails_is_counted(self, small_dataset, monkeypatch):
        # Cross-validation fits use 18 of the 24 training rows; fail only the
        # refit on all of them.
        real = bench.fit_mcc

        def fit_mcc(H, targets, *args, **kwargs):
            if len(targets) == 24:
                raise bench.SolverError("refit failed")
            return real(H, targets, *args, **kwargs)

        monkeypatch.setattr(bench, "fit_mcc", fit_mcc)
        rows = bench_dataset("demo", small_dataset, self._cfg())["results"]
        counts = {r["method"]: (r["runs"], r["failures"], len(r["selected"])) for r in rows}
        assert counts == {"relm": (2, 0, 2), "elm-mcc": (0, 2, 0), "elm-mcc-vc": (2, 0, 2)}

    def test_rerun_from_embedded_config(self, small_dataset):
        report = run_data_bench([("demo", small_dataset)], self._cfg(runs=1))
        config = json.loads(json.dumps(report["config"]))
        clone = DataBenchConfig.from_dict(config)
        assert json.dumps(clone.to_dict()) == json.dumps(report["config"])
        rerun = run_data_bench([("demo", small_dataset)], clone)
        assert _strip_timings(rerun) == _strip_timings(report)

    def test_train_scope_is_none_on_data_scaled_by_the_training_rows(self, small_dataset):
        cfg = self._cfg(runs=1)
        train, _ = split(small_dataset, SplitSpec(cfg.train_fraction, cfg.seed))
        scaled = apply_minmax(minmax_record(train), small_dataset)
        a = bench_dataset("demo", small_dataset, self._cfg(runs=1, norm_scope="train"))
        b = bench_dataset("demo", scaled, self._cfg(runs=1, norm_scope="none"))
        assert _strip_timings(a) == _strip_timings(b)

    def test_full_scope_is_none_on_data_scaled_in_full(self, small_dataset):
        scaled = apply_minmax(minmax_record(small_dataset), small_dataset)
        a = bench_dataset("demo", scaled, self._cfg(norm_scope="full"))
        b = bench_dataset("demo", scaled, self._cfg(norm_scope="none"))
        assert _strip_timings(a) == _strip_timings(b)

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

    def test_zero_runs_rejected_at_construction(self):
        with pytest.raises(ValueError, match="runs"):
            self._cfg(runs=0)

    @pytest.mark.parametrize("name", ["methods", "lambda_grid", "mcc_sigma_grid"])
    def test_empty_inputs_rejected_at_construction(self, name):
        with pytest.raises(ValueError, match=name):
            self._cfg(**{name: ()})

    def test_method_aliases(self):
        assert canonical_method("RELM") == "mmse"
        assert canonical_method("elm-rcc") == "mcc"
        assert canonical_method("elm-mcc-vc") == "mcc-vc"
        with pytest.raises(ValueError):
            canonical_method("boost")

    def test_dispatch_rejects_an_unknown_method(self):
        H, t = synth_case_design(2, 20, 0)
        with pytest.raises(ValueError, match="unknown method 'boost'"):
            bench._fit("boost", H, t, 1e-4, 1.0, None, self._cfg())


def _exhaustive_cross_validate(candidates, folds, score):
    """Reference selection: score every fold of every candidate, drop a
    candidate on a SolverError, and keep the first strictly least mean."""
    best_score, best = np.inf, None
    for candidate in candidates:
        try:
            scores = [score(candidate, fold) for fold in folds]
        except bench.SolverError:
            continue
        mean = float(np.mean(scores))
        if mean < best_score:
            best_score, best = mean, candidate
    return best


def _sinc_mixture(rows: int) -> TabularDataset:
    """Criterion 11's data set: sinc(|x|) on U[-2, 2]^2 plus 10% outliers."""
    rng = np.random.default_rng(7)
    X = rng.uniform(-2.0, 2.0, (rows, 2))
    noise = NoiseModel(0.1, Gaussian(3.0, 1.0), Gaussian(0.0, 10000.0))
    return TabularDataset(X, np.sinc(np.linalg.norm(X, axis=1)) + sample_noise(noise, rows, 8))


class TestCrossValidationRace:
    """`_cross_validate` stops a candidate's folds once it cannot win; these
    replay score tables through it and through the exhaustive reference."""

    @staticmethod
    def _replay(table):
        """Both selections on `table` (candidates x folds; None is a fold whose
        fit raises SolverError) and the cells the race scored."""
        n_candidates, n_folds = len(table), len(table[0])
        cfg = DataBenchConfig(lambda_grid=tuple(float(j) for j in range(n_candidates)),
                              folds=n_folds)
        candidates, scored = bench._candidate_list("mcc-vc", cfg), []

        def score(candidate, fold):
            cell = (int(candidate["lambda_prime"]), fold)
            scored.append(cell)
            value = table[cell[0]][fold]
            if value is None:
                raise bench.SolverError("replayed failure")
            return value

        folds = list(range(n_folds))
        race = bench._cross_validate(candidates, folds, score)
        raced = list(scored)
        reference = _exhaustive_cross_validate(candidates, folds, score)
        return race, reference, raced

    @staticmethod
    def _table(rng):
        n_candidates, n_folds = int(rng.integers(1, 13)), int(rng.integers(2, 11))
        kind = rng.integers(3)
        if kind == 0:
            # Few distinct values: exact ties and zero scores.
            table = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n_candidates, n_folds))
        elif kind == 1:
            table = rng.random((n_candidates, n_folds)) ** 4
        else:
            # Rows that permute one set of scores, zeros last in some: equal
            # exact sums whose rounded means differ by an ulp or tie.
            base = rng.random(n_folds)
            base[rng.random(n_folds) < 0.3] = 0.0
            rows = []
            for _ in range(n_candidates):
                row = rng.permutation(base)
                if rng.random() < 0.5:
                    row = np.concatenate([row[row > 0.0], row[row == 0.0]])
                rows.append(row)
            table = np.array(rows)
        table = table.tolist()
        failure_rate = rng.choice([0.0, 0.1, 0.4])
        for row in table:
            for f in range(n_folds):
                if rng.random() < failure_rate:
                    row[f] = None
        return table

    def test_random_tables_pick_as_the_exhaustive_rule(self):
        rng = np.random.default_rng(2024)
        pruned = 0
        for _ in range(3000):
            table = self._table(rng)
            race, reference, raced = self._replay(table)
            assert race == reference, table
            assert len(set(raced)) == len(raced)
            pruned += len(table) * len(table[0]) - len(raced)
        assert pruned > 0

    @pytest.mark.parametrize("table, pick", [
        # A later candidate completes first; the earlier one ties it only
        # because its unplayed fold scores 0, so it must not be dropped.
        ([[1.0, 0.0], [0.0, 1.0]], 0),
        ([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], 0),
        ([[0.0, 0.0], [0.0, 0.0]], 0),
        ([[1.0, None], [2.0, 2.0], [None, 0.0]], 1),
        ([[None, 1.0], [1.0, None]], None),
    ])
    def test_ties_zeros_and_failures(self, table, pick):
        race, reference, _ = self._replay(table)
        assert reference == (None if pick is None else {"lambda_prime": float(pick)})
        assert race == reference

    @pytest.mark.parametrize("n_folds", [3, 5, 8, 10])
    def test_means_that_tie_only_after_np_mean_rounds(self, n_folds):
        # Candidate 1 permutes candidate 0's scores, zero first, so it is
        # completed first; candidate 0's last fold scores 0.  Their exact sums
        # are equal, and where np.mean (a pairwise sum from 8 folds on)
        # rounds both to the same mean, candidate 0 is picked, although its
        # scores so far, summed left to right or exactly, can exceed
        # n_folds x that mean by an ulp.
        rng = np.random.default_rng(n_folds)
        sensitive = 0
        for _ in range(300):
            row = rng.random(n_folds - 1)
            scores, other = [*row, 0.0], [0.0, *row[1:], row[0]]
            mean = float(np.mean(scores))
            if float(np.mean(other)) == mean:
                sensitive += (sum(row) / n_folds > mean
                              or math.fsum(row) > n_folds * mean)
            race, reference, _ = self._replay([scores, other])
            assert race == reference
        assert sensitive > 0

    def test_elm_mcc_selection_runs_fewer_fits_with_the_same_pick(self, monkeypatch):
        raw = _sinc_mixture(300)
        data = apply_minmax(minmax_record(raw), raw)
        cfg = DataBenchConfig(hidden=20, folds=5, lambda_grid=(0.0, 1e-6, 1e-2),
                              mcc_sigma_grid=(0.01, 0.05, 0.2, 1.0))
        train, _ = split(data, SplitSpec(seed=3))
        H = bench._features(bench._feature_map(cfg, 2, 11), train.features)
        folds = bench.kfold_indices(train.n_rows, cfg.folds, 3)
        calls = Counter()
        real = bench.fit_mcc

        def counted(*args, **kwargs):
            calls["fit_mcc"] += 1
            return real(*args, **kwargs)

        def score(candidate, fold):
            train_idx, val_idx = fold
            beta, result = bench._fit("mcc", H[train_idx], train.targets[train_idx],
                                      candidate["lambda_prime"], candidate["sigma"], cfg.vc_grid, cfg)
            return bench.rmse_predictions(bench.predict(H[val_idx], beta) + bench._offset(result),
                                          train.targets[val_idx])

        monkeypatch.setattr(bench, "fit_mcc", counted)
        candidates = bench._candidate_list("mcc", cfg)
        race = bench._cross_validate(candidates, folds, score)
        raced, calls["fit_mcc"] = calls["fit_mcc"], 0
        reference = _exhaustive_cross_validate(candidates, folds, score)
        assert race == reference
        # Every lambda' = 0 candidate fails its first fold either way.
        assert raced < calls["fit_mcc"] == 8 * 5 + 4


@pytest.fixture(scope="module")
def elm_sinc_cv(tmp_path_factory):
    """perfbench's elm-sinc-cv workload, set up on its criterion-11 CSV."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench.workloads import ElmSincCV
    workload = ElmSincCV()
    workload.setup(0, tmp_path_factory.mktemp("elm-sinc-cv"))
    return workload


class TestDataBenchFits:
    """The fits of each elm-sinc-cv data-bench call (the race's first-fold and
    completing fits, and the final one) and its span tests, as pinned on the
    first two split seeds, those of tools/report_digest.py."""

    @pytest.mark.parametrize("seed, method, fits", [
        (42, "relm", {"ridge_solve": 22}),
        (42, "elm-mcc", {"fit_mcc": 119}),
        (42, "elm-mcc-vc", {"fit_mcc_vc": 22, "_spans_constant": 1}),
        (43, "relm", {"ridge_solve": 22}),
        (43, "elm-mcc", {"fit_mcc": 120}),
        (43, "elm-mcc-vc", {"fit_mcc_vc": 22, "_spans_constant": 1}),
    ])
    def test_fits_per_call(self, elm_sinc_cv, seed, method, fits, tmp_path, monkeypatch, capsys):
        calls = Counter()
        for name in ("ridge_solve", "fit_mcc", "fit_mcc_vc", "_spans_constant"):
            def counted(*args, _name=name, _fn=getattr(bench, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(bench, name, counted)
        assert main(elm_sinc_cv.argv(method, seed, tmp_path / "report.json")) == 0
        assert calls == fits

    @pytest.mark.parametrize("seed, searches, rows", [(42, 86, 380), (43, 93, 387)])
    def test_exact_rows_per_vc_call(self, elm_sinc_cv, seed, searches, rows, tmp_path, monkeypatch):
        # The call's 22 fits share one start per fold design, its 5 folds and
        # the final fit's rows, so 6 first (median-rule) searches compute the
        # full table of 50 widths; every later search, on the frozen center,
        # carries its width intervals and computes about one exact row (with
        # a first search per fit: 102 and 109 searches, 22 full tables, 1180
        # and 1187 rows; with no carried intervals, 5100 and 5450 rows).
        calls, exact = [], kernels._exact_objectives
        monkeypatch.setattr(kernels, "_exact_objectives",
                            lambda e, c, s: calls.append(s.size) or exact(e, c, s))
        assert main(elm_sinc_cv.argv("elm-mcc-vc", seed, tmp_path / "report.json")) == 0
        assert len(calls) == searches and calls.count(50) == 6
        assert sum(calls) <= rows

    @pytest.mark.parametrize("seed, grams", [(42, 715), (43, 643)])
    def test_first_steps_per_mcc_call(self, elm_sinc_cv, seed, grams, tmp_path, monkeypatch):
        # The fits of one start and width make one first step from beta = 0,
        # whose weighted Gram the start computes once: 30 of the call's 119
        # and 120 fits (the Grams were 804 and 733 with one per fit).
        from mccvc import solvers

        kernels_seen, fit, first_step = set(), bench.fit_mcc, solvers.FitStart.first_step
        inside, counts, equations = [False], Counter(), solvers._weighted_equations

        def counted_fit(H, targets, sigma, *args, start, **kwargs):
            kernels_seen.add((id(start), sigma))
            return fit(H, targets, sigma, *args, start=start, **kwargs)

        def counted_first_step(self, params, residuals):
            inside[0] = True
            try:
                return first_step(self, params, residuals)
            finally:
                inside[0] = False

        def counted_equations(*args):
            counts["first" if inside[0] else "later"] += 1
            return equations(*args)

        monkeypatch.setattr(bench, "fit_mcc", counted_fit)
        monkeypatch.setattr(solvers.FitStart, "first_step", counted_first_step)
        monkeypatch.setattr(solvers, "_weighted_equations", counted_equations)
        assert main(elm_sinc_cv.argv("elm-mcc", seed, tmp_path / "report.json")) == 0
        assert counts["first"] == len(kernels_seen) == 30
        assert counts["first"] + counts["later"] == grams


class TestSpanAnswer:
    """`bench_dataset` tests span(H) ∋ 1 once per training design and builds
    the start of every mcc-vc fit on its rows with True, which is exact only
    where each fold design's own test says True as well."""

    @pytest.mark.parametrize("folds, runs", [(5, 20), (10, 2)])
    def test_fold_designs_agree_with_the_training_design(self, folds, runs, monkeypatch):
        # Criterion 11's 20 splits at 5 folds, whose first two (split seeds 42
        # and 43) are the elm-sinc-cv data-bench reports of
        # tools/report_digest.py, and those two again at its other fold count.
        from mccvc import solvers

        seen = []

        def fit_mcc_vc(H, targets, grid, config, on_iteration=None, *, start):
            seen.append((H.shape[0], start.spans_constant, solvers._spans_constant(H)))
            trace = (solvers.IterationRecord(1.0, 0.0, 0.0, 0.0),)
            return solvers.FitResult(np.zeros(H.shape[1]), 1, True, trace)

        monkeypatch.setattr(bench, "fit_mcc_vc", fit_mcc_vc)
        # The designs do not depend on lambda', so one candidate sees them all.
        cfg = DataBenchConfig(runs=runs, seed=42, hidden=50, folds=folds,
                              methods=("elm-mcc-vc",), lambda_grid=(1e-6,))
        bench_dataset("sinc-mixture", _sinc_mixture(1000), cfg)
        assert {rows for rows, _, _ in seen} == {500, 500 - 500 // folds}
        assert all(passed is True and own for _, passed, own in seen)


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

    @pytest.mark.parametrize("residuals, expected", [
        # A zero MAD falls back to the std: the robust range is all of them.
        ([0.0, 0.0, 0.0, 1.0, 100.0], (0.0, 100.0)),
        # Equal residuals leave an empty robust range: keep their full one.
        ([2.0, 2.0, 2.0], (2.0, 2.0)),
    ])
    def test_histogram_range_fallbacks(self, residuals, expected):
        assert bench._histogram_range(np.array(residuals), "robust") == expected

    def test_each_trace_is_its_step(self):
        # Each requested iteration's residuals and kernel are those the fit's
        # hook sees at that step, whatever the order requested.
        H, t = synth_case_design(2, 200, 3)
        steps = {}
        bench.fit_mcc_vc(H, t, bench.default_param_grid(),
                         on_iteration=lambda k, e, params, _: steps.setdefault(k, (e.copy(), params)))
        traces, _ = run_kernel_trace(H, t, KernelTraceConfig(iterations=(3, 1)))
        for tr in traces:
            e, params = steps[tr["iteration"]]
            assert (tr["sigma"], tr["center"]) == (params.sigma, params.center)
            assert tr["residual_median"] == float(np.median(e))

    def test_deterministic(self):
        H, t = synth_case_design(1, 150, 9)
        a, _ = run_kernel_trace(H, t, KernelTraceConfig(iterations=(1,)))
        b, _ = run_kernel_trace(H, t, KernelTraceConfig(iterations=(1,)))
        assert a == b


class TestCli:
    def test_import_loads_no_scipy(self):
        # scipy is imported inside the functions that call it, so a run that
        # never solves through LAPACK or builds ELM features does not load it.
        src = str(Path(bench.__file__).resolve().parents[1])
        code = ("import sys, mccvc.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr

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

    def test_one_parser_serves_every_call(self, monkeypatch, capsys):
        added = []
        add_argument = cli._Parser.add_argument
        monkeypatch.setattr(cli._Parser, "add_argument",
                            lambda self, *a, **k: added.append(a) or add_argument(self, *a, **k))
        # Start from no parser, so the first call must build one, and leave none
        # built through the counting add_argument.
        cli.build_parser.cache_clear()
        try:
            assert main(["frobnicate"]) == 1
            built = len(added)
            assert built > 0
            assert main(["synth-bench", "--bogus-flag"]) == 1
            assert len(added) == built
        finally:
            cli.build_parser.cache_clear()

    @pytest.mark.parametrize("argv, merged", [
        (["--center-grid", "-1:0.25:1"], ["--center-grid=-1:0.25:1"]),
        (["--sigma-grid", "-.5:1:2", "-1"], ["--sigma-grid=-.5:1:2", "-1"]),
        (["--center-grid", "--sigma-grid", "-1:1:1"], ["--center-grid", "--sigma-grid=-1:1:1"]),
        (["--center-grid", "-x", "-"], ["--center-grid", "-x", "-"]),
        (["--center-grid", "-", "--center-grid"], ["--center-grid", "-", "--center-grid"]),
        (["--tol", "-1", "--center-grid=-1:1:1"], ["--tol", "-1", "--center-grid=-1:1:1"]),
    ])
    def test_dash_led_grid_values_join_their_flag(self, argv, merged):
        assert cli._merge_dash_values(argv) == merged

    def test_usage_error_exit_code(self, capsys):
        assert main(["synth-bench", "--bogus-flag"]) == 1
        assert main(["frobnicate"]) == 1
        assert main(["synth-bench", "--methods", "gradient-boost", "--runs", "1"]) == 1

    @pytest.mark.parametrize("argv", [
        ["fit", "--method", "mcc", "--max-iter", "0"],
        ["fit", "--method", "mcc", "--tol", "0"],
        ["fit", "--method", "mcc", "--tol", "-1"],
        ["data-bench", "--methods", "mcc", "--max-iter", "0", "--runs", "1", "--folds", "2"],
        ["data-bench", "--runs", "0"],
        ["synth-bench", "--runs", "0"],
        ["synth-bench", "--mcc-sigma", ""],
        ["fit", "--runs", "1"],
        ["kernel-trace", "--runs", "1"],
        ["data-bench", "--lambda-prime", "1", "--runs", "1"],
        ["data-bench", "--methods", "", "--runs", "1"],
        ["data-bench", "--lambda-grid", "", "--runs", "1"],
        # synth-bench has no --jobs flag.
        ["synth-bench", "--jobs", "0"],
        ["synth-bench", "--lambda-prime", "-1"],
        ["synth-bench", "--samples", "0"],
        ["synth-bench", "--mcc-sigma", "0"],
        ["data-bench", "--lambda-grid", "0.1,-1", "--runs", "1"],
        ["data-bench", "--mcc-sigma", "0", "--runs", "1"],
        ["data-bench", "--hidden", "0", "--runs", "1"],
        ["data-bench", "--folds", "1", "--runs", "1"],
        ["data-bench", "--train-frac", "1.5", "--runs", "1"],
        ["fit", "--lambda-prime", "-1"],
        ["kernel-trace", "--lambda-prime", "-1"],
        ["synth-bench", "--sigma-grid", "0.1:1e-13:1"],
        ["synth-bench", "--sigma-grid", "1:inf:2"],
        ["synth-bench", "--sigma-grid", "0.1:1e-300:1"],
        ["synth-bench", "--center-grid", "nan:0.1:1"],
        ["fit", "--sigma-grid", "1e-200:1:1"],
        # One width rule: a width whose square underflows, as 0 and inf.
        ["synth-bench", "--mcc-sigma", "1e-300"],
        ["fit", "--mcc-sigma", "1e-300"],
        ["data-bench", "--mcc-sigma", "1e-300", "--runs", "1"],
        # Repeated entries would run, and count, their fits twice.
        ["synth-bench", "--methods", "mcc,mcc"],
        ["synth-bench", "--mcc-sigma", "1,1"],
        ["synth-bench", "--cases", "2,2"],
        ["data-bench", "--methods", "relm,relm", "--runs", "1"],
        ["data-bench", "--methods", "relm,mmse", "--runs", "1"],
        ["data-bench", "--lambda-grid", "1e-4,1e-4", "--runs", "1"],
        ["data-bench", "--mcc-sigma", "0.5,0.5", "--runs", "1"],
        ["synth-bench", "--cases", "5"],
        ["synth-bench", "--cases", "0,1"],
        ["kernel-trace", "--case", "5"],
        ["kernel-trace", "--iterations", ""],
        ["kernel-trace", "--bins", "0"],
        # One input file for fit, and one data source for kernel-trace.
        ["fit", "--csv", "second.csv"],
        ["kernel-trace", "--csv", "d.csv", "--case", "3"],
        ["kernel-trace", "--case", "2", "--csv", "d.csv"],
        # Flags of the source not in use: the synthetic case's with --csv, and
        # the CSV's without it.
        ["kernel-trace", "--csv", "d.csv", "--samples", "7"],
        ["kernel-trace", "--csv", "d.csv", "--seed", "9"],
        ["kernel-trace", "--case", "2", "--no-header"],
        # Values the flag parsers reject.
        ["synth-bench", "--sigma-grid", "1:2"],
        ["synth-bench", "--sigma-grid", "a:1:2"],
        ["synth-bench", "--sigma-grid", "2:1:1"],
        ["synth-bench", "--sigma-grid", "1:0:2"],
        ["synth-bench", "--mcc-sigma", "1,x"],
        ["synth-bench", "--cases", "1.5"],
        ["fit", "--normalize", "maybe"],
    ])
    def test_bad_settings_are_one_line_usage_errors(self, tmp_path, capsys, argv):
        path = tmp_path / "d.csv"
        path.write_text("".join(f"{i},{i % 3},{2 * i}\n" for i in range(8)))
        if argv[0] in ("fit", "data-bench"):
            # The argv's own flags come last, so they override these.
            argv = [argv[0], "--csv", str(path), "--no-header", "--hidden", "4", *argv[1:]]
        assert main(argv + ["--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mccvc: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cls, overrides", [
        (SynthBenchConfig, {"lambda_prime": -1.0}),
        (SynthBenchConfig, {"n_samples": 0}),
        (SynthBenchConfig, {"mcc_sigmas": (0.0,)}),
        (SynthBenchConfig, {"tolerance": 0.0}),
        (DataBenchConfig, {"lambda_grid": (0.1, -1.0)}),
        (DataBenchConfig, {"mcc_sigma_grid": (0.0,)}),
        (DataBenchConfig, {"hidden": 0}),
        (DataBenchConfig, {"folds": 1}),
        (DataBenchConfig, {"train_fraction": 1.5}),
        (DataBenchConfig, {"max_iterations": 0}),
        (FitCmdConfig, {"lambda_prime": -1.0}),
        (FitCmdConfig, {"lambda_prime": float("nan")}),
        (DataBenchConfig, {"lambda_grid": (1e-4, float("inf"))}),
        (FitCmdConfig, {"mcc_sigma": float("inf")}),
        (FitCmdConfig, {"hidden": 0}),
        (KernelTraceConfig, {"lambda_prime": -1.0}),
        (SynthBenchConfig, {"mcc_sigmas": (1e-300,)}),
        (DataBenchConfig, {"mcc_sigma_grid": (1.0, 1e-300)}),
        (FitCmdConfig, {"mcc_sigma": 1e-300}),
        (SynthBenchConfig, {"methods": ("mcc", "mcc")}),
        (SynthBenchConfig, {"mcc_sigmas": (1.0, 1.0)}),
        (SynthBenchConfig, {"cases": (2, 2)}),
        (SynthBenchConfig, {"cases": (1, 5)}),
        (SynthBenchConfig, {"cases": (0,)}),
        # A case number and a numeric target column must be integers, not
        # floats or bools (True would read as 1).
        (SynthBenchConfig, {"cases": (1.0,)}),
        (SynthBenchConfig, {"cases": (2, 3.0)}),
        (SynthBenchConfig, {"cases": (True,)}),
        (DataBenchConfig, {"target": 1.5}),
        (DataBenchConfig, {"target": 1.0}),
        (DataBenchConfig, {"target": True}),
        # A yes/no setting must be True or False: "false" and "no" are truthy.
        (FitCmdConfig, {"normalize": "false"}),
        (FitCmdConfig, {"bias_column": "no"}),
        (DataBenchConfig, {"bias_column": "no"}),
        # Generating weights: a non-empty finite vector.
        (SynthBenchConfig, {"w_star": ()}),
        (SynthBenchConfig, {"w_star": (float("nan"),)}),
        (SynthBenchConfig, {"w_star": ((1.0, 2.0),)}),
        (DataBenchConfig, {"methods": ("relm", "relm")}),
        # Two names of one method.
        (DataBenchConfig, {"methods": ("relm", "mmse")}),
        (DataBenchConfig, {"methods": ("mcc-vc", "elm-mcc-vc")}),
        (DataBenchConfig, {"lambda_grid": (1e-4, 1e-4)}),
        (DataBenchConfig, {"mcc_sigma_grid": (0.5, 0.5)}),
        (DataBenchConfig, {"model": "tree"}),
        (DataBenchConfig, {"norm_scope": "rows"}),
        (FitCmdConfig, {"model": "tree"}),
        (KernelTraceConfig, {"iterations": ()}),
        (KernelTraceConfig, {"bins": 0}),
        (KernelTraceConfig, {"hist_range": "clip"}),
        # A count must be an integer.
        (SynthBenchConfig, {"runs": 2.5}),
        (SynthBenchConfig, {"runs": True}),
        (SynthBenchConfig, {"n_samples": 10.5}),
        (SynthBenchConfig, {"seed": -1}),
        (SynthBenchConfig, {"seed": 1.5}),
        (DataBenchConfig, {"seed": -1}),
        (DataBenchConfig, {"seed": 1.5}),
        (FitCmdConfig, {"seed": -1}),
        (FitCmdConfig, {"seed": 1.5}),
        (DataBenchConfig, {"folds": 2.5}),
        (DataBenchConfig, {"hidden": 4.0}),
        (FitCmdConfig, {"hidden": True}),
        (FitCmdConfig, {"max_iterations": 2.5}),
        (KernelTraceConfig, {"bins": 2.5}),
        (KernelTraceConfig, {"iterations": (1, 1.5)}),
    ])
    def test_bad_settings_rejected_at_construction(self, cls, overrides):
        with pytest.raises(ValueError):
            cls(**overrides)

    def test_data_error_exit_code(self, tmp_path, capsys):
        assert main(["data-bench", "--csv", str(tmp_path / "missing.csv"),
                     "--runs", "1"]) == 2

    @pytest.mark.parametrize("command", ["synth-bench", "data-bench", "fit", "kernel-trace"])
    def test_seed_checked_before_any_file_is_read(self, tmp_path, capsys, command):
        argv = [command, "--seed", "-1", "--out", str(tmp_path / "o.json")]
        if command != "synth-bench":
            argv += ["--csv", str(tmp_path / "missing.csv")]
        assert main(argv) == 1
        assert "seed" in capsys.readouterr().err

    def test_synthetic_case_flags_with_csv_rejected_before_the_file_is_read(self, tmp_path,
                                                                             capsys):
        assert main(["kernel-trace", "--csv", str(tmp_path / "missing.csv"),
                     "--samples", "7", "--out", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err == (
            "mccvc: synthetic-case flags cannot go with --csv: --samples\n")

    @pytest.mark.parametrize("n_samples, seed, name", [(10, -1, "seed"), (0, 0, "n_samples")])
    def test_synth_case_design_checks_its_counts(self, n_samples, seed, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            synth_case_design(2, n_samples, seed)

    @pytest.mark.parametrize("case", [1.0, 5, True])
    def test_synth_case_design_checks_its_case(self, case):
        with pytest.raises(ValueError, match="^case must be"):
            synth_case_design(case, 10, 0)

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # all-zero feature column + no regularization: singular normal equations
        path = tmp_path / "dup.csv"
        rows = ["1,0,2", "2,0,4", "3,0,5", "4,0,9"]
        path.write_text("\n".join(rows) + "\n")
        code = main(["fit", "--csv", str(path), "--no-header", "--method", "mmse",
                     "--model", "linear", "--lambda-prime", "0",
                     "--normalize", "false", "--out", str(tmp_path / "m.json")])
        assert code == 3

    def test_float_target_index_without_a_header_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("1,0,2\n2,1,4\n3,0,5\n4,1,9\n")
        code = main(["fit", "--csv", str(path), "--no-header", "--target", "1.5",
                     "--model", "linear", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            "mccvc: data error: a target column index must be an integer, got '1.5'; "
            "a named target column requires has_header=True\n")

    def test_header_column_named_like_a_number_is_a_target(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,1.5\n1,0,2\n2,1,4\n3,0,5\n4,1,9\n")
        rmse = []
        for target in ("1.5", "2"):
            out = tmp_path / f"m-{target}.json"
            assert main(["fit", "--csv", str(path), "--target", target, "--model", "linear",
                         "--out", str(out)]) == 0
            rmse.append(json.loads(out.read_text())["training_rmse"])
        assert rmse[0] == rmse[1]

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e309"])
    def test_non_finite_cell_is_a_one_line_data_error(self, tmp_path, capsys, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"1,0,2\n2,1,4\n3,0,{cell}\n4,1,9\n")
        code = main(["fit", "--csv", str(path), "--no-header", "--model", "linear",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"mccvc: data error: {path}: row 3, column 3: '{cell}' is not a finite number\n")

    @pytest.mark.parametrize("method, code", [("mmse", 0), ("mcc", 3), ("mcc-vc", 3)])
    def test_shifted_targets_are_a_one_line_numerical_error(self, tmp_path, capsys,
                                                            method, code):
        # Targets 1000 above every center: no residual is within reach of any
        # kernel of the default grid, and beta = 0 must not be reported.
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 2, (50, 2))
        t = X @ [1.0, 2.0] + 1000.0 + rng.normal(0, 0.5, 50)
        path = tmp_path / "shifted.csv"
        path.write_text("".join(f"{a},{b},{y}\n" for (a, b), y in zip(X, t)))
        assert main(["fit", "--csv", str(path), "--no-header", "--model", "linear",
                     "--bias-column", "true", "--normalize", "false", "--method", method,
                     "--out", str(tmp_path / "m.json")]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("mccvc: numerical failure: no residual is within reach")
            assert err.endswith("rescale the targets or widen the grid\n")
            assert err.count("\n") == 1

    def test_all_failed_rows_print_n_a(self, tmp_path, capsys):
        code = main(["synth-bench", "--runs", "1", "--samples", "20", "--cases", "1",
                     "--methods", "mcc", "--mcc-sigma", "1e-30", "--lambda-prime", "0",
                     "--out", str(tmp_path / "s.json")])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[2:5] == ["n/a", "0.0000", "n/a"] and row[-2:] == ["0", "1"]

    @pytest.mark.parametrize("text, value", [
        ("true", True), (" Yes", True), ("1", True), ("ON", True),
        ("false", False), ("no", False), ("0", False), ("Off ", False),
    ])
    def test_parse_bool(self, text, value):
        assert _parse_bool(text) is value

    def test_huge_target_is_a_one_line_usage_error(self, tmp_path, capsys):
        # Without normalization the first residuals are the targets, and a
        # 1e200 one would overflow the kernel search's spread.
        path = tmp_path / "huge.csv"
        path.write_text("1,0,2\n2,1,4\n3,0,1e200\n4,1,9\n")
        code = main(["fit", "--csv", str(path), "--no-header", "--model", "linear",
                     "--normalize", "false", "--center-rule", "median",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("mccvc: error spread overflows") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["mmse", "mcc", "mcc-vc"])
    def test_overflowing_design_is_a_one_line_numerical_error(self, tmp_path, capsys, method):
        # Every entry is finite, but the normal equations H'WH overflow.
        path = tmp_path / "huge-feature.csv"
        path.write_text("1e200,0,2\n2,1,4\n3,0,1\n4,1,9\n")
        code = main(["fit", "--csv", str(path), "--no-header", "--model", "linear",
                     "--normalize", "false", "--method", method,
                     "--out", str(tmp_path / "m.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("mccvc: numerical failure: normal equations overflow; "
                       "rescale the design or targets\n")

    @pytest.mark.parametrize("method", ["mcc", "mcc-vc"])
    def test_overflowing_weights_are_a_one_line_numerical_error(self, tmp_path, capsys, method):
        # The normal equations are finite, but beta near 1e160 squares past
        # the largest float in the cost's ||beta||^2.
        path = tmp_path / "tiny-feature.csv"
        path.write_text("1e-160,1\n2e-160,2\n3e-160,3\n4e-160,5\n")
        code = main(["fit", "--csv", str(path), "--no-header", "--model", "linear",
                     "--normalize", "false", "--method", method, "--lambda-prime", "0",
                     "--out", str(tmp_path / "m.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == ("mccvc: numerical failure: weights overflow: ||beta||^2 is not finite; "
                       "rescale the design or targets\n")

    def test_target_wider_than_the_largest_float_is_a_one_line_data_error(self, tmp_path, capsys):
        # Every entry is finite, but max - min of the target overflows, so the
        # default min-max scaling cannot map it into [0, 1].
        path = tmp_path / "wide.csv"
        path.write_text("1,1e308\n2,-1e308\n3,1e308\n4,-1e308\n")
        code = main(["fit", "--csv", str(path), "--no-header", "--model", "linear",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == ("mccvc: data error: target column spans [-1e+308, 1e+308], wider than "
                       "the largest float; it cannot be min-max scaled\n")

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


class TestDefaults:
    """Each subcommand's flags take their defaults from the config it fills."""

    COMMANDS = [
        ("synth-bench", "run_synth_bench", SynthBenchConfig),
        ("data-bench", "run_data_bench", DataBenchConfig),
        ("fit", "run_fit", FitCmdConfig),
        ("kernel-trace", "run_kernel_trace", KernelTraceConfig),
    ]

    @staticmethod
    def _captured_config(monkeypatch, tmp_path, runner, argv):
        """The config `main(argv)` hands to `bench.<runner>`."""
        class Captured(Exception):
            pass

        def capture(*args):
            raise Captured(args[-1])

        monkeypatch.setattr(bench, runner, capture)
        path = tmp_path / "d.csv"
        path.write_text("1,2\n2,4\n3,7\n")
        if argv[0] in ("data-bench", "fit"):
            argv = argv + ["--csv", str(path)]
        with pytest.raises(Captured) as caught:
            main(argv)
        return caught.value.args[0]

    @pytest.mark.parametrize("command, runner, cls", COMMANDS)
    def test_cli_defaults_are_config_defaults(self, monkeypatch, tmp_path, command, runner, cls):
        cfg = self._captured_config(monkeypatch, tmp_path, runner, [command])
        assert cfg.to_dict() == cls().to_dict()

    @pytest.mark.parametrize(
        "command, runner", [(c, r) for c, r, _ in COMMANDS if c != "data-bench"]
    )
    def test_lambda_prime_fills_the_fitting_configs(self, monkeypatch, tmp_path, command, runner):
        argv = [command, "--lambda-prime", "0.5"]
        assert self._captured_config(monkeypatch, tmp_path, runner, argv).lambda_prime == 0.5

    @pytest.mark.parametrize("command", [c for c, _, _ in COMMANDS])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as caught:
            main([command, "--help"])
        assert caught.value.code == 0
        assert "(default" in capsys.readouterr().out

    def test_range_stops_at_its_end(self):
        assert _parse_range("0:0.6:1").tolist() == [0.0, 0.6]
        assert _parse_range("1e308:1e308:1.7e308").tolist() == [1e308]
        for text, count in [("0.2:0.2:5.0", 25), ("0.005:0.005:0.25", 50),
                            ("-5.0:0.1:5.0", 101)]:
            start, step, _ = (float(p) for p in text.split(":"))
            assert np.array_equal(_parse_range(text), start + step * np.arange(count))
        assert np.array_equal(_parse_range("0.005:0.005:0.25"), np.linspace(0.005, 0.25, 50))

    @pytest.mark.parametrize("text, message", [
        ("1:inf:2", "finite bounds"),
        ("nan:0.1:1", "finite bounds"),
        ("0.1:1e-300:1", "too many points"),
    ])
    def test_range_rejects_unbounded_grids(self, text, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            _parse_range(text)


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
