"""Noise generators, dataset plumbing, and metric tests.

Statistical bounds below are 6-sigma-and-wider intervals around the true
moments, derived from the sampling distribution of each statistic; frozen
seeds make the checks deterministic regardless.
"""

import warnings

import numpy as np
import pytest

from mccvc.data import (
    ChiSquare,
    Gaussian,
    Laplace,
    NoiseModel,
    SplitSpec,
    TabularDataset,
    _sample_noise,
    apply_minmax,
    generate_linear_data,
    inner_noise_presets,
    kfold_indices,
    load_csv,
    minmax_record,
    rmse_predictions,
    rmse_weights,
    sample_noise,
    split,
)
from mccvc.errors import DataError


class TestSampleNoise:
    def test_deterministic(self):
        model = NoiseModel(0.1, Gaussian(3.0, 1.0), Gaussian(0.0, 10000.0))
        a = sample_noise(model, 1000, seed=5)
        b = sample_noise(model, 1000, seed=5)
        assert np.array_equal(a, b)

    def test_no_outliers_at_zero_rate(self):
        model = NoiseModel(0.0, Gaussian(0.0, 2.0), Gaussian(0.0, 10000.0))
        values, mask = _sample_noise(model, 5000, np.random.default_rng(1))
        assert mask.sum() == 0
        # pure inner noise: sample variance near 2
        assert 1.8 <= values.var() <= 2.2

    def test_all_outliers_at_unit_rate(self):
        model = NoiseModel(1.0, Gaussian(0.0, 2.0), Gaussian(0.0, 10000.0))
        values, mask = _sample_noise(model, 10000, np.random.default_rng(2))
        assert mask.all()
        assert 8000.0 <= values.var() <= 12000.0

    def test_outlier_fraction_binomial_bounds(self):
        model = NoiseModel(0.1, Gaussian(0.0, 2.0), Gaussian(0.0, 10000.0))
        _, mask = _sample_noise(model, 100000, np.random.default_rng(3))
        assert 0.094 <= mask.mean() <= 0.106

    def test_rejects_bad_count(self):
        model = NoiseModel(0.1, Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
        with pytest.raises(ValueError):
            sample_noise(model, 0, seed=0)


class TestDistributions:
    def test_chi_square_moments(self):
        rng = np.random.default_rng(4)
        draws = ChiSquare(3).sample(rng, 100000)
        assert 2.9 <= draws.mean() <= 3.1
        assert 5.6 <= draws.var() <= 6.4

    def test_laplace_moments(self):
        rng = np.random.default_rng(5)
        draws = Laplace(0.0, 1.0).sample(rng, 100000)
        assert 0.95 <= draws.var() <= 1.05
        assert -0.02 <= np.median(draws) <= 0.02

    def test_gaussian_moments(self):
        rng = np.random.default_rng(6)
        draws = Gaussian(3.0, 1.0).sample(rng, 100000)
        assert 2.98 <= draws.mean() <= 3.02
        assert 0.97 <= draws.var() <= 1.03

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Laplace(0.0, -1.0)
        with pytest.raises(ValueError):
            ChiSquare(0)
        with pytest.raises(ValueError):
            NoiseModel(1.5, Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))

    @pytest.mark.parametrize("cls", [Gaussian, Laplace])
    @pytest.mark.parametrize("mean, variance", [(np.nan, 1.0), (0.0, np.inf)])
    def test_rejects_non_finite_parameters(self, cls, mean, variance):
        with pytest.raises(ValueError, match="parameters must be finite"):
            cls(mean, variance)


class TestPresets:
    def test_four_cases_in_order(self):
        presets = inner_noise_presets()
        assert len(presets) == 4
        assert all(m.p == 0.1 for m in presets)
        assert all(m.outlier == Gaussian(0.0, 10000.0) for m in presets)
        assert presets[0].inner == Gaussian(0.0, 2.0)
        assert presets[1].inner == Gaussian(3.0, 1.0)
        assert presets[2].inner == Laplace(0.0, 1.0)
        assert presets[3].inner == ChiSquare(3)

    def test_laplace_scale_from_unit_variance(self):
        # variance = 2 b^2, so unit variance means b = 1/sqrt(2)
        assert inner_noise_presets()[2].inner.scale == pytest.approx(
            1.0 / np.sqrt(2.0), rel=1e-12
        )

    def test_chi_square_mean_is_dof(self):
        rng = np.random.default_rng(7)
        draws = inner_noise_presets()[3].inner.sample(rng, 50000)
        assert 2.9 <= draws.mean() <= 3.1


class TestGenerateLinearData:
    def test_near_noiseless_targets(self):
        model = NoiseModel(0.0, Gaussian(0.0, 1e-12), Gaussian(0.0, 1.0))
        X, t = generate_linear_data(np.array([1.0, 2.0]), 500, model, seed=8)
        assert np.max(np.abs(t - X @ [1.0, 2.0])) <= 1e-5

    def test_inputs_cover_the_square(self):
        model = NoiseModel(0.1, Gaussian(0.0, 1.0), Gaussian(0.0, 100.0))
        X, _ = generate_linear_data(np.array([1.0, 2.0]), 10000, model, seed=9)
        assert X.min() >= -2.0 and X.max() <= 2.0
        # draws actually spread over the square, not a corner of it
        assert X.min() < -1.9 and X.max() > 1.9

    def test_deterministic(self):
        model = NoiseModel(0.1, Gaussian(3.0, 1.0), Gaussian(0.0, 10000.0))
        a = generate_linear_data(np.array([1.0, 2.0]), 100, model, seed=10)
        b = generate_linear_data(np.array([1.0, 2.0]), 100, model, seed=10)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_rejects_bad_weights(self):
        model = NoiseModel(0.0, Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
        with pytest.raises(ValueError):
            generate_linear_data(np.array([]), 10, model, seed=0)

    def test_rejects_bad_count(self):
        model = NoiseModel(0.0, Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
        with pytest.raises(ValueError, match="n must be at least 1"):
            generate_linear_data(np.array([1.0]), 0, model, seed=0)


class TestLoadCsv:
    def test_basic_numeric_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n4,5,6\n7,8,9\n")
        data = load_csv(path, has_header=False, target_column=-1)
        assert data.features.shape == (3, 2)
        assert np.array_equal(data.targets, [3.0, 6.0, 9.0])

    def test_named_target_matches_positional(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,3\n4,5,6\n")
        by_name = load_csv(path, has_header=True, target_column="y")
        by_index = load_csv(path, has_header=True, target_column=2)
        assert np.array_equal(by_name.features, by_index.features)
        assert np.array_equal(by_name.targets, by_index.targets)

    @pytest.mark.parametrize("text, has_header, target, targets", [
        ("1,2,3\n4,5,6\n7,8,9\n", False, -1, [3.0, 6.0, 9.0]),
        ("x,b,y\n1,2,3\n4,5,6\n", True, "x", [1.0, 4.0]),
    ])
    def test_byte_order_mark_is_skipped(self, tmp_path, text, has_header, target, targets):
        # Spreadsheet exports start their UTF-8 files with U+FEFF.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        a = load_csv(plain, has_header=has_header, target_column=target)
        b = load_csv(marked, has_header=has_header, target_column=target)
        assert np.array_equal(a.targets, targets)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_parse_error_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,abc\n5,6\n")
        with pytest.raises(DataError, match=r"row 2, column 2.*abc"):
            load_csv(path, has_header=False, target_column=-1)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e309"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        # Such a cell parses as a float, but no dataset may hold it.
        path = tmp_path / "d.csv"
        path.write_text(f"a,b\n1,2\n3,4\n{cell},6\n")
        with pytest.raises(DataError, match=rf"row 4, column 1: '{cell}' is not a finite number"):
            load_csv(path, has_header=True, target_column=-1)

    @pytest.mark.parametrize("text, has_header, target, message", [
        ("\n \n,\n", False, -1, "file is empty"),
        ("1,2\n3,4\n", False, "b", "requires has_header"),
        ("1,2\n3,4\n", False, 2, "target column 2 out of range"),
        ("1,2\n3,4\n", False, -3, "target column -3 out of range"),
        ("1\n2\n", False, 0, "no feature columns"),
        # A float column index, even 1.0, or a bool is neither a name nor an index.
        ("1,2,3\n4,5,6\n", False, 1.5, "must be a name or an integer, got 1.5"),
        ("1,2,3\n4,5,6\n", False, 1.0, "must be a name or an integer, got 1.0"),
        ("1,2,3\n4,5,6\n", False, True, "must be a name or an integer, got True"),
    ])
    def test_unusable_layout_is_a_data_error(self, tmp_path, text, has_header, target, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            load_csv(path, has_header=has_header, target_column=target)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4,5\n6,7\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path, has_header=False, target_column=-1)

    def test_missing_named_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match="nope"):
            load_csv(path, has_header=True, target_column="nope")

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n")
        with pytest.raises(DataError, match="at least 2"):
            load_csv(path, has_header=False, target_column=-1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv", has_header=False, target_column=0)


def _normalized(data):
    record = minmax_record(data)
    return apply_minmax(record, data), record


class TestNormalize:
    def test_column_mapped_to_unit_interval(self):
        data = TabularDataset(np.array([[0.0], [5.0], [10.0]]), np.array([1.0, 2.0, 3.0]))
        out, _ = _normalized(data)
        assert np.array_equal(out.features[:, 0], [0.0, 0.5, 1.0])
        assert np.array_equal(out.targets, [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_half(self):
        data = TabularDataset(np.array([[7.0, 1.0], [7.0, 2.0], [7.0, 3.0]]),
                              np.array([1.0, 2.0, 3.0]))
        out, _ = _normalized(data)
        assert np.array_equal(out.features[:, 0], [0.5, 0.5, 0.5])

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        data = TabularDataset(rng.normal(size=(30, 4)) * 13.0, rng.normal(size=30) * 7.0)
        out, record = _normalized(data)
        span = record.feature_max - record.feature_min
        np.testing.assert_allclose(record.feature_min + out.features * span,
                                   data.features, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(record.inverse_targets(out.targets),
                                   data.targets, rtol=1e-12, atol=1e-12)

    def test_constant_column_round_trip(self):
        data = TabularDataset(np.array([[1.0], [2.0], [3.0]]), np.array([7.0, 7.0, 7.0]))
        out, record = _normalized(data)
        assert np.array_equal(out.targets, [0.5, 0.5, 0.5])
        np.testing.assert_allclose(record.inverse_targets(out.targets), 7.0)

    def test_extremes_hit_bounds(self):
        rng = np.random.default_rng(12)
        data = TabularDataset(rng.normal(size=(50, 3)), rng.normal(size=50))
        out, _ = _normalized(data)
        assert np.all(out.features >= 0.0) and np.all(out.features <= 1.0)
        assert np.allclose(out.features.min(axis=0), 0.0)
        assert np.allclose(out.features.max(axis=0), 1.0)

    @pytest.mark.parametrize("column, name", [(0, "feature 0"), (1, "feature 1"), (2, "target")])
    def test_column_wider_than_the_largest_float_is_rejected(self, column, name):
        values = np.ones((3, 3))
        values[0, column], values[1, column] = 1e308, -1e308
        with pytest.raises(DataError, match=rf"^{name} column spans \[-1e\+308, 1e\+308\], wider"):
            minmax_record(TabularDataset(values[:, :2], values[:, 2]))
        # A span just below the largest float is scaled.
        values[1, column] = -7e307
        out, _ = _normalized(TabularDataset(values[:, :2], values[:, 2]))
        assert out.features.max() <= 1.0 and out.targets.min() >= 0.0

    def test_record_serialization_round_trip(self):
        from mccvc.data import MinMaxRecord

        rng = np.random.default_rng(13)
        data = TabularDataset(rng.normal(size=(10, 2)), rng.normal(size=10))
        record = minmax_record(data)
        clone = MinMaxRecord.from_dict(record.to_dict())
        np.testing.assert_array_equal(clone.feature_min, record.feature_min)
        assert clone.target_max == record.target_max


class TestSplit:
    def _dataset(self, n):
        rng = np.random.default_rng(14)
        return TabularDataset(rng.normal(size=(n, 3)), rng.normal(size=n))

    def test_half_split_of_166_rows(self):
        train, test = split(self._dataset(166), SplitSpec(train_fraction=0.5, seed=0))
        assert train.n_rows == 83 and test.n_rows == 83

    def test_deterministic(self):
        data = self._dataset(50)
        a = split(data, SplitSpec(train_fraction=0.6, seed=3))
        b = split(data, SplitSpec(train_fraction=0.6, seed=3))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].targets, b[1].targets)

    def test_partition_property(self):
        data = self._dataset(40)
        train, test = split(data, SplitSpec(train_fraction=0.7, seed=5))
        merged = np.vstack([train.features, test.features])
        assert merged.shape == data.features.shape
        # every original row appears exactly once across the two splits
        original = {tuple(row) for row in data.features}
        recovered = [tuple(row) for row in merged]
        assert len(recovered) == len(original)
        assert set(recovered) == original

    def test_degenerate_split_rejected(self):
        # 0.9 of 3 rows rounds to all 3, which leaves no test row
        with pytest.raises(DataError):
            split(self._dataset(3), SplitSpec(train_fraction=0.9, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.5)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.0)


class TestKfold:
    def test_even_folds(self):
        folds = kfold_indices(10, 5, seed=0)
        assert [len(v) for _, v in folds] == [2, 2, 2, 2, 2]

    def test_uneven_folds(self):
        folds = kfold_indices(11, 5, seed=0)
        assert sorted((len(v) for _, v in folds), reverse=True) == [3, 2, 2, 2, 2]

    def test_each_index_validated_once(self):
        folds = kfold_indices(23, 4, seed=7)
        seen = np.concatenate([v for _, v in folds])
        assert sorted(seen.tolist()) == list(range(23))
        for train, val in folds:
            assert set(train) & set(val) == set()
            assert len(train) + len(val) == 23

    def test_too_few_rows(self):
        with pytest.raises(DataError):
            kfold_indices(3, 5, seed=0)

    def test_bad_fold_count(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1, seed=0)


class TestMetrics:
    def test_weight_rmse_zero_for_identical(self):
        assert rmse_weights([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_weight_rmse_unit_case(self):
        assert rmse_weights([2.0, 3.0], [1.0, 2.0]) == pytest.approx(1.0, rel=1e-14)

    def test_weight_rmse_oracle(self):
        # sqrt((3^2 + 4^2) / 2), mpmath dps=30
        assert rmse_weights([4.0, 6.0], [1.0, 2.0]) == pytest.approx(
            3.5355339059327376, rel=1e-14
        )

    def test_prediction_rmse_zero_for_identical(self):
        assert rmse_predictions([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_prediction_rmse_unit_case(self):
        assert rmse_predictions([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_prediction_rmse_oracle(self):
        # sqrt(2/3), mpmath dps=30
        assert rmse_predictions([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(
            0.81649658092772603, rel=1e-14
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse_weights([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            rmse_predictions([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("rmse, what", [(rmse_weights, "weight"),
                                            (rmse_predictions, "prediction")])
    def test_empty_vectors_are_rejected_not_nan(self, rmse, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"{what} vectors must be non-empty"):
                rmse([], [])


class TestTabularDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TabularDataset(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            TabularDataset(np.array([[np.nan, 1.0]]), np.array([1.0]))

    @pytest.mark.parametrize("features, targets", [
        (np.zeros((0, 2)), np.zeros(0)),
        (np.zeros((2, 0)), np.zeros(2)),
    ])
    def test_rejects_an_empty_table(self, features, targets):
        with pytest.raises(ValueError, match="features must be a non-empty 2-D array"):
            TabularDataset(features, targets)

    def test_stores_read_only_copies_of_the_callers_arrays(self):
        x, t = np.arange(6.0).reshape(3, 2), np.arange(3.0)
        data = TabularDataset(x, t)
        assert x.flags.writeable and t.flags.writeable
        assert not data.features.flags.writeable and not data.targets.flags.writeable
        x[0, 0] = t[0] = 9.0
        assert data.features[0, 0] == data.targets[0] == 0.0
        # The copy keeps the layout, and so the bits of every product with it.
        column_major = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        assert TabularDataset(column_major, t).features.flags.f_contiguous

    def test_take_selects_rows(self):
        data = TabularDataset(np.arange(6.0).reshape(3, 2), np.arange(3.0))
        sub = data.take([2, 0])
        assert np.array_equal(sub.targets, [2.0, 0.0])
