"""Feature-map unit tests: linear features, random hidden layers, prediction."""

import numpy as np
import pytest

from mccvc.features import (
    HiddenLayerSpec,
    build_linear_features,
    elm_features,
    init_elm,
    predict,
)

SIGMOID_3 = 0.95257412682243322  # oracle: 1/(1+exp(-3)), mpmath dps=30


class TestLinearFeatures:
    def test_identity_passthrough(self):
        x = np.eye(2)
        assert np.array_equal(build_linear_features(x), x)

    def test_row_values_preserved(self):
        out = build_linear_features(np.array([[-2.0, 2.0]]))
        assert np.array_equal(out, [[-2.0, 2.0]])

    def test_shape_contract(self):
        x = np.random.default_rng(0).normal(size=(17, 5))
        assert build_linear_features(x).shape == (17, 5)

    def test_bias_column(self):
        out = build_linear_features(np.zeros((3, 2)), bias_column=True)
        assert out.shape == (3, 3)
        assert np.array_equal(out[:, 2], np.ones(3))

    def test_output_is_a_copy(self):
        x = np.ones((2, 2))
        out = build_linear_features(x)
        out[0, 0] = 5.0
        assert x[0, 0] == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            build_linear_features(np.array([[1.0, np.nan]]))


class TestElmInit:
    def test_same_seed_identical(self):
        a = init_elm(5, 100, seed=3)
        b = init_elm(5, 100, seed=3)
        assert np.array_equal(a.input_weights, b.input_weights)
        assert np.array_equal(a.biases, b.biases)

    def test_different_seeds_differ(self):
        a = init_elm(5, 100, seed=3)
        b = init_elm(5, 100, seed=4)
        assert not np.array_equal(a.input_weights, b.input_weights)

    def test_shapes_and_ranges(self):
        spec = init_elm(5, 100, seed=0)
        assert spec.input_weights.shape == (100, 5)
        assert spec.biases.shape == (100,)
        assert np.all(spec.input_weights >= -1.0) and np.all(spec.input_weights <= 1.0)
        assert np.all(spec.biases >= 0.0) and np.all(spec.biases <= 1.0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_elm(0, 10, seed=0)
        with pytest.raises(ValueError):
            init_elm(3, 0, seed=0)


class TestElmFeatures:
    def test_zero_weights_give_half(self):
        spec = HiddenLayerSpec(np.zeros((4, 2)), np.zeros(4))
        out = elm_features(spec, np.random.default_rng(1).normal(size=(6, 2)))
        assert np.array_equal(out, np.full((6, 4), 0.5))

    def test_saturation_without_overflow(self):
        spec = HiddenLayerSpec(np.array([[40.0]]), np.array([0.0]))
        with np.errstate(over="raise"):
            out = elm_features(spec, np.array([[1.0]]))
        assert out[0, 0] == 1.0
        out_neg = elm_features(spec, np.array([[-1.0]]))
        assert out_neg[0, 0] == pytest.approx(0.0, abs=1e-17)

    def test_single_node_oracle(self):
        spec = HiddenLayerSpec(np.array([[1.0, 1.0]]), np.array([0.0]))
        out = elm_features(spec, np.array([[1.0, 2.0]]))
        assert out[0, 0] == pytest.approx(SIGMOID_3, rel=1e-14)

    def test_outputs_strictly_inside_unit_interval(self):
        spec = init_elm(4, 60, seed=9)
        x = np.random.default_rng(10).uniform(-2, 2, (50, 4))
        out = elm_features(spec, x)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_dimension_mismatch(self):
        spec = init_elm(3, 10, seed=0)
        with pytest.raises(ValueError):
            elm_features(spec, np.zeros((5, 4)))

    def test_pipeline_reproducible(self):
        x = np.random.default_rng(11).uniform(-2, 2, (30, 3))
        a = elm_features(init_elm(3, 20, seed=5), x)
        b = elm_features(init_elm(3, 20, seed=5), x)
        assert np.array_equal(a, b)


class TestPredict:
    def test_identity_design(self):
        beta = np.array([3.0, -1.0, 0.5])
        assert np.array_equal(predict(np.eye(3), beta), beta)

    def test_zero_weights(self):
        H = np.random.default_rng(12).normal(size=(8, 3))
        assert np.array_equal(predict(H, np.zeros(3)), np.zeros(8))

    def test_hand_product(self):
        out = predict(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 1.0]))
        assert np.array_equal(out, [3.0, 7.0])

    def test_linearity(self):
        rng = np.random.default_rng(13)
        H = rng.normal(size=(20, 4))
        b1, b2 = rng.normal(size=4), rng.normal(size=4)
        lhs = predict(H, 2.0 * b1 - 0.5 * b2)
        rhs = 2.0 * predict(H, b1) - 0.5 * predict(H, b2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            predict(np.eye(3), np.zeros(2))
