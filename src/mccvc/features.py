"""Linear-in-parameters feature maps: plain linear features and random hidden layers.

Both map an N x d input matrix to an N x m design matrix H; only the output
weights beta are ever trained, so predictions are always H @ beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_count, finite_array, frozen_copy, same_rows


@dataclass(frozen=True)
class HiddenLayerSpec:
    """Frozen random sigmoid hidden layer: weights (m x d) and biases (m,)."""

    input_weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        w = finite_array(self.input_weights, "input_weights", 2)
        b = finite_array(self.biases, "biases", 1)
        same_rows(w, b, "biases")
        object.__setattr__(self, "input_weights", frozen_copy(w))
        object.__setattr__(self, "biases", frozen_copy(b))

    @property
    def input_dim(self) -> int:
        return self.input_weights.shape[1]


def build_linear_features(inputs, bias_column: bool = False) -> np.ndarray:
    """Identity feature map; optionally appends a constant-1 column."""
    x = finite_array(inputs, "inputs", 2)
    if bias_column:
        return np.hstack([x, np.ones((x.shape[0], 1))])
    return x.copy()


def init_elm(input_dim: int, hidden_count: int, seed: int) -> HiddenLayerSpec:
    """Draw a random hidden layer: weights uniform on [-1, 1], biases on [0, 1].

    The layer is a pure function of the seed, so refitting with the same seed
    reproduces the same feature map bit for bit.
    """
    check_count(input_dim, 1, "input_dim")
    check_count(hidden_count, 1, "hidden_count")
    rng = np.random.default_rng(seed)
    weights = -1.0 + 2.0 * rng.random((hidden_count, input_dim))
    biases = rng.random(hidden_count)
    return HiddenLayerSpec(input_weights=weights, biases=biases)


def elm_features(spec: HiddenLayerSpec, inputs) -> np.ndarray:
    """Hidden-node outputs sigmoid(w_j . x_i + b_j), an N x m matrix in (0, 1)."""
    # Imported here, so that `import mccvc` loads no scipy.
    from scipy.special import expit

    x = finite_array(inputs, "inputs", 2)
    if x.shape[1] != spec.input_dim:
        raise ValueError(
            f"input dimension {x.shape[1]} does not match the layer's {spec.input_dim}"
        )
    return expit(x @ spec.input_weights.T + spec.biases)


def predict(H, beta) -> np.ndarray:
    """Model output H @ beta for a design matrix and learned weight vector."""
    H = np.asarray(H, dtype=float)
    b = np.asarray(beta, dtype=float)
    if H.ndim != 2 or b.ndim != 1 or H.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: H {H.shape} vs beta {b.shape}")
    return H @ b
