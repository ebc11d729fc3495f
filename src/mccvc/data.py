"""Synthetic data generation, CSV ingestion, normalization, splits, and metrics.

All stochastic routines are pure functions of their parameters and an integer
seed: the underlying uniform stream comes from numpy's seeded PCG64 generator,
and every non-uniform draw is produced by an explicit transform of that stream
(Box-Muller normals, inverse-CDF Laplace, chi-square as a sum of squared
normals), so repeated calls are bit-identical on a given platform.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._checks import check_count, finite_array, frozen_copy, same_rows
from ._serialize import JsonRecord
from .errors import DataError

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Noise models
# ---------------------------------------------------------------------------

def _standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    # Box-Muller on the uniform stream; 1 - U keeps the log argument in (0, 1].
    half = (n + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(_TWO_PI * u2), radius * np.sin(_TWO_PI * u2)])
    return z[:n]


@dataclass(frozen=True)
class _MeanVariance:
    mean: float
    variance: float

    def __post_init__(self):
        name = type(self).__name__
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError(f"{name} parameters must be finite")
        if self.variance <= 0.0:
            raise ValueError(f"{name} variance must be positive")


@dataclass(frozen=True)
class Gaussian(_MeanVariance):
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean + math.sqrt(self.variance) * _standard_normals(rng, n)


@dataclass(frozen=True)
class Laplace(_MeanVariance):
    @property
    def scale(self) -> float:
        # variance = 2 b^2
        return math.sqrt(self.variance / 2.0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n) - 0.5
        arg = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
        return self.mean - self.scale * np.sign(u) * np.log(arg)


@dataclass(frozen=True)
class ChiSquare:
    dof: int

    def __post_init__(self):
        object.__setattr__(self, "dof", check_count(self.dof, 1, "dof"))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = _standard_normals(rng, n * self.dof).reshape(n, self.dof)
        return np.sum(z * z, axis=1)


InnerNoise = Gaussian | Laplace | ChiSquare


@dataclass(frozen=True)
class NoiseModel:
    """Contamination mixture (1 - g) B + g O with Bernoulli(g) = p."""

    p: float
    inner: InnerNoise
    outlier: Gaussian

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("outlier probability must lie in [0, 1]")


def _sample_noise(model: NoiseModel, n: int, rng: np.random.Generator):
    # Fixed draw order (switch, inner, outlier) pins the stream layout.
    g = rng.random(n) < model.p
    inner = model.inner.sample(rng, n)
    outlier = model.outlier.sample(rng, n)
    return np.where(g, outlier, inner), g


def sample_noise(model: NoiseModel, n: int, seed: int) -> np.ndarray:
    """Draw n mixture-noise values."""
    check_count(n, 1, "n")
    return _sample_noise(model, n, np.random.default_rng(seed))[0]


def inner_noise_presets() -> list[NoiseModel]:
    """The four benchmark contamination cases, 10% outliers of variance 1e4.

    Inner noise: 1) Gaussian(0, 2); 2) Gaussian(3, 1); 3) zero-mean Laplace of
    unit variance; 4) chi-square with 3 degrees of freedom.
    """
    outlier = Gaussian(0.0, 10000.0)
    return [
        NoiseModel(0.1, Gaussian(0.0, 2.0), outlier),
        NoiseModel(0.1, Gaussian(3.0, 1.0), outlier),
        NoiseModel(0.1, Laplace(0.0, 1.0), outlier),
        NoiseModel(0.1, ChiSquare(3), outlier),
    ]


def generate_linear_data(w_star, n: int, noise: NoiseModel, seed: int):
    """Inputs uniform on [-2, 2]^d and targets X w* + mixture noise."""
    w = finite_array(w_star, "w_star", 1)
    check_count(n, 1, "n")
    rng = np.random.default_rng(seed)
    inputs = -2.0 + 4.0 * rng.random((n, w.size))
    rho, _ = _sample_noise(noise, n, rng)
    return inputs, inputs @ w + rho


# ---------------------------------------------------------------------------
# Tabular datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TabularDataset:
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = finite_array(self.features, "features", 2)
        y = finite_array(self.targets, "targets", 1)
        same_rows(x, y, "targets")
        object.__setattr__(self, "features", frozen_copy(x))
        object.__setattr__(self, "targets", frozen_copy(y))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "TabularDataset":
        return TabularDataset(self.features[indices], self.targets[indices])


def load_csv(path, has_header: bool, target_column) -> TabularDataset:
    """Read a numeric CSV into features and a target column.

    `target_column` is a 0-based integer column index (negative counts from
    the end; a float such as 1.5 is a DataError) or, when `has_header`, a
    column name.  A cell that is not a finite number ('abc', 'nan', '1e309')
    is a DataError naming its 1-based row and column.
    The file is UTF-8; a leading byte-order mark, as spreadsheet exports
    write, is skipped.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DataError(f"{path}: file is empty")

    names: list[str] | None = None
    first_data_row = 0
    if has_header:
        names = [cell.strip() for cell in rows[0]]
        first_data_row = 1
    data_rows = rows[first_data_row:]
    if len(data_rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {len(data_rows)}")

    width = len(data_rows[0])
    # Each cell is converted once, into a list that becomes the array at the end.
    cells = []
    for i, row in enumerate(data_rows):
        file_row = i + first_data_row + 1
        if len(row) != width:
            raise DataError(
                f"{path}: row {file_row} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(f"{path}: row {file_row}, column {j + 1}: "
                                f"{cell.strip()!r} is not a finite number")
            cells.append(value)
    values = np.array(cells).reshape(len(data_rows), width)

    if isinstance(target_column, str):
        if names is None:
            raise DataError(f"a target column index must be an integer, got {target_column!r}; "
                            "a named target column requires has_header=True")
        if target_column not in names:
            raise DataError(f"{path}: no column named {target_column!r}")
        target_idx = names.index(target_column)
    else:
        try:
            target_idx = operator.index(target_column)
        except TypeError:
            raise DataError(f"target column must be a name or an integer, got {target_column!r}") from None
        if not -width <= target_idx < width:
            raise DataError(f"{path}: target column {target_column} out of range")
        target_idx %= width

    feature_idx = [j for j in range(width) if j != target_idx]
    if not feature_idx:
        raise DataError(f"{path}: no feature columns besides the target")
    return TabularDataset(features=values[:, feature_idx], targets=values[:, target_idx])


# ---------------------------------------------------------------------------
# Min-max normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinMaxRecord(JsonRecord):
    """Per-column affine transforms mapping a dataset into [0, 1].

    Constant columns map to 0.5 and invert back to their constant value.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: float
    target_max: float

    @staticmethod
    def _forward(x, lo, hi):
        span = hi - lo
        safe = np.where(span > 0.0, span, 1.0)
        return np.where(span > 0.0, (x - lo) / safe, 0.5)

    @staticmethod
    def _backward(y, lo, hi):
        return lo + y * (hi - lo)

    def transform_features(self, features: np.ndarray) -> np.ndarray:
        return self._forward(features, self.feature_min, self.feature_max)

    def transform_targets(self, targets: np.ndarray) -> np.ndarray:
        return self._forward(targets, self.target_min, self.target_max)

    def inverse_targets(self, targets: np.ndarray) -> np.ndarray:
        return self._backward(targets, self.target_min, self.target_max)


def minmax_record(data: TabularDataset) -> MinMaxRecord:
    """Column minima/maxima of `data`, for [0, 1] scaling.

    A column whose max - min overflows cannot be scaled and raises DataError.
    """
    record = MinMaxRecord(
        feature_min=data.features.min(axis=0),
        feature_max=data.features.max(axis=0),
        target_min=float(data.targets.min()),
        target_max=float(data.targets.max()),
    )
    lo = np.append(record.feature_min, record.target_min)
    hi = np.append(record.feature_max, record.target_max)
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(np.isinf(hi - lo))
    if wide.size:
        j = int(wide[0])
        name = "target" if j == data.n_features else f"feature {j}"
        raise DataError(f"{name} column spans [{lo[j]:g}, {hi[j]:g}], "
                        "wider than the largest float; it cannot be min-max scaled")
    return record


def apply_minmax(record: MinMaxRecord, data: TabularDataset) -> TabularDataset:
    return TabularDataset(
        record.transform_features(data.features), record.transform_targets(data.targets)
    )


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Random train/test split: the training fraction and the shuffle seed."""

    train_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")

    def resolve_train_count(self, n: int) -> int:
        count = int(round(self.train_fraction * n))
        if not 1 <= count <= n - 1:
            raise DataError(
                f"cannot split {n} rows into {count} train / {n - count} test"
            )
        return count


def split(data: TabularDataset, spec: SplitSpec) -> tuple[TabularDataset, TabularDataset]:
    """Disjoint random split of the rows, deterministic per seed."""
    n = data.n_rows
    n_train = spec.resolve_train_count(n)
    perm = np.random.default_rng(spec.seed).permutation(n)
    return data.take(perm[:n_train]), data.take(perm[n_train:])


def kfold_indices(n: int, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shuffled k-fold partition of range(n); fold sizes differ by at most one."""
    check_count(folds, 2, "folds")
    if n < folds:
        raise DataError(f"cannot make {folds} folds from {n} rows")
    perm = np.random.default_rng(seed).permutation(n)
    parts = np.array_split(perm, folds)
    out = []
    for i in range(folds):
        val = parts[i]
        train = np.concatenate([parts[j] for j in range(folds) if j != i])
        out.append((train, val))
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _rmse(a, b, what: str) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError(f"{what} vectors must be non-empty and match: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.sqrt(diff @ diff / a.size))


def rmse_weights(estimated, true_w) -> float:
    """Weight-recovery error sqrt(||estimated - true||^2 / d)."""
    return _rmse(estimated, true_w, "weight")


def rmse_predictions(predicted, targets) -> float:
    """Prediction error sqrt(mean((y - t)^2))."""
    return _rmse(predicted, targets, "prediction")
