"""Labeled sensor datasets: CSV I/O, seeded splitting, z-score
normalization, and a parametric synthetic generator.

The 13 features, in canonical order:
ax, ay, az (g); yaw, pitch, roll (deg/s); load_left, load_right (piezo
units); mq2, mq135 (ppm-proxy); temp (degC); humidity (%RH); water {0,1}.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from . import files

FEATURE_NAMES = (
    "ax", "ay", "az", "yaw", "pitch", "roll",
    "load_left", "load_right", "mq2", "mq135",
    "temp", "humidity", "water",
)
N_FEATURES = len(FEATURE_NAMES)

DEFAULT_CLASSES = ("Idle", "Walking", "Running", "Climbing", "Falling")

CSV_HEADER = list(FEATURE_NAMES) + ["label"]


class DatasetError(Exception):
    """CSV parse or dataset construction failure."""


class Dataset:
    """Feature matrix (n, 13) with integer labels and a class vocabulary."""

    def __init__(self, features, labels, classes=DEFAULT_CLASSES):
        self.features = np.asarray(features, dtype=float).reshape(-1, N_FEATURES)
        self.labels = np.asarray(labels, dtype=int).reshape(-1)
        self.classes = tuple(classes)
        if len(self.classes) != len(set(self.classes)) or not all(self.classes):
            raise DatasetError("class names must be unique and non-empty")
        if len(self.features) != len(self.labels):
            raise DatasetError("feature/label count mismatch")
        if len(self.labels) and (
                self.labels.min() < 0 or self.labels.max() >= len(self.classes)):
            raise DatasetError("label outside vocabulary")
        if not np.all(np.isfinite(self.features)):
            raise DatasetError("features must be finite")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass(frozen=True)
class Normalizer:
    """Per-feature z-score statistics fitted on a training set."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, features):
        x = np.asarray(features, dtype=float)
        return (x - self.mean) / self.std


def fit_normalizer(dataset: Dataset) -> Normalizer:
    """Population mean/std per feature; constant columns get std floored to 1."""
    if len(dataset) == 0:
        raise DatasetError("cannot fit normalizer on empty dataset")
    mean = dataset.features.mean(axis=0)
    std = dataset.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return Normalizer(mean, std)


def split(dataset: Dataset, train_fraction: float, seed: int):
    """Seeded exact partition; train gets floor(fraction * N) rows."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train_fraction must be in (0, 1)")
    if len(dataset) == 0:
        raise DatasetError("cannot split empty dataset")
    n = len(dataset)
    n_train = int(np.floor(train_fraction * n))
    order = np.random.default_rng(seed).permutation(n)
    tr, te = order[:n_train], order[n_train:]
    return (
        Dataset(dataset.features[tr], dataset.labels[tr], dataset.classes),
        Dataset(dataset.features[te], dataset.labels[te], dataset.classes),
    )


def load_csv(source, classes=DEFAULT_CLASSES) -> Dataset:
    """Read a labeled dataset from a path or text stream.

    Strict: header must match, every row needs 13 numeric features plus a
    known label name; failures are reported with their row number.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return load_csv(fh, classes)
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError("empty CSV: missing header") from None
    if header != CSV_HEADER:
        raise DatasetError(f"bad header {header!r}, expected {CSV_HEADER!r}")
    class_index = {name: i for i, name in enumerate(classes)}
    features, labels = [], []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != N_FEATURES + 1:
            raise DatasetError(
                f"row {row_no}: expected {N_FEATURES + 1} columns, got {len(row)}")
        try:
            values = [float(v) for v in row[:N_FEATURES]]
        except ValueError as e:
            raise DatasetError(f"row {row_no}: non-numeric field ({e})") from None
        label = row[N_FEATURES]
        if label not in class_index:
            raise DatasetError(f"row {row_no}: unknown label {label!r}")
        features.append(values)
        labels.append(class_index[label])
    if not features:
        raise DatasetError("CSV contains no data rows")
    return Dataset(np.array(features), np.array(labels), classes)


def save_csv(dataset: Dataset, sink=None) -> str | None:
    """Write the dataset as CSV to a path or text stream.

    With no sink, returns the CSV text; a file at a path is replaced whole.
    Values round-trip through repr so load(save(d)) reproduces d exactly.
    """
    if isinstance(sink, (str, bytes, os.PathLike)):
        files.replace(sink, save_csv(dataset).encode("utf-8"))
        return None
    buf = sink if sink is not None else io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for x, y in zip(dataset.features, dataset.labels):
        writer.writerow([repr(float(v)) for v in x] + [dataset.classes[y]])
    if sink is None:
        return buf.getvalue()
    return None


@dataclass(frozen=True)
class ClassProfile:
    """Gaussian signal statistics for one activity class.

    mean/std cover all 13 features; the water column is drawn Bernoulli
    from water_prob instead. sos_prob only matters for live trace replay.
    """

    name: str
    mean: np.ndarray
    std: np.ndarray
    water_prob: float = 0.0
    sos_prob: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float))
        if self.mean.shape != (N_FEATURES,) or self.std.shape != (N_FEATURES,):
            raise ValueError(f"profile arrays must have length {N_FEATURES}")
        if np.any(self.std < 0):
            raise ValueError("profile stddevs must be >= 0")
        for p in (self.water_prob, self.sos_prob):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probabilities must lie in [0, 1]")


def _profile(name, accel, gyro, loads, gas, env, accel_std, gyro_std,
             load_std, water_prob=0.0, sos_prob=0.0):
    mean = np.array(list(accel) + list(gyro) + list(loads) + list(gas)
                    + list(env) + [0.0])
    std = np.array(list(accel_std) + list(gyro_std) + list(load_std)
                   + [10.0, 8.0] + [1.0, 3.0] + [0.0])
    return ClassProfile(name, mean, std, water_prob, sos_prob)


def default_profiles() -> tuple:
    """Separable synthetic signal statistics for the five default classes.

    Gas means sit far below the alert thresholds so ordinary traffic never
    trips the gas rule.
    """
    return (
        _profile("Idle", (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (40.0, 40.0),
                 (120.0, 80.0), (25.0, 50.0),
                 (0.02, 0.02, 0.02), (1.0, 1.0, 1.0), (3.0, 3.0)),
        _profile("Walking", (0.4, 0.3, 1.1), (30.0, 25.0, 20.0), (48.0, 48.0),
                 (120.0, 80.0), (26.0, 52.0),
                 (0.05, 0.05, 0.05), (2.5, 2.5, 2.5), (2.5, 2.5)),
        _profile("Running", (1.0, 0.8, 1.7), (90.0, 80.0, 70.0), (58.0, 58.0),
                 (125.0, 82.0), (29.0, 56.0),
                 (0.08, 0.08, 0.08), (4.0, 4.0, 4.0), (3.0, 3.0)),
        _profile("Climbing", (0.4, 0.3, 1.2), (50.0, 10.0, 45.0), (82.0, 18.0),
                 (122.0, 81.0), (27.0, 53.0),
                 (0.06, 0.06, 0.06), (3.0, 3.0, 3.0), (3.0, 2.0)),
        _profile("Falling", (-1.4, -1.2, -0.9), (170.0, 150.0, 160.0), (15.0, 15.0),
                 (120.0, 80.0), (26.0, 52.0),
                 (0.15, 0.15, 0.15), (8.0, 8.0, 8.0), (3.0, 3.0)),
    )


WATER_COLUMN = FEATURE_NAMES.index("water")


def generate(profiles, n: int, seed: int) -> Dataset:
    """Draw n rows with uniform class labels and per-profile Gaussian features.

    The water column is Bernoulli per profile. Deterministic given seed:
    each row draws its 13 normals, then one uniform for the water column.
    """
    profiles = tuple(profiles)
    k = len(profiles)
    if n < k:
        raise ValueError(f"need at least {k} rows, got {n}")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=n)
    features = np.empty((n, N_FEATURES))
    water_draws = np.empty(n)
    for i, row in enumerate(features):
        rng.standard_normal(out=row)
        water_draws[i] = rng.random()
    features *= np.array([p.std for p in profiles])[labels]
    features += np.array([p.mean for p in profiles])[labels]
    features[:, WATER_COLUMN] = (
        water_draws < np.array([p.water_prob for p in profiles])[labels])
    classes = tuple(p.name for p in profiles)
    return Dataset(features, labels, classes)
