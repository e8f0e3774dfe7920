import io
from dataclasses import replace

import numpy as np
import pytest

from smartbag import dataset
from smartbag.dataset import (
    ClassProfile, Dataset, DatasetError, N_FEATURES, default_profiles,
    fit_normalizer, generate, load_csv, save_csv, split,
)


class TestCsv:
    def test_two_row_round_trip(self):
        features = np.arange(2 * N_FEATURES, dtype=float).reshape(2, N_FEATURES)
        data = Dataset(features, [0, 3])
        loaded = load_csv(io.StringIO(save_csv(data)))
        assert len(loaded) == 2
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_round_trip_generated(self):
        data = generate(default_profiles(), 50, seed=9)
        text = save_csv(data)
        loaded = load_csv(io.StringIO(text))
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)
        assert loaded.classes == data.classes
        # save is canonical: re-saving the loaded set reproduces the text
        assert save_csv(loaded) == text

    def test_arity_error_names_row(self):
        text = save_csv(generate(default_profiles(), 6, seed=0))
        lines = text.splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-2]) + ",Idle"
        with pytest.raises(DatasetError, match="row 3"):
            load_csv(io.StringIO("\n".join(lines)))

    def test_non_numeric_field(self):
        text = save_csv(generate(default_profiles(), 5, seed=0))
        lines = text.splitlines()
        parts = lines[1].split(",")
        parts[4] = "oops"
        lines[1] = ",".join(parts)
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(io.StringIO("\n".join(lines)))

    def test_unknown_label(self):
        text = save_csv(generate(default_profiles(), 5, seed=0))
        lines = text.splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-1] + ["Flying"])
        with pytest.raises(DatasetError, match="unknown label"):
            load_csv(io.StringIO("\n".join(lines)))

    def test_bad_header(self):
        with pytest.raises(DatasetError, match="header"):
            load_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_file_round_trip(self, tmp_path):
        data = generate(default_profiles(), 20, seed=4)
        # a path given as text and as a pathlib.Path
        for path in (str(tmp_path / "s.csv"), tmp_path / "d.csv"):
            save_csv(data, path)
            loaded = load_csv(path)
            assert np.array_equal(loaded.features, data.features)
            assert np.array_equal(loaded.labels, data.labels)


class TestSplit:
    def test_reference_row_count(self):
        data = generate(default_profiles(), 1743, seed=0)
        train, test = split(data, 0.9, seed=1)
        assert len(train) == 1568
        assert len(test) == 175

    def test_same_seed_identical(self):
        data = generate(default_profiles(), 100, seed=0)
        a = split(data, 0.8, seed=7)
        b = split(data, 0.8, seed=7)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].labels, b[1].labels)

    def test_exact_partition(self):
        data = generate(default_profiles(), 10, seed=0)
        train, test = split(data, 0.5, seed=3)
        assert len(train) == 5 and len(test) == 5
        combined = np.vstack([train.features, test.features])
        # every original row appears exactly once
        matched = set()
        for row in combined:
            hits = np.where((data.features == row).all(axis=1))[0]
            assert hits.size >= 1
            matched.add(int(hits[0]))
        assert len(matched) == 10

    def test_fraction_out_of_range(self):
        data = generate(default_profiles(), 10, seed=0)
        for frac in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                split(data, frac, seed=0)


class TestNormalizer:
    def test_fit_then_apply_standardizes(self):
        data = generate(default_profiles(), 500, seed=2)
        norm = fit_normalizer(data)
        z = norm.apply(data.features)
        const = data.features.std(axis=0) < 1e-12
        assert np.all(np.abs(z.mean(axis=0)) <= 1e-9)
        assert np.all(np.abs(z[:, ~const].std(axis=0) - 1.0) <= 1e-9)

    def test_constant_column_floored(self):
        features = np.ones((4, N_FEATURES)) * 3.0
        norm = fit_normalizer(Dataset(features, [0, 1, 2, 3]))
        assert np.all(norm.std == 1.0)
        assert np.all(norm.apply(features) == 0.0)

    def test_two_point_population_convention(self):
        features = np.zeros((2, N_FEATURES))
        features[1, :] = 2.0
        norm = fit_normalizer(Dataset(features, [0, 1]))
        z = norm.apply(features)
        assert np.allclose(z[0], -1.0)
        assert np.allclose(z[1], 1.0)

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            fit_normalizer(Dataset(np.zeros((0, N_FEATURES)), []))


class TestGenerate:
    def test_degenerate_profiles_equal_means(self):
        profiles = tuple(
            ClassProfile(p.name, p.mean, np.zeros(N_FEATURES))
            for p in default_profiles())
        data = generate(profiles, 5, seed=0)
        for i in range(5):
            assert np.array_equal(data.features[i], profiles[data.labels[i]].mean)

    def test_bit_identical_to_per_row_normal(self):
        profiles = tuple(replace(p, water_prob=0.3)
                         for p in default_profiles())
        for seed in (0, 11):
            rng = np.random.default_rng(seed)
            labels = rng.integers(0, len(profiles), size=300)
            rows = []
            for lab in labels:
                prof = profiles[lab]
                row = rng.normal(prof.mean, prof.std)
                row[dataset.WATER_COLUMN] = float(rng.random() < prof.water_prob)
                rows.append(row)
            data = generate(profiles, 300, seed)
            assert np.array_equal(data.labels, labels)
            assert data.features.tobytes() == np.array(rows).tobytes()

    def test_same_seed_identical(self):
        a = generate(default_profiles(), 100, seed=11)
        b = generate(default_profiles(), 100, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_class_balance(self):
        data = generate(default_profiles(), 1743, seed=0)
        counts = data.class_counts()
        expected = 1743 / 5
        assert np.all(counts >= expected * 0.85)
        assert np.all(counts <= expected * 1.15)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            generate(default_profiles(), 4, seed=0)

    def test_water_bernoulli(self):
        profiles = tuple(
            ClassProfile(p.name, p.mean, p.std, water_prob=1.0)
            for p in default_profiles())
        data = generate(profiles, 20, seed=0)
        assert np.all(data.features[:, dataset.WATER_COLUMN] == 1.0)
