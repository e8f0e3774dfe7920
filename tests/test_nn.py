import math
import struct
import textwrap
import zlib

import numpy as np
import pytest

from smartbag import nn
from smartbag.dataset import (
    Dataset, Normalizer, default_profiles, fit_normalizer, generate, split,
)

from conftest import run_python


def make_params(sizes, rng, scale=0.5):
    """Random dense params (no zero-initialized layers) for gradient tests."""
    weights = [rng.normal(0, scale, size=(o, i))
               for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [rng.normal(0, scale, size=o) for o in sizes[1:]]
    norm = Normalizer(np.zeros(sizes[0]), np.ones(sizes[0]))
    return nn.ModelParams(weights, biases, norm)


def empty_grads(params):
    """Fresh (weight, bias) gradient arrays shaped like the parameters, for
    `nn._backward_into` to fill."""
    return ([np.empty_like(w) for w in params.weights],
            [np.empty_like(b) for b in params.biases])


def finite_difference_grads(params, x, y, lam, step=1e-5):
    """Central-difference oracle for the loss gradient."""
    grad_w = [np.zeros_like(w) for w in params.weights]
    grad_b = [np.zeros_like(b) for b in params.biases]
    for arrays, grads in ((params.weights, grad_w), (params.biases, grad_b)):
        for arr, g in zip(arrays, grads):
            flat = arr.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = nn._loss(params, nn.forward_output(params, x), y, lam)
                flat[i] = orig - step
                lo = nn._loss(params, nn.forward_output(params, x), y, lam)
                flat[i] = orig
                gflat[i] = (hi - lo) / (2 * step)
    return grad_w, grad_b


def zero_layer_model_blob() -> bytes:
    """A BAGM1 stream with a valid CRC and a full payload for layer sizes
    (0, 2, 2)."""
    body = b"BAGM" + struct.pack("<BB3IB", 1, 3, 0, 2, 2, 2) + b"\x01A\x01B"
    # no normalizer; the 0x2 layer's biases, the 2x2 layer's weights and
    # biases
    body += bytes(4 * (2 + 4 + 2))
    return body + struct.pack("<I", zlib.crc32(body))


def assert_bits_equal(actual, expected):
    """Same dtype, shape and bytes: stricter than array_equal, which treats
    -0.0 and 0.0 as equal."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a_list, n_list in zip(analytic, numeric):
        for a, n in zip(a_list, n_list):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestRelu:
    def test_definition(self):
        z = np.array([-3.0, 0.0, 2.0])
        assert nn._relu_inplace(z) is z
        assert np.array_equal(z, [0, 0, 2])

    def test_zero_fixed_point(self):
        assert np.array_equal(nn._relu_inplace(np.zeros(7)), np.zeros(7))

    def test_identity_on_positives(self):
        assert nn._relu_inplace(np.array([1e6]))[0] == 1e6

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.normal(0, 10, size=rng.integers(1, 30))
            once = nn._relu_inplace(z.copy())
            assert np.array_equal(nn._relu_inplace(once.copy()), once)


class TestSoftmax:
    def test_symmetry(self):
        out = nn._softmax_inplace(np.zeros(2))
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance_constant(self):
        for c in (-100.0, 0.0, 3.5, 700.0):
            out = nn._softmax_inplace(np.full(5, c))
            assert np.allclose(out, [0.2] * 5, atol=1e-12)

    def test_log_integers(self):
        # direct evaluation: e^{ln k} = k, so outputs are k / (1+2+3)
        z = np.log([1.0, 2.0, 3.0])
        assert nn._softmax_inplace(z) is z
        assert np.allclose(z, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_normalization_and_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = rng.normal(0, 50, size=rng.integers(1, 20))
            out = nn._softmax_inplace(z.copy())
            assert abs(out.sum() - 1.0) <= 1e-12
            c = rng.normal(0, 100)
            assert np.allclose(nn._softmax_inplace(z + c), out, atol=1e-12)

    def test_overflow_safety(self):
        out = nn._softmax_inplace(np.array([1000.0, 1000.0]))
        assert np.allclose(out, [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            nn._softmax_inplace(np.array([]))


class TestForward:
    def test_zero_params_uniform_output(self):
        norm = Normalizer(np.zeros(13), np.ones(13))
        params = nn.ModelParams(
            [np.zeros((o, i)) for i, o in zip((13, 15, 5)[:-1], (13, 15, 5)[1:])],
            [np.zeros(o) for o in (15, 5)], norm)
        out = nn.forward(params, np.ones(13))[-1]
        assert np.allclose(out, [0.2] * 5, atol=1e-15)

    def test_output_normalized(self):
        rng = np.random.default_rng(0)
        params = make_params([2, 2, 2], rng)
        out = nn.forward(params, [1.0, 0.0])[-1]
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        params = make_params([13, 15, 20, 25, 30, 60, 5], rng)
        x = rng.normal(size=13)
        a = nn.forward(params, x)[-1]
        b = nn.forward(params, x)[-1]
        assert np.array_equal(a, b)

    def test_dimension_mismatch(self):
        params = make_params([3, 4, 2], np.random.default_rng(0))
        with pytest.raises(ValueError):
            nn.forward(params, np.zeros(5))

    def test_bit_identical_to_plain_formula(self):
        rng = np.random.default_rng(21)
        params = make_params([13, 15, 20, 25, 30, 60, 5], rng)
        for x in (rng.normal(size=(257, 13)), rng.normal(size=13)):
            before = x.copy()
            activations = nn.forward(params, x)
            assert_bits_equal(x, before)
            assert activations[0] is x
            a = x
            for l, (w, b) in enumerate(zip(params.weights, params.biases)):
                z = a @ w.T + b
                if l == len(params.weights) - 1:
                    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
                    a = e / np.sum(e, axis=-1, keepdims=True)
                else:
                    a = np.maximum(z, 0.0)
                assert_bits_equal(activations[l + 1], a)
            # the pass without gradients keeps only the output layer
            assert_bits_equal(nn.forward_output(params, x), a)
            assert_bits_equal(x, before)

    def test_non_finite_logits_rejected(self):
        params = make_params([3, 4, 2], np.random.default_rng(0))
        params.weights[-1][0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            nn.forward(params, np.ones(3))


class TestLoss:
    def test_uniform_prediction_value(self):
        # independent scalar evaluation: -ln(0.2) - 4*ln(0.8)
        expected = -math.log(0.2) - 4 * math.log(0.8)
        norm = Normalizer(np.zeros(3), np.ones(3))
        params = nn.ModelParams(
            [np.zeros((4, 3)), np.zeros((5, 4))],
            [np.zeros(4), np.zeros(5)], norm)
        y = np.zeros((1, 5))
        y[0, 2] = 1.0
        value = nn._loss(params, nn.forward_output(params, np.zeros((1, 3))),
                         y, 0.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(2.5020, abs=1e-4)

    def test_perfect_prediction_near_zero(self):
        # huge logit on the right class saturates the output to one-hot
        norm = Normalizer(np.zeros(2), np.ones(2))
        params = nn.ModelParams(
            [np.array([[100.0, 0.0], [0.0, 100.0]]),
             np.array([[100.0, 0.0], [0.0, 100.0]])],
            [np.zeros(2), np.zeros(2)], norm)
        x = np.array([[1.0, 0.0]])
        y = np.array([[1.0, 0.0]])
        assert nn._loss(params, nn.forward_output(params, x), y, 0.0) < 1e-8

    def test_l2_penalty_exact(self):
        norm = Normalizer(np.zeros(1), np.ones(1))
        params = nn.ModelParams(
            [np.array([[2.0]]), np.zeros((2, 1))],
            [np.zeros(1), np.zeros(2)], norm)
        x = np.ones((1, 1))
        y = np.array([[1.0, 0.0]])
        probs = nn.forward_output(params, x)
        with_l2 = nn._loss(params, probs, y, 1.0)
        without = nn._loss(params, probs, y, 0.0)
        assert with_l2 - without == pytest.approx(2.0, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            params = make_params([3, 4, 3], rng)
            x = rng.normal(size=(4, 3))
            y = np.eye(3)[rng.integers(0, 3, size=4)]
            probs = nn.forward_output(params, x)
            assert nn._loss(params, probs, y, 0.0) >= 0.0

    def test_bit_identical_to_plain_formula(self):
        rng = np.random.default_rng(17)
        params = make_params([13, 15, 20, 5], rng, scale=2.0)
        x = rng.normal(size=(200, 13))
        y = np.eye(5)[rng.integers(0, 5, size=200)]
        probs = nn.forward(params, x)[-1]
        before = probs.copy()
        value = nn._loss(params, probs, y, 0.7)
        assert_bits_equal(probs, before)
        p = np.clip(probs, nn.LOG_CLAMP, 1.0 - nn.LOG_CLAMP)
        data = -np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)) / 200
        reg = 0.7 / (2.0 * 200) * sum(float(np.sum(w * w))
                                      for w in params.weights)
        assert value.hex() == float(data + reg).hex()


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = make_params([3, 4, 5, 2], rng)
        x = rng.normal(size=(4, 3))
        y = np.eye(2)[rng.integers(0, 2, size=4)]
        analytic = empty_grads(params)
        nn._backward_into(params, x, y, 0.3, *analytic)
        numeric = finite_difference_grads(params, x, y, 0.3)
        assert max_rel_error(analytic, numeric) <= 1e-5

    def test_l2_contribution(self):
        rng = np.random.default_rng(9)
        params = make_params([3, 4, 2], rng)
        x = rng.normal(size=(5, 3))
        y = np.eye(2)[rng.integers(0, 2, size=5)]
        g1, g0 = empty_grads(params), empty_grads(params)
        nn._backward_into(params, x, y, 1.0, *g1)
        nn._backward_into(params, x, y, 0.0, *g0)
        m = 5
        for w, a, b in zip(params.weights, g1[0], g0[0]):
            assert np.allclose(a - b, w / m, atol=1e-12)
        for a, b in zip(g1[1], g0[1]):
            assert np.allclose(a, b, atol=1e-12)

    def test_saturated_fit_has_tiny_gradient(self):
        norm = Normalizer(np.zeros(2), np.ones(2))
        params = nn.ModelParams(
            [np.array([[100.0, 0.0], [0.0, 100.0]]),
             np.array([[100.0, 0.0], [0.0, 100.0]])],
            [np.zeros(2), np.zeros(2)], norm)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.eye(2)
        grads = empty_grads(params)
        nn._backward_into(params, x, y, 0.0, *grads)
        norm_sq = sum(float(np.sum(g * g)) for part in grads for g in part)
        assert math.sqrt(norm_sq) < 1e-8

    def test_bit_identical_to_plain_formula(self):
        rng = np.random.default_rng(19)
        params = make_params([13, 15, 20, 5], rng)
        x = rng.normal(size=(64, 13))
        y = np.eye(5)[rng.integers(0, 5, size=64)]
        grad_w, grad_b = empty_grads(params)
        nn._backward_into(params, x, y, 0.4, grad_w, grad_b)
        acts = nn.forward(params, x)
        p = acts[-1]
        pc = np.clip(p, nn.LOG_CLAMP, 1.0 - nn.LOG_CLAMP)
        g_p = -(y / pc - (1.0 - y) / (1.0 - pc)) / 64
        dz = p * (g_p - np.sum(g_p * p, axis=1, keepdims=True))
        for l in range(len(params.weights) - 1, -1, -1):
            assert_bits_equal(grad_w[l], dz.T @ acts[l]
                              + (0.4 / 64) * params.weights[l])
            assert_bits_equal(grad_b[l], dz.sum(axis=0))
            dz = (dz @ params.weights[l]) * (acts[l] > 0)


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = np.random.default_rng(0).normal(size=9)
        before = p.copy()
        state = nn.AdamState.zeros_like(p)
        nn._adam_update(p, np.zeros_like(p), state, 0.001)
        assert_bits_equal(p, before)
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        # bias-corrected first step: m_hat = g, v_hat = g^2,
        # update = -lr * g / (|g| + eps) ~ -lr * sign(g)
        lr = nn.Hyperparams().learning_rate
        for g in (0.3, -2.0, 1e-3):
            p = np.array([1.0, 1.0])
            state = nn.AdamState.zeros_like(p)
            nn._adam_update(p, np.array([g, 0.0]), state, lr)
            assert p[0] - 1.0 == pytest.approx(-lr * np.sign(g), rel=1e-4)
            assert p[1] == 1.0

    def test_deterministic(self):
        g = np.random.default_rng(4).normal(size=23)
        results = []
        for _ in range(2):
            p = np.random.default_rng(5).normal(size=23)
            nn._adam_update(p, g, nn.AdamState.zeros_like(p), 0.001)
            results.append(p)
        assert_bits_equal(results[0], results[1])

    def test_bit_identical_to_textbook_formula(self):
        # one update over all arrays laid end to end, against the formula
        # applied to each array in turn
        rng = np.random.default_rng(6)
        b1, b2, eps, lr = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPSILON, 0.01
        params = make_params([4, 6, 3], rng)
        arrays = params.weights + params.biases
        flat = np.concatenate([a.ravel() for a in arrays])
        state = nn.AdamState.zeros_like(flat)
        ms = [np.zeros_like(a) for a in arrays]
        vs = [np.zeros_like(a) for a in arrays]
        for t in range(1, 6):
            grads = make_params([4, 6, 3], rng)
            grad_arrays = grads.weights + grads.biases
            flat_grads = np.concatenate([g.ravel() for g in grad_arrays])
            nn._adam_update(flat, flat_grads, state, lr)
            for i, g in enumerate(grad_arrays):
                ms[i] = b1 * ms[i] + (1 - b1) * g
                vs[i] = b2 * vs[i] + (1 - b2) * g * g
                m_hat = ms[i] / (1 - b1 ** t)
                v_hat = vs[i] / (1 - b2 ** t)
                arrays[i] = arrays[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert state.t == 5
        assert_bits_equal(flat, np.concatenate([a.ravel() for a in arrays]))
        assert_bits_equal(state.m, np.concatenate([m.ravel() for m in ms]))
        assert_bits_equal(state.v, np.concatenate([v.ravel() for v in vs]))


def separable_toy_set():
    rng = np.random.default_rng(2)
    features = np.zeros((50, 13))
    labels = np.zeros(50, dtype=int)
    for i in range(50):
        labels[i] = i % 2
        features[i] = rng.normal(0, 0.1, size=13)
        features[i, 0] += 5.0 if labels[i] else -5.0
    return Dataset(features, labels, ("A", "B", "C", "D", "E"))


class TestTrain:
    def test_same_seed_bit_identical(self):
        data = generate(default_profiles(), 200, seed=3)
        hyper = nn.Hyperparams(epochs=2, seed=42)
        m1, _ = nn.train(data, nn.ModelSpec(), hyper)
        m2, _ = nn.train(data, nn.ModelSpec(), hyper)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)
        for a, b in zip(m1.biases, m2.biases):
            assert np.array_equal(a, b)

    def test_separable_toy_set_perfect(self):
        data = separable_toy_set()
        spec = nn.ModelSpec((13, 8, 8, 5))
        _, report = nn.train(data, spec, nn.Hyperparams(
            learning_rate=0.05, epochs=10, batch_size=8))
        assert report.train_accuracy == 1.0

    def test_loss_monotone_on_separable_set(self):
        data = separable_toy_set()
        spec = nn.ModelSpec((13, 8, 8, 5))
        _, report = nn.train(data, spec, nn.Hyperparams(
            learning_rate=0.05, epochs=10, batch_size=8))
        losses = report.epoch_losses
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_synthetic_accuracy(self):
        data = generate(default_profiles(), 1743, seed=0)
        train_set, test_set = split(data, 0.9, 0)
        _, report = nn.train(train_set, nn.ModelSpec(), nn.Hyperparams(),
                             test_set=test_set)
        assert report.test_accuracy >= 0.95

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_matches_public_step_loop(self, lam):
        # train runs on flat buffers and scores the training set from its
        # last epoch's forward pass; the same kernels run on fresh gradient
        # arrays and one Adam state per parameter array, on the same
        # permutation stream, must give the same bits
        data = generate(default_profiles(), 300, seed=5)
        spec = nn.ModelSpec()
        hyper = nn.Hyperparams(epochs=3, batch_size=64, lam=lam, seed=11)
        model, report = nn.train(data, spec, hyper)

        norm = fit_normalizer(data)
        x = norm.apply(data.features)
        y = np.eye(spec.output_width)[data.labels]
        rng = np.random.default_rng(hyper.seed)
        params = nn.init_params(spec, rng, normalizer=norm)
        arrays = params.weights + params.biases
        states = [nn.AdamState.zeros_like(a) for a in arrays]
        losses = []
        for _ in range(hyper.epochs):
            order = rng.permutation(len(data))
            for start in range(0, len(data), hyper.batch_size):
                idx = order[start:start + hyper.batch_size]
                grad_w, grad_b = empty_grads(params)
                nn._backward_into(params, x[idx], y[idx], lam, grad_w, grad_b)
                for a, g, state in zip(arrays, grad_w + grad_b, states):
                    nn._adam_update(a, g, state, hyper.learning_rate)
            probs = nn.forward_output(params, x)
            losses.append(nn._loss(params, probs, y, lam))
        for got, want in zip(model.weights + model.biases,
                             params.weights + params.biases):
            assert_bits_equal(got, want)
        assert_bits_equal(report.epoch_losses, losses)
        accuracy, confusion = nn.evaluate(params, data)
        assert report.train_accuracy == accuracy
        assert_bits_equal(report.confusion, confusion)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            nn.train(Dataset(np.zeros((0, 13)), []), nn.ModelSpec(),
                     nn.Hyperparams())
        data = generate(default_profiles(), 20, seed=0)
        with pytest.raises(ValueError):
            nn.train(data, nn.ModelSpec((5, 4, 5)), nn.Hyperparams())


class TestPredictEvaluate:
    def zero_model(self):
        norm = Normalizer(np.zeros(13), np.ones(13))
        sizes = (13, 4, 5)
        return nn.ModelParams(
            [np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
            [np.zeros(o) for o in sizes[1:]], norm)

    def test_tie_break_lowest_index(self):
        cls, probs = nn.predict(self.zero_model(), np.ones(13))
        assert cls == 0
        assert np.allclose(probs, [0.2] * 5, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        params = make_params([13, 6, 5], rng)
        for _ in range(20):
            _, probs = nn.predict(params, rng.normal(size=13))
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            nn.predict(self.zero_model(), np.ones(7))

    def test_profile_means_classified(self):
        profiles = default_profiles()
        data = generate(profiles, 1743, seed=0)
        model, _ = nn.train(data, nn.ModelSpec(), nn.Hyperparams())
        walking = profiles[1]
        cls, _ = nn.predict(model, walking.mean)
        assert data.classes[cls] == "Walking"

    def test_constant_predictor_on_balanced_set(self):
        features = np.tile(np.zeros(13), (25, 1))
        labels = np.repeat(np.arange(5), 5)
        data = Dataset(features, labels)
        accuracy, confusion = nn.evaluate(self.zero_model(), data)
        assert accuracy == pytest.approx(0.2)
        assert confusion[:, 0].sum() == 25

    def test_confusion_row_sums(self):
        rng = np.random.default_rng(12)
        params = make_params([13, 6, 5], rng)
        data = generate(default_profiles(), 100, seed=5)
        accuracy, confusion = nn.evaluate(params, data)
        assert np.array_equal(confusion.sum(axis=1), data.class_counts())
        assert confusion.sum() == len(data)
        assert accuracy == pytest.approx(np.trace(confusion) / len(data))

    def test_perfect_classifier_diagonal(self):
        data = generate(default_profiles(), 200, seed=0)
        model, _ = nn.train(data, nn.ModelSpec(),
                            nn.Hyperparams(epochs=10, seed=0))
        accuracy, confusion = nn.evaluate(model, data)
        if accuracy == 1.0:
            assert np.array_equal(np.diag(np.diag(confusion)), confusion)

    def test_confusion_equals_loop_count(self):
        rng = np.random.default_rng(14)
        params = make_params([13, 6, 5], rng)
        # classes 3 and 4 never occur as labels
        data = Dataset(rng.normal(size=(60, 13)), rng.integers(0, 3, size=60))
        accuracy, confusion = nn.evaluate(params, data)
        preds = np.argmax(nn.forward(params, data.features)[-1], axis=1)
        expected = np.zeros((5, 5), dtype=int)
        for true, pred in zip(data.labels, preds):
            expected[true, pred] += 1
        assert confusion.dtype == expected.dtype
        assert np.array_equal(confusion, expected)
        assert accuracy == np.trace(expected) / len(data)

    def test_evaluate_rejects_empty(self):
        with pytest.raises(ValueError):
            nn.evaluate(self.zero_model(), Dataset(np.zeros((0, 13)), []))


class TestModelFile:
    def trained(self):
        data = generate(default_profiles(), 300, seed=1)
        spec = nn.ModelSpec()
        model, _ = nn.train(data, spec, nn.Hyperparams(epochs=2, seed=1))
        return model, spec, data.classes

    def test_round_trip_byte_identical(self):
        model, spec, vocab = self.trained()
        blob = nn.export_model(model, spec, vocab)
        model2, spec2, vocab2 = nn.import_model(blob)
        assert spec2 == spec
        assert vocab2 == vocab
        assert nn.export_model(model2, spec2, vocab2) == blob

    def test_round_trip_prediction_identical(self):
        model, spec, vocab = self.trained()
        model2, _, _ = nn.import_model(nn.export_model(model, spec, vocab))
        model3, _, _ = nn.import_model(nn.export_model(model2, spec, vocab))
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.normal(0, 50, size=13)
            c2, p2 = nn.predict(model2, x)
            c3, p3 = nn.predict(model3, x)
            assert c2 == c3
            assert np.array_equal(p2, p3)

    def test_header_layout(self):
        model, spec, vocab = self.trained()
        blob = nn.export_model(model, spec, vocab)
        assert blob[:4] == b"BAGM"
        assert blob[4] == 1
        assert blob[5] == len(spec.layer_sizes)

    def test_bad_magic(self):
        blob = bytearray(nn.export_model(*self.trained()))
        blob[0] = ord("X")
        with pytest.raises(nn.BadMagic):
            nn.import_model(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(nn.export_model(*self.trained()))
        blob[4] = 99
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(nn.UnsupportedVersion):
            nn.import_model(bytes(blob))

    def test_truncated(self):
        blob = nn.export_model(*self.trained())
        with pytest.raises(nn.ModelFormatError):
            nn.import_model(blob[:20])

    def test_zero_layer_size(self):
        with pytest.raises(nn.ShapeMismatch, match="positive"):
            nn.import_model(zero_layer_model_blob())

    def test_corrupted_payload_detected(self):
        blob = bytearray(nn.export_model(*self.trained()))
        blob[50] ^= 0xFF
        with pytest.raises(nn.BadModelChecksum):
            nn.import_model(bytes(blob))


# Prints "no setter" when the import found no OpenBLAS to set; defines
# `blas_threads(verb)`, the loaded OpenBLAS's get_ or set_ entry point.
BLAS_PRELUDE = textwrap.dedent("""
    import ctypes, numpy, sys
    import smartbag.nn as nn
    if not nn.BLAS_ONE_THREAD:
        print("no setter")
        sys.exit()

    def blas_threads(verb):
        for lib in nn._loaded_openblas():
            for name in nn._BLAS_SET_THREADS:
                entry = getattr(lib, name.replace("set_", verb + "_"), None)
                if entry is not None:
                    entry.argtypes = [ctypes.c_int] if verb == "set" else []
                    entry.restype = ctypes.c_int if verb == "get" else None
                    return entry
    """)


def run_blas(code: str) -> str:
    """Run BLAS_PRELUDE then code in a fresh interpreter whose environment
    does not set OpenBLAS's thread count; skip where nothing was set."""
    out = run_python(BLAS_PRELUDE + textwrap.dedent(code),
                     unset=("OPENBLAS_NUM_THREADS",))
    if out.startswith("no setter"):
        pytest.skip("no loaded OpenBLAS with a known thread setter")
    return out


class TestBlasThreads:
    def test_import_sets_one_thread(self):
        assert run_blas("print(blas_threads('get')())") == "1\n"

    def test_build_identical_with_two_threads(self):
        """The one-thread limit changes no bit of a default build."""
        run_blas("""
            from smartbag import dataset

            def build():
                data = dataset.generate(dataset.default_profiles(), 1743, 0)
                train_set, test_set = dataset.split(data, 0.9, 0)
                spec = nn.ModelSpec()
                model, report = nn.train(train_set, spec, nn.Hyperparams(),
                                         test_set)
                return (nn.export_model(model, spec, data.classes),
                        report.epoch_losses, report.confusion.tolist())

            one = build()
            blas_threads("set")(2)
            assert blas_threads("get")() == 2
            assert build() == one
            """)
