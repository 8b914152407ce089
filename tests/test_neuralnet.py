import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gammasort.neuralnet import (
    ARCH_HIDDEN_TANH,
    ARCH_LINEAR,
    AdamHyper,
    HiddenTanhParams,
    LinearParams,
    _row_argmax,
    _row_max,
    _row_sum,
    adam_step,
    backward,
    cross_entropy,
    forward,
    forward_hidden,
    forward_linear,
    init_adam,
    init_params,
    load_model,
    save_model,
    softmax,
)


def loss_of(params, x, y):
    # independent loss path for finite differences: forward -> softmax -> CE
    return cross_entropy(softmax(forward(params, x)), y)


def numerical_gradients(params, x, y, h=1e-5):
    grads = []
    for f in dataclasses.fields(params):
        base = getattr(params, f.name)
        grad = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            for sign in (+1.0, -1.0):
                bumped = {
                    g.name: getattr(params, g.name).copy() for g in dataclasses.fields(params)
                }
                bumped[f.name][idx] += sign * h
                value = loss_of(type(params)(**bumped), x, y)
                grad[idx] += sign * value
        grads.append(grad / (2.0 * h))
    return grads


def analytic_gradients(params, x, y):
    _, g = backward(params, x, y)
    return [getattr(g, f.name) for f in dataclasses.fields(g)]


class TestInitParams:
    def test_biases_are_zero(self):
        p = init_params(ARCH_HIDDEN_TANH, 16, 3, seed=0, width=8)
        assert np.all(p.b1 == 0.0)
        assert np.all(p.b2 == 0.0)
        assert np.all(init_params(ARCH_LINEAR, 16, 3, seed=0).bias == 0.0)

    def test_same_seed_identical(self):
        a = init_params(ARCH_LINEAR, 32, 4, seed=7)
        b = init_params(ARCH_LINEAR, 32, 4, seed=7)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seed_differs(self):
        a = init_params(ARCH_LINEAR, 32, 4, seed=7)
        b = init_params(ARCH_LINEAR, 32, 4, seed=8)
        assert not np.array_equal(a.weights, b.weights)

    def test_weight_mean_matches_uniform_moments(self):
        # 10^5 entries from uniform(-r, r): mean within 3 sigma of zero
        n_channels, n_classes = 1000, 100
        p = init_params(ARCH_LINEAR, n_channels, n_classes, seed=3)
        r = math.sqrt(6.0 / (n_channels + n_classes))
        n = n_channels * n_classes
        assert abs(p.weights.mean()) <= 3.0 * r / math.sqrt(3.0 * n)
        assert np.abs(p.weights).max() <= r

    def test_zero_dimensions_rejected(self):
        with pytest.raises(ValueError):
            init_params(ARCH_LINEAR, 0, 3, seed=0)
        with pytest.raises(ValueError):
            init_params(ARCH_HIDDEN_TANH, 4, 3, seed=0, width=0)

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            init_params("convnet", 4, 3, seed=0)


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        p = LinearParams(np.zeros((3, 5)), np.zeros(3))
        assert np.array_equal(forward_linear(p, np.ones(5)), np.zeros(3))

    def test_identity_weights_pass_input_through(self):
        p = LinearParams(np.eye(4), np.zeros(4))
        x = np.array([0.5, -1.0, 2.0, 7.0])
        assert np.array_equal(forward_linear(p, x), x)

    def test_hand_matrix_multiply(self):
        p = LinearParams(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]), np.array([1.0, -1.0]))
        assert forward_linear(p, np.array([1.0, 1.0, 1.0])).tolist() == [4.0, 0.0]

    def test_dimension_mismatch_rejected(self):
        p = LinearParams(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            forward_linear(p, np.ones(4))

    def test_hidden_with_zero_first_layer_emits_second_bias(self):
        p = HiddenTanhParams(np.zeros((4, 6)), np.zeros(4), np.zeros((3, 4)), np.array([1.0, 2.0, 3.0]))
        assert forward_hidden(p, np.ones(6)).tolist() == [1.0, 2.0, 3.0]

    def test_width_one_scalar_oracle(self):
        p = HiddenTanhParams(np.array([[1.0]]), np.array([0.0]), np.array([[2.0]]), np.array([0.0]))
        out = forward_hidden(p, np.array([0.5]))
        assert out[0] == pytest.approx(2.0 * math.tanh(0.5), rel=1e-15)
        assert out[0] == pytest.approx(0.9242343145200195, abs=1e-12)

    def test_hidden_activations_inside_tanh_range(self):
        p = init_params(ARCH_HIDDEN_TANH, 12, 3, seed=1, width=6)
        rng = np.random.default_rng(2)
        # strict open interval while pre-activations stay below float64
        # saturation; never outside [-1, 1] even for huge inputs
        moderate = np.tanh(rng.uniform(0, 1, size=12) @ p.w1.T + p.b1)
        assert np.all(np.abs(moderate) < 1.0)
        huge = np.tanh(rng.uniform(0, 1e6, size=12) @ p.w1.T + p.b1)
        assert np.all(np.abs(huge) <= 1.0)

    def test_batched_forward_matches_rowwise(self):
        p = init_params(ARCH_HIDDEN_TANH, 9, 4, seed=5, width=3)
        X = np.random.default_rng(6).uniform(0, 10, size=(7, 9))
        batched = forward(p, X)
        rowwise = np.stack([forward(p, row) for row in X])
        assert np.allclose(batched, rowwise, atol=1e-12)

    def test_arch_mismatch_rejected(self):
        linear = init_params(ARCH_LINEAR, 4, 2, seed=0)
        with pytest.raises(ValueError):
            forward_hidden(linear, np.ones(4))

    @pytest.mark.parametrize("shape", [(40,), (33, 40)], ids=["vector", "batch"])
    def test_hidden_logits_are_the_out_of_place_expression(self, shape):
        # forward_hidden adds the biases and applies tanh in place; the IEEE
        # operations, and so the bits, are those of the plain expression.
        p = init_params(ARCH_HIDDEN_TANH, 40, 5, seed=19, width=16)
        p = HiddenTanhParams(p.w1, np.linspace(-1.0, 1.0, 16), p.w2, np.linspace(0.5, -0.5, 5))
        x = np.random.default_rng(19).poisson(3.0, size=shape).astype(float)
        before = [a.tobytes() for a in (x, p.w1, p.b1, p.w2, p.b2)]
        expected = np.tanh(x @ p.w1.T + p.b1) @ p.w2.T + p.b2
        assert forward_hidden(p, x).tobytes() == expected.tobytes()
        assert [a.tobytes() for a in (x, p.w1, p.b1, p.w2, p.b2)] == before


class TestSoftmax:
    def test_uniform_logits(self):
        assert np.allclose(softmax(np.zeros(5)), 0.2, atol=1e-15)

    def test_two_logit_oracle(self):
        out = softmax(np.array([1.0, 2.0]))
        assert out[0] == pytest.approx(0.2689414213699951, abs=1e-12)
        assert out[1] == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            softmax(np.array([np.nan, 0.0]))

    @given(
        st.lists(st.floats(min_value=-500, max_value=500), min_size=2, max_size=8),
        st.floats(min_value=-200, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        z = np.asarray(logits)
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-12
        q = softmax(z + shift)
        assert np.allclose(p, q, atol=1e-12)

    @given(st.lists(st.floats(min_value=-500, max_value=500), min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_argmax_preserved(self, logits):
        z = np.asarray(logits)
        ordered = np.sort(z)
        assume(ordered[-1] - ordered[-2] > 1e-9)  # ties below float resolution aside
        assert np.argmax(softmax(z)) == np.argmax(z)


# Ties, signed zeros and magnitudes near 1e300, whose sums still stay finite.
CLASS_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300]),
    st.floats(min_value=-1e301, max_value=1e301),
)


@given(st.integers(1, 7).flatmap(
    lambda k: st.lists(st.lists(CLASS_CELLS, min_size=k, max_size=k), min_size=1, max_size=40)
))
@settings(max_examples=200, deadline=None)
def test_class_axis_reductions_match_numpy_bitwise(rows):
    x = np.array(rows)
    assert _row_max(x).tobytes() == np.max(x, axis=-1).tobytes()
    assert _row_sum(x).tobytes() == np.sum(x, axis=-1).tobytes()
    assert _row_argmax(x).tobytes() == np.argmax(x, axis=-1).tobytes()


class TestCrossEntropy:
    def test_perfect_prediction_is_zero_loss(self):
        assert cross_entropy(np.array([0.0, 1.0, 0.0]), 1) == 0.0

    def test_uniform_over_five_classes(self):
        probs = np.full(5, 0.2)
        assert cross_entropy(probs, 2) == pytest.approx(math.log(5.0), rel=1e-12)

    def test_two_class_oracle(self):
        probs = np.array([0.2689414213699951, 0.7310585786300049])
        assert cross_entropy(probs, 0) == pytest.approx(1.3132616875182228, abs=1e-12)

    def test_batch_is_mean_over_items(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        labels = np.array([0, 1])
        expected = 0.5 * (-math.log(0.5) - math.log(0.75))
        assert cross_entropy(probs, labels) == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), np.array([0, 0]))

    def test_zero_probability_is_clamped(self):
        loss = cross_entropy(np.array([0.0, 1.0]), 0)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-12)


class TestBackward:
    def test_single_class_residual_is_zero(self):
        # softmax over one logit is exactly 1, the true class's probability
        p = LinearParams(np.array([[1.0, 2.0]]), np.array([0.5]))
        loss, g = backward(p, np.array([3.0, 4.0]), 0)
        assert loss == 0.0
        assert np.all(g.weights == 0.0)
        assert np.all(g.bias == 0.0)

    def test_linear_bias_gradient_equals_residual(self):
        p = init_params(ARCH_LINEAR, 6, 3, seed=2)
        x = np.random.default_rng(3).uniform(0, 5, size=6)
        _, g = backward(p, x, 1)
        residual = softmax(forward(p, x)) - np.array([0.0, 1.0, 0.0])
        assert np.allclose(g.bias, residual, atol=1e-14)

    def test_shape_mismatch_rejected(self):
        p = init_params(ARCH_LINEAR, 6, 3, seed=2)
        with pytest.raises(ValueError):
            backward(p, np.ones(6), np.array([1, 0]))

    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_HIDDEN_TANH])
    def test_matches_central_finite_differences(self, arch):
        rng = np.random.default_rng(10)
        for trial in range(5):
            params = init_params(arch, 10, 3, seed=trial, width=4)
            x = rng.uniform(0.0, 5.0, size=10)
            y = int(rng.integers(3))
            numeric = numerical_gradients(params, x, y)
            analytic = analytic_gradients(params, x, y)
            for num, ana in zip(numeric, analytic):
                scale = np.maximum(np.maximum(np.abs(num), np.abs(ana)), 1e-3)
                assert np.all(np.abs(num - ana) / scale < 1e-5)

    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_HIDDEN_TANH])
    def test_matches_the_one_hot_formulas_bitwise(self, arch):
        # Last-axis softmax and the residual (probs - one_hot) / n, as plain numpy.
        rng = np.random.default_rng(12)
        params = init_params(arch, 6, 5, seed=3, width=4)
        x, labels = rng.uniform(0.0, 4.0, size=(32, 6)), rng.integers(0, 5, size=32)
        linear = arch == ARCH_LINEAR
        hidden = x if linear else np.tanh(x @ params.w1.T + params.b1)
        w_out, b_out = (params.weights, params.bias) if linear else (params.w2, params.b2)
        logits = hidden @ w_out.T + b_out
        expz = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
        probs = expz / np.sum(expz, axis=-1, keepdims=True)
        one_hot = np.eye(5)[labels]
        dlogits = (probs - one_hot) / 32
        want = [dlogits.T @ hidden, dlogits.sum(axis=0)]
        if not linear:
            dz1 = (dlogits @ params.w2) * (1.0 - hidden * hidden)
            want = [dz1.T @ x, dz1.sum(axis=0), *want]
        loss, g = backward(params, x, labels)
        assert loss == float(np.mean(-np.log(np.maximum(np.sum(probs * one_hot, axis=-1), 1e-12))))
        for got, expected in zip(field_arrays(g), want, strict=True):
            assert got.tobytes() == expected.tobytes()

    def test_batch_gradient_is_mean_of_item_gradients(self):
        params = init_params(ARCH_LINEAR, 4, 2, seed=1)
        X = np.random.default_rng(4).uniform(0, 3, size=(3, 4))
        Y = np.array([0, 1, 0])
        _, g_batch = backward(params, X, Y)
        singles = [backward(params, x, y)[1] for x, y in zip(X, Y)]
        mean_w = np.mean([g.weights for g in singles], axis=0)
        assert np.allclose(g_batch.weights, mean_w, atol=1e-14)


# Labels that are not one class index per item: (rows in the batch, or None
# for one input vector, and the labels) for a 3-class model.
BAD_LABELS = {
    "one-hot matrix": (2, np.eye(3)[[0, 2]]),
    "integer one-hot matrix": (2, np.eye(3, dtype=np.int64)[[0, 2]]),
    "float labels": (2, np.array([0.0, 2.0])),
    "index out of range": (2, np.array([0, 3])),
    "negative index": (2, np.array([-1, 0])),
    "more labels than rows": (2, np.array([0, 1, 2])),
    "fewer labels than rows": (2, np.array([1])),
    "one-hot row of one item": (None, np.array([0.0, 1.0, 0.0])),
    "float label of one item": (None, 1.0),
    "two labels for one item": (None, np.array([1, 2])),
}


@pytest.mark.parametrize("rows, labels", BAD_LABELS.values(), ids=BAD_LABELS)
@pytest.mark.parametrize("entry", ["backward", "cross_entropy"])
def test_bad_labels_are_refused(entry, rows, labels):
    params = init_params(ARCH_LINEAR, 4, 3, seed=0)
    x = np.ones(4 if rows is None else (rows, 4))
    with pytest.raises(ValueError, match="^labels must be "):
        if entry == "backward":
            backward(params, x, labels)
        else:
            cross_entropy(softmax(forward(params, x)), labels)


def field_arrays(params):
    return [getattr(params, f.name) for f in dataclasses.fields(params)]


def reference_adam_step(arrays, grads, m, v, t, h):
    """The out-of-place recurrence, field by field, that the in-place update must match."""
    new_arrays, new_m, new_v = [], [], []
    for theta, g, m_f, v_f in zip(arrays, grads, m, v):
        m2 = h.beta1 * m_f + (1.0 - h.beta1) * g
        v2 = h.beta2 * v_f + (1.0 - h.beta2) * (g * g)
        m_hat = m2 / (1.0 - h.beta1**t)
        v_hat = v2 / (1.0 - h.beta2**t)
        new_arrays.append(theta - h.learning_rate * m_hat / (np.sqrt(v_hat) + h.epsilon))
        new_m.append(m2)
        new_v.append(v2)
    return new_arrays, new_m, new_v


class TestFlatParams:
    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_HIDDEN_TANH])
    def test_fields_are_views_of_one_buffer(self, arch):
        p = init_params(arch, 7, 3, seed=2, width=4)
        arrays = field_arrays(p)
        assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
        assert p.flat.size == sum(a.size for a in arrays)
        assert all(np.shares_memory(a, p.flat) for a in arrays)
        assert np.array_equal(p.flat, np.concatenate([a.ravel() for a in arrays]))

    def test_constructor_copies_its_inputs(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        p = LinearParams(w, b)
        p.flat[:] = 5.0
        assert np.all(w == 1.0) and np.all(b == 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            LinearParams(np.array([[1.0, np.nan]]), np.zeros(1))


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda params: pickle.loads(pickle.dumps(params)),
}


class TestParamsCopy:
    """A copied parameter set keeps its fields as views of its own ``flat``."""

    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_HIDDEN_TANH])
    def test_adam_step_on_a_copy_moves_its_fields(self, arch, how):
        params = init_params(arch, 6, 3, seed=4, width=5)
        before = [a.copy() for a in field_arrays(params)]
        dup = COPIES[how](params)
        for f in dataclasses.fields(dup):
            assert np.shares_memory(getattr(dup, f.name), dup.flat)
        assert not np.shares_memory(dup.flat, params.flat)
        grads = init_params(arch, 6, 3, seed=5, width=5)
        adam_step(dup, grads, init_adam(dup))
        main = dup.weights if arch == ARCH_LINEAR else dup.w1
        assert np.array_equal(main.ravel(), dup.flat[: main.size])
        assert not np.array_equal(main, before[0])
        for a, b in zip(field_arrays(params), before):
            assert np.array_equal(a, b)


class TestAdam:
    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_HIDDEN_TANH])
    def test_zero_gradient_leaves_params_bit_identical(self, arch):
        p = init_params(arch, 5, 2, seed=0, width=3)
        before = [a.copy() for a in field_arrays(p)]
        g = type(p)(*(np.zeros_like(a) for a in before))
        state = init_adam(p)
        p2, state2 = adam_step(p, g, state)
        for after, start in zip(field_arrays(p2), before):
            assert np.array_equal(after, start)
        assert state2.t == 1

    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_HIDDEN_TANH])
    def test_in_place_update_matches_out_of_place_recurrence(self, arch):
        rng = np.random.default_rng(21)
        X = rng.uniform(0.0, 4.0, size=(9, 6))
        Y = rng.integers(0, 3, size=9)
        hyper = AdamHyper(learning_rate=0.05)
        params = init_params(arch, 6, 3, seed=4, width=5)
        state = init_adam(params, hyper)
        ref = [a.copy() for a in field_arrays(params)]
        ref_m = [np.zeros_like(a) for a in ref]
        ref_v = [np.zeros_like(a) for a in ref]
        for t in range(1, 21):
            _, grads = backward(params, X, Y)
            ref, ref_m, ref_v = reference_adam_step(
                ref, field_arrays(grads), ref_m, ref_v, t, hyper
            )
            returned, state = adam_step(params, grads, state)
            assert returned is params
            assert state.t == t
            for got, want in zip(field_arrays(params), ref):
                assert np.array_equal(got, want)
            assert np.array_equal(state.m, np.concatenate([a.ravel() for a in ref_m]))
            assert np.array_equal(state.v, np.concatenate([a.ravel() for a in ref_v]))

    def test_first_step_is_signed_learning_rate(self):
        p = LinearParams(np.array([[1.0]]), np.array([0.0]))
        g = LinearParams(np.array([[0.3]]), np.array([-0.7]))
        hyper = AdamHyper()
        p2, _ = adam_step(p, g, init_adam(p, hyper))
        expected_w = 1.0 - hyper.learning_rate * 0.3 / (0.3 + hyper.epsilon)
        expected_b = 0.0 + hyper.learning_rate * 0.7 / (0.7 + hyper.epsilon)
        assert p2.weights[0, 0] == pytest.approx(expected_w, abs=1e-15)
        assert p2.bias[0] == pytest.approx(expected_b, abs=1e-15)

    def test_two_steps_match_hand_recurrence(self):
        hyper = AdamHyper(learning_rate=0.05, beta1=0.8, beta2=0.9, epsilon=1e-8)
        g_value = 0.37
        theta, m, v = 2.0, 0.0, 0.0
        for t in (1, 2):
            m = hyper.beta1 * m + (1 - hyper.beta1) * g_value
            v = hyper.beta2 * v + (1 - hyper.beta2) * g_value**2
            m_hat = m / (1 - hyper.beta1**t)
            v_hat = v / (1 - hyper.beta2**t)
            theta -= hyper.learning_rate * m_hat / (math.sqrt(v_hat) + hyper.epsilon)

        p = LinearParams(np.array([[2.0]]), np.array([0.0]))
        g = LinearParams(np.array([[g_value]]), np.array([0.0]))
        state = init_adam(p, hyper)
        for _ in range(2):
            p, state = adam_step(p, g, state)
        assert p.weights[0, 0] == pytest.approx(theta, abs=1e-12)
        assert state.t == 2

    def test_shape_mismatch_rejected(self):
        p = init_params(ARCH_LINEAR, 5, 2, seed=0)
        bad = LinearParams(np.zeros((2, 4)), np.zeros(2))
        with pytest.raises(ValueError):
            adam_step(p, bad, init_adam(p))

    def test_architecture_mismatch_rejected(self):
        p = init_params(ARCH_LINEAR, 5, 2, seed=0)
        other = init_params(ARCH_HIDDEN_TANH, 5, 2, seed=0, width=3)
        with pytest.raises(ValueError, match="gradients"):
            adam_step(p, other, init_adam(p))

    def test_zero_input_column_never_moves(self):
        # channel 3 is zero for every item: its weight column must stay put
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 4, size=(12, 6))
        X[:, 3] = 0.0
        Y = rng.integers(0, 2, size=12)
        params = init_params(ARCH_LINEAR, 6, 2, seed=9)
        frozen = params.weights[:, 3].copy()
        state = init_adam(params)
        for _ in range(200):
            _, grads = backward(params, X, Y)
            params, state = adam_step(params, grads, state)
        assert np.array_equal(params.weights[:, 3], frozen)
        assert not np.array_equal(params.weights[:, 2], init_params(ARCH_LINEAR, 6, 2, seed=9).weights[:, 2])


class TestModelJson:
    @pytest.mark.parametrize("arch", [ARCH_LINEAR, ARCH_HIDDEN_TANH])
    def test_round_trip_is_value_exact(self, tmp_path, arch):
        params = init_params(arch, 17, 4, seed=23, width=5)
        path = tmp_path / "model.json"
        save_model(path, params, {"note": "round-trip"})
        loaded, meta = load_model(path)
        assert meta["note"] == "round-trip"
        for f in dataclasses.fields(params):
            assert np.array_equal(getattr(loaded, f.name), getattr(params, f.name)), f.name

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = init_params(ARCH_LINEAR, 9, 3, seed=1)
        save_model(tmp_path / "a.json", params, {"seed": 1})
        save_model(tmp_path / "b.json", params, {"seed": 1})
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_unknown_arch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"arch": "transformer"}')
        with pytest.raises(ValueError):
            load_model(path)
