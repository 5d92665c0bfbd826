"""Network tests: forward/backward oracles, Adam arithmetic, training."""

import math

import numpy as np
import pytest

from skinseg.dataset import HsvSamples
from skinseg.nn import (
    FORWARD_BLOCK_ROWS,
    AdamState,
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    adam_step,
    backward,
    cross_entropy_loss,
    forward_batch,
    init_model,
    mlp_predict_batch,
    softmax,
    train,
    _forward_cached,
)

from oracles import (
    backward_from_pre_activations,
    forward,
    forward_unfolded,
    pre_activations,
    train_unfused,
)


def _samples(rows, skin) -> HsvSamples:
    """Columns of (h, s, v) rows and one skin flag per row."""
    return HsvSamples(np.array(rows, dtype=np.uint8).reshape(-1, 3), np.array(skin, dtype=bool))


def test_architecture_validation():
    arch = MlpArchitecture()
    assert arch.hidden_layers == (32, 16, 8)
    assert arch.layer_dims == (3, 32, 16, 8, 2)
    with pytest.raises(ValueError):
        MlpArchitecture(hidden_layers=())
    with pytest.raises(ValueError):
        MlpArchitecture(hidden_layers=(4, 0))


def test_init_shapes_bounds_and_determinism():
    arch = MlpArchitecture(hidden_layers=(5, 4))
    model = init_model(arch, np.random.Generator(np.random.PCG64(3)))
    assert [w.shape for w in model.weights] == [(3, 5), (5, 4), (4, 2)]
    assert [b.shape for b in model.biases] == [(5,), (4,), (2,)]
    for w, (fan_in, fan_out) in zip(model.weights, [(3, 5), (5, 4), (4, 2)]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= limit)
    assert all(np.all(b == 0.0) for b in model.biases)
    again = init_model(arch, np.random.Generator(np.random.PCG64(3)))
    assert all(np.array_equal(a, b) for a, b in zip(model.weights, again.weights))


def test_model_shape_validation():
    arch = MlpArchitecture(hidden_layers=(4,))
    with pytest.raises(ValueError):
        MlpModel(arch=arch, weights=[np.zeros((3, 4))], biases=[np.zeros(4)])
    with pytest.raises(ValueError):
        MlpModel(
            arch=arch,
            weights=[np.zeros((3, 5)), np.zeros((4, 2))],
            biases=[np.zeros(4), np.zeros(2)],
        )


def test_softmax_basics():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(200, 2)) * 50
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs >= 0)
    # shift invariance and overflow safety
    assert np.allclose(softmax(logits + 1000.0), probs, atol=1e-12)


def test_zero_model_is_uniform():
    arch = MlpArchitecture(hidden_layers=(4,))
    model = MlpModel(
        arch=arch,
        weights=[np.zeros((3, 4)), np.zeros((4, 2))],
        biases=[np.zeros(4), np.zeros(2)],
    )
    out = forward_batch(model, np.array([[0.3, 0.9, 0.1]]))[0]
    assert out[0] == 0.5 and out[1] == 0.5


def test_forward_matches_straightline_oracle():
    arch = MlpArchitecture(hidden_layers=(2,))
    w0 = np.array([[0.5, -1.0], [0.25, 0.75], [-0.5, 0.1]])
    b0 = np.array([0.1, -0.2])
    w1 = np.array([[1.5, -0.5], [2.0, 0.5]])
    b1 = np.array([-0.3, 0.4])
    model = MlpModel(arch=arch, weights=[w0, b0 * 0 + w0 * 0 + w0, w1][::2], biases=[b0, b1])
    x = np.array([0.2, 0.6, 0.9])

    # straight-line evaluation, scalar by scalar
    z0 = [sum(x[i] * w0[i, j] for i in range(3)) + b0[j] for j in range(2)]
    a0 = [max(z, 0.0) for z in z0]
    z1 = [sum(a0[i] * w1[i, j] for i in range(2)) + b1[j] for j in range(2)]
    shift = max(z1)
    exp = [math.exp(z - shift) for z in z1]
    expect = [e / sum(exp) for e in exp]

    got = forward_batch(model, x[None])[0]
    assert got[0] == pytest.approx(expect[0], abs=1e-12)
    assert got[1] == pytest.approx(expect[1], abs=1e-12)


@pytest.mark.parametrize("n_rows", [FORWARD_BLOCK_ROWS + 1, 2 * FORWARD_BLOCK_ROWS + 7],
                         ids=["block+1", "2*block+7"])
def test_forward_batch_matches_cached_pass(n_rows):
    """forward_batch gives the bits of the training pass on these batches.

    Not marked every_cpu_path: it compares two gemm layouts, the
    feature-major forward_batch against the row-major _forward_cached,
    which round alike on other kernels only by luck of the data. Under
    OPENBLAS_CORETYPE=Haswell the same comparison on a 16,391-row batch
    differs in one row."""
    model = init_model(MlpArchitecture(), np.random.Generator(np.random.PCG64(4)))
    rng = np.random.default_rng(n_rows)
    for b in model.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    x = rng.random((n_rows, 3))
    assert np.array_equal(forward_batch(model, x), _forward_cached(model, x)[0])


@pytest.mark.every_cpu_path
@pytest.mark.parametrize("hidden", [(1,), (32, 16, 8), (64,), (5, 1)],
                         ids=["w1", "w32-16-8", "w64", "w5-1"])
@pytest.mark.parametrize("n_rows", [1, 15, 16, 17, FORWARD_BLOCK_ROWS - 1, FORWARD_BLOCK_ROWS,
                                    FORWARD_BLOCK_ROWS + 1, 2 * FORWARD_BLOCK_ROWS + 7],
                         ids=["1", "15", "16", "17", "block-1", "block", "block+1", "2*block+7"])
def test_folded_bias_matches_unfolded_arithmetic(hidden, n_rows):
    # the bias as the last column of [W.T | b] against a row of ones gives
    # the bits of W.T @ a followed by a += b, in both inference entry points;
    # a one-unit layer, first or later, goes through gemv instead of gemm
    model = init_model(MlpArchitecture(hidden), np.random.Generator(np.random.PCG64(5)))
    rng = np.random.default_rng([n_rows, *hidden])
    for b in model.biases:
        b[:] = rng.normal(scale=0.5, size=b.shape)
    hsv = rng.integers(0, 256, size=(n_rows, 3), dtype=np.uint8)
    x = hsv / 255.0
    expect = forward_unfolded(model, x)
    assert np.array_equal(forward_batch(model, x), expect)
    assert np.array_equal(mlp_predict_batch(model, hsv), expect[:, 0])


def test_forward_batch_scores_a_row_the_same_in_any_batch():
    # every row of a small, ragged or block-straddling batch equals, bit for
    # bit, the same row scored inside one large batch
    model = init_model(MlpArchitecture(), np.random.Generator(np.random.PCG64(4)))
    rng = np.random.default_rng(7)
    for b in model.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    x = rng.random((3 * FORWARD_BLOCK_ROWS, 3))
    reference = forward_batch(model, x)
    sizes = [*range(1, 71), FORWARD_BLOCK_ROWS - 1, FORWARD_BLOCK_ROWS + 1,
             FORWARD_BLOCK_ROWS + 15, FORWARD_BLOCK_ROWS + 17]
    for n in sizes:
        # an odd stride puts the batch's rows at other offsets than in x
        start = (37 * n) % (x.shape[0] - n)
        got = forward_batch(model, x[start : start + n])
        assert got.shape == (n, 2)
        assert np.array_equal(got, reference[start : start + n]), n


def test_loss_values():
    skin, non_skin = [1.0, 0.0], [0.0, 1.0]  # one-hot targets
    assert cross_entropy_loss([1.0, 0.0], skin) == 0.0
    assert cross_entropy_loss([0.5, 0.5], non_skin) == pytest.approx(math.log(2))
    assert cross_entropy_loss([0.9, 0.1], skin) == pytest.approx(-math.log(0.9))
    # clamped at 1e-12 rather than diverging
    assert cross_entropy_loss([0.0, 1.0], skin) == pytest.approx(-math.log(1e-12))


def test_zero_input_kills_first_layer_weight_gradient():
    model = init_model(MlpArchitecture(hidden_layers=(4,)),
                       np.random.Generator(np.random.PCG64(5)))
    # positive first-layer biases keep the hidden units active at x = 0
    model.biases[0] = np.full(4, 0.5)
    x = np.zeros((1, 3))
    probs, cache = _forward_cached(model, x)
    grads = backward(model, cache, np.array([[1.0, 0.0]]))
    assert np.all(grads[0] == 0.0)  # dL/dW0 = x^T dz0 = 0
    assert np.any(grads[1] != 0.0)  # the bias gradient survives


@pytest.mark.every_cpu_path
@pytest.mark.parametrize("hidden", [(32, 16, 8), (4,), (3, 2), (1,)],
                         ids=["w32-16-8", "w4", "w3-2", "w1"])
def test_backward_masks_match_pre_activation_masks_at_the_relu_kink(hidden):
    # init_model's biases are 0, so a black row gives every unit of every
    # layer a pre-activation of exactly +-0.0; the mask backward reads from
    # max(z, 0) > 0 must give the bits of one read from z > 0 there too
    model = init_model(MlpArchitecture(hidden), np.random.Generator(np.random.PCG64(6)))
    rng = np.random.default_rng([8, *hidden])
    hsv = rng.integers(0, 256, size=(53, 3), dtype=np.uint8)
    hsv[::4] = 0
    x = hsv / 255.0
    skin = rng.random(53) < 0.5
    targets = np.stack([skin, ~skin], axis=1).astype(np.float64)
    assert np.all(pre_activations(model, x)[0][::4] == 0.0)

    _, activations = _forward_cached(model, x)
    got = backward(model, activations, targets)
    expect = backward_from_pre_activations(model, x, targets)
    assert [g.shape for g in got] == [e.shape for e in expect]
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expect))


def test_output_gradient_zero_at_perfect_prediction():
    # drive the output softmax to (~1, ~0) with a huge bias, label skin
    arch = MlpArchitecture(hidden_layers=(2,))
    model = MlpModel(
        arch=arch,
        weights=[np.zeros((3, 2)), np.zeros((2, 2))],
        biases=[np.zeros(2), np.array([60.0, -60.0])],
    )
    probs, cache = _forward_cached(model, np.array([[0.5, 0.5, 0.5]]))
    assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)
    grads = backward(model, cache, np.array([[1.0, 0.0]]))
    for g in grads:
        assert np.all(np.abs(g) < 1e-12)


def _loss_of(model, x_row, target_row) -> float:
    probs = forward_batch(model, x_row.reshape(1, 3))[0]
    return float(-np.log(np.clip(float(np.dot(probs, target_row)), 1e-12, 1.0)))


def gradient_check_pairs(n_pairs: int, seed: int, *, step=1e-5, tol=1e-4):
    """Run central finite-difference checks on random (model, sample) pairs.

    Pairs whose pre-activations sit within 1e-4 of a ReLU kink are
    resampled (the numeric derivative is not defined across the kink).
    Returns the number of pairs actually checked.
    """
    rng = np.random.default_rng(seed)
    archs = [MlpArchitecture(hidden_layers=(4,)), MlpArchitecture(hidden_layers=(3, 2))]
    checked = 0
    attempts = 0
    while checked < n_pairs and attempts < n_pairs * 4:
        attempts += 1
        arch = archs[int(rng.integers(len(archs)))]
        model = init_model(arch, np.random.Generator(np.random.PCG64(int(rng.integers(1 << 30)))))
        x = rng.random(3)
        target = np.array([1.0, 0.0]) if rng.random() < 0.5 else np.array([0.0, 1.0])
        hidden = pre_activations(model, x.reshape(1, 3))[:-1]
        if min(float(np.min(np.abs(z))) for z in hidden) < 1e-4:
            continue
        _, activations = _forward_cached(model, x.reshape(1, 3))
        analytic = backward(model, activations, target.reshape(1, 2))
        params = [a for pair in zip(model.weights, model.biases) for a in pair]
        for p_idx, param in enumerate(params):
            flat = param.reshape(-1)
            assert np.shares_memory(flat, param)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                hi = _loss_of(model, x, target)
                flat[j] = orig - step
                lo = _loss_of(model, x, target)
                flat[j] = orig
                numeric = (hi - lo) / (2 * step)
                a = float(analytic[p_idx].ravel()[j])
                rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
                assert rel <= tol, (
                    f"gradient mismatch at pair {checked}, param {p_idx}[{j}]: "
                    f"analytic {a}, numeric {numeric}, rel {rel}"
                )
        checked += 1
    return checked


def test_gradients_match_finite_differences():
    assert gradient_check_pairs(100, seed=2718) >= 100


def test_adam_first_step_hand_value():
    p = np.array([1.0])
    state = AdamState.fresh(p)
    adam_step(state, p, np.array([1.0]))
    # hand evaluation: m_hat = 1, v_hat = 1 -> update = -lr / (1 + eps)
    expect = 1.0 - 0.001 * 1.0 / (1.0 + 1e-7)
    assert p[0] == pytest.approx(expect, abs=1e-15)
    assert p[0] == pytest.approx(1.0 - 0.001, abs=1e-6)
    assert state.t == 1
    assert state.m[0] == pytest.approx(0.1)
    assert state.v[0] == pytest.approx(0.001)


def test_adam_zero_gradient_is_identity():
    p = np.array([0.4, -0.2, 1.0, 2.0])
    before = p.copy()
    state = AdamState.fresh(p)
    adam_step(state, p, np.zeros(4))
    assert np.array_equal(p, before)


def test_adam_two_steps_match_unrolled_recurrence():
    g_const = 0.37
    p = np.array([2.0])
    state = AdamState.fresh(p)
    for _ in range(2):
        adam_step(state, p, np.array([g_const]))

    # independent scalar recurrence
    m = v = 0.0
    param = 2.0
    for t in (1, 2):
        m = 0.9 * m + (1.0 - 0.9) * g_const
        v = 0.999 * v + (1.0 - 0.999) * g_const * g_const
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        param = param - 0.001 * m_hat / (math.sqrt(v_hat) + 1e-7)
    assert p[0] == pytest.approx(param, abs=1e-15)


def test_adam_first_step_is_sign_scaled():
    for mag in (1e-3, 1.0, 1e3):
        for sign in (-1.0, 1.0):
            p = np.array([0.0])
            adam_step(AdamState.fresh(p), p, np.array([sign * mag]))
            assert p[0] == pytest.approx(-sign * 0.001, rel=1e-3)


def test_two_parameter_logistic_matches_scripted_loop():
    """Drive adam_step on a literal 2-parameter logistic regression.

    The training API has a fixed 3-input softmax head, so the 2-parameter
    toy is run through the optimizer directly and compared with a fully
    independent scripted loop after 3 steps.
    """
    xs = np.array([-1.0, -0.5, 0.5, 1.0])
    ys = np.array([0.0, 0.0, 1.0, 1.0])

    def grads(w, b):
        p = 1.0 / (1.0 + np.exp(-(w * xs + b)))
        return np.array([np.mean((p - ys) * xs)]), np.array([np.mean(p - ys)])

    params = np.array([0.3, -0.2])
    state = AdamState.fresh(params)
    for _ in range(3):
        gw, gb = grads(params[0], params[1])
        adam_step(state, params, np.concatenate([gw, gb]))

    # scripted oracle: plain-float Adam recurrence on the same problem
    w, b = 0.3, -0.2
    m = [0.0, 0.0]
    v = [0.0, 0.0]
    for t in (1, 2, 3):
        p = 1.0 / (1.0 + np.exp(-(w * xs + b)))
        g = [float(np.mean((p - ys) * xs)), float(np.mean(p - ys))]
        new = []
        for i, value in enumerate((w, b)):
            m[i] = 0.9 * m[i] + 0.1 * g[i]
            v[i] = 0.999 * v[i] + 0.001 * g[i] ** 2
            m_hat = m[i] / (1.0 - 0.9**t)
            v_hat = v[i] / (1.0 - 0.999**t)
            new.append(value - 0.001 * m_hat / (math.sqrt(v_hat) + 1e-7))
        w, b = new
    assert params[0] == pytest.approx(w, abs=1e-9)
    assert params[1] == pytest.approx(b, abs=1e-9)


def test_train_config_defaults_and_validation():
    cfg = TrainConfig()
    assert cfg.epochs == 12 and cfg.batch_size == 53
    with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


def test_train_rejects_degenerate_sets():
    with pytest.raises(ValueError):
        train(_samples([], []))
    with pytest.raises(ValueError):
        train(_samples([(1, 1, 1)] * 5, [True] * 5))
    with pytest.raises(ValueError):
        train(_samples([(1, 1, 1)] * 5, [False] * 5))


def _toy_train_set(n=200, seed=13):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n // 2):
        rows.append((int(rng.integers(0, 60)), int(rng.integers(150, 256)),
                     int(rng.integers(150, 256))))  # skin
        rows.append((int(rng.integers(150, 256)), int(rng.integers(0, 60)),
                     int(rng.integers(0, 60))))  # non-skin
    return _samples(rows, [True, False] * (n // 2))


def test_train_descends_on_separable_toy():
    cfg = TrainConfig(epochs=12, batch_size=53, seed=1)
    model, history = train(_toy_train_set(), cfg=cfg)
    assert len(history) == 12
    assert history[-1] < history[0]
    toy = _toy_train_set()
    p = mlp_predict_batch(model, toy.channels)
    assert ((p >= 0.5) == toy.skin).mean() > 0.95


def test_train_bitwise_deterministic():
    cfg = TrainConfig(epochs=3, batch_size=16, seed=99)
    m1, h1 = train(_toy_train_set(80), cfg=cfg)
    m2, h2 = train(_toy_train_set(80), cfg=cfg)
    assert h1 == h2
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
    assert all(np.array_equal(a, b) for a, b in zip(m1.biases, m2.biases))
    m3, h3 = train(_toy_train_set(80), cfg=TrainConfig(epochs=3, batch_size=16, seed=100))
    assert h1 != h3


def test_train_replicated_by_straightline_script():
    """Full replication of the training loop for a 1-unit hidden layer.

    Seven samples with batch size 3 exercise the short final batch. The
    script below re-implements initialization, shuffling, forward,
    backward and Adam from scratch; the result must match bitwise.
    """
    samples = _samples([(10, 200, 220), (20, 210, 230), (15, 190, 240), (240, 30, 20),
                        (230, 10, 40), (250, 20, 30), (12, 205, 225)],
                       [True, True, True, False, False, False, True])
    cfg = TrainConfig(epochs=3, batch_size=3, seed=42)
    model, history = train(samples, MlpArchitecture(hidden_layers=(1,)), cfg)

    # ---- independent script ----
    x = samples.channels.astype(np.float64) / 255.0
    t = np.array([[1.0, 0.0] if skin else [0.0, 1.0] for skin in samples.skin])
    rng = np.random.Generator(np.random.PCG64(42))
    lim0 = np.sqrt(6.0 / (3 + 1))
    w0 = rng.uniform(-lim0, lim0, size=(3, 1))
    b0 = np.zeros(1)
    lim1 = np.sqrt(6.0 / (1 + 2))
    w1 = rng.uniform(-lim1, lim1, size=(1, 2))
    b1 = np.zeros(2)
    ms = [np.zeros_like(p) for p in (w0, b0, w1, b1)]
    vs = [np.zeros_like(p) for p in (w0, b0, w1, b1)]
    step = 0
    script_history = []
    for _ in range(3):
        perm = rng.permutation(7)
        loss_sum = 0.0
        for start in range(0, 7, 3):
            idx = perm[start : start + 3]
            xb, tb = x[idx], t[idx]
            z0 = xb @ w0 + b0
            a0 = np.maximum(z0, 0.0)
            z1 = a0 @ w1 + b1
            shifted = z1 - z1.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            probs = e / e.sum(axis=-1, keepdims=True)
            p_true = np.clip((probs * tb).sum(axis=1), 1e-12, 1.0)
            loss_sum += float(-np.log(p_true).mean()) * idx.size
            dz1 = (probs - tb) / idx.size
            g_w1 = a0.T @ dz1
            g_b1 = dz1.sum(axis=0)
            da0 = dz1 @ w1.T
            dz0 = da0 * (z0 > 0.0)
            g_w0 = xb.T @ dz0
            g_b0 = dz0.sum(axis=0)
            step += 1
            new = []
            for i, (p, g) in enumerate(zip((w0, b0, w1, b1), (g_w0, g_b0, g_w1, g_b1))):
                ms[i] = 0.9 * ms[i] + (1.0 - 0.9) * g
                vs[i] = 0.999 * vs[i] + (1.0 - 0.999) * g * g
                m_hat = ms[i] / (1.0 - 0.9**step)
                v_hat = vs[i] / (1.0 - 0.999**step)
                new.append(p - 0.001 * m_hat / (np.sqrt(v_hat) + 1e-7))
            w0, b0, w1, b1 = new
        script_history.append(loss_sum / 7)

    assert history == script_history
    for got, expect in zip(model.weights + model.biases, [w0, w1, b0, b1]):
        assert np.array_equal(got, expect)


@pytest.mark.every_cpu_path
@pytest.mark.parametrize("hidden", [(32, 16, 8), (1,), (5, 1)])
@pytest.mark.parametrize(
    "n_rows, batch_size",
    [(107, 53), (100, 16), (30, 1)],
    ids=["last-batch-one-row", "short-last-batch", "batch-size-1"],
)
def test_train_matches_unfused_loop(hidden, n_rows, batch_size):
    """train's per-epoch gather, two-column softmax, true-class loss and
    flat gradient vector give the bits of one call per step."""
    rng = np.random.default_rng(n_rows)
    skin = rng.random(n_rows) < 0.4
    skin[:2] = True, False
    samples = _samples(rng.integers(0, 256, size=(n_rows, 3)), skin)
    arch = MlpArchitecture(hidden_layers=hidden)
    cfg = TrainConfig(epochs=3, batch_size=batch_size, seed=7)
    model, history = train(samples, arch, cfg)
    expect_model, expect_history = train_unfused(samples, arch, cfg)
    assert history == expect_history
    assert model.params.tobytes() == expect_model.params.tobytes()


def test_predict_batch_matches_forward():
    model = init_model(MlpArchitecture(hidden_layers=(6, 3)),
                       np.random.Generator(np.random.PCG64(8)))
    rng = np.random.default_rng(2)
    hsv = rng.integers(0, 256, size=(50, 3), dtype=np.uint8)
    batch = mlp_predict_batch(model, hsv)
    for i in range(50):
        single = forward(model, hsv[i] / 255.0)
        assert batch[i] == pytest.approx(single.p_skin, abs=1e-12)
