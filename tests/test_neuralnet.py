from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from mirrorselect import (
    ConfigurationError,
    InvalidDataError,
    NetConfig,
    RngSeed,
    TrainedNet,
    TrainingError,
    default_hidden_sizes,
    gradient_importance,
    path_importance,
    train,
    train_many,
)
from mirrorselect import neuralnet


def _random_net(gen, widths, activation="tanh", zero_bias=False):
    sizes = list(widths) + [1]
    weights = [
        gen.standard_normal((a, b)) for a, b in zip(sizes[:-1], sizes[1:])
    ]
    biases = [
        np.zeros(b) if zero_bias else 0.3 * gen.standard_normal(b)
        for b in sizes[1:]
    ]
    return TrainedNet(weights, biases, activation)


def _enumerate_paths(weights, j):
    # brute-force sum over every input-to-output path
    if len(weights) == 1:
        return float(weights[0][j, 0])
    hidden_ranges = [range(w.shape[1]) for w in weights[:-1]]
    total = 0.0
    for combo in product(*hidden_ranges):
        term = weights[0][j, combo[0]]
        for t in range(1, len(weights) - 1):
            term *= weights[t][combo[t - 1], combo[t]]
        term *= weights[-1][combo[-1], 0]
        total += term
    return total


# ---------------------------------------------------------------- config


def test_default_hidden_sizes():
    assert default_hidden_sizes(1) == (4, 4)
    assert default_hidden_sizes(20) == (60, 30)
    with pytest.raises(ConfigurationError):
        default_hidden_sizes(0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"hidden_sizes": ()},
        {"hidden_sizes": (0,)},
        {"activation": "swish"},
        {"epochs": -1},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"weight_init_scale": -0.5},
        {"seed": 7},
    ],
)
def test_net_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        NetConfig(**kwargs)


# --------------------------------------------------------------- training


def test_zero_targets_zero_init_flat_trace(gen):
    x = gen.standard_normal((80, 3))
    cfg = NetConfig(hidden_sizes=(4,), epochs=10, batch_size=20,
                    weight_init_scale=0.0, seed=RngSeed(1))
    net = train(x, np.zeros(80), cfg)
    assert net.loss_trace == [0.0] * 11


def test_linear_target_trains_well(gen):
    x = gen.standard_normal(200)
    y = 3.0 * x
    cfg = NetConfig(hidden_sizes=(8,), epochs=300, batch_size=32,
                    learning_rate=1e-2, seed=RngSeed(5))
    net = train(x, y, cfg)
    assert net.loss_trace[-1] < 0.05 * net.loss_trace[0]


def test_training_deterministic(gen):
    x = gen.standard_normal((90, 4))
    y = x[:, 0] - x[:, 2] + 0.1 * gen.standard_normal(90)
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=20, batch_size=30,
                    learning_rate=5e-3, seed=RngSeed(42))
    a = train(x, y, cfg)
    b = train(x, y, cfg)
    assert a.loss_trace == b.loss_trace
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        np.testing.assert_array_equal(ba, bb)


def test_loss_decreases_on_learnable_signal(gen):
    for rep in range(3):
        x = gen.standard_normal((150, 5))
        y = x @ np.array([2.0, -1.0, 0.0, 0.5, 0.0]) + 0.2 * gen.standard_normal(150)
        cfg = NetConfig(hidden_sizes=(10,), epochs=100, batch_size=50,
                        learning_rate=5e-3, seed=RngSeed(rep))
        net = train(x, y, cfg)
        assert len(net.loss_trace) == 101
        assert net.loss_trace[-1] <= net.loss_trace[0]


def test_paired_columns_share_scale(gen):
    x = np.column_stack([
        gen.standard_normal(100),
        5.0 * gen.standard_normal(100),
        gen.standard_normal(100),
    ])
    cfg = NetConfig(hidden_sizes=(4,), epochs=1, batch_size=50, seed=RngSeed(0))
    net = train(x, gen.standard_normal(100), cfg, paired_columns=[(0, 1)])
    s = x.std(axis=0)
    shared = np.sqrt((s[0] ** 2 + s[1] ** 2) / 2.0)
    np.testing.assert_allclose(net.input_scale[0], shared, rtol=1e-12)
    assert net.input_scale[0] == net.input_scale[1]
    np.testing.assert_allclose(net.input_scale[2], s[2], rtol=1e-12)


def test_paired_columns_out_of_range(gen):
    x = gen.standard_normal((50, 2))
    cfg = NetConfig(hidden_sizes=(4,), epochs=1, batch_size=10)
    with pytest.raises(ConfigurationError):
        train(x, x[:, 0], cfg, paired_columns=[(0, 2)])


def test_batch_size_exceeding_rows(gen):
    x = gen.standard_normal((10, 2))
    with pytest.raises(ConfigurationError):
        train(x, x[:, 0], NetConfig(hidden_sizes=(4,), batch_size=11))


def test_non_finite_data_rejected(gen):
    x = gen.standard_normal((20, 2))
    x[3, 1] = np.nan
    with pytest.raises(InvalidDataError):
        train(x, np.zeros(20), NetConfig(hidden_sizes=(4,), batch_size=5))


def test_divergence_raises_with_trace(gen):
    x = gen.standard_normal((64, 3))
    y = gen.standard_normal(64)
    cfg = NetConfig(hidden_sizes=(8,), activation="relu", epochs=60,
                    batch_size=16, learning_rate=1e6, seed=RngSeed(3))
    with pytest.raises(TrainingError) as info:
        train(x, y, cfg)
    assert info.value.trace is not None
    assert len(info.value.trace) >= 2
    assert not np.isfinite(info.value.trace[-1])


@pytest.mark.parametrize("epochs", [0, 9])
def test_trace_ends_with_full_data_loss(gen, epochs):
    x = gen.standard_normal((70, 3))
    y = 5.0 + 2.0 * x[:, 1] + gen.standard_normal(70)
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=epochs, batch_size=32,
                    learning_rate=1e-2, seed=RngSeed(8))
    net = train(x, y, cfg)
    assert len(net.loss_trace) == epochs + 1
    residual = (net.predict(x) - net.target_mean) / net.target_scale - (y - y.mean()) / y.std()
    np.testing.assert_allclose(net.loss_trace[-1], np.mean(residual**2), rtol=1e-12)


def test_one_full_data_forward_per_fit(gen, monkeypatch):
    # minibatches of 32 never span all 70 rows, so only the final loss does
    designs, y, seeds, pairs = _stack_problem(gen, 7)
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=5, batch_size=32, learning_rate=1e-2)
    monkeypatch.setattr(neuralnet, "_GROUP_BYTES", 2 * 8 * 70 * (5 + 6 + 3 + 1))
    calls = {"fit": 0, "full": 0}
    fit_stack = neuralnet._fit_stack
    forward = neuralnet._forward

    def counting_fit_stack(*args):
        calls["fit"] += 1
        return fit_stack(*args)

    def counting_forward(a, *args):
        calls["full"] += a.shape[-2] == 70
        return forward(a, *args)

    monkeypatch.setattr(neuralnet, "_fit_stack", counting_fit_stack)
    monkeypatch.setattr(neuralnet, "_forward", counting_forward)
    train_many(designs, y, cfg, seeds, pairs)
    assert calls == {"fit": 4, "full": 4}
    train(designs[0], y, cfg)
    assert calls == {"fit": 5, "full": 5}


def test_predictions_on_raw_scale(gen):
    x = 4.0 + 2.0 * gen.standard_normal((120, 2))
    y = 10.0 + x[:, 0]
    cfg = NetConfig(hidden_sizes=(8,), epochs=200, batch_size=40,
                    learning_rate=1e-2, seed=RngSeed(6))
    net = train(x, y, cfg)
    pred = net.predict(x)
    assert np.mean((pred - y) ** 2) < 0.25 * np.var(y)


# ---------------------------------------------------------- stacked training


def _fit_alone(designs, y, cfg, seeds, pairs):
    """Per-net ``train``, with a diverging net's error in place of a net.
    ``y`` is shared, or 2-d with one row per net."""
    ys = y if np.ndim(y) == 2 else [y] * len(seeds)
    out = []
    for x, target, seed, pair in zip(designs, ys, seeds, pairs):
        try:
            out.append(train(x, target, replace(cfg, seed=seed), paired_columns=pair))
        except TrainingError as err:
            out.append(err)
    return out


def _assert_identical(stacked, alone):
    assert len(stacked) == len(alone)
    for a, b in zip(stacked, alone):
        assert type(a) is type(b)
        if isinstance(b, TrainingError):
            assert str(a) == str(b)
            assert np.array_equal(a.trace, b.trace, equal_nan=True)
            continue
        assert a.loss_trace == b.loss_trace
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)
        assert np.array_equal(a.input_mean, b.input_mean)
        assert np.array_equal(a.input_scale, b.input_scale)
        assert (a.target_mean, a.target_scale) == (b.target_mean, b.target_scale)


def _stack_problem(gen, k, n=70, d=5):
    designs = [gen.standard_normal((n, d)) * gen.uniform(0.5, 3.0, d) for _ in range(k)]
    y = designs[0][:, 0] - 0.5 * designs[0][:, 2] + gen.standard_normal(n)
    seeds = [RngSeed(17, i) for i in range(k)]
    pairs = [[(i % d, (i + 1) % d)] for i in range(k)]
    return designs, y, seeds, pairs


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
@pytest.mark.parametrize("k", [1, 7])
def test_train_many_equals_train(gen, activation, k):
    # batch 32 of 70 rows leaves a ragged last minibatch of 6
    designs, y, seeds, pairs = _stack_problem(gen, k)
    cfg = NetConfig(hidden_sizes=(6, 3), activation=activation, epochs=12,
                    batch_size=32, learning_rate=1e-2)
    stacked = train_many(iter(designs), y, cfg, seeds, pairs)
    _assert_identical(stacked, _fit_alone(designs, y, cfg, seeds, pairs))


def test_train_many_across_groups(gen, monkeypatch):
    # a budget of two nets per group spreads seven nets over four groups
    designs, y, seeds, pairs = _stack_problem(gen, 7)
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=8, batch_size=32,
                    learning_rate=1e-2)
    monkeypatch.setattr(neuralnet, "_GROUP_BYTES", 2 * 8 * 70 * (5 + 6 + 3 + 1))
    pulled = []
    pulled_per_group = []
    fit_stack = neuralnet._fit_stack

    target_row_strides = []

    def recording_fit_stack(xs, ys, *args):
        pulled_per_group.append(len(pulled))
        target_row_strides.append(ys.strides[0])
        return fit_stack(xs, ys, *args)

    def lazily():
        for x in designs:
            pulled.append(x)
            yield x

    monkeypatch.setattr(neuralnet, "_fit_stack", recording_fit_stack)
    stacked = train_many(lazily(), y, cfg, seeds, pairs)
    # each group is trained before the next group's designs are built
    assert pulled_per_group == [2, 4, 6, 7]
    # shared targets reach every group as a broadcast view, not copies
    assert target_row_strides == [0, 0, 0, 0]
    _assert_identical(stacked, _fit_alone(designs, y, cfg, seeds, pairs))


def test_train_many_isolates_divergence(gen):
    # at this learning rate some nets diverge, at different epochs, and
    # the others converge; the stacked run must agree net by net
    n, d, k = 60, 4, 12
    x = gen.standard_normal((n, d))
    y = gen.standard_normal(n)
    cfg = NetConfig(hidden_sizes=(8,), activation="relu", epochs=30,
                    batch_size=16, learning_rate=1.0)
    seeds = [RngSeed(5, i) for i in range(k)]
    stacked = train_many([x] * k, y, cfg, seeds)
    alone = _fit_alone([x] * k, y, cfg, seeds, [None] * k)
    failed = [isinstance(r, TrainingError) for r in alone]
    assert 0 < sum(failed) < k
    assert len({len(r.trace) for r in alone if isinstance(r, TrainingError)}) > 1
    _assert_identical(stacked, alone)


def test_train_many_isolates_divergence_with_per_net_targets(gen):
    # as above, each net fitting its own targets: a net leaving the stack
    # takes its own row with it
    n, d, k = 60, 4, 12
    x = gen.standard_normal((n, d))
    y = gen.standard_normal((k, n)) * gen.uniform(0.5, 4.0, (k, 1))
    cfg = NetConfig(hidden_sizes=(8,), activation="relu", epochs=30,
                    batch_size=16, learning_rate=1.0)
    seeds = [RngSeed(5, i) for i in range(k)]
    stacked = train_many([x] * k, y, cfg, seeds)
    alone = _fit_alone([x] * k, y, cfg, seeds, [None] * k)
    failed = [isinstance(r, TrainingError) for r in alone]
    assert 0 < sum(failed) < k
    assert len({len(r.trace) for r in alone if isinstance(r, TrainingError)}) > 1
    _assert_identical(stacked, alone)


def test_train_many_per_net_targets(gen, monkeypatch):
    # seven nets over four groups, each fitting its own targets on its own
    # scale: every net must be its lone fit on its own row
    designs, _, seeds, pairs = _stack_problem(gen, 7)
    ys = np.stack([x[:, 1] * s + gen.standard_normal(70) for x, s in zip(designs, range(1, 8))])
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=8, batch_size=32,
                    learning_rate=1e-2)
    monkeypatch.setattr(neuralnet, "_GROUP_BYTES", 2 * 8 * 70 * (5 + 6 + 3 + 1))
    stacked = train_many(iter(designs), ys, cfg, seeds, pairs)
    alone = _fit_alone(designs, ys, cfg, seeds, pairs)
    _assert_identical(stacked, alone)
    assert len({net.target_scale for net in stacked}) == 7


def test_train_many_validation(gen):
    x = gen.standard_normal((40, 3))
    cfg = NetConfig(hidden_sizes=(4,), epochs=1, batch_size=10)
    seeds = [RngSeed(0, i) for i in range(2)]
    with pytest.raises(ConfigurationError):
        train_many([x, x], x[:, 0], cfg, seeds, [None])
    with pytest.raises(ConfigurationError):
        train_many([x], x[:, 0], cfg, seeds)
    with pytest.raises(InvalidDataError):
        train_many([x, x[:, :2]], x[:, 0], cfg, seeds)
    # targets: one vector, or one row per net
    with pytest.raises(ConfigurationError, match="one row per net"):
        train_many([x, x], x[:, :3].T, cfg, seeds)
    with pytest.raises(InvalidDataError):
        train_many([x, x], np.stack([x[:, 0], np.full(40, np.nan)]), cfg, seeds)


# ------------------------------------------------------------- importances


def test_path_importance_hand_example():
    net = TrainedNet(
        [np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])],
        [np.zeros(2), np.zeros(1)],
    )
    imp = path_importance(net)
    assert imp.kind == "path_product"
    np.testing.assert_allclose(imp.values, [11.0], rtol=0, atol=0)


def test_path_importance_zero_row(gen):
    net = _random_net(gen, (3, 4, 2))
    net.weights[0][1, :] = 0.0
    assert path_importance(net).values[1] == 0.0


def test_path_importance_matches_enumeration(gen):
    for _ in range(20):
        depth = int(gen.integers(1, 4))
        widths = [int(gen.integers(1, 5)) for _ in range(depth + 1)]
        net = _random_net(gen, widths)
        values = path_importance(net).values
        assert len(values) == widths[0]
        for j in range(widths[0]):
            np.testing.assert_allclose(
                values[j], _enumerate_paths(net.weights, j),
                rtol=1e-12, atol=1e-12,
            )


def test_path_importance_no_hidden_layer(gen):
    net = TrainedNet([np.array([[2.0], [-3.0]])], [np.zeros(1)])
    np.testing.assert_array_equal(path_importance(net).values, [2.0, -3.0])


def test_path_importance_linear_in_input_weights(gen):
    net = _random_net(gen, (4, 3))
    base = path_importance(net).values
    scaled = TrainedNet(
        [2.0 * net.weights[0]] + [w.copy() for w in net.weights[1:]],
        [b.copy() for b in net.biases],
        net.activation,
    )
    np.testing.assert_array_equal(path_importance(scaled).values, 2.0 * base)


def test_linear_net_end_to_end_coefficients(gen):
    net = _random_net(gen, (5, 3, 2), activation="identity", zero_bias=True)
    coef = path_importance(net).values
    eye = np.eye(5)
    np.testing.assert_allclose(net.predict(eye) - net.predict(np.zeros(5)),
                               coef, rtol=1e-12, atol=1e-14)


def test_gradient_equals_path_for_identity(gen):
    net = _random_net(gen, (4, 3, 2), activation="identity")
    point = gen.standard_normal(4)
    np.testing.assert_allclose(
        gradient_importance(net, point).values,
        path_importance(net).values,
        rtol=1e-12,
    )


def test_gradient_at_zero_tanh_zero_bias(gen):
    net = _random_net(gen, (3, 4), activation="tanh", zero_bias=True)
    np.testing.assert_allclose(
        gradient_importance(net, np.zeros(3)).values,
        path_importance(net).values,
        rtol=1e-12,
    )


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_gradient_matches_finite_differences(gen, activation):
    for _ in range(10):
        depth = int(gen.integers(1, 4))
        widths = [int(gen.integers(2, 8)) for _ in range(depth + 1)]
        net = _random_net(gen, widths, activation=activation)
        point = gen.standard_normal(widths[0])
        grad = gradient_importance(net, point)
        assert grad.kind == "gradient"
        h = 1e-5
        for j in range(widths[0]):
            up = point.copy(); up[j] += h
            dn = point.copy(); dn[j] -= h
            fd = (net.predict(up)[0] - net.predict(dn)[0]) / (2 * h)
            np.testing.assert_allclose(grad.values[j], fd, rtol=1e-4, atol=1e-7)


def test_gradient_includes_scalers(gen):
    x = 3.0 * gen.standard_normal((150, 3)) + 1.0
    y = 2.0 * x[:, 0] - x[:, 1] + 0.1 * gen.standard_normal(150)
    cfg = NetConfig(hidden_sizes=(8,), epochs=100, batch_size=50,
                    learning_rate=1e-2, seed=RngSeed(8))
    net = train(x, y, cfg)
    point = x[0]
    grad = gradient_importance(net, point).values
    h = 1e-5
    for j in range(3):
        up = point.copy(); up[j] += h
        dn = point.copy(); dn[j] -= h
        fd = (net.predict(up)[0] - net.predict(dn)[0]) / (2 * h)
        np.testing.assert_allclose(grad[j], fd, rtol=1e-4, atol=1e-7)


def test_gradient_point_validation(gen):
    net = _random_net(gen, (3, 2))
    with pytest.raises(InvalidDataError):
        gradient_importance(net, np.zeros(4))
    with pytest.raises(InvalidDataError):
        gradient_importance(net, np.array([0.0, np.inf, 0.0]))


def test_trained_net_shape_validation():
    with pytest.raises(ConfigurationError):
        TrainedNet([np.zeros((2, 3)), np.zeros((4, 1))],
                   [np.zeros(3), np.zeros(1)])
    with pytest.raises(ConfigurationError):
        TrainedNet([np.zeros((2, 2))], [np.zeros(2)])  # two outputs
    with pytest.raises(ConfigurationError):
        TrainedNet([], [])
