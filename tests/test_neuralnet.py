import contextlib
import multiprocessing
import os
import tracemalloc
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
from mirrorselect import _parallel, neuralnet
from conftest import pool_of


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
        {"hidden_sizes": 5},
        {"activation": ["tanh"]},
    ],
)
def test_net_config_validation(kwargs):
    with pytest.raises(ConfigurationError):
        NetConfig(**kwargs)


# --------------------------------------------------------------- training


def test_zero_targets_zero_init_flat_trace(gen):
    x = gen.standard_normal((80, 3))
    cfg = NetConfig(hidden_sizes=(4,), epochs=10, batch_size=20,
                    weight_init_scale=0.0)
    net = train(x, np.zeros(80), cfg, rng=RngSeed(1))
    assert net.loss_trace == [0.0] * 11


def test_linear_target_trains_well(gen):
    x = gen.standard_normal(200)
    y = 3.0 * x
    cfg = NetConfig(hidden_sizes=(8,), epochs=300, batch_size=32,
                    learning_rate=1e-2)
    net = train(x, y, cfg, rng=RngSeed(5))
    assert net.loss_trace[-1] < 0.05 * net.loss_trace[0]


def test_training_deterministic(gen):
    x = gen.standard_normal((90, 4))
    y = x[:, 0] - x[:, 2] + 0.1 * gen.standard_normal(90)
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=20, batch_size=30,
                    learning_rate=5e-3)
    a = train(x, y, cfg, rng=RngSeed(42))
    b = train(x, y, cfg, rng=RngSeed(42))
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
                        learning_rate=5e-3)
        net = train(x, y, cfg, rng=RngSeed(rep))
        assert len(net.loss_trace) == 101
        assert net.loss_trace[-1] <= net.loss_trace[0]


def test_paired_columns_share_scale(gen):
    x = np.column_stack([
        gen.standard_normal(100),
        5.0 * gen.standard_normal(100),
        gen.standard_normal(100),
    ])
    cfg = NetConfig(hidden_sizes=(4,), epochs=1, batch_size=50)
    net = train(x, gen.standard_normal(100), cfg, paired_columns=[(0, 1)], rng=RngSeed(0))
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
    # float32 overflows within the first epoch from a rate of about 300;
    # at 100 epoch 1's loss is finite (about 6e70, summed in float64) and
    # epoch 2's is not
    x = gen.standard_normal((64, 3))
    y = gen.standard_normal(64)
    cfg = NetConfig(hidden_sizes=(8,), activation="relu", epochs=60,
                    batch_size=16, learning_rate=100.0)
    with pytest.raises(TrainingError) as info:
        train(x, y, cfg, rng=RngSeed(3))
    assert info.value.trace is not None
    assert len(info.value.trace) >= 2
    assert not np.isfinite(info.value.trace[-1])


@pytest.mark.parametrize("epochs", [0, 9])
def test_trace_ends_with_full_data_loss(gen, epochs):
    x = gen.standard_normal((70, 3))
    y = 5.0 + 2.0 * x[:, 1] + gen.standard_normal(70)
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=epochs, batch_size=32,
                    learning_rate=1e-2)
    net = train(x, y, cfg, rng=RngSeed(8))
    assert len(net.loss_trace) == epochs + 1
    residual = (net.predict(x) - net.target_mean) / net.target_scale - (y - y.mean()) / y.std()
    # the trace's residuals are formed in float32 (inputs rounded once,
    # then two short float32 layers), the reference's in float64: they
    # agree to a few float32 roundings (measured 3.7e-8 relative)
    rtol = 10 * np.finfo(np.float32).eps
    np.testing.assert_allclose(net.loss_trace[-1], np.mean(residual**2), rtol=rtol)


def test_one_full_data_forward_per_fit(gen, monkeypatch):
    # minibatches of 32 never span all 70 rows, so only the final loss does
    designs, y, seeds, pairs = _stack_problem(gen, 7)
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=5, batch_size=32, learning_rate=1e-2)
    monkeypatch.setattr(neuralnet, "_GROUP_BYTES", _two_nets_per_group())
    pool_of(monkeypatch, 1)  # the groups fit in this process, where the spies count
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


def test_paired_columns_are_checked_before_any_fit(gen, monkeypatch):
    # a pair out of range on the last of seven nets in groups of two is
    # an error before the first group is fitted
    designs, y, seeds, pairs = _stack_problem(gen, 7)
    pairs[-1] = [(0, 5)]
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=2, batch_size=32)
    monkeypatch.setattr(neuralnet, "_GROUP_BYTES", _two_nets_per_group())
    pool_of(monkeypatch, 1)  # the groups fit in this process, where the spy counts
    fits = []
    fit_stack = neuralnet._fit_stack

    def counting_fit_stack(*args):
        fits.append(len(args[0]))
        return fit_stack(*args)

    monkeypatch.setattr(neuralnet, "_fit_stack", counting_fit_stack)
    with pytest.raises(ConfigurationError, match=r"paired columns \(0, 5\) out of range"):
        train_many(designs, y, cfg, seeds, pairs)
    assert fits == []
    pairs[-1] = [(0, 4)]
    assert len(train_many(designs, y, cfg, seeds, pairs)) == 7
    assert fits == [2, 2, 2, 1]


def test_predictions_on_raw_scale(gen):
    x = 4.0 + 2.0 * gen.standard_normal((120, 2))
    y = 10.0 + x[:, 0]
    cfg = NetConfig(hidden_sizes=(8,), epochs=200, batch_size=40,
                    learning_rate=1e-2)
    net = train(x, y, cfg, rng=RngSeed(6))
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
            out.append(train(x, target, cfg, paired_columns=pair, rng=seed))
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


def _two_nets_per_group(n=70, sizes=(5, 6, 3, 1)):
    """A group budget that holds two stacked nets of ``_stack_problem``'s
    shape with hidden layers (6, 3)."""
    return 2 * neuralnet._STACK_DTYPE.itemsize * n * sum(sizes)


def _record_rounds(monkeypatch, drawn=lambda: 0):
    """Record, in this process, each round of groups that ``train_many``
    hands to its process map: (``drawn()`` when the round starts, when it
    ends, the groups' jobs, the groups' fits)."""
    rounds = []
    process_map = _parallel.process_map

    @contextlib.contextmanager
    def recording_process_map(workers):
        with process_map(workers) as map_groups:

            def recording_map(fn, jobs):
                start = drawn()
                fits = map_groups(fn, jobs)
                rounds.append((start, drawn(), jobs, fits))
                return fits

            yield recording_map

    monkeypatch.setattr(_parallel, "process_map", recording_process_map)
    return rounds


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
    # a budget of two nets per group spreads seven nets over four groups:
    # in sequence on one worker, in two rounds of two groups on one pool
    # of two worker processes
    designs, y, seeds, pairs = _stack_problem(gen, 7)
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=8, batch_size=32,
                    learning_rate=1e-2)
    alone = _fit_alone(designs, y, cfg, seeds, pairs)
    monkeypatch.setattr(neuralnet, "_GROUP_BYTES", _two_nets_per_group())
    pulled = []
    rounds = _record_rounds(monkeypatch, lambda: len(pulled))
    # each fit, in this process or a forked worker, sends its targets' row
    # stride back on a pipe this process made
    strides = multiprocessing.get_context("fork").SimpleQueue()
    fit_stack = neuralnet._fit_stack

    def recording_fit_stack(xs, ys, *args):
        strides.put(ys.strides[0])
        return fit_stack(xs, ys, *args)

    def lazily():
        for x in designs:
            pulled.append(x)
            yield x

    monkeypatch.setattr(neuralnet, "_fit_stack", recording_fit_stack)
    # (designs drawn when a group's round starts, when it ends, its nets):
    # a round's designs are all drawn before its groups train, and the next
    # round's only after they have trained
    for threads, expected in [
        (1, [(2, 2, 2), (4, 4, 2), (6, 6, 2), (7, 7, 1)]),
        (2, [(4, 4, 2), (4, 4, 2), (7, 7, 2), (7, 7, 1)]),
    ]:
        pools = pool_of(monkeypatch, threads)
        pulled.clear()
        rounds.clear()
        stacked = train_many(lazily(), y, cfg, seeds, pairs)
        jobs = [(start, end, job) for start, end, round_jobs, _ in rounds for job in round_jobs]
        assert [(start, end, len(job[0])) for start, end, job in jobs] == expected
        assert pools == ([] if threads == 1 else [2])
        # shared targets go to each group as its rows of one broadcast
        # view: a fit in this process sees the view, a worker's fit a
        # pickled copy of the group's rows
        assert [job[1].shape for _, _, job in jobs] == [(2, 70)] * 3 + [(1, 70)]
        assert [job[1].strides[0] for _, _, job in jobs] == [0] * 4
        seen = []
        while not strides.empty():
            seen.append(strides.get())
        assert seen == [0 if threads == 1 else 70 * 4] * 4
        _assert_identical(stacked, alone)
    strides.close()


@pytest.mark.parametrize("threads", [1, 2, 7])
def test_concurrent_groups_give_bitwise_the_lone_fits(gen, monkeypatch, threads):
    # seven nets on one, two or seven workers: one group per worker, all
    # in one round, each net bitwise its lone fit; a pool's groups are
    # fitted in its worker processes, none in this one
    designs, y, seeds, pairs = _stack_problem(gen, 7)
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=8, batch_size=32, learning_rate=1e-2)
    alone = _fit_alone(designs, y, cfg, seeds, pairs)
    pools = pool_of(monkeypatch, threads)
    rounds = _record_rounds(monkeypatch)
    fitted_here = []
    fit_stack = neuralnet._fit_stack

    def recording_fit_stack(*args):
        fitted_here.append(os.getpid())
        return fit_stack(*args)

    monkeypatch.setattr(neuralnet, "_fit_stack", recording_fit_stack)
    stacked = train_many(iter(designs), y, cfg, seeds, pairs)
    assert pools == ([] if threads == 1 else [threads])
    assert [len(jobs) for _, _, jobs, _ in rounds] == [threads]
    assert fitted_here == ([os.getpid()] if threads == 1 else [])
    _assert_identical(stacked, alone)


def test_divergence_stays_in_its_concurrent_group(gen, monkeypatch):
    # two groups of two on two worker processes: one net of the first
    # group diverges, its TrainingError comes back pickled, and every
    # other net, the second group's included, is bitwise its lone fit
    n, d = 60, 4
    x = gen.standard_normal((n, d))
    y = gen.standard_normal(n)
    cfg = NetConfig(hidden_sizes=(8,), activation="relu", epochs=30,
                    batch_size=16, learning_rate=0.9)
    candidates = [RngSeed(5, i) for i in range(12)]
    lone = _fit_alone([x] * 12, y, cfg, candidates, [None] * 12)
    failed = [s for s, r in zip(candidates, lone) if isinstance(r, TrainingError)]
    fitted = [s for s, r in zip(candidates, lone) if not isinstance(r, TrainingError)]
    seeds = [failed[0], *fitted[:3]]
    pools = pool_of(monkeypatch, 2)
    rounds = _record_rounds(monkeypatch)
    stacked = train_many([x] * 4, y, cfg, seeds)
    assert pools == [2]
    groups = [
        [isinstance(fit, TrainingError) for fit in fits]
        for _, _, _, round_fits in rounds for fits in round_fits
    ]
    assert groups == [[True, False], [False, False]]
    assert isinstance(stacked[0], TrainingError)
    _assert_identical(stacked, _fit_alone([x] * 4, y, cfg, seeds, [None] * 4))


def test_minibatch_steps_add_little_to_the_peak(gen):
    # each step's activations and gradients are freed before the next
    # step allocates its own, so the epochs keep the traced peak within a
    # tenth of a fit with only the full-data pass (20 nets of the
    # ingm_linear shape: about 1.45 MB against 1.40 MB)
    g, n, d = 20, 300, 51
    xs = gen.standard_normal((g, n, d)).astype(np.float32)
    ys = np.broadcast_to(gen.standard_normal(n).astype(np.float32), (g, n))
    seeds = [RngSeed(3, i) for i in range(g)]
    peaks = []
    for epochs in (0, 1, 3):
        cfg = NetConfig(hidden_sizes=(32, 16), epochs=epochs, batch_size=64,
                        learning_rate=5e-3)
        tracemalloc.start()
        try:
            neuralnet._fit_stack(xs, ys, seeds, [d, 32, 16, 1], cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks[1:]) <= 1.10 * peaks[0]


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


def test_train_many_target_scalers_are_each_rows_own(gen):
    # one row per net: a wide one, an offset small one, a constant one and
    # one whose spread is below the floor; each net keeps its row's
    # float(mean) and floored float(std)
    n, k = 50, 4
    y = gen.standard_normal((k, n)) * [[40.0], [1e-3], [0.0], [1e-14]]
    y += [[0.0], [3.0], [2.5], [-7.0]]
    cfg = NetConfig(hidden_sizes=(4,), epochs=2, batch_size=16)
    designs = [gen.standard_normal((n, 3)) for _ in range(k)]
    nets = train_many(designs, y, cfg, [RngSeed(3, i) for i in range(k)])
    for net, row in zip(nets, y):
        scale = float(row.std())
        assert type(net.target_mean) is float and type(net.target_scale) is float
        assert net.target_mean == float(row.mean())
        assert net.target_scale == (scale if scale >= neuralnet._SCALE_FLOOR else 1.0)
    assert nets[2].target_scale == nets[3].target_scale == 1.0


def test_train_many_per_net_targets(gen, monkeypatch):
    # seven nets over four groups, each fitting its own targets on its own
    # scale: every net must be its lone fit on its own row
    designs, _, seeds, pairs = _stack_problem(gen, 7)
    ys = np.stack([x[:, 1] * s + gen.standard_normal(70) for x, s in zip(designs, range(1, 8))])
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=8, batch_size=32,
                    learning_rate=1e-2)
    monkeypatch.setattr(neuralnet, "_GROUP_BYTES", _two_nets_per_group())
    stacked = train_many(iter(designs), ys, cfg, seeds, pairs)
    alone = _fit_alone(designs, ys, cfg, seeds, pairs)
    _assert_identical(stacked, alone)
    assert len({net.target_scale for net in stacked}) == 7


# ------------------------------------------------------------ float32 stacks


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_stacks_stay_float32_and_equal_lone_runs(gen, monkeypatch, activation):
    # every forward pass, minibatch or full-data, sees float32 inputs,
    # weights and biases and gives float32 activations; with in-place
    # updates this keeps the loop float32 under any scalar promotion rule
    designs, y, seeds, pairs = _stack_problem(gen, 7)
    cfg = NetConfig(hidden_sizes=(6, 3), activation=activation, epochs=4,
                    batch_size=32, learning_rate=1e-2)
    monkeypatch.setattr(neuralnet, "_GROUP_BYTES", _two_nets_per_group())
    alone = _fit_alone(designs, y, cfg, seeds, pairs)
    # four groups in two rounds on one pool of two worker processes
    pools = pool_of(monkeypatch, 2)
    _assert_identical(train_many(designs, y, cfg, seeds, pairs), alone)
    assert pools == [2]
    # the dtype spies record in this process, so the groups fit here
    pool_of(monkeypatch, 1)
    seen = set()
    fit_stack = neuralnet._fit_stack
    forward = neuralnet._forward

    def checked_fit_stack(xs, ys, *args):
        seen.update({("xs", xs.dtype), ("ys", ys.dtype)})
        return fit_stack(xs, ys, *args)

    def checked_forward(a, weights, biases, act):
        acts = forward(a, weights, biases, act)
        seen.update(("forward", arr.dtype) for arr in [*acts, *weights, *biases])
        return acts

    monkeypatch.setattr(neuralnet, "_fit_stack", checked_fit_stack)
    monkeypatch.setattr(neuralnet, "_forward", checked_forward)
    stacked = train_many(designs, y, cfg, seeds, pairs)
    f32 = np.dtype(np.float32)
    assert seen == {("xs", f32), ("ys", f32), ("forward", f32)}
    _assert_identical(stacked, alone)


def _reference_step(xb, yb, weights, biases, activation, lr):
    """One SGD step of one net in float64, by the chain rule through the
    pre-activations, on the batch's mean squared residual.  Returns the
    new weights and biases and the summed squared residual before it."""
    f, df = {
        "tanh": (np.tanh, lambda s: 1.0 - np.tanh(s) ** 2),
        "relu": (lambda s: np.maximum(s, 0.0), lambda s: (s > 0).astype(float)),
        "identity": (lambda s: s, np.ones_like),
    }[activation]
    ins, pres = [], []
    a = xb
    for t, (w, b) in enumerate(zip(weights, biases)):
        ins.append(a)
        pres.append(a @ w + b)
        a = pres[-1] if t == len(weights) - 1 else f(pres[-1])
    residual = a[:, 0] - yb
    delta = 2.0 * residual[:, None] / len(yb)
    new_w, new_b = list(weights), list(biases)
    for t in range(len(weights) - 1, -1, -1):
        new_w[t] = weights[t] - lr * ins[t].T @ delta
        new_b[t] = biases[t] - lr * delta.sum(axis=0)
        if t > 0:
            delta = (delta @ weights[t].T) * df(pres[t - 1])
    return new_w, new_b, residual @ residual


@pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
def test_sgd_step_matches_a_float64_reference(gen, activation):
    # three nets stacked, one epoch of 70 rows in batches of 32, 32 and a
    # ragged 6: each float32 step against the float64 reference step from
    # the same start.  Weights lie in [-1, 1] and each step moves some
    # entry by at least 0.01; the float32 results stay within 8 float32
    # epsilons (9.5e-7) of the reference (measured: weights within 1.2e-7,
    # losses within 2.2e-7 relative)
    g, n, sizes, lr = 3, 70, (5, 6, 3, 1), 0.05
    xs = gen.standard_normal((g, n, 5)).astype(np.float32)
    ys = gen.standard_normal((g, n)).astype(np.float32)
    weights = [gen.uniform(-1, 1, (g, a, b)).astype(np.float32) for a, b in zip(sizes, sizes[1:])]
    biases = [gen.uniform(-0.5, 0.5, (g, 1, b)).astype(np.float32) for b in sizes[1:]]
    tol = 8 * np.finfo(np.float32).eps
    act, dact = neuralnet.ACTIVATIONS[activation]
    for start in range(0, n, 32):
        rows = slice(start, start + 32)
        before = [([w[i].astype(float) for w in weights], [b[i, 0].astype(float) for b in biases])
                  for i in range(g)]
        losses = neuralnet._sgd_step(xs[:, rows], ys[:, rows], weights, biases, act, dact, lr)
        assert all(w.dtype == b.dtype == np.float32 for w, b in zip(weights, biases))
        for i, (w0, b0) in enumerate(before):
            xb, yb = xs[i, rows].astype(float), ys[i, rows].astype(float)
            w_ref, b_ref, loss = _reference_step(xb, yb, w0, b0, activation, lr)
            assert max(np.abs(a - b).max() for a, b in zip(w_ref, w0)) >= 0.01
            np.testing.assert_allclose(losses[i], loss, rtol=tol)
            for t in range(len(weights)):
                np.testing.assert_allclose(weights[t][i], w_ref[t], rtol=0, atol=tol)
                np.testing.assert_allclose(biases[t][i, 0], b_ref[t], rtol=0, atol=tol)


def test_output_layer_backprop_broadcast_is_bitwise_the_matmul(gen):
    # back through the one-column output layer: (g, b, 1) gradients times
    # the (g, 1, h) transposed weights
    for g, b, h in [(25, 64, 16), (3, 6, 3), (1, 1, 1)]:
        d_s = gen.standard_normal((g, b, 1)).astype(np.float32)
        w_t = gen.standard_normal((g, h, 1)).astype(np.float32).transpose(0, 2, 1)
        product = d_s * w_t
        assert product.dtype == np.float32
        assert np.array_equal(product, np.matmul(d_s, w_t))


def test_results_are_float64(gen):
    designs, y, seeds, pairs = _stack_problem(gen, 3)
    cfg = NetConfig(hidden_sizes=(6, 3), epochs=3, batch_size=32, learning_rate=1e-2)
    for net in train_many(designs, y, cfg, seeds, pairs):
        assert all(w.dtype == np.float64 for w in net.weights)
        assert all(b.dtype == np.float64 for b in net.biases)
        assert net.input_mean.dtype == net.input_scale.dtype == np.float64
        assert len(net.loss_trace) == 4
        assert all(type(v) is float for v in net.loss_trace)
    # a diverging net's trace, too, is Python floats
    cfg = NetConfig(hidden_sizes=(8,), activation="relu", epochs=20, batch_size=16,
                    learning_rate=100.0)
    with pytest.raises(TrainingError) as info:
        train(designs[0], y, cfg)
    assert all(type(v) is float for v in info.value.trace)


def test_weights_start_from_float32_rounded_draws(gen):
    # zero epochs: the returned weights are the initial uniform draws,
    # each rounded to float32 once, then widened back to float64
    x = gen.standard_normal((40, 3))
    cfg = NetConfig(hidden_sizes=(5,), epochs=0, batch_size=10)
    net = train(x, x[:, 0], cfg, rng=RngSeed(4))
    draws = RngSeed(4).generator()
    for w, (a, b) in zip(net.weights, [(3, 5), (5, 1)]):
        limit = 1.0 / np.sqrt(a)  # scaled by fan-in
        expected = draws.uniform(-limit, limit, size=(a, b))
        assert np.array_equal(w, expected.astype(np.float32).astype(np.float64))
        assert not np.array_equal(w, expected)


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
    # a design's width is checked before its pairs: (3, 4) lies outside the
    # narrow design, yet the error is its width, a data error
    wide = np.column_stack([x, x[:, :2]])
    with pytest.raises(InvalidDataError, match="design 1 has 3 columns, expected 5"):
        train_many([wide, x], x[:, 0], cfg, seeds, [[(3, 4)], [(3, 4)]])
    # targets: one vector, or one row per net
    with pytest.raises(ConfigurationError, match="one row per net"):
        train_many([x, x], x[:, :3].T, cfg, seeds)
    with pytest.raises(InvalidDataError):
        train_many([x, x], np.stack([x[:, 0], np.full(40, np.nan)]), cfg, seeds)


def test_seeds_must_be_rng_seeds(gen):
    x = gen.standard_normal((40, 3))
    cfg = NetConfig(hidden_sizes=(4,), epochs=1, batch_size=10)
    with pytest.raises(ConfigurationError, match="RngSeed"):
        train(x, x[:, 0], cfg, rng=7)
    with pytest.raises(ConfigurationError, match="RngSeed"):
        train_many([x], x[:, 0], cfg, seeds=[7])


def test_train_many_rejects_extra_designs(gen, monkeypatch):
    x = gen.standard_normal((40, 3))
    cfg = NetConfig(hidden_sizes=(4,), epochs=1, batch_size=10)
    seeds = [RngSeed(0, i) for i in range(2)]
    with pytest.raises(ConfigurationError, match="got more"):
        train_many([x, x, x], x[:, 0], cfg, seeds)
    events = []
    fit_stack = neuralnet._fit_stack

    def recording_fit_stack(*args):
        events.append("fit")
        return fit_stack(*args)

    def lazily(count):
        for _ in range(count):
            events.append("design")
            yield x

    monkeypatch.setattr(neuralnet, "_fit_stack", recording_fit_stack)
    # the extra design is drawn only once the k nets are fitted
    with pytest.raises(ConfigurationError, match="got more"):
        train_many(lazily(3), x[:, 0], cfg, seeds)
    assert events == ["design", "design", "fit", "design"]
    # with exactly k designs, none past the k-th is asked for
    events.clear()
    assert len(train_many(lazily(2), x[:, 0], cfg, seeds)) == 2
    assert events == ["design", "design", "fit"]


# ------------------------------------------------------------- importances


def test_path_importance_hand_example():
    net = TrainedNet(
        [np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])],
        [np.zeros(2), np.zeros(1)],
    )
    np.testing.assert_allclose(path_importance(net), [11.0], rtol=0, atol=0)


def test_path_importance_zero_row(gen):
    net = _random_net(gen, (3, 4, 2))
    net.weights[0][1, :] = 0.0
    assert path_importance(net)[1] == 0.0


def test_path_importance_matches_enumeration(gen):
    for _ in range(20):
        depth = int(gen.integers(1, 4))
        widths = [int(gen.integers(1, 5)) for _ in range(depth + 1)]
        net = _random_net(gen, widths)
        values = path_importance(net)
        assert len(values) == widths[0]
        for j in range(widths[0]):
            np.testing.assert_allclose(
                values[j], _enumerate_paths(net.weights, j),
                rtol=1e-12, atol=1e-12,
            )


def test_path_importance_no_hidden_layer(gen):
    net = TrainedNet([np.array([[2.0], [-3.0]])], [np.zeros(1)])
    np.testing.assert_array_equal(path_importance(net), [2.0, -3.0])


def test_path_importance_linear_in_input_weights(gen):
    net = _random_net(gen, (4, 3))
    base = path_importance(net)
    scaled = TrainedNet(
        [2.0 * net.weights[0]] + [w.copy() for w in net.weights[1:]],
        [b.copy() for b in net.biases],
        net.activation,
    )
    np.testing.assert_array_equal(path_importance(scaled), 2.0 * base)


def test_linear_net_end_to_end_coefficients(gen):
    net = _random_net(gen, (5, 3, 2), activation="identity", zero_bias=True)
    coef = path_importance(net)
    eye = np.eye(5)
    np.testing.assert_allclose(net.predict(eye) - net.predict(np.zeros(5)),
                               coef, rtol=1e-12, atol=1e-14)


def test_gradient_equals_path_for_identity(gen):
    net = _random_net(gen, (4, 3, 2), activation="identity")
    point = gen.standard_normal(4)
    np.testing.assert_allclose(
        gradient_importance(net, point),
        path_importance(net),
        rtol=1e-12,
    )


def test_gradient_at_zero_tanh_zero_bias(gen):
    net = _random_net(gen, (3, 4), activation="tanh", zero_bias=True)
    np.testing.assert_allclose(
        gradient_importance(net, np.zeros(3)),
        path_importance(net),
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
        h = 1e-5
        for j in range(widths[0]):
            up = point.copy(); up[j] += h
            dn = point.copy(); dn[j] -= h
            fd = (net.predict(up)[0] - net.predict(dn)[0]) / (2 * h)
            np.testing.assert_allclose(grad[j], fd, rtol=1e-4, atol=1e-7)


def test_gradient_includes_scalers(gen):
    x = 3.0 * gen.standard_normal((150, 3)) + 1.0
    y = 2.0 * x[:, 0] - x[:, 1] + 0.1 * gen.standard_normal(150)
    cfg = NetConfig(hidden_sizes=(8,), epochs=100, batch_size=50,
                    learning_rate=1e-2)
    net = train(x, y, cfg, rng=RngSeed(8))
    point = x[0]
    grad = gradient_importance(net, point)
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
    with pytest.raises(ConfigurationError):
        TrainedNet([np.zeros((2, 1))], [np.zeros(1)], activation=["tanh"])


_ONE_LAYER = ([np.zeros((2, 1))], [np.zeros(1)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: TrainedNet([np.zeros((2, 1))], []), ConfigurationError, "pair up"),
        (lambda: TrainedNet(*_ONE_LAYER, activation="sigmoid"), ConfigurationError,
         "unknown activation"),
        (lambda: TrainedNet([np.zeros(2)], [np.zeros(1)]), ConfigurationError, "must be 2-d"),
        (lambda: TrainedNet([np.zeros((2, 1))], [np.zeros(2)]), ConfigurationError,
         "bias 0 has length 2"),
        (lambda: TrainedNet(*_ONE_LAYER).predict(np.zeros((4, 3))), InvalidDataError,
         "net expects 2"),
        (lambda: train(np.zeros((8, 2, 2)), np.zeros(8), NetConfig(batch_size=4)),
         InvalidDataError, "must be 2-d"),
        (lambda: train(np.zeros((8, 2)), np.zeros(7), NetConfig(batch_size=4)),
         InvalidDataError, "8 rows but targets have 7"),
    ],
    ids=["unpaired", "activation", "weight-1d", "bias-length", "predict-width",
         "train-3d", "train-rows"],
)
def test_net_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
