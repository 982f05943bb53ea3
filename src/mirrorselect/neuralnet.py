"""Small fully connected regression networks and weight-based feature
importances.

Training is plain minibatch SGD with a fixed learning rate on mean
squared error.  Inputs and targets are standardized internally (columns
declared as mirrored pairs share one scale so the pair stays comparable);
biases are trained but excluded from the importance measures.

Two importances are provided: a path product that multiplies the weight
matrices straight through (activation independent), and the gradient of
the fitted function at a point.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import _parallel
from ._parallel import _GROUP_BYTES
from .errors import (
    ConfigurationError, InvalidDataError, TrainingError,
    _check_choice, _check_integer, _check_number, _check_type, _set_fields,
)
from .rng import RngSeed

_SCALE_FLOOR = 1e-12


# Forward activations take an optional ``out`` so the training loop can
# apply them in place.  Derivatives are expressed through the activation
# output a = act(s), which spares the backward pass a second tanh.


def _relu(s, out=None):
    return np.maximum(s, 0.0, out=out)


def _dtanh(a):
    d = np.multiply(a, a)
    return np.subtract(1.0, d, out=d)


def _drelu(a):
    return a > 0


ACTIVATIONS = {
    "tanh": (np.tanh, _dtanh),
    "relu": (_relu, _drelu),
    "identity": (lambda s, out=None: s, lambda a: 1.0),
}

# The stacked designs, targets, weights, biases, activations and
# gradients of training are float32; each standardized value is rounded
# once from float64.  Loss traces accumulate in float64 and a TrainedNet
# holds float64 weights.
_STACK_DTYPE = np.dtype(np.float32)


def default_hidden_sizes(d: int) -> tuple[int, int]:
    """Two hidden layers scaled to the logarithm of the input width."""
    d = _check_integer(d, "input width", 1)
    return (
        max(4, round(20.0 * math.log(d))),
        max(4, round(10.0 * math.log(d))),
    )


@dataclass(frozen=True)
class NetConfig:
    """Architecture and optimization settings.

    ``hidden_sizes=None`` defers to ``default_hidden_sizes`` applied to
    the input width at training time.  Sizes and counts are kept as int,
    the rate and scale as float.
    """

    hidden_sizes: tuple[int, ...] | None = None
    activation: str = "tanh"
    epochs: int = 300
    batch_size: int = 64
    learning_rate: float = 1e-3
    weight_init_scale: float = 1.0

    def __post_init__(self):
        sizes = self.hidden_sizes
        if sizes is not None:
            if not isinstance(sizes, Iterable):
                raise ConfigurationError(f"hidden_sizes must be a sequence, got {sizes!r}")
            sizes = tuple(_check_integer(s, "hidden size", 1) for s in sizes)
            if not sizes:
                raise ConfigurationError("at least one hidden layer is required")
        _set_fields(
            self,
            hidden_sizes=sizes,
            activation=_check_choice(self.activation, "activation", ACTIVATIONS),
            epochs=_check_integer(self.epochs, "epochs", 0),
            batch_size=_check_integer(self.batch_size, "batch_size", 1),
            learning_rate=_check_number(self.learning_rate, "learning_rate", 0, strict=True),
            weight_init_scale=_check_number(self.weight_init_scale, "weight_init_scale", 0),
        )


@dataclass(eq=False)
class TrainedNet:
    """Weights, biases and the scalers the net was trained with.

    ``weights[t]`` maps layer t to layer t+1 (shape in_t x out_t); the
    final matrix has one output column.  Scaler fields are None for
    hand-built nets, in which case predictions are raw forward passes.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activation: str = "tanh"
    loss_trace: list[float] = field(default_factory=list)
    input_mean: np.ndarray | None = None
    input_scale: np.ndarray | None = None
    target_mean: float = 0.0
    target_scale: float = 1.0

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ConfigurationError("weights and biases must pair up layer by layer")
        if not self.weights:
            raise ConfigurationError("network needs at least one layer")
        self.activation = _check_choice(self.activation, "activation", ACTIVATIONS)
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float).reshape(-1) for b in self.biases]
        for t, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2:
                raise ConfigurationError(f"weight matrix {t} must be 2-d")
            if b.shape[0] != w.shape[1]:
                raise ConfigurationError(
                    f"bias {t} has length {b.shape[0]}, expected {w.shape[1]}"
                )
            if t + 1 < len(self.weights) and self.weights[t + 1].shape[0] != w.shape[1]:
                raise ConfigurationError(f"layers {t} and {t + 1} do not compose")
        if self.weights[-1].shape[1] != 1:
            raise ConfigurationError("final layer must have a single output")

    @property
    def input_width(self) -> int:
        return self.weights[0].shape[0]

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.input_width:
            raise InvalidDataError(
                f"input has {x.shape[1]} columns, net expects {self.input_width}"
            )
        if self.input_mean is not None:
            x = (x - self.input_mean) / self.input_scale
        act, _ = ACTIVATIONS[self.activation]
        out = _forward(x, self.weights, self.biases, act)[-1][:, 0]
        return out * self.target_scale + self.target_mean


def _checked(inputs, n: int, config: NetConfig) -> np.ndarray:
    """One design as a validated 2-d float array of n rows."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise InvalidDataError(f"inputs must be 2-d, got {x.ndim}-d")
    if x.shape[0] != n:
        raise InvalidDataError(
            f"inputs have {x.shape[0]} rows but targets have {n}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidDataError("training data contains non-finite values")
    if n < config.batch_size:
        raise ConfigurationError(
            f"batch_size {config.batch_size} exceeds the {n} available rows"
        )
    return x


def _scaler(x: np.ndarray, paired_columns):
    """Column (mean, scale) of a checked design: the net trains on
    (x - mean) / scale.  Each (i, j) in ``paired_columns`` shares the
    root mean square of the two columns' standard deviations."""
    d = x.shape[1]
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    if paired_columns is not None:
        for i, j in paired_columns:
            if not (0 <= i < d and 0 <= j < d):
                raise ConfigurationError(f"paired columns ({i}, {j}) out of range")
            shared = math.sqrt((scale[i] ** 2 + scale[j] ** 2) / 2.0)
            scale[i] = shared
            scale[j] = shared
    return mean, np.where(scale < _SCALE_FLOOR, 1.0, scale)


def _forward(a, weights, biases, act) -> list[np.ndarray]:
    """The input, every hidden layer's activations, then the output."""
    acts = [a]
    for t, (w, b) in enumerate(zip(weights, biases)):
        s = np.matmul(acts[-1], w)
        s += b
        acts.append(s if t == len(weights) - 1 else act(s, out=s))
    return acts


def _sgd_step(xb, yb, weights, biases, act, dact, lr: float) -> np.ndarray:
    """One minibatch step of every net in the stack, updating weights and
    biases in place.  Returns each net's summed squared residual before
    the step.  The step's activations and gradients are freed on return,
    so no step holds them alongside the next one's."""
    g, b, _ = xb.shape
    acts = _forward(xb, weights, biases, act)
    # d_s: the loss gradient at the pre-activations of layer t + 1, times
    # the learning rate, so each update is one subtraction
    d_s = acts.pop()
    d_s[:, :, 0] -= yb
    losses = np.einsum("gbo,gbo->g", d_s, d_s, dtype=np.float64)
    d_s *= _STACK_DTYPE.type(2.0 * lr / b)
    # Bias gradients as one batched product: a sum over axis 1 runs g * b
    # inner loops of a few elements each.
    ones = np.ones((g, 1, b), _STACK_DTYPE)
    for t in range(len(weights) - 1, -1, -1):
        grad_w = np.matmul(acts[t].transpose(0, 2, 1), d_s)
        grad_b = np.matmul(ones, d_s)
        if t > 0:
            # Back through weights[t] before its update.  The output layer
            # has one column, so its product is a broadcast, bitwise the
            # matmul.
            w_t = weights[t].transpose(0, 2, 1)
            d_s = d_s * w_t if t == len(weights) - 1 else np.matmul(d_s, w_t)
            d_s *= dact(acts[t])
        weights[t] -= grad_w
        biases[t] -= grad_b
    return losses


# A diverging net overflows to inf and NaN on its way out; the
# finite-loss check below reports it as a TrainingError instead.
@np.errstate(over="ignore", invalid="ignore")
def _fit_stack(xs, ys, seeds, sizes, config: NetConfig) -> list:
    """Minibatch SGD on a stack of nets; net i sees only ``xs[i]`` and
    ``ys[i]``.

    Parameters are stacked along a leading axis: weights (g, d_in, d_out),
    biases (g, 1, d_out).  Each slice goes through the same arithmetic in
    the same order whatever is stacked beside it, so a net's result does
    not depend on its group.  ``xs`` and ``ys`` are float32, and so are
    the weights, activations and gradients.  Trace entry e <= E is epoch
    e's mean squared residual over its minibatches, each taken before its
    step and summed in float64; entry E + 1 is the loss over all rows
    after the last epoch (standardized target scale).  A net leaves the
    stack at its first non-finite entry, which float32 overflow (about
    3.4e38) produces.

    Returns, per net, (float64 weights, float64 biases, loss trace) or a
    TrainingError.
    """
    g, n, _ = xs.shape
    act, dact = ACTIVATIONS[config.activation]
    gens = [seed.generator() for seed in seeds]
    weights = [np.empty((g, a, b), _STACK_DTYPE) for a, b in zip(sizes[:-1], sizes[1:])]
    for i, gen in enumerate(gens):
        for w in weights:
            limit = config.weight_init_scale / math.sqrt(w.shape[1])
            w[i] = gen.uniform(-limit, limit, size=w.shape[1:])
    biases = [np.zeros((g, 1, b), _STACK_DTYPE) for b in sizes[1:]]

    nets = list(range(g))  # the net held in each stack slot
    traces = [[] for _ in range(g)]
    outcomes = [None] * g
    for epoch in range(1, config.epochs + 2):
        if epoch > config.epochs:
            # One pass over all rows, so every returned net has a finite loss.
            err = _forward(xs, weights, biases, act)[-1][:, :, 0] - ys
            losses = np.einsum("gi,gi->g", err, err, dtype=np.float64)
        else:
            losses = np.zeros(len(nets))
            perm = np.stack([gen.permutation(n) for gen in gens])
            rows = np.arange(len(nets))[:, None]
            # Minibatches gathered from the flat rows by slot * n + row.
            flat = perm + rows * n
            x_rows = xs.reshape(-1, xs.shape[2])
            for start in range(0, n, config.batch_size):
                batch = slice(start, start + config.batch_size)
                losses += _sgd_step(
                    np.take(x_rows, flat[:, batch], axis=0), ys[rows, perm[:, batch]],
                    weights, biases, act, dact, config.learning_rate,
                )
        losses /= n
        for net, loss in zip(nets, losses):
            traces[net].append(float(loss))
        finite = np.isfinite(losses)
        if finite.all():
            continue
        for slot in np.flatnonzero(~finite):
            net = nets[slot]
            outcomes[net] = TrainingError(
                f"loss became non-finite at epoch {min(epoch, config.epochs)} "
                f"(learning rate {config.learning_rate} may be too large)",
                trace=traces[net],
            )
        keep = np.flatnonzero(finite)
        if not keep.size:
            return outcomes
        xs = xs[keep]
        ys = ys[keep]
        weights = [w[keep] for w in weights]
        biases = [b[keep] for b in biases]
        gens = [gens[slot] for slot in keep]
        nets = [nets[slot] for slot in keep]
    for slot, net in enumerate(nets):
        outcomes[net] = (
            [w[slot].astype(np.float64) for w in weights],
            [b[slot, 0].astype(np.float64) for b in biases],
            traces[net],
        )
    return outcomes


def _fit_group(job) -> list:
    """``_fit_stack`` on one group: (designs, targets, seeds, sizes,
    config).  Shared targets arrive as one row and are broadcast here."""
    xs, ys, seeds, sizes, config = job
    return _fit_stack(xs, np.broadcast_to(ys, (len(xs), ys.shape[1])), seeds, sizes, config)


def _fit_round(
    map_groups, prepared, groups, ys, y_scalers, seeds, sizes, config: NetConfig
) -> list:
    """Stack each group's designs, drawn in order from ``prepared``, then
    fit the groups at once by ``map_groups``, one per worker process of
    ``train_many``'s pool.  Returns the round's nets in order, as
    ``train_many`` does; the stacks are freed on return, before the next
    round draws its designs."""
    n, d = ys.shape[1], sizes[0]
    jobs = []
    scalers = []
    for group in groups:
        # The stack precedes the statistics' n x d temporaries: measured
        # 3 MB less peak RSS for a 4000 x 200 design than the reverse.
        stack = np.empty((len(group), n, d), _STACK_DTYPE)
        drawn = len(scalers)
        for i, (x, p) in zip(group, prepared):
            if x.shape[1] != d:
                raise InvalidDataError(
                    f"design {i} has {x.shape[1]} columns, expected {d}"
                )
            mean, scale = _scaler(x, p)
            # Divided in float64, rounded to float32 once on the way in.
            np.divide(x - mean, scale, out=stack[i - group.start])
            scalers.append((mean, scale))
        if len(scalers) - drawn < len(group):
            raise ConfigurationError(f"expected {len(seeds)} designs, got fewer")
        span = slice(group.start, group.stop)
        targets = ys if len(ys) == 1 else ys[span]
        jobs.append((stack, targets, seeds[span], sizes, config))
    fits = map_groups(_fit_group, jobs)
    y_scalers = y_scalers[groups[0].start : groups[-1].stop]
    nets = []
    for fit, (mean, scale), (y_mean, y_scale) in zip(chain(*fits), scalers, y_scalers):
        if isinstance(fit, TrainingError):
            nets.append(fit)
            continue
        w, b, trace = fit
        nets.append(TrainedNet(w, b, config.activation, trace, mean, scale, y_mean, y_scale))
    return nets


def train_many(
    designs,
    targets,
    config: NetConfig,
    seeds,
    paired_columns=None,
) -> list:
    """Fit k same-shape nets that share hyper-parameters.

    Net i trains on the i-th of the k matrices that ``designs`` yields,
    draws its initial weights and epoch permutations from the RngSeed
    ``seeds[i]`` and shares scales across the column pairs in
    ``paired_columns[i]``.  ``targets`` is one vector of n
    values that every net fits, or a (k, n) array whose row i net i
    fits; each net standardizes its own targets.  Each net comes out
    bitwise equal to ``train`` fitting it alone, whatever is stacked
    beside it.

    The nets are trained stacked, in float32, in near-equal groups whose
    designs and full-data activations fit a fixed memory budget.  Each
    round fits one group per worker process, at once, and uses as few
    rounds as the budget allows; one pool of ``_parallel.process_map``
    serves every round of the call.  In a process of the benchmark's
    pool, on one usable CPU or for one net the groups run inline.  A
    group's designs and targets are pickled to its worker and its nets
    back, bitwise.  ``designs`` is consumed one round at a time,
    so a generator keeps only the current round's designs in memory.

    Returns one entry per net: its TrainedNet, or the TrainingError that
    ``train`` would have raised for it.  A diverging net leaves the other
    nets' results unchanged.
    """
    config = _check_type(config, "config", NetConfig)
    seeds = [_check_type(seed, "each seed", RngSeed) for seed in seeds]
    k = len(seeds)
    pairs = [None] * k if paired_columns is None else list(paired_columns)
    if len(pairs) != k:
        raise ConfigurationError(
            f"got {len(pairs)} paired-column lists for {k} nets"
        )
    y = np.asarray(targets, dtype=float)
    if y.ndim == 1:
        y = y[None]
    if y.ndim != 2 or y.shape[0] not in (1, k):
        raise ConfigurationError(
            f"targets must be one vector or one row per net, got shape "
            f"{np.shape(targets)} for {k} nets"
        )
    if not np.all(np.isfinite(y)):
        raise InvalidDataError("training data contains non-finite values")
    n = y.shape[1]
    y_mean = y.mean(axis=1, keepdims=True)
    y_scale = y.std(axis=1, keepdims=True)
    y_scale[y_scale < _SCALE_FLOOR] = 1.0
    # Shared targets stay one row, broadcast to a group's nets where it
    # is fitted.
    ys = ((y - y_mean) / y_scale).astype(_STACK_DTYPE)
    y_scalers = np.broadcast_to(np.hstack([y_mean, y_scale]), (k, 2)).tolist()

    # Pairs lead the zip, so no design past the k-th is drawn early.
    designs = iter(designs)
    prepared = ((_checked(x, n, config), p) for p, x in zip(pairs, designs))
    results = []
    head = next(prepared, None)
    if head is not None:
        d = head[0].shape[1]
        sizes = [d, *(config.hidden_sizes or default_hidden_sizes(d)), 1]
        net_bytes = _STACK_DTYPE.itemsize * n * sum(sizes)
        # A worker for each of the fewest groups the budget allows; the
        # nets are then cut into near-equal groups, one per worker per
        # round, since a small group spends its time on per-call overhead.
        fewest = len(_parallel._chunks(k, 1, net_bytes, _GROUP_BYTES))
        workers = _parallel._thread_count(fewest, _GROUP_BYTES)
        groups = _parallel._chunks(k, workers, net_bytes, _GROUP_BYTES)
        prepared = chain([head], prepared)
        # One pool serves every round: starting and stopping two workers
        # takes 12-22 ms from a 50 MB process on two shared vCPUs.
        with _parallel.process_map(min(workers, len(groups))) as map_groups:
            for first in range(0, len(groups), workers):
                round_groups = groups[first : first + workers]
                results += _fit_round(
                    map_groups, prepared, round_groups, ys, y_scalers, seeds, sizes, config
                )
    if len(results) != k:
        raise ConfigurationError(f"expected {k} designs, got fewer")
    if next(designs, None) is not None:
        raise ConfigurationError(f"expected {k} designs, got more")
    return results


def train(
    inputs,
    targets,
    config: NetConfig = NetConfig(),
    paired_columns=None,
    rng: RngSeed = RngSeed(0),
) -> TrainedNet:
    """Fit a network to (inputs, targets), seeded by ``rng``.

    ``paired_columns`` is an iterable of (i, j) column index pairs that
    must share a standardization scale (the root mean square of the two
    column standard deviations); mirrored halves pass through here so a
    larger perturbation cannot shrink one half's effective weights.

    ``loss_trace`` has each epoch's mean minibatch loss (taken before each
    step), then the full-data loss after training.  Raises TrainingError,
    carrying the trace so far, once an entry is non-finite.
    """
    (net,) = train_many([inputs], targets, config, [rng], [paired_columns])
    if isinstance(net, TrainingError):
        raise net
    return net


def path_importance(net: TrainedNet) -> np.ndarray:
    """Product of the weight matrices straight through the net.

    Entry j sums, over all input-to-output paths starting at input j, the
    product of the weights along the path.  Biases and activations do not
    enter, so the score is exact for identity activations and a linear
    proxy otherwise.  Scores live on the net's internal standardized
    scale.
    """
    chain = net.weights[-1]
    for t in range(len(net.weights) - 2, -1, -1):
        chain = net.weights[t] @ chain
    return chain[:, 0]


def gradient_importance(net: TrainedNet, at_point) -> np.ndarray:
    """Gradient of ``net.predict`` at one raw-scale input point.

    Exactly the derivative of the prediction, including the effect of the
    internal scalers, so it can be checked against finite differences of
    ``predict``.
    """
    point = np.asarray(at_point, dtype=float).reshape(-1)
    if point.shape[0] != net.input_width:
        raise InvalidDataError(
            f"point has {point.shape[0]} entries, net expects {net.input_width}"
        )
    if not np.all(np.isfinite(point)):
        raise InvalidDataError("evaluation point contains non-finite values")
    v = point
    if net.input_mean is not None:
        v = (v - net.input_mean) / net.input_scale
    act, dact = ACTIVATIONS[net.activation]
    a = v[None, :]
    chain = net.weights[0]
    for t in range(len(net.weights) - 1):
        a = act(a @ net.weights[t] + net.biases[t])
        chain = (chain * dact(a)) @ net.weights[t + 1]
    values = chain[:, 0] * net.target_scale
    if net.input_scale is not None:
        values = values / net.input_scale
    return values
