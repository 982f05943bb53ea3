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
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigurationError, InvalidDataError, TrainingError
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

# Nets are fitted in groups whose stacked designs plus full-data
# activations take at most this many bytes (about ten 300 x 51 nets with
# hidden layers (32, 16)).
_GROUP_BYTES = 2_500_000


def default_hidden_sizes(d: int) -> tuple[int, int]:
    """Two hidden layers scaled to the logarithm of the input width."""
    if d < 1:
        raise ConfigurationError(f"input width must be positive, got {d}")
    return (
        max(4, round(20.0 * math.log(d))),
        max(4, round(10.0 * math.log(d))),
    )


@dataclass(frozen=True)
class NetConfig:
    """Architecture and optimization settings.

    ``hidden_sizes=None`` defers to ``default_hidden_sizes`` applied to
    the input width at training time.
    """

    hidden_sizes: tuple[int, ...] | None = None
    activation: str = "tanh"
    epochs: int = 300
    batch_size: int = 64
    learning_rate: float = 1e-3
    weight_init_scale: float = 1.0
    seed: RngSeed = RngSeed(0)

    def __post_init__(self):
        if self.hidden_sizes is not None:
            sizes = tuple(int(s) for s in self.hidden_sizes)
            if not sizes:
                raise ConfigurationError("at least one hidden layer is required")
            if any(s < 1 for s in sizes):
                raise ConfigurationError(f"hidden sizes must be positive: {sizes}")
            object.__setattr__(self, "hidden_sizes", sizes)
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(
                f"unknown activation {self.activation!r}; "
                f"expected one of {sorted(ACTIVATIONS)}"
            )
        if not isinstance(self.epochs, int) or self.epochs < 0:
            raise ConfigurationError(f"epochs must be a nonnegative integer, got {self.epochs}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be a positive integer, got {self.batch_size}")
        lr = float(self.learning_rate)
        if not math.isfinite(lr) or lr <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if not math.isfinite(float(self.weight_init_scale)) or self.weight_init_scale < 0:
            raise ConfigurationError("weight_init_scale must be nonnegative")
        if not isinstance(self.seed, RngSeed):
            raise ConfigurationError("seed must be an RngSeed")


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
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
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


def _standardize(inputs, n: int, config: NetConfig, paired_columns):
    """Validate one design and return (standardized design, mean, scale).

    ``paired_columns`` is an iterable of (i, j) column index pairs that
    share the root mean square of their two standard deviations.
    """
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
    scale = np.where(scale < _SCALE_FLOOR, 1.0, scale)
    return (x - mean) / scale, mean, scale


def _forward(a, weights, biases, act) -> list[np.ndarray]:
    """The input, every hidden layer's activations, then the output."""
    acts = [a]
    for t, (w, b) in enumerate(zip(weights, biases)):
        s = np.matmul(acts[-1], w)
        s += b
        acts.append(s if t == len(weights) - 1 else act(s, out=s))
    return acts


# A diverging net overflows to inf and NaN on its way out; the
# finite-loss check below reports it as a TrainingError instead.
@np.errstate(over="ignore", invalid="ignore")
def _fit_stack(xs, ys, seeds, sizes, config: NetConfig) -> list:
    """Minibatch SGD on a stack of nets; net i sees only ``xs[i]`` and
    ``ys[i]``.

    Parameters are stacked along a leading axis: weights (g, d_in, d_out),
    biases (g, 1, d_out).  Each slice goes through the same arithmetic in
    the same order whatever is stacked beside it, so a net's result does
    not depend on its group.  Trace entry e <= E is epoch e's mean squared
    residual over its minibatches, each taken before its step; entry E + 1
    is the loss over all rows after the last epoch (standardized target
    scale).  A net leaves the stack at its first non-finite entry.

    Returns, per net, (weights, biases, loss trace) or a TrainingError.
    """
    g, n, _ = xs.shape
    act, dact = ACTIVATIONS[config.activation]
    lr = config.learning_rate
    gens = [seed.generator() for seed in seeds]
    weights = [np.empty((g, a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    for i, gen in enumerate(gens):
        for w in weights:
            limit = config.weight_init_scale / math.sqrt(w.shape[1])
            w[i] = gen.uniform(-limit, limit, size=w.shape[1:])
    biases = [np.zeros((g, 1, b)) for b in sizes[1:]]

    nets = list(range(g))  # the net held in each stack slot
    traces = [[] for _ in range(g)]
    outcomes = [None] * g
    for epoch in range(1, config.epochs + 2):
        if epoch > config.epochs:
            # One pass over all rows, so every returned net has a finite loss.
            err = _forward(xs, weights, biases, act)[-1][:, :, 0] - ys
            losses = np.einsum("gi,gi->g", err, err)
        else:
            losses = np.zeros(len(nets))
            perm = np.stack([gen.permutation(n) for gen in gens])
            rows = np.arange(len(nets))[:, None]
            for start in range(0, n, config.batch_size):
                idx = perm[:, start : start + config.batch_size]
                acts = _forward(xs[rows, idx], weights, biases, act)
                # d_s: loss gradient at the pre-activations of layer t + 1
                d_s = acts.pop()
                d_s[:, :, 0] -= ys[rows, idx]
                losses += np.einsum("gbo,gbo->g", d_s, d_s)
                d_s *= 2.0 / idx.shape[1]
                for t in range(len(weights) - 1, -1, -1):
                    grad_w = np.matmul(acts[t].transpose(0, 2, 1), d_s)
                    grad_b = d_s.sum(axis=1, keepdims=True)
                    if t > 0:
                        d_s = np.matmul(d_s, weights[t].transpose(0, 2, 1))
                        d_s *= dact(acts[t])
                    grad_w *= lr
                    grad_b *= lr
                    weights[t] -= grad_w
                    biases[t] -= grad_b
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
                f"(learning rate {lr} may be too large)",
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
            [w[slot].copy() for w in weights],
            [b[slot, 0].copy() for b in biases],
            traces[net],
        )
    return outcomes


def train_many(
    designs,
    targets,
    config: NetConfig,
    seeds,
    paired_columns=None,
) -> list:
    """Fit k same-shape nets that share hyper-parameters.

    Net i trains on the i-th of the k matrices that ``designs`` yields,
    draws its initial weights and epoch permutations from ``seeds[i]``
    (``config.seed`` is not used) and shares scales across the column
    pairs in ``paired_columns[i]``.  ``targets`` is one vector of n
    values that every net fits, or a (k, n) array whose row i net i
    fits; each net standardizes its own targets.  Each net comes out
    bitwise equal to ``train`` fitting it alone, whatever is stacked
    beside it.

    The nets are trained stacked, in groups whose designs and full-data
    activations fit a fixed memory budget.  ``designs`` is consumed one
    group at a time, so a generator keeps only the current group's
    designs in memory.

    Returns one entry per net: its TrainedNet, or the TrainingError that
    ``train`` would have raised for it.  A diverging net leaves the other
    nets' results unchanged.
    """
    seeds = list(seeds)
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
    y_scalers = []
    for row in y:
        y_mean = float(row.mean())
        y_scale = float(row.std())
        if y_scale < _SCALE_FLOOR:
            y_scale = 1.0
        y_scalers.append((y_mean, y_scale))
    # Shared targets stay one row, broadcast to every net without a copy.
    ys = np.broadcast_to(
        np.stack([(row - m) / s for row, (m, s) in zip(y, y_scalers)]), (k, n)
    )
    if len(y_scalers) == 1:
        y_scalers *= k

    prepared = (_standardize(x, n, config, p) for x, p in zip(designs, pairs))
    results = []
    sizes = None
    for head in prepared:
        if sizes is None:
            d = head[0].shape[1]
            sizes = [d, *(config.hidden_sizes or default_hidden_sizes(d)), 1]
            group_size = max(1, _GROUP_BYTES // (8 * n * sum(sizes)))
        g = min(group_size, k - len(results))
        # k = 1 trains on a view of the design; larger groups copy each
        # design into its slot as it is built.
        stack = head[0][None] if g == 1 else np.empty((g, n, d))
        scalers = []
        for slot, (xs, mean, scale) in zip(range(g), chain([head], prepared)):
            if xs.shape[1] != d:
                raise InvalidDataError(
                    f"design {len(results) + slot} has {xs.shape[1]} "
                    f"columns, expected {d}"
                )
            if g > 1:
                stack[slot] = xs
            scalers.append((mean, scale))
        if len(scalers) < g:
            break
        group = slice(len(results), len(results) + g)
        fits = _fit_stack(stack, ys[group], seeds[group], sizes, config)
        for fit, (mean, scale), (y_mean, y_scale) in zip(fits, scalers, y_scalers[group]):
            if isinstance(fit, TrainingError):
                results.append(fit)
                continue
            w, b, trace = fit
            results.append(
                TrainedNet(w, b, config.activation, trace, mean, scale, y_mean, y_scale)
            )
    if len(results) != k:
        raise ConfigurationError(f"expected {k} designs, got fewer")
    return results


def train(
    inputs,
    targets,
    config: NetConfig = NetConfig(),
    paired_columns=None,
) -> TrainedNet:
    """Fit a network to (inputs, targets), seeded by ``config.seed``.

    ``paired_columns`` is an iterable of (i, j) column index pairs that
    must share a standardization scale (the root mean square of the two
    column standard deviations); mirrored halves pass through here so a
    larger perturbation cannot shrink one half's effective weights.

    ``loss_trace`` has each epoch's mean minibatch loss (taken before each
    step), then the full-data loss after training.  Raises TrainingError,
    carrying the trace so far, once an entry is non-finite.
    """
    (net,) = train_many([inputs], targets, config, [config.seed], [paired_columns])
    if isinstance(net, TrainingError):
        raise net
    return net


@dataclass(frozen=True)
class ImportanceVector:
    """Per-input importance scores; ``kind`` names the measure."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self) -> int:
        return self.values.shape[0]


def path_importance(net: TrainedNet) -> ImportanceVector:
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
    return ImportanceVector(chain[:, 0], "path_product")


def gradient_importance(net: TrainedNet, at_point) -> ImportanceVector:
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
    return ImportanceVector(values, "gradient")
