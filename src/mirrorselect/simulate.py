"""Synthetic designs, response models, selection metrics and a benchmark
driver for the mirrored-pair pipelines.

Designs are zero-mean gaussian rows with a structured precision matrix:
identity, Toeplitz partial correlation (precision entries rho**|i-j|) or
constant partial correlation ((1-rho) I + rho 11').  Responses are
linear or single-index models with gaussian coefficient draws on a
random support.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.linalg import solve_triangular

from ._parallel import parallel_map
from .dataset import Dataset
from .errors import ConfigurationError, InvalidDataError, MirrorSelectError, NumericalError
from .kernelmeasure import KernelSpec
from .neuralnet import _GROUP_BYTES, NetConfig
from .rng import RngSeed

# ``run_sngm`` and ``run_ingm`` are not called here; they stay names of
# this module because perfbench's tracer patches them here.
from .selection import ScreenOptions, _check_q, _run, run_ingm, run_sngm  # noqa: F401

_STRUCTURES = ("identity", "toeplitz_pc", "constant_pc")

LINKS = {
    "f1": lambda t: t + np.sin(t),
    "f2": lambda t: 0.5 * t**3,
    "f3": lambda t: 0.1 * t**5,
}

METHODS = ("ingm", "sngm", "s_ingm", "s_sngm")


@dataclass(frozen=True)
class DesignSpec:
    """Row count, feature count and precision structure of the design."""

    n: int
    p: int
    structure: str = "identity"
    rho: float = 0.0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ConfigurationError(f"n and p must be positive, got ({self.n}, {self.p})")
        if self.structure not in _STRUCTURES:
            raise ConfigurationError(
                f"unknown structure {self.structure!r}; expected one of {_STRUCTURES}"
            )
        rho = float(self.rho)
        if self.structure == "toeplitz_pc" and not -1.0 < rho < 1.0:
            raise ConfigurationError(f"toeplitz rho must lie in (-1, 1), got {rho}")
        if self.structure == "constant_pc":
            # Positive definiteness of (1-rho) I + rho 11'.
            if not (1.0 + (self.p - 1) * rho > 0.0 and rho < 1.0):
                raise ConfigurationError(
                    f"constant partial correlation rho={rho} is not positive "
                    f"definite at p={self.p}"
                )


def precision_matrix(spec: DesignSpec) -> np.ndarray:
    """The precision matrix the rows are drawn against."""
    p = spec.p
    if spec.structure == "identity":
        return np.eye(p)
    if spec.structure == "toeplitz_pc":
        idx = np.arange(p)
        return spec.rho ** np.abs(idx[:, None] - idx[None, :])
    omega = np.full((p, p), spec.rho)
    np.fill_diagonal(omega, 1.0)
    return omega


def sample_design(spec: DesignSpec, rng: RngSeed = RngSeed(0)) -> np.ndarray:
    """Draw an (n, p) design whose rows have the requested precision."""
    gen = rng.generator()
    z = gen.standard_normal((spec.n, spec.p))
    if spec.structure == "identity":
        return z
    omega = precision_matrix(spec)
    try:
        chol = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"precision matrix is not positive definite: {err}") from err
    # rows ~ N(0, omega^{-1}): solve chol' x' = z'.
    return solve_triangular(chol, z.T, trans="T", lower=True).T


def default_coef_sd(n: int, p: int) -> float:
    """Default coefficient scale, growing with log(p)/n."""
    if p < 2:
        raise ConfigurationError("default coefficient scale needs p >= 2")
    return 20.0 * math.sqrt(math.log(p) / n)


@dataclass(frozen=True)
class ModelSpec:
    """Response model: linear or single-index with a named link.

    ``support=None`` draws ``k_signals`` indices uniformly without
    replacement; a given support overrides the count.  ``k_signals=0``
    (or an empty support) is the null model: the response is pure noise.
    ``coef_sd=None`` resolves to ``default_coef_sd(n, p)`` when the
    response is sampled.
    """

    kind: str = "linear"
    link: str | None = None
    k_signals: int = 10
    coef_sd: float | None = None
    noise_sd: float = 1.0
    support: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "single_index"):
            raise ConfigurationError(
                f"unknown model kind {self.kind!r}; expected linear or single_index"
            )
        if self.kind == "single_index":
            if self.link not in LINKS:
                raise ConfigurationError(
                    f"single_index models need a link in {sorted(LINKS)}, got {self.link!r}"
                )
        elif self.link is not None:
            raise ConfigurationError("linear models take no link")
        if self.support is not None:
            support = tuple(sorted(int(j) for j in self.support))
            if len(set(support)) != len(support):
                raise ConfigurationError("support indices must be distinct")
            object.__setattr__(self, "support", support)
            object.__setattr__(self, "k_signals", len(support))
        if self.k_signals < 0:
            raise ConfigurationError(
                f"k_signals must be nonnegative, got {self.k_signals}"
            )
        if self.coef_sd is not None and not float(self.coef_sd) > 0:
            raise ConfigurationError(f"coef_sd must be positive, got {self.coef_sd}")
        if float(self.noise_sd) < 0:
            raise ConfigurationError(f"noise_sd must be nonnegative, got {self.noise_sd}")


@dataclass(frozen=True)
class ResponseSample:
    """Response vector with the ground truth that generated it."""

    y: np.ndarray
    truth: frozenset[int]
    beta: np.ndarray


def sample_response(
    x: np.ndarray, model: ModelSpec, rng: RngSeed = RngSeed(0)
) -> ResponseSample:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidDataError(f"design must be 2-d, got {x.ndim}-d")
    n, p = x.shape
    if model.k_signals > p:
        raise ConfigurationError(f"k_signals={model.k_signals} exceeds p={p}")
    gen = rng.generator()
    if model.support is not None:
        if any(not 0 <= j < p for j in model.support):
            raise ConfigurationError(f"support indices out of range for p={p}")
        support = model.support
    else:
        support = tuple(
            sorted(int(j) for j in gen.choice(p, size=model.k_signals, replace=False))
        )
    coef_sd = model.coef_sd if model.coef_sd is not None else default_coef_sd(n, p)
    beta = np.zeros(p)
    beta[list(support)] = gen.normal(0.0, coef_sd, size=len(support))
    eta = x @ beta
    mean = eta if model.kind == "linear" else LINKS[model.link](eta)
    y = mean + model.noise_sd * gen.standard_normal(n)
    return ResponseSample(y, frozenset(support), beta)


@dataclass(frozen=True)
class Metrics:
    """Confusion-style summary of one selection against the truth."""

    fdp: float
    power: float
    fpr: float
    selected_count: int


def evaluate(selected, truth, p: int) -> Metrics:
    """Score a selected set against the true support.

    With an empty truth, power is vacuously 1 and fdp is 1 exactly when
    anything was selected.
    """
    selected = {int(j) for j in selected}
    truth = {int(j) for j in truth}
    for label, idx in (("selected", selected), ("truth", truth)):
        bad = [j for j in idx if not 0 <= j < p]
        if bad:
            raise InvalidDataError(f"{label} indices out of range: {sorted(bad)}")
    tp = len(selected & truth)
    fp = len(selected - truth)
    fn = len(truth - selected)
    tn = p - tp - fp - fn
    fdp = fp / max(len(selected), 1)
    power = tp / len(truth) if truth else 1.0
    fpr = fp / max(fp + tn, 1)
    return Metrics(fdp, power, fpr, len(selected))


@dataclass(frozen=True)
class RocCurve:
    """Sweep of (fpr, tpr) points over score thresholds, with its area."""

    points: tuple[tuple[float, float], ...]
    auc: float


def roc_curve(scores, truth) -> RocCurve:
    """Threshold sweep of ``scores`` against the true support.

    The truth must be a nonempty proper subset of the features so both
    rates are well defined.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1:
        raise InvalidDataError("scores must be 1-d")
    if not np.all(np.isfinite(scores)):
        raise InvalidDataError("scores contain non-finite values")
    p = scores.shape[0]
    truth = {int(j) for j in truth}
    if any(not 0 <= j < p for j in truth):
        raise InvalidDataError("truth indices out of range")
    if not 0 < len(truth) < p:
        raise InvalidDataError(
            "truth must be a nonempty proper subset of the features"
        )
    is_true = np.zeros(p, dtype=bool)
    is_true[list(truth)] = True
    n_pos = int(is_true.sum())
    n_neg = p - n_pos
    points = [(0.0, 0.0)]
    for t in np.unique(scores)[::-1]:
        sel = scores >= t
        fpr = float((sel & ~is_true).sum()) / n_neg
        tpr = float((sel & is_true).sum()) / n_pos
        if (fpr, tpr) != points[-1]:
            points.append((fpr, tpr))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    fprs = np.array([f for f, _ in points])
    tprs = np.array([t for _, t in points])
    auc = float(np.trapezoid(tprs, fprs))
    return RocCurve(tuple(points), auc)


@dataclass(frozen=True)
class RepRecord:
    """One benchmark repetition.  ``runtime_ms`` is the wall time of the
    rep's chunk (data draws, the stacked pipeline) shared equally among
    the chunk's reps."""

    rep: int
    seed_label: str
    fdp: float
    power: float
    fpr: float
    threshold: float | None
    n_selected: int
    runtime_ms: float


@dataclass(frozen=True)
class BenchmarkResult:
    method: str
    q: float
    reps: int
    rows: tuple[RepRecord, ...]
    failures: tuple[tuple[int, str], ...]
    mean_fdp: float
    se_fdp: float
    mean_power: float
    se_power: float
    mean_fpr: float


def _mean_se(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return float("nan"), float("nan")
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def _chunks(reps: int, threads: int, rep_bytes: int) -> list[range]:
    """Rep indices cut into consecutive chunks of near-equal size, one
    per worker per round, with as few rounds as keep each chunk's
    ``rep_bytes`` per rep within the training group budget.  Chunk sizes
    therefore do not grow with ``reps``."""
    cap = max(1, _GROUP_BYTES // rep_bytes)
    count = threads * -(-reps // (threads * cap))
    size = -(-reps // count)
    return [range(start, min(start + size, reps)) for start in range(0, reps, size)]


def _run_chunk(
    reps: range,
    design: DesignSpec,
    model: ModelSpec,
    method: str,
    q: float,
    rng: RngSeed,
    spec: KernelSpec,
    net: NetConfig,
    screen_opts: ScreenOptions | None,
):
    """Draw each rep's data under its own seeds, then select on all of
    them with one pipeline call.  Returns (rep, record, error) per rep."""
    start = time.perf_counter()
    rep_rngs = [rng.child(rep) for rep in reps]
    datasets = []
    for rep_rng in rep_rngs:
        try:
            x = sample_design(design, rep_rng.child(0))
            sample = sample_response(x, model, rep_rng.child(1))
            datasets.append(Dataset(x, sample.y, truth=sample.truth))
        except MirrorSelectError as err:
            datasets.append(err)
    sel_rngs = [rep_rng.child(2) for rep_rng in rep_rngs]
    opts = screen_opts if method.startswith("s_") else None
    results = _run(method.removeprefix("s_"), datasets, q, spec, net, sel_rngs, opts)
    runtime_ms = (time.perf_counter() - start) * 1000.0 / len(reps)
    outcomes = []
    for rep, sel_rng, dataset, result in zip(reps, sel_rngs, datasets, results):
        if isinstance(result, MirrorSelectError):
            outcomes.append((rep, None, f"{type(result).__name__}: {result}"))
            continue
        metrics = evaluate(result.selected, dataset.truth, design.p)
        record = RepRecord(
            rep=rep,
            seed_label=f"{sel_rng.seed}:{sel_rng.stream}",
            fdp=metrics.fdp,
            power=metrics.power,
            fpr=metrics.fpr,
            threshold=result.threshold,
            n_selected=metrics.selected_count,
            runtime_ms=runtime_ms,
        )
        outcomes.append((rep, record, None))
    return outcomes


def run_benchmark(
    design: DesignSpec,
    model: ModelSpec,
    method: str = "sngm",
    q: float = 0.1,
    reps: int = 20,
    rng: RngSeed = RngSeed(0),
    spec: KernelSpec = KernelSpec("linear"),
    net: NetConfig = NetConfig(),
    screen_opts: ScreenOptions | None = None,
    threads: int = 1,
) -> BenchmarkResult:
    """Repeat draw-fit-select-score ``reps`` times and aggregate.

    Every repetition derives its own seeds from ``rng`` and its index.
    The reps are cut into chunks (about one per worker, capped so a
    chunk's designs fit the training memory budget), and each chunk's
    reps go through the selection pipeline together, their nets fitted
    stacked; ``parallel_map`` spreads the chunks over ``threads``
    processes.  Each rep's record equals that of selecting on its data
    alone, so results do not depend on ``threads``, on the chunking or
    on execution order; only ``runtime_ms`` does.  A rep that fails is
    listed in ``failures`` and leaves the other reps unchanged.  For the
    screening methods, ``screen_opts=None`` enables screening with
    defaults.
    """
    if method not in METHODS:
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )
    if reps < 1:
        raise ConfigurationError(f"reps must be positive, got {reps}")
    q = _check_q(q)
    # Mirroring needs three rows; screening splits off a third of six.
    min_rows = 6 if method.startswith("s_") else 3
    if design.n < min_rows:
        raise ConfigurationError(
            f"{method} needs at least {min_rows} rows, got n={design.n}"
        )
    if method.startswith("s_"):
        if screen_opts is None:
            screen_opts = ScreenOptions()
        if screen_opts.m_keep is not None and screen_opts.m_keep > design.p:
            raise ConfigurationError(
                f"m_keep must lie in [1, {design.p}], got {screen_opts.m_keep}"
            )
    worker = functools.partial(
        _run_chunk,
        design=design,
        model=model,
        method=method,
        q=q,
        rng=rng,
        spec=spec,
        net=net,
        screen_opts=screen_opts,
    )
    # a rep's drawn data is n x (p + 1) float64 values
    chunks = _chunks(reps, threads, 8 * design.n * (design.p + 1))
    rows = []
    failures = []
    for rep, record, error in chain.from_iterable(parallel_map(worker, chunks, threads)):
        if record is not None:
            rows.append(record)
        else:
            failures.append((rep, error))
    mean_fdp, se_fdp = _mean_se([r.fdp for r in rows])
    mean_power, se_power = _mean_se([r.power for r in rows])
    mean_fpr, _ = _mean_se([r.fpr for r in rows])
    return BenchmarkResult(
        method=method,
        q=q,
        reps=reps,
        rows=tuple(rows),
        failures=tuple(failures),
        mean_fdp=mean_fdp,
        se_fdp=se_fdp,
        mean_power=mean_power,
        se_power=se_power,
        mean_fpr=mean_fpr,
    )
