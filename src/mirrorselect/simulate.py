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

from ._parallel import parallel_map
from .dataset import Dataset
from .errors import (
    ConfigurationError, InvalidDataError, MirrorSelectError, NumericalError,
    _check_choice, _check_integer, _check_number, _check_type, _set_fields,
)
from .kernelmeasure import KernelSpec
from .neuralnet import _GROUP_BYTES, NetConfig
from .rng import RngSeed

# ``run_sngm`` and ``run_ingm`` are not called here; they stay names of
# this module because perfbench's tracer patches them here.
from .selection import ScreenOptions, _run, run_ingm, run_sngm  # noqa: F401

_STRUCTURES = ("identity", "toeplitz_pc", "constant_pc")

LINKS = {
    "f1": lambda t: t + np.sin(t),
    "f2": lambda t: 0.5 * t**3,
    "f3": lambda t: 0.1 * t**5,
}

METHODS = ("ingm", "sngm", "s_ingm", "s_sngm")

MODEL_KINDS = ("linear", "single_index")


@dataclass(frozen=True)
class DesignSpec:
    """Row count, feature count and precision structure of the design,
    stored as int, int, str and float (``rho``)."""

    n: int
    p: int
    structure: str = "identity"
    rho: float = 0.0

    def __post_init__(self):
        _set_fields(
            self,
            n=_check_integer(self.n, "n", 1),
            p=_check_integer(self.p, "p", 1),
            structure=_check_choice(self.structure, "structure", _STRUCTURES),
            rho=_check_number(self.rho, "rho"),
        )
        rho = self.rho
        if self.structure == "toeplitz_pc":
            _check_number(rho, "toeplitz rho", -1, 1, strict=True)
        # Positive definiteness of (1-rho) I + rho 11'.
        if self.structure == "constant_pc" and not (1.0 + (self.p - 1) * rho > 0.0 and rho < 1.0):
            raise ConfigurationError(
                f"constant partial correlation rho={rho} is not positive "
                f"definite at p={self.p}"
            )


def precision_matrix(spec: DesignSpec) -> np.ndarray:
    """The precision matrix the rows are drawn against."""
    p = _check_type(spec, "spec", DesignSpec).p
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
    spec = _check_type(spec, "spec", DesignSpec)
    gen = _check_type(rng, "rng", RngSeed).generator()
    z = gen.standard_normal((spec.n, spec.p))
    if spec.structure == "identity":
        return z
    omega = precision_matrix(spec)
    try:
        chol = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"precision matrix is not positive definite: {err}") from err
    # rows ~ N(0, omega^{-1}): solve chol' x' = z'.  chol' is upper
    # triangular, so the LU solve makes no pivots; C order keeps the
    # rounding of later products such as x @ beta.
    return np.ascontiguousarray(np.linalg.solve(chol.T, z.T).T)


def default_coef_sd(n: int, p: int) -> float:
    """Default coefficient scale, growing with log(p)/n."""
    if p < 2:
        raise ConfigurationError("default coefficient scale needs p >= 2")
    return 20.0 * math.sqrt(math.log(p) / n)


@dataclass(frozen=True)
class ModelSpec:
    """Response model: linear or single-index with a named link.

    Sampling a response draws its support, ``k_signals`` indices chosen
    uniformly without replacement (0: pure noise), and resolves
    ``coef_sd=None`` to ``default_coef_sd(n, p)``.  Scales are kept as float.
    """

    kind: str = "linear"
    link: str | None = None
    k_signals: int = 10
    coef_sd: float | None = None
    noise_sd: float = 1.0

    def __post_init__(self):
        sd = self.coef_sd
        _set_fields(
            self,
            kind=_check_choice(self.kind, "model kind", MODEL_KINDS),
            link=self.link if self.kind == "linear" else _check_choice(self.link, "link", LINKS),
            k_signals=_check_integer(self.k_signals, "k_signals", 0),
            coef_sd=None if sd is None else _check_number(sd, "coef_sd", 0, strict=True),
            noise_sd=_check_number(self.noise_sd, "noise_sd", 0),
        )
        if self.kind == "linear" and self.link is not None:
            raise ConfigurationError("linear models take no link")


@dataclass(frozen=True)
class ResponseSample:
    """Response vector with the ground truth that generated it."""

    y: np.ndarray
    truth: frozenset[int]
    beta: np.ndarray


def _check_model(model: ModelSpec, p: int) -> None:
    """Raise ConfigurationError if ``model`` cannot be drawn over p features."""
    if model.k_signals > p:
        raise ConfigurationError(f"k_signals={model.k_signals} exceeds p={p}")
    if model.coef_sd is None and p < 2:
        raise ConfigurationError("default coefficient scale needs p >= 2")


def sample_response(
    x: np.ndarray, model: ModelSpec, rng: RngSeed = RngSeed(0)
) -> ResponseSample:
    model = _check_type(model, "model", ModelSpec)
    rng = _check_type(rng, "rng", RngSeed)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidDataError(f"design must be 2-d, got {x.ndim}-d")
    n, p = x.shape
    _check_model(model, p)
    gen = rng.generator()
    support = sorted(gen.choice(p, size=model.k_signals, replace=False).tolist())
    coef_sd = model.coef_sd if model.coef_sd is not None else default_coef_sd(n, p)
    beta = np.zeros(p)
    beta[support] = gen.normal(0.0, coef_sd, size=len(support))
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

    Each distinct score, from the highest down, selects the features
    scoring at or above it; the curve runs from (0, 0) through those
    selections, tallied from one sort, and its area is the trapezoid sum.
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
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    # selection counts at the end of each tie group, i.e. per threshold
    ends = np.flatnonzero(np.r_[ranked[1:] != ranked[:-1], True])
    tp = np.r_[0, np.cumsum(is_true[order])[ends]]
    fp = np.r_[0, ends + 1] - tp
    fpr = fp / (p - len(truth))
    tpr = tp / len(truth)
    auc = float((np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0).sum())
    return RocCurve(tuple(zip(fpr.tolist(), tpr.tolist())), auc)


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
    them with one ``_run`` call.  Returns (rep, record, error) per rep."""
    start = time.perf_counter()
    rep_rngs = [rng.child(rep) for rep in reps]
    datasets = []
    truths = []
    for rep_rng in rep_rngs:
        try:
            x = sample_design(design, rep_rng.child(0))
            sample = sample_response(x, model, rep_rng.child(1))
            datasets.append(Dataset(x, sample.y))
            truths.append(sample.truth)
        except MirrorSelectError as err:
            datasets.append(err)
            truths.append(None)
    sel_rngs = [rep_rng.child(2) for rep_rng in rep_rngs]
    results = _run(method, datasets, q, spec, net, sel_rngs, screen_opts)
    runtime_ms = (time.perf_counter() - start) * 1000.0 / len(reps)
    outcomes = []
    for rep, sel_rng, truth, result in zip(reps, sel_rngs, truths, results):
        if isinstance(result, MirrorSelectError):
            outcomes.append((rep, None, f"{type(result).__name__}: {result}"))
            continue
        metrics = evaluate(result.selected, truth, design.p)
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
    defaults; the other methods take no ``screen_opts``.
    """
    method = _check_choice(method, "method", METHODS)
    reps = _check_integer(reps, "reps", 1)
    threads = _check_integer(threads, "threads", 1)
    q = _check_number(q, "q", 0, 1, strict=True)
    design = _check_type(design, "design", DesignSpec)
    model = _check_type(model, "model", ModelSpec)
    rng = _check_type(rng, "rng", RngSeed)
    spec = _check_type(spec, "spec", KernelSpec)
    net = _check_type(net, "net", NetConfig)
    _check_model(model, design.p)
    # Mirroring needs three rows; screening splits off a third of six.
    min_rows = 6 if method.startswith("s_") else 3
    if design.n < min_rows:
        raise ConfigurationError(
            f"{method} needs at least {min_rows} rows, got n={design.n}"
        )
    if method.startswith("s_"):
        if screen_opts is None:
            screen_opts = ScreenOptions()
        _check_type(screen_opts, "screen_opts", ScreenOptions)
        if screen_opts.m_keep is not None:
            _check_integer(screen_opts.m_keep, "m_keep", 1, design.p + 1)
    elif screen_opts is not None:
        raise ConfigurationError(
            "screen_opts only applies to the screening methods (s_ingm, s_sngm)"
        )
    worker = functools.partial(
        _run_chunk,
        design=design,
        model=model,
        method=method.removeprefix("s_"),
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
