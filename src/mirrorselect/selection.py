"""Mirror statistics, the data-adaptive threshold, feature screening and
the end-to-end selection pipeline.

The per-feature statistic is

    M_j = |L_j+ + L_j-| - |L_j+ - L_j-|

where L_j+/- are the importances of the two mirrored halves.  M_j is
large and positive only when both halves matter with the same sign; null
features get a sign-symmetric M_j.  That symmetry turns the running tally

    FDP(t) = #{j: M_j <= -t} / max(#{j: M_j >= t}, 1)

into a conservative estimate of the false discovery proportion among
{M_j >= t}, and the selection threshold is the smallest candidate t with
FDP(t) <= q.

Two methods are provided: one network over all mirrored pairs at once
(joint), and one small network per feature with only that feature
mirrored (individual).  Both run through one pipeline and differ only in
how the mirrored pairs are scored.  Optional screening first drops weak
features using a network, configured like the selection net, trained on
a held-out third of the rows.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import (
    ConfigurationError, InvalidDataError, MirrorSelectError, TrainingError,
    _check_integer, _check_number, _check_type,
)
from .kernelmeasure import KernelSpec
from .mirror import make_all_mirrors
from .neuralnet import NetConfig, path_importance, train, train_many
from .rng import RngSeed

_STREAM_SCREEN = 1
_STREAM_MIRROR = 2
_STREAM_TRAIN = 3

# An individual-net run aborts when more than this fraction of features
# fail to train.
_MAX_FAILURE_FRACTION = 0.1


def mirror_statistic(l_plus, l_minus):
    """Signed evidence that both halves of a mirrored pair matter,
    elementwise over same-shape importances (floats or arrays)."""
    lp = np.asarray(l_plus, dtype=float)
    lm = np.asarray(l_minus, dtype=float)
    if not (np.isfinite(lp).all() and np.isfinite(lm).all()):
        raise InvalidDataError("importances must be finite")
    return np.abs(lp + lm) - np.abs(lp - lm)


def estimate_fdp(m, t: float) -> float:
    """Running false-discovery tally at threshold ``t`` (> 0)."""
    t = _check_number(t, "threshold", 0, strict=True)
    m = np.asarray(m, dtype=float)
    numerator = int(np.sum(m <= -t))
    denominator = max(int(np.sum(m >= t)), 1)
    return numerator / denominator


def threshold_candidates(m) -> np.ndarray:
    """Ascending unique magnitudes of the nonzero statistics."""
    m = np.asarray(m, dtype=float)
    return np.unique(np.abs(m[m != 0.0]))


def adaptive_threshold(m, q: float) -> float | None:
    """Smallest candidate threshold with estimated FDP at most ``q``.

    Returns None when no candidate qualifies (nothing is selected).
    """
    q = _check_number(q, "q", 0, 1, strict=True)
    return next((t for t, fdp in fdp_curve(m) if fdp <= q), None)


def fdp_curve(m) -> tuple[tuple[float, float], ...]:
    """(threshold, estimated FDP) at every candidate, tallied from one sort."""
    m = np.sort(np.asarray(m, dtype=float))
    if np.isnan(m).any():
        raise InvalidDataError("statistics must not be NaN")
    t = threshold_candidates(m)
    below = np.searchsorted(m, -t, side="right")  # #{m <= -t}
    above = m.size - np.searchsorted(m, t)  # #{m >= t}
    return tuple(zip(t.tolist(), (below / np.maximum(above, 1)).tolist()))


@dataclass(frozen=True)
class MirrorStats:
    """Full-length statistic vectors (zeros for features never scored)."""

    m: np.ndarray
    importance_plus: np.ndarray
    importance_minus: np.ndarray


@dataclass(frozen=True)
class ScreenResult:
    """Outcome of the pre-selection screening stage."""

    kept: tuple[int, ...]
    importances: np.ndarray
    split_rows: np.ndarray


@dataclass(frozen=True)
class ScreenOptions:
    """How many features screening keeps (None: ``default_m_keep``).
    The screening net uses the selection net's configuration."""

    m_keep: int | None = None

    def __post_init__(self):
        if self.m_keep is not None:
            object.__setattr__(self, "m_keep", _check_integer(self.m_keep, "m_keep", 1))


@dataclass(frozen=True)
class SelectionResult:
    """Everything a selection run produced."""

    method: str
    q: float
    threshold: float | None
    selected: frozenset[int]
    stats: MirrorStats
    c_values: np.ndarray
    names: tuple[str, ...]
    constant: np.ndarray
    screened_out: np.ndarray
    failure_reasons: dict[int, str]
    curve: tuple[tuple[float, float], ...]
    seed: RngSeed
    screen: ScreenResult | None
    elapsed_s: float

    def to_json_dict(self) -> dict:
        """JSON-ready record; each feature's ``failure_reason`` is the
        message of its training error, or None when it trained."""
        features = []
        for j, name in enumerate(self.names):
            features.append(
                {
                    "index": j,
                    "name": name,
                    "m": float(self.stats.m[j]),
                    "l_plus": float(self.stats.importance_plus[j]),
                    "l_minus": float(self.stats.importance_minus[j]),
                    "c": float(self.c_values[j]),
                    "selected": j in self.selected,
                    "constant": bool(self.constant[j]),
                    "screened_out": bool(self.screened_out[j]),
                    "failed": j in self.failure_reasons,
                    "failure_reason": self.failure_reasons.get(j),
                }
            )
        return {
            "schema": "mirrorselect/selection/v1",
            "method": self.method,
            "q": self.q,
            "seed": {"seed": self.seed.seed, "stream": self.seed.stream},
            "threshold": self.threshold,
            "n_selected": len(self.selected),
            "selected": sorted(self.selected),
            "selected_names": [self.names[j] for j in sorted(self.selected)],
            "features": features,
            "fdp_curve": [[t, f] for t, f in self.curve],
            "timing": {"total_s": self.elapsed_s},
        }


def default_m_keep(n: int, p: int) -> int:
    """How many features screening keeps by default."""
    return max(1, min(n // 2, p))



class _Fits(NamedTuple):
    """The nets one dataset asks for at a stage: ``designs`` yields one
    matrix of ``shape`` per seed, each fitted to ``targets``."""

    shape: tuple[int, int]
    designs: Iterable
    targets: np.ndarray
    seeds: list[RngSeed]
    pairs: list


def _fit_each(requests, config: NetConfig) -> list:
    """Fit every request's nets with one ``train_many`` call per design
    shape, so nets of different datasets train stacked.  Returns, per
    request, its nets' TrainedNet or TrainingError entries; each net is
    bitwise its lone fit."""
    out = [None] * len(requests)
    by_shape = {}
    for i, request in enumerate(requests):
        by_shape.setdefault(request.shape, []).append(i)
    for (n, _), members in by_shape.items():
        group = [requests[i] for i in members]
        counts = [len(request.seeds) for request in group]
        designs = chain.from_iterable(request.designs for request in group)
        seeds = [seed for request in group for seed in request.seeds]
        pairs = [pair for request in group for pair in request.pairs]
        config_n = replace(config, batch_size=min(config.batch_size, n))
        if len(seeds) == 1:
            # A lone net goes through ``train``, train_many's one-net
            # case, so a traced one-dataset run shows it as a train span.
            try:
                nets = [train(next(designs), group[0].targets, config_n, pairs[0], seeds[0])]
            except TrainingError as err:
                nets = [err]
        else:
            targets = (
                group[0].targets
                if len(group) == 1
                else np.repeat([request.targets for request in group], counts, axis=0)
            )
            nets = train_many(designs, targets, config_n, seeds, pairs)
        for i, start, count in zip(members, accumulate([0, *counts]), counts):
            out[i] = nets[start : start + count]
    return out


def _drive(steps, config: NetConfig) -> list:
    """Run per-dataset pipelines in lockstep.  Each step generator yields
    a _Fits whenever it needs nets; every round, the requests of all
    live generators are fitted together (``_fit_each``) and each is sent
    its own nets.  Returns, per generator, its return value or the
    MirrorSelectError it raised; a slot that holds an error already
    passes through."""
    outcomes = list(steps)
    sends = {i: None for i, s in enumerate(steps) if not isinstance(s, MirrorSelectError)}
    while sends:
        requests = {}
        for i, nets in sends.items():
            try:
                requests[i] = steps[i].send(nets)
            except StopIteration as done:
                outcomes[i] = done.value
            except MirrorSelectError as err:
                outcomes[i] = err
        sends = dict(zip(requests, _fit_each(list(requests.values()), config)))
    return outcomes


def _one(outcomes):
    """The outcome of a one-dataset run, raised if it is an error."""
    (outcome,) = outcomes
    if isinstance(outcome, MirrorSelectError):
        raise outcome
    return outcome


def _screen_steps(dataset: Dataset, m_keep, rng: RngSeed):
    """``screen`` as a step generator: it yields its one fit."""
    n, p = dataset.n, dataset.p
    if n < 6:
        raise InvalidDataError(f"screening needs at least 6 rows, got {n}")
    if m_keep is None:
        m_keep = default_m_keep(n, p)
    m_keep = _check_integer(m_keep, "m_keep", 1, p + 1)
    n_split = n // 3
    split_rows = np.sort(
        rng.child(0).generator().choice(n, size=n_split, replace=False)
    )
    sub = dataset.take_rows(split_rows)
    (net,) = yield _Fits(sub.x.shape, [sub.x], sub.y, [rng.child(1)], [None])
    if isinstance(net, TrainingError):
        raise net
    importances = path_importance(net)
    order = np.argsort(-np.abs(importances), kind="stable")
    kept = tuple(sorted(int(j) for j in order[:m_keep]))
    return ScreenResult(kept, importances, split_rows)


def screen(
    dataset: Dataset,
    config: NetConfig = NetConfig(),
    m_keep: int | None = None,
    rng: RngSeed = RngSeed(0),
) -> ScreenResult:
    """Rank features with a network fit on a random third of the rows and
    keep the ``m_keep`` largest path importances (by magnitude).

    The split rows must not be reused downstream; callers fit the
    selection stage on the complement.
    """
    dataset = _check_type(dataset, "dataset", Dataset, InvalidDataError)
    config = _check_type(config, "config", NetConfig)
    return _one(_drive([_screen_steps(dataset, m_keep, _check_type(rng, "rng", RngSeed))], config))


def _score_joint(mirrors, working, rng):
    """One network on all 2m interleaved half-columns; a training failure
    aborts the run."""
    inputs = np.column_stack(
        [half for pair in mirrors for half in (pair.x_plus, pair.x_minus)]
    )
    paired = [(2 * i, 2 * i + 1) for i in range(len(mirrors))]
    (trained,) = yield _Fits(inputs.shape, [inputs], working.y, [rng], [paired])
    if isinstance(trained, TrainingError):
        raise trained
    importances = path_importance(trained)
    return importances[0::2], importances[1::2], {}


def _score_individual(mirrors, working, rng):
    """One network per feature, with only that feature's pair in place of
    its column; the designs are built as they are trained.  Failed nets
    are returned by position, with importances 0 (so their statistic is
    0)."""
    designs = (
        np.column_stack(
            [working.x[:, :i], pair.x_plus, pair.x_minus, working.x[:, i + 1 :]]
        )
        for i, pair in enumerate(mirrors)
    )
    nets = yield _Fits(
        (working.n, working.p + 1),
        designs,
        working.y,
        [rng.named_child(pair.name) for pair in mirrors],
        [[(i, i + 1)] for i in range(len(mirrors))],
    )
    l_plus = np.zeros(len(mirrors))
    l_minus = np.zeros(len(mirrors))
    failures = {}
    for i, trained in enumerate(nets):
        if isinstance(trained, TrainingError):
            failures[i] = trained
            continue
        importances = path_importance(trained)
        l_plus[i] = importances[i]
        l_minus[i] = importances[i + 1]
    return l_plus, l_minus, failures


_SCORERS = {"sngm": _score_joint, "ingm": _score_individual}


def _select_steps(method, score, dataset, q, spec, rng, screen_opts):
    """One dataset's way through the pipeline, as a step generator: drop
    constant columns, optionally screen, mirror, score the pairs with
    ``score``, threshold.  Returns its SelectionResult."""
    p = dataset.p
    constant = dataset.constant_columns()
    active = np.flatnonzero(~constant)
    if not active.size:
        raise InvalidDataError("every column is constant; nothing to select from")
    working = dataset.standardized().select_columns(active)

    screen_result = None
    screened_out = np.zeros(p, dtype=bool)
    if screen_opts is not None:
        method = "s_" + method
        screen_result = yield from _screen_steps(
            working, screen_opts.m_keep, rng.child(_STREAM_SCREEN)
        )
        kept = list(screen_result.kept)
        screened_out[np.delete(active, kept)] = True
        rows = np.setdiff1d(np.arange(working.n), screen_result.split_rows)
        working = working.take_rows(rows).select_columns(kept)
        active = active[kept]

    mirrors = make_all_mirrors(working, spec, rng.child(_STREAM_MIRROR))
    l_plus_active, l_minus_active, failures = yield from score(
        mirrors, working, rng.child(_STREAM_TRAIN)
    )
    failure_reasons = {}
    for i, err in failures.items():
        err.feature_index = int(active[i])
        failure_reasons[err.feature_index] = str(err)
    if len(failure_reasons) > _MAX_FAILURE_FRACTION * len(mirrors):
        lines = [f"{dataset.names[j]}: {why}" for j, why in failure_reasons.items()]
        raise TrainingError(
            f"{len(lines)} of {len(mirrors)} per-feature networks failed "
            f"to train: " + "; ".join(lines[:5]),
            feature_index=next(iter(failure_reasons)),
        )

    l_plus = np.zeros(p)
    l_minus = np.zeros(p)
    c_values = np.zeros(p)
    l_plus[active] = l_plus_active
    l_minus[active] = l_minus_active
    c_values[active] = [pair.c for pair in mirrors]
    m = mirror_statistic(l_plus, l_minus)
    threshold = adaptive_threshold(m, q)
    if threshold is None:
        selected = frozenset()
    else:
        selected = frozenset(int(j) for j in np.flatnonzero(m >= threshold))
    return SelectionResult(
        method=method,
        q=q,
        threshold=threshold,
        selected=selected,
        stats=MirrorStats(m, l_plus, l_minus),
        c_values=c_values,
        names=dataset.names,
        constant=constant,
        screened_out=screened_out,
        failure_reasons=failure_reasons,
        curve=fdp_curve(m),
        seed=rng,
        screen=screen_result,
        elapsed_s=0.0,
    )


def _run(method, datasets, q, spec, net, rngs, screen_opts) -> list:
    """The one selection pipeline, over a list of datasets with one seed
    stream each, by ``method`` ("sngm" or "ingm").

    Each dataset goes through ``_select_steps`` alone, except that every
    stage's fits of all datasets still running are made together, one
    ``train_many`` call per design shape.  Returns, per dataset, the
    SelectionResult or the MirrorSelectError that running it alone
    gives, bitwise: no dataset's result depends on the others.  A
    dataset that fails drops out of the later stages, and a slot that
    already holds an error passes through.  Each result's ``elapsed_s``
    is the call's wall time shared equally among the datasets.
    """
    t0 = time.perf_counter()
    q = _check_number(q, "q", 0, 1, strict=True)
    spec = _check_type(spec, "spec", KernelSpec)
    net = _check_type(net, "net", NetConfig)
    if screen_opts is not None:
        _check_type(screen_opts, "screen_opts", ScreenOptions)
    score = _SCORERS[method]
    steps = [
        d
        if isinstance(d, MirrorSelectError)
        else _select_steps(
            method, score, _check_type(d, "dataset", Dataset, InvalidDataError),
            q, spec, _check_type(rng, "rng", RngSeed), screen_opts,
        )
        for d, rng in zip(datasets, rngs, strict=True)
    ]
    results = _drive(steps, net)
    share = (time.perf_counter() - t0) / max(len(results), 1)
    return [
        replace(r, elapsed_s=share) if isinstance(r, SelectionResult) else r
        for r in results
    ]


def run_sngm(
    dataset: Dataset,
    q: float = 0.1,
    spec: KernelSpec = KernelSpec("linear"),
    net: NetConfig = NetConfig(),
    rng: RngSeed = RngSeed(0),
    screen_opts: ScreenOptions | None = None,
) -> SelectionResult:
    """Joint pipeline: mirror every feature, then fit one network on all
    2m interleaved half-columns and read both importances per feature
    from its input layer.  A training failure aborts the run."""
    return _one(_run("sngm", [dataset], q, spec, net, [rng], screen_opts))


def run_ingm(
    dataset: Dataset,
    q: float = 0.1,
    spec: KernelSpec = KernelSpec("linear"),
    net: NetConfig = NetConfig(),
    rng: RngSeed = RngSeed(0),
    screen_opts: ScreenOptions | None = None,
) -> SelectionResult:
    """Individual pipeline: one network per feature, with only that
    feature's pair inserted in place of its column.

    A feature whose network fails to train is recorded and scored zero;
    the whole run aborts if more than a tenth of the features fail."""
    return _one(_run("ingm", [dataset], q, spec, net, [rng], screen_opts))
