"""Which mirrorselect names the traced run wraps, and the per-layer
metrics it derives from the recorded spans and counters.

Each name is patched in the module that looks it up at call time, so
``selection.train`` covers both the selection net and the screening
net, and ``mirror.minimize_c`` covers the per-feature c-search.  Span
and metric names use the defining module (``train`` is
``neuralnet.train`` wherever it is called from).
"""

from __future__ import annotations

import math

import numpy as np

from mirrorselect import cli, kernelmeasure, mirror, selection, simulate

from .spans import Patcher, SpanRecorder, traced

# (module, attribute names) patched at their lookup site.
_SITES = (
    (selection, ("make_all_mirrors", "train", "path_importance", "adaptive_threshold",
                 "fdp_curve", "estimate_fdp", "screen", "run_sngm", "run_ingm")),
    (mirror, ("minimize_c",)),
    (kernelmeasure, ("gram_matrix", "conditional_dependence", "median_heuristic_bandwidth")),
    (cli, ("main", "load_csv", "write_json", "write_benchmark_csv", "run_benchmark")),
    (simulate, ("run_sngm", "run_ingm", "sample_design", "sample_response", "parallel_map")),
)

# Span statistics reported per operation: summed busy seconds (s), span
# time minus the union of child spans (self_s) and call counts (calls).
_SPAN_STATS = (
    ("neuralnet.train", ("s", "calls")),
    ("neuralnet.path_importance", ("s",)),
    ("selection.run_ingm", ("s", "self_s")),
    ("selection.run_sngm", ("s", "self_s")),
    ("kernelmeasure.minimize_c", ("s", "self_s", "calls")),
    ("kernelmeasure.gram_matrix", ("s", "calls")),
    ("kernelmeasure.conditional_dependence", ("s", "calls")),
    ("kernelmeasure.median_heuristic_bandwidth", ("s",)),
    ("mirror.make_all_mirrors", ("s", "self_s")),
    ("io.load_csv", ("s",)),
    ("io.write_json", ("s", "calls")),
    ("cli.main", ("s", "self_s")),
    ("selection.adaptive_threshold", ("s",)),
    ("selection.fdp_curve", ("s",)),
    ("selection.estimate_fdp", ("calls",)),
    ("selection.screen", ("s",)),
    ("simulate.run_benchmark", ("s",)),
    ("simulate.sample_design", ("s",)),
    ("simulate.sample_response", ("s",)),
    ("io.write_benchmark_csv", ("s",)),
)

# Metrics derived from counters, or measured on the untraced multi-worker
# run of the benchmark workload (forked workers lose in-memory spans).
DERIVED = (
    "neuralnet.train.sgd_steps",
    "neuralnet.train.us_per_step",
    "neuralnet.train.flops_computed",
    "neuralnet.train.gflops_per_s",
    "kernelmeasure.minimize_c.evals",
    "kernelmeasure.minimize_c.boundary_hits",
    "kernelmeasure.gram_bytes_computed",
    "io.load_csv.cells_per_s",
    "simulate.rep_busy_s",
    "parallel.parallel_map.s",
    "parallel.idle_s",
    "parallel.rep_inflation",
    "trace.overhead_s",
)

PER_LAYER = tuple(f"{name}.{stat}" for name, stats in _SPAN_STATS for stat in stats) + DERIVED

UNITS = {"s": "s", "self_s": "s", "calls": "count"}
DERIVED_UNITS = {
    "neuralnet.train.sgd_steps": "count",
    "neuralnet.train.us_per_step": "us",
    "neuralnet.train.flops_computed": "flop",
    "neuralnet.train.gflops_per_s": "GFLOP/s",
    "kernelmeasure.minimize_c.evals": "count",
    "kernelmeasure.minimize_c.boundary_hits": "count",
    "kernelmeasure.gram_bytes_computed": "B",
    "io.load_csv.cells_per_s": "1/s",
    "simulate.rep_busy_s": "s",
    "parallel.parallel_map.s": "s",
    "parallel.idle_s": "s",
    "parallel.rep_inflation": "ratio",
    "trace.overhead_s": "s",
}


def unit_of(metric: str) -> str:
    if metric in DERIVED_UNITS:
        return DERIVED_UNITS[metric]
    return UNITS[metric.rsplit(".", 1)[1]]


def _observe_train(rec: SpanRecorder, args, net) -> None:
    config = args["config"]
    n = np.shape(args["inputs"])[0]
    epochs = config.epochs
    shapes = [w.shape for w in net.weights]
    macs = sum(a * b for a, b in shapes)
    # Per SGD epoch: forward (2 flop/MAC), weight gradients (2) and input
    # gradients (2) except into the first layer; plus one full-data
    # forward loss before training and after every epoch.
    sgd = epochs * n * (6 * macs - 2 * shapes[0][0] * shapes[0][1])
    loss = (epochs + 1) * n * 2 * macs
    rec.count("neuralnet.train.sgd_steps", epochs * math.ceil(n / config.batch_size))
    rec.count("neuralnet.train.flops", sgd + loss)


def _observe_minimize_c(rec: SpanRecorder, args, result) -> None:
    rec.count("kernelmeasure.minimize_c.evals", result.evaluations)
    x = np.asarray(args["x"], dtype=float).reshape(-1)
    z = np.asarray(args["z"], dtype=float).reshape(-1)
    search = args["search"]
    c_max = search.c_max_factor * float(np.linalg.norm(x)) / float(np.linalg.norm(z))
    margin = 2.0 * search.tol_factor * c_max
    if result.c_star <= margin or result.c_star >= c_max - margin:
        rec.count("kernelmeasure.minimize_c.boundary_hits")


def _observe_gram(rec: SpanRecorder, args, gram) -> None:
    rec.count("kernelmeasure.gram_bytes", gram.nbytes)


def _observe_load_csv(rec: SpanRecorder, args, dataset) -> None:
    rec.count("io.load_csv.cells", dataset.n * (dataset.p + 1))


_OBSERVERS = {
    "train": _observe_train,
    "minimize_c": _observe_minimize_c,
    "gram_matrix": _observe_gram,
    "load_csv": _observe_load_csv,
}


def install(recorder: SpanRecorder, patcher: Patcher) -> None:
    """Wrap every traced name; ``patcher`` restores them all."""
    for module, names in _SITES:
        for name in names:
            original = getattr(module, name)
            patcher.attr(module, name, traced(recorder, original, _OBSERVERS.get(name)))
    for key, runner in list(cli._RUNNERS.items()):
        patcher.item(cli._RUNNERS, key, traced(recorder, runner))


def layer_metrics(recorder: SpanRecorder, ops: int, measured: dict) -> dict[str, float]:
    """Every per-layer metric, per traced operation.  ``measured`` supplies
    the values taken outside the spans (parallel run, tracing overhead);
    metrics of layers a workload never enters are 0."""
    totals = recorder.totals()
    counters = recorder.counters
    out = {}
    for name, stats in _SPAN_STATS:
        entry = totals.get(name, {})
        for stat in stats:
            out[f"{name}.{stat}"] = entry.get(stat, 0) / ops

    def per_op(counter):
        return counters.get(counter, 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    train_s = out["neuralnet.train.s"]
    steps = per_op("neuralnet.train.sgd_steps")
    flops = per_op("neuralnet.train.flops")
    out["neuralnet.train.sgd_steps"] = steps
    out["neuralnet.train.us_per_step"] = ratio(1e6 * train_s, steps)
    out["neuralnet.train.flops_computed"] = flops
    out["neuralnet.train.gflops_per_s"] = ratio(flops / 1e9, train_s)
    out["kernelmeasure.minimize_c.evals"] = per_op("kernelmeasure.minimize_c.evals")
    out["kernelmeasure.minimize_c.boundary_hits"] = per_op(
        "kernelmeasure.minimize_c.boundary_hits"
    )
    out["kernelmeasure.gram_bytes_computed"] = per_op("kernelmeasure.gram_bytes")
    out["io.load_csv.cells_per_s"] = ratio(per_op("io.load_csv.cells"), out["io.load_csv.s"])
    for metric in DERIVED:
        out.setdefault(metric, float(measured.get(metric, 0.0)))
    return {metric: out[metric] for metric in PER_LAYER}
