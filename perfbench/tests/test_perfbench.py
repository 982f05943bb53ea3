"""Tests of the benchmark's own code: span arithmetic, metric names,
patch restoration and fingerprint stability."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from mirrorselect import cli, kernelmeasure, mirror, selection, simulate  # noqa: E402
from mirrorselect.dataset import Dataset  # noqa: E402
from mirrorselect.kernelmeasure import KernelSpec  # noqa: E402
from mirrorselect.neuralnet import NetConfig  # noqa: E402
from mirrorselect.rng import RngSeed  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.checks import check_selection, selection_fingerprint  # noqa: E402
from perfbench.spans import Patcher, SpanRecorder, _union_length  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def _self_times(recorder):
    return {s.name: t for s, t in zip(recorder.spans, recorder.self_times())}


def test_self_time_of_nested_spans():
    # outer [0, 10] > mid [2, 8] > inner [3, 4]
    rec = SpanRecorder(clock=_fake_clock([0, 2, 3, 4, 8, 10]))
    with rec.span("outer"):
        with rec.span("mid"):
            with rec.span("inner"):
                pass
    assert _self_times(rec) == {"outer": 4, "mid": 5, "inner": 1}
    totals = rec.totals()
    assert totals["outer"]["s"] == 10 and totals["inner"]["calls"] == 1


def test_self_time_of_back_to_back_children():
    # outer [0, 10] with children [1, 3] and [3, 6], then a sibling span.
    rec = SpanRecorder(clock=_fake_clock([0, 1, 3, 3, 6, 10, 11, 12]))
    with rec.span("outer"):
        with rec.span("child"):
            pass
        with rec.span("child"):
            pass
    with rec.span("next"):
        pass
    totals = rec.totals()
    assert totals["outer"]["self_s"] == 5
    assert totals["child"] == {"s": 5.0, "self_s": 5.0, "calls": 2}
    assert totals["next"]["self_s"] == 1
    assert [s.parent for s in rec.spans] == [None, 0, 0, None]


def test_union_length_merges_overlaps():
    assert _union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert _union_length([]) == 0


def test_emitted_names_and_units_are_valid():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    names = list(tracing.PER_LAYER) + [m["name"] for m in bench["end_to_end"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in tracing.PER_LAYER:
        assert UNIT.fullmatch(tracing.unit_of(metric)), metric


def _tiny_dataset():
    gen = np.random.default_rng(7)
    x = gen.standard_normal((60, 6))
    y = 3.0 * x[:, 0] - 2.0 * x[:, 1] + 0.5 * gen.standard_normal(60)
    return Dataset(x, y)


def _tiny_op(dataset):
    return selection.run_sngm(
        dataset,
        q=0.2,
        spec=KernelSpec("linear"),
        net=NetConfig(hidden_sizes=(4,), epochs=20, batch_size=16),
        rng=RngSeed(3),
    )


def _fingerprint(result):
    return selection_fingerprint(
        result.stats.m, result.c_values, result.selected, result.threshold
    )


def _patch_sites():
    modules = (selection, mirror, kernelmeasure, cli, simulate)
    return {
        (module.__name__, name): value
        for module in modules
        for name, value in vars(module).items()
        if callable(value)
    } | {("cli._RUNNERS", key): value for key, value in cli._RUNNERS.items()}


def test_traced_run_restores_every_patched_name():
    before = _patch_sites()
    recorder = SpanRecorder()
    with Patcher() as patcher:
        tracing.install(recorder, patcher)
        assert selection.train is not before[("mirrorselect.selection", "train")]
        _tiny_op(_tiny_dataset())
    after = _patch_sites()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    totals = recorder.totals()
    assert totals["selection.run_sngm"]["calls"] == 1
    assert totals["neuralnet.train"]["calls"] == 1
    metrics = tracing.layer_metrics(recorder, 1, {})
    assert list(metrics) == list(tracing.PER_LAYER)
    assert metrics["neuralnet.train.sgd_steps"] == 20 * 4  # 60 rows, batches of 16


def test_restore_runs_when_the_traced_call_raises():
    original = selection.train
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            patcher.attr(selection, "train", lambda *a, **k: None)
            raise RuntimeError("boom")
    assert selection.train is original


def test_fingerprint_is_stable_across_repeats_and_tracing():
    dataset = _tiny_dataset()
    untraced = [_fingerprint(_tiny_op(dataset)) for _ in range(2)]
    with Patcher() as patcher:
        tracing.install(SpanRecorder(), patcher)
        traced = _fingerprint(_tiny_op(dataset))
    assert untraced[0] == untraced[1] == traced


def test_selection_check_accepts_the_pipeline_and_rejects_tampering():
    result = _tiny_op(_tiny_dataset())
    assert check_selection(
        result.stats.m, result.c_values, result.selected, result.threshold, q=0.2
    ) == []
    # At t = 0.1 one negative against five positives gives FDP 0.2 <= q.
    m = [3.0, 2.5, 2.0, 1.5, -0.2, 0.1]
    c = [1.0] * 6
    selected = {0, 1, 2, 3, 5}
    assert check_selection(m, c, selected, 0.1, q=0.2) == []
    assert check_selection(m, c, selected - {5}, 0.1, q=0.2)
    assert check_selection(m, c, {0, 1, 2, 3}, 1.5, q=0.2)
    assert check_selection(m, [-1.0] + c[1:], selected, 0.1, q=0.2)
    assert check_selection([float("nan")] + m[1:], c, selected, 0.1, q=0.2)
