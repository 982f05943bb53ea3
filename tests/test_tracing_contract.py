"""Contract between the library and the benchmark's tracer.

perfbench wraps library functions by name and reads their arguments
(``minimize_c``'s x, z and search) to derive its per-layer metrics.  A
gaussian run is the only pipeline path through ``mirror.minimize_c``, so
this test runs one under tracing: a renamed function or parameter fails
here instead of breaking every traced benchmark run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from mirrorselect import cli, kernelmeasure, mirror, selection, simulate  # noqa: E402
from mirrorselect.dataset import Dataset  # noqa: E402
from mirrorselect.kernelmeasure import KernelSpec  # noqa: E402
from mirrorselect.neuralnet import NetConfig  # noqa: E402
from mirrorselect.rng import RngSeed  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.spans import Patcher, SpanRecorder  # noqa: E402


def _patchable_names():
    modules = (selection, mirror, kernelmeasure, cli, simulate)
    return {
        (module.__name__, name): value
        for module in modules
        for name, value in vars(module).items()
        if callable(value)
    } | {("cli._RUNNERS", key): value for key, value in cli._RUNNERS.items()}


def test_traced_gaussian_run_observes_every_c_search(gen):
    x = gen.standard_normal((30, 3))
    y = x[:, 0] + 0.1 * gen.standard_normal(30)
    dataset = Dataset(x, y)
    before = _patchable_names()
    recorder = SpanRecorder()
    with Patcher() as patcher:
        tracing.install(recorder, patcher)
        selection.run_sngm(
            dataset,
            q=0.2,
            spec=KernelSpec("gaussian", bandwidth=1.0),
            net=NetConfig(hidden_sizes=(4,), epochs=3, batch_size=16),
            rng=RngSeed(5),
        )
    after = _patchable_names()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tracing.layer_metrics(recorder, 1, {})
    assert metrics["kernelmeasure.minimize_c.calls"] == 3
    assert metrics["kernelmeasure.minimize_c.evals"] > 0
