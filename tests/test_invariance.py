"""Results do not depend on the thread count.

Each test runs one fixed selection in a pair of fresh interpreters that
differ only in the BLAS thread count or in the CPUs the process may use,
and compares the fingerprints: the selected set, m, c and the threshold
in exact hex.  Training runs in float32 ``sgemm`` with each net's
arithmetic order fixed, and a net's slice of a stack does not depend on
the nets beside it, so the pooled and inline fits agree bitwise.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# argv: method ("ingm", linear kernel, or "sngm", gaussian kernel), n, p
_FINGERPRINT = """
import hashlib, json, sys
from mirrorselect import Dataset, KernelSpec, NetConfig, RngSeed, run_ingm, run_sngm
from mirrorselect.simulate import DesignSpec, ModelSpec, sample_design, sample_response

method, n, p = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rng = RngSeed(5)
x = sample_design(DesignSpec(n, p, "toeplitz_pc", 0.5), rng.child(0))
if method == "ingm":
    model = ModelSpec("linear", None, k_signals=10, coef_sd=6.0)
    run, spec = run_ingm, KernelSpec("linear")
    net = NetConfig(hidden_sizes=(32, 16), epochs=10, learning_rate=5e-3)
else:
    model = ModelSpec("single_index", "f2", k_signals=5)
    run, spec = run_sngm, KernelSpec("gaussian")
    net = NetConfig(hidden_sizes=(16, 8), activation="relu", epochs=30)
y = sample_response(x, model, rng.child(1)).y
res = run(Dataset(x, y), q=0.2, spec=spec, net=net, rng=rng)
doc = {"selected": sorted(int(j) for j in res.selected),
       "m": [float(v).hex() for v in res.stats.m],
       "c": [float(v).hex() for v in res.c_values],
       "threshold": None if res.threshold is None else float(res.threshold).hex()}
print(hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest())
"""


def _fingerprint(method, n, p, prefix=(), **env):
    """The run's fingerprint from a fresh interpreter started as
    ``prefix`` + python, with ``env`` added to the environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [*prefix, sys.executable, "-c", _FINGERPRINT, method, str(n), str(p)],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=600, check=True,
    )
    digest = done.stdout.strip()
    assert len(digest) == 64, done.stdout + done.stderr
    return digest


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


one_cpu_or_all = pytest.mark.skipif(
    len(_usable_cpus()) < 2 or shutil.which("taskset") is None,
    reason="needs taskset and two usable CPUs, so that the unrestricted run uses the thread pool",
)


def _pinned():
    return ("taskset", "-c", str(_usable_cpus()[0]))


def test_blas_threads_leave_ingm_unchanged():
    # the ingm_linear workload's shape; each run fits 50 per-feature nets
    one = _fingerprint("ingm", 300, 50, OPENBLAS_NUM_THREADS="1")
    assert one == _fingerprint("ingm", 300, 50, OPENBLAS_NUM_THREADS="2")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 8: at n = 1,000 the linear mirror's product design.T @ sq "
    "sums its rows in another order with two OpenBLAS threads, so c differs",
)
def test_blas_threads_leave_a_taller_ingm_unchanged():
    one = _fingerprint("ingm", 1000, 50, OPENBLAS_NUM_THREADS="1")
    assert one == _fingerprint("ingm", 1000, 50, OPENBLAS_NUM_THREADS="2")


@one_cpu_or_all
def test_cpu_count_leaves_gaussian_sngm_unchanged():
    # the sngm_gaussian workload's shape: on one CPU the c-searches run
    # one after another, on more on the thread pool
    assert _fingerprint("sngm", 200, 20, _pinned()) == _fingerprint("sngm", 200, 20)


@one_cpu_or_all
def test_cpu_count_leaves_ingm_unchanged():
    # the ingm_linear workload's shape: on one CPU the 50 nets train as two
    # groups in sequence, on more as two concurrent groups
    assert _fingerprint("ingm", 300, 50, _pinned()) == _fingerprint("ingm", 300, 50)
