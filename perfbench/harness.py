"""Times, traces and checks the operations of one benchmark run.

Imported by ``run.py`` only after it has put the checkout's ``src/`` on
the import path and set the BLAS thread variables.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy
import scipy
from mirrorselect import simulate

from . import tracing, workloads
from .spans import Patcher, SpanRecorder, traced
from .workloads import Outcome

PREPARE_REPEATS = 3


def describe_machine(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {
            var: value for var, value in sorted(os.environ.items()) if var.endswith("_NUM_THREADS")
        },
        "data_seed": seed,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers the benchmark workers.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Runner:
    """Times, traces and checks the operations of one workload run."""

    def __init__(self, workload, threads: int):
        self.workload = workload
        self.threads = threads
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.outcomes = []

    def op(self, label: str, threads: int, install=None):
        """Run one operation; ``install(patcher)`` wraps names for its
        duration only, so checks never run traced.  Returns (wall, outcome)."""
        start = time.perf_counter()
        try:
            with Patcher() as patcher:
                if install is not None:
                    install(patcher)
                start = time.perf_counter()
                produced = self.workload.run(threads)
                wall = time.perf_counter() - start
            outcome = self.workload.check(produced)
        except Exception:  # an operation that raises is a failed operation
            traceback.print_exc()
            wall = time.perf_counter() - start
            outcome = Outcome("", 0.0, 0.0, 0, 1, ["operation raised"])
        self._tally(label, outcome)
        return wall, outcome

    def _tally(self, label, outcome) -> None:
        problems = list(outcome.failures)
        if self.outcomes and outcome.fingerprint != self.outcomes[0].fingerprint:
            problems.append("fingerprint differs from the first operation's")
        self.attempted += outcome.attempted
        self.failed += min(len(problems), outcome.attempted)
        self.messages += [f"{label}: {p}" for p in problems]
        self.outcomes.append(outcome)

    def setup(self, import_s: float, repeats: int) -> float:
        prepare = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.workload.prepare()
            prepare.append(time.perf_counter() - start)
        warm_s, _ = self.op("warm-up", self.threads)
        return import_s + statistics.median(prepare) + warm_s

    def measure(self, seconds: float, import_s: float) -> tuple[dict, list]:
        setup_s = self.setup(import_s, PREPARE_REPEATS)
        walls, rates = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, outcome = self.op(f"op {len(walls)}", self.threads)
            walls.append(wall)
            rates.append(outcome.reps / wall)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "reps_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
        return metrics, walls

    def trace(self, seconds: float, import_s: float, spans_path: Path) -> tuple[dict, list]:
        self.setup(import_s, 1)
        recorder = SpanRecorder()
        untraced, traced_walls = [], []
        busy, map_s, idle, rep_multi, rep_single = [], [], [], [], []
        start = time.perf_counter()
        while not traced_walls or time.perf_counter() - start < seconds:
            i = len(traced_walls)
            if self.threads > 1:
                # The multi-worker run is untraced but for one span around
                # parallel_map; its workers' rep timings come from reps.csv.
                par = SpanRecorder()
                _, outcome = self.op(
                    f"op {i} ({self.threads} workers)",
                    self.threads,
                    lambda p: p.attr(simulate, "parallel_map", traced(par, simulate.parallel_map)),
                )
                mapped = par.totals().get("parallel.parallel_map", {}).get("s", 0.0)
                busy.append(sum(outcome.rep_runtimes_s))
                map_s.append(mapped)
                idle.append(self.threads * mapped - busy[-1])
                rep_multi += outcome.rep_runtimes_s
            # Alternate which of the pair runs first, so a drift within
            # the run does not bias the tracing overhead.
            recorder.op = i
            for kind in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
                if kind == "traced":
                    wall, _ = self.op(f"op {i} (traced)", 1, lambda p: tracing.install(recorder, p))
                    traced_walls.append(wall)
                else:
                    wall, outcome = self.op(f"op {i} (untraced)", 1)
                    untraced.append(wall)
                    rep_single += outcome.rep_runtimes_s
        measured = {
            "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced)
        }
        if busy:
            measured.update(
                {
                    "simulate.rep_busy_s": statistics.median(busy),
                    "parallel.parallel_map.s": statistics.median(map_s),
                    "parallel.idle_s": statistics.median(idle),
                }
            )
        if rep_multi and rep_single:
            measured["parallel.rep_inflation"] = statistics.median(
                rep_multi
            ) / statistics.median(rep_single)
        spans_path.parent.mkdir(exist_ok=True)
        recorder.write(spans_path)
        layers = tracing.layer_metrics(recorder, len(traced_walls), measured)
        metrics = {name: (value, tracing.unit_of(name)) for name, value in layers.items()}
        return metrics, traced_walls


def _reference_status(workload: str, seed: int, fingerprint: str) -> str:
    path = Path(__file__).with_name("reference.json")
    expected = json.loads(path.read_text()).get(workload, {}).get(str(seed))
    if expected is None:
        return "no reference for this seed"
    return "match" if expected == fingerprint else "mismatch"


def run(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float, root: Path):
    """Run one workload in a scratch directory under ``root``; returns the
    info record and the result record the benchmark prints."""
    work_root = root / ".perfbench_work"
    workdir = work_root / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[workload_name](seed, workdir)
        runner = Runner(workload, workload.threads)
        if trace:
            spans_path = root / ".perfbench_spans" / f"{workload_name}-seed{seed}.json"
            metrics, samples = runner.trace(seconds, import_s, spans_path)
        else:
            metrics, samples = runner.measure(seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    first = runner.outcomes[0]
    info = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "samples": len(samples),
        "sample_walls_s": samples,
        "machine": describe_machine(seed),
        "fingerprint": first.fingerprint,
        "fingerprint_reference": _reference_status(workload_name, seed, first.fingerprint),
        "power": {"value": first.power, "unit": "fraction"},
        "fdp": {"value": first.fdp, "unit": "fraction"},
        "error_rate": {"value": runner.failed / runner.attempted, "unit": "fraction"},
        "fdp_above_q_plus_2se": (
            first.fdp > workloads.Q + 2.0 * first.se_fdp if first.reps > 1 else None
        ),
        "failures": runner.messages,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result
