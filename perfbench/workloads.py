"""The four benchmark workloads.

All use a Toeplitz partial-correlation design (rho 0.5) and q 0.2, with
data drawn from the benchmark seed.  Each workload splits into
``prepare`` (untimed input generation, repeatable), ``run`` (the one
timed operation, through mirrorselect's public API or CLI) and ``check``
(verifies the output and fingerprints it; never timed or traced).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from mirrorselect import cli, selection
from mirrorselect.dataset import Dataset
from mirrorselect.kernelmeasure import KernelSpec
from mirrorselect.neuralnet import NetConfig
from mirrorselect.rng import RngSeed
from mirrorselect.simulate import DesignSpec, ModelSpec, evaluate, sample_design, sample_response

from .checks import check_selection, document_fingerprint, selection_fingerprint

Q = 0.2
RHO = 0.5


@dataclass
class Outcome:
    """What one checked operation produced."""

    fingerprint: str
    power: float
    fdp: float
    reps: int  # selection fits completed by the operation
    attempted: int  # checked units: the operation, or each of its reps
    failures: list[str] = field(default_factory=list)
    se_fdp: float = 0.0
    rep_runtimes_s: list[float] = field(default_factory=list)


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _selection_outcome(m, c, selected, threshold, truth, p) -> Outcome:
    metrics = evaluate(selected, truth, p)
    return Outcome(
        fingerprint=selection_fingerprint(m, c, selected, threshold),
        power=metrics.power,
        fdp=metrics.fdp,
        reps=1,
        attempted=1,
        failures=check_selection(m, c, selected, threshold, Q),
    )


class _InProcess:
    """One call of a selection pipeline on data held in memory."""

    n: int
    p: int
    model: ModelSpec
    threads = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dataset = None
        self.truth = None

    def prepare(self) -> None:
        rng = RngSeed(self.seed)
        x = sample_design(DesignSpec(self.n, self.p, "toeplitz_pc", RHO), rng.child(0))
        sample = sample_response(x, self.model, rng.child(1))
        self.dataset = Dataset(x, sample.y)
        self.truth = sample.truth

    def check(self, result) -> Outcome:
        return _selection_outcome(
            result.stats.m,
            result.c_values,
            result.selected,
            result.threshold,
            self.truth,
            self.dataset.p,
        )


class IngmLinear(_InProcess):
    """50 same-shape per-feature nets: training dominates."""

    n, p = 300, 50
    model = ModelSpec("linear", None, k_signals=10, coef_sd=6.0)

    def run(self, threads: int = 1):
        return selection.run_ingm(
            self.dataset,
            q=Q,
            spec=KernelSpec("linear"),
            net=NetConfig(hidden_sizes=(32, 16), epochs=100, learning_rate=5e-3),
            rng=RngSeed(self.seed),
        )


class SngmGaussian(_InProcess):
    """Gaussian-kernel c-search per feature: minimize_c dominates."""

    n, p = 200, 20
    model = ModelSpec("single_index", "f2", k_signals=5)

    def run(self, threads: int = 1):
        return selection.run_sngm(
            self.dataset,
            q=Q,
            spec=KernelSpec("gaussian"),
            net=NetConfig(hidden_sizes=(16, 8), activation="relu", epochs=300),
            rng=RngSeed(self.seed),
        )


class SelectCliTall:
    """CLI select on a 4000x100 CSV: load_csv and the shared-Gram linear
    mirror path dominate."""

    threads = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.first_doc = None

    def prepare(self) -> None:
        code = _quiet_cli(
            ["simulate", "--n", "4000", "--p", "100", "--structure", "toeplitz",
             "--rho", str(RHO), "--model", "linear", "--k", "10",
             "--seed", str(self.seed), "--out", str(self.dir / "data")]
        )
        if code != 0:
            raise RuntimeError(f"cli simulate exited with {code}")

    def run(self, threads: int = 1) -> int:
        data = self.dir / "data"
        return _quiet_cli(
            ["select", "--data", str(data / "dataset.csv"), "--truth", str(data / "truth.json"),
             "--method", "sngm", "--kernel", "linear", "--hidden", "32,16",
             "--epochs", "30", "--learning-rate", "5e-3", "--q", str(Q),
             "--seed", str(self.seed), "--out", str(self.dir / "out")]
        )

    def check(self, code: int) -> Outcome:
        if code != 0:
            return Outcome("", 0.0, 0.0, 0, 1, [f"cli select exited with {code}"])
        out = self.dir / "out"
        doc = json.loads((out / "result.json").read_text())
        metrics = json.loads((out / "metrics.json").read_text())
        truth = json.loads((self.dir / "data" / "truth.json").read_text())["support"]
        features = doc["features"]
        outcome = _selection_outcome(
            [f["m"] for f in features],
            [f["c"] for f in features],
            doc["selected"],
            doc["threshold"],
            truth,
            len(features),
        )
        if (metrics["fdp"], metrics["power"]) != (outcome.fdp, outcome.power):
            outcome.failures.append("metrics.json disagrees with the recomputed fdp/power")
        # result.json must be byte-identical across operations once timing
        # keys are dropped.
        normalized = document_fingerprint(doc)
        if self.first_doc is None:
            self.first_doc = normalized
        elif normalized != self.first_doc:
            outcome.failures.append("result.json differs from the first operation's")
        return outcome


class BenchSsngm:
    """CLI benchmark loop: s_sngm over repeated simulate+select reps."""

    reps = 24
    threads = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def prepare(self) -> None:
        """Nothing to generate: the benchmark command draws its own data."""

    def run(self, threads: int = 2):
        out = self.dir / f"bench-{threads}"
        code = _quiet_cli(
            ["benchmark", "--reps", str(self.reps), "--n", "300", "--p", "50",
             "--structure", "toeplitz", "--rho", str(RHO), "--model", "linear", "--k", "10",
             "--method", "s_sngm", "--m-keep", "25", "--hidden", "32,16",
             "--epochs", "300", "--learning-rate", "5e-3", "--q", str(Q),
             "--seed", str(self.seed), "--threads", str(threads), "--out", str(out)]
        )
        return code, out

    def check(self, produced) -> Outcome:
        code, out = produced
        if code != 0:
            return Outcome("", 0.0, 0.0, 0, self.reps, [f"cli benchmark exited with {code}"])
        summary = json.loads((out / "summary.json").read_text())
        with (out / "reps.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        runtimes = [float(row.pop("runtime_ms")) / 1000.0 for row in rows]
        failures = [f"rep {rep}: {msg}" for rep, msg in summary["failures"]]
        if summary["completed"] != len(rows) or len(rows) + len(failures) != self.reps:
            failures.append(f"{len(rows)} rows for {summary['completed']} completed reps")
        fdps = [float(row["fdp"]) for row in rows]
        powers = [float(row["power"]) for row in rows]
        if not all(0.0 <= v <= 1.0 for v in fdps + powers):
            failures.append("fdp or power outside [0, 1]")
        if rows and (
            abs(statistics.fmean(fdps) - summary["mean_fdp"]) > 1e-12
            or abs(statistics.fmean(powers) - summary["mean_power"]) > 1e-12
        ):
            failures.append("summary means disagree with reps.csv")
        if any(row["threshold"] and not float(row["threshold"]) > 0 for row in rows):
            failures.append("non-positive threshold in reps.csv")
        return Outcome(
            fingerprint=document_fingerprint({"rows": rows, "summary": summary}),
            power=summary["mean_power"],
            fdp=summary["mean_fdp"],
            reps=len(rows),
            attempted=self.reps,
            failures=failures,
            se_fdp=summary["se_fdp"],
            rep_runtimes_s=runtimes,
        )


WORKLOADS = {
    "ingm_linear": IngmLinear,
    "sngm_gaussian": SngmGaussian,
    "select_cli_tall": SelectCliTall,
    "bench_s_sngm": BenchSsngm,
}
