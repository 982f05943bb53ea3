"""Command line front end.

Subcommands: select (run a pipeline on a CSV), simulate (write a
synthetic dataset), benchmark (repeated simulate+select with metrics),
roc (threshold sweep of the mirror statistics against a known truth).

Every run writes a manifest.json recording the configuration, seed,
package versions and timings.  Exit codes: 0 success, 2 configuration,
3 data, 4 numerical, 5 training.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy

from . import __version__, _parallel
from .dataset import Dataset
from .errors import ConfigurationError, MirrorSelectError
from .io import (
    load_csv,
    load_truth,
    write_benchmark_csv,
    write_dataset_csv,
    write_json,
    write_roc_csv,
)
from .kernelmeasure import _FAMILIES, KernelSpec
from .neuralnet import NetConfig
from .rng import RngSeed
from .selection import ScreenOptions, run_ingm, run_sngm
from .simulate import (
    _STRUCTURES,
    LINKS,
    METHODS,
    MODEL_KINDS,
    DesignSpec,
    ModelSpec,
    default_coef_sd,
    evaluate,
    roc_curve,
    run_benchmark,
    sample_design,
    sample_response,
)

_RUNNERS = {
    "ingm": run_ingm,
    "sngm": run_sngm,
    "s_ingm": run_ingm,
    "s_sngm": run_sngm,
}


def _parse_threads(value: str) -> int:
    if value == "auto":
        return _parallel._cpus()
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"threads must be an integer or 'auto', got {value!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError("threads must be at least 1")
    return n


def _parse_structure(value: str) -> str:
    # Short aliases for the partial-correlation designs.
    aliases = {"toeplitz": "toeplitz_pc", "constant": "constant_pc"}
    return aliases.get(value, value)


def _parse_hidden(value: str):
    if value == "auto":
        return None
    try:
        sizes = tuple(int(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"hidden sizes must be comma-separated integers or 'auto', got {value!r}"
        ) from None
    if not sizes:
        raise argparse.ArgumentTypeError("hidden sizes must not be empty")
    return sizes


def _add_common(sub):
    sub.add_argument("--out", required=True, help="output directory (created if missing)")
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")


def _add_kernel(sub):
    sub.add_argument(
        "--kernel",
        choices=_FAMILIES,
        default="linear",
        help="kernel family for the perturbation-scale objective",
    )
    sub.add_argument("--bandwidth", type=float, default=None,
                     help="gaussian bandwidth (default: median heuristic)")
    sub.add_argument("--degree", type=int, default=2, help="polynomial degree")
    sub.add_argument("--offset", type=float, default=1.0, help="polynomial offset")


def _add_net(sub):
    sub.add_argument("--hidden", type=_parse_hidden, default=None,
                     help="comma-separated hidden sizes, or 'auto'")
    sub.add_argument("--activation", choices=["tanh", "relu"], default="tanh")
    sub.add_argument("--epochs", type=int, default=300)
    sub.add_argument("--batch-size", type=int, default=64)
    sub.add_argument("--learning-rate", type=float, default=1e-3)
    sub.add_argument("--init-scale", type=float, default=1.0)


def _add_method(sub):
    sub.add_argument("--method", choices=list(METHODS), default="sngm")
    sub.add_argument("--q", type=float, default=0.1, help="target FDR level")
    sub.add_argument("--m-keep", type=int, default=None,
                     help="features kept by screening (s_* methods)")


def _add_design(sub):
    sub.add_argument("--n", type=int, required=True, help="rows")
    sub.add_argument("--p", type=int, required=True, help="features")
    sub.add_argument(
        "--structure",
        type=_parse_structure,
        choices=_STRUCTURES,
        default="identity",
    )
    sub.add_argument("--rho", type=float, default=0.0)
    sub.add_argument("--model", choices=MODEL_KINDS, default="linear")
    sub.add_argument("--link", choices=list(LINKS), default=None)
    sub.add_argument("--k", type=int, default=10, help="number of true signals")
    sub.add_argument("--coef-sd", type=float, default=None,
                     help="signal coefficient scale (default: 20*sqrt(log(p)/n))")
    sub.add_argument("--noise-sd", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorselect",
        description="FDR-controlled feature selection for neural networks "
        "via mirrored feature pairs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="select features from a CSV")
    p_select.add_argument("--data", required=True, help="input CSV with header row")
    p_select.add_argument("--response", default="y", help="response column name")
    p_select.add_argument("--truth", default=None,
                          help="optional truth JSON for scoring the selection")
    _add_method(p_select)
    _add_kernel(p_select)
    _add_net(p_select)
    _add_common(p_select)
    p_select.set_defaults(func=_cmd_select)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset")
    _add_design(p_sim)
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="repeated simulate+select")
    p_bench.add_argument("--reps", type=int, default=20)
    p_bench.add_argument(
        "--threads",
        type=_parse_threads,
        default=1,
        help="worker processes for the repetitions, or 'auto' (the usable CPUs); a "
        "worker runs its mirror searches and its training inline, in no pool of its own",
    )
    _add_design(p_bench)
    _add_method(p_bench)
    _add_kernel(p_bench)
    _add_net(p_bench)
    _add_common(p_bench)
    p_bench.set_defaults(func=_cmd_benchmark)

    p_roc = sub.add_parser("roc", help="threshold sweep against a known truth")
    p_roc.add_argument("--data", required=True, help="input CSV with header row")
    p_roc.add_argument("--response", default="y", help="response column name")
    p_roc.add_argument("--truth", required=True, help="truth JSON (support key)")
    _add_method(p_roc)
    _add_kernel(p_roc)
    _add_net(p_roc)
    _add_common(p_roc)
    p_roc.set_defaults(func=_cmd_roc)
    return parser


def _kernel_from_args(args) -> KernelSpec:
    return KernelSpec(args.kernel, args.bandwidth, args.degree, args.offset)


def _design_from_args(args) -> tuple[DesignSpec, ModelSpec]:
    design = DesignSpec(args.n, args.p, args.structure, args.rho)
    model = ModelSpec(
        kind=args.model,
        link=args.link,
        k_signals=args.k,
        coef_sd=args.coef_sd,
        noise_sd=args.noise_sd,
    )
    return design, model


def _net_from_args(args) -> NetConfig:
    return NetConfig(
        hidden_sizes=args.hidden,
        activation=args.activation,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        weight_init_scale=args.init_scale,
    )


def _screen_from_args(args) -> ScreenOptions | None:
    if not args.method.startswith("s_"):
        if args.m_keep is not None:
            raise ConfigurationError(
                "--m-keep only applies to the screening methods (s_ingm, s_sngm)"
            )
        return None
    return ScreenOptions(m_keep=args.m_keep)


def _run_selection(args, dataset: Dataset):
    runner = _RUNNERS[args.method]
    return runner(
        dataset,
        q=args.q,
        spec=_kernel_from_args(args),
        net=_net_from_args(args),
        rng=RngSeed(args.seed),
        screen_opts=_screen_from_args(args),
    )


def _cmd_select(args, out_dir: Path) -> None:
    dataset = load_csv(args.data, args.response)
    truth = None
    if args.truth is not None:
        truth = load_truth(args.truth)
        evaluate((), truth, dataset.p)  # a bad truth fails before the fit
    result = _run_selection(args, dataset)
    write_json(result.to_json_dict(), out_dir / "result.json")
    if truth is not None:
        metrics = evaluate(result.selected, truth, dataset.p)
        write_json(asdict(metrics), out_dir / "metrics.json")
    print(
        f"selected {len(result.selected)} of {dataset.p} features "
        f"(method {result.method}, q {result.q})"
    )


def _cmd_simulate(args, out_dir: Path) -> None:
    design, model = _design_from_args(args)
    rng = RngSeed(args.seed)
    x = sample_design(design, rng.child(0))
    sample = sample_response(x, model, rng.child(1))
    dataset = Dataset(x, sample.y)
    write_dataset_csv(dataset, out_dir / "dataset.csv")
    coef_sd = model.coef_sd or default_coef_sd(design.n, design.p)
    write_json(
        {
            "support": sorted(sample.truth),
            "beta": [float(b) for b in sample.beta],
            "design": asdict(design),
            "model": asdict(replace(model, coef_sd=coef_sd)),
        },
        out_dir / "truth.json",
    )
    print(f"wrote {design.n} rows x {design.p} features to {out_dir / 'dataset.csv'}")


def _cmd_benchmark(args, out_dir: Path) -> None:
    design, model = _design_from_args(args)
    result = run_benchmark(
        design,
        model,
        method=args.method,
        q=args.q,
        reps=args.reps,
        rng=RngSeed(args.seed),
        spec=_kernel_from_args(args),
        net=_net_from_args(args),
        screen_opts=_screen_from_args(args),
        threads=args.threads,
    )
    write_benchmark_csv(result, out_dir / "reps.csv")
    summary = asdict(result)
    summary["completed"] = len(summary.pop("rows"))
    # A mean over no completed rep is NaN, which JSON cannot hold.
    write_json(
        {
            k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in summary.items()
        },
        out_dir / "summary.json",
    )
    if not result.rows:
        print(f"{result.method}: no rep completed; all {result.reps} failed")
        return
    print(
        f"{result.method}: mean fdp {result.mean_fdp:.3f}, "
        f"mean power {result.mean_power:.3f} over {len(result.rows)} reps"
    )


def _cmd_roc(args, out_dir: Path) -> None:
    dataset = load_csv(args.data, args.response)
    truth = load_truth(args.truth)
    roc_curve(numpy.zeros(dataset.p), truth)  # a bad truth fails before the fit
    result = _run_selection(args, dataset)
    curve = roc_curve(result.stats.m, truth)
    write_roc_csv(curve, out_dir / "roc_points.csv")
    write_json(
        {
            "auc": curve.auc,
            "n_points": len(curve.points),
            "method": result.method,
            "q": result.q,
        },
        out_dir / "roc.json",
    )
    print(f"auc {curve.auc:.4f} over {len(curve.points)} sweep points")


def _write_manifest(args, out_dir: Path, elapsed_s: float) -> None:
    write_json(
        {
            "config": {k: v for k, v in vars(args).items() if k != "func"},
            "command": args.command,
            "versions": {
                "mirrorselect": __version__,
                "numpy": numpy.__version__,
                "python": platform.python_version(),
            },
            "timings": {"total_s": elapsed_s},
        },
        out_dir / "manifest.json",
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        code = err.code
        return int(code) if code is not None else 0
    start = time.perf_counter()
    out_dir = Path(args.out)
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigurationError(
                f"cannot create output directory {out_dir}: {err}"
            ) from err
        args.func(args, out_dir)
        _write_manifest(args, out_dir, time.perf_counter() - start)
        return 0
    except MirrorSelectError as err:
        record = {
            "error": type(err).__name__,
            "message": str(err),
            "exit_code": err.exit_code,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        if out_dir.is_dir():
            try:
                write_json(record, out_dir / "error.json")
            except OSError:
                pass
        return err.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
