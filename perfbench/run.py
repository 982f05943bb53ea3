"""Run one mirrorselect benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a mirrorselect checkout; the package is imported
from ``src/`` of that checkout and nowhere else.  With ``--trace 0`` the
run times operations untraced for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics (see README.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the machine description, fingerprint, power, fdp and error rate.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ingm_linear", "sngm_gaussian", "select_cli_tall", "bench_s_sngm")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mirrorselect" / "__init__.py").is_file():
        print(f"error: no mirrorselect package under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread per process: bench_s_sngm runs two worker processes
    # on a two-core machine, and select_cli_tall is steadier with one BLAS
    # thread than with two.  Must be set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import mirrorselect

    if not Path(mirrorselect.__file__).resolve().is_relative_to(SRC):
        print(f"error: mirrorselect was imported from outside {SRC}", file=sys.stderr)
        return 2
    from perfbench import harness

    import_s = time.perf_counter() - _T0
    info, result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s, ROOT
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
