#!/usr/bin/env python3
"""End-to-end command-line pipeline in a temporary directory, removed
when the demo ends.

simulate writes a dataset with a truth sidecar, select consumes both
and scores itself, roc sweeps every threshold.  Each command drops a
manifest recording the exact config, library versions, and wall time,
so any output directory can be reproduced from its manifest alone.
"""

import json
import tempfile
from pathlib import Path

from mirrorselect.cli import main


def show(path):
    doc = json.loads(Path(path).read_text())
    def scalar_list(v):
        return (isinstance(v, list) and len(v) <= 12
                and all(not isinstance(e, (list, dict)) for e in v))

    keep = {
        k: v for k, v in doc.items()
        if not isinstance(v, (dict, list)) or scalar_list(v)
    }
    print(f"  {path.name}: {json.dumps(keep, sort_keys=True)}")


def main_demo(root):
    print(f"working under {root}\n")

    sim = root / "sim"
    sel = root / "sel"
    roc = root / "roc"

    print("$ mirrorselect simulate --n 200 --p 12 --k 4 --structure toeplitz"
          " --rho 0.4 --coef-sd 8 --seed 11 --out sim")
    main(["simulate", "--n", "200", "--p", "12", "--k", "4",
          "--structure", "toeplitz", "--rho", "0.4", "--coef-sd", "8",
          "--seed", "11", "--out", str(sim)])

    print("\n$ mirrorselect select --data sim/dataset.csv --truth sim/truth.json"
          " --method sngm --q 0.2 --hidden 16,8 --epochs 200"
          " --learning-rate 0.005 --seed 1 --out sel")
    main(["select", "--data", str(sim / "dataset.csv"),
          "--truth", str(sim / "truth.json"), "--method", "sngm",
          "--q", "0.2", "--hidden", "16,8", "--epochs", "200",
          "--learning-rate", "0.005", "--seed", "1", "--out", str(sel)])

    print("\n$ mirrorselect roc --data sim/dataset.csv --truth sim/truth.json"
          " --hidden 16,8 --epochs 200 --learning-rate 0.005 --seed 1 --out roc")
    main(["roc", "--data", str(sim / "dataset.csv"),
          "--truth", str(sim / "truth.json"), "--hidden", "16,8",
          "--epochs", "200", "--learning-rate", "0.005", "--seed", "1",
          "--out", str(roc)])

    print("\nartifacts:")
    for d in (sim, sel, roc):
        for f in sorted(d.iterdir()):
            print(f"  {f.relative_to(root)}")

    print("\nkey fields:")
    show(sim / "truth.json")
    show(sel / "result.json")
    show(sel / "metrics.json")
    show(roc / "roc.json")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="mirrorselect-") as tmp:
        main_demo(Path(tmp))
