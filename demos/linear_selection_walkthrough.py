#!/usr/bin/env python3
"""Feature selection on a correlated linear design, step by step.

Simulates a Toeplitz-correlated design with ten true signals, runs the
simultaneous method, and prints the mirror statistics next to the truth
so the separation between signal and null columns is visible, along
with the estimated-FDP curve that fixed the threshold.
"""

import numpy as np

import mirrorselect.simulate as ms
from mirrorselect.dataset import Dataset
from mirrorselect.neuralnet import NetConfig
from mirrorselect.rng import RngSeed
from mirrorselect.selection import run_sngm


def main():
    design = ms.DesignSpec(300, 30, "toeplitz_pc", rho=0.5)
    model = ms.ModelSpec(kind="linear", k_signals=10, coef_sd=6.0)
    rng = RngSeed(42)

    x = ms.sample_design(design, rng.child(0))
    sample = ms.sample_response(x, model, rng.child(1))
    ds = Dataset(x, sample.y)

    net = NetConfig(hidden_sizes=(32, 16), epochs=300, learning_rate=5e-3)
    result = run_sngm(ds, q=0.2, net=net, rng=rng.child(2))

    print(f"true support: {sorted(sample.truth)}")
    print(f"selected    : {sorted(result.selected)}")
    print(f"threshold   : {result.threshold:.4f}\n")

    order = np.argsort(result.stats.m)[::-1]
    print(" rank  feature  m-stat     truth  picked")
    for rank, j in enumerate(order[:15], start=1):
        mark_t = "signal" if j in sample.truth else "null"
        mark_s = "yes" if j in result.selected else ""
        print(f"  {rank:3d}  {j:7d}  {result.stats.m[j]:+9.4f}  {mark_t:6s} {mark_s}")

    print("\nestimated FDP around the chosen threshold:")
    hit = next(i for i, (t, _) in enumerate(result.curve)
               if t == result.threshold)
    for t, fdp in result.curve[max(hit - 2, 0):hit + 3]:
        mark = "  <- chosen" if t == result.threshold else ""
        print(f"  t = {t:8.4f}  fdp-hat = {fdp:.3f}{mark}")

    metrics = ms.evaluate(result.selected, sample.truth, design.p)
    print(f"\nrealized fdp = {metrics.fdp:.3f}, power = {metrics.power:.3f}")


if __name__ == "__main__":
    main()
