#!/usr/bin/env python3
"""Anatomy of a single mirrored feature.

Builds the perturbed pair (x + c*z, x - c*z) for one column of a small
design, once with the linear-kernel closed form and once with the
scalar search under a gaussian kernel, and prints what the optimization
actually did to the pair geometry.
"""

import numpy as np

from mirrorselect.dataset import Dataset
from mirrorselect.kernelmeasure import KernelSpec, conditional_dependence
from mirrorselect.mirror import make_all_mirrors
from mirrorselect.rng import RngSeed


def describe(pair, x, others):
    u = pair.x_plus
    v = pair.x_minus
    corr = np.corrcoef(u, v)[0, 1]
    print(f"  c*            = {pair.c:.4f}")
    print(f"  corr(u, v)    = {corr:+.4f}")
    print(f"  reconstruction max |(u+v)/2 - x| = "
          f"{np.abs((u + v) / 2.0 - x).max():.2e}")
    # dependence of the pair given the rest, at the chosen scale
    measure = conditional_dependence(u - u.mean(), v - v.mean(), others,
                                     KernelSpec("linear"))
    print(f"  measure at c* = {measure:.3e}")


def main():
    gen = np.random.default_rng(7)
    n, p = 120, 6
    x = gen.standard_normal((n, p))
    y = 3.0 * x[:, 0] - 2.0 * x[:, 3] + 0.5 * gen.standard_normal(n)
    ds = Dataset(x, y)

    print("linear kernel, closed form:")
    pair = make_all_mirrors(ds, KernelSpec("linear"), rng=RngSeed(11))[0]
    describe(pair, x[:, 0], np.delete(x, 0, axis=1))

    print("\ngaussian kernel, Brent search:")
    pair = make_all_mirrors(ds, KernelSpec("gaussian"), rng=RngSeed(11))[0]
    describe(pair, x[:, 0], np.delete(x, 0, axis=1))

    print("\nsame feature, fresh perturbation seeds:")
    for seed in (1, 2, 3):
        pair = make_all_mirrors(ds, KernelSpec("linear"), rng=RngSeed(seed))[0]
        print(f"  seed {seed}: c* = {pair.c:.4f}")


if __name__ == "__main__":
    main()
