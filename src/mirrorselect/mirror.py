"""Mirrored feature pairs.

For feature j with column x, a gaussian perturbation z is drawn and the
pair (x + c z, x - c z) replaces x, with c chosen so that the two halves
are as conditionally independent as possible given the remaining columns.
Under the null the two halves then carry exchangeable information about
the response, which is what the downstream sign-symmetry argument needs.

Each feature's z comes from a stream keyed by the column *name*, so it
does not depend on the other columns, and permuting columns permutes
the mirrors with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InvalidDataError, MirrorSelectError, _check_type
from .kernelmeasure import KernelSpec, _linear_scales, minimize_c
from .rng import RngSeed


@dataclass(frozen=True)
class MirrorPair:
    """One mirrored feature: the perturbation, its scale, and the pair."""

    name: str
    z: np.ndarray
    c: float
    x_plus: np.ndarray
    x_minus: np.ndarray


def make_all_mirrors(
    dataset: Dataset,
    spec: KernelSpec = KernelSpec("linear"),
    rng: RngSeed = RngSeed(0),
) -> list[MirrorPair]:
    """Mirror every feature of the dataset, in column order; an error names
    its feature as "feature j (name)"."""
    dataset = _check_type(dataset, "dataset", Dataset, InvalidDataError)
    spec, rng = _check_type(spec, "spec", KernelSpec), _check_type(rng, "rng", RngSeed)
    x, names = dataset.x, dataset.names
    if dataset.n < 3:
        raise InvalidDataError(f"mirroring needs n >= 3 rows, got {dataset.n}")
    z = np.empty((dataset.p, dataset.n))  # one contiguous row per feature
    for row, name in zip(z, names):
        rng.named_child(name).generator().standard_normal(out=row)
    if spec.family == "linear":
        c = _linear_scales(x, z.T, names)
    else:
        c = np.empty(dataset.p)
        for j in range(dataset.p):
            try:
                c[j] = minimize_c(x[:, j], z[j], np.delete(x, j, axis=1), spec).c_star
            except MirrorSelectError as err:
                raise type(err)(f"feature {j} ({names[j]}): {err}") from err
    pairs = []
    for name, z_j, c_j, x_j in zip(names, z, c.tolist(), x.T):
        shift = c_j * z_j
        pairs.append(MirrorPair(name, z_j, c_j, x_j + shift, x_j - shift))
    return pairs
