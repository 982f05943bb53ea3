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
from .errors import InvalidDataError, MirrorSelectError
from .kernelmeasure import KernelSpec, _linear_closed_form, minimize_c
from .rng import RngSeed


@dataclass(frozen=True)
class MirrorPair:
    """One mirrored feature: the perturbation, its scale, and the pair."""

    name: str
    z: np.ndarray
    c: float
    x_plus: np.ndarray
    x_minus: np.ndarray


def _mirror_feature(
    dataset: Dataset, j: int, spec: KernelSpec, rng: RngSeed, x_abs: np.ndarray | None
) -> MirrorPair:
    """Feature j's pair.  A linear kernel takes the closed form from
    products with the full X (``x_abs`` is |X|), whose entry j is dropped,
    so no copy of the remaining columns is made and the cost is O(n p);
    other kernels run ``minimize_c`` against those columns."""
    x_all = dataset.x
    x = x_all[:, j]
    z = rng.named_child(dataset.names[j]).generator().standard_normal(dataset.n)
    try:
        if spec.family == "linear":
            result = _linear_closed_form(x, z, x_all, x_abs, drop=j)
        else:
            result = minimize_c(x, z, np.delete(x_all, j, axis=1), spec)
    except MirrorSelectError as err:
        raise type(err)(f"feature {j} ({dataset.names[j]}): {err}") from err
    shift = result.c_star * z
    return MirrorPair(
        name=dataset.names[j],
        z=z,
        c=result.c_star,
        x_plus=x + shift,
        x_minus=x - shift,
    )


def make_all_mirrors(
    dataset: Dataset,
    spec: KernelSpec = KernelSpec("linear"),
    rng: RngSeed = RngSeed(0),
) -> list[MirrorPair]:
    """Mirror every feature of the dataset, in column order."""
    if dataset.n < 3:
        raise InvalidDataError(f"mirroring needs n >= 3 rows, got {dataset.n}")
    x_abs = np.abs(dataset.x) if spec.family == "linear" else None
    return [_mirror_feature(dataset, j, spec, rng, x_abs) for j in range(dataset.p)]
