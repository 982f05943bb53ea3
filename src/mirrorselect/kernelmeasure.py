"""Kernel machinery: Gram matrices, double centering, a conditional
dependence measure, and minimization of the mirror perturbation scale.

The measure for three blocks U, V, W with Gram matrices K_U, K_V, K_W is

    dep(U, V | W) = (1/n**2) * sum_ij [H K_U H]_ij * [H K_V H]_ij * [K_W]_ij

where H = I - (1/n) 11' is the centering projection.  Only K_U and K_V
are centered; K_W enters raw.  The mirror construction picks, for a
feature x with perturbation z and remaining columns W, the scale c that
minimizes the squared measure between u = x + c z and v = x - c z given
W.  For linear kernels that minimizer has a closed form; for other
kernels golden section searches a bracket around sd(x) / sd(z), the
scale at which the halves' sample covariance var(x) - c**2 var(z) is
zero (the unconditional Gaussian-mirror scale), and widens it when the
minimizer lands at one of its ends.

Both public entry points, ``conditional_dependence`` and ``minimize_c``,
take data and validate it once; the private ``_gram``, ``_center`` and
``_dependence`` behind them trust their arguments.  K_U and K_V travel
as one (2, n, n) stack, which ``_dependence`` centers in place.  The
non-linear c-search builds one ``_Objective`` per feature.  It holds
K_W, the bound c_max, the bracket's centre sd(x) / sd(z), and, for the
gaussian family, the pairwise differences of x and of z scaled by the
bandwidth resolved from x (x and z for the polynomial family), and it
owns one (2, n, n) buffer.  An evaluation overwrites the buffer with
the halves' Grams, one numpy call per step for both, and centers them
there, each bitwise as if alone; it allocates no n x n array and reads
no Gram's magnitude unless the measure comes out negative.  Objectives
share nothing, so ``mirror`` runs the features' searches on threads.
``_linear_scales`` solves the linear quartic for every column of a
design at once, for ``minimize_c`` and the mirror construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegeneratePerturbationError, InvalidDataError, NumericalError,
    _check_choice, _check_integer, _check_number, _check_type, _set_fields,
)

_FAMILIES = ("linear", "gaussian", "polynomial")

# Relative floor below which the quartic denominator counts as zero.
_DENOM_REL_TOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    ``bandwidth`` (> 0, a float) applies to the gaussian family; ``None``
    means "resolve by the median pairwise distance heuristic at evaluation
    time".  ``degree`` (int >= 1) and ``offset`` (float >= 0) apply to the
    polynomial family.
    """

    family: str = "gaussian"
    bandwidth: float | None = None
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        bw = self.bandwidth
        _set_fields(
            self,
            family=_check_choice(self.family, "kernel family", _FAMILIES),
            bandwidth=None if bw is None else _check_number(bw, "bandwidth", 0, strict=True),
            degree=_check_integer(self.degree, "polynomial degree", 1),
            # (x.y + offset)^degree is not positive semidefinite below 0.
            offset=_check_number(self.offset, "polynomial offset", 0),
        )


def _as_block(data, label: str = "kernel input") -> np.ndarray:
    block = np.asarray(data, dtype=float)
    if block.ndim == 1:
        block = block[:, None]
    if block.ndim != 2:
        raise InvalidDataError(f"{label} must be 1-d or 2-d, got {block.ndim}-d")
    if block.shape[0] < 1:
        raise InvalidDataError(f"{label} must have at least one row")
    if not np.all(np.isfinite(block)):
        raise InvalidDataError(f"{label} contains non-finite values")
    return block


def _pairwise_sq_dists(block: np.ndarray) -> np.ndarray:
    """max(|a_i|**2 + |a_k|**2 - 2 a_i.a_k, 0) over the rows of block,
    in one n x n array besides the product."""
    sq = np.einsum("ij,ij->i", block, block)
    products = block @ block.T
    products *= 2.0
    d2 = np.add.outer(sq, sq)
    d2 -= products
    return np.maximum(d2, 0.0, out=d2)


def _median_distance(d2: np.ndarray) -> float:
    """Median of the nonzero distances among pairwise squared distances
    ``d2``; 1.0 when all rows coincide."""
    dists = np.sqrt(d2[np.triu_indices(d2.shape[0], k=1)])
    dists = dists[dists > 0]
    if dists.size == 0:
        return 1.0
    return float(np.median(dists))


def median_heuristic_bandwidth(data) -> float:
    """Median of the nonzero pairwise distances between rows; 1.0 when all
    rows coincide (so the resulting bandwidth is always usable)."""
    return _median_distance(_pairwise_sq_dists(_as_block(data)))


def _int_power(k: np.ndarray, degree: int, scratch=None) -> np.ndarray:
    """``k ** degree`` in place, for an integer degree >= 1, by binary
    powering instead of libm ``pow``.  A degree that is not a power of
    two keeps a copy of k in ``scratch`` (allocated when None).

    Each product rounds once, so an entry lies within degree * eps / 2
    relative of ``k ** degree``; degree 2 is bitwise ``k ** 2``, and at
    degree 3 about a quarter of the entries differ, by one ulp.
    """
    if degree & (degree - 1):
        if scratch is None:
            scratch = np.empty_like(k)
        np.copyto(scratch, k)
    for bit in bin(degree)[3:]:
        np.multiply(k, k, out=k)
        if bit == "1":
            np.multiply(k, scratch, out=k)
    return k


def _gram(block: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Exactly symmetric Gram matrix of a finite 2-d block with at least
    one column; an unset gaussian bandwidth is the median heuristic on
    the block."""
    if spec.family == "linear":
        k = block @ block.T
    elif spec.family == "gaussian":
        k = _pairwise_sq_dists(block)
        bw = _median_distance(k) if spec.bandwidth is None else spec.bandwidth
        k /= -2.0 * bw * bw
        np.exp(k, out=k)
    else:
        k = _int_power(block @ block.T + spec.offset, spec.degree)
    sym = np.add(k, k.T)
    sym /= 2.0
    return sym


def gram_matrix(data, spec: KernelSpec) -> np.ndarray:
    """Gram matrix of the rows of ``data`` under ``spec``.

    A 1-d input is treated as a single column.  The result is exactly
    symmetric (it is symmetrized against floating point asymmetry).
    """
    spec = _check_type(spec, "spec", KernelSpec)
    block = _as_block(data)
    if block.shape[1] == 0:
        raise InvalidDataError("kernel input must have at least one column")
    return _gram(block, spec)


def _gram_w(w_block: np.ndarray, spec: KernelSpec, n: int) -> np.ndarray:
    """K_W of an n-row conditioning block: the all-ones matrix when the
    block has no columns (conditioning on nothing)."""
    if w_block.shape[1] == 0:
        return np.ones((n, n))
    return gram_matrix(w_block, spec)


def _conditioning_block(w, n: int) -> np.ndarray:
    """w as a finite n-row conditioning block (zero columns when None)."""
    if w is None:
        return np.empty((n, 0))
    w_block = _as_block(w, "conditioning block")
    if w_block.shape[0] != n:
        raise InvalidDataError(
            f"conditioning block has {w_block.shape[0]} rows, expected {n}"
        )
    return w_block


def _center(k: np.ndarray) -> None:
    """Double-center each exactly symmetric n x n matrix of a (..., n, n)
    stack in place: H K H with H = I - (1/n) 11', from one vector of
    means per matrix (its rows and columns agree).  Each matrix comes out
    bitwise as if centered alone."""
    means = k.mean(axis=-2)
    k -= means[..., None, :]
    k -= (means - means.mean(axis=-1, keepdims=True))[..., None]


def _magnitude(k: np.ndarray) -> float:
    """max |k| without an |k| temporary."""
    return max(float(k.max()), -float(k.min()))


def _dependence(k_uv: np.ndarray, k_w: np.ndarray) -> float:
    """The measure on the (2, n, n) stack of K_U and K_V and the n x n
    K_W, all symmetric Grams; a non-finite entry (an overflowing kernel)
    raises NumericalError.  K_U and K_V must be exactly symmetric, and
    are centered in place: the caller's stack is overwritten.  Only a
    negative value, which PSD Grams reach only by rounding, reads the
    three magnitudes."""
    k_u, k_v = k_uv
    n = k_w.shape[0]
    _center(k_uv)
    value = float(np.einsum("ij,ij,ij->", k_u, k_v, k_w)) / (n * n)
    if not math.isfinite(value):
        raise NumericalError("dependence measure is non-finite")
    if value < 0.0:
        scale = max(1.0, _magnitude(k_u) * _magnitude(k_v) * _magnitude(k_w))
        if value < -1e-9 * scale:
            raise NumericalError(
                f"dependence measure is negative beyond tolerance: {value}"
            )
    return max(value, 0.0)


def conditional_dependence(
    u, v, w=None, spec: KernelSpec = KernelSpec("linear")
) -> float:
    """Nonnegative scalar dependence between the blocks u and v given w.

    Each block is a column or a 2-d array of rows; a ``w`` that is None
    or has zero columns conditions on nothing (K_W is all ones).  Each
    Gram uses ``spec``, an unset gaussian bandwidth resolved from its own
    block.  Zero (up to floating point) when u or v is constant across
    rows, and unchanged when the rows of all three blocks are permuted alike.
    """
    k_u = gram_matrix(u, spec)
    k_v = gram_matrix(v, spec)
    n = k_u.shape[0]
    if k_v.shape[0] != n:
        raise InvalidDataError(f"u has {n} rows and v has {k_v.shape[0]}")
    k_w = _gram_w(_conditioning_block(w, n), spec, n)
    return _dependence(np.stack((k_u, k_v)), k_w)


@dataclass(frozen=True)
class CMinimizationResult:
    """Outcome of a perturbation-scale optimization: the scale and the
    number of objective evaluations that chose it (0 for the linear
    closed form)."""

    c_star: float
    evaluations: int


@dataclass(frozen=True)
class SearchConfig:
    """Controls the scalar search used for non-linear kernels.

    The search interval is [0, c_max_factor * ||x|| / ||z||]; golden
    section searches the part [r / 2, 2 r] of it around r = sd(x) / sd(z)
    to absolute tolerance tol_factor * c_max, widening that bracket when
    the minimizer lands within two tolerances of one of its inner ends.
    Both factors are finite reals, stored as float: c_max_factor > 0,
    tol_factor in (0, 1).
    """

    c_max_factor: float = 10.0
    tol_factor: float = 1e-6

    def __post_init__(self):
        _set_fields(
            self,
            c_max_factor=_check_number(self.c_max_factor, "c_max_factor", 0, strict=True),
            tol_factor=_check_number(self.tol_factor, "tol_factor", 0, 1, strict=True),
        )


def _linear_scales(design, z, names=None) -> np.ndarray:
    """The linear ``minimize_c`` on checked inputs for the first m columns
    of ``design`` at once: column j's c, perturbed by z[:, j], given the
    design's other columns (K_W all ones when there are none).  Its quartic
    takes W'x**2 and W'z**2 (x, z centered; squares entrywise) from one
    product of the design with a block of squared columns, entry j zeroed;
    a block has at most half the design's rows or columns.  The first column
    that overflows raises NumericalError, or whose denominator vanishes
    DegeneratePerturbationError, as "feature j (name): ..." when ``names``
    are given; numpy prints no warning on the way."""
    n, m = z.shape
    if design.shape[1] == 1:
        # conditioning on nothing: K_W is all ones, as for the one column W = 1
        design = np.column_stack([design, np.ones(n)])
    size = max(1, min(design.shape) // 2)
    beta, gamma, z4 = np.empty(m), np.empty(m), np.empty(m)
    with np.errstate(over="ignore", invalid="ignore"):
        col_sq = np.einsum("ij,ij->j", design, design)
        for lo in range(0, m, size):
            cols = slice(lo, min(lo + size, m))
            b = cols.stop - lo
            sq = np.empty((n, 2 * b))
            x2, z2 = sq[:, :b], sq[:, b:]
            np.subtract(design[:, cols], design[:, cols].mean(axis=0), out=x2)
            np.subtract(z[:, cols], z[:, cols].mean(axis=0), out=z2)
            np.square(sq, out=sq)
            products = design.T @ sq
            own = np.arange(b)
            products[lo + own, own] = products[lo + own, b + own] = 0.0
            beta[cols] = np.einsum("kj,kj->j", products[:, :b], products[:, b:])
            gamma[cols] = np.einsum("kj,kj->j", products[:, b:], products[:, b:])
            z4[cols] = np.einsum("ij,ij->j", z2, z2)
        # Cauchy-Schwarz bound on gamma, |W|_F**2 |z**2|**2: if gamma is
        # tiny against it, the denominator is zero up to rounding.
        bound = (col_sq.sum() - col_sq[:m]) * z4
    finite = np.isfinite(beta) & np.isfinite(gamma) & np.isfinite(bound)
    failed = np.flatnonzero(~finite | (gamma <= _DENOM_REL_TOL * np.maximum(bound, 1e-300)))
    if failed.size:
        j = int(failed[0])
        label = "" if names is None else f"feature {j} ({names[j]}): "
        if not finite[j]:
            raise NumericalError(f"{label}quartic coefficients are non-finite")
        raise DegeneratePerturbationError(
            f"{label}perturbation-scale denominator vanishes; the perturbation "
            "is invisible to the conditioning block"
        )
    return np.sqrt(np.maximum(beta, 0.0) / gamma)


def _golden_section(f, a: float, b: float, tol: float):
    """Golden-section minimization on [a, b]; returns (x, evaluations)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi_sq = (3.0 - math.sqrt(5.0)) / 2.0
    h = b - a
    if h <= tol:
        return (a + b) / 2.0, 0
    steps = int(math.ceil(math.log(tol / h) / math.log(inv_phi)))
    c = a + inv_phi_sq * h
    d = a + inv_phi * h
    yc = f(c)
    yd = f(d)
    evals = 2
    for _ in range(steps - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= inv_phi
            c = a + inv_phi_sq * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= inv_phi
            d = a + inv_phi * h
            yd = f(d)
        evals += 1
    return (a + d) / 2.0 if yc < yd else (c + b) / 2.0, evals


class _Objective:
    """One feature's c-search objective, c -> dep(x + c z, x - c z | W)**2.

    What does not depend on c is built once, here: K_W, c_max, the
    search's centre ``ratio`` = sd(x) / sd(z) (0 for a constant x, NaN
    for a constant z), and what the halves' kernel needs of x and z.
    For the gaussian family that is the bandwidth-scaled pairwise
    differences x_i - x_k and z_i - z_k (scaled by 1 / (sqrt(2) h), h
    resolved from x), so that
    K_U = exp(-(dx + c dz)**2) and K_V = exp(-(dx - c dz)**2); for the
    polynomial family it is x and z themselves.  The object also owns one
    (2, n, n) buffer (and a second, scratch for the power, for a
    polynomial degree that is not a power of two).  A call overwrites it
    with K_U and K_V (``halves``), centers them in place and checks only
    the resulting value (``_dependence``) and its square; the held
    differences and K_W are only read, so objectives of different
    features may run on different threads.
    """

    def __init__(self, x, z, w_block, spec: KernelSpec, search: SearchConfig):
        n = x.shape[0]
        self.k_w = _gram_w(w_block, spec, n)
        self.c_max = (
            search.c_max_factor * float(np.linalg.norm(x)) / float(np.linalg.norm(z))
        )
        sd_z = float(np.std(z))
        self.ratio = 0.0 if np.ptp(x) == 0.0 else float(np.std(x)) / sd_z if sd_z > 0.0 else math.nan
        if spec.family == "gaussian" and spec.bandwidth is None:
            spec = replace(spec, bandwidth=median_heuristic_bandwidth(x))
        self.spec = spec
        if spec.family == "gaussian":
            scale = 1.0 / (math.sqrt(2.0) * self.spec.bandwidth)
            x = np.subtract.outer(x, x)
            x *= scale
            z = np.subtract.outer(z, z)
            z *= scale
        self.x = x
        self.z = z
        self.k = np.empty((2, n, n))
        degree = self.spec.degree
        self.scratch = (
            np.empty_like(self.k)
            if self.spec.family == "polynomial" and degree & (degree - 1)
            else None
        )

    def halves(self, c: float) -> np.ndarray:
        """The (2, n, n) stack of K_U and K_V at scale c, written into the
        held buffer.  Both are exactly symmetric; the gaussian ones have a
        unit diagonal."""
        k = self.k
        if self.spec.family == "gaussian":
            # c dz goes into K_V's slot, which dx - c dz then overwrites
            shift = np.multiply(self.z, c, out=k[1])
            np.add(self.x, shift, out=k[0])
            np.subtract(self.x, shift, out=k[1])
            np.square(k, out=k)
            np.negative(k, out=k)
            np.exp(k, out=k)
        else:
            for half, row in zip(k, (self.x + c * self.z, self.x - c * self.z)):
                np.multiply.outer(row, row, out=half)
            k += self.spec.offset
            _int_power(k, self.spec.degree, self.scratch)
        return k

    def __call__(self, c: float) -> float:
        value = _dependence(self.halves(c), self.k_w)
        squared = value * value
        if not math.isfinite(squared):
            raise NumericalError(f"objective is non-finite at c={c}")
        return squared


def minimize_c(
    x,
    z,
    w=None,
    spec: KernelSpec = KernelSpec("linear"),
    search: SearchConfig = SearchConfig(),
) -> CMinimizationResult:
    """Scale c minimizing dep(x + c z, x - c z | w) over c >= 0.

    ``x`` and ``z`` are single columns (1-d or n x 1), ``w`` the remaining
    columns (None or zero columns: condition on nothing).  Linear kernels
    take the closed form: with x and z mean-centered, as the measure's
    centering does to linear Grams, the objective is the even quartic
    a - 2 b c**2 + g c**4, minimized at sqrt(max(b, 0) / g); a z that is
    zero or unseen by w (g vanishes) raises DegeneratePerturbationError,
    and coefficients that overflow raise NumericalError.

    Other kernels search by golden section on [r / 2, 2 r] within
    [0, c_max], r = sd(x) / sd(z), where var(x) - c**2 var(z), the
    halves' sample covariance, is zero; the minimizer lies near it.  A c
    within two tolerances of an end of the bracket other than 0 or c_max
    widens that end (a low end to 0, a high end fourfold, at most to
    c_max) and searches again, the evaluations adding up.  A constant x
    gives c = 0 (equal halves, objective 0) after one evaluation; a
    constant z searches all of [0, c_max].  A gaussian bandwidth left
    unset in ``spec`` is resolved once from x (for both mirrored halves)
    and once from w, and K_W is built once, so the objective is a fixed
    function of c.  A kernel that overflows (say a high polynomial
    degree) raises NumericalError naming the kernel family.
    """
    spec = _check_type(spec, "spec", KernelSpec)
    search = _check_type(search, "search", SearchConfig)
    x, z = _as_block(x, "x"), _as_block(z, "z")
    if x.shape[1] != 1 or z.shape[1] != 1:
        raise InvalidDataError(f"x and z must be one column each, got {x.shape} and {z.shape}")
    x, z = x[:, 0], z[:, 0]
    n = x.shape[0]
    if z.shape[0] != n:
        raise InvalidDataError(f"x and z disagree in length: {n} vs {z.shape[0]}")
    w_block = _conditioning_block(w, n)
    if float(np.linalg.norm(z)) == 0.0:
        raise DegeneratePerturbationError("perturbation z is identically zero")

    if spec.family == "linear":
        (c_star,) = _linear_scales(np.column_stack([x, w_block]), z[:, None])
        return CMinimizationResult(float(c_star), 0)

    try:
        with np.errstate(over="raise", invalid="raise"):
            return _scalar_search(_Objective(x, z, w_block, spec, search), search)
    except FloatingPointError as err:
        raise NumericalError(f"{spec.family} kernel overflowed: {err}") from err


def _scalar_search(objective: _Objective, search: SearchConfig) -> CMinimizationResult:
    """The bracketed golden-section search of ``minimize_c``."""
    r = objective.ratio
    if r == 0.0:
        # a constant x; one evaluation still catches a kernel overflow
        objective(0.0)
        return CMinimizationResult(0.0, 1)

    c_max = objective.c_max
    tol = search.tol_factor * c_max
    lo, hi = (min(r / 2.0, c_max), min(2.0 * r, c_max)) if r < math.inf else (0.0, c_max)
    evaluations = 0
    while True:
        c_star, count = _golden_section(objective, lo, hi, tol)
        evaluations += count
        low_end = lo > 0.0 and c_star - lo <= 2.0 * tol
        high_end = hi < c_max and hi - c_star <= 2.0 * tol
        if not (low_end or high_end):
            return CMinimizationResult(float(c_star), evaluations)
        lo = 0.0 if low_end else lo
        hi = min(4.0 * hi, c_max) if high_end else hi
