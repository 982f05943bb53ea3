"""Kernel machinery: Gram matrices, double centering, a conditional
dependence measure, and minimization of the mirror perturbation scale.

The measure for three blocks U, V, W with Gram matrices K_U, K_V, K_W is

    dep(U, V | W) = (1/n**2) * sum_ij [H K_U H]_ij * [H K_V H]_ij * [K_W]_ij

where H = I - (1/n) 11' is the centering projection.  Only K_U and K_V
are centered; K_W enters raw.  The mirror construction picks, for a
feature x with perturbation z and remaining columns W, the scale c that
minimizes the squared measure between u = x + c z and v = x - c z given
W.  For linear kernels that minimizer has a closed form; for other
kernels a bracketed golden-section search is used.

Both public entry points, ``conditional_dependence`` and ``minimize_c``,
take data and validate it once; the private ``_gram``, ``_center`` and
``_dependence`` behind them trust their arguments.  ``_center``
double-centers an exactly symmetric matrix in place, so ``_dependence``
overwrites the K_U and K_V it is given.  The non-linear c-search
builds one ``_Objective`` per feature.  It holds K_W, the bound c_max,
and, for the gaussian family, the pairwise differences of x and of z
scaled by the bandwidth resolved from x (x and z for the polynomial
family), and it owns two n x n buffers.  An evaluation overwrites the
buffers with the halves' Grams and centers them there; it allocates no
n x n array and reads no Gram's magnitude unless the measure comes out
negative.  ``_linear_scales`` solves the linear quartic for every column
of a design at once, for ``minimize_c`` and the mirror construction.
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

# Points of the coarse grid that brackets the non-linear c-search's basin.
_BRACKET_POINTS = 48


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
    sq = np.einsum("ij,ij->i", block, block)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (block @ block.T)
    return np.maximum(d2, 0.0)


def median_heuristic_bandwidth(data) -> float:
    """Median of the nonzero pairwise distances between rows; 1.0 when all
    rows coincide (so the resulting bandwidth is always usable)."""
    block = _as_block(data)
    d2 = _pairwise_sq_dists(block)
    iu = np.triu_indices(block.shape[0], k=1)
    dists = np.sqrt(d2[iu])
    dists = dists[dists > 0]
    if dists.size == 0:
        return 1.0
    return float(np.median(dists))


def _resolved(spec: KernelSpec, block) -> KernelSpec:
    """``spec``, with a gaussian bandwidth left unset resolved by the
    median heuristic on ``block``."""
    if spec.family == "gaussian" and spec.bandwidth is None:
        return replace(spec, bandwidth=median_heuristic_bandwidth(block))
    return spec


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
    one column, under a spec whose gaussian bandwidth is resolved."""
    if spec.family == "linear":
        k = block @ block.T
    elif spec.family == "gaussian":
        bw = spec.bandwidth
        k = np.exp(_pairwise_sq_dists(block) / (-2.0 * bw * bw))
    else:
        k = _int_power(block @ block.T + spec.offset, spec.degree)
    return (k + k.T) / 2.0


def gram_matrix(data, spec: KernelSpec) -> np.ndarray:
    """Gram matrix of the rows of ``data`` under ``spec``.

    A 1-d input is treated as a single column.  The result is exactly
    symmetric (it is symmetrized against floating point asymmetry).
    """
    spec = _check_type(spec, "spec", KernelSpec)
    block = _as_block(data)
    if block.shape[1] == 0:
        raise InvalidDataError("kernel input must have at least one column")
    return _gram(block, _resolved(spec, block))


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
    """Double-center an exactly symmetric matrix in place: H K H with
    H = I - (1/n) 11', from one vector of means (rows and columns agree)."""
    means = k.mean(axis=0)
    k -= means
    k -= (means - means.mean())[:, None]


def _magnitude(k: np.ndarray) -> float:
    """max |k| without an |k| temporary."""
    return max(float(k.max()), -float(k.min()))


def _dependence(k_u: np.ndarray, k_v: np.ndarray, k_w: np.ndarray) -> float:
    """The measure on three same-shape symmetric Gram matrices; a
    non-finite entry (an overflowing kernel) raises NumericalError.  K_U
    and K_V must be exactly symmetric, and are centered in place: the
    caller's two matrices are overwritten.  Only a negative value, which
    PSD Grams reach only by rounding, reads the three magnitudes."""
    n = k_u.shape[0]
    _center(k_u)
    _center(k_v)
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
    return _dependence(k_u, k_v, k_w)


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

    The search interval is [0, c_max_factor * ||x|| / ||z||]; a coarse
    grid of 48 points locates the basin, then golden-section
    refines to absolute tolerance tol_factor * c_max.  Both factors are
    finite reals, stored as float: c_max_factor > 0, tol_factor in (0, 1).
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

    What does not depend on c is built once, here: K_W, c_max, and what
    the halves' kernel needs of x and z.  For the gaussian family that is
    the bandwidth-scaled pairwise differences x_i - x_k and z_i - z_k
    (scaled by 1 / (sqrt(2) h), h resolved from x), so that
    K_U = exp(-(dx + c dz)**2) and K_V = exp(-(dx - c dz)**2); for the
    polynomial family it is x and z themselves.  The object also owns two
    n x n buffers (and a third, scratch for the power, for a polynomial
    degree that is not a power of two).  A call overwrites them with K_U
    and K_V (``halves``), centers them in place and checks only the
    resulting value (``_dependence``) and its square; the held
    differences and K_W are only read.
    """

    def __init__(self, x, z, w_block, spec: KernelSpec, search: SearchConfig):
        n = x.shape[0]
        self.k_w = _gram_w(w_block, spec, n)
        self.c_max = (
            search.c_max_factor * float(np.linalg.norm(x)) / float(np.linalg.norm(z))
        )
        self.spec = _resolved(spec, x)
        if self.spec.family == "gaussian":
            scale = 1.0 / (math.sqrt(2.0) * self.spec.bandwidth)
            x = np.subtract.outer(x, x)
            x *= scale
            z = np.subtract.outer(z, z)
            z *= scale
        self.x = x
        self.z = z
        self.k_u = np.empty((n, n))
        self.k_v = np.empty((n, n))
        degree = self.spec.degree
        self.scratch = (
            np.empty((n, n))
            if self.spec.family == "polynomial" and degree & (degree - 1)
            else None
        )

    def halves(self, c: float) -> tuple[np.ndarray, np.ndarray]:
        """K_U and K_V at scale c, written into the held buffers.  Both are
        exactly symmetric; the gaussian ones have a unit diagonal."""
        k_u, k_v = self.k_u, self.k_v
        if self.spec.family == "gaussian":
            # c dz goes into K_V's buffer, which dx - c dz then overwrites
            shift = np.multiply(self.z, c, out=k_v)
            np.add(self.x, shift, out=k_u)
            np.subtract(self.x, shift, out=k_v)
            for k in (k_u, k_v):
                np.square(k, out=k)
                np.negative(k, out=k)
                np.exp(k, out=k)
        else:
            for k, row in ((k_u, self.x + c * self.z), (k_v, self.x - c * self.z)):
                np.multiply.outer(row, row, out=k)
                k += self.spec.offset
                _int_power(k, self.spec.degree, self.scratch)
        return k_u, k_v

    def __call__(self, c: float) -> float:
        value = _dependence(*self.halves(c), self.k_w)
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

    Other kernels use a coarse grid to bracket the best basin on
    [0, c_max] followed by golden-section refinement.  A gaussian
    bandwidth left unset in ``spec`` is resolved once from x (for both
    mirrored halves) and once from w, and K_W is built once, so the
    objective is a fixed function of c.  A kernel that overflows (say a
    high polynomial degree) raises NumericalError naming the kernel
    family.
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
    """The grid-bracketed golden-section search of ``minimize_c``."""
    c_max = objective.c_max
    if c_max == 0.0:
        # the one evaluation still catches a kernel that overflows on x
        objective(0.0)
        return CMinimizationResult(0.0, 1)

    grid = np.linspace(0.0, c_max, _BRACKET_POINTS)
    values = [objective(c) for c in grid]
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    c_star, refinements = _golden_section(objective, lo, hi, search.tol_factor * c_max)
    return CMinimizationResult(float(c_star), len(values) + refinements)
