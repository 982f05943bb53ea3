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

Inputs are validated once, at the public entry points; the private
``_gram``, ``_center`` and ``_dependence`` behind them trust their
arguments.  ``_center`` double-centers an exactly symmetric matrix in
place, so ``_dependence`` overwrites the K_U and K_V it is given, and
``conditional_dependence`` hands it copies.  The non-linear c-search
builds one ``_Objective`` per feature.  It holds K_W with its magnitude,
the bound c_max, and, for the gaussian family, the pairwise differences
of x and of z scaled by the bandwidth resolved from x (x and z for the
polynomial family), and it owns two n x n buffers.  An evaluation
overwrites the buffers with the halves' Grams and centers them there;
it allocates no n x n array.  ``_linear_closed_form`` forms the linear
quartic's inputs for ``closed_form_c_linear``, ``minimize_c`` and the
mirror construction alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegeneratePerturbationError,
    InvalidDataError,
    NumericalError,
)

_FAMILIES = ("linear", "gaussian", "polynomial")

# Relative floor below which the quartic denominator counts as zero.
_DENOM_REL_TOL = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its parameters.

    ``bandwidth`` applies to the gaussian family; ``None`` means "resolve
    by the median pairwise distance heuristic at evaluation time".
    ``degree`` and ``offset`` apply to the polynomial family.
    """

    family: str = "gaussian"
    bandwidth: float | None = None
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigurationError(
                f"unknown kernel family {self.family!r}; expected one of {_FAMILIES}"
            )
        if self.bandwidth is not None:
            bw = float(self.bandwidth)
            if not math.isfinite(bw) or bw <= 0:
                raise ConfigurationError(
                    f"bandwidth must be positive and finite, got {self.bandwidth}"
                )
            object.__setattr__(self, "bandwidth", bw)
        if not isinstance(self.degree, int) or self.degree < 1:
            raise ConfigurationError(
                f"polynomial degree must be an integer >= 1, got {self.degree}"
            )
        offset = float(self.offset)
        if not math.isfinite(offset) or offset < 0:
            # (x.y + offset)^degree is not positive semidefinite below 0.
            raise ConfigurationError(
                f"polynomial offset must be finite and nonnegative, got {self.offset}"
            )

    def with_bandwidth(self, bandwidth: float) -> "KernelSpec":
        return KernelSpec(self.family, bandwidth, self.degree, self.offset)


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
        return spec.with_bandwidth(median_heuristic_bandwidth(block))
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


def _check_square_symmetric(k: np.ndarray, label: str) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise InvalidDataError(f"{label} must be square, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise InvalidDataError(f"{label} contains non-finite values")
    scale = np.abs(k).max() if k.size else 0.0
    if not np.allclose(k, k.T, atol=1e-8 * max(scale, 1.0), rtol=0.0):
        raise InvalidDataError(f"{label} is not symmetric")
    return k


def _center(k: np.ndarray) -> None:
    """Double-center an exactly symmetric matrix in place: H K H with
    H = I - (1/n) 11', from one vector of means (rows and columns agree)."""
    means = k.mean(axis=0)
    k -= means
    k -= (means - means.mean())[:, None]


def _magnitude(k: np.ndarray) -> float:
    """max |k| without an |k| temporary."""
    return max(float(k.max()), -float(k.min()))


@dataclass(frozen=True)
class GramTriple:
    """The three Gram matrices entering the dependence measure.

    This is the one place a triple is validated: each matrix must be
    square, finite and symmetric, and the three must agree in shape.
    ``conditional_dependence`` trusts a constructed triple.  Positive
    semidefiniteness (up to roundoff) is the producer's contract: any
    valid kernel yields it, and checking eigenvalues on every
    construction would dominate the cost of the measure itself.
    """

    k_u: np.ndarray
    k_v: np.ndarray
    k_w: np.ndarray

    def __post_init__(self):
        k_u = _check_square_symmetric(self.k_u, "k_u")
        k_v = _check_square_symmetric(self.k_v, "k_v")
        k_w = _check_square_symmetric(self.k_w, "k_w")
        if not (k_u.shape == k_v.shape == k_w.shape):
            raise InvalidDataError(
                f"gram matrices disagree in shape: {k_u.shape}, {k_v.shape}, {k_w.shape}"
            )
        object.__setattr__(self, "k_u", k_u)
        object.__setattr__(self, "k_v", k_v)
        object.__setattr__(self, "k_w", k_w)

    @classmethod
    def from_data(cls, u, v, w, spec: KernelSpec) -> "GramTriple":
        """Build the triple from raw blocks.  ``w`` may have zero columns,
        in which case K_W is the all-ones matrix (conditioning on nothing)."""
        k_u = gram_matrix(u, spec)
        k_v = gram_matrix(v, spec)
        return cls(k_u, k_v, _gram_w(_as_block(w), spec, k_u.shape[0]))


def _dependence(
    k_u: np.ndarray, k_v: np.ndarray, k_w: np.ndarray, k_w_max: float
) -> float:
    """The measure on three same-shape symmetric Gram matrices, given
    max |K_W|; a non-finite entry (an overflowing kernel) raises
    NumericalError.  K_U and K_V must be exactly symmetric, and are
    centered in place: the caller's two matrices are overwritten."""
    n = k_u.shape[0]
    _center(k_u)
    _center(k_v)
    value = float(np.einsum("ij,ij,ij->", k_u, k_v, k_w)) / (n * n)
    scale = max(1.0, _magnitude(k_u) * _magnitude(k_v) * k_w_max)
    if not math.isfinite(value):
        raise NumericalError("dependence measure is non-finite")
    if value < -1e-9 * scale:
        raise NumericalError(
            f"dependence measure is negative beyond tolerance: {value}"
        )
    return max(value, 0.0)


def conditional_dependence(grams: GramTriple) -> float:
    """Nonnegative scalar dependence between U and V given W.

    Zero (up to floating point) when U or V is constant across rows, and
    invariant to any simultaneous permutation of the rows of all three
    blocks.  The triple is left as it is: the measure centers exactly
    symmetric copies of K_U and K_V.
    """
    return _dependence(
        (grams.k_u + grams.k_u.T) / 2.0,
        (grams.k_v + grams.k_v.T) / 2.0,
        grams.k_w,
        _magnitude(grams.k_w),
    )


@dataclass(frozen=True)
class CMinimizationResult:
    """Outcome of a perturbation-scale optimization.

    ``objective_at_c_star`` is the squared dependence measure at the
    returned scale, identical in meaning for both methods.
    """

    c_star: float
    objective_at_c_star: float
    method: str
    evaluations: int


@dataclass(frozen=True)
class SearchConfig:
    """Controls the scalar search used for non-linear kernels.

    The search interval is [0, c_max_factor * ||x|| / ||z||]; a coarse
    grid of ``bracket_points`` locates the basin, then golden-section
    refines to absolute tolerance tol_factor * c_max.
    """

    c_max_factor: float = 10.0
    tol_factor: float = 1e-6
    bracket_points: int = 48

    def __post_init__(self):
        if not self.c_max_factor > 0:
            raise ConfigurationError("c_max_factor must be positive")
        if not 0 < self.tol_factor < 1:
            raise ConfigurationError("tol_factor must lie in (0, 1)")
        if self.bracket_points < 3:
            raise ConfigurationError("bracket_points must be at least 3")


def _column(data, label: str) -> np.ndarray:
    v = np.asarray(data, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise InvalidDataError(f"{label} contains non-finite values")
    return v


def _search_inputs(x, z, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x and z as finite columns of equal length n, w as the n-row
    conditioning block (zero columns when None)."""
    x = _column(x, "x")
    z = _column(z, "z")
    n = x.shape[0]
    if z.shape[0] != n:
        raise InvalidDataError(f"x and z disagree in length: {n} vs {z.shape[0]}")
    if w is None:
        return x, z, np.empty((n, 0))
    w_block = _as_block(w, "conditioning block")
    if w_block.shape[0] != n:
        raise InvalidDataError(
            f"conditioning block has {w_block.shape[0]} rows, expected {n}"
        )
    return x, z, w_block


def _linear_closed_form(
    x, z, w, w_abs, drop: int | None = None, center: bool = True
) -> CMinimizationResult:
    """``closed_form_c_linear`` on checked inputs, given |W| as ``w_abs``.
    The quartic's coefficients are inner products of W'x**2, W'z**2 and
    |W|'z**2 (squares entrywise); ``drop`` removes that column's entry
    from each, so a full design can stand in for W without a copy."""
    n = x.shape[0]
    if center:
        x = x - x.mean()
        z = z - z.mean()
    x2 = x * x
    z2 = z * z
    products = (w.T @ x2, w.T @ z2, w_abs.T @ z2)
    if drop is not None:
        products = (np.delete(v, drop) for v in products)
    wt_x2, wt_z2, abs_wt_z2 = products
    if wt_x2.size == 0:
        # Conditioning on nothing: K_W is all ones, as for the single
        # column W = 1, so each product collapses to a sum.
        wt_x2 = x2.sum(keepdims=True)
        wt_z2 = abs_wt_z2 = z2.sum(keepdims=True)
    alpha = float(wt_x2 @ wt_x2)
    beta = float(wt_x2 @ wt_z2)
    gamma = float(wt_z2 @ wt_z2)
    # Cancellation-free magnitude of gamma: if gamma is tiny against
    # this, the denominator is zero up to rounding.
    denom_scale = float(abs_wt_z2 @ abs_wt_z2)
    if not all(map(math.isfinite, (alpha, beta, gamma))):
        raise NumericalError("quartic coefficients are non-finite")
    if gamma <= _DENOM_REL_TOL * max(denom_scale, 1e-300):
        raise DegeneratePerturbationError(
            "perturbation-scale denominator vanishes; the perturbation is "
            "invisible to the conditioning block"
        )
    c_sq = max(beta, 0.0) / gamma
    c = math.sqrt(c_sq)
    value = alpha - 2.0 * beta * c_sq + gamma * c_sq * c_sq
    measure = max(value, 0.0) / (n * n)
    return CMinimizationResult(c, measure * measure, "closed_form", 0)


def closed_form_c_linear(x, z, w=None, center: bool = True) -> CMinimizationResult:
    """Exact minimizer of the linear-kernel objective over c >= 0.

    ``x`` and ``z`` are single columns, ``w`` the remaining columns (may
    be None or have zero columns).  With ``center=True`` (the default) x
    and z are mean-centered first, which matches what the dependence
    measure's centering does to linear Gram matrices; pass False when the
    inputs are already centered.

    The objective is an even quartic a - 2 b c**2 + g c**4; its minimizer
    is sqrt(b/g) when b > 0 and 0 otherwise.  A vanishing denominator g
    means z is perturbing in directions the conditioning block cannot
    see, and raises DegeneratePerturbationError.
    """
    x, z, w_block = _search_inputs(x, z, w)
    return _linear_closed_form(x, z, w_block, np.abs(w_block), center=center)


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

    What does not depend on c is built once, here: K_W with its
    magnitude, c_max, and what the halves' kernel needs of x and z.  For
    the gaussian family that is the bandwidth-scaled pairwise differences
    x_i - x_k and z_i - z_k (scaled by 1 / (sqrt(2) h), h resolved from
    x), so that K_U = exp(-(dx + c dz)**2) and K_V = exp(-(dx - c dz)**2);
    for the polynomial family it is x and z themselves.  The object also
    owns two n x n buffers (and a third, scratch for the power, for a
    polynomial degree that is not a power of two).  A call overwrites
    them with K_U and K_V (``halves``), centers them in place
    (``_dependence``), and validates nothing; the held differences and
    K_W are only read.
    """

    def __init__(self, x, z, w_block, spec: KernelSpec, search: SearchConfig):
        n = x.shape[0]
        self.k_w = _gram_w(w_block, spec, n)
        self.k_w_max = _magnitude(self.k_w)
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
        value = _dependence(*self.halves(c), self.k_w, self.k_w_max)
        return value * value


def minimize_c(
    x,
    z,
    w=None,
    spec: KernelSpec = KernelSpec("linear"),
    search: SearchConfig = SearchConfig(),
) -> CMinimizationResult:
    """Scale c minimizing dep(x + c z, x - c z | w) over c >= 0.

    Linear kernels take the closed form.  Other kernels use a coarse
    grid to bracket the best basin on [0, c_max] followed by
    golden-section refinement.  A gaussian bandwidth left unset in
    ``spec`` is resolved once from x (for both mirrored halves) and once
    from w, and K_W is built once, so the objective is a fixed function
    of c.  A kernel that overflows (say a high polynomial degree) raises
    NumericalError naming the kernel family.
    """
    x, z, w_block = _search_inputs(x, z, w)
    if float(np.linalg.norm(z)) == 0.0:
        raise DegeneratePerturbationError("perturbation z is identically zero")

    if spec.family == "linear":
        return _linear_closed_form(x, z, w_block, np.abs(w_block))

    try:
        with np.errstate(over="raise", invalid="raise"):
            return _scalar_search(_Objective(x, z, w_block, spec, search), search)
    except FloatingPointError as err:
        raise NumericalError(f"{spec.family} kernel overflowed: {err}") from err


def _scalar_search(objective: _Objective, search: SearchConfig) -> CMinimizationResult:
    """The grid-bracketed golden-section search of ``minimize_c``."""
    c_max = objective.c_max
    if c_max == 0.0:
        return CMinimizationResult(0.0, objective(0.0), "scalar_search", 1)

    grid = np.linspace(0.0, c_max, search.bracket_points)
    values = [objective(c) for c in grid]
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    c_star, refinements = _golden_section(objective, lo, hi, search.tol_factor * c_max)
    result_value = objective(c_star)
    if not math.isfinite(result_value):
        raise NumericalError(f"objective is non-finite at c={c_star}")
    return CMinimizationResult(
        float(c_star), result_value, "scalar_search", len(values) + refinements + 1
    )
