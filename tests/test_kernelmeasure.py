import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mirrorselect import (
    CMinimizationResult,
    ConfigurationError,
    Dataset,
    DegeneratePerturbationError,
    InvalidDataError,
    KernelSpec,
    NumericalError,
    SearchConfig,
    conditional_dependence,
    gram_matrix,
    median_heuristic_bandwidth,
    minimize_c,
)
from mirrorselect import kernelmeasure
from mirrorselect.mirror import make_all_mirrors
from conftest import (
    dependence_on_grid, golden_section, grid_search, naive_conditional_dependence,
)

LINEAR = KernelSpec("linear")


# ---------------------------------------------------------------- kernels


def test_kernel_spec_validation():
    with pytest.raises(ConfigurationError):
        KernelSpec("cubic")
    with pytest.raises(ConfigurationError):
        KernelSpec("gaussian", bandwidth=0.0)
    with pytest.raises(ConfigurationError):
        KernelSpec("gaussian", bandwidth=-1.0)
    with pytest.raises(ConfigurationError):
        KernelSpec("polynomial", degree=0)
    with pytest.raises(ConfigurationError):
        KernelSpec("polynomial", offset=np.inf)
    with pytest.raises(ConfigurationError):
        KernelSpec("polynomial", offset=-0.5)  # not positive semidefinite
    assert KernelSpec("polynomial", offset=0.0).offset == 0.0


def test_linear_gram_by_hand():
    k = gram_matrix(np.array([1.0, 2.0]), LINEAR)
    np.testing.assert_allclose(k, [[1.0, 2.0], [2.0, 4.0]], rtol=0, atol=0)


def test_gaussian_gram_identical_rows():
    k = gram_matrix(np.array([0.0, 0.0]), KernelSpec("gaussian", bandwidth=0.7))
    np.testing.assert_allclose(k, np.ones((2, 2)), rtol=0, atol=0)


def test_gaussian_gram_scalar_oracle():
    # k(x, y) = exp(-(x - y)^2 / (2 sigma^2)) with sigma = 2
    k = gram_matrix(np.array([1.0, 3.0]), KernelSpec("gaussian", bandwidth=2.0))
    np.testing.assert_allclose(k[0, 1], math.exp(-0.5), rtol=1e-15)
    np.testing.assert_allclose(np.diag(k), 1.0, rtol=0, atol=0)


def test_polynomial_gram_by_hand():
    k = gram_matrix(np.array([1.0, 2.0]), KernelSpec("polynomial", degree=2, offset=1.0))
    np.testing.assert_allclose(k, [[4.0, 9.0], [9.0, 25.0]], rtol=1e-15)


def test_gram_rejects_non_finite():
    with pytest.raises(InvalidDataError):
        gram_matrix(np.array([1.0, np.nan]), LINEAR)


def test_gram_rejects_a_block_with_no_rows():
    with pytest.raises(InvalidDataError, match="at least one row"):
        gram_matrix(np.empty((0, 2)), LINEAR)


def test_gram_rejects_a_block_with_no_columns():
    with pytest.raises(InvalidDataError, match="at least one column"):
        gram_matrix(np.empty((4, 0)), LINEAR)


@pytest.mark.parametrize(
    "spec",
    [LINEAR, KernelSpec("gaussian", bandwidth=1.3), KernelSpec("polynomial", degree=2)],
)
def test_gram_matrices_are_symmetric_psd(gen, spec):
    for _ in range(5):
        data = gen.standard_normal((gen.integers(2, 25), gen.integers(1, 4)))
        k = gram_matrix(data, spec)
        np.testing.assert_array_equal(k, k.T)
        eigs = np.linalg.eigvalsh(k)
        assert eigs.min() >= -1e-8 * max(eigs.max(), 1.0)


def test_median_heuristic_by_hand():
    # pairwise distances of {0, 3, 4} are {3, 4, 1}; median 3
    assert median_heuristic_bandwidth(np.array([0.0, 3.0, 4.0])) == 3.0


def test_median_heuristic_degenerate_rows():
    assert median_heuristic_bandwidth(np.zeros(5)) == 1.0


# ------------------------------------------------------- dependence measure


def test_dependence_n1_is_zero():
    one = np.array([[2.0, 3.0]])
    for spec in (LINEAR, KernelSpec("gaussian"), KernelSpec("polynomial", degree=3)):
        assert conditional_dependence(one, one + 1.0, one - 1.0, spec) == 0.0


def test_dependence_constant_block_is_zero(gen):
    n = 15
    u = np.full(n, 2.0)
    v = gen.standard_normal(n)
    w = gen.standard_normal((n, 3))
    assert conditional_dependence(u, v, w, LINEAR) == 0.0


@pytest.mark.parametrize(
    "spec",
    [LINEAR, KernelSpec("gaussian", bandwidth=0.9), KernelSpec("polynomial", degree=3)],
)
def test_dependence_matches_naive_double_sum(gen, spec):
    for _ in range(4):
        n = int(gen.integers(2, 21))
        u = gen.standard_normal(n)
        v = 0.6 * u + gen.standard_normal(n)
        w = gen.standard_normal((n, 2))
        fast = conditional_dependence(u, v, w, spec)
        slow = naive_conditional_dependence(
            gram_matrix(u, spec), gram_matrix(v, spec), gram_matrix(w, spec)
        )
        np.testing.assert_allclose(fast, max(slow, 0.0), rtol=1e-10, atol=1e-12)


def test_dependence_permutation_invariant(gen):
    n = 18
    u = gen.standard_normal(n)
    v = gen.standard_normal(n)
    w = gen.standard_normal((n, 2))
    base = conditional_dependence(u, v, w, LINEAR)
    perm = gen.permutation(n)
    shuffled = conditional_dependence(u[perm], v[perm], w[perm], LINEAR)
    np.testing.assert_allclose(shuffled, base, rtol=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        LINEAR,
        KernelSpec("gaussian"),
        KernelSpec("gaussian", bandwidth=0.7),
        KernelSpec("polynomial", degree=3, offset=0.5),
    ],
    ids=["linear", "gaussian", "gaussian-bandwidth", "polynomial"],
)
@pytest.mark.parametrize("d_u, d_v", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_dependence_is_the_measure_on_the_public_grams(gen, spec, d_u, d_v):
    # bitwise: the same Grams, centered and summed in the same order
    for n in (2, 17, 40):
        u = gen.standard_normal((n, d_u))
        v = gen.standard_normal((n, d_v))
        w = gen.standard_normal((n, 3))
        expect = kernelmeasure._dependence(
            np.stack((gram_matrix(u, spec), gram_matrix(v, spec))), gram_matrix(w, spec)
        )
        assert conditional_dependence(u, v, w, spec) == expect


def test_dependence_conditioning_on_nothing(gen):
    # no w, a zero-column w, and a constant column under the gaussian
    # kernel all give the all-ones K_W
    n = 12
    u = gen.standard_normal(n)
    v = u + gen.standard_normal(n)
    spec = KernelSpec("gaussian")
    none = conditional_dependence(u, v, None, spec)
    assert none > 0.0
    assert conditional_dependence(u, v, np.empty((n, 0)), spec) == none
    assert conditional_dependence(u, v, np.full((n, 1), 3.0), spec) == none


def test_dependence_overflow_is_numerical_error(gen):
    # as in minimize_c: an overflowing kernel is a computation failure
    # (exit 4), not malformed input
    u, v, w = 100.0 * gen.standard_normal((3, 12))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            conditional_dependence(u, v, w, KernelSpec("polynomial", degree=400))


@pytest.mark.parametrize("n", [1, 2, 17, 40, 129])
def test_center_on_a_stack_is_each_matrix_centered_alone(gen, n):
    grams = [gram_matrix(gen.standard_normal((n, 2)), spec)
             for spec in (KernelSpec("gaussian"), KernelSpec("polynomial", degree=3))]
    stack = np.stack(grams)
    kernelmeasure._center(stack)
    for gram, centered in zip(grams, stack):
        kernelmeasure._center(gram)
        np.testing.assert_array_equal(centered, gram)


def _correlated_grams(gen, n=12):
    u = gen.standard_normal(n)
    return gram_matrix(u, LINEAR), gram_matrix(u + 0.3 * gen.standard_normal(n), LINEAR)


def test_dependence_rejects_a_non_psd_conditioning_gram(gen):
    n = 12
    k_u, k_v = _correlated_grams(gen, n)
    with pytest.raises(NumericalError, match="negative beyond tolerance"):
        kernelmeasure._dependence(np.stack((k_u, k_v)), -np.ones((n, n)))


def test_dependence_clips_a_negative_value_within_tolerance(gen):
    n = 12
    k_u, k_v = _correlated_grams(gen, n)
    k_w = -1e-12 * np.ones((n, n))
    raw = naive_conditional_dependence(k_u, k_v, k_w)
    assert -1e-9 < raw < 0.0
    assert kernelmeasure._dependence(np.stack((k_u, k_v)), k_w) == 0.0


def test_conditional_dependence_leaves_its_inputs_unchanged(gen):
    u, v, w = gen.standard_normal((3, 15, 2))
    before = [a.copy() for a in (u, v, w)]
    first = conditional_dependence(u, v, w, KernelSpec("gaussian"))
    assert conditional_dependence(u, v, w, KernelSpec("gaussian")) == first
    for a, kept in zip((u, v, w), before):
        np.testing.assert_array_equal(a, kept)


# --------------------------------------------------------- closed-form c*


def test_closed_form_x_equals_z(gen):
    x = gen.standard_normal(25)
    w = gen.standard_normal((25, 4))
    res = minimize_c(x, x.copy(), w)
    assert res.evaluations == 0
    np.testing.assert_allclose(res.c_star, 1.0, rtol=1e-12)


def test_closed_form_hand_instance():
    # x=(1,0), z=(0,1), W a single ones column: centered, x and z both
    # square to (1/4, 1/4), so W'x**2 = W'z**2 = 1/2 and c* = 1
    res = minimize_c(
        np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.ones((2, 1))
    )
    np.testing.assert_allclose(res.c_star, 1.0, rtol=1e-14)


def test_closed_form_homogeneous_in_x(gen):
    x = gen.standard_normal(30)
    z = gen.standard_normal(30)
    w = gen.standard_normal((30, 5))
    base = minimize_c(x, z, w).c_star
    for a in (0.5, 2.0, 17.0):
        scaled = minimize_c(a * x, z, w).c_star
        np.testing.assert_allclose(scaled, a * base, rtol=1e-12)


def test_closed_form_zero_z_degenerate(gen):
    x = gen.standard_normal(10)
    w = gen.standard_normal((10, 2))
    with pytest.raises(DegeneratePerturbationError):
        minimize_c(x, np.zeros(10), w)


def test_closed_form_empty_w(gen):
    # conditioning on nothing: beta = gamma-style sums of squares
    x = gen.standard_normal(12)
    z = gen.standard_normal(12)
    res = minimize_c(x, z, None)
    xc = x - x.mean()
    zc = z - z.mean()
    expect = math.sqrt((xc @ xc) / (zc @ zc))
    np.testing.assert_allclose(res.c_star, expect, rtol=1e-12)


def test_closed_form_matches_golden_section(gen):
    for _ in range(10):
        n = int(gen.integers(10, 31))
        x = gen.standard_normal(n)
        z = gen.standard_normal(n)
        w = gen.standard_normal((n, int(gen.integers(1, 5))))
        cf = minimize_c(x, z, w)
        gs = _golden_section_oracle(x, z, w)
        if cf.c_star == 0.0:
            # boundary minimizer: search lands within its tolerance of 0
            assert gs <= 1e-3 * 10.0 * np.linalg.norm(x) / np.linalg.norm(z)
        else:
            np.testing.assert_allclose(cf.c_star, gs, rtol=1e-4)


def _golden_section_oracle(x, z, w, lo=0.0, hi=None):
    """Plain golden-section minimization of the squared measure, written
    against the public measure function only."""
    xc = x - x.mean()
    zc = z - z.mean()

    def objective(c):
        return conditional_dependence(xc + c * zc, xc - c * zc, w, LINEAR) ** 2

    if hi is None:
        hi = 10.0 * np.linalg.norm(x) / np.linalg.norm(z)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - ratio * (b - a)
    c2 = a + ratio * (b - a)
    f1, f2 = objective(c1), objective(c2)
    while b - a > 1e-10 * hi:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - ratio * (b - a)
            f1 = objective(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + ratio * (b - a)
            f2 = objective(c2)
    return (a + b) / 2.0


# ------------------------------------------------------------- minimize_c


def test_minimize_c_linear_delegates(gen):
    x = gen.standard_normal(20)
    z = gen.standard_normal(20)
    w = gen.standard_normal((20, 3))
    (direct,) = kernelmeasure._linear_scales(np.column_stack([x, w]), z[:, None])
    via = minimize_c(x, z, w, LINEAR)
    assert via.evaluations == 0
    assert via.c_star == direct


def test_minimize_c_gaussian_dense_grid_oracle(gen):
    n = 20
    x = gen.standard_normal(n)
    z = gen.standard_normal(n)
    w = gen.standard_normal((n, 2))
    spec = KernelSpec("gaussian", bandwidth=1.2)
    res = minimize_c(x, z, w, spec)

    k_w = gram_matrix(w, spec)

    def objective(c):
        return conditional_dependence(x + c * z, x - c * z, w, spec) ** 2

    def gaussian(cols):
        d = cols[:, :, None] - cols[:, None, :]
        return np.exp(d * d / (-2.0 * spec.bandwidth**2))

    c_max = 10.0 * np.linalg.norm(x) / np.linalg.norm(z)
    grid = np.linspace(0.0, c_max, 100001)
    values = dependence_on_grid(x, z, k_w, grid, gaussian) ** 2
    arg = int(np.argmin(values))
    for i in [*range(0, len(grid), 100), arg]:
        np.testing.assert_allclose(values[i], objective(grid[i]), rtol=1e-12)
    best = grid[arg]
    assert abs(res.c_star - best) <= 1e-3 * max(1.0, best)
    # the search converged past the grid's resolution: its c beats every
    # one of the 100,001 grid points
    assert objective(res.c_star) <= values[arg]


@pytest.mark.parametrize(
    "spec",
    [KernelSpec("gaussian", bandwidth=0.8), KernelSpec("polynomial", degree=2)],
)
def test_minimize_c_local_minimum_probes(gen, spec):
    n = 25
    x = gen.standard_normal(n)
    z = gen.standard_normal(n)
    w = gen.standard_normal((n, 3))
    res = minimize_c(x, z, w, spec)

    def objective(c):
        return conditional_dependence(x + c * z, x - c * z, w, spec) ** 2

    got = objective(res.c_star)
    slack = 1e-9 * max(got, 1e-300)
    assert got <= objective(res.c_star * 1.01) + slack
    assert got <= objective(res.c_star * 0.99) + slack


def test_minimize_c_resolves_bandwidth_once(gen):
    x = gen.standard_normal(15)
    z = gen.standard_normal(15)
    auto = minimize_c(x, z, None, KernelSpec("gaussian"))
    pinned = minimize_c(
        x, z, None, KernelSpec("gaussian", bandwidth=median_heuristic_bandwidth(x))
    )
    assert auto.c_star == pinned.c_star


def test_minimize_c_zero_z(gen):
    x = gen.standard_normal(10)
    with pytest.raises(DegeneratePerturbationError):
        minimize_c(x, np.zeros(10), None, KernelSpec("gaussian", bandwidth=1.0))


def test_minimize_c_zero_x_returns_zero(gen):
    z = gen.standard_normal(10)
    res = minimize_c(np.zeros(10), z, None, KernelSpec("gaussian", bandwidth=1.0))
    assert res.c_star == 0.0


def test_even_objective_flat_gradient_at_minimizer(gen):
    # the linear-kernel objective is an even polynomial in c, so its
    # numeric derivative at the minimizer must vanish
    for _ in range(5):
        n = int(gen.integers(12, 40))
        x = gen.standard_normal(n)
        z = gen.standard_normal(n)
        w = gen.standard_normal((n, 3))
        res = minimize_c(x, z, w)

        xc = x - x.mean()
        zc = z - z.mean()

        def big_g(c):
            value = conditional_dependence(xc + c * zc, xc - c * zc, w, LINEAR)
            return n * n * value**2

        # G is even in c (negative c swaps the mirrored halves), so the
        # central difference is valid through c = 0
        h = 1e-4 * (res.c_star if res.c_star > 0 else 1.0)
        grad = (big_g(res.c_star + h) - big_g(res.c_star - h)) / (2 * h)
        assert abs(grad) <= 1e-6 * abs(big_g(res.c_star)) + 1e-9


def _malformed_search_inputs():
    x = np.linspace(-1.0, 1.0, 10)
    z = np.cos(np.arange(10.0))
    w = np.ones((10, 2))
    nan_x = x.copy()
    nan_x[3] = np.nan
    inf_w = w.copy()
    inf_w[0, 1] = np.inf
    return {
        "x and z lengths": (x, z[:9], w),
        "non-finite x": (nan_x, z, w),
        "non-finite z": (x, np.full(10, np.inf), w),
        "w rows": (x, z, w[:9]),
        "non-finite w": (x, z, inf_w),
        "3-d w": (x, z, np.ones((10, 2, 2))),
    }


@pytest.mark.parametrize("case", sorted(_malformed_search_inputs()))
@pytest.mark.parametrize(
    "search",
    [
        lambda x, z, w: minimize_c(x, z, w, LINEAR),
        lambda x, z, w: minimize_c(x, z, w, KernelSpec("gaussian")),
        lambda u, v, w: conditional_dependence(u, v, w, LINEAR),
        lambda u, v, w: conditional_dependence(u, v, w, KernelSpec("gaussian")),
    ],
    ids=[
        "minimize_c_linear",
        "minimize_c_gaussian",
        "conditional_dependence_linear",
        "conditional_dependence_gaussian",
    ],
)
def test_c_search_rejects_malformed_inputs(case, search):
    x, z, w = _malformed_search_inputs()[case]
    with pytest.raises(InvalidDataError):
        search(x, z, w)


def test_minimize_c_overflow_is_numerical_error(gen):
    # (x.y + 1)**400 overflows to inf: a computation failure (exit 4),
    # not malformed input (exit 3)
    x = gen.standard_normal(12)
    z = gen.standard_normal(12)
    w = gen.standard_normal((12, 3))
    with pytest.raises(NumericalError, match="polynomial kernel overflowed"):
        minimize_c(x, z, w, KernelSpec("polynomial", degree=400))


@pytest.mark.parametrize("spec", [LINEAR, KernelSpec("gaussian")], ids=["linear", "gaussian"])
@pytest.mark.parametrize("w_rows", [None, 30], ids=["w-none", "w-30-rows"])
@pytest.mark.parametrize("two_d", ["x", "z"])
def test_minimize_c_rejects_more_than_one_column(gen, spec, w_rows, two_d):
    # a (30, 2) x or z is not flattened into one 60-row column
    x = gen.standard_normal((30, 2) if two_d == "x" else 30)
    z = gen.standard_normal((30, 2) if two_d == "z" else 30)
    w = None if w_rows is None else gen.standard_normal((w_rows, 3))
    with pytest.raises(InvalidDataError, match=r"one column each, got .*\(30, 2\)"):
        minimize_c(x, z, w, spec)


def test_minimize_c_takes_a_single_column_as_a_1d_array(gen):
    x = gen.standard_normal(30)
    z = gen.standard_normal(30)
    w = gen.standard_normal((30, 3))
    for spec in (LINEAR, KernelSpec("gaussian")):
        assert minimize_c(x[:, None], z[:, None], w, spec) == minimize_c(x, z, w, spec)


def test_linear_closed_form_overflow_is_numerical_error(gen):
    # squares of 1e200 overflow: one NumericalError (exit 4), and numpy
    # prints no warning on the way (pytest turns warnings into errors)
    x = gen.standard_normal(12)
    z = gen.standard_normal(12)
    w = gen.standard_normal((12, 3))
    with pytest.raises(NumericalError, match="quartic coefficients are non-finite"):
        minimize_c(1e200 * x, z, w, LINEAR)
    dataset = Dataset(1e200 * np.column_stack([x, w]), z)
    with pytest.raises(NumericalError, match=r"feature 0 \(x0\): quartic coefficients"):
        make_all_mirrors(dataset, LINEAR)


def test_c_search_reads_no_magnitudes(gen, monkeypatch):
    # the negativity guard reads the Grams' magnitudes only for a
    # negative value, which this search never reaches
    calls = []
    magnitude = kernelmeasure._magnitude

    def counting_magnitude(k):
        calls.append(k.shape)
        return magnitude(k)

    monkeypatch.setattr(kernelmeasure, "_magnitude", counting_magnitude)
    n = 20
    res = minimize_c(
        gen.standard_normal(n),
        gen.standard_normal(n),
        gen.standard_normal((n, 3)),
        KernelSpec("gaussian"),
    )
    assert res.evaluations > 0
    assert calls == []


def test_minimize_c_overflowing_squared_measure_is_numerical_error(gen, monkeypatch):
    # the measure is finite, its square is not: exit 4, not a c
    monkeypatch.setattr(kernelmeasure, "_dependence", lambda *grams: 1e200)
    n = 10
    with pytest.raises(NumericalError, match="objective is non-finite"):
        minimize_c(
            gen.standard_normal(n),
            gen.standard_normal(n),
            None,
            KernelSpec("gaussian", bandwidth=1.0),
        )


class _PublicObjective:
    """minimize_c's objective from the public Grams, resolved as
    minimize_c's docstring says: an unset gaussian bandwidth from x for
    both halves, and from w for K_W (all ones without w).  One spec
    cannot say that to ``conditional_dependence``, so the Grams come
    from ``gram_matrix`` and the measure from its private core."""

    def __init__(self, x, z, w, spec):
        n = x.shape[0]
        if spec.family == "gaussian" and spec.bandwidth is None:
            self.spec = replace(spec, bandwidth=median_heuristic_bandwidth(x))
        else:
            self.spec = spec
        self.k_w = gram_matrix(w, spec) if w.shape[1] else np.ones((n, n))
        self.c_max = (
            SearchConfig().c_max_factor
            * float(np.linalg.norm(x))
            / float(np.linalg.norm(z))
        )
        sd_z = float(np.std(z))
        self.ratio = float(np.std(x)) / sd_z if sd_z > 0.0 else math.nan
        self.x = x
        self.z = z

    def __call__(self, c):
        value = kernelmeasure._dependence(
            np.stack((
                gram_matrix(self.x + c * self.z, self.spec),
                gram_matrix(self.x - c * self.z, self.spec),
            )),
            self.k_w,
        )
        return value * value


def _assert_is_the_public_search(res, x, z, w, spec):
    # The same search driven by the public functions takes as many
    # evaluations and lands on c* to 1e-10 c_max.  The private objective
    # forms its Grams and centering in another order than the public
    # measure, so at c* the two agree to rtol 1e-12; Brent's parabolic
    # steps read those values, so the two c* are not bitwise equal (at
    # most 3.2e-12 c_max apart on the 200-problem battery below).
    public = _PublicObjective(x, z, w, spec)
    ref = kernelmeasure._scalar_search(public, SearchConfig())
    private = kernelmeasure._Objective(x, z, w, spec, SearchConfig())
    assert abs(res.c_star - ref.c_star) <= 1e-10 * private.c_max
    assert res.evaluations == ref.evaluations
    np.testing.assert_allclose(
        private(res.c_star), public(res.c_star), rtol=1e-12, atol=0
    )


def test_minimize_c_does_not_revalidate_grams(gen, monkeypatch):
    n = 20
    x = gen.standard_normal(n)
    z = gen.standard_normal(n)
    w = gen.standard_normal((n, 2))
    checks = []
    check = kernelmeasure._as_block

    def counting_check(data, label="kernel input"):
        checks.append(label)
        return check(data, label)

    monkeypatch.setattr(kernelmeasure, "_as_block", counting_check)
    spec = KernelSpec("gaussian")
    short = minimize_c(x, z, w, spec, SearchConfig(tol_factor=0.5))
    per_search = len(checks)
    res = minimize_c(x, z, w, spec)
    assert res.evaluations > short.evaluations
    # the search validates its inputs, not each evaluation
    assert len(checks) == 2 * per_search

    # the public measure validates its blocks on every call
    checks.clear()
    conditional_dependence(x, z, w, spec)
    per_call = len(checks)
    assert per_call > 0
    for _ in range(4):
        conditional_dependence(x, z, w, spec)
    assert len(checks) == 5 * per_call

    _assert_is_the_public_search(res, x, z, w, spec)


@pytest.mark.parametrize(
    "spec, w_columns",
    [
        (KernelSpec("gaussian"), 0),
        (KernelSpec("gaussian"), 3),
        (KernelSpec("polynomial", degree=2), 3),
    ],
    ids=["gaussian-no-w", "gaussian-w3", "polynomial-w3"],
)
def test_objective_at_the_chosen_c_is_the_public_measure(gen, spec, w_columns):
    n = 20
    x = gen.standard_normal(n)
    z = gen.standard_normal(n)
    w = gen.standard_normal((n, w_columns))
    _assert_is_the_public_search(minimize_c(x, z, w, spec), x, z, w, spec)


_BATTERY = ["gaussian", "gaussian-bandwidth", "polynomial-2", "polynomial-3"]


def _battery(seed, family):
    """50 fixed-seed problems (x, z, w, spec) of one kernel family: W
    with 0-7 columns, n from 3 to 150."""
    gen = np.random.default_rng(seed)
    for _ in range(50):
        n = int(gen.integers(3, 151))
        x = gen.standard_normal(n)
        z = gen.standard_normal(n)
        w = gen.standard_normal((n, int(gen.integers(0, 8))))
        if family == "gaussian":
            spec = KernelSpec("gaussian")
        elif family == "gaussian-bandwidth":
            spec = KernelSpec("gaussian", bandwidth=float(gen.uniform(0.3, 3.0)))
        else:
            spec = KernelSpec("polynomial", degree=int(family[-1]))
        yield x, z, w, spec


@pytest.mark.parametrize("seed, family", enumerate(_BATTERY))
def test_c_search_matches_the_public_search_battery(seed, family):
    for x, z, w, spec in _battery(seed, family):
        _assert_is_the_public_search(minimize_c(x, z, w, spec), x, z, w, spec)


def test_c_search_matches_the_grid_search_oracle(monkeypatch, report):
    # The battery above, and again with x shifted by 3: the search
    # bracketed around sd(x) / sd(z) lands within two tolerances of the
    # 48-point grid search it replaced, and at least one of its searches
    # widens the bracket.  A search widened when it ran Brent's method
    # more than once.  Brent takes 11.8 evaluations per search on the
    # mean here, against 25.7 for golden section on the same brackets.
    search = SearchConfig()
    runs = []
    brent = kernelmeasure._brent

    def counting_brent(*args):
        runs[-1] += 1
        return brent(*args)

    monkeypatch.setattr(kernelmeasure, "_brent", counting_brent)
    widened, evaluations = {}, []
    for seed, family in enumerate(_BATTERY):
        for shift in (0.0, 3.0):
            label = f"{family} x+{shift:g}"
            widened[label] = 0
            for x, z, w, spec in _battery(seed, family):
                x = x + shift
                runs.append(0)
                res = minimize_c(x, z, w, spec)
                widened[label] += runs[-1] > 1
                evaluations.append(res.evaluations)
                objective = kernelmeasure._Objective(x, z, w, spec, search)
                c_grid = grid_search(objective, search)
                assert abs(res.c_star - c_grid) <= 2.0 * search.tol_factor * objective.c_max
    mean_evaluations = sum(evaluations) / len(evaluations)
    report.append(
        f"c-search oracle battery: {sum(widened.values())} of {len(runs)} searches widened "
        "(" + ", ".join(f"{label}: {count}" for label, count in widened.items()) + "); "
        f"evaluations per search: mean {mean_evaluations:.1f}, max {max(evaluations)}"
    )
    assert sum(widened.values()) >= 1
    assert mean_evaluations <= 16.0


_SQRT_EPS = math.sqrt(np.finfo(float).eps)


class _Counted:
    """A function of c that counts its calls and records the smallest
    distance from a point it is called at to the best point before it
    (the lowest value, the latest of equal ones).  A 200th call fails
    the test, so a search that does not converge does not hang it."""

    def __init__(self, f):
        self.f, self.calls = f, 0
        self.best = None
        self.closest = math.inf

    def __call__(self, c):
        self.calls += 1
        assert self.calls < 200, "the search does not converge"
        value = self.f(c)
        if self.best is not None:
            self.closest = min(self.closest, abs(c - self.best[0]))
        if self.best is None or value <= self.best[1]:
            self.best = (c, value)
        return value


@pytest.mark.parametrize(
    "shape, c0, a, b",
    [
        ("parabola", 1.3, 0.5, 2.0),
        ("parabola", 0.5, 0.5, 2.0),
        ("parabola", 2.0, 0.5, 2.0),
        ("parabola", 0.0, 0.0, 7.5),
        ("v", 1.3, 0.5, 2.0),
        ("v", 0.0, 0.0, 7.5),
        ("v", 7.5, 0.0, 7.5),
    ],
    ids=["parabola-inside", "parabola-at-a", "parabola-at-b", "parabola-at-0",
         "v-inside", "v-at-a", "v-at-b"],
)
@pytest.mark.parametrize("tol", [1e-2, 1e-5, 1e-9])
def test_brent_lands_within_its_tolerance(shape, c0, a, b, tol):
    # the minimizer of a unimodal f on [a, b] lies within
    # 2 tol1 = 2 (tol / 3 + sqrt(eps) |c|) of the returned c, and no
    # evaluation falls within tol1 >= tol / 3 of the best point so far;
    # on a V, |c - c0|, the parabolas through three points are rejected
    # or miss, and golden-section steps carry the search
    f = _Counted((lambda c: (c - c0) ** 2) if shape == "parabola" else (lambda c: abs(c - c0)))
    c, evaluations = kernelmeasure._brent(f, a, b, tol)
    assert a <= c <= b
    assert abs(c - c0) <= 2.0 * (tol / 3.0 + _SQRT_EPS * abs(c))
    assert f.closest >= tol / 3.0 * (1.0 - 1e-9)
    assert evaluations == f.calls
    if shape == "parabola" and a < c0 < b:
        # parabolic steps find a parabola's vertex in fewer evaluations
        # than golden section needs for the same tolerance
        assert evaluations < golden_section(f.f, a, b, tol)[1]


@pytest.mark.parametrize("tol", [1e-2, 1e-9])
def test_brent_on_a_constant_function(tol):
    # every point minimizes a constant, so any c in [a, b] is right;
    # ties move the best point, and the search still stops
    f = _Counted(lambda c: 1.0)
    c, evaluations = kernelmeasure._brent(f, 0.5, 2.0, tol)
    assert 0.5 <= c <= 2.0
    assert f.closest >= tol / 3.0 * (1.0 - 1e-9)
    assert evaluations == f.calls


class _Parabola:
    """(c - c0)**2 as a c-search objective on [0, c_max] with the
    bracket centre ``ratio``; counts its calls."""

    def __init__(self, c0, ratio, c_max=10.0):
        self.c0, self.ratio, self.c_max = c0, ratio, c_max
        self.calls = 0

    def __call__(self, c):
        self.calls += 1
        return (c - self.c0) ** 2


@pytest.mark.parametrize(
    "c0, ratio, brackets",
    [
        (1.5, 1.0, [(0.5, 2.0)]),
        (0.0, 1.0, [(0.5, 2.0), (0.0, 2.0)]),
        (5.0, 1.0, [(0.5, 2.0), (0.5, 8.0)]),
        (10.0, 1.0, [(0.5, 2.0), (0.5, 8.0), (0.5, 10.0)]),
        (3.0, 40.0, [(10.0, 10.0), (0.0, 10.0)]),
        (0.0, 0.0, []),
        (3.0, math.inf, [(0.0, 10.0)]),
        (3.0, math.nan, [(0.0, 10.0)]),
    ],
    ids=["inside", "at-0", "at-5r", "at-c_max", "r-past-c_max", "r-0", "r-inf", "r-nan"],
)
def test_scalar_search_widens_the_bracket(monkeypatch, c0, ratio, brackets):
    # a c within two tolerances of an end other than 0 or c_max widens
    # that end, a low one to 0 and a high one fourfold up to c_max; a
    # ratio of 0 (a constant x) evaluates c = 0 alone, and one that is
    # not finite searches all of [0, c_max]
    objective = _Parabola(c0, ratio)
    seen = []
    brent = kernelmeasure._brent

    def recording_brent(f, a, b, tol):
        seen.append((a, b))
        return brent(f, a, b, tol)

    monkeypatch.setattr(kernelmeasure, "_brent", recording_brent)
    search = SearchConfig()
    res = kernelmeasure._scalar_search(objective, search)
    assert seen == brackets
    assert 0.0 <= res.c_star <= objective.c_max
    assert abs(res.c_star - c0) <= search.tol_factor * objective.c_max
    assert res.evaluations == objective.calls > 0


def test_constant_z_searches_the_whole_interval(gen):
    # sd(z) = 0 leaves the bracket's centre undefined: the search covers
    # [0, c_max], without a warning (a constant z leaves the gaussian
    # objective flat in c, so rounding picks its c)
    n = 20
    x = gen.standard_normal(n)
    w = gen.standard_normal((n, 2))
    spec = KernelSpec("gaussian")
    z = np.full(n, 3.0)
    objective = kernelmeasure._Objective(x, z, w, spec, SearchConfig())
    assert math.isnan(objective.ratio)
    res = minimize_c(x, z, w, spec)
    assert 0.0 <= res.c_star <= objective.c_max
    assert res.evaluations > 0


@pytest.mark.parametrize(
    "spec",
    [KernelSpec("gaussian"), KernelSpec("polynomial", degree=3)],
    ids=["gaussian", "polynomial"],
)
def test_constant_x_gives_c_zero_after_one_evaluation(spec):
    # a constant x: at c = 0 both halves are x and the objective is 0,
    # while on [0, c_max] it is not unimodal; the one evaluation is the
    # one that catches a kernel overflow.  2.0 has an sd of exactly 0,
    # 0.1 one of about 3e-17 from its rounded mean.
    gen = np.random.default_rng(0)
    z = gen.standard_normal(50)
    w = gen.standard_normal((50, 3))
    exact, rounded = np.full(50, 2.0), np.full(50, 0.1)
    assert np.std(exact) == 0.0 < np.std(rounded)
    assert kernelmeasure._Objective(exact, z, w, spec, SearchConfig())(0.0) == 0.0
    for x in (exact, rounded):
        assert kernelmeasure._Objective(x, z, w, spec, SearchConfig()).ratio == 0.0
        assert minimize_c(x, z, w, spec) == CMinimizationResult(0.0, 1)


@pytest.mark.parametrize(
    "spec",
    [KernelSpec("gaussian"), KernelSpec("polynomial", degree=3)],
    ids=["gaussian", "polynomial"],
)
def test_objective_halves_are_the_kernel_grams(gen, spec):
    n = 30
    x = gen.standard_normal(n)
    z = gen.standard_normal(n)
    objective = kernelmeasure._Objective(
        x, z, gen.standard_normal((n, 2)), spec, SearchConfig()
    )
    s = objective.spec
    for c in np.linspace(0.0, objective.c_max, 7):
        for u, k in zip((x + c * z, x - c * z), objective.halves(c)):
            ref = gram_matrix(u, s)
            np.testing.assert_array_equal(k, k.T)
            if spec.family == "gaussian":
                np.testing.assert_array_equal(np.diag(k), 1.0)
                # gram_matrix forms (u_i - u_k)**2 as u_i**2 + u_k**2 -
                # 2 u_i u_k, whose rounding grows with max u**2 / (2 h**2)
                exponent = float(np.max(u * u)) / (2.0 * s.bandwidth**2)
                eps = np.finfo(float).eps
                atol = max(1e-14, 8.0 * eps * exponent)
                np.testing.assert_allclose(k, ref, rtol=0, atol=atol)
            else:
                # the same arithmetic as the public Gram
                np.testing.assert_array_equal(k, ref)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 7, 12])
def test_polynomial_halves_match_libm_pow_within_stated_tolerance(gen, degree):
    # binary powering rounds once per product: within degree * eps / 2
    # relative of libm pow, and bitwise pow for degree 1 and 2
    n = 40
    x = gen.standard_normal(n)
    z = gen.standard_normal(n)
    spec = KernelSpec("polynomial", degree=degree, offset=1.0)
    objective = kernelmeasure._Objective(x, z, gen.standard_normal((n, 2)), spec, SearchConfig())
    rtol = degree * np.finfo(float).eps / 2.0
    for c in np.linspace(0.0, objective.c_max, 5):
        for u, k in zip((x + c * z, x - c * z), objective.halves(c)):
            ref = (np.multiply.outer(u, u) + 1.0) ** degree
            if degree <= 2:
                np.testing.assert_array_equal(k, ref)
            else:
                np.testing.assert_allclose(k, ref, rtol=rtol, atol=0)
    if degree == 3:
        # about a quarter of the entries differ, each by one ulp
        ulps = np.abs(k - ref) / np.spacing(np.abs(ref))
        assert ulps.max() <= 1.0
        assert 0.1 < np.mean(ulps > 0) < 0.4


@pytest.mark.parametrize(
    "spec, held",
    [(KernelSpec("gaussian"), 5), (KernelSpec("polynomial", degree=2), 3)],
    ids=["gaussian", "polynomial"],
)
def test_c_search_memory_is_its_held_arrays(gen, spec, held):
    # The objective holds K_W and two half buffers, plus the scaled
    # differences of x and z for the gaussian family: 5 or 3 n x n
    # arrays (40 and 24 MB at n = 1000), and an evaluation allocates no
    # further one.
    n = 1000
    x = gen.standard_normal(n)
    z = gen.standard_normal(n)
    w = gen.standard_normal((n, 3))
    tracemalloc.start()
    try:
        minimize_c(x, z, w, spec, SearchConfig(tol_factor=0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (held + 0.5) * n * n * 8


def test_search_config_validation():
    with pytest.raises(ConfigurationError):
        SearchConfig(c_max_factor=0.0)
    with pytest.raises(ConfigurationError):
        SearchConfig(c_max_factor=math.inf)
    with pytest.raises(ConfigurationError):
        SearchConfig(tol_factor=0.0)
