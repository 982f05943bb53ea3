import tracemalloc

import numpy as np
import pytest
from scipy.stats import binomtest

from mirrorselect import (
    CMinimizationResult,
    Dataset,
    DegeneratePerturbationError,
    DesignSpec,
    InvalidDataError,
    KernelSpec,
    ModelSpec,
    NumericalError,
    RngSeed,
    conditional_dependence,
    make_all_mirrors,
    minimize_c,
    mirror_statistic,
    sample_design,
    sample_response,
)
from mirrorselect import mirror, selection
from conftest import dependence_on_grid

LINEAR = KernelSpec("linear")
EPS = np.finfo(float).eps


def _dataset(gen, n=60, p=6):
    x = gen.standard_normal((n, p))
    return Dataset(x, gen.standard_normal(n))


def _measure_sq(pair, w):
    return conditional_dependence(pair.x_plus, pair.x_minus, w, LINEAR) ** 2


def test_determinism_bitwise(gen):
    ds = _dataset(gen)
    a = make_all_mirrors(ds, LINEAR, RngSeed(7, 3))[3]
    b = make_all_mirrors(ds, LINEAR, RngSeed(7, 3))[3]
    assert a.c == b.c
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.x_plus, b.x_plus)
    np.testing.assert_array_equal(a.x_minus, b.x_minus)


def test_different_seeds_differ(gen):
    ds = _dataset(gen)
    a = make_all_mirrors(ds, LINEAR, RngSeed(1))[0]
    b = make_all_mirrors(ds, LINEAR, RngSeed(2))[0]
    assert not np.array_equal(a.z, b.z)


def test_zero_column_mirrors_symmetrically(gen):
    x = gen.standard_normal((50, 3))
    x[:, 1] = 0.0
    ds = Dataset(x, gen.standard_normal(50))
    pair = make_all_mirrors(ds, LINEAR, RngSeed(4))[1]
    # a zero column has nothing to hide: the minimizer is c = 0 and the
    # two halves coincide at c z = 0
    assert pair.c == 0.0
    np.testing.assert_array_equal(pair.x_plus, pair.c * pair.z)
    np.testing.assert_array_equal(pair.x_minus, -pair.x_plus)


def test_reconstruction_invariant_sweep(gen):
    n, p = 100, 20
    ds = _dataset(gen, n=n, p=p)
    pairs = make_all_mirrors(ds, LINEAR, RngSeed(11))
    assert len(pairs) == p
    for j, pair in enumerate(pairs):
        assert pair.name == ds.names[j]
        two_x = 2.0 * ds.x[:, j]
        scale = np.maximum.reduce(
            [np.abs(pair.x_plus), np.abs(pair.x_minus), np.abs(two_x), np.ones(n)]
        )
        np.testing.assert_array_less(
            np.abs(pair.x_plus + pair.x_minus - two_x), 4 * EPS * scale
        )
        np.testing.assert_allclose(
            pair.x_plus - pair.x_minus, 2.0 * pair.c * pair.z,
            rtol=1e-12, atol=1e-12,
        )
        if pair.c > 0:
            np.testing.assert_allclose(
                (pair.x_plus - pair.x_minus) / (2.0 * pair.c), pair.z,
                rtol=1e-12, atol=1e-12,
            )


@pytest.mark.parametrize("spec", [LINEAR, KernelSpec("gaussian")], ids=["linear", "gaussian"])
def test_halves_are_x_plus_and_minus_one_shift(gen, spec):
    # both halves come from one product c z, so flipping the sign of z
    # swaps them bit for bit
    ds = _dataset(gen, n=100, p=20)
    for j, pair in enumerate(make_all_mirrors(ds, spec, RngSeed(11))):
        x = ds.x[:, j]
        np.testing.assert_array_equal(pair.x_plus, x + pair.c * pair.z)
        np.testing.assert_array_equal(pair.x_minus, x - pair.c * pair.z)
        np.testing.assert_array_equal(pair.x_minus, x + pair.c * -pair.z)


def test_recovered_c_matches_dense_grid(gen):
    n = 50
    ds = _dataset(gen, n=n, p=4)
    pair = make_all_mirrors(ds, LINEAR, RngSeed(9))[2]
    w = np.delete(ds.x, 2, axis=1)
    x = ds.x[:, 2]

    def objective(c):
        return conditional_dependence(x + c * pair.z, x - c * pair.z, w, LINEAR) ** 2

    def linear(cols):
        return cols[:, :, None] * cols[:, None, :]

    hi = 4.0 * max(pair.c, 0.5)
    grid = np.linspace(0.0, hi, 40001)
    values = dependence_on_grid(x, pair.z, w @ w.T, grid, linear) ** 2
    arg = int(np.argmin(values))
    for i in [*range(0, len(grid), 100), arg]:
        np.testing.assert_allclose(values[i], objective(grid[i]), rtol=1e-12)
    best = grid[arg]
    assert abs(pair.c - best) <= 1e-3 * max(1.0, best)


def test_local_minimality_probes(gen):
    ds = _dataset(gen, n=40, p=5)
    for j, pair in enumerate(make_all_mirrors(ds, LINEAR, RngSeed(21))):
        if pair.c == 0.0:
            continue
        w = np.delete(ds.x, j, axis=1)
        x = ds.x[:, j]

        def dep_at(c):
            return conditional_dependence(x + c * pair.z, x - c * pair.z, w, LINEAR)

        got = dep_at(pair.c)
        assert got <= dep_at(pair.c / 2.0) + 1e-12
        assert got <= dep_at(pair.c * 2.0) + 1e-12


@pytest.mark.parametrize("p", [1, 7])
@pytest.mark.parametrize(
    "spec", [LINEAR, KernelSpec("gaussian")], ids=["linear", "gaussian"]
)
def test_make_all_matches_public_minimize_c(gen, spec, p):
    ds = _dataset(gen, n=45, p=p)
    pairs = make_all_mirrors(ds, spec, RngSeed(3))
    assert len(pairs) == p
    for j, pair in enumerate(pairs):
        x = ds.x[:, j]
        np.testing.assert_array_equal(pair.x_plus, x + pair.c * pair.z)
        oracle = minimize_c(x, pair.z, np.delete(ds.x, j, axis=1), spec).c_star
        if spec.family == "gaussian":
            # the mirror runs exactly this search
            assert pair.c == oracle
        else:
            # the closed form's products with the full design and ``drop``
            # round differently from products with the remaining columns
            np.testing.assert_allclose(pair.c, oracle, rtol=1e-12, atol=0)


def test_make_all_linear_memory_stays_below_one_gram(gen):
    # a tall design: one n x n float64 matrix would be 72 MB
    n = 3000
    ds = _dataset(gen, n=n, p=5)
    tracemalloc.start()
    try:
        pairs = make_all_mirrors(ds, LINEAR, RngSeed(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == 5
    assert peak < n * n * 8 / 10


@pytest.mark.parametrize("n, p", [(200, 4000), (4000, 100)])
def test_make_all_linear_peak_memory(gen, n, p):
    # the pairs hold three design-sized arrays (z, x_plus and x_minus), and
    # the closed form's blocked temporaries add at most one more
    ds = _dataset(gen, n=n, p=p)
    tracemalloc.start()
    try:
        make_all_mirrors(ds, LINEAR, RngSeed(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * ds.x.nbytes


def test_linear_mirrors_take_one_closed_form_call(gen, monkeypatch):
    calls = []
    scales = mirror._linear_scales

    def counting(*args):
        calls.append(args)
        return scales(*args)

    def no_search(*args):
        raise AssertionError("the linear path ran a per-feature search")

    monkeypatch.setattr(mirror, "_linear_scales", counting)
    monkeypatch.setattr(mirror, "minimize_c", no_search)
    assert len(make_all_mirrors(_dataset(gen, n=30, p=7), LINEAR, RngSeed(1))) == 7
    assert len(calls) == 1


def test_failing_search_names_its_feature(gen, monkeypatch):
    searched = []

    def third_fails(x, z, w, spec):
        searched.append(z)
        if len(searched) == 3:
            raise NumericalError("search failed")
        return CMinimizationResult(0.5, 1)

    monkeypatch.setattr(mirror, "minimize_c", third_fails)
    ds = _dataset(gen, n=20, p=5)
    with pytest.raises(NumericalError, match=r"^feature 2 \(x2\): search failed$"):
        make_all_mirrors(ds, KernelSpec("gaussian"), RngSeed(1))
    # each search was handed its feature's own contiguous 1-d z
    assert [z.ndim for z in searched] == [1, 1, 1]
    assert all(z.flags.c_contiguous for z in searched)


def test_column_permutation_permutes_mirrors(gen):
    n, p = 40, 5
    x = gen.standard_normal((n, p))
    y = gen.standard_normal(n)
    names = ("a", "b", "c", "d", "e")
    rng = RngSeed(17)
    base = make_all_mirrors(Dataset(x, y, names), LINEAR, rng)
    perm = [3, 0, 4, 1, 2]
    moved = make_all_mirrors(
        Dataset(x[:, perm], y, tuple(names[i] for i in perm)), LINEAR, rng
    )
    for new_pos, old_pos in enumerate(perm):
        # z streams are keyed by column name, so they travel with it
        np.testing.assert_array_equal(moved[new_pos].z, base[old_pos].z)
        np.testing.assert_allclose(moved[new_pos].c, base[old_pos].c, rtol=1e-10)
        assert moved[new_pos].name == names[old_pos]


def test_gaussian_kernel_path(gen):
    ds = _dataset(gen, n=25, p=3)
    spec = KernelSpec("gaussian", bandwidth=1.1)
    pairs = make_all_mirrors(ds, spec, RngSeed(2))
    assert len(pairs) == 3
    for j, pair in enumerate(pairs):
        w = np.delete(ds.x, j, axis=1)
        assert pair.c == minimize_c(ds.x[:, j], pair.z, w, spec).c_star
        got = conditional_dependence(pair.x_plus, pair.x_minus, w, spec)
        up = conditional_dependence(
            ds.x[:, j] + 2 * pair.c * pair.z,
            ds.x[:, j] - 2 * pair.c * pair.z,
            w,
            spec,
        )
        assert got <= up + 1e-12


def test_degenerate_conditioning_names_feature(gen):
    x = np.column_stack([gen.standard_normal(30), np.zeros(30)])
    ds = Dataset(x, gen.standard_normal(30), names=("sig", "dead"))
    # feature 0's conditioning block is the all-zero column: the
    # perturbation is invisible to it
    with pytest.raises(DegeneratePerturbationError, match=r"feature 0 \(sig\)"):
        make_all_mirrors(ds, LINEAR, RngSeed(1))


def test_degenerate_conditioning_names_a_later_feature(gen):
    # feature 1 is conditioned only on the all-zero column 0; feature 0
    # itself is constant, which gives c = 0 but no error
    x = np.column_stack([np.zeros(30), gen.standard_normal(30)])
    ds = Dataset(x, gen.standard_normal(30), names=("dead", "sig"))
    with pytest.raises(
        DegeneratePerturbationError,
        match=r"^feature 1 \(sig\): perturbation-scale denominator vanishes",
    ):
        make_all_mirrors(ds, LINEAR, RngSeed(1))


def test_minimum_rows_validated(gen):
    x = gen.standard_normal((2, 3))
    ds = Dataset(x, np.zeros(2))
    # the row count comes with the data, so it is bad data (exit 3), as in
    # screening
    with pytest.raises(InvalidDataError, match="mirroring needs n >= 3 rows, got 2"):
        make_all_mirrors(ds, LINEAR, RngSeed(0))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the linear mirror scale does not decorrelate the two halves given "
        "the other columns, so correlated nulls get a positive statistic; "
        "the Gaussian-mirror scale |R x| / |R z|, R the residual-maker of "
        "the other columns, does (Xing, Zhao & Liu, JASA 2023)"
    ),
)
def test_null_signs_balanced_under_ols_on_a_correlated_design():
    # Criterion 5's design (300 x 50, Toeplitz rho = 0.5, k = 10) and seed,
    # drawn with run_benchmark's streams.  No training: each pair is
    # scored by the OLS coefficients of its two halves, fitted with an
    # intercept on all 2p halves.
    design = DesignSpec(300, 50, "toeplitz_pc", rho=0.5)
    model = ModelSpec(kind="linear", k_signals=10)
    nulls = []
    for rep in range(40):
        rng = RngSeed(23).child(rep)
        x = sample_design(design, rng.child(0))
        sample = sample_response(x, model, rng.child(1))
        ds = Dataset(x, sample.y).standardized()
        mirrors = make_all_mirrors(ds, LINEAR, rng.child(2).child(selection._STREAM_MIRROR))
        halves = [half for pair in mirrors for half in (pair.x_plus, pair.x_minus)]
        design_matrix = np.column_stack([np.ones(ds.n), *halves])
        coef = np.linalg.lstsq(design_matrix, ds.y, rcond=None)[0]
        m = mirror_statistic(coef[1::2], coef[2::2])
        nulls.append(np.delete(m, sorted(sample.truth)))
    nulls = np.concatenate(nulls)
    n_pos = int(np.sum(nulls > 0))
    n_signed = int(np.sum(nulls != 0))
    p_value = binomtest(n_pos, n_signed).pvalue
    assert p_value >= 0.01, f"{n_pos} of {n_signed} null signs positive, p = {p_value:.2g}"
