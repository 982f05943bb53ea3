"""Tests for synthetic designs, response models, metrics, ROC sweeps and
the benchmark driver."""

import contextlib
import functools
import math
import multiprocessing
from dataclasses import asdict

import numpy as np
import pytest

from mirrorselect import (
    ConfigurationError,
    DesignSpec,
    InvalidDataError,
    KernelSpec,
    ModelSpec,
    NetConfig,
    NumericalError,
    RngSeed,
    ScreenOptions,
    default_coef_sd,
    evaluate,
    precision_matrix,
    roc_curve,
    run_benchmark,
    sample_design,
    sample_response,
)
from mirrorselect import Dataset, MirrorSelectError, _parallel, run_ingm, run_sngm
from mirrorselect import (
    conditional_dependence, gram_matrix, make_all_mirrors, minimize_c, train, train_many,
)
from mirrorselect import neuralnet, selection, simulate
from mirrorselect.kernelmeasure import SearchConfig
from mirrorselect._parallel import _GROUP_BYTES, _chunks
from mirrorselect.selection import adaptive_threshold, screen
from mirrorselect.simulate import LINKS, _mean_se


class TestPrecisionMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(
            precision_matrix(DesignSpec(10, 4)), np.eye(4)
        )

    def test_toeplitz_hand_values(self):
        omega = precision_matrix(DesignSpec(10, 3, "toeplitz_pc", 0.5))
        np.testing.assert_allclose(
            omega, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]]
        )

    def test_constant_hand_values(self):
        omega = precision_matrix(DesignSpec(10, 3, "constant_pc", 0.5))
        np.testing.assert_allclose(
            omega, [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]]
        )

    @pytest.mark.parametrize("p", [4, 8])
    def test_toeplitz_inverse_identity(self, p):
        omega = precision_matrix(DesignSpec(10, p, "toeplitz_pc", 0.6))
        product = omega @ np.linalg.inv(omega)
        np.testing.assert_allclose(product, np.eye(p), atol=1e-10)

    @pytest.mark.parametrize("p", [10, 100])
    def test_constant_covariance_eigen_law(self, p):
        # smallest covariance eigenvalue follows 1/(1+(p-1) rho) exactly;
        # the correlation matrix shrinks at the same rate up to a
        # constant near 1-rho
        rho = 0.5
        cov = np.linalg.inv(precision_matrix(DesignSpec(10, p, "constant_pc", rho)))
        law = 1.0 / (1.0 + (p - 1) * rho)
        np.testing.assert_allclose(np.linalg.eigvalsh(cov).min(), law, rtol=1e-10)
        d = np.sqrt(np.diag(cov))
        corr_min = np.linalg.eigvalsh(cov / np.outer(d, d)).min()
        assert 0.45 * law < corr_min < 0.6 * law


class TestDesignSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, p=5),
            dict(n=5, p=0),
            dict(n=5, p=5, structure="circulant"),
            dict(n=5, p=5, structure="toeplitz_pc", rho=1.0),
            # 1 + (p-1) rho <= 0 is not positive definite
            dict(n=5, p=5, structure="constant_pc", rho=-0.3),
            dict(n=5, p=5, structure="constant_pc", rho=1.0),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DesignSpec(**kwargs)


class TestSampleDesign:
    def test_reproducible_bitwise(self):
        spec = DesignSpec(50, 6, "toeplitz_pc", 0.4)
        a = sample_design(spec, RngSeed(9))
        b = sample_design(spec, RngSeed(9))
        c = sample_design(spec, RngSeed(10))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("structure", ["toeplitz_pc", "constant_pc"])
    def test_rho_zero_decouples(self, structure):
        spec = DesignSpec(2000, 5, structure, 0.0)
        x = sample_design(spec, RngSeed(11))
        corr = np.corrcoef(x, rowvar=False)
        off = corr[~np.eye(5, dtype=bool)]
        assert np.mean(np.abs(off)) < 0.1

    def test_toeplitz_empirical_precision(self):
        # invert the sample covariance and compare entrywise
        spec = DesignSpec(50000, 3, "toeplitz_pc", 0.5)
        x = sample_design(spec, RngSeed(12))
        omega_hat = np.linalg.inv(np.cov(x, rowvar=False))
        np.testing.assert_allclose(omega_hat, precision_matrix(spec), atol=0.05)

    def test_identity_structure_unit_variance(self):
        x = sample_design(DesignSpec(4000, 4), RngSeed(13))
        np.testing.assert_allclose(x.std(axis=0), 1.0, atol=0.1)
        assert x.shape == (4000, 4)

    @pytest.mark.parametrize(
        "structure,rho",
        [("identity", 0.0), ("toeplitz_pc", 0.6), ("constant_pc", -0.05)],
    )
    def test_matches_triangular_solve(self, structure, rho):
        # the draw solves chol' x' = z' with a general solver; scipy's
        # triangular solve is the oracle.  C order keeps x @ beta's rounding.
        from scipy.linalg import solve_triangular

        spec = DesignSpec(300, 12, structure, rho)
        x = sample_design(spec, RngSeed(14))
        z = RngSeed(14).generator().standard_normal((300, 12))
        chol = np.linalg.cholesky(precision_matrix(spec))
        expected = solve_triangular(chol, z.T, trans="T", lower=True).T
        # the atol covers entries near zero under another BLAS's rounding
        np.testing.assert_allclose(
            x, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max()
        )
        assert x.flags.c_contiguous


class TestSampleResponse:
    def test_null_model(self):
        x = sample_design(DesignSpec(2000, 6), RngSeed(20))
        sample = sample_response(x, ModelSpec(k_signals=0), RngSeed(21))
        assert sample.truth == frozenset()
        np.testing.assert_array_equal(sample.beta, np.zeros(6))
        assert 0.85 < sample.y.std() < 1.15

    def test_link_hand_values(self):
        assert LINKS["f1"](0.0) == 0.0
        assert LINKS["f2"](2.0) == 4.0
        np.testing.assert_allclose(LINKS["f3"](np.array([2.0, 0.0])), [3.2, 0.0])

    def test_noiseless_single_index_exact(self):
        x = sample_design(DesignSpec(100, 5), RngSeed(22))
        model = ModelSpec(
            kind="single_index", link="f2", k_signals=2, coef_sd=2.0, noise_sd=0.0
        )
        sample = sample_response(x, model, RngSeed(23))
        assert len(sample.truth) == 2
        np.testing.assert_array_equal(np.flatnonzero(sample.beta), sorted(sample.truth))
        np.testing.assert_allclose(
            sample.y, 0.5 * (x @ sample.beta) ** 3, rtol=1e-12
        )

    def test_determinism(self):
        x = sample_design(DesignSpec(60, 8), RngSeed(24))
        a = sample_response(x, ModelSpec(k_signals=3), RngSeed(25))
        b = sample_response(x, ModelSpec(k_signals=3), RngSeed(25))
        assert a.truth == b.truth
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.beta, b.beta)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="quadratic"),
            dict(kind="single_index"),
            dict(kind="single_index", link="f9"),
            dict(kind="linear", link="f1"),
            dict(k_signals=-1),
            dict(coef_sd=0.0),
            dict(noise_sd=-1.0),
            dict(kind="single_index", link=["f1"]),
        ],
    )
    def test_bad_model_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModelSpec(**kwargs)

    def test_one_dimensional_design_rejected(self):
        with pytest.raises(InvalidDataError, match="design must be 2-d, got 1-d"):
            sample_response(np.zeros(10), ModelSpec(k_signals=1), RngSeed(0))

    def test_too_many_signals(self):
        x = np.zeros((10, 3))
        with pytest.raises(ConfigurationError):
            sample_response(x, ModelSpec(k_signals=4), RngSeed(0))


def test_default_coef_sd():
    np.testing.assert_allclose(
        default_coef_sd(400, 100), 20.0 * math.sqrt(math.log(100) / 400)
    )
    with pytest.raises(ConfigurationError):
        default_coef_sd(100, 1)


class TestEvaluate:
    def test_perfect_recovery(self):
        m = evaluate({1, 2, 3}, {1, 2, 3}, 10)
        assert (m.fdp, m.power, m.fpr, m.selected_count) == (0.0, 1.0, 0.0, 3)

    def test_half_false(self):
        m = evaluate({1, 2, 3, 4}, {1, 2}, 10)
        assert m.fdp == 0.5
        assert m.power == 1.0
        np.testing.assert_allclose(m.fpr, 2 / 8)

    def test_empty_selection(self):
        m = evaluate(set(), {1, 2}, 10)
        assert (m.fdp, m.power, m.selected_count) == (0.0, 0.0, 0)

    def test_empty_truth_convention(self):
        assert evaluate(set(), set(), 5).power == 1.0
        assert evaluate({0}, set(), 5).fdp == 1.0

    def test_count_identities(self, gen):
        # fdp + precision = 1 on nonempty selections; power * |truth| counts
        for _ in range(50):
            p = 12
            selected = set(int(j) for j in gen.choice(p, size=4, replace=False))
            truth = set(int(j) for j in gen.choice(p, size=5, replace=False))
            m = evaluate(selected, truth, p)
            precision = len(selected & truth) / len(selected)
            np.testing.assert_allclose(m.fdp + precision, 1.0)
            np.testing.assert_allclose(m.power * len(truth), round(m.power * len(truth)))

    @pytest.mark.parametrize("selected,truth", [({10}, {1}), ({1}, {-1})])
    def test_out_of_range(self, selected, truth):
        with pytest.raises(InvalidDataError):
            evaluate(selected, truth, 10)


class TestRocCurve:
    def test_perfect_ranking(self):
        curve = roc_curve([5.0, 4.0, 0.1, 0.2], {0, 1})
        assert curve.auc == 1.0
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_hand_case(self):
        curve = roc_curve([4.0, 3.0, 2.0, 1.0], {0, 2})
        assert curve.points == (
            (0.0, 0.0),
            (0.0, 0.5),
            (0.5, 0.5),
            (0.5, 1.0),
            (1.0, 1.0),
        )
        np.testing.assert_allclose(curve.auc, 0.75)

    def test_auc_matches_pair_counting(self, gen):
        # without ties the trapezoid area equals the rank statistic
        for _ in range(20):
            scores = gen.standard_normal(20)
            truth = set(int(j) for j in gen.choice(20, size=6, replace=False))
            nulls = [scores[j] for j in range(20) if j not in truth]
            pairs = [
                scores[t] > f for t in truth for f in nulls
            ]
            np.testing.assert_allclose(
                roc_curve(scores, truth).auc, np.mean(pairs), rtol=1e-12
            )

    @pytest.mark.parametrize(
        "n_pos, n_neg, spread", [(4, 8, 2), (2, 16, 4), (8, 8, 1)]
    )
    def test_ties_match_threshold_sweep(self, gen, n_pos, n_neg, spread):
        # Power-of-two class sizes make every rate and trapezoid exact, so
        # the area equals the tie-corrected rank statistic bitwise.
        p = n_pos + n_neg
        for trial in range(40):
            scores = gen.integers(-spread, spread + 1, p).astype(float)
            if trial == 0:
                scores[:] = 1.0
            truth = set(int(j) for j in gen.choice(p, size=n_pos, replace=False))
            is_true = np.isin(np.arange(p), list(truth))
            points = [(0.0, 0.0)]
            for t in np.unique(scores)[::-1]:
                sel = scores >= t
                fp = float(np.sum(sel & ~is_true))
                tp = float(np.sum(sel & is_true))
                points.append((fp / n_neg, tp / n_pos))
            wins = sum(
                float(scores[i] > scores[j]) + 0.5 * float(scores[i] == scores[j])
                for i in np.flatnonzero(is_true)
                for j in np.flatnonzero(~is_true)
            )
            curve = roc_curve(scores, truth)
            assert curve.points == tuple(points)
            assert curve.auc == wins / (n_pos * n_neg)

    def test_sign_reversal_complements_auc(self, gen):
        scores = gen.standard_normal(30)
        truth = {1, 4, 9}
        a = roc_curve(scores, truth).auc
        b = roc_curve(-scores, truth).auc
        np.testing.assert_allclose(a + b, 1.0, rtol=1e-12)

    def test_random_scores_near_half(self, gen):
        aucs = []
        for _ in range(20):
            scores = gen.standard_normal(50)
            truth = set(int(j) for j in gen.choice(50, size=10, replace=False))
            aucs.append(roc_curve(scores, truth).auc)
        assert abs(np.mean(aucs) - 0.5) <= 0.15

    def test_monotone(self, gen):
        scores = gen.standard_normal(40)
        curve = roc_curve(scores, set(range(8)))
        fprs = [f for f, _ in curve.points]
        tprs = [t for _, t in curve.points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    @pytest.mark.parametrize("truth", [set(), {0, 1, 2}, {5}])
    def test_degenerate_truth_rejected(self, truth):
        with pytest.raises(InvalidDataError):
            roc_curve([1.0, 2.0, 3.0], truth)

    def test_bad_scores_rejected(self):
        with pytest.raises(InvalidDataError):
            roc_curve([1.0, np.nan, 3.0], {0})
        with pytest.raises(InvalidDataError):
            roc_curve(np.zeros((2, 2)), {0})


BENCH_NULL_NET = NetConfig(hidden_sizes=(16, 8), epochs=60, learning_rate=5e-3)

# relu nets on the edge of divergence: at this learning rate rep 5 of
# STACK_CASE fails in every method but ingm, and the other reps complete
EDGE_NET = NetConfig(hidden_sizes=(8,), activation="relu", epochs=20,
                     batch_size=16, learning_rate=0.5)
STACK_CASE = (DesignSpec(60, 5, "identity"), ModelSpec(kind="linear", k_signals=2, coef_sd=3.0))


def _benchmark_fields(result):
    """Every row field but ``runtime_ms``, the failures and the summary."""
    rows = [{k: v for k, v in asdict(r).items() if k != "runtime_ms"} for r in result.rows]
    summary = (result.mean_fdp, result.se_fdp, result.mean_power, result.se_power,
               result.mean_fpr)
    return rows, result.failures, summary


def _lone_benchmark(design, model, method, q, reps, rng, net, screen_opts):
    """``_benchmark_fields`` of a benchmark whose reps each select on
    their own data with one ``run_sngm``/``run_ingm`` call."""
    runner = run_sngm if method.endswith("sngm") else run_ingm
    rows, failures = [], []
    for rep in range(reps):
        rep_rng = rng.child(rep)
        x = sample_design(design, rep_rng.child(0))
        sample = sample_response(x, model, rep_rng.child(1))
        sel_rng = rep_rng.child(2)
        try:
            result = runner(
                Dataset(x, sample.y), q, net=net, rng=sel_rng, screen_opts=screen_opts
            )
        except MirrorSelectError as err:
            failures.append((rep, f"{type(err).__name__}: {err}"))
            continue
        metrics = evaluate(result.selected, sample.truth, design.p)
        rows.append({
            "rep": rep, "seed_label": f"{sel_rng.seed}:{sel_rng.stream}",
            "fdp": metrics.fdp, "power": metrics.power, "fpr": metrics.fpr,
            "threshold": result.threshold, "n_selected": metrics.selected_count,
        })
    summary = (
        *_mean_se([r["fdp"] for r in rows]),
        *_mean_se([r["power"] for r in rows]),
        _mean_se([r["fpr"] for r in rows])[0],
    )
    return rows, tuple(failures), summary


class TestRunBenchmark:
    def test_strong_signals(self):
        result = run_benchmark(
            DesignSpec(300, 30, "identity"),
            ModelSpec(kind="linear", k_signals=5, coef_sd=15.0),
            method="s_sngm",
            q=0.2,
            reps=20,
            rng=RngSeed(1500),
            net=NetConfig(epochs=300, learning_rate=5e-3),
            screen_opts=ScreenOptions(m_keep=15),
        )
        assert result.failures == ()
        assert len(result.rows) == 20
        assert result.mean_power >= 0.7
        assert result.mean_fdp <= 0.2 + 0.1
        for row in result.rows:
            assert 0.0 <= row.fdp <= 1.0
            assert 0.0 <= row.power <= 1.0
            assert row.runtime_ms > 0
            assert row.threshold is None or row.threshold > 0

    def test_null_selections_sparse(self):
        result = run_benchmark(
            DesignSpec(200, 20, "identity"),
            ModelSpec(kind="linear", k_signals=0),
            method="sngm",
            q=0.2,
            reps=20,
            rng=RngSeed(501),
            net=BENCH_NULL_NET,
        )
        assert np.mean([r.n_selected for r in result.rows]) <= 0.2 * 20

    @pytest.mark.xfail(
        reason="a sign-symmetric null statistic picks a nonempty set with "
        "probability near one half, and any nonempty selection under a "
        "global null has realized FDP 1, so the mean sits near 0.5",
        strict=False,
    )
    def test_null_mean_fdp_below_030(self):
        result = run_benchmark(
            DesignSpec(200, 20, "identity"),
            ModelSpec(kind="linear", k_signals=0),
            method="sngm",
            q=0.2,
            reps=20,
            rng=RngSeed(501),
            net=BENCH_NULL_NET,
        )
        assert result.mean_fdp <= 0.3

    def test_thread_count_does_not_change_results(self):
        # seven reps cut into uneven chunks: 7, then 4 + 3, then 3 + 3 + 1
        design = DesignSpec(80, 6, "identity")
        model = ModelSpec(kind="linear", k_signals=2, coef_sd=8.0)
        net = NetConfig(hidden_sizes=(8, 4), epochs=40, learning_rate=5e-3)
        runs = [
            run_benchmark(design, model, "sngm", 0.2, 7, RngSeed(42), net=net, threads=t)
            for t in (1, 2, 3)
        ]
        first = _benchmark_fields(runs[0])
        assert len(first[0]) == 7
        for other in runs[1:]:
            assert _benchmark_fields(other) == first

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("method", ["sngm", "s_sngm", "ingm", "s_ingm"])
    def test_stacked_reps_equal_lone_runs(self, method, threads):
        design, model = STACK_CASE
        opts = ScreenOptions(m_keep=3) if method.startswith("s_") else None
        stacked = run_benchmark(design, model, method, 0.2, 6, RngSeed(3), net=EDGE_NET,
                                screen_opts=opts, threads=threads)
        lone = _lone_benchmark(design, model, method, 0.2, 6, RngSeed(3), EDGE_NET, opts)
        assert _benchmark_fields(stacked) == lone
        assert len(stacked.rows) >= 5

    def test_failing_rep_leaves_its_chunk(self):
        # one chunk of six reps; rep 5's joint net diverges
        design, model = STACK_CASE
        assert _chunks(6, 1, 8 * design.n * (design.p + 1)) == [range(6)]
        result = run_benchmark(design, model, "sngm", 0.2, 6, RngSeed(3), net=EDGE_NET)
        assert result.failures == (
            (5, "TrainingError: loss became non-finite at epoch 4 "
                "(learning rate 0.5 may be too large)"),
        )
        assert [r.rep for r in result.rows] == [0, 1, 2, 3, 4]
        lone = _lone_benchmark(design, model, "sngm", 0.2, 6, RngSeed(3), EDGE_NET, None)
        assert _benchmark_fields(result) == lone
        assert all(r.runtime_ms > 0 for r in result.rows)

    def test_chunk_sizes_bounded(self):
        rep_bytes = 8 * 300 * 51
        cap = _GROUP_BYTES // rep_bytes
        assert cap >= 12
        # the CLI benchmark's 24 reps on 2 workers: one chunk each
        assert _chunks(24, 2, rep_bytes) == [range(12), range(12, 24)]
        for threads in (1, 2, 3, 8):
            for reps in (1, 7, 24, 100, 1000, 100_000):
                chunks = _chunks(reps, threads, rep_bytes)
                assert [rep for chunk in chunks for rep in chunk] == list(range(reps))
                assert max(map(len, chunks)) <= cap
                if reps <= threads * cap:
                    assert len(chunks) <= threads
        # a rep larger than the whole budget still runs, one per chunk
        assert _chunks(3, 1, 10 * _GROUP_BYTES) == [range(1), range(1, 2), range(2, 3)]

    def test_per_rep_failures_counted(self):
        # training diverges, so every repetition fails
        result = run_benchmark(
            DesignSpec(30, 4, "identity"),
            ModelSpec(kind="linear", k_signals=1),
            method="sngm",
            q=0.2,
            reps=3,
            rng=RngSeed(0),
            net=NetConfig(
                hidden_sizes=(8,), activation="relu", epochs=20,
                batch_size=16, learning_rate=1e8,
            ),
        )
        assert result.rows == ()
        assert len(result.failures) == 3
        assert all("TrainingError" in msg for _, msg in result.failures)
        assert math.isnan(result.mean_fdp)

    def test_one_rep_has_zero_standard_errors(self):
        design, model = STACK_CASE
        result = run_benchmark(design, model, "ingm", 0.2, 1, RngSeed(3), net=EDGE_NET)
        assert len(result.rows) == 1
        assert (result.se_fdp, result.se_power) == (0.0, 0.0)
        assert result.mean_fdp == result.rows[0].fdp

    def test_failed_draw_is_listed_and_leaves_the_other_reps(self, monkeypatch):
        design, model = STACK_CASE
        clean = run_benchmark(design, model, "ingm", 0.2, 4, RngSeed(3), net=EDGE_NET)
        bad_rng = RngSeed(3).child(2).child(0)
        draw = simulate.sample_design

        def failing_draw(spec, rng):
            if rng == bad_rng:
                raise NumericalError("precision matrix is not positive definite")
            return draw(spec, rng)

        monkeypatch.setattr(simulate, "sample_design", failing_draw)
        result = run_benchmark(design, model, "ingm", 0.2, 4, RngSeed(3), net=EDGE_NET)
        assert result.failures == (
            (2, "NumericalError: precision matrix is not positive definite"),
        )
        rows, _, _ = _benchmark_fields(result)
        clean_rows, clean_failures, _ = _benchmark_fields(clean)
        assert clean_failures == ()
        assert rows == [row for row in clean_rows if row["rep"] != 2]

    def test_screening_method_defaults_to_default_screen_options(self):
        design = DesignSpec(24, 16, "identity")
        model = ModelSpec(k_signals=2, coef_sd=3.0)
        net = NetConfig(hidden_sizes=(8,), epochs=20, batch_size=16)
        runs = [
            run_benchmark(design, model, "s_sngm", 0.2, 2, RngSeed(13), net=net, **opts)
            for opts in ({}, {"screen_opts": ScreenOptions()})
        ]
        assert runs[0].rows
        assert _benchmark_fields(runs[0]) == _benchmark_fields(runs[1])

    def test_bad_arguments_rejected(self):
        design = DesignSpec(30, 4, "identity")
        model = ModelSpec(k_signals=1)
        with pytest.raises(ConfigurationError):
            run_benchmark(design, model, method="lasso")
        with pytest.raises(ConfigurationError):
            run_benchmark(design, model, reps=0)
        # mirroring needs three rows, screening six
        with pytest.raises(ConfigurationError, match="at least 3 rows"):
            run_benchmark(DesignSpec(2, 4, "identity"), model, method="ingm")
        with pytest.raises(ConfigurationError, match="at least 6 rows"):
            run_benchmark(DesignSpec(5, 4, "identity"), model, method="s_ingm")
        # a model the design cannot hold fails before any rep is drawn
        with pytest.raises(ConfigurationError, match="k_signals=5 exceeds p=4"):
            run_benchmark(design, ModelSpec(k_signals=5))
        with pytest.raises(ConfigurationError, match="needs p >= 2"):
            run_benchmark(DesignSpec(30, 1, "identity"), model)
        # the checks the CLI makes on --threads and --m-keep
        for threads in (0, -1):
            with pytest.raises(ConfigurationError, match="threads must be at least 1"):
                run_benchmark(design, model, threads=threads)
        with pytest.raises(ConfigurationError, match="only applies to the screening"):
            run_benchmark(design, model, method="sngm", screen_opts=ScreenOptions(m_keep=2))


_SMALL_NET = NetConfig(hidden_sizes=(4,), epochs=2, batch_size=8)


@pytest.mark.parametrize(
    "call",
    [
        lambda: sample_design(DesignSpec(10.5, 3)),
        lambda: DesignSpec(10, np.float64(3.0)),
        lambda: sample_response(np.ones((10, 3)), ModelSpec(k_signals=1.5)),
        lambda: run_sngm(
            Dataset(np.arange(30.0).reshape(10, 3) ** 2, np.arange(10.0)),
            net=_SMALL_NET,
            screen_opts=ScreenOptions(m_keep=2.5),
        ),
        lambda: run_benchmark(DesignSpec(20, 3), ModelSpec(k_signals=1), reps=2.5,
                              net=_SMALL_NET),
        lambda: run_benchmark(DesignSpec(20, 3), ModelSpec(k_signals=1), threads=1.5,
                              net=_SMALL_NET),
        lambda: NetConfig(hidden_sizes=(3.7,)),
        lambda: NetConfig(epochs=True),
        lambda: NetConfig(batch_size=True),
        lambda: KernelSpec("polynomial", degree=True),
        lambda: RngSeed(3).child(1.5),
        lambda: RngSeed(3).child("1"),
    ],
    ids=[
        "design-n", "design-p", "k_signals", "m_keep", "reps", "threads",
        "hidden_sizes", "epochs", "batch_size", "degree", "child-float", "child-str",
    ],
)
def test_integer_settings_reject_non_integers(call):
    # neither truncated nor a TypeError: a configuration error (exit 2)
    with pytest.raises(ConfigurationError, match="must be an integer"):
        call()


def test_integer_settings_store_numpy_integers_as_int():
    design = DesignSpec(np.int64(10), np.int32(3))
    net = NetConfig(hidden_sizes=(np.int64(3),), epochs=np.int16(5), batch_size=np.uint8(4))
    values = (design.n, design.p, *net.hidden_sizes, net.epochs, net.batch_size,
              ModelSpec(k_signals=np.int64(2)).k_signals,
              ScreenOptions(m_keep=np.int64(2)).m_keep,
              KernelSpec("polynomial", degree=np.int64(3)).degree,
              RngSeed(np.int64(3)).seed, RngSeed(0, np.uint32(2)).stream,
              RngSeed(0).child(np.int64(1)).stream)
    assert values == (10, 3, 3, 5, 4, 2, 2, 3, 3, 2, 1)
    assert all(type(v) is int for v in values)


_DATASET = Dataset(np.arange(30.0).reshape(10, 3) ** 2, np.arange(10.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_sngm(_DATASET, q="0.2", net=_SMALL_NET),
        lambda: adaptive_threshold([1.0, 2.0], "0.2"),
        lambda: run_benchmark(DesignSpec(20, 3), ModelSpec(k_signals=1), q="0.2", reps=1,
                              net=_SMALL_NET),
        lambda: NetConfig(learning_rate="0.1"),
        lambda: NetConfig(weight_init_scale="1"),
        lambda: KernelSpec("gaussian", bandwidth="1"),
        lambda: KernelSpec("polynomial", offset="1"),
        lambda: SearchConfig(c_max_factor="10"),
        lambda: SearchConfig(tol_factor="0.1"),
        lambda: DesignSpec(10, 3, "toeplitz_pc", "0.5"),
        lambda: DesignSpec(10, 3, rho=True),
        lambda: ModelSpec(coef_sd="1"),
        lambda: ModelSpec(noise_sd=None),
    ],
    ids=[
        "q-run_sngm", "q-adaptive_threshold", "q-run_benchmark", "learning_rate",
        "weight_init_scale", "bandwidth", "offset", "c_max_factor", "tol_factor",
        "rho-str", "rho-bool", "coef_sd", "noise_sd",
    ],
)
def test_real_settings_reject_non_reals(call):
    # strings and bools are not converted: a configuration error (exit 2)
    with pytest.raises(ConfigurationError, match="must be a real number"):
        call()


def test_real_settings_store_floats():
    net = NetConfig(learning_rate=np.float32(0.25), weight_init_scale=1)
    search = SearchConfig(np.float32(2.0), np.float64(0.125))
    model = ModelSpec(coef_sd=np.float32(0.5), noise_sd=np.int64(2))
    values = (DesignSpec(10, 3, rho=np.float32(0.5)).rho,
              net.learning_rate, net.weight_init_scale,
              KernelSpec("gaussian", bandwidth=np.float32(1.5)).bandwidth,
              KernelSpec("polynomial", offset=np.int64(2)).offset,
              search.c_max_factor, search.tol_factor, model.coef_sd, model.noise_sd)
    assert values == (0.5, 0.25, 1.0, 1.5, 2.0, 2.0, 0.125, 0.5, 2.0)
    assert all(type(v) is float for v in values)


def test_choice_settings_store_str():
    model = ModelSpec(np.str_("single_index"), np.str_("f1"))
    values = (NetConfig(activation=np.str_("relu")).activation,
              KernelSpec(np.str_("linear")).family,
              DesignSpec(10, 3, np.str_("identity")).structure,
              model.kind, model.link)
    assert values == ("relu", "linear", "identity", "single_index", "f1")
    assert all(type(v) is str for v in values)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_benchmark(DesignSpec(20, 3), ModelSpec(k_signals=1), reps=1,
                              rng=7, net=_SMALL_NET),
        lambda: run_sngm(_DATASET, net=_SMALL_NET, rng=7),
        lambda: run_ingm(_DATASET, net=_SMALL_NET, rng=7),
        lambda: screen(_DATASET, _SMALL_NET, rng=7),
    ],
    ids=["run_benchmark", "run_sngm", "run_ingm", "screen"],
)
def test_pipelines_reject_a_seed_that_is_not_an_rng_seed(call, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("data was drawn or a net was fitted before the check")

    monkeypatch.setattr(simulate, "parallel_map", no_draw)
    monkeypatch.setattr(selection, "_drive", no_draw)
    with pytest.raises(ConfigurationError, match="rng must be an RngSeed, got 7"):
        call()


_X, _N = _DATASET.x, _SMALL_NET
_U, _V = _X[:, 0], _X[:, 1]
_D, _M = DesignSpec(20, 3), ModelSpec(k_signals=1)


_WRONG_TYPED = {
    "run_sngm-dataset": lambda: run_sngm(_DATASET.x, net=_N),
    "run_sngm-spec": lambda: run_sngm(_DATASET, spec="linear", net=_N),
    "run_sngm-net": lambda: run_sngm(_DATASET, net=None),
    "run_sngm-screen_opts": lambda: run_sngm(_DATASET, net=_N, screen_opts=5),
    "run_ingm-spec": lambda: run_ingm(_DATASET, spec=None, net=_N),
    "run_ingm-net": lambda: run_ingm(_DATASET, net="fast"),
    "run_ingm-screen_opts": lambda: run_ingm(_DATASET, net=_N, screen_opts=5),
    "run_benchmark-design": lambda: run_benchmark((20, 3), _M, reps=1, net=_N),
    "run_benchmark-model": lambda: run_benchmark(_D, None, reps=1, net=_N),
    "run_benchmark-spec": lambda: run_benchmark(_D, _M, reps=1, spec="linear", net=_N),
    "run_benchmark-net": lambda: run_benchmark(_D, _M, reps=1, net=None),
    "run_benchmark-screen_opts":
        lambda: run_benchmark(_D, _M, "s_sngm", reps=1, net=_N, screen_opts=5),
    "screen-dataset": lambda: screen(_DATASET.x, _N),
    "screen-config": lambda: screen(_DATASET, None),
    "make_all_mirrors-dataset": lambda: make_all_mirrors(_DATASET.x),
    "make_all_mirrors-spec": lambda: make_all_mirrors(_DATASET, "linear"),
    "make_all_mirrors-rng": lambda: make_all_mirrors(_DATASET, rng=7),
    "minimize_c-spec": lambda: minimize_c(_U, _V, None, "gaussian"),
    "minimize_c-search": lambda: minimize_c(_U, _V, None, KernelSpec(), search=None),
    "gram_matrix-spec": lambda: gram_matrix(_X, None),
    "conditional_dependence-spec": lambda: conditional_dependence(_U, _V, None, "linear"),
    "train-config": lambda: train(_X, _DATASET.y, None),
    "train_many-config": lambda: train_many([_X], _DATASET.y, "fast", [RngSeed(1)]),
    "sample_design-spec": lambda: sample_design((5, 2)),
    "sample_design-rng": lambda: sample_design(_D, rng=7),
    "sample_response-model": lambda: sample_response(_X, None),
    "sample_response-rng": lambda: sample_response(_X, _M, rng=7),
    "precision_matrix-spec": lambda: precision_matrix((5, 2)),
}


@pytest.mark.parametrize("call", list(_WRONG_TYPED.values()), ids=list(_WRONG_TYPED))
def test_wrong_typed_argument_is_rejected_before_any_work(call, monkeypatch):
    # a setting object of the wrong type is a ConfigurationError (exit 2),
    # a non-Dataset in place of the data InvalidDataError (exit 3); both
    # come before any draw, fit or worker
    def no_work(*args, **kwargs):
        raise AssertionError("data was drawn or a net was fitted before the check")

    monkeypatch.setattr(simulate, "parallel_map", no_work)
    monkeypatch.setattr(selection, "_drive", no_work)
    monkeypatch.setattr(neuralnet, "_fit_stack", no_work)
    monkeypatch.setattr(RngSeed, "generator", no_work)
    with pytest.raises(MirrorSelectError, match=r" must be an? \w+, got ") as info:
        call()
    expected = InvalidDataError if "must be a Dataset" in str(info.value) else ConfigurationError
    assert type(info.value) is expected


def test_parallel_map_forks_no_more_workers_than_items(monkeypatch):
    # a recording stand-in for the process pool: it starts no process
    pools = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", RecordingPool)
    assert _parallel.parallel_map(abs, [-1, -2, 3], threads=64) == [1, 2, 3]
    assert _parallel.parallel_map(abs, range(-5, 0), threads=2) == [5, 4, 3, 2, 1]
    assert _parallel.parallel_map(abs, [-4], threads=8) == [4]
    assert pools == [3, 2]


def test_thread_count_is_capped_by_cpus_items_and_memory(monkeypatch):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 4)
    budget = _parallel._THREAD_BYTES
    assert _parallel._thread_count(20, budget // 8) == 4
    assert _parallel._thread_count(3, budget // 8) == 3
    assert _parallel._thread_count(20, budget // 2) == 2
    # one item over the budget still runs, on one thread
    assert _parallel._thread_count(20, budget + 1) == 1
    monkeypatch.setattr(_parallel, "_cpus", lambda: 1)
    assert _parallel._thread_count(20, 8) == 1


@pytest.mark.parametrize(
    "cpus, k, groups, pools",
    [
        (2, 50, [25, 25], [2]),
        (1, 50, [25, 25], []),
        (2, 1, [1], []),
        (2, 200, [25] * 8, [2]),
    ],
)
def test_training_groups_follow_the_chunking_rule(monkeypatch, cpus, k, groups, pools):
    # nets of the ingm_linear shape (n = 300, d = 51, hidden (32, 16)):
    # the budget holds 33, so 50 nets make two balanced groups of 25, one
    # round of two worker processes on two CPUs and two in sequence on
    # one; one net runs inline; 200 nets make eight groups of 25 in four
    # rounds, all on the one pool of two workers that the call starts
    gen = np.random.default_rng(3)
    x = gen.standard_normal((300, 51))
    cfg = NetConfig(hidden_sizes=(32, 16), epochs=0)
    assert _GROUP_BYTES // (4 * 300 * (51 + 32 + 16 + 1)) == 33
    monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
    started = []
    fitted = []

    class RecordingPool(_parallel.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    process_map = _parallel.process_map

    @contextlib.contextmanager
    def recording_process_map(workers):
        with process_map(workers) as map_groups:

            def recording_map(fn, jobs):
                # the groups' sizes as this process hands them to the workers
                fitted.extend(len(job[0]) for job in jobs)
                return map_groups(fn, jobs)

            yield recording_map

    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(_parallel, "process_map", recording_process_map)
    nets = train_many([x] * k, x[:, 0], cfg, [RngSeed(1, i) for i in range(k)])
    assert len(nets) == k
    assert fitted == groups
    assert started == pools


def test_thread_maps_run_inline_in_parallel_map_workers(monkeypatch):
    # the pool's processes are workers; the caller is not
    monkeypatch.setattr(_parallel, "_cpus", lambda: 4)
    count = functools.partial(_parallel._thread_count, 4)
    assert count(8) == 4
    assert _parallel.parallel_map(count, [8, 8], threads=2) == [1, 1]
    assert count(8) == 4


def test_any_multiprocessing_worker_runs_its_maps_inline(monkeypatch):
    # a process that multiprocessing starts, outside process_map's pools
    # (say a user's multiprocessing.Pool), sizes its maps to one as well
    monkeypatch.setattr(_parallel, "_cpus", lambda: 4)
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    worker = context.Process(target=lambda: send.send(_parallel._thread_count(4, 8)))
    worker.start()
    assert receive.poll(60)
    assert receive.recv() == 1
    worker.join(60)
    assert worker.exitcode == 0
    assert _parallel._thread_count(4, 8) == 4
    receive.close()
    send.close()
