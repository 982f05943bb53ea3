"""Tests for synthetic designs, response models, metrics, ROC sweeps and
the benchmark driver."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from mirrorselect import (
    ConfigurationError,
    DesignSpec,
    InvalidDataError,
    ModelSpec,
    NetConfig,
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
from mirrorselect.neuralnet import _GROUP_BYTES
from mirrorselect.simulate import LINKS, _chunks, _mean_se


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
            kind="single_index", link="f2", support=(0, 3), coef_sd=2.0,
            noise_sd=0.0,
        )
        sample = sample_response(x, model, RngSeed(23))
        assert sample.truth == frozenset({0, 3})
        np.testing.assert_array_equal(np.flatnonzero(sample.beta), [0, 3])
        np.testing.assert_allclose(
            sample.y, 0.5 * (x @ sample.beta) ** 3, rtol=1e-12
        )

    def test_support_overrides_count(self):
        model = ModelSpec(support=(3, 1))
        assert model.k_signals == 2
        assert model.support == (1, 3)

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
            dict(support=(1, 1)),
            dict(coef_sd=0.0),
            dict(noise_sd=-1.0),
        ],
    )
    def test_bad_model_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModelSpec(**kwargs)

    def test_support_out_of_range(self):
        x = np.zeros((10, 3))
        with pytest.raises(ConfigurationError):
            sample_response(x, ModelSpec(support=(0, 5)), RngSeed(0))

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
    opts = screen_opts if method.startswith("s_") else None
    rows, failures = [], []
    for rep in range(reps):
        rep_rng = rng.child(rep)
        x = sample_design(design, rep_rng.child(0))
        sample = sample_response(x, model, rep_rng.child(1))
        sel_rng = rep_rng.child(2)
        try:
            result = runner(Dataset(x, sample.y), q, net=net, rng=sel_rng, screen_opts=opts)
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
        opts = ScreenOptions(m_keep=3)
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
            (5, "TrainingError: loss became non-finite at epoch 5 "
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


def test_parallel_map_forks_no_more_workers_than_items(monkeypatch):
    # a recording stand-in for the process pool: it starts no process
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
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
