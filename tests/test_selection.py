"""Tests for mirror statistics, thresholding, screening and the two
selection pipelines."""

import json

import numpy as np
import pytest
from scipy.stats import binomtest

from mirrorselect import (
    ConfigurationError,
    Dataset,
    InvalidDataError,
    KernelSpec,
    MirrorSelectError,
    NetConfig,
    RngSeed,
    ScreenOptions,
    TrainingError,
    adaptive_threshold,
    estimate_fdp,
    fdp_curve,
    mirror_statistic,
    run_ingm,
    run_sngm,
    screen,
    threshold_candidates,
)
from mirrorselect import selection
from mirrorselect.selection import default_m_keep

LINEAR = KernelSpec("linear")


def _linear_dataset(rng, n, p, k=0, coef=10.0):
    """Gaussian design with k strong linear signals; returns (Dataset, truth)."""
    gen = rng.child(99).generator()
    x = gen.standard_normal((n, p))
    beta = np.zeros(p)
    support = gen.choice(p, size=k, replace=False) if k else np.array([], dtype=int)
    if k:
        beta[support] = coef * gen.choice([-1.0, 1.0], size=k)
    y = x @ beta + gen.standard_normal(n)
    return Dataset(x, y), frozenset(int(j) for j in support)


class TestMirrorStatistic:
    def test_hand_values(self):
        assert mirror_statistic(2.0, 3.0) == 4.0
        assert mirror_statistic(2.0, -3.0) == -4.0

    def test_equal_importances(self, gen):
        for _ in range(50):
            a = gen.standard_normal()
            np.testing.assert_allclose(mirror_statistic(a, a), 2 * abs(a))

    def test_antisymmetry(self, gen):
        for _ in range(100):
            a, b = gen.standard_normal(2)
            assert mirror_statistic(a, b) == mirror_statistic(b, a)
            assert mirror_statistic(-a, -b) == mirror_statistic(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(InvalidDataError):
            mirror_statistic(bad, 1.0)


class TestEstimateFdp:
    def test_hand_values(self):
        assert estimate_fdp([3.0, -2.0, 5.0], 2.0) == 0.5
        assert estimate_fdp([1.0, 2.0, 3.0], 0.5) == 0.0
        # empty selection: denominator clamps to 1
        assert estimate_fdp([-1.0, -2.0], 3.0) == 0.0

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_nonpositive_threshold_rejected(self, t):
        with pytest.raises(ConfigurationError):
            estimate_fdp([1.0, 2.0], t)

    def test_tail_counts_monotone(self, gen):
        # both tail counts shrink as t grows
        for _ in range(20):
            m = gen.standard_normal(40)
            grid = np.sort(threshold_candidates(m))
            neg = [np.sum(m <= -t) for t in grid]
            pos = [np.sum(m >= t) for t in grid]
            assert all(a >= b for a, b in zip(neg, neg[1:]))
            assert all(a >= b for a, b in zip(pos, pos[1:]))


class TestThresholdCandidates:
    def test_zeros_dropped_and_sorted(self):
        m = [0.0, -2.0, 1.0, 2.0, 0.0, -0.5]
        np.testing.assert_array_equal(threshold_candidates(m), [0.5, 1.0, 2.0])

    def test_all_zero(self):
        assert threshold_candidates(np.zeros(4)).size == 0


class TestAdaptiveThreshold:
    def test_hand_values(self):
        m = [5.0, 4.0, 3.0, -3.0]
        assert adaptive_threshold(m, 0.34) == 3.0
        assert adaptive_threshold(m, 0.2) == 4.0

    def test_none_when_all_negative(self):
        assert adaptive_threshold([-1.0, -2.0, -3.0], 0.2) is None

    def test_threshold_is_a_candidate(self, gen):
        for _ in range(50):
            m = gen.standard_normal(30)
            t = adaptive_threshold(m, 0.3)
            if t is not None:
                assert t in threshold_candidates(m)
                assert estimate_fdp(m, t) <= 0.3

    def test_monotone_in_q(self, gen):
        # larger q admits a lower threshold; None counts as +inf
        for _ in range(50):
            m = gen.standard_normal(25)
            q1, q2 = sorted(gen.uniform(0.05, 0.6, size=2))
            t1 = adaptive_threshold(m, q1)
            t2 = adaptive_threshold(m, q2)
            assert (np.inf if t1 is None else t1) >= (np.inf if t2 is None else t2)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 2.0])
    def test_bad_q_rejected(self, q):
        with pytest.raises(ConfigurationError):
            adaptive_threshold([1.0], q)

    def test_nan_statistic_rejected(self):
        # a NaN would sort last and count as a tally above every threshold
        with pytest.raises(InvalidDataError):
            adaptive_threshold([np.nan, 1.0, -2.0], 0.2)
        with pytest.raises(InvalidDataError):
            fdp_curve([np.nan, 1.0, -2.0])


def test_fdp_curve_matches_pointwise(gen):
    normal = gen.standard_normal(20)
    ties = np.append(np.round(gen.standard_normal(40), 1), [0.0, -0.0, 0.0])
    all_negative = -np.abs(gen.standard_normal(10))
    for m in (normal, ties, np.concatenate([ties, -ties]), all_negative, np.zeros(6)):
        curve = fdp_curve(m)
        grid = threshold_candidates(m)
        assert [t for t, _ in curve] == list(grid)
        for t, f in curve:
            assert f == estimate_fdp(m, t)
        for q in (0.1, 0.2, 0.5):
            first = next((float(t) for t in grid if estimate_fdp(m, t) <= q), None)
            assert adaptive_threshold(m, q) == first


def test_default_m_keep():
    assert default_m_keep(100, 20) == 20
    assert default_m_keep(100, 80) == 50
    assert default_m_keep(1, 10) == 1


class TestScreen:
    def test_keep_all(self):
        rng = RngSeed(12)
        ds, _ = _linear_dataset(rng, 60, 8)
        result = screen(ds, NetConfig(hidden_sizes=(8,), epochs=20), m_keep=8, rng=rng)
        assert result.kept == tuple(range(8))

    def test_split_size_and_rows(self):
        rng = RngSeed(13)
        ds, _ = _linear_dataset(rng, 100, 5)
        result = screen(ds, NetConfig(hidden_sizes=(8,), epochs=20), m_keep=3, rng=rng)
        assert result.split_rows.size == 100 // 3
        assert np.unique(result.split_rows).size == result.split_rows.size
        assert result.split_rows.min() >= 0 and result.split_rows.max() < 100

    def test_determinism(self):
        rng = RngSeed(14)
        ds, _ = _linear_dataset(rng, 90, 6)
        cfg = NetConfig(hidden_sizes=(8,), epochs=30)
        a = screen(ds, cfg, m_keep=4, rng=RngSeed(5))
        b = screen(ds, cfg, m_keep=4, rng=RngSeed(5))
        assert a.kept == b.kept
        np.testing.assert_array_equal(a.importances, b.importances)
        np.testing.assert_array_equal(a.split_rows, b.split_rows)

    def test_kept_sets_nested(self):
        # same seed, growing m_keep: rankings agree, so kept sets nest
        rng = RngSeed(15)
        ds, _ = _linear_dataset(rng, 90, 10)
        cfg = NetConfig(hidden_sizes=(8,), epochs=30)
        kept = [
            set(screen(ds, cfg, m_keep=k, rng=RngSeed(6)).kept) for k in (3, 6, 10)
        ]
        assert kept[0] <= kept[1] <= kept[2]

    def test_strong_feature_ranked_first(self):
        # y depends only on feature 0; it should top the ranking almost always
        cfg = NetConfig(hidden_sizes=(16, 8), epochs=100, learning_rate=5e-3)
        hits = 0
        for rep in range(20):
            rng = RngSeed(4000 + rep)
            gen = rng.child(99).generator()
            x = gen.standard_normal((300, 20))
            y = 8.0 * x[:, 0] + gen.standard_normal(300)
            result = screen(Dataset(x, y), cfg, m_keep=10, rng=rng)
            if int(np.argmax(np.abs(result.importances))) == 0:
                hits += 1
        assert hits >= 18

    def test_m_keep_out_of_range(self):
        rng = RngSeed(16)
        ds, _ = _linear_dataset(rng, 60, 4)
        with pytest.raises(ConfigurationError):
            screen(ds, m_keep=5, rng=rng)

    def test_too_few_rows(self):
        ds = Dataset(np.eye(5), np.arange(5.0))
        with pytest.raises(InvalidDataError):
            screen(ds, m_keep=2, rng=RngSeed(0))


FAST_NET = NetConfig(hidden_sizes=(8, 4), epochs=40, learning_rate=5e-3)


class TestRunSngm:
    def test_determinism(self):
        ds, _ = _linear_dataset(RngSeed(21), 100, 8, k=2)
        a = run_sngm(ds, q=0.2, spec=LINEAR, net=FAST_NET, rng=RngSeed(7))
        b = run_sngm(ds, q=0.2, spec=LINEAR, net=FAST_NET, rng=RngSeed(7))
        assert a.selected == b.selected
        assert a.threshold == b.threshold
        assert a.curve == b.curve
        np.testing.assert_array_equal(a.stats.m, b.stats.m)
        np.testing.assert_array_equal(a.c_values, b.c_values)

    def test_result_invariants(self):
        ds, _ = _linear_dataset(RngSeed(22), 150, 10, k=3)
        res = run_sngm(ds, q=0.2, spec=LINEAR, net=FAST_NET, rng=RngSeed(8))
        m = res.stats.m
        assert res.method == "sngm"
        assert res.stats.m.shape == (10,)
        assert res.failure_reasons == {}
        assert np.all(res.c_values >= 0)
        if res.threshold is None:
            assert res.selected == frozenset()
        else:
            assert res.selected == frozenset(np.flatnonzero(m >= res.threshold))
            assert estimate_fdp(m, res.threshold) <= 0.2
            assert res.threshold in threshold_candidates(m)
        assert res.curve == fdp_curve(m)

    def test_strong_signals_recovered(self):
        # 20 seeded reps, 10 strong signals out of 30
        net = NetConfig(epochs=300, learning_rate=5e-3)
        powers, fdps = [], []
        for rep in range(20):
            rng = RngSeed(3000 + rep)
            ds, truth = _linear_dataset(rng, 300, 30, k=10)
            res = run_sngm(ds, q=0.2, spec=LINEAR, net=net, rng=rng)
            powers.append(len(res.selected & truth) / len(truth))
            fdps.append(len(res.selected - truth) / max(len(res.selected), 1))
        assert np.mean(powers) >= 0.7
        assert np.mean(fdps) <= 0.3

    def test_json_round_trip(self):
        ds, _ = _linear_dataset(RngSeed(23), 90, 6, k=1)
        res = run_sngm(ds, q=0.25, spec=LINEAR, net=FAST_NET, rng=RngSeed(9))
        doc = json.loads(json.dumps(res.to_json_dict()))
        assert doc["schema"] == "mirrorselect/selection/v1"
        assert doc["method"] == "sngm"
        assert doc["q"] == 0.25
        assert doc["n_selected"] == len(res.selected)
        assert doc["selected"] == sorted(res.selected)
        assert len(doc["features"]) == 6
        rec = doc["features"][0]
        assert rec["index"] == 0
        assert rec["name"] == ds.names[0]
        np.testing.assert_allclose(rec["m"], res.stats.m[0])
        assert doc["timing"]["total_s"] > 0

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_bad_q_rejected(self, q):
        ds, _ = _linear_dataset(RngSeed(24), 60, 4)
        with pytest.raises(ConfigurationError):
            run_sngm(ds, q=q, spec=LINEAR, net=FAST_NET, rng=RngSeed(0))

    def test_all_constant_rejected(self):
        ds = Dataset(np.ones((30, 3)), np.arange(30.0))
        with pytest.raises(InvalidDataError):
            run_sngm(ds, q=0.2, spec=LINEAR, net=FAST_NET, rng=RngSeed(0))


class TestRunIngm:
    def test_null_selections_sparse_and_symmetric(self):
        # pure-noise targets: selections stay small and the pooled
        # statistics are sign balanced
        net = NetConfig(hidden_sizes=(16, 8), epochs=60, learning_rate=5e-3)
        sizes = []
        pooled = []
        for rep in range(20):
            rng = RngSeed(1000 + rep)
            ds, _ = _linear_dataset(rng, 200, 20, k=0)
            res = run_ingm(ds, q=0.2, spec=LINEAR, net=net, rng=rng)
            sizes.append(len(res.selected))
            pooled.extend(res.stats.m.tolist())
        assert np.mean(sizes) <= 0.2 * 20
        pooled = np.asarray(pooled)
        nonzero = pooled[pooled != 0]
        test = binomtest(int(np.sum(nonzero > 0)), nonzero.size, 0.5)
        assert test.pvalue >= 0.01

    def test_strong_signals_recovered(self):
        # 5 of 20 features carry coefficients at ten times the noise sd
        net = NetConfig(hidden_sizes=(16, 8), epochs=60, learning_rate=5e-3)
        powers = []
        for rep in range(20):
            rng = RngSeed(2000 + rep)
            ds, truth = _linear_dataset(rng, 300, 20, k=5)
            res = run_ingm(ds, q=0.2, spec=LINEAR, net=net, rng=rng)
            powers.append(len(res.selected & truth) / len(truth))
        assert np.mean(powers) >= 0.8

    def test_single_feature_huge_signal(self):
        rng = RngSeed(60)
        gen = rng.child(99).generator()
        x = gen.standard_normal((120, 1))
        y = 20.0 * x[:, 0] + 0.1 * gen.standard_normal(120)
        res = run_ingm(
            Dataset(x, y),
            q=0.2,
            spec=LINEAR,
            net=NetConfig(hidden_sizes=(8,), epochs=200, learning_rate=1e-2,
                          batch_size=32),
            rng=rng,
        )
        assert res.selected == frozenset({0})
        assert res.method == "ingm"

    def test_determinism(self):
        ds, _ = _linear_dataset(RngSeed(25), 80, 5, k=1)
        a = run_ingm(ds, q=0.2, spec=LINEAR, net=FAST_NET, rng=RngSeed(11))
        b = run_ingm(ds, q=0.2, spec=LINEAR, net=FAST_NET, rng=RngSeed(11))
        assert a.selected == b.selected
        np.testing.assert_array_equal(a.stats.m, b.stats.m)

    def test_diverging_nets_isolated_then_abort(self, monkeypatch):
        # relu nets on the edge of divergence: at lr 0.5 one of the ten
        # per-feature nets diverges, at lr 0.6 two do (more than a tenth)
        gen = RngSeed(40).child(99).generator()
        x = gen.standard_normal((60, 10))
        ds = Dataset(x, 3.0 * x[:, 0] + gen.standard_normal(60))

        def net(lr):
            return NetConfig(hidden_sizes=(8,), activation="relu", epochs=20,
                             batch_size=16, learning_rate=lr)

        fits = []
        train_many = selection.train_many

        def recording_train_many(*args):
            fits[:] = train_many(*args)
            return fits

        monkeypatch.setattr(selection, "train_many", recording_train_many)
        res = run_ingm(ds, q=0.2, spec=LINEAR, net=net(0.5), rng=RngSeed(2))
        assert sorted(res.failure_reasons) == [8]
        assert res.stats.m[8] == 0.0
        assert res.stats.importance_plus[8] == res.stats.importance_minus[8] == 0.0
        assert 8 not in res.selected
        assert np.count_nonzero(res.stats.m) == 9
        errors = [fit for fit in fits if isinstance(fit, TrainingError)]
        assert [err.feature_index for err in errors] == [8]
        # the reason travels with the result, down to result.json
        assert res.failure_reasons == {8: str(errors[0])}
        assert res.failure_reasons[8].startswith("loss became non-finite at epoch ")
        records = res.to_json_dict()["features"]
        assert records[8]["failed"] is True
        assert records[8]["failure_reason"] == res.failure_reasons[8]
        assert all(rec["failure_reason"] is None for rec in records if rec["index"] != 8)

        with pytest.raises(TrainingError) as info:
            run_ingm(ds, q=0.2, spec=LINEAR, net=net(0.6), rng=RngSeed(2))
        assert str(info.value).startswith("2 of 10 per-feature networks failed")
        assert info.value.feature_index == 3

    def test_sngm_faster_for_ten_plus_features(self):
        # joint run trains one network, individual run trains twelve
        ds, _ = _linear_dataset(RngSeed(77), 120, 12, k=3)
        cfg = NetConfig(hidden_sizes=(8, 4), epochs=30, learning_rate=5e-3)
        fast = run_sngm(ds, q=0.2, spec=LINEAR, net=cfg, rng=RngSeed(77))
        slow = run_ingm(ds, q=0.2, spec=LINEAR, net=cfg, rng=RngSeed(77))
        assert fast.elapsed_s < slow.elapsed_s


class TestConstantColumns:
    def _base(self):
        gen = RngSeed(31).child(99).generator()
        x = gen.standard_normal((80, 5))
        y = 6.0 * x[:, 1] + gen.standard_normal(80)
        return x, y

    @pytest.mark.parametrize("runner", [run_sngm, run_ingm])
    def test_appended_constant_changes_nothing(self, runner):
        x, y = self._base()
        names = tuple(f"f{j}" for j in range(5))
        base = runner(
            Dataset(x, y, names=names), q=0.2, spec=LINEAR, net=FAST_NET,
            rng=RngSeed(3),
        )
        wide = runner(
            Dataset(np.column_stack([x, np.full(80, 7.0)]), y, names=names + ("pad",)),
            q=0.2, spec=LINEAR, net=FAST_NET, rng=RngSeed(3),
        )
        assert wide.selected == base.selected
        assert bool(wide.constant[5])
        assert wide.stats.m[5] == 0.0
        np.testing.assert_array_equal(wide.stats.m[:5], base.stats.m)

    @pytest.mark.parametrize("runner", [run_sngm, run_ingm])
    def test_prepended_constant_shifts_indices(self, runner):
        x, y = self._base()
        names = tuple(f"f{j}" for j in range(5))
        base = runner(
            Dataset(x, y, names=names), q=0.2, spec=LINEAR, net=FAST_NET,
            rng=RngSeed(3),
        )
        wide = runner(
            Dataset(np.column_stack([np.full(80, 7.0), x]), y, names=("pad",) + names),
            q=0.2, spec=LINEAR, net=FAST_NET, rng=RngSeed(3),
        )
        assert wide.selected == frozenset(j + 1 for j in base.selected)
        np.testing.assert_array_equal(wide.stats.m[1:], base.stats.m)


class TestScreenedPipelines:
    def test_screened_out_features_never_selected(self):
        rng = RngSeed(41)
        ds, _ = _linear_dataset(rng, 240, 12, k=2)
        res = run_sngm(
            ds, q=0.2, spec=LINEAR, net=FAST_NET, rng=rng,
            screen_opts=ScreenOptions(m_keep=5),
        )
        assert res.method == "s_sngm"
        assert res.screen is not None
        assert res.screen.split_rows.size == 240 // 3
        dropped = np.flatnonzero(res.screened_out)
        assert dropped.size == 12 - 5
        assert res.selected.isdisjoint(dropped)
        np.testing.assert_array_equal(res.stats.m[dropped], 0.0)

    def test_screened_individual_method_name(self):
        rng = RngSeed(42)
        ds, _ = _linear_dataset(rng, 120, 6, k=1)
        res = run_ingm(
            ds, q=0.2, spec=LINEAR, net=FAST_NET, rng=rng,
            screen_opts=ScreenOptions(m_keep=3),
        )
        assert res.method == "s_ingm"
        assert np.sum(res.screened_out) == 6 - 3


class TestStackedPipeline:
    """``selection._run`` over several datasets at once: every fit of a
    stage goes through one ``train_many`` call per design shape, and each
    dataset's outcome is bitwise its lone run's."""

    @staticmethod
    def _datasets():
        gen = RngSeed(43).child(99).generator()

        def draw(n, p):
            x = gen.standard_normal((n, p))
            return x, x[:, 0] - 2.0 * x[:, 1] + gen.standard_normal(n)

        a, b, d, e = draw(80, 5), draw(80, 5), draw(60, 5), draw(80, 4)
        # a constant column: once dropped, this design stacks with a and b
        xc, yc = draw(80, 6)
        xc[:, 2] = 1.5
        return [
            Dataset(*a),
            Dataset(*b),
            Dataset(xc, yc),
            Dataset(*d),
            Dataset(*e),
            Dataset(np.ones((80, 3)), np.arange(80.0)),  # nothing to select
        ]

    @pytest.mark.parametrize("method", ["sngm", "ingm"])
    @pytest.mark.parametrize("screen_opts", [None, ScreenOptions(m_keep=3)], ids=["", "s"])
    def test_each_result_is_its_lone_run(self, method, screen_opts, monkeypatch):
        datasets = self._datasets()
        rngs = [RngSeed(7, i) for i in range(len(datasets))]
        runner = run_sngm if method == "sngm" else run_ingm
        calls = []  # nets fitted per training call
        train, train_many = selection.train, selection.train_many

        def recording_train(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        def recording_train_many(*args):
            calls.append(len(args[3]))
            return train_many(*args)

        monkeypatch.setattr(selection, "train", recording_train)
        monkeypatch.setattr(selection, "train_many", recording_train_many)
        lone = []
        for ds, rng in zip(datasets, rngs):
            try:
                lone.append(runner(ds, 0.2, LINEAR, FAST_NET, rng, screen_opts))
            except MirrorSelectError as err:
                lone.append(err)
        lone_calls = calls[:]
        calls.clear()
        stacked = selection._run(method, datasets, 0.2, LINEAR, FAST_NET, rngs, screen_opts)
        # the first three datasets share every stage's shapes, so each
        # stage fits their nets in one call
        assert len(calls) < len(lone_calls)
        assert max(calls) >= 3 * max(lone_calls)

        assert len(stacked) == len(lone)
        for got, want in zip(stacked, lone):
            assert type(got) is type(want)
            if isinstance(want, MirrorSelectError):
                assert str(got) == str(want)
                continue
            assert got.method == want.method
            assert got.threshold == want.threshold
            assert got.selected == want.selected
            assert got.seed == want.seed
            assert got.failure_reasons == want.failure_reasons
            for field in ("m", "importance_plus", "importance_minus"):
                assert np.array_equal(getattr(got.stats, field), getattr(want.stats, field))
            for field in ("c_values", "constant", "screened_out"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
            assert got.curve == want.curve
        assert isinstance(stacked[-1], InvalidDataError)
        assert bool(stacked[2].constant[2]) and stacked[2].c_values[2] == 0.0

    def test_a_failing_dataset_leaves_the_others(self):
        # at this learning rate the joint net of the second dataset
        # diverges and the others train
        datasets = self._datasets()[:3]
        rngs = [RngSeed(7, i) for i in range(3)]
        net = NetConfig(hidden_sizes=(8,), activation="relu", epochs=20,
                        batch_size=16, learning_rate=0.5)
        outcomes = selection._run("sngm", datasets, 0.2, LINEAR, net, rngs, None)
        kinds = [type(o).__name__ for o in outcomes]
        assert "TrainingError" in kinds and "SelectionResult" in kinds
        for ds, rng, got in zip(datasets, rngs, outcomes):
            try:
                want = run_sngm(ds, 0.2, LINEAR, net, rng)
            except TrainingError as err:
                assert str(got) == str(err)
                continue
            assert np.array_equal(got.stats.m, want.stats.m)
            assert got.selected == want.selected
