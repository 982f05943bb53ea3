"""Acceptance gate: nine pinned end-to-end checks.

Each criterion prints one PASS/FAIL line (visible even under capture)
and then asserts.  Oracles here are written independently of the
library internals: scalar double sums, golden-section search, explicit
path enumeration, finite differences, and projection residuals.
"""

import json
import math
import time
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import hadamard
from scipy.stats import binomtest

import mirrorselect.simulate as ms
from mirrorselect.cli import main
from mirrorselect.dataset import Dataset
from mirrorselect.kernelmeasure import KernelSpec, conditional_dependence, minimize_c
from mirrorselect.mirror import make_all_mirrors
from mirrorselect.neuralnet import (
    NetConfig,
    TrainedNet,
    gradient_importance,
    path_importance,
)
from mirrorselect.rng import RngSeed
from mirrorselect.selection import ScreenOptions, adaptive_threshold, run_sngm

LINEAR = KernelSpec("linear")


def _report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"[acceptance] criterion {number} ({label}): "
              f"{'PASS' if ok else 'FAIL'}")


# ------------------------------------------------- criterion 1: measure


def _naive_gram(rows, spec):
    n = len(rows)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if spec.family == "linear":
                val = sum(a * b for a, b in zip(rows[i], rows[j]))
            elif spec.family == "gaussian":
                d2 = sum((a - b) ** 2 for a, b in zip(rows[i], rows[j]))
                val = math.exp(-d2 / (2.0 * spec.bandwidth * spec.bandwidth))
            else:
                dot = sum(a * b for a, b in zip(rows[i], rows[j]))
                val = (dot + spec.offset) ** spec.degree
            out[i][j] = val
    return out


def _naive_measure(k_u, k_v, k_w):
    n = len(k_u)

    def centered(k):
        grand = sum(sum(row) for row in k) / (n * n)
        row_mean = [sum(row) / n for row in k]
        col_mean = [sum(k[i][j] for i in range(n)) / n for j in range(n)]
        return [
            [k[i][j] - row_mean[i] - col_mean[j] + grand for j in range(n)]
            for i in range(n)
        ]

    a = centered(k_u)
    b = centered(k_v)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += a[i][j] * b[i][j] * k_w[i][j]
    return total / (n * n)


def test_criterion_1_measure_matches_double_sum(capsys):
    ok = False
    try:
        start = time.perf_counter()
        gen = np.random.default_rng(26081401)
        specs = [
            KernelSpec("linear"),
            KernelSpec("gaussian", bandwidth=1.3),
            KernelSpec("polynomial", degree=2, offset=1.0),
            KernelSpec("polynomial", degree=3, offset=0.5),
        ]
        worst = 0.0
        for case in range(100):
            n = int(gen.integers(5, 51))
            spec = specs[case % len(specs)]
            if spec.family == "gaussian":
                spec = replace(spec, bandwidth=float(gen.uniform(0.8, 2.0)))
            u = gen.standard_normal(n)
            v = gen.standard_normal(n)
            d_w = int(gen.integers(0, 4))
            w = gen.standard_normal((n, d_w))
            impl = conditional_dependence(u, v, w, spec)
            k_u = _naive_gram([[x] for x in u], spec)
            k_v = _naive_gram([[x] for x in v], spec)
            if d_w == 0:
                k_w = [[1.0] * n for _ in range(n)]
            else:
                k_w = _naive_gram([list(row) for row in w], spec)
            naive = _naive_measure(k_u, k_v, k_w)
            np.testing.assert_allclose(impl, naive, rtol=1e-10, atol=1e-12)
            worst = max(worst, abs(impl - naive))
        elapsed = time.perf_counter() - start
        ok = elapsed < 10.0
    finally:
        _report(capsys, 1, "measure matches double sum", ok)
    assert ok, f"worst abs gap {worst:.3e}, elapsed {elapsed:.1f}s"


# ------------------------------------------ criterion 2: closed-form c*


def _golden_section(x, z, w):
    xc = x - x.mean()
    zc = z - z.mean()

    def objective(c):
        return conditional_dependence(xc + c * zc, xc - c * zc, w, LINEAR) ** 2

    hi = 10.0 * np.linalg.norm(x) / np.linalg.norm(z)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, hi
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


def test_criterion_2_closed_form_c_oracle(capsys):
    ok = False
    try:
        start = time.perf_counter()
        gen = np.random.default_rng(26081402)

        # golden-section agreement on 50 interior instances
        checked = 0
        guard = 0
        while checked < 50:
            guard += 1
            assert guard < 2000, "instance generation stalled"
            n = int(gen.integers(12, 41))
            x = gen.standard_normal(n)
            z = gen.standard_normal(n)
            w = gen.standard_normal((n, int(gen.integers(1, 5))))
            cf = minimize_c(x, z, w)
            if cf.c_star == 0.0:
                # boundary minimizer has no relative scale; covered below
                continue
            gs = _golden_section(x, z, w)
            np.testing.assert_allclose(cf.c_star, gs, rtol=1e-4)
            checked += 1

        # boundary instances: the search lands within tolerance of zero
        boundary = 0
        guard = 0
        while boundary < 5:
            guard += 1
            assert guard < 20000, "no boundary instances found"
            n = int(gen.integers(12, 41))
            x = gen.standard_normal(n)
            z = gen.standard_normal(n)
            w = gen.standard_normal((n, int(gen.integers(1, 5))))
            cf = minimize_c(x, z, w)
            if cf.c_star != 0.0:
                continue
            hi = 10.0 * np.linalg.norm(x) / np.linalg.norm(z)
            assert _golden_section(x, z, w) <= 1e-3 * hi
            boundary += 1

        # orthogonal designs: equals the projection-residual ratio.
        # Walsh columns multiply by index XOR, so with x and z spanned by
        # an XOR-closed index set disjoint from the conditioning columns,
        # the conditioning block sees the perturbation only through the
        # ones column.
        for n, w_idx, span in [
            (16, (0, 1, 2), (4, 8, 12)),
            (32, (0, 1, 2, 3), (8, 16, 24)),
            (64, (0, 1, 2, 3, 5), (16, 32, 48)),
        ]:
            h = hadamard(n).astype(float)
            w = h[:, list(w_idx)]
            for _ in range(5):
                x = h[:, list(span)] @ gen.standard_normal(len(span))
                z = h[:, list(span)] @ gen.standard_normal(len(span))
                cf = minimize_c(x, z, w)
                qx = x - w @ np.linalg.lstsq(w, x, rcond=None)[0]
                qz = z - w @ np.linalg.lstsq(w, z, rcond=None)[0]
                gm = math.sqrt((qx @ qx) / (qz @ qz))
                np.testing.assert_allclose(cf.c_star, gm, rtol=1e-8)
        elapsed = time.perf_counter() - start
        ok = elapsed < 30.0
    finally:
        _report(capsys, 2, "closed-form c oracle", ok)
    assert ok, f"elapsed {elapsed:.1f}s"


# ------------------------------------------- criterion 3: importances


def _enumerate_paths(weights, j):
    if len(weights) == 1:
        return float(weights[0][j, 0])
    hidden_ranges = [range(w.shape[1]) for w in weights[:-1]]
    total = 0.0
    for combo in product(*hidden_ranges):
        term = weights[0][j, combo[0]]
        for t in range(1, len(weights) - 1):
            term *= weights[t][combo[t - 1], combo[t]]
        term *= weights[-1][combo[-1], 0]
        total += term
    return total


def _random_net(gen, widths, activation="tanh"):
    sizes = list(widths) + [1]
    weights = [
        gen.standard_normal((a, b)) for a, b in zip(sizes[:-1], sizes[1:])
    ]
    biases = [0.3 * gen.standard_normal(b) for b in sizes[1:]]
    return TrainedNet(weights, biases, activation)


def test_criterion_3_importance_oracles(capsys):
    ok = False
    try:
        start = time.perf_counter()
        gen = np.random.default_rng(26081403)
        for _ in range(100):
            depth = int(gen.integers(0, 4))
            widths = [int(gen.integers(1, 5)) for _ in range(depth + 1)]
            net = _random_net(gen, widths)
            values = path_importance(net)
            for j in range(widths[0]):
                np.testing.assert_allclose(
                    values[j], _enumerate_paths(net.weights, j),
                    rtol=1e-12, atol=1e-12,
                )
        for _ in range(10):
            depth = int(gen.integers(1, 4))
            widths = [int(gen.integers(2, 8)) for _ in range(depth + 1)]
            net = _random_net(gen, widths, activation="tanh")
            point = gen.standard_normal(widths[0])
            grad = gradient_importance(net, point)
            h = 1e-5
            for j in range(widths[0]):
                up = point.copy()
                up[j] += h
                dn = point.copy()
                dn[j] -= h
                fd = (net.predict(up)[0] - net.predict(dn)[0]) / (2 * h)
                np.testing.assert_allclose(grad[j], fd, rtol=1e-4, atol=1e-7)
        elapsed = time.perf_counter() - start
        ok = elapsed < 30.0
    finally:
        _report(capsys, 3, "importance oracles", ok)
    assert ok, f"elapsed {elapsed:.1f}s"


# --------------------------------------- criterion 4: null sign symmetry


def test_criterion_4_null_sign_symmetry(capsys):
    ok = False
    try:
        start = time.perf_counter()
        design = ms.DesignSpec(200, 20, "identity")
        model = ms.ModelSpec(kind="linear", k_signals=0)
        net = NetConfig(hidden_sizes=(16, 8), epochs=350, learning_rate=5e-3)
        pooled = []
        for rep in range(30):
            rng = RngSeed(13).child(rep)
            x = ms.sample_design(design, rng.child(0))
            sample = ms.sample_response(x, model, rng.child(1))
            res = run_sngm(Dataset(x, sample.y), 0.2, net=net, rng=rng.child(2))
            m = res.stats.m
            pooled.extend(m[m != 0.0])
        pooled = np.asarray(pooled)
        n_pos = int(np.sum(pooled > 0))
        p_value = binomtest(n_pos, pooled.size).pvalue
        elapsed = time.perf_counter() - start
        ok = p_value >= 0.01 and elapsed < 300.0
    finally:
        _report(capsys, 4, "null sign symmetry", ok)
    assert ok, (
        f"sign test p={p_value:.4f} ({n_pos}/{pooled.size} positive), "
        f"elapsed {elapsed:.0f}s"
    )


# ------------------------------------ criteria 5 and 6: desk-scale runs


DESK_DESIGN = ms.DesignSpec(300, 50, "toeplitz_pc", rho=0.5)


def test_criterion_5_fdr_and_power_linear(capsys):
    ok = False
    try:
        start = time.perf_counter()
        sd = ms.default_coef_sd(300, 50)
        assert math.isclose(sd, 20.0 * math.sqrt(math.log(50) / 300), rel_tol=1e-12)
        model = ms.ModelSpec(kind="linear", k_signals=10)
        net = NetConfig(hidden_sizes=(32, 16), epochs=300, learning_rate=5e-3)
        plain = ms.run_benchmark(
            DESK_DESIGN, model, method="sngm", q=0.2, reps=20,
            rng=RngSeed(23), net=net,
        )
        screened = ms.run_benchmark(
            DESK_DESIGN, model, method="s_sngm", q=0.2, reps=20,
            rng=RngSeed(32), net=net, screen_opts=ScreenOptions(m_keep=25),
        )
        elapsed = time.perf_counter() - start
        ok = (
            not plain.failures and not screened.failures
            and plain.mean_fdp <= 0.30 and plain.mean_power >= 0.6
            and screened.mean_fdp <= 0.30 and screened.mean_power >= 0.6
            and elapsed < 900.0
        )
    finally:
        _report(capsys, 5, "fdr and power, linear", ok)
    assert ok, (
        f"sngm fdp={plain.mean_fdp:.3f} power={plain.mean_power:.3f}, "
        f"s_sngm fdp={screened.mean_fdp:.3f} power={screened.mean_power:.3f}, "
        f"elapsed {elapsed:.0f}s"
    )


def test_criterion_6_fdr_and_power_cubic_link(capsys):
    ok = False
    try:
        start = time.perf_counter()
        model = ms.ModelSpec(kind="single_index", link="f2", k_signals=10)
        net = NetConfig(
            hidden_sizes=(16, 8), epochs=300, learning_rate=5e-3,
            activation="relu",
        )
        out = ms.run_benchmark(
            DESK_DESIGN, model, method="sngm", q=0.2, reps=20,
            rng=RngSeed(44), net=net,
        )
        elapsed = time.perf_counter() - start
        ok = (
            not out.failures
            and out.mean_fdp <= 0.30 and out.mean_power >= 0.5
            and elapsed < 900.0
        )
    finally:
        _report(capsys, 6, "fdr and power, cubic link", ok)
    assert ok, (
        f"fdp={out.mean_fdp:.3f} power={out.mean_power:.3f}, "
        f"elapsed {elapsed:.0f}s"
    )


# -------------------------------------- criterion 7: threshold semantics


def test_criterion_7_threshold_hand_values(capsys):
    ok = False
    try:
        m = [5.0, 4.0, 3.0, -3.0]
        ok = adaptive_threshold(m, 0.34) == 3.0 and adaptive_threshold(m, 0.2) == 4.0
    finally:
        _report(capsys, 7, "threshold hand values", ok)
    assert ok, (
        f"q=0.34 -> {adaptive_threshold(m, 0.34)}, "
        f"q=0.2 -> {adaptive_threshold(m, 0.2)}"
    )


# ------------------------------------------ criterion 8: cli determinism


_TIMING_KEYS = {"timing", "timings"}


def _strip_timing(doc):
    if isinstance(doc, dict):
        return {
            k: _strip_timing(v) for k, v in doc.items() if k not in _TIMING_KEYS
        }
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


def _normalized_tree(root: Path):
    tree = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = str(path.relative_to(root))
        raw = path.read_bytes()
        if path.suffix == ".json":
            tree[rel] = _strip_timing(json.loads(raw))
        elif path.name == "reps.csv":
            lines = raw.decode().splitlines()
            header = lines[0].split(",")
            drop = header.index("runtime_ms")
            tree[rel] = [
                ",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                for line in lines
            ]
        else:
            tree[rel] = raw
    return tree


def test_criterion_8_cli_determinism(tmp_path, monkeypatch, capsys):
    commands = [
        ["simulate", "--n", "60", "--p", "8", "--k", "3",
         "--structure", "toeplitz", "--rho", "0.5", "--seed", "5",
         "--out", "sim"],
        ["select", "--data", "sim/dataset.csv", "--response", "y",
         "--truth", "sim/truth.json", "--q", "0.2", "--method", "sngm",
         "--hidden", "8,4", "--epochs", "40", "--learning-rate", "0.005",
         "--seed", "3", "--out", "sel"],
        ["benchmark", "--n", "50", "--p", "6", "--k", "2",
         "--structure", "identity", "--reps", "3", "--q", "0.2",
         "--method", "sngm", "--hidden", "6,3", "--epochs", "30",
         "--seed", "7", "--out", "ben"],
        ["roc", "--data", "sim/dataset.csv", "--response", "y",
         "--truth", "sim/truth.json", "--hidden", "8,4", "--epochs", "40",
         "--seed", "3", "--out", "roc"],
    ]
    ok = False
    try:
        trees = []
        for run in ("first", "second"):
            root = tmp_path / run
            root.mkdir()
            monkeypatch.chdir(root)
            for argv in commands:
                assert main(argv) == 0
            trees.append(_normalized_tree(root))
        same_files = sorted(trees[0]) == sorted(trees[1])
        ok = same_files and all(trees[0][k] == trees[1][k] for k in trees[0])
    finally:
        _report(capsys, 8, "cli determinism", ok)
    assert ok, "repeated runs differ beyond timing fields"


# --------------------------------------- criterion 9: mirror cost scaling


def test_criterion_9_mirror_cost_scaling(capsys):
    ok = False
    try:
        start = time.perf_counter()
        gen = np.random.default_rng(26081409)
        n = 200
        sizes = [50, 100, 200, 400]
        warm = Dataset(gen.standard_normal((n, 50)), gen.standard_normal(n))
        make_all_mirrors(warm, LINEAR, rng=RngSeed(9))
        times = []
        for p in sizes:
            ds = Dataset(gen.standard_normal((n, p)), gen.standard_normal(n))
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                pairs = make_all_mirrors(ds, LINEAR, rng=RngSeed(9))
                best = min(best, time.perf_counter() - t0)
            assert len(pairs) == p
            times.append(best)
        slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        elapsed = time.perf_counter() - start
        ok = slope < 2.0 and elapsed < 600.0
    finally:
        _report(capsys, 9, "mirror cost scaling", ok)
    assert ok, f"log-log slope {slope:.3f}, elapsed {elapsed:.0f}s"
