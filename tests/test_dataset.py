import numpy as np
import pytest

from mirrorselect import (
    Dataset,
    InvalidDataError,
    KernelSpec,
    NetConfig,
    RngSeed,
    run_sngm,
)
from mirrorselect.dataset import default_names


def _toy(gen, n=30, p=4):
    x = gen.standard_normal((n, p))
    y = gen.standard_normal(n)
    return Dataset(x, y)


def test_shapes_and_defaults(gen):
    ds = _toy(gen, n=25, p=3)
    assert (ds.n, ds.p) == (25, 3)
    assert ds.names == ("x0", "x1", "x2")
    assert ds.response_name == "y"


def test_default_names():
    assert default_names(3) == ("x0", "x1", "x2")


@pytest.mark.parametrize(
    "bad",
    [
        lambda x, y: (x[:, 0], y),              # 1-d design
        lambda x, y: (x, y[:, None]),           # 2-d response
        lambda x, y: (x, y[:-1]),               # length mismatch
        lambda x, y: (x * np.nan, y),
        lambda x, y: (x, np.r_[y[:-1], np.inf]),
        lambda x, y: (x[:0], y[:0]),            # no rows
        lambda x, y: (x[:, :0], y),             # no columns
    ],
)
def test_invalid_arrays_rejected(gen, bad):
    x = gen.standard_normal((10, 3))
    y = gen.standard_normal(10)
    with pytest.raises(InvalidDataError):
        Dataset(*bad(x, y))


def test_name_count_must_match_the_columns(gen):
    x = gen.standard_normal((10, 3))
    with pytest.raises(InvalidDataError, match="got 2 names for 3 columns"):
        Dataset(x, x[:, 0], names=("a", "b"))


def test_duplicate_names_rejected(gen):
    x = gen.standard_normal((10, 2))
    with pytest.raises(InvalidDataError):
        Dataset(x, x[:, 0], names=("a", "a"))


def test_take_rows(gen):
    ds = _toy(gen)
    sub = ds.take_rows(np.array([3, 1, 7]))
    np.testing.assert_array_equal(sub.x, ds.x[[3, 1, 7]])
    np.testing.assert_array_equal(sub.y, ds.y[[3, 1, 7]])
    assert sub.names == ds.names


def test_select_columns(gen):
    x = gen.standard_normal((20, 5))
    ds = Dataset(x, x[:, 1], names=("a", "b", "c", "d", "e"), response_name="r")
    sub = ds.select_columns([4, 2, 1])
    assert sub.names == ("e", "c", "b")
    assert sub.response_name == "r"
    np.testing.assert_array_equal(sub.x, x[:, [4, 2, 1]])
    np.testing.assert_array_equal(sub.y, ds.y)


def test_constant_columns(gen):
    x = gen.standard_normal((40, 3))
    x[:, 1] = 2.5
    ds = Dataset(x, x[:, 0])
    np.testing.assert_array_equal(ds.constant_columns(),
                                  np.array([False, True, False]))


def test_standardized(gen):
    x = gen.standard_normal((200, 3)) * np.array([4.0, 0.5, 9.0]) + 1.0
    x[:, 1] = -3.0
    y = gen.standard_normal(200)
    std = Dataset(x, y).standardized()
    means = std.x.mean(axis=0)
    sds = std.x.std(axis=0)
    np.testing.assert_allclose(means[[0, 2]], 0.0, atol=1e-12)
    np.testing.assert_allclose(sds[[0, 2]], 1.0, rtol=1e-12)
    # constant column centered but not rescaled past its zero spread
    np.testing.assert_allclose(std.x[:, 1], 0.0, atol=1e-12)
    np.testing.assert_array_equal(std.y, y)


def test_immutability(gen):
    ds = _toy(gen)
    with pytest.raises((ValueError, AttributeError)):
        ds.x[0, 0] = 99.0


def test_results_do_not_depend_on_memory_layout(gen):
    x = gen.standard_normal((60, 6))
    y = x[:, 0] + gen.standard_normal(60)
    net = NetConfig(hidden_sizes=(8,), epochs=20, learning_rate=5e-3)
    for spec in (KernelSpec("linear"), KernelSpec("gaussian")):
        a = run_sngm(Dataset(x, y), 0.2, spec, net, RngSeed(1))
        b = run_sngm(Dataset(np.asfortranarray(x), y), 0.2, spec, net, RngSeed(1))
        np.testing.assert_array_equal(a.c_values, b.c_values)
        np.testing.assert_array_equal(a.stats.m, b.stats.m)
