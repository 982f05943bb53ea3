import numpy as np
import pytest

from mirrorselect import _parallel


@pytest.fixture
def gen():
    return np.random.default_rng(20240817)


def naive_conditional_dependence(k_u, k_v, k_w):
    """Reference double sum for the dependence measure, explicit loops.

    Centers K_U and K_V the slow way (subtract row, column, and grand
    means) and accumulates the elementwise triple product one entry at a
    time.  Deliberately O(n^2) scalar work so it shares no code with the
    vectorized implementation.
    """
    n = k_u.shape[0]
    a = _slow_center(k_u)
    b = _slow_center(k_v)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += a[i, j] * b[i, j] * k_w[i, j]
    return total / (n * n)


def _slow_center(k):
    n = k.shape[0]
    row = [sum(k[i, j] for j in range(n)) / n for i in range(n)]
    col = [sum(k[i, j] for i in range(n)) / n for j in range(n)]
    grand = sum(row) / n
    out = np.empty_like(k)
    for i in range(n):
        for j in range(n):
            out[i, j] = k[i, j] - row[i] - col[j] + grand
    return out


def dependence_on_grid(x, z, k_w, grid, gram):
    """dep(x + c z, x - c z | W) at every c of ``grid``, a chunk of c
    values at a time, straight from the measure's definition:
    (1/n**2) sum_ij [H K_U H]_ij [H K_V H]_ij [K_W]_ij, clipped at 0.

    ``gram`` maps an (m, n) stack of columns to their (m, n, n) Grams.
    Shares no code with the library's measure.
    """
    n, chunk = len(x), 500
    out = np.empty(len(grid))
    for start in range(0, len(grid), chunk):
        c = grid[start:start + chunk, None]
        k_u = _batched_center(gram(x + c * z))
        k_v = _batched_center(gram(x - c * z))
        out[start:start + chunk] = np.einsum("cij,cij,ij->c", k_u, k_v, k_w) / (n * n)
    return np.maximum(out, 0.0)


def _batched_center(k):
    return (
        k
        - k.mean(axis=1, keepdims=True)
        - k.mean(axis=2, keepdims=True)
        + k.mean(axis=(1, 2), keepdims=True)
    )


def pool_of(monkeypatch, threads):
    """Force every thread map, and ``train_many``'s worker count, to
    ``threads``; the returned list records the size of each thread pool
    and each process pool started."""
    pools = []

    class RecordingPool(_parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    class RecordingProcessPool(_parallel.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(_parallel, "_thread_count", lambda count, item_bytes: threads)
    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", RecordingProcessPool)
    return pools
