"""Process-based map used by the benchmark driver.

Work units carry their own seeds, so the result is identical whatever
the worker count; parallelism only changes wall-clock time.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def parallel_map(fn, items, threads: int = 1) -> list:
    """``[fn(item) for item in items]`` on up to ``threads`` processes,
    never more processes than items (a fork pool starts every worker at
    its first task)."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))
