"""Where mirrorselect runs work in parallel: a process map for the
benchmark's repetitions and for the groups of nets that ``train_many``
fits, and a thread map for the per-feature c-searches.

Work units carry their own seeds and write nothing shared, so the result
is identical whatever the worker count; parallelism only changes
wall-clock time.  Training runs in processes because its many small
numpy calls per minibatch would hand the interpreter lock back and
forth between threads.  Any ``multiprocessing`` worker process, such as
``parallel_map``'s, runs its thread maps and its training inline, so
the benchmark's worker count stays the one control of its parallelism.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager

# Memory the items of one thread map may hold at once: a tall design
# runs fewer concurrent c-searches, each of which holds n x n arrays.
_THREAD_BYTES = 100_000_000

# Memory one chunk's items may hold: the float32 stacked designs and
# full-data activations of a group of nets trained together (about 33
# nets at n = 300, d = 51 with hidden layers (32, 16)), or the drawn data
# of a chunk of benchmark reps.
_GROUP_BYTES = 4_000_000


@contextmanager
def process_map(workers: int):
    """A ``map(fn, items) -> list`` on one pool of ``workers`` processes,
    open for the block, so its calls share the pool's start and stop;
    inline for one worker or fewer.  Its workers run their maps inline."""
    if workers <= 1:
        yield lambda fn, items: [fn(item) for item in items]
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield lambda fn, items: list(pool.map(fn, items))


def parallel_map(fn, items, threads: int = 1) -> list:
    """``[fn(item) for item in items]`` on up to ``threads`` processes,
    never more processes than items (a fork pool starts every worker at
    its first task)."""
    items = list(items)
    with process_map(min(threads, len(items))) as map_items:
        return map_items(fn, items)


def _chunks(count: int, threads: int, item_bytes: int, budget: int = _GROUP_BYTES) -> list[range]:
    """Indices 0..count-1 cut into consecutive chunks of near-equal size,
    one per worker per round, with as few rounds as keep each chunk's
    ``item_bytes`` per item within ``budget``.  Chunk sizes therefore do
    not grow with ``count``."""
    cap = max(1, budget // item_bytes)
    rounds = -(-count // (threads * cap))
    size = -(-count // (threads * rounds))
    return [range(start, min(start + size, count)) for start in range(0, count, size)]


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(count: int, item_bytes: int) -> int:
    """Threads, or ``train_many``'s worker processes, for ``count`` items
    of ``item_bytes`` each: the smallest of the usable CPUs, the item
    count and the items ``_THREAD_BYTES`` holds, at least 1; always 1 in
    a worker process, one that ``multiprocessing`` started."""
    if multiprocessing.parent_process() is not None:
        return 1
    return max(1, min(_cpus(), count, _THREAD_BYTES // item_bytes))


def thread_map(fn, items, item_bytes: int) -> list:
    """``[fn(item) for item in items]`` on a thread pool sized by
    ``_thread_count``, inline with one thread.  Results come in item
    order, and an error raises that of the first failing item."""
    items = list(items)
    threads = _thread_count(len(items), item_bytes)
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
