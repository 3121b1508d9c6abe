"""Deterministic chunked Monte-Carlo driver.

Samples are partitioned into fixed-size chunks; chunk i draws from
default_rng([seed, i]). Chunk partial sums are reduced in index order, so the
estimate is bit-identical for any worker count and any chunk execution order.
Each chunk also reports the sum of squared deviations from its own mean, and
the chunks are merged by the pairwise update of Chan, Golub & LeVeque (1979),
so the error bar does not cancel away when the spread is small against the
mean. Each chunk squares its deviations scaled by 2^-e, with e the binary
exponent of the largest of them, and the merge works at the largest e, so
the error bar neither underflows to zero nor overflows. Scaling by a power of
two is exact: wherever the unscaled squares are normal numbers, the result
has the same bits.

`values` may also return m values per sample, as the rows of an
(m, count) array: each row is reduced on its own, by the steps a one-row run
takes, so one pass serves several observables that read the same draws.

`map_chunks` owns the package's thread pool: `mc_mean` runs its chunks
through it and `kernels.kernel_hartogs` its row blocks. Both default to
`WORKERS` threads, and neither result depends on the thread count.
`concurrent.futures` is imported where a pool is started, so a caller that
starts none does not load it. `numpy.random` still loads with the module:
deferred, its import (about 15 ms) would only move into the first draw.

A `Workspace` keeps chunk-sized scratch arrays per thread, so a worker's
later chunks reuse the memory of its first one: the allocator hands freed
blocks of that size back to the kernel, and the next chunk would fault them
in again. `mc_mean` makes one per call, so nothing outlives the call, and
it keeps nothing when no worker runs a second chunk. While a worker runs a
chunk, `scratch()` returns that call's workspace, so `values` fetches it
there. A worker reduces the `values` result of a chunk before it starts its
next one, so `values` may build its result in that worker's workspace. The
functions that write into one are private (named `_..._in` or `_..._into`),
and no public function returns a workspace array: the public ones run the
same private code in `FRESH`, the workspace that keeps nothing. An array
handed to a caller's function, as the points the projection hands `f`, is
lent (`Workspace.lend`): its memory is used again only once the array and
every view of it are gone, so an array the caller keeps is never written.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from typing import Callable, Iterable, Tuple

import numpy as np

SampleFn = Callable[[np.random.Generator, int], np.ndarray]

# Samples per chunk unless a caller sets another size.
CHUNK_SIZE = 1 << 15


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform (macOS, Windows)
        return os.cpu_count() or 1


# Worker threads unless a caller sets another count: the CPUs this process
# may run on.
WORKERS = _usable_cpus()


def map_chunks(fn: Callable, items: Iterable, workers: int = WORKERS) -> list:
    """[fn(item) for item in items], run on min(workers, len(items)) threads.

    Results come back in item order. One item or one worker runs in the
    calling thread and starts no pool. An exception raised by `fn` reaches
    the caller unchanged; with several, the one of the earliest item does,
    whichever thread raised first.
    """
    items = list(items)
    threads = min(workers, len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


class Workspace(threading.local):
    """Chunk-sized scratch arrays, one set per thread.

    `empty(name, shape)` returns an uninitialised array. On one thread, a
    name always hands out the same memory, grown when a larger shape asks
    for it, so the next request of that name overwrites the array: a caller
    is done with it before asking again, and never returns it from a public
    function. A workspace made with keep=False keeps nothing: every request
    gets a new array that is freed with its last reference, as in code with
    no workspace.
    """

    def __init__(self, keep: bool = True):
        self._buffers: dict[str, np.ndarray] = {}
        self._lent: dict[str, tuple[bytearray, weakref.ref]] = {}
        self.keep = keep

    def empty(self, name: str, shape: tuple[int, ...], dtype=float,
              order: str = "C") -> np.ndarray:
        if not self.keep:
            return np.empty(shape, dtype, order=order)
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape, order=order)

    def lend(self, name: str, shape: tuple[int, ...], dtype=float,
             order: str = "C") -> np.ndarray:
        """`empty` for an array handed to a caller's function, which may keep
        it. The array is made over memory it does not own, so every numpy
        view of it refers to it; the next request of the name lends that
        memory again only when the array is gone, and otherwise takes new
        memory. So an array lent out is never written while it, or a view
        of it, can still be read."""
        if not self.keep:
            return np.empty(shape, dtype, order=order)
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        memory, lent = self._lent.get(name, (bytearray(), lambda: None))
        if lent() is not None or len(memory) < nbytes:
            memory = bytearray(nbytes)
        array = np.ndarray(shape, dtype, buffer=memory, order=order)
        self._lent[name] = (memory, weakref.ref(array))
        return array


# The workspace that keeps nothing, for the public functions that share
# their code with the chunk functions.
FRESH = Workspace(keep=False)

# This thread's `mc_mean` workspace, while it runs one of that call's chunks.
_running = threading.local()


def scratch() -> Workspace:
    """The workspace of the `mc_mean` call whose chunk this thread runs, or
    `FRESH` outside a chunk."""
    return getattr(_running, "workspace", FRESH)


def chunk_layout(total: int, chunk_size: int) -> list[tuple[int, int]]:
    """(chunk index, samples in chunk) pairs covering `total` samples."""
    if total < 0:
        raise ValueError("sample count must be non-negative")
    out = []
    idx = 0
    remaining = total
    while remaining > 0:
        take = min(chunk_size, remaining)
        out.append((idx, take))
        idx += 1
        remaining -= take
    return out


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def mc_mean(values: SampleFn, total: int, seed: int, chunk_size: int = CHUNK_SIZE,
            workers: int = WORKERS) -> Tuple[complex, float] | list[Tuple[complex, float]]:
    """Mean and standard error of `values(rng, count)` over `total` samples.

    `values` must return one finite value per sample (complex or real),
    shape (count,), and then the result is (mean, stderr); or m values per
    sample as an (m, count) array, and then the result is a list of m
    (mean, stderr) pairs, each with the bits of a run whose `values` returns
    that row alone. The standard error is sqrt(Var/N) with Var the usual
    unbiased sample variance (E|x - mean|^2 for complex values). Raises
    ValueError for fewer than two samples, which leave the variance
    undefined, for a result of another shape, and for a chunk with a
    non-finite value, naming the chunk index (and the row of an (m, count)
    result). The chunks run on `workers` threads (`map_chunks`), so `values`
    must be safe to call from several threads at once. While it runs,
    `scratch()` returns this call's workspace, which keeps its arrays only
    when some worker runs more than one chunk: a call of one chunk per
    worker then holds no more memory at once than code with no workspace.
    """
    if total < 2:
        raise ValueError(f"mc_mean needs at least two samples, got {total}")
    layout = chunk_layout(total, chunk_size)
    workspace = Workspace(keep=len(layout) > workers)

    def partial(item):
        """(rows, chunk moments per row); rows is None for a (count,) result."""
        idx, count = item
        outer = scratch()  # a `values` may itself call mc_mean
        _running.workspace = workspace
        try:
            vals = np.asarray(values(chunk_rng(seed, idx), count))
            if vals.shape == (count,):
                return None, [_chunk_moments(vals, workspace, f"chunk {idx}")]
            if vals.ndim == 2 and vals.shape[1] == count:
                return len(vals), [_chunk_moments(row, workspace, f"chunk {idx} in row {r}")
                                   for r, row in enumerate(vals)]
        finally:
            _running.workspace = outer
        raise ValueError(f"mc_mean: chunk {idx} of {count} samples returned values "
                         f"of shape {vals.shape}")

    partials = map_chunks(partial, layout, workers)
    if len({rows for rows, _ in partials}) > 1:
        raise ValueError("mc_mean: the chunks returned different numbers of rows")
    merged = [_merge(moments) for moments in zip(*(moments for _, moments in partials))]
    return merged[0] if partials[0][0] is None else merged


def _chunk_moments(vals: np.ndarray, scratch: Workspace, where: str
                   ) -> tuple[complex, float, int, int]:
    """(sum, scaled sum of squared deviations, scale exponent, count) of one
    chunk's samples; the deviations go to `scratch`, never into `vals`."""
    count = vals.shape[0]
    s = complex(vals.sum())
    if not np.isfinite(s):
        raise ValueError(f"mc_mean: {where} has a non-finite sample value")
    mean = s / count
    if not np.iscomplexobj(vals):
        mean = mean.real
    dev = np.subtract(vals, mean, out=scratch.empty("dev", vals.shape,
                                                    np.result_type(vals, mean)))
    if np.iscomplexobj(dev):
        dev = dev.view(dev.real.dtype)  # |d|^2 is the sum of its squared parts
    exp = math.frexp(float(max(dev.max(), -dev.min())))[1]  # of max |d|
    np.ldexp(dev, -exp, out=dev)
    dev *= dev
    return s, float(dev.sum()), exp, count


def _merge(partials: list) -> Tuple[complex, float]:
    """Mean and standard error from the chunk moments, merged in chunk order."""
    s = sum(p[0] for p in partials)
    n = sum(p[3] for p in partials)
    mean = s / n
    top = max(p[2] for p in partials)
    m2 = math.fsum(math.ldexp(m2_i, 2 * (exp - top))
                   + count * math.ldexp(abs(s_i / count - mean), -top) ** 2
                   for s_i, m2_i, exp, count in partials)
    stderr = math.ldexp(math.sqrt(m2 / (n - 1) / n), top)
    if mean.imag == 0.0:
        return mean.real, stderr
    return mean, stderr
