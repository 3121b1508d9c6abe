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

`map_chunks` owns the package's thread pool: `mc_mean` runs its chunks
through it and `kernels.kernel_hartogs` its row blocks. Both default to
`WORKERS` threads, and neither result depends on the thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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


def mc_mean(values: SampleFn, total: int, seed: int,
            chunk_size: int = CHUNK_SIZE, workers: int = WORKERS) -> Tuple[complex, float]:
    """Mean and standard error of `values(rng, count)` over `total` samples.

    `values` must return one finite value per sample (complex or real). The
    standard error is sqrt(Var/N) with Var the usual unbiased sample variance
    (E|x - mean|^2 for complex values). Raises ValueError for fewer than two
    samples, which leave the variance undefined, and for a chunk with a
    non-finite value, naming the chunk index. The chunks run on `workers`
    threads (`map_chunks`), so `values` must be safe to call from several
    threads at once.
    """
    if total < 2:
        raise ValueError(f"mc_mean needs at least two samples, got {total}")
    layout = chunk_layout(total, chunk_size)

    def partial(item):
        idx, count = item
        vals = np.asarray(values(chunk_rng(seed, idx), count))
        s = complex(vals.sum())
        if not np.isfinite(s):
            raise ValueError(f"mc_mean: chunk {idx} has a non-finite sample value")
        mean = s / count
        dev = vals - (mean if np.iscomplexobj(vals) else mean.real)
        if np.iscomplexobj(dev):
            dev = dev.view(dev.real.dtype)  # |d|^2 is the sum of its squared parts
        exp = math.frexp(float(np.abs(dev).max()))[1]
        np.ldexp(dev, -exp, out=dev)
        dev *= dev
        return s, float(dev.sum()), exp, count

    partials = map_chunks(partial, layout, workers)
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
