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
deferred, its import (about 15 ms) would only move into the first draw. A
variant that deferred it did just that in the benchmark's series-edge
workload, whose first timed Schur op then paid for the import: `wall_s` went
from 0.047 and 0.050 s to 0.0625 and 0.0603 s in two pairs of runs, about
+30% (2-core x86-64 Xeon). The defaults `CHUNK_SIZE` and `WORKERS` live in
`config`, where the CLI reads its `--workers` default without loading numpy;
every subcommand that draws samples loads this module, and `numpy.random`
with it, before its first draw.

Each chunk allocates the arrays it works in, and every array a public
function returns, or hands to a caller's function such as the points the
projection hands `f`, belongs to the caller: nothing in the package writes
it again.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Tuple

import numpy as np

from .config import CHUNK_SIZE, WORKERS

SampleFn = Callable[[np.random.Generator, int], np.ndarray]


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
    must be safe to call from several threads at once.
    """
    if total < 2:
        raise ValueError(f"mc_mean needs at least two samples, got {total}")

    def partial(item):
        """(rows, chunk moments per row); rows is None for a (count,) result."""
        idx, count = item
        vals = np.asarray(values(chunk_rng(seed, idx), count))
        if vals.shape == (count,):
            return None, [_chunk_moments(vals, f"chunk {idx}")]
        if vals.ndim == 2 and vals.shape[1] == count:
            return len(vals), [_chunk_moments(row, f"chunk {idx} in row {r}")
                               for r, row in enumerate(vals)]
        raise ValueError(f"mc_mean: chunk {idx} of {count} samples returned values "
                         f"of shape {vals.shape}")

    partials = map_chunks(partial, chunk_layout(total, chunk_size), workers)
    if len({rows for rows, _ in partials}) > 1:
        raise ValueError("mc_mean: the chunks returned different numbers of rows")
    merged = [_merge(moments) for moments in zip(*(moments for _, moments in partials))]
    return merged[0] if partials[0][0] is None else merged


def _chunk_moments(vals: np.ndarray, where: str) -> tuple[complex, float, int, int]:
    """(sum, scaled sum of squared deviations, scale exponent, count) of one
    chunk's samples; the deviations go to a new array, never into `vals`."""
    count = vals.shape[0]
    s = complex(vals.sum())
    if not np.isfinite(s):
        raise ValueError(f"mc_mean: {where} has a non-finite sample value")
    mean = s / count
    if not np.iscomplexobj(vals):
        mean = mean.real
    dev = vals - mean
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
