"""Deterministic chunked Monte-Carlo driver.

Samples are partitioned into fixed-size chunks; chunk i draws from
default_rng([seed, i]). Chunk partial sums are reduced in index order, so the
estimate is bit-identical for any worker count and any chunk execution order.
Each chunk also reports the sum of squared deviations from its own mean, and
the chunks are merged by the pairwise update of Chan, Golub & LeVeque (1979),
so the error bar does not cancel away when the spread is small against the
mean.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Tuple

import numpy as np

SampleFn = Callable[[np.random.Generator, int], np.ndarray]


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
            chunk_size: int = 1 << 15, workers: int = 1) -> Tuple[complex, float]:
    """Mean and standard error of `values(rng, count)` over `total` samples.

    `values` must return one finite value per sample (complex or real). The
    standard error is sqrt(Var/N) with Var the usual unbiased sample variance
    (E|x - mean|^2 for complex values). Raises ValueError for fewer than two
    samples, which leave the variance undefined, and for a chunk with a
    non-finite value, naming the chunk index.
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
        dev *= dev
        return s, float(dev.sum()), count

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(partial, layout))
    else:
        partials = [partial(item) for item in layout]

    s = sum(p[0] for p in partials)
    n = sum(p[2] for p in partials)
    mean = s / n
    m2 = math.fsum(p[1] + p[2] * abs(p[0] / p[2] - mean) ** 2 for p in partials)
    stderr = math.sqrt(m2 / (n - 1) / n)
    if mean.imag == 0.0:
        return mean.real, stderr
    return mean, stderr
