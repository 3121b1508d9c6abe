"""Shared numeric configuration for seeded Monte-Carlo runs.

A leaf module: it imports no numpy and no other package module, so the CLI
reads the worker default (`WORKERS`) without loading either.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

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


@dataclass(frozen=True)
class NumericConfig:
    """Knobs that every stochastic evaluation reads.

    Identical configs produce identical results: samples are a pure function
    of (seed, sample index).
    """

    seed: int = 12345
    mc_samples: int = 200_000
    chunk_size: int = CHUNK_SIZE
    workers: int = WORKERS


DEFAULT_CONFIG = NumericConfig()
