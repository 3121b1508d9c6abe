"""Shared numeric configuration for seeded Monte-Carlo runs."""

from __future__ import annotations

from dataclasses import dataclass

from .mc import CHUNK_SIZE, WORKERS


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
