"""Shared numeric configuration for seeded Monte-Carlo runs and radius grids."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericConfig:
    """Knobs that every stochastic evaluation reads.

    Identical configs produce identical results: samples are a pure function
    of (seed, sample index).
    """

    seed: int = 12345
    mc_samples: int = 200_000
    chunk_size: int = 1 << 15
    workers: int = 1
    grid_points: int = 200
    grid_r_max: float = 0.999

    def with_(self, **kwargs) -> "NumericConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = NumericConfig()
