import concurrent.futures
import math
import os

import numpy as np
import pytest

from hartogs import config, kernels, mc, transfer
from hartogs.cli import builtin_example
from hartogs.config import NumericConfig
from hartogs.domains import HartogsDomainSpec


def offset_values(offset, spread):
    def values(rng, count):
        return offset + spread * (rng.random(count) - 0.5)
    return values


class TestMcMeanVariance:
    def test_large_offset_keeps_the_error_bar(self):
        # uniform spread s has standard deviation s/sqrt(12); the one-pass
        # sum-of-squares form cancelled it to zero at this offset
        n, spread = 100_000, 1e-3
        est, err = mc.mc_mean(offset_values(1e6, spread), n, seed=3, chunk_size=4096)
        assert est == pytest.approx(1e6, abs=1e-6)
        assert err == pytest.approx(spread / math.sqrt(12 * n), rel=0.02)

    def test_matches_two_pass_reference(self):
        def values(rng, count):
            return rng.normal(size=count) + 1j * rng.normal(size=count) + (2 - 1j)
        n, chunk = 50_000, 3000
        est, err = mc.mc_mean(values, n, seed=5, chunk_size=chunk)
        vals = np.concatenate([values(mc.chunk_rng(5, idx), count)
                               for idx, count in mc.chunk_layout(n, chunk)])
        ref_var = np.sum(np.abs(vals - vals.mean()) ** 2) / (n - 1)
        assert est == pytest.approx(vals.mean(), rel=1e-13)
        assert err == pytest.approx(math.sqrt(ref_var / n), rel=1e-12)

    def test_workers_bit_identical(self):
        values = offset_values(1e6, 1e-3)
        one = mc.mc_mean(values, 70_001, seed=9, chunk_size=1000)
        assert mc.mc_mean(values, 70_001, seed=9, chunk_size=1000, workers=3) == one

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_error_bar_of_tiny_and_huge_samples(self, scale):
        # unscaled, the squared deviations underflow to 0 or overflow to inf
        total = 3 * mc.CHUNK_SIZE + 5
        est, err = mc.mc_mean(lambda rng, c: scale * rng.random(c), total, 1)
        ref_est, ref_err = mc.mc_mean(lambda rng, c: rng.random(c), total, 1)
        assert est == pytest.approx(scale * ref_est, rel=1e-14, abs=0)
        assert err == pytest.approx(scale * ref_err, rel=1e-14, abs=0)

    @pytest.mark.parametrize("e", [-600, 600])
    def test_power_of_two_scale_is_exact(self, e):
        def values(rng, count):
            return rng.normal(size=count) + 1j * rng.normal(size=count)
        est, err = mc.mc_mean(values, 50_000, seed=4, chunk_size=3000)
        got = mc.mc_mean(lambda rng, c: np.ldexp(values(rng, c).view(float), e).view(complex),
                         50_000, seed=4, chunk_size=3000)
        assert got == (complex(math.ldexp(est.real, e), math.ldexp(est.imag, e)),
                       math.ldexp(err, e))

    @pytest.mark.parametrize("total", [0, 1])
    def test_rejects_fewer_than_two_samples(self, total):
        with pytest.raises(ValueError, match="at least two"):
            mc.mc_mean(offset_values(0.0, 1.0), total, seed=1)

    @pytest.mark.parametrize("total", [-1, 0, 1])
    def test_a_bad_count_is_rejected_by_mc_mean_alone(self, total):
        with pytest.raises(ValueError, match=f"mc_mean needs at least two samples, got {total}"):
            mc.mc_mean(lambda rng, count: rng.random(count), total, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.inf)])
    def test_rejects_non_finite_values_naming_the_chunk(self, bad):
        def values(rng, count):
            out = rng.random(count).astype(type(bad))
            if count == 7:  # the short last chunk, index 2
                out[5] = bad
            return out
        with pytest.raises(ValueError, match="chunk 2"):
            mc.mc_mean(values, 2007, seed=1, chunk_size=1000)


class TestPool:
    def test_default_worker_count_is_the_usable_cpus(self):
        if hasattr(os, "sched_getaffinity"):
            assert mc.WORKERS == len(os.sched_getaffinity(0))
        else:
            assert mc.WORKERS == os.cpu_count()

    def test_defaults_are_the_config_objects(self):
        # `config` owns them, so the CLI reads them without loading numpy
        assert mc.WORKERS is config.WORKERS and mc.CHUNK_SIZE is config.CHUNK_SIZE
        assert config.NumericConfig().workers == mc.WORKERS

    def test_one_chunk_or_one_worker_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        est, err = mc.mc_mean(offset_values(0.0, 1.0), 1000, seed=2, chunk_size=1000, workers=4)
        assert math.isfinite(est) and err > 0
        assert mc.map_chunks(lambda i: i, range(5), workers=1) == list(range(5))

    def test_results_in_item_order_on_at_most_one_thread_per_item(self, monkeypatch):
        sizes = []
        pool = concurrent.futures.ThreadPoolExecutor

        def recorded(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recorded)
        assert mc.map_chunks(lambda i: i * i, range(7), workers=3) == [i * i for i in range(7)]
        assert mc.map_chunks(lambda i: -i, range(2), workers=8) == [0, -1]
        assert sizes == [3, 2]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_error_of_a_later_chunk_reaches_the_caller(self, workers):
        def values(rng, count):
            if count == 7:  # the short last chunk, index 3
                raise ValueError("bad sample in the short chunk")
            return rng.random(count)
        with pytest.raises(ValueError, match="^bad sample in the short chunk$"):
            mc.mc_mean(values, 3007, seed=1, chunk_size=1000, workers=workers)


def _rows(rng, count):
    """Three observables of the same draws: real, complex, and real scaled far down."""
    u = rng.random((count, 2))
    return np.stack([u[:, 0] + 0.5, u[:, 0] - 1j * u[:, 1], 1e-170 * u[:, 1]])


class TestRowsOfValues:
    """`values` may return (m, count): each row is reduced as a run of its own."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("total", [5_000, 2 * mc.CHUNK_SIZE + 1])
    def test_each_row_has_the_bits_of_its_one_row_run(self, total, workers):
        chunk = 1000 if total < mc.CHUNK_SIZE else mc.CHUNK_SIZE
        rows = mc.mc_mean(_rows, total, 7, chunk, workers)
        assert isinstance(rows, list) and len(rows) == 3
        for r, got in enumerate(rows):
            want = mc.mc_mean(lambda rng, count: _rows(rng, count)[r].copy(), total, 7, chunk,
                              workers)
            assert type(got[0]) is type(want[0])
            assert [complex(v).real.hex() for v in got] == [complex(v).real.hex() for v in want]
            assert [complex(v).imag.hex() for v in got] == [complex(v).imag.hex() for v in want]

    def test_one_row_gives_a_list_of_one(self):
        def values(rng, count):
            return rng.random(count)
        assert mc.mc_mean(lambda rng, c: values(rng, c)[None], 3000, 2, 1000) == [
            mc.mc_mean(values, 3000, 2, 1000)]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_non_finite_row_names_its_chunk_and_row(self, workers):
        def values(rng, count):
            out = _rows(rng, count)
            if count == 7:  # the short last chunk, index 2
                out[1, 3] = math.nan
            return out
        with pytest.raises(ValueError, match="chunk 2 in row 1 has a non-finite"):
            mc.mc_mean(values, 2007, seed=1, chunk_size=1000, workers=workers)

    @pytest.mark.parametrize("shape", [(999,), (1001,), (2, 3, 1000), ()])
    def test_rejects_values_of_another_shape(self, shape):
        with pytest.raises(ValueError, match=r"chunk 0 of 1000 samples returned values of shape"):
            mc.mc_mean(lambda rng, count: np.zeros(shape), 2000, 1, 1000)

    def test_rejects_chunks_with_different_numbers_of_rows(self):
        def values(rng, count):
            return np.zeros((2 if count == 1000 else 3, count))
        with pytest.raises(ValueError, match="different numbers of rows"):
            mc.mc_mean(values, 2500, 1, 1000)


class TestOwnership:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_mc_mean_does_not_write_the_values_it_reduces(self, workers):
        handed = []

        def values(rng, count):
            out = rng.normal(size=count) + 1j * rng.normal(size=count)
            handed.append((out, out.copy()))
            return out
        mc.mc_mean(values, 5 * 1000 + 3, 4, 1000, workers)
        assert len(handed) == 6
        assert all(got.tobytes() == want.tobytes() for got, want in handed)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("estimator", ["projection", "pullback"])
    def test_each_batch_handed_to_f_belongs_to_the_caller(self, estimator, workers):
        # f keeps every batch; no later chunk of the call writes one of them
        handed = []

        def f(pts):
            handed.append((pts, pts.copy()))
            return pts[..., -1]

        if estimator == "projection":
            kernels.mc_bergman_projection(HartogsDomainSpec.standard(3, 1), f,
                                          np.array([0.1, 0.3, 0.5]), 3 * mc.CHUNK_SIZE + 9,
                                          seed=3, workers=workers)
            assert len(handed) == 4
        else:
            cfg = NumericConfig(seed=5, mc_samples=4000, chunk_size=1000, workers=workers)
            transfer.pullback_isometry_check(builtin_example("rational3"), f, cfg)
            assert len(handed) == 8  # both sides of 4 chunks
        assert all(got.tobytes() == want.tobytes() for got, want in handed)
