import math
import os

import numpy as np
import pytest

from hartogs import mc


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

    def test_one_chunk_or_one_worker_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")
        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
        est, err = mc.mc_mean(offset_values(0.0, 1.0), 1000, seed=2, chunk_size=1000, workers=4)
        assert math.isfinite(est) and err > 0
        assert mc.map_chunks(lambda i: i, range(5), workers=1) == list(range(5))

    def test_results_in_item_order_on_at_most_one_thread_per_item(self, monkeypatch):
        sizes = []
        pool = mc.ThreadPoolExecutor

        def recorded(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=max_workers)
        monkeypatch.setattr(mc, "ThreadPoolExecutor", recorded)
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
