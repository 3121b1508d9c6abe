import math

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
