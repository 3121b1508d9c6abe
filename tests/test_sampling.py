import numpy as np
import pytest

from hartogs import sampling
from hartogs.special import int_power, monomial


class TestDiskPoints:
    # the phase uniforms at the quarter turns and the last double below 1
    EDGE_PHASES = (0.0, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53)

    @pytest.mark.parametrize("r_min,r_max", [(0.0, 1.0), (0.2, 0.9), (0.0, 32.0 / 3.0)])
    def test_matches_mpmath_exp(self, r_min, r_max):
        # each part within 8 units of 2^-53 r of the 40-digit r exp(2 pi i u)
        mpmath = pytest.importorskip("mpmath")
        u = np.random.default_rng(7).random((2000, 2))
        u[:len(self.EDGE_PHASES), 1] = self.EDGE_PHASES
        got = sampling.disk_from_uniform(u, r_min, r_max)
        r = np.sqrt(sampling.disk_modulus_sq_from_uniform(u[:, 0], r_min, r_max))
        with mpmath.workdps(40):
            for ui, ri, gi in zip(u[:, 1], r, got):
                ref = mpmath.mpf(ri) * mpmath.expjpi(2 * mpmath.mpf(ui))
                tol = 8 * 2.0 ** -53 * ri
                assert abs(gi.real - ref.real) <= tol and abs(gi.imag - ref.imag) <= tol

    def test_zero_phase_is_exactly_real(self):
        u = np.array([[0.3, 0.0], [0.0, 0.0], [0.99, 0.0]])
        got = sampling.disk_from_uniform(u, 0.1, 0.7)
        r = np.sqrt(sampling.disk_modulus_sq_from_uniform(u[:, 0], 0.1, 0.7))
        assert np.array_equal(got.real, r) and np.all(got.imag == 0.0)

    def test_bits_do_not_depend_on_offset_length_or_stride(self):
        u = np.random.default_rng(11).random(4099)
        full = sampling.polar_from_uniform(1.0, u)
        for start in range(9):
            for length in (1, 3, 7, 8, 9, 17, 1000):
                part = sampling.polar_from_uniform(1.0, u[start:start + length])
                assert np.array_equal(part, full[start:start + length])
        assert np.array_equal(sampling.polar_from_uniform(1.0, u[::3]), full[::3])

    def test_squared_modulus_is_the_points_modulus(self):
        u = np.random.default_rng(8).random((1000, 2))
        rho2 = sampling.disk_modulus_sq_from_uniform(u[:, 0], 0.1, 0.7)
        pts = sampling.disk_from_uniform(u, 0.1, 0.7)
        np.testing.assert_allclose(pts.real ** 2 + pts.imag ** 2, rho2, rtol=2e-15, atol=0)


class TestSphereModuli:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_equal_squared_moduli_of_sphere_points(self, k):
        u = np.random.default_rng(k).random((100_000, sampling.sphere_draws_per_point(k)))
        got = sampling.sphere_moduli_sq_from_uniform(u, k)
        ref = np.abs(sampling.sphere_from_uniform(u, k)) ** 2
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    def test_zero_row_stays_zero(self):
        u = np.zeros((1, 4))
        assert np.all(sampling.sphere_moduli_sq_from_uniform(u, 2) == 0.0)
        assert np.all(sampling.sphere_from_uniform(u, 2) == 0.0)


class TestIntegerPowers:
    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        z = np.random.default_rng(3).uniform(-1, 1, (50, 2)) @ np.array([1, 1j])
        for e in range(0, 12):
            got = int_power(z, e)
            for zi, gi in zip(z, got):
                ref = mpmath.mpc(zi.real, zi.imag) ** e
                assert abs(complex(gi) - complex(ref)) <= 1e-14 * abs(complex(ref))

    def test_fresh_result_and_negative_exponent(self):
        x = np.array([2.0, 3.0])
        y = int_power(x, 1)
        y *= 2
        assert x.tolist() == [2.0, 3.0]
        assert int_power(x, 0).tolist() == [1.0, 1.0]
        with pytest.raises(ValueError):
            int_power(x, -1)

    def test_monomial_with_negative_exponent(self):
        z = np.array([[0.5 + 0.5j, 2.0, -0.25j]])
        ref = (0.5 + 0.5j) ** 3 * (-0.25j) ** -2
        assert monomial(z, (3, 0, -2))[0] == pytest.approx(ref, rel=1e-15)
