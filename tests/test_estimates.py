import io
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hartogs import estimates, mc, sampling, special
from hartogs.config import NumericConfig
from hartogs.estimates import (NonConvergenceError, asymptotic_ratio_check,
                               sphere_moment, sphere_moment_mc,
                               weighted_ball_integral,
                               weighted_ball_integral_mc,
                               weighted_ball_integral_series,
                               weighted_disk_integral,
                               weighted_disk_integral_mc,
                               weighted_disk_integral_quad,
                               weighted_disk_integral_series)
from helpers import disk_quad_ref

FAST_CFG = NumericConfig(seed=101, mc_samples=80_000)


class TestSpecialFunctions:
    def test_gamma_half(self):
        got = math.exp(special.log_gamma(0.5))
        assert abs(got - math.sqrt(math.pi)) / math.sqrt(math.pi) < 1e-13

    def test_recurrence_on_grid(self):
        # Gamma(x+1) = x Gamma(x), including half-integer arguments
        for x in np.concatenate([np.arange(0.5, 20.5, 0.5), [0.1, 0.25, 3.75]]):
            lhs = special.log_gamma(x + 1.0)
            rhs = special.log_gamma(x) + math.log(x)
            assert abs(math.exp(lhs - rhs) - 1.0) < 1e-13

    def test_beta_symmetry_and_value(self):
        assert math.exp(special.log_beta(0.5, 1.0)) == pytest.approx(2.0, rel=1e-13)
        assert special.log_beta(2.5, 3.5) == pytest.approx(special.log_beta(3.5, 2.5), rel=1e-14)

    @pytest.mark.parametrize("a", [1e-3, 0.25, 0.5, 1.0, 1.5, 2.0])
    def test_beta_matches_mpmath_up_to_large_b(self, a):
        # lnG(b) - lnG(a+b) for large b must not cancel (parent: 9e-10 at b = 1e6)
        mpmath = _mp()
        for b in np.logspace(-2, 7, 46):
            want = mpmath.beta(a, b)
            for x, y in ((a, b), (b, a)):
                assert _rel(math.exp(special.log_beta(float(x), float(y))), want) <= 1e-14, b

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            special.log_gamma(0.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValueError, match="finite positive"):
            special.log_gamma(x)

    def test_overflow_is_a_value_error_naming_the_argument(self):
        with pytest.raises(ValueError, match="overflows at x = 1e"):
            special.log_gamma(1e308)
        with pytest.raises(ValueError, match="overflows"):
            special.log_factorial(10 ** 400)


class TestExponentValidation:
    W_BALL = np.array([0.3, 0.1j])

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -1.0])
    def test_alpha(self, alpha):
        calls = [lambda: weighted_ball_integral(2, alpha, 0.5),
                 lambda: weighted_ball_integral_series(2, alpha, 0.5),
                 lambda: weighted_ball_integral_mc(2, alpha, self.W_BALL, FAST_CFG),
                 lambda: weighted_disk_integral(alpha, 0.0, 0.5),
                 lambda: weighted_disk_integral_series(alpha, 0.0, 0.5),
                 lambda: weighted_disk_integral_mc(alpha, 0.0, 0.5, FAST_CFG),
                 lambda: weighted_disk_integral_quad(alpha, -3.0, 0.5, 0.1)]
        for call in calls:
            with pytest.raises(ValueError, match="alpha must exceed -1 and be finite"):
                call()

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, -2.0])
    def test_beta(self, beta):
        calls = [lambda: weighted_disk_integral(-0.5, beta, 0.5),
                 lambda: weighted_disk_integral_series(-0.5, beta, 0.5),
                 lambda: weighted_disk_integral_mc(-0.5, beta, 0.5, FAST_CFG)]
        for call in calls:
            with pytest.raises(ValueError, match="beta must exceed -2 and be finite"):
                call()
        if not math.isfinite(beta):
            with pytest.raises(ValueError, match="beta must be finite"):
                weighted_disk_integral_quad(-0.5, beta, 0.5, 0.1)

    def test_gamma_overflow(self):
        with pytest.raises(ValueError, match="log-Gamma overflows"):
            weighted_disk_integral(-0.5, 1e308, 0.5)

    @pytest.mark.parametrize("w", [math.nan, complex(0.1, math.nan)])
    def test_non_finite_point(self, w):
        with pytest.raises(ValueError, match="open unit disk"):
            weighted_disk_integral_mc(-0.5, 0.0, w, FAST_CFG)
        with pytest.raises(ValueError, match="open unit ball"):
            weighted_ball_integral_mc(2, -0.5, np.array([w, 0.0]), FAST_CFG)


class TestSphereMoments:
    def test_circle_is_always_one(self):
        for m in range(5):
            assert sphere_moment(1, (m,)) == pytest.approx(1.0)

    def test_zero_index_is_total_mass(self):
        assert sphere_moment(3, (0, 0, 0)) == pytest.approx(1.0)

    def test_k2_value(self):
        assert sphere_moment(2, (1, 1)) == pytest.approx(1 / 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            sphere_moment(2, (1,))
        with pytest.raises(ValueError):
            sphere_moment(2, (1, -1))

    def test_mc_agreement(self):
        for k, nu in [(2, (1, 1)), (3, (2, 1, 0))]:
            est, err = sphere_moment_mc(k, nu, FAST_CFG)
            assert abs(est - sphere_moment(k, nu)) < 3 * err

    def test_mc_determinism_and_workers(self):
        a = sphere_moment_mc(2, (1, 1), FAST_CFG)
        b = sphere_moment_mc(2, (1, 1), FAST_CFG)
        c = sphere_moment_mc(2, (1, 1), replace(FAST_CFG, workers=4))
        assert a == b == c

    @pytest.mark.parametrize("k,nu", [(1, (2,)), (2, (1, 1)), (3, (2, 1, 0)), (4, (0, 3, 1, 2))])
    def test_mc_matches_the_sphere_point_observable(self, k, nu):
        # reference: |xi^nu|^2 from full sphere points on the same chunk draws
        cfg = NumericConfig(seed=5, mc_samples=40_000)

        def reference(rng, count):
            xi = sampling.sphere_points(rng, count, k)
            return np.prod(np.abs(xi) ** (2 * np.array(nu, dtype=float)), axis=1)

        est, err = sphere_moment_mc(k, nu, cfg)
        ref_est, ref_err = mc.mc_mean(reference, cfg.mc_samples, cfg.seed, cfg.chunk_size)
        assert est == pytest.approx(ref_est, rel=1e-13)
        # at k = 1 every sample is 1: the reference's stderr is rounding noise
        # (about 1e-17), inside approx's default absolute tolerance
        assert err == pytest.approx(ref_err, rel=1e-11)


class TestBallIntegralSeries:
    def test_center_value_closed_form(self):
        # center value is k * B(alpha+1, k)
        assert weighted_ball_integral_series(1, -0.5, 0.0) == pytest.approx(2.0)
        for k in (1, 2, 3):
            for alpha in (-0.9, -0.5, 0.5):
                expect = k * math.exp(special.log_beta(alpha + 1.0, k))
                assert weighted_ball_integral_series(k, alpha, 0.0) == pytest.approx(expect)

    def test_monotone_in_radius(self):
        vals = [weighted_ball_integral_series(2, -0.5, r)
                for r in np.linspace(0, 0.99, 40)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_divergent_alpha(self):
        with pytest.raises(ValueError):
            weighted_ball_integral_series(2, -1.0, 0.5)

    def test_rejects_radius_at_one(self):
        with pytest.raises(ValueError):
            weighted_ball_integral_series(1, -0.5, 1.0)

    def test_nonconvergence_flag(self, monkeypatch):
        monkeypatch.setattr(estimates, "_SERIES_MAX_TERMS", 64)
        with pytest.raises(NonConvergenceError) as info:
            weighted_ball_integral_series(1, -0.5, 0.99)
        assert info.value.partial_sum > 0
        assert info.value.terms == 64

    def test_mc_agreement(self):
        for k in (1, 2):
            for r in (0.0, 0.5, 0.9):
                w = np.zeros(k, dtype=complex)
                w[0] = r
                est, err = weighted_ball_integral_mc(k, -0.5, w, FAST_CFG)
                exact = weighted_ball_integral_series(k, -0.5, r)
                assert abs(est - exact) <= 3 * err + 1e-12 * abs(exact)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_mc_samples_match_abs_and_float_power(self, k):
        rng = np.random.default_rng(20 + k)
        w = rng.normal(size=k) + 1j * rng.normal(size=k)
        w *= 0.8 / np.linalg.norm(w)
        u = rng.random((20_000, 2 * k + 1))
        # the samples use the law of <eta, w>, which is that of <eta, |w| e_1>:
        # the full-point expression is evaluated at the unitary image |w| e_1
        w_e1 = np.zeros(k, dtype=complex)
        w_e1[0] = np.linalg.norm(w)
        for alpha in (-0.9, -0.55, 0.5):
            got = estimates._ball_mc_samples(k, alpha, w, u)
            xi = sampling.sphere_from_uniform(u[:, :2 * k], k)
            rho, q = estimates._kumaraswamy_radius(float(k), alpha + 1.0, u[:, 2 * k])
            eta = np.sqrt(rho)[:, None] * xi
            ref = q ** alpha / (alpha + 1.0) / np.abs(1.0 - eta @ np.conj(w_e1)) ** (k + 1)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_mc_samples_bit_identical_under_a_unitary_map(self, k):
        # dyadic w and a unitary U with dyadic entries: U w and both norms are
        # exact, so |U w| == |w| bit for bit and so must be every sample
        rng = np.random.default_rng(40 + k)
        w = (rng.integers(-8, 9, k) + 1j * rng.integers(-8, 9, k)) / 64.0
        u_mat = np.diag([(1j) ** int(e) for e in rng.integers(0, 4, k)])[rng.permutation(k)]
        if k >= 2:
            mix = np.eye(k, dtype=complex)
            mix[:2, :2] = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2.0
            u_mat = mix @ u_mat
        np.testing.assert_allclose(u_mat @ u_mat.conj().T, np.eye(k), atol=1e-15)
        uw = u_mat @ w
        assert not np.allclose(uw, w) or k == 1
        assert np.linalg.norm(uw) == np.linalg.norm(w)
        u = rng.random((5000, 2 * k + 1))
        for alpha in (-0.9, 0.5):
            got = estimates._ball_mc_samples(k, alpha, uw, u)
            want = estimates._ball_mc_samples(k, alpha, w, u)
            assert got.tobytes() == want.tobytes()
        cfg = replace(FAST_CFG, mc_samples=20_000)
        assert (weighted_ball_integral_mc(k, -0.55, uw, cfg)
                == weighted_ball_integral_mc(k, -0.55, w, cfg))

    def test_mc_normalized_volume(self):
        # alpha = 0 at the center integrates the bare normalized volume
        for k in (1, 2, 3):
            est, err = weighted_ball_integral_mc(k, 0.0, np.zeros(k), FAST_CFG)
            assert est == pytest.approx(1.0)
            assert err == 0.0

    def test_mc_unitary_invariance(self):
        # same radius along a rotated direction: estimates agree within 3 sigma
        w1 = np.array([0.5, 0.0], dtype=complex)
        u = np.exp(0.7j) * np.array([3 + 1j, 1 - 2j]) / math.sqrt(15)
        w2 = 0.5 * u
        assert abs(np.linalg.norm(w2) - 0.5) < 1e-12
        e1, s1 = weighted_ball_integral_mc(2, -0.5, w1, FAST_CFG)
        e2, s2 = weighted_ball_integral_mc(2, -0.5, w2, replace(FAST_CFG, seed=202))
        assert abs(e1 - e2) < 3 * math.hypot(s1, s2)


class TestDiskIntegralSeries:
    def test_center_values(self):
        assert weighted_disk_integral_series(-0.5, 0.0, 0.0) == pytest.approx(2.0)
        assert weighted_disk_integral_series(0.0, 0.0, 0.0) == pytest.approx(1.0)
        for alpha, beta in [(-0.9, -1.0), (-0.5, 2.0)]:
            expect = math.exp(special.log_beta(alpha + 1.0, beta / 2.0 + 1.0))
            assert weighted_disk_integral_series(alpha, beta, 0.0) == pytest.approx(expect)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            weighted_disk_integral_series(-1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            weighted_disk_integral_series(-0.5, -2.0, 0.1)

    def test_quad_oracle_agreement(self):
        for alpha in (-0.9, -0.5):
            for beta in (-1.0, 0.0, 2.0):
                for r in (0.0, 0.5, 0.9):
                    s = weighted_disk_integral_series(alpha, beta, r)
                    q = weighted_disk_integral_quad(alpha, beta, r)
                    assert abs(s - q) / q < 1e-8

    def test_mc_agreement(self):
        for alpha, beta in [(-0.5, 0.0), (-0.5, -1.0), (-0.9, 2.0)]:
            for r in (0.0, 0.5, 0.9):
                est, err = weighted_disk_integral_mc(alpha, beta, r, FAST_CFG)
                exact = weighted_disk_integral_series(alpha, beta, r)
                assert abs(est - exact) <= 3 * err + 1e-12 * abs(exact)

    def test_k1_ball_equals_unweighted_disk(self):
        # on the one-dimensional ball the two integral families coincide
        for alpha in (-0.9, -0.3):
            for r in (0.0, 0.4, 0.85):
                assert weighted_ball_integral_series(1, alpha, r) == pytest.approx(
                    weighted_disk_integral_series(alpha, 0.0, r), rel=1e-11)

    def test_quad_cutoff_handles_divergent_beta(self):
        vals = [weighted_disk_integral_quad(-0.5, -3.0, 0.5, cut)
                for cut in (1e-1, 1e-2, 1e-3)]
        assert vals[0] < vals[1] < vals[2]
        # divergence rate ~ 1/cutoff for beta = -3
        assert vals[2] / vals[1] == pytest.approx(10.0, rel=0.15)
        with pytest.raises(ValueError):
            weighted_disk_integral_quad(-0.5, -3.0, 0.5, 0.0)


class TestRatioReports:
    def test_ball_ratio_two_sided(self):
        grid = np.linspace(0.0, 0.999, 120)
        report = asymptotic_ratio_check("ball", {"k": 1, "alpha": -0.5}, grid)
        assert report.ratio.min() > 0
        assert report.max_ratio / report.ratio.min() < 50
        assert np.all(np.isfinite(report.ratio))

    def test_ball_ratio_alpha_range(self):
        grid = np.linspace(0.0, 0.999, 80)
        for alpha in (-0.1, -0.9):
            report = asymptotic_ratio_check("ball", {"k": 2, "alpha": alpha}, grid)
            assert report.max_ratio / report.ratio.min() < 50

    def test_disk_refined_envelope_bounded(self):
        grid = np.linspace(0.001, 0.999, 120)
        report = asymptotic_ratio_check("disk", {"alpha": -0.5, "beta": -1.0}, grid)
        assert report.refined is not None
        assert report.refined.max_ratio < 10.0
        assert np.all(np.isfinite(report.refined.ratio))

    def test_refined_needs_positive_grid(self):
        # r^beta is undefined at r = 0: no refined report, but the plain one stands
        report = asymptotic_ratio_check("disk", {"alpha": -0.5, "beta": -1.0},
                                        np.linspace(0.0, 0.9, 10))
        assert report.refined is None
        assert np.all(np.isfinite(report.ratio))

    def test_refined_envelope_overflow_is_inf(self):
        # r^beta overflows below r = 10^(-308/1.9), about 1e-162, and nowhere
        # above; no RuntimeWarning (an error under pytest) comes of it
        grid = np.array([0.5, 1e-100, 1e-170, 1e-200])
        report = asymptotic_ratio_check("disk", {"alpha": -0.5, "beta": -1.9}, grid)
        assert np.array_equal(np.isfinite(report.refined.envelope),
                              [True, True, False, False])
        # the plain report does not take r^beta
        assert np.all(np.isfinite(report.ratio))

    def test_envelope_comparison_needs_negative_alpha(self):
        with pytest.raises(ValueError):
            asymptotic_ratio_check("ball", {"k": 1, "alpha": 0.5}, [0.0, 0.5])


class TestSeriesInternals:
    def test_positive_terms_give_monotone_partial_sums(self, monkeypatch):
        # coefficients are strictly positive for every valid parameter choice,
        # so sums cut at growing term caps increase towards the closed form
        r = 0.999
        cases = [(lambda: weighted_ball_integral_series(2, -0.5, r),
                  weighted_ball_integral(2, -0.5, r)),
                 (lambda: weighted_disk_integral_series(-0.9, -1.5, r),
                  weighted_disk_integral(-0.9, -1.5, r))]
        for series, closed in cases:
            partial = []
            for cap in (64, 256, 1024):
                monkeypatch.setattr(estimates, "_SERIES_MAX_TERMS", cap)
                with pytest.raises(NonConvergenceError) as info:
                    series()
                assert info.value.terms == cap
                partial.append(info.value.partial_sum)
            assert 0.0 < partial[0] < partial[1] < partial[2] < closed

    def test_mc_prefix_consistency(self):
        cfg_a = replace(FAST_CFG, mc_samples=40_000)
        est_a, _ = weighted_disk_integral_mc(-0.5, 0.0, 0.3, cfg_a)
        est_b, _ = weighted_disk_integral_mc(-0.5, 0.0, 0.3, FAST_CFG)
        assert est_a != est_b  # different sample counts genuinely differ
        est_c, _ = weighted_disk_integral_mc(-0.5, 0.0, 0.3, cfg_a)
        assert est_a == est_c


class TestKumaraswamyRadialDraw:
    # a = k for the ball, a = beta/2 + 1 for the disk; b = alpha + 1; the
    # reflected disk draw swaps them
    A_VALUES = (1.0, 2.0, 3.0, 4.0, 5.0, 0.005, 0.45)
    B_VALUES = (0.005, 0.01, 0.45, 1.0, 4.0)
    U_EDGES = np.array([0.0, 1e-17, 0.5, 1.0 - 2.0 ** -53])

    def test_weight_bounds_at_edge_uniforms(self):
        for a in self.A_VALUES:
            for b in self.B_VALUES:
                rho, q = estimates._kumaraswamy_radius(a, b, self.U_EDGES)
                assert np.all(np.isfinite(rho)) and np.all(np.isfinite(q))
                assert np.all((rho >= 0.0) & (rho <= 1.0))
                assert np.all(q >= min(1.0, 1.0 / a)), (a, b, q)
                assert np.all(q <= max(1.0, 1.0 / a)), (a, b, q)

    def test_limits(self):
        rho, q = estimates._kumaraswamy_radius(3.0, 0.45, np.array([0.0]))
        assert rho[0] == 0.0 and q[0] == 1.0
        # (1-u)^(1/b) underflows to 0 for b -> 0: q takes its limit 1/a
        rho, q = estimates._kumaraswamy_radius(3.0, 0.01, np.array([0.9999]))
        assert rho[0] == 1.0 and q[0] == 1.0 / 3.0
        # a = 1 is Beta(1, b) itself: the weight is exactly 1
        _, q = estimates._kumaraswamy_radius(1.0, 0.45, np.random.default_rng(1).random(1000))
        assert np.all(q == 1.0)

    def test_matches_high_precision_inverse_cdf(self):
        mpmath = pytest.importorskip("mpmath")
        u = np.concatenate([np.random.default_rng(2).random(20),
                            np.logspace(-16, -1, 6), 1.0 - np.logspace(-15, -1, 6)])
        for a in (2.0, 5.0, 0.005, 0.45):
            for b in (0.01, 0.45, 4.0):
                rho, q = estimates._kumaraswamy_radius(a, b, u)
                for ui, ri, qi in zip(u, rho, q):
                    with mpmath.workdps(40):
                        v = mpmath.exp(mpmath.log1p(-mpmath.mpf(ui)) / b)
                        if v < 1e-300:
                            continue  # q is at its 1/a limit, checked above
                        log_rho = mpmath.log1p(-v) / a
                        want_q = -mpmath.expm1(log_rho) / v
                        want_rho = mpmath.exp(log_rho)
                    assert float(abs(qi - want_q) / want_q) < 1e-13
                    if want_rho > 1e-300:  # subnormal radii keep fewer digits
                        assert float(abs(ri - want_rho) / want_rho) < 1e-13


class TestDiskMonteCarloSamples:
    def test_samples_depend_on_the_modulus_only(self):
        # |i w|, |-w| and |conj w| equal |w| bit for bit, so the estimates do
        cfg = replace(FAST_CFG, mc_samples=20_000)
        w = 0.3 - 0.55j
        one = weighted_disk_integral_mc(-0.55, -1.1, w, cfg)
        for image in (1j * w, -w, w.conjugate()):
            assert weighted_disk_integral_mc(-0.55, -1.1, image, cfg) == one

    def test_kernel_factor_matches_the_complex_modulus(self):
        rng = np.random.default_rng(9)
        c = np.concatenate([rng.random(2000), [0.0, 1.0 - 1e-12]])
        u = np.concatenate([rng.random(2000), [0.5, 1e-9]])
        for power in (1, 2, 3, 4, 5):
            ref = np.abs(1.0 - c * np.exp(2j * np.pi * u)) ** power
            got = estimates._kernel_factor(c, u, power)
            np.testing.assert_allclose(got[:-1], ref[:-1], rtol=1e-13, atol=0)
        # c -> 1, u -> 0: the complex difference loses every digit, the
        # sin form keeps them; (1-c)^2 + 4c sin^2(pi u), in 40 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            cm, um = mpmath.mpf(c[-1]), mpmath.mpf(u[-1])
            want = float((1 - cm) ** 2 + 4 * cm * mpmath.sin(mpmath.pi * um) ** 2)
        got = estimates._kernel_factor(c[-1:], u[-1:], 2)[0]
        assert got == pytest.approx(want, rel=1e-14)


class TestMonteCarloEdgeGrid:
    CFG = NumericConfig(seed=707, mc_samples=20_000)
    ALPHAS = (-0.99, -0.55, 0.0, 3.0)
    RADII = (0.0, 0.5, 0.9)

    @staticmethod
    def _agree(est, err, exact):
        assert math.isfinite(est) and math.isfinite(err)
        assert abs(est - exact) <= 4 * err + 1e-12 * abs(exact), (est, err, exact)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_ball(self, k):
        direction = np.exp(1j * np.arange(1, k + 1)) / math.sqrt(k)
        for alpha in self.ALPHAS:
            for r in self.RADII:
                est, err = weighted_ball_integral_mc(k, alpha, r * direction, self.CFG)
                self._agree(est, err, weighted_ball_integral_series(k, alpha, r))

    @pytest.mark.parametrize("beta", [-1.99, -1.1, 0.0, 4.0])
    def test_disk(self, beta):
        for alpha in self.ALPHAS:
            for r in self.RADII:
                est, err = weighted_disk_integral_mc(alpha, beta, r * np.exp(0.3j), self.CFG)
                self._agree(est, err, weighted_disk_integral_series(alpha, beta, r))

    def test_workers_bit_identical(self):
        cfg = replace(self.CFG, mc_samples=100_000, chunk_size=1 << 13)
        w = np.array([0.3 - 0.2j, 0.1j, 0.4])
        one = weighted_ball_integral_mc(3, -0.99, w, cfg)
        assert weighted_ball_integral_mc(3, -0.99, w, replace(cfg, workers=2)) == one
        one = weighted_disk_integral_mc(-0.55, -1.99, 0.7j, cfg)
        assert weighted_disk_integral_mc(-0.55, -1.99, 0.7j, replace(cfg, workers=2)) == one


# --- closed forms, series reference route and quadrature rule vs mpmath ----

K_GRID = (1, 2, 3, 5)
ALPHA_GRID = (-0.99, -0.9, -0.5, -0.1, 0.0, 0.5, 3.0)   # alpha = 0: c-a-b = 0, log case
BETA_GRID = (-1.99, -1.5, -1.0, 0.0, 0.5, 2.0, 4.0)
RADII_TIGHT = (0.0, 0.3, 0.7, 0.9, 0.99, 0.999, 0.9999)
RADII_EDGE = (1.0 - 1e-5, 1.0 - 1e-6)   # rounding x = r^2 costs digits here
# c - a - b = alpha within 1e-4 of an integer, where scipy's 2F1 (connection
# formula) missed 1e-12, by 1.7e-4 at k = 18, alpha = -1e-6, r = 0.999999
NEAR_INTEGER_ALPHAS = (-1e-6, 1e-6, -1e-4, 3.0 + 1e-7)


def _mp(dps=40):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = dps
    return mpmath


def _ball_ref(mpmath, k, alpha, r):
    a, h = mpmath.mpf(alpha), mpmath.mpf(k + 1) / 2
    return (mpmath.factorial(k) * mpmath.gamma(a + 1) / mpmath.gamma(k + a + 1)
            * mpmath.hyp2f1(h, h, k + a + 1, mpmath.mpf(r) ** 2))


def _disk_ref(mpmath, alpha, beta, r):
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta) / 2 + 1
    return mpmath.beta(a + 1, b) * mpmath.hyp2f1(1, b, a + b + 1, mpmath.mpf(r) ** 2)


def _disk_quad_alg(alpha, beta, r, cutoff):
    """The same integral by QUADPACK's algebraic-weight rule (QAWS), which
    integrates the (1-s)^alpha endpoint factor, and s^(beta/2) at s = 0,
    exactly against its Chebyshev moments."""
    h, x = beta / 2.0, r * r
    low = cutoff ** 2
    top = max(low, 0.5)
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    total, _ = integrate.quad(lambda s: s ** h / (1.0 - x * s), top, 1.0,
                              weight="alg", wvar=(0.0, alpha), **opts)
    if 0.0 < low < top:
        total += integrate.quad(lambda s: (1.0 - s) ** alpha * s ** h / (1.0 - x * s),
                                low, top, **opts)[0]
    elif low < top:
        total += integrate.quad(lambda s: (1.0 - s) ** alpha / (1.0 - x * s), 0.0, top,
                                weight="alg", wvar=(h, 0.0), **opts)[0]
    return total


def _rel(got, want):
    return float(abs(got - want) / want)


class TestClosedForms:
    def test_ball_matches_mpmath(self):
        mpmath = _mp()
        for k in K_GRID:
            for alpha in ALPHA_GRID:
                for radii, tol in ((RADII_TIGHT, 1e-12), (RADII_EDGE, 1e-10)):
                    got = weighted_ball_integral(k, alpha, np.array(radii))
                    for r, g in zip(radii, got):
                        err = _rel(g, _ball_ref(mpmath, k, alpha, r))
                        assert err <= tol, (k, alpha, r, err)

    @pytest.mark.parametrize("alpha", NEAR_INTEGER_ALPHAS)
    def test_ball_near_integer_alpha_matches_mpmath(self, alpha):
        mpmath = _mp()
        for k in K_GRID + (18,):
            for radii, tol in ((RADII_TIGHT, 1e-12), (RADII_EDGE, 1e-10)):
                got = weighted_ball_integral(k, alpha, np.array(radii))
                for r, g in zip(radii, got):
                    err = _rel(g, _ball_ref(mpmath, k, alpha, r))
                    assert err <= tol, (k, r, err)

    @pytest.mark.parametrize("alpha", NEAR_INTEGER_ALPHAS)
    def test_disk_near_integer_alpha_matches_mpmath(self, alpha):
        mpmath = _mp()
        for beta in BETA_GRID:
            for radii, tol in ((RADII_TIGHT, 1e-12), (RADII_EDGE, 1e-10)):
                got = weighted_disk_integral(alpha, beta, np.array(radii))
                for r, g in zip(radii, got):
                    err = _rel(g, _disk_ref(mpmath, alpha, beta, r))
                    assert err <= tol, (beta, r, err)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 18),
           alpha=st.floats(-1.0, 30.0, exclude_min=True),
           r=st.floats(0.0, 1.0 - 1e-6))
    def test_ball_sweep_matches_mpmath(self, k, alpha, r):
        err = _rel(weighted_ball_integral(k, alpha, r), _ball_ref(_mp(), k, alpha, r))
        assert err <= (1e-12 if r <= 0.9999 else 1e-10), err

    # c = alpha + beta/2 + 2 up to 132.5: half steps lose digits here (5e-5 at
    # alpha = -0.5, all of them at alpha = 30 by x = 0.75), so the bands
    # about x = 1/2 must be shorter (`special._step`), or at alpha = 30 the
    # series at 0 must serve every x
    @pytest.mark.parametrize("alpha", [-0.5, 30.0])
    def test_disk_with_large_c_matches_mpmath(self, alpha):
        mpmath = _mp()
        for radii, tol in ((RADII_TIGHT, 1e-12), (RADII_EDGE, 1e-10)):
            got = weighted_disk_integral(alpha, 201.0, np.array(radii))
            for r, g in zip(radii, got):
                assert _rel(g, _disk_ref(mpmath, alpha, 201.0, r)) <= tol, r

    def test_disk_with_large_beta_keeps_the_beta_factor(self):
        # B(alpha + 1, 4001) from cancelling log-Gammas was 1.2e-12 off here
        mpmath = _mp()
        got = weighted_disk_integral(-0.5, 8000.0, 0.999)
        assert _rel(got, _disk_ref(mpmath, -0.5, 8000.0, 0.999)) <= 1e-13

    def test_past_the_reach_of_the_continuation_takes_the_series(self, monkeypatch):
        # named for what it once checked: for c = alpha + beta/2 + 2 or
        # k + alpha + 1 in (4096, 65536] a series took over; one hyp2f1 call
        # now serves them, and c = 65537 is past special.HYP2F1_MAX_C
        def series(*args):
            raise AssertionError("the series was called")

        monkeypatch.setattr(estimates, "weighted_ball_integral_series", series)
        monkeypatch.setattr(estimates, "weighted_disk_integral_series", series)
        mpmath = _mp()
        radii = np.array([0.0, 0.5, 0.99, 0.99999])
        for beta in (1e4, 131068.0):  # c = 5001.5 and 65535.5
            disk = weighted_disk_integral(-0.5, beta, radii)
            b = mpmath.mpf(beta) / 2 + 1
            for r, d in zip(radii, disk):
                x = mpmath.mpf(r * r)  # the double x the closed form sees
                want = mpmath.beta(0.5, b) * mpmath.hyp2f1(1, b, b + 0.5, x)
                assert _rel(d, want) <= 1e-12, (beta, r)
        ball = weighted_ball_integral(2, 5000.0, radii)
        for r, b in zip(radii, ball):
            assert _rel(b, _ball_ref(mpmath, 2, 5000.0, r)) <= 1e-12, r
        with pytest.raises(ValueError, match="c <= 65536, got a=1.0, b=1.0, c=65537.0"):
            special.hyp2f1(1.0, 1.0, 65537.0, 0.5)
        with pytest.raises(ValueError, match="c=65537.5"):
            weighted_disk_integral(-0.5, 131072.0, 0.5)
        with pytest.raises(ValueError, match="c=65537.5"):
            weighted_ball_integral(65536, 0.5, 0.5)

    # scipy's 2F1 at r = 0.999 was off by 2e-12, 5e-5, 6.5e-3 and NaN at the last four
    LARGE_K_CASES = ((19, -0.5), (40, -0.9), (100, -0.9), (120, -0.5), (400, -0.5))

    @pytest.mark.parametrize("k,alpha", LARGE_K_CASES)
    def test_ball_large_k_matches_mpmath(self, k, alpha):
        mpmath = _mp()
        radii = np.array([0.0, 0.5, 0.999])
        got = weighted_ball_integral(k, alpha, radii)
        for r, g in zip(radii, got):
            assert _rel(g, _ball_ref(mpmath, k, alpha, r)) <= 1e-12, (r, g)
        assert got.tolist() == [weighted_ball_integral(k, alpha, r) for r in radii]

    @pytest.mark.parametrize("k", [19, 400])
    def test_ball_large_k_takes_the_closed_form(self, k, monkeypatch):
        def series(*args, **kwargs):
            raise AssertionError("the series route was taken")

        monkeypatch.setattr(estimates, "weighted_ball_integral_series", series)
        got = weighted_ball_integral(k, -0.5, np.array([0.0, 0.5, 0.999]))
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("k", [6000, 20000, 65000])
    def test_ball_in_the_tens_of_thousands_matches_mpmath(self, k):
        # the 2F1 passes float64 at x = 1/2, so hyp2f1's series at 0 stops
        # short of it (at x = 1/32 for k = 65000)
        mpmath = _mp()
        radii = np.array([0.0, 0.05, 0.1, 0.15])
        got = weighted_ball_integral(k, -0.5, radii)
        for r, g in zip(radii, got):
            assert _rel(g, _ball_ref(mpmath, k, -0.5, r)) <= 1e-13, (r, g)

    @pytest.mark.parametrize("k", [300, 1000, 2000, 4000])
    def test_ball_large_k_scale_matches_mpmath(self, k):
        # k! G(alpha+1)/G(k+alpha+1) from a difference of log-Gammas was
        # 6.8e-13 off at k = 1000, alpha = -0.5; k B(k, alpha+1) is not.
        # From k of about 1700 the bare coefficients of hyp2f1's series at 0
        # pass float64; its scaled ones stay below the 2F1 at x = 1/2
        mpmath = _mp()
        for alpha in (-0.99, -0.5, 3.0):
            got = weighted_ball_integral(k, alpha, np.array([0.0, 0.5]))
            for r, g in zip((0.0, 0.5), got):
                assert _rel(g, _ball_ref(mpmath, k, alpha, r)) <= 1e-13, (alpha, r, g)

    def test_non_finite_closed_form_raises(self, monkeypatch):
        assert estimates.hyp2f1 is special.hyp2f1
        monkeypatch.setattr(estimates, "hyp2f1",
                            lambda *args: np.full(np.shape(args[-1]), np.nan))
        with pytest.raises(ValueError, match=r"closed-form ball integral at k=2, "
                                             r"alpha=-0.5, r=0.5 is not finite \(got nan\)"):
            weighted_ball_integral(2, -0.5, [0.5, 0.9])
        with pytest.raises(ValueError, match="closed-form disk integral at alpha=-0.5, "
                                             "beta=-1.0, r=0.5 is not finite"):
            weighted_disk_integral(-0.5, -1.0, 0.5)

    def test_disk_matches_mpmath(self):
        mpmath = _mp()
        for alpha in ALPHA_GRID:
            for beta in BETA_GRID:
                for radii, tol in ((RADII_TIGHT, 1e-12), (RADII_EDGE, 1e-10)):
                    got = weighted_disk_integral(alpha, beta, np.array(radii))
                    for r, g in zip(radii, got):
                        err = _rel(g, _disk_ref(mpmath, alpha, beta, r))
                        assert err <= tol, (alpha, beta, r, err)

    def test_arrays_are_bit_identical_to_scalar_calls(self):
        radii = np.concatenate([np.linspace(0.0, 0.9999, 997), RADII_EDGE])
        for k in K_GRID:
            for alpha in ALPHA_GRID:
                got = weighted_ball_integral(k, alpha, radii)
                assert got.tolist() == [weighted_ball_integral(k, alpha, r) for r in radii]
        for alpha in ALPHA_GRID:
            for beta in BETA_GRID:
                got = weighted_disk_integral(alpha, beta, radii)
                assert got.tolist() == [weighted_disk_integral(alpha, beta, r) for r in radii]

    def test_shapes_and_types(self):
        assert type(weighted_ball_integral(2, -0.5, 0.5)) is float
        assert type(weighted_disk_integral(-0.5, -1.0, np.float64(0.5))) is float
        grid = np.linspace(0.0, 0.9, 6).reshape(2, 3)
        assert weighted_ball_integral(2, -0.5, grid).shape == (2, 3)
        assert weighted_disk_integral(-0.5, -1.0, grid).shape == (2, 3)

    def test_center_values(self):
        for k in K_GRID:
            for alpha in (-0.9, -0.5, 0.5):
                assert weighted_ball_integral(k, alpha, 0.0) == pytest.approx(
                    k * math.exp(special.log_beta(alpha + 1.0, k)), rel=1e-14)
        assert weighted_disk_integral(-0.5, 0.0, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_validation(self):
        for bad_r in (1.0, -0.1, float("nan"), [0.5, 1.0]):
            with pytest.raises(ValueError, match="radius must lie in"):
                weighted_ball_integral(2, -0.5, bad_r)
            with pytest.raises(ValueError, match="radius must lie in"):
                weighted_disk_integral(-0.5, 0.0, bad_r)
        with pytest.raises(ValueError, match="k must be"):
            weighted_ball_integral(0, -0.5, 0.5)
        with pytest.raises(ValueError, match="alpha must exceed -1"):
            weighted_ball_integral(2, -1.0, 0.5)
        with pytest.raises(ValueError, match="alpha must exceed -1"):
            weighted_disk_integral(-1.0, 0.0, 0.5)
        with pytest.raises(ValueError, match="beta must exceed -2"):
            weighted_disk_integral(-0.5, -2.0, 0.5)


class TestSeriesReferenceRoute:
    # the tail bound, not just the last term, is held to _SERIES_REL_TOL
    RADII = (0.99, 0.999)

    @pytest.mark.parametrize("k, alpha", [(400, -0.99), (1500, -0.5)])
    def test_large_ball_dimension_stops_while_the_ratio_exceeds_one(self, k, alpha):
        # the ratio stays above 1 up to m = (h^2 - (k+alpha+1))/(1+alpha), past the term cap
        assert ((k + 1) ** 2 / 4 - (k + alpha + 1)) / (1 + alpha) > 1_000_000
        mpmath = _mp()
        for r in (0.0, 0.4995, 0.9):
            got = weighted_ball_integral_series(k, alpha, r)
            assert _rel(got, _ball_ref(mpmath, k, alpha, r)) <= 1e-10, r

    def test_overflow_is_a_value_error_naming_the_radius(self):
        # the integral is about 1.25e426 there
        with pytest.raises(ValueError, match=r"ball series overflows float64 at r=0\.999"):
            weighted_ball_integral_series(1500, -0.5, 0.999)

    def test_ball_meets_its_tolerance(self):
        mpmath = _mp()
        for k in K_GRID:
            for alpha in ALPHA_GRID:
                for r in self.RADII:
                    got = weighted_ball_integral_series(k, alpha, r)
                    err = _rel(got, _ball_ref(mpmath, k, alpha, r))
                    assert err <= 1e-12, (k, alpha, r, err)

    def test_disk_meets_its_tolerance(self):
        mpmath = _mp()
        for alpha in ALPHA_GRID:
            for beta in BETA_GRID:
                for r in self.RADII:
                    got = weighted_disk_integral_series(alpha, beta, r)
                    err = _rel(got, _disk_ref(mpmath, alpha, beta, r))
                    assert err <= 1e-12, (alpha, beta, r, err)

    def test_looser_tolerance_stops_earlier_and_still_holds(self, monkeypatch):
        mpmath = _mp()
        want = _disk_ref(mpmath, -0.5, -1.0, 0.999)
        monkeypatch.setattr(estimates, "_SERIES_MAX_TERMS", 8000)
        with pytest.raises(NonConvergenceError):
            weighted_disk_integral_series(-0.5, -1.0, 0.999)
        monkeypatch.setattr(estimates, "_SERIES_REL_TOL", 1e-6)
        assert _rel(weighted_disk_integral_series(-0.5, -1.0, 0.999), want) <= 1e-6


class TestHyp2f1:
    # (a, b, c - a - b): the first two sum one series for every x, the last
    # two continue it in short bands (|c - a - b| or |c - 1| sets the step)
    @pytest.mark.parametrize("a, b, alpha", [(1.0, 1.0, 100.0), (9.5, 9.5, 60.0),
                                             (1.0, 1000.0, 100.0), (1.0, 3000.0, -0.5)])
    def test_large_parameters_match_the_positive_series(self, a, b, alpha):
        mpmath = _mp(30)
        c = a + b + alpha
        xs = (0.3, 0.9, 0.99)
        got = special.hyp2f1(a, b, c, np.array(xs))
        for x, g in zip(xs, got):
            term = total = mpmath.mpf(1)
            m = 0
            while term > total * mpmath.mpf(10) ** -25:
                term *= (m + a) * (m + b) / ((m + 1) * (m + c)) * mpmath.mpf(x)
                total += term
                m += 1
            assert _rel(g, total) <= 1e-13, x

    def test_overflow_is_inf_and_every_finite_value_holds(self):
        # every coefficient is a term of F at the end of its band: the bare
        # series coefficients at 0 reach 1e613 here, F(1/2) is 1.6e275
        mpmath = _mp(30)
        xs = [0.0, 0.25, 0.5, 0.52, 0.55, 0.9]
        got = special.hyp2f1(2000.5, 2000.5, 4000.5, np.array(xs))
        for x, g in zip(xs[:4], got):
            assert _rel(g, mpmath.hyp2f1(2000.5, 2000.5, 4000.5, x)) <= 1e-13, x
        assert got[4:].tolist() == [math.inf, math.inf]  # F(0.55) is 3.4e312


    def test_overflowing_series_at_zero_shortens_band_0(self):
        # its terms at x = 1/2 overflow; summing them once never ended
        mpmath = _mp(40)
        start = time.perf_counter()
        got = special.hyp2f1(4000.0, 4000.0, 4096.0, 0.1)
        assert time.perf_counter() - start < 1.0
        assert _rel(got, mpmath.hyp2f1(4000, 4000, 4096, 0.1)) <= 1e-13  # 5.43e178

    def test_the_first_inf_band_ends_the_chain(self):
        # F passes float64 near x = 0.042, so x = 0.998 needs no band past that
        h = 32500.5
        starts, _, coefs = special._hyp2f1_bands(h, h, 65000.5, 0.998)
        assert coefs[-1].tolist() == [math.inf] + [0.0] * (coefs.shape[1] - 1)
        assert np.isfinite(coefs[:-1]).all() and starts[-1] < 0.05
        got = special.hyp2f1(h, h, 65000.5, np.array([0.04, 0.05, 0.998]))
        assert math.isfinite(got[0]) and got[1:].tolist() == [math.inf, math.inf]

    @pytest.mark.parametrize("x", [-3.0, -0.9, -1e-300, 1.0, 1.5, math.inf, -math.inf,
                                   math.nan])
    def test_x_outside_the_unit_interval_is_a_value_error_naming_it(self, x):
        # x = -3 once gave 7.7e26 (the 2F1 is 0.26) and x >= 1 a ZeroDivisionError
        with pytest.raises(ValueError, match=re.escape(f"x in [0, 1), got x={x}")):
            special.hyp2f1(1.5, 1.5, 2.5, np.array([0.5, x]))


class TestGaussJacobi:
    @pytest.mark.parametrize("alpha, beta", [(-0.99, 0.0), (0.0, -0.995), (0.0, 20.0),
                                             (0.0, 0.0)])
    def test_exact_through_degree_127(self, alpha, beta):
        # monomials t^d in t = (1+y)/2: int t^d (1-y)^alpha (1+y)^beta dy is
        # 2^(alpha+beta+1) B(d+beta+1, alpha+1), a sum of positive terms
        mpmath = _mp(30)
        y, w = special.gauss_jacobi(64, alpha, beta)
        assert np.all(np.diff(y) > 0) and -1.0 < y[0] and y[-1] < 1.0 and np.all(w > 0)
        t = 0.5 * (1.0 + y)
        for d in range(128):
            want = 2 ** mpmath.mpf(alpha + beta + 1) * mpmath.beta(d + beta + 1, alpha + 1)
            assert _rel(float(np.sum(w * t ** d)), want) <= 1e-13, d

    def test_validation(self):
        with pytest.raises(ValueError, match="exceed -1"):
            special.gauss_jacobi(64, -1.0, 0.0)
        with pytest.raises(ValueError, match="n >= 1"):
            special.gauss_jacobi(0, 0.0, 0.0)


class TestQuadratureRule:
    ALPHAS = (-0.99, -0.5, 0.0, 0.5, 3.0)
    BETAS = (-2.0, -3.0, -6.0, -12.0)
    CUTOFFS = (0.01, 0.1, 0.5, 0.8)

    def test_divergent_exponents_match_algebraic_weight_quad(self):
        for alpha in self.ALPHAS:
            for beta in self.BETAS:
                for cutoff in self.CUTOFFS:
                    radii = (cutoff, 0.5, 0.9, 0.99, 0.9999)
                    got = weighted_disk_integral_quad(alpha, beta, np.array(radii), cutoff)
                    for r, g in zip(radii, got):
                        err = _rel(g, _disk_quad_alg(alpha, beta, r, cutoff))
                        assert err <= 1e-11, (alpha, beta, cutoff, r, err)

    @pytest.mark.parametrize("alpha, beta, r, cutoff", [
        (-0.99, -2.0, 0.99, 0.8), (-0.99, -12.0, 0.9999, 0.01), (0.0, -3.0, 0.9999, 0.1),
        (3.0, -6.0, 0.99999, 0.5), (-0.5, -3.0, 0.99999, 0.001), (-0.5, 1.0, 0.99999, 0.0)])
    def test_edge_cases_match_mpmath(self, alpha, beta, r, cutoff):
        mpmath = _mp(20)
        want = disk_quad_ref(mpmath, alpha, beta, r, cutoff)
        assert _rel(weighted_disk_integral_quad(alpha, beta, r, cutoff), want) <= 1e-11

    def test_alpha_near_minus_one(self):
        # 4834.39..., where plain tanh-sinh in t returns about 3039
        want = _disk_quad_alg(-0.99, -2.0, 0.99, 0.8)
        assert 4834 < want < 4835
        assert _rel(weighted_disk_integral_quad(-0.99, -2.0, 0.99, 0.8), want) <= 1e-11

    def test_zero_cutoff_matches_closed_form(self):
        radii = np.array([0.0, 0.3, 0.5, 0.9, 0.99, 0.9999])
        for alpha in ALPHA_GRID:
            for beta in BETA_GRID:
                got = weighted_disk_integral_quad(alpha, beta, radii)
                want = weighted_disk_integral(alpha, beta, radii)
                np.testing.assert_allclose(got, want, rtol=1e-11, err_msg=f"{alpha}, {beta}")

    def test_arrays_are_bit_identical_to_scalar_calls(self):
        radii = np.linspace(0.01, 0.9999, 501)
        for alpha, beta, cutoff in ((-0.99, -3.0, 0.01), (0.5, -12.0, 0.1), (-0.5, 0.5, 0.0)):
            got = weighted_disk_integral_quad(alpha, beta, radii, cutoff)
            assert got.tolist() == [weighted_disk_integral_quad(alpha, beta, r, cutoff)
                                    for r in radii]
        assert type(weighted_disk_integral_quad(-0.5, -3.0, 0.5, 0.1)) is float

    def test_validation(self):
        with pytest.raises(ValueError, match="radius must lie in"):
            weighted_disk_integral_quad(-0.5, -3.0, np.array([0.5, 1.0]), 0.1)
        with pytest.raises(ValueError, match="alpha must exceed -1"):
            weighted_disk_integral_quad(-1.0, -3.0, 0.5, 0.1)
        with pytest.raises(ValueError, match="inner cutoff"):
            weighted_disk_integral_quad(-0.5, -3.0, 0.5, 1.0)

    @pytest.mark.parametrize("cutoff", [0.0, 5e-324, 1e-300, 1e-162, 1e-160, 1e-158, 1e-155,
                                        1.4916e-154])
    def test_divergent_exponents_reject_a_cutoff_with_a_subnormal_square(self, cutoff):
        # below 1.4917e-154, c^2 is subnormal (1e-160 gave 6 right digits) or 0
        # (the zero-cutoff rule then refused its own Jacobi exponent)
        for beta in (-2.0, -3.0):
            with pytest.raises(ValueError, match="inner cutoff must be at least 1.4917e-154"):
                weighted_disk_integral_quad(-0.5, beta, 0.5, cutoff)

    @pytest.mark.parametrize("cutoff", [1e-150, 1.4917e-154])
    def test_smallest_accepted_cutoffs_match_mpmath(self, cutoff):
        want = disk_quad_ref(_mp(), -0.5, -3.0, 0.5, cutoff)
        assert _rel(weighted_disk_integral_quad(-0.5, -3.0, 0.5, cutoff), want) <= 1e-12

    @pytest.mark.parametrize("beta, cutoff", [(-2.0, 1e-20), (-2.0, 1e-50), (-2.0, 1e-100),
                                              (-1.0, 1e-20), (-1.0, 1e-50), (-1.0, 1e-150)])
    def test_tiny_cutoffs_match_mpmath(self, beta, cutoff):
        # 64 nodes in u = log s over all of [c^2, 1/2], 690 units at c = 1e-150,
        # were off by up to 1.7e-7 at beta = -2 and 1.6e-4 at beta = -1
        want = disk_quad_ref(_mp(), -0.5, beta, 0.5, cutoff)
        assert _rel(weighted_disk_integral_quad(-0.5, beta, 0.5, cutoff), want) <= 1e-11

    def test_node_powers_past_float64_keep_a_finite_integral(self):
        # beta = -157, c = 0.01: s^(beta/2+1) passes float64 at the smallest
        # node while the integral, about 1.29e308, does not; the node sum was
        # inf, with a RuntimeWarning. 64 nodes give about 2.6e-10 here.
        radii = np.array([0.0, 0.5, 0.99])
        got = weighted_disk_integral_quad(-0.5, -157.0, radii, 0.01)
        mpmath = _mp(20)
        for r, g in zip(radii, got):
            assert _rel(g, disk_quad_ref(mpmath, -0.5, -157.0, r, 0.01)) <= 1e-9

    @pytest.mark.parametrize("cutoff", [1e-150, 1e-50, 1e-8, 0.01, 0.1])
    def test_no_cutoff_warns_at_any_divergent_beta(self, cutoff):
        # pytest turns a RuntimeWarning into an error; each value is finite
        # and positive, or inf where the integral passes float64
        for beta in np.arange(-401.0, -2.0, 0.5):
            got = weighted_disk_integral_quad(-0.5, beta, np.array([0.0, 0.5, 0.99]), cutoff)
            assert np.all(got > 0.0), (beta, got)

    @pytest.mark.parametrize("number", [float, np.float64])
    def test_an_integral_past_float64_is_inf_without_a_warning(self, number):
        # int s^(-5/2) ds from c^2 = 1e-300 is about 1e450; s^(beta/2+1) warned at s = c^2
        got = weighted_disk_integral_quad(number(-0.5), number(-5.0),
                                          np.array([0.0, 0.5, 0.99]), number(1e-150))
        assert got.tolist() == [math.inf] * 3
