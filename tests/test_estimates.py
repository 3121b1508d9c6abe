import io
import math

import numpy as np
import pytest

from hartogs import estimates, special
from hartogs.config import NumericConfig
from hartogs.estimates import (NonConvergenceError, asymptotic_ratio_check,
                               sphere_moment, sphere_moment_mc,
                               weighted_ball_integral_mc,
                               weighted_ball_integral_series,
                               weighted_disk_integral_mc,
                               weighted_disk_integral_quad,
                               weighted_disk_integral_series)

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
        assert special.beta(0.5, 1.0) == pytest.approx(2.0, rel=1e-13)
        assert special.beta(2.5, 3.5) == pytest.approx(special.beta(3.5, 2.5), rel=1e-14)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.5, 1.0, 7.25, 100.0])
        np.testing.assert_allclose(special.log_gamma_vec(xs),
                                   [special.log_gamma(x) for x in xs], rtol=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            special.log_gamma(0.0)


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
        c = sphere_moment_mc(2, (1, 1), FAST_CFG.with_(workers=4))
        assert a == b == c


class TestBallIntegralSeries:
    def test_center_value_closed_form(self):
        # center value is k * B(alpha+1, k)
        assert weighted_ball_integral_series(1, -0.5, 0.0) == pytest.approx(2.0)
        for k in (1, 2, 3):
            for alpha in (-0.9, -0.5, 0.5):
                expect = k * special.beta(alpha + 1.0, k)
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

    def test_nonconvergence_flag(self):
        with pytest.raises(NonConvergenceError) as info:
            weighted_ball_integral_series(1, -0.5, 0.99, max_terms=64)
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
        e2, s2 = weighted_ball_integral_mc(2, -0.5, w2, FAST_CFG.with_(seed=202))
        assert abs(e1 - e2) < 3 * math.hypot(s1, s2)


class TestDiskIntegralSeries:
    def test_center_values(self):
        assert weighted_disk_integral_series(-0.5, 0.0, 0.0) == pytest.approx(2.0)
        assert weighted_disk_integral_series(0.0, 0.0, 0.0) == pytest.approx(1.0)
        for alpha, beta in [(-0.9, -1.0), (-0.5, 2.0)]:
            expect = special.beta(alpha + 1.0, beta / 2.0 + 1.0)
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
        assert report.min_ratio > 0
        assert report.max_ratio / report.min_ratio < 50
        assert np.all(np.isfinite(report.ratio))

    def test_ball_ratio_alpha_range(self):
        grid = np.linspace(0.0, 0.999, 80)
        for alpha in (-0.1, -0.9):
            report = asymptotic_ratio_check("ball", {"k": 2, "alpha": alpha}, grid)
            assert report.max_ratio / report.min_ratio < 50

    def test_disk_refined_envelope_bounded(self):
        grid = np.linspace(0.001, 0.999, 120)
        report = asymptotic_ratio_check("disk", {"alpha": -0.5, "beta": -1.0}, grid)
        assert report.refined is not None
        assert report.refined.max_ratio < 10.0
        assert np.all(np.isfinite(report.refined.ratio))

    def test_refined_needs_positive_grid(self):
        with pytest.raises(ValueError):
            asymptotic_ratio_check("disk", {"alpha": -0.5, "beta": -1.0},
                                   np.linspace(0.0, 0.9, 10))

    def test_envelope_comparison_needs_negative_alpha(self):
        with pytest.raises(ValueError):
            asymptotic_ratio_check("ball", {"k": 1, "alpha": 0.5}, [0.0, 0.5])

    def test_csv_format(self):
        grid = np.linspace(0.0, 0.9, 4)
        report = asymptotic_ratio_check("ball", {"k": 1, "alpha": -0.5}, grid)
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "r,value,envelope,ratio"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(2.0)


class TestSeriesInternals:
    def test_positive_terms_give_monotone_partial_sums(self):
        # coefficients are strictly positive for every valid parameter choice
        coeffs = estimates._ball_coeffs(2, -0.5, 256)
        assert np.all(coeffs > 0)
        coeffs = estimates._disk_coeffs(-0.9, -1.5, 256)
        assert np.all(coeffs > 0)

    def test_mc_prefix_consistency(self):
        cfg_a = FAST_CFG.with_(mc_samples=40_000)
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
        cfg = self.CFG.with_(mc_samples=100_000, chunk_size=1 << 13)
        w = np.array([0.3 - 0.2j, 0.1j, 0.4])
        one = weighted_ball_integral_mc(3, -0.99, w, cfg)
        assert weighted_ball_integral_mc(3, -0.99, w, cfg.with_(workers=2)) == one
        one = weighted_disk_integral_mc(-0.55, -1.99, 0.7j, cfg)
        assert weighted_disk_integral_mc(-0.55, -1.99, 0.7j, cfg.with_(workers=2)) == one
