import math

import numpy as np
import pytest
from scipy import integrate

from hartogs import counterexample as ce
from hartogs.counterexample import (RadialStepFunction,
                                    blowup_demo, blowup_eval, blowup_norm,
                                    projected_blowup, projection_constant,
                                    radial_norm_power_integral)
from helpers import harmonic_number


class TestRadialProfile:
    def test_breakpoints_decrease(self):
        logs = RadialStepFunction(2, 10).log_breakpoints
        assert logs[0] == 0.0
        assert np.all(np.diff(logs) < 0)

    def test_root_identity_in_log_domain(self):
        # a_j^(1/j) = 1/j, i.e. ln(a_j)/j + ln(j) = 0, up to j = 140
        logs = RadialStepFunction(2, 140).log_breakpoints
        for j in range(1, 141):
            assert abs(logs[j - 1] / j + math.log(j)) < 1e-12

    def test_piece_lookup_includes_right_endpoint(self):
        prof = RadialStepFunction(2, 3)
        assert prof.piece_index(1.0) == 1
        assert prof.piece_index(0.25) == 2       # r = a_2 belongs to piece 2
        assert prof.piece_index(0.2500001) == 1
        assert prof.piece_index(1 / 27) == 3     # r = a_3 belongs to piece 3
        assert prof.piece_index(4.0 ** -4) == 0  # r = a_4: outside for m = 3

    def test_profile_values(self):
        prof = RadialStepFunction(2, 2)
        assert prof.value(0.5) == pytest.approx(0.5 ** (1 - 3))
        assert prof.value(0.1) == pytest.approx(0.1 ** (0.5 - 3))
        assert prof.value(1 / 64) == 0.0

    def test_empty_support(self):
        prof = RadialStepFunction(2, 0)
        assert prof.value(0.5) == 0.0


class TestBlowupFunction:
    def test_zero_below_cutoff(self):
        assert blowup_eval(2, 1, [0.01, 0.2]) == 0.0  # |z2| = 0.2 <= a_2 = 1/4

    def test_real_axis_value(self):
        assert blowup_eval(2, 1, [0.2, 0.5]) == pytest.approx(4.0)

    def test_phase_twist(self):
        # n = 3: g(0.5) = 0.5^(1 - 4) = 8, and the phase factor has modulus 1
        z2 = 0.5 * np.exp(0.7j)
        val = blowup_eval(3, 1, [0.0, 0.1 * z2, z2])
        assert abs(val) == pytest.approx(8.0)
        assert val == pytest.approx(8.0 * (np.conj(z2) / 0.5) ** 2)
        # modulus depends only on |z_n|
        for phase in (0.0, 1.1, 2.9):
            v = blowup_eval(3, 1, [0.0, 0.05, 0.5 * np.exp(1j * phase)])
            assert abs(v) == pytest.approx(8.0)

    def test_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(12)
        for n in range(2, 8):
            for m in (1, 3, 6):
                r = 10.0 ** rng.uniform(-4.0, 0.0, 20)  # reaches every piece and the cutoff
                z = np.zeros((20, n), dtype=complex)
                z[:, -1] = r * np.exp(2j * np.pi * rng.random(20))
                got = blowup_eval(n, m, z)
                with mp.workdps(30):
                    cuts = [mp.mpf(j) ** -j for j in range(1, m + 2)]  # a_1 .. a_(m+1)
                    for zn, g in zip(z[:, -1], got):
                        rn = mp.mpf(abs(zn))
                        pieces = [j for j in range(1, m + 1) if cuts[j] < rn <= cuts[j - 1]]
                        if not pieces:
                            assert g == 0.0
                            continue
                        j = pieces[0]
                        phase = (mp.conj(mp.mpc(zn.real, zn.imag)) / rn) ** (n - 1)
                        ref = complex(rn ** (mp.mpf(1) / j - (n + 1)) * phase)
                        assert abs(g - ref) <= 1e-13 * abs(ref)

    def test_vanishing_last_coordinate_raises(self):
        with pytest.raises(ZeroDivisionError):
            blowup_eval(2, 1, [0.0, 0.0])

    def test_radius_beyond_one_rejected(self):
        with pytest.raises(ValueError):
            blowup_eval(2, 1, [0.0, 1.5])


class TestNorms:
    def test_empty_support_norm(self):
        assert blowup_norm(2, 1, 0, 4 / 3) == 0.0

    def test_piecewise_closed_form_vs_quadrature(self):
        for n, m, p in [(2, 3, 4 / 3), (3, 4, 1.5), (2, 5, 1.0), (3, 2, 1.2)]:
            prof = RadialStepFunction(n, m)
            a_last = math.exp(prof.log_breakpoints[-1])

            def integrand(r):
                return 2.0 * prof.value(r) ** p * r ** (2 * n - 1)

            breaks = np.exp(prof.log_breakpoints)
            got = radial_norm_power_integral(n, m, p)
            ref, err = integrate.quad(integrand, a_last, 1.0,
                                      points=breaks[::-1], limit=200)
            assert abs(got - ref) < 1e-10 * ref

    def test_critical_exponent_piece_formula(self):
        # at p = 2n/(n+1) each piece is (j(n+1)/2n)(a_j^(2n/(j(n+1))) - a_(j+1)^(...))
        n = 2
        p = 4 / 3
        expected = 0.0
        for j in (1, 2, 3):
            c = 2 * n / (j * (n + 1))
            aj = j ** float(-j)
            aj1 = (j + 1.0) ** -(j + 1.0)
            expected += (1 / c) * (aj ** c - aj1 ** c)
        assert radial_norm_power_integral(2, 3, p) == pytest.approx(2 * expected, rel=1e-14)

    def test_norm_increases_and_converges(self):
        for n in (2, 3):
            p = 2 * n / (n + 1)
            norms = [blowup_norm(n, 1, m, p) for m in range(1, 101)]
            assert all(a < b for a, b in zip(norms, norms[1:]))
            # power increments follow the comparison scale j^(-1-1/(2(n+1)))
            powers = np.array(norms) ** p
            increments = np.diff(powers)
            comparison = np.array([(j + 1.0) ** (-1 - 1 / (2 * (n + 1)))
                                   for j in range(1, 100)])
            assert np.max(increments / comparison) < 6.0

    def test_supercritical_p_flagged(self):
        with pytest.raises(ValueError):
            blowup_norm(2, 1, 50, 2.0)

    def test_supercritical_p_names_the_first_bad_piece(self):
        # n = 2, p = 1.45: c_j = 1.45/j - 0.35 is positive for j <= 4 only
        assert blowup_norm(2, 1, 4, 1.45) > 0.0
        for stage in (radial_norm_power_integral, lambda n, m, p: blowup_norm(n, 1, m, p)):
            with pytest.raises(ValueError, match=r"piece j=5 has exponent -0\.06 <= 0"):
                stage(2, 50, 1.45)

    def test_empty_stage(self):
        assert radial_norm_power_integral(3, 0, 1.5) == 0.0
        assert blowup_norm(3, 2, 0, 1.0) == 0.0

    def test_subnormal_volume_rejected_naming_n_and_k(self):
        # 1/170! is a normal double, 1/171! is not
        assert blowup_norm(170, 1, 1, 1.0) > 0.0
        with pytest.raises(ValueError, match="n = 171, k = 1"):
            blowup_norm(171, 1, 1, 1.0)

    def test_norm_against_mc_oracle(self):
        # sample the product model and integrate |f|^p with the chart Jacobian
        from hartogs import domains
        n, k, m, p = 2, 1, 2, 4 / 3
        spec = domains.HartogsDomainSpec.standard(n, k)
        w = domains.sample_product_model(spec, 400_000, seed=33)
        z = domains.from_product_model(n, k, w)
        vals = (np.abs(blowup_eval(n, m, z)) ** p
                * np.abs(domains.jacobian_det_from_product(n, k, w)) ** 2)
        est = vals.mean()
        err = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(est - blowup_norm(n, k, m, p) ** p) < 3 * err


class TestProjectionConstant:
    def test_first_values(self):
        assert projection_constant(1) == pytest.approx(0.75)
        c2 = projection_constant(2)
        assert c2 == pytest.approx(0.75 + 2 * (0.5 - 3.0 ** -1.5), rel=1e-12)
        assert c2 == pytest.approx(1.3651, abs=5e-5)

    def test_quadrature_oracle(self):
        for n, m in [(2, 1), (2, 2), (3, 4)]:
            prof = RadialStepFunction(n, m)
            a_last = math.exp(prof.log_breakpoints[-1])

            def integrand(r):
                return 2.0 * prof.value(r) * r ** n

            ref, err = integrate.quad(integrand, a_last, 1.0,
                                      points=np.exp(prof.log_breakpoints)[::-1],
                                      limit=200)
            assert 2 * projection_constant(m) == pytest.approx(ref, rel=1e-10)

    def test_monotone_increments(self):
        values = [projection_constant(m) for m in range(1, 120)]
        diffs = np.diff(values)
        assert np.all(diffs > 0)
        # increment formula: m (1/m - (m+1)^(-(m+1)/m))
        for m in (2, 7, 50):
            expect = 1.0 - m * (m + 1.0) ** (-(m + 1.0) / m)
            assert values[m - 1] - values[m - 2] == pytest.approx(expect, rel=1e-12)

    def test_harmonic_lower_bound(self):
        for m in range(1, 101):
            assert projection_constant(m) >= 0.5 * harmonic_number(m)


class TestStagePass:
    # the stages are prefix sums over np.exp'd piece arrays; a per-piece
    # math.exp loop is the reference, and np.exp and math.exp may round an
    # ulp apart, hence the tolerance
    @staticmethod
    def loop_stages(n, p, m_max):
        power, constant, out = 0.0, 0.0, []
        for j in range(1, m_max + 1):
            la, lb = -j * math.log(j), -(j + 1) * math.log(j + 1)
            c = p * (1.0 / j - (n + 1)) + 2 * n
            power += (math.exp(c * la) - math.exp(c * lb)) / c
            constant += 1.0 - j * math.exp(lb / j)
            out.append((2.0 * power, constant))
        return out

    def test_every_stage_matches_the_loop(self):
        for n in (2, 3, 6):
            for p in (1.0, 1.1, 2 * n / (n + 1)):
                for m, (power, constant) in enumerate(self.loop_stages(n, p, 120), 1):
                    assert radial_norm_power_integral(n, m, p) == pytest.approx(
                        power, rel=1e-14, abs=0.0)
                    assert projection_constant(m) == pytest.approx(constant, rel=1e-14, abs=0.0)


class TestLargeStageAccuracy:
    # test_acceptance_07b reads both closed forms at m = 20000, far past the
    # m <= 140 checked above; there the float sums must still match a
    # 20-digit mpmath evaluation of the same pieces.
    M = 20_000

    def test_piece_sums_match_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(20):
            logs = [-j * mp.log(j) for j in range(1, self.M + 2)]  # ln a_j
            c = mp.fsum(j * (mp.exp(logs[j - 1] / j) - mp.exp(logs[j] / j))
                        for j in range(1, self.M + 1))
            powers = {}
            for n in (2, 3):
                pieces = []
                for j in range(1, self.M + 1):
                    e = (mp.mpf(2 * n) / (n + 1) * (mp.mpf(1) / j - (n + 1))
                         + 2 * n)
                    pieces.append((mp.exp(e * logs[j - 1])
                                   - mp.exp(e * logs[j])) / e)
                powers[n] = 2 * mp.fsum(pieces)
        assert projection_constant(self.M) == pytest.approx(float(c), rel=1e-10, abs=0.0)
        for n, power in powers.items():
            assert radial_norm_power_integral(
                n, self.M, 2 * n / (n + 1)) == pytest.approx(
                    float(power), rel=1e-10, abs=0.0)


class TestProjectedBlowup:
    def test_closed_form_value(self):
        val = projected_blowup(2, 1, [0.1, 0.5])
        assert abs(val) == pytest.approx(3.0)

    def test_modulus_lower_bound(self):
        from hartogs import domains
        spec = domains.HartogsDomainSpec.standard(2, 1)
        w = domains.sample_product_model(spec, 500, seed=5)
        z = domains.from_product_model(2, 1, w)
        vals = np.abs(projected_blowup(2, 3, z))
        assert np.all(vals >= 2 * projection_constant(3) - 1e-12)

    def test_matches_mc_projection(self):
        from hartogs.domains import HartogsDomainSpec
        from hartogs.kernels import mc_bergman_projection
        spec = HartogsDomainSpec.standard(2, 1)
        z = np.array([0.1, 0.55], dtype=complex)
        for m in (1, 2):
            est, err = mc_bergman_projection(
                spec, lambda pts: blowup_eval(2, m, pts), z, 200_000, seed=44 + m)
            expected = projected_blowup(2, m, z)
            assert abs(est - expected) <= 3 * err


class TestBlowupDemo:
    def test_table_shape_and_monotone_ratio(self):
        table = blowup_demo(2, 1, 4 / 3, range(1, 101))
        assert table.m[0] == 1 and table.m[-1] == 100
        assert np.all(np.diff(table.bound) > 0)
        assert np.all(np.diff(table.ratio) > 0)

    def test_norm_column_bounded(self):
        table = blowup_demo(3, 2, 1.5, range(1, 101))
        assert table.norm[-1] < 4.0
        assert np.all(np.diff(table.norm) > 0)

    def test_subcritical_p_holder_comparison(self):
        # on a finite-measure domain the p = 1 norm is controlled by the
        # critical norm: ||f||_1 <= ||f||_p* V^(1 - 1/p*)
        from hartogs.domains import standard_volume
        n, k = 2, 1
        p_star = 4 / 3
        vol = standard_volume(n, k)
        for m in (1, 10, 100):
            lhs = blowup_norm(n, k, m, 1.0)
            rhs = blowup_norm(n, k, m, p_star) * vol ** (1 - 1 / p_star)
            assert lhs <= rhs * (1 + 1e-12)

    def test_csv_format(self):
        text = blowup_demo(2, 1, 4 / 3, [1, 2]).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "m,norm_fm,proj_lower_bound,ratio"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert int(row[0]) == 1
        assert float(row[2]) == pytest.approx(
            0.5 ** 0.75 * 2 * projection_constant(1))

    def test_rows_are_stages_of_one_pass(self):
        # every row, however the m values are ordered or repeated, has the
        # bits of its row in the full table and of the single-stage calls
        from hartogs.domains import standard_volume
        for n, k, p in [(2, 1, 4 / 3), (3, 2, 1.5), (4, 1, 1.0), (5, 3, 1.1)]:
            full = blowup_demo(n, k, p, range(1, 121))
            part = blowup_demo(n, k, p, [120, 1, 10, 10, 57, 3])
            assert part.m.tolist() == [1, 3, 10, 57, 120]
            rows = part.m - 1
            assert np.array_equal(part.norm, full.norm[rows])
            assert np.array_equal(part.bound, full.bound[rows])
            vol_factor = standard_volume(n, k) ** (1 / p)
            for m, norm, bound in zip(part.m.tolist(), part.norm, part.bound):
                assert norm == blowup_norm(n, k, m, p)
                assert bound == vol_factor * (2.0 * projection_constant(m))

    def test_p_validation_and_cap(self):
        with pytest.raises(ValueError):
            blowup_demo(2, 1, 2.0, [1, 2])
        with pytest.raises(ValueError):
            blowup_demo(2, 1, 4 / 3, [1, 200])
        with pytest.raises(ValueError):
            blowup_demo(2, 1, 4 / 3, [])
