import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hartogs.config import NumericConfig
from hartogs.schur import (FeasibilityWindow, SchurWitness, admissible_p_range,
                           conjugate_exponent, feasible_params, param_windows,
                           schur_verify)
from helpers import p_range_by_search


class TestWindows:
    def test_p2_windows(self):
        s_win, t_wins = param_windows(2, 1, 2.0)
        assert (s_win.lower, s_win.upper) == (-0.5, 0.0)
        assert s_win.lower_open and s_win.upper_open
        t2 = t_wins[2]
        assert (t2.lower, t2.upper) == (-1.5, -0.5)
        assert t2.lower_open and not t2.upper_open

    def test_p4_chain_window_is_empty(self):
        _, t_wins = param_windows(2, 1, 4.0)
        assert t_wins[2].is_empty

    def test_self_dual_at_p2(self):
        # p = q = 2: both systems give -1 < 2s < 0 and -2 < 2 t_3 + 2 <= 0
        s_win, t_wins = param_windows(3, 2, 2.0)
        assert s_win == FeasibilityWindow(-0.5, 0.0, True, True)
        assert t_wins == {3: FeasibilityWindow(-2.0, -1.0, True, False)}

    def test_duality_symmetry_as_data(self):
        # swapping p and its conjugate exponent swaps the two systems, so the
        # joint windows are identical as data
        for n, k, p in [(2, 1, 1.7), (4, 2, 2.5), (5, 1, 1.9)]:
            q = conjugate_exponent(p)
            assert param_windows(n, k, p) == param_windows(n, k, q)
            assert abs(conjugate_exponent(q) - p) < 1e-12

    def test_interval_algebra(self):
        got = FeasibilityWindow(0.5, 1.0, True, False)
        assert not got.is_empty
        point = FeasibilityWindow(1.0, 1.0, False, False)
        assert not point.is_empty
        assert FeasibilityWindow(1.0, 1.0, True, False).is_empty
        assert FeasibilityWindow(2.0, 1.0, True, True).is_empty
        assert got.contains(1.0) and not got.contains(0.5)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            param_windows(2, 1, 1.0)
        with pytest.raises(ValueError):
            conjugate_exponent(0.5)

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_non_finite_p_rejected(self, p):
        with pytest.raises(ValueError, match="finite"):
            conjugate_exponent(p)
        with pytest.raises(ValueError, match="finite"):
            feasible_params(2, 1, p)


class TestFeasibleParams:
    def test_p2_witness(self):
        w = feasible_params(2, 1, 2.0)
        assert w.s == pytest.approx(-0.25)
        assert w.t[2] == pytest.approx(-1.0)
        # the chain constraint from the defining system holds strictly inside
        assert -2 < w.t[2] * 2 + 1 <= 0

    def test_p4_infeasible(self):
        assert feasible_params(2, 1, 4.0) is None

    def test_n3_k2_witness(self):
        w = feasible_params(3, 2, 2.0)
        assert w is not None
        _, t_wins = param_windows(3, 2, 2.0)
        assert (t_wins[3].lower, t_wins[3].upper) == (-2.0, -1.0)
        assert t_wins[3].contains(-1.0)  # the closed end is admissible...
        assert w.t[3] == pytest.approx(-1.5)  # ...but selection takes the midpoint

    def test_witness_lies_in_windows(self):
        for n, k, p in [(2, 1, 1.5), (3, 1, 2.7), (5, 2, 2.2)]:
            w = feasible_params(n, k, p)
            s_win, t_wins = param_windows(n, k, p)
            assert s_win.contains(w.s)
            for j, win in t_wins.items():
                assert win.contains(w.t[j])

    def test_feasible_iff_inside_sharp_range(self):
        for n in (2, 3, 5):
            low, high = admissible_p_range(n)
            for k in (1, n - 1):
                grid = np.linspace(1.01, 6.0, 1000)
                got = np.array([feasible_params(n, k, p) is not None for p in grid])
                expect = (grid > low) & (grid < high)
                np.testing.assert_array_equal(got, expect)
        # at the float ends the windows are empty or a few ulps wide; the
        # closed ends and beyond are infeasible, and every p inside is not
        for n in range(2, 200):
            low, high = admissible_p_range(n)
            outside = (low, high, math.nextafter(low, 0.0), math.nextafter(high, math.inf))
            inside = (math.nextafter(low, 2.0), math.nextafter(high, 2.0),
                      low + 1e-15, high - 1e-15)
            for k in {1, n - 1}:
                for p in outside:
                    assert feasible_params(n, k, p) is None, (n, k, p)
                for p in inside:
                    assert feasible_params(n, k, p) is not None, (n, k, p)

    @given(st.data())
    def test_witness_satisfies_both_systems_exactly(self, data):
        # an oracle independent of the closed-form windows: the paper's two
        # systems, in exact rational arithmetic at P and its conjugate P/(P-1)
        n = data.draw(st.integers(2, 40))
        k = data.draw(st.integers(1, n - 1))
        low, high = admissible_p_range(n)
        p = data.draw(st.floats(low + 1e-9, high - 1e-9))
        w = feasible_params(n, k, p)
        P = Fraction(p)
        s = Fraction(w.s)
        for e in (P, P / (P - 1)):
            assert -1 < s * e < 0
            for j in range(k + 1, n + 1):
                assert -2 < Fraction(w.t[j]) * e + (j - 1) <= 0


class TestAdmissibleRange:
    def test_closed_form(self):
        assert admissible_p_range(2) == (pytest.approx(4 / 3), pytest.approx(4.0))
        assert admissible_p_range(3) == (pytest.approx(1.5), pytest.approx(3.0))

    def test_contains_two_and_shrinks(self):
        prev_width = math.inf
        for n in range(2, 12):
            low, high = admissible_p_range(n)
            assert low < 2.0 < high
            assert high - low < prev_width
            prev_width = high - low

    def test_search_matches_closed_form(self):
        for n in (2, 3, 4):
            low, high = admissible_p_range(n)
            for k in range(1, n):
                s_low, s_high = p_range_by_search(n, k)
                assert abs(s_low - low) < 1e-9
                assert abs(s_high - high) < 1e-9

    def test_range_is_k_independent(self):
        for n in (3, 5):
            results = {p_range_by_search(n, k) for k in range(1, n)}
            lows = {round(lo, 9) for lo, _ in results}
            highs = {round(hi, 9) for _, hi in results}
            assert len(lows) == 1 and len(highs) == 1


CFG = NumericConfig(seed=7)


class TestVerifier:
    def test_valid_witness_bounded_and_stable(self):
        witness = feasible_params(2, 1, 2.0)
        report = schur_verify(2, 1, 2.0, witness, CFG, samples=400)
        assert np.all(np.isfinite(report.cond1))
        assert np.all(np.isfinite(report.cond2))
        m1 = report.max_ratio
        report2 = schur_verify(2, 1, 2.0, witness, CFG, samples=800)
        assert abs(report2.max_ratio - m1) / m1 < 0.10
        assert not report.notes

    @pytest.mark.parametrize("s,t,option", [
        (math.nan, {2: -0.5}, "--witness-s"),
        (-math.inf, {2: -0.5}, "--witness-s"),
        (-0.2, {2: math.nan}, "--witness-t"),
        (-0.2, {2: -0.5, 3: math.inf}, "--witness-t"),
    ])
    def test_non_finite_witness_rejected(self, s, t, option):
        with pytest.raises(ValueError, match=option):
            SchurWitness(s, t)

    @pytest.mark.parametrize("boundary,puncture", [
        (1.5, 0.01), (-0.1, 0.01), (0.01, -1.0), (0.01, 0.99), (0.5, 0.6),
        (math.nan, 0.01), (0.01, math.nan), (math.inf, 0.01), (0.01, math.inf),
        (-math.inf, 0.01),
    ])
    def test_margins_outside_the_unit_interval_rejected(self, boundary, puncture):
        witness = feasible_params(2, 1, 2.0)
        with pytest.raises(ValueError, match="--puncture-margin"):
            schur_verify(2, 1, 2.0, witness, CFG, samples=3,
                         boundary_margin=boundary, puncture_margin=puncture)

    def test_zero_margins_accepted(self):
        witness = feasible_params(2, 1, 2.0)
        report = schur_verify(2, 1, 2.0, witness, CFG, samples=5,
                              boundary_margin=0.0, puncture_margin=0.0)
        assert report.cond1.shape == (5,)

    def test_p2_condition_symmetry(self):
        # p = q = 2 makes the two condition integrals identical
        witness = feasible_params(2, 1, 2.0)
        report = schur_verify(2, 1, 2.0, witness, CFG, samples=100)
        np.testing.assert_allclose(report.cond1, report.cond2, rtol=1e-10)

    def test_multi_block_witness(self):
        witness = feasible_params(3, 2, 2.0)
        report = schur_verify(3, 2, 2.0, witness, CFG, blocks=(1, 1), samples=200)
        assert np.all(np.isfinite(report.cond1))
        assert report.max_ratio < 100

    def test_off_center_p(self):
        witness = feasible_params(3, 1, 1.8)
        report = schur_verify(3, 1, 1.8, witness, CFG, samples=200)
        assert np.all(np.isfinite(report.cond1))
        assert np.all(np.isfinite(report.cond2))

    def test_broken_witness_diverges_at_puncture(self):
        # chain exponent pushed past the open end: the disk factor integral
        # diverges at the puncture, so the ratio grows as the margin shrinks
        witness = SchurWitness(s=-0.25, t={2: -2.0})
        maxima = []
        for margin in (1e-1, 1e-2, 1e-3):
            report = schur_verify(2, 1, 2.0, witness, CFG, samples=60,
                                  puncture_margin=margin)
            assert report.notes  # quadrature fallback was engaged
            maxima.append(report.max_ratio)
        assert maxima[0] < maxima[1] < maxima[2]
        assert maxima[2] / maxima[0] > 20

    def test_endpoint_witness_diverges_at_boundary(self):
        # s at the closed end of its window (s = 0) kills the damping weight;
        # the ratio then grows like the kernel integral near the boundary
        witness = SchurWitness(s=0.0, t={2: -1.0})
        maxima = []
        for margin in (0.1, 0.01, 0.001):
            report = schur_verify(2, 1, 2.0, witness, CFG, samples=200,
                                  boundary_margin=margin)
            maxima.append(report.max_ratio)
        assert maxima[0] < maxima[1] < maxima[2]

    def test_near_endpoint_p_still_finite(self):
        # just inside the sharp window the chain exponent sits close to the
        # divergence boundary; ratios must stay finite at fixed margins
        p = 1.34  # lower endpoint for n=2 is 4/3
        witness = feasible_params(2, 1, p)
        assert witness is not None
        report = schur_verify(2, 1, p, witness, CFG, samples=50)
        assert np.all(np.isfinite(report.cond1))
        assert np.all(np.isfinite(report.cond2))
        assert not report.notes

    def test_missing_chain_exponent_rejected(self):
        with pytest.raises(ValueError):
            schur_verify(3, 1, 2.0, SchurWitness(-0.25, {2: -1.0}), CFG, samples=10)

    def test_report_json_schema(self):
        witness = feasible_params(2, 1, 2.0)
        report = schur_verify(2, 1, 2.0, witness, CFG, samples=50)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert set(data) >= {"p", "q", "witness", "ratios_summary", "samples"}
        assert set(data["ratios_summary"]) >= {"max", "mean"}
        assert data["witness"]["t"]["2"] == -1.0
        assert data["samples"] == 50
