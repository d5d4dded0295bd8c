"""Method-of-steps integrator tests: exact m=1 reduction, convergence order."""

from __future__ import annotations

import math

import numpy as np
import pytest

import ffdelay as ff
from ffdelay.errors import ParameterError, SeriesLengthError
from helpers import random_load, random_single_delay, random_three_delay, sup_rel_diff


def smooth_load(days: int, amp: float = 2.5, base: float = 4.0, phase: float = 0.0) -> ff.LoadSeries:
    vals = [0.0] + [base + amp * math.sin(k / 3.0 + phase) for k in range(1, days + 1)]
    return ff.LoadSeries(tuple(vals))


def classical_continuous(w: ff.LoadSeries, tau: float, n: int) -> float:
    """Closed form of int_0^n w(s) e^{-(n-s)/tau} ds for piecewise-constant w."""
    total = 0.0
    for k in range(n):
        total += (
            w.values[k]
            * tau
            * (math.exp(-(n - k - 1) / tau) - math.exp(-(n - k) / tau))
        )
    return total


class TestValidation:
    def test_zero_substeps(self):
        w = ff.StepLoad(ff.LoadSeries((0.0, 1.0)))
        with pytest.raises(ParameterError):
            ff.integrate_single_delay(w, ff.SingleDelayParams(2.0), 1, 0)

    def test_non_integer_days_and_substeps_rejected(self):
        w = ff.StepLoad(ff.LoadSeries((0.0, 1.0, 2.0)))
        params = ff.SingleDelayParams(2.0)
        for days, substeps in ((2.5, 1), (2, 1.9), (True, 1), (2, True), ("2", 1), (2, "1")):
            with pytest.raises(ParameterError, match="must be an integer"):
                ff.integrate_single_delay(w, params, days, substeps)
            with pytest.raises(ParameterError, match="must be an integer"):
                ff.integrate_three_delay(w, ff.ThreeDelayParams(2.0), days, substeps)
        sol = ff.integrate_single_delay(w, params, np.int64(2), np.int32(3))
        assert (sol.days, sol.substeps_per_day) == (2, 3)

    def test_days_beyond_load(self):
        w = ff.StepLoad(ff.LoadSeries((0.0, 1.0)))
        with pytest.raises(SeriesLengthError):
            ff.integrate_single_delay(w, ff.SingleDelayParams(2.0), 3, 1)

    def test_grid_shape(self):
        w = ff.StepLoad(ff.LoadSeries((0.0, 1.0, 2.0, 0.0)))
        sol = ff.integrate_single_delay(w, ff.SingleDelayParams(2.0, 3.0), 3, 4)
        assert len(sol.values) == 3 * 4 + 1
        assert sol.values[0] == 0.0
        assert sol.days == 3
        assert len(sol.day_values()) == 4


class TestDayGridEquivalence:
    def test_single_delay_m1_matches_recursion(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            w = random_load(rng, max_n=120)
            params = random_single_delay(rng)
            t = len(w) - 1
            if t < 1:
                continue
            sol = ff.integrate_single_delay(ff.StepLoad(w), params, t, 1)
            ref = ff.eval_single_delay_recursive(w, params, t + 1)
            assert sup_rel_diff(sol.day_values(), ref.values) <= 1e-12

    def test_three_delay_m1_matches_recursion(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            w = random_load(rng, max_n=120)
            params = random_three_delay(rng)
            t = len(w) - 1
            if t < 1:
                continue
            sol = ff.integrate_three_delay(ff.StepLoad(w), params, t, 1)
            ref = ff.eval_three_delay_recursive(w, params, t + 1)
            assert sup_rel_diff(sol.day_values(), ref.values) <= 1e-12

    def test_three_delay_infinite_lags_match_single_delay(self):
        rng = np.random.default_rng(33)
        w = random_load(rng, n=40)
        td = ff.ThreeDelayParams(6.0, 9.0, math.inf, math.inf)
        sd = ff.SingleDelayParams(6.0, 9.0)
        for m in (1, 3, 8):
            a = ff.integrate_three_delay(ff.StepLoad(w), td, 39, m)
            b = ff.integrate_single_delay(ff.StepLoad(w), sd, 39, m)
            assert a.values == b.values

    def test_zero_load_all_m(self):
        w = ff.StepLoad(ff.LoadSeries((0.0,) * 10))
        for m in (1, 2, 5, 16):
            sol = ff.integrate_single_delay(w, ff.SingleDelayParams(4.0, 7.0), 9, m)
            assert sol.values == (0.0,) * (9 * m + 1)
            sol3 = ff.integrate_three_delay(w, ff.ThreeDelayParams(4.0, 7.0, 8.0, 9.0), 9, m)
            assert sol3.values == (0.0,) * (9 * m + 1)

    def test_linearity_on_subgrid(self):
        rng = np.random.default_rng(34)
        n = 30
        w1 = random_load(rng, n=n)
        w2 = random_load(rng, n=n)
        combo = ff.LoadSeries(tuple(1.5 * a + 0.5 * b for a, b in zip(w1.values, w2.values)))
        params = ff.SingleDelayParams(5.0, 8.0)
        for m in (1, 4):
            lhs = ff.integrate_single_delay(ff.StepLoad(combo), params, n - 1, m).values
            a = ff.integrate_single_delay(ff.StepLoad(w1), params, n - 1, m).values
            b = ff.integrate_single_delay(ff.StepLoad(w2), params, n - 1, m).values
            rhs = [1.5 * x + 0.5 * y for x, y in zip(a, b)]
            assert sup_rel_diff(lhs, rhs) <= 1e-10


class TestContinuumConvergence:
    def test_converges_to_closed_form_classical_solution(self):
        # with the lag switched off the continuous solution is the exact
        # exponential convolution of the step load, computable in closed form
        w = smooth_load(20)
        params = ff.SingleDelayParams(3.0, math.inf)
        t = 20
        exact = [classical_continuous(w, 3.0, n) for n in range(t + 1)]
        errs = {}
        for m in (8, 64):
            day_vals = ff.integrate_single_delay(ff.StepLoad(w), params, t, m).day_values()
            errs[m] = max(abs(a - b) for a, b in zip(day_vals, exact))
        assert errs[64] < errs[8] / 4.0  # first order: expect ~1/8
        assert errs[64] < 0.05 * max(abs(v) for v in exact)


class TestConvergenceProbe:
    def test_monotone_decreasing_on_impulse(self):
        w = ff.StepLoad(ff.LoadSeries((0.0, 1.0) + (0.0,) * 8))
        probe = ff.convergence_probe(w, ff.SingleDelayParams(2.0, 3.0), 9, [1, 2, 4, 8])
        assert [m for m, _ in probe] == [1, 2, 4]
        diffs = [d for _, d in probe]
        assert diffs[0] > diffs[1] > diffs[2] > 0.0

    def test_zero_load_all_zero_differences(self):
        w = ff.StepLoad(ff.LoadSeries((0.0,) * 6))
        probe = ff.convergence_probe(w, ff.SingleDelayParams(2.0, 3.0), 5, [1, 2, 4])
        assert all(d == 0.0 for _, d in probe)

    def test_misaligned_grids_rejected(self):
        w = ff.StepLoad(ff.LoadSeries((0.0, 1.0, 0.0)))
        with pytest.raises(ParameterError):
            ff.convergence_probe(w, ff.SingleDelayParams(2.0), 2, [2, 3])
        with pytest.raises(ParameterError):
            ff.convergence_probe(w, ff.SingleDelayParams(2.0), 2, [4, 2])
        with pytest.raises(ParameterError):
            ff.convergence_probe(w, ff.SingleDelayParams(2.0), 2, [4])
        with pytest.raises(ParameterError, match="must be an integer"):
            ff.convergence_probe(w, ff.SingleDelayParams(2.0), 2, [1, 2.9, 4])
        with pytest.raises(ParameterError, match="must be an integer"):
            ff.convergence_probe(w, ff.SingleDelayParams(2.0), 2, [True, 2])

    def test_two_day_quadrature_matches_hand_formula(self):
        # T=2 with a single loaded day: every subgrid value is a geometric sum
        #   g_m(1 + i/m) = c*h*q*(1-q^i)/(1-q),  h = 1/m,  q = e^{-h/tau}
        # so the probe's sup-differences can be hand-computed exactly.
        c, tau = 5.0, 2.5
        w = ff.StepLoad(ff.LoadSeries((0.0, c)))
        m_list = [1, 2, 4, 8]
        finest = m_list[-1]

        def grid_value(m: int, i: int) -> float:
            h = 1.0 / m
            q = math.exp(-h / tau)
            return c * h * q * (1.0 - q**i) / (1.0 - q)

        probe = ff.convergence_probe(w, ff.SingleDelayParams(tau, math.inf), 2, m_list)
        for m, got in probe:
            stride = finest // m
            expected = max(
                abs(grid_value(m, i) - grid_value(finest, i * stride))
                for i in range(1, m + 1)
            )
            assert got == pytest.approx(expected, rel=1e-9)

        # over day 0 alone the integrand is forced to zero by w(0) = 0, so a
        # single-day probe is all-zero at every m
        day0 = ff.convergence_probe(w, ff.SingleDelayParams(tau, math.inf), 1, m_list)
        assert all(d == 0.0 for _, d in day0)

    def test_halving_ratios_in_band_on_smooth_profiles(self):
        params_pool = [
            ff.SingleDelayParams(2.0, 5.0),
            ff.SingleDelayParams(4.0, 9.0),
            ff.SingleDelayParams(7.0, math.inf),
            ff.SingleDelayParams(3.0, 12.0),
        ]
        ratios = []
        for i, params in enumerate(params_pool):
            for phase in (0.0, 1.1, 2.3):
                w = ff.StepLoad(smooth_load(30, phase=phase, base=4.0 + 0.5 * i))
                probe = ff.convergence_probe(w, params, 30, [1, 2, 4, 8, 16])
                diffs = [d for _, d in probe]
                ratios += [b / a for a, b in zip(diffs, diffs[1:]) if a > 0.0]
        in_band = sum(1 for r in ratios if 0.3 <= r <= 0.8)
        assert in_band >= 0.9 * len(ratios)
