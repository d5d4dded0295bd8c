"""Estimation tests: metrics, simplex optimizer, multi-start fitting."""

from __future__ import annotations

import inspect
import math
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ffdelay as ff
from ffdelay import dataio, estimation, models
from ffdelay.errors import MetricError, ObservationError, ParameterError
from ffdelay.estimation import _Coord
from helpers import EXAMPLE_SIDES, block_load, fixture_params, performance, recovery_bounds

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def tight_nm_config(max_iterations: int = 800) -> ff.FitConfig:
    return ff.FitConfig(
        starts=1,
        max_iterations=max_iterations,
        tolerance=1e-14,
        simplex_tolerance=1e-9,
        seed=0,
    )


def overflowing_scenario() -> tuple[ff.LoadSeries, ff.ObservationSet, ff.ParamBounds]:
    """A 2,000-day plan, every 30th day observed, and a lag box down to 0.5 days."""
    w = block_load(2000)
    p = performance(w, fixture_params(), 2000)
    obs = ff.ObservationSet(tuple((d, p[d]) for d in range(5, 2000, 30)))
    bounds = ff.ParamBounds(
        p0=(300.0, 700.0), k1=(0.005, 2.0), k2=(0.005, 2.0),
        tau1=(5.0, 150.0), tau2=(0.5, 1e6), tau3=(2.0, 150.0), tau4=(0.5, 1e6),
    )
    return w, obs, bounds


class TestObservationSet:
    def test_sorts_entries(self):
        obs = ff.ObservationSet(((14, 498.0), (7, 512.0)))
        assert obs.days == (7, 14)
        assert obs.values == (512.0, 498.0)

    def test_rejects_duplicates(self):
        with pytest.raises(ObservationError):
            ff.ObservationSet(((7, 512.0), (7, 498.0)))

    def test_rejects_negative_day_and_nonfinite(self):
        with pytest.raises(ObservationError):
            ff.ObservationSet(((-1, 512.0),))
        with pytest.raises(ObservationError):
            ff.ObservationSet(((1, math.nan),))
        with pytest.raises(ObservationError):
            ff.ObservationSet(((math.nan, 512.0),))
        with pytest.raises(ObservationError):
            ff.ObservationSet(((math.inf, 512.0),))
        with pytest.raises(ObservationError):
            ff.ObservationSet(((1, "abc"),))
        with pytest.raises(ObservationError):
            ff.ObservationSet(((None, 1.0),))
        with pytest.raises(ObservationError):
            ff.ObservationSet(((1, None),))
        with pytest.raises(ObservationError):
            ff.ObservationSet(((True, 1.0), (2, 3.0)))


class TestBoundsAndConfig:
    def test_bound_inversion(self):
        with pytest.raises(ParameterError):
            ff.ParamBounds(p0=(10.0, 1.0))
        # a box is two numbers: nothing is cut off, indexed past or converted
        for box in ((0.0, 1.0, 2.0), (1.0,), ("a", 1.0), ("0", "1"), (False, 1.0), 5.0):
            with pytest.raises(ParameterError, match="must be two numbers"):
                ff.ParamBounds(p0=box)

    def test_tau_bounds_must_be_positive(self):
        with pytest.raises(ParameterError):
            ff.ParamBounds(tau1=(-1.0, 10.0))
        with pytest.raises(ParameterError):
            ff.ParamBounds(k1=(0.0, 10.0))

    def test_decoded_coordinate_stays_inside_its_box(self):
        # exp(log(5.0)) is 4.999999999999999, exp(log(1.0) + log(10.0)) is
        # 10.000000000000002, and 0.3 + 1.0 * (0.9 - 0.3) is 0.9000000000000001
        assert _Coord(5.0, 150.0, log_scale=True).value(-50.0) == 5.0
        assert _Coord(1.0, 10.0, log_scale=True).value(50.0) == 10.0
        assert _Coord(0.3, 0.9, log_scale=False).value(50.0) == 0.9
        # a linear box nearly as wide as a double allows still decodes inside, not at its top
        assert _Coord(*ff.ParamBounds(p0=(-8e307, 8e307)).p0, log_scale=False).value(0.0) == 0.0
        for lo, hi in ((5.0, 150.0), (0.5, 500.0), (2.0, 1e6), (1e-4, 10.0)):
            coord = _Coord(lo, hi, log_scale=True)
            assert all(lo <= coord.value(z) <= hi for z in (-1e3, -50.0, -40.0, 40.0, 50.0, 1e3))

    def test_config_domain(self):
        with pytest.raises(ParameterError):
            ff.FitConfig(starts=0)
        with pytest.raises(ParameterError):
            ff.FitConfig(tolerance=0.0)
        with pytest.raises(ParameterError):
            ff.FitConfig(seed=-1)
        for field in ("starts", "max_iterations", "seed"):
            for value in (2.5, True, "3"):
                with pytest.raises(ParameterError, match=f"{field} must be an integer"):
                    ff.FitConfig(**{field: value})
        assert ff.FitConfig(starts=np.int64(3)).starts == 3
        for field, values in (("tolerance", ("a", [1], True)),
                              ("simplex_tolerance", ("a", [1], True)),
                              ("fix_p0", ("a", True))):
            for value in values:
                with pytest.raises(ParameterError, match=f"{field} must be a real number"):
                    ff.FitConfig(**{field: value})
        config = ff.FitConfig(tolerance=np.float32(1e-6), fix_p0=np.float64(500.0))
        assert type(config.tolerance) is np.float32 and type(config.fix_p0) is np.float64


@st.composite
def search_boxes(draw) -> tuple[float, float, bool]:
    """(lo, hi, log_scale): a log box with 0 < lo < hi, or a linear box of finite width."""
    log_scale = draw(st.booleans())
    ends = (st.floats(0.0, None, exclude_min=True, allow_infinity=False) if log_scale
            else st.floats(-8e307, 8e307))
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return lo, hi, log_scale


def _outcome(f, *args) -> str:
    """f(*args) as hex, or the name of the exception it raises."""
    try:
        return f(*args).hex()
    except ArithmeticError as exc:  # ends that share one log, or exp past the largest double
        return type(exc).__name__


def _branching_value(lo: float, hi: float, log_scale: bool, z: float) -> float:
    u = estimation._sigmoid(z)
    if log_scale:
        v = math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    else:
        v = lo + u * (hi - lo)
    return min(max(v, lo), hi)


def _branching_z_of(lo: float, hi: float, log_scale: bool, v: float) -> float:
    if log_scale:
        u = (math.log(v) - math.log(lo)) / (math.log(hi) - math.log(lo))
    else:
        u = (v - lo) / (hi - lo)
    return estimation._logit(u)


@given(box=search_boxes(), z=st.floats(-45.0, 45.0), data=st.data())
def test_coordinate_maps_its_box_as_the_branching_arithmetic_did(box, z, data):
    # _Coord keeps the box ends on its scale; the arithmetic of a log branch and
    # a linear branch that took the log of each end at every call is its spec
    lo, hi, log_scale = box
    coord = _Coord(lo, hi, log_scale=log_scale)
    value = _outcome(coord.value, z)
    assert value == _outcome(_branching_value, lo, hi, log_scale, z)
    assert value == "OverflowError" or lo <= float.fromhex(value) <= hi
    v = data.draw(st.floats(lo, hi))
    assert _outcome(coord.z_of, v) == _outcome(_branching_z_of, lo, hi, log_scale, v)


class TestFitObjective:
    """The objective every start minimizes: ``_FitProblem.sse`` at a search point."""

    def test_matches_two_pass_reference(self, load_120):
        rng = np.random.default_rng(88)
        days = sorted(rng.choice(np.arange(1, 120), size=15, replace=False).tolist())
        obs = ff.ObservationSet(tuple((int(d), float(rng.uniform(400, 600))) for d in days))
        row = models.variant_row("single_delay")
        problem = estimation._FitProblem(row, load_120, obs, ff.ParamBounds(), None)
        z = problem.embed(ff.ModelParams(
            "single_delay", 480.0, 0.2, 0.15,
            ff.SingleDelayParams(30.0, 12.0), ff.SingleDelayParams(9.0, 6.0),
        ))
        got = problem.sse(z)
        # independent two-pass reference at the model of z: full trajectory,
        # then residual pass
        p = performance(load_120, problem.params(z), 120)
        residuals = [p[d] - y for d, y in obs.entries]
        expected = float(np.dot(residuals, residuals))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_overflowing_error_scores_inf(self):
        # valid but unstable parameters: p is about -3.4e160 at day 628, so a
        # squared error exceeds a double
        w = block_load(1500)
        params = ff.ModelParams(
            "three_delay", 500.0, 0.1, 0.12,
            ff.ThreeDelayParams(45.0, 0.5, 0.5, 0.5), ff.ThreeDelayParams(15.0),
        )
        obs = ff.ObservationSet(((628, 500.0), (629, 501.0)))
        row = models.variant_row("three_delay")
        problem = estimation._FitProblem(row, w, obs, ff.ParamBounds(), None)
        assert problem.sse(problem.embed(params)) == math.inf
        assert ff.r_squared(performance(w, params, 630), obs) == -math.inf


@pytest.mark.parametrize("fix_p0", [None, 480.0])
@pytest.mark.parametrize("variant", models.VARIANTS)
@given(data=st.data())
def test_fit_problem_decodes_a_search_point_into_one_model(variant, fix_p0, data, load_120,
                                                           clean_observations):
    # decode hands the kernels the arguments of params(z), each residual is
    # params(z)'s forecast less its observation, and sse sums their squares
    row = models.variant_row(variant)
    problem = estimation._FitProblem(row, load_120, clean_observations, recovery_bounds(), fix_p0)
    z = data.draw(st.tuples(*[st.floats(-45.0, 45.0)] * len(problem.coords)))
    params = problem.params(z)
    assert problem.decode(z) == (
        params.p0, params.k1, params.k2,
        *(models._side_args(variant, models._field_values(side))
          for side in (params.fitness, params.fatigue)),
    )
    residuals = problem.residuals(z)
    p = performance(load_120, params, problem.horizon)
    want = [p[d] - y for d, y in clean_observations.entries]
    assert list(map(float.hex, residuals)) == list(map(float.hex, want))
    assert problem.sse(z).hex() == estimation._sum_squares(residuals).hex()


class TestRSquared:
    def test_perfect_fit(self):
        obs = ff.ObservationSet(((1, 1.0), (2, 2.0), (3, 3.0)))
        assert ff.r_squared([0.0, 1.0, 2.0, 3.0], obs) == 1.0

    def test_mean_predictor_scores_zero(self):
        obs = ff.ObservationSet(((1, 1.0), (2, 2.0), (3, 3.0)))
        assert ff.r_squared([2.0, 2.0, 2.0, 2.0], obs) == 0.0

    def test_direct_arithmetic_half(self):
        obs = ff.ObservationSet(((1, 1.0), (2, 2.0), (3, 3.0)))
        # SSE = 1, SST = 2
        assert ff.r_squared([0.0, 1.0, 2.0, 4.0], obs) == pytest.approx(0.5, abs=1e-15)

    def test_sse_adds_left_to_right_on_every_python(self):
        # the built-in sum, compensated from Python 3.12 on, gives 1.0000000000000002e16
        assert estimation._sum_squares((1e8, 1.0, 1.0)) == 1e16

    def test_overflowing_sum_of_squares_is_not_an_error(self):
        # SST squares a spread of about 1.7e160 past the double range; SSE is 0
        obs = ff.ObservationSet(((1, 1e160), (2, 3e160)))
        assert ff.r_squared([0.0, 1e160, 3e160], obs) == 1.0

    def test_zero_variance_undefined(self):
        obs = ff.ObservationSet(((1, 5.0), (2, 5.0)))
        with pytest.raises(MetricError):
            ff.r_squared([0.0, 5.0, 5.0], obs)

    def test_needs_two_observations(self):
        obs = ff.ObservationSet(((1, 5.0),))
        with pytest.raises(MetricError):
            ff.r_squared([0.0, 5.0], obs)

    def test_out_of_range_day(self, true_trajectory):
        obs = ff.ObservationSet(((100, 500.0), (120, 500.0)))
        message = "^observation day 120 is outside the horizon 120$"
        with pytest.raises(ObservationError, match=message):
            ff.r_squared(true_trajectory, obs)


class TestNelderMead:
    def test_scalar_quadratic(self):
        x, fx, iters, converged = ff.nelder_mead(
            lambda v: (v[0] - 3.0) ** 2, [0.0], tight_nm_config()
        )
        assert converged
        assert abs(x[0] - 3.0) <= 1e-6

    def test_start_at_minimum_keeps_value(self):
        x, fx, iters, converged = ff.nelder_mead(
            lambda v: (v[0] - 3.0) ** 2, [3.0], tight_nm_config()
        )
        assert converged
        assert fx == 0.0
        assert x[0] == 3.0

    def test_two_parameter_bowl(self):
        x, fx, iters, converged = ff.nelder_mead(
            lambda v: v[0] ** 2 + 10.0 * v[1] ** 2, [5.0, 5.0], tight_nm_config(2000)
        )
        assert fx < 1e-10
        assert iters <= 2000

    def test_best_value_monotone_along_trace(self):
        trace: list[float] = []
        ff.nelder_mead(
            lambda v: (v[0] - 1.0) ** 2 + (v[1] + 2.0) ** 4,
            [4.0, 4.0],
            tight_nm_config(),
            trace=trace,
        )
        assert len(trace) > 0
        assert all(b <= a + 1e-300 for a, b in zip(trace, trace[1:]))

    def test_result_never_worse_than_start(self):
        start = [2.5]
        x, fx, _, _ = ff.nelder_mead(lambda v: math.cos(v[0]) * v[0] ** 2, start, tight_nm_config())
        assert fx <= math.cos(start[0]) * start[0] ** 2

    def test_non_finite_at_start_rejected(self):
        with pytest.raises(ParameterError):
            ff.nelder_mead(lambda v: math.inf, [0.0], tight_nm_config())

    def test_non_finite_region_treated_as_infinite(self):
        def objective(v):
            if v[0] < 0.0:
                return math.nan
            return (v[0] - 3.0) ** 2

        x, fx, _, converged = ff.nelder_mead(objective, [10.0], tight_nm_config())
        assert abs(x[0] - 3.0) <= 1e-5

    def test_rosenbrock_bits(self):
        # the simplex's operations and their order are pinned: fits are bit-reproducible
        seen = []

        def rosenbrock(v):
            seen.append(v)
            return 100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2

        config = ff.FitConfig(max_iterations=400, tolerance=1e-12, simplex_tolerance=1e-10)
        x, fx, iters, converged = ff.nelder_mead(rosenbrock, (-1.2, 1.0), config)
        assert all(type(v) is tuple and set(map(type, v)) == {float} for v in seen + [x])
        assert tuple(map(float.hex, x)) == ("0x1.fffff71ce7abap-1", "0x1.ffffedc58fdcdp-1")
        assert (fx.hex(), iters, converged) == ("0x1.8e67193cda37ep-44", 130, True)
        config = ff.FitConfig(max_iterations=60, tolerance=1e-12, simplex_tolerance=1e-10)
        _, fx, iters, converged = ff.nelder_mead(rosenbrock, (-1.2, 1.0), config, step=0.02)
        assert (fx.hex(), iters, converged) == ("0x1.56ea8ad9f0b38p-3", 60, False)

    def test_runs_without_numpy(self):
        # the simplex and the SSE, in a fresh interpreter where importing numpy fails
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import ffdelay as ff\n"
            "from ffdelay.estimation import _sum_squares\n"
            "x, fx, _, converged = ff.nelder_mead(\n"
            "    lambda v: (v[0] - 3.0) ** 2 + v[1] ** 2, (0.0, 1.0), ff.FitConfig())\n"
            "print(converged, round(x[0], 3), _sum_squares((1e8, 1.0)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "3.0", "1e+16"]


@given(st.integers(0, 2**32), st.integers(1, 40), st.integers(1, 8))
def test_latin_hypercube_puts_one_start_in_each_stratum(seed, n_starts, dims):
    points = estimation._latin_hypercube(seed, n_starts, dims)
    assert points == estimation._latin_hypercube(seed, n_starts, dims)
    assert len(points) == n_starts
    assert all(type(p) is tuple and set(map(type, p)) == {float} for p in points)
    for column in zip(*points):
        assert sorted(int(u * n_starts) for u in column) == list(range(n_starts))


class TestFit:
    def test_quick_noiseless_recovery(self, load_120, clean_observations, true_trajectory):
        config = ff.FitConfig(starts=8, seed=20250809)
        res = ff.fit_variant(load_120, clean_observations, recovery_bounds(), config)
        assert res.r2 >= 0.999
        assert len(res.predicted) == 120
        obs_range = max(clean_observations.values) - min(clean_observations.values)
        max_err = max(abs(a - b) for a, b in zip(res.predicted, true_trajectory))
        assert max_err <= 5e-3 * obs_range

    def test_deterministic_given_seed(self, load_120, clean_observations):
        config = ff.FitConfig(starts=3, max_iterations=400, seed=99)
        a = ff.fit_variant(load_120, clean_observations, recovery_bounds(), config)
        b = ff.fit_variant(load_120, clean_observations, recovery_bounds(), config)
        assert a == b

    def test_overflowing_start_fails_as_parameter_error(self):
        # Over 2,000 days a lag constant near the 0.5-day box edge makes the
        # three_delay recursion grow past 1e154, where squaring a residual
        # raises OverflowError; at this seed the only sampled start lies there.
        w, obs, bounds = overflowing_scenario()
        config = ff.FitConfig(starts=1, max_iterations=200, seed=1)
        # the overflow reads as an infinite objective, so no start is usable
        with pytest.raises(ParameterError, match="no usable start point"):
            ff.fit_variant(w, obs, bounds, config, "three_delay")

    @pytest.mark.parametrize("seed", range(12))
    def test_overflowing_starts_are_skipped(self, seed, monkeypatch):
        # most of these seeds sample at least one start in the overflowing
        # region; the fit goes on from the others
        w, obs, bounds = overflowing_scenario()
        skipped = []
        run_start = estimation._run_start

        def recording_run_start(problem, index, z0, config):
            record = run_start(problem, index, z0, config)
            if record is None:
                skipped.append(index)
            return record

        monkeypatch.setattr(estimation, "_run_start", recording_run_start)
        config = ff.FitConfig(starts=8, max_iterations=30, seed=seed)
        res = ff.fit_variant(w, obs, bounds, config, "three_delay")
        assert math.isfinite(res.sse)
        # a skipped start keeps its number, so the best start's index counts it
        expected = {0: ([2, 3, 5, 7], 4), 2: ([1, 2], 3)}
        if seed in expected:
            assert (skipped, res.best_start_index) == expected[seed]

    def test_zero_load_degenerate_flags(self):
        w = ff.LoadSeries((0.0,) * 30)
        obs = ff.ObservationSet(((5, 500.0), (10, 500.0)))
        res = ff.fit_variant(w, obs, ff.ParamBounds(), ff.FitConfig(starts=4, seed=5))
        assert res.sse <= 1e-8
        assert "zero-load" in res.warnings
        assert "zero-variance-observations" in res.warnings
        assert math.isnan(res.r2)

    def test_underdetermined_flagged_but_fit_attempted(self, load_120, true_trajectory):
        obs = ff.ObservationSet(tuple((d, true_trajectory[d]) for d in (10, 40, 80)))
        res = ff.fit_variant(load_120, obs, recovery_bounds(), ff.FitConfig(starts=2, max_iterations=200, seed=1))
        assert "underdetermined" in res.warnings
        assert len(res.predicted) == 120

    def test_parameters_stay_inside_bounds(self, load_120):
        rng = np.random.default_rng(123)
        obs = ff.ObservationSet(
            tuple((int(d), float(rng.uniform(300, 900))) for d in range(3, 110, 9))
        )
        bounds = recovery_bounds()
        p = ff.fit_variant(load_120, obs, bounds, ff.FitConfig(starts=3, max_iterations=120, seed=3))
        assert bounds.p0[0] <= p.p0 <= bounds.p0[1]
        assert bounds.k1[0] <= p.k1 <= bounds.k1[1]
        assert bounds.k2[0] <= p.k2 <= bounds.k2[1]
        assert bounds.tau1[0] <= p.fitness.tau_decay <= bounds.tau1[1]
        assert bounds.tau2[0] <= p.fitness.tau_lag1 <= bounds.tau2[1]
        assert bounds.tau3[0] <= p.fatigue.tau_decay <= bounds.tau3[1]
        assert bounds.tau4[0] <= p.fatigue.tau_lag1 <= bounds.tau4[1]

    def test_fix_p0(self, load_120, clean_observations):
        config = ff.FitConfig(starts=6, seed=17, fix_p0=500.0)
        res = ff.fit_variant(load_120, clean_observations, recovery_bounds(), config)
        assert res.p0 == 500.0
        assert res.r2 >= 0.999

    @pytest.mark.parametrize("fix_p0", [480, np.float32(480.5)])
    def test_fixed_p0_of_any_real_type_fits_as_its_float(self, load_120, clean_observations,
                                                         fix_p0):
        # the fitted p0 is a float, so the params document writes it as one
        fits = [
            ff.fit_variant(load_120, clean_observations, ff.ParamBounds(),
                           ff.FitConfig(starts=1, max_iterations=40, fix_p0=p0), "classical")
            for p0 in (fix_p0, float(fix_p0))
        ]
        assert type(fits[0].p0) is float
        assert fits[0] == fits[1]
        assert dataio.dumps_params(fits[0]) == dataio.dumps_params(fits[1])

    def test_scale_equivariance(self, load_120, clean_observations):
        """Scaling observations and the p0/k1/k2 boxes by c scales the optimal
        SSE by c^2 and leaves the tau argmin untouched.

        The objective tolerance is measured in squared performance units, so
        it scales with c^2 as well; everything else is identical, making the
        two optimizer runs follow the same path up to rounding.
        """
        c = 2.0
        bounds = recovery_bounds()
        config = ff.FitConfig(starts=4, seed=21)
        base = ff.fit_variant(load_120, clean_observations, bounds, config)

        scaled_obs = ff.ObservationSet(
            tuple((d, c * y) for d, y in clean_observations.entries)
        )
        scaled_bounds = ff.ParamBounds(
            p0=(c * bounds.p0[0], c * bounds.p0[1]),
            k1=(c * bounds.k1[0], c * bounds.k1[1]),
            k2=(c * bounds.k2[0], c * bounds.k2[1]),
            tau1=bounds.tau1, tau2=bounds.tau2, tau3=bounds.tau3, tau4=bounds.tau4,
        )
        scaled_config = ff.FitConfig(
            starts=config.starts, max_iterations=config.max_iterations,
            tolerance=c * c * config.tolerance,
            simplex_tolerance=config.simplex_tolerance, seed=config.seed,
        )
        scaled = ff.fit_variant(load_120, scaled_obs, scaled_bounds, scaled_config)

        assert scaled.fitness.tau_decay == pytest.approx(
            base.fitness.tau_decay, rel=1e-6
        )
        assert scaled.fitness.tau_lag1 == pytest.approx(
            base.fitness.tau_lag1, rel=1e-6
        )
        assert scaled.fatigue.tau_decay == pytest.approx(
            base.fatigue.tau_decay, rel=1e-6
        )
        assert scaled.fatigue.tau_lag1 == pytest.approx(
            base.fatigue.tau_lag1, rel=1e-6
        )
        assert scaled.p0 == pytest.approx(c * base.p0, rel=1e-9)
        assert scaled.k1 == pytest.approx(c * base.k1, rel=1e-6)
        assert scaled.k2 == pytest.approx(c * base.k2, rel=1e-6)
        assert scaled.sse == pytest.approx(c * c * base.sse, rel=1e-3, abs=1e-15)

    def test_fit_rejects_unsupported_variants(self, load_120, clean_observations):
        with pytest.raises(ParameterError):
            ff.fit_variant(
                load_120, clean_observations, ff.ParamBounds(), ff.FitConfig(), "banana"
            )

    def test_observation_beyond_load_rejected(self, load_120):
        obs = ff.ObservationSet(((500, 100.0), (510, 120.0)))
        with pytest.raises(ObservationError):
            ff.fit_variant(load_120, obs, ff.ParamBounds(), ff.FitConfig(starts=1))


class TestPredict:
    def test_zero_load_is_baseline(self):
        w = ff.LoadSeries((0.0,) * 10)
        p = performance(w, fixture_params(), 10)
        assert p == (500.0,) * 10

    def test_symmetric_params_are_baseline(self):
        rng = np.random.default_rng(9)
        vals = [0.0] + [float(v) for v in rng.uniform(0, 50, size=19)]
        w = ff.LoadSeries(tuple(vals))
        side = ff.SingleDelayParams(20.0, 10.0)
        params = ff.ModelParams("single_delay", 430.0, 0.3, 0.3, side, side)
        assert all(v == 430.0 for v in performance(w, params, 20))

    def test_mismatched_sides_rejected(self, load_120):
        with pytest.raises(ParameterError):
            ff.predict_performance(
                "classical", 500.0, 0.1, 0.12,
                ff.ThreeDelayParams(20.0, 5.0, 7.0, 9.0), ff.KernelParams(5.0, 0.3),
                load_120, 31,
            )

    def test_invalid_baseline_and_gain_rejected(self, load_120):
        side = ff.SingleDelayParams(20.0, 10.0)
        with pytest.raises(ParameterError):
            ff.predict_performance("single_delay", math.nan, 0.1, 0.12, side, side, load_120, 31)
        with pytest.raises(ParameterError):
            ff.predict_performance("single_delay", 500.0, -1.0, 0.12, side, side, load_120, 31)


# The performance kernel each variant runs; classical runs the no-lag pass and
# kernel three_delay's, at its lag rates -(w_j * tau5).
KERNEL_OF = {
    "classical": "no_lag_performance",
    "single_delay": "single_delay_performance",
    "three_delay": "three_delay_performance",
    "kernel": "three_delay_performance",
}


@pytest.fixture()
def kernel_horizons(monkeypatch) -> dict[str, list[int]]:
    """The horizon of every performance-kernel call made through the models globals.

    A call that reaches a kernel through a reference captured at import (a
    default argument, a module-level alias) bypasses the wrapper and is not
    recorded.
    """
    seen: dict[str, list[int]] = {name: [] for name in set(KERNEL_OF.values())}
    for name, horizons in seen.items():
        def counting(*args, _real=getattr(models, name), _horizons=horizons):
            _horizons.append(args[-1])
            return _real(*args)

        monkeypatch.setattr(models, name, counting)
    return seen


class TestPerformanceKernelBoundary:
    """Forecasts and fit objectives run the fused kernels by their module names."""

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_predict_performance_is_one_kernel_call(self, variant, kernel_horizons, load_120):
        fitness, fatigue = EXAMPLE_SIDES[variant]
        ff.predict_performance(variant, 500.0, 0.1, 0.12, fitness, fatigue, load_120, 60)
        expected = {name: [] for name in kernel_horizons}
        expected[KERNEL_OF[variant]] = [60]
        assert kernel_horizons == expected

    @pytest.mark.parametrize("variant", models.VARIANTS)
    def test_fit_objective_and_prediction_run_the_kernel(self, variant, kernel_horizons):
        w = block_load(60)
        obs = ff.ObservationSet(((5, 498.5), (11, 510.7), (17, 505.0)))
        config = ff.FitConfig(starts=1, max_iterations=5, seed=0)
        ff.fit_variant(w, obs, recovery_bounds(), config, variant)
        horizons = kernel_horizons.pop(KERNEL_OF[variant])
        # every objective evaluation up to the last observation, then the
        # fitted prediction over the whole load
        assert len(horizons) > 2
        assert set(horizons[:-1]) == {18}
        assert horizons[-1] == 60
        assert not any(kernel_horizons.values())


class TestVariantFits:
    def test_kernel_variant_fit_runs(self, load_120):
        # data generated by a kernel-state performance model
        side_f = ff.KernelParams(40.0, -0.1)
        side_h = ff.KernelParams(12.0, -0.2)
        p = ff.predict_performance("kernel", 500.0, 0.1, 0.12, side_f, side_h, load_120, 120)
        obs = ff.ObservationSet(tuple((d, p[d]) for d in range(5, 120, 8)))
        bounds = recovery_bounds()
        res = ff.fit_variant(load_120, obs, bounds, ff.FitConfig(starts=4, seed=2), "kernel")
        assert res.variant == "kernel"
        assert isinstance(res.fitness, ff.KernelParams)
        assert res.r2 > 0.95
        assert res.n_free == 7

    def test_three_delay_variant_parameter_count(self, load_120, clean_observations):
        res = ff.fit_variant(
            load_120, clean_observations, recovery_bounds(),
            ff.FitConfig(starts=2, max_iterations=150, seed=4), "three_delay",
        )
        assert res.n_free == 11
        assert isinstance(res.fitness, ff.ThreeDelayParams)

    def test_compare_orders_variants_and_is_deterministic(self, load_120, clean_observations):
        config = ff.FitConfig(starts=2, max_iterations=200, seed=6)
        a = ff.compare_variants(load_120, clean_observations, recovery_bounds(), config)
        b = ff.compare_variants(load_120, clean_observations, recovery_bounds(), config)
        assert [r.variant for r in a] == ["classical", "single_delay", "three_delay", "kernel"]
        assert a == b

    def test_richer_variants_never_lose_to_classical(self, load_120):
        # classical-generated truth; the classical embedding seeds the rest
        truth = ff.ModelParams(
            "single_delay", 400.0, 0.15, 0.20,
            ff.SingleDelayParams(40.0), ff.SingleDelayParams(12.0),
        )
        p = performance(load_120, truth, 120)
        obs = ff.ObservationSet(tuple((d, p[d]) for d in range(5, 120, 6)))
        bounds = ff.ParamBounds(
            p0=(200.0, 600.0), k1=(0.005, 2.0), k2=(0.005, 2.0),
            tau1=(5.0, 150.0), tau2=(2.0, 1e12), tau3=(2.0, 150.0), tau4=(2.0, 1e12),
        )
        results = ff.compare_variants(load_120, obs, bounds, ff.FitConfig(starts=2, seed=8))
        classical_sse = results[0].sse
        for r in results[1:]:
            assert r.sse <= classical_sse + 1e-9

    def test_compare_seeds_three_delay_from_damping_kernel_fit(self, load_120):
        # kernel-generated data with tau5 < 0 on both sides: the kernel fit
        # lands there too, so compare_variants maps it onto three-delay lags
        side_f = ff.KernelParams(40.0, -0.1)
        side_h = ff.KernelParams(12.0, -0.2)
        p = ff.predict_performance("kernel", 500.0, 0.1, 0.12, side_f, side_h, load_120, 120)
        obs = ff.ObservationSet(tuple((d, p[d]) for d in range(5, 120, 8)))
        results = ff.compare_variants(
            load_120, obs, recovery_bounds(), ff.FitConfig(starts=2, seed=0)
        )
        by_name = {r.variant: r for r in results}
        kernel = by_name["kernel"]
        assert kernel.fitness.tau5 < 0.0
        assert kernel.fatigue.tau5 < 0.0
        # kernel_to_three_delay is exact, so the seeded three-delay fit
        # cannot end worse than the kernel fit it starts from
        assert by_name["three_delay"].sse <= kernel.sse + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_classical_seed_embeds_into_kernel_up_to_the_box_rounding(self, seed):
        # tau5 = 0 is the classical reduction, but each value goes through the
        # box transform and back; on the bundled data the SSE moved by at most
        # 3.6e-12 (2.0e-14 relative) over these seeds
        w = dataio.parse_load_csv((DATA / "load.csv").read_text())
        obs = dataio.parse_performance_csv((DATA / "performance.csv").read_text())
        bounds = dataio.load_config((DATA / "config.yaml").read_text()).bounds
        config = ff.FitConfig(starts=1, max_iterations=300, seed=seed)
        classical = ff.fit_variant(w, obs, bounds, config, "classical")
        problem = estimation._FitProblem(models.variant_row("kernel"), w, obs, bounds, None)
        assert problem.sse(problem.embed(classical)) == pytest.approx(classical.sse, rel=1e-12)

    def test_compare_with_fixed_p0_keeps_its_seeds(self, load_120, clean_observations):
        config = ff.FitConfig(starts=1, max_iterations=200, seed=0, fix_p0=500.0)
        args = (load_120, clean_observations, recovery_bounds(), config)
        results = ff.compare_variants(*args)
        by_name = {r.variant: r for r in results}
        classical, kernel = by_name["classical"], by_name["kernel"]
        assert all(r.p0 == 500.0 for r in results)
        # the classical seed maps to a search point without p0 and is start 0
        assert kernel == ff.fit_variant(*args, "kernel", extra_starts=[classical])
        assert kernel != ff.fit_variant(*args, "kernel")
        assert kernel.best_start_index == 0
        assert kernel.sse <= classical.sse * (1.0 + 1e-12)

    def test_seed_without_box_representation_is_dropped(self, load_120, clean_observations):
        # a positive kernel gain maps to negative lags, outside the lag box
        seed = ff.ModelParams(
            "kernel", 500.0, 0.1, 0.12, ff.KernelParams(40.0, 0.1), ff.KernelParams(12.0, -0.2)
        )
        config = ff.FitConfig(starts=1, max_iterations=100, seed=3)
        args = (load_120, clean_observations, recovery_bounds(), config, "three_delay")
        assert ff.fit_variant(*args, extra_starts=[seed]) == ff.fit_variant(*args)

    def test_seed_with_negative_lag_is_dropped(self, load_120, clean_observations):
        # ThreeDelayParams accepts a negative lag; no log box holds one
        seed = ff.ModelParams(
            "three_delay", 500.0, 0.1, 0.12,
            ff.ThreeDelayParams(40.0, -40.0), ff.ThreeDelayParams(9.0, 20.0),
        )
        config = ff.FitConfig(starts=1, max_iterations=50)
        args = (load_120, clean_observations, ff.ParamBounds(), config, "three_delay")
        assert ff.fit_variant(*args, extra_starts=[seed]) == ff.fit_variant(*args)

    def test_seed_field_the_fit_does_not_search_must_be_its_held_value(
        self, load_120, clean_observations
    ):
        # a field the fitted variant does not search is held at +inf for a lag
        # it lacks and at the default weights for a kernel side; a seed that
        # sets it to anything else is refused, not cut down to the fitted fields
        def embed(variant, seed):
            row = models.variant_row(variant)
            args = (load_120, clean_observations, ff.ParamBounds(), None)
            return estimation._FitProblem(row, *args).embed(seed)

        lags = ff.ModelParams("three_delay", 500.0, 0.1, 0.12,
                              ff.ThreeDelayParams(45.0, 20.0, 3.0, 4.0),
                              ff.ThreeDelayParams(15.0, 10.0, 5.0, 6.0))
        config = ff.FitConfig(starts=1, max_iterations=50)
        message = "^seed fitness tau_lag2 is 3.0, which a single_delay fit does not search$"
        with pytest.raises(ParameterError, match=message):
            ff.fit_variant(load_120, clean_observations, ff.ParamBounds(), config,
                           "single_delay", extra_starts=[lags])
        message = "^seed fitness tau_lag1 is 20.0, which a classical fit does not search$"
        with pytest.raises(ParameterError, match=message):
            embed("classical", lags)
        weights = ff.ModelParams("kernel", 500.0, 0.1, 0.12, ff.KernelParams(45.0, -0.1),
                                 ff.KernelParams(15.0, -0.1, (0.6, 0.3, 0.1)))
        message = r"^seed fatigue weights is \(0.6, 0.3, 0.1\), which a kernel fit does not search$"
        with pytest.raises(ParameterError, match=message):
            embed("kernel", weights)
        # the held values are accepted, as the seed of the contained variant
        single = ff.ModelParams("single_delay", 500.0, 0.1, 0.12, ff.SingleDelayParams(45.0, 20.0),
                                ff.SingleDelayParams(15.0, 10.0))
        held = ff.ModelParams("three_delay", 500.0, 0.1, 0.12, ff.ThreeDelayParams(45.0, 20.0),
                              ff.ThreeDelayParams(15.0, 10.0))
        assert embed("single_delay", held) == embed("single_delay", single)
        default = ff.ModelParams("kernel", 500.0, 0.1, 0.12, ff.KernelParams(45.0, -0.1),
                                 ff.KernelParams(15.0, -0.1, (0.5, 0.3, 0.2)))
        assert embed("kernel", default) is not None
        # a kernel side seeds three_delay through its lags, whatever its weights
        assert embed("three_delay", weights) is not None

    def test_equal_seeds_pick_the_first(self, load_120, clean_observations):
        config = ff.FitConfig(starts=2, max_iterations=400, seed=3)
        args = (load_120, clean_observations, recovery_bounds(), config, "classical")
        fit = ff.fit_variant(*args)
        refit = ff.fit_variant(*args, extra_starts=[fit, fit])
        # both seeds end at the same SSE; the lower start index wins the tie
        assert refit.best_start_index == 0
        assert refit.starts_converged == 2
        assert refit.sse == pytest.approx(1.8066981146484171, rel=1e-9)

    def test_kernel_seeded_with_classical_fit_is_no_worse(self, load_120, clean_observations):
        config = ff.FitConfig(starts=1, max_iterations=200, seed=5)
        args = (load_120, clean_observations, recovery_bounds(), config)
        classical = ff.fit_variant(*args, "classical")
        kernel = ff.fit_variant(*args, "kernel", extra_starts=[classical])
        # exact at tau5 = 0 up to the rounding of the coordinate round trip
        assert kernel.best_start_index == 0
        assert kernel.sse <= classical.sse + 1e-9


@pytest.mark.parametrize("module", [models, estimation], ids=lambda m: m.__name__)
def test_public_annotations_resolve(module):
    # annotations are strings (postponed evaluation); each must name something
    # the module binds at run time
    public = [
        obj for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert public
    for obj in public:
        typing.get_type_hints(obj)
