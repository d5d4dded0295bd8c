"""Model-core tests: frozen oracle values, reductions, invariants."""

from __future__ import annotations

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ffdelay as ff
from ffdelay.dataio import (
    ChartOptions, PredictionRow, PredictionTable, RunConfig, build_prediction_table,
    format_number, parse_prediction_csv,
)
from ffdelay.errors import (
    ConfigError, CsvError, ObservationError, ParameterError, SeriesLengthError,
)
from ffdelay.models import _Record, _field_dict, _field_values
from helpers import (
    block_load,
    performance,
    random_kernel,
    random_load,
    random_single_delay,
    random_three_delay,
    sup_rel_diff,
)

E1 = math.exp(-1.0)

# Frozen by independent scalar unrolling of the recursion (and cross-checked
# against the history-sum form before anything here was implemented).
SINGLE_DELAY_EXPECTED = (
    0.0,
    0.0,
    0.36787944117144233,
    0.1353352832366127,
    -0.017880573250442403,
)
THREE_DELAY_EXPECTED = (
    0.0,
    0.0,
    0.36787944117144233,
    0.1353352832366127,
    -0.017880573250442403,
    -0.07658319055800066,
)


def unit_impulse(n: int, at: int) -> ff.LoadSeries:
    vals = [0.0] * n
    vals[at] = 1.0
    return ff.LoadSeries(tuple(vals))


FO_SIDE = ff.FirstOrderParams(3.0)


# ---------------------------------------------------------------------------
# Domain type validation
# ---------------------------------------------------------------------------


class TestDomainTypes:
    def test_load_series_rejects_nonzero_day0(self):
        with pytest.raises(ParameterError):
            ff.LoadSeries((1.0, 2.0))

    def test_load_series_rejects_negative(self):
        with pytest.raises(ParameterError):
            ff.LoadSeries((0.0, -1.0))

    def test_load_series_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            ff.LoadSeries((0.0, math.inf))
        with pytest.raises(ParameterError):
            ff.LoadSeries((0.0, math.nan))

    def test_load_series_rejects_empty(self):
        with pytest.raises(ParameterError):
            ff.LoadSeries(())

    def test_state_series_requires_zero_start(self):
        with pytest.raises(ParameterError):
            ff.StateSeries((1.0, 0.0))

    def test_state_series_names_first_non_finite_day(self):
        with pytest.raises(ParameterError, match=r"^state at day 2 is not finite: nan$"):
            ff.StateSeries((0.0, 1.0, math.nan, math.inf))

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_decay_constant_domain(self, tau):
        with pytest.raises(ParameterError):
            ff.FirstOrderParams(tau)

    def test_single_delay_lag_domain(self):
        ff.SingleDelayParams(2.0, math.inf)  # sentinel is fine
        with pytest.raises(ParameterError):
            ff.SingleDelayParams(2.0, 0.0)
        with pytest.raises(ParameterError):
            ff.SingleDelayParams(2.0, -3.0)

    def test_three_delay_allows_negative_lags(self):
        # needed so the kernel mapping can return its tau5 > 0 result verbatim
        ff.ThreeDelayParams(1.0, -4.0, -6.0, -10.0)
        with pytest.raises(ParameterError):
            ff.ThreeDelayParams(1.0, 0.0)

    def test_kernel_weight_domain(self):
        with pytest.raises(ParameterError):
            ff.KernelParams(1.0, -0.5, (0.5, 0.5, 0.2))  # sum != 1
        with pytest.raises(ParameterError):
            ff.KernelParams(1.0, -0.5, (1.0, 0.0, 0.0))  # not in (0,1)
        with pytest.raises(ParameterError):
            ff.KernelParams(1.0, math.nan)

    def test_performance_params_domain(self):
        side = ff.SingleDelayParams(10.0)
        with pytest.raises(ParameterError):
            ff.ModelParams("single_delay", 0.0, -0.1, 0.1, side, side)
        with pytest.raises(ParameterError):
            ff.ModelParams("single_delay", math.inf, 0.1, 0.1, side, side)

    @pytest.mark.parametrize("name, make", [
        ("tau_decay", lambda: ff.SingleDelayParams("a")),
        ("tau_decay", lambda: ff.FirstOrderParams(None)),
        ("tau_decay", lambda: ff.SingleDelayParams(True)),
        ("tau_lag1", lambda: ff.SingleDelayParams(30.0, "inf")),
        ("tau_lag2", lambda: ff.ThreeDelayParams(30.0, 5.0, False)),
        ("tau5", lambda: ff.KernelParams(30.0, "x")),
        ("p0", lambda: ff.ModelParams("classical", True, 0.1, 0.1, FO_SIDE, FO_SIDE)),
        ("k1", lambda: ff.ModelParams("classical", 500.0, "0.1", 0.1, FO_SIDE, FO_SIDE)),
        ("k2", lambda: ff.ModelParams("classical", 500.0, 0.1, None, FO_SIDE, FO_SIDE)),
    ], ids=["str-decay", "none-decay", "bool-decay", "str-lag1", "bool-lag2", "str-tau5",
            "bool-p0", "str-k1", "none-k2"])
    def test_parameters_must_be_real_numbers(self, name, make):
        with pytest.raises(ParameterError, match=f"^{name} must be a real number, got "):
            make()

    def test_real_numbers_of_any_type_are_stored_unchanged(self):
        side = ff.SingleDelayParams(np.float64(30.0), np.int64(5))
        assert type(side.tau_decay) is np.float64 and type(side.tau_lag1) is np.int64
        params = ff.ModelParams("classical", 500, np.float32(0.25), 0.1, FO_SIDE, FO_SIDE)
        assert repr(params.p0) == "500" and type(params.k1) is np.float32


# One rule per kind of value, each raising its record's error and naming the value
@pytest.mark.parametrize("make, error, message", [
    (lambda: ff.LoadSeries((0, "1")), ParameterError, "load[1] must be a real number, got '1'"),
    (lambda: ff.LoadSeries((0, True)), ParameterError, "load[1] must be a real number, got True"),
    (lambda: ff.LoadSeries(5), ParameterError, "load must be a sequence of real numbers, got 5"),
    (lambda: ff.StateSeries((0.0, "1")), ParameterError,
     "state[1] must be a real number, got '1'"),
    (lambda: ff.KernelParams(30.0, -0.1, 5.0), ParameterError,
     "weights must be a sequence of real numbers, got 5.0"),
    (lambda: ff.KernelParams(30.0, -0.1, ("a", 0.3, 0.2)), ParameterError,
     "weights[0] must be a real number, got 'a'"),
    (lambda: ff.KernelParams(30.0, -0.1, (0.5, None, 0.2)), ParameterError,
     "weights[1] must be a real number, got None"),
    (lambda: ff.KernelParams(30.0, -0.1, "0.5"), ParameterError,
     "weights must be a sequence of real numbers, got '0.5'"),
    # a mapping or a set is no sequence: its keys, in no given order, are not its values
    (lambda: ff.LoadSeries({0: 0.0, 1: 5.0, 2: 3.0}), ParameterError,
     "load must be a sequence of real numbers, got {0: 0.0, 1: 5.0, 2: 3.0}"),
    (lambda: ff.LoadSeries({0.0, 7.0, 3.0}), ParameterError,
     f"load must be a sequence of real numbers, got {({0.0, 7.0, 3.0})!r}"),
    (lambda: ff.KernelParams(30.0, -0.1, frozenset((0.5, 0.3, 0.2))), ParameterError,
     f"weights must be a sequence of real numbers, got {frozenset((0.5, 0.3, 0.2))!r}"),
    (lambda: ff.ParamBounds(k1={0.5: "a", 2.0: "b"}), ParameterError,
     "bounds for k1 must be two numbers, got {0.5: 'a', 2.0: 'b'}"),
    (lambda: build_prediction_table(ff.LoadSeries((0.0, 1.0)), ("1",)), ParameterError,
     "predicted[0] must be a real number, got '1'"),
    (lambda: ff.ObservationSet(((1, "500"),)), ObservationError,
     "observation at day 1 must be a real number, got '500'"),
    (lambda: ff.ObservationSet(((1, True),)), ObservationError,
     "observation at day 1 must be a real number, got True"),
    (lambda: ff.ObservationSet(((3.0, 1.0),)), ObservationError,
     "observation day must be an integer, got 3.0"),
    (lambda: RunConfig(horizon=2.5), ConfigError, "horizon must be an integer, got 2.5"),
    (lambda: RunConfig(horizon="3"), ConfigError, "horizon must be an integer, got '3'"),
    (lambda: ChartOptions(title=5), ConfigError, "title must be a string, got 5"),
    (lambda: ChartOptions(title=b"x"), ConfigError, "title must be a string, got b'x'"),
    # a character XML 1.0 cannot carry: the first one is named
    (lambda: ChartOptions(title="a\x01b\x02"), ConfigError, "title must not contain U+0001"),
    (lambda: ChartOptions(title="a\ud800b"), ConfigError, "title must not contain U+D800"),
    # a Python int beyond the double range is not a real number of any record
    (lambda: ff.LoadSeries((0, 10**400)), ParameterError,
     "load[1] must be a real number within the double range"),
    (lambda: ff.StateSeries((0.0, 10**400)), ParameterError,
     "state[1] must be a real number within the double range"),
    (lambda: ff.FirstOrderParams(10**400), ParameterError,
     "tau_decay must be a real number within the double range"),
    (lambda: ff.SingleDelayParams(5.0, 10**400), ParameterError,
     "tau_lag1 must be a real number within the double range"),
    (lambda: ff.ThreeDelayParams(5.0, 10**400), ParameterError,
     "tau_lag1 must be a real number within the double range"),
    (lambda: ff.KernelParams(5.0, 10**400), ParameterError,
     "tau5 must be a real number within the double range"),
    (lambda: ff.KernelParams(5.0, -0.1, (0.5, 10**400, 0.2)), ParameterError,
     "weights[1] must be a real number within the double range"),
    (lambda: ff.ModelParams("classical", 10**400, 0.1, 0.1, FO_SIDE, FO_SIDE), ParameterError,
     "p0 must be a real number within the double range"),
    (lambda: ff.ObservationSet(((1, 10**400),)), ObservationError,
     "observation at day 1 must be a real number within the double range"),
    (lambda: ff.ObservationSet(((1, 10**5000),)), ObservationError,
     "observation at day 1 must be a real number within the double range"),
    (lambda: ff.ParamBounds(p0=(0, 10**400)), ParameterError,
     f"bounds for p0 must be two numbers, got {(0, 10**400)!r}"),
    (lambda: ff.FitConfig(fix_p0=10**400), ParameterError,
     "fix_p0 must be a real number within the double range"),
    (lambda: ChartOptions(width=10**400), ConfigError,
     "width must be a real number within the double range"),
    (lambda: build_prediction_table(ff.LoadSeries((0.0, 1.0)), (10**400,)), ParameterError,
     "predicted[0] must be a real number within the double range"),
    # observations are (day, value) pairs; a string is one value, not a pair
    (lambda: ff.ObservationSet(5), ObservationError,
     "observations must be (day, value) pairs, got 5"),
    (lambda: ff.ObservationSet((3,)), ObservationError,
     "observations must be (day, value) pairs, got 3"),
    (lambda: ff.ObservationSet(((1,),)), ObservationError,
     "observations must be (day, value) pairs, got (1,)"),
    (lambda: ff.ObservationSet(((1, 2.0, 3),)), ObservationError,
     "observations must be (day, value) pairs, got (1, 2.0, 3)"),
    (lambda: ff.ObservationSet(("ab",)), ObservationError,
     "observations must be (day, value) pairs, got 'ab'"),
    # the range rules' messages
    (lambda: ff.FitConfig(seed=-1), ParameterError, "seed must be >= 0, got -1"),
    (lambda: ff.ObservationSet(((4, math.nan),)), ObservationError,
     "observation at day 4 must be finite, got nan"),
    (lambda: ff.LoadSeries((1.0, 2.0)), ParameterError, "load at day 0 must be 0, got 1.0"),
    (lambda: ff.StateSeries((1.0, 0.0)), ParameterError,
     "state at day 0 must be 0, got 1.0"),
    (lambda: ff.LoadSeries((0.0, -1.0, math.inf)), ParameterError,
     "load at day 2 is not finite: inf"),
    # a value holding an int of more digits than Python prints is named by its type
    (lambda: ff.ParamBounds(p0=(0, 10**5000)), ParameterError,
     "bounds for p0 must be two numbers, got <tuple too large to print>"),
    (lambda: ff.FitConfig(seed=-10**5000), ParameterError,
     "seed must be >= 0, got <int too large to print>"),
    (lambda: ff.FitConfig(max_iterations=-10**5000), ParameterError,
     "max_iterations must be >= 1, got <int too large to print>"),
    (lambda: ff.ObservationSet(((-10**5000, 1.0),)), ObservationError,
     "observation day must be >= 0, got <int too large to print>"),
    (lambda: ff.ObservationSet(((10**5000, 1.0), (10**5000, 2.0))), ObservationError,
     "duplicate observation day <int too large to print>"),
    (lambda: RunConfig(horizon=-10**5000), ConfigError,
     "horizon must be >= 1, got <int too large to print>"),
    (lambda: ff.predict_performance("classical", 500.0, 0.1, 0.12, FO_SIDE, FO_SIDE,
                                    ff.LoadSeries((0.0, 1.0)), 10**5000), SeriesLengthError,
     "horizon <int too large to print> exceeds load series length 2"),
    (lambda: ff.eval_single_delay_recursive(
        ff.LoadSeries((0.0, 1.0)), ff.SingleDelayParams(3.0), 10**5000), SeriesLengthError,
     "horizon <int too large to print> exceeds load series length 2"),
    (lambda: ff.integrate_single_delay(
        ff.StepLoad(ff.LoadSeries((0.0, 1.0))), ff.SingleDelayParams(3.0), 10**5000, 1),
     SeriesLengthError, "days <int too large to print> exceeds load series length 2"),
    (lambda: PredictionTable((PredictionRow(10**5000, 0.0, 0.0, None),)), ParameterError,
     "days must be contiguous from 0; row 0 has day <int too large to print>"),
    (lambda: ff.r_squared([500.0, 501.0], ff.ObservationSet(((10**5000, 1.0),))),
     ObservationError, "observation day <int too large to print> is outside the horizon 2"),
    (lambda: ff.LoadSeries(10**5000), ParameterError,
     "load must be a sequence of real numbers, got <int too large to print>"),
    # a real a double holds, whose terms are too long to print
    (lambda: ff.FirstOrderParams(Fraction(-(10**5000 + 1), 10**4999)), ParameterError,
     "tau_decay must be finite and > 0, got <Fraction too large to print>"),
    # the oracle's records
    (lambda: ff.StepLoad(5), ParameterError, "daily must be a LoadSeries, got int"),
    (lambda: ff.GridSolution(1, ()), ParameterError, "grid solution must start at 0"),
    # the remaining library checks
    (lambda: format_number(math.inf), ParameterError, "cannot format non-finite value inf"),
    (lambda: parse_prediction_csv("day,load,predicted,observed\n0,0,500,,1\n"), CsvError,
     "line 2: expected 4 fields (day,load,predicted,observed), got 5"),
    (lambda: ff.ObservationSet(()), ObservationError, "observation set must not be empty"),
    (lambda: ff.ParamBounds(p0=(0.0, math.inf)), ParameterError,
     "bounds for p0 must be finite, got (0.0, inf)"),
    # a linear box whose width hi - lo is beyond a double
    (lambda: ff.ParamBounds(p0=(-1.7e308, 1.7e308)), ParameterError,
     "bounds for p0 are too far apart, got (-1.7e+308, 1.7e+308)"),
    (lambda: ff.ParamBounds(tau5=(-1e308, 1e308)), ParameterError,
     "bounds for tau5 are too far apart, got (-1e+308, 1e+308)"),
    (lambda: ff.r_squared([1.0, 2.0], ff.ObservationSet(((0, 1.0), (5, 2.0)))),
     ObservationError, "observation day 5 is outside the horizon 2"),
    (lambda: ff.nelder_mead(lambda x: 0.0, [], ff.FitConfig()), ParameterError,
     "start vector must be non-empty"),
    (lambda: ff.KernelParams(5.0, 0.1, (0.5, 0.5)), ParameterError,
     "weights must be a triple (lag-1, lag-2, lag-3)"),
    # a lag constant whose rate 1/tau is beyond a double
    (lambda: ff.SingleDelayParams(5.0, 5e-324), ParameterError,
     "tau_lag1 is too small: its lag rate 1/tau_lag1 overflows, got 5e-324"),
    (lambda: ff.ThreeDelayParams(5.0, 6.0, -5e-324, 7.0), ParameterError,
     "tau_lag2 is too small: its lag rate 1/tau_lag2 overflows, got -5e-324"),
    (lambda: ff.SingleDelayParams(5.0, Fraction(1, 2**1100)), ParameterError,
     f"tau_lag1 is too small: its lag rate 1/tau_lag1 overflows, got {Fraction(1, 2**1100)!r}"),
], ids=["str-load", "bool-load", "int-load", "str-state", "float-weights", "str-weight",
        "none-weight", "str-weights", "mapping-load", "set-load", "set-weights",
        "mapping-bound", "str-predicted", "str-observation", "bool-observation",
        "float-day", "float-horizon", "str-horizon", "int-title", "bytes-title",
        "control-title", "surrogate-title",
        "huge-load", "huge-state", "huge-decay", "huge-lag", "huge-three-delay-lag",
        "huge-tau5", "huge-weight", "huge-p0", "huge-observation", "huge-digits-observation",
        "huge-bound", "huge-fix-p0", "huge-chart-width", "huge-predicted",
        "int-observations", "int-entry", "short-entry", "long-entry", "str-entry",
        "negative-seed", "nan-observation", "nonzero-load-day0", "nonzero-state-day0",
        "non-finite-before-negative-load", "huge-digits-bound", "huge-digits-seed",
        "huge-digits-max-iterations", "huge-digits-day", "huge-digits-duplicate-day",
        "huge-digits-run-horizon", "huge-digits-forecast-horizon", "huge-digits-path-horizon",
        "huge-digits-oracle-days", "huge-digits-table-day", "huge-digits-observed-day",
        "huge-digits-load", "huge-digits-fraction", "int-step-load", "empty-grid-solution",
        "non-finite-number", "five-field-prediction-row", "empty-observations",
        "infinite-bound", "too-wide-p0-bound", "too-wide-tau5-bound",
        "observation-beyond-prediction", "empty-start", "two-weights",
        "overflowing-lag-rate", "overflowing-negative-lag-rate", "lag-fraction-rounding-to-zero"])
def test_each_record_rejects_a_wrong_value_with_its_own_error(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_numpy_scalars_are_numbers():
    obs = ff.ObservationSet(((np.int64(3), np.float32(1.5)),))
    assert obs.entries == ((3, 1.5),) and type(obs.entries[0][0]) is int
    w = ff.LoadSeries((np.float32(0.0), np.float32(0.1)))
    assert w.values == (0.0, float(np.float32(0.1))) and type(w.values[1]) is float
    kp = ff.KernelParams(30.0, -0.1, tuple(map(np.float32, (0.5, 0.25, 0.25))))
    assert kp.weights == (0.5, 0.25, 0.25) and type(kp.weights[0]) is float
    assert RunConfig(horizon=np.int64(90)).horizon == 90


def test_a_load_or_weights_iterator_is_read_once():
    assert ff.LoadSeries(iter((0, 2.5))).values == (0.0, 2.5)
    assert ff.KernelParams(30.0, -0.1, iter((0.5, 0.25, 0.25))).weights == (0.5, 0.25, 0.25)


SIDE_LOAD = ff.LoadSeries((0.0, 10.0, 0.0, 5.0, 0.0, 0.0, 3.0, 0.0))
# each single-side function: the variant whose side it takes, and a call on a side
SIDE_FUNCTIONS = {
    "eval_classical": ("classical", lambda side: ff.eval_classical(SIDE_LOAD, side, 8)),
    "eval_single_delay_recursive": (
        "single_delay", lambda side: ff.eval_single_delay_recursive(SIDE_LOAD, side, 8)),
    "eval_single_delay_convolution": (
        "single_delay", lambda side: ff.eval_single_delay_convolution(SIDE_LOAD, side, 8)),
    "eval_three_delay_recursive": (
        "three_delay", lambda side: ff.eval_three_delay_recursive(SIDE_LOAD, side, 8)),
    "eval_three_delay_convolution": (
        "three_delay", lambda side: ff.eval_three_delay_convolution(SIDE_LOAD, side, 8)),
    "eval_kernel_recursive": ("kernel", lambda side: ff.eval_kernel_recursive(SIDE_LOAD, side, 8)),
    "kernel_to_three_delay": ("kernel", ff.kernel_to_three_delay),
    "integrate_single_delay": (
        "single_delay", lambda side: ff.integrate_single_delay(ff.StepLoad(SIDE_LOAD), side, 7, 1)),
    "integrate_three_delay": (
        "three_delay", lambda side: ff.integrate_three_delay(ff.StepLoad(SIDE_LOAD), side, 7, 1)),
}
SIDE_OF = {
    "classical": ff.FirstOrderParams(45.0),
    "single_delay": ff.SingleDelayParams(45.0, 20.0),
    "three_delay": ff.ThreeDelayParams(45.0, 20.0, 30.0, 40.0),
    "kernel": ff.KernelParams(45.0, -0.1),
}


@pytest.mark.parametrize("function, other", [
    (function, other) for function, (variant, _) in SIDE_FUNCTIONS.items()
    for other in SIDE_OF if other != variant
])
def test_single_side_functions_reject_another_variants_side(function, other):
    # a side of another variant was a bare TypeError, or a silently wrong path:
    # a three_delay side ran as single_delay with lags 2 and 3 dropped
    variant, call = SIDE_FUNCTIONS[function]
    call(SIDE_OF[variant])
    message = (f"^{variant} params must be {type(SIDE_OF[variant]).__name__}, "
               f"got {type(SIDE_OF[other]).__name__}$")
    with pytest.raises(ParameterError, match=message):
        call(SIDE_OF[other])


# each history-sum route, a side whose state leaves the double range on its load,
# and the recursion that runs the same side (single-delay at +inf lag: classical)
UNSTABLE = {
    "eval_classical": (ff.eval_classical, ff.FirstOrderParams(45.0),
                       ff.eval_single_delay_recursive, ff.SingleDelayParams(45.0),
                       ff.LoadSeries((0.0,) + (1e308,) * 9)),
    "eval_single_delay_convolution": (ff.eval_single_delay_convolution,
                                      ff.SingleDelayParams(45.0, 0.2),
                                      ff.eval_single_delay_recursive,
                                      ff.SingleDelayParams(45.0, 0.2), block_load(1500)),
    "eval_three_delay_convolution": (ff.eval_three_delay_convolution,
                                     ff.ThreeDelayParams(45.0, 0.5, 0.5, 0.5),
                                     ff.eval_three_delay_recursive,
                                     ff.ThreeDelayParams(45.0, 0.5, 0.5, 0.5), block_load(1500)),
}


@pytest.mark.parametrize("route", UNSTABLE)
def test_history_sum_routes_refuse_a_state_beyond_the_doubles_as_the_recursions_do(route):
    # they emitted numpy's RuntimeWarning ("overflow"/"invalid value encountered in dot")
    history_sum, side, recursion, same_side, w = UNSTABLE[route]
    with pytest.raises(ParameterError, match="is not finite") as expected:
        recursion(w, same_side, len(w))
    with pytest.raises(ParameterError, match=f"^{re.escape(str(expected.value))}$"):
        history_sum(w, side, len(w))


# ---------------------------------------------------------------------------
# Value types: construction, repr, equality, hashing, immutability
# ---------------------------------------------------------------------------


def _variant_fit(**changes) -> ff.VariantFit:
    values = dict(
        variant="classical", p0=500.0, k1=0.1, k2=0.12,
        fitness=ff.FirstOrderParams(40.0), fatigue=ff.FirstOrderParams(9.0),
        n_free=5, sse=1.5, r2=0.875, predicted=(500.0, 500.5), starts_converged=2,
        best_start_index=1, iterations_used=300,
    )
    return ff.VariantFit(**{**values, **changes})


# One instance of each side class, the params type, the fit settings and a
# fit result, with the repr each printed as a dataclass.
GOLDEN_REPRS = [
    (lambda: ff.FirstOrderParams(40.0), "FirstOrderParams(tau_decay=40.0)"),
    (lambda: ff.SingleDelayParams(45.0, 20.0), "SingleDelayParams(tau_decay=45.0, tau_lag1=20.0)"),
    (
        lambda: ff.ThreeDelayParams(30.0, 12.0, math.inf, -8.5),
        "ThreeDelayParams(tau_decay=30.0, tau_lag1=12.0, tau_lag2=inf, tau_lag3=-8.5)",
    ),
    (
        lambda: ff.KernelParams(25.0, -0.125),
        "KernelParams(tau_decay=25.0, tau5=-0.125, weights=(0.5, 0.3, 0.2))",
    ),
    (
        lambda: ff.ModelParams(
            "single_delay", 500.0, 0.1, 0.12,
            ff.SingleDelayParams(45.0), ff.SingleDelayParams(15.0, 10.0),
        ),
        "ModelParams(variant='single_delay', p0=500.0, k1=0.1, k2=0.12, "
        "fitness=SingleDelayParams(tau_decay=45.0, tau_lag1=inf), "
        "fatigue=SingleDelayParams(tau_decay=15.0, tau_lag1=10.0))",
    ),
    (
        lambda: ff.FitConfig(starts=3, seed=7),
        "FitConfig(starts=3, max_iterations=2500, tolerance=1e-09, "
        "simplex_tolerance=1e-07, seed=7, fix_p0=None)",
    ),
    (
        _variant_fit,
        "VariantFit(variant='classical', p0=500.0, k1=0.1, k2=0.12, "
        "fitness=FirstOrderParams(tau_decay=40.0), fatigue=FirstOrderParams(tau_decay=9.0), "
        "n_free=5, sse=1.5, r2=0.875, predicted=(500.0, 500.5), starts_converged=2, "
        "best_start_index=1, iterations_used=300, warnings=())",
    ),
]
GOLDEN_IDS = [text.split("(")[0] for _, text in GOLDEN_REPRS]
MAKERS = [make for make, _ in GOLDEN_REPRS]


class TestValueTypes:
    @pytest.mark.parametrize("make, text", GOLDEN_REPRS, ids=GOLDEN_IDS)
    def test_golden_repr(self, make, text):
        assert repr(make()) == text

    @pytest.mark.parametrize("make", MAKERS, ids=GOLDEN_IDS)
    def test_equal_and_hash_by_value(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr_names_a_value_too_large_to_print_by_its_type(self):
        # the repr of an int of more digits than Python converts to text raised ValueError
        obs = ff.ObservationSet(((10**5000, 1.0),))
        assert repr(obs) == "ObservationSet(entries=<tuple too large to print>)"
        assert ", seed=<int too large to print>, " in repr(ff.FitConfig(seed=10**5000))

    def test_different_values_unequal(self):
        assert ff.SingleDelayParams(45.0, 20.0) != ff.SingleDelayParams(45.0, 21.0)
        assert _variant_fit() != _variant_fit(warnings=("zero-load",))

    def test_equal_values_of_different_classes_unequal(self):
        class Left(_Record):
            x: float

        class Right(_Record):
            x: float

        # same field names and values; only the class differs
        assert Left(1.0) != Right(1.0) and Left(1.0) == Left(1.0)
        assert ff.SingleDelayParams(45.0) != ff.ThreeDelayParams(45.0, math.inf)
        assert ff.FirstOrderParams(40.0) != ff.SingleDelayParams(40.0)
        fit = _variant_fit()
        params = ff.ModelParams(
            fit.variant, fit.p0, fit.k1, fit.k2, fit.fitness, fit.fatigue
        )
        assert fit != params and params != fit
        assert ff.FirstOrderParams(40.0) != (40.0,)

    @pytest.mark.parametrize("make", MAKERS, ids=GOLDEN_IDS)
    def test_fields_cannot_be_assigned_or_deleted(self, make):
        obj = make()
        for name in type(obj)._fields:
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, before)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is before
        with pytest.raises(AttributeError):
            obj.not_a_field = 1

    def test_positional_and_keyword_construction(self):
        expected = ff.ThreeDelayParams(30.0, 12.0, math.inf, -8.5)
        assert ff.ThreeDelayParams(30.0, 12.0, tau_lag3=-8.5) == expected
        assert ff.ThreeDelayParams(tau_lag3=-8.5, tau_decay=30.0, tau_lag1=12.0) == expected
        assert ff.KernelParams(25.0, -0.125).weights == (0.5, 0.3, 0.2)
        assert ff.FitConfig() == ff.FitConfig(20, 2500, 1e-9, 1e-7, 0, None)
        # a subclass takes its base's fields first
        fit = _variant_fit()
        assert fit == ff.VariantFit(*(getattr(fit, name) for name in ff.VariantFit._fields))
        assert tuple(ff.VariantFit._fields)[:6] == tuple(ff.ModelParams._fields)
        # every record kind binds its fields positionally and by keyword
        for make in MAKERS:
            r = make()
            assert type(r)(*_field_values(r)) == r
            assert type(r)(**_field_dict(r)) == r

    def test_post_init_runs_for_keyword_construction(self):
        with pytest.raises(ParameterError):
            ff.SingleDelayParams(tau_decay=-1.0)
        assert ff.KernelParams(25.0, 0.0, weights=[0.5, 0.25, 0.25]).weights == (0.5, 0.25, 0.25)

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),
        ((), {"tau_lag1": 3.0}),
        ((45.0, 20.0, 1.0), {}),
        ((45.0,), {"tau_lag2": 3.0}),
        ((45.0,), {"tau_decay": 45.0}),
    ], ids=["none", "missing", "too-many", "unknown-keyword", "given-twice"])
    def test_missing_or_unknown_argument_is_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            ff.SingleDelayParams(*args, **kwargs)


# ---------------------------------------------------------------------------
# Classical model
# ---------------------------------------------------------------------------


class TestClassical:
    def test_zero_load(self):
        w = ff.LoadSeries((0.0, 0.0, 0.0))
        assert ff.eval_classical(w, ff.FirstOrderParams(3.0), 3).values == (0.0, 0.0, 0.0)

    def test_single_impulse_values(self):
        w = ff.LoadSeries((0.0, 1.0, 0.0))
        got = ff.eval_classical(w, ff.FirstOrderParams(2.0), 3).values
        assert got[0] == 0.0 and got[1] == 0.0
        assert got[2] == pytest.approx(0.6065306597126334, abs=1e-15)

        w4 = ff.LoadSeries((0.0, 1.0, 0.0, 0.0))
        got4 = ff.eval_classical(w4, ff.FirstOrderParams(2.0), 4).values
        assert got4[3] == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_one_day_horizon_is_the_zero_start(self):
        w = ff.LoadSeries((0.0, 1.0, 0.0))
        assert ff.eval_classical(w, ff.FirstOrderParams(5.0), 1).values == (0.0,)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            w = random_load(rng, n=int(rng.integers(3, 60)))
            tau = float(rng.uniform(1.5, 40.0))
            horizon = len(w)
            got = ff.eval_classical(w, ff.FirstOrderParams(tau), horizon).values
            for n in range(horizon):
                expected = sum(
                    w.values[i] * math.exp(-(n - i) / tau) for i in range(n)
                )
                assert got[n] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_horizon_errors(self):
        w = ff.LoadSeries((0.0, 1.0))
        with pytest.raises(SeriesLengthError):
            ff.eval_classical(w, ff.FirstOrderParams(2.0), 3)
        with pytest.raises(ParameterError):
            ff.eval_classical(w, ff.FirstOrderParams(2.0), 0)
        # a non-integer horizon is rejected, never truncated
        w = ff.LoadSeries((0.0, 1.0, 0.0, 2.0))
        side = ff.SingleDelayParams(2.0, 3.0)
        for horizon in (2.5, 3.9, True, "3"):
            with pytest.raises(ParameterError):
                ff.eval_single_delay_recursive(w, side, horizon)
            with pytest.raises(ParameterError):
                ff.predict_performance("single_delay", 500.0, 0.1, 0.12, side, side, w, horizon)
        assert len(ff.eval_single_delay_recursive(w, side, np.int64(3))) == 3

    def test_impulse_decay_ratio(self):
        # after an isolated impulse the tail decays by exactly e^{-1/tau} per day
        for tau in (1.7, 5.0, 42.0):
            w = unit_impulse(40, 3)
            g = ff.eval_classical(w, ff.FirstOrderParams(tau), 40).values
            q = math.exp(-1.0 / tau)
            for n in range(4, 39):
                assert g[n + 1] / g[n] == pytest.approx(q, rel=1e-13)


# ---------------------------------------------------------------------------
# Single-delay model
# ---------------------------------------------------------------------------


class TestSingleDelay:
    def test_frozen_recursion_values(self):
        w = ff.LoadSeries((0.0, 1.0, 0.0, 0.0, 0.0))
        got = ff.eval_single_delay_recursive(w, ff.SingleDelayParams(1.0, 2.0), 5).values
        assert got == pytest.approx(SINGLE_DELAY_EXPECTED, rel=1e-14, abs=1e-18)

    def test_scalar_unroll_oracle(self):
        # re-derive the frozen values in place: g(k+1) = [w+g-(1/2)g(k-1)]e^{-1}
        w = (0.0, 1.0, 0.0, 0.0, 0.0)
        g = {-1: 0.0, 0: 0.0}
        for k in range(4):
            g[k + 1] = (w[k] + g[k] - 0.5 * g[k - 1]) * E1
        assert tuple(g[i] for i in range(5)) == SINGLE_DELAY_EXPECTED

    def test_infinite_lag_reduces_to_classical(self):
        w = ff.LoadSeries((0.0, 1.0, 0.0, 0.0, 0.0))
        red = ff.eval_single_delay_recursive(w, ff.SingleDelayParams(1.0, math.inf), 5)
        cls = ff.eval_classical(w, ff.FirstOrderParams(1.0), 5)
        assert sup_rel_diff(red.values, cls.values) <= 1e-12

    def test_zero_load_any_params(self):
        w = ff.LoadSeries((0.0,) * 8)
        got = ff.eval_single_delay_recursive(w, ff.SingleDelayParams(3.0, 4.0), 8).values
        assert got == (0.0,) * 8

    def test_convolution_equals_recursive_frozen(self):
        w = ff.LoadSeries((0.0, 1.0, 0.0, 0.0, 0.0))
        conv = ff.eval_single_delay_convolution(w, ff.SingleDelayParams(1.0, 2.0), 5)
        assert conv.values == pytest.approx(SINGLE_DELAY_EXPECTED, rel=1e-12, abs=1e-15)

    def test_convolution_empty_sum_at_day1(self):
        rng = np.random.default_rng(7)
        w = random_load(rng, n=10)
        conv = ff.eval_single_delay_convolution(w, ff.SingleDelayParams(2.0, 3.0), 10)
        assert conv.values[1] == 0.0

    def test_convolution_classical_reduction_value(self):
        w = ff.LoadSeries((0.0, 1.0, 0.0))
        conv = ff.eval_single_delay_convolution(w, ff.SingleDelayParams(1.0, math.inf), 3)
        assert conv.values[2] == pytest.approx(E1, rel=1e-14)

    def test_convolution_equals_recursive_random(self):
        rng = np.random.default_rng(202)
        for _ in range(30):
            w = random_load(rng, max_n=200)
            params = random_single_delay(rng)
            rec = ff.eval_single_delay_recursive(w, params, len(w))
            conv = ff.eval_single_delay_convolution(w, params, len(w))
            assert sup_rel_diff(rec.values, conv.values) <= 1e-9


# ---------------------------------------------------------------------------
# Three-delay model
# ---------------------------------------------------------------------------


class TestThreeDelay:
    def test_frozen_recursion_values(self):
        w = ff.LoadSeries((0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        params = ff.ThreeDelayParams(1.0, 2.0, 3.0, 4.0)
        got = ff.eval_three_delay_recursive(w, params, 6).values
        assert got == pytest.approx(THREE_DELAY_EXPECTED, rel=1e-14, abs=1e-18)

    def test_scalar_unroll_oracle(self):
        w = (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        g = {-3: 0.0, -2: 0.0, -1: 0.0, 0: 0.0}
        for k in range(5):
            g[k + 1] = (
                w[k] + g[k] - g[k - 1] / 2.0 - g[k - 2] / 3.0 - g[k - 3] / 4.0
            ) * E1
        assert tuple(g[i] for i in range(6)) == pytest.approx(
            THREE_DELAY_EXPECTED, rel=1e-15
        )

    def test_all_infinite_lags_reduce_to_classical(self):
        rng = np.random.default_rng(11)
        w = random_load(rng, n=50)
        params = ff.ThreeDelayParams(5.0, math.inf, math.inf, math.inf)
        red = ff.eval_three_delay_recursive(w, params, 50)
        cls = ff.eval_classical(w, ff.FirstOrderParams(5.0), 50)
        assert sup_rel_diff(red.values, cls.values) <= 1e-12

    def test_two_infinite_lags_reduce_to_single_delay(self):
        rng = np.random.default_rng(12)
        w = random_load(rng, n=50)
        params = ff.ThreeDelayParams(5.0, 7.0, math.inf, math.inf)
        red = ff.eval_three_delay_recursive(w, params, 50)
        sd = ff.eval_single_delay_recursive(w, ff.SingleDelayParams(5.0, 7.0), 50)
        assert red.values == sd.values  # the vanished terms subtract exact zeros

    def test_convolution_equals_recursive_frozen(self):
        w = ff.LoadSeries((0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        params = ff.ThreeDelayParams(1.0, 2.0, 3.0, 4.0)
        conv = ff.eval_three_delay_convolution(w, params, 6)
        assert sup_rel_diff(conv.values, THREE_DELAY_EXPECTED) <= 1e-12

    def test_convolution_zero_load(self):
        w = ff.LoadSeries((0.0,) * 12)
        params = ff.ThreeDelayParams(2.0, 3.0, 4.0, 5.0)
        got = ff.eval_three_delay_convolution(w, params, 12).values
        assert got == (0.0,) * 12

    def test_convolution_classical_reduction(self):
        rng = np.random.default_rng(13)
        w = random_load(rng, n=40)
        params = ff.ThreeDelayParams(4.0, math.inf, math.inf, math.inf)
        conv = ff.eval_three_delay_convolution(w, params, 40)
        cls = ff.eval_classical(w, ff.FirstOrderParams(4.0), 40)
        assert sup_rel_diff(conv.values, cls.values) <= 1e-12

    def test_convolution_equals_recursive_random(self):
        rng = np.random.default_rng(303)
        for _ in range(30):
            w = random_load(rng, max_n=200)
            params = random_three_delay(rng)
            rec = ff.eval_three_delay_recursive(w, params, len(w))
            conv = ff.eval_three_delay_convolution(w, params, len(w))
            assert sup_rel_diff(rec.values, conv.values) <= 1e-9


# ---------------------------------------------------------------------------
# Kernel model and the three-delay correspondence
# ---------------------------------------------------------------------------


class TestKernel:
    def test_zero_gain_reduces_to_classical(self):
        rng = np.random.default_rng(14)
        w = random_load(rng, n=60)
        ker = ff.eval_kernel_recursive(w, ff.KernelParams(6.0, 0.0), 60)
        cls = ff.eval_classical(w, ff.FirstOrderParams(6.0), 60)
        assert sup_rel_diff(ker.values, cls.values) <= 1e-12

    def test_zero_load(self):
        w = ff.LoadSeries((0.0,) * 9)
        got = ff.eval_kernel_recursive(w, ff.KernelParams(2.0, -0.4), 9).values
        assert got == (0.0,) * 9

    def test_mapping_algebra(self):
        mapped = ff.kernel_to_three_delay(ff.KernelParams(1.0, -0.5))
        assert mapped.tau_decay == 1.0
        assert mapped.tau_lag1 == pytest.approx(4.0, rel=1e-15)
        assert mapped.tau_lag2 == pytest.approx(20.0 / 3.0, rel=1e-15)
        assert mapped.tau_lag3 == pytest.approx(10.0, rel=1e-15)

    def test_mapping_zero_gain(self):
        mapped = ff.kernel_to_three_delay(ff.KernelParams(1.0, 0.0))
        assert mapped == ff.ThreeDelayParams(1.0, math.inf, math.inf, math.inf)

    def test_mapping_subnormal_gain(self):
        # a rate weight * tau5 that underflows to 0, or a constant -1/rate that
        # overflows, maps to the +inf sentinel; only a finite negative lag warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tau5 in (5e-324, -5e-324, 1e-310, -1e-310):
                mapped = ff.kernel_to_three_delay(ff.KernelParams(40.0, tau5))
                assert mapped == ff.ThreeDelayParams(40.0, math.inf, math.inf, math.inf)
            # weight 0.5 keeps a finite rate, weight 0.2 gives -1/rate = -2.5e308
            mapped = ff.kernel_to_three_delay(ff.KernelParams(40.0, -2e-308))
            assert mapped.tau_lag1 == 1e308 and mapped.tau_lag3 == math.inf
        with pytest.warns(UserWarning):
            mapped = ff.kernel_to_three_delay(ff.KernelParams(40.0, 2e-308))
        assert mapped.tau_lag1 == -1e308 and mapped.tau_lag3 == math.inf

    def test_mapping_positive_gain_warns_and_returns_verbatim(self):
        with pytest.warns(UserWarning):
            mapped = ff.kernel_to_three_delay(ff.KernelParams(1.0, 0.5))
        assert mapped.tau_lag1 == pytest.approx(-4.0, rel=1e-15)
        assert mapped.tau_lag2 < 0 and mapped.tau_lag3 < 0

    def test_mapped_trajectories_match_fixed(self):
        # the explicit example: tau5=-0.5 maps to lags (4, 20/3, 10)
        rng = np.random.default_rng(15)
        w = random_load(rng, n=80)
        ker = ff.eval_kernel_recursive(w, ff.KernelParams(1.5, -0.5), 80)
        td = ff.eval_three_delay_recursive(
            w, ff.kernel_to_three_delay(ff.KernelParams(1.5, -0.5)), 80
        )
        assert sup_rel_diff(ker.values, td.values) <= 1e-12

    def test_mapped_trajectories_match_random(self):
        rng = np.random.default_rng(404)
        for _ in range(25):
            w = random_load(rng, max_n=200)
            kp = random_kernel(rng)
            mapped = ff.kernel_to_three_delay(kp)
            ker = ff.eval_kernel_recursive(w, kp, len(w))
            td = ff.eval_three_delay_recursive(w, mapped, len(w))
            assert sup_rel_diff(ker.values, td.values) <= 1e-12

    def test_positive_gain_equivalence_still_holds(self):
        rng = np.random.default_rng(16)
        w = random_load(rng, n=40)
        kp = ff.KernelParams(3.0, 0.2)
        with pytest.warns(UserWarning):
            mapped = ff.kernel_to_three_delay(kp)
        ker = ff.eval_kernel_recursive(w, kp, 40)
        td = ff.eval_three_delay_recursive(w, mapped, 40)
        assert sup_rel_diff(ker.values, td.values) <= 1e-12


# ---------------------------------------------------------------------------
# Performance model
# ---------------------------------------------------------------------------


class TestPerformance:
    def test_symmetric_gains_give_baseline(self):
        rng = np.random.default_rng(17)
        w = random_load(rng, n=40)
        side = ff.SingleDelayParams(12.0, 9.0)
        params = ff.ModelParams("single_delay", 480.0, 0.2, 0.2, side, side)
        p = performance(w, params, 40)
        assert all(v == 480.0 for v in p)

    def test_zero_load_gives_baseline(self):
        w = ff.LoadSeries((0.0,) * 20)
        params = ff.ModelParams(
            "single_delay", 500.0, 0.1, 0.12,
            ff.SingleDelayParams(45.0, 20.0), ff.SingleDelayParams(15.0, 10.0),
        )
        assert performance(w, params, 20) == (500.0,) * 20

    def test_composition_of_state_oracles_and_block_response(self):
        # 14-day block of load 100, then rest
        n = 45
        w = ff.LoadSeries((0.0,) + (100.0,) * 14 + (0.0,) * (n - 15))
        params = ff.ModelParams(
            "single_delay", 500.0, 0.10, 0.12,
            ff.SingleDelayParams(45.0, 20.0), ff.SingleDelayParams(15.0, 10.0),
        )
        p = performance(w, params, n)
        assert p[0] == 500.0
        g = ff.eval_single_delay_recursive(w, params.fitness, n).values
        h = ff.eval_single_delay_recursive(w, params.fatigue, n).values
        for i in range(n):
            assert p[i] == pytest.approx(500.0 + 0.10 * g[i] - 0.12 * h[i], rel=1e-14)
        # dips below baseline during loading, supercompensates after rest
        assert min(p[1:15]) < 500.0
        assert max(p[15:]) > 500.0


# ---------------------------------------------------------------------------
# Cross-variant invariants
# ---------------------------------------------------------------------------


class TestInvariants:
    def test_zero_input_everywhere(self):
        w = ff.LoadSeries((0.0,) * 15)
        zeros = (0.0,) * 15
        assert ff.eval_classical(w, ff.FirstOrderParams(3.0), 15).values == zeros
        assert ff.eval_single_delay_recursive(w, ff.SingleDelayParams(3.0, 5.0), 15).values == zeros
        assert ff.eval_single_delay_convolution(w, ff.SingleDelayParams(3.0, 5.0), 15).values == zeros
        assert ff.eval_three_delay_recursive(w, ff.ThreeDelayParams(3.0, 5.0, 6.0, 7.0), 15).values == zeros
        assert ff.eval_three_delay_convolution(w, ff.ThreeDelayParams(3.0, 5.0, 6.0, 7.0), 15).values == zeros
        assert ff.eval_kernel_recursive(w, ff.KernelParams(3.0, -0.3), 15).values == zeros

    def test_linearity_in_load(self):
        rng = np.random.default_rng(505)
        for _ in range(10):
            n = int(rng.integers(10, 120))
            w1 = random_load(rng, n=n)
            w2 = random_load(rng, n=n)
            alpha = float(rng.uniform(0.1, 3.0))
            beta = float(rng.uniform(0.1, 3.0))
            combo = ff.LoadSeries(
                tuple(alpha * a + beta * b for a, b in zip(w1.values, w2.values))
            )
            sd = random_single_delay(rng)
            td = random_three_delay(rng)
            kp = random_kernel(rng)
            for evaluate, params in (
                (ff.eval_classical, ff.FirstOrderParams(5.0)),
                (ff.eval_single_delay_recursive, sd),
                (ff.eval_three_delay_recursive, td),
                (ff.eval_kernel_recursive, kp),
            ):
                lhs = evaluate(combo, params, n).values
                a = evaluate(w1, params, n).values
                b = evaluate(w2, params, n).values
                rhs = [alpha * x + beta * y for x, y in zip(a, b)]
                assert sup_rel_diff(lhs, rhs) <= 1e-10

    def test_reduction_chain(self):
        rng = np.random.default_rng(606)
        w = random_load(rng, n=100)
        tau = 9.0
        cls = ff.eval_classical(w, ff.FirstOrderParams(tau), 100).values
        sd = ff.eval_single_delay_recursive(w, ff.SingleDelayParams(tau, math.inf), 100).values
        td = ff.eval_three_delay_recursive(
            w, ff.ThreeDelayParams(tau, math.inf, math.inf, math.inf), 100
        ).values
        ker = ff.eval_kernel_recursive(w, ff.KernelParams(tau, 0.0), 100).values
        for other in (sd, td, ker):
            assert sup_rel_diff(cls, other) <= 1e-12

    @pytest.mark.parametrize("tau", [0.0025, 0.001, 1e-200, 1e-320])
    def test_convolution_forms_agree_at_tiny_decay_constants(self, tau):
        # e^{2/tau} overflowed the three-delay form below tau ~ 0.00282, and
        # d / tau overflowed numpy's divide at tau = 1e-320 in all three forms
        w = ff.LoadSeries((0.0, 1.0, 2.0, 3.0, 1.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = [
                (ff.eval_classical(w, ff.FirstOrderParams(tau), 6),
                 ff.eval_single_delay_recursive(w, ff.SingleDelayParams(tau), 6)),
                (ff.eval_single_delay_convolution(w, ff.SingleDelayParams(tau, 5.0), 6),
                 ff.eval_single_delay_recursive(w, ff.SingleDelayParams(tau, 5.0), 6)),
                (ff.eval_three_delay_convolution(w, ff.ThreeDelayParams(tau, 5.0, 6.0, 7.0), 6),
                 ff.eval_three_delay_recursive(w, ff.ThreeDelayParams(tau, 5.0, 6.0, 7.0), 6)),
            ]
        for conv, rec in pairs:
            assert sup_rel_diff(conv.values, rec.values) <= 1e-9

    def test_repeat_evaluation_is_identical(self):
        rng = np.random.default_rng(707)
        w = random_load(rng, n=80)
        params = random_three_delay(rng)
        first = ff.eval_three_delay_recursive(w, params, 80)
        second = ff.eval_three_delay_recursive(w, params, 80)
        assert first == second
