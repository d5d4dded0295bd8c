"""Property tests of the path kernels on generated loads and parameters.

The kernels stream the load with ``islice``, so nothing inside them stops a
horizon longer than the load; these properties pin their length and their
arithmetic over generated loads of up to about 4,000 days. Each variant's
performance kernel must equal the combine p0 + (k1*g - k2*h) of its two path
kernels bit for bit, and give exactly p0 for equal gains and sides; a
forecast of every variant must be that combine of its two sides' public
``eval_*_recursive`` paths. The reductions to the classical model (kernel
gain 0, all three lags +inf) must be the one-lag recursion at rate 0.0 bit
for bit. One more property round-trips generated parameters of every variant
through a params document, and another stores a load of Python and numpy
reals as their floats, bit for bit.
"""

from __future__ import annotations

import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ffdelay as ff
from ffdelay import oracle
from ffdelay.dataio import dumps_params, parse_params
from ffdelay.models import (
    _lag_rate,
    kernel_path,
    single_delay_path,
    single_delay_performance,
    three_delay_path,
    three_delay_performance,
)


@st.composite
def loads(draw) -> ff.LoadSeries:
    """A load of 1 to 4,000 days: sparse or dense sessions, any scale."""
    days = draw(st.integers(1, 4000))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from((0.0, 0.1, 0.6, 1.0)))
    scale = draw(st.sampled_from((1e-3, 1.0, 150.0, 1e6)))
    rng = random.Random(seed)
    values = [0.0] + [
        rng.uniform(0.0, scale) if rng.random() < density else 0.0 for _ in range(days - 1)
    ]
    return ff.LoadSeries(tuple(values))


taus = st.floats(0.5, 1000.0)
positive_lags = st.one_of(st.just(math.inf), st.floats(0.5, 100.0), st.floats(100.0, 1e6))
signed_lags = st.one_of(positive_lags, st.floats(-100.0, -0.5), st.floats(-1e6, -100.0))
# tau5 = 0 maps to infinite lags, tau5 > 0 to negative ones, and a subnormal
# gain to +inf wherever its lag rate underflows or its lag constant overflows
gains = st.one_of(
    st.just(0.0), st.floats(-1.0, 1.0), st.floats(-sys.float_info.min, sys.float_info.min)
)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _oracle_days(integrate, w: ff.LoadSeries, params, horizon: int) -> tuple[float, ...]:
    if horizon == 1:
        return (0.0,)
    return integrate(oracle.StepLoad(w), params, horizon - 1, 1).day_values()


@given(w=loads(), tau=taus, lag=positive_lags, data=st.data())
def test_single_delay_path_is_the_m1_oracle(w, tau, lag, data):
    horizon = data.draw(st.integers(1, len(w)))
    got = single_delay_path(w.values, tau, _lag_rate(lag), horizon)
    want = _oracle_days(oracle.integrate_single_delay, w, ff.SingleDelayParams(tau, lag), horizon)
    assert len(got) == horizon
    assert _bits(got) == _bits(want)


@given(w=loads(), tau=taus, lags=st.tuples(signed_lags, signed_lags, signed_lags),
       data=st.data())
def test_three_delay_path_is_the_m1_oracle(w, tau, lags, data):
    horizon = data.draw(st.integers(1, len(w)))
    got = three_delay_path(w.values, tau, *(_lag_rate(lag) for lag in lags), horizon)
    want = _oracle_days(oracle.integrate_three_delay, w, ff.ThreeDelayParams(tau, *lags), horizon)
    assert len(got) == horizon
    assert _bits(got) == _bits(want)


@given(w=loads(), tau=taus, tau5=gains, data=st.data())
def test_kernel_path_matches_its_three_delay_mapping(w, tau, tau5, data):
    horizon = data.draw(st.integers(1, len(w)))
    side = ff.KernelParams(tau, tau5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # positive gains map to negative lags
        mapped = ff.kernel_to_three_delay(side)
    got = kernel_path(w.values, tau, tau5, side.weights, horizon)
    want = three_delay_path(
        w.values, tau, _lag_rate(mapped.tau_lag1), _lag_rate(mapped.tau_lag2),
        _lag_rate(mapped.tau_lag3), horizon,
    )
    assert len(got) == horizon
    # relative to the largest magnitude so far, while the path is far from
    # overflow (a growing kernel path can leave the double range)
    scale = 1.0
    for n, (x, y) in enumerate(zip(got, want)):
        if not abs(y) < 1e200:
            break
        scale = max(scale, abs(y))
        assert abs(x - y) <= 1e-9 * scale, (n, x, y)


@given(w=loads(), tau=taus, data=st.data())
def test_reductions_are_the_one_lag_recursion_at_rate_zero(w, tau, data):
    horizon = data.draw(st.integers(1, len(w)))
    want = _bits(single_delay_path(w.values, tau, 0.0, horizon))
    for tau5 in (0.0, -0.0):
        got = ff.eval_kernel_recursive(w, ff.KernelParams(tau, tau5), horizon)
        assert _bits(got.values) == want, tau5
    no_lags = ff.ThreeDelayParams(tau, math.inf, math.inf, math.inf)
    assert _bits(ff.eval_three_delay_recursive(w, no_lags, horizon).values) == want


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# kernel weights keep their field default, as in a fit
SIDES = {
    "classical": st.builds(ff.FirstOrderParams, positive),
    "single_delay": st.builds(ff.SingleDelayParams, positive, positive_lags),
    "three_delay": st.builds(ff.ThreeDelayParams, positive, signed_lags, signed_lags, signed_lags),
    "kernel": st.builds(ff.KernelParams, positive, gains),
}


@pytest.mark.parametrize("variant", sorted(SIDES))
@given(data=st.data())
def test_params_document_round_trip(variant, data):
    side = SIDES[variant]
    params = ff.ModelParams(
        variant, data.draw(finite), data.draw(positive), data.draw(positive),
        data.draw(side), data.draw(side),
    )
    # every side field is written under its name and read back, in order
    assert parse_params(dumps_params(params)) == params


# Each variant's performance kernel, the path kernel of one of its sides, and
# one side's arguments to both (lag constants as rates; classical is
# single_delay at rate 0.0 and kernel three_delay at rates -(w_j * tau5), with
# the kernel weights at their default as in a fit).
rates = signed_lags.map(_lag_rate)
# a baseline and gains of fitted size, where each rounding of the combine shows,
# and any finite ones
baselines = st.one_of(st.floats(-1e3, 1e3), finite)
performance_gains = st.one_of(st.floats(1e-4, 10.0), positive)
PERFORMANCE_KERNELS = {
    "classical": (single_delay_performance, single_delay_path, st.tuples(taus, st.just(0.0))),
    "single_delay": (
        single_delay_performance, single_delay_path, st.tuples(taus, positive_lags.map(_lag_rate))
    ),
    "three_delay": (three_delay_performance, three_delay_path, st.tuples(taus, rates, rates, rates)),
    "kernel": (
        three_delay_performance, three_delay_path,
        st.tuples(taus, gains).map(lambda s: (s[0], *(-(x * s[1]) for x in (0.5, 0.3, 0.2)))),
    ),
}


@pytest.mark.parametrize("variant", sorted(PERFORMANCE_KERNELS))
@given(w=loads(), data=st.data())
def test_performance_kernel_is_the_combine_of_its_paths(variant, w, data):
    fused, path, side = PERFORMANCE_KERNELS[variant]
    fitness, fatigue = data.draw(side), data.draw(side)
    p0, k1, k2 = data.draw(baselines), data.draw(performance_gains), data.draw(performance_gains)
    # every horizon of the first 64 days, where the lag terms start up, one
    # drawn horizon and the whole load (every horizon of a 4,000-day load
    # would walk about 8 million days per kernel)
    drawn = data.draw(st.integers(1, len(w)))
    for horizon in sorted({*range(1, min(len(w), 64) + 1), drawn, len(w)}):
        g = path(w.values, *fitness, horizon)
        h = path(w.values, *fatigue, horizon)
        want = [p0 + (k1 * x - k2 * y) for x, y in zip(g, h)]
        assert _bits(fused(w.values, p0, k1, k2, fitness, fatigue, horizon)) == _bits(want), horizon


@pytest.mark.parametrize("variant", sorted(PERFORMANCE_KERNELS))
@given(w=loads(), data=st.data())
def test_equal_gains_and_sides_give_the_baseline(variant, w, data):
    fused, path, side = PERFORMANCE_KERNELS[variant]
    fitness = data.draw(side)
    p0, k = data.draw(baselines), data.draw(performance_gains)
    p = fused(w.values, p0, k, k, fitness, fitness, len(w))
    g = path(w.values, *fitness, len(w))
    # every day whose gain term is finite: past overflow k*g - k*g is NaN
    assert [v for v, x in zip(p, g) if math.isfinite(k * x)] == [
        p0 for x in g if math.isfinite(k * x)
    ]


# Each variant's public recursive evaluation of one side; classical is the
# one-lag recursion with its lag off.
RECURSIVE = {
    "classical": lambda w, side, horizon: ff.eval_single_delay_recursive(
        w, ff.SingleDelayParams(side.tau_decay, math.inf), horizon
    ),
    "single_delay": ff.eval_single_delay_recursive,
    "three_delay": ff.eval_three_delay_recursive,
    "kernel": ff.eval_kernel_recursive,
}


@given(w=loads(), data=st.data())
def test_forecast_is_the_combine_of_recursive_paths(w, data):
    # a forecast runs a performance kernel and eval_*_recursive a path kernel,
    # both at the arguments of the one variant rule
    for variant, evaluate in RECURSIVE.items():
        fitness, fatigue = data.draw(SIDES[variant]), data.draw(SIDES[variant])
        p0, k1, k2 = data.draw(baselines), data.draw(performance_gains), data.draw(performance_gains)
        horizon = data.draw(st.integers(1, len(w)))
        while True:
            try:
                g, h = (evaluate(w, side, horizon).values for side in (fitness, fatigue))
                break
            except ff.ParameterError:  # a state left the double range: check a prefix
                horizon //= 2
        want = [p0 + (k1 * x - k2 * y) for x, y in zip(g, h)]
        got = ff.predict_performance(variant, p0, k1, k2, fitness, fatigue, w, horizon)
        assert _bits(got) == _bits(want), (variant, horizon)


# non-negative finite reals of Python and numpy types; a load starts with a zero
LOAD_REALS = st.one_of(
    st.floats(0.0, 1e300),
    st.integers(0, 2**53),
    st.floats(0.0, 1e300).map(np.float64),
    st.floats(0.0, width=32, allow_infinity=False).map(np.float32),
    st.integers(0, 2**62).map(np.int64),
)
LOAD_ZEROS = st.sampled_from((0, 0.0, -0.0, np.float64(0.0), np.float32(-0.0), np.int64(0)))


@given(st.tuples(LOAD_ZEROS), st.lists(LOAD_REALS, max_size=50))
def test_load_series_stores_each_real_as_its_float(first, rest):
    values = [*first, *rest]
    stored = ff.LoadSeries(values).values
    assert all(type(x) is float for x in stored)
    assert _bits(stored) == _bits(tuple(map(float, values)))
