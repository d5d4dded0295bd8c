"""Shared test utilities: comparisons, fixture builders, random instances."""

from __future__ import annotations

import math

import numpy as np

import ffdelay as ff


def sup_rel_diff(a, b) -> float:
    """Sup-norm difference scaled by the larger trajectory magnitude.

    Pointwise relative comparison blows up at zero crossings even when two
    routes compute the same quantity to within an ulp, so trajectory
    agreement is measured relative to the trajectory scale. Returns 0 for
    two all-zero trajectories.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert a.shape == b.shape
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(a - b)) / scale)


def block_load(days: int = 120) -> ff.LoadSeries:
    """Block-periodized load: 3 loading weeks + 1 recovery week, Sundays off."""
    weekday_loads = (100.0, 80.0, 110.0, 70.0, 120.0, 60.0, 0.0)
    vals = [0.0]
    for d in range(1, days):
        week = (d // 7) % 4
        dow = d % 7
        if week == 3:
            vals.append(40.0 if dow != 6 else 0.0)
        else:
            vals.append(weekday_loads[dow])
    return ff.LoadSeries(tuple(vals))


# one (fitness, fatigue) pair of sides per variant, every delay term on
EXAMPLE_SIDES = {
    "classical": (ff.FirstOrderParams(40.0), ff.FirstOrderParams(9.0)),
    "single_delay": (ff.SingleDelayParams(40.0, 20.0), ff.SingleDelayParams(9.0, 6.0)),
    "three_delay": (ff.ThreeDelayParams(40.0, 20.0, 30.0, 50.0),
                    ff.ThreeDelayParams(9.0, 6.0, 8.0, 12.0)),
    "kernel": (ff.KernelParams(40.0, -0.1), ff.KernelParams(9.0, -0.2)),
}


def fixture_params() -> ff.ModelParams:
    return ff.ModelParams(
        "single_delay",
        500.0,
        0.10,
        0.12,
        ff.SingleDelayParams(45.0, 20.0),
        ff.SingleDelayParams(15.0, 10.0),
    )


def performance(w: ff.LoadSeries, params: ff.ModelParams, horizon: int) -> tuple[float, ...]:
    """``predict_performance`` for the fields of ``params``."""
    return ff.predict_performance(
        params.variant, params.p0, params.k1, params.k2, params.fitness, params.fatigue,
        w, horizon,
    )


def recovery_bounds() -> ff.ParamBounds:
    return ff.ParamBounds(
        p0=(300.0, 700.0),
        k1=(0.005, 2.0),
        k2=(0.005, 2.0),
        tau1=(5.0, 150.0),
        tau2=(2.0, 1e6),
        tau3=(2.0, 150.0),
        tau4=(2.0, 1e6),
    )


def observation_days(days: int = 120, start: int = 5, step: int = 6) -> tuple[int, ...]:
    return tuple(range(start, days, step))


def random_load(rng: np.random.Generator, n: int | None = None,
                zero_fraction: float = 0.2, max_n: int = 365) -> ff.LoadSeries:
    if n is None:
        n = int(rng.integers(5, max_n + 1))
    vals = rng.uniform(0.0, 10.0, size=n)
    vals[rng.random(n) < zero_fraction] = 0.0
    vals[0] = 0.0
    return ff.LoadSeries(tuple(vals))


def random_lag(rng: np.random.Generator, inf_prob: float = 0.15) -> float:
    if rng.random() < inf_prob:
        return math.inf
    return float(np.exp(rng.uniform(np.log(2.0), np.log(200.0))))


def random_decay(rng: np.random.Generator) -> float:
    return float(np.exp(rng.uniform(np.log(2.0), np.log(80.0))))


def random_single_delay(rng: np.random.Generator) -> ff.SingleDelayParams:
    return ff.SingleDelayParams(random_decay(rng), random_lag(rng))


def random_three_delay(rng: np.random.Generator) -> ff.ThreeDelayParams:
    return ff.ThreeDelayParams(
        random_decay(rng), random_lag(rng), random_lag(rng), random_lag(rng)
    )


def random_kernel(rng: np.random.Generator) -> ff.KernelParams:
    raw = rng.uniform(0.05, 1.0, size=3)
    weights = tuple(float(x) for x in raw / raw.sum())
    return ff.KernelParams(random_decay(rng), float(rng.uniform(-0.9, -0.01)), weights)
