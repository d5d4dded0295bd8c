"""Seeded input generation for the ffdelay benchmark.

Every input the benchmark feeds to ffdelay comes from here and depends only on
the ``--seed`` argument and an item index, so the same seed gives the same
inputs. How many items a run draws depends only on ``--seconds`` (see
:func:`op_count`), never on how fast they run, so two runs with the same seed
and length attempt the same operations. Generated items are never filtered:
whatever the generator draws is what the workload runs.

Inputs are plain Python data (floats, dicts, lists); the workloads turn them
into library objects or files themselves.
"""

from __future__ import annotations

import math

import numpy as np

VARIANTS = ("classical", "single_delay", "three_delay", "kernel")

#: Search box handed to every fit: the bundled config's bounds plus the
#: library's default kernel-gain box. Generating parameters lie inside it.
BOUNDS = {
    "p0": (300.0, 700.0),
    "k1": (0.005, 2.0),
    "k2": (0.005, 2.0),
    "tau1": (5.0, 150.0),
    "tau2": (2.0, 1.0e6),
    "tau3": (2.0, 150.0),
    "tau4": (2.0, 1.0e6),
    "tau5": (-1.0, 1.0),
}

#: Reduced multi-start count used by fit_cohort and by the CLI fit/compare.
FIT_STARTS = 1
FIT_MAX_ITERATIONS = 2500
FIT_TOLERANCE = 1e-9
FIT_SIMPLEX_TOLERANCE = 1e-7

#: Shortest and longest season (days) of the short-season athletes.
SEASON_DAYS = (84, 365)
#: The season range is cut into this many strata; athlete ``i`` draws its
#: season inside stratum ``13 * i % SEASON_STRATA``.
SEASON_STRATA = 48

#: Distinct operations per second of ``--seconds``: athletes for fit_cohort,
#: athletes (four CLI commands each) for cli_session. On a 2-vCPU host a
#: fit takes about 0.5 s and an athlete's CLI commands about 4 s, so the
#: first pass over the drawn operations fills about 80% and 35% of the run,
#: and repeats of the headline operations fill the rest.
FITS_PER_SECOND = 1.6
CLI_ATHLETES_PER_SECOND = 4 / 50

#: Long-horizon plan length (days) for forecast_long and the CLI forecasts.
LONG_HORIZON = 3650
#: Distinct training plans per forecast_long run; every forecast reuses one.
FORECAST_PLANS = 8
#: Distinct forecasts per forecast_long run (30 parameter sets per plan).
FORECAST_CASES = 240
#: Variant of forecast ``index`` is FORECAST_VARIANTS[index % 5]: the default
#: variant, single_delay, twice as often as the others. The two cheap
#: variants (classical, single_delay) then make 60% of the forecasts, so the
#: median lies inside one cost class instead of on the gap between two.
FORECAST_VARIANTS = ("classical", "single_delay", "three_delay", "kernel", "single_delay")


def op_count(per_second: float, seconds: float) -> int:
    """Distinct operations a run of ``seconds`` draws (at least one)."""
    return max(1, round(per_second * seconds))


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def load_plan(rng: np.random.Generator, days: int) -> list[float]:
    """Block-periodized daily load: 4-week cycles of 3 build weeks and 1 easy
    week, one or two rest days a week, w(0) = 0."""
    base = rng.uniform(40.0, 90.0)
    rest = set(int(d) for d in rng.choice(7, size=int(rng.integers(1, 3)), replace=False))
    week_scale = (1.0, 1.1, 1.2, 0.5)
    jitter = rng.uniform(0.6, 1.4, size=days)
    w = [0.0] * days
    for day in range(1, days):
        week, weekday = divmod(day - 1, 7)
        if weekday not in rest:
            w[day] = round(float(base * week_scale[week % 4] * jitter[day]), 1)
    return w


def _side(rng: np.random.Generator, variant: str, tau: float) -> dict:
    side = {"tau_decay": tau}
    if variant == "single_delay":
        side["tau_lag1"] = _log_uniform(rng, 5.0, 200.0)
    elif variant == "three_delay":
        for name in ("tau_lag1", "tau_lag2", "tau_lag3"):
            side[name] = _log_uniform(rng, 10.0, 500.0)
    elif variant == "kernel":
        # a positive gain beyond e^{1/tau} - 1 makes the recursion grow
        # without bound; stay well inside the stable range
        side["tau5"] = float(rng.uniform(-0.3, 0.5 * math.expm1(1.0 / tau)))
    return side


def draw_params(rng: np.random.Generator, variant: str) -> dict:
    """Generating parameters of ``variant``, inside :data:`BOUNDS`."""
    k1 = _log_uniform(rng, 0.05, 0.4)
    return {
        "variant": variant,
        "p0": float(rng.uniform(400.0, 600.0)),
        "k1": k1,
        "k2": min(1.9, k1 * float(rng.uniform(1.3, 2.5))),
        "fitness": _side(rng, variant, float(rng.uniform(25.0, 60.0))),
        "fatigue": _side(rng, variant, float(rng.uniform(5.0, 20.0))),
    }


def athlete(seed: int, index: int) -> dict:
    """One short-season athlete for fit_cohort and cli_session.

    The variant, noise flag and observation spacing cycle with ``index``
    and the season is stratified by it: athlete ``i`` draws its season from
    stratum ``13 * i % SEASON_STRATA`` of 84-365 days, so every variant's
    athletes spread over the whole range and any run of consecutive athletes
    holds a balanced mix. An objective evaluation costs time in proportion
    to the season and to the number of observations, so the cost of a
    cohort depends little on the seed; and drawing the season within its
    stratum (rather than from four fixed lengths) leaves no gap in the fit
    times for their median to jump across. Each block of 48 athletes gives
    every variant each spacing of 3-14 days once. The seed draws the season
    within its stratum, the first observation day, the load plan, the
    generating parameters and the noise.

    ``observe`` lists the observation days and ``noise`` the additive noise
    on each (all zero for noiseless athletes); the workload adds it to the
    generating model's trajectory, evaluated through the library.
    """
    rng = _rng(seed, 1, index)
    variant = VARIANTS[index % 4]
    noisy = (index // 4) % 2 == 1
    lo, hi = SEASON_DAYS
    stratum = 13 * index % SEASON_STRATA
    season = lo + int((stratum + rng.uniform()) * (hi - lo + 1) / SEASON_STRATA)
    gap = 3 + (5 * (index // 4) + 3 * (index % 4)) % 12
    first = int(rng.integers(1, gap + 1))
    days = list(range(first, season, gap))
    sigma = float(rng.uniform(1.0, 5.0)) if noisy else 0.0
    noise = [float(x) for x in rng.normal(0.0, sigma, size=len(days))] if noisy else [0.0] * len(days)
    return {
        "index": index,
        "variant": variant,
        "noisy": noisy,
        "season": season,
        "load": load_plan(rng, season),
        "params": draw_params(rng, variant),
        "observe": days,
        "noise": noise,
    }


def forecast_plan(seed: int, plan: int) -> list[float]:
    """Multi-season load plan of about ten years."""
    rng = _rng(seed, 2, plan)
    return load_plan(rng, LONG_HORIZON + int(rng.integers(0, 31)))


def forecast_case(seed: int, index: int) -> dict:
    """Parameter set for forecast number ``index``; plans are shared (forecast
    ``index`` uses plan ``index % FORECAST_PLANS``)."""
    rng = _rng(seed, 3, index)
    return {
        "index": index,
        "plan": index % FORECAST_PLANS,
        "params": draw_params(rng, FORECAST_VARIANTS[index % len(FORECAST_VARIANTS)]),
    }


def cli_athlete(seed: int, index: int) -> dict:
    """An athlete for cli_session: a short observed season inside a ten-year
    load plan (the CLI forecasts the whole plan and fits the season)."""
    base = athlete(seed, index)
    rng = _rng(seed, 4, index)
    long_plan = load_plan(rng, LONG_HORIZON)
    long_plan[: base["season"]] = base["load"]
    base["long_load"] = long_plan
    return base
