from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

import ffdelay as ff
from helpers import block_load, fixture_params, observation_days, performance

# Every property test runs a few fixed examples and keeps no example
# database on disk, so the suite stays fast and repeatable.
settings.register_profile(
    "bounded",
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("bounded")


@pytest.fixture(scope="session")
def load_120() -> ff.LoadSeries:
    return block_load(120)


@pytest.fixture(scope="session")
def true_params() -> ff.ModelParams:
    return fixture_params()


@pytest.fixture(scope="session")
def true_trajectory(load_120, true_params) -> tuple[float, ...]:
    return performance(load_120, true_params, 120)


@pytest.fixture(scope="session")
def clean_observations(true_trajectory) -> ff.ObservationSet:
    days = observation_days(120)
    return ff.ObservationSet(tuple((d, true_trajectory[d]) for d in days))
