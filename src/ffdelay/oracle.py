"""Fine-grid method-of-steps integration of the delay models.

Independent numerical cross-check for the day-grid recursions in
:mod:`ffdelay.models`. The delay equations are integrated on a subgrid of m
steps per day: over each substep the load/history bracket is frozen at the
left endpoint and the whole panel is attenuated by the exact one-substep decay
factor, i.e.

    g(t + h) = [h * (w(t) - r1 * g(t - 1) - ...) + g(t)] * e^{-h/tau}

with h = 1/m. The 1-day delay is always an exact number of substeps, so the
delayed value is read straight off the stored grid (method of steps, no
interpolation); one loop runs both equations, with one or three lag terms.
At m = 1 this is arithmetic-for-arithmetic the day-grid recursion, which
makes the oracle relationship exact instead of asymptotic; for m > 1 it
converges to the continuous solution at first order.
"""

from __future__ import annotations

from math import exp
from typing import Sequence

from .errors import ParameterError
from .models import (
    LoadSeries, SingleDelayParams, ThreeDelayParams, _as_int, _check_horizon, _check_side,
    _field_values, _Record, _shown, _side_args,
)


class StepLoad(_Record):
    """A daily load series read as the piecewise-constant function w(t) = w(floor t)."""

    daily: LoadSeries

    def __post_init__(self) -> None:
        if not isinstance(self.daily, LoadSeries):
            raise ParameterError(f"daily must be a LoadSeries, got {type(self.daily).__name__}")

    def __len__(self) -> int:
        return len(self.daily)


class GridSolution(_Record):
    """State values on the subgrid t = j/m, j = 0..days*m."""

    substeps_per_day: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values or self.values[0] != 0.0:
            raise ParameterError("grid solution must start at 0")

    @property
    def days(self) -> int:
        return (len(self.values) - 1) // self.substeps_per_day

    def day_values(self) -> tuple[float, ...]:
        """The trajectory restricted to whole days t = 0..days."""
        return self.values[:: self.substeps_per_day]


def _integrate(variant: str, w: StepLoad, params, days: int, substeps: int) -> GridSolution:
    """Both equations' loop at the rates ``_side_args`` gives: lag d reads g d days
    back at rate ``rates[d - 1]``, 0.0 before day d. Its terms are subtracted in
    turn, in the order of each day recursion at m = 1."""
    _check_side(variant, params, "params")
    tau_decay, *rates = _side_args(variant, _field_values(params))
    days = _check_horizon(w, days, "days")
    m = _as_int(substeps, "substeps", least=1)
    h = 1.0 / m
    a = exp(-h / tau_decay)
    lags = [(d * m, h * r) for d, r in enumerate(rates, 1)]
    wv = w.daily.values
    g = [0.0] * (days * m + 1)
    for j in range(days * m):
        x = h * wv[j // m] + g[j]
        for back, hr in lags:
            x -= hr * (g[j - back] if j >= back else 0.0)
        g[j + 1] = x * a
    return GridSolution(m, tuple(g))


def integrate_single_delay(
    w: StepLoad, params: SingleDelayParams, days: int, substeps: int
) -> GridSolution:
    """Integrate the single-delay equation over [0, days] with m substeps/day."""
    return _integrate("single_delay", w, params, days, substeps)


def integrate_three_delay(
    w: StepLoad, params: ThreeDelayParams, days: int, substeps: int
) -> GridSolution:
    """Integrate the three-delay equation (zero history on [-3, 0])."""
    return _integrate("three_delay", w, params, days, substeps)


def convergence_probe(
    w: StepLoad, params: SingleDelayParams, days: int, m_list: Sequence[int]
) -> list[tuple[int, float]]:
    """Sup-norm distance of each coarse grid from the finest grid in ``m_list``.

    Every m must divide the largest one so the grids share points. Returns
    (m, sup |g_m - g_finest| over the shared points) for each m except the
    finest itself. On smooth loads the distances shrink at first order: under
    grid doubling, successive ratios sit near 1/2.
    """
    ms = [_as_int(m, "each m") for m in m_list]
    if len(ms) < 2:
        raise ParameterError("m_list needs at least two entries")
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ParameterError(f"m_list must be strictly increasing, got {_shown(ms)}")
    finest = ms[-1]
    for m in ms:
        if m < 1 or finest % m != 0:
            raise ParameterError(
                f"each m must be >= 1 and divide the finest grid {_shown(finest)},"
                f" got {_shown(m)}"
            )
    ref = integrate_single_delay(w, params, days, finest).values
    out: list[tuple[int, float]] = []
    for m in ms[:-1]:
        sol = integrate_single_delay(w, params, days, m).values
        stride = finest // m
        diff = max(abs(sol[j] - ref[j * stride]) for j in range(len(sol)))
        out.append((m, diff))
    return out
