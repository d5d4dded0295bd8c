"""The fitter: least-squares parameter estimation for the performance model.

The objective sum of squared errors over sparse (day, performance)
observations is minimized with a derivative-free Nelder-Mead simplex plus a
seeded multi-start strategy. The search runs in a transformed space: every
positive-constrained parameter (gains and time constants) lives on a
log-scaled box and the baseline and the signed kernel gain tau5 on a linear
box, by the one rule ``models._box_scale``. Each box is a ``_Coord``, its ends
on its scale computed once, reached through a logistic squash, so every candidate
the optimizer can express is feasible and the returned parameters respect
their bounds by construction.

Multi-start points are a stratified (Latin hypercube) sample of the
transformed unit box drawn from a seeded generator; starts are evaluated
sequentially and the winner is the lowest objective value with the lowest
start index as tie-break, so results are bit-reproducible for a given seed.

``fit_variant`` fits one variant and ``compare_variants`` fits all four with
nested seeding. Both read the variant table in :mod:`ffdelay.models`, which
also holds their input records (``ObservationSet``, ``ParamBounds``,
``FitConfig``); this module holds only the fitter. A fit is a driver over one
private problem object, ``_FitProblem``, which embeds seeds and decodes a
search point into kernel arguments, a model and residuals; each start runs
``_run_start``, the one caller of ``nelder_mead``. The objective and R^2 share
one rule, ``_sum_squares``, and the objective runs the performance pass of
``predict_performance``. The simplex, the objective and the start records
hold plain Python floats; numpy only draws the start sample, in
``_latin_hypercube``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import MetricError, ObservationError, ParameterError
from .models import (
    VARIANTS,
    FitConfig,
    KernelParams,
    LoadSeries,
    ModelParams,
    ObservationSet,
    ParamBounds,
    Variant,
    _box_scale,
    _field_dict,
    _performance,
    _Record,
    _shown,
    _side_args,
    kernel_to_three_delay,
    variant_row,
)

# Not called here: perfbench/spans.py looks these names up on this module.
from .models import (  # noqa: F401
    kernel_path, predict_performance, single_delay_path, three_delay_path,
)

#: Logistic argument at which the squash saturates to exactly 0.0/1.0 in
#: doubles; used to pin a lag coordinate at the top of its box.
_Z_SATURATED = 40.0

_WARN_UNDERDETERMINED = "underdetermined"
_WARN_ZERO_LOAD = "zero-load"
_WARN_ZERO_VARIANCE = "zero-variance-observations"


class VariantFit(ModelParams):
    """A fitted performance model of any state-model variant.

    The fitted parameters are the :class:`ModelParams` fields; ``n_free``
    counts the coordinates the optimizer actually searched (p0 is excluded
    when fixed).
    """

    n_free: int
    sse: float
    r2: float
    predicted: tuple[float, ...]
    starts_converged: int
    best_start_index: int
    iterations_used: int
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Fit metrics
# ---------------------------------------------------------------------------


def _total(terms) -> float:
    """The terms added left to right from 0.0; the built-in sum is compensated from 3.12 on."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _sum_squares(residuals) -> float:
    """The residuals' squares added by ``_total``; inf when a square exceeds a double."""
    try:
        return _total(r ** 2 for r in residuals)
    except OverflowError:  # a finite residual whose square exceeds a double
        return math.inf


def _obs_horizon(days: int, obs: ObservationSet) -> int:
    """The days a model pass must cover to reach the last observation, a day before ``days``."""
    last = obs.entries[-1][0]
    if last >= days:
        raise ObservationError(f"observation day {_shown(last)} is outside the horizon {days}")
    return last + 1


def _sst(obs: ObservationSet) -> float:
    """R^2's denominator: ``_sum_squares`` about the mean; MetricError if it has none."""
    if len(obs) < 2:
        raise MetricError("need at least 2 observations (R^2 is undefined otherwise)")
    mean = _total(obs.values) / len(obs)
    if (sst := _sum_squares(mean - y for y in obs.values)) == 0.0:
        raise MetricError("observations have zero variance; R^2 is undefined")
    return sst


def r_squared(predicted: Sequence[float], obs: ObservationSet) -> float:
    """Coefficient of determination 1 - SSE/SST, SST about the observation mean.

    1 for a perfect fit, 0 for the mean predictor, negative when worse than
    the mean. SSE and SST read ``inf`` when a square exceeds a double, so R^2
    is ``-inf``, 1 or NaN when SSE, SST or both overflow. ObservationError for
    a day past ``predicted``; MetricError (undefined) for fewer than two
    observations or an SST of exactly 0.0, as distinct values 0 and 1e-166 give.
    """
    _obs_horizon(len(predicted), obs)
    return 1.0 - _sum_squares(predicted[d] - y for d, y in obs.entries) / _sst(obs)


# ---------------------------------------------------------------------------
# Nelder-Mead simplex
# ---------------------------------------------------------------------------


def nelder_mead(
    objective: Callable[[tuple[float, ...]], float],
    start: Sequence[float],
    config: FitConfig,
    step: float | None = None,
    trace: list[float] | None = None,
) -> tuple[tuple[float, ...], float, int, bool]:
    """Minimize ``objective`` from ``start`` with the standard simplex moves.

    Points are tuples of floats; the first simplex steps each coordinate by
    ``step``, by default by 5% of its start value and at least by 0.05.
    Non-finite objective values during the search are treated as +inf; a
    non-finite value at the start itself is an input error. Converges when
    the simplex's value spread (its worst value less its best) is at most
    ``config.tolerance`` on two consecutive iterations, or its size (the
    largest coordinate distance of a vertex from the best one) is at most
    ``config.simplex_tolerance``; otherwise stops after
    ``config.max_iterations`` iterations.

    Returns (best point, best value, iterations, converged). The best vertex
    is never discarded, so the returned value cannot exceed objective(start);
    if ``trace`` is given, the best value per iteration is appended to it.
    """
    x0 = tuple(map(float, start))
    n = len(x0)
    if n == 0:
        raise ParameterError("start vector must be non-empty")

    def f(x: tuple[float, ...]) -> float:
        v = float(objective(x))
        return v if math.isfinite(v) else math.inf

    f00 = float(objective(x0))
    if not math.isfinite(f00):
        raise ParameterError(f"objective is not finite at the start point: {f00!r}")

    verts = [x0]
    for i, v in enumerate(x0):
        edge = 0.05 * max(abs(v), 1.0) if step is None else step
        verts.append((*x0[:i], v + edge, *x0[i + 1:]))
    fvals = [f00] + [f(x) for x in verts[1:]]

    def toward(t: float) -> tuple[float, ...]:  # centroid + t * (centroid - worst)
        return tuple([c + t * (c - w) for c, w in zip(centroid, verts[-1])])

    iterations = 0
    converged = False
    spread_streak = 0
    while iterations < config.max_iterations:
        order = sorted(range(n + 1), key=fvals.__getitem__)  # stable: ties keep their order
        verts = [verts[i] for i in order]
        fvals = [fvals[i] for i in order]
        small = all(abs(x - b) <= config.simplex_tolerance
                    for v in verts[1:] for x, b in zip(v, verts[0]))
        # The spread criterion must hold on two consecutive iterations: a
        # simplex straddling a minimum symmetrically has zero value spread
        # while still step-sized wide, and one more iteration (a contraction)
        # breaks that tie.
        spread_streak = spread_streak + 1 if fvals[-1] - fvals[0] <= config.tolerance else 0
        if spread_streak >= 2 or small:
            converged = True
            break

        iterations += 1
        centroid = [_total(column) / n for column in zip(*verts[:-1])]
        reflected = toward(1.0)
        f_r = f(reflected)
        if f_r < fvals[0]:
            expanded = toward(2.0)
            f_e = f(expanded)
            if f_e < f_r:
                verts[-1], fvals[-1] = expanded, f_e
            else:
                verts[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            verts[-1], fvals[-1] = reflected, f_r
        else:  # contract outside, toward the reflection, if it beats the worst; else inside
            outside = f_r < fvals[-1]
            contracted = toward(0.5 if outside else -0.5)
            f_c = f(contracted)
            if (f_c <= f_r) if outside else (f_c < fvals[-1]):
                verts[-1], fvals[-1] = contracted, f_c
            else:  # shrink toward the best vertex
                best = verts[0]
                for i in range(1, n + 1):
                    verts[i] = tuple([b + 0.5 * (x - b) for x, b in zip(verts[i], best)])
                    fvals[i] = f(verts[i])
        if trace is not None:
            trace.append(min(fvals))

    i = fvals.index(min(fvals))
    return verts[i], fvals[i], iterations, converged


# ---------------------------------------------------------------------------
# Bounded parameter transform
# ---------------------------------------------------------------------------


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _logit(u: float) -> float:
    u = min(max(u, 1e-15), 1.0 - 1e-15)
    return math.log(u / (1.0 - u))


class _Coord:
    """One search coordinate: the box [lo, hi] on its scale, reached via a logistic squash.

    ``scale`` is the box's (to, of) from ``models._box_scale``: ``of`` maps a
    value onto the scale (log or float) and ``to`` back; the box ends on it,
    base and base + width, are fixed.
    """

    def __init__(self, lo: float, hi: float, scale: tuple) -> None:
        self.lo, self.hi, (self.to, self.of) = lo, hi, scale
        self.base, self.width = self.of(lo), self.of(hi) - self.of(lo)

    def value(self, z: float) -> float:
        try:  # exp(log(x)) and lo + 1.0 * (hi - lo) can round one ulp past an edge
            return min(max(self.to(self.base + _sigmoid(z) * self.width), self.lo), self.hi)
        except OverflowError:  # exp one ulp past log(hi), with hi near the largest double
            return self.hi

    def z_of(self, value: float) -> float:
        if value == math.inf:  # pins a lag at the saturated top of its box
            return _Z_SATURATED
        return _logit((self.of(value) - self.base) / self.width)


class _FitProblem:
    """One variant's least-squares problem in its search coordinates.

    Everything fixed for a fit is read once here: the coordinate boxes (p0's
    is left out when ``fix_p0`` is given, and held as a float), the load, the
    observations and the horizon they need. A search point z is decoded once:
    ``decode`` gives kernel arguments, ``params`` the model, ``residuals``
    p[d] - y by day, and ``sse`` their ``_sum_squares``, the objective.
    """

    def __init__(self, row: Variant, w: LoadSeries, obs: ObservationSet,
                 bounds: ParamBounds, fix_p0: float | None) -> None:
        self.horizon = _obs_horizon(len(w), obs)
        self.row, self.variant = row, row.name
        self.fix_p0 = None if fix_p0 is None else float(fix_p0)
        self.wv, self.entries = w.values, obs.entries
        self.fitted, self.fixed = row.fitted, row.fixed
        boxes = ["k1", "k2"] if fix_p0 is not None else ["p0", "k1", "k2"]
        for decay, lag in (("tau1", "tau2"), ("tau3", "tau4")):  # every lag on its side's lag box
            boxes += [{"tau_decay": decay, "tau5": "tau5"}.get(f, lag) for f in self.fitted]
        self.coords = [_Coord(*getattr(bounds, b), _box_scale(b)) for b in boxes]
        self.fatigue_at = 3 + len(self.fitted)  # where the fatigue side starts in _values

    def _values(self, z: Sequence[float]) -> tuple:
        """(p0, k1, k2, fitness field values, fatigue field values) at the search point z."""
        vals = [c.value(zi) for c, zi in zip(self.coords, z)]
        if self.fix_p0 is not None:
            vals.insert(0, self.fix_p0)
        at, fixed = self.fatigue_at, self.fixed
        return vals[0], vals[1], vals[2], (*vals[3:at], *fixed), (*vals[at:], *fixed)

    def decode(self, z: Sequence[float]) -> tuple:
        """(p0, k1, k2, fitness args, fatigue args) at z, each side's ``_side_args``."""
        p0, k1, k2, fitness, fatigue = self._values(z)
        return p0, k1, k2, _side_args(self.variant, fitness), _side_args(self.variant, fatigue)

    def params(self, z: Sequence[float]) -> ModelParams:
        """The model at the search point z."""
        vals = self._values(z)
        return ModelParams(self.variant, *vals[:3], *(self.row.side(*side) for side in vals[3:]))

    def residuals(self, z: Sequence[float]) -> list[float]:
        """p[d] - y at the observed days, in day order, of the model at z."""
        p = _performance(self.wv, *self.decode(z), self.horizon)
        return [p[d] - y for d, y in self.entries]

    def sse(self, z: Sequence[float]) -> float:
        """The objective: ``_sum_squares`` of the residuals at z."""
        return _sum_squares(self.residuals(z))

    def embed(self, seed: ModelParams) -> list[float] | None:
        """The search point of ``seed``, or None when the box cannot hold it.

        ``seed`` is of this variant or of one it contains, a kernel side going
        into a lag variant through ``kernel_to_three_delay``. A fitted field
        its side lacks is taken "term off" (+inf for a lag, 0 for the kernel
        gain); a field it has that the fit holds fixed must already be so
        (+inf, or the default kernel weights), or ParameterError names it. No
        log box holds a lag, gain or decay constant <= 0 (a positive kernel
        gain maps to a negative lag): such a seed has no search point.

        A +inf value pins a lag coordinate at the saturated top of its log
        box, where the lag constant equals the upper bound hi: the lag rate
        there is 1/hi, not 0 (1e-6 for a bound of 1e6), so the exact-inf
        reduction lies outside the box and the seed only approximates it. A
        finite value outside [lo, hi] is clamped to the nearer box edge.
        Either way the seed is inexact. When every value lies inside the box
        it reproduces the seed's performance up to the rounding of the box
        transform (a value can come back a few ulps off). A kernel side maps to
        lag rates r_j = -(w_j * tau5), so it also moves by the rounding of
        1/(1/r_j).
        """
        vals = [seed.p0, seed.k1, seed.k2]
        for name, side in (("fitness", seed.fitness), ("fatigue", seed.fatigue)):
            if isinstance(side, KernelParams) and self.row.side is not KernelParams:
                if side.tau5 > 0.0:  # negative lags; dropped here, before the mapping warns
                    return None
                side = kernel_to_three_delay(side)
            fields = _field_dict(side)
            for field, value in fields.items():  # a lag the fit lacks is held at +inf
                if field not in self.fitted and value != self.row.side._fields.get(field, math.inf):
                    raise ParameterError(f"seed {name} {field} is {_shown(value)}, which a "
                                         f"{self.variant} fit does not search")
            vals += [fields.get(f, 0.0 if f == "tau5" else math.inf) for f in self.fitted]
        if self.fix_p0 is not None:
            del vals[0]
        if any(c.of is math.log and not v > 0.0 for c, v in zip(self.coords, vals)):
            return None
        return [c.z_of(v) for c, v in zip(self.coords, vals)]


# ---------------------------------------------------------------------------
# Multi-start driver
# ---------------------------------------------------------------------------


def _latin_hypercube(seed: int, n_starts: int, dims: int) -> list[tuple[float, ...]]:
    """``n_starts`` points of the unit cube, one in each stratum [k/n, (k+1)/n) of each dimension."""
    import numpy as np

    rng = np.random.default_rng(seed)
    columns = [((rng.permutation(n_starts) + rng.random(n_starts)) / n_starts).tolist()
               for _ in range(dims)]
    return list(zip(*columns))


class _StartRecord(_Record):
    """One start's outcome: its place in the start list, best point and SSE."""

    index: int
    z: tuple[float, ...]
    sse: float
    iterations: int
    converged: bool


def _run_start(problem: _FitProblem, index: int, z0, config: FitConfig) -> _StartRecord | None:
    """Nelder-Mead from z0, then a polish restart; None if the SSE at z0 is not finite."""
    try:
        z, sse, iterations, converged = nelder_mead(problem.sse, z0, config)
    except ParameterError:
        return None
    budget = config.max_iterations - iterations
    if budget > 0:
        polish_config = FitConfig(**{**_field_dict(config), "max_iterations": budget})
        # taken as is: it starts at z, worth sse, and the simplex never ends worse
        z, sse, iterations2, converged2 = nelder_mead(problem.sse, z, polish_config, step=0.02)
        iterations += iterations2
        converged = converged or converged2
    return _StartRecord(index, z, sse, iterations, converged)


def fit_variant(
    w: LoadSeries,
    obs: ObservationSet,
    bounds: ParamBounds,
    config: FitConfig,
    variant: str = "single_delay",
    extra_starts: Sequence[ModelParams] = (),
) -> VariantFit:
    """Fit the performance model with the given state-model variant.

    ``extra_starts`` are parameter sets (a :class:`VariantFit` is one) of this
    variant or of a variant it contains, tried in order ahead of the sampled
    starts and mapped into the search space by ``_FitProblem.embed``. A seed
    with no representation in the box is dropped before the starts are
    numbered, so ``best_start_index`` counts only the seeds kept. A start
    whose objective is not finite is skipped, keeps its number and counts as
    not converged. ParameterError when no start is usable or a seed sets a
    field the fit holds fixed to another value.
    """
    problem = _FitProblem(variant_row(variant), w, obs, bounds, config.fix_p0)
    n_free = len(problem.coords)
    starts = [z for z in map(problem.embed, extra_starts) if z is not None]
    starts += [list(map(_logit, u)) for u in _latin_hypercube(config.seed, config.starts, n_free)]
    runs = (_run_start(problem, index, z0, config) for index, z0 in enumerate(starts))
    records = [record for record in runs if record is not None]
    if not records:
        raise ParameterError("no usable start point: the objective is not finite at any start")
    best = min(records, key=lambda record: record.sse)  # the first of equal SSEs

    predicted = tuple(_performance(problem.wv, *problem.decode(best.z), len(w)))

    warnings_out = []
    if len(obs) < n_free:
        warnings_out.append(_WARN_UNDERDETERMINED)
    if all(v == 0.0 for v in problem.wv):
        warnings_out.append(_WARN_ZERO_LOAD)
    try:
        r2 = r_squared(predicted, obs)
    except MetricError:
        r2 = math.nan
        warnings_out.append(_WARN_ZERO_VARIANCE)

    return VariantFit(
        **_field_dict(problem.params(best.z)),
        n_free=n_free,
        sse=best.sse,
        r2=r2,
        predicted=predicted,
        starts_converged=sum(record.converged for record in records),
        best_start_index=best.index,
        iterations_used=best.iterations,
        warnings=tuple(warnings_out),
    )


def compare_variants(
    w: LoadSeries,
    obs: ObservationSet,
    bounds: ParamBounds,
    config: FitConfig,
) -> list[VariantFit]:
    """Fit all four variants on the same data.

    Every variant's start list is seeded with the fits of the variants it
    contains as parameter specializations (classical for all; classical and
    single_delay and kernel for three_delay), with the extra delay terms
    switched off. The simplex never returns a value worse than its start, so a
    containing variant cannot report a worse SSE, up to the rounding of the box
    transform, than a contained fit whose seed ``_FitProblem.embed`` maps
    inside the box: kernel from classical (tau5 = 0), and three_delay from
    kernel when the mapped lags lie inside the lag box. Every other seed is
    inexact in the way ``_FitProblem.embed`` states; with a lag upper bound of
    1e6 a richer variant can end measurably worse than the variant it contains.
    """
    by_name = {"classical": fit_variant(w, obs, bounds, config, "classical")}
    for variant, contained in (
        ("single_delay", ("classical",)),
        ("kernel", ("classical",)),
        ("three_delay", ("classical", "single_delay", "kernel")),
    ):
        seeds = [by_name[name] for name in contained]
        by_name[variant] = fit_variant(w, obs, bounds, config, variant, extra_starts=seeds)
    return [by_name[v] for v in VARIANTS]
