"""The fitter: least-squares parameter estimation for the performance model.

The objective sum of squared errors over sparse (day, performance)
observations is minimized with a derivative-free Nelder-Mead simplex plus a
seeded multi-start strategy. The search runs in a transformed space: every
positive-constrained parameter (gains and time constants) lives on a
log-scaled box and the baseline and the signed kernel gain tau5 on a linear
box, each reached through a logistic squash, so every candidate the
optimizer can express is feasible and the returned parameters respect their
bounds by construction.

Multi-start points are a stratified (Latin hypercube) sample of the
transformed unit box drawn from a seeded generator; starts are evaluated
sequentially and the winner is the lowest objective value with the lowest
start index as tie-break, so results are bit-reproducible for a given seed.

``fit_variant`` fits one variant and ``compare_variants`` fits all four with
nested seeding. Both read the variant table in :mod:`ffdelay.models`, which
also holds their input records (``ObservationSet``, ``ParamBounds``,
``FitConfig``); this module holds only the fitter. A fit is a driver over one
private problem object, ``_FitProblem``, which holds the coordinates and the
objective, and decodes and embeds search points; each start runs through
``_run_start``, the one caller of ``nelder_mead``. The objective runs the
performance model of :mod:`ffdelay.models`, the same pass as
``predict_performance``.
The simplex, the objective and the start records hold plain Python floats;
numpy only draws the start sample, in ``_latin_hypercube``.
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
    _field_dict,
    _performance,
    _Record,
    _shown,
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


def _sse(p: Sequence[float] | dict[int, float], entries: tuple[tuple[int, float], ...]) -> float:
    try:
        return _total((p[d] - y) ** 2 for d, y in entries)
    except OverflowError:  # a finite residual whose square exceeds a double
        return math.inf


def _obs_horizon(days: int, obs: ObservationSet) -> int:
    """The days a model pass must cover to reach the last observation, a day before ``days``."""
    last = obs.entries[-1][0]
    if last >= days:
        raise ObservationError(f"observation day {_shown(last)} is outside the horizon {days}")
    return last + 1


def _sst(obs: ObservationSet) -> float:
    """R^2's denominator: squares about the mean by ``_sse``'s rule; MetricError if it has none."""
    if len(obs) < 2:
        raise MetricError("need at least 2 observations (R^2 is undefined otherwise)")
    sst = _sse(dict.fromkeys(obs.days, _total(obs.values) / len(obs)), obs.entries)
    if sst == 0.0:
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
    return 1.0 - _sse(predicted, obs.entries) / _sst(obs)


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


class _Coord(_Record):
    """One search coordinate: a bounded box reached via a logistic squash."""

    lo: float
    hi: float
    log_scale: bool

    def value(self, z: float) -> float:
        u = _sigmoid(z)
        if self.log_scale:
            lo = math.log(self.lo)
            v = math.exp(lo + u * (math.log(self.hi) - lo))
        else:
            v = self.lo + u * (self.hi - self.lo)
        # exp(log(x)) and lo + 1.0 * (hi - lo) can round one ulp past an edge
        return min(max(v, self.lo), self.hi)

    def z_of(self, value: float) -> float:
        if value == math.inf:  # pins a lag at the saturated top of its box
            return _Z_SATURATED
        if self.log_scale:
            lo = math.log(self.lo)
            u = (math.log(value) - lo) / (math.log(self.hi) - lo)
        else:
            u = (value - self.lo) / (self.hi - self.lo)
        return _logit(u)


class _FitProblem:
    """One variant's least-squares problem in its search coordinates.

    Everything fixed for a fit is read once here: the coordinate boxes (p0's
    is left out when ``fix_p0`` is given), the load, the observations and the
    horizon they need. ``sse`` is the objective every start minimizes. A
    given ``fix_p0`` is taken as a float, as every fitted value is.
    """

    def __init__(self, row: Variant, w: LoadSeries, obs: ObservationSet,
                 bounds: ParamBounds, fix_p0: float | None) -> None:
        self.horizon = _obs_horizon(len(w), obs)
        self.row, self.variant = row, row.name
        self.fix_p0 = None if fix_p0 is None else float(fix_p0)
        self.wv, self.entries = w.values, obs.entries
        self.fitted, self.fixed = row.fitted, row.fixed
        self.coords = [] if fix_p0 is not None else [_Coord(*bounds.p0, log_scale=False)]
        self.coords += [_Coord(*bounds.k1, log_scale=True), _Coord(*bounds.k2, log_scale=True)]
        for decay_b, lag_b in ((bounds.tau1, bounds.tau2), (bounds.tau3, bounds.tau4)):
            for pname in self.fitted:  # every lag on its side's lag box; tau5 signed, linear
                box = {"tau_decay": decay_b, "tau5": bounds.tau5}.get(pname, lag_b)
                self.coords.append(_Coord(*box, log_scale=pname != "tau5"))
        self.fatigue_at = 3 + len(self.fitted)  # where the fatigue side starts in decode

    def decode(self, z: Sequence[float]) -> tuple:
        """(p0, k1, k2, fitness values, fatigue values) at the search point z."""
        vals = [c.value(zi) for c, zi in zip(self.coords, z)]
        if self.fix_p0 is not None:
            vals.insert(0, self.fix_p0)
        at, fixed = self.fatigue_at, self.fixed
        return vals[0], vals[1], vals[2], (*vals[3:at], *fixed), (*vals[at:], *fixed)

    def sse(self, z: Sequence[float]) -> float:
        """The SSE at the observed days of the model at search point z."""
        p = _performance(self.variant, self.wv, *self.decode(z), self.horizon)
        return _sse(p, self.entries)

    def embed(self, seed: ModelParams) -> list[float] | None:
        """The search point of ``seed``, or None when the box cannot hold it.

        ``seed`` is of this variant or of one it contains. A field its side
        lacks takes its "term off" value: +inf for a lag constant, 0 for the
        kernel gain. A kernel side embeds into the lag variants through
        ``kernel_to_three_delay``. A seed with a value that no log box holds
        (a lag, gain or decay constant <= 0, as a positive kernel gain maps
        to) has no search point.

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
        for side in (seed.fitness, seed.fatigue):
            if isinstance(side, KernelParams) and self.row.side is not KernelParams:
                if side.tau5 > 0.0:  # negative lags; dropped here, before the mapping warns
                    return None
                side = kernel_to_three_delay(side)
            vals += [getattr(side, pname, 0.0 if pname == "tau5" else math.inf)
                     for pname in self.fitted]
        if self.fix_p0 is not None:
            del vals[0]
        if any(c.log_scale and not v > 0.0 for c, v in zip(self.coords, vals)):
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
    not converged; ParameterError when no start is usable.
    """
    problem = _FitProblem(variant_row(variant), w, obs, bounds, config.fix_p0)
    n_free = len(problem.coords)
    starts = [z for z in map(problem.embed, extra_starts) if z is not None]
    u = _latin_hypercube(config.seed, config.starts, n_free)
    starts += [[_logit(ui) for ui in point] for point in u]
    runs = (_run_start(problem, index, z0, config) for index, z0 in enumerate(starts))
    records = [record for record in runs if record is not None]
    if not records:
        raise ParameterError("no usable start point: the objective is not finite at any start")
    best = min(records, key=lambda record: record.sse)  # the first of equal SSEs

    p0, k1, k2, fitness, fatigue = problem.decode(best.z)
    predicted = tuple(_performance(variant, problem.wv, p0, k1, k2, fitness, fatigue, len(w)))

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
        variant=variant,
        p0=p0,
        k1=k1,
        k2=k2,
        fitness=problem.row.side(*fitness),
        fatigue=problem.row.side(*fatigue),
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
