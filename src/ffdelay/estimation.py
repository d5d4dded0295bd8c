"""Least-squares parameter estimation for the performance model.

The objective sum of squared errors over sparse (day, performance)
observations is minimized with a derivative-free Nelder-Mead simplex plus a
seeded multi-start strategy. The search runs in a transformed space: every
positive-constrained parameter (gains and time constants) lives on a
log-scaled box and the baseline on a linear box, each reached through a
logistic squash, so every candidate the optimizer can express is feasible and
the returned parameters respect their bounds by construction.

Multi-start points are a stratified (Latin hypercube) sample of the
transformed unit box drawn from a seeded generator; starts are evaluated
sequentially and the winner is the lowest objective value with the lowest
start index as tie-break, so results are bit-reproducible for a given seed.

``fit_variant`` fits one variant and ``compare_variants`` fits all four with
nested seeding. Both read the variant table in :mod:`ffdelay.models`. A fit
is a driver over one private problem object, ``_FitProblem``, which holds the
coordinates and the objective, and decodes and embeds search points; each
start runs through ``_run_start``, the one caller of ``nelder_mead``. The
objective runs the performance model of :mod:`ffdelay.models`, the same pass
as ``predict_performance`` (defined there, and bound here for
``sse_objective``). numpy is imported only where the optimizer runs: in
``nelder_mead``, the Latin hypercube and ``fit_variant``.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import MetricError, ObservationError, ParameterError
from .models import (
    VARIANTS,
    KernelParams,
    LoadSeries,
    ModelParams,
    Variant,
    _as_int,
    _as_real,
    _field_dict,
    _performance,
    _record,
    kernel_to_three_delay,
    predict_performance,
    variant_row,
)

# Not called here: perfbench/spans.py looks these names up on this module.
from .models import kernel_path, single_delay_path, three_delay_path  # noqa: F401

if TYPE_CHECKING:  # annotations only; numpy is imported where it runs
    import numpy as np

#: Logistic argument at which the squash saturates to exactly 0.0/1.0 in
#: doubles; used to pin a lag coordinate at the top of its box.
_Z_SATURATED = 40.0

_WARN_UNDERDETERMINED = "underdetermined"
_WARN_ZERO_LOAD = "zero-load"
_WARN_ZERO_VARIANCE = "zero-variance-observations"


@_record
class ObservationSet:
    """Sparse (day, performance) measurements, normalized to increasing day."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        norm = []
        for day, value in self.entries:
            d = _as_int(day, "observation day", ObservationError)
            v = float(_as_real(value, f"observation at day {d}", ObservationError))
            if d < 0:
                raise ObservationError(f"observation day must be >= 0, got {day!r}")
            if not math.isfinite(v):
                raise ObservationError(f"observation at day {d} is not finite: {value!r}")
            norm.append((d, v))
        norm.sort(key=lambda e: e[0])
        if not norm:
            raise ObservationError("observation set must not be empty")
        for (d1, _), (d2, _) in zip(norm, norm[1:]):
            if d1 == d2:
                raise ObservationError(f"duplicate observation day {d1}")
        object.__setattr__(self, "entries", tuple(norm))

    @property
    def days(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _check_bound_pair(name: str, pair, positive: bool) -> tuple[float, float]:
    try:
        lo, hi = pair
    except (TypeError, ValueError):  # not iterable, or not two items
        lo = hi = None
    if not all(isinstance(v, Real) and not isinstance(v, bool) for v in (lo, hi)):
        raise ParameterError(f"bounds for {name} must be two numbers, got {pair!r}")
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"bounds for {name} must be finite, got {pair!r}")
    if not lo < hi:
        raise ParameterError(f"bounds for {name} must satisfy lower < upper, got {pair!r}")
    if positive and lo <= 0.0:
        raise ParameterError(f"bounds for {name} must be strictly positive, got {pair!r}")
    return (lo, hi)


@_record
class ParamBounds:
    """Box bounds for every fittable parameter.

    tau1/tau3 bound the fitness/fatigue decay constants, tau2/tau4 their lag
    constants (reused for all three lags of a three-delay side), tau5 the
    signed kernel gain. Lag upper bounds default very high so that a fitted
    delay term can shrink to numerical irrelevance, letting the richer
    variants come within a lag rate of 1/hi of the classical model inside
    the box; the exact reduction (rate 0) lies outside any finite box.
    """

    p0: tuple[float, float] = (0.0, 5000.0)
    k1: tuple[float, float] = (1e-4, 10.0)
    k2: tuple[float, float] = (1e-4, 10.0)
    tau1: tuple[float, float] = (0.5, 500.0)
    tau2: tuple[float, float] = (0.5, 1e12)
    tau3: tuple[float, float] = (0.5, 500.0)
    tau4: tuple[float, float] = (0.5, 1e12)
    tau5: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        for name in self._fields:  # every box but the baseline's and the signed gain's is positive
            positive = name not in ("p0", "tau5")
            object.__setattr__(self, name, _check_bound_pair(name, getattr(self, name), positive))


@_record
class FitConfig:
    """Multi-start and termination settings for :func:`fit_variant`."""

    starts: int = 20
    max_iterations: int = 2500
    tolerance: float = 1e-9
    simplex_tolerance: float = 1e-7
    seed: int = 0
    fix_p0: float | None = None

    def __post_init__(self) -> None:
        for name in ("starts", "max_iterations", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.starts < 1:
            raise ParameterError(f"starts must be >= 1, got {self.starts}")
        if self.max_iterations < 1:
            raise ParameterError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not _as_real(self.tolerance, "tolerance") > 0.0:
            raise ParameterError(f"tolerance must be > 0, got {self.tolerance}")
        if not _as_real(self.simplex_tolerance, "simplex_tolerance") > 0.0:
            raise ParameterError(
                f"simplex_tolerance must be > 0, got {self.simplex_tolerance}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed}")
        if self.fix_p0 is not None and not math.isfinite(_as_real(self.fix_p0, "fix_p0")):
            raise ParameterError(f"fix_p0 must be finite, got {self.fix_p0!r}")


@_record
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


def _sse(p: Sequence[float], entries: tuple[tuple[int, float], ...]) -> float:
    try:
        return sum((p[d] - y) ** 2 for d, y in entries)
    except OverflowError:  # a finite residual whose square exceeds a double
        return math.inf


def _obs_horizon(w: LoadSeries, obs: ObservationSet) -> int:
    """The days a model pass must cover to reach the last observation."""
    last = obs.entries[-1][0]
    if last >= len(w):
        raise ObservationError(f"observation day {last} outside the load horizon {len(w)}")
    return last + 1


def sse_objective(params: ModelParams, w: LoadSeries, obs: ObservationSet) -> float:
    """Sum of squared model-vs-observation errors at the observed days.

    ``inf`` when an error's square exceeds a double, as it can for valid but
    unstable parameters.
    """
    p = predict_performance(
        params.variant, params.p0, params.k1, params.k2,
        params.fitness, params.fatigue, w, _obs_horizon(w, obs),
    )
    return _sse(p, obs.entries)


def r_squared(predicted: Sequence[float], obs: ObservationSet) -> float:
    """Coefficient of determination 1 - SSE/SST, SST about the observation mean.

    1 for a perfect fit, 0 for the mean predictor, negative when worse than
    the mean, ``-inf`` when an error's square exceeds a double. Undefined
    (MetricError) for fewer than two observations or zero observation
    variance.
    """
    if len(obs) < 2:
        raise MetricError("r_squared needs at least two observations")
    if obs.days[-1] >= len(predicted):
        raise ObservationError(
            f"observation day {obs.days[-1]} outside the predicted horizon {len(predicted)}"
        )
    values = obs.values
    mean = sum(values) / len(values)
    sst = sum((y - mean) ** 2 for y in values)
    if sst == 0.0:
        raise MetricError("r_squared undefined: observations have zero variance")
    return 1.0 - _sse(predicted, obs.entries) / sst


# ---------------------------------------------------------------------------
# Nelder-Mead simplex
# ---------------------------------------------------------------------------


def nelder_mead(
    objective: Callable[[np.ndarray], float],
    start: Sequence[float],
    config: FitConfig,
    step: float | Sequence[float] | None = None,
    trace: list[float] | None = None,
) -> tuple[np.ndarray, float, int, bool]:
    """Minimize ``objective`` from ``start`` with the standard simplex moves.

    Non-finite objective values during the search are treated as +inf; a
    non-finite value at the start itself is an input error. Terminates when
    the simplex's value spread drops below ``config.tolerance``, its size
    below ``config.simplex_tolerance``, or after ``config.max_iterations``.

    Returns (best point, best value, iterations, converged). The best vertex
    is never discarded, so the returned value cannot exceed objective(start);
    if ``trace`` is given, the best value per iteration is appended to it.
    """
    import numpy as np

    x0 = np.asarray(start, dtype=float)
    n = x0.size
    if n == 0:
        raise ParameterError("start vector must be non-empty")

    def f(x: np.ndarray) -> float:
        v = float(objective(x))
        return v if math.isfinite(v) else math.inf

    f00 = float(objective(x0))
    if not math.isfinite(f00):
        raise ParameterError(f"objective is not finite at the start point: {f00!r}")

    if step is None:
        steps = np.array([0.05 * max(abs(v), 1.0) for v in x0])
    else:
        steps = np.broadcast_to(np.asarray(step, dtype=float), (n,)).copy()

    verts = np.tile(x0, (n + 1, 1))
    for i in range(n):
        verts[i + 1, i] += steps[i]
    fvals = np.array([f00] + [f(verts[i + 1]) for i in range(n)])

    iterations = 0
    converged = False
    spread_streak = 0
    while iterations < config.max_iterations:
        order = np.argsort(fvals, kind="stable")
        verts = verts[order]
        fvals = fvals[order]
        spread = fvals[-1] - fvals[0]
        size = float(np.max(np.abs(verts[1:] - verts[0])))
        # The spread criterion must hold on two consecutive iterations: a
        # simplex straddling a minimum symmetrically has zero value spread
        # while still step-sized wide, and one more iteration (a contraction)
        # breaks that tie.
        spread_streak = spread_streak + 1 if spread <= config.tolerance else 0
        if spread_streak >= 2 or size <= config.simplex_tolerance:
            converged = True
            break

        iterations += 1
        centroid = verts[:-1].mean(axis=0)
        worst = verts[-1]
        reflected = centroid + (centroid - worst)
        f_r = f(reflected)
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = f(expanded)
            if f_e < f_r:
                verts[-1], fvals[-1] = expanded, f_e
            else:
                verts[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            verts[-1], fvals[-1] = reflected, f_r
        else:
            if f_r < fvals[-1]:
                contracted = centroid + 0.5 * (centroid - worst)
                f_c = f(contracted)
                accept = f_c <= f_r
            else:
                contracted = centroid - 0.5 * (centroid - worst)
                f_c = f(contracted)
                accept = f_c < fvals[-1]
            if accept:
                verts[-1], fvals[-1] = contracted, f_c
            else:
                for i in range(1, n + 1):
                    verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
                    fvals[i] = f(verts[i])
        if trace is not None:
            trace.append(float(np.min(fvals)))

    best = int(np.argmin(fvals))
    return verts[best].copy(), float(fvals[best]), iterations, converged


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


@_record
class _Coord:
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
    horizon they need. ``sse`` is the objective every start minimizes.
    """

    def __init__(self, row: Variant, w: LoadSeries, obs: ObservationSet,
                 bounds: ParamBounds, fix_p0: float | None) -> None:
        self.horizon = _obs_horizon(w, obs)
        self.row, self.variant, self.fix_p0 = row, row.name, fix_p0
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
        vals = [c.value(float(zi)) for c, zi in zip(self.coords, z)]
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
        Either way the seed is inexact; it reproduces the seed's performance
        only when every value lies inside the box. A kernel side maps to lag
        rates r_j = -(w_j * tau5), so even then it is exact only up to the
        rounding of 1/(1/r_j).
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


def _latin_hypercube(rng: np.random.Generator, n_starts: int, dims: int) -> np.ndarray:
    import numpy as np

    u = np.empty((n_starts, dims))
    for i in range(dims):
        perm = rng.permutation(n_starts)
        u[:, i] = (perm + rng.random(n_starts)) / n_starts
    return np.clip(u, 1e-15, 1.0 - 1e-15)


@_record
class _StartRecord:
    """One start's outcome: its place in the start list, best point and SSE."""

    index: int
    z: np.ndarray
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
        z2, sse2, iterations2, converged2 = nelder_mead(problem.sse, z, polish_config, step=0.02)
        if sse2 <= sse:
            z, sse = z2, sse2
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
    import numpy as np

    problem = _FitProblem(variant_row(variant), w, obs, bounds, config.fix_p0)
    n_free = len(problem.coords)
    starts = [z for z in map(problem.embed, extra_starts) if z is not None]
    u = _latin_hypercube(np.random.default_rng(config.seed), config.starts, n_free)
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
    containing variant cannot report a worse SSE than a contained fit whose
    seed ``_FitProblem.embed`` maps exactly: kernel from classical (tau5 = 0),
    and three_delay from kernel when the mapped lags lie inside the lag box.
    Every other seed is inexact in the way ``_FitProblem.embed`` states; with
    a lag upper bound of 1e6 a richer variant can end measurably worse than
    the variant it contains.
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
