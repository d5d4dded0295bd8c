"""Discrete-time fitness/fatigue state models and the performance combination.

Four state-model variants over a daily grid, all driven by a non-negative
training-load series w with w(0) = 0 and zero initial history. They share two
recursion shapes, with a = e^{-1/tau_decay}: the one-lag
g(k+1) = [w(k) + g(k) - r g(k-1)] a and the three-lag
g(k+1) = [w(k) + g(k) - r1 g(k-1) - r2 g(k-2) - r3 g(k-3)] a. Each variant
runs one of them at its own lag rates:

* classical     -- exponential accumulation of load: one-lag at r = 0.0
* single_delay  -- a 1-day-delayed self-term: one-lag at r = 1/tau_lag1
* three_delay   -- self-terms at lags 1, 2, 3 days: three-lag at r_j = 1/tau_lag_j
* kernel        -- weighted 3-lag memory with a signed gain tau5: three-lag
  at r_j = -(w_j * tau5)

``VARIANT_TABLE`` names each variant's side-parameter class (the parameters
of one state model, fitness or fatigue) and its ``ffdelay simulate`` flags;
``ModelParams`` is the performance model p = p0 + k1 g - k2 h of any variant,
and ``predict_performance`` runs it forward. The fit's inputs are records here
too: ``ObservationSet`` (measured performance), ``ParamBounds`` and
``FitConfig``; only the fitter itself is in ``ffdelay.estimation``.

Each shape has two kinds of kernel. A path kernel (``*_path``) returns one
side's state trajectory; the public ``eval_*_recursive`` operations run them.
A performance kernel (``*_performance``) advances a variant's fitness and
fatigue states together and returns p over one walk of the load;
``predict_performance`` and ``estimation``'s fit objective run those. A
third performance kernel, ``no_lag_performance``, runs every model whose
lag rates are all zero (classical, and the lag-free reductions below): it is
the one-lag shape without its r g(k-1) term, which is exactly 0.0 while the
state is finite. So a performance kernel and the path kernels of its shape
agree bit for bit while the states are finite, and reach their first
non-finite day together; every other kernel does its path kernel's
floating-point operations in the same order. One private rule,
``_side_args``, maps a side to its kernels' arguments (the decay constant and
rates above); ``_performance`` picks its kernel by those rates, not a variant.

Every variant also has an algebraically equivalent second form, the explicit
exponentially weighted history sum ("convolution" form)
g(n) = sum_{i<n} c(i) e^{-(n-i)/tau_decay} with c(i) = w(i) - sum_j r_j g(i-j).
It is one function, ``_convolution``, at the rates ``_side_args`` gives;
``eval_classical`` and the ``eval_*_convolution`` check routes run it. Its
equality with the recursion is a tested invariant, not an assumption.

Lag time constants use ``math.inf`` as the exact "no lag term" sentinel
(1/inf == 0.0), so reductions between variants are exact rather than
approximate. A function here changes neither its arguments nor module state,
so it is safe to call concurrently; ``kernel_to_three_delay`` also issues a
``UserWarning`` for a positive kernel gain. numpy is imported only inside
``_convolution``, so simulating a variant never loads it.
"""

from __future__ import annotations

import math
import warnings
from itertools import chain, repeat
from numbers import Real

from .errors import ObservationError, ParameterError, SeriesLengthError

INF = math.inf


def _shown(value, form=repr) -> str:
    """``form(value)`` for an error message about a caller's value. A value
    holding an int of more digits than Python converts to text (4,300 by
    default) shows as its type name, so the message is still raised."""
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} too large to print>"


def _as_real(value, name: str, error: type = ParameterError):
    # any real number type (numpy's too) a double holds, never a bool or a string; stored unchanged
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {_shown(value)}")
    try:
        float(value)
    except OverflowError:  # an int beyond the double range; its str may fail too
        raise error(f"{name} must be a real number within the double range") from None
    return value


def _as_finite(value, name: str, error: type = ParameterError):
    if not math.isfinite(_as_real(value, name, error)):
        raise error(f"{name} must be finite, got {_shown(value)}")
    return value


def _as_positive(value, name: str, error: type = ParameterError):
    if not (math.isfinite(_as_real(value, name, error)) and value > 0.0):
        raise error(f"{name} must be finite and > 0, got {_shown(value)}")
    return value


def _as_int(value, name: str, error: type = ParameterError, least: int | None = None) -> int:
    # any integer type (numpy's too), never a bool, a float or a string
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise error(f"{name} must be an integer, got {_shown(value)}")
    value = int(value)
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, got {_shown(value)}")
    return value


def _as_reals(values, name: str, error: type = ParameterError) -> tuple[float, ...]:
    # _as_real's rule, checked on the set of element types; a string is one value, not a
    # sequence, and a mapping or a set (its keys, in no given order) is none either
    if not isinstance(values, (tuple, list)):
        from collections.abc import Mapping, Set

        if isinstance(values, (str, bytes, Mapping, Set)) or not hasattr(values, "__iter__"):
            raise error(f"{name} must be a sequence of real numbers, got {_shown(values)}")
    values = tuple(values)
    types = set(map(type, values))
    if bool not in types and all(issubclass(t, Real) for t in types):
        try:
            return tuple(map(float, values))
        except OverflowError:  # an int beyond the double range, named below
            pass
    # only a failing sequence is walked, to name its first bad element
    for i, v in enumerate(values):
        _as_real(v, f"{name}[{i}]", error)


def _as_series(values, name: str) -> tuple[float, ...]:
    """A daily series from day 0: at least one day, every day finite, day 0 zero."""
    vals = _as_reals(values, name)
    if not vals:
        raise ParameterError(f"{name} series must contain at least one day")
    # checked at C speed; only a failing series is walked to name its day
    if not all(map(math.isfinite, vals)):
        day = next(i for i, v in enumerate(vals) if not math.isfinite(v))
        raise ParameterError(f"{name} at day {day} is not finite: {vals[day]!r}")
    if vals[0] != 0.0:
        raise ParameterError(f"{name} at day 0 must be 0, got {vals[0]!r}")
    return vals


def _check_lag(tau: float, name: str, allow_negative: bool = False) -> None:
    if _as_real(tau, name) == INF:
        return
    if math.isnan(tau) or tau == -INF or tau == 0.0:
        raise ParameterError(f"{name} must be nonzero and not NaN (or +inf), got {_shown(tau)}")
    if not allow_negative and tau < 0.0:
        raise ParameterError(f"{name} must be > 0 or +inf, got {_shown(tau)}")
    x = float(tau)  # a ratio such as a Fraction can round to 0.0
    if x == 0.0 or math.isinf(1.0 / x):
        raise ParameterError(f"{name} is too small: its lag rate 1/{name} overflows, "
                             f"got {_shown(tau)}")


def _lag_rate(tau: float) -> float:
    """The coefficient 1/tau, exactly 0.0 for the +inf sentinel."""
    return 0.0 if tau == INF else 1.0 / tau


# ---------------------------------------------------------------------------
# Frozen records: the value types of every ffdelay module. One plain base
# class, so defining a record costs no generated source.
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a field that has none


class _Record:
    """An immutable value type over the annotated fields of its subclasses.

    A subclass's fields are the annotated names of its class body, a base
    record's first; a field's class-level value is its default.
    ``cls._fields`` maps each field name, in order, to its default
    (``_REQUIRED`` if it has none). A record is constructed from its fields
    positionally or by keyword, stores them and then runs ``__post_init__``;
    it is equal to and hashes as a record of its own class with the same
    field values; its repr is ``Name(field=value, ...)``; and assigning or
    deleting an attribute raises AttributeError. A ``__post_init__`` that
    normalizes a field stores it with ``object.__setattr__``.
    """

    _fields = {}

    def __init_subclass__(cls) -> None:
        table = dict(cls._fields)
        for name in cls.__annotations__:  # the class's own annotations only
            table[name] = cls.__dict__.get(name, _REQUIRED)
        cls._fields = table

    def __init__(self, *args, **kwargs) -> None:
        self.__dict__.update(zip(self._fields, _bind(type(self), args, kwargs)))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _field_values(self) == _field_values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(_field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_shown(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _bind(cls: type, args: tuple, kwargs: dict) -> list:
    """The field values, in order, of a call ``cls(*args, **kwargs)``."""
    table = cls._fields
    name = cls.__name__
    if len(args) > len(table):
        raise TypeError(f"{name}() takes {len(table)} arguments but {len(args)} were given")
    given = dict(zip(table, args))
    for key, value in kwargs.items():
        if key not in table:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in given:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        given[key] = value
    values = []
    for key, default in table.items():
        value = given.get(key, default)
        if value is _REQUIRED:
            raise TypeError(f"{name}() missing required argument {key!r}")
        values.append(value)
    return values


def _field_values(record) -> tuple:
    """The field values of a record, in field order."""
    return tuple([getattr(record, name) for name in record._fields])


def _field_dict(record) -> dict:
    """The fields of a record as a mapping from name to value, in field order."""
    return {name: getattr(record, name) for name in record._fields}


class LoadSeries(_Record):
    """Daily training-load impulses w(0..N-1), day 0 first.

    Values are unit-agnostic (TRIMP, kJ, ...). Construction enforces the
    modelling assumptions: every value finite and non-negative, and w(0) = 0.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = _as_series(self.values, "load")
        object.__setattr__(self, "values", vals)
        if min(vals) < 0.0:
            day = next(i for i, v in enumerate(vals) if v < 0.0)
            raise ParameterError(f"load at day {day} is negative: {vals[day]!r}")

    def __len__(self) -> int:
        return len(self.values)


class StateSeries(_Record):
    """A fitness/fatigue state trajectory g(0..N-1)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_series(self.values, "state"))

    def __len__(self) -> int:
        return len(self.values)


class FirstOrderParams(_Record):
    """Classical model parameter: decay time constant in days."""

    tau_decay: float

    def __post_init__(self) -> None:
        _as_positive(self.tau_decay, "tau_decay")


class SingleDelayParams(_Record):
    """Decay constant plus a 1-day lag constant (+inf disables the lag term)."""

    tau_decay: float
    tau_lag1: float = INF

    def __post_init__(self) -> None:
        _as_positive(self.tau_decay, "tau_decay")
        _check_lag(self.tau_lag1, "tau_lag1")


class ThreeDelayParams(_Record):
    """Decay constant plus lag constants for delays of 1, 2 and 3 days.

    Lag constants are normally positive or +inf, but any nonzero finite value
    whose rate 1/tau is a finite double (|tau| above about 5.6e-309) is
    accepted: ``kernel_to_three_delay`` with a positive kernel gain maps to
    negative lag constants, and the recursion stays perfectly well defined.
    """

    tau_decay: float
    tau_lag1: float = INF
    tau_lag2: float = INF
    tau_lag3: float = INF

    def __post_init__(self) -> None:
        _as_positive(self.tau_decay, "tau_decay")
        _check_lag(self.tau_lag1, "tau_lag1", allow_negative=True)
        _check_lag(self.tau_lag2, "tau_lag2", allow_negative=True)
        _check_lag(self.tau_lag3, "tau_lag3", allow_negative=True)


class KernelParams(_Record):
    """Weighted-memory variant: signed gain ``tau5`` (1/day^2) and 3 lag weights."""

    tau_decay: float
    tau5: float
    weights: tuple[float, float, float] = (0.5, 0.3, 0.2)

    def __post_init__(self) -> None:
        _as_positive(self.tau_decay, "tau_decay")
        _as_finite(self.tau5, "tau5")
        w = _as_reals(self.weights, "weights")
        object.__setattr__(self, "weights", w)
        if len(w) != 3:
            raise ParameterError("weights must be a triple (lag-1, lag-2, lag-3)")
        for x in w:
            if not (0.0 < x < 1.0):
                raise ParameterError(f"each kernel weight must lie in (0, 1), got {x!r}")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ParameterError(f"kernel weights must sum to 1, got {sum(w)!r}")


class Variant(_Record):
    """One row of the variant table.

    ``side`` is the variant's side-parameter class; its fields, in order,
    are the keys of a side in a params document. ``flags`` names the
    ``ffdelay simulate`` flag of each leading field. Those fields are the
    fitted search coordinates; a field after them (the kernel weights) keeps
    its default in a fit.
    """

    name: str
    side: type
    flags: tuple[str, ...]

    @property
    def fitted(self) -> tuple[str, ...]:
        return tuple(self.side._fields)[: len(self.flags)]

    @property
    def fixed(self) -> tuple:
        """Default values of the fields a fit leaves alone."""
        return tuple(self.side._fields.values())[len(self.flags):]


VARIANT_TABLE = {
    row.name: row
    for row in (
        Variant("classical", FirstOrderParams, ("tau1",)),
        Variant("single_delay", SingleDelayParams, ("tau1", "tau2")),
        Variant("three_delay", ThreeDelayParams, ("tau1", "tau2", "tau3", "tau4")),
        Variant("kernel", KernelParams, ("tau1", "tau5")),
    )
}
VARIANTS = tuple(VARIANT_TABLE)


def variant_row(name: str) -> Variant:
    """The table row of variant ``name``; ParameterError for an unknown name."""
    if not (isinstance(name, str) and name in VARIANT_TABLE):
        raise ParameterError(
            f"unknown variant {_shown(name)}; valid variants: {', '.join(VARIANTS)}"
        )
    return VARIANT_TABLE[name]


class ModelParams(_Record):
    """Performance model of any variant: p(n) = p0 + k1 * g(n) - k2 * h(n).

    ``fitness`` drives g and ``fatigue`` drives h; both are instances of the
    variant's side-parameter class.
    """

    variant: str
    p0: float
    k1: float
    k2: float
    fitness: FirstOrderParams | SingleDelayParams | ThreeDelayParams | KernelParams
    fatigue: FirstOrderParams | SingleDelayParams | ThreeDelayParams | KernelParams

    def __post_init__(self) -> None:
        variant_row(self.variant)
        _as_finite(self.p0, "p0")
        _as_positive(self.k1, "k1")
        _as_positive(self.k2, "k2")
        _check_side(self.variant, self.fitness, "fitness")
        _check_side(self.variant, self.fatigue, "fatigue")


def _check_side(variant: str, side, name: str) -> None:
    """ParameterError unless ``side`` is an instance of ``variant``'s side class."""
    cls = variant_row(variant).side
    if not isinstance(side, cls):
        raise ParameterError(f"{variant} {name} must be {cls.__name__}, got {type(side).__name__}")


def _check_horizon(w: LoadSeries, horizon: int, name: str = "horizon") -> int:
    horizon = _as_int(horizon, name, least=1)
    if horizon > len(w):
        raise SeriesLengthError(f"{name} {_shown(horizon)} exceeds load series length {len(w)}")
    return horizon


def _pairs(entries) -> list[tuple]:
    """The entries as (day, value) pairs; a str or bytes is one value, never a pair."""
    def items(x, n: int | None = None) -> tuple:
        t = None if isinstance(x, (str, bytes)) or not hasattr(x, "__iter__") else tuple(x)
        if t is None or n is not None and len(t) != n:
            raise ObservationError(f"observations must be (day, value) pairs, got {_shown(x)}")
        return t

    return [items(entry, 2) for entry in items(entries)]


class ObservationSet(_Record):
    """Sparse (day, performance) measurements, normalized to increasing day."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        norm = []
        for day, value in _pairs(self.entries):
            d = _as_int(day, "observation day", ObservationError, least=0)
            name = f"observation at day {_shown(d)}"
            norm.append((d, float(_as_finite(value, name, ObservationError))))
        norm.sort(key=lambda e: e[0])
        if not norm:
            raise ObservationError("observation set must not be empty")
        for (d1, _), (d2, _) in zip(norm, norm[1:]):
            if d1 == d2:
                raise ObservationError(f"duplicate observation day {_shown(d1)}")
        object.__setattr__(self, "entries", tuple(norm))

    @property
    def days(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _box_scale(name: str) -> tuple:
    """The maps (to, of) from and onto the scale a fit searches box ``name`` on."""
    return (float, float) if name in ("p0", "tau5") else (math.exp, math.log)


def _check_bound_pair(name: str, pair) -> tuple[float, float]:
    try:
        lo, hi = _as_reals(pair, name)
    except (ParameterError, ValueError):  # not two real numbers
        message = f"bounds for {name} must be two numbers, got {_shown(pair)}"
        raise ParameterError(message) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"bounds for {name} must be finite, got {_shown(pair)}")
    if not lo < hi:
        raise ParameterError(f"bounds for {name} must satisfy lower < upper, got {_shown(pair)}")
    if math.isinf(hi - lo):  # every search point would decode to the top of the box
        raise ParameterError(f"bounds for {name} are too far apart, got {_shown(pair)}")
    _, of = _box_scale(name)
    if lo <= 0.0 and of is math.log:
        raise ParameterError(f"bounds for {name} must be strictly positive, got {_shown(pair)}")
    if not of(hi) - of(lo) > 0.0:  # ends that share one log: nothing between them to search
        raise ParameterError(f"bounds for {name} have no width on a log scale, got {_shown(pair)}")
    return (lo, hi)


class ParamBounds(_Record):
    """Box bounds for every fittable parameter.

    tau1/tau3 bound the fitness/fatigue decay constants, tau2/tau4 their lag
    constants (reused for all three lags of a three-delay side), tau5 the
    signed kernel gain. Lag upper bounds default very high so that a fitted
    delay term can shrink to numerical irrelevance, letting the richer
    variants come within a lag rate of 1/hi of the classical model inside
    the box; the exact reduction (rate 0) lies outside any finite box. A box
    needs a positive, finite width on the scale ``_box_scale`` gives it.
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
        for name in self._fields:
            object.__setattr__(self, name, _check_bound_pair(name, getattr(self, name)))


class FitConfig(_Record):
    """Multi-start and termination settings for :func:`fit_variant`."""

    starts: int = 20
    max_iterations: int = 2500
    tolerance: float = 1e-9
    simplex_tolerance: float = 1e-7
    seed: int = 0
    fix_p0: float | None = None

    def __post_init__(self) -> None:
        for name, least in (("starts", 1), ("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, least=least))
        for name in ("tolerance", "simplex_tolerance"):  # > 0 admits +inf
            if not _as_real(getattr(self, name), name) > 0.0:
                raise ParameterError(f"{name} must be > 0, got {_shown(getattr(self, name), str)}")
        if self.fix_p0 is not None:
            _as_finite(self.fix_p0, "fix_p0")


# ---------------------------------------------------------------------------
# Raw trajectory kernels. These operate on plain sequences and field values,
# not LoadSeries or side objects. The per-side path kernels power the public
# operations below; the performance kernels after them advance both sides of
# a variant and combine them in one pass, for forecasts and fit objectives.
# The history sum has no kernel here: ``_convolution``, beside ``_recursive``,
# runs it for every variant at the rates ``_side_args`` gives.
# Arithmetic ordering inside the recursions is mirrored by the fine-grid
# integrator so that its m=1 reduction is bit-identical.
# ---------------------------------------------------------------------------


# Loop shape: they iterate w[:horizon - 1] (a slice runs faster than islice) and
# call list.append as a method, which CPython 3.11+ specialises and an alias
# skips; the arithmetic stays as written for the oracle's m=1 bit-identity. The
# three-lag performance kernel advances four days per pass: each new state
# overwrites the oldest, so g(k) .. g(k-3) take turns in four variables and
# none is copied per day. Callers check horizon <= len(w) (a slice would not).


def single_delay_path(w, tau_decay: float, lag_rate1: float, horizon: int) -> list[float]:
    a = math.exp(-1.0 / tau_decay)
    g = [0.0]
    gk = g1 = 0.0  # g(k), g(k-1)
    for wk in w[:horizon - 1]:
        g1, gk = gk, (wk + gk - lag_rate1 * g1) * a
        g.append(gk)
    return g


def three_delay_path(
    w, tau_decay: float, lag_rate1: float, lag_rate2: float, lag_rate3: float, horizon: int
) -> list[float]:
    a = math.exp(-1.0 / tau_decay)
    g = [0.0]
    gk = g1 = g2 = g3 = 0.0  # g(k), g(k-1), g(k-2), g(k-3)
    for wk in w[:horizon - 1]:
        nxt = (wk + gk - lag_rate1 * g1 - lag_rate2 * g2 - lag_rate3 * g3) * a
        g.append(nxt)
        g3, g2, g1 = g2, g1, gk
        gk = nxt
    return g


# Performance kernels: p = p0 + k1 g - k2 h over one walk of w. ``fitness``
# and ``fatigue`` are the arguments the same shape's path kernel takes between
# w and horizon, and each state advances by that kernel's expression, so g and
# h equal its two paths bit for bit. The combine groups the state terms first
# so that k1 == k2 with identical sides gives exactly p0 (the gains cancel
# before the baseline is touched).


def no_lag_performance(
    w, p0: float, k1: float, k2: float, fitness: tuple, fatigue: tuple, horizon: int
) -> list[float]:
    # sides whose lag rates are all zero: the one-lag expression without its
    # r * g(k-1) term, which is exactly 0.0 while g is finite (x - 0.0 == x)
    a = math.exp(-1.0 / fitness[0])
    b = math.exp(-1.0 / fatigue[0])
    p = [p0 + (k1 * 0.0 - k2 * 0.0)]
    g = h = 0.0
    for wk in w[:horizon - 1]:
        g = (wk + g) * a
        h = (wk + h) * b
        p.append(p0 + (k1 * g - k2 * h))
    return p


def single_delay_performance(
    w, p0: float, k1: float, k2: float, fitness: tuple, fatigue: tuple, horizon: int
) -> list[float]:
    tau_g, rate_g = fitness
    tau_h, rate_h = fatigue
    a = math.exp(-1.0 / tau_g)
    b = math.exp(-1.0 / tau_h)
    p = [p0 + (k1 * 0.0 - k2 * 0.0)]
    g = g1 = h = h1 = 0.0  # g(k), g(k-1), h(k), h(k-1)
    for wk in w[:horizon - 1]:
        g1, g = g, (wk + g - rate_g * g1) * a
        h1, h = h, (wk + h - rate_h * h1) * b
        p.append(p0 + (k1 * g - k2 * h))
    return p


def three_delay_performance(
    w, p0: float, k1: float, k2: float, fitness: tuple, fatigue: tuple, horizon: int
) -> list[float]:
    tau_g, r1g, r2g, r3g = fitness
    tau_h, r1h, r2h, r3h = fatigue
    a = math.exp(-1.0 / tau_g)
    b = math.exp(-1.0 / tau_h)
    p = [p0 + (k1 * 0.0 - k2 * 0.0)]
    # g0..g3 hold g(k)..g(k-3) again after each pass; zero-load days pad the
    # last pass and the days they add are cut off
    g0 = g1 = g2 = g3 = h0 = h1 = h2 = h3 = 0.0
    days = chain(w[:horizon - 1], repeat(0.0, 3))
    for w0, w1, w2, w3 in zip(days, days, days, days):
        g3 = (w0 + g0 - r1g * g1 - r2g * g2 - r3g * g3) * a
        h3 = (w0 + h0 - r1h * h1 - r2h * h2 - r3h * h3) * b
        p.append(p0 + (k1 * g3 - k2 * h3))
        g2 = (w1 + g3 - r1g * g0 - r2g * g1 - r3g * g2) * a
        h2 = (w1 + h3 - r1h * h0 - r2h * h1 - r3h * h2) * b
        p.append(p0 + (k1 * g2 - k2 * h2))
        g1 = (w2 + g2 - r1g * g3 - r2g * g0 - r3g * g1) * a
        h1 = (w2 + h2 - r1h * h3 - r2h * h0 - r3h * h1) * b
        p.append(p0 + (k1 * g1 - k2 * h1))
        g0 = (w3 + g1 - r1g * g2 - r2g * g3 - r3g * g0) * a
        h0 = (w3 + h1 - r1h * h2 - r2h * h3 - r3h * h0) * b
        p.append(p0 + (k1 * g0 - k2 * h0))
    del p[horizon:]
    return p


# ---------------------------------------------------------------------------
# The variant rule: each variant's side runs one shape at its own lag rates.
# The kernel recursion g(k+1) = [w(k) + g(k) + tau5 (w1 g(k-1) + w2 g(k-2) +
# w3 g(k-3))] a is the three-lag shape at rates r_j = -(w_j * tau5), so it has
# no loop of its own. It matches that literal expression up to rounding only:
# each weighted state is scaled by tau5 apart instead of their sum.
# ---------------------------------------------------------------------------


def _side_args(variant: str, side: tuple) -> tuple:
    """A side's shape-kernel arguments from its field values in order: the
    decay constant, then the lag rates (0.0 for classical, 1/tau_lag_j for the
    lag variants, -(w_j * tau5) for kernel). One rate is the one-lag shape,
    three the three-lag shape."""
    if variant == "classical":
        return (side[0], 0.0)
    if variant == "kernel":
        return (side[0], *[-(x * side[1]) for x in side[2]])
    return (side[0], *map(_lag_rate, side[1:]))


def _performance(wv, p0: float, k1: float, k2: float, fitness: tuple, fatigue: tuple,
                 horizon: int) -> list[float]:
    """p0 + k1*g - k2*h in one pass; each side is its ``_side_args``, of any variant."""
    if not any(fitness[1:] + fatigue[1:]):  # classical, or a lag-free reduction
        fused = no_lag_performance
    elif len(fitness) == 2:
        fused = single_delay_performance
    else:
        fused = three_delay_performance
    return fused(wv, p0, k1, k2, fitness, fatigue, horizon)


def kernel_path(w, tau_decay: float, tau5: float, weights, horizon: int) -> list[float]:
    return three_delay_path(w, *_side_args("kernel", (tau_decay, tau5, weights)), horizon)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _recursive(variant: str, w: LoadSeries, params, horizon: int) -> StateSeries:
    """A side's state path by the step recursion of its shape: the path kernel
    is picked by rate count, as ``_performance`` picks the fused kernel."""
    _check_side(variant, params, "params")
    horizon = _check_horizon(w, horizon)
    args = _side_args(variant, _field_values(params))
    path = single_delay_path if len(args) == 2 else three_delay_path
    return StateSeries(path(w.values, *args, horizon))


def _convolution(variant: str, w: LoadSeries, params, horizon: int) -> StateSeries:
    """A side's state path as the explicit history sum of its shape at the
    rates ``_side_args`` gives: g(n) = sum_{i=1}^{n-1} c(i) e^{-(n-i)/tau} with
    c(i) = w(i) - sum_j r_j g(i-j) and zero history before day 0. It reaches the
    step recursion's states by other arithmetic, so it is a check route for it."""
    import numpy as np

    _check_side(variant, params, "params")
    horizon = _check_horizon(w, horizon)
    tau, *rates = _side_args(variant, _field_values(params))
    wv = w.values
    g = [0.0] * horizon
    c = np.zeros(horizon)  # c[i], defined for i >= 1
    # d / tau beyond a double makes e^{-inf}, exactly 0; a state beyond a double
    # is left to StateSeries, which refuses it as the recursion routes do
    with np.errstate(over="ignore", invalid="ignore"):
        decay = np.exp(-np.arange(horizon, dtype=float) / tau)  # decay[d] = e^{-d/tau}
        for i in range(1, horizon - 1):
            ci = wv[i]
            for j, r in enumerate(rates[:i], 1):  # lag 1 first; lags before day 0 add nothing
                ci -= r * g[i - j]
            c[i] = ci
            g[i + 1] = float(np.dot(c[1:i + 1], decay[i:0:-1]))
    return StateSeries(g)


def eval_classical(w: LoadSeries, params: FirstOrderParams, horizon: int) -> StateSeries:
    """Evaluate the classical first-order model as the explicit history sum
    g(n) = sum_{i=1}^{n-1} w(i) e^{-(n-i)/tau} (the history sum at rate 0.0)."""
    return _convolution("classical", w, params, horizon)


def eval_single_delay_recursive(
    w: LoadSeries, params: SingleDelayParams, horizon: int
) -> StateSeries:
    """One-day-lag model via the step recursion
    g(k+1) = [w(k) + g(k) - (1/tau_lag1) g(k-1)] e^{-1/tau_decay}."""
    return _recursive("single_delay", w, params, horizon)


def eval_single_delay_convolution(
    w: LoadSeries, params: SingleDelayParams, horizon: int
) -> StateSeries:
    """Same model as :func:`eval_single_delay_recursive`, evaluated as the
    explicit history sum g(n) = sum_{i=1}^{n-1} [w(i) - (1/tau_lag1) g(i-1)] e^{-(n-i)/tau}.

    An independent arithmetic route to the same trajectory; the two must agree
    to 1e-9 relative (tested invariant).
    """
    return _convolution("single_delay", w, params, horizon)


def eval_three_delay_recursive(
    w: LoadSeries, params: ThreeDelayParams, horizon: int
) -> StateSeries:
    """Three-lag model via the step recursion with zero history on [-3, 0]."""
    return _recursive("three_delay", w, params, horizon)


def eval_three_delay_convolution(
    w: LoadSeries, params: ThreeDelayParams, horizon: int
) -> StateSeries:
    """Same model as :func:`eval_three_delay_recursive`, evaluated as the
    explicit history sum g(n) = sum_{i=1}^{n-1} [w(i) - sum_j (1/tau_lag_j) g(i-j)] e^{-(n-i)/tau}.

    An independent arithmetic route to the same trajectory; the two must agree
    to 1e-9 relative (tested invariant).
    """
    return _convolution("three_delay", w, params, horizon)


def eval_kernel_recursive(w: LoadSeries, params: KernelParams, horizon: int) -> StateSeries:
    """Weighted-memory model:
    g(k+1) = [w(k) + g(k) + tau5 (w1 g(k-1) + w2 g(k-2) + w3 g(k-3))] e^{-1/tau},
    run as the three-delay recursion at lag rates -(w_j tau5)."""
    return _recursive("kernel", w, params, horizon)


def predict_performance(
    variant: str, p0: float, k1: float, k2: float, fitness, fatigue, w: LoadSeries, horizon: int
) -> tuple[float, ...]:
    """Performance trajectory p0 + k1*g - k2*h for any state-model variant.

    The arguments must form valid :class:`ModelParams` (ParameterError
    otherwise).
    """
    ModelParams(variant, p0, k1, k2, fitness, fatigue)
    horizon = _check_horizon(w, horizon)
    g, h = _side_args(variant, _field_values(fitness)), _side_args(variant, _field_values(fatigue))
    return tuple(_performance(w.values, p0, k1, k2, g, h, horizon))


def kernel_to_three_delay(params: KernelParams) -> ThreeDelayParams:
    """Map kernel parameters onto the equivalent three-delay parameters.

    The kernel recursion is the three-delay recursion at lag rates
    r_j = -(weight_j * tau5), so tau_lag_j = 1/r_j = -1 / (weight_j * tau5);
    the mapped parameters reproduce the kernel path up to the rounding of
    1/(1/r_j). A lag whose rate is zero maps to +inf (the classical
    reduction at tau5 = 0); so does one whose rate underflows to zero or whose
    constant 1/rate overflows, as with a subnormal gain. For tau5 > 0 the
    other mapped lag constants are negative; they are returned verbatim (the
    trajectories still coincide) with a UserWarning flagging the sign-domain
    departure.
    """
    _check_side("kernel", params, "params")
    lags = []
    for rate in _side_args("kernel", _field_values(params))[1:]:
        lag = 1.0 / rate if rate else INF
        lags.append(lag if math.isfinite(lag) else INF)
    if min(lags) < 0.0:
        warnings.warn(
            "positive kernel gain maps to negative lag constants; "
            "trajectories still coincide but the parameters are outside the "
            "physical domain",
            UserWarning,
            stacklevel=2,
        )
    return ThreeDelayParams(params.tau_decay, *lags)

