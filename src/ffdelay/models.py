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
and ``predict_performance`` runs it forward.

Each shape has two kinds of kernel. A path kernel (``*_path``) returns one
side's state trajectory; the public ``eval_*_recursive`` operations run them.
A performance kernel (``*_performance``) advances a variant's fitness and
fatigue states together and returns p over one walk of the load;
``predict_performance`` and ``estimation``'s fit objective run those. Both
kinds do the same floating-point operations in the same order, so their
results agree bit for bit. One private rule, ``_side_args``, maps a side to
its shape's arguments (the rates above) for every one of these callers.

The delayed variants come in two algebraically equivalent forms: a one-step
recursion and an explicit exponentially-weighted history sum ("convolution"
form). Both are exposed; equality is a tested invariant, not an assumption.

Lag time constants use ``math.inf`` as the exact "no lag term" sentinel
(1/inf == 0.0), so reductions between variants are exact rather than
approximate. All functions here are pure and safe to call concurrently.
numpy is imported only inside the convolution check routes, so simulating a
variant never loads it.
"""

from __future__ import annotations

import math
import warnings
from itertools import islice
from numbers import Real

from .errors import ParameterError, SeriesLengthError

INF = math.inf


def _as_real(value, name: str, error: type = ParameterError):
    # any real number type (numpy's too), never a bool or a string; stored unchanged
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a real number, got {value!r}")
    return value


def _as_int(value, name: str, error: type = ParameterError) -> int:
    # any integer type (numpy's too), never a bool, a float or a string
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_reals(values, name: str, error: type = ParameterError) -> tuple[float, ...]:
    # _as_real's rule, checked on the set of element types; a string is one value, not a sequence
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise error(f"{name} must be a sequence of real numbers, got {values!r}")
    values = tuple(values)
    types = set(map(type, values))
    if bool in types or not all(issubclass(t, Real) for t in types):
        for i, v in enumerate(values):
            _as_real(v, f"{name}[{i}]", error)
    return tuple(map(float, values))


def _check_decay(tau: float, name: str) -> None:
    if not (math.isfinite(_as_real(tau, name)) and tau > 0.0):
        raise ParameterError(f"{name} must be finite and > 0, got {tau!r}")


def _check_lag(tau: float, name: str, allow_negative: bool = False) -> None:
    if _as_real(tau, name) == INF:
        return
    if math.isnan(tau) or tau == -INF or tau == 0.0:
        raise ParameterError(f"{name} must be nonzero and not NaN (or +inf), got {tau!r}")
    if not allow_negative and tau < 0.0:
        raise ParameterError(f"{name} must be > 0 or +inf, got {tau!r}")


def _lag_rate(tau: float) -> float:
    """The coefficient 1/tau, exactly 0.0 for the +inf sentinel."""
    return 0.0 if tau == INF else 1.0 / tau


# ---------------------------------------------------------------------------
# Frozen records: the value types of every ffdelay module. Plain closures and
# functions, so defining a class costs no generated source.
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a field that has none


def _record(cls: type) -> type:
    """Make ``cls`` an immutable value type over its annotated fields.

    The fields are the annotated names of the class body, a base record's
    first; a field's class-level value is its default. ``cls._fields`` maps
    each field name, in order, to its default (``_REQUIRED`` if it has none).
    The class gets an ``__init__`` taking the fields positionally or by
    keyword, which stores them and then runs ``__post_init__`` if the class
    has one; equality and hashing by class and field values; the repr
    ``Name(field=value, ...)``; and attribute assignment and deletion that
    raise AttributeError. A ``__post_init__`` that normalizes a field stores
    it with ``object.__setattr__``.
    """
    table = dict(getattr(cls, "_fields", {}))
    for name in cls.__annotations__:
        table[name] = cls.__dict__.get(name, _REQUIRED)
    names = tuple(table)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        self.__dict__.update(zip(names, _bind(cls, args, kwargs)))
        if post_init is not None:
            post_init(self)

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls._fields = table
    cls.__init__ = __init__
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    cls.__setattr__ = _record_setattr
    cls.__delattr__ = _record_delattr
    return cls


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


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return _field_values(self) == _field_values(other)
    return NotImplemented


def _record_hash(self) -> int:
    return hash(_field_values(self))


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def _record_setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


@_record
class LoadSeries:
    """Daily training-load impulses w(0..N-1), day 0 first.

    Values are unit-agnostic (TRIMP, kJ, ...; note the unit in ``units`` if
    you care). Construction enforces the modelling assumptions: every value
    finite and non-negative, and w(0) = 0.
    """

    values: tuple[float, ...]
    units: str | None = None

    def __post_init__(self) -> None:
        vals = _as_reals(self.values, "load")
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ParameterError("load series must contain at least one day")
        # checked at C speed; only a failing series is walked to name its day
        if not (all(map(math.isfinite, vals)) and min(vals) >= 0.0):
            for i, v in enumerate(vals):
                if not math.isfinite(v):
                    raise ParameterError(f"load at day {i} is not finite: {v!r}")
                if v < 0.0:
                    raise ParameterError(f"load at day {i} is negative: {v!r}")
        if vals[0] != 0.0:
            raise ParameterError(
                f"load at day 0 must be 0 (model assumption), got {vals[0]!r}"
            )

    def __len__(self) -> int:
        return len(self.values)


@_record
class StateSeries:
    """A fitness/fatigue state trajectory g(0..N-1) plus the variant that made it."""

    values: tuple[float, ...]
    variant_tag: str

    def __post_init__(self) -> None:
        vals = _as_reals(self.values, "state")
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ParameterError("state series must contain at least one day")
        if vals[0] != 0.0:
            raise ParameterError("state series must start at 0 (zero initial history)")
        # checked at C speed; only a failing series is walked to name its day
        if not all(map(math.isfinite, vals)):
            day = next(i for i, v in enumerate(vals) if not math.isfinite(v))
            raise ParameterError(f"state at day {day} is not finite: {vals[day]!r}")

    def __len__(self) -> int:
        return len(self.values)


@_record
class FirstOrderParams:
    """Classical model parameter: decay time constant in days."""

    tau_decay: float

    def __post_init__(self) -> None:
        _check_decay(self.tau_decay, "tau_decay")


@_record
class SingleDelayParams:
    """Decay constant plus a 1-day lag constant (+inf disables the lag term)."""

    tau_decay: float
    tau_lag1: float = INF

    def __post_init__(self) -> None:
        _check_decay(self.tau_decay, "tau_decay")
        _check_lag(self.tau_lag1, "tau_lag1")


@_record
class ThreeDelayParams:
    """Decay constant plus lag constants for delays of 1, 2 and 3 days.

    Lag constants are normally positive or +inf, but any nonzero finite value
    is accepted: ``kernel_to_three_delay`` with a positive kernel gain maps to
    negative lag constants, and the recursion stays perfectly well defined.
    """

    tau_decay: float
    tau_lag1: float = INF
    tau_lag2: float = INF
    tau_lag3: float = INF

    def __post_init__(self) -> None:
        _check_decay(self.tau_decay, "tau_decay")
        _check_lag(self.tau_lag1, "tau_lag1", allow_negative=True)
        _check_lag(self.tau_lag2, "tau_lag2", allow_negative=True)
        _check_lag(self.tau_lag3, "tau_lag3", allow_negative=True)


@_record
class KernelParams:
    """Weighted-memory variant: signed gain ``tau5`` (1/day^2) and 3 lag weights."""

    tau_decay: float
    tau5: float
    weights: tuple[float, float, float] = (0.5, 0.3, 0.2)

    def __post_init__(self) -> None:
        _check_decay(self.tau_decay, "tau_decay")
        if not math.isfinite(_as_real(self.tau5, "tau5")):
            raise ParameterError(f"tau5 must be finite, got {self.tau5!r}")
        w = _as_reals(self.weights, "weights")
        object.__setattr__(self, "weights", w)
        if len(w) != 3:
            raise ParameterError("weights must be a triple (lag-1, lag-2, lag-3)")
        for x in w:
            if not (0.0 < x < 1.0):
                raise ParameterError(f"each kernel weight must lie in (0, 1), got {x!r}")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ParameterError(f"kernel weights must sum to 1, got {sum(w)!r}")


@_record
class Variant:
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
            f"unknown variant {name!r}; valid variants: {', '.join(VARIANTS)}"
        )
    return VARIANT_TABLE[name]


@_record
class ModelParams:
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
        if not math.isfinite(_as_real(self.p0, "p0")):
            raise ParameterError(f"p0 must be finite, got {self.p0!r}")
        if not (math.isfinite(_as_real(self.k1, "k1")) and self.k1 > 0.0):
            raise ParameterError(f"k1 must be finite and > 0, got {self.k1!r}")
        if not (math.isfinite(_as_real(self.k2, "k2")) and self.k2 > 0.0):
            raise ParameterError(f"k2 must be finite and > 0, got {self.k2!r}")
        _check_side(self.variant, self.fitness, "fitness")
        _check_side(self.variant, self.fatigue, "fatigue")


def _check_side(variant: str, side, name: str) -> None:
    """ParameterError unless ``side`` is an instance of ``variant``'s side class."""
    cls = variant_row(variant).side
    if not isinstance(side, cls):
        raise ParameterError(f"{variant} {name} must be {cls.__name__}, got {type(side).__name__}")


def _check_horizon(w: LoadSeries, horizon: int, name: str = "horizon") -> int:
    horizon = _as_int(horizon, name)
    if horizon < 1:
        raise ParameterError(f"{name} must be >= 1, got {horizon}")
    if horizon > len(w):
        raise SeriesLengthError(f"{name} {horizon} exceeds load series length {len(w)}")
    return horizon


# ---------------------------------------------------------------------------
# Raw trajectory kernels. These operate on plain sequences and field values,
# not LoadSeries or side objects. The per-side path kernels power the public
# operations below; the performance kernels after them advance both sides of
# a variant and combine them in one pass, for forecasts and fit objectives.
# Arithmetic ordering inside the recursions is mirrored by the fine-grid
# integrator so that its m=1 reduction is bit-identical.
# ---------------------------------------------------------------------------


def classical_path(w, tau_decay: float, horizon: int) -> list[float]:
    """Literal load-history sum g(n) = sum_{i<n} w(i) e^{-(n-i)/tau}."""
    import numpy as np

    if horizon == 1:
        return [0.0]
    wv = np.asarray(w[: horizon - 1], dtype=float)
    decay = np.exp(-np.arange(1, horizon, dtype=float) / tau_decay)
    conv = np.convolve(wv, decay)
    out = [0.0] * horizon
    for n in range(1, horizon):
        out[n] = float(conv[n - 1])
    return out


# Loop shape: per-day indexing dominated these kernels' cost, so they stream w
# through islice and append; the arithmetic stays as written for the oracle's
# m=1 bit-identity. Callers check horizon <= len(w) (islice would not).


def single_delay_path(w, tau_decay: float, lag_rate1: float, horizon: int) -> list[float]:
    a = math.exp(-1.0 / tau_decay)
    g = [0.0]
    append = g.append
    gk = g1 = 0.0  # g(k), g(k-1)
    for wk in islice(w, horizon - 1):
        g1, gk = gk, (wk + gk - lag_rate1 * g1) * a
        append(gk)
    return g


def three_delay_path(
    w, tau_decay: float, lag_rate1: float, lag_rate2: float, lag_rate3: float, horizon: int
) -> list[float]:
    a = math.exp(-1.0 / tau_decay)
    g = [0.0]
    append = g.append
    gk = g1 = g2 = g3 = 0.0  # g(k), g(k-1), g(k-2), g(k-3)
    for wk in islice(w, horizon - 1):
        nxt = (wk + gk - lag_rate1 * g1 - lag_rate2 * g2 - lag_rate3 * g3) * a
        append(nxt)
        g3 = g2
        g2 = g1
        g1 = gk
        gk = nxt
    return g


# Performance kernels: p = p0 + k1 g - k2 h over one walk of w. ``fitness``
# and ``fatigue`` are the arguments the same shape's path kernel takes between
# w and horizon, and each state advances by that kernel's expression, so g and
# h equal its two paths bit for bit. The combine groups the state terms first
# so that k1 == k2 with identical sides gives exactly p0 (the gains cancel
# before the baseline is touched).


def single_delay_performance(
    w, p0: float, k1: float, k2: float, fitness: tuple, fatigue: tuple, horizon: int
) -> list[float]:
    tau_g, rate_g = fitness
    tau_h, rate_h = fatigue
    a = math.exp(-1.0 / tau_g)
    b = math.exp(-1.0 / tau_h)
    p = [p0 + (k1 * 0.0 - k2 * 0.0)]
    append = p.append
    g = g1 = h = h1 = 0.0  # g(k), g(k-1), h(k), h(k-1)
    for wk in islice(w, horizon - 1):
        g1, g = g, (wk + g - rate_g * g1) * a
        h1, h = h, (wk + h - rate_h * h1) * b
        append(p0 + (k1 * g - k2 * h))
    return p


def three_delay_performance(
    w, p0: float, k1: float, k2: float, fitness: tuple, fatigue: tuple, horizon: int
) -> list[float]:
    tau_g, r1g, r2g, r3g = fitness
    tau_h, r1h, r2h, r3h = fatigue
    a = math.exp(-1.0 / tau_g)
    b = math.exp(-1.0 / tau_h)
    p = [p0 + (k1 * 0.0 - k2 * 0.0)]
    append = p.append
    g = g1 = g2 = g3 = h = h1 = h2 = h3 = 0.0
    for wk in islice(w, horizon - 1):
        nxt = (wk + g - r1g * g1 - r2g * g2 - r3g * g3) * a
        g3 = g2
        g2 = g1
        g1 = g
        g = nxt
        nxt = (wk + h - r1h * h1 - r2h * h2 - r3h * h3) * b
        h3 = h2
        h2 = h1
        h1 = h
        h = nxt
        append(p0 + (k1 * g - k2 * h))
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


def _performance(
    variant: str, wv, p0: float, k1: float, k2: float,
    fitness: tuple, fatigue: tuple, horizon: int,
) -> list[float]:
    """p0 + k1*g - k2*h in one pass; each side holds its class's field values in order."""
    fitness, fatigue = _side_args(variant, fitness), _side_args(variant, fatigue)
    fused = single_delay_performance if len(fitness) == 2 else three_delay_performance
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
    return StateSeries(path(w.values, *args, horizon), variant)


def eval_classical(w: LoadSeries, params: FirstOrderParams, horizon: int) -> StateSeries:
    """Evaluate the classical first-order model as the explicit history sum."""
    _check_side("classical", params, "params")
    horizon = _check_horizon(w, horizon)
    return StateSeries(classical_path(w.values, params.tau_decay, horizon), "classical")


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
    import numpy as np

    _check_side("single_delay", params, "params")
    horizon = _check_horizon(w, horizon)
    tau = params.tau_decay
    rate = _lag_rate(params.tau_lag1)
    wv = w.values
    decay = np.exp(-np.arange(horizon, dtype=float) / tau)  # decay[d] = e^{-d/tau}
    g = np.zeros(horizon)
    c = np.zeros(horizon)  # c[i] = w(i) - rate * g(i-1), defined for i >= 1
    for n in range(2, horizon):
        c[n - 1] = wv[n - 1] - rate * g[n - 2]
        g[n] = float(np.dot(c[1:n], decay[n - 1:0:-1]))
    return StateSeries(g.tolist(), "single_delay")


def eval_three_delay_recursive(
    w: LoadSeries, params: ThreeDelayParams, horizon: int
) -> StateSeries:
    """Three-lag model via the step recursion with zero history on [-3, 0]."""
    return _recursive("three_delay", w, params, horizon)


def eval_three_delay_convolution(
    w: LoadSeries, params: ThreeDelayParams, horizon: int
) -> StateSeries:
    """Three-lag model as the expanded, grouped history sum.

    The grouped form folds the three lag sums into one weighted history sum
    plus separated boundary terms in g(n-3) and g(n-2):

        g(n) = sum_{i=1}^{n-1} w(i) e^{-(n-i)/tau}
             - sum_{i=1}^{n-3} g(i-1) [r1 + r2 e^{1/tau} + r3 e^{2/tau}] e^{-(n-i)/tau}
             - g(n-3) [r1 e^{-2/tau} + r2 e^{-1/tau}]
             - g(n-2) r1 e^{-1/tau}

    with r_j the lag rates 1/tau_lag_j. Kept deliberately in this shape as an
    independent check on the recursion.
    """
    import numpy as np

    _check_side("three_delay", params, "params")
    horizon = _check_horizon(w, horizon)
    tau = params.tau_decay
    r1 = _lag_rate(params.tau_lag1)
    r2 = _lag_rate(params.tau_lag2)
    r3 = _lag_rate(params.tau_lag3)
    wv = np.asarray(w.values[:horizon], dtype=float)
    decay = np.exp(-np.arange(horizon, dtype=float) / tau)
    grouped = r1 + r2 * math.exp(1.0 / tau) + r3 * math.exp(2.0 / tau)
    g = np.zeros(horizon)
    for n in range(2, horizon):
        total = float(np.dot(wv[1:n], decay[n - 1:0:-1]))
        if n >= 4:
            total -= grouped * float(np.dot(g[0 : n - 3], decay[n - 1:2:-1]))
        if n >= 3:
            total -= g[n - 3] * (r1 * decay[2] + r2 * decay[1])
        total -= g[n - 2] * (r1 * decay[1])
        g[n] = total
    return StateSeries(g.tolist(), "three_delay")


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
    return tuple(_performance(
        variant, w.values, p0, k1, k2, _field_values(fitness), _field_values(fatigue), horizon
    ))


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

