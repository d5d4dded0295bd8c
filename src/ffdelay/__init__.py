"""Fitness-fatigue impulse-response modeling with delayed adaptation.

Library layout:

* :mod:`ffdelay.models`     -- the four state-model variants, the variant table,
                               ``ModelParams`` (one performance model) and
                               ``predict_performance``, which runs it forward
* :mod:`ffdelay.oracle`     -- fine-grid method-of-steps integrator (loaded
                               on first use of one of its names)
* :mod:`ffdelay.estimation` -- ``fit_variant`` and ``compare_variants``
                               (Nelder-Mead, multi-start)
* :mod:`ffdelay.dataio`     -- CSV/YAML/JSON ingestion and SVG charts
* :mod:`ffdelay.cli`        -- the ``ffdelay`` command
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CsvError,
    DuplicateDayError,
    FfdelayError,
    MetricError,
    ObservationError,
    ParameterError,
    SeriesLengthError,
)
from .models import (
    INF,
    FirstOrderParams,
    KernelParams,
    LoadSeries,
    ModelParams,
    SingleDelayParams,
    StateSeries,
    ThreeDelayParams,
    eval_classical,
    eval_kernel_recursive,
    eval_single_delay_convolution,
    eval_single_delay_recursive,
    eval_three_delay_convolution,
    eval_three_delay_recursive,
    kernel_to_three_delay,
    predict_performance,
)
from .estimation import (
    FitConfig,
    ObservationSet,
    ParamBounds,
    VariantFit,
    compare_variants,
    fit_variant,
    nelder_mead,
    r_squared,
    sse_objective,
)

__all__ = [
    "__version__",
    "INF",
    "ConfigError",
    "CsvError",
    "DuplicateDayError",
    "FfdelayError",
    "MetricError",
    "ObservationError",
    "ParameterError",
    "SeriesLengthError",
    "FirstOrderParams",
    "KernelParams",
    "LoadSeries",
    "ModelParams",
    "SingleDelayParams",
    "StateSeries",
    "ThreeDelayParams",
    "eval_classical",
    "eval_kernel_recursive",
    "eval_single_delay_convolution",
    "eval_single_delay_recursive",
    "eval_three_delay_convolution",
    "eval_three_delay_recursive",
    "kernel_to_three_delay",
    "GridSolution",
    "StepLoad",
    "convergence_probe",
    "integrate_single_delay",
    "integrate_three_delay",
    "FitConfig",
    "ObservationSet",
    "ParamBounds",
    "VariantFit",
    "compare_variants",
    "fit_variant",
    "nelder_mead",
    "predict_performance",
    "r_squared",
    "sse_objective",
]

_ORACLE_NAMES = (
    "GridSolution",
    "StepLoad",
    "convergence_probe",
    "integrate_single_delay",
    "integrate_three_delay",
)


def __getattr__(name: str):
    # The oracle is a check route: it loads on first use, not with the package.
    # import_module, not "from . import oracle": that form would look the
    # name up on this package first and so call back into __getattr__.
    if name == "oracle" or name in _ORACLE_NAMES:
        from importlib import import_module

        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
