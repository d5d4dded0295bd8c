"""Fitness-fatigue impulse-response modeling with delayed adaptation.

Library layout:

* :mod:`ffdelay.models`     -- the four state-model variants, the variant table,
                               ``ModelParams`` (one performance model),
                               ``predict_performance``, which runs it forward,
                               and the fit's inputs (``ObservationSet``,
                               ``ParamBounds``, ``FitConfig``)
* :mod:`ffdelay.oracle`     -- fine-grid method-of-steps integrator
* :mod:`ffdelay.estimation` -- the fitter: ``fit_variant`` and
                               ``compare_variants`` (Nelder-Mead, multi-start)
* :mod:`ffdelay.dataio`     -- CSV/YAML/JSON ingestion and SVG charts
* :mod:`ffdelay.cli`        -- the ``ffdelay`` command

``import ffdelay`` loads ``errors`` and ``models``; ``oracle`` and
``estimation`` load on first use (``ffdelay.fit_variant``, for one).
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
    FitConfig,
    KernelParams,
    LoadSeries,
    ModelParams,
    ObservationSet,
    ParamBounds,
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
]

# The oracle is a check route, and running a model forward needs no fitter:
# each of these modules loads on first use of it or of one of its names.
_LAZY_NAMES = {
    "oracle": ("GridSolution", "StepLoad", "convergence_probe", "integrate_single_delay",
               "integrate_three_delay"),
    "estimation": ("VariantFit", "compare_variants", "fit_variant", "nelder_mead", "r_squared"),
}


def __getattr__(name: str):
    # import_module, not "from . import oracle": that form would look the
    # name up on this package first and so call back into __getattr__.
    for module, names in _LAZY_NAMES.items():
        if name == module or name in names:
            from importlib import import_module

            loaded = import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
