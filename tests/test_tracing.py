"""The benchmark's span tracer (perfbench/spans.py) against this package.

The tracer wraps module attributes by name, so it only sees a call that goes
through the module global it patched. This test installs it, runs commands
through ``cli.main``, a prediction of every variant and a short fit, and
checks the spans each boundary records and that uninstalling restores the
originals.

Only ``simulate`` runs a per-side path kernel, through ``cli``'s
``eval_*_recursive``. A forecast and a fit objective run the fused
performance kernels, which no span wraps, so they record no ``models.path``
span and their kernel time is the self time of ``predict_performance`` and
of the objective.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import ffdelay as ff
import ffdelay.cli as cli
import ffdelay.estimation as estimation
from helpers import EXAMPLE_SIDES, block_load, recovery_bounds

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

@pytest.fixture()
def spans():
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names(spans) -> list[tuple[object, str]]:
    names = [(importlib.import_module(m), attr) for m, attr in spans.PATH_BOUNDARIES]
    names += [(estimation, a) for a in ("nelder_mead", "fit_variant", "predict_performance")]
    names += [(cli, a) for a in ("fit_variant", "compare_variants", "predict_performance", "main")]
    names += [(cli, a) for attrs in spans.DATAIO_BOUNDARIES.values() for a in attrs]
    return names


def test_install_wraps_every_boundary_and_uninstall_restores(spans, tmp_path, capsys):
    names = _wrapped_names(spans)
    originals = [getattr(module, attr) for module, attr in names]
    real_fit = estimation.fit_variant
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a) is not o for (m, a), o in zip(names, originals))
        # the wrapper re-declares fit_variant's signature: names, kinds and defaults
        def shape(fn):
            return [(p.name, p.kind, p.default)
                    for p in inspect.signature(fn).parameters.values()]

        assert shape(estimation.fit_variant) == shape(real_fit)
        calls = tracer.calls

        load = str(DATA / "load.csv")
        for variant, flags in (("classical", ["--tau1", "30"]),
                               ("three_delay", ["--tau1", "30", "--tau2", "12",
                                                "--tau3", "inf", "--tau4", "40"]),
                               ("kernel", ["--tau1", "30", "--tau5", "-0.2"])):
            assert cli.main(["simulate", "--load", load, "--variant", variant, *flags,
                             "--out", str(tmp_path / variant)]) == cli.EXIT_OK
        assert calls["models.path"] == 3

        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "classical", "p0": 440.0, "k1": 0.1, "k2": 0.3,
            "fitness": {"tau_decay": 40.0}, "fatigue": {"tau_decay": 9.0},
        }))
        assert cli.main(["predict", "--load", load, "--params", str(params),
                         "--horizon", "60", "--out", str(tmp_path / "pred")]) == cli.EXIT_OK
        assert calls["models.path"] == 3

        w = block_load(60)
        path_ns = tracer.self_ns["models.path"]
        for variant, (fitness, fatigue) in EXAMPLE_SIDES.items():
            forecast_ns = tracer.self_ns["estimation.predict_performance"]
            estimation.predict_performance(variant, 500.0, 0.1, 0.12, fitness, fatigue, w, 60)
            assert calls["models.path"] == 3, variant
            assert tracer.self_ns["estimation.predict_performance"] > forecast_ns, variant
        assert tracer.self_ns["models.path"] == path_ns

        obs = ff.ObservationSet(((5, 498.5), (11, 510.7), (17, 505.0)))
        config = ff.FitConfig(starts=1, max_iterations=5, seed=0)
        estimation.fit_variant(w, obs, recovery_bounds(), config, "kernel")
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert calls["cli.main"] == 4
    assert calls["estimation.predict_performance"] == 1 + len(EXAMPLE_SIDES)
    assert calls["estimation.fit_variant"] == 1
    # the 5-iteration start leaves no budget for a polish restart; a fit that
    # bypassed the module-global nelder_mead would record neither span
    assert calls["estimation.nelder_mead"] == 1
    assert calls["estimation.objective"] == 15
    assert calls["models.path"] == 3
    assert tracer.self_ns["estimation.objective"] > 0
    assert calls["dataio.parse"] == 5
    assert calls["dataio.emit"] >= 1 and calls["dataio.render"] >= 1
    assert all(getattr(m, a) is o for (m, a), o in zip(names, originals))
