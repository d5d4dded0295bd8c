"""Span tracing at ffdelay's module boundaries, installed from outside.

The benchmark wraps public functions where one layer calls the next (the
names as bound in the calling module) and records one span per call: name,
start, end, parent span and operation id. Spans stay in memory and are
written when the run ends. Self time (span duration minus the part covered
by child spans) and per-layer counters are accumulated as spans close, so
the per-layer metrics need no second pass over the spans.

Nothing here runs unless a :class:`Tracer` is installed; untraced runs call
ffdelay's own functions directly.
"""

from __future__ import annotations

import contextlib
import json
import time
from array import array
from collections import defaultdict

import numpy as np

_now = time.perf_counter_ns

# Path kernels as bound where estimation and the CLI call them; each call is
# a models.path span. (The objective closure has no module name: the
# nelder_mead wrapper wraps it, as it receives it as its first argument.)
PATH_BOUNDARIES = [
    ("ffdelay.estimation", "single_delay_path"),
    ("ffdelay.estimation", "three_delay_path"),
    ("ffdelay.estimation", "kernel_path"),
    ("ffdelay.cli", "eval_single_delay_recursive"),
    ("ffdelay.cli", "eval_three_delay_recursive"),
    ("ffdelay.cli", "eval_kernel_recursive"),
]
DATAIO_BOUNDARIES = {
    "parse": ("parse_load_csv", "parse_performance_csv", "parse_params", "load_config"),
    "emit": ("emit_prediction_csv", "dumps_params", "build_prediction_table"),
    "render": ("render_fit_chart", "render_load_chart"),
}


class Tracer:
    """In-memory span recorder with online self-time and counter totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per closed span: id, name id, start ns, end ns, parent id, op id
        self.spans = array("q")
        self._next_id = 0
        self._stack: list[list[int]] = []  # open spans: [span id, child ns]
        self.op_id = 0
        self.active = True
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        nid = self._name_id(name)
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [span_id, 0]
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.self_ns[name] += duration - frame[1]
            self.calls[name] += 1
            self.spans.extend((span_id, nid, start, end, parent, self.op_id))

    @contextlib.contextmanager
    def suspended(self):
        """Run correctness checks without recording them."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    # -- installation ------------------------------------------------------

    def _patch(self, module, attr: str, wrapper) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every boundary; :meth:`uninstall` restores the originals."""
        import importlib

        import ffdelay.cli as cli
        import ffdelay.estimation as estimation

        tracer = self
        counters = self.counters

        for module_name, attr in PATH_BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            day_arg = 2 if attr.startswith("eval_") else -1

            def path(*args, _fn=fn, _day_arg=day_arg):
                if tracer.active:
                    counters["models.path.days"] += args[_day_arg]
                return tracer.call("models.path", _fn, args, {})

            self._patch(module, attr, path)

        real_nm = estimation.nelder_mead

        def nelder_mead(objective, *args, **kwargs):
            def traced_objective(z):
                return tracer.call("estimation.objective", objective, (z,), {})

            result = tracer.call(
                "estimation.nelder_mead", real_nm, (traced_objective,) + args, kwargs
            )
            if tracer.active:
                counters["estimation.nelder_mead.iterations"] += result[2]
                counters["estimation.nelder_mead.converged"] += bool(result[3])
            return result

        self._patch(estimation, "nelder_mead", nelder_mead)

        real_fit = estimation.fit_variant

        def fit_variant(w, obs, bounds, config, variant="single_delay", extra_starts=()):
            fit = tracer.call(
                "estimation.fit_variant", real_fit,
                (w, obs, bounds, config, variant, extra_starts), {},
            )
            if tracer.active:
                counters["estimation.fit_variant.starts"] += config.starts + len(extra_starts)
                counters["estimation.fit_variant.starts_converged"] += fit.starts_converged
                counters["estimation.compare_variants.seeded_starts"] += len(extra_starts)
            return fit

        self._patch(estimation, "fit_variant", fit_variant)
        self._patch(cli, "fit_variant", fit_variant)

        real_compare = cli.compare_variants

        def compare_variants(*args, **kwargs):
            try:
                return tracer.call("estimation.compare_variants", real_compare, args, kwargs)
            except BaseException:
                if tracer.active:
                    counters["estimation.compare_variants.failed"] += 1
                raise

        self._patch(cli, "compare_variants", compare_variants)

        real_predict = estimation.predict_performance

        def predict_performance(*args, **kwargs):
            return tracer.call("estimation.predict_performance", real_predict, args, kwargs)

        self._patch(estimation, "predict_performance", predict_performance)
        self._patch(cli, "predict_performance", predict_performance)

        for group, attrs in DATAIO_BOUNDARIES.items():
            for attr in attrs:
                def dataio_fn(*args, _fn=getattr(cli, attr), _name=f"dataio.{group}", **kwargs):
                    out = tracer.call(_name, _fn, args, kwargs)
                    if tracer.active and isinstance(out, str):
                        counters["dataio.bytes_out"] += len(out.encode())
                    return out

                self._patch(cli, attr, dataio_fn)

        real_main = cli.main

        def main(argv=None):
            return tracer.call("cli.main", real_main, (argv,), {})

        self._patch(cli, "main", main)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); 0 where unused."""
        s = lambda name: self.self_ns[name] / 1e9  # noqa: E731
        c = self.counters
        calls = self.calls
        path_days = c["models.path.days"]
        evals = calls["estimation.objective"]
        nm_calls = calls["estimation.nelder_mead"]
        iterations = c["estimation.nelder_mead.iterations"]
        fits = calls["estimation.fit_variant"]
        starts = c["estimation.fit_variant.starts"]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "models.path.calls": (calls["models.path"], "count"),
            "models.path.days": (path_days, "count"),
            "models.path.self_s": (s("models.path"), "s"),
            "models.path.ns_per_day": (ratio(self.self_ns["models.path"], path_days), "ns/day"),
            "estimation.objective.evals": (evals, "count"),
            "estimation.objective.self_s": (s("estimation.objective"), "s"),
            "estimation.objective.us_per_eval": (
                ratio(self.self_ns["estimation.objective"] / 1e3, evals), "us/eval"),
            "estimation.nelder_mead.calls": (nm_calls, "count"),
            "estimation.nelder_mead.iterations": (iterations, "count"),
            "estimation.nelder_mead.evals_per_iteration": (ratio(evals, iterations), "ratio"),
            "estimation.nelder_mead.converged_ratio": (
                ratio(c["estimation.nelder_mead.converged"], nm_calls), "ratio"),
            "estimation.nelder_mead.self_s": (s("estimation.nelder_mead"), "s"),
            "estimation.fit_variant.calls": (fits, "count"),
            "estimation.fit_variant.evals_per_fit": (ratio(evals, fits), "count"),
            "estimation.fit_variant.starts_converged_ratio": (
                ratio(c["estimation.fit_variant.starts_converged"], starts), "ratio"),
            "estimation.fit_variant.self_s": (s("estimation.fit_variant"), "s"),
            "estimation.compare_variants.calls": (calls["estimation.compare_variants"], "count"),
            "estimation.compare_variants.failed": (c["estimation.compare_variants.failed"], "count"),
            "estimation.compare_variants.seeded_starts": (
                c["estimation.compare_variants.seeded_starts"], "count"),
            "estimation.compare_variants.self_s": (s("estimation.compare_variants"), "s"),
            "estimation.predict_performance.calls": (
                calls["estimation.predict_performance"], "count"),
            "estimation.predict_performance.self_s": (s("estimation.predict_performance"), "s"),
            "dataio.parse_s": (s("dataio.parse"), "s"),
            "dataio.emit_s": (s("dataio.emit"), "s"),
            "dataio.render_s": (s("dataio.render"), "s"),
            "dataio.bytes_out": (c["dataio.bytes_out"], "bytes"),
            "cli.main.self_s": (s("cli.main"), "s"),
        }

    def write(self, path) -> None:
        """Write every recorded span as columns of an .npz file."""
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)
        np.savez_compressed(
            path,
            spans=table,
            columns=np.array(["id", "name", "start_ns", "end_ns", "parent", "op"]),
            names=np.array(json.dumps(self.names)),
        )
