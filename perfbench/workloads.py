"""The three benchmark workloads and their correctness checks.

Each workload yields a fixed number of :class:`Op` objects in an order
determined by the seed; the number depends only on the run's length.
``Op.run`` is the timed call into ffdelay; ``Op.check`` runs outside the
timed region on an operation's first result and returns a :class:`Verdict`;
``Op.digest`` fingerprints a result, so that repeated executions can be
required to be bit-identical and runs of one seed compared. The benchmark
reaches ffdelay only through the CLI and the general library entry points
(``fit_variant``, ``predict_performance``, ``eval_*_recursive``), always
looked up on their module at call time so that the traced run's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import traceback
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import inputs

# A fit "misses" when its SSE exceeds the SSE of the generating parameters
# (a feasible point) by more than this relative plus absolute tolerance.
MISS_REL = 1e-3
MISS_ABS = 1e-6
CLI_TIMEOUT_S = 150


@dataclass
class Verdict:
    failed: bool = False  # the operation counts as failed
    wrong: bool = False  # an output was produced and is incorrect
    note: str = ""
    info: dict = field(default_factory=dict)


def verdict(wrong: list[str], broken: list[str], info: dict | None = None) -> Verdict:
    """Verdict from two kinds of check failure, both failing the operation.

    ``wrong``: the output contradicts the program's own model or the
    independent routes (the run is no longer correct). ``broken``: the
    output is consistent but breaks a guarantee the fit documents, such as a
    parameter inside its box or a richer variant never worse than classical.
    """
    return Verdict(bool(wrong or broken), bool(wrong), "; ".join(wrong + broken), info or {})


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]
    digest: Callable[[Any], str]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats_digest(values) -> str:
    return _sha(array("d", values).tobytes())


def _fit_digest(fit) -> str:
    return _sha(repr((fit.variant, fit.p0, fit.k1, fit.k2, fit.fitness, fit.fatigue,
                      fit.sse, fit.predicted)).encode())


def side_object(variant: str, side: dict):
    from ffdelay import models

    if variant == "classical":
        return models.FirstOrderParams(side["tau_decay"])
    if variant == "single_delay":
        return models.SingleDelayParams(side["tau_decay"], side["tau_lag1"])
    if variant == "three_delay":
        return models.ThreeDelayParams(
            side["tau_decay"], side["tau_lag1"], side["tau_lag2"], side["tau_lag3"]
        )
    return models.KernelParams(side["tau_decay"], side["tau5"])


def forecast(params: dict, w, horizon: int) -> tuple[float, ...]:
    from ffdelay import estimation

    variant = params["variant"]
    return estimation.predict_performance(
        variant, params["p0"], params["k1"], params["k2"],
        side_object(variant, params["fitness"]), side_object(variant, params["fatigue"]),
        w, horizon,
    )


def bound_violations(variant: str, p0: float, k1: float, k2: float, fitness, fatigue) -> list[str]:
    """Names of fitted parameters outside the benchmark's search box."""
    b = inputs.BOUNDS
    checks = [("p0", p0, "p0"), ("k1", k1, "k1"), ("k2", k2, "k2")]
    for side_name, side, decay_box, lag_box in (
        ("fitness", fitness, "tau1", "tau2"), ("fatigue", fatigue, "tau3", "tau4")
    ):
        checks.append((f"{side_name}.tau_decay", side.tau_decay, decay_box))
        if variant == "kernel":
            checks.append((f"{side_name}.tau5", side.tau5, "tau5"))
        for lag in ("tau_lag1", "tau_lag2", "tau_lag3"):
            if hasattr(side, lag):
                checks.append((f"{side_name}.{lag}", getattr(side, lag), lag_box))
    return [name for name, value, box in checks if not b[box][0] <= value <= b[box][1]]


def fit_config(seed: int, index: int):
    from ffdelay.estimation import FitConfig

    return FitConfig(
        starts=inputs.FIT_STARTS,
        max_iterations=inputs.FIT_MAX_ITERATIONS,
        tolerance=inputs.FIT_TOLERANCE,
        simplex_tolerance=inputs.FIT_SIMPLEX_TOLERANCE,
        seed=(seed * 1_000_003 + index) % 2**31,
    )


def observations(athlete: dict, truth):
    """Observed performance: the generating trajectory plus the athlete's noise."""
    from ffdelay.estimation import ObservationSet

    return ObservationSet(tuple(
        (day, truth[day] + noise) for day, noise in zip(athlete["observe"], athlete["noise"])
    ))


def load_csv(values) -> str:
    return "day,load\n" + "".join(f"{d},{v!r}\n" for d, v in enumerate(values))


def perf_csv(obs) -> str:
    return "day,performance\n" + "".join(f"{d},{v!r}\n" for d, v in obs.entries)


class Workload:
    name = ""
    #: modules a fresh interpreter imports during set-up
    modules: tuple[str, ...] = ("ffdelay",)
    #: kinds of the headline operation: the op_* and work_per_s metrics
    #: describe it, and only it is repeated
    headline: tuple[str, ...] = ()
    #: an operation's time from the times of its executions. In-process
    #: calls take the fastest: on a shared host the same call runs up to
    #: 1.6x slower for stretches of 0.1 s and more, and the minimum over
    #: repeats spread across the run skips those stretches.
    op_time: Callable[[list[float]], float] = min

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup_files(self) -> list[tuple[str, str]]:
        """(dataio parser name, path) pairs a fresh interpreter loads in set-up."""
        raise NotImplementedError

    def count(self, seconds: float) -> int:
        """How many items (athletes, forecasts) a run of ``seconds`` draws."""
        raise NotImplementedError

    def ops(self, in_process: bool, count: int) -> Iterator[Op]:
        raise NotImplementedError


class FitCohort(Workload):
    """One fit_variant call per generated short-season athlete."""

    name = "fit_cohort"
    headline = ("fit",)

    def count(self, seconds: float) -> int:
        return inputs.op_count(inputs.FITS_PER_SECOND, seconds)

    def setup_files(self) -> list[tuple[str, str]]:
        from ffdelay.models import LoadSeries

        files = []
        for i in range(4):
            a = inputs.athlete(self.seed, i)
            w = LoadSeries(a["load"])
            obs = observations(a, forecast(a["params"], w, len(w)))
            files += [
                ("parse_load_csv", self._write(f"load-{i}.csv", load_csv(a["load"]))),
                ("parse_performance_csv", self._write(f"perf-{i}.csv", perf_csv(obs))),
            ]
        return files

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text)
        return str(path)

    def ops(self, in_process: bool, count: int) -> Iterator[Op]:
        from ffdelay import estimation
        from ffdelay.models import LoadSeries

        bounds = estimation.ParamBounds(**inputs.BOUNDS)
        for i in range(count):
            a = inputs.athlete(self.seed, i)
            w = LoadSeries(a["load"])
            truth = forecast(a["params"], w, len(w))
            obs = observations(a, truth)
            gen_sse = sum((truth[d] - y) ** 2 for d, y in obs.entries)
            config = fit_config(self.seed, i)
            variant = a["variant"]

            def run(w=w, obs=obs, config=config, variant=variant):
                return estimation.fit_variant(w, obs, bounds, config, variant)

            def check(fit, w=w, obs=obs, gen_sse=gen_sse, variant=variant) -> Verdict:
                p = estimation.predict_performance(
                    fit.variant, fit.p0, fit.k1, fit.k2, fit.fitness, fit.fatigue, w, len(w)
                )
                sse = sum((p[d] - y) ** 2 for d, y in obs.entries)
                wrong = []
                if fit.variant != variant:
                    wrong.append(f"variant {fit.variant} != {variant}")
                if not math.isclose(sse, fit.sse, rel_tol=1e-9, abs_tol=1e-12):
                    wrong.append(f"reported sse {fit.sse!r} != recomputed {sse!r}")
                if tuple(p) != tuple(fit.predicted):
                    wrong.append("predicted trajectory != predict_performance")
                outside = bound_violations(variant, fit.p0, fit.k1, fit.k2, fit.fitness, fit.fatigue)
                return verdict(
                    wrong, ["outside bounds: " + ", ".join(outside)] if outside else [],
                    {"miss": fit.sse > gen_sse * (1.0 + MISS_REL) + MISS_ABS},
                )

            yield Op("fit", run, check, _fit_digest)


class ForecastLong(Workload):
    """Long-horizon predict_performance calls; many parameter sets per plan."""

    name = "forecast_long"
    headline = ("forecast",)

    def count(self, seconds: float) -> int:
        return inputs.FORECAST_CASES

    def setup_files(self) -> list[tuple[str, str]]:
        files = []
        for k in range(inputs.FORECAST_PLANS):
            path = self.workdir / f"plan-{k}.csv"
            path.write_text(load_csv(inputs.forecast_plan(self.seed, k)))
            files.append(("parse_load_csv", str(path)))
        return files

    def ops(self, in_process: bool, count: int) -> Iterator[Op]:
        from ffdelay.models import LoadSeries

        plans = [LoadSeries(inputs.forecast_plan(self.seed, k)) for k in range(inputs.FORECAST_PLANS)]
        for i in range(count):
            case = inputs.forecast_case(self.seed, i)
            w = plans[case["plan"]]
            params = case["params"]

            def run(params=params, w=w):
                return forecast(params, w, len(w))

            def check(out, params=params, w=w, plan=case["plan"]) -> Verdict:
                problems = []
                if len(out) != len(w) or not all(math.isfinite(v) for v in out):
                    problems.append("forecast has wrong length or non-finite values")
                else:
                    problems += check_forecast_routes(params, w, out)
                return verdict(problems, [], {"days": len(w), "plan": plan})

            yield Op("forecast", run, check, _floats_digest)


def check_forecast_routes(params: dict, w, out) -> list[str]:
    """Compare a forecast with the independent evaluation routes.

    single_delay/classical/three_delay must be bit-identical to the m=1
    method-of-steps oracle; a kernel forecast must match the three_delay
    forecast of its ``kernel_to_three_delay`` mapping.
    """
    from ffdelay import models, oracle

    variant = params["variant"]
    horizon = len(w)
    if variant == "kernel":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # positive gains map to negative lags
            mapped = [
                models.kernel_to_three_delay(side_object("kernel", params[s]))
                for s in ("fitness", "fatigue")
            ]
        doc = {**params, "variant": "three_delay"}
        doc["fitness"], doc["fatigue"] = (
            {"tau_decay": m.tau_decay, "tau_lag1": m.tau_lag1,
             "tau_lag2": m.tau_lag2, "tau_lag3": m.tau_lag3} for m in mapped
        )
        ref = forecast(doc, w, horizon)
        scale = max(1.0, max(abs(v) for v in ref))
        worst = max(abs(a - b) for a, b in zip(out, ref))
        if worst > 1e-9 * scale:
            return [f"kernel forecast differs from mapped three_delay by {worst:.3g}"]
        return []

    step_load = oracle.StepLoad(w)
    states = []
    for side in (params["fitness"], params["fatigue"]):
        if variant == "three_delay":
            sol = oracle.integrate_three_delay(
                step_load,
                models.ThreeDelayParams(side["tau_decay"], side["tau_lag1"],
                                        side["tau_lag2"], side["tau_lag3"]),
                horizon - 1, 1,
            )
        else:
            sol = oracle.integrate_single_delay(
                step_load,
                models.SingleDelayParams(side["tau_decay"], side.get("tau_lag1", math.inf)),
                horizon - 1, 1,
            )
        states.append(sol.day_values())
    g, h = states
    p0, k1, k2 = params["p0"], params["k1"], params["k2"]
    ref = tuple(p0 + (k1 * g[n] - k2 * h[n]) for n in range(horizon))
    return [] if ref == tuple(out) else [f"{variant} forecast is not bit-identical to the oracle"]


class CliSession(Workload):
    """Sequential ffdelay commands per athlete: simulate, predict, fit, compare."""

    name = "cli_session"
    modules = ("ffdelay", "ffdelay.cli")
    headline = ("cli_simulate", "cli_predict")
    # A process takes the median: most executions of the same command land
    # within 2% of each other, and an occasional one runs 20% faster, so
    # the minimum depends on whether a run happened to catch one.
    op_time = staticmethod(statistics.median)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.src = Path(inputs.__file__).resolve().parents[1] / "src"

    def count(self, seconds: float) -> int:
        return inputs.op_count(inputs.CLI_ATHLETES_PER_SECOND, seconds)

    def setup_files(self) -> list[tuple[str, str]]:
        files = self._athlete_files(inputs.cli_athlete(self.seed, 0), self.workdir / "setup")
        return [
            ("parse_load_csv", files["load"]),
            ("parse_performance_csv", files["perf"]),
            ("load_config", files["config"]),
            ("parse_params", files["params"]),
        ]

    def _athlete_files(self, a: dict, where: Path) -> dict[str, str]:
        from ffdelay.models import LoadSeries

        where.mkdir(parents=True, exist_ok=True)
        w = LoadSeries(a["long_load"])
        obs = observations(a, forecast(a["params"], w, a["season"]))
        config = {
            "variant": a["variant"],
            "horizon": a["season"],
            "fit": {
                "starts": inputs.FIT_STARTS,
                "max_iterations": inputs.FIT_MAX_ITERATIONS,
                "tolerance": inputs.FIT_TOLERANCE,
                "simplex_tolerance": inputs.FIT_SIMPLEX_TOLERANCE,
                "seed": fit_config(self.seed, a["index"]).seed,
            },
            "bounds": {k: list(v) for k, v in inputs.BOUNDS.items()},
        }
        texts = {
            "load": load_csv(a["long_load"]),
            "perf": perf_csv(obs),
            "config": json.dumps(config, indent=1),  # JSON is valid YAML
            "params": json.dumps(a["params"], indent=1),
        }
        names = {"load": "load.csv", "perf": "perf.csv", "config": "config.yaml",
                 "params": "params.json"}
        paths = {}
        for key, text in texts.items():
            path = where / names[key]
            path.write_text(text)
            paths[key] = str(path)
        return paths

    def _invoke(self, argv: list[str], in_process: bool) -> tuple[int, str, str]:
        if in_process:
            from ffdelay import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception:
                    traceback.print_exc(file=err)
                    code = 1
            return code, out.getvalue(), err.getvalue()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.src), env.get("PYTHONPATH")]))
        # what the installed ``ffdelay`` console script runs
        shim = "import sys; from ffdelay.cli import main; sys.exit(main())"
        proc = subprocess.run(
            [sys.executable, "-c", shim, *argv],
            capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def ops(self, in_process: bool, count: int) -> Iterator[Op]:
        from ffdelay import estimation
        from ffdelay.dataio import parse_params, parse_prediction_csv
        from ffdelay.models import LoadSeries

        for i in range(count):
            a = inputs.cli_athlete(self.seed, i)
            where = self.workdir / f"athlete-{i}"
            files = self._athlete_files(a, where)
            params = a["params"]
            variant = a["variant"]
            w_long = LoadSeries(a["long_load"])
            season = a["season"]
            w_season = LoadSeries(a["long_load"][:season])
            obs = observations(a, forecast(params, w_long, season))
            out = {k: where / f"out-{k}" for k in ("simulate", "predict", "fit", "compare")}

            fit_side = params["fitness"]
            flags = ["--tau1", repr(fit_side["tau_decay"])]
            if variant == "single_delay":
                flags += ["--tau2", repr(fit_side["tau_lag1"])]
            elif variant == "three_delay":
                flags += ["--tau2", repr(fit_side["tau_lag1"]), "--tau3", repr(fit_side["tau_lag2"]),
                          "--tau4", repr(fit_side["tau_lag3"])]
            elif variant == "kernel":
                flags += ["--tau5", repr(fit_side["tau5"])]
            common = ["--load", files["load"], "--perf", files["perf"], "--config", files["config"]]
            commands = {
                "simulate": ["simulate", "--load", files["load"], "--variant", variant, *flags,
                             "--out", str(out["simulate"])],
                "predict": ["predict", "--load", files["load"], "--params", files["params"],
                            "--horizon", str(len(w_long)), "--out", str(out["predict"])],
                "fit": ["fit", *common, "--out", str(out["fit"])],
                "compare": ["compare", *common, "--out", str(out["compare"])],
            }

            def check_simulate(d: Path, _stdout: str) -> tuple[list[str], list[str]]:
                from ffdelay import models

                state_fn = {
                    "classical": lambda: models.eval_single_delay_recursive(
                        w_long, models.SingleDelayParams(fit_side["tau_decay"], math.inf), len(w_long)),
                    "single_delay": lambda: models.eval_single_delay_recursive(
                        w_long, side_object(variant, fit_side), len(w_long)),
                    "three_delay": lambda: models.eval_three_delay_recursive(
                        w_long, side_object(variant, fit_side), len(w_long)),
                    "kernel": lambda: models.eval_kernel_recursive(
                        w_long, side_object(variant, fit_side), len(w_long)),
                }[variant]
                rows = (d / "trajectory.csv").read_text().splitlines()[1:]
                states = tuple(float(r.split(",")[2]) for r in rows)
                return [] if states == state_fn().values else ["trajectory != eval_*_recursive"], []

            def check_predict(d: Path, _stdout: str) -> tuple[list[str], list[str]]:
                table = parse_prediction_csv((d / "predictions.csv").read_text())
                got = tuple(r.predicted for r in table.rows)
                return [] if got == forecast(params, w_long, len(w_long)) else [
                    "predictions != predict_performance"], []

            def check_fit(d: Path, stdout: str) -> tuple[list[str], list[str]]:
                doc = parse_params((d / "params.json").read_text())
                table = parse_prediction_csv((d / "predictions.csv").read_text())
                p = estimation.predict_performance(
                    doc.variant, doc.p0, doc.k1, doc.k2, doc.fitness, doc.fatigue, w_season, season
                )
                problems = []
                if tuple(r.predicted for r in table.rows) != tuple(p):
                    problems.append("fit predictions != predict_performance(params.json)")
                sse = sum((p[day] - y) ** 2 for day, y in obs.entries)
                printed = [line for line in stdout.splitlines() if line.startswith("SSE = ")]
                if not printed or not math.isclose(float(printed[0][6:]), sse, rel_tol=1e-7, abs_tol=1e-12):
                    problems.append(f"printed SSE {printed} != recomputed {sse!r}")
                outside = bound_violations(doc.variant, doc.p0, doc.k1, doc.k2, doc.fitness, doc.fatigue)
                return problems, ["outside bounds: " + ", ".join(outside)] if outside else []

            def check_compare(d: Path, _stdout: str) -> tuple[list[str], list[str]]:
                rows = [r.split(",") for r in (d / "comparison.csv").read_text().splitlines()[1:]]
                sse = {r[0]: float(r[2]) for r in rows}
                if sorted(sse) != sorted(inputs.VARIANTS):
                    return [f"comparison rows {sorted(sse)}"], []
                worse = [v for v in inputs.VARIANTS if sse[v] > sse["classical"]]
                return [], [f"{', '.join(worse)} worse than classical"] if worse else []

            checks = {"simulate": check_simulate, "predict": check_predict,
                      "fit": check_fit, "compare": check_compare}
            for command in ("simulate", "predict", "fit", "compare"):
                def run(argv=commands[command]):
                    return self._invoke(argv, in_process)

                def check(result, command=command) -> Verdict:
                    code, stdout, stderr = result
                    d = out[command]
                    if code not in (0, 1, 2, 3):
                        return Verdict(True, True, f"exit code {code} outside 0-3")
                    if "Traceback (most recent call last)" in stderr:
                        last = stderr.strip().splitlines()[-1]
                        return Verdict(True, False, f"crash (exit {code}): {last}")
                    if code != 0:
                        return Verdict(True, False, f"exit {code}: {stderr.strip()[:200]}")
                    wrong, broken = checks[command](d, stdout)
                    return verdict(wrong, broken)

                def digest(result, d=out[command]) -> str:
                    code, _, stderr = result
                    artifacts = sorted(p for p in d.iterdir() if p.is_file()) if d.is_dir() else []
                    return _sha(repr((code, stderr.strip().splitlines()[-1:])).encode() + b"".join(
                        p.name.encode() + p.read_bytes() for p in artifacts))

                yield Op(f"cli_{command}", run, check, digest)


WORKLOADS = {cls.name: cls for cls in (FitCohort, ForecastLong, CliSession)}
