"""``ffdelay`` command-line interface.

Four subcommands wire the library into the full workflow:

* ``fit``      -- estimate parameters from load + performance CSVs
* ``predict``  -- forward-run a fitted (or hand-written) parameter document
* ``simulate`` -- evaluate any state-model variant directly from flags
* ``compare``  -- fit all four variants on the same data and tabulate quality

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure or
internal error (an unexpected exception; the last line of stderr reads
``error: internal error: <Type>: <message>``). All artifacts are computed
before anything is written, and each file is written to a temporary name and
renamed into place, so a failing run leaves no partial artifacts behind.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Sequence

from . import __version__
from .dataio import (
    ChartOptions,
    RunConfig,
    build_prediction_table,
    dumps_params,
    emit_prediction_csv,
    format_number,
    load_config,
    parse_load_csv,
    parse_params,
    parse_performance_csv,
    render_fit_chart,
    render_load_chart,
)
from .errors import CsvError, FfdelayError
from .estimation import (
    FitConfig,
    ObservationSet,
    compare_variants,
    fit_variant,
    predict_performance,
)
from .models import (
    VARIANTS,
    LoadSeries,
    SingleDelayParams,
    _field_dict,
    _record,
    eval_kernel_recursive,
    eval_single_delay_recursive,
    eval_three_delay_recursive,
    variant_row,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


@_record
class CommandOutcome:
    exit_code: int
    summary: str


class _UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CsvError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvError(f"{path} is not valid UTF-8: {exc}") from exc


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_artifacts(out_dir: str, artifacts: dict[str, str]) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        _atomic_write(out / name, text)
    return [str(out / name) for name in artifacts]


def _data_error(message: str) -> CommandOutcome:
    return CommandOutcome(EXIT_DATA, f"error: {message}")


def _write_outcome(
    out_dir: str, artifacts: dict[str, str], lines: list[str]
) -> CommandOutcome:
    """Write ``artifacts`` and report success as ``lines`` plus a ``wrote:`` line."""
    try:
        written = _write_artifacts(out_dir, artifacts)
    except OSError as exc:
        return _data_error(f"cannot write artifacts to {out_dir}: {exc}")
    return CommandOutcome(EXIT_OK, "\n".join([*lines, "wrote: " + ", ".join(written)]))


def _load_fit_inputs(
    load_path: str, perf_path: str, config_path: str, seed: int | None
) -> tuple[LoadSeries, ObservationSet, RunConfig, FitConfig] | CommandOutcome:
    """Parse and validate the inputs of ``fit`` and ``compare``.

    Returns the load cut to the configured horizon, the observations, the run
    configuration and its fit settings with ``seed`` applied, or the data
    error outcome.
    """
    try:
        w = parse_load_csv(_read_text(load_path))
        obs = parse_performance_csv(_read_text(perf_path))
        config = load_config(_read_text(config_path))
    except FfdelayError as exc:
        return _data_error(str(exc))

    horizon = config.horizon if config.horizon is not None else len(w)
    if horizon > len(w):
        return _data_error(f"horizon {horizon} exceeds load series length {len(w)}")
    if len(obs) < 2:
        return _data_error("need at least 2 observations (R^2 is undefined otherwise)")
    if len(set(obs.values)) == 1:
        return _data_error("observations have zero variance; R^2 is undefined")
    if obs.days[-1] >= horizon:
        return _data_error(f"observation day {obs.days[-1]} is outside the horizon {horizon}")
    fit_config = config.fit
    if seed is not None:
        fit_config = FitConfig(**{**_field_dict(fit_config), "seed": seed})
    if horizon < len(w):
        w = LoadSeries(w.values[:horizon])
    return w, obs, config, fit_config


def cmd_fit(
    load_path: str,
    perf_path: str,
    config_path: str,
    out_dir: str,
    seed: int | None = None,
) -> CommandOutcome:
    """Fit the configured variant and write params, predictions and charts."""
    inputs = _load_fit_inputs(load_path, perf_path, config_path, seed)
    if isinstance(inputs, CommandOutcome):
        return inputs
    w, obs, config, fit_config = inputs

    try:
        result = fit_variant(w, obs, config.bounds, fit_config, config.variant)
    except FfdelayError as exc:
        return CommandOutcome(EXIT_NUMERIC, f"error: fit failed: {exc}")
    if result.starts_converged == 0:
        return CommandOutcome(
            EXIT_NUMERIC,
            f"error: no start converged within {fit_config.max_iterations} iterations",
        )

    table = build_prediction_table(w, result.predicted, obs)
    artifacts = {
        "params.json": dumps_params(result),
        "predictions.csv": emit_prediction_csv(table),
        "fit_chart.svg": render_fit_chart(table, config.chart),
        "load_chart.svg": render_load_chart(w, config.chart),
    }
    lines = [
        f"fitted variant {result.variant} over {len(w)} days, {len(obs)} observations",
        f"SSE = {result.sse:.8g}",
        f"R^2 = {result.r2:.6f}",
        f"converged starts: {result.starts_converged}/{fit_config.starts}"
        f" (best: #{result.best_start_index}, {result.iterations_used} iterations)",
    ]
    lines += [f"warning: {warning}" for warning in result.warnings]
    return _write_outcome(out_dir, artifacts, lines)


def cmd_predict(
    load_path: str, params_path: str, horizon: int, out_dir: str
) -> CommandOutcome:
    """Forward-run a parameter document over the requested horizon."""
    if horizon < 1:
        return CommandOutcome(EXIT_USAGE, f"error: horizon must be >= 1, got {horizon}")
    try:
        w = parse_load_csv(_read_text(load_path))
        params = parse_params(_read_text(params_path))
    except FfdelayError as exc:
        return _data_error(str(exc))
    if horizon > len(w):
        return _data_error(f"horizon {horizon} exceeds load series length {len(w)}")

    try:
        predicted = predict_performance(
            params.variant, params.p0, params.k1, params.k2,
            params.fitness, params.fatigue, w, horizon,
        )
    except FfdelayError as exc:
        return CommandOutcome(EXIT_NUMERIC, f"error: prediction failed: {exc}")
    if not all(map(math.isfinite, predicted)):  # valid but unstable parameters
        day = list(map(math.isfinite, predicted)).index(False)
        return CommandOutcome(
            EXIT_NUMERIC, f"error: prediction failed: forecast is not finite from day {day}"
        )

    table = build_prediction_table(w, predicted)
    artifacts = {
        "predictions.csv": emit_prediction_csv(table),
        "prediction_chart.svg": render_fit_chart(table, ChartOptions()),
    }
    return _write_outcome(
        out_dir, artifacts, [f"predicted {horizon} days with variant {params.variant}"]
    )


def cmd_simulate(
    load_path: str,
    variant: str,
    out_dir: str,
    tau1: float | None = None,
    tau2: float | None = None,
    tau3: float | None = None,
    tau4: float | None = None,
    tau5: float | None = None,
) -> CommandOutcome:
    """Evaluate one state-model variant and write its trajectory and chart.

    The classical variant is evaluated through the single-delay recursion with
    the lag term switched off; this is the same trajectory and makes the
    tau5=0 / infinite-lag reductions produce identical files.
    """
    try:
        row = variant_row(variant)
    except FfdelayError as exc:
        return CommandOutcome(EXIT_USAGE, f"error: {exc}")
    given = {"tau1": tau1, "tau2": tau2, "tau3": tau3, "tau4": tau4, "tau5": tau5}
    missing = [f for f in row.flags if given[f] is None]
    if missing:
        flags = " ".join(f"--{f} X" for f in row.flags)
        return CommandOutcome(
            EXIT_USAGE,
            f"error: variant {variant} requires --{', --'.join(missing)}\n"
            f"usage: ffdelay simulate --load <csv> --variant {variant} {flags} --out <dir>",
        )

    try:
        w = parse_load_csv(_read_text(load_path))
    except FfdelayError as exc:
        return _data_error(str(exc))

    horizon = len(w)
    evaluate = {
        "three_delay": eval_three_delay_recursive,
        "kernel": eval_kernel_recursive,
    }.get(variant, eval_single_delay_recursive)
    try:
        side = row.side(*(given[f] for f in row.flags))
        if variant == "classical":
            side = SingleDelayParams(side.tau_decay)
        state = evaluate(w, side, horizon)
    except FfdelayError as exc:
        return CommandOutcome(EXIT_USAGE, f"error: invalid parameters: {exc}")

    fmt = format_number
    lines = [
        f"{day},{fmt(load)},{fmt(value)}"
        for day, (load, value) in enumerate(zip(w.values, state.values))
    ]
    trajectory_csv = "day,load,state\n" + "\n".join(lines) + "\n"
    table = build_prediction_table(w, state.values)
    artifacts = {
        "trajectory.csv": trajectory_csv,
        "state_chart.svg": render_fit_chart(table, ChartOptions(), y_label="state"),
    }
    return _write_outcome(
        out_dir, artifacts, [f"simulated variant {variant} over {horizon} days"]
    )


def cmd_compare(
    load_path: str,
    perf_path: str,
    config_path: str,
    out_dir: str,
    seed: int | None = None,
) -> CommandOutcome:
    """Fit all four variants on the same data and write a comparison table."""
    inputs = _load_fit_inputs(load_path, perf_path, config_path, seed)
    if isinstance(inputs, CommandOutcome):
        return inputs
    w, obs, config, fit_config = inputs

    try:
        results = compare_variants(w, obs, config.bounds, fit_config)
    except FfdelayError as exc:
        return CommandOutcome(EXIT_NUMERIC, f"error: fit failed: {exc}")
    if any(r.starts_converged == 0 for r in results):
        stuck = ", ".join(r.variant for r in results if r.starts_converged == 0)
        return CommandOutcome(
            EXIT_NUMERIC, f"error: no start converged for variant(s): {stuck}"
        )

    lines = ["variant,n_params,sse,r2,starts_converged"]
    for r in results:
        lines.append(
            f"{r.variant},{r.n_free},{format_number(r.sse)},"
            f"{format_number(r.r2)},{r.starts_converged}"
        )
    artifacts = {"comparison.csv": "\n".join(lines) + "\n"}
    summary = [
        f"compared {len(results)} variants over {len(w)} days, {len(obs)} observations"
    ] + [
        f"  {r.variant:<13} n_params={r.n_free:<2} SSE={r.sse:.8g} R^2={r.r2:.6f}"
        for r in results
    ]
    return _write_outcome(out_dir, artifacts, summary)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _tau_flag(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number or 'inf', got {value!r}") from None
    if math.isnan(x) or x == -math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number or 'inf', got {value!r}")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ffdelay",
        description="Fitness-fatigue modeling with delayed adaptation: "
        "fit, predict, simulate and compare.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_fit = sub.add_parser("fit", help="fit parameters to observed performance")
    p_fit.add_argument("--load", required=True, help="load CSV (day,load)")
    p_fit.add_argument("--perf", required=True, help="performance CSV (day,performance)")
    p_fit.add_argument("--config", required=True, help="YAML run configuration")
    p_fit.add_argument("--out", required=True, help="output directory")
    p_fit.add_argument("--seed", type=int, default=None, help="override fit.seed")

    p_pred = sub.add_parser("predict", help="predict performance from fitted parameters")
    p_pred.add_argument("--load", required=True, help="load CSV (day,load)")
    p_pred.add_argument("--params", required=True, help="params JSON from a prior fit")
    p_pred.add_argument("--horizon", required=True, type=int, help="days to predict")
    p_pred.add_argument("--out", required=True, help="output directory")

    p_sim = sub.add_parser("simulate", help="evaluate a state-model variant directly")
    p_sim.add_argument("--load", required=True, help="load CSV (day,load)")
    p_sim.add_argument("--variant", required=True, choices=VARIANTS)
    p_sim.add_argument("--tau1", type=_tau_flag, default=None, help="decay constant (days)")
    p_sim.add_argument("--tau2", type=_tau_flag, default=None, help="lag-1 constant (days or inf)")
    p_sim.add_argument("--tau3", type=_tau_flag, default=None, help="lag-2 constant (days or inf)")
    p_sim.add_argument("--tau4", type=_tau_flag, default=None, help="lag-3 constant (days or inf)")
    p_sim.add_argument("--tau5", type=_tau_flag, default=None, help="kernel gain (1/day^2)")
    p_sim.add_argument("--out", required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="fit all four variants and tabulate quality")
    p_cmp.add_argument("--load", required=True)
    p_cmp.add_argument("--perf", required=True)
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--seed", type=int, default=None, help="override fit.seed")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "fit":
            outcome = cmd_fit(args.load, args.perf, args.config, args.out, args.seed)
        elif args.command == "predict":
            outcome = cmd_predict(args.load, args.params, args.horizon, args.out)
        elif args.command == "simulate":
            outcome = cmd_simulate(
                args.load, args.variant, args.out,
                tau1=args.tau1, tau2=args.tau2, tau3=args.tau3,
                tau4=args.tau4, tau5=args.tau5,
            )
        else:
            outcome = cmd_compare(args.load, args.perf, args.config, args.out, args.seed)
    except Exception as exc:  # bad input raises FfdelayError; anything else is a defect
        import traceback

        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    stream = sys.stdout if outcome.exit_code == EXIT_OK else sys.stderr
    print(outcome.summary, file=stream)
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
