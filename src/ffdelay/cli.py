"""``ffdelay`` command-line interface.

Four subcommands wire the library into the full workflow:

* ``fit``      -- estimate parameters from load + performance CSVs
* ``predict``  -- forward-run a fitted (or hand-written) parameter document
* ``simulate`` -- evaluate any state-model variant directly from flags
* ``compare``  -- fit all four variants on the same data and tabulate quality

Each ``cmd_*`` is a function of the parsed arguments that returns its artifacts
(file name -> text) and summary lines, or raises ``_Failure`` with an exit code
and a message. ``main`` alone parses, runs the command, writes its artifacts,
prints and returns the code. Exit codes: 0 success, 1 usage error, 2 data error
(an unreadable or invalid input, or artifacts that cannot be written), 3
numerical failure or internal error (an unexpected exception; the last line of
stderr reads ``error: internal error: <Type>: <message>``). All artifacts are
computed before anything is written. Each is written to a temporary file, and
only when all are written are they renamed into place; if writing fails, this
run's temporaries and renamed artifacts are removed and the files they replaced
are put back, so a failed run leaves no artifact of its own and an earlier
run's artifacts as they were.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
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
from .errors import FfdelayError, SeriesLengthError
from .estimation import _obs_horizon, _sst, compare_variants, fit_variant
from .models import (
    VARIANTS,
    FitConfig,
    LoadSeries,
    ObservationSet,
    SingleDelayParams,
    _check_horizon,
    _field_dict,
    eval_kernel_recursive,
    eval_single_delay_recursive,
    eval_three_delay_recursive,
    predict_performance,
    variant_row,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_Artifacts = tuple[dict[str, str], list[str]]  # a command's file name -> text, summary lines


class _Failure(Exception):
    """Ends a command: ``main`` prints ``error: <message>`` and exits with ``code``."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _parse(parse, path: str):
    """``parse`` of the UTF-8 text in file ``path``, less a leading byte-order
    mark (spreadsheets write one); any fault is a data error."""
    try:
        return parse(Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff"))
    except OSError as exc:
        message = f"cannot read {path}: {exc.strerror or exc}"
    except UnicodeDecodeError as exc:
        message = f"{path} is not valid UTF-8: {exc}"
    except FfdelayError as exc:
        message = str(exc)
    raise _Failure(EXIT_DATA, message)


def _write(out_dir: str, artifacts: dict[str, str]) -> list[Path]:
    """Write all of ``artifacts`` into ``out_dir`` or none of them; return their paths.

    Every file is written under a temporary name before any is renamed into
    place, with the mode ``open(path, "w")`` would give it. A file a rename
    would replace is first hard-linked to a backup name. On a failure the
    temporaries and the artifacts this run already renamed into place are
    removed and the backups put back; on success the backups are removed.
    """
    out = Path(out_dir)
    paths = [out / name for name in artifacts]
    temps: list[str] = []
    backups: list[tuple[str, Path]] = []
    placed = 0
    umask = os.umask(0)
    os.umask(umask)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, text in zip(paths, artifacts.values()):
            fd, tmp = tempfile.mkstemp(dir=out, prefix=path.name + ".", suffix=".tmp")
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600
        for tmp, path in zip(temps, paths):
            with contextlib.suppress(FileNotFoundError):
                if not stat.S_ISDIR(os.lstat(path).st_mode):  # no rename replaces a directory
                    os.link(path, tmp + ".old", follow_symlinks=False)
                    backups.append((tmp + ".old", path))
            os.replace(tmp, path)
            placed += 1
    except BaseException as exc:
        for leftover in [*paths[:placed], *temps[placed:]]:
            with contextlib.suppress(OSError):
                os.unlink(leftover)
        for backup, path in backups:
            with contextlib.suppress(OSError):
                os.replace(backup, path)
        if isinstance(exc, OSError):
            raise _Failure(EXIT_DATA, f"cannot write artifacts to {out_dir}: {exc}") from exc
        raise
    for backup, _ in backups:
        with contextlib.suppress(OSError):
            os.unlink(backup)
    return paths


def _check_finite(values: Sequence[float], what: str) -> None:
    """A numerical failure naming the first day of ``values`` that is not finite."""
    if not all(map(math.isfinite, values)):
        day = list(map(math.isfinite, values)).index(False)
        raise _Failure(EXIT_NUMERIC, f"{what} is not finite from day {day}")


def _load_fit_inputs(
    args: argparse.Namespace,
) -> tuple[LoadSeries, ObservationSet, RunConfig, FitConfig]:
    """Parse and validate the inputs of ``fit`` and ``compare``.

    Returns the load cut to the configured horizon, the observations, the run
    configuration and its fit settings with ``--seed`` applied.
    """
    w = _parse(parse_load_csv, args.load)
    obs = _parse(parse_performance_csv, args.perf)
    config = _parse(load_config, args.config)
    try:  # the fitter's own rules, so a fit cannot meet them later
        horizon = _check_horizon(w, config.horizon or len(w))  # a config horizon is >= 1
        _obs_horizon(horizon, obs)
        _sst(obs)
    except FfdelayError as exc:
        raise _Failure(EXIT_DATA, str(exc)) from exc
    fit_config = config.fit
    if args.seed is not None:
        fit_config = FitConfig(**{**_field_dict(fit_config), "seed": args.seed})
    if horizon < len(w):
        w = LoadSeries(w.values[:horizon])
    return w, obs, config, fit_config


def cmd_fit(args: argparse.Namespace) -> _Artifacts:
    """Fit the configured variant: params, predictions and charts."""
    w, obs, config, fit_config = _load_fit_inputs(args)
    try:
        result = fit_variant(w, obs, config.bounds, fit_config, config.variant)
    except FfdelayError as exc:
        raise _Failure(EXIT_NUMERIC, f"fit failed: {exc}") from exc
    if result.starts_converged == 0:
        raise _Failure(
            EXIT_NUMERIC, f"no start converged within {fit_config.max_iterations} iterations"
        )
    _check_finite(result.predicted, "fit failed: predicted trajectory")  # unstable past the data

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
    return artifacts, lines


def cmd_predict(args: argparse.Namespace) -> _Artifacts:
    """Forward-run a parameter document over the requested horizon."""
    if args.horizon < 1:
        raise _Failure(EXIT_USAGE, f"horizon must be >= 1, got {args.horizon}")
    w = _parse(parse_load_csv, args.load)
    params = _parse(parse_params, args.params)
    try:
        predicted = predict_performance(
            params.variant, params.p0, params.k1, params.k2,
            params.fitness, params.fatigue, w, args.horizon,
        )
    except SeriesLengthError as exc:  # params are a checked ModelParams; only the horizon fails
        raise _Failure(EXIT_DATA, str(exc)) from exc
    _check_finite(predicted, "prediction failed: forecast")  # valid but unstable parameters

    table = build_prediction_table(w, predicted)
    artifacts = {
        "predictions.csv": emit_prediction_csv(table),
        "prediction_chart.svg": render_fit_chart(table, ChartOptions()),
    }
    return artifacts, [f"predicted {args.horizon} days with variant {params.variant}"]


# Every ``simulate --tau*`` flag and its help; a variant's ``flags`` name the ones it takes
_TAU_FLAGS = {
    "tau1": "decay constant (days)",
    "tau2": "lag-1 constant (days or inf)",
    "tau3": "lag-2 constant (days or inf)",
    "tau4": "lag-3 constant (days or inf)",
    "tau5": "kernel gain (1/day^2)",
}


def cmd_simulate(args: argparse.Namespace) -> _Artifacts:
    """Evaluate one state-model variant: its trajectory and chart.

    The classical variant is evaluated through the single-delay recursion with
    the lag term switched off; this is the same trajectory and makes the
    tau5=0 / infinite-lag reductions produce identical files.
    """
    variant = args.variant
    row = variant_row(variant)
    given = {f: getattr(args, f) for f in _TAU_FLAGS}
    missing = [f for f in row.flags if given[f] is None]
    extra = [f for f, value in given.items() if value is not None and f not in row.flags]
    if missing or extra:
        problem = (f"requires --{', --'.join(missing)}" if missing
                   else f"does not take --{', --'.join(extra)}")
        flags = " ".join(f"--{f} X" for f in row.flags)
        raise _Failure(
            EXIT_USAGE,
            f"variant {variant} {problem}\n"
            f"usage: ffdelay simulate --load <csv> --variant {variant} {flags} --out <dir>",
        )
    try:
        side = row.side(*(given[f] for f in row.flags))
    except FfdelayError as exc:
        raise _Failure(EXIT_USAGE, f"invalid parameters: {exc}") from exc
    w = _parse(parse_load_csv, args.load)
    if variant == "classical":
        side = SingleDelayParams(side.tau_decay)
    horizon = len(w)
    evaluate = {
        "three_delay": eval_three_delay_recursive,
        "kernel": eval_kernel_recursive,
    }.get(variant, eval_single_delay_recursive)
    try:
        state = evaluate(w, side, horizon)
    except FfdelayError as exc:  # valid but unstable parameters
        raise _Failure(EXIT_NUMERIC, f"simulation failed: {exc}") from exc

    pairs = enumerate(zip(w.values, state.values))
    trajectory_csv = "day,load,state\n" + "".join(
        f"{day},{format_number(load)},{format_number(value)}\n" for day, (load, value) in pairs
    )
    table = build_prediction_table(w, state.values)
    artifacts = {
        "trajectory.csv": trajectory_csv,
        "state_chart.svg": render_fit_chart(table, ChartOptions(), y_label="state"),
    }
    return artifacts, [f"simulated variant {variant} over {horizon} days"]


def cmd_compare(args: argparse.Namespace) -> _Artifacts:
    """Fit all four variants on the same data: a comparison table."""
    w, obs, config, fit_config = _load_fit_inputs(args)
    try:
        results = compare_variants(w, obs, config.bounds, fit_config)
    except FfdelayError as exc:
        raise _Failure(EXIT_NUMERIC, f"fit failed: {exc}") from exc
    if any(r.starts_converged == 0 for r in results):
        stuck = ", ".join(r.variant for r in results if r.starts_converged == 0)
        raise _Failure(EXIT_NUMERIC, f"no start converged for variant(s): {stuck}")

    lines = ["variant,n_params,sse,r2,starts_converged"]
    for r in results:
        lines.append(
            f"{r.variant},{r.n_free},{format_number(r.sse)},"
            f"{format_number(r.r2) if math.isfinite(r.r2) else r.r2},{r.starts_converged}"
        )
    artifacts = {"comparison.csv": "\n".join(lines) + "\n"}
    summary = [f"compared {len(results)} variants over {len(w)} days, {len(obs)} observations"]
    summary += [
        f"  {r.variant:<13} n_params={r.n_free:<2} SSE={r.sse:.8g} R^2={r.r2:.6f}" for r in results
    ]
    return artifacts, summary


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise _Failure(EXIT_USAGE, message)


def _seed_flag(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ffdelay",
        description="Fitness-fatigue modeling with delayed adaptation: "
        "fit, predict, simulate and compare.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(required=True, metavar="command")

    io_flags = argparse.ArgumentParser(add_help=False)  # shared by every command
    io_flags.add_argument("--load", required=True, help="load CSV (day,load)")
    io_flags.add_argument("--out", required=True, help="output directory")
    fit_flags = argparse.ArgumentParser(add_help=False, parents=[io_flags])  # fit and compare
    fit_flags.add_argument("--perf", required=True, help="performance CSV (day,performance)")
    fit_flags.add_argument("--config", required=True, help="YAML run configuration")
    fit_flags.add_argument("--seed", type=_seed_flag, default=None, help="override fit.seed")

    sub.add_parser(
        "fit", parents=[fit_flags], help="fit parameters to observed performance"
    ).set_defaults(command=cmd_fit)

    p_pred = sub.add_parser(
        "predict", parents=[io_flags], help="predict performance from fitted parameters"
    )
    p_pred.add_argument("--params", required=True, help="params JSON from a prior fit")
    p_pred.add_argument("--horizon", required=True, type=int, help="days to predict")
    p_pred.set_defaults(command=cmd_predict)

    p_sim = sub.add_parser(
        "simulate", parents=[io_flags], help="evaluate a state-model variant directly"
    )
    p_sim.add_argument("--variant", required=True, choices=VARIANTS)
    for flag, text in _TAU_FLAGS.items():
        p_sim.add_argument(f"--{flag}", type=float, default=None, help=text)
    p_sim.set_defaults(command=cmd_simulate)

    sub.add_parser(
        "compare", parents=[fit_flags], help="fit all four variants and tabulate quality"
    ).set_defaults(command=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        artifacts, lines = args.command(args)
        paths = _write(args.out, artifacts)
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # a failure not raised as _Failure is a defect
        import traceback

        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    print("\n".join([*lines, "wrote: " + ", ".join(map(str, paths))]))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
