"""``ffdelay`` command-line interface.

Four subcommands wire the library into the full workflow:

* ``fit``      -- estimate parameters from load + performance CSVs
* ``predict``  -- forward-run a fitted (or hand-written) parameter document
* ``simulate`` -- evaluate any state-model variant directly from flags
* ``compare``  -- fit all four variants on the same data and tabulate quality

Each ``cmd_*`` is a function of the parsed arguments that returns its artifacts
(file name -> text) and summary lines, or raises ``_Failure`` with an exit code
and a message; ``_exit_on`` turns a library fault into that failure. ``main``
alone parses, runs the command, writes its artifacts, prints and returns the
code. Exit codes: 0 success, 1 usage error (such as ``error: argument --horizon:
expected an integer >= 1, got '0'``), 2 data error (an unreadable or invalid
input, named in the message as in ``error: perf.csv: line 3: duplicate day 1``,
or artifacts that cannot be written), 3 numerical failure or internal error (an
unexpected exception; the last line of stderr reads
``error: internal error: <Type>: <message>``). All artifacts are
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
from .errors import FfdelayError
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


@contextlib.contextmanager
def _exit_on(code: int, prefix: str = ""):
    """A library fault (``FfdelayError``) raised in the block ends the command
    as ``_Failure(code, prefix + message)``; any other exception passes as it is."""
    try:
        yield
    except FfdelayError as exc:
        raise _Failure(code, f"{prefix}{exc}") from exc


def _parse(parse, path: str):
    """``parse`` of the UTF-8 text in file ``path``, less a leading byte-order
    mark (spreadsheets write one); any fault is a data error naming ``path``."""
    try:
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise _Failure(EXIT_DATA, f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Failure(EXIT_DATA, f"{path} is not valid UTF-8: {exc}") from exc
    with _exit_on(EXIT_DATA, f"{path}: "):
        return parse(text)


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
    with _exit_on(EXIT_DATA):  # the fitter's own rules, so a fit cannot meet them later
        horizon = _check_horizon(w, config.horizon or len(w))  # a config horizon is >= 1
        _obs_horizon(horizon, obs)
        _sst(obs)
    fit_config = config.fit
    if args.seed is not None:
        fit_config = FitConfig(**{**_field_dict(fit_config), "seed": args.seed})
    if horizon < len(w):
        w = LoadSeries(w.values[:horizon])
    return w, obs, config, fit_config


def cmd_fit(args: argparse.Namespace) -> _Artifacts:
    """Fit the configured variant: params, predictions and charts."""
    w, obs, config, fit_config = _load_fit_inputs(args)
    with _exit_on(EXIT_NUMERIC, "fit failed: "):
        result = fit_variant(w, obs, config.bounds, fit_config, config.variant)
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
    w = _parse(parse_load_csv, args.load)
    params = _parse(parse_params, args.params)
    with _exit_on(EXIT_DATA):  # params are a checked ModelParams; only the horizon fails
        predicted = predict_performance(
            params.variant, params.p0, params.k1, params.k2,
            params.fitness, params.fatigue, w, args.horizon,
        )
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
    with _exit_on(EXIT_USAGE, "invalid parameters: "):
        side = row.side(*(given[f] for f in row.flags))
    w = _parse(parse_load_csv, args.load)
    if variant == "classical":
        side = SingleDelayParams(side.tau_decay)
    horizon = len(w)
    evaluate = {
        "three_delay": eval_three_delay_recursive,
        "kernel": eval_kernel_recursive,
    }.get(variant, eval_single_delay_recursive)
    with _exit_on(EXIT_NUMERIC, "simulation failed: "):  # valid but unstable parameters
        state = evaluate(w, side, horizon)

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
    with _exit_on(EXIT_NUMERIC, "fit failed: "):
        results = compare_variants(w, obs, config.bounds, fit_config)
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


def _int_flag(least: int):
    """The argparse type of a flag that takes an integer of at least ``least``."""
    def read(value: str) -> int:
        with contextlib.suppress(ValueError):
            if (number := int(value)) >= least:
                return number
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {value!r}")
    return read


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
    fit_flags.add_argument("--seed", type=_int_flag(0), default=None, help="override fit.seed")

    sub.add_parser(
        "fit", parents=[fit_flags], help="fit parameters to observed performance"
    ).set_defaults(command=cmd_fit)

    p_pred = sub.add_parser(
        "predict", parents=[io_flags], help="predict performance from fitted parameters"
    )
    p_pred.add_argument("--params", required=True, help="params JSON from a prior fit")
    p_pred.add_argument("--horizon", required=True, type=_int_flag(1), help="days to predict")
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
