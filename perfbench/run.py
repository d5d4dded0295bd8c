"""ffdelay benchmark: one workload, closed loop, one client, one thread.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload fit_cohort --seed 1 --seconds 30 --trace 0

Workloads: fit_cohort, forecast_long, cli_session (see perfbench/NOTES.md).
Every input is generated from --seed, and how many distinct operations a run
attempts depends only on --seconds. The loop issues the next operation when
the previous one has finished: every distinct operation once, then repeats of
the headline operations until --seconds have passed. Correctness checks run
between operations, outside the timings.

--trace 0 measures the end-to-end metrics. --trace 1 records spans at
ffdelay's module boundaries, follows every traced execution with an untraced
one of the same operation to measure the tracing overhead, and reports the
per-layer metrics. Human-readable lines (``metric``, ``layer``, ``overhead``,
``provenance``) come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Full results
and the recorded spans are written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from workloads import WORKLOADS, Op, Verdict  # noqa: E402

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
DIGEST_OPS = 8  # the run digest covers this many leading operations

# Fresh-interpreter set-up: import ffdelay and load the inputs through dataio.
_SETUP_PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
manifest = json.loads(sys.argv[2])
for name in manifest["modules"]:
    importlib.import_module(name)
from ffdelay import dataio
for parser, path in manifest["files"]:
    with open(path) as fh:
        getattr(dataio, parser)(fh.read())
"""
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import ffdelay.cli
print(time.perf_counter() - t)
"""


@dataclass
class Record:
    """One distinct operation: its verdict, first digest and every timing."""

    op: Op
    verdict: Verdict
    digest: str
    times: list[float]
    untraced: list[float] = field(default_factory=list)  # paired executions, tracer off

    @property
    def kind(self) -> str:
        return self.op.kind


def _execute(op: Op) -> tuple[float, object, Exception | None]:
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter() - start, None, exc
    return time.perf_counter() - start, result, None


def _digest(op: Op, result) -> str | None:
    try:
        return op.digest(result)
    except Exception:  # e.g. an artifact went missing: cannot equal a real digest
        return None


def _untraced(op: Op, tracer) -> float:
    tracer.uninstall()
    try:
        return _execute(op)[0]
    finally:
        tracer.install()


def measure(ops, seconds: float, workload, tracer=None) -> list[Record]:
    """Closed loop over one workload's operations.

    The first pass runs every operation of ``ops`` once and checks each
    result; it finishes even when it takes longer than ``seconds``, so the
    operations attempted (and failed) depend only on the inputs. Later passes
    repeat the headline operations that succeeded, in the same order, until
    ``seconds`` have passed; a repeat must reproduce the first result bit for
    bit. How an operation's executions make its time is up to the workload
    (``workload.op_time``).

    With a ``tracer`` (installed by the caller) every execution is followed
    by an untraced execution of the same operation, so that the tracing
    overhead is measured on pairs that ran moments apart.
    """
    quiet = tracer.suspended if tracer is not None else contextlib.nullcontext
    start = time.perf_counter()
    records: list[Record] = []
    while True:
        with quiet():
            op = next(ops, None)
        if op is None:
            break
        if tracer is not None:
            tracer.op_id = len(records)
        elapsed, result, error = _execute(op)
        untraced = [_untraced(op, tracer)] if tracer is not None else []
        with quiet():
            if error is not None:
                verdict, digest = Verdict(True, False, f"raised {type(error).__name__}: {error}"), ""
            else:
                try:
                    verdict, digest = op.check(result), op.digest(result)
                except Exception as exc:
                    verdict = Verdict(True, True, f"check raised {type(exc).__name__}: {exc}")
                    digest = ""
        records.append(Record(op, verdict, digest, [elapsed], untraced))
    while time.perf_counter() < start + seconds:
        repeated = False
        for index, rec in enumerate(records):
            if rec.verdict.failed or rec.kind not in workload.headline:
                continue
            if time.perf_counter() >= start + seconds:
                break
            if tracer is not None:
                tracer.op_id = index
            elapsed, result, error = _execute(rec.op)
            rec.times.append(elapsed)
            if tracer is not None:
                rec.untraced.append(_untraced(rec.op, tracer))
            repeated = True
            with quiet():
                if error is not None or _digest(rec.op, result) != rec.digest:
                    rec.verdict = Verdict(True, True, "repeated execution gave a different result")
        if not repeated:
            break
    return records


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum (percentile 100) below eleven samples."""
    xs = sorted(values)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


class Report:
    """Named metrics, each with its unit and sample count."""

    def __init__(self) -> None:
        self.rows: dict[str, dict] = {}

    def add(self, name: str, value, unit: str, n: int, **extra) -> None:
        self.rows[name] = {"value": value, "unit": unit, "n": n, **extra}

    def timing(self, prefix: str, values: list[float], unit: str, scale: float) -> None:
        if not values:
            self.add(f"{prefix}_p50_{unit}", None, unit, 0)
            self.add(f"{prefix}_tail_{unit}", None, unit, 0)
            return
        value, pct = tail(values)
        self.add(f"{prefix}_p50_{unit}", statistics.median(values) * scale, unit, len(values))
        self.add(f"{prefix}_tail_{unit}", value * scale, unit, len(values),
                 percentile=round(pct, 2), beyond=min(10, len(values) - 1))


def ok(records: list[Record], *kinds: str) -> list[Record]:
    return [r for r in records if r.kind in kinds and not r.verdict.failed]


def workload_metrics(workload, samples: list[Record]) -> Report:
    """The workload's named end-to-end metrics, then op_p50_ms, op_tail_ms
    and work_per_s: the same figures under the names every workload shares,
    for its headline operation (a fit; a forecast; a simulate or predict
    process)."""
    r = Report()
    head = ok(samples, *workload.headline)
    op_secs = [workload.op_time(s.times) for s in head]
    if workload.name == "fit_cohort":
        work = len(head)
        r.timing("fit", op_secs, "s", 1.0)
        r.add("fits_per_s", work / sum(op_secs) if head else None, "1/s", work)
        misses = [s.verdict.info["miss"] for s in head]
        r.add("fit_miss_rate", sum(misses) / len(misses) if misses else None, "ratio",
              len(misses), tolerance="sse>sse_gen*(1+1e-3)+1e-6")
    elif workload.name == "forecast_long":
        work = sum(s.verdict.info["days"] for s in head)
        r.add("forecast_days_per_s", work / sum(op_secs) if head else None, "1/s", len(head))
        r.timing("forecast", op_secs, "ms", 1e3)
        plans = {s.verdict.info["plan"] for s in head}
        r.add("plan_reuse_ratio", (len(head) - len(plans)) / len(head) if head else None,
              "ratio", len(head), plans=len(plans))
    else:
        work = inputs.LONG_HORIZON * len(head)
        for prefix, kinds in (("cli_forecast", workload.headline),
                              ("cli_fit", ("cli_fit",)), ("cli_compare", ("cli_compare",))):
            values = [workload.op_time(s.times) for s in ok(samples, *kinds)]
            r.add(f"{prefix}_p50_s", statistics.median(values) if values else None, "s", len(values))
    r.timing("op", op_secs, "ms", 1e3)
    r.add("work_per_s", work / sum(op_secs) if op_secs else None, "1/s", len(op_secs))
    return r


def error_summary(samples: list[Record]) -> tuple[int, int, dict[str, int]]:
    failed = [s for s in samples if s.verdict.failed]
    reasons: dict[str, int] = {}
    for s in failed:
        key = f"{s.kind}: {s.verdict.note[:120]}"
        reasons[key] = reasons.get(key, 0) + 1
    return len(samples), len(failed), reasons


def run_digest(samples: list[Record]) -> tuple[str, int]:
    lead = samples[:DIGEST_OPS]
    text = "\n".join(f"{s.kind}:{s.verdict.failed}:{s.digest}" for s in lead)
    return hashlib.sha256(text.encode()).hexdigest(), len(lead)


# ---------------------------------------------------------------------------
# set-up, memory and provenance
# ---------------------------------------------------------------------------


def _python_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def setup_seconds(workload) -> list[float]:
    manifest = json.dumps({"modules": list(workload.modules), "files": workload.setup_files()})
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), manifest],
                       check=True, env=_python_env(), timeout=120)
        times.append(time.perf_counter() - start)
    return times


def cli_import_seconds() -> list[float]:
    return [
        float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], check=True,
                             capture_output=True, text=True, env=_python_env(),
                             timeout=120).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def provenance(seed: int) -> dict:
    commit = "unknown"  # a source checkout need not be a git repository
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

#: the end-to-end metrics of the result line, as named in BENCHMARK.json
END_TO_END = ("op_p50_ms", "op_tail_ms", "work_per_s", "peak_rss_mb", "setup_s")


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        extra_ops: list[Op] = ()) -> dict:
    """Run one workload and return the full result (also printed by main)."""
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload_name}-", dir=OUT))
    try:
        workload = WORKLOADS[workload_name](seed, workdir)
        in_process = trace  # spans cannot cross a process boundary

        def ops():
            yield from extra_ops
            yield from workload.ops(in_process, workload.count(seconds))

        result: dict = {"workload": workload_name, "seconds": seconds, "trace": int(trace),
                        "provenance": provenance(seed)}
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                samples = measure(ops(), seconds, workload, tracer)
            finally:
                tracer.uninstall()
            replayed = [Record(s.op, s.verdict, s.digest, s.untraced) for s in samples]
            tracer.write(OUT / f"spans-{workload_name}-seed{seed}.npz")
            layers = tracer.layer_metrics()
            imports = cli_import_seconds() if workload_name == "cli_session" else [0.0]
            layers["cli.import_s"] = (statistics.median(imports), "s")
            traced_report = workload_metrics(workload, samples).rows
            untraced_report = workload_metrics(workload, replayed).rows
            busy = [sum(sum(s.times) for s in x) for x in (samples, replayed)]
            layers["trace.overhead_ratio"] = (busy[0] / busy[1] - 1.0 if busy[1] else 0.0, "ratio")
            result["overhead"] = {
                k: {"traced": traced_report[k]["value"], "untraced": untraced_report[k]["value"]}
                for k in ("op_p50_ms", "work_per_s")
            }
            result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            result["spans"] = len(tracer.spans) // 6
            metrics = result["layers"]
        else:
            samples = measure(ops(), seconds, workload)
            rss = peak_rss_mb(children=workload_name == "cli_session")
            report = workload_metrics(workload, samples)
            setups = setup_seconds(workload)
            report.add("setup_s", statistics.median(setups), "s", len(setups))
            report.add("peak_rss_mb", rss, "MB", 1)
            result["report"] = report.rows
            metrics = {k: {"value": report.rows[k]["value"], "unit": report.rows[k]["unit"]}
                       for k in END_TO_END}
        attempted, failed, reasons = error_summary(samples)
        result.update(
            attempted=attempted, failed=failed, failures=reasons,
            error_rate=failed / attempted,
            correct=not any(s.verdict.wrong for s in samples),
            digest=run_digest(samples),
            kinds={k: sum(s.kind == k for s in samples) for k in sorted({s.kind for s in samples})},
            executions=sum(len(s.times) for s in samples),
            samples={k: sorted(workload.op_time(s.times) for s in ok(samples, k))
                     for k in sorted({s.kind for s in samples})},
            metrics=metrics,
        )
        (OUT / f"result-{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ffdelay" / "__init__.py").is_file():
        print(f"error: no ffdelay sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    prov = res["provenance"]
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"run workload={res['workload']} seconds={res['seconds']} trace={res['trace']} "
          f"ops={res['kinds']} executions={res['executions']} "
          f"digest={res['digest'][0][:16]} digest_ops={res['digest'][1]}")
    print(f"metric error_rate {res['error_rate']} ratio n={res['attempted']}")
    for reason, count in res["failures"].items():
        print(f"failure {count}x {reason}")
    if args.trace:
        for name, row in res["layers"].items():
            print(f"layer {name} {row['value']} {row['unit']}")
        for name, row in res["overhead"].items():
            print(f"overhead {name} traced={row['traced']} untraced={row['untraced']}")
    else:
        for name, row in res["report"].items():
            extra = "".join(f" {k}={v}" for k, v in row.items() if k not in ("value", "unit", "n"))
            print(f"metric {name} {row['value']} {row['unit']} n={row['n']}{extra}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
