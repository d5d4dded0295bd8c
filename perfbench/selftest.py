"""Self-test of the benchmark at minimal size.

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with its
unit, in both modes; that the human-readable report carries each workload's
named metrics with unit and sample count; that an injected failing
operation raises error_rate and an injected wrong output clears ``correct``;
that the result line has exactly the contract's keys; and that the command
fails without printing a result where there are no ffdelay sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import run
from workloads import Op, Verdict

NAMED = {
    "fit_cohort": {"fit_p50_s": "s", "fit_tail_s": "s", "fits_per_s": "1/s", "fit_miss_rate": "ratio"},
    "forecast_long": {"forecast_days_per_s": "1/s", "forecast_p50_ms": "ms", "forecast_tail_ms": "ms"},
    "cli_session": {"cli_forecast_p50_s": "s", "cli_fit_p50_s": "s", "cli_compare_p50_s": "s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB"}


def _units(section: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in section}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = _units(spec["end_to_end"]), _units(spec["per_layer"])
    problems: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    sys.path.insert(0, str(run.SRC))
    for name in run.WORKLOADS:  # fit_cohort too, which BENCHMARK.json leaves out
        res = run.run(name, seed=0, seconds=0.01, trace=False)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == end_to_end, f"{name}: end-to-end metrics and units match BENCHMARK.json")
        expect(all(isinstance(v["value"], float) and v["value"] > 0 for v in res["metrics"].values()),
               f"{name}: every end-to-end value is a positive number")
        report = res["report"]
        for metric, unit in {**NAMED[name], **COMMON}.items():
            row = report.get(metric)
            expect(row is not None and row["unit"] == unit and "n" in row,
                   f"{name}: reports {metric} in {unit} with a sample count")
        expect(res["correct"] and res["attempted"] >= 1, f"{name}: outputs check correct")

        traced = run.run(name, seed=0, seconds=0.01, trace=True)
        got = {k: v["unit"] for k, v in traced["metrics"].items()}
        expect(got == per_layer, f"{name}: per-layer metrics and units match BENCHMARK.json")
        expect(set(traced["overhead"]) == {"op_p50_ms", "work_per_s"},
               f"{name}: traced run reports tracing overhead")

    def boom():
        raise RuntimeError("injected failure")

    base = run.run("forecast_long", seed=0, seconds=0.05, trace=False)
    failing = run.run("forecast_long", seed=0, seconds=0.05, trace=False,
                      extra_ops=[Op("forecast", boom, lambda _: Verdict(), str)])
    expect(failing["failed"] >= 1 and failing["error_rate"] > base["error_rate"],
           "an injected failing operation raises error_rate")
    wrong = run.run("forecast_long", seed=0, seconds=0.05, trace=False,
                    extra_ops=[Op("forecast", tuple, lambda _: Verdict(True, True, "injected"), str)])
    expect(not wrong["correct"] and wrong["failed"] >= 1, "an injected wrong output clears correct")

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forecast_long", "--seed", "0",
         "--seconds", "0.05", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    expect(set(last) == {"correct", "attempted", "failed", "metrics"},
           "the last output line has exactly the contract's keys")

    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fit_cohort", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without ffdelay sources the command fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
