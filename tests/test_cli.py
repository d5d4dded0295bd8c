"""CLI tests: end-to-end commands, exit codes, artifact discipline."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import ffdelay as ff
from ffdelay.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from ffdelay.dataio import dumps_params, format_number, parse_prediction_csv
from ffdelay.models import VARIANT_TABLE
from helpers import block_load, fixture_params, observation_days, performance, sup_rel_diff

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

# Loose tolerances so every start converges within few iterations; these
# tests exercise CLI behavior, not fit quality.
FAST_CONFIG = """\
variant: single_delay
fit:
  starts: 3
  max_iterations: 800
  tolerance: 1.0e-4
  simplex_tolerance: 1.0e-4
  seed: 7
bounds:
  p0: [300.0, 700.0]
  k1: [0.005, 2.0]
  k2: [0.005, 2.0]
  tau1: [5.0, 150.0]
  tau2: [2.0, 1.0e6]
  tau3: [2.0, 150.0]
  tau4: [2.0, 1.0e6]
"""


@pytest.fixture()
def fast_config(tmp_path: Path) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(FAST_CONFIG)
    return path


def write_load(path: Path, w: ff.LoadSeries) -> None:
    path.write_text("day,load\n" + "\n".join(
        f"{d},{format_number(v)}" for d, v in enumerate(w.values)) + "\n")


def write_zero_load(path: Path, days: int = 30) -> None:
    lines = ["day,load"] + [f"{d},0" for d in range(days)]
    path.write_text("\n".join(lines) + "\n")


def write_alternating_perf(path: Path, value: str) -> None:
    """The bundled observation days, their values alternating 0 and ``value``."""
    days = [row.split(",")[0] for row in (DATA / "performance.csv").read_text().splitlines()[1:]]
    path.write_text("day,performance\n" + "".join(
        f"{day},{value if i % 2 else 0}\n" for i, day in enumerate(days)))


class TestFit:
    def test_bundled_dataset_recovers(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "fit",
            "--load", str(DATA / "load.csv"),
            "--perf", str(DATA / "performance.csv"),
            "--config", str(DATA / "config.yaml"),
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        r2_line = next(l for l in captured.out.splitlines() if l.startswith("R^2"))
        assert float(r2_line.split("=")[1]) >= 0.9999
        assert "SSE" in captured.out
        for name in ("params.json", "predictions.csv", "fit_chart.svg", "load_chart.svg"):
            assert (out / name).exists()
        doc = json.loads((out / "params.json").read_text())
        assert doc["variant"] == "single_delay"

    def test_missing_load_file_names_path(self, tmp_path, fast_config, capsys):
        missing = tmp_path / "nope.csv"
        code = main([
            "fit", "--load", str(missing), "--perf", str(DATA / "performance.csv"),
            "--config", str(fast_config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert str(missing) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_too_few_observations_cites_r2(self, tmp_path, fast_config, capsys):
        perf = tmp_path / "perf.csv"
        perf.write_text("day,performance\n7,512\n")
        code = main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(perf),
            "--config", str(fast_config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert "R^2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_run_leaves_no_partial_artifacts(self, tmp_path, fast_config, capsys):
        perf = tmp_path / "perf.csv"
        perf.write_text("day,performance\n7,512\n7,400\n")  # duplicate day
        out = tmp_path / "out"
        code = main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(perf),
            "--config", str(fast_config), "--out", str(out),
        ])
        assert code == EXIT_DATA
        assert not out.exists() or not any(out.iterdir())

    def test_integer_beyond_double_range_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(FAST_CONFIG.replace("  tolerance: 1.0e-4", f"  tolerance: {10**400}"))
        code = main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "fit: tolerance must be a real number within the double range" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new", [
        ("  tolerance: 1.0e-4", "  tolerance: " + "9" * 5001),
        ("variant: single_delay", "variant: single_delay\nhorizon: " + "9" * 5001),
    ], ids=["fit.tolerance", "horizon"])
    def test_integer_of_too_many_digits_is_data_error(self, tmp_path, capsys, old, new):
        # beyond Python's 4,300-digit limit on int() of a decimal string
        config = tmp_path / "config.yaml"
        config.write_text(FAST_CONFIG.replace(old, new))
        code = main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {config}: invalid YAML: ")
        assert not (tmp_path / "out").exists()

    def test_non_finite_chart_size_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(FAST_CONFIG + "chart:\n  width: .nan\n  height: .inf\n")
        code = main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert "chart: width must be finite and > 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_chart_smaller_than_its_margins_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(FAST_CONFIG + "chart:\n  width: 60\n  height: 40\n")
        code = main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.strip() == (
            f"error: {config}: chart: width must be > 95 to leave a plot area inside the margins,"
            " got 60"
        )
        assert not (tmp_path / "out").exists()

    def test_linear_box_wider_than_a_double_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("fit: {starts: 2}\nbounds: {p0: [-1.7e+308, 1.7e+308]}\n")
        code = main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.strip() == (
            f"error: {config}: bounds: bounds for p0 are too far apart, got [-1.7e+308, 1.7e+308]"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("title, point", [(r"a\x01b", "U+0001"), (r"a\ud800b", "U+D800")])
    def test_title_an_svg_cannot_carry_is_data_error(self, tmp_path, capsys, title, point):
        config = tmp_path / "config.yaml"
        config.write_text(FAST_CONFIG + f'chart:\n  title: "{title}"\n')
        code = main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.strip() == (
            f"error: {config}: chart: title must not contain {point}"
        )
        assert not (tmp_path / "out").exists()

    def test_load_that_is_not_utf8_is_data_error(self, tmp_path, fast_config, capsys):
        load = tmp_path / "load.csv"
        load.write_bytes((DATA / "load.csv").read_bytes() + b"\xff\n")
        code = main([
            "fit", "--load", str(load), "--perf", str(DATA / "performance.csv"),
            "--config", str(fast_config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {load} is not valid UTF-8: ")
        assert not (tmp_path / "out").exists()

    def test_input_files_may_start_with_a_byte_order_mark(self, tmp_path, fast_config):
        # spreadsheets' "CSV UTF-8" export writes one
        boms = tmp_path / "inputs"
        boms.mkdir()
        for path in (DATA / "load.csv", DATA / "performance.csv", fast_config):
            (boms / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        runs = {}
        for name, load, perf, config in [
            ("plain", DATA / "load.csv", DATA / "performance.csv", fast_config),
            ("bom", boms / "load.csv", boms / "performance.csv", boms / "config.yaml"),
        ]:
            out = tmp_path / name
            assert main(["fit", "--load", str(load), "--perf", str(perf),
                         "--config", str(config), "--out", str(out / "fit")]) == EXIT_OK
            params = out / "fit" / "params.json"
            if name == "bom":
                params = boms / "params.json"
                params.write_bytes(b"\xef\xbb\xbf" + (out / "fit" / "params.json").read_bytes())
            assert main(["predict", "--load", str(load), "--params", str(params),
                         "--horizon", "90", "--out", str(out / "predict")]) == EXIT_OK
            runs[name] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*.*")}
        assert len(runs["plain"]) == 6
        assert runs["bom"] == runs["plain"]

    def test_no_converged_start_is_numerical_failure(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(FAST_CONFIG.replace("starts: 3", "starts: 2")
                          .replace("max_iterations: 800", "max_iterations: 1"))
        code = main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.strip() == "error: no start converged within 1 iterations"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_objective_not_finite_at_any_start_is_numerical_failure(
        self, tmp_path, fast_config, capsys, command
    ):
        # every residual near 1e200 squares past the double range
        perf = tmp_path / "perf.csv"
        rows = (DATA / "performance.csv").read_text().splitlines()
        perf.write_text(rows[0] + "\n" + "".join(
            f"{day},{float(value) * 1e200!r}\n" for day, value in (r.split(",") for r in rows[1:])
        ))
        code = main([
            command, "--load", str(DATA / "load.csv"), "--perf", str(perf),
            "--config", str(fast_config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.strip() == (
            "error: fit failed: no usable start point: the objective is not finite at any start"
        )
        assert not (tmp_path / "out").exists()

    def test_trajectory_not_finite_after_the_last_observation_is_numerical_failure(
        self, tmp_path, capsys
    ):
        # lags of 0.01 days grow the fitted trajectory past the double range on
        # day 313, after the last observation (day 119), where the SSE cannot see it
        rows = (DATA / "load.csv").read_text().splitlines()[1:]
        loads = dict(row.split(",") for row in rows)
        load = tmp_path / "load.csv"
        load.write_text("day,load\n" + "".join(f"{d},{loads[str(d % 120)]}\n" for d in range(400)))
        config = tmp_path / "config.yaml"
        config.write_text(
            "variant: single_delay\n"
            "fit: {starts: 1, max_iterations: 50, tolerance: .inf}\n"
            "bounds: {tau2: [0.01, 0.011], tau4: [0.01, 0.011]}\n"
        )
        code = main(["fit", "--load", str(load), "--perf", str(DATA / "performance.csv"),
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err.strip() == (
            "error: fit failed: predicted trajectory is not finite from day 313"
        )
        assert not (tmp_path / "out").exists()

    def test_seed_flag_overrides_config(self, tmp_path, fast_config):
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        base = [
            "fit", "--load", str(DATA / "load.csv"),
            "--perf", str(DATA / "performance.csv"), "--config", str(fast_config),
        ]
        assert main(base + ["--out", str(out_a), "--seed", "123"]) == EXIT_OK
        assert main(base + ["--out", str(out_b), "--seed", "123"]) == EXIT_OK
        assert main(base + ["--out", str(out_c), "--seed", "124"]) == EXIT_OK
        a = (out_a / "params.json").read_bytes()
        assert a == (out_b / "params.json").read_bytes()
        assert a != (out_c / "params.json").read_bytes()

    def test_config_horizon_shorter_than_load_fits_that_prefix(
        self, tmp_path, fast_config, capsys
    ):
        # the path of every benchmark fit and compare: the load is cut to the horizon
        perf = tmp_path / "perf.csv"
        perf.write_text("".join(
            line + "\n" for line in (DATA / "performance.csv").read_text().splitlines()
            if not line[:1].isdigit() or int(line.split(",")[0]) < 100))
        config = tmp_path / "horizon.yaml"
        config.write_text(FAST_CONFIG + "horizon: 100\n")
        load_100 = tmp_path / "load.csv"  # the header and days 0-99
        load_100.write_text("".join(
            line + "\n" for line in (DATA / "load.csv").read_text().splitlines()[:101]))
        cut, full = tmp_path / "cut", tmp_path / "full"
        assert main(["fit", "--load", str(DATA / "load.csv"), "--perf", str(perf),
                     "--config", str(config), "--out", str(cut)]) == EXIT_OK
        summary = capsys.readouterr().out
        assert "fitted variant single_delay over 100 days, 16 observations" in summary
        assert main(["fit", "--load", str(load_100), "--perf", str(perf),
                     "--config", str(fast_config), "--out", str(full)]) == EXIT_OK
        for name in ("params.json", "predictions.csv", "fit_chart.svg", "load_chart.svg"):
            assert (cut / name).read_bytes() == (full / name).read_bytes()

    @pytest.mark.parametrize("horizon, message", [
        (121, "horizon 121 exceeds load series length 120"),
        (100, "observation day 119 is outside the horizon 100"),
    ], ids=["beyond-load", "before-last-observation"])
    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_config_horizon_is_checked_against_the_inputs(
        self, tmp_path, capsys, command, horizon, message
    ):
        config = tmp_path / "config.yaml"
        config.write_text(FAST_CONFIG + f"horizon: {horizon}\n")
        out = tmp_path / "out"
        code = main([
            command, "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(config), "--out", str(out),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.strip() == f"error: {message}"
        assert not out.exists()

    def test_seed_that_is_not_a_number_is_usage_error(self, tmp_path, fast_config, capsys):
        out = tmp_path / "out"
        code = main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(fast_config), "--out", str(out), "--seed", "abc",
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.strip() == "error: argument --seed: expected an integer >= 0, got 'abc'"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_negative_seed_is_usage_error(self, tmp_path, fast_config, capsys, command):
        out = tmp_path / "out"
        code = main([
            command, "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(fast_config), "--out", str(out), "--seed", "-1",
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.strip() == "error: argument --seed: expected an integer >= 0, got '-1'"
        assert not out.exists()


class TestPredict:
    def test_symmetric_params_constant_baseline(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "single_delay", "p0": 500.0, "k1": 0.2, "k2": 0.2,
            "fitness": {"tau_decay": 30.0, "tau_lag1": 12.0},
            "fatigue": {"tau_decay": 30.0, "tau_lag1": 12.0},
        }))
        out = tmp_path / "out"
        code = main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "60", "--out", str(out),
        ])
        assert code == EXIT_OK
        table = parse_prediction_csv((out / "predictions.csv").read_text())
        assert len(table.rows) == 60
        assert all(row.predicted == 500.0 for row in table.rows)
        assert (out / "prediction_chart.svg").exists()

    def test_zero_load_constant_baseline(self, tmp_path):
        load = tmp_path / "load.csv"
        write_zero_load(load)
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "classical", "p0": 440.0, "k1": 0.1, "k2": 0.3,
            "fitness": {"tau_decay": 40.0}, "fatigue": {"tau_decay": 9.0},
        }))
        out = tmp_path / "out"
        assert main([
            "predict", "--load", str(load), "--params", str(params),
            "--horizon", "30", "--out", str(out),
        ]) == EXIT_OK
        table = parse_prediction_csv((out / "predictions.csv").read_text())
        assert all(row.predicted == 440.0 for row in table.rows)

    def test_horizon_beyond_load_is_data_error(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "classical", "p0": 440.0, "k1": 0.1, "k2": 0.3,
            "fitness": {"tau_decay": 40.0}, "fatigue": {"tau_decay": 9.0},
        }))
        code = main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "121", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA

    def test_horizon_beyond_load_names_both_lengths(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "classical", "p0": 440.0, "k1": 0.1, "k2": 0.3,
            "fitness": {"tau_decay": 40.0}, "fatigue": {"tau_decay": 9.0},
        }))
        out = tmp_path / "out"
        code = main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "121", "--out", str(out),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "error: horizon 121 exceeds load series length 120\n"
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        ({"fitness": {"tau_lag1": 12.0}}, "fitness is missing required key 'tau_decay'"),
        ({"p0": "nan"}, "p0 must be finite, got nan"),
    ], ids=["side-without-decay", "nan-p0"])
    def test_invalid_params_document_is_data_error(self, tmp_path, capsys, change, message):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "single_delay", "p0": 500.0, "k1": 0.2, "k2": 0.2,
            "fitness": {"tau_decay": 30.0, "tau_lag1": 12.0},
            "fatigue": {"tau_decay": 30.0, "tau_lag1": 12.0}, **change,
        }))
        out = tmp_path / "out"
        code = main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "60", "--out", str(out),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.strip() == f"error: {params}: {message}"
        assert not out.exists()

    def test_one_day_horizon(self, tmp_path):
        # one CSV row, and a chart whose x axis still spans a day
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "classical", "p0": 440.0, "k1": 0.1, "k2": 0.3,
            "fitness": {"tau_decay": 40.0}, "fatigue": {"tau_decay": 9.0},
        }))
        out = tmp_path / "out"
        assert main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "1", "--out", str(out),
        ]) == EXIT_OK
        assert (out / "predictions.csv").read_text() == "day,load,predicted,observed\n0,0,440,\n"
        svg = ET.fromstring((out / "prediction_chart.svg").read_text())
        ticks = svg.find("{http://www.w3.org/2000/svg}g[@class='ticks']")
        assert [tick.text for tick in ticks][:2] == ["0", "1"]

    def test_zero_horizon_is_usage_error(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "classical", "p0": 440.0, "k1": 0.1, "k2": 0.3,
            "fitness": {"tau_decay": 40.0}, "fatigue": {"tau_decay": 9.0},
        }))
        code = main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "0", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "out").exists()

    def test_integer_beyond_double_range_is_data_error(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "classical", "p0": 10**400, "k1": 0.1, "k2": 0.3,
            "fitness": {"tau_decay": 40.0}, "fatigue": {"tau_decay": 9.0},
        }))
        code = main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "30", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert "p0 must be a real number within the double range" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integer_of_too_many_digits_is_data_error(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(
            '{"variant": "classical", "p0": ' + "9" * 5001 + ', "k1": 0.1, "k2": 0.3, '
            '"fitness": {"tau_decay": 40.0}, "fatigue": {"tau_decay": 9.0}}'
        )
        code = main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "30", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {params}: invalid JSON: ")
        assert not (tmp_path / "out").exists()

    def test_unstable_params_are_numerical_failure(self, tmp_path, capsys):
        # valid three_delay lags of 0.5 days: the fitness state leaves the
        # double range on day 1,204 and the forecast is +inf from there on
        load = tmp_path / "load.csv"
        write_load(load, block_load(1500))
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "three_delay", "p0": 500.0, "k1": 0.1, "k2": 0.12,
            "fitness": {"tau_decay": 45.0, "tau_lag1": 0.5, "tau_lag2": 0.5, "tau_lag3": 0.5},
            "fatigue": {"tau_decay": 15.0, "tau_lag1": 10.0, "tau_lag2": 10.0, "tau_lag3": 10.0},
        }))
        code = main([
            "predict", "--load", str(load), "--params", str(params),
            "--horizon", "1500", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip() == "error: prediction failed: forecast is not finite from day 1204"
        assert not (tmp_path / "out").exists()

    def test_lag_whose_rate_overflows_is_data_error(self, tmp_path, capsys):
        # a lag constant of 5e-324 days has no finite rate 1/tau_lag1; the
        # forecast was NaN from day 1 and exited 3
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "single_delay", "p0": 500.0, "k1": 0.1, "k2": 0.1,
            "fitness": {"tau_decay": 5.0, "tau_lag1": 5e-324},
            "fatigue": {"tau_decay": 5.0},
        }))
        out = tmp_path / "out"
        code = main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "6", "--out", str(out),
        ])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "tau_lag1 is too small: its lag rate 1/tau_lag1 overflows" in err
        assert not out.exists()

    def test_finite_forecast_wider_than_a_double_when_padded_is_charted(self, tmp_path, capsys):
        # a fitness lag of ~1.3e-6 days swings the finite forecast across the
        # double range; the chart's padded range overflowed and exited 3
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "single_delay", "p0": 500.0, "k1": 1.0, "k2": 0.1,
            "fitness": {"tau_decay": 50.0, "tau_lag1": 1.2589254117941661e-06},
            "fatigue": {"tau_decay": 10.0, "tau_lag1": 20.0},
        }))
        out = tmp_path / "out"
        assert main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "107", "--out", str(out),
        ]) == EXIT_OK
        assert "error" not in capsys.readouterr().err
        assert len(parse_prediction_csv((out / "predictions.csv").read_text()).rows) == 107
        chart = (out / "prediction_chart.svg").read_text()
        ET.fromstring(chart)
        assert "inf" not in chart and "nan" not in chart

    def test_matches_fit_predictions_over_shared_horizon(self, tmp_path, fast_config):
        fit_out = tmp_path / "fit"
        assert main([
            "fit", "--load", str(DATA / "load.csv"),
            "--perf", str(DATA / "performance.csv"),
            "--config", str(fast_config), "--out", str(fit_out),
        ]) == EXIT_OK
        pred_out = tmp_path / "pred"
        assert main([
            "predict", "--load", str(DATA / "load.csv"),
            "--params", str(fit_out / "params.json"),
            "--horizon", "80", "--out", str(pred_out),
        ]) == EXIT_OK
        # day, load and predicted fields are byte-identical over the shared
        # horizon; the observed field only exists on the fit side.
        fit_lines = (fit_out / "predictions.csv").read_text().splitlines()
        pred_lines = (pred_out / "predictions.csv").read_text().splitlines()
        for fit_line, pred_line in zip(fit_lines[:81], pred_lines):
            assert fit_line.rsplit(",", 1)[0] == pred_line.rsplit(",", 1)[0]


class TestSimulate:
    def test_kernel_zero_gain_matches_classical_byte_for_byte(self, tmp_path):
        out_k, out_c = tmp_path / "k", tmp_path / "c"
        assert main([
            "simulate", "--load", str(DATA / "load.csv"), "--variant", "kernel",
            "--tau1", "12.5", "--tau5", "0", "--out", str(out_k),
        ]) == EXIT_OK
        assert main([
            "simulate", "--load", str(DATA / "load.csv"), "--variant", "classical",
            "--tau1", "12.5", "--out", str(out_c),
        ]) == EXIT_OK
        assert (out_k / "trajectory.csv").read_bytes() == (out_c / "trajectory.csv").read_bytes()

    def test_missing_variant_flag_prints_usage(self, tmp_path, capsys):
        # a flag the variant needs is missing, or ones it does not take are given
        for variant, flags, named in (
            ("single_delay", ["--tau1", "10"], ["--tau2"]),
            ("classical", ["--tau1", "30", "--tau2", "10", "--tau5", "-0.1"], ["--tau2", "--tau5"]),
        ):
            code = main([
                "simulate", "--load", str(DATA / "load.csv"), "--variant", variant,
                *flags, "--out", str(tmp_path / "out"),
            ])
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith(f"error: variant {variant} ")
            assert all(flag in err.splitlines()[0] for flag in named), err
            assert not (tmp_path / "out").exists()

    def test_kernel_vs_mapped_three_delay(self, tmp_path):
        kp = ff.KernelParams(8.0, -0.4)
        mapped = ff.kernel_to_three_delay(kp)
        out_k, out_t = tmp_path / "k", tmp_path / "t"
        assert main([
            "simulate", "--load", str(DATA / "load.csv"), "--variant", "kernel",
            "--tau1", "8.0", "--tau5", "-0.4", "--out", str(out_k),
        ]) == EXIT_OK
        assert main([
            "simulate", "--load", str(DATA / "load.csv"), "--variant", "three_delay",
            "--tau1", "8.0", "--tau2", format_number(mapped.tau_lag1),
            "--tau3", format_number(mapped.tau_lag2), "--tau4", format_number(mapped.tau_lag3),
            "--out", str(out_t),
        ]) == EXIT_OK
        def read_states(path: Path) -> list[float]:
            lines = path.read_text().splitlines()[1:]
            return [float(line.split(",")[2]) for line in lines]

        ker = read_states(out_k / "trajectory.csv")
        td = read_states(out_t / "trajectory.csv")
        assert sup_rel_diff(ker, td) <= 1e-12

    def test_infinite_lag_flag(self, tmp_path):
        out = tmp_path / "out"
        assert main([
            "simulate", "--load", str(DATA / "load.csv"), "--variant", "single_delay",
            "--tau1", "10", "--tau2", "inf", "--out", str(out),
        ]) == EXIT_OK

    def test_invalid_tau_value_is_usage_error(self, tmp_path, capsys):
        code = main([
            "simulate", "--load", str(DATA / "load.csv"), "--variant", "classical",
            "--tau1", "-3", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_USAGE

    def test_invalid_tau_value_is_reported_before_the_load_is_read(self, tmp_path, capsys):
        code = main([
            "simulate", "--load", str(tmp_path / "missing.csv"), "--variant", "classical",
            "--tau1", "-3", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.strip() == "error: invalid parameters: tau_decay must be finite and > 0, got -3.0"

    def test_nan_tau_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "simulate", "--load", str(DATA / "load.csv"), "--variant", "classical",
            "--tau1", "nan", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.strip() == "error: invalid parameters: tau_decay must be finite and > 0, got nan"
        assert not out.exists()

    def test_unstable_params_are_numerical_failure(self, tmp_path, capsys):
        # the lags of predict's test of the same name: valid parameters whose
        # state leaves the double range on day 1,204
        load = tmp_path / "load.csv"
        write_load(load, block_load(1500))
        code = main([
            "simulate", "--load", str(load), "--variant", "three_delay", "--tau1", "45",
            "--tau2", "0.5", "--tau3", "0.5", "--tau4", "0.5", "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.strip() == "error: simulation failed: state at day 1204 is not finite: inf"
        assert not (tmp_path / "out").exists()

    def test_unknown_command_and_bad_flag(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE
        assert main(["simulate", "--load", "x.csv", "--variant", "classical",
                     "--tau1", "banana", "--out", "o"]) == EXIT_USAGE

    def test_variant_flags_are_the_tau_flags(self):
        # every flag a variant names is a simulate flag, and every --tau* flag
        # belongs to some variant
        args = build_parser().parse_args(
            ["simulate", "--load", "x.csv", "--variant", "kernel", "--out", "o"]
        )
        declared = {name for name in vars(args) if name.startswith("tau")}
        assert declared == {flag for row in VARIANT_TABLE.values() for flag in row.flags}


def test_missing_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: the following arguments are required: command\n")


# The input files each command reads, by flag, and the other flags it needs
_INPUT_FLAGS = {
    "fit": (("--load", "--perf", "--config"), []),
    "compare": (("--load", "--perf", "--config"), []),
    "predict": (("--load", "--params"), ["--horizon", "30"]),
    "simulate": (("--load",), ["--variant", "classical", "--tau1", "40"]),
}
_PARAMS_DOC = {
    "variant": "classical", "p0": 440.0, "k1": 0.1, "k2": 0.3,
    "fitness": {"tau_decay": 40.0}, "fatigue": {"tau_decay": 9.0},
}
# One fault for each kind of input file: its text and the start of its message
_INPUT_FAULTS = {
    "--load": ("day,load\n0,0\n1,5\n1,6\n", "line 4: duplicate day 1"),
    "--perf": ("day,performance\n1,500\n1,510\n", "line 3: duplicate day 1"),
    "--config": ("variant: [single_delay\n", "invalid YAML: "),
    "--params": (json.dumps({**_PARAMS_DOC, "k1": 0}), "k1 must be finite and > 0, got 0"),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (flags, _) in _INPUT_FLAGS.items() for flag in flags
])
def test_every_input_fault_names_its_file(tmp_path, fast_config, capsys, command, flag):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(_PARAMS_DOC))
    inputs = {"--load": DATA / "load.csv", "--perf": DATA / "performance.csv",
              "--config": fast_config, "--params": params}
    text, message = _INPUT_FAULTS[flag]
    inputs[flag] = tmp_path / ("faulty" + inputs[flag].suffix)
    inputs[flag].write_text(text)
    flags, others = _INPUT_FLAGS[command]
    out = tmp_path / "out"
    code = main([command, *(x for f in flags for x in (f, str(inputs[f]))), *others,
                 "--out", str(out)])
    assert code == EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {inputs[flag]}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("load", ["load.csv", "missing.csv"])
@pytest.mark.parametrize("flag, value, least", [
    ("--horizon", "0", 1), ("--horizon", "-3", 1), ("--horizon", "1.5", 1),
    ("--horizon", "abc", 1), ("--seed", "-1", 0), ("--seed", "abc", 0),
])
def test_integer_flags_share_one_rule(tmp_path, fast_config, capsys, load, flag, value, least):
    # checked before any file is read, so a missing load changes nothing
    params = tmp_path / "params.json"
    params.write_text(json.dumps(_PARAMS_DOC))
    files = (["predict", "--params", str(params)] if flag == "--horizon" else
             ["fit", "--perf", str(DATA / "performance.csv"), "--config", str(fast_config)])
    out = tmp_path / "out"
    code = main([*files, "--load", str(DATA / load), flag, value, "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: argument {flag}: expected an integer >= {least}, got '{value}'\n"
    )
    assert not out.exists()


def test_package_metadata_names_this_version_and_entry_point():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert project["version"] == ff.__version__
    assert project["scripts"]["ffdelay"] == "ffdelay.cli:main"


class TestArtifacts:
    SIMULATE = ["simulate", "--load", str(DATA / "load.csv"), "--variant", "classical",
                "--tau1", "12.5"]

    @pytest.mark.parametrize("blocker", ["directory_on_last_artifact", "out_under_file"])
    def test_failed_write_leaves_no_artifact(self, tmp_path, capsys, blocker):
        if blocker == "directory_on_last_artifact":
            out = tmp_path / "out"
            (out / "state_chart.svg").mkdir(parents=True)
            expected = ["out", "out/state_chart.svg"]
        else:
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "out"
            expected = ["file"]
        assert main(self.SIMULATE + ["--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: cannot write artifacts to {out}: ")
        left = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert left == expected

    # every command and the artifacts it writes, in writing order
    WRITES = {
        "fit": ["params.json", "predictions.csv", "fit_chart.svg", "load_chart.svg"],
        "predict": ["predictions.csv", "prediction_chart.svg"],
        "simulate": ["trajectory.csv", "state_chart.svg"],
        "compare": ["comparison.csv"],
    }

    @pytest.mark.parametrize("command, blocked", [
        (command, name) for command, names in WRITES.items() for name in names
    ])
    def test_a_write_failing_on_any_artifact_keeps_the_earlier_run(
        self, tmp_path, fast_config, capsys, command, blocked
    ):
        params = tmp_path / "params.json"
        params.write_text(dumps_params(fixture_params()))
        fit_inputs = ["--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
                      "--config", str(fast_config)]
        argv = {
            "fit": ["fit", *fit_inputs],
            "predict": ["predict", "--load", str(DATA / "load.csv"), "--params", str(params),
                        "--horizon", "60"],
            "simulate": self.SIMULATE,
            "compare": ["compare", *fit_inputs],
        }[command]
        out = tmp_path / "out"
        out.mkdir()
        earlier = {name: f"earlier {name}\n" for name in self.WRITES[command] if name != blocked}
        for name, text in earlier.items():
            (out / name).write_text(text)
        (out / blocked).mkdir()  # no rename replaces a directory
        assert main([*argv, "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: cannot write artifacts to {out}: ")
        assert not [p for p in out.iterdir() if p.name.endswith((".tmp", ".tmp.old"))]
        assert sorted(p.name for p in out.iterdir()) == sorted([*earlier, blocked])
        assert {name: (out / name).read_text() for name in earlier} == earlier
        assert (out / blocked).is_dir() and not any((out / blocked).iterdir())

    def test_failed_rerun_keeps_the_earlier_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(self.SIMULATE + ["--out", str(out)]) == EXIT_OK
        earlier = (out / "trajectory.csv").read_bytes()
        (out / "state_chart.svg").unlink()
        (out / "state_chart.svg").mkdir()
        # the rerun replaces trajectory.csv, then fails on the directory
        rerun = [*self.SIMULATE[:-1], "30", "--out", str(out)]
        assert main(rerun) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: cannot write artifacts to {out}: ")
        assert sorted(p.name for p in out.iterdir()) == ["state_chart.svg", "trajectory.csv"]
        assert (out / "trajectory.csv").read_bytes() == earlier

        # a successful rerun leaves no backup or temporary behind
        (out / "state_chart.svg").rmdir()
        assert main(rerun) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["state_chart.svg", "trajectory.csv"]
        assert (out / "trajectory.csv").read_bytes() != earlier

    def test_artifacts_get_the_mode_open_would_give(self, tmp_path):
        out = tmp_path / "out"
        umask = os.umask(0o027)
        try:
            code = main(self.SIMULATE + ["--out", str(out)])
        finally:
            os.umask(umask)
        assert code == EXIT_OK
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert modes == {"trajectory.csv": 0o640, "state_chart.svg": 0o640}

    # SHA-256 of every simulate and predict artifact on the bundled load, frozen
    # so that a change meant to keep the numbers cannot move a byte unnoticed
    GOLDEN_SIMULATE = {
        "classical": (["--tau1", "30"], {
            "state_chart.svg": "021cdaafb5b4d806d908685493488fcfdabd4c1cb122d49bad0f2d4252c1d02b",
            "trajectory.csv": "4c3c2ac8c26313444ad005e4218bc978a617734c4649739689cb3e8a0de6e0c1",
        }),
        "single_delay": (["--tau1", "30", "--tau2", "12"], {
            "state_chart.svg": "677c3df2c80278f7af0cc842354828ef642664106018c12f7a788a39f87c295d",
            "trajectory.csv": "090ffcb2170140c5cabce00bea65a3459966488a2b59ac7bd00cee63f330f61e",
        }),
        "three_delay": (["--tau1", "30", "--tau2", "12", "--tau3", "20", "--tau4", "40"], {
            "state_chart.svg": "0b7c2d91a60e224d2b7a5911c69d2da264038475b1245b57a4f22230712c352b",
            "trajectory.csv": "1b01f3f515c20119a1fdcfe1b19f9639b69bf1e653c93d0a357c81580c49e159",
        }),
        "kernel": (["--tau1", "30", "--tau5", "-0.2"], {
            "state_chart.svg": "c49e5432f0a2204603c1141d26a159dbcd268f321ed1a88d4d61cb40704a17a9",
            "trajectory.csv": "0c51a0a3d435561b40056cf63fc7eb161fef2121b90f2c453b66d212af323b5d",
        }),
    }
    GOLDEN_FIT = {
        "fit_chart.svg": "dc92cd4a903395a152e4b9c09d8628ba8dcd13c051a930b58bbbc4c0da8f84aa",
        "load_chart.svg": "dd1b08e1306b606eb691fa65730fc8b745d3df2d176a3ea4f0634e8f46cea563",
        "params.json": "29026a9f4f9aa253f632ef9f1a406420f9f84f0679667202eeffbcbf4f0ff675",
        "predictions.csv": "20cdd34b05434a29e80d638754b9c9d3cfbe3ab756debcfb4e5daab7068917e3",
    }
    GOLDEN_PREDICT = {
        "prediction_chart.svg": "ce6422ad5d06f960737defd1ac57e9d80b6d1ce1cbaec6599ce09c21704d3039",
        "predictions.csv": "e39795ca2b6892d0cfce4687f0ad4c40c4de736feea98d150046d1c509fbaabb",
    }

    @staticmethod
    def _digests(out: Path) -> dict[str, str]:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}

    def test_simulate_and_predict_artifacts_are_byte_identical(self, tmp_path):
        for variant, (flags, digests) in self.GOLDEN_SIMULATE.items():
            out = tmp_path / variant
            assert main([
                "simulate", "--load", str(DATA / "load.csv"), "--variant", variant, *flags,
                "--out", str(out),
            ]) == EXIT_OK
            assert self._digests(out) == digests, variant
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "variant": "single_delay", "p0": 500.0, "k1": 0.1, "k2": 0.12,
            "fitness": {"tau_decay": 45.0, "tau_lag1": 20.0},
            "fatigue": {"tau_decay": 15.0, "tau_lag1": 10.0},
        }))
        out = tmp_path / "predict"
        assert main([
            "predict", "--load", str(DATA / "load.csv"), "--params", str(params),
            "--horizon", "120", "--out", str(out),
        ]) == EXIT_OK
        assert self._digests(out) == self.GOLDEN_PREDICT

    def test_fit_artifacts_are_byte_identical(self, tmp_path):
        # the fitted parameters, the observed column, the observation markers
        # and an escaped title in both charts
        config = tmp_path / "config.yaml"
        config.write_text(FAST_CONFIG + 'chart:\n  title: "Fit & <check>"\n')
        out = tmp_path / "fit"
        assert main([
            "fit", "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(config), "--out", str(out),
        ]) == EXIT_OK
        assert self._digests(out) == self.GOLDEN_FIT


class TestCompare:
    def test_log_box_with_no_width_on_its_scale_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("fit: {starts: 1}\nbounds: {tau1: [1.0e+300, 1.0000000000000002e+300]}\n")
        code = main([
            "compare", "--load", str(DATA / "load.csv"), "--perf", str(DATA / "performance.csv"),
            "--config", str(config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.strip() == (
            f"error: {config}: bounds: bounds for tau1 have no width on a log scale,"
            " got [1e+300, 1.0000000000000002e+300]"
        )
        assert not (tmp_path / "out").exists()

    def test_deterministic_and_nested_quality(self, tmp_path, capsys):
        # data generated by a single-delay model: the single-delay row must do
        # at least as well as the classical row
        w = block_load(100)
        p = performance(w, fixture_params(), 100)
        load = tmp_path / "load.csv"
        write_load(load, w)
        perf = tmp_path / "perf.csv"
        perf.write_text("day,performance\n" + "\n".join(
            f"{d},{format_number(p[d])}" for d in observation_days(100)) + "\n")
        config = tmp_path / "config.yaml"
        config.write_text(FAST_CONFIG.replace("starts: 3", "starts: 2"))

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["compare", "--load", str(load), "--perf", str(perf),
                     "--config", str(config), "--out", str(out_a)]) == EXIT_OK
        assert main(["compare", "--load", str(load), "--perf", str(perf),
                     "--config", str(config), "--out", str(out_b)]) == EXIT_OK
        table_a = (out_a / "comparison.csv").read_bytes()
        assert table_a == (out_b / "comparison.csv").read_bytes()

        lines = table_a.decode().splitlines()
        assert lines[0] == "variant,n_params,sse,r2,starts_converged"
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert set(rows) == {"classical", "single_delay", "three_delay", "kernel"}
        assert float(rows["single_delay"][3]) >= float(rows["classical"][3])
        # nesting on single-delay truth: containing variants cannot do worse
        sd_sse = float(rows["single_delay"][2])
        assert float(rows["three_delay"][2]) <= sd_sse + 1e-9
        for variant in ("single_delay", "three_delay", "kernel"):
            assert float(rows[variant][2]) <= float(rows["classical"][2]) + 1e-9

    def test_overflowing_three_delay_search_is_not_internal_error(self, tmp_path, capsys):
        # Over 2,000 days a lag constant near the 0.5-day box edge makes the
        # three_delay recursion grow past 1e154, where squaring a residual
        # raises OverflowError; at this seed the sampled start lies there. That
        # start is skipped and three_delay goes on from its seeded starts, so
        # the compare ends on the iteration cap, not on the bad start.
        w = block_load(2000)
        p = performance(w, fixture_params(), 2000)
        load = tmp_path / "load.csv"
        write_load(load, w)
        perf = tmp_path / "perf.csv"
        perf.write_text("day,performance\n" + "\n".join(
            f"{d},{format_number(p[d])}" for d in range(5, 2000, 30)) + "\n")
        config = tmp_path / "config.yaml"
        config.write_text(
            FAST_CONFIG.replace("starts: 3", "starts: 1")
            .replace("max_iterations: 800", "max_iterations: 200")
            .replace("seed: 7", "seed: 1")
            .replace("[2.0, 1.0e6]", "[0.5, 1.0e6]")
        )
        code = main(["compare", "--load", str(load), "--perf", str(perf),
                     "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == (
            "error: no start converged for variant(s): "
            "classical, single_delay, three_delay, kernel"
        )
        assert not (tmp_path / "out").exists()

    def test_zero_variance_observations_rejected(self, tmp_path, fast_config, capsys):
        perf = tmp_path / "perf.csv"
        perf.write_text("day,performance\n5,500\n10,500\n15,500\n")
        code = main([
            "compare", "--load", str(DATA / "load.csv"), "--perf", str(perf),
            "--config", str(fast_config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_variance_that_rounds_to_zero_is_data_error(
        self, tmp_path, fast_config, capsys, command
    ):
        # 0 and 1e-166 differ, but their squared spread about the mean is 0.0 in doubles
        perf = tmp_path / "perf.csv"
        write_alternating_perf(perf, "1e-166")
        code = main([command, "--load", str(DATA / "load.csv"), "--perf", str(perf),
                     "--config", str(fast_config), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.strip() == (
            "error: observations have zero variance; R^2 is undefined"
        )
        assert not (tmp_path / "out").exists()

    def test_overflowing_r2_is_written_as_minus_inf(self, tmp_path, capsys):
        # residuals near 1e-7 square to about 1e-14, the spread of 0 and 5e-162
        # squares to about 1e-322, so SSE/SST overflows and R^2 is -inf
        perf = tmp_path / "perf.csv"
        write_alternating_perf(perf, "5e-162")
        config = tmp_path / "config.yaml"
        config.write_text(
            "variant: classical\n"
            "fit: {starts: 2, max_iterations: 300, seed: 1}\n"
            "bounds: {p0: [1.0e-7, 2.0e-7], k1: [1.0e-14, 1.0e-13], k2: [1.0e-14, 1.0e-13]}\n"
        )
        out = tmp_path / "out"
        code = main(["compare", "--load", str(DATA / "load.csv"), "--perf", str(perf),
                     "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["-inf"] * 4
        assert capsys.readouterr().out.count("R^2=-inf") == 4

    def test_internal_error_exits_3_without_artifacts(
        self, tmp_path, fast_config, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("injected defect")

        monkeypatch.setattr("ffdelay.cli.compare_variants", broken)
        code = main([
            "compare", "--load", str(DATA / "load.csv"),
            "--perf", str(DATA / "performance.csv"),
            "--config", str(fast_config), "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_NUMERIC
        assert not (tmp_path / "out").exists()
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last == "error: internal error: RuntimeError: injected defect"


# Runs in a fresh interpreter: this test process has numpy loaded already.
STARTUP_SCRIPT = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import ffdelay
from ffdelay import cli
load, out = sys.argv[2], sys.argv[3]
codes = [
    cli.main(["simulate", "--load", load, "--variant", "classical",
              "--tau1", "12.5", "--out", out + "/classical"]),
    cli.main(["simulate", "--load", load, "--variant", "three_delay", "--tau1", "8",
              "--tau2", "20", "--tau3", "30", "--tau4", "inf", "--out", out + "/three"]),
    cli.main(["predict", "--load", load, "--params", out + "/params.json",
              "--horizon", "120", "--out", out + "/predict"]),
]
print(json.dumps({"codes": codes, "loaded": [
    m for m in ("numpy", "yaml", "xml.etree", "dataclasses", "inspect", "ffdelay.oracle")
    if m in sys.modules]}))
"""


class TestStartup:
    def test_simulate_and_predict_load_neither_numpy_nor_yaml(self, tmp_path):
        # nor xml.etree: the charts are written as text; nor dataclasses or
        # inspect: the value types are plain classes; nor the oracle check route
        (tmp_path / "params.json").write_text(json.dumps({
            "variant": "single_delay", "p0": 500.0, "k1": 0.2, "k2": 0.3,
            "fitness": {"tau_decay": 30.0, "tau_lag1": 12.0},
            "fatigue": {"tau_decay": 10.0, "tau_lag1": "inf"},
        }))
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_SCRIPT, str(SRC), str(DATA / "load.csv"),
             str(tmp_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"codes": [EXIT_OK] * 3, "loaded": []}

    def test_simulate_does_not_load_json(self, tmp_path):
        # only the params document is JSON, and simulate reads none
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from ffdelay import cli\n"
            "code = cli.main(['simulate', '--load', sys.argv[2], '--variant', 'classical',\n"
            "                 '--tau1', '12.5', '--out', sys.argv[3]])\n"
            "print(code, 'json' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(SRC), str(DATA / "load.csv"),
             str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False"

    @pytest.mark.parametrize("first", ["ffdelay.fit_variant", "ffdelay.estimation.fit_variant"])
    def test_fitter_loads_on_first_use(self, first):
        # ffdelay.estimation as the first access goes through the package's
        # __getattr__, as for the oracle below
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import ffdelay\n"
            "from ffdelay import dataio, models\n"
            "assert 'ffdelay.estimation' not in sys.modules\n"
            f"fit = {first}\n"
            "estimation = sys.modules['ffdelay.estimation']\n"
            "assert fit is estimation.fit_variant and ffdelay.estimation is estimation\n"
            "for name in ('ObservationSet', 'ParamBounds', 'FitConfig'):\n"
            "    record = getattr(models, name)\n"
            "    assert getattr(estimation, name) is record is getattr(ffdelay, name)\n"
            "    assert getattr(dataio, name) is record\n"
            "namespace = {}\n"
            "exec('from ffdelay import *', namespace)\n"
            "assert set(ffdelay.__all__) <= set(namespace)\n"
            "assert namespace['compare_variants'] is estimation.compare_variants\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(SRC)], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ok"]

    def test_oracle_module_attribute_loads_on_first_use(self):
        # ffdelay.oracle is the first oracle access, so it goes through the
        # package's __getattr__ before the import system binds the submodule
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import ffdelay\n"
            "assert 'ffdelay.oracle' not in sys.modules\n"
            "step = ffdelay.oracle.StepLoad\n"
            "assert step is ffdelay.StepLoad is sys.modules['ffdelay.oracle'].StepLoad\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(SRC)], capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["ok"]
