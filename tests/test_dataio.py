"""data-io tests: CSV parsers/emitters, config loading, SVG structure."""

from __future__ import annotations

import copy
import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import yaml
from hypothesis import example, given
from hypothesis import strategies as st

import ffdelay as ff
from ffdelay.dataio import (
    ChartOptions,
    PredictionRow,
    PredictionTable,
    RunConfig,
    build_prediction_table,
    dumps_params,
    emit_prediction_csv,
    format_number,
    load_config,
    parse_load_csv,
    parse_params,
    parse_performance_csv,
    parse_prediction_csv,
    render_fit_chart,
    render_load_chart,
)
from ffdelay.errors import ConfigError, CsvError, DuplicateDayError, FfdelayError, ParameterError

SVG = "{http://www.w3.org/2000/svg}"


def svg_find(doc: str, tag: str) -> list[ET.Element]:
    return list(ET.fromstring(doc).iter(f"{SVG}{tag}"))


class TestFormatNumber:
    def test_integral_values_drop_the_point(self):
        assert format_number(0.0) == "0"
        assert format_number(500.0) == "500"
        assert format_number(-3.0) == "-3"

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(1e16 - 2)
    @example(-(1e16 - 2))
    @example(1e16)
    @example(2.0**53 + 2)
    def test_integral_rule_for_every_finite_double(self, x):
        want = str(int(x)) if x == int(x) and abs(x) < 1e16 else repr(x)
        assert format_number(x) == want

    def test_round_trip_property(self):
        rng = np.random.default_rng(40)
        values = list(rng.uniform(-1e6, 1e6, size=200))
        values += [0.1, 1 / 3, 1e-17, 2**53 + 1.0, 6.02e23, -0.0]
        for v in values:
            assert float(format_number(v)) == v


class TestParseLoadCsv:
    def test_direct_mapping(self):
        w = parse_load_csv("day,load\n0,0\n1,100\n2,80\n")
        assert w.values == (0.0, 100.0, 80.0)

    def test_gap_fill(self):
        w = parse_load_csv("day,load\n0,0\n3,50\n")
        assert w.values == (0.0, 0.0, 0.0, 50.0)

    def test_negative_load_rejected(self):
        with pytest.raises(CsvError) as err:
            parse_load_csv("day,load\n0,0\n1,-5\n")
        assert err.value.line == 3

    def test_nonzero_day0_rejected_with_reason(self):
        with pytest.raises(CsvError, match="w\\(0\\) = 0"):
            parse_load_csv("day,load\n0,7\n")

    def test_missing_day0_filled_with_rest(self):
        w = parse_load_csv("day,load\n2,10\n")
        assert w.values == (0.0, 0.0, 10.0)

    def test_duplicate_day(self):
        with pytest.raises(DuplicateDayError):
            parse_load_csv("day,load\n0,0\n1,5\n1,6\n")

    def test_malformed_row_cites_line(self):
        with pytest.raises(CsvError) as err:
            parse_load_csv("day,load\n0,0\nbanana,5\n")
        assert err.value.line == 3
        with pytest.raises(CsvError) as err:
            parse_load_csv("day,load\n0,0\n1,5,9\n")
        assert err.value.line == 3

    def test_padded_cells_and_blank_rows(self):
        text = "\n  \r\nDay , LOAD\r\n , \n0,0\n \t2\t,\"  7.5 \"\n\x1c3\x1f,\u30001e1\n"
        assert parse_load_csv(text).values == (0.0, 0.0, 7.5, 10.0)

    def test_first_error_in_file_order(self):
        # a bad day on line 3, a carriage return inside an unquoted field on line 4
        with pytest.raises(CsvError, match="base-10") as err:
            parse_load_csv("day,load\n0,0\nx,1\n1,2\r3\n")
        assert err.value.line == 3
        with pytest.raises(CsvError, match="malformed CSV") as err:
            parse_load_csv("day,load\n0,0\n1,2\r3\nx,1\n")
        assert err.value.line == 3

    def test_header_required(self):
        with pytest.raises(CsvError):
            parse_load_csv("jour,charge\n0,0\n")
        with pytest.raises(CsvError):
            parse_load_csv("")

    def test_fuzz_never_raises_anything_else(self):
        rng = np.random.default_rng(41)
        alphabet = list("day,lo0123456789.\n\r\t eE+-;\"'x\x00")
        for _ in range(300):
            n = int(rng.integers(0, 60))
            text = "".join(rng.choice(alphabet) for _ in range(n))
            try:
                parse_load_csv(text)
                parse_performance_csv(text)
            except FfdelayError:
                pass  # structured failure is the contract


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# whitespace that str.strip() removes, U+001C..U+001F included (int() and
# float() keep those); never a line break, which would split the row
PADS = st.sampled_from(["", " ", "  ", "\t", " \x0b", "\x0c", "\x1c", "\x1f ", "\xa0", "\u3000"])
BLANK_ROWS = st.sampled_from(["", " ", "\t", " , ", ",,,", "\x1d"])


def _mostly(valid, odd):
    """``valid`` nine times in ten, else ``odd``: mostly accepted documents."""
    return st.sampled_from((True,) * 9 + (False,)).flatmap(lambda ok: valid if ok else odd)


DAYS = _mostly(st.integers(1, 10**6).map(str), st.sampled_from(["0", "", "x", "-1", "1.5"]))
NUMBERS = _mostly(
    st.one_of(st.floats(0.0, 1e6).map(repr), st.integers(0, 999).map(str)),
    st.sampled_from(["", "x", "nan", "inf", "-2.5", "1e3", ".5", "1_0", "0"]),
)


def _index_cells(i: int):
    return _mostly(st.just(str(i)), st.sampled_from(("", "x", str(i + 1))))


# parser, header and one strategy per column given the data row's index
PARSERS = {
    "load": (parse_load_csv, ("day", "load"), (lambda i: DAYS, lambda i: NUMBERS)),
    "performance": (
        parse_performance_csv, ("day", "performance"), (lambda i: DAYS, lambda i: NUMBERS)
    ),
    "prediction": (
        parse_prediction_csv,
        ("day", "load", "predicted", "observed"),
        (_index_cells, lambda i: NUMBERS, lambda i: NUMBERS, lambda i: st.just("") | NUMBERS),
    ),
}


@st.composite
def padded_documents(draw, header, columns) -> tuple[str, str]:
    """The same rows as a messy document and as its stripped form.

    The messy one pads cells with whitespace, quotes some of them, inserts
    blank and whitespace-only rows and ends lines with LF or CRLF.
    """
    cases = st.sampled_from((str.lower, str.upper, str.title))
    case = draw(_mostly(cases, st.just(lambda h: h + "s")))  # else a wrong header
    rows = [[case(h) for h in header]]
    for i in range(draw(st.integers(0, 10))):
        row = [draw(column(i)) for column in columns]
        width = draw(_mostly(st.just(len(row)), st.sampled_from((len(row) - 1, len(row) + 1))))
        rows.append((row + ["1"])[:width])
    stripped = "".join(",".join(row) + "\n" for row in rows)
    lines = []
    for row in rows:
        lines += draw(st.lists(BLANK_ROWS, max_size=2))
        cells = []
        for cell in row:
            cell = draw(PADS) + cell + draw(PADS)
            cells.append(f'"{cell}"' if draw(st.booleans()) else cell)
        lines.append(",".join(cells))
    messy = "".join(line + draw(st.sampled_from(("\n", "\r\n"))) for line in lines)
    return messy, stripped


def _outcome(parse, text):
    try:
        return parse(text)
    except FfdelayError as exc:  # the line moves with the blank rows; the rest may not
        return type(exc), re.sub(r"^line \d+: ", "", str(exc)), getattr(exc, "line", None) is None


@pytest.mark.parametrize("name", PARSERS)
@given(data=st.data())
def test_parsers_read_a_padded_document_as_its_stripped_form(name, data):
    """Same value, or the same failure, and never anything but FfdelayError."""
    parse, header, columns = PARSERS[name]
    messy, stripped = data.draw(padded_documents(header, columns))
    assert _outcome(parse, messy) == _outcome(parse, stripped)


class TestParsePerformanceCsv:
    def test_basic(self):
        obs = parse_performance_csv("day,performance\n7,512\n14,498\n")
        assert obs.entries == ((7, 512.0), (14, 498.0))

    def test_unsorted_rows_sorted(self):
        obs = parse_performance_csv("day,performance\n14,498\n7,512\n")
        assert obs.days == (7, 14)

    def test_duplicate_day(self):
        with pytest.raises(DuplicateDayError):
            parse_performance_csv("day,performance\n7,512\n7,400\n")

    def test_day0_allowed(self):
        obs = parse_performance_csv("day,performance\n0,500\n9,505\n")
        assert obs.days == (0, 9)

    def test_non_numeric_value(self):
        with pytest.raises(CsvError):
            parse_performance_csv("day,performance\n7,fast\n")


class TestRunConfig:
    def test_minimal_config_applies_defaults(self):
        config = load_config("variant: single_delay\n")
        assert config.variant == "single_delay"
        assert config.horizon is None
        assert config.fit == ff.FitConfig()
        assert config.bounds == ff.ParamBounds()
        assert config.chart == ChartOptions()

    def test_empty_document_is_all_defaults(self):
        assert load_config("") == load_config("variant: single_delay\n")

    def test_unknown_variant_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="classical.*single_delay.*three_delay.*kernel"):
            load_config("variant: banana\n")

    def test_bound_inversion(self):
        with pytest.raises(ConfigError):
            load_config("bounds:\n  k1: [10.0, 0.1]\n")

    def test_chart_size_must_be_a_real_number(self):
        for value in (True, "a", None):
            with pytest.raises(ConfigError, match="^width must be a real number, got "):
                ChartOptions(width=value)
        assert type(ChartOptions(height=np.float64(480.0)).height) is np.float64

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config("variant: kernel\nturbo: true\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config("fit:\n  optimizer: adam\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config("bounds:\n  tau9: [1, 2]\n")

    def test_full_config(self):
        text = (
            "variant: kernel\n"
            "horizon: 90\n"
            "fit:\n  starts: 5\n  seed: 42\n  max_iterations: 300\n"
            "  tolerance: 1.0e-8\n  simplex_tolerance: 1.0e-6\n  fix_p0: 480.0\n"
            "bounds:\n  p0: [100, 900]\n  tau5: [-0.5, 0.5]\n"
            "chart:\n  width: 640\n  height: 480\n  title: demo\n"
        )
        config = load_config(text)
        assert config.variant == "kernel"
        assert config.horizon == 90
        assert config.fit.starts == 5
        assert config.fit.seed == 42
        assert config.fit.fix_p0 == 480.0
        assert config.bounds.p0 == (100.0, 900.0)
        assert config.bounds.tau5 == (-0.5, 0.5)
        assert config.chart == ChartOptions(640.0, 480.0, "demo")

    def test_horizon_fault_is_reported_before_a_section_fault(self):
        for horizon in ("0", "2.5", "'3'"):
            with pytest.raises(ConfigError, match="^horizon must be "):
                load_config(f"horizon: {horizon}\nbounds: 5\nchart:\n  title: 5\n")

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError):
            load_config("variant: [unterminated\n")
        with pytest.raises(ConfigError):
            load_config("- just\n- a\n- list\n")


class TestPredictionCsv:
    def test_single_row_fixture(self):
        table = PredictionTable((PredictionRow(0, 0.0, 500.0, None),))
        assert emit_prediction_csv(table) == "day,load,predicted,observed\n0,0,500,\n"

    def test_observed_field_present_when_measured(self):
        w = ff.LoadSeries((0.0,) * 9)
        obs = ff.ObservationSet(((7, 512.25),))
        table = build_prediction_table(w, [500.0] * 9, obs)
        lines = emit_prediction_csv(table).splitlines()
        assert lines[8] == "7,0,500,512.25"
        assert lines[1] == "0,0,500,"

    def test_round_trip_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            rows = []
            for day in range(n):
                observed = float(rng.normal(500, 40)) if rng.random() < 0.3 else None
                rows.append(
                    PredictionRow(
                        day,
                        float(rng.uniform(0, 150)),
                        float(rng.normal(500, 40)),
                        observed,
                    )
                )
            table = PredictionTable(tuple(rows))
            assert parse_prediction_csv(emit_prediction_csv(table)) == table

    def test_more_predictions_than_load_days_rejected(self):
        w = ff.LoadSeries((0.0, 1.0))
        with pytest.raises(ParameterError, match="exceed"):
            build_prediction_table(w, [500.0, 501.0, 502.0])
        assert len(build_prediction_table(w, [500.0]).rows) == 1

    @given(st.lists(st.tuples(FINITE, FINITE, st.none() | FINITE), min_size=1, max_size=30))
    def test_round_trip_property(self, columns):
        table = PredictionTable(tuple(PredictionRow(d, *c) for d, c in enumerate(columns)))
        assert parse_prediction_csv(emit_prediction_csv(table)) == table

    def test_days_must_be_contiguous(self):
        with pytest.raises(ParameterError):
            PredictionTable((PredictionRow(1, 0.0, 1.0, None),))
        with pytest.raises(ParameterError):
            PredictionTable(())

    def test_repeated_and_skipped_days_name_their_line(self):
        header = "day,load,predicted,observed\n0,0,500,\n1,2,501,\n"
        with pytest.raises(DuplicateDayError, match=r"^line 4: duplicate day 1$"):
            parse_prediction_csv(header + "1,0,502,\n")
        with pytest.raises(CsvError, match=r"^line 5: day 3 skips day 2$") as info:
            parse_prediction_csv(header + "\n3,0,503,\n")  # a blank line 4, then day 3
        assert type(info.value) is CsvError and info.value.line == 5


class TestParamsDocument:
    def test_round_trip_each_variant(self, load_120, clean_observations):
        config = ff.FitConfig(starts=1, max_iterations=30, seed=0)
        for variant in ("classical", "single_delay", "three_delay", "kernel"):
            fit = ff.fit_variant(load_120, clean_observations, ff.ParamBounds(), config, variant)
            doc = parse_params(dumps_params(fit))
            assert doc.variant == variant
            assert doc.p0 == fit.p0
            assert doc.k1 == fit.k1
            assert doc.fitness == fit.fitness
            assert doc.fatigue == fit.fatigue

    def test_hand_written_with_inf_lag(self):
        text = (
            '{"variant": "single_delay", "p0": 500, "k1": 0.1, "k2": 0.12,'
            ' "fitness": {"tau_decay": 45, "tau_lag1": "inf"},'
            ' "fatigue": {"tau_decay": 15, "tau_lag1": 10}}'
        )
        doc = parse_params(text)
        assert doc.fitness.tau_lag1 == math.inf
        assert doc.fatigue.tau_lag1 == 10.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_params('{"variant": "classical", "p0": 1, "k1": 1, "k2": 1, "exotic": 2}')

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_params('{"variant": "classical", "p0": 1, "k1": 1, "k2": 1}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_params("not json at all")


# ---------------------------------------------------------------------------
# The document reader: generated config and params documents
# ---------------------------------------------------------------------------


def numbers(lo: float, hi: float):
    """(document value, the float it reads as) in [lo, hi]: a float, an int or
    a numeric string."""
    return st.one_of(
        st.floats(lo, hi).map(lambda x: (x, x)),
        st.integers(math.ceil(lo), math.floor(hi)).map(lambda n: (n, float(n))),
        st.floats(lo, hi).map(lambda x: (repr(x), x)),
    )


POSITIVE_BOUNDS = ("k1", "k2", "tau1", "tau2", "tau3", "tau4")
SIGNED_BOUNDS = ("p0", "tau5")
SIDES = {  # each variant's side class and its fields
    "classical": (ff.FirstOrderParams, ("tau_decay",)),
    "single_delay": (ff.SingleDelayParams, ("tau_decay", "tau_lag1")),
    "three_delay": (ff.ThreeDelayParams, ("tau_decay", "tau_lag1", "tau_lag2", "tau_lag3")),
    "kernel": (ff.KernelParams, ("tau_decay", "tau5", "weights")),
}
INFS = st.sampled_from(((math.inf, math.inf), ("inf", math.inf), ("Infinity", math.inf)))


@st.composite
def bound_pairs(draw, positive: bool):
    lo, hi = (1e-3, 1e6) if positive else (-1e6, 1e6)
    pairs = sorted([draw(numbers(lo, hi)), draw(numbers(lo, hi))], key=lambda pair: pair[1])
    if pairs[0][1] == pairs[1][1]:
        pairs[1] = (pairs[0][1] + 1.0, pairs[0][1] + 1.0)
    return [value for value, _ in pairs], tuple(x for _, x in pairs)


def _section(draw, strategies: dict) -> tuple[dict, dict]:
    """A random subset of the section's keys: (document values, read values)."""
    keys = draw(st.lists(st.sampled_from(sorted(strategies)), unique=True))
    drawn = {key: draw(strategies[key]) for key in keys}
    return {k: v for k, (v, _) in drawn.items()}, {k: x for k, (_, x) in drawn.items()}


@st.composite
def config_docs(draw) -> tuple[dict, RunConfig]:
    """A valid config document and the RunConfig it reads as."""
    doc, expected = {}, {}
    if draw(st.booleans()):
        doc["variant"] = expected["variant"] = draw(st.sampled_from(sorted(SIDES)))
    if draw(st.booleans()):
        doc["horizon"] = expected["horizon"] = draw(st.none() | st.integers(1, 10**6))
    strategies = {
        "bounds": {name: bound_pairs(name in POSITIVE_BOUNDS)
                   for name in POSITIVE_BOUNDS + SIGNED_BOUNDS},
        "fit": {
            "starts": st.integers(1, 50).map(lambda n: (n, n)),
            "max_iterations": st.integers(1, 10**4).map(lambda n: (n, n)),
            "seed": st.integers(0, 2**40).map(lambda n: (n, n)),
            "tolerance": numbers(1e-12, 10.0),
            "simplex_tolerance": numbers(1e-12, 10.0),
            "fix_p0": st.just((None, None)) | numbers(-1e3, 1e3),
        },
        "chart": {
            "width": numbers(1.0, 5000.0),
            "height": numbers(1.0, 5000.0),
            "title": st.text(st.characters(min_codepoint=32, max_codepoint=126)).map(
                lambda t: (t, t)
            ),
        },
    }
    records = {"bounds": ff.ParamBounds, "fit": ff.FitConfig, "chart": ChartOptions}
    for name, cls in records.items():
        if draw(st.booleans()):
            doc[name], read = _section(draw, strategies[name])
            expected[name] = cls(**read)
    return doc, RunConfig(**expected)


def _side(draw, variant: str) -> tuple[dict, object]:
    """A valid params side of ``variant``: (document, side object)."""
    lags = (
        INFS | numbers(0.5, 1e6) | numbers(-1e6, -0.5)
        if variant == "three_delay" else INFS | numbers(0.5, 1e6)
    )
    weights = st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45)).map(
        lambda ab: (ab[0], ab[1], 1.0 - ab[0] - ab[1])
    )
    strategies = {
        "tau_decay": numbers(0.5, 1e3),
        "tau_lag1": lags, "tau_lag2": lags, "tau_lag3": lags,
        "tau5": numbers(-1.0, 1.0),
        "weights": weights.map(lambda w: ([repr(w[0]), w[1], w[2]], w)),
    }
    required = {"tau_decay", "tau5"}
    doc, read = {}, {}
    side_cls, fields = SIDES[variant]
    for name in fields:
        if name in required or draw(st.booleans()):
            doc[name], read[name] = draw(strategies[name])
    return doc, side_cls(**read)


@st.composite
def params_docs(draw) -> tuple[dict, ff.ModelParams]:
    """A valid params document of any variant and the ModelParams it reads as."""
    variant = draw(st.sampled_from(sorted(SIDES)))
    (p0, p0_read), (k1, k1_read), (k2, k2_read) = (
        draw(numbers(-1e3, 1e3)), draw(numbers(1e-3, 10.0)), draw(numbers(1e-3, 10.0))
    )
    (fitness, fitness_read), (fatigue, fatigue_read) = _side(draw, variant), _side(draw, variant)
    doc = {"variant": variant, "p0": p0, "k1": k1, "k2": k2,
           "fitness": fitness, "fatigue": fatigue}
    return doc, ff.ModelParams(variant, p0_read, k1_read, k2_read, fitness_read, fatigue_read)


WRONG_NUMBER = st.sampled_from((True, False, "abc", "", [1.0], {"a": 1.0}))
WRONG_REQUIRED_NUMBER = st.none() | WRONG_NUMBER
WRONG_INTEGER = st.sampled_from((None, True, False, 1.5, 3.0, "3", [1]))
WRONG_PAIR = st.sampled_from((None, 1.0, "abc", [], [1.0], [1.0, 2.0, 3.0], [None, 2.0],
                              [1.0, True], {"lo": 1.0}))
WRONG_TRIPLE = st.sampled_from((None, 0.5, [0.5, 0.5], [0.5, 0.3, 0.1, 0.1],
                                [0.5, 0.3, None], ["a", 0.3, 0.2]))
WRONG_SECTION = st.sampled_from((None, [], [1, 2], 5, "abc"))
CONFIG_FAULTS = st.one_of(
    st.tuples(st.just(("variant",)), st.sampled_from((None, 5, ["kernel"], "banana"))),
    st.tuples(st.just(("horizon",)), WRONG_INTEGER.filter(lambda v: v is not None)),
    st.tuples(st.sampled_from((("bounds",), ("fit",), ("chart",))), WRONG_SECTION),
    st.tuples(st.sampled_from(POSITIVE_BOUNDS + SIGNED_BOUNDS).map(lambda k: ("bounds", k)),
              WRONG_PAIR),
    st.tuples(st.sampled_from((("fit", "starts"), ("fit", "max_iterations"), ("fit", "seed"))),
              WRONG_INTEGER),
    st.tuples(st.sampled_from((("fit", "tolerance"), ("fit", "simplex_tolerance"),
                               ("chart", "width"), ("chart", "height"))),
              WRONG_REQUIRED_NUMBER),
    st.tuples(st.just(("fit", "fix_p0")), WRONG_NUMBER),
    st.tuples(st.just(("chart", "title")), st.sampled_from((None, 5, 1.5, True, ["a"]))),
)


def params_faults(variant: str):
    sides = st.sampled_from(("fitness", "fatigue"))
    fields = st.sampled_from(SIDES[variant][1])
    return st.one_of(
        st.tuples(st.sampled_from(("p0", "k1", "k2")).map(lambda k: (k,)),
                  WRONG_REQUIRED_NUMBER),
        st.tuples(sides.map(lambda side: (side,)), WRONG_SECTION),
        st.tuples(sides, fields).flatmap(lambda path: st.tuples(
            st.just(path), WRONG_TRIPLE if path[1] == "weights" else WRONG_REQUIRED_NUMBER
        )),
    )


def _with_fault(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    section = doc
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    return doc


class TestDocumentReader:
    @given(config_docs())
    def test_generated_config_reads_as_built(self, case):
        doc, expected = case
        assert load_config(yaml.safe_dump(doc)) == expected

    @given(params_docs())
    def test_generated_params_read_as_built(self, case):
        doc, expected = case
        assert parse_params(json.dumps(doc)) == expected

    @given(config_docs(), CONFIG_FAULTS)
    @example(({}, RunConfig()), (("chart", "height"), None))
    @example(({}, RunConfig()), (("chart", "width"), math.nan))
    @example(({}, RunConfig()), (("chart", "height"), math.inf))
    def test_one_wrong_config_field_is_a_config_error(self, case, fault):
        doc = _with_fault(case[0], *fault)
        with pytest.raises(ConfigError):
            load_config(yaml.safe_dump(doc))

    @given(params_docs(), st.data())
    def test_one_wrong_params_field_is_a_config_error(self, case, data):
        doc, expected = case
        fault = data.draw(params_faults(expected.variant))
        with pytest.raises(ConfigError):
            parse_params(json.dumps(_with_fault(doc, *fault)))

    def test_wrong_length_list_and_bad_element_are_named(self):
        with pytest.raises(ConfigError, match=re.escape("bounds.k1 must be a list of 2 numbers")):
            load_config("bounds:\n  k1: [1]\n")
        side = {"tau_decay": 10.0, "tau5": 0.0}
        doc = {"variant": "kernel", "p0": 500.0, "k1": 0.1, "k2": 0.1, "fitness": side,
               "fatigue": {**side, "weights": [0.5, 0.3, None]}}
        with pytest.raises(ConfigError, match=re.escape("fatigue.weights[2] must be a number")):
            parse_params(json.dumps(doc))


# The two golden charts below share everything up to the y label; the title
# needs each of the three text escapes.
GOLDEN_OPTIONS = ChartOptions(title="a & b <c>")
GOLDEN_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" width="900.00" height="600.00" '
    'viewBox="0 0 900.00 600.00"><g class="axes" stroke="#000000">'
    '<line x1="70.00" y1="545.00" x2="875.00" y2="545.00" />'
    '<line x1="70.00" y1="45.00" x2="70.00" y2="545.00" /></g>'
    '<g class="labels" font-size="14">'
    '<text x="450.00" y="22.50" text-anchor="middle" class="title">a &amp; b &lt;c&gt;</text>'
    '<text x="472.50" y="588.00" text-anchor="middle" class="x-label">day</text>'
    '<text x="18" y="295.00" text-anchor="middle" class="y-label" '
    'transform="rotate(-90 18 295.00)">'
)


class TestFitChart:
    def test_golden_bytes(self):
        w = ff.LoadSeries((0.0, 10.0, 0.0))
        obs = ff.ObservationSet(((1, 501.0),))
        table = build_prediction_table(w, [500.0, 501.0, 500.5], obs)
        assert render_fit_chart(table, GOLDEN_OPTIONS) == GOLDEN_HEAD + (
            'performance</text></g><g class="ticks" font-size="12">'
            '<text x="70.00" y="563.00" text-anchor="start">0</text>'
            '<text x="875.00" y="563.00" text-anchor="end">2</text>'
            '<text x="64.00" y="549.00" text-anchor="end">499.95</text>'
            '<text x="64.00" y="49.00" text-anchor="end">501.05</text></g>'
            '<polyline class="prediction" points="70.00,522.27 472.50,67.73 875.00,295.00" '
            'fill="none" stroke="#1f77b4" stroke-width="2" />'
            '<g class="observations" fill="#d62728">'
            '<circle class="observation" cx="472.50" cy="67.73" r="4" /></g></svg>\n'
        )

    def test_marker_and_polyline_counts(self):
        w = ff.LoadSeries((0.0, 10.0, 0.0))
        obs = ff.ObservationSet(((1, 501.0),))
        doc = render_fit_chart(build_prediction_table(w, [500.0, 501.0, 500.5], obs))
        assert len(svg_find(doc, "polyline")) == 1
        assert len(svg_find(doc, "circle")) == 1

    def test_no_observations_polyline_only(self):
        w = ff.LoadSeries((0.0, 10.0, 0.0))
        doc = render_fit_chart(build_prediction_table(w, [500.0, 501.0, 500.5]))
        assert len(svg_find(doc, "polyline")) == 1
        assert len(svg_find(doc, "circle")) == 0

    def test_monotone_predictions_monotone_svg_y(self):
        w = ff.LoadSeries((0.0,) * 6)
        predicted = [100.0, 105.0, 112.0, 120.0, 129.0, 140.0]
        doc = render_fit_chart(build_prediction_table(w, predicted))
        points = svg_find(doc, "polyline")[0].get("points").split()
        ys = [float(p.split(",")[1]) for p in points]
        # increasing data maps to decreasing pixel y (origin is top-left)
        assert all(b < a for a, b in zip(ys, ys[1:]))

    def test_axis_labels(self):
        w = ff.LoadSeries((0.0, 1.0))
        doc = render_fit_chart(build_prediction_table(w, [500.0, 501.0]))
        texts = [t.text for t in svg_find(doc, "text")]
        assert "day" in texts and "performance" in texts
        # an empty label is an empty element, as ElementTree writes it
        doc = render_fit_chart(build_prediction_table(w, [500.0, 501.0]), y_label="")
        assert 'class="y-label" transform="rotate(-90 18 295.00)" />' in doc

    def test_well_formed_for_random_tables(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(1, 80))
            w = ff.LoadSeries((0.0,) + tuple(rng.uniform(0, 100, size=n - 1)))
            predicted = list(rng.normal(500, 30, size=n))
            obs_days = [d for d in range(n) if rng.random() < 0.2]
            obs = (
                ff.ObservationSet(tuple((d, float(rng.normal(500, 30))) for d in obs_days))
                if obs_days
                else None
            )
            doc = render_fit_chart(build_prediction_table(w, predicted, obs))
            ET.fromstring(doc)  # raises if malformed


class TestLoadChart:
    def test_golden_bytes(self):
        w = ff.LoadSeries((0.0, 10.0, 0.0))
        assert render_load_chart(w, GOLDEN_OPTIONS) == GOLDEN_HEAD + (
            'load</text></g><g class="ticks" font-size="12">'
            '<text x="70.00" y="563.00" text-anchor="start">0</text>'
            '<text x="875.00" y="563.00" text-anchor="end">3</text>'
            '<text x="64.00" y="549.00" text-anchor="end">0</text>'
            '<text x="64.00" y="49.00" text-anchor="end">10</text></g>'
            '<g class="bars" fill="#4d4d4d">'
            '<rect class="bar" x="96.83" y="545.00" width="214.67" height="0.00" />'
            '<rect class="bar" x="365.17" y="45.00" width="214.67" height="500.00" />'
            '<rect class="bar" x="633.50" y="545.00" width="214.67" height="0.00" /></g></svg>\n'
        )

    def test_bar_per_day_and_zero_height_first_bar(self):
        doc = render_load_chart(ff.LoadSeries((0.0, 100.0)))
        bars = svg_find(doc, "rect")
        assert len(bars) == 2
        assert float(bars[0].get("height")) == 0.0
        assert float(bars[1].get("height")) > 0.0

    def test_all_zero_loads_valid_document(self):
        doc = render_load_chart(ff.LoadSeries((0.0, 0.0, 0.0)))
        bars = svg_find(doc, "rect")
        assert len(bars) == 3
        assert all(float(b.get("height")) == 0.0 for b in bars)

    def test_max_load_spans_plot_height(self):
        options = ChartOptions(900.0, 600.0)
        w = ff.LoadSeries((0.0, 37.0, 120.0, 64.0))
        doc = render_load_chart(w, options)
        heights = [float(b.get("height")) for b in svg_find(doc, "rect")]
        plot_height = 600.0 - 45.0 - 55.0  # top/bottom margins
        assert abs(max(heights) - plot_height) <= 1.0
        # heights proportional to loads
        assert heights[1] / heights[2] == pytest.approx(37.0 / 120.0, abs=1e-3)

    def test_axis_labels(self):
        doc = render_load_chart(ff.LoadSeries((0.0, 5.0)))
        texts = [t.text for t in svg_find(doc, "text")]
        assert "day" in texts and "load" in texts
