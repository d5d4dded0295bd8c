"""Ingestion and emission: CSV series, YAML run configuration, fitted-parameter
documents (JSON) and standalone SVG charts.

Schemas
-------
Load CSV          header ``day,load``; load a non-negative decimal; missing
                  days are rest days (load 0); day 0 must carry load 0.
Performance CSV   header ``day,performance``; rows in any order.
Prediction CSV    header ``day,load,predicted,observed``; one row per day from
                  day 0; ``observed`` empty, or its cell dropped, when the day
                  was not measured.
Run config        YAML mapping with keys ``variant``, ``horizon``,
                  ``bounds.*``, ``fit.*``, ``chart.*``; unknown keys are
                  errors. Every omitted key takes the documented default.
                  Each section reads as its record (``ParamBounds``,
                  ``FitConfig``, ``ChartOptions``).
Params document   JSON mapping with ``variant``, ``p0``, ``k1``, ``k2`` and a
                  parameter mapping per side (``fitness``/``fatigue``) whose
                  keys are the fields of the variant's side class; it reads
                  back as a ``ModelParams``, each side as a section.

Both documents are read by one recursive reader, ``_record_from_doc``, and
their values are checked by one rule set, the records'. The reader checks
only that a mapping has no unknown and no missing key, and turns a string
that spells a number into that float only in a field of real numbers (one
whose annotation names ``float``), never in an integer or text field. So a
value's fault reads as its record's message about the document's own value,
after ``<section>: `` in a section. A config's ``variant`` and ``horizon`` are
checked before its sections, which are read in field order; within one
section, the record's own check order decides which fault is reported, so
``fit: {starts: 0, seed: 2.5}`` reports ``fit: starts must be >= 1, got 0``.

The three CSV documents are day tables, which share these rules, checked in
one place, ``_day_rows``: the first non-blank row is the header, in any case;
blank and whitespace-only rows are skipped; a cell may carry surrounding
whitespace; a data row has the header's width; its day is a non-negative
base-10 integer that no earlier row holds; and there is at least one data
row. Each document is read in one pass, so the first fault in file order is
the one reported, with its line.

Numbers in emitted CSV use the shortest decimal form that round-trips, so
emit/parse is an exact identity. Charts are written as plain SVG text with no
XML library; only the title and axis labels carry free text, escaped there.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from itertools import repeat
from typing import Iterator, NamedTuple

from .errors import ConfigError, CsvError, DuplicateDayError, ParameterError
from .models import (
    _REQUIRED, VARIANT_TABLE, FitConfig, LoadSeries, ModelParams, ObservationSet, ParamBounds,
    _as_int, _as_positive, _as_reals, _field_dict, _Record, _shown, variant_row,
)


def format_number(x: float) -> str:
    """Shortest decimal representation that parses back to exactly ``x``.

    ``repr`` without a trailing ``".0"``: only an integral value below 1e16
    has such a repr, so such a value prints as an integer (``-0.0`` as "0").
    """
    x = float(x)
    if not math.isfinite(x):
        raise ParameterError(f"cannot format non-finite value {x!r}")
    text = repr(x)
    if text.endswith(".0"):
        return text[:-2] if x else "0"
    return text


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def _day_rows(
    text: str, header: tuple[str, ...], table: dict, optional: int = 0
) -> Iterator[tuple[int, int, list[str]]]:
    """(line, day, cells) of each data row of a CSV day table, in file order.

    The one place that checks the day-table rules of the module docstring. A
    row may lack at most ``optional`` trailing cells, which read as blank.
    ``table`` is the caller's container of the rows read so far, keyed by day:
    a day it holds is a duplicate, and an empty one at the end means "no data
    rows". A full-width row whose first cell is not blank is yielded as read,
    its cells possibly padded with whitespace; every other row is stripped.
    Malformed CSV raises CsvError at the row where the reader fails.
    """
    reader = csv.reader(io.StringIO(text))
    rows = enumerate(reader, start=1)
    width = len(header)
    try:
        for line, cells in rows:
            cells = [c.strip() for c in cells]
            if any(cells):
                if [c.lower() for c in cells] != list(header):
                    raise CsvError(
                        f"expected header {','.join(header)!r}, got {','.join(cells)!r}",
                        line=line,
                    )
                break
        else:
            raise CsvError(f"empty document, expected header {','.join(header)!r}")
        for line, cells in rows:
            if len(cells) != width or not cells[0] or cells[0].isspace():
                cells = [c.strip() for c in cells]
                if not any(cells):
                    continue
                if not width - optional <= len(cells) <= width:
                    raise CsvError(
                        f"expected {width} fields ({','.join(header)}), got {len(cells)}",
                        line=line,
                    )
                cells += [""] * (width - len(cells))
            day = _parse_day(cells[0], line)
            if day in table:
                raise DuplicateDayError(f"duplicate day {day}", line=line)
            yield line, day, cells
    except csv.Error as exc:
        raise CsvError(f"malformed CSV: {exc}", line=reader.line_num) from exc
    if not table:
        raise CsvError("no data rows")


# int() and float() ignore the whitespace around a cell, except the separators
# U+001C..U+001F, which str.strip() removes; so a cell is stripped only after
# the conversion fails.
def _parse_day(cell: str, line: int) -> int:
    try:
        day = int(cell, 10)
    except ValueError:
        cell = cell.strip()
        try:
            day = int(cell, 10)
        except ValueError:
            raise CsvError(f"day must be a base-10 integer, got {cell!r}", line=line) from None
    if day < 0:
        raise CsvError(f"day must be non-negative, got {day}", line=line)
    return day


def _parse_value(cell: str, name: str, line: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        cell = cell.strip()
        try:
            value = float(cell)
        except ValueError:
            raise CsvError(f"{name} must be a number, got {cell!r}", line=line) from None
    if not math.isfinite(value):
        raise CsvError(f"{name} must be finite, got {cell.strip()!r}", line=line)
    return value


def parse_load_csv(text: str) -> LoadSeries:
    """Parse a ``day,load`` document into a dense day-0-based LoadSeries.

    Days absent from the file are rest days (load 0). Negative loads and a
    non-zero load on day 0 are rejected.
    """
    by_day: dict[int, float] = {}
    for line, day, cells in _day_rows(text, ("day", "load"), by_day):
        load = _parse_value(cells[1], "load", line)
        if load < 0.0:
            raise CsvError(f"load must be non-negative, got {load!r}", line=line)
        if day == 0 and load != 0.0:
            raise CsvError(
                f"load at day 0 must be 0 (the model assumes w(0) = 0), got {load!r}",
                line=line,
            )
        by_day[day] = load
    horizon = max(by_day) + 1
    return LoadSeries(tuple(map(by_day.get, range(horizon), repeat(0.0))))


def parse_performance_csv(text: str) -> ObservationSet:
    """Parse a ``day,performance`` document; rows may arrive in any order."""
    by_day: dict[int, float] = {}
    for line, day, cells in _day_rows(text, ("day", "performance"), by_day):
        by_day[day] = _parse_value(cells[1], "performance", line)
    return ObservationSet(tuple(by_day.items()))


# ---------------------------------------------------------------------------
# Prediction tables
# ---------------------------------------------------------------------------


class PredictionRow(NamedTuple):
    day: int
    load: float
    predicted: float
    observed: float | None


class PredictionTable(_Record):
    """One row per day from day 0: load, model prediction, optional observation."""

    rows: tuple[PredictionRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ParameterError("prediction table must not be empty")
        for i, row in enumerate(self.rows):
            if row.day != i:
                raise ParameterError(
                    f"days must be contiguous from 0; row {i} has day {_shown(row.day, str)}"
                )


def build_prediction_table(
    w: LoadSeries, predicted, obs: ObservationSet | None = None
) -> PredictionTable:
    """One row per predicted day, with that day's load and observation (if any).

    ``predicted`` may be shorter than ``w``, never longer (ParameterError).
    """
    predicted = _as_reals(predicted, "predicted")
    if len(predicted) > len(w):
        raise ParameterError(
            f"{len(predicted)} predicted days exceed the load series length {len(w)}"
        )
    days = range(len(predicted))
    observed = dict(obs.entries) if obs is not None else {}
    return PredictionTable(
        tuple(map(PredictionRow, days, w.values, predicted, map(observed.get, days)))
    )


def emit_prediction_csv(table: PredictionTable) -> str:
    fmt = format_number
    lines = [
        f"{day},{fmt(load)},{fmt(predicted)},{'' if observed is None else fmt(observed)}"
        for day, load, predicted, observed in table.rows
    ]
    return "day,load,predicted,observed\n" + "\n".join(lines) + "\n"


def parse_prediction_csv(text: str) -> PredictionTable:
    header = ("day", "load", "predicted", "observed")
    by_day: dict[int, PredictionRow] = {}
    # optional=1: lenient editors may drop a trailing empty observed cell
    for line, day, cells in _day_rows(text, header, by_day, optional=1):
        if day > len(by_day):  # the rows before this one hold days 0..len(by_day)-1
            raise CsvError(f"day {day} skips day {len(by_day)}", line=line)
        load = _parse_value(cells[1], "load", line)
        predicted = _parse_value(cells[2], "predicted", line)
        observed = _parse_value(cells[3], "observed", line) if cells[3].strip() else None
        by_day[day] = PredictionRow(day, load, predicted, observed)
    return PredictionTable(tuple(by_day.values()))


# ---------------------------------------------------------------------------
# Run configuration (YAML)
# ---------------------------------------------------------------------------


# A chart's plot area is its size less these margins (SVG user units)
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 25.0
_MARGIN_TOP = 45.0
_MARGIN_BOTTOM = 55.0


class ChartOptions(_Record):
    width: float = 900.0
    height: float = 600.0
    title: str = ""

    def __post_init__(self) -> None:
        margins = {"width": _MARGIN_LEFT + _MARGIN_RIGHT, "height": _MARGIN_TOP + _MARGIN_BOTTOM}
        for name, margin in margins.items():
            size = _as_positive(getattr(self, name), name, ConfigError)
            if size <= margin:
                raise ConfigError(
                    f"{name} must be > {margin:g} to leave a plot area inside the margins,"
                    f" got {_shown(size)}"
                )
        if not isinstance(self.title, str):
            raise ConfigError(f"title must be a string, got {_shown(self.title)}")
        for c in self.title:  # what XML 1.0's Char production leaves out, no SVG can carry
            if c < " " and c not in "\t\n\r" or "\ud800" <= c <= "\udfff" or c in "\ufffe\uffff":
                raise ConfigError(f"title must not contain U+{ord(c):04X}")


class RunConfig(_Record):
    variant: str = "single_delay"
    horizon: int | None = None  # None: use the full load series
    bounds: ParamBounds = ParamBounds()
    fit: FitConfig = FitConfig()
    chart: ChartOptions = ChartOptions()

    def __post_init__(self) -> None:
        variant_row(self.variant)
        if self.horizon is not None:
            horizon = _as_int(self.horizon, "horizon", ConfigError, least=1)
            object.__setattr__(self, "horizon", horizon)


def _doc_value(value, numeric: bool):
    """A document value as its record takes it: in a ``numeric`` field (its
    annotation names ``float``), a string that spells a number, also in a list,
    as that float: YAML 1.1 reads ``1e12`` as a string, and JSON has no ``inf``.
    Nothing else is converted or checked, so a fault shows the document's value."""
    if isinstance(value, list):
        return [_doc_value(x, numeric) for x in value]
    if isinstance(value, str) and numeric:
        try:
            return float(value)
        except ValueError:
            pass
    return value


def _build(cls: type, values: dict, prefix: str):
    """``cls(**values)``; the record's fault is a ConfigError, its message after ``prefix``."""
    try:
        return cls(**values)
    except (ParameterError, ConfigError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _record_from_doc(cls: type, doc, where: str, sections: dict | None = None,
                     prefix: str = ""):
    """The record ``cls`` read from the mapping ``doc``; every fault is a ConfigError.

    ``doc`` holds only fields of ``cls``, and each field that has no default;
    those faults name ``where``. ``sections`` maps a field to the record class
    its value reads as, by this same function (by default, each field whose
    default is a record); sections with defaults are read after the record
    has checked its own fields. Every other value passes through
    ``_doc_value``, and the record checks it: its fault is its own message,
    after ``prefix``, which a section's read sets to ``"<name>: "``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(doc).__name__}")
    fields = cls._fields
    unknown = sorted(map(str, set(doc) - set(fields)))  # a YAML key may be a number
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(unknown)}; valid keys: {', '.join(fields)}"
        )
    for name, default in fields.items():
        if default is _REQUIRED and name not in doc:
            raise ConfigError(f"{where} is missing required key {name!r}")
    if sections is None:
        sections = {name: type(d) for name, d in fields.items() if isinstance(d, _Record)}
    hints = {n: a for c in cls.__mro__[::-1] for n, a in vars(c).get("__annotations__", {}).items()}
    values = {name: _doc_value(value, "float" in hints[name])
              for name, value in doc.items() if name not in sections}
    given = [name for name in sections if name in doc]
    if any(fields[name] is not _REQUIRED for name in given):
        _build(cls, values, prefix)  # the record's own fields, at its sections' defaults
    for name in given:
        values[name] = _record_from_doc(sections[name], doc[name], name, prefix=f"{name}: ")
    return _build(cls, values, prefix)


def load_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration; unknown keys are errors."""
    import yaml

    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: e.g. an integer of 4,301+ digits
        raise ConfigError(f"invalid YAML: {exc}") from exc
    return _record_from_doc(RunConfig, {} if data is None else data, "configuration")


# ---------------------------------------------------------------------------
# Fitted-parameter documents (JSON)
# ---------------------------------------------------------------------------


def dumps_params(params: ModelParams) -> str:
    """The params document of a (fitted) model."""
    import json

    doc = {name: getattr(params, name) for name in ModelParams._fields}
    doc["fitness"], doc["fatigue"] = _field_dict(params.fitness), _field_dict(params.fatigue)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_params(text: str) -> ModelParams:
    """Parse a params JSON document (fit output or hand-written).

    Its sides read as sections of its variant's side class; an unknown
    variant is ``ModelParams``' fault, reported before any side is read.
    """
    import json

    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of 4,301+ digits
        raise ConfigError(f"invalid JSON: {exc}") from exc
    variant = data.get("variant") if isinstance(data, dict) else None
    row = VARIANT_TABLE.get(variant) if isinstance(variant, str) else None
    sides = {} if row is None else {"fitness": row.side, "fatigue": row.side}
    return _record_from_doc(ModelParams, data, "params document", sides)


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------

_PREDICTION_COLOR = "#1f77b4"  # blue curve
_OBSERVATION_COLOR = "#d62728"  # red markers
_BAR_COLOR = "#4d4d4d"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class _Frame:
    """Maps data coordinates onto the inner plot rectangle (y inverted)."""

    def __init__(self, options: ChartOptions, x_range, y_range) -> None:
        self.width = float(options.width)
        self.height = float(options.height)
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.plot_w = self.width - _MARGIN_LEFT - _MARGIN_RIGHT
        self.plot_h = self.height - _MARGIN_TOP - _MARGIN_BOTTOM

    def x(self, v: float) -> float:
        return _MARGIN_LEFT + (v - self.x0) / (self.x1 - self.x0) * self.plot_w

    def y(self, v: float) -> float:
        span = self.y1 - self.y0
        if span == math.inf:  # a finite range wider than a double: taken in halves
            frac = (v / 2 - self.y0 / 2) / (self.y1 / 2 - self.y0 / 2)
        else:
            frac = (v - self.y0) / span
        return _MARGIN_TOP + (1.0 - frac) * self.plot_h


def _text(attrs: str, text: str) -> str:
    """A ``<text>`` element; its content escapes ``&``, ``<`` and ``>``, and CR,
    which a parser would otherwise read back as LF."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    text = text.replace("\r", "&#13;")
    return f"<text {attrs}>{text}</text>" if text else f"<text {attrs} />"


def _svg(options: ChartOptions, frame: _Frame, x_label: str, y_label: str,
         body: str) -> str:
    """The SVG document: declaration, root, axes, labels, end ticks, ``body``."""
    width, height = _fmt(options.width), _fmt(options.height)
    x_axis_y = _fmt(frame.height - _MARGIN_BOTTOM)
    left, top = _fmt(_MARGIN_LEFT), _fmt(_MARGIN_TOP)
    mid_y = _fmt(_MARGIN_TOP + frame.plot_h / 2.0)
    labels = ""
    if options.title:
        labels = _text(
            f'x="{_fmt(frame.width / 2.0)}" y="{_fmt(_MARGIN_TOP / 2.0)}" '
            'text-anchor="middle" class="title"',
            options.title,
        )
    labels += _text(
        f'x="{_fmt(_MARGIN_LEFT + frame.plot_w / 2.0)}" y="{_fmt(frame.height - 12.0)}" '
        'text-anchor="middle" class="x-label"',
        x_label,
    ) + _text(
        f'x="18" y="{mid_y}" text-anchor="middle" class="y-label" '
        f'transform="rotate(-90 18 {mid_y})"',
        y_label,
    )
    tick_y = _fmt(frame.height - _MARGIN_BOTTOM + 18.0)
    ticks = [
        f'<text x="{_fmt(frame.x(value))}" y="{tick_y}" text-anchor="{anchor}">'
        f"{format_number(round(value, 6))}</text>"
        for value, anchor in ((frame.x0, "start"), (frame.x1, "end"))
    ] + [
        f'<text x="{_fmt(_MARGIN_LEFT - 6.0)}" y="{_fmt(frame.y(value) + 4.0)}" '
        f'text-anchor="end">{format_number(round(value, 6))}</text>'
        for value in (frame.y0, frame.y1)
    ]
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        '<g class="axes" stroke="#000000">'
        f'<line x1="{left}" y1="{x_axis_y}" x2="{_fmt(frame.width - _MARGIN_RIGHT)}" '
        f'y2="{x_axis_y}" />'
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{x_axis_y}" /></g>'
        f'<g class="labels" font-size="14">{labels}</g>'
        f'<g class="ticks" font-size="12">{"".join(ticks)}</g>{body}</svg>\n'
    )


def render_fit_chart(table: PredictionTable, options: ChartOptions | None = None,
                     y_label: str = "performance") -> str:
    """SVG with the predicted trajectory as a blue polyline and one red circle
    per observation, axes labeled day/performance."""
    options = options or ChartOptions()
    rows = table.rows
    observed = [(row.day, row.observed) for row in rows if row.observed is not None]
    all_y = [row.predicted for row in rows] + [v for _, v in observed]
    y_lo, y_hi = min(all_y), max(all_y)
    # a flat trajectory pads by 1, or by one ulp where 1 is below it
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else max(1.0, math.ulp(y_lo))
    top = sys.float_info.max  # the padded range is clamped to finite bounds
    frame = _Frame(options, (rows[0].day, rows[-1].day),
                   (max(y_lo - pad, -top), min(y_hi + pad, top)))

    points = " ".join([f"{frame.x(day):.2f},{frame.y(p):.2f}" for day, _, p, _ in rows])
    body = (
        f'<polyline class="prediction" points="{points}" fill="none" '
        f'stroke="{_PREDICTION_COLOR}" stroke-width="2" />'
    )
    if observed:
        marks = "".join([
            f'<circle class="observation" cx="{_fmt(frame.x(day))}" '
            f'cy="{_fmt(frame.y(value))}" r="4" />'
            for day, value in observed
        ])
        body += f'<g class="observations" fill="{_OBSERVATION_COLOR}">{marks}</g>'
    return _svg(options, frame, "day", y_label, body)


def render_load_chart(w: LoadSeries, options: ChartOptions | None = None) -> str:
    """SVG bar chart of the daily load, one bar per day; the maximum load spans
    the full inner plot height."""
    options = options or ChartOptions()
    values = w.values
    max_load = max(values)
    frame = _Frame(options, (0.0, float(len(values))), (0.0, max_load if max_load > 0 else 1.0))
    slot = frame.plot_w / len(values)
    bar_w = max(slot * 0.8, 0.5)
    base_y = frame.height - _MARGIN_BOTTOM
    bars = []
    for day, value in enumerate(values):
        height = (value / max_load) * frame.plot_h if max_load > 0 else 0.0
        bars.append(
            f'<rect class="bar" x="{_fmt(_MARGIN_LEFT + day * slot + (slot - bar_w) / 2.0)}" '
            f'y="{_fmt(base_y - height)}" width="{_fmt(bar_w)}" height="{_fmt(height)}" />'
        )
    body = f'<g class="bars" fill="{_BAR_COLOR}">{"".join(bars)}</g>'
    return _svg(options, frame, "day", "load", body)
