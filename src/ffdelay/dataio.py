"""Ingestion and emission: CSV series, YAML run configuration, fitted-parameter
documents (JSON) and standalone SVG charts.

Schemas
-------
Load CSV          header ``day,load``; day a non-negative base-10 integer,
                  load a non-negative decimal; missing days are rest days
                  (load 0); day 0 must carry load 0.
Performance CSV   header ``day,performance``; rows in any order, one per day.
Prediction CSV    header ``day,load,predicted,observed``; one row per day from
                  day 0; ``observed`` empty when the day was not measured.
Run config        YAML mapping with keys ``variant``, ``horizon``,
                  ``bounds.*``, ``fit.*``, ``chart.*``; unknown keys are
                  errors. Every omitted key takes the documented default.
                  Each section is read field by field into its record
                  (``ParamBounds``, ``FitConfig``, ``ChartOptions``).
Params document   JSON mapping with ``variant``, ``p0``, ``k1``, ``k2`` and a
                  parameter mapping per side (``fitness``/``fatigue``) whose
                  keys are the fields of the variant's side class, read the
                  same way; it reads back as a ``ModelParams``.

A document with several faults reports the first in field order.

In every CSV document a cell may carry surrounding whitespace, blank and
whitespace-only rows are skipped, and the header may be in any case. Each
document is read in one pass, so the first error in file order is the one
reported, with its line.

Numbers in emitted CSV use the shortest decimal form that round-trips, so
emit/parse is an exact identity. Charts are written as plain SVG text with no
XML library; only the title and axis labels carry free text, escaped there.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import repeat
from typing import Iterator, NamedTuple

from .errors import ConfigError, CsvError, DuplicateDayError, ParameterError
from .estimation import FitConfig, ObservationSet, ParamBounds
from .models import (
    _REQUIRED, LoadSeries, ModelParams, _as_int, _as_real, _as_reals, _field_dict, _record,
    variant_row,
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


def _csv_rows(text: str, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """(line-number, cells) of each data row, in file order, after the header.

    The first non-blank row must be ``header`` (any case); blank rows are
    skipped. A row of the header's width whose first cell is not blank is
    yielded as read, its cells possibly padded with whitespace; every other
    row is yielded stripped, so a caller checks its width. Malformed CSV
    raises CsvError at the row where the reader fails.
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
            if len(cells) == width and cells[0] and not cells[0].isspace():
                yield line, cells
                continue
            cells = [c.strip() for c in cells]
            if any(cells):
                yield line, cells
    except csv.Error as exc:
        raise CsvError(f"malformed CSV: {exc}", line=reader.line_num) from exc


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
    for line, cells in _csv_rows(text, ("day", "load")):
        if len(cells) != 2:
            raise CsvError(f"expected 2 fields (day,load), got {len(cells)}", line=line)
        day = _parse_day(cells[0], line)
        load = _parse_value(cells[1], "load", line)
        if load < 0.0:
            raise CsvError(f"load must be non-negative, got {load!r}", line=line)
        if day in by_day:
            raise DuplicateDayError(f"duplicate day {day}", line=line)
        if day == 0 and load != 0.0:
            raise CsvError(
                f"load at day 0 must be 0 (the model assumes w(0) = 0), got {load!r}",
                line=line,
            )
        by_day[day] = load
    if not by_day:
        raise CsvError("no data rows")
    horizon = max(by_day) + 1
    return LoadSeries(tuple(map(by_day.get, range(horizon), repeat(0.0))))


def parse_performance_csv(text: str) -> ObservationSet:
    """Parse a ``day,performance`` document; rows may arrive in any order."""
    entries: list[tuple[int, float]] = []
    seen: set[int] = set()
    for line, cells in _csv_rows(text, ("day", "performance")):
        if len(cells) != 2:
            raise CsvError(
                f"expected 2 fields (day,performance), got {len(cells)}", line=line
            )
        day = _parse_day(cells[0], line)
        value = _parse_value(cells[1], "performance", line)
        if day in seen:
            raise DuplicateDayError(f"duplicate day {day}", line=line)
        seen.add(day)
        entries.append((day, value))
    if not entries:
        raise CsvError("no data rows")
    return ObservationSet(tuple(entries))


# ---------------------------------------------------------------------------
# Prediction tables
# ---------------------------------------------------------------------------


class PredictionRow(NamedTuple):
    day: int
    load: float
    predicted: float
    observed: float | None


@_record
class PredictionTable:
    """One row per day from day 0: load, model prediction, optional observation."""

    rows: tuple[PredictionRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ParameterError("prediction table must not be empty")
        for i, row in enumerate(self.rows):
            if row.day != i:
                raise ParameterError(
                    f"days must be contiguous from 0; row {i} has day {row.day}"
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
    out: list[PredictionRow] = []
    for line, cells in _csv_rows(text, ("day", "load", "predicted", "observed")):
        # A trailing empty observed field may be dropped by lenient editors.
        if len(cells) == 3:
            cells.append("")
        if len(cells) != 4:
            raise CsvError(f"expected 4 fields, got {len(cells)}", line=line)
        day = _parse_day(cells[0], line)
        load = _parse_value(cells[1], "load", line)
        predicted = _parse_value(cells[2], "predicted", line)
        observed = _parse_value(cells[3], "observed", line) if cells[3].strip() else None
        if day < len(out):  # the rows before this one hold days 0..len(out)-1
            raise DuplicateDayError(f"duplicate day {day}", line=line)
        if day > len(out):
            raise CsvError(f"day {day} skips day {len(out)}", line=line)
        out.append(PredictionRow(day, load, predicted, observed))
    if not out:
        raise CsvError("no data rows")
    return PredictionTable(tuple(out))


# ---------------------------------------------------------------------------
# Run configuration (YAML)
# ---------------------------------------------------------------------------


@_record
class ChartOptions:
    width: float = 900.0
    height: float = 600.0
    title: str = ""

    def __post_init__(self) -> None:
        for name in ("width", "height"):
            size = _as_real(getattr(self, name), name, ConfigError)
            if not (math.isfinite(size) and size > 0):
                raise ConfigError(f"chart dimensions must be finite and positive, got {size!r}")
        if not isinstance(self.title, str):
            raise ConfigError(f"title must be a string, got {self.title!r}")


@_record
class RunConfig:
    variant: str = "single_delay"
    horizon: int | None = None  # None: use the full load series
    bounds: ParamBounds = ParamBounds()
    fit: FitConfig = FitConfig()
    chart: ChartOptions = ChartOptions()

    def __post_init__(self) -> None:
        variant_row(self.variant)
        if self.horizon is not None:
            object.__setattr__(self, "horizon", _as_int(self.horizon, "horizon", ConfigError))
            if self.horizon < 1:
                raise ConfigError(f"horizon must be >= 1, got {self.horizon}")


def _as_float(value, key: str) -> float:
    """A number of a config or params document: an int, float or numeric string."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):  # OverflowError: an int beyond double range
            pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _require_mapping(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(map(str, unknown))}; "
            f"valid keys: {', '.join(allowed)}"
        )


def _record_from_doc(cls: type, doc, where: str):
    """The record ``cls`` read from the mapping ``doc``, field by field in order.

    An omitted key takes the field's default. The default decides how a value
    reads: a tuple default as a list of that many numbers, a str default as a
    string, an int default as an integer, a None default as null or a number,
    and a float default, or none, as a number. Every fault is a ConfigError
    naming ``where``.
    """
    doc = _require_mapping(doc, where)
    _reject_unknown(doc, cls._fields, where)
    values = []
    for name, default in cls._fields.items():
        key = f"{where}.{name}"
        value = doc.get(name, default)
        if value is _REQUIRED:
            raise ConfigError(f"{where} is missing required key {name!r}")
        if isinstance(default, tuple):
            if not isinstance(value, (list, tuple)) or len(value) != len(default):
                raise ConfigError(f"{key} must be a list of {len(default)} numbers, got {value!r}")
            value = tuple([_as_float(x, f"{key}[{i}]") for i, x in enumerate(value)])
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        elif isinstance(default, int):
            value = _as_int(value, key, ConfigError)
        elif default is not None or value is not None:
            value = _as_float(value, key)
        values.append(value)
    try:
        return cls(*values)
    except (ParameterError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(text: str) -> RunConfig:
    """Parse and validate a YAML run configuration; unknown keys are errors."""
    import yaml

    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: e.g. an integer of 4,301+ digits
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    data = _require_mapping(data, "configuration")
    _reject_unknown(data, RunConfig._fields, "configuration")
    try:
        # variant and horizon first: they precede the sections in field order
        head = RunConfig(data.get("variant", "single_delay"), data.get("horizon"))
        sections = {  # bounds, fit and chart: the fields whose default is a record
            name: _record_from_doc(type(default), data[name], name)
            for name, default in RunConfig._fields.items()
            if name in data and hasattr(default, "_fields")
        }
        return RunConfig(head.variant, head.horizon, **sections)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


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
    """Parse a params JSON document (fit output or hand-written)."""
    import json

    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of 4,301+ digits
        raise ConfigError(f"invalid JSON: {exc}") from exc
    data = _require_mapping(data, "params document")
    _reject_unknown(data, ModelParams._fields, "params document")
    try:
        variant = data["variant"]
        side_cls = variant_row(variant).side
        p0 = _as_float(data["p0"], "p0")
        k1 = _as_float(data["k1"], "k1")
        k2 = _as_float(data["k2"], "k2")
        fitness = _record_from_doc(side_cls, data["fitness"], "fitness")
        fatigue = _record_from_doc(side_cls, data["fatigue"], "fatigue")
        return ModelParams(variant, p0, k1, k2, fitness, fatigue)
    except KeyError as exc:
        raise ConfigError(f"params document is missing required key {exc.args[0]!r}") from exc
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------

_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 25.0
_MARGIN_TOP = 45.0
_MARGIN_BOTTOM = 55.0

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
        return _MARGIN_TOP + (1.0 - (v - self.y0) / (self.y1 - self.y0)) * self.plot_h


def _text(attrs: str, text: str) -> str:
    """A ``<text>`` element; its content escapes ``&``, ``<`` and ``>``."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
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
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else 1.0
    frame = _Frame(options, (rows[0].day, rows[-1].day), (y_lo - pad, y_hi + pad))

    # _Frame.x and _Frame.y, term for term, so each point is bit-identical to them
    x0, x_span, plot_w = frame.x0, frame.x1 - frame.x0, frame.plot_w
    y0, y_span, plot_h = frame.y0, frame.y1 - frame.y0, frame.plot_h
    points = " ".join([
        f"{_MARGIN_LEFT + (day - x0) / x_span * plot_w:.2f},"
        f"{_MARGIN_TOP + (1.0 - (p - y0) / y_span) * plot_h:.2f}"
        for day, _, p, _ in rows
    ])
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
