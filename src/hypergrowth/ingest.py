"""Maddison-style wide-table ingestion and regional aggregation.

Input is a UTF-8 CSV exported from the Maddison historical-statistics
spreadsheet: first column holds row labels (countries or aggregate
rows), the header row holds integer years, and cells are GDP in
millions of 1990 Geary-Khamis dollars. Blank cells and values <= 0 are
missing data and are never stored; nan and infinite cells are errors.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import compress, repeat
from operator import add, contains
from typing import NamedTuple

from .errors import (
    DuplicateLabelError,
    IncompletePresetError,
    ParseError,
    PresetDefinitionError,
    UnknownMemberError,
)
from .series import Frozen, GrowthSeries, from_columns

MILLIONS_PER_BILLION = 1000.0

# Row labels of the twelve leading Western European economies.
W12_MEMBERS = (
    "Austria",
    "Belgium",
    "Denmark",
    "Finland",
    "France",
    "Germany",
    "Italy",
    "Netherlands",
    "Norway",
    "Sweden",
    "Switzerland",
    "United Kingdom",
)

W30_TOTAL_ROW = "Total 30 Western Europe"
EE_TOTAL_ROW = "Total Eastern Europe"


class Dataset(NamedTuple):
    """Parsed wide table: label -> {year: value in millions}."""

    rows: dict[str, dict[float, float]]
    year_header: tuple[float, ...]


class RegionPreset(Frozen):
    """Named recipe for building one regional series: the rows to sum.

    mode "sum-members" takes one or more rows, "direct-row" exactly one;
    ``aggregate`` sums both alike, so mode only checks the label count.
    The labels are kept as a tuple of their own, so the same labels make
    one equal, hashable preset, and no later edit of the caller's list
    reaches it.
    """

    __slots__ = _fields = ("name", "member_labels", "mode")

    def __init__(self, name: str, member_labels: tuple[str, ...], mode: str) -> None:
        self._assign(name, tuple(member_labels), mode)
        if self.mode not in ("sum-members", "direct-row"):
            raise PresetDefinitionError(f"unknown preset mode {self.mode!r}")
        if self.mode == "direct-row" and len(self.member_labels) != 1:
            raise PresetDefinitionError("direct-row preset needs exactly one label")
        if self.mode == "sum-members" and not self.member_labels:
            raise PresetDefinitionError("sum-members preset needs at least one label")
        seen: set[str] = set()
        for label in self.member_labels:  # a repeated member would be summed twice
            if label in seen:
                raise PresetDefinitionError(
                    f"preset {self.name!r}: member {label!r} is listed more than once"
                )
            seen.add(label)


def parse_wide_csv(text: str) -> Dataset:
    """Parse a wide CSV into a Dataset.

    The first header cell names the label column; the remaining header
    cells must parse as strictly increasing finite years. Blank cells
    and cells <= 0 are dropped. Raises ParseError for malformed headers
    or non-numeric or non-finite cells (named with row label and year),
    and DuplicateLabelError for repeated row labels. A row may leave
    trailing cells out, but a non-blank cell past the last header year is
    a ParseError, as is a line the csv module cannot read.
    """
    records = _records(io.StringIO(text))
    _, header = next(records)
    if len(header) < 2:
        raise ParseError("header must contain a label column and at least one year")

    years: list[float] = []
    for cell in header[1:]:
        try:
            year = float(cell.strip())
        except ValueError:
            year = math.nan
        if not math.isfinite(year):
            raise ParseError(f"header cell {cell!r} is not a year")
        years.append(year)
    for y0, y1 in zip(years, years[1:]):
        if not y0 < y1:
            raise ParseError(f"header years not strictly increasing at {y1:g}")

    rows: dict[str, dict[float, float]] = {}
    for line, record in records:
        if not record or all(not c.strip() for c in record):
            continue  # ignore fully blank lines
        label = record[0].strip()
        if not label:
            raise ParseError(f"line {line}: empty row label")
        if label in rows:
            raise DuplicateLabelError(f"duplicate row label {label!r}")
        if any(c.strip() for c in record[len(header):]):  # a value past the last year
            n_cells = max(i for i, c in enumerate(record) if c.strip())
            raise ParseError(f"row {label!r} has {n_cells} value cells, "
                             f"the header has {len(years)} years")
        values = record[1:len(header)]
        try:
            vals = list(map(float, filter(None, values)))  # float strips whitespace itself
        except ValueError:  # a whitespace-only or non-numeric cell
            vals = None
        # a nan or an infinity makes the sum non-finite; so does a sum that overflows
        if vals is not None and math.isfinite(sum(vals)):
            cells = dict(zip(compress(years, values), vals))
            if vals and min(vals) <= 0.0:
                cells = {year: value for year, value in cells.items() if value > 0.0}
        else:
            cells = _cells_one_by_one(label, years, values)
        rows[label] = cells

    return Dataset(rows=rows, year_header=tuple(years))


def _cells_one_by_one(label: str, years: list[float], cells: list[str]) -> dict[float, float]:
    """A row's positive cells by year, converted one by one: blank cells are
    skipped, and a non-numeric or non-finite cell is a ParseError naming it."""
    row: dict[float, float] = {}
    for year, cell in zip(years, cells):
        raw = cell.strip()
        if not raw:
            continue
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(
                f"row {label!r}, year {year:g}: cell {raw!r} is not numeric"
            ) from None
        if 0.0 < value < math.inf:
            row[year] = value
        elif not -math.inf < value <= 0.0:  # nan, inf or -inf
            raise ParseError(
                f"row {label!r}, year {year:g}: cell {raw!r} is not finite"
            )
    return row


def _records(f):
    """Yield ``(line, record)`` for each csv record of ``f``, where ``line`` is the
    line of the file on which the record starts: a quoted cell may span lines.

    A line the csv module cannot read is a ParseError naming that line, and so
    is an input with no record at all: both formats start with a header.
    """
    reader = csv.reader(f)
    line = 1
    try:
        for record in reader:
            yield line, record
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if line == 1:
        raise ParseError("empty input: no header row")


def aggregate(d: Dataset, p: RegionPreset) -> GrowthSeries:
    """Build the regional GrowthSeries for a preset, in billions.

    The series sums the member rows, in member order, over the years
    where every member has a value (partial sums would understate early
    sparse years); a one-member preset reads its row as it stands.
    Raises UnknownMemberError for missing rows and IncompletePresetError
    (a TooFewPointsError) when fewer than 2 complete years remain.
    """
    for label in p.member_labels:
        if label not in d.rows:
            raise UnknownMemberError(f"preset {p.name!r}: row {label!r} not in dataset")

    first, *rest = [d.rows[label] for label in p.member_labels]
    years = sorted(set(first).intersection(*rest))
    if len(years) < 2:
        raise IncompletePresetError(
            f"preset {p.name!r}: only {len(years)} complete year(s) in dataset"
        )
    totals = list(map(first.__getitem__, years))
    for cells in rest:  # in member order: the order fixes the float rounding
        totals = list(map(add, totals, map(cells.__getitem__, years)))
    values = list(map(MILLIONS_PER_BILLION.__rtruediv__, totals))
    return from_columns(years, values, label=p.name)


def preset_catalog(overrides: dict[str, tuple[str, ...]] | None = None) -> list[RegionPreset]:
    """Built-in regional presets, plus any given in ``overrides``.

    W12 sums the twelve leading Western European economies; W30 and EE
    read the file's own Western/Eastern Europe total rows. An override
    maps a preset name to its row labels (the CLI's ``--members`` adds
    ``custom``); a single label makes a direct-row preset, several labels
    a sum-members one.
    """
    defaults = {
        "W12": W12_MEMBERS,
        "W30": (W30_TOTAL_ROW,),
        "EE": (EE_TOTAL_ROW,),
    }
    if overrides:
        defaults.update(overrides)
    return [
        RegionPreset(
            name=name,
            member_labels=labels,
            mode="direct-row" if len(labels) == 1 else "sum-members",
        )
        for name, labels in defaults.items()
    ]


def parse_long_csv(text: str, label: str) -> GrowthSeries:
    """Parse a two-column ``year,value`` CSV with values already in billions.

    Blank rows are skipped; a row whose first two cells are not numbers,
    or a line the csv module cannot read, is a ParseError.

    Lines with exactly one comma and no quote or bare carriage return,
    which csv would read as two plain cells each, are split and converted
    in C loops; any other body is read by csv, row by row, which names
    the line at fault.
    """
    f = io.StringIO(text)
    records = _records(f)
    _, header = next(records)
    if len(header) < 2 or header[0].strip().lower() != "year":
        raise ParseError("long format requires a 'year,value' header")
    start = f.tell()
    series = _two_cell_lines(f.read(), label)
    if series is not None:
        return series

    f.seek(start)  # the csv reader resumes after the header
    years, values = [], []
    for line, record in records:
        try:
            year, value = float(record[0]), float(record[1])
        except (ValueError, IndexError):
            if any(c.strip() for c in record):
                raise ParseError(f"line {line}: expected numeric year,value") from None
            continue
        years.append(year)
        values.append(value)
    return from_columns(years, values, label=label)


def _two_cell_lines(body: str, label: str) -> GrowthSeries | None:
    """The series of a body of ``year,value`` lines that csv would read as two
    plain cells each, or None when csv has to read it.

    Each intermediate is dropped before the next is built: the peak memory
    stays below that of the csv records.
    """
    if "\r" in body:  # the replace copies the whole body, so only a body with a CR pays
        body = body.replace("\r\n", "\n")
    if '"' in body or "\r" in body:
        return None
    n_commas = body.count(",")
    lines = list(filter(None, body.split("\n")))  # csv skips empty lines
    del body
    # as many commas as lines, and a comma on every line: one comma a line
    if not (
        len(lines) == n_commas
        and all(map(contains, lines, repeat(",")))
        and max(map(len, lines), default=0) <= csv.field_size_limit()
    ):
        return None
    joined = ",".join(lines)
    del lines
    cells = joined.split(",")
    del joined
    years, values = cells[0::2], cells[1::2]
    del cells
    try:
        return from_columns(years, values, label)
    except ValueError:  # a cell that is not a number: the csv loop names its line
        return None
