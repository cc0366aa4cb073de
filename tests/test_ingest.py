import csv
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergrowth.errors import (
    DuplicateLabelError,
    HypergrowthError,
    ParseError,
    PresetDefinitionError,
    TooFewPointsError,
    UnknownMemberError,
    WindowError,
)
from hypergrowth.ingest import (
    Dataset,
    RegionPreset,
    aggregate,
    parse_long_csv,
    parse_wide_csv,
    preset_catalog,
)
from hypergrowth.series import from_columns


class TestParseWideCsv:
    def test_blank_cells_dropped(self):
        d = parse_wide_csv("Region,1,1000,1500\nX,10,,20\n")
        assert d.rows["X"] == {1.0: 10.0, 1500.0: 20.0}
        assert d.year_header == (1.0, 1000.0, 1500.0)

    def test_zero_and_negative_cells_dropped(self):
        d = parse_wide_csv("Region,1,1000,1500\nX,0,-4,20\n")
        assert d.rows["X"] == {1500.0: 20.0}

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateLabelError):
            parse_wide_csv("Region,1,1000\nFrance,1,2\nFrance,3,4\n")

    def test_non_numeric_cell_names_row_and_year(self):
        with pytest.raises(ParseError) as err:
            parse_wide_csv("Region,1,1000\nX,10,n.a.\n")
        assert "X" in str(err.value)
        assert "1000" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-Infinity"])
    def test_nonfinite_cell_names_row_and_year(self, cell):
        # nan and -inf are not > 0, and were once dropped like blank cells
        with pytest.raises(ParseError, match=f"row 'X', year 1000: cell '{cell}' is not finite"):
            parse_wide_csv(f"Region,1,1000\nX,10,{cell}\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_wide_csv("Region,1,abc\nX,1,2\n")
        with pytest.raises(ParseError):
            parse_wide_csv("Region,1000,1\nX,1,2\n")
        with pytest.raises(ParseError):
            parse_wide_csv("")
        for header in ("Region,1,inf", "Region,nan", "Region,-inf,1"):
            with pytest.raises(ParseError, match="header cell"):
                parse_wide_csv(header + "\nX,1,2\n")

    def test_quoted_label_with_comma(self):
        d = parse_wide_csv('Region,1,1000\n"Bosnia, Herzegovina",5,6\n')
        assert "Bosnia, Herzegovina" in d.rows

    def test_labels_trimmed(self):
        d = parse_wide_csv("Region,1\n  France ,7\n")
        assert d.rows["France"] == {1.0: 7.0}

    def test_value_past_the_last_header_year_names_row_and_cell_count(self):
        with pytest.raises(ParseError, match=r"^row 'X' has 3 value cells, the header has 2 years$"):
            parse_wide_csv("Region,1,1000\nX,10,20,30\n")

    def test_trailing_blank_cells_are_legal(self):
        d = parse_wide_csv("Region,1,1000\nX,10,20,, \nY,5\n")
        assert d.rows == {"X": {1.0: 10.0, 1000.0: 20.0}, "Y": {1.0: 5.0}}

    @pytest.mark.parametrize("where", ["label", "cell", "header"])
    def test_oversized_field_is_a_parse_error(self, where):
        big = "1" * 200_000
        text = {
            "label": f"Region,1,1000\nX,1,2\n{big},1,2\n",
            "cell": f"Region,1,1000\nX,1,2\nY,1,{big}\n",
            "header": f"Region,{big}\nX,1\n",
        }[where]
        line = 1 if where == "header" else 3
        with pytest.raises(ParseError, match=rf"^line {line}: field larger than field limit"):
            parse_wide_csv(text)

    @pytest.mark.parametrize("text, line", [
        ('Region,1500,1600\n"A\nB",1,2\n,3,4\n', 4),  # after a cell over lines 2-3
        ('Region,1500,1600\n"\n",1,2\n', 2),            # a label over lines 2-3
    ])
    def test_empty_label_names_the_line_its_row_starts_on(self, text, line):
        with pytest.raises(ParseError, match=rf"^line {line}: empty row label$"):
            parse_wide_csv(text)


class TestAggregate:
    def test_single_complete_year_is_too_few(self):
        d = parse_wide_csv("Region,1,1000\nX,10,20\nY,30,\n")
        p = RegionPreset("R", ("X", "Y"), "sum-members")
        with pytest.raises(TooFewPointsError):
            aggregate(d, p)

    def test_sum_and_unit_conversion(self):
        d = parse_wide_csv("Region,1,1000\nX,10,20\nY,30,40\n")
        p = RegionPreset("R", ("X", "Y"), "sum-members")
        s = aggregate(d, p)
        assert s.points == ((1.0, 0.040), (1000.0, 0.060))
        assert s.label == "R"

    def test_unknown_member(self):
        d = parse_wide_csv("Region,1,1000\nX,10,20\n")
        with pytest.raises(UnknownMemberError):
            aggregate(d, RegionPreset("R", ("X", "Z"), "sum-members"))

    def test_direct_row(self):
        d = parse_wide_csv("Region,1,1000,1500\nTotal,100,,300\n")
        s = aggregate(d, RegionPreset("T", ("Total",), "direct-row"))
        assert s.points == ((1.0, 0.1), (1500.0, 0.3))

    def test_single_member_sum_equals_direct_row(self):
        d = parse_wide_csv("Region,1,1000,1500\nX,11,,33\nY,1,2,3\n")
        via_sum = aggregate(d, RegionPreset("R", ("X",), "sum-members"))
        via_row = aggregate(d, RegionPreset("R", ("X",), "direct-row"))
        assert via_sum.points == via_row.points

    @given(
        st.lists(
            st.lists(st.booleans(), min_size=6, max_size=6),
            min_size=1,
            max_size=5,
        )
    )
    def test_completeness_rule(self, presence):
        # random sparsity pattern: member i has year j iff presence[i][j]
        years = [1, 1000, 1500, 1600, 1700, 1820]
        lines = ["Region," + ",".join(str(y) for y in years)]
        for i, mask in enumerate(presence):
            cells = [str(10 * (i + 1)) if has else "" for has in mask]
            lines.append(f"M{i}," + ",".join(cells))
        d = parse_wide_csv("\n".join(lines) + "\n")
        p = RegionPreset("R", tuple(f"M{i}" for i in range(len(presence))), "sum-members")
        complete = [
            y for j, y in enumerate(years) if all(mask[j] for mask in presence)
        ]
        if len(complete) < 2:
            with pytest.raises(TooFewPointsError):
                aggregate(d, p)
        else:
            s = aggregate(d, p)
            assert list(s.years) == [float(y) for y in complete]
            for y, v in s.points:
                expected = sum(10 * (i + 1) for i in range(len(presence))) / 1000
                assert v == pytest.approx(expected, rel=1e-12)


    @given(st.lists(
        st.dictionaries(st.sampled_from([1.0, 1000.0, 1500.0, 1600.0, 1700.0, 1820.0]),
                        st.floats(min_value=1e-6, max_value=1e15), min_size=1),
        min_size=1, max_size=8,
    ))
    def test_sum_is_the_reference_sum_bit_for_bit(self, members):
        # every preset, one row or many, is the left-to-right float sum of its
        # members over their common years, divided by 1000 last
        labels = tuple(f"M{i}" for i in range(len(members)))
        d = Dataset(rows=dict(zip(labels, members)), year_header=())
        p = RegionPreset("R", labels, "direct-row" if len(labels) == 1 else "sum-members")
        years = sorted(y for y in members[0] if all(y in c for c in members))
        if len(years) < 2:
            with pytest.raises(TooFewPointsError):
                aggregate(d, p)
            return
        want = from_columns(years, [sum(c[y] for c in members) / 1000 for y in years],
                            label="R")
        got = aggregate(d, p)
        assert (got.years, got.values) == (want.years, want.values)


class TestPresetCatalog:
    def test_builtin_presets(self):
        catalog = {p.name: p for p in preset_catalog()}
        assert set(catalog) == {"W12", "W30", "EE"}
        assert len(catalog["W12"].member_labels) == 12
        assert catalog["W12"].mode == "sum-members"
        assert catalog["W30"].mode == "direct-row"
        assert catalog["EE"].mode == "direct-row"

    def test_w12_member_names(self):
        catalog = {p.name: p for p in preset_catalog()}
        assert catalog["W12"].member_labels == (
            "Austria", "Belgium", "Denmark", "Finland", "France", "Germany",
            "Italy", "Netherlands", "Norway", "Sweden", "Switzerland",
            "United Kingdom",
        )

    def test_overrides(self):
        catalog = {
            p.name: p
            for p in preset_catalog({"W30": ("Total Western Europe",), "X2": ("A", "B")})
        }
        assert catalog["W30"].member_labels == ("Total Western Europe",)
        assert catalog["X2"].mode == "sum-members"

    @pytest.mark.parametrize("labels", [("X", "Y", "X"), ("X", "X")])
    def test_repeated_member_is_refused(self, labels):
        # a repeated member would be summed twice
        with pytest.raises(PresetDefinitionError,
                           match=r"^preset 'R': member 'X' is listed more than once$"):
            RegionPreset("R", labels, "sum-members")
        with pytest.raises(PresetDefinitionError, match="'X' is listed more than once"):
            preset_catalog({"R": labels})

    @pytest.mark.parametrize("labels, mode", [
        (("X",), "sum-all"),
        (("X", "Y"), "direct-row"),
        ((), "sum-members"),
    ])
    def test_malformed_preset_is_a_window_error(self, labels, mode):
        with pytest.raises(PresetDefinitionError) as caught:
            RegionPreset("R", labels, mode)
        # library callers catch it either as a package error or as a ValueError
        assert isinstance(caught.value, WindowError)
        assert isinstance(caught.value, HypergrowthError)
        assert isinstance(caught.value, ValueError)


class TestBundledDataset:
    def test_w30_direct_row_2008_spot_check(self, europe_dataset):
        p = next(q for q in preset_catalog() if q.name == "W30")
        s = aggregate(europe_dataset, p)
        raw_2008 = europe_dataset.rows["Total 30 Western Europe"][2008.0]
        assert s.value_at(2008.0) == pytest.approx(raw_2008 / 1000.0, rel=1e-12)

    def test_w12_skips_years_missing_any_member(self, europe_dataset):
        # Austria has no 1830/1840 cells, so the 12-country sum must not either
        p = next(q for q in preset_catalog() if q.name == "W12")
        s = aggregate(europe_dataset, p)
        assert 1830.0 not in s.years and 1840.0 not in s.years
        assert 1830.0 in europe_dataset.rows["France"]


class TestParseLongCsv:
    def test_basic(self):
        s = parse_long_csv("year,value\n1,0.5\n1000,0.75\n", label="sim")
        assert s.points == ((1.0, 0.5), (1000.0, 0.75))
        assert s.label == "sim"

    def test_requires_header(self):
        with pytest.raises(ParseError):
            parse_long_csv("1,0.5\n1000,0.75\n", label="sim")

    def test_empty_input_has_no_header(self):
        with pytest.raises(ParseError, match=r"^empty input: no header row$"):
            parse_long_csv("", "x")

    @pytest.mark.parametrize("blank", ["", "   ", " , ", ",", "\t,  ,"])
    def test_blank_rows_skipped(self, blank):
        s = parse_long_csv(f"year,value\n{blank}\n1,0.5\n{blank}\n1000,0.75\n", "sim")
        assert s.points == ((1.0, 0.5), (1000.0, 0.75))

    @pytest.mark.parametrize("bad", ["1820,", "1820", " 1820 ", "x,1.5", "1820,abc"])
    def test_incomplete_row_names_its_line(self, bad):
        # skipped blank lines still count towards the line number
        text = f"year,value\n1,0.5\n\n  \n{bad}\n1000,0.75\n"
        with pytest.raises(ParseError, match=r"^line 5: expected numeric year,value$"):
            parse_long_csv(text, "sim")

    def test_a_row_after_a_multiline_cell_names_its_own_line(self):
        with pytest.raises(ParseError, match=r"^line 5: expected numeric year,value$"):
            parse_long_csv('year,value\n"1500\n",1\n1600,2\nfoo,bar\n', "sim")

    def test_the_first_bad_line_is_named(self):
        # a bad row before a line csv cannot read: named, as in a wide table
        with pytest.raises(ParseError, match=r"^line 2: expected numeric year,value$"):
            parse_long_csv(f"year,value\nfoo,bar\n{'1' * 200_000},5\n", "sim")

    def test_extra_columns_ignored(self):
        s = parse_long_csv("year,value,note\n1,0.5,first\n1000,0.75,,x\n", "sim")
        assert s.points == ((1.0, 0.5), (1000.0, 0.75))

    def test_quoted_cells_and_crlf_parse(self):
        s = parse_long_csv('year,value\r\n"1","0.5"\r\n\r\n1000, 0.75 \r\n', "sim")
        assert s.points == ((1.0, 0.5), (1000.0, 0.75))

    @pytest.mark.parametrize("text, line", [
        pytest.param("year,value\n1,0.5\n{big},5\n1000,0.75\n", 3, id="{big},5"),
        pytest.param("year,value\n1,0.5\n1900,{big}\n1000,0.75\n", 3, id="1900,{big}"),
        pytest.param("year,{big}\n1,0.5\n", 1, id="header"),
    ])
    def test_oversized_field_is_a_parse_error(self, text, line):
        with pytest.raises(ParseError, match=rf"^line {line}: field larger than field limit"):
            parse_long_csv(text.format(big="1" * 200_000), "sim")

    def test_unsorted_rows_are_sorted(self):
        s = parse_long_csv("year,value\n1000,0.75\n1,0.5\n", "sim")
        assert s.years == (1.0, 1000.0) and s.values == (0.5, 0.75)


# --- equivalence with the row-by-row, cell-by-cell parsers ------------------
#
# The parsers convert whole columns and rows in C loops and fall back to csv
# records and per-row or per-cell loops only to name a bad line or cell. The
# reference parsers below are those loops alone; both must give the same
# series or Dataset, or the same error class and message, on any text.

def numbered(reader):
    """Each record left in ``reader`` with the line of the text on which it starts."""
    lineno = reader.line_num + 1
    for record in reader:
        yield lineno, record
        lineno = reader.line_num + 1


def reference_long(text, label):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input: no header row")
        if len(header) < 2 or header[0].strip().lower() != "year":
            raise ParseError("long format requires a 'year,value' header")
        years, values = [], []
        for lineno, record in numbered(reader):
            try:
                year, value = float(record[0]), float(record[1])
            except (ValueError, IndexError):
                if any(c.strip() for c in record):
                    raise ParseError(f"line {lineno}: expected numeric year,value") from None
                continue
            years.append(year)
            values.append(value)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    return from_columns(years, values, label=label)


def reference_wide(text):
    reader = csv.reader(io.StringIO(text))
    try:
        return _reference_read_wide(reader)
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _reference_read_wide(reader):
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input: no header row") from None
    if len(header) < 2:
        raise ParseError("header must contain a label column and at least one year")
    years = []
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
    rows = {}
    for lineno, record in numbered(reader):
        if not record or all(not c.strip() for c in record):
            continue
        label = record[0].strip()
        if not label:
            raise ParseError(f"line {lineno}: empty row label")
        if label in rows:
            raise DuplicateLabelError(f"duplicate row label {label!r}")
        if any(c.strip() for c in record[len(header):]):
            n_cells = max(i for i, c in enumerate(record) if c.strip())
            raise ParseError(f"row {label!r} has {n_cells} value cells, "
                             f"the header has {len(years)} years")
        cells = {}
        for year, cell in zip(years, record[1:]):
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
                cells[year] = value
            elif not -math.inf < value <= 0.0:
                raise ParseError(
                    f"row {label!r}, year {year:g}: cell {raw!r} is not finite"
                )
        rows[label] = cells
    return Dataset(rows=rows, year_header=tuple(years))


def outcome(parse, *args):
    """The parse result, or the class and message of what it raised."""
    try:
        return parse(*args)
    except Exception as exc:
        return type(exc), str(exc)


# cells the fast paths must leave to the loops, or convert exactly as they do
ODD_CELLS = (" 4 ", "", " ", "\t5\u2003", '"', '"7"', "x", "nan", "inf", "-inf", "-1", "0",
             "-0.0", "1e308", "1_0", "\x00", "1,2")
BIG_CELL = "9" * 140_000  # longer than the csv module reads; float() reads it as inf
NUMBERS = st.one_of(
    st.integers(-3, 3000).map(str),
    st.floats(1e-3, 1e6).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
CELLS = st.one_of(NUMBERS, NUMBERS, st.sampled_from(ODD_CELLS), st.just(BIG_CELL))
LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", ""])


def join_lines(draw, lines):
    """Lines with drawn line ends; a missing end joins a line to the next."""
    ends = [draw(LINE_ENDS) for _ in lines]
    if draw(st.booleans()):
        ends = ["\n"] * len(lines)  # keep many texts wholly plain
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def long_texts(draw):
    """year,value texts: increasing years with perhaps a few odd cells and lines."""
    header = draw(st.sampled_from(["year,value", "year,value", " Year ,v", "year", "x,y",
                                   '"year",value', "year,value\r", ""]))
    n = draw(st.integers(0, 12))
    years = sorted(draw(st.lists(st.integers(1, 2000), min_size=n, max_size=n, unique=True)))
    rows = [[str(t), repr(draw(st.floats(1e-3, 1e6)))] for t in years]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        draw(st.sampled_from(rows))[draw(st.integers(0, 1))] = draw(CELLS)
    quoting = draw(st.sampled_from(["none", "none", "all", "some", "comma", "doubled"]))
    for row in rows:
        if quoting != "none" and (quoting != "some" or draw(st.booleans())):
            row[:] = [f'"{cell}"' for cell in row]
    if rows and quoting in ("comma", "doubled"):  # a quoted cell holding a , or a ""
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, 1))
        row[i] = row[i][:-1] + (",5" if quoting == "comma" else '""') + '"'
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):  # blank lines and lines of 1-3 cells
        lines.insert(draw(st.integers(0, len(lines))), draw(st.one_of(
            st.sampled_from(["", " ", ",", " , "]),
            st.lists(CELLS, min_size=1, max_size=3).map(",".join),
        )))
    return header + "\n" + join_lines(draw, lines)


@st.composite
def wide_texts(draw):
    """Wide tables: increasing header years, rows of numbers with a few odd cells."""
    n_years = draw(st.integers(1, 8))
    years = sorted(draw(st.lists(st.integers(1, 2000), min_size=n_years, max_size=n_years,
                                 unique=True)))
    lines = ["Region," + ",".join(map(str, years))]
    for label in draw(st.lists(st.sampled_from(["A", "B", " C ", "", "D"]), max_size=4)):
        cells = draw(st.lists(st.one_of(NUMBERS, st.just("")), min_size=0,
                              max_size=n_years + 2))
        for _ in range(draw(st.integers(0, 2))):
            if cells:
                cells[draw(st.integers(0, len(cells) - 1))] = draw(CELLS)
        lines.append(",".join([label, *cells]))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " , ,"])))
    return join_lines(draw, lines)


class TestFastPathsMatchTheLoops:
    @settings(max_examples=400, deadline=None)
    @given(text=long_texts())
    def test_long(self, text):
        assert outcome(parse_long_csv, text, "s") == outcome(reference_long, text, "s")

    @settings(max_examples=400, deadline=None)
    @given(text=wide_texts())
    def test_wide(self, text):
        assert outcome(parse_wide_csv, text) == outcome(reference_wide, text)

    @pytest.mark.parametrize("body", [
        "1,2,3\n4\n",            # as many commas as lines, but not one on each
        "1,2\n3,4,5\n6\n",
        '1,0.5\n"1000","0.75"\n',
        "1,0.5\r\n\r\n1000,0.75\r\n",
        "1,0.5\n1000,0.75\n\n",  # a trailing blank line
        "1,0.5\n1000,0.75\r",
        "1,0.5\n" + BIG_CELL + ",5\n",
        "1,0.5\n",
        "",
        '"1","0.5"\r\n\r\n"1000","0.75"\r\n',  # fully quoted
        '"1","0.5"\n1000,0.75\n',              # partly quoted
        '"1,5","0.5"\n"1000","0.75"\n',        # a comma in quotes
        '"1""","0.5"\n"1000","0.75"\n',        # a doubled quote
        '"",""\n"1","0.5"\n"1000","0.75"\n',   # empty quoted cells: a blank row
        '","",""\n"1","0.5"\n',                # one cell ,"," in quotes
        '"1","0.5"\n"\n',                      # a lone quote
    ])
    def test_long_pinned(self, body):
        text = "year,value\n" + body
        assert outcome(parse_long_csv, text, "s") == outcome(reference_long, text, "s")

    @pytest.mark.parametrize("text, rows", [
        # a whitespace-only cell in a valid row parses as if blank
        ("Region,1500,1600,1700\nX,1, ,3\n", {"X": {1500.0: 1.0, 1700.0: 3.0}}),
        # finite cells whose sum overflows: parsed one by one, all three kept
        ("Region,1500,1600,1700\nX,1e308,1e308,5\n",
         {"X": {1500.0: 1e308, 1600.0: 1e308, 1700.0: 5.0}}),
        ("Region\nX\n", None),  # a one-column header
    ])
    def test_wide_pinned(self, text, rows):
        parsed = outcome(parse_wide_csv, text)
        assert parsed == outcome(reference_wide, text)
        if rows is None:
            assert parsed == (
                ParseError, "header must contain a label column and at least one year")
        else:
            assert parsed.rows == rows

    def test_misaligned_commas_name_their_line(self):
        with pytest.raises(ParseError, match=r"^line 3: expected numeric year,value$"):
            parse_long_csv("year,value\n1,2,3\n4\n", "s")
