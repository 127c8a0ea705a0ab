"""Table construction and rendering (markdown, CSV, JSON).

Every command's output is a list of Tables whose cells are exact integers
or plain strings; no floating point ever reaches a numeric cell.  CSV
output re-parses to the same tables, which the test suite exercises.
A row is a list or a tuple of cells.  A table's rows are a list, a tuple
or a Rows view, fixed when the Table is built.  A Rows view makes them
afresh on each iteration from the data it is built over:
classify_report's two big tables are such views, so their rows exist
only a chunk at a time.  write() formats CHUNK_ROWS rows at a time and
hands each chunk's text to the stream in one write, so the rendered
output never exists whole; render returns the same text as one string.
A CSV chunk is rendered by one format call, the same text csv.writer
writes, and goes to csv.writer only where the two could differ: a cell
to quote, a cell that is not an int or a str, or rows of unequal width.
"""

from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice, starmap

from .core import DEFAULT_STEP_CAP, DescentTrace, col_step, descent_trace, total_stopping_time
from .patterns import ResidueClass, UnresolvedLeaves, _Record, feasibility_table
from .scanner import ScanReport, twin_walk

# typing.TYPE_CHECKING without importing typing, which every start would pay for
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import TextIO

Cell = int | str

# Rows formatted per write.  On classify --depth 22, 256 or 4096 rows ran no
# faster, and 4096 peaked 2.7 MB higher; 1024 class rows are 213 kB of JSON.
CHUNK_ROWS = 1024


class Rows(_Record):
    """A sized, re-iterable view of `size` rows; each iteration calls make() afresh.

    size is an int; make takes no arguments and returns an iterable of rows.
    """

    __slots__ = _fields = ("size", "make")

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Sequence[Cell]]:
        return iter(self.make())


class Table(namedtuple("Table", "title columns rows")):
    """A titled table: its columns, and its rows as a list, a tuple or a Rows view."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# rendering


def _chunks(rows: Iterable[Sequence[Cell]]) -> Iterator[list[Sequence[Cell]]]:
    """The rows as lists of CHUNK_ROWS, the last one shorter; none for no rows."""
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        yield chunk


def _plain_csv(chunk: list[Sequence[Cell]]) -> str | None:
    """The chunk's CSV lines from one format call, or None where csv.writer's could differ.

    csv.writer writes an int or a str cell as its str(), and quotes one
    that holds a comma, a '"' or a line break, or that is a row's lone
    empty cell (other types differ too: None is written as "").  So when
    every row has the chunk's width w >= 1 and every cell is an int or a
    str, the cells' str()s joined by commas are its lines unless they hold
    a '"' or a '\r' (which csv quotes on some Python versions), more than
    w - 1 commas or one line break a row, or, at w = 1, an empty line.
    """
    width = len(chunk[0])
    if not width or set(map(len, chunk)) != {width}:
        return None
    cells = tuple(chain.from_iterable(chunk))
    if not {int, str}.issuperset(map(type, cells)):
        return None
    text = ("%s," * (width - 1) + "%s\n") * len(chunk) % cells
    if (
        '"' in text
        or "\r" in text
        or text.count(",") != (width - 1) * len(chunk)
        or text.count("\n") != len(chunk)
        or width == 1 and "\n\n" in "\n" + text
    ):
        return None
    return text


def _markdown(tables: list[Table]) -> Iterator[str]:
    for idx, t in enumerate(tables):
        head = "| " + " | ".join(t.columns) + " |\n|" + "|".join(" --- " for _ in t.columns) + "|\n"
        yield ("\n" if idx else "") + (f"**{t.title}**\n\n" if t.title else "") + head
        for chunk in _chunks(t.rows):
            yield "".join(["| " + " | ".join(map(str, row)) + " |\n" for row in chunk])
    if not tables:
        yield "\n"


def _csv(tables: list[Table]) -> Iterator[str]:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def written() -> str:
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    for idx, t in enumerate(tables):
        if idx:
            buf.write("\n")
        if t.title:
            buf.write(f"# {t.title}\n")
        writer.writerow(t.columns)
        yield written()
        for chunk in _chunks(t.rows):
            text = _plain_csv(chunk)
            if text is None:
                writer.writerows(chunk)
                text = written()
            yield text


def _json(tables: list[Table]) -> Iterator[str]:
    """json.dumps of {"tables": [{"title", "columns", "rows"}, ...]} with indent=2, plus a newline."""
    import json

    def rows_json(rows: list[Sequence[Cell]]) -> str:
        """json.dumps(rows, indent=2) less its brackets, indented to sit in a table.

        json.dumps runs its pure-Python encoder whenever it indents.  When
        every row has a cell, the compact encoding here goes through the C
        encoder instead.  It separates items with a bare newline, which no
        encoded string holds (non-ASCII and control characters are
        escaped), and a cell never ends in "]" or starts with "[": so
        "]\\n[" parts two rows and every other newline parts two cells.
        """
        if not all(rows):
            return "      " + json.dumps(rows, indent=2)[2:-2].replace("\n", "\n      ")
        body = json.dumps(rows, separators=("\n", ": "))[2:-2]
        body = body.replace("]\n[", "\0").replace("\n", ",\n          ")
        body = body.replace("\0", "\n        ],\n        [\n          ")
        return "        [\n          " + body + "\n        ]"

    if not tables:
        yield '{\n  "tables": []\n}\n'
        return
    for idx, t in enumerate(tables):
        columns = json.dumps(t.columns, indent=2).replace("\n", "\n      ")
        yield '%s{\n      "title": %s,\n      "columns": %s,\n      "rows": ' % (
            ",\n    " if idx else '{\n  "tables": [\n    ',
            json.dumps(t.title),
            columns,
        )
        opening = "[\n"
        for chunk in _chunks(t.rows):
            yield opening + rows_json(chunk)
            opening = ",\n"
        yield ("\n      ]" if t.rows else "[]") + "\n    }"
    yield "\n  ]\n}\n"


_FORMATTERS = {"markdown": _markdown, "csv": _csv, "json": _json}
FORMATS = tuple(_FORMATTERS)


def write(tables: list[Table], fmt: str, out: TextIO) -> None:
    """Write the tables to out in format fmt: one out.write per chunk of rows, and a few per table."""
    if fmt not in _FORMATTERS:
        raise ValueError(f"unknown format {fmt!r}")
    for text in _FORMATTERS[fmt](tables):
        out.write(text)


def render(tables: list[Table], fmt: str) -> str:
    """What write() writes, as one string."""
    buf = io.StringIO()
    write(tables, fmt, buf)
    return buf.getvalue()


def paper_sci(x: int) -> str:
    """Spreadsheet-style rendering: at most 6 significant digits, comma decimal point.

    Values that fit comfortably are printed in full; big ones get rounded
    scientific notation like "1,50095E+17" for eyeballing against printed
    tables.  Only for the fidelity mode; default output is exact.
    """
    if x < 10**12:
        return str(x)
    from decimal import Decimal

    mantissa, exp = f"{Decimal(x):.5E}".split("E")
    mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa.replace('.', ',')}E{exp}"


# ---------------------------------------------------------------------------
# table builders


def feasibility_report(max_length: int) -> list[Table]:
    columns = ["E ops", "O ops", "Result", "Cycle length", "Remark"]
    return [Table(title="", columns=columns, rows=feasibility_table(max_length))]


_CLASS_COLUMNS = [
    "Pattern",
    "Length",
    "O ops",
    "E ops",
    "Modulus",
    "Offset x",
    "Adder m",
    "First lower y0",
    "Subset",
]


def _class_row(text: str, i: int, j: int, m: int, x: int, y0: int) -> list[Cell]:
    """One row of _CLASS_COLUMNS for the class 2^j*k + x with pattern text."""
    # x is 0 only for the even class E, whose j is 1: every other pattern starts with O
    subset = f"2^{j}*k+{x}" if x else "2*k"
    return [text, len(text), i, j, 1 << j, x, m, y0, subset]


def classes_report(classes: list[ResidueClass]) -> list[Table]:
    rows = [_class_row(c.pattern.text, c.i, c.j, c.m, c.x, c.y0) for c in classes]
    return [Table(title="", columns=list(_CLASS_COLUMNS), rows=rows)]


def classify_report(report: UnresolvedLeaves) -> list[Table]:
    """Summary, classes and unresolved residues, read straight off the walk's arrays.

    Each class is replayed once, here (UnresolvedLeaves.replayed_classes,
    which checks its pattern against i, j and y0 and fixes the row order),
    so a failed check raises before any output.  The classes and residues
    tables are Rows views over the replayed tuples and the residue array:
    a row is made only as its chunk is written, and no ResidueClass is
    built.
    """
    summary = Table(
        title="Classification summary",
        columns=["Depth", "Classes", "Resolved measure", "Unresolved residues"],
        rows=[
            [
                report.depth,
                len(report.class_x),
                str(report.resolved_measure),
                len(report.residues),
            ]
        ],
    )
    replayed = report.replayed_classes()
    classes = Table(
        title="Classes",
        columns=list(_CLASS_COLUMNS),
        rows=Rows(len(replayed), lambda: starmap(_class_row, replayed)),
    )
    unresolved = Table(
        title=f"Unresolved residues mod 2^{report.depth}",
        columns=["Residue"],
        rows=Rows(len(report.residues), lambda: zip(report.residues)),
    )
    return [summary, classes, unresolved]


def scan_report_tables(report: ScanReport) -> list[Table]:
    summary = Table(
        title="Scan summary",
        columns=[
            "Lo",
            "Hi",
            "Depth",
            "Verified",
            "Skipped",
            "Failures",
            "Max descent steps",
            "At n",
            "Wall ms",
        ],
        rows=[
            [
                report.lo,
                report.hi,
                report.depth,
                report.verified_count,
                report.skipped_count,
                len(report.failures),
                report.max_descent_steps,
                "" if report.max_descent_n is None else report.max_descent_n,
                int((report.setup_time + report.wall_time) * 1000),
            ]
        ],
    )
    tables = [summary]
    if report.failures:
        tables.append(Table(title="Failures", columns=["n", "Reason"], rows=report.failures))
    return tables


def records_report(records: list[tuple[int, int]]) -> list[Table]:
    return [Table(title="", columns=["n", "Descent steps"], rows=records)]


def _step_table(n: int, steps: int) -> list[Table]:
    """Step table of the first `steps` Collatz steps from n.

    A row per step shows the value before it and the letter col_step
    gives it; a closing row shows the end.
    """
    rows: list[list[Cell]] = []
    v = n
    for step in range(1, steps + 1):
        after, letter = col_step(v)
        rows.append([step, v, letter])
        v = after
    rows.append(["", v, ""])
    return [Table(title="", columns=["Step", "Value", "Ops"], rows=rows)]


def trace_twin_report(
    n: int, step_cap: int = DEFAULT_STEP_CAP, paper_style: bool = False, title: str = ""
) -> list[Table]:
    """Five-column descent table for n alongside its twin n + 2^j.

    The Adder value at the r-th O step is the exact contribution
    3^(O ops remaining) * 2^(E ops so far) that the step's "+1" makes to
    the class adder m; the per-step adders sum to m.  paper_style renders
    those cells in rounded spreadsheet notation instead of exact integers.
    """
    tr, twin_path = twin_walk(n, step_cap=step_cap)
    i, j = tr.pattern.i, tr.pattern.j
    fmt = paper_sci if paper_style else str
    rows: list[list[Cell]] = []
    a = b = 0
    adder_total = 0
    for step, (v, ch, v2) in enumerate(zip((n,) + tr.values, tr.pattern.text, twin_path), 1):
        cell = ""
        if ch == "O":
            adder = 3 ** (i - a - 1) * (1 << b)
            adder_total += adder
            cell = fmt(adder)
            a += 1
        else:
            b += 1
        rows.append([step, v, ch, cell, v2])
    rows.append(["", tr.first_lower, "", "", twin_path[-1]])
    rows.append(["Total", len(tr.pattern), "Adder", fmt(adder_total), ""])
    rows.append(["O steps", i, "", "", ""])
    rows.append(["E steps", j, "", "", ""])
    columns = ["Step", "Value", "Ops", "Adder value", "Subsequent"]
    return [Table(title=title, columns=columns, rows=rows)]


TRACE_MODES = ("descent", "full", "twin")


def trace_report(
    n: int, mode: str, step_cap: int = DEFAULT_STEP_CAP, paper_style: bool = False
) -> list[Table]:
    if mode == "descent":
        return _step_table(n, len(descent_trace(n, step_cap=step_cap)))
    if mode == "full":
        return _step_table(n, total_stopping_time(n, step_cap=step_cap))
    if mode == "twin":
        return trace_twin_report(n, step_cap=step_cap, paper_style=paper_style)
    raise ValueError(f"unknown trace mode {mode!r}")


# ---------------------------------------------------------------------------
# named reproduction reports

REPORT_NAMES = ("cycle-length", "length6", "length8", "seq27")

# Step formulas as printed in the reference table for the length-6 class.
_LENGTH6_GENERAL = [
    "n",
    "(3n+1)",
    "(3n+1)/2",
    "3(3n+1)/2+1",
    "(3(3n+1)/2+1)/2",
    "(3(3n+1)/2+1)/4",
    "(3(3n+1)/2+1)/8",
]


def _members_trace_table(
    title: str,
    columns: list[str],
    traces: list[DescentTrace],
    general: list[str] | None = None,
) -> Table:
    """Side-by-side descents of class members, which must share one pattern."""
    text = traces[0].pattern.text
    if any(tr.pattern.text != text for tr in traces):
        raise AssertionError(f"members {[tr.start for tr in traces]} differ in pattern")
    steps = [[idx + 1, ch] for idx, ch in enumerate(text)] + [["", ""]]
    rows: list[list[Cell]] = []
    for idx, values in enumerate(zip(*[(tr.start,) + tr.values for tr in traces])):
        row: list[Cell] = list(values)
        if general is not None:
            row.append(general[idx])
        rows.append(row + steps[idx])
    return Table(title=title, columns=columns, rows=rows)


def named_report(name: str, step_cap: int = DEFAULT_STEP_CAP, paper_style: bool = False) -> list[Table]:
    if name == "cycle-length":
        return feasibility_report(37)
    def traces(members: list[int]) -> list[DescentTrace]:
        return [descent_trace(m, step_cap=step_cap) for m in members]

    if name == "length6":
        return [
            _members_trace_table(
                title="Selected sequences with length 6",
                columns=["N 1", "N 2", "N 3", "General", "Step", "Cycle"],
                traces=traces([3, 19, 163]),
                general=_LENGTH6_GENERAL,
            )
        ]
    if name == "length8":
        cols = ["Number 1", "Number 2", "Number 3", "Step", "Cycle"]
        return [
            _members_trace_table("Sequence 2^5*k+11", cols, traces([11, 43, 331])),
            _members_trace_table("Sequence 2^5*k+23", cols, traces([23, 55, 343])),
        ]
    if name == "seq27":
        return trace_twin_report(
            27,
            step_cap=step_cap,
            paper_style=paper_style,
            title="Sequence for 27 and subsequent number",
        )
    raise ValueError(f"unknown report {name!r}")
