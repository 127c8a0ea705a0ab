"""Table construction and rendering (markdown, CSV, JSON).

Every command's output is a list of Tables whose cells are exact integers
or plain strings; no floating point ever reaches a numeric cell.  CSV
output re-parses to the same tables, which the test suite exercises.

Chunked rendering.  A table's rows are a list or a tuple of rows, or a
Rows view, which hands over a chunk of rows as one flat tuple of cells,
as classify_report's class and residue tables do.  Every format renders
one kind of chunk, a row count and the flat cells of at most CHUNK_ROWS
rows of one width, with one format call; rows in a list or a tuple are
cut where their width changes.  write() hands each chunk's text to the
stream in one write, so the output never exists whole.

The CSV fast path.  csv.writer writes an int or a str cell as its str(),
and quotes one that holds a comma, a '"' or a line break, or that is a
row's lone empty cell (other types differ too: None is written as "").
So when a chunk's rows have a width w >= 1 and every cell is an int or a
str, the cells' str()s joined by commas are its lines unless they hold a
'"' or a carriage return (which csv quotes on some Python versions), more
than w - 1 commas or one line break a row, or, at w = 1, an empty line.
Only a chunk that fails that test goes to csv.writer and imports csv.

The JSON fast path.  The output is what json.dumps(..., indent=2)
prints, but json.dumps runs its pure-Python encoder whenever it indents.
So each chunk's flat cells are encoded in one compact call of the C
encoder, with a bare newline as the item separator.  No encoded cell
holds one (non-ASCII and control characters are escaped), so the lines
are the cells, and one format call sets them in indented rows.
"""

from __future__ import annotations

import io
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, groupby, islice, starmap
from math import gcd

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
    """A sized, re-iterable view of `size` rows of one width, handed over as flat cells.

    size is an int; cells(a, b) returns the cells of rows a to b - 1 as one
    flat tuple, row after row.  Iterating the view yields its rows as
    tuples, made afresh.
    """

    __slots__ = _fields = ("size", "cells")

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Sequence[Cell]]:
        return chain.from_iterable(starmap(_rows, _chunks(self)))


class Table(namedtuple("Table", "title columns rows")):
    """A titled table: its columns, and its rows as a list, a tuple or a Rows view."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# rendering


def _rows(n: int, cells: tuple[Cell, ...]) -> list[tuple[Cell, ...]]:
    """The n rows of one width whose flat cells are `cells`, as tuples."""
    w = len(cells) // n
    return [cells[k : k + w] for k in range(0, len(cells), w)] if w else [()] * n


def _chunks(rows: Iterable[Sequence[Cell]]) -> Iterator[tuple[int, tuple[Cell, ...]]]:
    """The rows as chunks (see the module docstring): a row count, and the rows' cells in one flat tuple."""
    if isinstance(rows, Rows):
        for a in range(0, rows.size, CHUNK_ROWS):
            b = min(a + CHUNK_ROWS, rows.size)
            yield b - a, rows.cells(a, b)
    else:
        for _, run in groupby(rows, len):
            while chunk := list(islice(run, CHUNK_ROWS)):
                yield len(chunk), tuple(chain.from_iterable(chunk))


def _plain_csv(n: int, cells: tuple[Cell, ...]) -> str | None:
    """The chunk's CSV lines from one format call, or None where csv.writer's could differ (the CSV fast path)."""
    width = len(cells) // n
    if not width or not {int, str}.issuperset(map(type, cells)):
        return None
    text = ("%s," * (width - 1) + "%s\n") * n % cells
    if (
        '"' in text
        or "\r" in text
        or text.count(",") != (width - 1) * n
        or text.count("\n") != n
        or width == 1 and "\n\n" in "\n" + text
    ):
        return None
    return text


def _markdown(tables: list[Table]) -> Iterator[str]:
    for idx, t in enumerate(tables):
        head = "| " + " | ".join(t.columns) + " |\n|" + "|".join(" --- " for _ in t.columns) + "|\n"
        yield ("\n" if idx else "") + (f"**{t.title}**\n\n" if t.title else "") + head
        for n, cells in _chunks(t.rows):
            yield ("| " + " | ".join(["%s"] * (len(cells) // n)) + " |\n") * n % cells
    if not tables:
        yield "\n"


def _written_csv(n: int, cells: tuple[Cell, ...]) -> str:
    """The chunk's CSV lines as csv.writer writes them; only such a chunk imports csv."""
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_rows(n, cells))
    return buf.getvalue()


def _csv(tables: list[Table]) -> Iterator[str]:
    for idx, t in enumerate(tables):
        # the header row is one more chunk, written with the title
        prefix = ("\n" if idx else "") + (f"# {t.title}\n" if t.title else "")
        for n, cells in chain([(1, tuple(t.columns))], _chunks(t.rows)):
            yield prefix + (_plain_csv(n, cells) or _written_csv(n, cells))
            prefix = ""


def _json(tables: list[Table]) -> Iterator[str]:
    """json.dumps of {"tables": [{"title", "columns", "rows"}, ...]} with indent=2, plus a newline."""
    import json

    def rows_json(n: int, cells: tuple[Cell, ...]) -> str:
        """json.dumps of the chunk's rows with indent=2, less its brackets, indented to sit in a table.

        This is the JSON fast path of the module docstring.
        """
        w = len(cells) // n
        row = "        [\n          %s\n        ]" % ",\n          ".join(["%s"] * w) if w else "        []"
        return ",\n".join([row] * n) % tuple(json.dumps(cells, separators=("\n", ": "))[1:-1].splitlines())

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
            yield opening + rows_json(*chunk)
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


def _class_rows(texts: Sequence[str], y0, i, j, m, x) -> Rows:
    """The rows of _CLASS_COLUMNS for the classes 2^j*k + x, from one sequence per field."""

    def cells(a: int, b: int) -> tuple[Cell, ...]:
        t, js, xs = texts[a:b], j[a:b], x[a:b]
        # x is 0 only for the even class E, whose j is 1: every other pattern starts with O
        subsets = [f"2^{k}*k+{v}" if v else "2*k" for k, v in zip(js, xs)]
        columns = t, map(len, t), i[a:b], js, [1 << k for k in js], xs, m[a:b], y0[a:b], subsets
        return tuple(chain.from_iterable(zip(*columns)))

    return Rows(len(texts), cells)


def classes_report(classes: list[ResidueClass]) -> list[Table]:
    fields = ([getattr(c, name) for c in classes] for name in ("y0", "i", "j", "m", "x"))
    rows = _class_rows([c.pattern.text for c in classes], *fields)
    return [Table(title="", columns=list(_CLASS_COLUMNS), rows=rows)]


def classify_report(report: UnresolvedLeaves) -> list[Table]:
    """Summary, classes and unresolved residues mod 2^report.depth.

    The classes are replayed once, before any output (UnresolvedLeaves.replay).
    The classes and residues tables are Rows views over the replay and the
    walk's arrays: no ResidueClass, row or array of the printed level is
    built.  The measure cell is str(resolved_measure), reduced with
    math.gcd, which spares the fractions import.
    """
    residues, depth, walk, n = report.residues, report.depth, report.leaf_depth, len(report.residues)
    count, size, high = n << (depth - walk), 1 << depth, 1 << walk
    g = gcd(size - count, size)
    measure = f"{(size - count) // g}/{size // g}".removesuffix("/1")
    summary = Table(
        title="Classification summary",
        columns=["Depth", "Classes", "Resolved measure", "Unresolved residues"],
        rows=[[depth, len(report.class_x), measure, count]],
    )
    classes = Table(
        title="Classes",
        columns=list(_CLASS_COLUMNS),
        rows=_class_rows(*report.replay(), report.class_i, report.class_j, report.class_m, report.class_x),
    )

    def residue_cells(a: int, b: int) -> tuple[int, ...]:
        # rows n to count - 1, at depth W + 1 alone, are the leaves' r + 2^W
        return (*residues[a:b], *map(high.__or__, residues[max(a - n, 0) : max(b - n, 0)]))

    unresolved = Table(
        title=f"Unresolved residues mod 2^{depth}", columns=["Residue"], rows=Rows(count, residue_cells)
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
