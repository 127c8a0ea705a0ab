"""Table construction and rendering (markdown, CSV, JSON).

Every command's output is a list of Tables whose cells are exact integers
or plain strings; no floating point ever reaches a numeric cell.  CSV
output re-parses to the same tables, which the test suite exercises.
A row is a list or a tuple of cells.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from itertools import chain

from .core import DEFAULT_STEP_CAP, DescentTrace, descent_trace, total_stopping_time
from .patterns import ResidueClass, UnresolvedLeaves, feasibility_table
from .scanner import ScanReport, twin_walk

Cell = int | str

FORMATS = ("markdown", "csv", "json")


@dataclass
class Table:
    title: str
    columns: list[str]
    rows: list[Sequence[Cell]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# rendering


def _int_column(rows: list[Sequence[Cell]]) -> list[int] | None:
    """The cells of the rows if each row is one integer, else None.

    Such a cell is a CSV line of its digits alone: an integer never needs
    quoting, and a single cell needs no delimiter.
    """
    if set(map(len, rows)) <= {1}:
        cells = list(chain.from_iterable(rows))
        if set(map(type, cells)) <= {int}:
            return cells
    return None


def render_markdown(tables: list[Table]) -> str:
    parts: list[str] = []
    for t in tables:
        lines: list[str] = []
        if t.title:
            lines.append(f"**{t.title}**")
            lines.append("")
        lines.append("| " + " | ".join(t.columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in t.columns) + "|")
        lines.extend("| " + " | ".join(map(str, row)) + " |" for row in t.rows)
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def render_csv(tables: list[Table]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for idx, t in enumerate(tables):
        if idx:
            buf.write("\n")
        if t.title:
            buf.write(f"# {t.title}\n")
        writer.writerow(t.columns)
        column = _int_column(t.rows)
        if column is None:
            writer.writerows(t.rows)
        elif column:
            buf.write("\n".join(map(str, column)) + "\n")
    return buf.getvalue()


def _json_rows(rows: list[Sequence[Cell]]) -> str:
    """json.dumps(rows, indent=2), through the C encoder when every row has a cell.

    json.dumps runs its pure-Python encoder whenever it indents.  The
    compact encoding here separates items with a bare newline, which no
    encoded string holds (non-ASCII and control characters are escaped),
    and a cell never ends in "]" or starts with "[": so "]\\n[" parts two
    rows and every other newline parts two cells.
    """
    if not rows or not all(rows):
        return json.dumps(rows, indent=2)
    body = json.dumps(rows, separators=("\n", ": "))[2:-2]
    body = body.replace("]\n[", "\0").replace("\n", ",\n    ").replace("\0", "\n  ],\n  [\n    ")
    return "[\n  [\n    " + body + "\n  ]\n]"


def render_json(tables: list[Table]) -> str:
    """json.dumps of {"tables": [{"title", "columns", "rows"}, ...]} with indent=2, plus a newline."""

    def indented(text: str) -> str:  # a table's fields sit three levels deep
        return text.replace("\n", "\n      ")

    encoded = [
        '{\n      "title": %s,\n      "columns": %s,\n      "rows": %s\n    }'
        % (json.dumps(t.title), indented(json.dumps(t.columns, indent=2)), indented(_json_rows(t.rows)))
        for t in tables
    ]
    if not encoded:
        return '{\n  "tables": []\n}\n'
    return '{\n  "tables": [\n    ' + ",\n    ".join(encoded) + "\n  ]\n}\n"


def render(tables: list[Table], fmt: str) -> str:
    if fmt == "markdown":
        return render_markdown(tables)
    if fmt == "csv":
        return render_csv(tables)
    if fmt == "json":
        return render_json(tables)
    raise ValueError(f"unknown format {fmt!r}")


def parse_csv(text: str) -> list[Table]:
    """Inverse of render_csv, up to every cell coming back as a string."""
    tables: list[Table] = []
    for block in text.split("\n\n"):
        lines = [ln for ln in block.split("\n") if ln != ""]
        if not lines:
            continue
        title = ""
        if lines[0].startswith("# "):
            title = lines[0][2:]
            lines = lines[1:]
        rows = list(csv.reader(lines))
        tables.append(Table(title=title, columns=rows[0], rows=[list(r) for r in rows[1:]]))
    return tables


def paper_sci(x: int) -> str:
    """Spreadsheet-style rendering: at most 6 significant digits, comma decimal point.

    Values that fit comfortably are printed in full; big ones get rounded
    scientific notation like "1,50095E+17" for eyeballing against printed
    tables.  Only for the fidelity mode; default output is exact.
    """
    if x < 10**12:
        return str(x)
    mantissa, exp = f"{Decimal(x):.5E}".split("E")
    mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa.replace('.', ',')}E{exp}"


# ---------------------------------------------------------------------------
# table builders


def feasibility_report(max_length: int) -> list[Table]:
    t = Table(title="", columns=["E ops", "O ops", "Result", "Cycle length", "Remark"])
    for row in feasibility_table(max_length):
        t.rows.append([row.e_ops, row.o_ops, row.result, row.length, row.remark])
    return [t]


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
    if x == 0:
        subset = f"2^{j}*k" if j > 1 else "2*k"
    else:
        subset = f"2^{j}*k+{x}"
    return [text, len(text), i, j, 1 << j, x, m, y0, subset]


def classes_report(classes: list[ResidueClass]) -> list[Table]:
    t = Table(title="", columns=list(_CLASS_COLUMNS))
    t.rows = [_class_row(c.pattern.text, c.i, c.j, c.m, c.x, c.y0) for c in classes]
    return [t]


def classify_report(report: UnresolvedLeaves) -> list[Table]:
    """Summary, classes and unresolved residues, read straight off the walk's arrays.

    Each class is replayed once (UnresolvedLeaves.replayed_classes, which
    checks its pattern against i, j and y0 and fixes the row order) and
    becomes a row; no ResidueClass is built.
    """
    summary = Table(
        title="Classification summary",
        columns=["Depth", "Classes", "Resolved measure", "Unresolved residues"],
    )
    summary.rows.append(
        [
            report.depth,
            len(report.class_x),
            str(report.resolved_measure),
            len(report.residues),
        ]
    )
    rows = [_class_row(*c) for c in report.replayed_classes()]
    classes = Table(title="Classes", columns=list(_CLASS_COLUMNS), rows=rows)
    unresolved = Table(
        title=f"Unresolved residues mod 2^{report.depth}",
        columns=["Residue"],
        rows=list(zip(report.residues)),
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
    )
    summary.rows.append(
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
    )
    tables = [summary]
    if report.failures:
        ft = Table(title="Failures", columns=["n", "Reason"])
        ft.rows = [[n, reason] for n, reason in report.failures]
        tables.append(ft)
    return tables


def records_report(records: list[tuple[int, int]]) -> list[Table]:
    t = Table(title="", columns=["n", "Descent steps"])
    t.rows = [[n, steps] for n, steps in records]
    return [t]


def trace_descent_report(n: int, step_cap: int = DEFAULT_STEP_CAP) -> list[Table]:
    """Step table of n's first descent; the Value column shows the value before each step."""
    tr = descent_trace(n, step_cap=step_cap)
    t = Table(title="", columns=["Step", "Value", "Ops"])
    before = [n] + list(tr.values[:-1])
    for idx, ch in enumerate(tr.pattern.text):
        t.rows.append([idx + 1, before[idx], ch])
    t.rows.append(["", tr.first_lower, ""])
    return [t]


def trace_full_report(n: int, step_cap: int = DEFAULT_STEP_CAP) -> list[Table]:
    """Step table of the whole trajectory of n down to 1."""
    total = total_stopping_time(n, step_cap=step_cap)
    t = Table(title="", columns=["Step", "Value", "Ops"])
    v = n
    for step in range(1, total + 1):
        t.rows.append([step, v, "O" if v & 1 else "E"])
        v = 3 * v + 1 if v & 1 else v >> 1
    t.rows.append(["", v, ""])
    return [t]


def trace_twin_report(
    n: int, step_cap: int = DEFAULT_STEP_CAP, paper_style: bool = False, title: str = ""
) -> list[Table]:
    """Five-column descent table for n alongside its twin n + 2^j.

    The Adder value at the r-th O step is the exact contribution
    3^(O ops remaining) * 2^(E ops so far) that the step's "+1" makes to
    the class adder m; the per-step adders sum to m.  paper_style renders
    those cells in rounded spreadsheet notation instead of exact integers.
    """
    tr, twin_values = twin_walk(n, step_cap=step_cap)
    i, j = tr.pattern.i, tr.pattern.j
    fmt = paper_sci if paper_style else str
    t = Table(title=title, columns=["Step", "Value", "Ops", "Adder value", "Subsequent"])
    before = (n,) + tr.values
    twin_before = (n + (1 << j),) + twin_values
    a = b = 0
    adder_total = 0
    for idx, ch in enumerate(tr.pattern.text):
        if ch == "O":
            adder = 3 ** (i - a - 1) * (1 << b)
            adder_total += adder
            t.rows.append([idx + 1, before[idx], ch, fmt(adder), twin_before[idx]])
            a += 1
        else:
            t.rows.append([idx + 1, before[idx], ch, "", twin_before[idx]])
            b += 1
    t.rows.append(["", tr.first_lower, "", "", twin_values[-1]])
    t.rows.append(["Total", len(tr.pattern), "Adder", fmt(adder_total), ""])
    t.rows.append(["O steps", i, "", "", ""])
    t.rows.append(["E steps", j, "", "", ""])
    return [t]


def trace_report(
    n: int, mode: str, step_cap: int = DEFAULT_STEP_CAP, paper_style: bool = False
) -> list[Table]:
    if mode == "descent":
        return trace_descent_report(n, step_cap=step_cap)
    if mode == "full":
        return trace_full_report(n, step_cap=step_cap)
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
    t = Table(title=title, columns=columns)
    for idx, values in enumerate(zip(*[(tr.start,) + tr.values for tr in traces])):
        row: list[Cell] = list(values)
        if general is not None:
            row.append(general[idx])
        t.rows.append(row + steps[idx])
    return t


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
