"""Table construction and rendering (markdown, CSV, JSON).

Every command's output is a list of Tables whose cells are exact integers
or plain strings; no floating point ever reaches a numeric cell.  CSV
output re-parses to the same tables, which the test suite exercises.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from decimal import Decimal

from .core import DEFAULT_STEP_CAP, descent_trace, total_stopping_time
from .patterns import ResidueClass, feasibility_table
from .scanner import ClassificationReport, ScanReport

Cell = int | str

FORMATS = ("markdown", "csv", "json")


@dataclass
class Table:
    title: str
    columns: list[str]
    rows: list[list[Cell]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# rendering


def render_markdown(tables: list[Table]) -> str:
    parts: list[str] = []
    for t in tables:
        lines: list[str] = []
        if t.title:
            lines.append(f"**{t.title}**")
            lines.append("")
        lines.append("| " + " | ".join(t.columns) + " |")
        lines.append("|" + "|".join(" --- " for _ in t.columns) + "|")
        for row in t.rows:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
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
        writer.writerows(t.rows)
    return buf.getvalue()


def render_json(tables: list[Table]) -> str:
    payload = {
        "tables": [
            {"title": t.title, "columns": t.columns, "rows": t.rows} for t in tables
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


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


def _subset_text(c: ResidueClass) -> str:
    if c.x == 0:
        return f"2^{c.j}*k" if c.j > 1 else "2*k"
    return f"2^{c.j}*k+{c.x}"


def classes_report(classes: list[ResidueClass], title: str = "") -> list[Table]:
    t = Table(title=title, columns=list(_CLASS_COLUMNS))
    for c in classes:
        t.rows.append(
            [c.pattern.text, len(c.pattern), c.i, c.j, c.modulus, c.x, c.m, c.y0, _subset_text(c)]
        )
    return [t]


def classify_report(report: ClassificationReport) -> list[Table]:
    summary = Table(
        title="Classification summary",
        columns=["Depth", "Classes", "Resolved measure", "Unresolved residues"],
    )
    summary.rows.append(
        [
            report.depth,
            len(report.classes),
            str(report.resolved_measure),
            len(report.unresolved_residues),
        ]
    )
    classes = classes_report(list(report.classes), title="Classes")[0]
    unresolved = Table(
        title=f"Unresolved residues mod 2^{report.depth}",
        columns=["Residue"],
        rows=[[r] for r in report.unresolved_residues],
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
    tr = descent_trace(n, step_cap=step_cap)
    i, j = tr.pattern.i, tr.pattern.j
    twin = n + (1 << j)
    fmt = paper_sci if paper_style else str
    t = Table(title=title, columns=["Step", "Value", "Ops", "Adder value", "Subsequent"])
    v, v2 = n, twin
    a = b = 0
    adder_total = 0
    for idx, ch in enumerate(tr.pattern.text):
        if ch == "O":
            adder = 3 ** (i - a - 1) * (1 << b)
            adder_total += adder
            t.rows.append([idx + 1, v, ch, fmt(adder), v2])
            v, v2 = 3 * v + 1, 3 * v2 + 1
            a += 1
        else:
            t.rows.append([idx + 1, v, ch, "", v2])
            v, v2 = v >> 1, v2 >> 1
            b += 1
    t.rows.append(["", v, "", "", v2])
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
    members: list[int],
    pattern_text: str,
    general: list[str] | None = None,
) -> Table:
    t = Table(title=title, columns=columns)
    values = {m: m for m in members}
    for idx in range(len(pattern_text) + 1):
        row: list[Cell] = [values[m] for m in members]
        if general is not None:
            row.append(general[idx])
        if idx < len(pattern_text):
            ch = pattern_text[idx]
            row.extend([idx + 1, ch])
            for m in members:
                v = values[m]
                values[m] = 3 * v + 1 if ch == "O" else v >> 1
        else:
            row.extend(["", ""])
        t.rows.append(row)
    return t


def named_report(name: str, step_cap: int = DEFAULT_STEP_CAP, paper_style: bool = False) -> list[Table]:
    if name == "cycle-length":
        return feasibility_report(37)
    if name == "length6":
        return [
            _members_trace_table(
                title="Selected sequences with length 6",
                columns=["N 1", "N 2", "N 3", "General", "Step", "Cycle"],
                members=[3, 19, 163],
                pattern_text="OEOEEE",
                general=_LENGTH6_GENERAL,
            )
        ]
    if name == "length8":
        cols = ["Number 1", "Number 2", "Number 3", "Step", "Cycle"]
        return [
            _members_trace_table("Sequence 2^5*k+11", cols, [11, 43, 331], "OEOEEOEE"),
            _members_trace_table("Sequence 2^5*k+23", cols, [23, 55, 343], "OEOEOEEE"),
        ]
    if name == "seq27":
        return trace_twin_report(
            27,
            step_cap=step_cap,
            paper_style=paper_style,
            title="Sequence for 27 and subsequent number",
        )
    raise ValueError(f"unknown report {name!r}")
