"""Table builders and the three output formats."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from array import array

import pytest
from hypothesis import given, strategies as st

from collatz_descent import (
    descent_trace,
    enumerate_minimal_patterns,
    pattern_constants,
    patterns,
    sieve_scan,
)
from collatz_descent.reports import (
    CHUNK_ROWS,
    FORMATS,
    Table,
    _members_trace_table,
    classes_report,
    classify_report,
    feasibility_report,
    named_report,
    paper_sci,
    render,
    scan_report_tables,
    trace_report,
    write,
)
from collatz_descent.scanner import classify_depth

# table sizes around the chunk boundaries of the writer
CHUNK_SIZES = (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1)

# Trajectory column for the smallest length-16 class member, frozen from
# simulation (the reference table's rows 13-14 misprint 3280 and 1640).
FIRST_17_OF_575 = [
    575, 1726, 863, 2590, 1295, 3886, 1943, 5830, 2915,
    8746, 4373, 13120, 6560, 3280, 1640, 820, 410,
]


def parse_csv(text: str) -> list[Table]:
    """Inverse of render(tables, "csv"), up to every cell coming back as a string."""
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


def _csv_roundtrips(tables):
    text = render(tables, "csv")
    parsed = parse_csv(text)
    assert len(parsed) == len(tables)
    for orig, back in zip(tables, parsed):
        assert back.title == orig.title
        assert back.columns == orig.columns
        assert back.rows == [[str(c) for c in row] for row in orig.rows]


def test_feasibility_csv_roundtrip_and_exact_rows():
    tables = feasibility_report(37)
    assert len(tables[0].rows) == 25
    text = render(tables, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "E ops,O ops,Result,Cycle length,Remark"
    assert lines[4] == "4,2,7,6,Possible"
    _csv_roundtrips(tables)


def test_report_entry_points_reject_unknown_names():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        render(feasibility_report(8), "xml")
    with pytest.raises(ValueError, match="^unknown trace mode 'sideways'$"):
        trace_report(27, "sideways")
    with pytest.raises(ValueError, match="^unknown report 'nope'$"):
        named_report("nope")


def test_parse_csv_skips_blank_blocks():
    tables = feasibility_report(8) + named_report("length8")
    text = render(tables, "csv")
    assert parse_csv("\n\n\n" + text + "\n\n\n\n") == parse_csv(text)
    assert len(parse_csv(text)) == 3


def test_trace_full_575_matches_corrected_reference_column():
    (table,) = trace_report(575, "full")
    values = [row[1] for row in table.rows[:17]]
    assert values == FIRST_17_OF_575


def test_trace_descent_table_shape():
    (table,) = trace_report(4, "descent")
    assert table.columns == ["Step", "Value", "Ops"]
    assert table.rows == [[1, 4, "E"], ["", 2, ""]]


def test_twin_table_adders_sum_to_the_class_adder():
    (table,) = trace_report(27, "twin")
    step_rows = [r for r in table.rows if isinstance(r[0], int)]
    assert len(step_rows) == 96
    adders = [int(r[3]) for r in step_rows if r[2] == "O"]
    i, j, m = pattern_constants("".join(r[2] for r in step_rows))
    assert sum(adders) == m
    assert adders[0] == 3**36
    assert step_rows[0][4] == 576460752303423515
    landing = table.rows[96]
    assert landing[1] == 23 and landing[4] == 450283905890997386


def test_twin_table_of_an_even_start():
    (table,) = trace_report(4, "twin")
    assert table.rows[:2] == [[1, 4, "E", "", 6], ["", 2, "", "", 3]]
    assert table.rows[2:] == [
        ["Total", 1, "Adder", "0", ""],
        ["O steps", 0, "", "", ""],
        ["E steps", 1, "", "", ""],
    ]


def test_twin_table_paper_style_cells():
    (table,) = trace_report(27, "twin", paper_style=True)
    assert table.rows[0][3] == "1,50095E+17"
    assert table.rows[2][3] == "1,00063E+17"
    total_row = [r for r in table.rows if r[0] == "Total"][0]
    assert total_row[3] == "1,10093E+18"


def test_paper_sci_formatting():
    assert paper_sci(150094635296999121) == "1,50095E+17"
    assert paper_sci(88944969064888368) == "8,8945E+16"
    assert paper_sci(665) == "665"  # small values stay exact
    assert paper_sci(10**12) == "1E+12"


def test_report_length6_columns():
    (table,) = named_report("length6")
    assert table.columns == ["N 1", "N 2", "N 3", "General", "Step", "Cycle"]
    assert [r[0] for r in table.rows] == [3, 10, 5, 16, 8, 4, 2]
    assert [r[1] for r in table.rows] == [19, 58, 29, 88, 44, 22, 11]
    assert [r[2] for r in table.rows] == [163, 490, 245, 736, 368, 184, 92]
    assert table.rows[3][3] == "3(3n+1)/2+1"
    _csv_roundtrips([table])


def test_report_length8_tables():
    tables = named_report("length8")
    assert [t.title for t in tables] == ["Sequence 2^5*k+11", "Sequence 2^5*k+23"]
    first, second = tables
    assert [r[0] for r in first.rows] == [11, 34, 17, 52, 26, 13, 40, 20, 10]
    assert [r[2] for r in first.rows] == [331, 994, 497, 1492, 746, 373, 1120, 560, 280]
    assert [r[0] for r in second.rows] == [23, 70, 35, 106, 53, 160, 80, 40, 20]
    assert [r[1] for r in second.rows] == [55, 166, 83, 250, 125, 376, 188, 94, 47]
    _csv_roundtrips(tables)


def test_report_seq27_emits_all_96_consecutive_steps():
    (table,) = named_report("seq27")
    steps = [r[0] for r in table.rows if isinstance(r[0], int) and r[2] in ("O", "E")]
    assert steps == list(range(1, 97))  # no skipped step numbers


def test_classify_report_roundtrip_and_no_floats():
    tables = classify_report(classify_depth(5))
    for t in tables:
        for row in t.rows:
            assert all(isinstance(c, (int, str)) for c in row)
    _csv_roundtrips(tables)
    summary = tables[0]
    assert summary.rows[0][2] == "7/8"


def test_classify_report_builds_each_class_once(monkeypatch):
    # one replay per class and no ResidueClass: the rows come off the arrays
    built, replayed = [], []
    real = patterns.replay_class

    def counted(*args):
        replayed.append(args)
        return real(*args)

    monkeypatch.setattr(patterns, "_resolved_class", lambda *args: built.append(args))
    monkeypatch.setattr(patterns, "replay_class", counted)
    report = classify_depth(12)
    text = render(classify_report(report), "csv")
    assert built == []
    assert sorted(replayed) == sorted(
        zip(report.class_x, report.class_j, report.class_i, report.class_m)
    )
    assert text.count("\n") > len(replayed)


def _classify_report_from_objects(leaves):
    """classify_report as the ResidueClass objects build it, one list per residue."""
    summary = Table(
        title="Classification summary",
        columns=["Depth", "Classes", "Resolved measure", "Unresolved residues"],
        rows=[[leaves.depth, len(leaves.classes), str(leaves.resolved_measure), len(leaves.residues)]],
    )
    unresolved = Table(
        title=f"Unresolved residues mod 2^{leaves.depth}",
        columns=["Residue"],
        rows=[[r] for r in leaves.unresolved_residues],
    )
    [classes] = classes_report(list(leaves.classes))
    return [summary, classes._replace(title="Classes"), unresolved]


def test_classify_report_renders_as_the_object_route():
    for depth in range(1, 17):
        leaves = classify_depth(depth)
        tables = classify_report(leaves)
        old = _classify_report_from_objects(leaves)
        for fmt in FORMATS:
            assert render(tables, fmt) == render(old, fmt), (depth, fmt)


def test_classify_report_replays_against_the_class_adder():
    leaves = classify_depth(8)
    class_m = array("Q", leaves.class_m)
    # 2^5*k + 23 ends at y0 = 20: one higher, it still descends, but the replay lands at 20
    t = leaves.class_x.index(23)
    class_m[t] += 1 << leaves.class_j[t]
    with pytest.raises(AssertionError, match=r"replay of \d+ mod 2\^\d+ leaves its class"):
        classify_report(leaves._replace(class_m=class_m))


def test_outputs_keep_their_golden_digests():
    # the depth 22 tables in each format and two canonical scans at depth 22,
    # near 10^12 and 2^70: the walk, the replay and the scan kernel must keep them
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    tables = classify_report(classify_depth(22))
    assert {fmt: digest(render(tables, fmt)) for fmt in FORMATS} == {
        "csv": "963818cca7c26904b2e453ab74ed7e0c109e63d7ab955a21a1cc36da7427b729",
        "markdown": "451de519e4c5731f206a5d833f8cf688c0344390132ec3a1996f2709dbb8c6bb",
        "json": "df75c1ef50fdb29b3458c5ba45a55e8d44b57519e8c64f5899f48c39e81a63a6",
    }
    scans = [(10**12 + 12345, 10**12 + 2012345), (2**70 + 12345, 2**70 + 112345)]
    assert [digest(sieve_scan(lo, hi, 22).canonical_json()) for lo, hi in scans] == [
        "d63b1fc87425f4c8a5e5825c89cb0026b39223a113cfaca8ea43c14d6e6fd60b",
        "b8661256d8a853f795db1e38665419949b2a8bdf529b5301438e81a85a8826d9",
    ]

def test_render_keeps_csv_quoting_for_cells_that_are_not_one_integer():
    tables = [
        Table(title="a", columns=["n"], rows=[[1], ["x,y"], [2]]),
        Table(title="b", columns=["n"], rows=[[True], [3]]),
        Table(title="c", columns=["n"], rows=[[""]]),
        Table(title="d", columns=["n"], rows=[]),
        Table(title="e", columns=["n"], rows=[(4,), (5,)]),
    ]
    assert render(tables, "csv") == (
        '# a\nn\n1\n"x,y"\n2\n\n# b\nn\nTrue\n3\n\n# c\nn\n""\n\n# d\nn\n\n# e\nn\n4\n5\n'
    )
    assert render(tables[4:], "markdown") == "**e**\n\n| n |\n| --- |\n| 4 |\n| 5 |\n"
    _csv_roundtrips(tables[:2] + tables[4:])

    # each chunk is checked on its own: a chunk of integers stays plain even
    # when a later chunk holds a cell that needs quoting
    sized = [Table(title=f"{n} rows", columns=["n"], rows=list(zip(range(n)))) for n in CHUNK_SIZES]
    for t in sized[4:]:
        t.rows[CHUNK_ROWS + 1 : CHUNK_ROWS + 1] = [["x,y"], [True], [""], (7, 8)]
    pairs = [[n, "a,b"] for n in range(CHUNK_ROWS + 1)]
    sized.append(Table(title="two cells", columns=["n", "s"], rows=pairs))
    assert render(sized, "csv") == standard_csv(sized)
    _csv_roundtrips(sized)


def standard_csv(tables):
    """render(tables, "csv") through one csv.writer over each table's whole list of rows."""
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


# cells csv.writer writes otherwise than str(): None, text it quotes, and
# an empty cell alone in its row; each kind of text also comes up by itself
csv_cells = st.one_of(
    st.sampled_from(["", ",", '"', '""', "\r", "\n", "a\nb"]),
    st.text(alphabet='a0 ,"\r\n', max_size=4),
    st.integers(),
    st.booleans(),
    st.none(),
)


@st.composite
def long_csv_tables(draw):
    """A table of more than CHUNK_ROWS rows of plain cells, but for at most one row a chunk.

    A plain row is a row number and one drawn row of plain cells.  In each
    chunk, one row may get one cell from csv_cells among its plain cells,
    or be drawn whole from csv_cells, of any width: with one such row, the
    chunk's way to its text turns on that row alone.
    """
    plain = draw(st.lists(st.one_of(st.integers(), st.text(alphabet="ab 0-")), max_size=3))
    size = draw(st.integers(CHUNK_ROWS + 1, 3 * CHUNK_ROWS))
    rows = [[k, *plain] for k in range(size)]
    for start in range(0, size, CHUNK_ROWS):
        k = draw(st.integers(start, min(start + CHUNK_ROWS, size) - 1))
        at = draw(st.integers(0, len(plain)))
        one_cell = csv_cells.map(lambda cell, at=at: [*plain[:at], cell, *plain[at:]])
        rows[k] = draw(st.one_of(st.just(rows[k]), one_cell, st.lists(csv_cells, max_size=5)))
    columns = draw(st.lists(st.text(), max_size=3))
    return Table(title=draw(st.text(alphabet="ab ")), columns=columns, rows=rows)


@given(st.lists(long_csv_tables(), min_size=1, max_size=2))
def test_long_tables_render_as_one_csv_writer_writes_them(tables):
    assert render(tables, "csv") == standard_csv(tables)


def test_scan_report_tables_roundtrip():
    rep = sieve_scan(2, 500, 5)
    tables = scan_report_tables(rep)
    _csv_roundtrips(tables)
    for t in tables:
        for row in t.rows:
            assert not any(isinstance(c, float) for c in row)


def test_scan_failures_table_roundtrip():
    # 110 leftovers near 10^12 need more than 150 steps
    rep = sieve_scan(10**12, 10**12 + 300_000, 22, step_cap=150)
    assert len(rep.failures) == 110
    summary, failures = scan_report_tables(rep)
    assert failures.title == "Failures"
    assert [tuple(row) for row in failures.rows] == list(rep.failures)
    _csv_roundtrips([summary, failures])


def test_enumerate_report_roundtrip():
    tables = classes_report(enumerate_minimal_patterns(8))
    assert [r[5] for r in tables[0].rows] == [11, 23]
    _csv_roundtrips(tables)


def test_render_json_structure():
    tables = [Table(title="t", columns=["a", "b"], rows=[[1, "x"]])]
    payload = json.loads(render(tables, "json"))
    assert payload == {"tables": [{"title": "t", "columns": ["a", "b"], "rows": [[1, "x"]]}]}


def standard_json(tables):
    """render(tables, "json") through json.dumps with indent=2, its pure-Python encoder."""
    payload = {
        "tables": [
            {"title": t.title, "columns": t.columns, "rows": [list(r) for r in t.rows]} for t in tables
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


def _sized_json_tables(n):
    """A table of n rows, with a row of no cells in its second chunk when it has one."""
    rows = [[k, str(k)] for k in range(n)]
    if n > CHUNK_ROWS:
        rows[CHUNK_ROWS] = []
    return [
        Table(title=f"{n} rows", columns=["n", "s"], rows=rows),
        Table(title="after", columns=["n"], rows=[[n]]),
    ]


@pytest.mark.parametrize(
    "tables",
    [
        [],
        [Table(title="", columns=[], rows=[])],
        [Table(title="one cell", columns=["n"], rows=[[7]])],
        [Table(title="no cells", columns=["n"], rows=[[]])],
        [Table(title="no cells among others", columns=["n"], rows=[[], [1], [], [2, 3], []])],
        [
            Table(
                title='a "title", [with] \\ and \n é',
                columns=['"q"', "b\\s", "c,[]", "é ü 😀"],
                rows=[
                    ['"', "\\", ",", "[", "]", "],[", "a\nb", "é", "😀", "\x00\t"],
                    [True, False, None, 2**64, -(2**64) - 1, 3**100, 0],
                    ("a tuple", 1),
                ],
            ),
            Table(title="residues", columns=["Residue"], rows=list(zip(range(5)))),
        ],
        *map(_sized_json_tables, CHUNK_SIZES),
    ],
)
def test_render_json_is_the_indented_standard_encoding(tables):
    assert render(tables, "json") == standard_json(tables)


cells = st.one_of(st.integers(), st.text(), st.booleans())


@given(
    st.lists(
        st.builds(Table, st.text(), st.lists(st.text()), st.lists(st.lists(cells, max_size=4))),
        max_size=3,
    )
)
def test_random_tables_render_as_the_indented_standard_encoding(tables):
    assert render(tables, "json") == standard_json(tables)


def test_classify_json_is_the_indented_standard_encoding():
    tables = classify_report(classify_depth(12))
    assert render(tables, "json") == standard_json(tables)


class RecordingStream:
    """A text stream that keeps each string written to it."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


# the depth 20 tables render to 0.5-1.9 MB, the longest chunk of their rows
# (1024 classes as JSON) to 213 kB
MAX_WRITE = 1 << 18


@pytest.mark.parametrize("fmt", FORMATS)
def test_write_streams_a_chunk_at_a_time(fmt):
    tables = classify_report(classify_depth(20))
    rows = sum(len(t.rows) for t in tables)
    out = RecordingStream()
    write(tables, fmt, out)
    assert "".join(out.writes) == render(tables, fmt)
    assert len(out.writes) > 1
    # one write per chunk of rows and a few per table, never one per row
    assert len(out.writes) <= rows // CHUNK_ROWS + 3 * len(tables) + 1
    assert max(map(len, out.writes)) <= MAX_WRITE
    # the views write the same rows again
    again = RecordingStream()
    write(tables, fmt, again)
    assert again.writes == out.writes


def test_render_markdown_shape():
    text = render(feasibility_report(3), "markdown")
    lines = text.strip().split("\n")
    assert lines[0].startswith("| E ops | O ops |")
    assert lines[1].startswith("| ---")
    assert len(lines) == 4


def test_no_tables_render_as_an_empty_document():
    assert {fmt: render([], fmt) for fmt in FORMATS} == {
        "markdown": "\n",
        "csv": "",
        "json": '{\n  "tables": []\n}\n',
    }


def test_members_table_rejects_members_of_different_classes():
    with pytest.raises(AssertionError, match="differ in pattern"):
        traces = [descent_trace(11), descent_trace(23)]  # 2^5*k+11 and 2^5*k+23
        _members_trace_table("mixed", ["A", "B", "Step", "Cycle"], traces)
