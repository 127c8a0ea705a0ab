"""The package's record types: fields, equality, hashing, immutability and copies."""

from __future__ import annotations

import copy
import pickle

import pytest

from collatz_descent import (
    DescentPattern,
    ResidueClass,
    ScanReport,
    descent_trace,
    feasibility_table,
    residue_for_pattern,
    sieve_scan,
    twin_check,
    unresolved_leaves,
)
from collatz_descent.reports import Rows, Table


def _three_rows(a, b):
    """The flat cells of rows a to b - 1 of the rows (1,), (2,) and (3,)."""
    return (1, 2, 3)[a:b]


def _untimed_scan(lo):
    return sieve_scan(lo, lo + 999, 5)._replace(wall_time=0.0, setup_time=0.0)


# each frozen type: two builds of one value, and a build of another value
FROZEN = {
    "DescentPattern": (lambda: DescentPattern.parse("OEOEEOEE"), lambda: DescentPattern.parse("OEE")),
    "ResidueClass": (lambda: residue_for_pattern("OEOEEOEE"), lambda: residue_for_pattern("OEE")),
    "UnresolvedLeaves": (lambda: unresolved_leaves(6), lambda: unresolved_leaves(7)),
    "DescentTrace": (lambda: descent_trace(27), lambda: descent_trace(31)),
    "ScanReport": (lambda: _untimed_scan(2), lambda: _untimed_scan(3)),
    "TwinRecord": (lambda: twin_check(11), lambda: twin_check(27)),
    "FeasibilityRow": (lambda: feasibility_table(8)[4], lambda: feasibility_table(8)[3]),
    "Rows": (lambda: Rows(3, _three_rows), lambda: Rows(2, _three_rows)),
    # tuple columns and rows, so that it hashes
    "Table": (lambda: Table("t", ("n",), ((1,), (2,))), lambda: Table("t", ("n",), ((1,),))),
}


@pytest.mark.parametrize("name", FROZEN)
def test_equal_fields_compare_and_hash_equal(name):
    make, make_other = FROZEN[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != make_other()
    if name == "UnresolvedLeaves":
        # its fields are arrays, so it is unhashable, as it has always been
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", FROZEN)
def test_assigning_or_deleting_a_frozen_field_raises(name):
    value = FROZEN[name][0]()
    before = repr(value)
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("name", FROZEN)
def test_replace_with_no_changes_is_an_equal_copy(name):
    value = FROZEN[name][0]()
    assert value._replace() == value


@pytest.mark.parametrize("name", FROZEN)
def test_pickle_and_copy_give_back_an_equal_value(name):
    value = FROZEN[name][0]()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)


# the records whose fields the shared constructor binds
BOUND = ["UnresolvedLeaves", "Rows"]


@pytest.mark.parametrize("name", BOUND)
def test_fields_bind_by_position_by_keyword_and_mixed(name):
    value = FROZEN[name][0]()
    cls, fields, values = type(value), value._fields, value._values()
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    assert by_position == by_keyword == mixed == value


@pytest.mark.parametrize("name", BOUND)
@pytest.mark.parametrize(
    "case", ["missing", "missing-keyword", "unknown", "extra-position", "repeated"]
)
def test_a_missing_unknown_or_repeated_field_raises_type_error(name, case):
    value = FROZEN[name][0]()
    fields, values = value._fields, value._values()
    args, kwargs = {
        "missing": (values[:-1], {}),
        "missing-keyword": ((), dict(zip(fields[1:], values[1:]))),
        "unknown": (values, {"bogus": 1}),
        "extra-position": ((*values, 1), {}),
        "repeated": (values, {fields[0]: values[0]}),
    }[case]
    with pytest.raises(TypeError):
        type(value)(*args, **kwargs)


@pytest.mark.parametrize("name", BOUND)
def test_replacing_an_unknown_field_raises_type_error(name):
    with pytest.raises(TypeError):
        FROZEN[name][0]()._replace(bogus=1)


def test_records_keep_keyword_construction_and_repr():
    pattern = DescentPattern(text="OEE", i=1, j=2)
    assert repr(pattern) == "DescentPattern(text='OEE', i=1, j=2)"
    assert str(pattern) == "OEE" and len(pattern) == 3
    c = ResidueClass(pattern=pattern, i=1, j=2, m=1, x=1, modulus=4, y0=1)
    assert c == residue_for_pattern("OEE")
    assert repr(c) == f"ResidueClass(pattern={pattern!r}, i=1, j=2, m=1, x=1, modulus=4, y0=1)"
    report = ScanReport(
        lo=2,
        hi=100,
        depth=3,
        verified_count=25,
        skipped_count=74,
        failures=(),
        max_descent_steps=96,
        max_descent_n=27,
        wall_time=0.0,
        setup_time=0.0,
    )
    assert report == sieve_scan(2, 100, 3)._replace(wall_time=0.0, setup_time=0.0)
    assert repr(report).startswith("ScanReport(lo=2, hi=100, depth=3, verified_count=25, ")
    assert repr(unresolved_leaves(1)) == (
        "UnresolvedLeaves(depth=1, residues=array('Q', [1]), o_counts=b'\\x01', "
        "ends=array('Q', [2]), class_x=array('Q', [0]), class_j=b'\\x01', "
        "class_i=b'\\x00', class_m=array('Q', [0]))"
    )
    assert repr(Rows(size=2, cells=max)) == "Rows(size=2, cells=<built-in function max>)"
    assert repr(Table(title="t", columns=["n"], rows=[])) == "Table(title='t', columns=['n'], rows=[])"


def test_sized_records_measure_what_they_hold():
    tr = descent_trace(27)
    assert len(tr) == len(tr.values) == len(tr.pattern) == 96
    rows = Rows(3, _three_rows)
    assert len(rows) == 3
    assert list(rows) == list(rows) == [(1,), (2,), (3,)]


def test_leaves_give_equal_classes_on_each_read_and_on_copies():
    leaves = unresolved_leaves(8)
    classes = leaves.classes
    assert classes and leaves.classes == classes
    assert leaves._replace().classes == classes


def test_table_is_frozen_and_unhashable_with_list_rows():
    t = Table("t", ["n"], [[1]])
    with pytest.raises(AttributeError):
        t.rows = [[2]]
    assert t == Table(title="t", columns=["n"], rows=[[1]])
    with pytest.raises(TypeError):
        hash(t)
