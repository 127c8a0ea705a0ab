"""Pattern algebra: feasibility, affine constants, residue solving, enumeration."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collatz_descent import (
    DepthTooLarge,
    DescentPattern,
    NotADescent,
    UnrealizablePattern,
    alternating_family,
    descent_trace,
    enumerate_minimal_patterns,
    feasibility_margin,
    feasibility_table,
    first_lower_value,
    iter_minimal_pattern_texts,
    pattern_constants,
    residue_for_pattern,
    subsequent_lower_value,
    unresolved_leaves,
)
from collatz_descent import patterns
from collatz_descent.core import col_step
from collatz_descent.scanner import classify_depth
from dense_reference import dense_classification, replay_reference

# The full reference feasibility table up to length 37, frozen row by row.
EXPECTED_FEASIBILITY_37 = [
    (1, 0, 1, 1, "Even number"),
    (2, 1, 1, 3, "Shortest cycle"),
    (3, 2, -1, 5, "Not possible"),
    (4, 2, 7, 6, "Possible"),
    (4, 3, -11, 7, "Not possible"),
    (5, 3, 5, 8, "Possible"),
    (5, 4, -49, 9, "Not possible"),
    (6, 4, -17, 10, "Not possible"),
    (7, 4, 47, 11, "Possible"),
    (8, 5, 13, 13, "Possible"),
    (9, 6, -217, 15, "Not possible"),
    (10, 6, 295, 16, "Possible"),
    (11, 7, -139, 18, "Not possible"),
    (12, 7, 1909, 19, "Possible"),
    (13, 8, 1631, 21, "Possible"),
    (14, 9, -3299, 23, "Not possible"),
    (15, 9, 13085, 24, "Possible"),
    (16, 10, 6487, 26, "Possible"),
    (17, 11, -46075, 28, "Not possible"),
    (18, 11, 84997, 29, "Possible"),
    (19, 12, -7153, 31, "Not possible"),
    (20, 12, 517135, 32, "Possible"),
    (21, 13, 502829, 34, "Possible"),
    (22, 14, -588665, 36, "Not possible"),
    (23, 14, 3605639, 37, "Possible"),
]


def valid_patterns(max_blocks=8, max_trailing=6):
    """Strategy for structurally valid patterns: O-blocks each followed by E runs."""
    return st.lists(
        st.integers(min_value=1, max_value=max_trailing), min_size=1, max_size=max_blocks
    ).map(lambda runs: "".join("O" + "E" * r for r in runs))


def test_feasibility_margin_examples():
    assert feasibility_margin(2, 4) == 7
    assert feasibility_margin(14, 23) == 3605639
    assert feasibility_margin(0, 1) == 1
    with pytest.raises(ValueError):
        feasibility_margin(-1, 2)


def test_feasibility_table_reproduces_all_25_rows():
    rows = [tuple(r) for r in feasibility_table(37)]
    assert rows == EXPECTED_FEASIBILITY_37


def test_feasibility_table_truncations():
    assert [tuple(r) for r in feasibility_table(1)] == [(1, 0, 1, 1, "Even number")]
    assert [r.length for r in feasibility_table(3)] == [1, 3]
    assert (3, 2, -1, 5, "Not possible") in [tuple(r) for r in feasibility_table(5)]
    rows8 = feasibility_table(8)
    assert len(rows8) == 6
    assert tuple(rows8[-1]) == (5, 3, 5, 8, "Possible")


def test_feasibility_table_is_one_table_truncated_in_length_order():
    full = feasibility_table(399)
    for m in range(1, 399):
        rows = feasibility_table(m)
        assert rows == [r for r in full if r.length <= m]
        assert all(a.length <= b.length for a, b in zip(rows, rows[1:]))


def test_pattern_constants_examples():
    assert pattern_constants("OEE") == (1, 2, 1)
    assert pattern_constants("OE" * 6 + "E" * 4) == (6, 10, 665)
    assert pattern_constants("OEOEEE") == (2, 4, 5)
    assert pattern_constants("OEOEEOEE") == (3, 5, 23)


@settings(max_examples=200)
@given(valid_patterns(), st.integers(min_value=0, max_value=10**9))
def test_pattern_constants_match_a_rational_fold(text, n):
    # independent oracle: push an exact rational through the raw steps
    i, j, m = pattern_constants(text)
    v = Fraction(n)
    for ch in text:
        v = 3 * v + 1 if ch == "O" else v / 2
    assert v == Fraction(3**i * n + m, 2**j)


def test_pattern_parse_rejects_garbage():
    with pytest.raises(ValueError):
        DescentPattern.parse("")
    with pytest.raises(ValueError):
        DescentPattern.parse("XYZ")
    with pytest.raises(UnrealizablePattern):
        DescentPattern.parse("OOE")
    with pytest.raises(UnrealizablePattern):
        DescentPattern.parse("OEO")
    with pytest.raises(UnrealizablePattern):
        DescentPattern.parse("EE")


def test_residue_examples():
    c = residue_for_pattern("OEE")
    assert (c.x, c.modulus, c.m, c.y0) == (1, 4, 1, 1)
    c = residue_for_pattern("OEOEEE")
    assert (c.x, c.modulus) == (3, 16)
    c = residue_for_pattern("OEOEOEEE")
    assert (c.x, c.modulus) == (23, 32)
    c = residue_for_pattern("OE" * 6 + "E" * 4)
    assert (c.x, c.modulus, c.y0) == (575, 1024, 410)


def test_residue_rejects_non_descents():
    with pytest.raises(NotADescent):
        residue_for_pattern("OE")
    with pytest.raises(NotADescent):
        residue_for_pattern("OEOE")


def test_residue_rejects_a_class_whose_smallest_member_does_not_descend():
    # 2^8 > 3^5, so the class's large members descend, but 25 ends at 26
    with pytest.raises(NotADescent, match=r"^'OEEOEOEEEOEOE': smallest member 25 ends at 26 >= 25$"):
        residue_for_pattern("OEEOEOEEEOEOE")


def test_solver_refuses_a_replay_that_traces_another_word(monkeypatch):
    real = patterns.replay_class

    def reversed_word(*args):
        text, *rest = real(*args)
        return (text[::-1], *rest)

    monkeypatch.setattr(patterns, "replay_class", reversed_word)
    with pytest.raises(UnrealizablePattern) as exc:
        residue_for_pattern("OEOEEOEE")
    assert str(exc.value) == "'OEOEEOEE': residue 11 mod 2^5 traces 'EEOEEOEO'"


def test_table_replay_equals_the_one_halving_replay_on_the_walk():
    # the walk to 18 halvings prunes every class with j <= 18, the E class included
    leaves = unresolved_leaves(18)
    count = 0
    for x, j, i, m in zip(leaves.class_x, leaves.class_j, leaves.class_i, leaves.class_m):
        expected = replay_reference(x, j)
        _, ref_i, _, ref_m, _, y0 = expected
        assert (ref_i, ref_m, y0) == (i, m, (3**i * x + m) >> j), (x, j)
        assert patterns.replay_class(x, j, i, m) == expected, (x, j)
        count += 1
    assert count == len(leaves.class_x) > 1000


def test_table_replay_equals_the_one_halving_replay_on_random_residues():
    # every j from 1 to 60: each number 0-7 of leading halvings, and up to
    # seven lookups of 8; the reference's own i and m make y0 exact
    rng = random.Random(20231)
    for j in range(1, 61):
        for x in [0, (1 << j) - 1] + [rng.randrange(1 << j) for _ in range(40)]:
            expected = replay_reference(x, j)
            _, i, _, m, _, _ = expected
            assert patterns.replay_class(x, j, i, m) == expected, (x, j)


@pytest.mark.parametrize("level, field", [(8, 2), (5, 0)])
def test_a_corrupted_halving_word_fails_the_replay_check(monkeypatch, level, field):
    # 2^13*k + x replays 5 leading halvings and then one word of 8
    c = next(c for c in enumerate_minimal_patterns(21) if c.j == 13)
    x, v = c.x, replay_reference(c.x, 5)[5]
    index = (x if level == 5 else v) & ((1 << level) - 1)
    words = [list(level_words) for level_words in patterns._HALVING_WORDS]
    entry = list(words[level][index])
    entry[field] = entry[field] + 1 if field else entry[field][1:]
    words[level][index] = tuple(entry)
    monkeypatch.setattr(patterns, "_HALVING_WORDS", words)
    with pytest.raises(AssertionError) as exc:
        patterns.replay_class(c.x, c.j, c.i, c.m)
    assert str(exc.value) == f"replay of {x} mod 2^13 leaves its class"


def test_even_class_convention():
    c = residue_for_pattern("E")
    assert (c.x, c.modulus, c.y0, c.m, c.i, c.j) == (0, 2, 0, 0, 0, 1)


def _replay(n, text):
    """n's value after tracing text step by step with col_step, or None if n leaves it."""
    v = n
    for ch in text:
        v, kind = col_step(v)
        if kind != ch:
            return None
    return v


def _lifted_residue(text):
    """The residue mod 2^j whose members trace text, lifted one halving at a time.

    Both lifts x and x + 2^b of a residue tracing the first b halvings trace
    them too, and their values then differ by an odd number, so exactly one
    traces the next halving.  Each lift r < 2^(b+1) is replayed through its
    member r + 2^(b+1), since col_step starts at 1.
    """
    x = b = 0
    for cut, ch in enumerate(text, 1):
        if ch == "E":
            lifts = [r for r in (x, x + (1 << b)) if _replay(r + (2 << b), text[:cut]) is not None]
            assert len(lifts) == 1, text
            x = lifts[0]
            b += 1
    return x


def _brute_force_residues(text):
    """Every residue mod 2^j whose member in [2^j, 2^(j+1)) traces text."""
    j = text.count("E")
    return [n - (1 << j) for n in range(1 << j, 2 << j) if _replay(n, text) is not None]


@settings(max_examples=200)
@given(valid_patterns())
def test_solved_residue_is_the_one_residue_tracing_the_pattern(text):
    # oracles on col_step alone: the lifted residue, and brute force for j <= 10
    i, j, m = pattern_constants(text)
    x = _lifted_residue(text)
    if j <= 10:
        assert _brute_force_residues(text) == [x]
    y0 = _replay(x, text)
    if feasibility_margin(i, j) <= 0 or (x >= 2 and y0 >= x):
        with pytest.raises(NotADescent):
            residue_for_pattern(text)
        return
    c = residue_for_pattern(text)
    assert (c.pattern.text, c.i, c.j, c.m, c.modulus) == (text, i, j, m, 1 << j)
    assert (c.x, c.y0) == (x, y0)
    assert (3**c.i * c.x + c.m) % c.modulus == 0
    assert c.x % 2 == 1  # odd-start patterns pin odd residues


def test_solved_class_replays_every_minimal_pattern_to_j20():
    # col_step replays the solved x through the word and lands on y0
    count = 0
    for text in iter_minimal_pattern_texts(max_j=20):
        c = residue_for_pattern(text)
        j = text.count("E")
        assert c.modulus == 1 << j and 0 <= c.x < c.modulus, text
        k = 1 if c.x == 0 else 0  # col_step starts at 1: the even class replays member 2
        assert _replay(c.member(k), text) == c.y0 + k * 3**c.i, text
        if j <= 10:
            assert _brute_force_residues(text) == [c.x], text
        count += 1
    assert count == 4404


def _replayed_pattern(x, j):
    """The parity word of x's own first j halvings, step by step."""
    if x == 0:
        return "E"
    word, v = "", x
    while word.count("E") < j:
        v, kind = col_step(v)
        word += kind
    return word


def test_leaves_match_the_dense_classification():
    # the walk against the enumerate-solve-table route it replaced
    for depth in range(1, 21):
        leaves = unresolved_leaves(depth)
        report = classify_depth(depth)
        expected = dense_classification(depth)
        assert report.depth == expected.depth
        assert report.classes == expected.classes, depth
        assert report.resolved_measure == expected.resolved_measure, depth
        assert report.unresolved_residues == expected.unresolved_residues, depth
        assert tuple(leaves.residues) == expected.unresolved_residues
        assert len(leaves.class_x) == len(expected.classes)
        assert len(leaves.o_counts) == len(leaves.ends) == len(leaves.residues)
        assert len(leaves.class_j) == len(leaves.class_i) == len(leaves.class_m) == len(leaves.class_x)
        if depth > 16:
            continue
        for x, j, i, m in zip(leaves.class_x, leaves.class_j, leaves.class_i, leaves.class_m):
            c = residue_for_pattern(_replayed_pattern(x, j))
            assert (x, j, i, m) == (c.x, c.j, c.i, c.m)


def test_walk_stores_its_classes_sorted_by_j_then_x():
    # a class is pruned at j = bitlen(3^i) halvings alone, so each pruning
    # level holds one O-count, and order by (j, x) is order by (length, x)
    for depth in range(25):
        leaves = unresolved_leaves(depth)
        keys = list(zip(leaves.class_j, leaves.class_x))
        assert keys == sorted(set(keys)), depth
        levels = {((3**i).bit_length(), i) for i in range(depth) if (3**i).bit_length() <= depth}
        assert set(zip(leaves.class_j, leaves.class_i)) == levels, depth


def test_depth_zero_leaf_is_trivial():
    leaves = unresolved_leaves(0)
    assert (list(leaves.residues), leaves.o_counts, list(leaves.ends)) == ([0], b"\x00", [0])
    assert leaves.classes == ()
    with pytest.raises(ValueError):
        unresolved_leaves(-1)


def test_leaf_prefix_stays_above_the_start_and_lands_on_the_affine_image():
    for depth in range(1, 13):
        leaves = unresolved_leaves(depth)
        for r, a, e in zip(leaves.residues, leaves.o_counts, leaves.ends):
            for k in (0, 1, 2**20 + 3):
                n = r + (k << depth)
                if n < 2:
                    continue
                v, halvings = n, 0
                for _ in range(a + depth):
                    v, kind = col_step(v)
                    halvings += kind == "E"
                    assert v > n, (n, depth)
                assert halvings == depth
                assert v == 3**a * (n >> depth) + e


def test_walk_ends_on_the_halving_words():
    # both write the value after t halvings of 2^t*h + r as 3^a*h + e
    words = patterns._HALVING_WORDS
    for t in range(patterns._WORD_K + 1):
        leaves = unresolved_leaves(t)
        for r, a, e in zip(leaves.residues, leaves.o_counts, leaves.ends):
            assert (3**a, e) == words[t][r][1:3], (t, r)
        for x, j, i, m in zip(leaves.class_x, leaves.class_j, leaves.class_i, leaves.class_m):
            assert (3**i, (3**i * x + m) >> j) == words[j][x][1:3], (x, j)


def test_leaves_reject_a_leaf_below_its_depth():
    leaves = unresolved_leaves(10)
    o_counts = bytearray(leaves.o_counts)
    o_counts[5] = 6  # 3^6 = 729 < 2^10; every leaf of depth 10 has 7 O-steps or more
    r = leaves.residues[5]
    with pytest.raises(AssertionError) as exc:
        leaves._replace(o_counts=bytes(o_counts))
    assert str(exc.value) == f"leaf {r} mod 2^10 takes 6 O-steps, and 3^6 < 2^10"


def test_leaves_reject_a_class_that_does_not_descend():
    leaves = unresolved_leaves(10)
    t = 7
    x, j, i, m = leaves.class_x[t], leaves.class_j[t], leaves.class_i[t], leaves.class_m[t]
    class_m = leaves.class_m[:]
    class_m[t] += (x - ((3**i * x + m) >> j)) << j  # the smallest member now ends at x
    with pytest.raises(NotADescent) as exc:
        leaves._replace(class_m=class_m)
    assert str(exc.value) == f"smallest member {x} of class mod 2^{j} ends at {x}"


def test_leaves_reject_a_dropped_leaf():
    leaves = unresolved_leaves(10)
    count = len(leaves.residues)
    residues, ends = leaves.residues[:], leaves.ends[:]
    del residues[3], ends[3]
    o_counts = leaves.o_counts[:3] + leaves.o_counts[4:]
    with pytest.raises(AssertionError) as exc:
        leaves._replace(residues=residues, o_counts=o_counts, ends=ends)
    assert str(exc.value) == (
        f"classes cover {1024 - count} and {count - 1} leaves are open, not 2^10 residues"
    )


def test_enumerate_examples():
    assert [(c.pattern.text, c.x, c.modulus) for c in enumerate_minimal_patterns(1)] == [
        ("E", 0, 2)
    ]
    for empty_len in (2, 4, 5, 7, 40):
        assert enumerate_minimal_patterns(empty_len) == []
    assert [(c.pattern.text, c.x, c.modulus) for c in enumerate_minimal_patterns(3)] == [
        ("OEE", 1, 4)
    ]
    assert [(c.pattern.text, c.x, c.modulus) for c in enumerate_minimal_patterns(6)] == [
        ("OEOEEE", 3, 16)
    ]
    assert [(c.x, c.modulus) for c in enumerate_minimal_patterns(8)] == [(11, 32), (23, 32)]


def test_enumerate_length_11():
    # frozen from brute force over odd n: three classes mod 2^7
    assert [(c.pattern.text, c.x) for c in enumerate_minimal_patterns(11)] == [
        ("OEOEOEEOEEE", 7),
        ("OEOEOEOEEEE", 15),
        ("OEOEEOEOEEE", 59),
    ]


def test_enumerate_refuses_deep_walks_before_walking(monkeypatch):
    # length 47 walks to 29 halvings; the next length with classes, 50,
    # needs 31, and 55 and 60 need 34 and 37 (gigabytes of open leaves)
    class Walked(Exception):
        pass

    def no_walk(depth):
        raise Walked(depth)

    monkeypatch.setattr(patterns, "unresolved_leaves", no_walk)
    with pytest.raises(Walked) as walked:
        enumerate_minimal_patterns(47)
    assert walked.value.args == (patterns.MAX_ENUMERATE_DEPTH,) == (29,)
    for length in (50, 55, 60, 1001):
        with pytest.raises(DepthTooLarge, match=f"length {length} needs"):
            enumerate_minimal_patterns(length)
    for empty_len in (48, 49, 1000):
        assert enumerate_minimal_patterns(empty_len) == []


def test_enumerate_finds_the_o_count_as_a_linear_search_does(monkeypatch):
    walked = []

    def stand_in_walk(depth):
        walked.append(depth)
        return unresolved_leaves(0)  # no classes

    monkeypatch.setattr(patterns, "unresolved_leaves", stand_in_walk)
    i = 0
    for length in range(1, 2001):
        while i + (3**i).bit_length() < length:
            i += 1
        j = length - i
        walked.clear()
        if (3**i).bit_length() != j:
            assert enumerate_minimal_patterns(length) == [], length
            assert walked == [], length
        elif j > patterns.MAX_ENUMERATE_DEPTH:
            with pytest.raises(DepthTooLarge, match=f"^length {length} needs {j} halvings, "):
                enumerate_minimal_patterns(length)
            assert walked == [], length
        else:
            assert enumerate_minimal_patterns(length) == [], length
            assert walked == [j], length


def test_enumerate_bisects_a_long_length(monkeypatch):
    calls = []
    real = patterns._min_descending_j

    def counting(i):
        calls.append(i)
        return real(i)

    monkeypatch.setattr(patterns, "_min_descending_j", counting)
    assert enumerate_minimal_patterns(10**6) == []
    assert len(calls) <= 25


def test_word_route_order_is_depth_first_with_e_before_o():
    assert list(iter_minimal_pattern_texts(6)) == ["E", "OEE", "OEOEEE", "OEOEEOEE", "OEOEOEEE"]
    assert list(iter_minimal_pattern_texts(max_j=8)) == [
        "E",
        "OEE",
        "OEOEEE",
        "OEOEEOEE",
        "OEOEEOEOEEE",
        "OEOEEOEOEEOEE",
        "OEOEEOEOEOEEE",
        "OEOEOEEE",
        "OEOEOEEOEEE",
        "OEOEOEEOEEOEE",
        "OEOEOEEOEOEEE",
        "OEOEOEOEEEE",
        "OEOEOEOEEEOEE",
        "OEOEOEOEEOEEE",
        "OEOEOEOEOEEEE",
    ]


def test_enumerate_matches_the_word_route_to_length_34():
    # the depth-first word route, solved and grouped by length; a minimal
    # pattern of length <= 34 has i <= 13 O-steps, so j <= bitlen(3^13) = 21
    by_length = {}
    for text in iter_minimal_pattern_texts(max_j=21):
        by_length.setdefault(len(text), []).append(residue_for_pattern(text))
    for length in range(1, 35):
        expected = sorted(by_length.get(length, []), key=lambda c: c.x)
        assert enumerate_minimal_patterns(length) == expected, length


def test_minimality_no_proper_prefix_descends():
    for length in range(1, 17):
        for c in enumerate_minimal_patterns(length):
            text = c.pattern.text
            for cut in range(1, len(text)):
                prefix = text[:cut]
                assert feasibility_margin(prefix.count("O"), prefix.count("E")) <= 0
            assert feasibility_margin(c.i, c.j) > 0


def test_feasibility_gate():
    for length in range(1, 17):
        classes = enumerate_minimal_patterns(length)
        margins = [feasibility_margin(i, length - i) for i in range(length + 1)]
        if classes:
            assert any(m > 0 for m in margins)


def test_classes_up_to_length_16_are_pairwise_disjoint():
    classes = []
    for length in range(1, 17):
        classes.extend(enumerate_minimal_patterns(length))
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            ca, cb = classes[a], classes[b]
            if ca.modulus > cb.modulus:
                ca, cb = cb, ca
            assert cb.x % ca.modulus != ca.x % ca.modulus


def test_first_lower_value_examples():
    c11 = residue_for_pattern("OEOEEOEE")
    assert first_lower_value(c11, 0) == 10
    assert first_lower_value(c11, 1) == 37
    # an adder off by one leaves 3^i*x + m indivisible by 2^j
    with pytest.raises(AssertionError, match=r"^non-integer first-lower value for 'OEOEEOEE', k=0$"):
        first_lower_value(c11._replace(m=c11.m + 1), 0)
    even = residue_for_pattern("E")
    assert first_lower_value(even, 5) == 5


def test_subsequent_lower_value_examples():
    assert subsequent_lower_value(10, 3) == 37
    assert subsequent_lower_value(64, 3) == 91
    assert subsequent_lower_value(123, 0) == 124


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=500))
def test_spacing_law(i, k):
    c = alternating_family(i)
    assert first_lower_value(c, k + 1) - first_lower_value(c, k) == 3**c.i


def test_alternating_family_examples():
    c = alternating_family(1)
    assert (c.pattern.text, c.x, c.modulus, c.m) == ("OEE", 1, 4, 1)
    c = alternating_family(2)
    assert (c.pattern.text, c.x, c.modulus, c.m) == ("OEOEEE", 3, 16, 5)
    c = alternating_family(6)
    assert (c.i, c.j, c.m, c.x, c.y0) == (6, 10, 665, 575, 410)
    # threshold: x must sit above m / (2^j - 3^i)
    assert c.x * (2**c.j - 3**c.i) > c.m


def test_alternating_family_closed_form_deep():
    # the fold of (OE)^i E^(j-i) against the closed form: m = 3^i - 2^i, j minimal
    for i in range(1, 61):
        c = alternating_family(i)
        j = 1
        while 2**j <= 3**i:
            j += 1
        assert pattern_constants(c.pattern) == (i, j, 3**i - 2**i)
        assert (c.i, c.j, c.m) == (i, j, 3**i - 2**i)


def test_pattern_functions_reject_out_of_range_arguments():
    with pytest.raises(ValueError, match="^max_length must be >= 1$"):
        feasibility_table(0)
    with pytest.raises(ValueError, match="^max_j must be >= 1$"):
        next(iter_minimal_pattern_texts(0))
    with pytest.raises(ValueError, match="^length must be >= 1$"):
        enumerate_minimal_patterns(0)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        first_lower_value(residue_for_pattern("OEE"), -1)
    with pytest.raises(ValueError, match="^i must be >= 1$"):
        alternating_family(0)
    with pytest.raises(ValueError, match="^i must be >= 0$"):
        subsequent_lower_value(10, -1)
    with pytest.raises(ValueError, match="^k must be >= 0$"):
        residue_for_pattern("OEOEEOEE").member(-1)


def test_class_soundness_small_lengths():
    classes = []
    for length in range(1, 12):
        classes.extend(enumerate_minimal_patterns(length))
    classes.extend(alternating_family(i) for i in range(1, 9))
    for c in classes:
        for k in range(201):
            n = c.member(k)
            if n < 2:
                continue
            tr = descent_trace(n)
            assert tr.pattern == c.pattern
            assert tr.first_lower == first_lower_value(c, k)


def test_oracle_equivalence_small():
    # every odd n < 2^12 covered by a class with j <= 12 descends as predicted
    by_residue = {}
    for text in iter_minimal_pattern_texts(max_j=12):
        c = residue_for_pattern(text)
        for r in range(c.x, 1 << 12, c.modulus):
            assert r not in by_residue
            by_residue[r] = c
    covered = 0
    for n in range(3, 1 << 12, 2):
        c = by_residue.get(n % (1 << 12))
        if c is None:
            continue
        covered += 1
        assert descent_trace(n).pattern == c.pattern
    assert covered > 1500  # most odd numbers resolve by depth 12
