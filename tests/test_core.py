"""Exact step dynamics: single steps, descents, chains, stopping times."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from collatz_descent import (
    CycleDetected,
    DescentPattern,
    StepCapExceeded,
    chain_descents,
    col_step,
    descent_trace,
    total_stopping_time,
)
from collatz_descent import core
from collatz_descent.core import DEFAULT_STEP_CAP, descent_length
from dense_reference import descent_length_reference, jump_table_reference


def test_col_step_examples():
    assert col_step(27) == (82, "O")
    assert col_step(82) == (41, "E")
    assert col_step(2) == (1, "E")


def test_col_step_rejects_zero():
    with pytest.raises(ValueError):
        col_step(0)


def test_descent_of_3():
    tr = descent_trace(3)
    assert tr.pattern.text == "OEOEEE"
    assert tr.values == (10, 5, 16, 8, 4, 2)
    assert tr.first_lower == 2


def test_descent_of_7():
    # frozen from direct simulation
    tr = descent_trace(7)
    assert len(tr) == 11
    assert (tr.pattern.i, tr.pattern.j) == (4, 7)
    assert tr.values == (22, 11, 34, 17, 52, 26, 13, 40, 20, 10, 5)
    assert tr.first_lower == 5


def test_descent_of_27():
    tr = descent_trace(27)
    assert len(tr) == 96
    assert tr.pattern.i == 37
    assert tr.pattern.j == 59
    assert tr.first_lower == 23


def test_even_descent_is_single_halving():
    tr = descent_trace(4)
    assert tr.pattern.text == "E"
    assert tr.first_lower == 2


@given(st.integers(min_value=1, max_value=10**30))
def test_every_even_number_descends_in_one_step(m):
    tr = descent_trace(2 * m)
    assert tr.pattern.text == "E"
    assert tr.first_lower == m


def test_descent_rejects_small_n():
    with pytest.raises(ValueError):
        descent_trace(1)
    with pytest.raises(ValueError):
        descent_trace(0)
    with pytest.raises(ValueError):
        descent_length(1)


def test_step_cap_guards_the_loop():
    with pytest.raises(StepCapExceeded):
        descent_trace(27, step_cap=10)


def test_descent_length_matches_trace_length():
    for n in range(2, (1 << 16) + 1):
        assert descent_length(n) == len(descent_trace(n))


def test_descent_length_step_cap_message_matches_trace():
    with pytest.raises(StepCapExceeded) as trace_exc:
        descent_trace(27, step_cap=20)
    with pytest.raises(StepCapExceeded) as kernel_exc:
        descent_length(27, step_cap=20)
    assert str(kernel_exc.value) == str(trace_exc.value)


def test_descent_length_resumes_from_any_point_above_the_start():
    for n in range(2, 3000):
        tr = descent_trace(n)
        for steps in range(1, len(tr)):
            assert descent_length(n, DEFAULT_STEP_CAP, tr.values[steps - 1], steps) == len(tr)


def test_descent_length_resumed_past_the_cap_fails_like_a_fresh_walk():
    tr = descent_trace(27)
    with pytest.raises(StepCapExceeded) as fresh:
        descent_length(27, step_cap=20)
    for steps in (20, 21, 60):
        with pytest.raises(StepCapExceeded) as resumed:
            descent_length(27, 20, tr.values[steps - 1], steps)
        assert str(resumed.value) == str(fresh.value)
    # the descent check comes before the cap check, as in a fresh walk
    assert descent_length(27, 96, tr.values[94], 95) == 96
    with pytest.raises(StepCapExceeded):
        descent_length(27, 95, tr.values[94], 95)


def _outcome(kernel, *args):
    """The kernel's return value, or the type and message of what it raised."""
    try:
        return kernel(*args)
    except (CycleDetected, StepCapExceeded) as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(n=st.integers(min_value=2, max_value=2**100), data=st.data())
def test_descent_length_matches_the_step_by_step_reference(n, data):
    # a fresh walk or a resume after any prefix of the first descent, under
    # every cap from 1 to one past the descent
    tr = descent_trace(n)
    steps = data.draw(st.integers(min_value=0, max_value=len(tr) - 1), label="steps")
    v = tr.values[steps - 1] if steps else 0
    for cap in range(1, len(tr) + 2):
        expected = _outcome(descent_length_reference, n, cap, v, steps)
        assert _outcome(descent_length, n, cap, v, steps) == expected, cap


@given(
    n=st.integers(min_value=2, max_value=2**100),
    t=st.integers(min_value=1, max_value=80),
    steps=st.integers(min_value=1, max_value=50),
)
def test_descent_length_reports_a_cycle_like_the_reference(n, t, steps):
    # no real cycle is known, so resume at a value whose halving run, or the
    # O-step and halving run after it, lands back on n
    resumes = [n << t]
    if (n << t) % 3 == 1 and (n << t) // 3 > n:
        resumes.append((n << t) // 3)
    for v in resumes:
        for cap in range(steps, steps + t + 3):
            expected = _outcome(descent_length_reference, n, cap, v, steps)
            assert _outcome(descent_length, n, cap, v, steps) == expected, (v, cap)
    message = f"trajectory of {n} returned to its start after {steps + t} steps"
    assert _outcome(descent_length, n, steps + t + 1, n << t, steps) == (CycleDetected, message)


def _to_kth_halving(v, k):
    """Step v up to and including its k-th halving: (value, steps, O-steps before each halving)."""
    steps = o_steps = 0
    before: list[int] = []
    while len(before) < k:
        if v & 1:
            v = 3 * v + 1
            o_steps += 1
        else:
            v >>= 1
            before.append(o_steps)
        steps += 1
    return v, steps, before


def test_jump_table_matches_k_halvings_and_its_guard_is_sound():
    k = core._WORD_K
    assert len(core._JUMPS) == 1 << k
    for low, (g, p, e, s) in enumerate(core._JUMPS):
        for h in (0, 1, 10**12 + 7, 2**70 + 3):
            v, steps, before = _to_kth_halving(low + (h << k), k)
            c = before[-1]
            assert (p, v, steps, s) == (3**c, p * h + e, k + c, k + c), (low, h)
            # 2^g*3^c_t >= 2^t at every halving t, and g - 1 fails at one
            assert all(2**g * 3**c_t >= 2**t for t, c_t in enumerate(before, 1)), (low, h)
            assert any(2**g * 3**c_t < 2 ** (t + 1) for t, c_t in enumerate(before, 1)), (low, h)


def test_jumps_from_the_halving_words_equal_the_level_by_level_builder():
    assert core._JUMPS == jump_table_reference(core._WORD_K)


def test_descent_length_around_a_jump_matches_the_reference():
    # every resume below starts with a jump: n << t lands back on n, a cycle,
    # t - k halvings after it, and 27's peak jumps on its way down; the caps
    # fall before, inside and after the jump
    k = core._WORD_K
    tr = descent_trace(27)
    peak = max(tr.values)
    resumes = [(27, peak, tr.values.index(peak) + 1, len(tr) + 1)]
    for n in (27, 10**12 + 1, 2**70 + 1):
        for t in range(k + 1, k + 5):
            for steps in (1, 30):
                resumes.append((n, n << t, steps, steps + t + 2))
    for n, v, steps, last_cap in resumes:
        g = core._JUMPS[v & core._WORD_MASK][0]
        assert v >> g > n, (n, v)
        for cap in range(steps, last_cap + 1):
            expected = _outcome(descent_length_reference, n, cap, v, steps)
            assert _outcome(descent_length, n, cap, v, steps) == expected, (n, v, steps, cap)


def test_a_jump_that_reaches_the_cap_ends_the_walk(monkeypatch):
    # the cap bounds the work as well as the outcome: without the check
    # after each jump, this walk would jump 100 times before it raised
    reads = []

    class CountedReads(list):
        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

    monkeypatch.setattr(core, "_JUMPS", CountedReads(core._JUMPS))
    with pytest.raises(StepCapExceeded):
        descent_length(27, 5, 27 << (100 * core._WORD_K), 1)
    assert reads == [0]


def test_cycle_detection_surfaces_loudly(monkeypatch):
    # no real cycle is known, so fake a 5 -> 7 -> 5 loop
    fake = {5: (7, "O"), 7: (5, "E")}
    monkeypatch.setattr(core, "col_step", lambda v: fake[v])
    with pytest.raises(CycleDetected):
        descent_trace(5)


def test_parity_soundness_and_o_always_followed_by_e():
    for n in range(2, 2000):
        tr = descent_trace(n)
        before = [n] + list(tr.values[:-1])
        for v, kind in zip(before, tr.pattern.text):
            assert (kind == "O") == bool(v & 1)
        assert "OO" not in tr.pattern.text
        assert tr.pattern.text[-1] == "E"
        assert all(v > n for v in tr.values[:-1])
        assert tr.first_lower < n
        assert tr.pattern == DescentPattern.parse(tr.pattern.text)
        assert str(tr.pattern) == tr.pattern.text


def test_chain_descents_examples():
    assert [len(s) for s in chain_descents(16)] == [1, 1, 1, 1]
    assert [len(s) for s in chain_descents(5)] == [3, 1, 1]
    segs = chain_descents(27)
    assert len(segs[0]) == 96


def test_chain_descents_concatenation_is_the_full_trajectory():
    for n in (5, 16, 27, 97):
        segs = chain_descents(n)
        glued = []
        for s in segs:
            glued.extend(s.values)
        v, full = n, []
        while v != 1:
            v = col_step(v)[0]
            full.append(v)
        assert glued == full


def test_total_stopping_time_examples():
    assert total_stopping_time(16) == 4
    assert total_stopping_time(1) == 0
    assert total_stopping_time(27) == 111


def test_whole_trajectories_reject_starts_below_their_domain():
    with pytest.raises(ValueError, match="^chained descent is defined for n >= 2$"):
        chain_descents(1)
    with pytest.raises(ValueError, match="^stopping time is defined for n >= 1$"):
        total_stopping_time(0)


def test_decomposition_on_a_small_range():
    for n in range(2, 500):
        assert total_stopping_time(n) == sum(len(s) for s in chain_descents(n))
