import pytest
from hypothesis import given, strategies as st

from seqsnap.checker import replay_legal
from seqsnap.histories import OpRecord
from seqsnap.seqspec import initial_state, seq_step


def W(proc, value):
    return OpRecord(proc, 0, "write", 0.0, 0.0, value=value)


def S(proc, result):
    return OpRecord(proc, 0, "snapshot", 0.0, 1.0, result=tuple(result))


def R(proc, target, result):
    return OpRecord(proc, 0, "read", 0.0, 1.0, target=target, result=result)


def test_write_overwrites_default():
    state, ok = seq_step((0, 0), W(0, 5))
    assert state == (5, 0) and ok


def test_snapshot_of_current_state_is_legal():
    state, ok = seq_step((5, 0), S(1, [5, 0]))
    assert state == (5, 0) and ok


def test_snapshot_mismatch_is_illegal_but_state_unchanged():
    state, ok = seq_step((5, 0), S(1, [0, 5]))
    assert state == (5, 0) and not ok


def test_read_step():
    _, ok = seq_step((5, 0), R(1, 0, 5))
    assert ok
    _, ok = seq_step((5, 0), R(1, 0, 9))
    assert not ok


def test_malformed_ops_are_rejected_not_illegal():
    with pytest.raises(ValueError):
        seq_step((0, 0), S(0, [0, 0, 0]))
    with pytest.raises(ValueError):
        seq_step((0, 0), W(5, 1))
    with pytest.raises(ValueError):
        seq_step((0, 0), R(0, 7, 0))
    with pytest.raises(ValueError):
        seq_step((0, 0), OpRecord(0, 0, "write", 0.0, 0.0))   # no value
    with pytest.raises(ValueError):
        seq_step((0, 0), OpRecord(0, 0, "scan", 0.0, 1.0))
    with pytest.raises(ValueError):
        initial_state(0)


def test_empty_word_is_legal():
    assert replay_legal([], 2)


def test_interleaved_word_legal():
    word = [W(0, 1), S(0, [1, 0]), W(1, 1), S(1, [1, 1])]
    assert replay_legal(word, 2)


def test_stale_snapshot_makes_word_illegal():
    assert not replay_legal([W(0, 1), S(0, [0, 1])], 2)


ops_strategy = st.lists(
    st.one_of(
        st.builds(W, st.integers(0, 2), st.integers(1, 5)),
        st.builds(S, st.integers(0, 2),
                  st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))),
    ),
    max_size=12)


@given(ops_strategy)
def test_seq_step_is_deterministic(ops):
    state_a = state_b = initial_state(3)
    for op in ops:
        next_a, ok_a = seq_step(state_a, op)
        next_b, ok_b = seq_step(state_b, op)
        assert next_a == next_b and ok_a == ok_b
        state_a, state_b = next_a, next_b


@given(ops_strategy)
def test_single_writer_cells_change_only_on_own_writes(ops):
    state = initial_state(3)
    for op in ops:
        nxt, _ = seq_step(state, op)
        for cell in range(3):
            if op.kind != "write" or op.proc != cell:
                assert nxt[cell] == state[cell]
        state = nxt


@given(st.lists(st.builds(W, st.integers(0, 2), st.integers(1, 9)),
                max_size=10))
def test_write_versions_are_monotone(ops):
    # number of applied writes per cell never decreases along any word
    state = initial_state(3)
    applied = [0, 0, 0]
    for op in ops:
        state, ok = seq_step(state, op)
        assert ok
        applied[op.proc] += 1
        assert state[op.proc] == op.value
