from dataclasses import replace
from math import inf, nan

import pytest
from hypothesis import given, settings, strategies as st

from seqsnap.checker import (CheckRefusal, check_lin_brute, check_sc_brute,
                             check_sc_fast)
from seqsnap.histories import (OpRecord, TraceFormatError, history_lines,
                               infer_process_count, is_time, load_history,
                               op_error, record_from_json, record_to_json)
from seqsnap.rounds import check_composition
from seqsnap.sim import SimConfig, history_document, run_simulation
from seqsnap.workloads import random_workload


def test_round_trip_preserves_records(tmp_path):
    run = run_simulation(SimConfig(n=3, seed=9,
                                   workload=random_workload(3, 12, 9)))
    path = tmp_path / "history.jsonl"
    path.write_text(history_document(run.history))
    loaded = load_history(path)
    assert loaded == run.history


def test_incomplete_op_has_no_return_fields():
    rec = OpRecord(1, 0, "snapshot", 2.5, None)
    line = history_lines([rec])[0]
    assert '"t_ret"' not in line and '"result"' not in line
    assert record_from_json(line).t_ret is None


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    # blank lines are skipped but still counted
    path.write_text('{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": 1}\n'
                    '\n   \n'
                    'not json at all\n')
    with pytest.raises(TraceFormatError) as err:
        load_history(path)
    assert err.value.lineno == 4


def test_missing_field_rejected():
    with pytest.raises(TraceFormatError):
        record_from_json('{"proc": 0, "seq": 0, "op": "write", "t_inv": 0}', 3)
    with pytest.raises(TraceFormatError):
        record_from_json('{"proc": 0, "op": "write", "t_inv": 0, "value": 1}', 4)


# id -> a malformed trace line; tests/test_cli.py feeds the same lines to
# `seqsnap check`
BAD_LINES = {
    "read-without-result": '{"proc": 0, "seq": 0, "op": "read", "t_inv": 0, "t_ret": 1, "target": 0}',
    "write-value-null": '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": null}',
    "snapshot-result-null": '{"proc": 0, "seq": 0, "op": "snapshot", "t_inv": 0, "t_ret": 1, "result": [null]}',
    "snapshot-result-string": '{"proc": 0, "seq": 0, "op": "snapshot", "t_inv": 0, "t_ret": 1, "result": ["a"]}',
    "value-float": '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": 1.5}',
    "value-string": '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": "7"}',
    "value-bool": '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": true}',
    "snapshot-cell-float": '{"proc": 0, "seq": 0, "op": "snapshot", "t_inv": 0, "t_ret": 1, "result": [1.5]}',
    "proc-string": '{"proc": "0", "seq": 0, "op": "write", "t_inv": 0, "value": 1}',
    "t_inv-string": '{"proc": 0, "seq": 0, "op": "write", "t_inv": "0", "value": 1}',
    "t_inv-nan": '{"proc": 0, "seq": 0, "op": "write", "t_inv": NaN, "value": 1}',
    "not-an-object": '[{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": 1}]',
    "t_inv-401-digits": '{"proc": 0, "seq": 0, "op": "write", "t_inv": 1%s, "value": 1}' % ("0" * 400),
    "value-4301-digits": '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": %s}' % ("1" * 4301),
    "returns-before-invoked": '{"proc": 0, "seq": 0, "op": "write", "t_inv": 5, "t_ret": 1, "value": 1}',
    "seq-negative": '{"proc": 0, "seq": -1, "op": "write", "t_inv": 0, "value": 1}',
    "object-id-negative": '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": 1, "object_id": -1}',
    "write-with-target": '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": 1, "target": 0}',
    "snapshot-with-value": '{"proc": 0, "seq": 0, "op": "snapshot", "t_inv": 0, "t_ret": 1, "result": [0], "value": 1}',
    "cut-off-snapshot-with-result": '{"proc": 0, "seq": 0, "op": "snapshot", "t_inv": 0, "result": [0]}',
    "t_ret-null": '{"proc": 0, "seq": 0, "op": "snapshot", "t_inv": 0, "t_ret": null}',
    "read-with-value": '{"proc": 0, "seq": 0, "op": "read", "t_inv": 0, "t_ret": 1, "target": 0, "result": 0, "value": 1}',
    "misspelt-target": '{"object_id":0,"op":"write","proc":0,"run_seed":0,"seq":0,"t_inv":0,"value":1,"targte":1}',
}


@pytest.mark.parametrize("line", BAD_LINES.values(), ids=BAD_LINES)
def test_bad_field_rejected_with_line_number(line):
    with pytest.raises(TraceFormatError) as err:
        record_from_json(line, 3)
    assert err.value.lineno == 3


def test_unknown_key_is_named():
    with pytest.raises(TraceFormatError, match="unknown field 'targte'"):
        record_from_json(BAD_LINES["misspelt-target"], 1)


class FloatTime(float):
    pass


class IntTime(int):
    pass


@pytest.mark.parametrize("t, ok", [
    (0, True), (-3, True), (2.5, True), (2**1000, True),
    (True, False), (nan, False), (inf, False), (-inf, False),
    (10**400, False), (FloatTime(1.0), False), (IntTime(1), False),
    ("1", False), (None, False),
], ids=["int", "negative-int", "float", "int-2**1000", "bool", "nan", "inf",
        "minus-inf", "int-10**400", "float-subclass", "int-subclass", "str",
        "none"])
def test_time_rule(t, ok):
    assert is_time(t) is ok


def test_unknown_op_kind_rejected():
    with pytest.raises(TraceFormatError):
        record_from_json('{"proc": 0, "seq": 0, "op": "scan", "t_inv": 0}', 1)


def test_process_count_inferred_from_snapshots_and_procs():
    history = [OpRecord(4, 0, "write", 0.0, 0.0, value=1)]
    assert infer_process_count(history) == 5
    history = [OpRecord(0, 0, "snapshot", 0.0, 1.0, result=(0, 0, 0))]
    assert infer_process_count(history) == 3
    assert infer_process_count([]) == 1


TIMES = st.integers(-10**6, 10**6) | st.floats(allow_nan=False,
                                              allow_infinity=False)
IDS = st.integers(0, 2**64)
# values the rule refuses in some field, and a few it accepts in some
STRAY = [None, True, False, -1, 7, 1.5, "1", nan, inf, -inf, (0,), [0],
         (True,), "scan"]
FIELDS = ["kind", "proc", "seq", "t_inv", "t_ret", "value", "result",
          "target", "object_id", "run_seed"]


@st.composite
def records(draw):
    """A record of the trace format, then perhaps one field set to a value
    from STRAY."""
    kind = draw(st.sampled_from(["write", "snapshot", "read"]))
    t_inv, t_ret = sorted(draw(st.lists(TIMES, min_size=2, max_size=2)))
    if draw(st.booleans()):
        t_ret = None
    result = None
    if t_ret is not None and kind == "snapshot":
        result = tuple(draw(st.lists(st.integers(), max_size=4)))
    elif t_ret is not None and kind == "read":
        result = draw(st.integers())
    rec = OpRecord(
        draw(IDS), draw(IDS), kind, t_inv, t_ret,
        value=draw(st.integers()) if kind == "write" else None,
        result=result, target=draw(IDS) if kind == "read" else None,
        object_id=draw(IDS), run_seed=draw(st.integers(-2**64, 2**64)))
    field = draw(st.sampled_from([None, *FIELDS]))
    if field is not None:
        rec = replace(rec, **{field: draw(st.sampled_from(STRAY))})
    return rec


@given(records())
@settings(max_examples=500, deadline=None)
def test_the_writer_refuses_a_record_or_writes_one_that_reads_back(rec):
    error = op_error(rec)
    finite = is_time(rec.t_inv) and (rec.t_ret is None or is_time(rec.t_ret))
    if error is None and finite:
        line = record_to_json(rec)
        back = record_from_json(line)
        # a list of cells reads back as their tuple
        assert back == (replace(rec, result=tuple(rec.result))
                        if type(rec.result) is list else rec)
        assert record_to_json(back) == line
        return
    with pytest.raises(ValueError):
        record_to_json(rec)
    if error is not None:
        for check in (check_sc_fast, check_sc_brute, check_lin_brute,
                      check_composition):
            with pytest.raises(CheckRefusal):
                check([rec], 4)
