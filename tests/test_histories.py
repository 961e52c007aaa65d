from math import inf, nan

import pytest

from seqsnap.histories import (OpRecord, TraceFormatError, history_lines,
                               infer_process_count, is_time, load_history,
                               record_from_json)
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
}


@pytest.mark.parametrize("line", BAD_LINES.values(), ids=BAD_LINES)
def test_bad_field_rejected_with_line_number(line):
    with pytest.raises(TraceFormatError) as err:
        record_from_json(line, 3)
    assert err.value.lineno == 3


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
