import pytest

from seqsnap.histories import (OpRecord, TraceFormatError, history_lines,
                               infer_process_count, load_history,
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
    path.write_text('{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": 1}\n'
                    'not json at all\n')
    with pytest.raises(TraceFormatError) as err:
        load_history(path)
    assert err.value.lineno == 2


def test_missing_field_rejected():
    with pytest.raises(TraceFormatError):
        record_from_json('{"proc": 0, "seq": 0, "op": "write", "t_inv": 0}', 3)
    with pytest.raises(TraceFormatError):
        record_from_json('{"proc": 0, "op": "write", "t_inv": 0, "value": 1}', 4)


@pytest.mark.parametrize("line", [
    '{"proc": 0, "seq": 0, "op": "read", "t_inv": 0, "t_ret": 1, "target": 0}',
    '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": null}',
    '{"proc": 0, "seq": 0, "op": "snapshot", "t_inv": 0, "t_ret": 1, "result": [null]}',
    '{"proc": 0, "seq": 0, "op": "snapshot", "t_inv": 0, "t_ret": 1, "result": ["a"]}',
    '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": 1.5}',
    '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": "7"}',
    '{"proc": 0, "seq": 0, "op": "write", "t_inv": 0, "value": true}',
    '{"proc": 0, "seq": 0, "op": "snapshot", "t_inv": 0, "t_ret": 1, "result": [1.5]}',
    '{"proc": "0", "seq": 0, "op": "write", "t_inv": 0, "value": 1}',
    '{"proc": 0, "seq": 0, "op": "write", "t_inv": "0", "value": 1}',
    '{"proc": 0, "seq": 0, "op": "write", "t_inv": NaN, "value": 1}',
], ids=["read-without-result", "write-value-null", "snapshot-result-null",
        "snapshot-result-string", "value-float", "value-string", "value-bool",
        "snapshot-cell-float", "proc-string", "t_inv-string", "t_inv-nan"])
def test_bad_field_rejected_with_line_number(line):
    with pytest.raises(TraceFormatError) as err:
        record_from_json(line, 3)
    assert err.value.lineno == 3


def test_unknown_op_kind_rejected():
    with pytest.raises(TraceFormatError):
        record_from_json('{"proc": 0, "seq": 0, "op": "scan", "t_inv": 0}', 1)


def test_process_count_inferred_from_snapshots_and_procs():
    history = [OpRecord(4, 0, "write", 0.0, 0.0, value=1)]
    assert infer_process_count(history) == 5
    history = [OpRecord(0, 0, "snapshot", 0.0, 1.0, result=(0, 0, 0))]
    assert infer_process_count(history) == 3
    assert infer_process_count([]) == 1
