import json

import pytest

from seqsnap import cli
from seqsnap.cli import main
from seqsnap.histories import OpRecord
from seqsnap.sim import history_document
from test_histories import BAD_LINES


def read(path):
    return path.read_bytes()


def write_history(history, path):
    path.write_text(history_document(history))


def test_simulate_writes_three_files(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--n", "5", "--seed", "42", "--ops", "40",
                 "--crashes", "2", "--out", str(out)]) == 0
    assert (out / "history.jsonl").exists()
    assert (out / "metrics.json").exists()
    assert (out / "vctrace.json").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["quiescent"] is True


def test_simulate_rejects_too_many_crashes(tmp_path, capsys):
    assert main(["simulate", "--n", "4", "--crashes", "2",
                 "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_simulate_single_process(tmp_path):
    out = tmp_path / "one"
    assert main(["simulate", "--n", "1", "--ops", "2", "--out", str(out)]) == 0
    lines = (out / "history.jsonl").read_text().splitlines()
    assert len(lines) == 2


def test_same_seed_gives_byte_identical_files(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--n", "5", "--seed", "7", "--ops", "30", "--crashes", "1"]
    assert main(args + ["--out", str(out_a)]) == 0
    # `--delay async` names the default delay
    assert main(args + ["--delay", "async", "--out", str(out_b)]) == 0
    for name in ("history.jsonl", "metrics.json", "vctrace.json"):
        assert read(out_a / name) == read(out_b / name)


def test_check_of_a_directory_is_an_input_error(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["simulate", "--n", "3", "--ops", "4"],
    ["replay", "--scenario", "fig4a"],
    ["rounds", "--n", "3", "--rounds", "1"],
    ["check", "history.jsonl"],
], ids=["simulate", "replay", "rounds", "check"])
def test_output_directory_that_is_a_file_is_an_input_error(tmp_path, capsys,
                                                           monkeypatch, command):
    # refused before the run starts, or before the history is read
    def never(*args):
        raise AssertionError("the run started")

    for name in ("run_simulation", "run_rounds", "replay_scripted",
                 "load_history", "check_sc_fast", "check_sc_brute",
                 "check_lin_brute", "check_composition"):
        monkeypatch.setattr(cli, name, never)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    assert main(command + ["--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "kept"


def test_check_accepts_real_run(tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", "--n", "3", "--seed", "1", "--ops", "12", "--out", str(out)])
    code = main(["check", str(out / "history.jsonl"), "--out", str(out)])
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["accepted"] is True and verdict["witness"] is not None


def test_check_rejects_incomparable_history(tmp_path, capsys):
    history = [
        OpRecord(0, 0, "write", 0.0, 0.0, value=1),
        OpRecord(0, 1, "snapshot", 1.0, 2.0, result=(1, 0)),
        OpRecord(1, 0, "write", 0.0, 0.0, value=1),
        OpRecord(1, 1, "snapshot", 1.0, 2.0, result=(0, 1)),
    ]
    path = tmp_path / "bad.jsonl"
    write_history(history, path)
    assert main(["check", str(path)]) == 1
    assert main(["check", str(path), "--mode", "brute"]) == 1
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["certificate"]


def test_check_refuses_oversized_brute(tmp_path, capsys):
    history = [OpRecord(0, i, "write", float(i), float(i), value=i + 1)
               for i in range(50)]
    path = tmp_path / "big.jsonl"
    write_history(history, path)
    assert main(["check", str(path), "--mode", "brute"]) == 2


@pytest.mark.parametrize("mode", ["fast", "brute", "lin"])
def test_check_refuses_repeated_op_id(tmp_path, capsys, mode):
    path = tmp_path / "dup.jsonl"
    write_history([OpRecord(0, 0, "write", 0.0, 0.0, value=1),
                  OpRecord(0, 0, "snapshot", 1.0, 2.0, result=(1,))], path)
    assert main(["check", str(path), "--mode", mode]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mode", ["fast", "brute", "lin"])
def test_check_refuses_op_after_cut_off_write(tmp_path, capsys, mode):
    path = tmp_path / "cut.jsonl"
    write_history([OpRecord(0, 0, "write", 0.0, None, value=1),
                  OpRecord(0, 1, "snapshot", 1.0, 2.0, result=(0, 0))], path)
    assert main(["check", str(path), "--mode", mode]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# the Dekker trace (each process writes its own object, then snapshots the
# other's) with both of p0's ops at seq 0
DEKKER_SAME_SEQ = [
    '{"proc":0,"seq":0,"op":"write","t_inv":0,"t_ret":1,"value":1,"object_id":0}',
    '{"proc":0,"seq":0,"op":"snapshot","t_inv":0,"t_ret":2,"result":[0,0],"object_id":1}',
    '{"proc":1,"seq":0,"op":"write","t_inv":0,"t_ret":1,"value":1,"object_id":1}',
    '{"proc":1,"seq":1,"op":"snapshot","t_inv":1,"t_ret":2,"result":[0,0],"object_id":0}']

# an op that returns before it is invoked; an op after a never-returned op
# of its process on another object; the same-seq Dekker trace in both orders
# of p0's lines
REFUSED_TRACES = {
    "returns-before-invoked": [
        '{"proc":0,"seq":0,"op":"write","t_inv":5,"t_ret":1,"value":1}'],
    "composed-op-after-cut-off": [
        '{"proc":0,"seq":0,"op":"write","t_inv":0,"value":1,"object_id":0}',
        '{"proc":0,"seq":1,"op":"snapshot","t_inv":2,"t_ret":3,"result":[0,0],"object_id":1}',
        '{"proc":1,"seq":0,"op":"snapshot","t_inv":0,"t_ret":1,"result":[1,0],"object_id":0}'],
    "dekker-same-seq-write-first": DEKKER_SAME_SEQ,
    "dekker-same-seq-snapshot-first": [DEKKER_SAME_SEQ[1], DEKKER_SAME_SEQ[0],
                                       *DEKKER_SAME_SEQ[2:]],
}


@pytest.mark.parametrize("mode", ["fast", "brute", "lin"])
@pytest.mark.parametrize("trace", sorted(REFUSED_TRACES))
def test_check_refuses_malformed_ops(tmp_path, capsys, trace, mode):
    path = tmp_path / "refused.jsonl"
    path.write_text("\n".join(REFUSED_TRACES[trace]) + "\n")
    assert main(["check", str(path), "--mode", mode]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_reports_malformed_line(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text("this is not json\n")
    assert main(["check", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", BAD_LINES.values(), ids=BAD_LINES)
def test_check_reports_bad_field_with_line_number(tmp_path, capsys, line):
    path = tmp_path / "broken.jsonl"
    path.write_text(line + "\n")
    assert main(["check", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_check_lin_mode_on_abd_trace(tmp_path):
    out = tmp_path / "abd"
    main(["simulate", "--n", "3", "--seed", "3", "--ops", "6",
          "--workload", "abd", "--out", str(out)])
    assert main(["check", str(out / "history.jsonl"), "--mode", "lin"]) == 0


def test_replay_scenarios(tmp_path):
    for name in ("fig4a", "fig4b", "abd_baseline_demo"):
        out = tmp_path / name
        assert main(["replay", "--scenario", name, "--out", str(out)]) == 0
        assert (out / "history.jsonl").exists()


def test_replay_rejects_unknown_scenario(tmp_path):
    assert main(["replay", "--scenario", "fig9z", "--out", str(tmp_path)]) == 2


def test_bench_table_rows(capsys):
    assert main(["bench", "--n", "3,7"]) == 0
    text = capsys.readouterr().out
    assert "not reproduced" in text
    # quorum baseline scales linearly, updates quadratically
    assert "12" in text   # 4n read messages for n=3
    assert "28" in text   # 4n read messages for n=7
    assert "9" in text and "49" in text   # n^2 update messages


@pytest.mark.parametrize("counts", ["2,x", "3,,5", "3,0"])
def test_bench_checks_every_n_before_any_table(counts, capsys):
    assert main(["bench", "--n", counts]) == 2
    assert capsys.readouterr().out == ""


def test_simulate_with_sync_delay_and_crashes_on_abd(tmp_path):
    out = tmp_path / "abd-crash"
    assert main(["simulate", "--n", "5", "--seed", "4", "--ops", "10",
                 "--workload", "abd", "--crashes", "2",
                 "--delay", "sync:5,2", "--out", str(out)]) == 0
    assert (out / "history.jsonl").exists()


def test_rounds_command(tmp_path, capsys):
    out = tmp_path / "rounds"
    assert main(["rounds", "--n", "3", "--rounds", "3", "--seed", "2",
                 "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["accepted"] is True
    history_lines = (out / "history.jsonl").read_text().splitlines()
    objects = {json.loads(line)["object_id"] for line in history_lines}
    assert objects == {0, 1, 2}


def test_check_dispatches_composed_traces(tmp_path):
    out = tmp_path / "rounds"
    main(["rounds", "--n", "3", "--rounds", "2", "--seed", "3",
          "--out", str(out)])
    assert main(["check", str(out / "history.jsonl")]) == 0


def test_usage_error_exit_code():
    assert main(["simulate"]) == 2          # missing --n
    assert main(["no-such-command"]) == 2
    assert main(["simulate", "--n", "3", "--delay", "fast"]) == 2
    assert main(["simulate", "--n", "3", "--delay", "async:1"]) == 2


@pytest.mark.parametrize("argv", [
    ["--n", "3", "--delay", "sync:1,5"],      # transit times down to -4
    ["--n", "3", "--delay", "async:-5,-1"],
    ["--n", "3", "--ops", "-4"],
    ["--n", "0"],
    ["--n", "3", "--crashes", "-1"],
    ["--n", "3", "--delay", "async:0,inf"],
    ["--n", "3", "--delay", "sync:inf,1"],
    ["--n", "3", "--delay", "sync:1e308,-1e308"],   # NaN arrival times
    ["--n", "3", "--delay", "sync:5,-2"],   # transit times above 5
    ["--n", "3", "--delay", "async:8,0.5"],
    ["--n", "2", "--delay", "async:1e308,1.7e308"],  # times past the floats
])
def test_invalid_config_rejected_before_any_event(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert main(["simulate", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "randrange" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--n", "3", "--rounds", "0"],
    ["--n", "3", "--rounds", "-1"],
    ["--n", "3", "--rounds", "2", "--crashes", "-1"],
    ["--n", "5", "--rounds", "2", "--crashes", "3"],   # budget is 2
])
def test_invalid_rounds_config_rejected_before_any_event(tmp_path, capsys, argv):
    out = tmp_path / "rounds"
    assert main(["rounds", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "randrange" not in err
    assert not out.exists()
