"""The generators' output, pinned field by field, and the contract of the
records they build: a change to how a WorkItem or CrashSpec is stored must
leave every generated workload, crash schedule and record behaviour as it
was."""

from __future__ import annotations

import hashlib
import inspect

import pytest

from seqsnap.rounds import RoundConfig, round_workload
from seqsnap.sim import CrashSpec, WorkItem
from seqsnap.workloads import (abd_workload, random_crashes, random_workload,
                               trim_for_crashes, write_heavy_workload)

WORK_FIELDS = {"proc": inspect.Parameter.empty, "at": inspect.Parameter.empty,
               "action": inspect.Parameter.empty, "value": None,
               "target": None, "object_id": 0}
CRASH_FIELDS = {"proc": inspect.Parameter.empty, "at_time": None,
                "on_send": None, "recipients": None}

# (n, ops or rounds, seed); each n from 1 to 7 and both a few and many ops
SIZES = [(1, 0, 0), (1, 5, 3), (2, 7, 1), (3, 30, 4), (5, 64, 11),
         (6, 13, 2), (7, 200, 9)]

# SHA-256 of generated_lines(), taken before WorkItem and CrashSpec became
# NamedTuples
GENERATED_DIGEST = "8beb890d4f8a3a5938d43575588b84682c4de1c8bb6dca6beab018030bda829d"


def field_text(value) -> str:
    """A field exactly: a float as float.hex(), anything else as repr."""
    if type(value) is float:
        return value.hex()
    if type(value) is tuple:
        return "(" + ",".join(field_text(v) for v in value) + ")"
    return repr(value)


def record_line(record, fields) -> str:
    return " ".join(f"{name}={field_text(getattr(record, name))}"
                    for name in fields)


def generated_lines():
    """One header line per generator and size, then one line per record."""
    for n, size, seed in SIZES:
        crashes = random_crashes(n, (n - 1) // 2, seed)
        outputs = {
            "random_workload": random_workload(n, size, seed),
            "write_heavy_workload": write_heavy_workload(n, size, seed),
            "abd_workload": abd_workload(n, size, seed),
            "random_crashes": crashes,
            "trim_for_crashes": trim_for_crashes(
                random_workload(n, size, seed), crashes),
            "round_workload": round_workload(
                RoundConfig(n=n, rounds=1 + size % 6, seed=seed)),
        }
        for name, records in outputs.items():
            yield f"{name} n={n} size={size} seed={seed} count={len(records)}"
            fields = CRASH_FIELDS if name == "random_crashes" else WORK_FIELDS
            for record in records:
                yield record_line(record, fields)


def test_generators_output_is_pinned():
    text = "\n".join(generated_lines()).encode()
    assert hashlib.sha256(text).hexdigest() == GENERATED_DIGEST


def test_some_pinned_crash_is_timed_and_trims_its_process():
    # the pin covers both crash kinds and a trim that drops items
    kinds = set()
    trimmed = False
    for n, size, seed in SIZES:
        crashes = random_crashes(n, (n - 1) // 2, seed)
        kinds |= {crash.at_time is None for crash in crashes}
        workload = random_workload(n, size, seed)
        trimmed |= len(trim_for_crashes(workload, crashes)) < len(workload)
    assert kinds == {True, False} and trimmed


@pytest.mark.parametrize("record, fields", [(WorkItem, WORK_FIELDS),
                                            (CrashSpec, CRASH_FIELDS)])
def test_record_fields_order_and_defaults(record, fields):
    parameters = inspect.signature(record).parameters
    assert {name: p.default for name, p in parameters.items()} == fields
    assert list(parameters) == list(fields)


def test_record_repr():
    assert repr(WorkItem(0, 1.5, "write", value=7)) == (
        "WorkItem(proc=0, at=1.5, action='write', value=7, target=None, "
        "object_id=0)")
    assert repr(CrashSpec(2, on_send=3, recipients=(0, 1))) == (
        "CrashSpec(proc=2, at_time=None, on_send=3, recipients=(0, 1))")


@pytest.mark.parametrize("make", [
    lambda: WorkItem(1, 0.5, "read", target=2),
    lambda: CrashSpec(1, at_time=4.25),
], ids=["work-item", "crash-spec"])
def test_records_are_immutable_values(make):
    first, second = make(), make()
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    with pytest.raises(AttributeError):
        first.proc = 0
    assert first == second


@pytest.mark.parametrize("generate, args", [
    (random_crashes, (5, 1.0, 0)),
    (random_crashes, (5, True, 0)),
    (random_crashes, (True, 0, 0)),
    (random_workload, (True, 4, 0)),
    (random_workload, (2.0, 4, 0)),
    (random_workload, (2, 4.0, 0)),
    (write_heavy_workload, (2, False, 0)),
    (abd_workload, (0, 4, 0)),
    (abd_workload, (2, -1, 0)),
], ids=["crash-count-float", "crash-count-bool", "crash-n-bool",
        "workload-n-bool", "workload-n-float", "workload-ops-float",
        "write-heavy-ops-bool", "abd-n-0", "abd-ops-negative"])
def test_generator_sizes_are_plain_ints(generate, args):
    with pytest.raises(ValueError):
        generate(*args)
