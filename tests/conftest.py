"""Shared fixtures: small machines and programs used across the suite."""

from __future__ import annotations

import hashlib
import json
import os

import pytest
from hypothesis import settings

# Run the whole suite with the online invariant checker armed: every
# Simulator constructed anywhere in the tests carries the repro.verify
# probe unless a test opts out explicitly (verify=False or monkeypatched
# env).  Tests asserting the zero-overhead guarantee construct their
# simulators with explicit ``verify=`` so this default never skews them.
os.environ.setdefault("REPRO_VERIFY", "1")

from repro.machine import bullion_s16, two_socket
from repro.runtime import TaskProgram

# Derive every property test's examples from the test itself rather than
# a fresh random seed, so two runs of the suite search the same cases and
# a failure found once is found every time.
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


#: Exact schedule fingerprints of the verification corpus and of a few
#: fresh fuzz cases.  They were recorded while a second, per-attempt fluid
#: engine still existed, after it matched the kept engine bit for bit on
#: every case, so each value is one two implementations agreed on.
FINGERPRINTS = os.path.join(
    os.path.dirname(__file__), "data", "engine_fingerprints.json"
)

RECORD_FIELDS = (
    "tid", "core", "socket", "attempt", "start", "finish",
    "local_bytes", "remote_bytes",
)


def schedule_fingerprint(result) -> dict:
    """Exact makespan plus a sha256 over every record's field tuple."""
    rows = [[getattr(r, f) for f in RECORD_FIELDS] for r in result.records]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return {
        "makespan": result.makespan,
        "n_records": len(rows),
        "records_sha256": hashlib.sha256(blob).hexdigest(),
    }


@pytest.fixture(scope="session")
def expect_fingerprint():
    """``check(case_id, result)`` demands the committed fingerprint, with
    ``==`` on every float (the oracle diff tolerates 1e-9; this does not)."""
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        golden = json.load(fh)

    def check(case_id: str, result) -> None:
        assert schedule_fingerprint(result) == golden[case_id], case_id

    return check


@pytest.fixture
def topo2():
    """Two sockets x 2 cores — smallest interesting NUMA machine."""
    return two_socket(cores_per_socket=2)


@pytest.fixture
def topo8():
    """The paper's bullion S16 model."""
    return bullion_s16()


@pytest.fixture
def chain_program():
    """Three-task chain: init writes, two increments follow."""
    prog = TaskProgram("chain")
    a = prog.data("a", 8192)
    prog.task("t0", outs=[a], work=1.0)
    prog.task("t1", inouts=[a], work=1.0)
    prog.task("t2", inouts=[a], work=1.0)
    return prog.finalize()


def make_fan_program(width: int = 8, obj_bytes: int = 65536) -> TaskProgram:
    """One producer per lane, one consumer per lane, plus a final join."""
    prog = TaskProgram("fan")
    lanes = []
    for i in range(width):
        a = prog.data(f"a{i}", obj_bytes)
        prog.task(f"prod{i}", outs=[a], work=0.5)
        lanes.append(a)
    for i, a in enumerate(lanes):
        prog.task(f"cons{i}", ins=[a], work=0.5)
    sink = prog.data("sink", 4096)
    prog.task("join", ins=lanes, outs=[sink], work=0.1)
    return prog.finalize()


@pytest.fixture
def fan_program():
    return make_fan_program()
