"""Online invariant checker: seeded violations and the inertness guarantee.

Two properties matter: the checker must *fire* on every class of corruption
it claims to cover (each seeded-violation test below tampers with exactly
one invariant), and with verification disabled the simulator must be
byte-identical to a run that never heard of ``repro.verify`` — pinned both
pairwise (verify on vs off) and against the pre-existing golden inertness
grid.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.errors import VerificationError
from repro.machine import two_socket
from repro.machine.interconnect import Interconnect
from repro.runtime import Simulator, TaskProgram
from repro.schedulers import make_scheduler
from repro.verify import InvariantChecker, POLICY_MATRIX, make_case, run_case


def _program(n_lanes=4):
    prog = TaskProgram("inv")
    lanes = [prog.data(f"a{i}", 65536) for i in range(n_lanes)]
    for i, a in enumerate(lanes):
        prog.task(f"p{i}", outs=[a], work=0.5)
    for i, a in enumerate(lanes):
        prog.task(f"c{i}", ins=[a], work=0.5)
    return prog.finalize()


def _sim(verify, seed=0, **kwargs):
    topo = two_socket(cores_per_socket=2)
    return Simulator(
        _program(), topo, make_scheduler("las"),
        interconnect=Interconnect(topo), seed=seed, verify=verify, **kwargs,
    )


def _fake_rt(tid, core, socket, start=0.0, epoch=0):
    task = types.SimpleNamespace(tid=tid, epoch=epoch)
    return types.SimpleNamespace(task=task, core=core, socket=socket,
                                 start=start)


# ----------------------------------------------------------------------
# Seeded violations: each corruption must raise VerificationError
# ----------------------------------------------------------------------
def test_core_exclusivity_violation():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    checker.on_start(_fake_rt(0, core=1, socket=0), 1.0, 0)
    with pytest.raises(VerificationError, match="core exclusivity"):
        checker.on_start(_fake_rt(1, core=1, socket=0), 1.0, 0)


def test_quarantined_core_violation():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    sim.quarantined.add(2)
    with pytest.raises(VerificationError, match="quarantined"):
        checker.on_start(_fake_rt(0, core=2, socket=1), 1.0, 0)


def test_dependence_causality_violation():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    sim.pending_deps[3] = 1
    with pytest.raises(VerificationError, match="dependence causality"):
        checker.on_start(_fake_rt(3, core=0, socket=0), 1.0, 0)


def test_barrier_epoch_violation():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    with pytest.raises(VerificationError, match="barrier causality"):
        checker.on_start(_fake_rt(0, core=0, socket=0, epoch=5), 1.0, 0)


def test_jitter_bound_violation():
    sim = _sim(verify=False, duration_jitter=0.05)
    checker = InvariantChecker(sim)
    with pytest.raises(VerificationError, match="jitter factor"):
        checker.on_start(_fake_rt(0, core=0, socket=0), 2.0, 0)


def test_clock_monotonicity_violation():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    sim.now = 10.0
    checker.on_loop(sim)
    sim.now = 1.0
    with pytest.raises(VerificationError, match="clock went backwards"):
        checker.on_loop(sim)


def test_phantom_busy_core_violation():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    # A core both idle and "running" according to the simulator.
    rt = _fake_rt(0, core=0, socket=0)
    checker.on_start(rt, 1.0, 0)
    sim.running[0] = rt
    with pytest.raises(VerificationError, match="phantom-busy|idle and running"):
        checker.on_loop(sim)


def test_queued_count_violation():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    checker.on_loop(sim)
    # A task queued behind the simulator's back: the count misses it.
    sim.core_queues[3].append(sim.program.tasks[0])
    with pytest.raises(VerificationError, match="socket 1's queued count"):
        checker.on_loop(sim)


def test_parked_leak_violation():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    sim.parked_by_key[7] = [types.SimpleNamespace(tid=0)]
    sim.done[:] = True
    with pytest.raises(VerificationError, match="park_key leak"):
        checker.on_run_end(sim, types.SimpleNamespace(events=[]))


def test_event_stream_monotonicity_violation():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    sim.done[:] = True
    ev = lambda ts: types.SimpleNamespace(ts=ts, kind="x")  # noqa: E731
    result = types.SimpleNamespace(events=[ev(1.0), ev(0.5)])
    with pytest.raises(VerificationError, match="event stream goes backwards"):
        checker.on_run_end(sim, result)


def test_byte_conservation_violation_on_migrate():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    key = next(iter(sim.memory._pages))
    sim.memory.touch(key, 0)
    checker.on_memory_op(sim.memory, "touch", key)
    # Destroy bound pages behind the checker's back, then claim a migrate.
    from repro.machine.memory import UNBOUND

    sim.memory._pages[key][:] = UNBOUND
    with pytest.raises(VerificationError, match="byte-conservation"):
        checker.on_memory_op(sim.memory, "migrate", key)


def test_global_byte_reconcile_violation():
    sim = _sim(verify=False)
    checker = InvariantChecker(sim)
    key = next(iter(sim.memory._pages))
    sim.memory.touch(key, 0)
    sim.memory.bytes_on_node[0] += 4096  # cook the books
    with pytest.raises(VerificationError, match="byte-conservation"):
        checker.on_memory_op(sim.memory, "touch", key)


# ----------------------------------------------------------------------
# End-to-end: the armed checker stays silent on healthy runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,scheduler,kwargs", POLICY_MATRIX)
def test_checker_silent_on_healthy_runs(label, scheduler, kwargs):
    case = make_case(13, label, scheduler, kwargs)
    sim_kwargs = dict(case.sim_kwargs)
    sim_kwargs["verify"] = True
    from repro.verify import VerifyCase

    armed = VerifyCase(
        program=case.program, topology=case.topology,
        scheduler=case.scheduler, scheduler_kwargs=case.scheduler_kwargs,
        interconnect_kwargs=case.interconnect_kwargs, sim_kwargs=sim_kwargs,
        faults=case.faults, label=case.label,
    )
    report = run_case(armed)
    assert report.status in ("ok", "production-error"), report.summary()


def test_checker_catches_leak_in_real_run(monkeypatch):
    """A simulator that forgets the parked_by_key cleanup trips the probe."""
    orig = Simulator.reoffer

    def leaky(self, tasks):
        snapshot = {k: list(v) for k, v in self.parked_by_key.items()}
        orig(self, tasks)
        self.parked_by_key.update(snapshot)

    monkeypatch.setattr(Simulator, "reoffer", leaky)
    topo = two_socket(cores_per_socket=2)
    prog = _program()
    sim = Simulator(
        prog, topo,
        make_scheduler("rgp", window_size=4, propagation="repartition",
                       partition_delay=0.1, prefetch_threshold=0.5),
        interconnect=Interconnect(topo), seed=0, verify=True,
    )
    with pytest.raises(VerificationError, match="park_key leak"):
        sim.run()


# ----------------------------------------------------------------------
# Inertness: disabled checker is byte-identical
# ----------------------------------------------------------------------
def _records_tuple(result):
    return [
        (r.tid, r.core, r.socket, r.start, r.finish, r.attempt)
        for r in result.records
    ]


@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_verify_off_is_byte_identical(jitter):
    res_off = _sim(verify=False, seed=5, duration_jitter=jitter).run()
    res_on = _sim(verify=True, seed=5, duration_jitter=jitter).run()
    assert _records_tuple(res_off) == _records_tuple(res_on)
    assert res_off.makespan == res_on.makespan
    assert res_off.local_bytes == res_on.local_bytes
    assert res_off.remote_bytes == res_on.remote_bytes
    assert np.array_equal(res_off.bytes_by_pair, res_on.bytes_by_pair)


def test_verify_env_flag_honoured(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "0")
    sim = _sim(verify=None)
    assert sim.probe is None
    monkeypatch.setenv("REPRO_VERIFY", "1")
    sim = _sim(verify=None)
    assert sim.probe is not None
    # Explicit verify= beats the environment.
    monkeypatch.setenv("REPRO_VERIFY", "1")
    sim = _sim(verify=False)
    assert sim.probe is None


def test_golden_grid_unaffected_by_verify_flag():
    """Sample the golden inertness grid: verify=False equals verify=True."""
    from test_rgp_inertness import POLICIES, chains_program

    program = chains_program()
    topo = two_socket(cores_per_socket=2)
    for name in ("dfifo", "las"):
        off = Simulator(program, topo, POLICIES[name](), seed=0,
                        verify=False).run()
        on = Simulator(program, topo, POLICIES[name](), seed=0,
                       verify=True).run()
        assert _records_tuple(off) == _records_tuple(on)
