"""Direct tests of work stealing: victim order, pop order, probe cost.

Small, hand-checkable cases in the style of a discrete-event engine's own
ordering tests: each pins one rule of the steal path exactly, so the
engine's behaviour is held by the rules themselves rather than by a
second implementation.
"""

import numpy as np
import pytest

from repro.machine import bullion_s16, cluster16, four_socket, two_socket
from repro.runtime import Placement, Simulator, TaskProgram
from repro.schedulers.base import Scheduler

MACHINES = {
    "bullion-s16": bullion_s16,
    "four-socket": four_socket,
    "cluster16": cluster16,
}


class Scripted(Scheduler):
    """Places task ``tid`` where ``plan[tid]`` says."""

    name = "scripted"

    def __init__(self, plan):
        super().__init__()
        self.plan = plan

    def choose(self, task):
        return self.plan[task.tid]


def independent_tasks(works):
    p = TaskProgram("independent")
    for w in works:
        p.task(work=w)
    return p.finalize()


def expected_victims(topo, s, policy):
    """Every other socket the policy lets ``s`` rob, by (distance, id)."""
    row = np.asarray(topo.distance)[s]
    legal = {
        "off": lambda v: False,
        "near": lambda v: row[v] < topo.max_distance(),
        "global": lambda v: True,
    }[policy]
    others = [v for v in range(topo.n_sockets) if v != s and legal(v)]
    return tuple(sorted(others, key=lambda v: (row[v], v)))


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("policy", ["off", "near", "global"])
def test_victim_table_is_the_distance_order(machine, policy):
    topo = MACHINES[machine]()
    sim = Simulator(
        independent_tasks([1.0]), topo, Scripted([Placement(socket=0)]),
        steal=policy,
    )
    for s in topo.sockets():
        assert sim._victims[s] == expected_victims(topo, s, policy), s


def test_near_stealing_on_cluster16_robs_only_the_sibling():
    topo = cluster16()
    sim = Simulator(
        independent_tasks([1.0]), topo, Scripted([Placement(socket=0)]),
        steal="near",
    )
    assert [sim._victims[s] for s in (0, 1, 30, 31)] == [
        (1,), (0,), (31,), (30,)
    ]
    # Global stealing: the sibling first, then every other box by id.
    sim = Simulator(
        independent_tasks([1.0]), topo, Scripted([Placement(socket=0)]),
        steal="global",
    )
    assert sim._victims[5] == (4,) + tuple(
        v for v in range(32) if v not in (4, 5)
    )


def test_steal_takes_the_socket_queue_before_core_queues():
    """Socket 1's only core runs t0; t1 waits in its core queue and t2 in
    its socket queue.  Idle socket 0 must steal t2 first (at t=0), and
    only then t1 (when t2 finishes at t=1)."""
    topo = two_socket(cores_per_socket=1)
    plan = [Placement(core=1), Placement(core=1), Placement(socket=1)]
    res = Simulator(
        independent_tasks([10.0, 1.0, 1.0]), topo, Scripted(plan),
        steal=True, duration_jitter=0.0,
    ).run()
    by_tid = {r.tid: r for r in res.records}
    assert (by_tid[0].socket, by_tid[0].start) == (1, 0.0)
    assert (by_tid[2].socket, by_tid[2].start) == (0, 0.0)
    assert (by_tid[1].socket, by_tid[1].start) == (0, 1.0)
    assert res.steals == 2


def test_idle_machine_with_empty_queues_never_probes_a_victim(monkeypatch):
    """A chain keeps one core busy and 31 idle with nothing queued: every
    dispatch scans for thieves, but no victim holds work, so the steal
    scan must not pop (or even look into) a single victim queue."""
    calls = []
    pop = Simulator._pop_victim_work

    def counting(self, victim):
        calls.append(victim)
        return pop(self, victim)

    monkeypatch.setattr(Simulator, "_pop_victim_work", counting)
    p = TaskProgram("chain")
    x = p.data("x", 4096)
    for _ in range(20):
        p.task(inouts=[x], work=1.0)
    prog = p.finalize()
    res = Simulator(
        prog, bullion_s16(), Scripted([Placement(socket=3)] * 20),
        steal="global", duration_jitter=0.0,
    ).run()
    assert res.makespan > 0 and len(res.records) == 20
    assert calls == []
    assert res.steals == 0
