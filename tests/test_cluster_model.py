"""Cluster machine model: messages, NIC contention, per-box faults, remap.

Covers the distributed machine model (DESIGN.md §15): explicit inter-box
message events and the per-link traffic matrix, NIC bandwidth contention,
the ``NodeLoss`` / ``NetworkDegradation`` fault families, the nearest
-surviving-socket placement remap (the box-aware bugfix: orphaned
placements must go to the *sibling* socket before anything across the
network, and equidistant survivors are spread by load), the end-of-run
in-flight-message drain check, and the ``mem_network`` critical-path
component.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import make_app
from repro.errors import SimulationError
from repro.faults import FaultPlan, NetworkDegradation, NodeLoss
from repro.machine import Interconnect, cluster, two_socket
from repro.profiling import profile_run
from repro.runtime import Message, Simulator, TaskProgram
from repro.runtime.validation import validate_schedule
from repro.schedulers import make_scheduler


def cross_box_program(nbytes: int = 1 << 20) -> TaskProgram:
    """Producers pinned to box 0, a consumer pinned to box 1 (EP hints).

    On ``cluster(2)`` (sockets 0/1 in box 0, 2/3 in box 1) the consumer's
    read of ``a`` crosses the network; its read of ``b`` stays inside
    box 1 (plain NUMA-remote traffic, not a message).
    """
    p = TaskProgram("xbox")
    a = p.data("a", nbytes)
    b = p.data("b", nbytes)
    p.task("init_a", outs=[a], work=0.2, meta={"ep_socket": 0})
    p.task("init_b", outs=[b], work=0.2, meta={"ep_socket": 2})
    p.task("consume", ins=[a, b], work=0.2, meta={"ep_socket": 3})
    return p.finalize()


def run(prog, topo, policy="ep", faults=None, seed=0, **kw):
    sim = Simulator(
        prog, topo, make_scheduler(policy), seed=seed, faults=faults, **kw
    )
    return sim.run()


class TestMessageEvents:
    def test_cross_box_read_produces_messages(self):
        topo = cluster(2)
        res = run(cross_box_program(), topo)
        assert res.messages, "cross-box read must be recorded as a message"
        for msg in res.messages:
            assert isinstance(msg, Message)
            assert msg.src_box != msg.dst_box
            assert msg.nbytes > 0
            assert msg.send <= msg.recv <= res.makespan + 1e-9
        # Receive-ordered, and consistent with the link matrix.
        recvs = [m.recv for m in res.messages]
        assert recvs == sorted(recvs)
        assert res.bytes_by_link is not None
        assert res.bytes_by_link.shape == (2, 2)
        assert np.all(np.diag(res.bytes_by_link) == 0.0)
        by_link = np.zeros((2, 2))
        for m in res.messages:
            by_link[m.src_box, m.dst_box] += m.nbytes
        assert np.allclose(by_link, res.bytes_by_link)
        assert res.net_bytes > 0
        # a crossed the network; b stayed in box 1.
        assert res.bytes_by_link[0, 1] >= 1 << 20

    def test_single_box_run_has_no_messages(self):
        p = TaskProgram("local")
        a = p.data("a", 1 << 20)
        p.task("init", outs=[a], work=0.2)
        p.task("use", ins=[a], work=0.2)
        res = run(p.finalize(), two_socket(), policy="las")
        assert res.messages == []
        assert res.bytes_by_link is None
        assert res.net_bytes == 0.0

    def test_smaller_nic_stretches_cross_box_transfers(self):
        prog = cross_box_program()
        fast = run(prog, cluster(2, nic_fraction=0.25))
        slow = run(prog, cluster(2, nic_fraction=0.02))
        assert slow.makespan > fast.makespan


class TestClusterFaults:
    def test_node_loss_remaps_to_surviving_box(self):
        topo = cluster(2)
        prog = cross_box_program()
        plan = FaultPlan(node_losses=(NodeLoss(box=1, at=0.05),))
        res = run(prog, topo, faults=plan, max_retries=10)
        assert res.n_tasks == prog.n_tasks
        assert res.cores_failed == topo.sockets_per_box * topo.cores_per_socket
        validate_schedule(prog, res, topo)
        lost = set(topo.sockets_of_box(1))
        for rec in res.records:
            if rec.start >= 0.05:
                assert rec.socket not in lost

    def test_transient_node_loss_recovers(self):
        topo = cluster(2)
        prog = cross_box_program()
        plan = FaultPlan(
            node_losses=(NodeLoss(box=0, at=0.05, duration=0.2),)
        )
        res = run(prog, topo, faults=plan, max_retries=10)
        assert res.n_tasks == prog.n_tasks
        validate_schedule(prog, res, topo)

    def test_network_degradation_never_speeds_up(self):
        prog = cross_box_program()
        topo = cluster(2)
        base = run(prog, topo)
        plan = FaultPlan(
            network_degradations=(
                NetworkDegradation(box=0, at=0.0, factor=0.2),
            )
        )
        degraded = run(prog, topo, faults=plan)
        assert degraded.makespan > base.makespan  # box 0 feeds the consumer


class TestNearestSurvivorRemap:
    """The placement/remap bugfix: dead-socket placements must go to the
    closest surviving socket by SLIT distance (the sibling socket of the
    same box beats anything across the network), equidistant survivors
    spread by load instead of funnelling onto the lowest id."""

    def _sim(self, topo):
        return Simulator(cross_box_program(), topo, make_scheduler("ep"))

    def test_sibling_socket_beats_network(self):
        topo = cluster(2)
        sim = self._sim(topo)
        for core in topo.cores_of_socket(0):
            sim.quarantined.add(core)
        # Socket 1 (distance 16) must win over box-1 sockets (distance 60).
        assert sim.nearest_alive_socket(0) == 1

    def test_whole_box_loss_spreads_ties_by_load(self):
        topo = cluster(3)  # boxes: {0,1}, {2,3}, {4,5}
        sim = self._sim(topo)
        for s in topo.sockets_of_box(0):
            for core in topo.cores_of_socket(s):
                sim.quarantined.add(core)
        # All four survivors are equidistant (network tier); unloaded,
        # the lowest id wins.
        assert sim.nearest_alive_socket(0) == 2
        # Load socket 2's queue and the remap must pick an idle sibling.
        sim.socket_queues[2].extend(sim.program.tasks[:2])
        sim._queued[2] += 2
        assert sim.nearest_alive_socket(0) == 3

    def test_remap_goes_through_distance_not_modulo(self):
        # Regression shape: with socket 2 dead on a 2-box cluster the old
        # wrap-around remap would pick socket 3's *box-0* neighbour by id
        # arithmetic; distance says the sibling socket 3 must win.
        topo = cluster(2)
        sim = self._sim(topo)
        for core in topo.cores_of_socket(2):
            sim.quarantined.add(core)
        assert sim.nearest_alive_socket(2) == 3


class TestDrainValidation:
    def test_leaked_in_flight_message_detected(self):
        topo = cluster(2)
        prog = cross_box_program()
        sim = Simulator(prog, topo, make_scheduler("ep"))
        res = sim.run()
        validate_schedule(prog, res, topo, simulator=sim)  # clean
        sim._msgs_in_flight = {5: [object()]}
        with pytest.raises(SimulationError, match="in-flight messages"):
            validate_schedule(prog, res, topo, simulator=sim)


class TestNetworkAttribution:
    def test_mem_network_component_on_cluster_run(self):
        topo = cluster(2)
        prog = make_app("jacobi", nt=4, tile=64, sweeps=2).build(
            topo.n_sockets
        )
        interconnect = Interconnect(topo)
        sim = Simulator(
            prog, topo, make_scheduler("ep"), interconnect=interconnect
        )
        res = sim.run()
        report = profile_run(prog, res, topo, interconnect=interconnect)
        assert "mem_network" in report.totals
        assert report.component_sum() == pytest.approx(
            report.makespan, abs=1e-9
        )
        totals = report.machine_totals()
        assert totals["mem_network"] > 0.0

    def test_mem_network_zero_on_single_box(self):
        topo = two_socket()
        prog = make_app("jacobi", nt=4, tile=64, sweeps=2).build(
            topo.n_sockets
        )
        interconnect = Interconnect(topo)
        sim = Simulator(
            prog, topo, make_scheduler("las"), interconnect=interconnect
        )
        res = sim.run()
        report = profile_run(prog, res, topo, interconnect=interconnect)
        assert report.totals["mem_network"] == 0.0
        assert report.machine_totals()["mem_network"] == 0.0


class TestClusterCLI:
    def test_run_cluster_flag(self, capsys):
        from repro.cli import main

        rc = main([
            "run", "--app", "jacobi", "--scheduler", "las",
            "--cluster", "2", "--quick",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cluster2" in out
        assert "msgs=" in out

    @pytest.mark.parametrize("n_boxes", ["0", "-2"])
    def test_run_cluster_flag_rejects_bad_sizes(self, capsys, n_boxes):
        # --cluster 0 must not silently fall back to --machine, and a
        # negative count must surface as a config error (exit 2), not a
        # raw numpy ValueError.
        from repro.cli import main

        rc = main([
            "run", "--app", "jacobi", "--scheduler", "las",
            "--cluster", n_boxes, "--quick",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "at least one box" in err
