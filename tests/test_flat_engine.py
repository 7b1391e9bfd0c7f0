"""Fluid engine: drain contracts and the engine's internal oracle.

These tests pin the contracts the rate-epoch engine
(:class:`repro.runtime.engines.FlatEngine`) rides on:

* rate-epoch drain against precomputed *absolute* deadlines leaves exact
  zero residues (no ``1e-12`` crumbs from incremental subtraction), and a
  10k-task serial chain keeps its only completion order;
* ``REPRO_CHECK_CACHE=1`` arms the engine's internal mask/mirror oracle
  without changing a single bit of the schedule — on a stencil and on
  every committed corpus and fresh fuzz case, which must also match the
  oracle diff and the committed schedule fingerprint;
* a tiny wall-clock limit aborts promptly with every core returned to
  the idle pools (the ``_abort_run`` contract);
* the compiled rate solver is bit-identical to the pure-python one;
* the memory manager's unbound-page counter matches a full recount.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.machine import presets, two_socket
from repro.machine.interconnect import Interconnect
from repro.machine.memory import UNBOUND, MemoryManager
from repro.runtime import Simulator, TaskProgram
from repro.runtime.engines import _INF, FlatEngine
from repro.schedulers import make_scheduler
from repro.verify import VerifyCase, make_case, run_case

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

def serial_chain(n_tasks: int, nbytes: int = 65536) -> TaskProgram:
    """``n_tasks`` tasks in one dependence chain through a single object."""
    p = TaskProgram("serial-chain")
    a = p.data("a", nbytes)
    p.task("init", outs=[a], work=0.3)
    for i in range(n_tasks - 1):
        p.task(f"t{i}", inouts=[a], work=0.3)
    return p.finalize()


def stencil_program(n_sockets: int, scale: int = 6) -> TaskProgram:
    from repro.apps import make_app

    return make_app("synthetic", kind="stencil", scale=scale).build(n_sockets)


class TestSerialChainDrain:
    """Absolute-deadline drain leaves exact zero residues."""

    def test_10k_chain_exact_residues_and_order(self):
        prog = serial_chain(10_000)
        topo = two_socket(cores_per_socket=2)
        sim = Simulator(prog, topo, make_scheduler("las"), verify=False)
        assert isinstance(sim.engine, FlatEngine)
        residues = []
        orig_remove = sim.engine.remove

        def spy(rt):
            orig_remove(rt)
            residues.append((rt.compute_remaining, tuple(rt.streams.values())))

        sim.engine.remove = spy
        flat = sim.run()

        # Every completion drained to *exactly* zero: the engine snaps to
        # the precomputed absolute deadline instead of subtracting one
        # epoch at a time, so no float crumbs survive.
        assert len(residues) == prog.n_tasks
        for c_rem, streams in residues:
            assert c_rem == 0.0
            assert all(b == 0.0 for b in streams)

        # A serial chain admits exactly one completion order.
        assert [r.tid for r in flat.records] == list(range(prog.n_tasks))
        finishes = [r.finish for r in flat.records]
        assert finishes == sorted(finishes)


class TestCheckModeEquivalence:
    """REPRO_CHECK_CACHE=1 arms the engine's internal oracle (mask==bytes,
    slot-mirror consistency) and the schedule stays bit-identical."""

    def test_check_mode_matches_unchecked(self, monkeypatch):
        topo = presets.by_name("four-socket")
        prog = stencil_program(topo.n_sockets)
        results = {}
        for check in ("0", "1"):
            monkeypatch.setenv("REPRO_CHECK_CACHE", check)
            sim = Simulator(
                prog, topo, make_scheduler("rgp+las", window_size=8)
            )
            assert sim.engine.check is (check == "1")
            results[check] = sim.run()
        plain, checked = results["0"], results["1"]
        assert checked.makespan == plain.makespan
        assert checked.records == plain.records


class TestWallClockAbort:
    """A tiny budget aborts promptly and leaves no phantom-busy cores
    (the ``_abort_run`` contract)."""

    def test_tiny_limit_returns_cores_to_idle(self):
        topo = two_socket(cores_per_socket=2)
        prog = stencil_program(topo.n_sockets, scale=8)
        sim = Simulator(
            prog, topo, make_scheduler("las"), wall_clock_limit=1e-9
        )
        with pytest.raises(SimulationError, match="wall-clock limit"):
            sim.run()
        # No half-drained attempts, every core back in an idle pool, and
        # the engine itself is empty (nothing left to complete).
        assert not sim.running
        idle = sorted(core for cores in sim.idle_cores for core in cores)
        assert idle == list(range(topo.n_cores))
        assert sim.engine.next_completion() == _INF
        assert sim.engine.completed() == []


class TestEngineBitIdentity:
    """With the engine's internal oracle armed, every corpus and fresh
    fuzz case agrees with the reference oracle and reproduces its
    committed fingerprint exactly."""

    @pytest.fixture(autouse=True)
    def _check_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_CACHE", "1")

    @staticmethod
    def _diff(case_id, case, expect_fingerprint):
        report = run_case(case)
        assert report.status == "ok", report.summary()
        expect_fingerprint(case_id, report.result)

    @pytest.mark.parametrize(
        "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
    )
    def test_corpus_case(self, path, expect_fingerprint):
        self._diff(os.path.basename(path), VerifyCase.load(path),
                   expect_fingerprint)

    @pytest.mark.parametrize(
        "label,scheduler,kwargs",
        [
            ("las", "las", {}),
            ("rgp+las", "rgp+las", {"window_size": 8}),
            ("dfifo", "dfifo", {}),
        ],
    )
    def test_fresh_fuzz_case(self, label, scheduler, kwargs,
                             expect_fingerprint):
        # A fresh (non-corpus) scenario per policy: random topology,
        # program, fault plan and jitter from the fuzz generator.
        case = make_case(1234, label, scheduler, dict(kwargs))
        self._diff(f"fresh-1234-{label}", case, expect_fingerprint)

    def test_fresh_cluster_fuzz_case(self, expect_fingerprint):
        # Seed 99 deterministically draws a multi-box cluster topology:
        # message events and NIC contention ride the same contract as
        # single-box runs.
        case = make_case(99, "rgp+las", "rgp+las", {"window_size": 8})
        assert getattr(case.topology, "n_boxes", 1) > 1
        self._diff("fresh-99-rgp+las", case, expect_fingerprint)

    def test_corpus_includes_grain_swept_cases(self):
        labels = [VerifyCase.load(p).label or "" for p in CORPUS]
        assert sum("grain-fine" in label for label in labels) >= 2, (
            "corpus must keep the 10x-finer-tile scenarios"
        )


class TestCSolverTwin:
    """The compiled rate solver must be bit-identical to the python one."""

    def test_randomized_configs_exact(self):
        topo = presets.by_name("four-socket")
        ic = Interconnect(topo)
        if ic._cfn is None:
            pytest.skip("C solver unavailable (no compiler?)")
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            sockets = [int(s) for s in rng.integers(0, topo.n_sockets, n)]
            nodes = [int(x) for x in rng.integers(0, topo.n_nodes, n)]
            raw = rng.integers(0, 6, n)
            relabel: dict[int, int] = {}
            canon = [relabel.setdefault(int(g), len(relabel)) for g in raw]
            c = ic._solve_c(sockets, nodes, canon)
            py = ic._solve(sockets, nodes, canon)
            assert c is not None
            assert np.array_equal(c, py), (sockets, nodes, canon)


class TestUnboundCounter:
    """The incremental unbound-page counter equals a full recount after
    any interleaving of touch / bind / interleave operations."""

    def test_counter_matches_recount(self):
        rng = np.random.default_rng(11)
        mm = MemoryManager(4)
        page = mm.page_size
        sizes = {k: int(rng.integers(1, 40)) * page // 2 for k in range(8)}
        for key, size in sizes.items():
            mm.register(key, size)
        for _ in range(300):
            key = int(rng.integers(0, 8))
            size = sizes[key]
            offset = int(rng.integers(0, size))
            length = int(rng.integers(1, size - offset + 1))
            op = rng.integers(0, 3)
            if op == 0:
                mm.touch(key, int(rng.integers(0, 4)), offset, length)
            elif op == 1:
                mm.bind(key, int(rng.integers(0, 4)), offset, length)
            else:
                mm.interleave(key)
            unbound = mm._unbound.get(key, 0)
            recount = int((mm._pages[key] == UNBOUND).sum())
            assert unbound == recount, (key, op)
