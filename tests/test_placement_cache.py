"""Tests for the incremental placement cache (DESIGN.md §9).

The MemoryManager memoises per-(object, range) placements under a
version counter that only advances when a placement actually changes.
These tests pin down the three contracts the scheduling hot path relies
on: cached answers always equal a fresh recompute, cache state is
invisible to schedules (byte-identical runs with the cache on or off),
and the ``REPRO_CHECK_CACHE`` oracle really catches divergence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.machine import MemoryManager, two_socket
from repro.machine.memory import RegionPlacement
from repro.runtime import (
    Simulator,
    TaskProgram,
    allocated_bytes_per_node,
    simulate,
)
from repro.schedulers import SCHEDULERS, make_scheduler

from conftest import make_fan_program

N_NODES = 4
PAGE = 4096


def fresh_pair(sizes):
    """A cached manager and an uncached twin registered identically."""
    cached = MemoryManager(N_NODES, page_size=PAGE, cache=True)
    plain = MemoryManager(N_NODES, page_size=PAGE, cache=False)
    for key, size in enumerate(sizes):
        cached.register(key, size)
        plain.register(key, size)
    return cached, plain


class TestVersionSemantics:
    def test_first_touch_bumps_version(self):
        mm = MemoryManager(N_NODES, page_size=PAGE)
        mm.register(0, 4 * PAGE)
        v0 = mm.object_version(0)
        mm.touch(0, 1)
        assert mm.object_version(0) == v0 + 1

    def test_redundant_touch_keeps_version(self):
        mm = MemoryManager(N_NODES, page_size=PAGE)
        mm.register(0, 4 * PAGE)
        mm.touch(0, 1)
        v1 = mm.object_version(0)
        mm.touch(0, 2)  # every page already bound: no placement change
        assert mm.object_version(0) == v1

    def test_rebind_same_node_keeps_version(self):
        mm = MemoryManager(N_NODES, page_size=PAGE)
        mm.register(0, 4 * PAGE)
        mm.bind(0, 3)
        v1 = mm.object_version(0)
        mm.bind(0, 3)
        assert mm.object_version(0) == v1

    def test_noop_migrate_keeps_version(self):
        mm = MemoryManager(N_NODES, page_size=PAGE)
        mm.register(0, 2 * PAGE)
        mm.migrate(0, 2)  # nothing bound yet, nothing moves
        assert mm.object_version(0) == mm.object_version(0)
        mm.bind(0, 2)
        v = mm.object_version(0)
        mm.migrate(0, 2)  # already all on node 2
        assert mm.object_version(0) == v

    def test_reset_placement_invalidates_everything(self):
        mm = MemoryManager(N_NODES, page_size=PAGE)
        mm.register(0, 2 * PAGE)
        mm.bind(0, 1)
        before = mm.object_version(0)
        mm.node_bytes_of_range(0)
        assert mm.cache_entries == 1
        mm.reset_placement()
        assert mm.object_version(0) == before + 1
        assert mm.cache_entries == 0
        assert mm.node_bytes_of_range(0).total_bound == 0


class TestRangeCache:
    def test_hit_and_miss_counters(self):
        mm = MemoryManager(N_NODES, page_size=PAGE)
        mm.register(0, 4 * PAGE)
        mm.bind(0, 1)
        mm.node_bytes_of_range(0)
        mm.node_bytes_of_range(0)
        assert mm.cache_misses == 1
        assert mm.cache_hits == 1

    def test_stale_entry_recomputed_after_change(self):
        mm = MemoryManager(N_NODES, page_size=PAGE)
        mm.register(0, 4 * PAGE)
        mm.bind(0, 1)
        assert mm.node_bytes_of_range(0).bytes_per_node[1] == 4 * PAGE
        mm.migrate(0, 3)
        placement = mm.node_bytes_of_range(0)
        assert placement.bytes_per_node[3] == 4 * PAGE
        assert placement.bytes_per_node[1] == 0

    def test_cached_array_is_read_only(self):
        mm = MemoryManager(N_NODES, page_size=PAGE)
        mm.register(0, PAGE)
        mm.bind(0, 0)
        placement = mm.node_bytes_of_range(0)
        with pytest.raises(ValueError):
            placement.bytes_per_node[0] = 123

    def test_cache_disabled_never_memoises(self):
        mm = MemoryManager(N_NODES, page_size=PAGE, cache=False)
        mm.register(0, PAGE)
        mm.node_bytes_of_range(0)
        mm.node_bytes_of_range(0)
        assert mm.cache_entries == 0
        assert mm.cache_hits == 0


class TestOracle:
    def test_env_var_enables_check(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_CACHE", "1")
        assert MemoryManager(N_NODES).check_cache
        monkeypatch.setenv("REPRO_CHECK_CACHE", "0")
        assert not MemoryManager(N_NODES).check_cache

    def test_range_oracle_catches_poisoned_entry(self):
        mm = MemoryManager(N_NODES, page_size=PAGE, check=True)
        mm.register(0, 2 * PAGE)
        mm.bind(0, 1)
        mm.node_bytes_of_range(0)  # populate
        wrong = np.zeros(N_NODES, dtype=np.int64)
        wrong[2] = 2 * PAGE
        key = (0, 0, 2 * PAGE)
        ver = mm._range_cache[key][0]
        mm._range_cache[key] = (ver, RegionPlacement(wrong, 0))
        with pytest.raises(MemoryError_, match="divergence"):
            mm.node_bytes_of_range(0)

    def test_task_oracle_catches_poisoned_entry(self):
        prog = TaskProgram()
        a = prog.data("a", 2 * PAGE)
        task = prog.task(ins=[a])
        mm = MemoryManager(N_NODES, page_size=PAGE, check=True)
        mm.register(0, 2 * PAGE)
        mm.bind(0, 1)
        allocated_bytes_per_node(task, mm)  # populate
        sig, per_node, unbound = mm.task_cache[task]
        wrong = per_node.copy()
        wrong[1] = 0
        wrong[0] = 2 * PAGE
        mm.task_cache[task] = (sig, wrong, unbound)
        with pytest.raises(MemoryError_, match="divergence"):
            allocated_bytes_per_node(task, mm)

    def test_honest_cache_passes_oracle(self):
        prog = TaskProgram()
        a = prog.data("a", 3 * PAGE)
        task = prog.task(ins=[a])
        mm = MemoryManager(N_NODES, page_size=PAGE, check=True)
        mm.register(0, 3 * PAGE)
        for _ in range(3):
            mm.touch(0, 2)
            allocated_bytes_per_node(task, mm)
            allocated_bytes_per_node(task, mm)
            mm.migrate(0, 1)
            allocated_bytes_per_node(task, mm)


@st.composite
def cache_workloads(draw, max_objects=3, max_ops=40):
    """Interleavings of placement mutations and range queries."""
    n_objects = draw(st.integers(min_value=1, max_value=max_objects))
    sizes = [
        draw(st.integers(min_value=1, max_value=8 * PAGE))
        for _ in range(n_objects)
    ]
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        kind = draw(st.sampled_from(
            ["touch", "bind", "migrate", "interleave", "query"]
        ))
        key = draw(st.integers(min_value=0, max_value=n_objects - 1))
        node = draw(st.integers(min_value=0, max_value=N_NODES - 1))
        offset = draw(st.integers(min_value=0, max_value=max(0, sizes[key] - 1)))
        length = draw(st.integers(min_value=0, max_value=sizes[key] - offset))
        ops.append((kind, key, node, offset, length))
    return sizes, ops


@given(cache_workloads())
@settings(max_examples=60, deadline=None)
def test_cache_always_matches_fresh_recompute(workload):
    """Property (satellite d): after any interleaving of binds, reads and
    placement degradations, a cached query equals a cache-free recompute."""
    sizes, ops = workload
    cached, plain = fresh_pair(sizes)
    for kind, key, node, offset, length in ops:
        if kind == "query":
            got = cached.node_bytes_of_range(key, offset, length)
            want = plain.node_bytes_of_range(key, offset, length)
            np.testing.assert_array_equal(got.bytes_per_node,
                                          want.bytes_per_node)
            assert got.unbound_bytes == want.unbound_bytes
            continue
        for mm in (cached, plain):
            if kind == "touch":
                mm.touch(key, node, offset, length)
            elif kind == "bind":
                mm.bind(key, node, offset, length)
            elif kind == "migrate":
                mm.migrate(key, node)
            else:
                mm.interleave(key, [node, (node + 1) % N_NODES])
    # Final full-object sweep so every object is compared at least once.
    for key in range(len(sizes)):
        got = cached.node_bytes_of_range(key)
        want = plain.node_bytes_of_range(key)
        np.testing.assert_array_equal(got.bytes_per_node, want.bytes_per_node)
        assert got.unbound_bytes == want.unbound_bytes


class TestZeroOverheadSemantics:
    """The cache must never change a schedule, for any policy."""

    @pytest.mark.parametrize("policy", sorted(SCHEDULERS))
    def test_schedules_byte_identical(self, policy):
        topo = two_socket(cores_per_socket=2)
        program = make_fan_program(width=6)
        for t in program.tasks:  # annotation only the EP policy reads
            t.meta["ep_socket"] = t.tid % topo.n_sockets
        results = {}
        for cache in (False, True):
            sim = Simulator(program, topo, make_scheduler(policy), seed=7)
            sim.memory.cache_enabled = cache  # False: recompute every query
            results[cache] = sim.run()
            if not cache:  # the reference run never consulted a memo
                assert sim.memory.cache_hits == sim.memory.cache_misses == 0
        a, b = results[False], results[True]
        assert a.makespan == b.makespan
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert (ra.tid, ra.core, ra.socket) == (rb.tid, rb.core, rb.socket)
            assert (ra.start, ra.finish) == (rb.start, rb.finish)
            assert ra.local_bytes == rb.local_bytes
            assert ra.remote_bytes == rb.remote_bytes

    def test_oracle_run_matches_plain_cached_run(self):
        topo = two_socket(cores_per_socket=2)
        program = make_fan_program(width=4)
        sim = Simulator(program, topo, make_scheduler("las"), seed=3)
        sim.memory.check_cache = True  # REPRO_CHECK_CACHE oracle
        res = sim.run()
        ref = simulate(program, topo, make_scheduler("las"), seed=3)
        assert res.makespan == ref.makespan
