"""Discrete-event NUMA machine simulator with fluid memory streams.

This is the substitute for running on real hardware (DESIGN.md §2).  Time
advances between *events* (task completions and scheduler timers).  While a
task runs it owns one core and drains:

* a **compute component** at rate 1 (time units of ``task.work``), and
* one **memory stream per NUMA node** it touches, whose instantaneous rate
  comes from :class:`~repro.machine.interconnect.Interconnect` (processor
  sharing of each node's bandwidth, scaled by socket distance).

A task finishes when compute *and* all streams have drained (roofline-style
overlap of compute and memory).  Because rates only change when the set of
running tasks changes, completions can be predicted exactly between events.

Scheduling protocol: when a task becomes ready the attached scheduler's
``choose(task)`` returns a :class:`~repro.runtime.placement.Placement` —
a socket queue (work-pushing), a core queue (DFIFO), or *park* (RGP's
temporary queue while the window partition is pending).  Idle cores pull
from their queues; optional distance-aware work stealing rebalances.

Resilient execution (DESIGN.md §7): an optional
:class:`~repro.faults.plan.FaultPlan` injects core failures, stragglers,
task crashes and bandwidth degradation through the same timer mechanism
schedulers use.  Crashed attempts are re-executed (dependence-safe: a
crashed task never released its successors) up to ``max_retries`` times
with exponential backoff; failed cores are quarantined and their queued
work re-offered; placements aimed at dead cores/sockets are transparently
remapped to the nearest surviving socket.  With no plan (or an empty one)
every fault path is skipped and results are identical to the fault-free
simulator.

Observability (DESIGN.md §8): an optional
:class:`~repro.observability.Instrumentation` receives structured events
(task lifecycle, placement decisions, steals, faults, epochs) and feeds a
metrics registry (queue depths, busy cores, the NUMA traffic matrix,
cumulative local/remote bytes).  Emitting never touches simulator state
or an RNG, so instrumented and uninstrumented runs are byte-identical.
"""

from __future__ import annotations

import heapq
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import FaultError, ReproError, SimulationError
from ..machine.interconnect import Interconnect
from ..machine.memory import DEFAULT_PAGE_SIZE, MemoryManager
from ..machine.topology import NumaTopology
from .cost import traffic_streams
from .engines import (  # noqa: F401 (re-export)
    _EPS,
    _EPS_BYTES,
    _INF,
    FlatEngine,
    _Running,
)
from .placement import Placement
from .program import TaskProgram
from .result import Message, SimulationResult, TaskRecord
from .task import Task


def _verify_env() -> bool:
    """True when ``REPRO_VERIFY`` asks for the online invariant checker."""
    flag = os.environ.get("REPRO_VERIFY", "").strip().lower()
    return flag not in ("", "0", "off", "false")


@dataclass(order=True)
class _Timer:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)


class Simulator:
    """Simulate one program on one machine under one scheduler."""

    def __init__(
        self,
        program: TaskProgram,
        topology: NumaTopology,
        scheduler,
        *,
        interconnect: Interconnect | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        steal: bool | str = True,
        steal_distance: float | None = None,
        seed: int = 0,
        duration_jitter: float = 0.03,
        max_iterations: int | None = None,
        faults=None,
        max_retries: int = 3,
        retry_backoff: float = 0.0,
        wall_clock_limit: float | None = None,
        instrument=None,
        probe=None,
        verify: bool | None = None,
    ) -> None:
        program.validate()
        self.program = program
        self.topology = topology
        self.interconnect = interconnect or Interconnect(topology)
        ic_topo = self.interconnect.topology
        if (
            ic_topo.n_sockets != topology.n_sockets
            or ic_topo.cores_per_socket != topology.cores_per_socket
            or getattr(ic_topo, "n_resources", ic_topo.n_nodes)
            != getattr(topology, "n_resources", topology.n_nodes)
            or not np.allclose(ic_topo.distance, topology.distance)
        ):
            raise SimulationError(
                "interconnect was built for a structurally different topology"
            )
        # Cluster structure (None on a single box): cross-box traffic is
        # re-keyed from the remote memory node onto the source box's NIC
        # resource, producing explicit messages instead of implicit remote
        # loads.  ``n_resources`` sizes every per-resource array below.
        self.n_resources = getattr(topology, "n_resources", topology.n_nodes)
        n_boxes = getattr(topology, "n_boxes", 1)
        self.n_boxes = n_boxes
        if n_boxes > 1:
            self._box_of_socket: list[int] | None = [
                topology.box_of_socket(s) for s in range(topology.n_sockets)
            ]
            self._nic_of_box = [
                topology.nic_of_box(b) for b in range(n_boxes)
            ]
            self.bytes_by_link = np.zeros((n_boxes, n_boxes), dtype=np.float64)
        else:
            self._box_of_socket = None
            self._nic_of_box = None
            self.bytes_by_link = None
        self.messages: list[Message] = []
        self.messages_dropped = 0
        #: Per-attempt in-flight transfers: tid -> [(src_box, dst_box,
        #: nbytes, send_ts)].  Stamped into Message records at finish,
        #: dropped on crash; must be empty when the run drains.
        self._msgs_in_flight: dict[int, list[tuple[int, int, float, float]]] = {}
        # Steal policy: True/"global" (any victim), "near" (victims within
        # ``steal_distance``, default: strictly closer than the machine
        # diameter, i.e. same module on the bullion), False/"off".
        if steal in (True, "global"):
            self.steal_enabled = True
            self.steal_distance = float("inf")
        elif steal == "near":
            self.steal_enabled = True
            self.steal_distance = (
                float(steal_distance)
                if steal_distance is not None
                else topology.max_distance() - 1e-9
            )
        elif steal in (False, "off"):
            self.steal_enabled = False
            self.steal_distance = 0.0
        else:
            raise SimulationError(f"unknown steal policy {steal!r}")
        #: Legal steal victims per thief socket, nearest first (distance,
        #: then socket id: the ``sockets_by_distance`` order).
        self._victims: tuple[tuple[int, ...], ...] = tuple(
            tuple(
                v for v in topology.sockets_by_distance(s)
                if v != s and topology.dist(s, v) <= self.steal_distance
            )
            for s in topology.sockets()
        )
        self.seed = int(seed)
        if not 0.0 <= duration_jitter < 1.0:
            raise SimulationError("duration_jitter must be in [0, 1)")
        # Multiplicative per-task noise (OS noise, cache effects): without it
        # the fluid model is perfectly periodic and cyclic policies can lock
        # into accidental task->core alignments a real machine never keeps.
        self.duration_jitter = float(duration_jitter)
        self.rng = np.random.default_rng([self.seed, 0x51])
        self.max_iterations = (
            max_iterations
            if max_iterations is not None
            else 50 * max(1, program.n_tasks) + 1000
        )

        # Memory image: register all objects, apply explicit pre-bindings.
        self.memory = MemoryManager(topology.n_nodes, page_size)
        for obj in program.objects:
            self.memory.register(obj.key, obj.size_bytes)
            if obj.initial_node is not None:
                self.memory.bind(obj.key, obj.initial_node)
            elif obj.interleaved:
                self.memory.interleave(obj.key)

        # Queues.
        self.socket_queues: list[deque[Task]] = [
            deque() for _ in range(topology.n_sockets)
        ]
        self.core_queues: list[deque[Task]] = [deque() for _ in range(topology.n_cores)]
        #: Tasks queued per socket: its socket queue plus its cores' queues.
        #: Kept at every append/pop so a steal probe skips an empty victim
        #: in O(1) (pinned by ``InvariantChecker.on_loop``).
        self._queued: list[int] = [0] * topology.n_sockets
        self._cores: tuple[tuple[int, ...], ...] = tuple(
            tuple(topology.cores_of_socket(s)) for s in topology.sockets()
        )
        self.idle_cores: list[list[int]] = [
            list(reversed(topology.cores_of_socket(s))) for s in topology.sockets()
        ]
        self.parked: list[Task] = []
        #: Parked tasks additionally indexed by the scheduler's ``park_key``
        #: (RGP pipelining: key = the window index a task waits on), so one
        #: window's temporary queue can be re-offered without touching the
        #: others.  Untouched when schedulers park without a key.
        self.parked_by_key: dict[int, list[Task]] = {}

        # Task state.
        n = program.n_tasks
        self.pending_deps = np.array(
            [program.tdg.in_degree(t) for t in range(n)], dtype=np.int64
        )
        self.done = np.zeros(n, dtype=bool)
        self.n_done = 0
        self.running: dict[int, _Running] = {}

        # Fluid engine (DESIGN.md §14): the drain/predict mechanics.
        self.engine = FlatEngine(self)

        # Barrier epochs.
        self.n_epochs = program.n_epochs
        self.remaining_in_epoch = np.zeros(self.n_epochs, dtype=np.int64)
        for t in program.tasks:
            self.remaining_in_epoch[t.epoch] += 1
        self.active_epoch = 0
        self.held_by_epoch: list[list[Task]] = [[] for _ in range(self.n_epochs)]

        # Clock and timers.
        self.now = 0.0
        self._timers: list[_Timer] = []
        self._timer_seq = 0

        # Statistics.
        self.records: list[TaskRecord] = []
        self._start_traffic: dict[int, tuple[float, float]] = {}
        self.bytes_by_pair = np.zeros(
            (topology.n_sockets, topology.n_nodes), dtype=np.float64
        )
        self.busy_time = np.zeros(topology.n_sockets, dtype=np.float64)
        self.steals = 0
        self.parked_total = 0

        # Verification probe (repro.verify, or None).  Like instrumentation,
        # every call site is guarded by one ``is not None`` check and no
        # probe is installed by default, so unverified runs are untouched.
        self.probe = probe

        # Fault injection and recovery (all dormant when faults is None).
        if faults is not None and faults.is_empty():
            faults = None  # zero-overhead guarantee: empty plan == no plan
        if faults is not None:
            faults.validate_against(topology)
        self.faults = faults
        if max_retries < 0:
            raise SimulationError("max_retries must be >= 0")
        self.max_retries = int(max_retries)
        if retry_backoff < 0:
            raise SimulationError("retry_backoff must be >= 0")
        self.retry_backoff = float(retry_backoff)
        if wall_clock_limit is not None and wall_clock_limit <= 0:
            raise SimulationError("wall_clock_limit must be positive or None")
        self.wall_clock_limit = wall_clock_limit
        self._deadline: float | None = None
        self._starts_since_check = 0
        #: Cores currently failed; never idle, never dispatched to.
        self.quarantined: set[int] = set()
        self._core_speed: np.ndarray | None = None  # lazily != 1.0
        self._node_bw_factor: np.ndarray | None = None  # lazily != 1.0
        self.attempts = np.zeros(n, dtype=np.int64)  # failed attempts per task
        self.reexecutions = 0
        self.wasted_work = 0.0
        self.crashed_records: list[TaskRecord] = []
        self.cores_failed = 0
        self._injector = None

        # Observability (repro.observability.Instrumentation, or None).
        # Every emit site is guarded by one ``is not None`` check and no
        # emit path touches simulator state or an RNG, so results with and
        # without instrumentation are byte-identical (tested).
        self.obs = instrument
        if instrument is not None:
            self._m_traffic = instrument.registry.matrix(
                "numa.traffic", (topology.n_sockets, topology.n_nodes)
            )
            if n_boxes > 1:
                self._m_link = instrument.registry.matrix(
                    "net.traffic", (n_boxes, n_boxes)
                )

        self.scheduler = scheduler
        scheduler.attach(self, np.random.default_rng([self.seed, 0xA5]))
        if faults is not None:
            from ..faults.injector import FaultInjector

            configure = getattr(scheduler, "configure_faults", None)
            if configure is not None:
                configure(faults)
            self._injector = FaultInjector(
                faults, self, np.random.default_rng([self.seed, 0xFA17])
            )
            self._injector.arm()

        # Online invariant checking (DESIGN.md §11): opt-in per run via
        # ``verify=True`` or globally via ``REPRO_VERIFY=1``.  The checker
        # rides the same probe slot as a recorder, composed when both are
        # present, and additionally watches the memory manager.
        if _verify_env() if verify is None else bool(verify):
            from ..verify.invariants import InvariantChecker

            checker = InvariantChecker(self)
            if self.probe is None:
                self.probe = checker
            else:
                from ..verify.probe import CompositeProbe

                self.probe = CompositeProbe([self.probe, checker])
            self.memory.probe = checker

    # ------------------------------------------------------------------
    # Public API used by schedulers
    # ------------------------------------------------------------------
    def schedule_timer(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at ``now + delay`` (e.g. partition completion)."""
        if delay < 0:
            raise SimulationError("timer delay must be >= 0")
        self._timer_seq += 1
        heapq.heappush(
            self._timers, _Timer(self.now + delay, self._timer_seq, callback)
        )

    def reoffer(self, tasks: list[Task]) -> None:
        """Re-offer previously parked tasks to the scheduler.

        Idempotent: tasks not currently in the temporary queue are skipped,
        so a double re-offer (e.g. a partition timeout fires and the late
        partition-done delivery arrives afterwards) can never duplicate an
        execution.
        """
        parked_tids = {t.tid for t in self.parked}
        tasks = [t for t in tasks if t.tid in parked_tids]
        if not tasks:
            return
        if self.probe is not None:
            self.probe.on_reoffer([t.tid for t in tasks])
        if self.obs is not None:
            self.obs.emit(self.now, "sched.reoffer", n=len(tasks))
        leaving = {t.tid for t in tasks}
        self.parked = [t for t in self.parked if t.tid not in leaving]
        if self.parked_by_key:
            for key in list(self.parked_by_key):
                kept = [
                    t for t in self.parked_by_key[key]
                    if t.tid not in leaving
                ]
                if kept:
                    self.parked_by_key[key] = kept
                else:
                    del self.parked_by_key[key]
        for task in tasks:
            self._offer(task)

    def reoffer_key(self, key: int) -> None:
        """Re-offer the parked tasks waiting under ``key`` (and only those).

        RGP pipelining re-offers window *k*'s temporary queue when window
        *k*'s partition is delivered (or declared lost) without disturbing
        tasks parked for other windows.  Idempotent like :meth:`reoffer`.
        """
        self.reoffer(list(self.parked_by_key.get(key, ())))

    @property
    def n_sockets(self) -> int:
        return self.topology.n_sockets

    # ------------------------------------------------------------------
    # Fault hooks (driven by repro.faults.injector, usable directly too)
    # ------------------------------------------------------------------
    def alive_cores_of_socket(self, socket: int) -> list[int]:
        """Cores of ``socket`` not currently quarantined."""
        return [
            c for c in self.topology.cores_of_socket(socket)
            if c not in self.quarantined
        ]

    def socket_alive(self, socket: int) -> bool:
        """True while at least one core of ``socket`` survives."""
        return bool(self.alive_cores_of_socket(socket))

    def _socket_load(self, socket: int) -> int:
        """Queued + executing work on ``socket`` (remap tie-breaker)."""
        busy = len(self.alive_cores_of_socket(socket)) - len(
            self.idle_cores[socket]
        )
        return busy + self._queued[socket]

    def nearest_alive_socket(self, socket: int) -> int:
        """Closest surviving socket by SLIT distance, spreading ties by load.

        All minimal-distance survivors are equivalent destinations as far
        as the machine is concerned, so among them the *least loaded* one
        (queued + executing work, ties by id) wins.  Without the load
        tie-break, every placement orphaned by a dead socket — or, on a
        cluster, a whole lost box — funnels onto the single lowest-id
        survivor while its equidistant siblings sit idle.
        """
        best = -1
        best_dist = 0.0
        row = self.topology.distance[socket]
        for cand in self.topology.sockets_by_distance(socket):
            if best >= 0 and row[cand] > best_dist:
                break  # distance-ordered: no later candidate can tie
            if not self.socket_alive(cand):
                continue
            if best < 0:
                best, best_dist = cand, float(row[cand])
            elif self._socket_load(cand) < self._socket_load(best):
                best = cand
        if best >= 0:
            return best
        raise FaultError(
            f"no surviving cores on any socket at t={self.now:.4g} "
            f"({self.n_done}/{self.program.n_tasks} tasks done)"
        )

    def fail_core(self, core: int, *, duration: float | None = None) -> None:
        """Quarantine ``core``; crash its running task, re-offer its queue.

        ``duration=None`` is a permanent failure; otherwise the core
        returns via :meth:`restore_core` after ``duration`` time units.
        """
        if not 0 <= core < self.topology.n_cores:
            raise FaultError(f"core {core} out of range")
        if core in self.quarantined:
            return
        socket = self.topology.socket_of_core(core)
        self.quarantined.add(core)
        self.cores_failed += 1
        if self.probe is not None:
            self.probe.on_fault("fail_core", core=core, duration=duration)
        if self.obs is not None:
            self.obs.emit(
                self.now, "fault.core_failed",
                core=core, socket=socket, transient=duration is not None,
            )
            self.obs.registry.counter("faults.cores_failed").inc()
        if core in self.idle_cores[socket]:
            self.idle_cores[socket].remove(core)
        # Let the scheduler remap its own state (e.g. RGP window
        # assignments) before any orphaned work is re-offered through it.
        notify = getattr(self.scheduler, "on_core_failed", None)
        if notify is not None:
            notify(core)
        victim = next(
            (rt for rt in self.running.values() if rt.core == core), None
        )
        if victim is not None:
            self._crash_running(victim, "core-failure")
        orphans = list(self.core_queues[core])
        self.core_queues[core].clear()
        if not self.socket_alive(socket):
            orphans.extend(self.socket_queues[socket])
            self.socket_queues[socket].clear()
        self._queued[socket] -= len(orphans)
        for task in orphans:
            self._offer(task)
        if duration is not None:
            self.schedule_timer(duration, lambda: self.restore_core(core))

    def restore_core(self, core: int) -> None:
        """Bring a transiently failed core back into service."""
        if core not in self.quarantined:
            return
        if self.probe is not None:
            self.probe.on_fault("restore_core", core=core)
        self.quarantined.discard(core)
        self.idle_cores[self.topology.socket_of_core(core)].append(core)
        if self.obs is not None:
            self.obs.emit(
                self.now, "fault.core_restored",
                core=core, socket=self.topology.socket_of_core(core),
            )
        notify = getattr(self.scheduler, "on_core_restored", None)
        if notify is not None:
            notify(core)

    def set_core_speed(self, core: int, speed: float) -> None:
        """Set a core's compute rate (1.0 = nominal, 0.25 = 4× straggler)."""
        if speed <= 0:
            raise FaultError(f"core speed must be positive, got {speed}")
        if not 0 <= core < self.topology.n_cores:
            raise FaultError(f"core {core} out of range")
        if self.probe is not None:
            self.probe.on_fault("set_core_speed", core=core, speed=speed)
        if self._core_speed is None:
            if speed == 1.0:
                return
            self._core_speed = np.ones(self.topology.n_cores)
        # Close the rate epoch under the old speeds before mutating.
        self.engine.on_rates_changed()
        self._core_speed[core] = speed

    def set_node_bandwidth_factor(self, node: int, factor: float) -> None:
        """Scale a bandwidth resource's served rate (1.0 = nominal).

        ``node`` addresses any solver resource: a memory node, or (on
        clusters) a NIC at ``n_sockets + box`` — degrading a NIC models a
        congested or flapping network link.
        """
        if not 0 < factor <= 1.0:
            raise FaultError(f"bandwidth factor must be in (0, 1], got {factor}")
        if not 0 <= node < self.n_resources:
            raise FaultError(f"bandwidth resource {node} out of range")
        if self.probe is not None:
            self.probe.on_fault("set_node_bw", node=node, factor=factor)
        if self._node_bw_factor is None:
            if factor == 1.0:
                return
            self._node_bw_factor = np.ones(self.n_resources)
        # Close the rate epoch under the old bandwidths before mutating.
        self.engine.on_rates_changed()
        self._node_bw_factor[node] = factor

    def crash_if_running(self, token: tuple[int, float]) -> None:
        """Crash attempt ``token = (tid, start_time)`` if still in flight.

        Used by timer-scheduled task crashes: if the attempt already
        finished (or was crashed by a core failure) the token no longer
        matches and the crash fizzles.
        """
        tid, start = token
        rt = self.running.get(tid)
        if rt is None or rt.start != start or self.engine.attempt_done(rt):
            return
        self._crash_running(rt, "crash")

    def _crash_running(self, rt: _Running, reason: str) -> None:
        """Kill a running attempt and queue its re-execution.

        Dependence-safe by construction: the attempt never finished, so no
        successor was released and no epoch advanced.  The task's already
        -bound pages stay bound (a real first-touch heap survives a worker
        crash), so the retry re-reads them from wherever they live.
        """
        task = rt.task
        self.engine.remove(rt)
        del self.running[task.tid]
        if rt.core not in self.quarantined:
            self.idle_cores[rt.socket].append(rt.core)
        wasted = self.now - rt.start
        self.wasted_work += wasted
        self.busy_time[rt.socket] += wasted
        local_bytes, remote_bytes, net_bytes = self._start_traffic.pop(
            task.tid, (0.0, 0.0, 0.0)
        )
        # In-flight transfers die with the attempt (the retry resends).
        dropped = self._msgs_in_flight.pop(task.tid, None)
        if dropped is not None:
            self.messages_dropped += len(dropped)
        self.crashed_records.append(
            TaskRecord(
                tid=task.tid,
                name=task.name,
                socket=rt.socket,
                core=rt.core,
                start=rt.start,
                finish=self.now,
                local_bytes=local_bytes,
                remote_bytes=remote_bytes,
                attempt=int(self.attempts[task.tid]),
                outcome=reason,
                net_bytes=net_bytes,
            )
        )
        self.attempts[task.tid] += 1
        self.reexecutions += 1
        if self.probe is not None:
            self.probe.on_crash(rt, reason)
        if self.obs is not None:
            self.obs.emit(
                self.now, "task.crash",
                tid=task.tid, name=task.name, reason=reason,
                attempt=int(self.attempts[task.tid]) - 1,
            )
            self.obs.registry.counter("tasks.crashed").inc()
            self.obs.registry.counter("work.wasted").inc(wasted)
        n_failed = int(self.attempts[task.tid])
        if n_failed > self.max_retries:
            raise FaultError(
                f"task {task.tid} ({task.name}) crashed {n_failed} times "
                f"(last cause: {reason}) — retry limit {self.max_retries} "
                f"exhausted at t={self.now:.4g}"
            )
        delay = (
            self.retry_backoff * (2.0 ** (n_failed - 1))
            if self.retry_backoff > 0
            else 0.0
        )
        if delay > 0:
            self.schedule_timer(delay, lambda: self._retry_offer(task))
        else:
            self._offer(task)

    def _retry_offer(self, task: Task) -> None:
        """Offer a crashed task again after its backoff delay elapsed."""
        if self.probe is not None:
            self.probe.on_retry_offer(task.tid)
        self._offer(task)

    def _remap_placement(self, task: Task, decision: Placement) -> Placement:
        """Redirect placements aimed at quarantined cores / dead sockets."""
        if decision.core is not None and decision.core in self.quarantined:
            socket = self.topology.socket_of_core(decision.core)
            if self.socket_alive(socket):
                return Placement(socket=socket)
            return Placement(socket=self.nearest_alive_socket(socket))
        if decision.socket is not None and not self.socket_alive(
            decision.socket
        ):
            return Placement(socket=self.nearest_alive_socket(decision.socket))
        return decision

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the simulation to completion and return the result."""
        self.scheduler.on_program_start()
        self._advance_empty_epochs()
        for task in self.program.tasks:
            if self.pending_deps[task.tid] == 0:
                self._on_deps_satisfied(task)

        iterations = 0
        n = self.program.n_tasks
        deadline = (
            time.monotonic() + self.wall_clock_limit
            if self.wall_clock_limit is not None
            else None
        )
        # Per-batch budget enforcement: ``_start`` re-checks this deadline
        # every few starts so one huge dispatch batch cannot overshoot the
        # wall-clock budget arbitrarily (the loop-top check below only runs
        # once per event).
        self._deadline = deadline
        self._starts_since_check = 0
        engine = self.engine
        try:
            self._dispatch()
            while self.n_done < n:
                iterations += 1
                if iterations > self.max_iterations:
                    raise SimulationError(
                        f"no convergence after {iterations} iterations "
                        f"({self.n_done}/{n} tasks done) — simulator bug? "
                        + self._stall_detail()
                    )
                if deadline is not None and time.monotonic() > deadline:
                    raise SimulationError(
                        f"wall-clock limit of {self.wall_clock_limit:g}s "
                        f"exceeded at t={self.now:.4g} "
                        f"({self.n_done}/{n} tasks done)"
                    )
                engine.refresh()
                next_completion = engine.next_completion()
                next_timer = self._timers[0].time if self._timers else _INF
                t_next = min(next_completion, next_timer)
                if t_next == _INF:
                    self._raise_deadlock()
                if t_next > self.now:
                    self.now = t_next
                    # Mid-epoch stream departures free controller share:
                    # rebase to byte state if the clock crossed one.
                    engine.advance()

                while self._timers and self._timers[0].time <= self.now + _EPS:
                    timer = heapq.heappop(self._timers)
                    if self.probe is not None:
                        # Even a no-op pop is replay-relevant: epoch
                        # boundaries depend on where production stopped, so
                        # the oracle must stop at the same instants.
                        self.probe.on_timer(timer.time)
                    timer.callback()

                for rt in engine.completed():
                    self._finish(rt)
                self._dispatch()
                if self.probe is not None:
                    self.probe.on_loop(self)
        except ReproError:
            self._abort_run()
            raise

        result = SimulationResult(
            program_name=self.program.name,
            scheduler_name=self.scheduler.name,
            machine_name=self.topology.name,
            makespan=self.now,
            records=self.records,
            bytes_by_pair=self.bytes_by_pair,
            busy_time_per_socket=self.busy_time,
            steals=self.steals,
            parked_tasks=self.parked_total,
            touch_count=self.memory.touch_count,
            bytes_on_node=self.memory.bytes_on_node.copy(),
            seed=self.seed,
            crashed_records=self.crashed_records,
            reexecutions=self.reexecutions,
            wasted_work=self.wasted_work,
            cores_failed=self.cores_failed,
            faults_injected=(
                self._injector.total_injected if self._injector else 0
            ),
            bytes_by_link=self.bytes_by_link,
            messages=self.messages,
            messages_dropped=self.messages_dropped,
        )
        if self.obs is not None:
            self._finalize_instrumentation(result)
        if self.probe is not None:
            self.probe.on_run_end(self, result)
        return result

    def _abort_run(self) -> None:
        """Release run state before an error propagates out of :meth:`run`.

        A scheduler callback raising mid-run (e.g. RGP's
        ``on_timeout="raise"`` partition deadline) must not leave cores
        marked busy or half-drained attempts in :attr:`running`: callers
        that catch the error and inspect the simulator (harnesses, tests,
        the retry loop in ``run_policy``) need a consistent machine state.
        Aborted attempts are dropped without a completion record — the run
        produced no :class:`SimulationResult`, so there is no schedule for
        them to corrupt.
        """
        self.engine.clear()
        for rt in self.running.values():
            if rt.core not in self.quarantined:
                self.idle_cores[rt.socket].append(rt.core)
            self._start_traffic.pop(rt.task.tid, None)
            self._msgs_in_flight.pop(rt.task.tid, None)
        self.running.clear()
        if self.probe is not None:
            self.probe.on_abort(self)

    def _finalize_instrumentation(self, result: SimulationResult) -> None:
        """Close out the run's registry and attach the streams to the
        result so exporters can consume them without the simulator."""
        reg = self.obs.registry
        for s in self.topology.sockets():
            reg.gauge(f"socket.busy.s{s}").set(
                self.now, float(self.busy_time[s])
            )
            capacity = self.now * self.topology.cores_per_socket
            reg.gauge(f"socket.idle.s{s}").set(
                self.now, max(0.0, capacity - float(self.busy_time[s]))
            )
        reg.gauge("makespan").set(self.now, self.now)
        result.events = self.obs.events
        result.metrics = reg.snapshot()

    # ------------------------------------------------------------------
    # Readiness and offering
    # ------------------------------------------------------------------
    def _on_deps_satisfied(self, task: Task) -> None:
        if task.epoch > self.active_epoch:
            self.held_by_epoch[task.epoch].append(task)
        else:
            self._offer(task)

    def _offer(self, task: Task) -> None:
        decision = self.scheduler.choose(task)
        if not isinstance(decision, Placement):
            raise SimulationError(
                f"scheduler {self.scheduler.name!r} returned {decision!r}, "
                "expected a Placement"
            )
        if self.quarantined and not decision.park:
            decision = self._remap_placement(task, decision)
        if self.probe is not None:
            self.probe.on_offer(task, decision)
        if decision.park:
            self.parked.append(task)
            if decision.park_key is not None:
                self.parked_by_key.setdefault(
                    decision.park_key, []
                ).append(task)
            self.parked_total += 1
            if self.obs is not None:
                self.obs.emit(
                    self.now, "sched.place", tid=task.tid, target="park"
                )
                self.obs.registry.counter("place.park").inc()
        elif decision.core is not None:
            if not 0 <= decision.core < self.topology.n_cores:
                raise SimulationError(f"placement core {decision.core} out of range")
            self.core_queues[decision.core].append(task)
            self._queued[self.topology.socket_of_core(decision.core)] += 1
            if self.obs is not None:
                self.obs.emit(
                    self.now, "sched.place", tid=task.tid, target="core",
                    core=decision.core,
                    socket=self.topology.socket_of_core(decision.core),
                )
                self.obs.registry.counter("place.core").inc()
        else:
            if not 0 <= decision.socket < self.n_sockets:
                raise SimulationError(
                    f"placement socket {decision.socket} out of range"
                )
            self.socket_queues[decision.socket].append(task)
            self._queued[decision.socket] += 1
            if self.obs is not None:
                self.obs.emit(
                    self.now, "sched.place", tid=task.tid, target="socket",
                    socket=decision.socket,
                )
                self.obs.registry.counter("place.socket").inc()
                self.obs.registry.gauge(
                    f"queue.depth.s{decision.socket}"
                ).set(self.now, len(self.socket_queues[decision.socket]))

    def _advance_empty_epochs(self) -> None:
        while (
            self.active_epoch + 1 < self.n_epochs
            and self.remaining_in_epoch[self.active_epoch] == 0
        ):
            self.active_epoch += 1
            if self.obs is not None:
                self.obs.emit(
                    self.now, "epoch.advance", epoch=self.active_epoch
                )
            for task in self.held_by_epoch[self.active_epoch]:
                self._offer(task)
            self.held_by_epoch[self.active_epoch] = []

    # ------------------------------------------------------------------
    # Dispatch: idle cores pull work (plus stealing)
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        queued = self._queued
        progress = True
        while progress:
            progress = False
            # Local starts: core queues first (explicit core placements),
            # then the socket queue.
            for s in range(self.n_sockets):
                idle = self.idle_cores[s]
                if not idle or not queued[s]:
                    continue
                # Cores with private work.
                for core in list(idle):
                    if self.core_queues[core]:
                        idle.remove(core)
                        task = self.core_queues[core].popleft()
                        queued[s] -= 1
                        self._start(task, core, s)
                        progress = True
                while self.idle_cores[s] and self.socket_queues[s]:
                    core = self.idle_cores[s].pop()
                    task = self.socket_queues[s].popleft()
                    queued[s] -= 1
                    self._start(task, core, s)
                    progress = True
            if self.steal_enabled and self._try_steal():
                progress = True
        if self.obs is not None:
            reg = self.obs.registry
            for s in range(self.n_sockets):
                reg.gauge(f"queue.depth.s{s}").set(
                    self.now, len(self.socket_queues[s])
                )

    def _try_steal(self) -> bool:
        """One round of distance-aware stealing; True if anything moved."""
        stole = False
        queued = self._queued
        for s in range(self.n_sockets):
            if not self.idle_cores[s]:
                continue
            for victim in self._victims[s]:
                if not queued[victim]:
                    continue
                task = self._pop_victim_work(victim)
                core = self.idle_cores[s].pop()
                self.steals += 1
                if self.obs is not None:
                    self.obs.emit(
                        self.now, "sched.steal", tid=task.tid, thief=s,
                        victim=victim,
                        distance=float(self.topology.dist(s, victim)),
                    )
                    self.obs.registry.counter("steals").inc()
                self._start(task, core, s)
                stole = True
                break
        return stole

    def _pop_victim_work(self, victim: int) -> Task:
        """Take ``victim``'s oldest socket-queued task, else the first
        non-empty core queue's (by core id); its queued count is > 0."""
        self._queued[victim] -= 1
        if self.socket_queues[victim]:
            return self.socket_queues[victim].popleft()
        for core in self._cores[victim]:
            if self.core_queues[core]:
                return self.core_queues[core].popleft()
        raise SimulationError(f"socket {victim}'s queued count is stale")

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def _cluster_streams(
        self, task: Task, socket: int, streams: dict[int, float]
    ) -> tuple[dict[int, float], float]:
        """Re-key cross-box traffic onto the data-source boxes' NICs.

        On-box streams keep their memory-node key; bytes living on another
        box become one aggregated stream per source box, keyed by that
        box's NIC resource — the explicit message.  Many readers pulling
        from one box then contend on its NIC through the regular
        progressive-filling solver, which is the network-contention model.
        Returns the resource-keyed streams and the total network bytes.
        """
        box_of = self._box_of_socket
        dst_box = box_of[socket]
        out: dict[int, float] = {}
        net: dict[int, float] | None = None
        for node, b in streams.items():
            src_box = box_of[node]
            if src_box == dst_box:
                out[node] = b
            else:
                nic = self._nic_of_box[src_box]
                if nic in out:
                    out[nic] += b
                else:
                    out[nic] = b
                if net is None:
                    net = {}
                net[src_box] = net.get(src_box, 0.0) + b
        net_bytes = 0.0
        if net:
            msgs = self._msgs_in_flight.setdefault(task.tid, [])
            for src_box, b in net.items():
                net_bytes += b
                self.bytes_by_link[src_box, dst_box] += b
                msgs.append((src_box, dst_box, b, self.now))
                if self.obs is not None:
                    self._m_link[src_box, dst_box] += b
                    self.obs.emit(
                        self.now, "msg.send",
                        tid=task.tid, src_box=src_box, dst_box=dst_box,
                        nbytes=b,
                    )
                    self.obs.registry.counter("net.messages").inc()
                    self.obs.registry.counter("net.bytes").inc(b)
        return out, net_bytes

    def _start(self, task: Task, core: int, socket: int) -> None:
        node = socket  # one memory node per socket
        # Deferred allocation: bind output pages where the producer runs;
        # first-touch-on-read binds never-written inputs too (OS behaviour).
        for access in task.accesses:
            self.memory.touch(access.obj.key, node, access.offset, access.length)
        streams = traffic_streams(task, self.memory)

        compute = task.work
        local_bytes = remote_bytes = 0.0
        has_latency = self.interconnect.latency_cost_per_access != 0.0
        pair_row = self.bytes_by_pair[socket]
        for n, b in streams.items():
            if has_latency:
                compute += self.interconnect.access_latency(socket, n)
            pair_row[n] += b
            if n == socket:
                local_bytes += b
            else:
                remote_bytes += b

        if self.obs is not None:
            reg = self.obs.registry
            for n, b in streams.items():
                self._m_traffic[socket, n] += b
            c_local = reg.counter("bytes.local")
            c_remote = reg.counter("bytes.remote")
            c_local.inc(local_bytes)
            c_remote.inc(remote_bytes)
            reg.gauge("bytes.local").set(self.now, c_local.value)
            reg.gauge("bytes.remote").set(self.now, c_remote.value)
            self.obs.emit(
                self.now, "task.start",
                tid=task.tid, name=task.name, core=core, socket=socket,
                local_bytes=local_bytes, remote_bytes=remote_bytes,
                attempt=int(self.attempts[task.tid]),
            )

        net_bytes = 0.0
        if self._box_of_socket is not None:
            streams, net_bytes = self._cluster_streams(task, socket, streams)
        self._start_traffic[task.tid] = (local_bytes, remote_bytes, net_bytes)

        factor = 1.0
        if self.duration_jitter > 0.0:
            factor = 1.0 + self.duration_jitter * float(self.rng.uniform(-1.0, 1.0))
            compute *= factor
            streams = {n: b * factor for n, b in streams.items()}

        rt = _Running(
            task=task,
            core=core,
            socket=socket,
            start=self.now,
            compute_remaining=compute,
            streams=streams,
        )
        # Engine admission BEFORE the running-dict insert: ``add`` closes
        # the current rate epoch, and a materialize over ``running`` must
        # only ever see attempts that existed at the last refresh.
        self.engine.add(rt)
        self.running[task.tid] = rt
        if self._deadline is not None:
            self._starts_since_check += 1
            if self._starts_since_check >= 128:
                self._starts_since_check = 0
                if time.monotonic() > self._deadline:
                    raise SimulationError(
                        f"wall-clock limit of {self.wall_clock_limit:g}s "
                        f"exceeded mid-dispatch at t={self.now:.4g} "
                        f"({self.n_done}/{self.program.n_tasks} tasks done)"
                    )
        if self.probe is not None:
            self.probe.on_start(rt, factor, int(self.attempts[task.tid]))
        if self.obs is not None:
            self.obs.registry.gauge("cores.busy").set(
                self.now, len(self.running)
            )
        if self._injector is not None:
            self._injector.on_task_start(rt)

    def _finish(self, rt: _Running) -> None:
        task = rt.task
        self.engine.remove(rt)
        del self.running[task.tid]
        self.idle_cores[rt.socket].append(rt.core)
        self.done[task.tid] = True
        self.n_done += 1
        self.busy_time[rt.socket] += self.now - rt.start
        local_bytes, remote_bytes, net_bytes = self._start_traffic.pop(
            task.tid, (0.0, 0.0, 0.0)
        )
        self.records.append(
            TaskRecord(
                tid=task.tid,
                name=task.name,
                socket=rt.socket,
                core=rt.core,
                start=rt.start,
                finish=self.now,
                local_bytes=local_bytes,
                remote_bytes=remote_bytes,
                attempt=int(self.attempts[task.tid]),
                net_bytes=net_bytes,
            )
        )
        in_flight = self._msgs_in_flight.pop(task.tid, None)
        if in_flight is not None:
            for src_box, dst_box, nbytes, send in in_flight:
                self.messages.append(
                    Message(
                        tid=task.tid, src_box=src_box, dst_box=dst_box,
                        nbytes=nbytes, send=send, recv=self.now,
                    )
                )
                if self.obs is not None:
                    self.obs.emit(
                        self.now, "msg.recv",
                        tid=task.tid, src_box=src_box, dst_box=dst_box,
                        nbytes=nbytes, duration=self.now - send,
                    )
        if self.probe is not None:
            self.probe.on_finish(rt)
        if self.obs is not None:
            reg = self.obs.registry
            duration = self.now - rt.start
            reg.counter("tasks.completed").inc()
            reg.histogram("task.duration").observe(duration)
            total = local_bytes + remote_bytes
            if total > 0:
                from ..observability.metrics import FRACTION_BOUNDS

                reg.histogram(
                    "task.remote_fraction", FRACTION_BOUNDS
                ).observe(remote_bytes / total)
            reg.gauge("cores.busy").set(self.now, len(self.running))
            self.obs.emit(
                self.now, "task.finish",
                tid=task.tid, name=task.name, core=rt.core,
                socket=rt.socket, duration=duration,
            )
        self.scheduler.on_task_finished(task)

        self.remaining_in_epoch[task.epoch] -= 1
        for succ in self.program.tdg.successors(task.tid):
            self.pending_deps[succ] -= 1
            if self.pending_deps[succ] == 0:
                self._on_deps_satisfied(self.program.tasks[succ])
        # Epoch advance (may cascade through empty epochs).
        while (
            self.active_epoch + 1 < self.n_epochs
            and self.remaining_in_epoch[self.active_epoch] == 0
        ):
            self.active_epoch += 1
            if self.obs is not None:
                self.obs.emit(
                    self.now, "epoch.advance", epoch=self.active_epoch
                )
            released = self.held_by_epoch[self.active_epoch]
            self.held_by_epoch[self.active_epoch] = []
            for held in released:
                self._offer(held)

    # ------------------------------------------------------------------
    def _stuck_tasks(self, limit: int = 8) -> str:
        """Name the tasks that are neither done nor running (diagnostics)."""
        stuck = [
            t for t in self.program.tasks
            if not self.done[t.tid] and t.tid not in self.running
        ]
        names = ", ".join(f"#{t.tid}({t.name})" for t in stuck[:limit])
        if len(stuck) > limit:
            names += f", … {len(stuck) - limit} more"
        return names or "(none)"

    def _stall_detail(self) -> str:
        """Classify a stall: crashed machine vs busy survivors vs genuine
        dependence/scheduler cycle (DESIGN.md §7)."""
        queued = sum(len(q) for q in self.socket_queues) + sum(
            len(q) for q in self.core_queues
        )
        alive = self.topology.n_cores - len(self.quarantined)
        state = (
            f"{self.n_done}/{self.program.n_tasks} done, "
            f"{len(self.running)} running, {queued} queued, "
            f"{len(self.parked)} parked, active_epoch={self.active_epoch}"
        )
        if alive == 0:
            kind = "every core is quarantined — the fault plan killed the machine"
        elif self.running:
            kind = (
                f"not a dependence cycle: all {alive} surviving cores are "
                "busy and work is still flowing"
            )
        else:
            kind = (
                "genuine stall: no task is running and no timer is pending. "
                "Parked tasks with no pending timer usually mean a scheduler "
                "never re-offered its temporary queue"
            )
        return f"{state}. {kind}. Stuck tasks: {self._stuck_tasks()}"

    def _raise_deadlock(self) -> None:
        if self.quarantined and not any(
            self.socket_alive(s) for s in self.topology.sockets()
        ):
            raise FaultError(
                f"no surviving cores at t={self.now:.4g}: "
                + self._stall_detail()
            )
        raise SimulationError(
            f"deadlock at t={self.now:.4g}: " + self._stall_detail()
        )


def simulate(
    program: TaskProgram,
    topology: NumaTopology,
    scheduler,
    **kwargs,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(program, topology, scheduler, **kwargs).run()
