"""Online invariant checking for the production simulator.

The :class:`InvariantChecker` is a :class:`~repro.verify.probe.SimProbe`
that asserts, *while the run unfolds*, the structural properties every
simulated schedule must satisfy regardless of scheduler, fault plan or
machine (DESIGN.md §11):

* **core exclusivity** — a core runs at most one attempt at a time, and a
  quarantined core runs nothing;
* **dependence causality** — a task only starts with zero pending
  dependences, inside the active barrier epoch;
* **byte conservation** — first-touch only ever adds bound bytes, a
  migration moves bytes without creating or destroying any, and the
  manager's global per-node byte counters always equal the per-object page
  maps (recomputed independently);
* **queued counts** — each socket's ``_queued`` count equals the tasks in
  its socket queue plus its cores' queues (the steal scan trusts it);
* **no phantom-busy cores** — after a completed run or an ``_abort_run``
  every surviving core is idle exactly once;
* **no temporary-queue leaks** — at end-of-run ``parked`` and
  ``parked_by_key`` are empty (a scheduler that forgets ``reoffer_key``
  leaks here);
* **timestamp monotonicity** — the simulated clock and the emitted event
  stream never go backwards.

The checker raises :class:`~repro.errors.VerificationError` (a real raise,
not ``assert`` — it survives ``python -O``).  It is installed per run with
``Simulator(..., verify=True)`` or globally with ``REPRO_VERIFY=1``; with
neither, no probe exists and the simulator's behaviour is byte-identical
to an unverified run (tested).
"""

from __future__ import annotations

import numpy as np

from ..errors import VerificationError
from ..machine.memory import UNBOUND
from .probe import SimProbe

#: Slack for clock-monotonicity checks, matching the simulator's timer
#: coalescing tolerance.
_TIME_SLACK = 1e-9


class InvariantChecker(SimProbe):
    """Asserts runtime invariants during one simulator run."""

    def __init__(self, sim) -> None:
        self.sim = sim
        #: core -> tid of the attempt currently occupying it.
        self._busy: dict[int, int] = {}
        self._last_now = sim.now
        #: Independent per-object per-node byte model (ints, no numpy
        #: accumulation) rebuilt from the page maps after every mutation.
        self._bound: dict[int, np.ndarray] = {}
        for key in sim.memory._pages:
            self._bound[key] = self._per_node(sim.memory, key)
        self._reconcile(sim.memory, "initial placement")

    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        raise VerificationError(
            f"invariant violated at t={self.sim.now:.6g}: {message}"
        )

    def _tick(self, what: str) -> None:
        if self.sim.now < self._last_now - _TIME_SLACK:
            self._fail(
                f"clock went backwards at {what}: "
                f"{self.sim.now!r} < {self._last_now!r}"
            )
        self._last_now = max(self._last_now, self.sim.now)

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def on_offer(self, task, placement) -> None:
        if self.sim.done[task.tid]:
            self._fail(f"completed task {task.tid} was offered again")
        if task.tid in self.sim.running:
            self._fail(f"running task {task.tid} was offered again")

    def on_start(self, rt, factor: float, attempt: int) -> None:
        self._tick(f"start of task {rt.task.tid}")
        sim = self.sim
        tid = rt.task.tid
        if rt.core in self._busy:
            self._fail(
                f"core exclusivity: task {tid} started on core {rt.core} "
                f"already running task {self._busy[rt.core]}"
            )
        if rt.core in sim.quarantined:
            self._fail(f"task {tid} started on quarantined core {rt.core}")
        if sim.topology.socket_of_core(rt.core) != rt.socket:
            self._fail(
                f"task {tid} started on core {rt.core} which is not on "
                f"socket {rt.socket}"
            )
        if sim.pending_deps[tid] != 0:
            self._fail(
                f"dependence causality: task {tid} started with "
                f"{int(sim.pending_deps[tid])} unmet dependences"
            )
        if rt.task.epoch > sim.active_epoch:
            self._fail(
                f"barrier causality: task {tid} of epoch {rt.task.epoch} "
                f"started in epoch {sim.active_epoch}"
            )
        jit = sim.duration_jitter
        if not (1.0 - jit) - 1e-12 <= factor <= (1.0 + jit) + 1e-12:
            self._fail(
                f"jitter factor {factor!r} outside [1-{jit}, 1+{jit}]"
            )
        self._busy[rt.core] = tid

    def _release(self, rt, what: str) -> None:
        tid = rt.task.tid
        if self._busy.get(rt.core) != tid:
            self._fail(
                f"{what} of task {tid} on core {rt.core}, but that core "
                f"is running {self._busy.get(rt.core)!r}"
            )
        del self._busy[rt.core]

    def on_finish(self, rt) -> None:
        self._tick(f"finish of task {rt.task.tid}")
        if self.sim.now < rt.start - _TIME_SLACK:
            self._fail(
                f"task {rt.task.tid} finished at {self.sim.now!r} before "
                f"its start {rt.start!r}"
            )
        self._release(rt, "finish")

    def on_crash(self, rt, reason: str) -> None:
        self._tick(f"crash of task {rt.task.tid}")
        self._release(rt, f"{reason} crash")

    def on_timer(self, time: float) -> None:
        if time > self.sim.now + _TIME_SLACK:
            self._fail(
                f"timer popped early: timer time {time!r} is after "
                f"now={self.sim.now!r}"
            )

    # ------------------------------------------------------------------
    # Machine consistency, once per main-loop iteration
    # ------------------------------------------------------------------
    def on_loop(self, sim) -> None:
        self._tick("loop iteration")
        running_cores = {rt.core for rt in sim.running.values()}
        if len(running_cores) != len(sim.running):
            self._fail("core exclusivity: two running attempts share a core")
        if running_cores != set(self._busy):
            self._fail(
                f"busy-core model diverged: simulator {sorted(running_cores)}"
                f" vs checker {sorted(self._busy)}"
            )
        seen: set[int] = set()
        for s in sim.topology.sockets():
            for core in sim.idle_cores[s]:
                if core in seen:
                    self._fail(f"core {core} appears twice in the idle lists")
                seen.add(core)
                if sim.topology.socket_of_core(core) != s:
                    self._fail(f"core {core} idles under the wrong socket {s}")
        if seen & running_cores:
            self._fail(
                f"phantom-busy cores: {sorted(seen & running_cores)} are "
                "both idle and running"
            )
        if seen & sim.quarantined:
            self._fail(
                f"quarantined cores {sorted(seen & sim.quarantined)} are "
                "in the idle lists"
            )
        topo = sim.topology
        for s in topo.sockets():
            queued = len(sim.socket_queues[s]) + sum(
                len(sim.core_queues[c]) for c in topo.cores_of_socket(s)
            )
            if sim._queued[s] != queued:
                self._fail(
                    f"socket {s}'s queued count is {sim._queued[s]} but its "
                    f"queues hold {queued} tasks"
                )

    def on_abort(self, sim) -> None:
        if sim.running:
            self._fail("_abort_run left attempts in running")
        self._busy.clear()
        alive = [
            c for s in sim.topology.sockets()
            for c in sim.topology.cores_of_socket(s)
            if c not in sim.quarantined
        ]
        idle = [c for s in sim.topology.sockets() for c in sim.idle_cores[s]]
        if sorted(idle) != sorted(alive):
            self._fail(
                f"phantom-busy cores after abort: idle={sorted(idle)} but "
                f"surviving cores={sorted(alive)}"
            )

    def on_run_end(self, sim, result) -> None:
        if sim.parked:
            self._fail(
                f"parked-task leak: {len(sim.parked)} tasks still in the "
                "temporary queue at end-of-run"
            )
        if sim.parked_by_key:
            self._fail(
                "park_key leak: keys "
                f"{sorted(sim.parked_by_key)} still indexed at end-of-run"
            )
        if sim.running or self._busy:
            self._fail("attempts still running at end-of-run")
        if not bool(sim.done.all()):
            self._fail("end-of-run with unfinished tasks")
        self._reconcile(sim.memory, "end-of-run")
        if result.events:
            last = -np.inf
            for ev in result.events:
                if ev.ts < last - _TIME_SLACK:
                    self._fail(
                        f"event stream goes backwards: {ev.kind} at "
                        f"{ev.ts!r} after t={last!r}"
                    )
                last = max(last, ev.ts)

    # ------------------------------------------------------------------
    # Memory byte conservation
    # ------------------------------------------------------------------
    def _per_node(self, memory, key: int) -> np.ndarray:
        pages = memory._pages[key]
        bound = pages[pages != UNBOUND]
        counts = np.bincount(bound, minlength=memory.n_nodes).astype(np.int64)
        return counts * memory.page_size

    def _reconcile(self, memory, what: str) -> None:
        total = np.zeros(memory.n_nodes, dtype=np.int64)
        for per_node in self._bound.values():
            total += per_node
        if not np.array_equal(total, memory.bytes_on_node):
            self._fail(
                f"byte-conservation at {what}: page maps hold "
                f"{total.tolist()} bytes per node but the manager accounts "
                f"{memory.bytes_on_node.tolist()}"
            )

    def on_memory_op(self, memory, op: str, key: int) -> None:
        fresh = self._per_node(memory, key)
        old = self._bound.get(key)
        if old is None:
            old = np.zeros(memory.n_nodes, dtype=np.int64)
        if op == "migrate":
            if int(fresh.sum()) != int(old.sum()):
                self._fail(
                    f"byte-conservation: migrate of object {key} changed "
                    f"its bound total {int(old.sum())} -> {int(fresh.sum())}"
                )
        elif op == "touch":
            if int(fresh.sum()) < int(old.sum()):
                self._fail(
                    f"byte-conservation: touch of object {key} shrank its "
                    f"bound total {int(old.sum())} -> {int(fresh.sum())}"
                )
            if np.any(fresh < old):
                self._fail(
                    f"byte-conservation: touch of object {key} moved "
                    "already-bound pages"
                )
        if np.any(fresh < 0):
            self._fail(f"negative bound bytes on object {key}")
        self._bound[key] = fresh
        self._reconcile(memory, f"{op} of object {key}")
