"""Host-time spans around the program's layers, installed from outside.

The program has no spans of its own yet, so the traced run wraps the
public functions of each layer here, in the benchmark's files, and takes
them off again afterwards.  A span's *self* time is its wall minus the
walls of the spans it encloses, so nested layers (a scheduler decision
that queries the placement model) are not counted twice.

:class:`PartitionLog` is installed in every run, traced or not: it keeps
the arguments and result of each window partition so the benchmark can
check and measure the partition after the timed region ends.  It only
appends to a list inside the timed region.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: (layer, import path of the owner, attribute).  Owners are modules or
#: classes; module attributes are patched where they are *looked up*
#: (``repro.runtime.simulator.traffic_streams``, not ``repro.runtime.cost``).
SPANS = (
    ("partition", "repro.core.rgp", "partition_window"),
    ("partition", "repro.core.rgp", "partition_with_anchors"),
    ("cost.alloc", "repro.schedulers.las", "allocated_bytes_per_node"),
    ("cost.traffic", "repro.runtime.simulator", "traffic_streams"),
    ("memory.touch", "repro.machine.memory:MemoryManager", "touch"),
    ("interconnect.solve", "repro.machine.interconnect:Interconnect",
     "stream_rates_canon"),
    ("engine.refresh", "repro.runtime.engines:FlatEngine", "refresh"),
    ("engine.materialize", "repro.runtime.engines:FlatEngine", "materialize"),
    ("engine.completed", "repro.runtime.engines:FlatEngine", "completed"),
    ("engine.advance", "repro.runtime.engines:FlatEngine", "advance"),
    ("simulator", "repro.runtime.simulator:Simulator", "run"),
    ("profiling.profile_run", "repro.profiling", "profile_run"),
)


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    """Self time and call counts per layer, plus the simulators it saw."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: (Simulator, SimulationResult) of the last traced ``Simulator.run``.
        self.last_run: tuple | None = None
        self._stack: list[list] = []  # [layer, child seconds]
        self._undo: list = []

    def _wrap(self, owner, attr: str, layer: str) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        is_run = layer == "simulator"

        def span(*args, **kwargs):
            frame = [layer, 0.0]
            outer = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if outer != layer:  # a subclass calling super(): one call
                    calls[layer] += 1
                if stack:
                    stack[-1][1] += dt
            if is_run:
                self.last_run = (args[0], out)
            return out

        setattr(owner, attr, span)
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        from repro.apps import APPS
        from repro.schedulers.base import Scheduler

        for layer, path, attr in SPANS:
            self._wrap(_resolve(path), attr, layer)
        for cls in {c for app in APPS.values() for c in _subclasses(app)}:
            if "build" in vars(cls):
                self._wrap(cls, "build", "apps.build")
        for cls in _subclasses(Scheduler):
            if "choose" in vars(cls):
                self._wrap(cls, "choose", "schedulers.choose")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        return dict(self.self_s), dict(self.calls)


class PartitionLog:
    """Records every window partition for checks after the timed region."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []
        self._undo: list = []

    def install(self) -> None:
        import repro.core.rgp as rgp

        log = self.calls
        window = rgp.partition_window
        anchored = rgp.partition_with_anchors

        def partition_window(tdg, cutoff, topology, partitioner, *a, **kw):
            plan = window(tdg, cutoff, topology, partitioner, *a, **kw)
            log.append(("window", tdg, cutoff, topology.n_sockets,
                        partitioner.tolerance, plan.assignment))
            return plan

        def partition_with_anchors(graph, k, anchors, partitioner, *a, **kw):
            result = anchored(graph, k, anchors, partitioner, *a, **kw)
            log.append(("anchored", graph, tuple(anchors), k,
                        partitioner.tolerance, result.parts))
            return result

        rgp.partition_window = partition_window
        rgp.partition_with_anchors = partition_with_anchors
        self._undo = [(rgp, "partition_window", window),
                      (rgp, "partition_with_anchors", anchored)]

    def uninstall(self) -> None:
        for owner, attr, orig in self._undo:
            setattr(owner, attr, orig)
        self._undo = []

    def drain(self) -> list[tuple]:
        out, self.calls[:] = list(self.calls), []
        return out


# ----------------------------------------------------------------------
# Per-round accounting shared by the simulation and service workloads.


def new_round(traced: bool) -> dict:
    return dict(traced=traced, calib_s=0.0, raw_s=0.0, tasks=0, layer_s={},
                calls={}, cut=0.0, imbalance=0.0, steals=0, mem=[0, 0],
                rate=[0, 0])


def account_sim(rnd: dict, sim, result) -> None:
    """Steal and memo counters of one finished simulation."""
    rnd["steals"] += result.steals
    rnd["mem"][0] += sim.memory.cache_hits
    rnd["mem"][1] += sim.memory.cache_misses
    rnd["rate"][0] += sim.interconnect.rate_cache_hits
    rnd["rate"][1] += sim.interconnect.rate_cache_misses


def account(rnd: dict, tracer: Tracer, before, factor: float) -> dict:
    """Add one operation's calibrated layer self times; return its calls."""
    after_s, after_c = tracer.snapshot()
    calls = {k: v - before[1].get(k, 0) for k, v in after_c.items()}
    for k, v in after_s.items():
        rnd["layer_s"][k] = rnd["layer_s"].get(k, 0.0) + factor * (
            v - before[0].get(k, 0.0))
    for k, v in calls.items():
        rnd["calls"][k] = rnd["calls"].get(k, 0) + v
    return calls


def account_partitions(rnd: dict, log: PartitionLog) -> list[str]:
    """Check and measure the partitions logged since the last call."""
    import numpy as np
    from repro.graph.csr import CSRGraph

    import checks

    problems = []
    # ``arg`` is the window's cutoff for "window" entries (``graph`` is the
    # whole TDG) and the anchor vertices for "anchored" ones.
    for kind, graph, arg, k, tol, parts in log.drain():
        if kind == "window":
            csr = CSRGraph.from_tdg(graph.prefix(arg))
        else:
            csr = graph
        free = np.ones(csr.n_vertices, dtype=bool)
        if kind == "anchored":
            free[list(arg)] = False
        parts = np.asarray(parts, dtype=np.int64)
        cut, imb, slack = checks.cut_and_imbalance(
            csr.xadj, csr.adjncy, csr.adjwgt, csr.vwgt, parts, k, free)
        problems += checks.check_partition(
            parts, csr.n_vertices, k, imb, tol, slack)
        rnd["cut"] += cut
        rnd["imbalance"] = max(rnd["imbalance"], imb)
    return problems


def layer_metrics(rounds: list[dict]) -> dict[str, float]:
    """Per-layer figures per round, median over the traced rounds."""
    import statistics

    traced = [r for r in rounds if r["traced"]]

    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def layer(name):
        return med(lambda r: r["layer_s"].get(name, 0.0))

    def ratio(pair):
        return pair[0] / (pair[0] + pair[1]) if sum(pair) else 0.0

    untraced = statistics.median(r["calib_s"] for r in rounds
                                 if not r["traced"])
    return {
        "apps.build_s": layer("apps.build"),
        "apps.build_us_per_task": med(
            lambda r: 1e6 * r["layer_s"].get("apps.build", 0.0) / r["tasks"]),
        "partition.s": layer("partition"),
        "partition.calls": med(lambda r: r["calls"].get("partition", 0)),
        "partition.edge_cut": med(lambda r: r["cut"] / 1e9),
        "partition.imbalance": med(lambda r: r["imbalance"]),
        "schedulers.choose_s": layer("schedulers.choose"),
        "cost.alloc_s": layer("cost.alloc"),
        "cost.traffic_s": layer("cost.traffic"),
        "memory.touch_s": layer("memory.touch"),
        "memory.cache_hit_ratio": med(lambda r: ratio(r["mem"])),
        "interconnect.solve_s": layer("interconnect.solve"),
        "interconnect.rate_memo_hit_ratio": med(lambda r: ratio(r["rate"])),
        "engine.refresh_s": layer("engine.refresh"),
        "engine.materialize_s": layer("engine.materialize"),
        "engine.completed_s": layer("engine.completed"),
        "engine.advance_s": layer("engine.advance"),
        "simulator.self_s": layer("simulator"),
        "simulator.steals_per_task": med(lambda r: r["steals"] / r["tasks"]),
        "profiling.profile_run_s": layer("profiling.profile_run"),
        "trace.overhead_ratio": med(lambda r: r["calib_s"]) / untraced,
    }
