"""Correctness checks on simulation results, written apart from the program.

Each check reads only public data (the program's tasks, accesses and TDG
edges, the result's records) and recomputes what it needs itself, so a
fault in the simulator's own bookkeeping cannot hide a fault in its
schedule.  A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

#: Float slack for time comparisons (times are sums of floats).
_EPS = 1e-9


def program_traffic(program) -> float:
    """Σ access.bytes × mode.traffic_multiplier over the program."""
    return math.fsum(
        a.bytes * a.mode.traffic_multiplier
        for t in program.tasks
        for a in t.accesses
    )


def critical_path_work(program) -> float:
    """Longest path of task work through the TDG (tids are topological)."""
    n = program.n_tasks
    finish = [0.0] * n
    tdg = program.tdg
    for tid, task in enumerate(program.tasks):
        preds = tdg.predecessors(tid)
        start = max((finish[p] for p in preds), default=0.0)
        finish[tid] = start + task.work
    return max(finish, default=0.0)


def check_schedule(program, result, n_cores: int, jitter: float) -> list[str]:
    """Every structural property a legal schedule of ``program`` has."""
    problems: list[str] = []
    n = program.n_tasks
    records = result.records
    seen = [0] * n
    for r in records:
        if 0 <= r.tid < n:
            seen[r.tid] += 1
        else:
            problems.append(f"record for unknown task {r.tid}")
    wrong = [t for t, c in enumerate(seen) if c != 1]
    if wrong:
        problems.append(
            f"{len(wrong)} task(s) not run exactly once, e.g. {wrong[:3]}"
        )
        return problems
    by_tid = {r.tid: r for r in records}

    tdg = program.tdg
    for tid in range(n):
        rec = by_tid[tid]
        if rec.finish < rec.start - _EPS:
            problems.append(f"task {tid} finishes before it starts")
        for p in tdg.predecessors(tid):
            if rec.start < by_tid[p].finish - _EPS:
                problems.append(
                    f"task {tid} starts at {rec.start} before predecessor "
                    f"{p} finishes at {by_tid[p].finish}"
                )
                break
        if len(problems) > 5:
            return problems

    by_core: dict[int, list] = {}
    for r in records:
        by_core.setdefault(r.core, []).append(r)
    for core, recs in by_core.items():
        recs.sort(key=lambda r: (r.start, r.finish))
        for a, b in zip(recs, recs[1:]):
            if b.start < a.finish - _EPS:
                problems.append(
                    f"tasks {a.tid} and {b.tid} overlap on core {core}"
                )
                break

    # Barrier epochs: an epoch starts only after every earlier epoch ended.
    last_finish: dict[int, float] = {}
    first_start: dict[int, float] = {}
    for task in program.tasks:
        rec = by_tid[task.tid]
        e = task.epoch
        last_finish[e] = max(last_finish.get(e, 0.0), rec.finish)
        first_start[e] = min(first_start.get(e, math.inf), rec.start)
    done_before = 0.0
    for e in sorted(first_start):
        if first_start[e] < done_before - _EPS:
            problems.append(f"epoch {e} starts before earlier epochs end")
        done_before = max(done_before, last_finish[e])

    issued = math.fsum(r.local_bytes + r.remote_bytes for r in records)
    declared = program_traffic(program)
    if not math.isclose(issued, declared, rel_tol=1e-12, abs_tol=1e-6):
        problems.append(
            f"records carry {issued!r} bytes, accesses declare {declared!r}"
        )

    floor = (1.0 - jitter) * max(
        critical_path_work(program),
        math.fsum(t.work for t in program.tasks) / n_cores,
    )
    if result.makespan < floor - _EPS:
        problems.append(
            f"makespan {result.makespan} under the work bound {floor}"
        )
    return problems


def cut_and_imbalance(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    adjwgt: np.ndarray,
    vwgt: np.ndarray,
    parts: np.ndarray,
    k: int,
    free: np.ndarray,
) -> tuple[float, float, float]:
    """(edge cut, imbalance, allowed slack) of one partition.

    The cut counts each undirected edge once.  Imbalance is the heaviest
    part's weight over its ideal share, minus one, over the ``free``
    vertices (anchored vertices are work placed earlier and do not count
    against balance).  The slack is the heaviest free vertex over the
    ideal share: no partition can be tighter than one vertex.
    """
    src = np.repeat(np.arange(len(xadj) - 1), np.diff(xadj))
    cut = float(adjwgt[parts[src] != parts[adjncy]].sum()) / 2.0
    w = vwgt[free]
    total = float(w.sum())
    if total <= 0:
        return cut, 0.0, 0.0
    ideal = total / k
    loads = np.bincount(parts[free], weights=w, minlength=k)
    return cut, float(loads.max() / ideal - 1.0), float(w.max() / ideal)


def check_partition(
    parts: np.ndarray, n: int, k: int, imbalance: float, tolerance: float,
    slack: float,
) -> list[str]:
    """Parts in range, and balance within tolerance up to one vertex."""
    problems = []
    if len(parts) != n:
        problems.append(f"partition of {len(parts)} vertices for {n}")
    elif len(parts) and (parts.min() < 0 or parts.max() >= k):
        problems.append("partition has a part id out of range")
    if imbalance > tolerance + slack + 1e-9:
        problems.append(
            f"partition imbalance {imbalance:.4f} over tolerance "
            f"{tolerance} + one-vertex slack {slack:.4f}"
        )
    return problems
