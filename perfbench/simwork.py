"""Child process of the simulation workloads (figure1, stencil-10k, cluster16).

Protocol with ``run.py``: the child sets itself up (interpreter, ``import
repro``, compiled solver, topology and interconnect), prints ``READY
<solver>``, waits for ``GO`` on stdin, runs whole rounds of its workload
for the requested seconds and prints one JSON line with its findings.
The parent times the set-up from spawn to ``READY``.

Run by ``run.py``; by hand: ``PYTHONPATH=src python3 perfbench/simwork.py
figure1 <seed> <seconds> <trace 0|1>`` and type ``GO``.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import statistics
import sys
import time


def _geomean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def main() -> int:
    workload, seed, seconds, trace = (
        sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    )
    from calib import Probe

    probe = Probe().start()  # first, so the set-up is calibrated too
    import repro  # noqa: F401  (set-up cost: the whole package)
    from repro import Simulator, execute_in_order, make_app
    from repro.machine import csolve

    import cells
    import checks
    import layers

    solver = "c" if csolve.load() is not None else "python"
    wl = cells.SIM_WORKLOADS[workload]()
    topo = wl.config.topology
    wl.config.interconnect()
    print(f"READY {solver} {probe.n} {probe.spent!r} {probe.timed!r}",
          flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 2

    plog = layers.PartitionLog()
    plog.install()
    tracer = layers.Tracer() if trace else None
    n = len(wl.cells)
    outcome: dict[int, tuple[float, float]] = {}
    rounds: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    t_begin = time.perf_counter()

    def run_round(r: int, traced: bool) -> dict:
        nonlocal attempted, failed
        order = list(range(n))
        random.Random(seed * 1_000_003 + r).shuffle(order)
        rnd = layers.new_round(traced)
        rnd.update(ops=[], check_s=0.0)
        for idx in order:
            cell = wl.cells[idx]
            before = tracer.snapshot() if traced else None
            mark = probe.mark()
            t0 = time.perf_counter()
            program = make_app(cell.app, **cell.params).build(topo.n_sockets)
            sim = Simulator(
                program, topo, cell.make_scheduler(),
                interconnect=wl.config.interconnect(),
                steal=wl.config.steal, seed=cells.SIM_SEED,
            )
            result = sim.run()
            raw, cal = probe.calibrate(time.perf_counter() - t0, mark)
            attempted += 1
            # -- untimed: checks and bookkeeping -------------------------
            t_check = time.perf_counter()
            bad = checks.check_schedule(
                program, result, topo.n_cores, sim.duration_jitter
            )
            bad += layers.account_partitions(rnd, plog)
            got = (result.makespan, result.remote_bytes)
            if idx in outcome and outcome[idx] != got:
                bad.append(
                    f"outcome {got} differs from round 0 {outcome[idx]}")
            outcome.setdefault(idx, got)
            if traced:
                calls = layers.account(rnd, tracer, before, cal / raw)
                for layer in ("cost.traffic", "schedulers.choose"):
                    if calls.get(layer, 0) != len(result.records):
                        bad.append(
                            f"{layer} ran {calls.get(layer, 0)} times for "
                            f"{len(result.records)} tasks"
                        )
            layers.account_sim(rnd, sim, result)
            if bad:
                failed += 1
                problems.extend(f"{cell.app}/{cell.policy}: {b}" for b in bad)
            rnd["raw_s"] += raw
            rnd["calib_s"] += cal
            rnd["tasks"] += program.n_tasks
            rnd["ops"].append((raw, cal))
            # The next operation starts on a clean heap, whatever ran
            # before it: no collection of this one's garbage in its time.
            del program, sim, result
            gc.collect()
            rnd["check_s"] += time.perf_counter() - t_check
        return rnd

    # Round 0 is always untraced: it fixes the outcomes, and in a traced
    # run it is the untraced wall the tracing overhead is measured against.
    rounds.append(run_round(0, False))
    if tracer is not None:
        tracer.install()
    min_rounds = 2 if tracer is not None else 1
    while (len(rounds) < min_rounds
           or time.perf_counter() - t_begin < seconds):
        rounds.append(run_round(len(rounds), tracer is not None))
    if tracer is not None:
        tracer.uninstall()
    probe.stop()

    # Payload check: the simulated completion order, replayed with real
    # numpy payloads, computes what the app's reference computes.
    app_name, params = wl.payload
    attempted += 1
    app = make_app(app_name, **params)
    program = app.build(topo.n_sockets, with_payload=True)
    label, make = next(
        (c.policy, c.make_scheduler) for c in wl.cells
        if c.policy == wl.speedup_pair[1]
    )
    result = Simulator(program, topo, make(),
                       interconnect=wl.config.interconnect(),
                       steal=wl.config.steal, seed=cells.SIM_SEED).run()
    execute_in_order(program, result.completion_order())
    err = app.verify()
    if not err <= 1e-9:
        failed += 1
        problems.append(f"payload {app_name}/{label}: max error {err}")

    # -- outcomes (cell order, not run order: bit-identical every run) -----
    makespans = [outcome[i][0] for i in range(n)]
    base, rgp = wl.speedup_pair
    by_app: dict[str, dict[str, float]] = {}
    for i, c in enumerate(wl.cells):
        by_app.setdefault(c.app, {})[c.policy] = outcome[i][0]
    speedups = {a: m[base] / m[rgp] for a, m in by_app.items()}
    over_base = {a: {p: m[base] / v for p, v in m.items() if p != base}
                 for a, m in by_app.items()}
    out = dict(
        solver=solver,
        attempted=attempted,
        failed=failed,
        problems=problems[:20],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        makespan_geomean=_geomean(makespans),
        rgp_las_speedup=_geomean(speedups.values()),
        remote_gb=math.fsum(outcome[i][1] for i in range(n)) / 1e9,
        speedups=speedups,
        over_baseline=over_base,
        rounds=len(rounds),
        check_s=sum(r["check_s"] for r in rounds),
        wall_s=time.perf_counter() - t_begin,
        kernel_ms=1e3 * probe.timed / probe.n,
    )
    if wl.name == "cluster16":
        out["hier_over_ep"] = _geomean(
            m["ep"] / m["rgp+las/hier"] for m in by_app.values())
        out["flat_over_ep"] = _geomean(
            m["ep"] / m["rgp+las/flat"] for m in by_app.values())
    ops = [op for rnd in rounds if not rnd["traced"] for op in rnd["ops"]]
    timed = [rnd for rnd in rounds if not rnd["traced"]]
    out["tasks_per_s"] = (sum(r["tasks"] for r in timed)
                          / sum(r["calib_s"] for r in timed))
    out["raw_tasks_per_s"] = (sum(r["tasks"] for r in timed)
                              / sum(r["raw_s"] for r in timed))
    out["result_p50_ms"] = 1e3 * statistics.median(cal for _, cal in ops)
    out["raw_result_p50_ms"] = 1e3 * statistics.median(raw for raw, _ in ops)
    if tracer is not None:
        out["layers"] = layers.layer_metrics(rounds)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
