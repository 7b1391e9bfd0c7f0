"""The ``service`` workload: ``repro serve`` driven by a closed-loop client.

One client sends one request at a time over HTTP (``POST
/v1/jobs?wait=1``) to a server with one worker.  A round sends every
small job of :data:`JOBS` under las and rgp+las: each job cold (computed
by the worker, written to the journal and the result cache) and then
once more warm (served from the cache).  Round ``r`` uses simulator seed
``r``, so every round is cold again; round 0 fixes the simulated outcomes,
which are therefore the same in every run.  The command-line seed only
permutes the order of the jobs in a round.

The client and the server's processes are pinned to one CPU, and every
request is timed between two samples of the calibration kernel taken by
the client on that CPU right before and after it.  A request takes
milliseconds and the CPU's slow bursts last 50-500 ms, so the samples
share the request's burst state (``calib.py``).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

#: (app, params, machine) of the small jobs; each runs under both policies.
JOBS = (
    ("jacobi", dict(nt=4, tile=64, sweeps=2), "four-socket"),
    ("nstream", dict(n_blocks=8, block_elems=4096, iterations=2),
     "four-socket"),
    ("redblack", dict(nt=4, tile=64, sweeps=2), "four-socket"),
)
POLICIES = ("las", "rgp+las")

#: Calibration exponent of a request (``calib.ALPHA`` for the simulator).
#: A request's time is mostly system calls and process switches, which a
#: slow CPU slows less than interpreter work: over two sets of runs in
#: which the kernel's mean went from 0.23 to 0.56 ms, the per-round
#: request time followed it with exponents 0.42 and 0.5.
REQUEST_ALPHA = 0.5


def _request(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode() or "null")
    finally:
        conn.close()


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        for task in Path(f"/proc/{p}/task").glob("*"):
            try:
                todo.extend(int(c) for c in
                            (task / "children").read_text().split())
            except OSError:
                pass
    return out


def _peak_rss_mb(pids: list[int]) -> float:
    """Σ VmHWM (peak resident set) over the processes, in MB."""
    total = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024.0


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] != "Z"


def run(args, root: Path, env: dict) -> dict:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the server and its workers inherit it
    data = root / ".perfbench_out" / f"svc-{os.getpid()}"
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    k0 = calib.sample()
    t0 = time.perf_counter()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--data-dir", str(data)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(root),
    )
    pids: list[int] = [server.pid]
    try:
        line = server.stdout.readline()
        if not line.startswith("serving on http://"):
            raise RuntimeError(f"service did not start: {line!r}")
        port = int(line.split()[2].rsplit(":", 1)[1])
        status, _ = _request(port, "GET", "/readyz")
        if status != 200:
            raise RuntimeError(f"/readyz answered {status}")
        setup_raw = time.perf_counter() - t0
        setup = calib.scale(
            setup_raw, (k0 + calib.sample()) / 2, REQUEST_ALPHA)
        res = _drive(args, port)
        pids = _descendants(server.pid)
        res["peak_rss_mb"] = _peak_rss_mb(pids)
        res["setup_raw_s"], res["setup_s"] = setup_raw, setup
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
        server.wait()
        deadline = time.monotonic() + 15
        for pid in pids[1:]:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        shutil.rmtree(data, ignore_errors=True)
    return res


def _drive(args, port: int) -> dict:
    sys.path.insert(0, str(args.src))
    import repro  # noqa: F401  (after the timed set-up)
    from repro import Simulator, make_app, make_scheduler
    from repro.experiments.config import ExperimentConfig
    from repro.machine import csolve, presets
    from repro.service.jobs import execute_spec

    import checks
    import layers

    machines = {m: presets.by_name(m) for _, _, m in JOBS}
    configs = {m: ExperimentConfig(topology=t) for m, t in machines.items()}
    programs = {}
    for app, params, machine in JOBS:
        prog = make_app(app, **params).build(machines[machine].n_sockets)
        programs[app] = (prog.n_tasks, checks.program_traffic(prog))
    cells = [(j, p) for j in JOBS for p in POLICIES]
    tracer = layers.Tracer() if args.trace else None
    plog = layers.PartitionLog()
    plog.install()
    attempted = failed = 0
    problems: list[str] = []
    rounds: list[dict] = []
    outcome: dict[tuple[str, str], dict] = {}
    t_begin = time.perf_counter()

    kernels: list[float] = []

    def op(fn):
        k0 = calib.sample()
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        k1 = calib.sample()
        kernels.append(k1)
        return out, (raw, calib.scale(raw, (k0 + k1) / 2, REQUEST_ALPHA))

    def run_round(r: int, traced: bool) -> dict:
        nonlocal attempted, failed
        order = list(range(len(cells)))
        random.Random(args.seed * 1_000_003 + r).shuffle(order)
        rnd = layers.new_round(traced)
        rnd.update(cold=[], warm=[], execute=[], overhead=[], posts=0.0,
                   post_tasks=0)
        for i in order:
            (app, params, machine), policy = cells[i]
            spec = dict(app=app, policy=policy, machine=machine, seed=r,
                        app_params=params)
            n_tasks, traffic = programs[app]
            replies = []
            for kind in ("cold", "warm"):
                (status, body), (raw, cal) = op(
                    lambda: _request(port, "POST", "/v1/jobs?wait=1", spec))
                attempted += 1
                replies.append((status, body))
                rnd[kind].append(cal)
                rnd["posts"] += cal
                rnd["post_tasks"] += n_tasks
                rnd["raw_s"] += raw
            # -- untimed: checks ----------------------------------------
            bad_cold, bad_warm = [], []
            (s_cold, cold), (s_warm, warm) = replies
            if s_cold != 200 or cold.get("state") != "DONE":
                bad_cold.append(f"cold reply {s_cold} {cold.get('state')}")
            elif cold.get("cached"):
                bad_cold.append("cold reply flagged cached")
            if s_warm != 200 or not warm.get("cached"):
                bad_warm.append("warm reply not served from the cache")
            elif warm.get("result") != cold.get("result"):
                bad_warm.append("warm result differs from the cold one")
            topo = machines[machine]
            cfg = configs[machine]
            program = make_app(app, **params).build(topo.n_sockets)
            sim = Simulator(program, topo, make_scheduler(policy),
                            interconnect=cfg.interconnect(), steal=cfg.steal,
                            seed=r)
            result = sim.run()
            bad_cold += checks.check_schedule(
                program, result, topo.n_cores, sim.duration_jitter)
            bad_cold += layers.account_partitions(rnd, plog)
            got = (cold.get("result") or {})
            mine = dict(makespan=result.makespan,
                        remote_fraction=result.remote_fraction,
                        n_tasks=program.n_tasks)
            if {k: got.get(k) for k in mine} != mine:
                bad_cold.append(
                    f"service result {got.get('makespan')!r} differs from "
                    f"the in-process run {result.makespan!r}")
            if r == 0:
                outcome[(app, policy)] = dict(
                    makespan=result.makespan,
                    remote=result.remote_fraction * traffic)
            for bad in (bad_cold, bad_warm):
                if bad:
                    failed += 1
                    problems.extend(f"{app}/{policy}/seed {r}: {b}"
                                    for b in bad)
            # execute_spec in-process: the worker's share of a cold job.
            if traced:
                tracer.install()
            try:
                before = tracer.snapshot() if traced else None
                _, (raw, cal) = op(lambda: execute_spec(spec))
            finally:
                if traced:
                    tracer.uninstall()
            plog.drain()  # the same partitions as the check run's
            rnd["execute"].append(cal)
            rnd["overhead"].append(rnd["cold"][-1] - cal)
            rnd["calib_s"] += cal
            rnd["tasks"] += n_tasks
            if traced:
                layers.account(rnd, tracer, before, cal / raw)
                layers.account_sim(rnd, *tracer.last_run)
        return rnd

    rounds.append(run_round(0, False))
    min_rounds = 2 if tracer is not None else 1
    while (len(rounds) < min_rounds
           or time.perf_counter() - t_begin < args.seconds):
        rounds.append(run_round(len(rounds), tracer is not None))

    speedups = {
        app: outcome[(app, "las")]["makespan"]
        / outcome[(app, "rgp+las")]["makespan"]
        for app, _, _ in JOBS
    }
    cold = [c for rnd in rounds for c in rnd["cold"]]
    warm = [c for rnd in rounds for c in rnd["warm"]]
    res = dict(
        solver="c" if csolve.load() is not None else "python",
        attempted=attempted,
        failed=failed,
        problems=problems[:20],
        rounds=len(rounds),
        kernel_ms=1e3 * statistics.median(kernels),
        makespan_geomean=math.exp(math.fsum(
            math.log(outcome[(j[0], p)]["makespan"]) for j, p in cells)
            / len(cells)),
        rgp_las_speedup=math.exp(math.fsum(
            math.log(s) for s in speedups.values()) / len(speedups)),
        remote_gb=math.fsum(outcome[(j[0], p)]["remote"]
                            for j, p in cells) / 1e9,
        speedups=speedups,
        tasks_per_s=sum(r["post_tasks"] for r in rounds)
        / sum(r["posts"] for r in rounds),
        result_p50_ms=1e3 * statistics.median(cold),
        raw_post_s=sum(r["raw_s"] for r in rounds),
    )
    if tracer is not None:
        lay = layers.layer_metrics(rounds)
        lay.update({
            "service.cold_p50_ms": 1e3 * statistics.median(cold),
            "service.warm_p50_ms": 1e3 * statistics.median(warm),
            "service.execute_p50_ms": 1e3 * statistics.median(
                c for rnd in rounds for c in rnd["execute"]),
            "service.overhead_p50_ms": 1e3 * statistics.median(
                c for rnd in rounds for c in rnd["overhead"]),
            "service.cache_hit_ratio": _request(
                port, "GET", "/metrics")[1]["cache_hit_rate"],
        })
        res["layers"] = lay
    return res
