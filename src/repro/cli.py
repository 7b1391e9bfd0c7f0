"""Command-line interface: ``python -m repro <command>`` / ``rgp-repro``.

Commands
--------
``figure1``   — regenerate the paper's Figure 1 (table and/or bar form).
``run``       — simulate one app under one scheduler; optional Gantt chart
                and CSV/JSON trace export; ``--faults plan.json`` injects a
                fault plan.
``faults``    — resilience experiment: run an app fault-free and under a
                fault plan (from a JSON file and/or inline ``--fail-core``
                style specs) and print the resilience report.
``analyze``   — schedule report (efficiency bounds, node pressure, phase
                profile, utilisation sparkline) plus optional DOT export.
``trace``     — instrumented run; exports a Perfetto-loadable Chrome trace
                (and optionally a Paraver timeline / flat metrics JSON).
``stats``     — instrumented run; prints the metrics-registry summary and
                the NUMA socket-by-node traffic matrix.
``ablation``  — run one of the ablation sweeps (window / partitioner /
                sockets / las / propagation / pipeline / cluster / gap).
``profile``   — critical-path profile of one instrumented run: where the
                makespan went (compute / local / remote memory / waits),
                Coz-style what-ifs; ``profile diff`` attributes the
                makespan delta between two schedulers.
``verify``    — differential-oracle verification (DESIGN.md §11):
                ``fuzz`` random cases against the reference simulator,
                ``replay`` serialized divergence/corpus files, or ``diff``
                one named app/scheduler/machine combination.
``serve``     — boot the fault-tolerant simulation job service
                (DESIGN.md §12): asyncio HTTP/JSON API, content-hash
                result cache, supervised worker pool.
``submit``    — submit one job to a running service and (optionally)
                wait for its result.
``apps``      — list the available applications, schedulers and machines.

Exit codes
----------
Every :class:`~repro.errors.ReproError` maps to a documented exit code
(see ``EXIT_CODE_MAP`` in :mod:`repro.errors`): 0 success, 1 other
library error, 2 configuration error (also argparse usage errors),
3 partition timeout, 4 verification failure, 5 fault/resilience failure,
6 benchmark failure, 7 service failure.  No traceback is printed unless
``--debug`` is given, which re-raises the error instead.
"""

from __future__ import annotations

import argparse
import sys

from .apps import APPS, make_app
from .errors import ReproError, exit_code_for
from .experiments.config import ExperimentConfig
from .machine import presets
from .metrics.trace import gantt_ascii, write_csv, write_json
from .runtime.simulator import Simulator
from .schedulers import SCHEDULERS, make_scheduler


def _window_spec(value: str):
    """``--window`` accepts a task count or ``auto`` (adaptive sizing)."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must be an integer or 'auto', got {value!r}"
        ) from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true",
                        help="reduced problem sizes and fewer seeds")
    parser.add_argument("--seeds", type=int, default=None,
                        help="number of seeds (default: config preset)")
    parser.add_argument("--window", type=_window_spec, default=None,
                        metavar="N|auto",
                        help="RGP window size limit, or 'auto' for the "
                             "adaptive controller")
    parser.add_argument("--propagation", default=None,
                        choices=["las", "repartition", "random", "cyclic"],
                        help="RGP propagation policy ('rgp' scheduler only)")
    parser.add_argument("--partition-delay", type=float, default=None,
                        help="simulated latency of a window partition")
    parser.add_argument("--prefetch-threshold", type=float, default=None,
                        metavar="F",
                        help="pipelined repartitioning: launch window k+1 "
                             "once fraction F of window k has finished "
                             "(implies --propagation repartition)")


def _config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.quick() if args.quick else ExperimentConfig.paper()
    if args.seeds is not None:
        cfg.seeds = tuple(range(args.seeds))
    if getattr(args, "window", None) is not None:
        cfg.window_size = args.window
    return cfg


def cmd_figure1(args) -> int:
    from .experiments.figure1 import run_figure1

    cfg = _config(args)
    result = run_figure1(
        cfg, progress=(lambda m: print(f"  {m}", file=sys.stderr)) if args.verbose else None
    )
    print(result.render())
    if args.bars:
        print()
        print(result.render_bars())
    return 0


def _load_fault_plan(args):
    """Assemble a FaultPlan from ``--faults FILE`` plus inline specs."""
    from .faults import (
        FaultPlan,
        TaskCrash,
        parse_core_fault,
        parse_core_slowdown,
        parse_network_degradation,
        parse_node_degradation,
        parse_node_loss,
    )

    base = (
        FaultPlan.load(args.faults)
        if getattr(args, "faults", None)
        else FaultPlan()
    )
    crashes = list(base.task_crashes)
    if getattr(args, "crash_prob", None):
        crashes.append(TaskCrash(probability=args.crash_prob))
    return FaultPlan(
        core_faults=base.core_faults
        + tuple(parse_core_fault(s) for s in getattr(args, "fail_core", []) or []),
        slowdowns=base.slowdowns
        + tuple(parse_core_slowdown(s) for s in getattr(args, "slow_core", []) or []),
        task_crashes=tuple(crashes),
        node_degradations=base.node_degradations
        + tuple(
            parse_node_degradation(s)
            for s in getattr(args, "degrade_node", []) or []
        ),
        node_losses=base.node_losses
        + tuple(
            parse_node_loss(s)
            for s in getattr(args, "lose_node", []) or []
        ),
        network_degradations=base.network_degradations
        + tuple(
            parse_network_degradation(s)
            for s in getattr(args, "degrade_net", []) or []
        ),
        partition_timeout=(
            args.partition_timeout
            if getattr(args, "partition_timeout", None) is not None
            else base.partition_timeout
        ),
    )


def _scheduler_kwargs(cfg, args) -> dict:
    """Scheduler kwargs from CLI flags (RGP schedulers only)."""
    if not args.scheduler.startswith("rgp"):
        return {}
    kwargs = {"window_size": cfg.window_size}
    if getattr(args, "partition_delay", None) is not None:
        kwargs["partition_delay"] = args.partition_delay
    if args.scheduler == "rgp":
        if getattr(args, "propagation", None) is not None:
            kwargs["propagation"] = args.propagation
        if getattr(args, "prefetch_threshold", None) is not None:
            # Pipelining implies repartition propagation; an explicitly
            # conflicting --propagation is rejected by the scheduler.
            kwargs.setdefault("propagation", "repartition")
            kwargs["prefetch_threshold"] = args.prefetch_threshold
    return kwargs


def _interconnect(cfg, topo):
    from .machine.interconnect import Interconnect

    return Interconnect(
        topo,
        remote_penalty_exp=cfg.remote_penalty_exp,
        link_fraction=cfg.link_fraction,
        core_fraction=cfg.core_fraction,
    )


def build_program(app, machine):
    """Build ``app``'s task program for ``machine``'s placement domains.

    The placement domains are the machine's *leaf sockets* — the places a
    task can run and an EP annotation can name.  Cluster machines carry
    extra memory resources beyond the sockets (one NIC per box, so
    ``n_resources > n_sockets``); programs must always be sized over the
    leaf sockets, never the resource axis, and every CLI entry point goes
    through this one helper so the two cannot drift apart.
    """
    return app.build(machine.n_sockets)


def _build_sim(cfg, topo, args, faults=None, **sim_kwargs):
    params = dict(cfg.app_params.get(args.app, {}))
    app = make_app(args.app, **params)
    program = build_program(app, topo)
    kwargs = _scheduler_kwargs(cfg, args)
    sim = Simulator(
        program, topo, make_scheduler(args.scheduler, **kwargs),
        interconnect=_interconnect(cfg, topo), seed=args.seed,
        steal=cfg.steal, faults=faults, **sim_kwargs,
    )
    return program, sim


def cmd_run(args) -> int:
    cfg = _config(args)
    if getattr(args, "cluster", None) is not None:
        topo = presets.cluster(args.cluster)
    else:
        topo = presets.by_name(args.machine)
    faults = _load_fault_plan(args) if args.faults else None
    _, sim = _build_sim(cfg, topo, args, faults=faults)
    result = sim.run()
    print(result.summary())
    if args.gantt:
        print(gantt_ascii(result))
    if args.trace_csv:
        write_csv(result, args.trace_csv)
        print(f"trace written to {args.trace_csv}")
    if args.trace_json:
        write_json(result, args.trace_json)
        print(f"trace written to {args.trace_json}")
    return 0


def cmd_faults(args) -> int:
    """Resilience experiment: fault-free vs faulted run + report."""
    from .metrics.resilience import resilience_report
    from .runtime.validation import validate_schedule

    cfg = _config(args)
    topo = presets.by_name(args.machine)
    plan = _load_fault_plan(args)
    if plan.is_empty():
        print("fault plan is empty — nothing to inject", file=sys.stderr)
        return 2
    if args.save_plan:
        plan.dump(args.save_plan)
        print(f"fault plan written to {args.save_plan}")
    print("fault plan:")
    for line in plan.describe().splitlines():
        print(f"  {line}")

    program, base_sim = _build_sim(cfg, topo, args)
    fault_free = base_sim.run()
    _, sim = _build_sim(
        cfg, topo, args, faults=plan,
        max_retries=args.max_retries, retry_backoff=args.retry_backoff,
    )
    result = sim.run()
    validate_schedule(program, result, topo)
    print()
    print(f"fault-free: {fault_free.summary()}")
    print(f"faulted:    {result.summary()}")
    print()
    print(resilience_report(result, fault_free).render())
    return 0


def cmd_trace(args) -> int:
    """Instrumented run + timeline export (DESIGN.md §8)."""
    from .observability import (
        Instrumentation,
        RingBufferSink,
        write_chrome_trace,
        write_metrics_json,
        write_paraver,
    )

    cfg = _config(args)
    topo = presets.by_name(args.machine)
    faults = _load_fault_plan(args) if args.faults else None
    obs = Instrumentation(sink=RingBufferSink(args.capacity))
    program, sim = _build_sim(cfg, topo, args, faults=faults, instrument=obs)
    result = sim.run()
    print(result.summary())
    dropped = obs.sink.dropped
    if dropped:
        print(f"note: ring buffer dropped {dropped} events "
              f"(raise --capacity to keep them)", file=sys.stderr)
    write_chrome_trace(result, args.out, tdg=program.tdg)
    print(f"chrome trace written to {args.out} "
          f"(open in https://ui.perfetto.dev)")
    if args.paraver:
        write_paraver(result, args.paraver)
        print(f"paraver timeline written to {args.paraver}")
    if args.metrics_json:
        write_metrics_json(result, args.metrics_json)
        print(f"metrics written to {args.metrics_json}")
    return 0


def _run_profiled(cfg, topo, args, scheduler_name, *, capacity=1 << 20):
    """Instrumented run of one scheduler + its critical-path profile."""
    from .observability import Instrumentation, RingBufferSink
    from .profiling import profile_run

    ns = argparse.Namespace(**vars(args))
    ns.scheduler = scheduler_name
    faults = _load_fault_plan(ns) if getattr(ns, "faults", None) else None
    obs = Instrumentation(sink=RingBufferSink(capacity))
    program, sim = _build_sim(cfg, topo, ns, faults=faults, instrument=obs)
    result = sim.run()
    report = profile_run(
        program, result, topo, interconnect=_interconnect(cfg, topo)
    )
    return program, result, report


def cmd_profile(args) -> int:
    """Critical-path profile: where did this run's makespan go?"""
    import json as _json

    if args.app is None or args.scheduler is None:
        print("error: profile needs --app and --scheduler "
              "(or use 'profile diff')", file=sys.stderr)
        return 2
    cfg = _config(args)
    topo = presets.by_name(args.machine)
    program, result, report = _run_profiled(
        cfg, topo, args, args.scheduler, capacity=args.capacity
    )
    print(report.render(top=args.top))
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"profile written to {args.json}")
    if args.perfetto:
        from .observability import write_chrome_trace

        write_chrome_trace(
            result, args.perfetto, tdg=program.tdg, critical_path=report
        )
        print(f"chrome trace (critical path highlighted) written to "
              f"{args.perfetto} (open in https://ui.perfetto.dev)")
    return 0


def cmd_profile_diff(args) -> int:
    """Differential profile: why is run B faster/slower than run A?"""
    import json as _json

    from .profiling import diff_profiles

    cfg = _config(args)
    topo = presets.by_name(args.machine)
    _, _, report_a = _run_profiled(cfg, topo, args, args.a)
    _, _, report_b = _run_profiled(cfg, topo, args, args.b)
    diff = diff_profiles(report_a, report_b)
    print(diff.render(top=args.top))
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(diff.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"diff written to {args.json}")
    return 0


def cmd_stats(args) -> int:
    """Instrumented run + metrics-registry summary (no event buffering)."""
    from .observability import NULL_SINK, Instrumentation

    cfg = _config(args)
    topo = presets.by_name(args.machine)
    faults = _load_fault_plan(args) if args.faults else None
    obs = Instrumentation(sink=NULL_SINK)
    _, sim = _build_sim(cfg, topo, args, faults=faults, instrument=obs)
    result = sim.run()
    print(result.summary())
    print()
    print(obs.registry.render())
    return 0


def cmd_ablation(args) -> int:
    from .experiments import ablations

    cfg = _config(args)
    if args.which == "gap":
        report = ablations.run_gap_ablation(cfg, quick=args.quick)
        print(report.render())
        if args.gate_drb is not None:
            mean = report.mean_gap("drb")
            if mean > args.gate_drb:
                print(
                    f"FAIL: drb mean optimality gap {mean * 100:.1f}% "
                    f"exceeds gate {args.gate_drb * 100:.1f}%"
                )
                return 6
            print(
                f"gate ok: drb mean optimality gap {mean * 100:.1f}% "
                f"<= {args.gate_drb * 100:.1f}%"
            )
        return 0
    runner = {
        "window": ablations.run_window_ablation,
        "partitioner": ablations.run_partitioner_ablation,
        "sockets": ablations.run_socket_ablation,
        "las": ablations.run_las_ablation,
        "propagation": ablations.run_propagation_ablation,
        "pipeline": ablations.run_pipeline_ablation,
        "cluster": ablations.run_cluster_ablation,
    }[args.which]
    print(runner(cfg).render())
    return 0


def _parse_budget(value: str) -> float:
    """``--budget`` accepts seconds (``120``, ``120s``) or minutes (``2m``)."""
    text = value.strip().lower()
    try:
        if text.endswith("m"):
            return float(text[:-1]) * 60.0
        if text.endswith("s"):
            return float(text[:-1])
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"budget must look like '120', '120s' or '2m', got {value!r}"
        ) from None


def cmd_verify(args) -> int:
    """Differential-oracle verification: fuzz / replay / diff."""
    from .verify import POLICY_MATRIX, differential_run, fuzz, replay_file

    if args.verify_command == "fuzz":
        known = [label for label, _, _ in POLICY_MATRIX]
        for policy in args.policies or []:
            if policy not in known:
                print(f"error: unknown policy {policy!r} "
                      f"(choose from {', '.join(known)})", file=sys.stderr)
                return 2
        report = fuzz(
            args.seeds,
            policies=args.policies or None,
            budget_s=args.budget,
            out_dir=args.out_dir,
            progress=(
                (lambda m: print(f"  {m}", file=sys.stderr))
                if args.verbose else None
            ),
        )
        print(report.summary())
        return 0 if report.ok else 1

    if args.verify_command == "replay":
        import os

        paths: list[str] = []
        for target in args.paths:
            if os.path.isdir(target):
                paths.extend(
                    os.path.join(target, name)
                    for name in sorted(os.listdir(target))
                    if name.endswith(".json")
                )
            else:
                paths.append(target)
        if not paths:
            print("error: no case files to replay", file=sys.stderr)
            return 2
        failures = 0
        for path in paths:
            report = replay_file(path)
            print(f"{path}: {report.summary()}")
            if not report.ok:
                failures += 1
                if args.out_dir:
                    from .verify import save_repro

                    print(f"  repro file: {save_repro(report, args.out_dir)}")
        return 1 if failures else 0

    # verify diff
    report = differential_run(
        args.scheduler,
        args.app,
        args.machine,
        faults=args.faults,
        scheduler_kwargs=(
            {"window_size": args.window} if args.window is not None else None
        ),
        seed=args.seed,
    )
    print(report.summary())
    if args.out:
        from .verify import save_repro

        print(f"case written to {save_repro(report, args.out)}")
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    """Boot the simulation job service (DESIGN.md §12)."""
    import asyncio

    from .service import ServiceConfig
    from .service.http import serve

    config = ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        poison_threshold=args.poison_threshold,
        rate_per_s=args.rate,
        burst=args.burst,
        default_deadline_s=args.deadline,
        drain_grace_s=args.drain_grace,
        data_dir=args.data_dir,
    )

    def ready(port: int) -> None:
        print(f"serving on http://{args.host}:{port} "
              f"({args.workers} workers, queue {args.queue_capacity}"
              + (f", data dir {args.data_dir}" if args.data_dir else "")
              + ")", flush=True)

    asyncio.run(serve(config, args.host, args.port, ready_message=ready))
    return 0


def cmd_submit(args) -> int:
    """Submit one job to a running service; optionally wait for it."""
    import json as _json

    from .service.client import ServiceClient
    from .service.jobs import JobState

    if args.spec:
        spec = _json.loads(open(args.spec).read())
    elif args.app is None or args.scheduler is None:
        print("error: need --spec FILE or both --app and --scheduler",
              file=sys.stderr)
        return 2
    else:
        spec = {
            "app": args.app,
            "policy": args.scheduler,
            "machine": args.machine,
            "seed": args.seed,
        }
        if args.faults:
            from .faults import FaultPlan

            spec["faults"] = FaultPlan.load(args.faults).to_dict()
        if args.tenant:
            spec["tenant"] = args.tenant
        if args.deadline is not None:
            spec["deadline_s"] = args.deadline
    client = ServiceClient(args.host, args.port)
    response = client.submit(spec, wait=args.wait,
                             wait_timeout=args.wait_timeout)
    if response.status == 429:
        hint = response.retry_after_s
        print(f"shed (HTTP 429), retry after {hint}s", file=sys.stderr)
        return 75  # EX_TEMPFAIL: transient, retry later
    if response.status >= 400:
        print(f"error: HTTP {response.status}: "
              f"{response.body.get('error', response.body)}", file=sys.stderr)
        return 1
    print(_json.dumps(response.body, indent=2, sort_keys=True))
    state = response.body.get("state")
    if args.wait and state != JobState.DONE:
        return 1
    return 0


def cmd_apps(args) -> int:
    print("applications:", ", ".join(sorted(APPS)))
    print("schedulers:  ", ", ".join(sorted(SCHEDULERS)))
    print("machines:    ", ", ".join(sorted(presets.PRESETS)))
    return 0


def cmd_analyze(args) -> int:
    """Simulate once and print the full schedule report + timeline."""
    from .metrics.analysis import schedule_report, utilization_timeline

    cfg = _config(args)
    topo = presets.by_name(args.machine)
    params = dict(cfg.app_params.get(args.app, {}))
    app = make_app(args.app, **params)
    program = build_program(app, topo)
    kwargs = _scheduler_kwargs(cfg, args)
    from .machine.interconnect import Interconnect

    sim = Simulator(
        program, topo, make_scheduler(args.scheduler, **kwargs),
        interconnect=Interconnect(
            topo, remote_penalty_exp=cfg.remote_penalty_exp,
            link_fraction=cfg.link_fraction, core_fraction=cfg.core_fraction,
        ),
        seed=args.seed, steal=cfg.steal,
    )
    result = sim.run()
    print(schedule_report(program, result, topo))
    # Utilisation sparkline.
    _, busy = utilization_timeline(result, n_points=64)
    if len(busy):
        blocks = " .:-=+*#%@"
        top = max(int(busy.max()), 1)
        line = "".join(
            blocks[min(len(blocks) - 1, int(b / top * (len(blocks) - 1)))]
            for b in busy
        )
        print(f"utilization [{line}] (peak {top} cores)")
    if args.dot:
        from .graph.dot import write_dot

        write_dot(program.tdg, args.dot, max_nodes=args.dot_max_nodes)
        print(f"TDG written to {args.dot}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgp-repro",
        description=(
            "Reproduction of 'Graph partitioning applied to DAG scheduling "
            "to reduce NUMA effects' (PPoPP 2018)"
        ),
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="re-raise library errors with a full traceback instead of "
             "the one-line 'error: ...' + documented exit code",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure1", help="regenerate Figure 1")
    _add_common(p)
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument("--bars", action="store_true",
                   help="render the paper-style clipped bar chart too")
    p.set_defaults(fn=cmd_figure1)

    p = sub.add_parser("run", help="simulate one app under one scheduler")
    _add_common(p)
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--scheduler", required=True, choices=sorted(SCHEDULERS))
    p.add_argument("--machine", default="bullion-s16",
                   choices=sorted(presets.PRESETS))
    p.add_argument("--cluster", type=int, default=None, metavar="N_BOXES",
                   help="simulate an N_BOXES-node cluster (overrides "
                        "--machine; each node is a 2-socket NUMA box)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gantt", action="store_true", help="ASCII Gantt chart")
    p.add_argument("--trace-csv", default=None)
    p.add_argument("--trace-json", default=None)
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="inject a fault plan (JSON file, see 'faults' cmd)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "faults",
        help="resilience experiment: fault-free vs faulted run + report",
    )
    _add_common(p)
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--scheduler", required=True, choices=sorted(SCHEDULERS))
    p.add_argument("--machine", default="bullion-s16",
                   choices=sorted(presets.PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="load a fault plan file (inline specs add to it)")
    p.add_argument("--fail-core", action="append", metavar="CORE@AT[:DUR]",
                   help="kill a core at a time (repeatable)")
    p.add_argument("--slow-core", action="append",
                   metavar="CORE@AT*FACTOR[:DUR]",
                   help="straggler: core runs FACTOR-times slower")
    p.add_argument("--degrade-node", action="append",
                   metavar="NODE@AT*FACTOR[:DUR]",
                   help="scale a memory node's bandwidth by FACTOR<1")
    p.add_argument("--lose-node", action="append", metavar="BOX@AT[:DUR]",
                   help="drop a whole cluster box at a time (repeatable)")
    p.add_argument("--degrade-net", action="append",
                   metavar="BOX@AT*FACTOR[:DUR]",
                   help="scale a cluster box's NIC bandwidth by FACTOR<1")
    p.add_argument("--crash-prob", type=float, default=None,
                   help="per-attempt task crash probability")
    p.add_argument("--partition-timeout", type=float, default=None,
                   help="declare the window partition lost at this time")
    p.add_argument("--max-retries", type=int, default=3,
                   help="per-task re-execution limit (default 3)")
    p.add_argument("--retry-backoff", type=float, default=0.0,
                   help="base of the exponential re-execution backoff")
    p.add_argument("--save-plan", default=None, metavar="OUT.json",
                   help="also write the assembled plan to a file")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "trace",
        help="instrumented run; export Perfetto/Paraver timelines",
    )
    _add_common(p)
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--scheduler", required=True, choices=sorted(SCHEDULERS))
    p.add_argument("--machine", default="bullion-s16",
                   choices=sorted(presets.PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="TRACE.json",
                   help="Chrome trace output (open in ui.perfetto.dev)")
    p.add_argument("--paraver", default=None, metavar="TRACE.prv",
                   help="also write a Paraver-flavoured text timeline")
    p.add_argument("--metrics-json", default=None, metavar="METRICS.json",
                   help="also write the flat metrics/registry snapshot")
    p.add_argument("--capacity", type=int, default=1 << 20,
                   help="event ring-buffer capacity (default 1Mi events)")
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="inject a fault plan (JSON file, see 'faults' cmd)")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "stats",
        help="instrumented run; print the metrics-registry summary",
    )
    _add_common(p)
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--scheduler", required=True, choices=sorted(SCHEDULERS))
    p.add_argument("--machine", default="bullion-s16",
                   choices=sorted(presets.PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="inject a fault plan (JSON file, see 'faults' cmd)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("ablation", help="run an ablation sweep")
    _add_common(p)
    p.add_argument("which", choices=["window", "partitioner", "sockets",
                                     "las", "propagation", "pipeline",
                                     "cluster", "gap"])
    p.add_argument("--gate-drb", type=float, default=None, metavar="FRAC",
                   help="gap only: exit 6 if drb's mean optimality gap "
                        "exceeds FRAC (e.g. 0.15)")
    p.set_defaults(fn=cmd_ablation)

    p = sub.add_parser(
        "profile",
        help="critical-path profile of one run; 'profile diff' compares "
             "two schedulers (DESIGN.md §13)",
    )
    psub = p.add_subparsers(dest="profile_command")
    _add_common(p)
    p.add_argument("--app", default=None, choices=sorted(APPS))
    p.add_argument("--scheduler", default=None, choices=sorted(SCHEDULERS))
    p.add_argument("--machine", default="bullion-s16",
                   choices=sorted(presets.PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="inject a fault plan (JSON file, see 'faults' cmd)")
    p.add_argument("--top", type=int, default=5,
                   help="how many top critical-path tasks to list")
    p.add_argument("--json", default=None, metavar="OUT.json",
                   help="also write the full profile as JSON")
    p.add_argument("--perfetto", default=None, metavar="TRACE.json",
                   help="also write a Chrome trace with the critical "
                        "path as a highlighted track")
    p.add_argument("--capacity", type=int, default=1 << 20,
                   help="event ring-buffer capacity (default 1Mi events)")
    p.set_defaults(fn=cmd_profile)

    d = psub.add_parser(
        "diff",
        help="differential profile: run two schedulers, attribute the "
             "makespan delta by component",
    )
    _add_common(d)
    d.add_argument("--app", required=True, choices=sorted(APPS))
    d.add_argument("-a", "--a", required=True, dest="a", metavar="SCHED",
                   choices=sorted(SCHEDULERS), help="baseline scheduler")
    d.add_argument("-b", "--b", required=True, dest="b", metavar="SCHED",
                   choices=sorted(SCHEDULERS), help="candidate scheduler")
    d.add_argument("--machine", default="bullion-s16",
                   choices=sorted(presets.PRESETS))
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="inject the same fault plan into both runs")
    d.add_argument("--top", type=int, default=8,
                   help="how many per-task moves to list")
    d.add_argument("--json", default=None, metavar="OUT.json",
                   help="also write the diff as JSON")
    d.set_defaults(fn=cmd_profile_diff)

    p = sub.add_parser(
        "verify",
        help="differential-oracle verification (fuzz / replay / diff)",
    )
    vsub = p.add_subparsers(dest="verify_command", required=True)

    v = vsub.add_parser(
        "fuzz",
        help="random programs/topologies/faults diffed against the oracle",
    )
    v.add_argument("--seeds", type=int, default=50,
                   help="number of fuzz seeds (default 50)")
    v.add_argument("--budget", type=_parse_budget, default=None,
                   metavar="120s|2m",
                   help="wall-clock budget; stop early when exceeded")
    v.add_argument("--policies", nargs="+", default=None,
                   help="restrict to these policy labels "
                        "(default: the full matrix)")
    v.add_argument("--out-dir", default="verify-repros",
                   help="directory for divergence repro files "
                        "(default verify-repros/)")
    v.add_argument("-v", "--verbose", action="store_true",
                   help="print one progress line per seed")
    v.set_defaults(fn=cmd_verify)

    v = vsub.add_parser(
        "replay",
        help="re-run serialized cases (repro files, corpus entries)",
    )
    v.add_argument("paths", nargs="+", metavar="FILE|DIR",
                   help="case files, or directories of *.json cases")
    v.add_argument("--out-dir", default=None, metavar="DIR",
                   help="serialize diverging cases to DIR (CI artifacts)")
    v.set_defaults(fn=cmd_verify)

    v = vsub.add_parser(
        "diff",
        help="diff one production run against the reference oracle",
    )
    v.add_argument("--app", required=True, choices=sorted(APPS))
    v.add_argument("--scheduler", required=True, choices=sorted(SCHEDULERS))
    v.add_argument("--machine", default="two-socket",
                   choices=sorted(presets.PRESETS))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--window", type=int, default=None,
                   help="RGP window size (rgp schedulers only)")
    v.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="inject a fault plan during the diffed run")
    v.add_argument("--out", default=None, metavar="DIR",
                   help="serialize the case (divergent or not) to DIR")
    v.set_defaults(fn=cmd_verify)

    p = sub.add_parser(
        "serve",
        help="boot the fault-tolerant simulation job service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8023,
                   help="listen port (0 = pick a free one; default 8023)")
    p.add_argument("--workers", type=int, default=2,
                   help="simulation worker processes (default 2)")
    p.add_argument("--queue-capacity", type=int, default=64,
                   help="bounded admission queue size (default 64)")
    p.add_argument("--poison-threshold", type=int, default=2,
                   help="worker crashes before a job is quarantined "
                        "(default 2)")
    p.add_argument("--rate", type=float, default=0.0,
                   help="per-tenant admission rate in jobs/s "
                        "(0 disables quotas; default 0)")
    p.add_argument("--burst", type=float, default=None,
                   help="per-tenant token-bucket burst (default: rate)")
    p.add_argument("--deadline", type=float, default=None,
                   help="default per-job deadline in seconds")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   help="SIGTERM drain grace period (default 10s)")
    p.add_argument("--data-dir", default=None, metavar="DIR",
                   help="persistence root (result cache, journal, "
                        "quarantine); omit for in-memory only")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit one job to a running service",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8023)
    p.add_argument("--spec", default=None, metavar="SPEC.json",
                   help="full job spec file (overrides the flags below)")
    p.add_argument("--app", default=None, choices=sorted(APPS))
    p.add_argument("--scheduler", default=None, choices=sorted(SCHEDULERS))
    p.add_argument("--machine", default="two-socket",
                   choices=sorted(presets.PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", default=None, metavar="PLAN.json",
                   help="fault plan injected into the simulated machine")
    p.add_argument("--tenant", default=None)
    p.add_argument("--deadline", type=float, default=None,
                   help="per-job deadline in seconds")
    p.add_argument("--wait", action="store_true",
                   help="block until the job reaches a terminal state")
    p.add_argument("--wait-timeout", type=float, default=None)
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("apps", help="list apps/schedulers/machines")
    p.set_defaults(fn=cmd_apps)

    p = sub.add_parser("analyze",
                       help="schedule report for one app/scheduler run")
    _add_common(p)
    p.add_argument("--app", required=True, choices=sorted(APPS))
    p.add_argument("--scheduler", required=True, choices=sorted(SCHEDULERS))
    p.add_argument("--machine", default="bullion-s16",
                   choices=sorted(presets.PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", default=None, help="write the TDG as DOT")
    p.add_argument("--dot-max-nodes", type=int, default=2000)
    p.set_defaults(fn=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        if getattr(args, "debug", False):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
