"""Metamorphic + differential fuzzing harness.

Generates random ``(program, topology, fault plan, simulator knobs)``
cases and pushes each one through :func:`repro.verify.differential.
run_case` under the full policy matrix — DFIFO, LAS, EP, RGP+LAS, and RGP
with the pipelined and blocking repartition paths.  Any divergence is
serialized to a repro file for ``repro verify replay``.

Two generator front ends share the same building blocks:

* seeded :mod:`numpy.random` generators (:func:`make_case`) — the CLI
  ``repro verify fuzz`` path, reproducible from a bare integer seed;
* :func:`make_strategies` — hypothesis strategies over the same space for
  the property suite, with shrinking (lazily imported so the runtime
  package never requires hypothesis).

Generated fault plans are deliberately *survivable*: core failures are
transient, at most a few task-crash rules with bounded ``max_crashes``,
retry limits high — a production run that still dies is reported as a
``production-error`` (legitimate, nothing to diff), never a divergence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..faults.plan import (
    CoreFault,
    CoreSlowdown,
    FaultPlan,
    NetworkDegradation,
    NodeDegradation,
    NodeLoss,
    TaskCrash,
)
from ..machine.presets import cluster
from ..machine.topology import NumaTopology, uniform_distance_matrix
from ..runtime.data import AccessMode, DataAccess
from ..runtime.program import TaskProgram
from .differential import (
    DifferentialReport,
    VerifyCase,
    run_case,
    save_repro,
)

#: One label per verified policy configuration (the acceptance matrix).
POLICY_MATRIX: list[tuple[str, str, dict]] = [
    ("dfifo", "dfifo", {}),
    ("las", "las", {}),
    ("ep", "ep", {}),
    ("calist", "calist", {}),
    ("bsp", "bsp", {}),
    ("rgp+las", "rgp+las", {"window_size": 8}),
    (
        "rgp-pipelined",
        "rgp",
        {
            "window_size": 6,
            "propagation": "repartition",
            "prefetch_threshold": 0.5,
        },
    ),
    (
        "rgp-blocking",
        "rgp",
        {"window_size": 6, "propagation": "repartition"},
    ),
]

_PAGE = 4096


# ----------------------------------------------------------------------
# Seeded numpy generators
# ----------------------------------------------------------------------
def random_topology(rng: np.random.Generator) -> NumaTopology:
    # A third of the seeds exercise the cluster machine model: message
    # events, NIC contention and the per-box fault families all ride the
    # same differential/bit-identity checks as single-box runs.
    if rng.random() < 0.35:
        n_boxes = int(rng.integers(2, 5))
        spb = int(rng.integers(1, 3))
        cores = int(rng.integers(1, 4))
        return cluster(
            n_boxes,
            sockets_per_box=spb,
            cores_per_socket=cores,
            node_bandwidth=float(rng.uniform(2e5, 2e6)),
            nic_fraction=float(rng.uniform(0.08, 0.3)),
            name=f"fuzz-cluster{n_boxes}x{spb}x{cores}",
        )
    n_sockets = int(rng.integers(2, 5))
    cores = int(rng.integers(1, 5))
    remote = float(rng.uniform(12.0, 30.0))
    bandwidth = float(rng.uniform(2e5, 2e6))
    return NumaTopology(
        n_sockets=n_sockets,
        cores_per_socket=cores,
        distance=uniform_distance_matrix(n_sockets, remote=remote),
        node_bandwidth=bandwidth,
        name=f"fuzz-{n_sockets}x{cores}",
    )


def random_program(
    rng: np.random.Generator, n_sockets: int, max_tasks: int = 40
) -> TaskProgram:
    """Random program: mixed-size objects (pre-bound, interleaved or
    deferred), sub-range accesses, occasional barriers, EP annotations."""
    prog = TaskProgram("fuzz")
    objs = []
    for i in range(int(rng.integers(1, 9))):
        size = int(rng.integers(1, 33)) * _PAGE
        if rng.random() < 0.4:
            size += int(rng.integers(1, _PAGE))  # partial last page
        style = rng.random()
        if style < 0.2:
            obj = prog.data(
                f"obj{i}", size, initial_node=int(rng.integers(n_sockets))
            )
        elif style < 0.35:
            obj = prog.data(f"obj{i}", size, interleaved=True)
        else:
            obj = prog.data(f"obj{i}", size)
        objs.append(obj)
    n_tasks = int(rng.integers(5, max_tasks + 1))
    for t in range(n_tasks):
        if t and rng.random() < 0.08:
            prog.barrier()
        ins: list = []
        outs: list = []
        inouts: list = []
        for _ in range(int(rng.integers(0, 4))):
            obj = objs[int(rng.integers(len(objs)))]
            mode_draw = rng.random()
            if mode_draw < 0.5:
                mode, bucket = AccessMode.IN, ins
            elif mode_draw < 0.8:
                mode, bucket = AccessMode.OUT, outs
            else:
                mode, bucket = AccessMode.INOUT, inouts
            if rng.random() < 0.3 and obj.size_bytes > 2 * _PAGE:
                offset = int(rng.integers(0, obj.size_bytes // 2))
                length = int(rng.integers(1, obj.size_bytes - offset + 1))
                bucket.append(DataAccess(obj, mode, offset, length))
            else:
                bucket.append(DataAccess(obj, mode))
        prog.task(
            f"t{t}",
            ins=ins,
            outs=outs,
            inouts=inouts,
            work=float(rng.uniform(0.05, 1.5)),
            meta={"ep_socket": int(rng.integers(n_sockets))},
        )
    return prog.finalize()


def random_faults(
    rng: np.random.Generator, topology: NumaTopology
) -> FaultPlan | None:
    """A mild, survivable fault plan — or None (also a case worth checking)."""
    if rng.random() < 0.4:
        return None
    core_faults = []
    slowdowns = []
    degradations = []
    crashes = []
    if rng.random() < 0.5 and topology.n_cores >= 2:
        core_faults.append(
            CoreFault(
                core=int(rng.integers(topology.n_cores)),
                at=float(rng.uniform(0.1, 1.5)),
                duration=float(rng.uniform(0.3, 1.0)),  # transient only
            )
        )
    if rng.random() < 0.5:
        slowdowns.append(
            CoreSlowdown(
                core=int(rng.integers(topology.n_cores)),
                at=float(rng.uniform(0.0, 1.0)),
                factor=float(rng.uniform(1.5, 4.0)),
                duration=(
                    float(rng.uniform(0.3, 1.5))
                    if rng.random() < 0.7
                    else None
                ),
            )
        )
    if rng.random() < 0.4:
        degradations.append(
            NodeDegradation(
                node=int(rng.integers(topology.n_nodes)),
                at=float(rng.uniform(0.0, 1.0)),
                factor=float(rng.uniform(0.4, 0.9)),
                duration=(
                    float(rng.uniform(0.5, 1.5))
                    if rng.random() < 0.7
                    else None
                ),
            )
        )
    if rng.random() < 0.5:
        crashes.append(
            TaskCrash(
                probability=float(rng.uniform(0.02, 0.15)),
                at_fraction=float(rng.uniform(0.1, 0.9)),
                max_crashes=int(rng.integers(1, 4)),
            )
        )
    partition_timeout = (
        float(rng.uniform(0.05, 0.3)) if rng.random() < 0.3 else None
    )
    # Cluster-only families.  A single box loss out of >= 2 boxes is
    # survivable (tasks remap to the nearest surviving socket); losing
    # box 0 is fair game too.
    node_losses = []
    net_degradations = []
    n_boxes = getattr(topology, "n_boxes", 1)
    if n_boxes > 1:
        if rng.random() < 0.4:
            node_losses.append(
                NodeLoss(
                    box=int(rng.integers(n_boxes)),
                    at=float(rng.uniform(0.1, 1.2)),
                    duration=(
                        float(rng.uniform(0.3, 1.0))
                        if rng.random() < 0.6
                        else None
                    ),
                )
            )
        if rng.random() < 0.4:
            net_degradations.append(
                NetworkDegradation(
                    box=int(rng.integers(n_boxes)),
                    at=float(rng.uniform(0.0, 1.0)),
                    factor=float(rng.uniform(0.3, 0.8)),
                    duration=(
                        float(rng.uniform(0.5, 1.5))
                        if rng.random() < 0.7
                        else None
                    ),
                )
            )
    plan = FaultPlan(
        core_faults=core_faults,
        slowdowns=slowdowns,
        task_crashes=crashes,
        node_degradations=degradations,
        node_losses=node_losses,
        network_degradations=net_degradations,
        partition_timeout=partition_timeout,
    )
    return None if plan.is_empty() else plan


def make_case(
    seed: int, label: str, scheduler: str, scheduler_kwargs: dict
) -> VerifyCase:
    """Deterministic case for ``seed``: the machine, program, faults and
    simulator knobs depend only on the seed, so every policy of the matrix
    sees the same scenario."""
    rng = np.random.default_rng([int(seed), 0xD1FF])
    topology = random_topology(rng)
    program = random_program(rng, topology.n_sockets)
    faults = random_faults(rng, topology)
    interconnect_kwargs = {
        "remote_penalty_exp": float(rng.choice([1.0, 1.0, 1.3])),
        "latency_cost_per_access": float(rng.choice([0.0, 0.0, 1e-4])),
    }
    sim_kwargs = {
        "seed": int(seed),
        "steal": [True, "near", False][int(rng.integers(3))],
        "duration_jitter": float(rng.choice([0.0, 0.03, 0.08])),
        "max_retries": 10,
        "retry_backoff": float(rng.choice([0.0, 0.0, 0.05])),
    }
    partition_delay = float(rng.uniform(0.05, 0.4))
    kwargs = dict(scheduler_kwargs)
    if scheduler in ("rgp", "rgp+las"):
        kwargs.setdefault("partition_delay", partition_delay)
    return VerifyCase(
        program=program,
        topology=topology,
        scheduler=scheduler,
        scheduler_kwargs=kwargs,
        interconnect_kwargs=interconnect_kwargs,
        sim_kwargs=sim_kwargs,
        faults=faults,
        label=f"seed{seed}-{label}",
    )


# ----------------------------------------------------------------------
# The fuzz driver (CLI and CI entry point)
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing session."""

    seeds: list[int] = field(default_factory=list)
    n_cases: int = 0
    n_ok: int = 0
    n_production_errors: int = 0
    failures: list[tuple[int, DifferentialReport]] = field(default_factory=list)
    repro_files: list[str] = field(default_factory=list)
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.n_cases} cases over {len(self.seeds)} seeds — "
            f"{self.n_ok} ok, {self.n_production_errors} production errors, "
            f"{len(self.failures)} divergences"
            + (" (budget exhausted)" if self.budget_exhausted else "")
        ]
        for seed, report in self.failures:
            lines.append(f"  seed {seed}: {report.summary()}")
        for path in self.repro_files:
            lines.append(f"  repro file: {path}")
        return "\n".join(lines)


def fuzz(
    seeds,
    *,
    policies: list[str] | None = None,
    budget_s: float | None = None,
    out_dir: str | None = None,
    progress=None,
) -> FuzzReport:
    """Differential-fuzz the given seeds (an int count or an iterable).

    ``policies`` filters :data:`POLICY_MATRIX` by label; ``budget_s`` stops
    after a wall-clock budget (the seeds actually covered are reported);
    ``out_dir`` receives a repro file per divergence; ``progress`` is an
    optional callable receiving one line per seed.
    """
    if isinstance(seeds, int):
        seeds = range(seeds)
    matrix = [
        entry for entry in POLICY_MATRIX
        if policies is None or entry[0] in policies
    ]
    if not matrix:
        raise ValueError(f"no policy matches {policies!r}")
    report = FuzzReport()
    deadline = time.monotonic() + budget_s if budget_s is not None else None
    for seed in seeds:
        if deadline is not None and time.monotonic() > deadline:
            report.budget_exhausted = True
            break
        seed = int(seed)
        report.seeds.append(seed)
        outcomes = []
        for label, scheduler, scheduler_kwargs in matrix:
            case = make_case(seed, label, scheduler, scheduler_kwargs)
            diff = run_case(case)
            report.n_cases += 1
            if diff.status == "ok":
                report.n_ok += 1
            elif diff.status == "production-error":
                report.n_production_errors += 1
            else:
                report.failures.append((seed, diff))
                if out_dir is not None:
                    report.repro_files.append(save_repro(diff, out_dir))
            outcomes.append(f"{label}:{diff.status}")
        if progress is not None:
            progress(f"seed {seed}: " + " ".join(outcomes))
    return report


# ----------------------------------------------------------------------
# Hypothesis strategies (lazy: the runtime never imports hypothesis)
# ----------------------------------------------------------------------
def make_strategies():
    """Build hypothesis strategies over the fuzz space.

    Returns a namespace with ``topologies``, ``programs`` (drawing its
    socket count from the topology strategy is the caller's business),
    ``fault_plans`` and ``seeds``; shrinking works structurally (fewer
    tasks, smaller objects, milder faults)."""
    from hypothesis import strategies as st

    @st.composite
    def topologies(draw):
        n_sockets = draw(st.integers(2, 4))
        cores = draw(st.integers(1, 3))
        remote = draw(
            st.floats(12.0, 30.0, allow_nan=False, allow_infinity=False)
        )
        bandwidth = draw(st.sampled_from([2e5, 1e6, 2e6]))
        return NumaTopology(
            n_sockets=n_sockets,
            cores_per_socket=cores,
            distance=uniform_distance_matrix(n_sockets, remote=remote),
            node_bandwidth=bandwidth,
            name=f"hyp-{n_sockets}x{cores}",
        )

    @st.composite
    def programs(draw, n_sockets: int = 4, max_tasks: int = 16):
        prog = TaskProgram("hyp")
        objs = [
            prog.data(f"obj{i}", draw(st.integers(1, 12)) * _PAGE)
            for i in range(draw(st.integers(1, 4)))
        ]
        n_tasks = draw(st.integers(2, max_tasks))
        for t in range(n_tasks):
            if t and draw(st.booleans()) and draw(st.booleans()):
                prog.barrier()
            accesses = draw(
                st.lists(
                    st.tuples(
                        st.integers(0, len(objs) - 1),
                        st.sampled_from(list(AccessMode)),
                    ),
                    max_size=3,
                )
            )
            ins = [
                DataAccess(objs[i], m)
                for i, m in accesses
                if m is AccessMode.IN
            ]
            outs = [
                DataAccess(objs[i], m)
                for i, m in accesses
                if m is AccessMode.OUT
            ]
            inouts = [
                DataAccess(objs[i], m)
                for i, m in accesses
                if m is AccessMode.INOUT
            ]
            work = draw(st.sampled_from([0.05, 0.2, 0.5, 1.0]))
            prog.task(
                f"t{t}",
                ins=ins,
                outs=outs,
                inouts=inouts,
                work=work,
                meta={"ep_socket": draw(st.integers(0, n_sockets - 1))},
            )
        return prog.finalize()

    @st.composite
    def fault_plans(draw, n_cores: int = 4, n_nodes: int = 2):
        plan = FaultPlan(
            core_faults=draw(
                st.lists(
                    st.builds(
                        CoreFault,
                        core=st.integers(0, n_cores - 1),
                        at=st.sampled_from([0.2, 0.7, 1.3]),
                        duration=st.sampled_from([0.4, 0.9]),
                    ),
                    max_size=1,
                )
            ),
            slowdowns=draw(
                st.lists(
                    st.builds(
                        CoreSlowdown,
                        core=st.integers(0, n_cores - 1),
                        at=st.sampled_from([0.1, 0.6]),
                        factor=st.sampled_from([1.5, 3.0]),
                        duration=st.sampled_from([0.5, None]),
                    ),
                    max_size=1,
                )
            ),
            task_crashes=draw(
                st.lists(
                    st.builds(
                        TaskCrash,
                        probability=st.sampled_from([0.05, 0.1]),
                        at_fraction=st.sampled_from([0.25, 0.5, 0.75]),
                        max_crashes=st.integers(1, 2),
                    ),
                    max_size=1,
                )
            ),
            node_degradations=draw(
                st.lists(
                    st.builds(
                        NodeDegradation,
                        node=st.integers(0, n_nodes - 1),
                        at=st.sampled_from([0.1, 0.8]),
                        factor=st.sampled_from([0.5, 0.8]),
                        duration=st.sampled_from([0.6, None]),
                    ),
                    max_size=1,
                )
            ),
        )
        return None if plan.is_empty() else plan

    class _Namespace:
        pass

    ns = _Namespace()
    ns.topologies = topologies
    ns.programs = programs
    ns.fault_plans = fault_plans
    return ns
