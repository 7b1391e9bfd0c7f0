"""The three simulation workloads: which programs, machines and policies.

A *cell* is one (program, policy) pair; one operation builds the cell's
program and simulates it.  A round runs every cell of a workload once.
The simulator seed of every cell is fixed (:data:`SIM_SEED`), so the
simulated outcomes (makespans, remote bytes, speedups) are the same in
every round of every run and can be gated exactly; the command-line seed
only permutes the order in which a round's cells run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Simulator seed of every cell (seed 0 is the seed the documented
#: ablation and Figure 1 figures are quoted at).
SIM_SEED = 0


@dataclass(frozen=True)
class Cell:
    app: str
    params: dict
    policy: str
    make_scheduler: Callable[[], object]


@dataclass(frozen=True)
class SimWorkload:
    name: str
    config: object  # repro.experiments.config.ExperimentConfig
    cells: tuple[Cell, ...]
    #: (baseline policy, RGP policy) whose makespan ratio is the speedup.
    speedup_pair: tuple[str, str]
    #: Small payload-carrying program whose numeric output is checked.
    payload: tuple[str, dict]


def _factory(name: str, **kwargs):
    from repro import make_scheduler

    return lambda: make_scheduler(name, **kwargs)


def figure1() -> SimWorkload:
    """Figure 1 at paper scale: 8 apps x {las, dfifo, ep, rgp+las}."""
    from repro.experiments.config import (
        FIGURE1_APPS,
        PAPER_APP_PARAMS,
        ExperimentConfig,
    )

    cfg = ExperimentConfig.paper()
    cells = tuple(
        Cell(app, dict(PAPER_APP_PARAMS[app]), policy,
             _factory(policy, **({"window_size": cfg.window_size}
                                 if policy == "rgp+las" else {})))
        for app in FIGURE1_APPS
        for policy in ("las", "dfifo", "ep", "rgp+las")
    )
    return SimWorkload("figure1", cfg, cells, ("las", "rgp+las"),
                       ("jacobi", dict(nt=4, tile=32, sweeps=2)))


def stencil_10k() -> SimWorkload:
    """One ~10,000-task 2-D stencil on four-socket, las and rgp+las."""
    from repro.experiments.config import ExperimentConfig
    from repro.machine.presets import four_socket

    cfg = ExperimentConfig(topology=four_socket())
    scale = 1
    while 3 * scale * scale < 10_000:  # 3 sweeps of a scale x scale grid
        scale += 1
    params = dict(kind="stencil", scale=scale)
    cells = tuple(
        Cell("synthetic", params, policy,
             _factory(policy, **({"window_size": cfg.window_size}
                                 if policy == "rgp+las" else {})))
        for policy in ("las", "rgp+las")
    )
    return SimWorkload("stencil-10k", cfg, cells, ("las", "rgp+las"),
                       ("synthetic", dict(kind="stencil", scale=6)))


def cluster16() -> SimWorkload:
    """Ablation I cells on cluster16: ep, las, hierarchical, flat RGP+LAS."""
    from repro.core import RGPLASScheduler
    from repro.experiments.ablations import CLUSTER_APP_PARAMS, CLUSTER_WINDOW
    from repro.experiments.config import ExperimentConfig
    from repro.machine.presets import cluster

    cfg = ExperimentConfig(topology=cluster(16), window_size=CLUSTER_WINDOW)
    policies = (
        ("ep", _factory("ep")),
        ("las", _factory("las")),
        ("rgp+las/hier",
         lambda: RGPLASScheduler(window_size=CLUSTER_WINDOW)),
        ("rgp+las/flat",
         lambda: RGPLASScheduler(window_size=CLUSTER_WINDOW,
                                 hierarchical=False)),
    )
    cells = tuple(
        Cell(app, dict(params), label, make)
        for app, params in CLUSTER_APP_PARAMS.items()
        for label, make in policies
    )
    return SimWorkload("cluster16", cfg, cells, ("las", "rgp+las/hier"),
                       ("redblack", dict(nt=4, tile=32, sweeps=2)))


SIM_WORKLOADS = {
    "figure1": figure1,
    "stencil-10k": stencil_10k,
    "cluster16": cluster16,
}
