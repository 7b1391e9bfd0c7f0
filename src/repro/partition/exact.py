"""Exact branch-and-bound partitioning: the oracle backend.

Every heuristic in this package (multilevel, DRB, KL, spectral,
hierarchical) answers "here is a good partition"; none can answer "how
good?".  :class:`ExactPartitioner` can: it enumerates the assignment tree
vertex by vertex and provably minimises the weighted edge cut — or, given
a ``target=``, the SCOTCH-style mapping cost ``sum w(u,v) *
dist(part(u), part(v))`` — subject to the balance tolerance.  That turns
the heuristics' quality from folklore into a machine-checked contract
(``tests/test_partition_exact.py``) and powers the optimality-gap
ablation (``repro ablation gap``).

Pruning machinery (DESIGN.md §16):

* **cheapest-attachment bound** — partial cost plus, for every unassigned
  vertex, the cheapest feasible attachment to the already-assigned
  region.  Edges between two unassigned vertices are handled by the
  residual bound below; counting them at their global floor keeps the
  bound admissible.
* **sorted-residual-edge bound** — a connected component of the
  *unassigned* subgraph whose weight exceeds the largest remaining part
  headroom must split into ``g`` groups, cutting at least ``g - 1`` of
  its edges; the cheapest possible such cut is the sum of its ``g - 1``
  smallest edge weights (spanning-tree argument), so that sum is an
  admissible increment.
* **balance-infeasibility pruning** — a branch dies as soon as any
  unassigned vertex no longer fits in any part, or the remaining weight
  exceeds the total remaining headroom.
* **memoized symmetry breaking** — part-equivalence classes (identical
  capacity and distance rows) are computed once per call; among currently
  *empty* parts of one class only the lowest id is ever branched on,
  collapsing the ``k!`` relabelling symmetry of anonymous targets.

Search order is deterministic (max-connectivity vertex order, part
candidates by ascending attachment cost, ties by id); ``seed`` only seeds
the multilevel heuristic that provides the initial incumbent, so equal
seeds give bit-equal results.

The ``budget=`` escape hatch bounds the number of branch-and-bound nodes:
when it runs out the backend degrades to the best solution seen so far
(at worst the multilevel answer) with ``meta["budget_exhausted"]`` set —
or raises :class:`~repro.errors.ExactBudgetExceeded` when constructed
with ``on_budget="raise"`` — rather than hanging on a window it cannot
prove optimal.  When the heuristic answer breaks the strict caps, the
strict search gets half the budget while it has no incumbent and the
LPT-relaxed search the rest; a pigeonhole test on the heaviest weights
skips the strict search when it provably has no solution.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..errors import ExactBudgetExceeded, PartitionError
from ..graph.csr import CSRGraph
from .interface import (
    DEFAULT_TOLERANCE,
    Partitioner,
    PartitionResult,
    TargetArchitecture,
)
from .multilevel import MultilevelKWay

#: Default branch-and-bound node budget.  Enough to prove optimality on
#: the oracle-suite sizes (n <= 24) and on most quick-ablation windows
#: (n <= 64, k <= 4); big windows degrade to the heuristic answer.
DEFAULT_EXACT_BUDGET = 200_000


class _BudgetHit(Exception):
    """Internal: unwinds the search when the node budget runs out."""


class ExactPartitioner(Partitioner):
    """Provably optimal k-way partitioner (branch and bound).

    ``budget`` caps the number of search-tree nodes; ``on_budget``
    selects what happens when it is hit: ``"fallback"`` (default)
    returns the best incumbent with ``meta["exact"] = False``,
    ``"raise"`` raises :class:`ExactBudgetExceeded`.  ``fallback``
    overrides the heuristic used for the initial incumbent (default: a
    fresh :class:`MultilevelKWay` at the same tolerance).
    """

    name = "exact"

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        budget: int = DEFAULT_EXACT_BUDGET,
        on_budget: str = "fallback",
        fallback: Partitioner | None = None,
    ) -> None:
        super().__init__(tolerance=tolerance)
        if budget < 1:
            raise PartitionError(f"budget must be >= 1, got {budget}")
        if on_budget not in ("fallback", "raise"):
            raise PartitionError(
                f"on_budget must be 'fallback' or 'raise', got {on_budget!r}"
            )
        self.budget = int(budget)
        self.on_budget = on_budget
        self.fallback = fallback or MultilevelKWay(tolerance=tolerance)

    # ------------------------------------------------------------------
    def partition(
        self,
        graph: CSRGraph,
        k: int,
        *,
        target: TargetArchitecture | None = None,
        seed: int = 0,
    ) -> PartitionResult:
        self._check_k(graph, k)
        capacities = self._capacities(k, target)
        n = graph.n_vertices

        if k == 1:
            return PartitionResult(
                parts=np.zeros(n, dtype=np.int64), k=1,
                meta={"exact": True, "nodes": 0, "objective": 0.0},
            )

        # Objective matrix: cost of an edge between parts p and q.  With
        # no target this is the 0/1 cut indicator, making the objective
        # exactly the weighted edge cut.
        if target is None:
            dist = np.ones((k, k), dtype=np.float64)
            np.fill_diagonal(dist, 0.0)
        else:
            dist = np.asarray(target.distance, dtype=np.float64)

        vwgt = graph.vwgt.astype(np.float64)
        total_w = float(vwgt.sum())
        caps = (1.0 + self.tolerance) * total_w * (
            np.asarray(capacities, dtype=np.float64) / float(capacities.sum())
        )
        eps = 1e-9 * max(total_w, 1.0)

        # Heuristic incumbent (also the degradation answer).
        heur = self.fallback.partition(graph, k, target=target, seed=seed)
        heur_parts = np.asarray(heur.parts, dtype=np.int64)
        heur_cost = _objective(graph, heur_parts, dist)
        heur_feasible = bool(
            np.all(np.bincount(heur_parts, weights=vwgt, minlength=k)
                   <= caps + eps)
        )

        state = _Search(graph, k, dist, caps, eps, self.budget)
        if heur_feasible:
            state.offer(heur_parts, heur_cost)
        else:
            # Without an incumbent the strict search may find nothing;
            # keep half the budget for the relaxed search below.
            state.strict_budget = self.budget // 2

        relaxed = strict_cut = False
        try:
            if not _pigeonhole_infeasible(vwgt, k, caps, eps):
                try:
                    state.run()
                except _BudgetHit:
                    if state.best_parts is not None:
                        raise
                    strict_cut = True  # strict infeasibility unproven
            state.strict_budget = None
            if state.best_parts is None:
                # No partition satisfies the strict tolerance (e.g. one
                # vertex outweighs every part's allowance), or none was
                # found in the strict search's share of the budget.  Relax
                # the caps to an LPT load profile — which is feasible by
                # construction — and search again under the loosened
                # constraint, flagging the relaxation.
                relaxed = True
                state.caps = np.maximum(caps, _lpt_loads(vwgt, caps) + eps)
                if heur_feasible or bool(
                    np.all(np.bincount(heur_parts, weights=vwgt, minlength=k)
                           <= state.caps + eps)
                ):
                    state.offer(heur_parts, heur_cost)
                state.run()
        except _BudgetHit:
            if self.on_budget == "raise":
                raise ExactBudgetExceeded(
                    f"exact partitioner exhausted its {self.budget}-node "
                    f"budget on a {n}-vertex / {k}-part instance"
                ) from None
            if state.best_parts is not None:
                parts = state.best_parts
            else:
                # Nothing within the caps was found in budget, so the
                # heuristic answer (never offered: it breaks the strict
                # caps) is returned and must be flagged as relaxed.
                parts, relaxed = heur_parts, True
            return PartitionResult(
                parts=parts, k=k,
                meta={
                    "exact": False, "budget_exhausted": True,
                    "nodes": state.nodes,
                    "objective": _objective(graph, parts, dist),
                    "tolerance_relaxed": relaxed,
                },
            )

        parts = state.best_parts
        if parts is None:  # pragma: no cover - LPT retry always succeeds
            raise PartitionError(
                f"no feasible {k}-way partition found for {n} vertices"
            )
        meta = {
            "exact": not strict_cut, "nodes": state.nodes,
            "objective": float(state.best_cost),
            "tolerance_relaxed": relaxed,
        }
        if strict_cut:
            meta["budget_exhausted"] = True
        return PartitionResult(parts=parts, k=k, meta=meta)


def _objective(graph: CSRGraph, parts: np.ndarray, dist: np.ndarray) -> float:
    """Sum of ``w(u,v) * dist[part(u), part(v)]`` over undirected edges."""
    total = 0.0
    for v in range(graph.n_vertices):
        pv = parts[v]
        for u, w in zip(graph.neighbors(v), graph.neighbor_weights(v)):
            if u > v:
                total += float(w) * float(dist[pv, parts[u]])
    return total


def _pigeonhole_infeasible(
    vwgt: np.ndarray, k: int, caps: np.ndarray, eps: float
) -> bool:
    """True when the strict caps provably admit no partition.

    Two of the ``k + 1`` heaviest vertices must share a part, and the
    lightest such pair weighs the k-th plus the (k+1)-th heaviest.
    """
    if len(vwgt) <= k:
        return False
    w = np.sort(vwgt)[::-1]
    return float(w[k - 1] + w[k]) > float(caps.max()) + eps


def _lpt_loads(vwgt: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Longest-processing-time load profile: the relaxation anchor."""
    loads = np.zeros(len(caps), dtype=np.float64)
    for v in np.argsort(-vwgt, kind="stable"):
        # Fill the part with the most remaining headroom (ties: lowest id).
        loads[int(np.argmax(caps - loads))] += float(vwgt[v])
    return loads


class _Search:
    """One branch-and-bound run over a fixed graph/objective/capacity."""

    def __init__(
        self,
        graph: CSRGraph,
        k: int,
        dist: np.ndarray,
        caps: np.ndarray,
        eps: float,
        budget: int,
    ) -> None:
        self.graph = graph
        self.k = k
        self.dist = dist
        self.caps = np.asarray(caps, dtype=np.float64).copy()
        self.eps = eps
        self.budget = budget
        #: Node cap while no incumbent exists (None: ``budget`` only).
        self.strict_budget: int | None = None
        self.nodes = 0
        self.best_cost = np.inf
        self.best_parts: np.ndarray | None = None

        n = graph.n_vertices
        self.n = n
        self.vwgt = graph.vwgt.astype(np.float64)
        self.nbrs = [
            list(zip(graph.neighbors(v).tolist(),
                     graph.neighbor_weights(v).astype(np.float64).tolist()))
            for v in range(n)
        ]
        self.order = self._connectivity_order()
        pos = np.empty(n, dtype=np.int64)
        pos[self.order] = np.arange(n)
        self.pos = pos

        # Edges sorted by the earlier endpoint's position in the search
        # order: the residual (both-endpoints-unassigned) edge set at
        # depth d is exactly the tail with min-position > d.
        edges = []
        for v in range(n):
            for u, w in self.nbrs[v]:
                if u > v:
                    edges.append(
                        (min(int(pos[v]), int(pos[u])), int(v), int(u), w)
                    )
        edges.sort()
        self.edges_by_minpos = edges
        self.edge_minpos = [e[0] for e in edges]

        off = dist[~np.eye(self.k, dtype=bool)]
        self.dist_floor = float(dist.min())
        self.cut_floor = float(off.min()) if len(off) else 0.0

    # -- static precomputation -----------------------------------------
    def _connectivity_order(self) -> np.ndarray:
        """Max-connectivity-first vertex order (deterministic).

        Keeping each new vertex heavily connected to the assigned prefix
        makes the attachment bound bite early; ties fall back to heavier
        vertices, then lower ids.
        """
        n = self.n
        wdeg = np.array(
            [sum(w for _, w in self.nbrs[v]) for v in range(n)]
        )
        seen = np.zeros(n, dtype=bool)
        link = np.zeros(n, dtype=np.float64)  # weight to ordered set
        order = np.empty(n, dtype=np.int64)
        for i in range(n):
            best, best_key = -1, None
            for v in range(n):
                if seen[v]:
                    continue
                key = (link[v], wdeg[v], self.vwgt[v], -v)
                if best_key is None or key > best_key:
                    best, best_key = v, key
            order[i] = best
            seen[best] = True
            for u, w in self.nbrs[best]:
                if not seen[u]:
                    link[u] += w
        return order

    def _part_classes(self) -> np.ndarray:
        """Equivalence-class id per part (the symmetry-breaking memo).

        Parts p and q are interchangeable when they have equal capacity
        and their distance rows agree once p/q themselves are swapped.
        """
        k, dist, caps = self.k, self.dist, self.caps
        classes = np.full(k, -1, dtype=np.int64)
        next_id = 0
        for p in range(k):
            if classes[p] >= 0:
                continue
            classes[p] = next_id
            for q in range(p + 1, k):
                if classes[q] >= 0 or abs(caps[p] - caps[q]) > 1e-12:
                    continue
                if abs(dist[p, p] - dist[q, q]) > 1e-12:
                    continue
                rows_match = all(
                    abs(dist[p, r] - dist[q, r]) <= 1e-12
                    for r in range(k) if r != p and r != q
                )
                if rows_match:
                    classes[q] = next_id
            next_id += 1
        return classes

    # -- incumbent ------------------------------------------------------
    def offer(self, parts: np.ndarray, cost: float) -> None:
        """Install an external feasible solution as the incumbent."""
        if cost < self.best_cost - 1e-12:
            self.best_cost = cost
            self.best_parts = np.asarray(parts, dtype=np.int64).copy()

    # -- search ---------------------------------------------------------
    def run(self) -> None:
        n, k = self.n, self.k
        # Re-derived per run: a capacity relaxation between runs can
        # split a previously interchangeable pair of parts.
        self.classes = self._part_classes()
        self.parts = np.full(n, -1, dtype=np.int64)
        self.loads = np.zeros(k, dtype=np.float64)
        self.count = np.zeros(k, dtype=np.int64)
        self.attach = np.zeros((n, k), dtype=np.float64)
        self.suffix_w = np.zeros(n + 1, dtype=np.float64)
        for i in range(n - 1, -1, -1):
            self.suffix_w[i] = self.suffix_w[i + 1] + self.vwgt[self.order[i]]
        self._dfs(0, 0.0)

    def _bound(self, depth: int, cost: float) -> float:
        """Admissible lower bound for completing ``order[depth:]``."""
        if depth == self.n:
            return cost
        rest = self.order[depth:]
        headroom = self.caps - self.loads
        if self.suffix_w[depth] > float(headroom.sum()) + self.eps:
            return np.inf  # balance-infeasible: total weight cannot fit
        feas = self.vwgt[rest, None] <= headroom[None, :] + self.eps
        cheapest = np.where(feas, self.attach[rest], np.inf).min(axis=1)
        if not np.isfinite(cheapest).all():
            return np.inf  # some vertex fits nowhere: balance-infeasible
        lb = cost + float(cheapest.sum())
        if lb >= self.best_cost - 1e-12:
            return lb  # already pruned; skip the residual-edge work
        return lb + self._residual_bound(depth, float(headroom.max()))

    def _residual_bound(self, depth: int, max_headroom: float) -> float:
        """Sorted-residual-edge bound over the unassigned subgraph."""
        lo = bisect_right(self.edge_minpos, depth - 1)
        edges = self.edges_by_minpos[lo:]
        extra = 0.0
        if self.dist_floor > 0.0:
            # Every residual edge costs at least the distance floor
            # (uniform targets have dist[p,p] = 1: intra-part traffic
            # still pays local latency).
            extra += self.dist_floor * sum(e[3] for e in edges)
        upgrade = self.cut_floor - self.dist_floor
        if upgrade <= 0.0 or not edges or max_headroom <= 0.0:
            return extra

        parent: dict[int, int] = {}

        def find(v: int) -> int:
            root = v
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(v, v) != root:
                parent[v], v = root, parent[v]
            return root

        comp_edges: dict[int, list[float]] = {}
        for _, v, u, w in edges:
            a, b = find(v), find(u)
            if a != b:
                parent[b] = a
                ea = comp_edges.pop(a, [])
                ea.extend(comp_edges.pop(b, []))
                ea.append(w)
                comp_edges[a] = ea
            else:
                comp_edges.setdefault(a, []).append(w)

        for root, wlist in comp_edges.items():
            comp_w = 0.0
            for i in range(depth, self.n):
                v = int(self.order[i])
                if find(v) == root:
                    comp_w += self.vwgt[v]
            groups = int(np.ceil(comp_w / max_headroom - 1e-12))
            if groups >= 2:
                wlist.sort()
                extra += upgrade * sum(wlist[: groups - 1])
        return extra

    def _dfs(self, depth: int, cost: float) -> None:
        if depth == self.n:
            if cost < self.best_cost - 1e-12:
                self.best_cost = cost
                self.best_parts = self.parts.copy()
            return
        v = int(self.order[depth])
        vw = self.vwgt[v]

        candidates = []
        seen_empty_class: set[int] = set()
        for p in range(self.k):
            if self.loads[p] + vw > self.caps[p] + self.eps:
                continue
            if self.count[p] == 0:
                cls = int(self.classes[p])
                if cls in seen_empty_class:
                    continue  # symmetric to an empty part already tried
                seen_empty_class.add(cls)
            candidates.append((float(self.attach[v, p]), p))
        candidates.sort()

        for inc, p in candidates:
            self.nodes += 1
            if self.nodes > self.budget or (
                self.strict_budget is not None
                and self.best_parts is None
                and self.nodes > self.strict_budget
            ):
                raise _BudgetHit
            new_cost = cost + inc
            if new_cost >= self.best_cost - 1e-12:
                break  # candidates are sorted: the rest are no better
            self.parts[v] = p
            self.loads[p] += vw
            self.count[p] += 1
            dcol = self.dist[:, p]
            touched = []
            for u, w in self.nbrs[v]:
                if self.parts[u] < 0:
                    self.attach[u] += w * dcol
                    touched.append((u, w))
            if self._bound(depth + 1, new_cost) < self.best_cost - 1e-12:
                self._dfs(depth + 1, new_cost)
            for u, w in touched:
                self.attach[u] -= w * dcol
            self.count[p] -= 1
            self.loads[p] -= vw
            self.parts[v] = -1
