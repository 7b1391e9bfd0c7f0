"""Incremental task dependency graph (TDG).

The runtime instantiates tasks one by one; the TDG grows with them.  Nodes
are dense integer ids assigned in creation order (this order matters: the
RGP *window* is "the first ``window_size`` tasks created").  Edges carry the
number of bytes the dependence represents — the partitioner's edge weights.

The structure is append-only: nodes and edges are only added, matching a
runtime where dependencies are discovered at task creation and never
retracted.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..errors import GraphError


class TaskGraph:
    """Directed acyclic multigraph with byte-weighted, coalesced edges.

    Adding an edge that already exists accumulates its weight (several
    dependencies between the same pair of tasks behave like one fat one).
    Acyclicity is guaranteed structurally: an edge may only point from a
    lower id to a higher id, i.e. from an earlier-created task to a later
    one — a dependence can never target an already-created task's past.
    """

    def __init__(self) -> None:
        self._succs: list[dict[int, float]] = []
        self._preds: list[dict[int, float]] = []
        self._node_weight: list[float] = []
        self._labels: list[str] = []
        self._n_edges = 0
        self.total_edge_weight = 0.0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, weight: float = 1.0, label: str = "") -> int:
        """Append a node; returns its id (creation order)."""
        if weight < 0:
            raise GraphError(f"node weight must be >= 0, got {weight}")
        self._succs.append({})
        self._preds.append({})
        self._node_weight.append(float(weight))
        self._labels.append(label)
        return len(self._succs) - 1

    def add_edge(self, src: int, dst: int, weight: float = 1.0) -> None:
        """Add (or fatten) the dependence ``src -> dst`` with byte weight."""
        self._check(src)
        self._check(dst)
        if src == dst:
            raise GraphError(f"self-dependence on node {src}")
        if src > dst:
            raise GraphError(
                f"edge {src}->{dst} points backwards in creation order; "
                "a task cannot depend on a later task"
            )
        if weight < 0:
            raise GraphError(f"edge weight must be >= 0, got {weight}")
        if dst not in self._succs[src]:
            self._n_edges += 1
            self._succs[src][dst] = 0.0
            self._preds[dst][src] = 0.0
        self._succs[src][dst] += float(weight)
        self._preds[dst][src] += float(weight)
        self.total_edge_weight += float(weight)

    def set_node_weight(self, node: int, weight: float) -> None:
        self._check(node)
        if weight < 0:
            raise GraphError(f"node weight must be >= 0, got {weight}")
        self._node_weight[node] = float(weight)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._succs)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def _check(self, node: int) -> None:
        if not 0 <= node < len(self._succs):
            raise GraphError(f"node {node} out of range [0, {len(self._succs)})")

    def node_weight(self, node: int) -> float:
        self._check(node)
        return self._node_weight[node]

    def label(self, node: int) -> str:
        self._check(node)
        return self._labels[node]

    def successors(self, node: int) -> dict[int, float]:
        """Outgoing edges as ``{dst: bytes}`` (read-only by convention)."""
        self._check(node)
        return self._succs[node]

    def predecessors(self, node: int) -> dict[int, float]:
        """Incoming edges as ``{src: bytes}`` (read-only by convention)."""
        self._check(node)
        return self._preds[node]

    def in_degree(self, node: int) -> int:
        self._check(node)
        return len(self._preds[node])

    def out_degree(self, node: int) -> int:
        self._check(node)
        return len(self._succs[node])

    def edge_weight(self, src: int, dst: int) -> float:
        self._check(src)
        self._check(dst)
        try:
            return self._succs[src][dst]
        except KeyError:
            raise GraphError(f"no edge {src}->{dst}") from None

    def has_edge(self, src: int, dst: int) -> bool:
        self._check(src)
        self._check(dst)
        return dst in self._succs[src]

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate ``(src, dst, weight)`` in src order."""
        for src, nbrs in enumerate(self._succs):
            for dst, w in nbrs.items():
                yield src, dst, w

    def nodes(self) -> range:
        return range(self.n_nodes)

    def roots(self) -> list[int]:
        """Nodes with no predecessors (initially-ready tasks)."""
        return [n for n in self.nodes() if not self._preds[n]]

    def leaves(self) -> list[int]:
        """Nodes with no successors."""
        return [n for n in self.nodes() if not self._succs[n]]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def prefix(self, n: int) -> "TaskGraph":
        """Induced subgraph on the first ``n`` created nodes (the window)."""
        if n < 0:
            raise GraphError(f"prefix length must be >= 0, got {n}")
        n = min(n, self.n_nodes)
        sub = TaskGraph()
        for v in range(n):
            sub.add_node(self._node_weight[v], self._labels[v])
        for v in range(n):
            for dst, w in self._succs[v].items():
                if dst < n:
                    sub.add_edge(v, dst, w)
        return sub

    def subgraph(self, nodes: Iterable[int]) -> tuple["TaskGraph", list[int]]:
        """Induced subgraph; returns it plus the old-id list (new->old)."""
        keep = sorted(set(nodes))
        for v in keep:
            self._check(v)
        remap = {old: new for new, old in enumerate(keep)}
        sub = TaskGraph()
        for old in keep:
            sub.add_node(self._node_weight[old], self._labels[old])
        for old in keep:
            for dst, w in self._succs[old].items():
                if dst in remap:
                    sub.add_edge(remap[old], remap[dst], w)
        return sub, keep

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` (for inspection/plotting).

        Needs the optional ``networkx`` extra (``pip install repro[networkx]``).
        """
        import networkx as nx

        g = nx.DiGraph()
        for v in self.nodes():
            g.add_node(v, weight=self._node_weight[v], label=self._labels[v])
        for src, dst, w in self.edges():
            g.add_edge(src, dst, weight=w)
        return g

    def __repr__(self) -> str:
        return f"TaskGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"
