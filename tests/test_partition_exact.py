"""Oracle suite: the exact partitioner against brute force and heuristics.

The exact backend's whole point is trust: these tests machine-check the
claims the rest of the suite leans on — agreement with exhaustive
enumeration on small instances, never losing to any heuristic backend on
instances it proves, strict tolerance unless it explicitly flags a
relaxation, and bit-level seed determinism.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ExactBudgetExceeded, PartitionError
from repro.graph import CSRGraph
from repro.partition import (
    DualRecursiveBipartitioner,
    ExactPartitioner,
    MultilevelKWay,
    MultilevelKWayKL,
    SpectralPartitioner,
    TargetArchitecture,
    edge_cut,
)

TOL = 0.05
HEURISTICS = [
    DualRecursiveBipartitioner,
    MultilevelKWay,
    MultilevelKWayKL,
    SpectralPartitioner,
]


@st.composite
def small_graphs(draw, max_vertices=10, max_edges=24, zero_weights=True):
    """Small weighted graphs, optionally with zero-weight (ordering) edges."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    weight = st.one_of(
        st.just(0.0) if zero_weights else st.just(1.0),
        st.floats(min_value=0.1, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
    )
    edges = []
    for _ in range(n_edges):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        edges.append((u, v, draw(weight)))
    vwgt = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.1, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n,
            )
        )
    )
    return CSRGraph.from_edges(n, edges, vwgt)


def _strict_caps(graph, k):
    return (1.0 + TOL) * graph.vwgt.sum() * np.full(k, 1.0 / k)


def _brute_force(graph, k, dist=None):
    """Exhaustively minimise the objective over strictly feasible
    assignments; returns (best_cost, found_any_feasible)."""
    n = graph.n_vertices
    vwgt = graph.vwgt
    caps = _strict_caps(graph, k)
    eps = 1e-9 * max(float(vwgt.sum()), 1.0)
    if dist is None:
        dist = np.ones((k, k))
        np.fill_diagonal(dist, 0.0)
    assigns = np.array(list(itertools.product(range(k), repeat=n)),
                       dtype=np.int64)
    loads = np.zeros((len(assigns), k))
    for p in range(k):
        loads[:, p] = (assigns == p) @ vwgt
    feasible = np.all(loads <= caps + eps, axis=1)
    if not feasible.any():
        return None, False
    assigns = assigns[feasible]
    cost = np.zeros(len(assigns))
    src = np.repeat(np.arange(n), np.diff(graph.xadj))
    for u, v, w in zip(src, graph.adjncy, graph.adjwgt):
        if u < v:
            cost += w * dist[assigns[:, u], assigns[:, v]]
    return float(cost.min()), True


@given(small_graphs(), st.integers(min_value=2, max_value=3),
       st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_agrees_with_brute_force(graph, k, seed):
    k = min(k, graph.n_vertices)
    best, feasible = _brute_force(graph, k)
    res = ExactPartitioner(tolerance=TOL, budget=500_000).partition(
        graph, k, seed=seed
    )
    assert res.meta["exact"], "oracle budget must cover n <= 10"
    if feasible:
        assert not res.meta["tolerance_relaxed"]
        np.testing.assert_allclose(res.meta["objective"], best, rtol=1e-9)
        np.testing.assert_allclose(
            edge_cut(graph, res.parts), best, rtol=1e-9
        )
    else:
        # No strictly feasible assignment exists: the oracle must say so.
        assert res.meta["tolerance_relaxed"]


@given(small_graphs(max_vertices=20, max_edges=48),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_exact_never_loses_to_heuristics(graph, k, seed):
    k = min(k, graph.n_vertices)
    res = ExactPartitioner(tolerance=TOL, budget=30_000).partition(
        graph, k, seed=seed
    )
    if not res.meta["exact"] or res.meta["tolerance_relaxed"]:
        return  # nothing proven on this instance
    caps = _strict_caps(graph, k)
    eps = 1e-9 * max(float(graph.vwgt.sum()), 1.0)
    for cls in HEURISTICS:
        h = cls(tolerance=TOL).partition(graph, k, seed=seed)
        loads = np.bincount(h.parts, weights=graph.vwgt, minlength=k)
        if np.any(loads > caps + eps):
            continue  # heuristic used granularity slack: not comparable
        assert res.meta["objective"] <= edge_cut(graph, h.parts) + 1e-9


def _pigeonhole_graph():
    """No 4-way split fits the strict caps: 7.6 fits beside none of the
    four ~9.5 vertices, which the weights alone prove."""
    vwgt = np.array([2.0, 9.7, 1.0, 1.5, 2.3, 2.0, 3.4, 7.6, 9.1, 9.5,
                     0.5, 0.1, 9.8])
    edges = [(0, 2, 13.4), (3, 4, 36.6), (5, 6, 38.5), (10, 11, 48.7)]
    return CSRGraph.from_edges(13, edges, vwgt)


def test_budget_fallback_to_unbalanced_heuristic_is_flagged():
    """The budget runs out before even the relaxed search finds a
    partition, so the heuristic answer comes back — flagged as relaxed."""
    graph = _pigeonhole_graph()
    res = ExactPartitioner(tolerance=TOL, budget=100).partition(graph, 4)
    loads = np.bincount(res.parts, weights=graph.vwgt, minlength=4)
    assert res.meta["budget_exhausted"]
    assert np.any(loads > _strict_caps(graph, 4))
    assert res.meta["tolerance_relaxed"] is True


def test_pigeonhole_infeasibility_goes_straight_to_relaxed_caps():
    """The strict search would spend the whole budget failing to place the
    heaviest five vertices; the pigeonhole test skips it, so the relaxed
    search proves its optimum well inside the budget."""
    graph = _pigeonhole_graph()
    res = ExactPartitioner(tolerance=TOL, budget=60_000).partition(graph, 4)
    assert res.meta["exact"] is True
    assert "budget_exhausted" not in res.meta
    assert res.meta["tolerance_relaxed"] is True
    assert res.meta["nodes"] < 30_000
    loads = np.bincount(res.parts, weights=graph.vwgt, minlength=4)
    # Relaxed to the LPT profile, not the heuristic's 19.2 part.
    assert loads.max() <= 16.7 + 1e-9


def test_strict_search_without_incumbent_leaves_budget_to_relax():
    """A heuristic answer that breaks the strict caps leaves the strict
    search without an incumbent; if it finds none in half the budget, the
    relaxed search gets the rest instead of the heuristic coming back."""
    rng = np.random.default_rng(5)
    n = 14
    edges = [
        (int(u), int(v), float(rng.uniform(1.0, 9.0)))
        for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    ]
    graph = CSRGraph.from_edges(n, edges, np.full(n, 1.0))

    class Lopsided(MultilevelKWay):
        def partition(self, graph, k, *, target=None, seed=0):
            res = super().partition(graph, k, target=target, seed=seed)
            res.parts[:] = 0  # every vertex on part 0: breaks the caps
            return res

    res = ExactPartitioner(
        tolerance=TOL, budget=40, fallback=Lopsided(tolerance=TOL)
    ).partition(graph, 3)
    loads = np.bincount(res.parts, weights=graph.vwgt, minlength=3)
    assert loads.max() < n  # not the heuristic's all-on-one answer
    assert res.meta["tolerance_relaxed"] is True
    assert res.meta["exact"] is False and res.meta["budget_exhausted"]


@given(small_graphs(max_vertices=14, max_edges=32),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
@example(graph=_pigeonhole_graph(), k=4, seed=0)
def test_tolerance_respected_unless_flagged(graph, k, seed):
    k = min(k, graph.n_vertices)
    res = ExactPartitioner(tolerance=TOL, budget=60_000).partition(
        graph, k, seed=seed
    )
    loads = np.bincount(res.parts, weights=graph.vwgt, minlength=k)
    caps = _strict_caps(graph, k)
    eps = 1e-9 * max(float(graph.vwgt.sum()), 1.0)
    if not res.meta["tolerance_relaxed"]:
        assert np.all(loads <= caps + eps)
    # Contract: ids in range, total assignment.
    assert len(res.parts) == graph.n_vertices
    assert res.parts.min() >= 0 and res.parts.max() < k
    if res.meta["exact"] and not res.meta["tolerance_relaxed"]:
        # Strict caps leave too little room for k-1 parts to hold all the
        # weight (k <= 20), so no part may be empty when n >= k.
        assert len(np.unique(res.parts)) == k


@given(small_graphs(max_vertices=12, max_edges=28),
       st.integers(min_value=2, max_value=3),
       st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_seed_determinism(graph, k, seed):
    k = min(k, graph.n_vertices)
    oracle = ExactPartitioner(tolerance=TOL, budget=100_000)
    a = oracle.partition(graph, k, seed=seed)
    b = oracle.partition(graph, k, seed=seed)
    assert np.array_equal(a.parts, b.parts)
    assert a.meta == b.meta


def test_proven_objective_is_seed_invariant():
    g = CSRGraph.from_edges(
        6,
        [(0, 1, 4.0), (1, 2, 1.0), (2, 3, 4.0), (3, 4, 1.0), (4, 5, 4.0)],
        np.ones(6),
    )
    oracle = ExactPartitioner(tolerance=TOL)
    objs = {
        oracle.partition(g, 2, seed=s).meta["objective"] for s in range(5)
    }
    assert len(objs) == 1  # the optimum does not depend on the seed


class TestMappingCost:
    def test_agrees_with_brute_force_on_target(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, 4))
            edges = [
                (int(u), int(v), float(rng.uniform(0.5, 9.0)))
                for u in range(n) for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = CSRGraph.from_edges(n, edges, rng.uniform(0.5, 2.0, n))
            d = rng.uniform(1.0, 5.0, (k, k))
            d = (d + d.T) / 2.0
            np.fill_diagonal(d, 0.0)
            target = TargetArchitecture(distance=d, capacity=np.ones(k))
            best, feasible = _brute_force(g, k, dist=d)
            res = ExactPartitioner(tolerance=TOL).partition(
                g, k, target=target, seed=trial
            )
            assert res.meta["exact"]
            if feasible:
                np.testing.assert_allclose(
                    res.meta["objective"], best, rtol=1e-9
                )


class TestBudget:
    def _hard_instance(self):
        rng = np.random.default_rng(3)
        n = 26
        edges = [
            (int(u), int(v), float(rng.uniform(1.0, 9.0)))
            for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        return CSRGraph.from_edges(n, edges, rng.uniform(0.5, 2.0, n))

    def test_fallback_flags_budget_exhaustion(self):
        g = self._hard_instance()
        res = ExactPartitioner(tolerance=TOL, budget=200).partition(
            g, 4, seed=0
        )
        assert res.meta["exact"] is False
        assert res.meta["budget_exhausted"] is True
        assert res.parts.min() >= 0 and res.parts.max() < 4
        # Degraded answer is never worse than its own fallback heuristic.
        heur = MultilevelKWay(tolerance=TOL).partition(g, 4, seed=0)
        assert res.meta["objective"] <= edge_cut(g, heur.parts) + 1e-9

    def test_raise_mode(self):
        g = self._hard_instance()
        oracle = ExactPartitioner(tolerance=TOL, budget=200, on_budget="raise")
        with pytest.raises(ExactBudgetExceeded):
            oracle.partition(g, 4, seed=0)

    def test_budget_validation(self):
        with pytest.raises(PartitionError):
            ExactPartitioner(budget=0)
        with pytest.raises(PartitionError):
            ExactPartitioner(on_budget="panic")


class TestEdges:
    def test_k1_is_trivially_exact(self):
        g = CSRGraph.from_edges(3, [(0, 1, 1.0)], np.ones(3))
        res = ExactPartitioner().partition(g, 1, seed=0)
        assert set(res.parts) == {0}
        assert res.meta["exact"] and res.meta["objective"] == 0.0

    def test_oversized_k_raises(self):
        g = CSRGraph.from_edges(2, [], np.ones(2))
        with pytest.raises(PartitionError, match="cannot partition"):
            ExactPartitioner().partition(g, 3)

    def test_relaxation_on_giant_vertex(self):
        # One vertex heavier than any part's strict allowance: the oracle
        # must relax (and say so) rather than fail or violate silently.
        g = CSRGraph.from_edges(
            3, [(0, 1, 1.0), (1, 2, 1.0)], np.array([10.0, 0.5, 0.5])
        )
        res = ExactPartitioner(tolerance=TOL).partition(g, 3, seed=0)
        assert res.meta["tolerance_relaxed"]
        assert res.parts.min() >= 0 and res.parts.max() < 3
