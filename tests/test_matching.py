import random

from hypothesis import given, settings

from conftest import ugraphs
from outforest import (
    OracleBudget,
    UGraph,
    enumerate_digraphs,
    enumerate_ugraphs,
    maximum_matching,
    oracle_matching,
    perfect_matching,
)
from outforest import construct

BUDGET = OracleBudget(max_vertices=12)


def petersen() -> UGraph:
    edges = set()
    for i in range(5):
        edges.add((i, (i + 1) % 5))
        edges.add((i, i + 5))
        edges.add((5 + i, 5 + (i + 2) % 5))
    return UGraph(10, edges)


def has_augmenting_path(g: UGraph, matched: set) -> bool:
    """Independent Berge check: alternating BFS from every exposed vertex,
    with a fallback exhaustive walk on these tiny graphs."""
    mate = {}
    for (u, v) in matched:
        mate[u] = v
        mate[v] = u
    adj = g.adjacency()
    exposed = [v for v in range(g.n) if v not in mate]
    # search alternating paths exposed -> ... -> exposed by DFS over
    # (vertex, parity) states with vertex-disjointness enforced
    def dfs(v, used, need_matched):
        for w in adj[v]:
            if w in used:
                continue
            if need_matched:
                if mate.get(v) == w:
                    if dfs(w, used | {w}, False):
                        return True
            else:
                if mate.get(v) == w:
                    continue
                if w not in mate:
                    return True
                if dfs(w, used | {w}, True):
                    return True
        return False

    return any(dfs(s, {s}, False) for s in exposed)


class TestMaximumMatching:
    def test_triangle(self):
        assert len(maximum_matching(UGraph(3, {(0, 1), (1, 2), (0, 2)}))) == 1

    def test_k4_perfect(self):
        k4 = UGraph(4, {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})
        assert len(maximum_matching(k4)) == 2
        assert perfect_matching(k4) is not None

    def test_petersen_perfect(self):
        g = petersen()
        m = maximum_matching(g)
        assert len(m) == len(oracle_matching(g, BUDGET)) == 5
        assert perfect_matching(g) is not None

    def test_single_edge_and_odd_path(self):
        assert perfect_matching(UGraph(2, {(0, 1)})) is not None
        assert perfect_matching(UGraph(3, {(0, 1), (1, 2)})) is None

    def test_blossom_needed(self):
        # two triangles joined by an edge: needs odd-cycle handling
        g = UGraph(
            6, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)}
        )
        assert len(maximum_matching(g)) == 3

    @given(ugraphs(max_n=8))
    @settings(max_examples=300)
    def test_valid_and_maximum(self, g):
        m = maximum_matching(g)
        covered = [v for e in m.edges for v in e]
        assert len(covered) == len(set(covered))
        assert m.edges <= g.edges
        assert len(m) == len(oracle_matching(g, BUDGET))

    @given(ugraphs(max_n=8))
    @settings(max_examples=200)
    def test_no_augmenting_path(self, g):
        m = maximum_matching(g)
        assert not has_augmenting_path(g, set(m.edges))

    def test_deterministic(self):
        g = petersen()
        assert maximum_matching(g) == maximum_matching(g)


class TestPerfectMatching:
    """perfect_matching is None exactly when maximum_matching is not
    perfect, and otherwise the very same matching."""

    @staticmethod
    def agrees(g):
        m = maximum_matching(g)
        return perfect_matching(g) == (m if 2 * len(m) == g.n else None)

    def test_every_graph_up_to_order_6(self):
        graphs = [g for n in range(7) for g in enumerate_ugraphs(n)]
        assert all(self.agrees(g) for g in graphs)
        assert sum(perfect_matching(g) is not None for g in graphs) > 1000

    def test_seeded_orders_8_to_12(self):
        rng = random.Random(12)
        perfect = 0
        for _ in range(600):
            n = rng.randint(8, 12)
            p = rng.choice((0.15, 0.25, 0.5))
            slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = UGraph(n, frozenset(e for e in slots if rng.random() < p))
            assert self.agrees(g), g
            perfect += perfect_matching(g) is not None
        assert 50 < perfect < 550

    def test_shared_in_neighbour_graph_of_every_order_4_digraph(self, monkeypatch):
        # at c = 3 a vertex of out-degree 3 has a chain of three connectors
        for c in (3, 4):
            monkeypatch.setattr(construct, "_CLIQUE_MAX", c)
            perfect = 0
            for d in enumerate_digraphs(4):
                g, _ = construct._shared_in_neighbour_graph(d)
                assert self.agrees(g), d
                perfect += perfect_matching(g) is not None
            assert 0 < perfect < 4096
