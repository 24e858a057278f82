"""Maximum matching in general undirected graphs (Edmonds' blossom
algorithm, O(V^3)).

Deterministic: adjacency lists are scanned ascending and augmenting-path
roots are tried in ascending vertex order, so the returned matching is the
same on every run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Edge, UGraph


@dataclass(frozen=True)
class Matching:
    edges: frozenset[Edge]

    def __post_init__(self):
        norm = frozenset((min(u, v), max(u, v)) for (u, v) in self.edges)
        object.__setattr__(self, "edges", norm)
        if len(self.covered) != 2 * len(self.edges):
            raise ValueError("matching edges share an endpoint")

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def __len__(self):
        return len(self.edges)


def maximum_matching(g: UGraph) -> Matching:
    """Maximum-cardinality matching, valid on non-bipartite graphs."""
    return _blossom_matching(g, stop_at_failed_search=False)


def perfect_matching(g: UGraph) -> Matching | None:
    """The matching `maximum_matching` returns if it is perfect, else None.

    Stops at the first exposed vertex from which no augmenting path
    starts: augmenting along other paths never creates one from it
    (Edmonds 1965, "Paths, trees, and flowers"), so it stays exposed.
    """
    if g.n % 2 == 1:
        return None
    return _blossom_matching(g, stop_at_failed_search=True)


def _blossom_matching(g: UGraph, stop_at_failed_search: bool) -> Matching | None:
    """The search behind both public functions; None only when asked to
    stop at a failed search and one fails."""
    n = g.n
    adj = g.adjacency()
    match = [-1] * n

    # greedy initial matching; correctness does not depend on it
    for u in range(n):
        if match[u] == -1:
            for v in adj[u]:
                if match[v] == -1:
                    match[u] = v
                    match[v] = u
                    break

    p = [-1] * n
    base = list(range(n))
    used = [False] * n

    def mark_path(v: int, b: int, child: int, blossom: list[bool]):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def lca(a: int, b: int) -> int:
        hit = [False] * n
        v = a
        while True:
            v = base[v]
            hit[v] = True
            if match[v] == -1:
                break
            v = p[match[v]]
        v = b
        while True:
            v = base[v]
            if hit[v]:
                return v
            v = p[match[v]]

    def find_path(root: int) -> int:
        for i in range(n):
            used[i] = False
            p[i] = -1
            base[i] = i
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # found a blossom; contract it
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        return to
                    used[match[to]] = True
                    queue.append(match[to])
        return -1

    for v in range(n):
        if match[v] == -1:
            u = find_path(v)
            if u == -1 and stop_at_failed_search:
                return None
            while u != -1:
                pv = p[u]
                ppv = match[pv]
                match[u] = pv
                match[pv] = u
                u = ppv

    edges = frozenset(
        (u, match[u]) for u in range(n) if match[u] != -1 and u < match[u]
    )
    return Matching(edges)
