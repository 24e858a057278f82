"""Digraph and undirected graph representations, parsing, connectivity
classification, spanning out-trees and bidirection.

Vertices are dense integer indices 0..n-1.  All values are immutable after
construction; every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DuplicateArc,
    MalformedLine,
    NotReachable,
    OutOfRangeVertex,
    SelfLoop,
)

Arc = tuple[int, int]
Edge = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """A simple digraph: no self-loops, no duplicate arcs.

    Antiparallel pairs (u,v) and (v,u) are allowed.
    """

    n: int
    arcs: frozenset[Arc]

    def __post_init__(self):
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        if self.n < 0:
            raise ValueError("negative vertex count")
        for (u, v) in self.arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop ({u},{u})")

    # The three views below are computed once per digraph and shared by
    # every caller, which must not mutate them.

    def out_neighbors(self) -> list[list[int]]:
        return self._out_neighbors

    def in_neighbors(self) -> list[list[int]]:
        return self._in_neighbors

    def sorted_arcs(self) -> list[Arc]:
        return self._sorted_arcs

    @cached_property
    def _sorted_arcs(self) -> list[Arc]:
        return sorted(self.arcs)

    @cached_property
    def _out_neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for (u, v) in self._sorted_arcs:
            adj[u].append(v)
        return adj

    @cached_property
    def _in_neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for (u, v) in self._sorted_arcs:
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class UGraph:
    """A simple undirected graph; edges are stored as (min, max) pairs."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        norm = set()
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{u})")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))
        for (u, v) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {{{u},{v}}} out of range for n={self.n}")

    @classmethod
    def _normalised(cls, n: int, edges: frozenset[Edge]) -> UGraph:
        """A graph from edges its caller already checked and built as
        in-range (min, max) pairs; skips the checks of __post_init__."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for (u, v) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        return adj

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        adj = self.adjacency()
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        return count == self.n


class ConnectivityClass(enum.Enum):
    """Strongest applicable connectivity label of a digraph."""

    STRONGLY_CONNECTED_EVEN = "StronglyConnectedEven"
    SINGLE_INITIAL_EVEN = "SingleInitialEven"
    CONNECTED_EVEN = "ConnectedEven"
    CONNECTED_ODD = "ConnectedOdd"
    DISCONNECTED = "Disconnected"


@dataclass(frozen=True)
class OutTree:
    """An out-tree on a subset of 0..n-1: one root, every other vertex has
    in-degree one via `parent`."""

    n: int
    root: int
    parent: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "parent", dict(self.parent))
        if not (0 <= self.root < self.n):
            raise ValueError("root out of range")
        if self.root in self.parent:
            raise ValueError("root must not have a parent")
        for c, p in self.parent.items():
            if not (0 <= c < self.n and 0 <= p < self.n):
                raise ValueError("tree vertex out of range")
            if p != self.root and p not in self.parent:
                raise ValueError(f"parent {p} of {c} is not a tree vertex")
        # acyclicity: a walk down from the root must reach every vertex
        if len(self.bfs_order()) < self.order():
            raise ValueError("cycle in parent relation")

    def vertices(self) -> set[int]:
        return {self.root} | set(self.parent)

    def order(self) -> int:
        return 1 + len(self.parent)

    def arcs(self) -> set[Arc]:
        return {(p, c) for c, p in self.parent.items()}

    def bfs_order(self) -> list[int]:
        """Vertices reachable from the root, each listed after its parent."""
        children: dict[int, list[int]] = {}
        for c, p in self.parent.items():
            children.setdefault(p, []).append(c)
        order = [self.root]
        for v in order:
            order.extend(children.get(v, ()))
        return order


# ---------------------------------------------------------------------------
# parsing / serialization


def _parse_edge_list(text: str, directed: bool):
    """Header and pairs of the edge-list format, each pair checked with
    its line number.  Returns n and the pairs, as (min, max) when
    undirected."""
    n = None
    m = None
    seen: set[tuple[int, int]] = set()
    header_done = False
    expected = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if not header_done:
            if len(parts) != 2:
                raise MalformedLine("expected header 'n m'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedLine("expected header 'n m'", lineno) from None
            if n < 0 or m < 0:
                raise MalformedLine("negative count in header", lineno)
            header_done = True
            expected = m
            continue
        if len(seen) >= expected:
            raise MalformedLine("more lines than declared in header", lineno)
        if len(parts) != 2:
            raise MalformedLine("expected two vertex indices", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLine("expected two vertex indices", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeVertex(f"vertex out of range 0..{n - 1}", lineno)
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}", lineno)
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            kind = "arc" if directed else "edge"
            raise DuplicateArc(f"duplicate {kind} ({u},{v})", lineno)
        seen.add(key)
    if not header_done:
        raise MalformedLine("missing header 'n m'", 1)
    if len(seen) != expected:
        raise MalformedLine(
            f"declared {expected} lines, found {len(seen)}", 1
        )
    return n, frozenset(seen)


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list format: header "n m", then m lines "tail head"."""
    n, arcs = _parse_edge_list(text, directed=True)
    return Digraph(n, arcs)


def parse_ugraph(text: str) -> UGraph:
    n, edges = _parse_edge_list(text, directed=False)
    # every edge is already checked and normalised by the parser
    return UGraph._normalised(n, edges)


def format_digraph(d: Digraph) -> str:
    lines = [f"{d.n} {len(d.arcs)}"]
    lines += [f"{u} {v}" for (u, v) in d.sorted_arcs()]
    return "\n".join(lines) + "\n"


def format_ugraph(g: UGraph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines += [f"{u} {v}" for (u, v) in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def digraph_dot(d: Digraph, bold_arcs: set[Arc] | None = None) -> str:
    """DOT export; arcs in `bold_arcs` carry style=bold."""
    bold = bold_arcs or set()
    lines = ["digraph {"]
    for v in range(d.n):
        lines.append(f"  {v};")
    for (u, v) in d.sorted_arcs():
        attr = " [style=bold]" if (u, v) in bold else ""
        lines.append(f"  {u} -> {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ugraph_dot(g: UGraph, bold_edges: set[Edge] | None = None) -> str:
    bold = {(min(u, v), max(u, v)) for (u, v) in (bold_edges or set())}
    lines = ["graph {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for (u, v) in sorted(g.edges):
        attr = " [style=bold]" if (u, v) in bold else ""
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# digraph <-> undirected


def underlying_graph(d: Digraph) -> UGraph:
    """Forget arc directions; antiparallel pairs collapse to one edge."""
    return UGraph(d.n, frozenset((min(u, v), max(u, v)) for (u, v) in d.arcs))


def bidirect(g: UGraph) -> Digraph:
    """Replace every edge {x,y} with the two arcs (x,y) and (y,x)."""
    arcs = set()
    for (u, v) in g.edges:
        arcs.add((u, v))
        arcs.add((v, u))
    return Digraph(g.n, frozenset(arcs))


# ---------------------------------------------------------------------------
# connectivity


def weak_components(d: Digraph) -> list[list[int]]:
    """Vertex lists of the components of the underlying graph, in order of
    their minimum vertex, each starting with it; one search over the
    digraph's shared adjacency views, without building the underlying
    graph."""
    out, into = d.out_neighbors(), d.in_neighbors()
    seen = [False] * d.n
    components: list[list[int]] = []
    for s in range(d.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        for u in comp:
            for w in (*out[u], *into[u]):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        components.append(comp)
    return components


def strongly_connected_components(d: Digraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative.  Components are returned in a
    deterministic order, each sorted ascending."""
    n = d.n
    adj = d.out_neighbors()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for start in range(n):
        if index[start] != -1:
            continue
        work: list[tuple[int, int]] = [(start, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if index[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    components.sort(key=lambda c: c[0])
    return components


def initial_components(d: Digraph) -> list[list[int]]:
    """Strong components with no incoming arcs from other components."""
    comps = strongly_connected_components(d)
    comp_of = [0] * d.n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    has_in = [False] * len(comps)
    for (u, v) in d.arcs:
        if comp_of[u] != comp_of[v]:
            has_in[comp_of[v]] = True
    return [comp for i, comp in enumerate(comps) if not has_in[i]]


def classify(d: Digraph) -> ConnectivityClass:
    """Strongest applicable connectivity label (see ConnectivityClass)."""
    if len(weak_components(d)) != 1:
        return ConnectivityClass.DISCONNECTED
    if d.n % 2 == 1:
        return ConnectivityClass.CONNECTED_ODD
    init = initial_components(d)
    if len(init) != 1:
        return ConnectivityClass.CONNECTED_EVEN
    if len(init[0]) == d.n:
        return ConnectivityClass.STRONGLY_CONNECTED_EVEN
    return ConnectivityClass.SINGLE_INITIAL_EVEN


def find_universal_root(d: Digraph) -> int | None:
    """The minimum-index vertex from which every vertex is reachable, or
    None if there is none.

    Such vertices exist exactly when d has a single initial strong
    component, and they are its vertices: the condensation is acyclic, so
    every component is reachable from some initial one, and an initial
    component is reachable only from its own vertices.
    """
    init = initial_components(d)
    return init[0][0] if len(init) == 1 else None


def spanning_out_tree(d: Digraph, root: int) -> OutTree:
    """Breadth-first spanning out-tree rooted at `root`, ascending-index
    tie-breaking, so the output is deterministic."""
    if not (0 <= root < d.n):
        raise ValueError("root out of range")
    adj = d.out_neighbors()
    parent: dict[int, int] = {}
    seen = [False] * d.n
    seen[root] = True
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                queue.append(v)
    for v in range(d.n):
        if not seen[v]:
            raise NotReachable(v)
    return OutTree(d.n, root, parent)
