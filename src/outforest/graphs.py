"""Digraph and undirected graph representations, parsing, connectivity
classification, spanning out-trees and bidirection.

Every connectivity question is answered by one breadth-first
reachability search, `_reach`: weak components search along out- and
in-neighbours, the universal root along out-neighbours, and strong
connectivity along in-neighbours from that root.  No strong components
are computed.

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
    InvariantError,
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

    @classmethod
    def _normalised(
        cls, n: int, arcs: frozenset[Arc], out_neighbors: list[list[int]] | None = None
    ) -> Digraph:
        """A digraph from arcs its caller already checked and built as a
        frozenset of in-range pairs without self-loops; skips the checks
        of __post_init__.  `out_neighbors`, if given, must be the sorted
        out-lists of exactly those arcs, and becomes the shared view."""
        d = object.__new__(cls)
        object.__setattr__(d, "n", n)
        object.__setattr__(d, "arcs", arcs)
        if out_neighbors is not None:
            d.__dict__["_out_neighbors"] = out_neighbors
        return d

    # The two views below are computed once per digraph and shared by
    # every caller, which must not mutate them.  Walked in vertex order,
    # the out-lists give the arcs in ascending (tail, head) order.

    def out_neighbors(self) -> list[list[int]]:
        return self._out_neighbors

    def in_neighbors(self) -> list[list[int]]:
        return self._in_neighbors

    @cached_property
    def _out_neighbors(self) -> list[list[int]]:
        # n small integer sorts instead of one sort of m arc tuples
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for (u, v) in self.arcs:
            adj[u].append(v)
        for vs in adj:
            vs.sort()
        return adj

    @cached_property
    def _in_neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, vs in enumerate(self._out_neighbors):
            for v in vs:
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
        seen = [False] * self.n
        return self.n == 0 or len(_reach(0, seen, self.adjacency())) == self.n


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
    _bfs_order: list[int] = field(init=False, repr=False, compare=False)

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
        children: dict[int, list[int]] = {}
        for c, p in self.parent.items():
            children.setdefault(p, []).append(c)
        order = [self.root]
        for v in order:
            order.extend(children.get(v, ()))
        if len(order) < self.order():
            raise ValueError("cycle in parent relation")
        object.__setattr__(self, "_bfs_order", order)

    def vertices(self) -> set[int]:
        return {self.root} | set(self.parent)

    def order(self) -> int:
        return 1 + len(self.parent)

    def arcs(self) -> set[Arc]:
        return {(p, c) for c, p in self.parent.items()}

    def bfs_order(self) -> list[int]:
        """Every tree vertex, each listed after its parent: the walk the
        acyclicity check made, shared by every caller, which must not
        mutate it."""
        return self._bfs_order


# ---------------------------------------------------------------------------
# parsing / serialization


def _parse_edge_list(text: str, directed: bool):
    """Header and pairs of the edge-list format.  Returns n and the pairs
    as one frozenset, as (min, max) when undirected.

    Blank lines, and lines whose first token starts with "#", are
    skipped.  Every other line holds two integers: the header "n m", then
    m lines of one pair each.  One pass over the whole text's tokens
    reads the pairs and checks them in bulk; any input it rejects goes to
    `_raise_first_error`, which rescans it line by line and reports the
    first bad line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line for line in lines if not line.lstrip().startswith("#")]
    # every line left must be blank or hold two tokens
    if {0, 2}.issuperset(map(len, map(str.split, lines))):
        try:
            nums = list(map(int, " ".join(lines).split()))
        except ValueError:
            nums = []
        if len(nums) >= 2 and nums[0] >= 0:
            n, m = nums[0], nums[1]
            body = nums[2:]
            tails, heads = body[0::2], body[1::2]
            if len(tails) == m and (
                not body or (min(body) >= 0 and max(body) < n)
            ) and not any(map(int.__eq__, tails, heads)):
                if not directed and not all(map(int.__lt__, tails, heads)):
                    tails, heads = list(map(min, tails, heads)), list(map(max, tails, heads))
                pairs = frozenset(zip(tails, heads))
                if len(pairs) == m:
                    return n, pairs
    _raise_first_error(text, directed)


def _raise_first_error(text: str, directed: bool):
    """Raise the error of the first bad line of an edge list that
    `_parse_edge_list` rejected, with its line number."""
    n = None
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
                n, expected = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedLine("expected header 'n m'", lineno) from None
            if n < 0 or expected < 0:
                raise MalformedLine("negative count in header", lineno)
            header_done = True
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
        raise MalformedLine(f"declared {expected} lines, found {len(seen)}", 1)
    raise InvariantError("the edge-list parser rejected a valid input")


def parse_digraph(text: str) -> Digraph:
    """Parse the edge-list format: header "n m", then m lines "tail head"."""
    n, arcs = _parse_edge_list(text, directed=True)
    # every arc is already checked by the parser
    return Digraph._normalised(n, arcs)


def parse_ugraph(text: str) -> UGraph:
    n, edges = _parse_edge_list(text, directed=False)
    # every edge is already checked and normalised by the parser
    return UGraph._normalised(n, edges)


def format_digraph(d: Digraph) -> str:
    lines = [f"{d.n} {len(d.arcs)}"]
    lines += [f"{u} {v}" for u, vs in enumerate(d.out_neighbors()) for v in vs]
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
    for u, vs in enumerate(d.out_neighbors()):
        for v in vs:
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
    """Forget arc directions; antiparallel pairs collapse to one edge.

    No route calls it; it stays public because the tests use it and
    perfbench/tracing.py wraps it by name."""
    return UGraph(d.n, frozenset((min(u, v), max(u, v)) for (u, v) in d.arcs))


def bidirect(g: UGraph) -> Digraph:
    """Replace every edge {x,y} with the two arcs (x,y) and (y,x).

    The arcs are g's own edge tuples and one reversed tuple per edge, and
    the digraph's out-lists are g's sorted adjacency lists, built once."""
    arcs = g.edges.union([(v, u) for (u, v) in g.edges])
    return Digraph._normalised(g.n, arcs, g.adjacency())


# ---------------------------------------------------------------------------
# connectivity


def _reach(s: int, seen: list[bool], *views: list[list[int]]) -> list[int]:
    """Mark s and every unseen vertex reachable from it along the
    adjacency `views`, and return them in breadth-first order."""
    seen[s] = True
    found = [s]
    for u in found:
        for view in views:
            for w in view[u]:
                if not seen[w]:
                    seen[w] = True
                    found.append(w)
    return found


def weak_components(d: Digraph) -> list[list[int]]:
    """Vertex lists of the components of the underlying graph, in order of
    their minimum vertex, each starting with it; one search over the
    digraph's shared adjacency views, without building the underlying
    graph."""
    views = (d.out_neighbors(), d.in_neighbors())
    seen = [False] * d.n
    return [_reach(s, seen, *views) for s in range(d.n) if not seen[s]]


def classify(d: Digraph) -> ConnectivityClass:
    """Strongest applicable connectivity label (see ConnectivityClass).

    A digraph with a universal root is strongly connected exactly when
    every vertex reaches that root: one search over in-neighbours from it.
    """
    if len(weak_components(d)) != 1:
        return ConnectivityClass.DISCONNECTED
    if d.n % 2 == 1:
        return ConnectivityClass.CONNECTED_ODD
    root = find_universal_root(d)
    if root is None:
        return ConnectivityClass.CONNECTED_EVEN
    if len(_reach(root, [False] * d.n, d.in_neighbors())) == d.n:
        return ConnectivityClass.STRONGLY_CONNECTED_EVEN
    return ConnectivityClass.SINGLE_INITIAL_EVEN


def find_universal_root(d: Digraph) -> int | None:
    """The minimum-index vertex from which every vertex is reachable, or
    None if there is none.

    Such vertices exist exactly when d has a single initial strong
    component C, and they are its vertices: the condensation is acyclic,
    so every component is reachable from some initial one, and an initial
    component is reachable only from its own vertices.

    One pass searches from each still-unseen vertex in ascending order,
    then one fresh search from the last start checks that it reaches every
    vertex.  If C exists, that last start is min(C): the seen set stays
    closed under out-arcs and no arc enters C, so no search from a vertex
    below min(C) marks any vertex of C, and the search from min(C) marks
    everything left.  If C does not exist, no start reaches every vertex
    and the check fails.
    """
    out = d.out_neighbors()
    seen = [False] * d.n
    last = None
    for s in range(d.n):
        if not seen[s]:
            _reach(s, seen, out)
            last = s
    if last is not None and len(_reach(last, [False] * d.n, out)) == d.n:
        return last
    return None


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
