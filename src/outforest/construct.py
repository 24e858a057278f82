"""Constructive pipelines: the matching gadget and its correspondence,
the two forest-transformation lemmas, and the end-to-end constructors.

`decide_weak` decides by the paper's theorem before it searches.  An even
digraph with a single initial strong component always has a weak perfect
out-forest, and a spanning out-tree from a vertex of that component split
by `even_tree_to_weak` is one, built in linear time.  Every other even
digraph goes to the gadget, whose matcher stops at the first exposed
vertex it cannot augment: that vertex stays exposed, so no perfect
matching and no forest exists.

The gadget reduces weak-perfect-out-forest existence to perfect matching:
each source vertex u gets a block X_u of odd size (a distinguished
boundary vertex y_u plus internal matching pairs), and each source arc
(u,v) contributes all edges from X_u to y_v.  The paper's uniform layout
gives every block n-1 vertices, so the gadget always has n(n-1) vertices.
The degree-bounded layout used by `gadget_forest` gives X_u only
2*floor(d+(u)/2)+1 vertices (d+ is the out-degree), at most n+m in all.
That suffices because:

* every block still has odd size, so a perfect matching still gives each
  vertex an odd number of incident arcs;
* a forest never needs more than floor(d+(u)/2) internal pairs in X_u: a
  child vertex has even out-degree at most d+(u), and a root has odd
  out-degree with y_u carrying one of its arcs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .errors import (
    InvariantError,
    NotPerfectMatching,
    NotReachable,
    NotWeakPerfect,
    OddOrder,
    WrongClass,
)
from .forests import ForestKind, OutForest, _forward_and_cross, verify
from .graphs import (
    Arc,
    Digraph,
    Edge,
    OutTree,
    UGraph,
    bidirect,
    classify,
    find_universal_root,
    spanning_out_tree,
)
# maximum_matching is no longer called here but stays bound under this
# name, which perfbench/tests/test_perfbench.py reads
from .matching import Matching, maximum_matching, perfect_matching  # noqa: F401


@dataclass(frozen=True)
class GadgetCorrespondence:
    """Vertex bookkeeping for the gadget graph of a digraph of order n.

    Block X_u occupies the contiguous index range [starts[u], starts[u+1]);
    its first index is the boundary vertex y_u, and the remaining indices
    pair up into internal edges.  Every block has odd size: n-1 in the
    paper's uniform layout, 2*floor(d+(u)/2)+1 in the degree-bounded one
    (see the module docstring for why that is enough).  `owner` maps each
    gadget vertex back to its source vertex.
    """

    starts: tuple[int, ...]
    owner: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "starts", tuple(self.starts))
        sizes = [b - a for a, b in zip(self.starts, self.starts[1:])]
        if self.starts[:1] != (0,) or any(s < 1 or s % 2 == 0 for s in sizes):
            raise ValueError(f"block offsets {self.starts} do not give odd blocks")
        owner = tuple(u for u, s in enumerate(sizes) for _ in range(s))
        object.__setattr__(self, "owner", owner)

    @property
    def n(self) -> int:
        return len(self.starts) - 1

    @property
    def size(self) -> int:
        """Number of gadget vertices."""
        return self.starts[-1]

    def block(self, u: int) -> range:
        return range(self.starts[u], self.starts[u + 1])

    def y(self, u: int) -> int:
        return self.starts[u]

    def internal_pairs(self, u: int) -> list[Edge]:
        return [(x, x + 1) for x in range(self.starts[u] + 1, self.starts[u + 1], 2)]

    def source_of(self, gadget_vertex: int) -> int:
        return self.owner[gadget_vertex]

    def arc_edges(self, arc: Arc) -> list[Edge]:
        u, v = arc
        yv = self.y(v)
        return [(min(x, yv), max(x, yv)) for x in self.block(u)]

    def format_sidecar(self) -> str:
        lines = []
        for u in range(self.n):
            block = self.block(u)
            lines.append(f"block {u} {block.start} {len(block)} {self.y(u)}")
        for u in range(self.n):
            for (a, b) in self.internal_pairs(u):
                lines.append(f"pair {a} {b}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ArcSet:
    """Arc subset with per-vertex in-degree at most one; directed cycles
    are allowed (they are what remove_cycles strips)."""

    n: int
    arcs: frozenset[Arc]

    def __post_init__(self):
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        indeg: dict[int, int] = {}
        for (u, v) in self.arcs:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise ValueError(f"bad arc ({u},{v})")
            indeg[v] = indeg.get(v, 0) + 1
            if indeg[v] > 1:
                raise ValueError(f"in-degree of {v} exceeds one")


def build_gadget(
    d: Digraph, bounded: bool = False
) -> tuple[UGraph, GadgetCorrespondence]:
    """Gadget graph whose perfect matchings correspond to weak perfect
    out-forests of d.  Requires even order n >= 2.

    By default every block has the paper's uniform size n-1; with
    bounded=True block X_u has size 2*floor(d+(u)/2)+1 and the gadget at
    most n+m vertices.

    Note: for antiparallel source arcs the two copies of the boundary edge
    {y_u, y_v} collapse into one undirected edge; matching_to_arcset
    resolves the orientation.
    """
    if d.n % 2 == 1 or d.n < 2:
        raise OddOrder(f"gadget requires even order >= 2, got n={d.n}")
    if bounded:
        outdeg = [0] * d.n
        for (u, _) in d.arcs:
            outdeg[u] += 1
        sizes = [2 * (k // 2) + 1 for k in outdeg]
    else:
        sizes = [d.n - 1] * d.n
    c = GadgetCorrespondence((0, *accumulate(sizes)))
    edges: set[Edge] = set()
    for u in range(d.n):
        edges.update(c.internal_pairs(u))
    for arc in d.arcs:
        edges.update(c.arc_edges(arc))
    # both helpers already build in-range (min, max) pairs
    return UGraph._normalised(c.size, frozenset(edges)), c


def matching_to_arcset(
    d: Digraph, m: Matching, c: GadgetCorrespondence
) -> ArcSet:
    """Arcs (u,v) of d such that m matches some vertex of X_u to y_v.

    A collapsed boundary edge {y_u, y_v} with both arcs present in d is
    oriented min-index tail -> max-index head.
    """
    covered = m.covered
    if covered != frozenset(range(c.size)):
        raise NotPerfectMatching(
            f"matching covers {len(covered)} of {c.size} gadget vertices"
        )
    arcs: set[Arc] = set()
    for (a, b) in m.edges:
        u, v = c.source_of(a), c.source_of(b)
        if u == v:
            continue  # internal pair edge
        a_is_y = a == c.y(u)
        b_is_y = b == c.y(v)
        if a_is_y and b_is_y:
            if (u, v) in d.arcs and (v, u) in d.arcs:
                arc = (min(u, v), max(u, v))
            elif (u, v) in d.arcs:
                arc = (u, v)
            else:
                arc = (v, u)
        elif b_is_y:
            arc = (u, v)
        else:
            arc = (v, u)
        if arc not in d.arcs:
            raise NotPerfectMatching(f"matching edge {(a, b)} maps to no arc")
        arcs.add(arc)
    return ArcSet(d.n, frozenset(arcs))


def remove_cycles(f: ArcSet) -> OutForest:
    """Strip directed cycles from an in-degree <= 1 arc set whose vertices
    all have odd incident arc counts; the result is a weak perfect
    out-forest (cycle vertices lose exactly two incident arcs each)."""
    degree = [0] * f.n
    for (u, v) in f.arcs:
        degree[u] += 1
        degree[v] += 1
    for v in range(f.n):
        if degree[v] % 2 == 0:
            raise ValueError(f"vertex {v} has even incident arc count")
    parent = {v: u for (u, v) in f.arcs}
    # functional-graph cycle detection on parent pointers; cycles are
    # vertex-disjoint because in-degree is at most one
    color = [0] * f.n  # 0 unseen, 1 in progress, 2 done
    cycles: list[list[int]] = []
    for s in range(f.n):
        if color[s]:
            continue
        path = []
        v = s
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            if v not in parent:
                break
            v = parent[v]
        if color[v] == 1 and v in parent:
            cycle = path[path.index(v):]
            cycles.append(cycle)
        for w in path:
            color[w] = 2
    for cycle in sorted(cycles, key=min):
        for v in cycle:
            del parent[v]
    return OutForest(f.n, parent)


def forest_to_matching(
    d: Digraph, f: OutForest, c: GadgetCorrespondence
) -> Matching:
    """Perfect gadget matching witnessing a weak perfect out-forest.

    Per block X_u: a root's first outgoing arc is routed through y_u (the
    in-arc of a non-root covers y_u instead), further outgoing arcs consume
    internal-pair vertices two by two, and leftover whole pairs are matched
    internally.  Each vertex covers an even number of internal-pair
    vertices, so the leftovers are exactly unions of full pairs.

    No route calls it; it stays because the tests check the forest-gadget
    correspondence in this direction, and a warm-started matcher would
    map forests into the gadget the same way.
    """
    report = verify(d, f, ForestKind.WEAK_PERFECT)
    if not report.passed:
        raise NotWeakPerfect(report.to_json())
    edges: set[Edge] = set()
    for u in range(d.n):
        children = f.children[u]
        if u not in f.parent:
            # roots have odd out-degree >= 1; y_u rides the first arc
            yv = c.y(children[0])
            edges.add((min(c.y(u), yv), max(c.y(u), yv)))
            children = children[1:]
        pairs = c.internal_pairs(u)
        if len(children) % 2 or len(children) > 2 * len(pairs):
            raise InvariantError(
                f"block {u} has {len(pairs)} pairs for {len(children)} arcs"
            )
        slots = [x for pair in pairs for x in pair]
        for x, child in zip(slots, children):
            yv = c.y(child)
            edges.add((min(x, yv), max(x, yv)))
        edges.update(pairs[len(children) // 2:])
    return Matching(frozenset(edges))


def gadget_forest(d: Digraph) -> OutForest | None:
    """Weak perfect out-forest read back from a perfect matching of the
    degree-bounded gadget, or None if the gadget has none.  Requires even
    order n >= 2 (OddOrder otherwise) and never uses connectivity."""
    g, c = build_gadget(d, bounded=True)
    m = perfect_matching(g)
    if m is None:
        return None
    # the matching is this function's own: a bad one is an internal fault
    try:
        return remove_cycles(matching_to_arcset(d, m, c))
    except (NotPerfectMatching, ValueError) as exc:
        raise InvariantError(f"gadget matching read back badly: {exc}") from exc


def decide_weak(d: Digraph) -> OutForest | None:
    """Decide/construct a weak perfect out-forest; None when none exists.

    With a single initial strong component and even order the forest
    exists (the paper's theorem) and is the even-tree split of the
    breadth-first spanning out-tree from the minimum universal vertex.
    Odd order means none exists, and every other digraph, disconnected
    ones included, is decided by `gadget_forest`.  The forest returned is
    checked to be weak perfect on both routes (InvariantError if not).
    """
    if d.n == 0:
        return OutForest(0, {})
    if d.n % 2 == 1:
        return None
    root = find_universal_root(d)
    if root is not None:
        f = even_tree_to_weak(spanning_out_tree(d, root))
    else:
        f = gadget_forest(d)
        if f is None:
            return None
    report = verify(d, f, ForestKind.WEAK_PERFECT)
    if not report.passed:
        raise InvariantError(f"decided forest is not weak perfect: {report.to_json()}")
    return f


def even_tree_to_weak(t: OutTree) -> OutForest:
    """Weak perfect out-forest spanning V(t) using only arcs of t.

    The arc into c is kept exactly when the subtree of c has odd order,
    and no other choice of tree arcs works.  In a forest F of tree arcs
    where every vertex of V(t) has odd degree, the degrees inside
    subtree(c) add up to |subtree(c)| mod 2; they also add up to twice the
    F-arcs inside subtree(c), plus one if F keeps the arc into c.
    Vertices of the host outside V(t) stay singleton roots.
    """
    if t.order() % 2 == 1:
        raise OddOrder(f"tree has odd order {t.order()}")
    order = t.bfs_order()
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[t.parent[v]] += size[v]
    return OutForest(t.n, {c: p for c, p in t.parent.items() if size[c] % 2})


def weak_to_almost(d: Digraph, f: OutForest) -> OutForest:
    """Rewrite a weak perfect out-forest into an almost perfect one.

    One pass over the out-lists of d, so over its arcs in ascending
    (tail, head) order, without building an arc tuple: whenever
    the arc (u,v) is a forward or cross arc of the current forest, remove
    the arcs of the unique underlying-tree path from u to v and add (u,v).
    One pass suffices because a tree, backward or inter-tree arc stays in
    that set after any swap, so no arc already passed turns forbidden:
    a tree arc whose path is removed becomes an inter-tree arc; a backward
    arc keeps its ancestor or has its endpoints land in different trees;
    trees only split, except that the piece of v rejoins the tree of u.

    The same argument lets the pass classify each arc once against the
    entry forest f, in O(1) by preorder interval, and skip its tree,
    backward and inter-tree arcs.  Only its forward and cross arcs, listed
    by one scan (`_forward_and_cross`), climb the current forest, from u
    and v in turn, marking each vertex with the arc's index until one side
    meets a vertex the other marked: their lowest common ancestor w.  A
    swap deletes both climbed paths, so the swaps cost O(n + swaps) climb
    steps in all.  An arc whose endpoints lie in different trees by its
    turn climbs to both roots.
    The pass edits one parent map and builds a single forest at the end,
    which is checked to be almost perfect (InvariantError if not).
    """
    report = verify(d, f, ForestKind.WEAK_PERFECT)
    if not report.passed:
        raise NotWeakPerfect(report.to_json())
    parent = dict(f.parent)
    mark = [-1] * f.n
    # i numbers the climbing arcs, to tell their marks apart
    for i, (u, v) in enumerate(_forward_and_cross(d, f)):
        w = None  # stays None if both climbs reach a root: inter-tree by now
        mark[u] = mark[v] = i
        a, b = u, v
        while a in parent or b in parent:
            if a in parent:
                a = parent[a]
                if mark[a] == i:
                    w = a
                    break
                mark[a] = i
            a, b = b, a
        if w is None or w == v:  # w == v: backward by now
            continue
        for a in (u, v):
            while a != w:
                a = parent.pop(a)
        parent[v] = u
    f = OutForest(f.n, parent)
    report = verify(d, f, ForestKind.ALMOST_PERFECT)
    if not report.passed:
        raise InvariantError(f"swap pass left a forbidden arc: {report.to_json()}")
    return f


def construct_for_single_initial(d: Digraph) -> OutForest:
    """Almost perfect out-forest of an even digraph with a single initial
    strong component: spanning out-tree -> even-tree split -> arc swaps.

    No CLI route calls it; the tests and perfbench/tracing.py do."""
    root = find_universal_root(d)
    if root is None or d.n % 2:
        raise WrongClass(
            f"need a single initial component and even order, got {classify(d).value}"
        )
    tree = spanning_out_tree(d, root)
    return weak_to_almost(d, even_tree_to_weak(tree))


def perfect_forest_undirected(g: UGraph) -> set[Edge] | None:
    """Perfect forest of a connected undirected graph of even order, via
    bidirection; None for odd order or disconnected input.

    g is connected exactly when vertex 0 reaches every vertex of the
    bidirected digraph, so one search, the spanning out-tree from 0, both
    decides it (NotReachable if not) and gives the tree.  weak_to_almost
    has already checked the forest almost perfect, which in a bidirected
    digraph makes it perfect (see extract_perfect_forest).
    """
    if g.n == 0:
        return set()
    if g.n % 2 == 1:
        return None
    d = bidirect(g)
    try:
        tree = spanning_out_tree(d, 0)
    except NotReachable:
        return None
    # the split is this function's own: a bad one is an internal fault
    try:
        f = weak_to_almost(d, even_tree_to_weak(tree))
    except NotWeakPerfect as exc:
        raise InvariantError(f"even-tree split is not weak perfect: {exc}") from exc
    return {(p, c) if p < c else (c, p) for c, p in f.parent.items()}
