"""Constructive pipelines: the shared-in-neighbour graph H that decides
weak perfect out-forests, the paper's uniform matching gadget and its
correspondence, the two forest-transformation lemmas, and the end-to-end
constructors.

`decide_weak` decides by the paper's theorem before it searches.  An even
digraph with a single initial strong component always has a weak perfect
out-forest, and a spanning out-tree from a vertex of that component split
by `even_tree_to_weak` is one, built in linear time.  Every other even
digraph goes to `gadget_forest`, whose matcher stops at the first exposed
vertex of H it cannot augment: that vertex stays exposed, so no perfect
matching and no forest exists.

A weak perfect out-forest is a map t with t(v) in N-[v] (v itself or an
in-neighbour of v) under which every vertex has an even number of
preimages: read t(v) != v as the arc (t(v),v) and t(v) = v as "v is a
root".  A vertex's degree and its preimage count both count its children;
the degree adds its in-arc, the preimage count the vertex itself at a
root, so one is odd exactly when the other is even.  `remove_cycles`
strips the directed cycles of t (each cycle vertex loses two arcs), and
a forest gives t = parent, or self at a root.  The preimages of u lie in
N+[u], so an even class splits into pairs that share the closed
in-neighbour u: t exists exactly when H, the graph on V with a ~ b
whenever a and b share a closed in-neighbour, has a perfect matching.  H
is one clique per N+[u]; each edge records the u of the first clique
that adds it, and the read-back sets t(x) to the record of x's edge.

A clique of more than _CLIQUE_MAX = c members is cut into pieces of c-2,
chained by connector pairs z-z': z joins one piece's clique, z' the
next's, and z-z' is an edge.  So H has n vertices plus two per connector
and O(n+m) edges.  The connectors carry parity: a perfect matching either
matches z to z' or both inside their pieces, so an even number of u's
connectors is matched into V and every preimage class stays even.
Conversely an even class is matched piece by piece, a piece with an odd
count taking the connector into the next; the last count is even because
the class is, and the connectors left over are matched z to z'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    pair up into internal edges.  Every block must have odd size;
    `build_gadget` gives each the paper's n-1.  `owner` maps each gadget
    vertex back to its source vertex.
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


def build_gadget(d: Digraph) -> tuple[UGraph, GadgetCorrespondence]:
    """Gadget graph whose perfect matchings correspond to weak perfect
    out-forests of d.  Requires even order n >= 2.

    Every block X_u has the paper's uniform n-1 vertices, and each source
    arc (u,v) adds all edges from X_u to y_v, so a perfect matching gives
    every vertex an odd number of incident arcs.  With n(n-1) vertices it
    is too large to decide on; `gadget_forest` matches on H instead.

    Note: for antiparallel source arcs the two copies of the boundary edge
    {y_u, y_v} collapse into one undirected edge; matching_to_arcset
    resolves the orientation.
    """
    if d.n % 2 == 1 or d.n < 2:
        raise OddOrder(f"gadget requires even order >= 2, got n={d.n}")
    c = GadgetCorrespondence(range(0, d.n * (d.n - 1) + 1, d.n - 1))
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
        if color[v] == 1 and v in parent:  # the walk closed a cycle at v
            for w in path[path.index(v):]:
                del parent[w]
        for w in path:
            color[w] = 2
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
    correspondence in this direction.  A warm-started matcher would map
    forests into H instead, pairing each preimage class of t inside its
    chain (see the module docstring).
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


# cliques of H with more members are cut into chained pieces of
# _CLIQUE_MAX - 2 members, which leaves room for two connectors (c >= 3)
_CLIQUE_MAX = 4


def _shared_in_neighbour_graph(d: Digraph) -> tuple[UGraph, dict[Edge, int]]:
    """H (see the module docstring) and, for each of its edges, the u of
    the first clique N+[u] that adds it.  Connectors are numbered from n
    on, in the order their chains are built."""
    label: dict[Edge, int] = {}
    size = d.n
    step = _CLIQUE_MAX - 2
    for u, vs in enumerate(d.out_neighbors()):
        members = [u, *vs]
        pieces = [members]
        if len(members) > _CLIQUE_MAX:
            pieces = [members[i:i + step] for i in range(0, len(members), step)]
            for a, b in zip(pieces, pieces[1:]):
                a.append(size)
                b.append(size + 1)
                label[size, size + 1] = u
                size += 2
        for piece in pieces:
            for i, a in enumerate(piece):
                for b in piece[i + 1:]:
                    label.setdefault((a, b) if a < b else (b, a), u)
    return UGraph._normalised(size, frozenset(label)), label


def gadget_forest(d: Digraph) -> OutForest | None:
    """Weak perfect out-forest read back from a perfect matching of H, or
    None if H has none: t(x) is the recorded u of x's matched edge, and
    t(x) != x gives the arc (t(x),x).  Never uses connectivity; at odd
    order H has an odd number of vertices, so the answer is None."""
    g, label = _shared_in_neighbour_graph(d)
    m = perfect_matching(g)
    if m is None:
        return None
    if 2 * len(m) != g.n:
        raise NotPerfectMatching(f"matching covers {2 * len(m)} of {g.n} vertices of H")
    arcs = {(label[e], x) for e in m.edges for x in e if x < d.n and x != label[e]}
    return remove_cycles(ArcSet(d.n, frozenset(arcs)))


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
    f = weak_to_almost(d, even_tree_to_weak(tree))
    return {(p, c) if p < c else (c, p) for c, p in f.parent.items()}
