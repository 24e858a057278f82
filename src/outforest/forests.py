"""Out-forests, the arc taxonomy relative to a forest, and the verifiers
for the four forest kinds.

A forest always spans 0..n-1; vertices without a parent are roots, so
singleton trees are representable (the verifiers reject them kind by kind).
Forests are immutable; transformations build new ones.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .errors import ArcNotInDigraph, MalformedLine, NotAlmostPerfect
from .graphs import Arc, Digraph, Edge, UGraph, bidirect


class ForestKind(enum.Enum):
    PERFECT = "perfect"
    ALMOST_PERFECT = "almost-perfect"
    WEAK_PERFECT = "weak-perfect"
    EVEN = "even"


class ArcClass(enum.Enum):
    TREE = "tree"
    BACKWARD = "backward"
    FORWARD = "forward"
    CROSS = "cross"
    INTER_TREE = "inter-tree"


class OutForest:
    """Spanning out-forest: per-vertex optional parent, acyclic, in-degree
    at most one.  Tree ids (the root vertex) and depths are derived caches
    computed on construction.

    Ancestry is read off preorder intervals of a depth-first walk (the
    parenthesis theorem, Tarjan 1972): a is a proper ancestor of v exactly
    when pre[a] < pre[v] < end[a], where end[a] is one past the last
    preorder index of a's subtree.  The intervals are computed on first
    use and cached, so building a forest costs nothing extra."""

    __slots__ = ("n", "parent", "tree_id", "depth", "children", "roots", "_intervals")

    def __init__(self, n: int, parent: dict[int, int]):
        self.n = n
        self.parent = dict(parent)
        for c, p in self.parent.items():
            if not (0 <= c < n and 0 <= p < n):
                raise ValueError(f"arc ({p},{c}) out of range for n={n}")
            if c == p:
                raise ValueError(f"self-parent at {c}")
        self.children: list[list[int]] = [[] for _ in range(n)]
        for c, p in self.parent.items():
            self.children[p].append(c)
        for cs in self.children:
            cs.sort()
        self.roots = sorted(v for v in range(n) if v not in self.parent)
        # depth / tree-id by walking down from the roots; leftover vertices
        # are on a parent cycle
        self.depth = [-1] * n
        self.tree_id = [-1] * n
        stack = []
        for r in self.roots:
            self.depth[r] = 0
            self.tree_id[r] = r
            stack.append(r)
        while stack:
            v = stack.pop()
            for c in self.children[v]:
                self.depth[c] = self.depth[v] + 1
                self.tree_id[c] = self.tree_id[v]
                stack.append(c)
        bad = [v for v in range(n) if self.depth[v] < 0]
        if bad:
            raise ValueError(f"cycle in parent relation through {bad}")

    def __eq__(self, other):
        return (
            isinstance(other, OutForest)
            and self.n == other.n
            and self.parent == other.parent
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.parent.items())))

    def __repr__(self):
        return f"OutForest(n={self.n}, parent={dict(sorted(self.parent.items()))})"

    def arcs(self) -> set[Arc]:
        return {(p, c) for c, p in self.parent.items()}

    def trees(self) -> dict[int, list[int]]:
        """Map root vertex -> sorted vertices of its tree."""
        out: dict[int, list[int]] = {r: [] for r in self.roots}
        for v in range(self.n):
            out[self.tree_id[v]].append(v)
        return out

    def degree(self, v: int) -> int:
        """Degree of v in the underlying graph of the forest."""
        return len(self.children[v]) + (1 if v in self.parent else 0)

    def intervals(self) -> tuple[list[int], list[int]]:
        """Preorder index and subtree end of every vertex (see the class
        docstring), computed on the first call and shared by later ones,
        which must not mutate them."""
        try:
            return self._intervals
        except AttributeError:
            pass
        pre = [0] * self.n
        size = [1] * self.n
        order = []
        stack = list(self.roots)
        while stack:
            v = stack.pop()
            pre[v] = len(order)
            order.append(v)
            stack.extend(self.children[v])
        parent = self.parent
        for v in reversed(order):
            if v in parent:
                size[parent[v]] += size[v]
        self._intervals = pre, [p + s for p, s in zip(pre, size)]
        return self._intervals

    def is_ancestor(self, a: int, v: int) -> bool:
        """True iff a is a proper ancestor of v."""
        pre, end = self.intervals()
        return pre[a] < pre[v] < end[a]


def classify_arc(d: Digraph, f: OutForest, arc: Arc) -> ArcClass:
    """Classify an arc of d relative to f: tree / inter-tree / backward /
    forward / cross."""
    if arc not in d.arcs:
        raise ArcNotInDigraph(f"arc {arc} is not in the digraph")
    tail, head = arc
    if f.parent.get(head) == tail:
        return ArcClass.TREE
    if f.tree_id[tail] != f.tree_id[head]:
        return ArcClass.INTER_TREE
    pre, end = f.intervals()
    if pre[head] < pre[tail] < end[head]:
        return ArcClass.BACKWARD
    if pre[tail] < pre[head] < end[tail]:
        return ArcClass.FORWARD
    return ArcClass.CROSS


@dataclass(frozen=True)
class VerificationReport:
    violations: tuple[tuple[str, tuple], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "verdict": "pass" if self.passed else "fail",
                "violations": [
                    {"rule": rule, "witness": list(witness)}
                    for rule, witness in self.violations
                ],
            }
        )


def verify(d: Digraph, f: OutForest, kind: ForestKind) -> VerificationReport:
    """Check f against d for the requested forest kind.

    Collects all violations rather than failing fast.  Rule identifiers:
    order-mismatch, arc-not-in-host, even-degree, odd-order-tree,
    forbidden-arc, not-induced.
    """
    violations: list[tuple[str, tuple]] = []
    if f.n != d.n:
        return VerificationReport((("order-mismatch", (f.n, d.n)),))
    arcs = d.arcs
    for arc in sorted((p, c) for c, p in f.parent.items() if (p, c) not in arcs):
        violations.append(("arc-not-in-host", arc))

    if kind is ForestKind.EVEN:
        for root, verts in sorted(f.trees().items()):
            if len(verts) % 2 == 1:
                violations.append(("odd-order-tree", (root, len(verts))))
        return VerificationReport(tuple(violations))

    # the three perfect variants all require odd underlying degrees
    children, parent = f.children, f.parent
    for v in range(f.n):
        deg = len(children[v]) + (v in parent)  # f.degree(v), inlined
        if deg % 2 == 0:
            violations.append(("even-degree", (v, deg)))

    if kind is ForestKind.ALMOST_PERFECT:
        # classify_arc's tests, inlined to save a call per arc
        tree_id = f.tree_id
        pre, end = f.intervals()
        # the out-lists give the arcs in (tail, head) order, without tuples
        for u, heads in enumerate(d.out_neighbors()):
            for v in heads:
                if (tree_id[u] != tree_id[v] or parent.get(v) == u
                        or pre[v] < pre[u] < end[v]):
                    continue
                cls = ArcClass.FORWARD if pre[u] < pre[v] < end[u] else ArcClass.CROSS
                violations.append(("forbidden-arc", ((u, v), cls.value)))
    elif kind is ForestKind.PERFECT:
        # each tree induced: every arc of d inside one tree is a tree arc
        for (u, v) in d.sorted_arcs():
            if f.tree_id[u] == f.tree_id[v] and f.parent.get(v) != u:
                violations.append(("not-induced", (u, v)))
    return VerificationReport(tuple(violations))


def extract_perfect_forest(g: UGraph, f: OutForest) -> set[Edge]:
    """Underlying edges of an almost perfect out-forest of bidirect(g).

    In a bidirected digraph an almost perfect out-forest cannot have
    backward arcs (each would come with a forbidden forward arc), so its
    trees are induced in g and the result is a perfect forest of g.
    """
    report = verify(bidirect(g), f, ForestKind.ALMOST_PERFECT)
    if not report.passed:
        raise NotAlmostPerfect(report.to_json())
    return {(min(p, c), max(p, c)) for (p, c) in f.arcs()}


# ---------------------------------------------------------------------------
# serialization: lines "root v" for roots, "child parent" otherwise


def format_forest(f: OutForest) -> str:
    lines = []
    for v in range(f.n):
        if v in f.parent:
            lines.append(f"{v} {f.parent[v]}")
        else:
            lines.append(f"root {v}")
    return "\n".join(lines) + "\n"


def parse_forest(text: str) -> OutForest:
    parent: dict[int, int] = {}
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLine("expected 'child parent' or 'root v'", lineno)
        if parts[0] == "root":
            try:
                v = int(parts[1])
            except ValueError:
                raise MalformedLine("expected 'root v'", lineno) from None
        else:
            try:
                v, p = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedLine(
                    "expected 'child parent' or 'root v'", lineno
                ) from None
            parent[v] = p
        if v in seen:
            raise MalformedLine(f"vertex {v} listed twice", lineno)
        seen.add(v)
    n = len(seen)
    if seen != set(range(n)):
        raise MalformedLine("vertices must be exactly 0..n-1", 1)
    return OutForest(n, parent)
