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
    at most one.  One pass over the vertices lists the roots and the
    children, each list ascending; one depth-first walk from the roots
    gives tree ids (the root vertex) and preorder intervals.  Ancestry is
    read off the intervals (the parenthesis theorem, Tarjan 1972): a is a
    proper ancestor of v exactly when pre[a] < pre[v] < end[a], where
    end[a] is one past the last preorder index of a's subtree."""

    __slots__ = ("n", "parent", "tree_id", "children", "roots", "_intervals")

    def __init__(self, n: int, parent: dict[int, int]):
        self.n = n
        self.parent = parent = dict(parent)
        self.children = children = [[] for _ in range(n)]
        self.roots = roots = []
        for c in range(n):
            if c not in parent:
                roots.append(c)
                continue
            p = parent[c]
            if not 0 <= p < n:
                raise ValueError(f"arc ({p},{c}) out of range for n={n}")
            if c == p:
                raise ValueError(f"self-parent at {c}")
            children[p].append(c)
        if len(roots) + len(parent) != n:  # a child outside 0..n-1
            c = next(c for c in parent if not 0 <= c < n)
            raise ValueError(f"arc ({parent[c]},{c}) out of range for n={n}")
        self.tree_id = tree_id = [-1] * n
        pre = [0] * n
        order = []
        stack = []
        for r in roots:
            stack.append(r)
            while stack:
                v = stack.pop()
                tree_id[v] = r
                pre[v] = len(order)
                order.append(v)
                stack.extend(children[v])
        if len(order) < n:  # the vertices left are on a parent cycle
            bad = [v for v in range(n) if tree_id[v] < 0]
            raise ValueError(f"cycle in parent relation through {bad}")
        size = [1] * n
        for v in reversed(order):
            if v in parent:
                size[parent[v]] += size[v]
        self._intervals = pre, [a + s for a, s in zip(pre, size)]

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
        docstring), shared by every caller, which must not mutate them."""
        return self._intervals

    def is_ancestor(self, a: int, v: int) -> bool:
        """True iff a is a proper ancestor of v."""
        pre, end = self._intervals
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


def _forward_and_cross(d: Digraph, f: OutForest) -> list[Arc]:
    """The forward and cross arcs of d relative to f, in (tail, head)
    order: the arcs inside one tree that are neither tree nor backward
    arcs.  `classify_arc`'s tests, one scan of the out-lists."""
    tree_id, parent = f.tree_id, f.parent
    pre, end = f.intervals()
    return [(u, v) for u, heads in enumerate(d.out_neighbors()) for v in heads
            if tree_id[u] == tree_id[v] and parent.get(v) != u
            and not pre[v] < pre[u] < end[v]]


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
        pre, end = f.intervals()
        for (u, v) in _forward_and_cross(d, f):
            cls = ArcClass.FORWARD if pre[u] < pre[v] < end[u] else ArcClass.CROSS
            violations.append(("forbidden-arc", ((u, v), cls.value)))
    elif kind is ForestKind.PERFECT:
        # each tree induced: every arc of d inside one tree is a tree arc
        tree_id = f.tree_id
        for u, heads in enumerate(d.out_neighbors()):
            for v in heads:
                if tree_id[u] == tree_id[v] and parent.get(v) != u:
                    violations.append(("not-induced", (u, v)))
    return VerificationReport(tuple(violations))


def extract_perfect_forest(g: UGraph, f: OutForest) -> set[Edge]:
    """Underlying edges of an almost perfect out-forest of bidirect(g).

    In a bidirected digraph an almost perfect out-forest cannot have
    backward arcs (each would come with a forbidden forward arc), so its
    trees are induced in g and the result is a perfect forest of g.

    No route calls it (`scott` reads the edges off a forest it has already
    checked); it stays public because the tests use it and
    perfbench/tracing.py wraps it by name.
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
