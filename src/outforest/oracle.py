"""Exponential-time ground truth: forest search by parent-assignment
enumeration, exact matching by branch-and-bound, digraph/graph enumeration
and seeded sampling, and a brute-force 3DM solver.

These exist to be obviously correct on small instances, not fast.  The
forest search prunes only branches that provably hold no answer, and
still checks every forest it returns against the definition.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import BudgetExceeded
from .forests import ForestKind, OutForest, verify
from .graphs import ConnectivityClass, Digraph, UGraph, classify
from .hardness import ThreeDMInstance, Triple
from .matching import Matching


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 10
    max_states: int = 10**8
    time_limit: float | None = None  # seconds

    def __post_init__(self):
        if self.max_vertices <= 0 or self.max_states <= 0:
            raise ValueError("budget values must be positive")


def oracle_forest(
    d: Digraph, kind: ForestKind, budget: OracleBudget = OracleBudget()
) -> OutForest | None:
    """First spanning out-forest of the requested kind in enumeration
    order, or None.

    Search space: vertices 0..n-1 are assigned in turn, each to root or
    to a parent (root first, then in-neighbors ascending).  A parent
    that already descends from the vertex would close a directed cycle
    and is skipped.  Each tree of the partial assignment is kept as one
    bitmask: its assigned vertices together with their parents still to
    be assigned.

    Three prunes cut a branch only when no leaf below it can pass, so
    the first forest found is the one the plain enumeration finds:

    - Induced (Perfect): every arc of d inside a tree must be a tree arc.
      Trees only grow and an assigned vertex keeps its parent, so a
      violation is permanent.  It can only appear when two trees merge
      or when the arc's head is assigned, and both happen at the vertex
      just assigned.  So only that vertex's tree is checked, one AND per
      assigned vertex in it.  The same check cuts a violation that is
      already certain: an arc into the tree's unassigned top t from
      inside the tree.  t's parent cannot lie in t's tree (that would
      close a cycle) and the arc's tail stays in it, so the arc can
      never become a tree arc.  Such an arc can only enter the tree by
      a merge, so one AND at the vertex just assigned finds it.
    - Parity (all kinds but Even): every degree must be odd.  A vertex's
      forest degree is final once it and all its out-neighbors (its only
      possible children) are assigned, and it is checked at exactly that
      step.
    - Closed tree (Even): every tree must have even order.  A tree with
      an assigned root grows only when a later vertex takes a parent in
      it, so once no later vertex has an in-neighbor in it its order is
      final, and an odd one is cut.  After the last vertex every tree is
      closed.

    Every leaf is still checked against the definition with `verify`.
    For Perfect, Weak perfect and Even the prunes are complete, so every
    leaf reached passes; Almost perfect leaves can still fail on a
    forbidden arc.  `max_states` counts the same events as the unpruned
    enumeration (one per candidate tried), of which fewer now occur.
    """
    n = d.n
    if n > budget.max_vertices:
        raise BudgetExceeded(
            f"n={n} exceeds budget max_vertices={budget.max_vertices}"
        )
    deadline = (
        time.monotonic() + budget.time_limit if budget.time_limit else None
    )
    in_nbrs = d.in_neighbors()
    candidates = [[None] + in_nbrs[v] for v in range(n)]
    in_mask = [sum(1 << a for a in in_nbrs[v]) for v in range(n)]
    induced = kind is ForestKind.PERFECT
    even = kind is ForestKind.EVEN
    # later_in[v]: the vertices with an arc to some vertex after v
    later_in = [0] * n
    for v in range(n - 2, -1, -1):
        later_in[v] = later_in[v + 1] | in_mask[v + 1]
    # finishing[v]: the vertices whose degree is final once v is assigned
    finishing: list[list[int]] = [[] for _ in range(n)]
    if kind is not ForestKind.EVEN:
        for w, outs in enumerate(d.out_neighbors()):
            finishing[max([w, *outs])].append(w)
    parent: list[int | None] = [None] * n
    children = [0] * n
    # stray[b]: in-neighbors of an assigned b that must not share its tree
    stray = [0] * n
    # tree[t]: the tree whose top is t, a root or a vertex not yet
    # assigned; vertices below v are the assigned ones
    tree = [1 << v for v in range(n)]
    states = 0

    def pruned(v: int, top: int, merged: int) -> bool:
        for w in finishing[v]:
            if (children[w] + (parent[w] is not None)) % 2 == 0:
                return True
        if induced:
            if top > v and in_mask[top] & merged:
                return True  # an arc into the unassigned top, from its tree
            members = merged & ((2 << v) - 1)  # its vertices 0..v
            while members:
                low = members & -members
                if stray[low.bit_length() - 1] & merged:
                    return True
                members ^= low
        if even:
            later = later_in[v]
            for r in range(v + 1):
                if parent[r] is None and not tree[r] & later:
                    if tree[r].bit_count() % 2:
                        return True  # a closed tree of odd order
        return False

    def search(v: int) -> OutForest | None:
        nonlocal states
        if v == n:
            f = OutForest(n, {c: p for c, p in enumerate(parent) if p is not None})
            if verify(d, f, kind).passed:
                return f
            return None
        for cand in candidates[v]:
            states += 1
            if states > budget.max_states:
                raise BudgetExceeded(f"enumeration exceeded {budget.max_states} states")
            if deadline is not None and states % 4096 == 0:
                if time.monotonic() > deadline:
                    raise BudgetExceeded("enumeration exceeded the time limit")
            if cand is None:
                top = v
                stray[v] = in_mask[v]
            else:
                if (tree[v] >> cand) & 1:
                    continue  # cand descends from v: the arc closes a cycle
                top = cand
                while top < v and parent[top] is not None:
                    top = parent[top]
                stray[v] = in_mask[v] & ~(1 << cand)
                children[cand] += 1
            parent[v] = cand
            saved = tree[top]
            tree[top] = merged = saved | tree[v]
            if not pruned(v, top, merged):
                found = search(v + 1)
                if found is not None:
                    return found
            tree[top] = saved
            parent[v] = None
            if cand is not None:
                children[cand] -= 1
        return None

    return search(0)


def oracle_matching(g: UGraph, budget: OracleBudget = OracleBudget()) -> Matching:
    """Exact maximum matching by branch-and-bound over the lowest
    uncovered vertex: leave it exposed, or match it to each free
    neighbor, in that order; the first strictly larger option wins.

    The memo holds one size per mask of covered vertices.  The edges are
    read back from the empty mask: the option the search kept is the
    first one, in the same order, whose memoised size reaches the best.
    """
    n = g.n
    if n > budget.max_vertices:
        raise BudgetExceeded(
            f"n={n} exceeds budget max_vertices={budget.max_vertices}"
        )
    adj = g.adjacency()
    nbrs = [sum(1 << w for w in ws) for ws in adj]
    full = (1 << n) - 1
    states = 0
    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        nonlocal states
        states += 1
        if states > budget.max_states:
            raise BudgetExceeded(f"enumeration exceeded {budget.max_states} states")
        hit = memo.get(mask)
        if hit is not None:
            return hit
        result = 0
        if mask != full:
            v = (mask + 1) & ~mask  # the lowest uncovered vertex, as a bit
            # leave v exposed, then match it to each free neighbor ascending
            result = best(mask | v)
            free = nbrs[v.bit_length() - 1] & ~mask
            while free:
                w = free & -free
                size = best(mask | v | w) + 1
                if size > result:
                    result = size
                free ^= w
        memo[mask] = result
        return result

    size = best(0)
    edges = []
    mask = 0
    # every mask reached here was memoised while computing best(0)
    while size:
        v = ((mask + 1) & ~mask).bit_length() - 1
        mask |= 1 << v
        if memo[mask] == size:
            continue  # v left exposed
        w = next(
            w for w in adj[v]
            if not (mask >> w) & 1 and memo[mask | (1 << w)] == size - 1
        )
        edges.append((v, w))
        mask |= 1 << w
        size -= 1
    return Matching(frozenset(edges))


# ---------------------------------------------------------------------------
# enumeration / sampling


def _class_ok(d: Digraph, classes) -> bool:
    return classes is None or classify(d) in classes


def enumerate_digraphs(
    n: int, classes: Iterable[ConnectivityClass] | None = None
) -> Iterator[Digraph]:
    """All 2^(n(n-1)) digraphs on n vertices, in arc-subset order,
    optionally filtered by connectivity class.  Exhaustive use is meant
    for n <= 4."""
    classes = frozenset(classes) if classes is not None else None
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(slots)):
        arcs = frozenset(a for i, a in enumerate(slots) if (mask >> i) & 1)
        d = Digraph(n, arcs)
        if _class_ok(d, classes):
            yield d


def sample_digraphs(
    n: int,
    count: int,
    seed: int,
    classes: Iterable[ConnectivityClass] | None = None,
    arc_probability: float = 0.5,
) -> Iterator[Digraph]:
    """Seeded rejection sampler; the stream is identical across runs for
    the same seed."""
    classes = frozenset(classes) if classes is not None else None
    rng = random.Random(seed)
    slots = [(u, v) for u in range(n) for v in range(n) if u != v]
    produced = 0
    while produced < count:
        arcs = frozenset(a for a in slots if rng.random() < arc_probability)
        d = Digraph(n, arcs)
        if _class_ok(d, classes):
            produced += 1
            yield d


def enumerate_ugraphs(n: int, connected: bool | None = None) -> Iterator[UGraph]:
    """All 2^C(n,2) undirected graphs on n vertices, edge-subset order."""
    # every slot is an in-range (u, v) pair with u < v
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(slots)):
        edges = frozenset(e for i, e in enumerate(slots) if (mask >> i) & 1)
        g = UGraph._normalised(n, edges)
        if connected is None or g.is_connected() == connected:
            yield g


def sample_ugraphs(
    n: int,
    count: int,
    seed: int,
    connected: bool | None = None,
    edge_probability: float = 0.5,
) -> Iterator[UGraph]:
    rng = random.Random(seed)
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    produced = 0
    while produced < count:
        edges = frozenset(e for e in slots if rng.random() < edge_probability)
        g = UGraph._normalised(n, edges)
        if connected is None or g.is_connected() == connected:
            produced += 1
            yield g


# ---------------------------------------------------------------------------
# 3DM ground truth


def brute_force_3dm(inst: ThreeDMInstance) -> set[Triple] | None:
    """First perfect 3-dimensional matching in lexicographic triple-subset
    order, or None."""
    triples = sorted(inst.triples)
    for combo in itertools.combinations(triples, inst.k):
        cover1 = {t[0] for t in combo}
        cover2 = {t[1] for t in combo}
        cover3 = {t[2] for t in combo}
        if (
            len(cover1) == inst.k
            and len(cover2) == inst.k
            and len(cover3) == inst.k
        ):
            return set(combo)
    return None
