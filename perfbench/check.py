"""Independent checkers and ground truth for the benchmark.

Nothing here imports `outforest`: every verdict and witness the program
returns is checked against definitions written out from scratch, and every
expected verdict that the construction of an instance does not fix comes
from the brute force below.

Each checker returns None when the witness is valid, else a one-line
reason.
"""

from __future__ import annotations

import itertools
from collections import deque


def _forest_structure(n, arcs, parent):
    """Common part of the out-forest checks: parent map in range, arcs in
    the host, acyclic.  Returns (reason, children, root_of)."""
    children = [[] for _ in range(n)]
    for c, p in parent.items():
        if not (0 <= c < n and 0 <= p < n) or c == p:
            return f"parent arc ({p},{c}) out of range", None, None
        if (p, c) not in arcs:
            return f"forest arc ({p},{c}) is not an arc of the digraph", None, None
        children[p].append(c)
    root_of = [-1] * n
    for r in range(n):
        if r in parent:
            continue
        root_of[r] = r
        stack = [r]
        while stack:
            v = stack.pop()
            for c in children[v]:
                root_of[c] = r
                stack.append(c)
    if -1 in root_of:
        return f"vertex {root_of.index(-1)} lies on a parent cycle", None, None
    return None, children, root_of


def check_out_forest(n, arcs, parent, kind):
    """Check a spanning out-forest, given as {child: parent}, of the digraph
    (n, arcs) against the definition of `kind`: "weak" (odd underlying
    degree everywhere), "almost" (also no forward or cross arc) or
    "perfect" (also every tree induced)."""
    arcs = set(arcs)
    reason, children, root_of = _forest_structure(n, arcs, parent)
    if reason:
        return reason
    for v in range(n):
        deg = len(children[v]) + (v in parent)
        if deg % 2 == 0:
            return f"vertex {v} has even degree {deg}"
    if kind == "weak":
        return None
    if kind == "perfect":
        for (u, v) in sorted(arcs):
            if root_of[u] == root_of[v] and parent.get(v) != u:
                return f"arc ({u},{v}) inside a tree is not a tree arc"
        return None
    if kind != "almost":
        raise ValueError(f"unknown forest kind {kind!r}")
    # DFS entry/exit numbers: a is an ancestor of v iff pre[a] <= pre[v]
    # and post[v] <= post[a]
    pre, post, clock = [0] * n, [0] * n, 0
    for r in range(n):
        if r in parent:
            continue
        stack = [(r, False)]
        while stack:
            v, done = stack.pop()
            clock += 1
            if done:
                post[v] = clock
                continue
            pre[v] = clock
            stack.append((v, True))
            stack.extend((c, False) for c in children[v])
    for (u, v) in sorted(arcs):
        if root_of[u] != root_of[v] or parent.get(v) == u:
            continue
        v_above_u = pre[v] <= pre[u] and post[u] <= post[v]
        if not v_above_u:
            u_above_v = pre[u] <= pre[v] and post[v] <= post[u]
            return f"arc ({u},{v}) is a {'forward' if u_above_v else 'cross'} arc"
    return None


def check_perfect_forest(n, edges, forest):
    """Check that `forest` (a list of undirected edges) is a perfect forest
    of the graph (n, edges): a spanning forest with every degree odd whose
    trees are induced subgraphs."""
    edges = {(min(u, v), max(u, v)) for (u, v) in edges}
    fset = set()
    adj = [[] for _ in range(n)]
    for (u, v) in forest:
        e = (min(u, v), max(u, v))
        if e not in edges:
            return f"forest edge {e} is not an edge of the graph"
        if e in fset:
            return f"forest edge {e} listed twice"
        fset.add(e)
        adj[u].append(v)
        adj[v].append(u)
    for v in range(n):
        if len(adj[v]) % 2 == 0:
            return f"vertex {v} has even degree {len(adj[v])}"
    comp = [-1] * n
    components = 0
    for s in range(n):
        if comp[s] != -1:
            continue
        comp[s] = s
        components += 1
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if comp[w] == -1:
                    comp[w] = s
                    queue.append(w)
    if len(fset) != n - components:
        return "forest edges contain a cycle"
    for (u, v) in sorted(edges):
        if comp[u] == comp[v] and (u, v) not in fset:
            return f"edge ({u},{v}) inside a tree is not a forest edge"
    return None


def check_matching(n, edges, matching):
    """Check that `matching` is a set of pairwise disjoint edges of the
    graph (n, edges)."""
    edges = {(min(u, v), max(u, v)) for (u, v) in edges}
    covered = set()
    for (u, v) in matching:
        if (min(u, v), max(u, v)) not in edges:
            return f"matching edge ({u},{v}) is not an edge of the graph"
        if u in covered or v in covered:
            return f"matching edge ({u},{v}) shares an endpoint"
        covered.update((u, v))
    return None


def check_3dm_solution(k, triples, solution):
    """Check that `solution` is a perfect 3-dimensional matching: k triples
    of the instance covering every class exactly once."""
    triples = {tuple(t) for t in triples}
    sol = [tuple(t) for t in solution]
    if len(sol) != k or len(set(sol)) != k:
        return f"expected {k} distinct triples, got {sol}"
    if any(t not in triples for t in sol):
        return f"solution {sol} uses a triple outside the instance"
    for cls in range(3):
        if sorted(t[cls] for t in sol) != list(range(k)):
            return f"class {cls + 1} is not covered exactly once"
    return None


# ---------------------------------------------------------------------------
# ground truth


def brute_3dm(k, triples):
    """Whether the instance has a perfect 3-dimensional matching."""
    return any(
        check_3dm_solution(k, triples, combo) is None
        for combo in itertools.combinations(triples, k)
    )


def max_matching_size(n, edges):
    """Maximum matching size by a memoised recursion over the bitmask of
    vertices already decided (lowest undecided vertex first)."""
    nbr = [0] * n
    for (u, v) in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    full = (1 << n) - 1
    memo = {full: 0}

    def best(done):
        if done in memo:
            return memo[done]
        v = (~done & (done + 1)).bit_length() - 1
        res = best(done | (1 << v))
        free = nbr[v] & ~done
        while free:
            w = (free & -free).bit_length() - 1
            free &= free - 1
            res = max(res, 1 + best(done | (1 << v) | (1 << w)))
        memo[done] = res
        return res

    return best(0)


def forest_existence(n, arcs):
    """(weak, perfect): whether the digraph has a weak perfect and a
    perfect out-forest, by partitioning the vertex set.

    Every tree of such a forest has even order (its degrees are odd and
    sum to an even number).  A perfect out-forest is a partition into even
    sets S whose induced arcs form an out-tree with odd degrees.  A weak
    perfect out-forest exists iff there is a partition into even sets S
    whose induced subdigraph has a spanning out-tree: any even out-tree
    splits into a weak perfect out-forest on its own arcs (the paper's
    even-tree lemma), and the converse is immediate.  Meant for n <= 12.
    """
    out = [0] * n
    for (u, v) in arcs:
        out[u] |= 1 << v

    def spans_from_some_root(s):
        for r in range(n):
            if not (s >> r) & 1:
                continue
            seen, frontier = 1 << r, 1 << r
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                new = out[v] & s & ~seen
                seen |= new
                frontier |= new
            if seen == s:
                return True
        return False

    def odd_induced_out_tree(s):
        verts = [v for v in range(n) if (s >> v) & 1]
        inner = [(u, v) for u in verts for v in verts if (out[u] >> v) & 1]
        if len(inner) != len(verts) - 1:
            return False
        indeg = {v: 0 for v in verts}
        deg = {v: 0 for v in verts}
        for (u, v) in inner:
            indeg[v] += 1
            deg[u] += 1
            deg[v] += 1
        if sorted(indeg.values()) != [0] + [1] * (len(verts) - 1):
            return False
        if any(d % 2 == 0 for d in deg.values()):
            return False
        return spans_from_some_root(s)

    even_sets = [s for s in range(1, 1 << n) if bin(s).count("1") % 2 == 0]
    weak_sets = [s for s in even_sets if spans_from_some_root(s)]
    perfect_sets = [s for s in weak_sets if odd_induced_out_tree(s)]

    def partitions(blocks):
        memo = {0: True}

        def can(rest):
            if rest in memo:
                return memo[rest]
            low = rest & -rest
            memo[rest] = any(
                b & low and b & rest == b and can(rest & ~b) for b in blocks
            )
            return memo[rest]

        return can((1 << n) - 1)

    return partitions(weak_sets), partitions(perfect_sets)
