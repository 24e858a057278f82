import itertools
import random

import pytest
from hypothesis import given, settings

from conftest import check_perfect_out_forest_directly, digraphs, out_forests
from outforest import (
    ArcClass,
    Digraph,
    ForestKind,
    OutForest,
    UGraph,
    bidirect,
    classify_arc,
    extract_perfect_forest,
    format_forest,
    parse_forest,
    verify,
)
from outforest.errors import ArcNotInDigraph, NotAlmostPerfect

TWO_CYCLE = Digraph(2, {(0, 1), (1, 0)})


class TestOutForest:
    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            OutForest(2, {0: 1, 1: 0})

    def test_caches(self):
        f = OutForest(5, {1: 0, 2: 1, 4: 3})
        assert f.roots == [0, 3]
        assert f.tree_id == [0, 0, 0, 3, 3]
        assert f.trees() == {0: [0, 1, 2], 3: [3, 4]}

    def test_serialization_round_trip(self):
        f = OutForest(4, {1: 0, 3: 2})
        assert parse_forest(format_forest(f)) == f


class TestClassifyArc:
    def test_backward_to_root(self):
        d = Digraph(3, {(0, 1), (1, 2), (2, 0)})
        f = OutForest(3, {1: 0, 2: 1})
        assert classify_arc(d, f, (2, 0)) is ArcClass.BACKWARD

    def test_forward(self):
        d = Digraph(3, {(0, 1), (1, 2), (0, 2)})
        f = OutForest(3, {1: 0, 2: 1})
        assert classify_arc(d, f, (0, 2)) is ArcClass.FORWARD

    def test_inter_tree(self):
        d = Digraph(4, {(0, 1), (2, 3), (1, 2)})
        f = OutForest(4, {1: 0, 3: 2})
        assert classify_arc(d, f, (1, 2)) is ArcClass.INTER_TREE

    def test_tree_and_cross(self):
        d = Digraph(4, {(0, 1), (0, 2), (2, 3), (1, 3), (1, 2)})
        f = OutForest(4, {1: 0, 2: 0, 3: 2})
        assert classify_arc(d, f, (0, 1)) is ArcClass.TREE
        assert classify_arc(d, f, (1, 3)) is ArcClass.CROSS
        assert classify_arc(d, f, (1, 2)) is ArcClass.CROSS

    def test_arc_not_in_digraph(self):
        with pytest.raises(ArcNotInDigraph):
            classify_arc(TWO_CYCLE, OutForest(2, {1: 0}), (0, 0))

    @given(digraphs(max_n=6), out_forests(max_n=6))
    @settings(max_examples=300)
    def test_counts_sum_to_arc_count(self, d, f):
        if d.n != f.n:
            return
        counts = {cls: 0 for cls in ArcClass}
        for arc in d.arcs:
            counts[classify_arc(d, f, arc)] += 1
        assert sum(counts.values()) == len(d.arcs)


def _walk_ancestors(parent: dict[int, int], v: int) -> list[int]:
    """Proper ancestors of v, nearest first, by walking parent pointers."""
    out = []
    while v in parent:
        v = parent[v]
        out.append(v)
    return out


def _walk_class(parent: dict[int, int], arc) -> ArcClass:
    """The arc taxonomy from its definition, by parent-pointer walks only."""
    u, v = arc
    if parent.get(v) == u:
        return ArcClass.TREE
    above_u, above_v = _walk_ancestors(parent, u), _walk_ancestors(parent, v)
    if (above_u or [u])[-1] != (above_v or [v])[-1]:
        return ArcClass.INTER_TREE
    if v in above_u:
        return ArcClass.BACKWARD
    if u in above_v:
        return ArcClass.FORWARD
    return ArcClass.CROSS


def _walk_almost_violations(d: Digraph, n: int, parent: dict[int, int]):
    """What verify(ALMOST_PERFECT) must report, rule by rule and in order."""
    violations = [("arc-not-in-host", (p, c))
                  for (p, c) in sorted((p, c) for c, p in parent.items())
                  if (p, c) not in d.arcs]
    for v in range(n):
        deg = sum(1 for p in parent.values() if p == v) + (v in parent)
        if deg % 2 == 0:
            violations.append(("even-degree", (v, deg)))
    for arc in sorted(d.arcs):
        cls = _walk_class(parent, arc)
        if cls in (ArcClass.FORWARD, ArcClass.CROSS):
            violations.append(("forbidden-arc", (arc, cls.value)))
    return tuple(violations)


def _walk_perfect_violations(d: Digraph, n: int, parent: dict[int, int]):
    """What verify(PERFECT) must report: the rules before the arc scan as
    for ALMOST_PERFECT, then every arc inside one tree that is not a tree
    arc, in ascending order."""
    head = [v for v in _walk_almost_violations(d, n, parent) if v[0] != "forbidden-arc"]
    inside = (ArcClass.BACKWARD, ArcClass.FORWARD, ArcClass.CROSS)
    return tuple(head + [("not-induced", arc) for arc in sorted(d.arcs)
                         if _walk_class(parent, arc) in inside])


def _all_forests(n: int):
    """Every labelled rooted forest on 0..n-1, as a parent map: every
    parent choice whose walks all reach a root in fewer than n steps."""
    for choice in itertools.product(*[[None, *(p for p in range(n) if p != c)]
                                      for c in range(n)]):
        parent = {c: p for c, p in enumerate(choice) if p is not None}
        if all(_reaches_root(parent, v, n) for v in range(n)):
            yield parent


def _reaches_root(parent, v, steps):
    for _ in range(steps):
        if v not in parent:
            return True
        v = parent[v]
    return False


def _seeded_forests(rng: random.Random, count: int, max_n: int):
    """Random forests of orders 1..max_n: each vertex, in a random order,
    is a root or hangs below an earlier one; deep and shallow alike."""
    for _ in range(count):
        n = rng.randint(1, max_n)
        order = rng.sample(range(n), n)
        chain = rng.random() < 0.3  # mostly long paths
        parent = {}
        for i, v in enumerate(order[1:], start=1):
            if rng.random() < 0.1:
                continue
            j = i - 1 if chain and rng.random() < 0.8 else rng.randrange(i)
            parent[v] = order[j]
        yield n, parent


def _random_host(rng: random.Random, n: int, parent: dict[int, int]) -> Digraph:
    """A digraph holding most of the forest's arcs and some others."""
    keep = rng.random()
    arcs = {(p, c) for c, p in parent.items() if rng.random() < 0.5 + keep / 2}
    arcs |= {(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < 3 / (n + 1)}
    return Digraph(n, frozenset(arcs))


class TestAncestryAgainstWalks:
    """The forest's constructor walk and the verifier's arc scans against
    parent-pointer walks, which share no code with them."""

    @staticmethod
    def check(n, parent, hosts):
        f = OutForest(n, parent)
        assert f.children == [sorted(c for c, p in parent.items() if p == v)
                              for v in range(n)], parent
        assert f.roots == [v for v in range(n) if v not in parent], parent
        assert f.tree_id == [(_walk_ancestors(parent, v) or [v])[-1]
                             for v in range(n)], parent
        for a in range(n):
            for v in range(n):
                assert f.is_ancestor(a, v) == (a in _walk_ancestors(parent, v)), (
                    parent, a, v)
        complete = Digraph(n, frozenset(
            (u, v) for u in range(n) for v in range(n) if u != v))
        for arc in complete.arcs:
            assert classify_arc(complete, f, arc) is _walk_class(parent, arc), (
                parent, arc)
        for d in (complete, *hosts):
            assert verify(d, f, ForestKind.ALMOST_PERFECT).violations == (
                _walk_almost_violations(d, n, parent)), (parent, sorted(d.arcs))
            assert verify(d, f, ForestKind.PERFECT).violations == (
                _walk_perfect_violations(d, n, parent)), (parent, sorted(d.arcs))

    @pytest.mark.parametrize("n", range(6))
    def test_every_forest_of_small_order(self, n):
        rng = random.Random(n)
        count = 0
        for parent in _all_forests(n):
            self.check(n, parent, [_random_host(rng, n, parent)])
            count += 1
        assert count == (n + 1) ** max(n - 1, 0)  # Cayley: 1 296 at order 5

    def test_seeded_forests_up_to_order_40(self):
        rng = random.Random(16)
        for n, parent in _seeded_forests(rng, 400, 40):
            self.check(n, parent, [_random_host(rng, n, parent) for _ in range(2)])

    def test_intervals_cached_on_the_forest(self):
        f = OutForest(5, {1: 0, 2: 1, 4: 3})
        assert f.intervals() is f.intervals()


class TestVerify:
    def test_two_cycle_perfect_fails_induced(self):
        f = OutForest(2, {1: 0})
        report = verify(TWO_CYCLE, f, ForestKind.PERFECT)
        assert not report.passed
        assert ("not-induced", (1, 0)) in report.violations

    def test_two_cycle_almost_passes(self):
        f = OutForest(2, {1: 0})
        assert verify(TWO_CYCLE, f, ForestKind.ALMOST_PERFECT).passed

    def test_path_pairs_weak_and_even(self):
        d = Digraph(4, {(0, 1), (1, 2), (2, 3)})
        f = OutForest(4, {1: 0, 3: 2})
        assert verify(d, f, ForestKind.WEAK_PERFECT).passed
        assert verify(d, f, ForestKind.EVEN).passed

    def test_singleton_tree_fails_weak_and_even(self):
        d = Digraph(3, {(0, 1)})
        f = OutForest(3, {1: 0})
        weak = verify(d, f, ForestKind.WEAK_PERFECT)
        assert ("even-degree", (2, 0)) in weak.violations
        even = verify(d, f, ForestKind.EVEN)
        assert ("odd-order-tree", (2, 1)) in even.violations

    def test_arc_not_in_host(self):
        d = Digraph(2, set())
        f = OutForest(2, {1: 0})
        report = verify(d, f, ForestKind.EVEN)
        assert ("arc-not-in-host", (0, 1)) in report.violations

    def test_report_json(self):
        import json

        report = verify(TWO_CYCLE, OutForest(2, {1: 0}), ForestKind.PERFECT)
        payload = json.loads(report.to_json())
        assert payload["verdict"] == "fail"
        assert payload["violations"][0]["rule"] == "not-induced"

    @given(digraphs(max_n=6), out_forests(max_n=6))
    @settings(max_examples=300)
    def test_implication_chain(self, d, f):
        if d.n != f.n:
            return
        verdicts = {
            kind: verify(d, f, kind).passed
            for kind in (
                ForestKind.PERFECT,
                ForestKind.ALMOST_PERFECT,
                ForestKind.WEAK_PERFECT,
                ForestKind.EVEN,
            )
        }
        if verdicts[ForestKind.PERFECT]:
            assert verdicts[ForestKind.ALMOST_PERFECT]
        if verdicts[ForestKind.ALMOST_PERFECT]:
            assert verdicts[ForestKind.WEAK_PERFECT]
        if verdicts[ForestKind.WEAK_PERFECT]:
            assert verdicts[ForestKind.EVEN]

    @given(digraphs(max_n=6), out_forests(max_n=6))
    @settings(max_examples=300)
    def test_weak_bounds_tree_and_arc_counts(self, d, f):
        if d.n != f.n or d.n == 0:
            return
        if verify(d, f, ForestKind.WEAK_PERFECT).passed:
            assert len(f.roots) <= d.n // 2
            assert len(f.arcs()) >= d.n // 2

    @given(digraphs(max_n=5), out_forests(max_n=5))
    @settings(max_examples=400)
    def test_perfect_agrees_with_independent_check(self, d, f):
        if d.n != f.n:
            return
        assert verify(d, f, ForestKind.PERFECT).passed == (
            check_perfect_out_forest_directly(d, f)
        )


class TestExtractPerfectForest:
    def test_single_edge(self):
        g = UGraph(2, {(0, 1)})
        assert extract_perfect_forest(g, OutForest(2, {1: 0})) == {(0, 1)}

    def test_path_matching(self):
        g = UGraph(4, {(0, 1), (1, 2), (2, 3)})
        f = OutForest(4, {1: 0, 3: 2})
        assert extract_perfect_forest(g, f) == {(0, 1), (2, 3)}

    def test_rejects_non_almost_perfect(self):
        g = UGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
        # the 4-path forest leaves (0,3)/(3,0) as inter-tree arcs, fine;
        # a single spanning path tree has even inner degrees and fails
        bad = OutForest(4, {1: 0, 2: 1, 3: 2})
        with pytest.raises(NotAlmostPerfect):
            extract_perfect_forest(g, bad)

    def test_bidirected_backward_arcs_only_reverse_tree_arcs(self):
        # in a bidirected digraph a backward arc deeper than the parent
        # would make its reverse a forbidden forward arc, so the only
        # backward arcs of an almost perfect out-forest are reverses of
        # tree arcs; that keeps every tree induced in the source graph
        from outforest import construct_for_single_initial

        g = UGraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
        d = bidirect(g)
        f = construct_for_single_initial(d)
        for (u, v) in d.arcs:
            if classify_arc(d, f, (u, v)) is ArcClass.BACKWARD:
                assert classify_arc(d, f, (v, u)) is ArcClass.TREE
        assert extract_perfect_forest(g, f) <= g.edges
