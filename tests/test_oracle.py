import gc
import itertools

import pytest

from outforest import (
    ConnectivityClass,
    Digraph,
    ForestKind,
    Matching,
    OracleBudget,
    OutForest,
    ThreeDMInstance,
    UGraph,
    classify,
    decide_weak,
    enumerate_digraphs,
    enumerate_ugraphs,
    oracle,
    oracle_forest,
    oracle_matching,
    reduce_3dm,
    sample_digraphs,
    sample_ugraphs,
    verify,
)
from outforest.errors import BudgetExceeded

TWO_CYCLE = Digraph(2, {(0, 1), (1, 0)})
KINDS = tuple(ForestKind)


def _reference_oracle_forest(d, kind, budget=OracleBudget()):
    """Reference: the search that oracle_forest's incremental prunes
    replaced.  Same enumeration order; the Perfect prune rebuilds the tree
    labels and rescans every arc at every state, and every leaf is built
    and verified."""
    n = d.n
    in_nbrs = d.in_neighbors()
    candidates = [[None] + in_nbrs[v] for v in range(n)]
    arcs = d.sorted_arcs()
    parent = [None] * n
    assigned = [False] * n
    induced_prune = kind is ForestKind.PERFECT

    def creates_cycle(v, p):
        x = p
        while x is not None:
            if x == v:
                return True
            x = parent[x] if assigned[x] else None
        return False

    def comp_labels():
        lab = list(range(n))

        def find(x):
            while lab[x] != x:
                lab[x] = lab[lab[x]]
                x = lab[x]
            return x

        for v in range(n):
            if assigned[v] and parent[v] is not None:
                lab[find(v)] = find(parent[v])
        return [find(v) for v in lab]

    def induced_violation():
        lab = comp_labels()
        for (a, b) in arcs:
            if lab[a] == lab[b] and assigned[b] and parent[b] != a:
                return True
        return False

    def search(v):
        if v == n:
            f = OutForest(n, {i: p for i, p in enumerate(parent) if p is not None})
            if verify(d, f, kind).passed:
                return f
            return None
        for cand in candidates[v]:
            if cand is not None and creates_cycle(v, cand):
                continue
            parent[v] = cand
            assigned[v] = True
            if not (induced_prune and induced_violation()):
                found = search(v + 1)
                if found is not None:
                    return found
            assigned[v] = False
            parent[v] = None
        return None

    return search(0)


def _reference_oracle_matching(g):
    """Reference: the matching oracle that memoised an edge set per mask."""
    n = g.n
    adj = g.adjacency()
    memo = {}

    def best(mask):
        hit = memo.get(mask)
        if hit is not None:
            return hit
        v = 0
        while v < n and (mask >> v) & 1:
            v += 1
        if v >= n:
            result = (0, frozenset())
        else:
            result = best(mask | (1 << v))
            for w in adj[v]:
                if not (mask >> w) & 1:
                    size, edges = best(mask | (1 << v) | (1 << w))
                    if size + 1 > result[0]:
                        result = (size + 1, edges | {(v, w)})
        memo[mask] = result
        return result

    return Matching(best(0)[1])


def _criterion_4_digraphs():
    """The 154 reduced digraphs of acceptance criterion 4."""
    all_triples = list(itertools.product(range(2), repeat=3))
    for m in (2, 3, 4):
        for combo in itertools.combinations(all_triples, m):
            yield reduce_3dm(ThreeDMInstance(2, combo))[0]


def _small_digraphs():
    for n in range(5):
        yield from enumerate_digraphs(n)


def _sampled_digraphs():
    for n, count in ((5, 200), (6, 100), (7, 15), (8, 30)):
        yield from sample_digraphs(n, count, seed=60 + n, arc_probability=0.4)


class TestOracleForest:
    def test_two_cycle(self):
        assert oracle_forest(TWO_CYCLE, ForestKind.PERFECT) is None
        f = oracle_forest(TWO_CYCLE, ForestKind.WEAK_PERFECT)
        assert f is not None and f.arcs() == {(0, 1)}

    def test_inward_star_even_empty(self):
        star = Digraph(4, {(1, 0), (2, 0), (3, 0)})
        assert oracle_forest(star, ForestKind.EVEN) is None

    def test_claw_perfect(self):
        claw = Digraph(4, {(0, 1), (0, 2), (0, 3)})
        f = oracle_forest(claw, ForestKind.PERFECT)
        assert f is not None and f.arcs() == claw.arcs

    def test_budget_vertices(self):
        with pytest.raises(BudgetExceeded):
            oracle_forest(TWO_CYCLE, ForestKind.EVEN, OracleBudget(max_vertices=1))

    def test_budget_states(self):
        d = Digraph(6, frozenset((u, v) for u in range(6) for v in range(6) if u != v))
        with pytest.raises(BudgetExceeded):
            oracle_forest(d, ForestKind.PERFECT, OracleBudget(max_states=10))

    def test_deterministic(self):
        d = Digraph(4, {(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)})
        assert oracle_forest(d, ForestKind.EVEN) == oracle_forest(d, ForestKind.EVEN)

    def test_agrees_with_decide_weak_on_samples(self):
        budget = OracleBudget(max_vertices=8)
        for d in sample_digraphs(6, 50, seed=41):
            assert (decide_weak(d) is None) == (
                oracle_forest(d, ForestKind.WEAK_PERFECT, budget) is None
            )


class TestIncrementalSearch:
    """oracle_forest against the reference search it replaced."""

    BUDGET = OracleBudget(max_vertices=12)

    def _same(self, digraphs, kinds):
        for d in digraphs:
            for kind in kinds:
                expected = _reference_oracle_forest(d, kind)
                assert oracle_forest(d, kind, self.BUDGET) == expected, (d, kind)

    def test_equal_on_every_digraph_up_to_order_4(self):
        self._same(_small_digraphs(), KINDS)

    def test_equal_on_samples_of_orders_5_to_8(self):
        self._same(_sampled_digraphs(), KINDS)

    def test_equal_on_criterion_4_reductions(self):
        digraphs = list(_criterion_4_digraphs())
        assert len(digraphs) == 154
        self._same(digraphs, (ForestKind.PERFECT,))

    def test_equal_on_odd_order_7_samples(self):
        """No forest of either kind exists at odd order, so the search
        must exhaust the space; the even kind has only its closed-tree
        prune to do that with."""
        digraphs = list(sample_digraphs(7, 40, seed=1, arc_probability=0.4))
        self._same(digraphs, (ForestKind.EVEN, ForestKind.WEAK_PERFECT))

    def test_criterion_4_reductions_within_a_small_state_budget(self):
        """An arc into the unassigned top of a tree, from inside it, cuts
        the branch at once: every reduction is decided in a few thousand
        states (tens of thousands without that prune)."""
        budget = OracleBudget(max_vertices=12, max_states=5_000)
        for d in _criterion_4_digraphs():
            oracle_forest(d, ForestKind.PERFECT, budget)

    @pytest.mark.parametrize(
        "kind", [ForestKind.PERFECT, ForestKind.WEAK_PERFECT, ForestKind.EVEN]
    )
    def test_every_leaf_reached_passes(self, kind, monkeypatch):
        """The prunes are complete for these kinds: verify runs once per
        forest found and never when there is none."""
        calls = []

        def counting_verify(d, f, k):
            calls.append(f)
            return verify(d, f, k)

        monkeypatch.setattr(oracle, "verify", counting_verify)
        digraphs = itertools.chain(
            _small_digraphs(), sample_digraphs(8, 40, seed=68),
            _criterion_4_digraphs() if kind is ForestKind.PERFECT else (),
        )
        for d in digraphs:
            calls.clear()
            f = oracle_forest(d, kind, self.BUDGET)
            assert calls == ([] if f is None else [f]), (d, kind)


class TestOracleMatching:
    def test_triangle(self):
        assert len(oracle_matching(UGraph(3, {(0, 1), (1, 2), (0, 2)}))) == 1

    def test_six_cycle(self):
        g = UGraph(6, {(i, (i + 1) % 6) for i in range(6)})
        assert len(oracle_matching(g)) == 3

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            oracle_matching(UGraph(11, set()), OracleBudget(max_vertices=10))

    def test_edges_equal_reference_up_to_order_6(self):
        for n in range(7):
            for g in enumerate_ugraphs(n):
                assert oracle_matching(g) == _reference_oracle_matching(g), g

    def test_edges_equal_reference_on_samples_of_orders_7_to_12(self):
        budget = OracleBudget(max_vertices=12)
        for n in range(7, 13):
            for g in sample_ugraphs(n, 60, seed=70 + n):
                assert oracle_matching(g, budget) == _reference_oracle_matching(g), g


class TestNoReferenceCycles:
    """The searches leave no cyclic garbage: with the cyclic collector
    off, refcounting frees everything a call made, after a result and
    after BudgetExceeded alike."""

    def test_collector_finds_nothing(self):
        d = next(sample_digraphs(8, 1, seed=3))
        g = next(sample_ugraphs(10, 1, seed=3))
        forest_budget = OracleBudget(max_vertices=8)
        matching_budget = OracleBudget(max_vertices=10)
        tight = OracleBudget(max_vertices=10, max_states=5)
        gc.collect()
        gc.disable()
        try:
            for kind in KINDS:
                oracle_forest(d, kind, forest_budget)
                assert gc.collect() == 0, kind
            oracle_matching(g, matching_budget)
            assert gc.collect() == 0
            for run in (lambda: oracle_forest(d, ForestKind.PERFECT, tight),
                        lambda: oracle_matching(g, tight)):
                try:
                    run()
                except BudgetExceeded:
                    pass
                else:
                    raise AssertionError("the state budget was not exceeded")
                assert gc.collect() == 0
        finally:
            gc.enable()


class TestEnumeration:
    def test_n2_exhaustive_counts(self):
        digraphs = list(enumerate_digraphs(2))
        assert len(digraphs) == 4
        strong = [
            d
            for d in digraphs
            if classify(d) is ConnectivityClass.STRONGLY_CONNECTED_EVEN
        ]
        assert strong == [TWO_CYCLE]
        single_initial = [
            d
            for d in digraphs
            if classify(d) is ConnectivityClass.SINGLE_INITIAL_EVEN
        ]
        assert sorted(len(d.arcs) for d in single_initial) == [1, 1]

    def test_filter_definition(self):
        for d in enumerate_digraphs(
            3, classes={ConnectivityClass.CONNECTED_ODD}
        ):
            assert d.n % 2 == 1
        count = 0
        for d in enumerate_digraphs(4):
            count += 1
        assert count == 2**12

    def test_seeded_sample_deterministic(self):
        a = list(sample_digraphs(8, 10, seed=99))
        b = list(sample_digraphs(8, 10, seed=99))
        assert a == b
        assert a != list(sample_digraphs(8, 10, seed=100))
