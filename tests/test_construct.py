import itertools
import random

import pytest
from hypothesis import given, settings

from conftest import check_undirected_perfect_forest, even_spanning_out_trees
from outforest import (
    ArcClass,
    ArcSet,
    ConnectivityClass,
    Digraph,
    ForestKind,
    Matching,
    OracleBudget,
    OutForest,
    OutTree,
    UGraph,
    VerificationReport,
    bidirect,
    build_gadget,
    classify_arc,
    construct_for_single_initial,
    decide_weak,
    enumerate_digraphs,
    even_tree_to_weak,
    find_universal_root,
    forest_to_matching,
    gadget_forest,
    matching_to_arcset,
    maximum_matching,
    oracle_forest,
    perfect_forest_undirected,
    remove_cycles,
    sample_digraphs,
    spanning_out_tree,
    verify,
    weak_to_almost,
)
from outforest import construct
from outforest.errors import (
    InvariantError,
    NotPerfectMatching,
    NotWeakPerfect,
    OddOrder,
    WrongClass,
)

TWO_CYCLE = Digraph(2, {(0, 1), (1, 0)})
PATH4 = Digraph(4, {(0, 1), (1, 2), (2, 3)})
# decide_weak on this digraph yields a forest with a cross arc, forcing
# weak_to_almost to perform at least one swap (found by exhaustive search
# at n = 4)
SWAP_WITNESS = Digraph(4, {(0, 1), (1, 2), (0, 2), (0, 3)})


class TestBuildGadget:
    def test_two_cycle_collapse(self):
        g, c = build_gadget(TWO_CYCLE)
        assert g.n == 2
        assert g.edges == frozenset({(0, 1)})
        assert c.y(0) == 0 and c.y(1) == 1
        assert c.internal_pairs(0) == []

    def test_path_counts(self):
        g, c = build_gadget(PATH4)
        assert g.n == 12
        internal = {e for u in range(4) for e in c.internal_pairs(u)}
        assert len(internal) == 4
        assert len(g.edges) == 13

    def test_arcless_even_digraph_has_no_perfect_matching(self):
        g, _ = build_gadget(Digraph(2, set()))
        assert g.n == 2 and not g.edges
        assert decide_weak(Digraph(2, set())) is None

    def test_odd_order_rejected(self):
        with pytest.raises(OddOrder):
            build_gadget(Digraph(3, {(0, 1)}))

    def test_blocks_disjoint_and_sized(self):
        _, c = build_gadget(PATH4)
        blocks = [set(c.block(u)) for u in range(4)]
        assert all(len(b) == 3 for b in blocks)
        assert len(set().union(*blocks)) == 12


class TestBoundedGadget:
    def test_blocks_sized_by_out_degree(self):
        digraphs = itertools.chain(
            enumerate_digraphs(4),
            sample_digraphs(6, 200, seed=31, arc_probability=0.3),
            sample_digraphs(8, 200, seed=37, arc_probability=0.3),
        )
        for d in digraphs:
            g, c = build_gadget(d, bounded=True)
            assert g.n == c.size <= d.n + len(d.arcs)
            outdeg = [sum(1 for (u, _) in d.arcs if u == v) for v in range(d.n)]
            assert [len(c.block(u)) for u in range(d.n)] == [
                2 * (k // 2) + 1 for k in outdeg
            ]
            assert all(c.source_of(x) == u for u in range(d.n) for x in c.block(u))

    def test_path_sidecar_offsets(self):
        g, c = build_gadget(PATH4, bounded=True)
        assert g.n == 4 and g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert c.format_sidecar() == (
            "block 0 0 1 0\nblock 1 1 1 1\nblock 2 2 1 2\nblock 3 3 1 3\n"
        )

    def test_uneven_blocks(self):
        d = Digraph(4, {(0, 1), (0, 2), (0, 3), (1, 0), (1, 2)})
        g, c = build_gadget(d, bounded=True)
        assert [c.y(u) for u in range(4)] == [0, 3, 6, 7]
        assert c.internal_pairs(0) == [(1, 2)] and c.internal_pairs(1) == [(4, 5)]
        assert c.internal_pairs(2) == [] and g.n == 8

    def test_even_block_rejected(self):
        with pytest.raises(ValueError):
            construct.GadgetCorrespondence((0, 1, 3))


class TestMatchingToArcset:
    def test_two_cycle_orientation_rule(self):
        _, c = build_gadget(TWO_CYCLE)
        arcset = matching_to_arcset(TWO_CYCLE, Matching(frozenset({(0, 1)})), c)
        assert arcset.arcs == frozenset({(0, 1)})  # min tail -> max head

    def test_path_full_matching(self):
        g, c = build_gadget(PATH4)
        m = maximum_matching(g)
        assert 2 * len(m) == g.n
        arcset = matching_to_arcset(PATH4, m, c)
        assert arcset.arcs <= PATH4.arcs

    def test_rejects_imperfect_matching(self):
        _, c = build_gadget(PATH4)
        with pytest.raises(NotPerfectMatching):
            matching_to_arcset(PATH4, Matching(frozenset()), c)


class TestRemoveCycles:
    def test_cycle_with_pendants(self):
        d = Digraph(6, {(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)})
        arcset = ArcSet(6, d.arcs)
        f = remove_cycles(arcset)
        assert f.arcs() == {(0, 3), (1, 4), (2, 5)}
        assert verify(d, f, ForestKind.WEAK_PERFECT).passed

    def test_acyclic_fixed_point(self):
        arcset = ArcSet(4, {(0, 1), (2, 3)})
        assert remove_cycles(arcset).arcs() == {(0, 1), (2, 3)}

    def test_even_degree_rejected(self):
        with pytest.raises(ValueError):
            remove_cycles(ArcSet(2, {(0, 1), (1, 0)}))


class TestForestToMatching:
    def test_two_cycle(self):
        _, c = build_gadget(TWO_CYCLE)
        m = forest_to_matching(TWO_CYCLE, OutForest(2, {1: 0}), c)
        assert m.edges == frozenset({(0, 1)})

    def test_path_round_trip(self):
        _, c = build_gadget(PATH4)
        f = OutForest(4, {1: 0, 3: 2})
        m = forest_to_matching(PATH4, f, c)
        assert len(m) == 6  # k(2k-1) with k=2
        back = remove_cycles(matching_to_arcset(PATH4, m, c))
        assert verify(PATH4, back, ForestKind.WEAK_PERFECT).passed

    def test_rejects_non_weak(self):
        _, c = build_gadget(PATH4)
        with pytest.raises(NotWeakPerfect):
            forest_to_matching(PATH4, OutForest(4, {1: 0, 2: 1, 3: 2}), c)

    @settings(max_examples=60, deadline=None)
    @given(even_spanning_out_trees(min_n=2, max_n=8))
    def test_matching_size_is_half_gadget(self, t):
        d = Digraph(t.n, frozenset(t.arcs()))
        f = decide_weak(d)
        if f is None:
            return
        g, c = build_gadget(d)
        m = forest_to_matching(d, f, c)
        assert 2 * len(m) == g.n


def _round_trip(d, f, bounded):
    """forest -> gadget matching -> arc set -> forest on one layout;
    returns the arc set read back from the matching."""
    g, c = build_gadget(d, bounded=bounded)
    m = forest_to_matching(d, f, c)
    assert m.edges <= g.edges
    assert 2 * len(m) == g.n
    arcset = matching_to_arcset(d, m, c)
    assert arcset.arcs <= d.arcs and len(arcset.arcs) == len(f.arcs())
    assert verify(d, remove_cycles(arcset), ForestKind.WEAK_PERFECT).passed
    return arcset


class TestRoundTripBothLayouts:
    @pytest.mark.parametrize("bounded", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(t=even_spanning_out_trees(min_n=2, max_n=10))
    def test_tree_forests(self, bounded, t):
        d = Digraph(t.n, frozenset(t.arcs()))
        _round_trip(d, even_tree_to_weak(t), bounded)

    @pytest.mark.parametrize("bounded", [False, True])
    def test_seeded_digraphs(self, bounded):
        checked = 0
        for n in (4, 6, 8):
            for d in sample_digraphs(n, 150, seed=50 + n, arc_probability=0.3):
                f = decide_weak(d)
                if f is None:
                    continue
                _round_trip(d, f, bounded)
                _round_trip(d, weak_to_almost(d, f), bounded)
                checked += 1
        assert checked > 300

    def test_layouts_read_back_the_same_arcs(self):
        for d in sample_digraphs(8, 100, seed=59, arc_probability=0.3):
            f = decide_weak(d)
            if f is not None:
                assert _round_trip(d, f, False) == _round_trip(d, f, True)


def _decide_uniform(d):
    """Gadget decision on the paper's uniform layout."""
    g, c = build_gadget(d)
    m = maximum_matching(g)
    if 2 * len(m) != g.n:
        return None
    return remove_cycles(matching_to_arcset(d, m, c))


class TestBoundedDecider:
    def test_agrees_with_uniform_layout_and_oracle(self):
        budget = OracleBudget(max_vertices=8)
        digraphs = itertools.chain(
            enumerate_digraphs(4),
            sample_digraphs(6, 2000, seed=61, arc_probability=0.2),
            sample_digraphs(8, 2000, seed=67, arc_probability=0.2),
        )
        checked = found = 0
        disagreements = []
        for d in digraphs:
            checked += 1
            f = decide_weak(d)
            uniform = _decide_uniform(d)
            oracle = oracle_forest(d, ForestKind.WEAK_PERFECT, budget)
            if not (f is None) == (uniform is None) == (oracle is None):
                disagreements.append(d)
            elif f is not None:
                found += 1
                if not verify(d, f, ForestKind.WEAK_PERFECT).passed:
                    disagreements.append(d)
        assert checked == 4096 + 2 * 2000
        assert 0 < found < checked
        assert disagreements == []

    def test_failed_check_raises_package_error(self, monkeypatch):
        monkeypatch.setattr(
            construct,
            "verify",
            lambda d, f, kind: VerificationReport((("even-degree", (0,)),)),
        )
        with pytest.raises(InvariantError):
            decide_weak(TWO_CYCLE)


class TestDecideWeak:
    def test_inward_star_empty(self):
        assert decide_weak(Digraph(4, {(1, 0), (2, 0), (3, 0)})) is None

    def test_two_cycle(self):
        f = decide_weak(TWO_CYCLE)
        assert f is not None and f.arcs() in ({(0, 1)}, {(1, 0)})

    def test_odd_order_empty(self):
        assert decide_weak(Digraph(5, {(0, 1), (1, 2), (2, 3), (3, 4)})) is None

    def test_accepts_disconnected(self):
        d = Digraph(4, {(0, 1), (2, 3)})
        f = decide_weak(d)
        assert f is not None
        assert verify(d, f, ForestKind.WEAK_PERFECT).passed


def _no_gadget(d):
    raise AssertionError(f"gadget built for {d}")


class TestDispatch:
    def test_single_initial_takes_the_tree_route(self, monkeypatch):
        monkeypatch.setattr(construct, "gadget_forest", _no_gadget)
        checked = 0
        for d in enumerate_digraphs(4):
            root = find_universal_root(d)
            if root is None:
                continue
            f = decide_weak(d)
            assert f == even_tree_to_weak(spanning_out_tree(d, root)), d
            checked += 1
        assert checked == 1606 + 2008


class TestGadgetRoute:
    """gadget_forest called directly, single-initial digraphs included,
    since decide_weak sends those to the tree route; every forest it reads
    back is also sent through the matching conversion on both layouts."""

    def test_agrees_with_oracle_and_tree_route(self):
        budget = OracleBudget(max_vertices=8)
        digraphs = itertools.chain(
            enumerate_digraphs(4),
            sample_digraphs(6, 2000, seed=61, arc_probability=0.2),
            sample_digraphs(8, 2000, seed=67, arc_probability=0.2),
        )
        single = multi = found = 0
        for d in digraphs:
            f = gadget_forest(d)
            oracle = oracle_forest(d, ForestKind.WEAK_PERFECT, budget)
            assert (f is None) == (oracle is None), d
            if f is not None:
                found += 1
                assert verify(d, f, ForestKind.WEAK_PERFECT).passed, d
                _round_trip(d, f, False)
                _round_trip(d, f, True)
            if find_universal_root(d) is None:
                multi += 1
                assert decide_weak(d) == f, d
            else:
                single += 1
                assert f is not None and decide_weak(d) is not None, d
        assert single + multi == 4096 + 2 * 2000
        assert single > 1000 and multi > 1000 and found - single > 100


class TestEvenTreeToWeak:
    def test_order_two_identity(self):
        t = OutTree(2, 0, {1: 0})
        assert even_tree_to_weak(t).arcs() == {(0, 1)}

    def test_path_tree_trace(self):
        t = OutTree(4, 0, {1: 0, 2: 1, 3: 2})
        assert even_tree_to_weak(t).arcs() == {(0, 1), (2, 3)}

    def test_star_tree_trace(self):
        t = OutTree(4, 0, {1: 0, 2: 0, 3: 0})
        f = even_tree_to_weak(t)
        assert f.arcs() == {(0, 1), (0, 2), (0, 3)}
        assert [f.degree(v) for v in range(4)] == [3, 1, 1, 1]

    def test_odd_order_rejected(self):
        with pytest.raises(OddOrder):
            even_tree_to_weak(OutTree(3, 0, {1: 0, 2: 0}))

    @settings(max_examples=150, deadline=None)
    @given(even_spanning_out_trees(min_n=2, max_n=12))
    def test_output_weak_perfect_within_tree(self, t):
        f = even_tree_to_weak(t)
        assert f.arcs() <= t.arcs()
        host = Digraph(t.n, frozenset(t.arcs()))
        assert verify(host, f, ForestKind.WEAK_PERFECT).passed

    def test_unique_odd_split_brute_force(self):
        rng = random.Random(31)
        for trial in range(300):
            order = rng.choice([2, 4, 6, 8, 10])
            n = order + (rng.randint(1, 4) if trial % 2 else 0)
            verts = rng.sample(range(n), order)
            parent = {v: verts[rng.randrange(i)] for i, v in enumerate(verts) if i}
            t = OutTree(n, verts[0], parent)
            tree_arcs = sorted(t.arcs())
            odd_splits = []
            for k in range(len(tree_arcs) + 1):
                for subset in itertools.combinations(tree_arcs, k):
                    deg = dict.fromkeys(verts, 0)
                    for (p, c) in subset:
                        deg[p] += 1
                        deg[c] += 1
                    if all(x % 2 for x in deg.values()):
                        odd_splits.append(set(subset))
            f = even_tree_to_weak(t)
            assert odd_splits == [f.arcs()], t
            assert set(f.roots) >= set(range(n)) - set(verts)


def _rescanning_weak_to_almost(d, f):
    """Reference: the rescanning loop that weak_to_almost's single pass
    replaced.  After every swap it searches again from the first arc.
    Returns the forest and the number of swaps."""
    forbidden = (ArcClass.FORWARD, ArcClass.CROSS)
    arcs = sorted(d.arcs)
    for swaps in range(d.n + 1):
        swap = next((a for a in arcs if classify_arc(d, f, a) in forbidden), None)
        if swap is None:
            return f, swaps
        u, v = swap
        parent = dict(f.parent)
        depth = {}
        for x in range(f.n):
            y, steps = x, 0
            while y in f.parent:
                y, steps = f.parent[y], steps + 1
            depth[x] = steps
        a, b = u, v
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            del parent[a]
            a = f.parent[a]
        parent[v] = u
        f = OutForest(f.n, parent)
    raise AssertionError("reference swap loop did not terminate")


class TestWeakToAlmost:
    def test_already_almost_unchanged(self):
        d = Digraph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
        f = OutForest(4, {1: 0, 3: 2})
        assert weak_to_almost(d, f) == f

    def test_swap_witness(self):
        f = decide_weak(SWAP_WITNESS)
        assert f is not None
        assert any(
            classify_arc(SWAP_WITNESS, f, a)
            in (ArcClass.FORWARD, ArcClass.CROSS)
            for a in SWAP_WITNESS.arcs
        )
        f2 = weak_to_almost(SWAP_WITNESS, f)
        assert len(f2.arcs()) < len(f.arcs()) or f2 != f
        assert verify(SWAP_WITNESS, f2, ForestKind.ALMOST_PERFECT).passed

    def test_rejects_non_weak(self):
        with pytest.raises(NotWeakPerfect):
            weak_to_almost(PATH4, OutForest(4, {1: 0, 2: 1, 3: 2}))

    def test_swap_pass_fault_raises(self, monkeypatch):
        f = decide_weak(SWAP_WITNESS)
        # the final forest loses the swaps: the postcondition must catch it
        monkeypatch.setattr(construct, "OutForest", lambda n, parent: f)
        with pytest.raises(InvariantError):
            weak_to_almost(SWAP_WITNESS, f)

    def test_pass_builds_one_forest(self, monkeypatch):
        # the star needs two swaps, (1,2) and (3,4)
        g = UGraph(6, {(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (3, 4)})
        star = OutForest(6, {v: 0 for v in range(1, 6)})
        built = []

        def counting_forest(n, parent):
            built.append(n)
            return OutForest(n, parent)

        monkeypatch.setattr(construct, "OutForest", counting_forest)
        f = weak_to_almost(bidirect(g), star)
        assert f == OutForest(6, {2: 1, 4: 3, 5: 0})
        assert len(built) == 1

    def test_single_pass_matches_rescanning_loop(self):
        rng = random.Random(41)
        pairs = swapped = 0
        while pairs < 2000:  # gadget forests, orders 4-12
            n = rng.randrange(4, 13, 2)
            slots = [(u, v) for u in range(n) for v in range(n) if u != v]
            d = Digraph(n, frozenset(a for a in slots if rng.random() < 0.5))
            f = decide_weak(d)
            if f is None:
                continue
            expected, swaps = _rescanning_weak_to_almost(d, f)
            assert weak_to_almost(d, f) == expected, d
            pairs += 1
            swapped += swaps > 0
        for trial in range(2400):  # tree-split forests, orders 2-40
            n = rng.randrange(2, 41, 2)
            arcs = {(rng.randrange(i), i) for i in range(1, n)}
            arcs |= {(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < 2 / n}
            if trial % 3 == 0:
                arcs |= {(v, u) for (u, v) in arcs}
            perm = rng.sample(range(n), n)
            d = Digraph(n, frozenset((perm[u], perm[v]) for (u, v) in arcs))
            f = even_tree_to_weak(spanning_out_tree(d, find_universal_root(d)))
            expected, swaps = _rescanning_weak_to_almost(d, f)
            assert weak_to_almost(d, f) == expected, d
            pairs += 1
            swapped += swaps > 0
        assert 2 * swapped >= pairs, (swapped, pairs)

    def test_arc_count_never_increases(self):
        for d in sample_digraphs(6, 30, seed=17):
            f = decide_weak(d)
            if f is None:
                continue
            f2 = weak_to_almost(d, f)
            assert len(f2.arcs()) <= len(f.arcs())
            assert verify(d, f2, ForestKind.ALMOST_PERFECT).passed


class TestConstructForSingleInitial:
    def test_two_cycle(self):
        f = construct_for_single_initial(TWO_CYCLE)
        assert verify(TWO_CYCLE, f, ForestKind.ALMOST_PERFECT).passed

    def test_path(self):
        f = construct_for_single_initial(PATH4)
        assert f.arcs() == {(0, 1), (2, 3)}

    def test_wrong_class_rejected(self):
        with pytest.raises(WrongClass):
            construct_for_single_initial(Digraph(4, {(1, 0), (2, 0), (3, 0)}))
        with pytest.raises(WrongClass):
            construct_for_single_initial(Digraph(3, {(0, 1), (1, 2)}))


class TestPerfectForestUndirected:
    def test_single_edge(self):
        assert perfect_forest_undirected(UGraph(2, {(0, 1)})) == {(0, 1)}

    def test_odd_order_empty(self):
        assert perfect_forest_undirected(UGraph(3, {(0, 1), (1, 2)})) is None

    def test_disconnected_empty(self):
        assert perfect_forest_undirected(UGraph(4, {(0, 1)})) is None

    def test_small_connected_graphs_certified(self):
        from outforest import sample_ugraphs

        for g in sample_ugraphs(8, 40, seed=23, connected=True):
            edges = perfect_forest_undirected(g)
            assert edges is not None
            assert check_undirected_perfect_forest(g, edges)


class TestExistenceEquivalence:
    def test_three_kinds_agree_on_samples(self):
        budget = OracleBudget(max_vertices=8)
        connected_even = {
            ConnectivityClass.STRONGLY_CONNECTED_EVEN,
            ConnectivityClass.SINGLE_INITIAL_EVEN,
            ConnectivityClass.CONNECTED_EVEN,
        }
        for d in sample_digraphs(6, 40, seed=29, classes=connected_even):
            answers = {
                kind: oracle_forest(d, kind, budget) is not None
                for kind in (
                    ForestKind.ALMOST_PERFECT,
                    ForestKind.WEAK_PERFECT,
                    ForestKind.EVEN,
                )
            }
            assert len(set(answers.values())) == 1, (d, answers)
