import random

import pytest
from hypothesis import given, settings

from conftest import digraphs, reachable, ugraphs
from outforest import (
    ConnectivityClass,
    Digraph,
    OutTree,
    UGraph,
    bidirect,
    classify,
    enumerate_digraphs,
    even_tree_to_weak,
    find_universal_root,
    format_digraph,
    format_ugraph,
    parse_digraph,
    parse_ugraph,
    sample_digraphs,
    spanning_out_tree,
    underlying_graph,
    weak_components,
)
from outforest.errors import (
    DuplicateArc,
    MalformedLine,
    NotReachable,
    OutOfRangeVertex,
    ParseError,
    SelfLoop,
)
from outforest.graphs import _parse_edge_list

TWO_CYCLE = Digraph(2, {(0, 1), (1, 0)})
PATH4 = Digraph(4, {(0, 1), (1, 2), (2, 3)})
INWARD_STAR = Digraph(4, {(1, 0), (2, 0), (3, 0)})


class TestParse:
    def test_minimal_document(self):
        assert parse_digraph("2 1\n0 1") == Digraph(2, {(0, 1)})

    def test_antiparallel_pair_is_legal(self):
        assert parse_digraph("2 2\n0 1\n1 0") == TWO_CYCLE

    def test_duplicate_arc_reports_line(self):
        with pytest.raises(DuplicateArc) as e:
            parse_digraph("2 2\n0 1\n0 1")
        assert e.value.line == 3

    def test_self_loop(self):
        with pytest.raises(SelfLoop) as e:
            parse_digraph("2 1\n1 1")
        assert e.value.line == 2

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeVertex) as e:
            parse_digraph("2 1\n0 5")
        assert e.value.line == 2

    def test_malformed(self):
        with pytest.raises(MalformedLine):
            parse_digraph("2 1\n0 1 junk")
        with pytest.raises(MalformedLine):
            parse_digraph("")
        with pytest.raises(MalformedLine):
            parse_digraph("2 3\n0 1")

    def test_comments_and_blanks_skipped(self):
        assert parse_digraph("# a digraph\n\n2 1\n# arc\n0 1") == Digraph(2, {(0, 1)})

    def test_undirected_duplicate_includes_reversed(self):
        with pytest.raises(DuplicateArc):
            parse_ugraph("2 2\n0 1\n1 0")

    @given(digraphs())
    def test_round_trip(self, d):
        assert parse_digraph(format_digraph(d)) == d

    @given(ugraphs())
    def test_ugraph_round_trip(self, g):
        # the parsed graph skips UGraph's checks, so compare it with one that ran them
        parsed = parse_ugraph(format_ugraph(g))
        assert parsed == g and hash(parsed) == hash(g)
        assert parsed.edges == UGraph(g.n, parsed.edges).edges

    def test_ugraph_reversed_pairs_normalised(self):
        assert parse_ugraph("3 2\n1 0\n2 1").edges == {(0, 1), (1, 2)}


def _line_loop_parse(text, directed):
    """Reference: the edge-list parser as one loop over the lines, each
    checked as it is read.  Returns n and the frozenset of pairs."""
    n = None
    m = None
    seen = set()
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
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise MalformedLine("expected header 'n m'", lineno) from None
            if n < 0 or m < 0:
                raise MalformedLine("negative count in header", lineno)
            header_done = True
            expected = m
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
        raise MalformedLine(
            f"declared {expected} lines, found {len(seen)}", 1
        )
    return n, frozenset(seen)


def _fuzzed_edge_list(rng):
    """A small edge list, well formed or broken in one or more of the ways
    the format allows or forbids."""
    n = rng.choice([0, 1, 2, 4, 6, 8, 12])
    m = rng.randrange(0, 6)

    def vertex(v):
        if rng.random() < 0.03:
            v = rng.randrange(-1, n + 2)
        style = rng.random()
        if style < 0.03:
            return f"+{v}"
        if style < 0.05:
            return "_".join(str(v))  # int() reads "1_0" as 10
        if style < 0.06:
            return rng.choice(["x", "1.0", "0x1", "", "٣"])
        return str(v)

    def pair_line(u, v):
        sep = rng.choice([" ", "  ", "\t", " \t "])
        line = f"{u}{sep}{v}"
        roll = rng.random()
        if roll < 0.02:
            line += " 7"  # an extra token
        elif roll < 0.04:
            line = str(u)  # a missing one
        elif roll < 0.05:
            line += "#x"
        return rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\t"])

    lines = []
    for _ in range(rng.randrange(3)):
        lines.append(rng.choice(["", "   ", "# comment", "  # 1 2", "#"]))
    roll = rng.random()
    if roll < 0.05:
        lines.append(f"{n} {m} 1")
    elif roll < 0.1:
        lines.append(f"{n}")
    elif roll < 0.13:
        lines.append(f"{n} -{m}" if m else f"-1 {m}")
    elif roll < 0.16:
        lines.append(f"n {m}")
    elif roll < 0.18:
        pass  # no header
    else:
        lines.append(rng.choice(["", "+"]) + f"{n}" + rng.choice([" ", "\t"]) + f"{m}")
    written = []
    for _ in range(max(0, m + rng.choice([0, 0, 0, 0, -1, 1, 2]))):
        if written and rng.random() < 0.1:
            u, v = rng.choice(written)
            if rng.random() < 0.5:
                u, v = v, u  # the same pair, in either orientation
        elif rng.random() < 0.03 and n:
            u = v = rng.randrange(n)
        else:
            u, v = rng.sample(range(n), 2) if n >= 2 else (0, 1)
            u, v = vertex(u), vertex(v)
        written.append((u, v))
        lines.append(pair_line(u, v))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", " ", "# between"]))
    eol = rng.choice(["\n", "\n", "\r\n", "\r"])
    return eol.join(lines) + rng.choice(["", eol])


class TestParserAgainstLineLoop:
    """The bulk parser gives what the line-by-line loop gives: the same
    n and pairs, or the same exception class, message and line number."""

    @staticmethod
    def outcome(parse, text, directed):
        try:
            return parse(text, directed)
        except ParseError as exc:
            return type(exc), str(exc), exc.line

    def test_seeded_fuzz(self):
        rng = random.Random(1511)
        kinds = set()
        for _ in range(4000):
            text = _fuzzed_edge_list(rng)
            for directed in (True, False):
                expected = self.outcome(_line_loop_parse, text, directed)
                got = self.outcome(_parse_edge_list, text, directed)
                assert got == expected, (text, directed)
                if isinstance(expected[0], type):
                    kinds.add(expected[0])
                else:
                    kinds.add("parsed")
                    assert type(got[1]) is frozenset
        # every outcome of the format occurs among the fuzzed inputs
        assert kinds == {
            "parsed", MalformedLine, OutOfRangeVertex, SelfLoop, DuplicateArc,
        }

    @pytest.mark.parametrize("text", [
        "", "   \n", "# only a comment\n", "0 0", "0 0\n\n", "3 0\n# no pairs",
        "2 1\r\n0 1\r\n", "3 2\n\t2\t1 \n+0 1_0\n", "3 2\n2 1\n1 2\n",
    ])
    def test_edge_cases(self, text):
        for directed in (True, False):
            assert (self.outcome(_parse_edge_list, text, directed)
                    == self.outcome(_line_loop_parse, text, directed))


class TestAdjacency:
    def test_views_built_once(self):
        d = Digraph(3, {(2, 0), (0, 1), (0, 2), (1, 0)})
        for view in (d.out_neighbors, d.in_neighbors, d.sorted_arcs):
            assert view() is view()
        assert d.out_neighbors() == [[1, 2], [0], [0]]
        assert d.in_neighbors() == [[1, 2], [0], [0]]
        assert d.sorted_arcs() == [(0, 1), (0, 2), (1, 0), (2, 0)]

    @given(digraphs())
    def test_views_match_arcs(self, d):
        assert d.out_neighbors() == [
            sorted(v for (u, v) in d.arcs if u == x) for x in range(d.n)
        ]
        assert d.in_neighbors() == [
            sorted(u for (u, v) in d.arcs if v == x) for x in range(d.n)
        ]
        assert d.sorted_arcs() == sorted(d.arcs)

    def test_views_not_part_of_equality(self):
        d = Digraph(2, {(0, 1)})
        d.out_neighbors()
        assert d == Digraph(2, {(0, 1)}) and hash(d) == hash(Digraph(2, {(0, 1)}))


class TestUnderlyingAndBidirect:
    def test_two_cycle_collapses(self):
        assert underlying_graph(TWO_CYCLE) == UGraph(2, {(0, 1)})

    def test_arcless(self):
        assert underlying_graph(Digraph(3, set())) == UGraph(3, set())

    def test_path(self):
        assert underlying_graph(PATH4) == UGraph(4, {(0, 1), (1, 2), (2, 3)})

    def test_single_edge(self):
        assert bidirect(UGraph(2, {(0, 1)})) == TWO_CYCLE

    def test_triangle(self):
        d = bidirect(UGraph(3, {(0, 1), (1, 2), (0, 2)}))
        assert len(d.arcs) == 6

    @given(ugraphs())
    def test_round_trip_identity(self, g):
        assert underlying_graph(bidirect(g)) == g


class TestCheckedConstructors:
    """`parse_digraph` and `bidirect` build their digraphs without the
    checks of `Digraph.__post_init__`, and `bidirect` hands over g's
    adjacency as the out-lists: each must equal a checked build."""

    @staticmethod
    def assert_same_as_checked_build(d):
        checked = Digraph(d.n, set(d.arcs))
        assert d == checked and type(d.arcs) is frozenset
        assert d.out_neighbors() == checked.out_neighbors()
        assert d.in_neighbors() == checked.in_neighbors()
        assert d.sorted_arcs() == checked.sorted_arcs()

    @given(ugraphs())
    def test_bidirect(self, g):
        d = bidirect(g)
        self.assert_same_as_checked_build(d)
        assert d.arcs == {a for (u, v) in g.edges for a in ((u, v), (v, u))}

    @given(digraphs())
    def test_parse_digraph(self, d):
        self.assert_same_as_checked_build(parse_digraph(format_digraph(d)))


class TestClassify:
    def test_two_cycle(self):
        assert classify(TWO_CYCLE) is ConnectivityClass.STRONGLY_CONNECTED_EVEN

    def test_path(self):
        assert classify(PATH4) is ConnectivityClass.SINGLE_INITIAL_EVEN

    def test_inward_star(self):
        assert classify(INWARD_STAR) is ConnectivityClass.CONNECTED_EVEN

    def test_odd_and_disconnected(self):
        assert classify(Digraph(3, {(0, 1), (1, 2)})) is ConnectivityClass.CONNECTED_ODD
        assert classify(Digraph(4, {(0, 1)})) is ConnectivityClass.DISCONNECTED

    @given(digraphs(max_n=6))
    @settings(max_examples=200)
    def test_agrees_with_pairwise_reachability(self, d):
        strong = all(
            v in reachable(d, u) for u in range(d.n) for v in range(d.n)
        )
        label = classify(d)
        assert (label is ConnectivityClass.STRONGLY_CONNECTED_EVEN) == (
            strong and d.n % 2 == 0 and underlying_graph(d).is_connected()
        )
        # single-initial iff some vertex reaches everything (connected, even)
        universal = any(len(reachable(d, u)) == d.n for u in range(d.n))
        if label is ConnectivityClass.SINGLE_INITIAL_EVEN:
            assert universal and not strong


class TestConnectivitySpec:
    """classify and find_universal_root against their definitions, by
    plain BFS, on every digraph of order 0-4 and on sparse seeded digraphs
    of orders 5-40."""

    @staticmethod
    def check(d) -> ConnectivityClass:
        n = d.n
        universal = [u for u in range(n) if len(reachable(d, u)) == n]
        assert find_universal_root(d) == min(universal, default=None), d
        both_ways = Digraph(n, d.arcs | {(v, u) for (u, v) in d.arcs})
        if n == 0 or len(reachable(both_ways, 0)) < n:
            expected = ConnectivityClass.DISCONNECTED
        elif n % 2:
            expected = ConnectivityClass.CONNECTED_ODD
        elif len(universal) == n:
            expected = ConnectivityClass.STRONGLY_CONNECTED_EVEN
        elif universal:
            expected = ConnectivityClass.SINGLE_INITIAL_EVEN
        else:
            expected = ConnectivityClass.CONNECTED_EVEN
        assert classify(d) is expected, d
        return expected

    @pytest.mark.parametrize("n", range(5))
    def test_exhaustive(self, n):
        for d in enumerate_digraphs(n):
            self.check(d)

    def test_seeded_beyond_exhaustive_orders(self):
        # sparse arcs give many strong components; every label must occur,
        # so the sample cannot drift into one easy class
        labels = set()
        for n in (5, 6, 9, 14, 20, 29, 40):
            for p in (0.02, 0.05, 0.1, 0.2):
                for d in sample_digraphs(n, 40, seed=n, arc_probability=p):
                    labels.add(self.check(d))
                    TestWeakComponents.check(d)
        assert labels == set(ConnectivityClass)


class TestWeakComponents:
    """weak_components against the underlying graph: the same connectivity
    verdict, a partition of the vertices, and no arc between parts."""

    @staticmethod
    def check(d):
        comps = weak_components(d)
        assert (len(comps) <= 1) == underlying_graph(d).is_connected(), d
        assert sorted(v for comp in comps for v in comp) == list(range(d.n))
        assert [comp[0] for comp in comps] == [min(comp) for comp in comps]
        part = {v: i for i, comp in enumerate(comps) for v in comp}
        assert all(part[u] == part[v] for (u, v) in d.arcs), d

    @pytest.mark.parametrize("n", range(5))
    def test_exhaustive(self, n):
        for d in enumerate_digraphs(n):
            self.check(d)

    def test_seeded(self):
        for n in (6, 9, 12):
            for p in (0.05, 0.1, 0.2):
                for d in sample_digraphs(n, 100, seed=n, arc_probability=p):
                    self.check(d)


class TestSpanningOutTree:
    def test_path_unique(self):
        t = spanning_out_tree(PATH4, 0)
        assert t.root == 0 and t.parent == {1: 0, 2: 1, 3: 2}

    def test_two_cycle(self):
        t = spanning_out_tree(TWO_CYCLE, 0)
        assert t.parent == {1: 0}

    def test_biorientation_of_k4(self):
        k4 = bidirect(UGraph(4, {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))
        t = spanning_out_tree(k4, 2)
        assert t.root == 2
        assert len(t.parent) == 3
        assert t.arcs() <= k4.arcs

    def test_unreachable(self):
        with pytest.raises(NotReachable) as e:
            spanning_out_tree(Digraph(3, {(0, 1)}), 0)
        assert e.value.vertex == 2

    @given(digraphs(min_n=1, max_n=6))
    @settings(max_examples=200)
    def test_invariants_when_reachable(self, d):
        if len(reachable(d, 0)) != d.n:
            return
        t = spanning_out_tree(d, 0)
        assert t.vertices() == set(range(d.n))
        assert len(t.arcs()) == d.n - 1
        assert t.arcs() <= d.arcs


class TestOutTree:
    def test_cycle_off_the_root_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            OutTree(3, 0, {1: 2, 2: 1})

    def test_parent_outside_tree_rejected(self):
        with pytest.raises(ValueError, match="not a tree vertex"):
            OutTree(4, 0, {1: 0, 2: 3})

    def test_walk_kept_from_the_acyclicity_check(self):
        t = OutTree(5, 0, {3: 0, 1: 3, 4: 0, 2: 4})
        assert t.bfs_order() is t.bfs_order()
        assert t.bfs_order() == [0, 3, 4, 1, 2]
        assert t == OutTree(5, 0, {3: 0, 1: 3, 4: 0, 2: 4})
        assert repr(t) == "OutTree(n=5, root=0, parent={3: 0, 1: 3, 4: 0, 2: 4})"

    def test_long_path_split(self):
        n = 5000
        path = Digraph(n, {(i, i + 1) for i in range(n - 1)})
        f = even_tree_to_weak(spanning_out_tree(path, 0))
        assert f.arcs() == {(2 * i, 2 * i + 1) for i in range(n // 2)}


class TestUniversalRoot:
    def test_path(self):
        assert find_universal_root(PATH4) == 0

    def test_inward_star(self):
        assert find_universal_root(INWARD_STAR) is None

    def test_two_cycle(self):
        assert find_universal_root(TWO_CYCLE) in (0, 1)

    @given(digraphs(max_n=6))
    @settings(max_examples=200)
    def test_root_reaches_everything(self, d):
        r = find_universal_root(d)
        if r is not None:
            assert len(reachable(d, r)) == d.n
