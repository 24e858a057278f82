"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest -s tests/test_acceptance.py` to see them live).

Everything here is certified against the brute-force oracles or the
independent checkers in conftest, never against the code under test.
"""

import itertools
import random

from conftest import check_undirected_perfect_forest
from outforest import (
    ConnectivityClass,
    Digraph,
    ForestKind,
    OracleBudget,
    OutTree,
    UGraph,
    ThreeDMInstance,
    brute_force_3dm,
    classify,
    construct_for_single_initial,
    decide_weak,
    embed_solution,
    enumerate_digraphs,
    enumerate_ugraphs,
    extract_solution,
    even_tree_to_weak,
    maximum_matching,
    oracle_forest,
    oracle_matching,
    perfect_forest_undirected,
    reduce_3dm,
    sample_digraphs,
    sample_ugraphs,
    verify,
    weak_to_almost,
)
from outforest.cli import run

CONNECTED_EVEN = {
    ConnectivityClass.STRONGLY_CONNECTED_EVEN,
    ConnectivityClass.SINGLE_INITIAL_EVEN,
    ConnectivityClass.CONNECTED_EVEN,
}
SINGLE_INITIAL = {
    ConnectivityClass.STRONGLY_CONNECTED_EVEN,
    ConnectivityClass.SINGLE_INITIAL_EVEN,
}


def _report(number: int, name: str, ok: bool):
    print(f"criterion {number} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_almost_perfect_always_exists():
    failures = 0
    strong = {ConnectivityClass.STRONGLY_CONNECTED_EVEN}
    checked = 0
    for d in enumerate_digraphs(4, classes=strong):
        f = construct_for_single_initial(d)
        if not verify(d, f, ForestKind.ALMOST_PERFECT).passed:
            failures += 1
        checked += 1
    for n in (6, 8):
        for d in sample_digraphs(n, 500, seed=100 + n, classes=strong):
            f = construct_for_single_initial(d)
            if not verify(d, f, ForestKind.ALMOST_PERFECT).passed:
                failures += 1
            checked += 1
    assert checked == 1606 + 1000
    _report(1, "almost perfect always exists on D^st", failures == 0)


def test_criterion_2_three_kinds_equivalent():
    budget = OracleBudget(max_vertices=8)
    kinds = (ForestKind.ALMOST_PERFECT, ForestKind.WEAK_PERFECT, ForestKind.EVEN)
    discrepancies = 0

    def check(d):
        answers = {oracle_forest(d, k, budget) is not None for k in kinds}
        return len(answers) == 1

    for d in enumerate_digraphs(4, classes=CONNECTED_EVEN):
        if not check(d):
            discrepancies += 1
    for d in sample_digraphs(6, 500, seed=2, classes=CONNECTED_EVEN):
        if not check(d):
            discrepancies += 1
    _report(2, "almost/weak/even existence coincide", discrepancies == 0)


def test_criterion_3_decide_weak_matches_oracle():
    budget = OracleBudget(max_vertices=8)
    discrepancies = 0

    def check(d):
        f = decide_weak(d)
        o = oracle_forest(d, ForestKind.WEAK_PERFECT, budget)
        if (f is None) != (o is None):
            return False
        if f is not None and not verify(d, f, ForestKind.WEAK_PERFECT).passed:
            return False
        return True

    for d in enumerate_digraphs(4):
        if classify(d) is ConnectivityClass.DISCONNECTED:
            continue
        if not check(d):
            discrepancies += 1
    for d in sample_digraphs(6, 300, seed=3, classes=CONNECTED_EVEN):
        if not check(d):
            discrepancies += 1
    _report(3, "gadget decision equals brute force", discrepancies == 0)


def test_criterion_4_hardness_reduction_iff():
    budget = OracleBudget(max_vertices=12)
    all_triples = list(itertools.product(range(2), repeat=3))
    discrepancies = 0
    checked = 0
    for m in (2, 3, 4):
        for combo in itertools.combinations(all_triples, m):
            inst = ThreeDMInstance(2, combo)
            d, rmap = reduce_3dm(inst)
            sol = brute_force_3dm(inst)
            f = oracle_forest(d, ForestKind.PERFECT, budget)
            if (sol is not None) != (f is not None):
                discrepancies += 1
            elif sol is not None:
                embedded = embed_solution(inst, sol, rmap)
                if not verify(d, embedded, ForestKind.PERFECT).passed:
                    discrepancies += 1
                elif extract_solution(d, embedded, rmap) != sol:
                    discrepancies += 1
            checked += 1
    assert checked == 154
    _report(4, "3DM reduction iff + round trip", discrepancies == 0)


def test_criterion_5_scott_theorem():
    failures = 0
    for n in (2, 4, 6):
        for g in enumerate_ugraphs(n, connected=True):
            edges = perfect_forest_undirected(g)
            if edges is None or not check_undirected_perfect_forest(g, edges):
                failures += 1
    for g in sample_ugraphs(8, 200, seed=5, connected=True):
        edges = perfect_forest_undirected(g)
        if edges is None or not check_undirected_perfect_forest(g, edges):
            failures += 1
    # odd order always refused
    for g in enumerate_ugraphs(3):
        if perfect_forest_undirected(g) is not None:
            failures += 1
    for g in sample_ugraphs(5, 100, seed=6):
        if perfect_forest_undirected(g) is not None:
            failures += 1
    _report(5, "Scott extension on undirected graphs", failures == 0)


def test_criterion_6_star_counterexample(tmp_path):
    failures = 0
    for r in (3, 5, 7):
        star = Digraph(r + 1, frozenset((leaf, 0) for leaf in range(1, r + 1)))
        if oracle_forest(star, ForestKind.EVEN) is not None:
            failures += 1
        path = tmp_path / f"star{r}.dg"
        lines = [f"{r + 1} {r}"] + [f"{leaf} 0" for leaf in range(1, r + 1)]
        path.write_text("\n".join(lines) + "\n")
        if run(["decide", "--kind", "even", str(path)]) != 1:
            failures += 1
    _report(6, "inward star has no even out-forest", failures == 0)


def test_criterion_7_matching_engine():
    budget = OracleBudget(max_vertices=12)
    discrepancies = 0
    for n in range(1, 8):
        for g in enumerate_ugraphs(n):
            if len(maximum_matching(g)) != len(oracle_matching(g, budget)):
                discrepancies += 1
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(8, 12)
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = frozenset(e for e in slots if rng.random() < 0.5)
        g = UGraph(n, edges)
        if len(maximum_matching(g)) != len(oracle_matching(g, budget)):
            discrepancies += 1
    petersen_edges = set()
    for i in range(5):
        petersen_edges.add((i, (i + 1) % 5))
        petersen_edges.add((i, i + 5))
        petersen_edges.add((5 + i, 5 + (i + 2) % 5))
    if len(maximum_matching(UGraph(10, petersen_edges))) != 5:
        discrepancies += 1
    _report(7, "matching engine equals oracle", discrepancies == 0)


def _random_even_tree(rng: random.Random, max_n: int) -> OutTree:
    n = rng.randrange(2, max_n + 1, 2)
    order = list(range(n))
    rng.shuffle(order)
    parent = {order[i]: order[rng.randrange(i)] for i in range(1, n)}
    return OutTree(n, order[0], parent)


def test_criterion_8_lemma_pipelines():
    rng = random.Random(8)
    failures = 0
    for _ in range(1000):
        t = _random_even_tree(rng, 40)
        f = even_tree_to_weak(t)
        host = Digraph(t.n, frozenset(t.arcs()))
        if not f.arcs() <= t.arcs():
            failures += 1
        elif not verify(host, f, ForestKind.WEAK_PERFECT).passed:
            failures += 1

    pairs = 0
    attempts = 0
    while pairs < 1000:
        attempts += 1
        assert attempts < 100000
        n = rng.randrange(4, 13, 2)
        slots = [(u, v) for u in range(n) for v in range(n) if u != v]
        d = Digraph(n, frozenset(a for a in slots if rng.random() < 0.5))
        f = decide_weak(d)
        if f is None:
            continue
        pairs += 1
        # weak_to_almost raises internally if its result is not almost perfect
        f2 = weak_to_almost(d, f)
        if not verify(d, f2, ForestKind.ALMOST_PERFECT).passed:
            failures += 1
    _report(8, "lemma pipelines in isolation", failures == 0)
