import itertools

import pytest

from outforest import (
    ConnectivityClass,
    ForestKind,
    OracleBudget,
    ThreeDMInstance,
    brute_force_3dm,
    classify,
    embed_solution,
    extract_solution,
    format_3dm,
    oracle_forest,
    parse_3dm,
    reduce_3dm,
    verify,
)
from outforest.errors import (
    InputError,
    MalformedLine,
    Not3DMPerfectMatching,
    StructureMismatch,
    TooFewTriples,
)

K1M1 = ThreeDMInstance(1, ((0, 0, 0),))


class TestInstance:
    def test_duplicate_triple_rejected(self):
        with pytest.raises(ValueError):
            ThreeDMInstance(1, ((0, 0, 0), (0, 0, 0)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ThreeDMInstance(1, ((0, 1, 0),))

    def test_text_round_trip(self):
        inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
        assert parse_3dm(format_3dm(inst)) == inst

    def test_parse_turns_a_bad_instance_into_input_error(self):
        with pytest.raises(InputError, match=r"out of range for k=1"):
            parse_3dm("1 1\n0 0 5\n")
        with pytest.raises(InputError, match="duplicate triple"):
            parse_3dm("1 2\n0 0 0\n0 0 0\n")
        with pytest.raises(InputError, match="at least 1"):
            parse_3dm("0 0\n")

    def test_parse_errors(self):
        with pytest.raises(MalformedLine):
            parse_3dm("2\n0 0 0")
        with pytest.raises(MalformedLine):
            parse_3dm("1 2\n0 0 0")


class TestReduce:
    def test_k1_m1_degenerate(self):
        d, rmap = reduce_3dm(K1M1)
        assert d.n == 4
        assert d.arcs == frozenset({(0, 1), (0, 2), (0, 3)})
        assert rmap.degenerate
        assert classify(d) is not ConnectivityClass.STRONGLY_CONNECTED_EVEN

    def test_k2_m3_counts(self):
        inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
        d, rmap = reduce_3dm(inst)
        assert d.n == 10
        assert len(d.arcs) == 30
        assert not rmap.degenerate

    def test_too_few_triples(self):
        with pytest.raises(TooFewTriples):
            reduce_3dm(ThreeDMInstance(2, ((0, 0, 0),)))

    def test_strongly_connected_when_m_exceeds_k(self):
        all_triples = list(itertools.product(range(2), repeat=3))
        for m in (3, 4):
            for combo in itertools.islice(
                itertools.combinations(all_triples, m), 10
            ):
                d, _ = reduce_3dm(ThreeDMInstance(2, combo))
                assert classify(d) is ConnectivityClass.STRONGLY_CONNECTED_EVEN


class TestEmbedExtract:
    def test_k1_claw(self):
        d, rmap = reduce_3dm(K1M1)
        f = embed_solution(K1M1, {(0, 0, 0)}, rmap)
        assert f.arcs() == {(0, 1), (0, 2), (0, 3)}
        assert verify(d, f, ForestKind.PERFECT).passed
        assert extract_solution(d, f, rmap) == {(0, 0, 0)}

    def test_tree_count_is_m(self):
        inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 1)))
        d, rmap = reduce_3dm(inst)
        sol = {(0, 0, 0), (1, 1, 1)}
        f = embed_solution(inst, sol, rmap)
        assert len(f.roots) == inst.m
        assert verify(d, f, ForestKind.PERFECT).passed
        assert extract_solution(d, f, rmap) == sol

    def test_bad_solution_rejected(self):
        inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 1)))
        _, rmap = reduce_3dm(inst)
        with pytest.raises(Not3DMPerfectMatching):
            embed_solution(inst, {(0, 0, 0), (0, 1, 1)}, rmap)
        with pytest.raises(Not3DMPerfectMatching):
            embed_solution(inst, {(0, 0, 0)}, rmap)

    def test_extract_rejects_non_perfect_forest(self):
        d, rmap = reduce_3dm(K1M1)
        from outforest import OutForest

        with pytest.raises(StructureMismatch):
            extract_solution(d, OutForest(4, {}), rmap)

    def test_oracle_forest_extracts_to_valid_solution(self):
        inst = ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))
        d, rmap = reduce_3dm(inst)
        f = oracle_forest(d, ForestKind.PERFECT, OracleBudget(max_vertices=12))
        assert f is not None
        sol = extract_solution(d, f, rmap)
        assert brute_force_3dm(inst) is not None
        assert len(sol) == 2


class TestIffOnSmallInstances:
    def test_solvability_matches_forest_existence(self):
        budget = OracleBudget(max_vertices=12)
        all_triples = list(itertools.product(range(2), repeat=3))
        checked = 0
        for m in (2, 3):
            for combo in itertools.combinations(all_triples, m):
                inst = ThreeDMInstance(2, combo)
                d, rmap = reduce_3dm(inst)
                sol = brute_force_3dm(inst)
                f = oracle_forest(d, ForestKind.PERFECT, budget)
                assert (sol is not None) == (f is not None), inst
                if sol is not None:
                    round_trip = extract_solution(
                        d, embed_solution(inst, sol, rmap), rmap
                    )
                    assert round_trip == sol
                checked += 1
        assert checked == 84
