"""Tests for the benchmark itself: checkers, generator, tracer.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

import outforest  # noqa: E402
from outforest import construct, forests, matching  # noqa: E402

# 0 -> 1 -> 2 -> 3 plus 0 -> 2: a path whose 0 -> 2 arc is forward
PATH4 = {(0, 1), (1, 2), (2, 3), (0, 2)}


class TestOutForestChecker:
    def test_accepts_two_edge_trees(self):
        arcs = {(0, 1), (2, 3), (1, 2)}
        assert check.check_out_forest(4, arcs, {1: 0, 3: 2}, "perfect") is None

    def test_rejects_even_degree(self):
        reason = check.check_out_forest(4, PATH4, {1: 0, 2: 1, 3: 2}, "weak")
        assert "even degree" in reason

    def test_rejects_forward_arc(self):
        # 0 has children 1, 2, 3 and 1 has children 4, 5: all degrees odd,
        # and 0 -> 4 skips a level
        arcs = {(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (0, 4)}
        parent = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
        assert check.check_out_forest(6, arcs, parent, "weak") is None
        assert "forward" in check.check_out_forest(6, arcs, parent, "almost")

    def test_rejects_cross_arc(self):
        arcs = {(0, 1), (0, 2), (0, 3), (1, 3)}
        assert "cross" in check.check_out_forest(4, arcs, {1: 0, 2: 0, 3: 0}, "almost")

    def test_rejects_non_induced_tree(self):
        arcs = {(0, 1), (0, 2), (0, 3), (2, 1)}
        parent = {1: 0, 2: 0, 3: 0}
        assert check.check_out_forest(4, arcs, parent, "almost") is not None  # cross
        arcs = {(0, 1), (0, 2), (0, 3), (1, 0)}
        assert check.check_out_forest(4, arcs, parent, "almost") is None  # backward
        assert "not a tree arc" in check.check_out_forest(4, arcs, parent, "perfect")

    def test_rejects_arc_outside_host_and_cycle(self):
        assert "not an arc" in check.check_out_forest(2, {(0, 1)}, {0: 1}, "weak")
        assert "cycle" in check.check_out_forest(2, {(0, 1), (1, 0)}, {0: 1, 1: 0}, "weak")


class TestUndirectedChecker:
    def test_accepts_perfect_forest(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        assert check.check_perfect_forest(4, edges, [(0, 1), (2, 3)]) is None

    def test_rejects_even_degree(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        assert "even degree" in check.check_perfect_forest(4, edges, edges)

    def test_rejects_non_induced_tree(self):
        # the star at 0 is a spanning tree with odd degrees, but 1-2 lies
        # inside it without being a forest edge
        edges = [(0, 1), (0, 2), (0, 3), (1, 2)]
        reason = check.check_perfect_forest(4, edges, [(0, 1), (0, 2), (0, 3)])
        assert "inside a tree" in reason


class TestMatchingChecker:
    def test_rejects_overlapping_matching(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        assert check.check_matching(4, edges, [(0, 1), (2, 3)]) is None
        assert "shares an endpoint" in check.check_matching(4, edges, [(0, 1), (1, 2)])
        assert "not an edge" in check.check_matching(4, edges, [(0, 3)])

    def test_max_matching_size(self):
        assert check.max_matching_size(4, [(0, 1), (1, 2), (2, 3)]) == 2
        assert check.max_matching_size(4, [(0, 1), (0, 2), (0, 3)]) == 1
        assert check.max_matching_size(3, []) == 0


class TestThreeDM:
    def test_brute_force_and_solution_check(self):
        yes = [(0, 0, 0), (1, 1, 1), (0, 1, 0)]
        no = [(0, 0, 0), (1, 1, 0), (0, 1, 1)]
        assert check.brute_3dm(2, yes) and not check.brute_3dm(2, no)
        assert check.check_3dm_solution(2, yes, [(0, 0, 0), (1, 1, 1)]) is None
        assert check.check_3dm_solution(2, yes, [(0, 0, 0), (0, 1, 0)]) is not None


class TestGenerator:
    @pytest.mark.parametrize("workload", gen.WORKLOADS)
    def test_deterministic(self, workload, tmp_path):
        a = gen.generate(workload, 7, tmp_path / "a")
        b = gen.generate(workload, 7, tmp_path / "b")
        c = gen.generate(workload, 8, tmp_path / "c")
        assert a["inputs_sha256"] == b["inputs_sha256"] != c["inputs_sha256"]
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for inst in a["instances"]:
            assert {"n", "m", "expect", "why"} <= set(inst)

    def test_planted_verdicts_agree_with_brute_force(self):
        rng = gen.random.Random(3)
        for _ in range(20):
            assert check.forest_existence(8, gen.gadget_yes(rng, 8))[0]
            assert check.forest_existence(8, gen.gadget_no(rng, 8)) == (False, False)


class TestTracer:
    def test_traced_and_untraced_outcomes_are_identical(self, tmp_path):
        work = tmp_path / "w"
        outcomes = {}
        for workload in gen.WORKLOADS:
            manifest = gen.generate(workload, 5, work / workload)
            picks = manifest["passes"][0][:3] + manifest["passes"][1][-1:]
            for inst_id in picks:
                inst = manifest["instances"][inst_id]
                run_op, encode = worker.make_op(inst, work / workload / inst["file"])
                tracer = Tracer()
                untraced = encode(run_op())
                tracer.install()
                try:
                    traced = encode(run_op())
                finally:
                    tracer.uninstall()
                assert traced == untraced
                assert tracer.spans, "the traced op recorded no span"
                outcomes[workload, inst_id] = untraced
        assert len(outcomes) == 4 * len(gen.WORKLOADS)

    def test_patches_every_binding_and_restores_it(self):
        original = matching.maximum_matching
        init = forests.OutForest.__init__
        tracer = Tracer()
        tracer.install()
        try:
            assert construct.maximum_matching is not original
            assert construct.maximum_matching is matching.maximum_matching
            assert outforest.maximum_matching is matching.maximum_matching
            g = outforest.UGraph(4, frozenset({(0, 1), (2, 3)}))
            construct.maximum_matching(g)
            forests.OutForest(2, {1: 0})
        finally:
            tracer.uninstall()
        assert construct.maximum_matching is original is outforest.maximum_matching
        assert forests.OutForest.__init__ is init
        assert [s[0] for s in tracer.spans] == ["matching.maximum_matching"]
        assert tracer.counts["forests.outforest_built", None] == 1


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    value, pct, beyond = run.tail(list(range(100)))
    assert (value, pct, beyond) == (89, 90.0, 10)


def test_op_times_are_scaled_by_the_kernel_samples_near_them():
    calibration = [(0.0, 2.0), (1.0, 2.0), (10.0, 0.5)]
    ops = [{"t": 0.5, "ms": 1000.0}, {"t": 20.0, "ms": 10.0}]
    run.scale_times(ops, calibration)
    ref = run.calib.REFERENCE_MS
    assert ops[0]["scaled_ms"] == pytest.approx(1000.0 * ref / 2.0)
    # no sample within the window: the nearest one scales it
    assert ops[1]["scaled_ms"] == pytest.approx(10.0 * ref / 0.5)


def test_reference_kernel_does_fixed_work():
    import calib

    assert calib._kernel() == calib._kernel()
    assert calib.kernel_ms(1) > 0
