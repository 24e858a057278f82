import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import outforest
from conftest import check_undirected_perfect_forest
from outforest import (
    ForestKind,
    OutForest,
    UGraph,
    VerificationReport,
    parse_digraph,
    parse_forest,
    parse_ugraph,
    verify,
)
from outforest import cli, construct
from outforest.cli import run

TWO_CYCLE = "2 2\n0 1\n1 0\n"
PATH4 = "4 3\n0 1\n1 2\n2 3\n"
INWARD_STAR = "4 3\n1 0\n2 0\n3 0\n"
# decide_weak's forest for this digraph needs a swap to become almost perfect;
# read as an undirected graph, its even-tree split is the star at 0, which
# `scott` must swap along the cross arc (1,2)
SWAP_WITNESS = "4 4\n0 1\n1 2\n0 2\n0 3\n"


@pytest.fixture
def twocycle(tmp_path):
    p = tmp_path / "twocycle.dg"
    p.write_text(TWO_CYCLE)
    return str(p)


@pytest.fixture
def star(tmp_path):
    p = tmp_path / "star_in.dg"
    p.write_text(INWARD_STAR)
    return str(p)


class TestClassify:
    def test_two_cycle(self, twocycle, capsys):
        assert run(["classify", twocycle]) == 0
        assert capsys.readouterr().out.strip() == "StronglyConnectedEven"

    def test_json(self, twocycle, capsys):
        assert run(["classify", "--json", twocycle]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["class"] == "StronglyConnectedEven"


class TestDecide:
    def test_weak_perfect_found(self, twocycle, capsys):
        assert run(["decide", "--kind", "weak-perfect", twocycle]) == 0
        out = capsys.readouterr().out
        assert "root" in out

    def test_even_star_exits_one(self, star, capsys):
        assert run(["decide", "--kind", "even", star]) == 1
        assert "no even out-forest" in capsys.readouterr().out

    def test_perfect_gated_behind_oracle(self, twocycle, capsys):
        assert run(["decide", "--kind", "perfect", twocycle]) == 2
        assert "NP-hard" in capsys.readouterr().err

    def test_perfect_with_oracle(self, twocycle, tmp_path, capsys):
        claw = tmp_path / "claw.dg"
        claw.write_text("4 3\n0 1\n0 2\n0 3\n")
        assert run(["decide", "--kind", "perfect", "--oracle", str(claw)]) == 0
        assert run(["decide", "--kind", "perfect", "--oracle", twocycle]) == 1

    def test_decide_json(self, twocycle, capsys):
        assert run(["decide", "--kind", "weak-perfect", "--json", twocycle]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is True

    def test_disconnected_warns(self, tmp_path, capsys):
        p = tmp_path / "disc.dg"
        p.write_text("4 2\n0 1\n2 3\n")
        assert run(["decide", "--kind", "weak-perfect", str(p)]) == 0
        assert "disconnected" in capsys.readouterr().err


class TestInvariantChecks:
    @pytest.mark.parametrize(
        "text, code", [(SWAP_WITNESS, 0), (PATH4, 0), (INWARD_STAR, 1)]
    )
    def test_decide_under_optimized_python(self, text, code, tmp_path):
        graph = tmp_path / "g.dg"
        graph.write_text(text)
        src = str(Path(outforest.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )

        def run_optimized(*argv):
            return subprocess.run(
                [sys.executable, "-O", "-m", "outforest.cli", *argv, str(graph)],
                capture_output=True, text=True, env=env, timeout=120,
            )

        proc = run_optimized("decide", "--kind", "almost-perfect")
        assert proc.returncode == code, proc.stderr
        if code == 0:
            f = parse_forest(proc.stdout)
            assert verify(parse_digraph(text), f, ForestKind.ALMOST_PERFECT).passed
        else:
            assert "no almost-perfect out-forest" in proc.stdout
        # read as an undirected graph every input is connected and even
        proc = run_optimized("scott")
        assert proc.returncode == 0, proc.stderr
        edges = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()[1:]]
        assert check_undirected_perfect_forest(parse_ugraph(text), edges)

    def test_failed_check_is_internal_error(self, monkeypatch, twocycle, capsys):
        monkeypatch.setattr(
            cli,
            "verify",
            lambda d, f, kind: VerificationReport((("even-degree", (0,)),)),
        )
        assert run(["decide", "--kind", "weak-perfect", twocycle]) == 3
        assert "internal error" in capsys.readouterr().err

    # the two-cycle takes the tree route; two disjoint arcs, with two
    # initial components, take the gadget route
    @pytest.mark.parametrize("text", [TWO_CYCLE, "4 2\n0 1\n2 3\n"])
    def test_failed_decide_check_under_optimized_python(self, text, tmp_path):
        graph = tmp_path / "g.dg"
        graph.write_text(text)
        src = str(Path(outforest.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        script = (
            "import sys\n"
            "from outforest import VerificationReport, cli, construct\n"
            "construct.verify = lambda d, f, kind: "
            "VerificationReport((('even-degree', (0,)),))\n"
            "sys.exit(cli.run(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "decide", "--kind", "weak-perfect",
             str(graph)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert "internal error" in proc.stderr

    def test_swap_pass_fault_is_internal_error(self, monkeypatch, tmp_path, capsys):
        graph = tmp_path / "g.ug"
        graph.write_text(SWAP_WITNESS)
        built = []

        def first_forest(n, parent):
            # every forest after the even-tree split loses the swaps
            built.append(OutForest(n, parent))
            return built[0]

        monkeypatch.setattr(construct, "OutForest", first_forest)
        assert run(["scott", str(graph)]) == 3
        assert "internal error" in capsys.readouterr().err


class TestConstructVerifyRoundTrip:
    @pytest.mark.parametrize("kind", ["weak-perfect", "almost-perfect", "even"])
    def test_round_trip(self, kind, tmp_path, capsys):
        graph = tmp_path / "g.dg"
        graph.write_text(PATH4)
        forest = tmp_path / "f.of"
        assert run(["construct", "--kind", kind, str(graph), "-o", str(forest)]) == 0
        assert run(["verify", "--kind", kind, str(graph), str(forest)]) == 0
        assert capsys.readouterr().out.strip() == "pass"

    def test_verify_fail_exits_one(self, tmp_path, capsys):
        graph = tmp_path / "g.dg"
        graph.write_text(TWO_CYCLE)
        forest = tmp_path / "f.of"
        forest.write_text("root 0\n1 0\n")
        assert run(["verify", "--kind", "perfect", str(graph), str(forest)]) == 1
        assert "not-induced" in capsys.readouterr().out

    def test_verify_json(self, tmp_path, capsys):
        graph = tmp_path / "g.dg"
        graph.write_text(TWO_CYCLE)
        forest = tmp_path / "f.of"
        forest.write_text("root 0\n1 0\n")
        run(["verify", "--kind", "almost-perfect", "--json", str(graph), str(forest)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "pass"


class TestGadgetMatchScott:
    def test_gadget_with_sidecar(self, tmp_path, capsys):
        graph = tmp_path / "g.dg"
        graph.write_text(PATH4)
        side = tmp_path / "g.sidecar"
        assert run(["gadget", str(graph), "--sidecar", str(side)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("12 13")
        sidecar = side.read_text()
        assert "block 0 0 3 0" in sidecar
        assert "pair 1 2" in sidecar

    def test_gadget_size_guard(self, tmp_path, capsys):
        n = 1001
        graph = tmp_path / "cycle.dg"
        graph.write_text(f"{n} {n}\n" + "".join(f"{v} {(v + 1) % n}\n" for v in range(n)))
        assert run(["gadget", str(graph)]) == 2
        assert "over the limit" in capsys.readouterr().err

    def test_match(self, tmp_path, capsys):
        g = tmp_path / "tri.ug"
        g.write_text("3 3\n0 1\n1 2\n0 2\n")
        assert run(["match", "--json", str(g)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == 1 and payload["perfect"] is False

    def test_scott(self, tmp_path, capsys):
        g = tmp_path / "p4.ug"
        g.write_text("4 3\n0 1\n1 2\n2 3\n")
        assert run(["scott", "--json", str(g)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is True
        assert sorted(map(tuple, payload["edges"])) == [(0, 1), (2, 3)]

    def test_scott_odd(self, tmp_path, capsys):
        g = tmp_path / "p3.ug"
        g.write_text("3 2\n0 1\n1 2\n")
        assert run(["scott", str(g)]) == 1

    def test_dot_export(self, twocycle, capsys):
        assert run(["decide", "--kind", "weak-perfect", "--dot", twocycle]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph {")
        assert "[style=bold]" in out


class TestReduce3DM:
    def test_reduce(self, tmp_path, capsys):
        inst = tmp_path / "i.3dm"
        inst.write_text("2 3\n0 0 0\n1 1 1\n0 1 0\n")
        side = tmp_path / "i.map"
        assert run(["reduce-3dm", str(inst), "--sidecar", str(side)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("10 30")
        assert "triple" in side.read_text()

    def test_degenerate_warns(self, tmp_path, capsys):
        inst = tmp_path / "i.3dm"
        inst.write_text("1 1\n0 0 0\n")
        assert run(["reduce-3dm", str(inst)]) == 0
        assert "not strongly connected" in capsys.readouterr().err


class TestOracleCommand:
    def test_oracle_even_star(self, star):
        assert run(["oracle", "--kind", "even", star]) == 1

    def test_oracle_budget_flag(self, twocycle, capsys):
        assert run(["oracle", "--kind", "even", "--max-vertices", "1", twocycle]) == 2
        assert "error" in capsys.readouterr().err


class TestParser:
    def test_built_once_and_flags_do_not_leak(self, twocycle, capsys):
        assert cli.build_parser() is cli.build_parser()
        assert run(["decide", "--kind", "weak-perfect", "--json", "--dot", twocycle]) == 0
        assert run(["oracle", "--kind", "perfect", "--max-vertices", "1", twocycle]) == 2
        capsys.readouterr()
        assert run(["decide", "--kind", "weak-perfect", twocycle]) == 0
        assert capsys.readouterr().out.startswith("root 0\n")
        assert run(["oracle", "--kind", "even", twocycle]) == 0
        assert run(["decide", "--kind", "perfect", twocycle]) == 2
        assert "NP-hard" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        assert run(["classify", "/nonexistent/file.dg"]) == 2

    def test_parse_error_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.dg"
        p.write_text("2 1\n0 9\n")
        assert run(["classify", str(p)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestUnexpectedFaults:
    """An exception the package did not raise on purpose is an internal
    error (exit 3), never "does not exist" (1) or "bad input" (2)."""

    def test_memory_error_exits_three(self, monkeypatch, twocycle, capsys):
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli, "parse_digraph", exhausted)
        assert run(["decide", "--kind", "even", twocycle]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: MemoryError\n", err
        assert "Traceback" not in err

    def test_recursion_error_exits_three(self, monkeypatch, twocycle, capsys):
        def too_deep(d, kind, budget):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "oracle_forest", too_deep)
        assert run(["oracle", "--kind", "weak-perfect", twocycle]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RecursionError: maximum recursion"), err
        assert "Traceback" not in err


class TestScottOutputPinned:
    """`scott --json` on the benchmark's scott-tree pools of seeds 1-3,
    pinned byte for byte by digest."""

    # seed: (sha256 of the generated inputs, sha256 of every exit code and output)
    DIGESTS = {
        1: ("11dfedfd33df3fb23c1209cf45f83a10eb1e102ca1a06c57a0d52f2bf8a35615",
            "c737a90fed651dad15d3b4c2baec0726837093f633059771c30d1a9178590310"),
        2: ("181ac4b564e8cedb6f18c043f2302a62a1cf47def186e3fd8ae31a9458b4d76f",
            "0386377dff6007a51efd9f9819a46304642eaabae11d9cc6647b6a5eea1208f1"),
        3: ("470c7ca6199d150b0da174ccc7f00230379a7e6f45a4fe8b3dc6492c002939ab",
            "18c5103af77e134176e61faf767e0c9d1c06a209b95a552eb5a0022e01d6b48f"),
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_byte_identical(self, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import gen

        manifest = gen.generate("scott-tree", seed, tmp_path)
        inputs, outputs = self.DIGESTS[seed]
        assert manifest["inputs_sha256"] == inputs, "the benchmark generator changed"
        digest = hashlib.sha256()
        for inst in manifest["instances"]:
            code = run(["scott", "--json", str(tmp_path / inst["file"])])
            digest.update(f"{code}\n{capsys.readouterr().out}\0".encode())
        assert digest.hexdigest() == outputs


class TestDecideOutputPinned:
    """`decide --kind almost-perfect --json` on the benchmark's
    gadget-decide pools of seeds 1-3, pinned byte for byte by digest of
    every exit code, stdout and stderr."""

    # seed: (sha256 of the generated inputs, sha256 of every outcome)
    DIGESTS = {
        1: ("3995bad5b8e1e68de5ebb396706440aee860086e05fee2ef55d6249a8492be71",
            "59e3ae67d57cef7378f31f393dd4b75163bbc1a7aafc9430cf4dc167f6b782fe"),
        2: ("290f6beadb0615df0029d52325a92f59087bffbfd50cf6a6724395dcddc6d90c",
            "9d0e069786fc5d29d6dbb98f0dfbe6bf35e9f91e90014c71467bba7ace1df683"),
        3: ("620e9c70dd4523343732fd0179a7d2f9c8589d6eaf81979640bd9bed0e487878",
            "c27163488c9045d6d9b92300877969653546b911001f47696c0404ead77665db"),
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_byte_identical(self, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import gen

        manifest = gen.generate("gadget-decide", seed, tmp_path)
        inputs, outputs = self.DIGESTS[seed]
        assert manifest["inputs_sha256"] == inputs, "the benchmark generator changed"
        digest = hashlib.sha256()
        for inst in manifest["instances"]:
            code = run(["decide", "--kind", "almost-perfect", "--json",
                        str(tmp_path / inst["file"])])
            captured = capsys.readouterr()
            digest.update(f"{code}\n{captured.out}\0{captured.err}\0".encode())
        assert digest.hexdigest() == outputs


class TestOracleCertifyPinned:
    """Every oracle-certify op of seeds 1-3 (decide_weak, both oracle
    kinds, both matchers, the 3DM reduction and its read-back), run and
    encoded as perfbench/worker.py does, pinned by digest."""

    DIGESTS = {
        1: ("9449ddf89396cbdbeb7371e2f7d75f3b1a8d34bd087b3becdff19da9dc6e496d",
            "a542ad7c1e01b3d0596f8d31bf398b1010fcf6c1d92bf2d4a903ce1a59201409"),
        2: ("6de03b4550fc6cdea08d4e4e2ffeadb94892340344dd46f6f3bb442253f5eb4e",
            "7705ab579ff7e5c22caf11ee10e4a29e5262989e8ebffc91e47c4363e4bc661a"),
        3: ("33739d8e038818ba614ab2534abcc6f8bec5f2dc3109ae6423c14d34d10d5dae",
            "d62523243aad8b3b51d3ff6b11bcfc85927a30f363f6b0b588403499db98723a"),
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_byte_identical(self, seed, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import gen
        import worker

        manifest = gen.generate("oracle-certify", seed, tmp_path)
        inputs, outputs = self.DIGESTS[seed]
        assert manifest["inputs_sha256"] == inputs, "the benchmark generator changed"
        digest = hashlib.sha256()
        for inst in manifest["instances"]:
            op, encode = worker.make_op(inst, tmp_path / inst["file"])
            code, text = encode(op())
            digest.update(f"{code}\n{text}\0".encode())
        assert digest.hexdigest() == outputs


class TestInputSizeGuard:
    @pytest.mark.parametrize("argv", [
        ["classify"], ["decide", "--kind", "even"], ["match"], ["scott"],
    ])
    def test_refused_before_any_vertex_work(self, argv, tmp_path, monkeypatch, capsys):
        def vertex_work(*args):
            raise RuntimeError("vertex work started")

        for name in ("classify", "weak_components", "maximum_matching",
                     "perfect_forest_undirected"):
            monkeypatch.setattr(cli, name, vertex_work)
        p = tmp_path / "big.txt"
        # n + m one over the bound, then at it
        p.write_text(f"{cli.INPUT_MAX_SIZE} 1\n0 1\n")
        assert run([*argv, str(p)]) == 2
        assert f"over the limit of {cli.INPUT_MAX_SIZE}" in capsys.readouterr().err
        p.write_text(f"{cli.INPUT_MAX_SIZE - 1} 1\n0 1\n")
        assert run([*argv, str(p)]) == 3
        assert "vertex work started" in capsys.readouterr().err


def _caterpillar(n):
    """Spine 0..k, vertex i of 1..k carrying leaf k+i, and vertex 2k+1
    after k: n = 2k+2 vertices, a tree of depth about n/2."""
    k = (n - 2) // 2
    return ([(i, i + 1) for i in range(k)] + [(i, k + i) for i in range(1, k + 1)]
            + [(k, 2 * k + 1)])


class TestDeepFamilies:
    """Deep trees, on which O(m * depth) ancestry took 18 s (scott) and
    23 s (decide) at this order on a 2-vCPU machine; the linear pass takes
    about 0.2 s and 0.1 s there, so the bound is loose."""

    N = 16002
    BOUND_S = 5.0

    def timed(self, argv, capsys):
        capsys.readouterr()
        t = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - t
        return code, json.loads(capsys.readouterr().out), elapsed

    def test_caterpillar_scott(self, tmp_path, capsys):
        edges = _caterpillar(self.N)
        p = tmp_path / "cat.ug"
        p.write_text(f"{self.N} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        code, out, elapsed = self.timed(["scott", "--json", str(p)], capsys)
        assert code == 0 and out["exists"]
        assert check_undirected_perfect_forest(UGraph(self.N, edges), out["edges"])
        assert elapsed < self.BOUND_S, elapsed

    def test_dcat_decide_almost_perfect(self, tmp_path, capsys, monkeypatch):
        # the caterpillar directed away from 0, plus an arc from every
        # vertex >= 2 back to 0: strongly connected and even
        arcs = _caterpillar(self.N) + [(w, 0) for w in range(2, self.N)]
        p = tmp_path / "dcat.dg"
        p.write_text(f"{self.N} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        code, out, elapsed = self.timed(
            ["decide", "--kind", "almost-perfect", "--json", str(p)], capsys)
        assert code == 0 and out["exists"]
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import check

        parent = {int(c): p for c, p in out["forest"].items()}
        assert check.check_out_forest(self.N, arcs, parent, "almost") is None
        assert elapsed < self.BOUND_S, elapsed
