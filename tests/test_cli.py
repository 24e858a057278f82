import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import outforest
from conftest import check_undirected_perfect_forest
from outforest import (
    ForestKind,
    Matching,
    OutForest,
    UGraph,
    VerificationReport,
    parse_digraph,
    parse_forest,
    parse_ugraph,
    verify,
)
from outforest import cli, construct, errors
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
        # decide_weak's check is the last one a weak perfect forest gets
        monkeypatch.setattr(
            construct,
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

    def test_gadget_read_back_fault_is_internal_error(self, monkeypatch, tmp_path, capsys):
        # two initial components, so the route through H, which has 10
        # vertices: N+[0] has five members and two connector pairs
        graph = tmp_path / "g.dg"
        graph.write_text("6 5\n0 1\n0 2\n0 3\n0 4\n5 4\n")
        monkeypatch.setattr(construct, "perfect_matching", lambda g: Matching(frozenset()))
        assert run(["decide", "--kind", "weak-perfect", str(graph)]) == 3
        err = capsys.readouterr().err
        assert "internal error: " in err and "covers 0 of 10" in err, err

    def test_split_fault_is_internal_error(self, monkeypatch, tmp_path, capsys):
        graph = tmp_path / "g.ug"
        graph.write_text(PATH4)
        monkeypatch.setattr(construct, "even_tree_to_weak", lambda t: OutForest(t.n, {}))
        assert run(["scott", str(graph)]) == 3
        assert capsys.readouterr().err.startswith("internal error")


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


class TestExitCodes:
    """The exception's type alone decides exit 2 (bad input) or 3 (a
    fault of this package)."""

    # (argv with {name} placeholders, {name: file contents}, stderr)
    INPUT_ERRORS = [
        (["verify", "--kind", "even", "{g}", "{f}"], {"g": TWO_CYCLE, "f": "0 1\n1 0\n"},
         "error: cycle in parent relation through [0, 1]\n"),
        (["verify", "--kind", "even", "{g}", "{f}"], {"g": TWO_CYCLE, "f": "0 5\n1 0\n"},
         "error: arc (5,0) out of range for n=2\n"),
        (["reduce-3dm", "{i}"], {"i": "1 1\n0 0 5\n"},
         "error: triple (0, 0, 5) out of range for k=1\n"),
        (["reduce-3dm", "{i}"], {"i": "2 1\n0 0 0\n"},
         "error: need m >= k, got m=1, k=2\n"),
        (["oracle", "--kind", "even", "--max-vertices", "0", "{g}"], {"g": TWO_CYCLE},
         "error: budget values must be positive\n"),
        (["gadget", "{g}"], {"g": "3 2\n0 1\n1 2\n"},
         "error: gadget requires even order >= 2, got n=3\n"),
        (["classify", "{g}"], {"g": b"\xff\xfe"},
         "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"),
    ]

    @pytest.mark.parametrize("argv, files, err", INPUT_ERRORS)
    def test_input_error_exits_two(self, argv, files, err, tmp_path, capsys):
        paths = {}
        for name, content in files.items():
            p = tmp_path / name
            (p.write_bytes if isinstance(content, bytes) else p.write_text)(content)
            paths[name] = str(p)
        assert run([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err == err

    def test_forest_build_fault_exits_three(self, monkeypatch, tmp_path, capsys):
        # on a 4-path the second forest is the one the swap pass builds
        graph = tmp_path / "p4.ug"
        graph.write_text(PATH4)
        calls = []

        def second_fails(n, parent):
            calls.append(n)
            if len(calls) == 2:
                raise ValueError("cycle in parent relation through [0]")
            return OutForest(n, parent)

        monkeypatch.setattr(construct, "OutForest", second_fails)
        assert run(["scott", str(graph)]) == 3
        assert capsys.readouterr().err == (
            "internal error: ValueError: cycle in parent relation through [0]\n")

    def test_invalid_matching_exits_three(self, monkeypatch, tmp_path, capsys):
        graph = tmp_path / "p3.ug"
        graph.write_text("3 2\n0 1\n1 2\n")
        monkeypatch.setattr(cli, "maximum_matching",
                            lambda g: Matching(frozenset({(0, 1), (1, 2)})))
        assert run(["match", str(graph)]) == 3
        assert capsys.readouterr().err == (
            "internal error: ValueError: matching edges share an endpoint\n")

    def test_every_error_class(self, monkeypatch, twocycle, capsys):
        # every exception class of outforest.errors, so a new one is covered
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, Exception)]
        assert errors.InputError in classes and errors.InvariantError in classes
        for cls in [*classes, ValueError, KeyError, MemoryError]:
            exc = cls.__new__(cls)  # skips the subclasses' own __init__
            exc.args = ("boom",)

            def fail(text):
                raise exc

            monkeypatch.setattr(cli, "parse_digraph", fail)
            code = run(["classify", twocycle])
            err = capsys.readouterr().err
            if issubclass(cls, errors.InputError):
                assert (code, err) == (2, "error: boom\n"), cls
            else:
                assert code == 3, cls
                assert err.startswith(f"internal error: {cls.__name__}: "), (cls, err)

    @pytest.mark.parametrize("kind, calls", [
        ("almost-perfect", 3), ("weak-perfect", 1), ("even", 1)])
    def test_each_forest_checked_by_its_producer(self, kind, calls, monkeypatch,
                                                 tmp_path, capsys):
        graph = tmp_path / "g.dg"
        graph.write_text(SWAP_WITNESS)
        counted = []
        for module in (cli, construct, outforest.oracle):
            def counting(*args, _verify=module.verify):
                counted.append(args[2])
                return _verify(*args)

            monkeypatch.setattr(module, "verify", counting)
        assert run(["decide", "--kind", kind, str(graph)]) == 0
        assert len(counted) == calls, counted
        counted.clear()
        assert run(["oracle", "--kind", kind, str(graph)]) == 0
        assert counted == [cli.KIND_NAMES[kind]]


class TestReduce3DMSizeGuard:
    def test_refused_before_the_reduction(self, monkeypatch, tmp_path, capsys):
        def reduction(inst):
            raise RuntimeError("reduction started")

        monkeypatch.setattr(cli, "reduce_3dm", reduction)
        # k = 10 and all 1 000 triples: n + arcs = 2 053 420
        triples = itertools.product(range(10), repeat=3)
        inst = tmp_path / "big.3dm"
        inst.write_text("10 1000\n" + "".join(f"{a} {b} {c}\n" for a, b, c in triples))
        assert run(["reduce-3dm", str(inst)]) == 2
        assert capsys.readouterr().err == (
            "error: the reduced digraph of k=10, m=1000 has n + arcs = 2053420, "
            "over the limit of 500000\n")

    def test_bound_is_the_built_size(self, monkeypatch, tmp_path, capsys):
        # the guard's size is exact: refused one below it, run at it
        rng = random.Random(7)
        inst = tmp_path / "i.3dm"
        for _ in range(100):
            k = rng.randint(1, 4)
            triples = rng.sample(list(itertools.product(range(k), repeat=3)),
                                 rng.randint(k, min(k**3, 12)))
            inst.write_text(f"{k} {len(triples)}\n"
                            + "".join(f"{a} {b} {c}\n" for a, b, c in triples))
            assert run(["reduce-3dm", str(inst)]) == 0
            n, arcs = map(int, capsys.readouterr().out.split("\n", 1)[0].split())
            monkeypatch.setattr(cli, "INPUT_MAX_SIZE", n + arcs - 1)
            assert run(["reduce-3dm", str(inst)]) == 2
            assert "over the limit" in capsys.readouterr().err
            monkeypatch.setattr(cli, "INPUT_MAX_SIZE", n + arcs)
            assert run(["reduce-3dm", str(inst)]) == 0
            capsys.readouterr()
            monkeypatch.undo()


class TestTimeLimitFlag:
    @pytest.mark.parametrize("value", ["0", "nan", "-1", "inf"])
    def test_refused(self, value, twocycle, capsys):
        assert run(["oracle", "--kind", "even", "--time-limit", value, twocycle]) == 2
        assert capsys.readouterr().err == (
            "error: time limit must be a positive finite number of seconds\n")

    def test_positive_accepted(self, twocycle):
        assert run(["oracle", "--kind", "even", "--time-limit", "5", twocycle]) == 0


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


class TestDigraphWritersPinned:
    """The two digraph writers, `format_digraph` and `digraph_dot`:
    `reduce-3dm`, as text and with --dot, on the 3DM instances of the
    benchmark's oracle-certify pools, and `decide --kind weak-perfect
    --dot` on its gadget-decide pools, seeds 1-3, pinned by digest of
    every exit code, stdout and stderr."""

    # (command, seed): sha256 of every outcome
    DIGESTS = {
        ("reduce-3dm", 1): "dd63a2fcf00c92c40650135507cba114afe46699bf3a0b769782d67c3204a3d3",
        ("reduce-3dm", 2): "88e66e92d73b420d5c5efe9a4a5ec4d5703833833065ed8f903686a9ce8907f4",
        ("reduce-3dm", 3): "965b7371fab2158fbd38464609c3b577addce48ef7db5c28f552ab56f1c1220f",
        ("reduce-3dm --dot", 1):
            "6f7f1c25d5c51716ba852716fd7dae17f156d7a87099dab64158b848ed6565c5",
        ("reduce-3dm --dot", 2):
            "c64c6e52cf7a3b1ea6d4d716a30e3de8e8cf2d6e5416a76fba14bb4336b11109",
        ("reduce-3dm --dot", 3):
            "f007b82a10554ee92b9dfbd6c16eeb4c952ff3f88d42d2c7303dd84b328316c7",
        ("decide --kind weak-perfect --dot", 1):
            "efdbf06c7f91fde9e12b4f4ac54a2d89a07f26d7dd6790df5c0b50796509989b",
        ("decide --kind weak-perfect --dot", 2):
            "566150cdf347d7bf213b289214f4958765f495ddf19db231a9d8c09dfe6b83a7",
        ("decide --kind weak-perfect --dot", 3):
            "7949cce8dbf6b55e708c1d8cd51cb2a0a56d34c2efca7200c41c1cb5bcb5809b",
    }

    @pytest.mark.parametrize("command, seed", sorted(DIGESTS))
    def test_byte_identical(self, command, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import gen

        if command.startswith("decide"):
            workload, kind, pinned = "gadget-decide", "digraph", TestDecideOutputPinned
        else:
            workload, kind, pinned = "oracle-certify", "cert-3dm", TestOracleCertifyPinned
        manifest = gen.generate(workload, seed, tmp_path)
        assert manifest["inputs_sha256"] == pinned.DIGESTS[seed][0], (
            "the benchmark generator changed")
        digest = hashlib.sha256()
        for inst in manifest["instances"]:
            if inst["type"] == kind:
                code = run([*command.split(), str(tmp_path / inst["file"])])
                captured = capsys.readouterr()
                digest.update(f"{code}\n{captured.out}\0{captured.err}\0".encode())
        assert digest.hexdigest() == self.DIGESTS[command, seed]


class TestOracleCertifyPinned:
    """Every oracle-certify op of seeds 1-3 (decide_weak, both oracle
    kinds, both matchers, the 3DM reduction and its read-back), run and
    encoded as perfbench/worker.py does, pinned by digest.  Of decide_weak
    the digest holds only the verdict: which weak perfect forest the
    matching on H reads back is not fixed, so each forest is checked
    against the definition instead."""

    DIGESTS = {
        1: ("9449ddf89396cbdbeb7371e2f7d75f3b1a8d34bd087b3becdff19da9dc6e496d",
            "9243d62e51b7b08979bc87c7cc6debd23ed43bf5c83b718e3f6bcc5fbac3ee88"),
        2: ("6de03b4550fc6cdea08d4e4e2ffeadb94892340344dd46f6f3bb442253f5eb4e",
            "eca73abe6c805aa0a4c7b056d370d92d3b1f34f8dea585d5e7f836700fd9958b"),
        3: ("33739d8e038818ba614ab2534abcc6f8bec5f2dc3109ae6423c14d34d10d5dae",
            "d667cde95ef24eda4f9df034aa90912c2c033759d78e48932378fb6b8e79657e"),
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_byte_identical(self, seed, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import check
        import gen
        import worker

        manifest = gen.generate("oracle-certify", seed, tmp_path)
        inputs, outputs = self.DIGESTS[seed]
        assert manifest["inputs_sha256"] == inputs, "the benchmark generator changed"
        digest = hashlib.sha256()
        forests = 0
        for inst in manifest["instances"]:
            op, encode = worker.make_op(inst, tmp_path / inst["file"])
            code, text = encode(op())
            if inst["type"] == "cert-digraph":
                out = json.loads(text)
                forest = out.pop("decide_weak")
                if forest is not None:
                    arcs = gen.read_pairs(tmp_path / inst["file"])
                    parent = {int(c): p for c, p in forest.items()}
                    assert check.check_out_forest(inst["n"], arcs, parent, "weak") is None
                    forests += 1
                out["decide_weak_exists"] = forest is not None
                text = json.dumps(out, sort_keys=True)
            digest.update(f"{code}\n{text}\0".encode())
        assert forests > 100
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
    about 0.2 s and 0.1 s there, so the bound is loose.  Beside them fan,
    on which a gadget with d+(u)^2 edges per vertex took 16.5 s and
    1 248 MiB at n = 2 000."""

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

    def test_fan_decide_weak_perfect(self, tmp_path, capsys, monkeypatch):
        # sources 0 and 1 each have an arc to every vertex of a directed
        # cycle on 2..n-1: two initial components, so H decides it
        n = 20000
        arcs = ([(s, v) for s in (0, 1) for v in range(2, n)]
                + [(v, v + 1) for v in range(2, n - 1)] + [(n - 1, 2)])
        p = tmp_path / "fan.dg"
        p.write_text(f"{n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs))
        code, out, elapsed = self.timed(
            ["decide", "--kind", "weak-perfect", "--json", str(p)], capsys)
        assert code == 0 and out["exists"]
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import check

        parent = {int(c): p for c, p in out["forest"].items()}
        assert check.check_out_forest(n, arcs, parent, "weak") is None
        assert elapsed < self.BOUND_S, elapsed
