"""One benchmark run of one workload, in a process of its own.

Usage: python3 worker.py MANIFEST SECONDS TRACE

A closed loop with one client: the next op starts when the previous one
has returned.  The loop runs whole passes, cycling through the instance
pool, and starts a new pass only while that is expected to end nearer to
SECONDS than stopping now.  With TRACE=1 every pass runs twice, untraced
and traced in alternating order, so the tracing overhead is measured on
the same instances.

Every CALIBRATE_EVERY_S, between two ops, the loop times the reference
kernel of calib.py; the samples go into the summary, and the parent
scales each op time by the samples taken near it.

Each op's outcome goes to results.jsonl beside the manifest, written
after the op's clock has stopped; the parent process checks it.  With
TRACE=1 the spans and counts go to spans.csv and counts.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

import outforest
from outforest import cli, construct, hardness, matching, oracle
from outforest.forests import ForestKind

import calib
from tracing import Tracer

CALIBRATE_EVERY_S = 0.25


def _read_pairs(path):
    # the same reader as gen.read_pairs, repeated so that this process, whose
    # peak RSS is a metric, loads no benchmark module besides tracing.py
    lines = path.read_text(encoding="utf-8").split("\n")[1:]
    return [tuple(int(x) for x in line.split()) for line in lines if line]


def _forest(f):
    return None if f is None else {str(c): p for c, p in sorted(f.parent.items())}


def _matching(m):
    return sorted(list(e) for e in m.edges)


def make_op(inst, path):
    """Return (run, encode): run() performs the timed op and returns its
    raw outcome; encode(outcome) -> (exit code, output text), untimed."""
    kind = inst["type"]
    if kind in ("digraph", "ugraph"):
        argv = (["decide", "--kind", "almost-perfect", str(path), "--json"]
                if kind == "digraph" else ["scott", str(path), "--json"])

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            return code, out.getvalue()

        return run, lambda outcome: outcome
    pairs = _read_pairs(path)
    n = inst["n"]
    if kind == "cert-digraph":
        d = outforest.Digraph(n, frozenset(pairs))
        budget = outforest.OracleBudget(max_vertices=n)

        def run():
            return (construct.decide_weak(d),
                    oracle.oracle_forest(d, ForestKind.WEAK_PERFECT, budget),
                    oracle.oracle_forest(d, ForestKind.PERFECT, budget))

        def encode(o):
            return 0, json.dumps({"decide_weak": _forest(o[0]), "oracle_weak": _forest(o[1]),
                                  "oracle_perfect": _forest(o[2])}, sort_keys=True)
    elif kind == "cert-graph":
        g = outforest.UGraph(n, frozenset(pairs))
        budget = outforest.OracleBudget(max_vertices=n)

        def run():
            return matching.maximum_matching(g), oracle.oracle_matching(g, budget)

        def encode(o):
            return 0, json.dumps({"matching": _matching(o[0]),
                                  "oracle_matching": _matching(o[1])})
    elif kind == "cert-3dm":
        inst3 = outforest.ThreeDMInstance(inst["k"], tuple(pairs))
        budget = outforest.OracleBudget(max_vertices=n)

        def run():
            d, rmap = hardness.reduce_3dm(inst3)
            f = oracle.oracle_forest(d, ForestKind.PERFECT, budget)
            return None if f is None else hardness.extract_solution(d, f, rmap)

        def encode(sol):
            return 0, json.dumps({"solution": None if sol is None else sorted(sol)})
    else:
        raise ValueError(f"unknown instance type {kind!r}")
    return run, encode


def main(manifest_path, seconds, traced):
    manifest_path = Path(manifest_path)
    work = manifest_path.parent
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    ops = {inst["id"]: make_op(inst, work / inst["file"]) for inst in manifest["instances"]}
    tracer = Tracer() if traced else None
    clock = time.perf_counter
    op_id = 0
    start = last_calibration = clock()
    calibration = []

    def calibrate():
        nonlocal last_calibration
        last_calibration = clock()
        calibration.append((last_calibration - start, calib.kernel_ms()))

    def one(out, p, inst_id, with_trace):
        nonlocal op_id
        run, encode = ops[inst_id]
        if clock() - last_calibration >= CALIBRATE_EVERY_S:
            calibrate()
        if with_trace:
            tracer.op_id = op_id
            tracer.install()
        error = outcome = None
        t0 = clock()
        try:
            outcome = run()
        except Exception:
            error = traceback.format_exc(limit=-3)
        t1 = clock()
        if with_trace:
            tracer.uninstall()
            tracer.finish_op()
        code = text = None
        if error is None:
            try:
                code, text = encode(outcome)
            except Exception:
                error = traceback.format_exc(limit=-3)
        out.write(json.dumps({"op": op_id, "pass": p, "inst": inst_id, "traced": with_trace,
                              "t": t0 - start, "ms": (t1 - t0) * 1e3, "code": code, "out": text,
                              "error": error}) + "\n")
        op_id += 1

    passes = manifest["passes"]
    # lazy set-up inside the program (argparse, first-call caches) is not
    # what the loop measures: one untimed op warms it.  Should it fail, the
    # same op fails again inside the loop, where it is counted.
    try:
        ops[passes[0][0]][0]()
    except Exception:
        pass
    with open(work / "results.jsonl", "w", encoding="utf-8") as out:
        start = clock()
        calibrate()
        done = 0
        while True:
            elapsed = clock() - start
            if done and elapsed + elapsed / done / 2 > seconds:
                break
            for inst_id in passes[done % len(passes)]:
                if traced and done % 2:
                    one(out, done, inst_id, True)
                    one(out, done, inst_id, False)
                elif traced:
                    one(out, done, inst_id, False)
                    one(out, done, inst_id, True)
                else:
                    one(out, done, inst_id, False)
            done += 1
        wall = clock() - start
        calibrate()
        out.write(json.dumps({"summary": True, "wall_s": wall, "passes": done,
                              "calibration": calibration}) + "\n")
    if traced:
        tracer.write(work / "spans.csv", work / "counts.json")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1")
