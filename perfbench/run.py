"""Benchmark for the outforest library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gadget-decide --seed 1 --seconds 38 --trace 0

Generates the workload's inputs from the seed, measures set-up time in
fresh processes, runs the closed loop in a child process (worker.py) that
runs only that workload, checks every verdict and witness with the
checkers in check.py, and prints a report whose last line is one JSON
object.  Op and set-up times are scaled to a reference machine speed with
the kernel of calib.py, timed between ops (see calib.py).  With --trace 0 it holds the end-to-end metrics; with --trace 1
the per-layer metrics of a traced run, whose spans are kept in
.perfbench_run/WORKLOAD.spans.csv.  Generated inputs are removed after the
run.  Exits with 2, printing no result, when the program under test is
missing or the run cannot complete.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import check  # noqa: E402
from gen import WORKLOADS, generate, read_pairs  # noqa: E402
from tracing import TIMED  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 170
# kernel samples within this many seconds of an op's midpoint scale it
SCALE_WINDOW_S = 2.0
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import outforest, outforest.cli; "
    "d = time.perf_counter() - t; import calib; print(repr(d), repr(calib.kernel_ms(5)))"
)

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

SELF_TIMED = tuple(f"{layer}.{name}" for layer, names in TIMED.items() for name in names)
SIZE_COUNTERS = (
    "graphs.n", "graphs.m", "graphs.tree_depth",
    "construct.gadget_vertices", "construct.gadget_edges",
    "construct.cycle_vertices_stripped",
    "matching.matched_edges", "matching.exposed_vertices",
    "hardness.reduced_n", "hardness.reduced_m",
)
CALL_COUNTERS = (
    "matching.maximum_matching.calls", "forests.verify.calls",
    "forests.classify_arc.calls", "forests.is_ancestor.calls",
    "forests.outforest_built", "oracle.oracle_forest.calls",
    "construct.swaps", "construct.swap_scan_arcs", "oracle.leaves_verified",
    "trace.ops",
)
RATIOS = (
    "construct.swap_hit_ratio", "oracle.leaf_hit_ratio",
    "trace.overhead_ratio", "trace.self_share",
    "share.gadget_route", "share.tree_route", "share.oracle",
)
PER_LAYER = (
    tuple((f"{name}.self_s", "s") for name in SELF_TIMED)
    + tuple((name, "count") for name in SIZE_COUNTERS + CALL_COUNTERS)
    + tuple((name, "ratio") for name in RATIOS)
)

# Which self times make up each dominance prediction, and the workload it
# is made for.  A prediction holds when its share of all self time is
# above one half.
SHARES = {
    "share.gadget_route": ("gadget-decide", (
        "matching.maximum_matching", "construct.build_gadget")),
    "share.tree_route": ("scott-tree", (
        "construct.even_tree_to_weak", "construct.weak_to_almost",
        "graphs.spanning_out_tree")),
    "share.oracle": ("oracle-certify", ("oracle.oracle_forest", "oracle.oracle_matching")),
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + str(HERE)
    return env


def measure_setup():
    """Median time to import outforest and its submodules in a fresh
    process, each scaled by the kernel timed in that process right after,
    and the median unscaled time.  The first import, which may write
    bytecode, is not counted."""
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], env=_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            seconds, kernel_ms = map(float, out.stdout.split())
            scaled.append(seconds * calib.REFERENCE_MS / kernel_ms)
            raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def scale_times(results, calibration):
    """Set r["scaled_ms"] for every op: its time times REFERENCE_MS over
    the median kernel time sampled within SCALE_WINDOW_S of its midpoint
    (the nearest sample if none is)."""
    ts = [t for t, _ in calibration]
    for r in results:
        mid = r["t"] + r["ms"] / 2e3
        lo = bisect.bisect_left(ts, mid - SCALE_WINDOW_S)
        hi = bisect.bisect_right(ts, mid + SCALE_WINDOW_S)
        if lo == hi:
            lo = min(range(len(ts)), key=lambda i: abs(ts[i] - mid))
            hi = lo + 1
        kernel_ms = statistics.median(k for _, k in calibration[lo:hi])
        r["scaled_ms"] = r["ms"] * calib.REFERENCE_MS / kernel_ms


def run_worker(work, seconds, trace):
    """Run worker.py to completion; return its peak RSS in MiB."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(work / "manifest.json"),
           repr(seconds), str(trace)]
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=log, stderr=log)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    pid = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s")
            time.sleep(0.05)
    finally:
        if not pid:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        log_text = (work / "worker.log").read_text(encoding="utf-8")
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{log_text}")
    return usage.ru_maxrss / 1024


class Checker:
    """Checks op outcomes against the instance's expected verdict with the
    checkers in check.py.  Identical outcomes are checked once."""

    def __init__(self, work, instances):
        self.work = work
        self.instances = instances
        self._pairs = {}
        self._seen = {}

    def pairs(self, inst):
        if inst["id"] not in self._pairs:
            self._pairs[inst["id"]] = read_pairs(self.work / inst["file"])
        return self._pairs[inst["id"]]

    def __call__(self, rec):
        """None if the op's outcome is right, else the reason it is not."""
        if rec["error"] is not None:
            return "exception: " + rec["error"].strip().splitlines()[-1]
        key = (rec["inst"], rec["code"], rec["out"])
        if key not in self._seen:
            inst = self.instances[rec["inst"]]
            try:
                self._seen[key] = self._check(inst, rec["code"], rec["out"])
            except (ValueError, KeyError, TypeError) as exc:
                self._seen[key] = f"malformed output: {exc!r}"
        return self._seen[key]

    def _check(self, inst, code, text):
        n, kind, expect = inst["n"], inst["type"], inst["expect"]
        pairs = self.pairs(inst)
        if kind in ("digraph", "ugraph"):
            want = expect["exists"]
            if code != (0 if want else 1):
                return f"exit code {code}, expected {0 if want else 1}"
            out = json.loads(text)
            if out["exists"] is not want:
                return f"exists={out['exists']}, expected {want}"
            if not want:
                return None
            if kind == "ugraph":
                return check.check_perfect_forest(n, pairs, [tuple(e) for e in out["edges"]])
            parent = {int(c): p for c, p in out["forest"].items()}
            if out["roots"] != [v for v in range(n) if v not in parent]:
                return "roots do not match the forest"
            return check.check_out_forest(n, pairs, parent, "almost")
        out = json.loads(text)
        if kind == "cert-digraph":
            for field, kind_name, want in (
                ("decide_weak", "weak", expect["weak"]),
                ("oracle_weak", "weak", expect["weak"]),
                ("oracle_perfect", "perfect", expect["perfect"]),
            ):
                forest = out[field]
                if (forest is not None) is not want:
                    return f"{field}: exists={forest is not None}, expected {want}"
                if forest is not None:
                    parent = {int(c): p for c, p in forest.items()}
                    reason = check.check_out_forest(n, pairs, parent, kind_name)
                    if reason:
                        return f"{field}: {reason}"
            return None
        if kind == "cert-graph":
            for field in ("matching", "oracle_matching"):
                m = [tuple(e) for e in out[field]]
                reason = check.check_matching(n, pairs, m)
                if reason:
                    return f"{field}: {reason}"
                if len(m) != expect["size"]:
                    return f"{field}: size {len(m)}, expected {expect['size']}"
            return None
        if kind == "cert-3dm":
            sol = out["solution"]
            if (sol is not None) is not expect["exists"]:
                return f"solution exists={sol is not None}, expected {expect['exists']}"
            return None if sol is None else check.check_3dm_solution(inst["k"], pairs, sol)
        return f"unknown instance type {kind!r}"


def tail(times):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it."""
    xs = sorted(times)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def self_times(spans_path):
    """Per span name: summed self time (duration minus the durations of
    its child spans) and number of calls."""
    rows = []
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            name, start, end, parent, op = line.rstrip("\n").split(",")
            rows.append((name, float(end) - float(start), int(parent), int(op)))
    child = [0.0] * len(rows)
    for name, dur, parent, op in rows:
        if parent >= 0:
            child[parent] += dur
    self_s, calls, by_parent = defaultdict(float), defaultdict(int), defaultdict(int)
    for i, (name, dur, parent, op) in enumerate(rows):
        self_s[name] += dur - child[i]
        calls[name] += 1
        by_parent[name, rows[parent][0] if parent >= 0 else None] += 1
    return self_s, calls, by_parent


def layer_metrics(work, workload, results, report):
    self_s, calls, by_parent = self_times(work / "spans.csv")
    counts = json.loads((work / "counts.json").read_text(encoding="utf-8"))
    counted = defaultdict(int)
    for key, c in counts["calls"].items():
        name, caller = key.split("|")
        counted[name] += c
        counted[name, caller] += c
    sizes = counts["sizes"]
    m = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIMED}
    m.update({name: sizes.get(name, 0) for name in SIZE_COUNTERS})
    m.update({
        "matching.maximum_matching.calls": calls.get("matching.maximum_matching", 0),
        "forests.verify.calls": calls.get("forests.verify", 0),
        "forests.classify_arc.calls": counted["forests.classify_arc"],
        "forests.is_ancestor.calls": counted["forests.is_ancestor"],
        "forests.outforest_built": counted["forests.outforest_built"],
        "oracle.oracle_forest.calls": calls.get("oracle.oracle_forest", 0),
        "construct.swaps": counted["forests.outforest_built", "construct.weak_to_almost"],
        "construct.swap_scan_arcs": counted["forests.classify_arc", "construct.weak_to_almost"],
        "oracle.leaves_verified": by_parent["forests.verify", "oracle.oracle_forest"],
    })
    m["construct.swap_hit_ratio"] = m["construct.swaps"] / max(1, m["construct.swap_scan_arcs"])
    m["oracle.leaf_hit_ratio"] = sizes.get("oracle.found", 0) / max(1, m["oracle.leaves_verified"])
    traced = [r["ms"] for r in results if r["traced"]]
    traced_scaled = [r["scaled_ms"] for r in results if r["traced"]]
    untraced_scaled = [r["scaled_ms"] for r in results if not r["traced"]]
    m["trace.ops"] = len(traced)
    total_self = sum(self_s.values())
    m["trace.overhead_ratio"] = sum(traced_scaled) / sum(untraced_scaled) - 1
    m["trace.self_share"] = total_self * 1e3 / sum(traced)
    for share, (target, names) in SHARES.items():
        m[share] = sum(self_s.get(name, 0.0) for name in names) / total_self
    report.append(f"traced ops {len(traced)}, untraced ops {len(untraced_scaled)} (same instances)")
    report.append(f"tracing overhead {100 * m['trace.overhead_ratio']:.1f}% of untraced op time; "
                  f"self times cover {100 * m['trace.self_share']:.1f}% of traced op time")
    for share, (target, names) in SHARES.items():
        if target == workload:
            verdict = "HOLDS" if m[share] > 0.5 else "FAILS"
            report.append(f"prediction {verdict}: {' + '.join(names)} carry "
                          f"{100 * m[share]:.1f}% of self time (needs > 50%)")
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
    report.append("largest self times: " + ", ".join(
        f"{name} {100 * s / total_self:.1f}%" for name, s in top))
    return m


def run_benchmark(workload, seed, seconds, trace):
    if not (SRC / "outforest" / "__init__.py").is_file():
        raise FileNotFoundError(f"program under test not found at {SRC / 'outforest'}")
    work = RUN_DIR / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = generate(workload, seed, work)
        setup_s, setup_raw_s = measure_setup() if trace == 0 else (None, None)
        peak_rss_mb = run_worker(work, seconds, trace)
        lines = (work / "results.jsonl").read_text(encoding="utf-8").splitlines()
        summary = json.loads(lines[-1])
        results = [json.loads(line) for line in lines[:-1]]
        scale_times(results, summary["calibration"])
        kernel = sorted(k for _, k in summary["calibration"])
        checker = Checker(work, manifest["instances"])
        failures = [(r, checker(r)) for r in results]
        failures = [(r, why) for r, why in failures if why]
        if trace:
            # traced and untraced runs of one instance must agree exactly
            outcome = defaultdict(set)
            for r in results:
                outcome[r["pass"], r["inst"]].add((r["code"], r["out"], r["error"] is None))
            failures += [(r, "traced and untraced outcomes differ") for r in results
                         if r["traced"] and len(outcome[r["pass"], r["inst"]]) > 1]
        failed = len({r["op"] for r, _ in failures})
        report = [
            f"workload {workload}, seed {seed}, inputs sha256 {manifest['inputs_sha256'][:16]}",
            f"closed loop, 1 client, {summary['passes']} passes in {summary['wall_s']:.2f} s",
            f"reference kernel {statistics.median(kernel):.3f} ms median of {len(kernel)} "
            f"samples ({kernel[0]:.3f}-{kernel[-1]:.3f}); times below are scaled to "
            f"{calib.REFERENCE_MS} ms",
        ]
        attempted = len(results)
        for r, why in failures[:5]:
            report.append(f"FAILED op {r['op']} (instance {r['inst']}): {why}")
        if trace:
            metrics = layer_metrics(work, workload, results, report)
            kept = RUN_DIR / f"{workload}.spans.csv"
            (work / "spans.csv").replace(kept)
            report.append(f"spans (name, start, end, parent, op) kept in {kept.relative_to(ROOT)}")
            units = dict(PER_LAYER)
        else:
            times = [r["scaled_ms"] for r in results]
            tail_ms, pct, beyond = tail(times)
            metrics = {
                "ops_per_s": attempted / (sum(times) / 1e3),
                "op_p50_ms": statistics.median(times),
                "op_tail_ms": tail_ms,
                "ok_ratio": 1 - failed / attempted,
                "peak_rss_mb": peak_rss_mb,
                "setup_s": setup_s,
            }
            units = dict(END_TO_END)
            report.append(f"op_tail_ms is p{pct:.1f} of {attempted} ops ({beyond} beyond it)")
            raw = [r["ms"] for r in results]
            report.append(
                f"unscaled: {attempted / summary['wall_s']:.4g} op/s over the loop's wall "
                f"time, op p50 {statistics.median(raw):.4g} ms, op tail {tail(raw)[0]:.4g} ms, "
                f"set-up {setup_raw_s:.4g} s")
            report.append(f"fail_ratio {failed / attempted:.4f} "
                          f"({failed} failed of {attempted} attempted)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in report:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
