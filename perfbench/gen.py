"""Seeded input generator for the benchmark workloads.

`generate(workload, seed, out_dir)` writes one input file per instance and
a `manifest.json` describing them.  The same workload and seed give
byte-identical files.  Each manifest entry records n, m, the expected
verdict and why the instance belongs to the workload; the expected verdict
comes from how the instance was built (a theorem, a planted obstruction)
or from the brute force in `check.py`, never from the program under test.

An instance pool is a list of passes.  The benchmark loop runs whole
passes, so every run sees the same mix of instance classes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

from check import brute_3dm, forest_existence, max_matching_size

WORKLOADS = ("gadget-decide", "scott-tree", "oracle-certify")

# Passes in a pool: more than a run of the benchmark's length gets
# through, so no instance repeats inside one run on today's code.
POOL_PASSES = {"gadget-decide": 24, "scott-tree": 24, "oracle-certify": 80}

GADGET_SIZES = (48, 64, 80)
SCOTT_RANDOM_SIZES = (1000, 2000)
SCOTT_DEEP_SIZE = 2000
CERT_DIGRAPHS_PER_PASS = 5
CERT_GRAPHS_PER_PASS = 3


def _pairs_text(header, pairs):
    """Header "header m", then one sorted pair (or triple) per line: the
    edge-list format of the CLI and the 3DM format of outforest.hardness."""
    lines = "".join(" ".join(map(str, p)) + "\n" for p in sorted(pairs))
    return f"{header} {len(pairs)}\n" + lines


def read_pairs(path):
    """The pairs (arcs, edges or triples) of an input file, header skipped."""
    lines = path.read_text(encoding="utf-8").split("\n")[1:]
    return [tuple(int(x) for x in line.split()) for line in lines if line]


def _relabel(rng, n, pairs):
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for (u, v) in pairs]


def _out_degree_three(rng, verts, targets, arcs):
    """Add a Hamiltonian cycle through `verts` and then out-arcs from each
    vertex to random `targets` until its out-degree is three."""
    order = list(verts)
    rng.shuffle(order)
    out = {v: set() for v in order}
    for i, v in enumerate(order):
        out[v].add(order[(i + 1) % len(order)])
    for v in order:
        while len(out[v]) < 3:
            w = rng.choice(targets)
            if w != v:
                out[v].add(w)
    arcs.update((v, w) for v in order for w in out[v])


def gadget_yes(rng, n):
    arcs = set()
    _out_degree_three(rng, range(n), range(n), arcs)
    return _relabel(rng, n, arcs)


def gadget_no(rng, n):
    # vertices 0, 1, 2 are sources whose only out-neighbour is vertex 3
    rest = range(3, n)
    arcs = {(s, 3) for s in range(3)}
    _out_degree_three(rng, rest, rest, arcs)
    return _relabel(rng, n, arcs)


def _random_connected(rng, n, m):
    """Random recursive tree (shallow) plus random extra edges up to m."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return [(min(u, v), max(u, v)) for (u, v) in _relabel(rng, n, edges)]


def _deep_path(rng, n, chords):
    """Path 0-1-...-(n-1) plus short random chords.  Vertex 0 is an end of
    the path and roots the BFS tree, which is then about 0.8 n deep."""
    edges = {(v, v + 1) for v in range(n - 1)}
    target = len(edges) + chords
    while len(edges) < target:
        u = rng.randrange(n - 4)
        edges.add((u, min(n - 1, u + rng.randint(2, 4))))
    return sorted(edges)


def _connected(n, pairs):
    adj = [[] for _ in range(n)]
    for (u, v) in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _random_pairs(rng, n, p, directed):
    slots = [
        (u, v) for u in range(n) for v in range(n) if u != v and (directed or u < v)
    ]
    return [s for s in slots if rng.random() < p]


def _instances(workload, rng):
    """Yield (pass index, entry, payload) for every instance of the pool."""
    for p in range(POOL_PASSES[workload]):
        if workload == "gadget-decide":
            for n in GADGET_SIZES:
                yield p, {
                    "type": "digraph", "class": f"n{n}-yes", "n": n,
                    "expect": {"exists": True},
                    "why": "Hamiltonian cycle makes it strongly connected and "
                    "of even order, so the theorem guarantees a forest",
                }, gadget_yes(rng, n)
                yield p, {
                    "type": "digraph", "class": f"n{n}-no", "n": n,
                    "expect": {"exists": False},
                    "why": "three in-degree-0 vertices share their only "
                    "out-neighbour, which can take one parent only",
                }, gadget_no(rng, n)
        elif workload == "scott-tree":
            for n in SCOTT_RANDOM_SIZES:
                yield p, {
                    "type": "ugraph", "class": f"random-{n}", "n": n,
                    "expect": {"exists": True},
                    "why": "connected sparse random graph of even order "
                    "(Scott's theorem); shallow BFS tree, many swap scans",
                }, _random_connected(rng, n, 3 * n)
            yield p, {
                "type": "ugraph", "class": f"deep-{SCOTT_DEEP_SIZE}",
                "n": SCOTT_DEEP_SIZE, "expect": {"exists": True},
                "why": "path with short chords, connected and of even order "
                "(Scott's theorem); deep BFS tree",
            }, _deep_path(rng, SCOTT_DEEP_SIZE, SCOTT_DEEP_SIZE // 10)
        else:
            for _ in range(CERT_DIGRAPHS_PER_PASS):
                while True:
                    arcs = _random_pairs(rng, 8, 0.2, directed=True)
                    if _connected(8, arcs):
                        break
                weak, perfect = forest_existence(8, arcs)
                yield p, {
                    "type": "cert-digraph", "class": "digraph-8", "n": 8,
                    "expect": {"weak": weak, "perfect": perfect},
                    "why": "connected even digraph: gadget decider and "
                    "both oracle kinds against the partition brute force",
                }, arcs
            for _ in range(CERT_GRAPHS_PER_PASS):
                edges = _random_pairs(rng, 12, 0.3, directed=False)
                yield p, {
                    "type": "cert-graph", "class": "graph-12", "n": 12,
                    "expect": {"size": max_matching_size(12, edges)},
                    "why": "matcher and matching oracle against the "
                    "bitmask brute force",
                }, edges
            # every pass holds one instance with and one without a solution
            slots = list(itertools.product(range(2), repeat=3))
            for want in (True, False):
                while True:
                    triples = sorted(rng.sample(slots, 4))
                    if brute_3dm(2, triples) == want:
                        break
                yield p, {
                    "type": "cert-3dm", "class": "3dm-" + ("yes" if want else "no"),
                    "n": 12, "k": 2, "expect": {"exists": want},
                    "why": "k = 2 3DM through the reduction and the perfect "
                    "oracle, against the 3DM brute force",
                }, triples


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the instance pool of `workload` for `seed` into `out_dir` and
    return the manifest (also written as manifest.json)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    instances, passes = [], [[] for _ in range(POOL_PASSES[workload])]
    for p, entry, payload in _instances(workload, rng):
        name = f"i{len(instances):04d}.txt"
        text = _pairs_text(entry.get("k", entry["n"]), payload)
        (out_dir / name).write_text(text, encoding="utf-8")
        digest.update(name.encode() + b"\0" + text.encode())
        entry = {"id": len(instances), "file": name, "m": len(payload), **entry}
        passes[p].append(entry["id"])
        instances.append(entry)
    manifest = {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": digest.hexdigest(),
        "passes": passes,
        "instances": instances,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest
