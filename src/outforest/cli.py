"""Command-line front end.

Exit codes: 0 = decided/constructed/verified successfully, 1 = the object
decided does not exist (or verification failed), 2 = input/usage error,
3 = internal error.  The exception's type alone picks 2 or 3: InputError
(bad file contents or flags, an input over a size limit), OSError and
UnicodeError give 2; every other exception, InvariantError, MemoryError
and a ValueError from a constructor among them, is a fault of this
package and gives 3.  `--time-limit`, when given, must be a positive,
finite number of seconds.  `reduce-3dm` refuses an instance whose
reduced digraph would have more than INPUT_MAX_SIZE vertices plus arcs.

Subcommands: classify, decide, construct, verify, gadget, match,
reduce-3dm, oracle, scott.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .construct import (
    build_gadget,
    decide_weak,
    perfect_forest_undirected,
    weak_to_almost,
)
from .errors import BudgetExceeded, InputError
from .forests import (
    ForestKind,
    format_forest,
    parse_forest,
    verify,
)
from .graphs import (
    classify,
    digraph_dot,
    format_digraph,
    format_ugraph,
    parse_digraph,
    parse_ugraph,
    ugraph_dot,
    weak_components,
)
from .hardness import parse_3dm, reduce_3dm
from .matching import maximum_matching
from .oracle import OracleBudget, oracle_forest

SCHEMA = 1
# bound on the `gadget` subcommand's vertices plus edges; at a bound of
# 403 650 (n = 300, m = 900) the command took 1.4 s and 121 MiB on a
# 2-core machine, and both grow linearly with the bound
GADGET_MAX_SIZE = 500_000
# bound on n + m of the input to classify, decide, match and scott, and
# of the digraph reduce-3dm writes (the 3DM reduction's Y block is
# complete, so that digraph grows as m^2 in the number of triples); at
# n + m = 500 000 (m = 2n, sparse and random) `decide --kind almost-perfect`
# took 3.6 s and 202 MiB and `scott` 4.4 s and 210 MiB on a 2-core
# machine, and both grow linearly with n + m
INPUT_MAX_SIZE = 500_000

KIND_NAMES = {
    "perfect": ForestKind.PERFECT,
    "almost-perfect": ForestKind.ALMOST_PERFECT,
    "weak-perfect": ForestKind.WEAK_PERFECT,
    "even": ForestKind.EVEN,
}


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit_json(payload: dict):
    print(json.dumps({"schema": SCHEMA, **payload}))


def _check_size(n: int, m: int):
    """Refuse an input over INPUT_MAX_SIZE, before any per-vertex work."""
    if n + m > INPUT_MAX_SIZE:
        raise BudgetExceeded(
            f"the input has n + m = {n + m}, over the limit of {INPUT_MAX_SIZE}"
        )


def _budget(args) -> OracleBudget:
    try:
        return OracleBudget(args.max_vertices, args.max_states, args.time_limit)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _decide_forest(d, kind: ForestKind, use_oracle: bool, budget: OracleBudget):
    """The forest of the requested kind, or None, already checked by its
    producer for that kind or a stronger one: `oracle_forest` checks the
    kind asked, `weak_to_almost` almost perfect and `decide_weak` weak
    perfect.  Weak perfect implies even: the |T| degrees of a tree T are
    odd and add up to 2(|T|-1), so |T| is even."""
    if use_oracle or kind is ForestKind.PERFECT:
        return oracle_forest(d, kind, budget)
    f = decide_weak(d)
    if f is not None and kind is ForestKind.ALMOST_PERFECT:
        return weak_to_almost(d, f)
    return f


def cmd_classify(args) -> int:
    d = parse_digraph(_read(args.graph))
    _check_size(d.n, len(d.arcs))
    cls = classify(d)
    if args.json:
        _emit_json({"class": cls.value})
    else:
        print(cls.value)
    return 0


def cmd_decide(args) -> int:
    kind = KIND_NAMES[args.kind]
    d = parse_digraph(_read(args.graph))
    _check_size(d.n, len(d.arcs))
    if kind is ForestKind.PERFECT and not args.oracle:
        print(
            "perfect out-forest decision is NP-hard; rerun with --oracle",
            file=sys.stderr,
        )
        return 2
    if len(weak_components(d)) > 1:
        print("warning: input digraph is disconnected", file=sys.stderr)
    f = _decide_forest(d, kind, args.oracle, _budget(args))
    if f is None:
        if args.json:
            _emit_json({"kind": args.kind, "exists": False})
        else:
            print(f"no {args.kind} out-forest")
        return 1
    if args.json:
        _emit_json(
            {
                "kind": args.kind,
                "exists": True,
                "forest": {str(c): p for c, p in sorted(f.parent.items())},
                "roots": f.roots,
            }
        )
    elif args.dot:
        _write(args.output, digraph_dot(d, bold_arcs=f.arcs()))
    else:
        _write(args.output, format_forest(f))
    return 0


def cmd_verify(args) -> int:
    kind = KIND_NAMES[args.kind]
    d = parse_digraph(_read(args.graph))
    f = parse_forest(_read(args.forest))
    report = verify(d, f, kind)
    if args.json:
        print(report.to_json())
    else:
        if report.passed:
            print("pass")
        else:
            print("fail")
            for rule, witness in report.violations:
                print(f"  {rule}: {witness}")
    return 0 if report.passed else 1


def cmd_gadget(args) -> int:
    d = parse_digraph(_read(args.graph))
    # n(n-1) vertices, at most n(n-1)/2 pair edges and m(n-1) arc edges
    size = (d.n - 1) * (3 * d.n // 2 + len(d.arcs))
    if size > GADGET_MAX_SIZE:
        raise BudgetExceeded(
            f"the uniform gadget of n={d.n}, m={len(d.arcs)} has up to {size} "
            f"vertices and edges, over the limit of {GADGET_MAX_SIZE}"
        )
    g, c = build_gadget(d)
    if args.dot:
        _write(args.output, ugraph_dot(g))
    else:
        _write(args.output, format_ugraph(g))
    if args.sidecar:
        _write(args.sidecar, c.format_sidecar())
    return 0


def cmd_match(args) -> int:
    g = parse_ugraph(_read(args.graph))
    _check_size(g.n, len(g.edges))
    m = maximum_matching(g)
    if args.json:
        _emit_json(
            {
                "size": len(m),
                "perfect": 2 * len(m) == g.n,
                "edges": sorted(list(e) for e in m.edges),
            }
        )
    else:
        print(f"matching size {len(m)}" + (" (perfect)" if 2 * len(m) == g.n else ""))
        for (u, v) in sorted(m.edges):
            print(f"{u} {v}")
    return 0


def cmd_reduce_3dm(args) -> int:
    inst = parse_3dm(_read(args.instance))
    k, m = inst.k, inst.m
    # n plus the arcs of X, then of Y (see hardness.reduce_3dm)
    size = 2 * (m + k) + (m - k) * (m + 6 * k) + m * (m + 2)
    if m >= k and size > INPUT_MAX_SIZE:
        raise BudgetExceeded(
            f"the reduced digraph of k={k}, m={m} has n + arcs = {size}, "
            f"over the limit of {INPUT_MAX_SIZE}"
        )
    d, rmap = reduce_3dm(inst)
    if rmap.degenerate:
        print(
            "warning: m = k leaves the hub block empty; "
            "the reduced digraph is not strongly connected",
            file=sys.stderr,
        )
    if args.dot:
        _write(args.output, digraph_dot(d))
    else:
        _write(args.output, format_digraph(d))
    if args.sidecar:
        _write(args.sidecar, rmap.format_sidecar())
    return 0


def cmd_scott(args) -> int:
    g = parse_ugraph(_read(args.graph))
    _check_size(g.n, len(g.edges))
    edges = perfect_forest_undirected(g)
    if edges is None:
        reason = "odd order" if g.n % 2 == 1 else "disconnected input"
        if args.json:
            _emit_json({"exists": False, "reason": reason})
        else:
            print(f"no perfect forest ({reason})")
        return 1
    if args.json:
        # json writes the (u, v) tuples as [u, v] arrays
        _emit_json({"exists": True, "edges": sorted(edges)})
    elif args.dot:
        _write(args.output, ugraph_dot(g, bold_edges=edges))
    else:
        lines = [f"{g.n} {len(edges)}"] + [f"{u} {v}" for (u, v) in sorted(edges)]
        _write(args.output, "\n".join(lines) + "\n")
    return 0


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-vertices", type=int, default=10)
    p.add_argument("--max-states", type=int, default=10**8)
    p.add_argument("--time-limit", type=float, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="outforest",
        description="Decide and construct perfect-forest generalizations in digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the connectivity class")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    for name, help_text in (
        ("decide", "decide existence and print a forest"),
        ("construct", "construct a forest and write it to a file"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph")
        p.add_argument("--kind", choices=sorted(KIND_NAMES), required=True)
        p.add_argument(
            "--oracle",
            action="store_true",
            help="use the exponential ground-truth search (required for 'perfect')",
        )
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--json", action="store_true")
        p.add_argument("--dot", action="store_true")
        _add_budget_flags(p)
        p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify", help="check a forest file against a digraph")
    p.add_argument("graph")
    p.add_argument("forest")
    p.add_argument("--kind", choices=sorted(KIND_NAMES), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gadget", help="emit the matching-gadget graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--sidecar", default=None)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("match", help="maximum matching of an undirected graph")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("reduce-3dm", help="emit the hardness-reduction digraph")
    p.add_argument("instance")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--sidecar", default=None)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_reduce_3dm)

    p = sub.add_parser("oracle", help="ground-truth forest search under a budget")
    p.add_argument("graph")
    p.add_argument("--kind", choices=sorted(KIND_NAMES), required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_decide, oracle=True, dot=False)

    p = sub.add_parser("scott", help="perfect forest of an undirected graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_scott)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (InputError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        name = type(exc).__name__
        print(f"internal error: {name}: {exc}" if str(exc) else f"internal error: {name}",
              file=sys.stderr)
        return 3


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
