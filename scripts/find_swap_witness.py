#!/usr/bin/env python3
"""Search small digraphs for cases where the weak-to-almost rewriting pass
actually has to perform a swap on the forest `decide_weak` returns: the
even-tree split of a spanning out-tree when the digraph has a single
initial strong component, the gadget's forest otherwise.

Usage: python3 scripts/find_swap_witness.py [--max 10] [--seed 0]
"""

import argparse

from outforest import (
    ArcClass,
    ForestKind,
    classify_arc,
    decide_weak,
    enumerate_digraphs,
    sample_digraphs,
    verify,
    weak_to_almost,
)


def needs_swap(d, f):
    return any(
        classify_arc(d, f, a) in (ArcClass.FORWARD, ArcClass.CROSS)
        for a in d.arcs
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max", type=int, default=10, help="witnesses to print")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    found = 0
    sources = [
        ("exhaustive n=4", enumerate_digraphs(4)),
        ("sampled n=6", sample_digraphs(6, 5000, seed=args.seed)),
    ]
    for label, stream in sources:
        for d in stream:
            f = decide_weak(d)
            if f is None or not needs_swap(d, f):
                continue
            f2 = weak_to_almost(d, f)
            assert verify(d, f2, ForestKind.ALMOST_PERFECT).passed
            swaps = len(f.arcs()) - len(f2.arcs())
            print(f"[{label}] arcs={sorted(d.arcs)}")
            print(f"  weak forest: {sorted(f.arcs())}")
            print(f"  almost perfect after >= {max(swaps, 1)} swap(s): "
                  f"{sorted(f2.arcs())}")
            found += 1
            if found >= args.max:
                return
    if found == 0:
        print("no swap-triggering witness found in the searched range")


if __name__ == "__main__":
    main()
