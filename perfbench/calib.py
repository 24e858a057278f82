"""Machine-speed reference for the benchmark's timings.

The host this benchmark was built on runs its CPU slower for stretches of
a second to a minute, by up to half (one fixed op took 650-1530 ms within
40 s; its CPU time equalled its wall time and steal time stayed near
zero).  A fixed pure-Python kernel slows in step with the program, so the
benchmark times it between ops and reports every op time scaled to a
machine on which one kernel call takes REFERENCE_MS:

    scaled = measured * REFERENCE_MS / kernel time measured nearby

The kernel is a breadth-first search over a fixed graph, the kind of
interpreter work (int arithmetic, list indexing, loops) the program does.
It allocates no container, so the program's heap cannot slow it through
the garbage collector, and it imports nothing from the program, so no
change to the program can change its time.
"""

from __future__ import annotations

import gc
import time

REFERENCE_MS = 0.7
_N = 600
_ADJ = tuple(tuple((v * 7 + k * 131 + 1) % _N for k in range(3)) for v in range(_N))
_MARK = [0] * _N
_QUEUE = [0] * _N
_ROUNDS = 6


def _kernel():
    adj, mark, queue = _ADJ, _MARK, _QUEUE
    total = 0
    for r in range(1, _ROUNDS + 1):
        for v in range(_N):
            mark[v] = 0
        mark[0] = r
        queue[0] = 0
        head, tail = 0, 1
        while head < tail:
            v = queue[head]
            head += 1
            for w in adj[v]:
                if mark[w] != r:
                    mark[w] = r
                    queue[tail] = w
                    tail += 1
                    total += w
    return total


def kernel_ms(calls: int = 3) -> float:
    """Fastest of `calls` kernel calls, in milliseconds, with the garbage
    collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(calls):
            t = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return best * 1e3
