"""Executable reduction from 3-Dimensional Matching to perfect-out-forest
existence on strongly connected digraphs, with solution maps in both
directions.

Digraph vertex layout (see ReductionMap): the X block of m-k hub vertices,
the Y block of m triple vertices, then the three classes of k vertices
each.  X sends arcs to all of Y, each Y vertex points at its triple, X and
the classes are joined by 2-cycles, and Y is internally complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InputError,
    MalformedLine,
    Not3DMPerfectMatching,
    StructureMismatch,
    TooFewTriples,
)
from .forests import ForestKind, OutForest, verify
from .graphs import Arc, Digraph

Triple = tuple[int, int, int]  # class-local indices, one per class


@dataclass(frozen=True)
class ThreeDMInstance:
    """Tripartite triple system: classes of size k, m distinct triples."""

    k: int
    triples: tuple[Triple, ...]

    def __post_init__(self):
        object.__setattr__(self, "triples", tuple(self.triples))
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.triples:
            raise ValueError("at least one triple required")
        seen = set()
        for t in self.triples:
            if len(t) != 3 or any(not (0 <= x < self.k) for x in t):
                raise ValueError(f"triple {t} out of range for k={self.k}")
            if t in seen:
                raise ValueError(f"duplicate triple {t}")
            seen.add(t)

    @property
    def m(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class ReductionMap:
    """Index bookkeeping for the reduced digraph of a 3DM instance."""

    k: int
    m: int
    triples: tuple[Triple, ...]

    @property
    def n(self) -> int:
        return 2 * self.m + 2 * self.k

    @property
    def degenerate(self) -> bool:
        """m == k leaves X empty; the digraph is then not strongly
        connected, though the forest correspondence still holds."""
        return self.m == self.k

    def x_vertices(self) -> range:
        return range(0, self.m - self.k)

    def y_vertices(self) -> range:
        return range(self.m - self.k, 2 * self.m - self.k)

    def y_of_triple(self, index: int) -> int:
        return self.m - self.k + index

    def class_vertex(self, cls: int, j: int) -> int:
        # cls in {0,1,2}, j a class-local index
        return 2 * self.m - self.k + cls * self.k + j

    def class_of(self, v: int) -> tuple[int, int] | None:
        base = 2 * self.m - self.k
        if v < base:
            return None
        cls, j = divmod(v - base, self.k)
        return (cls, j)

    def format_sidecar(self) -> str:
        lines = [f"k {self.k}", f"m {self.m}"]
        lines.append(f"x {self.x_vertices().start} {self.x_vertices().stop}")
        lines.append(f"y {self.y_vertices().start} {self.y_vertices().stop}")
        for cls in range(3):
            lines.append(
                f"class{cls + 1} {self.class_vertex(cls, 0)} "
                f"{self.class_vertex(cls, self.k - 1) + 1}"
            )
        for i, t in enumerate(self.triples):
            lines.append(f"triple {self.y_of_triple(i)} {t[0]} {t[1]} {t[2]}")
        return "\n".join(lines) + "\n"


def reduce_3dm(inst: ThreeDMInstance) -> tuple[Digraph, ReductionMap]:
    """Build the reduction digraph; strongly connected whenever m > k."""
    if inst.m < inst.k:
        raise TooFewTriples(f"need m >= k, got m={inst.m}, k={inst.k}")
    rmap = ReductionMap(inst.k, inst.m, inst.triples)
    arcs: set[Arc] = set()
    classes = [
        rmap.class_vertex(cls, j) for cls in range(3) for j in range(inst.k)
    ]
    for x in rmap.x_vertices():
        for y in rmap.y_vertices():
            arcs.add((x, y))
        for c in classes:
            arcs.add((x, c))
            arcs.add((c, x))
    for i, (a, b, c) in enumerate(inst.triples):
        y = rmap.y_of_triple(i)
        arcs.add((y, rmap.class_vertex(0, a)))
        arcs.add((y, rmap.class_vertex(1, b)))
        arcs.add((y, rmap.class_vertex(2, c)))
    for y1 in rmap.y_vertices():
        for y2 in rmap.y_vertices():
            if y1 != y2:
                arcs.add((y1, y2))
    return Digraph(rmap.n, frozenset(arcs)), rmap


def _check_solution(inst: ThreeDMInstance, sol: set[Triple]) -> list[Triple]:
    sol_list = sorted(sol)
    if len(sol_list) != inst.k or any(t not in inst.triples for t in sol_list):
        raise Not3DMPerfectMatching(
            f"expected {inst.k} instance triples, got {sol_list}"
        )
    for cls in range(3):
        if {t[cls] for t in sol_list} != set(range(inst.k)):
            raise Not3DMPerfectMatching(f"class {cls + 1} not exactly covered")
    return sol_list


def embed_solution(
    inst: ThreeDMInstance, sol: set[Triple], rmap: ReductionMap
) -> OutForest:
    """Perfect out-forest of the reduced digraph from a 3DM solution:
    one claw per chosen triple, and X paired with the leftover Y vertices
    in ascending index order."""
    sol_list = _check_solution(inst, sol)
    parent: dict[int, int] = {}
    chosen_y = set()
    for t in sol_list:
        y = rmap.y_of_triple(inst.triples.index(t))
        chosen_y.add(y)
        for cls in range(3):
            parent[rmap.class_vertex(cls, t[cls])] = y
    leftover_y = [y for y in rmap.y_vertices() if y not in chosen_y]
    for x, y in zip(rmap.x_vertices(), leftover_y):
        parent[y] = x
    return OutForest(rmap.n, parent)


def extract_solution(
    d: Digraph, f: OutForest, rmap: ReductionMap
) -> set[Triple]:
    """Read a 3DM solution off a perfect out-forest of the reduced
    digraph.  The proof forces the tree shapes: m-k two-vertex X-Y trees
    plus k claws rooted in Y with one leaf per class."""
    report = verify(d, f, ForestKind.PERFECT)
    if not report.passed:
        raise StructureMismatch("forest is not perfect: " + report.to_json())
    xs = set(rmap.x_vertices())
    ys = set(rmap.y_vertices())
    solution: set[Triple] = set()
    for root, verts in f.trees().items():
        if len(verts) == 2 and root in xs and (set(verts) - {root}) <= ys:
            continue
        if len(verts) == 4 and root in ys:
            leaves = [rmap.class_of(v) for v in verts if v != root]
            if all(l is not None for l in leaves) and sorted(
                l[0] for l in leaves
            ) == [0, 1, 2]:
                by_cls = dict(leaves)
                triple = (by_cls[0], by_cls[1], by_cls[2])
                if triple not in rmap.triples:
                    raise StructureMismatch(
                        f"claw at {root} does not match a triple"
                    )
                # the claw must be rooted at that triple's own Y vertex
                if rmap.y_of_triple(rmap.triples.index(triple)) != root:
                    raise StructureMismatch(
                        f"claw at {root} uses another triple's leaves"
                    )
                solution.add(triple)
                continue
        raise StructureMismatch(f"unexpected tree shape at root {root}: {verts}")
    inst = ThreeDMInstance(rmap.k, rmap.triples)
    _check_solution(inst, solution)
    return solution


# ---------------------------------------------------------------------------
# instance text format: "k m" then m lines "a b c"


def parse_3dm(text: str) -> ThreeDMInstance:
    header = None
    triples: list[Triple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise MalformedLine("expected header 'k m'", lineno)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise MalformedLine("expected header 'k m'", lineno) from None
            continue
        if len(parts) != 3:
            raise MalformedLine("expected triple 'a b c'", lineno)
        try:
            triples.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError:
            raise MalformedLine("expected triple 'a b c'", lineno) from None
    if header is None:
        raise MalformedLine("missing header 'k m'", 1)
    k, m = header
    if len(triples) != m:
        raise MalformedLine(f"declared {m} triples, found {len(triples)}", 1)
    try:
        return ThreeDMInstance(k, tuple(triples))
    except ValueError as exc:  # k < 1, no triple, or a bad or duplicate triple
        raise InputError(str(exc)) from exc


def format_3dm(inst: ThreeDMInstance) -> str:
    lines = [f"{inst.k} {inst.m}"]
    lines += [f"{a} {b} {c}" for (a, b, c) in inst.triples]
    return "\n".join(lines) + "\n"
