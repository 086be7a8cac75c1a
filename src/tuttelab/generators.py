"""Example-graph builders.

Cayley-graph balls come from groups with decidable normal forms: free
groups, free products of cyclic groups, and Z^d (the amenable control
case).  Balls are built by breadth-first enumeration of normal forms, so
vertex ids follow (distance, normal form) order and the frontier stub
counts are read off the group structure itself: a stub is a generator
move that leaves the enumerated ball.

The grandparent graph is built on the 3-regular tree with a distinguished
end: every vertex keeps one parent and two children, and gains an edge to
its grandparent.  A truncation keeps tree levels 0..depth; a vertex is
interior when all eight of its neighbors (parent, grandparent, two
children, four grandchildren) survive the cut.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable

from .core import Edge, Graph, InputError, Window


@dataclass(frozen=True)
class GroupSpec:
    """A finitely generated group with a decidable normal form."""

    kind: str  # "free" | "free_product_cyclic" | "abelian_grid"
    rank: int = 0
    orders: tuple[int, ...] = ()
    dimension: int = 0

    def __post_init__(self) -> None:
        if self.kind == "free":
            if self.rank < 1:
                raise InputError("free group rank must be >= 1")
        elif self.kind == "free_product_cyclic":
            if not self.orders:
                raise InputError("free product needs at least one cyclic factor")
            for m in self.orders:
                if m < 2:
                    raise InputError("cyclic factor orders must be >= 2")
        elif self.kind == "abelian_grid":
            if self.dimension < 1:
                raise InputError("grid dimension must be >= 1")
        else:
            raise InputError(f"unsupported group kind: {self.kind!r}")

    @classmethod
    def free(cls, rank: int) -> "GroupSpec":
        return cls("free", rank=rank)

    @classmethod
    def free_product_of_cyclic(cls, orders: Iterable[int]) -> "GroupSpec":
        return cls("free_product_cyclic", orders=tuple(orders))

    @classmethod
    def abelian_grid(cls, dimension: int) -> "GroupSpec":
        return cls("abelian_grid", dimension=dimension)

    # Normal forms are tuples, comparable within one group:
    #   free:        reduced words of nonzero ints, letter i = generator
    #                |i| with sign for inversion
    #   cyclic prod: syllables (factor, exponent), adjacent factors differ
    #   grid:        integer coordinate vectors
    def identity(self) -> tuple:
        if self.kind == "abelian_grid":
            return (0,) * self.dimension
        return ()

    def symbols(self) -> list:
        if self.kind == "free":
            return [s for k in range(1, self.rank + 1) for s in (k, -k)]
        if self.kind == "free_product_cyclic":
            syms = []
            for i, m in enumerate(self.orders):
                syms.append((i, 1))
                if m > 2:
                    syms.append((i, m - 1))
            return syms
        return [(axis, step) for axis in range(self.dimension) for step in (1, -1)]

    def apply(self, element: tuple, symbol) -> tuple:
        if self.kind == "free":
            if element and element[-1] == -symbol:
                return element[:-1]
            return element + (symbol,)
        if self.kind == "free_product_cyclic":
            factor, delta = symbol
            m = self.orders[factor]
            if element and element[-1][0] == factor:
                exp = (element[-1][1] + delta) % m
                if exp == 0:
                    return element[:-1]
                return element[:-1] + ((factor, exp),)
            return element + ((factor, delta),)
        axis, step = symbol
        return element[:axis] + (element[axis] + step,) + element[axis + 1:]


def cayley_ball(spec: GroupSpec, radius: int) -> Window:
    """The radius-r ball of the Cayley graph, as a window.

    Interior vertices are the elements at distance < radius; frontier
    stubs count the generator moves that exit the ball.
    """
    if radius < 0:
        raise InputError("radius must be nonnegative")
    syms = spec.symbols()
    ident = spec.identity()
    dist: dict[tuple, int] = {ident: 0}
    frontier = {ident}
    for r in range(1, radius + 1):
        nxt = set()
        for e in frontier:
            for s in syms:
                f = spec.apply(e, s)
                if f not in dist:
                    nxt.add(f)
        for f in nxt:
            dist[f] = r
        frontier = nxt
        if not frontier:
            break
    elements = sorted(dist, key=lambda e: (dist[e], e))
    ids = {e: i for i, e in enumerate(elements)}
    edges: set[Edge] = set()
    stubs = [0] * len(elements)
    for e in elements:
        for s in syms:
            f = spec.apply(e, s)
            if f in ids:
                edges.add(Edge.of(ids[e], ids[f]))
            else:
                stubs[ids[e]] += 1
    graph = Graph.from_edges(len(elements), edges)
    interior = frozenset(ids[e] for e in elements if dist[e] < radius)
    return Window(graph, interior, tuple(stubs))


def grandparent_window(depth: int) -> Window:
    """Levels 0..depth of the grandparent graph built over the binary tree.

    Vertex ids use heap numbering (node i has children 2i+1, 2i+2), which
    orders vertices level by level.  Every vertex has eight neighbors in
    the full graph; the stub count records how many fall outside the
    truncation (missing parent/grandparent above, children/grandchildren
    below).
    """
    if depth < 2:
        raise InputError("depth must be >= 2")
    n = 2 ** (depth + 1) - 1
    edges = []
    for i in range(1, n):
        edges.append((i, (i - 1) // 2))
    for i in range(3, n):
        parent = (i - 1) // 2
        if parent >= 1:
            edges.append((i, (parent - 1) // 2))

    def level(i: int) -> int:
        return (i + 1).bit_length() - 1

    stubs = []
    for i in range(n):
        k = level(i)
        missing = 0
        if k == 0:
            missing += 1  # parent
        if k <= 1:
            missing += 1  # grandparent
        if k == depth:
            missing += 2  # children
        if k >= depth - 1:
            missing += 4  # grandchildren
        stubs.append(missing)
    interior = frozenset(i for i in range(n) if stubs[i] == 0)
    return Window(Graph.from_edges(n, edges), interior, tuple(stubs))


@dataclass(frozen=True)
class ActionSpec:
    """A permutation action: generators acting on {0..point_count-1}."""

    point_count: int
    permutations: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.point_count < 1:
            raise InputError("point_count must be positive")
        for sigma in self.permutations:
            if len(sigma) != self.point_count or sorted(sigma) != list(
                range(self.point_count)
            ):
                raise InputError(f"not a permutation of the points: {sigma}")


@dataclass(frozen=True)
class SchreierBuild:
    graph: Graph
    loops_dropped: int
    parallel_collapsed: int


def schreier_graph(spec: ActionSpec) -> SchreierBuild:
    """Orbit graph of the action: candidate edges {i, sigma(i)}.

    Fixed points would be loops and are dropped; repeated candidates are
    collapsed.  Both counts are reported so no information is lost.
    """
    edges: set[Edge] = set()
    loops = 0
    duplicates = 0
    for sigma in spec.permutations:
        for i in range(spec.point_count):
            j = sigma[i]
            if i == j:
                loops += 1
                continue
            e = Edge.of(i, j)
            if e in edges:
                duplicates += 1
            else:
                edges.add(e)
    graph = Graph.from_edges(spec.point_count, edges)
    return SchreierBuild(graph, loops, duplicates)


_FIXTURE_RE = re.compile(r"\s*([a-z_]+)\s*(?:\(([^()]*)\))?\s*\Z")


def fixture(spec: str) -> Graph:
    """Named test graphs: path(n), cycle(n), complete(n), star(n),
    petersen, random_regular(n,d,seed)."""
    m = _FIXTURE_RE.match(spec)
    if not m:
        raise InputError(f"unrecognized fixture spec: {spec!r}")
    name = m.group(1)
    raw_args = m.group(2)
    args: list[int] = []
    if raw_args is not None and raw_args.strip():
        try:
            args = [int(t.strip()) for t in raw_args.split(",")]
        except ValueError:
            raise InputError(f"bad fixture arguments in {spec!r}") from None

    def expect(k: int) -> None:
        if len(args) != k:
            raise InputError(f"fixture {name!r} expects {k} arguments")

    if name == "path":
        expect(1)
        (n,) = args
        if n < 1:
            raise InputError("path needs n >= 1")
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if name == "cycle":
        expect(1)
        (n,) = args
        if n < 3:
            raise InputError("cycle needs n >= 3")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "complete":
        expect(1)
        (n,) = args
        if n < 1:
            raise InputError("complete needs n >= 1")
        return Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
    if name == "star":
        expect(1)
        (n,) = args
        if n < 1:
            raise InputError("star needs n >= 1 leaves")
        return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])
    if name == "petersen":
        expect(0)
        edges = []
        for i in range(5):
            edges.append((i, (i + 1) % 5))
            edges.append((i, i + 5))
            edges.append((5 + i, 5 + (i + 2) % 5))
        return Graph.from_edges(10, edges)
    if name == "random_regular":
        expect(3)
        n, d, seed = args
        return random_regular(n, d, seed)
    raise InputError(f"unknown fixture name: {name!r}")


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Seed-deterministic d-regular graph via the pairing model.

    Pairings producing loops or repeated edges are rejected and redrawn
    from the same stream, so identical inputs give identical graphs.
    """
    if n < 1 or d < 0 or d >= n:
        raise InputError("need n >= 1 and 0 <= d < n")
    if (n * d) % 2 != 0:
        raise InputError("n*d must be even")
    rng = random.Random(seed)
    for _ in range(100_000):
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges: set[Edge] = set()
        ok = True
        for i in range(0, len(points), 2):
            a, b = points[i], points[i + 1]
            if a == b:
                ok = False
                break
            e = Edge.of(a, b)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Graph.from_edges(n, edges)
    raise InputError(f"no simple {d}-regular pairing found for n={n}, seed={seed}")
