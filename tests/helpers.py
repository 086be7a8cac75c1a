"""Shared test oracles and corpus builders.

The oracles here deliberately avoid the package's augmenting-path
machinery: matching sizes come from a bitmask dynamic program and the
Berge check walks alternating simple paths by brute force.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from hypothesis import strategies as st

from tuttelab import Graph, Window, max_matching


def brute_matching_size(g: Graph) -> int:
    """Maximum matching size by dynamic programming over vertex masks."""
    masks = g.neighbor_masks

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if not mask:
            return 0
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        result = best(rest)
        nb = masks[v] & rest
        while nb:
            ub = nb & -nb
            nb ^= ub
            cand = 1 + best(rest & ~ub)
            if cand > result:
                result = cand
        return result

    value = best(g.full_mask)
    best.cache_clear()
    return value


def has_augmenting_path(g: Graph, matching_edges) -> bool:
    """Exhaustive search for an alternating augmenting simple path."""
    mate = {}
    for e in matching_edges:
        mate[e.u] = e.v
        mate[e.v] = e.u
    exposed = [v for v in range(g.vertex_count) if v not in mate and g.degree(v)]

    def walk(even_vertex: int, visited: frozenset[int]) -> bool:
        for w in g.adjacency[even_vertex]:
            if w in visited or mate.get(even_vertex) == w:
                continue
            if w not in mate:
                return True
            m = mate[w]
            if m in visited:
                continue
            if walk(m, visited | {w, m}):
                return True
        return False

    return any(walk(root, frozenset([root])) for root in exposed)


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.25) -> Graph:
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < extra:
            edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def random_tree(rng: random.Random, n: int) -> Graph:
    """Uniform random tree from a random Pruefer sequence."""
    if n == 1:
        return Graph.empty(1)
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    return Graph.from_edges(n, edges)


def random_even_degree_graph(rng: random.Random, n: int) -> Graph:
    """Random simple graph whose degrees all lie in {2, 4, 6}."""
    choices = [d for d in (2, 4, 6) if d < n]
    while True:
        degrees = [rng.choice(choices) for _ in range(n)]
        for _ in range(300):
            points = [v for v in range(n) for _ in range(degrees[v])]
            rng.shuffle(points)
            edges = set()
            ok = True
            for i in range(0, len(points), 2):
                a, b = points[i], points[i + 1]
                if a == b or (min(a, b), max(a, b)) in edges:
                    ok = False
                    break
                edges.add((min(a, b), max(a, b)))
            if ok:
                return Graph.from_edges(n, sorted(edges))


def pendant_completion(g: Graph) -> Graph:
    """Attach one new leaf to every vertex a maximum matching misses.

    The result always has even order and a perfect matching (the old
    maximum matching plus the new pendant edges).
    """
    matched = max_matching(g).covered
    missed = [v for v in range(g.vertex_count) if v not in matched]
    n = g.vertex_count
    edges = [(e.u, e.v) for e in g.edges()]
    for i, v in enumerate(missed):
        edges.append((v, n + i))
    return Graph.from_edges(n + len(missed), edges)


@st.composite
def windows(draw, max_n: int) -> Window:
    """Hypothesis strategy: a window on at most max_n vertices.

    Closed windows are drawn about as often as open ones; frontier
    vertices carry 0-3 stubs.
    """
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if n == 0 or draw(st.booleans()):
        interior = frozenset(range(n))
    else:
        interior = draw(st.frozensets(st.integers(0, n - 1)))
    stubs = tuple(0 if v in interior else draw(st.integers(0, 3)) for v in range(n))
    return Window(Graph.from_edges(n, sorted(edges)), interior, stubs)
