"""Shared test oracles and corpus builders.

The size oracles here deliberately avoid the package's augmenting-path
machinery: matching sizes come from a bitmask dynamic program and the
Berge check walks alternating simple paths by brute force.  The one
exception is ``reference_max_matching``, the plain O(V^3) blossom search
that ``max_matching`` must reproduce edge for edge.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from functools import lru_cache

from hypothesis import strategies as st

from tuttelab import Graph, MatchingState, Window, max_matching


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


def reference_max_matching(g: Graph) -> MatchingState:
    """Blossom matching that restarts its whole search state at every root.

    Every search allocates fresh ``used``/``parent``/``base`` arrays, every
    ``lca`` a fresh ``seen`` array, and every blossom rescans all n
    vertices in id order: O(n) per search, O(V^3) overall.  Roots,
    adjacency order and tie-breaks are those of ``max_matching``, which
    must return the same edges.
    """
    n = g.vertex_count
    adj = g.adjacency
    mate = [-1] * n

    def augment_from(root: int) -> None:
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])

        def lca(a: int, b: int) -> int:
            seen = [False] * n
            x = a
            while True:
                x = base[x]
                seen[x] = True
                if mate[x] == -1:
                    break
                x = parent[mate[x]]
            y = b
            while True:
                y = base[y]
                if seen[y]:
                    return y
                y = parent[mate[y]]

        def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
            while base[v] != b:
                in_blossom[base[v]] = True
                in_blossom[base[mate[v]]] = True
                parent[v] = child
                child = mate[v]
                v = parent[mate[v]]

        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    cur = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur, to, in_blossom)
                    mark_path(to, cur, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        x = to
                        while x != -1:
                            px = parent[x]
                            nxt = mate[px]
                            mate[x] = px
                            mate[px] = x
                            x = nxt
                        return
                    used[mate[to]] = True
                    queue.append(mate[to])

    for root in range(n):
        if mate[root] == -1 and adj[root]:
            augment_from(root)

    pairs = [(v, mate[v]) for v in range(n) if mate[v] > v]
    return MatchingState.from_pairs(pairs, g)


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


def random_regular_graph(rng: random.Random, n: int, d: int) -> Graph:
    """Random simple d-regular graph: pairing model with switch repair.

    Loops and repeated pairs are switched with a random other pair rather
    than redrawing the whole pairing, so the cost barely depends on the
    seed even at n = 20000.  n * d must be even.
    """
    points = [v for v in range(n) for _ in range(d)]
    rng.shuffle(points)
    pairs = [[points[i], points[i + 1]] for i in range(0, len(points), 2)]

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    present = Counter(key(a, b) for a, b in pairs)
    bad = [i for i, (a, b) in enumerate(pairs) if a == b or present[key(a, b)] > 1]
    while bad:
        i = bad.pop()
        a, b = pairs[i]
        if a != b and present[key(a, b)] == 1:
            continue
        j = rng.randrange(len(pairs))
        c, e = pairs[j] if rng.random() < 0.5 else reversed(pairs[j])
        if j == i or a == c or b == e or present[key(a, c)] or present[key(b, e)] \
                or key(a, c) == key(b, e):
            bad.append(i)
            continue
        present[key(a, b)] -= 1
        present[key(c, e)] -= 1
        pairs[i] = [a, c]
        pairs[j] = [b, e]
        present[key(a, c)] += 1
        present[key(b, e)] += 1
    return Graph.from_edges(n, (key(a, b) for a, b in pairs))


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
