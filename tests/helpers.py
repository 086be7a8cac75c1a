"""Shared test oracles and corpus builders.

The size oracles here deliberately avoid the package's augmenting-path
machinery: matching sizes come from a bitmask dynamic program and the
Berge check walks alternating simple paths by brute force.  The one
exception is ``reference_max_matching``, the plain O(V^3) blossom search
that ``max_matching`` must reproduce edge for edge.  The Tutte and lemma
oracles walk every X and read its components from ``hull_report``, an
adjacency-list search (``classify_components``) that shares no code with
the bitmask kernels, the package's only component search.  The
Hall oracle scores every F with plain Fractions, never the package's
owner-set reduction.

The copy oracles live here: ``remove_vertices`` and
``remove_window_vertices`` copy out the graph (window) minus a vertex set,
renumbered in ascending order, as a ``Subgraph`` whose ``original_ids``
map ids back, where the package asks the same questions of the host
graph under a live mask.  The cross-checks that only tests call live
here too: components and hulls of G - X for one X, graph distance and the nets' separation
recheck, small vertex cuts between two sets (the piece search prunes by
them), the extension of a layered run's matching to a perfect one, the
bipartite gadget built as a graph from its definition (the package only
lays out its rows), Hopcroft-Karp on a graph with a given side and
Hopcroft-Karp with no greedy first phase, the
gadget route's reading of a matching as an orientation (and of a dict of
heads), the Euler route read off a traced circuit, the edge-list parser
read line by line, and the least extendable edge at one vertex.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from hypothesis import strategies as st

from tuttelab import (
    Edge,
    GadgetHallReport,
    Graph,
    HallSide,
    InputError,
    MatchingState,
    Orientation,
    RunCertificate,
    Schedule,
    TutteReport,
    Violation,
    Window,
    max_matching,
)
from tuttelab.core import iter_subsets
from tuttelab.layered import _least_allowed
from tuttelab.matching import _hopcroft_karp


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


@dataclass(frozen=True)
class Subgraph:
    """An induced subwindow; ``original_ids[new_id]`` maps ids back."""

    window: Window
    original_ids: tuple[int, ...]

    @property
    def graph(self) -> Graph:
        return self.window.graph


def remove_vertices(g: Graph, removed: Iterable[int]) -> Subgraph:
    """Induced subgraph on V(g) minus ``removed``, as a closed window."""
    removed = g.vertex_set(removed)
    keep = [v for v in range(g.vertex_count) if v not in removed]
    new_id = dict(zip(keep, range(len(keep))))
    adjacency = tuple(
        tuple(new_id[u] for u in g.adjacency[v] if u not in removed) for v in keep
    )
    return Subgraph(Window.closed(Graph(adjacency)), tuple(keep))


def remove_window_vertices(w: Window, removed: Iterable[int]) -> Subgraph:
    """Like :func:`remove_vertices` but carrying window marks along."""
    sub = remove_vertices(w.graph, removed)
    interior = frozenset(
        i for i, v in enumerate(sub.original_ids) if v in w.interior
    )
    stubs = tuple(w.external_stubs[v] for v in sub.original_ids)
    return Subgraph(Window(sub.graph, interior, stubs), sub.original_ids)


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


@dataclass(frozen=True)
class GadgetGraph:
    """Bipartite auxiliary graph whose perfect matchings orient the host.

    Gadget ids: 0..m-1 are edge nodes (host_edges order), m.. are copy
    nodes grouped by owner vertex in ascending (vertex, index) order.
    """

    stubs: tuple[int, ...]
    graph: Graph
    host_edges: tuple[Edge, ...]
    copy_owner: tuple[int, ...]
    copy_counts: tuple[int, ...]

    @property
    def edge_node_count(self) -> int:
        return len(self.host_edges)

    @property
    def copy_node_count(self) -> int:
        return len(self.copy_owner)

    @property
    def edge_nodes(self) -> range:
        return range(self.edge_node_count)

    @property
    def copy_nodes(self) -> range:
        return range(self.edge_node_count, self.graph.vertex_count)

    def owner_of(self, node: int) -> int:
        """Host vertex that a copy node projects to."""
        return self.copy_owner[node - self.edge_node_count]


def build_gadget(g: Graph, stubs=None) -> GadgetGraph:
    """Build the bipartite gadget from its definition: one node per host
    edge, (degree + stubs)/2 copies per host vertex, and each edge node
    joined to every copy of both its endpoints.  Stubs must be nonnegative
    and degrees (plus stubs) even.  Nothing is read from the package's
    gadget layout, so the gadget route and the Hall audit are checked
    against this numbering, not their own.
    """
    if stubs is None:
        stubs = (0,) * g.vertex_count
    stubs = tuple(stubs)
    if len(stubs) != g.vertex_count:
        raise InputError("stubs must list one count per host vertex")
    negative = [v for v, k in enumerate(stubs) if k < 0]
    if negative:
        raise InputError(f"negative stub count at vertex {negative[0]}")
    copy_counts = []
    for v in range(g.vertex_count):
        total = g.degree(v) + stubs[v]
        if total % 2 != 0:
            raise InputError(f"vertex {v} has odd degree {total}")
        copy_counts.append(total // 2)
    host_edges = tuple(g.edges())
    copy_owner = tuple(v for v, c in enumerate(copy_counts) for _ in range(c))
    copies = [[] for _ in range(g.vertex_count)]
    for node, v in enumerate(copy_owner, len(host_edges)):
        copies[v].append(node)
    gadget_edges = [
        (i, node) for i, e in enumerate(host_edges) for v in e for node in copies[v]
    ]
    gadget = Graph.from_edges(len(host_edges) + len(copy_owner), gadget_edges)
    return GadgetGraph(stubs, gadget, host_edges, copy_owner, tuple(copy_counts))


def bipartite_max_matching(g: Graph, side: Iterable[int]) -> MatchingState:
    """Hopcroft-Karp maximum matching for a given bipartition side.

    ``side`` and its complement must both be independent sets; anything
    else is rejected rather than silently mis-handled.
    """
    left = g.vertex_set(side)
    for e in g.edges():
        if (e.u in left) == (e.v in left):
            raise InputError(
                f"edge {e} does not cross the bipartition; side is invalid"
            )
    lefts = sorted(left)
    rights = sorted(set(range(g.vertex_count)) - left)
    rindex = {v: i for i, v in enumerate(rights)}
    adj = [[rindex[u] for u in g.adjacency[v]] for v in lefts]
    mate_l = _hopcroft_karp(adj, len(rights))
    pairs = [
        (lefts[i], rights[mate_l[i]]) for i in range(len(lefts)) if mate_l[i] != -1
    ]
    return MatchingState.from_pairs(pairs, g)


def reference_hopcroft_karp(rows: Sequence[Sequence[int]], right_count: int) -> list[int]:
    """Hopcroft-Karp with every phase, the first included, run as
    breadth-first layering and augmenting-path searches: the oracle the
    package's kernel, whose first phase is a greedy pass, must match mate
    for mate."""
    inf = len(rows) + 1
    mate_l = [-1] * len(rows)
    mate_r = [-1] * right_count
    dist = [0] * len(rows)

    def bfs() -> bool:
        queue = deque()
        for i in range(len(rows)):
            if mate_l[i] == -1:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = inf
        reachable_free = inf
        while queue:
            i = queue.popleft()
            if dist[i] >= reachable_free:
                continue
            for j in rows[i]:
                k = mate_r[j]
                if k == -1:
                    if reachable_free > dist[i] + 1:
                        reachable_free = dist[i] + 1
                elif dist[k] == inf:
                    dist[k] = dist[i] + 1
                    queue.append(k)
        return reachable_free != inf

    def dfs(root: int) -> bool:
        # Augmenting-path search along the BFS layers on an explicit stack of
        # (left vertex, neighbour iterator), so path length is not bounded by
        # the recursion limit; a dead-end vertex is retired (dist = inf).
        stack = [(root, iter(rows[root]))]
        while stack:
            i, scan = stack[-1]
            step = dist[i] + 1
            for j in scan:
                k = mate_r[j]
                if k == -1 or dist[k] == step:
                    break
            else:
                dist[i] = inf
                stack.pop()
                continue
            if k != -1:
                stack.append((k, iter(rows[k])))
                continue
            # j is free: flip the path, each vertex passing its partner down.
            for i, _ in reversed(stack):
                j, mate_l[i] = mate_l[i], j
                mate_r[mate_l[i]] = i
            return True
        return False

    while bfs():
        for i in range(len(rows)):
            if mate_l[i] == -1:
                dfs(i)

    return mate_l


def orientation_from_dict(direction: dict[Edge, int]) -> Orientation:
    """The orientation with these heads, its edges in lex order."""
    return Orientation(tuple(sorted(direction.items())))


def orientation_from_matching(gadget: GadgetGraph, m: MatchingState) -> Orientation:
    """Direct each host edge toward the owner of its matched copy node."""
    if 2 * m.size != gadget.graph.vertex_count:
        raise InputError(
            "matching is not perfect on the gadget "
            f"({m.size} edges for {gadget.graph.vertex_count} nodes)"
        )
    partner: dict[int, int] = {}
    for e in m.edges:
        partner[e.u] = e.v
        partner[e.v] = e.u
    direction: dict[Edge, int] = {}
    copies = gadget.copy_nodes
    for i, host_edge in enumerate(gadget.host_edges):
        mate = partner.get(i)
        if mate is None:
            raise InputError(f"edge node for {host_edge} is unmatched")
        if mate not in copies:
            raise InputError(
                f"edge node for {host_edge} is matched to node {mate}, not a copy"
            )
        direction[host_edge] = gadget.owner_of(mate)
    return orientation_from_dict(direction)


def circuit_trace_orientation(g: Graph) -> Orientation:
    """Orient along the Euler circuits that Hierholzer's algorithm traces.

    Starts at the least vertex with an unused edge, always leaves along
    the least unused edge, builds each circuit from the pops in reverse
    order, and directs every edge along it; ``eulerian_orientation`` must
    give the same heads without tracing a circuit.
    """
    adj = g.adjacency
    used: set[Edge] = set()
    ptr = [0] * g.vertex_count
    direction: dict[Edge, int] = {}
    for start in range(g.vertex_count):
        if all(Edge.of(start, u) in used for u in adj[start]):
            continue
        stack = [start]
        trail: list[int] = []
        while stack:
            v = stack[-1]
            while ptr[v] < len(adj[v]) and Edge.of(v, adj[v][ptr[v]]) in used:
                ptr[v] += 1
            if ptr[v] == len(adj[v]):
                trail.append(stack.pop())
                continue
            u = adj[v][ptr[v]]
            used.add(Edge.of(v, u))
            stack.append(u)
        circuit = trail[::-1]
        for a, b in zip(circuit, circuit[1:]):
            direction[Edge.of(a, b)] = b
    return orientation_from_dict(direction)


def least_extendable_edge(g: Graph, x: int) -> Edge:
    """Least edge at x contained in some perfect matching of g."""
    g.vertex_set((x,))
    if not g.adjacency[x]:
        raise InputError(f"vertex {x} is isolated")
    u = _least_allowed(g, g.full_mask, x)
    if u is None:
        raise InputError("graph has no perfect matching")
    return Edge.of(x, u)


def complete_matching(w: Window, run: RunCertificate) -> MatchingState:
    """Extend a run's matching greedily to the rest of the closed window.

    Runs a maximum matching on the vertices the layered pass left
    uncovered and merges; on a perfectly matchable closed window the
    result covers everything because the layered engine only ever picked
    edges that preserve perfect matchability.
    """
    sub = remove_vertices(w.graph, run.matching.covered)
    extra = max_matching(sub.graph)
    pairs = [(a, b) for a, b in run.matching.edges]
    for e in extra.edges:
        pairs.append((sub.original_ids[e.u], sub.original_ids[e.v]))
    return MatchingState.from_pairs(pairs, w.graph)


def net_separation_ok(
    w: Window, nets: tuple[tuple[int, ...], ...], schedule: Schedule
) -> bool:
    """Exhaustive recheck that each A_n is f(n)-separated."""
    for f_n, level in zip(schedule.levels, nets):
        for i, a in enumerate(level):
            for b in level[i + 1:]:
                d = distance(w.graph, a, b)
                if d is not None and d <= f_n:
                    return False
    return True


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
        return Graph.from_edges(1, ())
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


def reference_parse_window_text(text: str) -> Window:
    """The edge-list parser read line by line, the reference for
    ``parse_window_text``: each edge line is checked in turn (token
    count, integers, range, u < v, duplicate) before the graph is built
    with ``Graph.from_edges``, so its InputError names the first bad line.
    """
    lines = text.splitlines()
    if not lines:
        raise InputError("line 1: empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError("line 1: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InputError("line 1: expected integers 'n m'") from None
    if n < 0 or m < 0:
        raise InputError("line 1: n and m must be nonnegative")
    if len(lines) < 1 + m:
        raise InputError(f"line {len(lines) + 1}: expected {m} edge lines")
    edges = []
    seen: set[tuple[int, int]] = set()
    for i in range(m):
        lineno = i + 2
        parts = lines[1 + i].split()
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: expected integers 'u v'") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: vertex out of range")
        if u >= v:
            raise InputError(f"line {lineno}: edges must satisfy u < v")
        if (u, v) in seen:
            raise InputError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    interior: frozenset[int] | None = None
    stubs = [0] * n
    stub_seen: set[int] = set()
    for i in range(1 + m, len(lines)):
        lineno = i + 1
        line = lines[i].strip()
        if not line:
            if i == len(lines) - 1:
                continue
            raise InputError(f"line {lineno}: unexpected blank line")
        if line.startswith("# interior:"):
            if interior is not None:
                raise InputError(f"line {lineno}: repeated interior line")
            body = line[len("# interior:"):].split()
            try:
                ids = [int(t) for t in body]
            except ValueError:
                raise InputError(f"line {lineno}: bad interior ids") from None
            for v in ids:
                if not 0 <= v < n:
                    raise InputError(f"line {lineno}: interior id out of range")
            interior = frozenset(ids)
        elif line.startswith("# stubs:"):
            parts = line[len("# stubs:"):].split()
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected '# stubs: v k'")
            try:
                v, k = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: expected integers in stub line") from None
            if not 0 <= v < n:
                raise InputError(f"line {lineno}: stub vertex out of range")
            if v in stub_seen:
                raise InputError(f"line {lineno}: repeated stub line for vertex {v}")
            if k <= 0:
                raise InputError(f"line {lineno}: stub count must be positive")
            stub_seen.add(v)
            stubs[v] = k
        else:
            raise InputError(f"line {lineno}: unrecognized trailing line")
    graph = Graph.from_edges(n, edges)
    if interior is None:
        if stub_seen:
            raise InputError("stub lines require an interior line")
        return Window.closed(graph)
    return Window(graph, interior, tuple(stubs))


def disjoint_union(parts, order) -> Window:
    """The windows side by side, with vertex i of their concatenation
    renamed order[i]; interior and stub marks travel with the vertices."""
    edges, interior, stubs, start = [], set(), [0] * len(order), 0
    for w in parts:
        edges += [(order[start + e.u], order[start + e.v]) for e in w.graph.edges()]
        for v in range(w.graph.vertex_count):
            if v in w.interior:
                interior.add(order[start + v])
            stubs[order[start + v]] = w.external_stubs[v]
        start += w.graph.vertex_count
    return Window(Graph.from_edges(len(order), edges), frozenset(interior), tuple(stubs))


def shuffled_union(parts, seed: int) -> Window:
    """:func:`disjoint_union` with ids shuffled by ``random.Random(seed)``."""
    order = list(range(sum(w.graph.vertex_count for w in parts)))
    random.Random(seed).shuffle(order)
    return disjoint_union(parts, order)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components.

    Blocks are sorted internally and ordered by least vertex id, so the
    partition is deterministic.
    """
    return classify_components(Window.closed(g), ())[0]


def distance(g: Graph, u: int, v: int) -> int | None:
    """Hop count of a shortest u-v path, or None when unreachable."""
    g.vertex_set((u, v))
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.adjacency[x]:
            if y not in dist:
                if y == v:
                    return dist[x] + 1
                dist[y] = dist[x] + 1
                queue.append(y)
    return None


def classify_components(
    w: Window, x: Iterable[int]
) -> tuple[list[list[int]], list[list[int]]]:
    """Components of ``w.graph - x`` split into (finite, infinite).

    A component containing any frontier vertex is classified infinite;
    every other component is finite.  Both lists are ordered by least
    vertex id, members sorted.  The one-off query for one X (used by
    ``hull_report``), in O(n + m) memory; enumerations use :func:`finite_cuts`.
    """
    xset = w.graph.vertex_set(x)
    interior = w.interior
    finite: list[list[int]] = []
    infinite: list[list[int]] = []
    seen = [False] * w.graph.vertex_count
    for v in xset:
        seen[v] = True
    for start in range(w.graph.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        queue = deque([start])
        touches_frontier = start not in interior
        while queue:
            a = queue.popleft()
            for b in w.graph.adjacency[a]:
                if not seen[b]:
                    seen[b] = True
                    block.append(b)
                    queue.append(b)
                    if b not in interior:
                        touches_frontier = True
        block.sort()
        (infinite if touches_frontier else finite).append(block)
    return finite, infinite


@dataclass(frozen=True)
class HullReport:
    """Odd/finite components of G - x and the corresponding hulls."""

    x: tuple[int, ...]
    odd_components: tuple[tuple[int, ...], ...]
    finite_components: tuple[tuple[int, ...], ...]
    hull_odd: frozenset[int]
    hull_fin: frozenset[int]


def hull_report(w: Window, x: Iterable[int]) -> HullReport:
    """Finite components of w.graph - x by classify_components, and hulls."""
    xs = tuple(sorted(set(x)))
    finite = [tuple(c) for c in classify_components(w, xs)[0]]
    odd = [verts for verts in finite if len(verts) % 2 == 1]
    hull_odd = frozenset(xs) | {v for c in odd for v in c}
    hull_fin = frozenset(xs) | {v for c in finite for v in c}
    return HullReport(xs, tuple(odd), tuple(finite), hull_odd, hull_fin)


def is_connected(g: Graph, vertices) -> bool:
    """Whether the vertices induce a connected subgraph of g (true when empty)."""
    vertices = set(vertices)
    if not vertices:
        return True
    start = min(vertices)
    seen, stack = {start}, [start]
    while stack:
        for u in g.adjacency[stack.pop()]:
            if u in vertices and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == vertices


def brute_small_cut(g: Graph, source, removed, sinks, budget: int) -> bool:
    """Whether some set of at most budget vertices outside source and removed
    separates source from sinks in g - removed: no sink outside the set is
    reachable from source once the set is removed too."""
    source, removed, sinks = set(source), set(removed), set(sinks)
    pool = sorted(set(range(g.vertex_count)) - source - removed)
    for size in range(budget + 1):
        for cut in itertools.combinations(pool, size):
            blocked = removed | set(cut)
            seen, stack = set(source), list(source)
            while stack:
                for u in g.adjacency[stack.pop()]:
                    if u not in seen and u not in blocked:
                        seen.add(u)
                        stack.append(u)
            if not seen & sinks - blocked:
                return True
    return False


def brute_tutte(w: Window, epsilon, k: int, max_x: int) -> TutteReport:
    """check_tutte_eps_k by walking every X with |X| <= max_x."""
    epsilon = Fraction(epsilon)
    violations = []
    candidates = 0
    for xs in iter_subsets(range(w.graph.vertex_count), max_x):
        candidates += 1
        rep = hull_report(w, xs)
        odd = len(rep.odd_components)
        hull = len(rep.hull_odd)
        if odd > len(xs):
            violations.append(Violation("tutte", xs, odd, hull, Fraction(len(xs) - odd)))
        slack = len(xs) - odd - epsilon * hull
        if hull >= k and is_connected(w.graph, rep.hull_odd) and slack < 0:
            violations.append(Violation("quantitative", xs, odd, hull, slack))
    return TutteReport(epsilon, k, max_x, candidates, tuple(violations))


def brute_lemma(w: Window, d: int, delta, max_x: int) -> TutteReport:
    """verify_expansion_lemma on a d-regular window by walking every X."""
    eps = Fraction(delta) / d
    g = w.graph
    violations = []
    candidates = 0
    for xs in iter_subsets(range(g.vertex_count), max_x):
        candidates += 1
        rep = hull_report(w, xs)
        for index, comp in enumerate(rep.finite_components, 1):
            boundary = sum(
                w.external_stubs[v] + sum(u not in comp for u in g.adjacency[v])
                for v in comp
            )
            if boundary < d:
                violations.append(Violation(
                    "boundary", xs, index, len(comp), Fraction(boundary - d), comp))
        count = len(rep.finite_components)
        hull = len(rep.hull_fin)
        slack = len(xs) - count - eps * hull
        if slack < 0:
            violations.append(Violation("expansion", xs, count, hull, slack))
    return TutteReport(eps, 1, max_x, candidates, tuple(violations))


def made_regular(w: Window) -> tuple[Window, int]:
    """The window with every vertex below the maximum degree d made frontier,
    carrying d - degree stubs; returns it and d."""
    g = w.graph
    d = max(map(len, g.adjacency), default=0)
    short = {v for v in range(g.vertex_count) if g.degree(v) < d}
    stubs = tuple(d - g.degree(v) for v in range(g.vertex_count))
    return Window(g, w.interior - short, stubs), d


def brute_hall(gadget: GadgetGraph, epsilon, max_f: int) -> GadgetHallReport:
    """check_gadget_hall_expansion by scoring every F with 1 <= |F| <= max_f.

    Subsets come by ascending size, lex within a size, so the first F to
    reach a minimum is its least (size, lex) witness.
    """
    adjacency = gadget.graph.adjacency

    def side(nodes: range) -> HallSide:
        checked = 0
        best: list = [(None, ()), (None, ())]
        for fs in iter_subsets(nodes, max_f):
            if not fs:
                continue
            checked += 1
            hood = {u for node in fs for u in adjacency[node]}
            owners = {gadget.owner_of(node) for node in fs if node in gadget.copy_nodes}
            raw = Fraction(len(hood), len(fs))
            credit = Fraction(sum(gadget.stubs[v] for v in owners), 2 * len(fs))
            for pos, value in enumerate((raw, raw + credit)):
                if best[pos][0] is None or value < best[pos][0]:
                    best[pos] = (value, fs)
        (raw, witness), (credited, witness_credited) = best
        return HallSide(checked, raw, witness, credited, witness_credited)

    return GadgetHallReport(
        Fraction(epsilon),
        max_f,
        side(gadget.edge_nodes),
        side(gadget.copy_nodes),
    )
