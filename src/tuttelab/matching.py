"""Matching oracles.

Maximum matching in general graphs is computed with Edmonds' search for
augmenting paths in an alternating tree, with blossom contraction (O(V^3)
in the worst case).  Each search works only on the vertices its tree
reaches: the search state is allocated once per call and reset on the
tree alone, so on sparse inputs, where most trees stay small, the whole
matching takes near-linear time.  The search (a private kernel that
returns the mate array), the perfect-matching test, which only counts
mates, and the allowed-edge test run on the host graph under a live
mask: the vertices outside it are skipped, never copied out, so a caller
that deletes vertices keeps the host's ids.  :func:`max_matching` reads
the mates of all of g into a :class:`MatchingState`, which stores only
its edges.  Hopcroft-Karp is the gadget route's kernel, a private loop on
rows of right-side indices: the orientation module calls it on rows it
computes from the host graph, without building a gadget graph.  Both scan
vertices and adjacency rows in canonical order, so results are
reproducible run to run.  The Tutte-Berge deficiency is an exhaustive,
enumeration-based cross-oracle: it never consults the augmenting-path
machinery.  Its X-enumeration is core's ``finite_cuts``; this module
imports only core, so the verifier may import the oracles: its Tutte
check asks :func:`has_perfect_matching` for a certificate when k exceeds
the window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .core import Edge, Graph, InputError, _live_mask, finite_cuts


@dataclass(frozen=True)
class MatchingState:
    """A set of pairwise vertex-disjoint edges, in ascending order."""

    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for e in self.edges:
            if e.u in seen or e.v in seen:
                raise InputError(f"matching edges share vertex in {e}")
            seen.add(e.u)
            seen.add(e.v)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, int]], host: Graph
    ) -> "MatchingState":
        """The matching of the pairs, each of them an edge of host."""
        edges = sorted(Edge.of(a, b) for a, b in pairs)
        for e in edges:
            if not host.has_edge(e.u, e.v):
                raise InputError(f"edge {e} not present in host graph")
        return cls(tuple(edges))

    @cached_property
    def covered(self) -> frozenset[int]:
        """The endpoints of the edges."""
        return frozenset(v for e in self.edges for v in e)

    @property
    def size(self) -> int:
        return len(self.edges)

    def covers(self, g: Graph) -> bool:
        return len(self.covered) == g.vertex_count


def max_matching(g: Graph) -> MatchingState:
    """Maximum-cardinality matching via blossom contraction (:func:`_mates`)."""
    pairs = [(v, u) for v, u in enumerate(_mates(g, None)) if u > v]
    return MatchingState.from_pairs(pairs, g)


def _mates(g: Graph, live: int | None) -> list[int]:
    """Each vertex's mate in a maximum matching of g on the mask live, or -1.

    A dead vertex's mate is -1.  Roots are tried in ascending id order and
    adjacency lists are already sorted, so the mates are deterministic.
    A free root with a free neighbour is matched to its least one; any
    other free root starts a breadth-first alternating search (Edmonds,
    "Paths, trees, and flowers", 1965).  The search state is allocated
    once per call, and each search reads, relabels and resets only the
    vertices of its own tree, so a search costs time in its tree's size
    rather than in n.  A contracted blossom relabels just the members of
    the blossoms it swallows, and queues the inner vertices that turn
    outer in ascending id order: the order a scan of all n vertices would
    give.  The matching is therefore the same, edge for edge, as that of a
    search that rebuilds its state at every root.
    """
    n = g.vertex_count
    adj = g.adjacency
    mate = [-1] * n
    # Search state, reset after each search on that search's tree only.
    used = [False] * n
    if live is None:
        parent = [-1] * n
    else:
        # A dead vertex looks held by a tree (a parent, no mate): the scan
        # passes it, and the root loop and greedy match test for it.  Bit n
        # pads the string to n digits past its leading "1", dropped here.
        bits = f"{_live_mask(g, live) | 1 << n:b}"[:0:-1]
        parent = [-1 if bit == "1" else n for bit in bits]
    base = list(range(n))
    # Stamp marks: each lca walk and each blossom takes a fresh stamp, so
    # the array never needs clearing.
    mark = [0] * n
    stamp = 0

    def lca(a: int, b: int, s: int) -> int:
        x = a
        while True:
            x = base[x]
            mark[x] = s
            if mate[x] == -1:
                break
            x = parent[mate[x]]
        y = b
        while True:
            y = base[y]
            if mark[y] == s:
                return y
            y = parent[mate[y]]

    def mark_path(v: int, b: int, child: int, s: int, bases: list[int]) -> None:
        # Collect, once each, the bases of the blossoms on the path to b.
        while base[v] != b:
            for x in (base[v], base[mate[v]]):
                if mark[x] != s:
                    mark[x] = s
                    bases.append(x)
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def search(root: int) -> None:
        # BFS over outer (even) vertices; base[] tracks blossom contraction.
        nonlocal stamp
        tree = [root]
        # Members of each contracted blossom, keyed by its base; a vertex
        # missing from every list is its own base.
        members: dict[int, list[int]] = {}
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    # Odd cycle: contract the blossom around its base vertex.
                    stamp += 2
                    cur = lca(v, to, stamp - 1)
                    bases: list[int] = []
                    mark_path(v, cur, to, stamp, bases)
                    mark_path(to, cur, v, stamp, bases)
                    blossom = members.setdefault(cur, [cur])
                    fresh = []
                    for b in bases:
                        inner = members.pop(b, None)
                        if inner is None:
                            base[b] = cur
                            blossom.append(b)
                        else:
                            for i in inner:
                                base[i] = cur
                            blossom.extend(inner)
                        # An inner vertex is never relabelled before it
                        # turns outer, so each one that does is in bases.
                        if not used[b]:
                            fresh.append(b)
                    # Ascending ids: the queue order of a full 0..n-1 scan.
                    fresh.sort()
                    for b in fresh:
                        used[b] = True
                    queue.extend(fresh)
                elif parent[to] == -1:
                    parent[to] = v
                    tree.append(to)
                    if mate[to] == -1:
                        # Flip matched/unmatched along the path back to root.
                        x = to
                        while x != -1:
                            px = parent[x]
                            nxt = mate[px]
                            mate[x] = px
                            mate[px] = x
                            x = nxt
                        queue.clear()
                        break
                    m = mate[to]
                    used[m] = True
                    tree.append(m)
                    queue.append(m)
        for x in tree:
            used[x] = False
            parent[x] = -1
            base[x] = x

    for root in range(n):
        if mate[root] != -1 or parent[root] != -1:
            continue
        for to in adj[root]:
            if mate[to] == -1 and parent[to] == -1:
                mate[root] = to
                mate[to] = root
                break
        else:
            search(root)

    return mate


def has_perfect_matching(g: Graph, live: int | None = None) -> bool:
    """True when some matching covers every vertex (every live one)."""
    count = _live_mask(g, live).bit_count()
    if count % 2 == 1:
        return False
    return sum(u >= 0 for u in _mates(g, live)) == count


def is_allowed_edge(g: Graph, e: Edge) -> bool:
    """True when e = uv lies in a perfect matching of g: when g - u - v has one."""
    e = Edge.of(e[0], e[1])
    if not g.has_edge(e.u, e.v):
        raise InputError(f"edge {e} not in graph")
    return has_perfect_matching(g, g.full_mask ^ 1 << e.u ^ 1 << e.v)


def _hopcroft_karp(rows: Sequence[Sequence[int]], right_count: int) -> list[int]:
    """Hopcroft-Karp on a bipartite graph given as left rows of right indices.

    ``rows[i]`` lists the right neighbours of left vertex i, in the order
    they are scanned; the result holds, per left vertex, its mate's right
    index or -1.  Phases alternate a breadth-first layering from the free
    left vertices with augmenting-path searches from each free left vertex
    in ascending order (Hopcroft & Karp, 1973), so equal rows give equal
    matchings.
    """
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


class DeficiencyReport(NamedTuple):
    deficiency: int
    witness: tuple[int, ...]


def tutte_berge_deficiency(g: Graph, max_x: int) -> DeficiencyReport:
    """Exhaustive max over X (|X| <= max_x) of odd(G - X) - |X|.

    Exact whenever max_x reaches the true maximizer size; max_x equal to
    the vertex count is always sufficient.  The empty set is enumerated,
    so the result is never below the count of odd components of g itself,
    and every candidate value is parity-consistent with the vertex count.
    """
    if max_x < 0:
        raise InputError("max_x must be nonnegative")
    best = None
    best_witness: tuple[int, ...] = ()
    for xs, _, comps in finite_cuts(g, 0, max_x):
        odd = 0
        for comp in comps:
            odd += comp.bit_count() & 1
        value = odd - len(xs)
        if best is None or value > best:
            best = value
            best_witness = xs
    return DeficiencyReport(best, best_witness)
