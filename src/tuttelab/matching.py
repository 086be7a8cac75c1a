"""Matching oracles.

Maximum matching in general graphs is computed with the classic
alternating-forest search plus blossom contraction (O(V^3)); bipartite
graphs get Hopcroft-Karp.  Both scan vertices and sorted adjacency lists
in canonical order, so results are reproducible run to run.  The
Tutte-Berge deficiency is an exhaustive, enumeration-based cross-oracle:
it never consults the augmenting-path machinery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .core import Edge, Graph, InputError, remove_vertices
from .verifier import finite_cuts


@dataclass(frozen=True)
class MatchingState:
    """A set of pairwise vertex-disjoint edges plus the covered vertices."""

    edges: tuple[Edge, ...]
    covered: frozenset[int]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for e in self.edges:
            if e.u in seen or e.v in seen:
                raise InputError(f"matching edges share vertex in {e}")
            seen.add(e.u)
            seen.add(e.v)
        if seen != set(self.covered):
            raise InputError("covered set does not match edge endpoints")

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, int]], host: Graph | None = None
    ) -> "MatchingState":
        edges = sorted(Edge.of(a, b) for a, b in pairs)
        if host is not None:
            for e in edges:
                if not host.has_edge(e.u, e.v):
                    raise InputError(f"edge {e} not present in host graph")
        covered = frozenset(v for e in edges for v in e)
        return cls(tuple(edges), covered)

    @property
    def size(self) -> int:
        return len(self.edges)

    def covers(self, g: Graph) -> bool:
        return len(self.covered) == g.vertex_count


def max_matching(g: Graph) -> MatchingState:
    """Maximum-cardinality matching via blossom contraction.

    Roots are tried in ascending id order and adjacency lists are already
    sorted, so the returned edge set is deterministic (its size is the
    canonical quantity).
    """
    n = g.vertex_count
    adj = g.adjacency
    mate = [-1] * n

    def augment_from(root: int) -> None:
        # BFS over outer (even) vertices; base[] tracks blossom contraction.
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
                    # Odd cycle: contract the blossom around its base vertex.
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
                        # Flip matched/unmatched along the path back to root.
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


def has_perfect_matching(g: Graph) -> bool:
    """True when some matching covers every vertex."""
    if g.vertex_count % 2 == 1:
        return False
    return 2 * max_matching(g).size == g.vertex_count


def is_allowed_edge(g: Graph, e: Edge) -> bool:
    """True when e lies in at least one perfect matching of g."""
    e = Edge.of(e[0], e[1])
    if not g.has_edge(e.u, e.v):
        raise InputError(f"edge {e} not in graph")
    if not has_perfect_matching(g):
        return False
    rest = remove_vertices(g, {e.u, e.v}).graph
    return has_perfect_matching(rest)


def bipartite_max_matching(g: Graph, side: Iterable[int]) -> MatchingState:
    """Hopcroft-Karp maximum matching for a given bipartition side.

    ``side`` and its complement must both be independent sets; anything
    else is rejected rather than silently mis-handled.
    """
    left = frozenset(side)
    for v in left:
        if not 0 <= v < g.vertex_count:
            raise InputError(f"vertex {v} out of range")
    for e in g.edges():
        if (e.u in left) == (e.v in left):
            raise InputError(
                f"edge {e} does not cross the bipartition; side is invalid"
            )
    lefts = sorted(left)
    rights = sorted(set(range(g.vertex_count)) - left)
    rindex = {v: i for i, v in enumerate(rights)}
    adj = [[rindex[u] for u in g.adjacency[v]] for v in lefts]

    inf = len(lefts) + 1
    mate_l = [-1] * len(lefts)
    mate_r = [-1] * len(rights)
    dist = [0] * len(lefts)

    def bfs() -> bool:
        queue = deque()
        for i in range(len(lefts)):
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
            for j in adj[i]:
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
        stack = [(root, iter(adj[root]))]
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
                stack.append((k, iter(adj[k])))
                continue
            # j is free: flip the path, each vertex passing its partner down.
            for i, _ in reversed(stack):
                j, mate_l[i] = mate_l[i], j
                mate_r[mate_l[i]] = i
            return True
        return False

    while bfs():
        for i in range(len(lefts)):
            if mate_l[i] == -1:
                dfs(i)

    pairs = [
        (lefts[i], rights[mate_l[i]]) for i in range(len(lefts)) if mate_l[i] != -1
    ]
    return MatchingState.from_pairs(pairs, g)


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
