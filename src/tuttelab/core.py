"""Finite undirected graphs and truncation windows.

Vertices are dense integer ids ``0..n-1``.  Edges are unordered pairs kept
in normalized ``(min, max)`` form; the lexicographic order on those pairs
is the canonical "least edge" order used by every other module.  A
:class:`Window` wraps a graph together with truncation bookkeeping: which
vertices are interior, and how many edges each frontier vertex sends out
of the truncated region (external stubs).  Component searches use that
bookkeeping to decide which components of a vertex-deleted subgraph are
genuinely finite and which would continue past the cut.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


class InputError(ValueError):
    """Input data violates a documented precondition."""


class Edge(NamedTuple):
    """Unordered edge normalized so ``u < v``; tuple order is edge order."""

    u: int
    v: int

    @classmethod
    def of(cls, a: int, b: int) -> "Edge":
        if a == b:
            raise InputError(f"loop edge at vertex {a}")
        return cls(a, b) if a < b else cls(b, a)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..vertex_count-1``.

    ``adjacency[v]`` is the strictly increasing tuple of neighbors of
    ``v``.  Construction validates symmetry, id ranges, and the absence
    of loops and duplicate neighbors, so any Graph in hand is
    structurally sound.  Instances are immutable and safe to share.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        if n < 0:
            raise InputError("vertex_count must be nonnegative")
        if len(self.adjacency) != n:
            raise InputError(
                f"adjacency has {len(self.adjacency)} rows for {n} vertices"
            )
        for v, nbrs in enumerate(self.adjacency):
            prev = -1
            for u in nbrs:
                if not 0 <= u < n:
                    raise InputError(f"vertex {v} lists out-of-range neighbor {u}")
                if u == v:
                    raise InputError(f"loop at vertex {v}")
                if u <= prev:
                    raise InputError(
                        f"adjacency of vertex {v} is not strictly increasing"
                    )
                prev = u
        for v, nbrs in enumerate(self.adjacency):
            for u in nbrs:
                if v not in self.adjacency[u]:
                    raise InputError(f"edge {v}-{u} is not listed symmetrically")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs."""
        nbrs: list[set[int]] = [set() for _ in range(vertex_count)]
        for a, b in edges:
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise InputError(f"edge ({a}, {b}) out of range for n={vertex_count}")
            if a == b:
                raise InputError(f"loop edge at vertex {a}")
            nbrs[a].add(b)
            nbrs[b].add(a)
        return cls(vertex_count, tuple(tuple(sorted(s)) for s in nbrs))

    @classmethod
    def empty(cls, vertex_count: int) -> "Graph":
        return cls(vertex_count, tuple(() for _ in range(vertex_count)))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def edges(self) -> list[Edge]:
        """All edges in lexicographic (least-edge-first) order."""
        out = []
        for v, nbrs in enumerate(self.adjacency):
            for u in nbrs:
                if u > v:
                    out.append(Edge(v, u))
        return out

    def has_edge(self, a: int, b: int) -> bool:
        if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
            return False
        return b in self.adjacency[a]

    def incident_edges(self, v: int) -> list[Edge]:
        """Edges at v, in lexicographic order of their normalized pairs."""
        return sorted(Edge.of(v, u) for u in self.adjacency[v])

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets as bitmasks (internal fast path)."""
        masks = []
        for nbrs in self.adjacency:
            m = 0
            for u in nbrs:
                m |= 1 << u
            masks.append(m)
        return tuple(masks)

    @property
    def full_mask(self) -> int:
        return (1 << self.vertex_count) - 1


@dataclass(frozen=True)
class Window:
    """A finite truncation of a (possibly infinite) ambient graph.

    ``interior`` marks vertices whose full neighborhood is present;
    ``external_stubs[v]`` counts edges at v leading out of the
    truncation.  A component of a vertex-deleted subgraph is considered
    finite only if it contains no frontier vertex, since a component
    touching the frontier would continue past the cut.
    """

    graph: Graph
    interior: frozenset[int]
    external_stubs: tuple[int, ...]

    def __post_init__(self) -> None:
        # Every check runs at builtin speed; the per-vertex loops run only
        # on a failed check, to name the offending vertex.
        n = self.graph.vertex_count
        interior = self.interior
        stubs = self.external_stubs
        if len(stubs) != n:
            raise InputError("external_stubs must list one count per vertex")
        if interior and (min(interior) < 0 or max(interior) >= n):
            for v in interior:
                if not 0 <= v < n:
                    raise InputError(f"interior vertex {v} out of range")
        if any(stubs) and (
            min(stubs) < 0 or any(map(stubs.__getitem__, interior))
        ):
            for v, k in enumerate(stubs):
                if k < 0:
                    raise InputError(f"negative stub count at vertex {v}")
                if k > 0 and v in interior:
                    raise InputError(f"interior vertex {v} has external stubs")

    @classmethod
    def closed(cls, graph: Graph) -> "Window":
        """Wrap a plain graph as a window with no frontier."""
        return cls(graph, frozenset(range(graph.vertex_count)),
                   (0,) * graph.vertex_count)

    @cached_property
    def frontier(self) -> frozenset[int]:
        return frozenset(range(self.graph.vertex_count)) - self.interior

    @property
    def is_closed(self) -> bool:
        return not self.frontier

    @cached_property
    def frontier_mask(self) -> int:
        m = 0
        for v in self.frontier:
            m |= 1 << v
        return m


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
    removed = set(removed)
    for v in removed:
        if not 0 <= v < g.vertex_count:
            raise InputError(f"vertex {v} out of range")
    keep = [v for v in range(g.vertex_count) if v not in removed]
    new_id = {v: i for i, v in enumerate(keep)}
    adjacency = tuple(
        tuple(new_id[u] for u in g.adjacency[v] if u not in removed)
        for v in keep
    )
    return Subgraph(Window.closed(Graph(len(keep), adjacency)), tuple(keep))


def remove_window_vertices(w: Window, removed: Iterable[int]) -> Subgraph:
    """Like :func:`remove_vertices` but carrying window marks along."""
    sub = remove_vertices(w.graph, removed)
    interior = frozenset(
        i for i, v in enumerate(sub.original_ids) if v in w.interior
    )
    stubs = tuple(w.external_stubs[v] for v in sub.original_ids)
    return Subgraph(Window(sub.graph, interior, stubs), sub.original_ids)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the connected components.

    Blocks are sorted internally and ordered by least vertex id, so the
    partition is deterministic.
    """
    return classify_components(Window.closed(g), ())[0]


def distance(g: Graph, u: int, v: int) -> int | None:
    """Hop count of a shortest u-v path, or None when unreachable."""
    for x in (u, v):
        if not 0 <= x < g.vertex_count:
            raise InputError(f"vertex {x} out of range")
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
    vertex id.  Adjacency-list search in O(n + m) memory, unlike the
    bitmask kernels of the verifiers.
    """
    xset = set(x)
    for v in xset:
        if not 0 <= v < w.graph.vertex_count:
            raise InputError(f"vertex {v} out of range")
    frontier = w.frontier
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
        touches_frontier = start in frontier
        while queue:
            a = queue.popleft()
            for b in w.graph.adjacency[a]:
                if not seen[b]:
                    seen[b] = True
                    block.append(b)
                    queue.append(b)
                    if b in frontier:
                        touches_frontier = True
        block.sort()
        (infinite if touches_frontier else finite).append(block)
    return finite, infinite


# ---------------------------------------------------------------------------
# Bitmask internals shared by the enumerative verifiers.

def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_components(masks: Sequence[int], avail: int) -> list[int]:
    """Connected components (as masks) of the subgraph induced on avail."""
    comps = []
    rem = avail
    while rem:
        frontier = rem & -rem
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= masks[low.bit_length() - 1]
            frontier = nxt & avail & ~comp
        comps.append(comp)
        rem &= ~comp
    return comps


def mask_is_connected(masks: Sequence[int], sub: int) -> bool:
    """True when the subgraph induced on the mask ``sub`` is connected."""
    if sub == 0:
        return True
    frontier = sub & -sub
    comp = 0
    while frontier:
        comp |= frontier
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            nxt |= masks[low.bit_length() - 1]
        frontier = nxt & sub & ~comp
    return comp == sub


def iter_subsets(pool: Sequence[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Subsets of pool by ascending size, lexicographic within each size."""
    for size in range(min(max_size, len(pool)) + 1):
        yield from itertools.combinations(pool, size)


def _min_ratios(
    sets: Iterable[tuple[int, ...]], ratios: Callable, count: int
) -> tuple[int, list[tuple[Fraction | None, tuple[int, ...]]]]:
    """Number of sets, and per ratio position the least value with its witness.

    ``ratios(F)`` gives ``count`` integer pairs (p, q), q > 0, read as p/q.
    Values are compared by cross-multiplication, no Fraction per set, and
    ties go to the F least by (size, lex), so the witness is the same
    whatever order ``sets`` comes in; (None, ()) when there is no set.
    """
    best = [(1, 0, ())] * count  # 1/0 stands for +infinity
    checked = 0
    for fs in sets:
        checked += 1
        for i, (p, q) in enumerate(ratios(fs)):
            bp, bq, bfs = best[i]
            lhs, rhs = p * bq, bp * q
            if lhs < rhs or lhs == rhs and (len(fs), fs) < (len(bfs), bfs):
                best[i] = (p, q, fs)
    return checked, [(Fraction(p, q) if q else None, fs) for p, q, fs in best]


# ---------------------------------------------------------------------------
# Edge-list text format.
#
#   n m
#   u v            (m lines, 0-based, u < v)
#   # interior: 0 1 2 ...         (optional; omitted means closed window)
#   # stubs: v k                  (one line per vertex with k > 0 stubs)

def format_graph(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{e.u} {e.v}" for e in g.edges())
    return "\n".join(lines) + "\n"


def format_window(w: Window) -> str:
    """Serialize a window; closed windows reduce to the plain graph form."""
    text = format_graph(w.graph)
    if w.is_closed:
        return text
    lines = [text[:-1]]
    if w.interior:
        lines.append("# interior: " + " ".join(str(v) for v in sorted(w.interior)))
    else:
        lines.append("# interior:")
    for v, k in enumerate(w.external_stubs):
        if k > 0:
            lines.append(f"# stubs: {v} {k}")
    return "\n".join(lines) + "\n"


def parse_window_text(text: str) -> Window:
    """Parse the edge-list format; raises InputError with a line number."""
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


def parse_graph_text(text: str) -> Graph:
    return parse_window_text(text).graph
