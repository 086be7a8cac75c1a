"""Finite undirected graphs and truncation windows.

Vertices are dense integer ids ``0..n-1``.  Edges are unordered pairs kept
in normalized ``(min, max)`` form; the lexicographic order on those pairs
is the canonical "least edge" order used by every other module.  A
:class:`Window` wraps a graph together with truncation bookkeeping: which
vertices are interior, and how many edges each frontier vertex sends out
of the truncated region (external stubs).  Component searches use that
bookkeeping to decide which components of a vertex-deleted subgraph are
genuinely finite and which would continue past the cut.

Each graph question is answered here once: vertex ids by
:meth:`Graph.vertex_set`, and every enumeration by the bitmask kernels
:func:`finite_cuts` (over X), :func:`_piece_cuts` (the X that can cut off
a finite piece, found by :func:`_pieces`), :func:`_connected_sets`
(connected F) and :func:`_min_ratios` (the least ratio over F).
"""

from __future__ import annotations

import heapq
import itertools
import math
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

    def vertex_set(self, vertices: Iterable[int]) -> set[int]:
        """The ids as a set; InputError names the least one out of range."""
        ids = set(vertices)
        bad = [v for v in ids if not 0 <= v < self.vertex_count]
        if bad:
            raise InputError(f"vertex {min(bad)} out of range")
        return ids

    def has_edge(self, a: int, b: int) -> bool:
        if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
            return False
        return b in self.adjacency[a]

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
    removed = g.vertex_set(removed)
    keep = [v for v in range(g.vertex_count) if v not in removed]
    new_id = dict(zip(keep, range(len(keep))))
    adjacency = tuple([
        tuple([new_id[u] for u in g.adjacency[v] if u not in removed])
        for v in keep
    ])
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
# Bitmask internals shared by every X- and F-enumeration.

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
    """Connected components (as masks) of the subgraph induced on avail,
    listed by least vertex: each search starts at the least vertex left."""
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


def _subset_count(n: int, max_size: int) -> int:
    """How many sets :func:`iter_subsets` yields from n elements: the sum of
    C(n, i) over i <= min(max_size, n)."""
    return sum(math.comb(n, i) for i in range(min(max_size, n) + 1))


def _finite_components(
    masks: Sequence[int], avail: int, seeds: int, frontier_mask: int
) -> list[int]:
    """Finite components of the subgraph induced on avail that hold a seed.

    Each search starts at the least seed left and stops at the first
    breadth-first layer that touches frontier_mask; no vertex it reached
    starts another search.  The components come sorted by least vertex,
    the order of :func:`mask_components`.
    """
    comps = []
    seeds &= avail
    while seeds:
        layer = seeds & -seeds
        comp = 0
        while layer and not layer & frontier_mask:
            comp |= layer
            nxt = 0
            rest = layer
            while rest:
                low = rest & -rest
                rest ^= low
                nxt |= masks[low.bit_length() - 1]
            layer = nxt & avail & ~comp
        if not layer:
            comps.append(comp)
        seeds &= ~(comp | layer)
    comps.sort(key=lambda comp: comp & -comp)
    return comps


def finite_cuts(
    g: Graph, frontier_mask: int, max_x: int
) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """Yield (X, mask of X, finite component masks of g - X) for |X| <= max_x.

    X runs over all vertex subsets in (size, lexicographic) order,
    starting with the empty set; the components of each X are listed by
    least vertex.  A component is finite when it contains no vertex of
    frontier_mask; with frontier_mask 0 every component is, and each X
    costs one :func:`mask_components` search: of the components of g that
    X touches when g has more components than max_x (see
    :func:`_split_cuts`), else of all of g - X.  With a frontier, each X
    is searched by :func:`_open_cuts`; :func:`_piece_cuts` walks only the
    X that can leave a finite component.
    """
    masks = g.neighbor_masks
    subsets = iter_subsets(range(g.vertex_count), max_x)
    if frontier_mask:
        yield from _open_cuts(g, frontier_mask, subsets)
        return
    full = g.full_mask
    xs = next(subsets, None)
    if xs is None:
        return
    # X = () comes first, and its components are those of g.
    comps = mask_components(masks, full)
    yield xs, 0, comps
    if len(comps) > max_x:
        yield from _split_cuts(masks, full, comps, subsets)
        return
    for xs in subsets:
        xmask = mask_of(xs)
        yield xs, xmask, mask_components(masks, full & ~xmask)


def _split_cuts(
    masks: Sequence[int], full: int, comps: list[int], subsets: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """(X, mask of X, component masks of g - X) for each X of subsets, where
    comps lists the components of g (full), more than any X has vertices.

    Only the components that X touches are searched, in one
    :func:`mask_components` call; each component X misses is taken as it
    is, and every X misses at least one.  (An X that touches every
    component would pay this walk on top of a full search, so
    :func:`finite_cuts` walks such graphs the plain way.)  The least
    vertex not yet listed either lies in a component X misses or starts
    the next component the search found, since the search lists them by
    least vertex, so the list comes in that order unsorted.
    """
    whole = [0] * len(masks)
    for comp in comps:
        for v in vertices_of(comp):
            whole[v] = comp
    for xs in subsets:
        xmask = touched = 0
        for v in xs:
            xmask |= 1 << v
            touched |= whole[v]
        split = iter(mask_components(masks, touched & ~xmask))
        found = []
        rest = full & ~xmask
        while rest:
            comp = whole[(rest & -rest).bit_length() - 1]
            if comp & xmask:
                comp = next(split)
            found.append(comp)
            rest &= ~comp
        yield xs, xmask, found


def _piece_cuts(
    g: Graph, frontier_mask: int, max_x: int
) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """:func:`finite_cuts` on a window with a frontier, less X that leave
    no finite component.

    A finite component C of g - X is a piece (see :func:`_pieces`) with
    N(C) inside X, so X = N(C) + Y for a piece with |N(C)| <= max_x and a
    Y outside N(C) and C.  Pieces with the same N(C) draw Y from one pool,
    the union of theirs.  For one N(C), Y -> N(C) + Y keeps the lex order
    of equal-sized Y, so the streams of X of each size merge into (size,
    lex) order, and repeats are dropped.  When the streams would hold at
    least as many X as there are subsets of size <= max_x, all subsets are
    walked instead, as in :func:`finite_cuts`.
    """
    full = g.full_mask
    pools: dict[int, int] = {}
    for c, nc in _pieces(g.neighbor_masks, frontier_mask, max_x):
        pools[nc] = pools.get(nc, 0) | full & ~(c | nc)
    n = g.vertex_count
    walked = sum(_subset_count(pool.bit_count(), max_x - nc.bit_count())
                 for nc, pool in pools.items())
    if walked >= _subset_count(n, max_x):
        return _open_cuts(g, frontier_mask, iter_subsets(range(n), max_x))
    pieces = [(vertices_of(nc), pool) for nc, pool in pools.items()]

    def of_size(nverts: tuple[int, ...], pool: int, size: int) -> Iterator[tuple[int, ...]]:
        if size == len(nverts):
            yield nverts
            return
        for ys in itertools.combinations(vertices_of(pool), size - len(nverts)):
            yield tuple(sorted(nverts + ys))

    subsets = (
        xs
        for size in range(max_x + 1)
        for xs, _ in itertools.groupby(heapq.merge(*(
            of_size(nverts, pool, size) for nverts, pool in pieces if len(nverts) <= size
        )))
    )
    return _open_cuts(g, frontier_mask, subsets)


def _open_cuts(
    g: Graph, frontier_mask: int, subsets: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """(X, mask of X, finite component masks of g - X) for each X of subsets.

    A finite component of g - X either touches N(X) or is a finite
    component of g that X misses, so only those seeds are searched: N(X)
    minus X and the least vertex of every finite component of g.
    """
    masks = g.neighbor_masks
    full = g.full_mask
    least = 0
    for comp in mask_components(masks, full):
        if not comp & frontier_mask:
            least |= comp & -comp
    for xs in subsets:
        xmask = 0
        nbrs = least
        for v in xs:
            xmask |= 1 << v
            nbrs |= masks[v]
        avail = full & ~xmask
        yield xs, xmask, _finite_components(masks, avail, nbrs, frontier_mask)


def _pieces(masks: Sequence[int], frontier_mask: int, max_x: int) -> Iterator[tuple[int, int]]:
    """Each piece C with |N(C)| <= max_x, once, as the masks (C, N(C)).

    A piece is a nonempty connected vertex set with no frontier vertex:
    what can be a finite component of g - X.  The search from root v finds
    the pieces whose least vertex is v (the "connected set with small
    neighbourhood" enumeration of Fomin and Villanger, 2012).  C grows from
    {v}; the least undecided vertex of N(C) either joins C or stays out, in
    D, and frontier vertices and ids below v stay out as soon as C touches
    them.  A piece the branch can still reach has N = D plus a vertex cut
    between C and those blocked vertices in g - D, so the branch ends when
    |D| plus the least such cut exceeds max_x (Menger: more than max_x - |D|
    disjoint paths, see :func:`_cut_exceeds`).
    """
    for v in range(len(masks)):
        root = 1 << v
        if root & frontier_mask:
            continue
        blocked = frontier_mask | (root - 1)
        stack = [(root, masks[v], masks[v] & blocked)]
        while stack:
            c, nbrs, out = stack.pop()
            budget = max_x - out.bit_count()
            if budget < 0:
                continue
            undecided = nbrs & ~out
            if not undecided:
                yield c, out
                continue
            # Each path leaves C through its own vertex of N(C) - D that has a
            # neighbour beyond C and D, so the flow runs only when more of
            # them than the budget exist.
            starts = 0
            rest = undecided
            while rest:
                low = rest & -rest
                rest ^= low
                if masks[low.bit_length() - 1] & ~(c | out):
                    starts |= low
            if starts.bit_count() > budget and _cut_exceeds(
                masks, c, starts, out, blocked, budget
            ):
                continue
            u = undecided & -undecided
            grown = masks[u.bit_length() - 1]
            stack.append((c, nbrs, out | u))
            stack.append((c | u, (nbrs | grown) & ~(c | u), out | grown & blocked))


def _cut_exceeds(
    masks: Sequence[int], source: int, starts: int, removed: int, sinks: int, budget: int
) -> bool:
    """True when more than budget paths lead from source to sinks in g - removed.

    The paths leave source through starts, its neighbours outside removed,
    share no vertex outside source, and end at their first vertex of sinks.
    Each is one augmenting path of a unit-capacity flow on split vertices
    (in-node 2x, out-node 2x + 1), found by breadth-first search over the
    residual graph from the source, so the flow is built only on the part
    of the graph the searches reach.  ``pred[y]`` is the vertex whose
    out-node feeds y's in-node (-1 for the source), and ``succ[x]`` the
    vertex x's out-node feeds; y carries a path when it has a pred.
    """
    closed = source | removed
    pred: dict[int, int] = {}
    succ: dict[int, int] = {}
    for _ in range(budget + 1):
        parent = {}
        queue = deque()
        rest = starts
        while rest:
            low = rest & -rest
            rest ^= low
            y = low.bit_length() - 1
            if pred.get(y) != -1:
                parent[2 * y] = -1
                queue.append(2 * y)
        end = -1
        while queue:
            node = queue.popleft()
            x = node >> 1
            steps = []
            if not node & 1:
                if x not in pred:
                    if sinks >> x & 1:
                        end = node
                        break
                    steps.append(node | 1)
                elif pred[x] != -1:
                    steps.append(2 * pred[x] + 1)
            else:
                if x in pred:
                    steps.append(node ^ 1)
                rest = masks[x] & ~closed
                while rest:
                    low = rest & -rest
                    rest ^= low
                    z = low.bit_length() - 1
                    if succ.get(x) != z:
                        steps.append(2 * z)
            for step in steps:
                if step not in parent:
                    parent[step] = node
                    queue.append(step)
        if end < 0:
            return False
        path = [end]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        pred[path[-1] >> 1] = -1
        for a, b in zip(reversed(path), reversed(path[:-1])):
            x, y = a >> 1, b >> 1
            if x == y:
                continue  # an in-out arc of one vertex: pred decides it
            if a & 1:  # along the edge x -> y
                succ[x] = y
                pred[y] = x
            else:  # back along y -> x: cancel it
                del succ[y]
                if pred.get(x) == y:
                    del pred[x]
    return True


def _connected_sets(masks: Sequence[int], pool: int, max_f: int) -> Iterator[int]:
    """Each set of size 1..max_f that is connected inside pool, once, as a mask.

    Reverse search (Avis and Fukuda, 1996): the parent of a connected T
    with |T| >= 2 is T minus its largest vertex u for which T - u is still
    connected, and the sets are walked depth-first down that tree from the
    singletons.  S + v, for v in N(S) minus S, is a child of S exactly when
    no vertex of S above v can be removed from it without disconnecting it.
    """
    stack = [1 << v for v in reversed(vertices_of(pool))]
    while stack:
        s = stack.pop()
        yield s
        if s.bit_count() == max_f:
            continue
        grow = 0
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            grow |= masks[low.bit_length() - 1]
        grow &= pool & ~s
        while grow:
            v = grow & -grow
            grow ^= v
            t = s | v
            above = s & ~(v - 1)
            while above:
                u = above & -above
                if mask_is_connected(masks, t ^ u):
                    break
                above ^= u
            else:
                stack.append(t)


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
