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
(connected F) and :func:`_min_ratios` (the least ratio over F).  Both X
walks hand the windows with a frontier, and the closed ones where every X
misses a component of G, to one seeded walk, :func:`_open_cuts`: the only
code that reuses G's components, searching only from N(X).  These kernels
are the package's only component search; a single X, such as the empty
one a layered certificate asks about, is the first item of
:func:`finite_cuts` with ``max_x = 0``.  The X walks read g under a live
mask: the subgraph induced on it, named by g's ids, so a caller that
deletes vertices asks its questions of one host graph, never of a copy.
"""

from __future__ import annotations

import heapq
import itertools
import math
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
    breadth-first layer that touches frontier_mask (never, when it is 0);
    no vertex it reached starts another search.  The components come
    sorted by least vertex, the order of :func:`mask_components`.
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
    if len(comps) > 1:
        comps.sort(key=lambda comp: comp & -comp)
    return comps


def _live_mask(g: Graph, live: int | None) -> int:
    """The vertices a question is asked of: live, or all of g when None."""
    if live is None:
        return g.full_mask
    if live < 0 or live >> g.vertex_count:
        raise InputError("live mask names a vertex out of range")
    return live


def finite_cuts(
    g: Graph, frontier_mask: int, max_x: int, live: int | None = None
) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """Yield (X, mask of X, finite component masks of g - X) for |X| <= max_x.

    g is read on the mask live (all of g by default): the subgraph induced
    on it, in g's ids.  X runs over all live vertex subsets in (size,
    lexicographic) order, starting with the empty set; the components of
    each X are listed by least vertex.  A component is finite when it
    contains no vertex of frontier_mask.  On a closed window (frontier_mask
    0) whose g has at most max_x components, each X costs one
    :func:`mask_components` search of all of g - X.  Otherwise, with a
    frontier or when every X misses a component of g, :func:`_open_cuts`
    walks the X: it reuses the finite components of g that X misses and
    searches only from N(X).  :func:`_piece_cuts` walks only the X that
    can leave a finite component.  Both walks stay: sending every closed
    window to :func:`_open_cuts` made the all-X walks of 523 small closed
    graphs 1.18 times slower on the connected ones, 1.40 on the others.
    """
    live = _live_mask(g, live)
    masks = g.neighbor_masks
    comps = mask_components(masks, live)
    subsets = iter_subsets(vertices_of(live), max_x)
    if frontier_mask or len(comps) > max_x:
        yield from _open_cuts(g, frontier_mask, live, comps, subsets)
        return
    for xs in subsets:
        xmask = mask_of(xs)
        yield xs, xmask, mask_components(masks, live & ~xmask) if xs else comps


def _piece_cuts(
    g: Graph, frontier_mask: int, max_x: int, live: int
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
    masks = g.neighbor_masks
    comps = mask_components(masks, live)
    pools: dict[int, int] = {}
    for c, nc in _pieces(masks, frontier_mask, max_x, live):
        pools[nc] = pools.get(nc, 0) | live & ~(c | nc)
    walked = sum(_subset_count(pool.bit_count(), max_x - nc.bit_count())
                 for nc, pool in pools.items())
    if walked >= _subset_count(live.bit_count(), max_x):
        subsets = iter_subsets(vertices_of(live), max_x)
        return _open_cuts(g, frontier_mask, live, comps, subsets)
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
    return _open_cuts(g, frontier_mask, live, comps, subsets)


def _open_cuts(
    g: Graph, frontier_mask: int, live: int, comps: list[int],
    subsets: Iterable[tuple[int, ...]],
) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """(X, mask of X, finite component masks of g - X) for each X of subsets,
    where g is read on the mask live and comps lists its components.

    A finite component of g - X is either a finite component of g that X
    misses, taken as it is from ``whole`` (each vertex's component of g),
    or lies in a component of g that X touches and holds a vertex of N(X);
    only the latter are searched, from N(X) minus X, by
    :func:`_finite_components`.  The least vertex not yet listed either
    lies in a component X misses or starts the next component the search
    found, which come sorted by least vertex, so the list comes in that
    order without sorting the components X misses.
    """
    masks = g.neighbor_masks
    whole = [0] * len(masks)
    finite = 0
    for comp in comps:
        if not comp & frontier_mask:
            finite |= comp
        for v in vertices_of(comp):
            whole[v] = comp
    for xs in subsets:
        xmask = touched = nbrs = 0
        for v in xs:
            xmask |= 1 << v
            touched |= whole[v]
            nbrs |= masks[v]
        found = _finite_components(masks, live & ~xmask, nbrs, frontier_mask)
        rest = finite & ~touched
        if rest:
            split = iter(found)
            for comp in found:
                rest |= comp
            found = []
            while rest:
                comp = whole[(rest & -rest).bit_length() - 1]
                if comp & xmask:
                    comp = next(split)
                found.append(comp)
                rest &= ~comp
        yield xs, xmask, found


def _pieces(
    masks: Sequence[int], frontier_mask: int, max_x: int, live: int
) -> Iterator[tuple[int, int]]:
    """Each piece C with |N(C)| <= max_x, once, as the masks (C, N(C)).

    A piece is a nonempty connected set of live vertices, none of them on
    the frontier: what can be a finite component of g - X.  Masking each
    neighbour set with live, the search neither roots nor grows a piece at
    a dead vertex, and its paths avoid them.  The search from root v finds
    the pieces whose least vertex is v (the "connected set with small
    neighbourhood" enumeration of Fomin and Villanger, 2012).  C grows from
    {v}; the least undecided vertex of N(C) either joins C or stays out, in
    D, and frontier vertices and ids below v stay out as soon as C touches
    them.  A piece the branch can still reach has N = D plus a vertex cut
    between C and those blocked vertices in g - D, so the branch ends once
    more than max_x - |D| disjoint paths between them are found in g - D:
    each such cut has a vertex on every path (see :func:`_cut_exceeds`).
    """
    for v in vertices_of(live & ~frontier_mask):
        root = 1 << v
        blocked = frontier_mask | (root - 1)
        nbrs = masks[v] & live
        stack = [(root, nbrs, nbrs & blocked)]
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
            # neighbour beyond C and D, so the paths are sought only when more
            # of them than the budget exist.
            starts = 0
            rest = undecided
            while rest:
                low = rest & -rest
                rest ^= low
                if masks[low.bit_length() - 1] & live & ~(c | out):
                    starts |= low
            if starts.bit_count() > budget and _cut_exceeds(
                masks, c, starts, out | ~live, blocked, budget
            ):
                continue
            u = undecided & -undecided
            grown = masks[u.bit_length() - 1] & live
            stack.append((c, nbrs, out | u))
            stack.append((c | u, (nbrs | grown) & ~(c | u), out | grown & blocked))


def _cut_exceeds(
    masks: Sequence[int], source: int, starts: int, removed: int, sinks: int, budget: int
) -> bool:
    """True when more than budget disjoint paths are found from source to
    sinks in g - removed, so every vertex cut between them outside source
    and removed has more than budget vertices: it meets each path at a
    vertex of its own.

    The paths leave source through starts, share no vertex outside source,
    and end at their first vertex of sinks.  They are found greedily: one
    breadth-first search per start, in ascending order, avoiding ``used``
    (source, removed and the paths found so far), that stops at the first
    layer touching sinks.  A search that touches none adds all it reached
    to ``used``, since none of it can reach a sink.  Greedy paths can be
    fewer than the most disjoint paths, but not on a forest with a
    connected source, where the parts beyond distinct starts are disjoint.
    """
    used = source | removed
    found = 0
    rest = starts
    while rest:
        start = rest & -rest
        rest ^= start
        layers = []
        reached = 0
        layer = start & ~used
        while layer and not layer & sinks:
            reached |= layer
            layers.append(layer)
            nxt = 0
            scan = layer
            while scan:
                low = scan & -scan
                scan ^= low
                nxt |= masks[low.bit_length() - 1]
            layer = nxt & ~(used | reached)
        if not layer:
            used |= reached
            continue
        found += 1
        if found > budget:
            return True
        # Walk back from one sink through one neighbour in each layer.
        step = layer & sinks
        step &= -step
        used |= step
        for back in reversed(layers):
            step = back & masks[step.bit_length() - 1]
            step &= -step
            used |= step
    return False


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


def _check_edge_lines(n: int, block: Sequence[str]) -> None:
    """Raise InputError for the first bad edge line of ``block``, if any.

    Each line is checked in turn: two tokens, both integers, both in
    range, u < v, and not a repeat of an earlier line.
    """
    seen: set[tuple[int, int]] = set()
    for i, line in enumerate(block):
        lineno = i + 2
        parts = line.split()
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


def parse_window_text(text: str) -> Window:
    """Parse the edge-list format; raises InputError with a line number.

    The edge lines are read in one bulk pass and checked as a block; when
    the block fails, a line-by-line pass names the first bad line.
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
    block = lines[1 : 1 + m]
    try:
        pairs = [(int(a), int(b)) for a, b in map(str.split, block)]
    except ValueError:  # a wrong token count, or a token that is no integer
        pairs = None
    if pairs is None or not (
        all(0 <= u < v < n for u, v in pairs) and len(set(pairs)) == m
    ):
        _check_edge_lines(n, block)
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
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        rows[u].append(v)
        rows[v].append(u)
    for row in rows:
        row.sort()
    graph = Graph(n, tuple(map(tuple, rows)))
    if interior is None:
        if stub_seen:
            raise InputError("stub lines require an interior line")
        return Window.closed(graph)
    return Window(graph, interior, tuple(stubs))
