"""Balanced orientations of even-degree graphs, two independent ways.

Route one follows Euler: Hierholzer's walk directs each edge the way it
first takes it, which is the direction of its component's Euler circuit.
Route two goes through a bipartite gadget: one node per host edge,
deg(v)/2 copy nodes per host vertex, each edge node adjacent to every
copy of its endpoints.  A perfect matching of the gadget directs each
host edge toward the vertex owning its matched copy, and the in-degree
at v is then exactly deg(v)/2.  The two routes validate each other.  No
code here builds the gadget graph: one layout helper gives each edge
node's row of copy indices, which the route hands straight to matching's
Hopcroft-Karp kernel, since the gadget is bipartite by construction, and
from which the Hall audit reads the gadget's neighborhoods.

The Hall audit reads a truncation window's gadget: copies are allocated
against degree-plus-stubs (which must be even), i.e. each stub
contributes half a copy node.  Such gadgets exist for auditing
neighborhood expansion; they are not perfectly matchable inside the
truncation, since stub edges have no edge node.

The Hall audit checks |N(F)| >= (1+eps)|F| on each gadget side.  Copies
of one host vertex are twins (the same gadget neighbors, the same stub
credit), so an F's ratios depend only on its owner set and its size: the
audit scores, per owner set, the largest F it allows (and, for an owner
set with no gadget neighbor, the smallest), since no other F can be the
least (size, lex) minimiser.  Owner sets are walked depth first, past
every superset that cannot reach the running minima, which the walk reads
from core's ratio kernel; F is built only for one that ties or beats them.
Its ``checked`` counts every F covered.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .core import (
    Edge,
    Graph,
    InputError,
    Window,
    _min_ratios,
    _subset_count,
    mask_of,
)
from .matching import _hopcroft_karp


class GadgetMatchingError(RuntimeError):
    """The gadget of a closed even-degree graph failed to match perfectly.

    Mathematically unreachable for valid input (an Euler orientation
    always induces a perfect gadget matching); raised so that a broken
    invariant surfaces loudly; the message alone names what failed.
    """


@dataclass(frozen=True)
class Orientation:
    """One head per host edge; heads fixed at construction."""

    heads: tuple[tuple[Edge, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for e, h in self.heads:
            if e in seen:
                raise InputError(f"edge {e} directed twice")
            seen.add(e)
            if h not in (e.u, e.v):
                raise InputError(f"head {h} is not an endpoint of {e}")


@dataclass(frozen=True)
class BalanceReport:
    violations: tuple[tuple[int, int, int], ...]  # (vertex, in, out)

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_balanced(g: Graph, o: Orientation, interior: Iterable[int]) -> BalanceReport:
    """List every interior vertex whose in- and out-degrees differ.

    The heads must be total on g's edges: as they name distinct edges, as
    many as g has, each one in normalized form.  Then each edge at v points
    into v or out of it, exactly once, so out(v) = deg(v) - in(v).
    """
    adj = g.adjacency
    n = g.vertex_count
    if len(o.heads) != g.edge_count or not all(
        0 <= u < v < n and v in adj[u] for (u, v), _ in o.heads
    ):
        raise InputError("orientation is not total on the host edge set")
    indeg = [0] * n
    for _, h in o.heads:
        indeg[h] += 1
    bad = []
    for v in sorted(g.vertex_set(interior)):
        if 2 * indeg[v] != len(adj[v]):
            bad.append((v, indeg[v], len(adj[v]) - indeg[v]))
    return BalanceReport(tuple(bad))


def _gadget_layout(
    g: Graph, stubs: Sequence[int]
) -> tuple[list[Edge], list[tuple[int, ...]], list[int], list[tuple[int, ...]]]:
    """The host edges in lex order, each vertex's run of copy indices, each
    copy's owner, and each edge node's row.

    Copies are numbered 0.. grouped by owner in ascending (vertex, index)
    order, and the row of host edge u < v lists u's copy indices, then
    v's: the edge node's gadget adjacency, less the edge-node offset.
    Stubs are nonnegative (a Window's are, and the orientation route
    passes zeros); degrees plus stubs must be even.
    """
    copy_counts = []
    for v in range(g.vertex_count):
        total = g.degree(v) + stubs[v]
        if total % 2 != 0:
            raise InputError(f"vertex {v} has odd degree {total}")
        copy_counts.append(total // 2)
    first_copy = list(accumulate(copy_counts, initial=0))
    copies = [tuple(range(a, b)) for a, b in zip(first_copy, first_copy[1:])]
    copy_owner = [v for v, c in enumerate(copy_counts) for _ in range(c)]
    host_edges = g.edges()
    rows = [copies[u] + copies[v] for u, v in host_edges]
    return host_edges, copies, copy_owner, rows


def balanced_orientation_via_gadget(g: Graph) -> Orientation:
    """Orient via a perfect gadget matching; verified balanced on return.

    Hopcroft-Karp runs on the gadget's edge-node rows without building the
    gadget: it is bipartite by construction, and the rows are its sorted
    adjacency, so the matching is that of Hopcroft-Karp on the built
    gadget graph with the edge nodes as its left side, edge for edge.
    """
    host_edges, copies, copy_owner, rows = _gadget_layout(g, (0,) * g.vertex_count)
    del copies  # not needed here: free the runs before the matching
    mate = _hopcroft_karp(rows, len(copy_owner))
    if -1 in mate:
        # Both sides have one node per host edge, so an unmatched edge node
        # is the least uncovered node.
        m = len(host_edges)
        matched = set(mate)
        uncovered = tuple(i for i, t in enumerate(mate) if t == -1) + tuple(
            m + t for t in range(len(copy_owner)) if t not in matched
        )
        raise GadgetMatchingError(
            f"gadget matching not perfect; deficient edge-type nodes: {uncovered}"
        )
    o = Orientation(tuple(zip(host_edges, [copy_owner[t] for t in mate])))
    report = verify_balanced(g, o, range(g.vertex_count))
    if not report.passed:
        raise GadgetMatchingError(f"gadget orientation unbalanced at {report.violations}")
    return o


def eulerian_orientation(g: Graph) -> Orientation:
    """Orient along an Euler circuit of each component (deterministic).

    Hierholzer's walk starts at every vertex in ascending order and always
    leaves along the least unused incident edge, so identical inputs
    produce identical orientations.  Each edge is directed the way the
    walk first takes it: when the walk takes v -> u, u lands directly
    above v on the stack, and once u is popped the next pop is v itself,
    because with every degree even a walk restarted from v can get stuck
    only at v.  The circuit, the pops in reverse order, therefore runs
    every edge in the direction the walk took it, and need not be traced.
    Heads are kept in a list indexed by each edge's position in
    ``g.edges()``, -1 while the edge is unused, and returned in that order.
    """
    for v in range(g.vertex_count):
        if g.degree(v) % 2 != 0:
            raise InputError(f"vertex {v} has odd degree {g.degree(v)}")
    adj = g.adjacency
    edges = g.edges()
    # slot[v][j] is the position in ``edges`` of the edge to adj[v][j]: in
    # lexicographic order the edges to v's lesser neighbours come in
    # ascending order, before those to its greater ones.
    slot: list[list[int]] = [[] for _ in adj]
    for i, (v, u) in enumerate(edges):
        slot[v].append(i)
        slot[u].append(i)
    heads = [-1] * len(edges)
    ptr = [0] * g.vertex_count
    for start in range(g.vertex_count):
        stack = [start]
        while stack:
            v = stack[-1]
            row = adj[v]
            while ptr[v] < len(row):
                i = slot[v][ptr[v]]
                if heads[i] < 0:
                    u = row[ptr[v]]
                    heads[i] = u
                    stack.append(u)
                    break
                ptr[v] += 1
            else:
                stack.pop()
    return Orientation(tuple(zip(edges, heads)))


@dataclass(frozen=True)
class HallSide:
    """One side of the audit; its name is the :class:`GadgetHallReport`
    field that holds it, ``edge_side`` or ``vertex_side``."""

    checked: int
    min_ratio: Fraction | None
    witness: tuple[int, ...]
    min_ratio_credited: Fraction | None
    witness_credited: tuple[int, ...]


@dataclass(frozen=True)
class GadgetHallReport:
    epsilon: Fraction
    max_f: int
    edge_side: HallSide
    vertex_side: HallSide

    @staticmethod
    def _ok(value: Fraction | None, threshold: Fraction) -> bool:
        return value is None or value >= threshold

    @property
    def passed(self) -> bool:
        t = 1 + self.epsilon
        return self._ok(self.edge_side.min_ratio_credited, t) and self._ok(
            self.vertex_side.min_ratio_credited, t
        )

    @property
    def passed_raw(self) -> bool:
        t = 1 + self.epsilon
        return self._ok(self.edge_side.min_ratio, t) and self._ok(
            self.vertex_side.min_ratio, t
        )


def check_gadget_hall_expansion(
    w: Window, epsilon: Fraction | int, max_f: int
) -> GadgetHallReport:
    """Audit |N(F)| >= (1+epsilon)|F| for F on one side of w's gadget at a
    time.

    The gadget is the one the orientation route matches, with copies
    allocated against degree plus ``w.external_stubs``; witnesses name
    its nodes: edge nodes 0..m-1 for the host edges in lex order, then
    the copy nodes m.., grouped by owner in ascending (vertex, index)
    order.  Neighborhoods are counted literally in the gadget, whatever
    shape F has.  Vertices at the truncation frontier additionally earn
    a half-neighbor credit per stub for vertex-type F, once per owner of
    F's copy nodes (a stub edge's node lies outside the truncation;
    crediting half of it mirrors the way boundary edges enter the
    neighborhood count).  Edge-type F earns no credit: stub halves
    already entered the copy counts.  Minima are reported both with and
    without the credit.

    Each side is read as runs of twins: the copies of one host vertex
    share their gadget neighbors and their credit, and an edge node is a
    run of its own.  Both ratios of F therefore depend only on its owner
    set O (the runs F meets) and on |F|, so the F scored are, per O of
    at most max_f runs, the lex-least F of size min(max_f, |copies of
    O|) (each run's first node plus the least remaining ones), and also
    the run-firsts F when O has no gadget neighbor.  No other F can be
    the least (size, lex) minimiser: O fixes both numerators, so where
    one is positive its ratio falls strictly as |F| grows, and where it
    is zero every size ties and the least size wins.  Owner sets are
    walked depth first, a child adding one later run's mask, credit and
    length to its parent's; F is built only when it can be the witness.
    An O whose numerators over max_f both exceed the running minima, read
    from ``_min_ratios`` as it scores, is skipped with all below it: a
    superset has O's neighbors and credit or more and at most max_f nodes,
    so its ratios exceed the same minima.
    ``checked`` still counts every F covered, the nonempty subsets of the
    side with at most max_f nodes.

    The credited verdict holds only up to max_f: on the free(2) radius-2
    ball the vertex-side credited minimum is 5/4 at max_f 4-5, 7/6 at 6-7
    and 17/16 at 8-10.
    """
    # The layout first: an odd degree is named before a bad bound.
    host_edges, copies, _, rows = _gadget_layout(w.graph, w.external_stubs)
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise InputError("epsilon must be nonnegative")
    if max_f < 1:
        raise InputError("max_f must be positive")
    # Runs of twins, as (node ids ascending, gadget neighbors as a mask, stub
    # credit); only the mask's size is read.  One run per edge node, whose
    # neighbors are the copies in its row, and one per host vertex that has
    # copies, whose neighbors are the nodes of its host edges.
    m = len(rows)
    vertex_nbrs = [0] * len(copies)
    for i, (u, v) in enumerate(host_edges):
        vertex_nbrs[u] |= 1 << i
        vertex_nbrs[v] |= 1 << i
    edge_runs = [((i,), mask_of(row), 0) for i, row in enumerate(rows)]
    copy_runs = [
        (tuple(m + t for t in run), vertex_nbrs[v], w.external_stubs[v])
        for v, run in enumerate(copies)
        if run
    ]

    def audit(runs: list[tuple[tuple[int, ...], int, int]]) -> HallSide:
        scores = [(nbrs, credit, len(nodes)) for nodes, nbrs, credit in runs]

        def scored(best: list[tuple]) -> Iterator[tuple]:
            stack = [((r,), *score) for r, score in enumerate(scores)]
            while stack:
                owned, nmask, stubs, total = stack.pop()
                count = nmask.bit_count()
                credited = 2 * count + stubs
                (raw_p, raw_q, _), (cr_p, cr_q, _) = best  # 1/0 is +infinity
                if count * raw_q > raw_p * max_f and credited * cr_q > cr_p * 2 * max_f:
                    continue  # neither O nor any superset can be a witness
                size = total if total < max_f else max_f
                yield (owned, size), count, size, credited, 2 * size
                if not nmask and size > len(owned):
                    yield (owned, len(owned)), 0, len(owned), stubs, 2 * len(owned)
                if len(owned) < max_f:
                    last = owned[-1] + 1
                    stack.extend(
                        (owned + (r,), nmask | nbrs, stubs + credit, total + length)
                        for r, (nbrs, credit, length) in enumerate(scores[last:], last)
                    )

        def lex_least(key: tuple[tuple[int, ...], int]) -> tuple[int, ...]:
            # Each owner's first node, then the least remaining ones.
            owned, size = key
            room = size - len(owned)
            fs: tuple[int, ...] = ()
            for nodes, _, _ in map(runs.__getitem__, owned):
                take = min(room, len(nodes) - 1)
                fs += nodes[: take + 1]
                room -= take
            return fs

        _, [(raw, witness), (cr, cr_witness)] = _min_ratios(scored, lex_least, 2)
        checked = _subset_count(sum(len(nodes) for nodes, _, _ in runs), max_f) - 1
        return HallSide(checked, raw, witness, cr, cr_witness)

    return GadgetHallReport(epsilon, max_f, audit(edge_runs), audit(copy_runs))
