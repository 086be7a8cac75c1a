"""Level-by-level matching construction with certified invariants.

The engine consumes a budget schedule (epsilon, f(0) < f(1) < ..., and
the per-level residues eps_n = epsilon - sum_{m<=n} 4/f(m)), a stack of
f(n)-separated vertex nets, and a window.  At level n it walks the net
A_n in ascending order and, for each net vertex still present, picks the
least incident edge whose removal (with both endpoints) keeps the
remaining graph perfectly matchable.  Endpoints are removed immediately,
so every later choice is validated against the current graph; the
distance separation that justifies simultaneous choices in the infinite
setting holds by the nets' construction, but is not relied on.  The
remaining graph is never copied: the engine keeps one ``live`` vertex mask
over the input window, clears the endpoints it covers, and asks every
question of the input graph under that mask.

After each level the engine records a certificate: the remaining graph
passes the quantitative Tutte check at (eps_n, f(n)) up to a
caller-chosen enumeration bound, and the check's clause (i) at the empty
X counts its odd finite components.  The proofs behind those facts are
not re-derived; the checks test their conclusions directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import Edge, Graph, InputError, Window
from .matching import MatchingState, has_perfect_matching
from .verifier import TutteReport, check_tutte_eps_k


@dataclass(frozen=True)
class Schedule:
    """Budget for the layered construction.

    Invariants (all exact, validated on construction):
      * f strictly increasing and positive;
      * eps_n = epsilon - sum_{m<=n} 4/f(m), all positive.
    As eps_n = eps_{n-1} - 4/f(n), that is eps_{n-1} * f(n) > 4 at every
    level (eps_{-1} = epsilon), and the sum over levels of 4/f(n) stays
    below epsilon.
    """

    epsilon: Fraction
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        if not self.levels:
            raise InputError("schedule needs at least one level")
        if any(f_n <= prev for prev, f_n in zip((0, *self.levels), self.levels)):
            raise InputError("f must be strictly increasing and positive")
        # eps_n falls with n, so the last one is the least.
        if self.eps[-1] <= 0:
            raise InputError("all eps_n must stay positive")

    @cached_property
    def eps(self) -> tuple[Fraction, ...]:
        """The residues eps_n = epsilon - sum_{m<=n} 4/f(m), one per level."""
        eps = []
        rest = self.epsilon
        for f_n in self.levels:
            rest -= Fraction(4, f_n)
            eps.append(rest)
        return tuple(eps)

    @property
    def level_count(self) -> int:
        return len(self.levels)


def build_schedule(epsilon: Fraction | int | str, level_count: int) -> Schedule:
    """Choose f(n) = c * 2^n with c the least power of two that works.

    With c > 8/epsilon the full geometric series sum_n 4/(c 2^n) = 8/c
    stays below epsilon, so any truncation of the schedule is safe, and
    eps_{n-1} f(n) = (epsilon - 8/c) f(n) + 8 > 4 holds at every level.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if level_count < 1:
        raise InputError("level_count must be positive")
    c = 1
    while c * epsilon <= 8:
        c *= 2
    return Schedule(epsilon, tuple(c * (1 << n) for n in range(level_count)))


@dataclass(frozen=True)
class NetLevels:
    """Per-level vertex nets A_n over the interior of a window.

    Distinct vertices of A_n sit at graph distance > f(n); levels are
    pairwise disjoint subsets of the interior.
    """

    levels: tuple[tuple[int, ...], ...]


def build_nets(w: Window, schedule: Schedule) -> NetLevels:
    """Greedy maximal f(n)-separated nets over the interior, level by level.

    Each level scans the not-yet-used interior vertices in ascending id
    order and keeps a vertex unless it is within distance f(n) of a
    vertex already kept on this level, so each A_n is maximal among the
    remaining vertices.
    """
    g = w.graph
    remaining = sorted(w.interior)
    levels: list[tuple[int, ...]] = []
    for f_n in schedule.levels:
        chosen: list[int] = []
        blocked: set[int] = set()
        for v in remaining:
            if v in blocked:
                continue
            chosen.append(v)
            # Block everything within distance f_n of v (BFS cut off at f_n).
            frontier = [v]
            blocked.add(v)
            seen = {v}
            for _ in range(f_n):
                nxt = []
                for a in frontier:
                    for b in g.adjacency[a]:
                        if b not in seen:
                            seen.add(b)
                            nxt.append(b)
                blocked.update(nxt)
                frontier = nxt
                if not frontier:
                    break
        levels.append(tuple(chosen))
        chosen_set = set(chosen)
        remaining = [v for v in remaining if v not in chosen_set]
    return NetLevels(tuple(levels))


def _least_allowed(g: Graph, live: int, x: int) -> int | None:
    """Least neighbour u of x with x-u allowed in H, g on the mask live,
    else None.

    x-u lies in a perfect matching of H iff H - x - u has one (add x-u),
    so None means that H has no perfect matching.
    """
    rest = live & ~(1 << x)
    for u in g.adjacency[x]:
        if rest >> u & 1 and has_perfect_matching(g, rest ^ 1 << u):
            return u
    return None


@dataclass(frozen=True)
class LevelCertificate:
    """What level ``level`` chose and what was checked on the graph it left.

    The check runs on the level window: the input window minus every
    vertex covered so far.  ``tutte`` is its report at (eps_n, f(n)), so
    ``tutte.epsilon`` and ``tutte.k`` are the level's residue and f(n).
    Every id, in ``chosen_edges``, ``failed_vertices`` and the violation
    witnesses of ``tutte``, is an input window id.
    """

    level: int
    chosen_edges: tuple[Edge, ...]
    tutte: TutteReport
    failed_vertices: tuple[int, ...]

    @property
    def odd_component_count(self) -> int:
        """Odd finite components of the level window: clause (i)'s count at
        X = (), which comes first in (size, lex) order if at all; none when
        a perfect matching certified the report."""
        for v in self.tutte.violations[:1]:
            if v.x == () and v.kind == "tutte":
                return v.count
        return 0

    @property
    def passed(self) -> bool:
        # An odd finite component is itself a clause-(i) violation.
        return self.tutte.passed and not self.failed_vertices


@dataclass(frozen=True)
class RunCertificate:
    levels: tuple[LevelCertificate, ...]
    matching: MatchingState
    coverage: Fraction

    @property
    def aborted(self) -> bool:
        return any(c.failed_vertices for c in self.levels)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.levels)


def run_layered_matching(
    w: Window, schedule: Schedule, nets: NetLevels, cert_max_x: int
) -> RunCertificate:
    """Run the level-by-level construction and certify each level.

    Closed windows must be perfectly matchable up front.  On open windows
    the run proceeds on the truncated graph and simply records a failure
    (and aborts with the partial certificate) at the first net vertex
    with no extendable edge.  Such an abort shows only that the truncated
    graph minus the covered vertices, read as closed, has no perfect
    matching.  On an open window that need not violate Tutte's condition:
    frontier vertices, whose other neighbours lie outside the window, can
    be the cause even when a matching covers every interior vertex.
    """
    if len(nets.levels) != schedule.level_count:
        raise InputError("nets and schedule disagree on the number of levels")
    if cert_max_x < 1:
        raise InputError("cert_max_x must be positive")
    g = w.graph
    g.vertex_set(v for net in nets.levels for v in net)
    if w.is_closed and not has_perfect_matching(g):
        raise InputError("closed window has no perfect matching")

    matched: list[Edge] = []
    live = g.full_mask
    certificates: list[LevelCertificate] = []

    for level_idx, (f_n, eps_n, net) in enumerate(
        zip(schedule.levels, schedule.eps, nets.levels)
    ):
        chosen: list[Edge] = []
        failed: list[int] = []
        for x in sorted(net):
            if not live >> x & 1:
                continue
            u = _least_allowed(g, live, x)
            if u is None:
                failed.append(x)
                break
            e = Edge.of(x, u)
            chosen.append(e)
            matched.append(e)
            live ^= 1 << x | 1 << u
        certificates.append(
            LevelCertificate(
                level=level_idx,
                chosen_edges=tuple(chosen),
                tutte=check_tutte_eps_k(w, eps_n, f_n, cert_max_x, live),
                failed_vertices=tuple(failed),
            )
        )
        if failed:
            break

    matching = MatchingState.from_pairs(matched, g)
    interior_count = len(w.interior)
    if interior_count:
        coverage = Fraction(len(matching.covered & w.interior), interior_count)
    else:
        coverage = Fraction(1)
    return RunCertificate(tuple(certificates), matching, coverage)
