"""Quantitative verification layer.

Everything here is exact: thresholds, ratios, and slacks are Fractions,
never floats, so pass/fail verdicts cannot be poisoned by rounding.
Enumerations run over all candidate sets up to a stated size bound, in
(size, lexicographic) order, which makes reports and witnesses
deterministic.  A verdict is therefore always "pass up to max_x" - the
report carries its own bound.  The one exception is a Tutte check whose k
exceeds the window: a perfect matching certifies it (see
:func:`check_tutte_eps_k`), and the report is the one the enumeration
would give.

The central check: a graph (window) satisfies the quantitative Tutte
condition at (epsilon, k) when (i) no vertex set X leaves more than |X|
odd finite components behind, and (ii) whenever the odd hull of X - X
together with the odd finite components of G - X - is connected and has
at least k vertices,

    |X| >= #odd_components(X) + epsilon * |hull_odd(X)|.

Finiteness of a component follows the window's frontier rule: a component
touching the frontier would continue past the truncation and is treated
as infinite.

This module holds the inequalities, the reports and the expansion
estimate; the graph questions behind them are answered in
:mod:`tuttelab.core`, and the certificate's perfect matching in
:mod:`tuttelab.matching`.  X runs through core's ``finite_cuts`` (as in the
Tutte-Berge oracle), and :func:`hull_report` reads one X's components from
``classify_components``.  The expansion estimate walks connected sets with
core's reverse search and, like the gadget Hall audit, takes its minimum
ratio and witness from core's minimum-ratio kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .core import (
    InputError,
    Window,
    _connected_sets,
    _min_ratios,
    classify_components,
    finite_cuts,
    mask_is_connected,
    mask_of,
    vertices_of,
)
from .matching import has_perfect_matching


@dataclass(frozen=True)
class HullReport:
    """Odd/finite components of G - x and the corresponding hulls."""

    x: tuple[int, ...]
    odd_components: tuple[tuple[int, ...], ...]
    finite_components: tuple[tuple[int, ...], ...]
    hull_odd: frozenset[int]
    hull_fin: frozenset[int]


@dataclass(frozen=True)
class Violation:
    """One failed inequality, with the witness data needed to recheck it.

    kind is "tutte" (more odd components than |x|), "quantitative" (the
    epsilon-weighted inequality), "boundary" (a finite component with too
    small an edge boundary), or "expansion" (the finite-component variant
    of the quantitative inequality).  slack is the amount by which the
    inequality held; violations have negative slack except for "boundary",
    where slack is boundary - d.
    """

    kind: str
    x: tuple[int, ...]
    count: int
    hull_size: int
    slack: Fraction
    component: tuple[int, ...] = ()


@dataclass(frozen=True)
class TutteReport:
    epsilon: Fraction
    k: int
    max_x: int
    candidates: int
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ExpansionReport:
    delta_lower: Fraction
    delta_witness: tuple[int, ...]
    witness_boundary: int
    max_f: int
    checked: int


def _mask_boundary(masks: Sequence[int], stubs: Sequence[int], f: int) -> int:
    """Edges leaving the vertex mask f, plus the external stubs of f."""
    count = 0
    rest = f
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        count += (masks[v] & ~f).bit_count() + stubs[v]
    return count


def hull_report(w: Window, x: Iterable[int]) -> HullReport:
    """Finite components of w.graph - x by classify_components, and hulls."""
    xs = tuple(sorted(set(x)))
    finite = [tuple(c) for c in classify_components(w, xs)[0]]
    odd = [verts for verts in finite if len(verts) % 2 == 1]
    hull_odd = frozenset(xs) | {v for c in odd for v in c}
    hull_fin = frozenset(xs) | {v for c in finite for v in c}
    return HullReport(xs, tuple(odd), tuple(finite), hull_odd, hull_fin)


def check_tutte_eps_k(
    w: Window, epsilon: Fraction | int, k: int, max_x: int
) -> TutteReport:
    """Check the quantitative Tutte condition for every X with |X| <= max_x.

    Condition (i) is checked for every enumerated X; condition (ii) only
    where it applies, i.e. when the odd hull is connected and has size at
    least k.  The empty set is enumerated (it is how an odd component of
    the graph itself is caught).

    When k exceeds the vertex count n and the graph has a perfect matching,
    the check is certified instead of enumerated.  No hull can reach k
    vertices, so (ii) never applies; and by Tutte's theorem no X leaves
    more than |X| odd components of G - X, of which the odd finite
    components are a subset, so (i) holds too.  The report is then the one
    the enumeration would give: no violations, and ``candidates`` is its
    count of X, the sum of C(n, i) over i <= min(max_x, n).  Any k <= n is
    enumerated without consulting the matching.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise InputError("epsilon must be nonnegative")
    if k < 1:
        raise InputError("k must be positive")
    if max_x < 1:
        raise InputError("max_x must be positive")
    n = w.graph.vertex_count
    if k > n and has_perfect_matching(w.graph):
        candidates = sum(comb(n, i) for i in range(min(max_x, n) + 1))
        return TutteReport(epsilon, k, max_x, candidates, ())
    masks = w.graph.neighbor_masks
    violations: list[Violation] = []
    candidates = 0
    for xs, xmask, finite in finite_cuts(w.graph, w.frontier_mask, max_x):
        candidates += 1
        odd_count = 0
        hull = xmask
        for comp in finite:
            if comp.bit_count() & 1:
                odd_count += 1
                hull |= comp
        hull_size = hull.bit_count()
        if odd_count > len(xs):
            violations.append(
                Violation(
                    kind="tutte",
                    x=xs,
                    count=odd_count,
                    hull_size=hull_size,
                    slack=Fraction(len(xs) - odd_count),
                )
            )
        if hull_size >= k and mask_is_connected(masks, hull):
            slack = len(xs) - odd_count - epsilon * hull_size
            if slack < 0:
                violations.append(
                    Violation(
                        kind="quantitative",
                        x=xs,
                        count=odd_count,
                        hull_size=hull_size,
                        slack=slack,
                    )
                )
    return TutteReport(epsilon, k, max_x, candidates, tuple(violations))


def edge_boundary(w: Window, f: Iterable[int]) -> int:
    """Edges leaving f, counting external stubs of vertices in f."""
    fset = w.graph.vertex_set(f)
    return _mask_boundary(w.graph.neighbor_masks, w.external_stubs, mask_of(fset))


def expansion_constant(w: Window, max_f: int) -> ExpansionReport:
    """Minimum boundary-to-size ratio over nonempty F with |F| <= max_f.

    Only connected F are enumerated, grown directly by reverse search.
    That loses nothing: the boundary of a disconnected F is the sum over
    its connected pieces, so its ratio is at least the least ratio of a
    piece (mediant inequality), and every piece is smaller than F.  So a
    disconnected minimiser has a connected piece that is also one and
    comes before it in (size, lex) order: the minimum and the witness, the
    least minimiser in that order, are those of the enumeration of all
    subsets.  ``checked`` counts the connected sets.
    """
    if max_f < 1:
        raise InputError("max_f must be positive")
    if w.graph.vertex_count == 0:
        raise InputError("window has no vertices")
    masks = w.graph.neighbor_masks
    stubs = w.external_stubs
    sets = map(vertices_of, _connected_sets(masks, w.graph.full_mask, max_f))
    checked, [(delta, witness)] = _min_ratios(
        sets, lambda fs: ((_mask_boundary(masks, stubs, mask_of(fs)), len(fs)),), 1
    )
    return ExpansionReport(
        delta_lower=delta,
        delta_witness=witness,
        witness_boundary=int(delta * len(witness)),
        max_f=max_f,
        checked=checked,
    )


def epsilon_from_delta(delta: Fraction | int, d: int) -> Fraction:
    """Quantitative-Tutte epsilon implied by expansion delta on a
    d-regular graph: exactly delta / d."""
    delta = Fraction(delta)
    if delta < 0 or d < 1:
        raise InputError("need delta >= 0 and d >= 1")
    return delta / d


def verify_expansion_lemma(
    w: Window, d: int, delta: Fraction | int, max_x: int
) -> TutteReport:
    """Check the finite-component expansion inequalities on a d-regular window.

    For every X with |X| <= max_x (none at all when max_x = 0, a vacuous
    pass):

      (a) each finite component of w - X has edge boundary >= d;
      (b) |X| >= #finite_components(X) + (delta/d) * |hull_fin(X)|.

    Regularity means degree-plus-stubs equals d at every vertex.
    """
    if max_x < 0:
        raise InputError("max_x must be nonnegative")
    delta = Fraction(delta)
    if delta < 0:
        raise InputError("delta must be nonnegative")
    g = w.graph
    for v in range(g.vertex_count):
        if g.degree(v) + w.external_stubs[v] != d:
            raise InputError(
                f"window is not {d}-regular at vertex {v} "
                f"(degree {g.degree(v)} + {w.external_stubs[v]} stubs)"
            )
    eps = epsilon_from_delta(delta, d)
    eps_p, eps_q = eps.numerator, eps.denominator
    masks = g.neighbor_masks
    stubs = w.external_stubs
    violations: list[Violation] = []
    candidates = 0
    if max_x > 0:
        for xs, xmask, finite in finite_cuts(g, w.frontier_mask, max_x):
            candidates += 1
            hull = xmask
            # A boundary violation's count is its component's 1-based index.
            for index, comp in enumerate(finite, 1):
                hull |= comp
                boundary = _mask_boundary(masks, stubs, comp)
                if boundary < d:
                    violations.append(
                        Violation(
                            kind="boundary",
                            x=xs,
                            count=index,
                            hull_size=comp.bit_count(),
                            slack=Fraction(boundary - d),
                            component=vertices_of(comp),
                        )
                    )
            hull_size = hull.bit_count()
            if (len(xs) - len(finite)) * eps_q < eps_p * hull_size:
                violations.append(
                    Violation(
                        kind="expansion",
                        x=xs,
                        count=len(finite),
                        hull_size=hull_size,
                        slack=len(xs) - len(finite) - eps * hull_size,
                    )
                )
    return TutteReport(eps, 1, max_x, candidates, tuple(violations))
