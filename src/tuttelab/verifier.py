"""Quantitative verification layer.

Everything here is exact: thresholds, ratios, and slacks are Fractions,
never floats, so pass/fail verdicts cannot be poisoned by rounding.
Verdicts cover every candidate set up to a stated size bound, and
violations come in (size, lexicographic) order of their X, which makes
reports and witnesses deterministic.  A verdict is therefore always "pass
up to max_x" - the report carries its own bound, and ``candidates``
counts every X it covers, examined or not.

Not every X is examined.  On a closed window, and at epsilon > 1 (delta >
d for the lemma), every X is.  On a window with a frontier at epsilon <= 1
only the X that contain N(C) for some finite piece C (a connected vertex
set with no frontier vertex) are.  Any other X leaves no finite
component: clause (i) below counts none, the hull is X itself with slack
|X|(1 - epsilon) >= 0, and both lemma inequalities hold.  A Tutte check
whose k exceeds the window examines no X when a perfect matching
certifies it (see :func:`check_tutte_eps_k`).

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
Tutte-Berge oracle) or, where only pieces matter, its ``_piece_cuts``, and
the hulls are the union of X with those components' masks.  The expansion
estimate walks connected sets with core's reverse search and, like the
gadget Hall audit, takes its minimum ratio and witness from core's
minimum-ratio kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    InputError,
    Window,
    _connected_sets,
    _live_mask,
    _min_ratios,
    _piece_cuts,
    _subset_count,
    finite_cuts,
    mask_is_connected,
    vertices_of,
)
from .matching import has_perfect_matching


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
    max_f: int
    checked: int

    @property
    def witness_boundary(self) -> int:
        """The witness's edge boundary plus its stubs: the ratio's numerator."""
        return int(self.delta_lower * len(self.delta_witness))


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


def check_tutte_eps_k(
    w: Window, epsilon: Fraction | int, k: int, max_x: int, live: int | None = None
) -> TutteReport:
    """Check the quantitative Tutte condition for every X with |X| <= max_x.

    With ``live``, the window checked is w minus every vertex outside that
    mask, its marks kept and its vertices named by w's ids.

    Condition (i) is checked for every examined X; condition (ii) only
    where it applies, i.e. when the odd hull is connected and has size at
    least k.  The empty set is examined (it is how an odd component of
    the graph itself is caught).  On a window with a frontier and epsilon
    <= 1, the examined X are those that can cut off a finite piece (see
    the module docstring); otherwise they are all X.

    When k exceeds the vertex count n and the graph has a perfect matching,
    the check is certified instead of enumerated.  No hull can reach k
    vertices, so (ii) never applies; and by Tutte's theorem no X leaves
    more than |X| odd components of G - X, of which the odd finite
    components are a subset, so (i) holds too.  The report is then the one
    the enumeration would give: no violations.  ``candidates`` is always
    the count of all X, the sum of C(n, i) over i <= min(max_x, n).  Any
    k <= n is checked without consulting the matching.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise InputError("epsilon must be nonnegative")
    if k < 1:
        raise InputError("k must be positive")
    if max_x < 1:
        raise InputError("max_x must be positive")
    live = _live_mask(w.graph, live)
    n = live.bit_count()
    candidates = _subset_count(n, max_x)
    if k > n and has_perfect_matching(w.graph, live):
        return TutteReport(epsilon, k, max_x, candidates, ())
    masks = w.graph.neighbor_masks
    violations: list[Violation] = []
    frontier = w.frontier_mask & live
    cuts = _piece_cuts if frontier and epsilon <= 1 else finite_cuts
    for xs, xmask, finite in cuts(w.graph, frontier, max_x, live):
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
    items = (
        (f, _mask_boundary(masks, stubs, f), f.bit_count())
        for f in _connected_sets(masks, w.graph.full_mask, max_f)
    )
    checked, [(delta, witness)] = _min_ratios(items, vertices_of, 1)
    return ExpansionReport(
        delta_lower=delta,
        delta_witness=witness,
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

    For every X with |X| <= max_x, the empty X first, as in every X walk:

      (a) each finite component of w - X has edge boundary >= d;
      (b) |X| >= #finite_components(X) + (delta/d) * |hull_fin(X)|.

    Regularity means degree-plus-stubs equals d at every vertex.  On a
    window with a frontier and delta <= d only the X that can cut off a
    finite piece are examined: an X that leaves no finite component meets
    (a) vacuously and (b) as |X| >= (delta/d)|X|.  ``candidates`` counts
    every X all the same.
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
    candidates = _subset_count(g.vertex_count, max_x)
    cuts = _piece_cuts if w.frontier_mask and delta <= d else finite_cuts
    for xs, xmask, finite in cuts(g, w.frontier_mask, max_x, g.full_mask):
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
