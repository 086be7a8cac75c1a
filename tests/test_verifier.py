import itertools
import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    brute_lemma,
    brute_tutte,
    classify_components,
    hull_report,
    is_connected,
    made_regular,
    pendant_completion,
    random_graph,
    windows,
)
from tuttelab import (
    Graph,
    GroupSpec,
    InputError,
    Window,
    cayley_ball,
    check_tutte_eps_k,
    epsilon_from_delta,
    expansion_constant,
    fixture,
    has_perfect_matching,
    tutte_berge_deficiency,
    verify_expansion_lemma,
)
from tuttelab.core import (
    _connected_sets,
    _finite_components,
    finite_cuts,
    mask_of,
    vertices_of,
)
from tuttelab.verifier import _mask_boundary

# 3-regular with one frontier vertex (9): a K4 minus the edge 5-6 hangs off
# 8, and a K4 on {2,3,4,7} is a finite component of the whole graph.
TWO_PIECES = Window(
    Graph.from_edges(10, [(0, 1), (0, 5), (0, 6), (1, 5), (1, 6), (5, 8), (6, 8),
                          (8, 9), (2, 3), (2, 4), (2, 7), (3, 4), (3, 7), (4, 7)]),
    frozenset(range(9)),
    (0,) * 9 + (2,),
)


def brute_force_expansion(g, stubs, max_f):
    """The all-subsets reference for expansion_constant.

    Least boundary-to-size ratio over every nonempty F with |F| <= max_f,
    its least witness in (size, lex) order, and how many of those F are
    connected.
    """
    best = witness = None
    connected = 0
    for size in range(1, max_f + 1):
        for fs in itertools.combinations(range(g.vertex_count), size):
            boundary = sum(
                stubs[v] + sum(1 for u in g.adjacency[v] if u not in fs) for v in fs
            )
            ratio = Fraction(boundary, size)
            if best is None or ratio < best:
                best, witness = ratio, fs
            connected += is_connected(g, fs)
    return best, witness, connected


class CountingMasks(list):
    """Neighbour masks that count how often a vertex is expanded."""

    lookups = 0

    def __getitem__(self, v):
        self.lookups += 1
        return super().__getitem__(v)


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


class TestHullReport:
    def test_path_center(self):
        w = Window.closed(fixture("path(3)"))
        rep = hull_report(w, {1})
        assert rep.odd_components == ((0,), (2,))
        assert rep.hull_odd == frozenset({0, 1, 2})

    def test_complete4(self):
        w = Window.closed(fixture("complete(4)"))
        rep = hull_report(w, {0})
        assert rep.odd_components == ((1, 2, 3),)
        assert rep.hull_odd == frozenset({0, 1, 2, 3})

    def test_ball_center_has_no_finite_components(self):
        w = cayley_ball(GroupSpec.free(2), 2)
        rep = hull_report(w, {0})
        assert rep.odd_components == ()
        assert rep.hull_odd == frozenset({0})

    @given(graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_hull_containments(self, g, data):
        w = Window.closed(g)
        x = data.draw(st.sets(st.integers(0, g.vertex_count - 1)))
        rep = hull_report(w, x)
        assert rep.hull_odd <= rep.hull_fin
        assert len(rep.odd_components) <= len(rep.finite_components)
        odd_as_sets = {frozenset(c) for c in rep.odd_components}
        fin_as_sets = {frozenset(c) for c in rep.finite_components}
        assert odd_as_sets <= fin_as_sets

    @given(graphs(max_n=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_finite_components_on_windows(self, g, data):
        n = g.vertex_count
        interior = data.draw(st.frozensets(st.integers(0, n - 1)))
        w = Window(g, interior, (0,) * n)
        x = data.draw(st.sets(st.integers(0, n - 1)))
        expected, _ = classify_components(w, x)
        assert list(hull_report(w, x).finite_components) == [
            tuple(comp) for comp in expected
        ]


class TestFiniteCuts:
    @staticmethod
    def assert_agrees_with_adjacency_search(w, max_x):
        for xs, _, finite in finite_cuts(w.graph, w.frontier_mask, max_x):
            expected, _ = classify_components(w, xs)
            assert [list(vertices_of(comp)) for comp in finite] == expected, xs

    def test_free_ball_radius_two(self):
        w = cayley_ball(GroupSpec.free(2), 2)
        self.assert_agrees_with_adjacency_search(w, 4)
        # The four radius-1 vertices cut the centre off; nothing smaller
        # than a full neighbourhood cuts off anything.
        cuts = {
            xs: [vertices_of(comp) for comp in finite]
            for xs, _, finite in finite_cuts(w.graph, w.frontier_mask, 4)
            if finite
        }
        assert cuts[(1, 2, 3, 4)] == [(0,)]
        assert min(len(xs) for xs in cuts) == 4

    def test_finite_component_of_the_graph_away_from_x(self):
        # The K4 on {2,3,4,7} touches no X that misses it, so only its
        # least vertex can seed its search; X = {8} meets the pieces in
        # the other order from N(X) = {5, 6, 9}.
        self.assert_agrees_with_adjacency_search(TWO_PIECES, 3)
        cuts = {
            xs: [vertices_of(comp) for comp in finite]
            for xs, _, finite in finite_cuts(TWO_PIECES.graph, TWO_PIECES.frontier_mask, 1)
        }
        assert cuts[()] == [(2, 3, 4, 7)]
        assert cuts[(8,)] == [(0, 1, 5, 6), (2, 3, 4, 7)]

    def test_search_may_cross_an_earlier_search(self):
        # Path 0-1-2-3 with frontier vertex 0 and X = {4} next to 1 and 3:
        # the search from 1 meets the frontier at 0, and the search from 3
        # reaches it only through 2, which the first search explored.
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4), (3, 4)])
        w = Window(g, frozenset({1, 2, 3, 4}), (1, 0, 0, 0, 0))
        assert _finite_components(g.neighbor_masks, 0b01111, 0b01010, 1) == []
        self.assert_agrees_with_adjacency_search(w, 2)

    def test_explored_vertices_start_no_search(self):
        # X = {0} with N(X) = {1, 2, 3}: the search from 1 takes in 2 and 3
        # before it meets frontier vertex 4, so 1, 2 and 3 are each
        # expanded once and no second search starts.
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
        masks = CountingMasks(g.neighbor_masks)
        assert _finite_components(masks, 0b11110, 0b01110, 0b10000) == []
        assert masks.lookups == 3


class TestConnectedSets:
    @given(graphs(max_n=9), st.data())
    @settings(max_examples=80, deadline=None)
    def test_each_connected_set_exactly_once(self, g, data):
        n = g.vertex_count
        max_f = data.draw(st.integers(1, n))
        # The whole vertex set, and a random proper subset as the pool.
        for pool in (g.full_mask, data.draw(st.integers(0, g.full_mask - 1))):
            got = list(_connected_sets(g.neighbor_masks, pool, max_f))
            expected = {
                mask_of(fs)
                for size in range(1, max_f + 1)
                for fs in itertools.combinations(vertices_of(pool), size)
                if is_connected(g, fs)
            }
            assert len(got) == len(set(got))
            assert set(got) == expected


class TestCheckTutte:
    def test_star3_fails_classically(self):
        w = Window.closed(fixture("star(3)"))
        rep = check_tutte_eps_k(w, 0, 1, 2)
        assert not rep.passed
        tutte_violations = [v for v in rep.violations if v.kind == "tutte"]
        assert any(v.x == (0,) and v.count == 3 for v in tutte_violations)

    def test_complete4_fails_quantitatively(self):
        w = Window.closed(fixture("complete(4)"))
        rep = check_tutte_eps_k(w, Fraction(1, 4), 1, 2)
        assert not rep.passed
        v = next(v for v in rep.violations if v.kind == "quantitative")
        assert v.x == (0,)
        assert v.count == 1 and v.hull_size == 4

    def test_free_ball_passes(self):
        w = cayley_ball(GroupSpec.free(2), 3)
        rep = check_tutte_eps_k(w, Fraction(1, 2), 1, 4)
        assert rep.passed

    def test_bad_parameters(self):
        w = Window.closed(fixture("cycle(4)"))
        with pytest.raises(InputError):
            check_tutte_eps_k(w, Fraction(-1, 2), 1, 2)
        with pytest.raises(InputError):
            check_tutte_eps_k(w, 0, 0, 2)

    @given(graphs(min_n=1, max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_zero_epsilon_matches_deficiency_oracle(self, g):
        w = Window.closed(g)
        n = g.vertex_count
        rep = check_tutte_eps_k(w, 0, 1, n)
        assert rep.passed == (tutte_berge_deficiency(g, n).deficiency == 0)
        assert rep.passed == has_perfect_matching(g)

    @given(windows(max_n=6), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_certificate_equals_enumeration(self, w, complete, data):
        # With k > n a perfect matching certifies the check; patching the
        # oracle to answer False forces the enumeration on the same call.
        if complete:
            g = pendant_completion(w.graph)
            leaves = range(w.graph.vertex_count, g.vertex_count)
            w = Window(g, w.interior | frozenset(leaves),
                       w.external_stubs + (0,) * len(leaves))
        n = w.graph.vertex_count
        eps = data.draw(st.sampled_from([Fraction(e) for e in ("0", "1/8", "1", "3/2")]))
        k = data.draw(st.sampled_from([k for k in (n - 1, n, n + 1, n + 2) if k >= 1]))
        max_x = data.draw(st.integers(1, n + 1))
        report = check_tutte_eps_k(w, eps, k, max_x)
        with patch("tuttelab.verifier.has_perfect_matching", return_value=False):
            assert check_tutte_eps_k(w, eps, k, max_x) == report

    @given(windows(max_n=7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_matching_call_when_k_fits_the_window(self, w, data):
        # The cross-checks against has_perfect_matching (criterion 2, the
        # deficiency test above, closed-corpus) all use k <= n, where the
        # check must stay an enumeration independent of the matching.
        n = w.graph.vertex_count
        assume(n >= 1)
        eps = Fraction(data.draw(st.integers(0, 12)), 8)
        k = data.draw(st.integers(1, n))
        max_x = data.draw(st.integers(1, n))
        with patch("tuttelab.verifier.has_perfect_matching",
                   side_effect=AssertionError("matching consulted")):
            check_tutte_eps_k(w, eps, k, max_x)

    @given(graphs(min_n=1, max_n=7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_epsilon_and_k(self, g, data):
        w = Window.closed(g)
        n = g.vertex_count
        eps = Fraction(data.draw(st.integers(0, 8)), 8)
        k = data.draw(st.integers(1, 4))
        if check_tutte_eps_k(w, eps, k, n).passed:
            assert check_tutte_eps_k(w, eps / 2, k + 2, n).passed


def boundary(w, f):
    """Edges leaving f plus the external stubs of f, as the verifiers count them."""
    return _mask_boundary(w.graph.neighbor_masks, w.external_stubs, mask_of(f))


class TestEdgeBoundary:
    def test_cycle_arc(self):
        w = Window.closed(fixture("cycle(8)"))
        assert boundary(w, {0, 1, 2, 3}) == 2

    def test_ball_center(self):
        w = cayley_ball(GroupSpec.free(2), 1)
        assert boundary(w, {0}) == 4
        # The four leaves: one edge each to the centre, three stubs each.
        assert boundary(w, {1, 2, 3, 4}) == 4 + 12

    def test_ball_center_plus_sphere(self):
        w = cayley_ball(GroupSpec.free(2), 2)
        assert boundary(w, {0, 1, 2, 3, 4}) == 12

    @given(graphs(min_n=1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_handshake_identity(self, g, data):
        w = Window.closed(g)
        f = data.draw(st.sets(st.integers(0, g.vertex_count - 1)))
        inside = sum(1 for e in g.edges() if e.u in f and e.v in f)
        degree_sum = sum(g.degree(v) for v in f)
        assert boundary(w, f) + 2 * inside == degree_sum


def recounted_boundary(w, f):
    """Edges leaving f plus the external stubs of f, recounted from the
    adjacency rows."""
    inside = set(f)
    return sum(
        w.external_stubs[v] + sum(u not in inside for u in w.graph.adjacency[v])
        for v in f
    )


class TestExpansionConstant:
    def test_cycle8(self):
        w = Window.closed(fixture("cycle(8)"))
        rep = expansion_constant(w, 4)
        assert rep.delta_lower == Fraction(1, 2)
        assert len(rep.delta_witness) == 4

    def test_free_ball(self):
        w = cayley_ball(GroupSpec.free(2), 2)
        rep = expansion_constant(w, 5)
        assert rep.delta_lower == Fraction(12, 5)
        assert rep.witness_boundary == 12

    def test_complete4(self):
        # Any 3 vertices of K4 send 3 edges to the remaining vertex.
        w = Window.closed(fixture("complete(4)"))
        rep = expansion_constant(w, 3)
        assert rep.delta_lower == Fraction(1)
        assert len(rep.delta_witness) == 3
        assert rep.witness_boundary == 3

    def test_connected_restriction_is_lossless(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 8), 0.5)
            w = Window.closed(g)
            rep = expansion_constant(w, 4)
            best, witness, connected = brute_force_expansion(g, (0,) * g.vertex_count, 4)
            assert rep.delta_lower == best
            assert rep.delta_witness == witness
            assert rep.witness_boundary == recounted_boundary(w, witness)
            assert rep.checked == connected

    def test_bad_max_f(self):
        with pytest.raises(InputError):
            expansion_constant(Window.closed(fixture("cycle(4)")), 0)

    def test_regular_window_bounds(self):
        w = cayley_ball(GroupSpec.free(2), 2)
        rep = expansion_constant(w, 4)
        assert rep.delta_lower <= 4
        assert epsilon_from_delta(rep.delta_lower, 4) <= 1

    def test_matches_brute_force_minimum_on_windows_with_stubs(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7), 0.45)
            n = g.vertex_count
            frontier = {v for v in range(n) if rng.random() < 0.5}
            stubs = tuple(rng.randint(0, 3) if v in frontier else 0 for v in range(n))
            w = Window(g, frozenset(range(n)) - frontier, stubs)
            max_f = rng.randint(1, n)
            best, witness, connected = brute_force_expansion(g, stubs, max_f)
            rep = expansion_constant(w, max_f)
            assert rep.delta_lower == best
            assert rep.delta_witness == witness
            assert rep.witness_boundary == recounted_boundary(w, witness)
            assert rep.checked == connected


class TestEpsilonFromDelta:
    def test_four_regular_tree_value(self):
        assert epsilon_from_delta(2, 4) == Fraction(1, 2)

    def test_zero(self):
        assert epsilon_from_delta(0, 7) == 0

    def test_arithmetic(self):
        assert epsilon_from_delta(1, 6) == Fraction(1, 6)

    def test_zero_degree_rejected(self):
        with pytest.raises(InputError):
            epsilon_from_delta(1, 0)


class TestExpansionLemma:
    def test_free_ball_passes(self):
        w = cayley_ball(GroupSpec.free(2), 3)
        rep = verify_expansion_lemma(w, 4, 2, 3)
        assert rep.passed
        assert rep.epsilon == Fraction(1, 2)

    def test_closed_complete4_fails(self):
        w = Window.closed(fixture("complete(4)"))
        rep = verify_expansion_lemma(w, 3, Fraction(2, 3), 2)
        assert not rep.passed
        assert any(
            v.kind == "expansion" and v.x == (0,) for v in rep.violations
        )

    def test_max_x_zero_checks_the_empty_x(self):
        # |X| <= 0 still admits X = {}: the walk checks it, and reports the
        # same violations at it as any larger bound does.
        w = Window.closed(fixture("complete(4)"))
        rep = verify_expansion_lemma(w, 3, Fraction(2, 3), 0)
        wider = verify_expansion_lemma(w, 3, Fraction(2, 3), 1)
        assert rep.candidates == 1
        assert rep.violations == tuple(v for v in wider.violations if v.x == ())
        assert [v.kind for v in rep.violations] == ["boundary", "expansion"]

    def test_non_regular_rejected(self):
        w = Window.closed(fixture("path(3)"))
        with pytest.raises(InputError):
            verify_expansion_lemma(w, 2, 1, 2)

    def test_boundary_bound_is_checked(self):
        # Closed cycle(4) with d=2: at X = {} the whole graph is a finite
        # component with empty boundary, so the per-component bound fires
        # there; removing one vertex leaves a path with boundary exactly 2,
        # which satisfies the bound.
        w = Window.closed(fixture("cycle(4)"))
        rep = verify_expansion_lemma(w, 2, Fraction(1, 2), 1)
        boundary_violations = [v for v in rep.violations if v.kind == "boundary"]
        assert [v.x for v in boundary_violations] == [()]
        assert boundary_violations[0].component == (0, 1, 2, 3)
        assert any(v.kind == "expansion" for v in rep.violations)


class TestAgainstAllSubsets:
    """The verifiers against the helpers' walk over every X.

    On a window with a frontier and epsilon <= 1 (delta <= d for the lemma)
    the verifiers examine only the X that cut off a finite piece; closed
    windows, epsilon > 1 and delta > d walk every X.
    """

    @given(windows(max_n=7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_tutte_check(self, w, data):
        n = w.graph.vertex_count
        assume(n >= 1)
        eps = data.draw(st.sampled_from([Fraction(e) for e in ("0", "1/2", "1", "3/2")]))
        k = data.draw(st.integers(1, n + 1))
        max_x = data.draw(st.integers(1, n))
        assert check_tutte_eps_k(w, eps, k, max_x) == brute_tutte(w, eps, k, max_x)

    @given(windows(max_n=7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_expansion_lemma(self, w, data):
        w, d = made_regular(w)
        assume(d >= 1)
        delta = data.draw(st.sampled_from([Fraction(v, 2) for v in (0, d, 2 * d, 2 * d + 2)]))
        max_x = data.draw(st.integers(0, w.graph.vertex_count))
        assert verify_expansion_lemma(w, d, delta, max_x) == brute_lemma(w, d, delta, max_x)

    def test_paper_scale_ball(self):
        # The free(2) radius-5 ball: 485 vertices, so 2.3e9 candidate X at
        # max_x = 4, of which 161 cut off a piece (an interior vertex).
        w = cayley_ball(GroupSpec.free(2), 5)
        candidates = sum(math.comb(485, i) for i in range(5))
        tutte = check_tutte_eps_k(w, Fraction(1, 2), 1, 4)
        assert tutte.passed and tutte.candidates == candidates
        lemma = verify_expansion_lemma(w, 4, 2, 4)
        assert lemma.passed and lemma.candidates == candidates
