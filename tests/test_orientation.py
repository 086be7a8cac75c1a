import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    bipartite_max_matching,
    brute_hall,
    build_gadget,
    circuit_trace_orientation,
    orientation_from_dict,
    orientation_from_matching,
    random_even_degree_graph,
)
from tuttelab import (
    Edge,
    GadgetMatchingError,
    Graph,
    GroupSpec,
    InputError,
    MatchingState,
    Orientation,
    Window,
    balanced_orientation_via_gadget,
    cayley_ball,
    check_gadget_hall_expansion,
    eulerian_orientation,
    fixture,
    verify_balanced,
)
from tuttelab import orientation


def stubbed(g: Graph, stubs) -> Window:
    """The window on g with these stubs; the vertices without any are interior."""
    return Window(g, frozenset(v for v, k in enumerate(stubs) if not k), tuple(stubs))


@st.composite
def stubbed_windows(draw) -> Window:
    """Hypothesis strategy: a window on at most 6 vertices and 4 edges.

    Each vertex draws 0-3 extra gadget copies (2-6 extra stubs, on top of
    one that makes its degree even), at most 5 in all, so edgeless
    vertices carry runs of up to 3 copies with no gadget neighbor, and a
    vertex that draws none while edgeless has no copy at all.
    """
    n = draw(st.integers(0, 6))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=4)) if pairs else set()
    g = Graph.from_edges(n, sorted(edges))
    spare = 5
    stubs = []
    for v in range(n):
        extra = draw(st.integers(0, min(3, spare)))
        spare -= extra
        stubs.append(g.degree(v) % 2 + 2 * extra)
    return stubbed(g, stubs)


@st.composite
def even_graphs(draw) -> Graph:
    """Hypothesis strategy: an even-degree graph on at most 10 vertices.

    Its edge set is the symmetric difference of up to 6 random cycles, so
    degrees run over 0-8, and the graph is often disconnected or has
    isolated vertices; n = 0 gives the empty graph.
    """
    n = draw(st.integers(0, 10))
    edges: set[Edge] = set()
    if n >= 3:
        cycle = st.lists(st.integers(0, n - 1), min_size=3, max_size=n, unique=True)
        for vs in draw(st.lists(cycle, max_size=6)):
            edges ^= {Edge.of(a, b) for a, b in zip(vs, vs[1:] + vs[:1])}
    return Graph.from_edges(n, sorted(edges))


def two_triangles() -> Graph:
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


class TestBuildGadget:
    def test_cycle4_counts(self):
        gad = build_gadget(fixture("cycle(4)"))
        assert gad.edge_node_count == 4
        assert gad.copy_node_count == 4
        assert gad.graph.edge_count == 8

    def test_complete5_counts(self):
        gad = build_gadget(fixture("complete(5)"))
        assert gad.edge_node_count == 10
        assert gad.copy_node_count == 10
        assert gad.graph.edge_count == 40

    def test_odd_degree_rejected(self):
        with pytest.raises(InputError):
            build_gadget(fixture("path(2)"))

    @pytest.mark.parametrize("stubs, vertex", [((-2, 0, 0, 0), 0), ((0, -2, 2, -4), 1)])
    def test_negative_stubs_rejected(self, stubs, vertex):
        # Even totals, so only the sign check can catch them; the least
        # offending vertex is named.
        with pytest.raises(InputError, match=f"^negative stub count at vertex {vertex}$"):
            build_gadget(fixture("cycle(4)"), stubs)

    def test_window_stubs_make_degrees_even(self):
        w = cayley_ball(GroupSpec.free(2), 2)
        gad = build_gadget(w.graph, w.external_stubs)
        # Every vertex gets (degree + stubs) / 2 = 2 copies.
        assert gad.copy_counts == (2,) * 17
        assert gad.copy_node_count == 34

    def test_degree_identity(self):
        g = fixture("complete(5)")
        gad = build_gadget(g)
        for i, e in enumerate(gad.host_edges):
            expected = g.degree(e.u) // 2 + g.degree(e.v) // 2
            assert gad.graph.degree(i) == expected

    def test_bipartition(self):
        gad = build_gadget(two_triangles())
        edge_nodes = set(gad.edge_nodes)
        for e in gad.graph.edges():
            assert (e.u in edge_nodes) != (e.v in edge_nodes)


class TestOrientationFromMatching:
    def test_forward_cycle(self):
        g = fixture("cycle(4)")
        gad = build_gadget(g)
        host_edges = list(gad.host_edges)
        # Match each edge node to the (single) copy of its higher endpoint
        # around the cycle 0-1-2-3-0: edge (i, i+1) directed to i+1, and
        # (0,3) directed to 0.
        target = {Edge(0, 1): 1, Edge(1, 2): 2, Edge(2, 3): 3, Edge(0, 3): 0}
        pairs = []
        for i, e in enumerate(host_edges):
            v = target[e]
            copy_id = gad.edge_node_count + v  # one copy per vertex here
            pairs.append((i, copy_id))
        m = MatchingState.from_pairs(pairs, gad.graph)
        o = orientation_from_matching(gad, m)
        assert all(dict(o.heads)[e] == target[e] for e in host_edges)
        assert verify_balanced(g, o, range(4)).passed

    def test_reverse_cycle(self):
        g = fixture("cycle(4)")
        gad = build_gadget(g)
        target = {Edge(0, 1): 0, Edge(1, 2): 1, Edge(2, 3): 2, Edge(0, 3): 3}
        pairs = [
            (i, gad.edge_node_count + target[e])
            for i, e in enumerate(gad.host_edges)
        ]
        o = orientation_from_matching(gad, MatchingState.from_pairs(pairs, gad.graph))
        assert verify_balanced(g, o, range(4)).passed

    def test_imperfect_matching_rejected(self):
        gad = build_gadget(fixture("cycle(4)"))
        partial = MatchingState.from_pairs([(0, 4)], gad.graph)
        with pytest.raises(InputError):
            orientation_from_matching(gad, partial)

    def test_edge_node_matched_to_edge_node_rejected(self):
        # Perfect in size, but edge nodes 0 and 1 are paired with each
        # other, so node 1 has no owner to direct edge 0 toward.
        gad = build_gadget(fixture("cycle(4)"))
        m = MatchingState((Edge(0, 1), Edge(2, 5), Edge(3, 6), Edge(4, 7)))
        with pytest.raises(InputError, match="not a copy"):
            orientation_from_matching(gad, m)


class TestBalancedOrientation:
    def test_cycle4_is_directed_cycle(self):
        g = fixture("cycle(4)")
        o = balanced_orientation_via_gadget(g)
        assert verify_balanced(g, o, range(4)).passed
        # in-degree 1 everywhere means the cycle is traversed one way.
        heads = [h for _, h in o.heads]
        assert sorted(heads) == [0, 1, 2, 3]

    def test_complete5(self):
        g = fixture("complete(5)")
        o = balanced_orientation_via_gadget(g)
        report = verify_balanced(g, o, range(5))
        assert report.passed
        indeg = [0] * 5
        for e, h in o.heads:
            indeg[h] += 1
        assert indeg == [2, 2, 2, 2, 2]

    def test_two_triangles_each_directed(self):
        g = two_triangles()
        o = balanced_orientation_via_gadget(g)
        assert verify_balanced(g, o, range(6)).passed

    def test_cycle4_gadget_has_perfect_bipartite_matching(self):
        gad = build_gadget(fixture("cycle(4)"))
        m = bipartite_max_matching(gad.graph, gad.edge_nodes)
        assert m.size == 4
        assert m.covers(gad.graph)

    @given(even_graphs())
    @example(Graph.from_edges(0, ()))
    @example(Graph.from_edges(3, ()))
    @example(fixture("complete(9)"))
    @example(two_triangles())
    @settings(max_examples=200, deadline=None)
    def test_route_matches_the_built_gadget(self, g):
        # The route never builds the gadget; its orientation is the one read
        # from Hopcroft-Karp on the built gadget, edge for edge.
        gad = build_gadget(g)
        matching = bipartite_max_matching(gad.graph, gad.edge_nodes)
        expected = orientation_from_matching(gad, matching)
        assert balanced_orientation_via_gadget(g).heads == expected.heads

    @pytest.mark.parametrize("dropped", [0, 4])
    def test_unmatched_edge_node_raises(self, monkeypatch, dropped):
        # A kernel that leaves one edge node unmatched: the error names every
        # uncovered gadget node, the edge node and its former copy node.
        g = two_triangles()
        gad = build_gadget(g)
        full = bipartite_max_matching(gad.graph, gad.edge_nodes)
        kept = MatchingState(tuple(e for e in full.edges if dropped not in e))
        uncovered = tuple(
            v for v in range(gad.graph.vertex_count) if v not in kept.covered
        )
        assert len(uncovered) == 2
        kernel = orientation._hopcroft_karp

        def leaves_one_unmatched(rows, right_count):
            mate = kernel(rows, right_count)
            mate[dropped] = -1
            return mate

        monkeypatch.setattr(orientation, "_hopcroft_karp", leaves_one_unmatched)
        with pytest.raises(GadgetMatchingError) as caught:
            balanced_orientation_via_gadget(g)
        assert caught.value.args == (
            f"gadget matching not perfect; deficient edge-type nodes: {uncovered}",
        )

    def test_round_trip_in_degree_identity(self):
        g = fixture("random_regular(10,4,3)")
        gad = build_gadget(g)
        m = bipartite_max_matching(gad.graph, gad.edge_nodes)
        o = orientation_from_matching(gad, m)
        indeg = [0] * g.vertex_count
        for e, h in o.heads:
            indeg[h] += 1
        assert indeg == [g.degree(v) // 2 for v in range(g.vertex_count)]


class TestEulerianOrientation:
    def test_cycle4(self):
        g = fixture("cycle(4)")
        o = eulerian_orientation(g)
        assert verify_balanced(g, o, range(4)).passed

    def test_complete5(self):
        g = fixture("complete(5)")
        o = eulerian_orientation(g)
        report = verify_balanced(g, o, range(5))
        assert report.passed

    def test_odd_degree_rejected(self):
        with pytest.raises(InputError):
            eulerian_orientation(fixture("path(3)"))

    def test_isolated_vertices_allowed(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])
        o = eulerian_orientation(g)
        assert len(o.heads) == 3
        assert verify_balanced(g, o, range(5)).passed

    def test_deterministic(self):
        g = fixture("random_regular(12,4,5)")
        assert eulerian_orientation(g) == eulerian_orientation(g)

    @given(even_graphs())
    @example(Graph.from_edges(0, ()))
    @example(Graph.from_edges(3, ()))
    @example(Graph.from_edges(5, [(1, 3), (1, 4), (3, 4)]))
    @example(fixture("complete(9)"))
    @example(two_triangles())
    @settings(max_examples=300, deadline=None)
    def test_walk_matches_the_circuit_trace(self, g):
        # The walk directs each edge as it takes it; the traced circuits
        # run every edge the same way.
        assert eulerian_orientation(g).heads == circuit_trace_orientation(g).heads


class TestVerifyBalanced:
    def test_reversed_edge_breaks_two_vertices(self):
        g = fixture("cycle(4)")
        o = eulerian_orientation(g)
        flipped = dict(o.heads)
        e = Edge(0, 1)
        flipped[e] = e.u if flipped[e] == e.v else e.v
        bad = verify_balanced(g, orientation_from_dict(flipped), range(4))
        assert len(bad.violations) == 2

    def test_empty_graph(self):
        g = Graph.from_edges(0, ())
        assert verify_balanced(g, Orientation(()), ()).passed

    def test_partial_orientation_rejected(self):
        g = fixture("cycle(4)")
        with pytest.raises(InputError):
            verify_balanced(g, Orientation(()), range(4))
        # One edge short of total is rejected too.
        heads = eulerian_orientation(g).heads
        with pytest.raises(InputError, match="not total on the host edge set"):
            verify_balanced(g, Orientation(heads[1:]), range(4))

    def test_non_edge_rejected(self):
        # cycle(4) has no edge 0-2; adding it, or swapping it in, is rejected.
        g = fixture("cycle(4)")
        heads = eulerian_orientation(g).heads
        for bad in (heads + ((Edge(0, 2), 2),), ((Edge(0, 2), 2),) + heads[1:]):
            with pytest.raises(InputError, match="not total on the host edge set"):
                verify_balanced(g, Orientation(bad), range(4))

    def test_reversed_pair_rejected(self):
        # Edge(3, 1) names the host edge 1-3 but is not its normalized form.
        g = Graph.from_edges(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)])
        rest = ((Edge(0, 1), 1), (Edge(0, 3), 0), (Edge(1, 2), 2), (Edge(2, 3), 3))
        verify_balanced(g, Orientation(rest + ((Edge(1, 3), 3),)), range(4))  # total
        for extra in (((Edge(3, 1), 3),), ((Edge(1, 3), 3), (Edge(3, 1), 3))):
            with pytest.raises(InputError, match="not total on the host edge set"):
                verify_balanced(g, Orientation(rest + extra), range(4))

    def test_interior_restriction(self):
        g = fixture("cycle(4)")
        o = eulerian_orientation(g)
        flipped = dict(o.heads)
        e = Edge(0, 1)
        flipped[e] = e.u if flipped[e] == e.v else e.v
        report = verify_balanced(g, orientation_from_dict(flipped), {2, 3})
        assert report.passed

    @given(even_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_violations_count_heads_directly(self, g, data):
        # Out-degrees are derived from in-degrees: flip random edges of an
        # Euler orientation, and each violation's (in, out) must be the
        # count of the heads into v and of those leaving it.
        def some(items):
            keep = data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
            return [x for x, kept in zip(items, keep) if kept]

        heads = dict(eulerian_orientation(g).heads)
        for e in some(sorted(heads)):
            heads[e] = e.u if heads[e] == e.v else e.v
        interior = some(range(g.vertex_count))
        expected = []
        for v in interior:
            into = sum(h == v for h in heads.values())
            out = sum(v in e and h != v for e, h in heads.items())
            if into != out:
                expected.append((v, into, out))
        report = verify_balanced(g, orientation_from_dict(heads), interior)
        assert report.violations == tuple(expected)


class TestHallAudit:
    def test_cycle4_fails_for_positive_epsilon(self):
        w = Window.closed(fixture("cycle(4)"))
        for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1)):
            rep = check_gadget_hall_expansion(w, eps, 4)
            assert not rep.passed
        rep = check_gadget_hall_expansion(w, 0, 4)
        assert rep.passed
        assert rep.edge_side.min_ratio == 1

    def test_free_ball_passes_credited(self):
        w = cayley_ball(GroupSpec.free(2), 2)
        rep = check_gadget_hall_expansion(w, Fraction(1, 5), 4)
        assert rep.passed
        assert not rep.passed_raw
        assert rep.edge_side.min_ratio_credited == Fraction(5, 2)
        # Both copies of two frontier vertices: one real edge each plus
        # half-credit for three stubs each gives (2 + 3)/4.
        assert rep.vertex_side.min_ratio_credited == Fraction(5, 4)
        assert rep.vertex_side.min_ratio == Fraction(1, 2)

    def test_single_edge_node_ratio_at_least_two(self):
        rep = check_gadget_hall_expansion(Window.closed(fixture("complete(5)")), 0, 1)
        assert rep.edge_side.min_ratio >= 2

    def test_vertex_type_count_identity_on_window(self):
        # For F = all copies of a vertex set U, the credited neighborhood
        # count equals |F| + (1/2) * (real edge boundary of U).
        w = cayley_ball(GroupSpec.free(2), 2)
        gad = build_gadget(w.graph, w.external_stubs)
        masks = gad.graph.neighbor_masks
        for u_set in [{0}, {1}, {5}, {0, 1}, {1, 5}, {5, 6}]:
            nodes = [
                node
                for node in gad.copy_nodes
                if gad.owner_of(node) in u_set
            ]
            nmask = 0
            for node in nodes:
                nmask |= masks[node]
            credited = nmask.bit_count() + Fraction(
                sum(w.external_stubs[v] for v in u_set), 2
            )
            real_boundary = sum(
                1
                for e in w.graph.edges()
                if (e.u in u_set) != (e.v in u_set)
            )
            assert credited == len(nodes) + Fraction(real_boundary, 2)

    def test_matches_brute_force_minima_with_stubs(self):
        rng = random.Random(47)
        cases = []
        for _ in range(30):
            n = rng.randint(1, 6)
            g = Graph.from_edges(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
            ])
            stubs = [g.degree(v) % 2 + 2 * rng.randint(0, 1) for v in range(n)]
            cases.append((g, stubs, rng.randint(1, 3)))
        # Larger bounds, and edgeless vertices with 4 stubs: two copy nodes
        # with no gadget neighbor, whose pair has the least credited ratio.
        for _ in range(30):
            n = rng.randint(1, 7)
            g = Graph.from_edges(n, [
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
            ])
            stubs = [
                g.degree(v) % 2 + 2 * rng.randint(0, 1) if g.degree(v) else 4
                for v in range(n)
            ]
            cases.append((g, stubs, rng.randint(1, 5)))
        for g, stubs, max_f in cases:
            gad = build_gadget(g, stubs)
            rep = check_gadget_hall_expansion(stubbed(g, stubs), 0, max_f)
            for side, nodes in ((rep.edge_side, gad.edge_nodes),
                                (rep.vertex_side, gad.copy_nodes)):
                scored = []
                for size in range(1, max_f + 1):
                    for fs in itertools.combinations(nodes, size):
                        hood = {u for node in fs for u in gad.graph.adjacency[node]}
                        owners = {gad.owner_of(node) for node in fs
                                  if node >= gad.edge_node_count}
                        raw = Fraction(len(hood), size)
                        credit = Fraction(sum(stubs[v] for v in owners), 2 * size)
                        scored.append((raw, raw + credit, fs))
                assert side.checked == len(scored)
                if not scored:
                    assert (side.min_ratio, side.witness) == (None, ())
                    assert (side.min_ratio_credited, side.witness_credited) == (None, ())
                    continue
                for pos, got, witness in ((0, side.min_ratio, side.witness),
                                          (1, side.min_ratio_credited,
                                           side.witness_credited)):
                    best = min(entry[pos] for entry in scored)
                    assert got == best
                    assert witness == next(e[2] for e in scored if e[pos] == best)

    @given(
        stubbed_windows(),
        st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(1)]),
        st.integers(1, 6),
    )
    # Vertex 3 is edgeless: with stubs its copies have no gadget neighbor,
    # so every F of them ties at 0 and the least size wins; without stubs
    # it has no copy, and the ends of the path 0-2-1 get two copies each.
    @example(stubbed(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]), (0, 0, 0, 6)),
             Fraction(1, 5), 2)
    @example(stubbed(Graph.from_edges(4, [(0, 2), (1, 2)]), (3, 3, 0, 0)),
             Fraction(1, 5), 3)
    # Ties abound: every edge node of a cycle, and every leaf of the
    # free(2) radius-1 ball, scores alike, so the walk's skips must keep
    # the least (size, lex) witness.
    @example(Window.closed(fixture("cycle(6)")), Fraction(1, 5), 4)
    @example(cayley_ball(GroupSpec.free(2), 1), Fraction(1, 5), 4)
    @settings(max_examples=150, deadline=None)
    def test_matches_all_subsets_oracle(self, w, epsilon, max_f):
        # Field for field: both minima, their witnesses and checked, against
        # the gadget built from its definition.
        assert check_gadget_hall_expansion(w, epsilon, max_f) == brute_hall(
            build_gadget(w.graph, w.external_stubs), epsilon, max_f
        )

    @pytest.mark.parametrize("max_f, value, witness, owners", [
        (7, Fraction(7, 6), (18, 19, 26, 27, 28, 29), {1, 5, 6}),
        (8, Fraction(17, 16), (18, 19, 26, 27, 28, 29, 30, 31), {1, 5, 6, 7}),
        (5, Fraction(5, 4), (26, 27), {5}),
        (6, Fraction(7, 6), (18, 19, 26, 27, 28, 29), {1, 5, 6}),
        (9, Fraction(17, 16), (18, 19, 26, 27, 28, 29, 30, 31), {1, 5, 6, 7}),
        (10, Fraction(17, 16), (18, 19, 26, 27, 28, 29, 30, 31), {1, 5, 6, 7}),
    ])
    def test_credited_minimum_falls_past_the_bound(self, max_f, value, witness, owners):
        # The README's bound dependence: 5/4 at max_f 4-5 (4 is pinned
        # above), 7/6 at 6-7 and 17/16 at 8-10.  The witnesses are every
        # copy of frontier vertex 5, then of radius-1 vertex 1 and of two,
        # then all three, of its frontier children.
        w = cayley_ball(GroupSpec.free(2), 2)
        gad = build_gadget(w.graph, w.external_stubs)
        side = check_gadget_hall_expansion(w, 0, max_f).vertex_side
        assert (side.min_ratio_credited, side.witness_credited) == (value, witness)
        assert {gad.owner_of(node) for node in witness} == owners
        assert all(list(w.graph.adjacency[v]) == [1] for v in owners - {1})

    @pytest.mark.parametrize("max_f, edge, vertex", [
        (5, (Fraction(12, 5), (0, 1, 2, 3, 4)),
         (Fraction(1, 2), (86, 87), Fraction(5, 4), (86, 87))),
        (6, (Fraction(7, 3), (0, 1, 2, 3, 4, 5)),
         (Fraction(1, 2), (86, 87), Fraction(7, 6), (62, 63, 86, 87, 88, 89))),
    ])
    def test_radius3_ball_minima(self, max_f, edge, vertex):
        # The paper-scale audit, pinned from the all-owner-sets walk; on the
        # edge side the credited minimum and witness are the raw ones.
        rep = check_gadget_hall_expansion(cayley_ball(GroupSpec.free(2), 3), 0, max_f)
        e, v = rep.edge_side, rep.vertex_side
        assert (e.min_ratio, e.witness) == edge
        assert (e.min_ratio_credited, e.witness_credited) == edge
        assert (v.min_ratio, v.witness) == vertex[:2]
        assert (v.min_ratio_credited, v.witness_credited) == vertex[2:]

    def test_walk_skips_supersets(self, monkeypatch):
        # Structural, not timed: on the free(2) radius-3 ball the audit
        # scores 7 456 owner sets at max_f 4 and 39 526 at 5, where scoring
        # every one of at most max_f runs takes 611 885 and 6 080 530; and
        # 7 454 on the non-bipartite Z3*Z3 radius-4 ball at 4.  The counts,
        # edge side then vertex side, are the kernel's own.
        scored = []
        min_ratios = orientation._min_ratios

        def counting(walk, witness, count):
            checked, best = min_ratios(walk, witness, count)
            scored.append(checked)
            return checked, best

        monkeypatch.setattr(orientation, "_min_ratios", counting)
        free2 = cayley_ball(GroupSpec.free(2), 3)
        z3z3 = cayley_ball(GroupSpec.free_product_of_cyclic([3, 3]), 4)
        for w, max_f, want in [
            (free2, 4, [6773, 683]),
            (free2, 5, [38807, 719]),
            (z3z3, 4, [7377, 77]),
        ]:
            scored.clear()
            check_gadget_hall_expansion(w, 0, max_f)
            assert scored == want

    def test_non_bipartite_ball(self):
        # The Z3*Z3 radius-4 ball (61 vertices) has triangles, where the
        # free(2) balls are trees.  On the edge side the credited minimum is
        # the raw one; on the vertex side both fall on the copies of
        # frontier vertices 29 and 30, which close a triangle with 13: three
        # gadget neighbors and four stubs for four copies.
        w = cayley_ball(GroupSpec.free_product_of_cyclic([3, 3]), 4)
        rep = check_gadget_hall_expansion(w, 0, 4)
        e, v = rep.edge_side, rep.vertex_side
        assert (e.min_ratio, e.witness) == (2, (0, 1, 4))
        assert (e.min_ratio_credited, e.witness_credited) == (2, (0, 1, 4))
        assert (v.min_ratio, v.witness) == (Fraction(3, 4), (148, 149, 150, 151))
        assert (v.min_ratio_credited, v.witness_credited) == (
            Fraction(5, 4), (148, 149, 150, 151)
        )

    def test_negative_epsilon_rejected(self):
        w = Window.closed(fixture("cycle(4)"))
        with pytest.raises(InputError):
            check_gadget_hall_expansion(w, Fraction(-1, 2), 2)

    def test_nonpositive_bound_rejected(self):
        w = Window.closed(fixture("cycle(4)"))
        with pytest.raises(InputError, match="^max_f must be positive$"):
            check_gadget_hall_expansion(w, 0, 0)

    @pytest.mark.parametrize("max_f", [4, 0])
    def test_odd_degree_rejected_first(self, max_f):
        # Vertex 0 of a triangle carries one stub: degree plus stubs is 3.
        # The odd degree is named even when the bound is bad too.
        w = Window(fixture("cycle(3)"), frozenset({1, 2}), (1, 0, 0))
        with pytest.raises(InputError, match="^vertex 0 has odd degree 3$"):
            check_gadget_hall_expansion(w, Fraction(1, 5), max_f)


class TestBothRoutesAgree:
    def test_random_even_graphs(self):
        rng = random.Random(2024)
        for _ in range(25):
            n = rng.randint(7, 18)
            g = random_even_degree_graph(rng, n)
            interior = range(g.vertex_count)
            o1 = eulerian_orientation(g)
            o2 = balanced_orientation_via_gadget(g)
            assert o1.heads == circuit_trace_orientation(g).heads
            assert verify_balanced(g, o1, interior).passed
            assert verify_balanced(g, o2, interior).passed
            gad = build_gadget(g)
            assert gad.copy_node_count == g.edge_count
