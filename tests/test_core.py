import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    bipartite_max_matching,
    brute_lemma,
    brute_small_cut,
    classify_components,
    connected_components,
    disjoint_union,
    distance,
    hull_report,
    is_connected,
    least_extendable_edge,
    reference_parse_window_text,
    remove_vertices,
    remove_window_vertices,
    windows,
)
from tuttelab import (
    Edge,
    Graph,
    GroupSpec,
    InputError,
    NetLevels,
    Window,
    build_schedule,
    cayley_ball,
    eulerian_orientation,
    fixture,
    format_graph,
    format_window,
    parse_window_text,
    run_layered_matching,
    verify_balanced,
    verify_expansion_lemma,
)
from tuttelab.core import (
    _cut_exceeds,
    _min_ratios,
    _piece_cuts,
    _pieces,
    finite_cuts,
    iter_subsets,
    mask_of,
)
from tuttelab.verifier import _mask_boundary


@st.composite
def graphs(draw, min_n=1, max_n=9):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return Graph.from_edges(n, sorted(edges))


@st.composite
def split_graphs(draw, max_n=10):
    """Hypothesis strategy: a graph on at most max_n vertices whose edges
    stay inside up to four randomly drawn vertex groups, so it often has
    many components, interleaved ids and isolated vertices."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    group = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [p for p in itertools.combinations(range(n), 2) if group[p[0]] == group[p[1]]]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


class TestEdge:
    def test_normalized(self):
        assert Edge.of(3, 1) == Edge(1, 3)

    def test_loop_rejected(self):
        with pytest.raises(InputError):
            Edge.of(2, 2)

    def test_order_is_lexicographic(self):
        assert Edge.of(0, 5) < Edge.of(1, 2) < Edge.of(1, 3)


class TestGraphValidation:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(InputError):
            Graph(2, ((1,), ()))

    def test_self_listing_rejected(self):
        with pytest.raises(InputError):
            Graph(1, ((0,),))

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(InputError):
            Graph(2, ((1, 1), (0, 0)))

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            Graph.from_edges(2, [(0, 2)])

    def test_edges_lex_order(self):
        g = fixture("cycle(4)")
        assert g.edges() == [Edge(0, 1), Edge(0, 3), Edge(1, 2), Edge(2, 3)]


class TestRemoveVertices:
    def test_middle_of_path(self):
        g = fixture("path(3)")
        sub = remove_vertices(g, {1})
        assert sub.graph.vertex_count == 2
        assert sub.graph.edge_count == 0
        assert sub.original_ids == (0, 2)

    def test_identity(self):
        g = fixture("cycle(5)")
        sub = remove_vertices(g, set())
        assert sub.graph == g
        assert sub.original_ids == tuple(range(5))

    def test_four_cycle_minus_vertex_is_path(self):
        g = fixture("cycle(4)")
        sub = remove_vertices(g, {0})
        # Hand-checked adjacency after deleting vertex 0 from 0-1-2-3-0.
        assert sub.original_ids == (1, 2, 3)
        assert sub.graph.adjacency == ((1,), (0, 2), (1,))

    def test_out_of_range(self):
        with pytest.raises(InputError):
            remove_vertices(fixture("path(3)"), {7})

    @given(graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_composition(self, g, data):
        a = data.draw(st.sets(st.integers(0, g.vertex_count - 1)))
        first = remove_vertices(g, a)
        b_new = data.draw(
            st.sets(st.integers(0, first.graph.vertex_count - 1))
            if first.graph.vertex_count
            else st.just(set())
        )
        second = remove_vertices(first.graph, b_new)
        b_orig = {first.original_ids[v] for v in b_new}
        direct = remove_vertices(g, a | b_orig)
        assert second.graph == direct.graph
        composed = tuple(first.original_ids[v] for v in second.original_ids)
        assert composed == direct.original_ids


# Every public entry point that takes vertex ids, and every test oracle that
# does, called with one id v on cycle(6); each must reject an id outside
# 0..5 with the same message.
CYCLE6 = fixture("cycle(6)")
VERTEX_ID_ENTRY_POINTS = {
    "remove_vertices": lambda v: remove_vertices(CYCLE6, {v}),
    "remove_window_vertices": lambda v: remove_window_vertices(Window.closed(CYCLE6), {v}),
    "distance_from": lambda v: distance(CYCLE6, v, 0),
    "distance_to": lambda v: distance(CYCLE6, 0, v),
    "classify_components": lambda v: classify_components(Window.closed(CYCLE6), {v}),
    "hull_report": lambda v: hull_report(Window.closed(CYCLE6), {v}),
    "bipartite_max_matching": lambda v: bipartite_max_matching(CYCLE6, {v}),
    "verify_balanced": lambda v: verify_balanced(CYCLE6, eulerian_orientation(CYCLE6), [v]),
    "least_extendable_edge": lambda v: least_extendable_edge(CYCLE6, v),
    # Checked before any work: unchecked, a net vertex -1 would be read as
    # vertex 0 and the run would pass, and 6 would be recorded as a failed
    # vertex, as if Tutte's condition had failed.
    "layered_nets": lambda v: run_layered_matching(
        Window.closed(CYCLE6), build_schedule(Fraction(1, 8), 1), NetLevels(((v,),)), 2
    ),
}


class TestVertexIdCheck:
    @pytest.mark.parametrize("v", [-1, 6])
    @pytest.mark.parametrize("entry", sorted(VERTEX_ID_ENTRY_POINTS))
    def test_every_entry_point_rejects_the_id(self, entry, v):
        with pytest.raises(InputError) as err:
            VERTEX_ID_ENTRY_POINTS[entry](v)
        assert str(err.value) == f"vertex {v} out of range"

    def test_least_bad_id_is_named(self):
        with pytest.raises(InputError) as err:
            CYCLE6.vertex_set([9, 7, -2, 3, -1])
        assert str(err.value) == "vertex -2 out of range"
        with pytest.raises(InputError) as err:
            distance(CYCLE6, 9, 7)
        assert str(err.value) == "vertex 7 out of range"

    def test_valid_ids_come_back_as_a_set(self):
        assert CYCLE6.vertex_set(iter([5, 0, 5])) == {0, 5}
        assert CYCLE6.vertex_set(()) == set()
        assert Graph.from_edges(0, ()).vertex_set([]) == set()


class TestConnectedComponents:
    def test_path(self):
        assert connected_components(fixture("path(3)")) == [[0, 1, 2]]

    def test_empty_graph(self):
        assert connected_components(Graph.from_edges(3, ())) == [[0], [1], [2]]

    def test_two_disjoint_edges(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert connected_components(g) == [[0, 1], [2, 3]]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_partition(self, g):
        blocks = connected_components(g)
        seen = [v for block in blocks for v in block]
        assert sorted(seen) == list(range(g.vertex_count))
        assert sum(len(b) for b in blocks) == g.vertex_count


class TestDistance:
    def test_path_ends(self):
        assert distance(fixture("path(4)"), 0, 3) == 3

    def test_self(self):
        assert distance(fixture("cycle(5)"), 2, 2) == 0

    def test_unreachable(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert distance(g, 0, 2) is None

    @given(graphs(min_n=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, g, data):
        n = g.vertex_count
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        w = data.draw(st.integers(0, n - 1))
        inf = float("inf")

        def d(a, b):
            value = distance(g, a, b)
            return inf if value is None else value

        assert d(u, w) <= d(u, v) + d(v, w)


class TestClassifyComponents:
    def test_frontier_rule_on_path(self):
        g = fixture("path(3)")
        w = Window(g, frozenset({0, 1}), (0, 0, 1))
        finite, infinite = classify_components(w, {1})
        assert finite == [[0]]
        assert infinite == [[2]]

    def test_closed_window_everything_finite(self):
        w = Window.closed(fixture("cycle(5)"))
        finite, infinite = classify_components(w, set())
        assert finite == [[0, 1, 2, 3, 4]]
        assert infinite == []

    def test_ball_branches_are_infinite(self):
        w = cayley_ball(GroupSpec.free(2), 2)
        finite, infinite = classify_components(w, {0})
        assert finite == []
        assert len(infinite) == 4

    @given(graphs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_all_interior_means_no_infinite(self, g, data):
        w = Window.closed(g)
        x = data.draw(st.sets(st.integers(0, g.vertex_count - 1)))
        _, infinite = classify_components(w, x)
        assert infinite == []

    @given(graphs(max_n=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_finite_cuts_agree_with_adjacency_search(self, g, data):
        # The bitmask enumeration kernel against the adjacency-list search,
        # on windows with random interior and stub marks.
        n = g.vertex_count
        interior = data.draw(st.frozensets(st.integers(0, n - 1)))
        stubs = tuple(
            0 if v in interior else data.draw(st.integers(0, 2)) for v in range(n)
        )
        w = Window(g, interior, stubs)
        max_x = data.draw(st.integers(0, n))
        candidates = 0
        for xs, xmask, finite in finite_cuts(g, w.frontier_mask, max_x):
            candidates += 1
            assert xmask == sum(1 << v for v in xs)
            expected, _ = classify_components(w, xs)
            got = [[v for v in range(n) if comp >> v & 1] for comp in finite]
            assert got == expected
        assert candidates == sum(math.comb(n, i) for i in range(max_x + 1))

    @given(split_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_closed_cuts_agree_with_adjacency_search(self, g, data):
        # On a closed window each X searches only the components of g it
        # touches and takes the others as they are: the list must still be
        # every component of g - X, by least vertex.
        n = g.vertex_count
        max_x = data.draw(st.integers(0, n))
        w = Window.closed(g)
        cuts = list(finite_cuts(g, 0, max_x))
        assert [xs for xs, _, _ in cuts] == list(iter_subsets(range(n), max_x))
        for xs, xmask, comps in cuts:
            assert xmask == mask_of(xs)
            finite, _ = classify_components(w, xs)
            assert comps == [mask_of(c) for c in finite]

    @given(
        st.lists(st.integers(3, 5), min_size=2, max_size=3),
        st.randoms(use_true_random=False),
        st.integers(0, 2),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_lemma_counts_on_closed_disjoint_cycles(self, lengths, rng, delta, max_x):
        # Cycles on shuffled ids: every cycle X misses is a finite component
        # with boundary 0 < d, so each X reports a boundary violation per
        # such cycle, with its 1-based index in least-vertex order.
        order = list(range(sum(lengths)))
        rng.shuffle(order)
        edges, start = [], 0
        for length in lengths:
            vs = order[start:start + length]
            edges += zip(vs, vs[1:] + vs[:1])
            start += length
        w = Window.closed(Graph.from_edges(len(order), edges))
        report = verify_expansion_lemma(w, 2, delta, max_x)
        assert report == brute_lemma(w, 2, delta, max_x)
        assert any(
            v.kind == "boundary" and v.count == len(lengths) for v in report.violations
        )


def naive_pieces(w, max_x):
    """Every connected frontier-free vertex set C with |N(C)| <= max_x."""
    g = w.graph
    found = set()
    for size in range(1, g.vertex_count + 1):
        for cs in itertools.combinations(sorted(w.interior), size):
            if not is_connected(g, cs):
                continue
            nbrs = {u for v in cs for u in g.adjacency[v]} - set(cs)
            if len(nbrs) <= max_x:
                found.add((mask_of(cs), mask_of(nbrs)))
    return found


@st.composite
def connected_graphs(draw, max_n=3):
    """Hypothesis strategy: a connected graph, a random tree plus chords."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    edges |= draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edges(n, sorted(edges))


class TestSeededWalk:
    @given(windows(max_n=4), st.lists(connected_graphs(), max_size=2), st.data())
    @settings(max_examples=150, deadline=None)
    def test_cuts_on_a_window_beside_closed_components(self, w, parts, data):
        # Ids shuffled, so the components X misses and the pieces of those it
        # touches interleave; max_x on both sides of the component count,
        # where a closed window changes walk.
        parts = [w] + [Window.closed(p) for p in parts]
        n = sum(p.graph.vertex_count for p in parts)
        union = disjoint_union(parts, data.draw(st.permutations(range(n))))
        g = union.graph
        count = len(connected_components(g))
        max_x = min(n, max(0, count + data.draw(st.integers(-2, 1))))
        expected = {
            xs: [mask_of(c) for c in classify_components(union, xs)[0]]
            for xs in iter_subsets(range(n), max_x)
        }
        every = list(finite_cuts(g, union.frontier_mask, max_x))
        assert [(xs, xmask) for xs, xmask, _ in every] == [
            (xs, mask_of(xs)) for xs in expected]
        assert all(comps == expected[xs] for xs, _, comps in every)
        if union.frontier_mask:
            # In (size, lex) order, once each, and every X that leaves a
            # finite component is walked.
            walked = list(_piece_cuts(g, union.frontier_mask, max_x, g.full_mask))
            xss = {xs for xs, _, _ in walked}
            assert [xs for xs, _, _ in walked] == [xs for xs in expected if xs in xss]
            assert all(comps == expected[xs] for xs, _, comps in walked)
            assert {xs for xs, comps in expected.items() if comps} <= xss


class TestPieces:
    @given(windows(max_n=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_each_piece_once(self, w, data):
        max_x = data.draw(st.integers(0, w.graph.vertex_count))
        g = w.graph
        got = list(_pieces(g.neighbor_masks, w.frontier_mask, max_x, g.full_mask))
        assert len(got) == len(set(got))
        assert set(got) == naive_pieces(w, max_x)

    @given(windows(max_n=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_piece_cuts_keep_every_cut_that_leaves_a_finite_component(self, w, data):
        g = w.graph
        assume(w.frontier_mask)
        max_x = data.draw(st.integers(0, g.vertex_count + 1))
        every = list(finite_cuts(g, w.frontier_mask, max_x))
        walked = list(_piece_cuts(g, w.frontier_mask, max_x, g.full_mask))
        # A subsequence of the (size, lex) enumeration, with the same
        # components, that misses only X leaving no finite component.
        position = {xs: i for i, (xs, _, _) in enumerate(every)}
        assert [position[xs] for xs, _, _ in walked] == sorted(
            position[xs] for xs, _, _ in walked)
        assert len({xs for xs, _, _ in walked}) == len(walked)
        assert [cut for cut in walked if cut[2]] == [cut for cut in every if cut[2]]

    def test_open_ball_pieces_are_interior_stars(self):
        # In the 4-regular tree every connected C has |N(C)| = 2|C| + 2, so
        # at max_x = 4 the pieces are the single non-frontier vertices.
        w = cayley_ball(GroupSpec.free(2), 3)
        g = w.graph
        assert list(_piece_cuts(g, w.frontier_mask, 3, g.full_mask)) == []
        walked = [xs for xs, _, _ in _piece_cuts(g, w.frontier_mask, 4, g.full_mask)]
        assert sorted(walked) == sorted(
            tuple(g.adjacency[v]) for v in sorted(w.interior))

    def test_path_with_one_frontier_end_walks_every_subset(self):
        # Every vertex of the path cuts off the part beyond it, away from
        # frontier vertex 0: the pieces' X would outnumber all subsets, so
        # all are walked.
        g = fixture("path(12)")
        frontier = 1
        walked = [xs for xs, _, _ in _piece_cuts(g, frontier, 3, g.full_mask)]
        assert walked == [xs for xs, _, _ in finite_cuts(g, frontier, 3)]


@st.composite
def trees(draw, max_n=11):
    """Hypothesis strategy: a tree on 1..max_n vertices with shuffled ids."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    edges = [(order[draw(st.integers(0, v - 1))], order[v]) for v in range(1, n)]
    return Graph.from_edges(n, edges)


@st.composite
def cut_cases(draw, graph_strategy):
    """Hypothesis strategy: a graph, a connected source in it, removed and
    sinks sets outside the source, and a budget of 0-3."""
    g = draw(graph_strategy)
    source = {draw(st.integers(0, g.vertex_count - 1))}
    for _ in range(draw(st.integers(0, g.vertex_count - 1))):
        grow = sorted({u for v in source for u in g.adjacency[v]} - source)
        if not grow:
            break
        source.add(draw(st.sampled_from(grow)))
    rest = sorted(set(range(g.vertex_count)) - source)
    removed = draw(st.sets(st.sampled_from(rest))) if rest else set()
    sinks = draw(st.sets(st.sampled_from(rest))) if rest else set()
    return g, source, removed, sinks, draw(st.integers(0, 3))


def cut_exceeds(g, source, removed, sinks, budget):
    """_cut_exceeds with every neighbour of source outside removed a start."""
    starts = {u for v in source for u in g.adjacency[v]} - source - removed
    return _cut_exceeds(
        g.neighbor_masks, mask_of(source), mask_of(starts), mask_of(removed),
        mask_of(sinks), budget)


class TestCutExceeds:
    @given(cut_cases(graphs(max_n=9)))
    # The path from start 1 runs 1-2-3, through start 2; were 2 searched
    # again, 2-4 would count as a second path past the one-vertex cut {2}.
    @example((Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4)]),
              {0}, set(), {3, 4}, 1))
    @settings(max_examples=1000, deadline=None)
    def test_never_exceeds_a_cut_within_budget(self, case):
        # Pruning a piece branch is sound: no cut of at most budget vertices
        # exists when more than budget paths are reported.
        if cut_exceeds(*case):
            assert not brute_small_cut(*case)

    @given(cut_cases(trees()))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_least_cut_on_trees(self, case):
        # On a forest the greedy paths are as many as the most disjoint
        # paths, so pruning on the tree-like free-group balls loses nothing.
        assert cut_exceeds(*case) == (not brute_small_cut(*case))


class TestMinRatios:
    def test_witness_ignores_input_order(self):
        # Boundary ratios on cycle(8) tie across every arc of a size, and
        # the second ratio ties across the size classes.
        masks = fixture("cycle(8)").neighbor_masks
        sets = [
            fs for size in range(1, 6) for fs in itertools.combinations(range(8), size)
        ]

        def ratios(fs):
            return (_mask_boundary(masks, (0,) * 8, mask_of(fs)), len(fs)), (sum(fs) % 3, 1)

        want = _min_ratios(sets, ratios, 2)
        assert want[1][0][1] == (0, 1, 2, 3, 4)
        assert want[1][1][1] == (0,)
        rng = random.Random(4)
        for _ in range(5):
            rng.shuffle(sets)
            assert _min_ratios(sets, ratios, 2) == want


class TestWindowValidation:
    def test_interior_vertex_with_stubs_rejected(self):
        g = fixture("path(3)")
        with pytest.raises(InputError):
            Window(g, frozenset({0, 1, 2}), (0, 0, 1))

    def test_negative_stub_rejected(self):
        g = fixture("path(3)")
        with pytest.raises(InputError):
            Window(g, frozenset({0}), (0, 0, -1))

    @pytest.mark.parametrize("v", [-1, 3, 7])
    def test_interior_vertex_out_of_range_rejected(self, v):
        g = fixture("path(3)")
        with pytest.raises(InputError, match=f"interior vertex {v} out of range"):
            Window(g, frozenset({0, v}), (0, 0, 0))

    @pytest.mark.parametrize("stubs", [(), (0, 0), (0, 0, 0, 0)])
    def test_stub_tuple_of_wrong_length_rejected(self, stubs):
        g = fixture("path(3)")
        with pytest.raises(InputError, match="one count per vertex"):
            Window(g, frozenset(), stubs)

    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.frozensets(st.integers(-2, n + 1), max_size=n + 1),
                st.lists(st.integers(-1, 2), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_validation_names_the_first_offender(self, case):
        # The per-vertex scan the validation must agree with, message and all.
        n, interior, stubs = case
        want = next(
            (f"interior vertex {v} out of range" for v in interior if not 0 <= v < n),
            None,
        )
        if want is None:
            for v, k in enumerate(stubs):
                if k < 0:
                    want = f"negative stub count at vertex {v}"
                    break
                if k > 0 and v in interior:
                    want = f"interior vertex {v} has external stubs"
                    break
        g = Graph.from_edges(n, ())
        if want is None:
            Window(g, interior, tuple(stubs))
        else:
            with pytest.raises(InputError) as err:
                Window(g, interior, tuple(stubs))
            assert str(err.value) == want

    def test_remove_window_vertices_keeps_marks(self):
        w = cayley_ball(GroupSpec.free(2), 1)
        sub = remove_window_vertices(w, {0})
        assert sub.window.graph.vertex_count == 4
        assert sub.window.interior == frozenset()
        assert all(s == 3 for s in sub.window.external_stubs)
        assert sub.graph is sub.window.graph
        assert sub.original_ids == (1, 2, 3, 4)

    def test_remove_vertices_gives_closed_window(self):
        sub = remove_vertices(fixture("cycle(5)"), {2})
        assert sub.window.is_closed
        assert sub.graph is sub.window.graph


EDGE_LINE_FAULTS = ("tokens", "integer", "range", "order", "duplicate", "blank")


@st.composite
def faulty_window_texts(draw) -> str:
    """Hypothesis strategy: a window's file, edge lines shuffled, with 0-3
    faults: a wrong token count, a non-integer, an id out of range, u >= v,
    a copy of another edge line, or a blank line (in place of an edge line,
    or put in anywhere after the header; with no edge lines every fault is
    such a blank line).  Later faults may land on earlier ones.
    """
    w = draw(windows(max_n=8))
    n, m = w.graph.vertex_count, w.graph.edge_count
    lines = format_window(w).splitlines()
    lines[1 : 1 + m] = draw(st.permutations(lines[1 : 1 + m]))
    for kind in draw(st.lists(st.sampled_from(EDGE_LINE_FAULTS), max_size=3)):
        if m == 0 or (kind == "blank" and draw(st.booleans())):
            lines.insert(draw(st.integers(1, len(lines))), "")
            continue
        i = draw(st.integers(1, m))
        tokens = lines[i].split() or ["0", "1"]
        if kind == "tokens":
            tokens = tokens[:1] if draw(st.booleans()) else tokens + ["1"]
        elif kind == "integer":
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(["a", "1.5", "0x1", "--1"])
            )
        elif kind == "range":
            tokens[draw(st.integers(0, len(tokens) - 1))] = str(
                draw(st.sampled_from([-1, n, n + 3]))
            )
        elif kind == "order":
            v = draw(st.integers(0, n - 1))
            tokens = [str(draw(st.integers(v, n - 1))), str(v)]
        elif kind == "duplicate":
            others = [j for j in range(1, m + 1) if j != i] or [i]
            tokens = lines[draw(st.sampled_from(others))].split()
        else:
            tokens = []
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestFileFormat:
    def test_graph_round_trip(self):
        g = fixture("petersen")
        assert parse_window_text(format_graph(g)).graph == g

    def test_window_round_trip(self):
        w = cayley_ball(GroupSpec.free(2), 2)
        again = parse_window_text(format_window(w))
        assert again == w

    def test_closed_window_serializes_as_plain_graph(self):
        w = Window.closed(fixture("cycle(4)"))
        assert "interior" not in format_window(w)
        assert parse_window_text(format_window(w)) == w

    def test_exact_shape(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert format_graph(g) == "3 2\n0 1\n1 2\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "line 1: empty input"),
            ("3\n", "line 1: expected 'n m'"),
            ("3 1\n", "line 2: expected 1 edge lines"),
            ("3 1\n0 a\n", "line 2: expected integers 'u v'"),
            ("3 1\n1 0\n", "line 2: edges must satisfy u < v"),
            ("3 2\n0 1\n0 1\n", "line 3: duplicate edge 0 1"),
            ("3 1\n0 5\n", "line 2: vertex out of range"),
            ("3 1\n0 1\nwhat\n", "line 3: unrecognized trailing line"),
            ("3 1\n0 1\n# stubs: 0\n", "line 3: expected '# stubs: v k'"),
        ],
        # Each case is named by its text and the line number it reports.
        ids=lambda value: value[5 : value.index(":")] if value.startswith("line ") else None,
    )
    def test_malformed_inputs_report_line(self, text, message):
        with pytest.raises(InputError) as err:
            parse_window_text(text)
        assert str(err.value) == message

    @given(faulty_window_texts())
    @example("4 3\n0 1\n1 0\n0 x y\n")
    @example("4 3\n0 1\n\n0 1\n")
    @example("4 2\n2 3\n0 9\n# interior: 0\n")
    @settings(max_examples=300, deadline=None)
    def test_errors_match_the_line_by_line_reference(self, text):
        # The bulk pass and its fallback must give the reference's Window,
        # or its exact message for the first bad line.
        try:
            expected = reference_parse_window_text(text)
        except InputError as err:
            with pytest.raises(InputError) as got:
                parse_window_text(text)
            assert str(got.value) == str(err)
        else:
            assert parse_window_text(text) == expected

    def test_stubs_without_interior_rejected(self):
        with pytest.raises(InputError):
            parse_window_text("2 1\n0 1\n# stubs: 0 2\n")

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random(self, g):
        assert parse_window_text(format_graph(g)).graph == g

    @given(windows(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_window_round_trip_random(self, w):
        assert parse_window_text(format_window(w)) == w
