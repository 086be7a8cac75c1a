import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bipartite_max_matching,
    brute_matching_size,
    has_augmenting_path,
    random_graph,
    random_regular_graph,
    reference_max_matching,
    remove_vertices,
)
from tuttelab import (
    Edge,
    Graph,
    InputError,
    MatchingState,
    fixture,
    has_perfect_matching,
    is_allowed_edge,
    max_matching,
    tutte_berge_deficiency,
)
from tuttelab.core import mask_of
from tuttelab.matching import _mates


@st.composite
def graphs(draw, min_n=1, max_n=10, max_density=1.0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return Graph.from_edges(n, ())
    edges = draw(
        st.sets(st.sampled_from(pairs), max_size=int(max_density * len(pairs)))
    )
    return Graph.from_edges(n, sorted(edges))


SMALL_FIXTURES = [
    "path(2)",
    "path(3)",
    "path(7)",
    "cycle(3)",
    "cycle(4)",
    "cycle(7)",
    "cycle(8)",
    "complete(4)",
    "complete(5)",
    "complete(6)",
    "star(3)",
    "star(5)",
    "petersen",
    "random_regular(10,3,1)",
    "random_regular(8,3,2)",
]


class TestMatchingState:
    def test_rejects_overlapping_edges(self):
        with pytest.raises(InputError, match=r"share vertex in Edge\(u=1, v=2\)"):
            MatchingState.from_pairs([(0, 1), (1, 2)], fixture("path(3)"))

    def test_rejects_edges_outside_host(self):
        with pytest.raises(InputError):
            MatchingState.from_pairs([(0, 2)], fixture("path(3)"))

    def test_covered_is_union_of_endpoints(self):
        m = MatchingState.from_pairs([(0, 1), (2, 3)], fixture("path(4)"))
        assert m.covered == frozenset({0, 1, 2, 3})

    @given(graphs(max_n=14), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_covered_recounted_and_pair_order_ignored(self, g, rnd):
        # covered against the blossom kernel's mates, and against a scan of
        # the vertices; from_pairs reads the pairs in any order and either
        # orientation, down to the hash.
        m = max_matching(g)
        mate = _mates(g, None)
        assert m.covered == {v for v in range(g.vertex_count) if mate[v] >= 0}
        assert m.covered == {
            v for v in range(g.vertex_count) if any(v in e for e in m.edges)}
        pairs = [(e.v, e.u) if rnd.random() < 0.5 else e for e in m.edges]
        rnd.shuffle(pairs)
        again = MatchingState.from_pairs(pairs, g)
        assert again == m and hash(again) == hash(m)
        assert again.covered == m.covered


class TestMaxMatching:
    @pytest.mark.parametrize(
        "name,size",
        [("complete(4)", 2), ("star(3)", 1), ("petersen", 5), ("cycle(7)", 3)],
    )
    def test_known_sizes(self, name, size):
        g = fixture(name)
        assert max_matching(g).size == size
        assert brute_matching_size(g) == size

    def test_matching_edges_are_disjoint_graph_edges(self):
        g = fixture("petersen")
        m = max_matching(g)
        assert all(g.has_edge(e.u, e.v) for e in m.edges)

    @pytest.mark.parametrize("name", SMALL_FIXTURES)
    def test_fixture_corpus_matches_brute_force(self, name):
        g = fixture(name)
        assert max_matching(g).size == brute_matching_size(g)

    def test_random_corpus_matches_brute_force(self):
        rng = random.Random(1234)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
            assert max_matching(g).size == brute_matching_size(g)

    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_hypothesis_matches_brute_force(self, g):
        assert max_matching(g).size == brute_matching_size(g)

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_no_augmenting_path_remains(self, g):
        m = max_matching(g)
        assert not has_augmenting_path(g, m.edges)

    def test_deterministic(self):
        g = fixture("random_regular(10,3,7)")
        assert max_matching(g) == max_matching(g)


BLOSSOM_FIXTURES = [
    "cycle(3)",
    "cycle(5)",
    "cycle(7)",
    "cycle(9)",
    "cycle(15)",
    "petersen",
    "complete(3)",
    "complete(4)",
    "complete(5)",
    "complete(6)",
    "complete(7)",
    "complete(8)",
]


# Minimised from random sparse graphs: in each, a search contracts a
# blossom that swallows a blossom which had itself swallowed another, so
# a relabelling that loses the innermost members returns other edges.
NESTED_BLOSSOMS = [
    Graph.from_edges(22, [
        (0, 1), (0, 7), (1, 3), (2, 3), (2, 4), (2, 20), (4, 8), (5, 7), (5, 11),
        (5, 17), (6, 10), (6, 11), (6, 21), (7, 11), (8, 19), (8, 21), (9, 11),
        (9, 18), (10, 11), (10, 14), (11, 12), (12, 16), (13, 17), (13, 21),
        (14, 15), (14, 16), (15, 19),
    ]),
    Graph.from_edges(26, [
        (0, 5), (0, 14), (1, 4), (1, 20), (2, 5), (2, 20), (2, 21), (3, 6), (3, 18),
        (4, 10), (4, 24), (5, 13), (6, 15), (7, 8), (7, 19), (7, 24), (8, 11),
        (9, 14), (9, 22), (10, 18), (11, 23), (12, 16), (12, 22), (13, 24),
        (14, 23), (15, 17), (16, 17), (17, 25), (19, 21),
    ]),
]


class TestSameEdgesAsReference:
    """``max_matching`` returns the reference search's matching edge for edge.

    Where the two could differ (the queue order after a blossom, the
    partner a free root takes) they differ on few inputs, mostly sparse
    graphs with 20-40 vertices, so the seeded corpus is large.
    """

    def test_random_corpus(self):
        rng = random.Random(2027)
        for _ in range(3000):
            g = random_graph(rng, rng.randint(1, 40), rng.uniform(0.02, 0.4))
            assert max_matching(g).edges == reference_max_matching(g).edges

    @pytest.mark.parametrize("name", BLOSSOM_FIXTURES)
    def test_blossom_fixtures(self, name):
        g = fixture(name)
        assert max_matching(g).edges == reference_max_matching(g).edges

    @pytest.mark.parametrize("g", NESTED_BLOSSOMS)
    def test_nested_blossoms(self, g):
        assert max_matching(g).edges == reference_max_matching(g).edges

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("n", [200, 500, 1000])
    def test_random_regular(self, n, d):
        for seed in range(4):
            g = random_regular_graph(random.Random(seed), n, d)
            assert max_matching(g).edges == reference_max_matching(g).edges

    @given(graphs(max_n=40, max_density=0.4))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis(self, g):
        assert max_matching(g).edges == reference_max_matching(g).edges

    def test_perfect_matching_at_scale(self):
        g = random_regular_graph(random.Random(20000), 20000, 4)
        m = max_matching(g)
        assert m.size == 10000
        assert m.covers(g)
        assert all(g.has_edge(e.u, e.v) for e in m.edges)


class TestPerfectMatching:
    def test_cycle4(self):
        assert has_perfect_matching(fixture("cycle(4)"))

    def test_odd_path(self):
        assert not has_perfect_matching(fixture("path(3)"))

    def test_petersen_minus_vertex(self):
        g = remove_vertices(fixture("petersen"), {0}).graph
        assert not has_perfect_matching(g)


class TestLiveMask:
    """The oracles on the host graph under a live mask against the copy
    oracle: the graph minus the dead vertices, copied out and renumbered."""

    @staticmethod
    def assert_same_as_copy(g, removed):
        sub = remove_vertices(g, removed)
        ids = sub.original_ids
        live = mask_of(ids)
        want = max_matching(sub.graph)
        mate = _mates(g, live)
        assert tuple(Edge(v, u) for v, u in enumerate(mate) if u > v) == tuple(
            Edge.of(ids[e.u], ids[e.v]) for e in want.edges)
        assert all(mate[v] == -1 for v in removed)
        assert has_perfect_matching(g, live) == has_perfect_matching(sub.graph)
        assert has_perfect_matching(g, live) == (
            2 * brute_matching_size(sub.graph) == len(ids))

    @given(graphs(max_n=14, max_density=0.5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_removed_sets(self, g, data):
        n = g.vertex_count
        removed = data.draw(st.one_of(
            st.just(set()), st.just(set(range(n))), st.sets(st.integers(0, n - 1))))
        self.assert_same_as_copy(g, removed)

    @pytest.mark.parametrize("name", SMALL_FIXTURES)
    def test_fixtures_less_one_vertex(self, name):
        # One dead vertex flips the live count's parity.
        g = fixture(name)
        for v in range(g.vertex_count):
            self.assert_same_as_copy(g, {v})

    def test_mask_outside_the_graph_rejected(self):
        g = fixture("cycle(4)")
        for live in (-1, 1 << 4):
            with pytest.raises(InputError, match="live mask"):
                has_perfect_matching(g, live)


class TestAllowedEdge:
    def test_cycle_edge_allowed(self):
        assert is_allowed_edge(fixture("cycle(4)"), Edge.of(0, 1))

    def test_path_middle_edge_blocked(self):
        # Deleting {1,2} from 0-1-2-3 isolates 0 and 3.
        assert not is_allowed_edge(fixture("path(4)"), Edge.of(1, 2))

    def test_path_end_edge_allowed(self):
        assert is_allowed_edge(fixture("path(4)"), Edge.of(0, 1))

    def test_missing_edge_rejected(self):
        with pytest.raises(InputError):
            is_allowed_edge(fixture("path(4)"), Edge.of(0, 2))

    def test_tests_build_no_matching_state(self, monkeypatch):
        # The yes/no tests read the blossom search's mates; only
        # max_matching builds and validates a MatchingState.
        def broken(cls, pairs, host):
            raise AssertionError("MatchingState built")

        monkeypatch.setattr(MatchingState, "from_pairs", classmethod(broken))
        g = fixture("cycle(6)")
        assert has_perfect_matching(g)
        assert has_perfect_matching(g, g.full_mask ^ 0b11)
        assert is_allowed_edge(g, Edge.of(0, 1))
        assert not is_allowed_edge(fixture("path(4)"), Edge.of(1, 2))

    @given(graphs(min_n=2, max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_allowed_edge_extends_to_perfect_matching(self, g):
        for e in g.edges():
            if is_allowed_edge(g, e):
                rest = remove_vertices(g, {e.u, e.v}).graph
                m = max_matching(rest)
                assert 2 * (m.size + 1) == g.vertex_count
                break

    def test_matches_brute_force_both_ways(self):
        # e = uv is allowed exactly when g - u - v has a perfect matching,
        # counted by the DP; odd orders and unmatchable even graphs allow
        # no edge at all.
        rng = random.Random(61)
        seen = set()
        for _ in range(80):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
            perfect = 2 * brute_matching_size(g) == n
            for e in g.edges():
                rest = remove_vertices(g, e).graph
                allowed = 2 * (brute_matching_size(rest) + 1) == n
                assert is_allowed_edge(g, e) == allowed
                assert perfect or not allowed
                seen.add((n % 2, perfect, allowed))
        assert {(1, False, False), (0, False, False)} <= seen
        assert {(0, True, True), (0, True, False)} <= seen


class TestBipartite:
    def test_complete_bipartite(self):
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert bipartite_max_matching(g, {0, 1}).size == 2

    def test_star_with_center_side(self):
        assert bipartite_max_matching(fixture("star(3)"), {0}).size == 1

    def test_invalid_bipartition_rejected(self):
        with pytest.raises(InputError):
            bipartite_max_matching(fixture("cycle(3)"), {0})

    def test_agrees_with_general_matcher(self):
        rng = random.Random(77)
        for _ in range(60):
            left = rng.randint(1, 5)
            right = rng.randint(1, 5)
            edges = [
                (u, left + v)
                for u in range(left)
                for v in range(right)
                if rng.random() < 0.5
            ]
            g = Graph.from_edges(left + right, edges)
            hk = bipartite_max_matching(g, range(left))
            assert hk.size == max_matching(g).size


class TestTutteBerge:
    def test_star3(self):
        report = tutte_berge_deficiency(fixture("star(3)"), 4)
        assert report.deficiency == 2
        assert report.witness == (0,)

    def test_cycle4(self):
        assert tutte_berge_deficiency(fixture("cycle(4)"), 4).deficiency == 0

    def test_path3(self):
        assert tutte_berge_deficiency(fixture("path(3)"), 3).deficiency == 1

    @given(graphs(min_n=1, max_n=9))
    @settings(max_examples=80, deadline=None)
    def test_identity_with_max_matching(self, g):
        n = g.vertex_count
        deficiency = tutte_berge_deficiency(g, n).deficiency
        assert max_matching(g).size == (n - deficiency) // 2
        assert (n - deficiency) % 2 == 0
