import pytest

from helpers import connected_components
from tuttelab import (
    ActionSpec,
    GroupSpec,
    InputError,
    cayley_ball,
    fixture,
    grandparent_window,
    schreier_graph,
)


class TestGroupSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            GroupSpec.free(0)
        with pytest.raises(InputError):
            GroupSpec.free_product_of_cyclic([1])
        with pytest.raises(InputError):
            GroupSpec.free_product_of_cyclic([])
        with pytest.raises(InputError):
            GroupSpec.abelian_grid(0)

    def test_generator_counts(self):
        assert len(GroupSpec.free(2).symbols()) == 4
        assert len(GroupSpec.free_product_of_cyclic([2, 2, 2]).symbols()) == 3
        assert len(GroupSpec.free_product_of_cyclic([2, 3]).symbols()) == 3
        assert len(GroupSpec.abelian_grid(2).symbols()) == 4


class TestCayleyBall:
    def test_free2_radius1_is_star(self):
        w = cayley_ball(GroupSpec.free(2), 1)
        assert w.graph.vertex_count == 5
        assert w.graph.edge_count == 4
        assert w.interior == frozenset({0})
        assert w.external_stubs == (0, 3, 3, 3, 3)

    def test_free1_radius2_is_path(self):
        w = cayley_ball(GroupSpec.free(1), 2)
        assert w.graph.vertex_count == 5
        degrees = sorted(w.graph.degree(v) for v in range(5))
        assert degrees == [1, 1, 2, 2, 2]
        assert len(connected_components(w.graph)) == 1

    def test_free2_radius0(self):
        w = cayley_ball(GroupSpec.free(2), 0)
        assert w.graph.vertex_count == 1
        assert w.graph.edge_count == 0
        assert w.external_stubs == (4,)
        assert w.interior == frozenset()

    @pytest.mark.parametrize("k,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_free_ball_is_tree_of_known_size(self, k, r):
        w = cayley_ball(GroupSpec.free(k), r)
        n = w.graph.vertex_count
        expected = 2 * k * ((2 * k - 1) ** r - 1) // (2 * k - 2) + 1
        assert n == expected
        assert w.graph.edge_count == n - 1
        assert len(connected_components(w.graph)) == 1

    @pytest.mark.parametrize(
        "spec,r",
        [
            (GroupSpec.free(2), 2),
            (GroupSpec.free_product_of_cyclic([2, 2, 2]), 3),
            (GroupSpec.free_product_of_cyclic([2, 3]), 3),
            (GroupSpec.abelian_grid(2), 3),
        ],
    )
    def test_degree_plus_stubs_is_generator_count(self, spec, r):
        w = cayley_ball(spec, r)
        d = len(spec.symbols())
        for v in range(w.graph.vertex_count):
            assert w.graph.degree(v) + w.external_stubs[v] == d
        for v in w.interior:
            assert w.external_stubs[v] == 0

    def test_cyclic_order3_closes_into_triangle(self):
        w = cayley_ball(GroupSpec.free_product_of_cyclic([3]), 1)
        assert w.graph.vertex_count == 3
        assert w.graph.edge_count == 3
        assert w.external_stubs == (0, 0, 0)

    def test_grid_ball_sizes(self):
        # L1 balls in Z^2 have 2r^2 + 2r + 1 points.
        for r in range(4):
            w = cayley_ball(GroupSpec.abelian_grid(2), r)
            assert w.graph.vertex_count == 2 * r * r + 2 * r + 1

    def test_negative_radius_rejected(self):
        with pytest.raises(InputError):
            cayley_ball(GroupSpec.free(2), -1)

    def test_deterministic(self):
        a = cayley_ball(GroupSpec.free(2), 3)
        b = cayley_ball(GroupSpec.free(2), 3)
        assert a == b


class TestGrandparentWindow:
    def test_depth1_rejected(self):
        with pytest.raises(InputError):
            grandparent_window(1)

    def test_depth2_grandparent_edges(self):
        w = grandparent_window(2)
        assert w.graph.vertex_count == 7
        # Tree edges plus one grandparent edge per level-2 vertex.
        assert w.graph.edge_count == 6 + 4
        for i in range(3, 7):
            grand = (((i - 1) // 2) - 1) // 2
            assert w.graph.has_edge(i, grand)

    def test_depth3_degree_pattern(self):
        # Parent + grandparent + 2 children + 4 grandchildren = 8 in the
        # full graph; the truncation accounts for the rest via stubs.
        w = grandparent_window(3)
        for v in range(w.graph.vertex_count):
            assert w.graph.degree(v) + w.external_stubs[v] == 8

    def test_depth4_has_fully_interior_level(self):
        w = grandparent_window(4)
        assert w.interior == frozenset({3, 4, 5, 6})
        for v in w.interior:
            assert w.graph.degree(v) == 8


class TestSchreierGraph:
    def test_five_cycle(self):
        sigma = (1, 2, 3, 4, 0)
        build = schreier_graph(ActionSpec(5, (sigma,)))
        assert build.graph.edge_count == 5
        assert all(build.graph.degree(v) == 2 for v in range(5))
        assert build.loops_dropped == 0

    def test_two_involutions_make_four_cycle(self):
        s1 = (1, 0, 3, 2)
        s2 = (2, 3, 0, 1)
        build = schreier_graph(ActionSpec(4, (s1, s2)))
        assert sorted(tuple(e) for e in build.graph.edges()) == [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
        ]
        assert build.parallel_collapsed == 4

    def test_identity_drops_loops(self):
        build = schreier_graph(ActionSpec(3, ((0, 1, 2),)))
        assert build.graph.edge_count == 0
        assert build.loops_dropped == 3

    def test_degree_bound(self):
        import random

        rng = random.Random(5)
        points = list(range(8))
        perms = []
        for _ in range(3):
            p = points[:]
            rng.shuffle(p)
            perms.append(tuple(p))
        build = schreier_graph(ActionSpec(8, tuple(perms)))
        assert all(build.graph.degree(v) <= 2 * 3 for v in range(8))

    def test_non_bijection_rejected(self):
        with pytest.raises(InputError):
            ActionSpec(3, ((0, 0, 2),))


class TestFixtures:
    def test_petersen(self):
        g = fixture("petersen")
        assert g.vertex_count == 10
        assert g.edge_count == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_cycle4(self):
        g = fixture("cycle(4)")
        assert g.vertex_count == 4
        assert g.edge_count == 4

    def test_star(self):
        g = fixture("star(3)")
        assert g.vertex_count == 4
        assert g.degree(0) == 3

    def test_random_regular_deterministic(self):
        a = fixture("random_regular(10,3,1)")
        b = fixture("random_regular(10,3,1)")
        assert a == b
        assert all(a.degree(v) == 3 for v in range(10))

    def test_random_regular_odd_product_rejected(self):
        with pytest.raises(InputError):
            fixture("random_regular(5,3,1)")

    @pytest.mark.parametrize("bad", ["cycle(2)", "nope", "path()", "cycle(a)"])
    def test_invalid_specs(self, bad):
        with pytest.raises(InputError):
            fixture(bad)
