import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    brute_matching_size,
    complete_matching,
    disjoint_union,
    distance,
    hull_report,
    least_extendable_edge,
    net_separation_ok,
    pendant_completion,
    random_graph,
    random_tree,
    remove_vertices,
    remove_window_vertices,
    windows,
)
from tuttelab import (
    Edge,
    Graph,
    InputError,
    Schedule,
    Window,
    build_nets,
    build_schedule,
    check_tutte_eps_k,
    fixture,
    has_perfect_matching,
    layered,
    run_layered_matching,
)


class TestSchedule:
    def test_half_three_levels(self):
        s = build_schedule(Fraction(1, 2), 3)
        assert s.levels == (32, 64, 128)
        assert s.eps == (Fraction(3, 8), Fraction(5, 16), Fraction(9, 32))
        # Geometric tail: sum over all n of 4/f(n) is 8/32 = 1/4 < 1/2,
        # and eps_{-1} * f(0) = 16 > 4.
        assert Fraction(8, s.levels[0]) < s.epsilon
        assert s.epsilon * s.levels[0] > 4

    def test_single_level(self):
        s = build_schedule(Fraction(1, 2), 1)
        assert s.levels == (32,)
        assert s.eps == (Fraction(3, 8),)

    def test_zero_epsilon_rejected(self):
        with pytest.raises(InputError):
            build_schedule(0, 2)

    def test_validation_rejects_nonincreasing_f(self):
        with pytest.raises(InputError):
            Schedule(Fraction(1, 2), (32, 32))

    def test_validation_rejects_spent_budget(self):
        # eps_0 = 1/2 - 4/12 = 1/6 but eps_1 = 1/6 - 4/16 < 0.
        with pytest.raises(InputError, match="eps_n must stay positive"):
            Schedule(Fraction(1, 2), (12, 16))

    @given(
        st.fractions(min_value=Fraction(1, 1000), max_value=1),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_conditions_hold_for_random_epsilon(self, epsilon, levels):
        s = build_schedule(epsilon, levels)
        total = Fraction(0)
        prev_eps = s.epsilon
        prev_f = 0
        for f_n, eps_n in zip(s.levels, s.eps):
            assert f_n > prev_f
            total += Fraction(4, f_n)
            assert eps_n == s.epsilon - total
            assert eps_n > 0
            assert prev_eps * f_n > 4
            prev_eps = eps_n
            prev_f = f_n
        assert total < s.epsilon


def hand_schedule(epsilon, fs):
    """Schedule with explicit f values (for small test graphs)."""
    return Schedule(Fraction(epsilon), tuple(fs))


def residual(w, nets):
    """The interior vertices that no net level holds, ascending."""
    used = {v for level in nets for v in level}
    return tuple(sorted(w.interior - used))


class TestNets:
    def test_path10_single_level(self):
        w = Window.closed(fixture("path(10)"))
        nets = build_nets(w, hand_schedule(3, (2,)))
        assert nets == ((0, 3, 6, 9),)
        assert residual(w, nets) == (1, 2, 4, 5, 7, 8)

    def test_single_vertex(self):
        w = Window.closed(Graph.from_edges(1, ()))
        nets = build_nets(w, build_schedule(Fraction(1, 2), 2))
        assert nets == ((0,), ())
        assert residual(w, nets) == ()

    def test_empty_interior(self):
        g = fixture("path(3)")
        w = Window(g, frozenset(), (1, 1, 1))
        nets = build_nets(w, build_schedule(Fraction(1, 2), 2))
        assert nets == ((), ())
        assert residual(w, nets) == ()

    def test_levels_partition_interior(self):
        w = Window.closed(fixture("random_regular(12,3,3)"))
        sched = hand_schedule(5, (2, 3, 4))
        nets = build_nets(w, sched)
        everything = [v for level in nets for v in level]
        assert set(everything) <= w.interior
        assert len(set(everything)) == len(everything)

    def test_separation_holds(self):
        w = Window.closed(fixture("random_regular(14,3,9)"))
        sched = hand_schedule(5, (2, 3, 4))
        nets = build_nets(w, sched)
        assert net_separation_ok(w, nets, sched)

    def test_per_level_maximality(self):
        w = Window.closed(fixture("cycle(12)"))
        sched = hand_schedule(3, (2,))
        nets = build_nets(w, sched)
        level = set(nets[0])
        for v in residual(w, nets):
            near = any(
                (d := distance(w.graph, v, u)) is not None and d <= 2
                for u in level
            )
            assert near


class TestLeastExtendableEdge:
    def test_cycle4(self):
        assert least_extendable_edge(fixture("cycle(4)"), 0) == Edge(0, 1)

    def test_path4_skips_forbidden_edge(self):
        assert least_extendable_edge(fixture("path(4)"), 2) == Edge(2, 3)

    def test_path4_first_edge(self):
        assert least_extendable_edge(fixture("path(4)"), 1) == Edge(0, 1)

    def test_no_perfect_matching_rejected(self):
        with pytest.raises(InputError):
            least_extendable_edge(fixture("star(3)"), 1)

    def test_isolated_vertex_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(InputError):
            least_extendable_edge(g, 2)

    def test_matches_brute_force_on_pendant_completions(self):
        rng = random.Random(53)
        for _ in range(25):
            g = pendant_completion(random_graph(rng, rng.randint(1, 9), 0.35))
            n = g.vertex_count
            for x in range(n):
                u = next(
                    u for u in g.adjacency[x]
                    if brute_matching_size(remove_vertices(g, {x, u}).graph)
                    == (n - 2) // 2
                )
                assert least_extendable_edge(g, x) == Edge.of(x, u)


class TestRunLayeredMatching:
    def test_cycle4_with_explicit_nets(self):
        w = Window.closed(fixture("cycle(4)"))
        sched = build_schedule(Fraction(1, 2), 1)
        nets = ((0, 2),)
        run = run_layered_matching(w, sched, nets, 4)
        assert run.matching.edges == (Edge(0, 1), Edge(2, 3))
        assert run.coverage == 1
        assert run.passed
        assert all(c.odd_component_count == 0 for c in run.levels)

    def test_single_edge_path(self):
        w = Window.closed(fixture("path(2)"))
        sched = build_schedule(Fraction(1, 2), 1)
        run = run_layered_matching(w, sched, ((0,),), 2)
        assert run.matching.edges == (Edge(0, 1),)

    def test_star3_rejected(self):
        w = Window.closed(fixture("star(3)"))
        sched = build_schedule(Fraction(1, 2), 1)
        with pytest.raises(InputError):
            run_layered_matching(w, sched, ((0,),), 2)

    def test_open_window_without_matching_aborts_with_partial_certificate(self):
        # The raw radius-2 ball of the 4-regular tree has no perfect
        # matching in its closed reading, so the first net vertex fails.
        from tuttelab import GroupSpec, cayley_ball

        w = cayley_ball(GroupSpec.free(2), 2)
        sched = build_schedule(Fraction(1, 2), 1)
        nets = build_nets(w, sched)
        run = run_layered_matching(w, sched, nets, 2)
        assert run.aborted
        assert not run.passed
        assert run.levels[0].failed_vertices

    def test_net_vertices_covered_and_extends_to_perfect(self):
        rng = random.Random(4242)
        done = 0
        while done < 12:
            n = rng.choice([6, 8, 10, 12, 14])
            g = random_tree(rng, n)
            if not has_perfect_matching(g):
                continue
            done += 1
            w = Window.closed(g)
            sched = build_schedule(Fraction(1, 2), 2)
            nets = build_nets(w, sched)
            run = run_layered_matching(w, sched, nets, 4)
            assert run.passed
            for level in nets:
                assert set(level) <= run.matching.covered
            full = complete_matching(w, run)
            assert full.covers(w.graph)

    def test_deterministic(self):
        w = Window.closed(pendant_completion(fixture("random_regular(12,3,11)")))
        sched = build_schedule(Fraction(1, 2), 2)
        nets = build_nets(w, sched)
        a = run_layered_matching(w, sched, nets, 3)
        b = run_layered_matching(w, sched, nets, 3)
        assert a == b

    def test_mismatched_nets_rejected(self):
        # Unchecked, zip would drop the extra levels of either side.
        w = Window.closed(fixture("cycle(4)"))
        sched = build_schedule(Fraction(1, 2), 2)
        for nets in ((0,),), ((0,), (), ()):
            with pytest.raises(InputError, match="disagree on the number of levels"):
                run_layered_matching(w, sched, nets, 2)

    def test_remaining_graph_stays_matchable_after_each_level(self):
        w = Window.closed(fixture("cycle(10)"))
        sched = build_schedule(Fraction(1, 2), 2)
        nets = build_nets(w, sched)
        run = run_layered_matching(w, sched, nets, 4)
        assert run.passed
        # Replay the per-level prefixes of the matching and confirm the
        # remainder is perfectly matchable after every completed level.
        removed: set[int] = set()
        for cert in run.levels:
            for e in cert.chosen_edges:
                removed.update(e)
            rest = remove_vertices(w.graph, removed).graph
            assert has_perfect_matching(rest)
        assert removed == set(run.matching.covered)


def brute_least_allowed(g, covered, x):
    """Least edge x-u of g - covered in some perfect matching of it, by DP."""
    left = g.vertex_count - len(covered)
    for u in g.adjacency[x]:
        if u in covered:
            continue
        rest = remove_vertices(g, covered | {x, u}).graph
        if 2 * (brute_matching_size(rest) + 1) == left:
            return Edge.of(x, u)
    return None


def replay(w, nets, run):
    """Check every choice of the run against brute force; True if it aborted."""
    covered: set[int] = set()
    for net, cert in zip(nets, run.levels):
        chosen = iter(cert.chosen_edges)
        for x in sorted(net):
            if x in covered:
                continue
            expected = brute_least_allowed(w.graph, covered, x)
            if expected is None:
                assert cert.failed_vertices == (x,)
                assert next(chosen, None) is None
                assert cert is run.levels[-1] and run.aborted and not run.passed
                return True
            assert next(chosen) == expected
            covered.update(expected)
        assert next(chosen, None) is None
        assert not cert.failed_vertices
    assert len(run.levels) == len(nets)
    assert not run.aborted
    assert run.matching.covered == covered
    return False


class TestLayeredChoicesMatchBruteForce:
    SCHEDULE = hand_schedule(9, (1, 2, 3))

    def test_pendant_completions(self):
        rng = random.Random(97)
        for _ in range(30):
            g = pendant_completion(random_graph(rng, rng.randint(1, 8), 0.4))
            w = Window.closed(g)
            nets = build_nets(w, self.SCHEDULE)
            run = run_layered_matching(w, self.SCHEDULE, nets, 2)
            assert not replay(w, nets, run)

    def test_open_windows(self):
        rng = random.Random(98)
        outcomes = set()
        for _ in range(60):
            n = rng.randint(2, 10)
            g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5]))
            # The last vertex is always on the frontier, so the window is open.
            interior = frozenset(v for v in range(n - 1) if rng.random() < 0.7)
            stubs = tuple(0 if v in interior else rng.randint(0, 2) for v in range(n))
            w = Window(g, interior, stubs)
            nets = build_nets(w, self.SCHEDULE)
            run = run_layered_matching(w, self.SCHEDULE, nets, 2)
            outcomes.add(replay(w, nets, run))
        assert outcomes == {True, False}

    def test_oracle_error_is_not_a_failed_vertex(self, monkeypatch):
        # Only a missing perfect matching marks a net vertex failed; an
        # error raised inside the matching oracle reaches the caller.
        def broken(g, live):
            raise InputError("oracle failure")

        monkeypatch.setattr(layered, "has_perfect_matching", broken)
        w = Window(fixture("path(4)"), frozenset({0, 1}), (0, 0, 1, 1))
        nets = build_nets(w, self.SCHEDULE)
        with pytest.raises(InputError, match="oracle failure"):
            run_layered_matching(w, self.SCHEDULE, nets, 2)


@st.composite
def runnable_windows(draw) -> Window:
    """Up to three windows side by side on shuffled ids.

    The union is open when any part is, and can then hold finite
    components of G of either parity beside infinite ones, and edgeless
    frontier vertices.  A closed union gets pendant leaves so that it has
    a perfect matching, which the engine requires of closed windows.
    """
    parts = draw(st.lists(windows(max_n=5), min_size=1, max_size=3))
    n = sum(w.graph.vertex_count for w in parts)
    union = disjoint_union(parts, draw(st.permutations(range(n))))
    if union.is_closed:
        return Window.closed(pendant_completion(union.graph))
    return union


class TestLevelCertificate:
    SCHEDULE = hand_schedule(9, (1, 2, 3))

    @given(runnable_windows(), st.booleans())
    @example(disjoint_union([  # an edgeless frontier vertex, a triangle, an edge
        Window(Graph.from_edges(1, ()), frozenset(), (2,)),
        Window.closed(fixture("cycle(3)")),
        Window.closed(fixture("path(2)")),
    ], [3, 0, 5, 1, 4, 2]), False)
    @example(Window(fixture("path(3)"), frozenset({0, 1}), (0, 0, 1)), False)
    @example(Window(fixture("path(3)"), frozenset({0, 1}), (0, 0, 1)), True)
    @settings(max_examples=150, deadline=None)
    def test_odd_component_count_matches_oracle(self, w, small_eps):
        # Each level's count is that of the adjacency-list oracle on the
        # level window: the input minus everything covered so far.  At
        # epsilon 9 the report walks every X; at epsilon 1 an open window
        # takes the piece walk, and k above the window's size is certified
        # by a perfect matching when there is one.
        schedule = hand_schedule(1, (8, 16, 32)) if small_eps else self.SCHEDULE
        run = run_layered_matching(w, schedule, build_nets(w, schedule), 1)
        covered: set[int] = set()
        for level, cert in enumerate(run.levels):
            assert cert.tutte.k == schedule.levels[level]
            assert cert.tutte.epsilon == schedule.eps[level]
            covered.update(v for e in cert.chosen_edges for v in e)
            level_window = remove_window_vertices(w, covered).window
            expected = len(hull_report(level_window, ()).odd_components)
            assert cert.odd_component_count == expected

    @given(runnable_windows(), st.integers(1, 3), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_tutte_report_is_the_level_windows_in_input_ids(self, w, max_x, small_eps):
        # Each level's report is the check run on a copy of the level window,
        # its witnesses mapped back to input ids.
        schedule = hand_schedule(1, (8, 16, 32)) if small_eps else self.SCHEDULE
        run = run_layered_matching(w, schedule, build_nets(w, schedule), max_x)
        covered: set[int] = set()
        for cert in run.levels:
            covered.update(v for e in cert.chosen_edges for v in e)
            sub = remove_window_vertices(w, covered)
            ids = sub.original_ids
            tutte = cert.tutte
            report = check_tutte_eps_k(sub.window, tutte.epsilon, tutte.k, max_x)
            assert cert.tutte == replace(report, violations=tuple(
                replace(v, x=tuple(ids[i] for i in v.x)) for v in report.violations))
