"""Inputs, operations and output checks of the benchmark workloads.

Every input is made from the seed: the same seed gives the same files and
graph objects.  Seed 0 keeps canonical vertex labels; any other seed
relabels vertices by a seeded shuffle.  The probe input is shuffled on
every seed, as in the known-defect reproduction it comes from, and is made
when the probe first runs: a probe is never timed, so its input is no part
of set-up.

The package is driven only through its public entry points:
``tuttelab.cli.main`` in-process for the CLI workloads and the package
namespace for the library workload.  Names are looked up at call time, so
the wrappers of a traced run see every call.

Each check rests on an exact invariant that the package does not compute
for itself: binomial candidate counts, closed-form expansion constants,
matchings and in-degrees recounted here, and agreement between two
independent oracles of the package.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable

WORKLOADS = ("ball-verify", "closed-corpus", "match-scale")

# Families of timed calls.  "build" is graph construction inside a library
# operation: it counts towards wall time but towards no family.
FAMILIES = ("x_enum", "f_enum", "layered", "match", "orient")


class CheckError(Exception):
    """An operation's output broke one of its invariants."""


@dataclass
class Outcome:
    times: dict[str, float]  # family -> seconds spent in timed calls
    payload: object  # what the check and the digest read
    output_bytes: int = 0  # CLI standard output


@dataclass
class Op:
    name: str
    execute: Callable[[], Outcome]
    check: Callable[[object], dict[str, int]]  # raises CheckError; returns counts
    digest: Callable[[object], str]
    probe: bool = False  # a known-failing op: counted apart, never timed
    graph: bool = False  # one closed-corpus cross-check (latency percentiles)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Input generation (benchmark side; stdlib only).


def labels(n: int, seed: int, tag: str, always: bool = False) -> list[int]:
    """Vertex relabelling: identity on seed 0 unless ``always``."""
    perm = list(range(n))
    if seed or always:
        random.Random(f"{tag}:{seed}").shuffle(perm)
    return perm


def relabel_graph(tl, g, perm):
    return tl.Graph.from_edges(
        g.vertex_count, [(perm[e.u], perm[e.v]) for e in g.edges()]
    )


def relabel_window(tl, w, perm):
    stubs = [0] * w.graph.vertex_count
    for v, k in enumerate(w.external_stubs):
        stubs[perm[v]] = k
    return tl.Window(
        relabel_graph(tl, w.graph, perm),
        frozenset(perm[v] for v in w.interior),
        tuple(stubs),
    )


def pendant_completion(tl, g):
    """Attach one new leaf to every vertex a maximum matching misses.

    Returns the completed graph and its pendant edges; the completion has
    even order and a perfect matching.
    """
    matched = tl.max_matching(g).covered
    n = g.vertex_count
    missed = [v for v in range(n) if v not in matched]
    pendants = [(v, n + i) for i, v in enumerate(missed)]
    edges = [(e.u, e.v) for e in g.edges()] + pendants
    return tl.Graph.from_edges(n + len(missed), edges), tuple(pendants)


def random_pairing_edges(degrees: list[int], rng: random.Random) -> list[tuple[int, int]]:
    """Random simple graph with the given degrees: pairing model with switches.

    Loops and repeated pairs are repaired by switching with a random pair
    instead of redrawing the whole pairing, so the cost hardly depends on
    the seed (the rejection sampler of ``tuttelab.random_regular`` varies
    by a factor of 25 across seeds at n = 20000).
    """
    points = [v for v, d in enumerate(degrees) for _ in range(d)]
    rng.shuffle(points)
    pairs = [[points[i], points[i + 1]] for i in range(0, len(points), 2)]

    def key(a, b):
        return (a, b) if a < b else (b, a)

    present = Counter(key(a, b) for a, b in pairs)
    bad = [i for i, (a, b) in enumerate(pairs) if a == b or present[key(a, b)] > 1]
    budget = 100 * len(pairs)
    while bad:
        budget -= 1
        if budget < 0:
            raise ValueError(f"switch repair did not converge on {len(degrees)} vertices")
        i = bad.pop()
        a, b = pairs[i]
        if a != b and present[key(a, b)] == 1:
            continue
        j = rng.randrange(len(pairs))
        c, e = pairs[j] if rng.random() < 0.5 else reversed(pairs[j])
        if (
            j == i
            or a == c
            or b == e
            or present[key(a, c)]
            or present[key(b, e)]
            or key(a, c) == key(b, e)
        ):
            bad.append(i)
            continue
        present[key(a, b)] -= 1
        present[key(c, e)] -= 1
        pairs[i] = [a, c]
        pairs[j] = [b, e]
        present[key(a, c)] += 1
        present[key(b, e)] += 1
    return sorted(key(a, b) for a, b in pairs)


def random_connected_edges(rng, n, extra):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra:
                edges.add((u, v))
    return sorted(edges)


def random_edges(rng, n, p):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def random_even_degree_edges(rng, n):
    """Random simple graph whose degrees all lie in {2, 4, 6}."""
    while True:
        try:
            return random_pairing_edges([rng.choice((2, 4, 6)) for _ in range(n)], rng)
        except ValueError:  # a degree sequence the repairs could not realise
            continue


# ---------------------------------------------------------------------------
# CLI operations and output parsing.


def fields(line: str) -> dict[str, str]:
    return dict(t.split("=", 1) for t in line.split() if "=" in t)


def cli_op(tl, name, family, argv, exit_codes, check, probe=False) -> Op:
    """Run ``tuttelab.cli.main(argv)`` with captured output.

    ``check(text)`` reads the standard output once the exit code is known
    to be in ``exit_codes``.
    """

    def execute() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = tl.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            elapsed = perf_counter() - start
        text = out.getvalue()
        return Outcome({family: elapsed}, (code, text), len(text))

    def check_outcome(payload) -> dict[str, int]:
        code, text = payload
        expect(code in exit_codes, f"exit code {code}, expected one of {sorted(exit_codes)}")
        return check(text) or {}

    def digest(payload) -> str:
        code, text = payload
        return f"exit={code}\n{text}"

    return Op(name, execute, check_outcome, digest, probe=probe)


def with_input(make_input: Callable[[], None], op: Op) -> Op:
    """``op`` with ``make_input()`` called before each execution, untimed."""
    execute = op.execute

    def execute_with_input() -> Outcome:
        make_input()
        return execute()

    return replace(op, execute=execute_with_input)


def check_matching_lines(lines, g) -> int:
    """Validate 'u v' matching lines against g; return the edge count."""
    seen = set()
    for line in lines:
        u, v = map(int, line.split())
        expect(g.has_edge(u, v), f"matched pair {u} {v} is not an edge")
        expect(u not in seen and v not in seen, f"pair {u} {v} reuses a vertex")
        seen.update((u, v))
    return len(lines)


def check_match_output(text, g, size, perfect):
    lines = text.splitlines()
    summary = fields(lines[-1])
    expect(summary == {"size": str(size), "perfect": perfect},
           f"match summary {lines[-1]!r}, expected size={size} perfect={perfect}")
    expect(check_matching_lines(lines[:-1], g) == size, "pair count differs from size")


def check_orientation_output(text, g):
    """Every edge directed once, in-degree deg/2 everywhere (balanced)."""
    indeg = [0] * g.vertex_count
    directed = set()
    for line in text.splitlines():
        left, head = line.split(" -> ")
        u, v = map(int, left.split())
        h = int(head)
        expect(g.has_edge(u, v) and (u, v) not in directed, f"bad edge line {line!r}")
        expect(h in (u, v), f"head {h} is not an endpoint of {u} {v}")
        directed.add((u, v))
        indeg[h] += 1
    expect(len(directed) == g.edge_count, "orientation is not total")
    for v in range(g.vertex_count):
        expect(2 * indeg[v] == g.degree(v), f"vertex {v} is unbalanced")


def subsets_up_to(n: int, k: int) -> int:
    return sum(comb(n, i) for i in range(min(k, n) + 1))


def connected_sets_up_to(g, k: int) -> int:
    """Number of connected vertex sets of g with 1 to k vertices."""
    total, level = 0, {frozenset([v]) for v in range(g.vertex_count)}
    for size in range(1, k + 1):
        total += len(level)
        if size < k:
            level = {s | {u} for s in level for v in s for u in g.adjacency[v] if u not in s}
    return total


def write_input(tl, path: Path, obj) -> str:
    text = tl.format_window(obj) if isinstance(obj, tl.Window) else tl.format_graph(obj)
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# ball-verify: the README's commands on free(2) Cayley balls.

# Subset sizes of the enumerations.  Each step of one multiplies an
# operation's time by about ten; these keep every operation under a second,
# so that a run holds many passes (see RATIONALE.md, "Sizes").
TUTTE_MAX_X = 3
LEMMA_MAX_X = 3
EXPANSION_MAX_F = 4
GADGET_MAX_F = 4
LAYERED_CERT_MAX_X = 2


def ball_verify(tl, seed: int, workdir: Path) -> list[Op]:
    free2 = tl.GroupSpec.free(2)
    canonical3 = tl.cayley_ball(free2, 3)
    ball3 = relabel_window(tl, canonical3, labels(canonical3.graph.vertex_count, seed, "ball3"))
    ball2 = tl.cayley_ball(free2, 2)
    ball2 = relabel_window(tl, ball2, labels(ball2.graph.vertex_count, seed, "ball2"))
    completed, _ = pendant_completion(tl, canonical3.graph)
    completed = relabel_graph(tl, completed, labels(completed.vertex_count, seed, "completed"))

    f3 = write_input(tl, workdir / "ball3.txt", ball3)
    f2 = write_input(tl, workdir / "ball2.txt", ball2)
    fc = write_input(tl, workdir / "ball3_completed.txt", completed)
    n3 = ball3.graph.vertex_count

    def verify_tutte(text):
        last = fields(text.splitlines()[-1])
        want = subsets_up_to(n3, TUTTE_MAX_X)  # 24 858 for the 53-vertex ball
        expect(last["verdict"] == "pass" and last["violations"] == "0", "Tutte check failed")
        expect(int(last["candidates"]) == want, f"candidates {last['candidates']} != {want}")
        return {"candidates": want}

    def lemma(text):
        last = fields(text.splitlines()[-1])
        want = subsets_up_to(n3, LEMMA_MAX_X)
        expect(last["verdict"] == "pass" and last["violations"] == "0", "lemma failed")
        expect(int(last["candidates"]) == want, f"candidates {last['candidates']} != {want}")
        return {"candidates": want}

    def expansion(text):
        # Connected F in the free(2) tree ball have |boundary| = 2|F| + 2,
        # so the minimum over |F| <= m is 2 + 2/m at |F| = m.
        m = EXPANSION_MAX_F
        got = fields(text.splitlines()[1])
        expect(Fraction(got["delta_lower"]) == 2 + Fraction(2, m), f"delta {got['delta_lower']}")
        expect(got["size"] == str(m) and got["boundary"] == str(2 * m + 2),
               "witness size or boundary")
        g = ball3.graph
        sets = connected_sets_up_to(g, m)  # 419 for m = 4
        expect(got["checked"] == str(sets), f"checked {got['checked']} != {sets} connected sets")
        witness = [int(v) for v in got["witness"].split(",")]
        wset = set(witness)
        boundary = sum(
            ball3.external_stubs[v] + sum(u not in wset for u in g.adjacency[v])
            for v in witness
        )
        expect(boundary == 2 * m + 2, f"witness boundary recomputed as {boundary}")
        return {"checked": sets}

    def gadget_audit(text):
        lines = text.splitlines()
        vertex = fields(lines[2])
        expect(vertex["side"] == "vertex", "vertex side line missing")
        expect(Fraction(vertex["min_ratio_credited"]) == Fraction(5, 4),
               f"vertex-side credited minimum {vertex['min_ratio_credited']} != 5/4")
        expect(Fraction(fields(lines[1])["min_ratio_credited"]) >= Fraction(6, 5),
               "edge side below 1 + epsilon")
        expect(fields(lines[3])["verdict"] == "pass", "audit verdict")

    def layered(text):
        lines = text.splitlines()
        levels = [fields(s) for s in lines[:2]]
        for lv in levels:
            expect(lv["tutte"] == "pass" and lv["odd_components"] == "0", f"level {lv}")
        tail = fields(lines[-1])
        expect(tail["aborted"] == "no" and tail["verdict"] == "pass", lines[-1])
        size = int(fields(lines[-2])["size"])
        expect(check_matching_lines(lines[2:-2], completed) == size, "pair count")

    return [
        cli_op(tl, "verify-tutte", "x_enum",
               ["verify-tutte", f3, "--epsilon", "1/2", "--k", "1", "--max-x", str(TUTTE_MAX_X)],
               {0}, verify_tutte),
        cli_op(tl, "expansion-lemma", "x_enum",
               ["expansion", f3, "--lemma", "--degree", "4", "--delta", "2",
                "--max-x", str(LEMMA_MAX_X)],
               {0}, lemma),
        cli_op(tl, "expansion", "f_enum", ["expansion", f3, "--max-f", str(EXPANSION_MAX_F)],
               {0}, expansion),
        cli_op(tl, "gadget-audit", "f_enum",
               ["gadget-audit", f2, "--epsilon", "1/5", "--max-f", str(GADGET_MAX_F)],
               {0}, gadget_audit),
        cli_op(tl, "layered", "layered",
               ["layered", fc, "--epsilon", "1/8", "--levels", "2",
                "--cert-max-x", str(LAYERED_CERT_MAX_X)],
               {0}, layered),
    ]


# ---------------------------------------------------------------------------
# match-scale: the CLI on large seeded files.


# The recursive Hopcroft-Karp DFS overflows the interpreter stack on a
# shuffled cycle(4000) for some shuffles only; at 16000 vertices every
# tested shuffle overflows, so the probe measures the defect on any seed.
PROBE_CYCLE = 16000
# Maximum matching on a random 4-regular graph takes a time that varies by
# about 30% from graph to graph, and more at larger n; a pass matches
# several graphs, so that their sum hardly depends on the seed.
MATCH_N = 1500
MATCH_GRAPHS = 16
ORIENT_RR_N = 10000
# The amenable control of the layered engine.  Its time grows about
# cubically: 0.4 s at 400 vertices, 3 s at 800.
CONTROL_CYCLE = 400


def match_scale(tl, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"regular:{seed}")
    to_match = [tl.Graph.from_edges(MATCH_N, random_pairing_edges([4] * MATCH_N, rng))
                for _ in range(MATCH_GRAPHS)]
    to_orient = tl.Graph.from_edges(ORIENT_RR_N, random_pairing_edges([4] * ORIENT_RR_N, rng))
    cycle = relabel_graph(tl, tl.fixture(f"cycle({CONTROL_CYCLE})"),
                          labels(CONTROL_CYCLE, seed, "cycle"))
    match_files = [write_input(tl, workdir / f"match{i}.txt", g) for i, g in enumerate(to_match)]
    forient = write_input(tl, workdir / "orient.txt", to_orient)
    fcycle = write_input(tl, workdir / "cycle.txt", cycle)
    fprobe = workdir / "probe_cycle.txt"
    probe = []  # the probe's graph, once made

    def make_probe_input():
        if not probe:
            probe.append(relabel_graph(tl, tl.fixture(f"cycle({PROBE_CYCLE})"),
                                       labels(PROBE_CYCLE, seed, "probe", always=True)))
            write_input(tl, fprobe, probe[0])

    def perfect_match(g):
        return lambda text: check_match_output(text, g, g.vertex_count // 2, "yes")

    def balanced(g):
        return lambda text: check_orientation_output(text, g)

    def layered_control(text):
        # The amenable control: every level runs (no abort), the chosen
        # edges keep the rest perfectly matchable (no odd components),
        # and the quantitative certificate fails.
        lines = text.splitlines()
        levels = [fields(s) for s in lines[:3]]
        expect(all("level" in lv for lv in levels), "expected three level lines")
        expect(all(lv["odd_components"] == "0" for lv in levels), "odd components left")
        expect(any(lv["tutte"] == "fail" for lv in levels), "control certificate passed")
        tail = fields(lines[-1])
        expect(tail["aborted"] == "no" and tail["verdict"] == "fail", lines[-1])
        size = int(fields(lines[-2])["size"])
        expect(check_matching_lines(lines[3:-2], cycle) == size, "pair count")

    return [
        *(cli_op(tl, f"match-rr{MATCH_N}-{i}", "match", ["match", f], {0}, perfect_match(g))
          for i, (f, g) in enumerate(zip(match_files, to_match))),
        cli_op(tl, f"orient-gadget-rr{ORIENT_RR_N}", "orient",
               ["orient", forient, "--method", "gadget"], {0}, balanced(to_orient)),
        cli_op(tl, f"orient-euler-rr{ORIENT_RR_N}", "orient",
               ["orient", forient, "--method", "euler"], {0}, balanced(to_orient)),
        cli_op(tl, f"layered-cycle{CONTROL_CYCLE}", "layered",
               ["layered", fcycle, "--epsilon", "1", "--levels", "3", "--cert-max-x", "1"],
               {1}, layered_control),
        with_input(make_probe_input, cli_op(
            tl, f"probe-orient-gadget-cycle{PROBE_CYCLE}", "orient",
            ["orient", str(fprobe), "--method", "gadget"], {0},
            lambda text: check_orientation_output(text, probe[0]), probe=True)),
    ]


# ---------------------------------------------------------------------------
# closed-corpus: the library API on small closed graphs.

SMALL_N = range(2, 9)  # connected graphs, as in acceptance criteria 1-2
SMALL_PER_N = 70
MEDIUM_N = range(4, 15)  # graphs of any shape
MEDIUM_PER_N = 3
ORIENT_N = range(8, 61)  # even-degree graphs for the two orientation routes
ORIENT_PER_N = 5

class Clock:
    """Per-family timer around single library calls."""

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)

    def __call__(self, family, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.times[family] += perf_counter() - start
        return result


def corpus_graph_op(tl, name, n, edges, completed, pendants) -> Op:
    """The full cross-check of one small closed graph.

    ``completed`` is its pendant completion, which is perfectly matchable:
    a pendant edge is allowed, and no other edge at its inner vertex is.
    """
    nh = completed.vertex_count
    hedges = [(e.u, e.v) for e in completed.edges()]

    def execute() -> Outcome:
        clock = Clock()
        g = clock("build", tl.Graph.from_edges, n, edges)
        w = clock("build", tl.Window.closed, g)
        m = clock("match", tl.max_matching, g)
        d = clock("x_enum", tl.tutte_berge_deficiency, g, n)
        tutte = clock("x_enum", tl.check_tutte_eps_k, w, 0, 1, n)
        pm = clock("match", tl.has_perfect_matching, g)
        allowed = tuple(clock("match", tl.is_allowed_edge, g, e) for e in g.edges())
        h = clock("build", tl.Graph.from_edges, nh, hedges)
        allowed_h = tuple(clock("match", tl.is_allowed_edge, h, e) for e in h.edges())
        payload = (m.edges, d, tutte.passed, tutte.candidates, pm, allowed, allowed_h)
        return Outcome(dict(clock.times), payload)

    def check(payload) -> dict[str, int]:
        m_edges, d, passed, candidates, pm, allowed, allowed_h = payload
        present = set(edges)
        used = [v for e in m_edges for v in e]
        expect(all(tuple(e) in present for e in m_edges) and len(set(used)) == len(used),
               "max_matching returned a non-matching")
        size = len(m_edges)
        expect((n - d.deficiency) % 2 == 0 and size == (n - d.deficiency) // 2,
               f"size {size} != (n - deficiency)/2 with deficiency {d.deficiency}")
        expect(passed == pm == (2 * size == n), "Tutte verdict and matching oracles disagree")
        expect(candidates == 2 ** n, f"candidates {candidates} != 2^{n}")
        ok = dict(zip(sorted(present), allowed))
        if pm:
            expect(all(ok[tuple(e)] for e in m_edges), "a perfect-matching edge is not allowed")
        else:
            expect(not any(allowed), "allowed edge in a graph with no perfect matching")
        ok_h = dict(zip(hedges, allowed_h))
        for v, leaf in pendants:
            for e, a in ok_h.items():
                if v in e:
                    expect(a == (e == (v, leaf)), f"edge {e} allowed={a} at pendant vertex {v}")
        for graph_ok, order in ((ok, n), (ok_h, nh)):
            if any(graph_ok.values()):
                covered = {v for e, a in graph_ok.items() if a for v in e}
                expect(len(covered) == order, "a vertex of a matchable graph has no allowed edge")
        return {"candidates": 2 * 2 ** n}

    return Op(name, execute, check, repr, graph=True)


def orientation_op(tl, name, n, edges) -> Op:
    def execute() -> Outcome:
        clock = Clock()
        g = clock("build", tl.Graph.from_edges, n, edges)
        euler = clock("orient", tl.eulerian_orientation, g)
        r1 = clock("orient", tl.verify_balanced, g, euler, range(n))
        gadget = clock("orient", tl.balanced_orientation_via_gadget, g)
        r2 = clock("orient", tl.verify_balanced, g, gadget, range(n))
        return Outcome(dict(clock.times), (euler.heads, gadget.heads, r1.passed, r2.passed))

    def check(payload) -> dict[str, int]:
        euler, gadget, ok1, ok2 = payload
        degree = Counter(v for e in edges for v in e)
        for heads in (euler, gadget):
            expect(sorted(tuple(e) for e, _ in heads) == sorted(edges), "orientation not total")
            indeg = Counter(h for _, h in heads)
            expect(all(2 * indeg[v] == degree[v] for v in range(n)), "unbalanced orientation")
        expect(ok1 and ok2, "verify_balanced disagrees with the in-degree count")
        return {}

    return Op(name, execute, check, repr)


def closed_corpus(tl, seed: int, workdir: Path) -> list[Op]:
    # Sizes and densities follow a fixed schedule and only the edges are
    # random, so the candidate counts (2^n per graph) do not vary by seed.
    rng = random.Random(f"corpus:{seed}")
    graphs = []
    for n in SMALL_N:
        for i in range(SMALL_PER_N):
            extra = 0.1 + 0.5 * (i + 0.5) / SMALL_PER_N
            graphs.append((n, random_connected_edges(rng, n, extra)))
    for n in MEDIUM_N:
        for i in range(MEDIUM_PER_N):
            p = 0.15 + 0.55 * (i + 0.5) / MEDIUM_PER_N
            graphs.append((n, random_edges(rng, n, p)))
    ops = []
    for k, (n, edges) in enumerate(graphs):
        completed, pendants = pendant_completion(tl, tl.Graph.from_edges(n, edges))
        ops.append(corpus_graph_op(tl, f"graph-{k}", n, edges, completed, pendants))
    for n in ORIENT_N:
        for i in range(ORIENT_PER_N):
            ops.append(orientation_op(tl, f"orient-{n}-{i}", n, random_even_degree_edges(rng, n)))
    return ops


WORKLOAD_OPS = {
    "ball-verify": ball_verify,
    "closed-corpus": closed_corpus,
    "match-scale": match_scale,
}
