import contextlib
import io
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from helpers import windows
from tuttelab import (
    Graph,
    fixture,
    format_graph,
    format_window,
    orientation,
    parse_window_text,
)
from tuttelab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def cycle4_file(tmp_path):
    path = tmp_path / "cycle4.txt"
    path.write_text(format_graph(fixture("cycle(4)")))
    return str(path)


@pytest.fixture
def star3_file(tmp_path):
    path = tmp_path / "star3.txt"
    path.write_text(format_graph(fixture("star(3)")))
    return str(path)


class TestGenerate:
    def test_fixture_output_parses_back(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--fixture", "petersen")
        assert code == 0
        assert parse_window_text(out).graph == fixture("petersen")

    def test_cayley_window_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--free-rank", "2", "--radius", "2"
        )
        assert code == 0
        w = parse_window_text(out)
        assert w.graph.vertex_count == 17
        assert sum(w.external_stubs) == 36

    def test_schreier_with_perms(self, capsys):
        code, out, err = run_cli(
            capsys,
            "generate",
            "--points", "4",
            "--perm", "0 1,2 3",
            "--perm", "0 2,1 3",
        )
        assert code == 0
        g = parse_window_text(out).graph
        assert g.edge_count == 4
        assert "collapsed" in err

    def test_exactly_one_family_required(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--fixture", "cycle(4)", "--free-rank", "2"
        )
        assert code == 2
        assert "error" in err

    def test_missing_radius(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--free-rank", "2")
        assert code == 2


class TestMatch:
    def test_cycle4(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, "match", cycle4_file)
        assert code == 0
        assert out == "0 1\n2 3\nsize=2 perfect=yes\n"

    def test_star3(self, capsys, star3_file):
        code, out, _ = run_cli(capsys, "match", star3_file)
        assert code == 0
        assert out.endswith("size=1 perfect=no\n")

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 1\n0 x\n")
        code, _, err = run_cli(capsys, "match", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "match", "/nonexistent/file.txt")
        assert code == 2


class TestVerifyTutte:
    def test_star3_violation(self, capsys, star3_file):
        code, out, _ = run_cli(
            capsys, "verify-tutte", star3_file,
            "--epsilon", "0", "--k", "1", "--max-x", "2",
        )
        assert code == 1
        assert "verdict=fail" in out
        assert "X={0}" in out

    def test_cycle4_passes_at_zero(self, capsys, cycle4_file):
        code, out, _ = run_cli(
            capsys, "verify-tutte", cycle4_file,
            "--epsilon", "0", "--k", "1", "--max-x", "4",
        )
        assert code == 0
        assert "verdict=pass" in out

    def test_bad_epsilon_string(self, capsys, cycle4_file):
        with pytest.raises(SystemExit):
            main(["verify-tutte", cycle4_file, "--epsilon", "x", "--k", "1",
                  "--max-x", "1"])


class TestExpansion:
    def test_estimate(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, "expansion", cycle4_file, "--max-f", "2")
        assert code == 0
        assert "delta_lower=1" in out

    def test_lemma_on_ball(self, capsys, tmp_path):
        from tuttelab import GroupSpec, cayley_ball

        path = tmp_path / "ball.txt"
        path.write_text(format_window(cayley_ball(GroupSpec.free(2), 2)))
        code, out, _ = run_cli(
            capsys, "expansion", str(path), "--lemma",
            "--degree", "4", "--delta", "2", "--max-x", "2",
        )
        assert code == 0
        assert "verdict=pass" in out

    def test_lemma_needs_flags(self, capsys, cycle4_file):
        code, _, err = run_cli(capsys, "expansion", cycle4_file, "--lemma")
        assert code == 2

    def test_all_sets_flag_is_gone(self, cycle4_file):
        with pytest.raises(SystemExit) as exc:
            main(["expansion", cycle4_file, "--all-sets"])
        assert exc.value.code == 2


class TestLayered:
    def test_cycle4(self, capsys, cycle4_file):
        code, out, _ = run_cli(
            capsys, "layered", cycle4_file,
            "--epsilon", "1/2", "--levels", "2", "--cert-max-x", "4",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "level=0 chosen=1 tutte=pass odd_components=0"
        assert lines[1] == "level=1 chosen=0 tutte=pass odd_components=0"
        assert "verdict=pass" in lines[-1]

    def test_star3_is_input_error(self, capsys, star3_file):
        code, _, err = run_cli(
            capsys, "layered", star3_file,
            "--epsilon", "1/2", "--levels", "1",
        )
        assert code == 2
        assert "perfect matching" in err


class TestOrient:
    def test_euler_cycle4(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, "orient", cycle4_file, "--method", "euler")
        assert code == 0
        assert out == "0 1 -> 1\n0 3 -> 0\n1 2 -> 2\n2 3 -> 3\n"

    def test_gadget_route(self, capsys, cycle4_file):
        code, out, _ = run_cli(capsys, "orient", cycle4_file, "--method", "gadget")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_gadget_route_on_long_shuffled_cycle(self, capsys, tmp_path):
        # Augmenting paths here run far past the default recursion limit.
        n = 4000
        perm = list(range(n))
        random.Random(0).shuffle(perm)
        g = Graph.from_edges(n, [(perm[v], perm[(v + 1) % n]) for v in range(n)])
        path = tmp_path / "cycle4000.txt"
        path.write_text(format_graph(g))
        code, out, _ = run_cli(capsys, "orient", str(path), "--method", "gadget")
        assert code == 0
        indeg = [0] * n
        outdeg = [0] * n
        for line in out.splitlines():
            edge, head = line.split(" -> ")
            u, v = map(int, edge.split())
            indeg[int(head)] += 1
            outdeg[u + v - int(head)] += 1
        assert indeg == outdeg == [1] * n

    def test_odd_degree_rejected(self, capsys, star3_file):
        code, _, err = run_cli(capsys, "orient", star3_file)
        assert code == 2


class TestGadgetAudit:
    def test_cycle4_fails_for_positive_epsilon(self, capsys, cycle4_file):
        code, out, _ = run_cli(
            capsys, "gadget-audit", cycle4_file, "--epsilon", "1/10"
        )
        assert code == 1
        assert "verdict=fail" in out

    def test_ball_passes(self, capsys, tmp_path):
        from tuttelab import GroupSpec, cayley_ball

        path = tmp_path / "ball.txt"
        path.write_text(format_window(cayley_ball(GroupSpec.free(2), 2)))
        code, out, _ = run_cli(
            capsys, "gadget-audit", str(path), "--epsilon", "1/5", "--max-f", "4"
        )
        assert code == 0
        assert "verdict=pass verdict_raw=fail" in out

    def test_odd_degree_is_named_before_the_bound(self, capsys, star3_file):
        # Both faults at once: the odd degree is reported, not max_f.
        code, out, err = run_cli(
            capsys, "gadget-audit", star3_file, "--epsilon", "1/5", "--max-f", "0"
        )
        assert (code, out, err) == (2, "", "error: vertex 0 has odd degree 3\n")


class TestThreadCap:
    def test_invalid_cap_rejected(self, capsys, cycle4_file, monkeypatch):
        monkeypatch.setenv("TUTTELAB_THREADS", "zero")
        code, _, err = run_cli(capsys, "match", cycle4_file)
        assert code == 2
        assert "TUTTELAB_THREADS" in err

    def test_valid_cap_accepted(self, capsys, cycle4_file, monkeypatch):
        monkeypatch.setenv("TUTTELAB_THREADS", "2")
        code, _, _ = run_cli(capsys, "match", cycle4_file)
        assert code == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--free-rank", "2", "--radius", "2"),
            ("generate", "--fixture", "random_regular(10,3,1)"),
        ],
    )
    def test_generate_twice_identical(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_output_file_matches_stdout(self, capsys, tmp_path, cycle4_file):
        _, out, _ = run_cli(capsys, "match", cycle4_file)
        target = tmp_path / "out.txt"
        run_cli(capsys, "match", cycle4_file, "-o", str(target))
        assert target.read_text() == out


class TestExitCodes:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["match"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("target", ["missing/out.txt", "."])
    def test_unwritable_output(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run_cli(
            capsys, "generate", "--fixture", "cycle(4)", "-o", path
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_input_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"2 1\n0 1\n# \xff\n")
        code, _, err = run_cli(capsys, "match", str(path))
        assert code == 2
        assert err.startswith(f"error: cannot read {path}: ")
        assert "Traceback" not in err

    def test_stdin_not_utf8(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"2 1\n0 \xff\n"), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, _, err = run_cli(capsys, "match", "-")
        assert code == 2
        assert err.startswith("error: cannot read -: ")

    def test_failed_internal_check_exits_3(self, capsys, cycle4_file, monkeypatch):
        def broken(g):
            raise orientation.GadgetMatchingError("gadget matching not perfect", (0,))

        monkeypatch.setattr(orientation, "balanced_orientation_via_gadget", broken)
        code, out, err = run_cli(capsys, "orient", cycle4_file, "--method", "gadget")
        assert code == 3
        assert out == ""
        assert err == "internal check failed: gadget matching not perfect\n"

    def test_unexpected_exception_exits_3_with_traceback(
        self, capsys, cycle4_file, monkeypatch
    ):
        def broken(g):
            raise RuntimeError("boom")

        monkeypatch.setattr(orientation, "balanced_orientation_via_gadget", broken)
        code, out, err = run_cli(capsys, "orient", cycle4_file, "--method", "gadget")
        assert code == 3
        assert out == ""
        assert err.startswith("Traceback")
        assert err.endswith("RuntimeError: boom\n")

    def test_edgeless_orient_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text(format_graph(Graph.from_edges(3, ())))
        assert run_cli(capsys, "orient", str(path)) == (0, "", "")


# Replacement tokens stay small, so a mutated header never asks for a big graph.
FUZZ_TOKENS = ["-1", "0", "1", "2", "3", "7", "x", "1/2", "#", "interior:", "stubs:"]
FUZZ_COMMANDS = [
    ["match"],
    ["verify-tutte", "--epsilon", "1/2", "--k", "2", "--max-x", "2"],
    ["expansion", "--max-f", "3"],
    ["expansion", "--lemma", "--degree", "3", "--delta", "1", "--max-x", "2"],
    ["layered", "--epsilon", "1", "--levels", "2", "--cert-max-x", "2"],
    ["orient", "--method", "euler"],
    ["orient", "--method", "gadget"],
    ["gadget-audit", "--epsilon", "1/5", "--max-f", "3"],
]


@st.composite
def mutated_inputs(draw):
    """A serialised window on at most 8 vertices, with up to 3 mutations."""
    lines = format_window(draw(windows(max_n=8))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["token", "drop", "copy", "insert", "swap"]))
        if kind == "insert" or i == len(lines):
            tokens = draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=3))
            lines.insert(i, " ".join(tokens))
        elif kind == "token":
            tokens = lines[i].split()
            j = draw(st.integers(0, len(tokens)))
            tokens[j:j + 1] = [draw(st.sampled_from(FUZZ_TOKENS))]
            lines[i] = " ".join(tokens)
        elif kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("command", FUZZ_COMMANDS, ids=" ".join)
@given(text=mutated_inputs())
@settings(max_examples=60, deadline=None)
def test_fuzzed_input_exits_with_a_documented_code(command, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], "-", *command[1:]])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
