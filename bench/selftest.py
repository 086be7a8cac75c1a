"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

They import the package from ``src/`` of the same checkout, write their
temporary files under ``.bench_work/`` and take about a minute.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run
from ops import (
    CONTROL_CYCLE,
    MATCH_N,
    ORIENT_RR_N,
    PROBE_CYCLE,
    Op,
    Outcome,
    ball_verify,
    check_match_output,
    cli_op,
    closed_corpus,
    fields,
    match_scale,
    write_input,
)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))
        cls.tl = run.import_package()
        run.WORK.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def cycle6_match(self, size: int) -> Op:
        g = self.tl.fixture("cycle(6)")
        path = write_input(self.tl, self.workdir / "cycle6.txt", g)
        return cli_op(self.tl, "match-cycle6", "match", ["match", path], {0},
                      lambda text: check_match_output(text, g, size, "yes"))

    def test_wrong_invariant_marks_op_failed(self):
        self.assertTrue(run.run_op(self.cycle6_match(3)).ok)
        result = run.run_op(self.cycle6_match(4))
        self.assertFalse(result.ok)
        self.assertTrue(result.error.startswith("check:"), result.error)

    def test_unexpected_exit_code_marks_op_failed(self):
        path = write_input(self.tl, self.workdir / "star5.txt", self.tl.fixture("star(5)"))
        argv = ["verify-tutte", path, "--epsilon", "0", "--k", "1", "--max-x", "2"]
        result = run.run_op(cli_op(self.tl, "star", "x_enum", argv, {0}, lambda text: None))
        self.assertFalse(result.ok)
        self.assertIn("exit code 1", result.error)

    def test_raising_probe_does_not_abort_the_pass(self):
        def explode() -> Outcome:
            raise RecursionError("maximum recursion depth exceeded")

        probe = Op("explode", explode, lambda payload: {}, repr, probe=True)
        results = run.run_pass([probe, self.cycle6_match(3)])
        self.assertEqual([r.ok for r in results], [False, True])
        self.assertEqual(results[0].error, "RecursionError")
        self.assertEqual(run.wall_seconds([results]), results[1].scaled(results[1].seconds))

    def test_probes_run_in_the_first_pass_only(self):
        def explode() -> Outcome:
            raise RecursionError("maximum recursion depth exceeded")

        ops = [Op("explode", explode, lambda payload: {}, repr, probe=True), self.cycle6_match(3)]
        untraced, _, _, setups = run.measure(lambda: (self.tl, ops, 0.0), 0.0, trace=False)
        self.assertEqual([[r.name for r in p] for p in untraced],
                         [["explode", "match-cycle6"], ["match-cycle6"]])
        self.assertEqual(len(setups), 2)

    def test_times_are_medians_at_the_reference_speed(self):
        def result(name, seconds, ref=run.REF_S, ok=True, probe=False):
            return run.Result(name, probe, False, ok, times={"match": seconds}, ref=ref)

        # "a" ran on a host at half speed in the second pass, where the
        # reference kernel took twice as long as well.
        passes = [
            [result("a", 2.0), result("b", 1.0), result("p", 0.1, probe=True)],
            [result("a", 4.0, ref=2 * run.REF_S), result("b", 3.0, ok=False)],
            [result("a", 2.5), result("b", 1.2)],
        ]
        self.assertAlmostEqual(run.wall_seconds(passes), 2.0 + 1.1)
        self.assertAlmostEqual(run.family_seconds(passes, "match"), 2.0 + 1.1)
        self.assertEqual(run.family_seconds(passes, "orient"), 0.0)
        self.assertAlmostEqual(run.setup_seconds([(0.2, run.REF_S), (0.4, 2 * run.REF_S),
                                                  (0.3, run.REF_S)]), 0.2)

    def test_every_timed_operation_gets_a_reference_time(self):
        results = run.run_pass([self.cycle6_match(3), self.cycle6_match(3)])
        for r in results:
            self.assertGreater(r.ref, 0.0)
            self.assertNotEqual(r.ref, run.REF_S)

    def test_traced_and_untraced_runs_give_identical_digests(self):
        seed = 3
        cheap = {f"match-rr{MATCH_N}-0", f"orient-gadget-rr{ORIENT_RR_N}",
                 f"layered-cycle{CONTROL_CYCLE}", f"probe-orient-gadget-cycle{PROBE_CYCLE}"}
        ops = ball_verify(self.tl, seed, self.workdir)
        ops += closed_corpus(self.tl, seed, self.workdir)[::40]
        ops += [op for op in match_scale(self.tl, seed, self.workdir) if op.name in cheap]
        self.assertEqual(len(ops), 5 + 20 + 4)
        untraced = run.run_pass(ops)
        traced, tracer = run.traced_pass(self.tl, ops)
        self.assertEqual([r.digest for r in run.regular(untraced)], [r.digest for r in traced])
        self.assertEqual([r.ok for r in run.regular(untraced)], [r.ok for r in traced])
        self.assertGreater(len(tracer.spans), 0)
        # Tracing is removed again: the package's own functions are back.
        self.assertNotIn("wrapper", self.tl.max_matching.__code__.co_name)
        counts = run.Summary(tracer).layer_metrics()
        again = run.Summary(run.traced_pass(self.tl, ops)[1]).layer_metrics()
        for key, (value, unit) in counts.items():
            if unit != "s":
                self.assertEqual(value, again[key][0], key)
        # The connectivity tests split by the verifier that makes them.
        split = [counts[f"verifier.{f}.connected_tests"][0]
                 for f in ("expansion_constant", "check_tutte_eps_k")]
        self.assertTrue(all(split), split)
        self.assertEqual(sum(split), counts["core.mask_is_connected.calls"][0])

    def test_seed_zero_reproduces_canonical_counts(self):
        ops = {op.name: op for op in ball_verify(self.tl, 0, self.workdir)}
        results = {name: run.run_op(ops[name]) for name in
                   ("verify-tutte", "expansion-lemma", "expansion", "gadget-audit")}
        for name, result in results.items():
            self.assertTrue(result.ok, f"{name}: {result.error}")
        self.assertEqual(results["verify-tutte"].counts["candidates"], 24_858)
        self.assertEqual(results["expansion-lemma"].counts["candidates"], 24_858)
        self.assertEqual(results["expansion"].counts["checked"], 419)
        text = ops["gadget-audit"].execute().payload[1]
        self.assertEqual(fields(text.splitlines()[2])["min_ratio_credited"], "5/4")


if __name__ == "__main__":
    unittest.main()
