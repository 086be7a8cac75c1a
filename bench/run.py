"""Benchmark of tuttelab: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload ball-verify --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is imported from this
checkout's ``src/`` and nowhere else, so the script fails (exit 2, no
result line) when the sources are missing.  It is single-process and
single-threaded and needs only the standard library.

A pass runs every operation of the workload once, in a fixed order.  The
run makes as many passes as fit in ``--seconds`` (at least two untraced
passes).  Set-up (import, input generation, writing input files) runs
before every untraced pass.  Times are given at the reference speed: each
operation's or set-up's time is divided by the time of a fixed reference
kernel run around it (see ``reference.py``) and multiplied by ``REF_S``.
A time metric is the sum, over the operations, of each one's median over
passes; ``setup_s`` is the median set-up.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the run alternates untraced and traced passes and the last
line holds the per-layer metrics of the traced ones.  Every operation's
output is checked; a probe is an operation expected to fail on the
current code (a known defect), counted apart from the others and never
timed.  The lines before the result give per-operation digests, every
metric with its unit, and each failure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from ops import FAMILIES, WORKLOAD_OPS, WORKLOADS, CheckError, Op
from reference import REF_S, reference
from tracing import Summary, Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
MIN_PASSES = 2
# The reference kernel runs again once this much time has passed since it
# last ran, so every operation is divided by a kernel time taken within a
# tenth of a second or so of it.
REF_EVERY_S = 0.05


@dataclass
class Result:
    """One execution of an operation.  It keeps no reference to the
    operation itself, so the inputs of earlier set-ups can be freed."""

    name: str
    probe: bool
    graph: bool
    ok: bool
    error: str | None = None
    times: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    digest: str | None = None
    output_bytes: int = 0
    ref: float = REF_S  # the reference kernel's time around this execution

    @property
    def seconds(self) -> float:
        return sum(self.times.values())

    def scaled(self, seconds: float) -> float:
        """``seconds`` of this execution, at the reference speed."""
        return seconds * REF_S / self.ref


def import_package():
    """(Re-)import tuttelab from this checkout's sources."""
    for name in [m for m in sys.modules if m == "tuttelab" or m.startswith("tuttelab.")]:
        del sys.modules[name]
    tl = importlib.import_module("tuttelab")
    importlib.import_module("tuttelab.cli")
    if Path(tl.__file__).resolve().parent != SRC / "tuttelab":
        raise ImportError(f"tuttelab imported from {tl.__file__}, not from {SRC}")
    return tl


def set_up(workload: str, seed: int, workdir: Path, tracer: Tracer | None = None):
    start = perf_counter()
    tl = import_package()
    if tracer is not None:
        tracer.install(tl)
    try:
        ops = WORKLOAD_OPS[workload](tl, seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return tl, ops, perf_counter() - start


def run_op(op: Op) -> Result:
    """Run one operation under a guard: a failure is recorded, never raised."""
    try:
        outcome = op.execute()
    except Exception as exc:  # the op failed; the run carries on
        return Result(op.name, op.probe, op.graph, False, type(exc).__name__)
    digest = hashlib.sha256(op.digest(outcome.payload).encode()).hexdigest()
    result = Result(op.name, op.probe, op.graph, True, None, outcome.times, {}, digest,
                    outcome.output_bytes)
    try:
        result.counts = op.check(outcome.payload)
    except CheckError as exc:
        result.ok, result.error = False, f"check: {exc}"
    except Exception as exc:  # output too malformed to parse
        result.ok, result.error = False, f"check: {type(exc).__name__}: {exc}"
    return result


def run_pass(ops: list[Op], probes: bool = True, tracer: Tracer | None = None) -> list[Result]:
    """Run every operation once, in order; probes only if ``probes``.

    The reference kernel runs before the first regular operation and then
    whenever ``REF_EVERY_S`` has passed; each regular operation gets the
    mean of the two kernel times around it.  Probes are never timed.
    """
    gc.collect()
    results: list[Result] = []
    pending: list[Result] = []
    before, last = reference(), perf_counter()

    def close_stretch():
        nonlocal before, last
        after = reference()
        for r in pending:
            r.ref = (before + after) / 2
        pending.clear()
        before, last = after, perf_counter()

    for op in ops:
        if op.probe:
            if probes:
                results.append(run_op(op))
            continue
        if tracer is not None:
            tracer.op = op.name
        results.append(run_op(op))
        pending.append(results[-1])
        if perf_counter() - last >= REF_EVERY_S:
            close_stretch()
    if pending:
        close_stretch()
    return results


def traced_pass(tl, ops: list[Op]) -> tuple[list[Result], Tracer]:
    """One pass of the regular operations with spans."""
    tracer = Tracer()
    tracer.install(tl)
    try:
        results = run_pass(ops, probes=False, tracer=tracer)
    finally:
        tracer.uninstall()
    return results, tracer


def regular(results: list[Result]) -> list[Result]:
    return [r for r in results if not r.probe]


def per_op(passes: list[list[Result]], value) -> dict[str, float]:
    """Each passing regular operation's median of ``value(result)`` over passes."""
    samples: defaultdict = defaultdict(list)
    for p in passes:
        for r in regular(p):
            if r.ok:
                samples[r.name].append(value(r))
    return {name: statistics.median(v) for name, v in samples.items()}


def wall_seconds(passes: list[list[Result]]) -> float:
    """Summed time of the regular operations, at the reference speed."""
    return sum(per_op(passes, lambda r: r.scaled(r.seconds)).values())


def family_seconds(passes: list[list[Result]], family: str) -> float:
    return sum(per_op(passes, lambda r: r.scaled(r.times.get(family, 0.0))).values())


def setup_seconds(setups: list[tuple[float, float]]) -> float:
    """Median set-up time, at the reference speed."""
    return statistics.median(seconds * REF_S / ref for seconds, ref in setups)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def end_to_end(passes: list[list[Result]], setups: list[tuple[float, float]]) -> dict:
    """The metrics listed in BENCHMARK.json, present on every workload."""
    return {
        "wall_s": (wall_seconds(passes), "s"),
        "setup_s": (setup_seconds(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_only(passes: list[list[Result]], setups: list[tuple[float, float]]) -> dict:
    """Printed metrics that BENCHMARK.json leaves out (see RATIONALE.md).

    A family's time is reported on the workloads that run that family.
    The raw times are as measured, without the reference kernel.
    """
    metrics = {
        "raw_wall_s": (sum(per_op(passes, lambda r: r.seconds).values()), "s"),
        "raw_setup_s": (statistics.median(seconds for seconds, _ in setups), "s"),
        "ref_ms": (statistics.median(r.ref for p in passes for r in regular(p)) * 1e3, "ms"),
    }
    for family in FAMILIES:
        if any(family in r.times for r in passes[0]):
            metrics[f"{family}_s"] = (family_seconds(passes, family), "s")
    if "x_enum_s" in metrics:
        candidates = sum(r.counts.get("candidates", 0) for r in regular(passes[0])
                         if "x_enum" in r.times)
        metrics["x_candidates_per_s"] = (candidates / metrics["x_enum_s"][0], "1/s")
    every = [r for p in passes for r in p]
    metrics["ops_failed_ratio"] = (sum(not r.ok for r in every) / len(every), "ratio")
    graphs = [r.name for r in passes[0] if r.graph]
    if graphs:
        median = per_op(passes, lambda r: r.scaled(r.seconds))
        latencies = [median[name] for name in graphs if name in median]
        metrics["graph_p50_ms"] = (percentile(latencies, 0.50) * 1e3, "ms")
        metrics["graph_p98_ms"] = (percentile(latencies, 0.98) * 1e3, "ms")
    return metrics


def per_layer(untraced, traced, tracers, setup_tracer, setups) -> dict:
    """Counts of the first traced pass; times at the reference speed.

    A pass's layer times are scaled by the mean reference-kernel time of
    the pass, and the median over traced passes is reported.
    """
    med = statistics.median
    summaries = [Summary(t) for t in tracers]
    layers = [s.layer_metrics() for s in summaries]
    scales = [REF_S / statistics.mean(r.ref for r in p) for p in traced]
    metrics = {}
    for key, (value, unit) in layers[0].items():
        if unit == "s":
            value = med(m[key][0] * k for m, k in zip(layers, scales))
        metrics[key] = (value, unit)
    cli_bytes = sum(r.output_bytes for r in regular(traced[0]))
    metrics["cli.output_bytes"] = (cli_bytes, "B")
    setup, (_, setup_ref) = Summary(setup_tracer), setups[0]
    k = REF_S / setup_ref
    metrics["generators.s"] = (setup.busy["generators"] * k, "s")
    metrics["core.format.s"] = ((setup.incl["core.format_window"] + setup.incl["core.format_graph"]
                                 - setup.site_incl["core.format_graph", "core"]) * k, "s")
    untraced_wall = wall_seconds(untraced)
    traced_wall = wall_seconds(traced)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    refs = [{r.name: r.ref for r in p} for p in traced]
    metrics["trace.top_span_s"] = (sum(
        med(s.top[op] * REF_S / ref[op] for s, ref in zip(summaries, refs))
        for op in summaries[0].top), "s")
    metrics["trace.spans"] = (len(tracers[0].spans), "count")
    return metrics


def check_determinism(passes: list[list[Result]]) -> None:
    """Mark an op failed when its output differs from its first pass."""
    first = {r.name: r.digest for r in passes[0]}
    for p in passes[1:]:
        for r in p:
            if r.ok and r.digest != first[r.name]:
                r.ok = False
                r.error = "output differs between passes"


def measure(make, seconds: float, trace: bool):
    """Rounds of set-up and passes; returns passes, tracers and set-ups.

    ``make()`` sets up and returns ``(tl, ops, seconds)``.  An untraced run
    sets up again before every pass, so that set-up is sampled across the
    whole run, as the passes are.  The previous round's inputs are dropped
    and collected first, so the peak resident set is that of one set-up and
    its pass, and set-up never pays for collecting the last one's.  A
    traced run sets up once, traced, and alternates untraced and traced
    passes.  Probes are never timed, so only the first pass runs them.
    Each set-up is returned as ``(seconds, reference-kernel seconds)``.
    Another round starts only when it is predicted to end within
    ``seconds``, so a run overshoots only to reach its minimum rounds.
    """
    untraced, traced, tracers, setups = [], [], [], []
    tl = ops = None
    start = perf_counter()
    while True:
        if not (trace and setups):
            tl = ops = None
            gc.collect()
            before = reference()
            tl, ops, elapsed = make()
            setups.append((elapsed, (before + reference()) / 2))
        untraced.append(run_pass(ops, probes=not untraced))
        if trace:
            results, tracer = traced_pass(tl, ops)
            traced.append(results)
            tracers.append(tracer)
        elapsed = perf_counter() - start
        rounds = len(untraced)
        if rounds >= MIN_PASSES and elapsed * (rounds + 1) / rounds > seconds:
            return untraced, traced, tracers, setups


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tuttelab" / "__init__.py").is_file():
        print(f"error: no tuttelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    setup_tracer = Tracer() if args.trace else None
    try:
        untraced, traced, tracers, setups = measure(
            lambda: set_up(args.workload, args.seed, workdir, setup_tracer),
            args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import tuttelab: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    check_determinism(passes)
    every = [r for p in passes for r in p]
    ops_done = [r for r in every if not r.probe]
    probes = [r for r in every if r.probe]

    print(f"# workload={args.workload} seed={args.seed} untraced_passes={len(untraced)} "
          f"traced_passes={len(traced)} ops_per_pass={len(regular(passes[0]))} "
          f"probes={len(probes)}")
    combined = hashlib.sha256("".join(r.digest or "-" for r in passes[0]).encode())
    print(f"digest all {combined.hexdigest()}")
    if len(passes[0]) <= 32:
        raw = per_op(untraced, lambda r: r.seconds)
        scaled = per_op(untraced, lambda r: r.scaled(r.seconds))
        for r in passes[0]:
            timing = "-" if r.name not in raw else (
                f"median_s={fmt(raw[r.name])} scaled_s={fmt(scaled[r.name])}")
            kind = "probe" if r.probe else "op"
            print(f"digest {kind} {r.name} {r.digest or '-'} {timing}")
    for r in every:
        if not r.ok:
            kind = "probe" if r.probe else "op"
            print(f"failed {kind} {r.name}: {r.error}")

    if args.trace:
        metrics = per_layer(untraced, traced, tracers, setup_tracer, setups)
        write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz",
                    {"workload": args.workload, "seed": args.seed},
                    {"setup": setup_tracer, **{f"pass{i}": t for i, t in enumerate(tracers)}})
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {fmt(value)} {unit}")
    else:
        metrics = end_to_end(untraced, setups)
        for name, (value, unit) in {**metrics, **report_only(untraced, setups)}.items():
            if name in ("setup_s", "raw_setup_s"):
                samples = f"median of {len(setups)} set-ups"
            elif name == "peak_rss_mb":
                samples = "whole process"
            elif name == "ops_failed_ratio":
                samples = f"over {sum(len(p) for p in untraced)} executions, probes included"
            elif name == "ref_ms":
                samples = "median reference-kernel time"
            elif name == "x_candidates_per_s":
                samples = "candidates over x_enum_s"
            elif name.startswith("graph_"):
                samples = f"over per-graph medians of {len(untraced)} passes"
            else:
                samples = f"sum of per-operation medians of {len(untraced)} passes"
            print(f"metric {name} = {fmt(value)} {unit} ({samples})")
    print(f"# probes attempted={len(probes)} failed={sum(not r.ok for r in probes)}")
    result = {
        "correct": all(r.ok for r in ops_done),
        "attempted": len(ops_done),
        "failed": sum(not r.ok for r in ops_done),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
