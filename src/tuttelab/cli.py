"""Command-line front end.

Subcommands: generate, match, verify-tutte, expansion, layered, orient,
gadget-audit.  Graphs travel through the edge-list text format of
tuttelab.core; rationals are written "p/q" on the command line.  Each
subcommand returns its report text and whether it passed; main alone
writes the text (to stdout or --output) and picks the exit code:

  0  pass/success
  1  violation or failure found (a valid analytical result)
  2  usage or input error, an unreadable input or an unwritable --output
  3  internal failure: a failed internal check, or an unexpected
     exception (its traceback goes to stderr)

TUTTELAB_THREADS, when set, caps internal parallelism.  The current
engines are sequential, so any valid cap is honored trivially; the value
is still validated.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from fractions import Fraction

from . import generators, layered, matching, orientation, verifier
from .core import InputError, Window, format_graph, format_window, parse_window_text

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _read_window(path: str) -> Window:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_window_text(text)


def _lines(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def _parse_permutation(text: str, points: int) -> tuple[int, ...]:
    """Cycle notation: "0 1,2 3" means the product of cycles (0 1)(2 3)."""
    perm = list(range(points))
    seen: set[int] = set()
    for chunk in text.split(","):
        cycle = chunk.split()
        if not cycle:
            continue
        try:
            ids = [int(t) for t in cycle]
        except ValueError:
            raise InputError(f"bad cycle {chunk!r}") from None
        for v in ids:
            if not 0 <= v < points:
                raise InputError(f"cycle point {v} out of range")
            if v in seen:
                raise InputError(f"point {v} appears in two cycles")
            seen.add(v)
        for i, v in enumerate(ids):
            perm[v] = ids[(i + 1) % len(ids)]
    return tuple(perm)


def _format_ids(ids) -> str:
    return ",".join(str(v) for v in sorted(ids)) if ids else "-"


def _violation_line(v: verifier.Violation) -> str:
    return (
        f"  X={{{_format_ids(v.x)}}}: kind={v.kind} count={v.count} "
        f"hull={v.hull_size} slack={v.slack}"
        + (f" component={{{_format_ids(v.component)}}}" if v.component else "")
    )


def _cmd_generate(args: argparse.Namespace) -> tuple[str, bool]:
    chosen = [
        args.fixture is not None,
        args.free_rank is not None,
        args.cyclic_orders is not None,
        args.grid_dim is not None,
        args.grandparent_depth is not None,
        bool(args.perm),
    ]
    if sum(chosen) != 1:
        raise InputError("choose exactly one generator family")
    if args.fixture is not None:
        return format_graph(generators.fixture(args.fixture)), True
    if args.grandparent_depth is not None:
        window = generators.grandparent_window(args.grandparent_depth)
        return format_window(window), True
    if args.perm:
        if args.points is None:
            raise InputError("--perm requires --points")
        perms = tuple(_parse_permutation(p, args.points) for p in args.perm)
        build = generators.schreier_graph(
            generators.ActionSpec(args.points, perms)
        )
        if build.loops_dropped or build.parallel_collapsed:
            print(
                f"note: dropped {build.loops_dropped} loops, "
                f"collapsed {build.parallel_collapsed} parallel edges",
                file=sys.stderr,
            )
        return format_graph(build.graph), True
    if args.radius is None:
        raise InputError("Cayley-ball generators require --radius")
    if args.free_rank is not None:
        spec = generators.GroupSpec.free(args.free_rank)
    elif args.cyclic_orders is not None:
        try:
            orders = [int(t) for t in args.cyclic_orders.split(",") if t.strip()]
        except ValueError:
            raise InputError(f"bad --cyclic-orders: {args.cyclic_orders!r}") from None
        spec = generators.GroupSpec.free_product_of_cyclic(orders)
    else:
        spec = generators.GroupSpec.abelian_grid(args.grid_dim)
    return format_window(generators.cayley_ball(spec, args.radius)), True


def _cmd_match(args: argparse.Namespace) -> tuple[str, bool]:
    w = _read_window(args.input)
    state = matching.max_matching(w.graph)
    lines = [f"{e.u} {e.v}" for e in state.edges]
    perfect = "yes" if state.covers(w.graph) else "no"
    lines.append(f"size={state.size} perfect={perfect}")
    return _lines(lines), True


def _cmd_verify_tutte(args: argparse.Namespace) -> tuple[str, bool]:
    w = _read_window(args.input)
    report = verifier.check_tutte_eps_k(w, args.epsilon, args.k, args.max_x)
    out = [
        f"Tutte check on {w.graph.vertex_count} vertices "
        f"(epsilon={report.epsilon}, k={report.k}, max_x={report.max_x})"
    ]
    out.extend(_violation_line(v) for v in report.violations)
    out.append(
        f"verdict={'pass' if report.passed else 'fail'} "
        f"epsilon={report.epsilon} k={report.k} max_x={report.max_x} "
        f"candidates={report.candidates} violations={len(report.violations)}"
    )
    return _lines(out), report.passed


def _cmd_expansion(args: argparse.Namespace) -> tuple[str, bool]:
    w = _read_window(args.input)
    if args.lemma:
        if args.degree is None or args.delta is None or args.max_x is None:
            raise InputError("--lemma requires --degree, --delta and --max-x")
        report = verifier.verify_expansion_lemma(w, args.degree, args.delta, args.max_x)
        out = [
            f"Expansion-lemma check (d={args.degree}, delta={args.delta}, "
            f"epsilon={report.epsilon}, max_x={report.max_x})"
        ]
        out.extend(_violation_line(v) for v in report.violations)
        out.append(
            f"verdict={'pass' if report.passed else 'fail'} "
            f"candidates={report.candidates} violations={len(report.violations)}"
        )
        return _lines(out), report.passed
    report = verifier.expansion_constant(w, args.max_f)
    # "exhaustive=no" stays for byte-identical output; there is one enumeration.
    out = [
        f"Expansion estimate on {w.graph.vertex_count} vertices "
        f"(max_f={report.max_f}, connected subsets)",
        f"delta_lower={report.delta_lower} "
        f"witness={_format_ids(report.delta_witness)} "
        f"boundary={report.witness_boundary} size={len(report.delta_witness)} "
        f"exhaustive=no checked={report.checked}",
    ]
    return _lines(out), True


def _cmd_layered(args: argparse.Namespace) -> tuple[str, bool]:
    w = _read_window(args.input)
    schedule = layered.build_schedule(args.epsilon, args.levels)
    nets = layered.build_nets(w, schedule)
    run = layered.run_layered_matching(w, schedule, nets, args.cert_max_x)
    out = []
    for cert in run.levels:
        out.append(
            f"level={cert.level} chosen={len(cert.chosen_edges)} "
            f"tutte={'pass' if cert.tutte.passed else 'fail'} "
            f"odd_components={cert.odd_component_count}"
            + (
                f" failed_vertices={_format_ids(cert.failed_vertices)}"
                if cert.failed_vertices
                else ""
            )
        )
    for e in run.matching.edges:
        out.append(f"{e.u} {e.v}")
    perfect = "yes" if run.matching.covers(w.graph) else "no"
    out.append(f"size={run.matching.size} perfect={perfect}")
    out.append(
        f"coverage={run.coverage} aborted={'yes' if run.aborted else 'no'} "
        f"verdict={'pass' if run.passed else 'fail'}"
    )
    return _lines(out), run.passed


def _cmd_orient(args: argparse.Namespace) -> tuple[str, bool]:
    w = _read_window(args.input)
    if args.method == "euler":
        o = orientation.eulerian_orientation(w.graph)
    else:
        o = orientation.balanced_orientation_via_gadget(w.graph)
    return _lines([f"{e.u} {e.v} -> {head}" for e, head in o.heads]), True


def _cmd_gadget_audit(args: argparse.Namespace) -> tuple[str, bool]:
    w = _read_window(args.input)
    report = orientation.check_gadget_hall_expansion(w, args.epsilon, args.max_f)
    out = [f"Gadget Hall audit (epsilon={report.epsilon}, max_f={report.max_f})"]
    for side in (report.edge_side, report.vertex_side):
        out.append(
            f"side={side.side} checked={side.checked} "
            f"min_ratio={side.min_ratio} witness={_format_ids(side.witness)} "
            f"min_ratio_credited={side.min_ratio_credited} "
            f"witness_credited={_format_ids(side.witness_credited)}"
        )
    out.append(
        f"verdict={'pass' if report.passed else 'fail'} "
        f"verdict_raw={'pass' if report.passed_raw else 'fail'}"
    )
    return _lines(out), report.passed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tuttelab",
        description="Matchings, quantitative Tutte conditions, and balanced "
        "orientations on finite graph windows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", help="write the report here, not to stdout")

    def command(name, func, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("generate", _cmd_generate, "emit a graph or window")
    p.add_argument("--fixture", help="e.g. cycle(8), petersen, random_regular(10,3,1)")
    p.add_argument("--free-rank", type=int, dest="free_rank")
    p.add_argument("--cyclic-orders", dest="cyclic_orders",
                   help="comma-separated cyclic factor orders, e.g. 2,2,2")
    p.add_argument("--grid-dim", type=int, dest="grid_dim")
    p.add_argument("--radius", type=int)
    p.add_argument("--grandparent-depth", type=int, dest="grandparent_depth")
    p.add_argument("--points", type=int)
    p.add_argument("--perm", action="append", default=[],
                   help='generator in cycle notation, e.g. "0 1,2 3" (repeatable)')

    p = command("match", _cmd_match, "maximum matching of the input graph")
    p.add_argument("input")

    p = command("verify-tutte", _cmd_verify_tutte, "quantitative Tutte check")
    p.add_argument("input")
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-x", type=int, required=True, dest="max_x")

    p = command("expansion", _cmd_expansion, "edge-expansion estimate or lemma check")
    p.add_argument("input")
    p.add_argument("--max-f", type=int, dest="max_f", default=4)
    p.add_argument("--lemma", action="store_true",
                   help="check the regular-window expansion inequalities")
    p.add_argument("--degree", type=int)
    p.add_argument("--delta", type=_fraction)
    p.add_argument("--max-x", type=int, dest="max_x")

    p = command("layered", _cmd_layered, "run the layered matching construction")
    p.add_argument("input")
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--cert-max-x", type=int, dest="cert_max_x", default=4)

    p = command("orient", _cmd_orient, "balanced orientation of an even graph")
    p.add_argument("input")
    p.add_argument("--method", choices=["gadget", "euler"], default="euler")

    p = command("gadget-audit", _cmd_gadget_audit, "Hall-expansion audit of the gadget")
    p.add_argument("input")
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--max-f", type=int, dest="max_f", default=4)

    return parser


def _check_thread_cap() -> None:
    raw = os.environ.get("TUTTELAB_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"TUTTELAB_THREADS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise InputError("TUTTELAB_THREADS must be >= 1")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_thread_cap()
        text, passed = args.func(args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError(f"cannot write {args.output}: {exc}") from None
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except orientation.GadgetMatchingError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_PASS if passed else EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
