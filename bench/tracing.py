"""Traced run: spans and counts recorded around the package's public functions.

Wrappers are installed from the benchmark's side only.  A function's name
is replaced in every tuttelab namespace that holds it: the defining
module, each module that imported it by name, and the package itself.  So
a call is traced whichever module makes it, and the wrapper records that
module as the call site (``api`` for the package namespace, which the
library workload calls through).

Each call of a wrapped function becomes a span: name, call site, start,
end, parent span and operation.  Spans stay in memory and are written out
when the run ends.  The hot bitmask kernels get call counters only, kept
per innermost enclosing span, so that calls made by different verifiers
stay apart.
Counts are read from arguments and return values (report candidates and
checked sets, vertex counts, text sizes), never from inside the package.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

from ops import subsets_up_to

LAYERS = ("generators", "core", "matching", "verifier", "layered", "orientation", "cli")

# Called once per candidate set: counted, never spanned.  Both take
# (masks, mask), and the counter wrapper relies on that fixed signature.
HOT = frozenset({"core.mask_components", "core.mask_is_connected"})
# Called per candidate too, and measured by no layer metric: left alone.
UNTRACED = frozenset({"core.mask_of", "core.vertices_of"})


def _deficiency_candidates(args, kwargs, result):
    max_x = args[1] if len(args) > 1 else kwargs["max_x"]
    return {"candidates": subsets_up_to(args[0].vertex_count, max_x)}


# Counts taken at the span boundary: name -> (args, kwargs, result) -> counts.
COUNTS = {
    "verifier.check_tutte_eps_k": lambda a, k, r: {"candidates": r.candidates},
    "verifier.verify_expansion_lemma": lambda a, k, r: {"candidates": r.candidates},
    "matching.tutte_berge_deficiency": _deficiency_candidates,
    "verifier.expansion_constant": lambda a, k, r: {"checked": r.checked},
    "orientation.check_gadget_hall_expansion":
        lambda a, k, r: {"checked": r.edge_side.checked + r.vertex_side.checked},
    "matching.max_matching": lambda a, k, r: {"vertices": a[0].vertex_count},
    "core.parse_window_text": lambda a, k, r: {"bytes": len(a[0])},
    "layered.run_layered_matching":
        lambda a, k, r: {"chosen_edges": sum(len(c.chosen_edges) for c in r.levels)},
}

NAME, SITE, START, END, PARENT, OP = range(6)


class Tracer:
    """Spans and counts of one traced stretch (set-up or one pass)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.within: Counter = Counter()  # (hot kernel, enclosing span) -> calls
        self.op = "setup"
        self._patched: list[tuple[object, str, object]] = []
        self._calls: dict[tuple[str, str], Counter] = {}

    def install(self, tl) -> None:
        modules = {name: getattr(tl, name) for name in LAYERS}
        targets = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(obj)
                    and f"{layer}.{attr}" not in UNTRACED
                ):
                    targets[obj] = f"{layer}.{attr}"
        for site, namespace in [("api", tl), *modules.items()]:
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in targets:
                    name = targets[obj]
                    wrap = self._counter if name in HOT else self._span
                    setattr(namespace, attr, wrap(name, site, obj))
                    self._patched.append((namespace, attr, obj))

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._patched):
            setattr(namespace, attr, obj)
        self._patched.clear()
        for (name, site), calls in self._calls.items():
            self.counts[f"{name}.calls@{site}"] += sum(calls.values())
            for within, n in calls.items():
                self.within[name, within] += n
        self._calls.clear()

    def _span(self, name, site, fn):
        spans, stack, counts, tracer = self.spans, self.stack, self.counts, self
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, site, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts[f"{name}.{key}@{site}"] += value
            return result

        return wrapper

    def _counter(self, name, site, fn):
        # Calls are keyed by the name of the innermost open span and folded
        # into the counts when the wrappers are removed.
        calls = self._calls.setdefault((name, site), Counter())
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(masks, mask):
            calls[spans[stack[-1]][NAME] if stack else ""] += 1
            return fn(masks, mask)

        return wrapper


class Summary:
    """Busy time, self time and counts of one tracer's spans."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        child = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child[record[PARENT]] += record[END] - record[START]
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)  # inclusive time per function
        self.busy: defaultdict = defaultdict(float)  # time per layer, nesting counted once
        self.self_time: defaultdict = defaultdict(float)  # per layer
        self.site_incl: defaultdict = defaultdict(float)  # (function, site) -> time
        self.site_calls: Counter = Counter()  # (function, site) -> calls
        self.top: defaultdict = defaultdict(float)  # operation -> time in top-level spans
        for i, record in enumerate(spans):
            name = record[NAME]
            layer = name.split(".", 1)[0]
            duration = record[END] - record[START]
            parent = record[PARENT]
            self.calls[name] += 1
            self.incl[name] += duration
            self.site_incl[name, record[SITE]] += duration
            self.site_calls[name, record[SITE]] += 1
            self.self_time[layer] += duration - child[i]
            if parent < 0:
                self.top[record[OP]] += duration
            if parent < 0 or spans[parent][NAME].split(".", 1)[0] != layer:
                self.busy[layer] += duration
        self.counts = tracer.counts
        self.within = tracer.within

    def count(self, key: str, site: str | None = None) -> int:
        """A count summed over call sites, or at one site."""
        if site is not None:
            return self.counts[f"{key}@{site}"]
        prefix = key + "@"
        return sum(v for k, v in self.counts.items() if k.startswith(prefix))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        c, t = self.count, self.incl
        checks = c("verifier.check_tutte_eps_k.candidates") + c(
            "verifier.verify_expansion_lemma.candidates")
        chosen = c("layered.run_layered_matching.chosen_edges")
        out = {
            "core.mask_components.calls": (c("core.mask_components.calls"), "count"),
            "core.mask_is_connected.calls": (c("core.mask_is_connected.calls"), "count"),
            "verifier.expansion_constant.connected_tests": (self.within[
                "core.mask_is_connected", "verifier.expansion_constant"], "count"),
            "verifier.check_tutte_eps_k.connected_tests": (self.within[
                "core.mask_is_connected", "verifier.check_tutte_eps_k"], "count"),
            "verifier.check_tutte_eps_k.calls": (self.calls["verifier.check_tutte_eps_k"], "count"),
            "verifier.check_tutte_eps_k.s": (t["verifier.check_tutte_eps_k"], "s"),
            "verifier.check_tutte_eps_k.candidates":
                (c("verifier.check_tutte_eps_k.candidates"), "count"),
            "verifier.verify_expansion_lemma.s": (t["verifier.verify_expansion_lemma"], "s"),
            "verifier.verify_expansion_lemma.candidates":
                (c("verifier.verify_expansion_lemma.candidates"), "count"),
            "verifier.components_per_candidate":
                (_ratio(c("core.mask_components.calls", "verifier"), checks), "ratio"),
            "matching.tutte_berge_deficiency.s": (t["matching.tutte_berge_deficiency"], "s"),
            "matching.tutte_berge_deficiency.candidates":
                (c("matching.tutte_berge_deficiency.candidates"), "count"),
            "verifier.expansion_constant.s": (t["verifier.expansion_constant"], "s"),
            "verifier.expansion_constant.checked":
                (c("verifier.expansion_constant.checked"), "count"),
            "orientation.check_gadget_hall_expansion.s":
                (t["orientation.check_gadget_hall_expansion"], "s"),
            "orientation.check_gadget_hall_expansion.checked":
                (c("orientation.check_gadget_hall_expansion.checked"), "count"),
            "matching.max_matching.calls": (self.calls["matching.max_matching"], "count"),
            "matching.max_matching.s": (t["matching.max_matching"], "s"),
            "matching.max_matching.vertices": (c("matching.max_matching.vertices"), "count"),
            "matching.has_perfect_matching.calls":
                (self.calls["matching.has_perfect_matching"], "count"),
            "layered.least_extendable_edge.calls":
                (self.calls["layered.least_extendable_edge"], "count"),
            "layered.least_extendable_edge.s": (t["layered.least_extendable_edge"], "s"),
            "matching.is_allowed_edge.calls": (self.calls["matching.is_allowed_edge"], "count"),
            "layered.allowed_tests_per_edge": (_ratio(
                self.site_calls["matching.is_allowed_edge", "layered"], chosen), "ratio"),
            "core.remove_window_vertices.calls":
                (self.calls["core.remove_window_vertices"], "count"),
            "core.remove_window_vertices.s": (t["core.remove_window_vertices"], "s"),
            "layered.build_nets.s": (t["layered.build_nets"], "s"),
            "layered.certificate_s": (
                self.site_incl["verifier.check_tutte_eps_k", "layered"]
                + self.site_incl["verifier.hull_report", "layered"], "s"),
            "verifier.hull_report.calls": (self.calls["verifier.hull_report"], "count"),
            "verifier.hull_report.s": (t["verifier.hull_report"], "s"),
            "matching.bipartite_max_matching.calls":
                (self.calls["matching.bipartite_max_matching"], "count"),
            "matching.bipartite_max_matching.s": (t["matching.bipartite_max_matching"], "s"),
            "orientation.build_gadget.s": (t["orientation.build_gadget"], "s"),
            "orientation.balanced_orientation_via_gadget.s":
                (t["orientation.balanced_orientation_via_gadget"], "s"),
            "orientation.eulerian_orientation.s": (t["orientation.eulerian_orientation"], "s"),
            "orientation.verify_balanced.s": (t["orientation.verify_balanced"], "s"),
            "core.parse_window_text.s": (t["core.parse_window_text"], "s"),
            "core.parse_window_text.bytes": (c("core.parse_window_text.bytes"), "B"),
            "cli.main.calls": (self.calls["cli.main"], "count"),
        }
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def write_spans(path, meta: dict, tracers: dict[str, Tracer]) -> None:
    """Write every span as JSON (gzip), grouped by traced stretch."""
    doc = dict(meta)
    doc["fields"] = ["name", "site", "start", "end", "parent", "op"]
    doc["stretches"] = {label: t.spans for label, t in tracers.items()}
    doc["counts"] = {label: dict(t.counts) for label, t in tracers.items()}
    doc["within"] = {label: [[kernel, span, n] for (kernel, span), n in t.within.items()]
                     for label, t in tracers.items()}
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
