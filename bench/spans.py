"""In-memory spans around the program's public calls, for the traced run.

The wrappers sit where the harness looks its callees up: the `spread_*`
functions and the spy helpers in the harness namespace, every
`adversary.estimate_*`, and `harness.run_trial` / `run_experiment`.  A span
records its name, start, end and the span that was open when it began.
A counting wrapper on a network's `neighbors` charges each query to the
innermost open span.  Nothing here runs unless a `Tracer` is installed, so
the timed runs measure the program untouched.
"""

from __future__ import annotations

import time

SPY_CALLS = ("assign_spies", "observations_for")


class Span:
    __slots__ = ("name", "start", "end", "parent", "queries", "value", "flag")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.queries = 0
        self.value = 0  # infected nodes (spread) or candidates (adversary)
        self.flag = 0  # inconclusive estimate


class Tracer:
    """Spans of one traced pass.  The root span collects queries made
    outside any wrapped call."""

    def __init__(self):
        self.root = Span("root", None)
        self.spans: list = []
        self.stack = [self.root]

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1])
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_result is not None:
                on_result(span, out)
            return out

        return traced

    def count_neighbors(self, net):
        """Make `net.neighbors` charge each call to the innermost open span."""
        inner, stack = net.neighbors, self.stack

        def neighbors(v):
            stack[-1].queries += 1
            return inner(v)

        net.neighbors = neighbors
        return net


def _spread_result(span, out):
    snap = out[0] if isinstance(out, tuple) else out
    span.value = snap.n_infected


def _estimate_result(span, est):
    span.value = len(est.candidates)
    span.flag = int(est.inconclusive)


class installed:
    """Context manager that puts a tracer's wrappers into the program's
    modules and restores the originals on exit."""

    def __init__(self, tracer, harness, adversary):
        self.patches = []
        for name in dir(harness):
            if name.startswith("spread_"):
                self._patch(harness, name, tracer.wrap(f"spread.{name}", getattr(harness, name),
                                                       _spread_result))
            elif name in SPY_CALLS:
                self._patch(harness, name, tracer.wrap(f"spread.{name}", getattr(harness, name)))
        for name in dir(adversary):
            if name.startswith("estimate_"):
                self._patch(adversary, name, tracer.wrap(f"adversary.{name}", getattr(adversary, name),
                                                         _estimate_result))
        for name in ("run_trial", "run_experiment"):
            self._patch(harness, name, tracer.wrap(f"harness.{name}", getattr(harness, name)))
        # lazy trees are built per trial and explicit graphs per experiment;
        # both come back with counted neighbor queries
        for name in ("regular_tree", "load_edge_list"):
            build = tracer.wrap(f"graph.{name}", getattr(harness, name))
            self._patch(harness, name, lambda *a, _b=build, **k: tracer.count_neighbors(_b(*a, **k)))

    def _patch(self, module, name, value):
        self.patches.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self.patches):
            setattr(module, name, original)
        return False


def _self_times(spans):
    child = {}
    for s in spans:
        child[id(s.parent)] = child.get(id(s.parent), 0.0) + (s.end - s.start)
    return {id(s): (s.end - s.start) - child.get(id(s), 0.0) for s in spans}


def pass_metrics(tracer) -> tuple:
    """Per-layer sums over one traced pass (times in s, counts as counts),
    plus the raw call durations used for the percentiles."""
    spans = tracer.spans
    self_t = _self_times(spans)
    m = {
        "spread.self_s": 0.0, "spread.neighbor_queries": 0, "spread.spies_s": 0.0,
        "spread.infected_nodes": 0, "adversary.self_s": 0.0, "adversary.neighbor_queries": 0,
        "adversary.candidates": 0, "adversary.inconclusive": 0, "harness.trial_self_s": 0.0,
        "harness.neighbor_queries": 0, "harness.aggregate_s": 0.0, "graph.tree_build_s": 0.0,
        "graph.load_s": [], "cli.self_s": 0.0,
    }
    spread_us, adversary_us = [], []
    for s in spans:
        layer, _, call = s.name.partition(".")
        dur = s.end - s.start
        if layer == "spread" and call in SPY_CALLS:
            m["spread.spies_s"] += self_t[id(s)]
            m["spread.neighbor_queries"] += s.queries
        elif layer == "spread":
            m["spread.self_s"] += self_t[id(s)]
            m["spread.neighbor_queries"] += s.queries
            m["spread.infected_nodes"] += s.value
            spread_us.append(dur * 1e6)
        elif layer == "adversary":
            m["adversary.self_s"] += self_t[id(s)]
            m["adversary.neighbor_queries"] += s.queries
            m["adversary.candidates"] += s.value
            m["adversary.inconclusive"] += s.flag
            adversary_us.append(dur * 1e6)
        elif s.name == "harness.run_trial":
            m["harness.trial_self_s"] += self_t[id(s)]
            m["harness.neighbor_queries"] += s.queries
        elif s.name == "harness.run_experiment":
            m["harness.aggregate_s"] += self_t[id(s)]
            m["harness.neighbor_queries"] += s.queries
        elif s.name == "graph.regular_tree":
            m["graph.tree_build_s"] += dur
        elif s.name == "graph.load_edge_list":
            m["graph.load_s"].append(dur)
        elif s.name == "cli.main":
            m["cli.self_s"] += self_t[id(s)]
    return m, spread_us, adversary_us
