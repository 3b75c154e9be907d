"""Seeded benchmark of anonspread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/` of
that checkout.  With --trace 0 the run times rounds of trials for S seconds
and reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
times the same rounds with and without spans around the program's calls
and reports the per-layer metrics.  Either way it checks the program's
outputs (see checks.py), prints a summary on stderr and, as the last line
of stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
Results and spans are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from multiprocessing import get_context, resource_tracker

from checks import check_counts_repeat
from spans import Tracer, installed, pass_metrics
from workloads import WORKLOADS, build_graph, round_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 6  # fresh processes timing set-up, besides the run's own
POOL_PROBES = 3
BUILD_PROBES = 3
clock = time.perf_counter


def import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import anonspread
        from anonspread import adversary, cli, graph, harness
        from anonspread.spread import ProtocolParams
    except ImportError as e:
        raise SystemExit(f"cannot import anonspread from {src}: {e}")
    if not os.path.abspath(anonspread.__file__).startswith(src + os.sep):
        raise SystemExit(f"anonspread was imported from {anonspread.__file__}, not from {src}")
    return types.SimpleNamespace(adversary=adversary, cli=cli, graph=graph, harness=harness,
                                 ProtocolParams=ProtocolParams)


def timed_setup(workload, seed):
    """Import, inputs and files: everything before the first timed trial."""
    t0 = clock()
    api = import_program()
    state = workload.setup(api, seed, OUT_DIR)
    return api, state, clock() - t0


def cleanup(state):
    if "edge_list" in state:
        os.remove(state["edge_list"])


def setup_probe(workload, seed):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload.name,
           "--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def pool_start_s():
    t0 = clock()
    with get_context("spawn").Pool(2) as pool:
        pool.map(abs, range(2), chunksize=1)
    return clock() - t0


def stop_resource_tracker():
    """Spawn pools, ours and the program's, start multiprocessing's resource
    tracker, a process that would outlive this one; stop it and wait for it."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(values, q):
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)] if ranked else 0.0


def run_round(workload, api, state, seed, r, **kw):
    t0 = clock()
    rd = workload.run_round(api, state, round_seed(seed, r), **kw)
    rd.seconds = clock() - t0
    return rd


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0

    def add(self, rd):
        self.attempted += rd.attempted
        self.failed += rd.failed
        return rd


def fill_check_rounds(workload, api, state, seed, rounds, tally):
    """Untimed rounds until the checks have the sample they need."""
    r = len(rounds)
    while r < workload.min_check_rounds:
        rounds[r] = tally.add(run_round(workload, api, state, seed, r))
        r += 1


def timed_run(workload, api, state, seed, seconds, setup_s, tally):
    """Rounds for `seconds`.  The set-up probes run between rounds, spread
    over the run, so that their median follows the machine over the whole
    run; they are not part of the rounds' wall time."""
    setups = [setup_s]
    rounds, wall, done = {}, 0.0, 0
    start = clock()
    deadline = start + seconds
    while not rounds or clock() < deadline:
        if len(setups) <= SETUP_PROBES and clock() >= start + seconds * len(setups) / (SETUP_PROBES + 1):
            setups.append(setup_probe(workload, seed))
        rd = tally.add(run_round(workload, api, state, seed, len(rounds)))
        rounds[len(rounds)] = rd
        wall += rd.seconds
        done += rd.attempted - rd.failed
    while len(setups) <= SETUP_PROBES:
        setups.append(setup_probe(workload, seed))
    timed = len(rounds)
    fill_check_rounds(workload, api, state, seed, rounds, tally)
    failures = workload.check(api, state, seed, rounds)
    metrics = {
        "trials_per_s": done / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"timed_rounds": timed, "timed_s": wall, "setup_samples": setups,
            "round_s": [rounds[r].seconds for r in range(timed)]}
    return metrics, failures, info, []


COUNTS = ("spread.neighbor_queries", "spread.infected_nodes", "adversary.neighbor_queries",
          "adversary.candidates", "adversary.inconclusive", "harness.neighbor_queries")


def traced_run(workload, api, state, seed, seconds, tally):
    """Passes over the workload's first trace_rounds rounds, each round run
    untraced and then traced (and, for a pooled workload, on the pool),
    until `seconds` have passed."""
    pool_starts = [pool_start_s() for _ in range(POOL_PROBES)]
    builds = []
    if "graph" in state:
        for _ in range(BUILD_PROBES):
            t0 = clock()
            build_graph(api)
            builds.append(clock() - t0)
    passes, rounds = [], {}
    deadline = clock() + seconds
    while not passes or clock() < deadline:
        tracer, plain_s, traced_s, pooled_s = Tracer(), 0.0, 0.0, 0.0
        for r in range(workload.trace_rounds):
            rd = tally.add(run_round(workload, api, state, seed, r, workers=1))
            plain_s += rd.seconds
            with installed(tracer, api.harness, api.adversary):
                traced_s += tally.add(run_round(workload, api, state, seed, r, tracer=tracer,
                                                workers=1)).seconds
            if workload.pooled:
                rd = tally.add(run_round(workload, api, state, seed, r))
                pooled_s += rd.seconds
            rounds.setdefault(r, rd)
        passes.append((tracer, plain_s, traced_s, pooled_s))
    fill_check_rounds(workload, api, state, seed, rounds, tally)
    failures = workload.check(api, state, seed, rounds)

    per_pass, spread_us, adversary_us = [], [], []
    for tracer, *_ in passes:
        m, s_us, a_us = pass_metrics(tracer)
        per_pass.append(m)
        spread_us += s_us
        adversary_us += a_us
    failures += check_counts_repeat(per_pass, COUNTS)
    first = per_pass[0]

    def med(key):
        return statistics.median(m[key] for m in per_pass)

    loads = [t for m in per_pass for t in m["graph.load_s"]]
    metrics = {k: first[k] for k in COUNTS}
    metrics.update({
        "spread.self_s": med("spread.self_s"),
        "spread.call_p50_us": percentile(spread_us, 0.50),
        "spread.call_p99_us": percentile(spread_us, 0.99),
        "spread.spies_s": med("spread.spies_s"),
        "adversary.self_s": med("adversary.self_s"),
        "adversary.call_p50_us": percentile(adversary_us, 0.50),
        "adversary.call_p99_us": percentile(adversary_us, 0.99),
        "harness.trial_self_s": med("harness.trial_self_s"),
        "harness.aggregate_s": med("harness.aggregate_s"),
        "harness.pool_overhead_s": (statistics.median(p[3] - p[1] / workload.WORKERS for p in passes)
                                    if workload.pooled else 0.0),
        "harness.pool_start_s": statistics.median(pool_starts),
        "graph.build_s": statistics.median(builds) if builds else med("graph.tree_build_s"),
        "graph.load_s": statistics.median(loads) if loads else 0.0,
        "cli.self_s": med("cli.self_s"),
        "trace.overhead_pct": 100.0 * (statistics.median(p[2] for p in passes)
                                       / statistics.median(p[1] for p in passes) - 1.0),
    })
    info = {"passes": len(passes), "trace_rounds": workload.trace_rounds,
            "spread_calls": len(spread_us), "adversary_calls": len(adversary_us)}
    return metrics, failures, info, passes


def write_spans(path, passes):
    with open(path, "wt", encoding="utf-8") as fh:
        fh.write("pass,index,name,start_s,end_s,parent,neighbor_queries\n")
        for k, (tracer, *_) in enumerate(passes, 1):
            index = {id(s): i for i, s in enumerate(tracer.spans)}
            for i, s in enumerate(tracer.spans):
                fh.write(f"{k},{i},{s.name},{s.start:.9f},{s.end:.9f},"
                         f"{index.get(id(s.parent), -1)},{s.queries}\n")


def main(argv=None) -> int:
    try:
        return bench(argv)
    finally:
        stop_resource_tracker()


def bench(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)

    api, state, setup_s = timed_setup(workload, args.seed)
    if args.setup_probe:
        cleanup(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    tally = Tally()
    try:
        if args.trace:
            metrics, failures, info, passes = traced_run(workload, api, state, args.seed,
                                                         args.seconds, tally)
        else:
            metrics, failures, info, passes = timed_run(workload, api, state, args.seed,
                                                        args.seconds, setup_s, tally)
    finally:
        cleanup(state)
    if set(metrics) != {m["name"] for m in spec}:
        raise SystemExit(f"metrics {sorted(set(metrics) ^ {m['name'] for m in spec})} "
                         "do not match BENCHMARK.json")

    result = {
        "correct": not failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "wt", encoding="utf-8") as fh:
        json.dump({**result, "failures": failures, "info": info}, fh, indent=1)
    if passes:
        write_spans(stem + ".spans.csv", passes)

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {info}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for msg in failures:
        print(f"  CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
