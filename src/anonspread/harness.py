"""Monte Carlo experiment runner.

Wires (network, protocol, adversary) triples into seeded trials, aggregates
detection probability with confidence intervals, and joins the empirical
rows against the closed forms in `analysis`.  Trial i runs on the stream
default_rng(SeedSequence(seed, spawn_key=(i,))), so results are identical
no matter how trials are distributed over workers; its seeding is hashed a
block of trial indices at a time (_trial_rng).
"""

from __future__ import annotations

import csv
import math
import os
import threading
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from multiprocessing import get_context

import numpy as np

from . import adversary as adv
from . import analysis
from .graph import (
    ExplicitGraph,
    degree_distribution,
    from_edges,
    galton_watson_tree,
    grid,
    hop_distance,
    load_edge_list,
    path,
    regular_tree,
)
from .spread import (
    ALWAYS_PASS,
    ProtocolParams,
    _pick,
    assign_spies,
    observations_for,
    spread_adaptive,
    spread_diffusion,
    spread_grid,
    spread_paad,
    spread_polya_line,
    spread_tree_protocol,
)

SUMMARY_SCHEMA = "anonspread-summary v1"


# ---------------------------------------------------------------------------
# configuration and records


@dataclass
class ExperimentConfig:
    network: str = "regular-tree"  # a NETWORKS name
    d: int = 3
    degree_table: dict | None = None
    edge_list: str | None = None
    graph: ExplicitGraph | None = None  # pre-loaded explicit graph
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    adversary: str = "snapshot"
    p: float = 0.0
    trials: int = 1000
    seed: int = 0
    estimator_d0: int | None = None
    observe_T: int | None = None  # multi-snapshot observation time
    line_n: int = 101
    workers: int = 1
    output: str | None = None  # summary CSV, written by the CLI
    trial_output: str | None = None  # per-trial estimator records
    label: str = ""

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError("spy probability must lie in [0, 1)")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.line_n < 1:
            raise ValueError(f"line_n must be >= 1, got {self.line_n}")


class Registry(dict):
    """Name -> entry; an unknown name raises ValueError."""

    def __init__(self, what: str, entries: dict):
        super().__init__(entries)
        self.what = what

    def __missing__(self, name):
        raise ValueError(f"unknown {self.what} {name!r}")


# An option is a field of ExperimentConfig or of its ProtocolParams, named as
# the field is except for these two.  The `protocol` field itself is not an
# option: its fields are.
_OPTION_NAMES = {"horizon": "T", "kind": "protocol"}

# option name -> (ExperimentConfig or ProtocolParams, the dataclass field)
OPTIONS = Registry("option", {_OPTION_NAMES.get(f.name, f.name): (owner, f)
                              for owner in (ProtocolParams, ExperimentConfig) for f in fields(owner)
                              if f.name != "protocol"})


def with_options(cfg: ExperimentConfig, values: dict) -> ExperimentConfig:
    """cfg with each named option (an OPTIONS key) set to its value."""
    changes = {ExperimentConfig: {}, ProtocolParams: {}}
    for name, value in values.items():
        owner, f = OPTIONS[name]
        changes[owner][f.name] = value
    return replace(cfg, protocol=replace(cfg.protocol, **changes[ProtocolParams]),
                   **changes[ExperimentConfig])


@dataclass
class TrialRecord:
    index: int
    estimator: str
    v_hat: object
    n_candidates: int
    detected: int
    hop_distance: int | None
    n_infected: int
    inconclusive: int


@dataclass
class SummaryRow:
    label: str
    network: str
    protocol: str
    adversary: str
    p: float
    T: int
    trials: int
    detections: int
    p_hat: float
    ci_half: float
    mean_hops: float
    mean_n_infected: float
    inconclusive: int
    predicted: float | None = None
    pred_mode: str = ""
    flag: int = 0
    config: ExperimentConfig | None = field(default=None, repr=False, compare=False)  # the config the row ran


@dataclass
class ExperimentSummary:
    rows: list
    config: ExperimentConfig

    def row(self, i=0) -> SummaryRow:
        return self.rows[i]


# ---------------------------------------------------------------------------
# confidence intervals


def normal_ci_half(k: int, n: int, z: float = 1.96) -> float:
    if n == 0:
        return float("nan")
    ph = k / n
    return z * math.sqrt(max(ph * (1.0 - ph), 0.0) / n)


# ---------------------------------------------------------------------------
# per-trial machinery


STREAM_BLOCK = 1024  # trial streams hashed per pass; a power of two, so no block crosses index 2**32


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    """A new generator for trial `index`: its PCG64 state is that of
    default_rng(SeedSequence(entropy=seed, spawn_key=(index,))).  For a seed
    >= 0 and an index below 2**32 the state words come from the block of
    STREAM_BLOCK indices that holds `index` (_stream_block, which keeps the
    last block), so a run's trials share one hashing pass."""
    if 0 <= index < 1 << 32 and type(seed) is int and seed >= 0:
        block = _stream_block(seed, index // STREAM_BLOCK)
        return np.random.Generator(np.random.PCG64(_StreamSeed(block[index % STREAM_BLOCK])))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


class _StreamSeed:
    """Stands in for a SeedSequence whose generate_state(4, uint64), all
    that PCG64 asks of it, is `words`."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a trial stream's seed holds only PCG64's four uint64 words")
        return self.words


class _Hash:
    """SeedSequence's hashmix, over numpy uint32 arrays: the hash constant's
    sequence does not depend on the data, so one pass hashes every index of
    a block."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & 0xFFFFFFFF
        value = value * self.const
        return value ^ (value >> 16)


def _mix(x, y):
    r = x * 0xCA01F9DD - y * 0x4973F715
    return r ^ (r >> 16)


@lru_cache(maxsize=1)
def _stream_block(seed: int, block: int):
    """The PCG64 state words, as a (STREAM_BLOCK, 4) uint64 array, of the
    streams SeedSequence(entropy=seed, spawn_key=(i,)) for the indices i of
    `block`: numpy's entropy pool mixing and generate_state(4, uint64), with
    the index words as one column."""
    from numpy.random.bit_generator import ISeedSequence  # here: numpy.random loads at the first trial

    ISeedSequence.register(_StreamSeed)
    words = []  # the seed's 32-bit words, least significant first, padded to the pool size
    while seed or len(words) < 4:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
    start = block * STREAM_BLOCK
    entropy = np.empty((len(words) + 1, STREAM_BLOCK), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(start, start + STREAM_BLOCK, dtype=np.uint32)
    hashmix = _Hash(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _Hash(0x8B51F9DD, 0x58F38DED)
    state = np.empty((STREAM_BLOCK, 8), dtype=np.uint32)
    for k in range(8):
        state[:, k] = hashmix(pool[k % 4])
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    state.flags.writeable = False  # every stream of the block reads this one cached array
    return state


def _galton_watson(cfg: ExperimentConfig, rng, shared):
    if cfg.degree_table is None:
        raise ValueError("galton-watson network needs degree_table")
    return galton_watson_tree(cfg.degree_table, int(rng.integers(2**62))), 0


_thread_trees = threading.local()  # .by_degree: d -> this thread's regular tree


def _thread_tree(d: int):
    """The calling thread's d-regular tree, built at its first use and then
    kept, so that its ball memo serves every later run of that degree in
    the thread; forked pool workers inherit it, filled."""
    trees = vars(_thread_trees).setdefault("by_degree", {})
    if d not in trees:
        trees[d] = regular_tree(d)
    return trees[d]


def shared_network(cfg: ExperimentConfig):
    """The network that every trial of cfg runs on: the explicit graph or
    the line 0..line_n+1, built once per experiment, or the calling
    thread's regular tree of degree d (_thread_tree).  None for networks
    drawn per trial."""
    if cfg.network == "regular-tree":
        return _thread_tree(cfg.d)
    if cfg.network == "line":
        return from_edges((v, v + 1) for v in range(cfg.line_n + 1))
    if cfg.network != "explicit":
        return None
    if cfg.graph is None and cfg.edge_list is None:
        raise ValueError("explicit network needs edge_list or graph")
    net = cfg.graph if cfg.graph is not None else load_edge_list(cfg.edge_list)
    if not net.n_nodes:
        raise ValueError("explicit network has no nodes")
    return net


def _spies(cfg: ExperimentConfig, snap, rng) -> list:
    return observations_for(snap, assign_spies(snap, cfg.p, int(rng.integers(2**62))))


# One entry per kind, keyed by the config names, for run_trial and the CLI.
# Entries look their callees up in this module's globals (and in `adv`) when
# called, so a wrapper put over one of those names sees every call.

# (cfg, rng, the shared_network) -> (network, source)
NETWORKS = Registry("network kind", {
    "regular-tree": lambda cfg, rng, shared: (shared, 0),
    "galton-watson": _galton_watson,
    "grid": lambda cfg, rng, shared: (grid(), (0, 0)),
    "explicit": lambda cfg, rng, shared: (shared, _pick(rng, shared.nodes())),
    "line": lambda cfg, rng, shared: (shared, int(rng.integers(1, cfg.line_n + 1))),
})

# (network, source, ProtocolParams, rng[, states]) -> InfectionSnapshot, where states = {t: None} for early
# horizons t, which the spread fills with the stream's state as it passes each (see spread._token_walk)
PROTOCOLS = Registry("protocol kind", {
    "adaptive": lambda *args: spread_adaptive(*args),
    "paad": lambda *args: spread_paad(*args),
    "tree-protocol": lambda *args: spread_tree_protocol(*args),
    "grid-adaptive": lambda *args: spread_grid(*args),
    "diffusion": lambda *args: spread_diffusion(*args),
    # the line runs until an end spy reports, whatever the horizon
    "polya-line": lambda net, source, params, rng, states=(): spread_polya_line(net.n_nodes - 2, source, rng,
                                                                                _states=states)[0],
})

# (cfg, network, snapshot, rng) -> Estimate; the spy kinds draw the spies first
ADVERSARIES = Registry("adversary kind", {
    "snapshot": lambda cfg, net, snap, rng: adv.estimate_snapshot_regular(snap, rng=rng),
    "irregular-ml": lambda cfg, net, snap, rng: adv.estimate_irregular_ml(
        net, snap, int(cfg.estimator_d0 or cfg.protocol.d0 or cfg.d), rng=rng),
    "map-leaf": lambda cfg, net, snap, rng: adv.estimate_map_leaf(net, snap, rng=rng),
    "paad-map": lambda cfg, net, snap, rng: adv.estimate_paad_map(net, snap, cfg.protocol.g, rng=rng),
    "multi-snapshot": lambda cfg, net, snap, rng: adv.estimate_multiple_snapshots(snap, cfg.observe_T, rng=rng),
    "first-spy": lambda cfg, net, snap, rng: adv.estimate_first_spy(_spies(cfg, snap, rng), rng=rng),
    "spy-ml": lambda cfg, net, snap, rng: adv.estimate_spy_ml(net, _spies(cfg, snap, rng), rng=rng),
    "spy-irregular": lambda cfg, net, snap, rng: adv.estimate_spy_irregular(net, _spies(cfg, snap, rng), rng=rng,
                                                                            time=snap.time),
    "spy-snapshot": lambda cfg, net, snap, rng: adv.estimate_spy_snapshot(snap, _spies(cfg, snap, rng),
                                                                          rng=rng),
    "line-ml": lambda cfg, net, snap, rng: adv.estimate_line_ml(snap.line_trace),
})

# What runs together (check_applies).  A protocol runs on the networks of its RUNS_ON row.  An adversary reads
# the spreads of its READS row, each a protocol kind or always-pass (adaptive with that policy, or d0=inf), on any
# network not in its NOT_ON row, at an even T if in EVEN_T; multi-snapshot needs an even observe_T below T.
NOT_GRID = ("regular-tree", "galton-watson", "explicit", "line")
RUNS_ON = Registry("protocol kind", {"adaptive": NOT_GRID, "paad": NOT_GRID, "tree-protocol": NOT_GRID,
                                     "grid-adaptive": ("grid",), "diffusion": NOT_GRID, "polya-line": ("line",)})
TOKEN_WALKS = ("adaptive", "always-pass", "paad", "tree-protocol", "grid-adaptive")
READS = Registry("adversary kind", {
    "snapshot": TOKEN_WALKS, "irregular-ml": TOKEN_WALKS[:4], "map-leaf": ("always-pass", "paad", "tree-protocol"),
    "paad-map": ("paad",), "multi-snapshot": TOKEN_WALKS, "first-spy": (*TOKEN_WALKS, "diffusion"),
    "spy-ml": ("tree-protocol",), "spy-irregular": ("tree-protocol",), "spy-snapshot": TOKEN_WALKS,
    "line-ml": ("polya-line",)})
NOT_ON = {"spy-snapshot": ("explicit",)}
EVEN_T = ("irregular-ml", "map-leaf", "spy-snapshot")


def check_applies(cfg: ExperimentConfig, subject: str | None = None) -> None:
    """Raise ValueError unless the table above runs cfg's protocol on its network and lets its adversary read
    that spread there; a subject (the `spread` command's) checks the protocol's row alone."""
    kind, network, adversary, T = cfg.protocol.kind, cfg.network, cfg.adversary, cfg.protocol.horizon
    spread = ALWAYS_PASS if kind == "adaptive" and cfg.protocol.alpha_policy == ALWAYS_PASS else kind
    NETWORKS[network]  # an unknown network raises here, as an unknown protocol or adversary does below
    rules = [(network in RUNS_ON[kind], f"{kind} runs only on {', '.join(RUNS_ON[kind])}")]
    if subject is None:
        rules += [(spread in READS[adversary], f"it reads only {', '.join(READS[adversary])} spreads"),
                  (network not in NOT_ON.get(adversary, ()), f"it reads no spread on {network}"),
                  (adversary not in EVEN_T or T % 2 == 0, f"it needs an even T, not {T}"),
                  (adversary != "multi-snapshot" or cfg.observe_T in range(0, T, 2),
                   f"it needs an even observe_T below T={T}, not {cfg.observe_T}")]
    for holds, reason in rules:
        if not holds:
            raise ValueError(f"{subject or adversary} does not apply to {kind} on {network}: {reason}")


def _hop(net, a, b):
    if a is None or b is None:
        return None
    if a == b:
        return 0
    if net.kind == "grid":  # grid snapshots hold (x, y) pairs
        return abs(a[0] - b[0]) + abs(a[1] - b[1])
    if not net.is_finite:  # lazy trees: walk the parent pointers
        return len(path(net, a, b)) - 1
    try:
        return hop_distance(net, a, b)
    except ValueError:  # a and b lie in different components
        return None


def _score(index: int, net, source, snap, est) -> TrialRecord:
    detected = int(not est.inconclusive and est.v_hat == source)
    hop = None if est.inconclusive else _hop(net, est.v_hat, source)
    return TrialRecord(index, est.kind, est.v_hat, est.tie_count, detected, hop,
                       snap.n_infected, int(est.inconclusive))


def run_trial(cfg: ExperimentConfig, index: int, shared=None, early=None) -> TrialRecord:
    """Build network -> spread -> estimate -> score, on the trial's own RNG
    stream.

    early = {horizon: (config, records)} names configs equal to cfg but for
    a smaller horizon (and their label and trial_output).  Their trial
    `index` runs on the way: one stream, one network and source draw and one
    spread to cfg's horizon, which stores the stream's state at each early
    horizon.  After cfg's own estimate, each early config estimates snap.at
    its horizon, or snap itself for the line, which ignores the horizon,
    from the state stored there; its record, the one its own run would
    give, is appended to its records."""
    rng = _trial_rng(cfg.seed, index)
    net, source = NETWORKS[cfg.network](cfg, rng, shared_network(cfg) if shared is None else shared)
    states = dict.fromkeys(early or ())
    snap = PROTOCOLS[cfg.protocol.kind](net, source, cfg.protocol, rng, states)
    record = _score(index, net, source, snap, ADVERSARIES[cfg.adversary](cfg, net, snap, rng))
    for t, (early_cfg, records) in (early or {}).items():
        rng.bit_generator.state = states[t]
        early_snap = snap if cfg.protocol.kind == "polya-line" else snap.at(t)
        records.append(_score(index, net, source, early_snap,
                              ADVERSARIES[early_cfg.adversary](early_cfg, net, early_snap, rng)))
    return record


_worker_graph = None  # set in each pool worker, at start-up, to its experiments' shared network


def _install_graph(graph):
    global _worker_graph
    _worker_graph = graph


def _start_pool(workers: int, graph):
    """A fork pool whose workers each hold `graph`, the shared network (None
    for networks built per trial): they inherit it, with the imported
    modules, from this process, so nothing is re-imported or pickled at
    start-up."""
    return get_context("fork").Pool(workers, initializer=_install_graph, initargs=(graph,))


def _group_records(group: list, indices, shared) -> list:
    """The records of trials `indices` of each config in group, a list of
    configs equal but for their horizon, label and trial_output: run_trial
    runs each trial to the largest horizon and scores the others on the
    way."""
    last = max(group, key=lambda cfg: cfg.protocol.horizon)
    early = {cfg.protocol.horizon: (cfg, []) for cfg in group if cfg.protocol.horizon < last.protocol.horizon}
    records = {last.protocol.horizon: [run_trial(last, i, shared, early or None) for i in indices]}
    records.update((T, recs) for T, (_, recs) in early.items())
    return [records[cfg.protocol.horizon] for cfg in group]


def _worker_batch(args):
    group, indices = args
    return _group_records(group, indices, _worker_graph)


def _batches(group: list, workers: int) -> list:
    """A group's trials in about workers * 4 (group, indices) batches per
    config for the pool, as many as its configs would take one by one."""
    group = [replace(cfg, graph=None) for cfg in group]  # the workers hold it; batches do not carry it
    indices = range(group[0].trials)
    chunk = max(1, len(indices) // (workers * 4 * len(group)))
    return [(group, indices[i:i + chunk]) for i in range(0, len(indices), chunk)]


def _records(cfg: ExperimentConfig, groups: list) -> list:
    """The trial records of each config of each group, in order, on cfg's
    shared network.  With workers > 1 they run on a pool started for this
    call, from one submission of every group's batches, so that it drains
    once."""
    for sub in (c for group in groups for c in group):
        check_applies(sub)
    shared = shared_network(cfg)
    if cfg.workers == 1:
        return [records for group in groups for records in _group_records(group, range(group[0].trials), shared)]
    per_group = [_batches(group, cfg.workers) for group in groups]
    with _start_pool(cfg.workers, shared) as pool:
        outs = iter(pool.map(_worker_batch, [b for batches in per_group for b in batches], chunksize=1))
        per_batch = [[next(outs) for _ in batches] for batches in per_group]
    return [[r for out in outs_of_group for r in out[j]]
            for group, outs_of_group in zip(groups, per_batch) for j in range(len(group))]


def _summarize(cfg: ExperimentConfig, records: list) -> ExperimentSummary:
    """Aggregate one config's records into its summary row (inconclusive
    trials count as non-detections but are reported separately) and write
    them to cfg.trial_output if set."""
    n = len(records)
    det = sum(r.detected for r in records)
    inconclusive = sum(r.inconclusive for r in records)
    hops = [r.hop_distance for r in records if r.hop_distance is not None]
    row = SummaryRow(
        label=cfg.label,
        network=cfg.network,
        protocol=cfg.protocol.kind,
        adversary=cfg.adversary,
        p=cfg.p,
        T=cfg.protocol.horizon,
        trials=n,
        detections=det,
        p_hat=det / n,
        ci_half=normal_ci_half(det, n),
        mean_hops=float(np.mean(hops)) if hops else float("nan"),
        mean_n_infected=float(np.mean([r.n_infected for r in records])),
        inconclusive=inconclusive,
        config=cfg,
    )
    if cfg.trial_output:
        with open(cfg.trial_output, "wt", encoding="utf-8") as fh:
            write_trial_csv(records, fh)
    return ExperimentSummary([row], cfg)


def run_experiment(cfg: ExperimentConfig) -> ExperimentSummary:
    """Run cfg.trials seeded trials and aggregate them into one summary row.
    With workers > 1 the trials run on a pool started for this call and
    closed on return."""
    return _summarize(cfg, _records(cfg, [[cfg]])[0])


def write_trial_csv(records, fh) -> None:
    fh.write("# anonspread-trials v1\n")
    writer = csv.writer(fh)
    writer.writerow(["trial", "estimator", "v_hat", "n_candidates", "detected",
                     "hop_distance", "n_infected", "inconclusive"])
    for r in records:
        writer.writerow([r.index, r.estimator, r.v_hat, r.n_candidates, r.detected,
                         "" if r.hop_distance is None else r.hop_distance,
                         r.n_infected, r.inconclusive])


# sweeping one of these changes the pool or the shared network, so each value gets its own
_PER_VALUE_SETUP = ("workers", "edge_list", "graph", "network", "d", "line_n")


def _value_path(path, label: str):
    """A sweep value's per-trial file: trials.csv -> trials.T=4.csv."""
    if not path:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}.{label.replace(os.sep, '_')}{ext}"


def sweep(cfg: ExperimentConfig, parameter: str, values) -> ExperimentSummary:
    """Run cfg once per value of the option `parameter` (see with_options)
    and stack the rows.

    The shared network is built once and, with workers > 1, one pool runs
    every value's trials from a single submission, unless the parameter
    changes the pool or the network (_PER_VALUE_SETUP); then each value is a
    run_experiment of its own.  A sweep over T runs each trial once, to the
    largest T, and scores every T on the way (run_trial).  Each value
    writes its per-trial records to its own file (_value_path), once every
    value's trials have run.
    """
    subs = []
    for v in values:
        sub = with_options(cfg, {parameter: v})
        # a degree table is labelled in its `3:0.5,4:0.5` form, not as a dict
        text = ",".join(f"{k}:{p}" for k, p in v.items()) if isinstance(v, dict) else v
        label = f"{cfg.label or parameter}={text}"
        subs.append(replace(sub, label=label, trial_output=_value_path(sub.trial_output, label)))
    if parameter in _PER_VALUE_SETUP:
        for sub in subs:  # each value runs on its own, so all are checked before the first runs
            check_applies(sub)
        return ExperimentSummary([run_experiment(sub).row() for sub in subs], cfg)
    records = _records(cfg, [subs] if parameter == "T" else [[sub] for sub in subs])
    return ExperimentSummary([_summarize(sub, recs).row() for sub, recs in zip(subs, records)], cfg)


# ---------------------------------------------------------------------------
# theory comparison


def _pd_uniform(cfg: ExperimentConfig):
    if cfg.protocol.horizon == 0:
        raise ValueError("pd_uniform needs T >= 1: at T=0 the source is the only infected node")
    return 1.0 / (analysis.n_regular(cfg.d, cfg.protocol.horizon) - 1), "match"


# quantity -> (a config) -> (value, mode), where mode is 'match' for
# equalities and 'upper-bound' or 'lower-bound' for bounds.  `--compare`
# reads each summary row's config, `predict` the one its flags give.
CLOSED_FORMS = Registry("quantity", {
    "pd_uniform": _pd_uniform,
    "pd_always_pass": lambda cfg: (analysis.pd_always_pass(cfg.d, analysis.n_regular(cfg.d, cfg.protocol.horizon)),
                                   "match"),
    "pd_snapshot_bound": lambda cfg: (analysis.pd_snapshot_bound(cfg.d, cfg.protocol.horizon), "upper-bound"),
    "pd_spy_adaptive": lambda cfg: (analysis.pd_spy_adaptive(cfg.d, cfg.p), "match"),
    "pd_spy_snapshot": lambda cfg: (analysis.pd_spy_snapshot(cfg.d, cfg.p, cfg.protocol.horizon), "match"),
    "pd_multiple_snapshots": lambda cfg: (analysis.pd_multiple_snapshots(cfg.d, cfg.observe_T or cfg.protocol.horizon),
                                          "match"),
    "grid_pd_bound": lambda cfg: (analysis.grid_predictions(cfg.protocol.horizon).pd_upper_bound, "upper-bound"),
    "line_bound": lambda cfg: (analysis.line_bound(cfg.line_n), "upper-bound"),
    "first_spy_floor": lambda cfg: (cfg.p, "lower-bound"),
})


def compare_with_theory(summary: ExperimentSummary, quantity: str, z: float = 3.0) -> ExperimentSummary:
    """Annotate rows with the named prediction and flag disagreements:
    matches must lie within z sigma, bounds must not be crossed by more than
    z sigma."""
    for row in summary.rows:
        value, mode = CLOSED_FORMS[quantity](row.config)
        row.predicted = value
        row.pred_mode = mode
        sigma = math.sqrt(max(value * (1 - value), 1e-12) / row.trials)
        if mode == "match":
            row.flag = int(abs(row.p_hat - value) > z * sigma)
        elif mode == "upper-bound":
            row.flag = int(row.p_hat > value + z * sigma)
        else:
            row.flag = int(row.p_hat < value - z * sigma)
    return summary


def write_summary_csv(summary: ExperimentSummary, fh) -> None:
    fh.write(f"# {SUMMARY_SCHEMA}\n")
    writer = csv.writer(fh)
    writer.writerow([
        "label", "network", "protocol", "adversary", "p", "T", "trials",
        "detections", "p_hat", "ci95_half", "mean_hops", "mean_n_infected",
        "inconclusive", "predicted", "pred_mode", "flag",
    ])
    for r in summary.rows:
        writer.writerow([
            r.label, r.network, r.protocol, r.adversary, r.p, r.T, r.trials,
            r.detections, f"{r.p_hat:.8g}", f"{r.ci_half:.8g}",
            f"{r.mean_hops:.8g}", f"{r.mean_n_infected:.8g}", r.inconclusive,
            "" if r.predicted is None else f"{r.predicted:.10g}", r.pred_mode, r.flag,
        ])


def default_output_dir() -> str:
    return os.environ.get("ANONSPREAD_OUTPUT_DIR", ".")


# ---------------------------------------------------------------------------
# fast Monte Carlo paths for infinite-horizon / deep-tree experiments


def spy_tree_detection_mc(d: int, p: float, trials: int, seed: int = 0):
    """Infinite-horizon tree-protocol + pivot-estimator detection on the
    d-regular tree, sampling only what the estimator depends on: the level
    of the first spine spy, and per level the number of spy-free side
    branches (each branch is spy-free with probability (1-p)^|branch|).

    Returns (detections, trials, mean candidate count).
    """
    if d <= 2:
        raise ValueError("needs d > 2")
    rng = np.random.default_rng(seed)
    detections = 0
    cand_total = 0.0
    for _ in range(trials):
        k = int(rng.geometric(p))  # level of the lowest spine spy
        candidates = None
        for j in range(1, k):
            tj = ((d - 1) ** j - 1) // (d - 2)
            clean_prob = (1.0 - p) ** tj
            x = int(rng.binomial(d - 2, clean_prob))
            if x < d - 2:  # some side branch of the level-j spine node is spied
                candidates = (x + 1) * (d - 1) ** (j - 1)
                break
        if candidates is None:
            candidates = (d - 1) ** (k - 1)
        cand_total += candidates
        if int(rng.integers(candidates)) == 0:
            detections += 1
    return detections, trials, cand_total / trials


MAX_EXTRA_EPOCHS = 200  # how far past T multi_snapshot_trial follows the token


def multi_snapshot_trial(net, T: int, rng):
    """One trial of the every-step-snapshot adversary on `net`, a regular
    tree: run the exact-schedule protocol to even T, then follow only the
    token (the infection past T is irrelevant to the estimator), with the
    protocol's keep probability and pick, until it moves once, and hand both
    to the estimator."""
    proto = ProtocolParams(kind="adaptive", horizon=T)
    snap = spread_adaptive(net, 0, proto, rng=rng)
    keep = proto.keep_probability(net)
    vs = snap.virtual_source
    prev = snap.vs_events[-2][1] if len(snap.vs_events) >= 2 else None
    h = snap.h_T
    te = T
    for _ in range(MAX_EXTRA_EPOCHS):
        if rng.random() >= keep(te, h):
            snap.vs_events.append((te + 2, _pick(rng, [w for w in net.neighbors(vs) if w != prev]), h + 1))
            break
        te += 2
    est = adv.estimate_multiple_snapshots(snap, T, rng=rng)
    detected = int(not est.inconclusive and est.v_hat == 0)
    return detected, est


def multi_snapshot_detection_mc(d: int, T: int, trials: int, seed: int = 0):
    """Detections, trials and inconclusive estimates of `trials`
    multi_snapshot_trial runs on the calling thread's d-regular tree
    (_thread_tree), whose ball memo serves them all."""
    rng = np.random.default_rng(seed)
    net = _thread_tree(d)
    det = 0
    inconclusive = 0
    for _ in range(trials):
        ok, est = multi_snapshot_trial(net, T, rng)
        det += ok
        inconclusive += int(est.inconclusive)
    return det, trials, inconclusive


def gw_map_detection_mc(dist, half_T: int, trials: int, seed: int = 0):
    """Always-pass spreading on random trees with the leaf-MAP adversary.

    Generates the spine from the source plus the hanging balanced branches
    level by level (integer degree-1 path products, so ties are exact), and
    counts how often the uniformly-picked minimal-product leaf is the
    source.  Returns (detections, trials, mean leaf count, mean conditional
    detection probability); the last is the per-snapshot hit probability
    1/(center degree * minimal product), an exact lower-variance estimate of
    the same detection probability.
    """
    if isinstance(dist, dict):
        dist = degree_distribution(dist)
    rng = np.random.default_rng(seed)
    support = np.array(dist.support, dtype=np.int64)
    probs = np.array(dist.probs, dtype=float)
    detections = 0
    leaves_total = 0.0
    cond_total = 0.0

    for _ in range(trials):
        spine = rng.choice(support, size=half_T + 1, p=probs)  # w_0 .. w_half
        # product of (deg-1) over w_{j+1}..w_{half-1}
        sp = np.ones(half_T, dtype=np.int64)
        for j in range(half_T - 2, -1, -1):
            sp[j] = sp[j + 1] * (spine[j + 1] - 1)
        source_prod = sp[0]

        leaf_prods = []
        # buckets[r] = products for cascade roots that may still grow r levels
        buckets: dict = {}

        def add(prods, depth_left):
            if len(prods) == 0:
                return
            if depth_left == 0:
                leaf_prods.append(np.asarray(prods, dtype=np.int64))
            else:
                buckets.setdefault(depth_left, []).append(np.asarray(prods, dtype=np.int64))

        for j in range(1, half_T):
            n_roots = int(spine[j]) - 2
            if n_roots > 0:
                root_prod = sp[j] * (spine[j] - 1)
                add(np.full(n_roots, root_prod, dtype=np.int64), j - 1)
        n_top = int(spine[half_T]) - 1
        if n_top > 0:
            add(np.full(n_top, 1, dtype=np.int64), half_T - 1)

        while buckets:
            depth_left = max(buckets)
            prods = np.concatenate(buckets.pop(depth_left))
            degs = rng.choice(support, size=prods.size, p=probs)
            child_prods = np.repeat(prods * (degs - 1), degs - 1)
            add(child_prods, depth_left - 1)

        all_prods = np.concatenate(leaf_prods) if leaf_prods else np.empty(0, dtype=np.int64)
        m = min(int(all_prods.min()), int(source_prod)) if all_prods.size else int(source_prod)
        ties = int((all_prods == m).sum()) + int(source_prod == m)
        leaves_total += all_prods.size + 1
        cond_total += 1.0 / (int(spine[half_T]) * m)
        if source_prod == m and int(rng.integers(ties)) == 0:
            detections += 1
    return detections, trials, leaves_total / trials, cond_total / trials
