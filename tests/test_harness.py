import io
import random
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from anonspread.analysis import line_bound, n_regular, pd_spy_adaptive
from anonspread.graph import degree_distribution, galton_watson_tree, regular_tree
from anonspread.harness import (
    ADVERSARIES,
    EVEN_T,
    NETWORKS,
    NOT_ON,
    PROTOCOLS,
    READS,
    RUNS_ON,
    STREAM_BLOCK,
    ExperimentConfig,
    ExperimentSummary,
    _trial_rng,
    compare_with_theory,
    gw_map_detection_mc,
    multi_snapshot_detection_mc,
    normal_ci_half,
    run_experiment,
    run_trial,
    shared_network,
    spy_tree_detection_mc,
    sweep,
    with_options,
    write_trial_csv,
)
from anonspread.spread import ProtocolParams, assign_spies, observations_for, spread_adaptive, spread_tree_protocol
from anonspread.adversary import estimate_map_leaf, estimate_spy_ml
from helpers import summary_csv_text


@pytest.fixture
def tree_builds(monkeypatch):
    """Start the calling thread with no regular trees, and list the degree
    of every tree the harness builds from then on."""
    from anonspread import harness

    monkeypatch.setattr(harness, "_thread_trees", threading.local())
    built = []
    real = harness.regular_tree
    monkeypatch.setattr(harness, "regular_tree", lambda d: built.append(d) or real(d))
    return built


def fresh_tree_text(cfg):
    """The per-trial CSV of cfg's trials, each on a regular tree of its own."""
    buf = io.StringIO()
    write_trial_csv([run_trial(cfg, i, regular_tree(cfg.d)) for i in range(cfg.trials)], buf)
    return buf.getvalue()


def small_cfg(**kw):
    base = dict(
        network="regular-tree",
        d=3,
        protocol=ProtocolParams(horizon=4),
        adversary="snapshot",
        trials=400,
        seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunner:
    def test_reproducible_csv(self):
        a = summary_csv_text(run_experiment(small_cfg()))
        b = summary_csv_text(run_experiment(small_cfg()))
        assert a == b

    def test_worker_count_does_not_change_results(self):
        serial = summary_csv_text(run_experiment(small_cfg(trials=120)))
        pooled = summary_csv_text(run_experiment(small_cfg(trials=120, workers=2)))
        assert serial == pooled

    def test_detection_accounting(self):
        s = run_experiment(small_cfg(trials=2000))
        row = s.row()
        assert row.trials == 2000
        assert row.p_hat == row.detections / row.trials
        assert row.mean_n_infected == pytest.approx(n_regular(3, 4))
        assert row.inconclusive == 0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            small_cfg(trials=0)
        with pytest.raises(ValueError):
            small_cfg(p=1.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            small_cfg(seed=-1)

    def test_sweep_labels_rows(self):
        s = sweep(small_cfg(trials=50), "T", [2, 4])
        assert len(s.rows) == 2
        assert s.rows[0].T == 2 and s.rows[1].T == 4

    def test_compare_match_and_bound(self):
        s = run_experiment(small_cfg(trials=3000))
        compare_with_theory(s, "pd_uniform")
        assert s.row().flag == 0
        compare_with_theory(s, "pd_snapshot_bound")
        assert s.row().pred_mode == "upper-bound"
        assert s.row().flag == 0

    def test_compare_flags_wrong_prediction(self):
        s = run_experiment(small_cfg(trials=3000))
        s.config.d = 7  # predictions for the wrong tree must get flagged
        compare_with_theory(s, "pd_uniform")
        assert s.row().flag == 1

    def test_each_rows_prediction_reads_its_own_config(self):
        line = ExperimentConfig(network="line", protocol=ProtocolParams(kind="polya-line"), adversary="line-ml",
                                trials=20, seed=1)
        rows = compare_with_theory(sweep(line, "line_n", [11, 401]), "line_bound").rows
        assert [r.predicted for r in rows] == [line_bound(11), line_bound(401)]
        rows = compare_with_theory(sweep(small_cfg(trials=20), "d", [3, 4]), "pd_uniform").rows
        assert [r.predicted for r in rows] == [1 / (n_regular(d, 4) - 1) for d in (3, 4)]

    def test_sweep_over_a_protocol_field(self):
        def cfg(**kw):
            return small_cfg(network="galton-watson", degree_table={2: 0.3, 3: 0.4, 5: 0.3},
                             protocol=ProtocolParams(kind="paad", horizon=6, **kw), adversary="paad-map",
                             trials=150)

        rows = sweep(cfg(), "g", [1, 2]).rows
        assert [r.label for r in rows] == ["g=1", "g=2"]
        assert rows[0].mean_n_infected != rows[1].mean_n_infected  # g reaches the spread
        for g, row in zip([1, 2], rows):
            expected = run_experiment(cfg(g=g)).row()
            assert (row.detections, row.mean_hops, row.mean_n_infected) == (
                expected.detections, expected.mean_hops, expected.mean_n_infected)

    def test_trial_records_and_wilson(self, tmp_path):
        trials = tmp_path / "trials.csv"
        s = run_experiment(small_cfg(trials=50, trial_output=str(trials)))
        lines = trials.read_text().strip().splitlines()
        assert lines[0] == "# anonspread-trials v1"
        assert len(lines) == 52
        assert "detected" in lines[1]
        assert s.row().ci_half > 0

    def test_paad_map_scores_with_the_protocols_g(self):
        # paad-map weighs hand-offs by the spread's own g; replay each trial
        # on its RNG stream and score it with g=2 by hand
        import copy

        from anonspread.adversary import estimate_paad_map
        from anonspread.spread import spread_paad

        table = {2: 0.3, 3: 0.4, 5: 0.3}
        proto = ProtocolParams(kind="paad", g=2, horizon=4)
        cfg = small_cfg(network="galton-watson", degree_table=table, protocol=proto,
                        adversary="paad-map", trials=30)
        differs = 0
        for i in range(cfg.trials):
            rng = _trial_rng(cfg.seed, i)
            net = galton_watson_tree(table, int(rng.integers(2**62)))
            snap = spread_paad(net, 0, proto, rng=rng)
            with_g1 = estimate_paad_map(net, snap, 1, rng=copy.deepcopy(rng))
            est = estimate_paad_map(net, snap, 2, rng=rng)
            record = run_trial(cfg, i)
            assert (record.v_hat, record.n_candidates) == (est.v_hat, est.tie_count)
            differs += with_g1.scores != est.scores
        assert differs  # g=1 would have scored these trials differently

    def test_hop_distance_errors_are_not_swallowed(self):
        from anonspread.graph import from_edges
        from anonspread.harness import _hop

        g = from_edges([(0, 1), (1, 2), (5, 6)])
        assert _hop(g, 0, 2) == 2
        assert _hop(g, 0, 6) is None  # different components
        with pytest.raises(KeyError):
            _hop(g, 99, 0)  # not a node of the graph


class TestSharedTree:
    """Each thread builds one regular tree per degree, at its first use, and
    every later experiment, sweep and bare trial of that degree in the
    thread shares the balls that the tree's memo keeps."""

    def test_experiments_and_bare_trials_share_one_tree_per_degree(self, tree_builds, tmp_path):
        runs = []
        for k, d in enumerate([3, 4, 3, 4]):
            cfg = small_cfg(d=d, trials=50, seed=7 + k // 2, trial_output=str(tmp_path / f"run{k}.csv"))
            run_experiment(cfg)
            runs.append((cfg, (tmp_path / f"run{k}.csv").read_bytes().decode()))
        bare = {d: [run_trial(small_cfg(d=d), i) for i in range(50)] for d in (3, 4)}
        assert tree_builds == [3, 4]
        for cfg, text in runs:
            assert text == fresh_tree_text(cfg)
        for d, records in bare.items():
            assert records == [run_trial(small_cfg(d=d), i, regular_tree(d)) for i in range(50)]

    def test_each_thread_has_its_own_trees(self, tree_builds):
        cfg = small_cfg(protocol=ProtocolParams(horizon=6), trials=40)
        out = {}

        def run(k):
            out[k] = (shared_network(cfg), [run_trial(cfg, i) for i in range(cfg.trials)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the spreads
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]  # more threads than cores
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and sorted(out) == [0, 1, 2, 3]
        trees = [tree for tree, _ in out.values()]
        assert len({id(tree) for tree in trees}) == 4 and tree_builds == [3] * 4
        assert shared_network(cfg) not in trees  # this thread's own, built now
        expected = [run_trial(cfg, i, regular_tree(3)) for i in range(cfg.trials)]
        assert all(records == expected for _, records in out.values())

    def test_a_pool_forked_with_a_filled_memo_gives_the_serial_records(self, tree_builds, tmp_path):
        cfg = small_cfg(protocol=ProtocolParams(horizon=6), trials=200, seed=12)
        run_experiment(replace(cfg, seed=11))  # fills this thread's d=3 memo
        assert len(shared_network(cfg).memo) > 0
        pooled = replace(cfg, workers=2, trial_output=str(tmp_path / "pooled.csv"))
        run_experiment(pooled)
        assert tree_builds == [3]
        assert (tmp_path / "pooled.csv").read_bytes().decode() == fresh_tree_text(cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_over_d_runs_each_value_on_its_own_tree(self, workers):
        # rows of the commit before trees were shared between trials
        cfg = small_cfg(protocol=ProtocolParams(horizon=6), trials=300, seed=4, workers=workers)
        rows = sweep(cfg, "d", [3, 4]).rows
        assert [(r.label, r.detections, r.mean_hops, r.mean_n_infected) for r in rows] == [
            ("d=3", 8, 3.98, 22.0), ("d=4", 4, 4.72, 53.0)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_over_line_n_runs_each_value_on_its_own_line(self, workers):
        cfg = ExperimentConfig(network="line", protocol=ProtocolParams(kind="polya-line"), adversary="line-ml",
                               trials=200, seed=4, workers=workers)
        for row, n in zip(sweep(cfg, "line_n", [11, 41]).rows, (11, 41)):
            expected = run_experiment(replace(cfg, line_n=n, workers=1)).row()
            assert (row.detections, row.mean_hops, row.mean_n_infected) == (
                expected.detections, expected.mean_hops, expected.mean_n_infected)


def _write_edge_list(path, g):
    with open(path, "w") as fh:
        for u, nbrs in g.adj.items():
            fh.writelines(f"{u} {w}\n" for w in nbrs if u < w)
    return str(path)


def _heavy_tail(n=1500, m=5, seed=5):
    from anonspread.graph import prune_min_degree, synthetic_heavy_tail

    return prune_min_degree(synthetic_heavy_tail(n, m, seed=seed), 3)


def graph_cfg(edge_list, **kw):
    base = dict(network="explicit", edge_list=edge_list,
                protocol=ProtocolParams(kind="adaptive", d0=float("inf"), horizon=4),
                adversary="irregular-ml", trials=60, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


def _bfs_distance(g, a, b):
    dist = {a: 0}
    frontier = [a]
    while frontier and b not in dist:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist.get(b)


class TestNodeOrder:
    def test_edge_list_order_does_not_change_trials(self, tmp_path):
        # run_trial draws the source by position in nodes(); reloading the
        # graph from a file that lists it in another order changes no trial
        from anonspread.graph import load_edge_list

        g = _heavy_tail()
        path = tmp_path / "reversed.edges"
        lines = [f"{w} {u}\n" for u, nbrs in g.adj.items() for w in nbrs if u < w]
        path.write_text("".join(reversed(lines)))
        loaded = load_edge_list(str(path))
        assert loaded.adj == g.adj
        cfg = graph_cfg(str(path), seed=5, trials=300)
        in_memory = [run_trial(cfg, i, g) for i in range(cfg.trials)]
        assert in_memory == [run_trial(cfg, i, loaded) for i in range(cfg.trials)]


class TestPooledSweep:
    def test_pooled_sweep_matches_serial(self, tmp_path):
        edges = _write_edge_list(tmp_path / "g.edges", _heavy_tail())
        serial = summary_csv_text(sweep(graph_cfg(edges), "T", [4, 6]))
        pooled = summary_csv_text(sweep(graph_cfg(edges, workers=2), "T", [4, 6]))
        assert serial == pooled
        assert serial.count("\n") == 4  # header lines and one row per value

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_over_trials_runs_each_values_count(self, workers, tmp_path):
        out = tmp_path / "trials.csv"
        s = sweep(small_cfg(trials=100, workers=workers, trial_output=str(out)), "trials", [3, 5])
        assert [row.trials for row in s.rows] == [3, 5]
        for row in s.rows:
            lines = (tmp_path / f"trials.{row.label}.csv").read_text().splitlines()
            assert len(lines) == 2 + row.trials  # two header lines and one line per trial

    def test_sweep_starts_one_pool(self, tmp_path, monkeypatch):
        from anonspread import harness

        edges = _write_edge_list(tmp_path / "g.edges", _heavy_tail(300, 3))
        started, loads = [], []
        real_start, real_load = harness._start_pool, harness.load_edge_list

        def counting_start(workers, graph):
            started.append(graph)
            return real_start(workers, graph)

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(harness, "_start_pool", counting_start)
        monkeypatch.setattr(harness, "load_edge_list", counting_load)
        s = sweep(graph_cfg(edges, workers=2, trials=20), "T", [2, 4, 6])
        assert len(s.rows) == 3
        assert len(started) == 1 and started[0] is not None  # the graph went to the workers
        assert loads == [edges]  # loaded once, in this process

        started.clear()
        run_experiment(graph_cfg(edges, workers=2, trials=20))
        assert len(started) == 1  # a direct call starts its own

    def test_pooled_sweep_is_one_submission(self, tmp_path, monkeypatch):
        # every value's batches go to the pool in one call; rows and
        # per-value trial files equal the serial sweep's
        from anonspread import harness

        edges = _write_edge_list(tmp_path / "g.edges", _heavy_tail(300, 3))
        submissions = []
        real_start = harness._start_pool

        def counted(name, submit):
            def call(*args, **kwargs):
                submissions.append(name)
                return submit(*args, **kwargs)

            return call

        def counting_start(workers, graph):
            pool = real_start(workers, graph)
            for name in ("apply", "apply_async", "map", "map_async", "imap", "imap_unordered",
                         "starmap", "starmap_async"):
                setattr(pool, name, counted(name, getattr(pool, name)))
            return pool

        monkeypatch.setattr(harness, "_start_pool", counting_start)
        pooled = sweep(graph_cfg(edges, workers=2, trials=40, trial_output=str(tmp_path / "pool.csv")),
                       "T", [2, 4, 6])
        assert len(submissions) == 1

        serial = sweep(graph_cfg(edges, trials=40, trial_output=str(tmp_path / "serial.csv")),
                       "T", [2, 4, 6])
        assert summary_csv_text(pooled) == summary_csv_text(serial)
        for row in serial.rows:
            assert ((tmp_path / f"pool.{row.label}.csv").read_text()
                    == (tmp_path / f"serial.{row.label}.csv").read_text())

    def test_sweep_over_workers(self, tmp_path):
        edges = _write_edge_list(tmp_path / "g.edges", _heavy_tail(300, 3))
        rows = sweep(graph_cfg(edges), "workers", [1, 2]).rows
        expected = run_experiment(graph_cfg(edges)).row()
        for row in rows:
            assert (row.detections, row.mean_hops, row.mean_n_infected) == (
                expected.detections, expected.mean_hops, expected.mean_n_infected)
        assert [r.label for r in rows] == ["workers=1", "workers=2"]

    def test_sweep_over_edge_lists(self, tmp_path):
        files = [_write_edge_list(tmp_path / "a.edges", _heavy_tail(300, 3)),
                 _write_edge_list(tmp_path / "b.edges", _heavy_tail(500, 4, seed=1))]
        rows = sweep(graph_cfg(files[0], workers=2), "edge_list", files).rows
        for path, row in zip(files, rows):
            expected = run_experiment(graph_cfg(path)).row()
            assert (row.detections, row.mean_hops, row.mean_n_infected) == (
                expected.detections, expected.mean_hops, expected.mean_n_infected)
        assert rows[0].mean_n_infected != rows[1].mean_n_infected

    def test_sweep_writes_each_values_trials(self, tmp_path):
        out = tmp_path / "trials.csv"
        s = sweep(small_cfg(trials=5, trial_output=str(out)), "T", [2, 4])
        assert not out.exists()
        for row in s.rows:
            lines = (tmp_path / f"trials.{row.label}.csv").read_text().strip().splitlines()
            assert len(lines) == 2 + row.trials
            n_infected = {int(line.split(",")[6]) for line in lines[2:]}
            assert n_infected == {n_regular(3, row.T)}


SWEEP_NETWORKS = {
    "regular-tree": dict(network="regular-tree", d=3),
    "galton-watson": dict(network="galton-watson", degree_table={2: 0.3, 3: 0.4, 5: 0.3}),
    "explicit": dict(network="explicit"),
    "grid": dict(network="grid"),
    "line": dict(network="line"),
}
SWEEP_PROTOCOLS = {
    "adaptive": dict(kind="adaptive", d0=3),
    "always-pass": dict(kind="adaptive", d0=float("inf")),
    "capped": dict(kind="adaptive", d0=3, fanout_cap=2),
    "paad": dict(kind="paad", g=1),
    "tree-protocol": dict(kind="tree-protocol"),
    "grid-adaptive": dict(kind="grid-adaptive"),
    "diffusion": dict(kind="diffusion", q=0.4),
    "flooding": dict(kind="diffusion", q=1.0),
    "polya-line": dict(kind="polya-line"),
}


def test_tables_name_only_registered_kinds():
    # a kind deleted from a registry leaves no row, and no name in a row, behind it
    assert set(RUNS_ON) == set(PROTOCOLS)
    assert set(READS) == set(ADVERSARIES)
    assert all(set(kinds) <= {*PROTOCOLS, "always-pass"} for kinds in READS.values()), READS
    assert all(set(networks) <= set(NETWORKS) for networks in (*RUNS_ON.values(), *NOT_ON.values()))
    assert set(NOT_ON) | set(EVEN_T) <= set(ADVERSARIES)


def declared(network, protocol, adversary, T=None, observe_T=None):
    """Whether the table in harness lets adversary read protocol's spread on
    network (at horizon T and observe_T, when T is given)."""
    params = ProtocolParams(**SWEEP_PROTOCOLS[protocol])
    spread = "always-pass" if params.kind == "adaptive" and params.alpha_policy == "always-pass" else params.kind
    if network not in RUNS_ON[params.kind] or spread not in READS[adversary] or network in NOT_ON.get(adversary, ()):
        return False
    return T is None or ((adversary not in EVEN_T or T % 2 == 0)
                         and (adversary != "multi-snapshot" or observe_T is not None and 0 <= observe_T < T
                              and observe_T % 2 == 0))


# the pairs the table runs
RUNNING_PAIRS = [(n, p) for n in sorted(SWEEP_NETWORKS) for p in sorted(SWEEP_PROTOCOLS)
                 if n in RUNS_ON[SWEEP_PROTOCOLS[p]["kind"]]]


def test_every_spread_stores_the_stream_state_at_each_early_horizon():
    """Each registered protocol, on each network of its RUNS_ON row, fills
    every early horizon of the states it is given; a spread that skipped
    one would leave run_trial no stream to score that horizon from."""
    graph = _heavy_tail(300, 3)
    T = 6
    for network, protocol in RUNNING_PAIRS:
        fields = dict(SWEEP_NETWORKS[network], graph=graph) if network == "explicit" else SWEEP_NETWORKS[network]
        cfg = ExperimentConfig(**fields, protocol=ProtocolParams(horizon=T, **SWEEP_PROTOCOLS[protocol]), line_n=9)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            net, source = NETWORKS[network](cfg, rng, shared_network(cfg))
            states = dict.fromkeys(range(T))
            PROTOCOLS[cfg.protocol.kind](net, source, cfg.protocol, rng, states)
            assert None not in states.values(), (network, protocol, seed)
    assert {SWEEP_PROTOCOLS[p]["kind"] for _, p in RUNNING_PAIRS} == set(PROTOCOLS)


def test_tree_protocol_at_T_1_centers_on_the_first_holder():
    """At T=1 the infected nodes are the source and the first holder, the
    center, so the snapshot adversary names the source every time, on the
    tree protocol as on adaptive diffusion."""
    for kind in ("tree-protocol", "adaptive"):
        cfg = ExperimentConfig(network="regular-tree", d=3, protocol=ProtocolParams(kind=kind, horizon=1),
                               adversary="snapshot", trials=400, seed=1)
        assert run_experiment(cfg).row().detections == 400, kind


def _cli_flags(fields: dict) -> list:
    """An ExperimentConfig's or ProtocolParams's fields as CLI flags."""
    names = {"kind": "protocol", "horizon": "T"}
    text = {dict: lambda t: ",".join(f"{k}:{v}" for k, v in t.items())}
    return [a for k, v in fields.items() for a in (f"--{names.get(k, k)}", text.get(type(v), str)(v))]


class TestHorizonSweep:
    """A sweep over T runs each trial's spread once, to the largest T, and
    scores every T on the way; its rows and per-trial files are those of one
    run per value.  The table in harness decides which configs run."""

    T_LISTS = ([5, 2, 4, 3], [0, 1, 6], [6, 4])
    OBSERVE_T = 2  # multi-snapshot's, below every T of the even list

    @classmethod
    def cfg(cls, network, protocol, adversary, edges, **kw):
        net = dict(SWEEP_NETWORKS[network])
        if network == "explicit":
            net["edge_list"] = edges
        return ExperimentConfig(**{**net, **dict(protocol=ProtocolParams(**SWEEP_PROTOCOLS[protocol]),
                                                 adversary=adversary, p=0.2, trials=9, seed=3, estimator_d0=3,
                                                 observe_T=cls.OBSERVE_T, line_n=9), **kw})

    @staticmethod
    def swept(cfg, Ts, out):
        """The sweep's summary, its text and its per-trial files."""
        s = sweep(replace(cfg, trial_output=str(out / "swept.csv")), "T", Ts)
        return s, (summary_csv_text(s), [(out / f"swept.{r.label}.csv").read_text() for r in s.rows])

    @staticmethod
    def per_value(cfg, Ts, out):
        """What sweep printed and wrote before it grouped the values: one
        run_experiment per value."""
        rows, files = [], []
        for T in Ts:
            sub = replace(with_options(cfg, {"T": T}), label=f"T={T}", trial_output=str(out / f"each.T={T}.csv"))
            rows.append(run_experiment(sub).row())
            files.append((out / f"each.T={T}.csv").read_text())
        return summary_csv_text(ExperimentSummary(rows, cfg)), files

    @staticmethod
    def trace(network, edges, out):
        """A trace on network, from the CLI's spread, and the flags that name its network."""
        from anonspread.cli import main

        net = dict(SWEEP_NETWORKS[network], **({"edge_list": edges} if network == "explicit" else {}),
                   **({"line_n": 9} if network == "line" else {}))
        kind = ["grid-adaptive"] if network == "grid" else ["diffusion", "--q", "1"]
        path = out / f"{network}.trace.csv"
        assert main(["spread", *_cli_flags(net), "--protocol", *kind, "--T", "2", "--seed", "3",
                     "--output", str(path)]) == 0
        return path, _cli_flags(net)

    @pytest.mark.parametrize("protocol", sorted(SWEEP_PROTOCOLS))
    @pytest.mark.parametrize("network", sorted(SWEEP_NETWORKS))
    def test_grouped_records_equal_per_value_records(self, network, protocol, tmp_path, monkeypatch, capsys):
        """Every config the table declares runs, and every declared triple
        concludes at some T; every other config raises the table's message
        before any spread runs or any pool starts, in experiment, in sweep
        over T (serial and pooled) and in the CLI's estimate."""
        from anonspread import harness
        from anonspread.cli import main

        spreads, pools = [], []
        for kind, real in list(harness.PROTOCOLS.items()):
            monkeypatch.setitem(harness.PROTOCOLS, kind, lambda *a, real=real: spreads.append(1) or real(*a))
        real_pool = harness._start_pool
        monkeypatch.setattr(harness, "_start_pool", lambda *a: pools.append(1) or real_pool(*a))
        edges = _write_edge_list(tmp_path / "g.edges", _heavy_tail(300, 3))
        trace, net_flags = self.trace(network, edges, tmp_path)
        kind = SWEEP_PROTOCOLS[protocol]["kind"]
        for adversary in ADVERSARIES:
            message = re.escape(f"{adversary} does not apply to {kind} on {network}: ")
            concluded = []
            for Ts in self.T_LISTS:
                cfg = self.cfg(network, protocol, adversary, edges)
                if all(declared(network, protocol, adversary, T, self.OBSERVE_T) for T in Ts):
                    expected = self.per_value(cfg, Ts, tmp_path)
                    summary, got = self.swept(cfg, Ts, tmp_path)
                    assert got == expected, (adversary, Ts)
                    concluded.append(sum(r.trials - r.inconclusive for r in summary.rows))
                    continue
                before = len(spreads), len(pools)
                for workers in (1, 2):
                    with pytest.raises(ValueError, match=message):
                        sweep(replace(cfg, workers=workers), "T", Ts)
                for T in Ts:
                    if not declared(network, protocol, adversary, T, self.OBSERVE_T):
                        with pytest.raises(ValueError, match=message):
                            run_experiment(with_options(cfg, {"T": T}))
                assert (len(spreads), len(pools)) == before, (adversary, Ts)
            if declared(network, protocol, adversary):
                assert concluded and sum(concluded) > 0, adversary
            else:
                assert not concluded
            capsys.readouterr()
            args = ["estimate", *net_flags, *_cli_flags(SWEEP_PROTOCOLS[protocol]), "--adversary", adversary,
                    "--p", "0.2", "--seed", "3", "--estimator_d0", "3", "--observe_T", "4", "--T", "6", str(trace)]
            if not declared(network, protocol, adversary, 6, 4):
                assert main(args) == 1
                assert re.search(f"^error: {message}", capsys.readouterr().err)

    @pytest.mark.parametrize("network, protocol", RUNNING_PAIRS)
    def test_pooled_grouped_records_equal_per_value_records(self, network, protocol, tmp_path):
        # first-spy draws the spies from the trial's stream between the
        # spread's draws, and accepts odd T; polya-line is scored by line-ml alone
        edges = _write_edge_list(tmp_path / "g.edges", _heavy_tail(300, 3))
        adversary = "first-spy" if declared(network, protocol, "first-spy") else "line-ml"
        cfg = self.cfg(network, protocol, adversary, edges, workers=2, trials=23)
        for Ts in ([5, 2, 4, 3], [4, 4]):
            expected = self.per_value(replace(cfg, workers=1), Ts, tmp_path)
            assert self.swept(cfg, Ts, tmp_path)[1] == expected

    def test_sweep_over_a_set_up_key_checks_every_value_first(self, monkeypatch):
        from anonspread import harness

        monkeypatch.setattr(harness, "run_trial", lambda *a, **k: pytest.fail("a trial ran"))
        with pytest.raises(ValueError, match="snapshot does not apply to adaptive on grid: "):
            sweep(small_cfg(trials=5), "network", ["regular-tree", "grid"])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeated_value_prints_equal_rows(self, workers):
        rows = sweep(small_cfg(trials=30, workers=workers), "T", [4, 4]).rows
        assert len(rows) == 2
        assert rows[0] == rows[1]

    def test_one_spread_per_trial(self, monkeypatch):
        from anonspread import harness

        calls = []
        real = harness.PROTOCOLS["adaptive"]
        monkeypatch.setitem(harness.PROTOCOLS, "adaptive", lambda *a, **k: calls.append(a[2].horizon) or real(*a, **k))
        sweep(small_cfg(trials=25), "T", [2, 6, 4])
        assert calls == [6] * 25
        calls.clear()
        sweep(small_cfg(trials=25), "p", [0.0, 0.1])  # any other option: one run per value
        assert calls == [4] * 50

    def test_one_tree_for_the_sweep(self, tree_builds, tmp_path):
        cfg = small_cfg(trials=30, trial_output=str(tmp_path / "swept.csv"))
        for seed in (7, 8):
            for row in sweep(replace(cfg, seed=seed), "T", [2, 4, 6]).rows:
                text = (tmp_path / f"swept.{row.label}.csv").read_bytes().decode()
                assert text == fresh_tree_text(replace(cfg, seed=seed, protocol=ProtocolParams(horizon=row.T)))
        records = [run_trial(cfg, i) for i in range(cfg.trials)]
        run_experiment(replace(cfg, trial_output=None))
        assert tree_builds == [3]
        assert records == [run_trial(cfg, i, regular_tree(3)) for i in range(cfg.trials)]


def test_every_inconclusive_estimate_gives_its_reason(tmp_path, monkeypatch):
    """Every adversary that abstains says why in info["reason"]: on every
    config the table declares at small T and with few spies, and on the
    snapshots that the rest abstain on, a spread that infected no one and a
    line whose end spies saw nothing.  paad-map always names a node."""
    from anonspread.spread import InfectionSnapshot, LineTrace

    estimates = []
    for kind, real in list(ADVERSARIES.items()):
        monkeypatch.setitem(ADVERSARIES, kind, lambda *a, real=real: estimates.append(real(*a)) or estimates[-1])
    edges = _write_edge_list(tmp_path / "g.edges", _heavy_tail(300, 3))
    for network, protocol in RUNNING_PAIRS:
        for adversary in ADVERSARIES:
            for T in (1, 2, 4, 6):
                if declared(network, protocol, adversary, T, 0):
                    cfg = TestHorizonSweep.cfg(network, protocol, adversary, edges)
                    run_experiment(with_options(cfg, {"T": T, "p": 0.05, "observe_T": 0}))
    alone = InfectionSnapshot("diffusion", 2, 0, {0: 0}, {0: None}, vs_events=[(0, 0, 0)])
    silent = replace(alone, line_trace=LineTrace(5, 0.5, "left", None, None))
    for kind, snap in (("snapshot", alone), ("irregular-ml", alone), ("multi-snapshot", alone), ("line-ml", silent)):
        ADVERSARIES[kind](ExperimentConfig(adversary=kind, estimator_d0=3, observe_T=0), regular_tree(3), snap,
                          np.random.default_rng(0))
    inconclusive = [est for est in estimates if est.inconclusive]
    # the snapshot adversary's estimates are of kind snapshot-uniform
    assert {est.kind for est in inconclusive} == {*ADVERSARIES, "snapshot-uniform"} - {"snapshot", "paad-map"}
    assert all(est.info.get("reason") for est in inconclusive)


def _load_spans():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTraceHooks:
    """The bench's spans wrap the callees in the harness namespace and in
    `adversary`; a registry that bound them at import would hide every call."""

    @pytest.mark.parametrize("kind", ["tree", "edge-list"])
    def test_one_spread_and_one_adversary_span_per_trial(self, kind, tmp_path, monkeypatch):
        from anonspread import adversary, harness

        monkeypatch.setattr(harness, "_thread_trees", threading.local())  # the traced tree goes with the test
        spans = _load_spans()
        if kind == "tree":
            cfg = small_cfg(trials=20)
        else:
            cfg = graph_cfg(_write_edge_list(tmp_path / "g.edges", _heavy_tail(300, 3)), trials=20)
        tracer = spans.Tracer()
        with spans.installed(tracer, harness, adversary):
            run_experiment(cfg)
        names = [s.name for s in tracer.spans]
        assert sum(n.startswith("spread.") for n in names) == 20
        assert sum(n.startswith("adversary.") for n in names) == 20
        assert names.count("harness.run_trial") == 20


class TestTrialStreams:
    """_trial_rng hashes its streams a block of indices at a time; each is
    the SeedSequence stream of (seed, index)."""

    B = STREAM_BLOCK
    SEEDS = [0, 1, 5, 2**32 - 1, 2**32, 2**64 + 17, 10**30] + [random.Random(5).getrandbits(62) for _ in range(20)]
    INDICES = [0, 1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 5000, 2**31 + 5, 2**32 - 1, 2**32]

    def test_states_equal_seed_sequence_streams(self):
        cases = [(seed, i) for seed in self.SEEDS for i in self.INDICES]
        random.Random(7).shuffle(cases)  # so that most calls hash a block of their own
        for seed, i in cases:
            ref = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            assert _trial_rng(seed, i).bit_generator.state == ref.bit_generator.state, (seed, i)

    def test_each_call_returns_a_generator_of_its_own(self):
        a, b = _trial_rng(9, 3), _trial_rng(9, 3)
        assert a is not b and a.bit_generator is not b.bit_generator
        first = a.random(4).tolist()
        assert b.random(4).tolist() == first  # a's draws did not move b
        assert _trial_rng(9, 3).random(4).tolist() == first


class TestHopDistance:
    def test_matches_plain_bfs(self):
        from anonspread.harness import _hop

        g = _heavy_tail()
        nodes = g.nodes()
        rng = np.random.default_rng(0)
        pairs = rng.integers(len(nodes), size=(2500, 2))
        got = [_hop(g, nodes[i], nodes[j]) for i, j in pairs]
        assert got == [_bfs_distance(g, nodes[i], nodes[j]) for i, j in pairs]
        assert max(got) >= 4

    def test_disconnected_and_unknown_nodes(self):
        from anonspread.graph import from_edges, hop_distance

        g = from_edges([(0, 1), (1, 2), (2, 3), (5, 6)])
        assert hop_distance(g, 3, 0) == 3
        with pytest.raises(ValueError):
            hop_distance(g, 5, 0)
        with pytest.raises(KeyError):
            hop_distance(g, 0, 99)  # the unknown node is on the far side
        with pytest.raises(ValueError):
            hop_distance(regular_tree(3), 0, 5)  # lazy trees are never searched


class TestConfidenceIntervals:
    def test_normal_half_width(self):
        assert normal_ci_half(50, 100) == pytest.approx(1.96 * 0.05)

    def test_coverage_self_test(self):
        # nominal 95% normal interval covers the truth 93-97% of the time
        rng = np.random.default_rng(3)
        p_true, n, reps = 0.3, 400, 1000
        covered = 0
        for _ in range(reps):
            k = rng.binomial(n, p_true)
            half = normal_ci_half(k, n)
            covered += int(abs(k / n - p_true) <= half)
        assert 0.93 <= covered / reps <= 0.97


class TestFastPaths:
    def test_spy_sampler_matches_series(self):
        det, n, _ = spy_tree_detection_mc(4, 0.25, 80_000, seed=5)
        pred = pd_spy_adaptive(4, 0.25)
        sigma = np.sqrt(pred * (1 - pred) / n)
        assert abs(det / n - pred) < 3.5 * sigma

    def test_spy_sampler_matches_literal_estimator(self):
        # conditioned on an early spine spy so the literal run stays small,
        # the structural sampler and the full pipeline agree
        d, p, horizon, kcap = 3, 0.45, 14, 5
        net = regular_tree(d)
        rng = np.random.default_rng(21)
        det_l = n_l = 0
        for _ in range(2500):
            s = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=horizon), rng=rng)
            spies = assign_spies(s, p, int(rng.integers(2**62)))
            obs = observations_for(s, spies)
            spine = [o for o in obs if o.direction == "up"]
            if not spine or min(o.level for o in spine) > kcap:
                continue
            est = estimate_spy_ml(net, obs, rng=rng)
            n_l += 1
            det_l += int(est.v_hat == 0)

        rng2 = np.random.default_rng(22)
        det_s = n_s = 0
        while n_s < 60_000:
            k = int(rng2.geometric(p))
            if k > kcap:
                continue
            candidates = None
            for j in range(1, k):
                tj = ((d - 1) ** j - 1) // (d - 2)
                x = int(rng2.binomial(d - 2, (1.0 - p) ** tj))
                if x < d - 2:
                    candidates = (x + 1) * (d - 1) ** (j - 1)
                    break
            if candidates is None:
                candidates = (d - 1) ** (k - 1)
            n_s += 1
            det_s += int(rng2.integers(candidates) == 0)

        pl, ps = det_l / n_l, det_s / n_s
        sigma = np.sqrt(pl * (1 - pl) / n_l + ps * (1 - ps) / n_s)
        assert abs(pl - ps) < 3.5 * sigma

    def test_gw_sampler_matches_literal_estimator(self):
        # vectorized generation + extremal-product adversary vs the object
        # pipeline on shallow random trees
        dist = degree_distribution({3: 0.5, 4: 0.5})
        half = 3
        det_v, n_v, _, cond = gw_map_detection_mc(dist, half, 30_000, seed=8)
        # the per-snapshot hit probability is an unbiased estimate of the same thing
        assert abs(det_v / n_v - cond) < 4 * np.sqrt(cond * (1 - cond) / n_v)

        rng = np.random.default_rng(9)
        det_l = n_l = 0
        for _ in range(4000):
            net = galton_watson_tree(dist, int(rng.integers(2**60)))
            s = spread_adaptive(net, 0, ProtocolParams(alpha_policy="always-pass", horizon=2 * half), rng=rng)
            est = estimate_map_leaf(net, s, rng=rng)
            n_l += 1
            det_l += int(est.v_hat == 0)
        pv, pl = det_v / n_v, det_l / n_l
        sigma = np.sqrt(pv * (1 - pv) / n_v + pl * (1 - pl) / n_l)
        assert abs(pv - pl) < 3.5 * sigma

    def test_gw_sampler_regular_degenerate(self):
        det, n, leaves, cond = gw_map_detection_mc({3: 1.0}, 4, 40_000, seed=2)
        pred = (2 / 3) * 2.0 ** (-4)
        sigma = np.sqrt(pred * (1 - pred) / n)
        assert abs(det / n - pred) < 3.5 * sigma
        assert leaves == pytest.approx(3 * 2 ** 3)
        assert cond == pytest.approx(pred)  # deterministic on regular trees

    def test_assumed_degree_threshold(self):
        # on 3/4-mixed trees the source hides poorly when the assumed degree
        # sits below the offspring mean and much better above it
        results = {}
        for d0 in (2, 4):
            cfg = ExperimentConfig(
                network="galton-watson", degree_table={3: 0.5, 4: 0.5},
                protocol=ProtocolParams(horizon=6, d0=d0),
                adversary="irregular-ml", estimator_d0=d0,
                trials=2000, seed=42,
            )
            results[d0] = run_experiment(cfg).row().p_hat
        assert results[2] > 2 * results[4]

    def test_multi_snapshot_sampler_builds_one_tree(self, tree_builds):
        first = multi_snapshot_detection_mc(3, 6, 200, seed=10)
        assert multi_snapshot_detection_mc(3, 6, 200, seed=10) == first  # on the memo the first run filled
        run_experiment(small_cfg(trials=20))
        assert tree_builds == [3]

    def test_multi_snapshot_sampler(self):
        det, n, inc = multi_snapshot_detection_mc(3, 4, 8000, seed=10)
        from anonspread.analysis import pd_multiple_snapshots
        pred = pd_multiple_snapshots(3, 4)
        sigma = np.sqrt(pred * (1 - pred) / n)
        assert abs(det / n - pred) < 3.5 * sigma
        assert inc == 0
