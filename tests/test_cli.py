import csv
import io
import os
import pathlib
import subprocess
import sys

import pytest

from anonspread.cli import config_from_options, main, parse_config_file
from anonspread.harness import CLOSED_FORMS, compare_with_theory, run_experiment


def run_cli(args):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, out.getvalue()


# a config, as flags, at which each CLOSED_FORMS quantity is defined and its experiment runs
PREDICT_FLAGS = {
    "pd_uniform": ["--d", "4", "--T", "4"],
    "pd_always_pass": ["--d", "3", "--T", "6", "--d0", "inf"],
    "pd_snapshot_bound": ["--d", "3", "--T", "4"],
    "pd_spy_adaptive": ["--d", "4", "--p", "0.1", "--T", "6", "--protocol", "tree-protocol", "--adversary", "spy-ml"],
    "pd_spy_snapshot": ["--d", "3", "--p", "0.2", "--T", "6", "--adversary", "spy-snapshot"],
    "pd_multiple_snapshots": ["--d", "3", "--T", "8", "--observe_T", "4", "--adversary", "multi-snapshot"],
    "grid_pd_bound": ["--network", "grid", "--protocol", "grid-adaptive", "--T", "4"],
    "line_bound": ["--network", "line", "--protocol", "polya-line", "--adversary", "line-ml", "--line_n", "41"],
    "first_spy_floor": ["--p", "0.2", "--T", "4", "--adversary", "first-spy"],
}


class TestPredict:
    def test_always_pass(self):
        code, out = run_cli(["predict", "pd_always_pass", "--d", "3", "--T", "4"])
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row.endswith(f"{1/6:.12g}")

    def test_grid(self):
        code, out = run_cli(["predict", "grid", "--T", "4"])
        assert code == 0
        assert "grid_n_exact" in out and ",13" in out

    def test_exponent(self):
        code, out = run_cli(["predict", "detection_exponent", "--degree_table", "2:0.3,3:0.7"])
        assert code == 0
        assert "r_star_1" in out

    def test_unknown_quantity_is_config_error(self):
        code, _ = run_cli(["predict", "no_such_thing"])
        assert code == 1

    def test_odd_T_n_regular_prints_both_branches(self):
        code, out = run_cli(["predict", "n_regular", "--d", "3", "--T", "5"])
        assert code == 0
        assert out.splitlines()[1:] == ["n_regular_kept,T=5;d=3,22", "n_regular_passed,T=5;d=3,14"]

    @pytest.mark.parametrize("quantity", sorted(CLOSED_FORMS))
    def test_predict_prints_what_compare_writes(self, quantity):
        """predict and --compare read one registry: at a config where the
        form is defined, predict prints the value a row of that config gets."""
        flags = PREDICT_FLAGS[quantity]
        code, out = run_cli(["predict", quantity, *flags])
        assert code == 0
        (name, _, value), = list(csv.reader(out.splitlines()))[1:]
        opts = dict(zip((flag[2:] for flag in flags[::2]), flags[1::2]), trials="5")
        row = compare_with_theory(run_experiment(config_from_options(opts)), quantity).row()
        assert (name, value) == (quantity, f"{row.predicted:.12g}")


class TestSpreadEstimate:
    def test_trace_roundtrip(self, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = run_cli(["spread", "--network", "regular-tree", "--d", "3",
                           "--protocol", "adaptive", "--T", "6", "--seed", "3",
                           "--output", str(trace)])
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 22  # N_6 on the 3-regular tree

        code, out = run_cli(["estimate", "--network", "regular-tree", "--d", "3",
                             "--adversary", "snapshot", "--seed", "1", str(trace)])
        assert code == 0
        assert "v_hat," in out and "candidates,21" in out

    def test_a_trace_read_before_a_later_pass_has_one_center(self, tmp_path):
        # this spread keeps the token at epoch 2, passes it to node 1 at epoch 4 and infects no one after step
        # 3; read at T=3, its center is the holder then, node 0, and not the two holders of that later pass
        edges, trace = tmp_path / "g.edges", tmp_path / "t.csv"
        edges.write_text("0 1\n1 2\n1 3\n0 4\n")
        net = ["--network", "explicit", "--edge_list", str(edges), "--d0", "3"]
        assert run_cli(["spread", *net, "--T", "6", "--seed", "2", "--output", str(trace)])[0] == 0
        assert trace.read_text().splitlines()[1:] == ["4,0,,,,0", "0,1,4,,,1", "1,2,0,,,6", "2,3,1,,,", "3,3,1,,,"]
        code, out = run_cli(["estimate", *net, str(trace)])
        assert code == 0 and "candidates,4" in out  # every node but node 0

    def test_T_before_the_traces_last_infection_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert run_cli(["spread", "--d", "3", "--T", "8", "--seed", "4", "--output", str(trace)])[0] == 0
        code, out = run_cli(["estimate", "--T", "8", str(trace)])
        assert code == 0 and "candidates,45" in out
        capsys.readouterr()
        code, out = run_cli(["estimate", "--T", "4", str(trace)])
        assert code == 1 and out == ""
        assert "error: T=4 lies before the trace's latest infection time 8" in capsys.readouterr().err

    def test_T_0_is_a_T(self, tmp_path, capsys):
        # --T 0 asks for the snapshot at time 0; without --T, the trace's own T is taken
        trace = tmp_path / "t8.csv"
        assert run_cli(["spread", "--T", "8", "--seed", "4", "--output", str(trace)])[0] == 0
        capsys.readouterr()
        code, out = run_cli(["estimate", "--T", "0", str(trace)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: T=0 lies before the trace's latest infection time 8\n"
        code, out = run_cli(["estimate", str(trace)])
        assert code == 0 and "candidates,45" in out

    def test_a_trace_cell_that_is_not_an_integer_exits_1(self, tmp_path, capsys):
        trace, bad = tmp_path / "t4.csv", tmp_path / "bad.csv"
        assert run_cli(["spread", "--T", "4", "--seed", "1", "--output", str(trace)])[0] == 0
        header, first, second, *rest = trace.read_text().splitlines(keepends=True)
        node, t, parent, tail = second.split(",", 3)
        capsys.readouterr()
        for row, message in (
                (f"x,{t},{parent},{tail}", f"row 2: column node holds 'x', not an integer"),
                (f"{node},{t},1.5,{tail}", f"row 2: column parent holds '1.5', not an integer"),
                (f"{node},{t}\n", f"row 2: column parent holds None, not an integer"),  # a short row
                (f"{node},{t},{node}5,{tail}", f"row 2: the parent {node}5 of node {node} is not listed above it")):
            bad.write_text(header + first + row + "".join(rest))
            code, out = run_cli(["estimate", str(bad)])
            assert (code, out, capsys.readouterr().err) == (1, "", f"error: trace {bad} {message}\n")  # and no traceback

    def test_a_trace_the_network_cannot_hold_exits_1(self, tmp_path, capsys):
        trace, header = tmp_path / "t8.csv", tmp_path / "header.csv"
        assert run_cli(["spread", "--T", "8", "--seed", "1", "--output", str(trace)])[0] == 0
        header.write_text(trace.read_text().splitlines(keepends=True)[0])  # no rows
        capsys.readouterr()
        for args, message in ((["--network", "line", "--line_n", "5", "--T", "8", str(trace)],
                               "trace node 7 is not a node of the explicit network of 7 nodes"),
                              ([str(header)], f"trace {header} has no rows")):
            code, out = run_cli(["estimate", *args])
            assert (code, out, capsys.readouterr().err) == (1, "", f"error: {message}\n")  # and no traceback

    def test_a_malformed_trace_exits_1(self, tmp_path, capsys):
        # a CSV that is not a trace, and a trace cut to a T before its first virtual-source mark
        other, trace, cut = tmp_path / "other.csv", tmp_path / "t4.csv", tmp_path / "cut.csv"
        other.write_text("id,t\n1,0\n")
        assert run_cli(["spread", "--T", "4", "--seed", "1", "--output", str(trace)])[0] == 0
        lines = trace.read_text().splitlines(keepends=True)
        cut.write_text(lines[0] + "".join(line.rsplit(",", 1)[0] + ",\n" for line in lines[1:]))  # no marks
        capsys.readouterr()
        for path, message in ((other, f"trace {other} lacks the column(s) node, infection_time, parent, direction, "
                                      "level, is_virtual_source_at_t"),
                              (cut, f"trace {cut} marks no virtual source at or before T=4")):
            code, out = run_cli(["estimate", str(path)])
            assert (code, out, capsys.readouterr().err) == (1, "", f"error: {message}\n")  # and no traceback

    def test_line_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _ = run_cli(["spread", "--network", "line", "--protocol", "polya-line", "--line_n", "41",
                           "--seed", "3", "--output", str(trace)])
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["infection_time"] == "0" and 1 <= int(rows[0]["node"]) <= 41  # the source
        assert {"0", "42"} & {r["node"] for r in rows}  # the spread ran until an end spy reported

    def test_map_leaf_on_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        run_cli(["spread", "--network", "regular-tree", "--d", "3",
                 "--protocol", "adaptive", "--alpha_policy", "always-pass",
                 "--T", "4", "--seed", "5", "--output", str(trace)])
        code, out = run_cli(["estimate", "--network", "regular-tree", "--d", "3",
                             "--protocol", "adaptive", "--alpha_policy", "always-pass",
                             "--adversary", "map-leaf", str(trace)])
        assert code == 0
        assert "candidates,6" in out

    def test_irregular_ml_on_edge_list_trace_scores_as_harness(self, tmp_path):
        import math

        import numpy as np

        from anonspread.adversary import estimate_irregular_ml
        from anonspread.graph import load_edge_list, prune_min_degree, synthetic_heavy_tail
        from anonspread.spread import ProtocolParams, spread_adaptive

        g = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
        edges = tmp_path / "g.edges"
        edges.write_text("".join(f"{u} {w}\n" for u, nbrs in g.adj.items() for w in nbrs if u < w))
        trace = tmp_path / "trace.csv"
        common = ["--network", "explicit", "--edge_list", str(edges), "--d0", "inf", "--seed", "2"]
        assert run_cli(["spread", *common, "--protocol", "adaptive", "--T", "6",
                        "--output", str(trace)])[0] == 0
        code, out = run_cli(["estimate", *common, "--adversary", "irregular-ml", str(trace)])
        assert code == 0
        lines = dict(line.split(",") for line in out.strip().splitlines())

        # the same spread in memory, scored as harness.run_trial scores it
        net = load_edge_list(str(edges))
        rng = np.random.default_rng(2)
        source = net.nodes()[int(rng.integers(net.n_nodes))]
        snap = spread_adaptive(net, source, ProtocolParams(d0=math.inf, horizon=6), rng=rng)
        est = estimate_irregular_ml(net, snap, 3, rng=rng)
        best = max(est.scores.values())
        ties = {v for v, sc in est.scores.items() if sc == best}
        assert int(lines["candidates"]) == est.tie_count == len(ties)
        assert int(lines["v_hat"]) in ties

    @pytest.mark.parametrize("network, options", [
        ("regular-tree", dict(protocol="paad", adversary="paad-map", g="2")),
        ("explicit", dict(protocol="paad", adversary="paad-map", g="1")),
        ("explicit", dict(protocol="paad", adversary="paad-map", g="2")),
        ("explicit", dict(protocol="tree-protocol", adversary="spy-irregular", p="0.2")),
    ], ids=["tree-paad-map", "explicit-paad-map-g1", "explicit-paad-map-g2", "explicit-spy-irregular"])
    def test_estimate_on_a_trace_equals_the_in_memory_estimate(self, network, options, tmp_path):
        # the trace keeps what these estimators read of the spread: the infection order, the
        # parents and the token trace; the network gives the rest
        import numpy as np

        from anonspread.cli import config_from_options
        from anonspread.graph import prune_min_degree, synthetic_heavy_tail
        from anonspread.harness import ADVERSARIES, NETWORKS, PROTOCOLS, shared_network

        edges = tmp_path / "g.edges"
        g = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
        edges.write_text("".join(f"{u} {w}\n" for u, nbrs in g.adj.items() for w in nbrs if u < w))
        trace = tmp_path / "trace.csv"
        conclusive = 0
        for seed in range(12):
            opts = dict(network=network, edge_list=str(edges), T="6", seed=str(seed), **options)
            flags = [a for k, v in opts.items() for a in (f"--{k}", v)]
            assert run_cli(["spread", *flags, "--output", str(trace)])[0] == 0
            code, out = run_cli(["estimate", *flags, str(trace)])
            assert code == 0
            lines = dict(line.split(",") for line in out.strip().splitlines())

            cfg = config_from_options(opts)
            rng = np.random.default_rng(seed)
            net, source = NETWORKS[cfg.network](cfg, rng, shared_network(cfg))
            snap = PROTOCOLS[cfg.protocol.kind](net, source, cfg.protocol, rng)
            est = ADVERSARIES[cfg.adversary](cfg, net, snap, np.random.default_rng(seed))
            assert (lines["v_hat"], int(lines["candidates"])) == (str(est.v_hat), est.tie_count), seed
            conclusive += not est.inconclusive
        assert conclusive

    @pytest.mark.parametrize("policy", ["exact", "always-pass"])
    def test_estimate_runs_every_snapshot_adversary(self, policy, tmp_path, capsys):
        from anonspread.harness import ADVERSARIES, READS

        trace = tmp_path / "trace.csv"
        protocol = ["--protocol", "adaptive", "--alpha_policy", policy]
        common = [*protocol, "--T", "4", "--seed", "3"]
        assert run_cli(["spread", *common, "--output", str(trace)])[0] == 0
        spread = "always-pass" if policy == "always-pass" else "adaptive"
        for kind in sorted(ADVERSARIES):
            capsys.readouterr()
            code, out = run_cli(["estimate", "--adversary", kind, "--p", "0.3", *common, str(trace)])
            # map-leaf reads only always-pass spreads, spy-ml and spy-irregular only the tree
            # protocol, paad-map only paad and line-ml only polya-line spreads, and multi-snapshot
            # needs an observe_T below T: the trace stops at T
            if spread not in READS[kind] or kind == "multi-snapshot":
                assert code == 1 and out == ""
                assert f"error: {kind} does not apply to adaptive on regular-tree: " in capsys.readouterr().err
                continue
            assert code == 0, kind
            assert out.startswith("estimator,")
        if policy == "always-pass":  # without --T, the check reads the trace's own T
            code, out = run_cli(["estimate", *protocol, "--adversary", "multi-snapshot", str(trace)])
            assert code == 1
            assert "it needs an even observe_T below T=4, not None" in capsys.readouterr().err
            code, out = run_cli(["estimate", *protocol, "--adversary", "multi-snapshot", "--observe_T", "2",
                                 str(trace)])
            assert code == 0 and "v_hat,None" not in out


@pytest.mark.parametrize("args, message", [
    (["spread", "--network", "bogus"], "unknown network kind 'bogus'"),
    (["spread", "--network", "explicit"], "explicit network needs edge_list or graph"),
    (["estimate", "--network", "explicit", "TRACE"], "explicit network needs edge_list or graph"),
    (["experiment", "--network", "galton-watson", "--trials", "2"],
     "galton-watson network needs degree_table"),
    (["estimate", "--network", "line", "--protocol", "polya-line", "--adversary", "line-ml", "TRACE"],
     "line-ml needs a line trace"),
    (["estimate", "--adversary", "line-ml", "TRACE"],
     "line-ml does not apply to adaptive on regular-tree: it reads only polya-line spreads"),
    (["experiment", "--adversary", "line-ml", "--protocol", "adaptive", "--trials", "2"],
     "line-ml does not apply to adaptive on regular-tree: it reads only polya-line spreads"),
    (["experiment", "--protocol", "polya-line", "--adversary", "line-ml", "--trials", "2"],
     "line-ml does not apply to polya-line on regular-tree: polya-line runs only on line"),
    (["experiment", "--network", "line", "--protocol", "grid-adaptive", "--trials", "2"],
     "snapshot does not apply to grid-adaptive on line: grid-adaptive runs only on grid"),
    (["estimate", "--adversary", "paad-map", "TRACE"],
     "paad-map does not apply to adaptive on regular-tree: it reads only paad spreads"),
    (["estimate", "--adversary", "bogus", "TRACE"], "unknown adversary kind 'bogus'"),
    (["experiment", "--network", "grid", "--protocol", "diffusion", "--q", "0.5", "--T", "4", "--trials", "3"],
     "snapshot does not apply to diffusion on grid: diffusion runs only on regular-tree, galton-watson, explicit, "
     "line"),
    (["spread", "--network", "grid", "--d0", "4", "--T", "4"],
     "spread does not apply to adaptive on grid: adaptive runs only on regular-tree, galton-watson, explicit, line"),
    (["sweep", "--trials", "2", "bogus", "1,2"], "unknown option 'bogus'"),
    (["sweep", "--trials", "2", "horizon", "2,4"], "unknown option 'horizon'"),  # the key is T
    (["experiment", "--alpha_policy", "bogus", "--T", "4"], "unknown alpha_policy 'bogus'"),
    (["spread", "--protocol", "deterministic", "--T", "2"], "unknown protocol kind 'deterministic'"),
    (["spread", "--protocol", "diffusion", "--q", "0", "--T", "2"], "diffusion requires q in (0, 1]"),
    (["spread", "--protocol", "diffusion", "--q", "1.5", "--T", "2"], "diffusion requires q in (0, 1]"),
    (["predict", "pd_uniform"], "pd_uniform needs T >= 1: at T=0 the source is the only infected node"),
    (["experiment", "--trials", "20", "--compare", "pd_uniform"],
     "pd_uniform needs T >= 1: at T=0 the source is the only infected node"),
    (["predict", "detection_exponent"], "detection_exponent needs degree_table"),
    (["predict", "pd_snapshot_bound", "--d", "3"], "bound defined for T >= 1"),
    (["predict", "pd_always_pass"], "pd_always_pass needs an even T >= 2"),
    (["predict", "pd_always_pass", "--T", "5"], "pd_always_pass needs an even T >= 2"),
    (["experiment", "--d0", "inf", "--adversary", "map-leaf", "--T", "0", "--trials", "50", "--compare",
      "pd_always_pass"], "pd_always_pass needs an even T >= 2"),
])
def test_bad_input_exits_1_with_message(args, message, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert run_cli(["spread", "--T", "4", "--seed", "1", "--output", str(trace)])[0] == 0
    code, _ = run_cli([str(trace) if a == "TRACE" else a for a in args])  # raises if one escapes
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["experiment"], ["sweep", "T", "4,6"]])
@pytest.mark.parametrize("args, message", [
    (["--compare", "pd_unifrom"], "unknown quantity 'pd_unifrom'"),
    (["--network", "explicit", "--edge_list", "EMPTY"], "explicit network has no nodes"),
    (["--fanout_cap", "-1"], "fanout_cap must be >= 1, got -1"),
    (["--fanout_cap", "0"], "fanout_cap must be >= 1, got 0"),
    (["--workers", "0"], "workers must be >= 1, got 0"),
    (["--workers", "-2"], "workers must be >= 1, got -2"),
    (["--adversary", "line-ml", "--line_n", "0"], "line_n must be >= 1, got 0"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--network", "line", "--protocol", "polya-line", "--adversary", "map-leaf"],
     "map-leaf does not apply to polya-line on line: it reads only always-pass, paad, tree-protocol spreads"),
    (["--adversary", "multi-snapshot"], "multi-snapshot does not apply to adaptive on regular-tree: it needs an even "
                                        "observe_T below T="),
    (["--adversary", "spy-ml"],
     "spy-ml does not apply to adaptive on regular-tree: it reads only tree-protocol spreads"),
    (["--network", "explicit", "--edge_list", "EDGES", "--protocol", "diffusion", "--q", "0.4", "--adversary",
      "irregular-ml"], "irregular-ml does not apply to diffusion on explicit: it reads only adaptive, always-pass, "
                       "paad, tree-protocol spreads"),
    (["--protocol", "diffusion", "--q", "0", "--adversary", "first-spy"], "diffusion requires q in (0, 1]"),
    (["--protocol", "diffusion", "--q", "1.5", "--adversary", "first-spy"], "diffusion requires q in (0, 1]"),
    (["--protocol", "deterministic", "--adversary", "first-spy"], "unknown protocol kind 'deterministic'"),
], ids=["compare", "empty-graph", "cap-negative", "cap-zero", "workers-zero", "workers-negative", "line-n-zero",
        "seed-negative", "polya-line-adversary", "multi-snapshot-without-observe-T", "spy-ml-on-adaptive",
        "irregular-ml-on-diffusion", "q-zero", "q-above-one", "deterministic"])
def test_bad_input_fails_before_the_first_trial(command, args, message, tmp_path, capsys, monkeypatch):
    from anonspread import harness

    def no_trial(*a, **k):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    empty = tmp_path / "empty.edges"
    empty.write_text("# comments only\n")
    edges = tmp_path / "path.edges"
    edges.write_text("".join(f"{v} {v + 1}\n" for v in range(12)))
    flags = [{"EMPTY": str(empty), "EDGES": str(edges)}.get(a, a) for a in args]
    code, _ = run_cli([command[0], *flags, "--trials", "2", *command[1:]])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["experiment", "--T", "0"], ["sweep", "T", "0,2"]])
def test_compare_outside_the_forms_range_fails_before_the_first_trial(command, capsys, monkeypatch):
    from anonspread import harness

    def no_trial(*a, **k):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    code, _ = run_cli([command[0], "--compare", "pd_uniform", "--trials", "2", *command[1:]])
    assert code == 1
    assert "error: pd_uniform needs T >= 1: at T=0 the source is the only infected node" in capsys.readouterr().err


def test_diffusion_at_q_1_floods(tmp_path):
    # the trace holds the flooding reference's infections and parent picks, drawn after the source;
    # an experiment infects the radius-T ball of the regular tree in every trial
    import numpy as np

    from anonspread.analysis import n_regular
    from anonspread.graph import load_edge_list
    from helpers import reference_flood

    edges = tmp_path / "lattice.edges"  # a 5 x 5 lattice, whose cycles give nodes several infectors
    edges.write_text("".join(f"{5 * x + y} {5 * x + y + 1}\n{5 * y + x} {5 * y + x + 5}\n"
                             for x in range(5) for y in range(4)))
    trace = tmp_path / "flood.csv"
    code, _ = run_cli(["spread", "--network", "explicit", "--edge_list", str(edges), "--protocol", "diffusion",
                       "--q", "1", "--T", "4", "--seed", "5", "--output", str(trace)])
    assert code == 0
    rng = np.random.default_rng(5)
    net = load_edge_list(str(edges))
    time, parent = reference_flood(net, net.nodes()[int(rng.integers(net.n_nodes))], 4, rng)
    with open(trace, encoding="utf-8") as fh:
        rows = [(int(r["node"]), int(r["infection_time"]), r["parent"]) for r in csv.DictReader(fh)]
    assert rows == [(v, t, "" if parent[v] is None else str(parent[v])) for v, t in time.items()]
    code, out = run_cli(["experiment", "--protocol", "diffusion", "--q", "1", "--adversary", "first-spy",
                         "--p", "0.2", "--T", "3", "--trials", "20", "--seed", "2"])
    assert code == 0
    row = _summary_rows(out)[0]
    assert row[2] == "diffusion" and float(row[11]) == n_regular(3, 2 * 3)


def test_tree_protocol_snapshots_score_with_irregular_ml(tmp_path):
    # the token trace ends at the center, so h_T is its depth, not T
    from anonspread.graph import prune_min_degree, synthetic_heavy_tail

    g = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
    edges = tmp_path / "g.edges"
    edges.write_text("".join(f"{u} {w}\n" for u, nbrs in g.adj.items() for w in nbrs if u < w))
    code, out = run_cli(["experiment", "--network", "explicit", "--edge_list", str(edges),
                         "--protocol", "tree-protocol", "--adversary", "irregular-ml", "--T", "6",
                         "--trials", "20", "--seed", "4"])
    assert code == 0
    assert _summary_rows(out)[0][12] == "0"  # no inconclusive trial


@pytest.mark.parametrize("adversary", [["snapshot"], ["irregular-ml", "--d0", "3"]], ids=["snapshot", "irregular-ml"])
def test_snapshot_of_its_center_alone_is_inconclusive(adversary, capsys):
    # a diffusion spread can infect no one by T.  These estimators read token spreads, so the CLI does
    # not run them on diffusion; a caller that does gets an inconclusive estimate for such a snapshot
    import numpy as np

    from anonspread.adversary import estimate_irregular_ml, estimate_snapshot_regular
    from anonspread.graph import galton_watson_tree
    from anonspread.spread import ProtocolParams, spread_diffusion

    code, out = run_cli(["experiment", "--network", "galton-watson", "--degree_table", "3:0.5,4:0.5",
                         "--protocol", "diffusion", "--q", "0.3", "--adversary", *adversary, "--T", "4",
                         "--trials", "25", "--seed", "7"])
    assert code == 1 and out == ""
    assert f"error: {adversary[0]} does not apply to diffusion on galton-watson: " in capsys.readouterr().err
    estimate = {"snapshot": lambda snap, rng: estimate_snapshot_regular(snap, rng=rng),
                "irregular-ml": lambda snap, rng: estimate_irregular_ml(net, snap, 3, rng=rng)}[adversary[0]]
    net = galton_watson_tree({3: 0.5, 4: 0.5}, 7)
    alone = 0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        snap = spread_diffusion(net, 0, ProtocolParams(kind="diffusion", q=0.05, horizon=4), rng)
        est = estimate(snap, rng)
        assert est.inconclusive == (snap.n_infected == 1)
        alone += snap.n_infected == 1
    assert 0 < alone < 25


class TestExperiment:
    def test_config_file_and_gate(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "network = regular-tree\n"
            "d = 3\n"
            "protocol = adaptive\n"
            "T = 4\n"
            "adversary = snapshot\n"
            "trials = 2000\n"
            "seed = 11\n"
        )
        code, out = run_cli(["experiment", "--config", str(cfg), "--compare", "pd_uniform"])
        assert code == 0
        assert "anonspread-summary v1" in out

        # comparing against the wrong closed form trips the gate
        code, out = run_cli(["experiment", "--config", str(cfg),
                             "--compare", "pd_always_pass"])
        assert code == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nonsense = 5\n")
        with pytest.raises(ValueError):
            parse_config_file(cfg)

    def test_trial_output_key(self, tmp_path, monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("network = regular-tree\nd = 3\nT = 4\ntrials = 30\nseed = 2\n"
                       f"trial_output = {tmp_path / 'trials.csv'}\n")
        code, _ = run_cli(["experiment", "--config", str(cfg)])
        assert code == 0
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert lines[0] == "# anonspread-trials v1" and len(lines) == 32

        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setenv("ANONSPREAD_OUTPUT_DIR", str(out_dir))
        code, _ = run_cli(["sweep", "--config", str(cfg), "--trial_output", "sweep.csv", "T", "2,4"])
        assert code == 0  # a relative path lands in the output directory, one file per value
        assert sorted(p.name for p in out_dir.iterdir()) == ["sweep.T=2.csv", "sweep.T=4.csv"]

    def test_sweep_cli(self):
        code, out = run_cli(["sweep", "--network", "regular-tree", "--d", "3",
                             "--protocol", "adaptive", "--adversary", "snapshot",
                             "--trials", "200", "--seed", "4", "T", "2,4"])
        assert code == 0
        assert out.count("\n") >= 3

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ANONSPREAD_OUTPUT_DIR", str(tmp_path))
        code, _ = run_cli(["experiment", "--network", "regular-tree", "--d", "3",
                           "--protocol", "adaptive", "--T", "2", "--adversary", "snapshot",
                           "--trials", "20", "--seed", "1", "--output", "env_out.csv"])
        assert code == 0
        assert (tmp_path / "env_out.csv").exists()

    def test_paad_runs_on_a_path(self, tmp_path):
        # next to an end of the path, every move of the holder weighs 0, and it keeps the token
        edges = tmp_path / "path.edges"
        edges.write_text("".join(f"{v} {v + 1}\n" for v in range(12)))
        code, out = run_cli(["experiment", "--network", "explicit", "--edge_list", str(edges), "--protocol", "paad",
                             "--T", "6", "--trials", "20", "--seed", "1"])
        assert code == 0
        assert _summary_rows(out)[0][1:3] == ["explicit", "paad"]

    def test_line_ml_runs_on_the_line(self):
        code, out = run_cli(["experiment", "--network", "line", "--protocol", "polya-line",
                             "--adversary", "line-ml", "--line_n", "41", "--trials", "50", "--seed", "2"])
        assert code == 0
        assert _summary_rows(out)[0][1:4] == ["line", "polya-line", "line-ml"]

    def test_console_entry_point(self):
        # the subprocess does not see pytest's pythonpath, so it gets the package's src/ itself
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-m", "anonspread.cli", "predict",
                              "line_bound", "--line_n", "101"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert "0.9039" in out.stdout


def _summary_rows(out):
    return list(csv.reader(line for line in out.splitlines() if not line.startswith("#")))[1:]


@pytest.mark.parametrize("common, parameter, values", [
    (["--T", "4", "--adversary", "snapshot"], "protocol", "adaptive,paad"),
    (["--network", "galton-watson", "--degree_table", "2:0.3,3:0.4,5:0.3", "--protocol", "paad",
      "--adversary", "paad-map", "--T", "6"], "g", "1,2"),
    (["--network", "explicit", "--edge_list", "EDGES", "--d0", "inf", "--adversary", "irregular-ml", "--T", "6"],
     "fanout_cap", "2,3"),
    (["--T", "6", "--adversary", "snapshot"], "alpha_policy", "exact,always-pass"),
    (["--network", "galton-watson", "--d0", "inf", "--adversary", "map-leaf", "--T", "6"],
     "degree_table", "3:0.5,4:0.5;3:1.0"),
], ids=["protocol", "g", "fanout_cap", "alpha_policy", "degree_table"])
def test_sweep_row_equals_experiment_with_that_flag(common, parameter, values, tmp_path):
    from anonspread.graph import prune_min_degree, synthetic_heavy_tail

    if "EDGES" in common:
        g = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
        edges = tmp_path / "g.edges"
        edges.write_text("".join(f"{u} {w}\n" for u, nbrs in g.adj.items() for w in nbrs if u < w))
        common = [str(edges) if a == "EDGES" else a for a in common]
    common = [*common, "--trials", "150", "--seed", "5"]
    code, out = run_cli(["sweep", *common, parameter, values])
    assert code == 0
    rows = _summary_rows(out)
    texts = values.split(";" if parameter == "degree_table" else ",")
    assert [row[0] for row in rows] == [f"{parameter}={text}" for text in texts]
    assert len({tuple(row[1:]) for row in rows}) == len(rows)  # each value changes the run
    for text, row in zip(texts, rows):
        code, out = run_cli(["experiment", *common, f"--{parameter}", text])
        assert code == 0
        assert row[1:] == _summary_rows(out)[0][1:]


def test_config_keys_land_on_their_fields(tmp_path):
    from dataclasses import fields

    from anonspread.cli import CONFIG_KEYS, config_from_options
    from anonspread.harness import OPTIONS, ExperimentConfig
    from anonspread.spread import ProtocolParams

    # key: (text in a config file, the field it lands on, the value there)
    cases = {
        "network": ("explicit", "network", "explicit"),
        "d": ("4", "d", 4),
        "degree_table": ("3:0.5,4:0.5", "degree_table", {3: 0.5, 4: 0.5}),
        "edge_list": ("g.edges", "edge_list", "g.edges"),
        "protocol": ("diffusion", "protocol.kind", "diffusion"),
        "alpha_policy": ("always-pass", "protocol.alpha_policy", "always-pass"),
        "d0": ("5", "protocol.d0", 5),
        "q": ("0.5", "protocol.q", 0.5),
        "g": ("2", "protocol.g", 2),
        "fanout_cap": ("2", "protocol.fanout_cap", 2),
        "T": ("6", "protocol.horizon", 6),
        "adversary": ("first-spy", "adversary", "first-spy"),
        "p": ("0", "p", 0.0),
        "trials": ("7", "trials", 7),
        "seed": ("9", "seed", 9),
        "output": (str(tmp_path / "o.csv"), "output", str(tmp_path / "o.csv")),
        "trial_output": (str(tmp_path / "t.csv"), "trial_output", str(tmp_path / "t.csv")),
        "workers": ("2", "workers", 2),
        "line_n": ("11", "line_n", 11),
        "estimator_d0": ("4", "estimator_d0", 4),
        "observe_T": ("8", "observe_T", 8),
        "label": ("x", "label", "x"),
    }
    assert CONFIG_KEYS == {*cases, "compare"}
    # no two fields share an option name (a second seed would)
    assert len(OPTIONS) == len(fields(ExperimentConfig)) - 1 + len(fields(ProtocolParams))
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = {text}\n" for key, (text, _, _) in cases.items()) + "compare = pd_uniform\n")
    cfg = config_from_options(parse_config_file(str(path)))
    for key, (_, where, value) in cases.items():
        got = cfg
        for name in where.split("."):
            got = getattr(got, name)
        assert (got, type(got)) == (value, type(value)), key
    for flag in ("--graph", "--wilson", "--horizon", "--kind"):
        with pytest.raises(SystemExit):
            main(["experiment", flag, "1"])
