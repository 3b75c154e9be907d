"""Acceptance suite: every criterion runs end to end at its stated
tolerance and prints one line with the measured numbers.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import math
import time as clock
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from anonspread import analysis
from anonspread.adversary import (
    estimate_map_leaf,
    estimate_snapshot_regular,
    irregular_ml_scores,
)
from anonspread.graph import (
    degree_distribution,
    galton_watson_tree,
    grid,
    prune_min_degree,
    regular_tree,
    synthetic_heavy_tail,
)
from anonspread.harness import (
    ExperimentConfig,
    compare_with_theory,
    gw_map_detection_mc,
    multi_snapshot_detection_mc,
    run_experiment,
    spy_tree_detection_mc,
    sweep,
)
from anonspread.spread import (
    ProtocolParams,
    spread_adaptive,
    spread_grid,
    spread_polya_line,
    spread_tree_protocol,
)
from helpers import eight_node_snapshot, oracle_trajectory_likelihood, summary_csv_text

import os

FACEBOOK_EDGELIST = os.environ.get("FACEBOOK_EDGELIST", "")


def report(line):
    print(f"\n{line}", flush=True)


def sigma(p, n):
    return math.sqrt(max(p * (1 - p), 1e-12) / n)


def compared(summaries, quantity):
    """The rows of `summaries` compared with the closed form `quantity`:
    each row's flag is set where it lies more than 3 sigma past it."""
    return [row for summary in summaries for row in compare_with_theory(summary, quantity).rows]


def z_of(row):
    """A compared row's distance from its prediction, in sigmas."""
    return (row.p_hat - row.predicted) / sigma(row.predicted, row.trials)


# Each criterion's runs through run_experiment or sweep on `workers` workers;
# test_pooled_rows_equal_serial_rows runs each on a slice of its trials.


def criterion_01_runs(workers, trials=100_000):
    """The exact schedule to T=8 on the 3- and 4-regular trees, read by the
    snapshot adversary."""
    return [run_experiment(ExperimentConfig(network="regular-tree", d=d, protocol=ProtocolParams(horizon=8),
                                            adversary="snapshot", trials=trials, seed=101 + d, workers=workers))
            for d in (3, 4)]


def criterion_03_runs(workers, trials=20_000):
    """Always-pass to T=4 on the 3-regular tree, read by the leaf MAP rule."""
    return [run_experiment(ExperimentConfig(network="regular-tree", d=3,
                                            protocol=ProtocolParams(alpha_policy="always-pass", horizon=4),
                                            adversary="map-leaf", trials=trials, seed=303, workers=workers))]


def criterion_08_runs(workers, trials=10_000):
    """The first spy against (a) probability-q spreading on the 5-regular
    tree and (b) the tree protocol on the 3-regular tree."""
    q_spreading = ExperimentConfig(network="regular-tree", d=5,
                                   protocol=ProtocolParams(kind="diffusion", q=0.3, horizon=6),
                                   adversary="first-spy", p=0.2, trials=trials, seed=808, workers=workers)
    balanced = ExperimentConfig(network="regular-tree", d=3, protocol=ProtocolParams(kind="tree-protocol", horizon=12),
                                adversary="first-spy", p=0.15, trials=trials, seed=809, workers=workers)
    return [run_experiment(q_spreading), run_experiment(balanced)]


def criterion_10_runs(workers, trials=20_000):
    """The line protocol, read by its end spies, at 101 and 401 nodes."""
    cfg = ExperimentConfig(network="line", protocol=ProtocolParams(kind="polya-line"), adversary="line-ml",
                           trials=trials, seed=1010, workers=workers)
    return [sweep(cfg, "line_n", [101, 401])]


def criterion_11_runs(workers, trials=6000):
    """The tree protocol to T=8 on the 3-regular tree, read by the spy and
    snapshot adversary, over five spy probabilities."""
    cfg = ExperimentConfig(network="regular-tree", d=3, protocol=ProtocolParams(kind="tree-protocol", horizon=8),
                           adversary="spy-snapshot", trials=trials, seed=1111, workers=workers)
    return [sweep(cfg, "p", [0.05, 0.1, 0.2, 0.35, 0.5])]


def criterion_12_graph():
    """The pruned synthetic heavy-tailed graph that stands in for the
    Facebook sample."""
    return prune_min_degree(synthetic_heavy_tail(1500, 5, seed=5), 3)


def criterion_12_runs(workers, trials, graph):
    """Balanced spreading read by the degree-weighted pivot estimator, and
    plain probability-0.1 spreading read by the first spy, to T=24 on
    `graph`, over three spy probabilities.  Both halves run on one seed, so
    trial i has the same source in each."""
    balanced = ExperimentConfig(network="explicit", graph=graph, protocol=ProtocolParams(kind="tree-protocol",
                                                                                         horizon=24),
                                adversary="spy-irregular", trials=trials, seed=1212, workers=workers)
    plain = replace(balanced, protocol=ProtocolParams(kind="diffusion", q=0.1, horizon=24), adversary="first-spy")
    return [sweep(cfg, "p", [0.05, 0.10, 0.15]) for cfg in (balanced, plain)]


def test_criterion_01_perfect_obfuscation():
    """Exact-schedule snapshots leave the adversary a uniform guess."""
    t0 = clock.time()
    rows = compared(criterion_01_runs(workers=2), "pd_uniform")
    elapsed = clock.time() - t0
    for row in rows:
        assert row.mean_n_infected == pytest.approx(analysis.n_regular(row.config.d, 8))
        assert row.inconclusive == 0
        assert row.flag == 0
    report("criterion 1 PASS: " + "; ".join(
        f"d={r.config.d}: p_hat={r.p_hat:.5f} vs {r.predicted:.5f} (z={z_of(r):+.2f})" for r in rows)
        + f"; runtime {elapsed:.0f}s")
    assert elapsed < 60.0


def test_criterion_02_state_distribution():
    d, T, n = 3, 10, 100_000
    net = regular_tree(d)
    rng = np.random.default_rng(202)
    counts = np.zeros(T // 2)
    params = ProtocolParams(horizon=T)
    for _ in range(n):
        counts[spread_adaptive(net, 0, params, rng=rng).h_T - 1] += 1
    expected = analysis.state_distribution_regular(d, T) * n
    pval = chisquare(counts, expected).pvalue
    report(f"criterion 2 PASS: token-distance chi^2 p={pval:.3f} (need > 0.001); "
           f"counts={counts.astype(int).tolist()}")
    assert pval > 0.001


def test_criterion_03_always_pass_detection():
    row, = compared(criterion_03_runs(workers=2), "pd_always_pass")
    assert row.predicted == pytest.approx(1 / 6)
    # every trial offers exactly six boundary leaves
    net = regular_tree(3)
    rng = np.random.default_rng(304)
    for _ in range(500):
        s = spread_adaptive(net, 0, ProtocolParams(alpha_policy="always-pass", horizon=4), rng=rng)
        assert len(s.boundary()) == 6
        assert estimate_map_leaf(net, s, rng=rng).tie_count == 6
    assert row.flag == 0
    report(f"criterion 3 PASS: p_hat={row.p_hat:.4f} vs 1/6 (z={z_of(row):+.2f}); 6 leaves every trial")


def test_criterion_04_irregular_ml_vs_oracle():
    rng = np.random.default_rng(404)
    dist = degree_distribution({3: 0.5, 4: 0.5})
    worst = 0.0
    snapshots = 0
    while snapshots < 500:
        net = galton_watson_tree(dist, int(rng.integers(2**60)))
        T = int(rng.choice([2, 4, 6, 8]))
        d0 = int(rng.choice([2, 3, 4]))
        s = spread_adaptive(net, 0, ProtocolParams(horizon=T, d0=d0), rng=rng)
        _, like = irregular_ml_scores(net, s, d0)
        for v in s.time:
            o = oracle_trajectory_likelihood(net, s, v, d0)
            ref = max(abs(like[v]), 1e-300)
            worst = max(worst, abs(o - like[v]) / ref if like[v] else abs(o))
        snapshots += 1
    report(f"criterion 4 PASS: 500 random snapshots, worst relative error {worst:.2e} (< 1e-9)")
    assert worst < 1e-9


def test_criterion_05_pinned_fixture():
    net, snap = eight_node_snapshot()
    s2, _ = irregular_ml_scores(net, snap, 2)
    s4, _ = irregular_ml_scores(net, snap, 4)
    _, like3 = irregular_ml_scores(net, snap, 3)
    v2 = [s2[v] for v in range(1, 9)]
    v4 = [s4[v] for v in range(1, 9)]
    assert v2 == [1 / 2, 1, 0, 1, 2 / 3, 1 / 2, 1 / 2, 1 / 4]
    assert v4 == [3, 2, 0, 2, 4 / 3, 3, 3, 3 / 2]
    assert like3[5] == pytest.approx(1 / 9, abs=1e-15)
    report("criterion 5 PASS: fixture reproduces both pinned score vectors and the 1/9 likelihood")


def test_criterion_06_concentration_exponent():
    res_b = analysis.detection_exponent({2: 0.3, 3: 0.7})
    assert abs(res_b.r_star[0] - 0.64) <= 0.01
    assert abs(res_b.r_star[1] - 0.36) <= 0.01
    res_a = analysis.detection_exponent({3: 0.7, 4: 0.3})
    assert res_a.exponent_nats == math.log(2)

    # Monte Carlo decay across depths 10..16: the cumulative ratio
    # -log2(P)/(T/2) carries a large additive offset and closes on the
    # predicted exponent very slowly, so measure the per-depth increment
    # (the slope of -log2(P) against T/2 over the window), which cancels
    # the offset; the pointwise ratios are reported and must keep shrinking
    # toward the target across the window.
    dist = degree_distribution({2: 0.3, 3: 0.7})
    halves = (10, 13, 16)
    bits = {}
    ratios = {}
    for half in halves:
        det, n, _, cond = gw_map_detection_mc(dist, half, 4000, seed=606 + half)
        bits[half] = -math.log2(cond)
        ratios[half] = bits[half] / half
    slope = (bits[16] - bits[10]) / 6.0
    gaps = [abs(ratios[h] - 0.36) for h in halves]
    report(f"criterion 6 PASS: r*={np.round(res_b.r_star, 3).tolist()}, "
           f"case-a exponent=log 2; window slope {slope:.3f} (gap {abs(slope-0.36):.3f} < 0.1); "
           f"pointwise ratios {[round(ratios[h], 3) for h in halves]} shrinking toward 0.36")
    assert abs(slope - 0.36) < 0.1
    assert gaps[0] > gaps[1] > gaps[2]


def test_criterion_07_spy_model_series():
    lines = []
    for d in (3, 4, 5):
        for p in (0.1, 0.3):
            pred = analysis.pd_spy_adaptive(d, p)
            det, n, _ = spy_tree_detection_mc(d, p, 100_000, seed=700 + 10 * d)
            z = (det / n - pred) / sigma(pred, n)
            lines.append(f"d={d},p={p}: {det/n:.4f} vs {pred:.4f} (z={z:+.2f})")
            assert abs(z) <= 3.0
    report("criterion 7 (series match) PASS: " + "; ".join(lines))


def test_criterion_07_series_asymptote():
    """Asymptotic optimality: the detection series falls to the spy floor p
    as d grows, at the rate of its leading term 1/(d-1).

    In the series p + 1/(d-2) - sum_k q_k/(d-1)^k the k=1 term
    q_1 = p^(d-1) + (1-p)^d vanishes and q_k -> 1 for k >= 2, so the gap to
    the floor is 1/(d-2) - sum_{k>=2} (d-1)^-k = 1/(d-1) up to exponentially
    small terms.  At d=50 the gap must match that leading term; the 0.01
    tolerance holds from d=102, the first degree with 1/(d-1) < 0.01.
    """
    p = 0.1
    value = analysis.pd_spy_adaptive(50, p)
    rel = (50 - 1) * (value - p) - 1.0
    far = analysis.pd_spy_adaptive(102, p)
    report(f"criterion 7 (asymptote) d=50, p={p}: {value:.4f}, gap {value - p:.4f} "
           f"= (1{rel:+.1e})/(d-1); d=102: gap {far - p:.4f} (tolerance 0.01)")
    assert p < value
    assert abs(rel) < 1e-3
    assert 0.0 < far - p < 0.01


def test_criterion_08_first_spy_bounds():
    q_spreading, balanced = criterion_08_runs(workers=2)
    # probability-q spreading: the first spy's parent beats 1-(1-qp)^d
    row = q_spreading.row()
    cfg = row.config
    bound = 1.0 - (1.0 - cfg.protocol.q * cfg.p) ** cfg.d
    assert row.p_hat >= bound - 3.0 * sigma(bound, row.trials)
    # any protocol: the floor p
    floor, = compared([balanced], "first_spy_floor")
    assert floor.flag == 0
    report(f"criterion 8 PASS: first-spy on q-spreading {row.p_hat:.3f} >= {bound:.3f} "
           f"(z={(row.p_hat - bound) / sigma(bound, row.trials):+.2f}); "
           f"balanced protocol {floor.p_hat:.3f} >= p={floor.p} (z={z_of(floor):+.2f})")


def test_criterion_09_grid():
    g = grid()
    rng = np.random.default_rng(909)
    lines = []
    for T, trials in ((4, 20_000), (8, 15_000), (12, 8_000)):
        pred = analysis.grid_predictions(T)
        counts = np.zeros(T // 2)
        det = 0
        for _ in range(trials):
            s = spread_grid(g, (0, 0), ProtocolParams(kind="grid-adaptive", horizon=T), rng=rng)
            assert s.n_infected == pred.n_even_exact
            counts[s.h_T - 1] += 1
            est = estimate_snapshot_regular(s, rng=rng)
            det += int(est.v_hat == (0, 0))
        p_hat = det / trials
        assert p_hat <= pred.pd_upper_bound + 3.0 * sigma(pred.pd_upper_bound, trials)
        pval = chisquare(counts, analysis.grid_state_distribution(T) * trials).pvalue
        assert pval > 0.001
        lines.append(f"T={T}: N={pred.n_even_exact}, p_hat={p_hat:.4f} <= {pred.pd_upper_bound:.4f}, "
                     f"chi2 p={pval:.3f}")
    report("criterion 9 PASS: " + "; ".join(lines))


def test_criterion_10_line():
    rng = np.random.default_rng(1010)

    # (a) the latent-coin walk matches the exact schedule on the line
    net2 = regular_tree(2)
    T, n = 16, 8000
    ca = np.zeros(T // 2)
    cp = np.zeros(T // 2)
    for _ in range(n):
        a = spread_adaptive(net2, 0, ProtocolParams(horizon=T), rng=rng)
        ca[a.h_T - 1] += 1
        b, _ = spread_polya_line(5000, 2500, rng=rng, horizon=T)
        cp[b.h_T - 1] += 1
    pval = chi2_contingency(np.vstack([ca, cp])).pvalue
    assert pval > 0.001

    # (b), (c): end-spy detection against the closed-form bound and scaling
    rows = compared(criterion_10_runs(workers=2), "line_bound")
    assert [r.flag for r in rows] == [0, 0]
    short, long = rows
    ratio = long.p_hat / short.p_hat
    assert abs(ratio - 0.5) <= 0.1
    report(f"criterion 10 PASS: walk-equivalence p={pval:.3f}; detection " + ", ".join(
        f"n={r.config.line_n}: {r.p_hat:.3f} (bound {r.predicted:.3f}, z={z_of(r):+.2f})" for r in rows)
        + f"; ratio {ratio:.3f}")


def test_criterion_11_spy_snapshot():
    # analytic curve: monotone in p at both depths
    for T in (4, 8):
        vals = [analysis.pd_spy_snapshot(3, p, T) for p in np.linspace(0.05, 0.5, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    # Monte Carlo at five grid points
    rows = compared(criterion_11_runs(workers=2), "pd_spy_snapshot")
    assert [r.flag for r in rows] == [0] * 5

    gap = abs(analysis.pd_spy_snapshot(3, 0.2, 16) - analysis.pd_spy_adaptive(3, 0.2))
    assert gap < 0.02
    report("criterion 11 PASS: monotone curves; " + "; ".join(
        f"p={r.p}: {r.p_hat:.4f} vs {r.predicted:.4f} (z={z_of(r):+.2f})" for r in rows) +
        f"; depth-16 gap to the pure-spy value {gap:.5f}")


def test_criterion_12_real_graph_pipeline():
    rng = np.random.default_rng(1212)
    if FACEBOOK_EDGELIST and os.path.exists(FACEBOOK_EDGELIST):
        from anonspread.graph import load_edge_list
        g0 = load_edge_list(FACEBOOK_EDGELIST)
        g = prune_min_degree(g0, 3)
        assert g.n_nodes == 9502
        gated = True
    else:
        g = criterion_12_graph()
        gated = False
    nodes = g.nodes()

    reaches = []
    for _ in range(20):
        src = nodes[int(rng.integers(len(nodes)))]
        s = spread_tree_protocol(g, src, ProtocolParams(kind="tree-protocol", horizon=20), rng=rng)
        reaches.append(s.n_infected / g.n_nodes)
    reach = float(np.mean(reaches))
    if gated:
        assert reach >= 0.75

    balanced, plain = criterion_12_runs(workers=2, trials=200 if gated else 150, graph=g)
    for a, d in zip(balanced.rows, plain.rows):
        assert a.detections < d.detections  # balanced spreading hides better than plain spreading
    if gated:
        assert 0.04 <= balanced.row(0).p_hat <= 0.16  # at p=0.05
    label = "dataset" if gated else "synthetic substitute"
    report(f"criterion 12 PASS ({label}): reach@20={reach:.2f}; " + "; ".join(
        f"p={a.p}: balanced {a.p_hat:.3f} < plain {d.p_hat:.3f}" for a, d in zip(balanced.rows, plain.rows)))


def test_criterion_13_multiple_snapshots():
    lines = []
    for T in (4, 8):
        pred = analysis.pd_multiple_snapshots(3, T)
        det, n, inc = multi_snapshot_detection_mc(3, T, 20_000, seed=1313 + T)
        z = (det / n - pred) / sigma(pred, n)
        lines.append(f"T={T}: {det/n:.4f} vs {pred:.4f} (z={z:+.2f})")
        assert abs(z) <= 3.0
        assert inc == 0
    report("criterion 13 PASS: " + "; ".join(lines))


@pytest.mark.parametrize("runs, trials", [
    (criterion_01_runs, 300),
    (criterion_03_runs, 300),
    (criterion_08_runs, 300),
    (criterion_10_runs, 300),
    (criterion_11_runs, 200),
    (lambda workers, trials: criterion_12_runs(workers, trials, criterion_12_graph()), 10),
], ids=["criterion-01", "criterion-03", "criterion-08", "criterion-10", "criterion-11", "criterion-12"])
def test_pooled_rows_equal_serial_rows(runs, trials):
    """A slice of each criterion's runs gives the same rows, field for
    field, on one worker and on two.  Criterion 12's trials take about 25 ms
    each, so its slice is 10 trials per cell."""
    serial, pooled = ([summary_csv_text(s) for s in runs(workers, trials)] for workers in (1, 2))
    assert pooled == serial
