import math

import numpy as np
import pytest

from anonspread.adversary import (
    _children_from_center,
    _oriented_children,
    _path_up,
    _token_path_scores,
    estimate_first_spy,
    estimate_irregular_ml,
    estimate_line_ml,
    estimate_map_leaf,
    estimate_paad_map,
    estimate_snapshot_regular,
    estimate_spy_irregular,
    estimate_spy_ml,
    estimate_spy_snapshot,
    irregular_ml_scores,
    paad_map_scores,
)
from anonspread.graph import (
    degree_distribution,
    from_edges,
    galton_watson_tree,
    prune_min_degree,
    regular_tree,
    synthetic_heavy_tail,
)
from anonspread.harness import PROTOCOLS
from anonspread.spread import (
    InfectionSnapshot,
    LineTrace,
    ProtocolParams,
    SpyObservation,
    assign_spies,
    observations_for,
    spread_adaptive,
    spread_paad,
    spread_tree_protocol,
)
from helpers import (
    TreeAdjacency,
    eight_node_snapshot,
    oracle_trajectory_likelihood,
    reference_boundary,
    reference_orientation,
)

RNG = np.random.default_rng


def spine_example():
    """Tree-protocol run on a 3-regular tree where spies at nodes 3, 7, 8
    pin the source exactly: spine 0-1-2-5-8 with cascades."""
    edges = [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (4, 6), (4, 7), (5, 8), (5, 9),
             (8, 20), (8, 21), (9, 10), (9, 11), (3, 30), (3, 31), (0, 40), (0, 41),
             (6, 60), (6, 61), (7, 70), (7, 71), (30, 32), (30, 33), (31, 34), (31, 35),
             (40, 42), (40, 43), (41, 44), (41, 45), (10, 12), (10, 13), (11, 14), (11, 15)]
    net = from_edges(edges)
    obs = [
        SpyObservation(node=3, time=2, parent=1, direction="down", level=0),
        SpyObservation(node=7, time=4, parent=4, direction="down", level=0),
        SpyObservation(node=8, time=4, parent=5, direction="up", level=4),
    ]
    return net, obs


HEAVY_TAIL = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
TOKEN_WALK_PARAMS = {  # every token-walk protocol that runs off the grid
    "exact": dict(kind="adaptive", d0=3),
    "always-pass": dict(kind="adaptive", alpha_policy="always-pass"),
    "paad": dict(kind="paad", g=1),
    "tree-protocol": dict(kind="tree-protocol"),
}


def _token_walk_snapshots(network: str, kind: str, trials=4):
    """Snapshots of one token-walk protocol at every T from 0 to 9 on
    `network`: the lazy regular tree, a Galton-Watson tree or the pruned
    heavy-tailed graph."""
    rng = RNG(17)
    for T in range(10):
        for _ in range(trials):
            if network == "regular-tree":
                net, src = regular_tree(3), 0
            elif network == "galton-watson":
                net, src = galton_watson_tree({2: 0.3, 3: 0.4, 5: 0.3}, int(rng.integers(2**60))), 0
            else:
                net, src = HEAVY_TAIL, HEAVY_TAIL.nodes()[int(rng.integers(HEAVY_TAIL.n_nodes))]
            params = ProtocolParams(horizon=T, **TOKEN_WALK_PARAMS[kind])
            yield PROTOCOLS[params.kind](net, src, params, rng)


def _items(m: dict) -> list:
    return list(m.items())  # the order too


@pytest.mark.parametrize("kind", sorted(TOKEN_WALK_PARAMS))
@pytest.mark.parametrize("network", ["regular-tree", "galton-watson", "explicit"])
def test_orientation_matches_a_breadth_first_search(network, kind):
    """The one-pass orientation gives the child lists, up-parents and depths
    of a breadth-first search over the undirected tree, in its order, from
    the center and from the source; boundary() gives its degree-1 nodes."""
    seen_mid_pass = seen_t0 = seen_t1 = False
    for snap in _token_walk_snapshots(network, kind):
        seen_mid_pass |= snap.mid_pass
        seen_t0 |= snap.T == 0 and snap.virtual_source == snap.source
        seen_t1 |= snap.T == 1
        children, up, depth = _children_from_center(snap)
        ref = reference_orientation(snap, snap.virtual_source)
        assert _items(children) == _items(ref[0])
        assert _items(up) == _items(ref[1])
        assert _items(depth) == _items(ref[2])
        for root in {*snap.centers, snap.source}:
            assert _items(_oriented_children(snap, root)) == _items(reference_orientation(snap, root)[0])
        assert snap.boundary() == reference_boundary(snap)
    assert seen_t0 and seen_t1 and (seen_mid_pass or kind == "tree-protocol")


def test_orientation_of_a_tree_whose_parent_pointers_start_at_the_center():
    _, snap = eight_node_snapshot()  # rooted at its center 3, not at the source 1
    for root in snap.time:
        assert _items(_oriented_children(snap, root)) == _items(reference_orientation(snap, root)[0])
    assert snap.boundary() == reference_boundary(snap)


@pytest.mark.parametrize("parent", [{1: 2, 2: 1}, {1: None, 2: 2}, {2: 1, 1: None}])
def test_orientation_refuses_a_parent_listed_after_its_child(parent):
    # a cycle, a node its own parent, a child above its parent: each raises instead of looping
    snap = InfectionSnapshot(protocol="adaptive", T=2, source=1, time=dict.fromkeys(parent, 0), parent=parent,
                             vs_events=[(0, 1, 0), (1, 2, 1)])
    with pytest.raises(KeyError):
        _oriented_children(snap, 2)


class TestTokenPathScores:
    def test_a_childless_node_above_depth_h_ends_its_path(self):
        # the token went 0 -> 1 -> 2; from the center 2, node 4 is a leaf at
        # depth 1 and the candidates are 0 and 5 at depth h_T = 2
        net = from_edges([(0, 1), (0, 3), (1, 2), (1, 5), (2, 4), (0, 6), (0, 7), (5, 8)])
        parent = {0: None, 1: 0, 3: 0, 2: 1, 5: 1, 4: 2}
        snap = InfectionSnapshot(protocol="adaptive", T=4, source=0, time=dict.fromkeys(parent, 0),
                                 parent=parent, vs_events=[(0, 0, 0), (1, 1, 1), (4, 2, 2)])
        assert _items(_token_path_scores(net, snap)) == [(0, 1 / 8), (5, 1 / 4)]

    @pytest.mark.parametrize("kind", sorted(TOKEN_WALK_PARAMS))
    def test_equals_the_walk_up_from_each_candidate(self, kind):
        """Each candidate's score is 1/deg(v) divided by the child count of
        every interior node on its path to the center."""
        for snap in _token_walk_snapshots("explicit", kind):
            if snap.T % 2:
                continue
            children, up, depth = reference_orientation(snap, snap.virtual_source)
            expected = []
            for v, dv in depth.items():
                if dv == snap.h_T:
                    interior = _path_up(up, v)[1:-1]
                    expected.append((v, 1 / HEAVY_TAIL.degree(v) / math.prod(len(children[w]) for w in interior)))
            got = _items(_token_path_scores(HEAVY_TAIL, snap))
            assert [v for v, _ in got] == [v for v, _ in expected]
            assert [s for _, s in got] == pytest.approx([s for _, s in expected], rel=1e-12)


class TestSnapshotUniform:
    def test_t0_returns_source(self):
        net = regular_tree(3)
        s = spread_adaptive(net, 0, ProtocolParams(horizon=0), rng=RNG(0))
        assert estimate_snapshot_regular(s, rng=RNG(0)).v_hat == 0

    def test_t1_pins_source(self):
        net = regular_tree(3)
        s = spread_adaptive(net, 0, ProtocolParams(horizon=1), rng=RNG(1))
        est = estimate_snapshot_regular(s, rng=RNG(0))
        assert est.candidates == [0] and est.v_hat == 0

    def test_candidate_counts(self):
        net = regular_tree(3)
        rng = RNG(2)
        for _ in range(30):
            s = spread_adaptive(net, 0, ProtocolParams(horizon=5), rng=rng)
            est = estimate_snapshot_regular(s, rng=rng)
            expect = s.n_infected - (2 if s.mid_pass else 1)
            assert est.tie_count == expect
            assert 0 in est.candidates

    def test_uniform_tie_fairness(self):
        net = regular_tree(3)
        s = spread_adaptive(net, 0, ProtocolParams(horizon=4), rng=RNG(3))
        rng = RNG(4)
        n = 100_000
        counts = {}
        for _ in range(n):
            v = estimate_snapshot_regular(s, rng=rng).v_hat
            counts[v] = counts.get(v, 0) + 1
        p = 1.0 / (s.n_infected - 1)
        assert len(counts) == s.n_infected - 1
        for c in counts.values():
            assert abs(c - n * p) < 3 * np.sqrt(n * p * (1 - p)) + 1


class TestIrregularML:
    def test_pinned_score_vectors(self):
        net, snap = eight_node_snapshot()
        score2, _ = irregular_ml_scores(net, snap, 2)
        assert [score2[v] for v in range(1, 9)] == [1 / 2, 1, 0, 1, 2 / 3, 1 / 2, 1 / 2, 1 / 4]
        score4, _ = irregular_ml_scores(net, snap, 4)
        assert [score4[v] for v in range(1, 9)] == [3, 2, 0, 2, 4 / 3, 3, 3, 3 / 2]

    def test_pinned_likelihood(self):
        net, snap = eight_node_snapshot()
        _, like = irregular_ml_scores(net, snap, 3)
        assert like[5] == pytest.approx(1 / 9, abs=1e-15)

    def test_argmax_sets(self):
        net, snap = eight_node_snapshot()
        est2 = estimate_irregular_ml(net, snap, 2, rng=RNG(0))
        assert est2.v_hat in {2, 4} and est2.tie_count == 2
        est4 = estimate_irregular_ml(net, snap, 4, rng=RNG(0))
        assert est4.v_hat in {1, 6, 7} and est4.tie_count == 3

    def test_rejects_odd_time(self):
        net = regular_tree(3)
        s = spread_adaptive(net, 0, ProtocolParams(horizon=5), rng=RNG(5))
        with pytest.raises(ValueError):
            estimate_irregular_ml(net, s, 3, rng=RNG(0))

    def test_cyclic_variant_scores_leaves_with_open_degrees(self):
        from anonspread.graph import prune_min_degree, synthetic_heavy_tail
        from anonspread.spread import spread_adaptive as run_spread

        g = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
        rng = RNG(44)
        nodes = g.nodes()
        hits = 0
        for _ in range(60):
            src = nodes[int(rng.integers(len(nodes)))]
            s = run_spread(g, src, ProtocolParams(alpha_policy="always-pass", horizon=6), rng=rng)
            est = estimate_irregular_ml(g, s, 4, rng=rng)
            assert est.v_hat in s.boundary()
            hits += int(est.v_hat == src)
        assert hits >= 1  # far better than blind guessing on a 400-node graph

    def test_cyclic_variant_beats_blind_boundary_guess(self):
        # baseline: a uniform guess over the boundary leaves, which hits with
        # b = 1/|boundary| per trial, so its hit count has mean sum(b) and
        # variance sum(b*(1-b))
        from anonspread.graph import prune_min_degree, synthetic_heavy_tail

        g = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
        rng = RNG(45)
        nodes = g.nodes()
        n, hits, mean_b, var_b = 600, 0, 0.0, 0.0
        for _ in range(n):
            src = nodes[int(rng.integers(len(nodes)))]
            s = spread_adaptive(g, src, ProtocolParams(alpha_policy="always-pass", horizon=6), rng=rng)
            est = estimate_irregular_ml(g, s, 4, rng=rng)
            assert src in est.candidates
            hits += int(est.v_hat == src)
            b = 1.0 / len(s.boundary())
            mean_b += b
            var_b += b * (1.0 - b)
        z = (hits - mean_b) / np.sqrt(var_b)
        assert z >= 3.0, (hits / n, mean_b / n, z)

    def test_matches_oracle_on_random_trees(self):
        rng = RNG(6)
        dist = degree_distribution({3: 0.5, 4: 0.5})
        for _ in range(60):
            net = galton_watson_tree(dist, int(rng.integers(2**60)))
            T = int(rng.choice([2, 4, 6]))
            d0 = int(rng.choice([2, 3, 4]))
            s = spread_adaptive(net, 0, ProtocolParams(horizon=T, d0=d0), rng=rng)
            _, like = irregular_ml_scores(net, s, d0)
            for v in s.time:
                o = oracle_trajectory_likelihood(net, s, v, d0)
                assert o == pytest.approx(like[v], rel=1e-9, abs=1e-300)

    def test_oracle_refuses_large_t(self):
        net, snap = eight_node_snapshot()
        snap.T = 14
        with pytest.raises(ValueError):
            oracle_trajectory_likelihood(net, snap, 1, 3)

    def test_oracle_uniform_on_regular_trees(self):
        # matched schedule: every non-center node is equally likely
        net = regular_tree(3)
        s = spread_adaptive(net, 0, ProtocolParams(horizon=4), rng=RNG(77))
        vals = {oracle_trajectory_likelihood(net, s, v, 3) for v in s.time if v != s.virtual_source}
        assert max(vals) == pytest.approx(min(vals), rel=1e-12)
        # a max-depth candidate admits exactly one trajectory: all passes
        leaf = next(v for v in s.boundary() if v != s.virtual_source)
        from anonspread.spread import alpha_regular
        expect = (1 / 3) * (1 / 2) * (1 - alpha_regular(3, 2, 1))
        assert oracle_trajectory_likelihood(net, s, leaf, 3) == pytest.approx(expect)


class TestTreeProtocolSnapshots:
    """The tree protocol's token trace follows its center, so the source
    sits h_T hops from it in the infection tree, as the estimators assume."""

    def test_cyclic_irregular_ml_holds_the_source(self):
        from anonspread.graph import prune_min_degree, synthetic_heavy_tail

        g = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
        rng = RNG(30)
        for T in (2, 4, 6, 8):
            for _ in range(25):
                source = g.nodes()[int(rng.integers(g.n_nodes))]
                s = spread_tree_protocol(g, source, ProtocolParams(kind="tree-protocol", horizon=T), rng=rng)
                est = estimate_irregular_ml(g, s, 3, rng=rng)
                assert source in est.candidates

    def test_map_leaf_holds_the_source_on_regular_trees(self):
        rng = RNG(31)
        for T in (2, 4, 6):
            for _ in range(25):
                net = regular_tree(4)
                s = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=T), rng=rng)
                assert s.h_T == T // 2
                assert 0 in estimate_map_leaf(net, s, rng=rng).candidates


class TestMapLeaf:
    def test_regular_tree_all_leaves_tie(self):
        net = regular_tree(3)
        rng = RNG(7)
        s = spread_adaptive(net, 0, ProtocolParams(alpha_policy="always-pass", horizon=6), rng=rng)
        est = estimate_map_leaf(net, s, rng=rng)
        assert est.tie_count == len(s.boundary())
        d, half = 3, 3
        assert est.info["lambda"] == pytest.approx(d * (d - 1) ** (half - 1))
        assert est.info["pd_conditional"] == pytest.approx((d - 1) / d * (d - 1) ** (-half))

    def test_line_snapshot(self):
        net = regular_tree(2)
        s = spread_adaptive(net, 0, ProtocolParams(alpha_policy="always-pass", horizon=6), rng=RNG(8))
        est = estimate_map_leaf(net, s, rng=RNG(0))
        assert est.info["lambda"] == pytest.approx(2.0)
        assert est.info["pd_conditional"] == pytest.approx(0.5)
        assert est.tie_count == 2

    def test_low_degree_path_dominates(self):
        # center degree 2, one degree-3 path, bulk degree 5: the low-degree
        # path leaf attains the extremal score and detection is 2^(-T/2)
        # (the sibling hanging off the last path node ties with it)
        net, snap, special = _extreme_snapshot(T=6, d=5)
        est = estimate_map_leaf(net, snap, rng=RNG(9))
        assert est.scores[special] == max(est.scores.values())
        assert est.info["pd_conditional"] == pytest.approx(2.0 ** (-3))

    def test_score_sum_identity(self):
        rng = RNG(10)
        dist = degree_distribution({3: 0.4, 4: 0.6})
        for _ in range(20):
            net = galton_watson_tree(dist, int(rng.integers(2**60)))
            s = spread_adaptive(net, 0,
                                ProtocolParams(alpha_policy="always-pass", horizon=6), rng=rng)
            est = estimate_map_leaf(net, s, rng=rng)
            assert sum(est.scores.values()) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_interior_source(self):
        net = regular_tree(3)
        rng = RNG(123)
        while True:
            s = spread_adaptive(net, 0, ProtocolParams(horizon=6), rng=rng)
            if s.h_T < s.T // 2:
                break
        with pytest.raises(ValueError):
            estimate_map_leaf(net, s, rng=RNG(0))

    def test_forced_keep_on_finite_graph_is_inconclusive(self):
        # the first trial of seed 0 whose always-pass spread met a holder with
        # no tree child, so the token was kept and the source is not at a leaf
        import math

        from anonspread.graph import prune_min_degree, synthetic_heavy_tail
        from anonspread.harness import ExperimentConfig, _trial_rng, run_trial

        g = prune_min_degree(synthetic_heavy_tail(400, 3), 3)
        proto = ProtocolParams(kind="adaptive", d0=math.inf, horizon=8)
        for index in range(5000):
            rng = _trial_rng(0, index)
            source = g.nodes()[int(rng.integers(g.n_nodes))]
            s = spread_adaptive(g, source, proto, rng=rng)
            if s.h_T < s.T // 2:
                break
        else:
            pytest.fail("no forced keep in the first 5,000 trials")
        assert s.h_T < s.T // 2
        est = estimate_map_leaf(g, s, rng=RNG(0))
        assert est.inconclusive and est.v_hat is None and est.candidates == []
        assert "token kept" in est.info["reason"]
        with pytest.raises(ValueError):  # read as an infinite tree, this spread was not always-pass
            estimate_map_leaf(TreeAdjacency(g.adj), s, rng=RNG(0))

        cfg = ExperimentConfig(network="explicit", graph=g, protocol=proto,
                               adversary="map-leaf", trials=1, seed=0)
        rec = run_trial(cfg, index, g)
        assert rec.inconclusive == 1 and rec.detected == 0 and rec.hop_distance is None


def _extreme_snapshot(T, d=5):
    """(network, snapshot, source): a balanced snapshot with a low-degree
    path from the center to one leaf, on a tree that ends one ring past it."""
    half = T // 2
    ids = iter(range(10**6))
    adj = {}

    def link(a, b):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    center = next(ids)
    degree_of = {center: 2}
    prev = center
    path = [center]
    for _ in range(half - 1):
        w = next(ids)
        degree_of[w] = 3
        link(prev, w)
        path.append(w)
        prev = w
    special = next(ids)
    degree_of[special] = d
    link(prev, special)
    path.append(special)

    stack = [(center, 1, 1)]
    for i, w in enumerate(path[1:-1], start=1):
        stack.append((w, i + 1, 1))
    stack.append((special, half + 1, d - 1))
    while stack:
        node, depth, slots = stack.pop()
        if depth > half + 1:
            continue
        for _ in range(slots):
            w = next(ids)
            degree_of[w] = d
            link(node, w)
            stack.append((w, depth + 1, d - 1))

    from collections import deque
    dist = {center: 0}
    dq = deque([center])
    while dq:
        u = dq.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                dq.append(w)
    time = {u: dv for u, dv in dist.items() if dv <= half}
    parent = {u: (None if dist[u] == 0 else next(w for w in adj[u] if dist[w] == dist[u] - 1))
              for u in time}
    snap = InfectionSnapshot(
        protocol="paad", T=T, source=special, time=time, parent=parent,
        vs_events=[(0, special, 0), (T, center, half)],
    )
    return TreeAdjacency(adj), snap, special


class TestPaadMap:
    def test_regular_tree_ties(self):
        net = regular_tree(3)
        s = spread_paad(net, 0, ProtocolParams(kind="paad", g=1, horizon=6), rng=RNG(11))
        scores = paad_map_scores(net, s, 1)
        vals = list(scores.values())
        assert max(vals) == pytest.approx(min(vals))

    def test_low_degree_path_bound(self):
        # the heavy-tailed counterexample: weighted passing keeps detection
        # below 2/((d-1)^(T/2-1)-1) at small depths
        for T in (4, 6):
            net, snap, special = _extreme_snapshot(T, d=5)
            scores = paad_map_scores(net, snap, 1)
            det = max(scores.values()) / sum(scores.values())
            assert det <= 2.0 / (4 ** (T // 2 - 1) - 1)

    def test_detection_formula_self_consistent(self):
        # empirical detection equals the mean reported conditional probability
        rng = RNG(12)
        dist = degree_distribution({3: 0.5, 4: 0.5})
        det, cond, n = 0, 0.0, 1500
        for _ in range(n):
            net = galton_watson_tree(dist, int(rng.integers(2**60)))
            s = spread_paad(net, 0, ProtocolParams(kind="paad", g=1, horizon=4), rng=rng)
            est = estimate_paad_map(net, s, 1, rng=rng)
            det += int(est.v_hat == 0)
            cond += est.info["pd_conditional"]
        ph, pc = det / n, cond / n
        assert abs(ph - pc) < 4 * np.sqrt(pc * (1 - pc) / n)

    @pytest.mark.parametrize("g", [1, 2])
    def test_cyclic_score_is_the_spreads_pick_probability(self, g, monkeypatch):
        # the spread's own next-holder weights, recorded through the
        # _vs_weights hook, give the probability of the token path it took;
        # the cyclic score of the true source must be exactly that
        from anonspread import spread
        from anonspread.graph import prune_min_degree, synthetic_heavy_tail

        real_spread, picks = spread.spread_adaptive, []

        def recording(net, source, params, rng=None, _vs_weights=None, _protocol_name="adaptive", **kw):
            def weights(net_, holder, candidates):
                w = _vs_weights(net_, holder, candidates)
                picks.append((list(candidates), list(w)))
                return w
            return real_spread(net, source, params, rng=rng, _vs_weights=weights,
                               _protocol_name=_protocol_name, **kw)

        monkeypatch.setattr(spread, "spread_adaptive", recording)
        net = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
        rng = RNG(46)
        nodes = net.nodes()
        for _ in range(40):
            picks.clear()
            src = nodes[int(rng.integers(len(nodes)))]
            s = spread_paad(net, src, ProtocolParams(kind="paad", g=g, horizon=6), rng=rng)
            assert len(picks) == len(s.vs_events) - 1  # a pick for every hand-off
            prob = 1.0
            for (candidates, w), (_, holder, _) in zip(picks, s.vs_events[1:]):
                prob *= w[candidates.index(holder)] / sum(w)
            assert paad_map_scores(net, s, g)[src] == pytest.approx(prob, rel=1e-12)

    def test_cyclic_beats_blind_guess_at_depth_h(self):
        # baseline: a uniform guess over the infected nodes h_T hops from the
        # center, where the source sits; it hits with b = 1/|candidates|
        from anonspread.graph import prune_min_degree, synthetic_heavy_tail

        net = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
        rng = RNG(47)
        nodes = net.nodes()
        n, hits, mean_b, var_b = 200, 0, 0.0, 0.0
        for _ in range(n):
            src = nodes[int(rng.integers(len(nodes)))]
            s = spread_paad(net, src, ProtocolParams(kind="paad", g=1, horizon=6), rng=rng)
            est = estimate_paad_map(net, s, 1, rng=rng)
            assert src in est.candidates
            hits += int(est.v_hat == src)
            b = 1.0 / len(est.candidates)
            mean_b += b
            var_b += b * (1.0 - b)
        z = (hits - mean_b) / np.sqrt(var_b)
        assert z >= 3.0, (hits / n, mean_b / n, z)


class TestSpyML:
    def test_worked_example(self):
        net, obs = spine_example()
        est = estimate_spy_ml(net, obs, rng=RNG(13))
        assert est.candidates == [0]
        assert est.info["pivot"] == 1 and est.info["pivot_level"] == 1
        pivots = {p.pivot: p for p in est.info["pivots"]}
        assert pivots[2].level == 2 and pivots[2].eliminated == 4
        assert pivots[1].level == 1 and pivots[1].eliminated == 3

    def test_no_spine_spy_is_inconclusive(self):
        net, obs = spine_example()
        est = estimate_spy_ml(net, [o for o in obs if o.direction == "down"], rng=RNG(0))
        assert est.inconclusive

    def test_no_pivots_uniform_over_feasible(self):
        net, obs = spine_example()
        est = estimate_spy_ml(net, [o for o in obs if o.node == 8], rng=RNG(0))
        # feasible leaves: distance exactly 4 behind node 5, including the
        # grandchildren hanging under node 9
        assert sorted(est.candidates) == [0, 3, 6, 7, 12, 13, 14, 15]

    def test_region_that_ends_before_the_level_gives_no_candidates(self):
        # behind spine spy 2 the graph holds only 2 more hops, not 5
        net = from_edges([(0, 1), (1, 2), (2, 3)])
        est = estimate_spy_ml(net, [SpyObservation(2, 5, 1, "up", 5)], rng=RNG(0))
        assert est.inconclusive and est.candidates == []

    def test_pivot_consistency(self):
        # on live spreads every pivot satisfies the distance/time split
        net = regular_tree(3)
        rng = RNG(14)
        for _ in range(50):
            s = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=12), rng=rng)
            spies = assign_spies(s, 0.3, int(rng.integers(2**62)))
            obs = observations_for(s, spies)
            est = estimate_spy_ml(net, obs, rng=rng)
            if est.inconclusive:
                continue
            assert 0 in est.candidates
            for p in est.info["pivots"]:
                assert p.h_spy_pivot + p.h_pivot_anchor >= 0


class TestFirstSpy:
    def test_adjacent_spy_detects(self):
        obs = [SpyObservation(node=5, time=1, parent=0)]
        assert estimate_first_spy(obs, rng=RNG(0)).v_hat == 0

    def test_earliest_wins(self):
        obs = [SpyObservation(node=5, time=3, parent=4),
               SpyObservation(node=9, time=1, parent=7)]
        assert estimate_first_spy(obs, rng=RNG(0)).v_hat == 7

    def test_empty_inconclusive(self):
        assert estimate_first_spy([], rng=RNG(0)).inconclusive


class TestSpyIrregular:
    def test_uniform_on_regular_trees(self):
        net, obs = spine_example()
        est = estimate_spy_irregular(net, obs, rng=RNG(15))
        ml = estimate_spy_ml(net, obs, rng=RNG(15))
        assert sorted(est.candidates) == sorted(ml.candidates)
        assert len(set(round(v, 12) for v in est.scores.values())) == 1

    def test_prefers_low_degree_paths(self):
        # hand-built tree: candidates reach the pivot through interiors of
        # degree 3 (product 6) or degree 2 (product 4); the lighter path wins
        edges = [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (0, 6), (6, 7), (6, 8), (6, 9),
                 (3, 10), (4, 11), (5, 12), (7, 13), (8, 14), (9, 15)]
        net = from_edges(edges)
        # anchor: spy at 0 (up, level 2, parent 1); source is 2 hops behind 1
        obs = [SpyObservation(node=0, time=2, parent=1, direction="up", level=2)]
        est = estimate_spy_irregular(net, obs, rng=RNG(16))
        assert set(est.candidates) == {2, 3}
        assert est.v_hat == 3  # deg(3)*(deg(1)-1) = 4 < deg(2)*(deg(1)-1) = 6


class TestLineML:
    def test_substitution_examples(self):
        tr = LineTrace(n=101, q=0.5, direction="right", first_spy=0, t_first=3)
        assert estimate_line_ml(tr).v_hat == 1
        tr = LineTrace(n=101, q=0.3, direction="left", first_spy=0, t_first=5)
        assert estimate_line_ml(tr).v_hat == 4  # (5+3)/2 + floor(.3*2)

    def test_even_away_impossible(self):
        tr = LineTrace(n=11, q=0.5, direction="right", first_spy=0, t_first=4)
        with pytest.raises(ValueError):
            estimate_line_ml(tr)

    def test_mirrored_spy(self):
        # first report from the right end mirrors the left-end formulas
        tr = LineTrace(n=11, q=0.5, direction="left", first_spy=12, t_first=3)
        assert estimate_line_ml(tr).v_hat == 11  # mirror of candidate 1

    def test_matches_enumerated_argmax(self):
        from anonspread.spread import spread_polya_line

        rng = RNG(17)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            src = int(rng.integers(1, n + 1))
            snap, tr = spread_polya_line(n, src, rng=rng)
            est = estimate_line_ml(tr)
            like = {v: _line_outcome_prob(n, tr.q, tr.direction, v, tr.t_first, tr.first_spy)
                    for v in range(1, n + 1)}
            best = max(like.values())
            assert like[est.v_hat] >= best * (1 - 1e-9)


def _line_outcome_prob(n, q, direction, v, t1, first):
    """Probability that source v yields first report (t1, first): exact
    enumeration of keep/pass sequences until a spy absorbs."""
    step = 1 if direction == "right" else -1
    out = {}

    def absorb(times):
        cand = [(t, s) for t, s in ((times.get(0), 0), (times.get(n + 1), n + 1)) if t is not None]
        if not cand:
            return None
        tm = min(t for t, _ in cand)
        return tm, [s for t, s in cand if t == tm]

    def rec(left, right, te, prob, times):
        hit = absorb(times)
        if hit:
            tm, firsts = hit
            for s in firsts:
                out[(tm, s)] = out.get((tm, s), 0.0) + prob / len(firsts)
            return
        for passed, pr in ((False, 1 - q), (True, q)):
            t2 = dict(times)
            l, r = left, right
            if passed:
                for dt in (1, 2):
                    if step > 0:
                        r += 1
                        t2.setdefault(r, te + dt)
                    else:
                        l -= 1
                        t2.setdefault(l, te + dt)
            else:
                l -= 1
                t2.setdefault(l, te + 1)
                r += 1
                t2.setdefault(r, te + 1)
            rec(l, r, te + 2, prob * pr, t2)

    times = {v: 0}
    vs = v + step
    times[vs] = 1
    l = r = v
    if step > 0:
        r = vs
    else:
        l = vs
    hit = absorb(times)
    if hit:
        tm, firsts = hit
        return (1.0 / len(firsts)) if (tm, first) in [(tm, s) for s in firsts] and tm == t1 else 0.0
    if step > 0:
        r += 1
        times.setdefault(r, 2)
    else:
        l -= 1
        times.setdefault(l, 2)
    rec(l, r, 2, 1.0, dict(times))
    return out.get((t1, first), 0.0)


class TestSpySnapshot:
    def test_no_spies_uniform_over_leaves(self):
        net = regular_tree(3)
        s = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=6), rng=RNG(18))
        est = estimate_spy_snapshot(s, [], rng=RNG(0))
        assert sorted(est.candidates, key=repr) == sorted(s.boundary(), key=repr)

    def test_source_always_survives(self):
        net = regular_tree(3)
        rng = RNG(19)
        for _ in range(200):
            s = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=6), rng=rng)
            spies = assign_spies(s, 0.3, int(rng.integers(2**62)))
            est = estimate_spy_snapshot(s, observations_for(s, spies), rng=rng)
            assert not est.inconclusive and 0 in est.candidates

    def test_spine_spy_parent_pins_branch(self):
        net = regular_tree(3)
        rng = RNG(20)
        s = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=4), rng=rng)
        spine = sorted((s.level[v], v) for v in s.time if s.direction[v] == "up" and s.level[v] >= 1)
        w1 = spine[0][1]
        est = estimate_spy_snapshot(s, observations_for(s, [w1]), rng=rng)
        assert est.candidates == [0]


class TestAdmissibility:
    def test_estimates_stay_in_their_candidate_universe(self):
        # snapshot estimators answer inside the infected set; spy estimators
        # inside the feasible region behind the anchor
        net = regular_tree(3)
        rng = RNG(55)
        for _ in range(40):
            s = spread_adaptive(net, 0, ProtocolParams(horizon=6), rng=rng)
            est = estimate_snapshot_regular(s, rng=rng)
            assert est.v_hat in s.time
            if s.T % 2 == 0:
                e2 = estimate_irregular_ml(net, s, 3, rng=rng)
                assert e2.v_hat in s.time
        for _ in range(40):
            s = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=10), rng=rng)
            spies = assign_spies(s, 0.3, int(rng.integers(2**62)))
            est = estimate_spy_ml(net, observations_for(s, spies), rng=rng)
            if est.inconclusive:
                continue
            s0 = next(o for o in observations_for(s, spies)
                      if o.node == est.info["s0"])
            from anonspread.graph import path as _net_path
            path = _net_path(net, est.v_hat, s0.node)
            assert len(path) - 1 <= s0.level
            assert path[-2] == s0.parent


class TestMultipleSnapshots:
    def test_candidate_geometry(self):
        from anonspread.harness import multi_snapshot_trial

        rng = RNG(21)
        net = regular_tree(3)
        for _ in range(100):
            det, est = multi_snapshot_trial(net, 6, rng)
            if est.inconclusive:
                continue
            h = est.info["h"]
            assert len(est.candidates) == 2 ** h
            assert 0 in est.candidates
