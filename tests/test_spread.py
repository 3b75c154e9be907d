import io

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare, ks_2samp

from anonspread import spread as spread_module
from anonspread.adversary import _children_from_center
from anonspread.analysis import (
    diffusion_expected_n,
    grid_ball_size,
    n_regular,
    state_distribution_regular,
)
from anonspread.graph import (
    ExplicitGraph,
    from_edges,
    galton_watson_tree,
    grid,
    prune_min_degree,
    regular_tree,
    synthetic_heavy_tail,
)
from helpers import reference_flood
from anonspread.spread import (
    ProtocolParams,
    alpha_grid,
    alpha_regular,
    assign_spies,
    spread_adaptive,
    spread_diffusion,
    spread_grid,
    spread_paad,
    spread_polya_line,
    spread_tree_protocol,
)


class TestKeepProbabilities:
    def test_line_values(self):
        assert alpha_regular(2, 2, 1) == pytest.approx(0.5)
        assert alpha_regular(2, 4, 1) == pytest.approx(2 / 3)

    def test_degree3(self):
        assert alpha_regular(3, 2, 1) == pytest.approx(1 / 3)

    def test_grid_values(self):
        assert alpha_grid(2, 1) == pytest.approx(1 / 3)
        assert alpha_grid(4, 1) == pytest.approx(1 / 2)
        assert alpha_grid(4, 2) == pytest.approx(1 / 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            alpha_regular(3, 4, 3)
        with pytest.raises(ValueError):
            alpha_grid(3, 1)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(d0=1)
        for q in (0.0, 1.5, None):
            with pytest.raises(ValueError, match=r"diffusion requires q in \(0, 1\]"):
                ProtocolParams(kind="diffusion", q=q)
        assert ProtocolParams(kind="diffusion", q=1.0).q == 1.0  # flooding
        with pytest.raises(ValueError):
            ProtocolParams(kind="paad", g=0)
        with pytest.raises(ValueError):
            ProtocolParams(horizon=-1)
        for cap in (0, -1):
            with pytest.raises(ValueError, match="fanout_cap must be >= 1"):
                ProtocolParams(fanout_cap=cap)

    def test_infinite_d0_means_always_pass(self):
        import math

        p = ProtocolParams(d0=math.inf)
        assert p.alpha_policy == "always-pass"
        assert p.keep_probability(regular_tree(3))(4, 1) == 0.0


class TestAdaptive:
    def test_t2_structure(self):
        net = regular_tree(3)
        rng = np.random.default_rng(0)
        s = spread_adaptive(net, 0, ProtocolParams(horizon=2), rng=rng)
        assert s.n_infected == 4
        vs = s.virtual_source
        assert set(s.time) == {0, vs} | set(w for w in net.neighbors(vs) if w != 0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sizes_match_case_table(self, d):
        net = regular_tree(d)
        rng = np.random.default_rng(1)
        for T in (0, 1, 2, 3, 4, 5, 6):
            for _ in range(40):
                s = spread_adaptive(net, 0, ProtocolParams(horizon=T), rng=rng)
                if T % 2 == 0:
                    assert s.n_infected == n_regular(d, T)
                elif T == 1:
                    # the initial handoff is always mid-transition
                    assert s.n_infected == n_regular(d, 1, "passed") == 2
                else:
                    branch = "passed" if s.mid_pass else "kept"
                    assert s.n_infected == n_regular(d, T, branch)

    def test_balanced_and_nonbacktracking(self):
        net = regular_tree(3)
        rng = np.random.default_rng(2)
        for _ in range(60):
            s = spread_adaptive(net, 0, ProtocolParams(horizon=8), rng=rng)
            _, _, depth = _children_from_center(s)
            assert all(depth[v] == 4 for v in s.boundary())
            path = [v for _, v, _ in s.vs_events]
            assert len(path) == len(set(path))

    def test_always_pass_source_is_leaf(self):
        net = regular_tree(3)
        rng = np.random.default_rng(3)
        p = ProtocolParams(alpha_policy="always-pass", horizon=8)
        for _ in range(40):
            s = spread_adaptive(net, 0, p, rng=rng)
            assert 0 in s.boundary()
            assert s.h_T == 4

    def test_times_monotone_along_parents(self):
        net = galton_watson_tree({3: 0.5, 4: 0.5}, seed=11)
        rng = np.random.default_rng(4)
        s = spread_adaptive(net, 0, ProtocolParams(horizon=8, d0=3), rng=rng)
        for v, p in s.parent.items():
            if p is not None:
                assert s.time[p] <= s.time[v]

    def test_state_distribution(self):
        # h_T histogram vs the designed distribution, d=3 T=10
        d, T, n = 3, 10, 20_000
        net = regular_tree(d)
        rng = np.random.default_rng(5)
        counts = np.zeros(T // 2)
        params = ProtocolParams(horizon=T)
        for _ in range(n):
            s = spread_adaptive(net, 0, params, rng=rng)
            counts[s.h_T - 1] += 1
        expected = state_distribution_regular(d, T) * n
        assert chisquare(counts, expected).pvalue > 0.001

    @pytest.mark.parametrize("tree", [regular_tree(3), regular_tree(4),
                                      galton_watson_tree({2: 0.3, 3: 0.4, 5: 0.3}, seed=6)])
    def test_lazy_tree_wave_matches_generic_scan(self, tree):
        # the same network with its tree flag off takes _tree_link_wave
        class Untagged(type(tree)):
            is_tree = False

        generic = Untagged.__new__(Untagged)
        generic.__dict__.update(tree.__dict__)
        for T in (1, 4, 7, 8):
            for seed in range(25):
                p = ProtocolParams(horizon=T, d0=3)
                a = spread_adaptive(tree, 0, p, np.random.default_rng(seed))
                b = spread_adaptive(generic, 0, p, np.random.default_rng(seed))
                for field in ("time", "parent"):
                    assert list(getattr(a, field).items()) == list(getattr(b, field).items())
                assert (a.centers, a.vs_events) == (b.centers, b.vs_events)

    def test_gw_needs_explicit_d0(self):
        net = galton_watson_tree({3: 0.5, 4: 0.5}, seed=1)
        with pytest.raises(ValueError):
            spread_adaptive(net, 0, ProtocolParams(horizon=4), rng=np.random.default_rng(0))


def _ancestors(snap, v):
    """v and every node above it in the infection tree."""
    out = []
    while v is not None:
        out.append(v)
        v = snap.parent[v]
    return out


class TestCyclicGraphs:
    """Always-pass on a finite graph with cycles: waves relay along
    infection-tree links and the token moves to tree children only, so the
    passes stay one-sided as they are on trees."""

    T = 6

    @pytest.fixture(scope="class")
    def graph(self):
        return prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)

    def _runs(self, graph, spread, seed, n=150):
        rng = np.random.default_rng(seed)
        nodes = graph.nodes()
        for _ in range(n):
            src = nodes[int(rng.integers(len(nodes)))]
            params = ProtocolParams(kind="paad" if spread is spread_paad else "adaptive",
                                    alpha_policy="always-pass", horizon=self.T)
            yield src, spread(graph, src, params, rng=rng)

    @pytest.mark.parametrize("spread", [spread_adaptive, spread_paad])
    def test_source_is_leaf_at_depth_half_t(self, graph, spread):
        for src, s in self._runs(graph, spread, seed=31):
            assert s.h_T == self.T // 2
            assert src in s.boundary()
            _, _, depth = _children_from_center(s)
            assert depth[src] == self.T // 2

    @pytest.mark.parametrize("spread", [spread_adaptive, spread_paad])
    def test_waves_after_a_pass_stay_on_the_new_side(self, graph, spread):
        for _, s in self._runs(graph, spread, seed=32):
            holders = s.vs_events  # (time recorded, holder, h)
            for v, t in s.time.items():
                if t < 2:
                    continue
                # the waves at te+1 and te+2 follow the pass recorded at te+2
                holder = [node for tt, node, _ in holders if tt <= t + t % 2][-1]
                assert holder in _ancestors(s, s.parent[v]), (v, t, holder)


def _visited_set_wave(st, origin, blocked, t, cap, rng):
    """spread._tree_link_wave with a visited set over every scanned node."""
    parent = st.parent
    visited = {origin}
    stack = [(origin, blocked)]
    while stack:
        v, frm = stack.pop()
        relays = []
        targets = []
        for w in st.net.neighbors(v):
            if w == frm or w in visited:
                continue
            if w in st.time:
                if parent[w] != v and parent[v] != w:
                    continue
                relays.append(w)
            else:
                targets.append(w)
            visited.add(w)
        if cap is not None and len(targets) > cap:
            targets = spread_module._sample(rng, targets, cap)
        for w in targets:
            st.infect(w, t, v)
        for w in relays:
            stack.append((w, v))


class TestFiniteGraphScans:
    """Finite-graph spreads scan no neighbor list that nothing reads: the
    wave keeps only the targets it claimed."""

    SPREADS = {
        "always-pass": lambda net, src, T, rng: spread_adaptive(
            net, src, ProtocolParams(alpha_policy="always-pass", horizon=T), rng=rng),
        "d0-3-cap-2": lambda net, src, T, rng: spread_adaptive(
            net, src, ProtocolParams(d0=3, fanout_cap=2, horizon=T), rng=rng),
        "paad": lambda net, src, T, rng: spread_paad(
            net, src, ProtocolParams(kind="paad", horizon=T), rng=rng),
        "tree-protocol": lambda net, src, T, rng: spread_tree_protocol(
            net, src, ProtocolParams(kind="tree-protocol", horizon=T), rng=rng),
    }

    @pytest.fixture(scope="class")
    def graph(self):
        return prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)

    def _outputs(self, graph, spread):
        nodes = graph.nodes()
        out = []
        for T in (0, 1, 2, 5, 6, 8):
            for seed in range(8):
                rng = np.random.default_rng(1000 * T + seed)
                s = spread(graph, nodes[int(rng.integers(len(nodes)))], T, rng)
                out.append([list(getattr(s, f).items())
                            for f in ("time", "parent", "direction", "level")]
                           + [s.centers, s.mid_pass, s.vs_events, rng.random()])
        return out

    @pytest.mark.parametrize("kind", sorted(SPREADS))
    def test_matches_scanning_reference(self, kind, graph, monkeypatch):
        spread = self.SPREADS[kind]
        fast = self._outputs(graph, spread)
        monkeypatch.setattr(spread_module, "_tree_link_wave", _visited_set_wave)
        assert fast == self._outputs(graph, spread)

    def test_neighbor_queries_fewer_than_infected_nodes(self, graph):
        # a scan of every infected node, per infection or per snapshot,
        # alone makes as many queries as there are infected nodes
        class Counting(ExplicitGraph):
            calls = 0

            def neighbors(self, v):
                self.calls += 1
                return super().neighbors(v)

        net = Counting(graph.adj)
        nodes = net.nodes()
        rng = np.random.default_rng(8)
        infected = 0
        for _ in range(200):
            s = spread_adaptive(net, nodes[int(rng.integers(len(nodes)))],
                                ProtocolParams(alpha_policy="always-pass", horizon=8), rng=rng)
            infected += s.n_infected
        assert net.calls < infected, (net.calls, infected)


def _choice_sample(rng, items, k):
    """The fan-out cap draw that spread._sample replaced: rng.choice without
    replacement."""
    idx = rng.choice(len(items), size=k, replace=False)
    return [items[int(i)] for i in idx]


class TestCapDraw:
    """spread._sample draws the same law as rng.choice without replacement:
    always-pass spreads against the cyclic irregular-ml estimator on the
    bench graph give n_infected, h_T and detection that a two-sample test
    cannot tell from the old draw's."""

    TRIALS = 2000

    @pytest.fixture(scope="class")
    def graph(self):
        return prune_min_degree(synthetic_heavy_tail(1500, 5, seed=5), 3)

    @staticmethod
    def _outcomes(graph, T, seed, monkeypatch):
        import math

        from anonspread import harness

        h_T = []
        spread = harness.spread_adaptive

        def recording(*args, **kwargs):
            snap = spread(*args, **kwargs)
            h_T.append(snap.h_T)
            return snap

        cfg = harness.ExperimentConfig(network="explicit", graph=graph, adversary="irregular-ml",
                                       protocol=ProtocolParams(kind="adaptive", d0=math.inf, horizon=T),
                                       trials=TestCapDraw.TRIALS, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(harness, "spread_adaptive", recording)
            records = [harness.run_trial(cfg, i, graph) for i in range(cfg.trials)]
        return [r.n_infected for r in records], h_T, [r.detected for r in records]

    @staticmethod
    def _table(a, b):
        values = sorted(set(a) | set(b))
        return [[a.count(v) for v in values], [b.count(v) for v in values]]

    @pytest.mark.parametrize("T", [6, 8])
    def test_same_law_as_choice_draw(self, T, graph, monkeypatch):
        new = self._outcomes(graph, T, 1, monkeypatch)
        monkeypatch.setattr(spread_module, "_sample", _choice_sample)
        old = self._outcomes(graph, T, 2, monkeypatch)
        assert ks_2samp(new[0], old[0]).pvalue > 0.001  # n_infected
        for name, a, b in (("h_T", new[1], old[1]), ("detected", new[2], old[2])):
            table = self._table(a, b)
            if len(table[0]) > 1:
                assert chi2_contingency(table)[1] > 0.001, (name, table)


def _permutation_sample(rng, items, k):
    """The fan-out cap draw that the shuffle in spread._sample replaced: the
    first k entries of one permutation."""
    return [items[i] for i in rng.permutation(len(items))[:k].tolist()]


class TestShuffleDraw:
    def test_same_picks_and_draws_as_permutation(self):
        for n in [*range(2, 71), 255, 256, 257, 4097, 70_000]:
            for seed in range(4):
                for prior in (None, "int32", "uint32"):
                    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                    for rng in (a, b):
                        if prior:  # 32-bit draws before the cap draw
                            rng.integers(2**31 - 1, size=3, dtype=prior)
                    items = list(range(100, 100 + n))
                    k = max(1, n // 3)
                    assert spread_module._sample(b, list(items), k) == _permutation_sample(a, items, k)
                    assert a.random() == b.random()


class TestPick:
    def test_one_item_leaves_the_stream_as_it_was(self):
        for seed in range(4):
            for prior in (None, "int32"):  # a 32-bit draw leaves half a word buffered
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                for r in (rng, ref):
                    if prior:
                        r.integers(2**31 - 1, size=3, dtype=prior)
                before = rng.bit_generator.state
                assert spread_module._pick(rng, ["only"]) == "only"
                assert rng.bit_generator.state == before
                ref.integers(1)  # the call the one-item pick skips draws nothing either
                assert ref.bit_generator.state == before


def _snapshot_items(s, rng):
    """What a spread leaves, in order, and the next draw of its stream."""
    return ([list(s.time.items()), list(s.parent.items())]
            + [s.centers, s.mid_pass, s.vs_events, rng.random()])


class TestBallMemo:
    """Uncapped lazy-tree spreads draw the token walk first and copy the ball
    it leaves from the tree's memo when an earlier spread left it."""

    NETWORKS = {
        "d2": lambda: regular_tree(2),
        "d3": lambda: regular_tree(3),
        "d4": lambda: regular_tree(4),
        "gw": lambda: galton_watson_tree({2: 0.3, 3: 0.4, 5: 0.3}, seed=6),
    }
    SPREADS = {
        "exact": lambda net, src, T, rng: spread_adaptive(
            net, src, ProtocolParams(horizon=T, d0=None if hasattr(net, "d") else 3), rng),
        "always-pass": lambda net, src, T, rng: spread_adaptive(
            net, src, ProtocolParams(alpha_policy="always-pass", horizon=T), rng),
        "paad-g1": lambda net, src, T, rng: spread_paad(net, src, ProtocolParams(kind="paad", g=1, horizon=T), rng),
        "paad-g2": lambda net, src, T, rng: spread_paad(net, src, ProtocolParams(kind="paad", g=2, horizon=T), rng),
    }

    @pytest.mark.parametrize("kind", sorted(SPREADS))
    @pytest.mark.parametrize("network", sorted(NETWORKS))
    def test_miss_hit_and_fresh_network_agree(self, network, kind):
        make, spread = self.NETWORKS[network], self.SPREADS[kind]
        shared = make()
        for T in range(11):
            for source in (0, 5):
                for seed in range(3):
                    runs = []
                    for net in (shared, shared, make()):  # a miss or a hit, a hit, a miss
                        balls = len(shared.memo)
                        rng = np.random.default_rng(100 * T + seed)
                        runs.append(_snapshot_items(spread(net, source, T, rng), rng))
                    assert len(shared.memo) == balls  # the second run on the shared tree was a hit
                    assert runs[0] == runs[1] == runs[2], (T, source, seed)

    def test_changing_a_snapshot_changes_no_later_one(self):
        params = ProtocolParams(horizon=6)
        rng = np.random.default_rng(1)
        expected = _snapshot_items(spread_adaptive(regular_tree(3), 0, params, rng), rng)
        net = regular_tree(3)
        for _ in range(3):  # a miss, then hits
            rng = np.random.default_rng(1)
            s = spread_adaptive(net, 0, params, rng)
            assert _snapshot_items(s, rng) == expected
            s.time[next(iter(s.time))] = -1
            s.time[10**9] = 7
            s.parent.clear()
        assert len(net.memo) == 1

    @staticmethod
    def _fresh_tree_agrees(snap, rng, params, seed):
        ref_rng = np.random.default_rng(seed)
        ref = spread_adaptive(regular_tree(3), 0, params, ref_rng)
        return _snapshot_items(snap, rng) == _snapshot_items(ref, ref_rng)

    def test_memo_drops_its_oldest_balls_to_stay_within_its_node_cap(self, monkeypatch):
        monkeypatch.setattr(spread_module, "BALL_MEMO_NODES", 60)
        net = regular_tree(3)
        inserted = []  # every ball key the memo took, in order
        for seed in range(200):
            params = ProtocolParams(horizon=(4, 5, 6, 10)[seed % 4])  # 10, 14 or 22, 22 and 94 nodes
            before = list(net.memo)
            rng = np.random.default_rng(seed)
            s = spread_adaptive(net, 0, params, rng)
            assert self._fresh_tree_agrees(s, rng, params, seed), seed
            new = [key for key in net.memo if key not in before]
            assert len(new) <= 1
            inserted += new
            assert list(net.memo) == inserted[len(inserted) - len(net.memo):]  # the first in leave first
            assert net.memo.nodes == sum(len(time) for time, _ in net.memo.values()) <= 60
            if s.n_infected > 60:  # a ball larger than the cap is not kept
                assert list(net.memo) == before
            else:  # the ball this spread left is in the memo: the same walk again is a hit
                after = list(net.memo)
                spread_adaptive(net, 0, params, np.random.default_rng(seed))
                assert list(net.memo) == after
        assert len(inserted) > len(net.memo) > 1  # balls came and went

    def test_a_full_memo_takes_the_balls_of_a_new_horizon(self, monkeypatch):
        monkeypatch.setattr(spread_module, "BALL_MEMO_NODES", 60)
        net = regular_tree(3)
        for seed in range(40):
            spread_adaptive(net, 0, ProtocolParams(horizon=6), np.random.default_rng(seed))
        assert net.memo.nodes == 2 * 22  # two T=6 balls: no room for a third without dropping one
        walks = {}  # T=4 walk -> the first seed that draws it
        for seed in range(100):
            s = spread_adaptive(regular_tree(3), 0, ProtocolParams(horizon=4), np.random.default_rng(seed))
            walks.setdefault(tuple(s.vs_events), seed)
        seeds = list(walks.values())[:6]  # six balls of 10 nodes: a cap's worth
        assert len(seeds) == 6
        misses = []
        for _ in range(3):
            for seed in seeds:
                before = list(net.memo)
                rng = np.random.default_rng(seed)
                s = spread_adaptive(net, 0, ProtocolParams(horizon=4), rng)
                assert self._fresh_tree_agrees(s, rng, ProtocolParams(horizon=4), seed), seed
                misses.append(list(net.memo) != before)
        assert misses == [True] * 6 + [False] * 12


def _snapshot_fields(s):
    """Everything a snapshot holds, in order, as plain values."""
    return ([list(s.time.items()), list(s.parent.items())]
            + [s.protocol, s.T, s.source, s.centers, s.mid_pass, s.vs_events,
               list(s.direction.items()), list(s.level.items())])


class TestEarlySnapshots:
    """A spread stores the stream's state as it passes each early horizon t,
    and its snapshot at t (InfectionSnapshot.at) and that state equal those
    of a spread to horizon t."""

    GRAPH = prune_min_degree(synthetic_heavy_tail(200, 3, seed=2), 3)
    CASES = {  # name -> (network, source, protocol fields)
        "tree-exact": (lambda: regular_tree(3), 0, dict(kind="adaptive")),
        "tree-always-pass": (lambda: regular_tree(4), 0, dict(kind="adaptive", d0=float("inf"))),
        "tree-capped": (lambda: regular_tree(4), 0, dict(kind="adaptive", fanout_cap=2)),
        "gw-exact": (lambda: galton_watson_tree({2: 0.3, 3: 0.4, 5: 0.3}, seed=6), 0,
                     dict(kind="adaptive", d0=3)),
        "graph-exact": (lambda: TestEarlySnapshots.GRAPH, 7, dict(kind="adaptive", d0=3)),
        "graph-always-pass": (lambda: TestEarlySnapshots.GRAPH, 7, dict(kind="adaptive", d0=float("inf"))),
        "tree-paad": (lambda: regular_tree(3), 0, dict(kind="paad", g=2)),
        "graph-paad": (lambda: TestEarlySnapshots.GRAPH, 7, dict(kind="paad", g=1)),
        "tree-tree-protocol": (lambda: regular_tree(3), 0, dict(kind="tree-protocol")),
        "graph-tree-protocol": (lambda: TestEarlySnapshots.GRAPH, 7, dict(kind="tree-protocol")),
        "grid": (grid, (0, 0), dict(kind="grid-adaptive")),
        "tree-diffusion": (lambda: regular_tree(3), 0, dict(kind="diffusion", q=0.5)),
        "graph-diffusion": (lambda: TestEarlySnapshots.GRAPH, 7, dict(kind="diffusion", q=0.3)),
        "tree-flooding": (lambda: regular_tree(3), 0, dict(kind="diffusion", q=1.0)),
        "graph-flooding": (lambda: TestEarlySnapshots.GRAPH, 7, dict(kind="diffusion", q=1.0)),
    }
    T = 9

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_early_snapshots_equal_single_horizon_spreads(self, case):
        from anonspread.harness import PROTOCOLS

        make, source, fields = self.CASES[case]
        spread = PROTOCOLS[fields["kind"]]
        net = make()
        for seed in range(15):
            states = dict.fromkeys(range(self.T))
            final = spread(net, source, ProtocolParams(horizon=self.T, **fields), np.random.default_rng(seed),
                           states)
            final_fields = _snapshot_fields(final)
            for t in range(self.T):
                ref_rng = np.random.default_rng(seed)
                ref = spread(make(), source, ProtocolParams(horizon=t, **fields), ref_rng)
                assert _snapshot_fields(final.at(t)) == _snapshot_fields(ref), (seed, t)
                assert states[t] == ref_rng.bit_generator.state, (seed, t)
            assert _snapshot_fields(final) == final_fields  # taking the earlier snapshots changed nothing

    def test_a_hand_off_listed_past_T_plus_1_moves_no_center(self):
        """multi_snapshot_trial appends the token's next hand-off to a
        snapshot; the snapshot's centers and h_T stay its own."""
        net = regular_tree(3)
        for T in range(10):
            for seed in range(20):
                snap = spread_adaptive(net, 0, ProtocolParams(horizon=T), np.random.default_rng(seed))
                before = (snap.centers, snap.mid_pass, snap.virtual_source, snap.h_T)
                holder = snap.virtual_source
                snap.vs_events.append((T + 2 + T % 2, net.neighbors(holder)[-1], snap.h_T + 1))
                assert (snap.centers, snap.mid_pass, snap.virtual_source, snap.h_T) == before, (T, seed)


class TestFloodingAndDiffusion:
    FLOOD = dict(kind="diffusion", q=1.0)

    def test_flood_sizes(self):
        for d, T in ((2, 5), (3, 2), (4, 3)):
            snap = spread_diffusion(regular_tree(d), 0, ProtocolParams(horizon=T, **self.FLOOD),
                                    np.random.default_rng(0))
            assert snap.n_infected == n_regular(d, 2 * T)
        snap = spread_diffusion(grid(), 0, ProtocolParams(horizon=3, **self.FLOOD),
                                np.random.default_rng(0))  # encoded origin is int 0
        assert snap.n_infected == grid_ball_size(3) == 25

    def test_flood_t0(self):
        assert spread_diffusion(regular_tree(3), 0, ProtocolParams(horizon=0, **self.FLOOD),
                                np.random.default_rng(0)).n_infected == 1

    def test_q1_is_flooding(self):
        # the same infection times and parent picks, in the same order, and the same stream after,
        # with no coin drawn
        graph = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
        networks = [(regular_tree(2), 0), (regular_tree(3), 0),
                    (galton_watson_tree({2: 0.3, 3: 0.4, 5: 0.3}, seed=6), 0),
                    (graph, graph.nodes()[0]), (graph, graph.nodes()[57])]
        for net, source in networks:
            for T in range(9):
                for seed in range(4):
                    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                    snap = spread_diffusion(net, source, ProtocolParams(horizon=T, **self.FLOOD), a)
                    time, parent = reference_flood(net, source, T, b)
                    assert list(snap.time.items()) == list(time.items())
                    assert list(snap.parent.items()) == list(parent.items())
                    assert a.bit_generator.state == b.bit_generator.state

    def test_diffusion_one_step_mean(self):
        # E[N_1] = 1 + d q
        net = regular_tree(3)
        rng = np.random.default_rng(6)
        q, n = 0.4, 4000
        tot = sum(spread_diffusion(net, 0, ProtocolParams(kind="diffusion", q=q, horizon=1),
                                   rng=rng).n_infected for _ in range(n))
        mean = tot / n
        assert abs(mean - (1 + 3 * q)) < 4 * np.sqrt(3 * q * (1 - q) / n)

    def test_diffusion_expected_size(self):
        from anonspread.analysis import diffusion_mean_exact

        net = regular_tree(3)
        rng = np.random.default_rng(7)
        q, T, n = 0.3, 4, 2000
        sizes = [spread_diffusion(net, 0, ProtocolParams(kind="diffusion", q=q, horizon=T),
                                  rng=rng).n_infected for _ in range(n)]
        mean = np.mean(sizes)
        sem = np.std(sizes) / np.sqrt(n)
        assert abs(mean - diffusion_mean_exact(3, q, T)) < 4 * sem
        # the coarse rate statement upper-bounds the true mean
        assert diffusion_expected_n(3, q, T) >= diffusion_mean_exact(3, q, T)
        assert diffusion_expected_n(3, q, 1) == pytest.approx(diffusion_mean_exact(3, q, 1))

    def test_diffusion_parents_are_infectors(self):
        g = from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        rng = np.random.default_rng(8)
        s = spread_diffusion(g, 0, ProtocolParams(kind="diffusion", q=0.8, horizon=6), rng=rng)
        for v, p in s.parent.items():
            if p is not None:
                assert v in g.neighbors(p)
                assert s.time[p] < s.time[v]


class TestTreeProtocol:
    def test_source_metadata(self):
        net = regular_tree(3)
        rng = np.random.default_rng(9)
        s = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=8), rng=rng)
        assert s.level[0] == 0 and s.direction[0] == "up"
        assert 0 in s.boundary()

    def test_matches_always_pass_sizes(self):
        net = regular_tree(3)
        rng = np.random.default_rng(10)
        for T in (2, 4, 6, 8):
            s = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=T), rng=rng)
            assert s.n_infected == n_regular(3, T)

    def test_center_distribution_matches_always_pass(self):
        # the two implementations induce the same law on the infected subtree;
        # compare where the balanced center lands, as a two-sample test
        net = regular_tree(3)
        T, n = 6, 6000
        rng = np.random.default_rng(11)
        c1, c2 = {}, {}
        for _ in range(n):
            a = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=T), rng=rng)
            c1[a.virtual_source] = c1.get(a.virtual_source, 0) + 1
            b = spread_adaptive(net, 0, ProtocolParams(alpha_policy="always-pass", horizon=T), rng=rng)
            c2[b.virtual_source] = c2.get(b.virtual_source, 0) + 1
        keys = sorted(set(c1) | set(c2))
        table = np.array([[c1.get(k, 0) for k in keys], [c2.get(k, 0) for k in keys]])
        assert chi2_contingency(table).pvalue > 0.001

    def test_levels_decrement_down_cascades(self):
        net = regular_tree(4)
        rng = np.random.default_rng(12)
        s = spread_tree_protocol(net, 0, ProtocolParams(kind="tree-protocol", horizon=6), rng=rng)
        for v, p in s.parent.items():
            if p is None:
                continue
            if s.direction[v] == "down":
                assert s.level[v] == s.level[p] - 1
            else:
                assert s.level[v] == s.level[p] + 1


class TestGridProtocol:
    def test_even_time_is_ball(self):
        g = grid()
        rng = np.random.default_rng(13)
        for T in (2, 4, 8):
            s = spread_grid(g, (0, 0), ProtocolParams(kind="grid-adaptive", horizon=T), rng=rng)
            c = s.virtual_source
            r = T // 2
            expected = {(x, y) for x in range(c[0] - r, c[0] + r + 1)
                        for y in range(c[1] - r, c[1] + r + 1)
                        if abs(x - c[0]) + abs(y - c[1]) <= r}
            assert set(s.time) == expected
            assert s.n_infected == (T * T + 2 * T + 2) // 2

    def test_t0(self):
        s = spread_grid(grid(), (0, 0), ProtocolParams(kind="grid-adaptive", horizon=0),
                        rng=np.random.default_rng(0))
        assert s.n_infected == 1

    def test_displacement_never_shrinks(self):
        g = grid()
        rng = np.random.default_rng(14)
        for _ in range(50):
            s = spread_grid(g, (0, 0), ProtocolParams(kind="grid-adaptive", horizon=10), rng=rng)
            # each hand-off's h is its holder's L1 displacement from the source
            assert all(abs(x) + abs(y) == h for _, (x, y), h in s.vs_events)
            hs = [h for _, _, h in s.vs_events]
            assert all(b >= a for a, b in zip(hs, hs[1:]))


class TestPaad:
    def test_regular_tree_reduces_to_always_pass(self):
        net = regular_tree(3)
        rng = np.random.default_rng(15)
        s = spread_paad(net, 0, ProtocolParams(kind="paad", g=1, horizon=6), rng=rng)
        assert s.n_infected == n_regular(3, 6)
        assert 0 in s.boundary()

    def test_degree_weighted_first_hop(self):
        # source with neighbors of degrees 3 and 5 -> picks 2/6 vs 4/6
        edges = [(0, 1), (0, 2)]
        edges += [(1, 10), (1, 11)]                      # deg(1) = 3
        edges += [(2, 20), (2, 21), (2, 22), (2, 23)]    # deg(2) = 5
        for leaf in (10, 11, 20, 21, 22, 23):
            edges += [(leaf, 100 + leaf)]
        g = from_edges(edges)
        rng = np.random.default_rng(16)
        n = 6000
        hits = 0
        for _ in range(n):
            s = spread_paad(g, 0, ProtocolParams(kind="paad", g=1, horizon=1, fanout_cap=10**6), rng=rng)
            hits += int(s.vs_events[-1][1] == 2)
        p = 4 / 6
        assert abs(hits / n - p) < 4 * np.sqrt(p * (1 - p) / n)

    def test_holder_whose_every_move_weighs_0_keeps_the_token(self):
        # on the path 0..12 a holder next to an end has one move, onto the end, of weight 0
        g = from_edges((v, v + 1) for v in range(12))
        for seed in range(40):
            s = spread_paad(g, 2, ProtocolParams(kind="paad", g=1, horizon=8), rng=np.random.default_rng(seed))
            holders = [v for _, v, _ in s.vs_events]
            assert 0 not in holders and 12 not in holders
            assert all(abs(a - b) == 1 for a, b in zip(holders, holders[1:]))
        with pytest.raises(ValueError, match="every move from the source 0 has weight 0"):
            spread_paad(from_edges([(0, 1), (0, 2)]), 0, ProtocolParams(kind="paad", horizon=4),
                        rng=np.random.default_rng(0))

    def test_g2_weights_match_enumeration(self):
        # 10-node tree: weights for g=2 equal brute-force 2-hop counts
        edges = [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (6, 7), (6, 8), (4, 9)]
        g = from_edges(edges)
        from anonspread.spread import _g_hop_neighborhood_size

        # by hand: from node 1 excluding node 0: around 2 -> {4,5,9}+{2}... count nodes
        # within 2 hops of 2 not through 1: {4,5,9} plus 2's other side = 3; check helper
        assert _g_hop_neighborhood_size(g, 2, 1, 2) == 3  # 4, 5, 9
        assert _g_hop_neighborhood_size(g, 3, 1, 2) == 3  # 6, 7, 8


class TestPolyaLine:
    def test_each_pass_moves_the_token_one_step_on(self):
        # a replay of the stream draws the direction, q and one keep coin per even epoch te < T
        for T in (1, 2, 3, 8, 13, 40):
            for seed in range(40):
                snap, tr = spread_polya_line(9, 5, rng=np.random.default_rng(seed), horizon=T)
                replay = np.random.default_rng(seed)
                step = 1 if replay.random() < 0.5 else -1
                q = replay.random()
                passes = sum(replay.random() >= 1.0 - q for _ in range(2, T, 2))
                assert tr.direction == ("right" if step == 1 else "left") and tr.q == q
                assert [(v, h) for _, v, h in snap.vs_events] == [(5 + k * step, k) for k in range(len(snap.vs_events))]
                assert snap.h_T - 1 == passes

    def test_marginal_keep_probability(self):
        # P(token still at its first holder after the t=2 decision) = 1/2
        rng = np.random.default_rng(18)
        n = 20_000
        kept = 0
        for _ in range(n):
            snap, _ = spread_polya_line(1000, 500, rng=rng, horizon=4)
            kept += int(snap.h_T == 1)
        assert abs(kept / n - 0.5) < 4 * np.sqrt(0.25 / n)

    def test_matches_exact_schedule_on_line(self):
        net = regular_tree(2)
        T, n = 12, 6000
        rng = np.random.default_rng(19)
        ca = np.zeros(T // 2)
        cp = np.zeros(T // 2)
        for _ in range(n):
            a = spread_adaptive(net, 0, ProtocolParams(horizon=T), rng=rng)
            ca[a.h_T - 1] += 1
            b, _ = spread_polya_line(4000, 2000, rng=rng, horizon=T)
            cp[b.h_T - 1] += 1
        assert chi2_contingency(np.vstack([ca, cp])).pvalue > 0.001

    def test_spread_stops_at_the_spy_that_reports(self):
        # without a horizon the spread runs until an end spy reports, and infects nothing past it
        rng = np.random.default_rng(20)
        for n in (1, 2, 9, 41):
            for _ in range(200):
                snap, tr = spread_polya_line(n, int(rng.integers(1, n + 1)), rng=rng)
                assert min(snap.time) >= 0 and max(snap.time) <= n + 1
                assert snap.time[tr.first_spy] == max(snap.time.values()) == tr.t_first

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            spread_polya_line(0, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            spread_polya_line(5, 6, np.random.default_rng(0))


class TestSpiesAndTrace:
    def test_spies_never_include_source(self):
        net = regular_tree(3)
        rng = np.random.default_rng(20)
        s = spread_adaptive(net, 0, ProtocolParams(horizon=8), rng=rng)
        for seed in range(50):
            assert 0 not in assign_spies(s, 0.5, seed)

    def test_matches_the_scalar_rule(self):
        # assign_spies hashes every node at once; node_uniform per node is the reference
        from anonspread.graph import grid_encode, node_uniform

        g = prune_min_degree(synthetic_heavy_tail(400, 3, seed=3), 3)
        snaps = [
            spread_adaptive(regular_tree(4), 5, ProtocolParams(horizon=10), np.random.default_rng(3)),
            spread_grid(grid(), (0, 0), ProtocolParams(kind="grid-adaptive", horizon=8), np.random.default_rng(4)),
            spread_adaptive(g, g.nodes()[7], ProtocolParams(alpha_policy="always-pass", horizon=8),
                            np.random.default_rng(5)),
        ]
        for s in snaps:
            for p, seed in ((0.1, 0), (0.5, 2**62 - 1), (0.9, 12345)):
                expected = [v for v in s.time if v != s.source
                            and node_uniform(seed, v if isinstance(v, int) else grid_encode(*v), salt=0x57E5) < p]
                assert assign_spies(s, p, seed) == expected

    def test_spy_assignment_deterministic(self):
        net = regular_tree(3)
        s = spread_adaptive(net, 0, ProtocolParams(horizon=6), rng=np.random.default_rng(1))
        assert assign_spies(s, 0.3, 99) == assign_spies(s, 0.3, 99)

    def test_trace_csv(self):
        net = regular_tree(3)
        s = spread_adaptive(net, 0, ProtocolParams(horizon=4), rng=np.random.default_rng(2))
        buf = io.StringIO()
        s.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].startswith("node,infection_time,parent")
        assert len(lines) == 1 + s.n_infected
