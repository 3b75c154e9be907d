import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from anonspread.graph import (
    DegreeDistribution,
    bfs,
    degree_distribution,
    from_edges,
    galton_watson_tree,
    grid,
    grid_decode,
    grid_encode,
    hop_distance,
    load_edge_list,
    node_uniform,
    node_uniforms,
    path,
    prune_min_degree,
    regular_tree,
    synthetic_heavy_tail,
)


def ball(net, center, radius):
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in net.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_node_uniforms_match_node_uniform():
    # ids past 64 bits are masked as node_uniform masks them, with no overflow warning
    keys = [0, 1, 2**63, 2**64 - 1, 2**64 + 5, 3**45, *range(2, 500, 7),
            *np.random.default_rng(0).integers(0, 2**62, 200).tolist()]
    for seed, salt in ((0, 0), (12345, 0x57E5), (2**70 + 3, 0xD15C)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = node_uniforms(seed, keys, salt).tolist()
        assert got == [node_uniform(seed, k, salt) for k in keys]
    assert node_uniforms(1, []).tolist() == []


class TestRegularTree:
    def test_every_node_has_d_neighbors(self):
        net = regular_tree(3)
        for v in list(ball(net, 0, 3)):
            assert len(net.neighbors(v)) == 3

    def test_line_case(self):
        net = regular_tree(2)
        assert len(net.neighbors(0)) == 2
        assert len(net.neighbors(5)) == 2

    def test_depth2_ball_count(self):
        # 1 + d + d(d-1)
        assert len(ball(regular_tree(3), 0, 2)) == 10

    def test_parent_child_bijection(self):
        net = regular_tree(4)
        for v in list(ball(net, 0, 3)):
            for c in net.children(v):
                assert net.parent(c) == v

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_neighbors_are_parent_then_children(self, d):
        net = regular_tree(d)
        for v in list(ball(net, 0, 4)):
            p = net.parent(v)
            assert net.neighbors(v) == ([] if p is None else [p]) + net.children(v)

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            regular_tree(1)


class TestGaltonWatson:
    def test_degenerate_distribution_is_regular(self):
        net = galton_watson_tree({3: 1.0}, seed=7)
        for v in list(ball(net, 0, 3)):
            assert net.degree(v) == 3
            assert len(net.neighbors(v)) == 3

    def test_mean_children(self):
        dist = degree_distribution({3: 0.5, 4: 0.5})
        assert dist.mean_children == pytest.approx(2.5)

    def test_same_seed_same_tree(self):
        a = galton_watson_tree({3: 0.5, 4: 0.5}, seed=123)
        b = galton_watson_tree({3: 0.5, 4: 0.5}, seed=123)
        walk = [0]
        for _ in range(200):
            v = walk[-1]
            assert a.degree(v) == b.degree(v)
            walk.append(a.children(v)[0] if a.children(v) else 0)

    def test_query_order_independence(self):
        a = galton_watson_tree({3: 0.5, 4: 0.5}, seed=5)
        nodes = sorted(ball(a, 0, 3))
        first_pass = [a.degree(v) for v in nodes]
        b = galton_watson_tree({3: 0.5, 4: 0.5}, seed=5)
        second_pass = [b.degree(v) for v in reversed(nodes)][::-1]
        assert first_pass == second_pass

    def test_root_degree_marginal(self):
        # empirical histogram of root degrees across seeds vs the law, 3 sigma
        dist = degree_distribution({3: 0.3, 4: 0.5, 6: 0.2})
        n = 100_000
        counts = {f: 0 for f in dist.support}
        for seed in range(n):
            counts[galton_watson_tree(dist, seed).degree(0)] += 1
        for f, p in zip(dist.support, dist.probs):
            sigma = (n * p * (1 - p)) ** 0.5
            assert abs(counts[f] - n * p) < 3 * sigma

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            DegreeDistribution((3, 3), (0.5, 0.5))
        with pytest.raises(ValueError):
            DegreeDistribution((3, 4), (0.5, 0.6))
        with pytest.raises(ValueError):
            DegreeDistribution((1, 3), (0.5, 0.5))


class TestGrid:
    def test_neighbors_of_origin(self):
        net = grid()
        got = {grid_decode(v) for v in net.neighbors(grid_encode(0, 0))}
        assert got == {(0, 1), (0, -1), (1, 0), (-1, 0)}

    def test_hop_distance_is_l1(self):
        net = grid()
        assert hop_distance(net, grid_encode(0, 0), grid_encode(2, 3)) == 5

    def test_radius2_ball(self):
        assert len(ball(grid(), grid_encode(0, 0), 2)) == 13

    def test_encode_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            x = int(rng.integers(-10**6, 10**6 + 1))
            y = int(rng.integers(-10**6, 10**6 + 1))
            assert grid_decode(grid_encode(x, y)) == (x, y)
        assert grid_decode(grid_encode(10**6, -(10**6))) == (10**6, -(10**6))


class TestEdgeList:
    def test_path_graph(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("0 1\n1 2\n")
        g = load_edge_list(f)
        assert g.n_nodes == 3 and g.n_edges == 2

    def test_duplicate_edges_collapse(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("0 1\n1 0\n")
        g = load_edge_list(f)
        assert g.n_edges == 1

    def test_comments_and_self_loops(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("# header\n% other style\n0 1\n2 2\n1 2\n")
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            g = load_edge_list(f)
        assert any("self-loop" in str(x.message) for x in w)
        assert g.n_edges == 2

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "edges.txt"
        f.write_text("0 1\nnot numbers\n")
        with pytest.raises(ValueError, match=":2"):
            load_edge_list(f)

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_edge_list("/nonexistent/never.txt")


class TestPrune:
    def test_star_collapses(self):
        g = from_edges([(0, 1), (0, 2), (0, 3)])
        assert prune_min_degree(g, 3).n_nodes == 0

    def test_triangle_is_its_own_2core(self):
        g = from_edges([(0, 1), (1, 2), (2, 0)])
        assert prune_min_degree(g, 2).n_nodes == 3

    def test_path_has_an_empty_2core(self):
        # path 0-1-2-3: removing the ends leaves 1-2 with degree 1, and so on
        g = from_edges([(0, 1), (1, 2), (2, 3)])
        assert prune_min_degree(g, 2).n_nodes == 0

    def test_rejects_infinite_networks(self):
        with pytest.raises(ValueError):
            prune_min_degree(regular_tree(3), 3)


def test_explicit_graph_symmetry():
    g = synthetic_heavy_tail(300, 3, seed=1)
    for u in g.nodes():
        for w in g.neighbors(u):
            assert u in g.neighbors(w)


# a 4-cycle 0-1-3-2-0 with a tail 3-4
SQUARE = {0: [1, 2], 1: [0, 3], 2: [0, 3], 3: [1, 2, 4], 4: [3]}


class TestBfs:
    def test_levels_and_parents(self):
        levels = []
        for level, parent in bfs(SQUARE.__getitem__, [0]):
            levels.append(list(level))
        assert levels == [[0], [1, 2], [3], [4]]
        assert parent == {0: None, 1: 0, 2: 0, 3: 1, 4: 3}  # 3 is found from 1, the first to reach it

    def test_several_sources_form_level_zero(self):
        levels = []
        for level, parent in bfs(SQUARE.__getitem__, [3, 0, 3]):
            levels.append(list(level))
        assert levels == [[3, 0], [1, 2, 4]]
        assert parent == {3: None, 0: None, 1: 3, 2: 3, 4: 3}

    def test_blocked_nodes_are_never_yielded(self):
        def levels(blocked):
            return [list(level) for level, _ in bfs(SQUARE.__getitem__, [0], blocked)]

        assert levels({1}) == [[0], [2], [3], [4]]
        assert levels({3}) == [[0], [1, 2]]  # 4 lies behind 3
        assert levels({1, 2}) == [[0]]
        *_, (_, parent) = bfs(SQUARE.__getitem__, [0], {3})
        assert parent == {3: None, 0: None, 1: 0, 2: 0}  # seen from the start, never entered

    def test_no_query_at_depth_or_ahead_of_the_caller(self):
        asked = []

        def neighbors(v):
            asked.append(v)
            return SQUARE[v]

        search = bfs(neighbors, [0], depth=2)
        assert next(search)[0] == [0] and asked == []
        assert next(search)[0] == [1, 2] and asked == [0]
        assert [level for level, _ in search] == [[3]]
        assert asked == [0, 1, 2]  # never 3, the node at depth 2

    def test_depth_zero_is_the_sources(self):
        assert [list(level) for level, _ in bfs(SQUARE.__getitem__, [4], depth=0)] == [[4]]


class TestPath:
    def test_bench_graph_paths_are_shortest(self):
        g = prune_min_degree(synthetic_heavy_tail(1500, 5, seed=5), 3)
        nodes = g.nodes()
        rng = np.random.default_rng(3)
        for _ in range(500):
            a, b = (nodes[int(i)] for i in rng.integers(len(nodes), size=2))
            p = path(g, a, b)
            assert p[0] == a and p[-1] == b
            assert len(p) == hop_distance(g, a, b) + 1
            assert all(w in g.neighbors(v) for v, w in zip(p, p[1:]))

    def test_disconnected_nodes_raise(self):
        g = from_edges([(0, 1), (2, 3)])
        assert path(g, 0, 1) == [0, 1]
        with pytest.raises(ValueError, match="not connected"):
            path(g, 0, 3)

    @pytest.mark.parametrize("net", [regular_tree(3), galton_watson_tree({3: 0.5, 4: 0.5}, seed=2)],
                             ids=["regular", "galton-watson"])
    def test_parent_walk_is_the_searched_path(self, net):
        # on lazy trees path walks the parent pointers; a search over the
        # same neighbors (no parent attribute) must find the same unique path
        nodes = sorted(ball(net, 0, 4))
        searched = SimpleNamespace(neighbors=net.neighbors)
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = (nodes[int(i)] for i in rng.integers(len(nodes), size=2))
            assert path(net, a, b) == path(searched, a, b)
