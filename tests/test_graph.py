import warnings

import numpy as np
import pytest

from anonspread.graph import (
    DegreeDistribution,
    degree_distribution,
    from_edges,
    galton_watson_tree,
    grid,
    grid_decode,
    grid_encode,
    hop_distance,
    load_edge_list,
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

    def test_single_pass_differs_from_iterative(self):
        # path 0-1-2-3: single pass keeps {1,2}; iterating empties it
        g = from_edges([(0, 1), (1, 2), (2, 3)])
        assert prune_min_degree(g, 2, iterative=False).n_nodes == 2
        assert prune_min_degree(g, 2, iterative=True).n_nodes == 0

    def test_rejects_infinite_networks(self):
        with pytest.raises(ValueError):
            prune_min_degree(regular_tree(3), 3)


def test_explicit_graph_symmetry():
    g = synthetic_heavy_tail(300, 3, seed=1)
    for u in g.nodes():
        for w in g.neighbors(u):
            assert u in g.neighbors(w)
