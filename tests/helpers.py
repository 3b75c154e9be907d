"""Test-only reference code: the brute-force trajectory oracle that the
irregular-ml scores are checked against, the breadth-first orientation of
an infection tree that the estimators' one is checked against, flooding as
a spread of its own, which diffusion at q=1 is checked against, hand-built
trees and snapshots, and a summary CSV as text."""

import io
from itertools import count

from anonspread.adversary import _path_up
from anonspread.graph import ContactNetwork
from anonspread.harness import ExperimentSummary, write_summary_csv
from anonspread.spread import InfectionSnapshot, alpha_regular


class TreeAdjacency(ContactNetwork):
    """A tree given by its adjacency lists, which the estimators read as
    they read an infinite tree (is_finite is False)."""

    kind = "tree-adjacency"
    is_tree = True

    def __init__(self, adj: dict):
        self.adj = adj

    def degree(self, v) -> int:
        return len(self.adj[v])

    def neighbors(self, v) -> list:
        return self.adj[v]


def reference_flood(net, source, T, rng):
    """Flooding as a spread of its own: each step infects every uninfected
    neighbor of the last step's nodes, each from an infector picked
    uniformly.  Returns the infection times and parents, in infection
    order."""
    time, parent = {source: 0}, {source: None}
    frontier = [source]
    for t in range(1, T + 1):
        hits: dict = {}
        for u in frontier:
            for w in net.neighbors(u):
                if w not in time:
                    hits.setdefault(w, []).append(u)
        for w, infectors in hits.items():
            time[w], parent[w] = t, infectors[int(rng.integers(len(infectors)))]
        frontier = list(hits)
    return time, parent


def eight_node_snapshot():
    """(network, snapshot): a depth-2 balanced snapshot around node 3 whose
    nodes have the pinned degrees below on the network, a tree that hangs
    pendant nodes (ids from 100) off the infection tree; likelihood scores
    for this shape are known exactly."""
    time = {3: 0, 2: 1, 4: 1, 5: 1, 1: 2, 6: 2, 7: 2, 8: 2}
    parent = {3: None, 2: 3, 4: 3, 5: 3, 1: 2, 6: 4, 7: 5, 8: 5}
    deg = {1: 4, 2: 2, 3: 3, 4: 2, 5: 3, 6: 4, 7: 2, 8: 4}
    adj = {v: [] for v in time}
    for v, p in parent.items():
        if p is not None:
            adj[v].append(p)
            adj[p].append(v)
    pendant = count(100)
    for v, d in deg.items():
        while len(adj[v]) < d:
            w = next(pendant)
            adj[v].append(w)
            adj[w] = [v]
    snap = InfectionSnapshot(protocol="adaptive", T=4, source=1, time=time, parent=parent,
                             vs_events=[(0, 1, 0), (1, 2, 1), (4, 3, 2)])
    return TreeAdjacency(adj), snap


def reference_orientation(snap: InfectionSnapshot, root):
    """(children, up, depth) of the infection tree hung from `root`, by a
    breadth-first search from it over the tree's undirected adjacency."""
    adj = snap.subtree_adjacency()
    children = {v: [] for v in adj}
    up = {root: None}
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    up[w] = v
                    children[v].append(w)
                    nxt.append(w)
        frontier = nxt
    if len(depth) != len(adj):
        raise ValueError("infected subgraph is not connected")
    return children, up, depth


def reference_boundary(snap: InfectionSnapshot) -> list:
    """The nodes of degree at most 1 in the tree's undirected adjacency."""
    return [v for v, nbrs in snap.subtree_adjacency().items() if len(nbrs) <= 1]


def summary_csv_text(summary: ExperimentSummary) -> str:
    buf = io.StringIO()
    write_summary_csv(summary, buf)
    return buf.getvalue()


def oracle_trajectory_likelihood(net: ContactNetwork, snap: InfectionSnapshot, candidate, d0: int) -> float:
    """Exact likelihood of `candidate` by summing over every keep/pass
    trajectory that walks the token from the candidate to the observed
    center, with the degrees of the tree `net`.  Exponential in T; refuses
    T > 12."""
    T = snap.T
    if T % 2:
        raise ValueError("oracle requires even T")
    if T > 12:
        raise ValueError("oracle is exponential in T; refuse T > 12")
    deg = net.degree
    root = snap.virtual_source
    _, up, _ = reference_orientation(snap, root)
    if candidate == root:
        return 0.0
    path = _path_up(up, candidate)  # candidate .. root
    h = len(path) - 1
    a_val = 1.0 / deg(candidate)
    for w in path[1:-1]:
        a_val /= deg(w) - 1

    slots = list(range(2, T - 1, 2))
    passes_needed = h - 1
    if passes_needed < 0 or passes_needed > len(slots):
        return 0.0
    total_b = 0.0
    for mask in range(1 << len(slots)):
        if bin(mask).count("1") != passes_needed:
            continue
        cur_h = 1
        prob = 1.0
        for i, te in enumerate(slots):
            a = alpha_regular(d0, te, cur_h)
            if mask >> i & 1:
                prob *= 1.0 - a
                cur_h += 1
            else:
                prob *= a
        total_b += prob
    return a_val * total_b
