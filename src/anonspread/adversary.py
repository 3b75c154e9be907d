"""Source-inference estimators.

Snapshot-side: the uniform estimator for exact-schedule spreads on regular
trees, degree-message-passing ML for mismatched schedules on irregular
trees, the leaf MAP rule for always-pass spreads, and its neighborhood-
weighted variant.  Spy-side: the pivot estimator for the distributed tree
protocol, the first-spy baseline, the degree-weighted refinement for
irregular trees, and the closed-form line estimator.  A brute-force
trajectory-sum oracle backs the message-passing implementation in tests.

An estimator that reads degrees or neighbors takes the network first and
asks it: the snapshot holds what the spread did, not the network's facts.
Finite networks (net.is_finite) get the variants that allow for cycles.
An inconclusive estimate gives its reason in info["reason"].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from types import SimpleNamespace

from . import graph
from .graph import ContactNetwork
from .spread import InfectionSnapshot, LineTrace, _g_hop_neighborhood_size, _pick, alpha_regular


@dataclass
class Estimate:
    """An estimator's verdict: the chosen node, the candidate set it was
    drawn from, and per-candidate scores up to a shared constant."""

    v_hat: object
    candidates: list
    scores: dict | None
    tie_count: int
    kind: str
    inconclusive: bool = False
    info: dict = field(default_factory=dict)


def _argmax_pick(scores: dict, rng, reverse=False):
    """Best-scoring keys with uniform tie-breaking (rel. tolerance 1e-12)."""
    if not scores:
        raise ValueError("empty candidate set")
    best = min(scores.values()) if reverse else max(scores.values())
    tol = 1e-12 * max(1.0, abs(best))
    ties = [v for v, s in scores.items() if abs(s - best) <= tol]
    return _pick(rng, ties), ties


# ---------------------------------------------------------------------------
# snapshot-tree helpers


def _oriented_children(snap: InfectionSnapshot, root) -> dict:
    """Child lists of the infection tree hung from `root`, over every
    infected node.  One pass over snap.parent, which lists parents before
    their children (as spreads and load_trace do; else KeyError), hangs each
    node from its parent; then the path from `root` to the parentless node
    is flipped.  The lists come out in a breadth-first search's order."""
    children = {}
    for v, p in snap.parent.items():
        if p is not None:
            children[p].append(v)
        children[v] = []
    v, p = root, snap.parent[root]
    while p is not None:
        children[p].remove(v)
        children[v].insert(0, p)
        v, p = p, snap.parent[p]
    return children


def _children_from_center(snap: InfectionSnapshot):
    """Orient the infection tree away from the virtual source; returns
    (children map, up-parent map, depth map) over infected nodes, the last
    two in breadth-first order."""
    root = snap.virtual_source
    children = _oriented_children(snap, root)
    up, depth = {root: None}, {root: 0}
    order = [root]
    for v in order:  # the loop reaches the nodes appended on the way, breadth first
        for w in children[v]:
            up[w], depth[w] = v, depth[v] + 1
        order += children[v]
    if len(depth) != len(children):
        raise ValueError("infected subgraph is not connected")
    return children, up, depth


def _path_up(up, v):
    path = [v]
    while up[v] is not None:
        v = up[v]
        path.append(v)
    return path  # v .. root


# ---------------------------------------------------------------------------
# snapshot estimators


def _inconclusive(kind: str, reason: str) -> Estimate:
    return Estimate(None, [], None, 0, kind, inconclusive=True, info={"reason": reason})


# the reason of a snapshot that holds no node but its centers, which a spread that infected no one leaves
ONLY_CENTERS = "no infected node outside the centers"


def estimate_snapshot_regular(snap: InfectionSnapshot, rng) -> Estimate:
    """Exact-schedule spreads on regular trees make every non-center node
    equally likely, so the estimator is uniform over the snapshot minus the
    token holder(s); mid-transition snapshots exclude both symmetric
    centers.  A snapshot of its centers alone (at T > 0) is inconclusive."""
    if snap.n_infected == 0:
        raise ValueError("empty snapshot")
    nodes = list(snap.time)
    if snap.T == 0:
        only = nodes[0]
        return Estimate(only, [only], None, 1, "snapshot-uniform")
    excluded = set(snap.centers)
    candidates = [v for v in nodes if v not in excluded]
    if not candidates:
        return _inconclusive("snapshot-uniform", ONLY_CENTERS)
    return Estimate(_pick(rng, candidates), candidates, None, len(candidates), "snapshot-uniform")


def irregular_ml_scores(net: ContactNetwork, snap: InfectionSnapshot, d0: int):
    """Degree message passing for the mismatched-schedule likelihood.

    Returns (relative score map, absolute likelihood map).  The relative
    score of node v is (d0/d_v) * prod over interior path nodes w of
    (d0-1)/(d_w-1); multiplying by the regular-tree leaf likelihood and the
    (d0-1)-power of the depth gives the absolute likelihood A_v * B_v.
    """
    T = snap.T
    if T % 2:
        raise ValueError("likelihood scoring requires an even snapshot time")
    if d0 < 2:
        raise ValueError("d0 must be >= 2")
    children, up, depth = _children_from_center(snap)
    deg = {v: net.degree(v) for v in children}
    root = snap.virtual_source

    score, a_val = {root: 0.0}, {root: 0.0}
    for w in children[root]:
        score[w] = d0 / deg[w]
        a_val[w] = 1.0 / deg[w]
        stack = [w]
        while stack:
            v = stack.pop()
            for c in children[v]:
                score[c] = score[v] * deg[v] * (d0 - 1) / (deg[c] * (deg[v] - 1))
                a_val[c] = a_val[v] * deg[v] / (deg[c] * (deg[v] - 1))
                stack.append(c)

    # likelihood of a max-depth leaf on the matching regular tree
    p_leaf = 1.0 / (d0 * (d0 - 1) ** (T // 2 - 1)) if T >= 2 else 1.0
    for te in range(2, T - 1, 2):
        p_leaf *= 1.0 - alpha_regular(d0, te, te // 2)
    likelihood = {v: a_val[v] * (p_leaf * d0 * (d0 - 1) ** (depth[v] - 1)) if v != root else 0.0 for v in score}
    return score, likelihood


def estimate_irregular_ml(net: ContactNetwork, snap: InfectionSnapshot, d0: int, rng) -> Estimate:
    """ML source estimate under a degree-d0 schedule run on an irregular
    tree, via one O(N) message-passing sweep from the center.

    On a finite network (which may have cycles) the token walks down the
    infection tree, so the source sits exactly h_T hops from the center;
    h_T is read from the snapshot's token trace and equals T/2 for
    always-pass spreads.  Candidates are the infected nodes at that depth.
    Each is scored by the probability that a token starting there follows
    the tree path to the center: 1/deg_G(v) for the source's hand-off,
    uniform over all its graph neighbors, times 1/c_w for each interior
    path node w, where c_w is the number of infection-tree neighbors of w
    away from v (its children when it passed the token).  The rest of the
    snapshot is treated as equally likely under every candidate, and the d0
    schedule, being the same for every path of length h_T, drops out.  When
    the schedule keeps the token, later symmetric waves can add children
    after a hand-off, so c_w is then an approximation.

    On trees, a snapshot that holds only its center is inconclusive.
    """
    if net.is_finite:
        score = likelihood = candidates = _token_path_scores(net, snap)
    else:
        score, likelihood = irregular_ml_scores(net, snap, d0)
        root = snap.virtual_source
        candidates = {v: s for v, s in score.items() if v != root}
        if not candidates:
            return _inconclusive("irregular-ml", ONLY_CENTERS)
    v_hat, ties = _argmax_pick(candidates, rng)
    return Estimate(v_hat, list(candidates), score, len(ties), "irregular-ml",
                    info={"likelihood": likelihood, "d0": d0})


def _token_path_scores(net: ContactNetwork, snap: InfectionSnapshot) -> dict:
    """Token-path probability of every infected node at depth h_T from the
    center (see estimate_irregular_ml on a finite network), in breadth-first
    order: the tree is expanded level by level from the center, in groups of
    siblings that carry the product of their path's interior child counts."""
    if snap.T % 2:
        raise ValueError("likelihood scoring requires an even snapshot time")
    center = snap.virtual_source
    children = _oriented_children(snap, center)
    h = snap.h_T
    level = [(children[center], 1)] if h else [([center], 1)]  # (siblings, their path's product)
    for _ in range(h - 1):  # a node without children ends its path
        level = [(kids, prod * len(kids)) for siblings, prod in level for v in siblings if (kids := children[v])]
    return {v: 1 / (net.degree(v) * prod) for siblings, prod in level for v in siblings}


def estimate_map_leaf(net: ContactNetwork, snap: InfectionSnapshot, rng) -> Estimate:
    """MAP rule for always-pass spreads: pick the boundary leaf minimizing
    the product of (degree-1) over its path to the center.  Also reports the
    extremal product Lambda and the conditional detection probability
    1/Lambda.

    A token that is not h_T = T/2 hops from the center means the spread was
    not always-pass, which raises on infinite networks.  On a finite network
    an always-pass spread gets there too when a holder with no tree child
    had to keep the token; the source is then not at a leaf, and the
    estimate is inconclusive, with the reason in `info`.
    """
    T = snap.T
    if T == 0:
        only = next(iter(snap.time))
        return Estimate(only, [only], {only: 1.0}, 1, "map-leaf",
                        info={"lambda": 1.0, "pd_conditional": 1.0})
    if T >= 2 and snap.h_T != T // 2:
        if net.is_finite:
            return _inconclusive("map-leaf", f"token kept on a finite graph: h_T={snap.h_T}, not T/2={T // 2}")
        raise ValueError("snapshot did not come from an always-pass spread (source not at a leaf)")
    root = snap.virtual_source
    children = _oriented_children(snap, root)
    prod = {}
    stack = [(w, 1.0) for w in children[root]]
    while stack:
        v, acc = stack.pop()
        if children[v]:
            acc *= net.degree(v) - 1
            stack.extend((c, acc) for c in children[v])
        else:  # a leaf of the infection tree
            prod[v] = acc
    v_hat, ties = _argmax_pick(prod, rng, reverse=True)
    d_root = net.degree(root)
    lam = d_root * prod[v_hat]
    scores = {v: 1.0 / (d_root * pr) for v, pr in prod.items()}
    return Estimate(v_hat, list(prod), scores, len(ties), "map-leaf",
                    info={"lambda": lam, "pd_conditional": 1.0 / lam})


def paad_map_scores(net: ContactNetwork, snap: InfectionSnapshot, g: int) -> dict:
    """Score of each candidate source from the probability Q(v) of the token
    walking from v to the observed center under neighborhood-weighted
    passing; each hand-off weighs a next holder by its g-hop neighborhood
    on `net` away from the current one.

    On trees the candidates are the boundary leaves, every hand-off is
    weighed over the holder's graph neighbors other than the previous
    holder, and the score is d_v * Q(v).  On a finite network, which may
    have cycles, the token walks down the infection tree, as spread_paad
    hands it on: the candidates are the infected nodes h_T hops from the
    center, the first hand-off is weighed over all graph neighbors of the
    candidate and each later one over the holder's infection-tree neighbors
    other than the previous holder, and the score is Q(v) itself (as in
    _token_path_scores).  A keep forced on a holder without children lets
    later waves add children to earlier holders, so Q is then approximate.
    """
    finite = net.is_finite
    neighbors = cache(net.neighbors)  # the paths to the center share most of their neighborhoods
    region = SimpleNamespace(neighbors=neighbors)
    hand_off = snap.subtree_adjacency().__getitem__ if finite else neighbors
    children, up, depth = _children_from_center(snap)
    candidates = [v for v, dv in depth.items() if dv == snap.h_T] if finite else snap.boundary()
    scores = {}
    for v in candidates:
        path = _path_up(up, v)  # v .. center
        q = 1.0
        for i in range(len(path) - 1):
            cur, nxt = path[i], path[i + 1]
            eligible = neighbors(cur) if i == 0 else [w for w in hand_off(cur) if w != path[i - 1]]
            weights = [_g_hop_neighborhood_size(region, w, cur, g) for w in eligible]
            q *= weights[eligible.index(nxt)] / sum(weights)
        scores[v] = q if finite else net.degree(v) * q
    return scores


def estimate_paad_map(net: ContactNetwork, snap: InfectionSnapshot, g: int, rng) -> Estimate:
    scores = paad_map_scores(net, snap, g)
    v_hat, ties = _argmax_pick(scores, rng)
    total = sum(scores.values())
    return Estimate(v_hat, list(scores), scores, len(ties), "paad-map",
                    info={"pd_conditional": max(scores.values()) / total})


# ---------------------------------------------------------------------------
# spy estimators

MAX_PIVOT_LEAVES = 2_000_000  # algorithm_pivot_candidates refuses a larger feasible region


@dataclass
class PivotInfo:
    pivot: object
    eliminated: object  # pivot neighbor toward the spy; that branch is ruled out
    level: int
    spy: object
    h_spy_pivot: int
    h_pivot_anchor: int


def _solve_pivot(path_s_to_anchor, t_anchor, t_spy):
    """Split |path| into (spy->pivot, pivot->anchor) legs using the
    timestamp difference; the pivot is the infection-time minimum on the
    path."""
    dist = len(path_s_to_anchor) - 1
    dt = t_anchor - t_spy
    if (dist - dt) % 2 or dist < abs(dt):
        raise ValueError("observation inconsistent with a tree spread")
    h1 = (dist - dt) // 2
    h2 = (dist + dt) // 2
    return h1, h2


def algorithm_pivot_candidates(net: ContactNetwork, observations):
    """Candidate machinery for the distributed tree protocol.

    Finds the lowest-level spine spy, derives a pivot from every other spy in
    the feasible region, and returns (candidate leaves, lowest pivot, pivot
    list).  Returns None when no spine spy reported (inconclusive)."""
    spine = [o for o in observations if o.direction == "up"]
    if not spine:
        return None
    s0 = min(spine, key=lambda o: o.level)
    pivots = []
    for o in observations:
        if o.node == s0.node:
            continue
        path = graph.path(net, o.node, s0.node)
        dist = len(path) - 1
        # only spies in the feasible region (behind s0's parent, within its
        # level) carry information about the source
        if dist > s0.level or path[-2] != s0.parent:
            continue
        try:
            h1, h2 = _solve_pivot(path, s0.time, o.time)
        except ValueError:
            continue  # shortest-path/timing mismatch; happens only off trees
        if h1 == 0:
            continue  # the spy itself is the pivot; parent info already used via s0 ordering
        pivots.append(PivotInfo(
            pivot=path[h1],
            eliminated=path[h1 - 1],
            level=s0.level - h2,
            spy=o.node,
            h_spy_pivot=h1,
            h_pivot_anchor=h2,
        ))

    if pivots:
        m = min(p.level for p in pivots)
        lowest = [p for p in pivots if p.level == m]
        l_min = lowest[0].pivot
        level = m
        blocked = {p.eliminated for p in lowest if p.pivot == l_min}
        # the source sits away from the anchor: exclude the anchor-side branch
        path_up_anchor = graph.path(net, l_min, s0.node)
        if len(path_up_anchor) > 1:
            blocked.add(path_up_anchor[1])
    else:
        l_min = s0.node
        level = s0.level
        blocked = {w for w in net.neighbors(s0.node) if w != s0.parent}

    # leaves of the feasible region: exactly `level` hops from the pivot,
    # avoiding eliminated branches (BFS with dedup, so cycles do not
    # multiply paths; exact on trees); none if the region ends sooner
    leaves = []
    for depth, (ring, _) in enumerate(graph.bfs(net.neighbors, [l_min], blocked, level)):
        if len(ring) > MAX_PIVOT_LEAVES:
            raise RuntimeError("feasible region too large to enumerate")
        if depth == level:
            leaves = ring
    return leaves, l_min, level, s0, pivots


def _no_pivot_candidates(kind: str, out) -> Estimate:
    """The inconclusive estimate when algorithm_pivot_candidates gave `out`,
    None or no candidate."""
    return _inconclusive(kind, "no spine spy reported" if out is None
                         else "the feasible region ends before the pivot's level")


def estimate_spy_ml(net: ContactNetwork, observations, rng) -> Estimate:
    """Pivot-based ML estimator for the tree protocol on regular trees:
    uniform over the feasible leaves that survive pivot elimination."""
    out = algorithm_pivot_candidates(net, observations)
    if out is None or not out[0]:
        return _no_pivot_candidates("spy-ml", out)
    candidates, l_min, level, s0, pivots = out
    return Estimate(_pick(rng, candidates), candidates, None, len(candidates), "spy-ml",
                    info={"pivot": l_min, "pivot_level": level, "s0": s0.node,
                          "pivots": pivots})


def estimate_first_spy(observations, rng) -> Estimate:
    """Parent of the earliest-infected spy; the fundamental lower bound."""
    if not observations:
        return _inconclusive("first-spy", "no spy reported")
    t0 = min(o.time for o in observations)
    first = _pick(rng, [o for o in observations if o.time == t0])
    return Estimate(first.parent, [first.parent], None, 1, "first-spy",
                    info={"spy": first.node, "time": t0})


def estimate_spy_irregular(net: ContactNetwork, observations, rng, time: dict | None = None) -> Estimate:
    """Pivot candidates re-weighted for irregular degrees: candidate u gets
    1/deg(u) * prod of 1/(deg(v)-1) over the interior of its path to the
    lowest pivot.  With `time`, a snapshot's infection times in infection
    order, an infected node of a finite network counts instead its
    neighbors still uninfected when it was infected, deg(v) minus those
    infected before it, which corrects for cycles."""
    out = algorithm_pivot_candidates(net, observations)
    if out is None or not out[0]:
        return _no_pivot_candidates("spy-irregular", out)
    candidates, l_min, level, s0, pivots = out
    rank = {v: i for i, v in enumerate(time)} if time is not None and net.is_finite else {}
    open_degree = {}

    def eff_degree(v):
        if v not in open_degree:
            r = rank.get(v)
            before = 0 if r is None else sum(1 for w in net.neighbors(v) if rank.get(w, r) < r)
            open_degree[v] = net.degree(v) - before
        return open_degree[v]

    weights = {}
    for u in candidates:
        w = 1.0 / max(eff_degree(u), 1)
        for v in graph.path(net, u, l_min)[1:-1]:
            w /= max(eff_degree(v) - 1, 1)
        weights[u] = w
    v_hat, ties = _argmax_pick(weights, rng)
    return Estimate(v_hat, candidates, weights, len(ties), "spy-irregular",
                    info={"pivot": l_min, "pivot_level": level, "s0": s0.node})


# ---------------------------------------------------------------------------
# line estimator


def estimate_line_ml(trace: LineTrace) -> Estimate:
    """Closed-form ML estimate on the line from the earlier spy's receipt
    time plus the revealed latent coin and direction (mode of a shifted
    binomial).  A missing trace (None) raises ValueError."""
    if trace is None:
        raise ValueError("line-ml needs a line trace: run the polya-line protocol on the line network")
    if trace.first_spy is None or trace.t_first is None:
        return _inconclusive("line-ml", "no end spy reported")
    n, q, t1 = trace.n, trace.q, trace.t_first
    mirrored = trace.first_spy == n + 1
    # express everything as if the reporting spy sat at position 0
    d_local = trace.direction
    if mirrored:
        d_local = "left" if d_local == "right" else "right"
    toward = d_local == "left"  # token moving toward the reporting spy

    if t1 == 1:
        v_local = 1
    elif toward:
        if t1 % 2 == 0:
            # source = 2 + t1/2 + Binom(t1/2 - 2, q): take the mode
            v_local = (t1 + 4) // 2 + math.floor(q * (t1 - 2) / 2) if t1 >= 4 else 2
        else:
            v_local = (t1 + 3) // 2 + math.floor(q * (t1 - 1) / 2)
    else:
        if t1 % 2 == 0:
            raise ValueError("even receipt time with the token moving away is impossible")
        v_local = 1 + math.floor((1 - q) * (t1 - 1) / 2)

    v_hat = (n + 1 - v_local) if mirrored else v_local
    return Estimate(v_hat, [v_hat], None, 1, "line-ml",
                    info={"t1": t1, "q": q, "direction": trace.direction})


# ---------------------------------------------------------------------------
# combined spy + snapshot estimator (regular trees, even T)


def estimate_spy_snapshot(snap: InfectionSnapshot, observations, rng) -> Estimate:
    """Joint ML over boundary leaves on a regular tree: a leaf survives if a
    spine running from it through the observed center can explain every
    spy's direction bit, parent pointer, and receipt time.  Snapshot size
    reveals T, which anchors spy timestamps to the start of the spread.
    Uniform over survivors."""
    if snap.T % 2:
        raise ValueError("combined estimation expects an even snapshot time")
    _, up, depth = _children_from_center(snap)
    center = snap.virtual_source
    half_t = snap.T // 2
    leaves = snap.boundary()
    obs = [o for o in observations if o.node in snap.time]
    if not obs:
        return Estimate(_pick(rng, leaves), leaves, None, len(leaves), "spy-snapshot")

    spy_chains = [(o, _path_up(up, o.node)) for o in obs]  # chain: node .. center

    def explains(leaf) -> bool:
        path = _path_up(up, leaf)  # leaf .. center
        on_path = {v: i for i, v in enumerate(path)}  # index = dist from leaf
        shift = None
        for o, chain in spy_chains:
            s = o.node
            if s == leaf:
                return False
            if s in on_path:
                # hypothesized spine member below the center
                if o.direction != "up":
                    return False
                idx = on_path[s]
                if o.parent != path[idx - 1]:
                    return False  # spine parents point toward the source
                m_hyp = half_t - depth[s]
                tau_hyp = m_hyp
            else:
                # junction of the spy's up-chain with the hypothesized spine
                z = next(v for v in chain if v in on_path)
                if o.direction == "up":
                    if z != center or (o.level is not None and o.level <= half_t):
                        return False  # a spine spy must sit on the spine or above the center
                    m_hyp = o.level
                    tau_hyp = o.level
                else:
                    # a junction strictly below the center pins the spy's level;
                    # through the center the attachment height is free and only
                    # the (position-determined) receipt time constrains
                    m_hyp = None if z == center else (half_t - depth[z]) - (depth[s] - depth[z])
                    tau_hyp = (half_t - depth[z]) + (depth[s] - depth[z])
            if m_hyp is not None and o.level is not None and o.level != m_hyp:
                return False
            # spy clocks are mutually consistent but not anchored to the start
            delta = o.time - tau_hyp
            if shift is None:
                shift = delta
            elif delta != shift:
                return False
        return True

    survivors = [leaf for leaf in leaves if explains(leaf)]
    if not survivors:
        return _inconclusive("spy-snapshot", "no boundary leaf explains every spy")
    return Estimate(_pick(rng, survivors), survivors, None, len(survivors), "spy-snapshot")


# ---------------------------------------------------------------------------
# repeated-observation adversary


def estimate_multiple_snapshots(snap: InfectionSnapshot, observe_T: int, rng) -> Estimate:
    """Worst-case adversary that watches every step after observe_T: it
    learns the token's distance from the source and the branch the token
    wandered into, and guesses uniformly among the remaining nodes at that
    distance."""
    if observe_T % 2:
        raise ValueError("observe_T must be even")
    seen = snap.at(observe_T)
    vs, h = seen.virtual_source, seen.h_T
    later = [e for e in snap.vs_events if e[0] > observe_T]
    if not later:
        return _inconclusive("multi-snapshot", f"the token did not move after observe_T={observe_T}")

    # the ring h hops from vs in the infection tree as it stood at observe_T,
    # off the branch the token moved into next
    rings = [ring for ring, _ in graph.bfs(seen.subtree_adjacency().__getitem__, [vs], (later[0][1],), h)]
    candidates = rings[h] if len(rings) > h else []
    if not candidates:
        return _inconclusive("multi-snapshot", f"no node {h} hops from the token off the branch it moved into")
    v_hat = _pick(rng, candidates)
    return Estimate(v_hat, candidates, None, len(candidates), "multi-snapshot",
                    info={"h": h, "vs": vs})
