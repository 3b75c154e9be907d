"""Spreading protocols as deterministic-given-RNG step machines.

Every protocol produces an InfectionSnapshot carrying the full metadata an
adversary might see: infection times (in infection order), parents, the
token's centers and hand-offs, and per-node levels/directions for the
distributed tree protocol.  Degrees and neighbors are facts about the
network, not the spread: estimators read them from the network itself.
Flooding is plain diffusion at q=1.

Timing convention used throughout: the token holder at an even epoch te
decides to keep or pass; the resulting infection waves occupy steps te+1
(and te+2 for a pass).  A snapshot at odd T after a pass is therefore
mid-transition and has two symmetric centers, which it reads from the
token's hand-offs.  _token_walk is the one home of that timing: adaptive
diffusion, paad, the grid protocol and the line all run on it.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from collections import Counter
from itertools import islice
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import (
    ContactNetwork,
    Grid,
    GRID_DIRECTIONS,
    OPPOSITE_DIRECTION,
    bfs,
    grid_encode,
    node_uniforms,
)

# ---------------------------------------------------------------------------
# token keep-probabilities


def alpha_regular(d: int, t: int, h: int) -> float:
    """Keep-probability at even epoch t, h hops from the source, degree d."""
    if d < 2:
        raise ValueError("degree must be >= 2")
    if t < 2 or t % 2:
        raise ValueError("t must be even and >= 2")
    if not 1 <= h <= t // 2:
        raise ValueError(f"h must lie in [1, {t // 2}], got {h}")
    if d == 2:
        return (t - 2 * h + 2) / (t + 2)
    b = d - 1
    return (b ** (t // 2 - h + 1) - 1) / (b ** (t // 2 + 1) - 1)


def alpha_grid(t: int, h: int) -> float:
    """Keep-probability for the grid protocol."""
    if t < 2 or t % 2:
        raise ValueError("t must be even and >= 2")
    if not 1 <= h <= t // 2:
        raise ValueError(f"h must lie in [1, {t // 2}], got {h}")
    return (t - 2 * (h - 1)) / (t + 4)


# ---------------------------------------------------------------------------
# configuration


ALWAYS_PASS = "always-pass"
EXACT = "exact"


@dataclass
class ProtocolParams:
    """Spreading configuration.

    d0 is the degree assumed by the keep-probability schedule; d0=math.inf
    (or alpha_policy='always-pass') means the token is always passed and the
    source ends at a leaf, h_T = T/2 hops from the token.  On a finite graph
    a holder whose neighbors were all infected by others has no one to pass
    to and keeps the token, which breaks that guarantee.  fanout_cap limits
    new infections per node per step; it defaults to 3 on finite explicit
    graphs and to no cap on infinite networks.  Diffusion takes q in (0, 1]:
    at q=1 it floods, drawing no coins.
    """

    kind: str = "adaptive"
    alpha_policy: str = EXACT
    d0: float | int | None = None
    q: float | None = None
    g: int = 1
    fanout_cap: int | None = None
    horizon: int = 0

    def __post_init__(self):
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.fanout_cap is not None and self.fanout_cap < 1:
            raise ValueError(f"fanout_cap must be >= 1, got {self.fanout_cap}")
        if self.d0 is not None and math.isinf(self.d0):
            self.alpha_policy = ALWAYS_PASS
            self.d0 = None
        if self.alpha_policy not in (EXACT, ALWAYS_PASS):
            raise ValueError(f"unknown alpha_policy {self.alpha_policy!r} (use {EXACT} or {ALWAYS_PASS})")
        if self.alpha_policy == EXACT and self.d0 is not None and self.d0 < 2:
            raise ValueError("d0 must be >= 2 (or inf for always-pass)")
        if self.kind == "diffusion":
            if self.q is None or not 0.0 < self.q <= 1.0:
                raise ValueError("diffusion requires q in (0, 1]")
        if self.kind == "paad" and self.g < 1:
            raise ValueError("paad requires g >= 1")

    def keep_probability(self, net: ContactNetwork):
        """Return the callable (even t, h) -> keep probability."""
        if self.alpha_policy == ALWAYS_PASS:
            return lambda t, h: 0.0
        d = self.d0
        if d is None:
            d = getattr(net, "d", None)
            if d is None:
                raise ValueError("exact policy needs an explicit d0 on non-regular networks")
        return lambda t, h: alpha_regular(int(d), t, h)


@dataclass
class SpyObservation:
    """One spy's report: receipt time plus whatever metadata it was sent."""

    node: object
    time: int
    parent: object
    direction: str | None = None
    level: int | None = None


TRACE_COLUMNS = ("node", "infection_time", "parent", "direction", "level", "is_virtual_source_at_t")


@dataclass
class InfectionSnapshot:
    """The infected subgraph at time T plus the full spread trace.  `time`'s
    insertion order is the infection order, the source first, and the other
    dicts follow it.  h in vs_events is the token's hops from the source; the
    snapshot's own hand-offs are those listed by T + T % 2, so one appended
    later (as multi_snapshot_trial does) moves neither centers nor h_T."""

    protocol: str
    T: int
    source: object
    time: dict
    parent: dict
    vs_events: list  # (t, node, h) token handoffs
    direction: dict = field(default_factory=dict)  # tree protocol metadata
    level: dict = field(default_factory=dict)
    line_trace: LineTrace | None = None  # what the end spies of a polya-line spread see

    @property
    def nodes(self):
        return self.time.keys()

    @property
    def n_infected(self) -> int:
        return len(self.time)

    def _handoffs(self) -> list:
        events, last = self.vs_events, self.T + self.T % 2
        return events if events[-1][0] <= last else [e for e in events if e[0] <= last]

    @property
    def centers(self) -> list:
        """The token holder; or mid-pass, when the last hand-off is listed at
        T+1 (at odd T, between a pass's two waves), the new and the old
        holder."""
        events = self._handoffs()
        if events[-1][0] == self.T + 1:
            return [events[-1][1], events[-2][1]]
        return [events[-1][1]]

    @property
    def mid_pass(self) -> bool:
        return len(self.centers) == 2

    @property
    def virtual_source(self):
        return self._handoffs()[-1][1]

    @property
    def h_T(self) -> int:
        return self._handoffs()[-1][2]

    def at(self, t: int) -> InfectionSnapshot:
        """The same spread's snapshot at time t <= T, which a spread to
        horizon t on the same draws leaves: infection times never fall along
        the infection order, so its nodes are a prefix of this one's, which
        each dict's first n items hold.  A polya-line spread ignores its
        horizon, so its snapshot returns itself."""
        if self.protocol == "polya-line":
            return self
        n = bisect_right(list(self.time.values()), t)
        last = t + t % 2
        return InfectionSnapshot(self.protocol, t, self.source, dict(islice(self.time.items(), n)),
                                 dict(islice(self.parent.items(), n)), [e for e in self.vs_events if e[0] <= last],
                                 dict(islice(self.direction.items(), n)), dict(islice(self.level.items(), n)))

    def subtree_adjacency(self) -> dict:
        """Undirected adjacency of the infection tree (parent links)."""
        adj = {v: [] for v in self.time}
        for v, p in self.parent.items():
            if p is not None:
                adj[v].append(p)
                adj[p].append(v)
        return adj

    def boundary(self) -> list:
        """The infection tree's nodes of degree <= 1, in infection order."""
        n_children = Counter(self.parent.values())
        return [v for v in self.time if n_children[v] + (self.parent[v] is not None) <= 1]

    def to_csv(self, fh) -> None:
        vs_time = {node: t for t, node, _ in self.vs_events}
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        enc = (lambda v: grid_encode(*v)) if self.protocol == "grid-adaptive" else (lambda v: v)
        for v in sorted(self.time, key=self.time.get):
            p = self.parent.get(v)
            writer.writerow([
                enc(v),
                self.time[v],
                "" if p is None else enc(p),
                self.direction.get(v, ""),
                self.level.get(v, ""),
                vs_time.get(v, ""),
            ])


# ---------------------------------------------------------------------------
# shared machinery


class _State:
    """A spread's infection times and parents, in infection order (the
    source first)."""

    def __init__(self, net):
        self.net = net
        self.time: dict = {}
        self.parent: dict = {}
        self.scanned: dict = {}  # node -> its neighbors, once a lazy-tree wave has infected them all

    def infect(self, v, t, parent):
        self.time[v] = t
        self.parent[v] = parent


def _pick(rng: np.random.Generator, items):
    """A uniform pick; one item skips rng.integers(1), which draws nothing."""
    return items[0] if len(items) == 1 else items[int(rng.integers(len(items)))]


def _sample(rng: np.random.Generator, items: list, k: int) -> list:
    """A uniform ordered k-subset of `items`, which it shuffles in place.
    The picks and the draws are those of the first k entries of
    rng.permutation(len(items)), whose law is that of rng.choice(len(items),
    k, replace=False), at a fraction of either's cost for the few items a
    fan-out cap sees."""
    rng.shuffle(items)
    return items[:k]


def _lazy_tree_wave(st: _State, origin, blocked, t: int) -> None:
    """_tree_link_wave on a lazy tree without a fan-out cap, in the same
    order.  On a tree each infected node is reached once, from its one
    neighbor on the origin's side, so no visited set is kept; a neighbor is
    infected as the scan meets it, which is the order _tree_link_wave
    infects its targets in.  A scanned node has no uninfected neighbor
    left, so later waves relay through its kept neighbor list without
    querying the network."""
    time, parent = st.time, st.parent
    neighbors, scanned = st.net.neighbors, st.scanned
    stack = [(origin, blocked)]
    pop, push = stack.pop, stack.append
    while stack:
        v, frm = pop()
        nbrs = scanned.get(v)
        if nbrs is not None:
            for w in nbrs:
                if w != frm:
                    push((w, v))
            continue
        nbrs = scanned[v] = neighbors(v)
        for w in nbrs:
            if w == frm:
                continue
            if w in time:
                push((w, v))
            else:
                time[w] = t
                parent[w] = v


def _tree_link_wave(st: _State, origin, blocked, t: int, cap, rng) -> None:
    """One infection wave: relay through the infected region starting at
    `origin` (skipping `blocked`), infecting the uninfected boundary.  Each
    node infects at most `cap` new nodes per wave.

    The relay follows infection-tree links only (a node's parent and
    children), so a wave that starts past `blocked` stays on that side of
    the infection tree even where graph edges close a cycle.  It walks the
    infection tree away from `origin`, so it reaches each infected node once
    and needs no visited set; only the targets claimed in this wave, the
    ones the cap passed over too, are kept so that no later relay claims
    them again."""
    time, parent = st.time, st.parent
    neighbors = st.net.neighbors
    claimed = set()
    stack = [(origin, blocked)]
    while stack:
        v, frm = stack.pop()
        up = parent[v]
        relays = []
        targets = []
        for w in neighbors(v):
            if w in time:
                if w != frm and (w == up or parent[w] == v):
                    relays.append(w)
            elif w not in claimed:
                targets.append(w)
                claimed.add(w)
        if cap is not None and len(targets) > cap:
            targets = _sample(rng, targets, cap)
        for w in targets:
            st.infect(w, t, v)
        stack.extend((w, v) for w in relays)


def _default_cap(net: ContactNetwork, params: ProtocolParams):
    if params.fanout_cap is not None:
        return params.fanout_cap
    return 3 if net.is_finite else None


# ---------------------------------------------------------------------------
# adaptive diffusion (trees and explicit graphs)


BALL_MEMO_NODES = 1 << 16  # a lazy tree's memo holds balls of at most this many nodes in all


def spread_adaptive(net: ContactNetwork, source, params: ProtocolParams, rng,
                    _states=(), _vs_weights=None, _protocol_name="adaptive") -> InfectionSnapshot:
    """Token-based spreading that keeps the infection balanced around a
    moving virtual source.

    At each even epoch the token holder keeps the token with the configured
    keep-probability (one symmetric wave) or passes it to one of its
    infection-tree children (two one-sided waves spanning two steps, which
    grow only the new holder's side of the tree); _token_walk owns that
    timing.  The first hand-off, from the source, is uniform over all its
    neighbors.  On trees the children are exactly the infected
    non-backtracking neighbors.  On finite graphs the fan-out cap applies
    and waves relay along infection-tree links only (see _tree_link_wave),
    so even with cycles the token walks away from the source and always-pass
    leaves the source a leaf at depth h_T.

    On a lazy tree without a fan-out cap the waves draw nothing, and a
    holder's children are its neighbors other than the previous holder, so
    the walk is drawn first, with the same draws in the same order, and its
    waves are kept as a plan.  The ball they leave depends on the source,
    the first holder and the plan alone: it is copied from the tree's memo
    when an earlier spread left it, and otherwise the plan runs and the
    ball goes into the memo (see _lazy_tree_ball).

    _vs_weights(net, holder, candidates) -> weights replaces the uniform
    pick of each holder.  _states is _token_walk's `states`.
    """
    cap = _default_cap(net, params)
    st = _State(net)
    plan = [] if cap is None and net.is_tree else None  # (origin, blocked, t) of each wave

    if plan is None:
        # the token moves to a tree child of its holder: under a fan-out cap
        # some neighbors may still be uninfected, and on a cyclic graph an
        # infected neighbor may hang off another branch of the tree
        def moves(vs, prev):
            return [w for w in net.neighbors(vs) if w in st.time and st.parent[w] == vs]

        def wave(origin, blocked, t):
            _tree_link_wave(st, origin, blocked, t, cap, rng)
    else:
        def moves(vs, prev):
            return [w for w in net.neighbors(vs) if w != prev]

        def wave(origin, blocked, t):
            plan.append((origin, blocked, t))

    vs_events = _token_walk(st, source, params.horizon, rng, params.keep_probability(net),
                            list(net.neighbors(source)), moves, wave, _states, _vs_weights)
    if plan:  # vs_events[1] holds the first holder
        _lazy_tree_ball(st, source, vs_events[1][1], tuple(plan))
    return InfectionSnapshot(_protocol_name, params.horizon, source, st.time, st.parent, vs_events)


def _pick_holder(rng, weights, net, holder, candidates):
    """The token's next holder: uniform over candidates, or drawn by
    weights(net, holder, candidates), or None when every weight is 0."""
    if weights is None:
        return _pick(rng, candidates)
    probs = np.asarray(weights(net, holder, candidates), dtype=float)
    return candidates[int(rng.choice(len(candidates), p=probs / probs.sum()))] if probs.any() else None


def _token_walk(st: _State, source, T: int, rng, alpha, first_holders: list, moves, wave,
                states=(), weights=None, stop=None) -> list:
    """The token walk of adaptive diffusion, the grid protocol and the line,
    and the one home of their timing.

    The source hands the token to one of `first_holders` at step 1, and the
    first holder's wave, away from the source, infects step 2.  At each even
    epoch te the holder keeps the token with probability alpha(te, h), h
    being the token's hops from the source, and its wave infects step te+1;
    or it passes the token to one of moves(holder, previous holder), whose
    wave away from the old holder infects step te+1 and again step te+2.  A
    holder with no moves keeps the token.  Returns the hand-offs (t, node,
    h): the first holder's listed at 1 and a pass's at te+2, the step its
    second wave infects, from which the snapshot reads its centers.

    wave(origin, blocked, t) infects step t from origin, away from its
    neighbor `blocked` (None for a holder that kept the token).
    weights(net, holder, candidates) -> weights replaces the uniform pick of
    each holder; with every weight 0, the holder keeps.  stop() is asked
    before each even epoch's coin; once it is true, the walk ends there.

    states = {t: None} for early horizons t below T, every spread's _states:
    the walk stores the stream's state at each t as it passes it, before it
    draws on, which is the state a walk to horizon t leaves.  At an odd t
    after a pass it is taken between the pass's two waves."""
    st.infect(source, 0, None)
    vs_events = [(0, source, 0)]  # (t, node, h) of each hand-off

    if 0 in states:
        states[0] = rng.bit_generator.state
    if T == 0:
        return vs_events

    first = _pick_holder(rng, weights, st.net, source, first_holders)
    if first is None:  # the source must hand the token on at step 1
        raise ValueError(f"every move from the source {source!r} has weight 0")
    st.infect(first, 1, source)
    vs, prev = first, source
    h = 1
    vs_events.append((1, first, 1))
    if 1 in states:
        states[1] = rng.bit_generator.state
    if T >= 2:
        wave(vs, prev, 2)
        if 2 in states:
            states[2] = rng.bit_generator.state

    te = 2
    while te + 1 <= T and (stop is None or not stop()):
        children = moves(vs, prev)
        kept = rng.random() < alpha(te, h) or not children
        new_vs = None if kept else _pick_holder(rng, weights, st.net, vs, children)
        if new_vs is None:
            wave(vs, None, te + 1)
        else:
            wave(new_vs, vs, te + 1)
            prev, vs = vs, new_vs
            h += 1
            vs_events.append((te + 2, vs, h))
        if te + 1 in states:
            states[te + 1] = rng.bit_generator.state
        te += 2
        if te <= T:
            if new_vs is not None:  # the pass's second wave
                wave(vs, prev, te)
            if te in states:
                states[te] = rng.bit_generator.state

    return vs_events


def _lazy_tree_ball(st: _State, source, first, plan: tuple) -> None:
    """Fill st, which holds the source and the first holder, with the ball
    that `plan`'s waves leave on its lazy tree: a copy of the one in the
    tree's memo, or else the waves run and a copy of their ball is kept
    there.  The memo's balls hold at most BALL_MEMO_NODES nodes in all: the
    oldest leave first to make room, and a ball larger than that is not
    kept.  Every spread gets dicts of its own, so changing a snapshot
    changes no other."""
    memo = st.net.memo
    key = (source, first, plan)
    ball = memo.get(key)
    if ball is not None:
        st.time, st.parent = dict(ball[0]), dict(ball[1])
        return
    for origin, blocked, t in plan:
        _lazy_tree_wave(st, origin, blocked, t)
    size = len(st.time)
    if size <= BALL_MEMO_NODES:
        while memo.nodes + size > BALL_MEMO_NODES:
            memo.nodes -= len(memo.pop(next(iter(memo)))[0])
        memo[key] = dict(st.time), dict(st.parent)
        memo.nodes += size


# ---------------------------------------------------------------------------
# preferential-attachment adaptive diffusion


def _g_hop_neighborhood_size(net, v, blocked, g: int) -> int:
    """Number of nodes within g hops of v, not counting v, never crossing
    `blocked`."""
    return sum(len(level) for level, _ in bfs(net.neighbors, [v], (blocked,), g)) - 1


def spread_paad(net: ContactNetwork, source, params: ProtocolParams, rng, _states=()) -> InfectionSnapshot:
    """Always-pass adaptive diffusion with the next token holder picked
    proportionally to the size of its g-hop neighborhood away from the
    current holder (for g=1, proportionally to degree-1).  _states is
    _token_walk's."""
    g = params.g
    p2 = replace(params, alpha_policy=ALWAYS_PASS)

    def weights(net_, vs, candidates):
        return [_g_hop_neighborhood_size(net_, w, vs, g) for w in candidates]

    return spread_adaptive(net, source, p2, rng=rng, _vs_weights=weights, _protocol_name="paad", _states=_states)


# ---------------------------------------------------------------------------
# fully-distributed tree protocol


def spread_tree_protocol(net: ContactNetwork, source, params: ProtocolParams, rng,
                         _states=()) -> InfectionSnapshot:
    """Distributed always-pass variant.  Each message carries (parent,
    direction, level); an up node extends the spine by one and sends level-1
    down messages to the rest; down nodes relay with decremented level and
    stop at level 0.  The true source keeps level 0 and the up flag, and ends
    at a leaf of the infected subtree.  _states is _token_walk's.

    The infection is balanced around the level-T/2 spine node, so the token's
    hand-offs are the spine, timed as adaptive diffusion's token: spine[k] is
    listed at step k for k < 2 and at 2k after that, while 2k <= T+1."""
    T = params.horizon
    cap = _default_cap(net, params)

    st = _State(net)
    direction: dict = {}
    level: dict = {}
    st.infect(source, 0, None)
    direction[source] = "up"
    level[source] = 0
    vs_events = [(0, source, 0)]

    if 0 in _states:
        _states[0] = rng.bit_generator.state
    if T >= 1:
        w = _pick(rng, list(net.neighbors(source)))
        st.infect(w, 1, source)
        direction[w] = "up"
        level[w] = 1
        vs_events.append((1, w, 1))
        active = [w]
        picked_up = set()
        if 1 in _states:
            _states[1] = rng.bit_generator.state
        for t in range(2, T + 1):
            actors = [v for v in active if level[v] > 0]
            rng.shuffle(actors)
            still_active = []
            new_nodes = []
            for v in actors:
                uninf = [u for u in net.neighbors(v) if u not in st.time]
                if not uninf:
                    continue
                budget = cap if cap is not None else len(uninf)
                if direction[v] == "up" and v not in picked_up:
                    up_child = _pick(rng, uninf)
                    st.infect(up_child, t, v)
                    direction[up_child] = "up"
                    k = level[up_child] = level[v] + 1
                    if 2 * k <= T + 1:
                        vs_events.append((2 * k, up_child, k))
                    picked_up.add(v)
                    new_nodes.append(up_child)
                    uninf = [u for u in uninf if u != up_child]
                    budget -= 1
                if budget > 0 and uninf:
                    take = uninf if len(uninf) <= budget else _sample(rng, uninf, budget)
                    for z in take:
                        st.infect(z, t, v)
                        direction[z] = "down"
                        level[z] = level[v] - 1
                        new_nodes.append(z)
                if any(u not in st.time for u in net.neighbors(v)):
                    still_active.append(v)
            active = still_active + new_nodes
            if t in _states:
                _states[t] = rng.bit_generator.state
    return InfectionSnapshot("tree-protocol", T, source, st.time, st.parent, vs_events, direction, level)


# ---------------------------------------------------------------------------
# plain diffusion, which floods at q=1


def spread_diffusion(net: ContactNetwork, source, params: ProtocolParams, rng,
                     _states=()) -> InfectionSnapshot:
    """Discrete-time SI dynamics: each infected-uninfected edge fires
    independently with probability q per step; simultaneous infectors
    tie-break uniformly for parenthood.  At q=1 every edge fires, with no
    coin drawn: this is flooding, and the snapshot is the radius-T ball
    around the source.  _states is _token_walk's."""
    q, T = params.q, params.horizon
    st = _State(net)
    st.infect(source, 0, None)
    if 0 in _states:
        _states[0] = rng.bit_generator.state
    open_edges = {source: [w for w in net.neighbors(source) if w not in st.time]}
    for t in range(1, T + 1):
        hits: dict = {}
        # one coin per open edge, in the same order as scalar draws would take them
        n_open = sum(map(len, open_edges.values()))
        coins = iter([0.0] * n_open if q == 1 else rng.random(n_open).tolist())
        for u, targets in open_edges.items():
            for w, coin in zip(targets, coins):
                if coin < q:
                    hits.setdefault(w, []).append(u)
        if hits:
            for w, infectors in hits.items():
                st.infect(w, t, _pick(rng, infectors))
            for w in hits:
                open_edges[w] = [z for z in net.neighbors(w) if z not in st.time]
        for u in list(open_edges):
            remaining = [w for w in open_edges[u] if w not in st.time]
            if remaining:
                open_edges[u] = remaining
            else:
                del open_edges[u]
        if t in _states:
            _states[t] = rng.bit_generator.state
    return InfectionSnapshot("diffusion", T, source, st.time, st.parent, [(0, source, 0)])


# ---------------------------------------------------------------------------
# grid protocol


_DIRECTION_OF = {step: d for d, step in GRID_DIRECTIONS.items()}


def spread_grid(net: Grid, source_xy, params: ProtocolParams, rng, _states=()) -> InfectionSnapshot:
    """Adaptive diffusion on the lattice with directional bookkeeping, on
    _token_walk with alpha_grid for the keep-probability.

    The token carries the displacement (hH, hV) from the source; moves that
    would shrink |hH|+|hV| are forbidden, so h = |hH|+|hV|.  Branch messages
    carry up to two forbidden directions so each wave grows the ball by one
    ring.  _states is _token_walk's.
    """
    if not isinstance(net, Grid):
        raise ValueError("grid spreading requires a grid network")
    if isinstance(source_xy, int):
        raise ValueError("pass the source as an (x, y) pair")
    source = tuple(source_xy)
    x0, y0 = source
    st = _State(net)

    def moves(vs, prev):
        x, y = vs
        return [(x + dx, y + dy) for dx, dy in GRID_DIRECTIONS.values() if (x - x0) * dx >= 0 and (y - y0) * dy >= 0]

    def wave(origin, blocked, t):
        # One message class per initial direction, none toward `blocked`; a
        # class relays neither back the way it came nor toward `blocked`.
        # Nodes infected within this wave never relay.
        back = None if blocked is None else _DIRECTION_OF[blocked[0] - origin[0], blocked[1] - origin[1]]
        new_in_wave = set()
        for d0, (dx, dy) in GRID_DIRECTIONS.items():
            if d0 == back:
                continue
            allowed = [step for d, step in GRID_DIRECTIONS.items() if d not in (OPPOSITE_DIRECTION[d0], back)]
            visited = {origin}
            entry = [(origin, (origin[0] + dx, origin[1] + dy))]
            while entry:
                sender, xy = entry.pop()
                if xy in visited:
                    continue
                visited.add(xy)
                if xy in st.time:
                    if xy in new_in_wave:
                        continue
                    x, y = xy
                    for ax, ay in allowed:
                        entry.append((xy, (x + ax, y + ay)))
                else:
                    st.infect(xy, t, sender)
                    new_in_wave.add(xy)

    # at the source every direction is a move, so its moves are the first holders
    vs_events = _token_walk(st, source, params.horizon, rng, alpha_grid, moves(source, None), moves, wave, _states)
    return InfectionSnapshot("grid-adaptive", params.horizon, source, st.time, st.parent, vs_events)


# ---------------------------------------------------------------------------
# line protocol via the latent-coin implementation


@dataclass
class LineTrace:
    """What the two end spies can reconstruct on the line: the latent pass
    probability, the initial direction, and the first receipt time measured
    from the start of the spread.  They are the spies' whole observation, so
    line-ml reads them here and nothing of the token's hand-offs."""

    n: int
    q: float
    direction: str  # 'left' | 'right'
    first_spy: int | None
    t_first: int | None


def spread_polya_line(n: int, source: int, rng, horizon: int | None = None, _states=()):
    """Spread on the line 0..n+1 with spies at both ends, on _token_walk.

    A direction D and a latent q ~ Uniform[0,1] are drawn first; the token
    then keeps with probability 1 - q at each even epoch and else passes one
    step on in direction D, which has the walk law of the exact schedule for
    degree 2.  The snapshot carries the LineTrace returned with it.  Without
    a horizon nothing past the spies is infected, the walk ends with the
    epoch in which the first spy reports, and T is the last infection time.
    The snapshot is every early horizon's (see InfectionSnapshot.at), so
    each key of _states gets the stream's state at the end.
    """
    if n < 1:
        raise ValueError("need at least one non-spy node on the line")
    if not 1 <= source <= n:
        raise ValueError("source must lie strictly between the spies")
    direction = "right" if rng.random() < 0.5 else "left"
    q = rng.random()
    step = 1 if direction == "right" else -1
    st = _State(None)
    time, parent = st.time, st.parent
    left, right = sorted((source, source + step))  # the segment's ends once the first holder is infected
    lo, hi = (0, n + 1) if horizon is None else (-math.inf, math.inf)  # without a horizon, nothing past the spies
    keep = 1.0 - q

    def wave(origin, blocked, t):
        # a kept token grows both ends, the left first; a passed one, the far end, which may pass a spy just reached
        nonlocal left, right
        if blocked is None or step < 0:
            left -= 1
            if left >= lo:
                time[left] = t
                parent[left] = left + 1
        if blocked is None or step > 0:
            right += 1
            if right <= hi:
                time[right] = t
                parent[right] = right - 1

    # without a horizon the walk stops once an end reaches a spy, which is by step 2n: the far end grows every epoch
    vs_events = _token_walk(st, source, 2 * n + 2 if horizon is None else horizon, rng, lambda te, h: keep,
                            [source + step], lambda vs, prev: [vs + step], wave,
                            stop=(lambda: left < 1 or right > n) if horizon is None else None)
    for t in _states:
        _states[t] = rng.bit_generator.state
    T = next(reversed(time.values())) if horizon is None else horizon  # the last infection time
    t_first, first_spy = min(((time[s], s) for s in (0, n + 1) if s in time), default=(None, None))
    trace = LineTrace(n, q, direction, first_spy, t_first)
    return InfectionSnapshot("polya-line", T, source, time, parent, vs_events, line_trace=trace), trace


# ---------------------------------------------------------------------------
# spy assignment and observation extraction


def assign_spies(snapshot: InfectionSnapshot, p: float, seed: int) -> list:
    """Mark each infected node except the source as a spy i.i.d. with
    probability p, keyed by (seed, node) so the assignment is reproducible:
    v is a spy when node_uniform(seed, v, salt=0x57E5) < p, with grid nodes
    keyed by their grid_encode."""
    nodes = [v for v in snapshot.time if v != snapshot.source]
    keys = [v if isinstance(v, int) else grid_encode(*v) for v in nodes]
    return [v for v, u in zip(nodes, node_uniforms(seed, keys, salt=0x57E5).tolist()) if u < p]


def observations_for(snapshot: InfectionSnapshot, spies) -> list:
    return [
        SpyObservation(
            node=s,
            time=snapshot.time[s],
            parent=snapshot.parent[s],
            direction=snapshot.direction.get(s),
            level=snapshot.level.get(s),
        )
        for s in spies
    ]
