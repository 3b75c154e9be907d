"""Contact-network models behind a uniform neighbor/degree oracle.

Four kinds of network are supported:

* infinite d-regular trees (lazy, zero storage),
* infinite random trees with i.i.d. node degrees (lazy, draws keyed by
  node id so the tree is a pure function of the seed),
* the infinite 2-D grid,
* finite explicit graphs loaded from edge lists.

Node ids are plain integers.  Tree nodes encode their path from the root
arithmetically, grid nodes encode (x, y) by zig-zag + bit interleaving, so
infinite networks need no global state and neighbor queries are O(1).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# deterministic per-node randomness


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def node_uniform(seed: int, node: int, salt: int = 0) -> float:
    """Uniform(0,1) draw that depends only on (seed, node, salt)."""
    h = _splitmix64(_splitmix64(seed & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(node & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(salt))
    return (h >> 11) / float(1 << 53)


def _splitmix64_array(x: np.ndarray) -> np.ndarray:
    """_splitmix64 of each entry of a uint64 array; its arithmetic wraps
    at 64 bits as the masks of the scalar version do."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def node_uniforms(seed: int, nodes, salt: int = 0) -> np.ndarray:
    """node_uniform(seed, v, salt) for every v in `nodes`, as one float array,
    hashed all at once."""
    ids = np.array([v & 0xFFFFFFFFFFFFFFFF for v in nodes], dtype=np.uint64)
    key = np.uint64(_splitmix64(seed & 0xFFFFFFFFFFFFFFFF) ^ _splitmix64(salt))
    return (_splitmix64_array(_splitmix64_array(ids) ^ key) >> np.uint64(11)) / float(1 << 53)


# ---------------------------------------------------------------------------
# degree distributions


@dataclass(frozen=True)
class DegreeDistribution:
    """Discrete degree law with support f_1 < ... < f_eta and weights p_i."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        f = tuple(int(x) for x in self.support)
        p = tuple(float(x) for x in self.probs)
        if len(f) != len(p) or len(f) < 1:
            raise ValueError("support and probs must be non-empty and equal length")
        if any(b <= a for a, b in zip(f, f[1:])):
            raise ValueError("support must be strictly increasing")
        if any(x < 2 for x in f):
            raise ValueError("degrees must be >= 2")
        if any(x < 0 for x in p):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(p) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "support", f)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "_cum", tuple(float(c) for c in np.cumsum(p)))

    @property
    def eta(self) -> int:
        return len(self.support)

    @property
    def mean_children(self) -> float:
        """E[D - 1], the mean offspring count away from the parent."""
        return sum(p * (f - 1) for f, p in zip(self.support, self.probs))

    @property
    def max_degree(self) -> int:
        return self.support[-1]

    def sample_from_uniform(self, u: float) -> int:
        for f, c in zip(self.support, self._cum):
            if u < c:
                return f
        return self.support[-1]


def degree_distribution(table: dict) -> DegreeDistribution:
    """Build a DegreeDistribution from a {degree: probability} mapping."""
    items = sorted(table.items())
    return DegreeDistribution(tuple(k for k, _ in items), tuple(v for _, v in items))


# ---------------------------------------------------------------------------
# grid coordinate codec (zig-zag each coordinate, then interleave bits)


def _zigzag(v: int) -> int:
    return (v << 1) ^ (v >> 63) if v >= 0 else ((-v) << 1) - 1


def _unzigzag(z: int) -> int:
    return (z >> 1) if (z & 1) == 0 else -((z + 1) >> 1)


def grid_encode(x: int, y: int) -> int:
    """Bijectively pack signed (x, y) into one nonnegative integer."""
    zx, zy = _zigzag(x), _zigzag(y)
    out = 0
    bit = 0
    while zx or zy:
        out |= (zx & 1) << (2 * bit)
        out |= (zy & 1) << (2 * bit + 1)
        zx >>= 1
        zy >>= 1
        bit += 1
    return out


def grid_decode(code: int) -> tuple:
    zx = zy = 0
    bit = 0
    while code:
        zx |= (code & 1) << bit
        code >>= 1
        zy |= (code & 1) << bit
        code >>= 1
        bit += 1
    return _unzigzag(zx), _unzigzag(zy)


GRID_DIRECTIONS = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}
OPPOSITE_DIRECTION = {"N": "S", "S": "N", "E": "W", "W": "E"}


# ---------------------------------------------------------------------------
# network kinds


class ContactNetwork:
    """Neighbor/degree oracle.  Lazy trees compute their neighbors and keep
    a Memo that spreads fill as they run, so each thread needs its own lazy
    tree; the other kinds are immutable after construction and reads of
    them are safe to share across threads."""

    kind = "abstract"
    is_finite = False
    is_tree = False  # acyclic: every node is reached from any other by one path

    def degree(self, v) -> int:
        raise NotImplementedError

    def neighbors(self, v) -> list:
        raise NotImplementedError

    def nodes(self):
        raise ValueError(f"{self.kind} network is infinite; cannot enumerate nodes")


class Memo(dict):
    """Results computed from one lazy tree alone, kept on it, oldest first,
    for later spreads (spread.spread_adaptive keeps each infected ball under
    the token walk that fixes it) while the tree lives.  `nodes` counts the
    nodes its entries hold, so that the spread can cap it."""

    nodes = 0


class RegularTree(ContactNetwork):
    """Infinite d-regular tree rooted at node 0.

    Children of the root are 1..d; node v >= 1 has d-1 children encoded as
    (v-1)*(d-1) + d + 1 + i, which is a bijection, so neighbor queries never
    allocate anything.
    """

    kind = "regular-tree"
    is_tree = True

    def __init__(self, d: int):
        if d < 2:
            raise ValueError("regular tree needs degree >= 2")
        self.d = d
        self.memo = Memo()

    def degree(self, v) -> int:
        return self.d

    def parent(self, v: int):
        if v == 0:
            return None
        if v <= self.d:
            return 0
        return (v - self.d - 1) // (self.d - 1) + 1

    def children(self, v: int) -> list:
        d = self.d
        if v == 0:
            return list(range(1, d + 1))
        base = (v - 1) * (d - 1) + d + 1
        return list(range(base, base + d - 1))

    def neighbors(self, v) -> list:
        # parent() and children() inlined: this is the spread's hot call
        d = self.d
        if v == 0:
            return list(range(1, d + 1))
        base = (v - 1) * (d - 1) + d + 1
        return [0 if v <= d else (v - d - 1) // (d - 1) + 1, *range(base, base + d - 1)]


class GaltonWatsonTree(ContactNetwork):
    """Infinite random tree; every node's total degree is i.i.d. from `dist`.

    The root draws its degree from the distribution and has that many
    children; any other node has degree-1 children beyond its parent.  The
    degree of node v is a pure function of (seed, v), so the network is
    identical no matter the order of queries.  Ids encode the path from the
    root in base max_degree.
    """

    kind = "galton-watson"
    is_tree = True

    def __init__(self, dist: DegreeDistribution, seed: int):
        self.dist = dist
        self.seed = seed
        self._arity = dist.max_degree  # fixed encoding base, degrees vary below it
        self.memo = Memo()

    def degree(self, v) -> int:
        return self.dist.sample_from_uniform(node_uniform(self.seed, v, salt=0xD15C))

    def parent(self, v: int):
        if v == 0:
            return None
        a = self._arity
        if v <= a:
            return 0
        return (v - a - 1) // (a - 1) + 1

    def children(self, v: int) -> list:
        a = self._arity
        deg = self.degree(v)
        n_children = deg if v == 0 else deg - 1
        if v == 0:
            return list(range(1, n_children + 1))
        base = (v - 1) * (a - 1) + a + 1
        return list(range(base, base + n_children))

    def neighbors(self, v) -> list:
        p = self.parent(v)
        ch = self.children(v)
        return ch if p is None else [p] + ch


class Grid(ContactNetwork):
    """Infinite 2-D lattice; neighbors are the four cardinal moves."""

    kind = "grid"

    def degree(self, v) -> int:
        return 4

    def neighbors(self, v) -> list:
        x, y = grid_decode(v)
        return [grid_encode(x + dx, y + dy) for dx, dy in GRID_DIRECTIONS.values()]


class ExplicitGraph(ContactNetwork):
    """Finite undirected simple graph held as an adjacency map."""

    kind = "explicit"
    is_finite = True

    def __init__(self, adjacency: dict):
        adj = {}
        for u, nbrs in adjacency.items():
            adj[int(u)] = sorted(set(int(w) for w in nbrs))
        for u, nbrs in adj.items():
            for w in nbrs:
                if u == w:
                    raise ValueError("self-loops are not allowed")
                if u not in adj.get(w, ()):
                    raise ValueError(f"asymmetric adjacency between {u} and {w}")
        # one canonical order, whatever order the edges came in: run_trial
        # draws the source by position in nodes()
        self.adj = {u: adj[u] for u in sorted(adj)}
        self._nodes = tuple(self.adj)

    def degree(self, v) -> int:
        return len(self.adj[v])

    def neighbors(self, v) -> list:
        return self.adj[v]

    def nodes(self) -> tuple:
        """Every node, in increasing id order."""
        return self._nodes

    @property
    def n_nodes(self) -> int:
        return len(self.adj)

    @property
    def n_edges(self) -> int:
        return sum(len(n) for n in self.adj.values()) // 2


# ---------------------------------------------------------------------------
# constructors


def regular_tree(d: int) -> RegularTree:
    return RegularTree(d)


def galton_watson_tree(dist, seed: int) -> GaltonWatsonTree:
    if isinstance(dist, dict):
        dist = degree_distribution(dist)
    return GaltonWatsonTree(dist, seed)


def grid() -> Grid:
    return Grid()


def from_edges(edges) -> ExplicitGraph:
    adj: dict = {}
    for u, v in edges:
        if u == v:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return ExplicitGraph({u: sorted(n) for u, n in adj.items()})


def load_edge_list(path) -> ExplicitGraph:
    """Read a whitespace-separated edge list ('u v' per line).

    Lines starting with '#' or '%' are comments.  Duplicate edges collapse;
    self-loop lines are dropped (a single warning reports the count).
    """
    edges = []
    self_loops = 0
    try:
        fh = open(path, "rt", encoding="utf-8")
    except OSError as e:
        raise OSError(f"cannot read edge list {path}: {e}") from e
    with fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s or s[0] in "#%":
                continue
            parts = s.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected two node ids, got {s!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: non-integer node id in {s!r}") from e
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: node ids must be nonnegative")
            if u == v:
                self_loops += 1
                continue
            edges.append((u, v))
    if self_loops:
        warnings.warn(f"{path}: dropped {self_loops} self-loop line(s)")
    return from_edges(edges)


def prune_min_degree(g: ExplicitGraph, k: int) -> ExplicitGraph:
    """The k-core: remove nodes of degree < k until no node is below k."""
    if not isinstance(g, ExplicitGraph):
        raise ValueError("degree pruning is only defined for explicit finite graphs")
    adj = {u: set(nbrs) for u, nbrs in g.adj.items()}
    queue = [u for u, nbrs in adj.items() if len(nbrs) < k]
    while queue:
        u = queue.pop()
        if u not in adj:
            continue
        for w in adj.pop(u):
            nbrs = adj.get(w)
            if nbrs is None:
                continue
            nbrs.discard(u)
            if len(nbrs) < k:
                queue.append(w)
    return ExplicitGraph({u: sorted(nbrs) for u, nbrs in adj.items()})


def synthetic_heavy_tail(n: int, m: int = 3, seed: int = 0) -> ExplicitGraph:
    """Preferential-attachment graph: each new node links to m distinct
    existing nodes chosen proportionally to degree.  Stands in for a real
    social graph when one is not on disk."""
    if n < m + 1:
        raise ValueError("need n > m")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    endpoints = [v for e in edges for v in e]
    for v in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(endpoints[int(rng.integers(len(endpoints)))])
        for u in targets:
            edges.append((u, v))
            endpoints.extend((u, v))
    return from_edges(edges)


def bfs(neighbors, sources, blocked=(), depth=None):
    """Breadth-first search from `sources`, one level at a time.

    Yields (level, parent) for depth 0 (the sources), 1, 2, ... while a
    level is non-empty: `level` lists that depth's nodes in discovery order,
    and `parent` maps every node found so far to the node it was found from
    (None for a source).  No node in `blocked` is entered: each is in
    `parent` from the start, mapped to None, so that `parent` is the one
    seen set.  `neighbors(v)` is not called for a node at `depth`, nor for
    the nodes of a level before the caller asks for the next one.
    """
    level = list(dict.fromkeys(sources))
    parent = dict.fromkeys(blocked)
    parent.update(dict.fromkeys(level))
    d = 0
    while level:
        yield level, parent
        if d == depth:
            return
        nxt = []
        for v in level:
            for w in neighbors(v):
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        level = nxt
        d += 1


def path(net: ContactNetwork, a, b) -> list:
    """A shortest path a..b, as its list of nodes.  On lazy trees it walks
    the parent pointers up to the common ancestor; on finite graphs it
    searches from a until b's level is reached, and nodes in different
    components raise ValueError."""
    if hasattr(net, "parent"):
        up = [a]  # a .. the root
        while (v := net.parent(up[-1])) is not None:
            up.append(v)
        index = {v: i for i, v in enumerate(up)}
        down = [b]  # b .. the lowest common ancestor
        while down[-1] not in index:
            down.append(net.parent(down[-1]))
        return up[: index[down[-1]] + 1] + down[-2::-1]
    for _, parent in bfs(net.neighbors, [a]):
        if b in parent:
            break
    else:
        raise ValueError(f"{a} and {b} are not connected")
    out = [b]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])
    return out[::-1]


def hop_distance(net: ContactNetwork, a, b) -> int:
    """Hop distance between a and b on a finite graph or on the grid.

    On a finite graph this is a bidirectional BFS: it grows the smaller of
    the two search frontiers one full level at a time and stops at the first
    level where the searches meet, so it visits two balls of about half the
    distance instead of one ball of the whole.  A node not in the graph
    raises KeyError; nodes in different components raise ValueError.  On the
    grid it is the L1 distance of the decoded coordinates.  Other infinite
    networks are never searched; on lazy trees len(path(net, a, b)) - 1
    walks the parent pointers instead.
    """
    if isinstance(net, Grid):
        (ax, ay), (bx, by) = grid_decode(a), grid_decode(b)
        return abs(ax - bx) + abs(ay - by)
    if not net.is_finite:
        raise ValueError(f"{net.kind} network is infinite; hop distance is not searched on it")
    for v in (a, b):
        net.degree(v)  # an unknown node raises KeyError before any search
    if a == b:
        return 0
    # not bfs(): two searches that meet halfway; every finite-graph trial scores its hop here
    seen = ({a}, {b})
    frontier = [[a], [b]]
    dist = 0  # levels grown on both sides together
    while frontier[0] and frontier[1]:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        mine, other = seen[side], seen[1 - side]
        dist += 1
        nxt = []
        for v in frontier[side]:
            for w in net.neighbors(v):
                if w in other:
                    return dist
                if w not in mine:
                    mine.add(w)
                    nxt.append(w)
        frontier[side] = nxt
    raise ValueError(f"{a} and {b} are not connected")
