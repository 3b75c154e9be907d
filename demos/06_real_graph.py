"""The full pipeline on a finite graph with cycles and skewed degrees.

Points at a real edge list when one is available (set FACEBOOK_EDGELIST);
otherwise builds a preferential-attachment stand-in.  Prunes low-degree
nodes, spreads with the distributed tree protocol under a fan-out cap, and
pits the cycle-corrected spy estimator against the first-spy baseline on
plain spreading.
"""

import os

import numpy as np

from anonspread.adversary import estimate_first_spy, estimate_spy_irregular
from anonspread.graph import load_edge_list, prune_min_degree, synthetic_heavy_tail
from anonspread.spread import (
    ProtocolParams,
    assign_spies,
    observations_for,
    spread_diffusion,
    spread_tree_protocol,
)

rng = np.random.default_rng(0)

path = os.environ.get("FACEBOOK_EDGELIST", "")
if path and os.path.exists(path):
    g0 = load_edge_list(path)
    print(f"loaded {path}: {g0.n_nodes} nodes")
    g = prune_min_degree(g0, 3)
else:
    print("no edge list on disk; using a preferential-attachment stand-in")
    g = prune_min_degree(synthetic_heavy_tail(1500, 5, seed=5), 3)
print(f"after 3-core pruning: {g.n_nodes} nodes, {g.n_edges} edges, "
      f"mean degree {2*g.n_edges/g.n_nodes:.1f}")

nodes = g.nodes()

reach = []
for _ in range(10):
    src = nodes[int(rng.integers(len(nodes)))]
    s = spread_tree_protocol(g, src, ProtocolParams(kind="tree-protocol", horizon=20), rng=rng)
    reach.append(s.n_infected / g.n_nodes)
print(f"\ntree protocol (fan-out cap 3) reaches {np.mean(reach):.0%} of nodes in 20 steps")

print("\nspy-fraction sweep: balanced protocol vs plain spreading (first spy)")
print("   p    balanced   plain(q=0.1)")
trials = 100
for p in (0.05, 0.10, 0.15):
    det_a = det_d = 0
    for _ in range(trials):
        src = nodes[int(rng.integers(len(nodes)))]
        s = spread_tree_protocol(g, src, ProtocolParams(kind="tree-protocol", horizon=24), rng=rng)
        est = estimate_spy_irregular(g, observations_for(s, assign_spies(s, p, int(rng.integers(2**62)))),
                                     rng=rng, time=s.time)
        det_a += int(not est.inconclusive and est.v_hat == src)
        s2 = spread_diffusion(g, src, ProtocolParams(kind="diffusion", q=0.1, horizon=24), rng=rng)
        est2 = estimate_first_spy(observations_for(s2, assign_spies(s2, p, int(rng.integers(2**62)))), rng=rng)
        det_d += int(not est2.inconclusive and est2.v_hat == src)
    print(f"  {p:.2f}   {det_a/trials:7.3f}   {det_d/trials:7.3f}")
