"""Mismatched schedules on random irregular trees.

Degree irregularity breaks perfect hiding: the likelihood of each candidate
now depends on the degrees along its path to the center, computable with one
message-passing sweep.  The typical detection decay rate comes out of a tiny
KL-constrained program, and neighborhood-weighted token passing claws back
some of the loss.
"""

import math

import numpy as np

from anonspread import analysis
from anonspread.adversary import estimate_irregular_ml, estimate_map_leaf, estimate_paad_map
from anonspread.graph import degree_distribution, galton_watson_tree
from anonspread.harness import gw_map_detection_mc
from anonspread.spread import ProtocolParams, spread_adaptive, spread_paad

rng = np.random.default_rng(0)

print("=== the assumed degree d0 matters: sweep it on 3/4-mixed trees ===")
dist = degree_distribution({3: 0.5, 4: 0.5})
print(f"mean offspring E[D-1] = {dist.mean_children}")
for d0 in (2, 3, 4, 5):
    det = 0
    trials = 3000
    for _ in range(trials):
        net = galton_watson_tree(dist, int(rng.integers(2**60)))
        snap = spread_adaptive(net, 0, ProtocolParams(horizon=6, d0=d0), rng=rng)
        est = estimate_irregular_ml(net, snap, d0, rng=rng)
        det += int(est.v_hat == 0)
    print(f"d0={d0}: detection {det/trials:.4f}"
          + ("   <- below the offspring threshold" if d0 - 1 < dist.mean_children else ""))

print("\n=== the decay exponent from the convex program ===")
for table in ({3: 0.7, 4: 0.3}, {2: 0.3, 3: 0.7}, {2: 0.5, 5: 0.5}):
    res = analysis.detection_exponent(table)
    print(f"D={table}: case {res.case}, r*={np.round(res.r_star, 3).tolist()}, "
          f"rate {res.exponent_log2:.3f} bits/level, gap to perfect {res.gap_log2:.2f}")

print("\n=== Monte Carlo decay vs the predicted exponent ===")
dist_b = degree_distribution({2: 0.3, 3: 0.7})
prev_bits = None
for half in (8, 11, 14):
    det, n, _, cond = gw_map_detection_mc(dist_b, half, 3000, seed=half)
    bits = -math.log2(cond)
    line = f"depth {half:2d}: P_D={cond:.5f}  cumulative rate {bits/half:.3f}"
    if prev_bits is not None:
        line += f"  incremental rate {(bits-prev_bits)/3:.3f}"
    prev_bits = bits
    print(line, "(target 0.360)")

print("\n=== neighborhood-weighted passing narrows the gap ===")
dist_w = degree_distribution({2: 0.5, 5: 0.5})
uniform_params = ProtocolParams(alpha_policy="always-pass", horizon=6)
weighted_params = ProtocolParams(kind="paad", g=1, horizon=6)
for label, spread_fn, est_fn in (
    ("uniform passing ", lambda net: spread_adaptive(net, 0, uniform_params, rng=rng),
     lambda net, s: estimate_map_leaf(net, s, rng=rng)),
    ("weighted passing", lambda net: spread_paad(net, 0, weighted_params, rng=rng),
     lambda net, s: estimate_paad_map(net, s, 1, rng=rng)),
):
    det, leaves = 0, 0
    trials = 1500
    for _ in range(trials):
        net = galton_watson_tree(dist_w, int(rng.integers(2**60)))
        snap = spread_fn(net)
        est = est_fn(net, snap)
        det += int(est.v_hat == 0)
        leaves += len(snap.boundary())
    print(f"{label}: detection {det/trials:.4f}  (1/mean-leaves = {trials/leaves:.4f})")
