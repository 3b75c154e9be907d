"""The lattice variant: directional bookkeeping keeps the infected set a
perfect diamond around the moving token, so every infected node stays an
equally good suspect."""

import numpy as np

from anonspread import analysis
from anonspread.adversary import estimate_snapshot_regular
from anonspread.graph import grid
from anonspread.spread import ProtocolParams, spread_grid

rng = np.random.default_rng(0)
net = grid()

print("=== one spread, drawn ===")
snap = spread_grid(net, (0, 0), ProtocolParams(kind="grid-adaptive", horizon=8), rng=rng)
c = snap.virtual_source
xs = [x for x, _ in snap.time]
ys = [y for _, y in snap.time]
for y in range(max(ys), min(ys) - 1, -1):
    row = ""
    for x in range(min(xs), max(xs) + 1):
        if (x, y) == (0, 0):
            row += "S"
        elif (x, y) == c:
            row += "C"
        else:
            row += "#" if (x, y) in snap.time else "."
    print(row)
displacement = (c[0] - snap.source[0], c[1] - snap.source[1])
print(f"source S, center C, displacement {displacement}, N={snap.n_infected}")

print("\n=== detection against the closed-form bound ===")
for T in (4, 8, 12):
    pred = analysis.grid_predictions(T)
    det = 0
    trials = 4000
    for _ in range(trials):
        s = spread_grid(net, (0, 0), ProtocolParams(kind="grid-adaptive", horizon=T), rng=rng)
        assert s.n_infected == pred.n_even_exact
        det += int(estimate_snapshot_regular(s, rng=rng).v_hat == (0, 0))
    print(f"T={T:2d}: N={pred.n_even_exact:3d}  detection {det/trials:.4f}  "
          f"bound {pred.pd_upper_bound:.4f}  uniform {1/(pred.n_even_exact-1):.4f}")
