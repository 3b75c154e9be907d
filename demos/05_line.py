"""The line with a spy at each end, run via the latent-coin implementation.

Drawing one direction bit and one pass probability up front, then keeping
the token with the constant probability 1 - q at each even epoch of the
shared token walk, reproduces the time-varying keep schedule's walk law
exactly.  Even an adversary that recovers the coin, the direction, and the
first receipt time exactly can only localize the source to about sqrt(n)
positions.
"""

import numpy as np

from anonspread import analysis
from anonspread.adversary import estimate_line_ml
from anonspread.spread import spread_polya_line

rng = np.random.default_rng(0)

print("=== detection falls like 1/sqrt(n) ===")
rates = {}
for n_line in (101, 401, 1601):
    det = hops = 0
    trials = 4000
    for _ in range(trials):
        src = int(rng.integers(1, n_line + 1))
        snap, trace = spread_polya_line(n_line, src, rng=rng)
        est = estimate_line_ml(trace)
        det += int(est.v_hat == src)
        hops += abs(est.v_hat - src)
    rates[n_line] = det / trials
    print(f"n={n_line:5d}: detection {rates[n_line]:.4f}  bound {analysis.line_bound(n_line):.4f}  "
          f"mean miss {hops/trials:.1f} hops")
print(f"scaling: P(401)/P(101) = {rates[401]/rates[101]:.3f}, "
      f"P(1601)/P(401) = {rates[1601]/rates[401]:.3f} (1/sqrt(4) = 0.5)")

print("\n=== one trace, annotated ===")
snap, trace = spread_polya_line(25, 9, rng=np.random.default_rng(12))
print(f"source 9, direction {trace.direction}, latent pass probability {trace.q:.3f}")
print(f"first report: spy {trace.first_spy} at t={trace.t_first}")
est = estimate_line_ml(trace)
print(f"closed-form estimate: {est.v_hat}")
