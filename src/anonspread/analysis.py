"""The paper's closed forms, each a pure function of protocol parameters.

Exact infection sizes, detection probabilities and bounds for the snapshot,
spy, and spy+snapshot adversaries, the token-state distributions, the
distance bound, the line bound, and the KL-constrained program giving the
detection exponent on random irregular trees.  Each detection form is
registered once, in harness.CLOSED_FORMS, which both `--compare` (a Monte
Carlo rate against it) and the `predict` command read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import degree_distribution

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# infection sizes


def n_regular(d: int, T: int, branch: str = "even") -> int:
    """Exact infected count on a d-regular tree under the balanced token
    protocol.  Odd times need branch='kept' or 'passed'; even times use
    branch='even'."""
    if d < 2 or T < 0:
        raise ValueError("need d >= 2 and T >= 0")
    if T == 0:
        return 1
    if T % 2 == 0:
        if branch != "even":
            raise ValueError("even T takes branch='even'")
        if d == 2:
            # radius-T/2 interval; consistent with the 1/T detection bound
            return T + 1
        return (d * (d - 1) ** (T // 2) - 2) // (d - 2)
    if branch == "passed":
        if d == 2:
            return T + 1
        return (2 * (d - 1) ** ((T + 1) // 2) - 2) // (d - 2)
    if branch == "kept":
        if d == 2:
            return T + 2
        return (d * (d - 1) ** ((T + 1) // 2) - 2) // (d - 2)
    raise ValueError("odd T takes branch='kept' or 'passed'")


def grid_ball_size(r: int) -> int:
    """Nodes within L1 distance r on the lattice."""
    return 2 * r * r + 2 * r + 1


def diffusion_mean_exact(d: int, q: float, T: int) -> float:
    """Exact mean infected count on the d-regular tree: a depth-k node is
    infected by T iff its path accumulated k successes in T per-step
    trials."""
    from scipy.stats import binom

    total = 1.0
    for k in range(1, T + 1):
        shell = d * (d - 1) ** (k - 1) if d > 2 else 2
        total += shell * binom.sf(k - 1, T, q)
    return total


# ---------------------------------------------------------------------------
# snapshot adversary on regular trees


def pd_snapshot_bound(d: int, T: int) -> float:
    """Upper bound on ML detection under the exact keep schedule."""
    if T < 1:
        raise ValueError("bound defined for T >= 1")
    if d == 2:
        return 1.0 / T
    return (d - 2) / (2.0 * (d - 1) ** ((T + 1) / 2) - d)


def pd_always_pass(d: int, n_T: int) -> float:
    """Exact ML detection for the always-pass schedule (uniform over
    leaves)."""
    return (d - 1) / (2.0 + (d - 2) * n_T)


def pd_multiple_snapshots(d: int, T: int) -> float:
    """Exact detection for the adversary that snapshots every step after an
    even time T (exact keep schedule, d > 2)."""
    if d <= 2 or T % 2 or T < 2:
        raise ValueError("needs d > 2 and even T >= 2")
    return (d - 2) / (d - 1) * (T / 2) / ((d - 1) ** (T // 2) - 1)


def state_distribution_regular(d: int, t: int) -> np.ndarray:
    """Target distribution of the token's distance from the source at even
    time t (index h-1)."""
    if t < 2 or t % 2:
        raise ValueError("t must be even and >= 2")
    half = t // 2
    if d == 2:
        return np.full(half, 2.0 / t)
    b = d - 1
    vec = (d - 2) / (b**half - 1.0) * b ** np.arange(half)
    return vec


def expected_distance_bound(d: int, T: int, always_pass: bool = False) -> float:
    """Lower bound on E[hops between source and estimate]."""
    if always_pass:
        return T / 2.0
    return (d - 1) / d * T / 2.0


# ---------------------------------------------------------------------------
# grid


@dataclass
class GridPrediction:
    n_lower_bound: float
    pd_upper_bound: float
    n_even_exact: int | None


def grid_predictions(T: int) -> GridPrediction:
    """Infection-size lower bound and detection upper bound on the lattice;
    the exact even-time count is half of T^2+2T+2."""
    if T < 2:
        raise ValueError("grid detection bound is defined for T >= 2")
    n_exact = (T * T + 2 * T + 2) // 2 if T % 2 == 0 else None
    return GridPrediction(
        n_lower_bound=(T + 1) ** 2 / 2.0,
        pd_upper_bound=2.0 / ((T + 3) * (T - 1)),
        n_even_exact=n_exact,
    )


def grid_state_distribution(t: int) -> np.ndarray:
    """Token-distance distribution on the lattice at even t (index h-1)."""
    if t < 2 or t % 2:
        raise ValueError("t must be even and >= 2")
    half = t // 2
    h = np.arange(1, half + 1, dtype=float)
    return 4.0 * h / (t * (half + 1.0))


# ---------------------------------------------------------------------------
# line


def line_bound(n: int) -> float:
    """Detection upper bound for the two-end-spy line of n interior nodes."""
    if n < 1:
        raise ValueError("n >= 1")
    return math.pi * math.sqrt(8.0) / math.sqrt(n) + 2.0 / n


# ---------------------------------------------------------------------------
# spy adversary series


def _subtree_size(d: int, k: int) -> float:
    return ((d - 1) ** k - 1) / (d - 2)


def pd_spy_adaptive(d: int, p: float, tol: float = 1e-14) -> float:
    """Detection probability of the pivot estimator on the d-regular tree
    with spy fraction p (series evaluated to geometric-tail accuracy)."""
    if d <= 2:
        raise ValueError("series defined for d > 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p in [0,1]")
    b = d - 1
    total = p + 1.0 / (d - 2)
    k = 1
    while True:
        tk = _subtree_size(d, k)
        tk1 = _subtree_size(d, k + 1)
        q_k = (1.0 - (1.0 - p) ** tk) ** (d - 1) + (1.0 - p) ** tk1
        total -= q_k / b**k
        # remaining terms have q <= 1, so the tail is a clean geometric bound
        if b ** (-k) / (d - 2) < tol:
            break
        k += 1
        if k > 10_000:
            break
    return total


def pd_spy_snapshot(d: int, p: float, T: int) -> float:
    """Exact detection for the adversary holding both the even-time-T
    snapshot and all spy reports up to T (d-regular tree)."""
    if d <= 2 or T % 2 or T < 2:
        raise ValueError("needs d > 2 and even T >= 2")
    s = n_regular(d, T)
    boundary = d * (d - 1) ** (T // 2 - 1)
    total = (1.0 - p) ** (s - 1) / boundary
    for k in range(1, T // 2 + 1):
        tk = int(_subtree_size(d, k))
        tk1 = int(_subtree_size(d, k + 1))
        dtk = (d - 1) ** (k - 1)
        theta = (1.0 - p) ** tk
        pmf = [math.comb(d - 2, x) * theta**x * (1.0 - theta) ** (d - 2 - x) for x in range(d - 1)]
        e_pruned = sum(pmf[x] / ((x + 1) * dtk) for x in range(d - 2))
        e_open = sum(pmf[x] / (boundary - (d - 2 - x) * dtk) for x in range(d - 2))
        total += (1.0 - p) ** (tk - 1) * p / dtk
        total += (1.0 - p) ** tk * (1.0 - (1.0 - p) ** (s - tk1)) * e_pruned
        total += (1.0 - p) ** (s - (tk1 - tk)) * e_open
    return total


# ---------------------------------------------------------------------------
# detection exponent on random irregular trees


@dataclass
class ExponentResult:
    r_star: np.ndarray
    exponent_nats: float
    exponent_log2: float
    gap_log2: float
    case: str


def detection_exponent(dist, tol: float = 1e-6) -> ExponentResult:
    """Typical decay rate of the MAP detection probability on supercritical
    random trees: per unit depth, detection falls like exp(-<r*, log(f-1)>),
    where r* minimizes that inner product over the simplex subject to
    KL(r || beta) <= log(mean offspring).

    Heavy minimum degree (p1(f1-1) > 1) pins r* at the first vertex;
    otherwise the optimum tilts beta along exp(-log(f-1)/lambda) with lambda
    chosen by bisection to land on the KL boundary.
    """
    if isinstance(dist, dict):
        dist = degree_distribution(dist)
    f = np.asarray(dist.support, dtype=float)
    p = np.asarray(dist.probs, dtype=float)
    mu = dist.mean_children
    if mu <= 1.0:
        raise ValueError("subcritical degree distribution: mean offspring <= 1")
    c = np.log(f - 1.0)
    beta = p * (f - 1.0) / mu
    log_mu = math.log(mu)

    if dist.eta == 1 or p[0] * (f[0] - 1.0) > 1.0:
        r = np.zeros_like(p)
        r[0] = 1.0
        exponent = float(c[0])
        case = "a"
    else:
        log_beta = np.log(beta)

        def kl_at(u: float) -> tuple:
            # tilt r_i proportional to beta_i * exp(-u * c_i)
            logits = log_beta - u * c
            logits -= logits.max()
            w = np.exp(logits)
            r = w / w.sum()
            kl = float(np.sum(r * (np.log(np.maximum(r, 1e-300)) - log_beta)))
            return kl, r

        lo, hi = 0.0, 1.0
        while kl_at(hi)[0] < log_mu and hi < 1e8:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if kl_at(mid)[0] < log_mu:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol * max(1.0, hi):
                break
        _, r = kl_at(0.5 * (lo + hi))
        exponent = float(np.dot(r, c))
        case = "b"

    return ExponentResult(
        r_star=r,
        exponent_nats=exponent,
        exponent_log2=exponent / LOG2,
        gap_log2=(log_mu - exponent) / LOG2,
        case=case,
    )
