"""Correctness checks of the benchmark, computed apart from the program.

Each check takes plain numbers (summary rows, per-trial counts) and
returns a list of failure messages, empty when the check passes, so that
test_checks.py can feed it doctored results.
"""

from __future__ import annotations

import math

# a correct exact-schedule run fails a two-sided 4-sigma match in about 1 of
# 16,000 checks, where 3 sigma would fail about 1 in 370 (see README.md)
MATCH_Z = 4.0
BOUND_Z = 3.0


def n_regular(d: int, T: int) -> int:
    """Infected count of an exact-schedule spread on the d-regular tree at
    even T: a ball of radius T/2, (d(d-1)^(T/2) - 2)/(d - 2)."""
    return (d * (d - 1) ** (T // 2) - 2) // (d - 2)


def check_uniform_snapshot(d, T, rows, n_infected):
    """rows: (trials, detections, mean_n_infected, inconclusive) per round;
    n_infected: every trial's infected count from a serial re-run."""
    out = []
    n = n_regular(d, T)
    bad = [k for k in n_infected if k != n]
    if bad:
        out.append(f"d={d}: {len(bad)} trials infected {sorted(set(bad))[:3]} nodes, not {n}")
    for trials, _, mean_inf, inconclusive in rows:
        if mean_inf != n:
            out.append(f"d={d}: mean infected {mean_inf} != {n}")
            break
        if inconclusive:
            out.append(f"d={d}: {inconclusive} inconclusive trials")
            break
    trials = sum(r[0] for r in rows)
    det = sum(r[1] for r in rows)
    target = 1.0 / (n - 1)
    z = (det / trials - target) / math.sqrt(target * (1 - target) / trials)
    if abs(z) > MATCH_Z:
        out.append(f"d={d}: p_hat {det / trials:.5f} is {z:+.1f} sigma from 1/(N-1) = {target:.5f}")
    return out


def check_first_spy_floor(detections, trials, p):
    """The first nodes infected are neighbours of the source, so a spy
    among them names the source: detection >= p."""
    sigma = math.sqrt(p * (1 - p) / trials)
    if detections / trials < p - BOUND_Z * sigma:
        return [f"first-spy detection {detections / trials:.4f} below p={p} by more than "
                f"{BOUND_Z:g} sigma ({sigma:.4f})"]
    return []


def check_balanced_below_plain(det_balanced, det_plain, trials):
    """Balanced spreading with its estimator must detect the source less
    often than plain spreading with first-spy (paired trials)."""
    a, b = det_balanced / trials, det_plain / trials
    if a >= b:
        sigma = math.sqrt((a * (1 - a) + b * (1 - b)) / trials)
        return [f"balanced detection {a:.4f} not below plain {b:.4f} (sigma of difference {sigma:.4f})"]
    return []


def _fmt(x):
    return f"{x:.8g}"


def check_pool_matches_serial(row, records):
    """row: a pooled summary row as the CSV prints it (dict of strings);
    records: (detected, hop or None, n_infected) from serial run_trial calls
    on the same trials."""
    hops = [h for _, h, _ in records if h is not None]
    serial = {
        "trials": str(len(records)),
        "detections": str(sum(r[0] for r in records)),
        "mean_hops": _fmt(sum(hops) / len(hops)) if hops else "nan",
        "mean_n_infected": _fmt(sum(r[2] for r in records) / len(records)),
    }
    diff = [f"{k} {row[k]} (pooled) != {v} (serial)" for k, v in serial.items() if row[k] != v]
    return [f"{row['label']}: " + "; ".join(diff)] if diff else []


def check_beats_blind_guess(detections, n_infected):
    """A uniform guess among the other n_i - 1 infected nodes detects with
    probability 1/(n_i - 1); the estimator must beat that by 3 sigma."""
    trials = len(n_infected)
    blind = [1.0 / (k - 1) if k > 1 else 1.0 for k in n_infected]
    mean = sum(blind) / trials
    sigma = math.sqrt(sum(b * (1 - b) for b in blind)) / trials
    rate = detections / trials
    if rate <= mean + BOUND_Z * sigma:
        return [f"detection {rate:.4f} does not beat the blind guess {mean:.4f} by "
                f"{BOUND_Z:g} sigma ({sigma:.4f})"]
    return []


def check_counts_repeat(per_pass, keys):
    """The traced counts of a fixed seed must be the same on every pass."""
    first = per_pass[0]
    return [f"trace pass {i} counts differ from pass 1: {moved}"
            for i, m in enumerate(per_pass[1:], 2)
            if (moved := [k for k in keys if m[k] != first[k]])]
