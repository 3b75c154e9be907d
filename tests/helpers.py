"""Test-only reference code: the brute-force trajectory oracle that the
irregular-ml scores are checked against, and a summary CSV as text."""

import io

from anonspread.adversary import _children_from_center, _path_up
from anonspread.harness import ExperimentSummary, write_summary_csv
from anonspread.spread import InfectionSnapshot, alpha_regular


def summary_csv_text(summary: ExperimentSummary) -> str:
    buf = io.StringIO()
    write_summary_csv(summary, buf)
    return buf.getvalue()


def oracle_trajectory_likelihood(snap: InfectionSnapshot, candidate, d0: int) -> float:
    """Exact likelihood of `candidate` by summing over every keep/pass
    trajectory that walks the token from the candidate to the observed
    center.  Exponential in T; refuses T > 12."""
    T = snap.T
    if T % 2:
        raise ValueError("oracle requires even T")
    if T > 12:
        raise ValueError("oracle is exponential in T; refuse T > 12")
    deg = snap.net_degree
    children, up, depth = _children_from_center(snap)
    root = snap.virtual_source
    if candidate == root:
        return 0.0
    path = _path_up(up, candidate)  # candidate .. root
    h = len(path) - 1
    a_val = 1.0 / deg[candidate]
    for w in path[1:-1]:
        a_val /= deg[w] - 1

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
