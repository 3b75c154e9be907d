"""Every correctness check of the benchmark rejects a doctored result.

Run with `python -m pytest bench` from the repository root; the workload
tests import the program from `src/`.
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import import_program  # noqa: E402


def snapshot_rows(d, shift_sigma, trials=50_000, rounds=10):
    n = checks.n_regular(d, 8)
    target = 1.0 / (n - 1)
    det = round(trials * (target + shift_sigma * math.sqrt(target * (1 - target) / trials)))
    per = trials // rounds
    rows = [(per, det // rounds, float(n), 0) for _ in range(rounds)]
    rows[0] = (per, det - (rounds - 1) * (det // rounds), float(n), 0)
    return rows, [n] * 100


def test_closed_form_sizes():
    assert checks.n_regular(3, 8) == 46
    assert checks.n_regular(4, 8) == 161


@pytest.mark.parametrize("d", [3, 4])
def test_uniform_snapshot_accepts_the_closed_form(d):
    rows, sizes = snapshot_rows(d, 0.0)
    assert checks.check_uniform_snapshot(d, 8, rows, sizes) == []


@pytest.mark.parametrize("shift", [5.0, -5.0])
def test_uniform_snapshot_rejects_shifted_p_hat(shift):
    rows, sizes = snapshot_rows(3, shift)
    assert checks.check_uniform_snapshot(3, 8, rows, sizes)


def test_uniform_snapshot_rejects_a_wrong_infected_count():
    rows, sizes = snapshot_rows(3, 0.0)
    assert checks.check_uniform_snapshot(3, 8, rows, sizes[:-1] + [45])
    rows[3] = rows[3][:2] + (45.98, 0)
    assert checks.check_uniform_snapshot(3, 8, rows, sizes)


def test_uniform_snapshot_rejects_inconclusive_trials():
    rows, sizes = snapshot_rows(4, 0.0)
    rows[1] = rows[1][:3] + (1,)
    assert checks.check_uniform_snapshot(4, 8, rows, sizes)


def test_first_spy_floor():
    assert checks.check_first_spy_floor(220, 1000, 0.1) == []
    assert checks.check_first_spy_floor(100, 1000, 0.1) == []
    assert checks.check_first_spy_floor(70, 1000, 0.1)  # 3.2 sigma below p


def test_balanced_below_plain():
    assert checks.check_balanced_below_plain(35, 70, 300) == []
    assert checks.check_balanced_below_plain(70, 70, 300)
    assert checks.check_balanced_below_plain(80, 70, 300)


def serial_records():
    return [(1, 0, 20), (0, 3, 18), (0, None, 21), (1, 0, 19)]


def pooled_row(records, **doctored):
    hops = [h for _, h, _ in records if h is not None]
    row = {"label": "T=4", "trials": str(len(records)),
           "detections": str(sum(r[0] for r in records)),
           "mean_hops": f"{sum(hops) / len(hops):.8g}",
           "mean_n_infected": f"{sum(r[2] for r in records) / len(records):.8g}"}
    row.update(doctored)
    return row


def test_pool_matches_serial():
    records = serial_records()
    assert checks.check_pool_matches_serial(pooled_row(records), records) == []
    assert checks.check_pool_matches_serial(pooled_row(records, detections="3"), records)
    assert checks.check_pool_matches_serial(pooled_row(records, mean_hops="1.5"), records)
    assert checks.check_pool_matches_serial(pooled_row(records, mean_n_infected="19.75"), records)


def test_beats_blind_guess():
    sizes = [20] * 1000  # blind rate 1/19, sigma 0.0071
    assert checks.check_beats_blind_guess(150, sizes) == []
    assert checks.check_beats_blind_guess(53, sizes)
    assert checks.check_beats_blind_guess(70, sizes)  # 2.4 sigma above


def test_counts_repeat():
    keys = ("a", "b")
    assert checks.check_counts_repeat([{"a": 1, "b": 2}] * 3, keys) == []
    assert checks.check_counts_repeat([{"a": 1, "b": 2}, {"a": 1, "b": 3}], keys)


@pytest.fixture(scope="module")
def api():
    return import_program()


def test_tree_snapshot_rejects_a_round_it_did_not_run(api):
    w = workloads.TreeSnapshot()
    w.TRIALS = 200
    seed = 3
    good = w.run_round(api, {}, workloads.round_seed(seed, 0))
    assert w.check(api, {}, seed, {0: good}) == []
    bad = workloads.Round(good.attempted, 0, dict(good.data))
    trials, det, mean_inf, inc = bad.data[3]
    bad.data[3] = (trials, det + 1, mean_inf, inc)
    assert w.check(api, {}, seed, {0: bad})


def test_sweep_pool_rejects_a_row_the_serial_trials_do_not_reproduce(api, tmp_path):
    w = workloads.GraphSweepPool()
    w.TRIALS, w.T_VALUES = 300, (4,)
    seed = 2
    state = w.setup(api, seed, str(tmp_path))
    good = w.run_round(api, state, workloads.round_seed(seed, 0))
    assert good.failed == 0
    assert w.check(api, state, seed, {0: good}) == []
    row = dict(good.data["rows"][0])
    row["detections"] = str(int(row["detections"]) + 1)
    assert w.check(api, state, seed, {0: workloads.Round(good.attempted, 0,
                                                         {"workers": 2, "rows": [row]})})
    serial = dict(good.data, workers=1)
    assert w.check(api, state, seed, {0: workloads.Round(good.attempted, 0, serial)})
    missing = dict(good.data, rows=[])
    assert w.check(api, state, seed, {0: workloads.Round(good.attempted, 0, missing)})
