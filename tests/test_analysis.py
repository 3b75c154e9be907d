import math

import numpy as np
import pytest

from anonspread.analysis import (
    detection_exponent,
    expected_distance_bound,
    expected_distance_spy,
    grid_ball_size,
    grid_predictions,
    grid_state_distribution,
    leaf_count_regular,
    line_bound,
    n_regular,
    pd_always_pass,
    pd_multiple_snapshots,
    pd_multiple_snapshots_bound,
    pd_snapshot_bound,
    pd_spy_adaptive,
    pd_spy_snapshot,
    state_distribution_regular,
)
from anonspread.graph import degree_distribution


class TestCounts:
    def test_even_and_odd_branches(self):
        assert n_regular(3, 4) == 10
        assert n_regular(3, 3, "passed") == 6
        assert n_regular(3, 3, "kept") == 10
        assert n_regular(2, 5, "passed") == 6
        assert n_regular(3, 0) == 1

    def test_branch_validation(self):
        with pytest.raises(ValueError):
            n_regular(3, 4, "passed")
        with pytest.raises(ValueError):
            n_regular(3, 3, "even")

    def test_leaf_count(self):
        assert leaf_count_regular(3, 10) == 6
        assert leaf_count_regular(3, 4) == 3

    def test_leaf_count_warns_on_bad_size(self):
        with pytest.warns(UserWarning):
            leaf_count_regular(3, 11)

    def test_flood_counts(self):
        assert grid_ball_size(3) == 25


class TestSnapshotForms:
    def test_line_bound_value(self):
        assert pd_snapshot_bound(2, 10) == pytest.approx(0.1)

    def test_degree3(self):
        assert pd_snapshot_bound(3, 4) == pytest.approx(1 / (2 * 2**2.5 - 3))

    def test_bound_dominates_uniform(self):
        for d in range(3, 11):
            for T in range(2, 21, 2):
                assert pd_snapshot_bound(d, T) >= 1.0 / (n_regular(d, T) - 1) - 1e-12

    def test_always_pass_values(self):
        assert pd_always_pass(3, 10) == pytest.approx(1 / 6)
        assert pd_always_pass(3, 4) == pytest.approx(1 / 3)

    def test_distance_bounds(self):
        assert expected_distance_bound(3, 8, always_pass=True) == pytest.approx(4.0)
        assert expected_distance_bound(3, 8) == pytest.approx(2 / 3 * 4)

    def test_multiple_snapshots(self):
        assert pd_multiple_snapshots(3, 4) == pytest.approx(1 / 3)
        assert pd_multiple_snapshots(3, 8) == pytest.approx(0.5 * 4 / 15)
        for T in range(4, 22, 2):
            assert pd_multiple_snapshots(3, T) <= pd_multiple_snapshots_bound(3, T)

    def test_state_distribution_normalizes(self):
        for d in (2, 3, 5):
            for t in (2, 6, 12):
                assert state_distribution_regular(d, t).sum() == pytest.approx(1.0)


class TestExponent:
    def test_heavy_minimum_case(self):
        res = detection_exponent({3: 0.7, 4: 0.3})
        assert res.case == "a"
        assert res.exponent_nats == math.log(2)
        assert res.exponent_log2 == pytest.approx(1.0)
        assert res.gap_log2 == pytest.approx(math.log2(2.3) - 1.0, abs=1e-9)
        assert np.allclose(res.r_star, [1.0, 0.0])

    def test_light_minimum_case(self):
        res = detection_exponent({2: 0.3, 3: 0.7})
        assert res.case == "b"
        assert abs(res.r_star[0] - 0.64) < 0.01
        assert abs(res.r_star[1] - 0.36) < 0.01
        assert res.exponent_log2 == pytest.approx(0.36, abs=0.01)
        assert res.gap_log2 == pytest.approx(math.log2(1.7) - res.exponent_log2, abs=1e-9)

    def test_boundary_condition_active(self):
        dist = degree_distribution({2: 0.3, 3: 0.7})
        res = detection_exponent(dist)
        beta = np.array([p * (f - 1) for f, p in zip(dist.support, dist.probs)])
        beta /= beta.sum()
        kl = float(np.sum(res.r_star * np.log(res.r_star / beta)))
        assert abs(kl - math.log(dist.mean_children)) < 1e-4

    def test_feasibility(self):
        for table in ({2: 0.3, 3: 0.7}, {2: 0.2, 3: 0.3, 5: 0.5}, {2: 0.5, 6: 0.5}):
            dist = degree_distribution(table)
            res = detection_exponent(dist)
            beta = np.array([p * (f - 1) for f, p in zip(dist.support, dist.probs)])
            beta /= beta.sum()
            r = np.maximum(res.r_star, 1e-300)
            kl = float(np.sum(r * np.log(r / beta)))
            assert math.log(dist.mean_children) - kl >= -1e-6

    def test_matches_grid_search(self):
        # dense 1-d oracle for a two-point law
        dist = degree_distribution({2: 0.4, 4: 0.6})
        res = detection_exponent(dist)
        mu = dist.mean_children
        beta = np.array([p * (f - 1) / mu for f, p in zip(dist.support, dist.probs)])
        c = np.log(np.array(dist.support, dtype=float) - 1)
        best = None
        for r1 in np.linspace(0, 1, 200001):
            r = np.array([r1, 1 - r1])
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(r > 0, r * np.log(r / beta), 0.0)
            if terms.sum() <= math.log(mu):
                val = float(r @ c)
                best = val if best is None else min(best, val)
        assert res.exponent_nats == pytest.approx(best, abs=2e-4)

    def test_boundary_weight_goes_to_case_b(self):
        # p1*(f1-1) == 1 exactly: the strict split sends it to the program,
        # whose optimum collapses onto the first vertex anyway
        res = detection_exponent({3: 0.5, 4: 0.5})
        assert res.case == "b"
        assert res.exponent_nats == pytest.approx(math.log(2), abs=1e-3)
        assert res.r_star[0] == pytest.approx(1.0, abs=1e-2)

    def test_subcritical_raises(self):
        with pytest.raises(ValueError):
            detection_exponent({2: 1.0})

    def test_eta_one_regular(self):
        res = detection_exponent({4: 1.0})
        assert res.exponent_nats == pytest.approx(math.log(3))
        assert res.gap_log2 == pytest.approx(0.0, abs=1e-12)


class TestSpySeries:
    def test_vanishes_without_spies(self):
        assert abs(pd_spy_adaptive(3, 0.0)) < 1e-9

    def test_floor_is_respected(self):
        for d in (3, 4, 5, 8):
            for p in (0.05, 0.1, 0.3, 0.6):
                assert pd_spy_adaptive(d, p) >= p - 1e-12

    def test_high_degree_limit_shape(self):
        # the gap to the floor shrinks like 1/(d-1)
        g50 = pd_spy_adaptive(50, 0.1) - 0.1
        g200 = pd_spy_adaptive(200, 0.1) - 0.1
        assert g200 < g50 / 3
        assert g50 == pytest.approx(1 / 49, rel=0.05)

    def test_truncation_stability(self):
        a = pd_spy_adaptive(3, 0.2, tol=1e-14)
        b = pd_spy_adaptive(3, 0.2, tol=1e-28)
        assert abs(a - b) < 1e-10

    def test_expected_distance_high_degree(self):
        assert expected_distance_spy(200, 0.3) == pytest.approx(2 * 0.7, abs=0.02)

    def test_rejects_line(self):
        with pytest.raises(ValueError):
            pd_spy_adaptive(2, 0.1)


class TestSpySnapshotForm:
    def test_no_spy_limit(self):
        d, T = 3, 8
        boundary = d * (d - 1) ** (T // 2 - 1)
        assert pd_spy_snapshot(d, 1e-12, T) == pytest.approx(1.0 / boundary, abs=1e-9)

    def test_full_spy_limit(self):
        assert pd_spy_snapshot(3, 1 - 1e-12, 8) == pytest.approx(1.0, abs=1e-9)

    def test_subtree_sizes(self):
        # the per-level candidate subtrees behind the accounting
        assert ((3 - 1) ** 2 - 1) // (3 - 2) == 3  # nodes at level 2
        assert (3 - 1) ** (2 - 1) == 2  # leaves at level 2

    def test_monotone_in_p(self):
        for T in (4, 8):
            vals = [pd_spy_snapshot(3, p, T) for p in np.linspace(0.01, 0.8, 25)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_converges_to_spy_only(self):
        assert abs(pd_spy_snapshot(3, 0.2, 16) - pd_spy_adaptive(3, 0.2)) < 0.02


class TestGridForms:
    def test_values(self):
        pred = grid_predictions(4)
        assert pred.n_lower_bound == pytest.approx(12.5)
        assert pred.n_even_exact == 13
        assert pred.pd_upper_bound == pytest.approx(2 / 21)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            grid_predictions(1)

    def test_state_distribution_normalizes(self):
        for t in (2, 4, 10):
            assert grid_state_distribution(t).sum() == pytest.approx(1.0)


class TestLineBound:
    def test_values(self):
        assert line_bound(101) == pytest.approx(0.904, abs=0.001)
        assert line_bound(10**4) == pytest.approx(0.089, abs=0.001)

    def test_monotone(self):
        vals = [line_bound(n) for n in (11, 101, 401, 1601, 10**4)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
