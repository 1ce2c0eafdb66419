"""Optimality gap and primal integral: worked examples are exact."""

import math

import pytest

from dpsearch.metrics import optimality_gap, primal_gap, primal_integral


class TestOptimalityGap:
    def test_both_zero(self):
        assert optimality_gap(0, 0) == 0.0

    def test_half(self):
        assert optimality_gap(10, 5) == 0.5

    def test_missing_dual(self):
        assert optimality_gap(6, None) == 1.0

    def test_missing_primal(self):
        assert optimality_gap(None, 6) == 1.0

    def test_proved(self):
        assert optimality_gap(6, 6) == 0.0

    def test_negative_pair(self):
        assert optimality_gap(-5, -10) == 0.5

    @pytest.mark.parametrize(
        "primal, dual",
        [(5, -5), (-1, 1), (3, -0.5), (-2.0, 7), (5, math.inf), (math.inf, 0), (-5, -math.inf)],
    )
    def test_opposite_signs_or_an_infinite_bound_are_a_full_gap(self, primal, dual):
        assert optimality_gap(primal, dual) == 1.0


class TestPrimalIntegral:
    def test_optimal_at_start(self):
        assert primal_integral([(0.0, 5)], reference=5, horizon=10) == 0.0

    def test_no_events(self):
        assert primal_integral([], reference=5, horizon=10) == 10.0

    def test_worked_example(self):
        # gap-0.5 solution at t=2, the optimum at t=6, horizon 10:
        # 1*2 + 0.5*4 + 0*4 = 4
        events = [(2.0, 10), (6.0, 5)]
        assert primal_integral(events, reference=5, horizon=10) == 4.0

    def test_opposite_sign_solution_stays_within_the_horizon(self):
        # a cost of -1 against 1 is a gap of 1, not |-1 - 1| / 1 = 2
        assert primal_integral([(1.0, -1)], reference=1, horizon=10) == 10.0
        assert primal_integral([(2.0, 3), (5.0, -1)], reference=-1, horizon=10) == 5.0

    def test_infeasibility_proof_zeroes_the_gap(self):
        assert primal_integral([(4.0, None)], reference=5, horizon=10) == 4.0

    def test_event_outside_horizon_rejected(self):
        with pytest.raises(ValueError):
            primal_integral([(11.0, 5)], reference=5, horizon=10)

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            primal_integral([(5.0, 9), (4.0, 8)], reference=5, horizon=10)


def test_primal_gap_zero_reference():
    assert primal_gap(0, 0) == 0.0
    assert primal_gap(None, 5) == 1.0
    assert primal_gap(10, 5) == 0.5
    assert primal_gap(-1, 1) == primal_gap(1, -1) == 1.0
