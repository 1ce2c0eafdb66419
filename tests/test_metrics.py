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
        [(5, -5), (-1, 1), (3, -0.5), (-2.0, 7), (5, math.inf), (math.inf, 0), (-5, -math.inf),
         (math.inf, math.inf), (-math.inf, -math.inf), (math.inf, -math.inf)],
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

    def test_an_infinite_cost_against_an_infinite_reference_is_a_full_gap(self):
        assert primal_integral([(1.0, math.inf)], reference=math.inf, horizon=10) == 10.0

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


NAN = math.nan


@pytest.mark.parametrize(
    "primal, dual, message",
    [
        (NAN, 1, "primal bound must not be NaN"),
        (1, NAN, "dual bound must not be NaN"),
        (NAN, None, "primal bound must not be NaN"),
        (None, NAN, "dual bound must not be NaN"),
    ],
)
def test_optimality_gap_rejects_nan(primal, dual, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        optimality_gap(primal, dual)


@pytest.mark.parametrize(
    "cost, reference, message",
    [(NAN, 1, "cost must not be NaN"), (1, NAN, "reference must not be NaN")],
)
def test_primal_gap_rejects_nan(cost, reference, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        primal_gap(cost, reference)


@pytest.mark.parametrize(
    "events, reference, horizon, message",
    [
        ([], 5, -1.0, "horizon -1.0 must be a number of at least 0"),
        ([], 5, NAN, "horizon nan must be a number of at least 0"),
        ([], NAN, 10, "reference must not be NaN"),
        ([(1.0, NAN)], 5, 10, "cost must not be NaN"),
        ([(NAN, 5)], 5, 10, r"event time nan outside \[0, 10\]"),
        ([], 5, math.inf, "horizon inf must be finite"),
        ([(1.0, 5)], 5, math.inf, "horizon inf must be finite"),
    ],
)
def test_primal_integral_rejects_nan_and_a_negative_horizon(events, reference, horizon, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        primal_integral(events, reference, horizon)


def test_primal_integral_over_a_zero_horizon():
    assert primal_integral([], reference=5, horizon=0) == 0.0
    assert primal_integral([(0.0, 10)], reference=5, horizon=0.0) == 0.0


def test_gap_of_a_large_integer_bound():
    # NaN is found by self-inequality, which needs no float conversion
    assert optimality_gap(10**400, 10**400) == 0.0
