"""Tests for the minimal-sharpness planner and its closed-form oracle."""

import numpy as np
import pytest

from helpers import count_calls
from oracles import lambda_min_for_rate
from seqeve import bell_state, max_eves, mub_chain, planner, report, tilted_state
from seqeve.chain import MUB_DIRECTIONS, Assemblage, mub_sharp_pair
from seqeve.planner import (
    BOB_SUPREMACY,
    EVE_UNREACHABLE,
    InfeasibleError,
    bob_rate,
    closed_form_chain,
    shrink_factor,
)
from seqeve.steering import delta_for_rate, scores

# On this weakly entangled state Bob's rate with no Eve is 0.377, so no
# sharpness of a first Eve reaches the target 0.5.
WEAK_THETA, UNREACHABLE_TARGET = 0.2, 0.5


class TestLambdaMin:
    def test_first_eve_table_value(self):
        assert lambda_min_for_rate((), 0.1) == pytest.approx(0.552, abs=1e-3)

    def test_second_eve_table_value(self):
        assert lambda_min_for_rate((0.552,), 0.1) == pytest.approx(0.602, abs=1e-3)

    def test_third_eve_other_target(self):
        assert lambda_min_for_rate((0.604, 0.672), 0.2) == pytest.approx(
            0.772, abs=1e-3
        )

    def test_result_actually_reaches_target(self):
        lam = lambda_min_for_rate((0.552,), 0.1)
        assert report(mub_chain((0.552, lam)), 2).key_rate >= 0.1 - 1e-5

    def test_infeasible_when_projective_is_not_enough(self):
        # After a heavily damped prefix even sharpness 1 cannot reach 0.3.
        with pytest.raises(InfeasibleError) as err:
            lambda_min_for_rate((1.0, 1.0), 0.3)
        assert err.value.reason == EVE_UNREACHABLE

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            lambda_min_for_rate((), 0.0)


class TestGridWalk:
    """The grid walk from a misplaced start, and its stop at sharpness 1."""

    @pytest.mark.parametrize("offset", [-3, 3])
    def test_walk_from_a_misplaced_start_finds_the_minimum(self, monkeypatch, offset):
        upstream = Assemblage.of(bell_state(), mub_sharp_pair())
        grid = planner._GRID
        expected = lambda_min_for_rate((), 0.1)
        # An lhs(1) that puts the exact minimum |offset| grid points off the
        # true one (which lhs(1) = 1 gives), so the walk must move.
        needed = 0.25 + delta_for_rate(0.1)
        sharp_lhs = 0.5 + needed / (expected + (offset - 0.5) / grid)
        tables = count_calls(monkeypatch, Assemblage, "table")
        solved, _, _ = planner._grid_solve(
            upstream.p_alice, upstream.bloch[None], {0: (0.1, sharp_lhs)}, 1
        )
        assert solved == {0: expected}
        # One round per grid point, from the start to the minimum; the k
        # slice of each round's table is sharpness[0].
        visited = [
            round((sharpness[0, 0, 0] - expected) * grid)
            for _, _, sharpness in tables
        ]
        toward = -1 if offset > 0 else 1
        assert visited == [*range(offset, 0, toward), 0]

    def test_walk_up_to_sharpness_one_raises(self, monkeypatch):
        upstream = Assemblage.of(tilted_state(WEAK_THETA), mub_sharp_pair())
        # An lhs(1) that puts the exact minimum 2.5 grid points below 1, so
        # the walk starts at 2^20 - 2 and must climb to the end of the grid.
        grid = planner._GRID
        needed = 0.25 + delta_for_rate(UNREACHABLE_TARGET)
        sharp_lhs = 0.5 + needed * grid / (grid - 2.5)
        tables = count_calls(monkeypatch, Assemblage, "table")
        solves = {0: (UNREACHABLE_TARGET, sharp_lhs)}
        with pytest.raises(InfeasibleError) as err:
            planner._grid_solve(upstream.p_alice, upstream.bloch[None], solves, 3)
        assert (err.value.position, err.value.reason) == (3, EVE_UNREACHABLE)
        assert str(err.value).endswith("rate at sharpness 1 is below target 0.5")
        # Rounds at 2^20 - 2, 2^20 - 1 and 2^20, each with the point below.
        top = [sharpness[0, 0, 0] * grid for _, _, sharpness in tables]
        assert top == [grid - 2, grid - 1, grid]

    def test_unreachable_first_eve_is_infeasible(self, monkeypatch):
        start = Assemblage.of(tilted_state(WEAK_THETA), mub_sharp_pair())
        (lhs,), _, (rate,) = scores(start.table(MUB_DIRECTIONS, np.ones(1)))
        monkeypatch.setattr(planner, "_bell_start", lambda: (start, lhs, rate))
        with pytest.raises(InfeasibleError) as err:
            max_eves(UNREACHABLE_TARGET)
        assert (err.value.position, err.value.reason) == (1, EVE_UNREACHABLE)
        message = f"rate at sharpness 1 is below target {UNREACHABLE_TARGET}"
        assert str(err.value).endswith(message)


class TestBellStart:
    def test_the_cached_start_is_shared_and_read_only(self):
        start, lhs, rate = planner._bell_start()
        assert planner._bell_start()[0] is start
        assert (lhs, rate) == (1.0, 1.0)
        for array in (start.p_alice, start.bloch):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


class TestMaxEves:
    def test_target_01_reproduces_four_eves(self):
        plan = max_eves(0.1)
        assert plan.max_eves == 4
        np.testing.assert_allclose(
            plan.lambdas, (0.552, 0.602, 0.670, 0.768), atol=5e-3
        )
        assert plan.bob_rate == pytest.approx(0.172, abs=2e-3)

    def test_target_02_reproduces_three_eves(self):
        plan = max_eves(0.2)
        assert plan.max_eves == 3
        np.testing.assert_allclose(plan.lambdas, (0.604, 0.672, 0.772), atol=1e-3)
        assert plan.bob_rate == pytest.approx(0.269, abs=2e-3)

    def test_target_03_reproduces_two_eves(self):
        plan = max_eves(0.3)
        assert plan.max_eves == 2
        np.testing.assert_allclose(plan.lambdas, (0.655, 0.747), atol=1e-3)
        assert plan.bob_rate == pytest.approx(0.447, abs=2e-3)

    def test_nonincreasing_in_target(self):
        counts = [max_eves(r).max_eves for r in (0.1, 0.2, 0.3)]
        assert counts == sorted(counts, reverse=True)

    def test_lambdas_strictly_increasing(self):
        for target in (0.1, 0.2, 0.3):
            lams = max_eves(target).lambdas
            assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_high_target_admits_no_eves(self):
        plan = max_eves(0.99)
        assert plan.max_eves == 0
        assert plan.lambdas == ()
        assert plan.bob_rate == pytest.approx(1.0, abs=1e-9)

    def test_rejects_target_outside_unit_interval(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="target rate"):
                max_eves(bad)


class TestClosedFormOracle:
    def test_two_step_chain(self):
        lams = closed_form_chain(0.1, 2)
        np.testing.assert_allclose(lams, (0.5520, 0.6020), atol=1e-4)

    def test_single_step_chain(self):
        (lam,) = closed_form_chain(0.2, 1)
        assert lam == pytest.approx(0.6038, abs=1e-4)

    def test_infeasible_third_position_for_target_03(self):
        # Eve 3 alone could still reach 0.3, but Bob's rate would collapse.
        with pytest.raises(InfeasibleError) as err:
            closed_form_chain(0.3, 3)
        assert err.value.position == 3
        assert err.value.reason == BOB_SUPREMACY

    def test_infeasible_first_position_for_extreme_target(self):
        with pytest.raises(InfeasibleError) as err:
            closed_form_chain(0.99, 1)
        assert err.value.position == 1

    def test_matches_simulator_planner(self):
        for target in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
            plan = max_eves(target)
            oracle = closed_form_chain(target, plan.max_eves)
            np.testing.assert_allclose(plan.lambdas, oracle, atol=1e-4)

    def test_bob_rate_matches_simulator(self):
        lams = closed_form_chain(0.1, 4)
        from seqeve.planner import rate_from_correlation

        damping = 1.0
        for lam in lams:
            damping *= shrink_factor(lam)
        assert rate_from_correlation(damping) == pytest.approx(
            bob_rate(lams), abs=1e-9
        )


class TestMonotonicityProperties:
    def test_rate_nondecreasing_in_sharpness(self):
        prefix = (0.552,)
        rates = [
            report(mub_chain(prefix + (float(lam),)), 2).key_rate
            for lam in np.linspace(0.01, 1.0, 100)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_tightening_upstream_decreases_downstream(self):
        base = report(mub_chain((0.552, 0.602)), 2).key_rate
        tightened = report(mub_chain((0.7, 0.602)), 2).key_rate
        assert tightened <= base + 1e-12
        base_bob = bob_rate((0.552, 0.602))
        assert bob_rate((0.7, 0.602)) <= base_bob + 1e-12
