"""Tests for the minimal-sharpness planner and its closed-form oracle."""

import numpy as np
import pytest

from seqeve import max_eves, mub_chain, report
from seqeve.planner import (
    BOB_SUPREMACY,
    EVE_UNREACHABLE,
    InfeasibleError,
    bob_rate,
    closed_form_chain,
    lambda_min_for_rate,
    shrink_factor,
)


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
