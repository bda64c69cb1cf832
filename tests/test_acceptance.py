"""Acceptance gate: every numbered criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Criterion 9 is split into its independent clauses;
the adapted-strategy clause of 9c is known-red, see its docstring.
"""

import functools
import math
import time

import numpy as np
import pytest
import yaml

from helpers import (
    random_direction,
    random_pure_amp,
    random_pure_qubit_density,
    random_qubit_density,
)
from oracles import (
    dumps_scenario, lambda_min_for_rate, psd_sqrt, scenario_values, schmidt_state,
    tradeoff,
)
from seqeve import (
    ADAPTED,
    BOB,
    CANONICAL,
    ChainSpec,
    PureTwoQubitState,
    UnsharpSetting,
    bell_state,
    loads_scenario,
    max_eves,
    mub_chain,
    mub_sharp_pair,
    report,
)
from seqeve.chain import (
    PartySettings,
    conditional_table,
    propagate,
    table_from_operators,
)
from seqeve.cli import main
from seqeve.linalg import ID2, kron
from seqeve.measurement import (
    WeakKrausSetting,
    effect,
    projector,
    sqrt_effect,
    weak_kraus,
)
from seqeve.planner import (
    bob_rate,
    closed_form_chain,
    shrink_factor,
)
from seqeve.steering import fgi_lhs
from seqeve.unbounded import branch_tree, evaluate_branch, schmidt_decompose


def criterion(num: str, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance {num}] {label}: FAIL")
                raise
            print(f"[acceptance {num}] {label}: PASS")

        return wrapper

    return decorate


def assert_plan(target, lambdas, bob, tolerances):
    start = time.monotonic()
    plan = max_eves(target)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"planner took {elapsed:.2f}s"
    assert plan.max_eves == len(lambdas)
    for got, expected, tol in zip(plan.lambdas, lambdas, tolerances):
        assert got == pytest.approx(expected, abs=tol)
    assert plan.bob_rate == pytest.approx(bob, abs=2e-3)
    return plan


@criterion("01", "first reference table: target 0.1, four Eves, Bob 0.172")
def test_criterion_01_table_one():
    plan = assert_plan(
        0.1,
        (0.552, 0.602, 0.670, 0.768),
        0.172,
        (1e-3, 1e-3, 5e-3, 1e-3),
    )
    # A fifth Eve has no valid range: she can still reach 0.1 herself, but
    # Bob's rate then stops exceeding the target.
    lam5 = lambda_min_for_rate(plan.lambdas, 0.1)
    assert bob_rate(plan.lambdas + (lam5,)) <= 0.1
    with pytest.raises(Exception):
        closed_form_chain(0.1, 5)


@criterion("02", "second reference table: target 0.2, three Eves, Bob 0.269")
def test_criterion_02_table_two():
    assert_plan(0.2, (0.604, 0.672, 0.772), 0.269, (1e-3, 1e-3, 1e-3))


@criterion("03", "third reference table: target 0.3, two Eves, Bob 0.447")
def test_criterion_03_table_three():
    assert_plan(0.3, (0.655, 0.747), 0.447, (1e-3, 1e-3))


@criterion("04", "in-text chain: Eves at 0.552/0.602 get 0.100, Bob 0.634")
def test_criterion_04_in_text_chain():
    spec = mub_chain((0.552, 0.602))
    assert report(spec, 1).key_rate == pytest.approx(0.100, abs=2e-3)
    assert report(spec, 2).key_rate == pytest.approx(0.100, abs=2e-3)
    assert report(spec, BOB).key_rate == pytest.approx(0.634, abs=2e-3)


@criterion("05", "density-matrix chain matches closed-form damping recursion")
def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        lambdas = tuple(float(x) for x in rng.uniform(0.05, 1.0, size=n))
        spec = mub_chain(lambdas)
        damping = 1.0
        for m, lam in enumerate(lambdas, start=1):
            table = conditional_table(spec, m)
            expected = lam * damping
            for k in (0, 1):
                cells = table.probs[k, k]
                corr = cells[0, 0] + cells[1, 1] - 1.0
                assert abs(corr - expected) < 1e-9
            damping *= shrink_factor(lam)
        table = conditional_table(spec, BOB)
        for k in (0, 1):
            cells = table.probs[k, k]
            assert abs(cells[0, 0] + cells[1, 1] - 1.0 - damping) < 1e-9


@criterion("06", "measurement formalism property suite (1000 seeded cases)")
def test_criterion_06_measurement_properties():
    rng = np.random.default_rng(617)
    for _ in range(1000):
        direction = random_direction(rng)
        lam = float(rng.uniform(1e-3, 1.0))
        setting = UnsharpSetting(direction, lam)
        # POVM completeness.
        assert np.max(np.abs(effect(setting, 0) + effect(setting, 1) - ID2)) < 1e-10
        # Lueders update preserves the trace when summed over outcomes.
        rho = random_qubit_density(rng)
        total = sum(
            sqrt_effect(setting, c) @ rho @ sqrt_effect(setting, c) for c in (0, 1)
        )
        assert abs(np.trace(total).real - 1.0) < 1e-10
        # sqrt(E) squared recovers E, and matches the generic PSD root.
        for c in (0, 1):
            root = sqrt_effect(setting, c)
            assert np.max(np.abs(root @ root - effect(setting, c))) < 1e-10
            assert np.max(np.abs(root - psd_sqrt(effect(setting, c)))) < 1e-10
        # Projective limit.
        sharp = UnsharpSetting(direction, 1.0)
        from seqeve import SharpSetting

        assert (
            np.max(
                np.abs(
                    effect(sharp, 0) - projector(SharpSetting(direction), 0)
                )
            )
            < 1e-10
        )
        # Weak Kraus completeness.
        weak = WeakKrausSetting(float(rng.uniform(1e-3, math.pi / 4)))
        m0, m1 = weak_kraus(weak, 0), weak_kraus(weak, 1)
        assert (
            np.max(np.abs(m0.conj().T @ m0 + m1.conj().T @ m1 - ID2)) < 1e-10
        )
    for lam in np.linspace(1e-6, 1.0, 1000):
        pair = tradeoff(float(lam))
        assert abs(pair.quality_factor**2 + pair.precision**2 - 1.0) < 1e-10


@criterion("07", "steering sanity: no product false positives, maximal Bell")
def test_criterion_07_steering_sanity():
    rng = np.random.default_rng(719)
    grid = [
        [projector(s, outcome) for outcome in (0, 1)]
        for s in mub_sharp_pair().settings
    ]
    for i in range(1000):
        if i % 2 == 0:
            rho_a, rho_b = random_pure_qubit_density(rng), random_pure_qubit_density(rng)
        else:
            rho_a, rho_b = random_qubit_density(rng), random_qubit_density(rng)
        table = table_from_operators(kron(rho_a, rho_b), grid, grid)
        assert fgi_lhs(table) <= 0.75 + 1e-10
    rep = report(mub_chain(()), BOB)
    assert abs(rep.delta - 0.25) < 1e-10
    assert abs(rep.key_rate - 1.0) < 1e-10


@criterion("08", "no-signalling: Alice marginals ignore every Eve parameter")
def test_criterion_08_no_signalling():
    rng = np.random.default_rng(811)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        eves = tuple(
            PartySettings(
                UnsharpSetting(random_direction(rng), float(rng.uniform(0.05, 1.0))),
                UnsharpSetting(random_direction(rng), float(rng.uniform(0.05, 1.0))),
            )
            for _ in range(n)
        )
        alice = mub_sharp_pair()
        spec = ChainSpec.of(
            initial=bell_state(),
            alice=alice,
            eves=eves,
            bob=mub_sharp_pair(),
            input_bias=tuple(float(rng.uniform(0.0, 1.0)) for _ in range(n)),
        )
        initial = spec.initial.density_matrix()
        for party in list(range(1, n + 1)) + [BOB]:
            rho = propagate(spec, party).rho
            for i, setting in enumerate(alice.settings):
                for a in (0, 1):
                    marginal_op = kron(projector(setting, a), ID2)
                    got = np.trace(marginal_op @ rho).real
                    expected = np.trace(marginal_op @ initial).real
                    assert abs(got - expected) < 1e-10


@criterion("09a", "Schmidt reconstruction fidelity above 1 - 1e-10")
def test_criterion_09a_schmidt_fidelity():
    rng = np.random.default_rng(911)
    checked = 0
    while checked < 1000:
        psi = PureTwoQubitState(random_pure_amp(rng))
        try:
            sf = schmidt_decompose(psi)
        except Exception:
            continue
        assert abs(np.vdot(schmidt_state(sf).amp, psi.amp)) ** 2 > 1 - 1e-10
        checked += 1


@criterion("09b", "branch weights sum to one at every depth up to 6")
def test_criterion_09b_branch_weights():
    rng = np.random.default_rng(919)
    for depth in range(1, 7):
        theta1 = float(rng.uniform(0.05, math.pi / 4))
        angles = tuple(float(x) for x in rng.uniform(0.05, math.pi / 4, size=depth))
        leaves = branch_tree(theta1, angles)
        assert len(leaves) == 2**depth
        assert abs(sum(leaf.probability for leaf in leaves) - 1.0) < 1e-10


@criterion("09c", "maximally entangled branches: unit rate, tilt-matched settings")
def test_criterion_09c_bell_branch_canonical():
    leaves = branch_tree(math.pi / 4, (math.pi / 4, math.pi / 4))
    for leaf in leaves:
        assert leaf.theta == pytest.approx(math.pi / 4, abs=1e-10)
        assert evaluate_branch(leaf, CANONICAL).key_rate == pytest.approx(
            1.0, abs=1e-10
        )


@criterion("09c-adapted", "maximally entangled branches: unit rate, adapted settings")
def test_criterion_09c_bell_branch_adapted():
    """Known-red clause, kept as stated.

    The adapted second setting at a pi/4 branch is (sz + sx)/sqrt(2) (from
    tan(mu) = sin(2*theta) with theta = pi/4), whose correlation with Bob's
    sigma_x on the maximally entangled state is 1/sqrt(2).  Every
    outcome-labeling convention therefore caps the second inequality term
    at (1 + 1/sqrt(2))/2 ~= 0.854 and the rate at ~0.693, so a unit rate is
    unreachable for this strategy.  The assertion keeps the stated
    requirement visible rather than papering over it.
    """
    leaves = branch_tree(math.pi / 4, (math.pi / 4, math.pi / 4))
    for leaf in leaves:
        rate = evaluate_branch(leaf, ADAPTED).key_rate
        assert rate == pytest.approx(1.0, abs=1e-6), (
            f"adapted strategy at theta=pi/4 yields rate {rate:.6f}; a unit "
            "rate is mathematically unreachable with Bob fixed to sz/sx "
            "(second-term correlation is 1/sqrt(2))"
        )


@criterion("09d", "branch tree output is bit-identical across runs")
def test_criterion_09d_determinism():
    args = (0.65, (0.3, 0.45, 0.6))
    first = branch_tree(*args)
    second = branch_tree(*args)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.outcomes == b.outcomes
        assert a.theta == b.theta  # exact float equality intended
        assert a.probability == b.probability
        assert np.array_equal(a.u_alice, b.u_alice)


@criterion("09e", "tilt pi/6 regression: tilt-matched lhs 0.9, rate log2(1.5)")
def test_criterion_09e_pi6_regression():
    leaves = branch_tree(math.pi / 4, (math.pi / 6,))
    for leaf in leaves:
        rep = evaluate_branch(leaf, CANONICAL)
        assert rep.lhs == pytest.approx(0.9, abs=1e-6)
        assert rep.key_rate == pytest.approx(math.log2(1.5), abs=1e-6)


@criterion("10", "CLI contract: round trip, reference check, schema errors")
def test_criterion_10_cli_contract(tmp_path, capsys):
    doc = (
        "mode: chain\n"
        "state: {kind: tilted, theta: deg:30}\n"
        "eves:\n"
        "  - lambda: 0.7\n"
        "    bias: 0.25\n"
        "output: {format: json}\n"
    )
    scenario = scenario_values(loads_scenario(doc))
    again = loads_scenario(dumps_scenario(yaml.safe_load(doc)))
    assert scenario_values(again) == scenario

    assert main(["plan", "--rates", "0.1,0.2,0.3", "--check-paper"]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.yaml"
    bad.write_text("mode: chain\neves:\n  - lambda: 0.5\n    basis: x\n")
    assert main(["chain", "--scenario", str(bad)]) == 2
    assert "eves[0].basis" in capsys.readouterr().err
