import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctcsim as cs
from ctcsim import Channel, build_circuit, make_gate


def test_skew_factor_values():
    assert cs.skew_factor(cs.NoisyBell(0.5)) == pytest.approx(5.0)
    assert cs.skew_factor(cs.Classical(0.25)) == pytest.approx(3.0)


def test_skew_factor_diverges_at_zero_noise():
    with pytest.raises(cs.InfiniteSkew):
        cs.skew_factor(cs.NoisyBell(0.0))
    with pytest.raises(cs.InfiniteSkew):
        cs.skew_factor(cs.Classical(0.0))
    with pytest.raises(cs.InfiniteSkew):
        cs.skew_factor(cs.ExactBell())


def test_compose_skew_is_product():
    assert cs.compose_skew([2.0, 3.0, 4.0]) == pytest.approx(24.0)
    with pytest.raises(cs.ConfigError):
        cs.compose_skew([0.5])


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=1.0, max_value=200.0))
def test_boosted_success_is_odds_multiplication(p, omega):
    boosted = cs.boosted_success(p, omega)
    odds_in = p / (1 - p)
    odds_out = boosted / (1 - boosted)
    assert odds_out == pytest.approx(omega * odds_in, rel=1e-9)


def test_boosted_success_identity_at_unit_skew():
    assert cs.boosted_success(0.37, 1.0) == pytest.approx(0.37)


def test_povm_inconclusive_suppression():
    # skew 9 turns a 50% inconclusive rate into 10%
    assert cs.povm_inconclusive(0.5, 9.0) == pytest.approx(0.1)


def test_discrimination_waste_tradeoff():
    stats = cs.discrimination_stats(0.5, 0.0, 3.0)
    assert stats["p_inconclusive"] == pytest.approx(2.0 / 3.0)
    assert stats["p_inconclusive_skewed"] < stats["p_inconclusive"]
    # rotating toward orthogonality removes the inconclusive outcome
    ortho = cs.discrimination_stats(0.5, math.pi / 2, 3.0)
    assert ortho["p_inconclusive"] == pytest.approx(0.0)
    assert ortho["waste"] == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.9),
       st.floats(min_value=1.0, max_value=50.0),
       st.integers(min_value=1, max_value=6))
def test_entropy_skew_matches_brute_force_ensemble(a, omega, m):
    """Boost one member of an explicit ensemble and compare entropies."""
    probs = np.array([a] + [(1 - a) / m] * m)
    s0 = float(-(probs * np.log(probs)).sum())
    zp = (omega - 1) * a + 1
    skewed = np.array([omega * a] + [(1 - a) / m] * m) / zp
    s1 = float(-(skewed * np.log(skewed)).sum())
    assert cs.entropy_skew(a, s0, omega) == pytest.approx(s1 - s0, abs=1e-9)


def test_entropy_skew_zero_at_unit_skew():
    assert cs.entropy_skew(0.3, 1.2, 1.0) == 0.0


@pytest.mark.parametrize("omega", [1.5, 3.0, 20.0])
def test_entropy_skew_max_locates_largest_reduction(omega):
    """Selection lowers entropy; for s0 = -ln(a) the reduction is deepest at
    the closed-form member weight."""
    a_max, z_max, ds_max = cs.entropy_skew_max(omega)
    grid = np.linspace(1e-4, 1 - 1e-4, 20001)
    changes = [cs.entropy_skew(a, -math.log(a), omega) for a in grid]
    best = int(np.argmin(changes))
    assert ds_max <= 0.0
    assert grid[best] == pytest.approx(a_max, abs=1e-3)
    assert changes[best] == pytest.approx(ds_max, abs=1e-6)
    assert (omega - 1) * a_max + 1 == pytest.approx(z_max, rel=1e-12)


def test_entropy_skew_max_degenerates_smoothly():
    assert cs.entropy_skew_max(1.0) == (0.5, 1.0, 0.0)


def test_szilard_work_vanishes_at_even_partition():
    work, bound = cs.szilard_work(0.5, 7.0)
    assert work == pytest.approx(0.0, abs=1e-12)
    assert bound == pytest.approx(math.log(7.0))


def test_szilard_work_bounded_by_log_skew():
    omega = 9.0
    best = max(cs.szilard_work(x, omega)[0] for x in np.linspace(0.01, 0.99, 999))
    assert 0.0 < best < math.log(omega)


def test_szilard_work_nonpositive_without_skew():
    for x in np.linspace(0.05, 0.95, 19):
        work, _ = cs.szilard_work(x, 1.0)
        assert work <= 1e-12


def test_ec_fidelity_perfect_and_improving():
    assert cs.ec_fidelity(0.0, 3) == 1.0
    f = [cs.ec_fidelity(0.1, n) for n in range(1, 6)]
    assert all(b > a for a, b in zip(f, f[1:]))
    assert f[0] == pytest.approx(0.9**2 / (0.9**2 + 0.1))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
def test_parity_recursion_matches_even_parity_probability(alphas):
    flips = [1 - a * a for a in alphas]
    even = 0.0
    for pattern in itertools.product((0, 1), repeat=len(flips)):
        if sum(pattern) % 2 == 0:
            w = 1.0
            for bit, pf in zip(pattern, flips):
                w *= pf if bit else 1 - pf
            even += w
    assert cs.parity_recursion(alphas)["e2"] == pytest.approx(even, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
def test_parity_recursion_bias_contracts(alphas):
    out = cs.parity_recursion(alphas)
    bias = 0.5
    for a, reported in zip(alphas, out["bias_path"]):
        bias *= 2 * a * a - 1
        assert reported == pytest.approx(bias, abs=1e-9)
    assert abs(out["bias_path"][-1]) <= 0.5 + 1e-12


def test_search_error_rates_skew_beats_chernoff_eventually():
    eps_skew, eps_chernoff = cs.search_error_rates(1e-6, 2.0, 30.0, 0.1, 0.75)
    assert eps_skew < 1e-10
    assert eps_skew < eps_chernoff


def test_weak_average_limits():
    op = np.array([[1, 0], [0, -1]], dtype=complex)
    pre = np.array([1.0, 1.0]) / math.sqrt(2)
    post = np.array([1.0, 0.0])
    big = cs.weak_average(op, pre, post, 1e12)
    assert big == pytest.approx(np.vdot(post, op @ pre), abs=1e-9)
    even = cs.weak_average(op, pre, post, 1.0)
    perp = np.array([0.0, 1.0])
    expect = 0.5 * (np.vdot(post, op @ pre) + np.vdot(perp, op @ pre))
    assert even == pytest.approx(expect, abs=1e-12)


def test_flip_probability_reads_diagonal():
    rho = cs.DensityOperator(np.diag([0.1, 0.2, 0.3, 0.4]), ("a", "b"))
    result = cs.PostSelectionResult(model="test", z=1.0, rho=rho)
    assert cs.flip_probability(result, "a") == pytest.approx(0.7)
    assert cs.flip_probability(result, "a", "b") == pytest.approx(0.5)


def test_input_bias_unbiased_channel_returns_maximally_mixed():
    circuit = build_circuit(
        [Channel("tm", looped=True), Channel("sys", init=(1.0, 0.0))],
        [make_gate("SWAP", ("tm", "sys"))],
    )
    bias = cs.input_bias(circuit, "sys", cs.Classical(0.5), nodes=16)
    assert np.allclose(bias.mat, np.eye(2) / 2, atol=1e-9)


def test_input_bias_favors_surviving_inputs():
    circuit = build_circuit(
        [Channel("tm", looped=True), Channel("gun", init=(1.0, 0.0))],
        [make_gate("CX", ("gun", "tm"))],
    )
    bias = cs.input_bias(circuit, "gun", cs.DeltaQuadrature(), nodes=32)
    assert bias.mat[0, 0].real == pytest.approx(0.65, abs=1e-6)
    assert bias.mat[0, 1] == pytest.approx(0.0, abs=1e-9)


def test_flip_probability_unknown_channel_is_label_error():
    rho = cs.DensityOperator(np.diag([0.5, 0.5]), ("a",))
    result = cs.PostSelectionResult(model="test", z=1.0, rho=rho)
    with pytest.raises(cs.LabelError, match="nope"):
        cs.flip_probability(result, "nope")
    with pytest.raises(cs.LabelError, match="nope"):
        cs.flip_probability(result, "a", "nope")


def test_input_bias_odd_node_count_gives_paradox_inputs_zero_weight():
    # with an odd count one polar node sits on theta = pi/2, where the
    # exact CNOT gun is a paradox; that input must weigh 0, not abort
    circuit = cs.build_scenario("cnot_gun").circuit
    odd = cs.input_bias(circuit, "gun", cs.ExactBell(), nodes=33)
    even = cs.input_bias(circuit, "gun", cs.ExactBell(), nodes=32)
    assert np.allclose(odd.mat, even.mat, atol=1e-12)
    assert np.isfinite(odd.mat).all()


def test_input_bias_raises_paradox_when_every_input_is_one():
    circuit = build_circuit(
        [Channel("tm", looped=True), Channel("s")], [make_gate("X", ("tm",))]
    )
    with pytest.raises(cs.ParadoxError, match="every input"):
        cs.input_bias(circuit, "s", cs.ExactBell(), nodes=8)
