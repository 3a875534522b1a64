import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctcsim as cs
from ctcsim import Channel, build_circuit, make_gate
from oracles import flat_measure_nodes


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


BAD_NOISE = [(cs.NoisyBell(2.0), "noise parameter lam must lie in"),
             (cs.NoisyBell(-0.5), "noise parameter lam must lie in"),
             (cs.NoisyBell(math.nan), "noise parameter lam must lie in"),
             (cs.NoisyBell("abc"), "noise parameter lam must be a real number"),
             (cs.Classical(2.0), "flip rate k must lie in"),
             (cs.Classical(math.nan), "flip rate k must lie in"),
             (cs.Classical(None), "flip rate k must be a real number")]


@pytest.mark.parametrize("model,message", BAD_NOISE,
                         ids=["lam-2", "lam-neg", "lam-nan", "lam-text", "k-2", "k-nan", "k-none"])
def test_skew_factor_rejects_what_the_model_run_rejects(model, message):
    # once -1.0, -0.5, nan or a bare TypeError
    with pytest.raises(cs.ConfigError, match=message):
        cs.skew_factor(model)
    circuit = build_circuit([Channel("tm", looped=True)], [make_gate("H", ("tm",))])
    with pytest.raises(cs.ConfigError, match=message):
        model.run(circuit)


@pytest.mark.parametrize("omegas", [[math.nan, 2.0], [2.0, math.nan]],
                         ids=["nan-first", "nan-last"])
def test_compose_skew_rejects_nan_factors(omegas):
    with pytest.raises(cs.ConfigError, match="skew factors are >= 1"):
        cs.compose_skew(omegas)


_Z_OP, _PLUS, _ZERO = np.diag([1.0, -1.0]), np.array([1.0, 1.0]) / math.sqrt(2), [1.0, 0.0]
# every closed form that takes a skew factor, called with a sound value for the rest
SKEW_FORMS = {
    "boosted_success": lambda omega: cs.boosted_success(0.3, omega),
    "povm_inconclusive": lambda omega: cs.povm_inconclusive(0.3, omega),
    "discrimination_stats": lambda omega: cs.discrimination_stats(0.5, 0.2, omega),
    "entropy_skew": lambda omega: cs.entropy_skew(0.3, 0.5, omega),
    "entropy_skew_max": lambda omega: cs.entropy_skew_max(omega),
    "szilard_work": lambda omega: cs.szilard_work(0.3, omega),
    "weak_average": lambda omega: cs.weak_average(_Z_OP, _PLUS, _ZERO, omega),
}


@pytest.mark.parametrize("omega", [math.nan, -2.0, -1.0, 0.5], ids=["nan", "-2", "-1", "0.5"])
@pytest.mark.parametrize("form", SKEW_FORMS, ids=list(SKEW_FORMS))
def test_every_skew_form_rejects_what_compose_skew_rejects(form, omega):
    # once nan, a negative probability, a bare ValueError or a RuntimeWarning
    with pytest.raises(cs.ConfigError, match="skew factors are >= 1"):
        cs.compose_skew([omega])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        with pytest.raises(cs.ConfigError, match="skew factors are >= 1"):
            SKEW_FORMS[form](omega)
    SKEW_FORMS[form](1.0)  # the unskewed channel is a skew factor


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
    # an odd count once put a polar node on theta = pi/2, where the exact
    # CNOT gun is a paradox; so is its |1> probe, which must weigh 0, not abort
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


def input_bias_by_node(circuit, channel, model, nodes):
    """Reference: the per-node scan, one model run per flat-measure node."""
    theta, w_theta, xi, w_xi = flat_measure_nodes(nodes, nodes)
    num, den = np.zeros((2, 2), dtype=complex), 0.0
    for t, wt in zip(theta, w_theta):
        for x, wx in zip(xi, w_xi):
            amps = (math.cos(t), math.sin(t) * np.exp(1j * x))
            try:
                z = model.run(cs.with_init(circuit, channel, amps)).z
            except cs.ParadoxError:
                z = 0.0
            v = np.array(amps)
            num += wt * wx * z * np.outer(v, v.conj())
            den += wt * wx * z
    return num / den


def random_one_loop_circuit(seed):
    """One looped channel, two externals ("in" is scanned), eight random gates.

    The leading phase gate makes the acceptance form of "in" complex.
    """
    rng = np.random.default_rng(seed)
    labels = ["tm", "in", "aux"]
    gates = [make_gate("PHASE", ("in",), params=(0.9,))]
    for _ in range(8):
        kind, arity, n_params = [("ROT", 1, 1), ("H", 1, 0), ("CROT", 2, 1),
                                 ("CPHASE", 2, 1), ("CX", 2, 0)][rng.integers(5)]
        gates.append(make_gate(kind, tuple(rng.choice(labels, arity, replace=False)),
                               params=tuple(rng.uniform(-math.pi, math.pi, n_params))))
    return build_circuit(
        [Channel("tm", looped=True), Channel("in"), Channel("aux", init=(0.6, 0.8j))],
        gates,
    )


BIAS_MODELS = [cs.ExactBell(), cs.NoisyBell(0.3), cs.Classical(0.3),
               cs.Classical(0.3, floor=True), cs.WeightMatrix("flat"),
               cs.WeightMatrix("quad"), cs.WeightMatrix("delta"),
               cs.WeightMatrix(np.array([[3.0, 1.0], [1.0, 3.0]])),
               cs.DeltaQuadrature(16, 8)]


@pytest.mark.parametrize("model", BIAS_MODELS, ids=lambda m: str(m.describe()))
@pytest.mark.parametrize("seed", [2, 7])
def test_input_bias_matches_the_per_node_scan(model, seed):
    circuit = random_one_loop_circuit(seed)
    bias = cs.input_bias(circuit, "in", model, nodes=16)
    assert np.max(np.abs(bias.mat - input_bias_by_node(circuit, "in", model, 16))) <= 1e-9


def test_input_bias_matches_the_per_node_scan_across_paradox_inputs():
    # the |1> input of the exact CNOT gun is a paradox, so one of the four
    # probe runs raises and counts as Z = 0
    circuit = cs.build_scenario("cnot_gun").circuit
    with pytest.raises(cs.ParadoxError):
        cs.run_exact_bell(cs.with_init(circuit, "gun", (0.0, 1.0)))
    bias = cs.input_bias(circuit, "gun", cs.ExactBell(), nodes=16)
    reference = input_bias_by_node(circuit, "gun", cs.ExactBell(), 16)
    assert np.max(np.abs(bias.mat - reference)) <= 1e-9


class CountingModel:
    def __init__(self, model):
        self.model, self.runs = model, 0

    def run(self, circuit, tol=None):
        self.runs += 1
        return self.model.run(circuit, tol=tol)


def test_input_bias_makes_four_model_runs_whatever_the_node_count():
    circuit = cs.build_scenario("cnot_gun").circuit
    model = CountingModel(cs.NoisyBell(0.3))
    cs.input_bias(circuit, "gun", model, nodes=64)
    assert model.runs == 4
    model = CountingModel(cs.NoisyBell(0.3))
    cs.input_bias(circuit, "gun", model, nodes=4)
    assert model.runs == 4


@pytest.mark.parametrize("model", [cs.DeltaQuadrature(), cs.NoisyBell(0.2), cs.Classical(0.3)],
                         ids=["delta", "noisy", "classical"])
def test_input_bias_is_exact_below_six_nodes(model):
    # the average is the exact integral on every accepted grid, the smallest too
    circuit = cs.build_scenario("cnot_gun").circuit
    default = cs.input_bias(circuit, "gun", model).mat
    for nodes in (3, 4, 5):
        bias = cs.input_bias(circuit, "gun", model, nodes=nodes)
        assert np.max(np.abs(bias.mat - default)) <= 1e-12, nodes


@pytest.mark.parametrize("nodes", [1, 0, -3])
def test_input_bias_below_two_nodes_is_a_config_error(nodes):
    circuit = cs.build_scenario("cnot_gun").circuit
    model = CountingModel(cs.NoisyBell(0.2))
    with pytest.raises(cs.ConfigError, match="node counts must be (at least 3|positive)"):
        cs.input_bias(circuit, "gun", model, nodes=nodes)
    assert model.runs == 0


@pytest.mark.parametrize("nodes", [1, 2, 2.0])
def test_input_bias_below_three_nodes_fails_before_any_model_run(nodes):
    circuit = cs.build_scenario("cnot_gun").circuit
    model = CountingModel(cs.DeltaQuadrature())
    with pytest.raises(cs.ConfigError, match="node counts must be at least 3"):
        cs.input_bias(circuit, "gun", model, nodes=nodes)
    assert model.runs == 0


@pytest.mark.parametrize("nodes", [math.nan, math.inf, 6.5, "8", None, [8]],
                         ids=["nan", "inf", "fraction", "text", "none", "list"])
def test_input_bias_node_count_must_be_a_whole_number(nodes):
    circuit = cs.build_scenario("cnot_gun").circuit
    model = CountingModel(cs.NoisyBell(0.2))
    with pytest.raises(cs.ConfigError, match="whole numbers"):
        cs.input_bias(circuit, "gun", model, nodes=nodes)
    assert model.runs == 0


def test_input_bias_takes_a_whole_float_node_count():
    circuit = cs.build_scenario("cnot_gun").circuit
    whole = cs.input_bias(circuit, "gun", cs.NoisyBell(0.2), nodes=8.0)
    assert np.array_equal(whole.mat, cs.input_bias(circuit, "gun", cs.NoisyBell(0.2), nodes=8).mat)


def test_input_bias_beyond_the_grid_cap_is_a_config_error():
    circuit = cs.build_scenario("cnot_gun").circuit
    with pytest.raises(cs.ConfigError, match="exceeds"):
        cs.input_bias(circuit, "gun", cs.NoisyBell(0.2), nodes=10**300)


@pytest.mark.parametrize("nodes", [1025, 10**300], ids=["just_past", "huge"])
def test_input_bias_checks_the_grid_cap_before_any_model_run(nodes):
    circuit = cs.build_scenario("cnot_gun").circuit
    model = CountingModel(cs.DeltaQuadrature())
    with pytest.raises(cs.ConfigError, match="exceeds 1048576 nodes"):
        cs.input_bias(circuit, "gun", model, nodes=nodes)
    assert model.runs == 0


@pytest.mark.parametrize("model", [cs.DeltaQuadrature(), cs.NoisyBell(0.3), cs.Classical(0.3)],
                         ids=["delta", "noisy", "classical"])
def test_input_bias_is_exact_from_six_nodes(model):
    # the average is of degree 4 in the input amplitudes, which a grid of
    # 3 or more nodes per axis integrates exactly: every grid gives the
    # default's answer
    circuit = cs.build_scenario("cnot_gun").circuit
    default = cs.input_bias(circuit, "gun", model).mat
    for nodes in (6, 8, 12):
        bias = cs.input_bias(circuit, "gun", model, nodes=nodes)
        assert np.max(np.abs(bias.mat - default)) <= 1e-12, nodes


def test_input_bias_delta_model_on_two_loops_is_unsupported():
    circuit = build_circuit(
        [Channel("t1", looped=True), Channel("t2", looped=True), Channel("s")],
        [make_gate("CX", ("t1", "t2")), make_gate("CX", ("s", "t1"))],
    )
    with pytest.raises(cs.UnsupportedError, match="weight_matrix"):
        cs.input_bias(circuit, "s", cs.DeltaQuadrature(), nodes=8)
