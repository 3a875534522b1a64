import cmath
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


@pytest.mark.parametrize("k", [0.5000001, 0.7, 1.0])
def test_classical_skew_factor_is_defined_up_to_a_flip_rate_of_one_half(k):
    # once 1/k - 1 < 1, a value every closed form rejects as "skew factors are >= 1"
    with pytest.raises(cs.ConfigError, match=r"flip rate k <= 1/2"):
        cs.skew_factor(cs.Classical(k))
    assert cs.skew_factor(cs.Classical(0.5)) == 1.0


def coin_loop(p, loops=("tm",), mirrored=False):
    """The coin sqrt(p)|0> + sqrt(1-p)|1> flips each loop when it reads 1: CX(coin -> loop).

    The mirrored coin starts as sqrt(1-p)|0> + sqrt(p)|1>, so p is the flipped weight.
    """
    amps = (math.sqrt(p), math.sqrt(1.0 - p))
    coin = Channel("coin", init=amps[::-1] if mirrored else amps)
    return build_circuit([Channel(loop, looped=True) for loop in loops] + [coin],
                         [make_gate("CX", ("coin", loop)) for loop in loops])


@pytest.mark.parametrize("p, lam", [(0.3, 0.2), (0.05, 0.01)])
def test_the_noisy_skew_factor_boosts_the_coin_as_the_engine_does(p, lam):
    # the consistent branch keeps weight 1 - 3 lam/4 and the flipped one lam/4
    r = cs.run_noisy_bell(coin_loop(p), lam)
    boosted = cs.boosted_success(p, cs.skew_factor(cs.NoisyBell(lam)))
    assert abs(r.rho.mat[0, 0] - boosted) <= 1e-14


@pytest.mark.parametrize("p", [0.3, 0.05])
@pytest.mark.parametrize("k", [0.01, 0.3, 0.5])
def test_the_classical_skew_factor_boosts_the_coin_as_the_engine_does(p, k):
    # the kept history has weight 1 - k and the flipped one k
    r = cs.run_classical(coin_loop(p), k)
    boosted = cs.boosted_success(p, cs.skew_factor(cs.Classical(k)))
    assert abs(r.rho.mat[0, 0] - boosted) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.01, max_value=0.5))
def test_the_composed_skew_boosts_a_coin_copied_onto_two_loops_as_the_engine_does(p, lam, k):
    # each loop keeps or flips on its own, so the odds of the kept branch multiply
    c = coin_loop(p, loops=("t1", "t2"))
    for r, model in ((cs.run_noisy_bell(c, lam), cs.NoisyBell(lam)),
                     (cs.run_classical(c, k), cs.Classical(k))):
        omega = cs.skew_factor(model)
        boosted = cs.boosted_success(p, cs.compose_skew([omega, omega]))
        assert abs(r.rho.mat[0, 0] - boosted) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99), st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=0.01, max_value=0.5))
def test_the_inconclusive_rate_is_the_flipped_weight_of_the_mirrored_coin(p, lam, k):
    # the inconclusive outcome is the deselected one: the coin's |1>, weight p, flips the loop
    c = coin_loop(p, mirrored=True)
    for r, model in ((cs.run_noisy_bell(c, lam), cs.NoisyBell(lam)),
                     (cs.run_classical(c, k), cs.Classical(k))):
        suppressed = cs.povm_inconclusive(p, cs.skew_factor(model))
        assert abs(r.rho.mat[1, 1] - suppressed) <= 1e-12


def test_compose_skew_is_product():
    assert cs.compose_skew([2.0, 3.0, 4.0]) == pytest.approx(24.0)
    with pytest.raises(cs.ConfigError):
        cs.compose_skew([0.5])
    assert cs.compose_skew([1e154, 1e154]) == 1e308
    # once inf, a skew factor every other closed form rejects as unbounded
    with pytest.raises(cs.InfiniteSkew, match="skew factor inf is unbounded"):
        cs.compose_skew([1e308, 10])


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


def test_ec_fidelity_holds_where_both_amplitudes_underflow():
    # 0.5**1101 and 0.5**1100 are both 0.0; their ratio, 2, is taken in logs
    assert cs.ec_fidelity(0.5, 1100) == pytest.approx(1 / 3, rel=1e-15)
    assert cs.ec_fidelity(0.3, 1e308) == 1.0 and cs.ec_fidelity(0.7, 1e308) == 0.0
    assert cs.ec_fidelity(1.0, 3) == 0.0


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


# every closed form reads its real arguments as numbers; each call was once a bare
# TypeError, ValueError or OverflowError, or (a count of 1.5 qubits) a value
BAD_CLOSED_FORM_INPUTS = {
    "boosted_success_p": (lambda: cs.boosted_success("x", 2.0), "probability must be a real"),
    "povm_inconclusive_p": (lambda: cs.povm_inconclusive(None, 2.0), "probability must be a"),
    # every probability is read by the engine's one [0, 1] reader, words included
    "boosted_success_p_range": (lambda: cs.boosted_success(1.5, 2.0),
                                r"^probability must lie in \[0, 1\]$"),
    "compose_skew": (lambda: cs.compose_skew(["x"]), "skew factor must be a real number"),
    "entropy_skew_a": (lambda: cs.entropy_skew("x", 0.5, 2.0), "member weight a must be a"),
    "entropy_skew_s0": (lambda: cs.entropy_skew(0.5, "x", 2.0), "entropy s0 must be a real"),
    "szilard_work_x": (lambda: cs.szilard_work("x", 2.0), "partition position x must be a"),
    "ec_fidelity_n_text": (lambda: cs.ec_fidelity(0.1, "x"), "count n must be a real number"),
    "ec_fidelity_n_half": (lambda: cs.ec_fidelity(0.1, 1.5), "count n must be a whole number"),
    "parity_recursion_text": (lambda: cs.parity_recursion(["x"]), "amplitude must be a real"),
    "parity_recursion_number": (lambda: cs.parity_recursion(3), "weights must be a list"),
    "discrimination_overlap": (lambda: cs.discrimination_stats("x", 0.1, 2.0),
                               "probability must be a real number"),
    "discrimination_theta": (lambda: cs.discrimination_stats(0.3, "x", 2.0),
                             "angle theta must be a real number"),
    "search_prior": (lambda: cs.search_error_rates("x", 1, 1, 1, 0.6),
                     "probability must be a real number"),
    "search_time": (lambda: cs.search_error_rates(0.3, 1, "x", 1, 0.6),
                    "time t must be a real number"),
    "discrimination_theta_inf": (lambda: cs.discrimination_stats(0.3, math.inf, 2.0),
                                 "angle theta must be finite"),
    "search_time_negative": (lambda: cs.search_error_rates(0.3, 1, 1e10, -1, 0.6),
                             "t and rate gamma finite and >= 0"),
    "search_rate_negative": (lambda: cs.search_error_rates(0.3, 1, -1e308, 1, 0.6),
                             "t and rate gamma finite and >= 0"),
    "search_time_nan": (lambda: cs.search_error_rates(0.3, 1, math.nan, 1, 0.6),
                        "t and rate gamma finite and >= 0"),
    "search_boost_nan": (lambda: cs.search_error_rates(0.3, math.nan, 1, 1, 0.6),
                         "boost rate must be finite"),
    "search_boost_inf": (lambda: cs.search_error_rates(0.3, math.inf, 0, 1, 0.6),
                         "boost rate must be finite"),
    "weak_average_text": (lambda: cs.weak_average("x", [1, 0], [1, 0], 2.0),
                          "operator must be a 2-d array of numbers"),
    "weak_average_2x3": (lambda: cs.weak_average([[1, 0, 0], [0, 1, 0]], [1, 0], [1, 0], 2.0),
                         "implemented for single qubits"),
}


@pytest.mark.parametrize("case", BAD_CLOSED_FORM_INPUTS)
def test_every_bad_closed_form_input_is_a_config_error(case):
    call, message = BAD_CLOSED_FORM_INPUTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        with pytest.raises(cs.ConfigError, match=message):
            call()


def test_search_error_rates_past_the_float_range_is_its_limit():
    # e^(rate * t) = e^(1e20) was once an OverflowError: math range error
    eps_skew, eps_chernoff = cs.search_error_rates(0.3, 1e10, 1e10, 1, 0.6)
    assert eps_skew == 0.0
    assert eps_chernoff == 0.0


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


@pytest.mark.parametrize("pre, post, what", [
    ([0, 0], [1, 0], "pre-selected state"), ([1, 0], [0, math.inf], "post-selected state"),
], ids=["zero_pre", "infinite_post"])
def test_weak_average_of_a_state_with_no_direction_is_a_config_error(pre, post, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # once nan and a RuntimeWarning
        with pytest.raises(cs.ConfigError, match=what + " must be a nonzero finite vector"):
            cs.weak_average(np.eye(2), pre, post, 2.0)


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
    bias = cs.input_bias(circuit, "sys", cs.Classical(0.5))
    assert np.allclose(bias.mat, np.eye(2) / 2, atol=1e-9)


def test_input_bias_favors_surviving_inputs():
    circuit = build_circuit(
        [Channel("tm", looped=True), Channel("gun", init=(1.0, 0.0))],
        [make_gate("CX", ("gun", "tm"))],
    )
    bias = cs.input_bias(circuit, "gun", cs.DeltaQuadrature())
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
    bias = cs.input_bias(circuit, "gun", cs.ExactBell())
    odd = input_bias_by_node(circuit, "gun", cs.ExactBell(), 5)  # a node on theta = pi/2
    assert np.allclose(bias.mat, odd, atol=1e-12)
    assert np.isfinite(bias.mat).all()


def test_input_bias_raises_paradox_when_every_input_is_one():
    circuit = build_circuit(
        [Channel("tm", looped=True), Channel("s")], [make_gate("X", ("tm",))]
    )
    with pytest.raises(cs.ParadoxError, match="every input"):
        cs.input_bias(circuit, "s", cs.ExactBell())


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
               cs.DeltaQuadrature()]


@pytest.mark.parametrize("model", BIAS_MODELS, ids=lambda m: str(m.describe()))
@pytest.mark.parametrize("seed", [2, 7])
def test_input_bias_matches_the_per_node_scan(model, seed):
    circuit = random_one_loop_circuit(seed)
    bias = cs.input_bias(circuit, "in", model)
    assert np.max(np.abs(bias.mat - input_bias_by_node(circuit, "in", model, 16))) <= 1e-9


def test_input_bias_matches_the_per_node_scan_across_paradox_inputs():
    # the |1> input of the exact CNOT gun is a paradox: its acceptance is 0, while
    # the Bell-paired probe run survives on the |0> half
    circuit = cs.build_scenario("cnot_gun").circuit
    with pytest.raises(cs.ParadoxError):
        cs.run_exact_bell(cs.with_init(circuit, "gun", (0.0, 1.0)))
    bias = cs.input_bias(circuit, "gun", cs.ExactBell())
    reference = input_bias_by_node(circuit, "gun", cs.ExactBell(), 16)
    assert np.max(np.abs(bias.mat - reference)) <= 1e-9


class CountingModel:
    def __init__(self, model):
        self.model, self.runs = model, 0

    def run(self, circuit, tol=None):
        self.runs += 1
        return self.model.run(circuit, tol=tol)


def test_input_bias_makes_one_model_run():
    circuit = cs.build_scenario("cnot_gun").circuit
    model = CountingModel(cs.NoisyBell(0.3))
    cs.input_bias(circuit, "gun", model)
    assert model.runs == 1


@pytest.mark.parametrize("nodes", [1, 0, 2.0, math.nan, "8", None, 10**300],
                         ids=["one", "zero", "float", "nan", "text", "none", "huge"])
def test_input_bias_reads_nothing_from_nodes(nodes):
    # the keyword stays for callers that pass it; the average needs no grid
    circuit = cs.build_scenario("cnot_gun").circuit
    model = CountingModel(cs.NoisyBell(0.2))
    bias = cs.input_bias(circuit, "gun", model, nodes=nodes)
    assert np.array_equal(bias.mat, cs.input_bias(circuit, "gun", cs.NoisyBell(0.2)).mat)
    assert model.runs == 1


@pytest.mark.parametrize("model", [cs.DeltaQuadrature(), cs.NoisyBell(0.2), cs.Classical(0.3)],
                         ids=["delta", "noisy", "classical"])
def test_input_bias_is_exact_below_six_nodes(model):
    # the average is the exact integral, which the per-node scan gives from 3 nodes
    circuit = cs.build_scenario("cnot_gun").circuit
    bias = cs.input_bias(circuit, "gun", model).mat
    for nodes in (3, 4, 5):
        assert np.max(np.abs(bias - input_bias_by_node(circuit, "gun", model, nodes))) <= 1e-12


@pytest.mark.parametrize("model", ["exact_bell", None, {"name": "exact_bell"}],
                         ids=["name", "none", "document"])
def test_input_bias_needs_a_model_with_a_run_method(model):
    circuit = cs.build_scenario("cnot_gun").circuit
    with pytest.raises(cs.ConfigError, match="input_bias needs a channel model"):
        cs.input_bias(circuit, "gun", model)


@pytest.mark.parametrize("model", [cs.DeltaQuadrature(), cs.NoisyBell(0.3), cs.Classical(0.3)],
                         ids=["delta", "noisy", "classical"])
def test_input_bias_is_exact_from_six_nodes(model):
    # the average is of degree 4 in the input amplitudes, which a grid of
    # 3 or more nodes per axis integrates exactly: every per-node scan gives it
    circuit = cs.build_scenario("cnot_gun").circuit
    bias = cs.input_bias(circuit, "gun", model).mat
    for nodes in (6, 8, 12):
        assert np.max(np.abs(bias - input_bias_by_node(circuit, "gun", model, nodes))) <= 1e-12


def test_input_bias_delta_model_on_two_loops_is_unsupported():
    circuit = build_circuit(
        [Channel("t1", looped=True), Channel("t2", looped=True), Channel("s")],
        [make_gate("CX", ("t1", "t2")), make_gate("CX", ("s", "t1"))],
    )
    with pytest.raises(cs.UnsupportedError, match="weight_matrix"):
        cs.input_bias(circuit, "s", cs.DeltaQuadrature())


def test_input_bias_at_the_qubit_cap_names_its_reference_qubit():
    # six loops with their partners and two externals fill the 14-qubit cap, so
    # the probe's reference qubit would be the fifteenth
    circuit = build_circuit(
        [Channel("t%d" % i, looped=True) for i in range(6)] + [Channel("a"), Channel("b")],
        [make_gate("CX", ("a", "t0")), make_gate("CX", ("t5", "b"))],
    )
    assert cs.run_noisy_bell(circuit, 0.2).z > 0
    model = CountingModel(cs.NoisyBell(0.2))
    with pytest.raises(cs.UnsupportedError, match=r"reference qubit 'a\.ref'.* cap is 14"):
        cs.input_bias(circuit, "a", model)
    assert model.runs == 0


# the library twin of test_cli's test_every_bad_leaf_names_a_document_path: every
# closed form exported by the package, from a sound call, with each hostile value at
# each argument in turn.  input_bias runs a circuit; its inputs are tested above.
HOSTILE = [None, "x", math.nan, math.inf, -math.inf, -1, 0, 1e308, -1e308, 2, 0.5, [], {},
           ["x"], 1100, True, 1 + 1j, 10**5000]
_RESULT = cs.PostSelectionResult(
    model="test", z=1.0, rho=cs.DensityOperator(np.diag([0.1, 0.2, 0.3, 0.4]), ("a", "b")))
BASE_CALLS = {
    "boosted_success": (0.3, 2.0),
    "compose_skew": ([2.0, 3.0],),
    "discrimination_stats": (0.5, 0.2, 3.0),
    "ec_fidelity": (0.1, 3),
    "entropy_skew": (0.3, 0.5, 2.0),
    "entropy_skew_max": (2.0,),
    "flip_probability": (_RESULT, "a", "b"),
    "parity_recursion": ([0.9, 0.8],),
    "povm_inconclusive": (0.3, 2.0),
    "search_error_rates": (0.3, 1.0, 2.0, 0.5, 0.6),
    "skew_factor": (cs.NoisyBell(0.2),),
    "szilard_work": (0.3, 2.0),
    "weak_average": (_Z_OP, _PLUS, _ZERO, 2.0),
}
CLOSED_FORMS = sorted(name for name in cs.__all__ if name != "input_bias"
                      and getattr(getattr(cs, name), "__module__", None) == "ctcsim.analysis")


def _numbers(out):
    """Every number in a closed form's return value, as complex."""
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, (list, tuple)):
        return [x for item in out for x in _numbers(item)]
    return [complex(x) for x in np.ravel(out)]


def test_every_exported_closed_form_has_a_base_call():
    assert len(CLOSED_FORMS) == 13
    assert sorted(BASE_CALLS) == CLOSED_FORMS
    for name in CLOSED_FORMS:  # each base call is sound
        assert not any(map(cmath.isnan, _numbers(getattr(cs, name)(*BASE_CALLS[name]))))


@pytest.mark.parametrize("name, arg", [(name, i) for name in CLOSED_FORMS
                                       for i in range(len(BASE_CALLS.get(name, ())))])
def test_every_hostile_argument_returns_a_number_or_raises_a_typed_error(name, arg):
    bad = []
    for value in HOSTILE:
        args = list(BASE_CALLS[name])
        args[arg] = value
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy warning fails the case
                out = getattr(cs, name)(*args)
        except cs.CtcSimError:
            continue
        except Exception as err:  # a bare Python error or a warning
            bad.append((cs.errors._shown(value), repr(err)))
            continue
        if any(map(cmath.isnan, _numbers(out))):
            bad.append((cs.errors._shown(value), "nan in %r" % (out,)))
    assert not bad, bad
