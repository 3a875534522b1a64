import ast
import concurrent.futures
import functools
import itertools
import math
import pathlib
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ctcsim as cs
from ctcsim import Channel, PureState, build_circuit, make_gate
from ctcsim.circuit import evolve
from ctcsim.states import project
from oracles import (decohered_reference_run, delta_by_node, exact_with_pairs_by_unitary,
                     histories_by_unitary, model_num_by_histories, noisy_by_density_matrix,
                     outer_sum, p_ctc_output, pair_rows_by_histories, tensor)

SQ2 = 2**-0.5


def angle():
    return st.floats(min_value=-3.1, max_value=3.1, allow_nan=False)


def qubit_amps(draw, angles):
    t, p = angles
    return (math.cos(t), math.sin(t) * complex(math.cos(p), math.sin(p)))


def loop_with_rotations(theta_loop, theta_ext, phase):
    """One looped and one external qubit with generic single- and two-qubit gates."""
    return build_circuit(
        [Channel("tm", looped=True), Channel("ex", init=(0.8, 0.6))],
        [
            make_gate("ROT", ("tm",), params=(theta_loop,)),
            make_gate("CROT", ("ex", "tm"), params=(theta_ext,)),
            make_gate("CPHASE", ("tm", "ex"), params=(phase,)),
        ],
    )


def two_loop_circuit(theta):
    return build_circuit(
        [Channel("t1", looped=True), Channel("t2", looped=True),
         Channel("ex", init=(0.6, 0.8))],
        [make_gate("CX", ("t1", "t2")),
         make_gate("CROT", ("t2", "ex"), params=(theta,))],
    )


@settings(max_examples=40, deadline=None)
@given(angle(), angle(), angle())
def test_projection_weights_complete_for_unitary_circuits(a, b, c):
    table = cs.projection_table(loop_with_rotations(a, b, c))
    assert table.total_weight == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(angle())
def test_projection_weights_complete_with_two_loops(theta):
    table = cs.projection_table(two_loop_circuit(theta))
    assert len(table.amps) == len(table.labels) == 16
    assert table.total_weight == pytest.approx(1.0, abs=1e-10)


def haar_unitary(rng, d=2):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# (kind, arity, parameter count, CUSTOM matrix): 0 to 3 controls, and CUSTOM gates,
# which the kernel applies densely, one of them not unitary
RANDOM_GATES = (("X", 1, 0, None), ("Z", 1, 0, None), ("H", 1, 0, None), ("ROT", 1, 1, None),
                ("PHASE", 1, 1, None), ("CX", 2, 0, None), ("CZ", 2, 0, None),
                ("CROT", 2, 1, None), ("CPHASE", 2, 1, None), ("SWAP", 2, 0, None),
                ("CCROT", 3, 1, None), ("TOFFOLI", 3, 0, None), ("CCCROT", 4, 1, None),
                ("CUSTOM", 2, 0, haar_unitary(np.random.default_rng(7), 4)),
                ("CUSTOM", 1, 0, 0.9 * np.array([[0, 1], [1, 0]]) + 0.1 * np.eye(2)))


def random_circuit(seed, n_loops, n_ext, n_gates=12):
    """Random circuit whose loop and external channels are declared shuffled."""
    rng = np.random.default_rng(seed)
    channels = [Channel("t%d" % i, looped=True) for i in range(n_loops)]
    for i in range(n_ext):
        t, p = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        amps = (math.cos(t), math.sin(t) * complex(math.cos(p), math.sin(p)))
        channels.append(Channel("e%d" % i, init=amps))
    channels = [channels[i] for i in rng.permutation(len(channels))]
    labels = [c.label for c in channels]
    kinds = [g for g in RANDOM_GATES if g[1] <= len(labels)]
    gates = []
    for _ in range(n_gates):
        kind, arity, n_params, matrix = kinds[rng.integers(len(kinds))]
        targets = tuple(rng.choice(labels, size=arity, replace=False))
        gates.append(make_gate(kind, targets, matrix=matrix,
                               params=tuple(rng.uniform(-math.pi, math.pi, n_params))))
    return build_circuit(channels, gates)


def histories_by_evolution(circuit):
    """Reference: evolve each loop eigenstate separately, then project on each."""
    loops = circuit.loop_labels
    m = len(loops)
    ext0 = circuit.initial_external_state()
    histories = {}
    for i in range(2**m):
        start = PureState(np.eye(2**m)[i], loops)
        state = evolve(start if not ext0.n_qubits else tensor(start, ext0), circuit)
        for j in range(2**m):
            bra = PureState(np.eye(2**m)[j], loops)
            histories[(i, j)] = project(state, bra)
    return histories


def table_by_projection(circuit):
    """Reference: project the evolved pair state on each outcome combination in turn."""
    loops = circuit.loop_labels
    state = evolve(cs.pair_out_state(circuit), circuit)
    table = {}
    for combo in itertools.product(cs.engine.PAIR_LABELS, repeat=len(loops)):
        surv = state
        for label, outcome in zip(loops, combo):
            bra = PureState(cs.engine.PAIR_BASIS[outcome], (label + ".ref", label))
            surv = project(surv, bra)
        table[",".join(combo)] = surv
    return table


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 3))
def test_history_tensor_matches_per_eigenstate_evolution(seed, n_loops, n_ext):
    circuit = random_circuit(seed, n_loops, n_ext)
    histories, d = cs.engine.loop_histories(circuit)
    reference = histories_by_evolution(circuit)
    assert d == 2**n_loops
    assert histories.keys() == reference.keys()
    for key, ref in reference.items():
        assert histories[key].labels == ref.labels
        assert np.max(np.abs(histories[key].amps - ref.amps)) <= 1e-12
    table = cs.projection_table(circuit)
    table_ref = table_by_projection(circuit)
    # the weights resolve the identity exactly when every gate is unitary
    total = 1.0 if all(g.unitary for g in circuit.gates) else \
        sum(np.linalg.norm(ref.amps)**2 for ref in table_ref.values())
    assert table.total_weight == pytest.approx(total, abs=1e-12)
    assert len(table.amps) == len(table_ref) == 4**n_loops
    for label, row, weight in zip(table.labels, table.amps, table.weights):
        ref = table_ref[label]
        assert ref.labels == circuit.external_labels  # the rows' qubit order
        assert np.max(np.abs(row - ref.amps)) <= 1e-12
        assert weight == pytest.approx(np.linalg.norm(ref.amps)**2, abs=1e-12)


@pytest.mark.parametrize("m", range(1, 8))
def test_the_history_tensor_cancels_the_pair_amplitude_exactly(m):
    # with no gate, history i -> i is the external |0> with amplitude exactly 1
    circuit = build_circuit([Channel("l%d" % i, looped=True) for i in range(m)])
    histories, d = cs.engine.loop_histories(circuit)
    assert np.array_equal([histories[i, i].amps for i in range(d)], np.ones((2**m, 1)))


@pytest.mark.parametrize("seed", range(16))
def test_pair_table_weights_are_the_row_sums_and_rows_match_the_unitary_reference(seed):
    circuit = random_circuit(seed, 1 + seed % 4, seed % 6)
    table = cs.projection_table(circuit)
    # the weights are summed over the externals, not along each row: pin them by value
    sums = np.array([math.fsum(row) for row in table.amps.real**2 + table.amps.imag**2])
    assert np.all(np.abs(table.weights - sums) <= 4 * np.spacing(sums))
    assert table.total_weight == float(table.weights.sum())
    for label, row in pair_rows_by_histories(histories_by_unitary(circuit)).items():
        assert np.max(np.abs(table.amps[table.labels.index(label)] - row)) <= 1e-12, label


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(0, 2),
       st.floats(0.05, 1.0), st.floats(0.05, 0.95))
def test_mixture_models_match_loop_references(seed, n_loops, n_ext, lam, k):
    circuit = random_circuit(seed, n_loops, n_ext)
    d = 2**n_loops
    table = table_by_projection(circuit)
    noisy = [math.prod(1 - 0.75 * lam if outcome == "B" else 0.25 * lam
                       for outcome in label.split(",")) for label in table]
    histories = histories_by_evolution(circuit)
    flips = [bin(i ^ j).count("1") for i, j in histories]
    same = [float(i == j) for i, j in histories]
    cases = [
        (cs.run_noisy_bell(circuit, lam), table.values(), noisy),
        (cs.run_classical(circuit, k), histories.values(),
         [(1 - k) ** (n_loops - f) * k**f for f in flips]),
        (cs.run_classical(circuit, k, floor=True), histories.values(),
         [(1 - k) * s + k / d for s in same]),
        (cs.run_weight_matrix(circuit, "flat"), histories.values(), [1 / d] * d * d),
        (cs.run_weight_matrix(circuit, "quad"), histories.values(),
         [(2 * s + 1) / (d + 2) for s in same]),
    ]
    for result, states, weights in cases:
        num = outer_sum([state.amps for state in states], weights)
        z = np.trace(num).real
        assert result.z == pytest.approx(z, rel=1e-12, abs=1e-14)
        assert np.max(np.abs(result.rho.mat - num / z)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_exact_model_matches_p_ctc_trace_formula(seed, data):
    n_channels = data.draw(st.integers(1, 7))
    n_loops = data.draw(st.integers(1, n_channels))
    circuit = random_circuit(seed, n_loops, n_channels - n_loops)
    psi = p_ctc_output(circuit)
    n_ref = np.linalg.norm(psi)
    assume(not 1e-14 < n_ref < 1e-9)
    if n_ref <= 1e-14:
        with pytest.raises(cs.ParadoxError):
            cs.run_exact_bell(circuit)
        return
    r = cs.run_exact_bell(circuit)
    assert r.n == pytest.approx(n_ref, abs=1e-12)
    unit = psi / n_ref
    assert np.max(np.abs(r.rho.mat - np.outer(unit, unit.conj()))) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_delta_model_matches_per_node_integral_of_compiled_unitary(seed, n_ext):
    circuit = random_circuit(seed, 1, n_ext)
    z, rho, rho_loop = delta_by_node(histories_by_unitary(circuit), 7, 9)
    r = cs.run_delta_quadrature(circuit)
    assert r.z == pytest.approx(z, rel=1e-12)
    assert np.max(np.abs(r.rho.mat - rho)) <= 1e-12
    assert np.max(np.abs(r.rho_loop.mat - rho_loop)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(0, 2),
       st.floats(0.05, 1.0))
def test_noisy_model_matches_werner_projection_of_density_matrix(seed, n_loops, n_ext, lam):
    circuit = random_circuit(seed, n_loops, n_ext)
    z, rho = noisy_by_density_matrix(circuit, lam)
    r = cs.run_noisy_bell(circuit, lam)
    assert r.z == pytest.approx(z, rel=1e-12, abs=1e-14)
    assert np.max(np.abs(r.rho.mat - rho)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 2), st.floats(0.0, 1.0))
def test_noisy_model_matches_depolarized_reference_qubits(seed, n_loops, n_ext, lam):
    """The paper's second noise route: decohere the reserve bit, then post-select on B."""
    circuit = random_circuit(seed, n_loops, n_ext)
    z, rho = decohered_reference_run(circuit, lam)
    assume(z > 1e-9)
    r = cs.run_noisy_bell(circuit, lam)
    assert r.z == pytest.approx(z, rel=1e-12, abs=1e-14)
    assert np.max(np.abs(r.rho.mat - rho)) <= 1e-10


def conjugate_loop(circuit, label, v):
    """The circuit with V on loop `label` before every gate and V^dagger after."""
    gates = ((make_gate("CUSTOM", (label,), matrix=v),) + circuit.gates
             + (make_gate("CUSTOM", (label,), matrix=v.conj().T),))
    return build_circuit(circuit.channels, gates)


@pytest.mark.parametrize("seed", range(4))
def test_conjugating_a_loop_wire_changes_only_the_classical_model(seed):
    # the exact, noisy and flat models trace the loop out, and a partial
    # trace does not depend on the loop's basis; the classical model flips
    # bits of the computational basis, so V moves its Z
    circuit = random_circuit(seed, 2, 2)
    conjugated = conjugate_loop(circuit, "t0", haar_unitary(np.random.default_rng(seed)))
    for model in (cs.ExactBell(), cs.NoisyBell(0.3), cs.WeightMatrix("flat")):
        before, after = model.run(circuit), model.run(conjugated)
        assert abs(after.z - before.z) <= 1e-12, model
        assert np.max(np.abs(after.rho.mat - before.rho.mat)) <= 1e-12, model
    classical = cs.Classical(0.2)
    assert abs(classical.run(conjugated).z - classical.run(circuit).z) > 1e-3


def in_label_order(op, labels):
    """The matrix of a density operator with its qubits reordered to `labels`."""
    n = len(labels)
    order = [op.labels.index(label) for label in labels]
    mat = np.asarray(op.mat).reshape((2,) * (2 * n))
    return mat.transpose(order + [n + q for q in order]).reshape(2**n, 2**n)


PERMUTATION_MODELS = [cs.ExactBell(), cs.NoisyBell(0.3), cs.Classical(0.2),
                      cs.Classical(0.2, floor=True), cs.WeightMatrix("flat"),
                      cs.WeightMatrix("quad"), cs.WeightMatrix("delta")]


@pytest.mark.parametrize("seed, n_loops", [(0, 1), (1, 2), (2, 2), (3, 3)])
def test_declaring_the_channels_in_reverse_only_permutes_the_labels(seed, n_loops):
    circuit = random_circuit(seed, n_loops, 5 - n_loops)
    reversed_ = build_circuit(circuit.channels[::-1], circuit.gates)
    models = PERMUTATION_MODELS + [cs.DeltaQuadrature()] * (n_loops == 1)
    for model in models:
        before, after = model.run(circuit), model.run(reversed_)
        assert after.z == pytest.approx(before.z, rel=1e-12), model
        for name in ("rho", "rho_loop"):
            op, permuted = getattr(before, name), getattr(after, name)
            if op is None:
                continue
            assert permuted.labels == op.labels[::-1], (model, name)
            assert np.max(np.abs(in_label_order(permuted, op.labels) - op.mat)) <= 1e-12, \
                (model, name)


# input states in declaration order --------------------------------------------


def out_of_order_circuit(seed, n_loops):
    """A random circuit whose entangled group is declared reversed and not adjacent.

    Of the externals, declared first, middle and last, the group runs (last,
    first) and the middle one keeps its own init.  Also returns the external
    register in declaration order, built by hand.
    """
    base = random_circuit(seed, n_loops, 3)
    first, middle, last = base.external_labels
    rng = np.random.default_rng(seed + 1)
    g = rng.normal(size=4) + 1j * rng.normal(size=4)
    g /= np.linalg.norm(g)
    channels = [Channel(c.label) if c.label in (first, last) else c for c in base.channels]
    circuit = build_circuit(channels, base.gates, entangled=[((last, first), g)])
    ext = np.einsum("lf,m->fml", g.reshape(2, 2), base.channel(middle).init)
    return circuit, ext.reshape(-1)


@pytest.mark.parametrize("seed, n_loops", [(0, 1), (1, 1), (2, 2), (3, 2)])
def test_out_of_order_entangled_groups_match_the_unitary_reference(seed, n_loops):
    circuit, ext = out_of_order_circuit(seed, n_loops)
    a = histories_by_unitary(circuit, ext)
    models = PERMUTATION_MODELS + [cs.DeltaQuadrature()] * (n_loops == 1)
    for model in models:
        num = model_num_by_histories(model, a)
        z = np.trace(num).real
        r = model.run(circuit)
        assert r.z == pytest.approx(z, rel=1e-12), model
        assert r.rho.labels == circuit.external_labels, model
        assert np.max(np.abs(r.rho.mat - num / z)) <= 1e-12, model
    table = cs.projection_table(circuit)
    for label, row in pair_rows_by_histories(a).items():
        assert row.shape == (2 ** len(circuit.external_labels),)
        assert np.max(np.abs(table.amps[table.labels.index(label)] - row)) <= 1e-12, label
    histories = cs.run_classical(circuit, 0.2).projections
    d = len(a)
    for i, j in itertools.product(range(d), repeat=2):
        row = histories.amps[histories.labels.index("%d|%d" % (i, j))]
        assert row.shape == (2 ** len(circuit.external_labels),)
        assert np.max(np.abs(row - a[i, j])) <= 1e-12, (i, j)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 3), st.floats(0.0, 1.0))
def test_history_models_match_the_unitary_reference_on_random_circuits(seed, n_loops, n_ext,
                                                                       k):
    circuit = random_circuit(seed, n_loops, n_ext)
    a = histories_by_unitary(circuit)
    d = len(a)
    norms = (abs(a) ** 2).sum(axis=2)
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, 1.0, (d, d)) * (rng.uniform(size=(d, d)) < 0.7)
    omega[rng.integers(d), rng.integers(d)] += 0.5  # some weight survives the zeros
    flip = functools.reduce(np.kron, [np.array([[1 - k, k], [k, 1 - k]])] * n_loops)
    models = [(cs.WeightMatrix(omega), omega * (d / omega.sum())), (cs.Classical(k), flip),
              (cs.Classical(k, floor=True), (1 - k) * np.eye(d) + k / d)]
    for model, w in models:
        num = outer_sum(a.reshape(d * d, -1), w.reshape(-1))
        z = np.trace(num).real
        if z < 1e-12:  # e.g. k = 1 with a loop no gate touches: no history survives
            with pytest.raises(cs.ParadoxError):
                model.run(circuit)
            continue
        r = model.run(circuit)
        assert r.z == pytest.approx(z, rel=1e-12, abs=1e-12), r.model
        assert np.max(np.abs(r.rho.mat - num / z)) <= 1e-12, r.model
        if r.rho_loop is not None:  # the classical register: the emerging history weights
            assert np.max(np.abs(r.rho_loop.mat - np.diag((w * norms).sum(axis=1)) / z)) \
                <= 1e-12, r.model


def test_loop_only_circuits_report_rho_exactly_one():
    rot = build_circuit([Channel("tm", looped=True)],
                        [make_gate("ROT", ("tm",), params=(0.3,))])
    gun = cs.build_scenario("grandfather_not").circuit  # a paradox under the exact model
    runs = [(rot, m) for m in LOOP_MODELS] + [(gun, m) for m in LOOP_MODELS[1:]]
    for circuit, model in runs:
        rho = model.run(circuit).rho
        assert rho.labels == () and rho.mat.tolist() == [[1.0]], model


def test_exact_paradox_carries_the_full_projection_table():
    circuit = cs.build_scenario("grandfather_not").circuit
    with pytest.raises(cs.ParadoxError) as info:
        cs.run_exact_bell(circuit)
    table = info.value.projections
    assert len(table.amps) == 4 ** len(circuit.loop_labels)
    assert table.weights[table.labels.index("N")] == pytest.approx(1.0, abs=1e-12)
    assert table.total_weight == pytest.approx(1.0, abs=1e-12)


# (1/sqrt(2))^2 rounds up to 0.5 + 2^-53, and the surviving row adds two of them
SURVIVOR = 1 + 2**-52


@pytest.mark.parametrize("name, table", [
    ("grandfather_pf", [[0], [SURVIVOR], [0], [0]]),
    ("grandfather_not", [[0], [0], [SURVIVOR], [0]]),
])
def test_a_one_row_pair_table_is_exact(name, table):
    # with no external, each pair-basis row is one product: the cancelled rows are exactly 0
    amps = cs.projection_table(cs.build_scenario(name).circuit).amps
    assert amps.shape == (4, 1) and np.array_equal(amps, table)


def test_the_grandfather_paradox_has_exactly_no_matched_amplitude():
    with pytest.raises(cs.ParadoxError) as info:
        cs.run_exact_bell(cs.build_scenario("grandfather_pf").circuit)
    assert str(info.value).startswith("matched-pair amplitude 0.000e+00 below tolerance")
    assert np.linalg.norm(info.value.projections.amps[0]) == 0.0  # N


@settings(max_examples=25, deadline=None)
@given(angle(), angle(), angle())
def test_noisy_bell_converges_to_exact(a, b, c):
    circuit = loop_with_rotations(a, b, c)
    try:
        exact = cs.run_exact_bell(circuit)
    except cs.ParadoxError:
        return
    if exact.z < 0.01:
        return
    noisy = cs.run_noisy_bell(circuit, 1e-9)
    assert noisy.z == pytest.approx(exact.z, abs=1e-8)
    assert np.allclose(noisy.rho.mat, exact.rho.mat, atol=1e-7)


def test_noisy_bell_at_zero_equals_exact():
    circuit = loop_with_rotations(0.4, 0.9, 1.3)
    exact = cs.run_exact_bell(circuit)
    noisy = cs.run_noisy_bell(circuit, 0.0)
    assert noisy.z == pytest.approx(exact.z, abs=1e-14)


@pytest.mark.parametrize("n_loops", [1, 2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_models_sharing_a_contraction_agree(seed, n_loops):
    """Settings that reduce to the same weights give the same numbers.

    classical(k=1/2) and the flat weight matrix both weigh every history 1/d;
    classical(k=0), with or without the floor, and (from two loops on) the
    delta weight matrix weigh the diagonal histories 1, and quad mixes delta
    and flat; noisy_bell(0) keeps only the matched row, and weighs the other
    4^m - 1 rows by 0.  A setting is a paradox exactly when its partner is.
    """
    circuit = random_circuit(seed, n_loops, seed % 4)

    def run(fn, *args, **kwargs):
        try:
            return fn(circuit, *args, **kwargs)
        except cs.ParadoxError:  # e.g. an X on a loop: no consistent history survives
            return None

    def same(r, s):
        assert (r is None) == (s is None)
        if r is not None:
            assert r.z == s.z
            assert np.array_equal(r.rho.mat, s.rho.mat)

    flat = cs.run_weight_matrix(circuit, "flat")
    same(cs.run_classical(circuit, 0.5), flat)
    sharp = run(cs.run_classical, 0.0)
    floored = run(cs.run_classical, 0.0, floor=True)
    same(floored, sharp)
    if sharp is not None:
        assert np.array_equal(floored.rho_loop.mat, sharp.rho_loop.mat)
    if n_loops >= 2:
        delta, quad = run(cs.run_weight_matrix, "delta"), cs.run_weight_matrix(circuit, "quad")
        same(sharp, delta)
        d = 2**n_loops
        delta_num = 0.0 if delta is None else delta.z * delta.rho.mat
        mix = (2 * delta_num + d * flat.z * flat.rho.mat) / (d + 2)
        # rounding of entries of up to the delta Z (2.0 at seed 6)
        scale = max(1.0, 0.0 if delta is None else delta.z)
        assert np.abs(quad.z * quad.rho.mat - mix).max() <= 4.4e-16 * scale
    exact, noisy = run(cs.run_exact_bell), run(cs.run_noisy_bell, 0.0)
    assert (exact is None) == (noisy is None)
    if exact is not None:
        assert abs(noisy.z - exact.z) <= 2.2e-16
        assert np.abs(noisy.rho.mat - exact.rho.mat).max() <= 2.2e-16
    # noisy_bell(1) weighs each of the 4^m pair outcomes 1/4^m, classical(1/2) each of
    # the d^2 histories 1/d: both are the evolved state traced over the pair register,
    # 4^m apart.  Z is 1 for these unitary circuits; the bounds are 8 and 2 ulp
    wide, unskewed = cs.run_noisy_bell(circuit, 1.0), cs.run_classical(circuit, 0.5)
    eps = np.finfo(float).eps
    assert abs(4**n_loops * wide.z - unskewed.z) <= 8 * eps * max(1.0, unskewed.z)
    assert np.abs(wide.rho.mat - unskewed.rho.mat).max() <= 2 * eps


def _exactly_hermitian(op):
    return np.array_equal(op.mat, op.mat.conj().T)


# one descriptor of each model; the delta model integrates one loop only
HERMITIAN_RUNS = [(model, n_loops) for model in (
    cs.ExactBell(), cs.NoisyBell(0.3), cs.Classical(0.3), cs.Classical(0.3, floor=True),
    cs.WeightMatrix("quad"), cs.DeltaQuadrature()) for n_loops in (1, 2, 3)
    if n_loops == 1 or not isinstance(model, cs.DeltaQuadrature)]


# externals of the seeds past 5, which have 1 to 3 (one tile of the finish's
# symmetrization): 4 x 4 and 8 x 8 tiles, which run its off-diagonal branch
WIDE_SEEDS = {6: 8, 7: 9}


@pytest.mark.parametrize("model, n_loops", HERMITIAN_RUNS,
                         ids=["%s-%d" % (model.name, m) for model, m in HERMITIAN_RUNS])
@pytest.mark.parametrize("seed", range(8))
def test_every_reported_rho_is_exactly_hermitian(model, n_loops, seed):
    # the one finish adds each entry of the product to the conjugate of its mirror,
    # tile by tile, and scales the sum by one real factor, so no entry differs from
    # the conjugate of its mirror and the diagonal is real
    n_ext = WIDE_SEEDS.get(seed, 1 + seed % 3)
    n_loops = min(n_loops, (cs.states.MAX_QUBITS - n_ext) // 2)  # the pairs fit the dense cap
    try:
        r = model.run(random_circuit(seed, n_loops, n_ext))
    except cs.ParadoxError:  # e.g. an X on a loop: no consistent history survives
        return
    assert _exactly_hermitian(r.rho)
    assert r.rho_loop is None or _exactly_hermitian(r.rho_loop)


@pytest.mark.parametrize("mode", ["coupled", "insulated"])
@pytest.mark.parametrize("seed", range(8))
def test_a_conditional_rho_is_exactly_hermitian(seed, mode):
    deselect = (("e1",), [0.6, 0.8j])
    circuit = random_circuit(seed, 0, WIDE_SEEDS.get(seed, 3))
    r = cs.run_conditional(circuit, [("e0", seed % 2)], deselect, mode)
    assert _exactly_hermitian(r.rho)


@pytest.mark.parametrize("z", [1.0, 0.37, 3e-5, 2.0**40])
@pytest.mark.parametrize("side", [64, 256, 512])
def test_the_tiled_finish_is_the_whole_array_formula_bit_for_bit(side, z):
    rng = np.random.default_rng(side)
    a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    i, j = np.nonzero(np.triu(rng.random((side, side)) < 0.25, 1))
    a.imag[j, i] = a.imag[i, j]  # a quarter of the mirror pairs tie their imaginary parts
    want = (a + a.conj().T) / 2 / z
    got = cs.engine._hermitian(a.copy(), z)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # the signs of zeros too: a tie sums to +0


@pytest.mark.parametrize("scale", [1.0, 1.1, 1.2, 1.3])
@pytest.mark.parametrize("model", [
    cs.ExactBell(), cs.NoisyBell(0.3), cs.Classical(0.3), cs.Classical(0.3, floor=True),
    cs.WeightMatrix("flat"), cs.WeightMatrix("quad"), cs.DeltaQuadrature()],
    ids=lambda model: "-".join(map(str, model.describe().values())))
def test_a_finish_that_would_overflow_is_a_numerics_error(model, scale):
    # Z = scale^2 * 1e308 is finite, but an entry added to its mirror is not
    circuit = build_circuit([Channel("t", looped=True), Channel("e")],
                            [make_gate("CUSTOM", ["e"], matrix=scale * 1e154 * np.eye(2))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        try:
            r = model.run(circuit)
        except cs.NumericsError:
            return
    assert not isinstance(model, cs.WeightMatrix) or model.omega != "flat"
    assert np.isfinite(r.rho.mat).all()
    assert r.rho_loop is None or np.isfinite(r.rho_loop.mat).all()


@settings(max_examples=20, deadline=None)
@given(angle(), angle())
def test_global_pair_phase_drops_out(a, b):
    """Re-phasing a boundary pair leaves every reported quantity unchanged."""
    circuit = loop_with_rotations(a, b, 0.7)
    base = cs.run_exact_bell(
        circuit, pair_states={"tm": np.array([SQ2, 0, 0, SQ2])}
    )
    phased = cs.run_exact_bell(
        circuit, pair_states={"tm": np.exp(0.9j) * np.array([SQ2, 0, 0, SQ2])}
    )
    assert phased.n == pytest.approx(base.n, abs=1e-12)
    assert np.allclose(phased.rho.mat, base.rho.mat, atol=1e-12)


def test_custom_pair_state_changes_selection():
    circuit = build_circuit(
        [Channel("tm", looped=True)], [make_gate("Z", ("tm",))]
    )
    with pytest.raises(cs.ParadoxError):
        cs.run_exact_bell(circuit)
    # an unentangled boundary pair pinned to |00> accepts the phase flip
    pinned = cs.run_exact_bell(
        circuit, pair_states={"tm": np.array([1.0, 0, 0, 0.0])}
    )
    assert pinned.n == pytest.approx(1.0)


def test_a_custom_pair_paradox_carries_its_pair_table():
    # a Bell pair given as a custom pair still fails on an X loop, and tables it
    circuit = build_circuit([Channel("tm", looped=True)], [make_gate("X", ("tm",))])
    with pytest.raises(cs.ParadoxError) as info:
        cs.run_exact_bell(circuit, pair_states={"tm": [SQ2, 0, 0, SQ2]})
    table = info.value.projections
    assert list(table.labels) == ["B", "-", "N", "-N"]
    assert np.allclose(table.weights, [0, 0, 1, 0], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 3))
def test_custom_pairs_match_the_unitary_reference(seed, n_loops, n_ext):
    """Entangled, product and re-phased pairs on some loops; the rest stay |B>."""
    circuit = random_circuit(seed, n_loops, n_ext)
    rng = np.random.default_rng(seed + 1)
    kinds = rng.integers(0, 4, size=n_loops)
    kinds[rng.integers(n_loops)] = rng.integers(1, 4)  # at least one custom pair
    pairs = {}
    for label, kind in zip(circuit.loop_labels, kinds):
        if kind == 1:  # entangled, generic
            chi = rng.normal(size=4) + 1j * rng.normal(size=4)
        elif kind == 2:  # product
            chi = np.kron(rng.normal(size=2) + 1j * rng.normal(size=2),
                          rng.normal(size=2) + 1j * rng.normal(size=2))
        elif kind == 3:  # re-phased Bell pair
            chi = np.exp(1j * rng.uniform(0, 2 * math.pi)) * np.array([SQ2, 0, 0, SQ2])
        else:
            continue
        pairs[label] = chi / np.linalg.norm(chi)
    psi = exact_with_pairs_by_unitary(circuit, pairs)
    n = np.linalg.norm(psi)
    assume(n > 1e-6)
    runs = (cs.run_exact_bell(circuit, pair_states=pairs),
            cs.ExactBell().run(circuit, pair_states=pairs))
    for r in runs:
        assert r.projections is None
        assert abs(r.n - n) <= 1e-12
        assert np.max(np.abs(r.rho.mat - np.outer(psi, psi.conj()) / n**2)) <= 1e-12
        # one evolution and one contraction: the two routes agree bit for bit
        assert r.n == runs[0].n and np.array_equal(r.rho.mat, runs[0].rho.mat)


# calls that would put a reference on the engine's own code path
ENGINE_CALLS = {"run", "evolve", "project", "apply_gates", "initial_external_state",
                "projection_table", "loop_histories"}


def test_the_references_share_no_code_path_with_the_engine():
    tree = ast.parse(pathlib.Path(__file__).with_name("oracles.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = [alias.name for alias in node.names]
            found += [module] * module.startswith("ctcsim.")
            found += [n for n in names if n.startswith(("ctcsim.", "_"))]
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found += [name] * (name in ENGINE_CALLS)
    assert found == []


BAD_PARAMETERS = [
    (lambda c: cs.run_weight_matrix(c, "nope"), "unknown weight-matrix built-in"),
    (lambda c: cs.run_weight_matrix(c, [[1.0, 2.0], [3.0]]), "must be real numbers"),
    (lambda c: cs.run_weight_matrix(c, [[1.0, -1.0], [1.0, 1.0]]), "nonnegative"),
    (lambda c: cs.run_weight_matrix(c, np.ones((4, 4))), "must be 2 x 2"),
    (lambda c: cs.run_weight_matrix(c, [[1j, 0], [0, 1]]), "must be real numbers"),
    (lambda c: cs.run_weight_matrix(c, np.zeros((2, 2))), "positive total weight"),
    (lambda c: cs.run_noisy_bell(c, 1.5), "lam must lie in"),
    (lambda c: cs.run_classical(c, -0.1), "k must lie in"),
    (lambda c: cs.WeightMatrix("nope").run(c), "unknown weight-matrix built-in"),
    (lambda c: cs.NoisyBell("abc").run(c), "lam must be a real number"),
    (lambda c: cs.Classical(2.0, floor=True).run(c), "k must lie in"),
    (lambda c: cs.Classical(0.3, "no").run(c), "^floor must be true or false, got 'no'$"),
    (lambda c: cs.run_delta_quadrature(c, tol=-1.0), "tolerance -1.0 is not a finite positive"),
    (lambda c: cs.DeltaQuadrature().run(c, tol=math.nan), "tolerance nan is not a finite"),
    (lambda c: cs.run_exact_bell(c, pair_states="tm"), "pair_states must be a mapping, got 'tm'"),
    (lambda c: cs.run_exact_bell(c, pair_states=["tm"]),
     re.escape("pair_states must be a mapping, got ['tm']")),
    (lambda c: cs.run_exact_bell(c, pair_states={"nope": [SQ2, 0, 0, SQ2]}),
     "pair_states key 'nope' names no looped channel"),
    (lambda c: cs.run_exact_bell(c, pair_states={"tm": [SQ2, 0, 0, SQ2], "sys": [1, 0, 0, 0]}),
     "pair_states key 'sys' names no looped channel"),
    (lambda c: cs.ExactBell().run(c, pair_states="tm"), "pair_states must be a mapping, got 'tm'"),
    (lambda c: cs.ExactBell().run(c, pair_states=["tm"]),
     re.escape("pair_states must be a mapping, got ['tm']")),
    (lambda c: cs.ExactBell().run(c, pair_states={"nope": [SQ2, 0, 0, SQ2]}),
     "pair_states key 'nope' names no looped channel"),
    (lambda c: cs.ExactBell().run(c, pair_states={"tm": [SQ2, 0, 0, SQ2], "sys": [1, 0, 0, 0]}),
     "pair_states key 'sys' names no looped channel"),
]


@pytest.mark.parametrize("call, message", BAD_PARAMETERS, ids=[
    "omega_name", "omega_ragged", "omega_negative", "omega_shape", "omega_complex", "omega_zero",
    "lam", "k", "descriptor_omega", "descriptor_lam", "descriptor_k", "descriptor_floor",
    "delta_tolerance", "descriptor_delta_tolerance",
    "pairs_text", "pairs_list", "pairs_unknown_key", "pairs_external_key",
    "descriptor_pairs_text", "descriptor_pairs_list", "descriptor_pairs_unknown_key",
    "descriptor_pairs_external_key"])
def test_a_bad_model_parameter_costs_no_evolution(call, message, monkeypatch):
    circuit = cs.build_scenario("simple_loop").circuit
    calls = []
    monkeypatch.setattr(cs.engine, "evolve", lambda *args: calls.append(args))
    with pytest.raises(cs.ConfigError, match=message):
        call(circuit)
    assert calls == []


def test_no_loop_raises():
    circuit = build_circuit([Channel("a", init=(1.0, 0.0))])
    with pytest.raises(cs.NoCtcError):
        cs.run_exact_bell(circuit)


@pytest.mark.parametrize("model, options", [
    (cs.ExactBell(), {"pair_states": "x"}), (cs.NoisyBell(2.0), {}), (cs.Classical("x"), {}),
    (cs.WeightMatrix("nope"), {}), (cs.DeltaQuadrature(), {}),
], ids=["exact", "noisy", "classical", "weight_matrix", "delta"])
def test_a_loop_model_reports_a_loop_free_circuit_before_its_parameters(model, options,
                                                                        monkeypatch):
    circuit = cs.build_scenario("tourist_trap").circuit
    calls = []
    monkeypatch.setattr(cs.engine, "evolve", lambda *args: calls.append(args))
    with pytest.raises(cs.NoCtcError, match="^circuit has no looped channel$"):
        model.run(circuit, **options)
    assert calls == []


def test_a_loop_free_circuit_is_the_m0_case_of_the_evolution():
    # no reference pair: the start state and the one evolution are the external register
    circuit = cs.build_scenario("tourist_trap").circuit
    ext = circuit.initial_external_state()
    evolved = evolve(ext, circuit).amps
    start = cs.pair_out_state(circuit)
    assert start.labels == ext.labels == circuit.external_labels
    np.testing.assert_allclose(start.amps, ext.amps, rtol=0, atol=1e-15)
    table = cs.projection_table(circuit)
    assert table.labels == ("",)
    assert table.channel_order == ()
    np.testing.assert_allclose(table.amps, evolved[None], rtol=0, atol=1e-15)
    assert table.total_weight == pytest.approx(1.0, abs=1e-12)
    histories, d = cs.engine.loop_histories(circuit)
    assert d == 1
    assert list(histories) == [(0, 0)]
    assert histories[(0, 0)].labels == circuit.external_labels
    np.testing.assert_allclose(histories[(0, 0)].amps, evolved, rtol=0, atol=1e-15)


def test_a_second_conditional_run_reuses_the_evolution(monkeypatch):
    circuit = cs.build_scenario("tourist_trap").circuit
    calls, plain = [], cs.engine.evolve

    def counted(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(cs.engine, "evolve", counted)
    condition, deselect = [("m1", 0), ("m2", 0)], (("m3",), [1.0, 0.0])
    coupled = cs.run_conditional(circuit, condition, deselect, "coupled")
    insulated = cs.run_conditional(circuit, condition, deselect, "insulated")
    assert len(calls) == 1
    assert coupled.metadata["branch_weight_on"] == insulated.metadata["branch_weight_on"]


def test_bad_noise_parameter_rejected():
    circuit = loop_with_rotations(0.1, 0.2, 0.3)
    with pytest.raises(cs.ConfigError):
        cs.run_noisy_bell(circuit, 1.5)
    with pytest.raises(cs.ConfigError):
        cs.run_classical(circuit, -0.1)


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("CTC_SIM_TOLERANCE", "2.0")
    circuit = loop_with_rotations(0.0, 0.0, 0.0)
    with pytest.raises(cs.ParadoxError):
        cs.run_exact_bell(circuit)
    monkeypatch.delenv("CTC_SIM_TOLERANCE")
    assert cs.run_exact_bell(circuit).n == pytest.approx(1.0)


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_tolerance_env_must_be_finite_and_positive(monkeypatch, value):
    """A tolerance that would switch the paradox check off is a config error."""
    monkeypatch.setenv("CTC_SIM_TOLERANCE", value)
    with pytest.raises(cs.ConfigError):
        cs.run_exact_bell(cs.build_scenario("grandfather_not").circuit)


LOOP_MODELS = [cs.ExactBell(), cs.NoisyBell(0.2), cs.Classical(0.2), cs.WeightMatrix(),
               cs.DeltaQuadrature()]
MODEL_NAMES = [m.name for m in LOOP_MODELS]


@pytest.mark.parametrize("model", LOOP_MODELS, ids=MODEL_NAMES)
@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), "abc",
                                 pytest.param(10**400, id="int_1e400")])
def test_tolerance_argument_must_be_finite_and_positive(tol, model):
    with pytest.raises(cs.ConfigError):
        model.run(cs.build_scenario("grandfather_not").circuit, tol=tol)


@pytest.mark.parametrize("model, message, entries", zip(LOOP_MODELS, [
    "matched-pair amplitude 0.000e+00 below tolerance 1.000e-12: no consistent history",
    "acceptance rate 0.000e+00 below tolerance",
    "classical acceptance rate 0.000e+00 below tolerance",
    "weighted acceptance rate 0.000e+00 below tolerance",
    "quadrature acceptance rate 0.000e+00 below tolerance",
], [4] * len(LOOP_MODELS)), ids=MODEL_NAMES)
def test_each_model_words_its_own_paradox(model, message, entries):
    # a zero gate on the loop leaves no amplitude in any outcome or history
    circuit = build_circuit([Channel("tm", looped=True), Channel("ex")],
                            [make_gate("CUSTOM", ("tm",), matrix=np.zeros((2, 2)))])
    with pytest.raises(cs.ParadoxError) as info:
        model.run(circuit)
    assert str(info.value) == message
    table = info.value.projections
    assert (None if table is None else len(table.amps)) == entries


def _grandfather_with_externals():
    # the loop sees X times a phase: no consistent history, but a nonzero table
    return build_circuit(
        [Channel("tm", looped=True), Channel("ex", init=(0.6, 0.8)), Channel("aux")],
        [make_gate("ROT", ("ex",), params=(0.3,)), make_gate("X", ("tm",)),
         make_gate("CPHASE", ("ex", "tm"), params=(0.7,)), make_gate("CX", ("ex", "aux"))])


@pytest.mark.parametrize("model", [
    cs.ExactBell(), cs.NoisyBell(0.0), cs.Classical(0.0), cs.Classical(0.0, floor=True),
    cs.WeightMatrix([[1.0, 0.0], [0.0, 1.0]]), cs.DeltaQuadrature(),
], ids=lambda m: repr(m))
def test_every_loop_model_tables_its_paradox_from_its_own_evolution(model):
    if isinstance(model, cs.DeltaQuadrature):  # only an all-zero history set defeats it
        circuit = build_circuit([Channel("tm", looped=True), Channel("ex", init="+")],
                                [make_gate("CUSTOM", ("tm",), matrix=np.zeros((2, 2)))])
    else:
        circuit = _grandfather_with_externals()
    with pytest.raises(cs.ParadoxError) as info:
        model.run(circuit)
    got, want = info.value.projections, cs.projection_table(circuit)
    assert got.labels == want.labels
    assert got.channel_order == want.channel_order
    assert got.amps.tobytes() == want.amps.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


# pickling -------------------------------------------------------------------


# one descriptor of every model type, Classical with and without its floor
PICKLED_MODELS = [cs.ExactBell(), cs.NoisyBell(0.3), cs.Classical(0.3),
                  cs.Classical(0.3, floor=True), cs.WeightMatrix("quad"), cs.DeltaQuadrature()]
GRANDFATHER_PARADOXES = [cs.ExactBell(), cs.NoisyBell(0.0), cs.Classical(0.0),
                         cs.Classical(0.0, floor=True), cs.WeightMatrix([[1, 0], [0, 1]])]


def _raised(run):
    with pytest.raises(cs.ParadoxError) as info:
        run()
    return info.value


# (scenario, model): every model type's run, the paradox of each loop model that has one on
# grandfather_not, and run_conditional in each mode
PICKLED = ([("cnot_gun", model) for model in PICKLED_MODELS]
           + [("grandfather_not", model) for model in GRANDFATHER_PARADOXES]
           + [("conditional", mode) for mode in ("coupled", "insulated")])


def _same_table(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got.amps.tobytes() == want.amps.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.labels == want.labels and got.channel_order == want.channel_order


def test_pickling_covers_every_model_type():
    assert {type(model) for model in PICKLED_MODELS} == set(cs.engine.MODELS.values())


@pytest.mark.parametrize("scenario, model", PICKLED, ids=[
    "%s-%s" % (name, model if isinstance(model, str) else "-".join(
        map(str, model.describe().values()))) for name, model in PICKLED])
def test_results_and_paradoxes_survive_a_pickle_round_trip(scenario, model):
    if scenario == "conditional":
        out = cs.run_conditional(three_plus(), [("m1", 0)], (("m3",), [0.6, 0.8j]), model)
    else:
        try:
            out = model.run(cs.build_scenario(scenario).circuit)
        except cs.ParadoxError as err:
            out = err
        assert isinstance(out, cs.ParadoxError) == (scenario == "grandfather_not")
    twin = pickle.loads(pickle.dumps(out))  # before the labels are first read
    _same_table(twin.projections, out.projections)
    if isinstance(out, cs.ParadoxError):
        assert type(twin) is cs.ParadoxError and str(twin) == str(out)
        return
    assert (twin.model, twin.z, twin.n, twin.metadata) == (out.model, out.z, out.n, out.metadata)
    assert twin.rho.mat.tobytes() == out.rho.mat.tobytes() and twin.rho.labels == out.rho.labels
    assert (twin.rho_loop is None) == (out.rho_loop is None)
    if out.rho_loop is not None:
        assert twin.rho_loop.mat.tobytes() == out.rho_loop.mat.tobytes()


def test_a_process_pool_returns_runs_and_reraises_paradoxes():
    gun, grandfather = cs.build_scenario("cnot_gun").circuit, cs.build_scenario(
        "grandfather_not").circuit
    with concurrent.futures.ProcessPoolExecutor(2) as pool:
        noisy, paradox = pool.submit(cs.run_noisy_bell, gun, 0.2), pool.submit(
            cs.run_exact_bell, grandfather)
        got, err = noisy.result(), _raised(paradox.result)
    want, want_err = cs.run_noisy_bell(gun, 0.2), _raised(lambda: cs.run_exact_bell(grandfather))
    assert got.z == want.z and got.rho.mat.tobytes() == want.rho.mat.tobytes()
    _same_table(got.projections, want.projections)
    assert str(err) == str(want_err)
    _same_table(err.projections, want_err.projections)


# classical channel ----------------------------------------------------------


def cpf_gun(alpha=0.8, beta=0.6):
    return build_circuit(
        [Channel("tm", looped=True), Channel("gun", init=(alpha, beta))],
        [make_gate("CPHASE", ("gun", "tm"), params=(math.pi,))],
    )


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95), angle())
def test_classical_conventions_differ_by_the_floor_weight(k, t):
    """For a diagonal-history circuit the conventions differ only by the
    unconditional reemission weight k."""
    circuit = cpf_gun(math.cos(t), math.sin(t))
    flip = cs.run_classical(circuit, k)
    floor = cs.run_classical(circuit, k, floor=True)
    assert floor.z == pytest.approx(flip.z + k, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(angle(), angle(), angle())
def test_classical_half_is_fully_unskewed(a, b, c):
    """At k = 1/2 the acceptance rate ignores every external input."""
    circuit = loop_with_rotations(a, b, c)
    z0 = cs.run_classical(circuit, 0.5).z
    z1 = cs.run_classical(cs.with_init(circuit, "ex", (0.0, 1.0)), 0.5).z
    assert z1 == pytest.approx(z0, abs=1e-12)


def test_classical_two_qubit_flip_weights_are_products():
    circuit = two_loop_circuit(0.9)
    k = 0.3
    r = cs.run_classical(circuit, k)
    table = r.projections
    weights = {}
    for label in table.labels:
        i, j = (int(x) for x in label.split("|"))
        flips = bin(i ^ j).count("1")
        weights.setdefault(flips, 0.0)
    for label, row, weight in zip(table.labels, table.amps, table.weights):
        i, j = (int(x) for x in label.split("|"))
        if weight > 0:
            flips = bin(i ^ j).count("1")
            hist = np.linalg.norm(row)**2
            assert weight == pytest.approx(
                (1 - k) ** (2 - flips) * k**flips * hist, abs=1e-12
            )


def test_classical_floor_handles_vanishing_diagonal_history():
    circuit = build_circuit(
        [Channel("tm", looped=True), Channel("gun", init=(0.0, 1.0))],
        [make_gate("CX", ("gun", "tm"))],
    )
    k = 0.3
    r = cs.run_classical(circuit, k, floor=True)
    assert r.z == pytest.approx(k, abs=1e-12)
    assert np.allclose(r.rho.mat, np.diag([0.0, 1.0]), atol=1e-12)


def test_classical_paradox_at_zero_noise():
    circuit = build_circuit([Channel("tm", looped=True)], [make_gate("X", ("tm",))])
    with pytest.raises(cs.ParadoxError):
        cs.run_classical(circuit, 0.0)
    assert cs.run_classical(circuit, 0.2).z == pytest.approx(0.4)


# weight matrix --------------------------------------------------------------


def test_weight_matrix_flat_is_uniform_history_average():
    circuit = cpf_gun()
    r = cs.run_weight_matrix(circuit, "flat")
    # histories: diagonal norms 1, off-diagonal 0; flat weight 1/2 each
    assert r.z == pytest.approx(1.0, abs=1e-12)


def test_weight_matrix_custom_is_normalized_to_sum_d():
    circuit = cpf_gun()
    ones = cs.run_weight_matrix(circuit, np.ones((2, 2)))
    flat = cs.run_weight_matrix(circuit, "flat")
    assert ones.z == pytest.approx(flat.z, abs=1e-12)
    pinned = cs.run_weight_matrix(circuit, np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert pinned.z == pytest.approx(2.0, abs=1e-12)


def test_weight_matrix_quad_weights():
    # quad weights (2*delta_ij + 1) / (d + 2)
    circuit = cpf_gun()
    r = cs.run_weight_matrix(circuit, "quad")
    assert r.z == pytest.approx(2 * 0.75, abs=1e-12)


def test_weight_matrix_rejects_negative_entries():
    with pytest.raises(cs.ConfigError):
        cs.run_weight_matrix(cpf_gun(), np.array([[3.0, 0.0], [0.0, -1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_weight_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(cs.ConfigError, match="finite"):
        cs.run_weight_matrix(cpf_gun(), np.array([[1.0, bad], [0.0, 1.0]]))


@pytest.mark.parametrize("entry", [1e308, 5e-324], ids=["huge", "subnormal"])
def test_weight_matrix_normalizes_extreme_entries_exactly(entry):
    circuit = cpf_gun()
    uniform = cs.run_weight_matrix(circuit, [[entry] * 2] * 2)
    assert uniform.z == pytest.approx(cs.run_weight_matrix(circuit, "flat").z, abs=1e-12)
    # normalizing to sum d is exact when the total is a power of two times d
    assert (cs.run_weight_matrix(circuit, [[3.0, 1.0], [1.0, 3.0]]).z
            == cs.run_weight_matrix(circuit, [[0.75, 0.25], [0.25, 0.75]]).z)


# conditional projection -----------------------------------------------------


def three_plus():
    plus = (SQ2, SQ2)
    return build_circuit(
        [Channel("m1", init=plus), Channel("m2", init=plus),
         Channel("m3", init=plus)]
    )


def test_conditional_coupled_renormalizes_globally():
    r = cs.run_conditional(
        three_plus(), [("m1", 0), ("m2", 0)], (("m3",), np.array([1.0, 0.0])),
        "coupled",
    )
    diag = np.real(np.diag(r.rho.mat))
    assert diag[0] == pytest.approx(0.0, abs=1e-12)
    assert diag[1] == pytest.approx(1 / 7, abs=1e-12)
    assert diag[2] == pytest.approx(1 / 7, abs=1e-12)


def test_conditional_insulated_preserves_branch_weight():
    r = cs.run_conditional(
        three_plus(), [("m1", 0), ("m2", 0)], (("m3",), np.array([1.0, 0.0])),
        "insulated",
    )
    diag = np.real(np.diag(r.rho.mat))
    assert diag[0] == pytest.approx(0.0, abs=1e-12)
    assert diag[1] == pytest.approx(0.25, abs=1e-12)
    assert diag[2] == pytest.approx(1 / 8, abs=1e-12)


def test_conditional_rejects_looped_circuits():
    circuit = cpf_gun()
    with pytest.raises(cs.UnsupportedError):
        cs.run_conditional(
            circuit, [("gun", 0)], (("gun",), np.array([1.0, 0.0])), "coupled"
        )


def test_conditional_annihilated_insulated_run_is_a_paradox():
    circuit = build_circuit(
        three_plus().channels, [make_gate("CUSTOM", ("m1",), matrix=np.zeros((2, 2)))])
    zeros = build_circuit([Channel(m) for m in ("m1", "m2", "m3")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        with pytest.raises(cs.ParadoxError, match="removed all amplitude"):
            cs.run_conditional(circuit, [("m1", 0)], (("m3",), [1.0, 0.0]), "insulated")
        # the whole conditioned branch lies along the deselected |0>: none of it survives
        with pytest.raises(cs.ParadoxError) as info:
            cs.run_conditional(zeros, [("m1", 0)], (("m3",), [1.0, 0.0]), "insulated")
    assert str(info.value) == "insulated branch of weight 1.000e+00 has no surviving amplitude"


PLAIN_DESELECT = (("m3",), [1.0, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: cs.run_conditional(three_plus(), [("m1", "x")], PLAIN_DESELECT, "coupled"),
     "condition bit of 'm1' must be 0 or 1, got 'x'"),
    (lambda: cs.run_conditional(three_plus(), [("m1", 2)], PLAIN_DESELECT, "coupled"),
     "condition bit of 'm1' must be 0 or 1, got 2"),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], (("m3",), [0.0, 0.0]),
                                "insulated"),
     "deselect direction must be a nonzero finite vector"),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], (("m3",), [math.nan, 1.0]),
                                "coupled"),
     "deselect direction must be a nonzero finite vector"),
    (lambda: cs.run_exact_bell(loop_with_rotations(0.1, 0.2, 0.3),
                               pair_states={"tm": [math.nan, 0, 0, SQ2]}),
     "pair state for 'tm' has a non-finite amplitude"),
    (lambda: cs.run_noisy_bell(cpf_gun(), "abc"),
     "noise parameter lam must be a real number, got 'abc'"),
    (lambda: cs.run_classical(cpf_gun(), None), "flip rate k must be a real number, got None"),
    (lambda: cs.run_classical(cpf_gun(), "abc"),
     "flip rate k must be a real number, got 'abc'"),
    (lambda: cs.run_weight_matrix(cpf_gun(), [[1.0, "a"], [0.0, 1.0]]),
     "weight matrix entries must be real numbers"),
    (lambda: cs.run_weight_matrix(cpf_gun(), np.array([[1.0 + 1j, 0.0], [0.0, 1.0]])),
     "weight matrix entries must be real numbers"),
    (lambda: cs.run_conditional(three_plus(), [("m1",)], PLAIN_DESELECT, "coupled"),
     "condition must be a list of (label, bit) pairs"),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], (("m3",), ["x", 0]), "coupled"),
     "deselect direction must be a 1-d array of numbers"),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], (("m3",),), "coupled"),
     "deselect must be a (labels, amplitudes) pair"),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], (("m3",), [1.0, 0.0], "x"),
                                "coupled"),
     "deselect must be a (labels, amplitudes) pair"),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], (None, [1, 0]), "coupled"),
     "deselect labels must be a sequence of channel labels, got None"),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], ([["m3"]], [1, 0]), "coupled"),
     "deselect labels must be a sequence of channel labels, got (['m3'],)"),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], ("m3", [1, 0]), "coupled"),
     "deselect labels must be a sequence of channel labels, got 'm3'"),
], ids=["bit_x", "bit_2", "zero_direction", "nan_direction", "nan_pair_state", "lam_text",
        "k_none", "k_text", "omega_text_entry", "omega_complex_entry", "condition_not_a_pair",
        "direction_text", "deselect_one_tuple", "deselect_three_tuple", "deselect_labels_none",
        "deselect_labels_nested", "deselect_labels_string"])
def test_bad_conditional_and_pair_inputs_are_config_errors(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        with pytest.raises(cs.ConfigError) as info:
            call()
    assert str(info.value).startswith(message)


LONG_INT = 10**5000  # past Python's 4300-digit limit for int-to-str conversion
TOO_LONG = "<int too long to print>"


@pytest.mark.parametrize("call, message", [
    (lambda: cs.resolve_tolerance(LONG_INT), "bad tolerance"),
    (lambda: cs.run_noisy_bell(cpf_gun(), LONG_INT), "noise parameter lam must be a real number"),
    (lambda: cs.run_classical(cpf_gun(), LONG_INT), "flip rate k must be a real number"),
    (lambda: make_gate("ROT", ("a",), (LONG_INT,)), "gate parameters must be real numbers"),
    (lambda: cs.build_scenario("parity_ec", eps=LONG_INT),
     "scenario parameter eps must be a real number"),
    (lambda: cs.build_scenario("n_controlled_not", alphas=[LONG_INT]),
     "scenario parameter alphas must be a list of real numbers"),
    (lambda: cs.verify_scenario("parity_ec", {"lam": LONG_INT}),
     "noise parameter lam must be a real number"),
    (lambda: cs.NoisyBell(LONG_INT).run(cpf_gun()), "noise parameter lam must be a real number"),
    (lambda: cs.Classical(LONG_INT).run(cpf_gun()), "flip rate k must be a real number"),
    (lambda: cs.run_delta_quadrature(cpf_gun(), tol=LONG_INT), "bad tolerance " + TOO_LONG),
    (lambda: cs.skew_factor(cs.NoisyBell(LONG_INT)), "noise parameter lam must be a real number"),
    (lambda: cs.compose_skew(LONG_INT), "skew factors must be a list, got " + TOO_LONG),
    (lambda: cs.compose_skew([LONG_INT]), "skew factor must be a real number, got " + TOO_LONG),
    (lambda: cs.ec_fidelity(0.1, LONG_INT), "redundant qubit count n must be a real number"),
    (lambda: cs.boosted_success(LONG_INT, 2.0), "probability must be a real number"),
], ids=["tolerance", "lam", "k", "gate_param", "scenario_eps", "scenario_alphas", "verify_lam",
        "noisy_bell_model", "classical_model", "delta_tolerance", "skew_factor", "compose_skew",
        "compose_skew_entry", "ec_fidelity", "boosted_success"])
def test_an_integer_too_long_to_print_is_a_config_error_naming_its_parameter(call, message):
    with pytest.raises(cs.ConfigError) as info:
        call()
    assert str(info.value).startswith(message)


# a label, name or container that holds such an integer is shown by a stand-in in the
# message of the error that rejects it, never by a bare ValueError from its repr
@pytest.mark.parametrize("call, error, message", [
    (lambda: make_gate(LONG_INT, ("a",)), cs.ConfigError,  # a kind is shown upper-cased
     "unknown gate kind '%s'" % TOO_LONG.upper()),
    (lambda: make_gate("CX", (LONG_INT, LONG_INT)), cs.ConfigError,
     "gate CX has a repeated target in <tuple too long to print>"),
    (lambda: make_gate("CUSTOM", (LONG_INT,), matrix=[[1, 0], [0, math.nan]]), cs.ConfigError,
     "CUSTOM matrix on <tuple too long to print> has a non-finite entry"),
    (lambda: make_gate("CUSTOM", (LONG_INT,), matrix=np.eye(4)), cs.ArityError,
     "CUSTOM matrix on 2 qubits bound to 1 targets"),
    (lambda: build_circuit([Channel("a")], [make_gate("X", (LONG_INT,))]), cs.ConfigError,
     "gate X targets unknown channel " + TOO_LONG),
    (lambda: cs.with_init(cpf_gun(), LONG_INT, [1, 0]), cs.LabelError,
     "no channel labeled " + TOO_LONG),
    (lambda: cs.run_exact_bell(cpf_gun(), pair_states=LONG_INT), cs.ConfigError,
     "pair_states must be a mapping, got " + TOO_LONG),
    (lambda: cs.run_exact_bell(cpf_gun(), pair_states={LONG_INT: [1, 0]}), cs.ConfigError,
     "pair_states key %s names no looped channel" % TOO_LONG),
    (lambda: cs.run_conditional(three_plus(), LONG_INT, PLAIN_DESELECT, "coupled"),
     cs.ConfigError, "condition must be a list of (label, bit) pairs, got " + TOO_LONG),
    (lambda: cs.run_conditional(three_plus(), [("m1", LONG_INT)], PLAIN_DESELECT, "coupled"),
     cs.ConfigError, "condition bit of 'm1' must be 0 or 1, got " + TOO_LONG),
    (lambda: cs.run_conditional(three_plus(), [(LONG_INT, 0)], PLAIN_DESELECT, "coupled"),
     cs.LabelError, "no qubit labeled " + TOO_LONG),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], ((LONG_INT,), [1, 0]), "coupled"),
     cs.LabelError, "no qubit labeled " + TOO_LONG),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], ([[LONG_INT]], [1, 0]), "coupled"),
     cs.ConfigError,
     "deselect labels must be a sequence of channel labels, got <tuple too long to print>"),
    (lambda: cs.build_scenario(LONG_INT), cs.ScenarioNotFound, "unknown scenario " + TOO_LONG),
    (lambda: cs.verify_scenario(LONG_INT), cs.ScenarioNotFound, "unknown scenario " + TOO_LONG),
    (lambda: cs.verify_scenario("simple_loop", LONG_INT), cs.ConfigError,
     "scenario parameters must be a mapping, got " + TOO_LONG),
    (lambda: cs.verify_scenario("simple_loop", {LONG_INT: 1}), cs.ScenarioNotFound,
     "scenario 'simple_loop' has no parameter %s (has: alpha, beta)" % TOO_LONG),
    (lambda: cs.input_bias(cpf_gun(), LONG_INT, cs.ExactBell()), cs.LabelError,
     "no channel labeled " + TOO_LONG),
    (lambda: cs.input_bias(cpf_gun(), "gun", LONG_INT), cs.ConfigError,
     "input_bias needs a channel model with a run method, got " + TOO_LONG),
    (lambda: cs.flip_probability(cs.run_exact_bell(cpf_gun()), LONG_INT, "gun"), cs.LabelError,
     "no external channel labeled " + TOO_LONG),
    (lambda: build_circuit([Channel("a")], (), [((LONG_INT, "a"), (1, 0, 0, 0))]),
     cs.ConfigError, "entangled init names non-external channel " + TOO_LONG),
], ids=["gate_kind", "gate_repeated_target", "custom_target", "custom_arity", "circuit_target",
        "with_init_label", "pair_states", "pair_states_key", "condition", "condition_bit",
        "condition_label", "deselect_label", "deselect_labels", "scenario_name", "verify_name",
        "verify_params", "verify_key", "input_bias_channel", "input_bias_model", "flip_label",
        "entangled_label"])
def test_a_value_holding_an_integer_too_long_to_print_is_named_by_a_stand_in(call, error,
                                                                            message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


ARRAY = np.zeros((2, 2))  # == compares it elementwise, and the result has no truth value


@pytest.mark.parametrize("call, error, message", [
    (lambda: cs.with_init(cpf_gun(), ARRAY, "+"), cs.LabelError, "no channel labeled array"),
    (lambda: cs.input_bias(cpf_gun(), ARRAY, cs.ExactBell()), cs.LabelError,
     "no channel labeled array"),
    (lambda: cs.flip_probability(cs.run_exact_bell(cpf_gun()), ARRAY), cs.LabelError,
     "no external channel labeled array"),
    (lambda: cs.flip_probability(cs.run_exact_bell(cpf_gun()), "gun", ARRAY), cs.LabelError,
     "no external channel labeled array"),
    (lambda: cs.run_conditional(three_plus(), [("m1", 0)], PLAIN_DESELECT, ARRAY),
     cs.ConfigError, "mode must be 'coupled' or 'insulated'"),
    (lambda: cs.run_conditional(three_plus(), [("m1", ARRAY)], PLAIN_DESELECT, "coupled"),
     cs.ConfigError, "condition bit of 'm1' must be 0 or 1, got array"),
    (lambda: Channel(ARRAY), cs.ConfigError, "channel label must be a non-empty string"),
], ids=["with_init_label", "input_bias_channel", "flip_label", "flip_second_label", "mode",
        "condition_bit", "channel_label"])
def test_an_array_where_a_label_mode_or_bit_belongs_is_a_typed_error(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        call()


@pytest.mark.parametrize("direction, plain", [
    ([1e-320, 0.0], [1.0, 0.0]), ([1e200, 1e200j], [1.0, 1.0j]),
], ids=["subnormal", "huge"])
def test_conditional_normalizes_extreme_directions_exactly(direction, plain):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = cs.run_conditional(three_plus(), [("m1", 0)], (("m3",), direction), "coupled")
    ref = cs.run_conditional(three_plus(), [("m1", 0)], (("m3",), plain), "coupled")
    assert r.z == pytest.approx(ref.z, abs=1e-15)
    assert np.max(np.abs(r.rho.mat - ref.rho.mat)) <= 1e-15


# every name that takes a circuit, called with the non-circuit in its place
CIRCUIT_TAKERS = {
    "run_exact_bell": cs.run_exact_bell,
    "run_noisy_bell": lambda c: cs.run_noisy_bell(c, 0.2),
    "run_classical": lambda c: cs.run_classical(c, 0.2),
    "run_weight_matrix": cs.run_weight_matrix,
    "run_delta_quadrature": cs.run_delta_quadrature,
    **{"%s.run" % type(model).__name__: model.run for model in LOOP_MODELS},
    "run_conditional": lambda c: cs.run_conditional(c, [("m1", 0)], PLAIN_DESELECT, "coupled"),
    "projection_table": cs.projection_table,
    "pair_out_state": cs.pair_out_state,
    "with_init": lambda c: cs.with_init(c, "ex", "+"),
    "input_bias": lambda c: cs.input_bias(c, "ex", cs.ExactBell()),
}


@pytest.mark.parametrize("value", [None, "x", 3], ids=["None", "text", "int"])
@pytest.mark.parametrize("name", CIRCUIT_TAKERS)
def test_a_non_circuit_argument_is_a_config_error(name, value):
    with pytest.raises(cs.ConfigError, match="^expected a Circuit, got %s$"
                       % type(value).__name__):
        CIRCUIT_TAKERS[name](value)


# dispatch -------------------------------------------------------------------


def test_model_objects_dispatch():
    circuit = cpf_gun()
    assert cs.ExactBell().run(circuit).model == "exact_bell"
    assert cs.NoisyBell(0.2).run(circuit).model == "noisy_bell"
    assert cs.Classical(0.2).run(circuit).model == "classical"
    assert cs.WeightMatrix("flat").run(circuit).model == "weight_matrix"
    assert cs.DeltaQuadrature().run(circuit).model == "delta_quadrature"
