import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ctcsim as cs
from ctcsim import Channel, PureState, build_circuit, make_gate
from ctcsim.circuit import evolve
from ctcsim.states import project
from oracles import tensor

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
    assert len(table.entries) == 16
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


def _bits(i, m):
    return [(i >> (m - 1 - q)) & 1 for q in range(m)]


def histories_by_evolution(circuit):
    """Reference: evolve each loop eigenstate separately, then project on each."""
    loops = circuit.loop_labels
    m = len(loops)
    ext0 = circuit.initial_external_state()
    histories = {}
    for i in range(2**m):
        start = PureState.computational(_bits(i, m), loops)
        state = evolve(start if not ext0.n_qubits else tensor(start, ext0), circuit)
        for j in range(2**m):
            bra = PureState.computational(_bits(j, m), loops)
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
        sum(ref.norm**2 for ref in table_ref.values())
    assert table.total_weight == pytest.approx(total, abs=1e-12)
    assert len(table.entries) == len(table_ref) == 4**n_loops
    for entry in table.entries:
        ref = table_ref[entry.label]
        assert entry.state.labels == ref.labels
        assert np.max(np.abs(entry.state.amps - ref.amps)) <= 1e-12
        assert entry.weight == pytest.approx(ref.norm**2, abs=1e-12)


def mixture_by_loop(states, weights):
    """Reference: Z and trace-1 rho of a weighted mixture, one state at a time."""
    z, num = 0.0, 0.0
    for state, w in zip(states, weights):
        z += w * state.norm**2
        num = num + w * np.outer(state.amps, state.amps.conj())
    return z, num / z


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
        z, rho = mixture_by_loop(states, weights)
        assert result.z == pytest.approx(z, rel=1e-12, abs=1e-14)
        assert np.max(np.abs(result.rho.mat - rho)) <= 1e-10


def p_ctc_output(circuit):
    """Tr_loop(U)|ext>/2^m with U from compile_unitary (the P-CTC output formula).

    The external register is in declaration order, like the engine's rho.
    """
    labels = circuit.labels
    n = len(labels)
    loop = [labels.index(l) for l in circuit.loop_labels]
    ext = [labels.index(l) for l in circuit.external_labels]
    d, e = 2 ** len(loop), 2 ** len(ext)
    u = cs.compile_unitary(circuit).reshape((2,) * (2 * n))
    u = u.transpose(loop + [n + q for q in loop] + ext + [n + q for q in ext])
    ext0 = np.ones(1, dtype=complex)
    for c in circuit.channels:
        if not c.looped:
            ext0 = np.kron(ext0, c.init)
    return np.einsum("iiab,b->a", u.reshape(d, d, e, e), ext0) / d


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


def delta_by_node(circuit, n_theta=7, n_xi=9):
    """Z, rho and rho_loop of the delta model, one node at a time.

    Node (theta, xi) carries phi = cos(theta)|0> + e^{i xi} sin(theta)|1>; its
    external state is (<phi| x I) U (|phi> x |ext>), with U from
    compile_unitary.  Both angles sit on shifted uniform grids (offsets 1/3
    and 1/2 of a step, unlike the engine's), which integrate the delta
    integrands over [0, pi] x [0, 2*pi] exactly at these node counts.
    """
    labels = circuit.labels
    n = len(labels)
    order = [labels.index(l) for l in circuit.loop_labels + circuit.external_labels]
    u = cs.compile_unitary(circuit).reshape((2,) * (2 * n))
    u = u.transpose(order + [n + q for q in order]).reshape(2, 2 ** (n - 1), 2, -1)
    ext0 = np.ones(1, dtype=complex)
    for c in circuit.channels:
        if not c.looped:
            ext0 = np.kron(ext0, c.init)
    weight = (math.pi / n_theta) * (2 * math.pi / n_xi)
    z, rho, rho_loop = 0.0, 0.0, 0.0
    for k in range(n_theta):
        theta = (k + 1 / 3) * math.pi / n_theta
        for l in range(n_xi):
            xi = (l + 1 / 2) * 2 * math.pi / n_xi
            phi = np.array([math.cos(theta), math.sin(theta) * np.exp(1j * xi)])
            psi = np.einsum("i,iajb,j,b->a", phi.conj(), u, phi, ext0)
            dens = weight * np.vdot(psi, psi).real
            z += dens
            rho = rho + weight * np.outer(psi, psi.conj())
            rho_loop = rho_loop + dens * np.outer(phi, phi.conj())
    return z, rho / z, rho_loop / z


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_delta_model_matches_per_node_integral_of_compiled_unitary(seed, n_ext):
    circuit = random_circuit(seed, 1, n_ext)
    z, rho, rho_loop = delta_by_node(circuit)
    r = cs.run_delta_quadrature(circuit)
    assert r.z == pytest.approx(z, rel=1e-12)
    assert np.max(np.abs(r.rho.mat - rho)) <= 1e-12
    assert np.max(np.abs(r.rho_loop.mat - rho_loop)) <= 1e-12


def noisy_by_density_matrix(circuit, lam):
    """Z and trace-1 rho of Tr_pairs[(W^m x I) rho_out], W = (1-lam)|B><B| + lam I/4.

    rho_out is the density matrix of the (reference, loop) pairs and the
    externals, conjugated by I_ref x U with U from compile_unitary.  The
    register runs (references, loops, externals); externals in declaration order.
    """
    labels = circuit.labels
    n = len(labels)
    order = [labels.index(l) for l in circuit.loop_labels + circuit.external_labels]
    m = len(circuit.loop_labels)
    d, e = 2**m, 2 ** (n - m)
    u = cs.compile_unitary(circuit).reshape((2,) * (2 * n))
    u = u.transpose(order + [n + q for q in order]).reshape(d * e, d * e)
    ext0 = np.ones(1, dtype=complex)
    for c in circuit.channels:
        if not c.looped:
            ext0 = np.kron(ext0, c.init)
    psi = np.kron(np.eye(d).reshape(-1) / np.sqrt(d), ext0)  # Bell pairs, then externals
    full = np.kron(np.eye(d), u)
    rho_out = full @ np.outer(psi, psi.conj()) @ full.conj().T
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    w_pair = (1 - lam) * np.outer(bell, bell) + lam * np.eye(4) / 4
    w = functools.reduce(np.kron, [w_pair] * m).reshape((2,) * (4 * m))
    # pair operators act on (r1, l1, r2, l2, ...); the register is (refs, loops)
    pairs_to_register = list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2))
    w = w.transpose(pairs_to_register + [2 * m + a for a in pairs_to_register])
    num = (np.kron(w.reshape(d * d, d * d), np.eye(e)) @ rho_out).reshape(d * d, e, d * d, e)
    num = np.einsum("iaib->ab", num)
    z = float(np.trace(num).real)
    return z, num / z


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(0, 2),
       st.floats(0.05, 1.0))
def test_noisy_model_matches_werner_projection_of_density_matrix(seed, n_loops, n_ext, lam):
    circuit = random_circuit(seed, n_loops, n_ext)
    z, rho = noisy_by_density_matrix(circuit, lam)
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


def histories_by_unitary(circuit, ext):
    """A[i, j] = (<j|_loop x I) U (|i>_loop x ext), U from compile_unitary."""
    labels = circuit.labels
    n, d = len(labels), 2 ** len(circuit.loop_labels)
    order = [labels.index(l) for l in circuit.loop_labels + circuit.external_labels]
    u = cs.compile_unitary(circuit).reshape((2,) * (2 * n))
    u = u.transpose(order + [n + q for q in order]).reshape(d, len(ext), d, len(ext))
    return np.einsum("jxiy,y->ijx", u, ext)


# (reference, loop) amplitudes of each pair outcome, as 2 x 2 matrices
PAIR_MATRICES = {"B": np.eye(2), "-": np.diag([1.0, -1.0]), "N": np.eye(2)[::-1],
                 "-N": np.array([[0.0, 1.0], [-1.0, 0.0]])}


def pair_rows_by_histories(a):
    """Outcome label -> surviving external amplitudes, from the history tensor."""
    m = int(math.log2(len(a)))
    rows = {}
    for combo in itertools.product(cs.engine.PAIR_LABELS, repeat=m):
        mat = functools.reduce(np.kron, [PAIR_MATRICES[o] for o in combo], np.ones((1, 1)))
        rows[",".join(combo)] = np.einsum("rl,rlx->x", mat, a) / 2**m
    return rows


def outer_sum(rows, weights):
    return sum(w * np.outer(r, r.conj()) for r, w in zip(rows, weights))


def delta_num_by_node(a, n_theta=7, n_xi=9):
    """Unnormalized delta-model operator: node phi carries sum_ij phi_i phi_j^* A[i, j]."""
    weight = (math.pi / n_theta) * (2 * math.pi / n_xi)
    num = 0.0
    for k in range(n_theta):
        theta = (k + 1 / 3) * math.pi / n_theta
        for l in range(n_xi):
            xi = (l + 1 / 2) * 2 * math.pi / n_xi
            phi = np.array([math.cos(theta), math.sin(theta) * np.exp(1j * xi)])
            psi = np.einsum("i,j,ijx->x", phi, phi.conj(), a)
            num = num + weight * np.outer(psi, psi.conj())
    return num


def model_num_by_histories(model, a):
    """Each model's weighted external operator, written out from its definition."""
    d = len(a)
    rows = a.reshape(d * d, -1)
    if isinstance(model, cs.ExactBell):
        psi = np.einsum("iix->x", a) / d
        return np.outer(psi, psi.conj())
    if isinstance(model, cs.NoisyBell):
        per_pair = [1 - 0.75 * model.lam] + [0.25 * model.lam] * 3
        w = functools.reduce(np.kron, [per_pair] * int(math.log2(d)))
        return outer_sum(pair_rows_by_histories(a).values(), w)
    if isinstance(model, cs.Classical):
        k = model.k
        if model.floor:
            w = (1 - k) * np.eye(d) + k / d
        else:
            w = functools.reduce(np.kron, [[[1 - k, k], [k, 1 - k]]] * int(math.log2(d)))
        return outer_sum(rows, np.reshape(w, -1))
    if isinstance(model, cs.DeltaQuadrature) or model.omega == "delta" and d == 2:
        return delta_num_by_node(a)
    omega = {"flat": np.full((d, d), 1 / d), "quad": (2 * np.eye(d) + 1) / (d + 2),
             "delta": np.eye(d)}[model.omega]
    return outer_sum(rows, omega.reshape(-1))


@pytest.mark.parametrize("seed, n_loops", [(0, 1), (1, 1), (2, 2), (3, 2)])
def test_out_of_order_entangled_groups_match_the_unitary_reference(seed, n_loops):
    circuit, ext = out_of_order_circuit(seed, n_loops)
    a = histories_by_unitary(circuit, ext)
    models = PERMUTATION_MODELS + [cs.DeltaQuadrature(3, 5)] * (n_loops == 1)
    for model in models:
        num = model_num_by_histories(model, a)
        z = np.trace(num).real
        r = model.run(circuit)
        assert r.z == pytest.approx(z, rel=1e-12), model
        assert r.rho.labels == circuit.external_labels, model
        assert np.max(np.abs(r.rho.mat - num / z)) <= 1e-12, model
    table = cs.projection_table(circuit)
    for label, row in pair_rows_by_histories(a).items():
        assert table[label].state.labels == circuit.external_labels
        assert np.max(np.abs(table[label].state.amps - row)) <= 1e-12, label
    histories = cs.run_classical(circuit, 0.2).projections
    d = len(a)
    for i, j in itertools.product(range(d), repeat=2):
        entry = histories["%d|%d" % (i, j)]
        assert entry.state.labels == circuit.external_labels
        assert np.max(np.abs(entry.state.amps - a[i, j])) <= 1e-12, (i, j)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 3), st.floats(0.0, 1.0))
def test_history_models_match_the_unitary_reference_on_random_circuits(seed, n_loops, n_ext,
                                                                       k):
    circuit = random_circuit(seed, n_loops, n_ext)
    a = histories_by_unitary(circuit, circuit.initial_external_state().amps)
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
    assert len(table.entries) == 4 ** len(circuit.loop_labels)
    assert table["N"].weight == pytest.approx(1.0, abs=1e-12)
    assert table.total_weight == pytest.approx(1.0, abs=1e-12)


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
    and flat; noisy_bell(0) keeps only the matched row, through _mix rather
    than one outer product.  A setting is a paradox exactly when its partner is.
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


def exact_with_pairs_by_unitary(circuit, pair_states):
    """Reference for custom boundary pairs, from the circuit's full unitary.

    With pair amplitudes chi[r, l] per loop, the surviving external state is
    psi = sum_{l, l'} (chi^dagger chi)[l', l] U[(l', .), (l, .)] |ext>, the
    Gram matrices multiplied out over the loops (the Bell pair's is I / 2).
    """
    labels, loops, exts = circuit.labels, circuit.loop_labels, circuit.external_labels
    n, d = len(labels), 2 ** len(loops)
    gram = np.ones((1, 1))
    for label in loops:
        chi = np.reshape(pair_states.get(label, [SQ2, 0, 0, SQ2]), (2, 2))
        gram = np.kron(gram, chi.conj().T @ chi)
    order = [labels.index(l) for l in loops + exts]
    u = cs.compile_unitary(circuit).reshape((2,) * (2 * n))
    u = u.transpose(order + [n + i for i in order]).reshape(d, 2**n // d, d, 2**n // d)
    return np.einsum("ba,bxay,y->x", gram, u, circuit.initial_external_state().amps)


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
    r = cs.run_exact_bell(circuit, pair_states=pairs)
    assert r.projections is None
    assert abs(r.n - n) <= 1e-12
    assert np.max(np.abs(r.rho.mat - np.outer(psi, psi.conj()) / n**2)) <= 1e-12


def test_no_loop_raises():
    circuit = build_circuit([Channel("a", init=(1.0, 0.0))])
    with pytest.raises(cs.NoCtcError):
        cs.run_exact_bell(circuit)


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
@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), "abc"])
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
    assert (None if table is None else len(table.entries)) == entries


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
    assert (got.channel_order, got.ext_labels) == (want.channel_order, want.ext_labels)
    assert got.amps.tobytes() == want.amps.tobytes()
    assert got.weights.tobytes() == want.weights.tobytes()


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
    weights = {}
    for e in r.projections.entries:
        i, j = (int(x) for x in e.label.split("|"))
        flips = bin(i ^ j).count("1")
        weights.setdefault(flips, 0.0)
    for e in r.projections.entries:
        i, j = (int(x) for x in e.label.split("|"))
        if e.weight > 0:
            flips = bin(i ^ j).count("1")
            hist = e.state.norm**2
            assert e.weight == pytest.approx(
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        with pytest.raises(cs.ParadoxError, match="removed all amplitude"):
            cs.run_conditional(circuit, [("m1", 0)], (("m3",), [1.0, 0.0]), "insulated")


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
], ids=["bit_x", "bit_2", "zero_direction", "nan_direction", "nan_pair_state", "lam_text",
        "k_none", "k_text", "omega_text_entry", "omega_complex_entry", "condition_not_a_pair",
        "direction_text", "deselect_one_tuple", "deselect_three_tuple"])
def test_bad_conditional_and_pair_inputs_are_config_errors(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        with pytest.raises(cs.ConfigError) as info:
            call()
    assert str(info.value).startswith(message)


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


# dispatch -------------------------------------------------------------------


def test_model_objects_dispatch():
    circuit = cpf_gun()
    assert cs.ExactBell().run(circuit).model == "exact_bell"
    assert cs.NoisyBell(0.2).run(circuit).model == "noisy_bell"
    assert cs.Classical(0.2).run(circuit).model == "classical"
    assert cs.WeightMatrix("flat").run(circuit).model == "weight_matrix"
    assert cs.DeltaQuadrature().run(circuit).model == "delta_quadrature"
