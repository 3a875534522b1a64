"""References the tests check the library against, sharing no code path with the engine.

Everything here is built from `compile_unitary`, the circuit's full operator
multiplied out gate by gate from each gate's matrix, and the circuit's channel
declarations, never from an evolution, a projection or a private name of
`ctcsim` (test_engine.py parses this file to hold it to that).  The one entry
point is `loop_major_unitary`, the compiled unitary as (d, e, d, e), loops then
externals; `histories_by_unitary` reads the history tensor
A[i, j] = (<j|_loop x I) U (|i>_loop x ext) off it, and each model's reference
reads A:

* exact model: `p_ctc_output`, the P-CTC trace formula (Lloyd et al.,
  arXiv:1007.2615), sum_i A[i, i] / d; `exact_with_pairs_by_unitary` for custom
  boundary pairs, their Gram matrices contracted with A;
* noisy model: `pair_rows_by_histories` (every pair-basis outcome) and two
  routes of the paper, `noisy_by_density_matrix` (a Werner projection of the
  pairs' density matrix) and `decohered_reference_run` (a depolarized reserve
  bit, in Kraus operators);
* classical, weight-matrix and delta models: `model_num_by_histories`, each
  model's weighted operator written out from its definition, with the delta
  model integrated node by node in `delta_by_node`.

`flat_measure_nodes` and `flat_measure_states` list every node of a
flat-measure grid, so the moment constants of the delta model and of
`input_bias` can be rebuilt from it node by node; `tensor` and `tensor_all`
build a product state one factor at a time, and `density` the projector onto a
pure state.
"""

import functools
import itertools
import math

import numpy as np

from ctcsim import Classical, DeltaQuadrature, DensityOperator, ExactBell, NoisyBell, PureState


def tensor(a, b):
    """Tensor product; the labels of `a` come first (more significant bits)."""
    return PureState(np.kron(a.amps, b.amps), a.labels + b.labels)


def tensor_all(states):
    """Tensor product of several states; the first factor is most significant."""
    return functools.reduce(tensor, states)


def density(state):
    """|state><state| on the labels of `state`."""
    return DensityOperator(np.outer(state.amps, state.amps.conj()), state.labels)


def flat_measure_nodes(n_theta, n_xi):
    """Nodes/weights for the flat measure on [0, pi] x [0, 2*pi].

    Midpoint rule in the polar angle, theta_k = (k + 1/2) * pi / n_theta with
    weight pi / n_theta; uniform (periodic trapezoid) in the phase.  Total
    weight is 2*pi^2.  An integrand of degree D/2 in (c_0, c_1) and D/2 in
    their conjugates is a trigonometric polynomial of frequency at most D/2
    in 2*theta and in xi, which both rules integrate exactly once each node
    count exceeds D/2: from 3 nodes for the delta model's Z and rho (D = 4),
    4 for its rho_loop (D = 6).  Any positive counts are accepted here.
    """
    theta = (np.arange(n_theta) + 0.5) * (np.pi / n_theta)
    xi = np.arange(n_xi) * (2.0 * np.pi / n_xi)
    return theta, np.full(n_theta, np.pi / n_theta), xi, np.full(n_xi, 2.0 * np.pi / n_xi)


def flat_measure_states(n_theta, n_xi):
    """Flat-measure grid as states: rows cos(theta)|0> + e^{i xi} sin(theta)|1>.

    Returns the (N, 2) states, polar angle major, and their (N,) weights.
    """
    theta, w_theta, xi, w_xi = flat_measure_nodes(n_theta, n_xi)
    c0 = np.repeat(np.cos(theta), len(xi))
    c1 = np.outer(np.sin(theta), np.exp(1j * xi)).reshape(-1)
    return np.stack([c0, c1], axis=1), np.outer(w_theta, w_xi).reshape(-1)


def compile_unitary(circuit):
    """Full operator of the gate list over the declared channels, one gate at a time.

    Basis order follows channel declaration order (first channel = most
    significant bit).  The result is unitary exactly when every gate is.
    """
    labels = circuit.labels
    n = len(labels)
    d = 2**n
    full = np.eye(d, dtype=complex)
    for g in circuit.gates:
        axes = [labels.index(t) for t in g.targets]
        k = len(axes)
        t = full.reshape((2,) * n + (d,))
        t = np.moveaxis(t, axes, range(k))
        t = (g.matrix @ t.reshape(2**k, -1)).reshape((2,) * k + t.shape[k:])
        t = np.moveaxis(t, range(k), axes)
        full = t.reshape(d, d)
    return full


def loop_major_unitary(circuit):
    """compile_unitary(circuit) as U[out loops, out externals, in loops, in externals].

    Loops and externals each keep their declaration order; the shape is (d, e, d, e).
    """
    labels = circuit.labels
    n, d = len(labels), 2 ** len(circuit.loop_labels)
    order = [labels.index(label) for label in circuit.loop_labels + circuit.external_labels]
    u = compile_unitary(circuit).reshape((2,) * (2 * n))
    return u.transpose(order + [n + q for q in order]).reshape(d, 2**n // d, d, 2**n // d)


def product_inits(circuit):
    """The external channels' inits (None is |0>), Kronecker product in declaration order."""
    if circuit.entangled:
        raise ValueError("product_inits takes product external inits only")
    ext = np.ones(1, dtype=complex)
    for c in circuit.channels:
        if not c.looped:
            ext = np.kron(ext, c.init or (1.0, 0.0))
    return ext


def histories_by_unitary(circuit, ext=None):
    """A[i, j] = (<j|_loop x I) U (|i>_loop x ext); `ext` defaults to the product inits."""
    ext = product_inits(circuit) if ext is None else ext
    return np.einsum("jxiy,y->ijx", loop_major_unitary(circuit), ext)


def p_ctc_output(circuit):
    """Tr_loop(U)|ext>/2^m, the P-CTC output formula: sum_i A[i, i] / d."""
    a = histories_by_unitary(circuit)
    return np.einsum("iix->x", a) / len(a)


def exact_with_pairs_by_unitary(circuit, pair_states):
    """Surviving external state of the exact model with custom boundary pairs.

    With pair amplitudes chi[r, l] per loop, psi = sum_{a, b} (chi^dagger chi)[b, a]
    A[a, b], the Gram matrices multiplied out over the loops (the Bell pair's is I / 2).
    """
    gram = np.ones((1, 1))
    for label in circuit.loop_labels:
        chi = np.reshape(pair_states.get(label, [2**-0.5, 0, 0, 2**-0.5]), (2, 2))
        gram = np.kron(gram, chi.conj().T @ chi)
    return np.einsum("ba,abx->x", gram, histories_by_unitary(circuit))


# (reference, loop) amplitudes of each pair outcome, as 2 x 2 matrices
PAIR_MATRICES = {"B": np.eye(2), "-": np.diag([1.0, -1.0]), "N": np.eye(2)[::-1],
                 "-N": np.array([[0.0, 1.0], [-1.0, 0.0]])}


def pair_rows_by_histories(a):
    """Outcome label -> surviving external amplitudes, from the history tensor."""
    m = int(math.log2(len(a)))
    rows = {}
    for combo in itertools.product(PAIR_MATRICES, repeat=m):
        mat = functools.reduce(np.kron, [PAIR_MATRICES[o] for o in combo], np.ones((1, 1)))
        rows[",".join(combo)] = np.einsum("rl,rlx->x", mat, a) / 2**m
    return rows


def outer_sum(rows, weights):
    """sum_k weights[k] |rows[k]><rows[k]|, one row at a time."""
    return sum(w * np.outer(r, r.conj()) for r, w in zip(rows, weights))


def delta_by_node(a, n_theta, n_xi):
    """Z, rho and rho_loop of the delta model, one node of the flat-measure grid at a time.

    Node phi = cos(theta)|0> + e^{i xi} sin(theta)|1> carries the external state
    sum_ij phi_i phi_j^* A[i, j]; Z and rho_loop weigh each node by its squared norm.
    """
    phi, w = flat_measure_states(n_theta, n_xi)
    out = np.einsum("ki,kj,ijx->kx", phi, phi.conj(), a)  # (nodes, externals)
    norms = w * (out.real**2 + out.imag**2).sum(axis=1)
    z = norms.sum()
    return z, (out.T * w) @ out.conj() / z, (phi.T * norms) @ phi.conj() / z


def model_num_by_histories(model, a):
    """Each model's weighted external operator, written out from its definition."""
    d = len(a)
    rows = a.reshape(d * d, -1)
    if isinstance(model, ExactBell):
        psi = np.einsum("iix->x", a) / d
        return np.outer(psi, psi.conj())
    if isinstance(model, NoisyBell):
        per_pair = [1 - 0.75 * model.lam] + [0.25 * model.lam] * 3
        w = functools.reduce(np.kron, [per_pair] * int(math.log2(d)))
        return outer_sum(pair_rows_by_histories(a).values(), w)
    if isinstance(model, Classical):
        k = model.k
        if model.floor:
            w = (1 - k) * np.eye(d) + k / d
        else:
            w = functools.reduce(np.kron, [[[1 - k, k], [k, 1 - k]]] * int(math.log2(d)))
        return outer_sum(rows, np.reshape(w, -1))
    if isinstance(model, DeltaQuadrature) or model.omega == "delta" and d == 2:
        z, rho, _ = delta_by_node(a, 7, 9)
        return z * rho
    omega = {"flat": np.full((d, d), 1 / d), "quad": (2 * np.eye(d) + 1) / (d + 2),
             "delta": np.eye(d)}[model.omega]
    return outer_sum(rows, omega.reshape(-1))


def _evolved_register(circuit):
    """(psi, d, e): the evolved register (references, loops, externals), from A / sqrt(d).

    It starts as one Bell pair per loop times the product inits and evolves
    under I_ref x U; reference i and loop j read A[i, j] / sqrt(d).
    """
    a = histories_by_unitary(circuit)
    return a.reshape(-1) / math.sqrt(len(a)), len(a), a.shape[2]


def noisy_by_density_matrix(circuit, lam):
    """Z and trace-1 rho of Tr_pairs[(W^m x I) rho_out], W = (1-lam)|B><B| + lam I/4.

    rho_out is the density matrix of the evolved register (references, loops,
    externals), externals in declaration order.
    """
    psi, d, e = _evolved_register(circuit)
    m = int(math.log2(d))
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    w_pair = (1 - lam) * np.outer(bell, bell) + lam * np.eye(4) / 4
    w = functools.reduce(np.kron, [w_pair] * m).reshape((2,) * (4 * m))
    # pair operators act on (r1, l1, r2, l2, ...); the register is (refs, loops)
    pairs_to_register = list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2))
    w = w.transpose(pairs_to_register + [2 * m + a for a in pairs_to_register])
    rho_out = np.outer(psi, psi.conj())
    num = (np.kron(w.reshape(d * d, d * d), np.eye(e)) @ rho_out).reshape(d * d, e, d * d, e)
    num = np.einsum("iaib->ab", num)
    z = float(np.trace(num).real)
    return z, num / z


_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0]))


def decohered_reference_run(circuit, p):
    """Z and trace-1 rho when each reserve bit decoheres before the pairs are post-selected.

    Each reference qubit of the evolved register (references, loops, externals)
    is depolarized by the Kraus operators sqrt(1 - 3p/4) I and sqrt(p/4) X, Y,
    Z, one qubit after another, and every (reference, loop) pair is projected
    onto the Bell pair; Z is the trace of what survives on the externals.
    """
    psi, d, e = _evolved_register(circuit)
    rho = np.outer(psi, psi.conj())
    weights = (1 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p)
    for q in range(int(math.log2(d))):  # reference qubit q is register qubit q
        krauses = [np.kron(np.kron(np.eye(2**q), pauli), np.eye(d * d * e // 2 ** (q + 1)))
                   for pauli in _PAULIS]
        rho = sum(w * k @ rho @ k.conj().T for w, k in zip(weights, krauses))
    bell_pairs = np.eye(d).reshape(-1) / np.sqrt(d)  # references major, then loops
    post = np.kron(bell_pairs.conj(), np.eye(e))  # every pair onto the Bell pair
    num = post @ rho @ post.conj().T
    z = float(np.trace(num).real)
    return z, num / z if z else num  # Z = 0: a paradox, which the caller skips
