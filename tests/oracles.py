"""Per-node and per-factor references the tests check the library against.

They share no code path with the engine's closed forms: `flat_measure_nodes`
and `flat_measure_states` list every node of a flat-measure grid, so the
moment constants of the delta model and of `input_bias` can be rebuilt from it
node by node; `tensor` and `tensor_all` build a product state one factor at a
time, and `density` the projector onto a pure state.  `decohered_reference_run`
takes the second noise route, a depolarized reserve bit, from the circuit's
compiled unitary and numpy alone.
"""

import functools

import numpy as np

from ctcsim import DensityOperator, PureState, compile_unitary


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


_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0]))


def decohered_reference_run(circuit, p):
    """Z and trace-1 rho when each reserve bit decoheres before the pairs are post-selected.

    The register runs (references, loops, externals), externals in declaration
    order.  It starts as one Bell pair per loop times the external inits and
    evolves under I_ref x U, U from compile_unitary.  Each reference qubit is
    then depolarized by the Kraus operators sqrt(1 - 3p/4) I and sqrt(p/4) X,
    Y, Z, one qubit after another, and every (reference, loop) pair is projected
    onto the Bell pair; Z is the trace of what survives on the externals.
    """
    if circuit.entangled:
        raise ValueError("decohered_reference_run takes product external inits only")
    labels, loops = circuit.labels, circuit.loop_labels
    n, m = len(labels), len(loops)
    d, e = 2**m, 2 ** (n - m)
    order = [labels.index(label) for label in loops + circuit.external_labels]
    u = compile_unitary(circuit).reshape((2,) * (2 * n))
    u = u.transpose(order + [n + q for q in order]).reshape(d * e, d * e)
    ext = np.ones(1, dtype=complex)
    for c in circuit.channels:
        if not c.looped:
            ext = np.kron(ext, c.init or (1.0, 0.0))
    bell_pairs = np.eye(d).reshape(-1) / np.sqrt(d)  # references major, then loops
    psi = np.kron(np.eye(d), u) @ np.kron(bell_pairs, ext)
    rho = np.outer(psi, psi.conj())
    weights = (1 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p)
    for q in range(m):  # reference qubit q is register qubit q
        krauses = [np.kron(np.kron(np.eye(2**q), pauli), np.eye(2 ** (n + m - q - 1)))
                   for pauli in _PAULIS]
        rho = sum(w * k @ rho @ k.conj().T for w, k in zip(weights, krauses))
    post = np.kron(bell_pairs.conj(), np.eye(e))  # every pair onto the Bell pair
    num = post @ rho @ post.conj().T
    z = float(np.trace(num).real)
    return z, num / z if z else num  # Z = 0: a paradox, which the caller skips
