"""Per-node and per-factor references the tests check the library against.

They share no code path with the engine's closed forms: `flat_measure_nodes`
and `flat_measure_states` list every node of a flat-measure grid, so the
moment constants of the delta model and of `input_bias` can be rebuilt from it
node by node; `tensor` and `tensor_all` build a product state one factor at a
time, and `density` the projector onto a pure state.
"""

import functools

import numpy as np

from ctcsim import DensityOperator, PureState


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
