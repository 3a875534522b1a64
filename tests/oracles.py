"""Per-node and per-factor references the tests check the library against.

They share no code path with the engine's fast forms: `flat_measure_states`
lists every node of a flat-measure grid, so the cached moments of the delta
model and of `input_bias` can be rebuilt from it node by node; `tensor` and
`tensor_all` build a product state one factor at a time, and `density` the
projector onto a pure state.
"""

import functools

import numpy as np

from ctcsim import DensityOperator, PureState, flat_measure_nodes


def tensor(a, b):
    """Tensor product; the labels of `a` come first (more significant bits)."""
    return PureState(np.kron(a.amps, b.amps), a.labels + b.labels)


def tensor_all(states):
    """Tensor product of several states; the first factor is most significant."""
    return functools.reduce(tensor, states)


def density(state):
    """|state><state| on the labels of `state`."""
    return DensityOperator(np.outer(state.amps, state.amps.conj()), state.labels)


def flat_measure_states(n_theta, n_xi):
    """Flat-measure grid as states: rows cos(theta)|0> + e^{i xi} sin(theta)|1>.

    Returns the (N, 2) states, polar angle major, and their (N,) weights.
    """
    theta, w_theta, xi, w_xi = flat_measure_nodes(n_theta, n_xi)
    c0 = np.repeat(np.cos(theta), len(xi))
    c1 = np.outer(np.sin(theta), np.exp(1j * xi)).reshape(-1)
    return np.stack([c0, c1], axis=1), np.outer(w_theta, w_xi).reshape(-1)
