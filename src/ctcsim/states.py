"""Dense state vectors and density operators over labeled qubit registers.

Everything here is plain numpy on full 2^n arrays.  Labels name the qubits;
the first label is the most significant bit, so the basis index of
|b_0 b_1 ... b_{n-1}> is sum_i b_i * 2^(n-1-i).  The hard cap of 14 qubits
keeps the dense representation comfortably inside memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, LabelCollision, LabelError, ParadoxError,
                     UnsupportedError)

MAX_QUBITS = 14
DEFAULT_PARADOX_TOL = 1e-12


def _check_labels(labels):
    if len(set(labels)) != len(labels):
        raise LabelCollision("duplicate qubit labels: %r" % (labels,))


@dataclass(frozen=True)
class PureState:
    """A (possibly unnormalized) state vector on labeled qubits."""

    amps: np.ndarray
    labels: tuple

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.labels)
        if n > MAX_QUBITS:
            raise UnsupportedError(
                "register of %d qubits exceeds the dense cap of %d" % (n, MAX_QUBITS)
            )
        if amps.shape != (2**n,):
            raise LabelError(
                "amplitude vector of length %d does not fit %d labeled qubits"
                % (amps.size, n)
            )
        _check_labels(self.labels)
        if not np.all(np.isfinite(amps.view(float))):
            raise ConfigError("non-finite amplitude")

    @property
    def n_qubits(self):
        return len(self.labels)

    @property
    def norm(self):
        return float(np.linalg.norm(self.amps))

    def axis(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError("no qubit labeled %r" % (label,)) from None

    @classmethod
    def computational(cls, bits, labels):
        """Basis state |bits> on the given labels."""
        bits = tuple(int(b) for b in bits)
        if len(bits) != len(labels):
            raise LabelError("bit count does not match label count")
        idx = 0
        for b in bits:
            idx = (idx << 1) | (b & 1)
        amps = np.zeros(2 ** len(labels), dtype=complex)
        amps[idx] = 1.0
        return cls(amps, tuple(labels))

    @classmethod
    def qubit(cls, alpha, beta, label):
        return cls(np.array([alpha, beta], dtype=complex), (label,))


@dataclass(frozen=True)
class DensityOperator:
    """A density matrix on labeled qubits (kept trace-1 by the callers)."""

    mat: np.ndarray
    labels: tuple

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "labels", tuple(self.labels))
        d = 2 ** len(self.labels)
        if mat.shape != (d, d):
            raise LabelError("matrix shape %r does not fit %d labeled qubits"
                             % (mat.shape, len(self.labels)))
        _check_labels(self.labels)

    @property
    def n_qubits(self):
        return len(self.labels)

    @property
    def trace(self):
        return float(np.trace(self.mat).real)

    @classmethod
    def from_pure(cls, state):
        return cls(np.outer(state.amps, state.amps.conj()), state.labels)


def tensor(a, b):
    """Tensor product; the labels of `a` come first (more significant bits)."""
    labels = a.labels + b.labels
    _check_labels(labels)
    if len(labels) > MAX_QUBITS:
        raise UnsupportedError("tensor product exceeds the dense %d-qubit cap" % MAX_QUBITS)
    return PureState(np.kron(a.amps, b.amps), labels)


def tensor_all(states):
    out = states[0]
    for s in states[1:]:
        out = tensor(out, s)
    return out


def apply_gate(state, matrix, targets):
    """Apply a 2^k x 2^k matrix to the `targets` qubits of `state`.

    `targets` orders the qubits the matrix acts on, most significant first
    (controls first for controlled gates).  The matrix need not be unitary;
    perturbation operators come through here unchanged.
    """
    matrix = np.asarray(matrix, dtype=complex)
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise LabelError("matrix shape %r does not act on %d qubits" % (matrix.shape, k))
    if len(set(targets)) != k:
        raise LabelCollision("repeated gate target in %r" % (targets,))
    n = state.n_qubits
    axes = [state.axis(t) for t in targets]
    t = state.amps.reshape((2,) * n)
    t = np.moveaxis(t, axes, range(k))
    t = (matrix @ t.reshape(2**k, -1)).reshape((2,) * n)
    t = np.moveaxis(t, range(k), axes)
    return PureState(t.reshape(-1), state.labels)


def project(state, bra, subset=None):
    """Contract <bra| against a subset of the qubits of `state`.

    `bra` is given as a PureState; its conjugate is contracted.  Returns the
    (unnormalized) state on the remaining labels, in their original order.
    A full contraction returns a zero-qubit state whose single amplitude is
    the inner-product amplitude.
    """
    if subset is None:
        subset = bra.labels
    subset = tuple(subset)
    if len(subset) != bra.n_qubits:
        raise LabelError("bra on %d qubits cannot project %d labels"
                         % (bra.n_qubits, len(subset)))
    n = state.n_qubits
    k = len(subset)
    axes = [state.axis(s) for s in subset]
    t = state.amps.reshape((2,) * n)
    t = np.moveaxis(t, axes, range(k))
    out = bra.amps.conj() @ t.reshape(2**k, -1)
    remaining = tuple(l for l in state.labels if l not in subset)
    return PureState(out.reshape(-1), remaining)


def partial_trace(rho, keep):
    """Trace out everything but the `keep` labels (returned in `keep` order)."""
    keep = tuple(keep)
    n = rho.n_qubits
    keep_axes = [rho.labels.index(l) if l in rho.labels else -1 for l in keep]
    if -1 in keep_axes:
        raise LabelError("cannot keep a label absent from the operator")
    drop_axes = [i for i in range(n) if rho.labels[i] not in keep]
    t = rho.mat.reshape((2,) * (2 * n))
    for ax in sorted(drop_axes, reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    kept_labels = tuple(l for l in rho.labels if l in keep)
    d = 2 ** len(kept_labels)
    out = DensityOperator(t.reshape(d, d), kept_labels)
    if kept_labels != keep:
        out = _permute_density(out, keep)
    return out


def _permute_density(rho, new_order):
    n = rho.n_qubits
    perm = [rho.labels.index(l) for l in new_order]
    t = rho.mat.reshape((2,) * (2 * n))
    t = np.transpose(t, perm + [p + n for p in perm])
    return DensityOperator(t.reshape(2**n, 2**n), tuple(new_order))


def normalize(state, tol=DEFAULT_PARADOX_TOL):
    """Return (unit state, original norm); raise ParadoxError below `tol`.

    A vanishing norm after post-selection means the loop admits no consistent
    history at all, which is the operational definition of a paradox here.
    """
    n = state.norm
    if n < tol:
        raise ParadoxError("state norm %.3e below paradox tolerance %.3e" % (n, tol))
    return PureState(state.amps / n, state.labels), n
