"""Dense state vectors and density operators over labeled qubit registers.

Everything here is plain numpy on full 2^n arrays.  Labels name the qubits;
the first label is the most significant bit, so the basis index of
|b_0 b_1 ... b_{n-1}> is sum_i b_i * 2^(n-1-i).  The hard cap of 14 qubits
keeps the dense representation comfortably inside memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LabelCollision, LabelError, UnsupportedError

MAX_QUBITS = 14
DEFAULT_PARADOX_TOL = 1e-12


def _check_labels(labels):
    if len(set(labels)) != len(labels):
        raise LabelCollision("duplicate qubit labels: %r" % (labels,))


def complex_array(values, ndim, what):
    """`values` as a complex array with `ndim` axes, else ConfigError naming `what`."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting
        arr = np.asarray(None)
    if arr.ndim != ndim or arr.dtype.kind not in "iufc":  # no text, objects or bools
        raise ConfigError("%s must be a %d-d array of numbers" % (what, ndim))
    return arr.astype(complex)


def normalized_amplitudes(values, n_qubits, what):
    """A normalized n-qubit input state, else ConfigError naming `what`.

    An entry above 1 is rejected before the norm is taken, so it cannot overflow.
    """
    amps = complex_array(values, 1, what)
    if amps.size != 2**n_qubits:
        raise ConfigError("%s must hold %d amplitudes" % (what, 2**n_qubits))
    parts = np.abs(amps.view(float))  # real and imaginary parts
    if not np.isfinite(parts).all():
        raise ConfigError("%s has a non-finite amplitude" % (what,))
    if parts.max() > 1.0 + 1e-9:
        raise ConfigError("%s has an amplitude above 1 in modulus" % (what,))
    norm = math.sqrt(parts @ parts)
    if abs(norm - 1.0) > 1e-9:
        raise ConfigError("%s has norm %.6f != 1" % (what, norm))
    return amps


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


def apply_gates(state, gates):
    """Apply (matrix, targets, controls) triples in order to `state`: the one gate kernel.

    `targets` orders the qubits a 2^k x 2^k matrix acts on, most significant
    first; the matrix need not be unitary.  `controls` counts the leading
    targets on which the matrix is the identity outside its trailing
    2^(k - controls) block (0 is always correct).  The kernel keeps one raw
    (2,)*n array and tracks which qubit each of its axes holds, so no gate
    transposes back.  A gate without controls gathers its targets to the front
    and multiplies out of place; they stay in front.  A controlled gate
    multiplies only its block, in place, on the view where every control is 1,
    of a private copy: the caller's amplitudes are never written.  Axes no gate
    touches keep their order, so trailing ones (the reference qubits of the
    engine's start state) move in contiguous runs.  One transpose at the end
    restores label order, and the result is wrapped in a PureState once, so its
    label and finiteness checks (an overflow included) run once per call.
    """
    n = state.n_qubits
    t = state.amps.reshape((2,) * n)
    order, private = list(range(n)), False  # order[p]: the label axis that axis p holds
    with np.errstate(over="ignore", invalid="ignore"):  # the wrap below catches overflow
        for matrix, targets, controls in gates:
            matrix, k = np.asarray(matrix, dtype=complex), len(targets)
            if matrix.shape != (2**k, 2**k):
                raise LabelError("matrix shape %r does not act on %d qubits"
                                 % (matrix.shape, k))
            if len(set(targets)) != k:
                raise LabelCollision("repeated gate target in %r" % (targets,))
            perm = [order.index(state.axis(label)) for label in targets]
            perm += [p for p in range(n) if p not in perm]
            if controls:
                if not private:
                    t, private = t.copy(), True
                b = 2 ** (k - controls)
                view = t.transpose(perm)[(1,) * controls]  # block targets lead
                view[...] = (matrix[-b:, -b:] @ view.reshape(b, -1)).reshape(view.shape)
            else:
                t = (matrix @ t.transpose(perm).reshape(2**k, -1)).reshape((2,) * n)
                order, private = [order[p] for p in perm], True
    return PureState(t.transpose(sorted(range(n), key=order.__getitem__)).reshape(-1),
                     state.labels)


def apply_gate(state, matrix, targets):
    """Apply one 2^k x 2^k matrix to the `targets` qubits of `state` (see apply_gates)."""
    return apply_gates(state, [(matrix, targets, 0)])


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
