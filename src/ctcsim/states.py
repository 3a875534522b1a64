"""Dense state vectors and density operators over labeled qubit registers.

Everything here is plain numpy on full 2^n arrays.  Labels name the qubits;
the first label is the most significant bit, so the basis index of
|b_0 b_1 ... b_{n-1}> is sum_i b_i * 2^(n-1-i).  The hard cap of 14 qubits
keeps the dense representation comfortably inside memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Number

import numpy as np

from .errors import ConfigError, LabelCollision, LabelError, UnsupportedError, _shown

MAX_QUBITS = 14
DEFAULT_PARADOX_TOL = 1e-12
DENSE = ("dense", None)  # the form any gate may take: its whole matrix, as given


def _read_only(a):
    a.setflags(write=False)
    return a


def _made(cls, **fields):
    """A frozen `cls` holding `fields` as given: the engine's own value, not checked again."""
    made = object.__new__(cls)
    made.__dict__.update(fields)
    return made


def _register(labels):
    """`labels` as a tuple of distinct labels within the dense cap, else a typed error."""
    try:
        labels = tuple(labels)
    except TypeError:  # None or another non-sequence
        raise LabelError("qubit labels must be a sequence, got %s" % _shown(labels)) from None
    if len(set(labels)) != len(labels):
        raise LabelCollision("duplicate qubit labels: %s" % _shown(labels))
    if len(labels) > MAX_QUBITS:
        raise UnsupportedError("register of %d qubits exceeds the dense cap of %d"
                               % (len(labels), MAX_QUBITS))
    return labels


def _axis(labels, label):
    try:
        return labels.index(label)
    except ValueError:
        raise LabelError("no qubit labeled %s" % _shown(label)) from None


def complex_array(values, ndim, what):
    """`values` as a complex array with `ndim` axes, else ConfigError naming `what`."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting
        arr = np.asarray(None)
    if arr.ndim != ndim or arr.dtype.kind not in "iufc":  # no text, objects or bools
        raise ConfigError("%s must be a %d-d array of numbers" % (what, ndim))
    return arr.astype(complex)


def _real(value, what):
    """float(value), else ConfigError naming `what`.  numpy's dtype decides: text, bools,
    complex numbers and objects are refused as Python scalars and 0-d arrays alike."""
    try:
        kind = np.asarray(value).dtype.kind
        if kind not in "iuf" and not (kind == "O" and type(value) is int):  # int past int64
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):  # ValueError: a ragged list
        raise ConfigError("%s must be a real number, got %s" % (what, _shown(value))) from None


def _finite(value, what):
    """_real(value, what), else ConfigError unless it is finite."""
    value = _real(value, what)
    if not math.isfinite(value):
        raise ConfigError("%s must be finite, got %r" % (what, value))
    return value


def _unit_interval(value, what):
    """_real(value, what), else ConfigError unless it lies in [0, 1] (nan does not)."""
    value = _real(value, what)
    if not 0.0 <= value <= 1.0:
        raise ConfigError("%s must lie in [0, 1]" % what)
    return value


def normalized_amplitudes(values, n_qubits, what):
    """A normalized n-qubit input state, else ConfigError naming `what`.

    An entry above 1 is rejected before the norm is taken, so it cannot overflow.
    """
    amps = complex_array(values, 1, what)
    if amps.size != 2**n_qubits:
        raise ConfigError("%s must hold %d amplitudes" % (what, 2**n_qubits))
    parts = np.abs(amps.view(float))  # real and imaginary parts
    top = np.maximum.reduce(parts)  # nan if any part is nan
    if not math.isfinite(top):
        raise ConfigError("%s has a non-finite amplitude" % (what,))
    if top > 1.0 + 1e-9:
        raise ConfigError("%s has an amplitude above 1 in modulus" % (what,))
    norm = math.sqrt(parts @ parts)
    if abs(norm - 1.0) > 1e-9:
        raise ConfigError("%s has norm %.6f != 1" % (what, norm))
    return amps


def unit_vector(values, what):
    """`values` as a complex vector of norm 1, else ConfigError naming `what`."""
    parts = complex_array(values, 1, what).view(float)  # [re, im] pairs
    top = np.abs(parts).max(initial=0.0)
    if not 0.0 < top < math.inf:  # nan fails too
        raise ConfigError("%s must be a nonzero finite vector, got %r" % (what, values))
    # scaling by a power of two is exact and keeps the norm from under- or overflowing
    parts = np.ldexp(parts, -math.frexp(top)[1]).view(complex)
    return parts / np.linalg.norm(parts)


def _complex_values(values, what):
    """`values` as a complex array, not copied if it is one, else ConfigError showing them."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in "biufc" and not all(isinstance(v, Number) for v in arr.flat):
            raise TypeError  # numeric text or None, which a complex cast would read
        return arr.astype(complex, copy=False)
    except OverflowError:  # an int past the float range
        raise ConfigError("%s %s exceed the float range" % (what, _shown(values))) from None
    except (TypeError, ValueError):  # text, a dict or another non-number
        raise ConfigError("%s %s are not numbers" % (what, _shown(values))) from None


@dataclass(frozen=True)
class PureState:
    """A (possibly unnormalized) state vector on labeled qubits."""

    amps: np.ndarray
    labels: tuple

    def __post_init__(self):
        amps = _complex_values(self.amps, "amplitudes")
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "labels", _register(self.labels))
        n = len(self.labels)
        if amps.shape != (2**n,):
            raise LabelError("amplitude vector of length %d does not fit %d labeled qubits"
                             % (amps.size, n))
        if not np.isfinite(amps).all():
            raise ConfigError("non-finite amplitude")

    @property
    def n_qubits(self):
        return len(self.labels)

    def axis(self, label):
        return _axis(self.labels, label)


@dataclass(frozen=True)
class DensityOperator:
    """A density matrix on labeled qubits (kept trace-1 by the callers)."""

    mat: np.ndarray
    labels: tuple

    def __post_init__(self):
        mat = _complex_values(self.mat, "matrix entries")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "labels", _register(self.labels))
        d = 2 ** len(self.labels)
        if mat.shape != (d, d):
            raise LabelError("matrix shape %r does not fit %d labeled qubits"
                             % (mat.shape, len(self.labels)))
        if not np.isfinite(mat).all():
            raise ConfigError("non-finite matrix entry")

    @property
    def n_qubits(self):
        return len(self.labels)


@np.errstate(over="ignore", invalid="ignore")  # the one finiteness check below catches overflow
def apply_gates(state, gates):
    """Apply (matrix, targets, controls, form) gates in order to `state`: the one gate kernel.

    `targets` orders the qubits a 2^k x 2^k matrix acts on, most significant
    first; the matrix need not be unitary.  `controls`, a whole number below
    k, counts the leading targets on which the matrix is the identity outside
    its trailing 2^(k - controls) block (0 is always correct).  `form`, a
    (name, data) pair that `make_gate` takes from the vocabulary, says how the
    block is applied: "real" multiplies the gathered amplitudes, as floats, by
    the real block `data`, half the flops of a complex product; "diagonal"
    scales, in place, the slice of each entry of `data` (the diagonal of a
    one-qubit block) that is not 1; "swap" trades the qubits of two axes and
    moves no amplitude.  DENSE, the form of CUSTOM and hand-built gates,
    multiplies the complex block as given and is always correct.

    One pass checks, resolves and applies each gate in turn.  The kernel tracks
    which qubit each axis of its (2,)*n array holds, so no gate transposes back
    and a swap only relabels.  A gate without controls multiplies its gathered
    targets out of place, leaving them in front; a controlled or diagonal one
    writes its slice, where every control is 1, in place.  The kernel copies the
    caller's amplitudes once on entry, so they are never written, nor shared by
    the result.  Untouched axes keep their order, so trailing ones move in
    contiguous runs.  One transpose at the end restores label order.  The state
    was checked where it was made and each gate is checked here, so the result's
    one check is finiteness (an overflow in any gate is one ConfigError); it is
    not validated again as a PureState.
    """
    n = state.n_qubits
    t = state.amps.reshape((2,) * n).copy()  # the kernel owns its array from here
    order = list(range(n))  # order[p]: the label axis that axis p holds
    for matrix, targets, controls, (form, data) in gates:
        matrix, k = np.asarray(matrix, dtype=complex), len(targets)
        if matrix.shape != (2**k, 2**k):
            raise LabelError("matrix shape %r does not act on %d qubits"
                             % (matrix.shape, k))
        if len(set(targets)) != k:
            raise LabelCollision("repeated gate target in %r" % (targets,))
        if controls not in range(k):
            raise LabelError("gate on %r has controls %r, not a whole number in [0, %d)"
                             % (targets, controls, k))
        controls = int(controls)
        perm = [order.index(_axis(state.labels, label)) for label in targets]
        if form == "swap":  # the two axes trade qubits; no amplitude moves
            order[perm[0]], order[perm[1]] = order[perm[1]], order[perm[0]]
            continue
        if form == "diagonal":  # scale the slice of each entry that is not 1
            at = [1 if p in perm[:controls] else slice(None) for p in range(n)]
            for bit, z in enumerate(data):
                if z != 1:
                    at[perm[-1]] = bit
                    t[tuple(at)] *= z
            continue
        perm += [p for p in range(n) if p not in perm]
        b = 2 ** (k - controls)
        view = t.transpose(perm)[(1,) * controls]  # block targets lead
        x = view.reshape(b, -1)
        out = ((data @ np.ascontiguousarray(x).view(float)).view(complex) if form == "real"
               else matrix[-b:, -b:] @ x)
        if controls:
            view[...] = out.reshape(view.shape)
        else:
            t, order = out.reshape(t.shape), [order[p] for p in perm]
    amps = t.transpose(sorted(range(n), key=order.__getitem__)).reshape(-1)
    if not np.isfinite(amps.view(float)).all():
        raise ConfigError("non-finite amplitude")
    return _made(PureState, amps=amps, labels=state.labels)


def apply_gate(state, matrix, targets):
    """Apply one 2^k x 2^k matrix to the `targets` qubits of `state` (see apply_gates)."""
    return apply_gates(state, [(matrix, targets, 0, DENSE)])


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

