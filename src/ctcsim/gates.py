"""Gate vocabulary.

All rotations use the real determinant-one convention
ROT(theta) = [[cos, -sin], [sin, cos]], so ROT(pi/2)|0> = |1>.  Controlled
variants put the controls on the leading (most significant) targets and apply
the same block to the last qubit; `make_gate` records their number in
`Gate.controls`, so the gate kernel touches only the all-controls-on slice.
`Gate.form` says how the kernel applies that block: "real" (X, H, ROT and
their controlled forms, TOFFOLI: a real matmul), "diagonal" (Z, PHASE, CZ,
CPHASE: slices scaled in place) or "swap" (SWAP: two axes relabelled).  CUSTOM
and hand-built gates are "dense", the complex matrix, which is always correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArityError, ConfigError, _shown
from .states import DENSE, complex_array

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * 2**-0.5
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _phase(xi):
    return np.diag([1.0, np.exp(1j * xi)]).astype(complex)


def _controlled(block, n_controls):
    """Identity except for `block` on the all-controls-on subspace."""
    k = n_controls + int(np.log2(block.shape[0]))
    mat = np.eye(2**k, dtype=complex)
    b = block.shape[0]
    mat[-b:, -b:] = block
    return mat


# kind -> (arity, controls, parameter names in positional order, block builder, form);
# a gate with c controls is the block on the all-controls-on subspace of its targets,
# and its form says how the kernel applies that block (see states.apply_gates)
_VOCAB = {
    "X": (1, 0, (), lambda: _X, "real"),
    "Z": (1, 0, (), lambda: _Z, "diagonal"),
    "H": (1, 0, (), lambda: _H, "real"),
    "ROT": (1, 0, ("theta",), _rot, "real"),
    "PHASE": (1, 0, ("xi",), _phase, "diagonal"),
    "SWAP": (2, 0, (), lambda: _SWAP, "swap"),
    "CX": (2, 1, (), lambda: _X, "real"),
    "CZ": (2, 1, (), lambda: _Z, "diagonal"),
    "CROT": (2, 1, ("theta",), _rot, "real"),
    "CPHASE": (2, 1, ("xi",), _phase, "diagonal"),
    "CCROT": (3, 2, ("theta",), _rot, "real"),
    "TOFFOLI": (3, 2, (), lambda: _X, "real"),
    "CCCROT": (4, 3, ("theta",), _rot, "real"),
}


def param_names(kind):
    """Parameter names of a vocabulary gate kind, in make_gate's positional order."""
    kind = kind.upper() if isinstance(kind, str) else _shown(kind)
    if kind not in _VOCAB:
        raise ConfigError("unknown gate kind %r" % (kind,))
    return _VOCAB[kind][2]


@dataclass(frozen=True, eq=False)
class Gate:
    """A gate bound to circuit channels (controls listed first); gates compare by identity.

    `controls` counts the leading targets on which `matrix` is the identity
    outside its all-controls-on block; the gate kernel then applies only that
    block, to that slice.  0, the default, is always correct.  `form` says how
    the kernel applies the block (see states.apply_gates).  Only `make_gate`
    sets it, so a gate built by hand or by `dataclasses.replace` stays DENSE.
    """

    kind: str
    targets: tuple
    params: tuple = ()
    matrix: np.ndarray = field(default=None, repr=False)
    unitary: bool = True
    controls: int = 0
    form: tuple = field(default=DENSE, init=False, repr=False)

    def __post_init__(self):  # its own targets and read-only matrix: no edit, ours or the
        object.__setattr__(self, "targets", tuple(self.targets))  # caller's, can leave a
        if self.matrix is not None:  # circuit's kept evolution behind
            matrix = np.array(self.matrix, dtype=complex)
            matrix.setflags(write=False)
            object.__setattr__(self, "matrix", matrix)

    def __setstate__(self, state):  # numpy restores a pickled or deep-copied array
        self.__dict__.update(state)  # writeable: freeze the matrix and form data again
        for data in (self.matrix, self.form[1]):
            if isinstance(data, np.ndarray):
                data.setflags(write=False)


def make_gate(kind, targets, params=(), matrix=None):
    """Build a gate from the vocabulary, or a CUSTOM gate from a matrix.

    CUSTOM matrices are checked for unitarity; a non-unitary matrix is allowed
    (that is how perturbation operators like (1-eps)X + eps*I enter) but the
    gate is flagged so downstream consumers know post-selection weights no
    longer sum to one.
    """
    kind = kind.upper() if isinstance(kind, str) else _shown(kind)
    given = targets
    try:
        targets = tuple(targets)
        repeated = len(set(targets)) != len(targets)
    except TypeError:  # not iterable, or an unhashable target
        raise ConfigError("gate %s targets must be a list of channel labels, got %s"
                          % (kind, _shown(given))) from None
    if repeated:
        raise ConfigError("gate %s has a repeated target in %s" % (kind, _shown(targets)))
    try:
        params = tuple(float(p) for p in params)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("gate parameters must be real numbers: %s" % _shown(params)) from None
    if not all(map(math.isfinite, params)):
        raise ConfigError("gate parameters must be finite real numbers: %r" % (params,))

    if kind == "CUSTOM":
        if matrix is None:
            raise ConfigError("CUSTOM gate requires a matrix")
        matrix = complex_array(matrix, 2, "CUSTOM matrix on %s" % _shown(targets))
        d = matrix.shape[0]
        if matrix.shape != (d, d) or d & (d - 1) or d < 2:
            raise ConfigError("CUSTOM matrix must be square with power-of-two size")
        if not np.isfinite(matrix).all():
            raise ConfigError("CUSTOM matrix on %s has a non-finite entry" % _shown(targets))
        arity = d.bit_length() - 1
        if arity != len(targets):
            raise ArityError(
                "CUSTOM matrix on %d qubits bound to %d targets" % (arity, len(targets))
            )
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: not unitary
            unitary = bool(np.allclose(matrix.conj().T @ matrix, np.eye(d), atol=1e-12))
        return Gate(kind, targets, params, matrix, unitary)

    names = param_names(kind)
    arity, controls, _, builder, form = _VOCAB[kind]
    if len(targets) != arity:
        raise ArityError("%s acts on %d qubits, got %d targets" % (kind, arity, len(targets)))
    if len(params) != len(names):
        raise ConfigError("%s takes %d parameter(s), got %d" % (kind, len(names), len(params)))
    block = builder(*params)
    matrix = _controlled(block, controls) if controls else block
    gate = Gate(kind, targets, params, matrix, True, controls)
    data = (np.ascontiguousarray(block.real) if form == "real"
            else tuple(block.diagonal().tolist()) if form == "diagonal" else None)
    if form == "real":
        data.setflags(write=False)
    object.__setattr__(gate, "form", (form, data))  # the one place a form is claimed
    return gate
