"""Gate vocabulary.

All rotations use the real determinant-one convention
ROT(theta) = [[cos, -sin], [sin, cos]], so ROT(pi/2)|0> = |1>.  Controlled
variants put the controls on the leading (most significant) targets and apply
the same block to the last qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArityError, ConfigError
from .states import complex_array

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


# kind -> (arity, parameter names in positional order, matrix builder)
_VOCAB = {
    "X": (1, (), lambda: _X),
    "Z": (1, (), lambda: _Z),
    "H": (1, (), lambda: _H),
    "ROT": (1, ("theta",), _rot),
    "PHASE": (1, ("xi",), _phase),
    "SWAP": (2, (), lambda: _SWAP),
    "CX": (2, (), lambda: _controlled(_X, 1)),
    "CZ": (2, (), lambda: _controlled(_Z, 1)),
    "CROT": (2, ("theta",), lambda th: _controlled(_rot(th), 1)),
    "CPHASE": (2, ("xi",), lambda xi: _controlled(_phase(xi), 1)),
    "CCROT": (3, ("theta",), lambda th: _controlled(_rot(th), 2)),
    "TOFFOLI": (3, (), lambda: _controlled(_X, 2)),
    "CCCROT": (4, ("theta",), lambda th: _controlled(_rot(th), 3)),
}


def param_names(kind):
    """Parameter names of a vocabulary gate kind, in make_gate's positional order."""
    kind = str(kind).upper()
    if kind not in _VOCAB:
        raise ConfigError("unknown gate kind %r" % (kind,))
    return _VOCAB[kind][1]


@dataclass(frozen=True)
class Gate:
    """A gate bound to circuit channels (controls listed first)."""

    kind: str
    targets: tuple
    params: tuple = ()
    matrix: np.ndarray = field(default=None, repr=False)
    unitary: bool = True


def make_gate(kind, targets, params=(), matrix=None):
    """Build a gate from the vocabulary, or a CUSTOM gate from a matrix.

    CUSTOM matrices are checked for unitarity; a non-unitary matrix is allowed
    (that is how perturbation operators like (1-eps)X + eps*I enter) but the
    gate is flagged so downstream consumers know post-selection weights no
    longer sum to one.
    """
    kind = str(kind).upper()
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise ConfigError("gate %s has a repeated target in %r" % (kind, targets))
    try:
        params = tuple(float(p) for p in params)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("gate parameters must be real numbers: %r" % (params,)) from None
    if not all(map(math.isfinite, params)):
        raise ConfigError("gate parameters must be finite real numbers: %r" % (params,))

    if kind == "CUSTOM":
        if matrix is None:
            raise ConfigError("CUSTOM gate requires a matrix")
        matrix = complex_array(matrix, 2, "CUSTOM matrix on %r" % (targets,))
        d = matrix.shape[0]
        if matrix.shape != (d, d) or d & (d - 1) or d < 2:
            raise ConfigError("CUSTOM matrix must be square with power-of-two size")
        if not np.isfinite(matrix).all():
            raise ConfigError("CUSTOM matrix on %r has a non-finite entry" % (targets,))
        arity = d.bit_length() - 1
        if arity != len(targets):
            raise ArityError(
                "CUSTOM matrix on %d qubits bound to %d targets" % (arity, len(targets))
            )
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: not unitary
            unitary = bool(np.allclose(matrix.conj().T @ matrix, np.eye(d), atol=1e-12))
        return Gate(kind, targets, params, matrix, unitary)

    names = param_names(kind)
    arity, _, builder = _VOCAB[kind]
    if len(targets) != arity:
        raise ArityError(
            "%s acts on %d qubits, got %d targets" % (kind, arity, len(targets))
        )
    if len(params) != len(names):
        raise ConfigError(
            "%s takes %d parameter(s), got %d" % (kind, len(names), len(params))
        )
    return Gate(kind, targets, params, builder(*params), True)
