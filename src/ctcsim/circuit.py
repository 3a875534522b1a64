"""Circuit description: labeled channels, an optional looped subset, and a gate list.

A "looped" channel is one whose future and past ends get identified by the
post-selection engine; it carries no initial state of its own.  External
channels start in a product state unless they are grouped into an entangled
initial register.  Reference qubits (the engine's bookkeeping partners of the
looped channels, labeled "<name>.ref") are never addressable from a circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LabelError, UnsupportedError
from .states import MAX_QUBITS, PureState, apply_gate, tensor_all

REF_SUFFIX = ".ref"

_NAMED_INITS = {
    "0": (1.0, 0.0),
    "1": (0.0, 1.0),
    "+": (2**-0.5, 2**-0.5),
    "-": (2**-0.5, -(2**-0.5)),
}


@dataclass(frozen=True)
class Channel:
    label: str
    looped: bool = False
    init: tuple = None  # (alpha, beta) for external channels; None => |0>

    def __post_init__(self):
        if not self.label or not isinstance(self.label, str):
            raise ConfigError("channel label must be a non-empty string")
        if self.label.endswith(REF_SUFFIX):
            raise ConfigError(
                "label %r is reserved for engine reference qubits" % (self.label,)
            )
        if self.looped and self.init is not None:
            raise ConfigError(
                "looped channel %r cannot carry an initial state" % (self.label,)
            )
        if self.init is not None:
            object.__setattr__(self, "init", _coerce_qubit_init(self.init, self.label))


def _coerce_qubit_init(init, label):
    if isinstance(init, str):
        try:
            return _NAMED_INITS[init]
        except KeyError:
            raise ConfigError("unknown named state %r on channel %r" % (init, label))
    init = tuple(complex(a) for a in init)
    if len(init) != 2:
        raise ConfigError("channel %r init must be a single-qubit amplitude pair" % label)
    n = abs(init[0]) * abs(init[0]) + abs(init[1]) * abs(init[1])  # ** 2 can overflow
    if not abs(n - 1.0) <= 1e-9:  # also rejects nan
        raise ConfigError("channel %r init has norm %.6f != 1" % (label, n))
    return init


@dataclass(frozen=True)
class Circuit:
    channels: tuple
    gates: tuple = ()
    entangled: tuple = ()  # ((labels...), amps) groups over external channels

    @property
    def labels(self):
        return tuple(c.label for c in self.channels)

    @property
    def loop_labels(self):
        return tuple(c.label for c in self.channels if c.looped)

    @property
    def external_labels(self):
        return tuple(c.label for c in self.channels if not c.looped)

    def channel(self, label):
        for c in self.channels:
            if c.label == label:
                return c
        raise LabelError("no channel labeled %r" % (label,))

    def initial_external_state(self):
        """Product of all external inits (entangled groups inserted whole)."""
        grouped = {}
        for labels, amps in self.entangled:
            for l in labels:
                grouped[l] = (labels, amps)
        factors = []
        seen = set()
        for c in self.channels:
            if c.looped or c.label in seen:
                continue
            if c.label in grouped:
                labels, amps = grouped[c.label]
                factors.append(PureState(np.asarray(amps, dtype=complex), labels))
                seen.update(labels)
            else:
                a, b = c.init if c.init is not None else (1.0, 0.0)
                factors.append(PureState.qubit(a, b, c.label))
                seen.add(c.label)
        if not factors:
            return PureState(np.ones(1, dtype=complex), ())
        return tensor_all(factors)


def validate(circuit):
    """Return a list of problem descriptions (empty when the circuit is sound)."""
    problems = []
    labels = [c.label for c in circuit.channels]
    if len(set(labels)) != len(labels):
        problems.append("duplicate channel labels")
    known = set(labels)
    looped = set(c.label for c in circuit.channels if c.looped)
    n_total = len(labels) + len(looped)  # every looped channel gets a reference partner
    if n_total > MAX_QUBITS:
        problems.append(
            "circuit needs %d qubits with reference partners, cap is %d"
            % (n_total, MAX_QUBITS)
        )
    for g in circuit.gates:
        for t in g.targets:
            if t.endswith(REF_SUFFIX):
                problems.append("gate %s targets reference qubit %r" % (g.kind, t))
            elif t not in known:
                problems.append("gate %s targets unknown channel %r" % (g.kind, t))
    entangled_seen = set()
    for labels_g, amps in circuit.entangled:
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (2 ** len(labels_g),):
            problems.append("entangled init on %r has wrong length" % (labels_g,))
            continue
        if abs(np.linalg.norm(amps) - 1.0) > 1e-9:
            problems.append("entangled init on %r is not normalized" % (labels_g,))
        for l in labels_g:
            if l not in known or l in looped:
                problems.append("entangled init names non-external channel %r" % (l,))
            if l in entangled_seen:
                problems.append("channel %r appears in two entangled groups" % (l,))
            entangled_seen.add(l)
            ch = next((c for c in circuit.channels if c.label == l), None)
            if ch is not None and ch.init is not None:
                problems.append(
                    "channel %r has both a product init and an entangled init" % (l,)
                )
    return problems


def build_circuit(channels, gates=(), entangled=()):
    """Construct and validate a circuit; raises ConfigError on any problem."""
    circuit = Circuit(tuple(channels), tuple(gates), tuple(
        (tuple(labels), tuple(np.asarray(amps, dtype=complex))) for labels, amps in entangled
    ))
    problems = validate(circuit)
    if problems:
        raise ConfigError("; ".join(problems))
    return circuit


def with_init(circuit, label, init):
    """Copy of the circuit with one external channel's init replaced."""
    ch = circuit.channel(label)
    if ch.looped:
        raise ConfigError("channel %r is looped and takes no init" % (label,))
    for labels_g, _ in circuit.entangled:
        if label in labels_g:
            raise ConfigError("channel %r belongs to an entangled init group" % (label,))
    channels = tuple(
        Channel(c.label, c.looped, init) if c.label == label else c
        for c in circuit.channels
    )
    return Circuit(channels, circuit.gates, circuit.entangled)


def compile_unitary(circuit):
    """Full operator of the gate list over the declared channels.

    Basis order follows channel declaration order (first channel = most
    significant bit).  The result is unitary exactly when every gate is.
    """
    labels = circuit.labels
    n = len(labels)
    if n > MAX_QUBITS:
        raise UnsupportedError("cannot compile more than %d qubits densely" % MAX_QUBITS)
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


def evolve(state, circuit):
    """Apply the circuit's gates in order to a labeled state."""
    for g in circuit.gates:
        state = apply_gate(state, g.matrix, g.targets)
    return state
