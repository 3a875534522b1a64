"""Circuit description: labeled channels, an optional looped subset, and a gate list.

A "looped" channel is one whose future and past ends get identified by the
post-selection engine; it carries no initial state of its own.  External
channels start in a product state unless they are grouped into an entangled
initial register.  Reference qubits (the engine's bookkeeping partners of the
looped channels, labeled "<name>.ref") are never addressable from a circuit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LabelError, UnsupportedError
from .states import MAX_QUBITS, PureState, apply_gates, normalized_amplitudes

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
        if isinstance(self.init, str):
            if self.init not in _NAMED_INITS:
                raise ConfigError("unknown named state %r on channel %r"
                                  % (self.init, self.label))
            object.__setattr__(self, "init", _NAMED_INITS[self.init])
        elif self.init is not None:
            amps = normalized_amplitudes(self.init, 1, "channel %r init" % (self.label,))
            object.__setattr__(self, "init", tuple(amps.tolist()))


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
        """The external register, in channel declaration order.

        One outer product of the external inits, each entangled group inserted
        whole where its first channel is declared, then one exact transpose.
        """
        return PureState(*self._external_register())

    def _external_register(self):
        """(amplitudes, labels) of initial_external_state, unchecked by a PureState."""
        grouped = {l: (labels, amps) for labels, amps in self.entangled for l in labels}
        factors, labels = [], []
        for c in self.channels:
            if not (c.looped or c.label in labels):
                group, amps = grouped.get(c.label, ((c.label,), c.init or (1.0, 0.0)))
                amps = np.asarray(amps, dtype=complex)
                if amps.shape != (2 ** len(group),):  # a Circuit built without build_circuit
                    raise LabelError("amplitude vector of length %d does not fit %d labeled "
                                     "qubits" % (amps.size, len(group)))
                factors.append(amps.reshape((2,) * len(group)))
                labels += group
        t = functools.reduce(np.multiply.outer, factors or [np.ones((), dtype=complex)])
        order = self.external_labels
        return t.transpose([labels.index(l) for l in order]).reshape(-1), order


def validate(circuit):
    """Problems of the circuit as (where, description) pairs; empty when it is sound.

    `where` is ("channels", i) for channel i's label, ("gates", i, j) for gate i's
    target j, ("entangled", i, j) for group i's channel j, or ("qubits",) for the cap.
    """
    labels = [c.label for c in circuit.channels]
    problems = [(("channels", i), "duplicate channel label %r" % (label,))
                for i, label in enumerate(labels) if label in labels[:i]]
    known, inits = set(labels), {c.label: c.init for c in circuit.channels}
    looped = set(c.label for c in circuit.channels if c.looped)
    n_total = len(labels) + len(looped)  # every looped channel gets a reference partner
    if n_total > MAX_QUBITS:
        problems.append((("qubits",), "circuit needs %d qubits with reference partners, "
                                      "cap is %d" % (n_total, MAX_QUBITS)))
    for i, g in enumerate(circuit.gates):
        for j, t in enumerate(g.targets):
            if t not in known:  # no channel label ends in REF_SUFFIX
                what = "reference qubit" if t.endswith(REF_SUFFIX) else "unknown channel"
                problems.append((("gates", i, j), "gate %s targets %s %r" % (g.kind, what, t)))
    entangled_seen = set()
    for i, (labels_g, _) in enumerate(circuit.entangled):
        for j, l in enumerate(labels_g):
            where = ("entangled", i, j)
            if l not in known or l in looped:
                problems.append((where, "entangled init names non-external channel %r" % (l,)))
            if l in entangled_seen:
                problems.append((where, "channel %r appears in two entangled groups" % (l,)))
            entangled_seen.add(l)
            if inits.get(l) is not None:
                problems.append((where, "channel %r has both a product init and an "
                                        "entangled init" % (l,)))
    return problems


def _entangled_group(labels, amps):
    labels = tuple(labels)
    what = "entangled init on %r" % (labels,)
    return labels, tuple(normalized_amplitudes(amps, len(labels), what))


def build_circuit(channels, gates=(), entangled=()):
    """Construct and validate a circuit; raises ConfigError on any problem."""
    circuit = Circuit(tuple(channels), tuple(gates),
                      tuple(_entangled_group(*group) for group in entangled))
    problems = validate(circuit)
    if problems:
        raise ConfigError("; ".join(text for _, text in problems))
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
    """Apply the circuit's gates in order to a labeled state, in one kernel call."""
    return apply_gates(state, ((g.matrix, g.targets, g.controls) for g in circuit.gates))
