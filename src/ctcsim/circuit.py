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

from .errors import ConfigError, LabelError, UnsupportedError, _listed, _shown
from .gates import Gate
from .states import (MAX_QUBITS, PureState, _made, _register, apply_gates, complex_array,
                     normalized_amplitudes)

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
        if not isinstance(self.label, str) or not self.label:
            raise ConfigError("channel label must be a non-empty string")
        if not isinstance(self.looped, (bool, np.bool_)):  # "no" and [0] are truthy too
            raise ConfigError("looped must be true or false, got %s" % _shown(self.looped))
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

    def __post_init__(self):  # its own tuples: no caller's later edit leaves a stale evolution
        channels = _listed(self.channels, "channels must be a list of Channel", Channel)
        vars(self).update(  # frozen: set in place, as object.__setattr__ would
            channels=channels, gates=_listed(self.gates, "gates must be a list of Gate", Gate),
            entangled=_listed(self.entangled, "entangled must be a list of (labels, "
                              "amplitudes) pairs", make=lambda group: _entangled_group(*group)),
            labels=tuple([c.label for c in channels]),  # the split, once
            loop_labels=tuple([c.label for c in channels if c.looped]),
            external_labels=tuple([c.label for c in channels if not c.looped]))

    def __getstate__(self):  # numpy restores a pickled array writeable, so a pickled or
        state = dict(self.__dict__)  # copied circuit keeps nothing _kept: it derives afresh
        state.pop("_kept", None)
        return state

    def channel(self, label):
        for c in self.channels:
            if isinstance(label, str) and c.label == label:  # an array compares elementwise
                return c
        raise LabelError("no channel labeled %s" % _shown(label))

    def initial_external_state(self):
        """The external register, in channel declaration order.

        One outer product of the external inits, each entangled group inserted
        whole where its first channel is declared, then one exact transpose.  Its
        labels are checked here, its amplitudes where they entered (a hand-built
        entangled group's by the gate kernel's finiteness check, when it is evolved).
        """
        labels = _register(self.external_labels)  # before any amplitude is made
        return _made(PureState, amps=self._external_amps(), labels=labels)

    def _external_amps(self):  # initial_external_state's amplitudes
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
        return t.transpose([labels.index(l) for l in self.external_labels]).reshape(-1)


def validate(circuit):
    """Problems of the circuit as (where, description) pairs; empty when it is sound.

    `where` is ("channels", i) for channel i's label, ("gates", i, j) for gate i's
    target j, ("entangled", i, j) for group i's channel j, or ("qubits",) for the cap.
    """
    labels = circuit.labels
    problems = [(("channels", i), "duplicate channel label %r" % (label,))
                for i, label in enumerate(labels) if label in labels[:i]]
    known, inits = set(labels), {c.label: c.init for c in circuit.channels}
    looped = set(circuit.loop_labels)
    n_total = len(labels) + len(looped)  # every looped channel gets a reference partner
    if n_total > MAX_QUBITS:
        problems.append((("qubits",), "circuit needs %d qubits with reference partners, "
                                      "cap is %d" % (n_total, MAX_QUBITS)))
    for i, g in enumerate(circuit.gates):
        for j, t in enumerate(g.targets):
            if t not in known:  # no channel label ends in REF_SUFFIX
                ref = isinstance(t, str) and t.endswith(REF_SUFFIX)
                what = "reference qubit" if ref else "unknown channel"
                problems.append((("gates", i, j), "gate %s targets %s %s"
                                 % (g.kind, what, _shown(t))))
    entangled_seen = set()
    for i, (labels_g, _) in enumerate(circuit.entangled):
        for j, l in enumerate(labels_g):
            where, shown = ("entangled", i, j), _shown(l)
            if l not in known or l in looped:
                problems.append((where, "entangled init names non-external channel %s" % shown))
            if l in entangled_seen:
                problems.append((where, "channel %s appears in two entangled groups" % shown))
            entangled_seen.add(l)
            if inits.get(l) is not None:
                problems.append((where, "channel %s has both a product init and an "
                                        "entangled init" % shown))
    return problems


def _entangled_group(labels, amps):
    labels = tuple(labels)
    try:  # the norm is build_circuit's check; a hand-built Circuit's amplitudes stay as given
        amps = complex_array(amps, 1, "")
    except ConfigError:  # the group is named only on the error path
        amps = complex_array(amps, 1, "entangled init on %s" % _shown(labels))
    return labels, tuple(amps.tolist())


def build_circuit(channels, gates=(), entangled=()):
    """Construct and validate a circuit; raises ConfigError on any problem."""
    circuit = Circuit(channels, gates, entangled)  # checks each part's type
    for labels, amps in circuit.entangled:
        normalized_amplitudes(amps, len(labels), "entangled init on %s" % _shown(labels))
    problems = validate(circuit)
    if problems:
        raise ConfigError("; ".join(text for _, text in problems))
    return circuit


def checked_circuit(circuit):
    """`circuit`, else ConfigError: every name that takes a circuit reads it through this."""
    if not isinstance(circuit, Circuit):
        raise ConfigError("expected a Circuit, got %s" % type(circuit).__name__)
    return circuit


def _kept(circuit, key, make):
    """`make()`, a value the (checked) `circuit` alone determines, kept on it under `key` for
    every later call; a `make` that raises keeps nothing, so it raises again next time."""
    kept = vars(circuit).setdefault("_kept", {})  # a frozen Circuit's dict
    if key not in kept:
        kept[key] = make()
    return kept[key]


def with_init(circuit, label, init):
    """Copy of the circuit with one external channel's init replaced."""
    ch = checked_circuit(circuit).channel(label)
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


def with_reference(circuit, label):
    """Copy of the circuit with external `label` in a Bell pair with a fresh qubit
    "<label>.ref", declared last and touched by no gate; past MAX_QUBITS, UnsupportedError."""
    base = with_init(circuit, label, None)  # refuses a looped or grouped label
    ref = label + REF_SUFFIX
    n_total = len(base.labels) + len(base.loop_labels) + 1
    if n_total > MAX_QUBITS:
        raise UnsupportedError("reference qubit %r of channel %r makes %d qubits with "
                               "reference partners, cap is %d"
                               % (ref, label, n_total, MAX_QUBITS))
    ref_channel = _made(Channel, label=ref, looped=False, init=None)  # Channel() refuses it
    return Circuit((*base.channels, ref_channel), base.gates,
                   (*base.entangled, ((label, ref), (2**-0.5, 0.0, 0.0, 2**-0.5))))


def evolve(state, circuit):
    """Apply the circuit's gates in order to a labeled state (see states.apply_gates)."""
    return apply_gates(state, ((g.matrix, g.targets, g.controls, g.form) for g in circuit.gates))
