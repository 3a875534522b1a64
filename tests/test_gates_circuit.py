import copy
import dataclasses
import json
import math
import pickle
import warnings

import numpy as np
import pytest

import ctcsim as cs
from ctcsim import Channel, ConfigError, build_circuit, make_gate, run_exact_bell
from ctcsim.circuit import Circuit, evolve, with_init
from ctcsim.cli import parse_circuit_doc
from ctcsim.engine import pair_out_state
from ctcsim.errors import ArityError, LabelCollision, LabelError, _shown
from ctcsim.gates import Gate, param_names
from ctcsim.states import DENSE, PureState, apply_gates
from oracles import compile_unitary

SQ2 = 2**-0.5


def test_rot_matrix_convention():
    g = make_gate("ROT", ("a",), params=(0.3,))
    c, s = math.cos(0.3), math.sin(0.3)
    assert np.allclose(g.matrix, [[c, -s], [s, c]])


def test_cphase_puts_phase_on_11():
    g = make_gate("CPHASE", ("a", "b"), params=(0.7,))
    assert np.allclose(np.diag(g.matrix), [1, 1, 1, np.exp(0.7j)])


def test_controlled_rotations_nest():
    for kind, n in (("CROT", 2), ("CCROT", 3), ("CCCROT", 4)):
        g = make_gate(kind, tuple("abcd"[:n]), params=(0.4,))
        d = 2**n
        mat = g.matrix
        assert np.allclose(mat[: d - 2, : d - 2], np.eye(d - 2))
        block = mat[d - 2 :, d - 2 :]
        c, s = math.cos(0.4), math.sin(0.4)
        assert np.allclose(block, [[c, -s], [s, c]])


def test_arity_mismatch_rejected():
    with pytest.raises(ArityError):
        make_gate("CX", ("a",))


def test_param_count_checked():
    with pytest.raises(ConfigError):
        make_gate("ROT", ("a",))


def test_custom_gate_flags_nonunitary():
    good = make_gate("CUSTOM", ("a",), matrix=np.array([[0, 1], [1, 0]]))
    assert good.unitary
    bad = make_gate("CUSTOM", ("a",), matrix=np.array([[1, 0], [1, 0]]))
    assert not bad.unitary


@pytest.mark.parametrize("matrix, unitary", [
    ([[1e200, 0], [0, 1e200]], False),  # M^dagger M overflows
    ([[1e308, 1e308], [1e308, -1e308]], False),
    ([[SQ2, SQ2 * 1j], [SQ2 * 1j, SQ2]], True),
], ids=["huge_diagonal", "huge_dense", "unitary"])
def test_custom_unitarity_check_raises_no_warning(matrix, unitary):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        assert make_gate("CUSTOM", ("a",), matrix=matrix).unitary is unitary


@pytest.mark.parametrize("kind, params, matrix, message", [
    ("CUSTOM", (), [["a", "b"], ["c", "d"]], "CUSTOM matrix on ('a',) must be"),
    ("CUSTOM", (), 3, "CUSTOM matrix on ('a',) must be"),
    ("CUSTOM", (), [[math.nan, 0], [0, 1]], "CUSTOM matrix on ('a',) has a non-finite"),
    ("CUSTOM", (), [[1, 0], [0, math.inf]], "CUSTOM matrix on ('a',) has a non-finite"),
    ("CUSTOM", (), [[1, 0], [0, complex(0, -math.inf)]], "CUSTOM matrix on ('a',) has a"),
    ("ROT", (math.inf,), None, "gate parameters must be finite real numbers"),
    ("ROT", (math.nan,), None, "gate parameters must be finite real numbers"),
    ("PHASE", (-math.inf,), None, "gate parameters must be finite real numbers"),
    ("ROT", (10**400,), None, "gate parameters must be real numbers"),
    ("CUSTOM", (), None, "CUSTOM gate requires a matrix"),
    ("CUSTOM", (), np.eye(3), "CUSTOM matrix must be square with power-of-two size"),
], ids=["custom_text", "custom_0d", "custom_nan", "custom_inf", "custom_imag_inf",
        "rot_inf", "rot_nan", "phase_minus_inf", "rot_huge_int", "custom_none", "custom_3x3"])
def test_bad_gate_inputs_are_config_errors(kind, params, matrix, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        with pytest.raises(ConfigError) as info:
            make_gate(kind, ("a",), params=params, matrix=matrix)
    assert str(info.value).startswith(message)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        make_gate("FROB", ("a",))


def simple_loop():
    return build_circuit(
        [Channel("tm", looped=True), Channel("sys", init=(0.8, 0.6))],
        [make_gate("SWAP", ("tm", "sys"))],
    )


def test_circuit_label_partition():
    c = simple_loop()
    assert c.loop_labels == ("tm",)
    assert c.external_labels == ("sys",)


def test_a_circuit_splits_its_channels_once_and_its_copies_carry_the_split():
    c = simple_loop()
    assert c.labels is c.labels and c.loop_labels is c.loop_labels
    assert c.external_labels is c.external_labels
    assert [f.name for f in dataclasses.fields(Circuit)] == ["channels", "gates", "entangled"]
    assert "loop_labels" not in repr(c)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.loop_labels = ("sys",)
    cs.run_exact_bell(c)  # keeps an evolution on c
    for twin in (pickle.loads(pickle.dumps(c)), copy.copy(c)):
        assert not hasattr(twin, "_pairs")
        assert (twin.labels, twin.loop_labels, twin.external_labels) == (
            ("tm", "sys"), ("tm",), ("sys",))
    swapped = dataclasses.replace(c, channels=(Channel("tm"), Channel("sys", looped=True)))
    assert (swapped.loop_labels, swapped.external_labels) == (("sys",), ("tm",))


def test_duplicate_labels_rejected():
    with pytest.raises(ConfigError):
        build_circuit([Channel("a"), Channel("a")])


def test_named_init_accepted():
    c = build_circuit([Channel("a", init="+")])
    assert c.channel("a").init[0] == pytest.approx(SQ2)


def test_unnormalized_init_rejected():
    with pytest.raises(ConfigError):
        build_circuit([Channel("a", init=(1.0, 1.0))])


def test_gate_on_unknown_channel_rejected():
    with pytest.raises(ConfigError):
        build_circuit([Channel("a")], [make_gate("X", ("b",))])


def test_gate_on_reference_qubit_rejected():
    with pytest.raises(ConfigError):
        build_circuit(
            [Channel("tm", looped=True)], [make_gate("X", ("tm.ref",))]
        )


def test_reserved_label_rejected():
    with pytest.raises(ConfigError):
        Channel("tm.ref")


def test_looped_channel_cannot_carry_init():
    with pytest.raises(ConfigError):
        Channel("tm", looped=True, init=(1.0, 0.0))


def test_entangled_group_excludes_product_init():
    with pytest.raises(ConfigError):
        build_circuit(
            [Channel("a", init=(1.0, 0.0)), Channel("b")],
            entangled=[(("a", "b"), np.array([SQ2, 0, 0, SQ2]))],
        )


def test_with_init_replaces_state():
    c = with_init(simple_loop(), "sys", (0.0, 1.0))
    assert c.channel("sys").init == (0.0, 1.0)


def test_compile_unitary_matches_gate_order():
    c = build_circuit(
        [Channel("a", init=(1.0, 0.0)), Channel("b")],
        [make_gate("H", ("a",)), make_gate("CX", ("a", "b"))],
    )
    u = compile_unitary(c)
    psi = u @ np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(psi, [SQ2, 0, 0, SQ2])


def test_compile_unitary_is_unitary():
    u = compile_unitary(simple_loop())
    assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]))


# the gate kernel ---------------------------------------------------------------
# A Circuit and Gate built directly skip build_circuit and make_gate, so only
# the kernel's own checks stand between these gates and the amplitudes.

@pytest.mark.parametrize("gate, error, message", [
    (Gate("X", ("c",), matrix=np.eye(2)), LabelError, "no qubit labeled 'c'"),
    (Gate("X", ("a",), matrix=np.eye(4)), LabelError,
     r"matrix shape \(4, 4\) does not act on 1 qubits"),
    (Gate("CX", ("a", "a"), matrix=np.eye(4)), LabelCollision,
     r"repeated gate target in \('a', 'a'\)"),
], ids=["unknown_target", "wrong_shape", "repeated_target"])
def test_kernel_rejects_bad_gates_of_a_directly_built_circuit(gate, error, message):
    circuit = Circuit((Channel("tm", looped=True), Channel("a"), Channel("b")),
                      (make_gate("H", ("a",)), gate))
    with pytest.raises(error, match=message):
        evolve(circuit.initial_external_state(), circuit)
    with pytest.raises(error, match=message):
        run_exact_bell(circuit)


def test_kernel_reports_an_overflowing_gate_as_one_config_error():
    """The wrap at the end of the kernel is the only finiteness check."""
    grow = make_gate("CUSTOM", ("tm",), matrix=[[1e150, 0], [0, 1e150]])
    circuit = build_circuit([Channel("tm", looped=True), Channel("a")], [grow] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        with pytest.raises(ConfigError, match="^non-finite amplitude$"):
            run_exact_bell(circuit)


FORMS = {"X": "real", "Z": "diagonal", "H": "real", "ROT": "real", "PHASE": "diagonal",
         "SWAP": "swap", "CX": "real", "CZ": "diagonal", "CROT": "real", "CPHASE": "diagonal",
         "CCROT": "real", "TOFFOLI": "real", "CCCROT": "real", "CUSTOM": "dense"}
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])


@pytest.mark.parametrize("kind, controls", [
    ("X", 0), ("Z", 0), ("H", 0), ("ROT", 0), ("PHASE", 0), ("SWAP", 0), ("CX", 1), ("CZ", 1),
    ("CROT", 1), ("CPHASE", 1), ("CCROT", 2), ("TOFFOLI", 2), ("CCCROT", 3), ("CUSTOM", 0)])
def test_make_gate_records_the_controls_of_its_matrix(kind, controls):
    arity = {"SWAP": 2, "CCROT": 3, "TOFFOLI": 3, "CCCROT": 4}.get(kind, 1 + kind.startswith("C"))
    matrix = np.eye(2**arity) if kind == "CUSTOM" else None
    params = (0.3,) * ("ROT" in kind or "PHASE" in kind)
    gate = make_gate(kind, "abcd"[:arity], params, matrix=matrix)
    assert gate.controls == controls
    b = 2 ** (arity - controls)  # identity outside the trailing block
    assert np.array_equal(gate.matrix[:-b, :-b], np.eye(2**arity - b))
    assert not gate.matrix[:-b, -b:].any() and not gate.matrix[-b:, :-b].any()
    # the form the kernel applies is the block's own: its diagonal, its real part,
    # a relabel only for the SWAP matrix, else the whole matrix
    form, data = gate.form
    block = gate.matrix[-b:, -b:]
    assert form == FORMS[kind]
    if form == "diagonal":
        assert b == 2 and np.array_equal(np.diag(data), block)
        assert np.array_equal(data, np.diagonal(block))
    if form == "real":
        assert np.array_equal(data, block.real) and not block.imag.any()
        assert data.flags.c_contiguous
    assert (form == "swap") == np.array_equal(gate.matrix, SWAP)
    if form == "dense":
        assert gate.form == DENSE
    by_hand = Gate(gate.kind, gate.targets, gate.params, gate.matrix, gate.unitary, controls)
    for copy in (by_hand, dataclasses.replace(gate)):  # neither can claim a form
        assert copy.form == DENSE and copy.controls == controls


def test_kernel_leaves_the_callers_amplitudes_alone_under_a_leading_controlled_gate():
    state = PureState(np.full(8, 8**-0.5, dtype=complex), ("a", "b", "c"))
    before = state.amps.copy()
    gates = [make_gate("CZ", ("a", "c")), make_gate("TOFFOLI", ("c", "b", "a"))]
    out = apply_gates(state, [(g.matrix, g.targets, g.controls, g.form) for g in gates])
    assert np.array_equal(state.amps, before)
    assert not np.shares_memory(out.amps, state.amps)
    # CZ negates |101> and |111>; the Toffoli on c, b swaps |011> and |111>
    assert np.array_equal(out.amps, 8**-0.5 * np.array([1, 1, 1, -1, 1, -1, 1, 1]))
    # a diagonal gate writes in place and a SWAP only relabels: neither may reach
    # the caller's array, first in the list or alone
    state = PureState(np.arange(1, 9) * (1 + 1j) / math.sqrt(408), ("a", "b", "c"))
    before = state.amps.copy()
    for gates in ([make_gate("PHASE", ("b",), (0.9,)), make_gate("H", ("a",))],
                  [make_gate("CPHASE", ("c", "a"), (1.7,)), make_gate("CX", ("a", "b"))],
                  [make_gate("SWAP", ("a", "c")), make_gate("CZ", ("b", "c"))],
                  [make_gate("SWAP", ("c", "b")), make_gate("SWAP", ("b", "c"))]):
        out = apply_gates(state, [(g.matrix, g.targets, g.controls, g.form) for g in gates])
        assert np.array_equal(state.amps, before)
        assert not np.shares_memory(out.amps, state.amps)
        u = compile_unitary(build_circuit([Channel(x) for x in "abc"], gates))
        assert np.max(np.abs(out.amps - u @ before)) <= 1e-15


def test_kernel_evolves_a_directly_built_gate_as_its_matrix_says():
    # named like CX but neither controlled nor unitary: controls defaults to 0,
    # so the kernel applies the whole matrix and reads nothing into the kind
    matrix = np.random.default_rng(5).normal(size=(4, 4)) + 0.5j
    gate = Gate("CX", ("b", "a"), matrix=matrix)
    circuit = Circuit((Channel("a", init=(0.6, 0.8)), Channel("b", init=(SQ2, -SQ2))),
                      (make_gate("H", ("a",)), gate, make_gate("CX", ("a", "b"))))
    out = evolve(circuit.initial_external_state(), circuit)
    expected = compile_unitary(circuit) @ np.kron([0.6, 0.8], [SQ2, -SQ2])
    assert gate.controls == 0
    assert np.max(np.abs(out.amps - expected)) <= 1e-15


@pytest.mark.parametrize("controls", [3, 2, 1.5, -1])
def test_kernel_rejects_controls_that_are_not_a_whole_number_below_the_target_count(controls):
    gate = Gate("CX", ("b", "a"), matrix=make_gate("CX", ("b", "a")).matrix, controls=controls)
    circuit = Circuit((Channel("tm", looped=True), Channel("a"), Channel("b")), (gate,))
    message = r"gate on \('b', 'a'\) has controls %s, not a whole number in \[0, 2\)" % controls
    with pytest.raises(LabelError, match=message):
        evolve(circuit.initial_external_state(), circuit)
    with pytest.raises(LabelError, match=message):
        run_exact_bell(circuit)


# every vocabulary kind, each form among them, on 5 to 10 qubits
FORM_GATES = {"X": 1, "Z": 1, "H": 1, "ROT": 1, "PHASE": 1, "SWAP": 2, "CX": 2, "CZ": 2,
              "CROT": 2, "CPHASE": 2, "CCROT": 3, "TOFFOLI": 3, "CCCROT": 4}


def _form_circuit(seed):
    """Random loop circuit: every kind twice, with controls taken from the leading,
    middle or trailing channels, and a SWAP before and after each controlled gate."""
    rng = np.random.default_rng(seed)
    n = 5 + seed % 6
    n_loops = 1 + seed % 3
    channels = [Channel("t%d" % i, looped=True) for i in range(n_loops)]
    channels += [Channel("e%d" % i, init=(math.cos(i + 0.3), math.sin(i + 0.3)))
                 for i in range(n - n_loops)]
    channels = [channels[i] for i in rng.permutation(n)]
    labels = [c.label for c in channels]
    gates = []
    for kind in [*rng.permutation(list(FORM_GATES)), *rng.permutation(list(FORM_GATES))]:
        arity = FORM_GATES[kind]
        where = rng.integers(3)  # 0: leading, 1: middle, 2: trailing channels
        start = (0, (n - arity) // 2, n - arity - 1)[where]
        targets = tuple(rng.choice(labels[start:start + arity + 1], arity, replace=False))
        params = tuple(rng.uniform(-math.pi, math.pi, len(param_names(kind))))
        gate = make_gate(kind, targets, params)
        swaps = [make_gate("SWAP", tuple(rng.choice(labels, 2, replace=False)))
                 for _ in range(2 * (gate.controls > 0))]
        gates += [*swaps[:1], gate, *swaps[1:]]
    return build_circuit(channels, gates)


@pytest.mark.parametrize("seed", range(12))
def test_every_form_evolves_as_its_dense_matrix(seed):
    circuit = _form_circuit(seed)
    assert {g.form[0] for g in circuit.gates} == {"real", "diagonal", "swap"}
    dense = dataclasses.replace(circuit, gates=tuple(
        Gate(g.kind, g.targets, g.params, g.matrix, g.unitary, g.controls)
        for g in circuit.gates))
    assert {g.form for g in dense.gates} == {DENSE}
    rng = np.random.default_rng(seed + 100)
    amps = rng.normal(size=2**len(circuit.labels)) + 1j * rng.normal(size=2**len(circuit.labels))
    random_state = PureState(amps / np.linalg.norm(amps), circuit.labels)
    expected = compile_unitary(circuit) @ random_state.amps
    for state in (random_state, pair_out_state(circuit)):
        by_form, by_matrix = evolve(state, circuit), evolve(state, dense)
        assert np.max(np.abs(by_form.amps - by_matrix.amps)) <= 1e-15
    for c in (circuit, dense):
        assert np.max(np.abs(evolve(random_state, c).amps - expected)) <= 1e-15


def test_kernel_reports_an_overflowing_controlled_gate_as_one_config_error():
    """The in-place path of a controlled gate is checked by the same final wrap."""
    grow = Gate("CBIG", ("a", "tm"), matrix=np.diag([1, 1, 1e150, 1e150]), controls=1)
    circuit = Circuit((Channel("tm", looped=True), Channel("a", init=(0.0, 1.0))), (grow,) * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        with pytest.raises(ConfigError, match="^non-finite amplitude$"):
            run_exact_bell(circuit)


def test_a_directly_built_entangled_group_of_the_wrong_length_is_a_label_error():
    circuit = Circuit((Channel("tm", looped=True), Channel("a"), Channel("b")),
                      entangled=((("a", "b"), (1.0, 0.0)),))
    for call in (circuit.initial_external_state, lambda: run_exact_bell(circuit)):
        with pytest.raises(LabelError, match="length 2 does not fit 2 labeled qubits"):
            call()


# input states ------------------------------------------------------------------


def _entangled(amps):
    return build_circuit([Channel("a"), Channel("b")], entangled=[(("a", "b"), amps)])


def _pair(chi):
    loop = build_circuit([Channel("tm", looped=True), Channel("ex", init=(0.8, 0.6))],
                         [make_gate("CX", ("tm", "ex"))])
    return run_exact_bell(loop, pair_states={"tm": chi})


# (case, call, the input its error names); each of these once escaped as a bare
# Python exception or a numpy warning, or was accepted
INPUT_STATE_PROBES = [
    ("init_text", lambda: Channel("a", init=("x", 0)), "channel 'a' init"),
    ("init_number", lambda: Channel("a", init=5), "channel 'a' init"),
    ("init_numeric_text", lambda: Channel("a", init=("1", "0")), "channel 'a' init"),
    ("init_huge_int", lambda: Channel("a", init=(10**400, 0)), "channel 'a' init"),
    ("init_nested", lambda: Channel("a", init=([1], [0])), "channel 'a' init"),
    ("entangled_nan", lambda: _entangled([math.nan, 0, 0, SQ2]),
     "entangled init on ('a', 'b')"),
    ("entangled_huge", lambda: _entangled([1e200, 0, 0, 1e200]),
     "entangled init on ('a', 'b')"),
    ("entangled_text", lambda: _entangled("abcd"), "entangled init on ('a', 'b')"),
    ("entangled_none", lambda: _entangled(None), "entangled init on ('a', 'b')"),
    ("entangled_numeric_text", lambda: _entangled(["1", "0", "0", "0"]),
     "entangled init on ('a', 'b')"),
    ("entangled_ragged", lambda: _entangled([1, [0, 0], 0]), "entangled init on ('a', 'b')"),
    ("pair_text", lambda: _pair("abcd"), "pair state for 'tm'"),
    ("pair_huge", lambda: _pair([1e200, 0, 0, 1e200]), "pair state for 'tm'"),
    ("pair_numeric_text", lambda: _pair(["1", "0", "0", "0"]), "pair state for 'tm'"),
    ("pair_ragged", lambda: _pair([1, [0], 0, 0]), "pair state for 'tm'"),
]


@pytest.mark.parametrize("case, call, name", INPUT_STATE_PROBES,
                         ids=[p[0] for p in INPUT_STATE_PROBES])
def test_bad_input_states_are_config_errors_naming_the_input(case, call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        with pytest.raises(ConfigError) as info:
            call()
    assert str(info.value).startswith(name + " ")


_ONE = [Channel("a")]


# (case, call, the argument its error names, that argument); each once escaped as a bare
# TypeError, AttributeError or ValueError
LIST_ARGUMENT_PROBES = [
    ("channels_none", lambda: build_circuit(None), "channels", None),
    ("channels_text", lambda: build_circuit("ab"), "channels", "ab"),
    ("gates_none", lambda: build_circuit(_ONE, None), "gates", None),
    ("gates_text", lambda: build_circuit(_ONE, "ab"), "gates", "ab"),
    ("entangled_none", lambda: build_circuit(_ONE, (), None), "entangled", None),
    ("entangled_text", lambda: build_circuit(_ONE, (), "ab"), "entangled", "ab"),
    ("targets_none", lambda: make_gate("X", None), "gate X targets", None),
    ("targets_number", lambda: make_gate("X", 5), "gate X targets", 5),
    ("channels_nested", lambda: build_circuit([[1]]), "channels", [[1]]),
    ("entangled_nested", lambda: build_circuit(_ONE, (), [[1]]), "entangled", [[1]]),
    ("targets_nested", lambda: make_gate("X", [[1]]), "gate X targets", [[1]]),
    ("circuit_channels_none", lambda: Circuit(None), "channels", None),
    ("circuit_channels_text", lambda: Circuit("x"), "channels", "x"),
    ("circuit_channels_nested", lambda: Circuit([[1]]), "channels", [[1]]),
    ("circuit_gates_none", lambda: Circuit(_ONE, None), "gates", None),
    ("circuit_gates_text", lambda: Circuit(_ONE, "ab"), "gates", "ab"),
    ("circuit_entangled_none", lambda: Circuit(_ONE, (), None), "entangled", None),
    ("circuit_entangled_text", lambda: Circuit(_ONE, (), "x"), "entangled", "x"),
    ("circuit_entangled_nested", lambda: Circuit(_ONE, (), [[1]]), "entangled", [[1]]),
]


@pytest.mark.parametrize("case, call, name, value", LIST_ARGUMENT_PROBES,
                         ids=[p[0] for p in LIST_ARGUMENT_PROBES])
def test_a_constructor_argument_that_is_no_list_is_a_config_error_naming_it(case, call, name,
                                                                            value):
    with pytest.raises(ConfigError) as info:
        call()
    message = str(info.value)
    assert message.startswith(name + " must be a list of ")
    assert message.endswith(", got " + _shown(value))


@pytest.mark.parametrize("looped", ["no", [0], 1, None], ids=["text", "list", "int", "none"])
def test_a_looped_flag_that_is_not_a_bool_is_a_config_error(looped):
    with pytest.raises(ConfigError) as info:
        Channel("tm", looped=looped)
    assert str(info.value) == "looped must be true or false, got " + _shown(looped)


def test_a_numpy_bool_looped_flag_is_a_bool():
    assert build_circuit([Channel("tm", np.True_), Channel("a", np.False_)]).loop_labels == ("tm",)


@pytest.mark.parametrize("amps, message", [
    ((1.0, 0.0, 0.0), "must hold 2 amplitudes"),
    ((0.9, 0.9j), "has norm 1.272792 != 1"),
    ((1.5, 0.0), "has an amplitude above 1 in modulus"),
    ((math.inf, 0.0), "has a non-finite amplitude"),
], ids=["length", "norm", "entry_above_one", "infinite"])
def test_channel_init_errors_say_what_is_wrong(amps, message):
    with pytest.raises(ConfigError, match="^channel 'a' init " + message):
        Channel("a", init=amps)


def test_entangled_group_is_laid_out_in_declaration_order():
    # the group ("c", "a") holds |0>_c (0.6|0> + 0.8|1>)_a; b sits between them
    c = build_circuit([Channel("a"), Channel("b", init=(0.6, 0.8)), Channel("c")],
                      entangled=[(("c", "a"), [0.6, 0.8, 0.0, 0.0])])
    state = c.initial_external_state()
    assert state.labels == ("a", "b", "c")
    assert np.allclose(state.amps, [0.36, 0, 0.48, 0, 0.48, 0, 0.64, 0], atol=1e-15)


def test_gates_compare_by_identity_and_circuits_compare_without_raising():
    doc = json.dumps({
        "channels": [{"name": "tm", "role": "ctc"}, {"name": "a"}, {"name": "b"}],
        "entangled_inits": [{"channels": ["a", "b"], "amplitudes": [0.6, 0, 0, 0, 0, 0, 0.8, 0]}],
        "gates": [{"kind": "ROT", "targets": ["a"], "params": {"theta": 0.3}},
                  {"kind": "CX", "targets": ["a", "tm"]}],
    })
    first, second = parse_circuit_doc(doc)[0], parse_circuit_doc(doc)[0]
    assert first == first
    assert first != second  # the same document, but gates built anew
    assert dataclasses.replace(first, gates=()) == dataclasses.replace(second, gates=())
    gate = make_gate("ROT", ("a",), (0.3,))
    assert hash(gate) == hash(gate) and gate == gate
    assert gate != make_gate("ROT", ("a",), (0.3,))
    assert len({gate, make_gate("ROT", ("a",), (0.3,))}) == 2


# one evolution per circuit -------------------------------------------------------
# `evolve` applies a circuit's gates to a state in one kernel pass.  The engine
# evolves a circuit's pair state once, in `_evolved_pairs`, and keeps the read-only
# result on the circuit, so every later run of any model only contracts it.

LOOP_GRID = ((1, 6), (3, 8), (5, 4), (6, 2), (7, 0))  # (looped, external), to the cap


def _grid_circuit(seed, m, e, n_gates=30):
    """A seeded random circuit of vocabulary gates on m loops and e externals."""
    rng = np.random.default_rng(seed)
    channels = [Channel("l%d" % i, looped=True) for i in range(m)]
    channels += [Channel("e%d" % i, init=(math.cos(i + 0.3), math.sin(i + 0.3)))
                 for i in range(e)]
    labels = [c.label for c in channels]
    kinds = [k for k, arity in FORM_GATES.items() if arity <= len(labels)]
    gates = []
    for kind in rng.choice(kinds, n_gates):
        params = tuple(rng.uniform(-math.pi, math.pi, len(param_names(kind))))
        targets = tuple(rng.choice(labels, FORM_GATES[kind], replace=False))
        gates.append(make_gate(kind, targets, params))
    return build_circuit(channels, gates)


def _by_unitary(u, labels, state):
    """`u` on the `labels` axes of `state` (most significant first), identity on the rest."""
    n, k = state.n_qubits, len(labels)
    axes = [state.labels.index(label) for label in labels]
    t = np.moveaxis(state.amps.reshape((2,) * n), axes, range(k))
    t = (u @ t.reshape(2**k, -1)).reshape(t.shape)
    return np.moveaxis(t, range(k), axes).reshape(-1)


MODELS = (cs.ExactBell(), cs.NoisyBell(0.2), cs.Classical(0.3), cs.WeightMatrix("quad"),
          cs.DeltaQuadrature())


def _same_result(a, b):
    assert (a.model, a.z, a.n) == (b.model, b.z, b.n)
    assert np.array_equal(a.rho.mat, b.rho.mat)
    assert (a.rho_loop is None) == (b.rho_loop is None)
    assert a.rho_loop is None or np.array_equal(a.rho_loop.mat, b.rho_loop.mat)


def _counting(monkeypatch, *names):
    """Count the calls of each named engine function; returns the name -> count dict."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(cs.engine, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cs.engine, name, counted)
    return counts


@pytest.mark.parametrize("m, e", LOOP_GRID)
def test_a_circuit_evolved_twice_evolves_as_a_fresh_one_and_as_its_unitary(m, e):
    circuit, fresh = _grid_circuit(10 * m + e, m, e), _grid_circuit(10 * m + e, m, e)
    state = pair_out_state(circuit)
    first, second = evolve(state, circuit), evolve(state, circuit)
    assert np.array_equal(first.amps, second.amps)
    assert np.array_equal(second.amps, evolve(state, fresh).amps)
    expected = _by_unitary(compile_unitary(circuit), circuit.labels, state)
    assert np.max(np.abs(second.amps - expected)) <= 1e-12


def test_one_circuit_evolves_in_each_label_layout():
    # the loop is touched by no gate, so the external register alone can evolve too
    ext = [Channel("a", init=(0.6, 0.8)), Channel("b", init="+"), Channel("c", init=(0.8, -0.6))]
    gates = [make_gate("H", ("a",)), make_gate("SWAP", ("a", "c")), make_gate("CX", ("c", "b")),
             make_gate("CPHASE", ("b", "a"), (0.4,)), make_gate("TOFFOLI", ("a", "b", "c"))]
    circuit = build_circuit([ext[0], Channel("tm", looped=True), *ext[1:]], gates)
    u = compile_unitary(build_circuit(ext, gates))
    states = (pair_out_state(circuit), circuit.initial_external_state())
    assert states[0].labels != states[1].labels
    for state in (*states, *states):  # each layout twice, alternating
        out = evolve(state, circuit)
        assert out.labels == state.labels
        assert np.array_equal(out.amps, evolve(state, dataclasses.replace(circuit)).amps)
        assert np.max(np.abs(out.amps - _by_unitary(u, "abc", state))) <= 1e-15


def test_a_bad_gate_raises_on_every_call_so_no_partial_evolution_is_kept():
    bad = Gate("X", ("a",), matrix=np.eye(4))
    circuit = Circuit([Channel("tm", looped=True), Channel("a")], [make_gate("H", ("a",)), bad])
    for _ in range(3):
        with pytest.raises(LabelError, match=r"matrix shape \(4, 4\) does not act on 1 qubits"):
            evolve(pair_out_state(circuit), circuit)
        with pytest.raises(LabelError, match=r"matrix shape \(4, 4\) does not act on 1 qubits"):
            run_exact_bell(circuit)


def test_five_model_runs_on_one_circuit_evolve_it_once(monkeypatch):
    counts = _counting(monkeypatch, "evolve", "pair_out_state")  # one kernel pass each
    circuit = _grid_circuit(7, 1, 3)
    first = [model.run(circuit) for model in MODELS]
    second = [model.run(circuit) for model in MODELS]  # each reads the kept evolution
    assert counts == {"evolve": 1, "pair_out_state": 1}
    fresh = [model.run(_grid_circuit(7, 1, 3)) for model in MODELS]  # an equal circuit
    for a, b, c in zip(first, second, fresh):
        _same_result(a, b)
        _same_result(b, c)


def test_a_hand_built_circuit_holds_tuples_so_its_evolution_cannot_go_stale():
    channels, gates = [Channel("a"), Channel("b")], [make_gate("X", ("a",))]
    circuit = Circuit(channels, gates, [])
    assert (type(circuit.channels), type(circuit.gates), type(circuit.entangled)) == (tuple,) * 3
    assert np.array_equal(evolve(circuit.initial_external_state(), circuit).amps, [0, 0, 1, 0])
    gates.append(make_gate("X", ("b",)))  # the caller's list, not the circuit's
    out = evolve(circuit.initial_external_state(), circuit).amps
    assert np.array_equal(out, compile_unitary(circuit) @ [1, 0, 0, 0])


def test_gate_arrays_are_read_only_but_the_callers_array_is_not():
    circuit = build_circuit([Channel("tm", looped=True)], [make_gate("ROT", ("tm",), (0.7,))])
    with pytest.raises(ValueError, match="read-only"):
        circuit.gates[0].matrix[:] = np.eye(2)
    with pytest.raises(ValueError, match="read-only"):
        circuit.gates[0].form[1][:] = np.eye(2)
    assert np.allclose(compile_unitary(circuit), make_gate("ROT", ("tm",), (0.7,)).matrix)
    for kind in FORM_GATES:  # a shared vocabulary block cannot be reached through a gate
        gate = make_gate(kind, "abcd"[:FORM_GATES[kind]], (0.3,) * len(param_names(kind)))
        assert not gate.matrix.flags.writeable
    mine = np.eye(2, dtype=complex)
    gate = Gate("Y", ("a",), matrix=mine)
    assert mine.flags.writeable and not gate.matrix.flags.writeable
    assert not np.shares_memory(mine, gate.matrix)  # the gate's own copy
    rows = [[0, 1], [1, 0]]  # nested lists become the gate's own array
    gate = Gate("Y", ("a",), matrix=rows)
    rows[0][0] = 5
    assert np.array_equal(gate.matrix, [[0, 1], [1, 0]]) and not gate.matrix.flags.writeable


def test_each_copy_of_a_circuit_evolves_afresh(monkeypatch):
    counts = _counting(monkeypatch, "evolve")
    circuit = _grid_circuit(8, 1, 3)
    kept = cs.run_noisy_bell(circuit, 0.2)
    copies = (lambda c: with_init(c, "e1", (0.6, 0.8)),
              lambda c: cs.circuit.with_reference(c, "e0"), dataclasses.replace,
              lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy, copy.copy)
    for copy_of in copies:
        before = counts["evolve"]
        twins = [copy_of(circuit) for _ in range(2)]  # two new copies
        runs = [cs.run_noisy_bell(twin, 0.2) for twin in twins]
        assert counts["evolve"] == before + 2  # neither reads the original's evolution
        assert not any(cs.engine._evolved_pairs(twin).flags.writeable for twin in twins)
        _same_result(runs[0], runs[1])
        _same_result(runs[1], cs.run_noisy_bell(copy_of(_grid_circuit(8, 1, 3)), 0.2))
    for copy_of in copies[2:]:  # a copy of the circuit itself runs as the original did
        _same_result(cs.run_noisy_bell(copy_of(circuit), 0.2), kept)
    assert cs.run_noisy_bell(with_init(circuit, "e1", (0.6, 0.8)), 0.2).z != kept.z


def test_a_pickled_or_copied_gate_keeps_its_arrays_read_only():
    circuit = build_circuit([Channel("tm", looped=True), Channel("a", init=(0.6, 0.8))],
                            [make_gate("ROT", ("tm",), (0.7,))])
    for copy_of in (lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy, copy.copy):
        twin = copy_of(circuit)
        z = cs.run_noisy_bell(twin, 0.2).z
        gate = twin.gates[0]
        for write in (lambda: gate.matrix.__setitem__(slice(None), [[0, 1], [1, 0]]),
                      lambda: gate.form[1].__setitem__(slice(None), [[0, 1], [1, 0]])):
            with pytest.raises(ValueError, match="read-only"):
                write()
        assert cs.run_noisy_bell(copy_of(twin), 0.2).z == z
        assert gate.form[0] == "real" and np.array_equal(gate.matrix, circuit.gates[0].matrix)


def test_the_kept_evolution_is_read_only():
    circuit = _grid_circuit(9, 2, 2)
    pairs = cs.engine._evolved_pairs(circuit)
    assert cs.engine._evolved_pairs(circuit) is pairs
    for write in (lambda: pairs.__setitem__((0, 0, 0), 1.0),
                  lambda: pairs.reshape(-1).__setitem__(0, 1.0), lambda: pairs.fill(0.0)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    _same_result(run_exact_bell(circuit), run_exact_bell(_grid_circuit(9, 2, 2)))


def test_a_non_finite_evolution_raises_on_every_call_and_keeps_nothing():
    grow = Gate("BIG", ("a",), matrix=np.diag([1e200, 1e200]))
    circuit = Circuit((Channel("tm", looped=True), Channel("a")), (grow,) * 2)
    for model in MODELS * 2:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            with pytest.raises(ConfigError, match="^non-finite amplitude$"):
                model.run(circuit)


def test_editing_what_a_hand_built_gate_was_given_after_a_run_changes_nothing():
    arr, targets = np.array([[0, 1], [1, 0]], complex), ["tm"]
    circuit = build_circuit([Channel("tm", looped=True), Channel("a", init=(0.6, 0.8))],
                            [Gate("U", targets, matrix=arr)])
    assert cs.run_noisy_bell(circuit, 0.2).z == pytest.approx(0.05, abs=1e-15)
    arr[:] = np.eye(2)  # the caller's array and list, not the gate's
    targets[0] = "a"
    assert not np.shares_memory(arr, circuit.gates[0].matrix)
    assert circuit.gates[0].targets == ("tm",)
    for c in (circuit, dataclasses.replace(circuit)):
        assert cs.run_noisy_bell(c, 0.2).z == pytest.approx(0.05, abs=1e-15)
        assert np.array_equal(compile_unitary(c), np.kron([[0, 1], [1, 0]], np.eye(2)))


def test_editing_a_hand_built_entangled_group_after_a_run_changes_nothing():
    amps = np.array([0.6, 0.0, 0.0, 0.8], complex)
    channels = (Channel("tm", looped=True), Channel("a"), Channel("b"))
    circuit = Circuit(channels, [make_gate("CX", ("a", "tm"))], [(("a", "b"), amps)])
    first = run_exact_bell(circuit)
    amps[:] = [0.8, 0.0, 0.0, 0.6]  # the caller's array, not the circuit's
    for c in (circuit, dataclasses.replace(circuit)):
        _same_result(run_exact_bell(c), first)
        assert np.array_equal(c.initial_external_state().amps, [0.6, 0, 0, 0.8])
    fresh = Circuit(channels, [make_gate("CX", ("a", "tm"))], [(("a", "b"), (0.6, 0, 0, 0.8))])
    _same_result(run_exact_bell(fresh), first)
