import math
import warnings

import numpy as np
import pytest

from ctcsim import (Channel, ConfigError, build_circuit, compile_unitary, make_gate,
                    run_exact_bell)
from ctcsim.circuit import Circuit, evolve, with_init
from ctcsim.errors import ArityError, LabelCollision, LabelError
from ctcsim.gates import Gate
from ctcsim.states import PureState, apply_gates

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
], ids=["custom_text", "custom_0d", "custom_nan", "custom_inf", "custom_imag_inf",
        "rot_inf", "rot_nan", "phase_minus_inf", "rot_huge_int"])
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


def test_kernel_leaves_the_callers_amplitudes_alone_under_a_leading_controlled_gate():
    state = PureState(np.full(8, 8**-0.5, dtype=complex), ("a", "b", "c"))
    before = state.amps.copy()
    gates = [make_gate("CZ", ("a", "c")), make_gate("TOFFOLI", ("c", "b", "a"))]
    out = apply_gates(state, [(g.matrix, g.targets, g.controls) for g in gates])
    assert np.array_equal(state.amps, before)
    assert not np.shares_memory(out.amps, state.amps)
    # CZ negates |101> and |111>; the Toffoli on c, b swaps |011> and |111>
    assert np.array_equal(out.amps, 8**-0.5 * np.array([1, 1, 1, -1, 1, -1, 1, 1]))


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
