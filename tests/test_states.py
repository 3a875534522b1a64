import numpy as np
import pytest

from ctcsim.errors import ConfigError, CtcSimError, LabelError, ParadoxError
from ctcsim.states import (
    DensityOperator,
    PureState,
    apply_gate,
    normalize,
    partial_trace,
    project,
    tensor,
    tensor_all,
)

SQ2 = 2**-0.5


def bell(a="x", b="y"):
    return PureState(np.array([SQ2, 0, 0, SQ2], dtype=complex), (a, b))


def test_computational_basis_state():
    s = PureState.computational((1, 0), ("a", "b"))
    assert s.amps[0b10] == 1.0
    assert s.norm == 1.0


def test_tensor_orders_first_factor_most_significant():
    s = tensor(PureState.qubit(0, 1, "hi"), PureState.qubit(1, 0, "lo"))
    assert s.labels == ("hi", "lo")
    assert s.amps[0b10] == 1.0


def test_tensor_rejects_label_collision():
    with pytest.raises(LabelError):
        tensor(PureState.qubit(1, 0, "a"), PureState.qubit(1, 0, "a"))


def test_apply_gate_targets_by_label():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    s = tensor_all([PureState.qubit(1, 0, "a"), PureState.qubit(1, 0, "b")])
    out = apply_gate(s, x, ("b",))
    assert out.amps[0b01] == pytest.approx(1.0)


def test_apply_gate_two_qubit_order():
    # CX with control "a", target "b" should flip b only when a is set
    cx = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    s = PureState.computational((1, 0), ("a", "b"))
    out = apply_gate(s, cx, ("a", "b"))
    assert out.amps[0b11] == pytest.approx(1.0)
    flipped = apply_gate(s, cx, ("b", "a"))
    assert flipped.amps[0b10] == pytest.approx(1.0)


def test_project_contracts_subset():
    s = bell("p", "q")
    bra = PureState.qubit(1, 0, "p")
    out = project(s, bra)
    assert out.labels == ("q",)
    assert out.amps[0] == pytest.approx(SQ2)
    assert out.norm == pytest.approx(SQ2)


def test_project_full_contraction_gives_scalar():
    s = PureState.qubit(SQ2, SQ2, "a")
    out = project(s, PureState.qubit(1, 0, "a"))
    assert out.labels == ()
    assert out.amps.shape == (1,)
    assert out.amps[0] == pytest.approx(SQ2)


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    rho = DensityOperator.from_pure(bell("a", "b"))
    red = partial_trace(rho, ("a",))
    assert red.labels == ("a",)
    assert np.allclose(red.mat, np.eye(2) / 2)


def test_partial_trace_keeps_requested_order():
    psi = tensor(PureState.qubit(1, 0, "a"), PureState.qubit(0, 1, "b"))
    rho = DensityOperator.from_pure(tensor(psi, PureState.qubit(SQ2, SQ2, "c")))
    red = partial_trace(rho, ("b", "a"))
    assert red.labels == ("b", "a")
    expect = np.zeros((4, 4))
    expect[0b10, 0b10] = 1.0
    assert np.allclose(red.mat, expect)


def test_normalize_raises_on_vanishing_amplitude():
    s = PureState(np.zeros(2, dtype=complex), ("a",))
    with pytest.raises(ParadoxError):
        normalize(s)


def test_normalize_returns_norm():
    s = PureState(np.array([0.6, 0.0], dtype=complex), ("a",))
    unit, n = normalize(s)
    assert n == pytest.approx(0.6)
    assert unit.norm == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_amplitude_is_a_typed_error(bad):
    with pytest.raises(ConfigError, match="non-finite"):
        PureState(np.array([bad, 0.0], dtype=complex), ("a",))
    assert issubclass(ConfigError, CtcSimError)
