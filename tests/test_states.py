import warnings

import numpy as np
import pytest

from ctcsim.errors import ConfigError, CtcSimError, LabelError
from ctcsim.states import DensityOperator, PureState, apply_gate, project, unit_vector

from oracles import tensor, tensor_all

SQ2 = 2**-0.5


def bell(a="x", b="y"):
    return PureState(np.array([SQ2, 0, 0, SQ2], dtype=complex), (a, b))


def test_tensor_orders_first_factor_most_significant():
    s = tensor(PureState([0, 1], ("hi",)), PureState([1, 0], ("lo",)))
    assert s.labels == ("hi", "lo")
    assert s.amps[0b10] == 1.0


def test_tensor_rejects_label_collision():
    with pytest.raises(LabelError):
        tensor(PureState([1, 0], ("a",)), PureState([1, 0], ("a",)))


def test_apply_gate_targets_by_label():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    s = tensor_all([PureState([1, 0], ("a",)), PureState([1, 0], ("b",))])
    out = apply_gate(s, x, ("b",))
    assert out.amps[0b01] == pytest.approx(1.0)


def test_apply_gate_two_qubit_order():
    # CX with control "a", target "b" should flip b only when a is set
    cx = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    s = PureState(np.eye(4)[0b10], ("a", "b"))
    out = apply_gate(s, cx, ("a", "b"))
    assert out.amps[0b11] == pytest.approx(1.0)
    flipped = apply_gate(s, cx, ("b", "a"))
    assert flipped.amps[0b10] == pytest.approx(1.0)


def test_project_contracts_subset():
    s = bell("p", "q")
    bra = PureState([1, 0], ("p",))
    out = project(s, bra)
    assert out.labels == ("q",)
    assert out.amps[0] == pytest.approx(SQ2)
    assert np.linalg.norm(out.amps) == pytest.approx(SQ2)


def test_project_full_contraction_gives_scalar():
    s = PureState([SQ2, SQ2], ("a",))
    out = project(s, PureState([1, 0], ("a",)))
    assert out.labels == ()
    assert out.amps.shape == (1,)
    assert out.amps[0] == pytest.approx(SQ2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_non_finite_amplitude_is_a_typed_error(bad):
    with pytest.raises(ConfigError, match="non-finite"):
        PureState(np.array([bad, 0.0], dtype=complex), ("a",))
    assert issubclass(ConfigError, CtcSimError)


@pytest.mark.parametrize("values, shown", [
    ([10**400, 0], "[%d, 0]" % 10**400), ([10**5000, 0], "<list too long to print>"),
], ids=["past_float_range", "too_long_to_print"])
def test_an_amplitude_past_the_float_range_is_a_typed_error(values, shown):
    with pytest.raises(ConfigError) as info:
        PureState(values, ("a",))
    assert str(info.value) == "amplitudes %s exceed the float range" % shown


@pytest.mark.parametrize("make, values, message", [
    (DensityOperator, [[10**400, 0], [0, 0]],
     "matrix entries [[%d, 0], [0, 0]] exceed the float range" % 10**400),
    (DensityOperator, "x", "matrix entries 'x' are not numbers"),
    (DensityOperator, {}, "matrix entries {} are not numbers"),
    (PureState, "x", "amplitudes 'x' are not numbers"),
    (PureState, {}, "amplitudes {} are not numbers"),
    # numeric text and None are no numbers, though a complex cast reads "1" as 1 and None as nan
    (PureState, ["1", "0"], "amplitudes ['1', '0'] are not numbers"),
    (PureState, [None, 1], "amplitudes [None, 1] are not numbers"),
    (DensityOperator, [["1", "0"], ["0", "0"]],
     "matrix entries [['1', '0'], ['0', '0']] are not numbers"),
    (DensityOperator, [[None, 0], [0, 0]], "matrix entries [[None, 0], [0, 0]] are not numbers"),
], ids=["matrix_past_float_range", "matrix_text", "matrix_dict", "amplitudes_text",
        "amplitudes_dict", "amplitudes_numeric_text", "amplitudes_none", "matrix_numeric_text",
        "matrix_none"])
def test_a_value_that_is_no_float_is_a_typed_error(make, values, message):
    with pytest.raises(ConfigError) as info:
        make(values, ("a",))
    assert str(info.value) == message


@pytest.mark.parametrize("make, values", [(PureState, [1, 0]),
                                          (DensityOperator, [[1, 0], [0, 0]])])
@pytest.mark.parametrize("labels, shown", [(None, "None"), (5, "5")])
def test_labels_that_are_no_sequence_are_a_typed_error(make, values, labels, shown):
    with pytest.raises(LabelError) as info:
        make(values, labels)
    assert str(info.value) == "qubit labels must be a sequence, got %s" % shown


def test_numbers_of_every_kind_are_read_as_complex():
    amps = [True, np.int64(0), 10**20, 0.5, 0.5j, np.float32(0.25)]  # one object array
    assert PureState(amps + [0, 0], ("a", "b", "c")).amps.tolist() == [
        1, 0, 1e20, 0.5, 0.5j, 0.25, 0, 0]


def test_a_complex_array_is_read_without_a_copy():
    amps, mat = np.array([0.6, 0.8j]), np.eye(2, dtype=complex)
    assert PureState(amps, ("a",)).amps is amps and DensityOperator(mat, ("a",)).mat is mat


def test_a_finite_strided_view_is_accepted():
    amps = np.arange(8, dtype=complex)[::2]  # not contiguous: .view(float) cannot read it
    assert np.array_equal(PureState(amps, ("a", "b")).amps, [0, 2, 4, 6])


@pytest.mark.parametrize("bad", [np.nan, complex(0, np.inf)])
def test_a_strided_view_holding_a_non_finite_amplitude_is_a_typed_error(bad):
    amps = np.arange(8, dtype=complex)
    amps[4] = bad
    with pytest.raises(ConfigError, match="^non-finite amplitude$"):
        PureState(amps[::2], ("a", "b"))


@pytest.mark.parametrize("values, shown", [
    ([0.0, 0.0], "[0.0, 0.0]"), ([np.inf, 1.0], "[inf, 1.0]"), ([], "[]"),
], ids=["zero", "infinite", "empty"])
def test_unit_vector_rejects_a_vector_without_a_direction(values, shown):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as info:
            unit_vector(values, "v")
    assert str(info.value) == "v must be a nonzero finite vector, got " + shown
