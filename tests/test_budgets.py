"""Budgets of a run: its memory, read with tracemalloc, and its evolutions and pair tables.

numpy reports its data buffers to tracemalloc, so the traced peak of a run is a
deterministic count of bytes, unlike its wall time.  One evolution of a fresh
circuit at the qubit cap is budgeted in state arrays.  Each run here is on a
circuit whose evolution is already kept, so the peak is the finish: the dense
2^e x 2^e complex operator, 16 * 4^e bytes, which the result holds, plus the
rows, the tiles of the symmetrization and small arrays, under 1 MB.  An
input_bias probe adds a reference qubit, so its finish is one dense operator on
e + 1 qubits.  BLAS workspace is allocated outside Python and numpy's tracking,
so it is not counted.  Evolutions and pair tables are counted by wrapping the
functions that make them.

A budget may only be tightened.
"""

import functools
import json
import tracemalloc

import numpy as np
import pytest

import ctcsim as cs
from ctcsim import Channel, build_circuit, make_gate
from ctcsim.cli import main

SLACK = 2**20  # bytes beyond the dense operator: rows, tiles, small arrays

MODELS = [cs.ExactBell(), cs.NoisyBell(0.3), cs.Classical(0.3), cs.Classical(0.3, floor=True),
          cs.WeightMatrix("quad"), cs.DeltaQuadrature()]


def wide_circuit(n_ext, looped=True):
    """A chain of controlled rotations over `n_ext` externals, the loop (if any) a control."""
    labels = ["e%d" % i for i in range(n_ext)]
    gates = [make_gate("H", ("e0",))] + [make_gate("CROT", pair, (0.3 + i,))
                                         for i, pair in enumerate(zip(labels, labels[1:]))]
    loops = [Channel("t", looped=True)] if looped else []
    if looped:  # a loop that only controls keeps every history consistent
        gates.append(make_gate("CROT", ("t", "e0"), (0.7,)))
    return build_circuit(loops + [Channel(label, init=(0.6, 0.8)) for label in labels], gates)


def grid_circuit(m, e):
    """`m` loops and `e` externals tied in a chain of controlled rotations: no paradox."""
    loops, exts = ["l%d" % i for i in range(m)], ["e%d" % i for i in range(e)]
    gates = [make_gate("H", (x,)) for x in exts] + [
        make_gate("CROT", pair, (0.3 + 0.4 * i,))
        for i, pair in enumerate(zip(exts + loops, loops + exts))]
    return build_circuit([Channel(label, looped=True) for label in loops]
                         + [Channel(label, init=(0.6, 0.8)) for label in exts], gates)


def traced_peak(run):
    """Bytes at the traced peak of `run()`, after one untraced call keeps the evolution."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_ext", [8, 10])
@pytest.mark.parametrize("model", MODELS, ids=lambda model: "-".join(
    map(str, model.describe().values())))
def test_a_model_run_peaks_at_one_dense_operator(model, n_ext):
    circuit = wide_circuit(n_ext)
    assert traced_peak(lambda: model.run(circuit)) <= 16 * 4**n_ext + SLACK


OBJECTS = 2**12  # bytes of Python objects at a peak: Python 3.10 traces its frames too
PAIR_MODELS = {"exact": cs.ExactBell(), "noisy": cs.NoisyBell(0.3), "classical": cs.Classical(0.3),
               "floor": cs.Classical(0.3, floor=True)}


# (m, e, model, tables): a run's traced peak in pair tables of 16 * 4^m * 2^e bytes.  At (3, 6)
# the finish's dense operator is one table, and its symmetrization sets the peak; at (5, 4) the
# pair table and the history rows do
@pytest.mark.parametrize("m, e, model, tables", [
    (3, 6, "exact", 4.06), (3, 6, "noisy", 4.07), (3, 6, "classical", 4.08), (3, 6, "floor", 4.08),
    (5, 4, "exact", 2.04), (5, 4, "noisy", 3.09), (5, 4, "classical", 3.12), (5, 4, "floor", 3.09),
])
def test_a_model_run_with_several_loops_peaks_within_its_pair_tables(m, e, model, tables):
    circuit, table = grid_circuit(m, e), 16 * 4**m * 2**e
    assert traced_peak(lambda: PAIR_MODELS[model].run(circuit)) <= tables * table + OBJECTS


CAP_GATES = (("H", 1, 0), ("ROT", 1, 1), ("CX", 2, 0), ("CPHASE", 2, 1), ("SWAP", 2, 0),
             ("TOFFOLI", 3, 0), ("CCROT", 3, 1), ("PHASE", 1, 1), ("CZ", 2, 0), ("CROT", 2, 1))


def cap_circuit(m, e, seed, n_gates=30):
    """`m` loops and `e` externals with random gates; 2m + e = 14 puts the evolution at the cap."""
    rng = np.random.default_rng(seed)
    labels = ["l%d" % i for i in range(m)] + ["e%d" % i for i in range(e)]
    gates = []
    for _ in range(n_gates):
        kind, arity, n_params = CAP_GATES[rng.integers(len(CAP_GATES))]
        gates.append(make_gate(kind, tuple(rng.choice(labels, arity, replace=False)),
                               tuple(rng.uniform(-3.0, 3.0, n_params))))
    return build_circuit([Channel(label, looped=True) for label in labels[:m]]
                         + [Channel(label, init=(0.6, 0.8)) for label in labels[m:]], gates)


# one evolution of a fresh circuit at the cap, start state included, peaked at 4.52 to 5.09
# state arrays of 16 * 2^14 bytes over seeds 0-3 (numpy 2.4.6)
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("m, e", [(7, 0), (5, 4), (3, 8), (1, 12), (0, 14)])
def test_one_evolution_at_the_qubit_cap_peaks_within_five_and_a_half_state_arrays(m, e, seed):
    circuit = cap_circuit(m, e, seed)
    tracemalloc.start()
    try:
        cs.engine._evolved_pairs(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 16 * 2**14


@pytest.mark.parametrize("n_ext", [8, 10])
def test_a_conditional_run_peaks_at_one_dense_operator(n_ext):
    circuit = wide_circuit(n_ext, looped=False)
    deselect = (("e1",), [0.6, 0.8j])
    peak = traced_peak(lambda: cs.run_conditional(circuit, [("e0", 1)], deselect, "coupled"))
    assert peak <= 16 * 4**n_ext + SLACK


@pytest.mark.parametrize("n_ext", [8, 10])
@pytest.mark.parametrize("model", MODELS, ids=lambda model: "-".join(
    map(str, model.describe().values())))
def test_an_input_bias_peaks_at_one_dense_operator_with_its_reference(model, n_ext):
    circuit = wide_circuit(n_ext)  # the untraced call keeps the probe and its evolution
    peak = traced_peak(lambda: cs.input_bias(circuit, "e0", model))
    assert peak <= 16 * 4**(n_ext + 1) + SLACK


def _counted(monkeypatch, module, name, counts):
    function = getattr(module, name)

    def counted(*args):
        counts[name] += 1
        return function(*args)
    monkeypatch.setattr(module, name, counted)


ONE_LOOP_DOC = {
    "channels": [{"name": "tm", "role": "ctc"}, {"name": "a", "init": [0.6, 0, 0.8, 0]}],
    "gates": [{"kind": "CROT", "targets": ["a", "tm"], "params": {"theta": 0.7}}],
    "model": {"type": "noisy_bell", "lambda": 0.2},
}
SWEEP = ["--from", "0.1", "--to", "0.7", "--steps", "5"]


@pytest.mark.parametrize("argv, outputs, evolutions, tables", [
    (["scenario", "cnot_gun", "--outputs", "Z"], None, 1, 1),
    (["scenario", "cnot_gun", "--model", "noisy_bell,lambda=0.2", "--outputs",
      "Z,input_bias:gun"], None, 2, 2),
    (["scenario", "cnot_gun", "--model", "classical,k=0.3", "--outputs",
      "Z,input_bias:gun"], None, 2, 0),
    (["scenario", "grandfather_not"], None, 1, 1),
    (["sweep", "{doc}", "--param", "lambda", *SWEEP], ["Z", "input_bias:a"], 2, 2),
    (["sweep", "{doc}", "--param", "lambda", *SWEEP], ["Z"], 1, 1),
    (["sweep", "{doc}", "--param", "theta", *SWEEP], ["Z"], 5, 5),
], ids=["scenario", "noisy_bias", "classical_bias", "paradox", "lambda_sweep_bias",
        "lambda_sweep", "theta_sweep"])
def test_a_cli_call_makes_at_most_its_evolutions_and_pair_tables(
        argv, outputs, evolutions, tables, tmp_path, monkeypatch, capsys):
    counts = {"evolve": 0, "_pair_table": 0}
    _counted(monkeypatch, cs.engine, "evolve", counts)
    _counted(monkeypatch, cs.engine, "_pair_table", counts)
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({**ONE_LOOP_DOC, "outputs": outputs}))
    assert main([str(doc) if arg == "{doc}" else arg for arg in argv]) in (0, 2)
    capsys.readouterr()
    assert counts["evolve"] <= evolutions
    assert counts["_pair_table"] <= tables


@pytest.mark.parametrize("model", MODELS, ids=lambda model: "-".join(
    map(str, model.describe().values())))
def test_a_library_run_on_a_kept_circuit_makes_no_evolution_and_no_pair_table(
        model, monkeypatch):
    circuit = wide_circuit(4)
    model.run(circuit)  # keeps the evolution and, for the exact and noisy models, the table
    counts = {"evolve": 0, "_pair_table": 0}
    _counted(monkeypatch, cs.engine, "evolve", counts)
    _counted(monkeypatch, cs.engine, "_pair_table", counts)
    model.run(circuit)
    assert counts == {"evolve": 0, "_pair_table": 0}


@pytest.mark.parametrize("model", ["exact", "noisy"])
def test_a_run_with_three_loops_on_a_kept_circuit_makes_no_pair_table(model, monkeypatch):
    circuit = grid_circuit(3, 6)
    PAIR_MODELS[model].run(circuit)  # keeps the evolution and its table
    counts = {"evolve": 0, "_pair_table": 0}
    _counted(monkeypatch, cs.engine, "evolve", counts)
    _counted(monkeypatch, cs.engine, "_pair_table", counts)
    assert len(PAIR_MODELS[model].run(circuit).projections.amps) == 4**3
    assert counts == {"evolve": 0, "_pair_table": 0}


def _counted_makes(monkeypatch):
    """The keys whose values engine._kept makes from now on, in order."""
    made, kept = [], cs.engine._kept
    monkeypatch.setattr(cs.engine, "_kept", lambda circuit, key, make: kept(
        circuit, key, lambda: made.append(key) or make()))
    return made


def test_the_runs_and_paradoxes_of_a_kept_circuit_share_one_table_and_one_set_of_norms(
        monkeypatch):
    circuit, made = wide_circuit(4), _counted_makes(monkeypatch)
    exact, noisy = cs.ExactBell().run(circuit), cs.NoisyBell(0.3).run(circuit)
    with pytest.raises(cs.ParadoxError) as info:  # the loop only controls: no history i -> j != i
        cs.WeightMatrix([[0, 1], [1, 0]]).run(circuit)
    assert exact.projections is noisy.projections is info.value.projections
    assert cs.projection_table(circuit) is exact.projections
    first = cs.Classical(0.3).run(circuit)
    assert made == ["pairs", "table", "norms"]
    second = cs.Classical(0.3).run(circuit)
    assert made == ["pairs", "table", "norms"]  # the second classical run reads the kept norms
    assert second.projections.weights.tobytes() == first.projections.weights.tobytes()


def test_a_shared_table_is_read_only_and_a_failed_write_changes_no_later_run():
    circuit = grid_circuit(2, 3)
    result = cs.NoisyBell(0.3).run(circuit)
    amps, weights = result.projections.amps.copy(), result.projections.weights.copy()
    with pytest.raises(ValueError, match="read-only"):
        result.projections.amps[0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        result.projections.weights *= 2.0
    again = cs.NoisyBell(0.3).run(circuit)
    assert again.projections.amps.tobytes() == amps.tobytes()
    assert again.projections.weights.tobytes() == weights.tobytes()
    assert again.z == result.z and again.rho.mat.tobytes() == result.rho.mat.tobytes()


# every model with a paradox on grandfather_not: the delta model has none there
PARADOX_MODELS = [cs.ExactBell(), cs.NoisyBell(0.0), cs.Classical(0.0),
                  cs.Classical(0.0, floor=True), cs.WeightMatrix([[1, 0], [0, 1]])]


@pytest.mark.parametrize("model", PARADOX_MODELS, ids=lambda model: "-".join(
    map(str, model.describe().values())))
def test_a_paradox_on_a_kept_circuit_makes_no_pair_table(model, monkeypatch):
    circuit = cs.build_scenario("grandfather_not").circuit
    with pytest.raises(cs.ParadoxError):
        model.run(circuit)  # keeps the evolution and its table
    counts = {"evolve": 0, "_pair_table": 0}
    _counted(monkeypatch, cs.engine, "evolve", counts)
    _counted(monkeypatch, cs.engine, "_pair_table", counts)
    with pytest.raises(cs.ParadoxError) as info:
        model.run(circuit)
    assert counts == {"evolve": 0, "_pair_table": 0}
    # every model shows the pair table, never its own history table: the X loop lands on N
    table = info.value.projections
    assert table.labels == ("B", "-", "N", "-N")
    assert np.max(np.abs(table.weights - [0.0, 0.0, 1.0, 0.0])) <= 1e-12


def test_a_mismatched_deselect_direction_is_refused_before_any_allocation():
    # 2^14 amplitudes on one label: the projector would be a 4 GiB identity
    circuit, direction = wide_circuit(2, looped=False), np.full(2**14, 2**-7, dtype=complex)
    tracemalloc.start()
    try:
        with pytest.raises(cs.LabelError, match="^deselect direction of length 16384 does not "
                           "fit 1 of the 2 externals$"):
            cs.run_conditional(circuit, [("e0", 1)], (("e1",), direction), "coupled")
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_a_conditional_operator_past_the_byte_bound_is_refused_before_the_evolution(
        monkeypatch):
    counts = {"evolve": 0}
    _counted(monkeypatch, cs.engine, "evolve", counts)
    monkeypatch.setattr(cs.engine, "CONDITIONAL_MAX_BYTES", 16 * 4**3)
    run = functools.partial(cs.run_conditional, condition=[("e0", 1)],
                            deselect=(("e1",), [0.6, 0.8]), mode="coupled")
    assert run(wide_circuit(3, looped=False)).rho.n_qubits == 3  # 1024 bytes: at the bound
    with pytest.raises(cs.UnsupportedError, match="^conditional projection needs a 4096-byte "
                       "operator, over 1024 bytes$"):
        run(wide_circuit(4, looped=False))
    assert counts == {"evolve": 1}
