"""Memory budgets of a model run, read with tracemalloc.

numpy reports its data buffers to tracemalloc, so the traced peak of a run is a
deterministic count of bytes, unlike its wall time.  Each run here is on a
circuit whose evolution is already kept, so the peak is the finish: the dense
2^e x 2^e complex operator, 16 * 4^e bytes, which the result holds, plus the
rows, the tiles of the symmetrization and small arrays, under 1 MB.  BLAS
workspace is allocated outside Python and numpy's tracking, so it is not
counted.

A budget may only be tightened.
"""

import tracemalloc

import pytest

import ctcsim as cs
from ctcsim import Channel, build_circuit, make_gate

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


@pytest.mark.parametrize("n_ext", [8, 10])
def test_a_conditional_run_peaks_at_one_dense_operator(n_ext):
    circuit = wide_circuit(n_ext, looped=False)
    deselect = (("e1",), [0.6, 0.8j])
    peak = traced_peak(lambda: cs.run_conditional(circuit, [("e0", 1)], deselect, "coupled"))
    assert peak <= 16 * 4**n_ext + SLACK
