import itertools
import math

import numpy as np
import pytest

import ctcsim as cs
from ctcsim import Channel, build_circuit, make_gate
from oracles import delta_by_node, flat_measure_nodes, flat_measure_states, histories_by_unitary

PI2 = math.pi**2


def crot_probe(alpha=0.8, beta=0.6):
    return build_circuit(
        [Channel("tm", looped=True), Channel("probe", init=(alpha, beta))],
        [make_gate("CROT", ("tm", "probe"), params=(math.pi / 2,))],
    )


def haar_loop(seed, n_ext=2):
    """One looped channel and n_ext externals under one Haar-random unitary."""
    rng = np.random.default_rng(seed)
    d = 2 ** (n_ext + 1)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    labels = ["tm"] + ["e%d" % i for i in range(n_ext)]
    return build_circuit(
        [Channel("tm", looped=True)] + [Channel(label) for label in labels[1:]],
        [make_gate("CUSTOM", labels, matrix=q * (np.diag(r) / abs(np.diag(r))))],
    )


def test_flat_measure_nodes_total_weight():
    theta, wt, xi, wx = flat_measure_nodes(32, 32)
    assert wt.sum() * wx.sum() == pytest.approx(2 * PI2, abs=1e-10)
    assert theta.min() > 0 and theta.max() < math.pi
    assert xi[0] == 0.0


def test_flat_measure_states_are_the_node_states():
    theta, wt, xi, wx = flat_measure_nodes(6, 5)
    states, w = flat_measure_states(6, 5)
    # polar angle major: row 5 * i + j is node (theta_i, xi_j)
    expect = [[math.cos(t), math.sin(t) * np.exp(1j * x)] for t in theta for x in xi]
    assert states.shape == (30, 2)
    assert np.allclose(states, expect, rtol=0, atol=1e-15)
    assert np.allclose(w, [a * b for a in wt for b in wx], rtol=1e-15, atol=0)


def _grid_form(n_theta, n_xi):
    """The quadrature's 4x4 form over the histories (00, 01, 10, 11) on one grid."""
    phi, w = flat_measure_states(n_theta, n_xi)
    coef = (phi[:, :, None] * phi.conj()[:, None, :]).reshape(-1, 4)
    return cs.engine._hermitian((coef.T * w) @ coef.conj())


@pytest.mark.parametrize("grid", [(3, 3), (3, 5), (4, 4), (12, 12), (64, 64), (96, 96)])
def test_grid_form_is_the_declared_delta_form(grid):
    assert np.abs(_grid_form(*grid) - cs.engine._DELTA_FORM).max() <= 1e-14


@pytest.mark.parametrize("grid", [(1, 1), (2, 2)])
def test_grids_below_three_nodes_miss_the_delta_form(grid):
    # 3 nodes per axis are the fewest at which a grid integrates the form exactly
    assert np.abs(_grid_form(*grid) - cs.engine._DELTA_FORM).max() > 1e-2


def test_kernel_trace_is_the_delta_form():
    kernel = cs.engine._DELTA_KERNEL
    assert kernel.shape == (2, 2, 4, 4)
    assert np.abs(np.trace(kernel) - cs.engine._DELTA_FORM).max() <= 1e-15


def test_quadrature_matches_closed_form_on_rotation():
    circuit = build_circuit(
        [Channel("tm", looped=True)], [make_gate("ROT", ("tm",), params=(0.7,))]
    )
    r = cs.run_delta_quadrature(circuit)
    expect = (PI2 / 2) * (3 * math.cos(0.7) ** 2 + 1)
    assert r.z == pytest.approx(expect, abs=1e-8)


def test_quadrature_matches_weight_matrix_closed_form():
    """The dedicated quadrature and the closed-form delta channel agree on Z
    and on the full output operator."""
    circuit = crot_probe()
    quad = cs.run_delta_quadrature(circuit)
    closed = cs.run_weight_matrix(circuit, "delta")
    assert quad.z == pytest.approx(closed.z, rel=1e-9)
    assert np.allclose(quad.rho.mat, closed.rho.mat, atol=1e-9)


@pytest.mark.parametrize("circuit, grid", [(crot_probe(), (3, 5)), (haar_loop(3), (3, 5)),
                                           (crot_probe(), (12, 12)), (crot_probe(), (96, 96))],
                         ids=["crot", "haar", "crot-12x12", "crot-96x96"])
def test_quadrature_is_exact_on_a_three_by_five_grid(circuit, grid):
    # Z and rho integrate trigonometric polynomials of theta-frequency at
    # most 4 and xi-frequency at most 2: the midpoint rule in theta and the
    # trapezoid in xi are exact for them from 3 nodes each, and stay exact
    # on every finer grid
    quad = cs.run_delta_quadrature(circuit)
    closed = cs.run_weight_matrix(circuit, "delta")
    z, rho, _ = delta_by_node(histories_by_unitary(circuit), *grid)
    for run in (quad, closed):
        assert abs(run.z - z) <= 1e-13 * z
        assert np.max(np.abs(run.rho.mat - rho)) <= 1e-13


def test_quadrature_rho_loop_is_exact_on_a_four_by_four_grid():
    circuit = haar_loop(5)
    coarse = delta_by_node(histories_by_unitary(circuit), 4, 4)[2]
    assert np.max(np.abs(coarse - cs.run_delta_quadrature(circuit).rho_loop.mat)) <= 1e-13


def test_quadrature_monte_carlo_cross_check():
    """Flat-measure Monte Carlo over the boundary state reproduces Z."""
    circuit = crot_probe()
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.0, math.pi, 20000)
    xis = rng.uniform(0.0, 2 * math.pi, 20000)
    phi = np.stack([np.cos(thetas), np.sin(thetas) * np.exp(1j * xis)], axis=1)
    amps = np.einsum("ki,kj,ijx->kx", phi, phi.conj(), histories_by_unitary(circuit))
    mc = (2 * PI2) * (abs(amps) ** 2).sum(axis=1).mean()
    exact = cs.run_delta_quadrature(circuit).z
    assert mc == pytest.approx(exact, rel=0.02)


def test_quadrature_limited_to_one_loop_qubit():
    circuit = build_circuit(
        [Channel("t1", looped=True), Channel("t2", looped=True)],
        [make_gate("CX", ("t1", "t2"))],
    )
    with pytest.raises(cs.UnsupportedError):
        cs.run_delta_quadrature(circuit)


def test_quadrature_paradox_on_pure_flip():
    circuit = build_circuit(
        [Channel("tm", looped=True)], [make_gate("X", ("tm",))]
    )
    r = cs.run_delta_quadrature(circuit)
    assert r.z == pytest.approx(PI2 / 2, abs=1e-8)
    # the loop register ends up fully mixed
    assert np.allclose(r.rho_loop.mat, np.eye(2) / 2, atol=1e-8)


# -- the flat-measure moment constants against the grid, node by node ---------

# the first two are inexact; (3, 3) is the coarsest exact grid
MOMENT_GRIDS = [(1, 1), (2, 2), (3, 3), (3, 5), (4, 4), (7, 12), (64, 64)]


@pytest.mark.parametrize("grid", MOMENT_GRIDS, ids=lambda g: "%dx%d" % g)
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_delta_run_matches_the_per_node_integral(grid, seed):
    circuit = haar_loop(seed, n_ext=1 + seed % 2)
    a = histories_by_unitary(circuit)
    z, rho, rho_loop = delta_by_node(a, *grid)
    r = cs.run_delta_quadrature(circuit)
    if min(grid) < 3:  # too coarse a grid misses the exact integral the run reads
        assert abs(r.z - z) > 1e-3 * z
        return
    assert abs(r.z - z) <= 1e-13 * z
    assert np.abs(r.rho.mat - rho).max() <= 1e-13
    # rho_loop is the exact integral, which the midpoint rule gives from 4 theta nodes
    rho_loop = delta_by_node(a, max(grid[0], 4), grid[1])[2]
    assert np.abs(r.rho_loop.mat - rho_loop).max() <= 1e-13


def _per_node_moments(n_theta, n_xi):
    """(form, kernel) of one grid, summed node by node."""
    phi, w = flat_measure_states(n_theta, n_xi)
    coef = (phi[:, :, None] * phi.conj()[:, None, :]).reshape(-1, 4)
    pairs = (coef[:, :, None] * coef.conj()[:, None, :]).reshape(-1, 16)
    return (coef.T * w) @ coef.conj(), ((coef.T * w) @ pairs).reshape(2, 2, 4, 4)


@pytest.mark.parametrize("grid", MOMENT_GRIDS, ids=lambda g: "%dx%d" % g)
def test_moments_are_the_per_node_sums(grid):
    phi, w = flat_measure_states(*grid)
    form, kernel = _per_node_moments(*grid)
    if min(grid) < 3:  # too coarse a grid misses the form
        assert np.abs(cs.engine._DELTA_FORM - form).max() > 1e-2
        return
    assert np.abs(cs.engine._DELTA_FORM - form).max() <= 1e-13
    if grid[0] >= 4:
        assert np.abs(cs.engine._DELTA_KERNEL - kernel).max() <= 1e-13
    # input_bias contracts the form, as moments sum_k w_k c_a c_b* c_c* c_d, with
    # its 2x2 acceptance form M: the weighted average sum_k w_k Z_k |phi_k><phi_k|
    m = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    z = np.einsum("ka,ab,kb->k", phi.conj(), m, phi).real
    num = np.einsum("abcd,cd->ab", cs.engine._DELTA_FORM.reshape(2, 2, 2, 2), m)
    assert np.abs(num - (phi.T * (w * z)) @ phi.conj()).max() <= 1e-13


def test_moment_constants_match_every_grid_from_three_to_twelve_nodes():
    for grid in itertools.product(range(3, 13), repeat=2):
        form, kernel = _per_node_moments(*grid)
        assert np.abs(cs.engine._DELTA_FORM - form).max() <= 1e-13, grid
        if grid[0] >= 4:  # the midpoint rule integrates degree 6 from 4 nodes
            assert np.abs(cs.engine._DELTA_KERNEL - kernel).max() <= 1e-13, grid


def test_cached_moments_are_read_only():
    # the moments are module constants, computed once at import
    for moments in (cs.engine._DELTA_FORM, cs.engine._DELTA_KERNEL):
        with pytest.raises(ValueError):
            moments[0, 0] = 1.0
        with pytest.raises(ValueError):
            moments.reshape(-1)[0] = 1.0
