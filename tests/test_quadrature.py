import itertools
import math

import numpy as np
import pytest

import ctcsim as cs
from ctcsim import Channel, build_circuit, make_gate
from oracles import flat_measure_nodes, flat_measure_states

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


def test_nodes_require_positive_counts():
    with pytest.raises(cs.ConfigError, match="positive"):
        cs.run_delta_quadrature(crot_probe(), 0, 16)


@pytest.mark.parametrize("count", [math.nan, math.inf, -math.inf, 2.5],
                         ids=["nan", "inf", "-inf", "fraction"])
def test_node_counts_must_be_whole_numbers(count):
    with pytest.raises(cs.ConfigError, match="whole numbers"):
        cs.run_delta_quadrature(crot_probe(), n_theta=count)
    with pytest.raises(cs.ConfigError, match="whole numbers"):
        cs.run_delta_quadrature(crot_probe(), 16, count)


def test_whole_float_node_counts_are_counts():
    circuit = crot_probe()
    r = cs.run_delta_quadrature(circuit, n_theta=64.0, n_xi=8.0)
    assert r.z == cs.run_delta_quadrature(circuit, n_theta=64, n_xi=8).z
    assert (r.metadata["n_theta"], r.metadata["n_xi"]) == (64, 8)


@pytest.mark.parametrize("n_theta,n_xi", [(2**20 + 1, 1), (1025, 1024), (10**300, 64)],
                         ids=["column", "square", "huge"])
def test_nodes_beyond_the_grid_cap_are_rejected(n_theta, n_xi):
    with pytest.raises(cs.ConfigError, match="exceeds 1048576 nodes"):
        cs.run_delta_quadrature(crot_probe(), n_theta, n_xi)


def _grid_form(n_theta, n_xi):
    """The quadrature's 4x4 form over the histories (00, 01, 10, 11) on one grid."""
    phi, w = flat_measure_states(n_theta, n_xi)
    coef = (phi[:, :, None] * phi.conj()[:, None, :]).reshape(-1, 4)
    return cs.engine._mix(coef, w)


@pytest.mark.parametrize("grid", [(3, 3), (3, 5), (4, 4), (12, 12), (64, 64), (96, 96)])
def test_grid_form_is_the_declared_delta_form(grid):
    assert np.abs(_grid_form(*grid) - cs.engine._DELTA_FORM).max() <= 1e-14


@pytest.mark.parametrize("grid", [(1, 1), (2, 2)])
def test_grids_below_three_nodes_miss_the_delta_form(grid):
    # the reason for the floor of 3 nodes per axis on every grid the library takes
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
    quad = cs.run_delta_quadrature(circuit, *grid)
    closed = cs.run_weight_matrix(circuit, "delta")
    assert abs(quad.z - closed.z) <= 1e-13 * closed.z
    assert np.max(np.abs(quad.rho.mat - closed.rho.mat)) <= 1e-13


def test_quadrature_rho_loop_is_exact_on_a_four_by_four_grid():
    circuit = haar_loop(5)
    coarse = cs.run_delta_quadrature(circuit, n_theta=4, n_xi=4)
    assert np.max(np.abs(coarse.rho_loop.mat
                         - cs.run_delta_quadrature(circuit).rho_loop.mat)) <= 1e-13


def test_quadrature_monte_carlo_cross_check():
    """Flat-measure Monte Carlo over the boundary state reproduces Z."""
    circuit = crot_probe()
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0.0, math.pi, 20000)
    xis = rng.uniform(0.0, 2 * math.pi, 20000)
    u = cs.compile_unitary(circuit)
    ext = np.array([0.8, 0.6], dtype=complex)
    total = 0.0
    for t, x in zip(thetas, xis):
        phi = np.array([math.cos(t), math.sin(t) * np.exp(1j * x)])
        out = u @ np.kron(phi, ext)
        amp = np.conj(phi) @ out.reshape(2, 2)
        total += float(np.vdot(amp, amp).real)
    mc = (2 * PI2) * total / len(thetas)
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

MOMENT_GRIDS = [(1, 1), (2, 2), (3, 5), (4, 4), (64, 64)]  # the first two are refused


def _per_node_run(circuit, n_theta, n_xi):
    """(Z, rho, rho_loop) of the delta model, one boundary state at a time.

    Node k's external state is (<phi_k| x I) U (|phi_k> x ext), from the
    compiled unitary; Z and rho_loop weigh each node by its squared norm.
    """
    phi, w = flat_measure_states(n_theta, n_xi)
    ext = circuit.initial_external_state().amps
    u = cs.compile_unitary(circuit).reshape(2, len(ext), 2, len(ext)) @ ext
    out = np.einsum("ka,aeb,kb->ke", phi.conj(), u, phi)  # (nodes, externals)
    norms = w * (out.real**2 + out.imag**2).sum(axis=1)
    z = norms.sum()
    return z, (out.T * w) @ out.conj() / z, (phi.T * norms) @ phi.conj() / z


@pytest.mark.parametrize("grid", MOMENT_GRIDS, ids=lambda g: "%dx%d" % g)
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_delta_run_matches_the_per_node_integral(grid, seed):
    circuit = haar_loop(seed, n_ext=1 + seed % 2)
    if min(grid) < 3:  # an inexact grid is refused, not integrated
        with pytest.raises(cs.ConfigError, match="at least 3"):
            cs.run_delta_quadrature(circuit, *grid)
        return
    z, rho, rho_loop = _per_node_run(circuit, *grid)
    r = cs.run_delta_quadrature(circuit, *grid)
    assert abs(r.z - z) <= 1e-13 * z
    assert np.abs(r.rho.mat - rho).max() <= 1e-13
    # rho_loop is the exact integral, which the midpoint rule gives from 4 theta nodes
    rho_loop = _per_node_run(circuit, max(grid[0], 4), grid[1])[2]
    assert np.abs(r.rho_loop.mat - rho_loop).max() <= 1e-13


def _per_node_moments(n_theta, n_xi):
    """(form, kernel) of one grid, summed node by node."""
    phi, w = flat_measure_states(n_theta, n_xi)
    coef = (phi[:, :, None] * phi.conj()[:, None, :]).reshape(-1, 4)
    pairs = (coef[:, :, None] * coef.conj()[:, None, :]).reshape(-1, 16)
    return (coef.T * w) @ coef.conj(), ((coef.T * w) @ pairs).reshape(2, 2, 4, 4)


@pytest.mark.parametrize("grid", MOMENT_GRIDS, ids=lambda g: "%dx%d" % g)
def test_moments_are_the_per_node_sums(grid):
    if min(grid) < 3:  # no grid below 3 nodes per axis is taken
        with pytest.raises(cs.ConfigError, match="at least 3"):
            cs.engine._check_grid(*grid)
        return
    phi, w = flat_measure_states(*grid)
    form, kernel = _per_node_moments(*grid)
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


def _no_evolution(circuit):
    raise AssertionError("evolved before the grid was checked")


@pytest.mark.parametrize("count", [[64], math.nan, 1e400], ids=["list", "nan", "1e400"])
def test_bad_node_counts_fail_before_any_evolution(count, monkeypatch):
    monkeypatch.setattr(cs.engine, "_evolved_pairs", _no_evolution)
    for n_theta, n_xi in ((count, 64), (64, count)):
        with pytest.raises(cs.ConfigError, match="whole numbers"):
            cs.run_delta_quadrature(crot_probe(), n_theta, n_xi)


@pytest.mark.parametrize("grid", [(1, 1), (2, 2), (2, 64), (64, 1), (1, 2**20), (2.0, 3)],
                         ids=lambda g: "%sx%s" % g)
def test_grids_below_three_nodes_fail_before_any_evolution(grid, monkeypatch):
    monkeypatch.setattr(cs.engine, "_evolved_pairs", _no_evolution)
    with pytest.raises(cs.ConfigError, match="node counts must be at least 3"):
        cs.run_delta_quadrature(crot_probe(), *grid)
