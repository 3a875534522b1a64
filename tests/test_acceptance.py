"""Acceptance gate: one test per criterion, reported as one line each by -v."""

import ast
import json
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ctcsim as cs
from ctcsim import Channel, build_circuit, make_gate
from oracles import histories_by_unitary

PI2 = math.pi**2
SQ2 = 2**-0.5


def test_criterion_01_simple_loop_exact():
    sc = cs.build_scenario("simple_loop", alpha=0.8, beta=0.6)
    r = cs.run_exact_bell(sc.circuit)
    assert abs(r.n - 0.5) <= 1e-12
    psi = np.array([0.8, 0.6])
    assert np.max(np.abs(r.rho.mat - np.outer(psi, psi))) <= 1e-12


def test_criterion_02_grandfather_trio_and_perturbation():
    for name in ("grandfather_not", "grandfather_pf", "grandfather_rot"):
        with pytest.raises(cs.ParadoxError):
            cs.run_exact_bell(cs.build_scenario(name).circuit)
    for eps in (1e-2, 1e-4):
        circuit = cs.build_scenario("grandfather_perturbed", eps=eps).circuit
        assert abs(cs.run_exact_bell(circuit).n - eps) <= 1e-12


def test_criterion_03_delta_quadrature_constants():
    loop = build_circuit(
        [Channel("tm", looped=True), Channel("sys", init=(1.0, 0.0))],
        [make_gate("SWAP", ("tm", "sys"))],
    )
    r = cs.run_delta_quadrature(loop)
    psi = np.array([1.0, 0.0])
    expect = 0.5 * np.outer(psi, psi) + 0.25 * np.eye(2)
    assert abs(r.z - PI2) <= 1e-8
    assert np.max(np.abs(r.rho.mat - expect)) <= 1e-8

    grandfather = build_circuit(
        [Channel("tm", looped=True)], [make_gate("X", ("tm",))]
    )
    g = cs.run_delta_quadrature(grandfather)
    assert abs(g.z - PI2 / 2) <= 1e-8
    assert np.max(np.abs(g.rho_loop.mat - np.eye(2) / 2)) <= 1e-8

    alpha = 0.8
    gun = cs.build_scenario("cnot_gun", alpha=alpha, beta=0.6).circuit
    c = cs.run_delta_quadrature(gun)
    assert abs(c.z - (PI2 / 2) * (3 * alpha**2 + 1)) <= 1e-8


def test_criterion_04_input_bias():
    gun = cs.build_scenario("cnot_gun").circuit
    delta = cs.input_bias(gun, "gun", cs.DeltaQuadrature())
    assert np.max(np.abs(delta.mat - np.diag([13 / 20, 7 / 20]))) <= 1e-6
    k = 0.3
    classical = cs.input_bias(gun, "gun", cs.Classical(k))
    expect = np.diag([(3 - 2 * k) / 4, (1 + 2 * k) / 4])
    assert np.max(np.abs(classical.mat - expect)) <= 1e-6
    unskewed = cs.input_bias(gun, "gun", cs.Classical(0.5))
    assert np.max(np.abs(unskewed.mat - np.eye(2) / 2)) <= 1e-12


def test_criterion_05_stubborn_spin_flip_grid():
    grid = [(0.3, 0.5), (0.7, 1.1), (1.0, 0.4), (1.3, 0.9), (0.6, 0.6)]
    lam, k = 0.25, 0.3
    for t1, t2 in grid:
        c1, s1 = math.cos(t1), math.sin(t1)
        c2, s2 = math.cos(t2), math.sin(t2)
        circuit = cs.build_scenario("stubborn_spin", theta1=t1, theta2=t2).circuit

        exact = cs.run_exact_bell(circuit)
        expect = 1.0 / (1.0 / (math.tan(t1) ** 2 * math.tan(t2) ** 2) + 1.0)
        assert abs(cs.flip_probability(exact, "p1", "p2") - expect) <= 1e-12

        n2 = 0.5 * (c1**2 * c2**2 + s1**2 * s2**2)
        z_lam = (1 - lam) * n2 + lam / 4
        noisy = cs.run_noisy_bell(circuit, lam)
        expect_lam = (s1**2 / (2 * z_lam)) * ((1 - lam) * s2**2 + lam / 2)
        assert abs(cs.flip_probability(noisy, "p1", "p2") - expect_lam) <= 1e-12

        classical = cs.run_classical(circuit, k)
        w_diag = c1**2 * c2**2 + s1**2 * s2**2
        w_off = s1**2 * c2**2 + c1**2 * s2**2
        expect_k = ((1 - k) * s1**2 * s2**2 + k * s1**2 * c2**2) / (
            (1 - k) * w_diag + k * w_off
        )
        assert abs(cs.flip_probability(classical, "p1", "p2") - expect_k) <= 1e-12


def test_criterion_06_third_party_selection_and_paradox():
    rng = np.random.default_rng(11)
    draws = [rng.uniform(0, math.pi, 2) for _ in range(20)]
    draws.append(np.array([0.0, math.pi / 2]))  # orthogonal |0>, |1>
    draws.append(np.array([math.pi / 2, 0.0]))
    for u, v in draws:
        a1, b1 = math.cos(u), math.sin(u)
        a2, b2 = math.cos(v), math.sin(v)
        circuit = cs.build_scenario(
            "third_party", a1=a1, b1=b1, a2=a2, b2=b2
        ).circuit
        n2 = (a1 * a2) ** 2 + (b1 * b2) ** 2
        if n2 < 1e-12:
            with pytest.raises(cs.ParadoxError):
                cs.run_exact_bell(circuit)
            continue
        table = cs.projection_table(circuit)
        expect = np.array([a1 * a2, 0.0, 0.0, b1 * b2])
        assert np.max(np.abs(table.amps[table.labels.index("B")] - expect)) <= 1e-12
        assert abs(cs.run_exact_bell(circuit).n - math.sqrt(n2)) <= 1e-12


def test_criterion_07_two_ctc_interaction():
    psi = np.array([0.8, 0.6])
    circuit = cs.build_scenario("two_ctc_cx", alpha=0.8, beta=0.6).circuit
    for lam in (0.0, 0.2, 1.0):
        r = (cs.run_exact_bell(circuit) if lam == 0.0
             else cs.run_noisy_bell(circuit, lam))
        assert abs(r.z - 0.25 * (1 - lam / 2) ** 2) <= 1e-12
        w_keep = (4 - 3 * lam) / (4 - 2 * lam)
        w_flip = lam / (4 - 2 * lam)
        expect = w_keep * np.outer(psi, psi) + w_flip * np.outer(psi[::-1], psi[::-1])
        assert np.max(np.abs(r.rho.mat - expect)) <= 1e-12


def test_criterion_08_tourist_trap_renormalizations():
    circuit = cs.build_scenario("tourist_trap").circuit
    condition = [("m1", 0), ("m2", 0)]
    deselect = (("m3",), np.array([1.0, 0.0]))
    for mode, expect in (("coupled", 1 / 7), ("insulated", 1 / 4)):
        r = cs.run_conditional(circuit, condition, deselect, mode)
        diag = np.real(np.diag(r.rho.mat))
        assert abs(float(diag[:2].sum()) - expect) <= 1e-12


def test_criterion_09_scalar_formula_suite():
    for lam in (0.1, 0.5, 0.9):
        assert abs(cs.skew_factor(cs.NoisyBell(lam)) - (4 / lam - 3)) <= 1e-12
    for k in (0.1, 0.25, 0.5):
        assert abs(cs.skew_factor(cs.Classical(k)) - (1 / k - 1)) <= 1e-12
    for p, omega in ((0.2, 3.0), (0.01, 50.0), (0.7, 1.0)):
        direct = omega * p / (omega * p + 1 - p)
        assert abs(cs.boosted_success(p, omega) - direct) <= 1e-12
        direct_pn = p / (p + omega * (1 - p))
        assert abs(cs.povm_inconclusive(p, omega) - direct_pn) <= 1e-12
    for eps, n in ((0.1, 1), (0.2, 3), (0.01, 5)):
        direct = (1 - eps) ** (n + 1) / ((1 - eps) ** (n + 1) + eps**n)
        assert abs(cs.ec_fidelity(eps, n) - direct) <= 1e-12
    for omega in (1.5, 4.0, 30.0):
        _, z_max, _ = cs.entropy_skew_max(omega)
        assert abs(z_max - omega * math.log(omega) / (omega - 1)) <= 1e-12
    # brute-force skewed-weight entropy oracle
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.uniform(0.05, 0.9)
        omega = rng.uniform(1.0, 40.0)
        rest = rng.uniform(0.1, 1.0, rng.integers(1, 6))
        probs = np.concatenate([[a], (1 - a) * rest / rest.sum()])
        s0 = float(-(probs * np.log(probs)).sum())
        skewed = probs.copy()
        skewed[0] *= omega
        skewed /= skewed.sum()
        s1 = float(-(skewed * np.log(skewed)).sum())
        assert abs(cs.entropy_skew(a, s0, omega) - (s1 - s0)) <= 1e-10


def _random_circuit(rng, n_loops, n_ext):
    channels = [Channel("t%d" % i, looped=True) for i in range(n_loops)]
    for i in range(n_ext):
        t, p = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        amps = (math.cos(t), math.sin(t) * complex(math.cos(p), math.sin(p)))
        channels.append(Channel("e%d" % i, init=amps))
    labels = [c.label for c in channels]
    gates = []
    kinds = ["X", "Z", "H", "ROT", "PHASE", "SWAP", "CX", "CZ", "CROT", "CPHASE"]
    if len(labels) < 2:
        kinds = kinds[:5]
    for _ in range(rng.integers(1, 9)):
        kind = kinds[rng.integers(0, len(kinds))]
        arity = 1 if kind in ("X", "Z", "H", "ROT", "PHASE") else 2
        targets = tuple(rng.choice(labels, size=arity, replace=False))
        n_params = 1 if kind in ("ROT", "PHASE", "CROT", "CPHASE") else 0
        params = tuple(rng.uniform(-math.pi, math.pi, n_params))
        gates.append(make_gate(kind, targets, params=params))
    return build_circuit(channels, gates)


def test_criterion_10_projection_weights_complete():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_loops = int(rng.integers(1, 3))
        n_ext = int(rng.integers(0, 4))
        circuit = _random_circuit(rng, n_loops, n_ext)
        table = cs.projection_table(circuit)
        assert abs(table.total_weight - 1.0) <= 1e-12


def test_criterion_11_delta_oracle_equivalence():
    rng = np.random.default_rng(5)
    circuits = [_random_circuit(rng, 1, int(rng.integers(1, 3)))
                for _ in range(20)]
    for circuit in circuits:
        quad = cs.run_delta_quadrature(circuit).z
        closed = cs.run_weight_matrix(circuit, "delta")
        assert closed.metadata["quadrature_measure_constant"] == 1.0
        assert abs(closed.z - quad) <= 1e-8 * max(1.0, quad)
    # Monte-Carlo cross-check on three of them
    n_samp = 10**6
    for circuit in circuits[:3]:
        a = histories_by_unitary(circuit)
        theta = rng.uniform(0, math.pi, n_samp)
        xi = rng.uniform(0, 2 * math.pi, n_samp)
        c = np.stack([np.cos(theta), np.sin(theta) * np.exp(1j * xi)])
        coef = c[:, None, :] * c.conj()[None, :, :]
        amps = np.einsum("ijs,ije->se", coef, a)
        dens = np.einsum("se,se->s", amps, amps.conj()).real
        mc = 2 * PI2 * dens.mean()
        sigma = 2 * PI2 * dens.std(ddof=1) / math.sqrt(n_samp)
        exact = cs.run_delta_quadrature(circuit).z
        assert abs(mc - exact) <= 3 * sigma


def test_criterion_12_cli_reports_byte_identical(tmp_path):
    cases = [
        ("simple_loop", "exact_bell"),
        ("faulty_gun", "exact_bell"),
        ("two_ctc_cx", "noisy_bell,lambda=0.3"),
        ("cnot_gun", "classical,k=0.3"),
        ("grandfather_not", "exact_bell"),
    ]
    for name, model in cases:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "ctcsim.cli", "scenario", name,
                 "--model", model],
                capture_output=True,
            )
            assert proc.returncode in (0, 2)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])


def test_no_module_defines_a_top_level_name_twice():
    # a second definition shadows the first: pytest collects only one of two same-named tests
    root = pathlib.Path(__file__).resolve().parents[1]
    for path in sorted([*(root / "src" / "ctcsim").glob("*.py"), *(root / "tests").glob("*.py")]):
        names = [node.name for node in ast.parse(path.read_text()).body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        twice = sorted({name for name in names if names.count(name) > 1})
        assert not twice, "%s defines %s more than once" % (path.name, ", ".join(twice))
