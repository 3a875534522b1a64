"""Catalog of worked post-selection circuits with closed-form expectations.

Each entry builds a small circuit and carries a table of expected quantities
(survival amplitude, acceptance rate, output density operators, projection
components, flip probabilities) as closed-form expressions of the scenario
parameters, evaluated at run time.  `verify_scenario` runs the engine and
reports the deltas; the regression suite requires every default-parameter
expectation to pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .circuit import Channel, build_circuit, with_init
from .engine import (
    Classical,
    DeltaQuadrature,
    projection_table,
    run_classical,
    run_conditional,
    run_delta_quadrature,
    run_exact_bell,
    run_noisy_bell,
    run_weight_matrix,
)
from .errors import ParadoxError, ScenarioNotFound
from .gates import make_gate

_SQ2 = 2**-0.5


@dataclass(frozen=True)
class Scenario:
    name: str
    summary: str
    params: dict
    circuit: object


def _g(kind, *targets, **kw):
    params = kw.pop("params", ())
    matrix = kw.pop("matrix", None)
    return make_gate(kind, targets, params=params, matrix=matrix)


def _scalarize(x):
    arr = np.asarray(x)
    if arr.ndim == 0:
        v = complex(arr)
        return v.real if abs(v.imag) < 1e-15 else [v.real, v.imag]
    return None


def _rec(model, quantity, expected, actual, tol=1e-9):
    delta = float(np.max(np.abs(np.asarray(expected) - np.asarray(actual))))
    return {
        "model": model,
        "quantity": quantity,
        "expected": _scalarize(expected),
        "actual": _scalarize(actual),
        "delta": delta,
        "tol": tol,
        "passed": bool(delta <= tol),
    }


def _paradox_rec(model, quantity, fn):
    try:
        fn()
    except ParadoxError:
        ok = True
    else:
        ok = False
    rec = _rec(model, quantity, 0.0, 0.0 if ok else 1.0, tol=0.0)
    rec.update(expected="ParadoxError", actual="ParadoxError" if ok else "no paradox")
    return rec


def _proj(x):
    x = np.asarray(x, dtype=complex)
    return np.outer(x, x.conj())


def _qubit(a, b):
    return np.array([a, b], dtype=complex)


# ---------------------------------------------------------------------------
# builders


def _b_simple_loop(p):
    return build_circuit(
        [Channel("tm", looped=True), Channel("sys", init=(p["alpha"], p["beta"]))],
        [_g("SWAP", "tm", "sys")],
    )


def _b_simple_loop_2q(p):
    gamma = np.array([p["g00"], p["g01"], p["g10"], p["g11"]], dtype=complex)
    gamma = gamma / np.linalg.norm(gamma)
    return build_circuit(
        [Channel("tm1", looped=True), Channel("tm2", looped=True),
         Channel("e1"), Channel("e2")],
        [_g("SWAP", "tm1", "e1"), _g("SWAP", "tm2", "e2")],
        entangled=[(("e1", "e2"), gamma)],
    )


def _b_grandfather(gate):
    def build(p):
        return build_circuit([Channel("tm", looped=True)], [gate()])
    return build


def _b_grandfather_perturbed(p):
    eps = p["eps"]
    mat = (1 - eps) * np.array([[0, 1], [1, 0]]) + eps * np.eye(2)
    return build_circuit(
        [Channel("tm", looped=True)], [_g("CUSTOM", "tm", matrix=mat)]
    )


def _b_faulty_gun(p):
    return build_circuit(
        [Channel("tm", looped=True)], [_g("ROT", "tm", params=(p["zeta"],))]
    )


def _b_cnot_gun(p):
    return build_circuit(
        [Channel("tm", looped=True), Channel("gun", init=(p["alpha"], p["beta"]))],
        [_g("CX", "gun", "tm")],
    )


def _b_cpf_gun(p):
    return build_circuit(
        [Channel("tm", looped=True), Channel("gun", init=(p["alpha"], p["beta"]))],
        [_g("CPHASE", "gun", "tm", params=(math.pi,))],
    )


def _b_crot_gun(p):
    return build_circuit(
        [Channel("tm", looped=True), Channel("gun", init=(p["alpha"], p["beta"]))],
        [_g("CROT", "gun", "tm", params=(p["zeta"],))],
    )


def _b_phase_gun(p):
    return build_circuit(
        [Channel("tm", looped=True), Channel("gun", init=(p["alpha"], p["beta"]))],
        [_g("CPHASE", "gun", "tm", params=(p["xi"],))],
    )


def _b_proof(gate_kind, angle=None):
    def build(p):
        params = (angle,) if angle is not None else ()
        return build_circuit(
            [Channel("tm", looped=True),
             Channel("probe", init=(p["alpha"], p["beta"]))],
            [_g(gate_kind, "tm", "probe", params=params)],
        )
    return build


def _b_pot_product(p):
    return build_circuit(
        [Channel("tm", looped=True),
         Channel("p1", init=(p["a1"], p["b1"])),
         Channel("p2", init=(p["a2"], p["b2"]))],
        [_g("CX", "tm", "p1"), _g("CX", "tm", "p2")],
    )


def _b_pot_entangled(p):
    gamma = np.array([p["g00"], 0.0, 0.0, p["g11"]], dtype=complex)
    gamma = gamma / np.linalg.norm(gamma)
    return build_circuit(
        [Channel("tm", looped=True), Channel("p1"), Channel("p2")],
        [_g("CX", "tm", "p1"), _g("CX", "tm", "p2")],
        entangled=[(("p1", "p2"), gamma)],
    )


def _b_two_ctc_cx(p):
    return build_circuit(
        [Channel("tm1", looped=True), Channel("tm2", looped=True),
         Channel("probe", init=(p["alpha"], p["beta"]))],
        [_g("CX", "tm1", "tm2"), _g("CX", "tm1", "probe")],
    )


def _b_mutual_paradox(p):
    return build_circuit(
        [Channel("tm1", looped=True), Channel("tm2", looped=True),
         Channel("s", init=(p["alpha"], p["beta"]))],
        [_g("CX", "s", "tm1"), _g("ROT", "s", params=(p["zeta"],)),
         _g("CX", "s", "tm2")],
    )


def _b_third_party(p):
    return build_circuit(
        [Channel("tm", looped=True),
         Channel("s1", init=(p["a1"], p["b1"])),
         Channel("s2", init=(p["a2"], p["b2"]))],
        [_g("CX", "s1", "tm"), _g("CX", "s2", "tm")],
    )


def _b_stubborn(p):
    return build_circuit(
        [Channel("tm", looped=True), Channel("p1"), Channel("p2"), Channel("p3")],
        [_g("CX", "tm", "p1"), _g("ROT", "tm", params=(p["theta1"],)),
         _g("CX", "tm", "p2"), _g("ROT", "tm", params=(p["theta2"],)),
         _g("CX", "tm", "p3")],
    )


def _b_amnesia_plain(p):
    return build_circuit(
        [Channel("tm", looped=True), Channel("sys", init=(p["alpha"], p["beta"]))],
        [_g("SWAP", "tm", "sys"), _g("CX", "tm", "sys")],
    )


def _b_amnesia_entangled(p):
    gamma = np.array([p["alpha"], 0.0, 0.0, p["beta"]], dtype=complex)
    gamma = gamma / np.linalg.norm(gamma)
    return build_circuit(
        [Channel("tm", looped=True), Channel("s1"), Channel("s2")],
        [_g("CX", "tm", "s1")],
        entangled=[(("s1", "s2"), gamma)],
    )


def _b_secondary_loop(p):
    bell = np.array([_SQ2, 0.0, 0.0, _SQ2])
    return build_circuit(
        [Channel("tm", looped=True), Channel("b1"), Channel("b2"),
         Channel("c", init=(p["alpha"], p["beta"]))],
        [_g("ROT", "b2", params=(-math.pi / 4,)),
         _g("CPHASE", "c", "b1", params=(math.pi,)),
         _g("CX", "tm", "b1"),
         _g("CX", "b1", "tm")],
        entangled=[(("b1", "b2"), bell)],
    )


def _b_backprop_chain(p):
    return build_circuit(
        [Channel("tm", looped=True), Channel("c1"), Channel("c2"), Channel("p")],
        [_g("ROT", "c2", params=(p["theta_s"],)),
         _g("CX", "c2", "p"),
         _g("ROT", "c2", params=(-p["theta_s"],)),
         _g("CROT", "c2", "c1", params=(p["theta_g1"],)),
         _g("CROT", "c1", "tm", params=(p["theta_g2"],))],
    )


def _b_n_controlled_not(p):
    alphas = p["alphas"]
    channels = [Channel("tm", looped=True)]
    gates = []
    for i, a in enumerate(alphas):
        b = math.sqrt(max(0.0, 1.0 - a * a))
        label = "c%d" % i
        channels.append(Channel(label, init=(a, b)))
        gates.append(_g("CX", label, "tm"))
    return build_circuit(channels, gates)


def _b_ccrot_selector(p):
    return build_circuit(
        [Channel("tm", looped=True),
         Channel("c1", init=(p["a1"], p["b1"])),
         Channel("c2", init=(p["a2"], p["b2"]))],
        [_g("CCROT", "c1", "c2", "tm", params=(p["theta1"],)),
         _g("ROT", "tm", params=(p["theta2"],))],
    )


def _b_cccrot_selector(p):
    return build_circuit(
        [Channel("tm", looped=True),
         Channel("c1", init=(p["a1"], p["b1"])),
         Channel("c2", init=(p["a2"], p["b2"])),
         Channel("c3", init=(p["a3"], p["b3"]))],
        [_g("CCCROT", "c1", "c2", "c3", "tm", params=(p["theta1"],)),
         _g("ROT", "tm", params=(p["theta2"],))],
    )


def _parity_ec_input(p):
    eps, a, b = p["eps"], p["alpha"], p["beta"]
    v = np.zeros(4, dtype=complex)
    v[0] = a * (1 - eps) + b * eps
    v[3] = b * (1 - eps) + a * eps
    v[1] = v[2] = math.sqrt(eps * (1 - eps)) * (a + b)
    return v / np.linalg.norm(v)


def _b_parity_ec(p):
    return build_circuit(
        [Channel("tm", looped=True), Channel("b1"), Channel("b2")],
        [_g("CX", "b1", "tm"), _g("CX", "b2", "tm")],
        entangled=[(("b1", "b2"), _parity_ec_input(p))],
    )


def _b_tourist_trap(p):
    plus = (_SQ2, _SQ2)
    return build_circuit(
        [Channel("m1", init=plus), Channel("m2", init=plus), Channel("m3", init=plus)]
    )


# ---------------------------------------------------------------------------
# expectation tables


def _c_simple_loop(p, c):
    psi = _qubit(p["alpha"], p["beta"])
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", 0.5, r.n, 1e-12))
    rec.append(_rec("exact_bell", "rho", _proj(psi), r.rho.mat, 1e-12))
    rn = run_noisy_bell(c, 0.3)
    rec.append(_rec("noisy_bell(0.3)", "z", 0.25, rn.z, 1e-12))
    rd = run_delta_quadrature(c)
    pp = _proj(psi)
    rho_delta = (pp + np.diag(np.diag(pp)) + np.eye(2)) / 4.0
    rec.append(_rec("delta", "z", math.pi**2, rd.z, 1e-8))
    rec.append(_rec("delta", "rho", rho_delta, rd.rho.mat, 1e-8))
    rw = run_weight_matrix(c, "delta")
    rec.append(_rec("weight_matrix(delta)", "z", rd.z, rw.z, 1e-8))
    k = 0.25
    rc = run_classical(c, k, floor=True)
    rho_cl = 0.5 * k * np.eye(2) + (1 - k) * np.diag(np.abs(psi) ** 2)
    rec.append(_rec("classical(0.25,floor)", "z", 1.0, rc.z, 1e-12))
    rec.append(_rec("classical(0.25,floor)", "rho", rho_cl, rc.rho.mat, 1e-12))
    return rec


def _c_simple_loop_2q(p, c):
    gamma = np.array([p["g00"], p["g01"], p["g10"], p["g11"]], dtype=complex)
    gamma = gamma / np.linalg.norm(gamma)
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", 0.25, r.n, 1e-12))
    rec.append(_rec("exact_bell", "rho", _proj(gamma), r.rho.mat, 1e-12))
    k = 0.3
    rc = run_classical(c, k, floor=True)
    rho_cl = 0.25 * k * np.eye(4) + (1 - k) * np.diag(np.abs(gamma) ** 2)
    rec.append(_rec("classical(0.3,floor)", "z", 1.0, rc.z, 1e-12))
    rec.append(_rec("classical(0.3,floor)", "rho", rho_cl, rc.rho.mat, 1e-12))
    return rec


def _c_twist_pair(p, c):
    a, b = p["alpha"], p["beta"]
    rec = []
    twist = np.array([_SQ2, 0.5, 0.0, 0.5], dtype=complex)
    r = run_exact_bell(c, pair_states={"tm": twist})
    expect = np.array([a / 2 + b / math.sqrt(8), a / math.sqrt(8) + b / 2])
    n = np.linalg.norm(expect)
    rec.append(_rec("exact_bell(twist)", "n", n, r.n, 1e-12))
    rec.append(_rec("exact_bell(twist)", "rho", _proj(expect / n), r.rho.mat, 1e-12))
    alt = 0.5 * np.array([1, 1, 1, -1], dtype=complex)
    r2 = run_exact_bell(c, pair_states={"tm": alt})
    psi = _qubit(a, b)
    rec.append(_rec("exact_bell(rotated)", "n", 0.5, r2.n, 1e-12))
    rec.append(_rec("exact_bell(rotated)", "rho", _proj(psi), r2.rho.mat, 1e-12))
    return rec


def _c_grandfather(label):
    def checks(p, c):
        rec = [_paradox_rec("exact_bell", "paradox", lambda: run_exact_bell(c))]
        table = projection_table(c)
        for out in ("B", "-", "N", "-N"):
            rec.append(_rec(
                "projection", "weight[%s]" % out,
                1.0 if out == label else 0.0, table[out].weight, 1e-12,
            ))
        lam = 0.2
        rn = run_noisy_bell(c, lam)
        rec.append(_rec("noisy_bell(0.2)", "z", lam / 4.0, rn.z, 1e-12))
        return rec
    return checks


def _c_grandfather_not_extra(p, c):
    rec = _c_grandfather("N")(p, c)
    rd = run_delta_quadrature(c)
    rec.append(_rec("delta", "z", math.pi**2 / 2.0, rd.z, 1e-8))
    rec.append(_rec("delta", "rho_loop", np.eye(2) / 2.0, rd.rho_loop.mat, 1e-8))
    rc = run_classical(c, 0.3)
    rec.append(_rec("classical(0.3)", "z", 0.6, rc.z, 1e-12))
    rec.append(_rec("classical(0.3)", "rho_loop", np.eye(2) / 2.0, rc.rho_loop.mat, 1e-12))
    return rec


def _c_grandfather_perturbed(p, c):
    r = run_exact_bell(c)
    return [_rec("exact_bell", "n", p["eps"], r.n, 1e-12)]


def _c_faulty_gun(p, c):
    z = p["zeta"]
    cz, sz = math.cos(z), math.sin(z)
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", abs(cz), r.n, 1e-12))
    lam = 0.25
    rn = run_noisy_bell(c, lam)
    rec.append(_rec("noisy_bell(0.25)", "z", (1 - lam) * cz**2 + lam / 4, rn.z, 1e-12))
    k = 0.3
    rc = run_classical(c, k, floor=True)
    rec.append(_rec("classical(0.3,floor)", "z", k + 2 * (1 - k) * cz**2, rc.z, 1e-12))
    rd = run_delta_quadrature(c)
    rec.append(_rec("delta", "z", (math.pi**2 / 2) * (3 * cz**2 + 1), rd.z, 1e-8))
    return rec


def _c_cnot_gun(p, c):
    a, b = p["alpha"], p["beta"]
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", abs(a), r.n, 1e-12))
    rec.append(_rec("exact_bell", "rho", np.diag([1.0, 0.0]), r.rho.mat, 1e-12))
    lam = 0.2
    rn = run_noisy_bell(c, lam)
    rec.append(_rec("noisy_bell(0.2)", "z", (1 - lam) * a**2 + lam / 4, rn.z, 1e-12))
    k = 0.3
    rc = run_classical(c, k)
    rec.append(_rec("classical(0.3)", "z", 2 * (1 - k) * a**2 + 2 * k * b**2, rc.z, 1e-12))
    rd = run_delta_quadrature(c)
    rec.append(_rec("delta", "z", (math.pi**2 / 2) * (3 * a**2 + 1), rd.z, 1e-8))
    bias = analysis.input_bias(c, "gun", DeltaQuadrature(), nodes=32)
    rec.append(_rec("delta", "input_bias", np.diag([0.65, 0.35]), bias.mat, 1e-6))
    bias_cl = analysis.input_bias(c, "gun", Classical(k), nodes=32)
    expect = np.diag([(3 - 2 * k) / 4, (1 + 2 * k) / 4])
    rec.append(_rec("classical(0.3)", "input_bias", expect, bias_cl.mat, 1e-6))
    # both bits classical: decohere the control over its eigenstates, weighting
    # each by the floor-convention acceptance rate
    z0 = run_classical(with_init(c, "gun", (1.0, 0.0)), k, floor=True).z
    z1 = run_classical(with_init(c, "gun", (0.0, 1.0)), k, floor=True).z
    rho_ctl = np.diag([z0, z1]) / (z0 + z1)
    rec.append(_rec("classical(0.3,both)", "rho_control",
                    np.diag([(2 - k) / 2, k / 2]), rho_ctl, 1e-12))
    return rec


def _c_cpf_gun(p, c):
    a, b = p["alpha"], p["beta"]
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", abs(a), r.n, 1e-12))
    lam = 0.2
    rn = run_noisy_bell(c, lam)
    rec.append(_rec("noisy_bell(0.2)", "z", (1 - lam) * a**2 + lam / 4, rn.z, 1e-12))
    k = 0.3
    rc = run_classical(c, k, floor=True)
    rec.append(_rec("classical(0.3,floor)", "z", 2 - k, rc.z, 1e-12))
    rec.append(_rec("classical(0.3,floor)", "rho", np.diag([a**2, b**2]), rc.rho.mat, 1e-12))
    return rec


def _c_cpf_delta(p, c):
    a, b = p["alpha"], p["beta"]
    rec = [_rec("exact_bell", "n", abs(a), run_exact_bell(c).n, 1e-12)]
    rd = run_delta_quadrature(c)
    rec.append(_rec("delta", "z", math.pi**2 * (1 + a**2), rd.z, 1e-8))
    expect = np.diag([2 * a**2 / (1 + a**2), b**2 / (1 + a**2)])
    rec.append(_rec("delta", "rho", expect, rd.rho.mat, 1e-8))
    rw = run_weight_matrix(c, "delta")
    rec.append(_rec("weight_matrix(delta)", "z", rd.z, rw.z, 1e-8))
    rec.append(_rec("weight_matrix(delta)", "rho", rd.rho.mat, rw.rho.mat, 1e-8))
    return rec


def _c_crot_gun(p, c):
    a, b, z = p["alpha"], p["beta"], p["zeta"]
    rec = []
    r = run_exact_bell(c)
    n2 = 1 - b**2 * math.sin(z) ** 2
    psi_b = np.array([a, b * math.cos(z)])
    rec.append(_rec("exact_bell", "n", math.sqrt(n2), r.n, 1e-12))
    rec.append(_rec("exact_bell", "rho", _proj(psi_b) / n2, r.rho.mat, 1e-12))
    lam = 0.2
    rn = run_noisy_bell(c, lam)
    expect = 1 - 0.75 * lam - (1 - lam) * b**2 * math.sin(z) ** 2
    rec.append(_rec("noisy_bell(0.2)", "z", expect, rn.z, 1e-12))
    return rec


def _c_phase_gun(p, c):
    a, b, xi = p["alpha"], p["beta"], p["xi"]
    psi_b = np.array([a, b * (1 + np.exp(1j * xi)) / 2])
    n2 = float(np.vdot(psi_b, psi_b).real)
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", math.sqrt(n2), r.n, 1e-12))
    rec.append(_rec("exact_bell", "rho", _proj(psi_b) / n2, r.rho.mat, 1e-12))
    lam = 0.2
    rn = run_noisy_bell(c, lam)
    rec.append(_rec("noisy_bell(0.2)", "z", (1 - lam) * n2 + lam / 4, rn.z, 1e-12))
    return rec


def _c_proof_cx(p, c):
    a, b = p["alpha"], p["beta"]
    rec = []
    table = projection_table(c)
    rec.append(_rec("projection", "psi_B",
                    0.5 * (a + b) * np.array([1.0, 1.0]), table["B"].state.amps, 1e-12))
    rec.append(_rec("projection", "psi_-",
                    0.5 * (a - b) * np.array([1.0, -1.0]), table["-"].state.amps, 1e-12))
    k = 0.3
    rc = run_classical(c, k)
    psi = _qubit(a, b)
    xpsi = psi[::-1]
    rec.append(_rec("classical(0.3)", "z", 2 * (1 - k), rc.z, 1e-12))
    rec.append(_rec("classical(0.3)", "rho",
                    0.5 * (_proj(psi) + _proj(xpsi)), rc.rho.mat, 1e-12))
    bad = with_init(c, "probe", (_SQ2, -_SQ2))
    rec.append(_paradox_rec("exact_bell", "paradox(minus probe)",
                            lambda: run_exact_bell(bad)))
    return rec


def _c_proof_crot(p, c):
    a, b = p["alpha"], p["beta"]
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", _SQ2, r.n, 1e-12))
    rd = run_delta_quadrature(c)
    rec.append(_rec("delta", "z", 1.5 * math.pi**2, rd.z, 1e-8))
    rho00 = 0.5 - a * (b + b) / 6.0
    rho01 = (a * (b - b)) / 2.0 + (a**2 - b**2) / 6.0
    expect = np.array([[rho00, rho01], [np.conj(rho01), 1 - rho00]])
    rec.append(_rec("delta", "rho", expect, rd.rho.mat, 1e-8))
    rw = run_weight_matrix(c, "delta")
    rec.append(_rec("weight_matrix(delta)", "rho", rd.rho.mat, rw.rho.mat, 1e-8))
    k = 0.3
    rc = run_classical(c, k)
    psi = _qubit(a, b)
    rpsi = np.array([-b, a], dtype=complex)
    rec.append(_rec("classical(0.3)", "rho",
                    0.5 * (_proj(psi) + _proj(rpsi)), rc.rho.mat, 1e-12))
    return rec


def _c_proof_cpf(p, c):
    r = run_exact_bell(c)
    return [
        _rec("exact_bell", "n", abs(p["alpha"]), r.n, 1e-12),
        _rec("exact_bell", "rho", np.diag([1.0, 0.0]), r.rho.mat, 1e-12),
    ]


def _c_pot_product(p, c):
    psi1 = _qubit(p["a1"], p["b1"])
    psi2 = _qubit(p["a2"], p["b2"])
    v = np.kron(psi1, psi2) + np.kron(psi1[::-1], psi2[::-1])
    n2 = float(np.vdot(v, v).real) / 4.0
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", math.sqrt(n2), r.n, 1e-12))
    rec.append(_rec("exact_bell", "rho", _proj(v) / np.vdot(v, v).real, r.rho.mat, 1e-12))
    lam = 0.3
    rn = run_noisy_bell(c, lam)
    rec.append(_rec("noisy_bell(0.3)", "z", (1 - lam) * n2 + lam / 4, rn.z, 1e-12))
    return rec


def _c_pot_entangled(p, c):
    g = np.array([p["g00"], p["g11"]], dtype=float)
    g = g / np.linalg.norm(g)
    n2 = (g[0] + g[1]) ** 2 / 2.0
    r = run_exact_bell(c)
    return [_rec("exact_bell", "n", math.sqrt(n2), r.n, 1e-12)]


def _c_two_ctc_cx(p, c):
    psi = _qubit(p["alpha"], p["beta"])
    xpsi = psi[::-1]
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", 0.5, r.n, 1e-12))
    rec.append(_rec("exact_bell", "rho", _proj(psi), r.rho.mat, 1e-12))
    for lam in (0.0, 0.2, 1.0):
        res = run_exact_bell(c) if lam == 0.0 else run_noisy_bell(c, lam)
        z_expect = 0.25 * (1 - lam / 2) ** 2
        w_keep = (4 - 3 * lam) / (4 - 2 * lam)
        w_flip = lam / (4 - 2 * lam)
        rho_expect = w_keep * _proj(psi) + w_flip * _proj(xpsi)
        rec.append(_rec("noisy_bell(%.1f)" % lam, "z", z_expect, res.z, 1e-12))
        rec.append(_rec("noisy_bell(%.1f)" % lam, "rho", rho_expect, res.rho.mat, 1e-12))
    return rec


def _c_mutual_paradox(p, c):
    a, b, z = p["alpha"], p["beta"], p["zeta"]
    cz, sz = math.cos(z), math.sin(z)
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", abs(a * cz), r.n, 1e-12))
    lam = 0.2
    rn = run_noisy_bell(c, lam)
    w_b, w_e = 1 - 0.75 * lam, 0.25 * lam
    expect = (w_b**2 * a**2 * cz**2 + w_e * w_b * sz**2 + w_e**2 * b**2 * cz**2)
    rec.append(_rec("noisy_bell(0.2)", "z", expect, rn.z, 1e-12))
    k = 0.35
    rc = run_classical(c, k)
    z_cl = 4 * ((1 - k) ** 2 * a**2 * cz**2 + k * (1 - k) * sz**2
                + k**2 * b**2 * cz**2)
    rec.append(_rec("classical(0.35)", "z", z_cl, rc.z, 1e-12))
    paradox = _b_mutual_paradox({**p, "zeta": math.pi / 2})
    rec.append(_paradox_rec("exact_bell", "paradox(zeta=pi/2)",
                            lambda: run_exact_bell(paradox)))
    return rec


def _c_third_party(p, c):
    a1, b1, a2, b2 = p["a1"], p["b1"], p["a2"], p["b2"]
    rec = []
    table = projection_table(c)
    expect_b = np.array([a1 * a2, 0.0, 0.0, b1 * b2], dtype=complex)
    expect_n = np.array([0.0, a1 * b2, b1 * a2, 0.0], dtype=complex)
    rec.append(_rec("projection", "psi_B", expect_b, table["B"].state.amps, 1e-12))
    rec.append(_rec("projection", "psi_N", expect_n, table["N"].state.amps, 1e-12))
    r = run_exact_bell(c)
    n2 = a1**2 * a2**2 + b1**2 * b2**2
    rec.append(_rec("exact_bell", "n", math.sqrt(n2), r.n, 1e-12))
    orth = _b_third_party({"a1": 1.0, "b1": 0.0, "a2": 0.0, "b2": 1.0})
    rec.append(_paradox_rec("exact_bell", "paradox(orthogonal)",
                            lambda: run_exact_bell(orth)))
    return rec


def _stubborn_forms(t1, t2):
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    n2 = 0.5 * (c1**2 * c2**2 + s1**2 * s2**2)
    flip = s1**2 * s2**2 / (2 * n2)
    return c1, s1, c2, s2, n2, flip


def _c_stubborn(p, c):
    t1, t2 = p["theta1"], p["theta2"]
    c1, s1, c2, s2, n2, flip = _stubborn_forms(t1, t2)
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", math.sqrt(n2), r.n, 1e-12))
    rec.append(_rec("exact_bell", "flip(p1,p2)", flip,
                    analysis.flip_probability(r, "p1", "p2"), 1e-12))
    lam = 0.25
    rn = run_noisy_bell(c, lam)
    z_lam = (1 - lam) * n2 + lam / 4
    flip_lam = (s1**2 / (2 * z_lam)) * ((1 - lam) * s2**2 + lam / 2)
    rec.append(_rec("noisy_bell(0.25)", "z", z_lam, rn.z, 1e-12))
    rec.append(_rec("noisy_bell(0.25)", "flip(p1,p2)", flip_lam,
                    analysis.flip_probability(rn, "p1", "p2"), 1e-12))
    k = 0.3
    rc = run_classical(c, k)
    w_diag = c1**2 * c2**2 + s1**2 * s2**2
    w_off = s1**2 * c2**2 + c1**2 * s2**2
    flip_cl = ((1 - k) * s1**2 * s2**2 + k * s1**2 * c2**2) / (
        (1 - k) * w_diag + k * w_off
    )
    rec.append(_rec("classical(0.3)", "flip(p1,p2)", flip_cl,
                    analysis.flip_probability(rc, "p1", "p2"), 1e-12))
    return rec


def _c_amnesia_plain(p, c):
    a, b = p["alpha"], p["beta"]
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", abs(a + b) / 2, r.n, 1e-12))
    rec.append(_rec("exact_bell", "rho", np.diag([1.0, 0.0]), r.rho.mat, 1e-12))
    k = 0.3
    rc = run_classical(c, k)
    rec.append(_rec("classical(0.3)", "z", 1.0, rc.z, 1e-12))
    rec.append(_rec("classical(0.3)", "rho", np.diag([1 - k, k]), rc.rho.mat, 1e-12))
    bad = with_init(c, "sys", (_SQ2, -_SQ2))
    rec.append(_paradox_rec("exact_bell", "paradox(minus input)",
                            lambda: run_exact_bell(bad)))
    return rec


def _c_amnesia_entangled(p, c):
    g = np.array([p["alpha"], p["beta"]], dtype=float)
    g = g / np.linalg.norm(g)
    table = projection_table(c)
    expect = 0.5 * np.array([g[0], g[1], g[0], g[1]], dtype=complex)
    rec = [_rec("projection", "psi_B", expect, table["B"].state.amps, 1e-12)]
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", _SQ2, r.n, 1e-12))
    return rec


def _c_secondary_loop(p, c):
    a, b = p["alpha"], p["beta"]
    table = projection_table(c)
    expect = np.zeros(8, dtype=complex)
    expect[0b000] = 0.5 * a
    expect[0b011] = -0.5 * b
    rec = [_rec("projection", "psi_B", expect, table["B"].state.amps, 1e-12)]
    rn = run_noisy_bell(c, 0.2)
    rec.append(_rec("noisy_bell(0.2)", "z", 0.25, rn.z, 1e-12))
    return rec


def _c_backprop_chain(p, c):
    ts, g1, g2 = p["theta_s"], p["theta_g1"], p["theta_g2"]
    cs, ss = math.cos(ts), math.sin(ts)
    n2 = 1 - 2 * ss**2 * cs**2 * math.sin(g1) ** 2 * math.sin(g2) ** 2
    flip = ss**2 * (1 - cs**2 * math.sin(g1) ** 2 * math.sin(g2) ** 2) / n2
    rec = []
    r = run_exact_bell(c)
    rec.append(_rec("exact_bell", "n", math.sqrt(n2), r.n, 1e-12))
    rec.append(_rec("exact_bell", "flip(p)", flip,
                    analysis.flip_probability(r, "p"), 1e-12))
    return rec


def _c_n_controlled_not(p, c):
    parity = analysis.parity_recursion(p["alphas"])
    r = run_exact_bell(c)
    return [_rec("exact_bell", "n2", parity["e2"], r.n**2, 1e-12)]


def _selector_expect(thetas, controls):
    """Amplitudes cos(theta2) off the all-ones control state, cos(theta1+theta2) on it."""
    t1, t2 = thetas
    amps = np.ones(1, dtype=complex)
    for a, b in controls:
        amps = np.kron(amps, np.array([a, b], dtype=complex))
    out = amps * math.cos(t2)
    out[-1] = amps[-1] * math.cos(t1 + t2)
    return out


def _c_ccrot_selector(p, c):
    expect = _selector_expect(
        (p["theta1"], p["theta2"]),
        [(p["a1"], p["b1"]), (p["a2"], p["b2"])],
    )
    table = projection_table(c)
    return [_rec("projection", "psi_B", expect, table["B"].state.amps, 1e-12)]


def _c_cccrot_selector(p, c):
    expect = _selector_expect(
        (p["theta1"], p["theta2"]),
        [(p["a1"], p["b1"]), (p["a2"], p["b2"]), (p["a3"], p["b3"])],
    )
    table = projection_table(c)
    return [_rec("projection", "psi_B", expect, table["B"].state.amps, 1e-12)]


def _c_parity_ec(p, c):
    v = _parity_ec_input(p)
    expect_b = np.array([v[0], 0.0, 0.0, v[3]], dtype=complex)
    expect_n = np.array([0.0, v[1], v[2], 0.0], dtype=complex)
    table = projection_table(c)
    rec = [
        _rec("projection", "psi_B", expect_b, table["B"].state.amps, 1e-12),
        _rec("projection", "psi_N", expect_n, table["N"].state.amps, 1e-12),
    ]
    lam = p["lam"]
    rn = run_noisy_bell(c, lam)
    nb2 = float(np.vdot(expect_b, expect_b).real)
    rec.append(_rec("noisy_bell", "z", (1 - lam) * nb2 + lam / 4, rn.z, 1e-12))
    return rec


def _c_tourist_trap(p, c):
    condition = [("m1", 0), ("m2", 0)]
    deselect = (("m3",), np.array([1.0, 0.0]))
    rec = []
    for mode, expect in (("coupled", 1.0 / 7.0), ("insulated", 0.25)):
        r = run_conditional(c, condition, deselect, mode)
        diag = np.real(np.diag(r.rho.mat))
        idx = np.arange(8)
        prefix = float(diag[(idx >> 1) == 0].sum())  # m1 = m2 = 0
        rec.append(_rec("conditional(%s)" % mode, "p_prefix_00", expect, prefix, 1e-12))
    return rec


# ---------------------------------------------------------------------------
# registry

_AB = {"alpha": 0.8, "beta": 0.6}

_REGISTRY = {
    "simple_loop": (
        "One looped qubit swapped with an external qubit; survives with N = 1/2.",
        dict(_AB), _b_simple_loop, _c_simple_loop),
    "simple_loop_2q": (
        "Two looped qubits swapped with an entangled external register.",
        {"g00": 0.6, "g01": 0.0, "g10": 0.0, "g11": 0.8},
        _b_simple_loop_2q, _c_simple_loop_2q),
    "twist_pair": (
        "Simple loop against a non-maximally-entangled boundary pair.",
        dict(_AB), _b_simple_loop, _c_twist_pair),
    "grandfather_not": (
        "NOT gate on the loop: the matched projection vanishes identically.",
        {}, _b_grandfather(lambda: _g("X", "tm")), _c_grandfather_not_extra),
    "grandfather_pf": (
        "Phase flip on the loop: amplitude moves to the phase-mismatch outcome.",
        {}, _b_grandfather(lambda: _g("Z", "tm")), _c_grandfather("-")),
    "grandfather_rot": (
        "Quarter-turn rotation on the loop: amplitude moves to the combined mismatch.",
        {}, _b_grandfather(lambda: _g("ROT", "tm", params=(math.pi / 2,))),
        _c_grandfather("-N")),
    "grandfather_perturbed": (
        "Near-NOT perturbation (1-eps)X + eps*I leaves survival amplitude eps.",
        {"eps": 1e-2}, _b_grandfather_perturbed, _c_grandfather_perturbed),
    "faulty_gun": (
        "Rotation by zeta on the loop; the trigger misfires with amplitude cos(zeta).",
        {"zeta": math.pi / 3}, _b_faulty_gun, _c_faulty_gun),
    "cnot_gun": (
        "External control fires a NOT at the loop; selection biases the control.",
        dict(_AB), _b_cnot_gun, _c_cnot_gun),
    "cpf_gun": (
        "External control fires a phase flip at the loop.",
        dict(_AB), _b_cpf_gun, _c_cpf_gun),
    "cpf_delta": (
        "Controlled phase flip under the continuous loop boundary model.",
        dict(_AB), _b_cpf_gun, _c_cpf_delta),
    "crot_gun": (
        "External control fires a partial rotation (zeta) at the loop.",
        {"zeta": 0.5, **_AB}, _b_crot_gun, _c_crot_gun),
    "phase_gun": (
        "External control fires a partial phase (xi) at the loop.",
        {"xi": 0.9, **_AB}, _b_phase_gun, _c_phase_gun),
    "unproven_proof_cx": (
        "Loop copies itself onto a probe; only aligned probes survive.",
        dict(_AB), _b_proof("CX"), _c_proof_cx),
    "unproven_proof_crot": (
        "Loop rotates a probe by a quarter turn; survival is input-independent.",
        dict(_AB), _b_proof("CROT", math.pi / 2), _c_proof_crot),
    "unproven_proof_cpf": (
        "Loop phase-flips a probe.",
        dict(_AB), _b_proof("CPHASE", math.pi), _c_proof_cpf),
    "twice_watched_pot_product": (
        "Two probes read the loop in succession (product inputs).",
        {"a1": 0.8, "b1": 0.6, "a2": 0.28, "b2": 0.96},
        _b_pot_product, _c_pot_product),
    "twice_watched_pot_entangled": (
        "Two probes read the loop in succession (entangled inputs).",
        {"g00": 0.6, "g11": 0.8}, _b_pot_entangled, _c_pot_entangled),
    "two_ctc_cx": (
        "One loop writes into a second loop and a probe.",
        dict(_AB), _b_two_ctc_cx, _c_two_ctc_cx),
    "mutual_paradox": (
        "A signal is read by one loop, rotated, then read by another.",
        {"zeta": 0.6, **_AB}, _b_mutual_paradox, _c_mutual_paradox),
    "third_party": (
        "Two independent signals write into the same loop; they must agree.",
        {"a1": 0.8, "b1": 0.6, "a2": 0.28, "b2": 0.96},
        _b_third_party, _c_third_party),
    "stubborn_spin": (
        "Two rotations between three probe readings; intermediate flips are"
        " suppressed by a quartic tangent law.",
        {"theta1": 0.7, "theta2": 1.1}, _b_stubborn, _c_stubborn),
    "amnesia_plain": (
        "An external qubit is erased into the loop (time-reversed proof circuit).",
        dict(_AB), _b_amnesia_plain, _c_amnesia_plain),
    "amnesia_entangled": (
        "The erased qubit is half of an entangled pair; its partner decouples.",
        dict(_AB), _b_amnesia_entangled, _c_amnesia_entangled),
    "amnesia_secondary_loop": (
        "Erasure of one half of a rotated pair creates a secondary channel.",
        dict(_AB), _b_secondary_loop, _c_secondary_loop),
    "backprop_chain": (
        "Selection pressure propagates backward through two controlled rotations.",
        {"theta_s": 0.6, "theta_g1": 0.8, "theta_g2": 1.1},
        _b_backprop_chain, _c_backprop_chain),
    "n_controlled_not": (
        "Chain of controls XOR into the loop; survival is the even-parity weight.",
        {"alphas": (0.95, 0.9, 0.85)}, _b_n_controlled_not, _c_n_controlled_not),
    "ccrot_selector": (
        "Doubly controlled rotation plus bare rotation selects the |11> inputs.",
        {"theta1": math.pi / 2, "theta2": math.pi / 2,
         "a1": 0.8, "b1": 0.6, "a2": 0.28, "b2": 0.96},
        _b_ccrot_selector, _c_ccrot_selector),
    "cccrot_selector": (
        "Triply controlled rotation plus bare rotation selects the |111> inputs.",
        {"theta1": math.pi / 2, "theta2": math.pi / 2,
         "a1": 0.8, "b1": 0.6, "a2": 0.28, "b2": 0.96, "a3": 0.6, "b3": 0.8},
        _b_cccrot_selector, _c_cccrot_selector),
    "parity_ec": (
        "Two noisy carriers XOR into the loop; odd-parity errors are deselected.",
        {"eps": 0.1, "lam": 0.5, **_AB}, _b_parity_ec, _c_parity_ec),
    "tourist_trap": (
        "Deselecting one message of an entangled broadcast shifts (or does not"
        " shift) the odds of the other messages, depending on renormalization.",
        {}, _b_tourist_trap, _c_tourist_trap),
}


def list_scenarios():
    """Names, parameter schemas, and one-line summaries of every scenario."""
    return [
        {"name": name, "summary": summary, "params": dict(defaults)}
        for name, (summary, defaults, _, _) in sorted(_REGISTRY.items())
    ]


def _resolve(name, params):
    try:
        summary, defaults, build, checks = _REGISTRY[name]
    except KeyError:
        raise ScenarioNotFound("unknown scenario %r" % (name,)) from None
    p = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ScenarioNotFound(
                "scenario %r has no parameter %r (has: %s)"
                % (name, key, ", ".join(sorted(defaults)) or "none")
            )
        p[key] = value
    return summary, p, build, checks


def build_scenario(name, **params):
    summary, p, build, _ = _resolve(name, params)
    return Scenario(name, summary, p, build(p))


def verify_scenario(name, params=None, model=None):
    """Run every expectation of a scenario; returns a list of check records.

    `model` optionally filters to records whose model tag starts with the
    given string (e.g. "noisy_bell").
    """
    _, p, build, checks = _resolve(name, params or {})
    records = checks(p, build(p))
    if model is not None:
        records = [r for r in records if r["model"].startswith(model)]
    return records
