"""Catalog of worked post-selection circuits with closed-form expectations.

Each `_REGISTRY` entry holds a summary, default parameters, its circuit (declared
in place with `_circuit`, or a builder function where it needs one) and a table
of expected quantities (survival amplitude, acceptance rate, output density
operators, projection components, flip probabilities) as closed-form expressions
of the scenario parameters, evaluated at run time.  `verify_scenario` runs the
engine and reports the deltas; the regression suite requires every expectation
to pass at the defaults and at a second parameter point.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import analysis
from .circuit import Channel, build_circuit, with_init, with_reference
from .engine import (
    Classical,
    DeltaQuadrature,
    ExactBell,
    NoisyBell,
    WeightMatrix,
    _evolved_pairs,
    _pair_table,
    _unit_interval,
    run_conditional,
    run_exact_bell,
)
from .errors import ConfigError, ParadoxError, ScenarioNotFound, _shown
from .gates import make_gate, param_names
from .states import unit_vector

_SQ2 = 2**-0.5


@dataclass(frozen=True)
class Scenario:
    name: str
    summary: str
    params: dict
    circuit: object


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


def _circuit(loops, externals, gates, entangled=None):
    """The builder p -> Circuit of a circuit declared over the scenario parameters p.

    Every catalog circuit but the near-NOT loop and `n_controlled_not` is built here.
    `loops` are the looped labels.  An external is a label (|0>, or a member of
    an entangled group) or a tuple (label, a, b) whose init is (a, b).  A gate
    is (kind, *targets, *params), its last len(gates.param_names(kind)) items
    the params.  Init amplitudes and gate params are numbers, parameter names
    or functions of p.  `entangled(p)` returns the (labels, amplitudes) groups.
    """
    def value(v, p):
        return p[v] if isinstance(v, str) else v(p) if callable(v) else v

    def gate(p, kind, *rest):
        cut = len(rest) - len(param_names(kind))
        return make_gate(kind, rest[:cut], params=[value(v, p) for v in rest[cut:]])

    def build(p):
        return build_circuit(
            [Channel(label, looped=True) for label in loops]
            + [Channel(e) if isinstance(e, str)
               else Channel(e[0], init=(value(e[1], p), value(e[2], p))) for e in externals],
            [gate(p, *g) for g in gates],
            entangled=entangled(p) if entangled else (),
        )
    return build


def _b_one_gate(ext, *gate):
    """The loop "tm", the external `ext` in (alpha, beta) and one gate."""
    return _circuit(["tm"], [(ext, "alpha", "beta")], [gate])


def _gamma_2q(p):
    return unit_vector([p["g00"], p["g01"], p["g10"], p["g11"]],
                       "scenario amplitudes (g00, g01, g10, g11)")


def _b_near_not(p):
    eps = p["eps"]
    mat = (1 - eps) * np.array([[0, 1], [1, 0]]) + eps * np.eye(2)
    return build_circuit([Channel("tm", looped=True)],
                         [make_gate("CUSTOM", ("tm",), matrix=mat)])


def _b_n_controlled_not(p):
    """One control c<i> in (alpha_i, sqrt(1 - alpha_i^2)) per entry of `alphas`."""
    try:
        alphas = np.asarray(p["alphas"])
    except ValueError:  # a ragged nesting
        alphas = None
    if alphas is None or alphas.ndim != 1 or alphas.dtype.kind not in "iuf":
        raise ConfigError("scenario parameter alphas must be a list of real numbers, got %s"
                          % _shown(p["alphas"]))
    channels = [Channel("tm", looped=True)]
    gates = []
    for i, a in enumerate(alphas.tolist()):
        b = math.sqrt(max(0.0, 1.0 - a * a))
        label = "c%d" % i
        channels.append(Channel(label, init=(a, b)))
        gates.append(make_gate("CX", (label, "tm")))
    return build_circuit(channels, gates)


def _parity_ec_input(p):
    eps, a, b = _unit_interval(p["eps"], "scenario parameter eps"), p["alpha"], p["beta"]
    flip = math.sqrt(eps * (1 - eps)) * (a + b)
    return unit_vector([a * (1 - eps) + b * eps, flip, flip, b * (1 - eps) + a * eps],
                       "carrier amplitudes of (alpha, beta)")


# rebuilt at other parameters by their checks
_b_mutual_paradox = _circuit(["tm1", "tm2"], [("s", "alpha", "beta")],
                             [("CX", "s", "tm1"), ("ROT", "s", "zeta"), ("CX", "s", "tm2")])
_b_third_party = _circuit(["tm"], [("s1", "a1", "b1"), ("s2", "a2", "b2")],
                          [("CX", "s1", "tm"), ("CX", "s2", "tm")])


# ---------------------------------------------------------------------------
# expectation tables


def _rows(c):
    """Pair-basis outcome label -> surviving external amplitudes of c's one evolution."""
    table = _pair_table(c, _evolved_pairs(c))
    return dict(zip(table.labels, table.amps))


def _records(model, result, tol=1e-12, **expected):
    """One `_rec` per keyword, in order; `rho` and `rho_loop` are read via `.mat`."""
    actual = {q: getattr(result, q) for q in expected}
    return [_rec(model, q, value, getattr(actual[q], "mat", actual[q]), tol)
            for q, value in expected.items()]


def _c_simple_loop(p, c):
    psi = _qubit(p["alpha"], p["beta"])
    pp = _proj(psi)
    rec = _records("exact_bell", ExactBell().run(c), n=0.5, rho=pp)
    rec += _records("noisy_bell(0.3)", NoisyBell(0.3).run(c), z=0.25)
    rd = DeltaQuadrature().run(c)
    rho_delta = (pp + np.diag(np.diag(pp)) + np.eye(2)) / 4.0
    rec += _records("delta", rd, 1e-8, z=math.pi**2, rho=rho_delta)
    rec += _records("weight_matrix(delta)", WeightMatrix("delta").run(c), 1e-8, z=rd.z)
    k = 0.25
    rho_cl = 0.5 * k * np.eye(2) + (1 - k) * np.diag(np.abs(psi) ** 2)
    return rec + _records("classical(0.25,floor)", Classical(k, floor=True).run(c),
                          z=1.0, rho=rho_cl)


def _c_simple_loop_2q(p, c):
    gamma = _gamma_2q(p)
    rec = _records("exact_bell", ExactBell().run(c), n=0.25, rho=_proj(gamma))
    k = 0.3
    rho_cl = 0.25 * k * np.eye(4) + (1 - k) * np.diag(np.abs(gamma) ** 2)
    return rec + _records("classical(0.3,floor)", Classical(k, floor=True).run(c),
                          z=1.0, rho=rho_cl)


def _c_twist_pair(p, c):
    a, b = p["alpha"], p["beta"]  # the exact model against two boundary pairs
    twist = np.array([_SQ2, 0.5, 0.0, 0.5], dtype=complex)
    expect = np.array([a / 2 + b / math.sqrt(8), a / math.sqrt(8) + b / 2])
    n = np.linalg.norm(expect)
    rec = _records("exact_bell(twist)", ExactBell().run(c, pair_states={"tm": twist}),
                   n=n, rho=_proj(expect / n))
    alt = 0.5 * np.array([1, 1, 1, -1], dtype=complex)
    return rec + _records("exact_bell(rotated)", ExactBell().run(c, pair_states={"tm": alt}),
                          n=0.5, rho=_proj(_qubit(a, b)))


def _c_grandfather(label):
    def checks(p, c):
        lam = 0.2
        noisy = NoisyBell(lam).run(c)
        table = noisy.projections  # one loop: the rows are "B", "-", "N", "-N"
        rec = [_paradox_rec("exact_bell", "paradox", lambda: ExactBell().run(c))]
        rec += [_rec("projection", "weight[%s]" % out, 1.0 if out == label else 0.0, w, 1e-12)
                for out, w in zip(table.labels, table.weights)]
        return rec + _records("noisy_bell(0.2)", noisy, z=lam / 4.0)
    return checks


def _c_grandfather_not_extra(p, c):
    rec = _c_grandfather("N")(p, c)
    rec += _records("delta", DeltaQuadrature().run(c), 1e-8,
                    z=math.pi**2 / 2.0, rho_loop=np.eye(2) / 2.0)
    return rec + _records("classical(0.3)", Classical(0.3).run(c),
                          z=0.6, rho_loop=np.eye(2) / 2.0)


def _c_grandfather_perturbed(p, c):
    return _records("exact_bell", ExactBell().run(c), n=p["eps"])


def _c_faulty_gun(p, c):
    cz = math.cos(p["zeta"])
    rec = _records("exact_bell", ExactBell().run(c), n=abs(cz))
    lam = 0.25
    rec += _records("noisy_bell(0.25)", NoisyBell(lam).run(c),
                    z=(1 - lam) * cz**2 + lam / 4)
    k = 0.3
    rec += _records("classical(0.3,floor)", Classical(k, floor=True).run(c),
                    z=k + 2 * (1 - k) * cz**2)
    return rec + _records("delta", DeltaQuadrature().run(c), 1e-8,
                          z=(math.pi**2 / 2) * (3 * cz**2 + 1))


def _c_cnot_gun(p, c):
    a, b = p["alpha"], p["beta"]
    rec = _records("exact_bell", ExactBell().run(c), n=abs(a), rho=np.diag([1.0, 0.0]))
    lam = 0.2
    rec += _records("noisy_bell(0.2)", NoisyBell(lam).run(c),
                    z=(1 - lam) * a**2 + lam / 4)
    k = 0.3
    rec += _records("classical(0.3)", Classical(k).run(c),
                    z=2 * (1 - k) * a**2 + 2 * k * b**2)
    rec += _records("delta", DeltaQuadrature().run(c), 1e-8,
                    z=(math.pi**2 / 2) * (3 * a**2 + 1))
    # one evolution of the gun in a Bell pair with a reference qubit holds every input
    probe = with_reference(c, "gun")
    bias = analysis._flat_average(DeltaQuadrature().run(probe))
    rec.append(_rec("delta", "input_bias", np.diag([0.65, 0.35]), bias, 1e-6))
    bias_cl = analysis._flat_average(Classical(k).run(probe))
    expect = np.diag([(3 - 2 * k) / 4, (1 + 2 * k) / 4])
    rec.append(_rec("classical(0.3)", "input_bias", expect, bias_cl, 1e-6))
    # both bits classical: decohere the control over its eigenstates, weighting
    # each by the floor-convention acceptance rate z_a = M[a, a]
    form = analysis._reference_form(Classical(k, floor=True).run(probe))
    rec.append(_rec("classical(0.3,both)", "rho_control",
                    np.diag([(2 - k) / 2, k / 2]), np.diag(np.diag(form)), 1e-12))
    return rec


def _c_cpf_gun(p, c):
    a, b = p["alpha"], p["beta"]
    rec = _records("exact_bell", ExactBell().run(c), n=abs(a))
    lam = 0.2
    rec += _records("noisy_bell(0.2)", NoisyBell(lam).run(c),
                    z=(1 - lam) * a**2 + lam / 4)
    k = 0.3
    return rec + _records("classical(0.3,floor)", Classical(k, floor=True).run(c),
                          z=2 - k, rho=np.diag([a**2, b**2]))


def _c_cpf_delta(p, c):
    a, b = p["alpha"], p["beta"]
    rec = _records("exact_bell", ExactBell().run(c), n=abs(a))
    rd = DeltaQuadrature().run(c)
    expect = np.diag([2 * a**2 / (1 + a**2), b**2 / (1 + a**2)])
    rec += _records("delta", rd, 1e-8, z=math.pi**2 * (1 + a**2), rho=expect)
    return rec + _records("weight_matrix(delta)", WeightMatrix("delta").run(c), 1e-8,
                          z=rd.z, rho=rd.rho.mat)


def _c_crot_gun(p, c):
    a, b, z = p["alpha"], p["beta"], p["zeta"]
    n2 = 1 - b**2 * math.sin(z) ** 2
    psi_b = np.array([a, b * math.cos(z)])
    rec = _records("exact_bell", ExactBell().run(c),
                   n=math.sqrt(n2), rho=_proj(psi_b) / n2)
    lam = 0.2
    expect = 1 - 0.75 * lam - (1 - lam) * b**2 * math.sin(z) ** 2
    return rec + _records("noisy_bell(0.2)", NoisyBell(lam).run(c), z=expect)


def _c_phase_gun(p, c):
    a, b, xi = p["alpha"], p["beta"], p["xi"]
    psi_b = np.array([a, b * (1 + np.exp(1j * xi)) / 2])
    n2 = float(np.vdot(psi_b, psi_b).real)
    rec = _records("exact_bell", ExactBell().run(c),
                   n=math.sqrt(n2), rho=_proj(psi_b) / n2)
    lam = 0.2
    return rec + _records("noisy_bell(0.2)", NoisyBell(lam).run(c),
                          z=(1 - lam) * n2 + lam / 4)


def _c_proof_cx(p, c):
    a, b = p["alpha"], p["beta"]
    rows = _rows(c)
    rec = [_rec("projection", "psi_B", 0.5 * (a + b) * np.array([1.0, 1.0]), rows["B"], 1e-12),
           _rec("projection", "psi_-", 0.5 * (a - b) * np.array([1.0, -1.0]), rows["-"], 1e-12)]
    k = 0.3
    psi = _qubit(a, b)
    xpsi = psi[::-1]
    rec += _records("classical(0.3)", Classical(k).run(c),
                    z=2 * (1 - k), rho=0.5 * (_proj(psi) + _proj(xpsi)))
    bad = with_init(c, "probe", (_SQ2, -_SQ2))
    rec.append(_paradox_rec("exact_bell", "paradox(minus probe)",
                            lambda: run_exact_bell(bad)))
    return rec


def _c_proof_crot(p, c):
    a, b = p["alpha"], p["beta"]
    rec = _records("exact_bell", ExactBell().run(c), n=_SQ2)
    rd = DeltaQuadrature().run(c)
    rho00 = 0.5 - a * (b + b) / 6.0
    rho01 = (a * (b - b)) / 2.0 + (a**2 - b**2) / 6.0
    expect = np.array([[rho00, rho01], [np.conj(rho01), 1 - rho00]])
    rec += _records("delta", rd, 1e-8, z=1.5 * math.pi**2, rho=expect)
    rec += _records("weight_matrix(delta)", WeightMatrix("delta").run(c), 1e-8,
                    rho=rd.rho.mat)
    k = 0.3
    psi = _qubit(a, b)
    rpsi = np.array([-b, a], dtype=complex)
    return rec + _records("classical(0.3)", Classical(k).run(c),
                          rho=0.5 * (_proj(psi) + _proj(rpsi)))


def _c_proof_cpf(p, c):
    return _records("exact_bell", ExactBell().run(c),
                    n=abs(p["alpha"]), rho=np.diag([1.0, 0.0]))


def _c_pot_product(p, c):
    psi1 = _qubit(p["a1"], p["b1"])
    psi2 = _qubit(p["a2"], p["b2"])
    v = np.kron(psi1, psi2) + np.kron(psi1[::-1], psi2[::-1])
    n2 = float(np.vdot(v, v).real) / 4.0
    rec = _records("exact_bell", ExactBell().run(c),
                   n=math.sqrt(n2), rho=_proj(v) / np.vdot(v, v).real)
    lam = 0.3
    return rec + _records("noisy_bell(0.3)", NoisyBell(lam).run(c),
                          z=(1 - lam) * n2 + lam / 4)


def _c_pot_entangled(p, c):
    g = unit_vector([p["g00"], p["g11"]], "scenario amplitudes (g00, g11)").real
    n2 = (g[0] + g[1]) ** 2 / 2.0
    return _records("exact_bell", ExactBell().run(c), n=math.sqrt(n2))


def _c_two_ctc_cx(p, c):
    psi = _qubit(p["alpha"], p["beta"])
    xpsi = psi[::-1]
    r = ExactBell().run(c)
    rec = _records("exact_bell", r, n=0.5, rho=_proj(psi))
    for lam in (0.0, 0.2, 1.0):
        res = r if lam == 0.0 else NoisyBell(lam).run(c)
        z_expect = 0.25 * (1 - lam / 2) ** 2
        w_keep = (4 - 3 * lam) / (4 - 2 * lam)
        w_flip = lam / (4 - 2 * lam)
        rho_expect = w_keep * _proj(psi) + w_flip * _proj(xpsi)
        rec += _records("noisy_bell(%.1f)" % lam, res, z=z_expect, rho=rho_expect)
    return rec


def _c_mutual_paradox(p, c):
    a, b, z = p["alpha"], p["beta"], p["zeta"]
    cz, sz = math.cos(z), math.sin(z)
    rec = _records("exact_bell", ExactBell().run(c), n=abs(a * cz))
    lam = 0.2
    w_b, w_e = 1 - 0.75 * lam, 0.25 * lam
    expect = (w_b**2 * a**2 * cz**2 + w_e * w_b * sz**2 + w_e**2 * b**2 * cz**2)
    rec += _records("noisy_bell(0.2)", NoisyBell(lam).run(c), z=expect)
    k = 0.35
    z_cl = 4 * ((1 - k) ** 2 * a**2 * cz**2 + k * (1 - k) * sz**2
                + k**2 * b**2 * cz**2)
    rec += _records("classical(0.35)", Classical(k).run(c), z=z_cl)
    paradox = _b_mutual_paradox({**p, "zeta": math.pi / 2})
    rec.append(_paradox_rec("exact_bell", "paradox(zeta=pi/2)",
                            lambda: run_exact_bell(paradox)))
    return rec


def _c_third_party(p, c):
    a1, b1, a2, b2 = p["a1"], p["b1"], p["a2"], p["b2"]
    rows = _rows(c)
    expect_b = np.array([a1 * a2, 0.0, 0.0, b1 * b2], dtype=complex)
    expect_n = np.array([0.0, a1 * b2, b1 * a2, 0.0], dtype=complex)
    rec = [_rec("projection", "psi_B", expect_b, rows["B"], 1e-12),
           _rec("projection", "psi_N", expect_n, rows["N"], 1e-12)]
    n2 = a1**2 * a2**2 + b1**2 * b2**2
    rec += _records("exact_bell", ExactBell().run(c), n=math.sqrt(n2))
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
    c1, s1, c2, s2, n2, flip = _stubborn_forms(p["theta1"], p["theta2"])
    r = ExactBell().run(c)
    rec = _records("exact_bell", r, n=math.sqrt(n2))
    rec.append(_rec("exact_bell", "flip(p1,p2)", flip,
                    analysis.flip_probability(r, "p1", "p2"), 1e-12))
    lam = 0.25
    rn = NoisyBell(lam).run(c)
    z_lam = (1 - lam) * n2 + lam / 4
    flip_lam = (s1**2 / (2 * z_lam)) * ((1 - lam) * s2**2 + lam / 2)
    rec += _records("noisy_bell(0.25)", rn, z=z_lam)
    rec.append(_rec("noisy_bell(0.25)", "flip(p1,p2)", flip_lam,
                    analysis.flip_probability(rn, "p1", "p2"), 1e-12))
    k = 0.3
    rc = Classical(k).run(c)
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
    rec = _records("exact_bell", ExactBell().run(c),
                   n=abs(a + b) / 2, rho=np.diag([1.0, 0.0]))
    k = 0.3
    rec += _records("classical(0.3)", Classical(k).run(c),
                    z=1.0, rho=np.diag([1 - k, k]))
    bad = with_init(c, "sys", (_SQ2, -_SQ2))
    rec.append(_paradox_rec("exact_bell", "paradox(minus input)",
                            lambda: run_exact_bell(bad)))
    return rec


def _c_amnesia_entangled(p, c):
    g = unit_vector([p["alpha"], p["beta"]], "scenario amplitudes (alpha, beta)")
    expect = 0.5 * np.array([g[0], g[1], g[0], g[1]], dtype=complex)
    rec = [_rec("projection", "psi_B", expect, _rows(c)["B"], 1e-12)]
    return rec + _records("exact_bell", ExactBell().run(c), n=_SQ2)


def _c_secondary_loop(p, c):
    a, b = p["alpha"], p["beta"]
    expect = np.zeros(8, dtype=complex)
    expect[0b000] = 0.5 * a
    expect[0b011] = -0.5 * b
    rec = [_rec("projection", "psi_B", expect, _rows(c)["B"], 1e-12)]
    return rec + _records("noisy_bell(0.2)", NoisyBell(0.2).run(c), z=0.25)


def _c_backprop_chain(p, c):
    ts, g1, g2 = p["theta_s"], p["theta_g1"], p["theta_g2"]
    cs, ss = math.cos(ts), math.sin(ts)
    n2 = 1 - 2 * ss**2 * cs**2 * math.sin(g1) ** 2 * math.sin(g2) ** 2
    flip = ss**2 * (1 - cs**2 * math.sin(g1) ** 2 * math.sin(g2) ** 2) / n2
    r = ExactBell().run(c)
    rec = _records("exact_bell", r, n=math.sqrt(n2))
    rec.append(_rec("exact_bell", "flip(p)", flip,
                    analysis.flip_probability(r, "p"), 1e-12))
    return rec


def _c_n_controlled_not(p, c):
    parity = analysis.parity_recursion(p["alphas"])
    return [_rec("exact_bell", "n2", parity["e2"], ExactBell().run(c).n**2, 1e-12)]


def _c_selector(n):
    """Amplitudes cos(theta2) off the all-ones control state, cos(theta1+theta2) on it."""
    def checks(p, c):
        t1, t2 = p["theta1"], p["theta2"]
        amps = np.ones(1, dtype=complex)
        for i in range(1, n + 1):
            amps = np.kron(amps, np.array([p["a%d" % i], p["b%d" % i]], dtype=complex))
        expect = amps * math.cos(t2)
        expect[-1] = amps[-1] * math.cos(t1 + t2)
        return [_rec("projection", "psi_B", expect, _rows(c)["B"], 1e-12)]
    return checks


def _c_parity_ec(p, c):
    v = _parity_ec_input(p)
    expect_b = np.array([v[0], 0.0, 0.0, v[3]], dtype=complex)
    expect_n = np.array([0.0, v[1], v[2], 0.0], dtype=complex)
    rows = _rows(c)
    rec = [_rec("projection", "psi_B", expect_b, rows["B"], 1e-12),
           _rec("projection", "psi_N", expect_n, rows["N"], 1e-12)]
    lam = p["lam"]
    nb2 = float(np.vdot(expect_b, expect_b).real)
    return rec + _records("noisy_bell", NoisyBell(lam).run(c),
                          z=(1 - lam) * nb2 + lam / 4)


def _c_tourist_trap(p, c):
    condition = [("m1", 0), ("m2", 0)]
    deselect = (("m3",), np.array([1.0, 0.0]))
    rec = []
    for mode, expect in (("coupled", 1.0 / 7.0), ("insulated", 0.25)):
        r = run_conditional(c, condition, deselect, mode)
        prefix = float(np.real(np.diag(r.rho.mat))[:2].sum())  # m1 = m2 = 0: |000>, |001>
        rec.append(_rec("conditional(%s)" % mode, "p_prefix_00", expect, prefix, 1e-12))
    return rec


# ---------------------------------------------------------------------------
# registry

_AB = {"alpha": 0.8, "beta": 0.6}

_REGISTRY = {
    "simple_loop": (
        "One looped qubit swapped with an external qubit; survives with N = 1/2.",
        dict(_AB), _b_one_gate("sys", "SWAP", "tm", "sys"), _c_simple_loop),
    "simple_loop_2q": (
        "Two looped qubits swapped with an entangled external register.",
        {"g00": 0.6, "g01": 0.0, "g10": 0.0, "g11": 0.8},
        _circuit(["tm1", "tm2"], ["e1", "e2"], [("SWAP", "tm1", "e1"), ("SWAP", "tm2", "e2")],
                 lambda p: [(("e1", "e2"), _gamma_2q(p))]),
        _c_simple_loop_2q),
    "twist_pair": (
        "Simple loop against a non-maximally-entangled boundary pair.",
        dict(_AB), _b_one_gate("sys", "SWAP", "tm", "sys"), _c_twist_pair),
    "grandfather_not": (
        "NOT gate on the loop: the matched projection vanishes identically.",
        {}, _circuit(["tm"], [], [("X", "tm")]), _c_grandfather_not_extra),
    "grandfather_pf": (
        "Phase flip on the loop: amplitude moves to the phase-mismatch outcome.",
        {}, _circuit(["tm"], [], [("Z", "tm")]), _c_grandfather("-")),
    "grandfather_rot": (
        "Quarter-turn rotation on the loop: amplitude moves to the combined mismatch.",
        {}, _circuit(["tm"], [], [("ROT", "tm", math.pi / 2)]), _c_grandfather("-N")),
    "grandfather_perturbed": (
        "Near-NOT perturbation (1-eps)X + eps*I leaves survival amplitude eps.",
        {"eps": 1e-2}, _b_near_not, _c_grandfather_perturbed),
    "faulty_gun": (
        "Rotation by zeta on the loop; the trigger misfires with amplitude cos(zeta).",
        {"zeta": math.pi / 3}, _circuit(["tm"], [], [("ROT", "tm", "zeta")]), _c_faulty_gun),
    "cnot_gun": (
        "External control fires a NOT at the loop; selection biases the control.",
        dict(_AB), _b_one_gate("gun", "CX", "gun", "tm"), _c_cnot_gun),
    "cpf_gun": (
        "External control fires a phase flip at the loop.",
        dict(_AB), _b_one_gate("gun", "CPHASE", "gun", "tm", math.pi), _c_cpf_gun),
    "cpf_delta": (
        "Controlled phase flip under the continuous loop boundary model.",
        dict(_AB), _b_one_gate("gun", "CPHASE", "gun", "tm", math.pi), _c_cpf_delta),
    "crot_gun": (
        "External control fires a partial rotation (zeta) at the loop.",
        {"zeta": 0.5, **_AB}, _b_one_gate("gun", "CROT", "gun", "tm", "zeta"), _c_crot_gun),
    "phase_gun": (
        "External control fires a partial phase (xi) at the loop.",
        {"xi": 0.9, **_AB}, _b_one_gate("gun", "CPHASE", "gun", "tm", "xi"), _c_phase_gun),
    "unproven_proof_cx": (
        "Loop copies itself onto a probe; only aligned probes survive.",
        dict(_AB), _b_one_gate("probe", "CX", "tm", "probe"), _c_proof_cx),
    "unproven_proof_crot": (
        "Loop rotates a probe by a quarter turn; survival is input-independent.",
        dict(_AB), _b_one_gate("probe", "CROT", "tm", "probe", math.pi / 2), _c_proof_crot),
    "unproven_proof_cpf": (
        "Loop phase-flips a probe.",
        dict(_AB), _b_one_gate("probe", "CPHASE", "tm", "probe", math.pi), _c_proof_cpf),
    "twice_watched_pot_product": (
        "Two probes read the loop in succession (product inputs).",
        {"a1": 0.8, "b1": 0.6, "a2": 0.28, "b2": 0.96},
        _circuit(["tm"], [("p1", "a1", "b1"), ("p2", "a2", "b2")],
                 [("CX", "tm", "p1"), ("CX", "tm", "p2")]),
        _c_pot_product),
    "twice_watched_pot_entangled": (
        "Two probes read the loop in succession (entangled inputs).",
        {"g00": 0.6, "g11": 0.8},
        _circuit(["tm"], ["p1", "p2"], [("CX", "tm", "p1"), ("CX", "tm", "p2")],
                 lambda p: [(("p1", "p2"), unit_vector([p["g00"], 0.0, 0.0, p["g11"]],
                                                       "scenario amplitudes (g00, g11)"))]),
        _c_pot_entangled),
    "two_ctc_cx": (
        "One loop writes into a second loop and a probe.",
        dict(_AB), _circuit(["tm1", "tm2"], [("probe", "alpha", "beta")],
                            [("CX", "tm1", "tm2"), ("CX", "tm1", "probe")]),
        _c_two_ctc_cx),
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
        {"theta1": 0.7, "theta2": 1.1},
        _circuit(["tm"], ["p1", "p2", "p3"],
                 [("CX", "tm", "p1"), ("ROT", "tm", "theta1"), ("CX", "tm", "p2"),
                  ("ROT", "tm", "theta2"), ("CX", "tm", "p3")]),
        _c_stubborn),
    "amnesia_plain": (
        "An external qubit is erased into the loop (time-reversed proof circuit).",
        dict(_AB), _circuit(["tm"], [("sys", "alpha", "beta")],
                            [("SWAP", "tm", "sys"), ("CX", "tm", "sys")]),
        _c_amnesia_plain),
    "amnesia_entangled": (
        "The erased qubit is half of an entangled pair; its partner decouples.",
        dict(_AB),
        _circuit(["tm"], ["s1", "s2"], [("CX", "tm", "s1")],
                 lambda p: [(("s1", "s2"), unit_vector([p["alpha"], 0.0, 0.0, p["beta"]],
                                                       "scenario amplitudes (alpha, beta)"))]),
        _c_amnesia_entangled),
    "amnesia_secondary_loop": (
        "Erasure of one half of a rotated pair creates a secondary channel.",
        dict(_AB),
        _circuit(["tm"], ["b1", "b2", ("c", "alpha", "beta")],
                 [("ROT", "b2", -math.pi / 4), ("CPHASE", "c", "b1", math.pi),
                  ("CX", "tm", "b1"), ("CX", "b1", "tm")],
                 lambda p: [(("b1", "b2"), np.array([_SQ2, 0.0, 0.0, _SQ2]))]),
        _c_secondary_loop),
    "backprop_chain": (
        "Selection pressure propagates backward through two controlled rotations.",
        {"theta_s": 0.6, "theta_g1": 0.8, "theta_g2": 1.1},
        _circuit(["tm"], ["c1", "c2", "p"],
                 [("ROT", "c2", "theta_s"), ("CX", "c2", "p"),
                  ("ROT", "c2", lambda p: -p["theta_s"]),
                  ("CROT", "c2", "c1", "theta_g1"), ("CROT", "c1", "tm", "theta_g2")]),
        _c_backprop_chain),
    "n_controlled_not": (
        "Chain of controls XOR into the loop; survival is the even-parity weight.",
        {"alphas": (0.95, 0.9, 0.85)}, _b_n_controlled_not, _c_n_controlled_not),
    "ccrot_selector": (
        "Doubly controlled rotation plus bare rotation selects the |11> inputs.",
        {"theta1": math.pi / 2, "theta2": math.pi / 2,
         "a1": 0.8, "b1": 0.6, "a2": 0.28, "b2": 0.96},
        _circuit(["tm"], [("c1", "a1", "b1"), ("c2", "a2", "b2")],
                 [("CCROT", "c1", "c2", "tm", "theta1"), ("ROT", "tm", "theta2")]),
        _c_selector(2)),
    "cccrot_selector": (
        "Triply controlled rotation plus bare rotation selects the |111> inputs.",
        {"theta1": math.pi / 2, "theta2": math.pi / 2,
         "a1": 0.8, "b1": 0.6, "a2": 0.28, "b2": 0.96, "a3": 0.6, "b3": 0.8},
        _circuit(["tm"], [("c1", "a1", "b1"), ("c2", "a2", "b2"), ("c3", "a3", "b3")],
                 [("CCCROT", "c1", "c2", "c3", "tm", "theta1"), ("ROT", "tm", "theta2")]),
        _c_selector(3)),
    "parity_ec": (
        "Two noisy carriers XOR into the loop; odd-parity errors are deselected.",
        {"eps": 0.1, "lam": 0.5, **_AB},
        _circuit(["tm"], ["b1", "b2"], [("CX", "b1", "tm"), ("CX", "b2", "tm")],
                 lambda p: [(("b1", "b2"), _parity_ec_input(p))]),
        _c_parity_ec),
    "tourist_trap": (
        "Deselecting one message of an entangled broadcast shifts (or does not"
        " shift) the odds of the other messages, depending on renormalization.",
        {}, _circuit([], [(m, _SQ2, _SQ2) for m in ("m1", "m2", "m3")], []), _c_tourist_trap),
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
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ScenarioNotFound("unknown scenario %s" % _shown(name)) from None
    p = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ScenarioNotFound(
                "scenario %r has no parameter %s (has: %s)"
                % (name, _shown(key), ", ".join(sorted(defaults)) or "none")
            )
        p[key] = value
    return summary, p, build, checks


def build_scenario(name, **params):
    summary, p, build, _ = _resolve(name, params)
    return Scenario(name, summary, p, build(p))


def verify_scenario(name, params=None):
    """Run every expectation of a scenario; returns a list of check records."""
    if not (params is None or isinstance(params, Mapping)):
        raise ConfigError("scenario parameters must be a mapping, got %s" % _shown(params))
    _, p, build, checks = _resolve(name, params)
    return checks(p, build(p))
