"""loop_grid: seeded random 30-gate circuits over the (looped, external) grid.

Why: each looped qubit adds a boundary pair, so the exact and noisy models do
4^m pair-basis projections (`engine.projection_table` -> `states.project`)
and the history models do 2^m evolutions and 4^m projections
(`engine.loop_histories`).  At (7, 0) that is seconds per call against
milliseconds of gate evolution.  Every circuit runs through every model that
applies, so one evolution feeding all models would show here.
Loads: states.project, engine.projection_table, engine.loop_histories,
engine contraction.  Bypasses: analysis, scenarios, cli (no documents, no
reports, no input scans).
An operation is one `run_*` call.
"""

from __future__ import annotations

import math
import random

import numpy as np

import harness

NAME = "loop_grid"
WHY = ("random circuits at (m,e)=(1,6),(3,8),(5,4),(6,2),(7,0) through every model: "
       "loads states.project, engine.projection_table and engine.loop_histories; "
       "bypasses analysis, scenarios and cli")

# (looped, external, circuits per pass); the grid runs up to the 14-qubit cap.
# The counts put the median operation among the 38 (1,6) classical and
# weight-matrix runs, and the tail (11th-slowest of 127) among the ten (5,4)
# exact and noisy runs, so neither statistic sits between two kinds of call
# or rests on a single noisy sample.
GRID = ((1, 6, 19), (3, 8, 1), (5, 4, 5), (6, 2, 1), (7, 0, 1))
SMOKE_GRID = ((1, 2, 1), (2, 1, 1))
N_GATES = 30
SMOKE_GATES = 8
# gate kinds cycle 1-, 2-, 3-qubit so every seed does the same amount of work;
# parametrized kinds keep loop traces away from exact zeros
KINDS = (("H", "ROT", "PHASE"), ("CX", "CROT", "CPHASE", "SWAP"), ("CCROT", "TOFFOLI"))
ARITY = {"H": 1, "ROT": 1, "PHASE": 1, "CX": 2, "CROT": 2, "CPHASE": 2, "SWAP": 2,
         "CCROT": 3, "TOFFOLI": 3}
PARAM = {"ROT": "theta", "CROT": "theta", "CCROT": "theta", "PHASE": "xi", "CPHASE": "xi"}
MODELS = ("exact", "noisy", "classical", "weight_matrix", "delta")
TOL = 1e-9


def random_spec(rng, m, e, n_gates):
    """Channels and gates of a random circuit; loops are declared first."""
    channels = [{"name": "l%d" % i, "looped": True} for i in range(m)]
    for i in range(e):
        th, ph = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        channels.append({"name": "e%d" % i, "looped": False,
                         "init": [math.cos(th), 0.0,
                                  math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph)]})
    labels = [c["name"] for c in channels]
    gates = []
    for g in range(n_gates):
        kinds = [k for k in KINDS[g % 3] if ARITY[k] <= len(labels)] or list(KINDS[0])
        kind = rng.choice(kinds)
        gate = {"kind": kind, "targets": rng.sample(labels, ARITY[kind])}
        if kind in PARAM:
            gate["params"] = {PARAM[kind]: rng.uniform(0, 2 * math.pi)}
        gates.append(gate)
    return {"channels": channels, "gates": gates}


def build(cs, spec):
    channels = []
    for c in spec["channels"]:
        init = None
        if "init" in c:
            a = c["init"]
            init = (complex(a[0], a[1]), complex(a[2], a[3]))
        channels.append(cs.Channel(c["name"], looped=c["looped"], init=init))
    gates = [cs.make_gate(g["kind"], g["targets"], tuple(g.get("params", {}).values()))
             for g in spec["gates"]]
    return cs.build_circuit(channels, gates)


class Reference:
    """Checks that do not go through the engine's code."""

    def exact(self, circuit):
        """(N, psi) from the P-CTC output formula Tr_loop(U)|ext>/2^m.

        U comes from the gate matrices, applied by einsum to U(I_loop x |ext>)
        kept as a tensor with one open loop-input index.
        """
        channels = circuit.channels
        n = len(channels)
        m = sum(c.looped for c in channels)
        if any(c.looped for c in channels[m:]):
            raise ValueError("reference expects loops declared first")
        d = 2**m
        ext = np.ones(1, dtype=complex)
        for c in channels[m:]:
            a, b = c.init if c.init is not None else (1.0, 0.0)
            ext = np.kron(ext, np.array([a, b], dtype=complex))
        t = np.einsum("ik,e->iek", np.eye(d), ext).reshape((2,) * n + (d,))
        axes = list(range(n + 1))
        labels = [c.label for c in channels]
        for g in circuit.gates:
            k = len(g.targets)
            tgt = [labels.index(x) for x in g.targets]
            new = [n + 1 + j for j in range(k)]
            gmat = np.asarray(g.matrix).reshape((2,) * (2 * k))
            out_axes = [new[tgt.index(a)] if a in tgt else a for a in axes]
            t = np.einsum(gmat, new + tgt, t, axes, out_axes)
        t = t.reshape(d, -1, d)
        psi = np.einsum("iei->e", t) / d
        return float(np.linalg.norm(psi)), psi

    def delta_closed_form(self, cs, circuit):
        r = cs.engine.run_weight_matrix(circuit, "delta")
        return r.z, r.rho.mat


class Workload:
    name = NAME
    why = WHY

    def __init__(self, cs, seed, smoke=False, workdir=None):
        self.cs = cs
        rng = random.Random("%s:%d" % (NAME, seed))
        grid = SMOKE_GRID if smoke else GRID
        n_gates = SMOKE_GATES if smoke else N_GATES
        self.circuits = []
        self.jobs = []
        for m, e, count in grid:
            for _ in range(count):
                spec = random_spec(rng, m, e, n_gates)
                ci = len(self.circuits)
                self.circuits.append((spec, build(cs, spec)))
                for model in MODELS:
                    if model == "delta" and m != 1:
                        continue
                    if model == "noisy":
                        param = round(rng.uniform(0.05, 0.5), 6)
                    elif model == "classical":
                        param = round(rng.uniform(0.05, 0.45), 6)
                    elif model == "weight_matrix":
                        # "delta" skips the off-diagonal histories, so its
                        # cost would depend on the seed
                        param = rng.choice(("flat", "quad"))
                    else:
                        param = None
                    self.jobs.append({"kind": model, "circuit": ci, "m": m, "e": e,
                                      "param": param})
        harness.interleave(self.jobs, NAME)
        self.sweep_steps = 0

    def inputs(self):
        return {"circuits": [spec for spec, _ in self.circuits], "jobs": self.jobs}

    def warmup_job(self):
        return self.jobs[0]

    def run_op(self, job, in_process=False):
        engine = self.cs.engine
        circuit = self.circuits[job["circuit"]][1]
        kind, param = job["kind"], job["param"]
        try:
            if kind == "exact":
                r = engine.run_exact_bell(circuit)
            elif kind == "noisy":
                r = engine.run_noisy_bell(circuit, param)
            elif kind == "classical":
                r = engine.run_classical(circuit, param)
            elif kind == "weight_matrix":
                r = engine.run_weight_matrix(circuit, param)
            else:
                r = engine.run_delta_quadrature(circuit)
        except self.cs.ParadoxError as err:
            table = err.projections
            return {"paradox": True,
                    "weight_sum": None if table is None else table.total_weight}
        weight_sum = None
        if kind in ("exact", "noisy"):
            weight_sum = r.projections.total_weight
        return {"paradox": False, "z": r.z, "n": r.n, "rho": r.rho.mat,
                "weight_sum": weight_sum}

    def fingerprint(self, out):
        return ("paradox",) if out["paradox"] else (out["z"], out["n"])

    def check(self, job, out, ref):
        """Failure messages for one operation's output (empty when correct)."""
        cs = self.cs
        circuit = self.circuits[job["circuit"]][1]
        fails = []
        if out["weight_sum"] is not None and abs(out["weight_sum"] - 1.0) > TOL:
            fails.append("projection weights sum to %r" % out["weight_sum"])
        if job["kind"] == "exact":
            n_ref, psi = ref.exact(circuit)
            tol = cs.resolve_tolerance(None)
            if out["paradox"] != (n_ref < tol):
                fails.append("paradox=%s but reference N=%.3e" % (out["paradox"], n_ref))
            elif not out["paradox"]:
                if abs(out["n"] - n_ref) > TOL:
                    fails.append("N=%r, reference %r" % (out["n"], n_ref))
                unit = psi / n_ref
                if np.max(np.abs(out["rho"] - np.outer(unit, unit.conj()))) > TOL:
                    fails.append("rho differs from Tr_loop(U)|ext>/2^m")
        elif out["paradox"]:
            fails.append("unexpected paradox in %s" % job["kind"])
        if out["paradox"]:
            return fails
        rho = out["rho"]
        if np.max(np.abs(rho - rho.conj().T)) > TOL:
            fails.append("rho is not Hermitian")
        if abs(np.trace(rho) - 1.0) > TOL:
            fails.append("trace(rho) = %r" % np.trace(rho))
        if job["kind"] == "delta":
            z_ref, rho_ref = ref.delta_closed_form(cs, circuit)
            if abs(out["z"] - z_ref) > TOL * max(1.0, abs(z_ref)):
                fails.append("delta quadrature Z=%r, closed form %r" % (out["z"], z_ref))
            if np.max(np.abs(rho - rho_ref)) > TOL:
                fails.append("delta quadrature rho differs from the closed form")
        return fails

    def close(self):
        pass
