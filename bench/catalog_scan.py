"""catalog_scan: the whole scenario catalog plus seeded input-bias scans.

Why: `verify_scenario` over all 31 scenarios (122 records) is the regression
surface, and each `input_bias` call at the default 64 nodes makes 5,120 engine
runs on 2-3 qubit circuits.  Per-call overhead dominates: `circuit.with_init`,
`PureState` validation and the `analysis` loop, while the dense kernels do
almost nothing.  No two engine runs share a circuit, so a per-circuit cache
shows its cost here without a gain.
Loads: analysis.input_bias, circuit.with_init, scenarios, per-call overhead
of engine runs and PureState.  Bypasses: the 4^m projection cost of large
loop registers, and cli.
An operation is one `verify_scenario` or one `input_bias` call.
"""

from __future__ import annotations

import random

import numpy as np

import harness

NAME = "catalog_scan"
WHY = ("verify_scenario over all 31 scenarios (4 rounds) plus 4 input_bias scans at 64 nodes: "
       "loads analysis.input_bias, circuit.with_init and per-call overhead; "
       "bypasses large-register projections and cli")

NODES = 64
VERIFY_ROUNDS = 4
SMOKE_NODES = 16
SMOKE_SCENARIOS = ("simple_loop", "grandfather_not", "third_party")
NOISY_LAMBDAS = (0.1, 0.2, 0.3, 0.5)
CLASSICAL_KS = (0.1, 0.2, 0.3, 0.4)
# one input-bias scan per model, drawn from circuits of a fixed
# (channels, gates) cell
BIAS_CELLS = {"delta": (3, 2), "noisy": (2, 1), "classical": (2, 1)}
# the delta bias of the default cnot_gun has a closed form (criterion 04)
CNOT_GUN_JOB = {"kind": "bias", "scenario": "cnot_gun", "channel": "gun",
                "model": "delta", "param": None}
WARMUP_JOB = {"kind": "verify", "scenario": "simple_loop"}
TOL = 1e-9


class Reference:
    cnot_gun_delta_bias = np.diag([13 / 20, 7 / 20])
    bias_tol = 1e-6


def bias_pools(cs):
    """One-loop catalog circuits with free external channels, by (channels, gates).

    Every circuit in a cell has the same register and gate count, so the
    seed changes which circuit is scanned but not how much work it is.
    """
    pools = {cell: [] for cell in BIAS_CELLS.values()}
    for entry in cs.list_scenarios():
        circuit = cs.build_scenario(entry["name"]).circuit
        cell = (len(circuit.channels), len(circuit.gates))
        if len(circuit.loop_labels) == 1 and not circuit.entangled and cell in pools:
            pools[cell].append((entry["name"], circuit.external_labels))
    return pools


class Workload:
    name = NAME
    why = WHY

    def __init__(self, cs, seed, smoke=False, workdir=None):
        self.cs = cs
        rng = random.Random("%s:%d" % (NAME, seed))
        self.nodes = SMOKE_NODES if smoke else NODES
        names = [s["name"] for s in cs.list_scenarios()]
        if smoke:
            names = list(SMOKE_SCENARIOS)
        # several rounds per pass, so the median of these short operations
        # rests on many samples spread over the pass
        jobs = [{"kind": "verify", "scenario": n} for n in names] * VERIFY_ROUNDS
        bias = [dict(CNOT_GUN_JOB)]
        if not smoke:
            # a fixed cell per model, so each seed does the same kind and
            # amount of work
            pools = bias_pools(cs)
            for model, cell in BIAS_CELLS.items():
                scenario, externals = rng.choice(pools[cell])
                param = None
                if model == "noisy":
                    param = rng.choice(NOISY_LAMBDAS)
                elif model == "classical":
                    param = rng.choice(CLASSICAL_KS)
                bias.append({"kind": "bias", "scenario": scenario,
                             "channel": rng.choice(externals),
                             "model": model, "param": param})
        self.jobs = jobs + bias
        harness.interleave(self.jobs, NAME)
        self.circuits = {j["scenario"]: cs.build_scenario(j["scenario"]).circuit
                         for j in self.jobs if j["kind"] == "bias"}
        self.sweep_steps = 0

    def inputs(self):
        return {"jobs": self.jobs, "nodes": self.nodes}

    def warmup_job(self):
        return WARMUP_JOB

    def _model(self, job):
        cs = self.cs
        if job["model"] == "delta":
            return cs.DeltaQuadrature()
        if job["model"] == "noisy":
            return cs.NoisyBell(job["param"])
        return cs.Classical(job["param"])

    def run_op(self, job, in_process=False):
        cs = self.cs
        if job["kind"] == "verify":
            records = cs.scenarios.verify_scenario(job["scenario"])
            return {"records": len(records),
                    "failed": [r["model"] + ":" + r["quantity"]
                               for r in records if not r["passed"]]}
        circuit = self.circuits[job["scenario"]]
        rho = cs.analysis.input_bias(circuit, job["channel"], self._model(job),
                                     nodes=self.nodes)
        return {"bias": rho.mat}

    def fingerprint(self, out):
        if "records" in out:
            return (out["records"], tuple(out["failed"]))
        return tuple(out["bias"].reshape(-1).tolist())

    def check(self, job, out, ref):
        if job["kind"] == "verify":
            if out["failed"]:
                return ["%s: records failed: %s" % (job["scenario"], ", ".join(out["failed"]))]
            return []
        fails = []
        mat = out["bias"]
        if np.max(np.abs(mat - mat.conj().T)) > TOL:
            fails.append("input bias is not Hermitian")
        if abs(np.trace(mat) - 1.0) > TOL:
            fails.append("input bias trace %r" % np.trace(mat))
        if np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)) < -TOL:
            fails.append("input bias is not positive semidefinite")
        if all(job[k] == CNOT_GUN_JOB[k] for k in CNOT_GUN_JOB):
            if np.max(np.abs(mat - ref.cnot_gun_delta_bias)) > ref.bias_tol:
                fails.append("cnot_gun delta bias %r, expected diag(0.65, 0.35)"
                             % (np.real(np.diag(mat)).tolist(),))
        return fails

    def close(self):
        pass
