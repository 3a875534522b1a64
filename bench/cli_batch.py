"""cli_batch: a seeded mix of `ctcsim` command-line invocations.

Why: each invocation is a fresh interpreter, and about 0.25 s of a 0.3 s call
is interpreter and numpy start-up.  Reports are pretty-printed JSON built in
pure Python, so wide-external `run` documents (64x64 and 128x128 rho plus the
projection rows) and multi-step sweeps spend much of their time serializing.
`sweep` re-parses the document and re-evolves the circuit at every step even
though only lambda changes.
Loads: interpreter start-up, cli parsing and report serialization, per-step
sweep work.  Bypasses: the large-register projection cost (documents stay at
4 looped qubits or fewer) and analysis.input_bias.
An operation is one invocation: a child process, one at a time.  In the traced
run `ctcsim.cli.main(argv)` is called in-process instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import signal
import subprocess
import sys

import numpy as np

import harness
import loop_grid

NAME = "cli_batch"
WHY = ("6 run documents at (2,6)/(1,7), 2 lambda sweeps at (4,4), 24 catalog scenario calls "
       "(2 paradox exits), one child process each: loads interpreter start-up, cli parsing "
       "and serialization; bypasses large-register projections and analysis")

# (looped, external, document model) of the `run` documents
RUN_DOCS = ((2, 6, {"type": "exact_bell"}), (2, 6, {"type": "noisy_bell"}),
            (2, 6, {"type": "classical"}), (1, 7, {"type": "exact_bell"}),
            (1, 7, {"type": "noisy_bell"}), (1, 7, {"type": "weight_matrix"}))
SWEEP_DOCS = ((4, 4, {"type": "noisy_bell", "lambda": 0.5}),) * 2
SWEEP = ("0.05", "0.95", 12)
N_SCENARIOS, N_PARADOX = 24, 2
PARADOX_SCENARIOS = ("grandfather_not", "grandfather_pf", "grandfather_rot")
SCENARIO_MODELS = ("exact_bell", "noisy_bell", "classical", "weight_matrix", "delta")
SMOKE_RUN_DOCS = ((1, 2, {"type": "exact_bell"}),)
SMOKE_SWEEP_DOCS = ((1, 2, {"type": "noisy_bell", "lambda": 0.5}),)
SMOKE_SWEEP = ("0.1", "0.9", 3)
WARMUP_ARGV = ["scenario", "simple_loop"]
N_GATES = 30
CHILD_TIMEOUT_S = 120
TOL = 1e-12


def _model_params(rng, spec):
    spec = dict(spec)
    if spec["type"] == "noisy_bell" and "lambda" not in spec:
        spec["lambda"] = rng.choice((0.1, 0.2, 0.3, 0.5))
    elif spec["type"] == "classical":
        spec["k"] = rng.choice((0.1, 0.2, 0.3, 0.4))
    elif spec["type"] == "weight_matrix":
        spec["omega"] = rng.choice(("flat", "quad"))
    return spec


def _model_arg(spec):
    """Command-line form of a model spec, e.g. 'noisy_bell,lambda=0.2'."""
    return ",".join([spec["type"]] + ["%s=%s" % (k, v) for k, v in spec.items()
                                      if k != "type"])


def document(spec, model):
    channels = []
    for c in spec["channels"]:
        item = {"name": c["name"], "role": "ctc" if c["looped"] else "external"}
        if "init" in c:
            item["init"] = c["init"]
        channels.append(item)
    return {"channels": channels, "gates": spec["gates"], "model": model,
            "outputs": ["Z", "N", "rho", "projections"]}


def library_run(cs, circuit, model):
    """('paradox', None) or ('ok', Z) from a direct library call."""
    engine = cs.engine
    kind = model["type"]
    try:
        if kind == "exact_bell":
            r = engine.run_exact_bell(circuit)
        elif kind == "noisy_bell":
            r = engine.run_noisy_bell(circuit, float(model["lambda"]))
        elif kind == "classical":
            r = engine.run_classical(circuit, float(model["k"]))
        elif kind == "weight_matrix":
            r = engine.run_weight_matrix(circuit, model["omega"])
        else:
            r = engine.run_delta_quadrature(circuit)
    except cs.ParadoxError:
        return "paradox", None
    return "ok", r.z


class Reference:
    def z(self, cs, circuit, model):
        return library_run(cs, circuit, model)


class _ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _ChildTimeout()


class Workload:
    name = NAME
    why = WHY

    def __init__(self, cs, seed, smoke=False, workdir=None):
        self.cs = cs
        self.cli = importlib.import_module("ctcsim.cli")
        self.workdir = workdir
        self.env = harness.child_env()
        self.child_rss_mb = 0.0
        rng = random.Random("%s:%d" % (NAME, seed))
        os.makedirs(os.path.join(workdir, "docs"), exist_ok=True)
        self.docs = []  # (spec, model, circuit)
        jobs = []
        n_gates = loop_grid.SMOKE_GATES if smoke else N_GATES

        def add_doc(m, e, model):
            spec = loop_grid.random_spec(rng, m, e, n_gates)
            model = _model_params(rng, model)
            path = "docs/doc%02d.json" % len(self.docs)
            with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
                json.dump(document(spec, model), fh)
            self.docs.append((spec, model, loop_grid.build(cs, spec)))
            return len(self.docs) - 1, path

        for m, e, model in (SMOKE_RUN_DOCS if smoke else RUN_DOCS):
            i, path = add_doc(m, e, model)
            jobs.append({"kind": "run", "doc": i, "argv": ["run", path]})
        start, stop, steps = SMOKE_SWEEP if smoke else SWEEP
        for m, e, model in (SMOKE_SWEEP_DOCS if smoke else SWEEP_DOCS):
            i, path = add_doc(m, e, model)
            jobs.append({"kind": "sweep", "doc": i, "from": start, "to": stop,
                         "steps": steps,
                         "argv": ["sweep", path, "--param", "lambda", "--from", start,
                                  "--to", stop, "--steps", str(steps)]})
        n_scen, n_par = (2, 1) if smoke else (N_SCENARIOS, N_PARADOX)
        for name in rng.sample(PARADOX_SCENARIOS, n_par):
            jobs.append(self._scenario_job(name, {"type": "exact_bell"}))
        # the models cycle in a fixed mix; the seed picks scenarios and parameters
        pools = {kind: [] for kind in SCENARIO_MODELS}
        for entry in cs.list_scenarios():
            circuit = cs.build_scenario(entry["name"]).circuit
            for kind in SCENARIO_MODELS:
                if not circuit.loop_labels or (
                        kind == "exact_bell" and entry["name"] in PARADOX_SCENARIOS) or (
                        kind == "delta" and len(circuit.loop_labels) != 1):
                    continue
                pools[kind].append(entry["name"])
        for k in range(n_scen - n_par):
            kind = SCENARIO_MODELS[k % len(SCENARIO_MODELS)]
            jobs.append(self._scenario_job(rng.choice(pools[kind]),
                                           _model_params(rng, {"type": kind})))
        harness.interleave(jobs, NAME)
        self.jobs = jobs
        self.sweep_steps = sum(j.get("steps", 0) for j in jobs)
        self.scenario_circuits = {j["name"]: cs.build_scenario(j["name"]).circuit
                                  for j in jobs if j["kind"] == "scenario"}

    def _scenario_job(self, name, model):
        return {"kind": "scenario", "name": name, "model": model,
                "argv": ["scenario", name, "--model", _model_arg(model)]}

    def inputs(self):
        return {"jobs": self.jobs,
                "docs": [document(spec, model) for spec, model, _ in self.docs]}

    def warmup_job(self):
        return {"kind": "scenario", "name": "simple_loop", "model": {"type": "exact_bell"},
                "argv": WARMUP_ARGV}

    def run_op(self, job, in_process=False):
        # document paths in argv are relative to the work directory
        argv = [os.path.join(self.workdir, a) if a.startswith("docs/") else a
                for a in job["argv"]]
        if in_process:
            return self._in_process(argv)
        return self._child(argv)

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        return {"code": code, "stdout": out.getvalue().encode()}

    def _child(self, argv):
        """Run one `python -m ctcsim.cli` child; record its peak RSS."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "ctcsim.cli"] + list(argv),
                                    stdout=out, stderr=err, env=self.env,
                                    cwd=self.workdir)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _ChildTimeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise RuntimeError("ctcsim %s timed out" % " ".join(argv)) from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb = max(self.child_rss_mb, usage.ru_maxrss / 1024.0)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        return {"code": proc.returncode, "stdout": stdout}

    def fingerprint(self, out):
        return (out["code"], hashlib.sha256(out["stdout"]).hexdigest())

    def check(self, job, out, ref):
        cs = self.cs
        if job["kind"] == "scenario":
            circuit = self.scenario_circuits[job["name"]]
            model = job["model"]
        else:
            _, model, circuit = self.docs[job["doc"]]
        if job["kind"] == "sweep":
            values = np.linspace(float(job["from"]), float(job["to"]), job["steps"])
            expected = [ref.z(cs, circuit, dict(model, **{"lambda": float(v)}))
                        for v in values]
        else:
            expected = [ref.z(cs, circuit, model)]
        want_code = 2 if expected[0][0] == "paradox" and job["kind"] != "sweep" else 0
        if out["code"] != want_code:
            return ["exit code %d, library predicts %d" % (out["code"], want_code)]
        try:
            got = self._report_z(job, out["stdout"])
        except (ValueError, KeyError, IndexError) as err:
            return ["unreadable report: %s" % err]
        fails = []
        for (status, z), z_cli in zip(expected, got):
            if status == "paradox" or z_cli is None:
                if (status == "paradox") != (z_cli is None):
                    fails.append("report Z %r, library %s" % (z_cli, status))
            elif abs(z_cli - z) > TOL * max(1.0, abs(z)):
                fails.append("report Z %r, library Z %r" % (z_cli, z))
        if len(got) != len(expected):
            fails.append("report has %d results, expected %d" % (len(got), len(expected)))
        return fails

    @staticmethod
    def _report_z(job, stdout):
        text = stdout.decode()
        if job["kind"] == "sweep":
            rows = text.splitlines()[1:job["steps"] + 1]
            return [None if r.split("\t")[1] == "paradox" else float(r.split("\t")[1])
                    for r in rows]
        report = json.loads(text)
        return [None if report.get("error") == "paradox" else float(report["Z"])]

    def repeat_jobs(self):
        """Indices of jobs invoked again for the byte-identity check, one per kind."""
        first = {}
        for i, job in enumerate(self.jobs):
            first.setdefault(job["kind"], i)
        return list(first.values())

    def close(self):
        for name in ("stdout", "stderr"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.workdir, name))
