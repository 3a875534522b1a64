"""Span tracing of ctcsim from outside the package.

`Tracer.install` replaces selected public functions with timing wrappers in
every ctcsim module namespace that holds them, which is where the calling
module looks them up (for example `ctcsim.engine.project`).  The sources are
not edited.  Spans hold a name, start, end and parent; they stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute) -> span name; the span name is the layer metric prefix
TARGETS = (
    ("states", "project"),
    ("states", "apply_gate"),
    ("circuit", "evolve"),
    ("circuit", "with_init"),
    ("circuit", "build_circuit"),
    ("gates", "make_gate"),
    ("engine", "projection_table"),
    ("engine", "loop_histories"),
    ("engine", "run_exact_bell"),
    ("engine", "run_noisy_bell"),
    ("engine", "run_classical"),
    ("engine", "run_weight_matrix"),
    ("engine", "run_delta_quadrature"),
    ("analysis", "input_bias"),
    ("scenarios", "verify_scenario"),
    ("cli", "main"),
    ("cli", "parse_circuit_doc"),
    ("cli", "build_report"),
)
MODULES = ("states", "gates", "circuit", "engine", "analysis", "scenarios", "cli")
RUN_SPANS = tuple("engine." + attr for mod, attr in TARGETS if attr.startswith("run_"))


def _nbytes(x):
    return getattr(x, "nbytes", 0)


class Tracer:
    """Records spans and counters for one pass of a workload."""

    def __init__(self, pkg):
        importlib.import_module(pkg.__name__ + ".cli")  # the package does not import it
        self.pkg = pkg
        self.names = []
        self.name_ids = {}
        self.spans = []  # index -> (name id, parent index, start, end)
        self.stack = [-1]
        self.counters = defaultdict(float)
        self._undo = []

    def _nid(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name):
        return _SpanContext(self, self._nid(name))

    def _wrap(self, name, fn, after=None):
        nid = self._nid(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counters = self.counters
        paradox = self.pkg.ParadoxError

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except paradox:
                counters["engine.paradox.count"] += name in RUN_SPANS
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, parent, t0, t1)
            if after is not None:
                after(counters, args, out)
            return out

        return wrapper

    def install(self):
        pkg = self.pkg
        modules = [pkg] + [getattr(pkg, m) for m in MODULES]
        afters = {
            "states.project": _after_project,
            "states.apply_gate": _after_apply_gate,
            "engine.projection_table": _after_table,
            "scenarios.verify_scenario": _after_verify,
        }
        for mod_name, attr in TARGETS:
            original = getattr(getattr(pkg, mod_name), attr)
            name = "%s.%s" % (mod_name, attr)
            wrapper = self._wrap(name, original, afters.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        state_cls = pkg.states.PureState
        post_init = state_cls.__post_init__
        counters = self.counters

        def counted_post_init(state):
            counters["states.pure_state.count"] += 1
            post_init(state)

        state_cls.__post_init__ = counted_post_init
        self._undo.append((state_cls, "__post_init__", post_init))

    def uninstall(self):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def arrays(self):
        rec = np.array(self.spans, dtype=float).reshape(-1, 4)
        return {
            "name_id": rec[:, 0].astype(np.int32),
            "parent": rec[:, 1].astype(np.int64),
            "start": rec[:, 2],
            "end": rec[:, 3],
            "names": np.array(self.names),
        }

    def save(self, path):
        np.savez_compressed(path, **self.arrays())


class _SpanContext:
    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append(None)
        self.parent = t.stack[-1]
        t.stack.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        t = self.tracer
        t.stack.pop()
        t.spans[self.idx] = (self.nid, self.parent, self.t0, t1)
        return False


def _after_project(counters, args, out):
    state, bra = args[0], args[1]
    counters["states.project.bytes"] += (
        _nbytes(state.amps) + _nbytes(bra.amps) + _nbytes(out.amps))


def _after_apply_gate(counters, args, out):
    state, matrix = args[0], args[1]
    counters["states.apply_gate.bytes"] += (
        _nbytes(state.amps) + _nbytes(matrix) + _nbytes(out.amps))


def _after_table(counters, args, out):
    counters["engine.projection_table.entries"] += len(out.entries)


def _after_verify(counters, args, out):
    counters["scenarios.records.total"] += len(out)
    counters["scenarios.records.failed"] += sum(not r["passed"] for r in out)


def layer_metrics(tracer, sweep_steps):
    """Per-layer numbers of one traced pass.

    busy_s is the time inside a layer's spans (nested spans of the same name
    counted once); self_s subtracts the time of direct child spans.
    `sweep_steps` is the number of sweep steps the pass ran, for the
    evolutions-per-step ratio.
    """
    a = tracer.arrays()
    names = list(a["names"])
    nid, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    n = len(dur)
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    selft = dur - child

    run_ids = {i for i, nm in enumerate(names) if nm in RUN_SPANS}
    bias_id = tracer.name_ids.get("analysis.input_bias", -2)
    evolve_id = tracer.name_ids.get("circuit.evolve", -2)
    sweep_id = tracer.name_ids.get("op:sweep", -2)
    # ancestry flags, filled in index order (a parent opens before its children)
    under_run = np.zeros(n, dtype=bool)
    under_bias = np.zeros(n, dtype=bool)
    under_sweep = np.zeros(n, dtype=bool)
    under_same = np.zeros(n, dtype=bool)
    nid_l, parent_l = nid.tolist(), parent.tolist()
    for i in range(n):
        p = parent_l[i]
        if p < 0:
            continue
        pn = nid_l[p]
        under_run[i] = under_run[p] or pn in run_ids
        under_bias[i] = under_bias[p] or pn == bias_id
        under_sweep[i] = under_sweep[p] or pn == sweep_id
        # inside a span of the same name, which busy_s must not count twice
        q = p
        while q >= 0:
            if nid_l[q] == nid_l[i]:
                under_same[i] = True
                break
            q = parent_l[q]

    def by_name(name):
        i = tracer.name_ids.get(name)
        return np.zeros(n, dtype=bool) if i is None else nid == i

    out = {}

    for mod, attr in TARGETS:
        name = "%s.%s" % (mod, attr)
        mask = by_name(name)
        out[name + ".calls"] = float(mask.sum())
        out[name + ".busy_s"] = float(dur[mask & ~under_same].sum())

    runs = np.isin(nid, list(run_ids))
    top_runs = runs & ~under_run
    evolves = nid == evolve_id
    out["engine.contract.self_s"] = float(selft[runs].sum())
    out["engine.evolutions_per_run"] = (
        float((evolves & under_run).sum()) / max(1, int(top_runs.sum())))
    out["analysis.input_bias.engine_runs"] = float((runs & under_bias).sum())
    out["scenarios.verify_scenario.self_s"] = float(
        selft[by_name("scenarios.verify_scenario")].sum())
    out["cli.serialize.self_s"] = float(selft[by_name("cli.main")].sum())
    out["cli.sweep.evolutions_per_step"] = (
        float((evolves & under_sweep).sum()) / sweep_steps if sweep_steps else 0.0)
    for key in ("states.project.bytes", "states.apply_gate.bytes",
                "states.pure_state.count", "engine.projection_table.entries",
                "engine.paradox.count", "scenarios.records.total",
                "scenarios.records.failed"):
        out[key] = float(tracer.counters.get(key, 0.0))
    return out
