"""Command-line harness: parse circuit documents, run models, emit reports.

Documents are JSON.  Reports are JSON with a fixed field order and Python's
shortest round-trip float formatting, so the same document and settings
always produce byte-identical output.  Exit codes: 0 on success, 2 when the
circuit is a paradox (no surviving amplitude; the projection outcomes are
still reported), 1 on any other error, usage errors included.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import MISSING, fields

import numpy as np

from . import __version__, analysis
from .circuit import Channel, Circuit, validate
from .engine import MODELS, resolve_tolerance
from .errors import ArityError, ConfigError, CtcSimError, ParadoxError, ParseError
from .gates import make_gate, param_names
from .scenarios import build_scenario, list_scenarios
from .states import _finite, normalized_amplitudes

_DEFAULT_OUTPUTS = ("Z", "N", "rho", "projections")
# in --outputs, only a comma that starts an output name separates outputs: flip:p1,p2 stays whole
_OUTPUT_COMMA = re.compile(r",(?=(?:%s)(?:,|$)|flip:|input_bias:)" % "|".join(_DEFAULT_OUTPUTS))

# a sweep holds all its values and every step's report until it writes them, so the step count
# is bounded before anything is allocated: 100 times a 1,000-step sweep (10^10 steps: 80 GB)
_MAX_STEPS = 10**5

_CONVENTIONS = {
    "rotation": "ROT(theta) = [[cos,-sin],[sin,cos]]",
    "pair_order": "(reference, loop) pairs in declaration order, then externals",
    "acceptance": "Z includes the 2^-m matched-pair normalization",
    "matrices": "row-major, complex entries as [re, im]",
}


def _fail(path, message):
    raise ConfigError("%s: %s" % (path, message))


def _at(path, call, *args, **kwargs):
    """call(*args, **kwargs); a ConfigError or ArityError it raises is put at `path`."""
    try:
        return call(*args, **kwargs)
    except (ConfigError, ArityError) as err:
        _fail(path, str(err))


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    extra = set(obj) - set(allowed)
    if extra:
        _fail("%s.%s" % (path, min(extra)),
              "unknown key (allowed: %s)" % (", ".join(allowed) or "none"))


def _items(value, path):
    """(item, JSON path of the item) for each entry of a list."""
    if not isinstance(value, list):
        _fail(path, "expected a list")
    return [(item, "%s[%d]" % (path, i)) for i, item in enumerate(value)]


# ---------------------------------------------------------------------------
# values: every number a document or argv supplies is read by _number, as the library
# reads it; a scenario's --param values are read by the catalog


def _number(value, path):
    """A finite JSON number (not a bool) as a float, else ConfigError at `path`."""
    try:
        return _finite(value, path)
    except ConfigError:
        _fail(path, "expected a finite number, got %r" % (value,))


def _boolean(value, path):
    if not isinstance(value, bool):
        _fail(path, "expected true or false, got %r" % (value,))
    return value


def _numbers(value, path):
    return tuple(_number(v, here) for v, here in _items(value, path))


def _name_or_matrix(value, path):
    """A built-in name, or a matrix given as equal-length rows of numbers."""
    if isinstance(value, str):
        return value
    rows = [_numbers(row, here) for row, here in _items(value, path)]
    if len({len(row) for row in rows}) > 1:
        _fail(path, "matrix rows must have equal length")
    return np.array(rows, dtype=float)


# annotation of a model field (a string: engine.py postpones annotations) -> its reader
_READERS = {"float": _number, "bool": _boolean, "object": _name_or_matrix}


def _key_values(items, path):
    """['k=0.2', 'omega=flat'] -> {'k': 0.2, 'omega': 'flat'} (non-JSON stays text)."""
    out = {}
    for item in items:
        key, sep, raw = item.partition("=")
        if not sep:
            _fail(path, "%r is not key=value" % (item,))
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
        except RecursionError:
            _fail("%s.%s" % (path, key), "value nests too deeply")
        except ValueError:  # an integer past Python's int-to-str digit limit
            _fail("%s.%s" % (path, key), "integer has too many digits")
    return out


def _read_doc(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# documents


def _amps_from_pairs(values, path):
    flat = _numbers(values, path)
    if len(flat) % 2:
        _fail(path, "amplitude list must hold [re, im] pairs")
    return [complex(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]


def _channel_names(value, path, least):
    if (not isinstance(value, list) or len(value) < least
            or not all(isinstance(name, str) for name in value)):
        _fail(path, "expected %s channel names"
              % ("two or more" if least > 1 else "a list of"))
    return tuple(value)


def _parse_channels(items, path):
    if not isinstance(items, list) or not items:
        _fail(path, "expected a non-empty channel list")
    channels = []
    for item, here in _items(items, path):
        _check_keys(item, ("name", "role", "init"), here)
        role = item.get("role", "external")
        if role not in ("ctc", "external"):
            _fail(here + ".role", "must be 'ctc' or 'external'")
        init = item.get("init")
        if isinstance(init, list):
            init = _amps_from_pairs(init, here + ".init")
        elif init is not None and not isinstance(init, str):
            _fail(here + ".init", "expected a named state or [re, im] pairs")
        for key, value in (("name", None), ("init", init)):  # the name is checked alone first
            channel = _at("%s.%s" % (here, key), Channel, item.get("name"),
                          looped=(role == "ctc"), init=value)
        channels.append(channel)
    return channels


def _parse_entangled(items, path):
    groups = []
    for item, here in _items(items, path):
        _check_keys(item, ("channels", "amplitudes"), here)
        labels = _channel_names(item.get("channels"), here + ".channels", 2)
        amps = _amps_from_pairs(item.get("amplitudes", []), here + ".amplitudes")
        groups.append((labels, _at(here + ".amplitudes", normalized_amplitudes, amps,
                                   len(labels), "entangled init on %r" % (labels,))))
    return groups


def _parse_gates(items, path):
    gates = []
    for item, here in _items(items, path):
        _check_keys(item, ("kind", "targets", "params"), here)
        targets = _channel_names(item.get("targets"), here + ".targets", 1)
        names = _at(here, param_names, item.get("kind"))  # documents carry no CUSTOM matrix
        raw = item.get("params", {})
        _check_keys(raw, names, here + ".params")
        params = tuple(_number(raw[k], "%s.params.%s" % (here, k))
                       for k in names if k in raw)
        gates.append(_at(here, make_gate, item.get("kind"), targets, params=params))
    return gates


def _model_keys(cls):
    """Document key -> field of a model descriptor class."""
    return {f.metadata.get("key", f.name): f for f in fields(cls)}


def _parse_model(spec, path):
    if isinstance(spec, str):
        spec = {"type": spec}
    if not isinstance(spec, dict):
        _fail(path, "expected a model object")
    kind = spec.get("type")
    cls = MODELS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        _fail(path + ".type", "unknown model %r (have: %s)"
              % (kind, ", ".join(sorted(MODELS))))
    keys = _model_keys(cls)
    _check_keys(spec, ("type",) + tuple(keys), path)
    values = {}
    for key, f in keys.items():
        if key in spec:
            values[f.name] = _READERS[f.type](spec[key], "%s.%s" % (path, key))
        elif f.default is MISSING:
            _fail(path, "%s requires %r" % (kind, key))
    return cls(**values)


def _model_arg(value):
    """'noisy_bell,lambda=0.2' -> NoisyBell(0.2); only a comma before key= splits."""
    head, *rest = re.split(r",(?=[^,=\[\]]*=)", value)
    return _parse_model(dict(_key_values(rest, "arg.model"), type=head), "arg.model")


def _parse_outputs(items, path):
    for name, here in _items(items, path):
        if name in _DEFAULT_OUTPUTS or isinstance(name, str) and (
                name.startswith("input_bias:")
                or name.startswith("flip:") and name.count(",") < 2):
            continue
        _fail(here, "unknown output %r" % (name,))
    return tuple(items)


def _load_doc(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError("line %d: %s" % (err.lineno, err.msg)) from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    except ValueError:  # an integer past Python's int-to-str digit limit
        raise ParseError("document holds an integer with too many digits") from None


# where `validate` locates a problem -> its JSON path
_PROBLEM_PATHS = {"channels": "doc.channels[%d].name", "gates": "doc.gates[%d].targets[%d]",
                  "entangled": "doc.entangled_inits[%d].channels[%d]", "qubits": "doc.channels"}


def _parse_doc(doc):
    """(circuit, model, outputs) of a loaded JSON document; the document is not changed."""
    _check_keys(doc, ("channels", "entangled_inits", "gates", "model", "outputs"),
                "doc")
    channels = _parse_channels(doc.get("channels"), "doc.channels")
    entangled = _parse_entangled(doc.get("entangled_inits", []),
                                 "doc.entangled_inits")
    gates = _parse_gates(doc.get("gates", []), "doc.gates")
    circuit = Circuit(tuple(channels), tuple(gates), tuple(entangled))
    problems = validate(circuit)
    if problems:
        raise ConfigError("; ".join("%s: %s" % (_PROBLEM_PATHS[where[0]] % where[1:], text)
                                    for where, text in problems))
    model = _parse_model(doc.get("model", "exact_bell"), "doc.model")
    outputs = _parse_outputs(doc.get("outputs", list(_DEFAULT_OUTPUTS)),
                             "doc.outputs")
    return circuit, model, outputs


def parse_circuit_doc(text):
    """Parse a JSON circuit document into (circuit, model, outputs)."""
    return _parse_doc(_load_doc(text))


# ---------------------------------------------------------------------------
# report serialization


def _complex_pairs(values):
    """A complex array as nested lists of [re, im] float pairs, row-major."""
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _matrix_dict(op):
    mat = np.asarray(op.mat)
    return {
        "dim": int(mat.shape[0]),
        "labels": list(op.labels),
        "entries": _complex_pairs(mat.reshape(-1)),
    }


def _projection_rows(projections):
    return [{"label": label, "weight": w}
            for label, w in zip(projections.labels, projections.weights.tolist())]


def _derived_outputs(circuit, model, result, outputs):
    derived = {}
    for name in outputs:
        if name.startswith("flip:"):
            parts = name[len("flip:"):].split(",")
            derived[name] = analysis.flip_probability(result, *parts)
        elif name.startswith("input_bias:"):
            channel = name[len("input_bias:"):]
            derived[name] = _matrix_dict(
                analysis.input_bias(circuit, channel, model)
            )
    return derived


def _metadata(tol, model=None):
    meta = {
        "measure": "flat-theta-xi",
        "conventions": dict(_CONVENTIONS),
        "version": __version__,
    }
    if model is not None:
        meta["model"] = model.describe()
    meta["tolerance"] = tol
    return meta


def build_report(circuit, model, result, outputs):
    report = {}
    if "Z" in outputs:
        report["Z"] = float(result.z)
    if "N" in outputs:
        report["N"] = None if result.n is None else float(result.n)
    if "rho" in outputs:
        report["rho"] = _matrix_dict(result.rho)
    if "projections" in outputs:
        report["projections"] = (
            None if result.projections is None
            else _projection_rows(result.projections)
        )
    report["derived"] = _derived_outputs(circuit, model, result, outputs)
    report["metadata"] = _metadata(result.metadata["tolerance"], model)
    return report


def _paradox_report(err, tol):
    projections = err.projections
    if projections is not None:  # each row with its surviving external amplitudes
        projections = {"channel_order": list(projections.channel_order),
                       "entries": [dict(row, amplitudes=amps) for row, amps in zip(
                           _projection_rows(projections), _complex_pairs(projections.amps))]}
    return {
        "error": "paradox",
        "message": str(err),
        "projections": projections,
        "metadata": _metadata(tol),
    }


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj):
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# verbs


def _report(circuit, model, outputs, where):
    """(report, result); result is None when the run or a derived output is a paradox."""
    tol = resolve_tolerance(None)
    try:
        result = _at(where, model.run, circuit, tol)  # a model value the run rejects
        return build_report(circuit, model, result, outputs), result
    except ParadoxError as err:
        return _paradox_report(err, tol), None


def _run_and_report(circuit, model, outputs, where, out_path):
    report, result = _report(circuit, model, outputs, where)
    _emit(_dump(report), out_path)
    return 2 if result is None else 0


def _cmd_run(args):
    circuit, model, outputs = parse_circuit_doc(_read_doc(args.doc))
    where = "doc.model"
    if args.model:
        model, where = _model_arg(args.model), "arg.model"
    return _run_and_report(circuit, model, outputs, where, args.out)


def _cmd_scenario(args):
    scenario = build_scenario(args.name, **_key_values(args.param or [], "arg.param"))
    model = _model_arg(args.model)
    outputs = _parse_outputs(_OUTPUT_COMMA.split(args.outputs) if args.outputs
                             else list(_DEFAULT_OUTPUTS), "arg.outputs")
    return _run_and_report(scenario.circuit, model, outputs, "arg.model", args.out)


def _cmd_sweep(args):
    if args.steps < 1:
        raise ConfigError("sweep needs at least one step")
    if args.steps > _MAX_STEPS:
        _fail("arg.steps", "a sweep takes at most %d steps, got %d" % (_MAX_STEPS, args.steps))
    start, stop = _number(args.start, "arg.from"), _number(args.stop, "arg.to")
    if not math.isfinite(stop - start):
        _fail("arg.to", "sweep range %r to %r is wider than the float range"
              % (start, stop))
    param, doc = args.param, _load_doc(_read_doc(args.doc))
    circuit, model, outputs = _parse_doc(doc)  # the document is well formed from here on
    in_model = param in _model_keys(type(model))
    gate_hits = [g for g in doc.get("gates", []) if param in g.get("params", {})]
    if not in_model and not gate_hits:
        raise ConfigError(
            "sweep parameter %r is neither a model parameter nor a gate "
            "parameter of this document" % (param,)
        )
    spec = doc.get("model")
    spec = spec if isinstance(spec, dict) else {"type": model.type}
    lines = ["%s\tZ\tN" % param]
    reports = []
    # Python floats, so that an error message shows a value as the document would;
    # a model-key step runs the one parsed circuit, so it evolves once in all
    for value in np.linspace(start, stop, args.steps).tolist():
        for g in gate_hits:
            g["params"][param] = value
        circuit = _parse_doc(doc)[0] if gate_hits else circuit
        model = _parse_model({**spec, param: value}, "doc.model") if in_model else model
        report, result = _report(circuit, model, outputs, "doc.model")
        reports.append({"param": param, "value": value, "report": report})
        if result is None:
            lines.append("%r\tparadox\tparadox" % value)
        else:
            n = "" if result.n is None else repr(float(result.n))
            lines.append("%r\t%r\t%s" % (value, float(result.z), n))
    _emit("\n".join(lines) + "\n" + _dump(reports), args.out)
    return 0


def _cmd_list(args):
    _emit(_dump(list_scenarios()), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so that it exits 1 like any other."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(
        prog="ctcsim",
        description="Run post-selected loop circuits and emit JSON reports.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a circuit document")
    p_run.add_argument("doc")
    p_run.add_argument("--model", help="override the document model, "
                       "e.g. noisy_bell,lambda=0.2")
    p_run.add_argument("--out")
    p_run.set_defaults(func=_cmd_run)

    p_sc = sub.add_parser("scenario", help="run a catalog scenario")
    p_sc.add_argument("name")
    p_sc.add_argument("--param", action="append",
                      help="override a scenario parameter, key=value")
    p_sc.add_argument("--model", default="exact_bell")
    p_sc.add_argument("--outputs", help="comma-separated output names")
    p_sc.add_argument("--out")
    p_sc.set_defaults(func=_cmd_scenario)

    p_sw = sub.add_parser("sweep", help="sweep one parameter of a document")
    p_sw.add_argument("doc")
    p_sw.add_argument("--param", required=True)
    p_sw.add_argument("--from", dest="start", type=float, required=True)
    p_sw.add_argument("--to", dest="stop", type=float, required=True)
    p_sw.add_argument("--steps", type=int, required=True)
    p_sw.add_argument("--out")
    p_sw.set_defaults(func=_cmd_sweep)

    p_ls = sub.add_parser("list-scenarios", help="list the scenario catalog")
    p_ls.add_argument("--out")
    p_ls.set_defaults(func=_cmd_list)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CtcSimError, OSError, UnicodeDecodeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
