import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctcsim import analysis, engine
from ctcsim.circuit import evolve
from ctcsim.cli import main, parse_circuit_doc
from ctcsim.engine import MODELS, DeltaQuadrature, NoisyBell
from ctcsim.errors import ConfigError, ParadoxError, ParseError
from ctcsim.scenarios import build_scenario

SIMPLE_LOOP_DOC = {
    "channels": [
        {"name": "tm", "role": "ctc"},
        {"name": "sys", "role": "external", "init": [0.8, 0.0, 0.6, 0.0]},
    ],
    "gates": [{"kind": "SWAP", "targets": ["tm", "sys"]}],
    "model": {"type": "exact_bell"},
    "outputs": ["Z", "N", "rho"],
}


def invoke(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else None
    return code, out


def write_doc(tmp_path, doc, name="doc.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# parsing --------------------------------------------------------------------


def test_parse_minimal_simple_loop():
    circuit, model, outputs = parse_circuit_doc(json.dumps(SIMPLE_LOOP_DOC))
    assert circuit.loop_labels == ("tm",)
    assert circuit.external_labels == ("sys",)
    assert outputs == ("Z", "N", "rho")


def test_parse_rejects_bad_syntax():
    with pytest.raises(ParseError, match="line"):
        parse_circuit_doc("{not json")


def test_parse_rejects_unknown_keys():
    doc = dict(SIMPLE_LOOP_DOC)
    doc["frobnicate"] = 1
    with pytest.raises(ConfigError, match="frobnicate"):
        parse_circuit_doc(json.dumps(doc))


def test_parse_rejects_gate_on_reference_qubit():
    doc = json.loads(json.dumps(SIMPLE_LOOP_DOC))
    doc["gates"].append({"kind": "X", "targets": ["tm.ref"]})
    with pytest.raises(ConfigError):
        parse_circuit_doc(json.dumps(doc))


TWO_LOOP_DOC = {
    "channels": [
        {"name": "t1", "role": "ctc"},
        {"name": "t2", "role": "ctc"},
    ],
    "gates": [{"kind": "CX", "targets": ["t1", "t2"]}],
    "model": {"type": "delta"},
}


@pytest.mark.parametrize("case", ["document", "run_override", "scenario_override"])
def test_delta_with_two_loops_exits_one_with_weight_matrix_hint(case, tmp_path, capsys):
    # the delta model's one-loop restriction is checked by the run itself, so
    # a model given on the command line reports the same hint as a document
    exact = write_doc(tmp_path, dict(TWO_LOOP_DOC, model={"type": "exact_bell"}))
    argv = {
        "document": ["run", write_doc(tmp_path, TWO_LOOP_DOC, "delta.json")],
        "run_override": ["run", exact, "--model", "delta"],
        "scenario_override": ["scenario", "two_ctc_cx", "--model", "delta"],
    }[case]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "weight_matrix" in captured.err and "omega='delta'" in captured.err


def test_parse_model_variants():
    doc = dict(SIMPLE_LOOP_DOC)
    doc["model"] = {"type": "noisy_bell", "lambda": 0.25}
    _, model, _ = parse_circuit_doc(json.dumps(doc))
    assert isinstance(model, NoisyBell)
    assert model.lam == 0.25
    doc["model"] = {"type": "delta"}
    _, model, _ = parse_circuit_doc(json.dumps(doc))
    assert isinstance(model, DeltaQuadrature)


def test_parse_rejects_unknown_model_key():
    doc = dict(SIMPLE_LOOP_DOC)
    doc["model"] = {"type": "exact_bell", "lambda": 0.1}
    with pytest.raises(ConfigError):
        parse_circuit_doc(json.dumps(doc))


def test_parse_entangled_inits():
    doc = {
        "channels": [
            {"name": "tm", "role": "ctc"},
            {"name": "a"},
            {"name": "b"},
        ],
        "entangled_inits": [
            {"channels": ["a", "b"],
             "amplitudes": [0.6, 0, 0, 0, 0, 0, 0.8, 0]}
        ],
        "gates": [{"kind": "CX", "targets": ["a", "tm"]}],
    }
    circuit, _, _ = parse_circuit_doc(json.dumps(doc))
    assert circuit.entangled


def _with(**changes):
    doc = json.loads(json.dumps(SIMPLE_LOOP_DOC))
    doc.update(changes)
    return doc


# (case, document or its text or argv, text stderr must contain); most of these
# inputs once escaped main() as a Python exception or ran with a misread value.
# json.dumps writes math.nan and math.inf as the JSON extensions NaN, Infinity.
MALFORMED = [
    ("lambda_text", _with(model={"type": "noisy_bell", "lambda": "abc"}),
     "doc.model.lambda"),
    ("nodes_key", _with(model={"type": "delta", "nodes_xi": 64}),
     "doc.model.nodes_xi: unknown key (allowed: type)"),
    ("gate_arity", _with(gates=[{"kind": "CX", "targets": ["a"]}]),
     "doc.gates[0]: CX acts on 2 qubits, got 1 targets"),
    ("gate_unknown_target", _with(gates=[{"kind": "SWAP", "targets": ["tm", "zz"]}]),
     "doc.gates[0].targets[1]: gate SWAP targets unknown channel 'zz'"),
    ("duplicate_channel", _with(channels=[{"name": "tm", "role": "ctc"}, {"name": "tm"}]),
     "doc.channels[1].name: duplicate channel label 'tm'"),
    ("entangled_looped_channel",
     _with(channels=[{"name": "tm", "role": "ctc"}, {"name": "a"}], gates=[],
           entangled_inits=[{"channels": ["a", "tm"], "amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}]),
     "doc.entangled_inits[0].channels[1]: entangled init names non-external channel 'tm'"),
    ("qubit_cap", _with(channels=[{"name": "c%d" % i, "role": "ctc"} for i in range(8)],
                        gates=[]),
     "doc.channels: circuit needs 16 qubits with reference partners"),
    ("omega_text_entry",
     _with(model={"type": "weight_matrix", "omega": [[1, "a"], [0, 1]]}),
     "doc.model.omega[0][1]"),
    ("omega_ragged", _with(model={"type": "weight_matrix", "omega": [[1, 0], [1]]}),
     "doc.model.omega"),
    ("gate_param_text",
     _with(gates=[{"kind": "ROT", "targets": ["tm"], "params": {"theta": "abc"}}]),
     "doc.gates[0].params.theta"),
    ("gate_param_wrong_name",
     _with(gates=[{"kind": "PHASE", "targets": ["tm"], "params": {"theta": 1.0}}]),
     "doc.gates[0].params.theta"),
    ("gate_param_on_fixed_gate",
     _with(gates=[{"kind": "CX", "targets": ["tm", "sys"], "params": {"xi": 1.0}}]),
     "doc.gates[0].params.xi"),
    ("gate_kind_unknown_with_params",
     _with(gates=[{"kind": "FOO", "targets": ["tm"], "params": {"theta": 1.0}}]),
     "doc.gates[0]: unknown gate kind 'FOO'"),
    ("nested_targets", _with(gates=[{"kind": "X", "targets": [["tm"]]}]),
     "doc.gates[0].targets"),
    ("init_nan", json.dumps(SIMPLE_LOOP_DOC).replace("[0.8,", "[NaN,"),
     "doc.channels[1].init[0]"),
    ("init_bool", json.dumps(SIMPLE_LOOP_DOC).replace("[0.8,", "[true,"),
     "doc.channels[1].init[0]"),
    ("entangled_huge",
     _with(channels=[{"name": "tm", "role": "ctc"}, {"name": "a"}, {"name": "b"}], gates=[],
           entangled_inits=[{"channels": ["a", "b"],
                             "amplitudes": [1e200, 0, 0, 0, 0, 0, 1e200, 0]}]),
     "entangled init on ('a', 'b') has an amplitude above 1 in modulus"),
    ("init_norm", _with(channels=[{"name": "tm", "role": "ctc"},
                                  {"name": "sys", "init": [1, 0, 1, 0]}]),
     "doc.channels[1].init: channel 'sys' init has norm 1.414214 != 1"),
    ("entangled_norm",
     _with(channels=[{"name": "tm", "role": "ctc"}, {"name": "a"}, {"name": "b"}], gates=[],
           entangled_inits=[{"channels": ["a", "b"],
                             "amplitudes": [0.6, 0, 0, 0, 0, 0, 0.6, 0]}]),
     "doc.entangled_inits[0].amplitudes: entangled init on ('a', 'b') has norm"),
    ("floor_text", _with(model={"type": "classical", "k": 0.3, "floor": "false"}),
     "doc.model.floor"),
    ("model_type_list", _with(model={"type": ["noisy_bell"]}), "doc.model.type"),
    ("flip_unknown_channel", _with(outputs=["flip:nope"]), "'nope'"),
    ("alpha_text", ["scenario", "cnot_gun", "--param", "alpha=abc"],
     "arg.param.alpha"),
    ("alphas_number", ["scenario", "n_controlled_not", "--param", "alphas=3"],
     "arg.param.alphas"),
    ("model_arg_text", ["scenario", "simple_loop", "--model", "noisy_bell,lambda=x"],
     "arg.model.lambda"),
    ("model_arg_nodes_key",
     ["scenario", "simple_loop", "--model", "delta,nodes_theta=20000"],
     "arg.model.nodes_theta: unknown key (allowed: type)"),
    ("model_arg_k_range", ["scenario", "simple_loop", "--model", "classical,k=2"],
     "arg.model: flip rate k must lie in [0, 1]"),
    ("model_arg_lambda_range", ["scenario", "simple_loop", "--model", "noisy_bell,lambda=-1"],
     "arg.model: noise parameter lam must lie in [0, 1]"),
    ("model_arg_omega_negative",
     ["scenario", "simple_loop", "--model", "weight_matrix,omega=[[1,-1],[1,1]]"],
     "arg.model: weight matrix entries must be nonnegative"),
    ("model_arg_omega_shape",
     ["scenario", "two_ctc_cx", "--model", "weight_matrix,omega=[[3,1],[1,3]]"],
     "arg.model: weight matrix must be 4 x 4"),
    ("doc_model_k_range", _with(model={"type": "classical", "k": 2}),
     "doc.model: flip rate k must lie in [0, 1]"),
    ("doc_model_omega_shape", _with(model={"type": "weight_matrix", "omega": [[1]]}),
     "doc.model: weight matrix must be 2 x 2"),
    ("sweep_bad_json", "{not json", "line 1"),
    ("nested_document", "[" * 100_000 + "]" * 100_000, "document nests too deeply"),
    ("model_arg_nested", ["scenario", "cnot_gun", "--model",
                          "weight_matrix,omega=" + "[" * 100_000 + "]" * 100_000],
     "arg.model.omega: value nests too deeply"),
    # integers past Python's 4300-digit limit for int-to-str conversion
    ("gate_param_long_int", json.dumps(SIMPLE_LOOP_DOC).replace(
        '"gates": [', '"gates": [{"kind": "ROT", "targets": ["tm"], "params": {"theta": 1%s}}, '
        % ("0" * 5000)), "document holds an integer with too many digits"),
    ("model_arg_long_int", ["scenario", "simple_loop", "--model",
                            "noisy_bell,lambda=1" + "0" * 5000],
     "arg.model.lambda: integer has too many digits"),
    ("param_long_int", ["scenario", "parity_ec", "--param", "eps=1" + "0" * 5000],
     "arg.param.eps: integer has too many digits"),
]


@pytest.mark.parametrize("case,given,where", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_one_and_names_its_path(case, given, where, tmp_path,
                                                      capsys):
    if isinstance(given, list):
        argv = given
    else:
        path = tmp_path / "doc.json"
        path.write_text(given if isinstance(given, str) else json.dumps(given))
        argv = ["run", str(path)]
        if case.startswith("sweep"):
            argv = ["sweep", str(path), "--param", "lambda", "--from", "0",
                    "--to", "1", "--steps", "2"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    assert where in err


# document model -> the descriptor's report (model metadata of every report)
REGISTRY_CASES = [
    ({"type": "exact_bell"}, {"name": "exact_bell"}),
    ({"type": "noisy_bell", "lambda": 0.3}, {"name": "noisy_bell", "lam": 0.3}),
    ({"type": "classical", "k": 0.3}, {"name": "classical", "k": 0.3, "floor": False}),
    ({"type": "classical", "k": 0.3, "floor": True},
     {"name": "classical", "k": 0.3, "floor": True}),
    ({"type": "weight_matrix"}, {"name": "weight_matrix", "omega": "flat"}),
    ({"type": "weight_matrix", "omega": "quad"}, {"name": "weight_matrix", "omega": "quad"}),
    ({"type": "weight_matrix", "omega": [[2, 1], [1, 2]]},
     {"name": "weight_matrix", "omega": "custom"}),
    ({"type": "delta"}, {"name": "delta_quadrature"}),
]


def test_model_registry_round_trip(tmp_path, capsys):
    assert {spec["type"] for spec, _ in REGISTRY_CASES} == set(MODELS)
    for spec, described in REGISTRY_CASES:
        _, model, _ = parse_circuit_doc(json.dumps(_with(model=spec)))
        assert type(model) is MODELS[spec["type"]]
        assert model.describe() == described
        path = write_doc(tmp_path, _with(model=spec, outputs=["Z"]))
        assert main(["run", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["metadata"]["model"] == described


@pytest.mark.parametrize("spec,key,start,stop", [
    ({"type": "noisy_bell", "lambda": 0.1}, "lambda", 0.0, 1.0),
    ({"type": "classical", "k": 0.1}, "k", 0.1, 0.4),
])
def test_sweep_recognises_every_numeric_model_key(spec, key, start, stop, tmp_path,
                                                   capsys):
    path = write_doc(tmp_path, _with(model=spec, outputs=["Z"]))
    code = main(["sweep", path, "--param", key, "--from", str(start),
                 "--to", str(stop), "--steps", "2"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out[out.index("\n["):])
    assert [r["value"] for r in rows] == [start, stop]


@pytest.mark.parametrize("key", ["floor", "omega"])
def test_sweep_names_a_non_numeric_model_key(key, tmp_path, capsys):
    spec = {"type": "classical", "k": 0.2} if key == "floor" else {"type": "weight_matrix"}
    path = write_doc(tmp_path, _with(model=spec))
    code = main(["sweep", path, "--param", key, "--from", "0", "--to", "1",
                 "--steps", "2"])
    assert code == 1
    assert "doc.model.%s" % key in capsys.readouterr().err


def test_model_argument_reads_booleans_and_names(capsys):
    code = main(["scenario", "faulty_gun", "--model", "classical,k=0.3,floor=true",
                 "--outputs", "Z"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["model"]["floor"] is True
    code = main(["scenario", "faulty_gun", "--model", "weight_matrix,omega=quad",
                 "--outputs", "Z"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["metadata"]["model"]["omega"] == "quad"


def test_model_argument_takes_a_matrix(tmp_path, capsys):
    # the commas inside the matrix do not split the argument
    omega = [[3, 1], [1, 3]]
    in_doc = write_doc(tmp_path, _with(model={"type": "weight_matrix", "omega": omega}))
    assert main(["run", in_doc]) == 0
    expect = capsys.readouterr().out
    plain = write_doc(tmp_path, SIMPLE_LOOP_DOC, "plain.json")
    assert main(["run", plain, "--model", "weight_matrix,omega=[[3,1],[1,3]]"]) == 0
    assert capsys.readouterr().out == expect
    assert json.loads(expect)["metadata"]["model"]["omega"] == "custom"


FUZZ_DOC = {
    "channels": [
        {"name": "tm", "role": "ctc"},
        {"name": "sys", "role": "external", "init": [0.8, 0.0, 0.6, 0.0]},
        {"name": "b", "init": "+"},
    ],
    "gates": [
        {"kind": "CROT", "targets": ["sys", "tm"], "params": {"theta": 0.4}},
        {"kind": "PHASE", "targets": ["b"], "params": {"xi": 0.3}},
    ],
    "model": {"type": "classical", "k": 0.2, "floor": False},
    "outputs": ["Z", "N", "rho", "projections", "flip:sys,b"],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
        ["", "tm", "sys", "b", "x", "+", "delta", "flip:nope", "input_bias:tm"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "name", "lambda"]), inner, max_size=2),
    max_leaves=4,
)


def _json_paths(obj, path=()):
    yield path
    if isinstance(obj, list):
        obj = dict(enumerate(obj))
    if isinstance(obj, dict):
        for key, child in obj.items():
            yield from _json_paths(child, path + (key,))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_documents_exit_cleanly(data, tmp_path, capsys):
    doc = json.loads(json.dumps(FUZZ_DOC))
    *parents, last = data.draw(st.sampled_from(list(_json_paths(doc))[1:]))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = data.draw(JSON_VALUES)
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) in (0, 1, 2)
    capsys.readouterr()


# a 5-channel document with 25 leaves: one entangled group, 3 gates, the classical model
PROBE_DOC = {
    "channels": [{"name": "tm", "role": "ctc"}, {"name": "sys"}, {"name": "a"},
                 {"name": "b"}, {"name": "c"}],
    "entangled_inits": [{"channels": ["a", "b"],
                         "amplitudes": [0.6, 0, 0, 0, 0, 0, 0.8, 0]}],
    "gates": [{"kind": "CX", "targets": ["sys", "tm"]}, {"kind": "H", "targets": ["a"]},
              {"kind": "X", "targets": ["c"]}],
    "model": {"type": "classical", "k": 0.2},
}


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _doc_path(path):
    return "doc" + "".join("[%d]" % key if isinstance(key, int) else "." + key
                           for key in path)


PROBE_LEAVES = [path for path in _json_paths(PROBE_DOC)
                if not isinstance(_at(PROBE_DOC, path), (dict, list))]
PROBE_VALUES = [None, -1, 2, "zz", [], {}, math.inf, "", [1, 2, 3], True, "tm", "sys", "a"]


@pytest.mark.parametrize("leaf", PROBE_LEAVES, ids=_doc_path)
def test_every_bad_leaf_names_a_document_path(leaf, tmp_path, capsys):
    # each exit 1 names the leaf, an ancestor of it, or (for a channel name)
    # a place that still refers to the channel by its old name
    assert len(PROBE_LEAVES) == 25
    old = _at(PROBE_DOC, leaf)
    for value in PROBE_VALUES:
        doc = json.loads(json.dumps(PROBE_DOC))
        _at(doc, leaf[:-1])[leaf[-1]] = value
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        if code != 1:
            continue
        named = [p for p in _json_paths(doc) if _doc_path(p) + ":" in err]
        assert named, (value, err)
        assert any(p == leaf[:len(p)] or (leaf[-1] == "name" and _at(doc, p) == old)
                   for p in named), (value, err)


# execution ------------------------------------------------------------------


def test_run_simple_loop_report(tmp_path, capsys):
    path = write_doc(tmp_path, SIMPLE_LOOP_DOC)
    code, out = invoke("run", path, capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["Z"] == pytest.approx(0.25)
    assert report["N"] == pytest.approx(0.5)
    entries = report["rho"]["entries"]
    assert entries[0][0] == pytest.approx(0.64)
    assert entries[1][0] == pytest.approx(0.48)


def test_reports_are_byte_identical(tmp_path):
    path = write_doc(tmp_path, SIMPLE_LOOP_DOC)
    first = subprocess.run(
        [sys.executable, "-m", "ctcsim.cli", "run", path],
        capture_output=True, check=True,
    )
    second = subprocess.run(
        [sys.executable, "-m", "ctcsim.cli", "run", path],
        capture_output=True, check=True,
    )
    assert first.stdout == second.stdout


def test_paradox_exit_code_and_projection_report(capsys):
    code, out = invoke("scenario", "grandfather_not", capsys=capsys)
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "paradox"
    weights = {e["label"]: e["weight"] for e in report["projections"]["entries"]}
    assert weights["N"] == pytest.approx(1.0)
    assert weights["B"] == pytest.approx(0.0)


@pytest.mark.parametrize("name, model, code", [
    ("grandfather_not", "exact_bell", 2),
    ("grandfather_not", "noisy_bell,lambda=0", 2),
    ("grandfather_not", "classical,k=0", 2),
    ("grandfather_not", "classical,k=0,floor=true", 2),
    ("grandfather_not", "weight_matrix,omega=[[1,0],[0,1]]", 2),
    ("simple_loop", "noisy_bell,lambda=0.2", 0),
    ("simple_loop", "classical,k=0.25", 0),
    ("simple_loop", "weight_matrix,omega=delta", 0),
    ("simple_loop", "delta", 0),
])
def test_each_cli_run_evolves_the_circuit_once(name, model, code, monkeypatch, capsys):
    calls = []

    def counted(*args):
        calls.append(args)
        return evolve(*args)

    monkeypatch.setattr(engine, "evolve", counted)
    assert main(["scenario", name, "--model", model]) == code
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    if code == 2:
        assert [e["label"] for e in report["projections"]["entries"]] == ["B", "-", "N", "-N"]


@pytest.mark.parametrize("param, evolutions", [("lambda", 1), ("theta", 4)])
def test_a_sweep_evolves_once_per_circuit_it_builds(param, evolutions, tmp_path, monkeypatch,
                                                    capsys):
    # a model-key step runs the one parsed circuit; a gate-key step builds a new one
    calls = []

    def counted(*args):
        calls.append(args)
        return evolve(*args)

    monkeypatch.setattr(engine, "evolve", counted)
    path = write_doc(tmp_path, SWEEP_ORACLE_DOCS["lambda"])  # a noisy model and a CROT angle
    assert main(["sweep", path, "--param", param, "--from", "0", "--to", "0.6",
                 "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out[out.index("\n["):])) == 4
    assert len(calls) == evolutions


def _derived_paradox(*args, **kwargs):
    raise ParadoxError("every input_bias probe run is a paradox")


def test_derived_output_paradox_is_reported_by_run_and_by_each_sweep_step(
        tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CTC_SIM_TOLERANCE", raising=False)
    monkeypatch.setattr(analysis, "input_bias", _derived_paradox)
    path = write_doc(tmp_path, _with(model={"type": "noisy_bell", "lambda": 0.1},
                                     outputs=["Z", "input_bias:sys"]))
    assert main(["run", path]) == 2
    report = json.loads(capsys.readouterr().out)
    assert list(report) == ["error", "message", "projections", "metadata"]
    assert report["message"] == "every input_bias probe run is a paradox"
    assert report["projections"] is None
    assert report["metadata"]["tolerance"] == 1e-12
    assert main(["sweep", path, "--param", "lambda", "--from", "0", "--to", "1",
                 "--steps", "3"]) == 0
    out = capsys.readouterr().out
    table, steps = out[:out.index("\n[")], json.loads(out[out.index("\n["):])
    assert table.splitlines()[1:] == ["0.0\tparadox\tparadox", "0.5\tparadox\tparadox",
                                      "1.0\tparadox\tparadox"]
    assert [step["report"] for step in steps] == [report] * 3


@pytest.mark.parametrize("value", ["nan", "-1", "0"])
def test_bad_tolerance_env_is_a_clean_config_error(monkeypatch, capsys, value):
    monkeypatch.setenv("CTC_SIM_TOLERANCE", value)
    code = main(["scenario", "grandfather_not"])
    err = capsys.readouterr().err
    assert code == 1
    assert "CTC_SIM_TOLERANCE" in err


@pytest.mark.parametrize("argv, env, message", [
    (["run", "{doc}", "--model", "noisy_bell,lambda=2"], None,
     "error: arg.model: noise parameter lam must lie in [0, 1]"),
    (["sweep", "{doc}", "--param", "lambda", "--from", "0.5", "--to", "1.5", "--steps", "3"],
     None, "error: doc.model: noise parameter lam must lie in [0, 1]"),
    (["scenario", "simple_loop", "--model", "classical,k=0.2"], "abc",
     "error: bad CTC_SIM_TOLERANCE value 'abc'"),
    (["scenario", "simple_loop", "--outputs", "Z,input_bias:tm"], None,
     "error: channel 'tm' is looped and takes no init"),
], ids=["run_override", "sweep_step", "tolerance_env", "derived_output"])
def test_model_run_errors_name_the_model_and_only_them(argv, env, message, tmp_path,
                                                       monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("CTC_SIM_TOLERANCE", raising=False)
    else:
        monkeypatch.setenv("CTC_SIM_TOLERANCE", env)
    doc = write_doc(tmp_path, _with(model={"type": "noisy_bell", "lambda": 0.1}))
    code = main([a.replace("{doc}", doc) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_scenario_faulty_gun_survival(capsys):
    code, out = invoke(
        "scenario", "faulty_gun", "--param", "zeta=%r" % (math.pi / 3),
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["N"] == pytest.approx(0.5, abs=1e-12)


def test_scenario_delta_simple_loop(capsys):
    code, out = invoke(
        "scenario", "simple_loop", "--model", "delta", capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["Z"] == pytest.approx(math.pi**2, abs=1e-8)


def test_scenario_outputs_keep_a_two_channel_flip_whole(capsys):
    code, out = invoke("scenario", "stubborn_spin", "--outputs", "Z,flip:p1,p2", capsys=capsys)
    assert code == 0
    result = engine.run_exact_bell(build_scenario("stubborn_spin").circuit)
    assert json.loads(out)["derived"] == {"flip:p1,p2": analysis.flip_probability(result, "p1", "p2")}


@pytest.mark.parametrize("argv, message", [
    (["parity_ec", "--param", "eps=2"], "error: scenario parameter eps must lie in [0, 1]"),
    (["parity_ec", "--param", "eps=-1"], "error: scenario parameter eps must lie in [0, 1]"),
    (["simple_loop_2q", "--param", "g00=0", "--param", "g11=0"],
     "error: scenario amplitudes (g00, g01, g10, g11) must be a nonzero finite vector, "
     "got [0.0, 0.0, 0.0, 0.0]"),
    (["grandfather_perturbed", "--param", "eps=1e308"],
     "error: exact_bell acceptance rate Z = inf is not finite"),
    (["grandfather_perturbed", "--param", "eps=1e308", "--model", "noisy_bell,lambda=0.2"],
     "error: noisy_bell acceptance rate Z = inf is not finite"),
    (["grandfather_perturbed", "--param", "eps=1e308", "--model", "classical,k=0.2"],
     "error: classical acceptance rate Z = inf is not finite"),
    (["grandfather_perturbed", "--param", "eps=1e308", "--model", "weight_matrix"],
     "error: weight_matrix acceptance rate Z = inf is not finite"),
    (["grandfather_perturbed", "--param", "eps=1e308", "--model", "delta"],
     "error: delta_quadrature acceptance rate Z = nan is not finite"),
], ids=["eps_2", "eps_-1", "zero_amplitudes", "overflow_exact", "overflow_noisy",
        "overflow_classical", "overflow_weight_matrix", "overflow_delta"])
def test_bad_scenario_parameters_exit_one_with_a_typed_message(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        code = main(["scenario", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_scenario_unknown_name_exits_one(capsys):
    code, _ = invoke("scenario", "time_police", capsys=capsys)
    assert code == 1


def test_run_model_override(tmp_path, capsys):
    path = write_doc(tmp_path, SIMPLE_LOOP_DOC)
    code, out = invoke(
        "run", path, "--model", "noisy_bell,lambda=0.3", capsys=capsys
    )
    assert code == 0
    assert json.loads(out)["Z"] == pytest.approx(0.25)


def test_flip_and_bias_outputs(tmp_path, capsys):
    doc = {
        "channels": [
            {"name": "tm", "role": "ctc"},
            {"name": "gun", "role": "external", "init": [0.8, 0.0, 0.6, 0.0]},
        ],
        "gates": [{"kind": "CX", "targets": ["gun", "tm"]}],
        "model": {"type": "delta"},
        "outputs": ["Z", "flip:gun", "input_bias:gun"],
    }
    path = write_doc(tmp_path, doc)
    code, out = invoke("run", path, capsys=capsys)
    assert code == 0
    report = json.loads(out)
    derived = report["derived"]
    assert derived["input_bias:gun"]["entries"][0][0] == pytest.approx(0.65, abs=1e-6)
    assert 0.0 <= derived["flip:gun"] <= 1.0


# sweep ----------------------------------------------------------------------


def test_sweep_noise_matches_closed_form(tmp_path, capsys):
    doc = {
        "channels": [
            {"name": "t1", "role": "ctc"},
            {"name": "t2", "role": "ctc"},
            {"name": "probe", "role": "external", "init": [0.8, 0.0, 0.6, 0.0]},
        ],
        "gates": [
            {"kind": "CX", "targets": ["t1", "t2"]},
            {"kind": "CX", "targets": ["t1", "probe"]},
        ],
        "model": {"type": "noisy_bell", "lambda": 0.0},
        "outputs": ["Z"],
    }
    path = write_doc(tmp_path, doc)
    code, out = invoke(
        "sweep", path, "--param", "lambda", "--from", "0", "--to", "1",
        "--steps", "6", capsys=capsys,
    )
    assert code == 0
    table, _, _ = out.partition("\n[")
    rows = [line.split("\t") for line in table.splitlines()[1:]]
    assert len(rows) == 6
    for value, z, _ in rows:
        lam = float(value)
        assert float(z) == pytest.approx(0.25 * (1 - lam / 2) ** 2, abs=1e-12)


def test_sweep_gate_angle(tmp_path, capsys):
    doc = {
        "channels": [{"name": "tm", "role": "ctc"}],
        "gates": [{"kind": "ROT", "targets": ["tm"], "params": {"theta": 0.0}}],
        "outputs": ["Z", "N"],
    }
    path = write_doc(tmp_path, doc)
    code, out = invoke(
        "sweep", path, "--param", "theta", "--from", "0", "--to", "1.2",
        "--steps", "4", capsys=capsys,
    )
    assert code == 0
    table, _, _ = out.partition("\n[")
    for line in table.splitlines()[1:]:
        value, _, n = line.split("\t")
        assert float(n) == pytest.approx(abs(math.cos(float(value))), abs=1e-12)


SWEEP_ORACLE_DOCS = {
    "lambda": {
        "channels": [{"name": "t1", "role": "ctc"}, {"name": "t2", "role": "ctc"},
                     {"name": "probe", "init": [0.8, 0.0, 0.6, 0.0]}],
        "gates": [{"kind": "CX", "targets": ["t1", "t2"]},
                  {"kind": "CROT", "targets": ["probe", "t1"], "params": {"theta": 0.7}}],
        "model": {"type": "noisy_bell", "lambda": 0.0},
    },
    "theta": {  # two gates take the swept angle; the later steps are paradoxes
        "channels": [{"name": "tm", "role": "ctc"}, {"name": "a", "init": "+"}],
        "gates": [{"kind": "ROT", "targets": ["a"], "params": {"theta": 0.0}},
                  {"kind": "ROT", "targets": ["tm"], "params": {"theta": 0.0}},
                  {"kind": "CX", "targets": ["a", "tm"]}],
        "outputs": ["Z", "N", "rho", "projections", "flip:a"],
    },
}
SWEEP_ORACLE_VALUES = {"lambda": [0.0, 0.25, 0.5, 0.75, 1.0],
                       "theta": [0.0, math.pi / 4, math.pi / 2]}


@pytest.mark.parametrize("param", sorted(SWEEP_ORACLE_DOCS))
def test_each_sweep_step_reports_what_run_reports(param, tmp_path, capsys):
    doc, values = SWEEP_ORACLE_DOCS[param], SWEEP_ORACLE_VALUES[param]
    code = main(["sweep", write_doc(tmp_path, doc), "--param", param, "--from", "0",
                 "--to", repr(values[-1]), "--steps", str(len(values))])
    out = capsys.readouterr().out
    assert code == 0
    steps = json.loads(out[out.index("\n["):])
    assert [s["value"] for s in steps] == values
    for step, value in zip(steps, values):
        one = json.loads(json.dumps(doc))
        if param in one.get("model", {}):
            one["model"][param] = value
        for gate in one["gates"]:
            if param in gate.get("params", {}):
                gate["params"][param] = value
        code = main(["run", write_doc(tmp_path, one, "step.json")])
        assert code == (2 if step["report"].get("error") == "paradox" else 0)
        assert capsys.readouterr().out == json.dumps(step["report"], indent=2) + "\n"


def test_sweep_step_values_read_as_plain_numbers(tmp_path, capsys):
    path = write_doc(tmp_path, _with(model={"type": "classical", "k": 0.2}))
    code = main(["sweep", path, "--param", "floor", "--from", "0", "--to", "1",
                 "--steps", "2"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: doc.model.floor: expected true or false, got 0.0\n")


def test_sweep_zero_steps_rejected(tmp_path, capsys):
    path = write_doc(tmp_path, SIMPLE_LOOP_DOC)
    code, _ = invoke(
        "sweep", path, "--param", "lambda", "--from", "0", "--to", "1",
        "--steps", "0", capsys=capsys,
    )
    assert code == 1


@pytest.mark.parametrize("bounds, where", [
    (["--from", "inf", "--to", "1"], "arg.from: expected a finite number, got inf"),
    (["--from", "nan", "--to", "1"], "arg.from: expected a finite number, got nan"),
    (["--from=-1e308", "--to", "1e308"], "arg.to: sweep range -1e+308 to 1e+308"),
], ids=["inf", "nan", "width_overflows"])
def test_sweep_bounds_must_be_finite(bounds, where, tmp_path, capsys):
    doc = {"channels": [{"name": "tm", "role": "ctc"}],
           "gates": [{"kind": "ROT", "targets": ["tm"], "params": {"theta": 0.0}}]}
    path = write_doc(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        code = main(["sweep", path, "--param", "theta", *bounds, "--steps", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: " + where)


def test_sweep_unknown_parameter_rejected(tmp_path, capsys):
    path = write_doc(tmp_path, SIMPLE_LOOP_DOC)
    code, _ = invoke(
        "sweep", path, "--param", "gamma", "--from", "0", "--to", "1",
        "--steps", "3", capsys=capsys,
    )
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (["sweep", "doc.json", "--param", "theta", "--from", "abc", "--to", "1", "--steps", "3"],
     "argument --from: invalid float value: 'abc'"),
    (["scenario"], "the following arguments are required: name"),
    (["bogus"], "argument verb: invalid choice: 'bogus'"),
    ([], "the following arguments are required: verb"),
], ids=["sweep_from_abc", "scenario_without_name", "unknown_verb", "no_verb"])
def test_usage_errors_exit_one_with_one_error_line(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(flag, capsys):
    with pytest.raises(SystemExit) as info:
        main([flag])
    assert info.value.code == 0
    assert capsys.readouterr().out


# listing --------------------------------------------------------------------


def test_list_scenarios_output(capsys):
    code, out = invoke("list-scenarios", capsys=capsys)
    assert code == 0
    listing = json.loads(out)
    assert len(listing) >= 20
    assert any(item["name"] == "simple_loop" for item in listing)


def test_out_file_option(tmp_path):
    target = tmp_path / "report.json"
    code = main(["list-scenarios", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())


def test_input_bias_at_the_qubit_cap_exits_1_naming_its_reference(tmp_path):
    # five loops with their partners and four externals fill the 14-qubit cap: the run
    # fits, the input_bias probe's reference qubit would be the fifteenth
    doc = {"channels": [{"name": "l%d" % i, "role": "ctc"} for i in range(5)]
           + [{"name": "e%d" % i} for i in range(4)],
           "gates": [{"kind": "CX", "targets": ["e0", "l0"]}],
           "model": {"type": "noisy_bell", "lambda": 0.2}, "outputs": ["Z", "input_bias:e0"]}
    r = subprocess.run([sys.executable, "-m", "ctcsim.cli", "run", write_doc(tmp_path, doc)],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == ("error: reference qubit 'e0.ref' of channel 'e0' makes 15 qubits with "
                        "reference partners, cap is 14\n")
