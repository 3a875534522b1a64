import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctcsim.cli import main, parse_circuit_doc
from ctcsim.engine import MODELS, DeltaQuadrature, NoisyBell
from ctcsim.errors import ConfigError, ParseError, UnsupportedError

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


def test_parse_delta_with_two_loops_unsupported():
    doc = {
        "channels": [
            {"name": "t1", "role": "ctc"},
            {"name": "t2", "role": "ctc"},
        ],
        "gates": [{"kind": "CX", "targets": ["t1", "t2"]}],
        "model": {"type": "delta"},
    }
    with pytest.raises(UnsupportedError, match="weight_matrix"):
        parse_circuit_doc(json.dumps(doc))


def test_parse_model_variants():
    doc = dict(SIMPLE_LOOP_DOC)
    doc["model"] = {"type": "noisy_bell", "lambda": 0.25}
    _, model, _ = parse_circuit_doc(json.dumps(doc))
    assert isinstance(model, NoisyBell)
    assert model.lam == 0.25
    doc["model"] = {"type": "delta", "nodes_theta": 32, "nodes_xi": 16}
    _, model, _ = parse_circuit_doc(json.dumps(doc))
    assert isinstance(model, DeltaQuadrature)
    assert (model.n_theta, model.n_xi) == (32, 16)


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


# (case, document or its text or argv, text stderr must contain); each input
# used to escape main() as a Python exception or to run with a misread value.
# json.dumps writes math.nan and math.inf as the JSON extensions NaN, Infinity.
MALFORMED = [
    ("lambda_text", _with(model={"type": "noisy_bell", "lambda": "abc"}),
     "doc.model.lambda"),
    ("nodes_text", _with(model={"type": "delta", "nodes_theta": "x"}),
     "doc.model.nodes_theta"),
    ("nodes_infinite", _with(model={"type": "delta", "nodes_theta": math.inf}),
     "doc.model.nodes_theta"),
    ("omega_text_entry",
     _with(model={"type": "weight_matrix", "omega": [[1, "a"], [0, 1]]}),
     "doc.model.omega[0][1]"),
    ("omega_ragged", _with(model={"type": "weight_matrix", "omega": [[1, 0], [1]]}),
     "doc.model.omega"),
    ("gate_param_text",
     _with(gates=[{"kind": "ROT", "targets": ["tm"], "params": {"theta": "abc"}}]),
     "doc.gates[0].params.theta"),
    ("nested_targets", _with(gates=[{"kind": "X", "targets": [["tm"]]}]),
     "doc.gates[0].targets"),
    ("init_nan", json.dumps(SIMPLE_LOOP_DOC).replace("[0.8,", "[NaN,"),
     "doc.channels[1].init[0]"),
    ("init_bool", json.dumps(SIMPLE_LOOP_DOC).replace("[0.8,", "[true,"),
     "doc.channels[1].init[0]"),
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
    ("sweep_bad_json", "{not json", "line 1"),
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
    ({"type": "delta"}, {"name": "delta_quadrature", "n_theta": 64, "n_xi": 64}),
    ({"type": "delta", "nodes_theta": 16, "nodes_xi": 8},
     {"name": "delta_quadrature", "n_theta": 16, "n_xi": 8}),
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
    ({"type": "delta"}, "nodes_theta", 8, 16),
    ({"type": "delta"}, "nodes_xi", 8, 16),
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


@pytest.mark.parametrize("value", ["nan", "-1", "0"])
def test_bad_tolerance_env_is_a_clean_config_error(monkeypatch, capsys, value):
    monkeypatch.setenv("CTC_SIM_TOLERANCE", value)
    code = main(["scenario", "grandfather_not"])
    err = capsys.readouterr().err
    assert code == 1
    assert "CTC_SIM_TOLERANCE" in err


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
        "model": {"type": "delta", "nodes_theta": 32, "nodes_xi": 32},
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


def test_sweep_zero_steps_rejected(tmp_path, capsys):
    path = write_doc(tmp_path, SIMPLE_LOOP_DOC)
    code, _ = invoke(
        "sweep", path, "--param", "lambda", "--from", "0", "--to", "1",
        "--steps", "0", capsys=capsys,
    )
    assert code == 1


def test_sweep_unknown_parameter_rejected(tmp_path, capsys):
    path = write_doc(tmp_path, SIMPLE_LOOP_DOC)
    code, _ = invoke(
        "sweep", path, "--param", "gamma", "--from", "0", "--to", "1",
        "--steps", "3", capsys=capsys,
    )
    assert code == 1


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
