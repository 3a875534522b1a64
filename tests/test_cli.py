import json
import math
import subprocess
import sys

import pytest

from ctcsim.cli import main, parse_circuit_doc
from ctcsim.engine import DeltaQuadrature, NoisyBell
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
