"""Record the CLI report corpus: stdout, stderr and exit code of fixed ctcsim calls.

    PYTHONPATH=src python tests/make_report_corpus.py

writes `report_corpus.json.gz` next to this file.  `test_report_corpus.py`
replays every case in-process through `ctcsim.cli.main` and compares the
outputs.  Regenerate only for a change that is meant to alter a report, and
record which entries moved.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from ctcsim.cli import main
from ctcsim.scenarios import build_scenario, list_scenarios

CORPUS = Path(__file__).with_name("report_corpus.json.gz")

MODELS = (
    "exact_bell",
    "noisy_bell,lambda=0.2",
    "noisy_bell,lambda=1",
    "classical,k=0.25",
    "classical,k=0.25,floor=true",
    "classical,k=0.5",
    "weight_matrix,omega=flat",
    "weight_matrix,omega=quad",
    "weight_matrix,omega=delta",
    "weight_matrix,omega=[[3,1],[1,3]]",
    "delta",
)
# the settings under which every (scenario, unentangled external channel) pair
# reports its input bias
BIAS_MODELS = (
    "exact_bell",
    "noisy_bell,lambda=0.2",
    "classical,k=0.25",
    "classical,k=0.25,floor=true",
    "weight_matrix,omega=flat",
    "weight_matrix,omega=quad",
    "weight_matrix,omega=delta",
    "delta",
)

# every document stays at 6 qubits or fewer, reference qubits included
NOISE_DOC = {
    "channels": [
        {"name": "t1", "role": "ctc"},
        {"name": "t2", "role": "ctc"},
        {"name": "probe", "init": [0.8, 0.0, 0.6, 0.0]},
    ],
    "gates": [
        {"kind": "CX", "targets": ["t1", "t2"]},
        {"kind": "CROT", "targets": ["probe", "t1"], "params": {"theta": 0.7}},
    ],
    "model": {"type": "noisy_bell", "lambda": 0.0},
}
# theta = pi/2 is a paradox: the loop sees ROT(pi/2) or X ROT(pi/2), both traceless
ANGLE_DOC = {
    "channels": [
        {"name": "tm", "role": "ctc"},
        {"name": "a", "init": "+"},
        {"name": "b", "init": [0.6, 0.0, 0.0, 0.8]},
    ],
    "gates": [
        {"kind": "ROT", "targets": ["tm"], "params": {"theta": 0.0}},
        {"kind": "CX", "targets": ["a", "tm"]},
        {"kind": "CROT", "targets": ["a", "b"], "params": {"theta": 0.0}},
    ],
    "outputs": ["Z", "N", "rho", "projections", "flip:a,b"],
}
FLOOR_DOC = {
    "channels": [{"name": "tm", "role": "ctc"}, {"name": "sys", "init": "1"}],
    "gates": [{"kind": "CX", "targets": ["sys", "tm"]}],
    "model": {"type": "classical", "k": 0.2},
}
# the entangled group is declared out of channel order; the paradox rows keep
# the declaration order a, b, c
PARADOX_DOC = {
    "channels": [
        {"name": "tm", "role": "ctc"},
        {"name": "a"},
        {"name": "b", "init": [0.6, 0, 0.8, 0]},
        {"name": "c"},
    ],
    "entangled_inits": [{"channels": ["c", "a"],
                         "amplitudes": [0.6, 0, 0.8, 0, 0, 0, 0, 0]}],
    "gates": [{"kind": "X", "targets": ["tm"]}],
}
RUN_DOC = {
    "channels": [
        {"name": "tm", "role": "ctc"},
        {"name": "sys", "init": [0.8, 0.0, 0.6, 0.0]},
    ],
    "gates": [{"kind": "SWAP", "targets": ["tm", "sys"]},
              {"kind": "PHASE", "targets": ["sys"], "params": {"xi": 0.3}}],
    "model": {"type": "classical", "k": 0.1, "floor": True},
    "outputs": ["Z", "N", "rho", "projections", "flip:sys"],
}


def cases():
    """(id, argv, document or None) of every case; argv names files as {doc} and {out}."""
    out = []
    for name in (sc["name"] for sc in list_scenarios()):
        for model in MODELS:
            out.append(("scenario %s %s" % (name, model),
                        ["scenario", name, "--model", model,
                         "--outputs", "Z,N,rho,projections"], None))
    sweep = ["sweep", "{doc}", "--param"]
    out += [
        ("sweep lambda", sweep + ["lambda", "--from", "0", "--to", "1", "--steps", "12"],
         NOISE_DOC),
        ("sweep theta",
         sweep + ["theta", "--from", "0", "--to", repr(math.pi), "--steps", "5"], ANGLE_DOC),
        ("sweep floor", sweep + ["floor", "--from", "0", "--to", "1", "--steps", "2"],
         FLOOR_DOC),
        ("run paradox", ["run", "{doc}"], PARADOX_DOC),
        ("run paradox classical", ["run", "{doc}", "--model", "classical,k=0"], PARADOX_DOC),
        ("run --out", ["run", "{doc}", "--out", "{out}"], RUN_DOC),
        ("scenario cnot_gun bias", ["scenario", "cnot_gun", "--outputs",
                                    "Z,input_bias:gun,flip:gun"], None),
        ("list-scenarios", ["list-scenarios"], None),
    ]
    # paradoxes of the history models, whose tables come from their own evolution
    for model in ("classical,k=0", "weight_matrix,omega=[[1,0],[0,1]]"):
        out.append(("scenario grandfather_not %s paradox" % model,
                    ["scenario", "grandfather_not", "--model", model], None))
    out += bias_cases()
    return out


def bias_cases():
    """input_bias of every unentangled external channel of every scenario the model runs.

    Skipped: circuits without a loop, and the delta model on two loops; both
    fail in the model run before any bias is taken.
    """
    out = []
    for name in (sc["name"] for sc in list_scenarios()):
        circuit = build_scenario(name).circuit
        grouped = {label for labels, _ in circuit.entangled for label in labels}
        for channel in (c for c in circuit.external_labels if c not in grouped):
            for model in BIAS_MODELS:
                n_loops = len(circuit.loop_labels)
                if n_loops and not (model == "delta" and n_loops > 1):
                    out.append(("scenario %s %s input_bias:%s" % (name, model, channel),
                                ["scenario", name, "--model", model,
                                 "--outputs", "Z,input_bias:" + channel], None))
    bias = "Z,input_bias:"
    return out + [
        ("input_bias looped channel", ["scenario", "cnot_gun", "--outputs", bias + "tm"],
         None),
        ("input_bias entangled channel",
         ["scenario", "amnesia_entangled", "--outputs", bias + "s1"], None),
        ("input_bias paradox", ["scenario", "cnot_gun", "--param", "alpha=0", "--param",
                                "beta=1", "--outputs", bias + "gun"], None),
    ]


def run_case(argv, doc):
    """{'code', 'stdout', 'stderr'} of one in-process call; --out files count as stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, out_path = os.path.join(tmp, "doc.json"), os.path.join(tmp, "out.json")
        if doc is not None:
            with open(doc_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        args = [a.replace("{doc}", doc_path).replace("{out}", out_path) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        text = stdout.getvalue()
        if "{out}" in argv:
            with open(out_path, encoding="utf-8") as fh:
                text += fh.read()
    return {"code": code, "stdout": text, "stderr": stderr.getvalue()}


def generate():
    os.environ.pop("CTC_SIM_TOLERANCE", None)
    return [{"id": case_id, "argv": argv, "doc": doc, **run_case(argv, doc)}
            for case_id, argv, doc in cases()]


if __name__ == "__main__":
    corpus = generate()
    # mtime=0 keeps the file byte-identical when no report moved
    with gzip.GzipFile(CORPUS, "wb", mtime=0) as fh:
        fh.write(json.dumps(corpus, indent=1).encode("utf-8"))
    print("%d cases -> %s" % (len(corpus), CORPUS), file=sys.stderr)
