"""Tests of the benchmark itself (kept out of the package's test suite).

    python3 -m pytest bench/check_bench.py

The checks must catch a wrong answer: each workload is run on tiny inputs
against a deliberately wrong reference and must report failures.  Every
workload must also run end to end on tiny inputs, both untraced and traced,
and report exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

import catalog_scan  # noqa: E402
import cli_batch  # noqa: E402
import loop_grid  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class WrongExact(loop_grid.Reference):
    def exact(self, circuit):
        n, psi = super().exact(circuit)
        return 1.01 * n, 1.01 * psi


class WrongBias(catalog_scan.Reference):
    cnot_gun_delta_bias = catalog_scan.np.diag([0.6, 0.4])


class WrongZ(cli_batch.Reference):
    def z(self, cs, circuit, model):
        status, z = super().z(cs, circuit, model)
        return status, None if z is None else 1.01 * z


def smoke_args(workload, trace=0):
    return argparse.Namespace(workload=workload, seed=7, seconds=0, trace=trace, smoke=True)


@pytest.mark.parametrize("workload, wrong", [
    ("loop_grid", WrongExact()),
    ("catalog_scan", WrongBias()),
    ("cli_batch", WrongZ()),
])
def test_wrong_reference_raises_failed_frac(workload, wrong):
    good = run.run_workload(smoke_args(workload))
    assert good["failed"] == 0, good["failures"]
    assert good["metrics"]["ok_frac"]["value"] == 1.0
    bad = run.run_workload(smoke_args(workload), ref=wrong)
    assert bad["failed_frac"] > 0
    assert bad["metrics"]["ok_frac"]["value"] < 1.0
    assert not bad["correct"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--smoke"]
    r = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    last = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in last["metrics"].items()}


def test_end_to_end_units_match_declaration():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.harness.END_TO_END_UNITS


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "loop_grid", "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    r = subprocess.run(cmd, cwd=str(tmp_path), capture_output=True, text=True, timeout=170)
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout
