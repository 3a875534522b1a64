import json
import math
import warnings
from pathlib import Path

import pytest

import ctcsim as cs

ALL = [info["name"] for info in cs.list_scenarios()]


def test_catalog_has_at_least_twenty_entries():
    assert len(ALL) >= 20
    assert len(set(ALL)) == len(ALL)


def test_listing_contains_summaries_and_params():
    for info in cs.list_scenarios():
        assert info["summary"]
        assert isinstance(info["params"], dict)


@pytest.mark.parametrize("name", ALL)
def test_every_expectation_passes_at_defaults(name):
    records = cs.verify_scenario(name)
    assert records
    failures = [r for r in records if not r["passed"]]
    assert not failures, failures


def test_unknown_scenario_rejected():
    with pytest.raises(cs.ScenarioNotFound):
        cs.build_scenario("time_police")
    with pytest.raises(cs.ScenarioNotFound):
        cs.verify_scenario("time_police")
    with pytest.raises(cs.ScenarioNotFound, match="unknown scenario"):
        cs.verify_scenario(["x"])  # unhashable names
    with pytest.raises(cs.ScenarioNotFound, match="unknown scenario"):
        cs.build_scenario({})


def test_unknown_parameter_rejected():
    with pytest.raises(cs.ScenarioNotFound):
        cs.build_scenario("faulty_gun", omega=3)


def test_parameter_override_applies():
    sc = cs.build_scenario("faulty_gun", zeta=math.pi / 3)
    r = cs.run_exact_bell(sc.circuit)
    assert r.n == pytest.approx(0.5, abs=1e-12)
    records = cs.verify_scenario("faulty_gun", {"zeta": 1.234})
    assert all(r["passed"] for r in records)


@pytest.mark.parametrize("name, kwargs, message", [
    ("faulty_gun", {"params": [1]}, "scenario parameters must be a mapping, got [1]"),
    ("faulty_gun", {"params": "zeta"}, "scenario parameters must be a mapping, got 'zeta'"),
    ("n_controlled_not", {"params": {"alphas": 3}},
     "scenario parameter alphas must be a list of real numbers, got 3"),
    ("n_controlled_not", {"params": {"alphas": ["x"]}},
     "scenario parameter alphas must be a list of real numbers, got ['x']"),
], ids=["params_list", "params_text", "alphas_int", "alphas_text"])
def test_bad_verify_arguments_are_config_errors(name, kwargs, message):
    with pytest.raises(cs.ConfigError) as info:
        cs.verify_scenario(name, **kwargs)
    assert str(info.value) == message


def test_build_scenario_returns_runnable_circuit():
    sc = cs.build_scenario("two_ctc_cx")
    assert sc.name == "two_ctc_cx"
    assert cs.run_exact_bell(sc.circuit).n == pytest.approx(0.5, abs=1e-12)


def test_grandfather_scenarios_are_paradoxes():
    for name in ("grandfather_not", "grandfather_pf", "grandfather_rot"):
        with pytest.raises(cs.ParadoxError):
            cs.run_exact_bell(cs.build_scenario(name).circuit)


def test_stubborn_spin_flip_suppression_grows_with_angle_product():
    """The intermediate flip probability follows the cotangent-product law."""
    t1, t2 = 0.6, 0.8
    r = cs.run_exact_bell(cs.build_scenario("stubborn_spin", theta1=t1, theta2=t2).circuit)
    p = cs.flip_probability(r, "p1", "p2")
    expect = 1.0 / (1.0 / (math.tan(t1) ** 2 * math.tan(t2) ** 2) + 1.0)
    assert p == pytest.approx(expect, abs=1e-12)


# one second point for every scenario parameter but simple_loop_2q's g01 (kept at 0):
# the manifest and the corpus run only at the defaults, so a circuit declaration that
# swaps or drops a parameter fails only here
SECOND_POINT = {
    "alpha": 0.6, "beta": 0.8,
    "a1": 0.28, "b1": 0.96, "a2": 0.8, "b2": 0.6, "a3": 0.96, "b3": 0.28,
    "g00": 0.8, "g10": 0.36, "g11": 0.48,
    "zeta": 1.1, "xi": 0.4, "eps": 0.03, "lam": 0.3, "alphas": (0.7, 0.8),
    "theta1": 0.9, "theta2": 0.5, "theta_s": 0.3, "theta_g1": 1.2, "theta_g2": 0.7,
}


def test_scenario_verification_with_nondefault_parameters():
    for name, params in [
        ("crot_gun", {"zeta": 1.1}),
        ("mutual_paradox", {"zeta": 0.3}),
        ("stubborn_spin", {"theta1": 1.2, "theta2": 0.4}),
        ("cnot_gun", {"alpha": 0.6, "beta": 0.8}),
        ("parity_ec", {"eps": 0.25}),
    ]:
        records = cs.verify_scenario(name, params)
        bad = [r for r in records if not r["passed"]]
        assert not bad, (name, bad)
    checked = 0
    for info in cs.list_scenarios():
        params = {k: SECOND_POINT[k] for k in info["params"] if k != "g01"}
        if params:
            checked += 1
            assert all(params[k] != info["params"][k] for k in params), info["name"]
            records = cs.verify_scenario(info["name"], params)
            bad = [r for r in records if not r["passed"]]
            assert records and not bad, (info["name"], params, bad)
    assert checked == 27


def test_catalog_records_match_the_manifest():
    """Every record, in order: (scenario, model, quantity, tol, scalar expected or null).

    `catalog_manifest.json` was written from the catalog as it stood before its
    builders and checks were folded together; a dropped, renamed, reordered or
    loosened record fails here even when it still passes.
    """
    manifest = json.loads((Path(__file__).parent / "catalog_manifest.json").read_text())
    got = [[name, r["model"], r["quantity"], r["tol"], r["expected"]]
           for name in ALL for r in cs.verify_scenario(name)]
    assert [row[:4] for row in got] == [row[:4] for row in manifest]
    for row, want in zip(got, manifest):
        if isinstance(want[4], float):
            assert row[4] == pytest.approx(want[4], rel=0, abs=1e-12), row
        else:
            assert row[4] == want[4], row


@pytest.mark.parametrize("name", [n for n in ALL if n.startswith("grandfather_")
                                  and n != "grandfather_perturbed"])
def test_each_grandfather_scenario_builds_two_pair_tables(name, monkeypatch):
    # the exact paradox and the noisy run each table the one evolution; the four
    # outcome weights are read off the noisy run's table
    calls, pair_table = [], cs.engine._pair_table

    def counted(*args):
        calls.append(args)
        return pair_table(*args)

    monkeypatch.setattr(cs.engine, "_pair_table", counted)
    monkeypatch.setattr(cs.scenarios, "_pair_table", counted)
    assert all(r["passed"] for r in cs.verify_scenario(name))
    assert len(calls) == 2


def test_an_overflowing_scenario_is_a_typed_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        with pytest.raises(cs.NumericsError, match="Z = inf is not finite"):
            cs.verify_scenario("grandfather_perturbed", {"eps": 1e308})


@pytest.mark.parametrize("name, params, message", [
    ("parity_ec", {"alpha": 0.0, "beta": 0.0},
     "carrier amplitudes of (alpha, beta) must be a nonzero finite vector"),
    ("twice_watched_pot_entangled", {"g00": 0.0, "g11": 0.0},
     "scenario amplitudes (g00, g11) must be a nonzero finite vector"),
    ("amnesia_entangled", {"alpha": 0.0, "beta": 0.0},
     "scenario amplitudes (alpha, beta) must be a nonzero finite vector"),
], ids=["parity_ec", "pot_entangled", "amnesia_entangled"])
def test_all_zero_scenario_amplitudes_are_config_errors(name, params, message):
    # eps out of range and simple_loop_2q's zero amplitudes are CLI cases in test_cli.py
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cs.ConfigError) as info:
            cs.build_scenario(name, **params)
    assert str(info.value).startswith(message)


def test_huge_scenario_amplitudes_normalize_exactly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = cs.build_scenario("simple_loop_2q", g00=0.6 * 2.0**1020, g11=0.8 * 2.0**1020)
    plain = cs.build_scenario("simple_loop_2q")
    assert list(huge.circuit.initial_external_state().amps) == list(
        plain.circuit.initial_external_state().amps)


def test_the_catalog_evolves_each_circuit_once(monkeypatch):
    # 30 looped scenario circuits, 1 loop-free circuit, 4 variant circuits and 1
    # input-bias probe: every model a check runs, custom boundary pairs and both
    # conditional modes included, shares its circuit's one evolution
    calls, evolve = [], cs.engine.evolve

    def counted(*args):
        calls.append(args)
        return evolve(*args)

    monkeypatch.setattr(cs.engine, "evolve", counted)
    records = [r for name in ALL for r in cs.verify_scenario(name)]
    assert len(records) == 122
    assert len(calls) <= 36
    calls.clear()
    cs.verify_scenario("simple_loop")  # exact, noisy, delta, weight matrix and classical
    assert len(calls) == 1
    calls.clear()
    cs.verify_scenario("twist_pair")  # two custom boundary pairs off the one Bell evolution
    assert len(calls) == 1
    calls.clear()
    cs.verify_scenario("cnot_gun")  # both input biases and the control state off one probe
    assert len(calls) == 2
    calls.clear()
    cs.verify_scenario("tourist_trap")  # the coupled and insulated runs off the m = 0 evolution
    assert len(calls) == 1
