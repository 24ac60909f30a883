"""Scenario reports: every claim checked, traces populated, diagnoses raised."""

import math

import pytest

from threebox import exact, montecarlo, quantum, scenarios
from threebox.decks import three_box_deck
from threebox.errors import ZeroAcceptanceError
from threebox.scenarios import (
    SCENARIOS,
    aad_curious,
    counterfactual_trace,
    interference_demo,
    run_scenario,
    three_box_card,
    three_box_quantum,
)

TRIALS = 4000  # plenty for 5-sigma checks at these probabilities


def claims_by_description(report):
    return {claim.description: claim for claim in report.claims}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_passes(name):
    report = run_scenario(name, trials=TRIALS, seed=11)
    failures = [claim.description for claim in report.claims if not claim.passed]
    assert report.passed, failures


def test_unknown_scenario_name():
    with pytest.raises(KeyError):
        run_scenario("three-box")


class TestThreeBoxCard:
    def test_both_partial_checks_certain(self):
        report = three_box_card(trials=0)
        claims = claims_by_description(report)
        for label in ("S", "D"):
            claim = claims[f"given the final K, the {label}-check is certain to have reported {label}"]
            assert claim.expected == "1/1"
            assert claim.computed == {"enumeration": "1/1", "retrodiction formula": "1/1"}
            assert claim.mode == "exact"

    def test_monte_carlo_claims_present_only_with_trials(self):
        without = three_box_card(trials=0)
        with_mc = three_box_card(trials=TRIALS, seed=9)
        assert not any("Monte Carlo" in c.description for c in without.claims)
        assert any("Monte Carlo" in c.description for c in with_mc.claims)
        assert with_mc.passed

    def test_every_claim_carries_provenance_and_mode(self):
        report = three_box_card(trials=TRIALS, seed=3)
        for claim in report.claims:
            assert claim.source
            assert claim.mode in ("exact", "abs 1e-9", "5 standard errors")


class TestInterference:
    def test_mixture_partition_claim(self):
        report = interference_demo(trials=0)
        claim = next(c for c in report.claims if "mixture combines" in c.description)
        assert claim.passed
        assert "(4)KH" in claim.computed["mixture combination"]

    def test_futures_differ_claim(self):
        report = interference_demo(trials=0)
        claim = next(c for c in report.claims if "different futures" in c.description)
        assert claim.computed == {"~S then K": "0/1", "H∨D then K": "1/6"}
        assert claim.passed

    def test_no_suit_certain_after_complete_observation(self):
        report = interference_demo(trials=0)
        claim = next(c for c in report.claims if "destroys the certainty" in c.description)
        assert claim.passed
        assert claim.computed["retrodictions"] == "1/2, 0/1, 1/2"


class TestThreeBoxQuantum:
    def test_partial_and_complete_values(self):
        report = three_box_quantum()
        claims = claims_by_description(report)
        assert claims["opening box 1 alone finds the particle with certainty"].passed
        assert claims["opening box 3 alone scores 1/5"].expected == "0.2"
        for box in (1, 2, 3):
            assert claims[f"a complete observation retrodicts box {box} to 1/3"].passed


class TestRotatedBasisScenario:
    def test_default_amplitudes(self):
        report = aad_curious()
        claims = claims_by_description(report)
        complete = claims["complete observation in the rotated basis gives 1/(1+2|αβ|²)"]
        assert complete.expected == "0.666666666667"
        assert any("strictly below 1" in c.description for c in report.claims)
        assert report.passed

    def test_degenerate_amplitudes_skip_the_inequality(self):
        report = aad_curious(1.0, 0.0)
        assert report.passed
        assert not any("strictly below 1" in c.description for c in report.claims)


class TestCounterfactual:
    def test_trace_structure(self):
        report = counterfactual_trace(trials=0)
        assert report.passed
        assert len(report.trace) == 3
        prepared, after_face, after_suit = report.trace
        assert prepared["memory"] == "Face"
        assert prepared["values"] == {"Face": "K", "Suit": None}
        assert after_face["values"] == {"Face": "K", "Suit": None}
        assert after_face["outcome"] == "K"
        assert after_suit["memory"] == "Suit"
        assert after_suit["values"] == {"Face": None, "Suit": "H"}

    def test_acceptance_and_retrodiction_claims(self):
        report = counterfactual_trace(trials=TRIALS, seed=29)
        claims = claims_by_description(report)
        assert claims["the Suit=H filter accepts with chance 2/3"].computed["enumeration"] == "2/3"
        certain = claims["an intermediate complete Face observation retrodicts K with certainty"]
        assert certain.expected == "1/1" and certain.passed

    def test_three_box_deck_is_diagnosed(self):
        with pytest.raises(ZeroAcceptanceError) as excinfo:
            counterfactual_trace(deck=three_box_deck(), trials=0)
        message = str(excinfo.value)
        assert "no hearts" in message and "(2)KH" in message


def test_report_serialization_shape():
    report = counterfactual_trace(trials=0)
    payload = report.to_dict()
    assert payload["scenario"] == "counterfactual"
    assert payload["passed"] is True
    for claim, row in zip(report.claims, payload["claims"], strict=True):
        assert list(row) == ["description", "expected", "source", "mode", "computed", "passed"]
        assert row == claim._asdict()
        assert row["computed"] is not claim.computed
    assert isinstance(payload["trace"], list)


def test_monte_carlo_tolerances_are_five_sigma():
    report = three_box_card(trials=TRIALS, seed=5)
    claim = next(c for c in report.claims if c.mode == "5 standard errors")
    expected, tolerance = claim.expected.split(" ± ")
    p = float(expected)
    assert math.isclose(float(tolerance), 5 * math.sqrt(p * (1 - p) / TRIALS), rel_tol=1e-6)


# Monte Carlo runs per scenario at trials > 0, one per sampled experiment.
MC_RUNS = {"three-box-card": 2, "interference": 1, "counterfactual": 1, "three-box-quantum": 0, "aad": 0}


@pytest.mark.parametrize("name", ["three-box-card", "interference", "counterfactual"])
def test_no_claim_has_two_routes_from_one_engine(monkeypatch, name):
    """A question's type names its engine, so two routes of one type would compare a value with itself."""
    specs = []
    evaluate = scenarios._evaluate

    def capture(claim_specs, *args):
        specs.extend(claim_specs)
        return evaluate(claim_specs, *args)

    monkeypatch.setattr(scenarios, "_evaluate", capture)
    run_scenario(name, trials=0)
    exact = [spec for spec in specs if isinstance(spec, scenarios.Exact)]
    assert exact
    for spec in exact:
        engines = [type(question) for question in spec.routes.values()]
        assert len(set(engines)) == len(engines), spec.description


@pytest.mark.parametrize("trials", [0, 200])
@pytest.mark.parametrize("name", sorted(MC_RUNS))
def test_each_experiment_is_simulated_once(monkeypatch, name, trials):
    """A scenario's sampled experiments run in one shared call, each walked once per chunk."""
    calls, walked = [], []
    simulate_runs, walk = montecarlo.simulate_runs, montecarlo._walk

    def counted(experiments, *args):
        calls.append(experiments)
        return simulate_runs(experiments, *args)

    monkeypatch.setattr(montecarlo, "simulate_runs", counted)
    monkeypatch.setattr(montecarlo, "_walk", lambda tables, *args: walked.append(len(tables)) or walk(tables, *args))
    monkeypatch.setattr(montecarlo, "simulate", lambda config: pytest.fail("an experiment ran on its own"))
    run_scenario(name, trials=trials, seed=3)
    runs = MC_RUNS[name] if trials else 0
    assert len(calls) == (1 if runs else 0)
    experiments = [experiment for call in calls for experiment in call]
    assert len(experiments) == len(set(experiments)) == runs
    assert walked == ([runs] if runs else [])  # 200 trials are one chunk


@pytest.mark.parametrize("name", ["three-box-card", "interference", "counterfactual"])
def test_each_forward_pass_question_is_answered_once(monkeypatch, name):
    """A sampled claim reuses the answer of the identical question in its exact twin.

    ``exact.probability`` is counted as well, so a helper such as
    ``acceptance_probability`` cannot ask a question again; the passes that a
    ``conditional_probability`` makes inside itself are not counted.
    """
    asked, depth = [], [0]

    def counted(engine):
        def ask(*args):
            if not depth[0]:
                asked.append(args)
            depth[0] += 1
            try:
                return engine(*args)
            finally:
                depth[0] -= 1

        return ask

    for module, query in ((scenarios, "probability"), (scenarios, "conditional_probability"), (exact, "probability")):
        monkeypatch.setattr(module, query, counted(getattr(module, query)))
    run_scenario(name, trials=200, seed=3)
    assert asked
    assert len(set(asked)) == len(asked)


def test_the_quantum_condition_is_checked_once(monkeypatch):
    calls = []
    check = quantum.threebox_condition_check
    monkeypatch.setattr(quantum, "threebox_condition_check", lambda *args: calls.append(args) or check(*args))
    assert three_box_quantum().passed
    assert len(calls) == 1


def test_equal_formula_inputs_are_answered_once(monkeypatch):
    """The S- and D-checks build equal ``RetrodictionInputs``, so one formula call answers both."""
    calls = []
    partial = scenarios.retrodict_partial
    monkeypatch.setattr(scenarios, "retrodict_partial", lambda inputs: calls.append(inputs) or partial(inputs))
    assert three_box_card(trials=0).passed
    assert len(calls) == 1
