"""Acceptance suite: the headline claims, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exact claims use rational equality (tolerance zero); quantum claims
use an absolute tolerance of 1e-9; Monte Carlo frequencies must fall within
five binomial standard errors of the exact value at 100,000 trials.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from threebox.deck import Manifestation, Outcome, prepare, step_distribution
from threebox.decks import three_box_deck, two_value_deck
from threebox.errors import ZeroAcceptanceError, ZeroDenominatorError
from threebox.exact import (
    Experiment,
    MixtureState,
    OutcomeAt,
    conditional_probability,
    leaf_distribution,
    mixture_combine,
    retrodict_exact,
    single_step_probability,
)
from haar import haar_random_basis, haar_random_state
from threebox.formulas import RetrodictionInputs, retrodict_complete, retrodict_partial
from threebox.montecarlo import RunConfig, simulate
from threebox.quantum import (
    abl_complete,
    abl_partial,
    three_box_pair,
    threebox_condition_check,
)
from threebox.scenarios import (
    counterfactual_trace,
    interference_demo,
    three_box_card,
    three_box_quantum,
)

TOL = 1e-9
F = Fraction


def report(criterion: str):
    print(f"acceptance {criterion}: PASS")


def out(deck, variable, label, negated=False):
    return Outcome(deck.value(variable, label), negated=negated)


def test_criterion_01_partial_checks_are_certain():
    """Pr(S)=1/4 and Pr(~S)=3/4; both postselected partial checks retrodict to 1."""
    deck = three_box_deck()
    prep = out(deck, "Face", "Q")
    final = out(deck, "Face", "K")
    spade = Experiment(deck, prep, (Manifestation("Suit", "S"),))
    assert leaf_distribution(spade) == {
        (out(deck, "Suit", "S"),): F(1, 4),
        (out(deck, "Suit", "S", negated=True),): F(3, 4),
    }
    for label in ("S", "D"):
        experiment = Experiment(
            deck, prep, (Manifestation("Suit", label), Manifestation("Face")), (2, final)
        )
        assert retrodict_exact(experiment, 1, out(deck, "Suit", label)) == F(1)
    report("01 three-box card: partial checks certain")


def test_criterion_02_complete_observation_destroys_certainty():
    """Suit distribution {1/4, 1/2, 1/4}; retrodictions {1/2, 0, 1/2}; none is 1."""
    deck = three_box_deck()
    experiment = Experiment(
        deck,
        out(deck, "Face", "Q"),
        (Manifestation("Suit"), Manifestation("Face")),
        (2, out(deck, "Face", "K")),
    )
    assert {
        o.value.label: p
        for o, p in step_distribution(
            prepare(deck, out(deck, "Face", "Q")), Manifestation("Suit")
        ).items()
    } == {"S": F(1, 4), "H": F(1, 2), "D": F(1, 4)}
    retrodictions = {
        label: retrodict_exact(experiment, 1, out(deck, "Suit", label)) for label in "SHD"
    }
    assert retrodictions == {"S": F(1, 2), "H": F(0), "D": F(1, 2)}
    assert all(value < 1 for value in retrodictions.values())
    report("02 complete observation destroys certainty")


def test_criterion_03_classical_interference():
    """~S forbids a later K, yet the matching H∨D mixture allows it (1/6)."""
    deck = three_box_deck()
    prep = out(deck, "Face", "Q")
    final = out(deck, "Face", "K")
    partial = Experiment(
        deck, prep, (Manifestation("Suit", "S"), Manifestation("Face")), (2, final)
    )
    after_negated = conditional_probability(
        partial, OutcomeAt(2, final), OutcomeAt(1, out(deck, "Suit", "S", negated=True))
    )
    assert after_negated == F(0)

    mixture = mixture_combine(
        MixtureState(
            (
                (prepare(deck, out(deck, "Suit", "H")), F(2, 3)),
                (prepare(deck, out(deck, "Suit", "D")), F(1, 3)),
            )
        )
    )
    assert str(mixture) == "[JD, (4)KH, QD | (2)JD, (3)JS, (2)KH, (2)QD, (3)QS]"

    after_mixture = step_distribution(mixture, Manifestation("Face"))[final]
    assert after_mixture == F(1, 6)
    assert after_negated != after_mixture
    report("03 classical interference: 0 vs 1/6")


def test_criterion_04_closed_forms_match_enumeration_everywhere():
    """Every (preparation, single manifestation) pair on both decks agrees."""
    comparisons = 0
    for deck in (three_box_deck(), two_value_deck()):
        targets = [
            out(deck, variable, label, negated)
            for variable in (deck.face.name, deck.suit.name)
            for label in deck.variable(variable).labels
            for negated in (False, True)
        ]
        manifestations = [
            Manifestation(variable, partial)
            for variable in (deck.face.name, deck.suit.name)
            for partial in (None, *deck.variable(variable).labels)
        ]
        for target in targets:
            for manifestation in manifestations:
                enumerated = leaf_distribution(Experiment(deck, target, (manifestation,)))
                for (result,), exact in enumerated.items():
                    assert single_step_probability(deck, target, result) == exact
                    comparisons += 1
    assert comparisons >= 100
    report(f"04 closed forms equal enumeration ({comparisons} comparisons)")


def test_criterion_05_stability():
    """A mismatched partial check reports the negation surely and disturbs nothing."""
    deck = three_box_deck()
    for variable in (deck.face.name, deck.suit.name):
        labels = deck.variable(variable).labels
        for prepared in labels:
            for checked in labels:
                if prepared == checked:
                    continue
                state = prepare(deck, out(deck, variable, prepared))
                negation = out(deck, variable, checked, negated=True)
                assert step_distribution(state, Manifestation(variable, checked))[negation] == 1
                from threebox.deck import observe

                for index in range(sum(state.these)):
                    result, after = observe(
                        state, Manifestation(variable, checked), lambda n, i=index: i
                    )
                    assert result == negation
                    assert after is state
                assert step_distribution(state, Manifestation(variable))[
                    out(deck, variable, prepared)
                ] == 1
    report("05 stability of mismatched partial checks")


def test_criterion_06_quantum_three_box():
    """Partial: 1, 1, 0.2; complete: 1/3 each; the product condition holds."""
    pre, post, basis = three_box_pair()
    assert abs(abl_partial(pre, basis, 0, post) - 1) <= TOL
    assert abs(abl_partial(pre, basis, 1, post) - 1) <= TOL
    assert abs(abl_partial(pre, basis, 2, post) - 0.2) <= TOL
    for j in range(3):
        assert abs(abl_complete(pre, basis, j, post) - 1 / 3) <= TOL
    assert threebox_condition_check(pre, post, basis)
    report("06 quantum three-box retrodictions")


def test_criterion_07_shared_eigenstate_partial_vs_complete():
    """Partial checks agree across bases; the complete rotated check drops to 2/3."""
    from threebox.quantum import aad_analysis, shared_eigenstate_pair

    pre, post, x_basis = shared_eigenstate_pair()
    alpha = beta = 1 / math.sqrt(2)
    analysis = aad_analysis(alpha, beta)
    assert abs(abl_partial(pre, x_basis, 1, post) - 1) <= TOL
    assert abs(analysis.partial_result - 1) <= TOL
    assert abs(abl_complete(pre, x_basis, 1, post) - 1) <= TOL

    # Independent oracle: build the rotated basis explicitly and evaluate the
    # complete retrodiction directly from raw amplitude arithmetic.
    a = np.array([1, 1, 0]) / math.sqrt(2)
    b = np.array([0, 1, 1]) / math.sqrt(2)
    rotated = [
        np.array([alpha, 0, beta]),
        np.array([0, 1, 0]),
        np.array([np.conj(beta), 0, -np.conj(alpha)]),
    ]
    terms = [abs(np.vdot(b, q)) ** 2 * abs(np.vdot(q, a)) ** 2 for q in rotated]
    oracle = terms[1] / sum(terms)
    assert abs(oracle - 2 / 3) <= TOL
    assert abs(analysis.complete_result - oracle) <= TOL
    assert abs(analysis.complete_result - 2 / 3) <= TOL

    rng = np.random.default_rng(71)
    found = 0
    while found < 100:
        pair = haar_random_state(2, rng).amplitudes
        alpha, beta = complex(pair[0]), complex(pair[1])
        if abs(alpha * beta) <= 0.05:
            continue
        assert aad_analysis(alpha, beta).complete_result < 1
        found += 1
    report("07 shared-eigenstate partial vs complete (2/3 at equal amplitudes)")


def test_criterion_08_monte_carlo_agreement_and_reproducibility():
    """Every scenario claim passes at 100,000 trials; runs are bit-identical."""
    for build in (three_box_card, interference_demo, counterfactual_trace):
        scenario = build(trials=100_000, seed=42)
        failures = [claim.description for claim in scenario.claims if not claim.passed]
        assert scenario.passed, failures
        assert any(claim.mode == "5 standard errors" for claim in scenario.claims)
    assert three_box_quantum().passed

    deck = three_box_deck()
    experiment = Experiment(
        deck,
        out(deck, "Face", "Q"),
        (Manifestation("Suit", "S"), Manifestation("Face")),
        (2, out(deck, "Face", "K")),
    )
    config = RunConfig(experiment, 100_000, 42)
    assert simulate(config).to_dict() == simulate(config).to_dict()
    first = counterfactual_trace(trials=20_000, seed=9).to_dict()
    second = counterfactual_trace(trials=20_000, seed=9).to_dict()
    assert first == second
    report("08 Monte Carlo within 5 standard errors, bitwise reproducible")


def test_criterion_09_formula_properties():
    """1000 random rational inputs behave; Born-rule substitution matches."""
    rng = random.Random(90)
    checked = 0
    while checked < 1000:
        size = rng.randint(2, 4)
        likelihoods = [F(rng.randint(0, 8), 8) for _ in range(size)]
        weights = [F(rng.randint(1, 8), 8) for _ in range(size)]
        total = sum(weights)
        priors = [w / total for w in weights]
        try:
            values = [retrodict_complete(likelihoods, priors, j) for j in range(size)]
        except ZeroDenominatorError:
            continue
        assert sum(values) == 1
        assert sum(1 for v in values if v == 1) <= 1
        checked += 1

    generator = np.random.default_rng(91)
    substituted = 0
    while substituted < 100:
        dimension = int(generator.integers(2, 5))
        basis = haar_random_basis(dimension, generator)
        pre = haar_random_state(dimension, generator)
        post = haar_random_state(dimension, generator)
        j = int(generator.integers(dimension))
        prior = abs(basis[j].inner(pre)) ** 2
        if prior > 1 - 1e-6:
            continue
        products = [post.inner(b) * b.inner(pre) for b in basis]
        coherent = abs(sum(products) - products[j]) ** 2
        inputs = RetrodictionInputs(
            likelihood=F(abs(post.inner(basis[j])) ** 2),
            prior=F(prior),
            likelihood_negation=F(coherent) / F(1 - prior),
            prior_negation=1 - F(prior),
        )
        assert abs(float(retrodict_partial(inputs)) - abl_partial(pre, basis, j, post)) <= TOL
        substituted += 1
    report("09 formula properties over random inputs")


def test_criterion_10_counterfactual_trace():
    """Certainty of K, yet no Suit value exists before the Suit event."""
    scenario = counterfactual_trace(trials=0)
    assert scenario.passed

    deck = two_value_deck()
    experiment = Experiment(
        deck,
        out(deck, "Face", "K"),
        (Manifestation("Face"), Manifestation("Suit")),
        (2, out(deck, "Suit", "H")),
    )
    assert retrodict_exact(experiment, 1, out(deck, "Face", "K")) == F(1)

    before_suit_event = scenario.trace[1]
    assert before_suit_event["memory"] == "Face"
    assert before_suit_event["values"]["Suit"] is None
    after_suit_event = scenario.trace[2]
    assert after_suit_event["values"] == {"Face": None, "Suit": "H"}

    with pytest.raises(ZeroAcceptanceError):
        counterfactual_trace(deck=three_box_deck(), trials=0)
    report("10 counterfactual trace and zero-acceptance diagnosis")
