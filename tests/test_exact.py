"""Branch-tree enumeration, conditional queries, the closed form, mixtures."""

from fractions import Fraction

import pytest

from oracles import enumerate_tree
from threebox.deck import Manifestation, Outcome, prepare, step_distribution
from threebox.errors import (
    InvalidArgumentsError,
    SequenceTooLongError,
    UndefinedConditionalError,
    UnknownLabelError,
    WeightsNotNormalizedError,
)
from threebox.exact import (
    AnyOf,
    Experiment,
    MixtureState,
    OutcomeAt,
    acceptance_probability,
    conditional_probability,
    experiment_from_options,
    format_fraction,
    leaf_distribution,
    mixture_combine,
    parse_manifestation,
    parse_outcome_reference,
    parse_target,
    probability,
    retrodict_exact,
    single_step_probability,
    tree_header,
)
from threebox.formulas import RetrodictionInputs, retrodict_partial


def out(deck, variable, label, negated=False):
    return deck.outcome(variable, label, negated)


@pytest.fixture
def spade_check(threebox):
    """Prepare Q, check 'spade or not', observe Face, keep only final K."""
    return Experiment(
        threebox,
        out(threebox, "Face", "Q"),
        (Manifestation("Suit", "S"), Manifestation("Face")),
        postselection=(2, out(threebox, "Face", "K")),
    )


class TestEnumerate:
    def test_single_partial_check_has_two_leaves(self, threebox):
        experiment = Experiment(threebox, out(threebox, "Face", "Q"), (Manifestation("Suit", "S"),))
        assert leaf_distribution(experiment) == {
            (out(threebox, "Suit", "S"),): Fraction(1, 4),
            (out(threebox, "Suit", "S", negated=True),): Fraction(3, 4),
        }

    def test_no_events_single_certain_leaf(self, threebox):
        experiment = Experiment(threebox, out(threebox, "Face", "Q"))
        assert leaf_distribution(experiment) == {(): Fraction(1)}

    def test_two_event_tree_has_six_leaves(self, threebox, spade_check):
        leaves = leaf_distribution(spade_check)
        assert len(leaves) == 6
        s, k = out(threebox, "Suit", "S"), out(threebox, "Face", "K")
        not_s = out(threebox, "Suit", "S", negated=True)
        assert leaves[(s, k)] == Fraction(1, 4) * Fraction(1, 2) == Fraction(1, 8)
        assert leaves[(not_s, k)] == 0

    def test_leaf_probabilities_sum_to_one(self, spade_check):
        assert sum(leaf_distribution(spade_check).values()) == 1

    def test_children_probabilities_sum_to_parent(self, spade_check):
        def check(node):
            if node.children:
                assert sum(child.probability for child in node.children) == node.probability
                for child in node.children:
                    check(child)

        check(enumerate_tree(spade_check))

    def test_leaf_depth_equals_event_count(self, spade_check):
        for leaf in enumerate_tree(spade_check).leaves():
            assert len(leaf.outcomes) == 2

    def test_event_cap(self, threebox):
        """Only trees are capped: nine events build an experiment and answer every pattern query."""
        experiment = Experiment(threebox, out(threebox, "Face", "Q"), (Manifestation("Suit"),) * 9)
        assert probability(experiment, OutcomeAt(9, out(threebox, "Suit", "H"))) == Fraction(1, 2)
        with pytest.raises(SequenceTooLongError):
            leaf_distribution(experiment)
        assert probability(experiment, AnyOf((OutcomeAt(1, out(threebox, "Suit", "S")),))) == Fraction(1, 4)

    def test_tree_report_serializes_rationals(self, spade_check):
        assert tree_header(spade_check)["postselection"] == {"ordinal": 2, "outcome": "K"}
        probabilities = {
            tuple(map(str, leaf.outcomes)): format_fraction(leaf.probability)
            for leaf in enumerate_tree(spade_check).leaves()
        }
        assert probabilities[("S", "K")] == "1/8"
        assert probabilities[("~S", "K")] == "0/1"


class TestExperimentValidation:
    def test_postselection_ordinal_range(self, threebox):
        with pytest.raises(InvalidArgumentsError):
            Experiment(
                threebox,
                out(threebox, "Face", "Q"),
                (Manifestation("Suit"),),
                postselection=(2, out(threebox, "Face", "K")),
            )

    def test_postselection_variable_must_match(self, threebox):
        with pytest.raises(InvalidArgumentsError):
            Experiment(
                threebox,
                out(threebox, "Face", "Q"),
                (Manifestation("Suit"),),
                postselection=(1, out(threebox, "Face", "K")),
            )

    def test_complete_observation_never_reports_negations(self, threebox):
        with pytest.raises(InvalidArgumentsError):
            Experiment(
                threebox,
                out(threebox, "Face", "Q"),
                (Manifestation("Suit"),),
                postselection=(1, out(threebox, "Suit", "S", negated=True)),
            )

    def test_partial_observation_reports_only_its_value(self, threebox):
        with pytest.raises(InvalidArgumentsError):
            Experiment(
                threebox,
                out(threebox, "Face", "Q"),
                (Manifestation("Suit", "S"),),
                postselection=(1, out(threebox, "Suit", "D")),
            )

    def test_negated_postselection_is_allowed(self, threebox):
        experiment = Experiment(
            threebox,
            out(threebox, "Face", "Q"),
            (Manifestation("Suit", "S"),),
            postselection=(1, out(threebox, "Suit", "S", negated=True)),
        )
        assert acceptance_probability(experiment) == Fraction(3, 4)


class TestConditional:
    def test_no_king_after_negated_spade(self, threebox, spade_check):
        value = conditional_probability(
            spade_check,
            OutcomeAt(2, out(threebox, "Face", "K")),
            OutcomeAt(1, out(threebox, "Suit", "S", negated=True)),
        )
        assert value == 0

    def test_king_after_spade_is_half(self, threebox, spade_check):
        # After the S re-preparation, Others = {(2)KH, QD, JD}: two kings in four.
        value = conditional_probability(
            spade_check,
            OutcomeAt(2, out(threebox, "Face", "K")),
            OutcomeAt(1, out(threebox, "Suit", "S")),
        )
        assert value == Fraction(1, 2)

    def test_zero_probability_condition_is_undefined(self, threebox, spade_check):
        impossible = AnyOf(
            (
                OutcomeAt(1, out(threebox, "Suit", "S")),
                OutcomeAt(1, out(threebox, "Suit", "S", negated=True)),
            )
        )
        with pytest.raises(UndefinedConditionalError):
            conditional_probability(
                spade_check, OutcomeAt(2, out(threebox, "Face", "K")), ~impossible
            )

    def test_pattern_combinators(self, threebox, spade_check):
        k = OutcomeAt(2, out(threebox, "Face", "K"))
        s = OutcomeAt(1, out(threebox, "Suit", "S"))
        assert probability(spade_check, k & s) == Fraction(1, 8)
        assert probability(spade_check, k | s) == Fraction(1, 4)
        assert probability(spade_check, ~s) == Fraction(3, 4)
        assert probability(spade_check, s & ~s) == 0

    def test_pattern_ordinal_validation(self, threebox, spade_check):
        with pytest.raises(InvalidArgumentsError):
            probability(spade_check, OutcomeAt(3, out(threebox, "Face", "K")))


class TestRetrodict:
    def test_spade_certain_given_final_king(self, threebox, spade_check):
        assert retrodict_exact(spade_check, 1, out(threebox, "Suit", "S")) == 1

    def test_diamond_certain_given_final_king(self, threebox):
        experiment = Experiment(
            threebox,
            out(threebox, "Face", "Q"),
            (Manifestation("Suit", "D"), Manifestation("Face")),
            postselection=(2, out(threebox, "Face", "K")),
        )
        assert retrodict_exact(experiment, 1, out(threebox, "Suit", "D")) == 1

    def test_complete_observation_gives_half(self, threebox):
        experiment = Experiment(
            threebox,
            out(threebox, "Face", "Q"),
            (Manifestation("Suit"), Manifestation("Face")),
            postselection=(2, out(threebox, "Face", "K")),
        )
        assert retrodict_exact(experiment, 1, out(threebox, "Suit", "S")) == Fraction(1, 2)
        assert retrodict_exact(experiment, 1, out(threebox, "Suit", "H")) == 0
        assert retrodict_exact(experiment, 1, out(threebox, "Suit", "D")) == Fraction(1, 2)

    def test_requires_postselection(self, threebox):
        experiment = Experiment(threebox, out(threebox, "Face", "Q"), (Manifestation("Suit"),))
        with pytest.raises(InvalidArgumentsError):
            retrodict_exact(experiment, 1, out(threebox, "Suit", "S"))

    def test_query_must_precede_postselection(self, threebox, spade_check):
        with pytest.raises(InvalidArgumentsError):
            retrodict_exact(spade_check, 2, out(threebox, "Face", "K"))

    def test_impossible_postselection_is_undefined(self, threebox):
        experiment = Experiment(
            threebox,
            out(threebox, "Face", "K"),
            (Manifestation("Face"), Manifestation("Suit")),
            postselection=(2, out(threebox, "Suit", "H")),
        )
        with pytest.raises(UndefinedConditionalError):
            retrodict_exact(experiment, 1, out(threebox, "Face", "K"))


class TestClosedForm:
    def test_same_variable_is_kronecker(self, threebox):
        q = out(threebox, "Face", "Q")
        assert single_step_probability(threebox, q, out(threebox, "Face", "Q")) == 1
        assert single_step_probability(threebox, q, out(threebox, "Face", "K")) == 0

    def test_cross_variable(self, threebox):
        q = out(threebox, "Face", "Q")
        assert single_step_probability(threebox, q, out(threebox, "Suit", "S")) == Fraction(1, 4)
        assert single_step_probability(threebox, q, out(threebox, "Suit", "H")) == Fraction(1, 2)

    def test_negated_same_variable(self, threebox):
        not_s = out(threebox, "Suit", "S", negated=True)
        assert single_step_probability(threebox, not_s, out(threebox, "Suit", "H")) == Fraction(1, 2)
        assert single_step_probability(threebox, not_s, out(threebox, "Suit", "S")) == 0

    def test_negated_cross_variable(self, threebox):
        not_s = out(threebox, "Suit", "S", negated=True)
        assert single_step_probability(threebox, not_s, out(threebox, "Face", "K")) == 0
        assert single_step_probability(threebox, not_s, out(threebox, "Face", "Q")) == Fraction(1, 2)

    def test_negation_complement(self, threebox):
        q = out(threebox, "Face", "Q")
        assert single_step_probability(threebox, q, out(threebox, "Suit", "S", negated=True)) == Fraction(3, 4)

    def test_unknown_label_is_refused(self, threebox):
        q = out(threebox, "Face", "Q")
        for bad in (("Face", "Z"), ("Suit", "C"), ("Colour", "S")):
            with pytest.raises(UnknownLabelError):
                single_step_probability(threebox, q, Outcome(*bad))
            with pytest.raises(UnknownLabelError):
                single_step_probability(threebox, Outcome(*bad, negated=True), q)

    def test_matches_enumeration_for_every_first_step(self, threebox, twovalue):
        # Every preparation against every single manifestation, on both decks.
        for deck in (threebox, twovalue):
            for variable in (deck.face.name, deck.suit.name):
                for label in deck.variable(variable).labels:
                    for negated in (False, True):
                        target = out(deck, variable, label, negated)
                        state = prepare(deck, target)
                        for observed in (deck.face.name, deck.suit.name):
                            for partial in (None, *deck.variable(observed).labels):
                                dist = step_distribution(state, Manifestation(observed, partial))
                                for result, exact in dist.items():
                                    assert single_step_probability(deck, target, result) == exact


def test_negated_state_indistinguishable_from_mixture_in_one_step(threebox):
    """Pr[~S] always equals Pr[H] + Pr[D], whatever the preparation."""
    not_s = out(threebox, "Suit", "S", negated=True)
    for variable in ("Face", "Suit"):
        for label in threebox.variable(variable).labels:
            for negated in (False, True):
                target = out(threebox, variable, label, negated)
                lhs = single_step_probability(threebox, target, not_s)
                rhs = single_step_probability(threebox, target, out(threebox, "Suit", "H")) + \
                    single_step_probability(threebox, target, out(threebox, "Suit", "D"))
                assert lhs == rhs


def test_partial_retrodiction_formula_agrees_with_enumeration(threebox):
    """Feeding enumeration-derived conditionals into the partial formula
    reproduces the enumerated retrodiction for every preparation, partial
    check, and postselected value."""
    deck = threebox
    checked = 0
    for prep_variable in ("Face", "Suit"):
        for prep_label in deck.variable(prep_variable).labels:
            preparation = out(deck, prep_variable, prep_label)
            for check_variable in ("Face", "Suit"):
                final_variable = "Suit" if check_variable == "Face" else "Face"
                for check_label in deck.variable(check_variable).labels:
                    manifestations = (
                        Manifestation(check_variable, check_label),
                        Manifestation(final_variable),
                    )
                    value = out(deck, check_variable, check_label)
                    negation = out(deck, check_variable, check_label, negated=True)
                    for final_label in deck.variable(final_variable).labels:
                        final = out(deck, final_variable, final_label)
                        experiment = Experiment(deck, preparation, manifestations, (2, final))
                        prior = probability(experiment, OutcomeAt(1, value))
                        if prior in (0, 1):
                            continue  # a conditional given the other branch is undefined
                        try:
                            expected = retrodict_exact(experiment, 1, value)
                        except UndefinedConditionalError:
                            continue
                        inputs = RetrodictionInputs(
                            likelihood=conditional_probability(
                                experiment, OutcomeAt(2, final), OutcomeAt(1, value)
                            ),
                            prior=prior,
                            likelihood_negation=conditional_probability(
                                experiment, OutcomeAt(2, final), OutcomeAt(1, negation)
                            ),
                            prior_negation=1 - prior,
                        )
                        assert retrodict_partial(inputs) == expected
                        checked += 1
    assert checked >= 40


class TestMixture:
    def test_two_thirds_hearts_one_third_diamonds(self, threebox):
        mixture = MixtureState(
            (
                (prepare(threebox, out(threebox, "Suit", "H")), Fraction(2, 3)),
                (prepare(threebox, out(threebox, "Suit", "D")), Fraction(1, 3)),
            )
        )
        combined = mixture_combine(mixture)
        assert str(combined) == "[JD, (4)KH, QD | (2)JD, (3)JS, (2)KH, (2)QD, (3)QS]"
        assert combined.memory == "Suit"
        assert combined.deck == threebox.scaled(3)

    def test_combined_multiset_is_scaled_deck(self, threebox):
        mixture = MixtureState(
            (
                (prepare(threebox, out(threebox, "Suit", "H")), Fraction(2, 3)),
                (prepare(threebox, out(threebox, "Suit", "D")), Fraction(1, 3)),
            )
        )
        combined = mixture_combine(mixture)
        assert combined.these == (1, 0, 4, 1, 0)
        assert tuple(t + o for t, o in zip(combined.these, combined.others)) == threebox.scaled(3).counts

    def test_king_chance_from_mixture(self, threebox):
        mixture = MixtureState(
            (
                (prepare(threebox, out(threebox, "Suit", "H")), Fraction(2, 3)),
                (prepare(threebox, out(threebox, "Suit", "D")), Fraction(1, 3)),
            )
        )
        combined = mixture_combine(mixture)
        dist = step_distribution(combined, Manifestation("Face"))
        assert dist[out(threebox, "Face", "K")] == Fraction(1, 6)
        # Weighted average of the component distributions agrees.
        assert Fraction(2, 3) * 0 + Fraction(1, 3) * Fraction(1, 2) == Fraction(1, 6)

    def test_weight_one_identity(self, threebox):
        state = prepare(threebox, out(threebox, "Face", "Q"))
        assert mixture_combine(MixtureState(((state, Fraction(1)),))) is state

    def test_step_distributions_average_for_value_mixtures(self, threebox):
        components = [
            (prepare(threebox, out(threebox, "Suit", label)), weight)
            for label, weight in (("S", Fraction(1, 2)), ("H", Fraction(1, 3)), ("D", Fraction(1, 6)))
        ]
        combined = mixture_combine(MixtureState(tuple(components)))
        for observed in ("Face", "Suit"):
            for partial in (None, "K" if observed == "Face" else "S"):
                manifestation = Manifestation(observed, partial)
                merged = step_distribution(combined, manifestation)
                for result in merged:
                    average = sum(
                        (w * step_distribution(s, manifestation)[result] for s, w in components),
                        Fraction(0),
                    )
                    assert merged[result] == average

    def test_weights_must_normalize(self, threebox):
        state = prepare(threebox, out(threebox, "Face", "Q"))
        with pytest.raises(WeightsNotNormalizedError):
            MixtureState(((state, Fraction(1, 2)),))
        with pytest.raises(WeightsNotNormalizedError):
            MixtureState(((state, Fraction(3, 2)), (state, Fraction(-1, 2))))
        with pytest.raises(WeightsNotNormalizedError):
            MixtureState(())

    def test_components_must_share_deck_and_memory(self, threebox, twovalue):
        with pytest.raises(InvalidArgumentsError):
            mixture_combine(
                MixtureState(
                    (
                        (prepare(threebox, out(threebox, "Face", "Q")), Fraction(1, 2)),
                        (prepare(twovalue, out(twovalue, "Face", "Q")), Fraction(1, 2)),
                    )
                )
            )
        with pytest.raises(InvalidArgumentsError):
            mixture_combine(
                MixtureState(
                    (
                        (prepare(threebox, out(threebox, "Face", "Q")), Fraction(1, 2)),
                        (prepare(threebox, out(threebox, "Suit", "S")), Fraction(1, 2)),
                    )
                )
            )


class TestTextSyntax:
    def test_parse_target(self, threebox):
        assert parse_target(threebox, "Face=Q") == out(threebox, "Face", "Q")
        assert parse_target(threebox, "Suit=~S") == out(threebox, "Suit", "S", negated=True)
        with pytest.raises(InvalidArgumentsError):
            parse_target(threebox, "Face")

    def test_parse_manifestation(self, threebox):
        assert parse_manifestation(threebox, "Suit") == Manifestation("Suit")
        assert parse_manifestation(threebox, "Suit?S") == Manifestation("Suit", "S")

    def test_outcome_reference_resolves_unique_variable(self, threebox):
        manifestations = (Manifestation("Suit", "S"), Manifestation("Face"))
        assert parse_outcome_reference(threebox, manifestations, "Face=K") == (
            2,
            out(threebox, "Face", "K"),
        )
        assert parse_outcome_reference(threebox, manifestations, "1:Suit=~S") == (
            1,
            out(threebox, "Suit", "S", negated=True),
        )

    def test_outcome_reference_ambiguity_needs_ordinal(self, threebox):
        manifestations = (Manifestation("Suit"), Manifestation("Suit"))
        with pytest.raises(InvalidArgumentsError):
            parse_outcome_reference(threebox, manifestations, "Suit=S")
        assert parse_outcome_reference(threebox, manifestations, "2:Suit=S")[0] == 2

    def test_experiment_from_options(self, threebox):
        experiment = experiment_from_options(
            threebox, "Face=Q", ["Suit?S", "Face"], "Face=K"
        )
        assert experiment.postselection == (2, out(threebox, "Face", "K"))
        assert retrodict_exact(experiment, 1, out(threebox, "Suit", "S")) == 1


def test_format_fraction():
    assert format_fraction(Fraction(1)) == "1/1"
    assert format_fraction(Fraction(0)) == "0/1"
    assert format_fraction(Fraction(3, 12)) == "1/4"
