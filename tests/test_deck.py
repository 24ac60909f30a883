"""Deck validation and the These/Others observation machine."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threebox.deck import (
    MAX_CARDS,
    Manifestation,
    Outcome,
    format_cards,
    observe,
    prepare,
    step_distribution,
    validate_deck,
)
from threebox.errors import (
    DrawOutOfRangeError,
    EmptyDeckError,
    InvalidArgumentsError,
    UnequalValueCountsError,
    UnknownLabelError,
)


def outcome(deck, variable, label, negated=False):
    return deck.outcome(variable, label, negated)


def first_index(state, variable, cell):
    """The first draw index into the pool for ``variable`` that names a card of ``cell``."""
    pool = state.pool_for(variable)
    return sum(pool[: state.deck.cells.index(cell)])


def assert_conserved(state):
    """The two piles split the deck: no cell holds more cards in ``These`` than in the deck."""
    counts = state.deck.counts
    assert len(state.these) == len(counts)
    assert all(0 <= t <= n for t, n in zip(state.these, counts))
    assert tuple(t + o for t, o in zip(state.these, state.others)) == counts


class TestValidateDeck:
    def test_three_box_deck(self, threebox):
        assert threebox.values_per_variable == 3
        assert threebox.copies_per_value == 2
        assert threebox.size == 6
        assert threebox.cells == (("J", "D"), ("J", "S"), ("K", "H"), ("Q", "D"), ("Q", "S"))
        assert threebox.counts == (1, 1, 2, 1, 1)
        assert str(threebox) == "{JD, JS, (2)KH, QD, QS}"
        assert threebox.joint_count("K", "H") == 2
        assert threebox.joint_count("K", "S") == 0

    def test_single_copy_deck(self):
        deck = validate_deck([("K", "S", 1), ("K", "H", 1), ("Q", "S", 1), ("Q", "H", 1)])
        assert deck.values_per_variable == 2
        assert deck.copies_per_value == 2

    def test_unbalanced_deck_rejected(self):
        # Doubling one card breaks the equal-count rule: K appears 3 times, Q twice.
        with pytest.raises(UnequalValueCountsError) as excinfo:
            validate_deck([("K", "S", 2), ("K", "H", 1), ("Q", "S", 1), ("Q", "H", 1)])
        message = str(excinfo.value)
        assert "'Q' appears 2" in message and "'K' appears 3" in message

    def test_empty_deck_rejected(self):
        with pytest.raises(EmptyDeckError):
            validate_deck([])

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(InvalidArgumentsError):
            validate_deck([("K", "S", 1), ("Q", "H", 0), ("K", "H", 1), ("Q", "S", 1)])

    def test_total_multiplicity_is_bounded_before_the_card_list_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidArgumentsError, match="at most"):
                validate_deck([("K", "S", 10**12), ("K", "H", 10**12), ("Q", "S", 10**12), ("Q", "H", 10**12)])
            with pytest.raises(InvalidArgumentsError, match="at most"):
                validate_deck([("K", "S", MAX_CARDS + 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_label_outside_declared_schema_rejected(self):
        with pytest.raises(UnknownLabelError):
            validate_deck([("K", "S", 1), ("A", "H", 1)], face_labels=("K", "Q"), suit_labels=("S", "H"))

    def test_variable_names_must_differ(self):
        with pytest.raises(InvalidArgumentsError):
            validate_deck([("K", "S", 1)], face_name="X", suit_name="X")

    def test_declared_label_order_is_kept(self, threebox):
        assert threebox.face.labels == ("K", "Q", "J")
        assert threebox.suit.labels == ("S", "D", "H")

    def test_joint_counts_row_sums(self, threebox):
        for face in threebox.face.labels:
            total = sum(threebox.joint_count(face, suit) for suit in threebox.suit.labels)
            assert total == threebox.copies_per_value


class TestPrepare:
    def test_value_preparation(self, threebox):
        state = prepare(threebox, outcome(threebox, "Face", "Q"))
        assert str(state) == "[QD, QS | JD, JS, (2)KH]"
        assert state.memory == "Face"

    def test_negated_preparation(self, threebox):
        state = prepare(threebox, outcome(threebox, "Suit", "S", negated=True))
        assert str(state) == "[JD, (2)KH, QD | JS, QS]"
        assert state.memory == "Suit"

    def test_face_k_preparation(self, threebox):
        state = prepare(threebox, outcome(threebox, "Face", "K"))
        assert str(state) == "[(2)KH | JD, JS, QD, QS]"
        assert state.these == (0, 0, 2, 0, 0)
        assert state.others == (1, 1, 0, 1, 1)

    def test_unknown_value_rejected(self, threebox):
        with pytest.raises(UnknownLabelError):
            prepare(threebox, Outcome("Face", "A"))

    def test_deck_outcome_is_the_flat_value_with_its_label_checked(self, threebox):
        assert threebox.outcome("Face", "K") == Outcome("Face", "K")
        assert threebox.outcome("Suit", "S", negated=True) == Outcome("Suit", "S", True)
        assert threebox.joint_count_for(Outcome("Suit", "H", True), Outcome("Face", "K")) == 2
        for variable, label in (("Face", "Z"), ("Colour", "S")):
            with pytest.raises(UnknownLabelError):
                threebox.outcome(variable, label)

    def test_sharp_value_tracks_preparation(self, threebox):
        state = prepare(threebox, outcome(threebox, "Face", "Q"))
        assert state.sharp_value("Face") == outcome(threebox, "Face", "Q")
        assert state.sharp_value("Suit") is None
        negated = prepare(threebox, outcome(threebox, "Suit", "D", negated=True))
        assert negated.sharp_value("Suit") == outcome(threebox, "Suit", "D", negated=True)
        assert negated.sharp_value("Face") is None


class TestObserve:
    def test_cross_variable_draw_reprepares(self, threebox):
        state = prepare(threebox, outcome(threebox, "Face", "Q"))
        assert state.pool_for("Suit") == state.others
        index = first_index(state, "Suit", ("J", "S"))
        result, after = observe(state, Manifestation("Suit", "S"), lambda n: index)
        assert result == outcome(threebox, "Suit", "S")
        assert str(after) == "[JS, QS | JD, (2)KH, QD]"
        assert after.memory == "Suit"

    def test_repeated_observation_leaves_state_untouched(self, threebox):
        state = prepare(threebox, outcome(threebox, "Face", "Q"))
        for index in range(sum(state.these)):
            result, after = observe(state, Manifestation("Face"), lambda n, i=index: i)
            assert result == outcome(threebox, "Face", "Q")
            assert after is state

    def test_negated_report_reprepares_negated_state(self, threebox):
        # Drawing a KH under the diamond check reports ~D and rebuilds the ~D split.
        state = prepare(threebox, outcome(threebox, "Face", "Q"))
        index = first_index(state, "Suit", ("K", "H"))
        result, after = observe(state, Manifestation("Suit", "D"), lambda n: index)
        assert result == outcome(threebox, "Suit", "D", negated=True)
        assert str(after) == "[JS, (2)KH, QS | JD, QD]"

    def test_repreparation_matches_prepare_exactly(self, threebox):
        state = prepare(threebox, outcome(threebox, "Face", "Q"))
        for index in range(sum(state.others)):
            result, after = observe(state, Manifestation("Suit"), lambda n, i=index: i)
            assert after == prepare(threebox, result)

    def test_draw_out_of_range(self, threebox):
        state = prepare(threebox, outcome(threebox, "Face", "Q"))
        with pytest.raises(DrawOutOfRangeError):
            observe(state, Manifestation("Suit"), lambda n: n)
        with pytest.raises(DrawOutOfRangeError):
            observe(state, Manifestation("Suit"), lambda n: -1)

    def test_conservation(self, threebox):
        state = prepare(threebox, outcome(threebox, "Face", "Q"))
        _, after = observe(state, Manifestation("Suit", "S"), lambda n: 0)
        assert_conserved(after)


class TestStepDistribution:
    def test_complete_suit_from_prepared_q(self, threebox):
        state = prepare(threebox, outcome(threebox, "Face", "Q"))
        dist = step_distribution(state, Manifestation("Suit"))
        assert dist == {
            outcome(threebox, "Suit", "S"): Fraction(1, 4),
            outcome(threebox, "Suit", "D"): Fraction(1, 4),
            outcome(threebox, "Suit", "H"): Fraction(1, 2),
        }

    def test_partial_spade_check_from_prepared_q(self, threebox):
        state = prepare(threebox, outcome(threebox, "Face", "Q"))
        dist = step_distribution(state, Manifestation("Suit", "S"))
        assert dist == {
            outcome(threebox, "Suit", "S"): Fraction(1, 4),
            outcome(threebox, "Suit", "S", negated=True): Fraction(3, 4),
        }

    def test_complete_face_from_negated_spade(self, threebox):
        # Others after the ~S preparation is {QS, JS}: half queens, half jacks, no kings.
        state = prepare(threebox, outcome(threebox, "Suit", "S", negated=True))
        dist = step_distribution(state, Manifestation("Face"))
        assert dist == {
            outcome(threebox, "Face", "K"): Fraction(0),
            outcome(threebox, "Face", "Q"): Fraction(1, 2),
            outcome(threebox, "Face", "J"): Fraction(1, 2),
        }

    def test_distribution_sums_to_one(self, threebox):
        for variable in ("Face", "Suit"):
            for label in threebox.variable(variable).labels:
                state = prepare(threebox, outcome(threebox, variable, label))
                for m_variable in ("Face", "Suit"):
                    for partial in (None, *threebox.variable(m_variable).labels):
                        dist = step_distribution(state, Manifestation(m_variable, partial))
                        assert sum(dist.values()) == 1


class TestStability:
    @pytest.mark.parametrize("variable", ["Face", "Suit"])
    def test_mismatched_partial_check_never_disturbs(self, threebox, variable):
        labels = threebox.variable(variable).labels
        for prepared in labels:
            for checked in labels:
                if prepared == checked:
                    continue
                state = prepare(threebox, outcome(threebox, variable, prepared))
                dist = step_distribution(state, Manifestation(variable, checked))
                assert dist[outcome(threebox, variable, checked, negated=True)] == 1
                for index in range(sum(state.these)):
                    result, after = observe(
                        state, Manifestation(variable, checked), lambda n, i=index: i
                    )
                    assert result == outcome(threebox, variable, checked, negated=True)
                    assert after is state
                followup = step_distribution(state, Manifestation(variable))
                assert followup[outcome(threebox, variable, prepared)] == 1


# --- randomized walks --------------------------------------------------------


@st.composite
def balanced_decks(draw, max_scale=1):
    """Random decks built from permutation overlays, so every count is equal,
    then scaled by a factor of up to ``max_scale``."""
    size = draw(st.integers(2, 3))
    copies = draw(st.integers(1, 3))
    faces = "KQJ"[:size]
    suits = "SDH"[:size]
    counts = Counter()
    for _ in range(copies):
        permutation = draw(st.permutations(range(size)))
        for j, k in enumerate(permutation):
            counts[(faces[j], suits[k])] += 1
    return validate_deck([(f, s, n) for (f, s), n in counts.items()]).scaled(draw(st.integers(1, max_scale)))


@st.composite
def walks(draw, deck):
    """A preparation plus a short random sequence of (manifestation, draw index)."""
    variables = (deck.face, deck.suit)
    variable = draw(st.sampled_from(variables))
    target = Outcome(variable.name, draw(st.sampled_from(variable.labels)), draw(st.booleans()))
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        m_variable = draw(st.sampled_from(variables))
        partial = draw(st.sampled_from((None,) + m_variable.labels))
        steps.append((Manifestation(m_variable.name, partial), draw(st.integers(0, 10**6))))
    return target, steps


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_random_walks_conserve_the_deck(data):
    deck = data.draw(balanced_decks(max_scale=10**5))
    target, steps = data.draw(walks(deck))
    state = prepare(deck, target)
    assert_conserved(state)
    for manifestation, raw_index in steps:
        dist = step_distribution(state, manifestation)
        assert sum(dist.values()) == 1
        _, state = observe(state, manifestation, lambda n, r=raw_index: r % n)
        assert_conserved(state)
        assert state.memory == manifestation.variable


def test_format_cards():
    assert format_cards((("K", "H"), ("Q", "D"), ("Q", "S")), (2, 0, 1)) == "(2)KH, QS"
    assert format_cards((("10", "H"), ("K", "H")), (1, 3)) == "10·H, (3)KH"
    assert format_cards((), ()) == ""
