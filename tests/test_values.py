"""Value semantics of the deck, exact, formula, slit and Monte Carlo types: equality, hashing, immutability, copies
and reprs."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Branch
from test_deck import balanced_decks
from threebox import exact
from threebox.deck import Deck, Manifestation, Outcome, SystemState, Variable, observe, prepare, validate_deck
from threebox.decks import three_box_deck, two_value_deck
from threebox.errors import (
    GeometryInfeasibleError,
    InvalidArgumentsError,
    UnknownLabelError,
    WeightsNotNormalizedError,
)
from threebox.exact import AllOf, AnyOf, Experiment, MixtureState, Negation, OutcomeAt
from threebox.formulas import RetrodictionInputs
from threebox.montecarlo import FrequencyTable, RunConfig, simulate
from threebox.quantum import SlitGeometry, three_slit_design


def samples():
    """Per class: a factory that builds a fresh value on each call, and a value that differs from it."""
    deck = two_value_deck()
    king, heart = Outcome("Face", "K"), Outcome("Suit", "H", negated=True)
    state = prepare(deck, king)
    events = (Manifestation("Face"), Manifestation("Suit", "H"))
    at_1, at_2 = OutcomeAt(1, king), OutcomeAt(2, heart)
    experiment = Experiment(deck, king, events, (2, heart))
    return {
        Variable: (lambda: Variable("Face", ("K", "Q")), Variable("Face", ("Q", "K"))),
        Outcome: (lambda: Outcome("Suit", "H", negated=True), Outcome("Suit", "H")),
        Manifestation: (lambda: Manifestation("Suit", "H"), Manifestation("Suit")),
        Deck: (two_value_deck, three_box_deck()),
        SystemState: (lambda: prepare(deck, king), prepare(deck, Outcome("Face", "Q"))),
        Experiment: (lambda: Experiment(deck, king, events, (2, heart)), Experiment(deck, king, events)),
        Branch: (lambda: Branch(state, (king,), Fraction(1, 2)), Branch(state, (king,), Fraction(1, 3))),
        OutcomeAt: (lambda: OutcomeAt(1, king), OutcomeAt(2, king)),
        AllOf: (lambda: AllOf((at_1, at_2)), AllOf((at_2, at_1))),
        AnyOf: (lambda: AnyOf((at_1, at_2)), AllOf((at_1, at_2))),
        Negation: (lambda: Negation(at_2), Negation(at_1)),
        MixtureState: (
            lambda: MixtureState(((state, Fraction(1, 3)), (state, Fraction(2, 3)))),
            MixtureState(((state, Fraction(1)),)),
        ),
        RetrodictionInputs: (
            lambda: RetrodictionInputs(Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(3, 4)),
            RetrodictionInputs(
                likelihood=Fraction(1, 2), prior=Fraction(1, 4), likelihood_negation=Fraction(1, 3),
                prior_negation=Fraction(3, 4),
            ),
        ),
        SlitGeometry: (lambda: three_slit_design(10.0, 1.0), three_slit_design(3.7, 0.21)),
        RunConfig: (lambda: RunConfig(experiment, 1000, 7), RunConfig(experiment, trials=1000, seed=8)),
    }


SAMPLES = samples()
CLASSES = list(SAMPLES)


def field_names(cls) -> list[str]:
    """The fields of a value type, in order: the parameters of its constructor."""
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_values_are_equal_and_hash_equal(cls):
    make, other = SAMPLES[cls]
    a, b = make(), make()
    assert a is not b and type(a) is cls
    assert a == b and not a != b and hash(a) == hash(b)
    assert {a: "first"}[b] == "first"
    assert a != other and not a == other


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_values_carry_no_instance_dict(cls):
    assert not hasattr(SAMPLES[cls][0](), "__dict__")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_is_type_strict(cls):
    value = SAMPLES[cls][0]()
    fields = tuple(getattr(value, name) for name in field_names(cls))
    assert value != fields and fields != value
    assert value != tuple(fields) and value != list(fields)
    assert value != None  # noqa: E711 -- the comparison itself is under test


def test_values_of_different_classes_with_equal_fields_differ():
    assert Variable("Face", ("K",)) != Manifestation("Face", ("K",))
    assert len({Variable("Face", ("K",)), Manifestation("Face", ("K",))}) == 2
    patterns = (OutcomeAt(1, Outcome("Face", "K")),)
    assert AllOf(patterns) != AnyOf(patterns) and len({AllOf(patterns), AnyOf(patterns)}) == 2
    assert Manifestation("Face", ("K",)) != Variable("Face", ("K",))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = SAMPLES[cls][0]()
    slots = [name for c in cls.__mro__ for name in getattr(c, "__slots__", ())]
    for name in [*field_names(cls), *slots, "other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == SAMPLES[cls][0]()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_values(cls, duplicate):
    value = SAMPLES[cls][0]()
    twin = duplicate(value)
    assert type(twin) is cls
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)


# The reprs that frozen dataclasses with the same fields would have.
TWO_VALUE_DECK = (
    "Deck(face=Variable(name='Face', labels=('K', 'Q')), suit=Variable(name='Suit', labels=('S', 'H')), "
    "cells=(('K', 'H'), ('K', 'S'), ('Q', 'H'), ('Q', 'S')), counts=(1, 2, 2, 1))"
)
KING = "Outcome(variable='Face', label='K', negated=False)"
NOT_HEART = "Outcome(variable='Suit', label='H', negated=True)"
KING_STATE = f"SystemState(deck={TWO_VALUE_DECK}, these=(1, 2, 0, 0), memory='Face')"
EXPERIMENT = (
    f"Experiment(deck={TWO_VALUE_DECK}, preparation={KING}, manifestations=(Manifestation(variable='Face', "
    f"partial_on=None), Manifestation(variable='Suit', partial_on='H')), postselection=(2, {NOT_HEART}))"
)
REPRS = {
    Variable: "Variable(name='Face', labels=('K', 'Q'))",
    Outcome: NOT_HEART,
    Manifestation: "Manifestation(variable='Suit', partial_on='H')",
    Deck: TWO_VALUE_DECK,
    SystemState: KING_STATE,
    Experiment: EXPERIMENT,
    Branch: f"Branch(state={KING_STATE}, outcomes=({KING},), probability=Fraction(1, 2), children=())",
    OutcomeAt: f"OutcomeAt(ordinal=1, outcome={KING})",
    AllOf: f"AllOf(patterns=(OutcomeAt(ordinal=1, outcome={KING}), OutcomeAt(ordinal=2, outcome={NOT_HEART})))",
    AnyOf: f"AnyOf(patterns=(OutcomeAt(ordinal=1, outcome={KING}), OutcomeAt(ordinal=2, outcome={NOT_HEART})))",
    Negation: f"Negation(pattern=OutcomeAt(ordinal=2, outcome={NOT_HEART}))",
    MixtureState: f"MixtureState(components=(({KING_STATE}, Fraction(1, 3)), ({KING_STATE}, Fraction(2, 3))))",
    RetrodictionInputs: (
        "RetrodictionInputs(likelihood=Fraction(1, 2), prior=Fraction(1, 4), likelihood_negation=Fraction(0, 1), "
        "prior_negation=Fraction(3, 4))"
    ),
    SlitGeometry: "SlitGeometry(separation=10.0, wavelength=1.0, distance=99.75)",
    RunConfig: f"RunConfig(experiment={EXPERIMENT}, trials=1000, seed=7)",
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_is_the_keyword_form(cls):
    assert repr(SAMPLES[cls][0]()) == REPRS[cls]


def test_cells_sort_by_face_then_suit():
    """The cells, and so the draw order, follow the labels' string order, not their declared order."""
    hand = [("Q", "S"), ("K", "S"), ("J", "D"), ("K", "H"), ("Q", "D"), ("J", "H")]
    deck = validate_deck([(face, suit, 1) for face, suit in hand], face_labels="QKJ", suit_labels="SDH")
    assert deck.cells == (("J", "D"), ("J", "H"), ("K", "H"), ("K", "S"), ("Q", "D"), ("Q", "S"))
    assert str(deck) == "{JD, JH, KH, KS, QD, QS}"
    state = prepare(deck, Outcome("Face", "Q"))
    drawn = [str(observe(state, Manifestation("Suit"), lambda n, i=i: i)[0]) for i in range(4)]
    assert drawn == ["D", "H", "H", "S"]


def test_construction_keeps_its_checks():
    deck = two_value_deck()
    king = Outcome("Face", "K")
    with pytest.raises(InvalidArgumentsError, match="duplicate value labels for variable 'Face'"):
        Variable("Face", ("K", "K"))
    with pytest.raises(UnknownLabelError, match="unknown variable 'Colour'"):
        SystemState(deck, deck.counts, "Colour")
    with pytest.raises(UnknownLabelError, match="has no value 'A'"):
        Experiment(deck, Outcome("Face", "A"))
    with pytest.raises(UnknownLabelError, match="unknown variable 'Colour'"):
        Experiment(deck, king, (Manifestation("Colour"),))
    with pytest.raises(UnknownLabelError, match="has no value 'D'"):
        Experiment(deck, king, (Manifestation("Suit", "D"),))
    with pytest.raises(InvalidArgumentsError, match="postselection ordinal 2 does not name a manifestation"):
        Experiment(deck, king, (Manifestation("Suit"),), (2, Outcome("Suit", "H")))
    state = prepare(deck, king)
    with pytest.raises(WeightsNotNormalizedError, match="at least one component"):
        MixtureState(())
    with pytest.raises(WeightsNotNormalizedError, match="must be positive"):
        MixtureState(((state, Fraction(0)), (state, Fraction(1))))
    with pytest.raises(WeightsNotNormalizedError, match="sum to 1/2, not 1"):
        MixtureState(((state, Fraction(1, 2)),))
    with pytest.raises(InvalidArgumentsError, match="^likelihood_negation = 3/2 is not a probability$"):
        RetrodictionInputs(Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(InvalidArgumentsError, match="^priors must sum to 1, got 1/2 \\+ 1/4$"):
        RetrodictionInputs(likelihood=1, prior=Fraction(1, 2), likelihood_negation=0, prior_negation=Fraction(1, 4))
    with pytest.raises(GeometryInfeasibleError, match="^distance must be a positive finite length, got -1.0$"):
        SlitGeometry(10.0, 1.0, -1.0)
    with pytest.raises(GeometryInfeasibleError, match="is not half the wavelength 1.0$"):
        SlitGeometry(separation=10.0, wavelength=1.0, distance=50.0)


def test_the_kernel_compiles_once_and_stays_out_of_equality(monkeypatch):
    compiled = []
    kernel = exact.Kernel
    monkeypatch.setattr(exact, "Kernel", lambda *args: compiled.append(args) or kernel(*args))
    make = SAMPLES[Experiment][0]
    fresh, used = make(), make()
    before = hash(used)
    assert used.kernel is used.kernel
    assert len(compiled) == 1
    assert used == fresh and fresh == used and hash(used) == before == hash(fresh)
    assert repr(used) == repr(fresh)
    assert copy.copy(used) == used and pickle.loads(pickle.dumps(used)) == used
    assert len(compiled) == 1


def test_a_frequency_table_counts_its_accepted_trials_once_and_is_immutable(monkeypatch):
    config = SAMPLES[RunConfig][0]()
    table = simulate(config)
    counted = []
    count = FrequencyTable.count
    monkeypatch.setattr(FrequencyTable, "count", lambda self, pattern: counted.append(pattern) or count(self, pattern))
    # The postselection is a not-heart report at the second event.
    not_heart = config.experiment.postselection[1]
    expected = sum(n for sequence, n in table.counts.items() if sequence[1] == not_heart)
    assert 0 < expected < table.trials
    assert table.accepted == expected and table.acceptance_rate == expected / 1000
    assert len(counted) == 1
    for name in ("experiment", "trials", "seed", "counts", "accepted", "_accepted", "other"):
        with pytest.raises(AttributeError):
            setattr(table, name, None)
    assert table.accepted == expected and len(counted) == 1
    assert table == simulate(config) and copy.copy(table) == table
    with pytest.raises(TypeError):
        hash(table)


def test_states_reached_twice_intern_to_one_kernel_state(threebox):
    # The Suit event leads to three Suit states (H with chance zero), and the Face event's
    # nine rows from them re-prepare one of the same three Face states.
    king = threebox.outcome("Face", "K")
    kernel = Experiment(threebox, king, (Manifestation("Suit"), Manifestation("Face"))).kernel
    after_suit, after_face = kernel.layers[1:]
    assert len(after_suit) == 3
    assert sum(len(rows) for rows in kernel.events[1].rows) == 9
    # Each row is (weight, next state id): all nine lead into the three Face states.
    assert {t for rows in kernel.events[1].rows for _, t in rows} == {0, 1, 2}
    assert [sum(w for w, _ in rows) for rows in kernel.events[1].rows] == [kernel.events[1].denominator] * 3
    assert sorted(str(state) for state in after_face) == sorted(
        str(prepare(threebox, threebox.outcome("Face", label))) for label in "KQJ"
    )


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_state_reached_by_two_routes_is_one_value(data):
    """Observing Face from two different Suit states re-prepares equal, equally hashed Face states."""
    deck = data.draw(balanced_decks())
    label = data.draw(st.sampled_from(deck.face.labels))
    target = Outcome("Face", label)
    prepared = prepare(deck, target)
    reached = []
    for suit in deck.suit.labels:
        state = prepare(deck, Outcome("Suit", suit))
        others = state.others
        for i, ((face, _), n) in enumerate(zip(deck.cells, others)):
            if face == label and n:
                index = sum(others[:i])
                outcome, after = observe(state, Manifestation("Face"), lambda n, index=index: index)
                assert outcome == target
                reached.append(after)
    assert reached  # every face value sits outside some suit's pile
    for after in reached:
        assert after == prepared and hash(after) == hash(prepared)
        assert after is not prepared
    assert len({prepared, *reached}) == 1
