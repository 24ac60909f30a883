"""Deck schema file parsing and canonical serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threebox import cli
from threebox.deck import Deck, Manifestation, Outcome, Variable, validate_deck
from threebox.deckfile import load_deck, parse_deck, save_deck, serialize_deck
from threebox.errors import (
    DeckFileError,
    InvalidArgumentsError,
    ThreeBoxError,
    UnequalValueCountsError,
    UnknownLabelError,
)
from threebox.exact import parse_manifestation, parse_outcome_reference, parse_target

THREE_BOX_TEXT = """\
# the standard three-value deck
variable Face: K Q J
variable Suit: S D H

card K H 2
card Q S 1
card Q D 1
card J S 1
card J D 1
"""


def test_parse_matches_builtin_deck(threebox):
    assert parse_deck(THREE_BOX_TEXT) == threebox


def test_round_trip_is_lossless(threebox, twovalue):
    for deck in (threebox, twovalue):
        assert parse_deck(serialize_deck(deck)) == deck


def test_save_and_load(tmp_path, twovalue):
    path = tmp_path / "deck.deck"
    save_deck(twovalue, path)
    assert load_deck(path) == twovalue


def test_a_file_that_is_not_utf8_is_refused(tmp_path, capsys):
    path = tmp_path / "bad.deck"
    path.write_bytes(b"variable Face: K Q\nvariable Suit: S \xff\n")
    with pytest.raises(DeckFileError, match="not UTF-8"):
        load_deck(path)
    assert cli.main(["validate", "--deck", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_duplicate_card_lines_accumulate():
    text = THREE_BOX_TEXT.replace("card K H 2", "card K H 1\ncard K H 1")
    assert parse_deck(text) == parse_deck(THREE_BOX_TEXT)


def test_comments_and_blank_lines_ignored():
    noisy = "\n# hello\n" + THREE_BOX_TEXT.replace("card Q S 1", "card Q S 1  # inline note")
    assert parse_deck(noisy) == parse_deck(THREE_BOX_TEXT)


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda t: t.replace("variable Suit: S D H\n", ""), "before both variables"),
        (lambda t: t + "variable Color: R B\n", "exactly two"),
        (lambda t: t.replace("card K H 2", "card K H two"), "not an integer"),
        (lambda t: t.replace("card K H 2", "card K H"), "expected 'card"),
        (lambda t: t.replace("variable Face", "deck Face"), "unknown directive"),
        (lambda t: "card K H 2\n" + t, "before both variables"),
        (lambda t: t.replace("variable Face: K Q J", "variable Face:"), "expected 'variable"),
        (lambda t: t.replace("card K H 2", "card K H -1\ncard K H 3"), "line 5: multiplicity -1 is not positive"),
        (lambda t: t.replace("card K H 2", "card K H 0\ncard K H 2"), "line 5: multiplicity 0 is not positive"),
    ],
)
def test_malformed_files_rejected(mutation, message):
    with pytest.raises(DeckFileError) as excinfo:
        parse_deck(mutation(THREE_BOX_TEXT))
    assert message in str(excinfo.value)


def test_validation_errors_propagate():
    with pytest.raises(UnknownLabelError):
        parse_deck(THREE_BOX_TEXT.replace("card J D 1", "card J C 1"))
    with pytest.raises(UnequalValueCountsError):
        parse_deck(THREE_BOX_TEXT.replace("card J D 1", "card J D 2"))


@pytest.mark.parametrize(
    "text",
    [
        THREE_BOX_TEXT.replace(" Q ", " ~Q ").replace("card Q", "card ~Q"),
        THREE_BOX_TEXT.replace("variable Face", "variable Fa:ce"),
        THREE_BOX_TEXT.replace("variable Suit", "variable S=uit"),
        THREE_BOX_TEXT.replace(" S D H", " S D? H").replace("card Q D", "card Q D?").replace("card J D", "card J D?"),
    ],
    ids=["negated-looking label", "colon in name", "equals sign in name", "question mark in label"],
)
def test_a_name_or_label_the_syntax_would_misread_is_refused(text):
    with pytest.raises(InvalidArgumentsError, match="name or label"):
        parse_deck(text)


@pytest.mark.parametrize("label", ["~Q", "K#x", "", "K Q", "K\tQ", "K,Q", "K;Q"])
def test_validate_applies_the_label_rule_to_every_label(label):
    with pytest.raises(InvalidArgumentsError, match="name or label"):
        validate_deck([(label, "S", 1), ("J", "H", 1)])
    with pytest.raises(InvalidArgumentsError, match="name or label"):
        validate_deck([("J", "S", 1)], face_name=label or " ")


# Mostly ordinary labels; otherwise any text of up to three characters, often
# whitespace or one of the characters the deck file or the syntax reads.
ORDINARY = st.text(st.sampled_from("KQJSDH"), min_size=1, max_size=2)
WIDE = st.text(
    st.one_of(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\u2028~=?:,;#\"\\é·"), st.characters()), max_size=3
)
LABELS = st.one_of(ORDINARY, ORDINARY, ORDINARY, WIDE)


def keeps_the_rule(text):
    return bool(text) and not any(c.isspace() or c in "~=?:,;#" for c in text)


def file_round_trips(deck):
    try:
        return parse_deck(serialize_deck(deck)) == deck
    except ThreeBoxError:
        return False


def syntax_round_trips(deck):
    """Whether every outcome, manifestation and outcome reference of the deck parses back from its text."""
    try:
        for variable in (deck.face, deck.suit):
            events = (Manifestation(variable.name),)
            for label in variable.labels:
                partial = Manifestation(variable.name, label)
                if parse_manifestation(deck, str(partial)) != partial:
                    return False
                for negated in (False, True):
                    outcome = Outcome(variable.name, label, negated)
                    text = f"{variable.name}={outcome}"
                    if parse_target(deck, text) != outcome:
                        return False
                    for reference in (text, f"1:{text}"):
                        if parse_outcome_reference(deck, events, reference) != (1, outcome):
                            return False
            if parse_manifestation(deck, str(events[0])) != events[0]:
                return False
    except ThreeBoxError:
        return False
    return True


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_validate_accepts_exactly_the_decks_whose_names_and_labels_keep_the_rule(data):
    """An accepted deck round-trips through its file and the syntax; one that does not round-trip is refused.

    The rule is stricter than the round trips: it also reserves ``=``, ``?``,
    ``,``, ``;`` and a ``~`` inside a label, which today's syntax reads back.
    """
    names = data.draw(st.lists(LABELS, min_size=2, max_size=2, unique=True))
    faces = data.draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    suits = data.draw(st.lists(LABELS, min_size=len(faces), max_size=len(faces), unique=True))
    permutation = data.draw(st.permutations(range(len(faces))))
    cells = sorted((faces[j], suits[k]) for j, k in enumerate(permutation))
    # The deck as validate_deck would build it, were there no rule.
    deck = Deck(Variable(names[0], tuple(faces)), Variable(names[1], tuple(suits)), tuple(cells), (1,) * len(cells))
    try:
        validated = validate_deck(
            [(face, suit, 1) for face, suit in cells],
            face_name=names[0], suit_name=names[1], face_labels=faces, suit_labels=suits,
        )
    except InvalidArgumentsError:
        validated = None
    assert (validated is not None) == all(map(keeps_the_rule, [*names, *faces, *suits]))
    if validated is not None:
        assert validated == deck
    assert (validated is not None) <= (file_round_trips(deck) and syntax_round_trips(deck))
