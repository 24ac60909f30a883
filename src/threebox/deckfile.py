"""Deck schema files: a small line-oriented text format.

Grammar (UTF-8; blank lines and ``#`` comments ignored)::

    variable <name>: <label> [<label> ...]     # exactly two of these;
    variable <name>: <label> [<label> ...]     # first one is the face role
    card <face-label> <suit-label> <multiplicity>

Multiplicities must be positive; duplicate ``card`` lines accumulate them.
Serialisation is canonical (variables first, cards in declared-label order),
so a deck round-trips losslessly through ``parse_deck(serialize_deck(deck))``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .deck import MAX_CARDS, Deck, validate_deck
from .errors import DeckFileError, quote, significant_digits

if TYPE_CHECKING:
    from pathlib import Path


def parse_deck(text: str) -> Deck:
    """Parse and validate a deck from its schema-file text."""
    variables: list[tuple[str, list[str]]] = []
    cards: dict[tuple[str, str], int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "variable":
            name, sep, labels = rest.rpartition(":")
            if not sep or not name.strip() or not labels.split():
                raise DeckFileError(f"line {lineno}: expected 'variable <name>: <label> ...'")
            if len(variables) == 2:
                raise DeckFileError(f"line {lineno}: a deck has exactly two variables")
            variables.append((name.strip(), labels.split()))
        elif keyword == "card":
            fields = rest.split()
            if len(fields) != 3:
                raise DeckFileError(f"line {lineno}: expected 'card <face> <suit> <multiplicity>'")
            face, suit, count_text = fields
            digits = len(significant_digits(count_text))
            if digits > len(str(MAX_CARDS)):  # refused before int() spends time quadratic in the digits
                raise DeckFileError(f"line {lineno}: a {digits}-digit multiplicity; at most {MAX_CARDS} cards allowed")
            try:
                count = int(count_text)
            except ValueError:
                raise DeckFileError(f"line {lineno}: multiplicity {quote(count_text)} is not an integer") from None
            if count <= 0:
                raise DeckFileError(f"line {lineno}: multiplicity {count} is not positive")
            if len(variables) != 2:
                raise DeckFileError(f"line {lineno}: card listed before both variables were declared")
            cards[(face, suit)] = cards.get((face, suit), 0) + count
        else:
            raise DeckFileError(f"line {lineno}: unknown directive {quote(keyword)}")
    if len(variables) != 2:
        raise DeckFileError("a deck file must declare exactly two variables")
    (face_name, face_labels), (suit_name, suit_labels) = variables
    return validate_deck(
        [(face, suit, count) for (face, suit), count in cards.items()],
        face_name=face_name,
        suit_name=suit_name,
        face_labels=face_labels,
        suit_labels=suit_labels,
    )


def serialize_deck(deck: Deck) -> str:
    """Render a deck in canonical schema-file form."""
    lines = [
        f"variable {deck.face.name}: {' '.join(deck.face.labels)}",
        f"variable {deck.suit.name}: {' '.join(deck.suit.labels)}",
    ]
    for face in deck.face.labels:
        for suit in deck.suit.labels:
            count = deck.joint_count(face, suit)
            if count:
                lines.append(f"card {face} {suit} {count}")
    return "\n".join(lines) + "\n"


def load_deck(path: str | Path) -> Deck:
    """Read and validate a deck schema file."""
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except UnicodeDecodeError as error:
        raise DeckFileError(f"{path}: not UTF-8 text (byte {error.start})") from None
    return parse_deck(text)


def save_deck(deck: Deck, path: str | Path) -> None:
    """Write a deck schema file in canonical form."""
    text = serialize_deck(deck)
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)
