"""Card-deck stochastic machine with two variables and an observation memory.

The system is a deck of cards, each carrying a value for each of two
variables (conventionally *Face* and *Suit*).  Its complete internal state is
a partition of the deck into two piles, ``These`` and ``Others``, plus a
memory holding the *name* (never the value) of the last-observed variable:

* preparing the state ``P = v`` puts every card matching ``v`` in ``These``,
  the rest in ``Others``, and sets the memory to ``P``;
* observing ``P`` draws a card uniformly from ``These`` when the memory
  already reads ``P`` (a repeated observation), otherwise from ``Others``;
  the drawn card's ``P``-value is reported and, when the memory differed,
  the system is re-prepared for the reported outcome.

Observations come in two flavours: *complete* (report whichever value the
drawn card carries) and *partial on v* (report ``v`` or its negation ``~v``).
Each report is one flat ``Outcome(variable, label, negated)``, and the same
value names a preparation target.  A negated report re-prepares the system
in the genuine state ``~v`` (These = every card not carrying ``v``), which
is what gives the machine its interference-like behaviour.  For the memory
test a variable counts as the same variable whether observed completely or
partially.

All types here are immutable values; the operations are pure functions, so a
single transition rule can serve both the exact enumerator and the Monte
Carlo sampler.  Randomness is injected as a draw source: a callable mapping a
pool size ``n`` to an index in ``[0, n)`` into the pool's canonical card
sequence (cards sorted by face label, then suit label).
A deck and its piles are stored as counts, one per distinct (face, suit)
pair, so no operation here costs time in the number of cards.

The module also holds the forms every report prints values in, and the
default Monte Carlo run with the check of every run's trials and seed: the
command line reads them without compiling the exact engine, and a scenario
that samples nothing checks its run without loading numpy.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .errors import (
    DrawOutOfRangeError,
    EmptyDeckError,
    InvalidArgumentsError,
    UnequalValueCountsError,
    UnknownLabelError,
    quote,
)

if TYPE_CHECKING:
    from fractions import Fraction

DrawSource = Callable[[int], int]

# The most cards a deck may hold.  A deck is stored as counts, but the Monte
# Carlo sampler gathers each draw from dense tables holding one entry per card
# of every pool, so a larger deck would need larger tables.
MAX_CARDS = 1_000_000

# The characters the deck file and the command-line syntax give a meaning to.
_RESERVED = "~=?:,;#"


_set = object.__setattr__


class Value:
    """Base of the immutable value types.

    A subclass lists its fields in ``__slots__``, before any private cache,
    and its ``__init__`` ends by passing them to ``Value.__init__`` in that
    order.  ``Value`` sets each field, keeps the tuple of them as the key,
    and derives the rest from it: two values are equal when they have the
    same class and equal keys, the repr names each field, and copying or
    pickling rebuilds a value as ``cls(*key)``.  Fields cannot be assigned
    or deleted.

    The hash is the key's, computed on first use and kept.  These are plain
    classes, not dataclasses, because creating a dataclass compiles
    generated source and needs ``dataclasses`` and ``inspect``, a cost that
    every fresh command-line call would pay at import.
    """

    __slots__ = ("_key", "_hash")

    def __init_subclass__(cls) -> None:
        names = next(c.__slots__ for c in cls.__mro__ if c.__slots__)
        cls._fields = tuple(name for name in names if not name.startswith("_"))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *fields: object) -> None:
        for setter, field in zip(self._setters, fields):
            setter(self, field)
        _set(self, "_key", fields)
        _set(self, "_hash", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key)
            _set(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._key

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Variable(Value):
    """A named system variable with its ordered value labels."""

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: tuple[str, ...]) -> None:
        if len(set(labels)) != len(labels):
            raise InvalidArgumentsError(f"duplicate value labels for variable {quote(name)}")
        Value.__init__(self, name, labels)


class Outcome(Value):
    """One assertion about one variable: the report of an observation, and
    equally a preparation target (``prepare`` consumes reported outcomes
    directly).

    ``Outcome(variable, label)`` asserts the variable carries the value
    ``label``; ``Outcome(variable, label, negated=True)`` asserts it carries
    any value but ``label``.  :meth:`Deck.outcome` builds one after checking
    the label against the deck.
    """

    __slots__ = ("variable", "label", "negated")

    def __init__(self, variable: str, label: str, negated: bool = False) -> None:
        Value.__init__(self, variable, label, negated)

    def matches(self, label: str) -> bool:
        """Whether a card whose value has this ``label`` satisfies the assertion."""
        return (label == self.label) != self.negated

    def __str__(self) -> str:
        return f"~{self.label}" if self.negated else self.label


class Manifestation(Value):
    """How a variable is forced to take a value at an event.

    ``partial_on=None`` is the complete observation (any value may be
    reported); ``partial_on=label`` is the partial observation reporting
    either ``label`` or its negation.
    """

    __slots__ = ("variable", "partial_on")

    def __init__(self, variable: str, partial_on: str | None = None) -> None:
        Value.__init__(self, variable, partial_on)

    def outcome_for(self, label: str) -> Outcome:
        """Map a drawn card's value label to the reported outcome."""
        if self.partial_on is None:
            return Outcome(self.variable, label)
        return Outcome(self.variable, self.partial_on, label != self.partial_on)

    def positions(self, deck: Deck) -> tuple[int, ...]:
        """Each cell's position in :meth:`outcomes` of the outcome :meth:`outcome_for` reports for its label."""
        column = deck.column(self.variable, self.partial_on)
        if self.partial_on is None:
            return tuple(map(deck.variable(self.variable).labels.index, column))
        return tuple(int(label != self.partial_on) for label in column)

    def outcomes(self, deck: Deck) -> tuple[Outcome, ...]:
        """All outcomes this manifestation can report, in schema order."""
        if self.partial_on is None:
            return tuple(Outcome(self.variable, label) for label in deck.variable(self.variable).labels)
        return (Outcome(self.variable, self.partial_on), Outcome(self.variable, self.partial_on, negated=True))

    def __str__(self) -> str:
        return self.variable if self.partial_on is None else f"{self.variable}?{self.partial_on}"


class Deck(Value):
    """A validated deck: two variables and how many cards of each kind it holds.

    ``cells`` lists the distinct (face label, suit label) pairs, sorted by
    face label, then suit label, and ``counts`` how many cards of each the
    deck holds; a uniform draw is an index into the card sequence that lists
    each cell's cards in that order.  Every value of every variable appears
    ``copies_per_value`` times, so the deck holds that times
    ``values_per_variable`` cards.
    """

    __slots__ = ("face", "suit", "cells", "counts", "_columns")

    def __init__(
        self, face: Variable, suit: Variable, cells: tuple[tuple[str, str], ...], counts: tuple[int, ...]
    ) -> None:
        Value.__init__(self, face, suit, cells, counts)
        _set(self, "_columns", tuple(tuple(cell[k] for cell in cells) for k in (0, 1)))

    @property
    def size(self) -> int:
        return sum(self.counts)

    @property
    def values_per_variable(self) -> int:
        return len(self.face.labels)

    @property
    def copies_per_value(self) -> int:
        return self.size // self.values_per_variable

    def variable(self, name: str) -> Variable:
        if name == self.face.name:
            return self.face
        if name == self.suit.name:
            return self.suit
        names = f"{quote(self.face.name)} and {quote(self.suit.name)}"
        raise UnknownLabelError(f"unknown variable {quote(name)}; deck has {names}")

    def check_label(self, variable: str, label: str) -> None:
        """Raise UnknownLabelError unless ``label`` is a value of ``variable``."""
        self.column(variable, label)

    def outcome(self, variable: str, label: str, negated: bool = False) -> Outcome:
        """``Outcome(variable, label, negated)``; UnknownLabelError unless ``label`` is a value of ``variable``."""
        self.check_label(variable, label)
        return Outcome(variable, label, negated)

    def column(self, variable: str, label: str | None = None) -> tuple[str, ...]:
        """Each cell's label for ``variable``, in canonical order; UnknownLabelError unless ``label`` is None or
        one of its values."""
        var = self.variable(variable)
        if label is not None and label not in var.labels:
            raise UnknownLabelError(
                f"variable {quote(var.name)} has no value {quote(label)} (values: {', '.join(var.labels)})"
            )
        return self._columns[var is self.suit]

    def joint_count(self, face_label: str, suit_label: str) -> int:
        self.check_label(self.face.name, face_label)
        self.check_label(self.suit.name, suit_label)
        i = bisect_left(self.cells, (face_label, suit_label))
        return self.counts[i] if self.cells[i : i + 1] == ((face_label, suit_label),) else 0

    def joint_count_for(self, a: Outcome, b: Outcome) -> int:
        """Joint count for the labels of two outcomes, one of each variable, in either order, negation ignored."""
        if a.variable == b.variable:
            raise InvalidArgumentsError("joint counts pair one value of each variable")
        face_label = a.label if self.variable(a.variable) is self.face else b.label
        suit_label = b.label if self.variable(a.variable) is self.face else a.label
        return self.joint_count(face_label, suit_label)

    def matching(self, target: Outcome) -> tuple[int, ...]:
        """How many cards of each cell satisfy the assertion."""
        column = self.column(target.variable, target.label)
        return tuple(n if target.matches(label) else 0 for label, n in zip(column, self.counts))

    def scaled(self, factor: int) -> Deck:
        """The same schema with every multiplicity multiplied by ``factor``."""
        if factor < 1:
            raise InvalidArgumentsError("scale factor must be a positive integer")
        if factor == 1:
            return self
        return Deck(self.face, self.suit, self.cells, tuple(n * factor for n in self.counts))

    def __str__(self) -> str:
        return "{" + format_cards(self.cells, self.counts) + "}"


class SystemState(Value):
    """Complete internal state: the [These | Others] partition plus memory.

    ``these`` counts the cards of each of the deck's cells that lie in
    ``These``; the rest of the deck is ``Others`` (see :attr:`others`).
    ``memory`` names the last-observed (or last-prepared) variable and
    selects the draw pool for the next event.
    """

    __slots__ = ("deck", "these", "memory")

    def __init__(self, deck: Deck, these: tuple[int, ...], memory: str) -> None:
        deck.variable(memory)
        Value.__init__(self, deck, these, memory)

    @property
    def others(self) -> tuple[int, ...]:
        """How many cards of each cell lie in ``Others``: the deck's counts less ``these``."""
        return tuple(n - t for n, t in zip(self.deck.counts, self.these))

    def repeats(self, variable: str) -> bool:
        """Whether observing ``variable`` now is a repeated observation: the memory names it."""
        return self.memory == variable

    def pool_for(self, variable: str) -> tuple[int, ...]:
        """The counts of the pool the next observation of ``variable`` would draw from."""
        return self.these if self.repeats(variable) else self.others

    def draw_pool(self, manifestation: Manifestation) -> tuple[tuple[str, ...], tuple[int, ...], int]:
        """Each cell's label for the observed variable, the pool's counts, and the pool size, never zero."""
        column = self.deck.column(manifestation.variable, manifestation.partial_on)
        pool = self.pool_for(manifestation.variable)
        size = sum(pool)
        if not size:
            raise DrawOutOfRangeError(f"draw pool for {manifestation} is empty")
        return column, pool, size

    def after_report(self, outcome: Outcome) -> SystemState:
        """The state once an observation has reported ``outcome``.

        A repeated observation (the memory names the outcome's variable)
        leaves the state untouched; any other re-prepares it for the outcome.
        """
        return self if self.repeats(outcome.variable) else prepare(self.deck, outcome)

    def sharp_value(self, variable: str) -> Outcome | None:
        """The assertion this state is prepared for, if the variable has one.

        Only the memory variable can have a value; the other variable's value
        does not exist until an observation brings it about.  Returns ``None``
        for the non-memory variable and for partitions (such as combined
        mixtures) that match no single preparation.
        """
        if self.deck.variable(variable).name != self.memory:
            return None
        for negated in (False, True):
            for label in self.deck.variable(variable).labels:
                target = Outcome(self.memory, label, negated)
                if self.these == self.deck.matching(target):
                    return target
        return None

    def __str__(self) -> str:
        cells = self.deck.cells
        return f"[{format_cards(cells, self.these)} | {format_cards(cells, self.others)}]"


def format_fraction(value: Fraction) -> str:
    """Serialize a rational as the explicit ``num/den`` string (``1`` -> ``1/1``)."""
    return f"{value.numerator}/{value.denominator}"


def format_float(x: float) -> str:
    """A float with 12 significant digits, the form every report prints floats in."""
    return f"{x:.12g}"


# The Monte Carlo run a scenario or ``threebox simulate`` makes by default.
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 42
# The stream keys a draw by the seed and the trial index, each modulo 2**64
# (see :mod:`threebox.rng`): a seed lies below this, and a run takes at most
# this many trials, since a longer one would replay trial 0.
RUN_KEYS = 1 << 64


def check_run(trials: int, seed: int) -> None:
    """Reject more than :data:`RUN_KEYS` trials, or a seed outside ``[0, RUN_KEYS)``.

    The fewest trials are each caller's own rule: one for a Monte Carlo run, none for a scenario.
    """
    if trials > RUN_KEYS:
        raise InvalidArgumentsError(f"a run takes at most 2**64 trials, got {trials}")
    if not 0 <= seed < RUN_KEYS:
        raise InvalidArgumentsError(f"seed must be in [0, 2**64), got {seed}")


def format_cards(cells: Sequence[tuple[str, str]], counts: Sequence[int]) -> str:
    """Render ``counts[i]`` cards of each ``cells[i]``, in order, as ``(2)KH, QS, ...``; empty cells are left out."""
    parts = []
    for (face, suit), n in zip(cells, counts):
        if n:
            card = f"{face}{suit}" if len(face) == 1 and len(suit) == 1 else f"{face}·{suit}"
            parts.append(card if n == 1 else f"({n}){card}")
    return ", ".join(parts)


def validate_deck(
    raw: Iterable[tuple[str, str, int]],
    *,
    face_name: str = "Face",
    suit_name: str = "Suit",
    face_labels: Sequence[str] | None = None,
    suit_labels: Sequence[str] | None = None,
) -> Deck:
    """Build a deck from ``(face label, suit label, multiplicity)`` entries.

    Enforces the deck discipline: at least one card, positive multiplicities,
    and every value of every variable appearing equally often (so all values
    are a priori equally likely).  Value label order may be declared
    explicitly; otherwise it is the order of first appearance.  Entries for
    the same card add up.  Every variable name and value label must be
    non-empty and hold no whitespace and none of ``~ = ? : , ; #``, so that
    the deck file and the command-line syntax can spell it back.

    Raises:
        EmptyDeckError: no cards at all.
        UnequalValueCountsError: some value appears more often than another.
        UnknownLabelError: a card uses a label outside the declared schema.
        InvalidArgumentsError: nonpositive multiplicity, clashing names, a
            name or label that breaks the rule above, or more than
            ``MAX_CARDS`` cards in total.
    """
    if face_name == suit_name:
        raise InvalidArgumentsError("the two variables must have distinct names")
    entries = list(raw)
    if not entries or all(n == 0 for _, _, n in entries):
        raise EmptyDeckError("a deck needs at least one card")
    total = sum(max(n, 0) for _, _, n in entries)
    if total > MAX_CARDS:
        raise InvalidArgumentsError(f"the deck lists {total} cards; at most {MAX_CARDS} are allowed")

    face_seen: list[str] = list(face_labels) if face_labels is not None else []
    suit_seen: list[str] = list(suit_labels) if suit_labels is not None else []
    counts: dict[tuple[str, str], int] = {}
    for face_label, suit_label, multiplicity in entries:
        if multiplicity <= 0:
            raise InvalidArgumentsError(
                f"card ({quote(face_label)}, {quote(suit_label)}) has nonpositive multiplicity {multiplicity}"
            )
        if face_labels is not None and face_label not in face_seen:
            raise UnknownLabelError(
                f"face label {quote(face_label)} not among declared values {quote(' '.join(face_seen))}"
            )
        if suit_labels is not None and suit_label not in suit_seen:
            raise UnknownLabelError(
                f"suit label {quote(suit_label)} not among declared values {quote(' '.join(suit_seen))}"
            )
        if face_label not in face_seen:
            face_seen.append(face_label)
        if suit_label not in suit_seen:
            suit_seen.append(suit_label)
        counts[(face_label, suit_label)] = counts.get((face_label, suit_label), 0) + multiplicity
    for text in (face_name, suit_name, *face_seen, *suit_seen):
        if not text or any(c.isspace() or c in _RESERVED for c in text):
            raise InvalidArgumentsError(
                f"name or label {quote(text)} must be non-empty, with no whitespace or {_RESERVED}"
            )

    face_totals, suit_totals = dict.fromkeys(face_seen, 0), dict.fromkeys(suit_seen, 0)
    for (face_label, suit_label), n in counts.items():
        face_totals[face_label] += n
        suit_totals[suit_label] += n
    totals = [*face_totals.items(), *suit_totals.items()]
    reference_label, reference_count = totals[0]
    for label, count in totals[1:]:
        if count != reference_count:
            raise UnequalValueCountsError(label, count, reference_label, reference_count)

    cells = tuple(sorted(counts))
    face, suit = Variable(face_name, tuple(face_seen)), Variable(suit_name, tuple(suit_seen))
    return Deck(face, suit, cells, tuple(counts[cell] for cell in cells))


def prepare(deck: Deck, target: Outcome) -> SystemState:
    """Prepare the system in a value state or a genuine negated-value state.

    Every card satisfying the target goes to ``These``, the remainder to
    ``Others``, and the memory records the target's variable.
    """
    these = deck.matching(target)
    if not any(these):
        raise InvalidArgumentsError(f"preparation {target} matches no card in the deck")
    return SystemState(deck=deck, these=these, memory=target.variable)


def observe(
    state: SystemState,
    manifestation: Manifestation,
    draw: DrawSource,
) -> tuple[Outcome, SystemState]:
    """Perform one observation event, driven by an external draw source.

    A repeated observation (memory equals the observed variable, in either
    complete or partial mode) draws from ``These`` and leaves the state
    untouched.  Otherwise the draw comes from ``Others`` and the system is
    re-prepared for whatever outcome was reported, negations included.

    ``draw`` is called once with the pool size and must return an index into
    the pool's canonical card sequence: index ``i`` names the first cell
    whose running count in the pool exceeds ``i``.
    """
    column, pool, size = state.draw_pool(manifestation)
    index = draw(size)
    if not 0 <= index < size:
        raise DrawOutOfRangeError(f"draw index {index} outside pool of size {size}")
    for label, n in zip(column, pool):
        index -= n
        if index < 0:
            break
    outcome = manifestation.outcome_for(label)
    return outcome, state.after_report(outcome)


def step_distribution(state: SystemState, manifestation: Manifestation) -> dict[Outcome, Fraction]:
    """Exact one-step law of an observation from this state.

    Each possible outcome is listed (zero-probability ones included) with
    probability (matching cards in the selected pool) / (pool size); the
    values always sum to exactly one.
    """
    from fractions import Fraction  # here, not at the top: only the exact engines build fractions

    column, pool, size = state.draw_pool(manifestation)
    return {
        outcome: Fraction(sum(n for label, n in zip(column, pool) if outcome.matches(label)), size)
        for outcome in manifestation.outcomes(state.deck)
    }
