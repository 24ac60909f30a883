"""An experiment compiled once into a transition table that every engine reads.

Layer ``e`` lists the machine states an experiment can be in after ``e``
events: layer 0 holds the prepared state alone, and a state's position in
its layer is its id.  Event ``e + 1`` gives every state of layer ``e``

* one row per outcome the manifestation can report, in schema order,
  zero-probability outcomes included: ``(outcome, probability, next state
  id)``, the probability an exact ``Fraction``; the exact engine reads these;
* one cell per draw index into the state's pool: the id of the reported
  outcome and the next state id; the Monte Carlo walker reads these.

Rows and cells are plain tuples, the cells of ints, so compiling loads no
numpy: the exact engine never needs it, and the walker turns an event's
cells into arrays once per run (see :func:`threebox.montecarlo.simulate`).

A cell is the outcome the state's pool card reports
(:meth:`~threebox.deck.Manifestation.outcome_for` of its label), a row
counts the cells that report its outcome, and every outcome's next state is
:meth:`~threebox.deck.SystemState.after_report` of it, so the draw pools and
the re-preparation rule are stated by the deck module alone.  Deriving a
state's transitions costs time linear in its pool size, with one
re-preparation per outcome.  A state met again at a later event reuses the
transitions already derived for it, so a compile costs time linear in the
event count once every reachable (state, manifestation) pair has been seen;
the card machine has few reachable states.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .deck import Deck, Manifestation, Outcome, SystemState, prepare
from .errors import DrawOutOfRangeError

# One row: the reported outcome, its exact probability, the next state's id.
Row = tuple[Outcome, Fraction, int]
# What one state does at one manifestation: the reported outcome's position
# per draw index, and the rows, their next states as compile-wide ids.
Transition = tuple[tuple[int, ...], tuple[Row, ...]]


class Event(NamedTuple):
    """The compiled transitions of one event, from every state of the layer before it.

    ``rows[s]`` are the rows of state ``s``.  For draw index ``i`` into that
    state's pool, cell ``s * width + i`` of ``outcome_ids`` holds the
    position of the reported outcome in ``outcomes`` and the same cell of
    ``successor_ids`` the next state's id; ``pool_sizes[s]`` is the pool size.
    """

    outcomes: tuple[Outcome, ...]
    rows: tuple[tuple[Row, ...], ...]
    pool_sizes: tuple[int, ...]
    width: int
    outcome_ids: tuple[int, ...]
    successor_ids: tuple[int, ...]


class Kernel:
    """The reachable states per layer and the compiled :class:`Event` of every event."""

    def __init__(self, deck: Deck, preparation: Outcome, manifestations: Sequence[Manifestation]):
        states = [prepare(deck, preparation)]  # every state met, by compile-wide id
        ids = {states[0]: 0}
        derived: dict[tuple[int, Manifestation], Transition] = {}  # by compile-wide state id
        layer = [0]
        layers = [(states[0],)]
        events = []
        for manifestation in manifestations:
            outcomes = manifestation.outcomes(deck)
            transitions = []
            for g in layer:
                key = (g, manifestation)
                if key not in derived:
                    derived[key] = _derive(states[g], manifestation, outcomes, states, ids)
                transitions.append(derived[key])
            local: dict[int, int] = {}  # compile-wide id -> id in the next layer
            rows = tuple(
                tuple((outcome, p, local.setdefault(g, len(local))) for outcome, p, g in t_rows)
                for _, t_rows in transitions
            )
            width = max(len(cells) for cells, _ in transitions)
            padded = [[*cells, *[0] * (width - len(cells))] for cells, _ in transitions]
            events.append(
                Event(
                    outcomes=outcomes,
                    rows=rows,
                    pool_sizes=tuple(len(cells) for cells, _ in transitions),
                    width=width,
                    outcome_ids=tuple(k for cells in padded for k in cells),
                    successor_ids=tuple(row[k][2] for cells, row in zip(padded, rows) for k in cells),
                )
            )
            layer = list(local)
            layers.append(tuple(states[g] for g in layer))
        self.layers = tuple(layers)
        self.events = tuple(events)


def _derive(
    state: SystemState,
    manifestation: Manifestation,
    outcomes: tuple[Outcome, ...],
    states: list[SystemState],
    ids: dict[SystemState, int],
) -> Transition:
    """Count the reports of the cards in ``state``'s pool per outcome.

    An outcome no card reports keeps its row, with probability zero and the
    state :meth:`SystemState.after_report` gives, so that enumeration can
    still list its branch.  New states are appended to ``states``.
    """
    pool = state.pool_for(manifestation.variable)
    if not pool:
        raise DrawOutOfRangeError(f"draw pool for {manifestation} is empty")
    deck, variable = state.deck, manifestation.variable
    position = {outcome: k for k, outcome in enumerate(outcomes)}
    # Each label's report, worked out once rather than once per card.
    reported = {label: position[manifestation.outcome_for(label)] for label in deck.variable(variable).labels}
    cells = tuple(reported[deck.label_of(card, variable)] for card in pool)
    rows = []
    for k, outcome in enumerate(outcomes):
        after = state.after_report(outcome)
        g = ids.setdefault(after, len(states))
        if g == len(states):
            states.append(after)
        rows.append((outcome, Fraction(cells.count(k), len(pool)), g))
    return cells, tuple(rows)
