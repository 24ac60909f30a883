"""An experiment compiled once into a transition table that every engine reads.

Layer ``e`` lists the machine states an experiment can be in after ``e``
events: layer 0 holds the prepared state alone, and a state's position in
its layer is its id.  Event ``e + 1`` gives every state of layer ``e``

* one row per outcome the manifestation can report, in schema order,
  zero-probability outcomes included: ``(outcome, probability, next state
  id)``, the probability an exact ``Fraction``; the exact engine reads these;
* its pool as runs of draw indices, in canonical order, one run per cell of
  the deck the pool holds cards of: ``(count, reported outcome's position)``;
  the Monte Carlo walker reads these.

Rows and runs are plain tuples, the runs of ints, so compiling loads no
numpy: the exact engine never needs it, and the walker turns an event's
runs into arrays once per run (see :func:`threebox.montecarlo.simulate`).

A run reports :meth:`~threebox.deck.Manifestation.outcome_for` of its
cell's label, a row's probability is the share of the pool in the runs that
report its outcome, and every outcome's next state is
:meth:`~threebox.deck.SystemState.after_report` of it, so the draw pools and
the re-preparation rule are stated by the deck module alone.  Deriving a
state's transitions costs time linear in the number of cells of the deck,
never in its card count, with one re-preparation per outcome.  A state met
again at a later event reuses the transitions already derived for it, and
a layer met again at the same manifestation reuses the whole event: both
events hold one :class:`Event` object and lead to one next layer, so an
alternating experiment of any length holds a few distinct events, and an
engine can do an event's own work once per distinct event.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .deck import Deck, Manifestation, Outcome, SystemState, prepare

# One row: the reported outcome, its exact probability, the next state's id.
Row = tuple[Outcome, Fraction, int]
# A pool's cards in canonical order: runs of (count, reported outcome's position).
Runs = tuple[tuple[int, int], ...]
# What one state does at one manifestation: its pool's runs, and the rows,
# their next states as compile-wide ids.
Transition = tuple[Runs, tuple[Row, ...]]


class Event(NamedTuple):
    """The compiled transitions of one event, from every state of the layer before it.

    ``rows[s]`` are the rows of state ``s`` and ``runs[s]`` its pool: draw
    indices ``0 .. n0 - 1`` report ``outcomes[k0]`` when the first run is
    ``(n0, k0)``, the next ``n1`` indices ``outcomes[k1]``, and so on.
    ``pool_sizes[s]`` is the pool size, the sum of the run counts.
    """

    outcomes: tuple[Outcome, ...]
    rows: tuple[tuple[Row, ...], ...]
    pool_sizes: tuple[int, ...]
    runs: tuple[Runs, ...]


class Kernel:
    """The reachable states per layer and the compiled :class:`Event` of every event."""

    def __init__(self, deck: Deck, preparation: Outcome, manifestations: Sequence[Manifestation]):
        states = [prepare(deck, preparation)]  # every state met, by compile-wide id
        ids = {states[0]: 0}
        derived: dict[tuple[int, Manifestation], Transition] = {}  # by compile-wide state id
        # By (compile-wide ids of a layer's states, manifestation): the event and the next layer.
        compiled: dict[tuple[tuple[int, ...], Manifestation], tuple[Event, tuple[int, ...], tuple]] = {}
        layer: tuple[int, ...] = (0,)
        layers = [(states[0],)]
        events = []
        for manifestation in manifestations:
            if (layer, manifestation) not in compiled:
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
                runs = tuple(t_runs for t_runs, _ in transitions)
                compiled[layer, manifestation] = (
                    Event(outcomes, rows, tuple(sum(n for n, _ in t_runs) for t_runs in runs), runs),
                    tuple(local),
                    tuple(states[g] for g in local),
                )
            event, layer, reached = compiled[layer, manifestation]
            events.append(event)
            layers.append(reached)
        self.layers = tuple(layers)
        self.events = tuple(events)


def _derive(
    state: SystemState,
    manifestation: Manifestation,
    outcomes: tuple[Outcome, ...],
    states: list[SystemState],
    ids: dict[SystemState, int],
) -> Transition:
    """Count the cards in ``state``'s pool that report each outcome.

    An outcome no card reports keeps its row, with probability zero and the
    state :meth:`SystemState.after_report` gives, so that enumeration can
    still list its branch.  New states are appended to ``states``.
    """
    column, pool, size = state.draw_pool(manifestation)
    position = {outcome: k for k, outcome in enumerate(outcomes)}
    runs = tuple((n, position[manifestation.outcome_for(label)]) for label, n in zip(column, pool) if n)
    rows = []
    for k, outcome in enumerate(outcomes):
        after = state.after_report(outcome)
        g = ids.setdefault(after, len(states))
        if g == len(states):
            states.append(after)
        rows.append((outcome, Fraction(sum(n for n, j in runs if j == k), size), g))
    return runs, tuple(rows)
