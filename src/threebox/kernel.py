"""An experiment compiled once into a transition table that every engine reads.

Layer ``e`` lists the machine states an experiment can be in after ``e``
events: layer 0 holds the prepared state alone, and a state's position in
its layer is its id.  Event ``e + 1`` gives every state of layer ``e`` one
row per outcome the manifestation can report, zero-probability outcomes
included, which the exact engine reads, and its pool as runs of draw
indices, which the Monte Carlo walker turns into arrays once per run (see
:class:`Event`).  A row weighs its outcome over the lcm of the event's pool
sizes, so the exact engine only multiplies.  Rows and runs are tuples of
ints: the kernel holds no ``Fraction``, and compiling loads no numpy.

A cell reports the outcome at its :meth:`~threebox.deck.Manifestation.positions`
entry.  A state that :meth:`~threebox.deck.SystemState.repeats` the observed
variable keeps its state; any other moves to the state the outcome
re-prepares, through :meth:`~threebox.deck.SystemState.after_report`, once
per distinct manifestation and outcome.  So the deck module alone
states the pools and the rule, and a state's transitions cost time in the
number of cells of the deck, never in its card count.  States are keyed by
their memory and ``These`` counts.  A state met again reuses its
transitions, and a layer met again at the same manifestation reuses the
whole event, so an alternating experiment of any length holds a few
distinct :class:`Event` objects, and an engine can do an event's own work
once per distinct event.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .deck import Deck, Manifestation, Outcome, prepare

# One row: the outcome's chance times the event's denominator, the next state's id.
Row = tuple[int, int]
# A pool's cards in canonical order: runs of (count, reported outcome's position).
Runs = tuple[tuple[int, int], ...]


class Event(NamedTuple):
    """The compiled transitions of one event, from every state of the layer before it.

    ``rows[s][k]`` is ``(weight, t)``: state ``s`` reports ``outcomes[k]``
    with chance ``weight / denominator``, the lcm of the pool sizes, and
    then is state ``t`` of the next layer.  ``runs[s]`` is the pool: draw
    indices ``0 .. n0 - 1`` report ``outcomes[k0]`` when the first run is
    ``(n0, k0)``, the next ``n1`` indices ``outcomes[k1]``, and so on.
    ``pool_sizes[s]`` is the pool size, the sum of the run counts.
    """

    outcomes: tuple[Outcome, ...]
    rows: tuple[tuple[Row, ...], ...]
    pool_sizes: tuple[int, ...]
    runs: tuple[Runs, ...]
    denominator: int


class Kernel:
    """The reachable states per layer and the compiled :class:`Event` of every event."""

    def __init__(self, deck: Deck, preparation: Outcome, manifestations: Sequence[Manifestation]):
        states = [prepare(deck, preparation)]  # every state met, by compile-wide id
        ids = {(states[0].memory, states[0].these): 0}
        kinds: dict[tuple[str, str | None], int] = {}  # each distinct manifestation's id, by its fields
        # By manifestation id: its outcomes, each cell's outcome position, the states its outcomes
        # re-prepare (filled on first need) and each state's pool runs, pool size and rows.
        rules: list[tuple[tuple[Outcome, ...], tuple[int, ...], list[int], dict[int, tuple]]] = []
        # By (compile-wide ids of a layer's states, manifestation id): the event and the next layer.
        compiled: dict[tuple[tuple[int, ...], int], tuple[Event, tuple[int, ...], tuple]] = {}
        layer: tuple[int, ...] = (0,)
        layers = [(states[0],)]
        events = []
        for manifestation in manifestations:
            m = kinds.setdefault((manifestation.variable, manifestation.partial_on), len(kinds))
            if m == len(rules):
                rules.append((manifestation.outcomes(deck), manifestation.positions(deck), [], {}))
            outcomes, positions, successors, derived = rules[m]
            if (layer, m) not in compiled:
                for g in set(layer) - derived.keys():
                    state = states[g]
                    _, pool, size = state.draw_pool(manifestation)
                    counts = [0] * len(outcomes)
                    for n, k in zip(pool, positions):
                        counts[k] += n
                    repeated = state.repeats(manifestation.variable)
                    if not (repeated or successors):
                        for after in map(state.after_report, outcomes):
                            successors.append(ids.setdefault((after.memory, after.these), len(states)))
                            if successors[-1] == len(states):
                                states.append(after)
                    pool_runs = tuple((n, k) for n, k in zip(pool, positions) if n)
                    derived[g] = pool_runs, size, tuple(zip(counts, [g] * len(counts) if repeated else successors))
                runs, sizes, rows = zip(*(derived[g] for g in layer))
                denominator = math.lcm(*sizes)
                local: dict[int, int] = {}  # compile-wide id -> id in the next layer
                rows = tuple(
                    tuple((n * (denominator // size), local.setdefault(t, len(local))) for n, t in r)
                    for r, size in zip(rows, sizes)
                )
                event = Event(outcomes, rows, sizes, runs, denominator)
                compiled[layer, m] = event, tuple(local), tuple(states[g] for g in local)
            event, layer, reached = compiled[layer, m]
            events.append(event)
            layers.append(reached)
        self.layers = tuple(layers)
        self.events = tuple(events)
