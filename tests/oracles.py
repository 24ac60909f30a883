"""The branch-tree enumerator: every outcome sequence of an experiment as one node per path.

It expands the kernel rows by plain recursion, so it is the oracle that the
leaf walk (:func:`threebox.exact.tree_blocks`) and the forward pass are
tested against; the kernel rows themselves are tested against the deck's
``observe`` and ``step_distribution``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from threebox.deck import Outcome, SystemState, Value
from threebox.exact import Experiment


class Branch(Value):
    """One node of the enumeration tree.

    ``outcomes`` is the outcome sequence down to this node and
    ``probability`` the exact chance of that sequence; children cover every
    outcome of the next manifestation, zero-probability ones included.
    """

    __slots__ = ("state", "outcomes", "probability", "children")

    def __init__(
        self,
        state: SystemState,
        outcomes: tuple[Outcome, ...],
        probability: Fraction,
        children: tuple[Branch, ...] = (),
    ) -> None:
        Value.__init__(self, state, outcomes, probability, children)

    def leaves(self) -> Iterator[Branch]:
        """The leaves under this node, depth first in child order."""
        pending = [self]
        while pending:
            node = pending.pop()
            if node.children:
                pending.extend(reversed(node.children))
            else:
                yield node


def enumerate_tree(experiment: Experiment) -> Branch:
    """Expand every outcome sequence of the experiment with exact probabilities."""
    kernel = experiment.kernel

    def expand(depth: int, s: int, outcomes: tuple[Outcome, ...], probability: Fraction) -> Branch:
        state = kernel.layers[depth][s]
        if depth == len(kernel.events):
            return Branch(state, outcomes, probability)
        event = kernel.events[depth]
        children = tuple(
            expand(depth + 1, t, outcomes + (outcome,), probability * Fraction(w, event.denominator))
            for outcome, (w, t) in zip(event.outcomes, event.rows[s])
        )
        return Branch(state, outcomes, probability, children)

    return expand(0, 0, (), Fraction(1))
