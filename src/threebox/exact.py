"""Exact probability semantics over the card machine.

An :class:`Experiment` is a preparation (event ordinal 0), an ordered list of
manifestations (ordinals 1, 2, ...), and optionally a postselection: an
outcome at one ordinal that accepted runs must show.  Each experiment is
compiled once into a :class:`~threebox.kernel.Kernel`, the transition table
every engine reads, and every probabilistic claim is an exact `Fraction`.

Both readers of the kernel rows only multiply their integer weights, over
the product of the events' denominators.  Every query is a :class:`Pattern`
of outcomes at given ordinals, and ``probability`` answers it by
propagating state weights forward through the kernel, each carrying the
part of the pattern still open, in time linear in the event count for a
given pattern.  ``tree_blocks`` produces every outcome sequence with its
probability lazily, a block of leaves per path to the middle layer: the
leaves below a middle state are reduced once per prefix weight, and every
path that reaches the state with that weight shares the block;
``leaf_distribution`` flattens the blocks into one map.
Only tree listings read them, so only they are capped at ``MAX_EVENTS``.

The module also carries the deck's closed-form single-step probability
(checkable against enumeration), and mixture states: weighted combinations
of system states merged into one enlarged [These | Others] partition.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import floordiv
from typing import Callable, ClassVar, Iterator, Sequence, TypeVar

from .deck import Deck, Manifestation, Outcome, SystemState, Value, _set
from .errors import (
    InvalidArgumentsError,
    SequenceTooLongError,
    UndefinedConditionalError,
    WeightsNotNormalizedError,
)
from .kernel import Event, Kernel

# A tree has as many leaves as the product of its events' outcome counts: V
# (values per variable) for a complete event and 2 for a partial one, so 3^8 =
# 6,561 leaves for 8 complete events on the three-box deck.  Every leaf is
# listed, so cap the event count of a tree.
MAX_EVENTS = 8


def format_fraction(value: Fraction) -> str:
    """Serialize a rational as the explicit ``num/den`` string (``1`` -> ``1/1``)."""
    return f"{value.numerator}/{value.denominator}"


def format_float(x: float) -> str:
    """A float with 12 significant digits, the form every report prints floats in."""
    return f"{x:.12g}"


# The Monte Carlo run a scenario or ``threebox simulate`` makes by default;
# kept in this numpy-free module so that the command-line parser loads no numpy.
DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 42


def check_seed(seed: int) -> None:
    """Reject a seed outside the stream's 64-bit key range."""
    if not 0 <= seed < 1 << 64:
        raise InvalidArgumentsError(f"seed must be in [0, 2**64), got {seed}")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


class Experiment(Value):
    """Preparation, ordered manifestations, and an optional postselection.

    Ordinals are 1-based: ordinal ``k`` is the ``k``-th manifestation; the
    preparation sits at ordinal 0.  The postselection names an ordinal and
    the outcome accepted runs must show there.
    """

    __slots__ = ("deck", "preparation", "manifestations", "postselection", "_kernel")

    def __init__(
        self,
        deck: Deck,
        preparation: Outcome,
        manifestations: tuple[Manifestation, ...] = (),
        postselection: tuple[int, Outcome] | None = None,
    ) -> None:
        deck.check_label(preparation.variable, preparation.label)
        for m in manifestations:
            deck.column(m.variable, m.partial_on)
        Value.__init__(self, deck, preparation, manifestations, postselection)
        _set(self, "_kernel", None)
        if postselection is not None:
            ordinal, outcome = postselection
            self.check_outcome_at(ordinal, outcome, "postselection")

    def check_outcome_at(self, ordinal: int, outcome: Outcome, role: str = "outcome") -> Manifestation:
        """Validate that ``outcome`` is one the manifestation at ``ordinal`` can report."""
        if not 1 <= ordinal <= len(self.manifestations):
            raise InvalidArgumentsError(
                f"{role} ordinal {ordinal} does not name a manifestation (1..{len(self.manifestations)})"
            )
        m = self.manifestations[ordinal - 1]
        if m.variable != outcome.variable:
            raise InvalidArgumentsError(
                f"{role} {outcome} does not match the variable observed at ordinal {ordinal} ({m})"
            )
        if m.partial_on is None:
            if outcome.negated:
                raise InvalidArgumentsError(f"complete observation at ordinal {ordinal} never reports {outcome}")
            self.deck.check_label(outcome.variable, outcome.label)
        elif outcome.label != m.partial_on:
            raise InvalidArgumentsError(
                f"partial observation {m} at ordinal {ordinal} reports only {m.partial_on} or ~{m.partial_on}"
            )
        return m

    def check_retrodiction(self, ordinal: int, outcome: Outcome) -> "OutcomeAt":
        """Validate a retrodiction query and return the postselection it is conditioned on.

        The experiment must carry a postselection, ``outcome`` must be one the
        event at ``ordinal`` can report, and that event must precede the
        postselection.
        """
        if self.postselection is None:
            raise InvalidArgumentsError("retrodiction needs an experiment with a postselection")
        self.check_outcome_at(ordinal, outcome, "query")
        ps_ordinal, ps_outcome = self.postselection
        if ordinal >= ps_ordinal:
            raise InvalidArgumentsError(
                f"queried ordinal {ordinal} must precede the postselection ordinal {ps_ordinal}"
            )
        return OutcomeAt(ps_ordinal, ps_outcome)

    @property
    def kernel(self) -> Kernel:
        """The experiment's transition table, compiled on first use and kept with the experiment."""
        if self._kernel is None:
            _set(self, "_kernel", Kernel(self.deck, self.preparation, self.manifestations))
        return self._kernel


# ---------------------------------------------------------------------------
# Leaf listings
# ---------------------------------------------------------------------------


Key = TypeVar("Key", str, tuple)


def tree_blocks(
    experiment: Experiment, unit: Callable[[int, Outcome], Key], empty: Key
) -> Iterator[tuple[Key, tuple[tuple[Key, ...], tuple[int, ...], tuple[int, ...]]]]:
    """Every leaf of the tree, a block per middle prefix: ``(head, (tails, numerators, denominators))``.

    Leaf ``i`` of a block has the key ``head + tails[i]``: ``empty`` followed
    by ``unit(ordinal, outcome)`` for each outcome on its path, joined with
    ``+``; ``unit`` is called once per outcome of each event.
    ``numerators[i]/denominators[i]`` is the leaf's exact probability in
    lowest terms.  Prefixes come depth first in row order, and so do the
    leaves of a block.

    The walk reads the kernel rows and meets in the middle.  Prefixes run
    forward to the middle layer, one per path.  Below that layer, the leaves
    under each state are built once, backward from the last layer.  Both
    carry the product of their rows' weights, so a leaf's probability is its
    prefix's weight times its own over ``D``, the product of the event
    denominators.  Equal prefix weights are equal probabilities: a block is
    built once per middle state and prefix weight, each leaf reduced by its
    gcd with ``D``, and the same tuple is handed to every prefix that shares
    both.  Blocks live until the listing ends, so each holds three columns
    rather than a tuple per leaf: thousands of live tuples would set off
    garbage collections inside the listing.

    The call builds the prefixes and the shared lower halves, and raises
    SequenceTooLongError beyond ``MAX_EVENTS`` events; the iterator it
    returns builds each distinct block when a prefix first needs it.
    """
    if len(experiment.manifestations) > MAX_EVENTS:
        raise SequenceTooLongError(
            f"{len(experiment.manifestations)} events requested; the enumerator expands at most {MAX_EVENTS}"
        )
    kernel = experiment.kernel
    # Per event: the key unit of each outcome, and each state's rows.
    steps = [([unit(o, outcome) for outcome in e.outcomes], e.rows) for o, e in enumerate(kernel.events, start=1)]
    denominator = math.prod(event.denominator for event in kernel.events)
    middle = len(steps) // 2
    prefixes = [(0, empty, 1)]
    for units, rows in steps[:middle]:
        prefixes = [(t, key + u, w * uw) for s, key, w in prefixes for u, (uw, t) in zip(units, rows[s])]
    below = [[(empty, 1)]] * len(kernel.layers[-1])
    for units, rows in reversed(steps[middle:]):
        below = [[(u + key, uw * w) for u, (uw, t) in zip(units, r) for key, w in below[t]] for r in rows]
    columns = [tuple(map(tuple, zip(*leaves))) for leaves in below]

    @functools.cache
    def block(s: int, weight: int) -> tuple:
        tails, tail_weights = columns[s]
        ns = [weight * w for w in tail_weights]
        gs = [math.gcd(n, denominator) for n in ns]
        return tails, tuple(map(floordiv, ns, gs)), tuple(denominator // g for g in gs)

    return ((head, block(s, weight)) for s, head, weight in prefixes)


def leaf_distribution(experiment: Experiment) -> dict[tuple[Outcome, ...], Fraction]:
    """Probability of every complete outcome sequence: the leaves of :func:`tree_blocks`, flattened."""
    return {
        head + tail: Fraction(n, d)
        for head, block in tree_blocks(experiment, lambda ordinal, outcome: (outcome,), ())
        for tail, n, d in zip(*block)
    }


def tree_header(experiment: Experiment) -> dict:
    """A tree report with an empty ``leaves`` list: the experiment it lists, in report order."""
    report: dict = {
        "events": [str(m) for m in experiment.manifestations],
        "preparation": str(experiment.preparation),
        "leaves": [],
    }
    if experiment.postselection is not None:
        ordinal, outcome = experiment.postselection
        report["postselection"] = {"ordinal": ordinal, "outcome": str(outcome)}
    return report


# ---------------------------------------------------------------------------
# Outcome patterns (conjunction / disjunction / negation over ordinals)
# ---------------------------------------------------------------------------


class Pattern(Value):
    """A predicate over outcome sequences, built from (ordinal, outcome) atoms."""

    __slots__ = ()

    def matches(self, outcomes: Sequence[Outcome]) -> bool:
        raise NotImplementedError

    def given(self, ordinal: int, outcome: Outcome) -> "bool | Pattern":
        """``True``, ``False`` or the pattern left open once the event at ``ordinal`` reported ``outcome``."""
        raise NotImplementedError

    def ordinals(self) -> set[int]:
        raise NotImplementedError

    def __and__(self, other: "Pattern") -> "Pattern":
        return AllOf((self, other))

    def __or__(self, other: "Pattern") -> "Pattern":
        return AnyOf((self, other))

    def __invert__(self) -> "Pattern":
        return Negation(self)


class OutcomeAt(Pattern):
    """The event at ``ordinal`` reported exactly this outcome."""

    __slots__ = ("ordinal", "outcome")

    def __init__(self, ordinal: int, outcome: Outcome) -> None:
        Value.__init__(self, ordinal, outcome)

    def matches(self, outcomes: Sequence[Outcome]) -> bool:
        return outcomes[self.ordinal - 1] == self.outcome

    def given(self, ordinal: int, outcome: Outcome) -> "bool | Pattern":
        return self if ordinal != self.ordinal else outcome == self.outcome

    def ordinals(self) -> set[int]:
        return {self.ordinal}


class _Junction(Pattern):
    """A conjunction or disjunction, settled as soon as one part settles to ``decisive``."""

    __slots__ = ("patterns",)
    decisive: ClassVar[bool]

    def __init__(self, patterns: tuple[Pattern, ...]) -> None:
        Value.__init__(self, patterns)

    def given(self, ordinal: int, outcome: Outcome) -> "bool | Pattern":
        rest = []
        for p in self.patterns:
            settled = p.given(ordinal, outcome)
            if settled is self.decisive:
                return settled
            if not isinstance(settled, bool):
                rest.append(settled)
        if len(rest) < 2:
            return rest[0] if rest else not self.decisive
        return type(self)(tuple(rest))

    def ordinals(self) -> set[int]:
        return set().union(*(p.ordinals() for p in self.patterns))


class AllOf(_Junction):
    """Every one of the patterns holds."""

    __slots__ = ()
    decisive = False

    def matches(self, outcomes: Sequence[Outcome]) -> bool:
        return all(p.matches(outcomes) for p in self.patterns)


class AnyOf(_Junction):
    """At least one of the patterns holds."""

    __slots__ = ()
    decisive = True

    def matches(self, outcomes: Sequence[Outcome]) -> bool:
        return any(p.matches(outcomes) for p in self.patterns)


class Negation(Pattern):
    """The pattern does not hold."""

    __slots__ = ("pattern",)

    def __init__(self, pattern: Pattern) -> None:
        Value.__init__(self, pattern)

    def matches(self, outcomes: Sequence[Outcome]) -> bool:
        return not self.pattern.matches(outcomes)

    def given(self, ordinal: int, outcome: Outcome) -> "bool | Pattern":
        settled = self.pattern.given(ordinal, outcome)
        return not settled if isinstance(settled, bool) else Negation(settled)

    def ordinals(self) -> set[int]:
        return self.pattern.ordinals()


def probability(experiment: Experiment, pattern: Pattern) -> Fraction:
    """Exact probability that a run's outcome sequence matches the pattern.

    The forward pass of a hidden Markov model over pairs of a kernel state
    and the part of the pattern still open, which starts as the whole
    pattern on the prepared state.  At an ordinal the pattern names, each
    row passes its weight on with :meth:`Pattern.given` of its outcome:
    weight settled ``True`` is banked, since a state's rows sum to certainty;
    weight settled ``False`` is dropped; equal open patterns share weights.
    Weights are integers over one common denominator, which each event
    multiplies, with the banked total, by its own denominator: a row passes
    on its state's weight times the row's weight.  The one ``Fraction`` is
    built at the end.
    """
    ordinals, depth = pattern.ordinals(), len(experiment.manifestations)
    for ordinal in ordinals:
        if not 1 <= ordinal <= depth:
            raise InvalidArgumentsError(f"pattern refers to ordinal {ordinal}, but the experiment has {depth} event(s)")
    if not ordinals:  # a pattern that reads no outcome holds for every run or for none
        return Fraction(pattern.matches(()))
    scale, banked = 1, 0
    weights: list[tuple[Pattern, dict[int, int]]] = [(pattern, {0: 1})]
    for ordinal, event in enumerate(experiment.kernel.events[: max(ordinals)], start=1):
        scale, banked = scale * event.denominator, banked * event.denominator
        if ordinal not in ordinals:
            weights = [(open_pattern, _step(vector, event)) for open_pattern, vector in weights]
            continue
        merged: dict[Pattern, dict[int, int]] = {}
        for open_pattern, vector in weights:
            # A state's rows list the event's outcomes in order.
            settled = [open_pattern.given(ordinal, outcome) for outcome in event.outcomes]
            targets = [rest if isinstance(rest, bool) else merged.setdefault(rest, {}) for rest in settled]
            for s, weight in vector.items():
                for target, (w, t) in zip(targets, event.rows[s]):
                    if target is not False and w:
                        if target is True:
                            banked += weight * w
                        else:
                            target[t] = target.get(t, 0) + weight * w
        weights = list(merged.items())
    return Fraction(banked, scale)


def _step(vector: dict[int, int], event: Event) -> dict[int, int]:
    """The state weights after an event, whatever it reports, over a denominator ``event.denominator`` times larger."""
    moved: dict[int, int] = {}
    rows = event.rows
    for s, weight in vector.items():
        for w, t in rows[s]:
            if w:
                moved[t] = moved.get(t, 0) + weight * w
    return moved


def conditional_probability(experiment: Experiment, target: Pattern, condition: Pattern) -> Fraction:
    """Pr(target and condition) / Pr(condition), both exact.

    Raises UndefinedConditionalError when the condition has probability zero.
    """
    joint = probability(experiment, target & condition)
    conditioning = probability(experiment, condition)
    if conditioning == 0:
        raise UndefinedConditionalError("conditioning event has probability zero")
    return joint / conditioning


def retrodict_exact(experiment: Experiment, ordinal: int, outcome: Outcome) -> Fraction:
    """Chance an intermediate event reported ``outcome``, given the postselection.

    The query is checked by :meth:`Experiment.check_retrodiction`.
    """
    postselected = experiment.check_retrodiction(ordinal, outcome)
    return conditional_probability(experiment, OutcomeAt(ordinal, outcome), postselected)


def acceptance_probability(experiment: Experiment) -> Fraction:
    """Exact probability that a run survives the postselection filter."""
    if experiment.postselection is None:
        raise InvalidArgumentsError("experiment has no postselection")
    ordinal, outcome = experiment.postselection
    return probability(experiment, OutcomeAt(ordinal, outcome))


# ---------------------------------------------------------------------------
# Closed-form single-step probability
# ---------------------------------------------------------------------------


def single_step_probability(deck: Deck, preparation: Outcome, outcome: Outcome) -> Fraction:
    """Closed-form chance that the first observation after preparing reports ``outcome``.

    With N copies per value, V values per variable and joint counts N(f·s),
    the formula follows from whether the preparation is negated and whether
    it concerns the outcome's variable:

    * value, same variable:     1 if the labels agree, else 0
    * value, other variable:    (N - joint) / (N (V - 1))
    * negation, same variable:  0 if the labels agree, else 1 / (V - 1)
    * negation, other variable: joint / N

    A negated outcome ~v has the complementary chance 1 - Pr[v].  Raises
    UnknownLabelError when either label is not on the deck.
    """
    deck.check_label(preparation.variable, preparation.label)
    deck.check_label(outcome.variable, outcome.label)
    n = deck.copies_per_value
    v = deck.values_per_variable
    same_variable = preparation.variable == outcome.variable
    same_label = same_variable and preparation.label == outcome.label
    if not preparation.negated and same_variable:
        p = Fraction(1 if same_label else 0)
    elif not preparation.negated:
        p = Fraction(n - deck.joint_count_for(preparation, outcome), n * (v - 1))
    elif same_variable:
        p = Fraction(0) if same_label else Fraction(1, v - 1)
    else:
        p = Fraction(deck.joint_count_for(preparation, outcome), n)
    return 1 - p if outcome.negated else p


# ---------------------------------------------------------------------------
# Mixtures
# ---------------------------------------------------------------------------


class MixtureState(Value):
    """System states combined with positive rational weights summing to one."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[tuple[SystemState, Fraction], ...]) -> None:
        if not components:
            raise WeightsNotNormalizedError("a mixture needs at least one component")
        if any(weight <= 0 for _, weight in components):
            raise WeightsNotNormalizedError("mixture weights must be positive")
        total = sum(weight for _, weight in components)
        if total != 1:
            raise WeightsNotNormalizedError(f"mixture weights sum to {total}, not 1")
        Value.__init__(self, components)


def mixture_combine(mixture: MixtureState) -> SystemState:
    """Merge a mixture into one enlarged [These | Others] partition.

    Components are scaled by weight times the least common multiple of the
    weight denominators (keeping multiplicities integral) and their pile
    counts added; the result lives on the correspondingly scaled deck.  For
    components with equal-size These piles (e.g. value preparations of one
    variable) the merged state's step distributions equal the weighted
    average of the component step distributions.
    """
    states = [state for state, _ in mixture.components]
    deck = states[0].deck
    if any(state.deck != deck for state in states):
        raise InvalidArgumentsError("mixture components must share one deck")
    if any(state.memory != states[0].memory for state in states):
        raise InvalidArgumentsError("mixture components must share the memory variable")

    scale = math.lcm(*(weight.denominator for _, weight in mixture.components))
    if scale == 1 and len(states) == 1:
        return states[0]
    these = [0] * len(deck.cells)
    for state, weight in mixture.components:
        factor = int(weight * scale)
        these = [t + factor * n for t, n in zip(these, state.these)]
    return SystemState(deck=deck.scaled(scale), these=tuple(these), memory=states[0].memory)


# ---------------------------------------------------------------------------
# Text syntax shared with the CLI
# ---------------------------------------------------------------------------
#
#   preparation / outcome:  Var=Value   or  Var=~Value
#   manifestation:          Var         (complete)  or  Var?Value  (partial)
#   outcome reference:      [ordinal:]Var=Value — without the ordinal it
#                           resolves to the unique observation of Var.


def parse_target(deck: Deck, text: str) -> Outcome:
    """Parse ``Var=Value`` / ``Var=~Value`` into an outcome or preparation target."""
    variable, sep, label = text.partition("=")
    if not sep or not variable or not label:
        raise InvalidArgumentsError(f"expected Var=Value or Var=~Value, got {text!r}")
    negated = label.startswith("~")
    if negated:
        label = label[1:]
    return deck.outcome(variable.strip(), label.strip(), negated)


def parse_manifestation(deck: Deck, text: str) -> Manifestation:
    """Parse ``Var`` (complete) or ``Var?Value`` (partial) into a manifestation."""
    variable, sep, label = text.partition("?")
    partial_on = label.strip() if sep else None
    deck.column(variable.strip(), partial_on)
    return Manifestation(variable.strip(), partial_on)


def parse_outcome_reference(
    deck: Deck, manifestations: Sequence[Manifestation], text: str
) -> tuple[int, Outcome]:
    """Parse ``[ordinal:]Var=Value`` against the experiment's event list."""
    ordinal_text, sep, rest = text.partition(":")
    if sep:
        try:
            ordinal = int(ordinal_text)
        except ValueError:
            raise InvalidArgumentsError(f"ordinal {ordinal_text!r} is not an integer") from None
        outcome = parse_target(deck, rest)
    else:
        outcome = parse_target(deck, text)
        matches = [
            i for i, m in enumerate(manifestations, start=1) if m.variable == outcome.variable
        ]
        if not matches:
            raise InvalidArgumentsError(f"no observation of {outcome.variable!r} to resolve {text!r} against")
        if len(matches) > 1:
            raise InvalidArgumentsError(
                f"{outcome.variable!r} is observed at ordinals {matches}; prefix one, e.g. '{matches[0]}:{text}'"
            )
        ordinal = matches[0]
    return ordinal, outcome


def experiment_from_options(
    deck: Deck,
    prepare_text: str,
    observe_texts: Sequence[str],
    postselect_text: str | None = None,
) -> Experiment:
    """Assemble an experiment from the CLI's textual pieces."""
    preparation = parse_target(deck, prepare_text)
    parsed = {text: parse_manifestation(deck, text) for text in dict.fromkeys(observe_texts)}
    manifestations = tuple(map(parsed.__getitem__, observe_texts))
    postselection = None
    if postselect_text is not None:
        postselection = parse_outcome_reference(deck, manifestations, postselect_text)
    return Experiment(deck, preparation, manifestations, postselection)
