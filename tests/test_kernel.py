"""The compiled kernel against the deck's rules, and forward queries against enumeration."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_tree
from test_deck import balanced_decks
from threebox import deck as deck_module
from threebox import exact
from threebox import kernel as kernel_module
from threebox.deck import Manifestation, Outcome, observe, prepare, step_distribution, validate_deck
from threebox.errors import UndefinedConditionalError
from threebox.exact import (
    AllOf,
    AnyOf,
    Experiment,
    Negation,
    OutcomeAt,
    acceptance_probability,
    conditional_probability,
    leaf_distribution,
    parse_manifestation,
    probability,
    retrodict_exact,
)
from threebox.montecarlo import RunConfig, simulate


def out(deck, variable, label, negated=False):
    return deck.outcome(variable, label, negated)


@st.composite
def experiments(draw, max_events=6, max_scale=1, min_events=0):
    """A random balanced deck scaled by up to ``max_scale``, a preparation,
    ``min_events`` to ``max_events`` events and maybe a postselection."""
    deck = draw(balanced_decks(max_scale))
    variables = (deck.face, deck.suit)
    variable = draw(st.sampled_from(variables))
    preparation = Outcome(variable.name, draw(st.sampled_from(variable.labels)), draw(st.booleans()))
    events = []
    for _ in range(draw(st.integers(min_events, max_events))):
        observed = draw(st.sampled_from(variables))
        events.append(Manifestation(observed.name, draw(st.sampled_from((None,) + observed.labels))))
    postselection = None
    if events and draw(st.booleans()):
        ordinal = draw(st.integers(1, len(events)))
        postselection = (ordinal, draw(st.sampled_from(events[ordinal - 1].outcomes(deck))))
    return Experiment(deck, preparation, tuple(events), postselection)


def leaf_sum(leaves, predicate):
    return sum((p for seq, p in leaves.items() if predicate(seq)), Fraction(0))


def patterns(experiment):
    """Random patterns over the experiment's events, from all three combinators and their atoms."""
    events = experiment.manifestations
    atoms = st.integers(1, len(events)).flatmap(
        lambda ordinal: st.sampled_from(events[ordinal - 1].outcomes(experiment.deck)).map(
            lambda outcome: OutcomeAt(ordinal, outcome)
        )
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(lambda ps: AllOf(tuple(ps))),
            st.lists(children, max_size=3).map(lambda ps: AnyOf(tuple(ps))),
            children.map(Negation),
        ),
        max_leaves=8,
    )


def _ints_only(value):
    """Whether ``value`` is built of tuples and ints alone, with no ``Fraction`` anywhere in it."""
    if isinstance(value, tuple):
        return all(map(_ints_only, value))
    return type(value) is int


@settings(max_examples=80, deadline=None)
@given(experiments(max_scale=10**5))
def test_kernel_rows_equal_the_step_distribution_of_every_reachable_state(experiment):
    kernel = experiment.kernel
    assert len(kernel.layers) == len(kernel.events) + 1
    assert kernel.layers[0] == (prepare(experiment.deck, experiment.preparation),)
    for depth, (manifestation, event) in enumerate(zip(experiment.manifestations, kernel.events)):
        assert event.outcomes == manifestation.outcomes(experiment.deck)
        assert all(isinstance(outcome, Outcome) for outcome in event.outcomes)
        assert _ints_only((event.rows, event.pool_sizes, event.runs, event.denominator))
        assert event.denominator == math.lcm(*event.pool_sizes)
        assert len(event.rows) == len(kernel.layers[depth])
        reached = set()
        for s, state in enumerate(kernel.layers[depth]):
            rows, pool_size = event.rows[s], event.pool_sizes[s]
            assert len(rows) == len(event.outcomes)
            shares = [(outcome, Fraction(w, event.denominator)) for outcome, (w, _) in zip(event.outcomes, rows)]
            assert shares == list(step_distribution(state, manifestation).items())
            assert sum(w for w, _ in rows) == event.denominator
            for outcome, (_, t) in zip(event.outcomes, rows):
                assert kernel.layers[depth + 1][t] == state.after_report(outcome)
                reached.add(t)
            assert pool_size == sum(state.pool_for(manifestation.variable))
            assert sum(n for n, _ in event.runs[s]) == pool_size
            start = 0
            for n, k in event.runs[s]:
                # Every index of a small pool; the first and last of each run of a large one.
                for i in range(start, start + n) if pool_size <= 64 else {start, start + n - 1}:
                    outcome, after = observe(state, manifestation, lambda _, i=i: i)
                    assert event.outcomes[k] == outcome
                    assert kernel.layers[depth + 1][rows[k][1]] == after
                start += n
        assert reached == set(range(len(kernel.layers[depth + 1])))


@settings(max_examples=80, deadline=None)
@given(experiments(), st.data())
def test_forward_queries_equal_the_leaf_sums_of_the_enumeration(experiment, data):
    leaves = leaf_distribution(experiment)
    assert sum(leaves.values()) == 1
    events = experiment.manifestations
    for ordinal, manifestation in enumerate(events, start=1):
        for outcome in manifestation.outcomes(experiment.deck):
            expected = leaf_sum(leaves, lambda seq: seq[ordinal - 1] == outcome)
            assert probability(experiment, OutcomeAt(ordinal, outcome)) == expected
    if len(events) >= 2:
        first, second = sorted(data.draw(st.lists(st.integers(1, len(events)), min_size=2, max_size=2, unique=True)))
        a = data.draw(st.sampled_from(events[first - 1].outcomes(experiment.deck)))
        b = data.draw(st.sampled_from(events[second - 1].outcomes(experiment.deck)))
        joint = AllOf((OutcomeAt(first, a), OutcomeAt(second, b)))
        expected = leaf_sum(leaves, lambda seq: seq[first - 1] == a and seq[second - 1] == b)
        assert probability(experiment, joint) == expected
    if events:
        target, condition = data.draw(patterns(experiment)), data.draw(patterns(experiment))
        assert probability(experiment, target) == leaf_sum(leaves, target.matches)
        conditioning = leaf_sum(leaves, condition.matches)
        if conditioning == 0:
            with pytest.raises(UndefinedConditionalError):
                conditional_probability(experiment, target, condition)
        else:
            hits = leaf_sum(leaves, lambda seq: target.matches(seq) and condition.matches(seq))
            assert conditional_probability(experiment, target, condition) == hits / conditioning
    assert probability(experiment, AllOf(())) == 1
    assert probability(experiment, AnyOf(())) == 0
    if experiment.postselection is None:
        return
    ps_ordinal, ps_outcome = experiment.postselection
    accepted = leaf_sum(leaves, lambda seq: seq[ps_ordinal - 1] == ps_outcome)
    assert acceptance_probability(experiment) == accepted
    for ordinal in range(1, ps_ordinal):
        for outcome in events[ordinal - 1].outcomes(experiment.deck):
            if accepted == 0:
                with pytest.raises(UndefinedConditionalError):
                    retrodict_exact(experiment, ordinal, outcome)
                continue
            hits = leaf_sum(leaves, lambda seq: seq[ps_ordinal - 1] == ps_outcome and seq[ordinal - 1] == outcome)
            assert retrodict_exact(experiment, ordinal, outcome) == hits / accepted


def test_compile_cost_does_not_grow_with_the_deck_size(monkeypatch):
    """A transition re-prepares the deck once per outcome, not once per card of the pool."""
    calls = []
    original = deck_module.prepare
    monkeypatch.setattr(deck_module, "prepare", lambda *args: calls.append(args) or original(*args))
    counts = []
    for copies in (1, 1000):
        deck = validate_deck([(face, suit, copies) for face in "KQ" for suit in "SH"])
        events = (Manifestation("Suit"), Manifestation("Face"), Manifestation("Suit", "S"))
        calls.clear()
        Experiment(deck, out(deck, "Face", "Q"), events).kernel
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_a_compile_re_prepares_each_reported_outcome_once(threebox, monkeypatch):
    """512 alternating Suit/Face events report six distinct outcomes: six re-preparations and the preparation."""
    calls = []
    original = deck_module.prepare
    monkeypatch.setattr(deck_module, "prepare", lambda *args: calls.append(args) or original(*args))
    monkeypatch.setattr(kernel_module, "prepare", deck_module.prepare)
    events = tuple(Manifestation(("Suit", "Face")[k % 2]) for k in range(512))
    kernel = Experiment(threebox, out(threebox, "Face", "Q"), events).kernel
    reported = {outcome for event in kernel.events for outcome in event.outcomes}
    assert len(reported) == 6
    assert len(calls) <= len(reported) + 1
    assert {target for _, target in calls} <= reported | {out(threebox, "Face", "Q")}


def test_compiling_the_readme_experiment_tests_cells_not_cards(monkeypatch):
    """Preparing and re-preparing test each cell of the deck against the target, not each card."""
    calls = []
    original = Outcome.matches
    monkeypatch.setattr(Outcome, "matches", lambda *args: calls.append(args) or original(*args))
    counts = []
    for copies in (1, 1000):
        deck = validate_deck([(face, suit, copies) for face in "KQ" for suit in "SH"])
        experiment = exact.experiment_from_options(deck, "Face=Q", ["Suit?S", "Face"], "Face=K")
        calls.clear()
        experiment.kernel
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_compiling_the_readme_experiment_builds_no_outcome_per_cell(threebox, monkeypatch):
    """Each cell's outcome is a position worked out from its label; no cell builds an ``Outcome``."""
    calls = []
    original = Manifestation.outcome_for
    monkeypatch.setattr(Manifestation, "outcome_for", lambda *args: calls.append(args) or original(*args))
    experiment = exact.experiment_from_options(threebox, "Face=Q", ["Suit?S", "Face"], "Face=K")
    assert len(experiment.kernel.events) == 2
    assert calls == []


@settings(max_examples=80, deadline=None)
@given(experiments(min_events=1))
def test_each_cell_position_names_the_outcome_its_label_reports(experiment):
    deck = experiment.deck
    for manifestation in experiment.manifestations:
        outcomes = manifestation.outcomes(deck)
        column = deck.column(manifestation.variable)
        expected = tuple(outcomes.index(manifestation.outcome_for(label)) for label in column)
        assert manifestation.positions(deck) == expected


def test_the_three_box_deck_has_few_reachable_states(threebox):
    for alternation in (("Suit", "Face"), ("Suit", "Face?K"), ("Suit?S", "Suit", "Face?Q", "Face")):
        events = tuple(parse_manifestation(threebox, alternation[k % len(alternation)]) for k in range(64))
        experiment = Experiment(threebox, out(threebox, "Face", "Q"), events)
        assert max(len(layer) for layer in experiment.kernel.layers) <= 12


def test_depth_64_retrodiction_matches_the_closed_form(threebox):
    """Alternating complete Suit/Face checks from Q, keeping a final K, retrodict S to
    (2·4^(k-1)+1)/(2·(4^k-1)) at depth 2k."""
    for depth in (2, 4, 6, 8, 64, 512, 2048):
        k = depth // 2
        events = tuple(Manifestation(("Suit", "Face")[i % 2]) for i in range(depth))
        experiment = Experiment(
            threebox, out(threebox, "Face", "Q"), events, postselection=(depth, out(threebox, "Face", "K"))
        )
        expected = Fraction(2 * 4 ** (k - 1) + 1, 2 * (4**k - 1))
        assert retrodict_exact(experiment, 1, out(threebox, "Suit", "S")) == expected


@pytest.mark.parametrize("alternation", [("Suit", "Face"), ("Suit?S", "Face")])
def test_repeated_layers_share_one_compiled_event(threebox, alternation):
    def kernel(depth):
        events = tuple(parse_manifestation(threebox, alternation[k % 2]) for k in range(depth))
        return Experiment(threebox, out(threebox, "Face", "Q"), events).kernel

    deep, shallow = kernel(2048), kernel(64)
    assert len({id(event) for event in deep.events}) <= 3
    assert deep.events[:64] == shallow.events
    assert deep.layers[:65] == shallow.layers


def test_depth_64_patterns_with_disjunction_and_negation_are_exact(threebox):
    events = tuple(Manifestation(("Suit", "Face")[i % 2]) for i in range(64))
    experiment = Experiment(threebox, out(threebox, "Face", "Q"), events)
    k, s = out(threebox, "Face", "K"), out(threebox, "Suit", "S")
    a = OutcomeAt(1, s) & ~OutcomeAt(64, k)
    b = AnyOf((OutcomeAt(2, k), OutcomeAt(33, s))) & ~OutcomeAt(40, k)
    for pattern in (a, b, a | b, a & b, ~a):
        assert isinstance(probability(experiment, pattern), Fraction)
    assert probability(experiment, a | b) == probability(experiment, a) + probability(experiment, b) - probability(
        experiment, a & b
    )
    assert probability(experiment, ~a) == 1 - probability(experiment, a)
    assert 0 < probability(experiment, a & b) < probability(experiment, a | b) < 1


def test_general_patterns_enumerate_and_conflicting_atoms_give_zero(threebox):
    experiment = Experiment(
        threebox, out(threebox, "Face", "Q"), (Manifestation("Suit"), Manifestation("Face"))
    )
    k = out(threebox, "Face", "K")
    h_or_d = OutcomeAt(1, out(threebox, "Suit", "H")) | OutcomeAt(1, out(threebox, "Suit", "D"))
    assert conditional_probability(experiment, OutcomeAt(2, k), h_or_d) == Fraction(1, 6)
    # Two atoms at one ordinal cannot both hold, however long the experiment.
    s, not_s = out(threebox, "Suit", "S"), out(threebox, "Suit", "S", negated=True)
    for events in (1, 10):
        partial = Experiment(threebox, out(threebox, "Face", "Q"), (Manifestation("Suit", "S"),) * events)
        assert conditional_probability(partial, OutcomeAt(1, s), OutcomeAt(1, not_s)) == 0
        assert probability(partial, AllOf((OutcomeAt(1, s), OutcomeAt(1, not_s)))) == 0


def test_one_compile_per_experiment_shared_by_every_engine(threebox, monkeypatch):
    compiles = []
    original = exact.Kernel

    def counting(*args):
        compiles.append(args)
        return original(*args)

    monkeypatch.setattr(exact, "Kernel", counting)

    def spade_check():
        return Experiment(
            threebox,
            out(threebox, "Face", "Q"),
            (Manifestation("Suit", "S"), Manifestation("Face")),
            postselection=(2, out(threebox, "Face", "K")),
        )

    experiment = spade_check()
    simulate(RunConfig(experiment, 50, 3))
    assert retrodict_exact(experiment, 1, out(threebox, "Suit", "S")) == 1
    assert acceptance_probability(experiment) == Fraction(1, 8)
    enumerate_tree(experiment)
    assert len(compiles) == 1
    # No cache keyed on the experiment's value: an equal experiment compiles anew.
    again = spade_check()
    assert again == experiment
    acceptance_probability(again)
    assert len(compiles) == 2
