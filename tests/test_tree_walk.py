"""The memoised leaf walk against the branch-tree oracle, and the CLI's tree output built from it."""

import csv
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings

from oracles import enumerate_tree
from test_kernel import experiments
from threebox import cli
from threebox.deck import Manifestation, Outcome, validate_deck
from threebox.deckfile import save_deck
from threebox.errors import SequenceTooLongError
from threebox.exact import (
    AnyOf,
    Experiment,
    OutcomeAt,
    acceptance_probability,
    experiment_from_options,
    format_fraction,
    leaf_distribution,
    probability,
    tree_blocks,
    tree_header,
)


def out(deck, variable, label, negated=False):
    return deck.outcome(variable, label, negated)


def leaves(experiment, unit=lambda ordinal, outcome: (outcome,), empty=()):
    """Every leaf of the walk as ``(key, numerator, denominator)``: each block's tails after its head."""
    return [(head + tail, n, d) for head, block in tree_blocks(experiment, unit, empty) for tail, n, d in zip(*block)]


def oracle_report(experiment):
    """The experiment's tree report, leaves from the branch-tree oracle so the walk is not compared with itself."""
    report = tree_header(experiment)
    report["leaves"] = [
        {"outcomes": [str(o) for o in leaf.outcomes], "probability": format_fraction(leaf.probability)}
        for leaf in enumerate_tree(experiment).leaves()
    ]
    if experiment.postselection is not None:
        report["acceptance_probability"] = format_fraction(acceptance_probability(experiment))
    return report


def csv_text(report):
    """The ``--csv`` tree listing ``csv.writer`` makes of the report's leaves."""
    out = io.StringIO()
    rows = [(" ".join(leaf["outcomes"]), leaf["probability"]) for leaf in report["leaves"]]
    csv.writer(out, lineterminator="\n").writerows([("outcomes", "probability"), *rows])
    return out.getvalue()


def text_lines(report):
    """The lines of the text tree report ``threebox exact`` prints for the report."""
    lines = [f"{' '.join(leaf['outcomes']) or '(no events)'}: {leaf['probability']}" for leaf in report["leaves"]]
    if "acceptance_probability" in report:
        lines.append(f"acceptance: {report['acceptance_probability']}")
    return lines


@settings(max_examples=120, deadline=None)
@given(experiments())
def test_walk_leaves_equal_the_enumerated_leaves_in_order(experiment):
    oracle = [(leaf.outcomes, leaf.probability) for leaf in enumerate_tree(experiment).leaves()]
    walked = leaves(experiment)
    assert [key for key, _, _ in walked] == [outcomes for outcomes, _ in oracle]
    assert [(n, d) for _, n, d in walked] == [(p.numerator, p.denominator) for _, p in oracle]
    # The unit sees each outcome with its own ordinal; string keys concatenate the same way.
    numbered = leaves(experiment, lambda ordinal, outcome: ((ordinal, outcome),))
    assert [key for key, _, _ in numbered] == [tuple(enumerate(outcomes, start=1)) for outcomes, _ in oracle]
    spelled = leaves(experiment, lambda ordinal, outcome: f"{outcome};", "")
    assert [key for key, _, _ in spelled] == ["".join(f"{o};" for o in outcomes) for outcomes, _ in oracle]
    assert leaf_distribution(experiment) == dict(oracle)


def test_a_zero_event_tree_has_one_certain_leaf(threebox):
    experiment = Experiment(threebox, out(threebox, "Face", "Q"))
    assert leaves(experiment) == [((), 1, 1)]
    assert leaf_distribution(experiment) == {(): 1}
    assert [leaf.outcomes for leaf in enumerate_tree(experiment).leaves()] == [()]


def test_prefixes_of_equal_probability_share_one_reduced_block(threebox):
    events = tuple(Manifestation(("Suit", "Face")[k % 2]) for k in range(8))
    experiment = Experiment(threebox, out(threebox, "Face", "Q"), events, (8, out(threebox, "Face", "K")))
    blocks = list(tree_blocks(experiment, lambda ordinal, outcome: (outcome,), ()))
    assert len(blocks) == 81
    assert len({id(block) for _, block in blocks}) <= 15
    flattened = [(head + tail, n, d) for head, block in blocks for tail, n, d in zip(*block)]
    assert len(flattened) == 3**8
    assert sum(Fraction(n, d) for _, n, d in flattened) == 1
    assert all(math.gcd(n, d) == 1 for _, n, d in flattened)


def test_every_tree_consumer_keeps_the_event_cap(threebox):
    experiment = Experiment(threebox, out(threebox, "Face", "Q"), (Manifestation("Suit"),) * 9)
    for consume in (
        leaf_distribution,
        lambda e: tree_blocks(e, lambda ordinal, outcome: (outcome,), ()),
    ):
        with pytest.raises(SequenceTooLongError):
            consume(experiment)
    # Pattern queries run forward, so the cap does not reach them.
    assert probability(experiment, AnyOf((OutcomeAt(1, out(threebox, "Suit", "S")),))) == Fraction(1, 4)


# Labels that JSON must escape (a quote, a backslash, a non-ASCII letter), the
# quote one that CSV must quote too, on the three-box card layout.  A comma,
# which CSV also quotes, is a character no label may hold.
FACES = ("é", '"', "\\")
SUITS = ("S", "D", "H")


@pytest.fixture
def escaping_deck_file(tmp_path):
    k, q, j = FACES
    s, d, h = SUITS
    deck = validate_deck(
        [(k, h, 2), (q, s, 1), (q, d, 1), (j, s, 1), (j, d, 1)], face_labels=FACES, suit_labels=SUITS
    )
    path = tmp_path / "escaping.deck"
    save_deck(deck, path)
    return deck, str(path)


@pytest.mark.parametrize("events", [(), ("Suit",), ("Suit", "Face"), ("Suit?D", "Face", "Suit", "Face?é")])
def test_tree_output_equals_the_report_dumped_whole(capsys, escaping_deck_file, events):
    deck, path = escaping_deck_file
    postselect = [f"{len(events)}:Face=é"] if events and events[-1].startswith("Face") else []
    experiment = experiment_from_options(deck, 'Face="', events, *postselect)
    report = oracle_report(experiment)
    argv = ["exact", "--deck", path, "--prepare", 'Face="', *(a for e in events for a in ("--observe", e))]
    argv += [a for p in postselect for a in ("--postselect", p)]

    assert cli.main([*argv, "--json"]) == 0
    printed = capsys.readouterr().out
    assert printed == json.dumps(report, indent=2) + "\n"
    assert '"preparation": "\\""' in printed
    if "Face" in events:
        assert all(escaped in printed for escaped in ('"\\u00e9"', '"\\""', '"\\\\"'))

    assert cli.main([*argv, "--csv"]) == 0
    printed = capsys.readouterr().out
    assert printed == csv_text(report)
    if not events:
        assert printed == "outcomes,probability\n,1/1\n"
    # A quote quotes its whole key: in a block tail with two events, in a prefix head with four.
    assert {2: '\n"S """,1/16\n', 4: '\n"D "" S é",1/128\n'}.get(len(events), "") in printed

    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "\n".join(text_lines(report)) + "\n"


# At 4 events or more the walk has several prefixes, and prefixes of equal
# probability at one middle state share a block of leaves.
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiments(min_events=4))
def test_tree_output_on_random_decks_equals_the_oracle_report(capsys, tmp_path_factory, experiment):
    path = tmp_path_factory.mktemp("deck") / "random.deck"
    save_deck(experiment.deck, path)
    preparation = experiment.preparation
    argv = ["exact", "--deck", str(path), "--prepare", f"{preparation.variable}={preparation}"]
    argv += [a for m in experiment.manifestations for a in ("--observe", str(m))]
    if experiment.postselection is not None:
        ordinal, outcome = experiment.postselection
        argv += ["--postselect", f"{ordinal}:{outcome.variable}={outcome}"]
    report = oracle_report(experiment)

    assert cli.main([*argv, "--json"]) == 0
    assert capsys.readouterr().out == json.dumps(report, indent=2) + "\n"
    assert cli.main([*argv, "--csv"]) == 0
    assert capsys.readouterr().out == csv_text(report)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "\n".join(text_lines(report)) + "\n"

