"""Command-line interface.

Subcommands: ``validate`` (deck files), ``exact`` (rational queries),
``simulate`` (seeded Monte Carlo), ``formula`` (bare retrodiction
arithmetic), ``quantum`` (states, ABL rules, slit geometry), and
``scenario`` (the named worked examples).

Exit codes: 0 success (all claims passing), 1 a scenario claim failed,
2 usage or validation error.  Output is deterministic for fixed arguments
and seed; rationals print as ``num/den``, floats with 12 significant digits.

A handler imports the modules its subcommand needs beyond the exact engine,
so ``validate``, ``exact``, ``formula`` and ``quantum`` run without loading
numpy; only ``simulate``, and a ``scenario`` that answers a Monte Carlo
claim, load it.  Exact values print in full, however many digits they have.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as encode_string
from typing import TYPE_CHECKING, Callable

from .deck import format_cards
from .deckfile import load_deck
from .errors import NoAcceptedTrialsError, ThreeBoxError
from .exact import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    OutcomeAt,
    acceptance_probability,
    experiment_from_options,
    format_float,
    format_fraction,
    parse_outcome_reference,
    probability,
    retrodict_exact,
    tree_blocks,
    tree_header,
)

if TYPE_CHECKING:
    from .quantum import QState

# The sorted names of :data:`threebox.scenarios.SCENARIOS`, the parser's
# choices, spelled out so that building the parser loads no scenario code.
SCENARIO_NAMES = ("aad", "counterfactual", "interference", "three-box-card", "three-box-quantum")

# How a text report labels the outcome sequence of an experiment with no events.
_NO_EVENTS = "(no events)"


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for string dict keys, each scalar formatted by the C encoder.

    With an indent, ``json.dumps`` runs the pure-Python encoder, whose
    closures form reference cycles: each call would leave cyclic garbage.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        items = [encode_string(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    return encode_string(value) if isinstance(value, str) else json.dumps(value)


def _emit(report: dict, args: argparse.Namespace, text: str) -> None:
    """Print a report as JSON, CSV, or the plain ``text``."""
    if getattr(args, "json", False):
        print(_json(report))
    elif getattr(args, "csv", False):
        print(_to_csv(report), end="")
    else:
        print(text)


def _csv(rows) -> str:
    """CSV text of the rows, one line each; a field holding a comma or a quote is quoted."""
    import csv  # here, not at the top: loading it in every run costs about 0.2 MiB of peak RSS

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


def _to_csv(report: dict) -> str:
    """Flatten a report's tabular part into CSV rows."""
    if "sequences" in report:
        return _csv(
            [
                ("outcomes", "count", "frequency", "standard_error"),
                *(
                    (" ".join(row["outcomes"]), row["count"], row["frequency"], row["standard_error"])
                    for row in report["sequences"]
                ),
            ]
        )
    if "claims" in report:
        lines = ["description,expected,mode,computed,passed"]
        for claim in report["claims"]:
            computed = "; ".join(f"{k}={v}" for k, v in claim["computed"].items())
            lines.append(
                f"{_quoted(claim['description'])},{_quoted(claim['expected'])},{claim['mode']},"
                f"{_quoted(computed)},{claim['passed']}"
            )
        return "\n".join(lines) + "\n"
    return _csv(_flatten(report))


def _flatten(report: dict | list, prefix: str = "") -> list[tuple[str, object]]:
    """``(key, value)`` pairs of a report, nested values spelled out as ``outer.inner`` and ``outer.0`` keys."""
    pairs = []
    for key, value in report.items() if isinstance(report, dict) else enumerate(report):
        if isinstance(value, (dict, list)):
            pairs.extend(_flatten(value, f"{prefix}{key}."))
        else:
            pairs.append((f"{prefix}{key}", value))
    return pairs


def _write_blocks(blocks, opening: str, leaf: Callable[[str, int, int], str], separator: str) -> None:
    """Write every leaf of :func:`~threebox.exact.tree_blocks` to stdout, ``separator`` between leaves.

    A leaf is ``opening + head + leaf(tail, n, d)``.  Each distinct block's
    ``leaf`` suffixes are formatted once, and each prefix's leaves are joined
    in one call and written as one piece, so no string of the whole listing
    is built.
    """
    write = sys.stdout.write
    formatted: dict[int, tuple[tuple, list[str]]] = {}  # by block identity; the block is kept alive with it
    between = ""
    for head, block in blocks:
        if id(block) not in formatted:
            formatted[id(block)] = block, list(map(leaf, *block))
        start = opening + head
        write(between + start + (separator + start).join(formatted[id(block)][1]))
        between = separator


def _print_tree_json(report: dict, experiment) -> None:
    """Print ``json.dumps(report, indent=2)`` of a tree report whose ``leaves`` are still empty, leaves filled in.

    The leaves are written from the walk's blocks, each label encoded once
    and each distinct block's leaf endings formatted once; the rest of the
    report goes through :func:`_json` and is written around them.  The
    blocks are requested before anything is written, so a tree beyond the
    event cap prints nothing.
    """
    encoded = functools.cache(encode_string)
    last = len(experiment.manifestations)

    def unit(ordinal: int, outcome) -> str:
        before = "\n        " if ordinal == 1 else ",\n        "
        return before + encoded(str(outcome)) + ("\n      " if ordinal == last else "")

    blocks = tree_blocks(experiment, unit, "")
    head, _, tail = _json(report).partition('"leaves": []')
    sys.stdout.write(head + '"leaves": [\n    ')
    _write_blocks(
        blocks,
        '{\n      "outcomes": [',
        lambda tail, n, d: f'{tail}],\n      "probability": "{n}/{d}"\n    }}',
        ",\n    ",
    )
    sys.stdout.write("\n  ]" + tail + "\n")


def _text_unit(ordinal: int, outcome) -> str:
    """An outcome in a text or CSV leaf key: labels separated by single spaces."""
    return str(outcome) if ordinal == 1 else f" {outcome}"


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit a JSON report")
    group.add_argument("--csv", action="store_true", help="emit CSV rows")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as error:
        raise ThreeBoxError(f"{text!r} is not a rational number: {error}") from None


def _parse_amplitude(text: str) -> complex:
    """A complex amplitude such as ``0.5``, ``1-2i`` or ``1j``; only a trailing ``i`` means ``j``."""
    text = text.strip()
    try:
        return complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError as error:
        raise ThreeBoxError(f"bad amplitude {text!r}: {error}") from None


def _parse_state(text: str) -> QState:
    from .quantum import QState

    return QState.normalized([_parse_amplitude(part) for part in text.split(",")])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    deck = load_deck(args.deck)
    report = {
        "valid": True,
        "variables": [
            {"name": deck.face.name, "values": list(deck.face.labels)},
            {"name": deck.suit.name, "values": list(deck.suit.labels)},
        ],
        "cards": deck.size,
        "values_per_variable": deck.values_per_variable,
        "copies_per_value": deck.copies_per_value,
        "deck": format_cards(deck.cells, deck.counts),
    }
    text = (
        f"valid deck: {{{report['deck']}}} "
        f"({deck.size} cards, {deck.values_per_variable} values per variable, "
        f"{deck.copies_per_value} copies per value)"
    )
    _emit(report, args, text)
    return 0


def _build_experiment(args: argparse.Namespace):
    deck = load_deck(args.deck)
    return deck, experiment_from_options(deck, args.prepare, args.observe or [], args.postselect)


def _query(experiment, text: str):
    """The ``--query`` as ``(ordinal, outcome)``, checked as a retrodiction when postselecting, before any run."""
    ordinal, outcome = parse_outcome_reference(experiment.deck, experiment.manifestations, text)
    if experiment.postselection is not None:
        experiment.check_retrodiction(ordinal, outcome)
    else:
        experiment.check_outcome_at(ordinal, outcome, "query")
    return ordinal, outcome


def _cmd_exact(args: argparse.Namespace) -> int:
    deck, experiment = _build_experiment(args)
    if args.query is not None:
        ordinal, outcome = _query(experiment, args.query)
        if experiment.postselection is not None:
            value = retrodict_exact(experiment, ordinal, outcome)
            kind = "retrodiction"
        else:
            value = probability(experiment, OutcomeAt(ordinal, outcome))
            kind = "probability"
        report = {
            "query": {"ordinal": ordinal, "outcome": str(outcome)},
            "kind": kind,
            "value": format_fraction(value),
        }
        _emit(report, args, format_fraction(value))
        return 0
    report = tree_header(experiment)
    if experiment.postselection is not None:
        report["acceptance_probability"] = format_fraction(acceptance_probability(experiment))
    if args.json:
        _print_tree_json(report, experiment)
        return 0
    blocks = tree_blocks(experiment, _text_unit, "")
    if args.csv:
        if '"' in "".join(deck.face.labels + deck.suit.labels):
            # csv.writer quotes a key holding a quote, whole, its quotes doubled (no label holds a comma
            # or whitespace); that turns on head and tail both, so on such a deck each key is built whole.
            blocks = (
                ("", (tuple(_quoted(key) if '"' in key else key for key in map(head.__add__, tails)), ns, ds))
                for head, (tails, ns, ds) in blocks
            )
        sys.stdout.write("outcomes,probability\n")
        _write_blocks(blocks, "", lambda tail, n, d: f"{tail},{n}/{d}", "\n")
        sys.stdout.write("\n")
        return 0
    # Only the tree of no events has an empty tail, and its head is empty too.
    _write_blocks(blocks, "", lambda tail, n, d: f"{tail or _NO_EVENTS}: {n}/{d}", "\n")
    if "acceptance_probability" in report:
        sys.stdout.write(f"\nacceptance: {report['acceptance_probability']}")
    sys.stdout.write("\n")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    _, experiment = _build_experiment(args)
    query = None if args.query is None else _query(experiment, args.query)
    from .montecarlo import RunConfig, simulate

    table = simulate(RunConfig(experiment, args.trials, args.seed))
    report = table.to_dict()
    if query is not None:
        ordinal, outcome = query
        if experiment.postselection is not None:
            try:
                estimate = table.retrodiction(ordinal, outcome)
            except NoAcceptedTrialsError:  # a valid request whose run kept no trial
                value = error = None
            else:
                value, error = format_float(estimate.estimate), format_float(estimate.standard_error)
            report["retrodiction"] = {
                "outcome": str(outcome),
                "estimate": value,
                "standard_error": error,
                "accepted": table.accepted,
            }
        else:
            frequency = table.marginal_frequency(ordinal, outcome)
            report["marginal"] = {"outcome": str(outcome), "frequency": format_float(frequency)}
    lines = [
        f"{' '.join(row['outcomes']) or _NO_EVENTS}: {row['count']} ({row['frequency']})"
        for row in report["sequences"]
    ]
    if "acceptance_rate" in report:
        lines.append(f"accepted: {report['accepted']} (rate {report['acceptance_rate']})")
    if "retrodiction" in report:
        r = report["retrodiction"]
        if r["estimate"] is None:
            lines.append(f"retrodiction of {r['outcome']}: undecided (no accepted trials)")
        else:
            lines.append(f"retrodiction of {r['outcome']}: {r['estimate']} ± {r['standard_error']}")
    if "marginal" in report:
        lines.append(f"frequency of {report['marginal']['outcome']}: {report['marginal']['frequency']}")
    _emit(report, args, "\n".join(lines))
    return 0


def _cmd_formula(args: argparse.Namespace) -> int:
    from .formulas import RetrodictionInputs, retrodict_complete, retrodict_partial

    if args.kind == "partial":
        value = retrodict_partial(
            RetrodictionInputs(
                likelihood=_parse_fraction(args.likelihood),
                prior=_parse_fraction(args.prior),
                likelihood_negation=_parse_fraction(args.likelihood_negation),
                prior_negation=_parse_fraction(args.prior_negation),
            )
        )
    else:
        likelihoods = [_parse_fraction(x) for x in args.likelihoods.split(",")]
        priors = [_parse_fraction(x) for x in args.priors.split(",")]
        value = retrodict_complete(likelihoods, priors, args.index)
    _emit({"kind": args.kind, "value": format_fraction(value)}, args, format_fraction(value))
    return 0


def _cmd_quantum(args: argparse.Namespace) -> int:
    from . import quantum

    if args.operation in ("abl-complete", "abl-partial"):
        state = _parse_state(args.state)
        post = _parse_state(args.post)
        basis = (
            [quantum.QState.basis_state(state.dimension, k) for k in range(state.dimension)]
            if args.basis is None
            else [_parse_state(part) for part in args.basis.split(";")]
        )
        fn = quantum.abl_complete if args.operation == "abl-complete" else quantum.abl_partial
        value = fn(state, basis, args.index, post)
        report = {"operation": args.operation, "index": args.index, "value": format_float(value)}
        _emit(report, args, format_float(value))
    elif args.operation == "born":
        value = quantum.born_probability(_parse_state(args.state), _parse_state(args.post))
        _emit({"operation": "born", "value": format_float(value)}, args, format_float(value))
    elif args.operation == "condition":
        state = _parse_state(args.state)
        post = _parse_state(args.post)
        basis = [quantum.QState.basis_state(3, k) for k in range(3)]
        result = quantum.threebox_condition_check(state, post, basis)
        _emit({"operation": "condition", "value": result}, args, str(result).lower())
    elif args.operation == "slits":
        geometry = quantum.three_slit_design(args.separation, args.wavelength)
        report = {
            "operation": "slits",
            "separation": format_float(geometry.separation),
            "wavelength": format_float(geometry.wavelength),
            "distance": format_float(geometry.distance),
            "amplitude_pattern": [format_float(round(a.real, 12)) for a in geometry.detector_state().amplitudes],
        }
        _emit(report, args, f"detector distance: {format_float(geometry.distance)}")
    else:  # aad
        analysis = quantum.aad_analysis(_parse_amplitude(args.alpha), _parse_amplitude(args.beta))
        report = {
            "operation": "aad",
            "partial": format_float(analysis.partial_result),
            "complete": format_float(analysis.complete_result),
        }
        _emit(report, args, f"partial: {report['partial']}\ncomplete: {report['complete']}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .scenarios import run_scenario

    report = run_scenario(args.name, trials=args.trials, seed=args.seed)
    payload = report.to_dict()
    lines = [f"scenario {report.name}: {'PASS' if report.passed else 'FAIL'}"]
    for claim in report.claims:
        status = "PASS" if claim.passed else "FAIL"
        computed = "; ".join(f"{route}={value}" for route, value in claim.computed.items())
        lines.append(f"  [{status}] {claim.description} | expected {claim.expected} | {computed}")
    _emit(payload, args, "\n".join(lines))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every call of :func:`main`."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by its name."""
    parser = argparse.ArgumentParser(
        prog="threebox",
        description="Card-deck and quantum retrodiction engines for pre/post-selected runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a deck schema file")
    p.add_argument("--deck", required=True, help="deck schema file")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_validate)

    for name, handler, help_text in (
        ("exact", _cmd_exact, "exact rational probabilities via full enumeration"),
        ("simulate", _cmd_simulate, "seeded Monte Carlo frequencies"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--deck", required=True, help="deck schema file")
        p.add_argument("--prepare", required=True, metavar="VAR=VALUE", help="preparation, e.g. Face=Q or Suit=~S")
        p.add_argument(
            "--observe",
            action="extend",
            nargs="+",
            metavar="VAR[?VALUE]",
            help="observation events, in order; VAR alone is complete, VAR?VALUE partial (repeatable)",
        )
        p.add_argument("--postselect", metavar="[ORD:]VAR=VALUE", help="accept only runs with this outcome")
        p.add_argument("--query", metavar="[ORD:]VAR=VALUE", help="outcome to score (retrodiction if postselecting)")
        if name == "simulate":
            p.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="number of trials")
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="64-bit stream seed")
        _add_format_flags(p)
        p.set_defaults(handler=handler)

    p = sub.add_parser("formula", help="retrodiction formulas on bare rationals")
    p.set_defaults(handler=_cmd_formula)
    formula_sub = p.add_subparsers(dest="kind", required=True)
    fp = formula_sub.add_parser("partial", help="value-or-not retrodiction")
    fp.add_argument("--likelihood", required=True, help="Pr[final | value], e.g. 1/2")
    fp.add_argument("--prior", required=True, help="Pr[value]")
    fp.add_argument("--likelihood-negation", required=True, dest="likelihood_negation")
    fp.add_argument("--prior-negation", required=True, dest="prior_negation")
    _add_format_flags(fp)
    fc = formula_sub.add_parser("complete", help="complete-observation retrodiction")
    fc.add_argument("--likelihoods", required=True, help="comma-separated rationals")
    fc.add_argument("--priors", required=True, help="comma-separated rationals summing to 1")
    fc.add_argument("--index", type=int, required=True, help="0-based value index")
    _add_format_flags(fc)

    p = sub.add_parser("quantum", help="states, ABL retrodiction, slit geometry")
    p.set_defaults(handler=_cmd_quantum)
    quantum_sub = p.add_subparsers(dest="operation", required=True)
    for op, help_text in (
        ("abl-complete", "complete-observation retrodiction"),
        ("abl-partial", "partial-observation retrodiction"),
    ):
        qp = quantum_sub.add_parser(op, help=help_text)
        qp.add_argument("--state", required=True, help="pre state: comma-separated complex amplitudes")
        qp.add_argument("--post", required=True, help="post state amplitudes")
        qp.add_argument("--index", type=int, required=True, help="0-based basis index to retrodict")
        qp.add_argument("--basis", help="semicolon-separated basis states (default: computational)")
        _add_format_flags(qp)
    for op, help_text in (
        ("born", "|<post|state>|^2"),
        ("condition", "two-boxes-certain condition check (dimension 3)"),
    ):
        qp = quantum_sub.add_parser(op, help=help_text)
        qp.add_argument("--state", required=True)
        qp.add_argument("--post", required=True)
        _add_format_flags(qp)
    qp = quantum_sub.add_parser("slits", help="three-slit geometry for the half-wavelength condition")
    qp.add_argument("--separation", type=float, required=True)
    qp.add_argument("--wavelength", type=float, required=True)
    _add_format_flags(qp)
    qp = quantum_sub.add_parser("aad", help="shared-eigenstate partial vs complete retrodiction")
    qp.add_argument("--alpha", default="0.7071067811865476")
    qp.add_argument("--beta", default="0.7071067811865476")
    _add_format_flags(qp)

    p = sub.add_parser("scenario", help="run a named worked example")
    p.add_argument("name", choices=SCENARIO_NAMES, help="scenario name")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="Monte Carlo trials (0 to skip)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="64-bit stream seed")
    _add_format_flags(p)
    p.set_defaults(handler=_cmd_scenario)

    return parser, sub.choices


# The options whose value is a list of amplitudes, which may start with a minus sign.
_AMPLITUDE_OPTIONS = ("--state", "--post", "--basis", "--alpha", "--beta")
# How an amplitude list with a leading minus sign starts.
_NEGATIVE_STARTS = frozenset("-" + c for c in "0123456789.")


def _joined(argv: list[str], fold: bool) -> list[str]:
    """``argv`` with negative amplitudes attached, as ``--state=-1,1``, and with ``fold``, ``--observe`` runs folded.

    argparse reads ``--state -1,1`` or ``--beta -0.8i`` as two options; the
    option may be abbreviated to a prefix of just one name, such as ``--stat``.
    argparse parses ``n`` repeated options in time ``n**2``, so each run of
    ``--observe X`` pairs before any ``--``, with no ``X`` starting with ``-``,
    becomes one ``--observe`` followed by every ``X``.
    """
    joined: list[str] = []
    run = False  # joined ends with an --observe and the values it reads
    for i, token in enumerate(argv):
        fold = fold and token != "--"
        folds = fold and token == "--observe" and argv[i + 1 : i + 2] and not argv[i + 1].startswith("-")
        if folds and run:
            continue
        run = folds or run and not token.startswith("-")
        option = joined[-1] if token[:2] in _NEGATIVE_STARTS and joined and joined[-1].startswith("--") else ""
        if option and sum(name.startswith(option) for name in _AMPLITUDE_OPTIONS) == 1:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args`` of ``argv`` joined, parsed by the parser of the subcommand it names.

    The top-level parser would classify every token before that parser reads
    them again, so it parses only help and a missing or unknown subcommand.
    """
    parser, commands = _parsers()
    name = argv[0] if argv else None
    argv = _joined(argv, name in ("exact", "simulate"))  # the subcommands that take --observe
    command = commands.get(name)
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=name))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    # Exact values are printed in full, however many digits they have: lift the
    # interpreter's int-to-str digit limit, where it has one, while the call runs.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return args.handler(args)
    except (ThreeBoxError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
