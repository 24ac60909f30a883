"""Named, self-checking reproductions of the worked examples.

Each scenario returns a :class:`ScenarioReport`: a list of claims, every one
carrying the expected value, where that value comes from, the comparison
mode (exact rational, absolute 1e-9, or five standard errors for Monte
Carlo frequencies), and the value computed by each independent route.  A
scenario passes only if every route of every claim agrees.

Every scenario is data: a list of :class:`Exact` and :class:`Sampled` claim
specs that one evaluator answers.  Each route of a claim is a question whose
type names its engine: :class:`Ask` the forward pass (or, in a
:class:`Sampled` claim, a count in the Monte Carlo table), :class:`Step` the
closed form, :class:`RetrodictionInputs` and :class:`Complete` the
retrodiction formulas; any other value, such as a float from the quantum
module, was computed by a procedure and answers itself.  The Monte Carlo
module, and with it numpy, is loaded only when a :class:`Sampled` claim is
answered.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import quantum
from .deck import Deck, Manifestation, Outcome, prepare, step_distribution
from .decks import three_box_deck, two_value_deck
from .errors import InvalidArgumentsError, ZeroAcceptanceError
from .exact import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    AnyOf,
    Experiment,
    MixtureState,
    OutcomeAt,
    Pattern,
    check_seed,
    conditional_probability,
    format_float,
    format_fraction,
    mixture_combine,
    probability,
    single_step_probability,
)
from .formulas import RetrodictionInputs, retrodict_complete, retrodict_partial

MODE_EXACT = "exact"
MODE_ABS = "abs 1e-9"
MODE_FIVE_SE = "5 standard errors"


class Claim(NamedTuple):
    """One checked statement: expected value, provenance, computed routes."""

    description: str
    expected: str
    source: str
    mode: str
    computed: dict[str, str]
    passed: bool


class ScenarioReport(NamedTuple):
    """All claims of one scenario, plus an optional event trace."""

    name: str
    claims: list[Claim]
    trace: list[dict] | None = None

    @property
    def passed(self) -> bool:
        return all(claim.passed for claim in self.claims)

    def to_dict(self) -> dict:
        report = {
            "scenario": self.name,
            "passed": self.passed,
            "claims": [{**claim._asdict(), "computed": dict(claim.computed)} for claim in self.claims],
        }
        if self.trace is not None:
            report["trace"] = self.trace
        return report


class Ask(NamedTuple):
    """The chance of ``target`` in a run of ``experiment``, conditioned on ``given`` if set."""

    experiment: Experiment
    target: Pattern
    given: Pattern | None = None


class Step(NamedTuple):
    """The closed-form chance that the first observation after ``preparation`` reports ``outcome``."""

    deck: Deck
    preparation: Outcome
    outcome: Outcome


class Complete(NamedTuple):
    """The complete-observation retrodiction of value ``position``."""

    likelihoods: tuple[Fraction, ...]
    priors: tuple[Fraction, ...]
    position: int


class Exact(NamedTuple):
    """A claim that every route's question answers ``expected``."""

    description: str
    source: str
    expected: Fraction | float
    routes: dict[str, object]


class Sampled(NamedTuple):
    """A Monte Carlo frequency of ``ask``, checked against its forward pass."""

    description: str
    ask: Ask


def _claim(description: str, source: str, expected: Fraction | float, routes: dict[str, Fraction | float]) -> Claim:
    """Routes must equal a rational ``expected`` exactly, or a float one within 1e-9."""
    if isinstance(expected, Fraction):
        show, mode, agrees = format_fraction, MODE_EXACT, lambda value: value == expected
    else:
        show, mode, agrees = format_float, MODE_ABS, lambda value: abs(value - expected) <= 1e-9
    return Claim(
        description=description,
        expected=show(expected),
        source=source,
        mode=mode,
        computed={route: show(value) for route, value in routes.items()},
        passed=all(agrees(value) for value in routes.values()),
    )


def _bool_claim(description: str, source: str, detail: dict[str, str], passed: bool) -> Claim:
    return Claim(
        description=description,
        expected="true",
        source=source,
        mode=MODE_EXACT,
        computed=detail,
        passed=bool(passed),
    )


def _mc_claim(description: str, exact_value: Fraction, hits: int, samples: int) -> Claim:
    """Compare the empirical frequency ``hits / samples`` against its exact value.

    Degenerate probabilities (0 or 1) must be matched exactly; anything else
    must land within five binomial standard errors, which keeps the false
    alarm rate of a fixed-seed run negligible.  A frequency over no samples
    decides nothing, so its claim is reported as not passed.
    """
    p = float(exact_value)
    degenerate = p in (0.0, 1.0)
    expected = format_float(p)
    if samples == 0:
        computed, passed = "undecided: no samples", False
    else:
        estimate = hits / samples
        computed, passed = format_float(estimate), estimate == p
        if not degenerate:
            se = math.sqrt(p * (1 - p) / samples)
            expected = f"{format_float(p)} ± {format_float(5 * se)}"
            passed = abs(estimate - p) <= 5 * se
    return Claim(
        description=description,
        expected=expected,
        source="exact engine",
        mode=MODE_EXACT if degenerate else MODE_FIVE_SE,
        computed={"monte carlo": computed},
        passed=passed,
    )


def _answer(question):
    """The engine named by the question's type answers it; any other value answers itself.

    Engines are looked up as module globals, so a wrapper put in their place sees every call.
    """
    if isinstance(question, Ask):
        if question.given is None:
            return probability(question.experiment, question.target)
        return conditional_probability(*question)
    if isinstance(question, Step):
        return single_step_probability(*question)
    if isinstance(question, RetrodictionInputs):
        return retrodict_partial(question)
    if isinstance(question, Complete):
        return retrodict_complete(*question)
    return question


def _evaluate(specs: list, trials: int, seed: int, answers: dict | None = None) -> list[Claim]:
    """Answer claim specs in order: each distinct question once, each experiment simulated at most once.

    A :class:`Sampled` spec is checked against the forward pass of its question
    and skipped when ``trials`` is 0; a :class:`Claim` passes through; any other
    spec is called with ``answer`` and returns a claim built from answers.
    ``answers`` maps the questions the caller has already answered to their answers.

    At the first :class:`Sampled` spec, every experiment that a sampled spec
    asks about is simulated in one :func:`threebox.montecarlo.simulate_runs`
    call.  Runs of one seed draw the same words, so that call mixes the trial
    keys and each word once for all of them; a word depends only on (seed,
    trial, word index), so each experiment's counts are those of its own run.
    """
    answers = {} if answers is None else answers
    tables = None

    def answer(question):
        value = answers.get(question)
        if value is None:
            value = answers[question] = _answer(question)
        return value

    claims = []
    for spec in specs:
        if isinstance(spec, Exact):
            routes = {route: answer(question) for route, question in spec.routes.items()}
            claims.append(_claim(spec.description, spec.source, spec.expected, routes))
        elif isinstance(spec, Sampled):
            if trials == 0:
                continue
            if tables is None:
                from .montecarlo import simulate_runs

                sampled = (other.ask.experiment for other in specs if isinstance(other, Sampled))
                experiments = tuple(dict.fromkeys(sampled))
                tables = dict(zip(experiments, simulate_runs(experiments, trials, seed)))
            experiment, target, given = spec.ask
            table = tables[experiment]
            if given is None:
                hits, samples = table.count(target), table.trials
            else:
                hits, samples = table.count(target & given), table.count(given)
            claims.append(_mc_claim(spec.description, answer(spec.ask), hits, samples))
        elif isinstance(spec, Claim):
            claims.append(spec)
        else:
            claims.append(spec(answer))
    return claims


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def three_box_card(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> ScenarioReport:
    """Both partial suit checks are retrodictively certain on the card deck.

    Prepare Face=Q, run a partial check of one suit, observe Face completely,
    and keep only runs ending in K: the checked suit is then certain, whether
    the check was "spade or not" or "diamond or not".  Pass ``trials=0`` to
    skip the Monte Carlo routes.
    """
    deck = three_box_deck()
    prep = deck.outcome("Face", "Q")
    final = deck.outcome("Face", "K")
    ends_in_k = OutcomeAt(2, final)
    specs = []
    for label in "SD":
        suit = deck.outcome("Suit", label)
        not_suit = deck.outcome("Suit", label, negated=True)
        experiment = Experiment(
            deck,
            prep,
            (Manifestation("Suit", label), Manifestation("Face")),
            postselection=(2, final),
        )
        reports = Ask(experiment, OutcomeAt(1, suit))
        retrodiction = Ask(experiment, OutcomeAt(1, suit), ends_in_k)
        inputs = RetrodictionInputs(
            likelihood=single_step_probability(deck, suit, final),
            prior=single_step_probability(deck, prep, suit),
            likelihood_negation=single_step_probability(deck, not_suit, final),
            prior_negation=single_step_probability(deck, prep, not_suit),
        )
        specs += [
            Exact(
                f"the {label}-check reports {label} with chance 1/4 from the prepared Q state",
                "hand count: one matching card among the four unselected",
                Fraction(1, 4),
                {"enumeration": reports, "closed form": Step(deck, prep, suit)},
            ),
            Exact(
                f"the {label}-check reports ~{label} with chance 3/4",
                "complement of the value report",
                Fraction(3, 4),
                {"enumeration": Ask(experiment, OutcomeAt(1, not_suit)), "closed form": Step(deck, prep, not_suit)},
            ),
            Exact(
                f"given the final K, the {label}-check is certain to have reported {label}",
                "the negated branch carries no K, so the competing term vanishes",
                Fraction(1),
                {"enumeration": retrodiction, "retrodiction formula": inputs},
            ),
            Exact(
                f"no K can follow the genuine ~{label} state",
                f"the ~{label} pile's complement holds only {label} cards",
                Fraction(0),
                {
                    "enumeration": Ask(experiment, ends_in_k, OutcomeAt(1, not_suit)),
                    "closed form": Step(deck, not_suit, final),
                },
            ),
            Sampled(f"Monte Carlo frequency of {label} at the check", reports),
            Sampled(
                f"Monte Carlo acceptance rate of the final K filter ({label}-check run)", Ask(experiment, ends_in_k)
            ),
            Sampled(f"Monte Carlo retrodiction of {label} among accepted runs", retrodiction),
        ]
    return ScenarioReport("three-box-card", _evaluate(specs, trials, seed))


def interference_demo(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> ScenarioReport:
    """The genuine negated state differs from the matching mixture.

    A complete suit observation distributes as {S: 1/4, H: 1/2, D: 1/4}, so
    "not spade" arrived as the mixture {(H, 2/3), (D, 1/3)}.  That mixture
    has exactly the same single-step statistics as the genuine ~S state, yet
    a K can follow it (chance 1/6) while no K can ever follow ~S — the card
    system's interference.  Completeness also destroys the certainty: the
    retrodicted suits become {1/2, 0, 1/2}.
    """
    deck = three_box_deck()
    prep = deck.outcome("Face", "Q")
    final = deck.outcome("Face", "K")
    suit_of = {label: deck.outcome("Suit", label) for label in "SHD"}
    experiment = Experiment(
        deck,
        prep,
        (Manifestation("Suit"), Manifestation("Face")),
        postselection=(2, final),
    )
    ends_in_k = OutcomeAt(2, final)
    specs = []

    for label, chance in (("S", Fraction(1, 4)), ("H", Fraction(1, 2)), ("D", Fraction(1, 4))):
        reports = Ask(experiment, OutcomeAt(1, suit_of[label]))
        specs += [
            Exact(
                f"complete suit observation reports {label} with chance {format_fraction(chance)}",
                "hand count over the four unselected cards",
                chance,
                {"enumeration": reports, "closed form": Step(deck, prep, suit_of[label])},
            ),
            Sampled(f"Monte Carlo frequency of {label} under the complete observation", reports),
        ]

    mixture = mixture_combine(
        MixtureState(
            (
                (prepare(deck, suit_of["H"]), Fraction(2, 3)),
                (prepare(deck, suit_of["D"]), Fraction(1, 3)),
            )
        )
    )
    specs.append(
        _bool_claim(
            "the H∨D mixture combines to the partition [(4)KH, QD, JD | (2)KH, (3)QS, (2)QD, (3)JS, (2)JD]",
            "scale the H and D preparations by 2 and 1 and merge",
            {"mixture combination": str(mixture)},
            str(mixture) == "[JD, (4)KH, QD | (2)JD, (3)JS, (2)KH, (2)QD, (3)QS]",
        )
    )

    not_s = deck.outcome("Suit", "S", negated=True)
    partial_experiment = Experiment(
        deck,
        prep,
        (Manifestation("Suit", "S"), Manifestation("Face")),
        postselection=(2, final),
    )
    k_after_not_s = Ask(partial_experiment, ends_in_k, OutcomeAt(1, not_s))
    k_after_mixture = Ask(experiment, ends_in_k, AnyOf((OutcomeAt(1, suit_of["H"]), OutcomeAt(1, suit_of["D"]))))

    indistinguishable = True
    for variable in (deck.face.name, deck.suit.name):
        for label in deck.variable(variable).labels:
            for negated in (False, True):
                target = deck.outcome(variable, label, negated)
                lhs = single_step_probability(deck, target, not_s)
                rhs = single_step_probability(deck, target, suit_of["H"]) + single_step_probability(
                    deck, target, suit_of["D"]
                )
                indistinguishable = indistinguishable and lhs == rhs

    def futures_differ(answer) -> Claim:
        after_not_s, after_mixture = answer(k_after_not_s), answer(k_after_mixture)
        return _bool_claim(
            "the genuine ~S state and the H∨D mixture have different futures",
            "certainty versus 1/6",
            {"~S then K": format_fraction(after_not_s), "H∨D then K": format_fraction(after_mixture)},
            after_not_s != after_mixture,
        )

    specs += [
        Exact(
            "no K can follow the genuine ~S state",
            "the ~S pile's complement holds only spades",
            Fraction(0),
            {"enumeration": k_after_not_s, "closed form": Step(deck, not_s, final)},
        ),
        Exact(
            "a K follows the H∨D mixture with chance 1/6",
            "weighted average 2/3·0 + 1/3·1/2; equally 2 kings among the 12 merged Others",
            Fraction(1, 6),
            {
                "enumeration (conditional on H∨D)": k_after_mixture,
                "combined mixture": step_distribution(mixture, Manifestation("Face"))[final],
            },
        ),
        Sampled("Monte Carlo frequency of K among runs whose suit came out H or D", k_after_mixture),
        futures_differ,
        _bool_claim(
            "single-step statistics cannot tell ~S from H∨D under any preparation",
            "chance of ~S equals chance of H plus chance of D, state by state",
            {"all 12 preparations agree": str(indistinguishable).lower()},
            indistinguishable,
        ),
    ]

    likelihoods = tuple(single_step_probability(deck, suit_of[l], final) for l in "SHD")
    priors = tuple(single_step_probability(deck, prep, suit_of[l]) for l in "SHD")
    retrodictions = [Ask(experiment, OutcomeAt(1, suit_of[l]), ends_in_k) for l in "SHD"]
    for position, (label, expected) in enumerate((("S", Fraction(1, 2)), ("H", Fraction(0)), ("D", Fraction(1, 2)))):
        specs += [
            Exact(
                f"under the complete observation, {label} retrodicts to {format_fraction(expected)}",
                "all three competing terms stay in the denominator",
                expected,
                {
                    "enumeration": retrodictions[position],
                    "retrodiction formula": Complete(likelihoods, priors, position),
                },
            ),
            Sampled(f"Monte Carlo retrodiction of {label} among accepted runs", retrodictions[position]),
        ]

    def certainty_lost(answer) -> Claim:
        values = [answer(question) for question in retrodictions]
        return _bool_claim(
            "completeness destroys the certainty: no suit retrodicts to 1",
            "the largest retrodicted value is 1/2",
            {"retrodictions": ", ".join(format_fraction(value) for value in values)},
            all(value < 1 for value in values),
        )

    specs.append(certainty_lost)
    return ScenarioReport("interference", _evaluate(specs, trials, seed))


def three_box_quantum() -> ScenarioReport:
    """The quantum pair behind the story, checked through the ABL rules."""
    pre, post, basis = quantum.three_box_pair()
    specs = [
        Exact(
            f"opening box {box} alone finds the particle with certainty",
            "the untested amplitude products cancel coherently",
            1.0,
            {"partial retrodiction": quantum.abl_partial(pre, basis, box - 1, post)},
        )
        for box in (1, 2)
    ]
    specs.append(
        Exact(
            "opening box 3 alone scores 1/5",
            "product 1/9 against a coherent remainder of 4/9",
            0.2,
            {"partial retrodiction": quantum.abl_partial(pre, basis, 2, post)},
        )
    )
    specs += [
        Exact(
            f"a complete observation retrodicts box {box} to 1/3",
            "all three amplitude products weigh 1/9",
            1 / 3,
            {"complete retrodiction": quantum.abl_complete(pre, basis, box - 1, post)},
        )
        for box in (1, 2, 3)
    ]
    holds = quantum.threebox_condition_check(pre, post, basis)
    geometry = quantum.three_slit_design(separation=10.0, wavelength=1.0)
    amplitudes = geometry.detector_amplitudes()
    specs += [
        _bool_claim(
            "the pre/post pair satisfies the two-boxes-certain condition",
            "products are (1/3, 1/3, -1/3)",
            {"condition check": str(holds).lower()},
            holds,
        ),
        Exact(
            "slit geometry: the outer path exceeds the middle path by half a wavelength",
            "detector distance a²/λ − λ/4 = 99.75 wavelengths at a = 10λ",
            0.5,
            {"path excess": math.hypot(geometry.distance, geometry.separation) - geometry.distance},
        ),
        Exact(
            "either outer path alone cancels the middle path at the detector",
            "half a wavelength of extra phase flips the sign",
            0.0,
            {
                "slit 1 + slit 3": abs(amplitudes[0] + amplitudes[2]),
                "slit 2 + slit 3": abs(amplitudes[1] + amplitudes[2]),
            },
        ),
        Exact(
            "the detector sees the (1, 1, −1)/√3 amplitude pattern of the post state",
            "overlap magnitude with the post state, phase quotiented",
            1.0,
            {"overlap": abs(geometry.detector_state().inner(post))},
        ),
    ]
    return ScenarioReport("three-box-quantum", _evaluate(specs, 0, DEFAULT_SEED))


def aad_curious(alpha: complex = 1 / math.sqrt(2), beta: complex = 1 / math.sqrt(2)) -> ScenarioReport:
    """Partial checks of two variables sharing an eigenstate agree; complete ones don't.

    With pre (|x1⟩+|x2⟩)/√2 and post (|x2⟩+|x3⟩)/√2, the middle value is
    retrodictively certain under partial checks in both the X basis and the
    rotated basis.  Complete observations split: X still gives 1, the
    rotated basis gives 1/(1+2|αβ|²) < 1 whenever both α and β are nonzero.
    """
    pre, post, x_basis = quantum.shared_eigenstate_pair()
    analysis = quantum.aad_analysis(alpha, beta)
    product = abs(alpha * beta) ** 2
    specs = [
        Exact(
            "partial check of the middle X value is certain",
            "only the shared eigenstate connects pre to post",
            1.0,
            {"partial retrodiction (X basis)": quantum.abl_partial(pre, x_basis, 1, post)},
        ),
        Exact(
            "partial check of the shared value in the rotated basis is equally certain",
            "the two rotated partners cancel coherently for every admissible (α, β)",
            1.0,
            {"partial retrodiction (rotated basis)": analysis.partial_result},
        ),
        Exact(
            "complete observation in the X basis still gives certainty",
            "the outer products vanish separately",
            1.0,
            {"complete retrodiction (X basis)": quantum.abl_complete(pre, x_basis, 1, post)},
        ),
        Exact(
            "complete observation in the rotated basis gives 1/(1+2|αβ|²)",
            "direct evaluation of the complete retrodiction over the rotated basis",
            1 / (1 + 2 * product),
            {"complete retrodiction (rotated basis)": analysis.complete_result},
        ),
    ]
    if product > 0:
        specs.append(
            _bool_claim(
                "the complete rotated-basis result falls strictly below 1",
                "resolving the rotated partners adds their weight incoherently",
                {"complete retrodiction": format_float(analysis.complete_result)},
                analysis.complete_result < 1,
            )
        )
    return ScenarioReport("aad", _evaluate(specs, 0, DEFAULT_SEED))


def counterfactual_trace(
    deck: Deck | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
) -> ScenarioReport:
    """Both prepared and postselected values are "sharp", yet never together.

    Prepare Face=K, later observe Suit and keep only runs ending Suit=H.  An
    intermediate complete Face observation retrodicts K with certainty — but
    the machine's own trace shows the Suit value simply does not exist until
    the Suit event creates it, and the Face value dies at that same moment.

    Raises ZeroAcceptanceError on decks whose K cards carry no hearts (the
    three-box deck is such a deck).
    """
    deck = two_value_deck() if deck is None else deck
    prep = deck.outcome("Face", "K")
    final = deck.outcome("Suit", "H")
    experiment = Experiment(
        deck,
        prep,
        (Manifestation("Face"), Manifestation("Suit")),
        postselection=(2, final),
    )
    # The guard's forward pass is handed to the evaluator, which answers the acceptance claims with it.
    accepts = Ask(experiment, OutcomeAt(2, final))
    answers = {accepts: _answer(accepts)}
    if answers[accepts] == 0:
        raise ZeroAcceptanceError(
            f"postselecting Suit=H never fires on the deck {deck}: "
            "after preparing Face=K, the unselected pile holds no hearts"
        )

    # Walk one accepted branch through the kernel, taking at each event the current state's
    # likeliest accepted row (ties to the outcome's name), and snapshot the machine after every event.
    kernel = experiment.kernel
    s = 0
    snapshots = [_snapshot(deck, "preparation Face=K", None, kernel.layers[0][s])]
    ps_ordinal, ps_outcome = experiment.postselection
    for depth, (manifestation, event) in enumerate(zip(experiment.manifestations, kernel.events), start=1):
        rows = zip(event.outcomes, event.rows[s])
        accepted = [(o, w, t) for o, (w, t) in rows if depth != ps_ordinal or o == ps_outcome]
        outcome, _, s = max(accepted, key=lambda row: (row[1], str(row[0])))
        snapshots.append(
            _snapshot(deck, f"event {depth}: observe {manifestation}", outcome, kernel.layers[depth][s])
        )
    before, after = snapshots[1], snapshots[2]

    retrodiction = Ask(experiment, OutcomeAt(1, prep), OutcomeAt(2, final))
    specs = [
        Exact(
            "an intermediate complete Face observation retrodicts K with certainty",
            "repeated observation draws from the K-only pile",
            Fraction(1),
            {"enumeration": retrodiction},
        ),
        Exact(
            "the Suit=H filter accepts with chance 2/3",
            "two hearts among the three unselected cards",
            Fraction(2, 3),
            {"enumeration": accepts},
        ),
        Sampled("Monte Carlo acceptance rate", accepts),
        Sampled("Monte Carlo retrodiction of K among accepted runs", retrodiction),
        _bool_claim(
            "before the Suit event: memory reads Face, Face is sharp at K, no Suit value exists",
            "machine state inspected from the trace",
            {"snapshot": _describe(before)},
            before["memory"] == "Face"
            and before["values"]["Face"] == "K"
            and before["values"]["Suit"] is None,
        ),
        _bool_claim(
            "after the Suit event: memory reads Suit, Suit is sharp at H, no Face value exists",
            "machine state inspected from the trace",
            {"snapshot": _describe(after)},
            after["memory"] == "Suit"
            and after["values"]["Suit"] == "H"
            and after["values"]["Face"] is None,
        ),
        _bool_claim(
            "the trace holds one snapshot per event plus the preparation",
            "bookkeeping",
            {"snapshots": str(len(snapshots))},
            len(snapshots) == len(experiment.manifestations) + 1,
        ),
    ]
    return ScenarioReport("counterfactual", _evaluate(specs, trials, seed, answers), trace=snapshots)


def _snapshot(deck: Deck, stage: str, outcome: Outcome | None, state) -> dict:
    values = {}
    for variable in (deck.face.name, deck.suit.name):
        sharp = state.sharp_value(variable)
        values[variable] = None if sharp is None else str(sharp)
    return {
        "stage": stage,
        "outcome": None if outcome is None else str(outcome),
        "memory": state.memory,
        "partition": str(state),
        "values": values,
    }


def _describe(snapshot: dict) -> str:
    values = ", ".join(
        f"{variable}={'none' if value is None else value}"
        for variable, value in snapshot["values"].items()
    )
    return f"memory={snapshot['memory']}; {values}; {snapshot['partition']}"


# Every scenario called as ``(trials, seed)``; the quantum ones sample nothing and ignore both.
SCENARIOS = {
    "three-box-card": three_box_card,
    "interference": interference_demo,
    "three-box-quantum": lambda trials, seed: three_box_quantum(),
    "aad": lambda trials, seed: aad_curious(),
    "counterfactual": lambda trials, seed: counterfactual_trace(trials=trials, seed=seed),
}


def run_scenario(name: str, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED) -> ScenarioReport:
    """Run a scenario by CLI name with the Monte Carlo options its sampled claims use.

    ``trials=0`` skips the Monte Carlo routes; a negative count or a seed
    outside [0, 2**64) is rejected whether or not the scenario samples.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from {', '.join(sorted(SCENARIOS))}")
    if trials < 0:
        raise InvalidArgumentsError(f"trials must be 0 (to skip Monte Carlo) or positive, got {trials}")
    check_seed(seed)
    return SCENARIOS[name](trials, seed)
