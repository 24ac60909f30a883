"""Write bench/expected.json, the stored answers the benchmark checks ops against.

The answers come from the package's Python API, not from the CLI that the
benchmark times, so each op's report is compared with a second route:

* exact-deep: the retrodiction, the acceptance probability, the leaf count
  and a digest of the leaf table of every experiment, as exact rationals;
* simulate: the outcome counts at the CLI's default seed (the stream is
  bit-exact, so they repeat exactly);
* scenarios: every claim's description and computed values at the default
  seed, and how many Monte Carlo runs each scenario makes.

Run from the repository root: ``python3 bench/make_expected.py``.
"""

from __future__ import annotations

import json
import sys

from workload import (
    ALTERNATIONS,
    DECK,
    DEFAULT_SEED,
    EXPECTED,
    ROOT,
    SCENARIO_DEFAULT_TRIALS,
    SCENARIO_NAMES,
    SIMULATE_EVENTS,
    SIZES,
    leaf_digest,
)

sys.path.insert(0, str(ROOT / "src"))

from threebox.deckfile import load_deck  # noqa: E402
from threebox.exact import (  # noqa: E402
    acceptance_probability,
    experiment_from_options,
    format_fraction,
    leaf_distribution,
    parse_outcome_reference,
    retrodict_exact,
)
from threebox.montecarlo import RunConfig, simulate  # noqa: E402
from threebox.scenarios import run_scenario  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> None:
    deck = load_deck(DECK)
    exact = {}
    for depth in SIZES["full"]["depths"]:
        for alternation in ALTERNATIONS:
            events = [alternation[i % 2] for i in range(depth)]
            experiment = experiment_from_options(deck, "Face=Q", events, f"{depth}:Face=K")
            ordinal, outcome = parse_outcome_reference(deck, experiment.manifestations, "1:Suit=S")
            leaves = {" ".join(map(str, seq)): p for seq, p in leaf_distribution(experiment).items()}
            exact[f"{'-'.join(alternation)}-d{depth}"] = {
                "retrodiction": format_fraction(retrodict_exact(experiment, ordinal, outcome)),
                "acceptance": format_fraction(acceptance_probability(experiment)),
                "leaves": len(leaves),
                "leaf_digest": leaf_digest(leaves),
            }

    experiment = experiment_from_options(deck, "Face=Q", SIMULATE_EVENTS, "Face=K")
    simulate_counts = {}
    for size in SIZES.values():
        table = simulate(RunConfig(experiment, size["simulate_trials"], DEFAULT_SEED))
        simulate_counts[str(table.trials)] = {" ".join(map(str, seq)): n for seq, n in sorted(table.counts.items(), key=str)}

    scenario_claims = {}
    for size in SIZES.values():
        trials = size["scenario_trials"] or SCENARIO_DEFAULT_TRIALS
        scenario_claims[str(trials)] = {
            name: [[claim.description, claim.computed] for claim in run_scenario(name, trials, DEFAULT_SEED).claims]
            for name in SCENARIO_NAMES
        }

    mc_runs = {}
    for name in SCENARIO_NAMES:
        with Tracer() as tracer:
            run_scenario(name, SIZES["smoke"]["scenario_trials"], DEFAULT_SEED)
        mc_runs[name] = tracer.layer_metrics()["montecarlo.runs"]

    document = {
        "exact": exact,
        "simulate_counts": simulate_counts,
        "scenario_claims": scenario_claims,
        "scenario_mc_runs": mc_runs,
    }
    EXPECTED.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
