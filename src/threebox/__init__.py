"""Pre/post-selected retrodiction engines.

A deck of two-mark playing cards, split into These/Others piles with a
one-variable observation memory, reproduces the Three-Box behaviour of
pre- and post-selected quantum runs: two different partial checks each
certain, genuine negated states that interfere with their matching
mixtures, and retrodictive "sharpness" without possessed values.  The
package provides the card machine itself, an exact rational probability
engine over it, a seeded Monte Carlo sampler, the closed-form retrodiction
arithmetic, the quantum (ABL) counterpart, and named scenario reports tying
them together.
"""

from .deck import (
    Card,
    CardValue,
    Deck,
    Manifestation,
    Outcome,
    SystemState,
    Variable,
    format_cards,
    observe,
    prepare,
    step_distribution,
    validate_deck,
)
from .deckfile import load_deck, parse_deck, save_deck, serialize_deck
from .decks import three_box_deck, two_value_deck
from .exact import (
    AllOf,
    AnyOf,
    Branch,
    Experiment,
    MixtureState,
    Negation,
    OutcomeAt,
    Pattern,
    acceptance_probability,
    conditional_probability,
    enumerate_tree,
    format_fraction,
    leaf_distribution,
    mixture_combine,
    probability,
    retrodict_exact,
    single_step_probability,
    tree_leaves,
    tree_report,
)
from .formulas import RetrodictionInputs, retrodict_complete, retrodict_partial
from .montecarlo import (
    FrequencyTable,
    RetrodictionEstimate,
    RunConfig,
    run_trial,
    simulate,
)
from .quantum import (
    Projector,
    QState,
    SlitGeometry,
    abl_complete,
    abl_partial,
    aad_analysis,
    born_probability,
    complement_projector,
    sandwich_probability,
    three_box_pair,
    three_slit_design,
    threebox_condition_check,
)
from .scenarios import SCENARIOS, Claim, ScenarioReport, run_scenario

__version__ = "0.1.0"
