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

The names below are exported lazily (PEP 562): ``threebox.<name>`` imports
the one module that defines it on first use, so ``import threebox`` loads
no numpy, and ``import threebox.cli`` loads only ``argparse`` and the deck
modules: neither the exact engine, nor ``json``, nor ``fractions``.
"""

import importlib

__version__ = "0.1.0"

# Every exported name, by the module that defines it.
_EXPORTS = {
    "deck": (
        "Deck",
        "Manifestation",
        "Outcome",
        "SystemState",
        "Variable",
        "format_cards",
        "format_fraction",
        "observe",
        "prepare",
        "step_distribution",
        "validate_deck",
    ),
    "deckfile": ("load_deck", "parse_deck", "save_deck", "serialize_deck"),
    "decks": ("three_box_deck", "two_value_deck"),
    "exact": (
        "AllOf",
        "AnyOf",
        "Experiment",
        "MixtureState",
        "Negation",
        "OutcomeAt",
        "Pattern",
        "acceptance_probability",
        "conditional_probability",
        "leaf_distribution",
        "mixture_combine",
        "probability",
        "retrodict_exact",
        "single_step_probability",
    ),
    "formulas": ("RetrodictionInputs", "retrodict_complete", "retrodict_partial"),
    "montecarlo": ("FrequencyTable", "RetrodictionEstimate", "run_trial", "simulate"),
    "quantum": (
        "QState",
        "SlitGeometry",
        "abl_complete",
        "abl_partial",
        "aad_analysis",
        "born_probability",
        "three_box_pair",
        "three_slit_design",
        "threebox_condition_check",
    ),
    "scenarios": ("SCENARIOS", "Claim", "ScenarioReport", "run_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
