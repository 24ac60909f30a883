"""What a call loads: the exact, quantum and unsampled scenario paths run without numpy or dataclasses, the sampling
paths load numpy but no dataclasses, and the package exports its names lazily."""

import argparse
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import threebox
from threebox import cli, scenarios

ROOT = Path(__file__).resolve().parent.parent
DECK = str(ROOT / "decks" / "threebox.deck")
HEAVY = ("numpy", "threebox.montecarlo", "threebox.rng", "threebox.quantum", "threebox.scenarios")
# What ``dataclass`` needs: on the exact path, value types are plain ``__slots__`` classes.
CLASS_MACHINERY = ("dataclasses", "inspect")

# Run in a fresh interpreter with the CLI arguments; with "setup" to import the
# CLI, build its parser and load a deck, which is what every call pays first;
# or with none to import the package alone.  Its last line names the heavy
# modules and the class machinery then loaded.
PROBE = """
import contextlib, io, sys
if sys.argv[1:] == ["setup"]:
    import threebox.cli
    threebox.cli.build_parser()
    threebox.cli.load_deck(%r)
elif sys.argv[1:]:
    import threebox.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert threebox.cli.main(sys.argv[1:]) == 0
else:
    import threebox
print(" ".join(m for m in %r if m in sys.modules))
""" % (DECK, HEAVY + CLASS_MACHINERY)

EXACT = [
    "exact", "--deck", DECK, "--prepare", "Face=Q",
    "--observe", "Suit?S", "--observe", "Face", "--postselect", "Face=K", "--query", "Suit=S",
]
FORMULA = [
    "formula", "partial", "--likelihood", "1/2", "--prior", "1/4",
    "--likelihood-negation", "0", "--prior-negation", "3/4",
]
SLITS = ["quantum", "slits", "--separation", "10", "--wavelength", "1", "--json"]
ABL_PARTIAL = ["quantum", "abl-partial", "--state", "1,1,1", "--post", "1,1,-1", "--index", "0"]
# The quantum subcommand loads its own module, and nothing else of the heavy ones.
QUANTUM = ["threebox.quantum"]
# A scenario that samples nothing loads its own module and the quantum one, not the Monte Carlo.
SCENARIO = ["threebox.quantum", "threebox.scenarios"]
UNSAMPLED = {
    "scenario aad": ["scenario", "aad"],
    "scenario three-box-quantum": ["scenario", "three-box-quantum"],
    "scenario three-box-card --trials 0": ["scenario", "three-box-card", "--trials", "0"],
}

# Every name the package exported when it imported all of its modules eagerly, by module,
# less the projector algebra and the branch-tree oracle that only tests used, the card
# type that decks stored as counts no longer need, and the one-leaf-at-a-time walk that
# ``leaf_distribution`` now flattens itself from ``tree_blocks``.
EXPORTS = {
    "deck": "CardValue Deck Manifestation Outcome SystemState Variable format_cards observe prepare "
    "step_distribution validate_deck",
    "deckfile": "load_deck parse_deck save_deck serialize_deck",
    "decks": "three_box_deck two_value_deck",
    "exact": "AllOf AnyOf Experiment MixtureState Negation OutcomeAt Pattern acceptance_probability "
    "conditional_probability format_fraction leaf_distribution mixture_combine probability "
    "retrodict_exact single_step_probability",
    "formulas": "RetrodictionInputs retrodict_complete retrodict_partial",
    "montecarlo": "FrequencyTable RetrodictionEstimate RunConfig run_trial simulate",
    "quantum": "QState SlitGeometry abl_complete abl_partial aad_analysis born_probability three_box_pair "
    "three_slit_design threebox_condition_check",
    "scenarios": "SCENARIOS Claim ScenarioReport run_scenario",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def loaded_after(*argv: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", PROBE, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


@pytest.mark.parametrize(
    "argv, expected",
    [([], []), (EXACT, []), (["validate", "--deck", DECK], []), (FORMULA, []), (SLITS, QUANTUM), (ABL_PARTIAL, QUANTUM),
     *[(argv, SCENARIO) for argv in UNSAMPLED.values()]],
    ids=["import threebox", "exact", "validate", "formula", "quantum slits", "quantum abl-partial", *UNSAMPLED],
)
def test_the_exact_path_loads_no_numpy(argv, expected):
    assert [m for m in loaded_after(*argv) if m in HEAVY] == expected


@pytest.mark.parametrize(
    "argv, expected",
    [(["setup"], []), (EXACT, []), (["validate", "--deck", DECK], []), (FORMULA, []), (SLITS, QUANTUM),
     (ABL_PARTIAL, QUANTUM), *[(argv, SCENARIO) for argv in UNSAMPLED.values()]],
    ids=["cli setup", "exact", "validate", "formula", "quantum slits", "quantum abl-partial", *UNSAMPLED],
)
def test_the_exact_path_creates_no_dataclass(argv, expected):
    assert loaded_after(*argv) == expected


# The sampling paths load numpy, which itself imports ``inspect``, so only ``dataclasses`` is
# guarded there: the Monte Carlo's value types are ``__slots__`` classes and a named tuple.
def test_simulate_loads_numpy():
    argv = ["simulate", *EXACT[1:], "--trials", "1000", "--seed", "7"]
    loaded = loaded_after(*argv)
    assert "numpy" in loaded and "dataclasses" not in loaded


def test_a_sampling_scenario_loads_numpy():
    loaded = loaded_after("scenario", "three-box-card")
    assert "numpy" in loaded and "dataclasses" not in loaded


def test_every_export_is_the_defining_modules_object():
    assert len(NAMES) == 53
    for module, name in NAMES:
        assert getattr(threebox, name) is getattr(importlib.import_module(f"threebox.{module}"), name), name


def test_all_and_dir_list_every_export_and_star_binds_them():
    names = {name for _, name in NAMES}
    assert set(threebox.__all__) == names and len(threebox.__all__) == len(names)
    assert names <= set(dir(threebox))
    namespace = {}
    exec("from threebox import *", namespace)
    assert all(namespace[name] is getattr(threebox, name) for name in names)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        threebox.nonesuch
    assert not hasattr(threebox, "EventRecord")


def test_scenario_choices_are_the_scenario_names():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (name,) = [a for a in sub.choices["scenario"]._actions if a.dest == "name"]
    assert list(name.choices) == sorted(scenarios.SCENARIOS)


SCENARIO_USAGE = """\
usage: threebox scenario [-h] [--trials TRIALS] [--seed SEED] [--json | --csv]
                         {aad,counterfactual,interference,three-box-card,three-box-quantum}
"""


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (
            ["scenario", "--help"],
            0,
            SCENARIO_USAGE
            + """
positional arguments:
  {aad,counterfactual,interference,three-box-card,three-box-quantum}
                        scenario name

options:
  -h, --help            show this help message and exit
  --trials TRIALS       Monte Carlo trials (0 to skip)
  --seed SEED           64-bit stream seed
  --json                emit a JSON report
  --csv                 emit CSV rows
""",
            "",
        ),
        (
            ["scenario", "bogus"],
            2,
            "",
            SCENARIO_USAGE
            + "threebox scenario: error: argument name: invalid choice: 'bogus' (choose from 'aad', "
            "'counterfactual', 'interference', 'three-box-card', 'three-box-quantum')\n",
        ),
    ],
    ids=["help", "bogus"],
)
def test_scenario_help_and_refusal_are_unchanged(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == code
    assert capsys.readouterr() == (out, err)
