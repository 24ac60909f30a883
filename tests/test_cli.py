"""The command-line surface: wiring, formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import gc
import io
import json
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threebox import cli, scenarios
from threebox.deckfile import serialize_deck
from threebox.scenarios import ScenarioReport, Claim


@pytest.fixture
def deck_file(tmp_path, threebox):
    path = tmp_path / "threebox.deck"
    path.write_text(serialize_deck(threebox), encoding="utf-8")
    return str(path)


@pytest.fixture
def bad_deck_file(tmp_path):
    path = tmp_path / "bad.deck"
    path.write_text(
        "variable Face: K Q\nvariable Suit: S H\ncard K S 2\ncard K H 1\ncard Q S 1\ncard Q H 1\n",
        encoding="utf-8",
    )
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_huge_multiplicity_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.deck"
        path.write_text(
            "variable Face: K Q\nvariable Suit: S H\ncard K S 1000000000000\ncard Q H 1000000000000\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "validate", "--deck", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "at most" in err

    def test_valid_deck(self, capsys, deck_file):
        code, out, _ = run(capsys, "validate", "--deck", deck_file)
        assert code == 0
        assert "valid deck" in out and "(2)KH" in out

    def test_unbalanced_deck_exits_2(self, capsys, bad_deck_file):
        code, out, err = run(capsys, "validate", "--deck", bad_deck_file)
        assert code == 2
        assert "appears" in err

    def test_a_label_the_syntax_would_misread_exits_2(self, capsys, tmp_path):
        path = tmp_path / "negated.deck"
        path.write_text("variable Face: ~Q K\nvariable Suit: S H\ncard ~Q S 1\ncard K H 1\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", "--deck", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: name or label '~Q'") and err.count("\n") == 1

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "--deck", "/no/such/file.deck")
        assert code == 2

    def test_json_report(self, capsys, deck_file):
        code, out, _ = run(capsys, "validate", "--deck", deck_file, "--json")
        report = json.loads(out)
        assert report["values_per_variable"] == 3
        assert report["copies_per_value"] == 2


def test_csv_spells_lists_out_as_indexed_keys(capsys, deck_file):
    code, out, _ = run(capsys, "validate", "--deck", deck_file, "--csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and all(len(row) == 2 for row in rows)
    fields = dict(rows)
    assert fields["variables.0.name"] == "Face" and fields["variables.0.values.1"] == "Q"
    assert fields["variables.1.values.2"] == "H"
    assert fields["deck"] == "JD, JS, (2)KH, QD, QS"
    code, out, _ = run(capsys, "quantum", "slits", "--separation", "10", "--wavelength", "1", "--csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and all(len(row) == 2 for row in rows)
    fields = dict(rows)
    assert [fields[f"amplitude_pattern.{k}"] for k in range(3)] == ["0.57735026919", "0.57735026919", "-0.57735026919"]
    assert "amplitude_pattern.3" not in fields


class TestExact:
    def test_certain_retrodiction_prints_one_over_one(self, capsys, deck_file):
        code, out, _ = run(
            capsys,
            "exact", "--deck", deck_file,
            "--prepare", "Face=Q",
            "--observe", "Suit?S", "--observe", "Face",
            "--postselect", "Face=K",
            "--query", "Suit=S",
        )
        assert code == 0
        assert out.strip() == "1/1"

    def test_marginal_query_without_postselection(self, capsys, deck_file):
        code, out, _ = run(
            capsys,
            "exact", "--deck", deck_file,
            "--prepare", "Face=Q", "--observe", "Suit?S", "--query", "Suit=~S",
        )
        assert code == 0
        assert out.strip() == "3/4"

    def test_leaf_listing_with_acceptance(self, capsys, deck_file):
        code, out, _ = run(
            capsys,
            "exact", "--deck", deck_file,
            "--prepare", "Face=Q",
            "--observe", "Suit?S", "--observe", "Face",
            "--postselect", "Face=K",
        )
        assert code == 0
        assert "S K: 1/8" in out
        assert "acceptance: 1/8" in out

    def test_csv_rows(self, capsys, deck_file):
        code, out, _ = run(
            capsys,
            "exact", "--deck", deck_file,
            "--prepare", "Face=Q", "--observe", "Suit?S", "--csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "outcomes,probability"
        assert "~S,3/4" in out

    def test_query_csv_has_one_field_per_key(self, capsys, deck_file):
        code, out, _ = run(
            capsys,
            "exact", "--deck", deck_file,
            "--prepare", "Face=Q", "--observe", "Suit?S", "--observe", "Face",
            "--postselect", "Face=K", "--query", "Suit=S", "--csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(row) == 2 for row in rows)
        assert dict(rows) == {
            "query.ordinal": "1",
            "query.outcome": "S",
            "kind": "retrodiction",
            "value": "1/1",
        }

    def test_depth_64_query(self, capsys, deck_file):
        observe = [arg for k in range(64) for arg in ("--observe", ("Suit", "Face")[k % 2])]
        code, out, err = run(
            capsys,
            "exact", "--deck", deck_file, "--prepare", "Face=Q", *observe,
            "--postselect", "64:Face=K", "--query", "1:Suit=S",
        )
        assert (code, err) == (0, "")
        k = 32
        expected = Fraction(2 * 4 ** (k - 1) + 1, 2 * (4**k - 1))
        assert out == f"{expected.numerator}/{expected.denominator}\n"

    @pytest.mark.parametrize("form", [[], ["--csv"], ["--json"]], ids=["text", "csv", "json"])
    def test_tree_beyond_the_cap_exits_2(self, capsys, deck_file, form):
        observe = [arg for k in range(9) for arg in ("--observe", ("Suit", "Face")[k % 2])]
        code, out, err = run(capsys, "exact", "--deck", deck_file, "--prepare", "Face=Q", *observe, *form)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_query_exits_2(self, capsys, deck_file):
        code, _, err = run(
            capsys,
            "exact", "--deck", deck_file,
            "--prepare", "Face=Q", "--observe", "Suit?S", "--query", "Face=K",
        )
        assert code == 2
        assert "no observation" in err


@pytest.mark.parametrize("command", ["exact", "simulate"])
@pytest.mark.parametrize(
    "postselect, query", [("1:Suit=S", "1:Suit=S"), ("1:Suit=S", "2:Face=K"), ("2:Face=K", "2:Face=K")]
)
def test_query_at_or_after_the_postselection_exits_2(capsys, deck_file, command, postselect, query):
    code, out, err = run(
        capsys,
        command, "--deck", deck_file, "--prepare", "Face=Q", "--observe", "Suit", "--observe", "Face",
        "--postselect", postselect, "--query", query,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must precede the postselection" in err


@pytest.mark.parametrize("command", ["exact", "simulate"])
@pytest.mark.parametrize(
    "observe, query",
    [("Face", "1:Face=~Q"), ("Suit?S", "1:Suit=H"), ("Suit?S", "1:Suit=~H"), ("Suit", "2:Suit=S")],
)
def test_query_the_event_cannot_report_exits_2(capsys, deck_file, command, observe, query):
    code, out, err = run(
        capsys, command, "--deck", deck_file, "--prepare", "Face=~Q", "--observe", observe, "--query", query
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


class TestSimulate:
    def test_runs_are_byte_identical(self, capsys, deck_file):
        argv = (
            "simulate", "--deck", deck_file,
            "--prepare", "Face=Q",
            "--observe", "Suit?S", "--observe", "Face",
            "--postselect", "Face=K",
            "--query", "Suit=S",
            "--trials", "2000", "--seed", "7", "--json",
        )
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        report = json.loads(out_a)
        assert report["trials"] == 2000
        assert report["retrodiction"]["estimate"] == "1"

    def test_text_output(self, capsys, deck_file):
        code, out, _ = run(
            capsys,
            "simulate", "--deck", deck_file,
            "--prepare", "Face=Q", "--observe", "Suit?S",
            "--trials", "100", "--seed", "3",
        )
        assert code == 0
        assert "S:" in out

    def test_no_events_is_labelled_as_exact_labels_it(self, capsys, deck_file):
        argv = ("--deck", deck_file, "--prepare", "Face=Q")
        assert run(capsys, "exact", *argv)[:2] == (0, "(no events): 1/1\n")
        assert run(capsys, "simulate", *argv, "--trials", "3")[:2] == (0, "(no events): 3 (1.0)\n")

    def test_more_than_2_to_the_64_trials_exits_2_before_any_trial(self, capsys, deck_file, monkeypatch):
        from threebox import montecarlo

        monkeypatch.setattr(montecarlo, "_walk", lambda *args: pytest.fail("a trial ran"))
        code, out, err = run(
            capsys,
            "simulate", "--deck", deck_file, "--prepare", "Face=Q", "--observe", "Suit",
            "--trials", str(2**64 + 1),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "2**64 trials" in err

    @pytest.mark.parametrize(
        "postselect, query, message",
        [
            (("--postselect", "Face=K"), "Nope=K", "unknown variable 'Nope'"),
            (("--postselect", "Face=K"), "2:Face=K", "must precede the postselection"),
            (("--postselect", "Face=K"), "1:Suit=H", "reports only S or ~S"),
            ((), "2:Face=Z", "has no value 'Z'"),
            ((), "3:Face=K", "does not name a manifestation"),
        ],
        ids=["unknown variable", "at the postselection", "unreported outcome", "unknown label", "no such event"],
    )
    def test_a_bad_query_exits_2_before_the_run(self, capsys, deck_file, monkeypatch, postselect, query, message):
        from threebox import montecarlo

        monkeypatch.setattr(montecarlo, "simulate", lambda *run: pytest.fail("the run started"))
        code, out, err = run(
            capsys,
            "simulate", "--deck", deck_file, "--prepare", "Face=Q", "--observe", "Suit?S", "--observe", "Face",
            *postselect, "--trials", "50000000", "--query", query,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2(self, capsys, deck_file, seed):
        code, out, err = run(
            capsys,
            "simulate", "--deck", deck_file, "--prepare", "Face=Q", "--observe", "Suit", "--seed", seed,
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "seed" in err


class TestFormula:
    def test_partial(self, capsys):
        code, out, _ = run(
            capsys,
            "formula", "partial",
            "--likelihood", "1/2", "--prior", "1/4",
            "--likelihood-negation", "0", "--prior-negation", "3/4",
        )
        assert code == 0
        assert out.strip() == "1/1"

    def test_complete(self, capsys):
        code, out, _ = run(
            capsys,
            "formula", "complete",
            "--likelihoods", "1/2,0,1/2", "--priors", "1/4,1/2,1/4", "--index", "0",
        )
        assert code == 0
        assert out.strip() == "1/2"

    def test_bad_rational_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "formula", "partial",
            "--likelihood", "x", "--prior", "1/4",
            "--likelihood-negation", "0", "--prior-negation", "3/4",
        )
        assert code == 2

    def test_zero_denominator_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "formula", "partial",
            "--likelihood", "0", "--prior", "1/4",
            "--likelihood-negation", "0", "--prior-negation", "3/4",
        )
        assert code == 2
        assert "probability zero" in err

    def test_a_value_past_the_int_digit_limit_prints_in_full(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, _ = run(
            capsys, "formula", "complete", "--likelihoods", "1e5000,1", "--priors", "1/2,1/2", "--index", "1"
        )
        assert code == 0
        assert out == "1/1" + "0" * 4999 + "1\n"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_a_refusal_quoting_a_long_value_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "formula", "partial",
            "--likelihood", "1e5000", "--prior", "1/2",
            "--likelihood-negation", "0", "--prior-negation", "1/2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: likelihood = 1" + "0" * 5000) and err.count("\n") == 1

    @pytest.mark.parametrize("literal", ["1e30000000", "1E-30000000", "1e1000000"])
    def test_a_huge_exponent_is_refused_before_the_value_is_built(self, capsys, literal):
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "formula", "partial",
            "--likelihood", literal, "--prior", "1",
            "--likelihood-negation", "0", "--prior-negation", "0",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {literal!r} is not a rational number") and err.count("\n") == 1


class TestQuantum:
    def test_abl_partial(self, capsys):
        code, out, _ = run(
            capsys,
            "quantum", "abl-partial", "--state", "1,1,1", "--post", "1,1,-1", "--index", "0",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_abl_complete_with_explicit_basis(self, capsys):
        code, out, _ = run(
            capsys,
            "quantum", "abl-complete", "--state", "1,1,1", "--post", "1,1,-1",
            "--index", "2", "--basis", "1,0,0;0,1,0;0,0,1",
        )
        assert code == 0
        assert out.strip() == "0.333333333333"

    def test_born(self, capsys):
        code, out, _ = run(capsys, "quantum", "born", "--state", "1,1,1", "--post", "1,1,-1")
        assert code == 0
        assert out.strip() == "0.111111111111"

    def test_condition(self, capsys):
        code, out, _ = run(capsys, "quantum", "condition", "--state", "1,1,1", "--post", "1,1,-1")
        assert code == 0
        assert out.strip() == "true"

    def test_condition_json(self, capsys):
        code, out, _ = run(capsys, "quantum", "condition", "--state", "1,1,1", "--post", "1,1,-1", "--json")
        assert code == 0
        assert json.loads(out)["value"] is True

    def test_slits(self, capsys):
        code, out, _ = run(
            capsys, "quantum", "slits", "--separation", "10", "--wavelength", "1", "--json"
        )
        assert code == 0
        assert json.loads(out)["distance"] == "99.75"

    def test_aad(self, capsys):
        code, out, _ = run(capsys, "quantum", "aad", "--json")
        report = json.loads(out)
        assert report["partial"] == "1"
        assert report["complete"] == "0.666666666667"

    @pytest.mark.parametrize(
        "argv",
        [
            ("aad", "--alpha", "foo"),
            ("aad", "--beta", "1+"),
            ("aad", "--alpha", "nan"),
            ("aad", "--alpha", "1e200"),
            ("slits", "--separation", "nan", "--wavelength", "1"),
            ("slits", "--separation", "inf", "--wavelength", "1"),
            ("slits", "--separation", "10", "--wavelength", "nan"),
            ("slits", "--separation", "1e200", "--wavelength", "1"),
            ("born", "--state", "1,nan", "--post", "1,0"),
            ("born", "--state", "1,0", "--post", "nan,1"),
            ("born", "--state", "1,inf", "--post", "1,0"),
        ],
    )
    def test_bad_or_non_finite_input_exits_2_without_a_warning(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "quantum", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("born", "--state", "1,inf", "--post", "1,0"), "error: amplitudes must be finite"),
            (("aad", "--alpha", "inf"), "error: |α|² + |β|² = inf, not 1\n"),
        ],
    )
    def test_infinite_amplitude_is_read_as_infinite(self, capsys, argv, message):
        code, _, err = run(capsys, "quantum", *argv)
        assert code == 2
        assert err.startswith(message)

    @pytest.mark.parametrize("state", ["1e-200,1e-200", "1e200,1e200", "1e308+1e308i,1e308+1e308i", "1+2i,2-i"])
    def test_finite_nonzero_state_normalizes(self, capsys, state):
        code, out, _ = run(capsys, "quantum", "born", "--state", state, "--post", "1,0")
        assert (code, out) == (0, "0.5\n")

    @pytest.mark.parametrize(
        "apart, joined",
        [
            ("born --state -1,1 --post 1,0", "born --state=-1,1 --post 1,0"),
            ("born --state 1,1 --post -.6,0.8", "born --state 1,1 --post=-.6,0.8"),
            (
                "abl-partial --state -1,-1,-1 --post 1,1,-1 --index 0",
                "abl-partial --state=-1,-1,-1 --post 1,1,-1 --index 0",
            ),
            (
                "abl-complete --state 1,1,1 --post -1,1,-1 --index 2 --basis -1,0,0;0,1,0;0,0,1",
                "abl-complete --state 1,1,1 --post=-1,1,-1 --index 2 --basis=-1,0,0;0,1,0;0,0,1",
            ),
            ("condition --state 1,1,1 --post -1,-1,1", "condition --state 1,1,1 --post=-1,-1,1"),
            ("aad --alpha 0.6 --beta -0.8i", "aad --alpha 0.6 --beta=-0.8i"),
            ("aad --alpha -0.6 --beta 0.8 --json", "aad --alpha=-0.6 --beta 0.8 --json"),
            ("born --stat -1,1 --po -1,0", "born --state=-1,1 --post=-1,0"),
        ],
    )
    def test_a_negative_amplitude_may_be_a_separate_argument(self, capsys, apart, joined):
        printed = run(capsys, "quantum", *apart.split())
        assert printed == run(capsys, "quantum", *joined.split())
        assert printed[0] == 0 and printed[1]

    def test_an_option_is_not_read_as_an_amplitude(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["quantum", "born", "--state", "--post", "1,0"])
        assert exit_.value.code == 2
        assert "argument --state: expected one argument" in capsys.readouterr().err

    def test_unnormalizable_state_exits_2(self, capsys):
        code, _, err = run(capsys, "quantum", "born", "--state", "0,0", "--post", "1,0")
        assert code == 2


class TestScenario:
    def test_json_report_and_exit_zero(self, capsys):
        code, out, _ = run(capsys, "scenario", "three-box-card", "--trials", "2000", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["scenario"] == "three-box-card"
        assert report["passed"] is True

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "scenario", "three-box-quantum")
        assert code == 0
        assert "scenario three-box-quantum: PASS" in out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_skipping_monte_carlo(self, capsys):
        code, out, _ = run(capsys, "scenario", "counterfactual", "--trials", "0", "--json")
        assert code == 0
        assert "Monte Carlo" not in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "scenario", "aad", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "description,expected,mode,computed,passed"

    def test_failed_claim_exits_1(self, capsys, monkeypatch):
        failing = ScenarioReport(
            name="aad",
            claims=[Claim("forced failure", "1", "test", "exact", {"route": "0"}, False)],
        )
        monkeypatch.setattr(scenarios, "run_scenario", lambda *a, **k: failing)
        code, out, _ = run(capsys, "scenario", "aad")
        assert code == 1
        assert "[FAIL]" in out

    def test_quantum_json_report(self, capsys):
        code, out, _ = run(capsys, "scenario", "three-box-quantum", "--json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("name, seed", [("interference", "17"), ("three-box-card", "0")])
    def test_monte_carlo_claim_without_samples_is_undecided(self, capsys, name, seed):
        code, out, err = run(capsys, "scenario", name, "--trials", "1", "--seed", seed, "--json")
        assert (code, err) == (1, "")
        claims = json.loads(out)["claims"]
        undecided = [c for c in claims if c["computed"].get("monte carlo") == "undecided: no samples"]
        assert undecided and not any(c["passed"] for c in undecided)

    @pytest.mark.parametrize("options", [("--trials", "-5"), ("--seed", "-1"), ("--seed", str(2**64))])
    def test_bad_trials_or_seed_exits_2(self, capsys, options):
        code, out, err = run(capsys, "scenario", "three-box-card", *options)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scenario", "nonsense"])
        assert excinfo.value.code == 2


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_deterministic_scenario_json(capsys):
    argv = ["scenario", "counterfactual", "--trials", "1500", "--seed", "4", "--json"]
    code_a = cli.main(argv)
    out_a = capsys.readouterr().out
    code_b = cli.main(argv)
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a == out_b


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_the_json_writer_matches_json_dumps_with_indent_2(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--observe", "Suit?S", "--observe", "Face", "--postselect", "Face=K", "--query", "Suit=S"],
        ["exact", "--observe", "Suit?S", "--observe", "Face", "--postselect", "Face=K"],
        ["simulate", "--observe", "Suit?S", "--observe", "Face", "--postselect", "Face=K", "--trials", "1000"],
        ["scenario", "three-box-card", "--trials", "1000"],
    ],
    ids=["exact query", "exact tree", "simulate", "scenario"],
)
def test_a_json_request_leaves_no_cyclic_garbage(capsys, deck_file, argv):
    if argv[0] != "scenario":
        argv = [argv[0], "--deck", deck_file, "--prepare", "Face=Q", *argv[1:]]
    argv = [*argv, "--json"]
    assert cli.main(argv) == 0  # a warm-up call loads every module and fills every cache
    capsys.readouterr()
    gc.collect()
    gc.disable()  # so that no automatic collection frees garbage before it is counted
    try:
        assert cli.main(argv) == 0
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
    json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# The CLI contract, over generated command lines
# ---------------------------------------------------------------------------

DECK = str(Path(__file__).resolve().parent.parent / "decks" / "threebox.deck")

# Tokens a hand might type in the wrong place: empty, option-like, negative, out of range, misspelt.
MUTANTS = st.sampled_from(
    ["", "-", "--", "-1", "-1,1", "-0.5i", "1e999", "nan", "0", "~", "=", "Suit?", "Face=~Q", "9:Face=K",
     "--json", "--obs", "--stat", "-h", "bogus", "no/such.deck"]
)
TARGETS = ("Face=Q", "Face=K", "Suit=~S", "Suit=S", "1:Suit=S", "2:Face=K", "Face=~J")
AMPLITUDES = ("1,1,1", "1,1,-1", "-1,1,1", "1,0,1", "1,0,-1", "0.6,0.8i,0", "1+2i,2-i,0", "0,0,0", "1,1")
RATIONALS = ("1/2", "1/4", "3/4", "0", "1", "1/0", "-1/2")
INDICES = ("0", "1", "2", "3")
ABL = {
    "--state": AMPLITUDES,
    "--post": AMPLITUDES,
    "--index": INDICES,
    "--basis": ("1,0,0;0,1,0;0,0,1", "1,1,0;1,-1,0;0,0,1", "1,0;0,1"),
}
EXPERIMENT = {"--deck": (DECK,), "--prepare": TARGETS[:4], "--postselect": TARGETS[1:], "--query": TARGETS[3:]}
RUN = {"--trials": ("0", "1", "10", "1000"), "--seed": ("0", "42", str(2**64 - 1), str(2**64), "-1")}
# Each subcommand's words and its options with their values; exact and simulate also take events.
REQUESTS = {
    "validate": {"--deck": (DECK,)},
    "exact": EXPERIMENT,
    "simulate": {**EXPERIMENT, **RUN},
    "formula partial": dict.fromkeys(
        ("--likelihood", "--prior", "--likelihood-negation", "--prior-negation"), RATIONALS
    ),
    "formula complete": {
        "--likelihoods": ("1/2,1/3,1", "1,0,1", "1/2"),
        "--priors": ("1/3,1/3,1/3", "1/2,1/2", "1,0,0"),
        "--index": INDICES,
    },
    "quantum abl-partial": ABL,
    "quantum abl-complete": ABL,
    "quantum born": {"--state": AMPLITUDES, "--post": AMPLITUDES},
    "quantum condition": {"--state": AMPLITUDES, "--post": AMPLITUDES},
    "quantum slits": {"--separation": ("10", "1", "0", "-3", "inf"), "--wavelength": ("1", "0.5")},
    "quantum aad": {"--alpha": ("0.6", "-0.6", "0.7071067811865476"), "--beta": ("0.8", "-0.8i")},
    "scenario": RUN,
}
# The options a request leaves out as often as not; any other is left out now and then.
OPTIONAL = {"--postselect", "--query", "--basis", "--trials", "--seed", "--alpha", "--beta"}
EVENTS = ("Suit", "Face", "Suit?S", "Face?K", "Suit?H")
# Choices drawn uniformly (Hypothesis draws small integers more often than others): keep an
# option, 1 in 10 left out or 1 in 2 if optional; mutate a value or insert a token, 1 in 10.
KEEP, KEEP_OPTIONAL, MUTATE = (True,) * 9 + (False,), (True, False), (False,) * 9 + (True,)
# Stray runs of tokens, inserted 1 in 4 after the first: events where no events are taken, and events after a "--".
STRAY = (False,) * 3 + (True,)
STRAYS = st.sampled_from(
    [["--"], ["--observe", "Suit", "--observe", "Face"], ["--", "--observe", "Suit", "--observe", "Face"]]
)


@st.composite
def command_lines(draw):
    """A small command line of any subcommand: its options in any order, events at most 8, trials at most 1,000.

    An option may be left out or its value or an event mutated, stray
    tokens may be inserted, and events are spelt ``--observe X``,
    ``--observe=X``, ``--obs X`` or several to one ``--observe``.
    """
    request = draw(st.sampled_from(sorted(REQUESTS)))
    groups = [
        [option, draw(st.sampled_from(values))]
        for option, values in REQUESTS[request].items()
        if draw(st.sampled_from(KEEP_OPTIONAL if option in OPTIONAL else KEEP))
    ]
    if request == "scenario":
        groups.append([draw(st.sampled_from(cli.SCENARIO_NAMES))])
    if request in ("exact", "simulate"):
        events = draw(st.lists(st.sampled_from(EVENTS), max_size=8))
        events = [draw(MUTANTS) if draw(st.sampled_from(MUTATE)) else event for event in events]
        while events:
            n = draw(st.integers(1, len(events)))
            spelling = draw(st.sampled_from(["--observe", "--observe=", "--obs"]))
            if spelling == "--observe=":
                groups.append([f"--observe={events[0]}"])
                n = 1
            else:
                groups.append([spelling, *events[:n]])
            events = events[n:]
    if draw(st.booleans()):
        groups.append([draw(st.sampled_from(["--json", "--csv"]))])
    for group in groups:
        if draw(st.sampled_from(MUTATE)):
            group[-1] = draw(MUTANTS)
    order = draw(st.permutations(range(len(groups))))
    argv = request.split() + [token for i in order for token in groups[i]]
    if draw(st.sampled_from(MUTATE)):
        argv.insert(draw(st.integers(0, len(argv))), draw(MUTANTS))
    if draw(st.sampled_from(STRAY)):
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = draw(STRAYS)
    return argv


def _outcome(call, argv):
    """What ``call(argv)`` returns, or the code it exits with, and what it printed on stdout and stderr.

    A namespace is given as its sorted fields with each value's repr, so that a ``nan`` equals itself.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exit_:
            result = exit_.code
    if isinstance(result, argparse.Namespace):
        result = sorted((name, repr(value)) for name, value in vars(result).items())
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=250, deadline=None)
@given(command_lines())
def test_every_command_line_exits_0_1_or_2_in_its_own_shape(argv):
    code, out, err = _outcome(cli.main, argv)
    parsed = _outcome(cli._parse, argv)[0]
    if not isinstance(parsed, list):  # argparse refused it, or printed help
        assert code == parsed in (0, 2)
        if code == 2:  # the usage block, then one line naming the (sub)command
            assert err.startswith("usage: threebox") and out == ""
            assert err.splitlines()[-1].startswith("threebox") and ": error: " in err.splitlines()[-1]
        else:
            assert out.startswith("usage: threebox") and err == ""
    elif code == 2:  # a refused value: one error line, nothing on stdout
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:  # a report; 1 only for a scenario with a failing claim
        assert code == 0 or (code == 1 and argv[0] == "scenario")
        assert out and err == ""


@settings(max_examples=250, deadline=None)
@given(command_lines())
def test_main_parses_as_the_top_level_parser_would(argv):
    """The subcommand's own parser and the ``--observe`` fold change nothing the parser gives or prints."""
    assert _outcome(cli._parse, argv) == _outcome(
        lambda argv: cli.build_parser().parse_args(cli._joined(argv, fold=False)), argv
    )


def _alternating(n: int) -> list[str]:
    events = [("Suit", "Face")[k % 2] for k in range(n)]
    return ["exact", "--deck", DECK, "--prepare", "Face=Q", *(t for e in events for t in ("--observe", e)),
            "--postselect", f"{n}:Face=K", "--query", "1:Suit=S"]


def test_a_deep_request_parses_with_one_observe_option():
    argv = _alternating(2048)
    assert cli._joined(argv, fold=True).count("--observe") == 1
    assert cli._parse(argv).observe == argv[6:-4:2]


# Linux caps one command-line argument at 128 KiB, so this is about the longest value a shell can pass.
HUGE = "9" * 120_000
HUGE_VALUES = {
    "simulate --seed": ["simulate", "--deck", DECK, "--prepare", "Face=Q", "--observe", "Suit", "--seed", HUGE],
    "simulate --trials": ["simulate", "--deck", DECK, "--prepare", "Face=Q", "--observe", "Suit", "--trials", HUGE],
    "scenario --seed": ["scenario", "aad", "--seed", HUGE],
    "scenario --trials": ["scenario", "three-box-card", "--trials", HUGE],
    "negative scenario --trials": ["scenario", "aad", "--trials", "-" + HUGE],
    "formula letters": [
        "formula", "partial", "--likelihood", "x" * 120_000, "--prior", "1",
        "--likelihood-negation", "0", "--prior-negation", "0",
    ],
    "formula zero denominator": [  # Fraction's own message would spell the numerator out
        "formula", "partial", "--likelihood", "9" * 5_000 + "/0", "--prior", "1",
        "--likelihood-negation", "0", "--prior-negation", "0",
    ],
    "exact --postselect ordinal": ["exact", "--deck", DECK, "--prepare", "Face=Q", "--observe", "Suit",
                                   "--postselect", HUGE + ":Suit=S"],
    "exact --query ordinal": ["exact", "--deck", DECK, "--prepare", "Face=Q", "--observe", "Suit",
                              "--query", HUGE + ":Suit=S"],
    "simulate --query ordinal": ["simulate", "--deck", DECK, "--prepare", "Face=Q", "--observe", "Suit",
                                 "--query", HUGE + ":Suit=S"],
    "formula complete --index": ["formula", "complete", "--likelihoods", "1,0", "--priors", "1/2,1/2",
                                 "--index", HUGE],
    "quantum abl-complete --index": ["quantum", "abl-complete", "--state", "1,1,1", "--post", "1,1,-1",
                                     "--index", HUGE],
    "quantum abl-partial --index": ["quantum", "abl-partial", "--state", "1,1,1", "--post", "1,1,-1",
                                    "--index", HUGE],
    "exact --query label": ["exact", "--deck", DECK, "--prepare", "Face=Q", "--observe", "Suit",
                            "--query", "Suit=" + "x" * 120_000],
    "exact --prepare label": ["exact", "--deck", DECK, "--prepare", "Face=" + "x" * 120_000],
    "exact --observe variable": ["exact", "--deck", DECK, "--prepare", "Face=Q", "--observe", "x" * 120_000],
    "exact --query without =": ["exact", "--deck", DECK, "--prepare", "Face=Q", "--observe", "Suit",
                                "--query", "x" * 120_000],
    "quantum amplitude": ["quantum", "born", "--state", "x" * 120_000, "--post", "1"],
}


@pytest.mark.parametrize("argv", HUGE_VALUES.values(), ids=HUGE_VALUES)
def test_a_huge_value_is_refused_at_once_in_one_short_line(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) <= 200


def test_a_seed_or_trial_count_of_20_digits_is_read_as_before(capsys):
    code, out, err = run(capsys, "scenario", "aad", "--seed", "0" * 30 + str(2**64 - 1), "--trials", str(2**64))
    assert (code, err) == (0, "") and "PASS" in out
    code, out, err = run(capsys, "scenario", "aad", "--seed", str(2**64))
    assert (code, out, err) == (2, "", f"error: seed must be in [0, 2**64), got {2**64}\n")


@pytest.mark.parametrize("name", cli.SCENARIO_NAMES)
def test_every_scenario_refuses_more_than_2_to_the_64_trials(capsys, name):
    start = time.perf_counter()
    code, out, err = run(capsys, "scenario", name, "--trials", str(2**64 + 1))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: a run takes at most 2**64 trials, got {2**64 + 1}\n"


README_EXACT = ["exact", "--deck", DECK, "--prepare", "Face=Q", "--postselect", "Face=K", "--query", "Suit=S"]


@pytest.mark.parametrize("form", ["--json", "--csv", None])
def test_events_after_one_observe_print_what_repeated_observes_print(capsys, form):
    tail = [form] if form else []
    folded = run(capsys, *README_EXACT, "--observe", "Suit?S", "Face", *tail)
    assert folded == run(capsys, *README_EXACT, "--observe", "Suit?S", "--observe", "Face", *tail)
    assert folded[0] == 0 and folded[1]


@pytest.mark.parametrize(
    "events",
    [
        ["--observe=Suit?S", "--observe", "Face", "--observe=Suit"],
        ["--obs", "Suit?S", "--observe", "Face", "--obs", "Suit"],
        ["--observe", "Suit?S", "--json", "--observe", "Face", "--seed", "3", "--observe", "Suit"],
        ["--observe", "Suit?S", "Face", "--observe", "Suit"],
        ["--observe", "Suit?S", "--observe", "Face", "Suit"],
    ],
    ids=["equals", "abbreviated", "split by other options", "several to one", "mixed"],
)
def test_every_spelling_of_the_events_parses_to_one_event_list(events):
    argv = ["simulate", "--deck", DECK, "--prepare", "Face=Q", *events]
    assert cli._parse(argv).observe == ["Suit?S", "Face", "Suit"]
    assert cli._parse(argv) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--observe", "Suit", "--observe", "--json"],
        ["exact", "--observe", "Suit", "--observe", "-h"],
        ["exact", "--observe", "Suit", "--observe", "-1", "--observe", "Face"],
        ["exact", "--json", "--", "--observe", "Suit", "--observe", "Face"],
        ["exact", "--observe", "Face", "--", "--observe", "Suit", "--observe", "Face"],
        ["scenario", "aad", "--observe", "Suit", "--observe", "Face"],
        ["validate", "--observe", "Suit", "--observe", "Face"],
    ],
    ids=["option after", "help after", "negative value", "after --", "into --", "scenario", "validate"],
)
def test_what_the_fold_leaves_alone_parses_as_before(argv):
    """A value that starts with ``-``, anything after ``--`` and a subcommand without events are not folded."""
    argv = [argv[0], "--deck", DECK, "--prepare", "Face=Q", *argv[1:]] if argv[0] == "exact" else argv
    assert _outcome(cli._parse, argv) == _outcome(cli.build_parser().parse_args, argv)
