"""One workload of the threebox benchmark, measured in its own process.

``run.py`` starts this file once per run, with the thread-count variables
of the numeric libraries set to 1, and reads the JSON object it prints on
its last line.  Every op is one ``threebox.cli.main(argv)`` call made
in-process with its standard output captured, then checked field by field.
Ops run back to back from one caller (a closed loop), pass after pass over
the workload's op list, until the next pass would overrun ``--seconds``; a
full-size run makes at least ``min_passes`` passes.  Pass ``p`` gives every
op that takes a seed the seed ``--seed + p``.

The reference loop (``reference.py``) is timed before the first op of a
pass and after every op, and the end-to-end times are reported scaled to
the reference host, with the measured times beside them.

With ``--trace 1`` passes alternate between untraced and traced; the
traced ones give the per-layer metrics (see ``tracing.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import reference
from tracing import PER_LAYER, Tracer, combine, rng_words_per_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECK = str(ROOT / "decks" / "threebox.deck")
EXPECTED = HERE / "expected.json"

WORKLOADS = ("simulate", "exact-deep", "scenarios")
DEFAULT_SEED = 42  # the CLI's default seed; expected.json stores Monte Carlo results for it
SCENARIO_DEFAULT_TRIALS = 100_000  # the CLI's default scenario trial count
SCENARIO_NAMES = ("three-box-card", "interference", "three-box-quantum", "aad", "counterfactual")
# Complete observations (3^d leaves) and the paper's partial suit check.
ALTERNATIONS = (("Suit", "Face"), ("Suit?S", "Face"))

# The smoke size runs the same op lists with small trial counts and depths.
# Sixteen passes give scenarios 16 three-box-card latencies, its slowest op,
# so its tail (the 11th largest latency) is always one of them and lies near
# their 35th percentile, not at an extreme, however fast the host runs.
SIZES = {
    "full": {"simulate_trials": 100_000, "depths": (2, 4, 6, 8), "scenario_trials": None, "min_passes": 16},
    "smoke": {"simulate_trials": 2_000, "depths": (2, 4), "scenario_trials": 2_000, "min_passes": 1},
}
SIMULATE_EVENTS = ("Suit?S", "Face")


class Mismatch(Exception):
    """An op returned a report that is not the right answer."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def within_5se(estimate: float, exact: Fraction, samples: int, what: str) -> None:
    """A Monte Carlo frequency agrees with its exact value: equal if 0 or 1, else within 5 SE."""
    if exact in (0, 1):
        require(estimate == exact, f"{what}: {estimate} where exactly {exact} is certain")
        return
    p = float(exact)
    se = math.sqrt(p * (1 - p) / samples)
    require(abs(estimate - p) <= 5 * se, f"{what}: {estimate} is more than 5 SE from {p}")


def leaf_digest(leaves: dict[str, Fraction]) -> str:
    """sha256 of a leaf table written canonically, one ``outcomes: num/den`` line per leaf."""
    text = "\n".join(f"{seq}: {p.numerator}/{p.denominator}" for seq, p in sorted(leaves.items()))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[dict], None]  # raises Mismatch (or a lookup error) on a wrong report
    trials: int = 0  # Monte Carlo trials the op asks for


# ---------------------------------------------------------------------------
# Output checks, by field
# ---------------------------------------------------------------------------


def check_query(report: dict, expected: dict) -> None:
    require(report["kind"] == "retrodiction", "query is not a retrodiction")
    require(report["query"]["ordinal"] == 1 and report["query"]["outcome"] == "S", "wrong query echoed")
    require(Fraction(report["value"]) == Fraction(expected["retrodiction"]), "retrodiction differs")


def check_tree(report: dict, events: list[str], depth: int, expected: dict) -> None:
    require(report["events"] == events and report["preparation"] == "Q", "wrong experiment echoed")
    require(report["postselection"]["ordinal"] == depth and report["postselection"]["outcome"] == "K",
            "wrong postselection echoed")
    leaves = {" ".join(leaf["outcomes"]): Fraction(leaf["probability"]) for leaf in report["leaves"]}
    require(len(leaves) == len(report["leaves"]) == expected["leaves"], "wrong number of leaves")
    require(sum(leaves.values()) == 1, "leaf probabilities do not sum to 1")
    require(leaf_digest(leaves) == expected["leaf_digest"], "leaf table differs")
    require(Fraction(report["acceptance_probability"]) == Fraction(expected["acceptance"]), "acceptance differs")


def check_simulate(report: dict, seed: int, trials: int, reference: "SimulateReference") -> None:
    require(report["trials"] == trials and report["seed"] == seed, "trials or seed echoed wrong")
    counts = {" ".join(row["outcomes"]): row["count"] for row in report["sequences"]}
    require(sum(counts.values()) == trials, "counts do not add up to the trials")
    accepted = sum(n for seq, n in counts.items() if seq.split()[1] == "K")
    require(report["accepted"] == accepted, "accepted differs from the K counts")
    retrodiction = report["retrodiction"]
    require(retrodiction["outcome"] == "S" and retrodiction["accepted"] == accepted, "wrong retrodiction echoed")
    if seed == DEFAULT_SEED:
        require(counts == reference.stored_counts[str(trials)], "counts differ from the stored default-seed run")
    else:
        require(set(counts) <= set(reference.leaves), "an impossible outcome sequence was tallied")
        for seq, p in reference.leaves.items():
            within_5se(counts.get(seq, 0) / trials, p, trials, f"frequency of {seq}")
    within_5se(float(report["acceptance_rate"]), reference.acceptance, trials, "acceptance rate")
    within_5se(float(retrodiction["estimate"]), reference.retrodiction, accepted, "retrodiction")


def check_scenario(report: dict, name: str, seed: int, stored: dict) -> None:
    require(report["scenario"] == name, "wrong scenario echoed")
    require(report["passed"] is True, "scenario does not pass")
    claims = report["claims"]
    require(bool(claims) and all(claim["passed"] is True for claim in claims), "a claim fails")
    if seed == DEFAULT_SEED and name in stored:
        seen = [[claim["description"], claim["computed"]] for claim in claims]
        require(seen == stored[name], "claims differ from the stored default-seed run")


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------


@dataclass
class SimulateReference:
    """Exact answers for the simulate op, computed once, outside the timed passes."""

    leaves: dict[str, Fraction]
    acceptance: Fraction
    retrodiction: Fraction
    stored_counts: dict[str, dict[str, int]]


def simulate_reference(expected: dict) -> SimulateReference:
    from threebox.deckfile import load_deck
    from threebox.exact import experiment_from_options, leaf_distribution

    experiment = experiment_from_options(load_deck(DECK), "Face=Q", SIMULATE_EVENTS, "Face=K")
    leaves = {" ".join(map(str, seq)): p for seq, p in leaf_distribution(experiment).items()}
    accepted = {seq: p for seq, p in leaves.items() if seq.split()[1] == "K"}
    acceptance = sum(accepted.values(), Fraction(0))
    hits = sum((p for seq, p in accepted.items() if seq.split()[0] == "S"), Fraction(0))
    return SimulateReference(leaves, acceptance, hits / acceptance, expected["simulate_counts"])


def build_ops(workload: str, seed: int, size: dict, expected: dict, reference) -> list[Op]:
    """The op list of one pass; ``seed`` is this pass's seed."""
    if workload == "simulate":
        trials = size["simulate_trials"]
        observe = [arg for event in SIMULATE_EVENTS for arg in ("--observe", event)]
        argv = ["simulate", "--deck", DECK, "--prepare", "Face=Q", *observe, "--postselect", "Face=K",
                "--query", "Suit=S", "--trials", str(trials), "--seed", str(seed), "--json"]
        return [Op("simulate", argv, partial(check_simulate, seed=seed, trials=trials, reference=reference), trials)]
    if workload == "exact-deep":
        ops = []
        for depth in size["depths"]:
            for alternation in ALTERNATIONS:
                events = [alternation[i % 2] for i in range(depth)]
                key = f"{'-'.join(alternation)}-d{depth}"
                answer = expected["exact"][key]
                observe = [arg for event in events for arg in ("--observe", event)]
                argv = ["exact", "--deck", DECK, "--prepare", "Face=Q", *observe, "--postselect", f"{depth}:Face=K",
                        "--json"]
                ops.append(Op(f"exact {key} query", [*argv, "--query", "1:Suit=S"], partial(check_query, expected=answer)))
                ops.append(Op(f"exact {key} tree", argv, partial(check_tree, events=events, depth=depth, expected=answer)))
        return ops
    trials = size["scenario_trials"]
    stored = expected["scenario_claims"][str(trials or SCENARIO_DEFAULT_TRIALS)]
    ops = []
    for name in SCENARIO_NAMES:
        argv = ["scenario", name, "--json", "--seed", str(seed)]
        if trials is not None:
            argv += ["--trials", str(trials)]
        mc_trials = expected["scenario_mc_runs"][name] * (trials or SCENARIO_DEFAULT_TRIALS)
        ops.append(Op(f"scenario {name}", argv, partial(check_scenario, name=name, seed=seed, stored=stored), mc_trials))
    return ops


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    label: str
    seconds: float
    trials: int
    error: str | None = None  # why the op failed
    wrong: bool = False  # the op answered, and the answer was wrong
    scaled: float = 0.0  # seconds scaled to the reference host


def run_op(op: Op, cli, tracer) -> OpResult:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exit_:
            code = exit_.code
        except Exception as exc:  # an op that raises is counted as failed, and the run goes on
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    result = OpResult(op.label, seconds, op.trials, error)
    if error is None and code != 0:
        result.error, result.wrong = f"exit {code}: {err.getvalue().strip()[:200]}", True
    elif error is None:
        try:
            op.check(json.loads(out.getvalue()))
        except (Mismatch, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            result.error, result.wrong = f"wrong output: {type(exc).__name__}: {exc}", True
    return result


def tail(latencies: list[float]) -> tuple[float, str]:
    """The latency at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of n={n}; fewer than 11 samples"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of n={n}, 10 samples beyond"


def metric(value, unit: str, detail: str) -> dict:
    return {"value": value, "unit": unit, "detail": detail}


def run_pass(ops: list[Op], cli, tracer) -> list[OpResult]:
    """Run the ops in order, reading the reference loop before the first and after each."""
    readings = [reference.reading()]
    results = []
    for op in ops:
        results.append(run_op(op, cli, tracer))
        readings.append(reference.reading())
    for r, before, after in zip(results, readings, readings[1:]):
        r.scaled = reference.scale(r.seconds, before, after)
    return results


def end_to_end(passes: list[list[OpResult]]) -> dict:
    """End-to-end metrics scaled to the reference host; each detail gives the measured value too."""
    walls = [sum(r.scaled for r in results) for results in passes]
    measured_walls = [sum(r.seconds for r in results) for results in passes]
    done = [r for results in passes for r in results if r.error is None]
    latencies_ms = [r.scaled * 1000 for r in done]
    measured_ms = [r.seconds * 1000 for r in done]
    trials = sum(r.trials for r in done)
    ops = sum(len(results) for results in passes)
    failed = ops - len(done)
    metrics = {"wall_s": metric(statistics.median(walls), "s",
                                f"median of {len(walls)} passes; measured {statistics.median(measured_walls):.4g} s")}
    if latencies_ms:
        value, detail = tail(latencies_ms)
        metrics["op_p50_ms"] = metric(statistics.median(latencies_ms), "ms",
                                      f"median of n={len(latencies_ms)}; measured {statistics.median(measured_ms):.4g} ms")
        metrics["op_tail_ms"] = metric(value, "ms", f"{detail}; measured {tail(measured_ms)[0]:.4g} ms")
    metrics["trials_per_s"] = metric(
        trials / sum(walls) if trials else None, "1/s", f"{trials} trials in {sum(walls):.3f} s of passes, scaled"
    )
    metrics["fail_ratio"] = metric(failed / ops, "ratio", f"{failed}/{ops} ops failed")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", "maximum RSS of this process"
    )
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, size_name: str) -> dict:
    from threebox import cli

    size = SIZES[size_name]
    expected = json.loads(EXPECTED.read_text())
    reference = simulate_reference(expected) if workload == "simulate" else None
    tracer = Tracer() if trace else None
    plain, traced, layers = [], [], []
    last_pass = {}
    start = perf_counter()
    p = 0
    while True:
        is_traced = trace and p % 2 == 1
        ops = build_ops(workload, seed + p, size, expected, reference)
        began = perf_counter()
        with tracer if is_traced else contextlib.nullcontext():
            results = run_pass(ops, cli, tracer if is_traced else None)
        last_pass[is_traced] = perf_counter() - began
        if is_traced:
            traced.append(results)
            layers.append(tracer.layer_metrics())
            if len(traced) == 1:
                replay = (dict(tracer.pool_sizes), layers[0]["montecarlo.trials"], tracer.words)
        else:
            plain.append(results)
        p += 1
        if p < (2 if trace else size["min_passes"]):
            continue  # traced: one pass of each kind at least
        if perf_counter() - start + last_pass[trace and p % 2 == 1] > seconds:
            break

    every = [r for results in plain + traced for r in results]
    failures: dict[str, int] = {}
    for r in every:
        if r.error is not None:
            key = f"{r.label}: {r.error}"
            failures[key] = failures.get(key, 0) + 1
    result = {
        "attempted": len(every),
        "failed": sum(r.error is not None for r in every),
        "wrong": sum(r.wrong for r in every),
        "failures": failures,
        "passes": p,
        "ops_per_pass": len(ops),
    }
    if not trace:
        result["metrics"] = end_to_end(plain)
    else:
        per_layer = combine(layers)
        per_layer["rng.words_per_s"] = rng_words_per_s(*replay, seed)
        per_layer["trace.overhead_s"] = (
            statistics.median(sum(r.seconds for r in rs) for rs in traced)
            - statistics.median(sum(r.seconds for r in rs) for rs in plain)
        )
        result["metrics"] = {
            name: metric(per_layer[name], unit, detail) for name, (unit, detail) in PER_LAYER.items()
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import threebox
        import threebox.rng
    except ImportError as error:
        print(f"bench: cannot import the program: {error}", file=sys.stderr)
        return 1
    if Path(threebox.__file__).resolve().parent != ROOT / "src" / "threebox":
        print(f"bench: threebox was imported from {threebox.__file__}, not from this checkout", file=sys.stderr)
        return 1
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    result["provenance"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "stream": threebox.rng.__doc__.split(":", 1)[0],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
